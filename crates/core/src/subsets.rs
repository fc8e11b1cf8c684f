//! Subset exploration: which subsets of a workload's programs are (maximally) robust.
//!
//! Section 7.2 of the paper reports, for every benchmark and setting, the *maximal* subsets of
//! transaction programs that the respective test attests robust (Figures 6 and 7). This module
//! reproduces that exploration on top of the [`RobustnessSession`]: one cached summary graph
//! per settings combination, one lane of a bit-sliced traversal per tested subset, and
//! **two-sided closure pruning** (Proposition 5.2). Robustness is preserved under
//! taking subsets, so the attested-robust family is downward closed and its complement, the
//! non-robust family, is upward closed. Both are decided from their borders (the levelwise
//! border search of Mannila & Toivonen) instead of by testing every set:
//!
//! 1. The full program set is tested first. If it is robust, every subset inherits robustness.
//! 2. Otherwise every program alone and every pair is tested; a pair containing a non-robust
//!    program inherits non-robustness. The non-robust masks form the `refuted` bitset.
//! 3. `refuted` is closed upward once, by a word-parallel superset-sum pass.
//! 4. Levels `n − 1` down to 3 are walked in descending popcount order. A refuted mask is
//!    decided by one bit test; a mask with a robust one-bit superset inherits robustness; every
//!    other mask becomes a lane of a cycle-test batch.
//!
//! Soundness of both directions is the same fact: a subset's summary graph is the induced
//! subgraph of the full one, and an induced subgraph can only lose cycles.
//!
//! # Word-indexed level traversal
//!
//! Verdicts live in bitsets over the masks (mask `m` at bit `m % 64` of word `m / 64`). Since
//! `popcount(m) = popcount(m / 64) + popcount(m % 64)`, the level-`k` masks of word `w` are the
//! in-word positions of popcount `k − popcount(w)` — one precomputed `u64` per popcount. Each
//! level is one pass over the word range: a range picks the still-open masks (neither robust
//! nor refuted) of the level out of its words, packs up to 64 of them into `u64` lanes and
//! decides each batch with one lane-parallel traversal of the shared graph (the private
//! `kernels` module docs describe the membership-word encoding). Nothing is collected per
//! level: peak memory is the bitsets plus one lane batch per thread.
//!
//! # Fan-out
//!
//! Small sweeps run inline on the calling thread. A large sweep opens one
//! [`std::thread::scope`] for its whole level walk: every thread takes word ranges of the
//! current level from a shared cursor, and a [`Barrier`] separates the levels, so a level
//! reads only verdicts the level above fully published. [`Parallelism::Auto`] fans out from
//! [`AUTO_FANOUT_MIN_SUBSETS`] subsets on.
//!
//! The test suites check the sweep against `mvrc_oracles::explore_subsets` of the dev-only
//! oracle crate, which rebuilds the summary graph and runs the scalar cycle test per subset.
//!
//! The sweep is exponential: it accepts at most [`MAX_SWEEP_PROGRAMS`] programs, and
//! [`TooManyPrograms`] is the typed error for larger workloads.

use crate::kernels;
use crate::session::RobustnessSession;
use crate::settings::AnalysisSettings;
use crate::summary::{NodeId, SummaryGraph};
use mvrc_par::Parallelism;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::cmp;
use std::fmt;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Barrier;

/// The largest number of programs a subset sweep accepts. The sweep visits all `2^n - 1`
/// non-empty subsets, and its verdict bitsets are sized for this bound.
pub const MAX_SWEEP_PROGRAMS: usize = 20;

/// A subset sweep was requested over more than [`MAX_SWEEP_PROGRAMS`] programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooManyPrograms {
    /// The number of programs the sweep was asked to cover.
    pub programs: usize,
}

impl TooManyPrograms {
    /// `Ok` when a sweep over `programs` programs is within [`MAX_SWEEP_PROGRAMS`].
    pub fn check(programs: usize) -> Result<(), TooManyPrograms> {
        if programs > MAX_SWEEP_PROGRAMS {
            Err(TooManyPrograms { programs })
        } else {
            Ok(())
        }
    }
}

impl fmt::Display for TooManyPrograms {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "subset exploration is exponential: {} programs exceed the limit of {MAX_SWEEP_PROGRAMS}",
            self.programs
        )
    }
}

impl std::error::Error for TooManyPrograms {}

/// Options controlling the subset exploration. They change how a sweep runs, never its
/// verdicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExploreOptions {
    /// How many threads the level walk may use. [`Parallelism::Auto`] fans out only from 2^18
    /// subsets (18 programs) on, where two threads measured faster than one;
    /// [`Parallelism::Threads`] fans out at any size whose levels span more than one 16-word
    /// range (from 11 programs on). [`Parallelism::Serial`] runs inline.
    pub parallelism: Parallelism,
}

/// Result of exploring all subsets of a workload's programs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SubsetExploration {
    /// The program names, in workload order; subsets are index sets into this list.
    pub programs: Vec<String>,
    /// The analysis settings used.
    pub settings: AnalysisSettings,
    /// Every subset (as sorted index vectors) attested robust, in lexicographic order of the
    /// index vectors.
    pub robust: Vec<Vec<usize>>,
    /// The maximal robust subsets (no robust strict superset exists), in lexicographic order
    /// of the index vectors.
    pub maximal: Vec<Vec<usize>>,
    /// Number of cycle tests actually run (`2^n - 1` minus the subsets decided by pruning).
    pub cycle_tests: usize,
    /// Number of subsets decided by closure pruning alone, in either direction: attested
    /// robust as a subset of a robust set, or refuted as a superset of a non-robust one.
    pub pruned: usize,
    /// Always `0`: every sweep decides all of its subsets, so `cycle_tests + pruned == 2^n - 1`.
    /// The field keeps the `subsets --json` bytes and the benchmark harness's reads unchanged;
    /// it goes with the next change to the benchmark.
    pub reused: usize,
}

impl SubsetExploration {
    /// Renders a subset like the paper does, e.g. `{OS, Pay, SL}`, using the provided
    /// abbreviation function.
    pub fn render_subset(&self, subset: &[usize], abbreviate: impl Fn(&str) -> String) -> String {
        let names: Vec<String> = subset
            .iter()
            .map(|&i| abbreviate(&self.programs[i]))
            .collect();
        format!("{{{}}}", names.join(", "))
    }

    /// Renders the maximal robust subsets as a comma-separated list, e.g.
    /// `{Am, DC, TS}, {Bal, DC}, {Bal, TS}`.
    pub fn render_maximal(&self, abbreviate: impl Fn(&str) -> String) -> String {
        let mut rendered: Vec<String> = self
            .maximal
            .iter()
            .map(|s| self.render_subset(s, &abbreviate))
            .collect();
        rendered.sort_by_key(|s| (usize::MAX - s.matches(',').count(), s.clone()));
        rendered.join(", ")
    }

    /// Returns `true` if the given set of program names (in any order) is among the maximal
    /// robust subsets.
    pub fn is_maximal_robust(&self, names: &[&str]) -> bool {
        let mut indices: Vec<usize> = names
            .iter()
            .filter_map(|n| self.programs.iter().position(|p| p == n))
            .collect();
        indices.sort_unstable();
        indices.len() == names.len() && self.maximal.contains(&indices)
    }
}

/// `POPCOUNT_CLASS[j]` has bit `b` set iff the in-word position `b` (`0..64`) has `j` one bits,
/// so the level-`k` masks of word `w` are the positions in `POPCOUNT_CLASS[k - popcount(w)]`.
const POPCOUNT_CLASS: [u64; 7] = {
    let mut classes = [0u64; 7];
    let mut b = 0;
    while b < 64 {
        classes[(b as u64).count_ones() as usize] |= 1 << b;
        b += 1;
    }
    classes
};

/// `BIT_CLEAR[i]` has bit `b` set iff the in-word position `b` has bit `i` clear (`i < 6`). A
/// word shifted left by `1 << i` under this mask moves each such mask onto its superset with
/// program `i` added; shifted right and then masked, it moves each superset back.
const BIT_CLEAR: [u64; 6] = [
    0x5555_5555_5555_5555,
    0x3333_3333_3333_3333,
    0x0f0f_0f0f_0f0f_0f0f,
    0x00ff_00ff_00ff_00ff,
    0x0000_ffff_0000_ffff,
    0x0000_0000_ffff_ffff,
];

/// Words per range a thread of a parallel level walk takes at once: enough masks per range
/// for the lane batches to fill on dense levels.
const WORD_GRAIN: usize = 16;

/// The subset count (`2^n`) from which [`Parallelism::Auto`] fans the level walk out. On a
/// 2-core host (straight-line synthetic workloads, seed 7, median sweep times), two threads
/// were no faster than one below it (0.30 against 0.30–0.43 ms at 2^16 subsets, 0.40–0.65
/// against 0.51–0.70 ms at 2^17) and faster from it on (1.20–1.27 against 1.07–1.17 ms at
/// 2^18, 5.1–5.3 against 3.8–4.0 ms at 2^20). One spawn and 17 level barriers cost ~0.18 ms.
const AUTO_FANOUT_MIN_SUBSETS: usize = 1 << 18;

/// The masks whose bits are set in word `w` of a mask bitset, in ascending order.
fn word_masks(w: usize, mut bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (bits != 0).then(|| {
            let b = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            w * 64 + b
        })
    })
}

/// Orders two subset masks as their ascending index lists compare lexicographically, in O(1):
/// both lists agree below the lowest differing bit `i`, where the mask holding `i` continues
/// with `i` and the other with its next higher member — or ends, making it a prefix that sorts
/// first.
fn lexicographic_cmp(&a: &usize, &b: &usize) -> cmp::Ordering {
    let diff = a ^ b;
    let low = diff & diff.wrapping_neg();
    if low == 0 {
        return cmp::Ordering::Equal;
    }
    let (holder_first, other) = if a & low != 0 {
        (cmp::Ordering::Less, b)
    } else {
        (cmp::Ordering::Greater, a)
    };
    if other & !(low - 1) == 0 {
        holder_first.reverse()
    } else {
        holder_first
    }
}

/// The ascending index list of a subset mask.
fn mask_members(mask: usize) -> Vec<usize> {
    let mut members = Vec::with_capacity(mask.count_ones() as usize);
    let mut bits = mask;
    while bits != 0 {
        members.push(bits.trailing_zeros() as usize);
        bits &= bits - 1;
    }
    members
}

/// The non-empty subset masks of word `w` of an `n`-program mask bitset: every position,
/// except mask 0 and, when fewer than 6 programs leave the word part-filled, the positions from
/// `2^n` on.
fn subset_bits(n: usize, w: usize) -> u64 {
    let filled = if n >= 6 {
        u64::MAX
    } else {
        (1u64 << (1 << n)) - 1
    };
    if w == 0 {
        filled & !1
    } else {
        filled
    }
}

/// The masks of popcount `level` (`1..=n`) in word `w`.
fn level_bits(n: usize, w: usize, level: usize) -> u64 {
    match level.checked_sub(w.count_ones() as usize) {
        Some(in_word) if in_word < POPCOUNT_CLASS.len() => {
            POPCOUNT_CLASS[in_word] & subset_bits(n, w)
        }
        _ => 0,
    }
}

/// The masks of word `w` with a one-bit superset set in the `n`-program bitset read through
/// `word`. For a program `i < 6` the superset sits `1 << i` positions higher in the same word;
/// for `i ≥ 6` it sits at the same position of word `w | 1 << (i − 6)`.
fn one_bit_supersets(n: usize, w: usize, word: impl Fn(usize) -> u64) -> u64 {
    let here = word(w);
    let mut found = 0;
    for (i, clear) in BIT_CLEAR.iter().enumerate().take(n) {
        found |= (here >> (1 << i)) & clear;
    }
    for i in 6..n {
        let stride = 1 << (i - 6);
        if w & stride == 0 {
            found |= word(w | stride);
        }
    }
    found
}

/// Closes an `n`-program mask bitset upward, so every superset of a set mask is set: a
/// superset-sum pass per program, O(n · 2^n / 64) word operations in all.
fn close_upward(n: usize, words: &mut [u64]) {
    for word in words.iter_mut() {
        for (i, clear) in BIT_CLEAR.iter().enumerate().take(n) {
            *word |= (*word & clear) << (1 << i);
        }
    }
    for i in 6..n {
        let stride = 1 << (i - 6);
        for w in (0..words.len()).filter(|w| w & stride == 0) {
            words[w | stride] |= words[w];
        }
    }
}

/// Work counters of one or more sweep steps: how many cycle tests ran and how many masks were
/// decided by closure pruning alone. Summing the counters of a partition of a level's words
/// reproduces the single-sweep accounting exactly (each mask is visited by exactly one range,
/// and the decision depends only on `refuted` and the fully published verdicts of the level
/// above).
#[derive(Clone, Copy, Default)]
struct SweepCounters {
    cycle_tests: usize,
    pruned: usize,
}

impl SweepCounters {
    fn merged(self, other: SweepCounters) -> SweepCounters {
        SweepCounters {
            cycle_tests: self.cycle_tests + other.cycle_tests,
            pruned: self.pruned + other.pruned,
        }
    }
}

/// Number of `u64` words the bitsets of a sweep over `n` programs need.
fn word_count_for(n: usize) -> usize {
    (1usize << n).div_ceil(64)
}

/// The core of the subset sweep: a session-backed cycle tester over the shared summary graph
/// plus two bitsets over the masks (mask `m` at bit `m % 64` of word `m / 64`): the atomic
/// robust verdicts and the masks refuted as supersets of known-non-robust sets.
///
/// [`explore_subsets_with`] runs [`decide`](Self::decide), which passes every walked level's
/// word range through [`run_words`](Self::run_words) in ranges. The split into ranges is
/// *invisible in the result*: verdicts are deterministic per mask, and the decision for a mask
/// only reads `refuted` (fixed before the walk) and the fully published verdicts of the level
/// above, so any partition of a level produces identical verdict bits and identical summed
/// counters.
struct LevelSweep {
    graph: std::sync::Arc<SummaryGraph>,
    settings: AnalysisSettings,
    programs: Vec<String>,
    nodes_per_program: Vec<Vec<NodeId>>,
    robust: Vec<AtomicU64>,
    /// Masks known to be non-robust: the failed cycle tests of the border levels (the full
    /// set, singletons and pairs) and, after the upward closure, every superset of those.
    /// Fixed while the levels are walked.
    refuted: Vec<u64>,
}

/// Per-thread sweep temporaries: the pending-mask batch and the lane matrices, so a sweep
/// split into many small ranges does not churn allocations.
#[derive(Default)]
struct SweepScratch {
    batch: Vec<usize>,
    lanes: kernels::LaneScratch,
}

fn with_sweep_scratch<R>(f: impl FnOnce(&mut SweepScratch) -> R) -> R {
    SCRATCH.with(|scratch| f(&mut scratch.borrow_mut()))
}

thread_local! {
    static SCRATCH: RefCell<SweepScratch> = RefCell::new(SweepScratch::default());
}

impl LevelSweep {
    /// Opens a sweep over the session's programs under the given settings, using the session's
    /// cached summary graph (built on first use). Fails with [`TooManyPrograms`] — before any
    /// graph is built — when the session has more than [`MAX_SWEEP_PROGRAMS`] programs.
    fn new(
        session: &RobustnessSession,
        settings: AnalysisSettings,
    ) -> Result<Self, TooManyPrograms> {
        let programs: Vec<String> = session.program_names().to_vec();
        let n = programs.len();
        TooManyPrograms::check(n)?;
        // One (cached) Algorithm 1 run over the full LTP set; node ids follow the LTP order,
        // so the per-program node lists are ascending and so are their concatenations.
        let graph = session.graph(settings);
        let nodes_per_program: Vec<Vec<NodeId>> = programs
            .iter()
            .map(|name| {
                session
                    .ltps()
                    .iter()
                    .enumerate()
                    .filter(|(_, l)| l.program_name() == name)
                    .map(|(id, _)| id)
                    .collect()
            })
            .collect();
        let words = word_count_for(n);
        Ok(LevelSweep {
            graph,
            settings,
            programs,
            nodes_per_program,
            robust: (0..words).map(|_| AtomicU64::new(0)).collect(),
            refuted: vec![0; words],
        })
    }

    #[inline]
    fn robust_word(&self, w: usize) -> u64 {
        self.robust[w].load(Ordering::Relaxed)
    }

    #[inline]
    fn is_robust(&self, mask: usize) -> bool {
        self.robust_word(mask / 64) & (1u64 << (mask % 64)) != 0
    }

    #[inline]
    fn is_refuted(&self, mask: usize) -> bool {
        self.refuted[mask / 64] & (1u64 << (mask % 64)) != 0
    }

    /// Whether `mask` still needs a verdict: neither refuted nor known robust.
    fn is_open(&self, mask: usize) -> bool {
        let w = mask / 64;
        (self.refuted[w] | self.robust_word(w)) & (1u64 << (mask % 64)) == 0
    }

    /// The masks of word `w` that have a robust one-bit superset.
    fn robust_supersets(&self, w: usize) -> u64 {
        one_bit_supersets(self.programs.len(), w, |v| self.robust_word(v))
    }

    /// Decides a batch of up to 64 open masks with one lane-parallel traversal
    /// ([`kernels::sweep_lanes`]): lane `i` is mask `masks[i]`, each graph node's membership
    /// word ORs together the lanes whose subset contains the node's program. Robust lanes are
    /// published into the verdict bitset; the caller counts one cycle test per lane.
    fn flush_lane_batch(&self, masks: &[usize], lanes: &mut kernels::LaneScratch) {
        debug_assert!(!masks.is_empty() && masks.len() <= 64);
        let plan = self.graph.lane_plan(self.settings.condition);
        lanes.member.clear();
        lanes.member.resize(plan.universe, 0);
        for (lane, &mask) in masks.iter().enumerate() {
            let bit = 1u64 << lane;
            for (i, nodes) in self.nodes_per_program.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    for &v in nodes {
                        lanes.member[v] |= bit;
                    }
                }
            }
        }
        let batch = if masks.len() == 64 {
            u64::MAX
        } else {
            (1u64 << masks.len()) - 1
        };
        let mut robust = kernels::sweep_lanes(plan, lanes, batch);
        while robust != 0 {
            let mask = masks[robust.trailing_zeros() as usize];
            self.robust[mask / 64].fetch_or(1u64 << (mask % 64), Ordering::Relaxed);
            robust &= robust - 1;
        }
    }

    /// Cycle-tests the border masks `masks` on the calling thread and refutes those that fail.
    fn test_border(&mut self, masks: &[usize]) {
        with_sweep_scratch(|scratch| {
            for batch in masks.chunks(64) {
                self.flush_lane_batch(batch, &mut scratch.lanes);
            }
        });
        for &mask in masks {
            if !self.is_robust(mask) {
                self.refuted[mask / 64] |= 1u64 << (mask % 64);
            }
        }
    }

    /// Steps 1–3 of the sweep (see the module docs) over `n ≥ 1` programs: tests the full
    /// set; if it is robust, every open mask inherits robustness. Otherwise tests every open
    /// singleton and pair — a pair with a refuted program is refuted untested — and closes
    /// `refuted` upward. Returns the counters and the levels left to the walk: none, or
    /// `3..n`.
    fn decide_borders(&mut self) -> (SweepCounters, Range<usize>) {
        let n = self.programs.len();
        let full = (1usize << n) - 1;
        let mut counters = SweepCounters::default();
        if self.is_open(full) {
            self.test_border(&[full]);
            counters.cycle_tests += 1;
        }
        if self.is_robust(full) {
            for w in 0..self.robust.len() {
                let open = subset_bits(n, w) & !self.robust_word(w);
                self.robust[w].fetch_or(open, Ordering::Relaxed);
                counters.pruned += open.count_ones() as usize;
            }
            return (counters, 0..0);
        }

        let singletons: Vec<usize> = (0..n)
            .map(|i| 1 << i)
            .filter(|&mask| self.is_open(mask))
            .collect();
        counters.cycle_tests += singletons.len();
        self.test_border(&singletons);

        let mut pairs = Vec::new();
        for j in 1..n {
            for i in 0..j {
                let pair = (1 << i) | (1 << j);
                if !self.is_open(pair) {
                    continue;
                }
                if self.is_refuted(1 << i) || self.is_refuted(1 << j) {
                    self.refuted[pair / 64] |= 1u64 << (pair % 64);
                    counters.pruned += 1;
                } else {
                    pairs.push(pair);
                }
            }
        }
        counters.cycle_tests += pairs.len();
        self.test_border(&pairs);

        close_upward(n, &mut self.refuted);
        (counters, 3..n)
    }

    /// Decides every mask with up to `threads` threads and returns the summed counters.
    fn decide(&mut self, threads: usize) -> SweepCounters {
        let n = self.programs.len();
        let (borders, walked) = if n > 0 {
            self.decide_borders()
        } else {
            (SweepCounters::default(), 0..0)
        };
        let totals = borders.merged(self.walk_levels(walked, threads));
        debug_assert!(
            (0..self.refuted.len()).all(|w| self.refuted[w] & self.robust_supersets(w) == 0),
            "a refuted mask has a robust one-bit superset"
        );
        totals
    }

    /// Decides the open masks of `levels`, in descending order, through
    /// [`run_words`](Self::run_words). With one thread, or one [`WORD_GRAIN`] range per level,
    /// the walk runs inline. Otherwise one scope holds `threads − 1` helpers besides the caller
    /// for the whole walk: each thread takes word ranges (at least [`WORD_GRAIN`] words) of the
    /// current level from that level's cursor, and the barrier after each level publishes its
    /// verdicts (the barrier's synchronization orders every `Relaxed` store of level `k + 1`
    /// before every load at level `k`). A panic in one thread is carried past the remaining
    /// barriers, so no thread waits forever, and is resumed on the caller once the scope has
    /// joined.
    fn walk_levels(&self, levels: Range<usize>, threads: usize) -> SweepCounters {
        let words = self.robust.len();
        let threads = threads.min(words.div_ceil(WORD_GRAIN));
        if threads <= 1 {
            return levels.rev().fold(SweepCounters::default(), |acc, level| {
                acc.merged(self.run_words(level, 0..words))
            });
        }
        let cursors: Vec<AtomicUsize> = levels.clone().map(|_| AtomicUsize::new(0)).collect();
        let barrier = Barrier::new(threads);
        // About eight ranges per thread and level: on 2^20 subsets, 16-word ranges meant 1,024
        // increments of one contended cursor per level and made two threads slower than one.
        let grain = WORD_GRAIN.max(words / (threads * 8));
        let walk = || {
            let mut counters = SweepCounters::default();
            let mut panic = None;
            for (level, cursor) in levels.clone().rev().zip(&cursors) {
                if panic.is_none() {
                    let step = catch_unwind(AssertUnwindSafe(|| {
                        let mut step = SweepCounters::default();
                        loop {
                            let start = cursor.fetch_add(grain, Ordering::Relaxed);
                            if start >= words {
                                return step;
                            }
                            let end = (start + grain).min(words);
                            step = step.merged(self.run_words(level, start..end));
                        }
                    }));
                    match step {
                        Ok(step) => counters = counters.merged(step),
                        Err(payload) => panic = Some(payload),
                    }
                }
                barrier.wait();
            }
            panic.map_or(Ok(counters), Err)
        };
        std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(walk)).collect();
            let mut totals = walk();
            for helper in helpers {
                let theirs = helper.join().expect("sweep threads catch their own panics");
                totals = match (totals, theirs) {
                    (Ok(ours), Ok(theirs)) => Ok(ours.merged(theirs)),
                    (Err(payload), _) | (_, Err(payload)) => Err(payload),
                };
            }
            totals.unwrap_or_else(|payload| resume_unwind(payload))
        })
    }

    /// Decides the open masks of `level` in the words `words`.
    /// Verdicts are published into the shared bitset; the returned counters cover exactly these
    /// words. A refuted mask is counted as pruned, a mask with a robust one-bit superset
    /// inherits robustness, and every other open mask is packed into a lane batch.
    ///
    /// Correct accounting requires the caller to respect the level order: every range of level
    /// `k + 1` must complete before any range of level `k` runs — the level barrier of
    /// [`walk_levels`](Self::walk_levels) does.
    fn run_words(&self, level: usize, words: Range<usize>) -> SweepCounters {
        let n = self.programs.len();
        let mut counters = SweepCounters::default();
        with_sweep_scratch(|SweepScratch { batch, lanes }| {
            // Deferring the verdict publication to the batch flush is sound: the inheritance
            // check for a level-k mask reads only its one-bit supersets at level k+1 (fully
            // published before this level ran) — never the in-flight verdicts of its own level.
            // The final flush below completes before the range returns, hence before the level
            // barrier.
            batch.clear();
            for w in words {
                let at_level = level_bits(n, w, level);
                let refuted = at_level & self.refuted[w];
                counters.pruned += refuted.count_ones() as usize;
                let open = at_level & !refuted;
                if open == 0 {
                    continue;
                }
                let inherited = open & self.robust_supersets(w);
                if inherited != 0 {
                    self.robust[w].fetch_or(inherited, Ordering::Relaxed);
                    counters.pruned += inherited.count_ones() as usize;
                }
                let tested = open & !inherited;
                counters.cycle_tests += tested.count_ones() as usize;
                for mask in word_masks(w, tested) {
                    batch.push(mask);
                    if batch.len() == 64 {
                        self.flush_lane_batch(batch, lanes);
                        batch.clear();
                    }
                }
            }
            if !batch.is_empty() {
                self.flush_lane_batch(batch, lanes);
                batch.clear();
            }
        });
        counters
    }

    /// Assembles the final [`SubsetExploration`] from the verdict bits and the summed counters.
    /// A robust mask is maximal exactly when none of its one-bit supersets is robust, because
    /// the robust family is downward closed.
    fn exploration(&self, counters: SweepCounters) -> SubsetExploration {
        let mut robust = Vec::new();
        let mut maximal = Vec::new();
        for w in 0..self.robust.len() {
            let here = self.robust_word(w);
            if here == 0 {
                continue;
            }
            robust.extend(word_masks(w, here));
            maximal.extend(word_masks(w, here & !self.robust_supersets(w)));
        }
        robust.sort_unstable_by(lexicographic_cmp);
        maximal.sort_unstable_by(lexicographic_cmp);
        SubsetExploration {
            programs: self.programs.clone(),
            settings: self.settings,
            robust: robust.into_iter().map(mask_members).collect(),
            maximal: maximal.into_iter().map(mask_members).collect(),
            cycle_tests: counters.cycle_tests,
            pruned: counters.pruned,
            reused: 0,
        }
    }
}

/// Explores every non-empty subset of the workload's programs and reports which are robust
/// under the given settings, using the default [`ExploreOptions`].
///
/// # Panics
///
/// Panics when the session has more than [`MAX_SWEEP_PROGRAMS`] programs, like
/// [`explore_subsets_with`].
pub fn explore_subsets(
    session: &RobustnessSession,
    settings: AnalysisSettings,
) -> SubsetExploration {
    explore_subsets_with(session, settings, ExploreOptions::default())
}

/// [`explore_subsets`] with explicit options.
///
/// The session's cached summary graph for `settings` is (built once and) shared across the
/// whole sweep; every tested subset is decided on a lane of one traversal of that graph
/// restricted to the subset's nodes. This is sound because Algorithm 1's edges are defined
/// pairwise over LTPs: the summary graph of a subset equals the induced subgraph of the full
/// summary graph.
///
/// The full set is tested first, then (when it is not robust) the singletons and pairs, and
/// the remaining levels are walked in descending popcount order, deciding supersets of
/// non-robust sets and subsets of robust sets without a cycle test (the module docs give the
/// steps). Proposition 5.2 makes this exact, so no option turns it off. Levels are
/// independent-within and ordered-between: a fanned-out sweep splits each level into word
/// ranges across its threads, and the barrier between levels keeps the pruning reads
/// race-free — a level only ever reads verdict bits of the level above it, which the
/// preceding pass fully published.
///
/// # Panics
///
/// Panics when the session has more than [`MAX_SWEEP_PROGRAMS`] programs. Callers serving
/// arbitrary workloads check [`TooManyPrograms::check`] first.
pub fn explore_subsets_with(
    session: &RobustnessSession,
    settings: AnalysisSettings,
    options: ExploreOptions,
) -> SubsetExploration {
    let mut sweep = LevelSweep::new(session, settings).unwrap_or_else(|e| panic!("{e}"));
    let threads = match options.parallelism {
        Parallelism::Auto if (1usize << sweep.programs.len()) < AUTO_FANOUT_MIN_SUBSETS => 1,
        parallelism => parallelism.effective_threads(),
    };
    let totals = sweep.decide(threads);
    sweep.exploration(totals)
}

/// Default abbreviation used when rendering subsets: the upper-case letters (and digits) of the
/// program name, e.g. `NewOrder → NO`, `DepositChecking → DC`. Falls back to the full name when
/// the name contains no upper-case letters.
pub fn abbreviate_program_name(name: &str) -> String {
    let abbrev: String = name
        .chars()
        .filter(|c| c.is_ascii_uppercase() || c.is_ascii_digit())
        .collect();
    if abbrev.is_empty() {
        name.to_string()
    } else {
        abbrev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::settings::{CycleCondition, Granularity};
    use mvrc_btp::ProgramBuilder;
    use mvrc_schema::SchemaBuilder;

    fn auction_session() -> RobustnessSession {
        let mut b = SchemaBuilder::new("auction");
        let buyer = b.relation("Buyer", &["id", "calls"], &["id"]).unwrap();
        let bids = b
            .relation("Bids", &["buyerId", "bid"], &["buyerId"])
            .unwrap();
        let log = b
            .relation("Log", &["id", "buyerId", "bid"], &["id"])
            .unwrap();
        b.foreign_key("f1", bids, &["buyerId"], buyer, &["id"])
            .unwrap();
        b.foreign_key("f2", log, &["buyerId"], buyer, &["id"])
            .unwrap();
        let schema = b.build();

        let mut fb = ProgramBuilder::new(&schema, "FindBids");
        let q1 = fb
            .key_update("q1", "Buyer", &["calls"], &["calls"])
            .unwrap();
        let q2 = fb.pred_select("q2", "Bids", &["bid"], &["bid"]).unwrap();
        fb.seq(&[q1.into(), q2.into()]);

        let mut pb = ProgramBuilder::new(&schema, "PlaceBid");
        let q3 = pb
            .key_update("q3", "Buyer", &["calls"], &["calls"])
            .unwrap();
        let q4 = pb.key_select("q4", "Bids", &["bid"]).unwrap();
        let q5 = pb.key_update("q5", "Bids", &[], &["bid"]).unwrap();
        let q6 = pb.insert("q6", "Log").unwrap();
        pb.seq(&[q3.into(), q4.into()]);
        pb.optional(q5.into());
        pb.push(q6.into());
        pb.fk_constraint("f1", q4, q3).unwrap();
        pb.fk_constraint("f1", q5, q3).unwrap();
        pb.fk_constraint("f2", q6, q3).unwrap();

        let programs = vec![fb.build(), pb.build()];
        RobustnessSession::from_programs(&schema, &programs)
    }

    #[test]
    fn mask_comparator_orders_masks_like_their_index_lists() {
        for n in 0..=10 {
            let mut masks: Vec<usize> = (1..1usize << n).collect();
            masks.sort_by(lexicographic_cmp);
            let mut lists: Vec<Vec<usize>> = (1..1usize << n)
                .map(|m| (0..n).filter(|i| m & (1 << i) != 0).collect())
                .collect();
            lists.sort();
            let sorted: Vec<Vec<usize>> = masks.into_iter().map(mask_members).collect();
            assert_eq!(sorted, lists, "n = {n}");
        }
    }

    #[test]
    fn auction_maximal_subsets_match_figure_6_and_7() {
        let session = auction_session();

        // Algorithm 2, attr dep + FK: the whole benchmark {FB, PB} is robust (Figure 6).
        let type2 = explore_subsets(&session, AnalysisSettings::paper_default());
        assert_eq!(type2.maximal, vec![vec![0, 1]]);
        assert!(type2.is_maximal_robust(&["FindBids", "PlaceBid"]));
        assert_eq!(type2.render_maximal(abbreviate_program_name), "{FB, PB}");
        // The full set is robust, so both singletons are pruned: exactly one cycle test runs.
        assert_eq!(type2.cycle_tests, 1);
        assert_eq!(type2.pruned, 2);

        // Baseline [3], attr dep + FK: only the singletons are robust (Figure 7).
        let type1 = explore_subsets(
            &session,
            AnalysisSettings::baseline(Granularity::Attribute, true),
        );
        assert_eq!(type1.maximal, vec![vec![0], vec![1]]);
        assert_eq!(type1.render_maximal(abbreviate_program_name), "{FB}, {PB}");
        assert_eq!(type1.cycle_tests, 3);

        // Without foreign keys even Algorithm 2 only attests {FB} (Figure 6, rows 1-2).
        let no_fk = explore_subsets(
            &session,
            AnalysisSettings {
                granularity: Granularity::Attribute,
                use_foreign_keys: false,
                condition: CycleCondition::TypeII,
            },
        );
        assert_eq!(no_fk.render_maximal(abbreviate_program_name), "{FB}");
    }

    #[test]
    fn pruned_and_exhaustive_paths_agree() {
        // The pruned sweep against the exhaustive per-subset scalar cycle test on the
        // induced view of every program subset.
        let session = auction_session();
        let programs = session.program_names().to_vec();
        for condition in [CycleCondition::TypeII, CycleCondition::TypeI] {
            for settings in AnalysisSettings::evaluation_grid(condition) {
                let pruned = explore_subsets(&session, settings);
                let graph = session.graph(settings);
                let mut exhaustive: Vec<Vec<usize>> = (1usize..1 << programs.len())
                    .map(mask_members)
                    .filter(|subset| {
                        let names: Vec<&str> =
                            subset.iter().map(|&i| programs[i].as_str()).collect();
                        let view = graph.induced_for_programs(&names).unwrap();
                        crate::is_robust_view(&view, condition)
                    })
                    .collect();
                exhaustive.sort();
                assert_eq!(pruned.robust, exhaustive, "under {settings}");
                assert_eq!(pruned.cycle_tests + pruned.pruned, 3, "under {settings}");
            }
        }
    }

    #[test]
    fn word_range_partitions_reproduce_the_whole_sweep() {
        // Walking every level one word at a time must reproduce the monolithic sweep's verdicts
        // and summed counters exactly. A 9-program synthetic workload is mostly non-robust, so
        // all four steps run: border tests, refuted pairs, the upward closure and the walk of
        // levels 8..=3 over eight words.
        let session = RobustnessSession::new(mvrc_benchmarks::synthetic(
            mvrc_benchmarks::SyntheticConfig {
                programs: 9,
                loop_probability: 0.0,
                optional_probability: 0.0,
                seed: 3,
                ..mvrc_benchmarks::SyntheticConfig::default()
            },
        ));
        let settings = AnalysisSettings::paper_default();
        let reference = explore_subsets_with(
            &session,
            settings,
            ExploreOptions {
                parallelism: Parallelism::Serial,
            },
        );
        assert!(reference.pruned > 0 && reference.cycle_tests > 0);

        let mut sweep = LevelSweep::new(&session, settings).unwrap();
        let words = sweep.robust.len();
        let (borders, walked) = sweep.decide_borders();
        let totals = walked.rev().fold(borders, |acc, level| {
            (0..words).fold(acc, |acc, w| acc.merged(sweep.run_words(level, w..w + 1)))
        });
        let exploration = sweep.exploration(totals);
        assert_eq!(exploration.robust, reference.robust);
        assert_eq!(exploration.maximal, reference.maximal);
        assert_eq!(exploration.cycle_tests, reference.cycle_tests);
        assert_eq!(exploration.pruned, reference.pruned);
    }

    #[test]
    fn sweeps_beyond_the_program_limit_fail_typed() {
        let mut b = SchemaBuilder::new("wide");
        b.relation("T", &["id", "v"], &["id"]).unwrap();
        let schema = b.build();
        let programs: Vec<_> = (0..=MAX_SWEEP_PROGRAMS)
            .map(|i| {
                let mut pb = ProgramBuilder::new(&schema, format!("P{i}"));
                let q = pb.key_select("q", "T", &["v"]).unwrap();
                pb.push(q.into());
                pb.build()
            })
            .collect();
        let session = RobustnessSession::from_programs(&schema, &programs);
        let err = LevelSweep::new(&session, AnalysisSettings::paper_default())
            .err()
            .expect("21 programs exceed the sweep limit");
        assert_eq!(err, TooManyPrograms { programs: 21 });
        assert!(err.to_string().contains("21 programs"), "{err}");
        assert_eq!(
            session.cached_graph_count(),
            0,
            "the check runs before any graph build"
        );
        assert!(TooManyPrograms::check(MAX_SWEEP_PROGRAMS).is_ok());
    }

    #[test]
    fn robust_family_is_downward_closed() {
        // Proposition 5.2: every subset of a robust set is robust.
        let session = auction_session();
        let exploration = explore_subsets(&session, AnalysisSettings::paper_default());
        for set in &exploration.robust {
            for drop_idx in 0..set.len() {
                let mut smaller = set.clone();
                smaller.remove(drop_idx);
                if smaller.is_empty() {
                    continue;
                }
                assert!(
                    exploration.robust.contains(&smaller),
                    "robust family is not downward closed: {smaller:?} missing"
                );
            }
        }
    }

    #[test]
    fn level_bits_select_each_popcount_exactly() {
        for n in 0..=10usize {
            let words = word_count_for(n);
            for k in 0..=n + 1 {
                let expected: Vec<usize> = (1usize..1 << n)
                    .filter(|m| m.count_ones() as usize == k)
                    .collect();
                let selected: Vec<usize> = (0..words)
                    .flat_map(|w| word_masks(w, level_bits(n, w, k)))
                    .collect();
                assert_eq!(selected, expected, "n={n}, k={k}");
            }
        }
    }

    #[test]
    fn word_parallel_closure_and_supersets_match_the_scalar_definitions() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in 1..=9usize {
            let total = 1usize << n;
            for _ in 0..8 {
                // Sparse random families, so the closure does not saturate at once.
                let family: Vec<bool> = (0..total)
                    .map(|m| m != 0 && next() % (4 * n as u64) == 0)
                    .collect();
                let mut words = vec![0u64; word_count_for(n)];
                for m in (0..total).filter(|&m| family[m]) {
                    words[m / 64] |= 1 << (m % 64);
                }
                let is_set = |words: &[u64], m: usize| words[m / 64] & (1 << (m % 64)) != 0;

                let supersets: Vec<usize> = (0..words.len())
                    .flat_map(|w| word_masks(w, one_bit_supersets(n, w, |v| words[v])))
                    .collect();
                let expected: Vec<usize> = (0..total)
                    .filter(|&m| (0..n).any(|i| m & (1 << i) == 0 && family[m | (1 << i)]))
                    .collect();
                assert_eq!(supersets, expected, "one-bit supersets, n={n}");

                let mut closed = words.clone();
                close_upward(n, &mut closed);
                for m in 0..total {
                    let above_a_member = (1..total).any(|s| family[s] && s & m == s);
                    assert_eq!(
                        is_set(&closed, m),
                        above_a_member,
                        "closure, n={n}, mask {m}"
                    );
                }
            }
        }
    }

    #[test]
    fn abbreviations_match_the_paper_style() {
        assert_eq!(abbreviate_program_name("NewOrder"), "NO");
        assert_eq!(abbreviate_program_name("DepositChecking"), "DC");
        assert_eq!(abbreviate_program_name("FindBids"), "FB");
        assert_eq!(abbreviate_program_name("PlaceBid3"), "PB3");
        assert_eq!(abbreviate_program_name("delivery"), "delivery");
    }

    #[test]
    fn render_subset_uses_program_names() {
        let session = auction_session();
        let exploration = explore_subsets(&session, AnalysisSettings::paper_default());
        let rendered = exploration.render_subset(&[0], |s| s.to_string());
        assert_eq!(rendered, "{FindBids}");
        assert!(!exploration.is_maximal_robust(&["FindBids", "Unknown"]));
    }
}
