//! Subset exploration: which subsets of a workload's programs are (maximally) robust.
//!
//! Section 7.2 of the paper reports, for every benchmark and setting, the *maximal* subsets of
//! transaction programs that the respective test attests robust (Figures 6 and 7). This module
//! reproduces that exploration on top of the [`RobustnessSession`]: one cached summary graph
//! per settings combination, one lane of a bit-sliced traversal per tested subset, and — by
//! default — **downward-closure pruning** (Proposition 5.2): robustness is preserved under taking
//! subsets, so masks are enumerated by descending popcount and every subset of a set already
//! attested robust is marked robust without running its cycle test.
//!
//! # Streaming level traversal
//!
//! Each popcount level is swept as a parallel fold over the *rank space* `0..C(n, k)` of its
//! `k`-subsets: the `mvrc-par` runtime splits the rank range lazily across its workers, each
//! chunk positions a cursor by colexicographic unranking (the combinatorial number system) and
//! then walks masks in numerically increasing order with Gosper's hack. No level is ever
//! collected into a `Vec` — peak memory is one small accumulator per active chunk,
//! O(workers × chunk state), independent of the level size.
//!
//! Every chunk — in-process, or a [`ShardSpec`] handed to a `mvrc-dist` worker process — runs
//! through the one entry point [`RankRangeSweep::run_shard`], which packs up to 64 undecided
//! masks into `u64` lanes and decides each batch with one lane-parallel traversal of the shared
//! graph (the private `kernels` module docs describe the membership-word encoding and the
//! within-level pruning-soundness argument). [`explore_subsets_naive`], which rebuilds the
//! summary graph and runs the scalar cycle test per subset, is the oracle it is checked against.
//!
//! The sweep is exponential: it accepts at most [`MAX_SWEEP_PROGRAMS`] programs, and
//! [`TooManyPrograms`] is the typed error for larger workloads.

use crate::algorithm::is_robust;
use crate::kernels;
use crate::session::RobustnessSession;
use crate::settings::AnalysisSettings;
use crate::summary::{NodeId, SummaryGraph};
use mvrc_btp::LinearProgram;
use mvrc_par::{fold_chunks, Parallelism, WorkerLocal};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// The largest number of programs a subset sweep accepts. The sweep visits all `2^n - 1`
/// non-empty subsets, and its rank arithmetic and verdict bitsets are sized for this bound.
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

/// Options controlling the subset exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExploreOptions {
    /// The sweep runs serially when the total number of subsets (`2^n`) is below this
    /// threshold and fans out across the `mvrc-par` pool otherwise. Below the default of 64
    /// subsets the whole sweep takes microseconds and fan-out would dominate.
    pub parallel_threshold: usize,
    /// Exploit downward closure (Proposition 5.2): enumerate masks by descending popcount and
    /// mark every subset of a known-robust set robust without running its cycle test. Exact —
    /// the attested-robust family is downward closed because an induced subgraph can only lose
    /// cycles — and cross-checked against the exhaustive path in the test-suite.
    pub closure_pruning: bool,
    /// Reuse (and update) the session's [`CachedSweep`] for these settings: verdicts of the
    /// last completed sweep are rebased onto the current program set — after
    /// [`RobustnessSession::remove_program`] every surviving subset keeps its verdict verbatim
    /// (zero cycle tests), after [`RobustnessSession::add_program`] only subsets containing
    /// the new program are swept. Off by default so benchmarks and oracles always measure a
    /// full sweep. (Not serialized: reuse is an execution detail; the result records it in
    /// [`SubsetExploration::reused`].)
    #[serde(skip)]
    pub incremental: bool,
    /// [`ExploreOptions::incremental`] is ignored when the total number of subsets (`2^n`) is
    /// below this floor: the sweep runs fresh and installs no cache entry. The rebase
    /// bookkeeping (program fingerprints, verdict rebasing, cache installation) costs more than
    /// simply re-testing a handful of subsets — on two-program workloads it made incremental
    /// edits *slower* than fresh sweeps. Set to `0` to force incremental behavior regardless of
    /// size. (Not serialized, like `incremental` itself.)
    #[serde(skip, default = "default_incremental_min_subsets")]
    pub incremental_min_subsets: usize,
    /// How much of the pool the sweep may use. [`Parallelism::Auto`] defers to the session's
    /// [`RobustnessSession::parallelism`] setting; any other value overrides it for this call.
    /// (Not serialized: a thread cap is an execution detail, not part of the result's shape.)
    #[serde(skip)]
    pub parallelism: Parallelism,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            parallel_threshold: 64,
            closure_pruning: true,
            incremental: false,
            incremental_min_subsets: default_incremental_min_subsets(),
            parallelism: Parallelism::Auto,
        }
    }
}

fn default_incremental_min_subsets() -> usize {
    16
}

/// Result of exploring all subsets of a workload's programs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SubsetExploration {
    /// The program names, in workload order; subsets are index sets into this list.
    pub programs: Vec<String>,
    /// The analysis settings used.
    pub settings: AnalysisSettings,
    /// Every subset (as sorted index vectors) attested robust.
    pub robust: Vec<Vec<usize>>,
    /// The maximal robust subsets (no robust strict superset exists).
    pub maximal: Vec<Vec<usize>>,
    /// Number of cycle tests actually run (`2^n - 1` minus the subsets decided by pruning).
    pub cycle_tests: usize,
    /// Number of subsets attested robust by downward-closure pruning alone.
    pub pruned: usize,
    /// Number of subsets whose verdict was adopted from a previous sweep without being visited
    /// at all ([`ExploreOptions::incremental`]); `0` on a fresh sweep. Every non-empty subset
    /// is accounted for exactly once: `cycle_tests + pruned + reused == 2^n - 1`.
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

/// Pascal's triangle up to `C(n, k)` for `n ≤ MAX_SWEEP_PROGRAMS`: the rank arithmetic of
/// the streamed traversal (level sizes, colex unranking). Lives on the stack (3.5 KiB) so
/// opening one costs no allocation per sweep.
struct Binomials {
    n: usize,
    choose: [[usize; MAX_SWEEP_PROGRAMS + 1]; MAX_SWEEP_PROGRAMS + 1],
}

impl Binomials {
    fn new(n: usize) -> Self {
        // The sweep entry points check the bound first and return or report
        // `TooManyPrograms`; a hard assert so any other caller fails loudly instead of
        // indexing out of bounds.
        assert!(
            n <= MAX_SWEEP_PROGRAMS,
            "Binomials supports n <= {MAX_SWEEP_PROGRAMS}, got {n}"
        );
        let mut choose = [[0usize; MAX_SWEEP_PROGRAMS + 1]; MAX_SWEEP_PROGRAMS + 1];
        for row in 0..=n {
            choose[row][0] = 1;
            for col in 1..=row {
                let above = if col < row { choose[row - 1][col] } else { 0 };
                choose[row][col] = choose[row - 1][col - 1] + above;
            }
        }
        Binomials { n, choose }
    }

    #[inline]
    fn c(&self, n: usize, k: usize) -> usize {
        if k > n {
            0
        } else {
            self.choose[n][k]
        }
    }
}

/// The `rank`-th `k`-subset mask of `0..n` in colexicographic order — which coincides with
/// increasing numeric order of the masks, so [`next_same_popcount`] is its successor function.
/// Combinatorial number system: pick the largest `c` with `C(c, i) ≤ rank` for `i = k..1`.
fn unrank_colex(mut rank: usize, k: usize, binomials: &Binomials) -> usize {
    let mut mask = 0usize;
    let mut c = binomials.n;
    for i in (1..=k).rev() {
        while binomials.c(c, i) > rank {
            c -= 1;
        }
        mask |= 1 << c;
        rank -= binomials.c(c, i);
    }
    mask
}

/// Gosper's hack: the numerically next mask with the same popcount.
#[inline]
fn next_same_popcount(mask: usize) -> usize {
    let lowest = mask & mask.wrapping_neg();
    let ripple = mask + lowest;
    ripple | (((mask ^ ripple) / lowest) >> 2)
}

/// One shard of a popcount level: the contiguous slice `rank_start..rank_end` of the
/// colexicographic rank space `0..C(n, level)` of the `level`-subsets.
///
/// A `ShardSpec` is the *work description* of the sweep: in-process, every chunk the
/// `mvrc-par` pool splits off a level is one; across processes, the `mvrc-dist` coordinator
/// fans planned specs out to worker processes. Either way, [`RankRangeSweep::run_shard`]
/// executes one spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ShardSpec {
    /// Popcount of the masks this shard covers (the sweep level).
    pub level: usize,
    /// First colexicographic rank covered (inclusive).
    pub rank_start: usize,
    /// One past the last rank covered (exclusive).
    pub rank_end: usize,
}

impl ShardSpec {
    /// Number of masks the shard covers.
    #[inline]
    pub fn len(&self) -> usize {
        self.rank_end.saturating_sub(self.rank_start)
    }

    /// `true` when the shard covers no masks.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rank_end <= self.rank_start
    }
}

/// Work counters produced by sweeping one or more shards: how many cycle tests ran and how
/// many masks were decided by downward-closure pruning alone. Summing the counters of a
/// partition of the mask space reproduces the single-sweep accounting exactly (each mask is
/// visited by exactly one shard, and the inherit-or-test decision depends only on the fully
/// merged verdicts of the level above).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardCounters {
    /// Number of cycle tests actually run.
    pub cycle_tests: usize,
    /// Number of masks attested robust by Proposition 5.2 pruning without a cycle test.
    pub pruned: usize,
}

impl ShardCounters {
    /// Component-wise sum of two counter sets.
    #[must_use]
    pub fn merged(self, other: ShardCounters) -> ShardCounters {
        ShardCounters {
            cycle_tests: self.cycle_tests + other.cycle_tests,
            pruned: self.pruned + other.pruned,
        }
    }
}

/// `C(n, level)`: the number of masks on a popcount level, i.e. the size of the rank space
/// [`ShardSpec`]s partition.
///
/// # Panics
///
/// Panics when `n` exceeds [`MAX_SWEEP_PROGRAMS`].
pub fn level_size(n: usize, level: usize) -> usize {
    Binomials::new(n).c(n, level)
}

/// Partitions a set of disjoint, ascending rank ranges at one level into at most `shards`
/// contiguous, non-empty [`ShardSpec`]s of near-equal total size. Chunks that straddle a gap
/// between ranges are split at the gap, so the spec count can exceed `shards` by at most the
/// number of ranges. With the single range `(0, C(n, level))` the specs partition the whole
/// level into near-equal parts (sizes differ by at most one).
pub fn plan_range_shards(level: usize, ranges: &[(usize, usize)], shards: usize) -> Vec<ShardSpec> {
    let total: usize = ranges.iter().map(|(s, e)| e.saturating_sub(*s)).sum();
    if total == 0 {
        return Vec::new();
    }
    let shards = shards.clamp(1, total);
    let mut specs = Vec::new();
    for s in 0..shards {
        // The s-th near-equal chunk of the *virtual* concatenated rank space, mapped back
        // onto the real ranges (one spec per overlapped range).
        let (virt_start, virt_end) = (total * s / shards, total * (s + 1) / shards);
        let mut offset = 0usize;
        for &(start, end) in ranges {
            let len = end - start;
            let lo = virt_start.max(offset);
            let hi = virt_end.min(offset + len);
            if lo < hi {
                specs.push(ShardSpec {
                    level,
                    rank_start: start + (lo - offset),
                    rank_end: start + (hi - offset),
                });
            }
            offset += len;
        }
    }
    specs
}

/// The maximal contiguous runs of *undecided* ranks at one popcount level: walks the level's
/// masks in colexicographic rank order and collects the ranges whose bit in `decided` is
/// clear. `decided` uses the sweep's verdict-bitset addressing (mask `m` at bit `m % 64` of
/// word `m / 64`). With an all-zero `decided` this is the single run `(0, C(n, level))`.
pub fn undecided_level_runs(n: usize, level: usize, decided: &[u64]) -> Vec<(usize, usize)> {
    let binomials = Binomials::new(n);
    let size = binomials.c(n, level);
    let mut runs: Vec<(usize, usize)> = Vec::new();
    if size == 0 {
        return runs;
    }
    let mut mask = unrank_colex(0, level, &binomials);
    let mut open: Option<usize> = None;
    for rank in 0..size {
        let is_decided = decided[mask / 64] & (1u64 << (mask % 64)) != 0;
        match (is_decided, open) {
            (false, None) => open = Some(rank),
            (true, Some(start)) => {
                runs.push((start, rank));
                open = None;
            }
            _ => {}
        }
        if rank + 1 < size {
            mask = next_same_popcount(mask);
        }
    }
    if let Some(start) = open {
        runs.push((start, size));
    }
    runs
}

/// The verdicts of one completed subset sweep, as stored in a session's sweep cache: the
/// program list the mask bits refer to (bit `i` ⇔ `programs[i]`), the structural
/// [fingerprint](crate::program_fingerprint) of each program's LTP set, and the full robust
/// bitset (mask `m` robust ⇔ bit `m % 64` of word `m / 64`).
///
/// A cached sweep is *self-describing*: it carries its own program identities, so it stays in
/// the cache untouched across [`RobustnessSession::add_program`] /
/// [`RobustnessSession::remove_program`] chains and is rebased onto the session's current
/// program set only when the next incremental sweep runs ([`rebase_cached_sweep`]).
/// Verdicts are independent of the pruning switch (cross-checked in the test-suite), so one
/// cache entry per [`AnalysisSettings`] combination suffices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedSweep {
    /// The program names the mask bits refer to, in mask-bit order.
    pub programs: Vec<String>,
    /// Structural fingerprint of each program's unfolded LTP set, aligned with `programs`.
    pub program_fingerprints: Vec<u64>,
    /// The robust-verdict bitset over all `2^programs.len()` masks (`⌈2^n / 64⌉` words).
    pub robust: Vec<u64>,
}

impl CachedSweep {
    /// Number of `u64` words the bitsets of a sweep over `n` programs need.
    pub fn word_count_for(n: usize) -> usize {
        (1usize << n).div_ceil(64)
    }
}

/// Verdicts carried into a sweep from a previous run: the robust bits to adopt and the
/// `decided` bitset saying which masks already have a verdict (robust or not) and must not be
/// re-tested. Produced by [`rebase_cached_sweep`]; consumed by [`RankRangeSweep::apply_seed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSeed {
    /// Robust bits to adopt (a subset of `decided`).
    pub robust: Vec<u64>,
    /// Masks with a known verdict; the sweep visits only the complement.
    pub decided: Vec<u64>,
    /// Number of non-empty masks in `decided` — the [`SubsetExploration::reused`] count.
    pub reused: usize,
}

/// Rebases a [`CachedSweep`] onto the current program set, yielding the [`SweepSeed`] of
/// verdicts that carry over. Programs are matched by *(name, structural fingerprint)* — a
/// same-named program whose body changed is treated as removed-and-re-added, so its subsets
/// are re-swept.
///
/// Soundness: a subset verdict depends only on the induced subgraph over the subset's LTP
/// nodes, and Algorithm 1 edges are pairwise — edits only add or drop rows touching edited
/// programs, so the induced subgraph over any surviving subset is *equal* before and after
/// the edit and its verdict transfers verbatim. Concretely, every old mask using only
/// surviving programs is re-numbered into the new bit order (a pure mask compaction after
/// removals, a bit expansion after additions); masks containing an added program are left
/// undecided. Returns `None` when nothing carries over (no surviving program, a program count
/// beyond [`MAX_SWEEP_PROGRAMS`], or inconsistent word sizes).
pub fn rebase_cached_sweep(
    cached: &CachedSweep,
    programs: &[String],
    program_fingerprints: &[u64],
) -> Option<SweepSeed> {
    let old_n = cached.programs.len();
    assert_eq!(
        cached.programs.len(),
        cached.program_fingerprints.len(),
        "cached sweep program/fingerprint length mismatch"
    );
    assert_eq!(
        programs.len(),
        program_fingerprints.len(),
        "program/fingerprint length mismatch"
    );
    if old_n > MAX_SWEEP_PROGRAMS
        || programs.len() > MAX_SWEEP_PROGRAMS
        || cached.robust.len() != CachedSweep::word_count_for(old_n)
    {
        return None;
    }
    // Old bit index -> new bit index for programs surviving the edit (matched by name *and*
    // structural fingerprint).
    let mapping: Vec<Option<usize>> = cached
        .programs
        .iter()
        .zip(&cached.program_fingerprints)
        .map(|(name, fp)| {
            programs
                .iter()
                .zip(program_fingerprints)
                .position(|(n, f)| n == name && f == fp)
        })
        .collect();
    if !mapping.iter().any(Option::is_some) {
        return None;
    }
    let words = CachedSweep::word_count_for(programs.len());
    let mut seed = SweepSeed {
        robust: vec![0u64; words],
        decided: vec![0u64; words],
        reused: 0,
    };
    'masks: for mask in 1usize..(1 << old_n) {
        let mut new_mask = 0usize;
        for (i, target) in mapping.iter().enumerate() {
            if mask & (1 << i) != 0 {
                match target {
                    Some(j) => new_mask |= 1 << j,
                    // The mask uses a program that did not survive: nothing to carry over.
                    None => continue 'masks,
                }
            }
        }
        seed.decided[new_mask / 64] |= 1u64 << (new_mask % 64);
        seed.reused += 1;
        if cached.robust[mask / 64] & (1u64 << (mask % 64)) != 0 {
            seed.robust[new_mask / 64] |= 1u64 << (new_mask % 64);
        }
    }
    Some(seed)
}

/// The resumable core of the subset sweep: a session-backed cycle tester over the shared
/// summary graph plus the atomic verdict bitset, addressed by [`ShardSpec`] rank ranges.
///
/// This is the public entry point the distributed shard workers of `mvrc-dist` drive — and
/// what [`explore_subsets_with`] runs on in-process. The split into `run_shard` calls is
/// *invisible in the result*: verdicts are deterministic per mask, and the pruning decision
/// for a mask only reads the (fully published) verdicts of the level above, so any partition
/// of a level — chunks, shards, processes — produces identical verdict bits and identical
/// summed [`ShardCounters`].
///
/// External verdicts (e.g. the merged bits of other worker processes) are folded in through
/// [`or_verdict_words`](Self::or_verdict_words); [`verdict_words`](Self::verdict_words)
/// exposes the current bitset for persistence (64 masks per word, mask `m` at bit `m % 64` of
/// word `m / 64`).
pub struct RankRangeSweep {
    graph: std::sync::Arc<SummaryGraph>,
    settings: AnalysisSettings,
    closure_pruning: bool,
    programs: Vec<String>,
    nodes_per_program: Vec<Vec<NodeId>>,
    binomials: Binomials,
    bits: Vec<AtomicU64>,
    /// Masks whose verdict was adopted from a seed ([`Self::apply_seed`]): visited shards skip
    /// them without a cycle test or a pruning decision. `None` on a fresh sweep.
    decided: Option<Vec<u64>>,
}

/// Per-worker sweep temporaries: the pending-mask batch and the lane matrices. One slot per
/// pool worker (plus a thread-local for non-pool callers), so sweeps split into many small
/// chunks stop churning allocations.
#[derive(Default)]
struct SweepScratch {
    batch: Vec<usize>,
    lanes: kernels::LaneScratch,
}

fn with_sweep_scratch<R>(f: impl FnOnce(&mut SweepScratch) -> R) -> R {
    static SCRATCH: OnceLock<WorkerLocal<SweepScratch>> = OnceLock::new();
    if mvrc_par::current_worker_index().is_some() {
        SCRATCH
            .get_or_init(|| WorkerLocal::new(SweepScratch::default))
            .with(f)
    } else {
        NON_WORKER_SCRATCH.with(|scratch| f(&mut scratch.borrow_mut()))
    }
}

thread_local! {
    static NON_WORKER_SCRATCH: RefCell<SweepScratch> = RefCell::new(SweepScratch::default());
}

impl RankRangeSweep {
    /// Opens a sweep over the session's programs under the given settings, using the session's
    /// cached summary graph (built on first use). Fails with [`TooManyPrograms`] — before any
    /// graph is built — when the session has more than [`MAX_SWEEP_PROGRAMS`] programs.
    pub fn new(
        session: &RobustnessSession,
        settings: AnalysisSettings,
        closure_pruning: bool,
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
        let total = 1usize << n;
        Ok(RankRangeSweep {
            graph,
            settings,
            closure_pruning,
            programs,
            nodes_per_program,
            binomials: Binomials::new(n),
            bits: (0..total.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
            decided: None,
        })
    }

    /// Adopts the verdicts of a [`SweepSeed`] (produced by [`rebase_cached_sweep`] or read
    /// from a shard-run seed file): the seed's robust bits are OR'd into the verdict bitset
    /// and its `decided` masks are skipped by every subsequent [`run_shard`](Self::run_shard)
    /// call — no cycle test, no pruning decision, zero counter deltas. Must be applied before
    /// any shard runs.
    ///
    /// # Panics
    ///
    /// Panics when the seed's word counts do not match [`word_count`](Self::word_count).
    pub fn apply_seed(&mut self, seed: &SweepSeed) {
        assert_eq!(
            seed.decided.len(),
            self.bits.len(),
            "seed decided word count mismatch: got {}, sweep has {}",
            seed.decided.len(),
            self.bits.len()
        );
        self.or_verdict_words(&seed.robust);
        self.decided = Some(seed.decided.clone());
    }

    /// The contiguous rank ranges at `level` that still need visiting: the whole level
    /// `[(0, C(n, level))]` on a fresh sweep, the complement of the seeded `decided` masks
    /// after [`apply_seed`](Self::apply_seed) (empty when every mask of the level already has
    /// a verdict).
    pub fn undecided_runs(&self, level: usize) -> Vec<(usize, usize)> {
        match &self.decided {
            None => {
                let size = self.level_size(level);
                if size == 0 {
                    Vec::new()
                } else {
                    vec![(0, size)]
                }
            }
            Some(decided) => undecided_level_runs(self.programs.len(), level, decided),
        }
    }

    /// The counters a *fresh* single-process sweep over the final verdict set would report —
    /// a pure function of the verdict bits: with pruning on, a mask is pruned exactly when one
    /// of its one-bit supersets is robust (the supersets' verdicts are fully published before
    /// the mask's level runs, so the fresh sweep's decision reads the same bits). This is what
    /// lets a resumed shard run's merge reproduce the fresh sweep's accounting byte for byte
    /// without re-running any cycle test.
    pub fn counters_as_fresh(&self) -> ShardCounters {
        let n = self.programs.len();
        let total = 1usize << n;
        if !self.closure_pruning {
            return ShardCounters {
                cycle_tests: total - 1,
                pruned: 0,
            };
        }
        let mut pruned = 0usize;
        for mask in 1..total {
            if (0..n).any(|i| mask & (1 << i) == 0 && self.is_marked(mask | (1 << i))) {
                pruned += 1;
            }
        }
        ShardCounters {
            cycle_tests: total - 1 - pruned,
            pruned,
        }
    }

    /// Number of programs (`n`); masks range over `1..2^n`.
    pub fn program_count(&self) -> usize {
        self.programs.len()
    }

    /// Number of `u64` words in the verdict bitset (`⌈2^n / 64⌉`).
    pub fn word_count(&self) -> usize {
        self.bits.len()
    }

    /// `C(n, level)` for this sweep's `n` — the bound on [`ShardSpec`] ranks at a level.
    pub fn level_size(&self, level: usize) -> usize {
        self.binomials.c(self.programs.len(), level)
    }

    /// A snapshot of the verdict bitset (64 masks per word).
    pub fn verdict_words(&self) -> Vec<u64> {
        self.bits
            .iter()
            .map(|w| w.load(Ordering::Relaxed))
            .collect()
    }

    /// ORs externally produced verdict bits into the sweep — how a shard worker folds in the
    /// merged verdicts of its peers at a level barrier before descending.
    ///
    /// # Panics
    ///
    /// Panics when `words` does not have exactly [`word_count`](Self::word_count) entries.
    pub fn or_verdict_words(&self, words: &[u64]) {
        assert_eq!(
            words.len(),
            self.bits.len(),
            "verdict word count mismatch: got {}, sweep has {}",
            words.len(),
            self.bits.len()
        );
        for (slot, &word) in self.bits.iter().zip(words) {
            if word != 0 {
                slot.fetch_or(word, Ordering::Relaxed);
            }
        }
    }

    #[inline]
    fn is_marked(&self, mask: usize) -> bool {
        self.bits[mask / 64].load(Ordering::Relaxed) & (1u64 << (mask % 64)) != 0
    }

    #[inline]
    fn mark(&self, mask: usize) {
        self.bits[mask / 64].fetch_or(1u64 << (mask % 64), Ordering::Relaxed);
    }

    /// Decides a batch of up to 64 undecided masks with one lane-parallel traversal
    /// ([`kernels::sweep_lanes`]): lane `i` is mask `masks[i]`, each graph node's membership
    /// word ORs together the lanes whose subset contains the node's program. Robust lanes are
    /// published into the verdict bitset; the counters were already accounted at batch-fill
    /// time (one cycle test per lane).
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
            self.mark(masks[robust.trailing_zeros() as usize]);
            robust &= robust - 1;
        }
    }

    #[inline]
    fn is_decided(&self, mask: usize) -> bool {
        self.decided
            .as_ref()
            .is_some_and(|d| d[mask / 64] & (1u64 << (mask % 64)) != 0)
    }

    /// Sweeps one shard: unranks the first mask of the range once, then walks the range with
    /// Gosper's hack, deciding every mask. Verdicts are published into the shared bitset;
    /// the returned counters cover exactly this range.
    ///
    /// Correct accounting requires the caller to respect the level order: every shard of level
    /// `k + 1` must complete (and, across processes, be merged in) before any shard of level
    /// `k` runs — [`explore_subsets_with`] and the `mvrc-dist` level barrier both do.
    ///
    /// # Panics
    ///
    /// Panics when the spec's level or rank range is out of bounds for this sweep.
    pub fn run_shard(&self, spec: ShardSpec) -> ShardCounters {
        let n = self.programs.len();
        assert!(
            spec.level >= 1 && spec.level <= n,
            "shard level {} out of range 1..={n}",
            spec.level
        );
        assert!(
            spec.rank_end <= self.level_size(spec.level),
            "shard ranks {}..{} exceed level size {}",
            spec.rank_start,
            spec.rank_end,
            self.level_size(spec.level)
        );
        let mut counters = ShardCounters::default();
        if spec.is_empty() {
            return counters;
        }
        with_sweep_scratch(|SweepScratch { batch, lanes }| {
            // Gather the undecided, non-inherited masks of the range into lane batches of 64
            // and decide each batch with one traversal. Deferring the verdict publication to
            // the batch flush is sound under Proposition 5.2 pruning: the inheritance check for
            // a level-k mask reads only its one-bit supersets at level k+1 (fully published
            // before this level ran) — never the in-flight verdicts of its own level — so
            // batching changes neither any pruning decision nor any counter. The final flush
            // below completes before the shard returns, hence before any level barrier.
            let mut mask = unrank_colex(spec.rank_start, spec.level, &self.binomials);
            batch.clear();
            for rank in spec.rank_start..spec.rank_end {
                if !self.is_decided(mask) {
                    let inherited = self.closure_pruning
                        && (0..n).any(|i| mask & (1 << i) == 0 && self.is_marked(mask | (1 << i)));
                    if inherited {
                        self.mark(mask);
                        counters.pruned += 1;
                    } else {
                        counters.cycle_tests += 1;
                        batch.push(mask);
                        if batch.len() == 64 {
                            self.flush_lane_batch(batch, lanes);
                            batch.clear();
                        }
                    }
                }
                if rank + 1 < spec.rank_end {
                    mask = next_same_popcount(mask);
                }
            }
            if !batch.is_empty() {
                self.flush_lane_batch(batch, lanes);
                batch.clear();
            }
        });
        counters
    }

    /// Assembles the final [`SubsetExploration`] from the current verdict bits, the summed
    /// counters of every shard that contributed (across chunks, shards or processes) and the
    /// number of verdicts adopted from a seed without a visit.
    pub fn exploration(&self, counters: ShardCounters, reused: usize) -> SubsetExploration {
        let n = self.programs.len();
        let total = 1usize << n;
        let mut robust: Vec<Vec<usize>> = (1..total)
            .filter(|&mask| self.is_marked(mask))
            .map(|mask| (0..n).filter(|i| mask & (1 << i) != 0).collect())
            .collect();
        robust.sort();
        let maximal = maximal_sets(&robust);
        SubsetExploration {
            programs: self.programs.clone(),
            settings: self.settings,
            robust,
            maximal,
            cycle_tests: counters.cycle_tests,
            pruned: counters.pruned,
            reused,
        }
    }
}

/// Explores every non-empty subset of the workload's programs and reports which are robust
/// under the given settings, using the default [`ExploreOptions`] (closure pruning on).
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
/// whole sweep; every subset is decided on a lane of one traversal of that graph restricted to
/// the subset's nodes. This is sound because Algorithm 1's edges are defined pairwise over
/// LTPs: the summary graph of a subset equals the induced subgraph of the full summary graph.
///
/// With `closure_pruning` enabled (the default), masks are processed level by level in
/// descending popcount order; a mask whose immediate superset (one extra program) is already
/// known robust inherits robustness by Proposition 5.2 without a cycle test. Levels are
/// independent-within and ordered-between: each level is one parallel pass over the pool (a
/// barrier between levels keeps the pruning reads race-free — a level only ever reads verdict
/// bits of the level above it, which the preceding pass fully published).
///
/// [`explore_subsets_naive`] retains the literal per-subset reconstruction for cross-checking
/// and benchmarking.
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
    let mut sweep = RankRangeSweep::new(session, settings, options.closure_pruning)
        .unwrap_or_else(|e| panic!("{e}"));
    let n = sweep.program_count();

    // Incremental mode: rebase the session's cached verdicts (the last completed sweep under
    // these settings) onto the current program set and adopt them as a seed — the sweep then
    // only visits masks no previous sweep decided. The fingerprints double as the identity of
    // the updated cache entry installed below. Tiny workloads skip the machinery wholesale
    // (`fingerprints` stays `None`, so no cache entry is installed either): below
    // [`ExploreOptions::incremental_min_subsets`] the bookkeeping costs more than the sweep.
    let mut reused = 0usize;
    let fingerprints = if options.incremental && (1usize << n) >= options.incremental_min_subsets {
        let fps = session.program_fingerprints();
        if let Some(cached) = session.cached_sweep(settings) {
            if let Some(seed) = rebase_cached_sweep(&cached, session.program_names(), &fps) {
                reused = seed.reused;
                sweep.apply_seed(&seed);
            }
        }
        Some(fps)
    } else {
        None
    };

    let total = 1usize << n;
    let parallelism = if total >= options.parallel_threshold {
        match options.parallelism {
            Parallelism::Auto => session.parallelism(),
            pinned => pinned,
        }
    } else {
        Parallelism::Serial
    };

    // Robustness verdicts live in the sweep's atomic bitset. Within a level workers publish
    // their own bits concurrently (`fetch_or`); across levels the runtime's fold barrier
    // orders every store of level k+1 before every load at level k, so `Relaxed` suffices.
    let mut totals = ShardCounters::default();
    for level in (1..=n).rev() {
        // On a fresh sweep this is the single run `(0, C(n, level))`; a seeded sweep only
        // visits the ranks no previous sweep decided (possibly none). Every chunk of a run
        // unranks its first mask once and then steps with Gosper's hack — no level buffer
        // exists anywhere. The grain of 64 ranks lets the lane batches fill all 64 lanes.
        for (run_start, run_end) in sweep.undecided_runs(level) {
            let counters = fold_chunks(
                run_start..run_end,
                parallelism,
                64,
                ShardCounters::default,
                |acc, chunk| {
                    acc.merged(sweep.run_shard(ShardSpec {
                        level,
                        rank_start: chunk.start,
                        rank_end: chunk.end,
                    }))
                },
                ShardCounters::merged,
            );
            totals = totals.merged(counters);
        }
    }

    let exploration = sweep.exploration(totals, reused);
    if let Some(program_fingerprints) = fingerprints {
        session.install_cached_sweep(
            settings,
            CachedSweep {
                programs: session.program_names().to_vec(),
                program_fingerprints,
                robust: sweep.verdict_words(),
            },
        );
    }
    exploration
}

/// The pre-refactor subset exploration: reconstructs a full summary graph per subset, serially,
/// and runs the scalar cycle test on every mask.
///
/// Semantically equivalent to [`explore_subsets`]; kept as the one oracle the lane-parallel
/// sweep is cross-checked against and as the baseline of the `subset_exploration` Criterion
/// bench.
///
/// # Panics
///
/// Panics when the session has more than [`MAX_SWEEP_PROGRAMS`] programs.
pub fn explore_subsets_naive(
    session: &RobustnessSession,
    settings: AnalysisSettings,
) -> SubsetExploration {
    let programs: Vec<String> = session.program_names().to_vec();
    let n = programs.len();
    TooManyPrograms::check(n).unwrap_or_else(|e| panic!("{e}"));

    // Group the unfolded LTPs per program index once.
    let ltps_per_program: Vec<Vec<&LinearProgram>> = programs
        .iter()
        .map(|name| {
            session
                .ltps()
                .iter()
                .filter(|l| l.program_name() == name)
                .collect()
        })
        .collect();

    let mut robust: Vec<Vec<usize>> = Vec::new();
    for mask in 1usize..(1 << n) {
        let subset: Vec<usize> = (0..n).filter(|i| mask & (1 << i) != 0).collect();
        let ltps: Vec<LinearProgram> = subset
            .iter()
            .flat_map(|&i| ltps_per_program[i].iter().map(|l| (*l).clone()))
            .collect();
        let graph = SummaryGraph::construct(&ltps, session.schema(), settings);
        if is_robust(&graph, settings.condition) {
            robust.push(subset);
        }
    }
    robust.sort();

    let maximal = maximal_sets(&robust);
    SubsetExploration {
        programs,
        settings,
        robust,
        maximal,
        cycle_tests: (1 << n) - 1,
        pruned: 0,
        reused: 0,
    }
}

/// Filters a family of sets down to its maximal elements (no other set is a strict superset).
fn maximal_sets(sets: &[Vec<usize>]) -> Vec<Vec<usize>> {
    sets.iter()
        .filter(|candidate| {
            !sets.iter().any(|other| {
                other.len() > candidate.len() && candidate.iter().all(|x| other.contains(x))
            })
        })
        .cloned()
        .collect()
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
        let session = auction_session();
        for condition in [CycleCondition::TypeII, CycleCondition::TypeI] {
            for settings in AnalysisSettings::evaluation_grid(condition) {
                let pruned = explore_subsets(&session, settings);
                let exhaustive = explore_subsets_with(
                    &session,
                    settings,
                    ExploreOptions {
                        closure_pruning: false,
                        ..ExploreOptions::default()
                    },
                );
                assert_eq!(pruned.robust, exhaustive.robust, "under {settings}");
                assert_eq!(pruned.maximal, exhaustive.maximal, "under {settings}");
                assert_eq!(exhaustive.pruned, 0);
                assert_eq!(exhaustive.cycle_tests, 3);
                assert!(pruned.cycle_tests <= exhaustive.cycle_tests);
            }
        }
    }

    #[test]
    fn level_plans_partition_the_rank_space() {
        for n in 1..=10usize {
            for level in 1..=n {
                let size = level_size(n, level);
                for shards in [1usize, 2, 3, 7, 64] {
                    let plan = plan_range_shards(level, &[(0, size)], shards);
                    assert!(plan.len() <= shards.min(size));
                    // Contiguous, non-empty, exactly covering 0..size.
                    let mut next = 0;
                    for spec in &plan {
                        assert_eq!(spec.level, level);
                        assert_eq!(spec.rank_start, next);
                        assert!(!spec.is_empty());
                        next = spec.rank_end;
                    }
                    assert_eq!(next, size);
                    // Near-equal: sizes differ by at most one.
                    let lens: Vec<usize> = plan.iter().map(ShardSpec::len).collect();
                    let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                    assert!(max - min <= 1, "uneven plan {lens:?}");
                }
            }
        }
        assert!(plan_range_shards(3, &[], 4).is_empty());
    }

    #[test]
    fn rank_range_sweep_partitions_reproduce_the_whole_sweep() {
        // Running a level in arbitrary shard splits (here: one spec per rank) must reproduce
        // the monolithic sweep's verdicts and summed counters exactly.
        let session = auction_session();
        let settings = AnalysisSettings::paper_default();
        let reference = explore_subsets(&session, settings);

        let sweep = RankRangeSweep::new(&session, settings, true).unwrap();
        let n = sweep.program_count();
        let mut totals = ShardCounters::default();
        for level in (1..=n).rev() {
            for rank in 0..sweep.level_size(level) {
                totals = totals.merged(sweep.run_shard(ShardSpec {
                    level,
                    rank_start: rank,
                    rank_end: rank + 1,
                }));
            }
        }
        let exploration = sweep.exploration(totals, 0);
        assert_eq!(exploration.robust, reference.robust);
        assert_eq!(exploration.maximal, reference.maximal);
        assert_eq!(exploration.cycle_tests, reference.cycle_tests);
        assert_eq!(exploration.pruned, reference.pruned);
    }

    #[test]
    fn seeded_verdicts_prune_like_locally_computed_ones() {
        // Simulate the distributed barrier: compute the top level in one sweep, transfer its
        // verdict words into a fresh sweep, and run only the lower levels there. The second
        // sweep must prune exactly as if it had computed the top level itself.
        let session = auction_session();
        let settings = AnalysisSettings::paper_default();
        let n = 2;

        let top = RankRangeSweep::new(&session, settings, true).unwrap();
        let top_counters = top.run_shard(ShardSpec {
            level: n,
            rank_start: 0,
            rank_end: top.level_size(n),
        });
        assert_eq!(top_counters.cycle_tests, 1);

        let rest = RankRangeSweep::new(&session, settings, true).unwrap();
        assert_eq!(rest.word_count(), top.word_count());
        rest.or_verdict_words(&top.verdict_words());
        let mut totals = top_counters;
        for level in (1..n).rev() {
            totals = totals.merged(rest.run_shard(ShardSpec {
                level,
                rank_start: 0,
                rank_end: rest.level_size(level),
            }));
        }
        let exploration = rest.exploration(totals, 0);
        let reference = explore_subsets(&session, settings);
        assert_eq!(exploration.robust, reference.robust);
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
        let err = RankRangeSweep::new(&session, AnalysisSettings::paper_default(), true)
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
    fn maximal_sets_filters_strict_subsets() {
        let sets = vec![vec![0], vec![0, 1], vec![2], vec![1]];
        let maximal = maximal_sets(&sets);
        assert_eq!(maximal, vec![vec![0, 1], vec![2]]);
    }

    #[test]
    fn binomials_match_the_closed_form() {
        let b = Binomials::new(20);
        assert_eq!(b.c(20, 10), 184_756);
        assert_eq!(b.c(7, 3), 35);
        assert_eq!(b.c(5, 0), 1);
        assert_eq!(b.c(5, 5), 1);
        assert_eq!(b.c(3, 4), 0);
        for n in 0..=20usize {
            for k in 1..=n {
                assert_eq!(
                    b.c(n, k),
                    b.c(n - 1, k - 1) + b.c(n - 1, k),
                    "Pascal identity at C({n}, {k})"
                );
            }
        }
    }

    #[test]
    fn unranking_enumerates_each_level_in_numeric_order() {
        for n in 1..=10usize {
            let binomials = Binomials::new(n);
            for k in 1..=n {
                let expected: Vec<usize> = (1usize..1 << n)
                    .filter(|m| m.count_ones() as usize == k)
                    .collect();
                assert_eq!(binomials.c(n, k), expected.len());
                // Direct unranking hits every rank...
                let unranked: Vec<usize> = (0..expected.len())
                    .map(|r| unrank_colex(r, k, &binomials))
                    .collect();
                assert_eq!(unranked, expected, "unrank(n={n}, k={k})");
                // ...and the Gosper successor walks the same sequence from any start.
                let mut mask = unrank_colex(0, k, &binomials);
                for want in &expected {
                    assert_eq!(mask, *want);
                    mask = next_same_popcount(mask);
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
