//! Robustness tests on summary graphs.
//!
//! * [`find_type1_violation`] — the baseline condition of Alomari & Fekete `[3]`: a workload is
//!   attested robust when the summary graph has no cycle containing a counterflow edge
//!   (**type-I cycle**).
//! * [`find_type2_violation`] / [`find_type2_violation_naive`] — Algorithm 2 of the paper: a
//!   workload is attested robust when the summary graph has no **type-II cycle** (Theorem 6.4).
//!   The naive variant mirrors the paper's pseudocode literally and is kept as the oracle of
//!   the test suite. The default variant makes one pass over the edges: it files each
//!   in-edge `e_2` of a node into a statement-suffix row (the pair condition), builds each
//!   counterflow target's closing row from the non-counterflow adjacency and the reachability
//!   rows, and tests each counterflow edge `e_3` with one row intersection. Its witness is the
//!   one the literal search order gives: the first closing `e_3` in edge order, then the first
//!   passing `e_2` into `e_3.from`, then the first non-counterflow `e_1` in edge order that
//!   closes the cycle. [`all_violations`] reports the same witness per blamed `e_3`.
//!
//! Both tests are *sound but incomplete* (Proposition 6.5): a `robust = true` verdict guarantees
//! robustness against MVRC, a `robust = false` verdict may be a false negative.

use crate::kernels;
use crate::settings::CycleCondition;
use crate::summary::{NodeId, PrefetchedView, SummaryEdge, SummaryGraph, SummaryGraphView};
use mvrc_btp::StatementKind;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::fmt;

/// Witness for a type-I cycle: a counterflow edge that lies on a cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Type1Witness {
    /// The counterflow edge `P_i → P_j` with `P_i` reachable from `P_j`.
    pub counterflow_edge: SummaryEdge,
}

/// Witness for a type-II cycle, mirroring the edge triple found by Algorithm 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Type2Witness {
    /// The non-counterflow edge `(P_1, q_1, non-counterflow, q_2, P_2)`.
    pub non_counterflow_edge: SummaryEdge,
    /// The edge `(P_3, q_3, c, q_4, P_4)` with `P_3` reachable from `P_2`.
    pub middle_edge: SummaryEdge,
    /// The counterflow edge `(P_4, q_4', counterflow, q_5, P_5)` with `P_1` reachable from
    /// `P_5`.
    pub counterflow_edge: SummaryEdge,
}

/// A robustness violation found by either test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Violation {
    /// A type-I cycle (baseline condition).
    TypeI(Type1Witness),
    /// A type-II cycle (Algorithm 2).
    TypeII(Type2Witness),
}

/// Outcome of a robustness test on a summary graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RobustnessOutcome {
    /// The condition that was tested.
    pub condition: CycleCondition,
    /// `true` when no dangerous cycle was found: the workload is robust against MVRC.
    pub robust: bool,
    /// The witness of the dangerous cycle when one was found.
    pub violation: Option<Violation>,
}

impl RobustnessOutcome {
    /// Runs the robustness test selected by `condition` on a summary graph.
    ///
    /// Goes through [`SummaryGraph::prefetched`], the full-graph view.
    pub fn evaluate(graph: &SummaryGraph, condition: CycleCondition) -> Self {
        Self::evaluate_view(&graph.prefetched(), condition)
    }

    /// Runs the robustness test on any summary-graph view (full graph or induced subgraph).
    pub fn evaluate_view<G: SummaryGraphView>(view: &G, condition: CycleCondition) -> Self {
        match condition {
            CycleCondition::TypeI => {
                let violation = find_type1_violation_in(view);
                RobustnessOutcome {
                    condition,
                    robust: violation.is_none(),
                    violation: violation.map(Violation::TypeI),
                }
            }
            CycleCondition::TypeII => {
                let violation = find_type2_violation_in(view);
                RobustnessOutcome {
                    condition,
                    robust: violation.is_none(),
                    violation: violation.map(Violation::TypeII),
                }
            }
        }
    }
}

impl fmt::Display for RobustnessOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.robust {
            write!(f, "robust against MVRC ({} condition)", self.condition)
        } else {
            write!(f, "not attested robust ({} cycle found)", self.condition)
        }
    }
}

/// Returns `true` when the workload summarized by `graph` is attested robust under the given
/// condition.
pub fn is_robust(graph: &SummaryGraph, condition: CycleCondition) -> bool {
    RobustnessOutcome::evaluate(graph, condition).robust
}

/// Returns `true` when any summary-graph view is attested robust under the given condition.
pub fn is_robust_view<G: SummaryGraphView>(view: &G, condition: CycleCondition) -> bool {
    RobustnessOutcome::evaluate_view(view, condition).robust
}

/// Baseline test `[3]`: searches for a counterflow edge lying on a cycle.
pub fn find_type1_violation(graph: &SummaryGraph) -> Option<Type1Witness> {
    find_type1_violation_in(&graph.prefetched())
}

/// [`find_type1_violation`] over any summary-graph view.
pub fn find_type1_violation_in<G: SummaryGraphView>(view: &G) -> Option<Type1Witness> {
    view.view_edges()
        .find(|e| e.kind.is_counterflow() && view.view_reachable(e.to, e.from))
        .map(|e| Type1Witness {
            counterflow_edge: *e,
        })
}

/// The statement types that make the ordered-counterflow condition of Theorem 6.4 hold for the
/// incoming statement `q_3`: `{key sel, pred sel, pred upd, pred del}`.
fn ordered_pair_kind(kind: StatementKind) -> bool {
    matches!(
        kind,
        StatementKind::KeySelect
            | StatementKind::PredSelect
            | StatementKind::PredUpdate
            | StatementKind::PredDelete
    )
}

/// Does the adjacent edge pair `(middle, counterflow)` satisfy the pair condition of
/// Theorem 6.4 / Algorithm 2?
fn pair_condition<G: SummaryGraphView>(
    view: &G,
    middle: &SummaryEdge,
    counterflow: &SummaryEdge,
) -> bool {
    debug_assert_eq!(middle.to, counterflow.from);
    middle.kind.is_counterflow()
        || view
            .node(counterflow.from)
            .precedes(counterflow.from_stmt, middle.to_stmt)
        || ordered_pair_kind(view.node(middle.from).statement(middle.from_stmt).kind())
}

/// Compiles the lane-independent [`kernels::LanePlan`] of a summary graph for the bit-sliced
/// sweep kernel ([`kernels::sweep_lanes`]): the deduplicated node-pair structure of the graph
/// plus, under the type-II condition, the precomputed pair-condition tests of Algorithm 2.
///
/// The pair condition only reads per-node statement data (`view.node(..)`), which every
/// induced view shares with the full graph — so one compilation serves every subset of the
/// sweep, and whether a concrete edge pair exists *in a lane's view* reduces to membership
/// bits the kernel tests per word.
///
/// The type-II groups list, per counterflow node pair `(P_4, P_5)`, the distinct `P_3` with a
/// concrete edge pair `(e_2: P_3 → P_4, e_3: P_4 → P_5)` passing the pair condition, ordered by
/// `(candidate, P_4)` with ascending `P_3`; pairs with no `P_3` get no group. The condition
/// splits into a part that depends on `e_2` alone — `e_2` is counterflow or its source
/// statement is an ordered-pair kind — and the positional test `e_3.from_stmt < e_2.to_stmt`
/// (`LinearProgram::precedes` compares positions). So one scan of each counterflow source
/// `P_4`'s in-edges files every `P_3` either into an `always` row or into the row of
/// `e_2.to_stmt`; suffix-ORing those statement rows makes `after[s]` the `P_3` of every in-edge
/// entering at position `s` or later, and each counterflow `e_3` leaving `P_4` ORs
/// `always | after[e_3.from_stmt + 1]` into its group row. That costs
/// `O(E + cf·words + nodes·statements·words)` for `E` edges, `cf` counterflow edges and
/// `words = ⌈n / 64⌉` words per row, instead of one pair-condition call per adjacent edge pair.
pub(crate) fn compile_lane_plan(
    graph: &SummaryGraph,
    condition: CycleCondition,
) -> kernels::LanePlan {
    let view = graph.prefetched();
    let n = graph.node_count();

    let mut edge_pairs: Vec<(u32, u32)> = Vec::new();
    let mut cf_pairs: Vec<(u32, u32)> = Vec::new();
    let mut nc_pairs: Vec<(u32, u32)> = Vec::new();
    for e in view.view_edges() {
        let pair = (e.from as u32, e.to as u32);
        if e.from != e.to {
            edge_pairs.push(pair);
        }
        if e.kind.is_counterflow() {
            cf_pairs.push(pair);
        } else {
            nc_pairs.push(pair);
        }
    }
    // Sources ordered by ascending full-graph reach count: an edge's source reaches a strict
    // superset of its target's reach set unless the two share an SCC, so this order lets the
    // kernel's fixpoint finish acyclic stretches in a single pass.
    let reach_count: Vec<u32> = (0..n)
        .map(|v| {
            view.view_reachable_row(v)
                .iter()
                .map(|w| w.count_ones())
                .sum()
        })
        .collect();
    edge_pairs.sort_unstable_by_key(|&(a, b)| (reach_count[a as usize], a, b));
    edge_pairs.dedup();
    cf_pairs.sort_unstable();
    cf_pairs.dedup();
    nc_pairs.sort_unstable();
    nc_pairs.dedup();
    let mut nc_sources: Vec<u32> = nc_pairs.iter().map(|&(p1, _)| p1).collect();
    nc_sources.dedup();

    let mut candidates: Vec<u32> = cf_pairs.iter().map(|&(_, to)| to).collect();
    candidates.sort_unstable();
    candidates.dedup();

    let (type2_groups, type2_froms) = if condition == CycleCondition::TypeII {
        compile_type2_groups(&view, &cf_pairs, &candidates)
    } else {
        (Vec::new(), Vec::new())
    };

    kernels::LanePlan {
        universe: n,
        condition,
        edge_pairs,
        cf_pairs,
        nc_pairs,
        nc_sources,
        candidates,
        type2_groups,
        type2_froms,
    }
}

/// The type-II groups and their flat `P_3` store, built from per-node statement-suffix rows as
/// [`compile_lane_plan`] describes.
fn compile_type2_groups(
    view: &PrefetchedView<'_>,
    cf_pairs: &[(u32, u32)],
    candidates: &[u32],
) -> (Vec<kernels::LaneType2Group>, Vec<u32>) {
    let words = view.universe().div_ceil(64).max(1);
    // Candidates ascend with their node id, so `(candidate, P_4)` order is `(P_5, P_4)` order.
    let mut group_keys: Vec<(u32, u32)> = cf_pairs.iter().map(|&(p4, p5)| (p5, p4)).collect();
    group_keys.sort_unstable();
    let mut rows = vec![0u64; group_keys.len() * words];
    let mut always = vec![0u64; words];
    let mut after: Vec<u64> = Vec::new();
    let mut cf_sources: Vec<u32> = cf_pairs.iter().map(|&(p4, _)| p4).collect();
    cf_sources.dedup();
    for &p4 in &cf_sources {
        let statements = view.node(p4 as NodeId).len();
        always.fill(0);
        after.clear();
        after.resize((statements + 1) * words, 0);
        for e2 in view.view_edges_to(p4 as NodeId) {
            let row = if e2.kind.is_counterflow()
                || ordered_pair_kind(view.node(e2.from).statement(e2.from_stmt).kind())
            {
                &mut always[..]
            } else {
                &mut after[e2.to_stmt * words..][..words]
            };
            kernels::set_bit(row, e2.from);
        }
        for s in (0..statements).rev() {
            let (head, tail) = after.split_at_mut((s + 1) * words);
            kernels::or_into(&mut head[s * words..], &tail[..words]);
        }
        for e3 in view.view_counterflow_edges_from(p4 as NodeId) {
            let g = group_keys
                .binary_search(&(e3.to as u32, p4))
                .expect("counterflow pair is a group key by construction");
            let row = &mut rows[g * words..][..words];
            kernels::or_into(row, &always);
            kernels::or_into(row, &after[(e3.from_stmt + 1) * words..][..words]);
        }
    }

    let mut groups = Vec::new();
    let mut froms = Vec::new();
    for (&(p5, p4), row) in group_keys.iter().zip(rows.chunks_exact(words)) {
        let start = froms.len() as u32;
        for (w, &word) in row.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                froms.push((w * 64) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
        if froms.len() as u32 > start {
            groups.push(kernels::LaneType2Group {
                cf_from: p4,
                candidate: candidates
                    .binary_search(&p5)
                    .expect("counterflow target is a candidate by construction")
                    as u32,
                froms: (start, froms.len() as u32),
            });
        }
    }
    (groups, froms)
}

/// Algorithm 2, literal transcription of the paper's pseudocode (triple loop over edges).
///
/// Exposed for cross-checking and for the ablation benchmark; prefer
/// [`find_type2_violation`] which is equivalent but substantially faster on large graphs.
pub fn find_type2_violation_naive(graph: &SummaryGraph) -> Option<Type2Witness> {
    find_type2_violation_naive_in(&graph.prefetched())
}

/// [`find_type2_violation_naive`] over any summary-graph view.
pub fn find_type2_violation_naive_in<G: SummaryGraphView>(view: &G) -> Option<Type2Witness> {
    for e1 in view.view_edges().filter(|e| !e.kind.is_counterflow()) {
        for e2 in view.view_edges() {
            if !view.view_reachable(e1.to, e2.from) {
                continue;
            }
            for e3 in view.view_counterflow_edges_from(e2.to) {
                if view.view_reachable(e3.to, e1.from) && pair_condition(view, e2, e3) {
                    return Some(Type2Witness {
                        non_counterflow_edge: *e1,
                        middle_edge: *e2,
                        counterflow_edge: *e3,
                    });
                }
            }
        }
    }
    None
}

/// Algorithm 2, optimized: searches for an adjacent edge pair `(e_2, e_3)` satisfying the pair
/// condition such that *some* non-counterflow edge `(P_1 → P_2)` closes the cycle
/// (`P_3` reachable from `P_2` and `P_1` reachable from `P_5`).
///
/// Both halves of that search become row operations: the `P_3` of the passing `e_2` are one
/// statement-suffix row per `(P_4, e_3.from_stmt)`, and the `P_3` some closing edge reaches
/// back to are one closing row per `P_5`; `e_3` closes a type-II cycle iff the two rows
/// intersect. The innermost loop of the naive version becomes a single row `AND`.
pub fn find_type2_violation(graph: &SummaryGraph) -> Option<Type2Witness> {
    find_type2_violation_in(&graph.prefetched())
}

/// [`find_type2_violation`] over any summary-graph view. Node ids (and therefore the bitset
/// widths) live in the view's [`universe`](SummaryGraphView::universe), so induced views share
/// the parent graph's numbering.
///
/// One pass over the view's edges fills three structures in thread-local scratch: the
/// non-counterflow adjacency as bit rows, the counterflow edges in edge order, and per node
/// `P_4` one row per statement position that files the `P_3` of every in-edge `e_2`. The pair
/// condition splits into a part that depends on `e_2` alone — `e_2` is counterflow or its
/// source statement is an ordered-pair kind — and the positional test
/// `e_3.from_stmt < e_2.to_stmt`, so `e_2` goes into the past-the-end row of `P_4` in the first
/// case and into the row of `e_2.to_stmt` otherwise. Suffix-ORing a counterflow source's rows
/// (once, on its first `e_3`) makes row `s` hold the `P_3` of every `e_2` that passes the pair
/// condition with an `e_3` leaving statement `s - 1` — the factoring
/// `compile_type2_groups` uses for the lane plan.
///
/// The closing row of `P_5` is `⋃ reach(P_2)` over the non-counterflow edges `P_1 → P_2` with
/// `P_1` reachable from `P_5`; it is built on first use, and the ORs stop as soon as it equals
/// `reach(P_5)`, its upper bound (every such `P_2` is reachable from `P_5`).
///
/// Witnesses are chosen in a fixed order: the first counterflow `e_3` in edge order that
/// closes a cycle, the first `e_2` into `e_3.from` (in [`view_edges_to`] order) that passes
/// the pair condition with its `P_3` in the closing row, and the first non-counterflow `e_1`
/// in edge order with `P_3` reachable from `e_1.to` and `e_1.from` reachable from `P_5`.
/// Every temporary lives in reusable thread-local scratch, so repeated calls perform no
/// allocations once it has grown to the largest universe seen.
///
/// [`view_edges_to`]: SummaryGraphView::view_edges_to
pub fn find_type2_violation_in<G: SummaryGraphView>(view: &G) -> Option<Type2Witness> {
    with_type2_scratch(|scratch| {
        if !scratch.load(view) {
            return None;
        }
        (0..scratch.cf_edges.len()).find_map(|i| {
            let e3 = scratch.cf_edges[i];
            scratch.witness(view, &e3)
        })
    })
}

/// Enumerates every dangerous cycle of the graph under the given condition, instead of
/// stopping at the first witness like [`find_type1_violation`] / [`find_type2_violation`].
///
/// Violations are deduplicated by the statement pair their counterflow edge blames — the
/// `(program, statement) → (program, statement)` quadruple — because a diagnostics consumer
/// wants one report per offending statement pair, not one per cycle routing through it. The
/// result order follows the graph's edge order and is deterministic. A type-II violation is
/// the witness [`find_type2_violation_in`] would pick for its counterflow edge.
pub fn all_violations(graph: &SummaryGraph, condition: CycleCondition) -> Vec<Violation> {
    all_violations_in(&graph.prefetched(), condition)
}

/// [`all_violations`] over any summary-graph view.
pub fn all_violations_in<G: SummaryGraphView>(
    view: &G,
    condition: CycleCondition,
) -> Vec<Violation> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    match condition {
        CycleCondition::TypeI => {
            for e in view.view_edges().filter(|e| e.kind.is_counterflow()) {
                if view.view_reachable(e.to, e.from)
                    && seen.insert((e.from, e.from_stmt, e.to, e.to_stmt))
                {
                    out.push(Violation::TypeI(Type1Witness {
                        counterflow_edge: *e,
                    }));
                }
            }
        }
        CycleCondition::TypeII => with_type2_scratch(|scratch| {
            if !scratch.load(view) {
                return;
            }
            for i in 0..scratch.cf_edges.len() {
                let e3 = scratch.cf_edges[i];
                let key = (e3.from, e3.from_stmt, e3.to, e3.to_stmt);
                if seen.contains(&key) {
                    continue;
                }
                if let Some(w) = scratch.witness(view, &e3) {
                    seen.insert(key);
                    out.push(Violation::TypeII(w));
                }
            }
        }),
    }
    out
}

/// Reusable temporaries of the type-II test, one set per thread. Rows are `words =
/// ⌈universe / 64⌉` words wide, one bit per node id. [`Type2Scratch::load`] fills them from
/// one pass over a view's edges; [`Type2Scratch::witness`] then decides one counterflow edge.
#[derive(Default)]
struct Type2Scratch {
    words: usize,
    /// Non-counterflow adjacency, node-indexed rows: bit `P_2` of row `P_1` ⇔ an edge
    /// `P_1 → P_2`. Setting a bit twice is the whole pair dedup.
    nc_succ: Vec<u64>,
    /// The nodes `P_1` with at least one non-counterflow out-edge.
    sources: Vec<u64>,
    /// The view's counterflow edges, in edge order.
    cf_edges: Vec<SummaryEdge>,
    /// The statement rows of each of the view's nodes, `(first, past the end)`: node `v` owns
    /// the `len(v) + 1` rows `first..=past_end`. Entries of other nodes are stale, never read.
    rows: Vec<(usize, usize)>,
    /// Per statement row: is the statement an ordered-pair kind? (`false` past the end.)
    ordered: Vec<bool>,
    /// Statement rows of `P_3`, `words` each: row `(P_4, s)` holds the sources of the in-edges
    /// `e_2` of `P_4` entering statement `s`, and the past-the-end row those of the in-edges
    /// that pass the pair condition whatever `e_3` is. After [`Type2Scratch::witness`]
    /// suffix-ORs a node (`suffixed`), row `s` is the union of its rows `s..`.
    after: Vec<u64>,
    /// The counterflow sources `P_4` whose statement rows are suffix-ORed.
    suffixed: Vec<u64>,
    /// Closing rows, node-indexed: row `P_5` is valid once `P_5` is in `closed`.
    close: Vec<u64>,
    closed: Vec<u64>,
    /// The non-counterflow successors of the sources `P_5` reaches (one row).
    targets: Vec<u64>,
}

impl Type2Scratch {
    /// The one pass over `view`'s edges. Returns `false` when the view has no counterflow or
    /// no non-counterflow edge, so no type-II cycle.
    fn load<G: SummaryGraphView>(&mut self, view: &G) -> bool {
        let n = view.universe();
        let words = n.div_ceil(64).max(1);
        self.words = words;
        self.rows.resize(n, (0, 0));
        self.ordered.clear();
        for v in view.node_ids() {
            let first = self.ordered.len();
            self.ordered.extend(
                view.node(v)
                    .statements()
                    .map(|(_, q)| ordered_pair_kind(q.kind())),
            );
            self.rows[v] = (first, self.ordered.len());
            self.ordered.push(false);
        }
        self.after.clear();
        self.after.resize(self.ordered.len() * words, 0);
        self.nc_succ.clear();
        self.nc_succ.resize(n * words, 0);
        if self.close.len() < n * words {
            self.close.resize(n * words, 0);
        }
        for bits in [&mut self.sources, &mut self.suffixed, &mut self.closed] {
            bits.clear();
            bits.resize(words, 0);
        }
        self.cf_edges.clear();

        for e in view.view_edges() {
            let (first, past_end) = self.rows[e.to];
            let (from_word, from_bit) = (e.from / 64, 1u64 << (e.from % 64));
            let row = if e.kind.is_counterflow() {
                self.cf_edges.push(*e);
                past_end
            } else {
                self.sources[from_word] |= from_bit;
                self.nc_succ[e.from * words + e.to / 64] |= 1u64 << (e.to % 64);
                if self.ordered[self.rows[e.from].0 + e.from_stmt] {
                    past_end
                } else {
                    first + e.to_stmt
                }
            };
            self.after[row * words + from_word] |= from_bit;
        }
        !self.cf_edges.is_empty() && self.sources.iter().any(|&w| w != 0)
    }

    /// The type-II witness through the counterflow edge `e3`, if `e3` closes a cycle.
    fn witness<G: SummaryGraphView>(&mut self, view: &G, e3: &SummaryEdge) -> Option<Type2Witness> {
        let words = self.words;
        let (p4, p5) = (e3.from, e3.to);
        let (base, past_end) = self.rows[p4];
        if !kernels::test_bit(&self.suffixed, p4) {
            kernels::set_bit(&mut self.suffixed, p4);
            for r in (base..past_end).rev() {
                let (head, tail) = self.after.split_at_mut((r + 1) * words);
                kernels::or_into(&mut head[r * words..], &tail[..words]);
            }
        }
        let row = (base + e3.from_stmt + 1) * words..(base + e3.from_stmt + 2) * words;
        if self.after[row.clone()].iter().all(|&w| w == 0) {
            return None;
        }
        self.build_close(view, p5);
        let close = &self.close[p5 * words..][..words];
        if !self.after[row].iter().zip(close).any(|(&a, &c)| a & c != 0) {
            return None;
        }
        let e2 = view
            .view_edges_to(p4)
            .find(|e2| pair_condition(view, e2, e3) && kernels::test_bit(close, e2.from))
            .expect("a passing P_3 in the closing row has an in-edge by construction");
        let p3 = e2.from;
        let e1 = view
            .view_edges()
            .find(|e| {
                !e.kind.is_counterflow()
                    && view.view_reachable(e.to, p3)
                    && view.view_reachable(p5, e.from)
            })
            .expect("closing edge exists by construction of the closing row");
        Some(Type2Witness {
            non_counterflow_edge: *e1,
            middle_edge: *e2,
            counterflow_edge: *e3,
        })
    }

    /// Builds `close[P_5]` unless it is built already. The non-counterflow successors `P_2` of
    /// the sources `P_5` reaches go in first (reachability is reflexive, so each lies in its own
    /// reach row), then their reach rows; both stages stop once the row equals `reach(P_5)`.
    fn build_close<G: SummaryGraphView>(&mut self, view: &G, p5: NodeId) {
        let words = self.words;
        if kernels::test_bit(&self.closed, p5) {
            return;
        }
        kernels::set_bit(&mut self.closed, p5);
        let reach = view.view_reachable_row(p5);
        let row = &mut self.close[p5 * words..][..words];
        row.fill(0);
        for (w, (&r, &s)) in reach.iter().zip(&self.sources).enumerate() {
            let mut bits = r & s;
            while bits != 0 {
                let p1 = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                kernels::or_into(row, &self.nc_succ[p1 * words..][..words]);
                if row == reach {
                    return;
                }
            }
        }
        self.targets.clear();
        self.targets.extend_from_slice(row);
        for (w, &word) in self.targets.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let p2 = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                kernels::or_into(row, view.view_reachable_row(p2));
                if row == reach {
                    return;
                }
            }
        }
    }
}

fn with_type2_scratch<R>(f: impl FnOnce(&mut Type2Scratch) -> R) -> R {
    SCRATCH.with(|scratch| f(&mut scratch.borrow_mut()))
}

thread_local! {
    static SCRATCH: RefCell<Type2Scratch> = RefCell::new(Type2Scratch::default());
}

/// The type-II test as it stood before the one-pass rewrite: a pair-dedup bitset, per-source
/// closing rows and one pair-condition call per adjacent edge pair, plus the nested rescan of
/// the type-II branch of [`all_violations_in`]. Kept only to pin the witnesses the rewrite must
/// reproduce.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) fn find_type2_violation_in<G: SummaryGraphView>(view: &G) -> Option<Type2Witness> {
        let n = view.universe();
        if n == 0 {
            return None;
        }
        let words = n.div_ceil(64).max(1);
        let mut nc_seen = vec![0u64; (n * n).div_ceil(64)];
        let mut nc_pairs: Vec<SummaryEdge> = Vec::new();
        for e in view.view_edges().filter(|e| !e.kind.is_counterflow()) {
            let key = e.from * n + e.to;
            if !kernels::test_bit(&nc_seen, key) {
                kernels::set_bit(&mut nc_seen, key);
                nc_pairs.push(*e);
            }
        }
        if nc_pairs.is_empty() {
            return None;
        }
        let mut candidates: Vec<NodeId> = view
            .view_edges()
            .filter(|e| e.kind.is_counterflow())
            .map(|e| e.to)
            .collect();
        candidates.sort_unstable();
        candidates.dedup();
        if candidates.is_empty() {
            return None;
        }
        let mut sources = vec![0u64; words];
        let mut nc_close = vec![0u64; n * words];
        for e in &nc_pairs {
            kernels::set_bit(&mut sources, e.from);
            kernels::or_into(
                &mut nc_close[e.from * words..(e.from + 1) * words],
                view.view_reachable_row(e.to),
            );
        }
        let mut close = vec![0u64; candidates.len() * words];
        for (ci, &p5) in candidates.iter().enumerate() {
            let acc = &mut close[ci * words..(ci + 1) * words];
            let reach = view.view_reachable_row(p5);
            for (w, (&r, &s)) in reach.iter().zip(&sources).enumerate() {
                let mut bits = r & s;
                while bits != 0 {
                    let p1 = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    kernels::or_into(acc, &nc_close[p1 * words..(p1 + 1) * words]);
                }
            }
        }
        for e3 in view.view_edges().filter(|e| e.kind.is_counterflow()) {
            let ci = candidates.binary_search(&e3.to).unwrap();
            let close_row = &close[ci * words..(ci + 1) * words];
            for e2 in view.view_edges_to(e3.from) {
                if !pair_condition(view, e2, e3) || !kernels::test_bit(close_row, e2.from) {
                    continue;
                }
                let p3 = e2.from;
                let e1 = nc_pairs
                    .iter()
                    .find(|e| view.view_reachable(e.to, p3) && view.view_reachable(e3.to, e.from))
                    .unwrap();
                return Some(Type2Witness {
                    non_counterflow_edge: *e1,
                    middle_edge: *e2,
                    counterflow_edge: *e3,
                });
            }
        }
        None
    }

    pub(super) fn all_type2_violations_in<G: SummaryGraphView>(view: &G) -> Vec<Violation> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for e3 in view.view_edges().filter(|e| e.kind.is_counterflow()) {
            if seen.contains(&(e3.from, e3.from_stmt, e3.to, e3.to_stmt)) {
                continue;
            }
            let witness = view.view_edges_to(e3.from).find_map(|e2| {
                if !pair_condition(view, e2, e3) {
                    return None;
                }
                view.view_edges()
                    .find(|e1| {
                        !e1.kind.is_counterflow()
                            && view.view_reachable(e1.to, e2.from)
                            && view.view_reachable(e3.to, e1.from)
                    })
                    .map(|e1| Type2Witness {
                        non_counterflow_edge: *e1,
                        middle_edge: *e2,
                        counterflow_edge: *e3,
                    })
            });
            if let Some(w) = witness {
                seen.insert((e3.from, e3.from_stmt, e3.to, e3.to_stmt));
                out.push(Violation::TypeII(w));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::settings::AnalysisSettings;
    use mvrc_btp::{LinearProgram, ProgramBuilder};
    use mvrc_schema::{Schema, SchemaBuilder};

    fn schema() -> Schema {
        let mut b = SchemaBuilder::new("s");
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
        b.build()
    }

    fn auction_ltps(schema: &Schema) -> Vec<LinearProgram> {
        let mut fb = ProgramBuilder::new(schema, "FindBids");
        let q1 = fb
            .key_update("q1", "Buyer", &["calls"], &["calls"])
            .unwrap();
        let q2 = fb.pred_select("q2", "Bids", &["bid"], &["bid"]).unwrap();
        fb.seq(&[q1.into(), q2.into()]);

        let mut pb = ProgramBuilder::new(schema, "PlaceBid");
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

        mvrc_btp::unfold_set_le2(&[fb.build(), pb.build()])
    }

    #[test]
    fn auction_is_type2_robust_but_not_type1_robust() {
        // The headline result of Section 2: the Auction benchmark contains a type-I cycle but no
        // type-II cycle, so Algorithm 2 attests robustness while the baseline of [3] does not.
        let schema = schema();
        let ltps = auction_ltps(&schema);
        let graph = SummaryGraph::construct(&ltps, &schema, AnalysisSettings::paper_default());
        assert_eq!(graph.node_count(), 3);
        assert_eq!(graph.edge_count(), 17);
        assert_eq!(graph.counterflow_edge_count(), 1);
        assert!(find_type1_violation(&graph).is_some());
        assert!(find_type2_violation(&graph).is_none());
        assert!(find_type2_violation_naive(&graph).is_none());
        assert!(is_robust(&graph, CycleCondition::TypeII));
        assert!(!is_robust(&graph, CycleCondition::TypeI));
        let outcome = RobustnessOutcome::evaluate(&graph, CycleCondition::TypeI);
        assert!(!outcome.robust);
        assert!(matches!(outcome.violation, Some(Violation::TypeI(_))));
        assert!(outcome.to_string().contains("not attested"));
    }

    #[test]
    fn read_only_workload_is_trivially_robust() {
        let schema = schema();
        let mut pb = ProgramBuilder::new(&schema, "ReadOnly");
        let q = pb.key_select("q", "Buyer", &["calls"]).unwrap();
        pb.push(q.into());
        let ltps = vec![LinearProgram::from_linear_program(&pb.build())];
        let graph = SummaryGraph::construct(&ltps, &schema, AnalysisSettings::paper_default());
        assert!(is_robust(&graph, CycleCondition::TypeI));
        assert!(is_robust(&graph, CycleCondition::TypeII));
    }

    #[test]
    fn read_then_write_self_conflict_is_a_type2_cycle() {
        // A single program that key-selects a Bids tuple and later key-updates it (without any
        // protecting foreign key) admits a counterflow rw-antidependency into a later statement
        // of a concurrent instance: a classic lost-update anomaly, and indeed a type-II cycle.
        let schema = schema();
        let mut pb = ProgramBuilder::new(&schema, "ReadThenWrite");
        let qr = pb.key_select("qr", "Bids", &["bid"]).unwrap();
        let qw = pb.key_update("qw", "Bids", &["bid"], &["bid"]).unwrap();
        pb.seq(&[qr.into(), qw.into()]);
        let ltps = vec![LinearProgram::from_linear_program(&pb.build())];
        let graph = SummaryGraph::construct(&ltps, &schema, AnalysisSettings::paper_default());
        let witness = find_type2_violation(&graph).expect("expected a type-II cycle");
        assert!(witness.counterflow_edge.kind.is_counterflow());
        assert!(!is_robust(&graph, CycleCondition::TypeII));
        assert_eq!(
            find_type2_violation_naive(&graph).is_some(),
            find_type2_violation(&graph).is_some()
        );
        let outcome = RobustnessOutcome::evaluate(&graph, CycleCondition::TypeII);
        assert!(matches!(outcome.violation, Some(Violation::TypeII(_))));
    }

    #[test]
    fn optimized_and_naive_checks_agree_on_auction_subsets() {
        let schema = schema();
        let ltps = auction_ltps(&schema);
        // Exercise every subset of the three LTP nodes.
        for mask in 1usize..8 {
            let subset: Vec<LinearProgram> = ltps
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, l)| l.clone())
                .collect();
            let graph =
                SummaryGraph::construct(&subset, &schema, AnalysisSettings::paper_default());
            assert_eq!(
                find_type2_violation(&graph).is_some(),
                find_type2_violation_naive(&graph).is_some(),
                "naive and optimized type-II checks disagree on subset mask {mask}"
            );
        }
    }

    /// Packs every non-empty *node* subset of `graph` into one partial lane batch and runs the
    /// lane kernel once, returning the subsets (as node bitmasks, lane `i` = `subsets[i]`)
    /// and the robust-lane word.
    fn sweep_every_node_subset(
        graph: &SummaryGraph,
        plan: &kernels::LanePlan,
    ) -> (Vec<usize>, u64) {
        let n = graph.node_count();
        let subsets: Vec<usize> = (1..1usize << n).collect();
        assert!(subsets.len() <= 64);
        let mut scratch = kernels::LaneScratch::default();
        scratch.member = vec![0u64; n];
        for (lane, &s) in subsets.iter().enumerate() {
            for (v, word) in scratch.member.iter_mut().enumerate() {
                if s & (1 << v) != 0 {
                    *word |= 1 << lane;
                }
            }
        }
        let batch = u64::MAX >> (64 - subsets.len());
        let robust = kernels::sweep_lanes(plan, &mut scratch, batch);
        (subsets, robust)
    }

    fn members_of(subset: usize, n: usize) -> Vec<NodeId> {
        (0..n).filter(|v| subset & (1 << v) != 0).collect()
    }

    #[test]
    fn lane_plan_verdicts_match_scalar_cycle_tests_on_every_node_subset() {
        // Direct kernel oracle on the Auction graph: compare each lane's verdict against the
        // scalar cycle test on the corresponding induced view, under both conditions.
        let schema = schema();
        let ltps = auction_ltps(&schema);
        let graph = SummaryGraph::construct(&ltps, &schema, AnalysisSettings::paper_default());
        let n = graph.node_count();
        for condition in [CycleCondition::TypeI, CycleCondition::TypeII] {
            let plan = compile_lane_plan(&graph, condition);
            let (subsets, robust) = sweep_every_node_subset(&graph, &plan);
            for (lane, &s) in subsets.iter().enumerate() {
                let want = is_robust_view(&graph.induced(&members_of(s, n)), condition);
                assert_eq!(
                    robust & (1 << lane) != 0,
                    want,
                    "lane verdict diverges on node subset {s:#b} under {condition:?}"
                );
            }
        }
    }

    #[test]
    fn lane_kernel_matches_the_literal_algorithms_on_every_smallbank_node_subset() {
        // SmallBank's five nodes give 31 subsets — one lane batch — and a type-II plan with
        // several sources per candidate, so the factored closing sets of the kernel are
        // checked against the literal Algorithm 2 (and the literal type-I test), neither of
        // which shares code with the optimized scalar test.
        let session = crate::RobustnessSession::new(mvrc_benchmarks::smallbank());
        let graph = session.graph(AnalysisSettings::paper_default());
        let n = graph.node_count();
        assert_eq!(n, 5);
        for condition in [CycleCondition::TypeI, CycleCondition::TypeII] {
            let plan = compile_lane_plan(&graph, condition);
            assert_eq!(plan.nc_pairs.len(), 22);
            assert_eq!(plan.nc_sources.len(), 5);
            assert_eq!(plan.candidates.len(), 4);
            let (subsets, robust) = sweep_every_node_subset(&graph, &plan);
            assert_eq!(subsets.len(), 31);
            let mut violated = 0;
            for (lane, &s) in subsets.iter().enumerate() {
                let view = graph.induced(&members_of(s, n));
                let want = match condition {
                    CycleCondition::TypeI => find_type1_violation_in(&view).is_none(),
                    CycleCondition::TypeII => find_type2_violation_naive_in(&view).is_none(),
                };
                violated += usize::from(!want);
                assert_eq!(
                    robust & (1 << lane) != 0,
                    want,
                    "lane verdict diverges on node subset {s:#b} under {condition:?}"
                );
            }
            // Both verdicts occur, so the comparison is not vacuous.
            assert!(violated > 0 && violated < subsets.len(), "{condition:?}");
        }
    }

    /// The type-II groups of a lane plan by literal enumeration: one pair-condition call per
    /// adjacent edge pair `(e_2, e_3)`, the passing `(candidate, P_4, P_3)` triples sorted and
    /// deduplicated, then grouped per `(candidate, P_4)`.
    fn literal_type2_groups(
        graph: &SummaryGraph,
        candidates: &[u32],
    ) -> (Vec<kernels::LaneType2Group>, Vec<u32>) {
        let view = graph.prefetched();
        let mut triples: Vec<(u32, u32, u32)> = Vec::new();
        for e3 in view.view_edges().filter(|e| e.kind.is_counterflow()) {
            let ci = candidates.binary_search(&(e3.to as u32)).unwrap() as u32;
            for e2 in view.view_edges_to(e3.from) {
                if pair_condition(&view, e2, e3) {
                    triples.push((ci, e3.from as u32, e2.from as u32));
                }
            }
        }
        triples.sort_unstable();
        triples.dedup();
        let mut groups: Vec<kernels::LaneType2Group> = Vec::new();
        let mut froms = Vec::new();
        for &(ci, p4, p3) in &triples {
            match groups.last_mut() {
                Some(g) if (g.candidate, g.cf_from) == (ci, p4) => g.froms.1 += 1,
                _ => groups.push(kernels::LaneType2Group {
                    cf_from: p4,
                    candidate: ci,
                    froms: (froms.len() as u32, froms.len() as u32 + 1),
                }),
            }
            froms.push(p3);
        }
        (groups, froms)
    }

    #[test]
    fn type2_lane_groups_equal_the_literal_pair_enumeration() {
        // The paper's four benchmarks plus 40 seeded synthetic workloads, whose loops and
        // optional branches give LTPs of several statements, so the statement suffix of the
        // positional test decides some pairs.
        let mut workloads = mvrc_benchmarks::paper_benchmarks();
        workloads.push(mvrc_benchmarks::ycsb_t(
            mvrc_benchmarks::YcsbtConfig::default(),
        ));
        workloads.extend((0..40).map(|seed| {
            mvrc_benchmarks::synthetic(mvrc_benchmarks::SyntheticConfig {
                seed,
                ..mvrc_benchmarks::SyntheticConfig::default()
            })
        }));
        let (mut groups_seen, mut rejected, mut positional) = (0, 0, 0);
        for workload in workloads {
            let name = workload.name.clone();
            let session = crate::RobustnessSession::new(workload);
            let graph = session.graph(AnalysisSettings::paper_default());
            let plan = compile_lane_plan(&graph, CycleCondition::TypeII);
            let (groups, froms) = literal_type2_groups(&graph, &plan.candidates);
            assert_eq!(plan.type2_groups, groups, "type-II groups of {name}");
            assert_eq!(plan.type2_froms, froms, "type-II froms of {name}");
            groups_seen += groups.len();
            let view = graph.prefetched();
            for e3 in view.view_edges().filter(|e| e.kind.is_counterflow()) {
                for e2 in view.view_edges_to(e3.from) {
                    let by_e2 = e2.kind.is_counterflow()
                        || ordered_pair_kind(view.node(e2.from).statement(e2.from_stmt).kind());
                    if !pair_condition(&view, e2, e3) {
                        rejected += 1;
                    } else if !by_e2 {
                        positional += 1;
                    }
                }
            }
        }
        // Neither side of the positional test is vacuous.
        assert!(groups_seen > 0 && rejected > 0 && positional > 0);
    }

    /// Asserts that the one-pass type-II test and `all_violations_in` return exactly the
    /// reference witnesses on `view`; returns whether it has a type-II cycle.
    fn assert_reference_witnesses<G: SummaryGraphView>(
        view: &G,
        label: &dyn Fn() -> String,
    ) -> bool {
        let witness = find_type2_violation_in(view);
        assert_eq!(
            witness,
            super::reference::find_type2_violation_in(view),
            "type-II witness of {}",
            label()
        );
        assert_eq!(
            all_violations_in(view, CycleCondition::TypeII),
            super::reference::all_type2_violations_in(view),
            "type-II violations of {}",
            label()
        );
        witness.is_some()
    }

    #[test]
    fn one_pass_type2_test_picks_the_reference_witnesses() {
        // The paper's benchmarks, YCSB-T, Auction(n) and 40 seeded synthetic workloads under
        // every evaluation setting, on the full graph and on every program subset of the
        // workloads with at most 8 programs.
        let mut workloads = mvrc_benchmarks::paper_benchmarks();
        workloads.push(mvrc_benchmarks::ycsb_t(
            mvrc_benchmarks::YcsbtConfig::default(),
        ));
        workloads.extend([1, 3, 20].map(mvrc_benchmarks::auction_n));
        workloads.extend((0..40).map(|seed| {
            mvrc_benchmarks::synthetic(mvrc_benchmarks::SyntheticConfig {
                seed,
                ..mvrc_benchmarks::SyntheticConfig::default()
            })
        }));
        let (mut violated, mut robust) = (0, 0);
        for workload in workloads {
            let name = workload.name.clone();
            let session = crate::RobustnessSession::new(workload);
            let programs = session.program_names();
            for settings in AnalysisSettings::evaluation_grid(CycleCondition::TypeII) {
                let graph = session.graph(settings);
                let mut tally = |found: bool| {
                    if found {
                        violated += 1;
                    } else {
                        robust += 1;
                    }
                };
                tally(assert_reference_witnesses(&graph.prefetched(), &|| {
                    format!("{name} under {settings}")
                }));
                if programs.len() > 8 {
                    continue;
                }
                for mask in 1usize..1 << programs.len() {
                    let subset: Vec<&str> = (0..programs.len())
                        .filter(|i| mask & (1 << i) != 0)
                        .map(|i| programs[i].as_str())
                        .collect();
                    let view = graph.induced_for_programs(&subset).unwrap();
                    tally(assert_reference_witnesses(&view, &|| {
                        format!("{name} {subset:?} under {settings}")
                    }));
                }
            }
        }
        // Both verdicts occur, so the comparison is not vacuous.
        assert!(
            violated > 0 && robust > 0,
            "{violated} violated, {robust} robust"
        );
    }

    /// A summary-graph view over an arbitrary edge list, with its closure computed by a plain
    /// fixpoint: it reaches graphs Algorithm 1 never builds, such as a counterflow edge with
    /// no non-counterflow companion, where a closing row needs more than the non-counterflow
    /// successors of the sources `P_5` reaches.
    struct EdgeListView {
        nodes: Vec<LinearProgram>,
        edges: Vec<SummaryEdge>,
        words: usize,
        reach: Vec<u64>,
    }

    impl EdgeListView {
        fn new(nodes: Vec<LinearProgram>, edges: Vec<SummaryEdge>) -> Self {
            let n = nodes.len();
            let words = n.div_ceil(64).max(1);
            let mut reach = vec![0u64; n * words];
            for v in 0..n {
                kernels::set_bit(&mut reach[v * words..][..words], v);
            }
            let mut changed = true;
            while changed {
                changed = false;
                for e in &edges {
                    for w in 0..words {
                        let add = reach[e.to * words + w] & !reach[e.from * words + w];
                        if add != 0 {
                            reach[e.from * words + w] |= add;
                            changed = true;
                        }
                    }
                }
            }
            EdgeListView {
                nodes,
                edges,
                words,
                reach,
            }
        }
    }

    impl SummaryGraphView for EdgeListView {
        fn universe(&self) -> usize {
            self.nodes.len()
        }

        fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
            0..self.nodes.len()
        }

        fn node(&self, id: NodeId) -> &LinearProgram {
            &self.nodes[id]
        }

        fn view_edges(&self) -> impl Iterator<Item = &SummaryEdge> + '_ {
            self.edges.iter()
        }

        fn view_edges_to(&self, node: NodeId) -> impl Iterator<Item = &SummaryEdge> + '_ {
            self.edges.iter().filter(move |e| e.to == node)
        }

        fn view_counterflow_edges_from(
            &self,
            node: NodeId,
        ) -> impl Iterator<Item = &SummaryEdge> + '_ {
            self.edges
                .iter()
                .filter(move |e| e.from == node && e.kind.is_counterflow())
        }

        fn view_reachable(&self, from: NodeId, to: NodeId) -> bool {
            kernels::test_bit(self.view_reachable_row(from), to)
        }

        fn view_reachable_row(&self, from: NodeId) -> &[u64] {
            &self.reach[from * self.words..][..self.words]
        }
    }

    #[test]
    fn one_pass_type2_test_picks_the_reference_witnesses_on_random_edge_lists() {
        // Random edge lists over the LTPs of a synthetic workload, whose statement kinds and
        // positions make every branch of the pair condition occur.
        let session = crate::RobustnessSession::new(mvrc_benchmarks::synthetic(
            mvrc_benchmarks::SyntheticConfig::default(),
        ));
        let ltps = session.ltps().to_vec();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let (mut violated, mut robust) = (0, 0);
        for round in 0..2000 {
            let nodes: Vec<LinearProgram> = (0..2 + next(6))
                .map(|_| ltps[next(ltps.len())].clone())
                .collect();
            let edges: Vec<SummaryEdge> = (0..next(4 * nodes.len()))
                .map(|_| {
                    let (from, to) = (next(nodes.len()), next(nodes.len()));
                    SummaryEdge {
                        from,
                        from_stmt: next(nodes[from].len()),
                        kind: if next(3) == 0 {
                            crate::summary::EdgeKind::Counterflow
                        } else {
                            crate::summary::EdgeKind::NonCounterflow
                        },
                        to_stmt: next(nodes[to].len()),
                        to,
                    }
                })
                .collect();
            let view = EdgeListView::new(nodes, edges);
            let found = assert_reference_witnesses(&view, &|| format!("random round {round}"));
            assert_eq!(found, find_type2_violation_naive_in(&view).is_some());
            if found {
                violated += 1;
            } else {
                robust += 1;
            }
        }
        assert!(
            violated > 0 && robust > 0,
            "{violated} violated, {robust} robust"
        );
    }

    #[test]
    fn empty_graph_is_robust() {
        let schema = schema();
        let graph = SummaryGraph::construct(&[], &schema, AnalysisSettings::paper_default());
        assert!(find_type1_violation(&graph).is_none());
        assert!(find_type2_violation(&graph).is_none());
        assert!(find_type2_violation_naive(&graph).is_none());
    }

    #[test]
    fn all_violations_agrees_with_the_single_witness_checks() {
        let schema = schema();
        let ltps = auction_ltps(&schema);
        let graph = SummaryGraph::construct(&ltps, &schema, AnalysisSettings::paper_default());
        // Auction: exactly one counterflow edge, on a cycle → one type-I violation, no type-II.
        let type1 = all_violations(&graph, CycleCondition::TypeI);
        assert_eq!(type1.len(), 1);
        assert_eq!(
            type1[0],
            Violation::TypeI(find_type1_violation(&graph).unwrap())
        );
        assert!(all_violations(&graph, CycleCondition::TypeII).is_empty());
    }

    #[test]
    fn all_violations_deduplicates_by_blamed_statement_pair() {
        let schema = schema();
        let mut pb = ProgramBuilder::new(&schema, "ReadThenWrite");
        let qr = pb.key_select("qr", "Bids", &["bid"]).unwrap();
        let qw = pb.key_update("qw", "Bids", &["bid"], &["bid"]).unwrap();
        pb.seq(&[qr.into(), qw.into()]);
        let ltps = vec![LinearProgram::from_linear_program(&pb.build())];
        let graph = SummaryGraph::construct(&ltps, &schema, AnalysisSettings::paper_default());
        let violations = all_violations(&graph, CycleCondition::TypeII);
        assert!(!violations.is_empty());
        // Every reported violation blames a distinct counterflow statement pair.
        let mut keys = std::collections::HashSet::new();
        for v in &violations {
            let e = match v {
                Violation::TypeI(w) => w.counterflow_edge,
                Violation::TypeII(w) => w.counterflow_edge,
            };
            assert!(e.kind.is_counterflow());
            assert!(keys.insert((e.from, e.from_stmt, e.to, e.to_stmt)));
        }
        // Enumeration finds a violation exactly when the single-witness check does.
        assert_eq!(
            violations.is_empty(),
            find_type2_violation(&graph).is_none()
        );
        // Deterministic across runs.
        assert_eq!(violations, all_violations(&graph, CycleCondition::TypeII));
    }
}
