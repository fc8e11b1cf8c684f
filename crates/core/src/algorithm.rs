//! Robustness tests on summary graphs.
//!
//! * [`find_type1_violation`] — the baseline condition of Alomari & Fekete `[3]`: a workload is
//!   attested robust when the summary graph has no cycle containing a counterflow edge
//!   (**type-I cycle**).
//! * [`find_type2_violation`] / [`find_type2_violation_naive`] — Algorithm 2 of the paper: a
//!   workload is attested robust when the summary graph has no **type-II cycle** (Theorem 6.4).
//!   The naive variant mirrors the paper's pseudocode literally; the default variant is an
//!   algebraically equivalent reformulation that factors the search through precomputed
//!   reachability bitsets and is considerably faster on large graphs. Both are cross-checked in
//!   the test-suite and the benchmark harness.
//!
//! Both tests are *sound but incomplete* (Proposition 6.5): a `robust = true` verdict guarantees
//! robustness against MVRC, a `robust = false` verdict may be a false negative.

use crate::kernels;
use crate::settings::CycleCondition;
use crate::summary::{NodeId, SummaryEdge, SummaryGraph, SummaryGraphView};
use mvrc_btp::StatementKind;
use mvrc_par::WorkerLocal;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::fmt;
use std::sync::OnceLock;

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
    /// Goes through [`SummaryGraph::prefetched`] so the derived-array slabs are deref'd once
    /// up front — on a snapshot-backed graph, querying through the plain `&SummaryGraph` view
    /// would pay a virtual dispatch per reachability probe.
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

    let mut type2_groups = Vec::new();
    let mut type2_froms = Vec::new();
    if condition == CycleCondition::TypeII {
        // Distinct (candidate, P_4, P_3) triples over concrete edges: which in-edges of a
        // counterflow source pass the pair condition, grouped per counterflow node pair.
        let mut triples: Vec<(u32, u32, u32)> = Vec::new();
        for e3 in view.view_edges().filter(|e| e.kind.is_counterflow()) {
            let ci = candidates
                .binary_search(&(e3.to as u32))
                .expect("counterflow target is a candidate by construction")
                as u32;
            for e2 in view.view_edges_to(e3.from) {
                if pair_condition(&view, e2, e3) {
                    triples.push((ci, e3.from as u32, e2.from as u32));
                }
            }
        }
        triples.sort_unstable();
        triples.dedup();
        let mut i = 0;
        while i < triples.len() {
            let (ci, cf_from, _) = triples[i];
            let start = type2_froms.len() as u32;
            while i < triples.len() && triples[i].0 == ci && triples[i].1 == cf_from {
                type2_froms.push(triples[i].2);
                i += 1;
            }
            type2_groups.push(kernels::LaneType2Group {
                cf_from,
                candidate: ci,
                froms: (start, type2_froms.len() as u32),
            });
        }
    }

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
/// The existence of the closing non-counterflow edge is precomputed as one closing-set bitset
/// per candidate `P_5` (the `P_3` nodes some closing edge reaches back to), built from the
/// graph's reachability rows by factoring through the edges' sources `P_1`; the innermost loop
/// of the naive version becomes a single bit test.
pub fn find_type2_violation(graph: &SummaryGraph) -> Option<Type2Witness> {
    find_type2_violation_in(&graph.prefetched())
}

/// [`find_type2_violation`] over any summary-graph view. Node ids (and therefore the bitset
/// widths) live in the view's [`universe`](SummaryGraphView::universe), so induced views share
/// the parent graph's numbering.
///
/// The closing sets are accumulated in two word-parallel passes over the view's shared
/// reachability rows (`kernels::or_into`): one row per non-counterflow source `P_1` (the union
/// of its targets' reach rows), then one row per candidate `P_5` (the union of the source rows
/// `P_5` reaches). That is `nc_pairs + candidates × sources` row ORs. Every temporary — the
/// pair-dedup bitset, the representative edges, the candidate list, the source bitset and
/// both row matrices — lives in reusable per-worker scratch, so repeated calls perform no
/// universe-sized allocations.
pub fn find_type2_violation_in<G: SummaryGraphView>(view: &G) -> Option<Type2Witness> {
    let n = view.universe();
    if n == 0 {
        return None;
    }
    let words = n.div_ceil(64).max(1);

    with_type2_scratch(|scratch| {
        // Distinct (P_1, P_2) node pairs connected by a non-counterflow edge, represented by
        // one arbitrary representative edge each (the statements of e_1 are irrelevant to the
        // cycle condition). The dedup bitset persists across calls and is wiped by clearing
        // exactly the bits just set — never a full `n²`-bit sweep.
        let seen_words = (n * n).div_ceil(64);
        if scratch.nc_seen.len() < seen_words {
            scratch.nc_seen.resize(seen_words, 0);
        }
        scratch.nc_pairs.clear();
        for e in view.view_edges().filter(|e| !e.kind.is_counterflow()) {
            let key = e.from * n + e.to;
            if !kernels::test_bit(&scratch.nc_seen, key) {
                kernels::set_bit(&mut scratch.nc_seen, key);
                scratch.nc_pairs.push(*e);
            }
        }
        for i in 0..scratch.nc_pairs.len() {
            let e = scratch.nc_pairs[i];
            kernels::clear_bit(&mut scratch.nc_seen, e.from * n + e.to);
        }
        if scratch.nc_pairs.is_empty() {
            return None;
        }

        // The candidate P_5 nodes are exactly the targets of counterflow edges. For each such
        // node compute the set of P_3 nodes for which a closing non-counterflow pair exists:
        //   close[P_5] = ⋃ { reach_row(P_2) : (P_1 → P_2) non-counterflow, P_1 reachable from
        //   P_5 },
        // factored through the pair sources: first nc_close[P_1] = ⋃ reach_row(P_2) over P_1's
        // non-counterflow successors, then close[P_5] = ⋃ nc_close[P_1] over the sources P_1
        // reachable from P_5.
        scratch.candidates.clear();
        scratch.candidates.extend(
            view.view_edges()
                .filter(|e| e.kind.is_counterflow())
                .map(|e| e.to),
        );
        scratch.candidates.sort_unstable();
        scratch.candidates.dedup();
        if scratch.candidates.is_empty() {
            return None;
        }
        scratch.sources.clear();
        scratch.sources.resize(words, 0);
        if scratch.nc_close.len() < n * words {
            scratch.nc_close.resize(n * words, 0);
        }
        for e in &scratch.nc_pairs {
            let row = &mut scratch.nc_close[e.from * words..(e.from + 1) * words];
            if !kernels::test_bit(&scratch.sources, e.from) {
                // First pair from this source: its row holds a previous call's data.
                kernels::set_bit(&mut scratch.sources, e.from);
                row.fill(0);
            }
            kernels::or_into(row, view.view_reachable_row(e.to));
        }
        scratch.close.clear();
        scratch.close.resize(scratch.candidates.len() * words, 0);
        for (ci, &p5) in scratch.candidates.iter().enumerate() {
            let acc = &mut scratch.close[ci * words..(ci + 1) * words];
            let reach = view.view_reachable_row(p5);
            for (w, (&r, &s)) in reach.iter().zip(&scratch.sources).enumerate() {
                let mut bits = r & s;
                while bits != 0 {
                    let p1 = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    kernels::or_into(acc, &scratch.nc_close[p1 * words..(p1 + 1) * words]);
                }
            }
        }

        // Enumerate adjacent pairs (e_2, e_3) with e_3 counterflow.
        for e3 in view.view_edges().filter(|e| e.kind.is_counterflow()) {
            let ci = scratch
                .candidates
                .binary_search(&e3.to)
                .expect("counterflow target is a candidate by construction");
            let close_row = &scratch.close[ci * words..(ci + 1) * words];
            for e2 in view.view_edges_to(e3.from) {
                if !pair_condition(view, e2, e3) {
                    continue;
                }
                let p3 = e2.from;
                if !kernels::test_bit(close_row, p3) {
                    continue;
                }
                // Recover a concrete closing non-counterflow edge for the witness.
                let e1 = scratch
                    .nc_pairs
                    .iter()
                    .find(|e| view.view_reachable(e.to, p3) && view.view_reachable(e3.to, e.from))
                    .expect("closing edge exists by construction of the close bitset");
                return Some(Type2Witness {
                    non_counterflow_edge: *e1,
                    middle_edge: *e2,
                    counterflow_edge: *e3,
                });
            }
        }
        None
    })
}

/// Enumerates every dangerous cycle of the graph under the given condition, instead of
/// stopping at the first witness like [`find_type1_violation`] / [`find_type2_violation`].
///
/// Violations are deduplicated by the statement pair their counterflow edge blames — the
/// `(program, statement) → (program, statement)` quadruple — because a diagnostics consumer
/// wants one report per offending statement pair, not one per cycle routing through it. The
/// result order follows the graph's edge order and is deterministic.
///
/// Not performance-tuned: linting runs once per workload, unlike the subset-sweep hot path.
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
        CycleCondition::TypeII => {
            for e3 in view.view_edges().filter(|e| e.kind.is_counterflow()) {
                if seen.contains(&(e3.from, e3.from_stmt, e3.to, e3.to_stmt)) {
                    continue;
                }
                // One representative cycle per blamed counterflow edge: the first adjacent
                // middle edge satisfying the pair condition together with the first
                // non-counterflow edge that closes the cycle (mirrors the naive Algorithm 2
                // loop with the roles reordered).
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
        }
    }
    out
}

/// Reusable temporaries for [`find_type2_violation_in`]. Pool workers use one [`WorkerLocal`]
/// slot each (the subset sweep calls the check once per subset), other threads a plain
/// thread-local. `nc_seen` is self-cleaning: the function clears the bits it set before
/// returning, so the bitset never needs re-zeroing between calls.
#[derive(Default)]
struct Type2Scratch {
    nc_seen: Vec<u64>,
    nc_pairs: Vec<SummaryEdge>,
    candidates: Vec<NodeId>,
    /// Bitset of the `P_1` nodes with at least one non-counterflow pair (`words` wide).
    sources: Vec<u64>,
    /// Per-source closing rows, node-indexed (`universe × words`): row `P_1` is the union of
    /// `reach_row(P_2)` over the non-counterflow pairs `(P_1, P_2)`. Only the rows of
    /// `sources` are valid; each call zeroes a source's row before accumulating into it.
    nc_close: Vec<u64>,
    /// Closing-set rows, one per candidate `P_5`, in candidate order: the union of
    /// `nc_close[P_1]` over the sources `P_1` reachable from `P_5`.
    close: Vec<u64>,
}

fn with_type2_scratch<R>(f: impl FnOnce(&mut Type2Scratch) -> R) -> R {
    static SCRATCH: OnceLock<WorkerLocal<Type2Scratch>> = OnceLock::new();
    if mvrc_par::current_worker_index().is_some() {
        SCRATCH
            .get_or_init(|| WorkerLocal::new(Type2Scratch::default))
            .with(f)
    } else {
        NON_WORKER_SCRATCH.with(|scratch| f(&mut scratch.borrow_mut()))
    }
}

thread_local! {
    static NON_WORKER_SCRATCH: RefCell<Type2Scratch> = RefCell::new(Type2Scratch::default());
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
