//! Algorithm 2 as the literal triple loop over the edges of a summary-graph view.

use mvrc_btp::StatementKind;
use mvrc_robustness::{SummaryEdge, SummaryGraphView, Type2Witness, Violation};

/// The pair condition of Theorem 6.4 on adjacent edges `e_2: P_3 → P_4` and
/// `e_3: P_4 → P_5`: `e_2` is counterflow, or `e_3` leaves `P_4` before `e_2` enters it, or
/// `e_2` leaves a key sel, pred sel, pred upd or pred del statement.
fn pair_condition<G: SummaryGraphView>(view: &G, e2: &SummaryEdge, e3: &SummaryEdge) -> bool {
    let source_kind = view
        .node(e2.from as usize)
        .statement(e2.from_stmt as usize)
        .kind();
    e2.kind.is_counterflow()
        || view
            .node(e3.from as usize)
            .precedes(e3.from_stmt as usize, e2.to_stmt as usize)
        || matches!(
            source_kind,
            StatementKind::KeySelect
                | StatementKind::PredSelect
                | StatementKind::PredUpdate
                | StatementKind::PredDelete
        )
}

/// The first type-II cycle through the counterflow edge `e3`: `e_2` runs over the in-edges of
/// `e3.from` in `view_edges_to` order, and `e_1` over the non-counterflow edges in edge order.
fn first_witness_through<G: SummaryGraphView>(view: &G, e3: &SummaryEdge) -> Option<Type2Witness> {
    for e2 in view.view_edges_to(e3.from as usize) {
        if !pair_condition(view, e2, e3) {
            continue;
        }
        for e1 in view.view_edges().filter(|e| !e.kind.is_counterflow()) {
            if view.view_reachable(e1.to as usize, e2.from as usize)
                && view.view_reachable(e3.to as usize, e1.from as usize)
            {
                return Some(Type2Witness {
                    non_counterflow_edge: *e1,
                    middle_edge: *e2,
                    counterflow_edge: *e3,
                });
            }
        }
    }
    None
}

/// Algorithm 2: the first type-II cycle of `view`. The loops run over the counterflow edges
/// `e_3` in edge order, then the in-edges `e_2` of `e_3.from` in `view_edges_to` order, then
/// the non-counterflow edges `e_1` in edge order. `None` attests robustness.
pub fn find_type2_violation<G: SummaryGraphView>(view: &G) -> Option<Type2Witness> {
    view.view_edges()
        .filter(|e| e.kind.is_counterflow())
        .find_map(|e3| first_witness_through(view, e3))
}

/// Every type-II violation of `view`: the first cycle through each counterflow edge, in edge
/// order, keeping one per blamed statement pair `(P_4, q_4', P_5, q_5)`.
pub fn all_type2_violations<G: SummaryGraphView>(view: &G) -> Vec<Violation> {
    let mut blamed = Vec::new();
    let mut out = Vec::new();
    for e3 in view.view_edges().filter(|e| e.kind.is_counterflow()) {
        let key = (e3.from, e3.from_stmt, e3.to, e3.to_stmt);
        if blamed.contains(&key) {
            continue;
        }
        if let Some(w) = first_witness_through(view, e3) {
            blamed.push(key);
            out.push(Violation::TypeII(w));
        }
    }
    out
}
