//! Independent check of a type-II witness, shared by the test targets that compare the
//! optimized Algorithm 2 with the literal one: a verdict match alone would let both return a
//! cycle that does not exist.

use mvrc_btp::StatementKind;
use mvrc_robustness::{SummaryGraphView, Type2Witness};

/// Asserts that `w` is a type-II cycle of `view` (Theorem 6.4): three edges of the view, the
/// first non-counterflow and the last counterflow, the middle edge entering the counterflow
/// edge's source, the cycle closed by reachability on both sides, and the pair condition on
/// the adjacent `(middle, counterflow)` pair. The pair condition is restated here rather than
/// taken from the crate under test.
pub fn assert_valid_type2_witness<G: SummaryGraphView>(view: &G, w: &Type2Witness, context: &str) {
    let (e1, e2, e3) = (&w.non_counterflow_edge, &w.middle_edge, &w.counterflow_edge);
    for e in [e1, e2, e3] {
        assert!(
            view.view_edges().any(|v| v == e),
            "{context}: witness edge {e:?} is not an edge of the view"
        );
    }
    assert!(!e1.kind.is_counterflow(), "{context}: e1 is counterflow");
    assert!(e3.kind.is_counterflow(), "{context}: e3 is not counterflow");
    assert_eq!(e2.to, e3.from, "{context}: e2 does not enter e3's source");
    assert!(
        view.view_reachable(e1.to, e2.from),
        "{context}: P3 is not reachable from P2"
    );
    assert!(
        view.view_reachable(e3.to, e1.from),
        "{context}: P1 is not reachable from P5"
    );
    let ordered_kind = matches!(
        view.node(e2.from).statement(e2.from_stmt).kind(),
        StatementKind::KeySelect
            | StatementKind::PredSelect
            | StatementKind::PredUpdate
            | StatementKind::PredDelete
    );
    assert!(
        e2.kind.is_counterflow()
            || view.node(e3.from).precedes(e3.from_stmt, e2.to_stmt)
            || ordered_kind,
        "{context}: the pair (e2, e3) fails the pair condition"
    );
}
