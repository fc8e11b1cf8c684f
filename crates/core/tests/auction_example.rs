//! The running example of Section 2 (Figures 1–4), end to end: SQL text → BTPs → `Unfold≤2` →
//! summary graph → robustness verdict, including the structure of the Figure 4 summary graph.

use mvrc_benchmarks::{auction, auction_n};
use mvrc_robustness::{
    find_type1_violation, find_type2_violation, to_dot, AnalysisSettings, DotOptions, EdgeKind,
    RobustnessSession, SummaryGraph,
};
use std::sync::Arc;

fn figure4_graph() -> Arc<SummaryGraph> {
    RobustnessSession::new(auction()).graph(AnalysisSettings::paper_default())
}

#[test]
fn sql_pipeline_reaches_the_same_verdict_as_the_programmatic_model() {
    // `auction()` is translated from the SQL of Figure 1; the Auction(n) generator builds the
    // same programs in code, so Auction(1) must give the same verdict and graph shape.
    let sql_session = RobustnessSession::new(auction());
    let built_session = RobustnessSession::new(auction_n(1));
    let settings = AnalysisSettings::paper_default();
    assert!(sql_session.is_robust(settings));
    assert!(built_session.is_robust(settings));
    let g_sql = sql_session.graph(settings);
    let g_built = built_session.graph(settings);
    assert_eq!(g_sql.edge_count(), g_built.edge_count());
    assert_eq!(
        g_sql.counterflow_edge_count(),
        g_built.counterflow_edge_count()
    );
}

#[test]
fn figure4_nodes_are_findbids_and_the_two_placebid_unfoldings() {
    let graph = figure4_graph();
    let mut names: Vec<&str> = graph.nodes().map(|(_, l)| l.name()).collect();
    names.sort_unstable();
    assert_eq!(names, vec!["FindBids", "PlaceBid[1]", "PlaceBid[2]"]);
}

#[test]
fn figure4_has_exactly_one_counterflow_edge_from_findbids_to_placebid1() {
    let graph = figure4_graph();
    let counterflow: Vec<_> = graph
        .edges()
        .iter()
        .filter(|e| e.kind == EdgeKind::Counterflow)
        .collect();
    assert_eq!(counterflow.len(), 1);
    let edge = counterflow[0];
    let from = graph.node(edge.from as usize);
    let to = graph.node(edge.to as usize);
    assert_eq!(from.name(), "FindBids");
    // The counterflow edge targets the PlaceBid unfolding that contains q5 (the conditional
    // update), labelled q2 → q5 in Figure 4.
    assert_eq!(from.statement(edge.from_stmt as usize).name(), "q2");
    assert_eq!(to.statement(edge.to_stmt as usize).name(), "q5");
    assert_eq!(to.program_name(), "PlaceBid");
    assert_eq!(to.len(), 4);
}

#[test]
fn figure4_buyer_updates_connect_every_pair_of_programs() {
    // Every program updates Buyer.calls, so there is a non-counterflow edge labelled q1/q3 → q1/q3
    // between every ordered pair of nodes (including self-loops): 9 of the 17 edges.
    let graph = figure4_graph();
    let buyer_edges = graph
        .edges()
        .iter()
        .filter(|e| {
            let from_stmt = graph.node(e.from as usize).statement(e.from_stmt as usize);
            matches!(from_stmt.name(), "q1" | "q3")
        })
        .count();
    assert_eq!(buyer_edges, 9);
    for (i, _) in graph.nodes() {
        for (j, _) in graph.nodes() {
            assert!(
                graph.edges_between(i, j).next().is_some(),
                "expected an edge between every pair of nodes"
            );
        }
    }
}

#[test]
fn figure4_contains_a_type1_but_no_type2_cycle() {
    let graph = figure4_graph();
    let type1 = find_type1_violation(&graph).expect("Figure 4 contains a type-I cycle");
    assert_eq!(
        graph.node(type1.counterflow_edge.from as usize).name(),
        "FindBids"
    );
    assert!(
        find_type2_violation(&graph).is_none(),
        "Figure 4 contains no type-II cycle"
    );
}

#[test]
fn figure4_dot_export_is_well_formed() {
    let graph = figure4_graph();
    let dot = to_dot(&graph, DotOptions::default());
    assert!(dot.contains("digraph"));
    assert!(dot.contains("FindBids"));
    assert!(dot.contains("PlaceBid[1]"));
    assert_eq!(
        dot.matches("style=dashed").count(),
        1,
        "exactly one dashed (counterflow) edge"
    );
}

#[test]
fn example_schedule_dependencies_are_witnessed_by_summary_edges() {
    // The schedule of Figure 3 exhibits a wr-dependency from PlaceBid (q3) to PlaceBid (q3) and
    // a counterflow rw-antidependency from FindBids (q2) to PlaceBid1 (q5). Both must be
    // witnessed by summary-graph edges with exactly those statement labels (Condition 6.2).
    let graph = figure4_graph();
    let fb = graph.node_by_name("FindBids").unwrap();
    let pb1 = graph.node_by_name("PlaceBid[1]").unwrap();

    assert!(graph.edges_between(pb1, pb1).any(|e| {
        e.kind == EdgeKind::NonCounterflow
            && graph.node(pb1).statement(e.from_stmt as usize).name() == "q3"
            && graph.node(pb1).statement(e.to_stmt as usize).name() == "q3"
    }));
    assert!(graph.edges_between(fb, pb1).any(|e| {
        e.kind == EdgeKind::Counterflow
            && graph.node(fb).statement(e.from_stmt as usize).name() == "q2"
            && graph.node(pb1).statement(e.to_stmt as usize).name() == "q5"
    }));
}
