//! Graphviz (DOT) export of summary graphs, in the style of Figures 4, 11, 18 and 19 of the
//! paper: program nodes, solid non-counterflow edges, dashed counterflow edges, statement-pair
//! edge labels.

use crate::summary::{SummaryGraph, SummaryGraphView};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Options for DOT rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DotOptions {
    /// Whether to print `q_i → q_j` statement labels on edges (Figure 4 style). Larger graphs
    /// (Figure 11/18 style) are easier to read without labels.
    pub edge_labels: bool,
}

impl Default for DotOptions {
    fn default() -> Self {
        DotOptions { edge_labels: true }
    }
}

/// Renders a summary graph as a DOT digraph.
pub fn to_dot(graph: &SummaryGraph, options: DotOptions) -> String {
    to_dot_view(&graph.prefetched(), options)
}

/// Renders any summary-graph view (full graph or induced subgraph) as a DOT digraph.
pub fn to_dot_view<G: SummaryGraphView>(view: &G, options: DotOptions) -> String {
    let mut out = String::new();
    writeln!(out, "digraph summary_graph {{").unwrap();
    writeln!(out, "  rankdir=LR;").unwrap();
    writeln!(out, "  node [shape=box, fontname=\"Helvetica\"];").unwrap();
    for id in view.node_ids() {
        writeln!(out, "  n{id} [label=\"{}\"];", escape(view.node(id).name())).unwrap();
    }

    // Parallel edges of the same flavour between the same pair of nodes are drawn as one edge
    // whose label lists their statement pairs.
    let mut groups: BTreeMap<(u32, u32, bool), Vec<String>> = BTreeMap::new();
    for e in view.view_edges() {
        let label = format!(
            "{}→{}",
            view.node(e.from as usize)
                .statement(e.from_stmt as usize)
                .name(),
            view.node(e.to as usize)
                .statement(e.to_stmt as usize)
                .name()
        );
        groups
            .entry((e.from, e.to, e.kind.is_counterflow()))
            .or_default()
            .push(label);
    }
    for ((from, to, counterflow), labels) in groups {
        write_edge(
            &mut out,
            from,
            to,
            counterflow,
            &labels.join("\\n"),
            options.edge_labels,
        );
    }
    writeln!(out, "}}").unwrap();
    out
}

fn write_edge(
    out: &mut String,
    from: u32,
    to: u32,
    counterflow: bool,
    label: &str,
    with_label: bool,
) {
    let style = if counterflow { "dashed" } else { "solid" };
    if with_label {
        writeln!(
            out,
            "  n{from} -> n{to} [style={style}, label=\"{}\"];",
            escape(label)
        )
        .unwrap();
    } else {
        writeln!(out, "  n{from} -> n{to} [style={style}];").unwrap();
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::settings::AnalysisSettings;
    use mvrc_btp::{LinearProgram, ProgramBuilder};
    use mvrc_schema::SchemaBuilder;

    fn sample_graph() -> SummaryGraph {
        let mut b = SchemaBuilder::new("s");
        let buyer = b.relation("Buyer", &["id", "calls"], &["id"]).unwrap();
        let bids = b
            .relation("Bids", &["buyerId", "bid"], &["buyerId"])
            .unwrap();
        b.foreign_key("f1", bids, &["buyerId"], buyer, &["id"])
            .unwrap();
        let schema = b.build();
        let mut fb = ProgramBuilder::new(&schema, "FindBids");
        let q1 = fb
            .key_update("q1", "Buyer", &["calls"], &["calls"])
            .unwrap();
        let q2 = fb.pred_select("q2", "Bids", &["bid"], &["bid"]).unwrap();
        fb.seq(&[q1.into(), q2.into()]);
        let mut wr = ProgramBuilder::new(&schema, "Writer");
        let q3 = wr.key_update("q3", "Bids", &["bid"], &["bid"]).unwrap();
        let q4 = wr.key_update("q4", "Bids", &["bid"], &["bid"]).unwrap();
        wr.seq(&[q3.into(), q4.into()]);
        let ltps = vec![
            LinearProgram::from_linear_program(&fb.build()),
            LinearProgram::from_linear_program(&wr.build()),
        ];
        SummaryGraph::construct(&ltps, &schema, AnalysisSettings::paper_default())
    }

    #[test]
    fn dot_output_contains_nodes_and_dashed_counterflow_edges() {
        let graph = sample_graph();
        let dot = to_dot(&graph, DotOptions::default());
        assert!(dot.starts_with("digraph summary_graph {"));
        assert!(dot.contains("label=\"FindBids\""));
        assert!(dot.contains("label=\"Writer\""));
        assert!(dot.contains("style=dashed"));
        assert!(dot.contains("style=solid"));
        assert!(dot.contains("q2→q3"));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn labels_can_be_disabled() {
        let graph = sample_graph();
        let dot = to_dot(&graph, DotOptions { edge_labels: false });
        assert!(!dot.contains('→'));
        assert!(dot.contains("style=dashed"));
    }

    #[test]
    fn parallel_edges_are_merged_when_requested() {
        let graph = sample_graph();
        let dot = to_dot(&graph, DotOptions::default());
        let drawn: Vec<&str> = dot.lines().filter(|l| l.contains("->")).collect();
        let mut pairs: Vec<(u32, u32, bool)> = graph
            .edges()
            .iter()
            .map(|e| (e.from, e.to, e.kind.is_counterflow()))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(
            drawn.len(),
            pairs.len(),
            "one drawn edge per node pair and flavour"
        );
        assert!(
            drawn.len() < graph.edges().len(),
            "the sample has parallel edges"
        );
        let labels: usize = drawn.iter().map(|l| l.matches('→').count()).sum();
        assert_eq!(
            labels,
            graph.edges().len(),
            "every statement pair is labelled"
        );
    }
}
