//! [`AnalysisReport`]: the serializable result of one robustness analysis run.
//!
//! Reports are produced by [`RobustnessSession::analyze`](crate::RobustnessSession::analyze)
//! and [`analyze_programs`](crate::RobustnessSession::analyze_programs) from views of the
//! session's cached summary graphs. (The stateless `RobustnessAnalyzer` that used to live here
//! was deprecated in 0.2.0 and has been removed; construct a [`RobustnessSession`] from a
//! [`mvrc_btp::Workload`] instead.)

use crate::algorithm::{RobustnessOutcome, Violation};
use crate::settings::AnalysisSettings;
use crate::summary::{describe_edge_in, SummaryGraph, SummaryGraphView};
use serde::Serialize;
use std::fmt;

/// Result of one robustness analysis run.
#[derive(Debug, Clone, Serialize)]
pub struct AnalysisReport {
    /// The settings used.
    pub settings: AnalysisSettings,
    /// Number of LTP nodes in the summary graph.
    pub node_count: usize,
    /// Number of edges (quintuples) in the summary graph.
    pub edge_count: usize,
    /// Number of counterflow edges.
    pub counterflow_edge_count: usize,
    /// Outcome of the cycle test.
    pub outcome: RobustnessOutcome,
    /// Human-readable description of the violation, when one was found.
    pub violation_description: Option<String>,
}

impl AnalysisReport {
    /// Builds a report from an already-constructed summary graph, through its
    /// [`SummaryGraph::prefetched`] view.
    pub fn from_graph(graph: &SummaryGraph, settings: AnalysisSettings) -> Self {
        Self::from_view(&graph.prefetched(), settings)
    }

    /// Builds a report from any summary-graph view (full graph or induced subgraph).
    pub fn from_view<G: SummaryGraphView>(view: &G, settings: AnalysisSettings) -> Self {
        let outcome = RobustnessOutcome::evaluate_view(view, settings.condition);
        let violation_description = outcome.violation.as_ref().map(|v| match v {
            Violation::TypeI(w) => {
                format!(
                    "type-I cycle through {}",
                    describe_edge_in(view, &w.counterflow_edge)
                )
            }
            Violation::TypeII(w) => format!(
                "type-II cycle: {} ; {} ; {}",
                describe_edge_in(view, &w.non_counterflow_edge),
                describe_edge_in(view, &w.middle_edge),
                describe_edge_in(view, &w.counterflow_edge)
            ),
        });
        AnalysisReport {
            settings,
            node_count: view.view_node_count(),
            edge_count: view.view_edge_count(),
            counterflow_edge_count: view.view_counterflow_edge_count(),
            outcome,
            violation_description,
        }
    }

    /// `true` when the workload was attested robust against MVRC.
    pub fn is_robust(&self) -> bool {
        self.outcome.robust
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "setting:            {}", self.settings)?;
        writeln!(
            f,
            "summary graph:      {} nodes, {} edges ({} counterflow)",
            self.node_count, self.edge_count, self.counterflow_edge_count
        )?;
        write!(f, "verdict:            {}", self.outcome)?;
        if let Some(v) = &self.violation_description {
            write!(f, "\nwitness:            {v}")?;
        }
        Ok(())
    }
}

// Session-level report behaviour is tested here (rather than in `session.rs`) because the
// assertions are about report contents.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::RobustnessSession;
    use crate::settings::{CycleCondition, Granularity};
    use mvrc_btp::{Program, ProgramBuilder, Workload};
    use mvrc_schema::{Schema, SchemaBuilder};

    fn auction() -> (Schema, Vec<Program>) {
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
        (schema, programs)
    }

    #[test]
    fn full_auction_analysis_matches_the_paper() {
        let (schema, programs) = auction();
        let session = RobustnessSession::from_programs(&schema, &programs);
        assert_eq!(session.ltps().len(), 3);
        assert_eq!(
            session.program_names(),
            &["FindBids".to_string(), "PlaceBid".to_string()]
        );

        let report = session.analyze(AnalysisSettings::paper_default());
        assert!(report.is_robust());
        assert_eq!(report.node_count, 3);
        assert_eq!(report.edge_count, 17);
        assert_eq!(report.counterflow_edge_count, 1);
        assert!(report.violation_description.is_none());
        assert!(report.to_string().contains("robust against MVRC"));

        // The baseline condition cannot attest the full benchmark (type-I cycle exists).
        let baseline = session.analyze(AnalysisSettings::baseline(Granularity::Attribute, true));
        assert!(!baseline.is_robust());
        assert!(baseline.violation_description.unwrap().contains("type-I"));
    }

    #[test]
    fn program_subset_analysis() {
        let (schema, programs) = auction();
        let session = RobustnessSession::from_programs(&schema, &programs);
        let report = session
            .analyze_programs(
                &["FindBids"],
                AnalysisSettings::baseline(Granularity::Attribute, true),
            )
            .unwrap();
        assert!(report.is_robust());
        assert_eq!(report.node_count, 1);

        let report = session
            .analyze_programs(&["PlaceBid"], AnalysisSettings::paper_default())
            .unwrap();
        assert_eq!(report.node_count, 2);
    }

    #[test]
    fn unfold_bound_does_not_change_the_verdict() {
        // Proposition 6.1 sanity check: using a larger unfolding bound must not change the
        // analysis result.
        let (schema, programs) = auction();
        let default = RobustnessSession::from_programs(&schema, &programs);
        let deeper = RobustnessSession::new(
            Workload::new(schema.name(), schema.clone(), programs, &[]).with_unfold_options(
                mvrc_btp::UnfoldOptions {
                    max_loop_iterations: 4,
                    deduplicate: true,
                },
            ),
        );
        for settings in AnalysisSettings::evaluation_grid(CycleCondition::TypeII) {
            assert_eq!(default.is_robust(settings), deeper.is_robust(settings));
        }
    }

    #[test]
    fn violation_report_for_non_robust_workload() {
        let (schema, _) = auction();
        let mut pb = ProgramBuilder::new(&schema, "ReadThenWrite");
        let qr = pb.key_select("qr", "Bids", &["bid"]).unwrap();
        let qw = pb.key_update("qw", "Bids", &["bid"], &["bid"]).unwrap();
        pb.seq(&[qr.into(), qw.into()]);
        let session = RobustnessSession::from_programs(&schema, &[pb.build()]);
        let report = session.analyze(AnalysisSettings::paper_default());
        assert!(!report.is_robust());
        let description = report.violation_description.unwrap();
        assert!(description.contains("type-II"));
        assert!(description.contains("ReadThenWrite"));
    }
}
