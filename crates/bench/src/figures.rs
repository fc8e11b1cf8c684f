//! Figures 6, 7 and 8 — robust subsets per setting and the Auction(n) scalability sweep.

use mvrc_benchmarks::{auction, auction_n, smallbank, tpcc};
use mvrc_robustness::{explore_subsets, AnalysisSettings, CycleCondition, RobustnessSession};
use serde::Serialize;
use std::time::Instant;

/// One cell of Figure 6 / Figure 7: a benchmark, a setting, and the maximal robust subsets it
/// yields.
#[derive(Debug, Clone, Serialize)]
pub struct RobustSubsetRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Setting label (`tpl dep`, `attr dep`, `tpl dep + FK`, `attr dep + FK`).
    pub setting: String,
    /// The cycle condition used (`type-I` or `type-II`).
    pub condition: String,
    /// The maximal robust subsets rendered in the paper's notation.
    pub maximal_robust_subsets: String,
}

fn robust_subset_rows(condition: CycleCondition) -> Vec<RobustSubsetRow> {
    let mut rows = Vec::new();
    for workload in [smallbank(), tpcc(), auction()] {
        let session = RobustnessSession::new(workload.clone());
        for settings in AnalysisSettings::evaluation_grid(condition) {
            let exploration = explore_subsets(&session, settings);
            rows.push(RobustSubsetRow {
                benchmark: workload.name.clone(),
                setting: settings.label(),
                condition: condition.to_string(),
                maximal_robust_subsets: exploration.render_maximal(|n| workload.abbreviate(n)),
            });
        }
    }
    rows
}

/// Figure 6: maximal robust subsets detected by Algorithm 2 (absence of type-II cycles).
pub fn figure6() -> Vec<RobustSubsetRow> {
    robust_subset_rows(CycleCondition::TypeII)
}

/// Figure 7: maximal robust subsets detected via the absence of type-I cycles (the baseline of
/// Alomari & Fekete `[3]`).
pub fn figure7() -> Vec<RobustSubsetRow> {
    robust_subset_rows(CycleCondition::TypeI)
}

/// One point of Figure 8: Auction(n) for a given scaling factor.
#[derive(Debug, Clone, Serialize)]
pub struct Figure8Row {
    /// The scaling factor `n` (number of auction items; the workload has `2n` programs).
    pub n: usize,
    /// Number of nodes in the summary graph (`3n`).
    pub nodes: usize,
    /// Number of edges in the summary graph (`9n² + 8n`).
    pub edges: usize,
    /// Number of counterflow edges (`n`).
    pub counterflow_edges: usize,
    /// Whether the whole workload was attested robust (must be `true` for every `n`).
    pub robust: bool,
    /// Mean wall-clock time of the full robustness test (unfold + Algorithm 1 + Algorithm 2) in
    /// milliseconds, over `repetitions` runs.
    pub mean_ms: f64,
    /// Half-width of the 95% confidence interval of the mean, in milliseconds.
    pub ci95_ms: f64,
    /// Number of repetitions.
    pub repetitions: usize,
}

/// Figure 8: verification time and summary-graph size for Auction(n).
///
/// The paper repeats each measurement 10 times and reports mean and 95% confidence interval; we
/// do the same. Absolute numbers depend on the machine — the claims being reproduced are the
/// quadratic edge growth and that even hundreds of programs verify in seconds.
pub fn figure8(ns: &[usize], repetitions: usize) -> Vec<Figure8Row> {
    assert!(
        repetitions >= 2,
        "need at least two repetitions for a confidence interval"
    );
    ns.iter()
        .map(|&n| {
            let workload = auction_n(n);
            let mut durations_ms = Vec::with_capacity(repetitions);
            let mut nodes = 0;
            let mut edges = 0;
            let mut counterflow = 0;
            let mut robust = false;
            for _ in 0..repetitions {
                let start = Instant::now();
                // The measured quantity is the full pipeline on the BTP workload, as in the
                // paper: unfold, build the summary graph, run Algorithm 2. A fresh session per
                // repetition keeps the construction inside the measurement.
                let session = RobustnessSession::new(workload.clone());
                let graph = session.graph(AnalysisSettings::paper_default());
                robust = mvrc_robustness::find_type2_violation(&graph).is_none();
                durations_ms.push(start.elapsed().as_secs_f64() * 1e3);
                nodes = graph.node_count();
                edges = graph.edge_count();
                counterflow = graph.counterflow_edge_count();
            }
            let (mean, ci95) = mean_and_ci95(&durations_ms);
            Figure8Row {
                n,
                nodes,
                edges,
                counterflow_edges: counterflow,
                robust,
                mean_ms: mean,
                ci95_ms: ci95,
                repetitions,
            }
        })
        .collect()
}

/// Mean and 95% confidence-interval half-width (normal approximation, as is customary for the
/// 10-repetition measurements in the paper).
fn mean_and_ci95(samples: &[f64]) -> (f64, f64) {
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let variance = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    let std_err = (variance / n).sqrt();
    (mean, 1.96 * std_err)
}

/// Convenience used by the `repro` binary: render a group of subset rows for one benchmark.
pub fn render_subset_rows(rows: &[RobustSubsetRow]) -> String {
    let mut out = String::new();
    let mut current = "";
    for row in rows {
        if row.benchmark != current {
            out.push_str(&format!("{}\n", row.benchmark));
            current = &row.benchmark;
        }
        out.push_str(&format!(
            "  {:<14} {}\n",
            row.setting, row.maximal_robust_subsets
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure6_and_7_have_one_row_per_benchmark_and_setting() {
        let f6 = figure6();
        let f7 = figure7();
        assert_eq!(f6.len(), 12);
        assert_eq!(f7.len(), 12);
        let tpcc_attr_fk = f6
            .iter()
            .find(|r| r.benchmark == "TPC-C" && r.setting == "attr dep + FK")
            .unwrap();
        assert_eq!(
            tpcc_attr_fk.maximal_robust_subsets,
            "{Pay, OS, SL}, {NO, Pay}"
        );
        let rendered = render_subset_rows(&f6);
        assert!(rendered.contains("SmallBank"));
        assert!(rendered.contains("attr dep + FK"));
    }

    #[test]
    fn figure8_rows_follow_the_edge_formula() {
        let rows = figure8(&[1, 4], 3);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(row.robust);
            assert_eq!(row.nodes, 3 * row.n);
            assert_eq!(row.edges, 9 * row.n * row.n + 8 * row.n);
            assert_eq!(row.counterflow_edges, row.n);
            assert!(row.mean_ms >= 0.0);
            assert!(row.ci95_ms >= 0.0);
        }
    }

    #[test]
    fn confidence_interval_is_zero_for_constant_samples() {
        let (mean, ci) = mean_and_ci95(&[2.0, 2.0, 2.0, 2.0]);
        assert!((mean - 2.0).abs() < 1e-12);
        assert!(ci.abs() < 1e-12);
    }
}
