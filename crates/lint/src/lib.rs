//! `mvrc-lint` — source-level robustness diagnostics and minimal promotion repair.
//!
//! The core analysis (`mvrc-robustness`) answers *whether* a workload is robust against MVRC;
//! this crate turns a negative answer into actionable, compiler-style diagnostics:
//!
//! * [`lint_workload`] enumerates every dangerous cycle the detector can witness
//!   (deduplicated by blamed counterflow edge) and maps each back to the SQL source spans the
//!   `mvrc-btp` front-end recorded, producing a [`LintReport`].
//! * [`minimal_promotion_repair`] searches for a 1-minimal set of read statements that, when
//!   promoted to updates (`SELECT ... FOR UPDATE`), makes the workload robust — rendered as a
//!   `help:` suggestion.
//! * [`render_text`] formats a report in rustc style (`error[MVRC001]: ...` with `-->`
//!   source locations, caret underlines, `= note:` context and `help:` repair); the report
//!   itself serializes to stable JSON for CI gating.
//!
//! Diagnostic codes: `MVRC001` is a type-I dangerous cycle (the Alomari & Fekete baseline
//! condition), `MVRC002` a type-II dangerous cycle (the paper's Algorithm 2 / Theorem 6.4
//! condition). Both are *sound* alarms: each names a cycle through a counterflow edge that the
//! chosen condition classifies as admitting a non-serializable MVRC execution.

mod render;
mod repair;

pub use render::render_text;
pub use repair::{
    apply_promotions, minimal_promotion_repair, promote_program, promotion_candidates,
    PromotionSite, RepairSuggestion, MAX_REPAIR_PROBES,
};

use mvrc_btp::{SourceSpan, StmtPos, Workload};
use mvrc_robustness::{
    all_violations, AnalysisSettings, NodeId, RobustnessSession, SummaryEdge, SummaryGraph,
    Violation,
};
use serde::Serialize;

/// A statement of the summary graph, resolved back to its source program.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct StatementRef {
    /// The transaction program (BTP) the statement belongs to.
    pub program: String,
    /// The unfolded LTP node the edge was found on (e.g. `PlaceBid[2]`).
    pub ltp: String,
    /// The statement's name within the program (e.g. `q2`).
    pub statement: String,
    /// The statement kind (`key sel`, `pred upd`, ...).
    pub kind: String,
    /// The relation the statement touches.
    pub relation: String,
    /// Source position when the program was parsed from SQL.
    pub span: Option<SourceSpan>,
}

/// A summary-graph edge participating in a dangerous cycle.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct EdgeLabel {
    /// The edge's role in the witness: `counterflow`, `middle` or `closing`.
    pub role: String,
    /// Source statement of the dependency.
    pub from: StatementRef,
    /// Target statement of the dependency.
    pub to: StatementRef,
    /// Human-readable rendering (`P1 --[q0 -> q1, counterflow]--> P2`).
    pub rendered: String,
}

/// One dangerous-cycle diagnostic.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Diagnostic {
    /// Stable code: `MVRC001` (type-I) or `MVRC002` (type-II).
    pub code: String,
    /// One-line summary naming the blamed statements.
    pub message: String,
    /// The counterflow edge the cycle is blamed on; its `from` span is the primary location.
    pub primary: EdgeLabel,
    /// The remaining witness edges (type-II: the middle and closing edges).
    pub secondary: Vec<EdgeLabel>,
    /// Context notes (cycle condition, analysis settings).
    pub notes: Vec<String>,
}

/// The analysis settings a report was produced under, in display form.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SettingsInfo {
    /// Dependency granularity (`attr dep` or `tpl dep`).
    pub granularity: String,
    /// Whether foreign-key constraints pruned dependency edges.
    pub foreign_keys: bool,
    /// The dangerous-cycle condition (`type-I` or `type-II`).
    pub condition: String,
    /// Combined label (e.g. `attr dep + FK, type-II`).
    pub label: String,
}

impl SettingsInfo {
    fn new(settings: AnalysisSettings) -> Self {
        SettingsInfo {
            granularity: settings.granularity.to_string(),
            foreign_keys: settings.use_foreign_keys,
            condition: settings.condition.to_string(),
            label: settings.label(),
        }
    }
}

/// The result of linting one workload: diagnostics plus an optional verified repair.
///
/// Serializes deterministically (field order is fixed, all collections are vectors), so the
/// JSON form can be diffed or gated on in CI.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct LintReport {
    /// The workload's name.
    pub workload: String,
    /// The source file the workload was parsed from, when known.
    pub source: Option<String>,
    /// The analysis settings used.
    pub settings: SettingsInfo,
    /// `true` when no dangerous cycle was found (the workload is attested robust).
    pub robust: bool,
    /// All witnessed dangerous cycles, deduplicated by blamed counterflow edge.
    pub diagnostics: Vec<Diagnostic>,
    /// A verified 1-minimal promotion set repairing the workload, when one exists.
    pub repair: Option<RepairSuggestion>,
}

/// Options for [`lint_workload`].
#[derive(Debug, Clone)]
pub struct LintOptions {
    /// Analysis settings (granularity, foreign keys, cycle condition).
    pub settings: AnalysisSettings,
    /// Name of the source file, used for `file:line:column` locations in diagnostics.
    pub source_name: Option<String>,
    /// Whether to run the promotion-repair search on non-robust workloads.
    pub suggest_repairs: bool,
}

impl Default for LintOptions {
    fn default() -> Self {
        LintOptions {
            settings: AnalysisSettings::paper_default(),
            source_name: None,
            suggest_repairs: true,
        }
    }
}

/// Lints a workload: enumerates dangerous cycles, resolves them to source spans and (for
/// non-robust workloads) searches for a minimal promotion repair.
pub fn lint_workload(workload: &Workload, options: &LintOptions) -> LintReport {
    let session = RobustnessSession::new(workload.clone());
    let graph = session.graph(options.settings);
    let violations = all_violations(&graph, options.settings.condition);
    let robust = violations.is_empty();
    let diagnostics = violations
        .iter()
        .map(|v| diagnostic(workload, &graph, options.settings, v))
        .collect();
    let repair = if robust || !options.suggest_repairs {
        None
    } else {
        minimal_promotion_repair(workload, options.settings)
    };
    LintReport {
        workload: workload.name.clone(),
        source: options.source_name.clone(),
        settings: SettingsInfo::new(options.settings),
        robust,
        diagnostics,
        repair,
    }
}

fn statement_ref(
    workload: &Workload,
    graph: &SummaryGraph,
    node: NodeId,
    pos: StmtPos,
) -> StatementRef {
    let ltp = graph.node(node);
    let stmt = ltp.statement(pos);
    let span = workload
        .program(ltp.program_name())
        .and_then(|p| p.span(ltp.origin(pos)));
    StatementRef {
        program: ltp.program_name().to_string(),
        ltp: ltp.name().to_string(),
        statement: stmt.name().to_string(),
        kind: stmt.kind().label().to_string(),
        relation: workload.schema.relation(stmt.rel()).name().to_string(),
        span,
    }
}

fn edge_label(
    workload: &Workload,
    graph: &SummaryGraph,
    role: &str,
    edge: &SummaryEdge,
) -> EdgeLabel {
    EdgeLabel {
        role: role.to_string(),
        from: statement_ref(workload, graph, edge.from as usize, edge.from_stmt as usize),
        to: statement_ref(workload, graph, edge.to as usize, edge.to_stmt as usize),
        rendered: graph.describe_edge(edge),
    }
}

fn diagnostic(
    workload: &Workload,
    graph: &SummaryGraph,
    settings: AnalysisSettings,
    violation: &Violation,
) -> Diagnostic {
    let settings_note = format!("analysis settings: {}", settings.label());
    match violation {
        Violation::TypeI(w) => {
            let primary = edge_label(workload, graph, "counterflow", &w.counterflow_edge);
            let message = format!(
                "counterflow dependency `{}.{}` -> `{}.{}` lies on a cycle: not robust against MVRC (type-I)",
                primary.from.program, primary.from.statement, primary.to.program, primary.to.statement,
            );
            Diagnostic {
                code: "MVRC001".to_string(),
                message,
                primary,
                secondary: Vec::new(),
                notes: vec![
                    "under the baseline condition, any cycle through a counterflow edge admits a non-serializable MVRC execution".to_string(),
                    settings_note,
                ],
            }
        }
        Violation::TypeII(w) => {
            let primary = edge_label(workload, graph, "counterflow", &w.counterflow_edge);
            let message = format!(
                "counterflow dependency `{}.{}` -> `{}.{}` lies on a dangerous cycle: not robust against MVRC (type-II)",
                primary.from.program, primary.from.statement, primary.to.program, primary.to.statement,
            );
            Diagnostic {
                code: "MVRC002".to_string(),
                message,
                primary,
                secondary: vec![
                    edge_label(workload, graph, "middle", &w.middle_edge),
                    edge_label(workload, graph, "closing", &w.non_counterflow_edge),
                ],
                notes: vec![
                    "the middle and counterflow edges satisfy the Algorithm 2 pair condition (Theorem 6.4), so the cycle admits a multi-split MVRC schedule".to_string(),
                    settings_note,
                ],
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvrc_benchmarks::{auction, smallbank};

    #[test]
    fn auction_is_clean_under_the_paper_default_settings() {
        let report = lint_workload(&auction(), &LintOptions::default());
        assert!(report.robust);
        assert!(report.diagnostics.is_empty());
        assert!(report.repair.is_none());
    }

    #[test]
    fn smallbank_reports_diagnostics_with_a_verified_repair() {
        let report = lint_workload(&smallbank(), &LintOptions::default());
        assert!(!report.robust);
        assert!(!report.diagnostics.is_empty());
        for d in &report.diagnostics {
            assert_eq!(d.code, "MVRC002");
            assert!(d.primary.rendered.contains("counterflow"));
        }
        let repair = report.repair.expect("smallbank is repairable by promotion");
        assert!(repair.verified);
        assert!(!repair.promotions.is_empty());
    }

    #[test]
    fn json_output_is_deterministic() {
        let a =
            serde_json::to_string(&lint_workload(&smallbank(), &LintOptions::default())).unwrap();
        let b =
            serde_json::to_string(&lint_workload(&smallbank(), &LintOptions::default())).unwrap();
        assert_eq!(a, b);
    }
}
