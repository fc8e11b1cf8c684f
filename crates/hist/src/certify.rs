//! The certification driver: from analyzer verdict to executed evidence.
//!
//! For a **non-robust** subset the driver compiles the analyzer's witness into a concrete MVRC
//! execution (see [`crate::compile`]) and emits a [`Certificate`]: the blamed summary edges,
//! the executed interleaving, the commit order, and the checker's rejection. For a
//! **robust** subset it emits an [`Attestation`]: a battery of seeded random scripted
//! executions, every one of which the checker accepts — the empirical face of the soundness
//! theorem (the static verdict guarantees *every* MVRC execution is serializable; the
//! attestation spot-checks a diverse sample and must never find a counterexample).
//!
//! Both documents serialize to JSON with deterministic field order (struct declaration order,
//! `Vec`-based collections, fixed seeds), so double runs byte-diff equal and golden fixtures
//! can be committed.

use crate::checker::check;
use crate::compile::{random_run, realize_violation, KeyVariant, Realization};
use mvrc_btp::LinearProgram;
use mvrc_robustness::{
    all_violations_in, AnalysisSettings, RobustnessSession, SummaryGraph, Violation,
};
use serde::Serialize;
use std::fmt;

/// Number of seeded random interleavings executed for a robustness attestation.
pub const ATTEST_SEEDS: u64 = 16;

/// One blamed summary edge of the witness, rendered with program names.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct WitnessEdge {
    /// Role in the violation pattern: `counterflow`, `middle`, or `non-counterflow`.
    pub role: String,
    /// Source LTP name.
    pub from: String,
    /// Source statement position.
    pub from_stmt: usize,
    /// Target LTP name.
    pub to: String,
    /// Target statement position.
    pub to_stmt: usize,
}

/// A certificate of non-robustness: an executed MVRC history, produced from the analyzer's
/// witness, that the serializability checker rejects.
#[derive(Debug, Clone, Serialize)]
pub struct Certificate {
    /// Workload label (e.g. `smallbank`).
    pub workload: String,
    /// The certified program subset, in the order given.
    pub programs: Vec<String>,
    /// Analysis settings label (e.g. `attr dep + FK`).
    pub settings: String,
    /// Cycle condition the witness satisfies (`type-I` or `type-II`).
    pub condition: String,
    /// Always `false` — this document certifies *non*-robustness.
    pub robust: bool,
    /// The violation pattern the witness instantiates (`type-I` or `type-II`).
    pub witness_kind: String,
    /// The blamed summary edges.
    pub witness: Vec<WitnessEdge>,
    /// The concrete execution realizing the witness, with the checker's rejection.
    pub realization: Realization,
}

/// An attestation for a robust subset: every executed sample interleaving was accepted by the
/// checker.
#[derive(Debug, Clone, Serialize)]
pub struct Attestation {
    /// Workload label.
    pub workload: String,
    /// The attested program subset.
    pub programs: Vec<String>,
    /// Analysis settings label.
    pub settings: String,
    /// Cycle condition of the (green) analysis (`type-I` or `type-II`).
    pub condition: String,
    /// Always `true` — the analyzer attests robustness; the runs below corroborate it.
    pub robust: bool,
    /// LTP instances executed per run, in name order.
    pub instances: Vec<String>,
    /// Number of seeds tried.
    pub seeds: u64,
    /// Runs that committed fully (others aborted on write locks and count as no evidence).
    pub runs_executed: usize,
    /// Runs aborted by the engine before completion.
    pub runs_aborted: usize,
    /// `true` — every executed run was conflict serializable.
    pub all_serializable: bool,
}

/// The outcome of certifying one subset.
#[derive(Debug, Clone)]
pub enum CertifyOutcome {
    /// The subset is not robust; an executed rejected history proves it.
    Certified(Box<Certificate>),
    /// The subset is robust; sampled executions corroborate the verdict.
    Attested(Box<Attestation>),
}

impl CertifyOutcome {
    /// `true` when the outcome is a non-robustness certificate.
    pub fn is_certified(&self) -> bool {
        matches!(self, CertifyOutcome::Certified(_))
    }

    /// Pretty JSON with deterministic field order, suitable for golden fixtures.
    pub fn to_json_pretty(&self) -> String {
        match self {
            CertifyOutcome::Certified(c) => {
                serde_json::to_string_pretty(c.as_ref()).expect("certificates serialize")
            }
            CertifyOutcome::Attested(a) => {
                serde_json::to_string_pretty(a.as_ref()).expect("attestations serialize")
            }
        }
    }
}

/// Why certification failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertifyError {
    /// A requested program is not part of the workload.
    UnknownProgram(String),
    /// The analyzer reports non-robustness but no witness could be realized as a rejected
    /// execution within the compiler's search budget. This is a gap of the witness compiler,
    /// not a deviation of the engine: the engine forbids dirty writes as the paper's MVRC does,
    /// and its key layouts, split points and fallback seeds are a bounded search. The verdict
    /// stands; the evidence search came up empty.
    Unrealized {
        /// The witnesses the compiler tried, each as its blamed edges in cycle order.
        witnesses: Vec<Vec<WitnessEdge>>,
    },
    /// A subset the analyzer attested robust produced a non-serializable execution — an
    /// analyzer soundness bug, surfaced loudly.
    AttestationRejected {
        /// Seed of the offending run.
        seed: u64,
        /// The anomaly found.
        anomaly: String,
    },
}

impl fmt::Display for CertifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertifyError::UnknownProgram(name) => write!(f, "unknown program '{name}'"),
            CertifyError::Unrealized { witnesses } => write!(
                f,
                "non-robust verdict, but none of the {} witnesses could be realized as an \
                 executed rejected history",
                witnesses.len()
            ),
            CertifyError::AttestationRejected { seed, anomaly } => write!(
                f,
                "attestation run (seed {seed}) produced a non-serializable history — analyzer \
                 soundness violation: {anomaly}"
            ),
        }
    }
}

impl std::error::Error for CertifyError {}

/// Certifies one program subset: realizes a witness into a rejected execution when the
/// analyzer reports non-robustness, attests with sampled executions when it reports
/// robustness. Deterministic for fixed inputs.
pub fn certify_subset(
    session: &RobustnessSession,
    workload: &str,
    programs: &[&str],
    settings: AnalysisSettings,
) -> Result<CertifyOutcome, CertifyError> {
    let graph_arc = session.graph(settings);
    let graph: &SummaryGraph = &graph_arc;
    let view = graph
        .induced_for_programs(programs)
        .map_err(|e| CertifyError::UnknownProgram(e.name))?;
    let violations = all_violations_in(&view, settings.condition);
    let programs: Vec<String> = programs.iter().map(|p| p.to_string()).collect();

    if violations.is_empty() {
        let attestation = attest(session, graph, view.members(), workload, programs, settings)?;
        return Ok(CertifyOutcome::Attested(Box::new(attestation)));
    }

    for violation in &violations {
        if let Some(realization) =
            realize_violation(session.schema(), graph, view.members(), violation)
        {
            let certificate = Certificate {
                workload: workload.to_string(),
                programs,
                settings: settings.label(),
                condition: settings.condition.to_string(),
                robust: false,
                witness_kind: match violation {
                    Violation::TypeI(_) => "type-I".to_string(),
                    Violation::TypeII(_) => "type-II".to_string(),
                },
                witness: witness_edges(graph, violation),
                realization,
            };
            return Ok(CertifyOutcome::Certified(Box::new(certificate)));
        }
    }
    Err(CertifyError::Unrealized {
        witnesses: violations
            .iter()
            .map(|violation| witness_edges(graph, violation))
            .collect(),
    })
}

/// Runs the attestation battery for a robust subset.
fn attest(
    session: &RobustnessSession,
    graph: &SummaryGraph,
    members: &[usize],
    workload: &str,
    programs: Vec<String>,
    settings: AnalysisSettings,
) -> Result<Attestation, CertifyError> {
    // Two instances per LTP keeps self-conflicts reachable; larger subsets get one each so the
    // battery stays fast. The LTPs run in name order, so the attestation does not depend on
    // the order in which the workload declares its programs.
    let copies = if members.len() <= 4 { 2 } else { 1 };
    let mut ltps: Vec<&LinearProgram> = Vec::new();
    for &m in members {
        for _ in 0..copies {
            ltps.push(graph.node(m));
        }
    }
    ltps.sort_by(|a, b| a.name().cmp(b.name()));
    let mut runs_executed = 0usize;
    let mut runs_aborted = 0usize;
    for seed in 0..ATTEST_SEEDS {
        // Alternate instantiations: per-instance rows always commit (predicate-level conflicts
        // only), the shared row maximizes key conflicts but often aborts on write locks.
        let variant = if seed % 2 == 0 {
            KeyVariant::PerInstanceRows
        } else {
            KeyVariant::SeparateDeletes
        };
        let Some(history) = random_run(session.schema(), &ltps, variant, seed) else {
            runs_aborted += 1;
            continue;
        };
        let verdict = check(&history);
        if !verdict.serializable {
            return Err(CertifyError::AttestationRejected {
                seed,
                anomaly: verdict.describe_cycle(),
            });
        }
        runs_executed += 1;
    }
    Ok(Attestation {
        workload: workload.to_string(),
        programs,
        settings: settings.label(),
        condition: settings.condition.to_string(),
        robust: true,
        instances: ltps.iter().map(|l| l.name().to_string()).collect(),
        seeds: ATTEST_SEEDS,
        runs_executed,
        runs_aborted,
        all_serializable: true,
    })
}

/// Renders the blamed edges of a violation with program names, in cycle order.
fn witness_edges(graph: &SummaryGraph, violation: &Violation) -> Vec<WitnessEdge> {
    let edge = |role: &str, e: mvrc_robustness::SummaryEdge| WitnessEdge {
        role: role.to_string(),
        from: graph.node(e.from as usize).name().to_string(),
        from_stmt: e.from_stmt as usize,
        to: graph.node(e.to as usize).name().to_string(),
        to_stmt: e.to_stmt as usize,
    };
    match violation {
        Violation::TypeI(w) => vec![edge("counterflow", w.counterflow_edge)],
        Violation::TypeII(w) => vec![
            edge("non-counterflow", w.non_counterflow_edge),
            edge("middle", w.middle_edge),
            edge("counterflow", w.counterflow_edge),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn settings() -> AnalysisSettings {
        AnalysisSettings::paper_default()
    }

    #[test]
    fn smallbank_full_set_is_certified_non_robust() {
        let session = RobustnessSession::new(mvrc_benchmarks::smallbank());
        let programs: Vec<&str> = session.program_names().iter().map(|s| s.as_str()).collect();
        let outcome = certify_subset(&session, "smallbank", &programs, settings()).unwrap();
        assert!(outcome.is_certified());
        let CertifyOutcome::Certified(c) = outcome else {
            unreachable!()
        };
        assert!(!c.robust);
        assert!(!c.realization.verdict.serializable);
        assert!(c.realization.find_anomaly_agrees);
        assert!(!c.witness.is_empty());
    }

    #[test]
    fn auction_is_attested_robust_under_type2() {
        let session = RobustnessSession::new(mvrc_benchmarks::auction());
        let programs: Vec<&str> = session.program_names().iter().map(|s| s.as_str()).collect();
        let outcome = certify_subset(&session, "auction", &programs, settings()).unwrap();
        let CertifyOutcome::Attested(a) = outcome else {
            panic!("auction is type-II robust and must attest");
        };
        assert!(a.robust && a.all_serializable);
        assert!(a.runs_executed > 0, "at least one sample run must commit");
    }

    #[test]
    fn certify_non_robust_refuses_robust_subsets() {
        // A robust subset of a non-robust workload gets an attestation, never a certificate.
        let session = RobustnessSession::new(mvrc_benchmarks::smallbank());
        let subset = ["Amalgamate", "DepositChecking", "TransactSavings"];
        let outcome = certify_subset(&session, "smallbank", &subset, settings()).unwrap();
        let CertifyOutcome::Attested(a) = outcome else {
            panic!("the subset is robust and must attest");
        };
        assert!(a.robust && a.all_serializable);
    }

    #[test]
    fn unknown_programs_are_reported() {
        let session = RobustnessSession::new(mvrc_benchmarks::smallbank());
        let err = certify_subset(&session, "smallbank", &["Nope"], settings()).unwrap_err();
        assert_eq!(err, CertifyError::UnknownProgram("Nope".to_string()));
    }

    /// Every order of `items`, by Heap's algorithm.
    fn permutations<T: Clone>(items: &mut [T], k: usize, out: &mut Vec<Vec<T>>) {
        if k <= 1 {
            out.push(items.to_vec());
            return;
        }
        for i in 0..k {
            permutations(items, k - 1, out);
            let j = if k % 2 == 0 { i } else { 0 };
            items.swap(j, k - 1);
        }
    }

    #[test]
    fn attestations_do_not_depend_on_the_program_order() {
        let smallbank = mvrc_benchmarks::smallbank();
        let mut orders = Vec::new();
        let mut programs = smallbank.programs.clone();
        let n = programs.len();
        permutations(&mut programs, n, &mut orders);
        assert_eq!(orders.len(), 120);
        let subset = ["Amalgamate", "DepositChecking", "TransactSavings"];
        let mut distinct = std::collections::BTreeSet::new();
        for order in orders {
            let mut workload = smallbank.clone();
            workload.programs = order;
            let session = RobustnessSession::new(workload);
            let outcome = certify_subset(&session, "smallbank", &subset, settings()).unwrap();
            assert!(!outcome.is_certified(), "the subset is robust");
            distinct.insert(outcome.to_json_pretty());
        }
        assert_eq!(distinct.len(), 1, "{distinct:#?}");
    }

    #[test]
    fn certificates_serialize_deterministically() {
        let session = RobustnessSession::new(mvrc_benchmarks::smallbank());
        let programs: Vec<&str> = session.program_names().iter().map(|s| s.as_str()).collect();
        let a = certify_subset(&session, "smallbank", &programs, settings())
            .unwrap()
            .to_json_pretty();
        let b = certify_subset(&session, "smallbank", &programs, settings())
            .unwrap()
            .to_json_pretty();
        assert_eq!(a, b);
    }
}
