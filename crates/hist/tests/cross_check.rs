//! Differential property tests for `mvrc-hist`.
//!
//! Three agreements are exercised on random small workloads, each pitting two independent
//! code paths against one another:
//!
//! * **verdict vs evidence** — whenever the summary-graph analysis declares a workload
//!   non-robust, the witness compiler must back the verdict with an executed MVRC history
//!   that the independent serializability checker rejects;
//! * **robustness vs executions** — whenever the analysis declares a workload robust, no
//!   committed scripted execution may be rejected by the checker (the analyzer is sound, or
//!   one of the engine/checker pair is broken — either way a failure here is a real bug);
//! * **checker vs engine** — on arbitrary committed histories, the checker's serializability
//!   verdict must agree with the engine's own `History::find_anomaly`, even though the two
//!   derive conflicts with different factorizations and decide CSR with different algorithms;
//!   and every such history must pass the checker's read-committed level check (Lemma 4.1).

use mvrc_benchmarks::{synthetic, SyntheticConfig};
use mvrc_hist::{check, random_run, CertifyError, CertifyExt, KeyVariant};
use mvrc_robustness::{AnalysisSettings, RobustnessSession};
use proptest::prelude::*;

fn synthetic_config_strategy() -> impl Strategy<Value = SyntheticConfig> {
    (
        1usize..=2,   // relations
        2usize..=4,   // attributes per relation
        1usize..=3,   // programs
        1usize..=3,   // statements per program
        0.0f64..=1.0, // predicate probability
        0.0f64..=1.0, // write probability
        0.0f64..=0.5, // loop probability
        0.0f64..=0.5, // optional probability
        any::<u64>(), // seed
    )
        .prop_map(
            |(relations, attrs, programs, statements, pred_p, write_p, loop_p, opt_p, seed)| {
                SyntheticConfig {
                    relations,
                    attributes_per_relation: attrs,
                    programs,
                    statements_per_program: statements,
                    predicate_probability: pred_p,
                    write_probability: write_p,
                    loop_probability: loop_p,
                    optional_probability: opt_p,
                    seed,
                }
            },
        )
}

/// Seeds driven per workload by the execution-sampling properties.
const SAMPLE_SEEDS: u64 = 8;

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn non_robust_verdicts_are_backed_by_rejected_histories(
        config in synthetic_config_strategy()
    ) {
        let workload = synthetic(config);
        let settings = AnalysisSettings::paper_default();
        let session = RobustnessSession::new(workload.clone());
        if session.is_robust(settings) {
            return Ok(());
        }
        let programs: Vec<&str> = workload.programs.iter().map(|p| p.name()).collect();
        match session.certify_non_robust(&workload.name, &programs, settings) {
            Ok(certificate) => {
                prop_assert!(!certificate.robust);
                prop_assert!(!certificate.realization.verdict.serializable);
                prop_assert!(!certificate.realization.verdict.cycle.is_empty());
                prop_assert!(certificate.realization.find_anomaly_agrees);
            }
            // The summary graph proves non-robustness for the paper's RC formalization, where
            // concurrent transactions may hold uncommitted writes to the same row (ww ordered
            // by commit). The engine — like any lock-based RC — aborts the second writer
            // instead, so a sliver of statically-valid witnesses (e.g. two-instance predicate
            // write skew whose cycle needs a concurrent shared-row update) cannot execute at
            // all. Those surface as `Unrealized`: the verdict stands, the evidence search came
            // up empty. The four bundled benchmarks never hit this (pinned by the golden
            // fixtures and `every_non_robust_benchmark_subset_is_certified` in
            // tests/end_to_end.rs), so only tolerate it here.
            Err(CertifyError::Unrealized { .. }) => {}
            Err(e) => panic!("unexpected certify error ({config:?}): {e}"),
        }
    }

    #[test]
    fn robust_workloads_never_yield_rejected_executions(
        config in synthetic_config_strategy()
    ) {
        let workload = synthetic(config);
        let settings = AnalysisSettings::paper_default();
        let session = RobustnessSession::new(workload.clone());
        if !session.is_robust(settings) {
            return Ok(());
        }
        let ltps: Vec<_> = session.ltps().to_vec();
        let refs: Vec<&mvrc_btp::LinearProgram> = ltps.iter().map(|l| &**l).collect();
        if refs.is_empty() {
            return Ok(());
        }
        for seed in 0..SAMPLE_SEEDS {
            for variant in [KeyVariant::PerInstanceRows, KeyVariant::SeparateDeletes] {
                let Some(history) = random_run(session.schema(), &refs, variant, seed) else {
                    continue; // aborted interleaving: nothing committed, nothing to judge
                };
                let verdict = check(&history);
                prop_assert!(
                    verdict.serializable,
                    "robust workload produced a non-serializable committed history \
                     (seed {seed}, {variant:?}): {}",
                    verdict.describe_cycle()
                );
            }
        }
    }

    #[test]
    fn checker_and_find_anomaly_agree_on_random_histories(
        config in synthetic_config_strategy()
    ) {
        let workload = synthetic(config);
        let session = RobustnessSession::new(workload);
        let ltps: Vec<_> = session.ltps().to_vec();
        let refs: Vec<&mvrc_btp::LinearProgram> = ltps.iter().map(|l| &**l).collect();
        if refs.is_empty() {
            return Ok(());
        }
        for seed in 0..SAMPLE_SEEDS {
            for variant in [KeyVariant::SeparateDeletes, KeyVariant::SharedDeletes] {
                let Some(history) = random_run(session.schema(), &refs, variant, seed) else {
                    continue;
                };
                let verdict = check(&history);
                prop_assert!(
                    verdict.read_committed_ok,
                    "a committed MVRC history has a counterflow dependency that is not an \
                     antidependency (seed {seed}, {variant:?})"
                );
                let anomaly = history.find_anomaly();
                prop_assert_eq!(
                    verdict.serializable,
                    anomaly.is_none(),
                    "checker and History::find_anomaly disagree (seed {}, {:?})",
                    seed,
                    variant
                );
            }
        }
    }
}

/// `SubsetRobust` is the one `certify_non_robust` error that must be *impossible* to hit from
/// a non-robust verdict; pin its rendering here so the proptest failure messages stay useful.
#[test]
fn subset_robust_error_renders_the_refusal() {
    let msg = CertifyError::SubsetRobust.to_string();
    assert!(msg.contains("robust"), "unexpected rendering: {msg}");
}
