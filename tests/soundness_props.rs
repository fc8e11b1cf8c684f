//! Property-based tests over randomly generated workloads.
//!
//! The synthetic generator of `mvrc-benchmarks` produces reproducible random workloads; the
//! properties below capture structural guarantees of the paper:
//!
//! * the type-II condition is a refinement of the type-I condition (Theorem 4.2 / Definition
//!   4.3): whatever the baseline attests robust, Algorithm 2 attests robust as well;
//! * coarser conflict information only removes robustness: tuple-granularity robust ⇒
//!   attribute-granularity robust, and robust without foreign keys ⇒ robust with foreign keys
//!   (the extra information only removes summary-graph edges);
//! * the optimized and the literal transcription of Algorithm 2 report the same witness;
//! * soundness end-to-end (Proposition 6.5): a workload attested robust never produces a
//!   non-serializable MVRC history in the engine's attestation battery (seeded interleavings
//!   under two key layouts, judged by the independent checker).

use mvrc_hist::{certify_subset, CertifyOutcome};
use mvrc_repro::benchmarks::{synthetic, SyntheticConfig};
use mvrc_repro::prelude::*;
use mvrc_repro::robustness::{find_type2_violation, is_robust};
use proptest::prelude::*;

#[path = "../crates/core/tests/support/witness.rs"]
mod witness;
use witness::assert_valid_type2_witness;

fn synthetic_config_strategy() -> impl Strategy<Value = SyntheticConfig> {
    (
        1usize..=3,   // relations
        2usize..=5,   // attributes per relation
        1usize..=4,   // programs
        1usize..=4,   // statements per program
        0.0f64..=1.0, // predicate probability
        0.0f64..=1.0, // write probability
        0.0f64..=0.6, // loop probability
        0.0f64..=0.6, // optional probability
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn type1_robust_implies_type2_robust(config in synthetic_config_strategy()) {
        let workload = synthetic(config);
        let session = RobustnessSession::new(workload.clone());
        for use_fk in [false, true] {
            for granularity in [Granularity::Attribute, Granularity::Tuple] {
                let graph = session.graph(AnalysisSettings {
                    granularity,
                    use_foreign_keys: use_fk,
                    condition: CycleCondition::TypeII,
                });
                if is_robust(&graph, CycleCondition::TypeI) {
                    prop_assert!(
                        is_robust(&graph, CycleCondition::TypeII),
                        "type-I robust but not type-II robust"
                    );
                }
            }
        }
    }

    #[test]
    fn coarser_settings_only_lose_robustness(config in synthetic_config_strategy()) {
        let workload = synthetic(config);
        let session = RobustnessSession::new(workload.clone());
        let attr = AnalysisSettings::paper_default();
        let tuple = AnalysisSettings { granularity: Granularity::Tuple, ..attr };
        let no_fk = AnalysisSettings { use_foreign_keys: false, ..attr };
        // Tuple granularity adds edges; robustness at tuple granularity implies robustness at
        // attribute granularity.
        if session.is_robust(tuple) {
            prop_assert!(session.is_robust(attr));
        }
        // Ignoring foreign keys adds counterflow edges; robustness without them implies
        // robustness with them.
        if session.is_robust(no_fk) {
            prop_assert!(session.is_robust(attr));
        }
    }

    #[test]
    fn optimized_and_naive_algorithm2_agree(config in synthetic_config_strategy()) {
        let workload = synthetic(config);
        let session = RobustnessSession::new(workload.clone());
        for settings in AnalysisSettings::evaluation_grid(CycleCondition::TypeII) {
            let graph = session.graph(settings);
            let optimized = find_type2_violation(&graph);
            prop_assert_eq!(optimized, mvrc_oracles::find_type2_violation(&graph.prefetched()));
            if let Some(witness) = &optimized {
                assert_valid_type2_witness(&graph.prefetched(), witness, &settings.label());
            }
        }
    }

    #[test]
    fn unfolding_deeper_does_not_flip_verdicts(config in synthetic_config_strategy()) {
        let workload = synthetic(config);
        let le2 = RobustnessSession::new(workload.clone());
        let le3 = RobustnessSession::new(workload.clone().with_unfold_options(
            mvrc_repro::btp::UnfoldOptions { max_loop_iterations: 3, deduplicate: true },
        ));
        let settings = AnalysisSettings::paper_default();
        prop_assert_eq!(le2.is_robust(settings), le3.is_robust(settings));
    }
}

proptest! {
    // The dynamic soundness check executes histories, so keep the number of cases lower.
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn attested_robust_workloads_never_yield_non_serializable_mvrc_histories(
        config in synthetic_config_strategy(),
    ) {
        let workload = synthetic(config);
        let session = RobustnessSession::new(workload.clone());
        let settings = AnalysisSettings::paper_default();
        if !session.is_robust(settings) {
            // Nothing to check: the analysis makes no claim about non-attested workloads.
            return Ok(());
        }
        let programs: Vec<&str> = session.program_names().iter().map(String::as_str).collect();
        let outcome = certify_subset(&session, &workload.name, &programs, settings);
        prop_assert!(
            matches!(&outcome, Ok(CertifyOutcome::Attested(a)) if a.all_serializable),
            "attested-robust workload was not attested by its executions: {:?}",
            outcome
        );
    }
}
