//! Cross-check of the closure-pruned, shared-graph subset exploration against the naive
//! oracle.
//!
//! [`explore_subsets`] decides every subset on a lane of one traversal of the session's cached
//! summary graph, skips cycle tests via downward-closure pruning (Proposition 5.2), and
//! *streams* each popcount level as lazily split rank ranges across the `mvrc-par` pool;
//! [`explore_subsets_with`] with pruning disabled tests every mask the same way;
//! [`explore_subsets_naive`] re-runs Algorithm 1 and the scalar cycle test for every subset.
//! Both sweeps must agree *exactly* with the oracle — same robust family, same maximal subsets,
//! every subset either tested or pruned — on every workload (the `assert_agree` cross-check
//! idiom of the dbcop consistency checker). The property tests drive the comparison over
//! random synthetic workloads across the full evaluation grid; separate tests pin down the
//! "exactly one construction per graph-shape combination" contract of the session, the
//! strictly-fewer-cycle-tests claim of the pruning on TPC-C, and partial lane batches under
//! serial and forced fan-out sweeps.

use mvrc_benchmarks::{auction, smallbank, synthetic, tpcc, ycsb_t, SyntheticConfig, YcsbtConfig};
use mvrc_robustness::{
    explore_subsets, explore_subsets_naive, explore_subsets_with, AnalysisSettings, CycleCondition,
    ExploreOptions, Parallelism, RobustnessSession, SubsetExploration, SummaryGraph,
};
use proptest::prelude::*;

/// Asserts that a sweep agrees with the naive oracle on verdicts, and accounts for every
/// non-empty subset exactly once.
fn assert_matches_naive(sweep: &SubsetExploration, naive: &SubsetExploration, what: &str) {
    let settings = naive.settings;
    assert_eq!(
        sweep.robust, naive.robust,
        "robust families differ ({what} vs naive) under {settings} for programs {:?}",
        naive.programs
    );
    assert_eq!(
        sweep.maximal, naive.maximal,
        "maximal subsets differ ({what} vs naive) under {settings} for programs {:?}",
        naive.programs
    );
    assert_eq!(
        sweep.cycle_tests + sweep.pruned,
        naive.cycle_tests,
        "every subset must be either tested or pruned ({what})"
    );
}

/// Asserts that the default (pruned) and exhaustive sweeps agree with the naive oracle on a
/// workload under one settings combination.
fn assert_agree(session: &RobustnessSession, settings: AnalysisSettings) {
    let naive = explore_subsets_naive(session, settings);
    assert_matches_naive(&explore_subsets(session, settings), &naive, "pruned");
    let exhaustive = explore_subsets_with(
        session,
        settings,
        ExploreOptions {
            closure_pruning: false,
            ..ExploreOptions::default()
        },
    );
    assert_matches_naive(&exhaustive, &naive, "exhaustive");
    assert_eq!(exhaustive.pruned, 0);
}

fn synthetic_config_strategy() -> impl Strategy<Value = SyntheticConfig> {
    (
        1usize..=3,   // relations
        2usize..=5,   // attributes per relation
        1usize..=4,   // programs (the exploration is exponential in this)
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
    fn pruned_exploration_agrees_with_exhaustive_reconstruction(
        config in synthetic_config_strategy(),
    ) {
        let session = RobustnessSession::new(synthetic(config));
        for condition in [CycleCondition::TypeII, CycleCondition::TypeI] {
            for settings in AnalysisSettings::evaluation_grid(condition) {
                assert_agree(&session, settings);
            }
        }
    }
}

#[test]
fn parallel_enumeration_agrees_on_larger_workloads() {
    // Workloads with ≥ 6 programs cross the default parallel threshold that fans the subset
    // sweep out across threads; pin the parallel path against the serial oracle explicitly.
    for seed in [7u64, 99, 4242] {
        let workload = synthetic(SyntheticConfig {
            relations: 3,
            attributes_per_relation: 4,
            programs: 7,
            statements_per_program: 3,
            predicate_probability: 0.4,
            write_probability: 0.5,
            loop_probability: 0.2,
            optional_probability: 0.2,
            seed,
        });
        let session = RobustnessSession::new(workload);
        assert_agree(&session, AnalysisSettings::paper_default());
        assert_agree(
            &session,
            AnalysisSettings::baseline(mvrc_robustness::Granularity::Attribute, true),
        );
        // An absurd threshold forces the serial path even on the larger workload; the result
        // must not depend on the fan-out decision.
        let serial = explore_subsets_with(
            &session,
            AnalysisSettings::paper_default(),
            ExploreOptions {
                parallel_threshold: usize::MAX,
                ..ExploreOptions::default()
            },
        );
        assert_eq!(
            serial.robust,
            explore_subsets(&session, AnalysisSettings::paper_default()).robust
        );
    }
}

#[test]
fn paper_benchmarks_agree_across_the_evaluation_grid() {
    for workload in [smallbank(), tpcc(), auction()] {
        let session = RobustnessSession::new(workload);
        for condition in [CycleCondition::TypeII, CycleCondition::TypeI] {
            for settings in AnalysisSettings::evaluation_grid(condition) {
                assert_agree(&session, settings);
            }
        }
    }
}

#[test]
fn bitsliced_partial_batches_match_scalar_on_sub64_levels() {
    // Lane packing must be exact for batches smaller than 64: TPC-C's levels are all partial
    // (the largest, C(5, 3) or C(5, 2), holds 10 masks), while YCSB-T's 63 non-empty subsets
    // fill a single batch all but one lane. The naive oracle runs the scalar cycle test per
    // subset; serially and under forced fan-out (both workloads sit below the default
    // threshold), with and without pruning, the lane-parallel sweep must agree with it.
    for workload in [tpcc(), ycsb_t(YcsbtConfig::default())] {
        let session = RobustnessSession::new(workload);
        for condition in [CycleCondition::TypeII, CycleCondition::TypeI] {
            let settings = AnalysisSettings {
                condition,
                ..AnalysisSettings::paper_default()
            };
            let naive = explore_subsets_naive(&session, settings);
            for (what, parallel_threshold, parallelism) in [
                ("serial", usize::MAX, Parallelism::Serial),
                ("fan-out", 1, Parallelism::Auto),
            ] {
                for closure_pruning in [true, false] {
                    let sweep = explore_subsets_with(
                        &session,
                        settings,
                        ExploreOptions {
                            parallel_threshold,
                            parallelism,
                            closure_pruning,
                            ..ExploreOptions::default()
                        },
                    );
                    assert_matches_naive(&sweep, &naive, what);
                }
            }
        }
    }
}

#[test]
fn closure_pruning_saves_cycle_tests_on_tpcc() {
    // TPC-C, attr dep + FK: {Pay, OS, SL} and {NO, Pay} are robust (Figure 6), so their
    // subsets are inherited by Proposition 5.2 instead of tested.
    let session = RobustnessSession::new(tpcc());
    let exploration = explore_subsets(&session, AnalysisSettings::paper_default());
    let total = (1usize << session.program_names().len()) - 1;
    assert!(
        exploration.cycle_tests < total,
        "pruning must run strictly fewer cycle tests than the {total}-subset sweep, ran {}",
        exploration.cycle_tests
    );
    assert!(exploration.pruned > 0);
    assert_eq!(exploration.cycle_tests + exploration.pruned, total);
}

#[test]
fn parallelism_pins_do_not_change_results() {
    // The verdicts (and the pruning counters, which are scheduling-independent because levels
    // are barrier-separated) must not depend on how much of the pool the sweep may use —
    // whether pinned per call or per session.
    let session = RobustnessSession::new(tpcc());
    let settings = AnalysisSettings::paper_default();
    let reference = explore_subsets(&session, settings);
    for parallelism in [
        Parallelism::Serial,
        Parallelism::Threads(1),
        Parallelism::Threads(2),
        Parallelism::Threads(usize::MAX),
        Parallelism::Auto,
    ] {
        let pinned = explore_subsets_with(
            &session,
            settings,
            ExploreOptions {
                parallelism,
                ..ExploreOptions::default()
            },
        );
        assert_eq!(pinned.robust, reference.robust, "under {parallelism:?}");
        assert_eq!(pinned.cycle_tests, reference.cycle_tests);
        assert_eq!(pinned.pruned, reference.pruned);

        let session_pinned = RobustnessSession::new(tpcc()).with_parallelism(parallelism);
        assert_eq!(session_pinned.parallelism(), parallelism);
        let via_session = explore_subsets(&session_pinned, settings);
        assert_eq!(
            via_session.robust, reference.robust,
            "under {parallelism:?}"
        );
    }
}

#[test]
fn session_constructs_exactly_one_graph_per_shape_combination() {
    let workload = smallbank();
    let subsets_per_run = (1usize << workload.programs.len()) - 1;
    let session = RobustnessSession::new(workload);

    for settings in AnalysisSettings::evaluation_grid(CycleCondition::TypeII) {
        let before = SummaryGraph::constructions_on_current_thread();
        let exploration = explore_subsets(&session, settings);
        let after = SummaryGraph::constructions_on_current_thread();
        assert!(exploration.robust.len() <= subsets_per_run);
        assert_eq!(
            after - before,
            1,
            "explore_subsets must construct exactly one summary graph under {settings}"
        );
    }

    // Re-running any sweep hits the session cache: zero further constructions.
    let before = SummaryGraph::constructions_on_current_thread();
    explore_subsets(&session, AnalysisSettings::paper_default());
    explore_subsets(
        &session,
        AnalysisSettings::baseline(mvrc_robustness::Granularity::Attribute, true),
    );
    assert_eq!(SummaryGraph::constructions_on_current_thread(), before);

    // The retained naive oracle really does reconstruct one graph per subset — the comparison
    // the Criterion bench `subset_exploration` measures.
    let before = SummaryGraph::constructions_on_current_thread();
    explore_subsets_naive(&session, AnalysisSettings::paper_default());
    let after = SummaryGraph::constructions_on_current_thread();
    assert_eq!(after - before, subsets_per_run as u64);
}
