//! Cross-check of the closure-pruned, shared-graph subset exploration against the oracle.
//!
//! [`explore_subsets`] decides every subset on a lane of one traversal of the session's cached
//! summary graph, skips cycle tests via two-sided closure pruning (Proposition 5.2: subsets of
//! robust sets are robust, supersets of non-robust sets are not), and splits each popcount
//! level into word ranges across its threads when it fans out;
//! [`mvrc_oracles::explore_subsets`] re-runs Algorithm 1 and the scalar cycle test for every
//! subset. The sweep must agree *exactly* with the oracle — same robust family, same maximal
//! subsets, every subset either tested or pruned — on every workload (the `assert_agree`
//! cross-check idiom of the dbcop consistency checker). The property tests drive the
//! comparison over random synthetic workloads across the full evaluation grid; separate tests
//! pin down the "exactly one construction per graph-shape combination" contract of the session
//! (against one per subset for the oracle, on all four bundled benchmarks), the
//! strictly-fewer-cycle-tests claim of the pruning on TPC-C, the border bound on the cycle
//! tests of a 16-program YCSB-T mix, partial lane batches, and identical results under every
//! thread pin on a sweep large enough to split across threads.

use mvrc_benchmarks::{auction, smallbank, synthetic, tpcc, ycsb_t, SyntheticConfig, YcsbtConfig};
use mvrc_robustness::{
    explore_subsets, explore_subsets_with, AnalysisSettings, CycleCondition, ExploreOptions,
    Parallelism, RobustnessSession, SubsetExploration, SummaryGraph,
};
use proptest::prelude::*;

/// Asserts that a sweep agrees with the oracle on verdicts, and accounts for every non-empty
/// subset exactly once.
fn assert_matches_oracle(sweep: &SubsetExploration, oracle: &SubsetExploration, what: &str) {
    let settings = oracle.settings;
    assert_eq!(
        sweep.robust, oracle.robust,
        "robust families differ ({what} vs oracle) under {settings} for programs {:?}",
        oracle.programs
    );
    assert_eq!(
        sweep.maximal, oracle.maximal,
        "maximal subsets differ ({what} vs oracle) under {settings} for programs {:?}",
        oracle.programs
    );
    assert_eq!(
        sweep.cycle_tests + sweep.pruned,
        oracle.cycle_tests,
        "every subset must be either tested or pruned ({what})"
    );
}

/// Asserts that the sweep agrees with the oracle on a workload under one settings combination.
fn assert_agree(session: &RobustnessSession, settings: AnalysisSettings) {
    let oracle = mvrc_oracles::explore_subsets(session, settings);
    assert_matches_oracle(&explore_subsets(session, settings), &oracle, "sweep");
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

/// The subset masks (bit `i` ⇔ program `i`) an exploration attests robust.
fn robust_masks(exploration: &SubsetExploration) -> Vec<bool> {
    let mut robust = vec![false; 1 << exploration.programs.len()];
    for set in &exploration.robust {
        robust[set.iter().map(|&i| 1usize << i).sum::<usize>()] = true;
    }
    robust
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn non_robust_family_is_upward_closed(config in synthetic_config_strategy()) {
        // The dual of Proposition 5.2's downward closure: every superset of a non-robust set
        // is non-robust. Checked on the oracle's family, which no pruning can impose, and on
        // the sweep's family, which relies on it.
        let session = RobustnessSession::new(synthetic(config));
        let n = session.program_names().len();
        for condition in [CycleCondition::TypeII, CycleCondition::TypeI] {
            for settings in AnalysisSettings::evaluation_grid(condition) {
                for exploration in [
                    mvrc_oracles::explore_subsets(&session, settings),
                    explore_subsets(&session, settings),
                ] {
                    let robust = robust_masks(&exploration);
                    for mask in (1usize..1 << n).filter(|&m| !robust[m]) {
                        for extra in (0..n).filter(|i| mask & (1 << i) == 0) {
                            prop_assert!(
                                !robust[mask | (1 << extra)],
                                "{:#b} is not robust but its superset {:#b} is under {}",
                                mask,
                                mask | (1 << extra),
                                settings
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn ycsbt_mix_tests_at_most_the_borders_and_the_maximal_sets() {
    // A 16-program YCSB-T mix whose non-robustness is all caused by singletons and pairs. The
    // pruned sweep then tests the full set, the singletons and the pairs, refutes every
    // superset of a failed border, and cycle-tests a larger mask only when it is robust with
    // no robust one-bit superset — a maximal set.
    let session = RobustnessSession::new(ycsb_t(YcsbtConfig {
        fields: 16,
        reads: 7,
        rmws: 6,
        updates: 0,
        scans: 2,
        inserts: 1,
        fields_per_op: 1,
    }));
    let n = session.program_names().len();
    assert!(n >= 16, "{n} programs");
    let exploration = explore_subsets(&session, AnalysisSettings::paper_default());
    assert_eq!(
        exploration.cycle_tests + exploration.pruned + exploration.reused,
        (1 << n) - 1
    );

    // Precondition, from the result: every minimal non-robust set has at most two programs,
    // so every non-robust mask of three or more programs has a non-robust one-bit subset.
    let robust = robust_masks(&exploration);
    for mask in (1usize..1 << n).filter(|&m| !robust[m] && m.count_ones() > 2) {
        assert!(
            (0..n).any(|i| mask & (1 << i) != 0 && !robust[mask & !(1 << i)]),
            "{mask:#b} is a minimal non-robust set of more than two programs"
        );
    }
    let bound = 1 + n + n * (n - 1) / 2 + exploration.maximal.len();
    assert!(
        exploration.cycle_tests <= bound,
        "{} cycle tests exceed 1 + n + C(n, 2) + |maximal| = {bound}",
        exploration.cycle_tests
    );
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
        // The result must not depend on the fan-out decision.
        let serial = explore_subsets_with(
            &session,
            AnalysisSettings::paper_default(),
            ExploreOptions {
                parallelism: Parallelism::Serial,
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
    // fill a single batch all but one lane. The oracle runs the scalar cycle test per subset;
    // serially and with two threads requested, the lane-parallel sweep must agree with it.
    for workload in [tpcc(), ycsb_t(YcsbtConfig::default())] {
        let session = RobustnessSession::new(workload);
        for condition in [CycleCondition::TypeII, CycleCondition::TypeI] {
            let settings = AnalysisSettings {
                condition,
                ..AnalysisSettings::paper_default()
            };
            let oracle = mvrc_oracles::explore_subsets(&session, settings);
            for (what, parallelism) in [
                ("serial", Parallelism::Serial),
                ("two threads", Parallelism::Threads(2)),
            ] {
                let sweep = explore_subsets_with(
                    &session,
                    settings,
                    ExploreOptions {
                        parallelism,
                        ..ExploreOptions::default()
                    },
                );
                assert_matches_oracle(&sweep, &oracle, what);
            }
        }
    }
}

#[test]
fn pruning_saves_cycle_tests_on_tpcc() {
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
    // The verdicts and the counters (scheduling-independent because levels are
    // barrier-separated) must not depend on how many threads the sweep may use. TPC-C's single
    // bitset word never splits; the 14-program straight-line synthetic has 256 words, sixteen
    // word ranges per level, so `Threads(2)` really divides each level between two threads.
    let straight_line = synthetic(SyntheticConfig {
        programs: 14,
        loop_probability: 0.0,
        optional_probability: 0.0,
        seed: 7,
        ..SyntheticConfig::default()
    });
    let settings = AnalysisSettings::paper_default();
    for workload in [tpcc(), straight_line] {
        let session = RobustnessSession::new(workload);
        let sweep = |parallelism| {
            explore_subsets_with(
                &session,
                settings,
                ExploreOptions {
                    parallelism,
                    ..ExploreOptions::default()
                },
            )
        };
        let reference = sweep(Parallelism::Serial);
        for parallelism in [
            Parallelism::Threads(1),
            Parallelism::Threads(2),
            Parallelism::Threads(usize::MAX),
            Parallelism::Auto,
        ] {
            let pinned = sweep(parallelism);
            let what = format!("{parallelism:?}");
            assert_eq!(pinned.robust, reference.robust, "{what}");
            assert_eq!(pinned.maximal, reference.maximal, "{what}");
            assert_eq!(pinned.cycle_tests, reference.cycle_tests, "{what}");
            assert_eq!(pinned.pruned, reference.pruned, "{what}");
        }
    }
}

#[test]
fn session_constructs_exactly_one_graph_per_shape_combination() {
    for workload in [
        smallbank(),
        tpcc(),
        auction(),
        ycsb_t(YcsbtConfig::default()),
    ] {
        let name = workload.name.clone();
        let subsets_per_run = (1usize << workload.programs.len()) - 1;
        let session = RobustnessSession::new(workload.clone());

        for settings in AnalysisSettings::evaluation_grid(CycleCondition::TypeII) {
            let before = SummaryGraph::constructions_on_current_thread();
            let exploration = explore_subsets(&session, settings);
            let after = SummaryGraph::constructions_on_current_thread();
            assert!(exploration.robust.len() <= subsets_per_run);
            assert_eq!(
                after - before,
                1,
                "{name}: explore_subsets must construct exactly one summary graph under {settings}"
            );
        }

        // Re-running any sweep hits the session cache: zero further constructions.
        let before = SummaryGraph::constructions_on_current_thread();
        explore_subsets(&session, AnalysisSettings::paper_default());
        explore_subsets(
            &session,
            AnalysisSettings::baseline(mvrc_robustness::Granularity::Attribute, true),
        );
        assert_eq!(
            SummaryGraph::constructions_on_current_thread(),
            before,
            "{name}"
        );

        // The shared sweep against the oracle, as counts rather than timings: on a fresh
        // session the sweep builds one graph and decides every subset on it, by a cycle test
        // or by pruning, while the oracle rebuilds a graph per subset. Both run on this
        // thread, so the thread-local counter sees every construction.
        let settings = AnalysisSettings::paper_default();
        let fresh = RobustnessSession::new(workload);
        let serial = ExploreOptions {
            parallelism: Parallelism::Serial,
            ..ExploreOptions::default()
        };
        let before = SummaryGraph::constructions_on_current_thread();
        let shared = explore_subsets_with(&fresh, settings, serial);
        let shared_builds = SummaryGraph::constructions_on_current_thread() - before;
        let before = SummaryGraph::constructions_on_current_thread();
        let oracle = mvrc_oracles::explore_subsets(&fresh, settings);
        let oracle_builds = SummaryGraph::constructions_on_current_thread() - before;
        assert_eq!(shared_builds, 1, "{name}: shared sweep graph builds");
        assert_eq!(
            shared.cycle_tests + shared.pruned,
            subsets_per_run,
            "{name}: shared sweep decisions"
        );
        assert_eq!(
            oracle_builds, subsets_per_run as u64,
            "{name}: oracle graph builds"
        );
        assert_eq!(shared.robust, oracle.robust, "{name}: robust subsets");
        assert_eq!(shared.maximal, oracle.maximal, "{name}: maximal subsets");
    }
}
