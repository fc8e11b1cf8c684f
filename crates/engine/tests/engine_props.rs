//! Property-based tests over the execution engine.
//!
//! Random driver configurations (workload, contention, concurrency, seed) are generated with
//! proptest; the properties are the engine-level counterparts of the paper's theory:
//!
//! * **Serial executions are serializable** — with a single slot there is no interleaving, so
//!   the dynamic serialization graph can never contain a cycle (and no counterflow edge).
//! * **The serializable level keeps its promise** — no configuration may produce a cycle.
//! * **Lemma 4.1** — in every run, under every level, only (predicate) rw-antidependencies run
//!   against the commit order.
//! * **Type-II shape (Theorem 4.2)** — when a read-committed run does produce a cycle, that
//!   cycle contains a non-counterflow edge and a counterflow rw-antidependency.
//! * **Commit targets are always reached** — aborted attempts are regenerated, so the driver
//!   terminates with exactly the requested number of commits.

use mvrc_benchmarks::{auction, smallbank, tpcc};
use mvrc_engine::{run_workload, DriverConfig, ExecutableWorkload, IsolationLevel};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum WorkloadChoice {
    SmallBank,
    Auction,
    Tpcc,
}

/// The chosen benchmark over `scale` rows per relation (fewer rows, more contention).
fn build(choice: WorkloadChoice, scale: usize) -> ExecutableWorkload {
    let workload = match choice {
        WorkloadChoice::SmallBank => smallbank(),
        WorkloadChoice::Auction => auction(),
        WorkloadChoice::Tpcc => tpcc(),
    };
    ExecutableWorkload::new(&workload, scale)
}

fn workload_strategy() -> impl Strategy<Value = WorkloadChoice> {
    prop_oneof![
        Just(WorkloadChoice::SmallBank),
        Just(WorkloadChoice::Auction),
        Just(WorkloadChoice::Tpcc),
    ]
}

fn isolation_strategy() -> impl Strategy<Value = IsolationLevel> {
    prop_oneof![
        Just(IsolationLevel::ReadCommitted),
        Just(IsolationLevel::SnapshotIsolation),
        Just(IsolationLevel::Serializable),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn serial_runs_are_always_serializable(
        choice in workload_strategy(),
        isolation in isolation_strategy(),
        scale in 1usize..5,
        commits in 10usize..40,
        seed in any::<u64>(),
    ) {
        let workload = build(choice, scale);
        let stats = run_workload(
            &workload,
            DriverConfig { isolation, concurrency: 1, target_commits: commits, seed },
        );
        prop_assert_eq!(stats.commits, commits);
        prop_assert!(stats.is_serializable());
        prop_assert_eq!(stats.report.counterflow_edges, 0);
    }

    #[test]
    fn serializable_level_never_admits_cycles(
        choice in workload_strategy(),
        scale in 1usize..4,
        concurrency in 2usize..8,
        seed in any::<u64>(),
    ) {
        let workload = build(choice, scale);
        let stats = run_workload(
            &workload,
            DriverConfig {
                isolation: IsolationLevel::Serializable,
                concurrency,
                target_commits: 60,
                seed,
            },
        );
        prop_assert_eq!(stats.commits, 60);
        prop_assert!(stats.is_serializable(), "anomaly under serializable: {:?}", stats.report.anomaly);
    }

    #[test]
    fn lemma_4_1_and_theorem_4_2_hold_on_every_history(
        choice in workload_strategy(),
        isolation in isolation_strategy(),
        scale in 1usize..4,
        concurrency in 2usize..8,
        seed in any::<u64>(),
    ) {
        let workload = build(choice, scale);
        let stats = run_workload(
            &workload,
            DriverConfig { isolation, concurrency, target_commits: 60, seed },
        );
        // Lemma 4.1: counterflow dependencies are always (predicate) rw-antidependencies.
        prop_assert_eq!(stats.report.counterflow_non_antidependency_edges, 0);
        // Theorem 4.2 (observable part): a cycle in an MVRC-allowed execution contains at least
        // one counterflow edge (type-I) and at least one non-counterflow edge, and every
        // counterflow edge on it is an rw-antidependency.
        if let Some(anomaly) = &stats.report.anomaly {
            prop_assert!(anomaly.is_type1());
            prop_assert!(anomaly.cycle.iter().any(|e| !e.counterflow));
            prop_assert!(anomaly.counterflow_edges_are_antidependencies());
        }
    }

    #[test]
    fn the_commit_target_is_always_reached(
        choice in workload_strategy(),
        isolation in isolation_strategy(),
        concurrency in 1usize..10,
        commits in 1usize..80,
        seed in any::<u64>(),
    ) {
        let workload = build(choice, 2);
        let stats = run_workload(
            &workload,
            DriverConfig { isolation, concurrency, target_commits: commits, seed },
        );
        prop_assert_eq!(stats.commits, commits);
        prop_assert_eq!(stats.report.committed, commits);
        let by_program: usize = stats.commits_by_program.values().sum();
        prop_assert_eq!(by_program, commits);
    }
}
