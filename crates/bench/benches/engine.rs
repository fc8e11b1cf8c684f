//! Execution-engine benches: the *cost of serializability* that motivates the paper.
//!
//! The introduction argues that MVRC "can be implemented more efficiently than isolation level
//! Serializable", citing earlier experimental work; Section 7.3 explicitly does not repeat those
//! throughput experiments. This bench reproduces the claim's shape on the in-memory engine:
//! driving the same SmallBank / Auction mixes with the same seeds, read committed completes the
//! commit target with fewer aborted attempts (and hence less work) than snapshot isolation or
//! the serializable certification level.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mvrc_benchmarks::{auction, smallbank};
use mvrc_engine::{run_workload, DriverConfig, ExecutableWorkload, IsolationLevel};

fn bench_smallbank_isolation_levels(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/smallbank-isolation");
    group.sample_size(20);
    for isolation in IsolationLevel::ALL {
        group.bench_with_input(
            BenchmarkId::from_parameter(isolation.name()),
            &isolation,
            |b, &isolation| {
                let workload = ExecutableWorkload::new(&smallbank(), 5);
                b.iter(|| {
                    run_workload(
                        &workload,
                        DriverConfig {
                            isolation,
                            concurrency: 8,
                            target_commits: 300,
                            seed: 7,
                        },
                    )
                })
            },
        );
    }
    group.finish();
}

fn bench_auction_isolation_levels(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/auction-isolation");
    group.sample_size(20);
    for isolation in IsolationLevel::ALL {
        group.bench_with_input(
            BenchmarkId::from_parameter(isolation.name()),
            &isolation,
            |b, &isolation| {
                let workload = ExecutableWorkload::new(&auction(), 5);
                b.iter(|| {
                    run_workload(
                        &workload,
                        DriverConfig {
                            isolation,
                            concurrency: 8,
                            target_commits: 300,
                            seed: 7,
                        },
                    )
                })
            },
        );
    }
    group.finish();
}

fn bench_contention_sweep(c: &mut Criterion) {
    // Abort behaviour as contention grows: fewer rows per relation → hotter rows → the serializable
    // level's certification aborts grow much faster than read committed's lock conflicts.
    let mut group = c.benchmark_group("engine/smallbank-contention");
    group.sample_size(15);
    for rows in [2usize, 5, 20, 100] {
        group.bench_with_input(BenchmarkId::from_parameter(rows), &rows, |b, &rows| {
            let workload = ExecutableWorkload::new(&smallbank(), rows);
            b.iter(|| {
                run_workload(
                    &workload,
                    DriverConfig {
                        isolation: IsolationLevel::Serializable,
                        concurrency: 8,
                        target_commits: 200,
                        seed: 3,
                    },
                )
            })
        });
    }
    group.finish();
}

fn bench_history_checker(c: &mut Criterion) {
    // Cost of the post-run dynamic serialization-graph check as the history grows.
    let mut group = c.benchmark_group("engine/history-check");
    group.sample_size(10);
    for commits in [100usize, 400, 800] {
        group.bench_with_input(
            BenchmarkId::from_parameter(commits),
            &commits,
            |b, &commits| {
                let workload = ExecutableWorkload::new(&smallbank(), 10);
                // The end-to-end run includes the post-run check, whose O(n²) dependency scan
                // dominates for large histories.
                b.iter(|| {
                    run_workload(
                        &workload,
                        DriverConfig {
                            isolation: IsolationLevel::ReadCommitted,
                            concurrency: 6,
                            target_commits: commits,
                            seed: 11,
                        },
                    )
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    engine_benches,
    bench_smallbank_isolation_levels,
    bench_auction_isolation_levels,
    bench_contention_sweep,
    bench_history_checker
);
criterion_main!(engine_benches);
