//! Cross-validation of the *static* robustness verdicts (Algorithm 2, `mvrc-robustness`)
//! against *dynamic* executions on the engine.
//!
//! The robustness property says: a set of programs is robust against MVRC iff every schedule
//! allowed under MVRC is conflict serializable. These tests exercise both directions on the
//! paper's benchmarks:
//!
//! * every SmallBank / Auction subset attested robust by Algorithm 2 is driven under
//!   read-committed at high contention and must never produce a serialization-graph cycle;
//! * the full SmallBank set (rejected by Algorithm 2, and truly non-robust per [46]) does
//!   produce concrete anomalies under read-committed, while the serializable level never does;
//! * Lemma 4.1 holds on every recorded history: only (predicate) rw-antidependencies run
//!   against the commit order.

use mvrc_benchmarks::{auction, smallbank, tpcc, ycsb_t, YcsbtConfig};
use mvrc_btp::sql::parse_workload_file;
use mvrc_btp::Workload;
use mvrc_engine::{run_workload, DriverConfig, ExecutableWorkload, IsolationLevel};
use mvrc_robustness::{AnalysisSettings, RobustnessSession};

/// High-contention SmallBank: 2 rows per relation, 6 interleaved transactions.
fn contended_smallbank(programs: &[&str]) -> ExecutableWorkload {
    ExecutableWorkload::new(&smallbank(), 2)
        .restrict(programs)
        .expect("known SmallBank program names")
}

fn drive(
    workload: &ExecutableWorkload,
    isolation: IsolationLevel,
    seed: u64,
) -> mvrc_engine::RunStats {
    run_workload(
        workload,
        DriverConfig {
            isolation,
            concurrency: 6,
            target_commits: 120,
            seed,
        },
    )
}

/// Checks that the static analyzer agrees with the expected verdict for a SmallBank subset.
fn static_verdict_smallbank(programs: &[&str]) -> bool {
    let workload = smallbank();
    let subset: Vec<_> = workload
        .programs
        .iter()
        .filter(|p| programs.contains(&p.name()))
        .cloned()
        .collect();
    let session = RobustnessSession::from_programs(&workload.schema, &subset);
    session.is_robust(AnalysisSettings::paper_default())
}

#[test]
fn robust_smallbank_subsets_never_produce_anomalies_under_read_committed() {
    // The maximal robust subsets of Figure 6.
    let robust_subsets: [&[&str]; 3] = [
        &["Amalgamate", "DepositChecking", "TransactSavings"],
        &["Balance", "DepositChecking"],
        &["Balance", "TransactSavings"],
    ];
    for subset in robust_subsets {
        assert!(
            static_verdict_smallbank(subset),
            "Algorithm 2 must attest {subset:?} robust (Figure 6)"
        );
        for seed in 0..8 {
            let stats = drive(
                &contended_smallbank(subset),
                IsolationLevel::ReadCommitted,
                seed,
            );
            assert!(
                stats.is_serializable(),
                "subset {subset:?}, seed {seed}: robust subsets must never yield anomalies, got {}",
                stats
                    .report
                    .anomaly
                    .as_ref()
                    .map(|a| a.cycle.len())
                    .unwrap_or(0)
            );
            assert_eq!(
                stats.report.counterflow_non_antidependency_edges, 0,
                "Lemma 4.1 must hold dynamically (subset {subset:?}, seed {seed})"
            );
        }
    }
}

#[test]
fn non_robust_smallbank_subsets_produce_concrete_anomalies_under_read_committed() {
    // {Balance, WriteCheck} and the full program set are not robust (Figure 6 lists neither);
    // under contention a concrete non-serializable MVRC execution must show up.
    let non_robust_subsets: [&[&str]; 2] = [
        &["Balance", "WriteCheck"],
        &[
            "Balance",
            "Amalgamate",
            "DepositChecking",
            "TransactSavings",
            "WriteCheck",
        ],
    ];
    for subset in non_robust_subsets {
        assert!(
            !static_verdict_smallbank(subset),
            "Algorithm 2 must reject {subset:?} (it does not appear in Figure 6)"
        );
        let mut found = false;
        for seed in 0..25 {
            let stats = drive(
                &contended_smallbank(subset),
                IsolationLevel::ReadCommitted,
                seed,
            );
            assert_eq!(stats.report.counterflow_non_antidependency_edges, 0);
            if !stats.is_serializable() {
                found = true;
                break;
            }
        }
        assert!(
            found,
            "subset {subset:?}: expected a concrete anomaly under read-committed"
        );
    }
}

#[test]
fn serializable_level_is_always_anomaly_free_even_for_non_robust_workloads() {
    let workload = contended_smallbank(&[
        "Balance",
        "Amalgamate",
        "DepositChecking",
        "TransactSavings",
        "WriteCheck",
    ]);
    for seed in 0..10 {
        let stats = drive(&workload, IsolationLevel::Serializable, seed);
        assert!(
            stats.is_serializable(),
            "seed {seed}: serializable must never admit cycles"
        );
    }
}

#[test]
fn snapshot_isolation_blocks_lost_updates_but_not_write_skew() {
    // Under SI the SmallBank mix can still produce anomalies (write skew between Balance-style
    // readers and writers is prevented, but skew between two writers on different rows is not);
    // what must never appear is a counterflow ww/wr edge.
    for seed in 0..6 {
        let workload = contended_smallbank(&["Balance", "WriteCheck", "TransactSavings"]);
        let stats = drive(&workload, IsolationLevel::SnapshotIsolation, seed);
        assert_eq!(
            stats.report.counterflow_non_antidependency_edges, 0,
            "seed {seed}"
        );
    }
}

#[test]
fn auction_is_robust_statically_and_dynamically() {
    let workload = auction();
    let session = RobustnessSession::new(workload);
    assert!(
        session.is_robust(AnalysisSettings::paper_default()),
        "the Auction benchmark is robust against MVRC (Figure 6)"
    );
    for seed in 0..8 {
        let executable = ExecutableWorkload::new(&auction(), 2);
        let stats = drive(&executable, IsolationLevel::ReadCommitted, seed);
        assert!(
            stats.is_serializable(),
            "seed {seed}: the robust Auction workload must never yield anomalies under MVRC"
        );
        assert_eq!(stats.report.counterflow_non_antidependency_edges, 0);
    }
}

#[test]
fn serializable_costs_more_aborts_than_read_committed_on_smallbank() {
    // The motivation of the paper: when a workload is robust, running it under MVRC gives
    // serializability "for free", whereas the serializable level pays with certification aborts.
    let workload = ExecutableWorkload::new(&smallbank(), 3);
    let mut rc_aborts = 0usize;
    let mut ser_aborts = 0usize;
    for seed in 0..5 {
        let rc = run_workload(
            &workload,
            DriverConfig {
                isolation: IsolationLevel::ReadCommitted,
                concurrency: 8,
                target_commits: 150,
                seed,
            },
        );
        let ser = run_workload(
            &workload,
            DriverConfig {
                isolation: IsolationLevel::Serializable,
                concurrency: 8,
                target_commits: 150,
                seed,
            },
        );
        rc_aborts += rc.total_aborts();
        ser_aborts += ser.total_aborts();
    }
    assert!(
        ser_aborts > rc_aborts,
        "serializable should abort more often than read committed (got {ser_aborts} vs {rc_aborts})"
    );
}

/// The table test: every program subset of the four bundled benchmarks and of the bundled
/// `shop.sql` file, driven through the generic LTP lowering at high contention (2 rows per
/// relation, 6 interleaved transactions, 80 commits). Robust subsets must stay serializable on
/// each of 10 seeds; non-robust subsets must show an anomaly within 25 seeds. Lemma 4.1 must hold on
/// every history. The share of non-robust subsets that show an anomaly is the dynamic gauge of
/// the analysis' precision; today it is all of them.
#[test]
fn every_program_subset_behaves_as_its_static_verdict_says() {
    let (schema, programs) =
        parse_workload_file(include_str!("../../cli/workloads/shop.sql")).unwrap();
    let workloads = [
        smallbank(),
        auction(),
        tpcc(),
        ycsb_t(YcsbtConfig::default()),
        Workload::new("shop", schema, programs, &[]),
    ];
    let settings = AnalysisSettings::paper_default();
    for workload in workloads {
        let session = RobustnessSession::new(workload.clone());
        let executable = ExecutableWorkload::new(&workload, 2);
        let names: Vec<&str> = workload.programs.iter().map(|p| p.name()).collect();
        for mask in 1u32..(1 << names.len()) {
            let subset: Vec<&str> = (0..names.len())
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| names[i])
                .collect();
            let robust = session
                .analyze_programs(&subset, settings)
                .expect("known program names")
                .is_robust();
            let restricted = executable.clone().restrict(&subset).unwrap();
            let seeds = if robust { 10 } else { 25 };
            let mut anomaly = None;
            for seed in 0..seeds {
                let stats = run_workload(
                    &restricted,
                    DriverConfig {
                        isolation: IsolationLevel::ReadCommitted,
                        concurrency: 6,
                        target_commits: 80,
                        seed,
                    },
                );
                assert_eq!(
                    stats.report.counterflow_non_antidependency_edges, 0,
                    "Lemma 4.1, {} {subset:?}, seed {seed}",
                    workload.name
                );
                if !stats.is_serializable() {
                    anomaly = Some(seed);
                    break;
                }
            }
            if robust {
                assert_eq!(
                    anomaly, None,
                    "{} {subset:?} is robust, yet a run yielded an anomaly",
                    workload.name
                );
            } else {
                assert!(
                    anomaly.is_some(),
                    "{} {subset:?} is not robust, yet 25 runs showed no anomaly",
                    workload.name
                );
            }
        }
    }
}
