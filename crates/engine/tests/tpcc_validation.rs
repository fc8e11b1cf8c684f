//! Dynamic validation of the TPC-C verdicts of Figure 6 (setting `attr dep + FK`).
//!
//! * `{OrderStatus, Payment, StockLevel}` and `{NewOrder, Payment}` are attested robust by
//!   Algorithm 2: driving them under read committed must never produce an anomaly.
//! * The full five-program mix is rejected; under contention the engine observes concrete
//!   non-serializable executions (while the serializable level never does).
//! * In every run, Lemma 4.1 holds: only (predicate) rw-antidependencies run against the commit
//!   order.
//! * `{Delivery}` alone, the Section 7.2 false negative, is certified non-robust on its BTP.

use mvrc_benchmarks::tpcc;
use mvrc_engine::{run_workload, DriverConfig, ExecutableWorkload, IsolationLevel};
use mvrc_hist::{certify_subset, CertifyOutcome};
use mvrc_robustness::{AnalysisSettings, RobustnessSession};

/// High-contention TPC-C: 2 rows per relation, 6 interleaved transactions.
fn drive(programs: &[&str], isolation: IsolationLevel, seed: u64) -> mvrc_engine::RunStats {
    let workload = ExecutableWorkload::new(&tpcc(), 2)
        .restrict(programs)
        .expect("known TPC-C program names");
    run_workload(
        &workload,
        DriverConfig {
            isolation,
            concurrency: 6,
            target_commits: 80,
            seed,
        },
    )
}

fn static_verdict(programs: &[&str]) -> bool {
    let workload = tpcc();
    let session = RobustnessSession::new(workload);
    session
        .analyze_programs(programs, AnalysisSettings::paper_default())
        .expect("known TPC-C program names")
        .is_robust()
}

#[test]
fn robust_tpcc_subsets_stay_serializable_under_read_committed() {
    let robust_subsets: [&[&str]; 2] = [
        &["OrderStatus", "Payment", "StockLevel"],
        &["NewOrder", "Payment"],
    ];
    for subset in robust_subsets {
        assert!(
            static_verdict(subset),
            "Figure 6 lists {subset:?} as robust under attr dep + FK"
        );
        for seed in 0..6 {
            let stats = drive(subset, IsolationLevel::ReadCommitted, seed);
            assert!(
                stats.is_serializable(),
                "subset {subset:?}, seed {seed}: robust subsets must stay serializable under MVRC"
            );
            assert_eq!(stats.report.counterflow_non_antidependency_edges, 0);
            assert!(stats.commits >= 80, "the driver reached its commit target");
        }
    }
}

#[test]
fn the_full_tpcc_mix_is_rejected_and_produces_anomalies_under_read_committed() {
    let all = [
        "NewOrder",
        "Payment",
        "OrderStatus",
        "StockLevel",
        "Delivery",
    ];
    assert!(
        !static_verdict(&all),
        "the full TPC-C mix is not robust against MVRC"
    );
    let mut found = false;
    for seed in 0..20 {
        let stats = drive(&all, IsolationLevel::ReadCommitted, seed);
        assert_eq!(
            stats.report.counterflow_non_antidependency_edges, 0,
            "Lemma 4.1, seed {seed}"
        );
        if !stats.is_serializable() {
            found = true;
            break;
        }
    }
    assert!(
        found,
        "expected a concrete non-serializable MVRC execution of the full TPC-C mix"
    );
}

#[test]
fn the_full_tpcc_mix_under_serializable_certification_never_shows_anomalies() {
    let all = [
        "NewOrder",
        "Payment",
        "OrderStatus",
        "StockLevel",
        "Delivery",
    ];
    for seed in 0..5 {
        let stats = drive(&all, IsolationLevel::Serializable, seed);
        assert!(stats.is_serializable(), "seed {seed}");
    }
}

/// Section 7.2 discusses `{Delivery}` as a false negative: Algorithm 2 rejects it, yet no two
/// deliveries over one warehouse can both deliver its oldest order — the second finds the
/// `New_Order` row gone. That argument lives in application semantics ("the oldest order"),
/// below the resolution of the BTP, which only says that Delivery reads and deletes a
/// `New_Order` row and updates the order it belongs to. On the BTP the anomaly is real, and
/// certification realizes it as an executed MVRC history that the independent checker rejects.
#[test]
fn delivery_alone_is_certified_non_robust_on_its_btp() {
    assert!(
        !static_verdict(&["Delivery"]),
        "{{Delivery}} is rejected by Algorithm 2"
    );
    let session = RobustnessSession::new(tpcc());
    let outcome = certify_subset(
        &session,
        "tpcc",
        &["Delivery"],
        AnalysisSettings::paper_default(),
    )
    .expect("the rejection is certified");
    let CertifyOutcome::Certified(certificate) = outcome else {
        panic!("a rejected subset certifies, it does not attest");
    };
    assert!(!certificate.realization.verdict.serializable);
    assert!(certificate.realization.find_anomaly_agrees);
}
