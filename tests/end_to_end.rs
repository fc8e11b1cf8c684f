//! Cross-crate integration tests: the static analysis (mvrc-robustness) and the executed
//! histories of the engine, judged by the independent checker (mvrc-engine + mvrc-hist), must
//! tell a consistent story on the paper's benchmarks.

use mvrc_hist::{certify_subset, check, random_run, CertifyOutcome, KeyVariant};
use mvrc_repro::benchmarks::{auction, smallbank, tpcc};
use mvrc_repro::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Checks one row of the certify table: Algorithm 2's verdict on `subset` (empty = every
/// program) is `robust`, and `certify_subset` agrees with it. A non-robust subset must be
/// certified by an executed history the independent checker rejects (Section 7.2: SmallBank has
/// no false negatives); a robust one must be attested by sampled executions that are all
/// serializable.
fn assert_certify_agrees(workload: Workload, subset: &[&str], robust: bool) {
    let settings = AnalysisSettings::paper_default();
    let name = workload.name.clone();
    let session = RobustnessSession::new(workload);
    let subset: Vec<&str> = if subset.is_empty() {
        session.program_names().iter().map(String::as_str).collect()
    } else {
        subset.to_vec()
    };
    let report = session
        .analyze_programs(&subset, settings)
        .expect("known program names");
    assert_eq!(report.is_robust(), robust, "{name} {subset:?}");
    match certify_subset(&session, &name, &subset, settings) {
        Ok(CertifyOutcome::Certified(c)) => {
            assert!(!robust, "{name} {subset:?}: certified a robust subset");
            assert!(!c.realization.verdict.serializable);
            assert!(c.realization.verdict.read_committed_ok);
            assert!(c.realization.find_anomaly_agrees);
        }
        Ok(CertifyOutcome::Attested(a)) => {
            assert!(robust, "{name} {subset:?}: attested a non-robust subset");
            assert!(a.all_serializable);
            assert!(
                a.runs_executed > 0,
                "{name} {subset:?}: no sample committed"
            );
        }
        Err(e) => panic!("{name} {subset:?}: {e}"),
    }
}

#[test]
fn auction_static_verdict_is_confirmed_by_random_mvrc_schedules() {
    assert_certify_agrees(auction(), &[], true);
}

#[test]
fn smallbank_robust_subset_produces_only_serializable_schedules() {
    assert_certify_agrees(
        smallbank(),
        &["Amalgamate", "DepositChecking", "TransactSavings"],
        true,
    );
}

#[test]
fn smallbank_rejected_subsets_have_real_anomalies() {
    for subset in [
        &["WriteCheck"][..],
        &["Amalgamate", "Balance"],
        &["DepositChecking", "WriteCheck"],
    ] {
        assert_certify_agrees(smallbank(), subset, false);
    }
}

#[test]
fn tpcc_payment_only_deployment_is_safe_and_serializable_in_sampling() {
    assert_certify_agrees(tpcc(), &["OrderStatus", "Payment", "StockLevel"], true);
}

#[test]
fn sql_frontend_and_builder_agree_end_to_end() {
    // The SQL front-end and the programmatic builder produce equivalent analyses for the
    // Auction workload, down to subset exploration.
    let workload = auction();
    let from_sql =
        parse_workload(&workload.schema, mvrc_repro::benchmarks::AUCTION_SQL).expect("parses");
    let a1 = RobustnessSession::new(workload.clone());
    let a2 = RobustnessSession::from_programs(&workload.schema, &from_sql);
    for condition in [CycleCondition::TypeI, CycleCondition::TypeII] {
        for settings in AnalysisSettings::evaluation_grid(condition) {
            let e1 = explore_subsets(&a1, settings);
            let e2 = explore_subsets(&a2, settings);
            assert_eq!(
                e1.robust.len(),
                e2.robust.len(),
                "setting {}",
                settings.label()
            );
            assert_eq!(e1.maximal, e2.maximal, "setting {}", settings.label());
        }
    }
}

#[test]
fn every_benchmark_schedule_sample_satisfies_the_mvrc_theory() {
    // Lemma 4.1 / Theorem 4.2 on executed histories of all three fixed benchmarks: random
    // interleavings of three LTP instances drawn with replacement, under every key layout.
    let variants = [
        KeyVariant::PerInstanceRows,
        KeyVariant::SeparateDeletes,
        KeyVariant::SharedDeletes,
        KeyVariant::RotatedDeletes,
    ];
    for workload in [smallbank(), auction(), tpcc()] {
        let ltps = unfold_set_le2(&workload.programs);
        let mut rng = StdRng::seed_from_u64(11);
        let mut checked = 0;
        for seed in 0..150u64 {
            let draw: Vec<&LinearProgram> = (0..3)
                .map(|_| &ltps[rng.gen_range(0..ltps.len())])
                .collect();
            let variant = variants[seed as usize % variants.len()];
            let Some(h) = random_run(&workload.schema, &draw, variant, seed) else {
                continue; // aborted on a write lock: nothing committed to judge
            };
            let verdict = check(&h);
            assert!(verdict.read_committed_ok, "{}: seed {seed}", workload.name);
            let report = h.report(&workload.schema);
            assert_eq!(report.counterflow_non_antidependency_edges, 0);
            assert_eq!(verdict.serializable, report.is_serializable());
            if let Some(anomaly) = &report.anomaly {
                assert!(anomaly.counterflow_edges_are_antidependencies());
            }
            checked += 1;
        }
        assert!(
            checked > 20,
            "{}: too few executed histories ({checked})",
            workload.name
        );
    }
}
