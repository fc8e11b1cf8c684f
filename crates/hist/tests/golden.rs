//! Golden certificate fixtures: the full-mix certification outcome of each paper benchmark,
//! plus two SmallBank subsets that pin the seeded random interleavings (a certificate realized
//! by the compiler's random fallback, and an attestation whose run counts follow `random_run`),
//! byte-pinned. A diff here means the witness compiler, the interleaving schedule, the checker,
//! the JSON shape, or the analyzer verdict changed — all of which certificate consumers depend
//! on.
//!
//! Regenerate intentionally with `MVRC_BLESS=1 cargo test -p mvrc-hist --test golden`.

use mvrc_benchmarks::{auction, smallbank, tpcc, ycsb_t, YcsbtConfig};
use mvrc_hist::{certify_subset, CertifyOutcome};
use mvrc_robustness::{AnalysisSettings, CycleCondition, RobustnessSession};
use std::path::PathBuf;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Certifies (or attests) `programs` of `workload` (every program when empty) under `settings`
/// and compares the JSON byte-for-byte against the named fixture. With `MVRC_BLESS=1` the
/// fixture is rewritten instead.
fn pin(
    workload: mvrc_btp::Workload,
    programs: &[&str],
    settings: AnalysisSettings,
    fixture: &str,
    expect_certified: bool,
) {
    let session = RobustnessSession::new(workload);
    let label = session.workload().name.clone();
    let all: Vec<&str> = session.program_names().iter().map(String::as_str).collect();
    let refs = if programs.is_empty() { &all } else { programs };
    let outcome = certify_subset(&session, &label, refs, settings)
        .unwrap_or_else(|e| panic!("{label}: certification must not error: {e}"));
    assert_eq!(
        outcome.is_certified(),
        expect_certified,
        "{label}: unexpected robustness verdict"
    );
    if let CertifyOutcome::Certified(c) = &outcome {
        assert!(!c.realization.verdict.serializable);
        assert!(c.realization.find_anomaly_agrees);
    }
    let json = outcome.to_json_pretty();
    let path = fixture_path(fixture);
    if std::env::var_os("MVRC_BLESS").is_some() {
        std::fs::write(&path, &json).expect("write fixture");
        return;
    }
    let pinned = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {} ({e}); run with MVRC_BLESS=1", fixture));
    assert_eq!(
        json, pinned,
        "{label}: certificate drifted from the pinned fixture {fixture}; \
         if intentional, regenerate with MVRC_BLESS=1"
    );
}

#[test]
fn smallbank_full_mix_certificate_is_pinned() {
    pin(
        smallbank(),
        &[],
        AnalysisSettings::paper_default(),
        "smallbank.cert.json",
        true,
    );
}

#[test]
fn tpcc_full_mix_certificate_is_pinned() {
    pin(
        tpcc(),
        &[],
        AnalysisSettings::paper_default(),
        "tpcc.cert.json",
        true,
    );
}

#[test]
fn ycsbt_full_mix_certificate_is_pinned() {
    pin(
        ycsb_t(YcsbtConfig::default()),
        &[],
        AnalysisSettings::paper_default(),
        "ycsbt.cert.json",
        true,
    );
}

#[test]
fn auction_full_mix_attestation_is_pinned() {
    pin(
        auction(),
        &[],
        AnalysisSettings::paper_default(),
        "auction.attest.json",
        false,
    );
}

#[test]
fn smallbank_type1_certificate_from_the_random_fallback_is_pinned() {
    // No split schedule of this witness yields a rejected history; the seeded random fallback
    // over the full subset does.
    let settings = AnalysisSettings {
        condition: CycleCondition::TypeI,
        ..AnalysisSettings::paper_default()
    };
    pin(
        smallbank(),
        &["Balance", "DepositChecking", "TransactSavings"],
        settings,
        "smallbank_bal_dc_ts_type1.cert.json",
        true,
    );
}

#[test]
fn smallbank_robust_subset_attestation_is_pinned() {
    pin(
        smallbank(),
        &["Amalgamate", "DepositChecking", "TransactSavings"],
        AnalysisSettings::paper_default(),
        "smallbank_am_dc_ts.attest.json",
        false,
    );
}
