//! Golden `mvrc analyze --json` outputs: the verdict, the graph size and the type-II / type-I
//! witness (edges and the rendered `violation_description` line) of each bundled benchmark,
//! byte-pinned under both cycle conditions. A diff here means the cycle test chose a
//! different witness or the JSON shape changed.
//!
//! Regenerate intentionally with `MVRC_BLESS=1 cargo test -p mvrc-cli --test analyze_golden`.

use mvrc_cli::run;
use std::path::PathBuf;

/// Runs `mvrc analyze --benchmark <benchmark> --json [--type1]` and compares the output
/// byte-for-byte against `tests/golden/<fixture>`. With `MVRC_BLESS=1` the fixture is
/// rewritten instead.
fn pin(benchmark: &str, type1: bool, fixture: &str, expect_exit: i32) {
    let mut args = vec!["analyze", "--benchmark", benchmark, "--json"];
    if type1 {
        args.push("--type1");
    }
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let out = run(&args).unwrap();
    assert_eq!(out.exit_code, expect_exit, "{benchmark}: {}", out.text);
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(fixture);
    if std::env::var_os("MVRC_BLESS").is_some() {
        std::fs::write(&path, &out.text).expect("write fixture");
        return;
    }
    let pinned = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {fixture} ({e}); run with MVRC_BLESS=1"));
    assert_eq!(
        out.text, pinned,
        "{benchmark}: analyze output drifted from {fixture}; \
         if intentional, regenerate with MVRC_BLESS=1"
    );
}

#[test]
fn smallbank_analysis_is_pinned() {
    pin("smallbank", false, "smallbank.type2.json", 1);
    pin("smallbank", true, "smallbank.type1.json", 1);
}

#[test]
fn tpcc_analysis_is_pinned() {
    pin("tpcc", false, "tpcc.type2.json", 1);
    pin("tpcc", true, "tpcc.type1.json", 1);
}

#[test]
fn ycsbt_analysis_is_pinned() {
    pin("ycsb-t", false, "ycsbt.type2.json", 1);
    pin("ycsb-t", true, "ycsbt.type1.json", 1);
}

#[test]
fn auction_n40_analysis_is_pinned() {
    pin("auction-n=40", false, "auction-n40.type2.json", 0);
    pin("auction-n=40", true, "auction-n40.type1.json", 1);
}
