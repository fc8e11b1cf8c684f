//! The benchmark's self-test at a tiny run length: every workload runs, answers correctly and
//! reports exactly the metrics `BENCHMARK.json` names, with their units; bad arguments fail
//! without a result. (That a wrong expected answer counts as a failure is a unit test in
//! `src/cold_verdict.rs`.)
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;
use std::process::{Command, Output};

use serde_json::Value;

const WORKLOADS: [&str; 4] = [
    "cold-verdict",
    "subset-sweep",
    "serve-mixed",
    "certify-audit",
];

fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mvrc-perfbench"))
        .args(args)
        .current_dir(package_dir().join(".."))
        .output()
        .expect("the benchmark starts")
}

/// One run. A traced run needs 2 s: it alternates untraced and traced cycles over the inputs,
/// and the longest cycle takes about a second.
fn run(workload: &str, seconds: &str, trace: &str) -> Value {
    let out = bench(&[
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        seconds,
        "--trace",
        trace,
    ]);
    assert!(out.status.success(), "{workload}: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the last line is JSON")
}

/// `(name, unit)` of every metric of one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = package_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Value::as_array)
        .expect("the section is a list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect("string field");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

fn assert_reports(result: &Value, expected: &[(String, String)], what: &str) {
    assert_eq!(
        result.get("correct").and_then(Value::as_bool),
        Some(true),
        "{what}: {result:?}"
    );
    assert_eq!(
        result.get("failed").and_then(Value::as_u64),
        Some(0),
        "{what}"
    );
    assert!(
        result.get("attempted").and_then(Value::as_u64) >= Some(1),
        "{what}"
    );
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object");
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let wanted: Vec<&str> = expected.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, wanted, "{what}: metric names");
    for ((name, metric), (_, unit)) in metrics.iter().zip(expected) {
        assert!(
            metric.get("value").and_then(Value::as_f64).is_some(),
            "{what}: {name} has no numeric value"
        );
        assert_eq!(
            metric.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{what}: {name} unit"
        );
    }
}

#[test]
fn every_workload_reports_every_named_metric() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for workload in WORKLOADS {
        let result = run(workload, "0.3", "0");
        assert_reports(&result, &end_to_end, workload);
        let value = |name: &str| result["metrics"][name]["value"].as_f64().unwrap_or(0.0);
        for name in ["setup_s", "ops_per_s", "latency_p50_ms", "peak_rss_mb"] {
            assert!(value(name) > 0.0, "{workload}: {name} must not be 0");
        }
        let traced = run(workload, "2", "1");
        assert_reports(&traced, &per_layer, &format!("{workload} (traced)"));
        let traced_value = |name: &str| traced["metrics"][name]["value"].as_f64().unwrap_or(0.0);
        assert!(
            traced_value("bench.op_us") > 0.0,
            "{workload}: no traced operation"
        );
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "cold-verdict", "--seed", "1"][..],
        &[
            "--workload",
            "cold-verdict",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ][..],
    ] {
        let out = bench(args);
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
