//! End-to-end tests of the `mvrc` command-line analyzer on the bundled workload files and the
//! built-in benchmarks.

use mvrc_cli::{run, CliError};

fn args(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

fn workload_path(file: &str) -> String {
    format!("{}/workloads/{file}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn analyzing_the_bundled_auction_file_matches_the_paper() {
    let path = workload_path("auction.sql");
    let out = run(&args(&["analyze", &path])).unwrap();
    assert_eq!(
        out.exit_code, 0,
        "the Auction workload is robust (Figure 6): {}",
        out.text
    );
    assert!(out.text.contains("robust against MVRC"));
    // Summary-graph size matches Table 2: 3 LTP nodes, 17 edges, 1 counterflow.
    assert!(
        out.text.contains("3 nodes, 17 edges (1 counterflow)"),
        "{}",
        out.text
    );
}

#[test]
fn the_auction_file_is_rejected_under_the_type_i_baseline() {
    // Figure 7: the baseline of Alomari & Fekete only detects the singleton subsets, so the full
    // workload must be rejected when the type-I condition is requested.
    let path = workload_path("auction.sql");
    let out = run(&args(&["analyze", &path, "--type1"])).unwrap();
    assert_eq!(out.exit_code, 1, "{}", out.text);
}

#[test]
fn the_auction_file_is_rejected_without_foreign_keys() {
    // Figure 6: without FK reasoning only {FindBids} is robust.
    let path = workload_path("auction.sql");
    let out = run(&args(&["analyze", &path, "--no-fk"])).unwrap();
    assert_eq!(out.exit_code, 1, "{}", out.text);
    let out = run(&args(&["subsets", &path, "--no-fk"])).unwrap();
    assert!(out.text.contains("FindBids"), "{}", out.text);
}

#[test]
fn subsets_and_graph_work_on_the_bundled_file() {
    let path = workload_path("auction.sql");
    let out = run(&args(&["subsets", &path])).unwrap();
    assert!(out.text.contains("maximal robust subsets"), "{}", out.text);
    let out = run(&args(&["graph", &path, "--labels"])).unwrap();
    assert!(out.text.starts_with("digraph"));
    // Exactly one counterflow (dashed) edge, from FindBids to PlaceBid[1] (Figure 4).
    let dashed: Vec<&str> = out
        .text
        .lines()
        .filter(|l| l.contains("style=dashed"))
        .collect();
    assert_eq!(dashed.len(), 1, "{}", out.text);
    assert!(out.text.contains("PlaceBid[1]"), "{}", out.text);
}

#[test]
fn the_shop_workload_parses_and_produces_a_verdict() {
    let path = workload_path("shop.sql");
    let out = run(&args(&["analyze", &path])).unwrap();
    assert!(out.exit_code == 0 || out.exit_code == 1);
    assert!(
        out.text.contains("workload:") && out.text.contains("shop"),
        "{}",
        out.text
    );
    let out = run(&args(&["programs", &path])).unwrap();
    assert!(out.text.contains("PlaceOrder"), "{}", out.text);
    assert!(out.text.contains("Restock"), "{}", out.text);
}

#[test]
fn json_output_round_trips_for_files_and_benchmarks() {
    let path = workload_path("auction.sql");
    let out = run(&args(&["analyze", &path, "--json"])).unwrap();
    let value: serde_json::Value = serde_json::from_str(&out.text).unwrap();
    assert_eq!(value["report"]["node_count"], 3);
    assert_eq!(value["report"]["edge_count"], 17);

    let out = run(&args(&["subsets", "--benchmark", "smallbank", "--json"])).unwrap();
    let value: serde_json::Value = serde_json::from_str(&out.text).unwrap();
    assert_eq!(value["workload"], "SmallBank");
    assert!(value["exploration"]["maximal"].as_array().unwrap().len() >= 3);
}

#[test]
fn tpcc_benchmark_reproduces_the_figure_6_subsets_from_the_cli() {
    let out = run(&args(&["subsets", "--benchmark", "tpcc"])).unwrap();
    for expected in ["OS", "Pay", "SL", "NO"] {
        assert!(
            out.text.contains(expected),
            "missing {expected}: {}",
            out.text
        );
    }
}

#[test]
fn missing_files_and_bad_flags_are_clean_errors() {
    let err = run(&args(&["analyze", "/nope/missing.sql"])).unwrap_err();
    assert!(matches!(err, CliError::Io { .. }));
    let err = run(&args(&["analyze", "--benchmark", "unknown-bench"])).unwrap_err();
    assert!(matches!(err, CliError::Usage(_)));
    let err = run(&args(&["analyze", "--frobnicate", "x.sql"])).unwrap_err();
    assert!(matches!(err, CliError::Usage(_)));
}

#[test]
fn malformed_workload_files_are_reported_with_context() {
    let dir = std::env::temp_dir();
    let path = dir.join("mvrc_cli_bad_workload.sql");
    std::fs::write(
        &path,
        "TABLE T (a); PROGRAM P() { UPDATE Nope SET x = 1 WHERE y = :z; }",
    )
    .unwrap();
    let err = run(&args(&["analyze", path.to_str().unwrap()])).unwrap_err();
    assert!(matches!(err, CliError::Workload(_)), "{err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn sweeps_beyond_the_program_limit_exit_2_with_one_line() {
    // Auction(25) has 50 programs, beyond the sweep limit of 20: both sweep commands refuse it
    // with a single-line error and exit code 2 instead of panicking.
    let dir = std::env::temp_dir().join(format!("mvrc-cli-too-wide-{}", std::process::id()));
    let dir = dir.to_str().unwrap();
    for command in [
        vec!["subsets", "--benchmark", "auction-n=25"],
        vec!["shard", "plan", "--benchmark", "auction-n=25", "--dir", dir],
    ] {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_mvrc"))
            .args(&command)
            .output()
            .expect("spawn mvrc");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{command:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{command:?}: {stderr}");
        assert!(
            stderr.contains("50 programs exceed the limit of 20"),
            "{command:?}: {stderr}"
        );
        assert!(output.stdout.is_empty(), "{command:?}");
    }
    assert!(
        !std::path::Path::new(dir).exists(),
        "the plan is refused before the directory is created"
    );
}

#[test]
fn unrealized_certify_verdicts_exit_1_and_stay_json_under_json() {
    // The analyzer rejects this one-statement workload, but no witness realizes as a rejected
    // execution: the verdict stands uncertified, and `--json` must still print JSON.
    let path = std::env::temp_dir().join(format!("mvrc-cli-unrealized-{}.sql", std::process::id()));
    std::fs::write(
        &path,
        "TABLE R0 (a0, a1, PRIMARY KEY (a0));\n\
         PROGRAM P0(:X) { UPDATE R0 SET a1 = a1 + 1 WHERE a0 < :X; }\n",
    )
    .unwrap();
    let path_str = path.to_str().unwrap();

    let output = std::process::Command::new(env!("CARGO_BIN_EXE_mvrc"))
        .args(["certify", path_str, "--json"])
        .output()
        .expect("spawn mvrc");
    assert_eq!(output.status.code(), Some(1));
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    let value: serde_json::Value =
        serde_json::from_str(&stdout).expect("certify --json prints JSON");
    assert_eq!(value["robust"].as_bool(), Some(false));
    assert_eq!(value["programs"][0].as_str(), Some("P0"));
    assert_eq!(value["unrealized_witnesses"].as_u64(), Some(1));
    for field in ["workload", "settings", "condition"] {
        assert!(value[field].as_str().is_some(), "missing `{field}`");
    }

    let out = run(&args(&["certify", path_str])).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(out.exit_code, 1);
    assert!(out.text.contains("NOT ROBUST"), "{}", out.text);
    assert_eq!(out.text.matches(", but").count(), 0, "{}", out.text);
}
