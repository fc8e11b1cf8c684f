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
    // Auction(25) has 50 programs, beyond the sweep limit of 20: both sweep invocations refuse
    // it with a single-line error and exit code 2 instead of panicking.
    let snapshot =
        std::env::temp_dir().join(format!("mvrc-cli-too-wide-{}.mvrcsnap", std::process::id()));
    let snapshot = snapshot.to_str().unwrap();
    for command in [
        vec!["subsets", "--benchmark", "auction-n=25"],
        vec![
            "subsets",
            "--benchmark",
            "auction-n=25",
            "--snapshot",
            snapshot,
        ],
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
        !std::path::Path::new(snapshot).exists(),
        "the sweep is refused before the snapshot is written"
    );
}

/// A one-table file whose program nests `depth` `WHILE` loops with one `UPDATE` per level.
fn nested_while_file(depth: usize) -> String {
    let mut sql = String::from("TABLE T (id, a, PRIMARY KEY (id));\nPROGRAM P(:x) {\n");
    for _ in 0..depth {
        sql.push_str("WHILE :x DO\n  UPDATE T SET a = a + 1 WHERE id = :x;\n");
    }
    sql.push_str(&"END WHILE;\n".repeat(depth));
    sql + "}\n"
}

#[test]
fn programs_beyond_the_ltp_limit_exit_2_with_one_line() {
    // Depth 4 unfolds to 33,673 LTPs, depth 5 to over 10^9; both are refused before anything is
    // unfolded, while depth 3 (183 LTPs) is analyzed.
    for (depth, ltps) in [(3, None), (4, Some(33_673)), (5, Some(1_133_904_603))] {
        let path = std::env::temp_dir().join(format!(
            "mvrc-cli-nested-{depth}-{}.sql",
            std::process::id()
        ));
        std::fs::write(&path, nested_while_file(depth)).unwrap();
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_mvrc"))
            .args(["analyze", path.to_str().unwrap()])
            .output()
            .expect("spawn mvrc");
        std::fs::remove_file(&path).ok();
        let stderr = String::from_utf8_lossy(&output.stderr);
        let Some(ltps) = ltps else {
            assert!(output.status.success(), "depth {depth}: {stderr}");
            continue;
        };
        assert_eq!(output.status.code(), Some(2), "depth {depth}: {stderr}");
        assert_eq!(
            stderr,
            format!(
                "mvrc: invalid workload: program `P` unfolds to {ltps} LTPs under Unfold≤2, \
                 more than the limit of {}\n",
                mvrc_btp::sql::MAX_PROGRAM_LTPS
            )
        );
        assert!(output.stdout.is_empty());
    }
}

#[test]
fn workloads_beyond_the_total_ltp_limit_exit_2_with_one_line() {
    // Four programs of nine optional updates: 512 LTPs each, every one within the per-program
    // limit, 2,048 together. Algorithm 1's graph over them used to abort the process asking
    // for a 5 GB `Vec`; the budget refuses the 1.2 KB file before anything is unfolded.
    let program = |i: usize| {
        format!(
            "PROGRAM P{i}(:x) {{\n{}}}\n",
            "  IF :x THEN UPDATE T SET a = a + 1 WHERE id = :x; END IF;\n".repeat(9)
        )
    };
    let sql = format!(
        "TABLE T (id, a, PRIMARY KEY (id));\n{}",
        (0..4).map(program).collect::<String>()
    );
    let path = std::env::temp_dir().join(format!("mvrc-cli-wide-{}.sql", std::process::id()));
    std::fs::write(&path, sql).unwrap();
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_mvrc"))
        .args(["analyze", path.to_str().unwrap()])
        .output()
        .expect("spawn mvrc");
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert_eq!(
        stderr,
        format!(
            "mvrc: invalid workload: the workload's programs unfold to 2048 LTPs under \
             Unfold≤2, more than the workload limit of {}\n",
            mvrc_btp::sql::MAX_WORKLOAD_LTPS
        )
    );
    assert!(output.stdout.is_empty());
}

#[test]
fn a_program_beyond_the_edge_bound_exits_2_with_one_line() {
    // One LTP of 12,000 key-based updates of one table: within every LTP limit, but Algorithm
    // 1's graph over it used to abort the process asking for a 5 GB `Vec`; the edge bound
    // refuses the 480 KB file before anything is unfolded.
    let sql = format!(
        "TABLE T (id, a, PRIMARY KEY (id));\nPROGRAM P(:x) {{\n{}}}\n",
        "UPDATE T SET a = a + 1 WHERE id = :x;\n".repeat(12_000)
    );
    let path = std::env::temp_dir().join(format!("mvrc-cli-long-{}.sql", std::process::id()));
    std::fs::write(&path, sql).unwrap();
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_mvrc"))
        .args(["analyze", path.to_str().unwrap()])
        .output()
        .expect("spawn mvrc");
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert_eq!(
        stderr,
        format!(
            "mvrc: invalid workload: the workload's LTPs may give up to 288000000 \
             summary-graph edges, more than the edge limit of {}\n",
            mvrc_btp::sql::MAX_WORKLOAD_EDGES
        )
    );
    assert!(output.stdout.is_empty());
}

/// Writes `sql` to a temporary file, runs `mvrc analyze` on it and returns the exit code, the
/// stdout and the stderr.
fn analyze_text(name: &str, sql: &str) -> (Option<i32>, String, String) {
    let path = std::env::temp_dir().join(format!("mvrc-cli-{name}-{}.sql", std::process::id()));
    std::fs::write(&path, sql).unwrap();
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_mvrc"))
        .args(["analyze", path.to_str().unwrap()])
        .output()
        .expect("spawn mvrc");
    std::fs::remove_file(&path).ok();
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

/// 1,000 tables; program `P` of `selects` reads spread over them and one update of `T999`,
/// and program `R` reading `T999`.
fn many_statements_file(selects: usize) -> String {
    let mut sql = String::new();
    for k in 0..1000 {
        sql.push_str(&format!("TABLE T{k} (a, b);\n"));
    }
    sql.push_str("PROGRAM P(:x, :v) {\n");
    for k in 0..selects {
        sql.push_str(&format!("SELECT b FROM T{} WHERE a = :x;\n", k % 1000));
    }
    sql.push_str("UPDATE T999 SET b = :v WHERE a = :x;\n}\n");
    sql.push_str("PROGRAM R(:x) { SELECT b FROM T999 WHERE a = :x; }\n");
    sql
}

#[test]
fn ids_past_16_bits_exit_2_with_one_line() {
    // 65,537 statements: the last one, the only update, used to be numbered like the first
    // select, and the file was reported robust with no edges.
    let (code, stdout, stderr) = analyze_text("statements", &many_statements_file(65_536));
    assert_eq!(code, Some(2), "{stderr}");
    assert_eq!(
        stderr,
        "mvrc: invalid workload: program `P` declares 65537 statements, more than the limit \
         of 65536\n"
    );
    assert!(stdout.is_empty());

    // 65,537 tables: `T65536` used to be numbered like `T0`.
    let mut sql = String::new();
    for k in 0..=65_536 {
        sql.push_str(&format!("TABLE T{k} (a, b);\n"));
    }
    sql.push_str("PROGRAM P(:x, :v) { UPDATE T65536 SET b = :v WHERE a = :x; }\n");
    let (code, stdout, stderr) = analyze_text("relations", &sql);
    assert_eq!(code, Some(2), "{stderr}");
    assert_eq!(
        stderr,
        "mvrc: invalid workload: SQL parse error at line 65537, column 7: invalid TABLE \
         `T65536`: the schema already declares 65536 relations, the most it can hold\n"
    );
    assert!(stdout.is_empty());
}

#[test]
fn a_straight_line_program_of_65536_statements_is_analyzed() {
    // 65,535 reads spread over `T0`..`T998`, then one update of `T999`: the most statements a
    // program may declare, in one sequence. `Unfold≤2` must be linear in them: copying the
    // sequence prefix per statement takes ~16 s here.
    let mut sql = String::new();
    for k in 0..1000 {
        sql.push_str(&format!("TABLE T{k} (a, b);\n"));
    }
    sql.push_str("PROGRAM P(:x, :v) {\n");
    for k in 0..65_535 {
        sql.push_str(&format!("SELECT b FROM T{} WHERE a = :x;\n", k % 999));
    }
    sql.push_str("UPDATE T999 SET b = :v WHERE a = :x;\n}\n");
    let (code, stdout, stderr) = analyze_text("straight", &sql);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
    for line in [
        "unfolded LTPs:      1",
        "summary graph:      1 nodes, 1 edges (0 counterflow)",
        "verdict:            robust against MVRC (type-II condition)",
    ] {
        assert!(stdout.contains(line), "{stdout}");
    }
}

/// Runs `mvrc` with `args` and returns its stdout, failing the test on a non-zero exit.
fn mvrc_stdout(args: &[&str]) -> String {
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_mvrc"))
        .args(args)
        .output()
        .expect("spawn mvrc");
    assert!(
        output.status.success(),
        "{args:?} exited with {:?}: {}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("UTF-8 output")
}

#[test]
fn subsets_snapshot_boots_a_warm_tenant_that_serves_the_same_reply() {
    // `subsets --snapshot F` writes the analyzed session; a daemon tenant opened from `F`
    // builds no graph and answers `explore_subsets` with the bytes of `subsets --json`.
    let snapshot =
        std::env::temp_dir().join(format!("mvrc-cli-snapshot-{}.mvrcsnap", std::process::id()));
    std::fs::remove_file(&snapshot).ok();
    let offline = mvrc_stdout(&[
        "subsets",
        "--benchmark",
        "smallbank",
        "--json",
        "--snapshot",
        snapshot.to_str().unwrap(),
    ]);
    assert_eq!(
        offline,
        mvrc_stdout(&["subsets", "--benchmark", "smallbank", "--json"]),
        "--snapshot does not change the output"
    );

    let tenant = mvrc_serve::Tenant::from_path("bank", &snapshot).expect("tenant boots");
    let boot = tenant.boot();
    assert!(boot.is_warm(), "{boot:?}");
    assert_eq!(boot.constructions, 0);
    let config = mvrc_serve::ServeConfig {
        listen: "127.0.0.1:0".to_string(),
        port_file: None,
        persist_secs: None,
    };
    let server = mvrc_serve::Server::bind(&config, vec![tenant]).expect("bind");
    let addr = server.local_addr().expect("addr");
    let daemon = std::thread::spawn(move || server.run());
    let mut client = mvrc_serve::Client::connect(addr).expect("connect");
    let reply = client
        .call(&serde_json::json!({"op": "explore_subsets", "tenant": "bank"}))
        .expect("explore_subsets");
    client
        .call(&serde_json::json!({"op": "shutdown"}))
        .expect("shutdown");
    daemon.join().expect("daemon thread").expect("clean drain");
    std::fs::remove_file(&snapshot).ok();
    let served = serde_json::to_string_pretty(&reply).unwrap() + "\n";
    assert_eq!(served, offline);
}

#[test]
fn a_closed_stdout_ends_the_output_quietly() {
    // A reader that stops early (`mvrc … | head -c1`): the write fails with a broken pipe,
    // which is not a panic.
    use std::process::{Command, Stdio};
    let mut child = Command::new(env!("CARGO_BIN_EXE_mvrc"))
        .args(["subsets", "--benchmark", "auction-n=8", "--json"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn mvrc");
    drop(child.stdout.take());
    let output = child.wait_with_output().expect("wait for mvrc");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_ne!(output.status.code(), Some(101), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn a_closed_stderr_keeps_the_exit_code_of_the_error() {
    // `mvrc analyze missing.sql 2>&1 | (exec 0<&-; …)`: the error line cannot be written, which
    // is not a panic; the exit code still reports the error.
    use std::process::{Command, Stdio};
    let mut child = Command::new(env!("CARGO_BIN_EXE_mvrc"))
        .args(["analyze", "/nonexistent/mvrc-closed-stderr.sql"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn mvrc");
    drop(child.stderr.take());
    let status = child.wait().expect("wait for mvrc");
    assert_eq!(status.code(), Some(2));
}

#[test]
fn uncertified_subsets_list_the_witnesses_they_tried() {
    // SmallBank {Balance, DepositChecking} under the type-I condition: the analyzer rejects it
    // (the subset is robust under type-II, so this is a false alarm of the weaker test), and
    // the witness compiler realizes none of its witnesses. The verdict lists them, and they
    // are the analyzer's own.
    let subset = ["Balance", "DepositChecking"];
    let run_certify = |format: &[&str]| {
        let mut parts = vec![
            "certify",
            "--benchmark",
            "smallbank",
            "--type1",
            "--programs",
        ];
        let names = subset.join(",");
        parts.push(&names);
        parts.extend_from_slice(format);
        run(&args(&parts)).unwrap()
    };
    let json = run_certify(&["--json"]);
    let text_out = run_certify(&[]);

    // The witnesses of the analyzer, rendered as the certificate renders its witness.
    let session = mvrc_robustness::RobustnessSession::new(mvrc_benchmarks::smallbank());
    let settings = mvrc_robustness::AnalysisSettings {
        condition: mvrc_robustness::CycleCondition::TypeI,
        ..mvrc_robustness::AnalysisSettings::paper_default()
    };
    let graph = session.graph(settings);
    let view = graph.induced_for_programs(&subset).unwrap();
    let edge = |role: &str, e: mvrc_robustness::SummaryEdge| {
        serde_json::json!({
            "role": role,
            "from": graph.node(e.from as usize).name(),
            "from_stmt": e.from_stmt,
            "to": graph.node(e.to as usize).name(),
            "to_stmt": e.to_stmt,
        })
    };
    let expected: Vec<serde_json::Value> =
        mvrc_robustness::all_violations_in(&view, settings.condition)
            .into_iter()
            .map(|violation| match violation {
                mvrc_robustness::Violation::TypeI(w) => {
                    serde_json::json!([edge("counterflow", w.counterflow_edge)])
                }
                mvrc_robustness::Violation::TypeII(w) => serde_json::json!([
                    edge("non-counterflow", w.non_counterflow_edge),
                    edge("middle", w.middle_edge),
                    edge("counterflow", w.counterflow_edge),
                ]),
            })
            .collect();
    assert!(!expected.is_empty());

    assert_eq!(json.exit_code, 1, "{}", json.text);
    let value: serde_json::Value = serde_json::from_str(&json.text).unwrap();
    assert_eq!(value["robust"].as_bool(), Some(false));
    assert_eq!(
        value["unrealized_witnesses"].as_u64(),
        Some(expected.len() as u64)
    );
    assert_eq!(
        value["witnesses"],
        serde_json::Value::Array(expected.clone())
    );

    assert_eq!(text_out.exit_code, 1);
    for (k, witness) in expected.iter().enumerate() {
        assert!(text_out
            .text
            .contains(&format!("witness {} of {}:", k + 1, expected.len())));
        for e in witness.as_array().unwrap() {
            let line = format!(
                "{}[{}] -> {}[{}]",
                e["from"].as_str().unwrap(),
                e["from_stmt"].as_u64().unwrap(),
                e["to"].as_str().unwrap(),
                e["to_stmt"].as_u64().unwrap()
            );
            assert!(text_out.text.contains(&line), "{line} in {}", text_out.text);
        }
    }
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
