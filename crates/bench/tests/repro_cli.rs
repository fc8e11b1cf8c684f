//! The `repro` command line: bad commands, flags and `--max` values exit 2 with the usage
//! line instead of being ignored, and `--json` output parses.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro")
}

#[test]
fn bad_arguments_exit_2_with_the_usage_line() {
    for args in [
        &["bench-subsets"][..],
        &["figure8", "--max", "x"],
        &["figure8", "--max", "0"],
        &["figure8", "--max"],
        &["figure8", "--mx", "20"],
        &["table2", "--out", "rows.json"],
        &["table2", "--threads", "2"],
    ] {
        let output = repro(args);
        assert_eq!(output.status.code(), Some(2), "repro {args:?}");
        let stderr = String::from_utf8(output.stderr).expect("UTF-8 stderr");
        assert!(stderr.contains("usage: repro"), "repro {args:?}: {stderr}");
        assert!(output.stdout.is_empty(), "repro {args:?} printed output");
    }
}

#[test]
fn table2_json_has_one_row_per_paper_benchmark() {
    let output = repro(&["table2", "--json"]);
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 stdout");
    let rows: serde_json::Value = serde_json::from_str(&stdout).expect("JSON output");
    let benchmarks: Vec<&str> = rows
        .as_array()
        .expect("array of rows")
        .iter()
        .map(|row| row["benchmark"].as_str().expect("benchmark name"))
        .collect();
    assert_eq!(benchmarks, ["SmallBank", "TPC-C", "Auction"]);
}
