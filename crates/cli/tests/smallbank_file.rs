//! The SmallBank workload file through the CLI: `mvrc analyze` rejects the full mix and
//! `mvrc subsets` finds the three maximal robust subsets of Figure 6.

use mvrc_cli::run;

fn args(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

fn file_path() -> String {
    format!("{}/workloads/smallbank.sql", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn analyzing_the_smallbank_file_rejects_the_full_mix() {
    let path = file_path();
    let out = run(&args(&["analyze", &path])).unwrap();
    assert_eq!(out.exit_code, 1, "{}", out.text);
    let out = run(&args(&["subsets", &path, "--json"])).unwrap();
    let value: serde_json::Value = serde_json::from_str(&out.text).unwrap();
    let maximal = value["exploration"]["maximal"].as_array().unwrap();
    assert_eq!(
        maximal.len(),
        3,
        "three maximal robust subsets (Figure 6): {}",
        out.text
    );
}
