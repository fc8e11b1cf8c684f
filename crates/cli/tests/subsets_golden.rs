//! Golden `mvrc subsets --json` verdicts: the program list, the robust family and the maximal
//! robust subsets of each bundled benchmark, pinned under both cycle conditions. The work
//! counters (`cycle_tests`, `pruned`, `reused`) are deliberately not pinned — how the sweep
//! reaches its verdicts may change, the verdicts may not.
//!
//! The robust family is stored as a hex bitset over the subset masks (mask `m` is robust ⇔ bit
//! `m` is set; nibble `i` covers masks `4i..4i + 3`), so the 65,535-subset Auction(8) sweep
//! stays a one-line fixture. Together with the check that `robust` is emitted in ascending
//! order, this pins the `robust` array's bytes exactly.
//!
//! Regenerate intentionally with `MVRC_BLESS=1 cargo test -p mvrc-cli --test subsets_golden`.

use mvrc_cli::run;
use serde_json::Value;
use std::fmt::Write as _;
use std::path::PathBuf;

fn index_list(value: &Value) -> Vec<usize> {
    value
        .as_array()
        .expect("a subset is an array")
        .iter()
        .map(|i| i.as_u64().expect("a program index") as usize)
        .collect()
}

/// Renders the pinned part of one exploration: programs, the robust bitset and the maximal
/// subsets, one subset per line.
fn render_fixture(exploration: &Value) -> String {
    let programs: Vec<&str> = exploration["programs"]
        .as_array()
        .expect("programs")
        .iter()
        .map(|p| p.as_str().expect("a program name"))
        .collect();
    let robust: Vec<Vec<usize>> = exploration["robust"]
        .as_array()
        .expect("robust")
        .iter()
        .map(index_list)
        .collect();
    assert!(
        robust.windows(2).all(|pair| pair[0] < pair[1]),
        "`robust` must be emitted in strictly ascending order"
    );
    let maximal: Vec<Vec<usize>> = exploration["maximal"]
        .as_array()
        .expect("maximal")
        .iter()
        .map(index_list)
        .collect();

    let mut bits = vec![0u8; (1usize << programs.len()).div_ceil(4)];
    for subset in &robust {
        let mask: usize = subset.iter().map(|&i| 1usize << i).sum();
        bits[mask / 4] |= 1 << (mask % 4);
    }
    let bitset: String = bits.iter().map(|nibble| format!("{nibble:x}")).collect();

    let mut out = String::new();
    writeln!(out, "{{").unwrap();
    writeln!(
        out,
        "  \"programs\": {},",
        serde_json::to_string(&programs).unwrap()
    )
    .unwrap();
    writeln!(out, "  \"robust_count\": {},", robust.len()).unwrap();
    writeln!(out, "  \"robust_bitset\": \"{bitset}\",").unwrap();
    writeln!(out, "  \"maximal\": [").unwrap();
    for (i, subset) in maximal.iter().enumerate() {
        let comma = if i + 1 < maximal.len() { "," } else { "" };
        writeln!(out, "    {}{comma}", serde_json::to_string(subset).unwrap()).unwrap();
    }
    writeln!(out, "  ]").unwrap();
    writeln!(out, "}}").unwrap();
    out
}

/// Runs `mvrc subsets --benchmark <benchmark> --json [--type1]` and compares the pinned
/// fields against `tests/golden/<fixture>`. With `MVRC_BLESS=1` the fixture is rewritten.
fn pin(benchmark: &str, type1: bool, fixture: &str) {
    let mut args = vec!["subsets", "--benchmark", benchmark, "--json"];
    if type1 {
        args.push("--type1");
    }
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let out = run(&args).unwrap();
    assert_eq!(out.exit_code, 0, "{benchmark}: {}", out.text);
    let value: Value = serde_json::from_str(&out.text).expect("subsets --json parses");
    let rendered = render_fixture(&value["exploration"]);

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(fixture);
    if std::env::var_os("MVRC_BLESS").is_some() {
        std::fs::write(&path, &rendered).expect("write fixture");
        return;
    }
    let pinned = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {fixture} ({e}); run with MVRC_BLESS=1"));
    assert_eq!(
        rendered, pinned,
        "{benchmark}: subsets verdicts drifted from {fixture}; \
         if intentional, regenerate with MVRC_BLESS=1"
    );
}

#[test]
fn smallbank_subsets_are_pinned() {
    pin("smallbank", false, "subsets.smallbank.type2.json");
    pin("smallbank", true, "subsets.smallbank.type1.json");
}

#[test]
fn tpcc_subsets_are_pinned() {
    pin("tpcc", false, "subsets.tpcc.type2.json");
    pin("tpcc", true, "subsets.tpcc.type1.json");
}

#[test]
fn ycsbt_subsets_are_pinned() {
    pin("ycsb-t", false, "subsets.ycsbt.type2.json");
    pin("ycsb-t", true, "subsets.ycsbt.type1.json");
}

#[test]
fn auction_n8_subsets_are_pinned() {
    pin("auction-n=8", false, "subsets.auction-n8.type2.json");
    pin("auction-n=8", true, "subsets.auction-n8.type1.json");
}
