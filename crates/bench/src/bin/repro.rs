//! `repro` — regenerates every table and figure of the paper's evaluation (Section 7).
//!
//! ```text
//! repro table2                 Table 2   benchmark characteristics
//! repro figure6                Figure 6  robust subsets via Algorithm 2 (type-II cycles)
//! repro figure7                Figure 7  robust subsets via type-I cycles (Alomari & Fekete)
//! repro figure8 [--max N]      Figure 8  Auction(n) scalability sweep (10 repetitions, n ≤ N)
//! repro figure4                Figure 4  summary graph of the Auction example (DOT)
//! repro graphs                 Figures 11/18: DOT summary graphs for SmallBank and TPC-C
//! repro all                    table2, figure6-8 (figure8 up to n = 50 unless --max), figure4
//! ```
//!
//! Add `--json` to emit machine-readable output for `table2`, `figure6`, `figure7` and
//! `figure8`. A bad command, flag or `--max` value exits 2 with the usage line. Timing the
//! analyzer is perfbench's job (`perfbench/README.md`); Figure 8's times only reproduce the
//! paper's figure.

use mvrc_bench::{figure6, figure7, figure8, table2};
use mvrc_benchmarks::{auction, smallbank, tpcc};
use mvrc_robustness::{to_dot, AnalysisSettings, DotOptions, RobustnessSession};

const USAGE: &str =
    "usage: repro [table2|figure6|figure7|figure8|figure4|graphs|all] [--max N] [--json]";

/// The scaling factors Figure 8 sweeps; `--max N` keeps those `≤ N`.
const FIGURE8_NS: [usize; 8] = [5, 10, 20, 30, 40, 50, 75, 100];

/// The parsed command line.
struct Options {
    command: String,
    json: bool,
    max_n: usize,
}

/// Parses `repro [COMMAND] [--max N] [--json]`; every other argument is an error.
fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut args = args.iter();
    let mut options = Options {
        command: args.next().cloned().unwrap_or_else(|| "all".to_string()),
        json: false,
        max_n: 50,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => options.json = true,
            "--max" => {
                let value = args.next().map(String::as_str).unwrap_or("");
                options.max_n = value
                    .parse()
                    .ok()
                    .filter(|&n| n >= FIGURE8_NS[0])
                    .ok_or_else(|| {
                        let least = FIGURE8_NS[0];
                        format!("--max needs an integer n ≥ {least} (Figure 8's least n), got `{value}`")
                    })?;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(options)
}

fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Options {
        command,
        json,
        max_n,
    } = parse_args(&args).unwrap_or_else(|message| usage_error(&message));

    match command.as_str() {
        "table2" => print_table2(json),
        "figure6" => print_figure6(json),
        "figure7" => print_figure7(json),
        "figure8" => print_figure8(max_n, json),
        "figure4" => print_figure4(),
        "graphs" => print_graphs(),
        "all" => {
            print_table2(json);
            print_figure6(json);
            print_figure7(json);
            print_figure8(max_n, json);
            print_figure4();
        }
        other => usage_error(&format!("unknown command `{other}`")),
    }
}

fn print_table2(json: bool) {
    let rows = table2();
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&rows).expect("serializable rows")
        );
        return;
    }
    println!("== Table 2: benchmark characteristics (attr dep + FK summary graphs) ==");
    for row in &rows {
        println!("  {}", row.render());
    }
    println!("  Auction(n)   nodes=3n  edges=9n^2+8n (n counterflow)   [validated in tests]");
    println!();
}

fn print_figure6(json: bool) {
    let rows = figure6();
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&rows).expect("serializable rows")
        );
        return;
    }
    println!("== Figure 6: maximal robust subsets, Algorithm 2 (no type-II cycle) ==");
    print!("{}", mvrc_bench::figures::render_subset_rows(&rows));
    println!();
}

fn print_figure7(json: bool) {
    let rows = figure7();
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&rows).expect("serializable rows")
        );
        return;
    }
    println!("== Figure 7: maximal robust subsets, type-I condition of [Alomari & Fekete] ==");
    print!("{}", mvrc_bench::figures::render_subset_rows(&rows));
    println!();
}

fn print_figure8(max_n: usize, json: bool) {
    let ns: Vec<usize> = FIGURE8_NS.into_iter().filter(|&n| n <= max_n).collect();
    let rows = figure8(&ns, 10);
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&rows).expect("serializable rows")
        );
        return;
    }
    println!("== Figure 8: Auction(n) scalability (10 repetitions, mean ± 95% CI) ==");
    println!(
        "  {:>5} {:>7} {:>10} {:>12} {:>16}",
        "n", "nodes", "edges", "cf edges", "time [ms]"
    );
    for row in &rows {
        println!(
            "  {:>5} {:>7} {:>10} {:>12} {:>10.2} ± {:.2}   robust={}",
            row.n,
            row.nodes,
            row.edges,
            row.counterflow_edges,
            row.mean_ms,
            row.ci95_ms,
            row.robust
        );
    }
    println!();
}

fn print_figure4() {
    let session = RobustnessSession::new(auction());
    let graph = session.graph(AnalysisSettings::paper_default());
    println!("== Figure 4: summary graph of the Auction running example (DOT) ==");
    println!("{}", to_dot(&graph, DotOptions::default()));
}

fn print_graphs() {
    for workload in [smallbank(), tpcc()] {
        let session = RobustnessSession::new(workload);
        let graph = session.graph(AnalysisSettings::paper_default());
        println!(
            "== Summary graph for {} (DOT, Figure 11/18 style) ==",
            session.workload().name
        );
        println!("{}", to_dot(&graph, DotOptions { edge_labels: false }));
    }
}
