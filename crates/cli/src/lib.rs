//! # mvrc-cli
//!
//! The library behind the `mvrc` command-line robustness analyzer.
//!
//! The paper argues its detection algorithm "can readily be implemented and applied in
//! practice"; this crate is that application. A workload is described in a single
//! self-contained file (catalog declarations plus the SQL-style `PROGRAM` blocks of Appendix A)
//! and analyzed from the command line:
//!
//! ```text
//! $ mvrc analyze auction.sql
//! workload:           auction
//! programs:           FindBids, PlaceBid
//! unfolded LTPs:      3
//! setting:            attr dep + FK (type-II)
//! summary graph:      3 nodes, 17 edges (1 counterflow)
//! verdict:            robust against MVRC
//! ```
//!
//! * `mvrc analyze` — robustness verdict for the whole workload (exit code 1 when rejected).
//! * `mvrc subsets` — the maximal robust program subsets (the Figure 6 / 7 experiment).
//! * `mvrc graph` — the summary graph as Graphviz DOT (Figure 4 / 11 / 18 style).
//! * `mvrc programs` — the `Unfold≤2` linear transaction programs.
//!
//! Built-in benchmarks (`--benchmark smallbank|tpcc|auction|auction-n=<N>`) allow reproducing
//! the paper's results without writing a workload file.

mod args;
mod commands;
mod error;

pub use args::{extract_threads, parse_args, ClientOp, Command, Format, Input, USAGE};
pub use commands::{execute, load_workload, CommandOutput};
pub use error::CliError;

/// Parses the command line (excluding the binary name) and executes it.
///
/// The global `--threads N` option is consumed here, before command parsing (validation —
/// including the dedicated `--threads 0` rejection — lives in [`extract_threads`]): it sets
/// how many threads a large subset sweep may use (equivalent to setting `MVRC_THREADS=N`).
/// The count is process-wide and resolved on first use, so the pin is best effort when `run`
/// is called more than once in one process.
pub fn run(args: &[String]) -> Result<CommandOutput, CliError> {
    let mut args = args.to_vec();
    if let Some(threads) = extract_threads(&mut args)? {
        mvrc_par::configure_thread_count(threads);
    }
    execute(parse_args(&args)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn run_wires_parsing_and_execution_together() {
        let out = run(&args(&["analyze", "--benchmark", "auction"])).unwrap();
        assert_eq!(out.exit_code, 0);
        let out = run(&args(&["analyze", "--benchmark", "smallbank"])).unwrap();
        assert_eq!(out.exit_code, 1);
        assert!(run(&args(&["frobnicate", "x.sql"])).is_err());
    }

    #[test]
    fn run_help_returns_usage() {
        let out = run(&[]).unwrap();
        assert!(out.text.contains("USAGE"));
        assert_eq!(out.exit_code, 0);
    }
}
