//! `mvrc-perfbench`: the analyzer's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold-verdict|subset-sweep|serve-mixed|certify-audit|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run generates its inputs from the seed, sets the workload up several times, runs
//! operations for the given number of seconds, checks every answer against an independent
//! reference, and prints one JSON line last:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the metrics are the
//! end-to-end ones; with `--trace 1` every per-layer metric, from a run that alternates
//! untraced and traced cycles of operations. See `README.md` for the workloads and metrics.

mod certify_audit;
mod cold_verdict;
mod expected;
mod report;
mod serve_mixed;
mod subset_sweep;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use expected::Expected;
use report::Report;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = [
    "cold-verdict",
    "subset-sweep",
    "serve-mixed",
    "certify-audit",
];

/// The settings of one run, shared by every workload.
#[derive(Debug)]
pub struct Ctx {
    /// Input seed: the same seed generates the same inputs.
    pub seed: u64,
    /// How long the operation loop runs.
    pub seconds: f64,
    /// Per-layer run (alternating untraced and traced cycles) instead of an end-to-end run.
    pub trace: bool,
    /// The hand-written expected answers.
    pub expected: Expected,
    /// Scratch directory for snapshots and trace files, inside the package directory.
    pub work_dir: PathBuf,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: mvrc-perfbench --workload <cold-verdict|subset-sweep|serve-mixed|\
certify-audit|all> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run_workload(name: &str, ctx: &Ctx) -> Report {
    match name {
        "cold-verdict" => cold_verdict::run(ctx),
        "subset-sweep" => subset_sweep::run(ctx),
        "serve-mixed" => serve_mixed::run(ctx),
        "certify-audit" => certify_audit::run(ctx),
        _ => unreachable!("workload names are validated by parse_args"),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("mvrc-perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("work");
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("mvrc-perfbench: creating {}: {e}", work_dir.display());
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        expected: Expected::builtin(),
        work_dir,
    };
    // Failures are counted, not fatal: keep the default panic message off the output of every
    // caught panic after the first.
    report::quiet_repeated_panics();
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    for name in names {
        let report = run_workload(name, &ctx);
        report.print(name, &ctx);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arguments_are_validated() {
        let ok = parse_args(&args(&[
            "--workload",
            "cold-verdict",
            "--seed",
            "3",
            "--seconds",
            "2",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert!(ok.trace && ok.seed == 3 && ok.seconds == 2.0);
        assert!(parse_args(&args(&["--workload", "nope", "--seed", "1"])).is_err());
        assert!(parse_args(&args(&["--workload", "all", "--seed", "1"])).is_err());
        assert!(parse_args(&args(&["--seconds"])).is_err());
    }
}
