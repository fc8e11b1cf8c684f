//! When the static analysis says "not robust", is that a false negative or a real anomaly?
//! This example backs every static verdict with executed evidence: for SmallBank subsets
//! rejected by Algorithm 2 it compiles the analyzer's witness into a concrete MVRC history that
//! the independent serializability checker rejects, and for subsets attested robust it runs the
//! sampled attestation battery (the same certification that `repro bench-certify` applies to
//! every rejected subset, the ground truth behind the false-negative discussion of Section 7.2
//! of the paper).
//!
//! ```text
//! cargo run --release --example counterexample_hunt
//! ```

use mvrc_hist::{certify_subset, CertifyOutcome, PlanStep, Realization};
use mvrc_repro::benchmarks::smallbank;
use mvrc_repro::prelude::*;

fn main() {
    let session = RobustnessSession::new(smallbank());
    let settings = AnalysisSettings::paper_default();

    // The first two subsets are rejected by the static analysis, the last two are attested
    // robust (Figure 6).
    let subsets: [&[&str]; 4] = [
        &["WriteCheck"],
        &["Amalgamate", "Balance"],
        &["Balance", "DepositChecking"],
        &["Amalgamate", "DepositChecking", "TransactSavings"],
    ];

    for subset in subsets {
        let report = session
            .analyze_programs(subset, settings)
            .expect("known program names");
        println!("subset {{{}}}", subset.join(", "));
        println!("  static analysis: {}", report.outcome);

        match certify_subset(&session, "smallbank", subset, settings)
            .expect("every SmallBank verdict is backed by executed evidence")
        {
            CertifyOutcome::Certified(c) => {
                assert!(
                    !report.is_robust(),
                    "a rejected history contradicts a robust verdict"
                );
                println!("  executed evidence: NON-SERIALIZABLE MVRC history");
                print_realization(&c.realization);
            }
            CertifyOutcome::Attested(a) => {
                assert!(
                    report.is_robust(),
                    "a non-robust verdict must be certified by a rejected history"
                );
                println!(
                    "  executed evidence: {} seeded runs, {} committed, {} aborted by the engine; \
                     every committed history serializable",
                    a.seeds, a.runs_executed, a.runs_aborted
                );
            }
        }
        println!();
    }
}

/// Prints the transactions of a realization, its statement-level interleaving (`S<i>` runs the
/// next statement of transaction `i`, `C<i>` commits it) and the checker's conflict cycle.
fn print_realization(r: &Realization) {
    let instances: Vec<String> = r
        .instances
        .iter()
        .enumerate()
        .map(|(i, name)| format!("T{i} = {name}"))
        .collect();
    println!("    instances:     {}", instances.join(", "));
    println!("    key plan:      {}", r.key_variant);
    let steps: Vec<String> = r.interleaving.iter().map(render_step).collect();
    println!("    interleaving:  {}", steps.join(" "));
    // Cycle indices count committed transactions; the commit order maps them back to `T<i>`.
    let mut cycle = String::new();
    for (i, step) in r.verdict.cycle.iter().enumerate() {
        if i == 0 {
            cycle.push_str(&format!("T{}", r.commit_order[step.from_index]));
        }
        cycle.push_str(&format!(
            " -{}-> T{}",
            step.kind, r.commit_order[step.to_index]
        ));
    }
    println!("    checker cycle: {cycle}");
}

fn render_step(step: &PlanStep) -> String {
    match step.action.as_str() {
        "commit" => format!("C{}", step.txn),
        _ => format!("S{}", step.txn),
    }
}
