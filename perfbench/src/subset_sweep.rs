//! `subset-sweep`: the Section 7.2 experiment, the in-process equivalent of
//! `mvrc subsets --json`. Each operation opens a session, sweeps every program subset (serially,
//! see [`sweep_options`]) and renders the JSON report.
//!
//! Inputs: synthetic workloads of 12–15 programs, which are mostly non-robust (nearly every
//! subset needs its own cycle test), and YCSB-T mixes of 14–17 programs whose ten read-only
//! programs are robust together (closure pruning decides their 1023 subsets, and the report
//! lists them all). Their structures are fixed; the seed orders the programs and the inputs.
//!
//! Answers are checked after the timed loop: every reported maximal set must be robust by
//! `analyze_programs` and every one-program extension of it must not be, and every operation on
//! an input must render the same bytes.

use mvrc_benchmarks::{synthetic, ycsb_t, SyntheticConfig, Workload, YcsbtConfig};
use mvrc_robustness::{
    explore_subsets_with, AnalysisSettings, ExploreOptions, Parallelism, RobustnessSession,
    SubsetExploration,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde_json::json;

use crate::report::{run_cycles, Failures, Report, Setup};
use crate::trace::Tracer;
use crate::Ctx;

/// The sweep runs inline on the calling thread. On a shared 2-core machine the default
/// two-thread fan-out roughly doubled the run-to-run spread of every timing (a stalled core
/// stalls the whole fork-join); `mvrc-par`'s fan-out still runs in serve-mixed's daemon sweeps.
fn sweep_options() -> ExploreOptions {
    ExploreOptions {
        parallelism: Parallelism::Serial,
        ..ExploreOptions::default()
    }
}

/// Program counts of the synthetic inputs of one cycle.
const SYNTHETIC_SIZES: [usize; 13] = [12, 12, 12, 13, 13, 13, 14, 14, 14, 15, 15, 15, 15];
/// Program counts of the YCSB-T inputs of one cycle. Sorted by latency, the inputs of a cycle
/// fall into classes by size; these counts put the median in the middle of the 14-program
/// synthetic class (ranks 11–13 of 23) and p95 among the largest inputs, so neither percentile
/// sits on the boundary between two classes and jumps between them from run to run.
const YCSBT_SIZES: [usize; 10] = [14, 14, 15, 15, 16, 16, 17, 17, 17, 17];

fn inputs(seed: u64) -> Vec<Workload> {
    let mut rng = StdRng::seed_from_u64(seed ^ 2);
    let mut inputs: Vec<Workload> = SYNTHETIC_SIZES
        .iter()
        .enumerate()
        .map(|(slot, &programs)| {
            // Straight-line programs (one LTP each), so the sweep's cost follows the program
            // count rather than how a draw happened to unfold. The structure is fixed per slot:
            // a seeded structure moved the median latency by a third from seed to seed. The
            // seed reorders the programs instead.
            let mut workload = synthetic(SyntheticConfig {
                programs,
                loop_probability: 0.0,
                optional_probability: 0.0,
                seed: slot as u64,
                ..SyntheticConfig::default()
            });
            workload.programs.shuffle(&mut rng);
            workload
        })
        .collect();
    for (slot, &programs) in YCSBT_SIZES.iter().enumerate() {
        // Ten read-only programs, which are robust together, and one read-modify-write per
        // further program: 1023 robust subsets, found mostly by pruning. The mix is fixed per
        // slot, as the synthetic structures are (a seeded mix put a different input at p95 from
        // seed to seed); the seed reorders the programs.
        let mut mix = StdRng::seed_from_u64(slot as u64);
        let scans = mix.gen_range(1..=3);
        let inserts = mix.gen_range(1..=2);
        let mut workload = ycsb_t(YcsbtConfig {
            fields: mix.gen_range(12..=20),
            reads: 10 - scans - inserts,
            rmws: programs - 10,
            updates: 0,
            scans,
            inserts,
            fields_per_op: mix.gen_range(1..=2),
        });
        workload.programs.shuffle(&mut rng);
        inputs.push(workload);
    }
    inputs.shuffle(&mut rng);
    inputs
}

/// Sweeps one workload from a fresh session and renders the `--json` report.
fn sweep(workload: &Workload, t: &mut Tracer) -> (SubsetExploration, String) {
    let settings = AnalysisSettings::paper_default();
    let workload = workload.clone();
    let name = workload.name.clone();
    let session = t.span("btp.unfold", |_| RobustnessSession::new(workload));
    t.count("btp.unfold.ltps", session.ltps().len() as f64);
    let graph = t.span("core.summary.construct", |_| session.graph(settings));
    t.count("core.summary.edges", graph.edge_count() as f64);
    let words = t.span("core.kernels.derive", |_| {
        graph.reachability_words().1.len()
    });
    t.count("core.kernels.closure_words", words as f64);
    let exploration = t.span("core.subsets.sweep", |_| {
        explore_subsets_with(&session, settings, sweep_options())
    });
    let subsets = (1u64 << exploration.programs.len()) - 1;
    t.count("core.subsets.cycle_tests", exploration.cycle_tests as f64);
    t.count("core.subsets.pruned", exploration.pruned as f64);
    t.count(
        "core.subsets.tests_per_subset",
        exploration.cycle_tests as f64 / subsets as f64,
    );
    let rendered = t.span("cli.render", |_| {
        let value = json!({ "workload": name, "exploration": exploration });
        serde_json::to_string_pretty(&value).expect("an exploration serializes")
    });
    t.count("cli.render_bytes", rendered.len() as f64);
    (exploration, rendered)
}

/// The independent check of one exploration: maximal sets are robust, each one-program
/// extension is not, and every subset is accounted for exactly once.
fn check_exploration(workload: &Workload, found: &SubsetExploration) -> Result<(), String> {
    let settings = AnalysisSettings::paper_default();
    let session = RobustnessSession::new(workload.clone());
    let n = found.programs.len();
    if found.cycle_tests + found.pruned + found.reused != (1usize << n) - 1 {
        return Err(format!(
            "{}: subsets are not all accounted for",
            workload.name
        ));
    }
    let robust = |members: &[usize]| -> Result<bool, String> {
        let names: Vec<&str> = members
            .iter()
            .map(|&i| found.programs[i].as_str())
            .collect();
        session
            .analyze_programs(&names, settings)
            .map(|report| report.is_robust())
            .map_err(|e| e.to_string())
    };
    for set in &found.maximal {
        if !robust(set)? {
            return Err(format!(
                "{}: maximal set {set:?} is not robust",
                workload.name
            ));
        }
        for extra in (0..n).filter(|i| !set.contains(i)) {
            let mut bigger = set.clone();
            bigger.push(extra);
            bigger.sort_unstable();
            if robust(&bigger)? {
                return Err(format!(
                    "{}: maximal set {set:?} has a robust extension {bigger:?}",
                    workload.name
                ));
            }
        }
    }
    Ok(())
}

/// What the operation loop saw of one input.
#[derive(Default)]
struct Seen {
    /// The first exploration and its rendering; every later operation must render the same.
    first: Option<(SubsetExploration, String)>,
    /// Operations run on the input, and how many of them already failed.
    ops: u64,
    failed: u64,
}

/// Checks each input's first exploration; a wrong one fails every operation on that input
/// that has not failed already.
fn check_all(inputs: &[Workload], seen: &[Seen], failures: &mut Failures) {
    for (workload, seen) in inputs.iter().zip(seen) {
        if let Some((exploration, _)) = &seen.first {
            if let Err(message) = check_exploration(workload, exploration) {
                failures.fail(message, seen.ops - seen.failed);
            }
        }
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Report {
    let mut tracer = Tracer::new(0);
    let mut setup = Setup::new(|_: &mut Tracer| inputs(ctx.seed));
    let inputs = setup.sample(ctx, &mut tracer);
    let pause = |t: &mut Tracer| drop(setup.sample(ctx, t));
    let mut seen: Vec<Seen> = inputs.iter().map(|_| Seen::default()).collect();
    let mut result = run_cycles(ctx, &mut tracer, inputs.len(), 400.0, pause, |i, t| {
        let (exploration, rendered) = t.op(i, |t| sweep(&inputs[i], t));
        let seen = &mut seen[i];
        seen.ops += 1;
        match &seen.first {
            None => {
                seen.first = Some((exploration, rendered));
                Ok(())
            }
            Some((_, reference)) if *reference == rendered => Ok(()),
            Some(_) => {
                seen.failed += 1;
                Err(format!("{}: report bytes changed", inputs[i].name))
            }
        }
    });
    check_all(&inputs, &seen, &mut result.failures);
    Report {
        setup_s: setup.samples,
        run: result,
        tracer,
        extra: Default::default(),
        // About 40 operations a second at the slowest: p99 would need 1010 a run.
        tail_cap: 95.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three operations on one input, the second of which rendered other bytes, then the
    /// after-loop check of `exploration`.
    fn three_ops_then_check(
        workload: &Workload,
        exploration: &SubsetExploration,
        rendered: &str,
    ) -> Failures {
        let mut failures = Failures::default();
        for outcome in [Ok(()), Err("report bytes changed".to_string()), Ok(())] {
            failures.record(outcome);
        }
        let seen = Seen {
            first: Some((exploration.clone(), rendered.to_string())),
            ops: 3,
            failed: 1,
        };
        check_all(std::slice::from_ref(workload), &[seen], &mut failures);
        failures
    }

    #[test]
    fn a_wrong_input_fails_each_operation_once() {
        let workload = mvrc_benchmarks::smallbank();
        let (mut exploration, rendered) = sweep(&workload, &mut Tracer::new(0));
        let f = three_ops_then_check(&workload, &exploration, &rendered);
        assert_eq!((f.attempted, f.failed), (3, 1));
        // All five programs together are not robust, so this "maximal set" is wrong.
        exploration
            .maximal
            .push((0..exploration.programs.len()).collect());
        let f = three_ops_then_check(&workload, &exploration, &rendered);
        assert_eq!((f.attempted, f.failed), (3, 3), "{:?}", f.messages);
    }
}
