//! `certify-audit`: the in-process equivalent of `mvrc lint` + `mvrc certify`. Each operation
//! is one `lint_workload` with repair, or one `certify_subset` on a program subset: a
//! non-robust subset must come back certified by an executed history the independent checker
//! rejects, a robust one attested by sampled executions.
//!
//! Inputs: every subset of SmallBank, of TPC-C and of a YCSB-T mix of 8 programs (two
//! read-modify-writes, a blind update, a scan, an insert and three reads over 10 fields), and a
//! lint of each of the three workloads. The seed orders each workload's programs and the
//! operations.
//!
//! Traced operations run the same steps `certify_subset` runs, through the public functions it
//! is built from (the cycle test, `realize_violation`, or the attestation battery of
//! `random_run` + `check`), so each layer is timed from outside; `lint_workload` with repair
//! is timed as the report without repair plus `minimal_promotion_repair`. As a probe, the
//! engine's own `History::find_anomaly` decides every attestation history again and must agree
//! with the checker.

use std::collections::BTreeMap;

use mvrc_benchmarks::{smallbank, tpcc, ycsb_t, Workload, YcsbtConfig};
use mvrc_hist::{
    certify_subset, check, random_run, realize_violation, CertifyOutcome, KeyVariant, ATTEST_SEEDS,
};
use mvrc_lint::{apply_promotions, lint_workload, minimal_promotion_repair, LintOptions};
use mvrc_robustness::{all_violations_in, AnalysisSettings, RobustnessSession};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::report::{run_cycles, Report, Setup};
use crate::trace::Tracer;
use crate::Ctx;

/// One audited workload with its session (graph built in set-up).
struct Audited {
    label: &'static str,
    workload: Workload,
    session: RobustnessSession,
}

/// One operation of the cycle.
#[derive(Debug)]
enum Op {
    /// Certify this subset of workload `w`; `robust` is the expected verdict.
    Certify {
        w: usize,
        programs: Vec<String>,
        robust: bool,
    },
    /// Lint workload `w` with repair; `robust` is the expected verdict.
    Lint { w: usize, robust: bool },
}

/// What a certification produced, as far as the checks need it.
enum Certified {
    /// A certificate: the checker rejected the history, and `find_anomaly` agreed or not.
    Certificate { rejected: bool, agrees: bool },
    /// An attestation whose runs were all serializable (or not).
    Attestation { all_serializable: bool },
}

fn setup() -> Vec<Audited> {
    let ycsbt = ycsb_t(YcsbtConfig {
        fields: 10,
        reads: 3,
        rmws: 2,
        updates: 1,
        scans: 1,
        inserts: 1,
        fields_per_op: 2,
    });
    let settings = AnalysisSettings::paper_default();
    [
        ("SmallBank", smallbank()),
        ("TPC-C", tpcc()),
        ("YCSB-T", ycsbt),
    ]
    .into_iter()
    .map(|(label, workload)| {
        let session = RobustnessSession::new(workload.clone());
        session.graph(settings);
        Audited {
            label,
            workload,
            session,
        }
    })
    .collect()
}

/// The non-empty subsets of `names` as name lists (bit `i` of the mask selects `names[i]`).
fn subset(names: &[String], mask: u64) -> Vec<String> {
    (0..names.len())
        .filter(|i| mask >> i & 1 == 1)
        .map(|i| names[i].clone())
        .collect()
}

/// The cycle: every subset of each workload (verdicts from the hand-written maximal robust
/// sets for the paper's workloads, from `analyze_programs` for the YCSB-T mix) and one lint per
/// workload; shuffled by the seed.
fn operations(ctx: &Ctx, audited: &[Audited]) -> Vec<Op> {
    let settings = AnalysisSettings::paper_default();
    let mut ops = Vec::new();
    for (w, a) in audited.iter().enumerate() {
        let names = a.session.program_names();
        for mask in 1..1u64 << names.len() {
            let programs = subset(names, mask);
            let robust = if a.label == "YCSB-T" {
                let refs: Vec<&str> = programs.iter().map(String::as_str).collect();
                a.session
                    .analyze_programs(&refs, settings)
                    .expect("subset of the workload")
                    .is_robust()
            } else {
                let maximal = ctx
                    .expected
                    .name_sets(&["certify-audit", "maximal_robust", a.label]);
                maximal
                    .iter()
                    .any(|set| programs.iter().all(|p| set.contains(p)))
            };
            ops.push(Op::Certify {
                w,
                programs,
                robust,
            });
        }
        let robust = a.session.is_robust(settings);
        ops.push(Op::Lint { w, robust });
    }
    ops.shuffle(&mut StdRng::seed_from_u64(ctx.seed ^ 5));
    ops
}

/// `certify_subset` as the CLI calls it.
fn certify(a: &Audited, programs: &[&str]) -> Result<Certified, String> {
    let settings = AnalysisSettings::paper_default();
    let outcome = certify_subset(&a.session, a.label, programs, settings)
        .map_err(|e| format!("{} {programs:?}: {e}", a.label))?;
    match outcome {
        CertifyOutcome::Certified(c) => Ok(Certified::Certificate {
            rejected: !c.realization.verdict.serializable,
            agrees: c.realization.find_anomaly_agrees,
        }),
        CertifyOutcome::Attested(att) => Ok(Certified::Attestation {
            all_serializable: att.all_serializable,
        }),
    }
}

/// The same steps through their public functions, each in its own span. Returns the outcome
/// and the attestation histories with the checker's verdict on each.
fn certify_traced(
    a: &Audited,
    programs: &[&str],
    t: &mut Tracer,
) -> Result<(Certified, Vec<(mvrc_engine::History, bool)>), String> {
    let settings = AnalysisSettings::paper_default();
    let schema = a.session.schema();
    t.span("hist.certify", |t| {
        let graph = a.session.graph(settings);
        let view = graph
            .induced_for_programs(programs)
            .map_err(|e| e.to_string())?;
        let violations = t.span("core.algorithm.cycle_test", |_| {
            all_violations_in(&view, settings.condition)
        });
        if violations.is_empty() {
            // The attestation battery: two instances per LTP for small subsets, one otherwise,
            // and alternating key layouts over `ATTEST_SEEDS` seeds.
            let members = view.members();
            let copies = if members.len() <= 4 { 2 } else { 1 };
            let ltps: Vec<_> = members
                .iter()
                .flat_map(|&m| std::iter::repeat(graph.node(m)).take(copies))
                .collect();
            let mut histories = Vec::new();
            for seed in 0..ATTEST_SEEDS {
                let variant = if seed % 2 == 0 {
                    KeyVariant::PerInstanceRows
                } else {
                    KeyVariant::SeparateDeletes
                };
                let run = t.span("hist.compile.random_run", |_| {
                    random_run(schema, &ltps, variant, seed)
                });
                if let Some(history) = run {
                    let verdict = t.span("hist.checker.check", |_| check(&history));
                    histories.push((history, verdict.serializable));
                }
            }
            let all_serializable = histories.iter().all(|(_, ok)| *ok);
            return Ok((Certified::Attestation { all_serializable }, histories));
        }
        for violation in &violations {
            let realized = t.span("hist.compile.realize", |_| {
                realize_violation(schema, &graph, view.members(), violation)
            });
            if let Some(r) = realized {
                let outcome = Certified::Certificate {
                    rejected: !r.verdict.serializable,
                    agrees: r.find_anomaly_agrees,
                };
                return Ok((outcome, Vec::new()));
            }
        }
        Err(format!(
            "non-robust verdict, but none of the {} witnesses was realized",
            violations.len()
        ))
    })
}

/// Checks a certification against the expected verdict.
fn check_certified(
    got: &Certified,
    robust: bool,
    label: &str,
    programs: &[&str],
) -> Result<(), String> {
    match got {
        Certified::Certificate { rejected, agrees } if !robust && *rejected && *agrees => Ok(()),
        Certified::Attestation { all_serializable } if robust && *all_serializable => Ok(()),
        _ => Err(format!(
            "{label} {programs:?}: wrong certification (expected robust={robust})"
        )),
    }
}

/// Lints with repair; traced, as the report without repair plus the repair search.
fn lint(a: &Audited, t: &mut Tracer) -> mvrc_lint::LintReport {
    let settings = AnalysisSettings::paper_default();
    if !t.enabled() {
        return lint_workload(&a.workload, &LintOptions::default());
    }
    let options = LintOptions {
        suggest_repairs: false,
        ..LintOptions::default()
    };
    let mut report = t.span("lint.report", |_| lint_workload(&a.workload, &options));
    if !report.robust {
        report.repair = t.span("lint.repair", |_| {
            minimal_promotion_repair(&a.workload, settings)
        });
    }
    t.count("lint.diagnostics", report.diagnostics.len() as f64);
    report
}

/// Checks a lint report: the verdict, diagnostics exactly when not robust, and any repair
/// re-verified on a fresh session over the promoted workload.
fn check_lint(a: &Audited, report: &mvrc_lint::LintReport, robust: bool) -> Result<(), String> {
    if report.robust != robust || report.diagnostics.is_empty() != robust {
        return Err(format!("{}: wrong lint verdict", a.label));
    }
    if let Some(repair) = &report.repair {
        let repaired = apply_promotions(&a.workload, &repair.promotions);
        let fresh = RobustnessSession::new(repaired);
        if !repair.verified || !fresh.is_robust(AnalysisSettings::paper_default()) {
            return Err(format!("{}: the suggested repair does not repair", a.label));
        }
    }
    Ok(())
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Report {
    let mut tracer = Tracer::new(0);
    let mut set_up = Setup::new(|_: &mut Tracer| setup());
    let audited = set_up.sample(ctx, &mut tracer);
    let pause = |t: &mut Tracer| drop(set_up.sample(ctx, t));
    let ops = operations(ctx, &audited);
    let (mut non_robust, mut certified) = (0u64, 0u64);
    let result = run_cycles(
        ctx,
        &mut tracer,
        ops.len(),
        20_000.0,
        pause,
        |i, t| match &ops[i] {
            Op::Certify {
                w,
                programs,
                robust,
            } => {
                let a = &audited[*w];
                let names: Vec<&str> = programs.iter().map(String::as_str).collect();
                non_robust += u64::from(!robust);
                let (got, histories) = t.op(i, |t| {
                    if t.enabled() {
                        certify_traced(a, &names, t)
                    } else {
                        certify(a, &names).map(|got| (got, Vec::new()))
                    }
                })?;
                for (history, serializable) in &histories {
                    let anomaly = t.span("engine.find_anomaly", |_| history.find_anomaly());
                    if anomaly.is_none() != *serializable {
                        return Err(format!(
                            "{}: find_anomaly and the checker disagree",
                            a.label
                        ));
                    }
                }
                certified += u64::from(matches!(got, Certified::Certificate { .. }));
                check_certified(&got, *robust, a.label, &names)
            }
            Op::Lint { w, robust } => {
                let a = &audited[*w];
                let report = t.op(i, |t| lint(a, t));
                check_lint(a, &report, *robust)
            }
        },
    );
    let mut extra = BTreeMap::new();
    extra.insert(
        "hist.realized_ratio",
        certified as f64 / non_robust.max(1) as f64,
    );
    Report {
        setup_s: set_up.samples,
        run: result,
        tracer,
        extra,
        // The attestations and lints of a cycle are its slowest 3 %, and p99 lies among them;
        // p99.9 would sit on the machine's rare stalls.
        tail_cap: 99.0,
    }
}
