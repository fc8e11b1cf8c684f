//! Differential property tests for `mvrc-hist`.
//!
//! Three agreements are exercised on random small workloads:
//!
//! * **verdict vs evidence** — whenever the summary-graph analysis declares a workload
//!   non-robust, the witness compiler must back the verdict with an executed MVRC history
//!   that the checker rejects;
//! * **robustness vs executions** — whenever the analysis declares a workload robust, no
//!   committed scripted execution may be rejected by the checker (the analyzer is sound, or
//!   the engine or the checker is broken — either way a failure here is a real bug);
//! * **production vs oracle** — on committed histories under every key layout, the one
//!   production decider (`History::dependencies`, a cell-indexed derivation, peeled by
//!   `History::serialization_order`) must agree with the oracle kept only here: a pairwise scan
//!   over every ordered pair of transactions, decided by a constrained-linearization search.
//!   Both must give the same facts and the same decision, the production witnesses (order or
//!   cycle) must consist of oracle facts, and every history must pass the read-committed level
//!   check (Lemma 4.1).

use mvrc_benchmarks::{synthetic, SyntheticConfig};
use mvrc_engine::{DynDepKind, DynDependency, History};
use mvrc_hist::{certify_subset, check, random_run, CertifyError, CertifyOutcome, KeyVariant};
use mvrc_robustness::{AnalysisSettings, RobustnessSession};
use proptest::prelude::*;

/// The oracle: the conflict relation by a pairwise scan, and serializability by linearization.
mod oracle {
    use super::*;

    /// Every dependency between committed transactions, scanning each ordered pair of
    /// transactions and each pair of their records. Sorted by `(from, to, kind)`, deduplicated.
    pub fn dependencies(history: &History) -> Vec<DynDependency> {
        let mut edges = Vec::new();
        let n = history.committed.len();
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    between(history, i, j, &mut edges);
                }
            }
        }
        edges.sort_by_key(|e| (e.from, e.to, e.kind as u8));
        edges.dedup();
        edges
    }

    fn between(history: &History, i: usize, j: usize, edges: &mut Vec<DynDependency>) {
        let ti = &history.committed[i];
        let tj = &history.committed[j];
        let mut push = |kind: DynDepKind| {
            edges.push(DynDependency {
                from: i,
                to: j,
                kind,
                counterflow: tj.commit_ts < ti.commit_ts,
            });
        };
        // ww: Ti installed a version before Tj on a common attribute of the same row.
        for wi in &ti.writes {
            for wj in &tj.writes {
                if wi.rel == wj.rel
                    && wi.key == wj.key
                    && wi.attrs.intersects(wj.attrs)
                    && ti.commit_ts < tj.commit_ts
                {
                    push(DynDepKind::Ww);
                }
            }
        }
        // wr: Tj read a version that Ti wrote (or a later one than Ti's).
        for wi in &ti.writes {
            for rj in &tj.reads {
                if wi.rel == rj.rel
                    && wi.key == rj.key
                    && wi.attrs.intersects(rj.attrs)
                    && ti.commit_ts <= rj.observed_ts
                {
                    push(DynDepKind::Wr);
                }
            }
        }
        // rw: Ti read a version older than the one Tj wrote.
        for ri in &ti.reads {
            for wj in &tj.writes {
                if ri.rel == wj.rel
                    && ri.key == wj.key
                    && ri.attrs.intersects(wj.attrs)
                    && ri.observed_ts < tj.commit_ts
                {
                    push(DynDepKind::Rw);
                }
            }
        }
        // pred-wr: Ti's write was visible to Tj's predicate read.
        for wi in &ti.writes {
            for pj in &tj.pred_reads {
                if wi.rel == pj.rel
                    && ti.commit_ts <= pj.read_ts
                    && (wi.kind.always_conflicts_with_predicates()
                        || wi.attrs.intersects(pj.pread_attrs))
                {
                    push(DynDepKind::PredicateWr);
                }
            }
        }
        // pred-rw: Tj installed a version newer than Ti's predicate read timestamp.
        for pi in &ti.pred_reads {
            for wj in &tj.writes {
                if pi.rel == wj.rel
                    && pi.read_ts < tj.commit_ts
                    && (wj.kind.always_conflicts_with_predicates()
                        || pi.pread_attrs.intersects(wj.attrs))
                {
                    push(DynDepKind::PredicateRw);
                }
            }
        }
    }

    /// Emits, one at a time, the smallest transaction whose predecessors have all been emitted.
    /// Emitting never makes another ready transaction un-ready, so this one descent needs no
    /// backtracking: it emits everything exactly when a serialization order exists.
    pub fn linearize(n: usize, facts: &[DynDependency]) -> Option<Vec<usize>> {
        let mut emitted = vec![false; n];
        let mut order = Vec::with_capacity(n);
        while order.len() < n {
            let v = (0..n)
                .find(|&v| !emitted[v] && facts.iter().all(|f| f.to != v || emitted[f.from]))?;
            emitted[v] = true;
            order.push(v);
        }
        Some(order)
    }
}

fn synthetic_config_strategy() -> impl Strategy<Value = SyntheticConfig> {
    (
        1usize..=2,   // relations
        2usize..=4,   // attributes per relation
        1usize..=3,   // programs
        1usize..=3,   // statements per program
        0.0f64..=1.0, // predicate probability
        0.0f64..=1.0, // write probability
        0.0f64..=0.5, // loop probability
        0.0f64..=0.5, // optional probability
        any::<u64>(), // seed
    )
        .prop_map(
            |(relations, attrs, programs, statements, pred_p, write_p, loop_p, opt_p, seed)| {
                SyntheticConfig {
                    relations,
                    attributes_per_relation: attrs,
                    programs,
                    statements_per_program: statements,
                    predicate_probability: pred_p,
                    write_probability: write_p,
                    loop_probability: loop_p,
                    optional_probability: opt_p,
                    seed,
                }
            },
        )
}

/// Seeds driven per workload by the execution-sampling properties.
const SAMPLE_SEEDS: u64 = 8;

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn non_robust_verdicts_are_backed_by_rejected_histories(
        config in synthetic_config_strategy()
    ) {
        let workload = synthetic(config);
        let settings = AnalysisSettings::paper_default();
        let session = RobustnessSession::new(workload.clone());
        if session.is_robust(settings) {
            return Ok(());
        }
        let programs: Vec<&str> = workload.programs.iter().map(|p| p.name()).collect();
        match certify_subset(&session, &workload.name, &programs, settings) {
            Ok(CertifyOutcome::Certified(certificate)) => {
                prop_assert!(!certificate.robust);
                prop_assert!(!certificate.realization.verdict.serializable);
                prop_assert!(!certificate.realization.verdict.cycle.is_empty());
            }
            // The engine follows the MVRC the analysis assumes, dirty writes excluded: a second
            // writer of a row aborts on the first one's write lock instead of holding a second
            // uncommitted version. So `Unrealized` is a gap of the witness compiler, whose key
            // layouts, split points and fallback seeds are a bounded search, not a deviation of
            // the engine: the verdict stands, the evidence search came up empty. The four
            // bundled benchmarks never hit this (pinned by the golden fixtures and
            // `every_non_robust_benchmark_subset_is_certified` in tests/end_to_end.rs), so only
            // tolerate it here.
            Err(CertifyError::Unrealized { .. }) => {}
            Ok(CertifyOutcome::Attested(_)) => panic!("a non-robust subset attested ({config:?})"),
            Err(e) => panic!("unexpected certify error ({config:?}): {e}"),
        }
    }

    #[test]
    fn robust_workloads_never_yield_rejected_executions(
        config in synthetic_config_strategy()
    ) {
        let workload = synthetic(config);
        let settings = AnalysisSettings::paper_default();
        let session = RobustnessSession::new(workload.clone());
        if !session.is_robust(settings) {
            return Ok(());
        }
        let ltps: Vec<_> = session.ltps().to_vec();
        let refs: Vec<&mvrc_btp::LinearProgram> = ltps.iter().map(|l| &**l).collect();
        if refs.is_empty() {
            return Ok(());
        }
        for seed in 0..SAMPLE_SEEDS {
            for variant in [KeyVariant::PerInstanceRows, KeyVariant::SeparateDeletes] {
                let Some(history) = random_run(session.schema(), &refs, variant, seed) else {
                    continue; // aborted interleaving: nothing committed, nothing to judge
                };
                let verdict = check(&history);
                prop_assert!(
                    verdict.serializable,
                    "robust workload produced a non-serializable committed history \
                     (seed {seed}, {variant:?}): {}",
                    verdict.describe_cycle()
                );
            }
        }
    }

    #[test]
    fn the_production_decider_matches_the_pairwise_oracle_on_random_histories(
        config in synthetic_config_strategy()
    ) {
        let workload = synthetic(config);
        let session = RobustnessSession::new(workload);
        let ltps: Vec<_> = session.ltps().to_vec();
        let refs: Vec<&mvrc_btp::LinearProgram> = ltps.iter().map(|l| &**l).collect();
        if refs.is_empty() {
            return Ok(());
        }
        let variants = [
            KeyVariant::SeparateDeletes,
            KeyVariant::SharedDeletes,
            KeyVariant::RotatedDeletes,
            KeyVariant::PerInstanceRows,
        ];
        for seed in 0..SAMPLE_SEEDS {
            for variant in variants {
                let Some(history) = random_run(session.schema(), &refs, variant, seed) else {
                    continue;
                };
                let at = format!("seed {seed}, {variant:?}");
                let facts = oracle::dependencies(&history);
                prop_assert_eq!(&history.dependencies(), &facts, "dependencies ({})", &at);

                let verdict = check(&history);
                prop_assert_eq!(verdict.conflicts, facts.len());
                prop_assert!(
                    verdict.read_committed_ok,
                    "a committed MVRC history has a counterflow dependency that is not an \
                     antidependency ({at})"
                );
                let n = history.len();
                prop_assert_eq!(
                    verdict.serializable,
                    oracle::linearize(n, &facts).is_some(),
                    "the production path and linearization decide differently ({})",
                    &at
                );
                if verdict.serializable {
                    let mut pos = vec![usize::MAX; n];
                    for (i, &t) in verdict.serialization_order.iter().enumerate() {
                        pos[t] = i;
                    }
                    prop_assert!(pos.iter().all(|&p| p < n), "not a permutation ({at})");
                    for f in &facts {
                        prop_assert!(pos[f.from] < pos[f.to], "order breaks {f:?} ({at})");
                    }
                } else {
                    let anomaly = history.find_anomaly().expect("not serializable");
                    prop_assert_eq!(anomaly.cycle.len(), verdict.cycle.len());
                    for (e, step) in anomaly.cycle.iter().zip(&verdict.cycle) {
                        prop_assert!(facts.contains(e), "cycle edge {e:?} is no fact ({at})");
                        prop_assert_eq!((e.from, e.to), (step.from_index, step.to_index));
                        prop_assert_eq!(e.kind.to_string(), step.kind.clone());
                    }
                }
            }
        }
    }
}
