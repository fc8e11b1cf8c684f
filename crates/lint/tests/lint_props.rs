//! Property and pin tests for `mvrc-lint`.
//!
//! The property test cross-checks the repair search against from-scratch sessions: every
//! suggested promotion set must make the workload robust, and must be 1-minimal (dropping any
//! single promotion leaves the workload non-robust). Because the search probes candidates
//! through `RobustnessSession`'s *incremental* graph edits while the assertions here rebuild
//! each graph from scratch, this also exercises agreement between the two code paths.

use mvrc_benchmarks::{auction, smallbank, synthetic, SyntheticConfig};
use mvrc_btp::sql::parse_workload_file;
use mvrc_btp::Workload;
use mvrc_lint::{
    apply_promotions, lint_workload, minimal_promotion_repair, render_text, LintOptions,
    MAX_REPAIR_PROBES,
};
use mvrc_robustness::{AnalysisSettings, CycleCondition, RobustnessSession};
use proptest::prelude::*;

fn synthetic_config_strategy() -> impl Strategy<Value = SyntheticConfig> {
    (
        1usize..=3,   // relations
        2usize..=4,   // attributes per relation
        1usize..=4,   // programs
        1usize..=4,   // statements per program
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn suggested_promotion_sets_are_sound_and_1_minimal(config in synthetic_config_strategy()) {
        let workload = synthetic(config);
        let settings = AnalysisSettings::paper_default();
        if RobustnessSession::new(workload.clone()).is_robust(settings) {
            return Ok(()); // nothing to repair
        }
        let Some(repair) = minimal_promotion_repair(&workload, settings) else {
            return Ok(()); // promotion cannot repair this workload
        };

        // Soundness: the suggested set, applied, yields a robust workload on a fresh session.
        prop_assert!(repair.verified, "search reported an unverified repair");
        prop_assert!(repair.minimal, "a small workload hit the probe cap");
        let promoted = apply_promotions(&workload, &repair.promotions);
        prop_assert!(
            RobustnessSession::new(promoted).is_robust(settings),
            "applied promotion set does not make the workload robust"
        );

        // 1-minimality: dropping any single promotion leaves the workload non-robust.
        for i in 0..repair.promotions.len() {
            let mut fewer = repair.promotions.clone();
            let dropped = fewer.remove(i);
            let partial = apply_promotions(&workload, &fewer);
            prop_assert!(
                !RobustnessSession::new(partial).is_robust(settings),
                "promotion of {}.{} is redundant: the workload stays robust without it",
                dropped.program,
                dropped.statement,
            );
        }
    }
}

/// The paper's Auction headline: the baseline type-I condition of Alomari & Fekete rejects the
/// workload, while the paper's type-II test (Algorithm 2, Theorem 6.4) attests robustness.
#[test]
fn auction_headline_matches_the_paper() {
    let baseline = AnalysisSettings {
        condition: CycleCondition::TypeI,
        ..AnalysisSettings::paper_default()
    };
    let report = lint_workload(
        &auction(),
        &LintOptions {
            settings: baseline,
            ..LintOptions::default()
        },
    );
    assert!(!report.robust);
    assert_eq!(report.diagnostics.len(), 1);
    assert_eq!(report.diagnostics[0].code, "MVRC001");

    let report = lint_workload(&auction(), &LintOptions::default());
    assert!(report.robust);
    assert!(report.diagnostics.is_empty());
    assert!(report.repair.is_none());
}

/// SmallBank's repair exists, verifies, and every promotion names a select statement.
#[test]
fn smallbank_repair_promotes_selects_only() {
    let repair = minimal_promotion_repair(&smallbank(), AnalysisSettings::paper_default())
        .expect("smallbank is repairable by promotion");
    assert!(repair.verified);
    assert!(repair.minimal);
    for p in &repair.promotions {
        assert!(p.from_kind.contains("sel"), "{p:?}");
        assert!(p.to_kind.contains("upd"), "{p:?}");
    }
    // Deterministic 1-minimality check on the benchmark itself (the property test covers
    // synthetic workloads, which skew small): no single promotion is redundant.
    let settings = AnalysisSettings::paper_default();
    let workload = smallbank();
    for i in 0..repair.promotions.len() {
        let mut fewer = repair.promotions.clone();
        let dropped = fewer.remove(i);
        assert!(
            !RobustnessSession::new(apply_promotions(&workload, &fewer)).is_robust(settings),
            "promotion of {}.{} is redundant",
            dropped.program,
            dropped.statement,
        );
    }
}

/// Primary spans of diagnostics over a file-parsed workload resolve to real `SELECT` lines in
/// the input SQL, at the exact column the statement starts on.
#[test]
fn smallbank_sql_spans_point_at_the_offending_selects() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../cli/workloads/smallbank.sql"
    ))
    .expect("bundled workload file exists");
    let (schema, programs) = parse_workload_file(&text).expect("bundled workload parses");
    let workload = Workload::new(schema.name().to_string(), schema, programs, &[]);
    let report = lint_workload(&workload, &LintOptions::default());
    assert!(!report.robust);
    assert!(!report.diagnostics.is_empty());
    for d in &report.diagnostics {
        let span = d
            .primary
            .from
            .span
            .expect("file-parsed statements carry spans");
        let line = text
            .lines()
            .nth(span.line - 1)
            .expect("span line exists in the source");
        // The counterflow edge always originates at a read, so the span lands on a SELECT.
        assert!(
            line[span.column - 1..].starts_with("SELECT"),
            "span {span:?} does not point at a SELECT: {line:?}"
        );
    }
}

/// A generated workload with more promotion candidates than the probe cap: the search stops at
/// the cap with a robust, verified set, says it may not be minimal, and the text says so too.
#[test]
fn a_repair_past_the_probe_cap_is_verified_and_marked_not_minimal() {
    let mut text = String::new();
    for k in 0..50 {
        text.push_str(&format!("TABLE T{k} (a, b);\n"));
    }
    text.push_str("PROGRAM P(:x, :v) {\n");
    for k in 0..MAX_REPAIR_PROBES + 44 {
        text.push_str(&format!("SELECT b FROM T{} WHERE a = :x;\n", k % 50));
    }
    text.push_str("UPDATE T49 SET b = :v WHERE a = :x;\n}\n");
    text.push_str("PROGRAM R(:x) { SELECT b FROM T49 WHERE a = :x; }\n");
    let (schema, programs) = parse_workload_file(&text).expect("generated workload parses");
    let workload = Workload::new("capped", schema, programs, &[]);

    let report = lint_workload(&workload, &LintOptions::default());
    assert!(!report.robust);
    let repair = report
        .repair
        .as_ref()
        .expect("promotion repairs the workload");
    assert!(repair.verified);
    assert!(!repair.minimal);
    let promoted = apply_promotions(&workload, &repair.promotions);
    assert!(RobustnessSession::new(promoted).is_robust(AnalysisSettings::paper_default()));
    let rendered = render_text(&report, None);
    assert!(
        rendered.contains(&format!(
            "the search stopped after {MAX_REPAIR_PROBES} probes"
        )),
        "{rendered}"
    );
}
