//! Property tests for the verdict-reuse engine: random edit sequences (interleaved
//! `add_program`/`remove_program` chains) on random synthetic workloads, with an incremental
//! re-sweep after **every** edit. The incremental sweep's verdicts must agree with a
//! from-scratch `explore_subsets` over an independently constructed session, its work
//! counters must honor the reuse bounds (zero cycle tests after a removal, at most the
//! containing-subsets count after an addition), and the edited session's *fresh* sweep must
//! reproduce the from-scratch accounting exactly — under both [`Parallelism::Serial`] and
//! [`Parallelism::Threads(4)`].

use mvrc_benchmarks::{synthetic, SyntheticConfig};
use mvrc_btp::Program;
use mvrc_par::Parallelism;
use mvrc_robustness::{
    explore_subsets, explore_subsets_with, AnalysisSettings, ExploreOptions, RobustnessSession,
    SubsetExploration,
};
use proptest::prelude::*;

fn synthetic_config_strategy() -> impl Strategy<Value = SyntheticConfig> {
    (
        1usize..=3,   // relations
        2usize..=4,   // attributes per relation
        2usize..=5,   // program pool (sessions start with a prefix, edits draw from the rest)
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

/// One resolved edit of the replayed sequence.
#[derive(Debug, Clone)]
enum Edit {
    /// Add this pool program (`n_before` programs were in the session).
    Add { program: Program, n_before: usize },
    /// Remove the program with this name.
    Remove { name: String },
}

/// Deterministically interprets the raw edit tokens against the pool: even tokens add the
/// next unused pool program, odd tokens remove the `tok % n`-th current program — falling
/// back to the possible operation when only one is (never emptying the session, never adding
/// past the pool).
fn resolve_edits(pool: &[Program], start: usize, tokens: &[u8]) -> Vec<Edit> {
    let mut names: Vec<String> = pool[..start].iter().map(|p| p.name().to_string()).collect();
    let mut next_add = start;
    let mut edits = Vec::new();
    for &tok in tokens {
        let can_add = next_add < pool.len();
        let can_remove = names.len() > 1;
        let do_add = match (can_add, can_remove) {
            (true, false) => true,
            (false, true) => false,
            (false, false) => break,
            (true, true) => tok % 2 == 0,
        };
        if do_add {
            edits.push(Edit::Add {
                program: pool[next_add].clone(),
                n_before: names.len(),
            });
            names.push(pool[next_add].name().to_string());
            next_add += 1;
        } else {
            let idx = (tok as usize) % names.len();
            edits.push(Edit::Remove {
                name: names.remove(idx),
            });
        }
    }
    edits
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn incremental_resweeps_agree_with_from_scratch_after_every_edit(
        config in synthetic_config_strategy(),
        start in 1usize..=3,
        token_bits in any::<u32>(),
        edit_count in 1usize..=4,
    ) {
        let workload = synthetic(config);
        let pool = workload.programs.clone();
        let schema = workload.schema.clone();
        let start = start.min(pool.len());
        let tokens = &token_bits.to_le_bytes()[..edit_count];
        let edits = resolve_edits(&pool, start, tokens);
        let settings = AnalysisSettings::paper_default();

        // Pass 1 — the oracle timeline: after each edit, the exploration a *from-scratch*
        // session reports, and (on an incrementally edited session) the fresh sweep's
        // counters. This is independent of the parallelism pin, so it is computed once.
        let mut fresh_timeline: Vec<SubsetExploration> = Vec::new();
        {
            let mut session = RobustnessSession::from_programs(&schema, &pool[..start]);
            for edit in &edits {
                match edit {
                    Edit::Add { program, .. } => session.add_program(program.clone()),
                    Edit::Remove { name, .. } => session.remove_program(name).unwrap(),
                }
                let scratch =
                    RobustnessSession::from_programs(&schema, &session.workload().programs);
                let fresh = explore_subsets(&scratch, settings);
                // Incremental *graph maintenance* preserves the fresh sweep's verdicts and
                // its cycle_tests/pruned accounting exactly.
                let fresh_on_edited = explore_subsets(&session, settings);
                prop_assert_eq!(&fresh_on_edited.robust, &fresh.robust);
                prop_assert_eq!(fresh_on_edited.cycle_tests, fresh.cycle_tests);
                prop_assert_eq!(fresh_on_edited.pruned, fresh.pruned);
                prop_assert_eq!(fresh_on_edited.reused, 0);
                fresh_timeline.push(fresh);
            }
        }

        // Pass 2 — replay the same edit sequence with an incremental re-sweep after every
        // edit, under every parallelism pin.
        for parallelism in [Parallelism::Serial, Parallelism::Threads(4)] {
            let options = ExploreOptions {
                parallelism,
                incremental: true,
                // The synthetic workloads here are tiny; pin the size cutoff open so the
                // reuse engine itself is what gets exercised.
                incremental_min_subsets: 0,
            };
            let mut session = RobustnessSession::from_programs(&schema, &pool[..start]);
            let first = explore_subsets_with(&session, settings, options);
            prop_assert_eq!(first.reused, 0, "nothing to reuse before the first sweep");

            for (edit, fresh) in edits.iter().zip(&fresh_timeline) {
                match edit {
                    Edit::Add { program, .. } => session.add_program(program.clone()),
                    Edit::Remove { name, .. } => session.remove_program(name).unwrap(),
                }
                let inc = explore_subsets_with(&session, settings, options);
                let n = session.program_names().len();
                let total = (1usize << n) - 1;

                // Verdicts agree with the from-scratch sweep.
                prop_assert_eq!(&inc.robust, &fresh.robust, "{:?}/{:?}", parallelism, edit);
                prop_assert_eq!(&inc.maximal, &fresh.maximal);
                // Every subset is decided exactly once.
                prop_assert_eq!(inc.cycle_tests + inc.pruned + inc.reused, total);
                match edit {
                    Edit::Remove { .. } => {
                        // Mask compaction: all surviving subsets keep their verdicts — the
                        // re-sweep runs zero cycle tests.
                        prop_assert_eq!(inc.cycle_tests, 0, "after {:?}", edit);
                        prop_assert_eq!(inc.pruned, 0);
                        prop_assert_eq!(inc.reused, total);
                    }
                    Edit::Add { n_before, .. } => {
                        // Bit expansion: old subsets are reused verbatim; only the
                        // 2^n_before subsets containing the new program are visited.
                        prop_assert_eq!(inc.reused, (1usize << n_before) - 1);
                        prop_assert_eq!(inc.cycle_tests + inc.pruned, 1usize << n_before);
                    }
                }
            }
        }
    }
}

#[test]
fn renamed_program_with_identical_body_is_reused_but_changed_body_is_not() {
    // The cache matches programs by (name, structural fingerprint): removing a program and
    // re-adding it under the same name with the same body reuses everything; re-adding a
    // *different* body under the same name re-sweeps its subsets.
    let workload = synthetic(SyntheticConfig {
        programs: 3,
        ..SyntheticConfig::default()
    });
    let pool = workload.programs.clone();
    let schema = workload.schema.clone();
    let settings = AnalysisSettings::paper_default();
    let options = ExploreOptions {
        incremental: true,
        incremental_min_subsets: 0,
        ..ExploreOptions::default()
    };

    let mut session = RobustnessSession::from_programs(&schema, &pool);
    explore_subsets_with(&session, settings, options);

    // Remove + re-add the same program (identical body) with no sweep in between: the edit
    // delta nets to zero — the cache still matches all three identities, so *everything* is
    // reused and no cycle test runs at all.
    session.remove_program(pool[2].name()).unwrap();
    session.add_program(pool[2].clone());
    let same = explore_subsets_with(&session, settings, options);
    assert_eq!(same.cycle_tests, 0);
    assert_eq!(same.reused, (1 << 3) - 1);

    // Replace a program's body under its old name: its fingerprint changes, so every subset
    // containing it is re-decided even though the name matches.
    let replacement = {
        let mut pb = mvrc_btp::ProgramBuilder::new(&schema, pool[2].name());
        let stmts: Vec<mvrc_btp::ProgramExpr> = (0..5)
            .map(|i| {
                pb.key_update(&format!("w{i}"), "R0", &["a0", "a1"], &["a0", "a1"])
                    .unwrap()
                    .into()
            })
            .collect();
        pb.seq(&stmts);
        pb.build()
    };
    {
        // Precondition of the scenario: the replacement is structurally different.
        use mvrc_robustness::program_fingerprint;
        let fp = |p: &Program| {
            program_fingerprint(mvrc_btp::unfold_set_le2(std::slice::from_ref(p)).iter())
        };
        assert_ne!(fp(&pool[2]), fp(&replacement));
    }
    session.remove_program(pool[2].name()).unwrap();
    session.add_program(replacement);
    let changed = explore_subsets_with(&session, settings, options);
    assert_eq!(changed.reused, (1 << 2) - 1);
    assert_eq!(changed.cycle_tests + changed.pruned, 1 << 2);
    let scratch = RobustnessSession::from_programs(&schema, &session.workload().programs);
    assert_eq!(changed.robust, explore_subsets(&scratch, settings).robust);
}

#[test]
fn small_workloads_fall_back_to_fresh_sweeps_under_the_size_cutoff() {
    // With `incremental_min_subsets` at its default of 16, a 2-program workload (4 subsets)
    // never touches the reuse machinery: re-sweeps after an edit report `reused == 0` and
    // install no cache entry, matching `incremental: false` exactly. A 4-program workload
    // (16 subsets) sits exactly on the floor and keeps reusing.
    let workload = synthetic(SyntheticConfig {
        programs: 4,
        ..SyntheticConfig::default()
    });
    let pool = workload.programs.clone();
    let schema = workload.schema.clone();
    let settings = AnalysisSettings::paper_default();
    let options = ExploreOptions {
        incremental: true,
        ..ExploreOptions::default()
    };
    assert_eq!(options.incremental_min_subsets, 16);

    // Below the floor: two programs, 4 subsets.
    let mut small = RobustnessSession::from_programs(&schema, &pool[..2]);
    explore_subsets_with(&small, settings, options);
    small.remove_program(pool[1].name()).unwrap();
    small.add_program(pool[1].clone());
    let resweep = explore_subsets_with(&small, settings, options);
    assert_eq!(resweep.reused, 0, "below the cutoff nothing is reused");
    assert_eq!(resweep.cycle_tests + resweep.pruned, (1 << 2) - 1);
    let plain = explore_subsets_with(
        &small,
        settings,
        ExploreOptions {
            incremental: false,
            ..options
        },
    );
    assert_eq!(
        resweep, plain,
        "sub-cutoff incremental sweeps match incremental: false"
    );

    // On the floor: four programs, 16 subsets — the no-op edit is fully reused.
    let mut big = RobustnessSession::from_programs(&schema, &pool);
    explore_subsets_with(&big, settings, options);
    big.remove_program(pool[3].name()).unwrap();
    big.add_program(pool[3].clone());
    let resweep = explore_subsets_with(&big, settings, options);
    assert_eq!(resweep.cycle_tests, 0);
    assert_eq!(resweep.reused, (1 << 4) - 1);
}
