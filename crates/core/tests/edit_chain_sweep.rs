//! Property test for subset sweeps on edited sessions: random edit sequences (interleaved
//! `add_program`/`remove_program` chains) on random synthetic workloads, with a sweep after
//! **every** edit. The sweep of the edited session, whose cached graphs were updated in place,
//! must reproduce the verdicts and the work counters of a sweep over an independently
//! constructed session, under both [`Parallelism::Serial`] and [`Parallelism::Threads(4)`].

use mvrc_benchmarks::{synthetic, SyntheticConfig};
use mvrc_btp::Program;
use mvrc_par::Parallelism;
use mvrc_robustness::{
    explore_subsets, explore_subsets_with, AnalysisSettings, ExploreOptions, RobustnessSession,
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
    /// Add this pool program.
    Add { program: Program },
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
    fn sweeps_of_edited_sessions_match_from_scratch_after_every_edit(
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

        for parallelism in [Parallelism::Serial, Parallelism::Threads(4)] {
            let options = ExploreOptions { parallelism };
            let mut session = RobustnessSession::from_programs(&schema, &pool[..start]);
            for edit in &edits {
                match edit {
                    Edit::Add { program } => session.add_program(program.clone()),
                    Edit::Remove { name } => session.remove_program(name).unwrap(),
                }
                let scratch =
                    RobustnessSession::from_programs(&schema, &session.workload().programs);
                let fresh = explore_subsets(&scratch, settings);
                // Incremental *graph maintenance* preserves the sweep's verdicts and its
                // cycle_tests/pruned accounting exactly.
                let edited = explore_subsets_with(&session, settings, options);
                prop_assert_eq!(&edited.robust, &fresh.robust, "{:?}/{:?}", parallelism, edit);
                prop_assert_eq!(&edited.maximal, &fresh.maximal);
                prop_assert_eq!(edited.cycle_tests, fresh.cycle_tests);
                prop_assert_eq!(edited.pruned, fresh.pruned);
                prop_assert_eq!(edited.reused, 0);
            }
        }
    }
}
