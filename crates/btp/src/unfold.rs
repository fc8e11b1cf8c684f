//! Unfolding BTPs into finite sets of LTPs.
//!
//! Proposition 6.1 of the paper shows that for robustness detection against MVRC it suffices to
//! unfold every `loop(P)` into **at most two** repetitions (`Unfold≤2`); branching `(P | P)` and
//! optional execution `(P | ε)` are unfolded into all alternatives. [`unfold_le2`] implements
//! exactly that; [`unfold`] generalizes the bound, which is useful for sanity-checking that the
//! analysis result is invariant in the unfolding depth (it must be, by Proposition 6.1).

use crate::linear::{LinearFkConstraint, LinearProgram};
use crate::program::{Program, ProgramExpr, StmtId};

/// Options controlling BTP unfolding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnfoldOptions {
    /// Maximum number of repetitions each `loop(P)` is unfolded into (the paper uses 2).
    pub max_loop_iterations: usize,
    /// Whether to drop duplicate unfoldings (identical statement sequences with identical
    /// foreign-key constraints). Duplicates carry no additional information for the analysis.
    pub deduplicate: bool,
}

impl Default for UnfoldOptions {
    fn default() -> Self {
        UnfoldOptions {
            max_loop_iterations: 2,
            deduplicate: true,
        }
    }
}

/// `Unfold≤2(P)` for a single BTP (Proposition 6.1).
pub fn unfold_le2(program: &Program) -> Vec<LinearProgram> {
    unfold(program, UnfoldOptions::default())
}

/// `Unfold≤2(𝒫)` for a set of BTPs.
pub fn unfold_set_le2(programs: &[Program]) -> Vec<LinearProgram> {
    unfold_set(programs, UnfoldOptions::default())
}

/// Unfolds a set of BTPs with explicit options.
pub fn unfold_set(programs: &[Program], options: UnfoldOptions) -> Vec<LinearProgram> {
    programs.iter().flat_map(|p| unfold(p, options)).collect()
}

/// Unfolds a single BTP with explicit options.
pub fn unfold(program: &Program, options: UnfoldOptions) -> Vec<LinearProgram> {
    let annotated = annotate(program.body(), &mut 0);
    let mut expansions = expand(&annotated, options.max_loop_iterations.max(1));
    if options.deduplicate {
        deduplicate(&mut expansions);
    }
    let multiple = expansions.len() > 1;
    expansions
        .into_iter()
        .enumerate()
        .map(|(idx, occs)| build_ltp(program, occs, idx, multiple))
        .collect()
}

/// How many statement sequences unfolding `expr` with loops bounded by `max_loop_iterations`
/// yields before duplicates are dropped, saturating at `u64::MAX`. It is computed from the
/// expression alone, so it can bound an unfolding before any sequence is built: a sequence
/// multiplies its parts' counts, a choice adds them, an optional part adds one (the empty
/// sequence), and `loop(P)` with `P` counting `c` gives `1 + c + … + c^max_loop_iterations`.
pub(crate) fn unfolding_count(expr: &ProgramExpr, max_loop_iterations: usize) -> u64 {
    let count = |e: &ProgramExpr| unfolding_count(e, max_loop_iterations);
    match expr {
        ProgramExpr::Statement(_) | ProgramExpr::Empty => 1,
        ProgramExpr::Seq(parts) => parts
            .iter()
            .fold(1, |total, part| total.saturating_mul(count(part))),
        ProgramExpr::Choice(a, b) => count(a).saturating_add(count(b)),
        ProgramExpr::Optional(a) => count(a).saturating_add(1),
        ProgramExpr::Loop(body) => {
            let per_iteration = count(body);
            let (mut total, mut power) = (1u64, 1u64);
            for _ in 0..max_loop_iterations.max(1) {
                power = power.saturating_mul(per_iteration);
                total = total.saturating_add(power);
            }
            total
        }
    }
}

/// Adds to `occurrences[rel_of(q)]`, for every statement occurrence `q` in the sequences that
/// unfolding `expr` yields before duplicates are dropped, `weight` (saturating; `occurrences`
/// grows as needed). Like [`unfolding_count`] it reads the expression alone: a part of a
/// sequence is repeated once per combination of the other parts' sequences, and the body of
/// `loop(P)` with `P` counting `c` once per body instance of `P^i`, `Σ_{i ≤ max} i·c^(i-1)` times.
pub(crate) fn add_statement_occurrences(
    expr: &ProgramExpr,
    weight: u64,
    rel_of: &impl Fn(StmtId) -> usize,
    max_loop_iterations: usize,
    occurrences: &mut Vec<u64>,
) {
    let add = |e: &ProgramExpr, w: u64, occurrences: &mut Vec<u64>| {
        add_statement_occurrences(e, w, rel_of, max_loop_iterations, occurrences)
    };
    match expr {
        ProgramExpr::Statement(id) => {
            let rel = rel_of(*id);
            if occurrences.len() <= rel {
                occurrences.resize(rel + 1, 0);
            }
            occurrences[rel] = occurrences[rel].saturating_add(weight);
        }
        ProgramExpr::Empty => {}
        ProgramExpr::Seq(parts) => {
            // `after[i]`: how many sequences the parts behind part `i` combine to.
            let mut after = vec![1u64; parts.len()];
            for i in (1..parts.len()).rev() {
                after[i - 1] =
                    after[i].saturating_mul(unfolding_count(&parts[i], max_loop_iterations));
            }
            let mut before = 1u64;
            for (part, after) in parts.iter().zip(after) {
                add(
                    part,
                    weight.saturating_mul(before).saturating_mul(after),
                    occurrences,
                );
                before = before.saturating_mul(unfolding_count(part, max_loop_iterations));
            }
        }
        ProgramExpr::Choice(a, b) => {
            add(a, weight, occurrences);
            add(b, weight, occurrences);
        }
        ProgramExpr::Optional(a) => add(a, weight, occurrences),
        ProgramExpr::Loop(body) => {
            let per_iteration = unfolding_count(body, max_loop_iterations);
            let (mut instances, mut power) = (0u64, 1u64);
            for i in 1..=max_loop_iterations.max(1) as u64 {
                instances = instances.saturating_add(power.saturating_mul(i));
                power = power.saturating_mul(per_iteration);
            }
            add(body, weight.saturating_mul(instances), occurrences);
        }
    }
}

/// A statement occurrence within one unfolding, together with the loop-iteration context it was
/// produced in. The context is used to pair foreign-key constraints only between occurrences
/// that belong to the same iteration of every shared enclosing loop.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Occurrence {
    stmt: StmtId,
    /// `(loop id, iteration index)` pairs, outermost loop first.
    context: Vec<(usize, usize)>,
}

/// Internal program expression with loops numbered syntactically.
enum Annotated {
    Stmt(StmtId),
    Seq(Vec<Annotated>),
    Choice(Box<Annotated>, Box<Annotated>),
    Optional(Box<Annotated>),
    Loop(usize, Box<Annotated>),
    Empty,
}

fn annotate(expr: &ProgramExpr, next_loop_id: &mut usize) -> Annotated {
    match expr {
        ProgramExpr::Statement(id) => Annotated::Stmt(*id),
        ProgramExpr::Empty => Annotated::Empty,
        ProgramExpr::Seq(parts) => {
            Annotated::Seq(parts.iter().map(|p| annotate(p, next_loop_id)).collect())
        }
        ProgramExpr::Choice(a, b) => Annotated::Choice(
            Box::new(annotate(a, next_loop_id)),
            Box::new(annotate(b, next_loop_id)),
        ),
        ProgramExpr::Optional(a) => Annotated::Optional(Box::new(annotate(a, next_loop_id))),
        ProgramExpr::Loop(a) => {
            let id = *next_loop_id;
            *next_loop_id += 1;
            Annotated::Loop(id, Box::new(annotate(a, next_loop_id)))
        }
    }
}

fn expand(expr: &Annotated, max_iters: usize) -> Vec<Vec<Occurrence>> {
    match expr {
        Annotated::Stmt(id) => vec![vec![Occurrence {
            stmt: *id,
            context: Vec::new(),
        }]],
        Annotated::Empty => vec![Vec::new()],
        Annotated::Seq(parts) => {
            let mut acc: Vec<Vec<Occurrence>> = vec![Vec::new()];
            for part in parts {
                let expanded = expand(part, max_iters);
                let mut next = Vec::with_capacity(acc.len() * expanded.len());
                for prefix in &acc {
                    for suffix in &expanded {
                        let mut combined = prefix.clone();
                        combined.extend(suffix.iter().cloned());
                        next.push(combined);
                    }
                }
                acc = next;
            }
            acc
        }
        Annotated::Choice(a, b) => {
            let mut out = expand(a, max_iters);
            out.extend(expand(b, max_iters));
            out
        }
        Annotated::Optional(a) => {
            let mut out = expand(a, max_iters);
            out.push(Vec::new());
            out
        }
        Annotated::Loop(loop_id, body) => {
            let inner = expand(body, max_iters);
            // Zero iterations.
            let mut out: Vec<Vec<Occurrence>> = vec![Vec::new()];
            // k = 1 ..= max_iters iterations; each iteration is an independent unfolding of the
            // body, tagged with the iteration index.
            let mut per_count: Vec<Vec<Occurrence>> = vec![Vec::new()];
            for k in 0..max_iters {
                let mut next: Vec<Vec<Occurrence>> = Vec::new();
                for prefix in &per_count {
                    for body_expansion in &inner {
                        let mut combined = prefix.clone();
                        combined.extend(body_expansion.iter().map(|occ| Occurrence {
                            stmt: occ.stmt,
                            context: {
                                let mut ctx = Vec::with_capacity(occ.context.len() + 1);
                                ctx.push((*loop_id, k));
                                ctx.extend(occ.context.iter().copied());
                                ctx
                            },
                        }));
                        next.push(combined);
                    }
                }
                out.extend(next.iter().cloned());
                per_count = next;
            }
            out
        }
    }
}

fn deduplicate(expansions: &mut Vec<Vec<Occurrence>>) {
    let mut seen: Vec<Vec<StmtId>> = Vec::new();
    expansions.retain(|occs| {
        let key: Vec<StmtId> = occs.iter().map(|o| o.stmt).collect();
        if seen.contains(&key) {
            false
        } else {
            seen.push(key);
            true
        }
    });
}

/// Two occurrences are constraint-compatible when they agree on the iteration index of every
/// enclosing loop they share (their contexts agree on the common prefix of loop ids).
fn compatible(a: &[(usize, usize)], b: &[(usize, usize)]) -> bool {
    for (&(loop_a, iter_a), &(loop_b, iter_b)) in a.iter().zip(b.iter()) {
        if loop_a != loop_b {
            break;
        }
        if iter_a != iter_b {
            return false;
        }
    }
    true
}

fn build_ltp(
    program: &Program,
    occurrences: Vec<Occurrence>,
    idx: usize,
    multiple: bool,
) -> LinearProgram {
    let name = if multiple {
        format!("{}[{}]", program.name(), idx + 1)
    } else {
        program.name().to_string()
    };
    let statements = occurrences
        .iter()
        .map(|o| program.statement(o.stmt).clone())
        .collect::<Vec<_>>();
    let origins = occurrences.iter().map(|o| o.stmt).collect::<Vec<_>>();

    let mut fk_constraints = Vec::new();
    for constraint in program.fk_constraints() {
        for (dom_pos, dom_occ) in occurrences.iter().enumerate() {
            if dom_occ.stmt != constraint.dom_stmt {
                continue;
            }
            for (range_pos, range_occ) in occurrences.iter().enumerate() {
                if range_occ.stmt != constraint.range_stmt {
                    continue;
                }
                if compatible(&dom_occ.context, &range_occ.context) {
                    fk_constraints.push(LinearFkConstraint {
                        fk: constraint.fk,
                        dom_pos,
                        range_pos,
                    });
                }
            }
        }
    }

    LinearProgram::new(name, program.name(), statements, origins, fk_constraints)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use mvrc_schema::{Schema, SchemaBuilder};

    fn schema() -> Schema {
        let mut b = SchemaBuilder::new("s");
        let buyer = b.relation("Buyer", &["id", "calls"], &["id"]).unwrap();
        let bids = b
            .relation("Bids", &["buyerId", "bid"], &["buyerId"])
            .unwrap();
        let log = b
            .relation("Log", &["id", "buyerId", "bid"], &["id"])
            .unwrap();
        b.foreign_key("f1", bids, &["buyerId"], buyer, &["id"])
            .unwrap();
        b.foreign_key("f2", log, &["buyerId"], buyer, &["id"])
            .unwrap();
        b.build()
    }

    fn place_bid(schema: &Schema) -> Program {
        let mut pb = ProgramBuilder::new(schema, "PlaceBid");
        let q3 = pb
            .key_update("q3", "Buyer", &["calls"], &["calls"])
            .unwrap();
        let q4 = pb.key_select("q4", "Bids", &["bid"]).unwrap();
        let q5 = pb.key_update("q5", "Bids", &[], &["bid"]).unwrap();
        let q6 = pb.insert("q6", "Log").unwrap();
        pb.seq(&[q3.into(), q4.into()]);
        pb.optional(q5.into());
        pb.push(q6.into());
        pb.fk_constraint("f1", q4, q3).unwrap();
        pb.fk_constraint("f1", q5, q3).unwrap();
        pb.fk_constraint("f2", q6, q3).unwrap();
        pb.build()
    }

    #[test]
    fn place_bid_unfolds_into_two_ltps() {
        let schema = schema();
        let ltps = unfold_le2(&place_bid(&schema));
        assert_eq!(ltps.len(), 2);
        let with_q5 = ltps.iter().find(|l| l.len() == 4).unwrap();
        let without_q5 = ltps.iter().find(|l| l.len() == 3).unwrap();
        assert_eq!(with_q5.statement(2).name(), "q5");
        assert_eq!(without_q5.statement(2).name(), "q6");
        // The (q5 | ε) branch drops the q5 constraint in the second unfolding.
        assert_eq!(with_q5.fk_constraints().len(), 3);
        assert_eq!(without_q5.fk_constraints().len(), 2);
        assert!(with_q5.name().starts_with("PlaceBid["));
        assert_eq!(with_q5.program_name(), "PlaceBid");
    }

    #[test]
    fn linear_program_unfolds_to_itself() {
        let schema = schema();
        let mut pb = ProgramBuilder::new(&schema, "FindBids");
        let q1 = pb
            .key_update("q1", "Buyer", &["calls"], &["calls"])
            .unwrap();
        let q2 = pb.pred_select("q2", "Bids", &["bid"], &["bid"]).unwrap();
        pb.seq(&[q1.into(), q2.into()]);
        let ltps = unfold_le2(&pb.build());
        assert_eq!(ltps.len(), 1);
        assert_eq!(ltps[0].name(), "FindBids");
        assert_eq!(ltps[0].len(), 2);
    }

    #[test]
    fn loops_unfold_into_zero_one_and_two_iterations() {
        let schema = schema();
        let mut pb = ProgramBuilder::new(&schema, "Looper");
        let q = pb.key_update("q", "Buyer", &["calls"], &["calls"]).unwrap();
        pb.looped(q.into());
        let ltps = unfold_le2(&pb.build());
        let mut lens: Vec<usize> = ltps.iter().map(|l| l.len()).collect();
        lens.sort_unstable();
        assert_eq!(lens, vec![0, 1, 2]);
    }

    #[test]
    fn unfold_bound_is_configurable() {
        let schema = schema();
        let mut pb = ProgramBuilder::new(&schema, "Looper");
        let q = pb.key_update("q", "Buyer", &["calls"], &["calls"]).unwrap();
        pb.looped(q.into());
        let program = pb.build();
        let ltps = unfold(
            &program,
            UnfoldOptions {
                max_loop_iterations: 4,
                deduplicate: true,
            },
        );
        let mut lens: Vec<usize> = ltps.iter().map(|l| l.len()).collect();
        lens.sort_unstable();
        assert_eq!(lens, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn loop_iterations_only_pair_constraints_within_the_same_iteration() {
        let schema = schema();
        let mut pb = ProgramBuilder::new(&schema, "LoopedPair");
        // Inside the loop: a Buyer key update followed by a Bids key select constrained to it.
        let qa = pb
            .key_update("qa", "Buyer", &["calls"], &["calls"])
            .unwrap();
        let qb = pb.key_select("qb", "Bids", &["bid"]).unwrap();
        pb.looped(ProgramExpr::seq([qa.into(), qb.into()]));
        pb.fk_constraint("f1", qb, qa).unwrap();
        let ltps = unfold_le2(&pb.build());
        let two_iter = ltps.iter().find(|l| l.len() == 4).unwrap();
        // Positions: 0 = qa(it 0), 1 = qb(it 0), 2 = qa(it 1), 3 = qb(it 1).
        let constraints: Vec<(usize, usize)> = two_iter
            .fk_constraints()
            .iter()
            .map(|c| (c.dom_pos, c.range_pos))
            .collect();
        assert!(constraints.contains(&(1, 0)));
        assert!(constraints.contains(&(3, 2)));
        assert!(!constraints.contains(&(1, 2)));
        assert!(!constraints.contains(&(3, 0)));
        assert_eq!(constraints.len(), 2);
    }

    #[test]
    fn constraints_from_outside_a_loop_pair_with_every_iteration() {
        let schema = schema();
        let mut pb = ProgramBuilder::new(&schema, "OuterTarget");
        let qa = pb
            .key_update("qa", "Buyer", &["calls"], &["calls"])
            .unwrap();
        let qb = pb.key_select("qb", "Bids", &["bid"]).unwrap();
        pb.push(qa.into());
        pb.looped(qb.into());
        pb.fk_constraint("f1", qb, qa).unwrap();
        let ltps = unfold_le2(&pb.build());
        let two_iter = ltps.iter().find(|l| l.len() == 3).unwrap();
        let constraints: Vec<(usize, usize)> = two_iter
            .fk_constraints()
            .iter()
            .map(|c| (c.dom_pos, c.range_pos))
            .collect();
        assert_eq!(constraints, vec![(1, 0), (2, 0)]);
    }

    #[test]
    fn duplicate_unfoldings_are_removed() {
        let schema = schema();
        let mut pb = ProgramBuilder::new(&schema, "SameBranches");
        let q = pb.key_select("q", "Buyer", &["calls"]).unwrap();
        pb.choice(q.into(), q.into());
        let ltps = unfold_le2(&pb.build());
        assert_eq!(ltps.len(), 1);
        let undeduped = unfold(
            &pb_program(&schema),
            UnfoldOptions {
                max_loop_iterations: 2,
                deduplicate: false,
            },
        );
        assert_eq!(undeduped.len(), 2);
    }

    fn pb_program(schema: &Schema) -> Program {
        let mut pb = ProgramBuilder::new(schema, "SameBranches");
        let q = pb.key_select("q", "Buyer", &["calls"]).unwrap();
        pb.choice(q.into(), q.into());
        pb.build()
    }

    #[test]
    fn unfold_set_concatenates_programs() {
        let schema = schema();
        let mut fb = ProgramBuilder::new(&schema, "FindBids");
        let q1 = fb
            .key_update("q1", "Buyer", &["calls"], &["calls"])
            .unwrap();
        let q2 = fb.pred_select("q2", "Bids", &["bid"], &["bid"]).unwrap();
        fb.seq(&[q1.into(), q2.into()]);
        let programs = vec![fb.build(), place_bid(&schema)];
        let ltps = unfold_set_le2(&programs);
        assert_eq!(ltps.len(), 3);
        let names: Vec<&str> = ltps.iter().map(|l| l.program_name()).collect();
        assert_eq!(names, vec!["FindBids", "PlaceBid", "PlaceBid"]);
    }

    #[test]
    fn nested_loops_unfold_with_bounded_iterations() {
        let schema = schema();
        let mut pb = ProgramBuilder::new(&schema, "Nested");
        let q = pb.key_update("q", "Buyer", &["calls"], &["calls"]).unwrap();
        pb.looped(ProgramExpr::looped(q.into()));
        let ltps = unfold_le2(&pb.build());
        // Outer loop 0..=2 iterations, each containing 0..=2 inner iterations; after dedup by
        // statement sequence the possible lengths are 0..=4.
        let mut lens: Vec<usize> = ltps.iter().map(|l| l.len()).collect();
        lens.sort_unstable();
        lens.dedup();
        assert_eq!(lens, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn unfolding_count_matches_the_expansion_before_deduplication() {
        let q = |i: u16| ProgramExpr::Statement(StmtId(i));
        // `depth` nested loops, each level a statement followed by the next level.
        let nested = |depth: u16| {
            (0..depth).fold(ProgramExpr::Empty, |inner, level| {
                ProgramExpr::looped(ProgramExpr::seq([q(level), inner]))
            })
        };
        let exprs = [
            q(0),
            ProgramExpr::Empty,
            ProgramExpr::seq([q(0), ProgramExpr::optional(q(1)), q(2)]),
            ProgramExpr::choice(
                ProgramExpr::seq([q(0), ProgramExpr::looped(q(1))]),
                ProgramExpr::optional(ProgramExpr::choice(q(2), q(3))),
            ),
            ProgramExpr::looped(ProgramExpr::choice(q(0), ProgramExpr::optional(q(1)))),
            nested(1),
            nested(2),
            nested(3),
        ];
        // Each statement stands for its own relation, so the occurrence counts are per
        // statement.
        let rel_of = |id: StmtId| id.index();
        for expr in &exprs {
            for iterations in 1..=3 {
                let count = unfolding_count(expr, iterations);
                if count > 1000 {
                    continue; // nested(3) with 3 iterations: 621,436 sequences
                }
                let expanded = expand(&annotate(expr, &mut 0), iterations);
                assert_eq!(count, expanded.len() as u64);
                let mut expected = Vec::new();
                for occ in expanded.iter().flatten() {
                    if expected.len() <= occ.stmt.index() {
                        expected.resize(occ.stmt.index() + 1, 0);
                    }
                    expected[occ.stmt.index()] += 1;
                }
                let mut occurrences = Vec::new();
                add_statement_occurrences(expr, 1, &rel_of, iterations, &mut occurrences);
                assert_eq!(occurrences, expected, "{expr:?}");
            }
        }
        // Each level `c` of the nested loops counts 1 + c + c² under Unfold≤2.
        let counts: Vec<u64> = (1..=5).map(|d| unfolding_count(&nested(d), 2)).collect();
        assert_eq!(counts, [3, 13, 183, 33_673, 1_133_904_603]);
        assert_eq!(unfolding_count(&nested(12), 2), u64::MAX);
        let mut occurrences = Vec::new();
        add_statement_occurrences(&nested(12), 1, &rel_of, 2, &mut occurrences);
        assert_eq!(occurrences[0], u64::MAX);
    }
}
