//! The witness compiler: lowers a static [`Violation`] witness onto the execution engine.
//!
//! A summary-graph witness blames programs and statement positions; it promises that *some*
//! database, *some* parameter instantiation, and *some* MVRC interleaving realize each summary
//! edge as a dynamic dependency and close the cycle. This module searches that space
//! constructively:
//!
//! 1. **Instantiation** — every key-based statement of every transaction instance targets a
//!    shared row (key `0`) of its relation so that conflicts actually materialize; deletes get
//!    per-instance reserved rows (or the shared row, as a second key-plan variant) and inserts
//!    get fresh keys. The engine's generic lowering ([`ProgramInstance::from_ltp`]) turns each
//!    instance into steps that address those rows.
//! 2. **Scheduling** — the paper's sufficiency proof builds a *multiversion split schedule*:
//!    the transaction issuing the counterflow antidependency read runs a prefix, every other
//!    instance then runs serially to completion, and the victim finishes last. We lower exactly
//!    that shape onto [`StepPlan::split_schedule`], splitting right after the blamed read first
//!    and enumerating other split points, instance lists, and key-plan variants.
//! 3. **Fallback** — the engine's seeded random schedule ([`Interleaver::run_random`]) over one
//!    instance per subset program (plus a duplicate victim), all active at once, for witnesses
//!    whose canonical split aborts (write locks) or stays serializable. The certificate shows
//!    the actions the executor recorded.
//!
//! Every executed history is judged by the [`checker`](crate::checker); the first one it
//! rejects becomes the certificate.

use crate::checker::{judge, CheckerVerdict};
use mvrc_btp::{LinearProgram, StatementKind};
use mvrc_engine::{
    run_plan, Engine, History, Interleaver, IsolationLevel, Key, PlanAction, ProgramInstance,
    StepPlan,
};
use mvrc_robustness::{NodeId, SummaryGraph, Violation};
use mvrc_schema::{RelId, Schema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::collections::{BTreeSet, VecDeque};

/// How key-based statements are mapped onto rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyVariant {
    /// Everything targets the shared row (key `0`); deletes get a per-instance reserved row so
    /// later statements still find the shared one. The default certification plan: conflicts
    /// materialize maximally.
    SeparateDeletes,
    /// Deletes also target the shared row — needed when the blamed conflict *is* the delete.
    SharedDeletes,
    /// Key-based reads and updates of instance `i` target row `50 + i`; deletes of instance
    /// `i` target the *next* instance's row (`50 + (i+1) mod n`). This is the only layout that
    /// realizes mutual read/delete cycles — `A` reads its row while `B` deletes it and vice
    /// versa — where a shared row would make the second delete abort on the missing row and
    /// separate rows would not conflict at all.
    RotatedDeletes,
    /// Every instance targets its own row (key `50 + instance`), deletes reserved, inserts
    /// fresh — the faithful "different parameters" instantiation. Key-based writes never lock
    /// each other, so interleavings commit; predicate reads still cross instance boundaries
    /// and keep the histories non-trivial. Used for attestation sampling.
    PerInstanceRows,
}

impl KeyVariant {
    /// The variants the certification search tries, in order. `PerInstanceRows` is excluded:
    /// with disjoint key targets the blamed key-conflict edges cannot materialize.
    pub const ALL: [KeyVariant; 3] = [
        KeyVariant::SeparateDeletes,
        KeyVariant::SharedDeletes,
        KeyVariant::RotatedDeletes,
    ];

    fn label(self) -> &'static str {
        match self {
            KeyVariant::SeparateDeletes => "separate-deletes",
            KeyVariant::SharedDeletes => "shared-deletes",
            KeyVariant::RotatedDeletes => "rotated-deletes",
            KeyVariant::PerInstanceRows => "per-instance-rows",
        }
    }
}

/// One action of a serialized interleaving, the JSON mirror of [`PlanAction`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct PlanStep {
    /// `"step"` or `"commit"`.
    pub action: String,
    /// Transaction (instance) index the action applies to.
    pub txn: usize,
}

/// A concrete non-serializable MVRC execution realizing a witness.
#[derive(Debug, Clone, Serialize)]
pub struct Realization {
    /// Program (LTP) name per transaction index.
    pub instances: Vec<String>,
    /// The key-plan variant that realized the witness.
    pub key_variant: String,
    /// The executed statement-level interleaving.
    pub interleaving: Vec<PlanStep>,
    /// Commit order as transaction indices.
    pub commit_order: Vec<usize>,
    /// The verdict's cycle rendered by [`mvrc_engine::Anomaly::describe`], counterflow edges
    /// marked with `*` (`T1 -rw*-> T2 -ww-> T1`), for human readers.
    pub anomaly: String,
    /// The checker's verdict (non-serializable).
    pub verdict: CheckerVerdict,
    /// Always `true`: the anomaly and the verdict come from one decision
    /// ([`History::find_anomaly`] decides the same way). Kept for consumers of the field.
    pub find_anomaly_agrees: bool,
}

/// Maximum number of seeded random interleavings tried after the structured split schedules.
pub const FALLBACK_SEEDS: u64 = 128;

/// Tries to realize a violation witness over the given subset as an executed history that the
/// checker rejects. Deterministic: the same graph, subset, and witness always produce the same
/// realization.
pub fn realize_violation(
    schema: &Schema,
    graph: &SummaryGraph,
    subset: &[NodeId],
    violation: &Violation,
) -> Option<Realization> {
    let (victim, victim_stmt, others) = witness_cast(violation);

    // Candidate instance lists, victim first (the split schedule commits the victim last and
    // the others in list order, which is the cycle order of the witness).
    let mut lists: Vec<Vec<NodeId>> = Vec::new();
    let mut push_list = |list: Vec<NodeId>| {
        if !lists.contains(&list) {
            lists.push(list);
        }
    };
    let mut cycle_list = vec![victim];
    for &n in &others {
        if !cycle_list[1..].contains(&n) {
            cycle_list.push(n);
        }
    }
    push_list(cycle_list);
    push_list(vec![victim, others[0]]);
    let mut full = vec![victim];
    full.extend_from_slice(subset);
    push_list(full.clone());
    if let Violation::TypeII(w) = violation {
        // The whole cycle, with the paths the witness leaves implicit spelled out: a program
        // on them may need an instance of its own even when it also ends an edge.
        let node = |n: u32| n as NodeId;
        let (cf, nc, middle) = (w.counterflow_edge, w.non_counterflow_edge, w.middle_edge);
        let back = shortest_path(graph, subset, node(cf.to), node(nc.from));
        let across = shortest_path(graph, subset, node(nc.to), node(middle.from));
        if let (Some(back), Some(across)) = (back, across) {
            let mut list = vec![victim];
            list.extend(back);
            list.extend(across);
            push_list(list);
        }
    }

    for list in &lists {
        let ltps: Vec<&LinearProgram> = list.iter().map(|&n| graph.node(n)).collect();
        let step_counts: Vec<usize> = ltps.iter().map(|l| l.len()).collect();
        let victim_len = step_counts[0];
        // Split right after the blamed counterflow read first (the paper's construction), then
        // try every other split point.
        let mut prefixes = vec![victim_stmt + 1];
        prefixes.extend((1..=victim_len).filter(|p| *p != victim_stmt + 1));
        for prefix in prefixes {
            for variant in KeyVariant::ALL {
                let plan = StepPlan::split_schedule(&step_counts, 0, prefix);
                let split = |engine: &mut Engine, instances| {
                    run_plan(engine, instances, IsolationLevel::ReadCommitted, &plan).ok()
                };
                if let Some((history, ())) = run_scripted(schema, &ltps, variant, split) {
                    if let Some(r) = evaluate(&history, &ltps, variant, &plan) {
                        return Some(r);
                    }
                }
            }
        }
    }

    // Random fallback over the full subset (victim duplicated), every instance active at once.
    let ltps: Vec<&LinearProgram> = full.iter().map(|&n| graph.node(n)).collect();
    for seed in 0..FALLBACK_SEEDS {
        let variant = KeyVariant::ALL[(seed % 2) as usize];
        let mut rng = StdRng::seed_from_u64(seed);
        let fallback = |engine: &mut Engine, instances| {
            random_schedule(engine, instances, &mut rng, ltps.len())
        };
        if let Some((history, plan)) = run_scripted(schema, &ltps, variant, fallback) {
            if let Some(r) = evaluate(&history, &ltps, variant, &plan) {
                return Some(r);
            }
        }
    }
    None
}

/// The nodes of a shortest path from `from` to `to` over `subset`, both ends included (`[from]`
/// when they are one node; ties go to the first edge in edge order). `None` when `to` is not
/// reachable.
fn shortest_path(
    graph: &SummaryGraph,
    subset: &[NodeId],
    from: NodeId,
    to: NodeId,
) -> Option<Vec<NodeId>> {
    let mut parent: Vec<Option<NodeId>> = vec![None; graph.node_count()];
    parent[from] = Some(from);
    let mut queue = VecDeque::from([from]);
    while let Some(at) = queue.pop_front() {
        if at == to {
            let mut path = vec![to];
            while path[path.len() - 1] != from {
                path.push(parent[path[path.len() - 1]]?);
            }
            path.reverse();
            return Some(path);
        }
        for edge in graph.edges_from(at) {
            let next = edge.to as NodeId;
            if parent[next].is_none() && subset.contains(&next) {
                parent[next] = Some(at);
                queue.push_back(next);
            }
        }
    }
    None
}

/// Runs one seeded random interleaving of the given programs (used for robustness
/// attestation). At most two transactions are concurrently active — the pairwise-interference
/// shape of the paper's split schedules — so write-lock aborts stay rare enough for samples to
/// commit. Returns the executed history, or `None` when the interleaving aborted.
pub fn random_run(
    schema: &Schema,
    ltps: &[&LinearProgram],
    variant: KeyVariant,
    seed: u64,
) -> Option<History> {
    let mut rng = StdRng::seed_from_u64(seed);
    let sample = |engine: &mut Engine, mut instances: Vec<ProgramInstance>| {
        // Admit the instances in a seed-shuffled order (Fisher–Yates).
        for i in (1..instances.len()).rev() {
            instances.swap(i, rng.gen_range(0..=i));
        }
        random_schedule(engine, instances, &mut rng, 2)
    };
    run_scripted(schema, ltps, variant, sample).map(|(history, _)| history)
}

/// The executor's seeded random schedule over `instances`, at most `window` of them active at
/// once. Returns the actions that ran, or `None` when one failed.
fn random_schedule(
    engine: &mut Engine,
    instances: Vec<ProgramInstance>,
    rng: &mut StdRng,
    window: usize,
) -> Option<StepPlan> {
    let mut run = Interleaver::new(engine, IsolationLevel::ReadCommitted);
    let mut source = instances.into_iter();
    run.run_random(rng, window, |_, _| source.next()).ok()?;
    Some(run.into_plan())
}

/// The victim (counterflow source) node, the blamed read position, and the remaining witness
/// nodes in cycle order.
fn witness_cast(violation: &Violation) -> (NodeId, usize, Vec<NodeId>) {
    match violation {
        Violation::TypeI(w) => {
            let cf = w.counterflow_edge;
            (
                cf.from as NodeId,
                cf.from_stmt as usize,
                vec![cf.to as NodeId],
            )
        }
        Violation::TypeII(w) => {
            // Cycle: nc.from -> nc.to ~> middle.from -> middle.to (= cf.from) -> cf.to ~> back.
            let cf = w.counterflow_edge;
            (
                cf.from as NodeId,
                cf.from_stmt as usize,
                [
                    cf.to,
                    w.non_counterflow_edge.from,
                    w.non_counterflow_edge.to,
                    w.middle_edge.from,
                ]
                .map(|node| node as NodeId)
                .to_vec(),
            )
        }
    }
}

/// Judges an executed history; returns a realization when the checker rejects it.
fn evaluate(
    history: &History,
    ltps: &[&LinearProgram],
    variant: KeyVariant,
    plan: &StepPlan,
) -> Option<Realization> {
    let (verdict, anomaly) = judge(history);
    Some(Realization {
        instances: ltps.iter().map(|l| l.name().to_string()).collect(),
        key_variant: variant.label().to_string(),
        interleaving: plan_steps(plan),
        commit_order: plan.commit_order(),
        anomaly: anomaly?.describe(history),
        verdict,
        find_anomaly_agrees: true,
    })
}

fn plan_steps(plan: &StepPlan) -> Vec<PlanStep> {
    plan.actions
        .iter()
        .map(|a| match *a {
            PlanAction::Step { txn } => PlanStep {
                action: "step".to_string(),
                txn,
            },
            PlanAction::Commit { txn } => PlanStep {
                action: "commit".to_string(),
                txn,
            },
        })
        .collect()
}

/// Builds a fresh engine, preloads the rows the instantiation targets, and runs `schedule`
/// over the instances under MVRC. `None` when the execution aborts (failed attempt, not an
/// error).
fn run_scripted<T>(
    schema: &Schema,
    ltps: &[&LinearProgram],
    variant: KeyVariant,
    schedule: impl FnOnce(&mut Engine, Vec<ProgramInstance>) -> Option<T>,
) -> Option<(History, T)> {
    let targets = assign_targets(ltps, variant);
    let mut engine = Engine::new(schema.clone());
    preload(&mut engine, ltps, &targets);
    let instances = ltps
        .iter()
        .zip(&targets)
        .map(|(ltp, t)| ProgramInstance::from_ltp(ltp, t))
        .collect();
    let ran = schedule(&mut engine, instances)?;
    Some((engine.into_history(), ran))
}

/// Assigns a target key to every statement of every instance: the shared row (or the
/// instance's own row under [`KeyVariant::PerInstanceRows`]) for key-based reads and updates,
/// reserved ids (from 10) for deletes, and fresh ids (from 1000) for inserts.
fn assign_targets(ltps: &[&LinearProgram], variant: KeyVariant) -> Vec<Vec<i64>> {
    let mut reserved = 10i64;
    let mut fresh = 1000i64;
    let instances = ltps.len() as i64;
    ltps.iter()
        .enumerate()
        .map(|(instance, ltp)| {
            let base = match variant {
                KeyVariant::PerInstanceRows | KeyVariant::RotatedDeletes => 50 + instance as i64,
                _ => 0,
            };
            ltp.statements()
                .map(|(_, stmt)| match stmt.kind() {
                    StatementKind::Insert => {
                        fresh += 1;
                        fresh
                    }
                    StatementKind::KeyDelete | StatementKind::PredDelete => match variant {
                        KeyVariant::SharedDeletes => base,
                        KeyVariant::RotatedDeletes => 50 + (instance as i64 + 1) % instances,
                        _ => {
                            reserved += 1;
                            reserved
                        }
                    },
                    _ => base,
                })
                .collect()
        })
        .collect()
}

/// Preloads the shared row and every reserved delete target of each referenced relation.
fn preload(engine: &mut Engine, ltps: &[&LinearProgram], targets: &[Vec<i64>]) {
    let mut rows: BTreeSet<(usize, i64)> = BTreeSet::new();
    for (ltp, ltp_targets) in ltps.iter().zip(targets) {
        for (pos, stmt) in ltp.statements() {
            if stmt.kind() == StatementKind::Insert {
                continue;
            }
            rows.insert((stmt.rel().index(), 0));
            rows.insert((stmt.rel().index(), ltp_targets[pos]));
        }
    }
    for (rel_index, key) in rows {
        engine
            .load(RelId(rel_index as u16), Key(key))
            .expect("preload rows are distinct");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvrc_btp::{Statement, StmtId};
    use mvrc_robustness::{all_violations_in, CycleCondition, RobustnessSession};

    #[test]
    fn smallbank_type1_witness_realizes_as_a_rejected_history() {
        let session = RobustnessSession::new(mvrc_benchmarks::smallbank());
        let settings = mvrc_robustness::AnalysisSettings::paper_default();
        let graph_arc = session.graph(settings);
        let graph: &SummaryGraph = &graph_arc;
        let view = graph
            .induced_for_programs(&["Balance", "WriteCheck"])
            .unwrap();
        let violations = all_violations_in(&view, CycleCondition::TypeII);
        assert!(!violations.is_empty(), "Balance+WriteCheck is not robust");
        let subset = view.members().to_vec();
        let realization = realize_violation(session.schema(), graph, &subset, &violations[0])
            .expect("the witness must be realizable");
        assert!(!realization.verdict.serializable);
        assert!(realization.find_anomaly_agrees);
        assert!(!realization.anomaly.is_empty());
    }

    #[test]
    fn random_schedules_cover_every_statement_and_commit() {
        // The recorded actions of the random schedule form a valid plan, whatever the window,
        // statement-less instances included. Key selects of tuples that do not exist never
        // abort.
        let counts = [2, 3, 0, 1];
        let schema = mvrc_benchmarks::smallbank().schema;
        let relation = schema.relations().next().unwrap();
        let select = Statement::new("q", relation, StatementKind::KeySelect, None, None, None);
        let select = select.unwrap();
        for window in [2, counts.len()] {
            for seed in 0..16 {
                let instances = counts
                    .iter()
                    .map(|&n| {
                        let origins = (0..n as u16).map(StmtId).collect();
                        let ltp =
                            LinearProgram::new("T", "T", vec![select.clone(); n], origins, vec![]);
                        ProgramInstance::from_ltp(&ltp, &vec![0; n])
                    })
                    .collect();
                let mut engine = Engine::new(schema.clone());
                let mut rng = StdRng::seed_from_u64(seed);
                let plan = random_schedule(&mut engine, instances, &mut rng, window).unwrap();
                plan.validate(&counts)
                    .expect("recorded schedules are valid");
                assert_eq!(plan.actions.len(), 6 + counts.len());
                assert_eq!(engine.history().len(), counts.len());
            }
        }
    }
}
