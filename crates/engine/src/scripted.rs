//! The one executor of statement-interleaved transactions, and prescribed plans for it.
//!
//! Every executed history of the workspace runs through an [`Interleaver`]: the seeded driver
//! ([`crate::run_workload`]), the random samples and fallback of `mvrc-hist`'s witness
//! compiler, and the prescribed plans of [`run_plan`], including the paper's multiversion split
//! schedules. It admits transactions and runs one action at a time: the next statement of a
//! transaction, or its commit once none is left, a scheduling action of its own as in the
//! paper's schedules. A transaction begins at its first action. Under read committed that
//! changes nothing, since every statement reads the latest committed state; under snapshot
//! isolation and serializable the snapshot is taken at the first statement, as in PostgreSQL.
//! [`Interleaver::run_random`] is the one seeded random schedule on top of it.
//!
//! A [`StepPlan`] *prescribes* an interleaving: an explicit sequence of actions — run the next
//! statement of transaction `i`, or commit transaction `i` — and [`run_plan`] executes it
//! literally: transactions pause at every statement boundary and resume exactly when the plan
//! says, and commits happen in exactly the order the plan lists them (the engine's commit
//! counter then makes that the version order).
//!
//! Plans are validated *before* anything executes: a plan that steps a transaction past its
//! last statement, steps or re-commits an already-committed transaction, commits with
//! statements still pending, or leaves a transaction uncommitted is **refused** with a
//! [`PlanError`] — never silently reordered or truncated. This is what makes the module usable
//! as a witness compiler target: when `run_plan` returns `Ok`, the produced history is the
//! scheduled interleaving, not an approximation of it.

use crate::engine::{Engine, IsolationLevel, TxnToken};
use crate::error::{EngineError, EngineResult};
use crate::program::ProgramInstance;
use rand::rngs::StdRng;
use rand::Rng;
use std::fmt;

/// One action of a [`StepPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanAction {
    /// Run the next statement of transaction `txn`.
    Step {
        /// Admission number of the transaction (its index in the instance list).
        txn: usize,
    },
    /// Commit transaction `txn`. Every statement of the instance must have run.
    Commit {
        /// Admission number of the transaction (its index in the instance list).
        txn: usize,
    },
}

/// A deterministic statement-level schedule over a list of transaction instances.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StepPlan {
    /// The actions, executed in order.
    pub actions: Vec<PlanAction>,
}

/// Why a plan was refused by [`StepPlan::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// An action names a transaction index outside the instance list.
    UnknownTxn {
        /// The offending index.
        txn: usize,
        /// Number of instances the plan was validated against.
        instances: usize,
    },
    /// A `Step` would run past the transaction's last statement.
    StepPastEnd {
        /// The offending transaction.
        txn: usize,
        /// The transaction's statement count.
        steps: usize,
    },
    /// A `Step` or `Commit` targets a transaction that the plan already committed.
    ActionAfterCommit {
        /// The offending transaction.
        txn: usize,
    },
    /// A `Commit` arrives while statements of the transaction are still pending.
    CommitWithPendingSteps {
        /// The offending transaction.
        txn: usize,
        /// Statements that have not been scheduled yet.
        remaining: usize,
    },
    /// The plan ends without committing the transaction.
    MissingCommit {
        /// The uncommitted transaction.
        txn: usize,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::UnknownTxn { txn, instances } => {
                write!(
                    f,
                    "plan names transaction {txn} but only {instances} instances exist"
                )
            }
            PlanError::StepPastEnd { txn, steps } => {
                write!(
                    f,
                    "plan steps transaction {txn} past its last statement ({steps} steps)"
                )
            }
            PlanError::ActionAfterCommit { txn } => {
                write!(f, "plan acts on transaction {txn} after committing it")
            }
            PlanError::CommitWithPendingSteps { txn, remaining } => write!(
                f,
                "plan commits transaction {txn} with {remaining} statement(s) still pending"
            ),
            PlanError::MissingCommit { txn } => {
                write!(f, "plan never commits transaction {txn}")
            }
        }
    }
}

impl StepPlan {
    /// A serial plan: each transaction runs all its statements and commits before the next
    /// starts.
    pub fn serial(step_counts: &[usize]) -> StepPlan {
        let mut actions = Vec::new();
        for (txn, &steps) in step_counts.iter().enumerate() {
            actions.extend(std::iter::repeat(PlanAction::Step { txn }).take(steps));
            actions.push(PlanAction::Commit { txn });
        }
        StepPlan { actions }
    }

    /// The multiversion split schedule of the paper's non-robustness proofs: the *victim*
    /// transaction runs its first `prefix` statements, pauses, every other transaction runs to
    /// completion (in index order) and commits, and the victim then resumes and commits last.
    pub fn split_schedule(step_counts: &[usize], victim: usize, prefix: usize) -> StepPlan {
        assert!(victim < step_counts.len(), "victim index out of range");
        assert!(
            prefix <= step_counts[victim],
            "split prefix longer than the victim program"
        );
        let mut actions = Vec::new();
        actions.extend(std::iter::repeat(PlanAction::Step { txn: victim }).take(prefix));
        for (txn, &steps) in step_counts.iter().enumerate() {
            if txn == victim {
                continue;
            }
            actions.extend(std::iter::repeat(PlanAction::Step { txn }).take(steps));
            actions.push(PlanAction::Commit { txn });
        }
        actions.extend(
            std::iter::repeat(PlanAction::Step { txn: victim }).take(step_counts[victim] - prefix),
        );
        actions.push(PlanAction::Commit { txn: victim });
        StepPlan { actions }
    }

    /// Checks the plan against the statement counts of the instances it will drive.
    ///
    /// A valid plan runs every statement of every transaction exactly once, commits each
    /// transaction exactly once after its last statement, and never touches a committed
    /// transaction again.
    pub fn validate(&self, step_counts: &[usize]) -> Result<(), PlanError> {
        let n = step_counts.len();
        let mut stepped = vec![0usize; n];
        let mut committed = vec![false; n];
        for action in &self.actions {
            let txn = match *action {
                PlanAction::Step { txn } | PlanAction::Commit { txn } => txn,
            };
            if txn >= n {
                return Err(PlanError::UnknownTxn { txn, instances: n });
            }
            if committed[txn] {
                return Err(PlanError::ActionAfterCommit { txn });
            }
            match *action {
                PlanAction::Step { .. } => {
                    if stepped[txn] >= step_counts[txn] {
                        return Err(PlanError::StepPastEnd {
                            txn,
                            steps: step_counts[txn],
                        });
                    }
                    stepped[txn] += 1;
                }
                PlanAction::Commit { .. } => {
                    if stepped[txn] < step_counts[txn] {
                        return Err(PlanError::CommitWithPendingSteps {
                            txn,
                            remaining: step_counts[txn] - stepped[txn],
                        });
                    }
                    committed[txn] = true;
                }
            }
        }
        if let Some(txn) = committed.iter().position(|c| !c) {
            return Err(PlanError::MissingCommit { txn });
        }
        Ok(())
    }

    /// The commit order the plan prescribes (transaction indices, first committer first).
    pub fn commit_order(&self) -> Vec<usize> {
        self.actions
            .iter()
            .filter_map(|a| match a {
                PlanAction::Commit { txn } => Some(*txn),
                PlanAction::Step { .. } => None,
            })
            .collect()
    }
}

/// Why a scripted run failed.
#[derive(Debug)]
pub enum ScriptedError {
    /// The plan was refused before execution started (see [`StepPlan::validate`]).
    Refused(PlanError),
    /// A statement or commit failed mid-run (e.g. a write-lock abort). The failing transaction
    /// is rolled back; the others stay as they were.
    Execution(EngineError),
}

impl fmt::Display for ScriptedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScriptedError::Refused(e) => write!(f, "plan refused: {e}"),
            ScriptedError::Execution(e) => write!(f, "execution failed: {e}"),
        }
    }
}

/// The one executor of statement-interleaved transactions.
///
/// Transactions are admitted in order and numbered by admission. [`Interleaver::act`] runs
/// one action of an active transaction: its next statement, or its commit once none is left.
/// A transaction begins at its first action (a statement-less one at its commit), so an
/// SI/Serializable snapshot is taken there, not at admission. Every action is recorded as a
/// [`PlanAction`] naming the transaction by admission number.
#[derive(Debug)]
pub struct Interleaver<'e> {
    engine: &'e mut Engine,
    isolation: IsolationLevel,
    active: Vec<Admitted>,
    admitted: usize,
    plan: StepPlan,
}

#[derive(Debug)]
struct Admitted {
    index: usize,
    instance: ProgramInstance,
    txn: Option<TxnToken>,
}

impl<'e> Interleaver<'e> {
    /// An executor over `engine` running every transaction under `isolation`.
    pub fn new(engine: &'e mut Engine, isolation: IsolationLevel) -> Self {
        Interleaver {
            engine,
            isolation,
            active: Vec::new(),
            admitted: 0,
            plan: StepPlan::default(),
        }
    }

    /// The engine the transactions run against.
    pub fn engine(&self) -> &Engine {
        self.engine
    }

    /// Admits a transaction under the next admission number.
    pub fn admit(&mut self, instance: ProgramInstance) {
        self.active.push(Admitted {
            index: self.admitted,
            instance,
            txn: None,
        });
        self.admitted += 1;
    }

    /// Number of admitted transactions that have neither committed nor failed.
    pub fn active(&self) -> usize {
        self.active.len()
    }

    /// Runs the next action of the `i`-th active transaction (in admission order). A commit,
    /// or a failed statement or commit, removes the transaction; on failure it is rolled back
    /// and the error returned, while the other transactions stay active.
    pub fn act(&mut self, i: usize) -> EngineResult<()> {
        let (entry, engine) = (&mut self.active[i], &mut *self.engine);
        let txn = *entry
            .txn
            .get_or_insert_with(|| engine.begin(entry.instance.program(), self.isolation));
        let (action, result) = if entry.instance.is_done() {
            let commit = PlanAction::Commit { txn: entry.index };
            (commit, engine.commit(txn).map(drop))
        } else {
            let step = PlanAction::Step { txn: entry.index };
            (step, entry.instance.step(engine, txn))
        };
        self.plan.actions.push(action);
        if result.is_err() {
            // An abort already rolled the transaction back; any other error left it open.
            let _ = self.engine.rollback(txn);
        }
        if result.is_err() || matches!(action, PlanAction::Commit { .. }) {
            self.active.remove(i);
        }
        result
    }

    /// The seeded random schedule: before each action, admits transactions from `source`
    /// until `window` are active or the source has none, then acts on an active transaction
    /// drawn uniformly (`rng.gen_range(0..active)`, in admission order). Returns `Ok` once
    /// nothing is active and the source is dry, or the first failure; calling it again
    /// continues the schedule.
    pub fn run_random(
        &mut self,
        rng: &mut StdRng,
        window: usize,
        mut source: impl FnMut(&Self, &mut StdRng) -> Option<ProgramInstance>,
    ) -> EngineResult<()> {
        loop {
            while self.active.len() < window.max(1) {
                let Some(instance) = source(self, rng) else {
                    break;
                };
                self.admit(instance);
            }
            if self.active.is_empty() {
                return Ok(());
            }
            let i = rng.gen_range(0..self.active.len());
            self.act(i)?;
        }
    }

    /// The actions run, a failed one included, as a plan.
    pub fn into_plan(self) -> StepPlan {
        self.plan
    }
}

/// Executes `plan` over `instances` against `engine`, all transactions under `isolation`.
///
/// The plan is validated against the instances' remaining step counts first and refused with
/// [`ScriptedError::Refused`] when inconsistent. The instances are admitted in order and the
/// plan's picks run through [`Interleaver::act`]: each transaction begins at its first
/// scheduled action, pauses after every statement, and commits exactly where the plan says —
/// the engine's commit counter turns the plan's commit order into the version order of the
/// run. The first failing action ends the run.
pub fn run_plan(
    engine: &mut Engine,
    instances: Vec<ProgramInstance>,
    isolation: IsolationLevel,
    plan: &StepPlan,
) -> Result<(), ScriptedError> {
    let step_counts: Vec<usize> = instances.iter().map(ProgramInstance::remaining).collect();
    plan.validate(&step_counts)
        .map_err(ScriptedError::Refused)?;
    let mut run = Interleaver::new(engine, isolation);
    for instance in instances {
        run.admit(instance);
    }
    for action in &plan.actions {
        let (PlanAction::Step { txn } | PlanAction::Commit { txn }) = *action;
        let i = run
            .active
            .iter()
            .position(|a| a.index == txn)
            .expect("a valid plan acts only on uncommitted transactions");
        run.act(i).map_err(ScriptedError::Execution)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::AbortReason;
    use crate::program::tests::{ltp, schema, Decl};
    use crate::storage::{CommitTs, Key};
    use mvrc_btp::StatementKind::{KeySelect, KeyUpdate};
    use rand::SeedableRng;

    fn engine() -> Engine {
        let mut e = Engine::new(schema());
        let rel = e.schema().relation_by_name("R").unwrap().id();
        e.load(rel, Key(0)).unwrap();
        e
    }

    /// An instance that key-selects `R[0].a` and then key-updates `R[0].a` without reading it
    /// again (the read-then-write lost-update shape).
    fn read_then_write(engine: &Engine, name: &str) -> ProgramInstance {
        let statements: [Decl; 2] = [(KeySelect, &[], &["a"], &[]), (KeyUpdate, &[], &[], &["a"])];
        ProgramInstance::from_ltp(&ltp(engine.schema(), name, &statements), &[0, 0])
    }

    /// The commit timestamps of the versions the named committed transaction read, in order.
    fn observed(engine: &Engine, program: &str) -> Vec<CommitTs> {
        let committed = &engine.history().committed;
        let t = committed.iter().find(|t| t.program == program).unwrap();
        t.reads.iter().map(|r| r.observed_ts).collect()
    }

    /// The commit timestamp of the named committed transaction.
    fn commit_ts(engine: &Engine, program: &str) -> CommitTs {
        let committed = &engine.history().committed;
        committed
            .iter()
            .find(|t| t.program == program)
            .unwrap()
            .commit_ts
    }

    /// Program names of the committed transactions, first committer first.
    fn commit_order(engine: &Engine) -> Vec<&str> {
        let committed = &engine.history().committed;
        committed.iter().map(|t| t.program.as_str()).collect()
    }

    #[test]
    fn serial_plan_runs_in_order_and_commits_in_plan_order() {
        let mut engine = engine();
        let instances = vec![read_then_write(&engine, "A"), read_then_write(&engine, "B")];
        let plan = StepPlan::serial(&[2, 2]);
        run_plan(&mut engine, instances, IsolationLevel::ReadCommitted, &plan).unwrap();
        assert_eq!(commit_order(&engine), ["A", "B"]);
        // Serial execution: B read A's committed version, nothing anomalous.
        assert_eq!(observed(&engine, "B"), [commit_ts(&engine, "A")]);
        assert!(engine.history().find_anomaly().is_none());
    }

    #[test]
    fn split_schedule_realizes_a_lost_update_anomaly() {
        // Victim reads, pauses at the statement boundary; the other instance runs fully and
        // commits; the victim resumes with a stale statement snapshot and overwrites: the
        // classic counterflow rw-antidependency cycle of the paper.
        let mut engine = engine();
        let instances = vec![
            read_then_write(&engine, "Victim"),
            read_then_write(&engine, "Other"),
        ];
        let plan = StepPlan::split_schedule(&[2, 2], 0, 1);
        run_plan(&mut engine, instances, IsolationLevel::ReadCommitted, &plan).unwrap();
        // Forced commit order: Other first, Victim last.
        assert_eq!(commit_order(&engine), ["Other", "Victim"]);
        // Other's write was lost: the victim overwrote it from the initial version it read.
        assert_eq!(observed(&engine, "Victim"), [0]);
        let anomaly = engine
            .history()
            .find_anomaly()
            .expect("lost update must be an anomaly");
        assert!(anomaly.is_type1());
    }

    #[test]
    fn plans_violating_their_own_constraints_are_refused() {
        // Step past the end.
        let plan = StepPlan {
            actions: vec![
                PlanAction::Step { txn: 0 },
                PlanAction::Step { txn: 0 },
                PlanAction::Step { txn: 0 },
            ],
        };
        assert_eq!(
            plan.validate(&[2]),
            Err(PlanError::StepPastEnd { txn: 0, steps: 2 })
        );

        // Commit with pending steps is refused, not reordered.
        let plan = StepPlan {
            actions: vec![PlanAction::Step { txn: 0 }, PlanAction::Commit { txn: 0 }],
        };
        assert_eq!(
            plan.validate(&[2]),
            Err(PlanError::CommitWithPendingSteps {
                txn: 0,
                remaining: 1
            })
        );

        // Acting on a committed transaction.
        let plan = StepPlan {
            actions: vec![
                PlanAction::Step { txn: 0 },
                PlanAction::Commit { txn: 0 },
                PlanAction::Step { txn: 0 },
            ],
        };
        assert_eq!(
            plan.validate(&[1]),
            Err(PlanError::ActionAfterCommit { txn: 0 })
        );

        // Unknown transaction index.
        let plan = StepPlan {
            actions: vec![PlanAction::Step { txn: 3 }],
        };
        assert_eq!(
            plan.validate(&[1]),
            Err(PlanError::UnknownTxn {
                txn: 3,
                instances: 1
            })
        );

        // A transaction left uncommitted.
        let plan = StepPlan {
            actions: vec![PlanAction::Step { txn: 0 }, PlanAction::Commit { txn: 0 }],
        };
        assert_eq!(
            plan.validate(&[1, 1]),
            Err(PlanError::MissingCommit { txn: 1 })
        );

        // And run_plan refuses before touching the engine.
        let mut engine = engine();
        let instances = vec![read_then_write(&engine, "A")];
        let bad = StepPlan {
            actions: vec![PlanAction::Commit { txn: 0 }],
        };
        let err =
            run_plan(&mut engine, instances, IsolationLevel::ReadCommitted, &bad).unwrap_err();
        assert!(matches!(
            err,
            ScriptedError::Refused(PlanError::CommitWithPendingSteps { .. })
        ));
        assert_eq!(engine.active_count(), 0);
        assert!(engine.history().is_empty());
        assert_eq!(
            engine.begin("Probe", IsolationLevel::ReadCommitted),
            TxnToken(1),
            "no transaction began"
        );
    }

    #[test]
    fn execution_aborts_surface_and_leave_the_engine_clean() {
        // Two transactions racing the same write while both are uncommitted: the second write
        // hits the row lock and aborts; run_plan reports it and stops.
        let mut engine = engine();
        let instances = vec![read_then_write(&engine, "A"), read_then_write(&engine, "B")];
        let plan = StepPlan {
            actions: vec![
                PlanAction::Step { txn: 0 },
                PlanAction::Step { txn: 0 }, // A buffers its write, holds the row lock
                PlanAction::Step { txn: 1 },
                PlanAction::Step { txn: 1 }, // B's write hits the lock → abort
                PlanAction::Commit { txn: 1 },
                PlanAction::Commit { txn: 0 },
            ],
        };
        let err =
            run_plan(&mut engine, instances, IsolationLevel::ReadCommitted, &plan).unwrap_err();
        match err {
            ScriptedError::Execution(error) => {
                assert_eq!(error, EngineError::Aborted(AbortReason::WriteLocked));
            }
            other => panic!("expected an execution error, got {other}"),
        }
        assert!(engine.history().is_empty(), "nothing committed");
    }

    #[test]
    fn statement_snapshots_refresh_at_resume_points() {
        // Pause/resume semantics: the victim's *second* statement begins after the concurrent
        // commit, so under read committed it must observe the new version (no stale snapshot is
        // carried across the pause) — while its first statement's observation stays old.
        let mut engine = engine();
        let reads: [Decl; 2] = [(KeySelect, &[], &["a"], &[]), (KeySelect, &[], &["a"], &[])];
        let reader = ltp(engine.schema(), "Reader", &reads);
        let instances = vec![
            ProgramInstance::from_ltp(&reader, &[0, 0]),
            read_then_write(&engine, "Writer"),
        ];
        let plan = StepPlan::split_schedule(&[2, 2], 0, 1);
        run_plan(&mut engine, instances, IsolationLevel::ReadCommitted, &plan).unwrap();
        assert_eq!(
            observed(&engine, "Reader"),
            [0, commit_ts(&engine, "Writer")],
            "the resumed statement must observe the commit that happened during the pause"
        );
    }

    #[test]
    fn split_schedule_shape_and_commit_order_helper() {
        let plan = StepPlan::split_schedule(&[3, 2, 1], 0, 2);
        assert!(plan.validate(&[3, 2, 1]).is_ok());
        assert_eq!(plan.commit_order(), vec![1, 2, 0]);
        let serial = StepPlan::serial(&[1, 1]);
        assert_eq!(serial.commit_order(), vec![0, 1]);
    }

    #[test]
    fn a_failed_action_removes_only_its_transaction_and_the_schedule_continues() {
        let mut engine = engine();
        let (a, b) = (read_then_write(&engine, "A"), read_then_write(&engine, "B"));
        let mut replacement = Some(read_then_write(&engine, "Replacement"));
        let mut run = Interleaver::new(&mut engine, IsolationLevel::ReadCommitted);
        run.admit(a);
        run.admit(b);
        run.act(0).unwrap();
        run.act(0).unwrap(); // A buffers its write and holds the row lock
        run.act(1).unwrap();
        assert_eq!(
            run.act(1),
            Err(EngineError::Aborted(AbortReason::WriteLocked))
        );
        assert_eq!(run.active(), 1, "only B is removed");

        // Re-entering the schedule commits A and asks the source for B's replacement.
        let mut asked = 0;
        let mut rng = StdRng::seed_from_u64(0);
        run.run_random(&mut rng, 1, |_, _| {
            asked += 1;
            replacement.take()
        })
        .unwrap();
        assert_eq!(
            asked, 2,
            "once for the replacement, once to find the source dry"
        );
        assert_eq!(run.active(), 0);
        // B's failed write is recorded; B never commits.
        let (s, c) = (
            |txn| PlanAction::Step { txn },
            |txn| PlanAction::Commit { txn },
        );
        assert_eq!(
            run.into_plan().actions,
            [s(0), s(0), s(1), s(1), c(0), s(2), s(2), c(2)]
        );
        assert_eq!(commit_order(&engine), ["A", "Replacement"]);
        assert_eq!(observed(&engine, "Replacement"), [commit_ts(&engine, "A")]);
    }
}
