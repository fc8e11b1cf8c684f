//! Scripted (deterministic) execution of statement-interleaved transactions.
//!
//! The random [`crate::driver`] explores interleavings; this module *prescribes* one. A
//! [`StepPlan`] is an explicit sequence of statement-level actions — run the next statement of
//! transaction `i`, or commit transaction `i` — and [`run_plan`] executes it literally against
//! an [`Engine`]: transactions pause at every statement boundary and resume exactly when the
//! plan says, and commits happen in exactly the order the plan lists them (the engine's commit
//! counter then makes that the version order).
//!
//! Plans are validated *before* anything executes: a plan that steps a transaction past its
//! last statement, steps or re-commits an already-committed transaction, commits with
//! statements still pending, or leaves a transaction uncommitted is **refused** with a
//! [`PlanError`] — never silently reordered or truncated. This is what makes the module usable
//! as a witness compiler target: when `run_plan` returns `Ok`, the produced history is the
//! scheduled interleaving, not an approximation of it.

use crate::engine::{Engine, IsolationLevel, TxnToken};
use crate::error::EngineError;
use crate::program::ProgramInstance;
use crate::storage::CommitTs;
use std::fmt;

/// One action of a [`StepPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanAction {
    /// Run the next statement of transaction `txn` (an index into the instance list).
    Step {
        /// Index of the transaction instance.
        txn: usize,
    },
    /// Commit transaction `txn`. Every statement of the instance must have run.
    Commit {
        /// Index of the transaction instance.
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
    /// A statement or commit failed mid-run (e.g. a write-lock abort). The engine has rolled
    /// back the failing transaction; `run_plan` rolls back all other still-active ones so the
    /// engine is reusable.
    Execution {
        /// Index of the plan action that failed.
        action: usize,
        /// The transaction the action targeted.
        txn: usize,
        /// The underlying engine error.
        error: EngineError,
    },
}

impl fmt::Display for ScriptedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScriptedError::Refused(e) => write!(f, "plan refused: {e}"),
            ScriptedError::Execution { action, txn, error } => {
                write!(f, "action {action} (transaction {txn}) failed: {error}")
            }
        }
    }
}

/// Result of a successful scripted run.
#[derive(Debug, Clone)]
pub struct ScriptedRun {
    /// Commit timestamps per transaction index, in instance order.
    pub commit_ts: Vec<CommitTs>,
    /// Transaction indices in commit order (equals the plan's [`StepPlan::commit_order`]).
    pub commit_order: Vec<usize>,
}

/// Executes `plan` over `instances` against `engine`, all transactions under `isolation`.
///
/// The plan is validated against the instances' remaining step counts first and refused with
/// [`ScriptedError::Refused`] when inconsistent. Each transaction `begin`s at its first
/// scheduled statement (so a read-committed statement snapshot is never older than the plan
/// position that starts it), pauses after every statement, and commits exactly where the plan
/// says — the engine's commit counter turns the plan's commit order into the version order of
/// the run. On an execution error every still-active transaction is rolled back.
pub fn run_plan(
    engine: &mut Engine,
    instances: &mut [ProgramInstance],
    isolation: IsolationLevel,
    plan: &StepPlan,
) -> Result<ScriptedRun, ScriptedError> {
    let step_counts: Vec<usize> = instances.iter().map(|i| i.remaining()).collect();
    plan.validate(&step_counts)
        .map_err(ScriptedError::Refused)?;

    let n = instances.len();
    let mut tokens: Vec<Option<TxnToken>> = vec![None; n];
    let mut commit_ts: Vec<CommitTs> = vec![0; n];
    let mut commit_order = Vec::new();
    let fail = |engine: &mut Engine,
                tokens: &mut [Option<TxnToken>],
                failed: usize,
                action: usize,
                error: EngineError| {
        // The engine already rolled back the failing transaction on abort errors; roll back
        // every other transaction that is still active so the engine stays reusable.
        for (i, token) in tokens.iter_mut().enumerate() {
            if let Some(t) = token.take() {
                if i != failed {
                    let _ = engine.rollback(t);
                }
            }
        }
        ScriptedError::Execution {
            action,
            txn: failed,
            error,
        }
    };

    for (idx, action) in plan.actions.iter().enumerate() {
        match *action {
            PlanAction::Step { txn } => {
                let token = match tokens[txn] {
                    Some(t) => t,
                    None => {
                        let t = engine.begin(instances[txn].program(), isolation);
                        tokens[txn] = Some(t);
                        t
                    }
                };
                if let Err(error) = instances[txn].step(engine, token) {
                    return Err(fail(engine, &mut tokens, txn, idx, error));
                }
            }
            PlanAction::Commit { txn } => {
                // A statement-less instance never ran a step; begin it here so the commit is
                // still recorded under its program name.
                let token = match tokens[txn] {
                    Some(t) => t,
                    None => engine.begin(instances[txn].program(), isolation),
                };
                tokens[txn] = None;
                match engine.commit(token) {
                    Ok(ts) => {
                        commit_ts[txn] = ts;
                        commit_order.push(txn);
                    }
                    Err(error) => {
                        return Err(fail(engine, &mut tokens, txn, idx, error));
                    }
                }
            }
        }
    }
    Ok(ScriptedRun {
        commit_ts,
        commit_order,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::AbortReason;
    use crate::program::StepFn;
    use crate::value::{Key, Value};
    use mvrc_schema::SchemaBuilder;
    use std::sync::atomic::{AtomicI64, Ordering};
    use std::sync::Arc;

    fn engine() -> Engine {
        let mut b = SchemaBuilder::new("s");
        b.relation("R", &["k", "v"], &["k"]).unwrap();
        let mut e = Engine::new(b.build());
        let rel = e.rel("R").unwrap();
        e.load(rel, vec![Value::Int(0), Value::Int(100)]).unwrap();
        e
    }

    /// An instance that key-selects `R[0].v` and then key-updates it to `seen + delta`
    /// (the read-then-write lost-update shape). The read value passes to the write through a
    /// captured cell.
    fn read_then_write(engine: &Engine, name: &str, delta: i64) -> ProgramInstance {
        let rel = engine.rel("R").unwrap();
        let attrs = engine.attrs(rel, &["v"]).unwrap();
        let attr = engine.attr(rel, "v").unwrap();
        let seen = Arc::new(AtomicI64::new(0));
        let read: StepFn = Box::new({
            let seen = Arc::clone(&seen);
            move |engine, txn| {
                let row = engine
                    .read_key(txn, rel, &Key::int(0), attrs)?
                    .expect("row 0 exists");
                seen.store(row[1].as_int().unwrap(), Ordering::SeqCst);
                Ok(())
            }
        });
        let write: StepFn = Box::new(move |engine, txn| {
            let new = seen.load(Ordering::SeqCst) + delta;
            engine.update_key(txn, rel, &Key::int(0), AttrSet::empty(), attrs, move |_| {
                vec![(attr, Value::Int(new))]
            })
        });
        ProgramInstance::new(name, vec![read, write])
    }

    use mvrc_schema::AttrSet;

    #[test]
    fn serial_plan_runs_in_order_and_commits_in_plan_order() {
        let mut engine = engine();
        let mut instances = vec![
            read_then_write(&engine, "A", 1),
            read_then_write(&engine, "B", 10),
        ];
        let plan = StepPlan::serial(&[2, 2]);
        let run = run_plan(
            &mut engine,
            &mut instances,
            IsolationLevel::ReadCommitted,
            &plan,
        )
        .unwrap();
        assert_eq!(run.commit_order, vec![0, 1]);
        assert!(run.commit_ts[0] < run.commit_ts[1]);
        // Serial execution: B read A's committed value, nothing anomalous.
        let rel = engine.rel("R").unwrap();
        assert_eq!(
            engine.latest_row(rel, &Key::int(0)).unwrap()[1],
            Value::Int(111)
        );
        assert!(engine.history().find_anomaly().is_none());
    }

    #[test]
    fn split_schedule_realizes_a_lost_update_anomaly() {
        // Victim reads, pauses at the statement boundary; the other instance runs fully and
        // commits; the victim resumes with a stale statement snapshot and overwrites: the
        // classic counterflow rw-antidependency cycle of the paper.
        let mut engine = engine();
        let mut instances = vec![
            read_then_write(&engine, "Victim", 1),
            read_then_write(&engine, "Other", 10),
        ];
        let plan = StepPlan::split_schedule(&[2, 2], 0, 1);
        let run = run_plan(
            &mut engine,
            &mut instances,
            IsolationLevel::ReadCommitted,
            &plan,
        )
        .unwrap();
        // Forced commit order: Other first, Victim last.
        assert_eq!(run.commit_order, vec![1, 0]);
        let rel = engine.rel("R").unwrap();
        // Other's +10 was lost: the victim wrote 100 + 1 over it.
        assert_eq!(
            engine.latest_row(rel, &Key::int(0)).unwrap()[1],
            Value::Int(101)
        );
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
        let mut instances = vec![read_then_write(&engine, "A", 1)];
        let bad = StepPlan {
            actions: vec![PlanAction::Commit { txn: 0 }],
        };
        let err = run_plan(
            &mut engine,
            &mut instances,
            IsolationLevel::ReadCommitted,
            &bad,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            ScriptedError::Refused(PlanError::CommitWithPendingSteps { .. })
        ));
        assert_eq!(engine.active_count(), 0);
        assert!(engine.history().is_empty());
        assert_eq!(instances[0].remaining(), 2);
    }

    #[test]
    fn execution_aborts_surface_and_leave_the_engine_clean() {
        // Two transactions racing the same write while both are uncommitted: the second write
        // hits the row lock and aborts; run_plan reports it and rolls everything back.
        let mut engine = engine();
        let mut instances = vec![
            read_then_write(&engine, "A", 1),
            read_then_write(&engine, "B", 10),
        ];
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
        let err = run_plan(
            &mut engine,
            &mut instances,
            IsolationLevel::ReadCommitted,
            &plan,
        )
        .unwrap_err();
        match err {
            ScriptedError::Execution { txn, error, .. } => {
                assert_eq!(txn, 1);
                assert_eq!(error, EngineError::Aborted(AbortReason::WriteLocked));
            }
            other => panic!("expected an execution error, got {other}"),
        }
        assert_eq!(engine.active_count(), 0, "all transactions rolled back");
        assert!(engine.history().is_empty(), "nothing committed");
    }

    #[test]
    fn statement_snapshots_refresh_at_resume_points() {
        // Pause/resume semantics: the victim's *second* statement begins after the concurrent
        // commit, so under read committed it must observe the new value (no stale snapshot is
        // carried across the pause) — while its first statement's observation stays old.
        let mut engine = engine();
        let rel = engine.rel("R").unwrap();
        let attrs = engine.attrs(rel, &["v"]).unwrap();
        let first = Arc::new(AtomicI64::new(0));
        let second = Arc::new(AtomicI64::new(0));
        let read_into = |cell: &Arc<AtomicI64>| -> StepFn {
            let cell = Arc::clone(cell);
            Box::new(move |engine, txn| {
                let row = engine.read_key(txn, rel, &Key::int(0), attrs)?.unwrap();
                cell.store(row[1].as_int().unwrap(), Ordering::SeqCst);
                Ok(())
            })
        };
        let mut instances = vec![
            ProgramInstance::new("Reader", vec![read_into(&first), read_into(&second)]),
            read_then_write(&engine, "Writer", 10),
        ];
        let plan = StepPlan::split_schedule(&[2, 2], 0, 1);
        run_plan(
            &mut engine,
            &mut instances,
            IsolationLevel::ReadCommitted,
            &plan,
        )
        .unwrap();
        assert_eq!(first.load(Ordering::SeqCst), 100);
        assert_eq!(
            second.load(Ordering::SeqCst),
            110,
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
}
