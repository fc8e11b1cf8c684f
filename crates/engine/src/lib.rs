//! # mvrc-engine
//!
//! An in-memory **multi-version execution engine** used to validate the static robustness
//! verdicts of `mvrc-robustness` dynamically — the executable counterpart of the schedule
//! formalism of *"Detecting Robustness against MVRC for Transaction Programs with Predicate
//! Reads"* (EDBT 2023).
//!
//! The paper's contribution is a *static* analysis: it decides at design time whether a set of
//! transaction programs can run under multi-version Read Committed (MVRC) without ever producing
//! a non-serializable execution. This crate provides the other half of the story:
//!
//! * [`Engine`] — a versioned in-memory database executing transactions under
//!   [`IsolationLevel::ReadCommitted`] (the paper's MVRC: statement-level read-last-committed,
//!   no dirty writes), [`IsolationLevel::SnapshotIsolation`] or [`IsolationLevel::Serializable`]
//!   (optimistic certification).
//! * [`History`] — a record of every committed transaction's reads and writes, from which the
//!   *dynamic* serialization graph is built; cycles are concrete serialization anomalies. This is
//!   the one serializability decider of the workspace: [`History::dependencies`] derives the
//!   graph cell by cell and [`History::serialization_order`] peels it into a serialization
//!   order or a cycle. [`run_workload`], [`History::find_anomaly`], [`History::report`] and the
//!   certificates of `mvrc-hist` all use it; `mvrc-hist`'s `tests/cross_check.rs` holds its one
//!   oracle.
//! * [`ProgramInstance::from_ltp`] — the generic lowering of a linear transaction program (an
//!   `Unfold≤2` LTP of a BTP) onto engine steps, one step per statement. It is the one way
//!   programs reach the engine.
//! * [`ExecutableWorkload`] — any `mvrc-btp` [`Workload`](mvrc_btp::Workload) made runnable
//!   through that lowering: the bundled benchmarks of `mvrc-benchmarks` and user SQL files
//!   alike, over a small preloaded database whose size sets the contention.
//! * [`Interleaver`] — the one executor of statement-interleaved transactions. It admits
//!   transactions and runs one action at a time, the next statement or the commit, beginning
//!   each transaction at its first action (so a snapshot-isolation or serializable snapshot is
//!   taken at the first statement, as in PostgreSQL), and records what it ran. Its seeded random
//!   schedule ([`Interleaver::run_random`]) drives [`run_workload`] and `mvrc-hist`'s samples;
//!   [`run_plan`] runs prescribed [`StepPlan`]s, such as the paper's split schedules, through
//!   it. `Engine::begin` and `Engine::commit` are called nowhere else.
//! * [`run_workload`] — the seeded driver producing [`RunStats`] (commits, aborts by reason,
//!   serializability report).
//!
//! Together these let the test-suite and the examples demonstrate, on real executions, the two
//! directions of the robustness property: workloads attested robust never produce anomalies
//! under MVRC, and workloads rejected as non-robust do produce them under contention — while the
//! serializable isolation level pays for its guarantee with extra aborts.
//!
//! ```
//! use mvrc_engine::{run_workload, DriverConfig, ExecutableWorkload, IsolationLevel};
//!
//! let workload = ExecutableWorkload::new(&mvrc_benchmarks::auction(), 2);
//! let stats = run_workload(&workload, DriverConfig::with_isolation(IsolationLevel::ReadCommitted));
//! assert!(stats.is_serializable()); // the Auction workload is robust against MVRC
//! ```

mod driver;
mod engine;
mod error;
mod history;
mod lower;
mod program;
mod scripted;
mod storage;
mod value;
mod workloads;

pub use driver::{compare_isolation_levels, run_workload, DriverConfig, RunStats};
pub use engine::{Engine, IsolationLevel, TxnToken};
pub use error::{AbortReason, EngineError, EngineResult};
pub use history::{
    Anomaly, CommittedTransaction, DynDepKind, DynDependency, History, HistoryReport,
    RecordedPredicateRead, RecordedRead, RecordedWrite, WriteKind,
};
pub use lower::lowered_row;
pub use program::{ProgramInstance, StepFn};
pub use scripted::{run_plan, Interleaver, PlanAction, PlanError, ScriptedError, StepPlan};
pub use storage::{CommitTs, Storage, StoredVersion, Table, VersionChain, WriterId};
pub use value::{extract, project, Key, Row, Value};
pub use workloads::ExecutableWorkload;
