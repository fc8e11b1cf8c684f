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
//!   *dynamic* serialization graph is built; cycles are concrete serialization anomalies.
//! * [`ExecutableWorkload`] — runnable SmallBank, Auction and TPC-C workloads
//!   ([`smallbank_executable`], [`auction_executable`], [`tpcc_executable`]) whose statement
//!   structure matches the BTPs of `mvrc-benchmarks`.
//! * [`run_workload`] — a seeded, statement-interleaving driver producing [`RunStats`] (commits,
//!   aborts by reason, serializability report).
//!
//! Together these let the test-suite and the examples demonstrate, on real executions, the two
//! directions of the robustness property: workloads attested robust never produce anomalies
//! under MVRC, and workloads rejected as non-robust do produce them under contention — while the
//! serializable isolation level pays for its guarantee with extra aborts.
//!
//! ```
//! use mvrc_engine::{
//!     auction_executable, run_workload, AuctionConfig, DriverConfig, IsolationLevel,
//! };
//!
//! let workload = auction_executable(AuctionConfig::default());
//! let stats = run_workload(&workload, DriverConfig::with_isolation(IsolationLevel::ReadCommitted));
//! assert!(stats.is_serializable()); // the Auction workload is robust against MVRC
//! ```

mod driver;
mod engine;
mod error;
mod history;
mod program;
mod scripted;
mod storage;
mod tpcc;
mod value;
mod workloads;

pub use driver::{compare_isolation_levels, run_workload, DriverConfig, RunStats};
pub use engine::{Engine, IsolationLevel, TxnToken};
pub use error::{AbortReason, EngineError, EngineResult};
pub use history::{
    Anomaly, CommittedTransaction, DynDepKind, DynDependency, History, HistoryReport,
    RecordedPredicateRead, RecordedRead, RecordedWrite, WriteKind,
};
pub use program::{Locals, ProgramInstance, StepFn};
pub use scripted::{run_plan, PlanAction, PlanError, ScriptedError, ScriptedRun, StepPlan};
pub use storage::{CommitTs, Storage, StoredVersion, Table, VersionChain, WriterId};
pub use tpcc::{tpcc_executable, TpccConfig};
pub use value::{extract, project, Key, Row, Value};
pub use workloads::{
    auction_executable, smallbank_executable, AuctionConfig, ExecutableWorkload, ProgramGenerator,
    SmallBankConfig,
};
