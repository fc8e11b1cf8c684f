//! # mvrc-repro
//!
//! Facade crate of the reproduction of *"Detecting Robustness against MVRC for Transaction
//! Programs with Predicate Reads"* (Vandevoort, Ketsman, Koch, Neven — EDBT 2023).
//!
//! It re-exports the workspace crates under stable module names and hosts the runnable examples
//! (`examples/`) and the cross-crate integration / property tests (`tests/`):
//!
//! * [`schema`] — relational schemas, attribute sets, foreign keys ([`mvrc_schema`]).
//! * [`btp`] — basic/linear transaction programs, unfolding, the SQL front-end ([`mvrc_btp`]).
//! * [`par`] — the work-stealing parallel runtime under the analysis layers ([`mvrc_par`]).
//! * [`robustness`] — summary graphs (Algorithm 1) and the robustness tests (Algorithm 2 and the
//!   type-I baseline) ([`mvrc_robustness`]).
//! * [`benchmarks`] — SmallBank, TPC-C, Auction, Auction(n) and the synthetic generator
//!   ([`mvrc_benchmarks`]).
//!
//! Dynamic validation is not re-exported: the tests and examples use `mvrc-engine` (the
//! multi-version engine and its executed histories) and `mvrc-hist` (the witness compiler,
//! the independent serializability checker and `certify_subset`) directly.
//!
//! ## Quick start
//!
//! ```
//! use mvrc_repro::prelude::*;
//!
//! let session = RobustnessSession::new(mvrc_repro::benchmarks::auction());
//! let report = session.analyze(AnalysisSettings::paper_default());
//! assert!(report.is_robust());
//! ```

pub use mvrc_benchmarks as benchmarks;
pub use mvrc_btp as btp;
pub use mvrc_par as par;
pub use mvrc_robustness as robustness;
pub use mvrc_schema as schema;

/// Commonly used items, re-exported for convenient glob imports in examples and applications.
pub mod prelude {
    pub use mvrc_btp::sql::{parse_catalog, parse_workload, parse_workload_file};
    pub use mvrc_btp::{
        unfold_set_le2, LinearProgram, Program, ProgramBuilder, StatementKind, Workload,
    };
    pub use mvrc_robustness::{
        explore_subsets, explore_subsets_naive, explore_subsets_with, AnalysisReport,
        AnalysisSettings, CycleCondition, ExploreOptions, Granularity, InducedView, Parallelism,
        RobustnessSession, SummaryGraph, SummaryGraphView,
    };
    pub use mvrc_schema::{Schema, SchemaBuilder};
}
