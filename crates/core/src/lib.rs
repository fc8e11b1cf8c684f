//! # mvrc-robustness
//!
//! Detection of **robustness against multi-version Read Committed (MVRC)** for transaction
//! programs with inserts, deletes and predicate reads — a reproduction of the core contribution
//! of *"Detecting Robustness against MVRC for Transaction Programs with Predicate Reads"*
//! (Vandevoort, Ketsman, Koch, Neven — EDBT 2023).
//!
//! A workload (a set of [basic transaction programs](mvrc_btp::Program)) is *robust against
//! MVRC* when every schedule the programs can produce under isolation level MVRC is conflict
//! serializable: the workload can then be executed under the cheaper isolation level without
//! giving up serializability.
//!
//! The crate implements the paper's sound detection pipeline:
//!
//! 1. **Unfolding** — `Unfold≤2` reduces programs with loops and branching to a finite set of
//!    linear transaction programs ([`mvrc_btp::unfold_set_le2`], Proposition 6.1).
//! 2. **Summary graph** — [`SummaryGraph::construct`] (Algorithm 1) over-approximates every
//!    dependency any two program instantiations may exhibit, using the statement-type tables of
//!    Table 1 ([`tables`]), attribute-set intersections and foreign-key reasoning.
//! 3. **Cycle test** — [`find_type2_violation`] (Algorithm 2) attests robustness when the graph
//!    contains no *type-II cycle* (Theorem 6.4); [`find_type1_violation`] implements the older
//!    type-I condition of Alomari & Fekete for comparison.
//!
//! The high-level entry point is the stateful [`RobustnessSession`], opened over a
//! [`Workload`] (schema + programs + unfold options): it builds and caches one summary graph
//! per settings combination and answers every query — full-workload analyses, program subsets,
//! the [`explore_subsets`] sweep of Section 7 — through cheap views of the cached graphs,
//! updating them incrementally under workload edits. The subset sweep additionally exploits
//! both directions of Proposition 5.2 to skip the cycle test for subsets of known-robust sets
//! and supersets of known-non-robust ones. It walks the popcount levels over the words of the
//! verdict bitsets (no level is ever materialized); a large sweep splits each level across the
//! threads of one [`std::thread::scope`], pinnable per call through [`Parallelism`] on
//! [`ExploreOptions`].
//!
//! ```
//! use mvrc_schema::SchemaBuilder;
//! use mvrc_btp::{sql::parse_workload, Workload};
//! use mvrc_robustness::{AnalysisSettings, RobustnessSession};
//!
//! let mut sb = SchemaBuilder::new("auction");
//! let buyer = sb.relation("Buyer", &["id", "calls"], &["id"]).unwrap();
//! let bids = sb.relation("Bids", &["buyerId", "bid"], &["buyerId"]).unwrap();
//! let log = sb.relation("Log", &["id", "buyerId", "bid"], &["id"]).unwrap();
//! sb.foreign_key("f1", bids, &["buyerId"], buyer, &["id"]).unwrap();
//! sb.foreign_key("f2", log, &["buyerId"], buyer, &["id"]).unwrap();
//! let schema = sb.build();
//!
//! let programs = parse_workload(&schema, r#"
//!     PROGRAM FindBids(:B, :T) {
//!         UPDATE Buyer SET calls = calls + 1 WHERE id = :B;
//!         SELECT bid FROM Bids WHERE bid >= :T;
//!     }
//!     PROGRAM PlaceBid(:B, :V) {
//!         UPDATE Buyer SET calls = calls + 1 WHERE id = :B;
//!         SELECT bid INTO :C FROM Bids WHERE buyerId = :B;
//!         IF :C < :V THEN
//!             UPDATE Bids SET bid = :V WHERE buyerId = :B;
//!         ENDIF;
//!         INSERT INTO Log VALUES (:logId, :B, :V);
//!     }
//! "#).unwrap();
//!
//! let session = RobustnessSession::new(Workload::new("Auction", schema, programs, &[]));
//! assert!(session.is_robust(AnalysisSettings::paper_default()));
//! ```

mod algorithm;
mod analysis;
mod dot;
mod kernels;
mod session;
mod settings;
mod subsets;
mod summary;
pub mod tables;

pub use algorithm::{
    all_violations, all_violations_in, find_type1_violation, find_type1_violation_in,
    find_type2_violation, find_type2_violation_in, is_robust, is_robust_view, RobustnessOutcome,
    Type1Witness, Type2Witness, Violation,
};
pub use analysis::AnalysisReport;
pub use dot::{to_dot, to_dot_view, DotOptions};
pub use mvrc_btp::Workload;
pub use mvrc_par::Parallelism;
pub use session::RobustnessSession;
pub use settings::{AnalysisSettings, CycleCondition, Granularity};
pub use subsets::{
    abbreviate_program_name, explore_subsets, explore_subsets_with, ExploreOptions,
    SubsetExploration, TooManyPrograms, MAX_SWEEP_PROGRAMS,
};
pub use summary::{
    c_dep_conds, describe_edge_in, nc_dep_conds, EdgeKind, InducedView, NodeId, PrefetchedView,
    SummaryEdge, SummaryGraph, SummaryGraphView, UnknownProgram,
};
