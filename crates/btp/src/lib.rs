//! # mvrc-btp
//!
//! **Basic Transaction Programs (BTPs)** and **Linear Transaction Programs (LTPs)** — the
//! program formalism of Sections 2, 5 and 6.1 of *"Detecting Robustness against MVRC for
//! Transaction Programs with Predicate Reads"* (EDBT 2023).
//!
//! A BTP is a program built from abstract *statements* — inserts, key-based or predicate-based
//! selections, updates and deletions — combined with sequencing, branching `(P | P)`, optional
//! execution `(P | ε)` and iteration `loop(P)`. Every statement only records the information the
//! robustness analysis needs (Figure 2/5 of the paper):
//!
//! * the relation it is over ([`Statement::rel`]),
//! * its type ([`StatementKind`]),
//! * the attributes it reads ([`Statement::read_set`]), writes ([`Statement::write_set`]) and
//!   uses in selection predicates ([`Statement::pread_set`]).
//!
//! BTPs can further be annotated with foreign-key constraints `q_j = f(q_i)`
//! ([`FkConstraint`]), which Algorithm 1 uses to rule out spurious counterflow edges.
//!
//! LTPs are BTPs without control flow. [`unfold_le2`] (and the generalized
//! [`unfold`]) computes the `Unfold≤2` set of Proposition 6.1, which is sufficient for
//! robustness detection.
//!
//! The [`sql`] module provides a front-end that translates a small SQL subset (the shapes of
//! Appendix A plus `IF`/`ELSE`/`REPEAT` control flow) directly into BTPs, so workloads can be
//! analyzed from (pseudo-)SQL text without manual modelling.
//!
//! # Example: the running example of Section 2
//!
//! ```
//! use mvrc_schema::SchemaBuilder;
//! use mvrc_btp::{ProgramBuilder, StatementKind, unfold_le2};
//!
//! let mut sb = SchemaBuilder::new("auction");
//! let buyer = sb.relation("Buyer", &["id", "calls"], &["id"]).unwrap();
//! let bids = sb.relation("Bids", &["buyerId", "bid"], &["buyerId"]).unwrap();
//! let log = sb.relation("Log", &["id", "buyerId", "bid"], &["id"]).unwrap();
//! sb.foreign_key("f1", bids, &["buyerId"], buyer, &["id"]).unwrap();
//! sb.foreign_key("f2", log, &["buyerId"], buyer, &["id"]).unwrap();
//! let schema = sb.build();
//!
//! // PlaceBid := q3; q4; (q5 | ε); q6
//! let mut pb = ProgramBuilder::new(&schema, "PlaceBid");
//! let q3 = pb.key_update("q3", "Buyer", &["calls"], &["calls"]).unwrap();
//! let q4 = pb.key_select("q4", "Bids", &["bid"]).unwrap();
//! let q5 = pb.key_update("q5", "Bids", &[], &["bid"]).unwrap();
//! let q6 = pb.insert("q6", "Log").unwrap();
//! pb.seq(&[q3.into(), q4.into()]);
//! pb.optional(q5.into());
//! pb.push(q6.into());
//! pb.fk_constraint("f1", q4, q3).unwrap();
//! pb.fk_constraint("f1", q5, q3).unwrap();
//! pb.fk_constraint("f2", q6, q3).unwrap();
//! let place_bid = pb.build();
//!
//! let ltps = unfold_le2(&place_bid);
//! assert_eq!(ltps.len(), 2); // PlaceBid1 = q3;q4;q5;q6 and PlaceBid2 = q3;q4;q6
//! ```

mod builder;
mod error;
mod linear;
mod program;
mod span;
pub mod sql;
mod statement;
mod unfold;
mod workload;

pub use builder::ProgramBuilder;
pub use error::BtpError;
pub use linear::{LinearFkConstraint, LinearProgram, StmtPos};
pub use program::{FkConstraint, Program, ProgramExpr, StmtId, MAX_PROGRAM_STATEMENTS};
pub use span::SourceSpan;
pub use statement::{Statement, StatementKind};
pub use unfold::{unfold, unfold_le2, unfold_set, unfold_set_le2, UnfoldOptions};
pub use workload::Workload;

/// Convenience result alias for program construction.
pub type Result<T> = std::result::Result<T, BtpError>;
