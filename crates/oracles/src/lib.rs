//! # mvrc-oracles
//!
//! Reference implementations of the analyzer's questions, one per question. Each is the
//! literal reading of the paper, written only against the public API of `mvrc-robustness`, and
//! slow on purpose: the test suites check the production paths against them. Every crate
//! lists this one under `[dev-dependencies]` only, so no production build links it.
//!
//! * [`explore_subsets`] — which program subsets are robust. It rebuilds the summary graph of
//!   every subset and runs the scalar cycle test on it.
//! * [`find_type2_violation`] and [`all_type2_violations`] — Algorithm 2 as the triple loop
//!   over the edges, in the order that makes its first hit the witness the production test
//!   reports.

mod subsets;
mod type2;

pub use subsets::explore_subsets;
pub use type2::{all_type2_violations, find_type2_violation};
