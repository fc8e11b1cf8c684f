//! # mvrc-hist
//!
//! **History-level certification** for the robustness analyzer: turns static verdicts into
//! executed evidence.
//!
//! The static analysis of *"Detecting Robustness against MVRC for Transaction Programs with
//! Predicate Reads"* (EDBT 2023) answers "can this program set ever produce a non-serializable
//! execution under multi-version Read Committed?" from the summary graph alone. Its verdicts
//! deserve corroboration by executions, and this crate closes the loop:
//!
//! ```text
//!   analyzer ──violation witness──▶ witness compiler ──scripted plan──▶ engine (MVRC)
//!      ▲                                                                    │
//!      │                                                                executed
//!   agreement                                                           history
//!   asserted                                                               │
//!      └──────────────────── serializability checker ◀─────────────────────┘
//! ```
//!
//! * [`checker`] — [`check`] maps the engine's one serializability decision over an
//!   [`mvrc_engine::History`] ([`History::dependencies`](mvrc_engine::History::dependencies)
//!   derives the conflicts from raw records, [`History::serialization_order`](
//!   mvrc_engine::History::serialization_order) peels them into an order or a cycle) onto the
//!   [`CheckerVerdict`] of a certificate. It never looks at the summary graph.
//! * [`compile`] — the witness compiler: lowers a [`mvrc_robustness::Violation`] onto the
//!   engine as a *multiversion split schedule* (the paper's sufficiency construction) with
//!   deterministic parameter instantiation, enumerating split points, instance lists, and
//!   key-plan variants until the checker rejects an executed history, then falling back to the
//!   seeded random schedule of the engine's one executor ([`mvrc_engine::Interleaver`]).
//! * [`certify`] — the driver: [`certify_subset`] produces a JSON [`Certificate`] for
//!   non-robust subsets (witness edges + interleaving + checker rejection) or an
//!   [`Attestation`] for robust ones (seeded sample executions, all checker-accepted), and
//!   [`CertifyExt`] hangs `certify_non_robust` off [`mvrc_robustness::RobustnessSession`].
//!
//! There is one decider in the engine and one oracle in the tests: `tests/cross_check.rs`
//! re-derives every history's conflicts with a pairwise scan and decides them with a
//! linearization search, and asserts that the production path gives the same facts and the
//! same decision on random executions.

pub mod certify;
pub mod checker;
pub mod compile;

pub use certify::{
    certify_subset, Attestation, Certificate, CertifyError, CertifyExt, CertifyOutcome,
    WitnessEdge, ATTEST_SEEDS,
};
pub use checker::{check, CheckerVerdict, CycleStep};
pub use compile::{
    random_run, realize_violation, KeyVariant, PlanStep, Realization, FALLBACK_SEEDS,
};
