//! `mvrc-serve`: a long-lived robustness daemon with lock-free concurrent sessions.
//!
//! The offline pipeline answers one robustness question per process. This crate keeps the
//! expensive state — unfolded LTPs, cached [`SummaryGraph`](mvrc_robustness::SummaryGraph)s,
//! lane plans — resident in a daemon that hosts many named *tenants* (one
//! [`RobustnessSession`](mvrc_robustness::RobustnessSession) per workload) and answers
//! `analyze`, `is_robust`, `explore_subsets` and `lint` queries over a length-prefixed JSON
//! wire protocol (see [`protocol`]).
//!
//! # Concurrency model
//!
//! Each tenant's session lives behind an epoch-style `Arc` swap ([`epoch::EpochCell`]):
//! connection threads keep a per-tenant [`epoch::EpochCache`] and revalidate it with one
//! atomic acquire-load per request, so steady-state queries are entirely lock-free and share
//! one immutable session. An edit (`add_program` / `remove_program` / `replace_program`)
//! clones the published session — cached graphs are shared by `Arc` bump — applies the
//! incremental re-derivation off to the side, and atomically publishes the successor; readers
//! mid-query keep a fully consistent pre-edit view. Every reply is therefore consistent with
//! the workload either before or after a concurrent edit, never a mixture.
//!
//! # Lifecycle
//!
//! Tenants boot from `mvrc-dist` snapshots with **zero** re-derivation — the
//! construction/closure counter deltas around the open are recorded in each tenant's
//! [`tenant::BootReport`], so a warm start is measured, not assumed. The daemon persists each
//! snapshot-backed tenant in place on a configurable cadence and on graceful shutdown:
//! SIGTERM (or the wire-level `shutdown` op) drains in-flight queries, joins connection
//! threads, persists every tenant and returns.

// Workspace-wide `unsafe_code = "forbid"` is replicated per-module here (see Cargo.toml):
// every module forbids unsafe except `signal`, whose single documented `unsafe` call installs
// the SIGTERM handler and is pinned by the workspace unsafe budget test.

pub mod client;
pub mod epoch;
pub mod protocol;
pub mod server;
pub mod signal;
pub mod tenant;

pub use client::{Client, ClientError};
pub use epoch::{EpochCache, EpochCell};
pub use protocol::{
    error_response, ok_response, read_frame, write_frame, FrameError, MAX_FRAME_BYTES,
};
pub use server::{ServeConfig, Server};
pub use tenant::{BootReport, BootSource, Tenant, TenantStats};
