//! # mvrc-dist
//!
//! Snapshot persistence for [`mvrc_robustness`] sessions.
//!
//! [`snapshot`] is a versioned, self-describing binary format (magic, format version,
//! workload fingerprint) that persists a
//! [`RobustnessSession`](mvrc_robustness::RobustnessSession): workload, unfolded LTPs, every
//! cached summary graph — its edges in the graph's one edge order, *including* the derived
//! in-adjacency CSR and reachability-closure arrays, which [`open_snapshot`] decodes and
//! installs as they are (the out-adjacency offsets are counted off the ordered edges). A
//! reopened session answers queries without re-unfolding the workload, re-deriving a single
//! Algorithm 1 edge or recomputing a single closure word; the round-trip is bit-identical on
//! the graph arrays. A build reads one format version; a file of another version fails with a
//! typed error and is rebuilt from the workload.
//!
//! Two callers depend on it: `mvrc serve` boots tenants warm from snapshots and persists them
//! back in place, and `mvrc subsets --snapshot F` writes the analyzed session to `F`, which
//! is how a warm tenant for `mvrc serve` is made.

mod codec;
pub mod snapshot;

pub use snapshot::{
    open_snapshot, save_snapshot, session_from_snapshot_bytes, snapshot_to_bytes,
    SessionSnapshotExt, SnapshotError, SNAPSHOT_FORMAT_VERSION, SNAPSHOT_MAGIC,
};
