//! # mvrc-dist
//!
//! Snapshot persistence for [`mvrc_robustness`] sessions.
//!
//! [`snapshot`] is a versioned, self-describing binary format (magic, format version,
//! workload fingerprint) that persists a
//! [`RobustnessSession`](mvrc_robustness::RobustnessSession): its workload and, per cached
//! summary graph, the edges in the graph's one edge order and the reachability-closure words.
//! Each fact is stored once: [`open_snapshot`] re-derives the LTPs from the workload
//! (`Unfold≤2`, after checking the workload's LTP budgets) and leaves the in-adjacency to be
//! derived on first use, as on a fresh graph. A reopened session answers queries without
//! re-deriving a single Algorithm 1 edge or recomputing a single closure word; the round-trip
//! is bit-identical on the graph arrays. A build reads one format version; a file of another
//! version fails with a typed error and is rebuilt from the workload.
//!
//! Two callers depend on it: `mvrc serve` boots tenants warm from snapshots and persists them
//! back in place, and `mvrc subsets --snapshot F` writes the analyzed session to `F`, which
//! is how a warm tenant for `mvrc serve` is made.

mod codec;
pub mod snapshot;

pub use snapshot::{
    open_snapshot, save_snapshot, session_from_snapshot_bytes, snapshot_to_bytes, SnapshotError,
    SNAPSHOT_FORMAT_VERSION, SNAPSHOT_MAGIC,
};
