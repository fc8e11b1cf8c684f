//! # mvrc-dist
//!
//! Snapshot persistence and the multi-process sharded subset sweep — the distribution layer
//! on top of [`mvrc_robustness`].
//!
//! The paper's Section 7.2 experiment asks, for every benchmark and setting, which subsets of
//! a workload are robust against MVRC — a `2^n` sweep that `mvrc-robustness` answers in one
//! process with a shared summary graph, Proposition 5.2 closure pruning and streamed rank
//! ranges. This crate takes the two steps that make the sweep *horizontal*:
//!
//! * **[`snapshot`]** — a versioned, self-describing binary format (magic, format version,
//!   workload fingerprint) that persists a [`RobustnessSession`](mvrc_robustness::RobustnessSession):
//!   workload, unfolded LTPs and every cached summary graph, *including* the derived CSR
//!   adjacency and reachability-closure arrays, alignment-padded so [`open_snapshot`] can
//!   install them as zero-copy borrowed slabs over one aligned buffer ([`mmap::SnapshotMap`]).
//!   A worker process opens a snapshot and answers queries without re-unfolding the workload,
//!   re-deriving a single Algorithm 1 edge or recomputing a single closure word; the
//!   round-trip is bit-identical on the graph arrays. A build reads one format version; a
//!   file of another version fails with a typed error and is rebuilt from the workload.
//! * **[`shard`]** — a coordinator/worker protocol over the snapshot: the coordinator
//!   partitions each descending-popcount level's `C(n, k)` rank space into
//!   [`ShardSpec`](mvrc_robustness::ShardSpec) chunks, worker processes sweep their shards
//!   and synchronize per level through atomically published verdict-bitset files, and a merge
//!   step reproduces the exact single-process [`explore_subsets`](mvrc_robustness::explore_subsets)
//!   result — verdicts *and* `cycle_tests`/`pruned` accounting, summed across shards.
//!
//! The `mvrc` CLI exposes the protocol as `mvrc shard plan|work|merge`. Workers run each shard
//! through [`RankRangeSweep::run_shard`](mvrc_robustness::RankRangeSweep::run_shard), the same
//! entry point the in-process sweep folds its chunks through, so a merged run is byte-identical
//! to `mvrc subsets --json`.

mod codec;
pub mod mmap;
pub mod shard;
pub mod snapshot;

pub use mmap::SnapshotMap;

pub use shard::{
    create_plan_dir, create_plan_dir_resuming, merge_verdicts, plan_path, read_plan, run_worker,
    seed_path, snapshot_path, verdict_path, LevelPlan, MergeReport, PlanOptions, PlannedShard,
    ResumeInfo, ShardError, ShardPlan, VerdictFile, WorkerReport, PLAN_FILE, SEED_FILE,
    SEED_FORMAT_VERSION, SEED_MAGIC, SNAPSHOT_FILE, VERDICT_FORMAT_VERSION, VERDICT_MAGIC,
};
pub use snapshot::{
    open_snapshot, open_snapshot_expecting, save_snapshot, session_from_snapshot_bytes,
    snapshot_to_bytes, SessionSnapshotExt, SnapshotError, SNAPSHOT_FORMAT_VERSION, SNAPSHOT_MAGIC,
};
