//! Per-tenant state: a published [`RobustnessSession`] plus stats and persistence.
//!
//! A *tenant* is one named workload hosted by the daemon. Its session lives behind an
//! [`EpochCell`], so any number of connection threads query it lock-free while an edit builds
//! the successor session off to the side and publishes it atomically. The edit path is
//! serialized by a dedicated mutex (edits are rare; queries never touch it), and every tenant
//! remembers where it came from: a tenant booted from an `mvrc-dist` snapshot records
//! the construction/closure counter deltas observed during the open — a warm start is
//! *asserted*, not assumed — and persists back to the same snapshot on the daemon's cadence
//! and on graceful shutdown.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use mvrc_robustness::{RobustnessSession, SummaryGraph};

use crate::epoch::EpochCell;

/// Monotonic per-tenant counters, updated with relaxed atomics (they are diagnostics, not
/// synchronization) and reported by the `stats` op.
#[derive(Debug, Default)]
pub struct TenantStats {
    /// Read-only queries answered (`analyze`, `is_robust`, `explore_subsets`, `lint`).
    pub queries: AtomicU64,
    /// Edits published (`add_program`, `remove_program`, `replace_program`).
    pub edits: AtomicU64,
    /// Queries that found every summary graph they needed already cached in the session.
    pub graph_cache_hits: AtomicU64,
    /// Summary graph constructions triggered by queries (cache misses; counted per build).
    pub graph_builds: AtomicU64,
    /// Subset sweeps run.
    pub sweeps: AtomicU64,
    /// Total wall-clock microseconds spent in subset sweeps.
    pub sweep_micros: AtomicU64,
    /// Snapshot persists completed.
    pub persists: AtomicU64,
}

impl TenantStats {
    /// Records one query together with the summary-graph constructions it triggered on the
    /// calling thread (`0` means every graph it touched was a cache hit).
    pub fn record_query(&self, constructions: u64) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        if constructions == 0 {
            self.graph_cache_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.graph_builds
                .fetch_add(constructions, Ordering::Relaxed);
        }
    }

    /// Records one subset sweep and its duration.
    pub fn record_sweep(&self, micros: u64) {
        self.sweeps.fetch_add(1, Ordering::Relaxed);
        self.sweep_micros.fetch_add(micros, Ordering::Relaxed);
    }
}

/// What a tenant was booted from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BootSource {
    /// An `mvrc-dist` snapshot (warm start expected).
    Snapshot,
    /// A workload source file parsed at boot (graphs derive lazily on first query).
    WorkloadFile,
}

impl BootSource {
    /// A stable lower-case label for stats output.
    pub fn label(self) -> &'static str {
        match self {
            BootSource::Snapshot => "snapshot",
            BootSource::WorkloadFile => "workload-file",
        }
    }
}

/// The construction-counter evidence recorded while booting a tenant.
#[derive(Debug, Clone)]
pub struct BootReport {
    /// Where the tenant came from.
    pub source: BootSource,
    /// Summary graph constructions observed on the boot thread during the open.
    pub constructions: u64,
    /// Reachability-closure computations observed on the boot thread during the open.
    pub closures: u64,
    /// The snapshot fingerprint, when booted from one.
    pub fingerprint: Option<u64>,
}

impl BootReport {
    /// `true` when the tenant opened from a snapshot with zero graph constructions and zero
    /// closure rebuilds — the warm-start guarantee, measured rather than assumed.
    pub fn is_warm(&self) -> bool {
        self.source == BootSource::Snapshot && self.constructions == 0 && self.closures == 0
    }
}

/// One named workload hosted by the daemon; see the module docs.
#[derive(Debug)]
pub struct Tenant {
    name: String,
    cell: EpochCell<RobustnessSession>,
    /// Serializes the clone→edit→publish sequence. Queries never take this lock.
    edit_lock: Mutex<()>,
    /// Where the tenant persists to (`None` for workload-file tenants).
    persist_path: Option<PathBuf>,
    boot: BootReport,
    stats: TenantStats,
}

impl Tenant {
    /// Wraps an already-built session as a tenant.
    pub fn new(
        name: impl Into<String>,
        session: RobustnessSession,
        persist_path: Option<PathBuf>,
        boot: BootReport,
    ) -> Self {
        Tenant {
            name: name.into(),
            cell: EpochCell::new(Arc::new(session)),
            edit_lock: Mutex::new(()),
            persist_path,
            boot,
            stats: TenantStats::default(),
        }
    }

    /// Boots a tenant from a path: a `.mvrcsnap` file opens as a snapshot (and will
    /// persist back in place), anything else parses as a workload source file (no
    /// persistence). The construction/closure counters around the open are recorded in the
    /// tenant's [`BootReport`].
    pub fn from_path(name: impl Into<String>, path: &Path) -> Result<Tenant, String> {
        let name = name.into();
        let is_snapshot = path
            .extension()
            .is_some_and(|ext| ext.eq_ignore_ascii_case("mvrcsnap"));
        let constructions_before = SummaryGraph::constructions_on_current_thread();
        let closures_before = SummaryGraph::closures_computed_on_current_thread();
        if is_snapshot {
            let (session, fingerprint) =
                mvrc_dist::open_snapshot(path).map_err(|e| format!("tenant `{name}`: {e}"))?;
            let boot = BootReport {
                source: BootSource::Snapshot,
                constructions: SummaryGraph::constructions_on_current_thread()
                    - constructions_before,
                closures: SummaryGraph::closures_computed_on_current_thread() - closures_before,
                fingerprint: Some(fingerprint),
            };
            Ok(Tenant::new(name, session, Some(path.to_path_buf()), boot))
        } else {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("tenant `{name}`: reading {}: {e}", path.display()))?;
            let (schema, programs) = mvrc_btp::sql::parse_workload_file(&text)
                .map_err(|e| format!("tenant `{name}`: {e}"))?;
            // Same workload naming as `mvrc <cmd> --file`: after the schema. This keeps daemon
            // replies byte-identical to the offline CLI on the same source file.
            let session = RobustnessSession::from_programs(&schema, &programs);
            let boot = BootReport {
                source: BootSource::WorkloadFile,
                constructions: SummaryGraph::constructions_on_current_thread()
                    - constructions_before,
                closures: SummaryGraph::closures_computed_on_current_thread() - closures_before,
                fingerprint: None,
            };
            Ok(Tenant::new(name, session, None, boot))
        }
    }

    /// Wraps an in-memory workload as a non-persisting tenant (tests and benches; the daemon
    /// binary boots tenants from paths).
    pub fn from_workload(name: impl Into<String>, workload: mvrc_btp::Workload) -> Tenant {
        Tenant::new(
            name,
            RobustnessSession::new(workload),
            None,
            BootReport {
                source: BootSource::WorkloadFile,
                constructions: 0,
                closures: 0,
                fingerprint: None,
            },
        )
    }

    /// The tenant's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The published-state cell (readers go through a per-connection
    /// [`EpochCache`](crate::epoch::EpochCache)).
    pub fn cell(&self) -> &EpochCell<RobustnessSession> {
        &self.cell
    }

    /// The boot evidence.
    pub fn boot(&self) -> &BootReport {
        &self.boot
    }

    /// The stats counters.
    pub fn stats(&self) -> &TenantStats {
        &self.stats
    }

    /// Where this tenant persists to, if anywhere.
    pub fn persist_path(&self) -> Option<&Path> {
        self.persist_path.as_deref()
    }

    /// Applies one edit: clones the published session, runs `apply` on the clone (any error
    /// leaves the published state untouched), and atomically publishes the successor. Edits
    /// are serialized by the tenant's edit lock; readers keep querying the previous session
    /// until the publish and then refresh via their epoch caches. Returns the new epoch.
    ///
    /// An `apply` that panics poisons the edit lock; the next edit recovers it, which is sound
    /// because the lock guards no data and a successor is only published after `apply`
    /// returns `Ok` — a panicking edit leaves the published state untouched.
    pub fn edit(
        &self,
        apply: impl FnOnce(&mut RobustnessSession) -> Result<(), String>,
    ) -> Result<u64, String> {
        let _guard = self
            .edit_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let (_, current) = self.cell.load();
        let mut next = (*current).clone();
        apply(&mut next)?;
        let epoch = self.cell.publish(Arc::new(next));
        self.stats.edits.fetch_add(1, Ordering::Relaxed);
        Ok(epoch)
    }

    /// Persists the currently published session back to the tenant's snapshot path. Returns
    /// `false` (without touching disk) for tenants with no persistence path.
    pub fn persist(&self) -> Result<bool, String> {
        let Some(path) = &self.persist_path else {
            return Ok(false);
        };
        let (_, session) = self.cell.load();
        mvrc_dist::save_snapshot(&session, path)
            .map_err(|e| format!("tenant `{}`: persisting: {e}", self.name))?;
        self.stats.persists.fetch_add(1, Ordering::Relaxed);
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn a_panicking_edit_leaves_the_tenant_editable() {
        let tenant = Tenant::from_workload("bank", mvrc_benchmarks::smallbank());
        let programs = tenant.cell().load().1.program_names().len();
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            tenant.edit(|_| panic!("edit panicked mid-apply"))
        }));
        assert!(panicked.is_err());
        assert_eq!(
            tenant.cell().epoch(),
            0,
            "a panicking edit publishes nothing"
        );

        let epoch = tenant
            .edit(|session| {
                session
                    .remove_program("WriteCheck")
                    .map_err(|e| e.to_string())
            })
            .expect("the edit after a panic succeeds");
        assert_eq!(epoch, 1);
        assert_eq!(tenant.cell().epoch(), 1);
        assert_eq!(tenant.cell().load().1.program_names().len(), programs - 1);
    }
}
