//! The interleaving workload driver.
//!
//! The driver runs a configurable number of transactions from an [`ExecutableWorkload`] against
//! a fresh [`Engine`](crate::Engine), interleaving *statements* of a bounded number of
//! concurrent transactions in a random (but seeded, hence reproducible) order. It is the
//! executor's seeded random schedule ([`Interleaver::run_random`]) with the workload's
//! transaction generator as its source, so each transaction begins at its first statement:
//! under snapshot isolation and serializable that is where its snapshot is taken. After the run
//! it checks the recorded history for serialization anomalies.
//!
//! This is the dynamic counterpart of the paper's static question: a workload attested robust
//! against MVRC must never produce an anomaly when driven under
//! [`IsolationLevel::ReadCommitted`]; a rejected workload may — and under contention does —
//! produce one.

use crate::engine::IsolationLevel;
use crate::error::{AbortReason, EngineError};
use crate::history::HistoryReport;
use crate::scripted::{Interleaver, PlanAction};
use crate::workloads::ExecutableWorkload;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashMap};

/// Configuration of a driver run.
#[derive(Debug, Clone, Copy)]
pub struct DriverConfig {
    /// Isolation level every transaction runs under.
    pub isolation: IsolationLevel,
    /// Number of transactions that run concurrently (statement-interleaved).
    pub concurrency: usize,
    /// Number of committed transactions to produce before stopping. Aborted attempts are
    /// regenerated (with fresh parameters) until the target is reached, or until the mix has
    /// no drawable program left (see [`RunStats::commits`]).
    pub target_commits: usize,
    /// RNG seed: the same seed yields the same interleaving and the same parameters.
    pub seed: u64,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            isolation: IsolationLevel::ReadCommitted,
            concurrency: 4,
            target_commits: 200,
            seed: 0xC0FFEE,
        }
    }
}

impl DriverConfig {
    /// Convenience constructor with a specific isolation level.
    pub fn with_isolation(isolation: IsolationLevel) -> Self {
        DriverConfig {
            isolation,
            ..DriverConfig::default()
        }
    }
}

/// Statistics of one driver run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Isolation level the run used.
    pub isolation: IsolationLevel,
    /// Committed transactions. Equals the configured target unless the mix ran out of
    /// drawable programs first — e.g. a delete-only mix that deleted every preloaded row — in
    /// which case the run stops early with fewer commits.
    pub commits: usize,
    /// Aborted transaction attempts, by reason.
    pub aborts: HashMap<AbortReason, usize>,
    /// Statement-level steps executed (committed and aborted attempts combined).
    pub steps: usize,
    /// Commits per LTP name (`PlaceBid[1]`; a program with a single LTP keeps its own name),
    /// sorted by name so reports render deterministically.
    pub commits_by_program: BTreeMap<String, usize>,
    /// The post-run history check.
    pub report: HistoryReport,
}

impl RunStats {
    /// Total number of aborts over all reasons.
    pub fn total_aborts(&self) -> usize {
        self.aborts.values().sum()
    }

    /// Abort rate: aborted attempts divided by all attempts.
    pub fn abort_rate(&self) -> f64 {
        let attempts = self.commits + self.total_aborts();
        if attempts == 0 {
            0.0
        } else {
            self.total_aborts() as f64 / attempts as f64
        }
    }

    /// Whether the recorded history is conflict serializable.
    pub fn is_serializable(&self) -> bool {
        self.report.is_serializable()
    }

    /// A compact one-line summary for logs and examples.
    pub fn summary(&self) -> String {
        format!(
            "{}: {} commits, {} aborts ({:.1}% abort rate), {} steps, serializable: {}",
            self.isolation.name(),
            self.commits,
            self.total_aborts(),
            self.abort_rate() * 100.0,
            self.steps,
            self.is_serializable()
        )
    }
}

/// Runs a workload under the given configuration and returns the run statistics together with
/// the serializability report of the produced history.
pub fn run_workload(workload: &ExecutableWorkload, config: DriverConfig) -> RunStats {
    let mut engine = workload.build_engine();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut aborts: HashMap<AbortReason, usize> = HashMap::new();
    let mut inserts = 0i64;
    let mut run = Interleaver::new(&mut engine, config.isolation);
    // Draw transactions while the committed and in-flight ones fall short of the target.
    let mut source = |run: &Interleaver<'_>, rng: &mut StdRng| {
        if run.engine().history().len() + run.active() >= config.target_commits {
            return None;
        }
        workload.generate(run.engine(), rng, &mut inserts)
    };
    // An abort removes only its transaction; re-entering the schedule draws a replacement
    // with fresh parameters.
    while let Err(error) = run.run_random(&mut rng, config.concurrency, &mut source) {
        match error {
            EngineError::Aborted(reason) => *aborts.entry(reason).or_insert(0) += 1,
            // Inserts get run-unique keys, so a duplicate key is engine misuse too.
            other => panic!("engine misuse: {other}"),
        }
    }
    let steps = run
        .into_plan()
        .actions
        .iter()
        .filter(|a| matches!(a, PlanAction::Step { .. }))
        .count();

    let history = engine.history();
    RunStats {
        isolation: config.isolation,
        commits: history.len(),
        aborts,
        steps,
        commits_by_program: history.commits_by_program(),
        report: history.report(engine.schema()),
    }
}

/// Runs the same workload under several isolation levels with the same seed, returning one
/// [`RunStats`] per level (used by the isolation-cost example).
pub fn compare_isolation_levels(
    workload: &ExecutableWorkload,
    levels: &[IsolationLevel],
    base: DriverConfig,
) -> Vec<RunStats> {
    levels
        .iter()
        .map(|&isolation| run_workload(workload, DriverConfig { isolation, ..base }))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvrc_benchmarks::{auction, smallbank, tpcc};
    use mvrc_btp::sql::parse_workload_file;
    use mvrc_btp::Workload;

    #[test]
    fn driver_reaches_the_commit_target_under_low_contention() {
        let workload = ExecutableWorkload::new(&smallbank(), 50);
        let stats = run_workload(
            &workload,
            DriverConfig {
                target_commits: 50,
                concurrency: 3,
                ..DriverConfig::default()
            },
        );
        assert_eq!(stats.commits, 50);
        assert!(stats.steps >= 50);
        assert!(!stats.commits_by_program.is_empty());
        assert!(stats.summary().contains("commits"));
    }

    #[test]
    fn serial_driver_runs_are_always_serializable() {
        for seed in 0..3 {
            let workload = ExecutableWorkload::new(&smallbank(), 4);
            let stats = run_workload(
                &workload,
                DriverConfig {
                    concurrency: 1,
                    target_commits: 60,
                    seed,
                    ..DriverConfig::default()
                },
            );
            assert!(
                stats.is_serializable(),
                "seed {seed}: a serial run can never contain a cycle"
            );
            assert_eq!(stats.report.counterflow_edges, 0);
        }
    }

    #[test]
    fn serializable_runs_never_contain_anomalies() {
        for seed in [1, 2, 3] {
            let workload = ExecutableWorkload::new(&smallbank(), 3);
            let stats = run_workload(
                &workload,
                DriverConfig {
                    isolation: IsolationLevel::Serializable,
                    concurrency: 6,
                    target_commits: 80,
                    seed,
                },
            );
            assert!(
                stats.is_serializable(),
                "seed {seed}: the serializable level must not admit cycles"
            );
        }
    }

    #[test]
    fn full_smallbank_under_read_committed_eventually_shows_an_anomaly() {
        // The full SmallBank program set is not robust against MVRC (Figure 6): under enough
        // contention the driver observes a real serialization anomaly.
        let mut found = false;
        for seed in 0..20 {
            let workload = ExecutableWorkload::new(&smallbank(), 2);
            let stats = run_workload(
                &workload,
                DriverConfig {
                    isolation: IsolationLevel::ReadCommitted,
                    concurrency: 6,
                    target_commits: 120,
                    seed,
                },
            );
            // Lemma 4.1 must hold in every run, anomalous or not.
            assert_eq!(
                stats.report.counterflow_non_antidependency_edges, 0,
                "seed {seed}"
            );
            if !stats.is_serializable() {
                found = true;
                break;
            }
        }
        assert!(
            found,
            "expected at least one seed to exhibit a non-serializable MVRC execution"
        );
    }

    #[test]
    fn robust_auction_workload_stays_serializable_under_read_committed() {
        // {FindBids, PlaceBid} is attested robust against MVRC (Figure 6): no run may contain a
        // cycle, no matter the contention.
        for seed in 0..10 {
            let workload = ExecutableWorkload::new(&auction(), 2);
            let stats = run_workload(
                &workload,
                DriverConfig {
                    isolation: IsolationLevel::ReadCommitted,
                    concurrency: 6,
                    target_commits: 100,
                    seed,
                },
            );
            assert!(
                stats.is_serializable(),
                "seed {seed}: the Auction workload is robust, its MVRC executions must be serializable"
            );
        }
    }

    #[test]
    fn compare_isolation_levels_runs_every_level() {
        let workload = ExecutableWorkload::new(&smallbank(), 4);
        let stats = compare_isolation_levels(
            &workload,
            &IsolationLevel::ALL,
            DriverConfig {
                target_commits: 40,
                concurrency: 4,
                ..DriverConfig::default()
            },
        );
        assert_eq!(stats.len(), 3);
        assert_eq!(stats[0].isolation, IsolationLevel::ReadCommitted);
        assert_eq!(stats[2].isolation, IsolationLevel::Serializable);
        // The serializable level can only abort more (or equally) often than read committed.
        assert!(stats[2].total_aborts() >= stats[0].total_aborts());
    }

    /// A workload parsed from SQL text, named after its schema.
    fn sql_workload(text: &str) -> Workload {
        let (schema, programs) = parse_workload_file(text).unwrap();
        Workload::new(schema.name().to_string(), schema, programs, &[])
    }

    #[test]
    fn a_delete_only_mix_stops_when_every_row_is_gone() {
        let workload = ExecutableWorkload::new(
            &sql_workload(
                "SCHEMA s;\n\
                 TABLE R0 (a0, a1, PRIMARY KEY (a0));\n\
                 PROGRAM Del(:X) { DELETE FROM R0 WHERE a0 = :X; }",
            ),
            2,
        );
        for concurrency in [1, 3] {
            let stats = run_workload(
                &workload,
                DriverConfig {
                    concurrency,
                    target_commits: 3,
                    ..DriverConfig::default()
                },
            );
            assert_eq!(stats.commits, 2, "only two rows exist to delete");
            assert!(stats.is_serializable());
        }
    }

    #[test]
    fn empty_ltps_commit_without_a_step() {
        // TPC-C's Delivery unfolds to an LTP without statements (zero loop iterations).
        let workload = ExecutableWorkload::new(&tpcc(), 2)
            .restrict(&["Delivery"])
            .unwrap();
        let stats = run_workload(
            &workload,
            DriverConfig {
                target_commits: 40,
                ..DriverConfig::default()
            },
        );
        assert_eq!(stats.commits, 40);
        assert!(stats.commits_by_program.contains_key("Delivery[1]"));
    }
}
