//! Executable workloads: any [`Workload`] driven through the generic LTP lowering.
//!
//! The static analysis decides robustness for the `Unfold≤2` LTPs of a workload's BTPs; an
//! [`ExecutableWorkload`] runs exactly those LTPs on the engine, lowered by
//! [`ProgramInstance::from_ltp`]. Every workload is therefore executable — the bundled
//! SmallBank, Auction, TPC-C and YCSB-T benchmarks as well as user SQL files — and static
//! verdicts can be validated dynamically:
//!
//! * a program subset attested robust must never produce a serialization-graph cycle when run
//!   under [`IsolationLevel::ReadCommitted`](crate::IsolationLevel::ReadCommitted);
//! * for subsets rejected as non-robust, anomalies should (and do) show up under contention.
//!
//! The database holds tuples `0..rows` of every relation. An instance draws one tuple `k` for
//! all of its non-insert statements, so every foreign key between them holds, and fewer rows
//! mean more contention. Inserts create fresh tuples `rows, rows + 1, …`, unique within a run.

use crate::engine::Engine;
use crate::error::EngineError;
use crate::program::ProgramInstance;
use crate::storage::Key;
use mvrc_btp::{LinearProgram, StatementKind, Workload};
use mvrc_schema::{RelId, Schema};
use rand::rngs::StdRng;
use rand::Rng;

/// A runnable workload: schema, number of preloaded rows per relation and the program mix.
#[derive(Debug, Clone)]
pub struct ExecutableWorkload {
    /// Workload name.
    pub name: String,
    /// The schema (the workload's own).
    pub schema: Schema,
    rows: i64,
    programs: Vec<ExecutableProgram>,
}

/// One program of the mix: its LTPs, grouped under the BTP name.
#[derive(Debug, Clone)]
struct ExecutableProgram {
    name: String,
    ltps: Vec<ExecutableLtp>,
}

#[derive(Debug, Clone)]
struct ExecutableLtp {
    ltp: LinearProgram,
    /// The relations the LTP key-updates or key-deletes: row `k` must still exist in each of
    /// them for an instance on row `k` to be able to commit.
    guarded: Vec<RelId>,
}

impl ExecutableWorkload {
    /// Makes `workload` executable over `rows` rows per relation (at least one).
    pub fn new(workload: &Workload, rows: usize) -> Self {
        let mut programs: Vec<ExecutableProgram> = Vec::new();
        for ltp in workload.unfolded() {
            let mut guarded: Vec<RelId> = ltp
                .statements()
                .filter(|(_, s)| {
                    matches!(
                        s.kind(),
                        StatementKind::KeyUpdate | StatementKind::KeyDelete
                    )
                })
                .map(|(_, s)| s.rel())
                .collect();
            guarded.sort_unstable_by_key(|r| r.index());
            guarded.dedup();
            let lowered = ExecutableLtp { ltp, guarded };
            match programs
                .iter_mut()
                .find(|p| p.name == lowered.ltp.program_name())
            {
                Some(program) => program.ltps.push(lowered),
                None => programs.push(ExecutableProgram {
                    name: lowered.ltp.program_name().to_string(),
                    ltps: vec![lowered],
                }),
            }
        }
        ExecutableWorkload {
            name: workload.name.clone(),
            schema: workload.schema.clone(),
            rows: i64::try_from(rows.max(1)).expect("the row count fits in i64"),
            programs,
        }
    }

    /// Builds a fresh engine with tuples `0..rows` loaded into every relation.
    pub fn build_engine(&self) -> Engine {
        let mut engine = Engine::new(self.schema.clone());
        for rel in self.schema.relations().map(|r| r.id()) {
            for k in 0..self.rows {
                engine.load(rel, Key(k)).expect("loaded keys are distinct");
            }
        }
        engine
    }

    /// Restricts the mix to the named programs (used to run exactly the program subsets the
    /// static analysis attested robust). Errors with [`EngineError::UnknownProgram`] on the
    /// first name that is not a program of the workload.
    pub fn restrict(mut self, names: &[&str]) -> Result<Self, EngineError> {
        if let Some(unknown) = names
            .iter()
            .find(|n| !self.programs.iter().any(|p| p.name == **n))
        {
            return Err(EngineError::UnknownProgram(unknown.to_string()));
        }
        self.programs.retain(|p| names.contains(&p.name.as_str()));
        Ok(self)
    }

    /// The names of the programs in the mix.
    pub fn program_names(&self) -> Vec<&str> {
        self.programs.iter().map(|p| p.name.as_str()).collect()
    }

    /// Draws an instance: a program uniformly, then one of its LTPs uniformly, then one row `k`
    /// for all non-insert statements. Only LTPs and rows that can commit are drawn: row `k`
    /// must still exist in every relation the LTP key-updates or key-deletes. Inserts take row
    /// `rows + *inserts` and count `*inserts` up. `None` when no LTP of the mix can be drawn
    /// (e.g. a delete-only mix that deleted every row).
    pub(crate) fn generate(
        &self,
        engine: &Engine,
        rng: &mut StdRng,
        inserts: &mut i64,
    ) -> Option<ProgramInstance> {
        let live_rows = |ltp: &ExecutableLtp| -> Vec<i64> {
            (0..self.rows)
                .filter(|&k| ltp.guarded.iter().all(|&rel| engine.exists(rel, Key(k))))
                .collect()
        };
        let drawable: Vec<Vec<(&ExecutableLtp, Vec<i64>)>> = self
            .programs
            .iter()
            .map(|p| {
                p.ltps
                    .iter()
                    .map(|l| (l, live_rows(l)))
                    .filter(|(_, rows)| !rows.is_empty())
                    .collect::<Vec<_>>()
            })
            .filter(|ltps| !ltps.is_empty())
            .collect();
        if drawable.is_empty() {
            return None;
        }
        let program = &drawable[rng.gen_range(0..drawable.len())];
        let (lowered, rows) = &program[rng.gen_range(0..program.len())];
        let k = rows[rng.gen_range(0..rows.len())];
        let targets: Vec<i64> = lowered
            .ltp
            .statements()
            .map(|(_, s)| {
                if s.kind() == StatementKind::Insert {
                    *inserts += 1;
                    self.rows + *inserts - 1
                } else {
                    k
                }
            })
            .collect();
        Some(ProgramInstance::from_ltp(&lowered.ltp, &targets))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::IsolationLevel;
    use mvrc_benchmarks::{auction, smallbank, tpcc};
    use rand::SeedableRng;

    /// The relation of the workload's schema with the given name.
    fn rel(workload: &ExecutableWorkload, name: &str) -> RelId {
        workload.schema.relation_by_name(name).unwrap().id()
    }

    /// The number of tuples of `rel` that exist after a run (every key a test run creates is
    /// below 1,000).
    fn live(engine: &Engine, rel: RelId) -> usize {
        (0..1000).filter(|&k| engine.exists(rel, Key(k))).count()
    }

    /// Runs 20 drawn instances one after another (no interleaving).
    fn run_one(workload: &ExecutableWorkload, seed: u64) -> Engine {
        let mut engine = workload.build_engine();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut inserts = 0;
        for _ in 0..20 {
            let mut instance = workload
                .generate(&engine, &mut rng, &mut inserts)
                .expect("the mix has drawable programs");
            let txn = engine.begin(instance.program(), IsolationLevel::ReadCommitted);
            let mut ok = true;
            while !instance.is_done() {
                if instance.step(&mut engine, txn).is_err() {
                    ok = false;
                    break;
                }
            }
            if ok {
                engine.commit(txn).unwrap();
            }
        }
        engine
    }

    #[test]
    fn smallbank_setup_loads_every_account() {
        let workload = ExecutableWorkload::new(&smallbank(), 5);
        let engine = workload.build_engine();
        for name in ["Account", "Savings", "Checking"] {
            assert_eq!(live(&engine, rel(&workload, name)), 5, "{name} row count");
        }
        assert_eq!(
            workload.program_names(),
            vec![
                "Amalgamate",
                "Balance",
                "DepositChecking",
                "TransactSavings",
                "WriteCheck"
            ]
        );
    }

    #[test]
    fn smallbank_serial_execution_is_serializable_and_conserves_structure() {
        let workload = ExecutableWorkload::new(&smallbank(), 10);
        let engine = run_one(&workload, 42);
        assert_eq!(
            engine.history().len(),
            20,
            "every serial transaction commits"
        );
        let report = engine.history().report(engine.schema());
        assert!(
            report.is_serializable(),
            "serial execution must be serializable"
        );
        assert_eq!(report.counterflow_non_antidependency_edges, 0);
    }

    #[test]
    fn auction_serial_execution_logs_every_placed_bid() {
        let workload = ExecutableWorkload::new(&auction(), 4);
        let engine = run_one(&workload, 7);
        let log = rel(&workload, "Log");
        let commits = engine.history().commits_by_program();
        let placed = commits
            .iter()
            .filter(|(ltp, _)| ltp.starts_with("PlaceBid"))
            .map(|(_, n)| n)
            .sum::<usize>();
        assert!(placed > 0);
        assert_eq!(
            live(&engine, log),
            4 + placed,
            "one log row per committed PlaceBid, on top of the preloaded rows"
        );
        let report = engine.history().report(engine.schema());
        assert!(report.is_serializable());
    }

    #[test]
    fn tpcc_setup_loads_every_relation() {
        let workload = ExecutableWorkload::new(&tpcc(), 3);
        let engine = workload.build_engine();
        for relation in workload.schema.relations() {
            assert_eq!(
                live(&engine, relation.id()),
                3,
                "{} row count",
                relation.name()
            );
        }
        assert_eq!(workload.program_names().len(), 5);
    }

    #[test]
    fn tpcc_serial_execution_commits_and_is_serializable() {
        let workload = ExecutableWorkload::new(&tpcc(), 4);
        let engine = run_one(&workload, 3);
        assert_eq!(
            engine.history().len(),
            20,
            "every serial transaction commits"
        );
        let report = engine.history().report(engine.schema());
        assert!(report.is_serializable());
        assert_eq!(report.counterflow_edges, 0);
    }

    #[test]
    fn tpcc_new_order_inserts_fresh_rows() {
        let workload = ExecutableWorkload::new(&tpcc(), 2)
            .restrict(&["NewOrder"])
            .unwrap();
        let engine = run_one(&workload, 5);
        let orders = rel(&workload, "Orders");
        let new_order = rel(&workload, "New_Order");
        // Every NewOrder LTP inserts one order and one new-order row, with keys past the
        // preloaded rows that never collide.
        assert_eq!(live(&engine, orders), 2 + 20);
        assert_eq!(live(&engine, new_order), 2 + 20);
    }

    #[test]
    fn restrict_filters_the_program_mix() {
        let workload = ExecutableWorkload::new(&smallbank(), 10)
            .restrict(&["Balance", "DepositChecking"])
            .unwrap();
        assert_eq!(workload.program_names(), vec!["Balance", "DepositChecking"]);
        let engine = workload.build_engine();
        let mut rng = StdRng::seed_from_u64(1);
        let mut inserts = 0;
        for _ in 0..20 {
            let instance = workload.generate(&engine, &mut rng, &mut inserts).unwrap();
            assert!(["Balance", "DepositChecking"].contains(&instance.program()));
        }
    }

    #[test]
    fn restrict_rejects_unknown_programs() {
        let err = ExecutableWorkload::new(&smallbank(), 10)
            .restrict(&["Balance", "NoSuchProgram"])
            .unwrap_err();
        assert_eq!(err, EngineError::UnknownProgram("NoSuchProgram".into()));
    }
}
