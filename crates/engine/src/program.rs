//! Step-wise executable transaction programs.
//!
//! The driver interleaves transactions at *statement* granularity, mirroring the atomic-chunk
//! assumption of Section 3.3: every step of a [`ProgramInstance`] is one LTP statement (one
//! chunk) and is executed atomically; between steps the driver may schedule steps of other
//! concurrent transactions.
//!
//! An instance is a list of lowered statements ([`ProgramInstance::from_ltp`]), each naming its
//! kind, relation, target tuple and attribute sets. Nothing passes between steps: what a
//! statement reads and writes depends only on its target and on what its snapshot shows.

use crate::engine::{Engine, TxnToken};
use crate::error::EngineResult;
use crate::storage::Key;
use mvrc_btp::StatementKind;
use mvrc_schema::{AttrSet, RelId};

/// One lowered statement: its kind, the tuple it targets, and its declared attribute sets.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Step {
    pub(crate) kind: StatementKind,
    pub(crate) rel: RelId,
    pub(crate) key: Key,
    pub(crate) read: AttrSet,
    pub(crate) write: AttrSet,
    pub(crate) pread: AttrSet,
}

/// A concrete, runnable instantiation of a transaction program: an ordered list of
/// statement-level steps.
#[derive(Debug)]
pub struct ProgramInstance {
    pub(crate) program: String,
    pub(crate) steps: Vec<Step>,
    pub(crate) next: usize,
}

impl ProgramInstance {
    /// The program this instance was created from.
    pub fn program(&self) -> &str {
        &self.program
    }

    /// Number of remaining steps.
    pub fn remaining(&self) -> usize {
        self.steps.len() - self.next
    }

    /// Whether every step has run.
    pub fn is_done(&self) -> bool {
        self.next >= self.steps.len()
    }

    /// Executes the next step: starts a new statement on the engine (refreshing the
    /// read-committed statement snapshot) and runs the statement on its target tuple.
    ///
    /// * Key-based statements read, update or delete the target; inserts create it.
    /// * Predicate selects match every visible tuple of the relation. Predicate updates and
    ///   deletes match exactly the target and then write every match.
    ///
    /// On an abort error the caller must consider the transaction gone (the engine already
    /// rolled it back); the instance itself can be discarded or re-created for a retry.
    pub fn step(&mut self, engine: &mut Engine, txn: TxnToken) -> EngineResult<()> {
        assert!(
            !self.is_done(),
            "step() called on a finished program instance"
        );
        engine.begin_statement(txn)?;
        let Step {
            kind,
            rel,
            key,
            read,
            write,
            pread,
        } = self.steps[self.next];
        match kind {
            StatementKind::KeySelect => {
                engine.read_key(txn, rel, key, read)?;
            }
            StatementKind::KeyUpdate => engine.update_key(txn, rel, key, read, write)?,
            StatementKind::KeyDelete => engine.delete_key(txn, rel, key)?,
            StatementKind::Insert => engine.insert(txn, rel, key)?,
            StatementKind::PredSelect => {
                engine.scan(txn, rel, pread, read, None)?;
            }
            StatementKind::PredUpdate => {
                // The scan already records the matched tuples as reads with the declared
                // ReadSet, so the per-tuple update reads nothing.
                for key in engine.scan(txn, rel, pread, read, Some(key))? {
                    engine.update_key(txn, rel, key, AttrSet::EMPTY, write)?;
                }
            }
            StatementKind::PredDelete => {
                for key in engine.scan(txn, rel, pread, read, Some(key))? {
                    engine.delete_key(txn, rel, key)?;
                }
            }
        }
        self.next += 1;
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::engine::IsolationLevel;
    use crate::history::WriteKind;
    use mvrc_btp::{LinearProgram, Statement};
    use mvrc_schema::{Schema, SchemaBuilder};

    /// A schema of one relation `R(k, a, b)` keyed by `k`.
    pub(crate) fn schema() -> Schema {
        let mut b = SchemaBuilder::new("s");
        b.relation("R", &["k", "a", "b"], &["k"]).unwrap();
        b.build()
    }

    /// A statement declaration: its kind and its `PReadSet`, `ReadSet` and `WriteSet` as
    /// attribute names (an empty list is an undeclared set).
    pub(crate) type Decl<'a> = (StatementKind, &'a [&'a str], &'a [&'a str], &'a [&'a str]);

    /// An LTP over `R`, one statement per declaration.
    pub(crate) fn ltp(schema: &Schema, name: &str, statements: &[Decl<'_>]) -> LinearProgram {
        let relation = schema.relation_by_name("R").unwrap();
        let set = |names: &[&str]| {
            let attrs = names.iter().map(|n| relation.attr_by_name(n).unwrap());
            (!names.is_empty()).then(|| attrs.collect::<AttrSet>())
        };
        let statements: Vec<Statement> = statements
            .iter()
            .enumerate()
            .map(|(i, &(kind, pread, read, write))| {
                let name = format!("q{}", i + 1);
                Statement::new(name, relation, kind, set(pread), set(read), set(write)).unwrap()
            })
            .collect();
        let origins = (0..statements.len() as u16).map(mvrc_btp::StmtId).collect();
        LinearProgram::new(name, name, statements, origins, Vec::new())
    }

    #[test]
    fn lowered_steps_record_the_declared_footprints() {
        use StatementKind::*;
        let schema = schema();
        let r = schema.relation_by_name("R").unwrap();
        let attrs = |names: &[&str]| -> AttrSet {
            names.iter().map(|n| r.attr_by_name(n).unwrap()).collect()
        };
        let program = ltp(
            &schema,
            "All",
            &[
                (KeySelect, &[], &["a"], &[]),
                (KeyUpdate, &[], &["a"], &["b"]),
                (PredSelect, &["a"], &["b"], &[]),
                (PredUpdate, &["a"], &["a"], &["b"]),
                (Insert, &[], &[], &[]),
                (PredDelete, &["a"], &[], &[]),
                (KeyDelete, &[], &[], &[]),
            ],
        );
        let mut engine = Engine::new(schema.clone());
        for k in 0..3 {
            engine.load(r.id(), Key(k)).unwrap();
        }
        let mut instance = ProgramInstance::from_ltp(&program, &[1, 1, 0, 2, 7, 0, 1]);
        assert_eq!((instance.program(), instance.remaining()), ("All", 7));
        let txn = engine.begin("All", IsolationLevel::ReadCommitted);
        while !instance.is_done() {
            instance.step(&mut engine, txn).unwrap();
        }
        engine.commit(txn).unwrap();

        let t = &engine.history().committed[0];
        let reads: Vec<(i64, AttrSet)> = t.reads.iter().map(|r| (r.key.0, r.attrs)).collect();
        let (a, b) = (attrs(&["a"]), attrs(&["b"]));
        // Key reads, the full scan's three matches, and the target of each restricted scan.
        let expected = [
            (1, a),
            (1, a),
            (0, b),
            (1, b),
            (2, b),
            (2, a),
            (0, AttrSet::EMPTY),
        ];
        assert_eq!(reads, expected);
        let preads: Vec<AttrSet> = t.pred_reads.iter().map(|p| p.pread_attrs).collect();
        assert_eq!(preads, [a, a, a]);
        // One net write per tuple, in first-write order: tuple 1's update folds into its delete.
        let all = r.all_attrs();
        let writes: Vec<(i64, WriteKind, AttrSet)> = t
            .writes
            .iter()
            .map(|w| (w.key.0, w.kind, w.attrs))
            .collect();
        let expected = [
            (1, WriteKind::Delete, all),
            (2, WriteKind::Update, b),
            (7, WriteKind::Insert, all),
            (0, WriteKind::Delete, all),
        ];
        assert_eq!(writes, expected);
    }

    #[test]
    #[should_panic(expected = "finished program instance")]
    fn stepping_past_the_end_is_a_bug() {
        let schema = schema();
        let mut engine = Engine::new(schema.clone());
        let mut instance = ProgramInstance::from_ltp(&ltp(&schema, "Empty", &[]), &[]);
        let txn = engine.begin("Empty", IsolationLevel::ReadCommitted);
        let _ = instance.step(&mut engine, txn);
    }
}
