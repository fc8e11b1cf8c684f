//! The generic LTP lowering: the one way transaction programs reach the engine.
//!
//! The paper's soundness claim is about the `Unfold≤2` linear transaction programs (LTPs) of a
//! set of BTPs, so the engine executes exactly those: every statement of an LTP becomes one
//! engine step that addresses the row its *target* names.
//!
//! Rows share one layout. Row `k` of a relation holds `Int(k)` in every attribute, so its stored
//! key is `[Int(k); pk arity]` ([`lowered_key`]), every foreign key of row `k` points at row `k`
//! of the referenced relation, and a predicate can match the row on any key attribute.
//!
//! * Key-based statements address row `target`.
//! * Inserts write row `target` ([`lowered_row`]).
//! * Predicate selects scan with an always-true predicate. Predicate updates and deletes scan
//!   with a predicate matching exactly row `target` and then write every match.
//!
//! The recorded footprints therefore match the statements' declared read, predicate-read and
//! write sets.

use crate::program::{ProgramInstance, StepFn};
use crate::value::{Key, Row, Value};
use mvrc_btp::{LinearProgram, StatementKind};
use mvrc_schema::{AttrId, AttrSet, RelId, Schema};

/// Row `k` of `rel`: `Int(k)` in every attribute.
pub fn lowered_row(schema: &Schema, rel: RelId, k: i64) -> Row {
    vec![Value::Int(k); schema.relation(rel).attribute_count()]
}

/// The stored key of row `k` of `rel`: `k` once per primary-key attribute (TPC-C keys are
/// composite, so a single-value [`Key::int`] would miss every row there).
pub(crate) fn lowered_key(schema: &Schema, rel: RelId, k: i64) -> Key {
    let arity = schema.relation(rel).primary_key().iter().count().max(1);
    Key::composite(vec![Value::Int(k); arity])
}

impl ProgramInstance {
    /// Lowers one LTP instance into engine steps, one per statement, statement `pos`
    /// addressing row `targets[pos]`.
    pub fn from_ltp(schema: &Schema, ltp: &LinearProgram, targets: &[i64]) -> Self {
        let mut steps: Vec<StepFn> = Vec::with_capacity(ltp.len());
        for (pos, stmt) in ltp.statements() {
            let rel = stmt.rel();
            let pk = schema.relation(rel).primary_key();
            let pk_index = pk.iter().next().map(|a| a.index()).unwrap_or(0);
            let kind = stmt.kind();
            let read_attrs = stmt.read_attrs();
            let write_attrs = stmt.write_attrs();
            let pread_attrs = stmt.pread_attrs();
            let target = targets[pos];
            let step: StepFn = Box::new(move |engine, txn| {
                match kind {
                    StatementKind::KeySelect => {
                        let key = lowered_key(engine.schema(), rel, target);
                        engine.read_key(txn, rel, &key, read_attrs)?;
                    }
                    StatementKind::KeyUpdate => {
                        let key = lowered_key(engine.schema(), rel, target);
                        engine.update_key(txn, rel, &key, read_attrs, write_attrs, |row| {
                            bump(row, write_attrs, pk)
                        })?;
                    }
                    StatementKind::KeyDelete => {
                        let key = lowered_key(engine.schema(), rel, target);
                        engine.delete_key(txn, rel, &key)?;
                    }
                    StatementKind::Insert => {
                        let row = lowered_row(engine.schema(), rel, target);
                        engine.insert(txn, rel, row)?;
                    }
                    StatementKind::PredSelect => {
                        engine.scan(txn, rel, pread_attrs, read_attrs, |_| true)?;
                    }
                    StatementKind::PredUpdate => {
                        // The predicate matches exactly the target row; every match is updated,
                        // as predicate updates require. The scan already records the matched
                        // rows as reads with the declared ReadSet, so the per-row update reads
                        // nothing.
                        let matches = engine.scan(txn, rel, pread_attrs, read_attrs, |row| {
                            key_attr_is(row, pk_index, target)
                        })?;
                        for (key, _) in matches {
                            engine.update_key(
                                txn,
                                rel,
                                &key,
                                AttrSet::EMPTY,
                                write_attrs,
                                |row| bump(row, write_attrs, pk),
                            )?;
                        }
                    }
                    StatementKind::PredDelete => {
                        let matches = engine.scan(txn, rel, pread_attrs, read_attrs, |row| {
                            key_attr_is(row, pk_index, target)
                        })?;
                        for (key, _) in matches {
                            engine.delete_key(txn, rel, &key)?;
                        }
                    }
                }
                Ok(())
            });
            steps.push(step);
        }
        ProgramInstance::new(ltp.name(), steps)
    }
}

/// New values for an update: key attributes keep their value (so predicates keep matching),
/// every other written attribute is bumped — distinct versions without disturbing identity.
fn bump(row: &Row, write_attrs: AttrSet, pk: AttrSet) -> Vec<(AttrId, Value)> {
    write_attrs
        .iter()
        .map(|a| {
            let old = row.get(a.index()).cloned().unwrap_or(Value::Null);
            let new = if pk.contains(a) {
                old
            } else {
                Value::Int(old.as_int().unwrap_or(0) + 1)
            };
            (a, new)
        })
        .collect()
}

fn key_attr_is(row: &Row, pk_index: usize, target: i64) -> bool {
    row.get(pk_index).and_then(Value::as_int) == Some(target)
}
