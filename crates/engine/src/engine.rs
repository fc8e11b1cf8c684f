//! The multi-version transaction engine.
//!
//! [`Engine`] stores versioned tables ([`crate::storage`]) and executes transactions under one
//! of three isolation levels:
//!
//! * [`IsolationLevel::ReadCommitted`] — the MVRC semantics of Section 3.5: every *statement*
//!   observes the most recently committed versions (statement-level snapshot, as Postgres and
//!   Oracle do, cf. Section 5.4), writes never overwrite uncommitted data (no dirty writes), and
//!   nothing else is checked. Lost updates and write skew are possible — exactly the anomalies
//!   the robustness analysis reasons about.
//! * [`IsolationLevel::SnapshotIsolation`] — transaction-level snapshot plus
//!   first-committer-wins write conflicts.
//! * [`IsolationLevel::Serializable`] — snapshot isolation plus commit-time read validation
//!   (optimistic certification): a transaction only commits if every version it observed — by
//!   key or by predicate — is still the latest committed version. This guarantees conflict
//!   serializability and models the extra aborts a serializable level costs.
//!
//! All writes are buffered in the transaction and installed atomically at commit, with the
//! commit counter providing a version order that coincides with the commit order.

use crate::error::{AbortReason, EngineError, EngineResult};
use crate::history::{
    CommittedTransaction, History, RecordedPredicateRead, RecordedRead, RecordedWrite, WriteKind,
};
use crate::storage::{CommitTs, Storage, StoredVersion, WriterId};
use crate::value::{project, Key, Row, Value};
use mvrc_schema::{AttrId, AttrSet, RelId, Schema};
use std::collections::HashMap;

/// The isolation level a transaction runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IsolationLevel {
    /// Multi-version read committed (the paper's MVRC).
    ReadCommitted,
    /// Snapshot isolation.
    SnapshotIsolation,
    /// Serializable (snapshot isolation + commit-time read validation).
    Serializable,
}

impl IsolationLevel {
    /// All levels, weakest first (useful for sweeps in benches and examples).
    pub const ALL: [IsolationLevel; 3] = [
        IsolationLevel::ReadCommitted,
        IsolationLevel::SnapshotIsolation,
        IsolationLevel::Serializable,
    ];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            IsolationLevel::ReadCommitted => "read-committed",
            IsolationLevel::SnapshotIsolation => "snapshot-isolation",
            IsolationLevel::Serializable => "serializable",
        }
    }
}

/// Handle of an active transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxnToken(pub u64);

#[derive(Debug, Clone)]
struct PendingWrite {
    rel: RelId,
    key: Key,
    kind: WriteKind,
    /// The full row image for inserts/updates; `None` for deletes.
    row: Option<Row>,
    /// Attributes actually modified.
    attrs: AttrSet,
}

#[derive(Debug)]
struct ActiveTxn {
    token: WriterId,
    program: String,
    isolation: IsolationLevel,
    /// Snapshot timestamp taken at `begin` (used by SI / Serializable).
    begin_ts: CommitTs,
    /// Statement-level read timestamp (used by ReadCommitted; refreshed by `begin_statement`).
    stmt_ts: CommitTs,
    reads: Vec<RecordedRead>,
    pred_reads: Vec<RecordedPredicateRead>,
    writes: Vec<PendingWrite>,
    /// Rows on which this transaction holds the write lock.
    locked: Vec<(RelId, Key)>,
}

impl ActiveTxn {
    fn read_ts(&self) -> CommitTs {
        match self.isolation {
            IsolationLevel::ReadCommitted => self.stmt_ts,
            IsolationLevel::SnapshotIsolation | IsolationLevel::Serializable => self.begin_ts,
        }
    }

    fn pending_for(&self, rel: RelId, key: &Key) -> Option<&PendingWrite> {
        self.writes
            .iter()
            .rev()
            .find(|w| w.rel == rel && &w.key == key)
    }
}

/// The in-memory multi-version execution engine.
#[derive(Debug)]
pub struct Engine {
    schema: Schema,
    storage: Storage,
    commit_counter: CommitTs,
    next_token: WriterId,
    active: HashMap<WriterId, ActiveTxn>,
    history: History,
}

impl Engine {
    /// Creates an engine with empty tables for every relation of the schema.
    pub fn new(schema: Schema) -> Self {
        let storage = Storage::new(&schema);
        Engine {
            schema,
            storage,
            commit_counter: 0,
            next_token: 1,
            active: HashMap::new(),
            history: History::new(),
        }
    }

    /// The schema the engine was built from.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The execution history of committed transactions recorded so far.
    pub fn history(&self) -> &History {
        &self.history
    }

    /// Consumes the engine, returning its history (used by drivers after a run).
    pub fn into_history(self) -> History {
        self.history
    }

    /// Number of active (not yet committed or rolled back) transactions.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    // ------------------------------------------------------------------ schema helpers

    /// Resolves a relation by name.
    pub fn rel(&self, name: &str) -> EngineResult<RelId> {
        self.schema
            .relation_by_name(name)
            .map(|r| r.id())
            .ok_or_else(|| EngineError::UnknownRelation(name.to_string()))
    }

    /// Resolves a set of attribute names on a relation.
    pub fn attrs(&self, rel: RelId, names: &[&str]) -> EngineResult<AttrSet> {
        let relation = self.schema.relation(rel);
        let mut set = AttrSet::empty();
        for name in names {
            let attr =
                relation
                    .attr_by_name(name)
                    .ok_or_else(|| EngineError::UnknownAttribute {
                        relation: relation.name().to_string(),
                        attribute: name.to_string(),
                    })?;
            set.insert(attr);
        }
        Ok(set)
    }

    /// Resolves a single attribute id by name.
    pub fn attr(&self, rel: RelId, name: &str) -> EngineResult<AttrId> {
        self.schema
            .relation(rel)
            .attr_by_name(name)
            .ok_or_else(|| EngineError::UnknownAttribute {
                relation: self.schema.relation(rel).name().to_string(),
                attribute: name.to_string(),
            })
    }

    // ------------------------------------------------------------------ initial load

    /// Loads a row into a table outside any transaction (commit timestamp 0, writer 0).
    ///
    /// Used to populate the initial database state before a run.
    pub fn load(&mut self, rel: RelId, row: Row) -> EngineResult<()> {
        let relation = self.schema.relation(rel);
        if row.len() != relation.attribute_count() {
            return Err(EngineError::ArityMismatch {
                relation: relation.name().to_string(),
                expected: relation.attribute_count(),
                got: row.len(),
            });
        }
        let key = Key::of_row(relation, &row);
        let all = relation.all_attrs();
        let chain = self.storage.table_mut(rel).chain_mut(&key);
        if chain.latest().map(|v| !v.is_tombstone()).unwrap_or(false) {
            return Err(EngineError::DuplicateKey(format!(
                "{}{}",
                relation.name(),
                key
            )));
        }
        chain.install(StoredVersion {
            commit_ts: 0,
            writer: 0,
            data: Some(row),
            written_attrs: all,
        });
        Ok(())
    }

    /// Reads the latest committed row for a key, outside any transaction (used by tests and by
    /// invariant checks after a run).
    pub fn latest_row(&self, rel: RelId, key: &Key) -> Option<Row> {
        self.storage
            .table(rel)
            .chain(key)
            .and_then(|c| c.row_at(self.commit_counter))
            .cloned()
    }

    /// Scans the latest committed state of a relation, outside any transaction.
    pub fn latest_rows(&self, rel: RelId) -> Vec<(Key, Row)> {
        self.storage
            .table(rel)
            .chains()
            .filter_map(|(k, c)| {
                c.row_at(self.commit_counter)
                    .map(|r| (k.clone(), r.clone()))
            })
            .collect()
    }

    // ------------------------------------------------------------------ transaction lifecycle

    /// Begins a transaction for the named program under the given isolation level.
    pub fn begin(&mut self, program: &str, isolation: IsolationLevel) -> TxnToken {
        let token = self.next_token;
        self.next_token += 1;
        self.active.insert(
            token,
            ActiveTxn {
                token,
                program: program.to_string(),
                isolation,
                begin_ts: self.commit_counter,
                stmt_ts: self.commit_counter,
                reads: Vec::new(),
                pred_reads: Vec::new(),
                writes: Vec::new(),
                locked: Vec::new(),
            },
        );
        TxnToken(token)
    }

    /// Starts a new statement: under ReadCommitted this refreshes the statement-level read
    /// timestamp to the latest committed state; under SI / Serializable it is a no-op.
    pub fn begin_statement(&mut self, txn: TxnToken) -> EngineResult<()> {
        let current = self.commit_counter;
        let t = self.txn_mut(txn)?;
        if t.isolation == IsolationLevel::ReadCommitted {
            t.stmt_ts = current;
        }
        Ok(())
    }

    /// Rolls a transaction back: releases its write locks and discards its buffered writes.
    pub fn rollback(&mut self, txn: TxnToken) -> EngineResult<()> {
        let t = self
            .active
            .remove(&txn.0)
            .ok_or(EngineError::UnknownTransaction(txn.0))?;
        for (rel, key) in &t.locked {
            self.storage.table_mut(*rel).chain_mut(key).unlock(t.token);
        }
        Ok(())
    }

    /// Commits a transaction.
    ///
    /// Under SI / Serializable the commit may fail with an abort (the transaction is rolled back
    /// automatically); under ReadCommitted commits always succeed.
    pub fn commit(&mut self, txn: TxnToken) -> EngineResult<CommitTs> {
        // Validation phase.
        let validation = {
            let t = self.txn(txn)?;
            match t.isolation {
                IsolationLevel::ReadCommitted => Ok(()),
                IsolationLevel::SnapshotIsolation => self.validate_writes(t),
                IsolationLevel::Serializable => self
                    .validate_writes(t)
                    .and_then(|()| self.validate_reads(t)),
            }
        };
        if let Err(reason) = validation {
            self.rollback(txn)?;
            return Err(EngineError::Aborted(reason));
        }

        // Install phase.
        let mut t = self
            .active
            .remove(&txn.0)
            .ok_or(EngineError::UnknownTransaction(txn.0))?;
        self.commit_counter += 1;
        let commit_ts = self.commit_counter;
        // A transaction may write the same row several times (e.g. a NewOrder picking the same
        // stock item twice); only one version per row may be installed, so pending writes are
        // collapsed to their net effect first.
        let writes = collapse_writes(t.writes.drain(..));
        let mut recorded_writes = Vec::with_capacity(writes.len());
        for w in writes {
            let chain = self.storage.table_mut(w.rel).chain_mut(&w.key);
            chain.install(StoredVersion {
                commit_ts,
                writer: t.token,
                data: w.row,
                written_attrs: w.attrs,
            });
            chain.unlock(t.token);
            recorded_writes.push(RecordedWrite {
                rel: w.rel,
                key: w.key,
                attrs: w.attrs,
                kind: w.kind,
            });
        }
        // Locks acquired without a buffered write (cannot happen today, but stay safe).
        for (rel, key) in &t.locked {
            self.storage.table_mut(*rel).chain_mut(key).unlock(t.token);
        }
        self.history.record(CommittedTransaction {
            token: t.token,
            program: t.program,
            commit_ts,
            reads: t.reads,
            pred_reads: t.pred_reads,
            writes: recorded_writes,
        });
        Ok(commit_ts)
    }

    fn validate_writes(&self, t: &ActiveTxn) -> Result<(), AbortReason> {
        // First-committer-wins: abort when a row this transaction writes has a version committed
        // after the transaction's snapshot.
        for w in &t.writes {
            if let Some(chain) = self.storage.table(w.rel).chain(&w.key) {
                if chain.first_commit_after(t.begin_ts).is_some() {
                    return Err(AbortReason::WriteConflict);
                }
            }
        }
        Ok(())
    }

    fn validate_reads(&self, t: &ActiveTxn) -> Result<(), AbortReason> {
        // Serializable certification: every observed version must still be the latest committed
        // one, and no predicate read may have missed a newer conflicting version.
        for r in &t.reads {
            if let Some(chain) = self.storage.table(r.rel).chain(&r.key) {
                if let Some(latest) = chain.latest() {
                    if latest.commit_ts > r.observed_ts && latest.written_attrs.intersects(r.attrs)
                    {
                        return Err(AbortReason::SerializationConflict);
                    }
                }
            }
        }
        for p in &t.pred_reads {
            for (_, chain) in self.storage.table(p.rel).chains() {
                for v in chain.versions() {
                    if v.commit_ts <= p.read_ts || v.writer == t.token {
                        continue;
                    }
                    let phantom = v.is_tombstone()
                        || chain.versions().first().map(|f| f.commit_ts) == Some(v.commit_ts);
                    if phantom || v.written_attrs.intersects(p.pread_attrs) {
                        return Err(AbortReason::SerializationConflict);
                    }
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------ operations

    /// Reads a row by primary key, observing the attributes in `attrs`.
    ///
    /// Returns `None` when the key does not exist in the transaction's visible snapshot. The
    /// read is recorded for the dynamic serialization graph.
    pub fn read_key(
        &mut self,
        txn: TxnToken,
        rel: RelId,
        key: &Key,
        attrs: AttrSet,
    ) -> EngineResult<Option<Row>> {
        let t = self.txn(txn)?;
        let read_ts = t.read_ts();
        let token = t.token;

        // Read-your-own-writes: pending writes of this transaction shadow committed versions.
        let own = t.pending_for(rel, key).cloned();
        let (base_row, observed_ts) = match self.storage.table(rel).chain(key) {
            Some(chain) => match chain.visible_at(read_ts) {
                Some(v) => (v.data.clone(), v.commit_ts),
                None => (None, read_ts),
            },
            None => (None, read_ts),
        };
        let result = match own {
            Some(w) => match w.kind {
                WriteKind::Delete => None,
                _ => w.row.clone(),
            },
            None => base_row.clone(),
        };
        // The dependency-relevant observation is the committed base version (own writes never
        // create dependencies).
        if base_row.is_some()
            || self
                .storage
                .table(rel)
                .chain(key)
                .map(|c| !c.is_unborn())
                .unwrap_or(false)
        {
            let t = self.txn_mut(txn)?;
            t.reads.push(RecordedRead {
                rel,
                key: key.clone(),
                observed_ts,
                attrs,
            });
        }
        let _ = token;
        Ok(result.map(|r| project(&r, attrs)))
    }

    /// Evaluates a predicate over every visible row of a relation.
    ///
    /// `pread_attrs` are the attributes the predicate looks at (`PReadSet`); `read_attrs` are
    /// the attributes returned for matching rows (`ReadSet`). Matching rows are also recorded as
    /// key-based reads, mirroring the `PR[R] R[t1] … R[tn]` chunk shape of Section 3.3.
    pub fn scan<F>(
        &mut self,
        txn: TxnToken,
        rel: RelId,
        pread_attrs: AttrSet,
        read_attrs: AttrSet,
        predicate: F,
    ) -> EngineResult<Vec<(Key, Row)>>
    where
        F: Fn(&Row) -> bool,
    {
        let read_ts = self.txn(txn)?.read_ts();
        let mut matches = Vec::new();
        let mut observed: Vec<(Key, CommitTs)> = Vec::new();
        for (key, chain) in self.storage.table(rel).chains() {
            if let Some(v) = chain.visible_at(read_ts) {
                if let Some(row) = &v.data {
                    if predicate(row) {
                        matches.push((key.clone(), project(row, read_attrs)));
                        observed.push((key.clone(), v.commit_ts));
                    }
                }
            }
        }
        let t = self.txn_mut(txn)?;
        t.pred_reads.push(RecordedPredicateRead {
            rel,
            read_ts,
            pread_attrs,
        });
        for (key, observed_ts) in observed {
            t.reads.push(RecordedRead {
                rel,
                key,
                observed_ts,
                attrs: read_attrs,
            });
        }
        Ok(matches)
    }

    /// Updates a row by primary key: reads the row (recording `read_attrs`), applies `f` to
    /// compute the new values for `write_attrs`, and buffers the write.
    ///
    /// This mirrors the key-based update chunk `R[t] W[t]` of the paper. Aborts with
    /// [`AbortReason::MissingRow`] when the key is not visible and with
    /// [`AbortReason::WriteLocked`] when another uncommitted transaction has written the row.
    pub fn update_key<F>(
        &mut self,
        txn: TxnToken,
        rel: RelId,
        key: &Key,
        read_attrs: AttrSet,
        write_attrs: AttrSet,
        f: F,
    ) -> EngineResult<()>
    where
        F: FnOnce(&Row) -> Vec<(AttrId, Value)>,
    {
        let t = self.txn(txn)?;
        let read_ts = t.read_ts();
        let token = t.token;
        let own = t.pending_for(rel, key).cloned();

        // Determine the base row and record the read.
        let (committed_base, observed_ts) = match self.storage.table(rel).chain(key) {
            Some(chain) => match chain.visible_at(read_ts) {
                Some(v) => (v.data.clone(), v.commit_ts),
                None => (None, read_ts),
            },
            None => (None, read_ts),
        };
        let base = match &own {
            Some(w) if w.kind != WriteKind::Delete => w.row.clone(),
            Some(_) => None,
            None => committed_base.clone(),
        };
        let Some(base_row) = base else {
            self.abort_now(txn)?;
            let name = self.schema.relation(rel).name().to_string();
            return Err(EngineError::Aborted(AbortReason::MissingRow(format!(
                "{name}{key}"
            ))));
        };

        // Acquire the write lock (no dirty writes).
        if !self.storage.table_mut(rel).chain_mut(key).try_lock(token) {
            self.abort_now(txn)?;
            return Err(EngineError::Aborted(AbortReason::WriteLocked));
        }

        let mut new_row = base_row.clone();
        for (attr, value) in f(&base_row) {
            if attr.index() < new_row.len() {
                new_row[attr.index()] = value;
            }
        }

        let t = self.txn_mut(txn)?;
        if !read_attrs.is_empty() {
            t.reads.push(RecordedRead {
                rel,
                key: key.clone(),
                observed_ts,
                attrs: read_attrs,
            });
        }
        t.locked.push((rel, key.clone()));
        t.writes.push(PendingWrite {
            rel,
            key: key.clone(),
            kind: WriteKind::Update,
            row: Some(new_row),
            attrs: write_attrs,
        });
        Ok(())
    }

    /// Inserts a new row. The primary key is extracted from the row values.
    pub fn insert(&mut self, txn: TxnToken, rel: RelId, row: Row) -> EngineResult<()> {
        let relation = self.schema.relation(rel);
        if row.len() != relation.attribute_count() {
            return Err(EngineError::ArityMismatch {
                relation: relation.name().to_string(),
                expected: relation.attribute_count(),
                got: row.len(),
            });
        }
        let key = Key::of_row(relation, &row);
        let all = relation.all_attrs();
        let rel_name = relation.name().to_string();
        let t = self.txn(txn)?;
        let token = t.token;
        let read_ts = t.read_ts();

        // Uniqueness against the visible snapshot and own pending writes.
        let visible_exists = self
            .storage
            .table(rel)
            .chain(&key)
            .and_then(|c| c.row_at(read_ts))
            .is_some();
        let own_insert = t
            .pending_for(rel, &key)
            .map(|w| w.kind != WriteKind::Delete)
            .unwrap_or(false);
        if visible_exists || own_insert {
            return Err(EngineError::DuplicateKey(format!("{rel_name}{key}")));
        }

        if !self.storage.table_mut(rel).chain_mut(&key).try_lock(token) {
            self.abort_now(txn)?;
            return Err(EngineError::Aborted(AbortReason::WriteLocked));
        }
        let t = self.txn_mut(txn)?;
        t.locked.push((rel, key.clone()));
        t.writes.push(PendingWrite {
            rel,
            key,
            kind: WriteKind::Insert,
            row: Some(row),
            attrs: all,
        });
        Ok(())
    }

    /// Deletes a row by primary key.
    pub fn delete_key(&mut self, txn: TxnToken, rel: RelId, key: &Key) -> EngineResult<()> {
        let relation_name = self.schema.relation(rel).name().to_string();
        let all = self.schema.relation(rel).all_attrs();
        let t = self.txn(txn)?;
        let token = t.token;
        let read_ts = t.read_ts();
        let own = t.pending_for(rel, key).cloned();
        let visible = match own {
            Some(w) => w.kind != WriteKind::Delete && w.row.is_some(),
            None => self
                .storage
                .table(rel)
                .chain(key)
                .and_then(|c| c.row_at(read_ts))
                .is_some(),
        };
        if !visible {
            self.abort_now(txn)?;
            return Err(EngineError::Aborted(AbortReason::MissingRow(format!(
                "{relation_name}{key}"
            ))));
        }
        if !self.storage.table_mut(rel).chain_mut(key).try_lock(token) {
            self.abort_now(txn)?;
            return Err(EngineError::Aborted(AbortReason::WriteLocked));
        }
        let t = self.txn_mut(txn)?;
        t.locked.push((rel, key.clone()));
        t.writes.push(PendingWrite {
            rel,
            key: key.clone(),
            kind: WriteKind::Delete,
            row: None,
            attrs: all,
        });
        Ok(())
    }

    // ------------------------------------------------------------------ internals

    fn txn(&self, txn: TxnToken) -> EngineResult<&ActiveTxn> {
        self.active
            .get(&txn.0)
            .ok_or(EngineError::UnknownTransaction(txn.0))
    }

    fn txn_mut(&mut self, txn: TxnToken) -> EngineResult<&mut ActiveTxn> {
        self.active
            .get_mut(&txn.0)
            .ok_or(EngineError::UnknownTransaction(txn.0))
    }

    /// Rolls back after an operation-level abort so the caller only has to propagate the error.
    fn abort_now(&mut self, txn: TxnToken) -> EngineResult<()> {
        self.rollback(txn)
    }
}

/// Collapses a transaction's pending writes to at most one net write per row, merging the
/// modified attribute sets. Insert-then-delete of the same row cancels out entirely.
fn collapse_writes(writes: impl Iterator<Item = PendingWrite>) -> Vec<PendingWrite> {
    let mut collapsed: Vec<PendingWrite> = Vec::new();
    for w in writes {
        match collapsed
            .iter_mut()
            .position(|e| e.rel == w.rel && e.key == w.key)
        {
            None => collapsed.push(w),
            Some(idx) => {
                let existing = &mut collapsed[idx];
                let merged_attrs = existing.attrs.union(w.attrs);
                match (existing.kind, w.kind) {
                    // The row was created by this transaction and deleted again: net no-op.
                    (WriteKind::Insert, WriteKind::Delete) => {
                        collapsed.remove(idx);
                    }
                    // The row stays newly created; later updates only change its contents.
                    (WriteKind::Insert, _) => {
                        existing.row = w.row;
                        existing.attrs = merged_attrs;
                    }
                    // Delete followed by re-insert (or update of the buffered image): the net
                    // effect is an update of the pre-existing row.
                    (WriteKind::Delete, WriteKind::Insert)
                    | (WriteKind::Delete, WriteKind::Update) => {
                        existing.kind = WriteKind::Update;
                        existing.row = w.row;
                        existing.attrs = merged_attrs;
                    }
                    // Update followed by anything keeps the later kind and image.
                    _ => {
                        existing.kind = w.kind;
                        existing.row = w.row;
                        existing.attrs = merged_attrs;
                    }
                }
            }
        }
    }
    collapsed
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvrc_schema::SchemaBuilder;

    fn bank_schema() -> Schema {
        let mut b = SchemaBuilder::new("bank");
        b.relation("Checking", &["customer_id", "balance"], &["customer_id"])
            .unwrap();
        b.relation("Savings", &["customer_id", "balance"], &["customer_id"])
            .unwrap();
        b.build()
    }

    fn engine_with_accounts(n: i64) -> (Engine, RelId, RelId) {
        let schema = bank_schema();
        let checking = schema.relation_by_name("Checking").unwrap().id();
        let savings = schema.relation_by_name("Savings").unwrap().id();
        let mut engine = Engine::new(schema);
        for i in 0..n {
            engine
                .load(checking, vec![Value::Int(i), Value::Int(100)])
                .unwrap();
            engine
                .load(savings, vec![Value::Int(i), Value::Int(100)])
                .unwrap();
        }
        (engine, checking, savings)
    }

    fn balance_attr(engine: &Engine, rel: RelId) -> AttrSet {
        engine.attrs(rel, &["balance"]).unwrap()
    }

    fn deposit(
        engine: &mut Engine,
        txn: TxnToken,
        rel: RelId,
        customer: i64,
        amount: i64,
    ) -> EngineResult<()> {
        let attrs = balance_attr(engine, rel);
        let attr_id = engine.attr(rel, "balance").unwrap();
        engine.update_key(txn, rel, &Key::int(customer), attrs, attrs, |row| {
            vec![(
                attr_id,
                Value::Int(row[attr_id.index()].as_int().unwrap() + amount),
            )]
        })
    }

    #[test]
    fn load_and_read_back() {
        let (mut engine, checking, _) = engine_with_accounts(3);
        assert_eq!(engine.latest_rows(checking).len(), 3);
        let txn = engine.begin("Reader", IsolationLevel::ReadCommitted);
        let attrs = balance_attr(&engine, checking);
        let row = engine
            .read_key(txn, checking, &Key::int(1), attrs)
            .unwrap()
            .unwrap();
        assert_eq!(row[1], Value::Int(100));
        assert!(engine
            .read_key(txn, checking, &Key::int(99), attrs)
            .unwrap()
            .is_none());
        engine.commit(txn).unwrap();
        assert_eq!(engine.history().len(), 1);
    }

    #[test]
    fn duplicate_load_is_rejected() {
        let (mut engine, checking, _) = engine_with_accounts(1);
        let err = engine
            .load(checking, vec![Value::Int(0), Value::Int(5)])
            .unwrap_err();
        assert!(matches!(err, EngineError::DuplicateKey(_)));
        let err = engine.load(checking, vec![Value::Int(9)]).unwrap_err();
        assert!(matches!(err, EngineError::ArityMismatch { .. }));
    }

    #[test]
    fn committed_updates_are_visible_to_later_transactions() {
        let (mut engine, checking, _) = engine_with_accounts(1);
        let t1 = engine.begin("Deposit", IsolationLevel::ReadCommitted);
        deposit(&mut engine, t1, checking, 0, 25).unwrap();
        engine.commit(t1).unwrap();

        let t2 = engine.begin("Reader", IsolationLevel::ReadCommitted);
        let attrs = balance_attr(&engine, checking);
        let row = engine
            .read_key(t2, checking, &Key::int(0), attrs)
            .unwrap()
            .unwrap();
        assert_eq!(row[1], Value::Int(125));
        engine.commit(t2).unwrap();
    }

    #[test]
    fn read_committed_reads_latest_committed_per_statement() {
        let (mut engine, checking, _) = engine_with_accounts(1);
        let reader = engine.begin("Reader", IsolationLevel::ReadCommitted);
        let attrs = balance_attr(&engine, checking);
        engine.begin_statement(reader).unwrap();
        let before = engine
            .read_key(reader, checking, &Key::int(0), attrs)
            .unwrap()
            .unwrap();
        assert_eq!(before[1], Value::Int(100));

        // A concurrent deposit commits while the reader is still running.
        let writer = engine.begin("Deposit", IsolationLevel::ReadCommitted);
        deposit(&mut engine, writer, checking, 0, 50).unwrap();
        engine.commit(writer).unwrap();

        // The next statement of the reader observes the new committed version …
        engine.begin_statement(reader).unwrap();
        let after = engine
            .read_key(reader, checking, &Key::int(0), attrs)
            .unwrap()
            .unwrap();
        assert_eq!(
            after[1],
            Value::Int(150),
            "read committed observes the latest commit"
        );
        engine.commit(reader).unwrap();
    }

    #[test]
    fn snapshot_isolation_reads_the_begin_snapshot() {
        let (mut engine, checking, _) = engine_with_accounts(1);
        let reader = engine.begin("Reader", IsolationLevel::SnapshotIsolation);
        let attrs = balance_attr(&engine, checking);
        let writer = engine.begin("Deposit", IsolationLevel::ReadCommitted);
        deposit(&mut engine, writer, checking, 0, 50).unwrap();
        engine.commit(writer).unwrap();

        engine.begin_statement(reader).unwrap();
        let row = engine
            .read_key(reader, checking, &Key::int(0), attrs)
            .unwrap()
            .unwrap();
        assert_eq!(
            row[1],
            Value::Int(100),
            "snapshot isolation ignores later commits"
        );
        engine.commit(reader).unwrap();
    }

    #[test]
    fn dirty_writes_are_rejected_under_every_level() {
        for level in IsolationLevel::ALL {
            let (mut engine, checking, _) = engine_with_accounts(1);
            let t1 = engine.begin("W1", level);
            let t2 = engine.begin("W2", level);
            deposit(&mut engine, t1, checking, 0, 10).unwrap();
            let err = deposit(&mut engine, t2, checking, 0, 20).unwrap_err();
            assert_eq!(
                err,
                EngineError::Aborted(AbortReason::WriteLocked),
                "level {level:?}"
            );
            // t2 was rolled back automatically; t1 can still commit.
            engine.commit(t1).unwrap();
            assert_eq!(
                engine.latest_row(checking, &Key::int(0)).unwrap()[1],
                Value::Int(110)
            );
        }
    }

    #[test]
    fn lost_update_is_possible_under_read_committed_but_not_under_si() {
        // Two concurrent deposits read the same balance; the second overwrites the first.
        let (mut engine, checking, _) = engine_with_accounts(1);
        let t1 = engine.begin("D1", IsolationLevel::ReadCommitted);
        let t2 = engine.begin("D2", IsolationLevel::ReadCommitted);
        deposit(&mut engine, t1, checking, 0, 10).unwrap();
        engine.commit(t1).unwrap();
        // t2's statement starts after t1 committed: it bases its update on the latest committed
        // value, so no update is lost here …
        engine.begin_statement(t2).unwrap();
        deposit(&mut engine, t2, checking, 0, 20).unwrap();
        engine.commit(t2).unwrap();
        assert_eq!(
            engine.latest_row(checking, &Key::int(0)).unwrap()[1],
            Value::Int(130)
        );

        // … but when the statement already started (stale statement snapshot), the update is
        // based on the old balance and t1's deposit is lost — allowed under read committed.
        let (mut engine, checking, _) = engine_with_accounts(1);
        let t2 = engine.begin("D2", IsolationLevel::ReadCommitted);
        engine.begin_statement(t2).unwrap();
        let t1 = engine.begin("D1", IsolationLevel::ReadCommitted);
        deposit(&mut engine, t1, checking, 0, 10).unwrap();
        engine.commit(t1).unwrap();
        deposit(&mut engine, t2, checking, 0, 20).unwrap();
        engine.commit(t2).unwrap();
        assert_eq!(
            engine.latest_row(checking, &Key::int(0)).unwrap()[1],
            Value::Int(120),
            "t1's deposit of 10 was lost under read committed"
        );

        // Under snapshot isolation the same interleaving aborts with a write conflict.
        let (mut engine, checking, _) = engine_with_accounts(1);
        let t2 = engine.begin("D2", IsolationLevel::SnapshotIsolation);
        engine.begin_statement(t2).unwrap();
        let t1 = engine.begin("D1", IsolationLevel::SnapshotIsolation);
        deposit(&mut engine, t1, checking, 0, 10).unwrap();
        engine.commit(t1).unwrap();
        deposit(&mut engine, t2, checking, 0, 20).unwrap();
        let err = engine.commit(t2).unwrap_err();
        assert_eq!(err, EngineError::Aborted(AbortReason::WriteConflict));
    }

    #[test]
    fn write_skew_is_allowed_under_si_but_aborted_under_serializable() {
        // Classic write skew on two accounts: each transaction reads both balances and, if the
        // sum is positive, withdraws from "its" account.
        for (level, expect_both_commit) in [
            (IsolationLevel::SnapshotIsolation, true),
            (IsolationLevel::Serializable, false),
        ] {
            let (mut engine, checking, savings) = engine_with_accounts(1);
            let attrs_c = balance_attr(&engine, checking);
            let attrs_s = balance_attr(&engine, savings);
            let t1 = engine.begin("W1", level);
            let t2 = engine.begin("W2", level);
            // Both read both balances.
            for t in [t1, t2] {
                engine
                    .read_key(t, checking, &Key::int(0), attrs_c)
                    .unwrap()
                    .unwrap();
                engine
                    .read_key(t, savings, &Key::int(0), attrs_s)
                    .unwrap()
                    .unwrap();
            }
            // t1 withdraws 150 from checking, t2 withdraws 150 from savings.
            let attr_c = engine.attr(checking, "balance").unwrap();
            let attr_s = engine.attr(savings, "balance").unwrap();
            engine
                .update_key(t1, checking, &Key::int(0), attrs_c, attrs_c, |row| {
                    vec![(attr_c, Value::Int(row[1].as_int().unwrap() - 150))]
                })
                .unwrap();
            engine
                .update_key(t2, savings, &Key::int(0), attrs_s, attrs_s, |row| {
                    vec![(attr_s, Value::Int(row[1].as_int().unwrap() - 150))]
                })
                .unwrap();
            engine.commit(t1).unwrap();
            let second = engine.commit(t2);
            if expect_both_commit {
                second.unwrap();
                let report = engine.history().report(engine.schema());
                assert!(
                    !report.is_serializable(),
                    "write skew must show up as a cycle"
                );
            } else {
                assert_eq!(
                    second.unwrap_err(),
                    EngineError::Aborted(AbortReason::SerializationConflict)
                );
                let report = engine.history().report(engine.schema());
                assert!(report.is_serializable());
            }
        }
    }

    #[test]
    fn serializable_aborts_phantoms_missed_by_predicate_reads() {
        let (mut engine, checking, _) = engine_with_accounts(2);
        let attrs = balance_attr(&engine, checking);
        let scanner = engine.begin("Scan", IsolationLevel::Serializable);
        let rows = engine
            .scan(scanner, checking, attrs, attrs, |row| {
                row[1].as_int().unwrap() >= 0
            })
            .unwrap();
        assert_eq!(rows.len(), 2);

        // A concurrent transaction inserts a new account and commits.
        let inserter = engine.begin("Insert", IsolationLevel::ReadCommitted);
        engine
            .insert(inserter, checking, vec![Value::Int(7), Value::Int(500)])
            .unwrap();
        engine.commit(inserter).unwrap();

        // The scanner also writes something so that the missed phantom matters, then commits.
        deposit(&mut engine, scanner, checking, 0, 1).unwrap();
        let err = engine.commit(scanner).unwrap_err();
        assert_eq!(
            err,
            EngineError::Aborted(AbortReason::SerializationConflict)
        );
    }

    #[test]
    fn insert_delete_roundtrip_and_missing_row_aborts() {
        let (mut engine, checking, _) = engine_with_accounts(1);
        let t = engine.begin("Admin", IsolationLevel::ReadCommitted);
        engine
            .insert(t, checking, vec![Value::Int(5), Value::Int(10)])
            .unwrap();
        // Own pending insert is visible to the same transaction.
        let attrs = balance_attr(&engine, checking);
        let own = engine
            .read_key(t, checking, &Key::int(5), attrs)
            .unwrap()
            .unwrap();
        assert_eq!(own[1], Value::Int(10));
        // Duplicate insert of the same key is an application error, not an abort.
        let err = engine
            .insert(t, checking, vec![Value::Int(5), Value::Int(11)])
            .unwrap_err();
        assert!(matches!(err, EngineError::DuplicateKey(_)));
        engine.commit(t).unwrap();
        assert!(engine.latest_row(checking, &Key::int(5)).is_some());

        let t = engine.begin("Admin", IsolationLevel::ReadCommitted);
        engine.delete_key(t, checking, &Key::int(5)).unwrap();
        engine.commit(t).unwrap();
        assert!(engine.latest_row(checking, &Key::int(5)).is_none());

        let t = engine.begin("Admin", IsolationLevel::ReadCommitted);
        let err = engine.delete_key(t, checking, &Key::int(5)).unwrap_err();
        assert!(matches!(
            err,
            EngineError::Aborted(AbortReason::MissingRow(_))
        ));
        // The transaction was rolled back by the abort.
        assert_eq!(engine.active_count(), 0);
    }

    #[test]
    fn rollback_releases_locks() {
        let (mut engine, checking, _) = engine_with_accounts(1);
        let t1 = engine.begin("W1", IsolationLevel::ReadCommitted);
        deposit(&mut engine, t1, checking, 0, 10).unwrap();
        engine.rollback(t1).unwrap();
        assert_eq!(
            engine.latest_row(checking, &Key::int(0)).unwrap()[1],
            Value::Int(100)
        );

        let t2 = engine.begin("W2", IsolationLevel::ReadCommitted);
        deposit(&mut engine, t2, checking, 0, 10).unwrap();
        engine.commit(t2).unwrap();
        assert_eq!(
            engine.latest_row(checking, &Key::int(0)).unwrap()[1],
            Value::Int(110)
        );
    }

    #[test]
    fn unknown_handles_and_names_are_reported() {
        let (mut engine, checking, _) = engine_with_accounts(1);
        assert!(matches!(
            engine.rel("Nope"),
            Err(EngineError::UnknownRelation(_))
        ));
        assert!(matches!(
            engine.attrs(checking, &["nope"]),
            Err(EngineError::UnknownAttribute { .. })
        ));
        assert!(matches!(
            engine.commit(TxnToken(999)),
            Err(EngineError::UnknownTransaction(999))
        ));
        assert!(matches!(
            engine.begin_statement(TxnToken(999)),
            Err(EngineError::UnknownTransaction(999))
        ));
        let attrs = AttrSet::empty();
        assert!(matches!(
            engine.read_key(TxnToken(999), checking, &Key::int(0), attrs),
            Err(EngineError::UnknownTransaction(999))
        ));
    }

    #[test]
    fn isolation_level_names_are_stable() {
        assert_eq!(IsolationLevel::ReadCommitted.name(), "read-committed");
        assert_eq!(
            IsolationLevel::SnapshotIsolation.name(),
            "snapshot-isolation"
        );
        assert_eq!(IsolationLevel::Serializable.name(), "serializable");
        assert_eq!(IsolationLevel::ALL.len(), 3);
    }
}
