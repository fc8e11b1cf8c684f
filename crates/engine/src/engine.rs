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
use crate::storage::{CommitTs, Key, Storage, StoredVersion, WriterId};
use mvrc_schema::{AttrSet, RelId, Schema};
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

#[derive(Debug, Clone, Copy)]
struct PendingWrite {
    rel: RelId,
    key: Key,
    kind: WriteKind,
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
    /// Tuples on which this transaction holds the write lock.
    locked: Vec<(RelId, Key)>,
}

impl ActiveTxn {
    fn read_ts(&self) -> CommitTs {
        match self.isolation {
            IsolationLevel::ReadCommitted => self.stmt_ts,
            IsolationLevel::SnapshotIsolation | IsolationLevel::Serializable => self.begin_ts,
        }
    }

    /// The kind of this transaction's latest pending write to the tuple, if any.
    fn pending_kind(&self, rel: RelId, key: Key) -> Option<WriteKind> {
        self.writes
            .iter()
            .rev()
            .find(|w| w.rel == rel && w.key == key)
            .map(|w| w.kind)
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

    // ------------------------------------------------------------------ initial load

    /// Loads tuple `key` of `rel` outside any transaction (commit timestamp 0, writer 0).
    ///
    /// Used to populate the initial database state before a run.
    pub fn load(&mut self, rel: RelId, key: Key) -> EngineResult<()> {
        let relation = self.schema.relation(rel);
        let chain = self.storage.chain_mut(rel, key);
        if chain.latest().is_some_and(|v| v.live) {
            return Err(EngineError::DuplicateKey(format!(
                "{}{key}",
                relation.name()
            )));
        }
        chain.install(StoredVersion {
            commit_ts: 0,
            writer: 0,
            live: true,
            written_attrs: relation.all_attrs(),
        });
        Ok(())
    }

    /// Whether tuple `key` of `rel` exists in the latest committed state, outside any
    /// transaction.
    pub fn exists(&self, rel: RelId, key: Key) -> bool {
        self.storage
            .chain(rel, key)
            .is_some_and(|c| c.live_at(self.commit_counter))
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
        for &(rel, key) in &t.locked {
            self.storage.chain_mut(rel, key).unlock(t.token);
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
        let t = self
            .active
            .remove(&txn.0)
            .ok_or(EngineError::UnknownTransaction(txn.0))?;
        self.commit_counter += 1;
        let commit_ts = self.commit_counter;
        // A transaction may write the same tuple several times (e.g. a NewOrder picking the
        // same stock item twice); only one version per tuple may be installed, so pending
        // writes are collapsed to their net effect first.
        let writes = collapse_writes(&t.writes);
        let mut recorded_writes = Vec::with_capacity(writes.len());
        for w in writes {
            let chain = self.storage.chain_mut(w.rel, w.key);
            chain.install(StoredVersion {
                commit_ts,
                writer: t.token,
                live: w.kind != WriteKind::Delete,
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
        for &(rel, key) in &t.locked {
            self.storage.chain_mut(rel, key).unlock(t.token);
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
        // First-committer-wins: abort when a tuple this transaction writes has a version
        // committed after the transaction's snapshot.
        for w in &t.writes {
            let chain = self.storage.chain(w.rel, w.key);
            if chain
                .and_then(|c| c.latest())
                .is_some_and(|v| v.commit_ts > t.begin_ts)
            {
                return Err(AbortReason::WriteConflict);
            }
        }
        Ok(())
    }

    fn validate_reads(&self, t: &ActiveTxn) -> Result<(), AbortReason> {
        // Serializable certification: every observed version must still be the latest committed
        // one, and no predicate read may have missed a newer conflicting version.
        for r in &t.reads {
            if let Some(latest) = self.storage.chain(r.rel, r.key).and_then(|c| c.latest()) {
                if latest.commit_ts > r.observed_ts && latest.written_attrs.intersects(r.attrs) {
                    return Err(AbortReason::SerializationConflict);
                }
            }
        }
        for p in &t.pred_reads {
            for chain in self.storage.table(p.rel).values() {
                for v in chain.versions() {
                    if v.commit_ts <= p.read_ts || v.writer == t.token {
                        continue;
                    }
                    let phantom = !v.live
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

    /// Reads tuple `key` of `rel`, observing the attributes in `attrs`.
    ///
    /// Returns whether the tuple exists in the transaction's visible snapshot, its own pending
    /// writes included. The read is recorded for the dynamic serialization graph.
    pub fn read_key(
        &mut self,
        txn: TxnToken,
        rel: RelId,
        key: Key,
        attrs: AttrSet,
    ) -> EngineResult<bool> {
        let (exists, observed_ts) = self.look(txn, rel, key)?;
        // The dependency-relevant observation is the committed base version (own writes never
        // create dependencies); a tuple without any committed version records nothing.
        if self
            .storage
            .chain(rel, key)
            .is_some_and(|c| !c.versions().is_empty())
        {
            self.txn_mut(txn)?.reads.push(RecordedRead {
                rel,
                key,
                observed_ts,
                attrs,
            });
        }
        Ok(exists)
    }

    /// Evaluates a predicate over the visible tuples of a relation and returns the keys of the
    /// matches, in key order. The predicate matches every tuple, or with `only` just that one.
    ///
    /// `pread_attrs` are the attributes the predicate looks at (`PReadSet`); `read_attrs` are
    /// the attributes read from matching tuples (`ReadSet`). Matching tuples are also recorded
    /// as key-based reads, mirroring the `PR[R] R[t1] … R[tn]` chunk shape of Section 3.3.
    pub fn scan(
        &mut self,
        txn: TxnToken,
        rel: RelId,
        pread_attrs: AttrSet,
        read_attrs: AttrSet,
        only: Option<Key>,
    ) -> EngineResult<Vec<Key>> {
        let read_ts = self.txn(txn)?.read_ts();
        let (first, last) = only.map_or((Key(i64::MIN), Key(i64::MAX)), |k| (k, k));
        let observed: Vec<(Key, CommitTs)> = self
            .storage
            .table(rel)
            .range(first..=last)
            .filter_map(|(&key, chain)| {
                let v = chain.visible_at(read_ts).filter(|v| v.live)?;
                Some((key, v.commit_ts))
            })
            .collect();
        let t = self.txn_mut(txn)?;
        t.pred_reads.push(RecordedPredicateRead {
            rel,
            read_ts,
            pread_attrs,
        });
        t.reads
            .extend(observed.iter().map(|&(key, observed_ts)| RecordedRead {
                rel,
                key,
                observed_ts,
                attrs: read_attrs,
            }));
        Ok(observed.into_iter().map(|(key, _)| key).collect())
    }

    /// Updates tuple `key` of `rel`: reads it (recording `read_attrs`) and buffers a write of
    /// `write_attrs`.
    ///
    /// This mirrors the key-based update chunk `R[t] W[t]` of the paper. Aborts with
    /// [`AbortReason::MissingRow`] when the tuple is not visible and with
    /// [`AbortReason::WriteLocked`] when another uncommitted transaction has written it.
    pub fn update_key(
        &mut self,
        txn: TxnToken,
        rel: RelId,
        key: Key,
        read_attrs: AttrSet,
        write_attrs: AttrSet,
    ) -> EngineResult<()> {
        let (exists, observed_ts) = self.look(txn, rel, key)?;
        if !exists {
            return self.abort_missing(txn, rel, key);
        }
        if !read_attrs.is_empty() {
            self.txn_mut(txn)?.reads.push(RecordedRead {
                rel,
                key,
                observed_ts,
                attrs: read_attrs,
            });
        }
        self.buffer_write(txn, rel, key, WriteKind::Update, write_attrs)
    }

    /// Inserts tuple `key` of `rel`, writing every attribute.
    pub fn insert(&mut self, txn: TxnToken, rel: RelId, key: Key) -> EngineResult<()> {
        let t = self.txn(txn)?;
        // Uniqueness against the visible snapshot and own pending writes.
        let read_ts = t.read_ts();
        let visible = self
            .storage
            .chain(rel, key)
            .is_some_and(|c| c.live_at(read_ts));
        let own = t
            .pending_kind(rel, key)
            .is_some_and(|kind| kind != WriteKind::Delete);
        let relation = self.schema.relation(rel);
        if visible || own {
            return Err(EngineError::DuplicateKey(format!(
                "{}{key}",
                relation.name()
            )));
        }
        self.buffer_write(txn, rel, key, WriteKind::Insert, relation.all_attrs())
    }

    /// Deletes tuple `key` of `rel`.
    pub fn delete_key(&mut self, txn: TxnToken, rel: RelId, key: Key) -> EngineResult<()> {
        if !self.look(txn, rel, key)?.0 {
            return self.abort_missing(txn, rel, key);
        }
        let all = self.schema.relation(rel).all_attrs();
        self.buffer_write(txn, rel, key, WriteKind::Delete, all)
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

    /// What `txn` sees of tuple `key` of `rel`: whether the tuple exists for it (its own latest
    /// pending write decides, else the committed version visible at its read timestamp), and
    /// the commit timestamp of that committed version (the read timestamp when none is).
    fn look(&self, txn: TxnToken, rel: RelId, key: Key) -> EngineResult<(bool, CommitTs)> {
        let t = self.txn(txn)?;
        let read_ts = t.read_ts();
        let visible = self
            .storage
            .chain(rel, key)
            .and_then(|c| c.visible_at(read_ts));
        let exists = match t.pending_kind(rel, key) {
            Some(kind) => kind != WriteKind::Delete,
            None => visible.is_some_and(|v| v.live),
        };
        Ok((exists, visible.map_or(read_ts, |v| v.commit_ts)))
    }

    /// Rolls `txn` back and reports that a key-based statement found no tuple `key` of `rel`.
    fn abort_missing(&mut self, txn: TxnToken, rel: RelId, key: Key) -> EngineResult<()> {
        self.rollback(txn)?;
        let name = self.schema.relation(rel).name();
        Err(EngineError::Aborted(AbortReason::MissingRow(format!(
            "{name}{key}"
        ))))
    }

    /// Takes the write lock on tuple `key` of `rel` and buffers a write of `kind` over `attrs`.
    /// Rolls back and aborts with [`AbortReason::WriteLocked`] when another uncommitted
    /// transaction holds the lock (no dirty writes).
    fn buffer_write(
        &mut self,
        txn: TxnToken,
        rel: RelId,
        key: Key,
        kind: WriteKind,
        attrs: AttrSet,
    ) -> EngineResult<()> {
        if !self.storage.chain_mut(rel, key).try_lock(txn.0) {
            self.rollback(txn)?;
            return Err(EngineError::Aborted(AbortReason::WriteLocked));
        }
        let t = self.txn_mut(txn)?;
        t.locked.push((rel, key));
        t.writes.push(PendingWrite {
            rel,
            key,
            kind,
            attrs,
        });
        Ok(())
    }
}

/// Collapses a transaction's pending writes to at most one net write per tuple, merging the
/// modified attribute sets. Insert-then-delete of the same tuple cancels out entirely.
fn collapse_writes(writes: &[PendingWrite]) -> Vec<PendingWrite> {
    let mut collapsed: Vec<PendingWrite> = Vec::new();
    for &w in writes {
        match collapsed
            .iter_mut()
            .position(|e| e.rel == w.rel && e.key == w.key)
        {
            None => collapsed.push(w),
            Some(idx) => {
                let existing = &mut collapsed[idx];
                existing.attrs = existing.attrs.union(w.attrs);
                existing.kind = match (existing.kind, w.kind) {
                    // The tuple was created by this transaction and deleted again: net no-op.
                    (WriteKind::Insert, WriteKind::Delete) => {
                        collapsed.remove(idx);
                        continue;
                    }
                    // The tuple stays newly created; later updates only change its contents.
                    (WriteKind::Insert, _) => WriteKind::Insert,
                    // Delete followed by re-insert or update: the net effect is an update of
                    // the pre-existing tuple.
                    (WriteKind::Delete, WriteKind::Insert | WriteKind::Update) => WriteKind::Update,
                    // Update followed by anything keeps the later kind.
                    (_, later) => later,
                };
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
            engine.load(checking, Key(i)).unwrap();
            engine.load(savings, Key(i)).unwrap();
        }
        (engine, checking, savings)
    }

    fn balance_attr(engine: &Engine, rel: RelId) -> AttrSet {
        let relation = engine.schema().relation(rel);
        AttrSet::singleton(relation.attr_by_name("balance").unwrap())
    }

    /// Reads and writes the customer's balance: the key-based update chunk `R[t] W[t]`.
    fn deposit(engine: &mut Engine, txn: TxnToken, rel: RelId, customer: i64) -> EngineResult<()> {
        let attrs = balance_attr(engine, rel);
        engine.update_key(txn, rel, Key(customer), attrs, attrs)
    }

    /// The commit timestamps of the versions the `i`-th committed transaction read, in order.
    fn observed(engine: &Engine, i: usize) -> Vec<CommitTs> {
        let reads = &engine.history().committed[i].reads;
        reads.iter().map(|r| r.observed_ts).collect()
    }

    #[test]
    fn load_and_read_back() {
        let (mut engine, checking, _) = engine_with_accounts(3);
        assert!((0..3).all(|k| engine.exists(checking, Key(k))));
        assert!(!engine.exists(checking, Key(3)));
        let txn = engine.begin("Reader", IsolationLevel::ReadCommitted);
        let attrs = balance_attr(&engine, checking);
        assert!(engine.read_key(txn, checking, Key(1), attrs).unwrap());
        assert!(!engine.read_key(txn, checking, Key(99), attrs).unwrap());
        engine.commit(txn).unwrap();
        assert_eq!(engine.history().len(), 1);
        // Tuple 99 has no version to observe, so only the read of tuple 1 is recorded.
        let reads = &engine.history().committed[0].reads;
        assert_eq!(reads.len(), 1);
        assert_eq!((reads[0].key, reads[0].observed_ts), (Key(1), 0));
    }

    #[test]
    fn duplicate_load_is_rejected() {
        let (mut engine, checking, _) = engine_with_accounts(1);
        let err = engine.load(checking, Key(0)).unwrap_err();
        assert_eq!(err, EngineError::DuplicateKey("Checking(0)".into()));
        engine.load(checking, Key(1)).unwrap();
    }

    #[test]
    fn committed_updates_are_visible_to_later_transactions() {
        let (mut engine, checking, _) = engine_with_accounts(1);
        let t1 = engine.begin("Deposit", IsolationLevel::ReadCommitted);
        deposit(&mut engine, t1, checking, 0).unwrap();
        let ts1 = engine.commit(t1).unwrap();
        let write = &engine.history().committed[0].writes[0];
        assert_eq!((write.key, write.kind), (Key(0), WriteKind::Update));
        assert_eq!(write.attrs, balance_attr(&engine, checking));

        let t2 = engine.begin("Reader", IsolationLevel::ReadCommitted);
        let attrs = balance_attr(&engine, checking);
        assert!(engine.read_key(t2, checking, Key(0), attrs).unwrap());
        engine.commit(t2).unwrap();
        assert_eq!(observed(&engine, 1), [ts1], "t2 reads t1's version");
    }

    #[test]
    fn read_committed_reads_latest_committed_per_statement() {
        let (mut engine, checking, _) = engine_with_accounts(1);
        let reader = engine.begin("Reader", IsolationLevel::ReadCommitted);
        let attrs = balance_attr(&engine, checking);
        engine.begin_statement(reader).unwrap();
        engine.read_key(reader, checking, Key(0), attrs).unwrap();

        // A concurrent deposit commits while the reader is still running.
        let writer = engine.begin("Deposit", IsolationLevel::ReadCommitted);
        deposit(&mut engine, writer, checking, 0).unwrap();
        let ts = engine.commit(writer).unwrap();

        // The next statement of the reader observes the new committed version …
        engine.begin_statement(reader).unwrap();
        engine.read_key(reader, checking, Key(0), attrs).unwrap();
        engine.commit(reader).unwrap();
        assert_eq!(
            observed(&engine, 1),
            [0, ts],
            "read committed observes the latest commit"
        );
    }

    #[test]
    fn snapshot_isolation_reads_the_begin_snapshot() {
        let (mut engine, checking, _) = engine_with_accounts(1);
        let reader = engine.begin("Reader", IsolationLevel::SnapshotIsolation);
        let attrs = balance_attr(&engine, checking);
        let writer = engine.begin("Deposit", IsolationLevel::ReadCommitted);
        deposit(&mut engine, writer, checking, 0).unwrap();
        engine.commit(writer).unwrap();

        engine.begin_statement(reader).unwrap();
        assert!(engine.read_key(reader, checking, Key(0), attrs).unwrap());
        engine.commit(reader).unwrap();
        assert_eq!(
            observed(&engine, 1),
            [0],
            "snapshot isolation ignores later commits"
        );
    }

    #[test]
    fn dirty_writes_are_rejected_under_every_level() {
        for level in IsolationLevel::ALL {
            let (mut engine, checking, _) = engine_with_accounts(1);
            let t1 = engine.begin("W1", level);
            let t2 = engine.begin("W2", level);
            deposit(&mut engine, t1, checking, 0).unwrap();
            let err = deposit(&mut engine, t2, checking, 0).unwrap_err();
            assert_eq!(
                err,
                EngineError::Aborted(AbortReason::WriteLocked),
                "level {level:?}"
            );
            // t2 was rolled back automatically; t1 can still commit.
            assert_eq!(engine.active_count(), 1);
            engine.commit(t1).unwrap();
            let committed = &engine.history().committed;
            assert_eq!(committed.len(), 1);
            assert_eq!(committed[0].program, "W1");
            assert_eq!(committed[0].writes[0].key, Key(0));
        }
    }

    #[test]
    fn lost_update_is_possible_under_read_committed_but_not_under_si() {
        // Two concurrent deposits read the same balance; the second overwrites the first.
        let (mut engine, checking, _) = engine_with_accounts(1);
        let t1 = engine.begin("D1", IsolationLevel::ReadCommitted);
        let t2 = engine.begin("D2", IsolationLevel::ReadCommitted);
        deposit(&mut engine, t1, checking, 0).unwrap();
        let ts1 = engine.commit(t1).unwrap();
        // t2's statement starts after t1 committed: it bases its update on the latest committed
        // version, so no update is lost here …
        engine.begin_statement(t2).unwrap();
        deposit(&mut engine, t2, checking, 0).unwrap();
        engine.commit(t2).unwrap();
        assert_eq!(observed(&engine, 1), [ts1]);
        assert!(engine.history().find_anomaly().is_none());

        // … but when the statement already started (stale statement snapshot), the update is
        // based on the initial version and overwrites t1's, which it never saw: t1's deposit
        // is lost — allowed under read committed.
        let (mut engine, checking, _) = engine_with_accounts(1);
        let t2 = engine.begin("D2", IsolationLevel::ReadCommitted);
        engine.begin_statement(t2).unwrap();
        let t1 = engine.begin("D1", IsolationLevel::ReadCommitted);
        deposit(&mut engine, t1, checking, 0).unwrap();
        engine.commit(t1).unwrap();
        deposit(&mut engine, t2, checking, 0).unwrap();
        engine.commit(t2).unwrap();
        assert_eq!(observed(&engine, 1), [0], "t2 read past t1's version");
        assert!(
            engine.history().find_anomaly().is_some(),
            "t1's deposit was lost under read committed"
        );

        // Under snapshot isolation the same interleaving aborts with a write conflict.
        let (mut engine, checking, _) = engine_with_accounts(1);
        let t2 = engine.begin("D2", IsolationLevel::SnapshotIsolation);
        engine.begin_statement(t2).unwrap();
        let t1 = engine.begin("D1", IsolationLevel::SnapshotIsolation);
        deposit(&mut engine, t1, checking, 0).unwrap();
        engine.commit(t1).unwrap();
        deposit(&mut engine, t2, checking, 0).unwrap();
        let err = engine.commit(t2).unwrap_err();
        assert_eq!(err, EngineError::Aborted(AbortReason::WriteConflict));
    }

    #[test]
    fn write_skew_is_allowed_under_si_but_aborted_under_serializable() {
        // Classic write skew on two accounts: each transaction reads both balances and then
        // withdraws from "its" account.
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
                assert!(engine.read_key(t, checking, Key(0), attrs_c).unwrap());
                assert!(engine.read_key(t, savings, Key(0), attrs_s).unwrap());
            }
            // t1 withdraws from checking, t2 from savings.
            deposit(&mut engine, t1, checking, 0).unwrap();
            deposit(&mut engine, t2, savings, 0).unwrap();
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
        let keys = engine.scan(scanner, checking, attrs, attrs, None).unwrap();
        assert_eq!(keys, [Key(0), Key(1)]);

        // A concurrent transaction inserts a new account and commits.
        let inserter = engine.begin("Insert", IsolationLevel::ReadCommitted);
        engine.insert(inserter, checking, Key(7)).unwrap();
        engine.commit(inserter).unwrap();

        // The scanner also writes something so that the missed phantom matters, then commits.
        deposit(&mut engine, scanner, checking, 0).unwrap();
        let err = engine.commit(scanner).unwrap_err();
        assert_eq!(
            err,
            EngineError::Aborted(AbortReason::SerializationConflict)
        );
    }

    #[test]
    fn a_scan_restricted_to_one_key_reads_only_that_tuple() {
        let (mut engine, checking, _) = engine_with_accounts(3);
        let attrs = balance_attr(&engine, checking);
        let txn = engine.begin("Scan", IsolationLevel::ReadCommitted);
        let one = engine.scan(txn, checking, attrs, attrs, Some(Key(1)));
        assert_eq!(one.unwrap(), [Key(1)]);
        let none = engine.scan(txn, checking, attrs, attrs, Some(Key(9)));
        assert_eq!(none.unwrap(), []);
        engine.commit(txn).unwrap();
        let t = &engine.history().committed[0];
        assert_eq!(
            t.pred_reads.len(),
            2,
            "every scan records its predicate read"
        );
        let keys: Vec<Key> = t.reads.iter().map(|r| r.key).collect();
        assert_eq!(keys, [Key(1)], "only the match is read");
    }

    #[test]
    fn insert_delete_roundtrip_and_missing_row_aborts() {
        let (mut engine, checking, _) = engine_with_accounts(1);
        let t = engine.begin("Admin", IsolationLevel::ReadCommitted);
        engine.insert(t, checking, Key(5)).unwrap();
        // Own pending insert is visible to the same transaction.
        let attrs = balance_attr(&engine, checking);
        assert!(engine.read_key(t, checking, Key(5), attrs).unwrap());
        // Duplicate insert of the same key is an application error, not an abort.
        let err = engine.insert(t, checking, Key(5)).unwrap_err();
        assert_eq!(err, EngineError::DuplicateKey("Checking(5)".into()));
        engine.commit(t).unwrap();
        assert!(engine.exists(checking, Key(5)));

        let t = engine.begin("Admin", IsolationLevel::ReadCommitted);
        engine.delete_key(t, checking, Key(5)).unwrap();
        engine.commit(t).unwrap();
        assert!(!engine.exists(checking, Key(5)));
        let kinds: Vec<WriteKind> = engine
            .history()
            .committed
            .iter()
            .map(|t| t.writes[0].kind)
            .collect();
        assert_eq!(kinds, [WriteKind::Insert, WriteKind::Delete]);

        let t = engine.begin("Admin", IsolationLevel::ReadCommitted);
        let err = engine.delete_key(t, checking, Key(5)).unwrap_err();
        assert_eq!(
            err,
            EngineError::Aborted(AbortReason::MissingRow("Checking(5)".into()))
        );
        // The transaction was rolled back by the abort.
        assert_eq!(engine.active_count(), 0);
    }

    #[test]
    fn rollback_releases_locks() {
        let (mut engine, checking, _) = engine_with_accounts(1);
        let t1 = engine.begin("W1", IsolationLevel::ReadCommitted);
        deposit(&mut engine, t1, checking, 0).unwrap();
        engine.rollback(t1).unwrap();
        assert!(engine.history().is_empty());

        let t2 = engine.begin("W2", IsolationLevel::ReadCommitted);
        deposit(&mut engine, t2, checking, 0).unwrap();
        engine.commit(t2).unwrap();
        assert_eq!(
            observed(&engine, 0),
            [0],
            "t1's buffered write was never installed"
        );
    }

    #[test]
    fn unknown_handles_and_names_are_reported() {
        let (mut engine, checking, _) = engine_with_accounts(1);
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
            engine.read_key(TxnToken(999), checking, Key(0), attrs),
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
