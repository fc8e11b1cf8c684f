//! Versioned in-memory storage: tables of primary-key-indexed version chains.
//!
//! The storage layer is deliberately dumb: it stores committed versions ordered by commit
//! timestamp and a single uncommitted write lock per row. All isolation-level logic (which
//! version a read observes, when a write conflicts) lives in [`crate::engine`]; this split keeps
//! the multi-version bookkeeping testable in isolation.

use crate::value::{Key, Row};
use mvrc_schema::{AttrSet, RelId, Schema};
use std::collections::BTreeMap;

/// A commit timestamp. Timestamp `0` is reserved for the initial database load; every
/// transaction commit increments the engine's counter by one, so the commit order and the
/// version order coincide (the "version order consistent with the commit order" requirement of
/// Section 3.5).
pub type CommitTs = u64;

/// An opaque identifier of the transaction that wrote a version (used by the history checker to
/// attribute dependencies; `0` denotes the initial load).
pub type WriterId = u64;

/// One committed version of a row.
#[derive(Debug, Clone)]
pub struct StoredVersion {
    /// Commit timestamp of the writing transaction (installation point in the version order).
    pub commit_ts: CommitTs,
    /// The transaction that created the version (`0` for the initial database load).
    pub writer: WriterId,
    /// The row data; `None` is a delete tombstone (the "dead version" of Section 3.1).
    pub data: Option<Row>,
    /// The attributes the writer actually modified (all attributes for inserts and deletes).
    pub written_attrs: AttrSet,
}

impl StoredVersion {
    /// Returns `true` when the version is a delete tombstone.
    #[inline]
    pub fn is_tombstone(&self) -> bool {
        self.data.is_none()
    }
}

/// The version chain of a single primary key: committed versions in commit-timestamp order plus
/// at most one uncommitted writer holding the row's write lock.
#[derive(Debug, Clone, Default)]
pub struct VersionChain {
    versions: Vec<StoredVersion>,
    lock: Option<WriterId>,
}

impl VersionChain {
    /// Creates an empty chain (a key that has never existed — the "unborn version").
    pub fn new() -> Self {
        VersionChain::default()
    }

    /// All committed versions, oldest first.
    pub fn versions(&self) -> &[StoredVersion] {
        &self.versions
    }

    /// The most recently committed version, if any.
    pub fn latest(&self) -> Option<&StoredVersion> {
        self.versions.last()
    }

    /// The latest version visible at read timestamp `ts`: the newest version whose commit
    /// timestamp is `<= ts`. Returns the version even when it is a tombstone so that callers can
    /// distinguish "deleted at ts" from "never existed".
    pub fn visible_at(&self, ts: CommitTs) -> Option<&StoredVersion> {
        self.versions.iter().rev().find(|v| v.commit_ts <= ts)
    }

    /// The row data visible at `ts` (`None` when the key does not exist at `ts`, either because
    /// it was never inserted or because the visible version is a tombstone).
    pub fn row_at(&self, ts: CommitTs) -> Option<&Row> {
        self.visible_at(ts).and_then(|v| v.data.as_ref())
    }

    /// The commit timestamp of the version that directly succeeds the version visible at `ts`,
    /// if a newer committed version exists (used by the first-committer-wins check).
    pub fn first_commit_after(&self, ts: CommitTs) -> Option<CommitTs> {
        self.versions
            .iter()
            .find(|v| v.commit_ts > ts)
            .map(|v| v.commit_ts)
    }

    /// The current lock holder, if an uncommitted transaction has written this row.
    #[inline]
    pub fn lock_holder(&self) -> Option<WriterId> {
        self.lock
    }

    /// Attempts to acquire the row's write lock for `writer`. Returns `false` when another
    /// uncommitted transaction holds the lock (a would-be dirty write).
    pub fn try_lock(&mut self, writer: WriterId) -> bool {
        match self.lock {
            None => {
                self.lock = Some(writer);
                true
            }
            Some(holder) => holder == writer,
        }
    }

    /// Releases the write lock if `writer` holds it (no-op otherwise).
    pub fn unlock(&mut self, writer: WriterId) {
        if self.lock == Some(writer) {
            self.lock = None;
        }
    }

    /// Installs a committed version. Panics if the commit timestamp does not advance the chain —
    /// the engine always installs in commit order, so a violation is an internal bug.
    pub fn install(&mut self, version: StoredVersion) {
        if let Some(last) = self.versions.last() {
            assert!(
                version.commit_ts > last.commit_ts,
                "version install out of commit order: {} after {}",
                version.commit_ts,
                last.commit_ts
            );
        }
        self.versions.push(version);
    }

    /// Whether the chain holds no committed version at all.
    pub fn is_unborn(&self) -> bool {
        self.versions.is_empty()
    }
}

/// A table: the version chains of one relation, indexed by primary key.
#[derive(Debug, Clone)]
pub struct Table {
    rel: RelId,
    rows: BTreeMap<Key, VersionChain>,
}

impl Table {
    /// Creates an empty table for the relation.
    pub fn new(rel: RelId) -> Self {
        Table {
            rel,
            rows: BTreeMap::new(),
        }
    }

    /// The relation this table stores.
    #[inline]
    pub fn rel(&self) -> RelId {
        self.rel
    }

    /// The chain for a key, if the key has ever been written or locked.
    pub fn chain(&self, key: &Key) -> Option<&VersionChain> {
        self.rows.get(key)
    }

    /// Mutable access to a key's chain, creating an unborn chain on first touch.
    pub fn chain_mut(&mut self, key: &Key) -> &mut VersionChain {
        self.rows.entry(key.clone()).or_default()
    }

    /// Iterates over `(key, chain)` pairs in key order.
    pub fn chains(&self) -> impl Iterator<Item = (&Key, &VersionChain)> {
        self.rows.iter()
    }

    /// Number of keys that currently have at least one committed, non-tombstone latest version.
    pub fn live_row_count(&self) -> usize {
        self.rows
            .values()
            .filter(|c| c.latest().map(|v| !v.is_tombstone()).unwrap_or(false))
            .count()
    }
}

/// The storage of a whole database: one [`Table`] per relation of the schema.
#[derive(Debug, Clone)]
pub struct Storage {
    tables: Vec<Table>,
}

impl Storage {
    /// Creates empty storage for every relation of the schema.
    pub fn new(schema: &Schema) -> Self {
        let tables = schema.relations().map(|r| Table::new(r.id())).collect();
        Storage { tables }
    }

    /// The table of a relation.
    #[inline]
    pub fn table(&self, rel: RelId) -> &Table {
        &self.tables[rel.index()]
    }

    /// Mutable access to the table of a relation.
    #[inline]
    pub fn table_mut(&mut self, rel: RelId) -> &mut Table {
        &mut self.tables[rel.index()]
    }

    /// All tables.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use mvrc_schema::SchemaBuilder;

    fn schema() -> Schema {
        let mut b = SchemaBuilder::new("bank");
        b.relation("Checking", &["customer_id", "balance"], &["customer_id"])
            .unwrap();
        b.relation("Savings", &["customer_id", "balance"], &["customer_id"])
            .unwrap();
        b.build()
    }

    fn version(ts: CommitTs, writer: WriterId, balance: i64) -> StoredVersion {
        StoredVersion {
            commit_ts: ts,
            writer,
            data: Some(vec![Value::Int(1), Value::Int(balance)]),
            written_attrs: AttrSet::all(2),
        }
    }

    #[test]
    fn visibility_follows_commit_timestamps() {
        let mut chain = VersionChain::new();
        assert!(chain.is_unborn());
        assert!(chain.visible_at(10).is_none());
        chain.install(version(1, 1, 100));
        chain.install(version(5, 2, 200));
        assert!(!chain.is_unborn());
        assert!(chain.visible_at(0).is_none());
        assert_eq!(chain.visible_at(1).unwrap().commit_ts, 1);
        assert_eq!(chain.visible_at(4).unwrap().commit_ts, 1);
        assert_eq!(chain.visible_at(5).unwrap().commit_ts, 5);
        assert_eq!(chain.visible_at(99).unwrap().commit_ts, 5);
        assert_eq!(chain.latest().unwrap().commit_ts, 5);
        assert_eq!(chain.row_at(2).unwrap()[1], Value::Int(100));
        assert_eq!(chain.first_commit_after(1), Some(5));
        assert_eq!(chain.first_commit_after(5), None);
    }

    #[test]
    fn tombstones_hide_rows_but_keep_versions_visible() {
        let mut chain = VersionChain::new();
        chain.install(version(1, 1, 100));
        chain.install(StoredVersion {
            commit_ts: 3,
            writer: 2,
            data: None,
            written_attrs: AttrSet::all(2),
        });
        assert!(chain.visible_at(3).unwrap().is_tombstone());
        assert!(chain.row_at(3).is_none());
        assert!(chain.row_at(2).is_some());
    }

    #[test]
    fn write_locks_are_exclusive_and_reentrant() {
        let mut chain = VersionChain::new();
        assert_eq!(chain.lock_holder(), None);
        assert!(chain.try_lock(7));
        assert!(
            chain.try_lock(7),
            "re-locking by the same transaction must succeed"
        );
        assert!(
            !chain.try_lock(8),
            "a second transaction must not acquire the lock"
        );
        chain.unlock(8); // not the holder: no-op
        assert_eq!(chain.lock_holder(), Some(7));
        chain.unlock(7);
        assert_eq!(chain.lock_holder(), None);
        assert!(chain.try_lock(8));
    }

    #[test]
    #[should_panic(expected = "out of commit order")]
    fn installing_out_of_order_is_an_internal_bug() {
        let mut chain = VersionChain::new();
        chain.install(version(5, 1, 100));
        chain.install(version(5, 2, 200));
    }

    #[test]
    fn storage_builds_one_table_per_relation() {
        let schema = schema();
        let mut storage = Storage::new(&schema);
        assert_eq!(storage.tables().count(), 2);
        let checking = schema.relation_by_name("Checking").unwrap().id();
        assert_eq!(storage.table(checking).rel(), checking);
        assert_eq!(storage.table(checking).live_row_count(), 0);

        let key = Key::int(1);
        storage
            .table_mut(checking)
            .chain_mut(&key)
            .install(version(1, 1, 50));
        assert_eq!(storage.table(checking).live_row_count(), 1);
        assert!(storage.table(checking).chain(&key).is_some());
        assert!(storage.table(checking).chain(&Key::int(2)).is_none());
        assert_eq!(storage.table(checking).chains().count(), 1);
    }
}
