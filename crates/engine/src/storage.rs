//! Versioned in-memory storage: per relation, the version chains of its tuples by key.
//!
//! The storage layer holds the data model of the paper's schedules (Section 3): a tuple is a
//! relation and a key, and each of its versions records who installed it, when, whether it is
//! live or the dead version of a delete, and which attributes it wrote. Attribute values never
//! appear in a schedule, so none are stored. The layer is deliberately dumb: it stores
//! committed versions ordered by commit timestamp and a single uncommitted write lock per
//! tuple. All isolation-level logic (which version a read observes, when a write conflicts)
//! lives in [`crate::engine`].

use mvrc_schema::{AttrSet, RelId, Schema};
use std::collections::BTreeMap;
use std::fmt;

/// A commit timestamp. Timestamp `0` is reserved for the initial database load; every
/// transaction commit increments the engine's counter by one, so the commit order and the
/// version order coincide (the "version order consistent with the commit order" requirement of
/// Section 3.5).
pub type CommitTs = u64;

/// An opaque identifier of the transaction that wrote a version (used by the history checker to
/// attribute dependencies; `0` denotes the initial load).
pub type WriterId = u64;

/// The key of a tuple: tuple `k` of its relation. Keys are ordered, so a scan visits the tuples
/// of a relation in key order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Key(pub i64);

impl Key {
    /// The key of tuple `v`.
    pub fn int(v: i64) -> Self {
        Key(v)
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({})", self.0)
    }
}

/// One committed version of a tuple.
#[derive(Debug, Clone)]
pub(crate) struct StoredVersion {
    /// Commit timestamp of the writing transaction (installation point in the version order).
    pub(crate) commit_ts: CommitTs,
    /// The transaction that created the version (`0` for the initial database load).
    pub(crate) writer: WriterId,
    /// `false` for the dead version a delete installs (Section 3.1).
    pub(crate) live: bool,
    /// The attributes the writer modified (all attributes for inserts and deletes).
    pub(crate) written_attrs: AttrSet,
}

/// The version chain of one tuple: committed versions in commit-timestamp order plus at most
/// one uncommitted writer holding the tuple's write lock.
#[derive(Debug, Clone, Default)]
pub(crate) struct VersionChain {
    versions: Vec<StoredVersion>,
    lock: Option<WriterId>,
}

impl VersionChain {
    /// All committed versions, oldest first (empty for a tuple that never existed, the
    /// "unborn version").
    pub(crate) fn versions(&self) -> &[StoredVersion] {
        &self.versions
    }

    /// The most recently committed version, if any.
    pub(crate) fn latest(&self) -> Option<&StoredVersion> {
        self.versions.last()
    }

    /// The latest version visible at read timestamp `ts`: the newest version whose commit
    /// timestamp is `<= ts`, a dead one included.
    pub(crate) fn visible_at(&self, ts: CommitTs) -> Option<&StoredVersion> {
        self.versions.iter().rev().find(|v| v.commit_ts <= ts)
    }

    /// Whether the tuple exists at `ts`: its visible version is live.
    pub(crate) fn live_at(&self, ts: CommitTs) -> bool {
        self.visible_at(ts).is_some_and(|v| v.live)
    }

    /// Attempts to acquire the tuple's write lock for `writer`. Returns `false` when another
    /// uncommitted transaction holds the lock (a would-be dirty write).
    pub(crate) fn try_lock(&mut self, writer: WriterId) -> bool {
        match self.lock {
            None => {
                self.lock = Some(writer);
                true
            }
            Some(holder) => holder == writer,
        }
    }

    /// Releases the write lock if `writer` holds it (no-op otherwise).
    pub(crate) fn unlock(&mut self, writer: WriterId) {
        if self.lock == Some(writer) {
            self.lock = None;
        }
    }

    /// Installs a committed version. Panics if the commit timestamp does not advance the chain —
    /// the engine always installs in commit order, so a violation is an internal bug.
    pub(crate) fn install(&mut self, version: StoredVersion) {
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
}

/// The storage of a whole database: per relation of the schema, its tuples' chains by key.
#[derive(Debug)]
pub(crate) struct Storage {
    tables: Vec<BTreeMap<Key, VersionChain>>,
}

impl Storage {
    /// Creates empty storage for every relation of the schema.
    pub(crate) fn new(schema: &Schema) -> Self {
        Storage {
            tables: vec![BTreeMap::new(); schema.relations().count()],
        }
    }

    /// The chains of a relation, in key order.
    pub(crate) fn table(&self, rel: RelId) -> &BTreeMap<Key, VersionChain> {
        &self.tables[rel.index()]
    }

    /// The chain of a tuple, if it has ever been written or locked.
    pub(crate) fn chain(&self, rel: RelId, key: Key) -> Option<&VersionChain> {
        self.table(rel).get(&key)
    }

    /// Mutable access to a tuple's chain, creating an unborn chain on first touch.
    pub(crate) fn chain_mut(&mut self, rel: RelId, key: Key) -> &mut VersionChain {
        self.tables[rel.index()].entry(key).or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvrc_schema::SchemaBuilder;

    fn schema() -> Schema {
        let mut b = SchemaBuilder::new("bank");
        b.relation("Checking", &["customer_id", "balance"], &["customer_id"])
            .unwrap();
        b.relation("Savings", &["customer_id", "balance"], &["customer_id"])
            .unwrap();
        b.build()
    }

    fn version(ts: CommitTs, writer: WriterId, live: bool) -> StoredVersion {
        StoredVersion {
            commit_ts: ts,
            writer,
            live,
            written_attrs: AttrSet::all(2),
        }
    }

    #[test]
    fn visibility_follows_commit_timestamps() {
        let mut chain = VersionChain::default();
        assert!(chain.versions().is_empty());
        assert!(chain.visible_at(10).is_none());
        chain.install(version(1, 1, true));
        chain.install(version(5, 2, true));
        assert_eq!(chain.versions().len(), 2);
        assert!(chain.visible_at(0).is_none());
        assert!(!chain.live_at(0));
        assert_eq!(chain.visible_at(1).unwrap().commit_ts, 1);
        assert_eq!(chain.visible_at(4).unwrap().commit_ts, 1);
        assert_eq!(chain.visible_at(4).unwrap().writer, 1);
        assert_eq!(chain.visible_at(5).unwrap().commit_ts, 5);
        assert_eq!(chain.visible_at(99).unwrap().commit_ts, 5);
        assert_eq!(chain.latest().unwrap().commit_ts, 5);
        assert!(chain.live_at(2));
    }

    #[test]
    fn tombstones_hide_rows_but_keep_versions_visible() {
        let mut chain = VersionChain::default();
        chain.install(version(1, 1, true));
        chain.install(version(3, 2, false));
        assert!(!chain.visible_at(3).unwrap().live);
        assert!(!chain.live_at(3));
        assert!(chain.live_at(2));
    }

    #[test]
    fn write_locks_are_exclusive_and_reentrant() {
        let mut chain = VersionChain::default();
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
        assert!(!chain.try_lock(8), "7 still holds the lock");
        chain.unlock(7);
        assert!(chain.try_lock(8));
    }

    #[test]
    #[should_panic(expected = "out of commit order")]
    fn installing_out_of_order_is_an_internal_bug() {
        let mut chain = VersionChain::default();
        chain.install(version(5, 1, true));
        chain.install(version(5, 2, true));
    }

    #[test]
    fn storage_builds_one_table_per_relation() {
        let schema = schema();
        let mut storage = Storage::new(&schema);
        let checking = schema.relation_by_name("Checking").unwrap().id();
        let savings = schema.relation_by_name("Savings").unwrap().id();
        assert!(storage.table(checking).is_empty());

        storage
            .chain_mut(checking, Key(1))
            .install(version(1, 1, true));
        assert_eq!(storage.table(checking).len(), 1);
        assert!(storage.table(savings).is_empty());
        assert!(storage.chain(checking, Key(1)).unwrap().live_at(1));
        assert!(storage.chain(checking, Key(2)).is_none());
        assert!(storage.chain(savings, Key(1)).is_none());
    }
}
