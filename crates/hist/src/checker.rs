//! The serializability verdict of a certificate over one executed history.
//!
//! [`check`] maps the engine's one decision onto the [`CheckerVerdict`] written into
//! certificates: [`History::dependencies`] derives the conflict facts from the raw
//! read/write records (never from the static summary graph), and
//! [`History::serialization_order`] decides conflict serializability over them, giving a
//! serialization order or a cycle. The read-committed level flag comes from the same facts:
//! under MVRC every dependency that runs against the commit order must be a (predicate)
//! rw-antidependency (the dynamic Lemma 4.1), so a counterflow `ww`/`wr` fact means the history
//! was not produced by a correct MVRC execution at all. The MVRC this assumes is stated in the
//! module doc of `crates/engine/src/history.rs`. The one oracle of this path, a pairwise
//! derivation plus a linearization search, lives in `crates/hist/tests/cross_check.rs`.

use mvrc_engine::{Anomaly, History};
use serde::Serialize;

/// One edge of a certified anomaly cycle, rendered with program names for certificates.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct CycleStep {
    /// Program name of the source transaction.
    pub from: String,
    /// Index of the source transaction in commit order.
    pub from_index: usize,
    /// Conflict kind label (`ww`, `wr`, `rw`, `pred-wr`, `pred-rw`).
    pub kind: String,
    /// Program name of the target transaction.
    pub to: String,
    /// Index of the target transaction in commit order.
    pub to_index: usize,
}

/// The checker's verdict over one history. Field order is the serialization order of the JSON
/// certificates, so keep it stable.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct CheckerVerdict {
    /// Number of committed transactions examined.
    pub transactions: usize,
    /// Number of distinct conflict facts derived from the raw records.
    pub conflicts: usize,
    /// The polynomial read-committed level check: `true` when every conflict running against
    /// the commit order is a (predicate) rw-antidependency (dynamic Lemma 4.1). A violation
    /// means the history cannot stem from a correct MVRC execution.
    pub read_committed_ok: bool,
    /// `true` when the conflict graph is acyclic: the history is conflict serializable.
    pub serializable: bool,
    /// A complete serialization order (indices into the committed list) when serializable,
    /// empty otherwise.
    pub serialization_order: Vec<usize>,
    /// A concrete conflict cycle when non-serializable, empty otherwise.
    pub cycle: Vec<CycleStep>,
}

impl CheckerVerdict {
    /// Renders the cycle like [`mvrc_engine::Anomaly::describe`], without the counterflow
    /// markers: `T1 -rw-> T2 -ww-> T1`.
    pub fn describe_cycle(&self) -> String {
        let mut out = String::new();
        for (i, step) in self.cycle.iter().enumerate() {
            if i == 0 {
                out.push_str(&step.from);
            }
            out.push_str(&format!(" -{}-> {}", step.kind, step.to));
        }
        out
    }
}

/// Decides one history: its dependencies, the read-committed level and serializability.
pub fn check(history: &History) -> CheckerVerdict {
    judge(history).0
}

/// [`check`], also returning the engine's [`Anomaly`] when the history is not serializable,
/// so certificates can render it with its counterflow markers.
pub(crate) fn judge(history: &History) -> (CheckerVerdict, Option<Anomaly>) {
    let edges = history.dependencies();
    let mut verdict = CheckerVerdict {
        transactions: history.len(),
        conflicts: edges.len(),
        read_committed_ok: edges
            .iter()
            .all(|e| !e.counterflow || e.kind.is_antidependency()),
        serializable: true,
        serialization_order: Vec::new(),
        cycle: Vec::new(),
    };
    match history.serialization_order(&edges) {
        Ok(order) => {
            verdict.serialization_order = order;
            (verdict, None)
        }
        Err(anomaly) => {
            let program = |t: usize| history.committed[t].program.clone();
            verdict.serializable = false;
            verdict.cycle = anomaly
                .cycle
                .iter()
                .map(|e| CycleStep {
                    from: program(e.from),
                    from_index: e.from,
                    kind: e.kind.to_string(),
                    to: program(e.to),
                    to_index: e.to,
                })
                .collect();
            (verdict, Some(anomaly))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvrc_engine::{
        CommittedTransaction, DynDepKind, Engine, IsolationLevel, Key, RecordedPredicateRead,
        RecordedRead, RecordedWrite, WriteKind,
    };
    use mvrc_schema::{AttrSet, SchemaBuilder};

    fn rel_id() -> mvrc_schema::RelId {
        let mut b = SchemaBuilder::new("s");
        b.relation("R", &["k", "a", "b"], &["k"]).unwrap();
        b.build().relation_by_name("R").unwrap().id()
    }

    fn txn(token: u64, program: &str, commit_ts: u64) -> CommittedTransaction {
        CommittedTransaction {
            token,
            program: program.to_string(),
            commit_ts,
            reads: Vec::new(),
            pred_reads: Vec::new(),
            writes: Vec::new(),
        }
    }

    #[test]
    fn empty_and_singleton_histories_are_serializable() {
        let h = History::new();
        let v = check(&h);
        assert!(v.serializable && v.read_committed_ok && v.conflicts == 0);

        let mut h = History::new();
        h.record(txn(1, "Solo", 1));
        let v = check(&h);
        assert!(v.serializable);
        assert_eq!(v.serialization_order, vec![0]);
    }

    #[test]
    fn write_skew_is_rejected_with_a_concrete_cycle() {
        let r = rel_id();
        let a = AttrSet::singleton(mvrc_schema::AttrId(1));
        let mut h = History::new();
        let mut t1 = txn(1, "T1", 1);
        t1.reads.push(RecordedRead {
            rel: r,
            key: Key::int(2),
            observed_ts: 0,
            attrs: a,
        });
        t1.writes.push(RecordedWrite {
            rel: r,
            key: Key::int(1),
            attrs: a,
            kind: WriteKind::Update,
        });
        let mut t2 = txn(2, "T2", 2);
        t2.reads.push(RecordedRead {
            rel: r,
            key: Key::int(1),
            observed_ts: 0,
            attrs: a,
        });
        t2.writes.push(RecordedWrite {
            rel: r,
            key: Key::int(2),
            attrs: a,
            kind: WriteKind::Update,
        });
        h.record(t1);
        h.record(t2);
        let v = check(&h);
        assert!(!v.serializable);
        assert!(v.read_committed_ok, "write skew uses only rw counterflow");
        assert_eq!(v.cycle.len(), 2);
        assert!(v.describe_cycle().contains("-rw->"));
        let cycle: Vec<_> = v.cycle.iter().map(|s| (s.from_index, s.to_index)).collect();
        assert_eq!(cycle, vec![(1, 0), (0, 1)]);
    }

    #[test]
    fn wr_chains_are_serializable_and_ordered() {
        let r = rel_id();
        let a = AttrSet::singleton(mvrc_schema::AttrId(1));
        let mut h = History::new();
        let mut w = txn(1, "W", 1);
        w.writes.push(RecordedWrite {
            rel: r,
            key: Key::int(1),
            attrs: a,
            kind: WriteKind::Update,
        });
        let mut rdr = txn(2, "R", 2);
        rdr.reads.push(RecordedRead {
            rel: r,
            key: Key::int(1),
            observed_ts: 1,
            attrs: a,
        });
        h.record(w);
        h.record(rdr);
        let v = check(&h);
        assert!(v.serializable);
        assert_eq!(v.serialization_order, vec![0, 1]);
        assert_eq!(v.conflicts, 1);
        assert!(v.cycle.is_empty());
    }

    #[test]
    fn phantom_inserts_conflict_with_predicate_reads() {
        let r = rel_id();
        let mut h = History::new();
        let mut scanner = txn(1, "Scan", 1);
        scanner.pred_reads.push(RecordedPredicateRead {
            rel: r,
            read_ts: 0,
            pread_attrs: AttrSet::singleton(mvrc_schema::AttrId(1)),
        });
        let mut ins = txn(2, "Ins", 2);
        ins.writes.push(RecordedWrite {
            rel: r,
            key: Key::int(9),
            attrs: AttrSet::singleton(mvrc_schema::AttrId(2)), // disjoint from pread
            kind: WriteKind::Insert,
        });
        h.record(scanner);
        h.record(ins);
        let facts = h.dependencies();
        assert_eq!(facts.len(), 1);
        assert_eq!(facts[0].kind, DynDepKind::PredicateRw);
        assert_eq!((facts[0].from, facts[0].to), (0, 1));
        assert!(!facts[0].counterflow);
    }

    #[test]
    fn predicate_wr_dependency_from_committed_insert() {
        // The inserter commits before the scanner starts, so the scan observes the new row: a
        // predicate wr-dependency from the inserter, with no attribute shared between the two.
        let mut b = SchemaBuilder::new("s");
        b.relation("R", &["k", "a", "b"], &["k"]).unwrap();
        let schema = b.build();
        let relation = schema.relation_by_name("R").unwrap();
        let r = relation.id();
        let pread = AttrSet::singleton(relation.attr_by_name("a").unwrap());
        let read = AttrSet::singleton(relation.attr_by_name("b").unwrap());
        let mut engine = Engine::new(schema.clone());
        let inserter = engine.begin("Insert", IsolationLevel::ReadCommitted);
        engine.insert(inserter, r, Key(9)).unwrap();
        engine.commit(inserter).unwrap();
        let scanner = engine.begin("Scan", IsolationLevel::ReadCommitted);
        let keys = engine.scan(scanner, r, pread, read, None).unwrap();
        assert_eq!(
            keys,
            [Key(9)],
            "the committed insert is visible to the scan"
        );
        engine.commit(scanner).unwrap();

        let h = engine.into_history();
        // The scan's chunk shape: one predicate read plus one key read per matching row.
        assert_eq!(h.committed[1].pred_reads.len(), 1);
        assert_eq!(h.committed[1].reads.len(), 1);
        assert!(h
            .dependencies()
            .iter()
            .any(|d| d.kind == DynDepKind::PredicateWr && (d.from, d.to) == (0, 1)));
        let v = check(&h);
        assert!(v.serializable && v.read_committed_ok);
        assert_eq!(v.serialization_order, vec![0, 1]);
    }

    #[test]
    fn counterflow_wr_fails_the_read_committed_level() {
        // A reader that observed a version committed *after* its own commit timestamp cannot
        // come from MVRC: the wr fact runs against commit order.
        let r = rel_id();
        let a = AttrSet::singleton(mvrc_schema::AttrId(1));
        let mut h = History::new();
        let mut rdr = txn(1, "R", 1);
        rdr.reads.push(RecordedRead {
            rel: r,
            key: Key::int(1),
            observed_ts: 2,
            attrs: a,
        });
        let mut w = txn(2, "W", 2);
        w.writes.push(RecordedWrite {
            rel: r,
            key: Key::int(1),
            attrs: a,
            kind: WriteKind::Update,
        });
        h.record(rdr);
        h.record(w);
        let v = check(&h);
        assert!(!v.read_committed_ok);
    }
}
