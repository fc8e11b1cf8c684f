//! Execution histories and the one serializability decider over them.
//!
//! The engine records what every committed transaction read and wrote — including the commit
//! timestamps of the versions that were observed — and this module turns that record into a
//! *dynamic* serialization graph: the concrete counterpart of the serialization graph `SeG(s)`
//! of Section 3.4. [`History::dependencies`] derives its edges and
//! [`History::serialization_order`] decides it: a serialization order, or a cycle. Every caller
//! goes through these two functions: [`History::find_anomaly`], [`History::report`] (and so the
//! [`RunStats`](crate::RunStats) of [`run_workload`](crate::run_workload)) and the certificates
//! of `mvrc-hist`.
//!
//! The MVRC they assume is the one of Vandevoort et al. (VLDB 2021) that the paper reuses, and
//! the one [`IsolationLevel::ReadCommitted`](crate::IsolationLevel::ReadCommitted) executes:
//! every statement reads the last committed version (statement-level read-last-committed), the
//! version order of a row is the commit order of its writers, and there are no dirty writes (a
//! transaction never overwrites an uncommitted version). Under that model a committed history
//! is conflict serializable exactly when its dependency graph is acyclic, and only (predicate)
//! rw-antidependencies may run against the commit order (Lemma 4.1); every cycle is then a
//! type-II cycle (Theorem 4.2).

use crate::storage::{CommitTs, Key, WriterId};
use mvrc_schema::{AttrSet, RelId, Schema};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt;

/// The kind of a recorded write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WriteKind {
    /// The write created the first visible version of the key.
    Insert,
    /// The write modified an existing row.
    Update,
    /// The write created the dead version (tombstone).
    Delete,
}

impl WriteKind {
    /// Inserts and deletes conflict with predicate reads regardless of attribute overlap
    /// (they change the predicate's result set — the phantom problem).
    #[inline]
    pub fn always_conflicts_with_predicates(self) -> bool {
        matches!(self, WriteKind::Insert | WriteKind::Delete)
    }
}

/// A key-based read recorded during execution.
#[derive(Debug, Clone)]
pub struct RecordedRead {
    /// The relation read from.
    pub rel: RelId,
    /// The key of the tuple.
    pub key: Key,
    /// Commit timestamp of the version that was observed (`0` = initial load).
    pub observed_ts: CommitTs,
    /// Attributes observed.
    pub attrs: AttrSet,
}

/// A predicate read (full-relation predicate evaluation) recorded during execution.
#[derive(Debug, Clone)]
pub struct RecordedPredicateRead {
    /// The relation the predicate ranges over.
    pub rel: RelId,
    /// The read timestamp: every row version committed at or before this timestamp was visible
    /// to the predicate.
    pub read_ts: CommitTs,
    /// Attributes evaluated by the predicate (`PReadSet`).
    pub pread_attrs: AttrSet,
}

/// A write recorded during execution (buffered until commit; `commit_ts` is the transaction's
/// commit timestamp).
#[derive(Debug, Clone)]
pub struct RecordedWrite {
    /// The relation written to.
    pub rel: RelId,
    /// The key of the tuple.
    pub key: Key,
    /// Attributes modified.
    pub attrs: AttrSet,
    /// Insert / update / delete.
    pub kind: WriteKind,
}

/// Everything a single committed transaction did, as recorded by the engine.
#[derive(Debug, Clone)]
pub struct CommittedTransaction {
    /// The engine-wide transaction token.
    pub token: WriterId,
    /// The program the transaction instantiated (for reporting).
    pub program: String,
    /// Commit timestamp.
    pub commit_ts: CommitTs,
    /// Key-based reads.
    pub reads: Vec<RecordedRead>,
    /// Predicate reads.
    pub pred_reads: Vec<RecordedPredicateRead>,
    /// Writes.
    pub writes: Vec<RecordedWrite>,
}

/// The kind of dependency between two committed transactions (Section 3.4, lifted to concrete
/// executions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DynDepKind {
    /// Write–write dependency.
    Ww,
    /// Write–read dependency.
    Wr,
    /// Read–write antidependency.
    Rw,
    /// Predicate write–read dependency.
    PredicateWr,
    /// Predicate read–write antidependency.
    PredicateRw,
}

impl DynDepKind {
    /// Only (predicate) rw-antidependencies may be counterflow under MVRC (Lemma 4.1).
    #[inline]
    pub fn is_antidependency(self) -> bool {
        matches!(self, DynDepKind::Rw | DynDepKind::PredicateRw)
    }
}

impl fmt::Display for DynDepKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DynDepKind::Ww => "ww",
            DynDepKind::Wr => "wr",
            DynDepKind::Rw => "rw",
            DynDepKind::PredicateWr => "pred-wr",
            DynDepKind::PredicateRw => "pred-rw",
        };
        f.write_str(s)
    }
}

/// A dependency edge of the dynamic serialization graph, between indices into
/// [`History::committed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DynDependency {
    /// Index of the source transaction (the one depended upon).
    pub from: usize,
    /// Index of the target transaction (the dependent one).
    pub to: usize,
    /// The dependency kind.
    pub kind: DynDepKind,
    /// `true` when the target committed before the source (the edge runs against commit order).
    pub counterflow: bool,
}

/// A cycle found in the dynamic serialization graph: a serializability anomaly.
#[derive(Debug, Clone)]
pub struct Anomaly {
    /// The edges of the cycle, in order.
    pub cycle: Vec<DynDependency>,
}

impl Anomaly {
    /// Renders the cycle as `P1 -wr-> P2 -rw-> P1`.
    pub fn describe(&self, history: &History) -> String {
        let mut out = String::new();
        for (i, edge) in self.cycle.iter().enumerate() {
            if i == 0 {
                out.push_str(&history.committed[edge.from].program);
            }
            let marker = if edge.counterflow { "*" } else { "" };
            out.push_str(&format!(
                " -{}{marker}-> {}",
                edge.kind, history.committed[edge.to].program
            ));
        }
        out
    }

    /// Whether every counterflow edge of the cycle is a (predicate) rw-antidependency
    /// (the dynamic statement of Lemma 4.1).
    pub fn counterflow_edges_are_antidependencies(&self) -> bool {
        self.cycle
            .iter()
            .filter(|e| e.counterflow)
            .all(|e| e.kind.is_antidependency())
    }

    /// Whether the cycle contains at least one counterflow edge (type-I condition).
    pub fn is_type1(&self) -> bool {
        self.cycle.iter().any(|e| e.counterflow)
    }
}

/// The full record of an engine run: every committed transaction with its reads and writes.
#[derive(Debug, Default, Clone)]
pub struct History {
    /// Committed transactions in commit order.
    pub committed: Vec<CommittedTransaction>,
}

impl History {
    /// Creates an empty history.
    pub fn new() -> Self {
        History::default()
    }

    /// Appends a committed transaction. The engine calls this at commit time, in commit order.
    pub fn record(&mut self, txn: CommittedTransaction) {
        debug_assert!(
            self.committed
                .last()
                .map(|t| t.commit_ts < txn.commit_ts)
                .unwrap_or(true),
            "history must be recorded in commit order"
        );
        self.committed.push(txn);
    }

    /// Number of committed transactions.
    pub fn len(&self) -> usize {
        self.committed.len()
    }

    /// Whether no transaction has committed.
    pub fn is_empty(&self) -> bool {
        self.committed.is_empty()
    }

    /// Computes every dependency edge between committed transactions, sorted by
    /// `(from, to, kind)` without duplicates.
    ///
    /// Dependencies follow Section 3.4 at attribute granularity:
    /// * `ww` — both wrote a common attribute of the same row; direction follows commit order.
    /// * `wr` — the writer's version is the one observed by the reader, or an earlier one.
    /// * `rw` — the reader observed a version older than the one the writer installed.
    /// * `pred-wr` / `pred-rw` — as above, with the writer's commit timestamp compared against
    ///   the predicate's read timestamp; inserts and deletes conflict regardless of attribute
    ///   overlap.
    ///
    /// The derivation is cell-indexed: writes are grouped by `(relation, key)` and by relation,
    /// so a read meets only the writers of its own row and a predicate read only the writers of
    /// its relation.
    pub fn dependencies(&self) -> Vec<DynDependency> {
        type Writers<'a> = Vec<(usize, &'a RecordedWrite)>;
        let mut by_cell: BTreeMap<(RelId, Key), Writers<'_>> = BTreeMap::new();
        let mut by_rel: BTreeMap<RelId, Writers<'_>> = BTreeMap::new();
        for (t, txn) in self.committed.iter().enumerate() {
            for write in &txn.writes {
                by_cell
                    .entry((write.rel, write.key))
                    .or_default()
                    .push((t, write));
                by_rel.entry(write.rel).or_default().push((t, write));
            }
        }
        let commit_ts = |t: usize| self.committed[t].commit_ts;
        let mut edges = Vec::new();
        let mut push = |from: usize, to: usize, kind: DynDepKind| {
            edges.push(DynDependency {
                from,
                to,
                kind,
                counterflow: commit_ts(to) < commit_ts(from),
            });
        };

        // ww: within each cell, writers of a common attribute are ordered by commit timestamp.
        for writers in by_cell.values() {
            for (a, &(ti, wi)) in writers.iter().enumerate() {
                for &(tj, wj) in &writers[a + 1..] {
                    if ti != tj && wi.attrs.intersects(wj.attrs) {
                        let (from, to) = if commit_ts(ti) < commit_ts(tj) {
                            (ti, tj)
                        } else {
                            (tj, ti)
                        };
                        push(from, to, DynDepKind::Ww);
                    }
                }
            }
        }

        for (t, txn) in self.committed.iter().enumerate() {
            // wr / rw: the observed timestamp splits the writers of the read's cell into version
            // sources (committed at or before the observation) and overwriters (after it).
            for read in &txn.reads {
                for &(w, write) in by_cell.get(&(read.rel, read.key)).into_iter().flatten() {
                    if w == t || !write.attrs.intersects(read.attrs) {
                        continue;
                    }
                    if commit_ts(w) <= read.observed_ts {
                        push(w, t, DynDepKind::Wr);
                    } else {
                        push(t, w, DynDepKind::Rw);
                    }
                }
            }
            // pred-wr / pred-rw: a predicate read meets every writer of its relation.
            for pred in &txn.pred_reads {
                for &(w, write) in by_rel.get(&pred.rel).into_iter().flatten() {
                    if w == t
                        || !(write.kind.always_conflicts_with_predicates()
                            || write.attrs.intersects(pred.pread_attrs))
                    {
                        continue;
                    }
                    if commit_ts(w) <= pred.read_ts {
                        push(w, t, DynDepKind::PredicateWr);
                    } else {
                        push(t, w, DynDepKind::PredicateRw);
                    }
                }
            }
        }
        edges.sort_unstable_by_key(|e| (e.from, e.to, e.kind as u8));
        edges.dedup();
        edges
    }

    /// Decides conflict serializability over `edges` (normally [`History::dependencies`]).
    ///
    /// Kahn's algorithm peels transactions without unpeeled predecessors, smallest index first.
    /// It peels everything exactly when the graph is acyclic, and the peel order is then a
    /// serialization order: `Ok(order)`, indices into [`History::committed`]. Otherwise the
    /// residual holds every cycle and everything downstream of one, so a forward walk could end
    /// in a residual sink. The backward walk cannot: a residual transaction keeps a residual
    /// predecessor (peeled ones only lowered its indegree), so walking first residual
    /// predecessors from the smallest residual index revisits a node, and the revisited segment,
    /// reversed, is the cycle returned as `Err(anomaly)`. Between two transactions the cycle takes
    /// the edge of the smallest kind (`ww` < `wr` < `rw` < `pred-wr` < `pred-rw`).
    pub fn serialization_order(&self, edges: &[DynDependency]) -> Result<Vec<usize>, Anomaly> {
        let n = self.committed.len();
        let mut pairs: Vec<(usize, usize)> = edges.iter().map(|e| (e.from, e.to)).collect();
        pairs.sort_unstable();
        pairs.dedup();
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut indegree = vec![0usize; n];
        for &(from, to) in &pairs {
            succ[from].push(to);
            preds[to].push(from);
            indegree[to] += 1;
        }
        let mut ready: BinaryHeap<Reverse<usize>> =
            (0..n).filter(|&v| indegree[v] == 0).map(Reverse).collect();
        let mut peeled = vec![false; n];
        let mut order = Vec::with_capacity(n);
        while let Some(Reverse(v)) = ready.pop() {
            peeled[v] = true;
            order.push(v);
            for &w in &succ[v] {
                indegree[w] -= 1;
                if indegree[w] == 0 {
                    ready.push(Reverse(w));
                }
            }
        }
        let Some(start) = peeled.iter().position(|&p| !p) else {
            return Ok(order);
        };
        let mut walk = vec![start];
        let mut on_walk = vec![false; n];
        on_walk[start] = true;
        let nodes = loop {
            let v = walk[walk.len() - 1];
            let next = *preds[v]
                .iter()
                .find(|&&w| !peeled[w])
                .expect("residual nodes keep a residual predecessor");
            if on_walk[next] {
                let pos = walk.iter().position(|&x| x == next).expect("on the walk");
                let mut nodes = walk.split_off(pos);
                nodes.reverse();
                break nodes;
            }
            on_walk[next] = true;
            walk.push(next);
        };
        let cycle = (0..nodes.len())
            .map(|i| {
                let (from, to) = (nodes[i], nodes[(i + 1) % nodes.len()]);
                *edges
                    .iter()
                    .filter(|e| (e.from, e.to) == (from, to))
                    .min_by_key(|e| e.kind as u8)
                    .expect("cycle steps are edges")
            })
            .collect();
        Err(Anomaly { cycle })
    }

    /// The anomaly [`History::serialization_order`] finds over [`History::dependencies`], or
    /// `None` when the history is conflict serializable.
    pub fn find_anomaly(&self) -> Option<Anomaly> {
        self.serialization_order(&self.dependencies()).err()
    }

    /// A compact report over the whole history: edge counts, counterflow statistics and the
    /// first anomaly found (if any).
    pub fn report(&self, schema: &Schema) -> HistoryReport {
        let edges = self.dependencies();
        let counterflow = edges.iter().filter(|e| e.counterflow).count();
        let counterflow_non_antidependency = edges
            .iter()
            .filter(|e| e.counterflow && !e.kind.is_antidependency())
            .count();
        let anomaly = self.serialization_order(&edges).err();
        HistoryReport {
            relations: schema.relation_count(),
            committed: self.committed.len(),
            dependency_edges: edges.len(),
            counterflow_edges: counterflow,
            counterflow_non_antidependency_edges: counterflow_non_antidependency,
            anomaly,
        }
    }

    /// Groups committed transactions by program name (for reporting).
    ///
    /// Returns a [`BTreeMap`] so iteration is sorted by program name: reports, certificates
    /// and test snapshots built from this map render deterministically.
    pub fn commits_by_program(&self) -> BTreeMap<String, usize> {
        let mut map = BTreeMap::new();
        for t in &self.committed {
            *map.entry(t.program.clone()).or_insert(0) += 1;
        }
        map
    }
}

/// Summary of a history check.
#[derive(Debug, Clone)]
pub struct HistoryReport {
    /// Number of relations in the schema (context for the report).
    pub relations: usize,
    /// Number of committed transactions.
    pub committed: usize,
    /// Total dependency edges in the dynamic serialization graph.
    pub dependency_edges: usize,
    /// Edges that run against the commit order.
    pub counterflow_edges: usize,
    /// Counterflow edges that are *not* (predicate) rw-antidependencies. Under correct MVRC /
    /// SI / Serializable execution this must be zero (Lemma 4.1).
    pub counterflow_non_antidependency_edges: usize,
    /// The first serializability anomaly found, if any.
    pub anomaly: Option<Anomaly>,
}

impl HistoryReport {
    /// Whether the execution was conflict serializable.
    pub fn is_serializable(&self) -> bool {
        self.anomaly.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvrc_schema::SchemaBuilder;

    fn schema() -> Schema {
        let mut b = SchemaBuilder::new("s");
        b.relation("R", &["k", "a", "b"], &["k"]).unwrap();
        b.build()
    }

    fn rel(schema: &Schema) -> RelId {
        schema.relation_by_name("R").unwrap().id()
    }

    fn attr(schema: &Schema, name: &str) -> AttrSet {
        AttrSet::singleton(
            schema
                .relation_by_name("R")
                .unwrap()
                .attr_by_name(name)
                .unwrap(),
        )
    }

    fn txn(token: WriterId, program: &str, commit_ts: CommitTs) -> CommittedTransaction {
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
    fn wr_dependency_follows_the_observed_version() {
        let schema = schema();
        let r = rel(&schema);
        let a = attr(&schema, "a");
        let mut h = History::new();
        let mut t1 = txn(1, "Writer", 1);
        t1.writes.push(RecordedWrite {
            rel: r,
            key: Key::int(1),
            attrs: a,
            kind: WriteKind::Update,
        });
        let mut t2 = txn(2, "Reader", 2);
        t2.reads.push(RecordedRead {
            rel: r,
            key: Key::int(1),
            observed_ts: 1,
            attrs: a,
        });
        h.record(t1);
        h.record(t2);
        let deps = h.dependencies();
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].kind, DynDepKind::Wr);
        assert!(!deps[0].counterflow);
        assert!(h.find_anomaly().is_none());
    }

    #[test]
    fn rw_antidependency_is_counterflow_when_the_writer_commits_first() {
        let schema = schema();
        let r = rel(&schema);
        let a = attr(&schema, "a");
        let mut h = History::new();
        // Writer commits at 1; Reader committed at 2 but observed the initial version (ts 0):
        // Reader -> Writer is an rw-antidependency; Writer committed BEFORE Reader, so the edge
        // direction (Reader -> Writer) runs against commit order → counterflow.
        let mut writer = txn(1, "Writer", 1);
        writer.writes.push(RecordedWrite {
            rel: r,
            key: Key::int(1),
            attrs: a,
            kind: WriteKind::Update,
        });
        let mut reader = txn(2, "Reader", 2);
        reader.reads.push(RecordedRead {
            rel: r,
            key: Key::int(1),
            observed_ts: 0,
            attrs: a,
        });
        h.record(writer);
        h.record(reader);
        let deps = h.dependencies();
        // Reader (index 1) -> Writer (index 0), rw.
        let rw: Vec<_> = deps.iter().filter(|e| e.kind == DynDepKind::Rw).collect();
        assert_eq!(rw.len(), 1);
        assert_eq!((rw[0].from, rw[0].to), (1, 0));
        assert!(rw[0].counterflow);
    }

    #[test]
    fn disjoint_attributes_do_not_conflict() {
        let schema = schema();
        let r = rel(&schema);
        let mut h = History::new();
        let mut t1 = txn(1, "WA", 1);
        t1.writes.push(RecordedWrite {
            rel: r,
            key: Key::int(1),
            attrs: attr(&schema, "a"),
            kind: WriteKind::Update,
        });
        let mut t2 = txn(2, "WB", 2);
        t2.writes.push(RecordedWrite {
            rel: r,
            key: Key::int(1),
            attrs: attr(&schema, "b"),
            kind: WriteKind::Update,
        });
        h.record(t1);
        h.record(t2);
        assert!(h.dependencies().is_empty());
    }

    #[test]
    fn inserts_conflict_with_predicate_reads_regardless_of_attributes() {
        let schema = schema();
        let r = rel(&schema);
        let mut h = History::new();
        let mut scanner = txn(1, "Scan", 1);
        scanner.pred_reads.push(RecordedPredicateRead {
            rel: r,
            read_ts: 0,
            pread_attrs: attr(&schema, "a"),
        });
        let mut inserter = txn(2, "Insert", 2);
        inserter.writes.push(RecordedWrite {
            rel: r,
            key: Key::int(9),
            attrs: AttrSet::all(3),
            kind: WriteKind::Insert,
        });
        h.record(scanner);
        h.record(inserter);
        let deps = h.dependencies();
        assert!(deps
            .iter()
            .any(|e| e.kind == DynDepKind::PredicateRw && e.from == 0 && e.to == 1));
    }

    #[test]
    fn write_skew_is_reported_as_an_anomaly() {
        // Classic write skew: T1 reads x,y writes x; T2 reads x,y writes y; both read the
        // initial versions. Serializable forbids it; the dynamic graph must contain a cycle.
        let schema = schema();
        let r = rel(&schema);
        let a = attr(&schema, "a");
        let mut h = History::new();
        let mut t1 = txn(1, "T1", 1);
        t1.reads.push(RecordedRead {
            rel: r,
            key: Key::int(1),
            observed_ts: 0,
            attrs: a,
        });
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
        t2.reads.push(RecordedRead {
            rel: r,
            key: Key::int(2),
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
        let anomaly = h.find_anomaly().expect("write skew must produce a cycle");
        assert!(anomaly.is_type1());
        assert!(anomaly.counterflow_edges_are_antidependencies());
        let report = h.report(&schema);
        assert!(!report.is_serializable());
        assert_eq!(report.committed, 2);
        assert_eq!(report.counterflow_non_antidependency_edges, 0);
        let desc = anomaly.describe(&h);
        assert!(
            desc.contains("T1") && desc.contains("T2"),
            "description: {desc}"
        );
    }

    /// A history of `n` empty transactions, for running the decider on hand-made edges.
    fn blank_history(n: u64) -> History {
        let mut h = History::new();
        for t in 1..=n {
            h.record(txn(t, "T", t));
        }
        h
    }

    fn ww_edges(pairs: &[(usize, usize)]) -> Vec<DynDependency> {
        pairs
            .iter()
            .map(|&(from, to)| DynDependency {
                from,
                to,
                kind: DynDepKind::Ww,
                counterflow: to < from,
            })
            .collect()
    }

    fn assert_closed(anomaly: &Anomaly) {
        for (i, e) in anomaly.cycle.iter().enumerate() {
            assert_eq!(e.to, anomaly.cycle[(i + 1) % anomaly.cycle.len()].from);
        }
    }

    #[test]
    fn the_peel_orders_a_diamond_and_walks_back_from_a_sink_to_the_cycle() {
        // Acyclic: a diamond peels smallest index first.
        let diamond = ww_edges(&[(0, 1), (0, 2), (1, 3), (2, 3)]);
        assert_eq!(
            blank_history(4).serialization_order(&diamond).unwrap(),
            vec![0, 1, 2, 3]
        );

        // Cyclic: a triangle plus a tail.
        let cyclic = ww_edges(&[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let anomaly = blank_history(4).serialization_order(&cyclic).unwrap_err();
        assert_eq!(anomaly.cycle.len(), 3);
        assert_closed(&anomaly);

        // The smallest residual index is a *sink* hanging off the cycle: the extraction walk
        // starts there, so it must move against the edges (every residual node keeps a
        // residual predecessor, not necessarily a successor) to reach the cycle.
        let sink_first = ww_edges(&[(1, 2), (2, 1), (1, 0)]);
        let anomaly = blank_history(3)
            .serialization_order(&sink_first)
            .unwrap_err();
        assert_eq!(anomaly.cycle.len(), 2);
        assert_closed(&anomaly);
        assert!(anomaly.cycle.iter().all(|e| e.from != 0 && e.to != 0));
    }

    #[test]
    fn a_cycle_step_takes_the_smallest_kind_between_its_two_transactions() {
        let mut edges = ww_edges(&[(1, 0)]);
        edges.push(DynDependency {
            from: 0,
            to: 1,
            kind: DynDepKind::PredicateRw,
            counterflow: false,
        });
        edges.push(DynDependency {
            from: 0,
            to: 1,
            kind: DynDepKind::Wr,
            counterflow: false,
        });
        let anomaly = blank_history(2).serialization_order(&edges).unwrap_err();
        let kinds: Vec<_> = anomaly.cycle.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![DynDepKind::Ww, DynDepKind::Wr]);
    }

    #[test]
    fn serial_history_has_no_anomaly_and_no_counterflow() {
        let schema = schema();
        let r = rel(&schema);
        let a = attr(&schema, "a");
        let mut h = History::new();
        let mut t1 = txn(1, "T1", 1);
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
            observed_ts: 1,
            attrs: a,
        });
        t2.writes.push(RecordedWrite {
            rel: r,
            key: Key::int(1),
            attrs: a,
            kind: WriteKind::Update,
        });
        h.record(t1);
        h.record(t2);
        let report = h.report(&schema);
        assert!(report.is_serializable());
        assert_eq!(report.counterflow_edges, 0);
        assert_eq!(h.commits_by_program().get("T1"), Some(&1));
        assert_eq!(h.len(), 2);
        assert!(!h.is_empty());
    }
}
