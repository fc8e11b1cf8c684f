//! An independent serializability checker over executed histories.
//!
//! This is the *oracle* half of the certification loop: it re-derives the conflict relation of
//! an [`History`] from the raw read/write records — never from the static summary graph, and
//! never by calling [`History::dependencies`] — and decides conflict serializability with two
//! deliberately different algorithms that are cross-checked against each other on every call:
//!
//! * **Saturation** ([`saturate`]): Kahn-style indegree peeling. Peeling exhausts the graph
//!   exactly when it is acyclic; a non-empty residual core is a certificate of
//!   non-serializability, from which a concrete cycle is extracted by walking residual
//!   successors.
//! * **Constrained linearization** ([`linearize`]): a depth-first commit-order search that
//!   emits transactions whose conflict predecessors have all been emitted. Peeling is
//!   *confluent* (if one maximal emission order gets stuck, every one does — removing a source
//!   never blocks another source), so the search prunes all backtracking: a single descent
//!   either produces a complete serialization order (a positive witness) or proves none
//!   exists.
//!
//! On top of the serializability test, [`check`] runs the polynomial *read-committed level*
//! saturation check: under MVRC every dependency that runs against the commit order must be a
//! (predicate) rw-antidependency (the dynamic Lemma 4.1), so a counterflow `ww`/`wr` fact
//! means the history was not produced by a correct MVRC execution at all.

use mvrc_engine::History;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::collections::BTreeSet;

/// The kind of an independently derived conflict fact. Mirrors the dependency taxonomy of
/// Section 3.4 but is re-derived here from raw records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ConflictKind {
    /// Both transactions installed a version of a common attribute of the same row.
    Ww,
    /// The reader observed the writer's version (or a later one).
    Wr,
    /// The reader observed a version older than the one the writer installed.
    Rw,
    /// The writer's version was visible to the predicate read.
    PredWr,
    /// The writer installed a version after the predicate's read timestamp.
    PredRw,
}

impl ConflictKind {
    /// Only (predicate) rw-antidependencies may run against the commit order under MVRC.
    pub fn is_antidependency(self) -> bool {
        matches!(self, ConflictKind::Rw | ConflictKind::PredRw)
    }

    /// The label used in certificates (`ww`, `wr`, `rw`, `pred-wr`, `pred-rw`).
    pub fn label(self) -> &'static str {
        match self {
            ConflictKind::Ww => "ww",
            ConflictKind::Wr => "wr",
            ConflictKind::Rw => "rw",
            ConflictKind::PredWr => "pred-wr",
            ConflictKind::PredRw => "pred-rw",
        }
    }
}

/// An independently derived conflict fact: transaction `from` must serialize before `to`.
/// Indices are positions in [`History::committed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Conflict {
    /// Index of the transaction that must come first.
    pub from: usize,
    /// Index of the transaction that must come later.
    pub to: usize,
    /// The kind of fact forcing the order.
    pub kind: ConflictKind,
}

/// One edge of a certified anomaly cycle, rendered with program names for certificates.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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
    /// empty otherwise — the positive witness produced by the linearization search.
    pub serialization_order: Vec<usize>,
    /// A concrete conflict cycle when non-serializable, empty otherwise — the negative witness
    /// extracted from the saturation residual.
    pub cycle: Vec<CycleStep>,
}

impl CheckerVerdict {
    /// Renders the cycle like [`mvrc_engine::Anomaly::describe`]: `T1 -rw-> T2 -ww-> T1`.
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

/// Derives the conflict facts of a history directly from the raw per-transaction records.
///
/// The semantics are those of Section 3.4 at attribute granularity, with version order equal
/// to commit order (which is exactly how the multi-version engine installs versions):
/// `ww` orders conflicting writers by commit timestamp; `wr` orders a writer before every
/// reader that observed its version or a later one; `rw` orders a reader before every writer
/// that installed a version newer than the one observed; the predicate variants compare the
/// writer's commit timestamp against the predicate's read timestamp, with inserts and deletes
/// conflicting regardless of attribute overlap (phantoms).
///
/// Unlike [`History::dependencies`] this derivation is cell-indexed: writes are first grouped
/// by `(relation, key)` so reads and writes only meet writers of their own cell. The different
/// factorization is intentional — it is the cross-check against the engine's pairwise scan.
pub fn conflicts(history: &History) -> Vec<Conflict> {
    // Key equality is structural, so cells are indexed by the typed key itself via an ordered
    // map over (rel, Key); `writes` holds (txn index, write index) handles the cells point at.
    let mut by_cell: BTreeMap<(usize, mvrc_engine::Key), Vec<usize>> = BTreeMap::new();
    let mut writes: Vec<(usize, usize, mvrc_engine::Key)> = Vec::new();
    let mut by_rel: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (t, txn) in history.committed.iter().enumerate() {
        for (w, write) in txn.writes.iter().enumerate() {
            let rel = write.rel.index();
            by_cell
                .entry((rel, write.key.clone()))
                .or_default()
                .push(writes.len());
            by_rel.entry(rel).or_default().push(writes.len());
            writes.push((t, w, write.key.clone()));
        }
    }
    let write_at = |idx: usize| {
        let (t, w, _) = &writes[idx];
        (
            *t,
            &history.committed[*t].writes[*w],
            history.committed[*t].commit_ts,
        )
    };

    let mut facts: BTreeSet<Conflict> = BTreeSet::new();

    // ww: within each cell, conflicting writers are ordered by commit timestamp.
    for indices in by_cell.values() {
        for (a, &wi) in indices.iter().enumerate() {
            for &wj in &indices[a + 1..] {
                let (ti, wa, ca) = write_at(wi);
                let (tj, wb, cb) = write_at(wj);
                if ti == tj || !wa.attrs.intersects(wb.attrs) {
                    continue;
                }
                let (from, to) = if ca < cb { (ti, tj) } else { (tj, ti) };
                facts.insert(Conflict {
                    from,
                    to,
                    kind: ConflictKind::Ww,
                });
            }
        }
    }

    // wr / rw: each read meets exactly the writers of its own cell; the observed timestamp
    // splits them into version sources (wr, committed at or before the observation) and
    // overwriters (rw, committed after it).
    for (t, txn) in history.committed.iter().enumerate() {
        for read in &txn.reads {
            let cell = (read.rel.index(), read.key.clone());
            let Some(indices) = by_cell.get(&cell) else {
                continue;
            };
            for &wi in indices {
                let (ti, w, commit_ts) = write_at(wi);
                if ti == t || !w.attrs.intersects(read.attrs) {
                    continue;
                }
                if commit_ts <= read.observed_ts {
                    facts.insert(Conflict {
                        from: ti,
                        to: t,
                        kind: ConflictKind::Wr,
                    });
                } else {
                    facts.insert(Conflict {
                        from: t,
                        to: ti,
                        kind: ConflictKind::Rw,
                    });
                }
            }
        }
        // pred-wr / pred-rw: a predicate read meets every writer of its relation; inserts and
        // deletes conflict regardless of attribute overlap.
        for pred in &txn.pred_reads {
            let Some(indices) = by_rel.get(&pred.rel.index()) else {
                continue;
            };
            for &wi in indices {
                let (ti, w, commit_ts) = write_at(wi);
                if ti == t {
                    continue;
                }
                if !w.kind.always_conflicts_with_predicates()
                    && !w.attrs.intersects(pred.pread_attrs)
                {
                    continue;
                }
                if commit_ts <= pred.read_ts {
                    facts.insert(Conflict {
                        from: ti,
                        to: t,
                        kind: ConflictKind::PredWr,
                    });
                } else {
                    facts.insert(Conflict {
                        from: t,
                        to: ti,
                        kind: ConflictKind::PredRw,
                    });
                }
            }
        }
    }

    facts.into_iter().collect()
}

/// Kahn-style saturation: peels conflict sources until the graph is exhausted.
///
/// Returns `Ok(order)` with a complete topological order when the conflict graph is acyclic,
/// or `Err(cycle)` with a concrete cycle (as a closed walk of node indices, first node not
/// repeated) extracted from the non-empty residual core.
pub fn saturate(n: usize, facts: &[Conflict]) -> Result<Vec<usize>, Vec<usize>> {
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut indegree = vec![0usize; n];
    let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
    for f in facts {
        if seen.insert((f.from, f.to)) {
            succ[f.from].push(f.to);
            preds[f.to].push(f.from);
            indegree[f.to] += 1;
        }
    }
    let mut order = Vec::with_capacity(n);
    let mut ready: Vec<usize> = (0..n).filter(|&v| indegree[v] == 0).collect();
    ready.reverse(); // pop() takes the smallest index first — deterministic peel order
    let mut peeled = vec![false; n];
    while let Some(v) = ready.pop() {
        peeled[v] = true;
        order.push(v);
        for &w in &succ[v] {
            indegree[w] -= 1;
            if indegree[w] == 0 {
                // Keep the ready stack sorted descending so smaller indices peel first.
                let pos = ready.partition_point(|&x| x > w);
                ready.insert(pos, w);
            }
        }
    }
    if order.len() == n {
        return Ok(order);
    }
    // The residual is non-empty. It holds every cycle node *and* everything downstream of a
    // cycle, so walking successors could dead-end in a residual sink. The direction that never
    // dead-ends is backwards: a residual node's indegree stayed positive, and peeled
    // predecessors decremented it on their way out, so at least one residual predecessor
    // remains. Walking predecessors must therefore revisit a node; the revisited segment,
    // reversed, is a forward cycle.
    let start = (0..n).find(|&v| !peeled[v]).expect("residual is non-empty");
    let mut walk = vec![start];
    let mut on_walk = vec![false; n];
    on_walk[start] = true;
    loop {
        let v = *walk.last().expect("walk is non-empty");
        let next = *preds[v]
            .iter()
            .find(|&&w| !peeled[w])
            .expect("residual nodes keep a residual predecessor");
        if on_walk[next] {
            let pos = walk
                .iter()
                .position(|&x| x == next)
                .expect("next is on the walk");
            let mut cycle = walk[pos..].to_vec();
            cycle.reverse();
            return Err(cycle);
        }
        on_walk[next] = true;
        walk.push(next);
    }
}

/// Constrained-linearization search: emits a commit order in which every transaction follows
/// all of its conflict predecessors.
///
/// The emission step is confluent — emitting one ready transaction never makes another ready
/// transaction un-ready — so the depth-first search needs no backtracking: if the single
/// (smallest-candidate-first) descent gets stuck before emitting everything, no serialization
/// order exists at all. Returns the complete order, or `None` when the history is not
/// serializable.
pub fn linearize(n: usize, facts: &[Conflict]) -> Option<Vec<usize>> {
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for f in facts {
        if !preds[f.to].contains(&f.from) {
            preds[f.to].push(f.from);
        }
    }
    let mut emitted = vec![false; n];
    let mut order = Vec::with_capacity(n);
    while order.len() < n {
        let candidate = (0..n).find(|&v| !emitted[v] && preds[v].iter().all(|&p| emitted[p]));
        match candidate {
            Some(v) => {
                emitted[v] = true;
                order.push(v);
            }
            None => return None,
        }
    }
    Some(order)
}

/// Runs the full check: conflict derivation, the read-committed level test, and both
/// serializability algorithms (cross-checked against each other on every call).
///
/// # Panics
///
/// Panics when saturation and linearization disagree — that would be a checker bug, and the
/// panic is the point of running both.
pub fn check(history: &History) -> CheckerVerdict {
    let facts = conflicts(history);
    let n = history.committed.len();

    // Polynomial level: Lemma 4.1 lifted to executions — only (predicate) rw-antidependencies
    // may run against the commit order under MVRC.
    let read_committed_ok = facts.iter().all(|f| {
        let counterflow = history.committed[f.to].commit_ts < history.committed[f.from].commit_ts;
        !counterflow || f.kind.is_antidependency()
    });

    let saturation = saturate(n, &facts);
    let linearization = linearize(n, &facts);
    assert_eq!(
        saturation.is_ok(),
        linearization.is_some(),
        "internal cross-check failed: saturation and linearization disagree"
    );

    match saturation {
        Ok(order) => {
            let lin = linearization.expect("agreement asserted above");
            CheckerVerdict {
                transactions: n,
                conflicts: facts.len(),
                read_committed_ok,
                serializable: true,
                serialization_order: lin,
                cycle: Vec::new(),
            }
            .validated(history, &facts, Some(order))
        }
        Err(cycle_nodes) => {
            let mut cycle = Vec::with_capacity(cycle_nodes.len());
            for (i, &from) in cycle_nodes.iter().enumerate() {
                let to = cycle_nodes[(i + 1) % cycle_nodes.len()];
                let kind = facts
                    .iter()
                    .find(|f| f.from == from && f.to == to)
                    .expect("cycle edges are conflict facts")
                    .kind;
                cycle.push(CycleStep {
                    from: history.committed[from].program.clone(),
                    from_index: from,
                    kind: kind.label().to_string(),
                    to: history.committed[to].program.clone(),
                    to_index: to,
                });
            }
            CheckerVerdict {
                transactions: n,
                conflicts: facts.len(),
                read_committed_ok,
                serializable: false,
                serialization_order: Vec::new(),
                cycle,
            }
            .validated(history, &facts, None)
        }
    }
}

impl CheckerVerdict {
    /// Validates the verdict's own witnesses before returning it: a serialization order must
    /// respect every conflict fact; a cycle must consist of real facts. Cheap, and it turns
    /// every `check` call into a self-test.
    fn validated(self, history: &History, facts: &[Conflict], order: Option<Vec<usize>>) -> Self {
        if self.serializable {
            let lin_pos = position_index(&self.serialization_order);
            for f in facts {
                assert!(
                    lin_pos[f.from] < lin_pos[f.to],
                    "serialization order violates a conflict fact"
                );
            }
            if let Some(order) = order {
                let sat_pos = position_index(&order);
                for f in facts {
                    assert!(
                        sat_pos[f.from] < sat_pos[f.to],
                        "saturation order violates a conflict fact"
                    );
                }
            }
        } else {
            assert!(
                !self.cycle.is_empty(),
                "non-serializable verdict needs a cycle"
            );
            for step in &self.cycle {
                assert_eq!(history.committed[step.from_index].program, step.from);
                assert_eq!(history.committed[step.to_index].program, step.to);
            }
        }
        self
    }
}

fn position_index(order: &[usize]) -> Vec<usize> {
    let mut pos = vec![0usize; order.len()];
    for (i, &v) in order.iter().enumerate() {
        pos[v] = i;
    }
    pos
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvrc_engine::{
        CommittedTransaction, DynDepKind, Engine, IsolationLevel, RecordedPredicateRead,
        RecordedRead, RecordedWrite, Value, WriteKind,
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
            key: mvrc_engine::Key::int(2),
            observed_ts: 0,
            attrs: a,
        });
        t1.writes.push(RecordedWrite {
            rel: r,
            key: mvrc_engine::Key::int(1),
            attrs: a,
            kind: WriteKind::Update,
        });
        let mut t2 = txn(2, "T2", 2);
        t2.reads.push(RecordedRead {
            rel: r,
            key: mvrc_engine::Key::int(1),
            observed_ts: 0,
            attrs: a,
        });
        t2.writes.push(RecordedWrite {
            rel: r,
            key: mvrc_engine::Key::int(2),
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
        // The engine's own checker must agree.
        assert!(h.find_anomaly().is_some());
    }

    #[test]
    fn wr_chains_are_serializable_and_ordered() {
        let r = rel_id();
        let a = AttrSet::singleton(mvrc_schema::AttrId(1));
        let mut h = History::new();
        let mut w = txn(1, "W", 1);
        w.writes.push(RecordedWrite {
            rel: r,
            key: mvrc_engine::Key::int(1),
            attrs: a,
            kind: WriteKind::Update,
        });
        let mut rdr = txn(2, "R", 2);
        rdr.reads.push(RecordedRead {
            rel: r,
            key: mvrc_engine::Key::int(1),
            observed_ts: 1,
            attrs: a,
        });
        h.record(w);
        h.record(rdr);
        let v = check(&h);
        assert!(v.serializable);
        assert_eq!(v.serialization_order, vec![0, 1]);
        assert_eq!(v.conflicts, 1);
        assert!(h.find_anomaly().is_none());
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
            key: mvrc_engine::Key::int(9),
            attrs: AttrSet::singleton(mvrc_schema::AttrId(2)), // disjoint from pread
            kind: WriteKind::Insert,
        });
        h.record(scanner);
        h.record(ins);
        let facts = conflicts(&h);
        assert_eq!(facts.len(), 1);
        assert_eq!(facts[0].kind, ConflictKind::PredRw);
        assert_eq!((facts[0].from, facts[0].to), (0, 1));
    }

    #[test]
    fn predicate_wr_dependency_from_committed_insert() {
        // The inserter commits before the scanner starts, so the scan observes the new row: a
        // predicate wr-dependency from the inserter, derived by both the engine's pairwise
        // scan and the checker's cell index, with no attribute shared between the two.
        let mut b = SchemaBuilder::new("s");
        b.relation("R", &["k", "a", "b"], &["k"]).unwrap();
        let mut engine = Engine::new(b.build());
        let r = engine.rel("R").unwrap();
        let inserter = engine.begin("Insert", IsolationLevel::ReadCommitted);
        engine
            .insert(
                inserter,
                r,
                vec![Value::Int(9), Value::Int(0), Value::Int(0)],
            )
            .unwrap();
        engine.commit(inserter).unwrap();
        let scanner = engine.begin("Scan", IsolationLevel::ReadCommitted);
        let pread = engine.attrs(r, &["a"]).unwrap();
        let read = engine.attrs(r, &["b"]).unwrap();
        let rows = engine.scan(scanner, r, pread, read, |_| true).unwrap();
        assert_eq!(rows.len(), 1, "the committed insert is visible to the scan");
        engine.commit(scanner).unwrap();

        let h = engine.into_history();
        // The scan's chunk shape: one predicate read plus one key read per matching row.
        assert_eq!(h.committed[1].pred_reads.len(), 1);
        assert_eq!(h.committed[1].reads.len(), 1);
        assert!(h
            .dependencies()
            .iter()
            .any(|d| d.kind == DynDepKind::PredicateWr && (d.from, d.to) == (0, 1)));
        assert!(conflicts(&h)
            .iter()
            .any(|c| c.kind == ConflictKind::PredWr && (c.from, c.to) == (0, 1)));
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
            key: mvrc_engine::Key::int(1),
            observed_ts: 2,
            attrs: a,
        });
        let mut w = txn(2, "W", 2);
        w.writes.push(RecordedWrite {
            rel: r,
            key: mvrc_engine::Key::int(1),
            attrs: a,
            kind: WriteKind::Update,
        });
        h.record(rdr);
        h.record(w);
        let v = check(&h);
        assert!(!v.read_committed_ok);
    }

    #[test]
    fn saturation_and_linearization_agree_on_handmade_graphs() {
        // Acyclic: diamond.
        let facts = |pairs: &[(usize, usize)]| {
            pairs
                .iter()
                .map(|&(from, to)| Conflict {
                    from,
                    to,
                    kind: ConflictKind::Ww,
                })
                .collect::<Vec<_>>()
        };
        let diamond = facts(&[(0, 1), (0, 2), (1, 3), (2, 3)]);
        assert_eq!(saturate(4, &diamond).unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(linearize(4, &diamond).unwrap(), vec![0, 1, 2, 3]);

        // Cyclic: triangle plus a tail.
        let cyclic = facts(&[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let cycle = saturate(4, &cyclic).unwrap_err();
        assert_eq!(cycle.len(), 3);
        assert!(linearize(4, &cyclic).is_none());

        // Cyclic where the smallest residual index is a *sink* hanging off the cycle: the
        // extraction walk starts there, so it must move against the edges (every residual node
        // keeps a residual predecessor — not necessarily a successor) to reach the cycle.
        let sink_first = facts(&[(1, 2), (2, 1), (1, 0)]);
        let cycle = saturate(3, &sink_first).unwrap_err();
        assert_eq!(cycle.len(), 2);
        assert!(cycle.contains(&1) && cycle.contains(&2));
        assert!(linearize(3, &sink_first).is_none());
    }
}
