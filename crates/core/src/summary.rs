//! The summary graph `SuG(𝒫)` and its construction — Algorithm 1 of the paper.
//!
//! Nodes are LTPs; edges are quintuples `(P_i, q_i, c, q_j, P_j)` with
//! `c ∈ {counterflow, non-counterflow}` stating that instantiations of `P_i` and `P_j` may admit
//! a dependency of that flavour between operations instantiated from `q_i` and `q_j`
//! (Condition 6.2). The same statement pair can carry both a counterflow and a non-counterflow
//! edge.
//!
//! Beyond the one-shot [`SummaryGraph::construct`], the graph supports *incremental
//! maintenance* ([`SummaryGraph::add_ltps`] / [`SummaryGraph::remove_nodes`]): because
//! Algorithm 1 derives edges pairwise, a workload edit only requires re-deriving the edge rows
//! that touch changed nodes — the [`crate::RobustnessSession`] uses this to keep its cached
//! graphs fresh under `add_program` / `remove_program` without rebuilding from scratch.
//!
//! # How Algorithm 1 runs
//!
//! Every Table 1 entry and every `ncDepConds`/`cDepConds` check is about two statements on one
//! relation, so the construction is a join by relation, not a loop over all statement pairs:
//!
//! * **Relation index.** One pass over the nodes lists, per relation, the `(node, position)`
//!   occurrences of its statements, ascending (a CSR over relation ids).
//! * **Row `i`.** Each statement `a` of `P_i` walks the occurrences on `rel(a)`, from the
//!   first target node the row still needs: node `0` for a row being built, the first new node
//!   when an edit extends an old row (a binary search into the list). The pairs come out in
//!   `(a, j, b, kind)` order.
//! * **Row sort.** A stable counting sort by the target `j` gives the one edge order
//!   `(j, a, b, kind)` within the row (rows already ascending in `j` are left as they are),
//!   and rows are appended in source order.
//! * **Edge layout.** A [`SummaryEdge`] stores its nodes and statement positions as `u32`, 20
//!   bytes per edge; the out-adjacency is `n + 1` offsets into the edge list.
//!
//! On Auction(100) the join visits the 290,000 same-relation statement pairs instead of the
//! 810,000 statement pairs of its 90,000 node pairs. The previous all-pairs loop survives as a
//! test oracle that generated workloads, in every setting and in random edit splits, are
//! checked against.

use crate::kernels;
use crate::settings::{AnalysisSettings, CycleCondition, Granularity};
use crate::tables::{c_dep_table, nc_dep_table};
use mvrc_btp::{LinearProgram, Statement, StmtPos};
use mvrc_schema::{RelId, Schema};
use serde::Serialize;
use std::borrow::Borrow;
use std::cell::Cell;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Index of an LTP node within a [`SummaryGraph`].
pub type NodeId = usize;

/// Flavour of a summary-graph edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum EdgeKind {
    /// The dependency follows the commit order.
    NonCounterflow,
    /// The dependency opposes the commit order (only (predicate) rw-antidependencies,
    /// Lemma 4.1). Rendered dashed in the paper's figures.
    Counterflow,
}

impl EdgeKind {
    /// `true` for counterflow edges.
    #[inline]
    pub fn is_counterflow(self) -> bool {
        matches!(self, EdgeKind::Counterflow)
    }
}

impl fmt::Display for EdgeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdgeKind::NonCounterflow => f.write_str("non-counterflow"),
            EdgeKind::Counterflow => f.write_str("counterflow"),
        }
    }
}

/// An edge `(P_from, q_from, kind, q_to, P_to)` of the summary graph.
///
/// Node ids and statement positions are stored as `u32` (a graph beyond that is refused when
/// it is built), so an edge is 20 bytes: the edge list is the graph's largest array, and
/// snapshot format stores the same fields as `u32` too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct SummaryEdge {
    /// The source program node (a [`NodeId`]).
    pub from: u32,
    /// Position of the source statement `q_i` within the source LTP (a [`StmtPos`]).
    pub from_stmt: u32,
    /// Edge flavour.
    pub kind: EdgeKind,
    /// Position of the target statement `q_j` within the target LTP (a [`StmtPos`]).
    pub to_stmt: u32,
    /// The target program node (a [`NodeId`]).
    pub to: u32,
}

const _: () = assert!(std::mem::size_of::<SummaryEdge>() == 20);

/// Error returned when a program-name lookup does not match any node of the graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownProgram {
    /// The program name that matched no LTP node.
    pub name: String,
    /// The program names the graph does know, for the error message.
    pub known: Vec<String>,
}

impl fmt::Display for UnknownProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown program `{}` (known programs: {})",
            self.name,
            self.known.join(", ")
        )
    }
}

impl std::error::Error for UnknownProgram {}

/// A compact bit-matrix recording reachability: one row per tracked source node, one bit per
/// node of the underlying id space (the *universe*). The full graph tracks every node; an
/// [`InducedView`] tracks only its members, so a view over `m` of `n` nodes costs `m · ⌈n/64⌉`
/// words instead of `n · ⌈n/64⌉`. The rows are computed by the `kernels` module's closure over
/// node-adjacency bit rows (a BFS per source survives only as a test oracle); a graph reopened
/// from a snapshot gets them decoded from the file instead.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Reachability {
    words_per_row: usize,
    bits: Vec<u64>,
}

impl Reachability {
    #[inline]
    fn get(&self, row: usize, to: usize) -> bool {
        self.bits[row * self.words_per_row + to / 64] & (1u64 << (to % 64)) != 0
    }

    fn row(&self, row: usize) -> &[u64] {
        &self.bits[row * self.words_per_row..(row + 1) * self.words_per_row]
    }
}

/// The in-adjacency in compressed-sparse-row layout: `targets[offsets[v]..offsets[v + 1]]` are
/// the indices (ascending) of the edges entering `v`. The out-adjacency needs no such array:
/// the edge list itself is grouped by source (see [`SummaryGraph`]).
#[derive(Debug, Clone)]
struct Csr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Csr {
    fn build(n: usize, edges: &[SummaryEdge]) -> Csr {
        let mut offsets = vec![0u32; n + 1];
        for e in edges {
            offsets[e.to as usize + 1] += 1;
        }
        prefix_sum(&mut offsets);
        let mut cursor = offsets.clone();
        let mut targets = vec![0u32; edges.len()];
        for (idx, e) in edges.iter().enumerate() {
            targets[cursor[e.to as usize] as usize] = idx as u32;
            cursor[e.to as usize] += 1;
        }
        Csr { offsets, targets }
    }

    #[inline]
    fn slice(&self, v: usize) -> &[u32] {
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }
}

/// Turns per-node counts at `offsets[v + 1]` into CSR offsets, in place.
fn prefix_sum(offsets: &mut [u32]) {
    for v in 1..offsets.len() {
        offsets[v] += offsets[v - 1];
    }
}

/// The one edge order of a [`SummaryGraph`]: edges sort strictly ascending by this key, the
/// order in which Algorithm 1 visits node pairs, statement pairs and the two edge kinds.
fn edge_order(e: &SummaryEdge) -> (u32, u32, u32, u32, EdgeKind) {
    (e.from, e.to, e.from_stmt, e.to_stmt, e.kind)
}

/// The summary graph over a set of LTPs.
///
/// The edge list has one order: strictly ascending `(from, to, from_stmt, to_stmt, kind)`,
/// the order in which Algorithm 1 visits node pairs. [`construct`](Self::construct) produces
/// it, and both edits keep it, so an edited graph is the graph a fresh build over the same
/// LTPs makes, edge for edge. The list is therefore grouped by source, and the out-adjacency
/// is `n + 1` offsets into it, kept up to date with the list.
///
/// The in-adjacency (a CSR of edge indices grouped by target) and the reachability closure
/// are *lazily derived* from `(nodes, edges)`: each is built on first use — a robust verdict
/// never pays for the in-adjacency. A graph reopened from an `mvrc-dist` snapshot has its
/// closure installed from the file ([`SummaryGraph::from_snapshot_parts`]) and computes none.
///
/// `PartialEq` compares the closure as well (forcing its derivation) — the bit-identity
/// contract of the `mvrc-dist` snapshot round-trip tests. The in-adjacency is a function of
/// the edge list, so equal edges give equal in-adjacencies.
#[derive(Debug, Clone)]
pub struct SummaryGraph {
    /// The (widened) LTP nodes. Each node is `Arc`-shared so the attribute-granularity graphs
    /// of one session hold the session's LTPs by reference; cloning a graph bumps reference
    /// counts only.
    nodes: Vec<Arc<LinearProgram>>,
    /// The edges in the one edge order ([`edge_order`]).
    edges: Vec<SummaryEdge>,
    /// `edges[out_offsets[v]..out_offsets[v + 1]]` are the edges leaving node `v`.
    out_offsets: Vec<u32>,
    /// How many of `edges` are counterflow, counted wherever the edge list is built or edited.
    counterflow_edges: usize,
    settings: AnalysisSettings,
    in_adj: OnceLock<Csr>,
    reach: OnceLock<Reachability>,
    /// Bit-sliced sweep plans ([`kernels::LanePlan`]), one slot per cycle condition, compiled
    /// on first use and shared by every sweep over this (cached) graph. Runtime-only: never
    /// serialized, reset by incremental edits like the other derived state.
    lane_plans: [OnceLock<kernels::LanePlan>; 2],
}

impl PartialEq for SummaryGraph {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes
            && self.edges == other.edges
            && self.settings == other.settings
            && self.out_offsets == other.out_offsets
            && self.reachability() == other.reachability()
    }
}

/// Converts a node id, statement position or edge index to the `u32` that edges and offsets
/// store. A graph beyond `u32` is refused here, once per node, statement or row, never per
/// edge.
fn to_u32(value: usize, what: &str) -> u32 {
    u32::try_from(value).unwrap_or_else(|_| panic!("summary graph exceeds u32 {what}"))
}

/// One statement occurrence: statement `pos` of node `node`.
#[derive(Clone, Copy)]
struct Occurrence<'a> {
    node: u32,
    pos: u32,
    stmt: &'a Statement,
}

/// The statement occurrences of a node list grouped by relation, in CSR layout:
/// `occurrences[offsets[r]..offsets[r + 1]]` are the occurrences on relation `r`, ascending by
/// `(node, pos)`. Every Table 1 entry and every `ncDepConds`/`cDepConds` check is about one
/// relation, so Algorithm 1 only ever pairs a statement with the occurrences on its relation.
struct RelationIndex<'a> {
    offsets: Vec<u32>,
    occurrences: Vec<Occurrence<'a>>,
}

impl<'a> RelationIndex<'a> {
    fn build(nodes: &'a [Arc<LinearProgram>]) -> Self {
        let mut by_node = Vec::new();
        for (node, ltp) in nodes.iter().enumerate() {
            let node = to_u32(node, "node ids");
            for (pos, stmt) in ltp.statements() {
                let pos = to_u32(pos, "statement positions");
                by_node.push(Occurrence { node, pos, stmt });
            }
        }
        to_u32(by_node.len(), "statement occurrences");
        let relations = by_node
            .iter()
            .map(|o| o.stmt.rel().index() + 1)
            .max()
            .unwrap_or(0);
        let mut offsets = vec![0u32; relations + 1];
        for o in &by_node {
            offsets[o.stmt.rel().index() + 1] += 1;
        }
        prefix_sum(&mut offsets);
        // A stable counting sort by relation keeps each list in node order.
        let mut cursor = offsets.clone();
        let mut occurrences = by_node.clone();
        for o in by_node {
            let slot = &mut cursor[o.stmt.rel().index()];
            occurrences[*slot as usize] = o;
            *slot += 1;
        }
        RelationIndex {
            offsets,
            occurrences,
        }
    }

    fn on(&self, rel: RelId) -> &[Occurrence<'a>] {
        let r = rel.index();
        &self.occurrences[self.offsets[r] as usize..self.offsets[r + 1] as usize]
    }
}

/// Reusable buffers of the row loop: the per-target counts of a row's counting sort and the
/// copy of the row it scatters from.
#[derive(Default)]
struct RowScratch {
    counts: Vec<u32>,
    row: Vec<SummaryEdge>,
}

/// Derives row `i` of Algorithm 1, the edges from node `i` to the nodes `first..`, and appends
/// them to `edges` in the one edge order; returns how many are counterflow.
///
/// Each statement `a` of `P_i` is joined with the occurrences on `rel(a)` from node `first` on,
/// so the pairs come out ordered `(a, j, b, kind)`. Unless that is already ascending in the
/// target `j` (a row whose statements share one relation), a stable counting sort by `j`
/// turns it into the edge order `(j, a, b, kind)`, scattering from a copy of the row.
fn push_row(
    i: u32,
    first: u32,
    nodes: &[Arc<LinearProgram>],
    index: &RelationIndex<'_>,
    use_foreign_keys: bool,
    scratch: &mut RowScratch,
    edges: &mut Vec<SummaryEdge>,
) -> usize {
    let pi = &nodes[i as usize];
    let RowScratch { counts, row } = scratch;
    counts.clear();
    counts.resize(nodes.len() - first as usize + 1, 0);
    let base = edges.len();
    let (mut counterflow, mut last_target, mut sorted) = (0, first, true);
    for (pos_a, a) in pi.statements() {
        let occurrences = index.on(a.rel());
        let start = occurrences.partition_point(|o| o.node < first);
        for o in &occurrences[start..] {
            let b = o.stmt;
            let allow_nc = match nc_dep_table(a.kind(), b.kind()) {
                Some(v) => v,
                None => nc_dep_conds(a, b),
            };
            let allow_c = match c_dep_table(a.kind(), b.kind()) {
                Some(v) => v,
                None => {
                    let pj = &nodes[o.node as usize];
                    c_dep_conds(pi, pos_a, a, pj, o.pos as usize, b, use_foreign_keys)
                }
            };
            if !(allow_nc || allow_c) {
                continue;
            }
            let mut edge = SummaryEdge {
                from: i,
                from_stmt: pos_a as u32,
                kind: EdgeKind::NonCounterflow,
                to_stmt: o.pos,
                to: o.node,
            };
            if allow_nc {
                edges.push(edge);
            }
            if allow_c {
                edge.kind = EdgeKind::Counterflow;
                edges.push(edge);
                counterflow += 1;
            }
            counts[(o.node - first) as usize + 1] += u32::from(allow_nc) + u32::from(allow_c);
            sorted &= o.node >= last_target;
            last_target = o.node;
        }
    }
    if !sorted {
        prefix_sum(counts);
        row.clear();
        row.extend_from_slice(&edges[base..]);
        for e in row.iter() {
            let slot = &mut counts[(e.to - first) as usize];
            edges[base + *slot as usize] = *e;
            *slot += 1;
        }
    }
    counterflow
}

impl SummaryGraph {
    /// Algorithm 1: constructs `SuG(𝒫)` for a set of LTPs under the given settings.
    ///
    /// The `granularity` setting is applied by widening every defined attribute set to the full
    /// attribute set of its relation; the `use_foreign_keys` setting controls the foreign-key
    /// suppression inside `cDepConds`. The build is [`add_ltps`](Self::add_ltps) on the empty
    /// graph, so a fresh and an extended graph come out of the same row loop: a join of each
    /// node's statements with the per-relation occurrence index, one counting-sorted row per
    /// node.
    ///
    /// `ltps` are owned LTPs, copied into the graph, or `Arc`-shared ones: under attribute
    /// granularity the graph's nodes are then the given allocations themselves, as for the
    /// graphs a [`crate::RobustnessSession`] builds over its LTPs.
    pub fn construct<L>(ltps: &[L], schema: &Schema, settings: AnalysisSettings) -> Self
    where
        L: Borrow<LinearProgram> + Clone + Into<Arc<LinearProgram>>,
    {
        CONSTRUCTIONS.with(|c| c.set(c.get() + 1));
        let mut graph = SummaryGraph {
            nodes: Vec::new(),
            edges: Vec::new(),
            out_offsets: vec![0],
            counterflow_edges: 0,
            settings,
            in_adj: OnceLock::new(),
            reach: OnceLock::new(),
            lane_plans: [OnceLock::new(), OnceLock::new()],
        };
        graph.add_ltps(ltps, schema);
        graph
    }

    /// Drops every lazily derived array; each is re-derived on its next use.
    fn clear_derived(&mut self) {
        self.in_adj = OnceLock::new();
        self.reach = OnceLock::new();
        self.lane_plans = [OnceLock::new(), OnceLock::new()];
    }

    /// The bit-sliced sweep plan for `condition`, compiled on first use
    /// (`crate::algorithm::compile_lane_plan`) and cached on the graph — sweeps sharing a
    /// session's cached graph compile it once.
    pub(crate) fn lane_plan(&self, condition: CycleCondition) -> &kernels::LanePlan {
        let slot = match condition {
            CycleCondition::TypeI => &self.lane_plans[0],
            CycleCondition::TypeII => &self.lane_plans[1],
        };
        slot.get_or_init(|| crate::algorithm::compile_lane_plan(self, condition))
    }

    /// The in-adjacency CSR (edge indices grouped by target), derived on first use.
    fn in_csr(&self) -> &Csr {
        self.in_adj
            .get_or_init(|| Csr::build(self.nodes.len(), &self.edges))
    }

    /// The reachability closure, derived on first use: one pass over the edge list sets the
    /// adjacency bit row of every node, and the `kernels` closure closes them; nothing but the
    /// closure rows is kept. Each actual derivation advances the thread-local closure counter
    /// ([`Self::closures_computed_on_current_thread`]) — snapshot-installed closures never do.
    fn reachability(&self) -> &Reachability {
        self.reach.get_or_init(|| {
            CLOSURES.with(|c| c.set(c.get() + 1));
            let n = self.nodes.len();
            let words_per_row = n.div_ceil(64).max(1);
            // Every node is a member; the last word keeps only the bits below `n`.
            let mut all = vec![u64::MAX; words_per_row];
            all[words_per_row - 1] = match n % 64 {
                0 if n > 0 => u64::MAX,
                r => (1u64 << r) - 1,
            };
            let bits = kernels::transitive_closure(&all, |rows| {
                for e in &self.edges {
                    rows.add_edge(e.from as usize, e.to as usize);
                }
            });
            Reachability {
                words_per_row,
                bits,
            }
        })
    }

    /// Incrementally extends the graph with additional LTPs.
    ///
    /// Because Algorithm 1 derives edges pairwise, only the edge rows touching the new nodes
    /// have to be computed: the `(old, new)`, `(new, old)` and `(new, new)` pairs. One pass
    /// over all nodes indexes their statement occurrences by relation; row `i` then joins each
    /// statement of `P_i` with the occurrences on its relation, starting at the first target
    /// the row still needs (node `0` for a new row, the first new node for an old one, found
    /// by binary search), and a stable counting sort by target puts the row in the one edge
    /// order. The list is rebuilt as each old row `i` keeping its edges followed by its
    /// `(i, new)` edges, then the new rows, so the result equals a fresh
    /// [`construct`](Self::construct) over the old and new LTPs. The lazily derived arrays
    /// (in-adjacency, closure — neither is preserved under node addition) are invalidated and
    /// rebuilt on next use. The construction counter does **not** advance.
    ///
    /// `ltps` are owned LTPs, copied into the graph, or `Arc`-shared ones, which attribute
    /// granularity keeps as they are (tuple granularity widens a copy).
    pub fn add_ltps<L>(&mut self, ltps: &[L], schema: &Schema)
    where
        L: Borrow<LinearProgram> + Clone + Into<Arc<LinearProgram>>,
    {
        let old_n = self.nodes.len();
        self.nodes
            .extend(widen_ltps(ltps, schema, self.settings.granularity));
        let n = self.nodes.len();
        let index = RelationIndex::build(&self.nodes);
        let old_edges = std::mem::take(&mut self.edges);
        let mut edges = Vec::with_capacity(old_edges.len());
        let mut out_offsets = Vec::with_capacity(n + 1);
        out_offsets.push(0);
        let mut scratch = RowScratch::default();
        for i in 0..n {
            let first = if i < old_n {
                let row = self.out_offsets[i] as usize..self.out_offsets[i + 1] as usize;
                edges.extend_from_slice(&old_edges[row]);
                old_n
            } else {
                0
            };
            // `RelationIndex::build` checked that node ids fit `u32`.
            self.counterflow_edges += push_row(
                i as u32,
                first as u32,
                &self.nodes,
                &index,
                self.settings.use_foreign_keys,
                &mut scratch,
                &mut edges,
            );
            out_offsets.push(to_u32(edges.len(), "edge indices"));
        }
        self.edges = edges;
        self.out_offsets = out_offsets;
        self.clear_derived();
    }

    /// Incrementally removes a set of nodes (and every edge touching them), compacting node
    /// ids: surviving nodes are renumbered to `0..new_len` in their existing order.
    ///
    /// No Algorithm 1 work is performed at all — the edges between surviving nodes are exactly
    /// the surviving edges (edge derivation is pairwise), and the renumbering is monotone, so
    /// they stay in the one edge order. The out-adjacency offsets are recounted; in-adjacency
    /// and reachability are invalidated and re-derived lazily.
    pub fn remove_nodes(&mut self, remove: &[NodeId]) {
        let n = self.nodes.len();
        let mut keep = vec![true; n];
        for &id in remove {
            assert!(
                id < n,
                "remove_nodes(): node id {id} out of range ({n} nodes)"
            );
            keep[id] = false;
        }
        let mut new_id = vec![u32::MAX; n];
        let mut next = 0;
        for (id, &k) in keep.iter().enumerate() {
            if k {
                new_id[id] = next;
                next += 1;
            }
        }
        let next = next as usize;
        let mut idx = 0;
        self.nodes.retain(|_| {
            let k = keep[idx];
            idx += 1;
            k
        });
        let mut counterflow = 0;
        let mut out_offsets = vec![0u32; next + 1];
        self.edges.retain_mut(|e| {
            let (from, to) = (e.from as usize, e.to as usize);
            if keep[from] && keep[to] {
                e.from = new_id[from];
                e.to = new_id[to];
                counterflow += usize::from(e.kind.is_counterflow());
                out_offsets[e.from as usize + 1] += 1;
                true
            } else {
                false
            }
        });
        prefix_sum(&mut out_offsets);
        self.out_offsets = out_offsets;
        self.counterflow_edges = counterflow;
        self.clear_derived();
    }

    /// Reassembles a graph from persisted parts — the deserialization hook of the `mvrc-dist`
    /// snapshot layer.
    ///
    /// `ltps` are the LTPs the graph was built over, widened here as
    /// [`construct`](Self::construct) widens them; `edges` is its complete Algorithm 1 edge
    /// list in the one edge order and `reach_bits` its closure rows (both decoded from a
    /// snapshot file). No edge derivation and **no closure computation** runs, so opening a
    /// snapshot is linear in the edge count and advances neither the construction counter nor
    /// the closure counter. The in-adjacency is derived on first use, as on a fresh graph.
    ///
    /// Validation makes one pass over the edges that range-checks them against the node
    /// statement counts, checks that they are strictly ascending in the edge order and counts
    /// the out-adjacency offsets, then checks that the closure rows have the derived
    /// dimensions. The closure *contents* are not recomputed — they are covered by the
    /// snapshot file's fingerprint, which the caller verifies.
    pub fn from_snapshot_parts<L>(
        ltps: &[L],
        schema: &Schema,
        settings: AnalysisSettings,
        edges: Vec<SummaryEdge>,
        reach_bits: Vec<u64>,
    ) -> Result<Self, String>
    where
        L: Borrow<LinearProgram> + Clone + Into<Arc<LinearProgram>>,
    {
        let nodes = widen_ltps(ltps, schema, settings.granularity);
        let n = nodes.len();
        let mut counterflow = 0;
        let mut out_offsets = vec![0u32; n + 1];
        for (k, e) in edges.iter().enumerate() {
            let (from, to) = (e.from as usize, e.to as usize);
            if from >= n || to >= n {
                return Err(format!("graph edge endpoint out of range ({n} nodes)"));
            }
            if e.from_stmt as usize >= nodes[from].len() || e.to_stmt as usize >= nodes[to].len() {
                return Err("graph edge statement position out of range".to_string());
            }
            if k > 0 && edge_order(&edges[k - 1]) >= edge_order(e) {
                return Err(format!("graph edge {k} is out of the edge order"));
            }
            counterflow += usize::from(e.kind.is_counterflow());
            out_offsets[from + 1] += 1;
        }
        prefix_sum(&mut out_offsets);
        let words_per_row = n.div_ceil(64).max(1);
        if reach_bits.len() != n * words_per_row {
            return Err(format!(
                "reachability rows have {} words, expected {}",
                reach_bits.len(),
                n * words_per_row
            ));
        }
        Ok(SummaryGraph {
            nodes,
            edges,
            out_offsets,
            counterflow_edges: counterflow,
            settings,
            in_adj: OnceLock::new(),
            reach: OnceLock::from(Reachability {
                words_per_row,
                bits: reach_bits,
            }),
            lane_plans: [OnceLock::new(), OnceLock::new()],
        })
    }

    /// Number of `SummaryGraph::construct` calls made by the current thread.
    ///
    /// Diagnostic counter for the session/subset-exploration contracts: the session must build
    /// exactly one graph per settings combination, however many queries, subsets or incremental
    /// edits it serves ([`add_ltps`](Self::add_ltps) and [`remove_nodes`](Self::remove_nodes)
    /// do not advance the counter). Thread-local so concurrently running tests cannot interfere
    /// with each other (the parallel subset enumeration itself never constructs graphs on
    /// its helper threads).
    pub fn constructions_on_current_thread() -> u64 {
        CONSTRUCTIONS.with(Cell::get)
    }

    /// Number of full-graph reachability closures *computed* by the current thread.
    ///
    /// The companion of [`Self::constructions_on_current_thread`] for the lazy derivation
    /// layer: forcing a graph's closure (first [`reachable`](Self::reachable) /
    /// [`reachable_row`](Self::reachable_row) query after construction or an incremental edit)
    /// advances it; queries answered from an already-derived or snapshot-installed closure do
    /// not. Induced-view closures are not counted — the counter exists to assert that snapshot
    /// warm starts rebuild nothing, and views always compute their own member-local rows.
    pub fn closures_computed_on_current_thread() -> u64 {
        CLOSURES.with(Cell::get)
    }

    /// The reachability closure as `(words_per_row, row-major words)` — node `i`'s row starts
    /// at `i * words_per_row`. Forces derivation; exposed for the `mvrc-dist` snapshot writer.
    pub fn reachability_words(&self) -> (usize, &[u64]) {
        let reach = self.reachability();
        (reach.words_per_row, &reach.bits)
    }

    /// The settings the graph was constructed under.
    pub fn settings(&self) -> AnalysisSettings {
        self.settings
    }

    /// Number of nodes (LTPs).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges (quintuples), as reported in Table 2 of the paper.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Number of counterflow edges, the parenthesized count in Table 2.
    pub fn counterflow_edge_count(&self) -> usize {
        self.counterflow_edges
    }

    /// The LTP at a node.
    pub fn node(&self, id: NodeId) -> &LinearProgram {
        &self.nodes[id]
    }

    /// All nodes with their ids.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &LinearProgram)> {
        self.nodes.iter().enumerate().map(|(id, n)| (id, &**n))
    }

    /// Looks up a node by LTP name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.nodes.iter().position(|n| n.name() == name)
    }

    /// All edges, in the one edge order (see [`SummaryGraph`]).
    pub fn edges(&self) -> &[SummaryEdge] {
        &self.edges
    }

    /// Edges leaving a node: one contiguous run of the edge list.
    #[inline]
    pub fn edges_from(&self, node: NodeId) -> &[SummaryEdge] {
        &self.edges[self.out_offsets[node] as usize..self.out_offsets[node + 1] as usize]
    }

    /// Edges entering a node.
    pub fn edges_to(&self, node: NodeId) -> impl Iterator<Item = &SummaryEdge> {
        self.in_csr()
            .slice(node)
            .iter()
            .map(move |&idx| &self.edges[idx as usize])
    }

    /// Counterflow edges leaving a node.
    pub fn counterflow_edges_from(&self, node: NodeId) -> impl Iterator<Item = &SummaryEdge> {
        self.edges_from(node)
            .iter()
            .filter(|e| e.kind.is_counterflow())
    }

    /// Edges between a specific pair of nodes.
    pub fn edges_between(&self, from: NodeId, to: NodeId) -> impl Iterator<Item = &SummaryEdge> {
        self.edges_from(from)
            .iter()
            .filter(move |e| e.to as usize == to)
    }

    /// Reachability `from →* to` over all edges; every node reaches itself (zero-length path).
    #[inline]
    pub fn reachable(&self, from: NodeId, to: NodeId) -> bool {
        self.reachability().get(from, to)
    }

    /// The bitset row of nodes reachable from `from` (64 nodes per word, node `i` at bit
    /// `i % 64` of word `i / 64`). Exposed for the optimized robustness check; equals
    /// [`SummaryGraphView::view_reachable_row`].
    pub fn reachable_row(&self, from: NodeId) -> &[u64] {
        self.reachability().row(from)
    }

    /// Renders an edge with program and statement names (diagnostics, DOT export).
    pub fn describe_edge(&self, edge: &SummaryEdge) -> String {
        describe_edge_between(
            self.node(edge.from as usize),
            self.node(edge.to as usize),
            edge,
        )
    }

    /// The induced subgraph over a set of node ids.
    ///
    /// The view borrows this graph: it keeps the edges whose endpoints both lie in `members`
    /// and recomputes only the reachability closure, which — unlike the edge set — is not
    /// preserved under taking induced subgraphs (paths may run through excluded nodes).
    ///
    /// The construction iterates **only the member nodes' runs of the edge list** —
    /// `O(Σ deg(m))` over the members `m`, not `O(E)` over the parent's full edge list — and
    /// draws its temporaries (membership mask, position lookup) from a reusable thread-local
    /// scratch. The loop that keeps the edges also sets each member's adjacency bit row, and
    /// the `kernels` closure, whose temporaries are per-thread scratch too, closes them into
    /// the member-local reachability.
    ///
    /// Since the edges of `SuG(𝒫)` are defined pairwise over the LTPs of `𝒫` (Algorithm 1
    /// consults only `P_i` and `P_j` for an edge between them), the induced view over the nodes
    /// of `𝒫' ⊆ 𝒫` is *identical* to `SuG(𝒫')` up to node numbering — this is what lets the
    /// subset exploration construct a single graph instead of one per subset.
    pub fn induced(&self, members: &[NodeId]) -> InducedView<'_> {
        let mut members = members.to_vec();
        // Most callers pass strictly ascending ids; only pay for normalization when the
        // caller didn't.
        if !members.windows(2).all(|w| w[0] < w[1]) {
            members.sort_unstable();
            members.dedup();
        }
        let n = self.nodes.len();
        let m = members.len();
        let words = n.div_ceil(64).max(1);

        // Kept edges in CSR layout, grouped by source member; the same loop records them as
        // the adjacency the closure kernel closes. Its rows follow the member positions, and
        // columns are universe node ids (so views share the parent's bitset numbering).
        let (out_csr, out_offsets, in_csr, in_offsets, rows) = with_induced_scratch(|scratch| {
            scratch.mask.clear();
            scratch.mask.resize(words, 0);
            scratch.pos_of.resize(n.max(1), 0);
            for (pos, &id) in members.iter().enumerate() {
                assert!(id < n, "induced(): node id {id} out of range ({n} nodes)");
                scratch.mask[id / 64] |= 1u64 << (id % 64);
                // Stale entries for non-members are never read: every read is guarded by
                // the membership mask.
                scratch.pos_of[id] = pos as u32;
            }
            let (mask, pos_of) = (&scratch.mask, &scratch.pos_of);

            let mut out_csr = Vec::new();
            let mut out_offsets = Vec::with_capacity(m + 1);
            let mut in_degree = vec![0usize; m];
            out_offsets.push(0);
            let rows = kernels::transitive_closure(mask, |rows| {
                for &member in &members {
                    let first = self.out_offsets[member] as usize;
                    for (k, edge) in self.edges_from(member).iter().enumerate() {
                        let to = edge.to as usize;
                        if kernels::test_bit(mask, to) {
                            let to_pos = pos_of[to] as usize;
                            out_csr.push(first + k);
                            in_degree[to_pos] += 1;
                            rows.add_edge(member, to);
                        }
                    }
                    out_offsets.push(out_csr.len());
                }
            });
            let mut in_offsets = Vec::with_capacity(m + 1);
            in_offsets.push(0);
            for &d in &in_degree {
                in_offsets.push(in_offsets.last().unwrap() + d);
            }
            let mut cursor = in_offsets.clone();
            let mut in_csr = vec![0usize; out_csr.len()];
            for &edge_idx in &out_csr {
                let pos = pos_of[self.edges[edge_idx].to as usize] as usize;
                in_csr[cursor[pos]] = edge_idx;
                cursor[pos] += 1;
            }
            (out_csr, out_offsets, in_csr, in_offsets, rows)
        });

        InducedView {
            graph: self,
            members,
            out_csr,
            out_offsets,
            in_csr,
            in_offsets,
            reach: Reachability {
                words_per_row: words,
                bits: rows,
            },
        }
    }

    /// The induced subgraph over the LTP nodes unfolded from the given programs.
    ///
    /// Every requested name must match at least one LTP node; an unmatched name returns
    /// [`UnknownProgram`] instead of being silently skipped (a silently shrunken subset would
    /// turn a robustness *question* about absent programs into a spurious `robust` answer).
    pub fn induced_for_programs(
        &self,
        program_names: &[&str],
    ) -> Result<InducedView<'_>, UnknownProgram> {
        let mut members: Vec<NodeId> = Vec::new();
        for &name in program_names {
            let before = members.len();
            members.extend(
                self.nodes
                    .iter()
                    .enumerate()
                    .filter(|(_, ltp)| ltp.program_name() == name)
                    .map(|(id, _)| id),
            );
            if members.len() == before {
                let mut known: Vec<String> = self
                    .nodes
                    .iter()
                    .map(|l| l.program_name().to_string())
                    .collect();
                known.dedup();
                return Err(UnknownProgram {
                    name: name.to_string(),
                    known,
                });
            }
        }
        Ok(self.induced(&members))
    }
}

/// Applies the granularity setting to a slice of LTPs, giving each node as an [`Arc`].
/// Attribute granularity keeps the LTPs as they are, so `Arc`-shared input is shared, not
/// copied.
fn widen_ltps<L>(ltps: &[L], schema: &Schema, granularity: Granularity) -> Vec<Arc<LinearProgram>>
where
    L: Borrow<LinearProgram> + Clone + Into<Arc<LinearProgram>>,
{
    match granularity {
        Granularity::Attribute => ltps.iter().map(|l| l.clone().into()).collect(),
        Granularity::Tuple => ltps
            .iter()
            .map(|l| {
                Arc::new(
                    l.borrow()
                        .widen_to_tuple_granularity(|rel| schema.all_attrs(rel)),
                )
            })
            .collect(),
    }
}

/// Read access to a summary graph or an induced subgraph of one: implemented by
/// [`PrefetchedView`] ([`SummaryGraph::prefetched`]) for the whole graph and by
/// [`InducedView`] ([`SummaryGraph::induced`]) for a subset of its nodes.
///
/// The robustness cycle tests ([`crate::find_type2_violation`] and friends) are written against
/// this trait so that one [`SummaryGraph`] constructed over the full LTP set can answer queries
/// for every subset through cheap [`InducedView`]s. Node ids always refer to the underlying
/// graph's numbering ([`Self::universe`] is the size of that id space), so bitsets and
/// adjacency queries can be shared between the full graph and its views.
pub trait SummaryGraphView {
    /// Size of the node-id space (the underlying graph's node count). Views report the parent
    /// universe even when they contain fewer nodes.
    fn universe(&self) -> usize;

    /// Node ids present in this view, in ascending order.
    fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_;

    /// The LTP at a node (of the underlying graph).
    fn node(&self, id: NodeId) -> &LinearProgram;

    /// The edges of this view.
    fn view_edges(&self) -> impl Iterator<Item = &SummaryEdge> + '_;

    /// Edges of this view entering a node.
    fn view_edges_to(&self, node: NodeId) -> impl Iterator<Item = &SummaryEdge> + '_;

    /// Counterflow edges of this view leaving a node.
    fn view_counterflow_edges_from(&self, node: NodeId) -> impl Iterator<Item = &SummaryEdge> + '_;

    /// Reachability `from →* to` within this view (paths may not leave the view).
    fn view_reachable(&self, from: NodeId, to: NodeId) -> bool;

    /// The reachability bitset row of a node (64 node ids per word).
    fn view_reachable_row(&self, from: NodeId) -> &[u64];

    /// Number of nodes in this view.
    fn view_node_count(&self) -> usize {
        self.node_ids().count()
    }

    /// Number of edges in this view.
    fn view_edge_count(&self) -> usize {
        self.view_edges().count()
    }

    /// Number of counterflow edges in this view.
    fn view_counterflow_edge_count(&self) -> usize {
        self.view_edges()
            .filter(|e| e.kind.is_counterflow())
            .count()
    }
}

/// Renders an edge of any view with program and statement names.
pub fn describe_edge_in<G: SummaryGraphView + ?Sized>(view: &G, edge: &SummaryEdge) -> String {
    describe_edge_between(
        view.node(edge.from as usize),
        view.node(edge.to as usize),
        edge,
    )
}

fn describe_edge_between(from: &LinearProgram, to: &LinearProgram, edge: &SummaryEdge) -> String {
    format!(
        "{} --[{} -> {}, {}]--> {}",
        from.name(),
        from.statement(edge.from_stmt as usize).name(),
        to.statement(edge.to_stmt as usize).name(),
        edge.kind,
        to.name()
    )
}

/// The full-graph view, with the reachability words *prefetched*: they are taken out of their
/// lazily initialised `OnceLock` once, at construction, so the cycle-test kernels index a plain
/// slice instead of re-checking the lock per reachability probe. Out-edges are contiguous runs
/// of the graph's edge list, read through its offsets. The in-adjacency CSR is fetched on the
/// first [`view_edges_to`](SummaryGraphView::view_edges_to) call instead: only witness
/// recovery and the lane-plan compiler walk in-edges, so a robust verdict never derives it.
/// It is the only [`SummaryGraphView`] over a whole graph: every cycle test, the DOT
/// renderer and the witness checks go through [`SummaryGraph::prefetched`].
pub struct PrefetchedView<'g> {
    graph: &'g SummaryGraph,
    words_per_row: usize,
    reach_bits: &'g [u64],
}

impl SummaryGraph {
    /// A [`PrefetchedView`] over the whole graph. Forces derivation of the reachability closure
    /// (a no-op on warm-started graphs, which have it installed).
    pub fn prefetched(&self) -> PrefetchedView<'_> {
        let reach = self.reachability();
        PrefetchedView {
            graph: self,
            words_per_row: reach.words_per_row,
            reach_bits: &reach.bits,
        }
    }
}

impl SummaryGraphView for PrefetchedView<'_> {
    fn universe(&self) -> usize {
        self.graph.nodes.len()
    }

    fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.graph.nodes.len()
    }

    fn node(&self, id: NodeId) -> &LinearProgram {
        &self.graph.nodes[id]
    }

    fn view_edges(&self) -> impl Iterator<Item = &SummaryEdge> + '_ {
        self.graph.edges.iter()
    }

    fn view_edges_to(&self, node: NodeId) -> impl Iterator<Item = &SummaryEdge> + '_ {
        self.graph.edges_to(node)
    }

    fn view_counterflow_edges_from(&self, node: NodeId) -> impl Iterator<Item = &SummaryEdge> + '_ {
        self.graph.counterflow_edges_from(node)
    }

    #[inline]
    fn view_reachable(&self, from: NodeId, to: NodeId) -> bool {
        self.reach_bits[from * self.words_per_row + to / 64] & (1u64 << (to % 64)) != 0
    }

    #[inline]
    fn view_reachable_row(&self, from: NodeId) -> &[u64] {
        &self.reach_bits[from * self.words_per_row..(from + 1) * self.words_per_row]
    }

    fn view_node_count(&self) -> usize {
        self.graph.nodes.len()
    }

    fn view_edge_count(&self) -> usize {
        self.graph.edges.len()
    }

    fn view_counterflow_edge_count(&self) -> usize {
        self.graph.counterflow_edges
    }
}

/// A borrowed induced subgraph of a [`SummaryGraph`]: the nodes in a member set plus every edge
/// whose endpoints both lie in it, with freshly computed view-local reachability.
///
/// Node ids are the *parent graph's* ids; internally, adjacency is stored in CSR layout indexed
/// by member *position* (ids are mapped by binary search over the sorted member list), and the
/// reachability matrix holds one row per member — so a view over `m` of `n` nodes costs
/// `O(Σ deg(members) + m · n/64)` space, independent of the parent's total edge count. Building
/// a view is `O(Σ deg(members))` plus the member-local closure, compared to re-running Algorithm 1,
/// which is quadratic in statements with attribute-set and foreign-key reasoning per pair.
#[derive(Debug, Clone)]
pub struct InducedView<'g> {
    graph: &'g SummaryGraph,
    members: Vec<NodeId>,
    /// Kept edge indices grouped by source member; `out_offsets[p]..out_offsets[p + 1]` is the
    /// out-adjacency of the member at position `p`.
    out_csr: Vec<usize>,
    out_offsets: Vec<usize>,
    /// The same edge indices grouped by target member.
    in_csr: Vec<usize>,
    in_offsets: Vec<usize>,
    reach: Reachability,
}

impl InducedView<'_> {
    /// The underlying full graph.
    pub fn parent(&self) -> &SummaryGraph {
        self.graph
    }

    /// The member node ids, ascending.
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Position of a node id within the member list, if it is a member.
    #[inline]
    fn member_pos(&self, id: NodeId) -> Option<usize> {
        self.members.binary_search(&id).ok()
    }

    /// Out-adjacency slice of a node (empty for non-members).
    fn out_slice(&self, id: NodeId) -> &[usize] {
        match self.member_pos(id) {
            Some(p) => &self.out_csr[self.out_offsets[p]..self.out_offsets[p + 1]],
            None => &[],
        }
    }

    /// In-adjacency slice of a node (empty for non-members).
    fn in_slice(&self, id: NodeId) -> &[usize] {
        match self.member_pos(id) {
            Some(p) => &self.in_csr[self.in_offsets[p]..self.in_offsets[p + 1]],
            None => &[],
        }
    }
}

impl SummaryGraphView for InducedView<'_> {
    fn universe(&self) -> usize {
        self.graph.nodes.len()
    }

    fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.members.iter().copied()
    }

    fn node(&self, id: NodeId) -> &LinearProgram {
        &self.graph.nodes[id]
    }

    fn view_edges(&self) -> impl Iterator<Item = &SummaryEdge> + '_ {
        self.out_csr.iter().map(|&idx| &self.graph.edges[idx])
    }

    fn view_edges_to(&self, node: NodeId) -> impl Iterator<Item = &SummaryEdge> + '_ {
        self.in_slice(node)
            .iter()
            .map(|&idx| &self.graph.edges[idx])
    }

    fn view_counterflow_edges_from(&self, node: NodeId) -> impl Iterator<Item = &SummaryEdge> + '_ {
        self.out_slice(node)
            .iter()
            .map(|&idx| &self.graph.edges[idx])
            .filter(|e| e.kind.is_counterflow())
    }

    fn view_reachable(&self, from: NodeId, to: NodeId) -> bool {
        self.member_pos(from).is_some_and(|p| self.reach.get(p, to))
    }

    fn view_reachable_row(&self, from: NodeId) -> &[u64] {
        let p = self
            .member_pos(from)
            .expect("view_reachable_row: node is not a member of this induced view");
        self.reach.row(p)
    }

    fn view_node_count(&self) -> usize {
        self.members.len()
    }

    fn view_edge_count(&self) -> usize {
        self.out_csr.len()
    }
}

/// `ncDepConds(q_i, q_j)` from Algorithm 1: the attribute-set checks for the `⊥` entries of
/// Table (1a). Undefined sets (`⊥`) behave as empty sets.
pub fn nc_dep_conds(qi: &Statement, qj: &Statement) -> bool {
    let (wi, ri, pi) = (qi.write_attrs(), qi.read_attrs(), qi.pread_attrs());
    let (wj, rj, pj) = (qj.write_attrs(), qj.read_attrs(), qj.pread_attrs());
    wi.intersects(wj)
        || wi.intersects(rj)
        || wi.intersects(pj)
        || ri.intersects(wj)
        || pi.intersects(wj)
}

/// `cDepConds(q_i, q_j)` from Algorithm 1: the attribute-set and foreign-key checks for the `⊥`
/// entries of Table (1b).
///
/// A counterflow edge requires a (predicate) rw-antidependency (Lemma 4.1). When the potential
/// antidependency stems from a plain read (`ReadSet(q_i) ∩ WriteSet(q_j) ≠ ∅`), foreign-key
/// constraints can rule it out: if both programs access, *before* `q_i` resp. `q_j`, the tuple
/// referenced through a common foreign key with a key-based write (or insert/delete), then two
/// concurrent instantiations over the same tuple would exhibit a dirty write, which MVRC forbids.
pub fn c_dep_conds(
    pi: &LinearProgram,
    pos_i: StmtPos,
    qi: &Statement,
    pj: &LinearProgram,
    pos_j: StmtPos,
    qj: &Statement,
    use_foreign_keys: bool,
) -> bool {
    let wj = qj.write_attrs();
    if qi.pread_attrs().intersects(wj) {
        return true;
    }
    if qi.read_attrs().intersects(wj) {
        if use_foreign_keys {
            for ci in pi.fk_constraints_with_dom(pos_i) {
                for cj in pj.fk_constraints_with_dom(pos_j) {
                    if ci.fk != cj.fk {
                        continue;
                    }
                    let qk = pi.statement(ci.range_pos);
                    let ql = pj.statement(cj.range_pos);
                    let protecting_kind = |s: &Statement| {
                        matches!(
                            s.kind(),
                            mvrc_btp::StatementKind::KeyUpdate
                                | mvrc_btp::StatementKind::KeyDelete
                                | mvrc_btp::StatementKind::Insert
                        )
                    };
                    if protecting_kind(qk)
                        && protecting_kind(ql)
                        && pi.precedes(ci.range_pos, pos_i)
                        && pj.precedes(cj.range_pos, pos_j)
                    {
                        return false;
                    }
                }
            }
        }
        return true;
    }
    false
}

/// Reusable temporaries for [`SummaryGraph::induced`]: membership mask and node-id →
/// member-position lookup, one set per thread, so a thread building many views (certifying
/// every subset of a workload) reuses warm buffers.
#[derive(Default)]
struct InducedScratch {
    mask: Vec<u64>,
    pos_of: Vec<u32>,
}

fn with_induced_scratch<R>(f: impl FnOnce(&mut InducedScratch) -> R) -> R {
    INDUCED_SCRATCH.with(|scratch| f(&mut scratch.borrow_mut()))
}

thread_local! {
    static CONSTRUCTIONS: Cell<u64> = const { Cell::new(0) };
    static CLOSURES: Cell<u64> = const { Cell::new(0) };
    static INDUCED_SCRATCH: std::cell::RefCell<InducedScratch> =
        std::cell::RefCell::new(InducedScratch::default());
}

/// The previous construction of Algorithm 1: every statement pair of every ordered node pair,
/// compared by relation first. Kept only to pin the edge lists the relation join must
/// reproduce.
#[cfg(test)]
mod reference {
    use super::*;

    /// The edge list of the graph over `nodes` (already widened), with its out-adjacency
    /// offsets and its counterflow count.
    pub(super) fn edges(
        nodes: &[Arc<LinearProgram>],
        use_foreign_keys: bool,
    ) -> (Vec<SummaryEdge>, Vec<u32>, usize) {
        let mut edges = Vec::new();
        let mut out_offsets = vec![0];
        let mut counterflow = 0;
        for (i, pi) in nodes.iter().enumerate() {
            for (j, pj) in nodes.iter().enumerate() {
                counterflow += push_pair_edges(i, pi, j, pj, use_foreign_keys, &mut edges);
            }
            out_offsets.push(edges.len() as u32);
        }
        (edges, out_offsets, counterflow)
    }

    fn push_pair_edges(
        i: NodeId,
        pi: &LinearProgram,
        j: NodeId,
        pj: &LinearProgram,
        use_foreign_keys: bool,
        edges: &mut Vec<SummaryEdge>,
    ) -> usize {
        let mut counterflow = 0;
        for (pos_i, qi) in pi.statements() {
            for (pos_j, qj) in pj.statements() {
                if qi.rel() != qj.rel() {
                    continue;
                }
                let edge = |kind| SummaryEdge {
                    from: i as u32,
                    from_stmt: pos_i as u32,
                    kind,
                    to_stmt: pos_j as u32,
                    to: j as u32,
                };
                let allow_nc = match nc_dep_table(qi.kind(), qj.kind()) {
                    Some(v) => v,
                    None => nc_dep_conds(qi, qj),
                };
                if allow_nc {
                    edges.push(edge(EdgeKind::NonCounterflow));
                }
                let allow_c = match c_dep_table(qi.kind(), qj.kind()) {
                    Some(v) => v,
                    None => c_dep_conds(pi, pos_i, qi, pj, pos_j, qj, use_foreign_keys),
                };
                if allow_c {
                    counterflow += 1;
                    edges.push(edge(EdgeKind::Counterflow));
                }
            }
        }
        counterflow
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::settings::CycleCondition;
    use mvrc_btp::ProgramBuilder;
    use mvrc_schema::SchemaBuilder;

    fn schema() -> Schema {
        let mut b = SchemaBuilder::new("s");
        let buyer = b.relation("Buyer", &["id", "calls"], &["id"]).unwrap();
        let bids = b
            .relation("Bids", &["buyerId", "bid"], &["buyerId"])
            .unwrap();
        b.relation("Log", &["id", "buyerId", "bid"], &["id"])
            .unwrap();
        b.foreign_key("f1", bids, &["buyerId"], buyer, &["id"])
            .unwrap();
        b.build()
    }

    fn find_bids(schema: &Schema) -> LinearProgram {
        let mut pb = ProgramBuilder::new(schema, "FindBids");
        let q1 = pb
            .key_update("q1", "Buyer", &["calls"], &["calls"])
            .unwrap();
        let q2 = pb.pred_select("q2", "Bids", &["bid"], &["bid"]).unwrap();
        pb.seq(&[q1.into(), q2.into()]);
        mvrc_btp::LinearProgram::from_linear_program(&pb.build())
    }

    fn settings() -> AnalysisSettings {
        AnalysisSettings {
            granularity: Granularity::Attribute,
            use_foreign_keys: true,
            condition: CycleCondition::TypeII,
        }
    }

    #[test]
    fn single_read_write_program_has_self_loops() {
        let schema = schema();
        let graph = SummaryGraph::construct(&[find_bids(&schema)], &schema, settings());
        assert_eq!(graph.node_count(), 1);
        // q1 vs q1 over Buyer gives a non-counterflow self edge; Bids has no writer so no other
        // edges exist.
        assert_eq!(graph.edge_count(), 1);
        assert_eq!(graph.counterflow_edge_count(), 0);
        let edge = graph.edges()[0];
        assert_eq!(edge.from, edge.to);
        assert_eq!(edge.kind, EdgeKind::NonCounterflow);
        assert!(graph.reachable(0, 0));
        assert!(graph.describe_edge(&edge).contains("q1 -> q1"));
    }

    #[test]
    fn reachability_includes_zero_length_paths() {
        let schema = schema();
        let mut pb = ProgramBuilder::new(&schema, "ReadOnly");
        let q = pb.key_select("q", "Buyer", &["calls"]).unwrap();
        pb.push(q.into());
        let ltp = mvrc_btp::LinearProgram::from_linear_program(&pb.build());
        let graph = SummaryGraph::construct(&[ltp], &schema, settings());
        assert_eq!(graph.edge_count(), 0);
        assert!(graph.reachable(0, 0));
    }

    #[test]
    fn node_lookup_and_edge_iterators() {
        let schema = schema();
        let graph = SummaryGraph::construct(
            &[find_bids(&schema), find_bids(&schema)],
            &schema,
            settings(),
        );
        assert_eq!(graph.node_count(), 2);
        assert!(graph.node_by_name("FindBids").is_some());
        assert!(graph.node_by_name("Nope").is_none());
        // Two FindBids copies: q1 conflicts with q1 across all 4 ordered node pairs.
        assert_eq!(graph.edge_count(), 4);
        assert_eq!(graph.edges_from(0).len(), 2);
        assert_eq!(graph.edges_to(1).count(), 2);
        assert_eq!(graph.edges_between(0, 1).count(), 1);
        assert_eq!(graph.counterflow_edges_from(0).count(), 0);
    }

    #[test]
    fn tuple_granularity_adds_edges() {
        let schema = schema();
        // A program reading only Buyer.id and one writing only Buyer.calls: no common attribute,
        // so no dependency at attribute granularity, but a conflict at tuple granularity.
        let mut reader = ProgramBuilder::new(&schema, "Reader");
        let q = reader.key_select("qr", "Buyer", &["id"]).unwrap();
        reader.push(q.into());
        let mut writer = ProgramBuilder::new(&schema, "Writer");
        let q = writer.key_update("qw", "Buyer", &[], &["calls"]).unwrap();
        writer.push(q.into());
        let ltps = vec![
            mvrc_btp::LinearProgram::from_linear_program(&reader.build()),
            mvrc_btp::LinearProgram::from_linear_program(&writer.build()),
        ];
        let attr = SummaryGraph::construct(&ltps, &schema, settings());
        let tuple = SummaryGraph::construct(
            &ltps,
            &schema,
            AnalysisSettings {
                granularity: Granularity::Tuple,
                ..settings()
            },
        );
        // Attribute granularity: only the writer/writer self conflict.
        assert_eq!(attr.edge_count(), 1);
        // Tuple granularity additionally sees reader/writer conflicts (both directions, and the
        // reader -> writer rw-antidependency can also be counterflow).
        assert!(tuple.edge_count() > attr.edge_count());
        assert!(tuple.counterflow_edge_count() > 0);
    }

    #[test]
    fn foreign_keys_suppress_counterflow_between_key_reads_and_updates() {
        let schema = schema();
        // Both programs: update Buyer (key-based, on the FK target) then read/update Bids.
        let build = |name: &str, update_bids: bool| {
            let mut pb = ProgramBuilder::new(&schema, name);
            let qb = pb
                .key_update("qb", "Buyer", &["calls"], &["calls"])
                .unwrap();
            let qx = if update_bids {
                pb.key_update("qx", "Bids", &[], &["bid"]).unwrap()
            } else {
                pb.key_select("qx", "Bids", &["bid"]).unwrap()
            };
            pb.seq(&[qb.into(), qx.into()]);
            pb.fk_constraint("f1", qx, qb).unwrap();
            mvrc_btp::LinearProgram::from_linear_program(&pb.build())
        };
        let ltps = vec![build("Reader", false), build("Writer", true)];
        let with_fk = SummaryGraph::construct(&ltps, &schema, settings());
        let without_fk = SummaryGraph::construct(
            &ltps,
            &schema,
            AnalysisSettings {
                use_foreign_keys: false,
                ..settings()
            },
        );
        // Without FK reasoning the Reader.qx -> Writer.qx rw-antidependency can be counterflow;
        // with FK reasoning it cannot (both programs key-update the same Buyer tuple first).
        assert!(without_fk.counterflow_edge_count() > with_fk.counterflow_edge_count());
        assert_eq!(with_fk.counterflow_edge_count(), 0);
    }

    #[test]
    fn nc_dep_conds_checks_all_intersections() {
        let schema = schema();
        let rel = schema.relation_by_name("Bids").unwrap();
        let bid = rel.attr_by_name("bid").unwrap();
        let buyer_id = rel.attr_by_name("buyerId").unwrap();
        let upd_bid = Statement::new(
            "u",
            rel,
            mvrc_btp::StatementKind::KeyUpdate,
            None,
            Some(mvrc_schema::AttrSet::empty()),
            Some(mvrc_schema::AttrSet::singleton(bid)),
        )
        .unwrap();
        let sel_bid = Statement::new(
            "s",
            rel,
            mvrc_btp::StatementKind::KeySelect,
            None,
            Some(mvrc_schema::AttrSet::singleton(bid)),
            None,
        )
        .unwrap();
        let sel_buyer = Statement::new(
            "s2",
            rel,
            mvrc_btp::StatementKind::KeySelect,
            None,
            Some(mvrc_schema::AttrSet::singleton(buyer_id)),
            None,
        )
        .unwrap();
        assert!(nc_dep_conds(&upd_bid, &sel_bid));
        assert!(nc_dep_conds(&sel_bid, &upd_bid));
        assert!(nc_dep_conds(&upd_bid, &upd_bid));
        assert!(!nc_dep_conds(&sel_buyer, &upd_bid));
        assert!(!nc_dep_conds(&sel_bid, &sel_bid));
    }

    #[test]
    fn induced_view_matches_fresh_construction() {
        let schema = schema();
        let a = find_bids(&schema);
        let mut pb = ProgramBuilder::new(&schema, "Writer");
        let q = pb.key_update("qw", "Bids", &["bid"], &["bid"]).unwrap();
        pb.push(q.into());
        let b = mvrc_btp::LinearProgram::from_linear_program(&pb.build());
        let full = SummaryGraph::construct(&[a.clone(), b.clone()], &schema, settings());
        for (members, ltps) in [
            (vec![0usize], vec![a.clone()]),
            (vec![1usize], vec![b.clone()]),
            (vec![0usize, 1], vec![a.clone(), b.clone()]),
        ] {
            let view = full.induced(&members);
            let fresh = SummaryGraph::construct(&ltps, &schema, settings());
            assert_eq!(view.view_edge_count(), fresh.edge_count());
            assert_eq!(
                view.view_counterflow_edge_count(),
                fresh.counterflow_edge_count()
            );
            for (pos, &m) in members.iter().enumerate() {
                for (pos2, &m2) in members.iter().enumerate() {
                    assert_eq!(view.view_reachable(m, m2), fresh.reachable(pos, pos2));
                }
            }
        }
    }

    #[test]
    fn induced_normalizes_unsorted_and_duplicate_members() {
        let schema = schema();
        let graph = SummaryGraph::construct(
            &[find_bids(&schema), find_bids(&schema)],
            &schema,
            settings(),
        );
        let view = graph.induced(&[1, 0, 1]);
        assert_eq!(view.members(), &[0, 1]);
        assert_eq!(view.view_edge_count(), 4);
        assert_eq!(view.view_edges_to(1).count(), 2);
        // Non-members have empty adjacency and no reachability.
        assert!(!view.view_reachable(5, 0));
    }

    #[test]
    fn induced_for_programs_rejects_unknown_names() {
        let schema = schema();
        let graph = SummaryGraph::construct(&[find_bids(&schema)], &schema, settings());
        let err = graph
            .induced_for_programs(&["FindBids", "Nope"])
            .unwrap_err();
        assert_eq!(err.name, "Nope");
        assert!(err.to_string().contains("unknown program `Nope`"));
        assert!(err.to_string().contains("FindBids"));
        assert_eq!(
            graph.induced_for_programs(&["FindBids"]).unwrap().members(),
            &[0]
        );
    }

    #[test]
    fn add_ltps_matches_fresh_construction() {
        let schema = schema();
        let a = find_bids(&schema);
        let mut pb = ProgramBuilder::new(&schema, "Writer");
        let q = pb.key_update("qw", "Bids", &["bid"], &["bid"]).unwrap();
        pb.push(q.into());
        let b = mvrc_btp::LinearProgram::from_linear_program(&pb.build());

        for s in [
            settings(),
            AnalysisSettings {
                granularity: Granularity::Tuple,
                ..settings()
            },
        ] {
            // Two old rows, so the new edges of row 0 must land before row 1.
            let mut incremental = SummaryGraph::construct(&[a.clone(), b.clone()], &schema, s);
            let before = SummaryGraph::constructions_on_current_thread();
            incremental.add_ltps(std::slice::from_ref(&b), &schema);
            assert_eq!(
                SummaryGraph::constructions_on_current_thread(),
                before,
                "incremental extension must not count as a construction"
            );
            let fresh = SummaryGraph::construct(&[a.clone(), b.clone(), b.clone()], &schema, s);
            // The same edges in the same order, and the same derived arrays.
            assert_eq!(incremental.edges(), fresh.edges());
            assert_eq!(
                incremental.counterflow_edge_count(),
                fresh.counterflow_edge_count()
            );
            assert_eq!(incremental, fresh);
        }
    }

    #[test]
    fn remove_nodes_matches_fresh_construction() {
        let schema = schema();
        let a = find_bids(&schema);
        let mut pb = ProgramBuilder::new(&schema, "Writer");
        let q = pb.key_update("qw", "Bids", &["bid"], &["bid"]).unwrap();
        pb.push(q.into());
        let b = mvrc_btp::LinearProgram::from_linear_program(&pb.build());

        let mut graph = SummaryGraph::construct(&[a.clone(), b.clone()], &schema, settings());
        graph.remove_nodes(&[0]);
        let fresh = SummaryGraph::construct(&[b], &schema, settings());
        assert_eq!(graph.node_count(), 1);
        assert_eq!(graph.node(0).name(), "Writer");
        assert_eq!(graph.edges(), fresh.edges());
        assert_eq!(
            graph.counterflow_edge_count(),
            fresh.counterflow_edge_count()
        );
        assert_eq!(graph, fresh);
    }

    /// A seeded xorshift stream for the generated-input test.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, bound: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % bound as u64) as usize
        }
    }

    /// A generated workload: 1–4 relations chained by foreign keys (`R{r}.a1` references the
    /// key `a0` of `R{r-1}`) and 2–6 programs of 1–5 statements of all seven kinds, some
    /// optional, with random FK constraints between statements on neighbouring relations.
    fn generated_workload(rng: &mut Rng) -> (Schema, Vec<LinearProgram>) {
        const ATTRS: [&str; 4] = ["a0", "a1", "a2", "a3"];
        let relations = 1 + rng.below(4);
        let mut b = SchemaBuilder::new("generated");
        let ids: Vec<_> = (0..relations)
            .map(|r| b.relation(&format!("R{r}"), &ATTRS, &["a0"]).unwrap())
            .collect();
        for r in 1..relations {
            b.foreign_key(&format!("f{r}"), ids[r], &["a1"], ids[r - 1], &["a0"])
                .unwrap();
        }
        let schema = b.build();
        let pick = |rng: &mut Rng| -> Vec<&str> {
            (0..1 + rng.below(2)).map(|_| ATTRS[rng.below(4)]).collect()
        };
        let mut programs = Vec::new();
        for p in 0..2 + rng.below(5) {
            let mut pb = ProgramBuilder::new(&schema, format!("P{p}"));
            // (statement, relation, identifies a single tuple)
            let mut stmts = Vec::new();
            // Half the programs open with a key-based write a later FK constraint can point
            // at: the pattern under which cDepConds drops a counterflow edge.
            if relations > 1 && rng.below(2) == 0 {
                let rel = rng.below(relations - 1);
                let id = pb
                    .key_update("k", &format!("R{rel}"), &pick(rng), &pick(rng))
                    .unwrap();
                pb.push(id.into());
                stmts.push((id, rel, true));
            }
            for q in 0..1 + rng.below(5) {
                let rel = rng.below(relations);
                let (name, on) = (format!("q{q}"), format!("R{rel}"));
                let (id, single) = match rng.below(7) {
                    0 => (pb.insert(&name, &on), true),
                    1 => (pb.key_select(&name, &on, &pick(rng)), true),
                    2 => (pb.pred_select(&name, &on, &pick(rng), &pick(rng)), false),
                    3 => (pb.key_update(&name, &on, &pick(rng), &pick(rng)), true),
                    4 => (
                        pb.pred_update(&name, &on, &pick(rng), &pick(rng), &pick(rng)),
                        false,
                    ),
                    5 => (pb.key_delete(&name, &on), true),
                    _ => (pb.pred_delete(&name, &on, &pick(rng)), false),
                };
                let id = id.unwrap();
                if rng.below(4) == 0 {
                    pb.optional(id.into());
                } else {
                    pb.push(id.into());
                }
                stmts.push((id, rel, single));
            }
            for &(dom, dom_rel, _) in &stmts {
                for &(range, range_rel, single) in &stmts {
                    if single && dom_rel == range_rel + 1 && rng.below(2) == 0 {
                        pb.fk_constraint(&format!("f{dom_rel}"), dom, range)
                            .unwrap();
                    }
                }
            }
            programs.push(pb.build());
        }
        let ltps = mvrc_btp::unfold_set_le2(&programs);
        (schema, ltps)
    }

    #[test]
    fn relation_join_matches_the_all_pairs_loop_on_generated_workloads() {
        let mut rng = Rng(0x2545_F491_4F6C_DD1D);
        let mut workloads: Vec<(Schema, Vec<LinearProgram>)> =
            (0..80).map(|_| generated_workload(&mut rng)).collect();
        for w in [
            mvrc_benchmarks::smallbank(),
            mvrc_benchmarks::tpcc(),
            mvrc_benchmarks::auction_n(3),
        ] {
            workloads.push((w.schema.clone(), w.unfolded()));
        }
        let (mut edges_seen, mut counterflow_seen, mut fk_suppressed, mut edits) = (0, 0, 0, 0);
        for (k, (schema, ltps)) in workloads.iter().enumerate() {
            for granularity in [Granularity::Attribute, Granularity::Tuple] {
                let mut counterflow_by_fk = [0; 2];
                for use_foreign_keys in [false, true] {
                    let s = AnalysisSettings {
                        granularity,
                        use_foreign_keys,
                        condition: CycleCondition::TypeII,
                    };
                    let fresh = SummaryGraph::construct(ltps, schema, s);
                    let (edges, out_offsets, counterflow) =
                        reference::edges(&fresh.nodes, use_foreign_keys);
                    assert_eq!(fresh.edges, edges, "workload {k}, {s:?}");
                    assert_eq!(fresh.out_offsets, out_offsets, "workload {k}, {s:?}");
                    assert_eq!(fresh.counterflow_edges, counterflow, "workload {k}, {s:?}");
                    edges_seen += edges.len();
                    counterflow_seen += counterflow;
                    counterflow_by_fk[usize::from(use_foreign_keys)] = counterflow;
                    // The same LTPs again, added to an empty graph in random chunks.
                    for round in 0..2 {
                        let mut graph = SummaryGraph::construct::<LinearProgram>(&[], schema, s);
                        let mut at = 0;
                        while at < ltps.len() {
                            let next = at + 1 + rng.below(ltps.len() - at);
                            graph.add_ltps(&ltps[at..next], schema);
                            at = next;
                            edits += 1;
                        }
                        let context = format!("workload {k}, {s:?}, split round {round}");
                        assert_eq!(graph.edges, edges, "{context}");
                        assert_eq!(graph.out_offsets, out_offsets, "{context}");
                        assert_eq!(graph.counterflow_edges, counterflow, "{context}");
                    }
                }
                fk_suppressed += usize::from(counterflow_by_fk[1] < counterflow_by_fk[0]);
            }
        }
        assert!(
            edges_seen > 10_000 && counterflow_seen > 1_000 && fk_suppressed > 10 && edits > 500,
            "{edges_seen} edges, {counterflow_seen} counterflow, \
             {fk_suppressed} FK suppressions, {edits} edits"
        );
    }

    /// The oracle for the closure kernel: one BFS per member over the edges between members,
    /// one `⌈n/64⌉`-word row per member (ascending), columns node ids.
    fn bfs_rows(graph: &SummaryGraph, members: &[NodeId]) -> Vec<u64> {
        let n = graph.node_count();
        let words = n.div_ceil(64).max(1);
        let is_member = |v: usize| members.binary_search(&v).is_ok();
        let mut rows = vec![0u64; members.len() * words];
        for (row, &start) in members.iter().enumerate() {
            let mut seen = vec![false; n];
            let mut stack = vec![start];
            seen[start] = true;
            while let Some(v) = stack.pop() {
                rows[row * words + v / 64] |= 1u64 << (v % 64);
                for e in graph.edges_from(v) {
                    let to = e.to as usize;
                    if is_member(to) && !seen[to] {
                        seen[to] = true;
                        stack.push(to);
                    }
                }
            }
        }
        rows
    }

    #[test]
    fn closure_rows_match_a_bfs_over_the_edges_for_graphs_and_induced_views() {
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        let mut workloads: Vec<(Schema, Vec<LinearProgram>)> =
            (0..30).map(|_| generated_workload(&mut rng)).collect();
        // 63, 66 and 129 nodes: rows of one full word, of a partial second word, and of three
        // words with one bit in the last.
        for n in [21, 22, 43] {
            let w = mvrc_benchmarks::auction_n(n);
            workloads.push((w.schema.clone(), w.unfolded()));
        }
        let mut views = 0;
        for (k, (schema, ltps)) in workloads.iter().enumerate() {
            let graph = SummaryGraph::construct(ltps, schema, settings());
            let n = graph.node_count();
            let before = SummaryGraph::closures_computed_on_current_thread();
            let (words, bits) = graph.reachability_words();
            assert_eq!(words, n.div_ceil(64).max(1));
            assert_eq!(bits.len(), n * words, "workload {k}");
            let all: Vec<NodeId> = (0..n).collect();
            assert_eq!(bits, bfs_rows(&graph, &all), "workload {k}");
            for _ in 0..6 {
                let keep = 1 + rng.below(4);
                let members: Vec<NodeId> = (0..n).filter(|_| rng.below(4) < keep).collect();
                let view = graph.induced(&members);
                let want = bfs_rows(&graph, &members);
                for (pos, &m) in members.iter().enumerate() {
                    assert_eq!(
                        view.view_reachable_row(m),
                        &want[pos * words..(pos + 1) * words],
                        "workload {k}, members {members:?}"
                    );
                }
                views += 1;
            }
            // One derivation per graph: reads, prefetched views and induced views reuse it.
            assert!(n == 0 || graph.reachable(0, 0));
            let _ = graph.prefetched();
            assert_eq!(
                SummaryGraph::closures_computed_on_current_thread(),
                before + 1,
                "workload {k}"
            );
            // A graph reopened with its closure words derives no closure.
            let reopened = SummaryGraph::from_snapshot_parts(
                ltps,
                schema,
                settings(),
                graph.edges().to_vec(),
                bits.to_vec(),
            )
            .unwrap();
            assert_eq!(reopened, graph);
            assert_eq!(reopened.reachability_words().1, bits);
            assert_eq!(
                SummaryGraph::closures_computed_on_current_thread(),
                before + 1,
                "workload {k}"
            );
        }
        assert_eq!(views, workloads.len() * 6);
    }
}
