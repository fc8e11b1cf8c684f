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

use crate::kernels;
use crate::settings::{AnalysisSettings, CycleCondition, Granularity};
use crate::tables::{c_dep_table, nc_dep_table};
use mvrc_btp::{LinearProgram, Statement, StmtPos};
use mvrc_schema::Schema;
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Index of an LTP node within a [`SummaryGraph`].
pub type NodeId = usize;

/// Flavour of a summary-graph edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SummaryEdge {
    /// The source program node.
    pub from: NodeId,
    /// Position of the source statement `q_i` within the source LTP.
    pub from_stmt: StmtPos,
    /// Edge flavour.
    pub kind: EdgeKind,
    /// Position of the target statement `q_j` within the target LTP.
    pub to_stmt: StmtPos,
    /// The target program node.
    pub to: NodeId,
}

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

/// FNV-1a (64-bit) fold over a byte slice, continuing from `hash`. Seed with
/// [`FNV_OFFSET_BASIS`]. Used by the structural fingerprints below; not cryptographic — it
/// guards the verdict-reuse engine against *mistakes* (matching a renamed-in-place program by
/// name alone), not against adversaries.
const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

#[inline]
fn fnv_fold(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[inline]
fn fnv_u64(hash: u64, v: u64) -> u64 {
    fnv_fold(hash, &v.to_le_bytes())
}

/// A structural fingerprint of one program's unfolded LTP set — the identity the verdict-reuse
/// engine ([`crate::CachedSweep`]) matches programs by when rebasing cached subset verdicts
/// onto an edited workload.
///
/// The fingerprint covers everything a program contributes to Algorithm 1 edges: per LTP the
/// statement sequence (relation id, statement kind, predicate-read/read/write attribute sets)
/// and the foreign-key constraint positions, in order. It deliberately covers *no names*:
/// renaming a program (or its statements) cannot change any summary-graph edge, so cached
/// verdicts stay reusable across renames — while a same-named program whose body changed
/// fingerprints differently and is treated as removed-and-re-added.
pub fn program_fingerprint<'a>(ltps: impl IntoIterator<Item = &'a LinearProgram>) -> u64 {
    let mut hash = FNV_OFFSET_BASIS;
    for ltp in ltps {
        // Length-prefix every list so concatenations cannot collide across LTP boundaries.
        hash = fnv_u64(hash, ltp.len() as u64);
        for (_, stmt) in ltp.statements() {
            hash = fnv_u64(hash, u64::from(stmt.rel().0));
            hash = fnv_u64(hash, stmt.kind().table_index() as u64);
            for set in [stmt.pread_set(), stmt.read_set(), stmt.write_set()] {
                match set {
                    None => hash = fnv_fold(hash, &[0]),
                    Some(attrs) => {
                        hash = fnv_fold(hash, &[1]);
                        hash = fnv_u64(hash, attrs.bits());
                    }
                }
            }
        }
        hash = fnv_u64(hash, ltp.fk_constraints().len() as u64);
        for c in ltp.fk_constraints() {
            hash = fnv_u64(hash, u64::from(c.fk.0));
            hash = fnv_u64(hash, c.dom_pos as u64);
            hash = fnv_u64(hash, c.range_pos as u64);
        }
    }
    hash
}

/// A compact bit-matrix recording reachability: one row per tracked source node, one bit per
/// node of the underlying id space (the *universe*). The full graph tracks every node; an
/// [`InducedView`] tracks only its members, so a view over `m` of `n` nodes costs `m · ⌈n/64⌉`
/// words instead of `n · ⌈n/64⌉`. The rows are computed by the word-parallel SCC-condensation
/// closure of the `kernels` module (the former BFS-per-source survives only as a test oracle);
/// a graph reopened from a snapshot gets them decoded from the file instead.
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

/// Edge indices in compressed-sparse-row layout, grouped by one endpoint:
/// `targets[offsets[v]..offsets[v + 1]]` are the indices (ascending) of the edges whose
/// endpoint is `v`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Csr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Csr {
    fn build(n: usize, edges: &[SummaryEdge], endpoint: impl Fn(&SummaryEdge) -> usize) -> Csr {
        assert!(
            u32::try_from(edges.len()).is_ok(),
            "summary graph exceeds u32 edge indices"
        );
        let mut offsets = vec![0u32; n + 1];
        for e in edges {
            offsets[endpoint(e) + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0u32; edges.len()];
        for (idx, e) in edges.iter().enumerate() {
            let v = endpoint(e);
            targets[cursor[v] as usize] = idx as u32;
            cursor[v] += 1;
        }
        Csr { offsets, targets }
    }

    #[inline]
    fn slice(&self, v: usize) -> &[u32] {
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }
}

/// The derived arrays of a [`SummaryGraph`] — what the snapshot layer persists and hands
/// back to [`SummaryGraph::from_snapshot_parts_with_derived`] so a warm start installs the
/// decoded arrays instead of re-deriving them.
pub struct SummaryGraphDerived {
    /// Out-adjacency CSR offsets (`n + 1` entries).
    pub out_offsets: Vec<u32>,
    /// Out-adjacency CSR targets: edge indices grouped by source node.
    pub out_targets: Vec<u32>,
    /// In-adjacency CSR offsets (`n + 1` entries).
    pub in_offsets: Vec<u32>,
    /// In-adjacency CSR targets: edge indices grouped by target node.
    pub in_targets: Vec<u32>,
    /// Reachability rows, `n · ⌈n/64⌉` words row-major (`⌈0/64⌉` reads as `1`; see
    /// [`SummaryGraph::reachability_words`]).
    pub reach_bits: Vec<u64>,
}

/// Checks that `csr` is byte-identical to the CSR [`Csr::build`] would derive: correct
/// dimensions, monotone offsets covering every edge, and per group only in-range, strictly
/// ascending edge indices with the right endpoint. Ascending order within groups plus the
/// total length forces every edge index to appear exactly once (an index can only ever sit in
/// its own endpoint's group).
fn validate_csr(
    csr: &Csr,
    n: usize,
    edges: &[SummaryEdge],
    endpoint: impl Fn(&SummaryEdge) -> usize,
    which: &str,
) -> Result<(), String> {
    let offsets = &csr.offsets;
    let targets = &csr.targets;
    if offsets.len() != n + 1 || offsets[0] != 0 {
        return Err(format!("{which}-adjacency offsets malformed"));
    }
    if targets.len() != edges.len() || *offsets.last().unwrap() as usize != edges.len() {
        return Err(format!(
            "{which}-adjacency does not cover the edge list exactly"
        ));
    }
    for v in 0..n {
        // Bounding each offset by the target count before slicing: the last-offset check
        // above says nothing about a corrupt offset in the middle.
        if offsets[v] > offsets[v + 1] || offsets[v + 1] as usize > targets.len() {
            return Err(format!(
                "{which}-adjacency offsets not monotone at node {v}"
            ));
        }
        let group = &targets[offsets[v] as usize..offsets[v + 1] as usize];
        for (k, &t) in group.iter().enumerate() {
            if t as usize >= edges.len() {
                return Err(format!("{which}-adjacency edge index {t} out of range"));
            }
            if endpoint(&edges[t as usize]) != v {
                return Err(format!(
                    "{which}-adjacency edge {t} grouped under wrong node {v}"
                ));
            }
            if k > 0 && group[k - 1] >= t {
                return Err(format!(
                    "{which}-adjacency group of node {v} not strictly ascending"
                ));
            }
        }
    }
    Ok(())
}

/// The summary graph over a set of LTPs.
///
/// The adjacency (CSR edge-index arrays) and the reachability closure are *lazily derived*
/// from `(nodes, edges)`: construction and incremental edits stop at the edge list, and each
/// derived array is built on first use — a sweep that queries only out-adjacency never pays
/// for the in-adjacency or the closure. A graph reopened from an `mvrc-dist` snapshot
/// has the derived arrays pre-installed, decoded from the file
/// ([`SummaryGraph::from_snapshot_parts_with_derived`]), and never derives anything.
///
/// `PartialEq` compares every derived array as well (forcing their derivation) — the
/// bit-identity contract of the `mvrc-dist` snapshot round-trip tests.
#[derive(Debug, Clone)]
pub struct SummaryGraph {
    /// The (widened) LTP nodes. Each node is `Arc`-shared so the cached graphs of one session
    /// — and the graph entries of one `mvrc-dist` snapshot — can hold the *same* decoded LTPs
    /// by reference instead of deep-cloning them per entry; cloning a graph or reassembling
    /// one from snapshot parts bumps reference counts only.
    nodes: Vec<Arc<LinearProgram>>,
    edges: Vec<SummaryEdge>,
    settings: AnalysisSettings,
    out_adj: OnceLock<Csr>,
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
            && self.out_csr() == other.out_csr()
            && self.in_csr() == other.in_csr()
            && self.reachability() == other.reachability()
    }
}

/// Derives the Algorithm 1 edges between one ordered node pair `(i, j)` and appends them to
/// `edges`. Factored out so that incremental maintenance re-derives exactly the pairs touching
/// changed nodes.
fn push_pair_edges(
    i: NodeId,
    pi: &LinearProgram,
    j: NodeId,
    pj: &LinearProgram,
    settings: AnalysisSettings,
    edges: &mut Vec<SummaryEdge>,
) {
    for (pos_i, qi) in pi.statements() {
        for (pos_j, qj) in pj.statements() {
            if qi.rel() != qj.rel() {
                continue;
            }
            let allow_nc = match nc_dep_table(qi.kind(), qj.kind()) {
                Some(v) => v,
                None => nc_dep_conds(qi, qj),
            };
            if allow_nc {
                edges.push(SummaryEdge {
                    from: i,
                    from_stmt: pos_i,
                    kind: EdgeKind::NonCounterflow,
                    to_stmt: pos_j,
                    to: j,
                });
            }
            let allow_c = match c_dep_table(qi.kind(), qj.kind()) {
                Some(v) => v,
                None => c_dep_conds(pi, pos_i, qi, pj, pos_j, qj, settings.use_foreign_keys),
            };
            if allow_c {
                edges.push(SummaryEdge {
                    from: i,
                    from_stmt: pos_i,
                    kind: EdgeKind::Counterflow,
                    to_stmt: pos_j,
                    to: j,
                });
            }
        }
    }
}

impl SummaryGraph {
    /// Algorithm 1: constructs `SuG(𝒫)` for a set of LTPs under the given settings.
    ///
    /// The `granularity` setting is applied by widening every defined attribute set to the full
    /// attribute set of its relation; the `use_foreign_keys` setting controls the foreign-key
    /// suppression inside `cDepConds`.
    pub fn construct(ltps: &[LinearProgram], schema: &Schema, settings: AnalysisSettings) -> Self {
        CONSTRUCTIONS.with(|c| c.set(c.get() + 1));
        let nodes = widen_ltps(ltps, schema, settings.granularity);

        let mut edges = Vec::new();
        for (i, pi) in nodes.iter().enumerate() {
            for (j, pj) in nodes.iter().enumerate() {
                push_pair_edges(i, pi, j, pj, settings, &mut edges);
            }
        }

        SummaryGraph::new_lazy(nodes, edges, settings)
    }

    /// A graph whose derived arrays (adjacency CSR, closure) are built on first use.
    fn new_lazy(
        nodes: Vec<Arc<LinearProgram>>,
        edges: Vec<SummaryEdge>,
        settings: AnalysisSettings,
    ) -> Self {
        SummaryGraph {
            nodes,
            edges,
            settings,
            out_adj: OnceLock::new(),
            in_adj: OnceLock::new(),
            reach: OnceLock::new(),
            lane_plans: [OnceLock::new(), OnceLock::new()],
        }
    }

    /// Drops every derived array; each is re-derived lazily on its next use.
    fn clear_derived(&mut self) {
        self.out_adj = OnceLock::new();
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

    /// The out-adjacency CSR (edge indices grouped by source), derived on first use.
    fn out_csr(&self) -> &Csr {
        self.out_adj
            .get_or_init(|| Csr::build(self.nodes.len(), &self.edges, |e| e.from))
    }

    /// The in-adjacency CSR (edge indices grouped by target), derived on first use.
    fn in_csr(&self) -> &Csr {
        self.in_adj
            .get_or_init(|| Csr::build(self.nodes.len(), &self.edges, |e| e.to))
    }

    /// The reachability closure, derived on first use by the word-parallel SCC-condensation
    /// kernel. Each actual derivation advances the thread-local closure counter
    /// ([`Self::closures_computed_on_current_thread`]) — snapshot-installed closures never do.
    fn reachability(&self) -> &Reachability {
        self.reach.get_or_init(|| {
            CLOSURES.with(|c| c.set(c.get() + 1));
            let n = self.nodes.len();
            let words_per_row = n.div_ceil(64).max(1);
            let out = self.out_csr();
            let rows = kernels::transitive_closure(
                n,
                words_per_row,
                |v| v,
                |v| out.slice(v).len(),
                |v, k| self.edges[out.slice(v)[k] as usize].to,
            );
            Reachability {
                words_per_row,
                bits: rows,
            }
        })
    }

    /// Incrementally extends the graph with additional LTPs.
    ///
    /// Because Algorithm 1 derives edges pairwise, only the edge rows touching the new nodes
    /// have to be computed: the `(old, new)`, `(new, old)` and `(new, new)` pairs. Existing
    /// edges are untouched; the derived arrays (adjacency, closure — neither is preserved
    /// under node addition) are invalidated and rebuilt lazily on next use. The construction
    /// counter does **not** advance.
    pub fn add_ltps(&mut self, ltps: &[LinearProgram], schema: &Schema) {
        let old_n = self.nodes.len();
        self.nodes
            .extend(widen_ltps(ltps, schema, self.settings.granularity));
        for (i, pi) in self.nodes.iter().enumerate() {
            for (j, pj) in self.nodes.iter().enumerate() {
                if i < old_n && j < old_n {
                    continue;
                }
                push_pair_edges(i, pi, j, pj, self.settings, &mut self.edges);
            }
        }
        self.clear_derived();
    }

    /// Incrementally removes a set of nodes (and every edge touching them), compacting node
    /// ids: surviving nodes are renumbered to `0..new_len` in their existing order.
    ///
    /// No Algorithm 1 work is performed at all — the edges between surviving nodes are exactly
    /// the surviving edges (edge derivation is pairwise); adjacency and reachability are
    /// invalidated and re-derived lazily.
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
        let mut new_id = vec![usize::MAX; n];
        let mut next = 0;
        for (id, &k) in keep.iter().enumerate() {
            if k {
                new_id[id] = next;
                next += 1;
            }
        }
        let mut idx = 0;
        self.nodes.retain(|_| {
            let k = keep[idx];
            idx += 1;
            k
        });
        self.edges.retain_mut(|e| {
            if keep[e.from] && keep[e.to] {
                e.from = new_id[e.from];
                e.to = new_id[e.to];
                true
            } else {
                false
            }
        });
        self.clear_derived();
    }

    /// Reassembles a graph from persisted parts — the deserialization hook of the `mvrc-dist`
    /// snapshot layer.
    ///
    /// `nodes` must be the already-widened LTPs the graph was built over, `edges` its complete
    /// Algorithm 1 edge list and `derived` its derived arrays (decoded from a snapshot file).
    /// They are installed after structural validation; no edge derivation, no adjacency build
    /// and **no closure computation** runs, so opening a snapshot is O(validation) in the edge
    /// count and advances neither the construction counter nor the closure counter.
    ///
    /// Validation checks that the adjacency arrays are exactly the CSR this graph would derive
    /// from `edges` (offset monotonicity, group membership, ascending edge indices per group —
    /// which together force bit-identity with a fresh derivation) and that the reachability
    /// rows have the exact derived dimensions. The reachability *contents* are not recomputed —
    /// they are covered by the snapshot file's fingerprint, which the caller verifies.
    pub fn from_snapshot_parts_with_derived(
        nodes: Vec<Arc<LinearProgram>>,
        edges: Vec<SummaryEdge>,
        settings: AnalysisSettings,
        derived: SummaryGraphDerived,
    ) -> Result<Self, String> {
        let n = nodes.len();
        for e in &edges {
            if e.from >= n || e.to >= n {
                return Err(format!("graph edge endpoint out of range ({n} nodes)"));
            }
            if e.from_stmt >= nodes[e.from].len() || e.to_stmt >= nodes[e.to].len() {
                return Err("graph edge statement position out of range".to_string());
            }
        }
        let out = Csr {
            offsets: derived.out_offsets,
            targets: derived.out_targets,
        };
        let in_ = Csr {
            offsets: derived.in_offsets,
            targets: derived.in_targets,
        };
        validate_csr(&out, n, &edges, |e| e.from, "out")?;
        validate_csr(&in_, n, &edges, |e| e.to, "in")?;
        let words_per_row = n.div_ceil(64).max(1);
        if derived.reach_bits.len() != n * words_per_row {
            return Err(format!(
                "reachability rows have {} words, expected {}",
                derived.reach_bits.len(),
                n * words_per_row
            ));
        }
        let graph = SummaryGraph::new_lazy(nodes, edges, settings);
        let _ = graph.out_adj.set(out);
        let _ = graph.in_adj.set(in_);
        let _ = graph.reach.set(Reachability {
            words_per_row,
            bits: derived.reach_bits,
        });
        Ok(graph)
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

    /// The out-adjacency CSR arrays `(offsets, targets)` — edge indices grouped by source
    /// node, `n + 1` offsets over `edge_count` targets. Forces derivation; exposed for the
    /// `mvrc-dist` snapshot writer, which persists the derived arrays verbatim.
    pub fn out_adjacency(&self) -> (&[u32], &[u32]) {
        let csr = self.out_csr();
        (&csr.offsets, &csr.targets)
    }

    /// The in-adjacency CSR arrays `(offsets, targets)` — edge indices grouped by target node.
    /// Forces derivation; exposed for the `mvrc-dist` snapshot writer.
    pub fn in_adjacency(&self) -> (&[u32], &[u32]) {
        let csr = self.in_csr();
        (&csr.offsets, &csr.targets)
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
        self.edges
            .iter()
            .filter(|e| e.kind.is_counterflow())
            .count()
    }

    /// The LTP at a node.
    pub fn node(&self, id: NodeId) -> &LinearProgram {
        &self.nodes[id]
    }

    /// All nodes with their ids.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &LinearProgram)> {
        self.nodes.iter().enumerate().map(|(id, n)| (id, &**n))
    }

    /// The `Arc`-shared node list itself — the serialization sharing hook of the `mvrc-dist`
    /// snapshot layer: cloning the returned vector bumps reference counts only, so graph
    /// entries decoded from one snapshot can hold the same LTP allocations.
    pub fn shared_nodes(&self) -> &[Arc<LinearProgram>] {
        &self.nodes
    }

    /// Looks up a node by LTP name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.nodes.iter().position(|n| n.name() == name)
    }

    /// All edges.
    pub fn edges(&self) -> &[SummaryEdge] {
        &self.edges
    }

    /// Edges leaving a node.
    pub fn edges_from(&self, node: NodeId) -> impl Iterator<Item = &SummaryEdge> {
        self.out_csr()
            .slice(node)
            .iter()
            .map(move |&idx| &self.edges[idx as usize])
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
        self.edges_from(node).filter(|e| e.kind.is_counterflow())
    }

    /// Edges between a specific pair of nodes.
    pub fn edges_between(&self, from: NodeId, to: NodeId) -> impl Iterator<Item = &SummaryEdge> {
        self.edges_from(from).filter(move |e| e.to == to)
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
        describe_edge_between(self.node(edge.from), self.node(edge.to), edge)
    }

    /// The induced subgraph over a set of node ids.
    ///
    /// The view borrows this graph: it keeps the edges whose endpoints both lie in `members`
    /// and recomputes only the reachability closure, which — unlike the edge set — is not
    /// preserved under taking induced subgraphs (paths may run through excluded nodes).
    ///
    /// The construction iterates **only the member nodes' adjacency lists** — `O(Σ deg(m))`
    /// over the members `m`, not `O(E)` over the parent's full edge list — and draws its
    /// temporaries (membership mask, position lookup) from a reusable thread-local scratch, so
    /// the subset-exploration hot loop performs no universe-sized allocations per view. The member-local reachability is computed by the word-parallel
    /// SCC-condensation kernel of the `kernels` module over the kept edges.
    ///
    /// Since the edges of `SuG(𝒫)` are defined pairwise over the LTPs of `𝒫` (Algorithm 1
    /// consults only `P_i` and `P_j` for an edge between them), the induced view over the nodes
    /// of `𝒫' ⊆ 𝒫` is *identical* to `SuG(𝒫')` up to node numbering — this is what lets the
    /// subset exploration construct a single graph instead of one per subset.
    pub fn induced(&self, members: &[NodeId]) -> InducedView<'_> {
        let mut members = members.to_vec();
        // The subset-exploration hot loop always passes strictly ascending ids; only pay for
        // normalization when the caller didn't.
        if !members.windows(2).all(|w| w[0] < w[1]) {
            members.sort_unstable();
            members.dedup();
        }
        let n = self.nodes.len();
        let m = members.len();
        let words = n.div_ceil(64).max(1);
        let out = self.out_csr();

        // Kept edges in CSR layout, grouped by source member, plus each kept edge's target
        // *member position* (`succ_pos`), which is what the closure kernel walks below.
        let (out_csr, out_offsets, in_csr, in_offsets, succ_pos) =
            with_induced_scratch(|scratch| {
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
                let in_mask = |id: NodeId| scratch.mask[id / 64] & (1u64 << (id % 64)) != 0;

                let mut out_csr = Vec::new();
                let mut succ_pos: Vec<u32> = Vec::new();
                let mut out_offsets = Vec::with_capacity(m + 1);
                let mut in_degree = vec![0usize; m];
                out_offsets.push(0);
                let parent_offsets = &out.offsets;
                let parent_targets = &out.targets;
                for &member in &members {
                    for &edge_idx in &parent_targets
                        [parent_offsets[member] as usize..parent_offsets[member + 1] as usize]
                    {
                        let to = self.edges[edge_idx as usize].to;
                        if in_mask(to) {
                            out_csr.push(edge_idx as usize);
                            succ_pos.push(scratch.pos_of[to]);
                            in_degree[scratch.pos_of[to] as usize] += 1;
                        }
                    }
                    out_offsets.push(out_csr.len());
                }
                let mut in_offsets = Vec::with_capacity(m + 1);
                in_offsets.push(0);
                for &d in &in_degree {
                    in_offsets.push(in_offsets.last().unwrap() + d);
                }
                let mut cursor = in_offsets.clone();
                let mut in_csr = vec![0usize; out_csr.len()];
                for &edge_idx in &out_csr {
                    let pos = scratch.pos_of[self.edges[edge_idx].to] as usize;
                    in_csr[cursor[pos]] = edge_idx;
                    cursor[pos] += 1;
                }
                (out_csr, out_offsets, in_csr, in_offsets, succ_pos)
            });

        // Rows are member positions, columns are universe node ids (so views share the
        // parent's bitset numbering).
        let rows = kernels::transitive_closure(
            m,
            words,
            |p| members[p],
            |p| out_offsets[p + 1] - out_offsets[p],
            |p, k| succ_pos[out_offsets[p] + k] as usize,
        );

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

/// Applies the granularity setting to a slice of LTPs, wrapping each node in an [`Arc`] (the
/// sharing unit of [`SummaryGraph::shared_nodes`]).
fn widen_ltps(
    ltps: &[LinearProgram],
    schema: &Schema,
    granularity: Granularity,
) -> Vec<Arc<LinearProgram>> {
    match granularity {
        Granularity::Attribute => ltps.iter().map(|l| Arc::new(l.clone())).collect(),
        Granularity::Tuple => ltps
            .iter()
            .map(|l| Arc::new(l.widen_to_tuple_granularity(|rel| schema.all_attrs(rel))))
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
    describe_edge_between(view.node(edge.from), view.node(edge.to), edge)
}

fn describe_edge_between(from: &LinearProgram, to: &LinearProgram, edge: &SummaryEdge) -> String {
    format!(
        "{} --[{} -> {}, {}]--> {}",
        from.name(),
        from.statement(edge.from_stmt).name(),
        to.statement(edge.to_stmt).name(),
        edge.kind,
        to.name()
    )
}

/// The full-graph view, with the derived arrays *prefetched*: both CSRs and the reachability
/// words are taken out of their lazily initialised `OnceLock`s once, at construction, so the
/// cycle-test kernels index plain slices instead of re-checking each lock per edge walk or
/// reachability probe (the word-parallel type-II scan makes millions of single-bit probes).
/// It is the only [`SummaryGraphView`] over a whole graph: every cycle test, the DOT
/// renderer and the witness checks go through [`SummaryGraph::prefetched`].
pub struct PrefetchedView<'g> {
    graph: &'g SummaryGraph,
    out_offsets: &'g [u32],
    out_targets: &'g [u32],
    in_offsets: &'g [u32],
    in_targets: &'g [u32],
    words_per_row: usize,
    reach_bits: &'g [u64],
}

impl SummaryGraph {
    /// A [`PrefetchedView`] over the whole graph. Forces derivation of the CSRs and the
    /// reachability closure (a no-op on warm-started graphs, which have them installed).
    pub fn prefetched(&self) -> PrefetchedView<'_> {
        let out = self.out_csr();
        let in_ = self.in_csr();
        let reach = self.reachability();
        PrefetchedView {
            graph: self,
            out_offsets: &out.offsets,
            out_targets: &out.targets,
            in_offsets: &in_.offsets,
            in_targets: &in_.targets,
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
        self.in_targets[self.in_offsets[node] as usize..self.in_offsets[node + 1] as usize]
            .iter()
            .map(move |&idx| &self.graph.edges[idx as usize])
    }

    fn view_counterflow_edges_from(&self, node: NodeId) -> impl Iterator<Item = &SummaryEdge> + '_ {
        self.out_targets[self.out_offsets[node] as usize..self.out_offsets[node + 1] as usize]
            .iter()
            .map(move |&idx| &self.graph.edges[idx as usize])
            .filter(|e| e.kind.is_counterflow())
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
}

/// A borrowed induced subgraph of a [`SummaryGraph`]: the nodes in a member set plus every edge
/// whose endpoints both lie in it, with freshly computed view-local reachability.
///
/// Node ids are the *parent graph's* ids; internally, adjacency is stored in CSR layout indexed
/// by member *position* (ids are mapped by binary search over the sorted member list), and the
/// reachability matrix holds one row per member — so a view over `m` of `n` nodes costs
/// `O(Σ deg(members) + m · n/64)` space, independent of the parent's total edge count. Building
/// a view is `O(Σ deg(members))` plus the member-local BFS, compared to re-running Algorithm 1,
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
/// member-position lookup, one set per thread, so a thread sweeping thousands of subset views
/// touches the same warm buffers for the whole sweep.
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
        assert_eq!(graph.edges_from(0).count(), 2);
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
            let mut incremental = SummaryGraph::construct(std::slice::from_ref(&a), &schema, s);
            let before = SummaryGraph::constructions_on_current_thread();
            incremental.add_ltps(std::slice::from_ref(&b), &schema);
            assert_eq!(
                SummaryGraph::constructions_on_current_thread(),
                before,
                "incremental extension must not count as a construction"
            );
            let fresh = SummaryGraph::construct(&[a.clone(), b.clone()], &schema, s);
            let mut inc_edges = incremental.edges().to_vec();
            let mut fresh_edges = fresh.edges().to_vec();
            inc_edges.sort();
            fresh_edges.sort();
            assert_eq!(inc_edges, fresh_edges);
            for i in 0..2 {
                for j in 0..2 {
                    assert_eq!(incremental.reachable(i, j), fresh.reachable(i, j));
                }
            }
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
        let mut got = graph.edges().to_vec();
        let mut want = fresh.edges().to_vec();
        got.sort();
        want.sort();
        assert_eq!(got, want);
        assert_eq!(graph.reachable(0, 0), fresh.reachable(0, 0));
    }
}
