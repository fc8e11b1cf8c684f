//! Word-parallel bitset kernels: the transitive-closure and row-combination primitives behind
//! [`crate::SummaryGraph`] reachability and the type-II robustness check.
//!
//! The closure replaces the former BFS-per-source. One iterative Tarjan pass condenses the
//! graph into strongly connected components; Tarjan completes components in *reverse
//! topological order*, so by the time a component pops off the stack the reachability rows of
//! every successor component are already final — the component's own row is just its members'
//! self bits OR-ed with those successor rows, 64 destination nodes per word operation, one OR
//! per edge instead of one traversal step per `(source, edge)` pair. Member rows are then
//! materialized by copying their component's row; above [`PARALLEL_WORDS_THRESHOLD`] total
//! words that copy fans out over `mvrc-par` row chunks (chunks are reduced in index order, so
//! the ordered concatenation reassembles the matrix row by row).
//!
//! Small closures — every induced view of the subset sweep — stay on a strictly serial path
//! that draws its temporaries from per-worker scratch, performing no pool interaction and no
//! steady-state allocation beyond the returned rows.
//!
//! # Bit-sliced subset sweeps
//!
//! [`sweep_lanes`] turns the word-parallel trick around: instead of packing 64 *destination
//! nodes* per word (the closure above), it packs up to 64 *subsets* of one popcount level into
//! the 64 bit **lanes** of a `u64`. The membership-word encoding: every graph node `v` carries
//! one word `member[v]` whose bit `i` means "node `v`'s program is in subset `i`". A single
//! traversal of the shared summary graph then evaluates all lanes at once — the lane-masked
//! reachability matrix `reach[u·n + v]` has bit `i` set exactly when `v` is reachable from `u`
//! through lane-`i` members only (reflexively, so a set bit also certifies `u` and `v` are
//! members), and the type-I / type-II cycle conditions become word AND/OR combinations of
//! those rows, each `u64` operation deciding the same step for 64 subsets.
//!
//! Batching whole rank ranges this way is sound with Proposition 5.2 pruning in effect: the
//! inheritance check for a level-`k` mask reads only its one-bit supersets, which live at level
//! `k + 1` — pruning information flows strictly from level `k + 1` down to level `k`, never
//! within a level. Deferring the publication of a level-`k` verdict until its lane batch
//! flushes therefore cannot change any pruning decision (or counter) of the same level, and
//! the level barrier of the sweep guarantees every batch flushes before level `k - 1` starts.
//!
//! The structure shared by all lanes — deduplicated edge pairs, counterflow pairs, the
//! non-counterflow pairs grouped by source, the pair-condition tests of Algorithm 2 — is
//! compiled once per graph and condition into a [`LanePlan`]
//! (`crate::algorithm::compile_lane_plan`) and cached on the graph, so a batch costs one
//! fixpoint over node pairs instead of up to 64 Tarjan condensations.

use crate::settings::CycleCondition;
use mvrc_par::{fold_chunks, Parallelism, WorkerLocal};
use std::cell::RefCell;
use std::sync::OnceLock;

/// Total closure size (`rows · words_per_row`) from which the row materialization is worth
/// fanning out over the pool. Below it (every subset-sweep view, most full graphs) the whole
/// kernel runs inline on the caller with reusable scratch.
pub(crate) const PARALLEL_WORDS_THRESHOLD: usize = 1 << 15;

/// `dst |= src`, word-wise. Chunked by four words so the loop autovectorizes.
#[inline]
pub(crate) fn or_into(dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len());
    let mut d = dst.chunks_exact_mut(4);
    let mut s = src.chunks_exact(4);
    for (dw, sw) in d.by_ref().zip(s.by_ref()) {
        dw[0] |= sw[0];
        dw[1] |= sw[1];
        dw[2] |= sw[2];
        dw[3] |= sw[3];
    }
    for (dw, sw) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *dw |= *sw;
    }
}

#[inline]
pub(crate) fn test_bit(words: &[u64], bit: usize) -> bool {
    words[bit / 64] & (1u64 << (bit % 64)) != 0
}

#[inline]
pub(crate) fn set_bit(words: &mut [u64], bit: usize) {
    words[bit / 64] |= 1u64 << (bit % 64);
}

#[inline]
pub(crate) fn clear_bit(words: &mut [u64], bit: usize) {
    words[bit / 64] &= !(1u64 << (bit % 64));
}

/// Lane-independent description of one summary graph for [`sweep_lanes`], compiled once per
/// `(graph, condition)` by `crate::algorithm::compile_lane_plan` and shared by every batch:
/// the deduplicated node-pair structure and the precomputed pair-condition tests of
/// Algorithm 2 (which depend only on per-node statement data common to all induced views).
#[derive(Debug, Clone)]
pub(crate) struct LanePlan {
    /// Number of graph nodes: the rows/columns of the lane reachability matrix.
    pub(crate) universe: usize,
    /// The cycle condition the plan was compiled for.
    pub(crate) condition: CycleCondition,
    /// Deduplicated `(from, to)` node pairs (`from != to`) connected by any edge — the
    /// propagation steps of the reachability fixpoint. Ordered by ascending full-graph reach
    /// count of the source, so acyclic stretches converge in a single pass (an edge source
    /// always reaches strictly more nodes than its target unless they share an SCC).
    pub(crate) edge_pairs: Vec<(u32, u32)>,
    /// Deduplicated counterflow `(from, to)` node pairs: the type-I cycle tests.
    pub(crate) cf_pairs: Vec<(u32, u32)>,
    /// Deduplicated non-counterflow `(P_1, P_2)` node pairs, sorted so the pairs of one
    /// source `P_1` are contiguous: each ORs `P_2`'s reach row into its source's `nc_close` row.
    pub(crate) nc_pairs: Vec<(u32, u32)>,
    /// The distinct `P_1` of [`nc_pairs`](Self::nc_pairs) in ascending order, one `nc_close`
    /// row each.
    pub(crate) nc_sources: Vec<u32>,
    /// Sorted, deduplicated counterflow targets — the candidate `P_5` nodes, one closing-set
    /// row each.
    pub(crate) candidates: Vec<u32>,
    /// The type-II final loop, grouped per `(candidate, P_4)`: which `P_3` nodes complete an
    /// adjacent edge pair satisfying the pair condition of Theorem 6.4.
    pub(crate) type2_groups: Vec<LaneType2Group>,
    /// Flat backing store for the [`LaneType2Group::froms`] ranges.
    pub(crate) type2_froms: Vec<u32>,
}

/// One group of the type-II final loop: for a fixed counterflow node pair `(P_4, P_5)`, the
/// distinct `P_3` nodes with a concrete adjacent edge pair `(P_3 → P_4, P_4 → P_5)` passing
/// the pair condition.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaneType2Group {
    /// `P_4`, the counterflow edge's source; its membership word gates the whole group.
    pub(crate) cf_from: u32,
    /// Index of `P_5` in [`LanePlan::candidates`] (selects the closing-set row).
    pub(crate) candidate: u32,
    /// `start..end` range into [`LanePlan::type2_froms`].
    pub(crate) froms: (u32, u32),
}

/// Reusable lane-kernel temporaries: the membership words the caller fills per batch, plus the
/// reachability, per-source and closing-set matrices [`sweep_lanes`] rebuilds from them. Lives
/// in the per-worker sweep scratch so batches perform no steady-state allocation.
#[derive(Debug, Default)]
pub(crate) struct LaneScratch {
    /// Membership words, one per graph node: bit `i` ⇔ the node's program is in subset `i`.
    pub(crate) member: Vec<u64>,
    /// Lane-masked reachability, row-major `universe × universe` words: bit `i` of
    /// `reach[u·n + v]` ⇔ `u` and `v` are lane-`i` members and `v` is reachable from `u`
    /// through lane-`i` members only.
    reach: Vec<u64>,
    /// Per-source rows, one `universe`-word row per [`LanePlan::nc_sources`] entry `P_1`: bit
    /// `i` of `nc_close[s·n + v]` ⇔ some non-counterflow pair `(P_1, P_2)` has `P_2` and `v`
    /// lane-`i` members with `v` reachable from `P_2`. `P_1`'s own membership is not folded
    /// in; the `reach[P_5·n + P_1]` gate of the closing pass certifies it.
    nc_close: Vec<u64>,
    /// Closing-set rows, one `universe`-word row per candidate `P_5`: the `nc_close` rows of
    /// the sources reachable from `P_5`, each masked by that reachability word.
    close: Vec<u64>,
}

/// Decides up to 64 subsets with one lane-parallel traversal of the shared graph, returning
/// the lanes attested **robust** (no dangerous cycle), a subset of `batch`.
///
/// `scratch.member` holds the membership words (bits outside `batch` must be zero). The
/// verdicts are exactly those of the scalar per-subset cycle tests: the reachability fixpoint
/// mirrors induced-view closure per lane, and the type-II closing sets are factored through
/// their sources exactly as in `find_type2_violation_in`, with every row lane-masked:
/// `nc_close[P_1]` unions the reach rows of `P_1`'s non-counterflow targets `P_2`, then
/// `close[P_5]` unions `reach[P_5][P_1] & nc_close[P_1]` over the sources — `nc_pairs +
/// candidates × sources` row operations of `universe` words each. A lane is violated when some
/// pair-condition group finds its `P_3` bit set with `P_4` a member. Witness *choice* may
/// differ from the scalar search order; witness *existence* (all the sweep records) cannot.
pub(crate) fn sweep_lanes(plan: &LanePlan, scratch: &mut LaneScratch, batch: u64) -> u64 {
    let n = plan.universe;
    let LaneScratch {
        member,
        reach,
        nc_close,
        close,
    } = scratch;
    debug_assert_eq!(member.len(), n);
    if n == 0 {
        return batch;
    }

    // Reflexive base: every member reaches itself within its own lane.
    reach.clear();
    reach.resize(n * n, 0);
    for v in 0..n {
        reach[v * n + v] = member[v];
    }
    // Propagate `reach[a] |= member[a] & reach[b]` per edge pair until a pass changes nothing.
    // Row bits of `reach[b]` already certify `b`'s membership (induction from the base), so
    // gating by `member[a]` keeps the invariant that a set bit means "both endpoints are lane
    // members, path through lane members only". The plan's edge order makes acyclic stretches
    // converge in one pass; strongly connected components take as many as their diameter.
    loop {
        let mut changed = false;
        for &(a, b) in &plan.edge_pairs {
            let gate = member[a as usize];
            if gate == 0 {
                continue;
            }
            let (dst, src) = (a as usize * n, b as usize * n);
            let mut delta = 0u64;
            for j in 0..n {
                let add = reach[src + j] & gate;
                let old = reach[dst + j];
                delta |= add & !old;
                reach[dst + j] = old | add;
            }
            changed |= delta != 0;
        }
        if !changed {
            break;
        }
    }

    let mut violated = 0u64;
    match plan.condition {
        CycleCondition::TypeI => {
            // A counterflow edge on a cycle: the edge is in the view (both endpoints members)
            // and its source is reachable from its target — all three facts in one bit.
            for &(from, to) in &plan.cf_pairs {
                violated |= reach[to as usize * n + from as usize];
                if violated == batch {
                    break;
                }
            }
        }
        CycleCondition::TypeII => {
            // nc_close[s][v] bit i ⇔ some non-counterflow pair (P_1, P_2) from source s has P_2
            // and v lane-i members with v reachable from P_2 (the P_2 row certifies both).
            // Sources absent from every lane keep a zero row: the gate below would drop it.
            nc_close.clear();
            nc_close.resize(plan.nc_sources.len() * n, 0);
            let mut si = 0;
            for &(p1, p2) in &plan.nc_pairs {
                if p1 != plan.nc_sources[si] {
                    si += 1;
                }
                debug_assert_eq!(p1, plan.nc_sources[si]);
                if member[p1 as usize] == 0 {
                    continue;
                }
                let src = p2 as usize * n;
                or_into(&mut nc_close[si * n..(si + 1) * n], &reach[src..src + n]);
            }
            // close[ci][v] bit i ⇔ some source P_1 reachable from candidate P_5 in lane i has
            // its nc_close bit set at v. The gate word reach[P_5][P_1] certifies P_5 and P_1,
            // so the non-counterflow edge (P_1, P_2) lies in the lane's view.
            close.clear();
            close.resize(plan.candidates.len() * n, 0);
            for (ci, &p5) in plan.candidates.iter().enumerate() {
                let p5 = p5 as usize;
                if member[p5] == 0 {
                    continue;
                }
                let row = ci * n;
                for (si, &p1) in plan.nc_sources.iter().enumerate() {
                    let gate = reach[p5 * n + p1 as usize];
                    if gate == 0 {
                        continue;
                    }
                    let src = si * n;
                    for j in 0..n {
                        close[row + j] |= gate & nc_close[src + j];
                    }
                }
            }
            // Adjacent pair (e_2, e_3) with the pair condition: P_4's membership word gates
            // the group (e_2's target and e_3's source), the close bit at P_3 supplies the
            // rest of the cycle.
            'tests: for group in &plan.type2_groups {
                let present = member[group.cf_from as usize];
                if present == 0 {
                    continue;
                }
                let row = group.candidate as usize * n;
                for &p3 in &plan.type2_froms[group.froms.0 as usize..group.froms.1 as usize] {
                    violated |= present & close[row + p3 as usize];
                    if violated == batch {
                        break 'tests;
                    }
                }
            }
        }
    }
    batch & !violated
}

const UNVISITED: u32 = u32::MAX;

/// One explicit DFS frame of the iterative Tarjan walk: a node and how many of its successors
/// have been examined.
struct Frame {
    node: u32,
    cursor: u32,
}

/// Reusable Tarjan + condensation temporaries. Sized by the largest closure a worker has
/// computed; the subset-sweep hot loop reuses the same warm buffers for every view.
#[derive(Default)]
struct ClosureScratch {
    index: Vec<u32>,
    lowlink: Vec<u32>,
    on_stack: Vec<u64>,
    stack: Vec<u32>,
    frames: Vec<Frame>,
    scc_of: Vec<u32>,
    members: Vec<u32>,
    /// One reachability row per component, in completion (reverse topological) order.
    rep_rows: Vec<u64>,
}

fn with_closure_scratch<R>(f: impl FnOnce(&mut ClosureScratch) -> R) -> R {
    static SCRATCH: OnceLock<WorkerLocal<ClosureScratch>> = OnceLock::new();
    if mvrc_par::current_worker_index().is_some() {
        SCRATCH
            .get_or_init(|| WorkerLocal::new(ClosureScratch::default))
            .with(f)
    } else {
        NON_WORKER_SCRATCH.with(|scratch| f(&mut scratch.borrow_mut()))
    }
}

thread_local! {
    static NON_WORKER_SCRATCH: RefCell<ClosureScratch> = RefCell::new(ClosureScratch::default());
}

/// Computes the reflexive-transitive closure of a graph given by indexable successor lists,
/// returning one bitset row per node (`rows · words_per_row` words, node `i`'s row at
/// `i * words_per_row`).
///
/// Rows are indexed `0..rows`; row `r`'s *column* bit is `self_bit(r)`, which lets an induced
/// view emit rows per member position while keeping columns in the parent graph's node-id
/// space. `successor(r, k)` is the `k`-th out-neighbour of `r` (a row index), for
/// `k < degree(r)`; the closure is reflexive — `self_bit(r)` is always set in row `r`.
pub(crate) fn transitive_closure<SB, D, S>(
    rows: usize,
    words_per_row: usize,
    self_bit: SB,
    degree: D,
    successor: S,
    parallelism: Parallelism,
) -> Vec<u64>
where
    SB: Fn(usize) -> usize,
    D: Fn(usize) -> usize,
    S: Fn(usize, usize) -> usize,
{
    if rows == 0 {
        return Vec::new();
    }
    assert!(rows < UNVISITED as usize, "closure row count exceeds u32");
    let total_words = rows * words_per_row;
    if total_words >= PARALLEL_WORDS_THRESHOLD && parallelism.effective_threads() > 1 {
        // Large closure: fresh (non-shared) state, so the parallel materialization below can
        // run even from inside a pool worker without re-entering any scratch slot.
        let mut state = ClosureScratch::default();
        condense(
            &mut state,
            rows,
            words_per_row,
            &self_bit,
            &degree,
            &successor,
        );
        let rep_rows = &state.rep_rows;
        let scc_of = &state.scc_of;
        fold_chunks(
            0..rows,
            parallelism,
            1,
            Vec::new,
            |mut out: Vec<u64>, chunk| {
                out.reserve(chunk.len() * words_per_row);
                for r in chunk {
                    let base = scc_of[r] as usize * words_per_row;
                    out.extend_from_slice(&rep_rows[base..base + words_per_row]);
                }
                out
            },
            |mut a, mut b| {
                a.append(&mut b);
                a
            },
        )
    } else {
        with_closure_scratch(|state| {
            condense(state, rows, words_per_row, &self_bit, &degree, &successor);
            let mut out = Vec::with_capacity(total_words);
            for r in 0..rows {
                let base = state.scc_of[r] as usize * words_per_row;
                out.extend_from_slice(&state.rep_rows[base..base + words_per_row]);
            }
            out
        })
    }
}

/// Iterative Tarjan SCC condensation plus per-component closure rows.
///
/// Fills `state.scc_of` (component id per row, ids in completion order) and `state.rep_rows`
/// (one row per component). When a component completes, all its out-edges lead either into the
/// component itself (contributing nothing beyond the members' self bits, which are OR-ed in
/// directly) or into an already-completed component whose row is final — so a single pass of
/// word-ORs per edge yields the exact closure.
fn condense<SB, D, S>(
    state: &mut ClosureScratch,
    rows: usize,
    words_per_row: usize,
    self_bit: &SB,
    degree: &D,
    successor: &S,
) where
    SB: Fn(usize) -> usize,
    D: Fn(usize) -> usize,
    S: Fn(usize, usize) -> usize,
{
    state.index.clear();
    state.index.resize(rows, UNVISITED);
    state.lowlink.clear();
    state.lowlink.resize(rows, 0);
    state.scc_of.clear();
    state.scc_of.resize(rows, UNVISITED);
    state.on_stack.clear();
    state.on_stack.resize(rows.div_ceil(64).max(1), 0);
    state.stack.clear();
    state.frames.clear();
    state.rep_rows.clear();
    let mut next_index: u32 = 0;
    let mut scc_count: u32 = 0;

    for root in 0..rows {
        if state.index[root] != UNVISITED {
            continue;
        }
        state.index[root] = next_index;
        state.lowlink[root] = next_index;
        next_index += 1;
        state.stack.push(root as u32);
        set_bit(&mut state.on_stack, root);
        state.frames.push(Frame {
            node: root as u32,
            cursor: 0,
        });

        while !state.frames.is_empty() {
            let top = state.frames.len() - 1;
            let v = state.frames[top].node as usize;
            let deg_v = degree(v);
            let mut descended = false;
            while (state.frames[top].cursor as usize) < deg_v {
                let k = state.frames[top].cursor as usize;
                state.frames[top].cursor += 1;
                let w = successor(v, k);
                if state.index[w] == UNVISITED {
                    state.index[w] = next_index;
                    state.lowlink[w] = next_index;
                    next_index += 1;
                    state.stack.push(w as u32);
                    set_bit(&mut state.on_stack, w);
                    state.frames.push(Frame {
                        node: w as u32,
                        cursor: 0,
                    });
                    descended = true;
                    break;
                } else if test_bit(&state.on_stack, w) && state.index[w] < state.lowlink[v] {
                    state.lowlink[v] = state.index[w];
                }
            }
            if descended {
                continue;
            }
            state.frames.pop();
            let low_v = state.lowlink[v];
            if let Some(parent) = state.frames.last() {
                let p = parent.node as usize;
                if low_v < state.lowlink[p] {
                    state.lowlink[p] = low_v;
                }
            }
            if low_v != state.index[v] {
                continue;
            }
            // `v` is a component root: pop its members, then build the component row.
            state.members.clear();
            loop {
                let w = state.stack.pop().expect("Tarjan stack underflow");
                clear_bit(&mut state.on_stack, w as usize);
                state.scc_of[w as usize] = scc_count;
                state.members.push(w);
                if w as usize == v {
                    break;
                }
            }
            let row_base = scc_count as usize * words_per_row;
            state.rep_rows.resize(row_base + words_per_row, 0);
            for mi in 0..state.members.len() {
                let m = state.members[mi] as usize;
                set_bit(&mut state.rep_rows[row_base..], self_bit(m));
                for k in 0..degree(m) {
                    let w_scc = state.scc_of[successor(m, k)];
                    debug_assert_ne!(w_scc, UNVISITED, "successor of a completed SCC unvisited");
                    if w_scc != scc_count {
                        let (done, current) = state.rep_rows.split_at_mut(row_base);
                        or_into(
                            &mut current[..words_per_row],
                            &done[w_scc as usize * words_per_row..][..words_per_row],
                        );
                    }
                }
            }
            scc_count += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The retained oracle: one BFS per source over the same successor encoding.
    fn bfs_closure(rows: usize, words_per_row: usize, adj: &[Vec<usize>]) -> Vec<u64> {
        let mut out = vec![0u64; rows * words_per_row];
        for start in 0..rows {
            let mut visited = vec![false; rows];
            let mut stack = vec![start];
            visited[start] = true;
            while let Some(v) = stack.pop() {
                out[start * words_per_row + v / 64] |= 1u64 << (v % 64);
                for &w in &adj[v] {
                    if !visited[w] {
                        visited[w] = true;
                        stack.push(w);
                    }
                }
            }
        }
        out
    }

    fn closure_of(adj: &[Vec<usize>], parallelism: Parallelism) -> Vec<u64> {
        let rows = adj.len();
        transitive_closure(
            rows,
            rows.div_ceil(64).max(1),
            |r| r,
            |r| adj[r].len(),
            |r, k| adj[r][k],
            parallelism,
        )
    }

    #[test]
    fn sweep_lanes_type1_verdicts_follow_lane_membership() {
        // Nodes {0, 1}: an edge 0 -> 1 and a counterflow edge 1 -> 0 form a type-I cycle
        // exactly when both nodes are members. Partial batch of three lanes:
        // lane 0 = {0, 1}, lane 1 = {0}, lane 2 = {1}.
        let plan = LanePlan {
            universe: 2,
            condition: CycleCondition::TypeI,
            edge_pairs: vec![(0, 1), (1, 0)],
            cf_pairs: vec![(1, 0)],
            nc_pairs: Vec::new(),
            nc_sources: Vec::new(),
            candidates: Vec::new(),
            type2_groups: Vec::new(),
            type2_froms: Vec::new(),
        };
        let mut scratch = LaneScratch {
            member: vec![0b011, 0b101],
            ..LaneScratch::default()
        };
        assert_eq!(sweep_lanes(&plan, &mut scratch, 0b111), 0b110);
    }

    #[test]
    fn sweep_lanes_reachability_is_masked_per_lane() {
        // Chain 0 -> 1 -> 2 with counterflow 2 -> 0: the cycle needs all three nodes, so
        // dropping any one of them (lanes 1 and 2) breaks it.
        let plan = LanePlan {
            universe: 3,
            condition: CycleCondition::TypeI,
            edge_pairs: vec![(0, 1), (1, 2), (2, 0)],
            cf_pairs: vec![(2, 0)],
            nc_pairs: Vec::new(),
            nc_sources: Vec::new(),
            candidates: Vec::new(),
            type2_groups: Vec::new(),
            type2_froms: Vec::new(),
        };
        // lane 0 = {0, 1, 2}, lane 1 = {0, 2}, lane 2 = {0, 1}.
        let mut scratch = LaneScratch {
            member: vec![0b111, 0b101, 0b011],
            ..LaneScratch::default()
        };
        assert_eq!(sweep_lanes(&plan, &mut scratch, 0b111), 0b110);
    }

    #[test]
    fn or_into_covers_chunked_and_remainder_words() {
        let mut dst = vec![0b01u64; 11];
        let src: Vec<u64> = (0..11).map(|i| 1u64 << i).collect();
        or_into(&mut dst, &src);
        for (i, w) in dst.iter().enumerate() {
            assert_eq!(*w, 0b01 | (1u64 << i));
        }
    }

    #[test]
    fn empty_and_single_node_graphs() {
        assert!(closure_of(&[], Parallelism::Serial).is_empty());
        // A single node with no edges reaches exactly itself.
        assert_eq!(closure_of(&[vec![]], Parallelism::Serial), vec![1]);
        // A self-loop changes nothing.
        assert_eq!(closure_of(&[vec![0]], Parallelism::Serial), vec![1]);
    }

    #[test]
    fn cycle_and_chain_close_correctly() {
        // 0 -> 1 -> 2 -> 0 is one SCC; 3 -> 0 sees all of it.
        let adj = vec![vec![1], vec![2], vec![0], vec![0]];
        let rows = closure_of(&adj, Parallelism::Serial);
        assert_eq!(rows, vec![0b0111, 0b0111, 0b0111, 0b1111]);
    }

    proptest! {
        #[test]
        fn closure_matches_bfs_oracle_on_random_graphs(
            rows in 1usize..72,
            edge_count in 0usize..256,
            seed in 1u64..u64::MAX,
        ) {
            // Edges from a splitmix-style generator: the vendored proptest has no collection
            // strategies, so the graph shape is derived from one seed.
            let mut state = seed;
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) as usize
            };
            let mut adj = vec![Vec::new(); rows];
            for _ in 0..edge_count {
                let from = next() % rows;
                let to = next() % rows;
                adj[from].push(to);
            }
            let words = rows.div_ceil(64).max(1);
            let want = bfs_closure(rows, words, &adj);
            prop_assert_eq!(&closure_of(&adj, Parallelism::Serial), &want);
            prop_assert_eq!(&closure_of(&adj, Parallelism::Auto), &want);
        }
    }

    #[test]
    fn large_closure_takes_the_parallel_path_and_matches_the_oracle() {
        // 1024 nodes, 16 words per row -> 16384 rows*words... keep above the threshold by
        // using 2048 nodes (2048 * 32 = 65536 words): a long chain with shortcut edges.
        let n = 2048;
        let mut adj = vec![Vec::new(); n];
        for (v, succs) in adj.iter_mut().enumerate().take(n - 1) {
            succs.push(v + 1);
        }
        for v in (0..n).step_by(97) {
            adj[v].push(v / 2);
        }
        let words = n.div_ceil(64);
        assert!(n * words >= PARALLEL_WORDS_THRESHOLD);
        let want = bfs_closure(n, words, &adj);
        assert_eq!(closure_of(&adj, Parallelism::Auto), want);
        assert_eq!(closure_of(&adj, Parallelism::Serial), want);
    }
}
