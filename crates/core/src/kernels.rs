//! Word-parallel bitset kernels: the transitive-closure and row-combination primitives behind
//! [`crate::SummaryGraph`] reachability and the type-II robustness check.
//!
//! The closure ([`transitive_closure`]) works on node-adjacency bit rows, since Algorithm 2
//! only asks which nodes reach which: its caller sets one adjacency row of `⌈n/64⌉` words per
//! node in one pass over the edges, and the kernel transposes them into reverse-adjacency rows
//! 64×64 bit blocks at a time. Three word-scan passes then condense and close the rows, each
//! finding the next unvisited node as the lowest bit of `row & unvisited`: a DFS over the adjacency rows records the finish order; a walk over the
//! reverse rows in reverse finish order yields the strongly connected components in
//! topological order; and, sinks first, each component's row is its members' bits OR-ed with
//! the final row of the component of every successor bit not yet in it. That is
//! `O(n · ⌈n/64⌉)` word operations plus the fill — a complete digraph at node level, like the
//! Auction(n) graphs with far more edges than node pairs, costs no more than a sparse one. The
//! kernel runs inline on the caller and draws its temporaries from thread-local scratch, so an
//! induced view allocates nothing beyond the returned rows.
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
//! Batching whole word ranges of a level this way is sound with Proposition 5.2 pruning in
//! effect: the inheritance check for a level-`k` mask reads only its one-bit supersets, which
//! live at level `k + 1`, and the `refuted` bitset, which is fixed before the levels are walked
//! — pruning information flows strictly from level `k + 1` down to level `k`, never within a
//! level. Deferring the publication of a level-`k` verdict until its lane batch flushes
//! therefore cannot change any pruning decision (or counter) of the same level, and the level
//! barrier of the sweep guarantees every batch flushes before level `k - 1` starts.
//!
//! The structure shared by all lanes — deduplicated edge pairs, counterflow pairs, the
//! non-counterflow pairs grouped by source, the pair-condition tests of Algorithm 2 — is
//! compiled once per graph and condition into a [`LanePlan`]
//! (`crate::algorithm::compile_lane_plan`) and cached on the graph, so a batch costs one
//! fixpoint over node pairs instead of up to 64 closures. The type-II groups are
//! built from per-node statement-suffix bitsets: one scan of each counterflow source `P_4`'s
//! in-edges files every `P_3` into an `always` row (the pair condition holds whatever `e_3`
//! is) or into the row of the statement its edge enters; suffix-ORing the statement rows
//! leaves one row per counterflow edge to OR in, so compiling costs
//! `O(E + cf·words + nodes·statements·words)` rather than one pair-condition test per adjacent
//! edge pair.

use crate::settings::CycleCondition;
use std::cell::RefCell;

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
    /// adjacent edge pair satisfying the pair condition of Theorem 6.4. Sorted by
    /// `(candidate, P_4)`, each group's `P_3` ascending, no empty group. Built per `P_4` from
    /// statement-suffix rows — `P_3` by the statement its edge enters, suffix-ORed, plus an
    /// `always` row — in `O(E + cf·words + nodes·statements·words)`.
    pub(crate) type2_groups: Vec<LaneType2Group>,
    /// Flat backing store for the [`LaneType2Group::froms`] ranges.
    pub(crate) type2_froms: Vec<u32>,
}

/// One group of the type-II final loop: for a fixed counterflow node pair `(P_4, P_5)`, the
/// distinct `P_3` nodes with a concrete adjacent edge pair `(P_3 → P_4, P_4 → P_5)` passing
/// the pair condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
/// in the per-thread sweep scratch so batches perform no steady-state allocation.
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
/// mirrors induced-view closure per lane, and the type-II closing sets are the closing rows of
/// `find_type2_violation_in` — `close[P_5]` is the union of `reach(P_2)` over the
/// non-counterflow pairs `(P_1, P_2)` with `P_1` reachable from `P_5` — factored through the
/// sources `P_1` and with every row lane-masked: `nc_close[P_1]` unions the reach rows of
/// `P_1`'s non-counterflow targets `P_2`, then `close[P_5]` unions
/// `reach[P_5][P_1] & nc_close[P_1]` over the sources — `nc_pairs + candidates × sources` row
/// operations of `universe` words each. A lane is violated when some pair-condition group finds
/// its `P_3` bit set with `P_4` a member. Witness *choice* may
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

/// The adjacency a [`transitive_closure`] call closes, filled by its caller: one row of
/// `⌈n/64⌉` words per node id, holding the node's member successors.
pub(crate) struct AdjacencyRows<'s> {
    words: usize,
    rows: &'s mut [u64],
}

impl AdjacencyRows<'_> {
    /// Records an edge between two member nodes.
    #[inline]
    pub(crate) fn add_edge(&mut self, from: usize, to: usize) {
        self.rows[from * self.words + to / 64] |= 1u64 << (to % 64);
    }
}

/// Reusable temporaries of [`transitive_closure`], one set per thread and sized by the
/// largest closure the thread has computed, so a small induced view allocates nothing but the
/// rows it returns. Rows and per-node entries are indexed by node id, `64 · words` of them.
#[derive(Default)]
struct ClosureScratch {
    /// Adjacency rows: the member successors of each node.
    adj: Vec<u64>,
    /// Reverse-adjacency rows, the transpose of `adj`: the member predecessors of each node.
    radj: Vec<u64>,
    /// Member bits the current pass has not visited yet.
    unvisited: Vec<u64>,
    /// Pass 1's explicit DFS stack: a node and the next word of its adjacency row to scan.
    frames: Vec<(u32, u32)>,
    /// Members in DFS finish order.
    finish: Vec<u32>,
    /// The first member of each member's component: pass 3 reads a closed component's row
    /// there.
    lead: Vec<u32>,
    /// Members grouped by component, components in topological order: component `c` is
    /// `comp_nodes[comp_start[c]..comp_start[c + 1]]`, its first member the walk's root.
    comp_nodes: Vec<u32>,
    comp_start: Vec<u32>,
    /// Each member's closure row.
    closed: Vec<u64>,
}

thread_local! {
    static SCRATCH: RefCell<ClosureScratch> = RefCell::new(ClosureScratch::default());
}

/// Computes the reflexive-transitive closure of the graph over the member nodes of `member`
/// (a bitset over node ids, `⌈n/64⌉` words), returning one `member.len()`-word row per member
/// in id order: the nodes the member reaches through members only, itself included.
///
/// `fill` records the edges ([`AdjacencyRows::add_edge`]) and the kernel transposes the
/// adjacency rows into reverse-adjacency rows. Three passes then close them, each finding the
/// next node to visit with a word scan, `row & unvisited`: a DFS over the adjacency rows
/// records the finish order; a walk over the reverse rows in reverse finish order yields one
/// strongly connected component per walk, in topological order; and the components, taken in
/// reverse of that order, each start from their members' bits and OR in the final row of the
/// component of every successor bit not yet in the row. That is `O(n · ⌈n/64⌉)` word
/// operations plus the fill, against one step per edge of an edge-walking condensation.
pub(crate) fn transitive_closure(
    member: &[u64],
    fill: impl FnOnce(&mut AdjacencyRows<'_>),
) -> Vec<u64> {
    SCRATCH.with(|scratch| close_rows(&mut scratch.borrow_mut(), member, fill))
}

fn close_rows(
    s: &mut ClosureScratch,
    member: &[u64],
    fill: impl FnOnce(&mut AdjacencyRows<'_>),
) -> Vec<u64> {
    let words = member.len();
    let row = |v: usize| v * words..(v + 1) * words;
    for rows in [&mut s.adj, &mut s.radj, &mut s.closed] {
        rows.clear();
        rows.resize(64 * words * words, 0);
    }
    fill(&mut AdjacencyRows {
        words,
        rows: &mut s.adj,
    });
    transpose(&s.adj, &mut s.radj, words);

    // Pass 1: DFS over the adjacency rows, from every unvisited member in id order.
    s.unvisited.clear();
    s.unvisited.extend_from_slice(member);
    s.finish.clear();
    for k in 0..words {
        while s.unvisited[k] != 0 {
            let root = k * 64 + s.unvisited[k].trailing_zeros() as usize;
            clear_bit(&mut s.unvisited, root);
            s.frames.push((root as u32, 0));
            while let Some(top) = s.frames.last_mut() {
                let succ = &s.adj[row(top.0 as usize)];
                let mut next = None;
                while (top.1 as usize) < words {
                    let w = top.1 as usize;
                    let bits = succ[w] & s.unvisited[w];
                    if bits != 0 {
                        next = Some(w * 64 + bits.trailing_zeros() as usize);
                        break;
                    }
                    top.1 += 1;
                }
                match next {
                    Some(v) => {
                        clear_bit(&mut s.unvisited, v);
                        s.frames.push((v as u32, 0));
                    }
                    None => {
                        s.finish.push(top.0);
                        s.frames.pop();
                    }
                }
            }
        }
    }

    // Pass 2: walk the reverse rows in reverse finish order; each walk is one component.
    s.unvisited.copy_from_slice(member);
    s.lead.resize(64 * words, 0);
    s.comp_nodes.clear();
    s.comp_start.clear();
    for &root in s.finish.iter().rev() {
        if !test_bit(&s.unvisited, root as usize) {
            continue;
        }
        clear_bit(&mut s.unvisited, root as usize);
        s.comp_start.push(s.comp_nodes.len() as u32);
        s.comp_nodes.push(root);
        let mut next = s.comp_nodes.len() - 1;
        while next < s.comp_nodes.len() {
            let v = s.comp_nodes[next] as usize;
            next += 1;
            s.lead[v] = root;
            for (w, &pred) in s.radj[row(v)].iter().enumerate() {
                let mut bits = pred & s.unvisited[w];
                s.unvisited[w] &= !bits;
                while bits != 0 {
                    s.comp_nodes.push((w * 64) as u32 + bits.trailing_zeros());
                    bits &= bits - 1;
                }
            }
        }
    }
    s.comp_start.push(s.comp_nodes.len() as u32);

    // Pass 3: sinks first, so every successor component's row is final when it is read. The
    // component's row is built in its first member's row, then copied to the others.
    for c in (0..s.comp_start.len() - 1).rev() {
        let nodes = &s.comp_nodes[s.comp_start[c] as usize..s.comp_start[c + 1] as usize];
        let first = nodes[0] as usize;
        let (before, rest) = s.closed.split_at_mut(first * words);
        let (acc, after) = rest.split_at_mut(words);
        for &v in nodes {
            set_bit(acc, v as usize);
        }
        for &v in nodes {
            let succ = &s.adj[row(v as usize)];
            for w in 0..words {
                let mut pending = succ[w] & !acc[w];
                while pending != 0 {
                    // The successor's component closed earlier, so it does not lead with `first`.
                    let lead = s.lead[w * 64 + pending.trailing_zeros() as usize] as usize;
                    let done = if lead < first {
                        &before[row(lead)]
                    } else {
                        &after[row(lead - first - 1)]
                    };
                    or_into(acc, done);
                    pending &= pending - 1;
                    pending &= !acc[w];
                }
            }
        }
        for &v in &nodes[1..] {
            s.closed.copy_within(row(first), v as usize * words);
        }
    }
    let mut out = Vec::with_capacity(s.comp_nodes.len() * words);
    for (k, &bits) in member.iter().enumerate() {
        let mut bits = bits;
        while bits != 0 {
            out.extend_from_slice(&s.closed[row(k * 64 + bits.trailing_zeros() as usize)]);
            bits &= bits - 1;
        }
    }
    out
}

/// Writes the transpose of the square bit matrix `src` into `dst`, both as `64 · words` rows
/// of `words` words (column `c` of a row is bit `c % 64` of its word `c / 64`), one 64×64
/// block at a time.
fn transpose(src: &[u64], dst: &mut [u64], words: usize) {
    let mut block = [0u64; 64];
    for bi in 0..words {
        for bj in 0..words {
            for (i, word) in block.iter_mut().enumerate() {
                *word = src[(bi * 64 + i) * words + bj];
            }
            transpose64(&mut block);
            for (i, &word) in block.iter().enumerate() {
                dst[(bj * 64 + i) * words + bi] = word;
            }
        }
    }
}

/// Transposes a 64×64 bit matrix in place (bit `c` of `a[r]` moves to bit `r` of `a[c]`) by
/// swapping ever smaller off-diagonal blocks: 32×32, then 16×16, down to single bits.
fn transpose64(a: &mut [u64; 64]) {
    let mut width = 32;
    let mut mask = 0x0000_0000_FFFF_FFFFu64;
    while width != 0 {
        let mut k = 0;
        while k < 64 {
            let t = ((a[k] >> width) ^ a[k + width]) & mask;
            a[k] ^= t << width;
            a[k + width] ^= t;
            k = (k + width + 1) & !width;
        }
        width >>= 1;
        mask ^= mask << width;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The retained oracle: one BFS per member over the edges between members. Rows follow
    /// the members (ascending), columns are node ids.
    fn bfs_closure(adj: &[Vec<usize>], members: &[usize]) -> Vec<u64> {
        let words = adj.len().div_ceil(64).max(1);
        let is_member = |v: usize| members.binary_search(&v).is_ok();
        let mut out = vec![0u64; members.len() * words];
        for (row, &start) in members.iter().enumerate() {
            let mut visited = vec![false; adj.len()];
            let mut stack = vec![start];
            visited[start] = true;
            while let Some(v) = stack.pop() {
                out[row * words + v / 64] |= 1u64 << (v % 64);
                for &w in &adj[v] {
                    if is_member(w) && !visited[w] {
                        visited[w] = true;
                        stack.push(w);
                    }
                }
            }
        }
        out
    }

    /// The kernel's closure of the view of `adj` induced by `members` (ascending).
    fn closure_of_members(adj: &[Vec<usize>], members: &[usize]) -> Vec<u64> {
        let mut mask = vec![0u64; adj.len().div_ceil(64).max(1)];
        for &v in members {
            set_bit(&mut mask, v);
        }
        transitive_closure(&mask, |rows| {
            for &v in members {
                for &w in &adj[v] {
                    if members.binary_search(&w).is_ok() {
                        rows.add_edge(v, w);
                    }
                }
            }
        })
    }

    fn closure_of(adj: &[Vec<usize>]) -> Vec<u64> {
        closure_of_members(adj, &(0..adj.len()).collect::<Vec<_>>())
    }

    /// A splitmix-style generator: the vendored proptest has no collection strategies, so
    /// graph shapes and member subsets are derived from one seed.
    fn generator(seed: u64) -> impl FnMut() -> usize {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        }
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
        assert!(closure_of(&[]).is_empty());
        // A single node with no edges reaches exactly itself.
        assert_eq!(closure_of(&[vec![]]), vec![1]);
        // A self-loop changes nothing.
        assert_eq!(closure_of(&[vec![0]]), vec![1]);
    }

    #[test]
    fn cycle_and_chain_close_correctly() {
        // 0 -> 1 -> 2 -> 0 is one SCC; 3 -> 0 sees all of it.
        let adj = vec![vec![1], vec![2], vec![0], vec![0]];
        let rows = closure_of(&adj);
        assert_eq!(rows, vec![0b0111, 0b0111, 0b0111, 0b1111]);
    }

    proptest! {
        #[test]
        fn closure_matches_bfs_oracle_on_random_graphs(
            rows in 1usize..72,
            edge_count in 0usize..256,
            seed in 1u64..u64::MAX,
        ) {
            let mut next = generator(seed);
            let mut adj = vec![Vec::new(); rows];
            for _ in 0..edge_count {
                let from = next() % rows;
                let to = next() % rows;
                adj[from].push(to);
            }
            let all: Vec<usize> = (0..rows).collect();
            prop_assert_eq!(&closure_of(&adj), &bfs_closure(&adj, &all));
        }

        #[test]
        fn induced_closure_matches_bfs_oracle_on_random_member_subsets(
            rows in 0usize..200,
            density in 0usize..4,
            keep in 0usize..5,
            seed in 1u64..u64::MAX,
        ) {
            let mut next = generator(seed);
            let mut adj = vec![Vec::new(); rows];
            for _ in 0..rows * [0, 1, 3, 8][density] {
                let from = next() % rows;
                let to = next() % rows;
                adj[from].push(to);
            }
            // Keep each node with probability keep/4: from no member to all of them.
            let members: Vec<usize> = (0..rows).filter(|_| next() % 4 < keep).collect();
            prop_assert_eq!(&closure_of_members(&adj, &members), &bfs_closure(&adj, &members));
        }
    }

    #[test]
    fn induced_closure_matches_the_oracle_on_chains_complete_graphs_and_self_loops() {
        let mut next = generator(7);
        for n in [0, 1, 2, 63, 64, 65, 127, 128, 129, 200] {
            let chain: Vec<Vec<usize>> = (0..n)
                .map(|v| if v + 1 < n { vec![v + 1] } else { Vec::new() })
                .collect();
            // The chain closed into one cycle, with every node on a self-loop too.
            let ring: Vec<Vec<usize>> = (0..n).map(|v| vec![v, (v + 1) % n]).collect();
            let complete: Vec<Vec<usize>> = (0..n).map(|_| (0..n).collect()).collect();
            let self_loops: Vec<Vec<usize>> = (0..n).map(|v| vec![v]).collect();
            // A chain walked backwards with shortcut edges: many components, each a node.
            let back: Vec<Vec<usize>> = (0..n)
                .map(|v| {
                    if v == 0 {
                        Vec::new()
                    } else {
                        vec![v - 1, v / 2]
                    }
                })
                .collect();
            for adj in [&chain, &ring, &complete, &self_loops, &back] {
                let all: Vec<usize> = (0..n).collect();
                let every_other: Vec<usize> = (0..n).step_by(2).collect();
                let random: Vec<usize> = (0..n).filter(|_| next() % 3 != 0).collect();
                let last: Vec<usize> = n.checked_sub(1).into_iter().collect();
                for members in [&all, &every_other, &random, &last, &Vec::new()] {
                    assert_eq!(
                        closure_of_members(adj, members),
                        bfs_closure(adj, members),
                        "n = {n}, members = {members:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn transpose64_moves_every_bit_across_the_diagonal() {
        let mut next = generator(11);
        for _ in 0..20 {
            let mut a = [0u64; 64];
            for word in &mut a {
                *word = (next() as u64) << 33 ^ next() as u64;
            }
            let mut t = a;
            transpose64(&mut t);
            for (r, &row) in a.iter().enumerate() {
                for (c, &column) in t.iter().enumerate() {
                    assert_eq!(column >> r & 1, row >> c & 1, "bit ({r}, {c})");
                }
            }
        }
    }

    #[test]
    fn closure_rows_have_member_columns_only() {
        // Members {1, 3} of 0 -> 1 -> 2 -> 3: node 2 is not a member, so 1 does not reach 3,
        // and no row carries a non-member column.
        let adj = vec![vec![1], vec![2], vec![3], vec![]];
        assert_eq!(closure_of_members(&adj, &[1, 3]), vec![0b0010, 0b1000]);
        assert_eq!(
            closure_of_members(&adj, &[0, 1, 3]),
            vec![0b0011, 0b0010, 0b1000]
        );
    }

    #[test]
    fn large_closure_matches_the_oracle() {
        // 2048 nodes, 32 words per row: a long chain with shortcut edges.
        let n = 2048;
        let mut adj = vec![Vec::new(); n];
        for (v, succs) in adj.iter_mut().enumerate().take(n - 1) {
            succs.push(v + 1);
        }
        for v in (0..n).step_by(97) {
            adj[v].push(v / 2);
        }
        let all: Vec<usize> = (0..n).collect();
        assert_eq!(closure_of(&adj), bfs_closure(&adj, &all));
    }
}
