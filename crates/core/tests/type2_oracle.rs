//! The one-pass type-II test against the literal Algorithm 2 of `mvrc-oracles`.
//!
//! The oracle nests its loops `e_3` (counterflow, in edge order), then `e_2` (the in-edges of
//! `e_3.from`), then `e_1` (non-counterflow, in edge order), so its first hit is exactly the
//! witness `find_type2_violation_in` reports, and its first hit per blamed statement pair is
//! exactly what `all_violations_in` reports. The tests compare witnesses, not just verdicts,
//! on the bundled benchmarks and their subsets, on seeded synthetic workloads, and on random
//! edge lists that Algorithm 1 never builds.

use mvrc_benchmarks::{SyntheticConfig, YcsbtConfig};
use mvrc_btp::LinearProgram;
use mvrc_robustness::{
    all_violations_in, find_type2_violation_in, AnalysisSettings, CycleCondition, EdgeKind, NodeId,
    RobustnessSession, SummaryEdge, SummaryGraphView,
};

/// Asserts that the one-pass type-II test and `all_violations_in` return exactly the oracle's
/// witnesses on `view`; returns whether it has a type-II cycle.
fn assert_oracle_witnesses<G: SummaryGraphView>(view: &G, label: &dyn Fn() -> String) -> bool {
    let witness = find_type2_violation_in(view);
    assert_eq!(
        witness,
        mvrc_oracles::find_type2_violation(view),
        "type-II witness of {}",
        label()
    );
    assert_eq!(
        all_violations_in(view, CycleCondition::TypeII),
        mvrc_oracles::all_type2_violations(view),
        "type-II violations of {}",
        label()
    );
    witness.is_some()
}

/// Counts the verdicts a comparison saw, so a test can assert that both occurred.
#[derive(Default)]
struct Tally {
    violated: usize,
    robust: usize,
}

impl Tally {
    fn add(&mut self, found: bool) {
        if found {
            self.violated += 1;
        } else {
            self.robust += 1;
        }
    }

    /// Both verdicts occur, so the comparison is not vacuous.
    fn assert_both_verdicts(&self) {
        assert!(
            self.violated > 0 && self.robust > 0,
            "{} violated, {} robust",
            self.violated,
            self.robust
        );
    }
}

#[test]
fn one_pass_type2_test_picks_the_reference_witnesses() {
    // The paper's benchmarks, YCSB-T, Auction(n) and 40 seeded synthetic workloads under
    // every evaluation setting, on the full graph and on every program subset of the
    // workloads with at most 8 programs.
    let mut workloads = mvrc_benchmarks::paper_benchmarks();
    workloads.push(mvrc_benchmarks::ycsb_t(YcsbtConfig::default()));
    workloads.extend([1, 3, 20].map(mvrc_benchmarks::auction_n));
    workloads.extend((0..40).map(|seed| {
        mvrc_benchmarks::synthetic(SyntheticConfig {
            seed,
            ..SyntheticConfig::default()
        })
    }));
    let mut tally = Tally::default();
    for workload in workloads {
        let name = workload.name.clone();
        let session = RobustnessSession::new(workload);
        let programs = session.program_names();
        for settings in AnalysisSettings::evaluation_grid(CycleCondition::TypeII) {
            let graph = session.graph(settings);
            tally.add(assert_oracle_witnesses(&graph.prefetched(), &|| {
                format!("{name} under {settings}")
            }));
            if programs.len() > 8 {
                continue;
            }
            for mask in 1usize..1 << programs.len() {
                let subset: Vec<&str> = (0..programs.len())
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| programs[i].as_str())
                    .collect();
                let view = graph.induced_for_programs(&subset).unwrap();
                tally.add(assert_oracle_witnesses(&view, &|| {
                    format!("{name} {subset:?} under {settings}")
                }));
            }
        }
    }
    tally.assert_both_verdicts();
}

#[test]
fn scalar_type2_test_matches_the_oracle_on_every_node_subset() {
    // The lane kernel's unit test compares every lane with the scalar tests on SmallBank's 31
    // node subsets; this closes the chain to the literal algorithms on the same subsets, and
    // on Auction's 7, under every graph shape. The scalar type-I test is itself the literal
    // one (a counterflow edge whose target reaches its source), so type II is what is
    // compared here.
    let mut tally = Tally::default();
    for (workload, nodes) in [
        (mvrc_benchmarks::smallbank(), 5),
        (mvrc_benchmarks::auction(), 3),
    ] {
        let name = workload.name.clone();
        let session = RobustnessSession::new(workload);
        for settings in AnalysisSettings::evaluation_grid(CycleCondition::TypeII) {
            let graph = session.graph(settings);
            assert_eq!(graph.node_count(), nodes, "{name}");
            for subset in 1usize..1 << nodes {
                let members: Vec<NodeId> = (0..nodes).filter(|v| subset & (1 << v) != 0).collect();
                tally.add(assert_oracle_witnesses(&graph.induced(&members), &|| {
                    format!("{name} nodes {subset:#b} under {settings}")
                }));
            }
        }
    }
    tally.assert_both_verdicts();
}

/// A summary-graph view over an arbitrary edge list, with its closure computed by a plain
/// fixpoint: it reaches graphs Algorithm 1 never builds, such as a counterflow edge with no
/// non-counterflow companion, where a closing row needs more than the non-counterflow
/// successors of the sources `P_5` reaches.
struct EdgeListView {
    nodes: Vec<LinearProgram>,
    edges: Vec<SummaryEdge>,
    words: usize,
    reach: Vec<u64>,
}

impl EdgeListView {
    fn new(nodes: Vec<LinearProgram>, edges: Vec<SummaryEdge>) -> Self {
        let n = nodes.len();
        let words = n.div_ceil(64).max(1);
        let mut reach = vec![0u64; n * words];
        for v in 0..n {
            reach[v * words + v / 64] |= 1 << (v % 64);
        }
        let mut changed = true;
        while changed {
            changed = false;
            for e in &edges {
                let (from, to) = (e.from as usize, e.to as usize);
                for w in 0..words {
                    let add = reach[to * words + w] & !reach[from * words + w];
                    if add != 0 {
                        reach[from * words + w] |= add;
                        changed = true;
                    }
                }
            }
        }
        EdgeListView {
            nodes,
            edges,
            words,
            reach,
        }
    }
}

impl SummaryGraphView for EdgeListView {
    fn universe(&self) -> usize {
        self.nodes.len()
    }

    fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.nodes.len()
    }

    fn node(&self, id: NodeId) -> &LinearProgram {
        &self.nodes[id]
    }

    fn view_edges(&self) -> impl Iterator<Item = &SummaryEdge> + '_ {
        self.edges.iter()
    }

    fn view_edges_to(&self, node: NodeId) -> impl Iterator<Item = &SummaryEdge> + '_ {
        self.edges.iter().filter(move |e| e.to as usize == node)
    }

    fn view_counterflow_edges_from(&self, node: NodeId) -> impl Iterator<Item = &SummaryEdge> + '_ {
        self.edges
            .iter()
            .filter(move |e| e.from as usize == node && e.kind.is_counterflow())
    }

    fn view_reachable(&self, from: NodeId, to: NodeId) -> bool {
        self.view_reachable_row(from)[to / 64] & (1 << (to % 64)) != 0
    }

    fn view_reachable_row(&self, from: NodeId) -> &[u64] {
        &self.reach[from * self.words..][..self.words]
    }
}

#[test]
fn one_pass_type2_test_picks_the_reference_witnesses_on_random_edge_lists() {
    // Random edge lists over the LTPs of a synthetic workload, whose statement kinds and
    // positions make every branch of the pair condition occur.
    let session = RobustnessSession::new(mvrc_benchmarks::synthetic(SyntheticConfig::default()));
    let ltps = session.ltps().to_vec();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = |bound: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % bound as u64) as usize
    };
    let mut tally = Tally::default();
    for round in 0..2000 {
        let nodes: Vec<LinearProgram> = (0..2 + next(6))
            .map(|_| (*ltps[next(ltps.len())]).clone())
            .collect();
        let edges: Vec<SummaryEdge> = (0..next(4 * nodes.len()))
            .map(|_| {
                let (from, to) = (next(nodes.len()), next(nodes.len()));
                SummaryEdge {
                    from: from as u32,
                    from_stmt: next(nodes[from].len()) as u32,
                    kind: if next(3) == 0 {
                        EdgeKind::Counterflow
                    } else {
                        EdgeKind::NonCounterflow
                    },
                    to_stmt: next(nodes[to].len()) as u32,
                    to: to as u32,
                }
            })
            .collect();
        let view = EdgeListView::new(nodes, edges);
        tally.add(assert_oracle_witnesses(&view, &|| {
            format!("random round {round}")
        }));
    }
    tally.assert_both_verdicts();
}
