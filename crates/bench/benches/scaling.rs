//! Criterion bench: Figure 8 — the Auction(n) scalability sweep. Measures the full pipeline
//! (unfold + Algorithm 1 + Algorithm 2), as the paper does.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mvrc_benchmarks::auction_n;
use mvrc_robustness::{find_type2_violation, AnalysisSettings, RobustnessSession};

/// Auction(n) sizes: the paper's sweep up to n = 100, the largest input of the cold-verdict
/// benchmark workload.
const SIZES: [usize; 5] = [5, 10, 20, 40, 100];

fn bench_auction_n(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure8_auction_n");
    group.sample_size(10);
    for n in SIZES {
        let workload = auction_n(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &workload, |b, w| {
            b.iter(|| {
                // A fresh session per iteration keeps unfolding and construction inside the
                // measurement, matching the paper's end-to-end timing.
                let session = RobustnessSession::new(w.clone());
                let graph = session.graph(AnalysisSettings::paper_default());
                assert!(find_type2_violation(&graph).is_none());
                graph.edge_count()
            })
        });
    }
    group.finish();
}

fn bench_auction_n_graph_only(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure8_graph_size");
    group.sample_size(10);
    for n in SIZES {
        let workload = auction_n(n);
        let session = RobustnessSession::new(workload);
        group.bench_with_input(BenchmarkId::from_parameter(n), &session, |b, s| {
            b.iter(|| {
                // Measure Algorithm 1 itself: a fresh (uncached) construction over the
                // session's LTPs each iteration.
                mvrc_robustness::SummaryGraph::construct(
                    s.ltps(),
                    s.schema(),
                    AnalysisSettings::paper_default(),
                )
                .edge_count()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_auction_n, bench_auction_n_graph_only);
criterion_main!(benches);
