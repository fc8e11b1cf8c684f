//! `repro` — regenerates every table and figure of the paper's evaluation (Section 7).
//!
//! ```text
//! repro table2                 Table 2   benchmark characteristics
//! repro figure6                Figure 6  robust subsets via Algorithm 2 (type-II cycles)
//! repro figure7                Figure 7  robust subsets via type-I cycles (Alomari & Fekete)
//! repro figure8 [--max N]      Figure 8  Auction(n) scalability sweep (10 repetitions)
//! repro figure4                Figure 4  summary graph of the Auction example (DOT)
//! repro graphs                 Figures 11/18: DOT summary graphs for SmallBank and TPC-C
//! repro bench-subsets [--out P] median subset-exploration times (naive vs shared vs pruned,
//!                              plus the setup phase and the per-subset rate) on the paper
//!                              benchmarks + YCSB-T, written to
//!                              BENCH_subsets.json (or P)
//! repro bench-edits [--out P]  median re-sweep times after a workload edit (fresh vs
//!                              incremental verdict reuse, remove + re-add scenarios), written
//!                              to BENCH_edits.json (or P)
//! repro bench-open [--out P]   median time-to-first-answer: cold construction vs reopening a
//!                              snapshot (owned decode vs zero-copy map), written to
//!                              BENCH_open.json (or P)
//! repro bench-serve [--out P]  daemon round-trip latency (cold first query vs warm) and
//!                              `is_robust` throughput at 1/4/16 concurrent clients over the
//!                              loopback wire protocol, written to BENCH_serve.json (or P)
//! repro bench-certify [--out P] certify every non-robust subset of the four benchmarks with
//!                              an executed MVRC history rejected by the independent
//!                              serializability checker, written to BENCH_certify.json (or P);
//!                              exits non-zero if any subset resists certification
//! repro all                    everything above (figure8 capped at n = 50)
//! ```
//!
//! Add `--json` to emit machine-readable output for `table2`, `figure6`, `figure7` and
//! `figure8`. Add `--threads N` to pin the size of the `mvrc-par` worker pool (equivalent to
//! setting `MVRC_THREADS=N`); the benchmark rows record the pool size actually used.

use mvrc_bench::{figure6, figure7, figure8, table2};
use mvrc_benchmarks::{auction, auction_n, smallbank, tpcc, ycsb_t, YcsbtConfig};
use mvrc_dist::{open_snapshot, save_snapshot, session_from_snapshot_bytes};
use mvrc_robustness::{
    explore_subsets, explore_subsets_naive, explore_subsets_with, to_dot, AnalysisSettings,
    CycleCondition, DotOptions, ExploreOptions, RobustnessSession,
};
use serde::Serialize;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let command = args.first().map(String::as_str).unwrap_or("all");
    let max_n = args
        .iter()
        .position(|a| a == "--max")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(50);
    let out_override = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let out_path = out_override
        .clone()
        .unwrap_or_else(|| "BENCH_subsets.json".to_string());
    let edits_out_path = out_override
        .clone()
        .unwrap_or_else(|| "BENCH_edits.json".to_string());
    let open_out_path = out_override
        .clone()
        .unwrap_or_else(|| "BENCH_open.json".to_string());
    let serve_out_path = out_override
        .clone()
        .unwrap_or_else(|| "BENCH_serve.json".to_string());
    let certify_out_path = out_override.unwrap_or_else(|| "BENCH_certify.json".to_string());
    if let Some(i) = args.iter().position(|a| a == "--threads") {
        let Some(threads) = args
            .get(i + 1)
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
        else {
            eprintln!("--threads needs a positive thread count");
            std::process::exit(2);
        };
        // Must run before the first parallel pass starts the pool lazily.
        if !mvrc_par::configure_thread_count(threads) {
            eprintln!("--threads {threads}: pool already running with a different size");
            std::process::exit(2);
        }
    }

    match command {
        "table2" => print_table2(json),
        "figure6" => print_figure6(json),
        "figure7" => print_figure7(json),
        "figure8" => print_figure8(max_n, json),
        "figure4" => print_figure4(),
        "graphs" => print_graphs(),
        "bench-subsets" => bench_subsets(&out_path),
        "bench-edits" => bench_edits(&edits_out_path),
        "bench-open" => bench_open(&open_out_path),
        "bench-serve" => bench_serve(&serve_out_path),
        "bench-certify" => bench_certify(&certify_out_path),
        "all" => {
            print_table2(json);
            print_figure6(json);
            print_figure7(json);
            print_figure8(max_n, json);
            print_figure4();
            bench_subsets(&out_path);
            bench_edits("BENCH_edits.json");
            bench_open("BENCH_open.json");
            bench_serve("BENCH_serve.json");
            bench_certify("BENCH_certify.json");
        }
        other => {
            eprintln!("unknown command `{other}`");
            eprintln!("usage: repro [table2|figure6|figure7|figure8|figure4|graphs|bench-subsets|bench-edits|bench-open|bench-serve|bench-certify|all] [--max N] [--json] [--out PATH] [--threads N]");
            std::process::exit(2);
        }
    }
}

fn print_table2(json: bool) {
    let rows = table2();
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&rows).expect("serializable rows")
        );
        return;
    }
    println!("== Table 2: benchmark characteristics (attr dep + FK summary graphs) ==");
    for row in &rows {
        println!("  {}", row.render());
    }
    println!("  Auction(n)   nodes=3n  edges=9n^2+8n (n counterflow)   [validated in tests]");
    println!();
}

fn print_figure6(json: bool) {
    let rows = figure6();
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&rows).expect("serializable rows")
        );
        return;
    }
    println!("== Figure 6: maximal robust subsets, Algorithm 2 (no type-II cycle) ==");
    print!("{}", mvrc_bench::figures::render_subset_rows(&rows));
    println!();
}

fn print_figure7(json: bool) {
    let rows = figure7();
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&rows).expect("serializable rows")
        );
        return;
    }
    println!("== Figure 7: maximal robust subsets, type-I condition of [Alomari & Fekete] ==");
    print!("{}", mvrc_bench::figures::render_subset_rows(&rows));
    println!();
}

fn print_figure8(max_n: usize, json: bool) {
    let ns: Vec<usize> = [5usize, 10, 20, 30, 40, 50, 75, 100]
        .into_iter()
        .filter(|&n| n <= max_n)
        .collect();
    let rows = figure8(&ns, 10);
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&rows).expect("serializable rows")
        );
        return;
    }
    println!("== Figure 8: Auction(n) scalability (10 repetitions, mean ± 95% CI) ==");
    println!(
        "  {:>5} {:>7} {:>10} {:>12} {:>16}",
        "n", "nodes", "edges", "cf edges", "time [ms]"
    );
    for row in &rows {
        println!(
            "  {:>5} {:>7} {:>10} {:>12} {:>10.2} ± {:.2}   robust={}",
            row.n,
            row.nodes,
            row.edges,
            row.counterflow_edges,
            row.mean_ms,
            row.ci95_ms,
            row.robust
        );
    }
    println!();
}

fn print_figure4() {
    let session = RobustnessSession::new(auction());
    let graph = session.graph(AnalysisSettings::paper_default());
    println!("== Figure 4: summary graph of the Auction running example (DOT) ==");
    println!("{}", to_dot(&graph, DotOptions::default()));
}

fn print_graphs() {
    for workload in [smallbank(), tpcc()] {
        let session = RobustnessSession::new(workload);
        let graph = session.graph(AnalysisSettings::paper_default());
        println!(
            "== Summary graph for {} (DOT, Figure 11/18 style) ==",
            session.workload().name
        );
        println!(
            "{}",
            to_dot(
                &graph,
                DotOptions {
                    edge_labels: false,
                    merge_parallel_edges: true
                }
            )
        );
    }
}

/// One row of `BENCH_subsets.json`: median wall-clock time of the three subset-exploration
/// paths on one benchmark, plus the counters that make the perf trajectory interpretable —
/// how many cycle tests the pruned sweep actually ran, how many subsets the closure pruning
/// decided for free, and how many pool workers the parallel passes had available.
#[derive(Debug, Clone, Serialize)]
struct SubsetBenchRow {
    benchmark: String,
    programs: usize,
    subsets: usize,
    /// Median time of the sweep *setup* phase — constructing a fresh session and the
    /// Algorithm-1 summary graph for the sweep's settings — in microseconds. CSR adjacency
    /// and the transitive closure stay lazy, so this is what every sweep variant pays before
    /// its first cycle test.
    setup_us: f64,
    /// Median time of the naive per-subset reconstruction, in microseconds.
    naive_us: f64,
    /// Median time of the shared-graph exhaustive sweep, in microseconds.
    shared_us: f64,
    /// Median time of the closure-pruned sweep, in microseconds.
    pruned_us: f64,
    /// `pruned_us / subsets`: the pruned sweep's per-subset rate, in microseconds.
    pruned_per_subset_us: f64,
    /// Cycle tests actually run by the pruned sweep (the other paths run `subsets` tests).
    cycle_tests: usize,
    /// Subsets decided by downward-closure pruning alone.
    pruned_subsets: usize,
    /// Size of the `mvrc-par` worker pool during the run (`MVRC_THREADS` / `--threads`).
    threads: usize,
}

/// Median wall-clock time of `f` over `runs` executions, in microseconds.
fn median_us(runs: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite durations"));
    samples[samples.len() / 2]
}

fn bench_subsets(out_path: &str) {
    const RUNS: usize = 11;
    let settings = AnalysisSettings::paper_default();
    let exhaustive = ExploreOptions {
        closure_pruning: false,
        ..ExploreOptions::default()
    };
    let rows: Vec<SubsetBenchRow> = [
        smallbank(),
        tpcc(),
        auction(),
        ycsb_t(YcsbtConfig::default()),
    ]
    .into_iter()
    .map(|workload| {
        let session = RobustnessSession::new(workload.clone());
        let pruned = explore_subsets(&session, settings);
        // The setup phase is timed on throwaway sessions: session construction plus the
        // Algorithm-1 graph for the sweep's settings (derived arrays stay lazy until a
        // cycle test asks for them).
        let setup_us = median_us(RUNS, || {
            let fresh = RobustnessSession::new(workload.clone());
            fresh.graph(settings);
        });
        // Warm the cache outside the timings so all variants amortize the same (single)
        // graph construction and measure only the sweep itself.
        let naive_us = median_us(RUNS, || {
            explore_subsets_naive(&session, settings);
        });
        let shared_us = median_us(RUNS, || {
            explore_subsets_with(&session, settings, exhaustive);
        });
        let pruned_us = median_us(RUNS, || {
            explore_subsets(&session, settings);
        });
        let programs = session.program_names().len();
        let subsets = (1 << programs) - 1;
        SubsetBenchRow {
            benchmark: session.workload().name.clone(),
            programs,
            subsets,
            setup_us,
            naive_us,
            shared_us,
            pruned_us,
            pruned_per_subset_us: pruned_us / subsets as f64,
            cycle_tests: pruned.cycle_tests,
            pruned_subsets: pruned.pruned,
            // `planned`, not `pool`: asking the running pool would *start* it, and with it
            // end the single-threaded allocator fast path the serial sweeps benefit from.
            threads: mvrc_par::planned_thread_count(),
        }
    })
    .collect();

    println!(
        "== Subset exploration medians ({RUNS} runs): setup + naive vs shared vs closure-pruned =="
    );
    for row in &rows {
        println!(
            "  {:<10} setup={:>8.1}µs  naive={:>9.1}µs  shared={:>9.1}µs  pruned={:>9.1}µs  per-subset={:>7.2}µs  ({} of {} cycle tests run, {} pruned, {} threads)",
            row.benchmark, row.setup_us, row.naive_us, row.shared_us, row.pruned_us,
            row.pruned_per_subset_us,
            row.cycle_tests, row.subsets, row.pruned_subsets, row.threads
        );
    }
    let payload = serde_json::to_string_pretty(&rows).expect("serializable rows");
    match std::fs::write(out_path, &payload) {
        Ok(()) => println!("  wrote {out_path}"),
        Err(e) => eprintln!("  could not write {out_path}: {e}"),
    }
    println!();
}

/// One row of `BENCH_edits.json`: after editing a workload (removing its last program, then
/// re-adding it), the median time of a *fresh* re-sweep vs the *incremental* re-sweep that
/// rebases the previous sweep's verdicts — plus the reuse counters that explain the gap.
#[derive(Debug, Clone, Serialize)]
struct EditBenchRow {
    benchmark: String,
    programs: usize,
    /// The program removed (and re-added) by the edit scenario — the workload's last.
    edited_program: String,
    /// Median fresh re-sweep time after the removal, in microseconds.
    fresh_remove_us: f64,
    /// Median incremental re-sweep time after the removal, in microseconds.
    incremental_remove_us: f64,
    /// Cycle tests the incremental removal re-sweep ran (always 0: pure mask compaction).
    remove_cycle_tests: usize,
    /// Verdicts the incremental removal re-sweep adopted without a visit.
    remove_reused: usize,
    /// Median fresh re-sweep time after re-adding the program, in microseconds.
    fresh_add_us: f64,
    /// Median incremental re-sweep time after re-adding the program, in microseconds.
    incremental_add_us: f64,
    /// Cycle tests the incremental addition re-sweep ran (≤ the containing-subsets count).
    add_cycle_tests: usize,
    /// Verdicts the incremental addition re-sweep adopted without a visit.
    add_reused: usize,
    /// Size of the `mvrc-par` worker pool during the run.
    threads: usize,
}

/// Median over `runs` samples where each sample re-installs the pre-edit cache entry before
/// the timed incremental sweep (so every sample measures the rebase + partial sweep, not a
/// second-run full reuse). `cached` is `None` for workloads below the
/// [`ExploreOptions::incremental_min_subsets`] cutoff, where no cache entry exists — the
/// timed sweep is then the cutoff's fresh-sweep fallback itself, which is exactly what the
/// row should show. Returns the median and the last run's exploration.
fn median_incremental_us(
    runs: usize,
    session: &RobustnessSession,
    settings: AnalysisSettings,
    cached: Option<&mvrc_robustness::CachedSweep>,
    options: ExploreOptions,
) -> (f64, mvrc_robustness::SubsetExploration) {
    let mut samples = Vec::with_capacity(runs);
    let mut last = None;
    for _ in 0..runs {
        if let Some(cached) = cached {
            session.install_cached_sweep(settings, cached.clone());
        }
        let start = Instant::now();
        let exploration = explore_subsets_with(session, settings, options);
        samples.push(start.elapsed().as_secs_f64() * 1e6);
        last = Some(exploration);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite durations"));
    (samples[samples.len() / 2], last.expect("runs >= 1"))
}

fn bench_edits(out_path: &str) {
    const RUNS: usize = 11;
    let settings = AnalysisSettings::paper_default();
    let incremental = ExploreOptions {
        incremental: true,
        ..ExploreOptions::default()
    };
    let rows: Vec<EditBenchRow> = [
        smallbank(),
        tpcc(),
        auction(),
        ycsb_t(YcsbtConfig::default()),
    ]
    .into_iter()
    .map(|workload| {
        let edited = workload
            .programs
            .last()
            .expect("non-empty workload")
            .clone();
        let full_session = RobustnessSession::new(workload);
        let programs = full_session.program_names().len();
        // The pre-edit state every sample rebases from: a completed sweep of the full mix.
        // Workloads below the incremental size cutoff install no cache entry — their
        // incremental columns measure the fresh-sweep fallback (reuse counters read 0).
        explore_subsets_with(&full_session, settings, incremental);
        let full_cache = full_session.cached_sweep(settings);

        // Removal: drop the last program, re-sweep. Incremental = pure mask compaction.
        let mut removed_session = full_session.clone();
        removed_session.remove_program(edited.name()).unwrap();
        let fresh_remove_us = median_us(RUNS, || {
            explore_subsets(&removed_session, settings);
        });
        let (incremental_remove_us, remove_result) = median_incremental_us(
            RUNS,
            &removed_session,
            settings,
            full_cache.as_ref(),
            incremental,
        );

        // Addition: from the removed state (with its completed sweep cached), re-add the
        // program. Incremental sweeps only the containing subsets.
        let removed_cache = removed_session.cached_sweep(settings);
        let mut added_session = removed_session.clone();
        added_session.add_program(edited.clone());
        let fresh_add_us = median_us(RUNS, || {
            explore_subsets(&added_session, settings);
        });
        let (incremental_add_us, add_result) = median_incremental_us(
            RUNS,
            &added_session,
            settings,
            removed_cache.as_ref(),
            incremental,
        );

        EditBenchRow {
            benchmark: full_session.workload().name.clone(),
            programs,
            edited_program: edited.name().to_string(),
            fresh_remove_us,
            incremental_remove_us,
            remove_cycle_tests: remove_result.cycle_tests,
            remove_reused: remove_result.reused,
            fresh_add_us,
            incremental_add_us,
            add_cycle_tests: add_result.cycle_tests,
            add_reused: add_result.reused,
            threads: mvrc_par::planned_thread_count(),
        }
    })
    .collect();

    println!("== Edit re-sweep medians ({RUNS} runs): fresh vs incremental verdict reuse ==");
    for row in &rows {
        println!(
            "  {:<10} -{:<16} fresh={:>8.1}µs  incr={:>8.1}µs ({} tests, {} reused)   \
             +{:<16} fresh={:>8.1}µs  incr={:>8.1}µs ({} tests, {} reused)",
            row.benchmark,
            row.edited_program,
            row.fresh_remove_us,
            row.incremental_remove_us,
            row.remove_cycle_tests,
            row.remove_reused,
            row.edited_program,
            row.fresh_add_us,
            row.incremental_add_us,
            row.add_cycle_tests,
            row.add_reused,
        );
    }
    let payload = serde_json::to_string_pretty(&rows).expect("serializable rows");
    match std::fs::write(out_path, &payload) {
        Ok(()) => println!("  wrote {out_path}"),
        Err(e) => eprintln!("  could not write {out_path}: {e}"),
    }
    println!();
}

/// One row of `BENCH_open.json`: median time-to-first-answer for one benchmark — building
/// the session from scratch vs reopening a saved snapshot, answering the full type-II
/// evaluation grid either way. The two open paths split the snapshot win: `decode_open_us`
/// reads the file and decodes the version-3 derived block into owned arrays, `warm_open_us`
/// maps the file and borrows the arrays in place (zero per-element work, zero closure
/// rebuilds). Both include the file read, so the columns are directly comparable. On the
/// paper workloads the grid itself dominates every path, so the columns mostly measure how
/// little each open costs; TPC-C (the construction-heavy workload) is where reopening beats
/// rebuilding, and the scaled `Auction(n)` row exercises the derived block at hundreds of
/// kilobytes to show the open paths stay flat relative to file size.
#[derive(Debug, Clone, Serialize)]
struct OpenBenchRow {
    benchmark: String,
    programs: usize,
    /// Summary graphs cached in the snapshot (one per settings combination queried).
    graphs: usize,
    /// Size of the saved snapshot file in bytes.
    snapshot_bytes: usize,
    /// Median time to construct a fresh session and answer the type-II evaluation grid, µs.
    cold_us: f64,
    /// Median time to decode the snapshot into owned arrays and answer the grid, µs.
    decode_open_us: f64,
    /// Median time to map the snapshot zero-copy and answer the grid, µs.
    warm_open_us: f64,
    /// `true` when the cold build beat the mapped open (`cold_us < warm_open_us`). Expected
    /// only on the tiny workloads, where a from-scratch build costs a handful of graph
    /// constructions over three-to-five nodes and the open's floor (file read + fingerprint
    /// verify + workload/LTP decode) cannot amortize; any `true` on a construction-heavy row
    /// (TPC-C, the scaled Auction) is a regression in the open path and should be treated
    /// as such, not averaged away.
    cold_wins: bool,
    /// Size of the `mvrc-par` worker pool during the run.
    threads: usize,
}

fn bench_open(out_path: &str) {
    const RUNS: usize = 11;
    let grid = |session: &RobustnessSession| {
        for settings in AnalysisSettings::evaluation_grid(CycleCondition::TypeII) {
            session.is_robust(settings);
        }
    };
    let rows: Vec<OpenBenchRow> = [
        smallbank(),
        tpcc(),
        auction(),
        ycsb_t(YcsbtConfig::default()),
        auction_n(25),
    ]
    .into_iter()
    .map(|workload| {
        // Warm a session over the whole grid, then snapshot it: the file carries every
        // graph with its derived block, so reopening answers the grid without rebuilding.
        let session = RobustnessSession::new(workload.clone());
        grid(&session);
        let path = std::env::temp_dir().join(format!(
            "mvrc-bench-open-{}-{}.mvrcsnap",
            std::process::id(),
            session.workload().name
        ));
        save_snapshot(&session, &path).expect("snapshot save");
        let bytes = std::fs::read(&path).expect("snapshot read");

        let cold_us = median_us(RUNS, || {
            let fresh = RobustnessSession::new(workload.clone());
            grid(&fresh);
        });
        let decode_open_us = median_us(RUNS, || {
            let bytes = std::fs::read(&path).expect("snapshot read");
            let (reopened, _) = session_from_snapshot_bytes(&bytes).expect("snapshot decode");
            grid(&reopened);
        });
        let warm_open_us = median_us(RUNS, || {
            let (reopened, _) = open_snapshot(&path).expect("snapshot open");
            grid(&reopened);
        });
        std::fs::remove_file(&path).ok();

        OpenBenchRow {
            benchmark: session.workload().name.clone(),
            programs: session.program_names().len(),
            graphs: session.cached_graph_count(),
            snapshot_bytes: bytes.len(),
            cold_us,
            decode_open_us,
            warm_open_us,
            cold_wins: cold_us < warm_open_us,
            threads: mvrc_par::planned_thread_count(),
        }
    })
    .collect();

    println!(
        "== Snapshot open medians ({RUNS} runs): cold build vs owned decode vs zero-copy map =="
    );
    for row in &rows {
        println!(
            "  {:<10} cold={:>9.1}µs  decode={:>9.1}µs  mapped={:>9.1}µs  ({} graphs, {} KiB, {} threads){}",
            row.benchmark,
            row.cold_us,
            row.decode_open_us,
            row.warm_open_us,
            row.graphs,
            row.snapshot_bytes / 1024,
            row.threads,
            if row.cold_wins {
                "  [cold wins: rebuild beat the mapped open]"
            } else {
                ""
            }
        );
    }
    let payload = serde_json::to_string_pretty(&rows).expect("serializable rows");
    match std::fs::write(out_path, &payload) {
        Ok(()) => println!("  wrote {out_path}"),
        Err(e) => eprintln!("  could not write {out_path}: {e}"),
    }
    println!();
}

/// One row of `BENCH_serve.json`: daemon round-trip cost over the loopback wire protocol for
/// one benchmark. `cold_query_us` is the first `is_robust` on a tenant booted from its
/// workload alone — that round trip pays the summary-graph construction on top of framing.
/// `warm_query_us` and `subsets_query_us` are medians once the graphs are cached: the epoch
/// read is lock-free, so they are close to pure framing + dispatch cost. The throughput
/// columns drive the same warm `is_robust` query from 1, 4 and 16 concurrent client
/// connections (one server thread each) and report aggregate queries per second.
#[derive(Debug, Clone, Serialize)]
struct ServeBenchRow {
    benchmark: String,
    programs: usize,
    /// Median first-`is_robust` round trip on a cold tenant (includes the graph build), µs.
    cold_query_us: f64,
    /// Median warm `is_robust` round trip, µs.
    warm_query_us: f64,
    /// Median warm `explore_subsets` round trip (the full 2^n sweep plus JSON rendering), µs.
    subsets_query_us: f64,
    /// Aggregate warm `is_robust` throughput with 1 client, queries/second.
    qps_1: f64,
    /// Aggregate warm `is_robust` throughput with 4 concurrent clients, queries/second.
    qps_4: f64,
    /// Aggregate warm `is_robust` throughput with 16 concurrent clients, queries/second.
    qps_16: f64,
    /// Size of the `mvrc-par` worker pool during the run.
    threads: usize,
}

fn bench_serve(out_path: &str) {
    use mvrc_serve::{Client, ServeConfig, Server, Tenant};
    const RUNS: usize = 11;
    /// Warm `is_robust` requests issued in total at each concurrency level (divisible by 16
    /// so every level drives the same request count).
    const THROUGHPUT_REQUESTS: usize = 384;

    let rows: Vec<ServeBenchRow> = [smallbank(), tpcc()]
        .into_iter()
        .map(|workload| {
            let benchmark = workload.name.clone();
            let programs = workload.programs.len();
            // One warm tenant for the steady-state columns plus RUNS cold tenants: a cold
            // sample must be a *first* query, so each sample gets a tenant of its own.
            let mut tenants = vec![Tenant::from_workload("warm", workload.clone())];
            for i in 0..RUNS {
                tenants.push(Tenant::from_workload(format!("cold-{i}"), workload.clone()));
            }
            let server = Server::bind(&ServeConfig::default(), tenants).expect("bind");
            let addr = server.local_addr().expect("addr");
            let flag = server.shutdown_flag();
            let handle = std::thread::spawn(move || server.run());

            let mut client = Client::connect(addr).expect("connect");
            let mut cold: Vec<f64> = (0..RUNS)
                .map(|i| {
                    let tenant = format!("cold-{i}");
                    let start = Instant::now();
                    client
                        .call(&serde_json::json!({"op": "is_robust", "tenant": tenant}))
                        .expect("cold is_robust");
                    start.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            cold.sort_by(|a, b| a.partial_cmp(b).expect("finite durations"));
            let cold_query_us = cold[cold.len() / 2];

            // Prime the warm tenant outside the timings, then measure the steady state.
            client
                .call(&serde_json::json!({"op": "is_robust", "tenant": "warm"}))
                .expect("warm prime");
            let warm_query_us = median_us(RUNS, || {
                client
                    .call(&serde_json::json!({"op": "is_robust", "tenant": "warm"}))
                    .expect("warm is_robust");
            });
            let subsets_query_us = median_us(RUNS, || {
                client
                    .call(&serde_json::json!({"op": "explore_subsets", "tenant": "warm"}))
                    .expect("warm explore_subsets");
            });

            let qps = |clients: usize| -> f64 {
                let per_client = THROUGHPUT_REQUESTS / clients;
                let start = Instant::now();
                let workers: Vec<_> = (0..clients)
                    .map(|_| {
                        std::thread::spawn(move || {
                            let mut client = Client::connect(addr).expect("connect");
                            for _ in 0..per_client {
                                client
                                    .call(&serde_json::json!({
                                        "op": "is_robust",
                                        "tenant": "warm"
                                    }))
                                    .expect("throughput is_robust");
                            }
                        })
                    })
                    .collect();
                for worker in workers {
                    worker.join().expect("client thread");
                }
                (clients * per_client) as f64 / start.elapsed().as_secs_f64()
            };
            let qps_1 = qps(1);
            let qps_4 = qps(4);
            let qps_16 = qps(16);

            flag.store(true, std::sync::atomic::Ordering::SeqCst);
            drop(client);
            handle.join().expect("server thread").expect("clean drain");

            ServeBenchRow {
                benchmark,
                programs,
                cold_query_us,
                warm_query_us,
                subsets_query_us,
                qps_1,
                qps_4,
                qps_16,
                threads: mvrc_par::planned_thread_count(),
            }
        })
        .collect();

    println!(
        "== Daemon round trips ({RUNS} runs): cold vs warm latency, throughput at 1/4/16 clients =="
    );
    for row in &rows {
        println!(
            "  {:<10} cold={:>9.1}µs  warm={:>8.1}µs  subsets={:>9.1}µs  qps(1)={:>8.0}  qps(4)={:>8.0}  qps(16)={:>8.0}  ({} threads)",
            row.benchmark,
            row.cold_query_us,
            row.warm_query_us,
            row.subsets_query_us,
            row.qps_1,
            row.qps_4,
            row.qps_16,
            row.threads
        );
    }
    let payload = serde_json::to_string_pretty(&rows).expect("serializable rows");
    match std::fs::write(out_path, &payload) {
        Ok(()) => println!("  wrote {out_path}"),
        Err(e) => eprintln!("  could not write {out_path}: {e}"),
    }
    println!();
}

/// One row of `BENCH_certify.json`: for one benchmark, every subset the sweep reports
/// non-robust is handed to `mvrc-hist`'s witness compiler, which must produce an executed
/// MVRC history that the independent serializability checker rejects. `certified` counting
/// up to `non_robust_subsets` on every row is the acceptance gauge for the certification
/// pipeline — a shortfall means a summary-graph verdict we could not back with evidence.
#[derive(Debug, Clone, Serialize)]
struct CertifyBenchRow {
    benchmark: String,
    programs: usize,
    /// Non-empty subsets of the workload (`2^n - 1`).
    subsets: usize,
    /// Subsets the exploration sweep reports non-robust under the paper-default settings.
    non_robust_subsets: usize,
    /// Non-robust subsets for which a checker-rejected executed history was produced.
    certified: usize,
    /// Non-robust subsets whose verdict stands but where no witness schedule realized
    /// (should stay 0; listed on stderr when not).
    unrealized: usize,
    /// Distinct anomaly shapes among the certificates (e.g. two-transaction write skew vs a
    /// three-transaction type-II cycle) — a diversity gauge for the witness corpus.
    distinct_anomalies: usize,
    /// Wall-clock time to certify all non-robust subsets, in milliseconds.
    total_ms: f64,
    /// Size of the `mvrc-par` worker pool during the run.
    threads: usize,
}

fn bench_certify(out_path: &str) {
    use mvrc_hist::{certify_subset, CertifyOutcome};
    let settings = AnalysisSettings::paper_default();
    let mut shortfalls = 0usize;
    let rows: Vec<CertifyBenchRow> = [
        smallbank(),
        tpcc(),
        auction(),
        ycsb_t(YcsbtConfig::default()),
    ]
    .into_iter()
    .map(|workload| {
        let session = RobustnessSession::new(workload);
        let label = session.workload().name.clone();
        let exploration = explore_subsets(&session, settings);
        let names = exploration.programs.clone();
        let start = Instant::now();
        let mut non_robust = 0usize;
        let mut certified = 0usize;
        let mut unrealized = 0usize;
        let mut anomalies = std::collections::BTreeSet::new();
        for mask in 1usize..(1 << names.len()) {
            let subset: Vec<usize> = (0..names.len()).filter(|i| mask & (1 << i) != 0).collect();
            if exploration.robust.contains(&subset) {
                continue;
            }
            non_robust += 1;
            let subset_names: Vec<&str> = subset.iter().map(|&i| names[i].as_str()).collect();
            match certify_subset(&session, &label, &subset_names, settings) {
                Ok(CertifyOutcome::Certified(c)) => {
                    certified += 1;
                    anomalies.insert(c.realization.anomaly.clone());
                }
                Ok(CertifyOutcome::Attested(_)) => {
                    // The sweep said non-robust but the certifier saw a robust view: the two
                    // paths disagree on the verdict itself, which is worse than a missing
                    // witness. Count it as a shortfall so the run exits non-zero.
                    unrealized += 1;
                    shortfalls += 1;
                    eprintln!(
                        "  {label}: {{{}}} sweep says non-robust but certify attested it robust",
                        subset_names.join(", ")
                    );
                }
                Err(e) => {
                    unrealized += 1;
                    shortfalls += 1;
                    eprintln!(
                        "  {label}: {{{}}} not certified: {e}",
                        subset_names.join(", ")
                    );
                }
            }
        }
        let total_ms = start.elapsed().as_secs_f64() * 1e3;
        CertifyBenchRow {
            benchmark: label,
            programs: names.len(),
            subsets: (1 << names.len()) - 1,
            non_robust_subsets: non_robust,
            certified,
            unrealized,
            distinct_anomalies: anomalies.len(),
            total_ms,
            threads: mvrc_par::planned_thread_count(),
        }
    })
    .collect();

    println!(
        "== Certification coverage: executed, checker-rejected histories for every non-robust subset =="
    );
    for row in &rows {
        println!(
            "  {:<10} {:>3} of {:>3} subsets non-robust  certified={:>3}  unrealized={}  distinct anomalies={}  ({:.1} ms, {} threads)",
            row.benchmark,
            row.non_robust_subsets,
            row.subsets,
            row.certified,
            row.unrealized,
            row.distinct_anomalies,
            row.total_ms,
            row.threads
        );
    }
    let payload = serde_json::to_string_pretty(&rows).expect("serializable rows");
    match std::fs::write(out_path, &payload) {
        Ok(()) => println!("  wrote {out_path}"),
        Err(e) => eprintln!("  could not write {out_path}: {e}"),
    }
    println!();
    if shortfalls > 0 {
        eprintln!("bench-certify: {shortfalls} non-robust subset(s) without a certificate");
        std::process::exit(1);
    }
}
