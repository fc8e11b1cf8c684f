//! Protocol-level coverage of the shard layer: plan → N concurrent workers (threads here;
//! real processes in the CLI's `shard_e2e` test) → merge must reproduce the single-process
//! `explore_subsets` result exactly — verdict set, maximal subsets and the
//! `cycle_tests`/`pruned` accounting summed across shards — on the paper benchmarks and
//! across worker counts.

use mvrc_benchmarks::{auction, auction_n, smallbank, tpcc, Workload};
use mvrc_dist::{
    create_plan_dir, create_plan_dir_resuming, merge_verdicts, read_plan, run_worker, seed_path,
    verdict_path, PlanOptions, ShardError,
};
use mvrc_robustness::{
    explore_subsets, AnalysisSettings, CycleCondition, Granularity, RobustnessSession,
    TooManyPrograms,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "mvrc-dist-shard-{}-{tag}-{unique}",
        std::process::id()
    ))
}

const BARRIER_TIMEOUT: Duration = Duration::from_secs(60);

/// Runs the whole protocol with `workers` concurrent worker threads over `dir` and returns
/// the merged exploration.
fn run_protocol(
    workload: Workload,
    settings: AnalysisSettings,
    workers: usize,
    dir: &Path,
) -> mvrc_dist::MergeReport {
    let session = RobustnessSession::new(workload);
    let plan =
        create_plan_dir(&session, settings, &PlanOptions::for_workers(workers), dir).unwrap();
    assert_eq!(plan.workers, workers);
    assert_eq!(plan.levels.len(), session.program_names().len());

    let reports: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| scope.spawn(move || run_worker(dir, worker, BARRIER_TIMEOUT).unwrap()))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Every shard ran exactly once, by its assigned worker.
    let shards_run: usize = reports.iter().map(|r| r.shards_run).sum();
    assert_eq!(shards_run, plan.shard_count());
    for report in &reports {
        assert_eq!(report.levels, plan.levels.len());
        assert_eq!(report.shards_run, plan.shards_for_worker(report.worker));
    }

    merge_verdicts(dir).unwrap()
}

fn assert_sharded_run_matches(workload: Workload, settings: AnalysisSettings, workers: usize) {
    let tag = format!(
        "{}-w{workers}",
        workload.name.to_lowercase().replace(['-', ' '], "")
    );
    let dir = scratch_dir(&tag);
    let reference = explore_subsets(&RobustnessSession::new(workload.clone()), settings);
    let merged = run_protocol(workload, settings, workers, &dir);

    assert_eq!(merged.exploration.robust, reference.robust);
    assert_eq!(merged.exploration.maximal, reference.maximal);
    assert_eq!(
        merged.exploration.cycle_tests, reference.cycle_tests,
        "summed shard cycle tests must equal the single-process count"
    );
    assert_eq!(merged.exploration.pruned, reference.pruned);
    assert_eq!(merged.exploration.programs, reference.programs);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn two_workers_reproduce_the_paper_benchmarks() {
    for workload in [smallbank(), tpcc(), auction()] {
        assert_sharded_run_matches(workload, AnalysisSettings::paper_default(), 2);
    }
}

#[test]
fn worker_counts_beyond_the_shard_count_still_agree() {
    // Auction has 2 programs → tiny levels; with 5 workers most own zero shards at a level
    // and only publish empty verdict files. The barrier must still work.
    assert_sharded_run_matches(auction(), AnalysisSettings::paper_default(), 5);
    assert_sharded_run_matches(smallbank(), AnalysisSettings::paper_default(), 3);
}

#[test]
fn single_worker_degenerates_to_the_sequential_sweep() {
    assert_sharded_run_matches(
        tpcc(),
        AnalysisSettings::baseline(Granularity::Attribute, true),
        1,
    );
}

#[test]
fn other_settings_and_disabled_pruning_agree_too() {
    let dir = scratch_dir("noprune");
    let settings = AnalysisSettings {
        granularity: Granularity::Tuple,
        use_foreign_keys: false,
        condition: CycleCondition::TypeI,
    };
    let session = RobustnessSession::new(smallbank());
    let mut options = PlanOptions::for_workers(2);
    options.closure_pruning = false;
    create_plan_dir(&session, settings, &options, &dir).unwrap();
    std::thread::scope(|scope| {
        for worker in 0..2 {
            let dir = &dir;
            scope.spawn(move || run_worker(dir, worker, BARRIER_TIMEOUT).unwrap());
        }
    });
    let merged = merge_verdicts(&dir).unwrap();
    let reference = explore_subsets(&session, settings);
    assert_eq!(merged.exploration.robust, reference.robust);
    // Without pruning every non-empty mask is cycle-tested.
    assert_eq!(merged.exploration.cycle_tests, (1 << 5) - 1);
    assert_eq!(merged.exploration.pruned, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn plan_round_trips_through_json() {
    let dir = scratch_dir("planjson");
    let session = RobustnessSession::new(tpcc());
    let plan = create_plan_dir(
        &session,
        AnalysisSettings::paper_default(),
        &PlanOptions::for_workers(2),
        &dir,
    )
    .unwrap();
    let reread = read_plan(&dir).unwrap();
    assert_eq!(reread, plan);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn plans_carrying_a_kernel_field_still_read_and_run() {
    // Older builds recorded a per-plan sweep kernel; the reader ignores the field, so their
    // run directories still work and merge to the single-process result.
    let dir = scratch_dir("kernel-field");
    let session = RobustnessSession::new(smallbank());
    let settings = AnalysisSettings::paper_default();
    let plan = create_plan_dir(&session, settings, &PlanOptions::for_workers(2), &dir).unwrap();
    let plan_file = dir.join(mvrc_dist::PLAN_FILE);
    let json = std::fs::read_to_string(&plan_file).unwrap();
    let marker = "\"closure_pruning\": true,";
    assert!(json.contains(marker), "{json}");
    let old_style = json.replace(marker, &format!("{marker}\n  \"kernel\": \"scalar\","));
    std::fs::write(&plan_file, old_style).unwrap();
    assert_eq!(read_plan(&dir).unwrap(), plan);

    std::thread::scope(|scope| {
        for worker in 0..2 {
            let dir = &dir;
            scope.spawn(move || run_worker(dir, worker, BARRIER_TIMEOUT).unwrap());
        }
    });
    let merged = merge_verdicts(&dir).unwrap();
    assert_eq!(merged.exploration, explore_subsets(&session, settings));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn planning_a_too_wide_workload_fails_typed_before_touching_the_directory() {
    let dir = scratch_dir("too-wide");
    let session = RobustnessSession::new(auction_n(25));
    let err = create_plan_dir(
        &session,
        AnalysisSettings::paper_default(),
        &PlanOptions::for_workers(2),
        &dir,
    )
    .unwrap_err();
    assert_eq!(
        err,
        ShardError::TooManyPrograms(TooManyPrograms { programs: 50 })
    );
    assert!(!dir.exists());
    assert_eq!(
        session.cached_graph_count(),
        0,
        "no graph is built for a refused plan"
    );
}

#[test]
fn worker_errors_are_reported_not_hung() {
    let dir = scratch_dir("errors");
    let session = RobustnessSession::new(auction());
    create_plan_dir(
        &session,
        AnalysisSettings::paper_default(),
        &PlanOptions::for_workers(2),
        &dir,
    )
    .unwrap();

    // Unknown worker index.
    assert!(matches!(
        run_worker(&dir, 7, BARRIER_TIMEOUT).unwrap_err(),
        ShardError::Protocol(_)
    ));

    // A lone worker of a 2-worker plan times out at the first level barrier (with a tiny
    // timeout), instead of hanging forever.
    let err = run_worker(&dir, 0, Duration::from_millis(50)).unwrap_err();
    match err {
        ShardError::BarrierTimeout { level, worker, .. } => {
            assert_eq!(level, 2);
            assert_eq!(worker, 1);
        }
        other => panic!("expected BarrierTimeout, got {other:?}"),
    }

    // Merging before the workers ran fails on the first missing verdict file.
    let fresh = scratch_dir("errors2");
    create_plan_dir(
        &session,
        AnalysisSettings::paper_default(),
        &PlanOptions::for_workers(2),
        &fresh,
    )
    .unwrap();
    assert!(matches!(
        merge_verdicts(&fresh).unwrap_err(),
        ShardError::Io { .. }
    ));

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&fresh).ok();
}

#[test]
fn replanning_invalidates_stale_verdicts() {
    // A completed 2-worker run followed by a re-plan must not let `merge` silently combine
    // the old run's files: re-planning deletes them, so merge fails on the missing files
    // until the new plan's workers have run — and even a manually restored stale file would
    // fail the run fingerprint (the worker count participates in it).
    let dir = scratch_dir("replan");
    let settings = AnalysisSettings::paper_default();
    let session = RobustnessSession::new(smallbank());

    let first = create_plan_dir(&session, settings, &PlanOptions::for_workers(2), &dir).unwrap();
    std::thread::scope(|scope| {
        for worker in 0..2 {
            let dir = &dir;
            scope.spawn(move || run_worker(dir, worker, BARRIER_TIMEOUT).unwrap());
        }
    });
    assert!(merge_verdicts(&dir).is_ok());
    let stale = std::fs::read(verdict_path(&dir, 5, 1)).unwrap();

    let second = create_plan_dir(&session, settings, &PlanOptions::for_workers(3), &dir).unwrap();
    assert_ne!(
        first.run_fingerprint, second.run_fingerprint,
        "a different fan-out is a different run"
    );
    assert!(
        !verdict_path(&dir, 5, 1).exists(),
        "re-planning must delete stale verdict files"
    );
    assert!(matches!(
        merge_verdicts(&dir).unwrap_err(),
        ShardError::Io { .. }
    ));

    // Even restoring a stale file by hand cannot smuggle it into the new run.
    std::fs::write(verdict_path(&dir, 5, 1), stale).unwrap();
    assert!(matches!(
        merge_verdicts(&dir).unwrap_err(),
        ShardError::Verdict(_) | ShardError::Io { .. }
    ));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resumed_run_after_edits_reuses_verdicts_and_matches_fresh_merge() {
    // Run 1 sweeps SmallBank minus WriteCheck; run 2 resumes with the full five programs.
    // The resumed plan must dispatch only the WriteCheck-containing subsets (2^4 = 16 masks,
    // so summed worker cycle tests ≤ 16), and its merge must reproduce the fresh
    // single-process exploration of the full workload *exactly* — counters included.
    let dir1 = scratch_dir("resume-1");
    let dir2 = scratch_dir("resume-2");
    let settings = AnalysisSettings::paper_default();

    let mut reduced = smallbank();
    reduced.programs.retain(|p| p.name() != "WriteCheck");
    let session1 = RobustnessSession::new(reduced);
    create_plan_dir(&session1, settings, &PlanOptions::for_workers(2), &dir1).unwrap();
    std::thread::scope(|scope| {
        for worker in 0..2 {
            let dir = &dir1;
            scope.spawn(move || run_worker(dir, worker, BARRIER_TIMEOUT).unwrap());
        }
    });
    merge_verdicts(&dir1).unwrap();

    let session2 = RobustnessSession::new(smallbank());
    let plan = create_plan_dir_resuming(
        &session2,
        settings,
        &PlanOptions::for_workers(2),
        &dir2,
        Some(&dir1),
    )
    .unwrap();
    let resume = plan.resume.expect("plan must carry a resume section");
    assert_eq!(resume.reused, (1 << 4) - 1, "all 15 old subsets carry over");
    assert!(seed_path(&dir2).exists());
    // Only containing-the-new-program ranks are planned: 2^4 masks across all levels.
    let planned: usize = plan
        .levels
        .iter()
        .flat_map(|l| &l.shards)
        .map(|s| s.spec.len())
        .sum();
    assert_eq!(planned, 1 << 4);

    let reports: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|worker| {
                let dir = &dir2;
                scope.spawn(move || run_worker(dir, worker, BARRIER_TIMEOUT).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let resumed_tests: usize = reports.iter().map(|r| r.counters.cycle_tests).sum();
    assert!(
        resumed_tests <= 1 << 4,
        "resumed workers must only test containing subsets, ran {resumed_tests}"
    );

    let merged = merge_verdicts(&dir2).unwrap();
    let reference = explore_subsets(&session2, settings);
    assert_eq!(
        merged.exploration, reference,
        "resumed merge must be as-fresh"
    );
    assert!(
        resumed_tests < reference.cycle_tests,
        "reuse must beat the fresh sweep's {} cycle tests",
        reference.cycle_tests
    );

    // A tampered seed is rejected by workers and merge alike.
    let mut seed_bytes = std::fs::read(seed_path(&dir2)).unwrap();
    let last = seed_bytes.len() - 1;
    seed_bytes[last] ^= 0x40;
    std::fs::write(seed_path(&dir2), &seed_bytes).unwrap();
    assert!(matches!(
        merge_verdicts(&dir2).unwrap_err(),
        ShardError::Verdict(_)
    ));
    assert!(matches!(
        run_worker(&dir2, 0, BARRIER_TIMEOUT).unwrap_err(),
        ShardError::Verdict(_)
    ));

    std::fs::remove_dir_all(&dir1).ok();
    std::fs::remove_dir_all(&dir2).ok();
}

#[test]
fn resume_after_removal_dispatches_nothing() {
    // The inverse edit: run 1 sweeps the full workload, run 2 resumes after removing a
    // program — every surviving subset's verdict carries over, the plan dispatches zero
    // shards, and the merge still reports the exact fresh accounting.
    let dir1 = scratch_dir("removal-1");
    let dir2 = scratch_dir("removal-2");
    let settings = AnalysisSettings::paper_default();

    let session1 = RobustnessSession::new(smallbank());
    create_plan_dir(&session1, settings, &PlanOptions::for_workers(2), &dir1).unwrap();
    std::thread::scope(|scope| {
        for worker in 0..2 {
            let dir = &dir1;
            scope.spawn(move || run_worker(dir, worker, BARRIER_TIMEOUT).unwrap());
        }
    });

    let mut reduced = smallbank();
    reduced.programs.retain(|p| p.name() != "Balance");
    let session2 = RobustnessSession::new(reduced.clone());
    let plan = create_plan_dir_resuming(
        &session2,
        settings,
        &PlanOptions::for_workers(2),
        &dir2,
        Some(&dir1),
    )
    .unwrap();
    assert_eq!(plan.resume.unwrap().reused, (1 << 4) - 1);
    assert_eq!(
        plan.shard_count(),
        0,
        "a pure removal leaves nothing to sweep"
    );

    let reports: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|worker| {
                let dir = &dir2;
                scope.spawn(move || run_worker(dir, worker, BARRIER_TIMEOUT).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for report in &reports {
        assert_eq!(
            report.counters.cycle_tests, 0,
            "zero cycle tests after a removal"
        );
        assert_eq!(report.shards_run, 0);
    }

    let merged = merge_verdicts(&dir2).unwrap();
    let reference = explore_subsets(&RobustnessSession::new(reduced), settings);
    assert_eq!(merged.exploration, reference);

    // Resume with mismatched settings is refused up front.
    let err = create_plan_dir_resuming(
        &session2,
        AnalysisSettings::baseline(Granularity::Attribute, true),
        &PlanOptions::for_workers(2),
        &dir2,
        Some(&dir1),
    )
    .unwrap_err();
    assert!(matches!(err, ShardError::Protocol(_)), "{err}");

    std::fs::remove_dir_all(&dir1).ok();
    std::fs::remove_dir_all(&dir2).ok();
}

#[test]
fn verdicts_from_a_different_run_are_rejected() {
    // Two plans over different workloads: cross-pollinating verdict files must fail the
    // fingerprint check in both the barrier and the merge.
    let dir_a = scratch_dir("cross-a");
    let dir_b = scratch_dir("cross-b");
    let session_a = RobustnessSession::new(auction());
    let session_b = RobustnessSession::new(smallbank());
    let settings = AnalysisSettings::paper_default();
    create_plan_dir(&session_a, settings, &PlanOptions::for_workers(1), &dir_a).unwrap();
    create_plan_dir(&session_b, settings, &PlanOptions::for_workers(1), &dir_b).unwrap();
    run_worker(&dir_a, 0, BARRIER_TIMEOUT).unwrap();
    run_worker(&dir_b, 0, BARRIER_TIMEOUT).unwrap();

    // Overwrite one of B's verdict files with A's (same level exists in both: level 2).
    std::fs::copy(verdict_path(&dir_a, 2, 0), verdict_path(&dir_b, 2, 0)).unwrap();
    assert!(matches!(
        merge_verdicts(&dir_b).unwrap_err(),
        ShardError::Verdict(_)
    ));

    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}
