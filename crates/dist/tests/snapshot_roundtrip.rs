//! Property-based coverage of the snapshot layer: `save_snapshot` → `open_snapshot` must
//! preserve **every** analysis answer — `analyze`, `is_robust`, `explore_subsets` across the
//! full evaluation grid — on random synthetic workloads, and the cached graph arrays must
//! round-trip bit-identically. Corruption (header or payload) and fingerprint mismatches must
//! be rejected, never mis-read — from bytes in memory and from files on disk — and no byte
//! string may make the decoder panic.

use mvrc_benchmarks::{synthetic, SyntheticConfig};
use mvrc_dist::{
    session_from_snapshot_bytes, snapshot_to_bytes, SessionSnapshotExt, SnapshotError,
};
use mvrc_robustness::{
    explore_subsets, AnalysisSettings, CycleCondition, RobustnessSession, SummaryGraph,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn scratch_file(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "mvrc-dist-roundtrip-{}-{tag}-{unique}.mvrcsnap",
        std::process::id()
    ))
}

fn synthetic_config_strategy() -> impl Strategy<Value = SyntheticConfig> {
    (
        1usize..=3,   // relations
        2usize..=5,   // attributes per relation
        1usize..=4,   // programs (the exploration is exponential in this)
        1usize..=4,   // statements per program
        0.0f64..=1.0, // predicate probability
        0.0f64..=1.0, // write probability
        0.0f64..=0.6, // loop probability
        0.0f64..=0.6, // optional probability
        any::<u64>(), // seed
    )
        .prop_map(
            |(relations, attrs, programs, statements, pred_p, write_p, loop_p, opt_p, seed)| {
                SyntheticConfig {
                    relations,
                    attributes_per_relation: attrs,
                    programs,
                    statements_per_program: statements,
                    predicate_probability: pred_p,
                    write_probability: write_p,
                    loop_probability: loop_p,
                    optional_probability: opt_p,
                    seed,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn snapshots_preserve_every_answer_on_random_workloads(
        config in synthetic_config_strategy(),
    ) {
        let session = RobustnessSession::new(synthetic(config));
        // Warm every graph-shape combination so the snapshot carries all four cached graphs.
        for condition in [CycleCondition::TypeII, CycleCondition::TypeI] {
            for settings in AnalysisSettings::evaluation_grid(condition) {
                session.is_robust(settings);
            }
        }

        let bytes = snapshot_to_bytes(&session).unwrap();
        let constructions_before = SummaryGraph::constructions_on_current_thread();
        let (reopened, fingerprint) = session_from_snapshot_bytes(&bytes).unwrap();
        prop_assert_ne!(fingerprint, 0);
        prop_assert_eq!(reopened.program_names(), session.program_names());
        prop_assert_eq!(reopened.ltps(), session.ltps());

        for condition in [CycleCondition::TypeII, CycleCondition::TypeI] {
            for settings in AnalysisSettings::evaluation_grid(condition) {
                // Graph arrays: bit-identical round-trip.
                prop_assert_eq!(
                    &*reopened.graph(settings),
                    &*session.graph(settings),
                    "graph mismatch under {}", settings
                );
                // Full-workload answers.
                prop_assert_eq!(
                    reopened.is_robust(settings),
                    session.is_robust(settings),
                    "is_robust mismatch under {}", settings
                );
                let report = session.analyze(settings);
                let reopened_report = reopened.analyze(settings);
                prop_assert_eq!(reopened_report.is_robust(), report.is_robust());
                prop_assert_eq!(
                    reopened_report.counterflow_edge_count,
                    report.counterflow_edge_count
                );
                // The whole subset sweep, counters included.
                let sweep = explore_subsets(&session, settings);
                let reopened_sweep = explore_subsets(&reopened, settings);
                prop_assert_eq!(&reopened_sweep.robust, &sweep.robust);
                prop_assert_eq!(&reopened_sweep.maximal, &sweep.maximal);
                prop_assert_eq!(reopened_sweep.cycle_tests, sweep.cycle_tests);
                prop_assert_eq!(reopened_sweep.pruned, sweep.pruned);
            }
        }
        // All of the above ran on the snapshot's cached graphs: no Algorithm 1 reconstruction
        // (the original session also answers from its warm cache, so any construction at all
        // would have come from the reopened one).
        prop_assert_eq!(
            SummaryGraph::constructions_on_current_thread(),
            constructions_before
        );
    }

    #[test]
    fn corrupted_snapshots_are_rejected_never_misread(
        config in synthetic_config_strategy(),
        flip_byte in any::<u64>(),
    ) {
        let session = RobustnessSession::new(synthetic(config));
        session.is_robust(AnalysisSettings::paper_default());
        let bytes = snapshot_to_bytes(&session).unwrap();

        // Flipping any single byte must be caught: the header checks reject magic/version
        // damage, the FNV fingerprint rejects payload damage, and a (deliberately) restamped
        // fingerprint itself no longer matches the payload hash.
        let idx = (flip_byte as usize) % bytes.len();
        let mut corrupted = bytes.clone();
        corrupted[idx] ^= 0x2a;
        prop_assert!(session_from_snapshot_bytes(&corrupted).is_err());

        // Truncation anywhere strictly inside the file is caught too.
        prop_assert!(session_from_snapshot_bytes(&bytes[..idx]).is_err());

        // The same damage written to disk fails `open_snapshot` with a decode error, not an
        // I/O error.
        for damaged in [&corrupted[..], &bytes[..idx]] {
            let opened = open_written("flip", damaged).map(|(_, fingerprint)| fingerprint);
            let typed = matches!(
                opened,
                Err(SnapshotError::BadMagic
                    | SnapshotError::UnsupportedVersion { .. }
                    | SnapshotError::FingerprintMismatch { .. }
                    | SnapshotError::Corrupt(_))
            );
            prop_assert!(typed, "damaged file opened or failed untyped: {:?}", opened);
        }
    }
}

/// Warms the graph of every granularity/foreign-key combination, so every edit below has to
/// keep four cached graphs up to date.
fn warm_every_graph(session: &RobustnessSession) {
    for settings in AnalysisSettings::evaluation_grid(CycleCondition::TypeII) {
        session.graph(settings);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Incremental edits give the graph a fresh build makes: after every step of a random
    /// chain of `add_program`, `remove_program` and `replace_program` calls, each cached graph
    /// equals (edge order and derived arrays included) the graph of a fresh session over the
    /// same programs in the same order, and the two graph-only sessions serialize to the same
    /// snapshot bytes.
    #[test]
    fn edit_chains_give_the_graphs_and_bytes_of_a_fresh_session(
        config in synthetic_config_strategy(),
        extra_programs in 1usize..=3,
        steps in 1usize..=6,
        seed in any::<u64>(),
    ) {
        // The pool holds every program the chain may add; the session starts with a prefix.
        let pool = synthetic(SyntheticConfig {
            programs: config.programs + extra_programs,
            ..config
        });
        let mut start = pool.clone();
        start.programs.truncate(config.programs);
        let mut session = RobustnessSession::new(start);
        warm_every_graph(&session);

        let picks = seeded_bytes(seed, 2 * steps);
        for step in picks.chunks(2) {
            let (op, pick) = (step[0] % 3, usize::from(step[1]));
            let present = session.program_names().to_vec();
            let absent: Vec<_> = pool
                .programs
                .iter()
                .filter(|p| !present.iter().any(|n| n == p.name()))
                .collect();
            match op {
                0 if !absent.is_empty() => {
                    session.add_program(absent[pick % absent.len()].clone());
                }
                1 if present.len() > 1 => {
                    session.remove_program(&present[pick % present.len()]).unwrap();
                }
                _ => {
                    // Another pool program's body under the name of a present one.
                    let name = &present[pick % present.len()];
                    let body = &pool.programs[(pick / 7) % pool.programs.len()];
                    session.replace_program(body.renamed(name.as_str())).unwrap();
                }
            }

            let fresh = RobustnessSession::new(session.workload().clone());
            warm_every_graph(&fresh);
            for settings in AnalysisSettings::evaluation_grid(CycleCondition::TypeII) {
                prop_assert_eq!(
                    &*session.graph(settings),
                    &*fresh.graph(settings),
                    "edited graph differs from a fresh build under {}", settings
                );
            }
            prop_assert_eq!(snapshot_to_bytes(&session).unwrap(), snapshot_to_bytes(&fresh).unwrap());
        }
    }
}

#[test]
fn removing_and_re_adding_a_benchmark_program_gives_a_fresh_session() {
    // Every program of SmallBank and TPC-C, removed and added back (so it moves to the end of
    // the program order): the edited session's graphs, snapshot bytes and violation lists
    // under both cycle conditions equal those of a fresh session over the new order.
    for workload in [mvrc_benchmarks::smallbank(), mvrc_benchmarks::tpcc()] {
        for program in workload.programs.clone() {
            let mut session = RobustnessSession::new(workload.clone());
            warm_every_graph(&session);
            session.remove_program(program.name()).unwrap();
            session.add_program(program.clone());
            let fresh = RobustnessSession::new(session.workload().clone());
            warm_every_graph(&fresh);
            for condition in [CycleCondition::TypeI, CycleCondition::TypeII] {
                for settings in AnalysisSettings::evaluation_grid(condition) {
                    let (edited, built) = (session.graph(settings), fresh.graph(settings));
                    assert_eq!(
                        *edited,
                        *built,
                        "{} round trip under {settings}",
                        program.name()
                    );
                    assert_eq!(
                        mvrc_robustness::all_violations(&edited, condition),
                        mvrc_robustness::all_violations(&built, condition),
                        "{} round trip under {settings}",
                        program.name()
                    );
                }
            }
            assert_eq!(
                snapshot_to_bytes(&session).unwrap(),
                snapshot_to_bytes(&fresh).unwrap()
            );
        }
    }
}

/// Re-stamps a (possibly modified) snapshot's header fingerprint so only the *structural*
/// validation of the payload is exercised, not the FNV check.
fn restamp(bytes: &mut [u8]) {
    let fp = {
        // The crate's fingerprint helpers are private; recompute the word-lane FNV-1a
        // locally (same published constants, `u64` LE lanes, byte-chained tail).
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut lanes = bytes[20..].chunks_exact(8);
        for lane in &mut lanes {
            hash ^= u64::from_le_bytes(lane.try_into().unwrap());
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        for &b in lanes.remainder() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    };
    bytes[12..20].copy_from_slice(&fp.to_le_bytes());
}

/// `len` pseudo-random bytes expanded from `seed` (SplitMix64), so byte-string strategies need
/// nothing beyond `any::<u64>()` and an integer range.
fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as u8
        })
        .collect()
}

/// A valid snapshot exercising every section: TPC-C (predicate reads, inserts, deletes,
/// loops) and all four cached graphs.
fn fuzz_base_snapshot() -> &'static [u8] {
    static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    BYTES.get_or_init(|| {
        let session = RobustnessSession::new(mvrc_benchmarks::tpcc());
        for condition in [CycleCondition::TypeII, CycleCondition::TypeI] {
            for settings in AnalysisSettings::evaluation_grid(condition) {
                session.is_robust(settings);
            }
        }
        snapshot_to_bytes(&session).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// The structural decoder behind a valid header (magic, version and a fingerprint that
    /// matches the payload) sees arbitrary bytes: alone, and after a valid payload prefix so
    /// the garbage lands in every section. Decoding returns `Ok` or `Err`; a panic or an
    /// allocation sized by an unchecked length fails the test.
    #[test]
    fn arbitrary_bytes_behind_a_valid_header_never_panic(
        len in 0usize..=512,
        seed in any::<u64>(),
        prefix in any::<u64>(),
    ) {
        let base = fuzz_base_snapshot();
        let garbage = seeded_bytes(seed, len);

        let mut alone = base[..20].to_vec();
        alone.extend_from_slice(&garbage);
        restamp(&mut alone);
        prop_assert!(session_from_snapshot_bytes(&alone).is_err());

        let cut = 20 + (prefix as usize) % (base.len() - 20);
        let mut behind_prefix = base[..cut].to_vec();
        behind_prefix.extend_from_slice(&garbage);
        restamp(&mut behind_prefix);
        let _ = session_from_snapshot_bytes(&behind_prefix);
    }

    /// Multi-byte overwrites and splices (a range replaced by a different number of bytes)
    /// anywhere in a valid payload, re-fingerprinted so the structural decoder sees them.
    #[test]
    fn splices_and_overwrites_inside_a_valid_snapshot_never_panic(
        at in any::<u64>(),
        removed in 2usize..=32,
        inserted in 0usize..=32,
        seed in any::<u64>(),
    ) {
        let base = fuzz_base_snapshot();
        let start = 20 + (at as usize) % (base.len() - 20);
        let end = (start + removed).min(base.len());
        let patch = seeded_bytes(seed, removed.max(inserted));

        let mut overwritten = base.to_vec();
        overwritten[start..end].copy_from_slice(&patch[..end - start]);
        restamp(&mut overwritten);
        let _ = session_from_snapshot_bytes(&overwritten);

        let mut spliced = base[..start].to_vec();
        spliced.extend_from_slice(&patch[..inserted]);
        spliced.extend_from_slice(&base[end..]);
        restamp(&mut spliced);
        let _ = session_from_snapshot_bytes(&spliced);
    }
}

#[test]
fn version_5_fixture_opens_with_identical_graphs() {
    // The one cross-build pin of the snapshot layout: a committed snapshot of a warmed Auction
    // session (all four graphs) must open to graphs identical to a fresh
    // build, and both the reopened and the fresh session must serialize to exactly
    // the committed bytes. Regenerate intentionally with
    // `MVRC_BLESS=1 cargo test -p mvrc-dist --test snapshot_roundtrip`.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/auction_v5.mvrcsnap"
    );
    let fresh = RobustnessSession::new(mvrc_benchmarks::auction());
    for condition in [CycleCondition::TypeII, CycleCondition::TypeI] {
        for settings in AnalysisSettings::evaluation_grid(condition) {
            fresh.is_robust(settings);
        }
    }
    if std::env::var_os("MVRC_BLESS").is_some() {
        fresh.save_snapshot(path).unwrap();
    }
    let bytes = std::fs::read(path)
        .unwrap_or_else(|e| panic!("missing fixture {path} ({e}); run with MVRC_BLESS=1"));
    assert_eq!(&bytes[0..8], b"MVRCSNAP");
    assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 5);

    let (reopened, fingerprint) = mvrc_dist::open_snapshot(path).unwrap();
    assert_ne!(fingerprint, 0);
    assert_eq!(reopened.workload().name, "Auction");
    assert_eq!(reopened.cached_graph_count(), 4);
    for settings in AnalysisSettings::evaluation_grid(CycleCondition::TypeII) {
        assert_eq!(
            *reopened.graph(settings),
            *fresh.graph(settings),
            "fixture graph must be identical to a freshly built one under {settings}"
        );
    }
    assert_eq!(
        snapshot_to_bytes(&reopened).unwrap(),
        bytes,
        "re-serializing the fixture must reproduce it"
    );
    assert_eq!(
        snapshot_to_bytes(&fresh).unwrap(),
        bytes,
        "the snapshot layout changed; if intentional, regenerate with MVRC_BLESS=1"
    );

    // Files of any other format version fail typed; the cache is rebuilt instead.
    for version in [1u32, 2, 3, 4, 6] {
        let mut other = bytes.clone();
        other[8..12].copy_from_slice(&version.to_le_bytes());
        assert_eq!(
            session_from_snapshot_bytes(&other).unwrap_err(),
            SnapshotError::UnsupportedVersion { found: version }
        );
    }
    // Corruption checks extend to the fixture: any flip or truncation is rejected.
    let mut flipped = bytes.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x01;
    assert!(session_from_snapshot_bytes(&flipped).is_err());
    assert!(session_from_snapshot_bytes(&bytes[..bytes.len() / 2]).is_err());
}

#[test]
fn ycsb_t_workload_fingerprint_is_deterministic() {
    // The snapshot fingerprints depend on the generated workload being bit-for-bit
    // reproducible: the same `YcsbtConfig` must yield the same workload fingerprint across
    // two independent generator calls, and a different mix must yield a different one.
    use mvrc_benchmarks::{ycsb_t, YcsbtConfig};
    let fp = |config: YcsbtConfig| {
        let session = RobustnessSession::new(ycsb_t(config));
        session.is_robust(AnalysisSettings::paper_default());
        u64::from_le_bytes(
            snapshot_to_bytes(&session).unwrap()[12..20]
                .try_into()
                .unwrap(),
        )
    };
    assert_eq!(fp(YcsbtConfig::default()), fp(YcsbtConfig::default()));
    assert_ne!(
        fp(YcsbtConfig::default()),
        fp(YcsbtConfig {
            rmws: 3,
            scans: 0,
            ..YcsbtConfig::default()
        })
    );
}

#[test]
fn snapshots_of_different_workloads_have_different_fingerprints() {
    let a = RobustnessSession::new(synthetic(SyntheticConfig::default()));
    let b = RobustnessSession::new(synthetic(SyntheticConfig {
        seed: 1234,
        ..SyntheticConfig::default()
    }));
    let fp_a = u64::from_le_bytes(snapshot_to_bytes(&a).unwrap()[12..20].try_into().unwrap());
    let fp_b = u64::from_le_bytes(snapshot_to_bytes(&b).unwrap()[12..20].try_into().unwrap());
    assert_ne!(fp_a, fp_b);
}

#[test]
fn warm_open_is_zero_copy_and_rederives_nothing() {
    // The warm-start contract: opening a snapshot installs every graph's derived arrays as
    // decoded from the file, and *no* derivation runs afterwards — queries on the reopened
    // session advance neither the construction counter (no Algorithm 1) nor the closure
    // counter (no reachability rebuild).
    let session = RobustnessSession::new(mvrc_benchmarks::auction());
    for condition in [CycleCondition::TypeII, CycleCondition::TypeI] {
        for settings in AnalysisSettings::evaluation_grid(condition) {
            session.is_robust(settings);
        }
    }
    let path = scratch_file("warm-open");
    session.save_snapshot(&path).unwrap();

    let constructions_before = SummaryGraph::constructions_on_current_thread();
    let closures_before = SummaryGraph::closures_computed_on_current_thread();
    let (reopened, _) = mvrc_dist::open_snapshot(&path).unwrap();
    for condition in [CycleCondition::TypeII, CycleCondition::TypeI] {
        for settings in AnalysisSettings::evaluation_grid(condition) {
            assert_eq!(reopened.is_robust(settings), session.is_robust(settings));
            // Subset queries run on induced views of the installed arrays.
            let sweep = explore_subsets(&reopened, settings);
            assert_eq!(sweep, explore_subsets(&session, settings));
        }
    }
    assert_eq!(
        SummaryGraph::constructions_on_current_thread(),
        constructions_before,
        "a warm open must not run Algorithm 1"
    );
    assert_eq!(
        SummaryGraph::closures_computed_on_current_thread(),
        closures_before,
        "a warm open must not recompute a reachability closure"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupt_derived_blocks_are_rejected_structurally() {
    // A restamped snapshot whose in-adjacency words were tampered with must fail the
    // structural bit-identity validation, not silently install a wrong adjacency.
    let session = RobustnessSession::new(mvrc_benchmarks::auction());
    let settings = AnalysisSettings::paper_default();
    session.is_robust(settings);
    let bytes = snapshot_to_bytes(&session).unwrap();

    // The derived arrays sit at the end of the (single) graph entry: the in-CSR, then the
    // reachability words. Corrupt an offset array word: the first in-CSR offset is always 0,
    // so force it to a large value.
    let (n, e) = {
        let graph = session.graph(settings);
        (graph.node_count(), graph.edge_count())
    };
    let words = n * n.div_ceil(64).max(1);
    let derived_bytes = (n + 1 + e) * 4 + words * 8;
    let derived_at = bytes.len() - derived_bytes;

    let mut bad = bytes.clone();
    bad[derived_at..derived_at + 4].copy_from_slice(&0xffff_ffffu32.to_le_bytes());
    restamp(&mut bad);
    match session_from_snapshot_bytes(&bad).unwrap_err() {
        SnapshotError::Corrupt(msg) => assert!(msg.contains("offset"), "{msg}"),
        other => panic!("expected Corrupt, got {other:?}"),
    }
    // An interior offset past the end of the targets: an error, not an out-of-range slice.
    let mut bad = bytes.clone();
    bad[derived_at + 4..derived_at + 8].copy_from_slice(&0xb217_3f4eu32.to_le_bytes());
    restamp(&mut bad);
    match session_from_snapshot_bytes(&bad).unwrap_err() {
        SnapshotError::Corrupt(msg) => assert!(msg.contains("offset"), "{msg}"),
        other => panic!("expected Corrupt, got {other:?}"),
    }

    // Truncating away the reachability tail (restamped): structural error — the implied
    // lengths no longer fit the payload.
    let mut truncated = bytes[..bytes.len() - 12].to_vec();
    restamp(&mut truncated);
    assert!(matches!(
        session_from_snapshot_bytes(&truncated).unwrap_err(),
        SnapshotError::Corrupt(_)
    ));
}

#[test]
fn edges_out_of_the_edge_order_are_rejected_structurally() {
    // The out-adjacency is not stored: it is counted off an edge list that must be strictly
    // ascending in the one edge order. A restamped snapshot with two adjacent edges swapped
    // must fail that check, not install a graph whose out-edges are not contiguous.
    let session = RobustnessSession::new(mvrc_benchmarks::smallbank());
    let settings = AnalysisSettings::paper_default();
    session.is_robust(settings);
    let bytes = snapshot_to_bytes(&session).unwrap();
    let graph = session.graph(settings);
    let encode = |e: &mvrc_robustness::SummaryEdge| {
        let mut out = Vec::with_capacity(17);
        out.extend_from_slice(&e.from.to_le_bytes());
        out.extend_from_slice(&e.from_stmt.to_le_bytes());
        out.push(u8::from(e.kind.is_counterflow()));
        out.extend_from_slice(&e.to_stmt.to_le_bytes());
        out.extend_from_slice(&e.to.to_le_bytes());
        out
    };
    for pair in [0, graph.edge_count() / 2, graph.edge_count() - 2] {
        let (a, b) = (
            encode(&graph.edges()[pair]),
            encode(&graph.edges()[pair + 1]),
        );
        let run = [a.clone(), b.clone()].concat();
        let at = bytes
            .windows(run.len())
            .position(|w| w == run)
            .expect("the encoded edge pair is in the snapshot");
        let mut swapped = bytes.clone();
        swapped[at..at + run.len()].copy_from_slice(&[b, a].concat());
        restamp(&mut swapped);
        match session_from_snapshot_bytes(&swapped).unwrap_err() {
            SnapshotError::Corrupt(msg) => assert!(msg.contains("edge order"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }
}

/// Writes `bytes` to a fresh file, opens it with `open_snapshot` and removes the file again.
fn open_written(tag: &str, bytes: &[u8]) -> Result<(RobustnessSession, u64), SnapshotError> {
    let path = scratch_file(tag);
    std::fs::write(&path, bytes).unwrap();
    let opened = mvrc_dist::open_snapshot(&path);
    std::fs::remove_file(&path).ok();
    opened
}

#[test]
fn damaged_snapshot_files_fail_open_with_typed_errors() {
    // `open_snapshot` reads the file and runs the one decoder; every damaged file must come
    // back as the matching typed error, never as a panic or a misread session.
    let bytes = fuzz_base_snapshot();
    assert!(open_written("intact", bytes).is_ok());
    let is_corrupt = |r: Result<_, SnapshotError>| matches!(r, Err(SnapshotError::Corrupt(_)));
    let is_mismatch =
        |r: Result<_, SnapshotError>| matches!(r, Err(SnapshotError::FingerprintMismatch { .. }));

    // Truncated files: shorter than the header, then cut inside the payload, as written and
    // with the fingerprint restamped so the structural decoder sees the cut.
    for cut in [0, 10, 19] {
        assert!(
            is_corrupt(open_written("short", &bytes[..cut])),
            "cut at {cut}"
        );
    }
    let payload = bytes.len() - 20;
    for cut in [20, 21, 20 + payload / 3, 20 + payload / 2, bytes.len() - 1] {
        assert!(
            is_mismatch(open_written("cut", &bytes[..cut])),
            "cut at {cut}"
        );
        let mut restamped = bytes[..cut].to_vec();
        restamp(&mut restamped);
        assert!(
            is_corrupt(open_written("cut-restamped", &restamped)),
            "cut at {cut}"
        );
    }

    // Bit flips: in the magic, in the stamped fingerprint, and across the payload.
    let mut bad_magic = bytes.to_vec();
    bad_magic[3] ^= 0x04;
    assert_eq!(
        open_written("magic", &bad_magic).unwrap_err(),
        SnapshotError::BadMagic
    );
    for at in [12, 19, 20, payload / 2, bytes.len() - 1] {
        let mut flipped = bytes.to_vec();
        flipped[at] ^= 0x01;
        assert!(is_mismatch(open_written("flip", &flipped)), "flip at {at}");
    }

    // Wrong format versions.
    for version in [0u32, 4, 6, u32::MAX] {
        let mut other = bytes.to_vec();
        other[8..12].copy_from_slice(&version.to_le_bytes());
        assert_eq!(
            open_written("version", &other).unwrap_err(),
            SnapshotError::UnsupportedVersion { found: version }
        );
    }

    // Trailing bytes after the last section, as written and restamped.
    for extra in [1usize, 3, 8] {
        let mut trailing = bytes.to_vec();
        trailing.resize(bytes.len() + extra, 0);
        assert!(is_mismatch(open_written("trailing", &trailing)));
        restamp(&mut trailing);
        match open_written("trailing-restamped", &trailing).unwrap_err() {
            SnapshotError::Corrupt(msg) => assert!(msg.contains("trailing"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }
}
