//! Property-based coverage of the snapshot layer: `save_snapshot` → `open_snapshot` must
//! preserve **every** analysis answer — `analyze`, `is_robust`, `explore_subsets` across the
//! full evaluation grid — on random synthetic workloads, and the cached graph arrays must
//! round-trip bit-identically. Corruption (header or payload) and fingerprint mismatches must
//! be rejected, never mis-read.

use mvrc_benchmarks::{synthetic, SyntheticConfig};
use mvrc_dist::{
    session_from_snapshot_bytes, snapshot_to_bytes, SessionSnapshotExt, SnapshotError,
};
use mvrc_robustness::{
    explore_subsets, explore_subsets_with, AnalysisSettings, CycleCondition, ExploreOptions,
    RobustnessSession, SummaryGraph,
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

        let bytes = snapshot_to_bytes(&session);
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
        // An incremental sweep populates the sweep cache, so the bytes below include the sweep
        // section and the flip/truncation coverage extends to it.
        explore_subsets_with(
            &session,
            AnalysisSettings::paper_default(),
            ExploreOptions { incremental: true, ..ExploreOptions::default() },
        );
        let bytes = snapshot_to_bytes(&session);

        // Flipping any single byte must be caught: the header checks reject magic/version
        // damage, the FNV fingerprint rejects payload damage, and a (deliberately) restamped
        // fingerprint itself no longer matches the payload hash.
        let idx = (flip_byte as usize) % bytes.len();
        let mut corrupted = bytes.clone();
        corrupted[idx] ^= 0x2a;
        prop_assert!(session_from_snapshot_bytes(&corrupted).is_err());

        // Truncation anywhere strictly inside the file is caught too.
        prop_assert!(session_from_snapshot_bytes(&bytes[..idx]).is_err());
    }
}

#[test]
fn wrong_fingerprint_is_rejected_on_open() {
    let session = RobustnessSession::new(synthetic(SyntheticConfig::default()));
    session.is_robust(AnalysisSettings::paper_default());
    let path = scratch_file("fingerprint");
    let fingerprint = session.save_snapshot(&path).unwrap();

    assert!(mvrc_dist::open_snapshot_expecting(&path, fingerprint).is_ok());
    let err = mvrc_dist::open_snapshot_expecting(&path, fingerprint.wrapping_add(1)).unwrap_err();
    assert!(matches!(err, SnapshotError::FingerprintMismatch { .. }));
    std::fs::remove_file(&path).ok();
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

#[test]
fn version_3_fixture_opens_zero_copy_with_identical_graphs() {
    // The one cross-build pin of the snapshot layout: a committed snapshot of a warmed Auction
    // session (all four graphs plus one cached sweep) must open zero-copy to graphs identical
    // to a fresh build, and both the reopened and the fresh session must serialize to exactly
    // the committed bytes. Regenerate intentionally with
    // `MVRC_BLESS=1 cargo test -p mvrc-dist --test snapshot_roundtrip`.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/auction_v3.mvrcsnap"
    );
    let fresh = RobustnessSession::new(mvrc_benchmarks::auction());
    for condition in [CycleCondition::TypeII, CycleCondition::TypeI] {
        for settings in AnalysisSettings::evaluation_grid(condition) {
            fresh.is_robust(settings);
        }
    }
    explore_subsets_with(
        &fresh,
        AnalysisSettings::paper_default(),
        ExploreOptions {
            incremental: true,
            incremental_min_subsets: 0,
            ..ExploreOptions::default()
        },
    );
    if std::env::var_os("MVRC_BLESS").is_some() {
        fresh.save_snapshot(path).unwrap();
    }
    let bytes = std::fs::read(path)
        .unwrap_or_else(|e| panic!("missing fixture {path} ({e}); run with MVRC_BLESS=1"));
    assert_eq!(&bytes[0..8], b"MVRCSNAP");
    assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 3);

    let (reopened, fingerprint) = mvrc_dist::open_snapshot(path).unwrap();
    assert_ne!(fingerprint, 0);
    assert_eq!(reopened.workload().name, "Auction");
    assert_eq!(reopened.cached_graph_count(), 4);
    for settings in AnalysisSettings::evaluation_grid(CycleCondition::TypeII) {
        assert!(
            reopened.graph(settings).derived_arrays_shared(),
            "the fixture must open zero-copy under {settings}"
        );
        assert_eq!(
            *reopened.graph(settings),
            *fresh.graph(settings),
            "fixture graph must be identical to a freshly built one under {settings}"
        );
    }
    assert_eq!(reopened.cached_sweep_count(), 1);
    assert_eq!(reopened.cached_sweeps(), fresh.cached_sweeps());
    assert_eq!(
        snapshot_to_bytes(&reopened),
        bytes,
        "re-serializing the fixture must reproduce it"
    );
    assert_eq!(
        snapshot_to_bytes(&fresh),
        bytes,
        "the snapshot layout changed; if intentional, regenerate with MVRC_BLESS=1"
    );

    // Files of any other format version fail typed; the cache is rebuilt instead.
    for version in [1u32, 2, 4] {
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
fn version_2_round_trip_preserves_the_sweep_cache() {
    let session = RobustnessSession::new(synthetic(SyntheticConfig::default()));
    let settings = AnalysisSettings::paper_default();
    let incremental = ExploreOptions {
        incremental: true,
        ..ExploreOptions::default()
    };
    let original = explore_subsets_with(&session, settings, incremental);
    assert_eq!(session.cached_sweep_count(), 1);

    let bytes = snapshot_to_bytes(&session);
    assert_eq!(
        u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
        mvrc_dist::SNAPSHOT_FORMAT_VERSION
    );
    let (reopened, _) = session_from_snapshot_bytes(&bytes).unwrap();
    assert_eq!(reopened.cached_sweeps(), session.cached_sweeps());
    // Canonical: re-serializing the reopened session reproduces the bytes, sweep section
    // included.
    assert_eq!(snapshot_to_bytes(&reopened), bytes);

    // The reopened cache is *live*: an incremental sweep on the reopened session reuses every
    // verdict without a single cycle test.
    let resumed = explore_subsets_with(&reopened, settings, incremental);
    assert_eq!(resumed.cycle_tests, 0);
    assert_eq!(resumed.pruned, 0);
    assert_eq!(resumed.reused, (1 << original.programs.len()) - 1);
    assert_eq!(resumed.robust, original.robust);
}

#[test]
fn corrupt_sweep_sections_are_rejected_structurally() {
    // Build one snapshot without and one with the sweep cache: they share the payload prefix,
    // so the sweep section starts exactly where the empty snapshot's trailing zero count sits.
    let session = RobustnessSession::new(synthetic(SyntheticConfig::default()));
    let settings = AnalysisSettings::paper_default();
    session.is_robust(settings);
    let without = snapshot_to_bytes(&session);
    explore_subsets_with(
        &session,
        settings,
        ExploreOptions {
            incremental: true,
            ..ExploreOptions::default()
        },
    );
    let with = snapshot_to_bytes(&session);
    assert!(with.len() > without.len());
    let section = without.len() - 4; // offset of the sweep-count u32
                                     // Payloads share the prefix up to the sweep count (headers differ in the fingerprint).
    assert_eq!(&with[20..section], &without[20..section]);

    // Program count beyond the sweep bound (settings take 3 bytes after the count).
    let mut bad_programs = with.clone();
    let count_at = section + 4 + 3;
    bad_programs[count_at..count_at + 4].copy_from_slice(&21u32.to_le_bytes());
    restamp(&mut bad_programs);
    match session_from_snapshot_bytes(&bad_programs).unwrap_err() {
        SnapshotError::Corrupt(msg) => assert!(msg.contains("21 programs"), "{msg}"),
        other => panic!("expected Corrupt, got {other:?}"),
    }

    // Truncation inside the sweep section (with a restamped fingerprint): structural error.
    let mut truncated = with[..with.len() - 4].to_vec();
    restamp(&mut truncated);
    assert!(matches!(
        session_from_snapshot_bytes(&truncated).unwrap_err(),
        SnapshotError::Corrupt(_)
    ));

    // Trailing garbage after the sweep section (restamped): structural error.
    let mut trailing = with.clone();
    trailing.extend_from_slice(&[0u8; 3]);
    restamp(&mut trailing);
    match session_from_snapshot_bytes(&trailing).unwrap_err() {
        SnapshotError::Corrupt(msg) => assert!(msg.contains("trailing"), "{msg}"),
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn ycsb_t_workload_fingerprint_is_deterministic() {
    // The snapshot/shard fingerprints depend on the generated workload being bit-for-bit
    // reproducible: the same `YcsbtConfig` must yield the same workload fingerprint across
    // two independent generator calls, and a different mix must yield a different one.
    use mvrc_benchmarks::{ycsb_t, YcsbtConfig};
    let fp = |config: YcsbtConfig| {
        let session = RobustnessSession::new(ycsb_t(config));
        session.is_robust(AnalysisSettings::paper_default());
        u64::from_le_bytes(snapshot_to_bytes(&session)[12..20].try_into().unwrap())
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
    let fp_a = u64::from_le_bytes(snapshot_to_bytes(&a)[12..20].try_into().unwrap());
    let fp_b = u64::from_le_bytes(snapshot_to_bytes(&b)[12..20].try_into().unwrap());
    assert_ne!(fp_a, fp_b);
}

#[test]
fn warm_open_is_zero_copy_and_rederives_nothing() {
    // The warm-start contract: opening a snapshot installs every graph's derived arrays as
    // borrowed slabs over the file mapping, and *no* derivation runs afterwards — queries on
    // the reopened session advance neither the construction counter (no Algorithm 1) nor the
    // closure counter (no reachability rebuild).
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
            // Zero-copy: the graph's CSRs and closure borrow the snapshot mapping.
            assert!(
                reopened.graph(settings).derived_arrays_shared(),
                "warm-opened graph must borrow the mapping under {settings}"
            );
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
    // The owned decode path (the byte-slice entry point / big-endian fallback) agrees with
    // the mapped path on every array, it just owns its words.
    let bytes = std::fs::read(&path).unwrap();
    let (owned, _) = session_from_snapshot_bytes(&bytes).unwrap();
    for settings in AnalysisSettings::evaluation_grid(CycleCondition::TypeII) {
        assert!(!owned.graph(settings).derived_arrays_shared());
        assert_eq!(*owned.graph(settings), *reopened.graph(settings));
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn derived_block_alignment_holds_for_any_section_parity() {
    // The derived block is padded to absolute 8-byte alignment, so its position depends on
    // everything encoded before it. Workload names of every length mod 8 shift the graph
    // section across all byte parities; each variant must round-trip through both open paths
    // and re-encode canonically.
    for pad in 0..8usize {
        let mut workload = synthetic(SyntheticConfig {
            programs: 2,
            ..SyntheticConfig::default()
        });
        workload.name = format!("P{}", "x".repeat(pad));
        let session = RobustnessSession::new(workload);
        session.is_robust(AnalysisSettings::paper_default());

        let path = scratch_file(&format!("parity-{pad}"));
        session.save_snapshot(&path).unwrap();
        let (mapped, _) = mvrc_dist::open_snapshot(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let (owned, _) = session_from_snapshot_bytes(&bytes).unwrap();
        let settings = AnalysisSettings::paper_default();
        assert!(mapped.graph(settings).derived_arrays_shared());
        assert_eq!(*mapped.graph(settings), *session.graph(settings));
        assert_eq!(*owned.graph(settings), *session.graph(settings));
        // Canonical: both reopened sessions re-serialize to the original bytes.
        assert_eq!(snapshot_to_bytes(&mapped), bytes);
        assert_eq!(snapshot_to_bytes(&owned), bytes);
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn corrupt_derived_blocks_are_rejected_structurally() {
    // A restamped snapshot whose derived CSR words were tampered with must fail the
    // structural bit-identity validation, not silently install a wrong adjacency.
    let session = RobustnessSession::new(mvrc_benchmarks::auction());
    let settings = AnalysisSettings::paper_default();
    session.is_robust(settings);
    let bytes = snapshot_to_bytes(&session);

    // The derived block sits at the end of the (single) graph entry; the reachability words
    // are its 8-byte-aligned tail, preceded by the two CSRs. Corrupt an offset array word:
    // the first out-CSR offset is always 0, so force it to a large value.
    let (n, e) = {
        let graph = session.graph(settings);
        (graph.node_count(), graph.edge_count())
    };
    let words = n * n.div_ceil(64).max(1);
    let derived_bytes = ((n + 1) * 2 + e * 2) * 4 + words * 8;
    // Sweep section (empty: 4-byte zero count) trails the graph section.
    let derived_at = bytes.len() - 4 - derived_bytes;
    assert_eq!(derived_at % 8, 0, "derived block must be 8-byte aligned");

    let mut bad = bytes.clone();
    bad[derived_at..derived_at + 4].copy_from_slice(&0xffff_ffffu32.to_le_bytes());
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
