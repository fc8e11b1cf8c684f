//! End-to-end daemon coverage on the acceptance path: two snapshot-backed tenants, sixteen
//! concurrent clients, `explore_subsets` replies byte-identical to the offline CLI rendering,
//! per-tenant stats, and a graceful drain after which the persisted snapshots reopen with
//! zero graph constructions and zero closure rebuilds.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use mvrc_dist::SessionSnapshotExt;
use mvrc_robustness::{explore_subsets_with, AnalysisSettings, ExploreOptions, RobustnessSession};
use mvrc_serve::{Client, ServeConfig, Server, Tenant};
use serde_json::{json, Value};

fn scratch_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "mvrc-serve-e2e-{}-{tag}-{unique}.mvrcsnap",
        std::process::id()
    ))
}

/// Builds a warmed session (graph cached), snapshots it, and boots a tenant from the snapshot,
/// asserting the warm-start guarantee on the way in.
fn snapshot_tenant(name: &str, workload: mvrc_btp::Workload, path: &PathBuf) -> Tenant {
    let session = RobustnessSession::new(workload);
    // Warm the cache the way `mvrc subsets --snapshot` does: the sweep builds the graph.
    explore_subsets_with(
        &session,
        AnalysisSettings::paper_default(),
        ExploreOptions::default(),
    );
    session.save_snapshot(path).expect("snapshot saves");
    let tenant = Tenant::from_path(name, path).expect("tenant boots");
    let boot = tenant.boot();
    assert!(
        boot.is_warm(),
        "snapshot boot of `{name}` was not warm: {boot:?}"
    );
    tenant
}

/// The exact rendering of `mvrc subsets --json` for this workload.
fn expected_subsets_json(workload: mvrc_btp::Workload) -> String {
    let session = RobustnessSession::new(workload);
    let exploration = explore_subsets_with(
        &session,
        AnalysisSettings::paper_default(),
        ExploreOptions::default(),
    );
    serde_json::to_string_pretty(&json!({
        "workload": session.workload().name,
        "exploration": exploration,
    }))
    .expect("exploration serializes")
}

fn tenant_stats(stats: &Value, name: &str) -> Value {
    stats
        .get("tenants")
        .and_then(Value::as_array)
        .expect("tenants array")
        .iter()
        .find(|row| row.get("name").and_then(Value::as_str) == Some(name))
        .unwrap_or_else(|| panic!("no stats row for `{name}`"))
        .clone()
}

#[test]
fn two_tenants_sixteen_clients_byte_identical_replies_and_warm_reopen() {
    let bank_path = scratch_path("bank");
    let market_path = scratch_path("market");
    let bank = snapshot_tenant("bank", mvrc_benchmarks::smallbank(), &bank_path);
    let market = snapshot_tenant("market", mvrc_benchmarks::tpcc(), &market_path);

    let port_file =
        std::env::temp_dir().join(format!("mvrc-serve-e2e-{}-port.txt", std::process::id()));
    let config = ServeConfig {
        listen: "127.0.0.1:0".to_string(),
        port_file: Some(port_file.clone()),
        persist_secs: None,
    };
    let server = Server::bind(&config, vec![bank, market]).expect("bind");
    let addr = server.local_addr().expect("addr");
    let flag = server.shutdown_flag();
    let handle: JoinHandle<Result<(), String>> = std::thread::spawn(move || server.run());

    // The port file holds the bound address, newline-terminated (what scripts read back).
    let advertised = std::fs::read_to_string(&port_file).expect("port file");
    assert_eq!(advertised.trim().parse::<SocketAddr>().ok(), Some(addr));

    let expected_bank = Arc::new(expected_subsets_json(mvrc_benchmarks::smallbank()));
    let expected_market = Arc::new(expected_subsets_json(mvrc_benchmarks::tpcc()));

    // Sixteen concurrent clients, eight per tenant, each checking byte-identity twice.
    let failed = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..16)
        .map(|i| {
            let (tenant, expected) = if i % 2 == 0 {
                ("bank", Arc::clone(&expected_bank))
            } else {
                ("market", Arc::clone(&expected_market))
            };
            let failed = Arc::clone(&failed);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for _ in 0..2 {
                    let result = client
                        .call(&json!({"op": "explore_subsets", "tenant": tenant}))
                        .expect("subsets");
                    let served = serde_json::to_string_pretty(&result).expect("reply serializes");
                    if served != *expected {
                        failed.store(true, Ordering::Relaxed);
                        panic!("`{tenant}` reply diverged from the offline CLI rendering");
                    }
                    let robust = client
                        .call(&json!({"op": "is_robust", "tenant": tenant}))
                        .expect("is_robust");
                    assert!(robust.get("robust").and_then(Value::as_bool).is_some());
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }
    assert!(!failed.load(Ordering::Relaxed));

    // Stats: both tenants answered queries, booted warm, and their graphs stayed cached.
    let mut client = Client::connect(addr).expect("connect");
    let stats = client.call(&json!({"op": "stats"})).expect("stats");
    for name in ["bank", "market"] {
        let row = tenant_stats(&stats, name);
        assert!(row.get("queries").and_then(Value::as_u64).expect("queries") >= 32);
        assert_eq!(
            row.get("boot")
                .and_then(|b| b.get("warm"))
                .and_then(Value::as_bool),
            Some(true)
        );
        assert!(
            row.get("cached_graphs")
                .and_then(Value::as_u64)
                .expect("cached_graphs")
                >= 1
        );
        // Every query hit the snapshot-installed graphs: no construction ran post-boot.
        assert_eq!(row.get("graph_builds").and_then(Value::as_u64), Some(0));
    }

    // An explicit persist, then a graceful wire drain (same path as SIGTERM).
    let persisted = client
        .call(&json!({"op": "persist", "tenant": "bank"}))
        .expect("persist");
    assert_eq!(
        persisted.get("persisted").and_then(Value::as_bool),
        Some(true)
    );
    client.call(&json!({"op": "shutdown"})).expect("shutdown");
    handle.join().expect("server thread").expect("clean drain");
    assert!(
        flag.load(Ordering::SeqCst),
        "wire shutdown sets the drain flag"
    );

    // The drained daemon re-persisted both snapshots; each reopens warm — zero graph
    // constructions, zero closure rebuilds — with the caches intact.
    for (name, path) in [("bank", &bank_path), ("market", &market_path)] {
        let tenant = Tenant::from_path(name, path).expect("reopen");
        let boot = tenant.boot();
        assert!(boot.is_warm(), "`{name}` did not reopen warm: {boot:?}");
        assert_eq!(boot.constructions, 0);
        assert_eq!(boot.closures, 0);
        let (_, session) = tenant.cell().load();
        assert!(session.cached_graph_count() >= 1);
    }

    let _ = std::fs::remove_file(&bank_path);
    let _ = std::fs::remove_file(&market_path);
    let _ = std::fs::remove_file(&port_file);
}
