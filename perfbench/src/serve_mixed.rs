//! `serve-mixed`: an in-process `mvrc-serve` daemon on loopback, driven closed-loop by two
//! client connections (each waits for its reply before sending again, like CI scripts and
//! `mvrc client`).
//!
//! Set-up builds every tenant session, writes its snapshot, boots the tenants warm from the
//! snapshots and binds the daemon. The traffic is a seeded mix per client: mostly `is_robust`
//! and `analyze`, some `explore_subsets` and `lint`, and about 5 % edits. An edit removes the
//! last program of the client's own tenant and adds the same SQL back, which restores the
//! program order, so every expected reply stays the one computed in set-up.
//!
//! In a per-layer run each traced request is followed by probes: the same call made directly
//! on a session, and `write_frame` + `read_frame` of the same request and reply in memory.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;

use mvrc_benchmarks::{auction_n, smallbank, tpcc, ycsb_t, Workload, YcsbtConfig};
use mvrc_btp::sql::{parse_program, parse_workload_file};
use mvrc_lint::{lint_workload, LintOptions};
use mvrc_robustness::{explore_subsets_with, AnalysisSettings, ExploreOptions, RobustnessSession};
use mvrc_serve::{read_frame, write_frame, Client, ServeConfig, Server, Tenant};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde_json::{json, Value};

use crate::report::{run_cycles, Loop, Report, Setup, SETUP_SAMPLES};
use crate::trace::Tracer;
use crate::Ctx;

const SMALLBANK_SQL: &str = include_str!("../../crates/cli/workloads/smallbank.sql");

/// Closed-loop clients.
const CLIENTS: usize = 2;
/// Requests of each kind per queried tenant in one client's cycle of 100 (four shared tenants
/// and the client's own): 60 % `is_robust`, 20 % `analyze`, 10 % `explore_subsets`, 5 % `lint`
/// and 5 % edits. The cycle's order is shuffled by the seed; its make-up is fixed, so every run
/// sends the same mix.
const PER_TENANT: [(Kind, usize); 3] =
    [(Kind::IsRobust, 12), (Kind::Analyze, 4), (Kind::Explore, 2)];
/// `lint` requests per tenant in one cycle. TPC-C gets none: decoding its 107 KB report takes
/// the client some 100 ms, which would leave the rest of the mix under 5 % of the cycle.
const LINTS: [(&str, usize); 4] = [("smallbank", 1), ("auction", 1), ("ycsbt", 1), ("own", 2)];
/// Edits of the client's own tenant in one cycle.
const EDITS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    IsRobust,
    Analyze,
    Explore,
    Lint,
    Edit,
}

/// One hosted tenant, with the answers every reply must equal.
struct TenantAnswers {
    name: String,
    session: RobustnessSession,
    robust: bool,
    analyze: Value,
    explore: String,
    lint: Value,
    /// The last program and its SQL, for tenants a client edits.
    last_program: Option<(String, String)>,
    /// The `lint` reply once the tenant has been edited: the re-added program's source spans
    /// are those of its own SQL text, no longer those of the workload file.
    lint_edited: Value,
}

/// A running daemon; dropping it drains and joins the server thread.
struct Daemon {
    addr: String,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<Result<(), String>>>,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            match thread.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => eprintln!("mvrc-perfbench: daemon drain: {e}"),
                Err(_) => eprintln!("mvrc-perfbench: the daemon thread panicked"),
            }
        }
    }
}

/// The `PROGRAM <name>` block of a workload file.
fn program_block(text: &str, name: &str) -> String {
    let start = text
        .find(&format!("PROGRAM {name}("))
        .expect("the program is in the file");
    let end = start + text[start..].find("\n}").expect("the block is closed") + 2;
    text[start..end].to_string()
}

/// The workloads hosted, by tenant name: four shared by both clients and one per client that
/// only that client queries and edits.
fn workloads(seed: u64) -> Vec<(String, Workload)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 3);
    let scans = rng.gen_range(1..=3);
    // 12 programs: its daemon sweep of 4095 subsets stays a few milliseconds.
    let ycsbt = ycsb_t(YcsbtConfig {
        fields: rng.gen_range(12..=20),
        reads: 9 - scans,
        rmws: 2,
        updates: 0,
        scans,
        inserts: 1,
        fields_per_op: rng.gen_range(1..=2),
    });
    let mut hosted = vec![
        ("smallbank".to_string(), smallbank()),
        ("tpcc".to_string(), tpcc()),
        ("auction".to_string(), auction_n(4)),
        ("ycsbt".to_string(), ycsbt),
    ];
    let (schema, programs) = parse_workload_file(SMALLBANK_SQL).expect("smallbank.sql parses");
    for client in 0..CLIENTS {
        let name = schema.name().to_string();
        let workload = Workload::new(name, schema.clone(), programs.clone(), &[]);
        hosted.push((format!("own-{client}"), workload));
    }
    hosted
}

/// This run's snapshot directory (per process, so concurrent runs do not share files).
fn snapshot_dir(ctx: &Ctx) -> PathBuf {
    ctx.work_dir.join(format!("serve-{}", std::process::id()))
}

fn snapshot_path(dir: &Path, tenant: &str) -> PathBuf {
    dir.join(format!("{tenant}.mvrcsnap"))
}

/// Writes every snapshot, boots the tenants from them and binds the daemon.
fn boot(ctx: &Ctx, t: &mut Tracer) -> (Server, Vec<(String, RobustnessSession)>) {
    let settings = AnalysisSettings::paper_default();
    let mut tenants = Vec::new();
    let mut sessions = Vec::new();
    for (name, workload) in workloads(ctx.seed) {
        let session = RobustnessSession::new(workload);
        session.graph(settings).reachability_words();
        let path = snapshot_path(&snapshot_dir(ctx), &name);
        // A fresh file each time: rewriting a file in place makes ext4 flush it to disk on
        // close, which timed the disk instead of the snapshot code.
        let _ = std::fs::remove_file(&path);
        t.span("dist.snapshot.save", |_| {
            mvrc_dist::save_snapshot(&session, &path)
        })
        .expect("snapshot written");
        let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
        t.count("dist.snapshot.bytes", bytes as f64);
        let tenant = t
            .span("dist.snapshot.open", |_| Tenant::from_path(&name, &path))
            .expect("tenant boots from its snapshot");
        assert!(tenant.boot().is_warm(), "tenant `{name}` booted cold");
        tenants.push(tenant);
        sessions.push((name, session));
    }
    let server = Server::bind(&ServeConfig::default(), tenants).expect("daemon binds");
    (server, sessions)
}

/// Runs a bound daemon on a thread of its own.
fn start(server: Server) -> Daemon {
    let addr = server.local_addr().expect("bound address").to_string();
    let shutdown = server.shutdown_flag();
    let thread = std::thread::spawn(move || server.run());
    Daemon {
        addr,
        shutdown,
        thread: Some(thread),
    }
}

fn analyze_value(session: &RobustnessSession, settings: AnalysisSettings) -> Value {
    json!({
        "workload": session.workload().name,
        "programs": session.program_names(),
        "report": session.analyze(settings),
    })
}

fn explore_report(session: &RobustnessSession, settings: AnalysisSettings) -> String {
    let exploration = explore_subsets_with(session, settings, ExploreOptions::default());
    let value = json!({ "workload": session.workload().name, "exploration": exploration });
    serde_json::to_string_pretty(&value).expect("an exploration serializes")
}

fn lint_value(session: &RobustnessSession, settings: AnalysisSettings) -> Value {
    serde_json::to_value(&lint_workload(
        session.workload(),
        &LintOptions {
            settings,
            source_name: None,
            suggest_repairs: true,
        },
    ))
}

/// The answers every reply must equal: hand-written verdicts for the paper's workloads, the
/// offline computations (`mvrc analyze|subsets --json`) for the rest. `lint` is computed on
/// the session reopened from the tenant's snapshot, as the daemon serves it: a snapshot keeps
/// no source spans, so its diagnostics carry none.
fn answers(ctx: &Ctx, sessions: Vec<(String, RobustnessSession)>) -> Vec<TenantAnswers> {
    let settings = AnalysisSettings::paper_default();
    sessions
        .into_iter()
        .map(|(name, offline)| {
            let (session, _) = mvrc_dist::open_snapshot(snapshot_path(&snapshot_dir(ctx), &name))
                .expect("the tenant's snapshot reopens");
            let robust = match name.as_str() {
                "smallbank" | "own-0" | "own-1" => {
                    ctx.expected.bool(&["serve-mixed", "robust", "SmallBank"])
                }
                "tpcc" => ctx.expected.bool(&["serve-mixed", "robust", "TPC-C"]),
                "auction" => ctx.expected.bool(&["serve-mixed", "robust", "Auction"]),
                _ => session.is_robust(settings),
            };
            let last_program = name.starts_with("own-").then(|| {
                let last = session.program_names().last().expect("programs").clone();
                let sql = program_block(SMALLBANK_SQL, &last);
                (last, sql)
            });
            let mut edited = session.clone();
            if let Some((last, sql)) = &last_program {
                edit(&mut edited, last, sql);
            }
            TenantAnswers {
                robust,
                analyze: analyze_value(&offline, settings),
                explore: explore_report(&offline, settings),
                lint: lint_value(&session, settings),
                lint_edited: lint_value(&edited, settings),
                last_program,
                name,
                session,
            }
        })
        .collect()
}

/// One request of a client's cycle.
#[derive(Debug, Clone, Copy)]
struct Request {
    kind: Kind,
    tenant: usize,
}

/// A client's seeded request cycle: queries over the shared tenants and its own, edits on its
/// own tenant only.
fn requests(seed: u64, client: usize, tenants: &[TenantAnswers]) -> Vec<Request> {
    let own = format!("own-{client}");
    let index = |name: &str| {
        let name = if name == "own" { own.as_str() } else { name };
        tenants
            .iter()
            .position(|t| t.name == name)
            .expect("the tenant is hosted")
    };
    let mut cycle = Vec::new();
    let mut push = |kind, tenant, count| {
        cycle.extend(std::iter::repeat(Request { kind, tenant }).take(count));
    };
    for tenant in ["smallbank", "tpcc", "auction", "ycsbt", "own"] {
        for (kind, count) in PER_TENANT {
            push(kind, index(tenant), count);
        }
    }
    for (tenant, count) in LINTS {
        push(Kind::Lint, index(tenant), count);
    }
    push(Kind::Edit, index("own"), EDITS);
    cycle.shuffle(&mut StdRng::seed_from_u64(seed ^ (10 + client as u64)));
    cycle
}

/// The wire requests for one operation (an edit is two).
fn wire(request: Request, tenant: &TenantAnswers) -> Vec<Value> {
    let name = tenant.name.as_str();
    let op = |op: &str| json!({ "op": op, "tenant": name });
    match request.kind {
        Kind::IsRobust => vec![op("is_robust")],
        Kind::Analyze => vec![op("analyze")],
        Kind::Explore => vec![op("explore_subsets")],
        Kind::Lint => vec![op("lint")],
        Kind::Edit => {
            let (last, sql) = tenant.last_program.as_ref().expect("edited tenants");
            vec![
                json!({ "op": "remove_program", "tenant": name, "name": last }),
                json!({ "op": "add_program", "tenant": name, "program_sql": sql }),
            ]
        }
    }
}

fn rtt_span(kind: Kind) -> &'static str {
    match kind {
        Kind::IsRobust => "serve.rtt.is_robust",
        Kind::Analyze => "serve.rtt.analyze",
        Kind::Explore => "serve.rtt.explore_subsets",
        Kind::Lint => "serve.rtt.lint",
        Kind::Edit => "serve.rtt.edit",
    }
}

fn result_of(envelope: &Value) -> Result<&Value, String> {
    match envelope.get("ok").and_then(Value::as_bool) {
        Some(true) => envelope
            .get("result")
            .ok_or("envelope without result".to_string()),
        _ => Err(format!(
            "error reply: {}",
            serde_json::to_string(envelope).unwrap_or_default()
        )),
    }
}

/// The daemon's edit: remove the program, parse its SQL against the schema and add it back.
fn edit(session: &mut RobustnessSession, name: &str, sql: &str) {
    session.remove_program(name).expect("the program is hosted");
    let program = parse_program(session.schema(), sql).expect("the program parses");
    session.add_program(program);
}

/// Checks one reply against the tenant's answers (`edited`: whether this client has edited
/// the tenant yet).
fn check(
    kind: Kind,
    tenant: &TenantAnswers,
    edited: bool,
    replies: &[Value],
    t: &mut Tracer,
) -> Result<(), String> {
    let wrong = |what: &str| Err(format!("{}: wrong {what} reply", tenant.name));
    let result = result_of(&replies[0])?;
    match kind {
        Kind::IsRobust if result.get("robust").and_then(Value::as_bool) != Some(tenant.robust) => {
            return wrong("is_robust")
        }
        Kind::Analyze if *result != tenant.analyze => return wrong("analyze"),
        Kind::Lint => {
            let lint = if edited {
                &tenant.lint_edited
            } else {
                &tenant.lint
            };
            if result != lint {
                return wrong("lint");
            }
        }
        Kind::Explore => {
            let rendered = t.span("cli.render", |_| {
                serde_json::to_string_pretty(result).expect("a JSON value serializes")
            });
            t.count("cli.render_bytes", rendered.len() as f64);
            if rendered != tenant.explore {
                return wrong("explore_subsets");
            }
        }
        Kind::Edit => {
            let all = tenant.session.program_names();
            let programs = |v: &Value| -> Vec<String> {
                v.get("programs")
                    .and_then(Value::as_array)
                    .map(|a| {
                        a.iter()
                            .filter_map(|p| p.as_str().map(String::from))
                            .collect()
                    })
                    .unwrap_or_default()
            };
            let added = result_of(&replies[1])?;
            if programs(result) != all[..all.len() - 1] || programs(added) != all {
                return wrong("edit");
            }
        }
        _ => {}
    }
    Ok(())
}

/// The direct call behind a request, on a session the client keeps (an edit applies the same
/// clone, remove, parse and add the daemon's edit path runs).
fn direct(kind: Kind, tenant: &TenantAnswers, session: &mut RobustnessSession, t: &mut Tracer) {
    let settings = AnalysisSettings::paper_default();
    match kind {
        Kind::IsRobust => {
            t.span("serve.direct.is_robust", |_| session.is_robust(settings));
        }
        Kind::Analyze => {
            t.span("serve.direct.analyze", |_| analyze_value(session, settings));
        }
        Kind::Explore => {
            t.span("serve.direct.explore_subsets", |_| {
                explore_subsets_with(session, settings, ExploreOptions::default())
            });
        }
        Kind::Lint => {
            t.span("serve.direct.lint", |_| lint_value(session, settings));
        }
        Kind::Edit => {
            let (last, sql) = tenant.last_program.as_ref().expect("edited tenants");
            t.span("serve.direct.edit", |t| {
                let mut next = session.clone();
                let program = t
                    .span("btp.sql.parse", |_| parse_program(next.schema(), sql))
                    .expect("the program parses");
                t.span("core.session.edit", |_| {
                    next.remove_program(last).expect("the program is hosted");
                    next.add_program(program);
                });
                *session = next;
            });
        }
    }
}

/// One client's closed loop. In each pause of the loop the client waits at `pause` twice, while
/// the set-up is sampled in between.
fn client_loop(
    ctx: &Ctx,
    client: usize,
    addr: &str,
    tenants: &[TenantAnswers],
    pause: &Barrier,
) -> (Tracer, Loop) {
    let mut tracer = Tracer::new((client as u32 + 1) << 28);
    let cycle = requests(ctx.seed, client, tenants);
    let mut sessions: Vec<RobustnessSession> = tenants.iter().map(|t| t.session.clone()).collect();
    let mut conn: Option<Client> = None;
    let mut edited = false;
    let wait = |_: &mut Tracer| {
        pause.wait();
        pause.wait();
    };
    let result = run_cycles(ctx, &mut tracer, cycle.len(), 10_000.0, wait, |i, t| {
        let request = cycle[i];
        let tenant = &tenants[request.tenant];
        let messages = wire(request, tenant);
        let client = match conn.as_mut() {
            Some(client) => client,
            None => conn.insert(Client::connect(addr).map_err(|e| format!("connect: {e}"))?),
        };
        let replies = t.op(i, |t| {
            t.span(rtt_span(request.kind), |_| {
                messages
                    .iter()
                    .map(|m| client.request(m))
                    .collect::<Result<Vec<Value>, _>>()
            })
        });
        let replies = match replies {
            Ok(replies) => replies,
            Err(e) => {
                // A dropped connection: count it and reconnect for the next request.
                conn = None;
                return Err(format!("request failed: {e}"));
            }
        };
        if t.enabled() {
            direct(request.kind, tenant, &mut sessions[request.tenant], t);
            t.span("serve.protocol.frame", |_| {
                for value in messages.iter().chain(&replies) {
                    let mut buf = Vec::new();
                    write_frame(&mut buf, value).expect("in-memory write");
                    read_frame(&mut buf.as_slice()).expect("in-memory read");
                }
            });
        }
        edited |= request.kind == Kind::Edit;
        check(request.kind, tenant, edited, &replies, t)
    });
    (tracer, result)
}

/// Reads the daemon's `stats`: graph builds over all tenants and mean sweep time.
fn daemon_stats(addr: &str) -> Result<(f64, f64), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let stats = client
        .call(&json!({ "op": "stats" }))
        .map_err(|e| e.to_string())?;
    let rows = stats
        .get("tenants")
        .and_then(Value::as_array)
        .ok_or("stats without tenants")?;
    let sum = |field: &str| -> f64 {
        rows.iter()
            .filter_map(|r| r.get(field).and_then(Value::as_u64))
            .sum::<u64>() as f64
    };
    Ok((
        sum("graph_builds"),
        sum("sweep_micros") / sum("sweeps").max(1.0),
    ))
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Report {
    let mut tracer = Tracer::new(0);
    std::fs::create_dir_all(snapshot_dir(ctx)).expect("snapshot directory");
    let mut setup = Setup::new(|t: &mut Tracer| boot(ctx, t));
    let (server, sessions) = setup.sample(ctx, &mut tracer);
    let daemon = start(server);
    let tenants = answers(ctx, sessions);
    // The clients' pauses: once every client waits at the barrier no request is in flight, and
    // this thread samples the set-up before letting them go on.
    let pause = Barrier::new(CLIENTS + 1);
    let results: Vec<(Tracer, Loop)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let (addr, tenants, pause) = (daemon.addr.as_str(), tenants.as_slice(), &pause);
                scope.spawn(move || client_loop(ctx, client, addr, tenants, pause))
            })
            .collect();
        for _ in 1..SETUP_SAMPLES {
            pause.wait();
            drop(setup.sample(ctx, &mut tracer));
            pause.wait();
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads count their failures"))
            .collect()
    });
    let mut run = Loop::default();
    for (client_tracer, result) in results {
        tracer.absorb(client_tracer);
        run.absorb(result);
    }
    let mut extra = BTreeMap::new();
    match daemon_stats(&daemon.addr) {
        Ok((builds, sweep_us)) => {
            extra.insert("serve.stats.graph_builds", builds);
            extra.insert("serve.stats.sweep_us", sweep_us);
        }
        Err(e) => run.failures.record(Err(format!("stats: {e}"))),
    }
    drop(daemon);
    let _ = std::fs::remove_dir_all(snapshot_dir(ctx));
    Report {
        setup_s: setup.samples,
        run,
        tracer,
        extra,
        // Tens of thousands of requests a run; p99 lies among the lints (5 per 100 requests,
        // three of them SmallBank's 12 KB report), the slowest replies.
        tail_cap: 99.0,
    }
}
