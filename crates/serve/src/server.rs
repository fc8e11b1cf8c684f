//! The daemon: a TCP accept loop serving tenant queries and edits.
//!
//! One thread per connection; each connection thread keeps a per-tenant
//! [`EpochCache`], so steady-state queries touch no lock at all.
//! The accept loop and the connection threads poll the drain flag (SIGTERM or the wire-level
//! `shutdown` op) between requests: in-flight queries finish, new requests stop being read,
//! connection threads are joined, every tenant persists, and [`Server::run`] returns.
//!
//! # Request dispatch
//!
//! | op | fields | result |
//! |----|--------|--------|
//! | `ping` | — | `"pong"` |
//! | `stats` | — | per-tenant counters (see [`module docs`](crate)) |
//! | `shutdown` | — | `"draining"`; the daemon then drains exactly as on SIGTERM |
//! | `analyze` | `tenant`, `settings`? | same JSON as `mvrc analyze --json` |
//! | `is_robust` | `tenant`, `settings`? | `{workload, robust, epoch}` |
//! | `explore_subsets` | `tenant`, `settings`? | same JSON as `mvrc subsets --json` |
//! | `lint` | `tenant`, `settings`? | same JSON as `mvrc lint --json` |
//! | `add_program` | `tenant`, `program_sql` | `{epoch, programs}` |
//! | `remove_program` | `tenant`, `name` | `{epoch, programs}` |
//! | `replace_program` | `tenant`, `program_sql` | `{epoch, programs}` |
//! | `persist` | `tenant` | `{persisted}` |
//!
//! `settings` is an optional serialized [`AnalysisSettings`] object; omitting it selects the
//! paper-default setting, exactly like running the CLI without settings flags.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, HashMap};
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mvrc_robustness::{
    explore_subsets_with, AnalysisSettings, CycleCondition, ExploreOptions, Granularity,
    RobustnessSession, SummaryGraph, TooManyPrograms,
};
use serde_json::{json, Value};

use crate::epoch::EpochCache;
use crate::protocol::{error_response, ok_response, write_frame, MAX_FRAME_BYTES};
use crate::signal;
use crate::tenant::Tenant;

/// How often idle loops re-check the drain flag.
const IDLE_POLL: Duration = Duration::from_millis(25);

/// How long a peer may take to deliver the rest of a frame once its first byte arrived.
const FRAME_DEADLINE: Duration = Duration::from_secs(30);

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The address to listen on (`host:port`; port `0` picks a free one).
    pub listen: String,
    /// When set, the bound address is written here (`host:port` plus a trailing newline) —
    /// scripts starting the daemon on port 0 read it back.
    pub port_file: Option<PathBuf>,
    /// Persist every tenant this often (seconds). `None` persists only on graceful shutdown.
    pub persist_secs: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            listen: "127.0.0.1:0".to_string(),
            port_file: None,
            persist_secs: None,
        }
    }
}

/// A bound daemon, ready to [`run`](Server::run).
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    tenants: Arc<BTreeMap<String, Arc<Tenant>>>,
    persist_secs: Option<u64>,
    /// Server-local drain flag, set by the wire-level `shutdown` op. Kept separate from the
    /// process-global SIGTERM flag so several servers in one test process drain independently.
    local_shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Binds the listener, writes the port file (when configured) and registers the tenants.
    /// Tenant names must be unique.
    pub fn bind(config: &ServeConfig, tenants: Vec<Tenant>) -> Result<Server, String> {
        let listener = TcpListener::bind(&config.listen)
            .map_err(|e| format!("binding {}: {e}", config.listen))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("setting the listener nonblocking: {e}"))?;
        let mut map = BTreeMap::new();
        for tenant in tenants {
            let name = tenant.name().to_string();
            if map.insert(name.clone(), Arc::new(tenant)).is_some() {
                return Err(format!("duplicate tenant name `{name}`"));
            }
        }
        let server = Server {
            listener,
            tenants: Arc::new(map),
            persist_secs: config.persist_secs,
            local_shutdown: Arc::new(AtomicBool::new(false)),
        };
        if let Some(path) = &config.port_file {
            let addr = server.local_addr()?;
            std::fs::write(path, format!("{addr}\n"))
                .map_err(|e| format!("writing port file {}: {e}", path.display()))?;
        }
        Ok(server)
    }

    /// The address the listener actually bound (resolves port 0).
    pub fn local_addr(&self) -> Result<SocketAddr, String> {
        self.listener
            .local_addr()
            .map_err(|e| format!("reading the bound address: {e}"))
    }

    /// The server-local drain flag — setting it to `true` makes [`run`](Server::run) drain and
    /// return, exactly like the wire-level `shutdown` op. Tests hold this to stop a server
    /// without signals.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.local_shutdown)
    }

    /// The hosted tenants, by name.
    pub fn tenants(&self) -> &BTreeMap<String, Arc<Tenant>> {
        &self.tenants
    }

    fn draining(&self) -> bool {
        self.local_shutdown.load(Ordering::SeqCst) || signal::shutdown_requested()
    }

    /// Persists every tenant that has a snapshot path; returns the accumulated errors.
    fn persist_all(&self) -> Vec<String> {
        self.tenants
            .values()
            .filter_map(|t| t.persist().err())
            .collect()
    }

    /// Serves until a drain is requested (SIGTERM or the `shutdown` op), then joins every
    /// connection thread, persists every tenant and returns.
    pub fn run(self) -> Result<(), String> {
        let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
        let mut last_persist = Instant::now();
        while !self.draining() {
            if let Some(secs) = self.persist_secs {
                if last_persist.elapsed() >= Duration::from_secs(secs) {
                    for err in self.persist_all() {
                        eprintln!("mvrc-serve: periodic persist: {err}");
                    }
                    last_persist = Instant::now();
                }
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let tenants = Arc::clone(&self.tenants);
                    let local_shutdown = Arc::clone(&self.local_shutdown);
                    handles.push(std::thread::spawn(move || {
                        handle_connection(stream, tenants, local_shutdown);
                    }));
                    handles.retain(|h| !h.is_finished());
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(IDLE_POLL);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("accept failed: {e}")),
            }
        }
        // Drain: no new connections; in-flight requests finish (connection threads observe the
        // flag between requests), then every tenant persists.
        for handle in handles {
            let _ = handle.join();
        }
        let errors = self.persist_all();
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors.join("; "))
        }
    }
}

/// The outcome of waiting for the next request on a connection.
enum NextRequest {
    /// A complete, well-formed frame.
    Request(Value),
    /// A complete frame whose body is not valid JSON — recoverable, framing is intact.
    BadJson(String),
    /// A length prefix beyond [`MAX_FRAME_BYTES`] — fatal for this connection (the stream is
    /// desynchronized), rejected before any body allocation.
    Oversized(usize),
    /// The peer disconnected (cleanly between frames, or mid-frame, or errored).
    Disconnect,
    /// A drain was requested while idle.
    Drain,
}

/// Reads exactly `buf.len()` bytes, riding out read-timeout wakeups until `deadline`.
fn read_full(stream: &mut TcpStream, buf: &mut [u8], deadline: Instant) -> Result<(), String> {
    let mut at = 0;
    while at < buf.len() {
        match stream.read(&mut buf[at..]) {
            Ok(0) => return Err("peer disconnected mid-frame".to_string()),
            Ok(n) => at += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if Instant::now() >= deadline {
                    return Err("timed out mid-frame".to_string());
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("i/o error mid-frame: {e}")),
        }
    }
    Ok(())
}

/// Waits for the next frame, polling the drain flag while idle. The wait between requests is
/// unbounded (connections may idle); once the first prefix byte arrives the rest of the frame
/// must land within [`FRAME_DEADLINE`].
fn next_request(stream: &mut TcpStream, draining: impl Fn() -> bool) -> NextRequest {
    let mut first = [0u8; 1];
    loop {
        if draining() {
            return NextRequest::Drain;
        }
        match stream.read(&mut first) {
            Ok(0) => return NextRequest::Disconnect,
            Ok(_) => break,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(_) => return NextRequest::Disconnect,
        }
    }
    let deadline = Instant::now() + FRAME_DEADLINE;
    let mut rest = [0u8; 3];
    if read_full(stream, &mut rest, deadline).is_err() {
        return NextRequest::Disconnect;
    }
    let declared = u32::from_le_bytes([first[0], rest[0], rest[1], rest[2]]) as usize;
    if declared > MAX_FRAME_BYTES {
        return NextRequest::Oversized(declared);
    }
    let mut body = vec![0u8; declared];
    if read_full(stream, &mut body, deadline).is_err() {
        return NextRequest::Disconnect;
    }
    let text = match String::from_utf8(body) {
        Ok(text) => text,
        Err(e) => return NextRequest::BadJson(e.to_string()),
    };
    match serde_json::from_str(&text) {
        Ok(value) => NextRequest::Request(value),
        Err(e) => NextRequest::BadJson(e.to_string()),
    }
}

/// Serves one connection until the peer hangs up, sends a fatal frame, asks for shutdown, or
/// a drain is requested.
fn handle_connection(
    mut stream: TcpStream,
    tenants: Arc<BTreeMap<String, Arc<Tenant>>>,
    local_shutdown: Arc<AtomicBool>,
) {
    // The short timeout turns blocking reads into drain-flag poll points.
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    let _ = stream.set_nodelay(true);
    let mut caches: HashMap<String, EpochCache<RobustnessSession>> = HashMap::new();
    loop {
        let outcome = next_request(&mut stream, || {
            local_shutdown.load(Ordering::SeqCst) || signal::shutdown_requested()
        });
        match outcome {
            NextRequest::Drain | NextRequest::Disconnect => return,
            NextRequest::Oversized(declared) => {
                let _ = write_frame(
                    &mut stream,
                    &error_response(format!(
                        "frame of {declared} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
                    )),
                );
                return;
            }
            NextRequest::BadJson(msg) => {
                let reply = error_response(format!("malformed JSON body: {msg}"));
                if write_frame(&mut stream, &reply).is_err() {
                    return;
                }
            }
            NextRequest::Request(request) => {
                let (reply, close) = dispatch(&request, &tenants, &mut caches, &local_shutdown);
                if write_frame(&mut stream, &reply).is_err() || close {
                    return;
                }
            }
        }
    }
}

/// Routes one request; returns the response envelope and whether to close the connection.
fn dispatch(
    request: &Value,
    tenants: &BTreeMap<String, Arc<Tenant>>,
    caches: &mut HashMap<String, EpochCache<RobustnessSession>>,
    local_shutdown: &AtomicBool,
) -> (Value, bool) {
    let Some(op) = request.get("op").and_then(Value::as_str) else {
        return (error_response("request has no string `op` field"), false);
    };
    match op {
        "ping" => (ok_response(json!("pong")), false),
        "shutdown" => {
            local_shutdown.store(true, Ordering::SeqCst);
            (ok_response(json!("draining")), true)
        }
        "stats" => (ok_response(stats_value(tenants)), false),
        "analyze" | "is_robust" | "explore_subsets" | "lint" | "add_program" | "remove_program"
        | "replace_program" | "persist" => (tenant_op(op, request, tenants, caches), false),
        _ => (error_response(format!("unknown op `{op}`")), false),
    }
}

/// Parses the optional `settings` field (paper default when absent). The accepted shape is
/// exactly what [`AnalysisSettings`] serializes to — `{"granularity": "Attribute"|"Tuple",
/// "use_foreign_keys": bool, "condition": "TypeI"|"TypeII"}` — with each field optional and
/// defaulting to the paper-default setting. (The vendored serde stand-in derives `Serialize`
/// only, so the mapping back is spelled out here.)
fn parse_settings(request: &Value) -> Result<AnalysisSettings, String> {
    let mut settings = AnalysisSettings::paper_default();
    let value = match request.get("settings") {
        None | Some(Value::Null) => return Ok(settings),
        Some(value) => value,
    };
    if value.as_object().is_none() {
        return Err("`settings` must be an object".to_string());
    }
    if let Some(granularity) = value.get("granularity") {
        settings.granularity = match granularity.as_str() {
            Some("Attribute") => Granularity::Attribute,
            Some("Tuple") => Granularity::Tuple,
            _ => return Err("`settings.granularity` must be \"Attribute\" or \"Tuple\"".into()),
        };
    }
    if let Some(fk) = value.get("use_foreign_keys") {
        settings.use_foreign_keys = fk
            .as_bool()
            .ok_or("`settings.use_foreign_keys` must be a boolean")?;
    }
    if let Some(condition) = value.get("condition") {
        settings.condition = match condition.as_str() {
            Some("TypeI") => CycleCondition::TypeI,
            Some("TypeII") => CycleCondition::TypeII,
            _ => return Err("`settings.condition` must be \"TypeI\" or \"TypeII\"".into()),
        };
    }
    Ok(settings)
}

/// Handles every per-tenant op.
fn tenant_op(
    op: &str,
    request: &Value,
    tenants: &BTreeMap<String, Arc<Tenant>>,
    caches: &mut HashMap<String, EpochCache<RobustnessSession>>,
) -> Value {
    let Some(name) = request.get("tenant").and_then(Value::as_str) else {
        return error_response(format!("op `{op}` needs a string `tenant` field"));
    };
    let Some(tenant) = tenants.get(name) else {
        let hosted: Vec<&str> = tenants.keys().map(String::as_str).collect();
        return error_response(format!(
            "unknown tenant `{name}` (hosted: {})",
            hosted.join(", ")
        ));
    };
    match op {
        "analyze" | "is_robust" | "explore_subsets" | "lint" => {
            let settings = match parse_settings(request) {
                Ok(settings) => settings,
                Err(message) => return error_response(message),
            };
            // Lock-free read: revalidate the per-connection epoch cache (one acquire load in
            // the steady state) and query the shared session.
            let session = caches
                .entry(name.to_string())
                .or_default()
                .get(tenant.cell());
            let constructions_before = SummaryGraph::constructions_on_current_thread();
            let result = match op {
                "analyze" => {
                    let report = session.analyze(settings);
                    json!({
                        "workload": session.workload().name,
                        "programs": session.program_names(),
                        "report": report,
                    })
                }
                "is_robust" => json!({
                    "workload": session.workload().name,
                    "robust": session.is_robust(settings),
                    "epoch": tenant.cell().epoch(),
                }),
                "explore_subsets" => {
                    // Too wide a tenant is a request error; the connection stays open.
                    if let Err(e) = TooManyPrograms::check(session.program_names().len()) {
                        return error_response(e.to_string());
                    }
                    // Identical call and rendering to `mvrc subsets --json` (default options,
                    // not the incremental path), so replies are byte-for-byte comparable with
                    // the offline CLI on the same workload.
                    let start = Instant::now();
                    let exploration =
                        explore_subsets_with(&session, settings, ExploreOptions::default());
                    tenant
                        .stats()
                        .record_sweep(start.elapsed().as_micros() as u64);
                    json!({
                        "workload": session.workload().name,
                        "exploration": exploration,
                    })
                }
                "lint" => {
                    let report = mvrc_lint::lint_workload(
                        session.workload(),
                        &mvrc_lint::LintOptions {
                            settings,
                            source_name: None,
                            suggest_repairs: true,
                        },
                    );
                    serde_json::to_value(&report)
                }
                _ => unreachable!("guarded by the outer match"),
            };
            tenant.stats().record_query(
                SummaryGraph::constructions_on_current_thread() - constructions_before,
            );
            ok_response(result)
        }
        "add_program" | "replace_program" => {
            let Some(sql) = request.get("program_sql").and_then(Value::as_str) else {
                return error_response(format!("op `{op}` needs a string `program_sql` field"));
            };
            let replace = op == "replace_program";
            let outcome = tenant.edit(|session| {
                let program = mvrc_btp::sql::parse_program(session.schema(), sql)
                    .map_err(|e| e.to_string())?;
                if replace {
                    session.replace_program(program).map_err(|e| e.to_string())
                } else if session.program_names().iter().any(|n| n == program.name()) {
                    Err(format!(
                        "a program named `{}` already exists (use replace_program)",
                        program.name()
                    ))
                } else {
                    session.add_program(program);
                    Ok(())
                }
            });
            edit_reply(tenant, outcome)
        }
        "remove_program" => {
            let Some(victim) = request.get("name").and_then(Value::as_str) else {
                return error_response("op `remove_program` needs a string `name` field");
            };
            let outcome =
                tenant.edit(|session| session.remove_program(victim).map_err(|e| e.to_string()));
            edit_reply(tenant, outcome)
        }
        "persist" => match tenant.persist() {
            Ok(persisted) => ok_response(json!({ "persisted": persisted })),
            Err(message) => error_response(message),
        },
        _ => error_response(format!("unknown op `{op}`")),
    }
}

/// Renders an edit outcome: the new epoch plus the post-edit program list.
fn edit_reply(tenant: &Tenant, outcome: Result<u64, String>) -> Value {
    match outcome {
        Ok(epoch) => {
            let (_, session) = tenant.cell().load();
            ok_response(json!({
                "epoch": epoch,
                "programs": session.program_names(),
            }))
        }
        Err(message) => error_response(message),
    }
}

/// Renders the `stats` result: one row per tenant, in name order.
fn stats_value(tenants: &BTreeMap<String, Arc<Tenant>>) -> Value {
    let rows: Vec<Value> = tenants
        .values()
        .map(|tenant| {
            let (epoch, session) = tenant.cell().load();
            let stats = tenant.stats();
            let boot = tenant.boot();
            json!({
                "name": tenant.name(),
                "epoch": epoch,
                "programs": session.program_names(),
                "cached_graphs": session.cached_graph_count(),
                "cached_sweeps": session.cached_sweep_count(),
                "queries": stats.queries.load(Ordering::Relaxed),
                "edits": stats.edits.load(Ordering::Relaxed),
                "graph_cache_hits": stats.graph_cache_hits.load(Ordering::Relaxed),
                "graph_builds": stats.graph_builds.load(Ordering::Relaxed),
                "sweeps": stats.sweeps.load(Ordering::Relaxed),
                "sweep_micros": stats.sweep_micros.load(Ordering::Relaxed),
                "persists": stats.persists.load(Ordering::Relaxed),
                "boot": json!({
                    "source": boot.source.label(),
                    "warm": boot.is_warm(),
                    "constructions": boot.constructions,
                    "closures": boot.closures,
                    "fingerprint": boot.fingerprint,
                }),
            })
        })
        .collect();
    json!({ "tenants": rows })
}
