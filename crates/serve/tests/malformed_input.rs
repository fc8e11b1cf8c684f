//! Frame-layer robustness: hostile or broken peers must never take the daemon down.
//!
//! Covers the three failure classes the protocol docs promise to contain: malformed JSON,
//! including nesting past the decoder's recursion limit (error reply, connection survives),
//! oversized frames (error reply *before any body allocation*, connection closed), and
//! mid-frame disconnects (that connection alone dies; every other connection keeps working).
//! Plus the request-shape errors above the frame layer: missing `op`, unknown op, unknown
//! tenant, invalid `settings`, SQL blocks nested past the parser's limit, a program (or a
//! workload) that unfolds to more LTPs than the front end admits, a subset sweep over a tenant
//! wider than the sweep accepts, and a reply too large for a frame.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use mvrc_serve::{
    read_frame, write_frame, FrameError, ServeConfig, Server, Tenant, MAX_FRAME_BYTES,
};
use serde_json::{json, Value};

fn start_server() -> (SocketAddr, Arc<AtomicBool>, JoinHandle<Result<(), String>>) {
    let tenant = Tenant::from_workload("bank", mvrc_benchmarks::smallbank());
    let server = Server::bind(&ServeConfig::default(), vec![tenant]).expect("bind");
    let addr = server.local_addr().expect("addr");
    let flag = server.shutdown_flag();
    let handle = std::thread::spawn(move || server.run());
    (addr, flag, handle)
}

fn stop_server(flag: &AtomicBool, handle: JoinHandle<Result<(), String>>) {
    flag.store(true, Ordering::SeqCst);
    handle.join().expect("server thread").expect("clean drain");
}

/// Sends raw bytes as-is and reads one reply frame.
fn roundtrip_raw(stream: &mut TcpStream, bytes: &[u8]) -> Result<Value, FrameError> {
    stream.write_all(bytes).expect("write");
    read_frame(stream)
}

fn error_text(reply: &Value) -> String {
    assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(false));
    reply
        .get("error")
        .and_then(Value::as_str)
        .expect("error text")
        .to_string()
}

#[test]
fn malformed_json_earns_an_error_reply_and_the_connection_survives() {
    let (addr, flag, handle) = start_server();
    let mut stream = TcpStream::connect(addr).expect("connect");

    for body in [&b"{not json"[..], b"", b"\xff\xfe\x00garbage"] {
        let mut frame = (body.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(body);
        let reply = roundtrip_raw(&mut stream, &frame).expect("reply");
        assert!(
            error_text(&reply).contains("malformed JSON"),
            "unexpected error for body {body:?}"
        );
    }

    // Framing stayed intact: a well-formed request on the same connection still works.
    write_frame(&mut stream, &json!({"op": "ping"})).expect("write");
    let reply = read_frame(&mut stream).expect("reply");
    assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(true));

    stop_server(&flag, handle);
}

#[test]
fn deeply_nested_frame_earns_an_error_reply_and_the_connection_survives() {
    let (addr, flag, handle) = start_server();
    let mut stream = TcpStream::connect(addr).expect("connect");

    // 100,000 nested arrays: a 100 KB frame, far under the size limit, that a parser
    // recursing once per level without a cap would overflow the connection thread's stack on,
    // aborting the whole daemon.
    let body = "[".repeat(100_000);
    let mut frame = (body.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(body.as_bytes());
    let reply = roundtrip_raw(&mut stream, &frame).expect("reply");
    let error = error_text(&reply);
    assert!(
        error.contains("malformed JSON") && error.contains("recursion limit"),
        "got: {error}"
    );

    write_frame(&mut stream, &json!({"op": "ping"})).expect("write");
    let reply = read_frame(&mut stream).expect("reply");
    assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(true));

    stop_server(&flag, handle);
}

#[test]
fn deeply_nested_program_sql_earns_an_error_reply_and_the_connection_survives() {
    let (addr, flag, handle) = start_server();
    let mut stream = TcpStream::connect(addr).expect("connect");

    // 4,000 nested IF blocks: a ~90 KB frame, one JSON string deep, whose SQL a parser
    // recursing once per block without a cap would overflow the connection thread's stack on,
    // aborting the whole daemon.
    let sql = format!(
        "PROGRAM Deep(:C) {{ {} SELECT Balance FROM Savings WHERE CustomerId = :C; {} }}",
        "IF :C THEN ".repeat(4_000),
        "END IF; ".repeat(4_000)
    );
    write_frame(
        &mut stream,
        &json!({"op": "add_program", "tenant": "bank", "program_sql": sql}),
    )
    .expect("write");
    let reply = read_frame(&mut stream).expect("reply");
    let error = error_text(&reply);
    assert!(error.contains("nest"), "got: {error}");

    write_frame(&mut stream, &json!({"op": "ping"})).expect("write");
    let reply = read_frame(&mut stream).expect("reply");
    assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(true));

    stop_server(&flag, handle);
}

#[test]
fn program_sql_beyond_the_ltp_limit_earns_an_error_reply_and_the_connection_survives() {
    let (addr, flag, handle) = start_server();
    let mut stream = TcpStream::connect(addr).expect("connect");

    // Four nested loops: a 300-byte program that unfolds to 33,673 LTPs, whose summary graph
    // would exhaust the memory of the whole daemon.
    let sql = format!(
        "PROGRAM Nested(:C) {{ {} {} }}",
        "WHILE :C DO UPDATE Savings SET Balance = Balance + 1 WHERE CustomerId = :C; ".repeat(4),
        "END WHILE; ".repeat(4)
    );
    write_frame(
        &mut stream,
        &json!({"op": "add_program", "tenant": "bank", "program_sql": sql}),
    )
    .expect("write");
    let reply = read_frame(&mut stream).expect("reply");
    let error = error_text(&reply);
    assert!(
        error.contains("unfolds to 33673 LTPs") && error.contains("limit"),
        "got: {error}"
    );

    write_frame(&mut stream, &json!({"op": "ping"})).expect("write");
    let reply = read_frame(&mut stream).expect("reply");
    assert_eq!(reply.get("result"), Some(&json!("pong")), "{reply:?}");

    stop_server(&flag, handle);
}

#[test]
fn programs_beyond_the_workload_ltp_limit_earn_an_error_reply_and_the_connection_survives() {
    let (addr, flag, handle) = start_server();
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut edit = |op: &str, name: &str| {
        // Nine optional updates: 512 LTPs, the per-program limit.
        let sql = format!(
            "PROGRAM {name}(:C) {{ {}}}",
            "IF :C THEN UPDATE Savings SET Balance = Balance + 1 WHERE CustomerId = :C; END IF; "
                .repeat(9)
        );
        write_frame(
            &mut stream,
            &json!({"op": op, "tenant": "bank", "program_sql": sql}),
        )
        .expect("write");
        read_frame(&mut stream).expect("reply")
    };

    // SmallBank plus one such program fits the workload budget, and so does replacing it
    // (the replaced program no longer counts); a second one does not.
    for (op, name) in [("add_program", "Wide1"), ("replace_program", "Wide1")] {
        let reply = edit(op, name);
        assert_eq!(
            reply.get("ok").and_then(Value::as_bool),
            Some(true),
            "{reply:?}"
        );
    }
    let error = error_text(&edit("add_program", "Wide2"));
    assert!(
        error.contains(&format!(
            "more than the workload limit of {}",
            mvrc_btp::sql::MAX_WORKLOAD_LTPS
        )),
        "got: {error}"
    );

    write_frame(&mut stream, &json!({"op": "ping"})).expect("write");
    let reply = read_frame(&mut stream).expect("reply");
    assert_eq!(reply.get("result"), Some(&json!("pong")), "{reply:?}");

    stop_server(&flag, handle);
}

#[test]
fn oversized_frame_is_rejected_with_an_error_then_the_connection_closes() {
    let (addr, flag, handle) = start_server();
    let mut stream = TcpStream::connect(addr).expect("connect");

    // A 3 GiB length prefix: the reply must arrive without the server ever allocating the
    // body (the test would OOM-crash the server long before the assert if it did).
    let declared: u32 = 3 * 1024 * 1024 * 1024;
    let reply = roundtrip_raw(&mut stream, &declared.to_le_bytes()).expect("reply");
    assert!(error_text(&reply).contains("exceeds"), "got: {reply:?}");

    // The stream is desynchronized, so the server hangs up after the reply.
    assert!(matches!(
        read_frame(&mut stream),
        Err(FrameError::Closed) | Err(FrameError::Io(_))
    ));

    stop_server(&flag, handle);
}

#[test]
fn mid_frame_disconnect_kills_only_that_connection() {
    let (addr, flag, handle) = start_server();

    // Connection A claims a 64-byte body, delivers 10 bytes, vanishes.
    let mut dying = TcpStream::connect(addr).expect("connect");
    dying.write_all(&64u32.to_le_bytes()).expect("prefix");
    dying.write_all(b"0123456789").expect("partial body");
    drop(dying);

    // Connection B is unaffected.
    let mut healthy = TcpStream::connect(addr).expect("connect");
    write_frame(&mut healthy, &json!({"op": "ping"})).expect("write");
    let reply = read_frame(&mut healthy).expect("reply");
    assert_eq!(reply.get("result").and_then(Value::as_str), Some("pong"));

    stop_server(&flag, handle);
}

#[test]
fn request_shape_errors_are_reported_per_request() {
    let (addr, flag, handle) = start_server();
    let mut stream = TcpStream::connect(addr).expect("connect");

    let cases: &[(Value, &str)] = &[
        (json!({"no_op": 1}), "no string `op`"),
        (json!({"op": "frobnicate"}), "unknown op"),
        (json!({"op": "analyze"}), "needs a string `tenant`"),
        (
            json!({"op": "analyze", "tenant": "nobody"}),
            "unknown tenant",
        ),
        (
            json!({"op": "analyze", "tenant": "bank", "settings": "tuple"}),
            "must be an object",
        ),
        (
            json!({"op": "analyze", "tenant": "bank", "settings": json!({"granularity": "Row"})}),
            "granularity",
        ),
        (
            json!({"op": "add_program", "tenant": "bank"}),
            "needs a string `program_sql`",
        ),
        (
            json!({"op": "add_program", "tenant": "bank", "program_sql": "PROGRAM Broken("}),
            "",
        ),
        (
            json!({"op": "remove_program", "tenant": "bank", "name": "NoSuchProgram"}),
            "unknown program",
        ),
    ];
    for (request, needle) in cases {
        write_frame(&mut stream, request).expect("write");
        let reply = read_frame(&mut stream).expect("reply");
        let text = error_text(&reply);
        assert!(
            text.contains(needle),
            "error for {request:?} should mention `{needle}`, got `{text}`"
        );
    }

    // None of those errors disturbed the session: the tenant still answers.
    write_frame(&mut stream, &json!({"op": "is_robust", "tenant": "bank"})).expect("write");
    let reply = read_frame(&mut stream).expect("reply");
    assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(true));

    stop_server(&flag, handle);
}

#[test]
fn wire_shutdown_drains_the_server() {
    let (addr, _flag, handle) = start_server();
    let mut stream = TcpStream::connect(addr).expect("connect");
    write_frame(&mut stream, &json!({"op": "shutdown"})).expect("write");
    let reply = read_frame(&mut stream).expect("reply");
    assert_eq!(
        reply.get("result").and_then(Value::as_str),
        Some("draining")
    );
    handle.join().expect("server thread").expect("clean drain");

    // The listener is gone: new connections are refused (or reset immediately).
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(mut stream) => {
            let mut buf = [0u8; 1];
            assert_eq!(stream.read(&mut buf).unwrap_or(0), 0);
        }
    }
}

#[test]
fn subset_sweep_on_a_too_wide_tenant_is_an_error_reply_and_the_connection_survives() {
    // Auction(25) has 50 programs, beyond the sweep limit of 20.
    let tenant = Tenant::from_workload("wide", mvrc_benchmarks::auction_n(25));
    let server = Server::bind(&ServeConfig::default(), vec![tenant]).expect("bind");
    let addr = server.local_addr().expect("addr");
    let flag = server.shutdown_flag();
    let handle = std::thread::spawn(move || server.run());
    let mut stream = TcpStream::connect(addr).expect("connect");

    write_frame(
        &mut stream,
        &json!({"op": "explore_subsets", "tenant": "wide"}),
    )
    .expect("write");
    let reply = read_frame(&mut stream).expect("reply");
    let error = error_text(&reply);
    assert!(
        error.contains("50 programs exceed the limit of 20"),
        "{error}"
    );

    write_frame(&mut stream, &json!({"op": "ping"})).expect("write");
    let reply = read_frame(&mut stream).expect("reply");
    assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(true));

    stop_server(&flag, handle);
}

#[test]
fn reply_past_the_frame_limit_is_an_error_reply_and_the_connection_survives() {
    // Every `is_robust` reply echoes the workload name, so a 16 MiB name renders a reply past
    // the frame limit; replies that large also come from real sweeps (20 read-only YCSB-T
    // programs have 1,048,575 robust subsets, ~28 MB of JSON).
    let mut workload = mvrc_benchmarks::smallbank();
    workload.name = "n".repeat(MAX_FRAME_BYTES);
    let tenant = Tenant::from_workload("huge", workload);
    let server = Server::bind(&ServeConfig::default(), vec![tenant]).expect("bind");
    let addr = server.local_addr().expect("addr");
    let flag = server.shutdown_flag();
    let handle = std::thread::spawn(move || server.run());
    let mut stream = TcpStream::connect(addr).expect("connect");

    write_frame(&mut stream, &json!({"op": "is_robust", "tenant": "huge"})).expect("write");
    let reply = read_frame(&mut stream).expect("reply");
    let error = error_text(&reply);
    assert!(
        error.starts_with("reply of ")
            && error.ends_with(&format!(
                " bytes exceeds the {MAX_FRAME_BYTES}-byte frame limit"
            )),
        "{error}"
    );

    write_frame(&mut stream, &json!({"op": "ping"})).expect("write");
    let reply = read_frame(&mut stream).expect("reply");
    assert_eq!(reply.get("result").and_then(Value::as_str), Some("pong"));

    stop_server(&flag, handle);
}
