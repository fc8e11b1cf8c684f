//! Generated-input test for the wire protocol: near-valid request frames never take the
//! daemon down.
//!
//! The inputs are real request bodies — `analyze`, `is_robust`, `explore_subsets`, `lint`,
//! `add_program` with SmallBank SQL and `remove_program` — mutated by deleting, duplicating or
//! bit-flipping bytes, or by truncating the body (seeded, so every run sees the same inputs).
//! Each mutant is sent under a valid length prefix. Whatever the mutation, the daemon answers
//! it with one reply frame, the same connection still answers `ping` with `pong`, and no
//! request panics (`stats` reports `panics: 0`).

use std::net::TcpStream;

use mvrc_serve::{read_frame, write_frame, ServeConfig, Server, Tenant};
use serde_json::{json, Value};

/// Mutated request bodies per run.
const MUTANTS: usize = 2_000;

/// SplitMix64: a seeded stream of pseudo-random numbers.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// Applies one to three byte deletions, duplications, bit flips or truncations.
fn mutate(body: &[u8], rng: &mut Rng) -> Vec<u8> {
    let mut bytes = body.to_vec();
    for _ in 0..1 + rng.below(3) {
        if bytes.is_empty() {
            break;
        }
        let at = rng.below(bytes.len());
        match rng.below(4) {
            0 => {
                bytes.remove(at);
            }
            1 => bytes.insert(at, bytes[at]),
            2 => bytes[at] ^= 1 << rng.below(8),
            _ => bytes.truncate(at),
        }
    }
    bytes
}

/// The `PROGRAM WriteCheck` block of the bundled SmallBank file.
fn write_check_sql() -> &'static str {
    let text = include_str!("../../cli/workloads/smallbank.sql");
    &text[text.find("PROGRAM WriteCheck").expect("WriteCheck block")..]
}

/// One request per op the daemon serves a tenant with. Queries go to `bank`, edits to
/// `edits` (SmallBank without WriteCheck), so mutated edits cannot grow the tenant the
/// subset sweeps run on.
fn request_bodies() -> Vec<Vec<u8>> {
    let settings =
        json!({"granularity": "Attribute", "use_foreign_keys": true, "condition": "TypeII"});
    [
        json!({"op": "analyze", "tenant": "bank", "settings": settings}),
        json!({"op": "is_robust", "tenant": "bank", "settings": settings}),
        json!({"op": "explore_subsets", "tenant": "bank", "settings": settings}),
        json!({"op": "lint", "tenant": "bank", "settings": settings}),
        json!({"op": "add_program", "tenant": "edits", "program_sql": write_check_sql()}),
        json!({"op": "remove_program", "tenant": "edits", "name": "Balance"}),
    ]
    .iter()
    .map(|request| serde_json::to_string(request).expect("render").into_bytes())
    .collect()
}

/// Sends `body` under a valid length prefix and reads one reply frame.
fn send_raw(stream: &mut TcpStream, body: &[u8]) -> Value {
    use std::io::Write;
    let mut frame = (body.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(body);
    stream.write_all(&frame).expect("write");
    read_frame(stream).expect("a reply frame")
}

#[test]
fn mutated_request_frames_are_answered_and_the_connection_keeps_serving() {
    let mut edits = mvrc_benchmarks::smallbank();
    edits.programs.retain(|p| p.name() != "WriteCheck");
    let tenants = vec![
        Tenant::from_workload("bank", mvrc_benchmarks::smallbank()),
        Tenant::from_workload("edits", edits),
    ];
    let server = Server::bind(&ServeConfig::default(), tenants).expect("bind");
    let addr = server.local_addr().expect("addr");
    let flag = server.shutdown_flag();
    let handle = std::thread::spawn(move || server.run());
    let mut stream = TcpStream::connect(addr).expect("connect");
    // `write_frame` writes the prefix and the body separately; without this, each ping would
    // wait out a delayed acknowledgement.
    stream.set_nodelay(true).expect("nodelay");

    // The unmutated bodies are served as requests, not refused as malformed.
    let bodies = request_bodies();
    for body in &bodies {
        let reply = send_raw(&mut stream, body);
        assert_eq!(reply.get("ok"), Some(&json!(true)), "{reply:?}");
    }

    let mut rng = Rng(0x5eed_f4a3);
    for i in 0..MUTANTS {
        let mutant = mutate(&bodies[i % bodies.len()], &mut rng);
        let reply = send_raw(&mut stream, &mutant);
        assert!(
            reply.get("ok").and_then(Value::as_bool).is_some(),
            "mutant {i} got no reply envelope: {reply:?}\n{}",
            String::from_utf8_lossy(&mutant)
        );
        write_frame(&mut stream, &json!({"op": "ping"})).expect("write");
        let pong = read_frame(&mut stream).expect("reply");
        assert_eq!(
            pong.get("result"),
            Some(&json!("pong")),
            "after mutant {i}: {}",
            String::from_utf8_lossy(&mutant)
        );
    }

    write_frame(&mut stream, &json!({"op": "stats"})).expect("write");
    let stats = read_frame(&mut stream).expect("reply");
    assert_eq!(stats["result"]["panics"], json!(0), "{stats:?}");

    flag.store(true, std::sync::atomic::Ordering::SeqCst);
    drop(stream);
    handle.join().expect("server thread").expect("clean drain");
}
