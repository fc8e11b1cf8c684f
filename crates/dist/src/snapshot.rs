//! The snapshot layer: a versioned, self-describing binary format persisting a
//! [`RobustnessSession`] — its [`Workload`], the unfolded LTPs and every cached
//! [`SummaryGraph`] — so another process can answer robustness queries without re-unfolding
//! the workload, re-deriving a single Algorithm 1 edge or recomputing a single closure word.
//!
//! Snapshots are rebuildable caches, so a build reads exactly one format version
//! ([`SNAPSHOT_FORMAT_VERSION`]); a file of any other version fails with
//! [`SnapshotError::UnsupportedVersion`] and is rebuilt from the workload.
//!
//! # File format
//!
//! A snapshot is a 20-byte header followed by a canonical little-endian payload:
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0      | 8    | magic `MVRCSNAP` ([`SNAPSHOT_MAGIC`]) |
//! | 8      | 4    | format version, `u32` LE ([`SNAPSHOT_FORMAT_VERSION`], currently 5) |
//! | 12     | 8    | workload fingerprint, `u64` LE — FNV-1a over the payload |
//! | 20     | …    | payload: workload section, LTP section, graph section |
//!
//! The payload encoding is *canonical* (fixed-width integers, length-prefixed lists, no maps
//! in nondeterministic order, no padding), so the fingerprint doubles as a content identity:
//! equal sessions get equal fingerprints.
//! Every open recomputes the FNV over the payload and rejects any header/payload mismatch,
//! which catches truncation and bit flips. The fingerprint is the word-lane variant
//! of FNV-1a (chained over `u64` LE lanes, one multiply per eight bytes): payloads carry whole
//! derived arrays, and a byte-chained hash would cost more than the decode it guards.
//!
//! # Graph section
//!
//! Per cached granularity/foreign-key combination, the graph section stores the settings, the
//! widened LTP nodes, the complete Algorithm 1 edge list and the graph's *derived* arrays:
//!
//! | field | encoding |
//! |-------|----------|
//! | settings | granularity byte, foreign-key bool, condition byte |
//! | nodes | `u32` count `n`, then the LTPs |
//! | edges | `u32` count `E`, then per edge `from`, `from_stmt` (`u32`), kind byte, `to_stmt`, `to` (`u32`) |
//! | in-CSR | `n + 1` offset `u32`s, then `E` target `u32`s (edge indices grouped by target) |
//! | reachability | `n · max(⌈n/64⌉, 1)` row-major `u64` closure words |
//!
//! The lengths of the derived arrays are implied by `n` and `E` (no prefixes). The edges are
//! stored in the summary graph's one edge order, strictly ascending
//! `(from, to, from_stmt, to_stmt, kind)`, so they are grouped by source and the out-adjacency
//! is not stored: the decoder checks the order with one compare per edge, in the loop that
//! range-checks the edges, and counts the out-adjacency offsets there.
//!
//! There is one decoder, [`session_from_snapshot_bytes`]; [`open_snapshot`] reads the file
//! and calls it. It decodes each graph's arrays into owned vectors and installs them
//! ([`SummaryGraph::from_snapshot_parts_with_derived`]): a warm start runs no edge
//! derivation, no adjacency build and no closure computation, verified in tests via the
//! construction and closure counters. The edge order and the in-adjacency are structurally
//! validated against the edge list on open (bit-identity with a fresh derivation is forced);
//! the closure words are covered by the fingerprint. The round-trip is **bit-identical** on
//! every graph array — `reopened.graph(s) == original.graph(s)` including the derived arrays —
//! and re-serializing a reopened snapshot reproduces its bytes.

use crate::codec::{fnv64_words, Reader, Writer};
use mvrc_btp::{
    FkConstraint, LinearFkConstraint, LinearProgram, Program, ProgramExpr, Statement,
    StatementKind, StmtId, UnfoldOptions, Workload,
};
use mvrc_robustness::{
    AnalysisSettings, CycleCondition, EdgeKind, Granularity, RobustnessSession, SummaryEdge,
    SummaryGraph, SummaryGraphDerived,
};
use mvrc_schema::{AttrSet, FkId, RelId, Schema, SchemaBuilder};
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// The 8-byte magic at offset 0 of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"MVRCSNAP";

/// The snapshot format version (header offset 8): written by every save, and the only version
/// this build opens.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 5;

/// The header length in bytes; payload offsets are relative to it.
const HEADER_LEN: usize = 20;

/// Errors produced by snapshot encoding, decoding and file I/O.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Reading or writing the snapshot file failed.
    Io {
        /// The path involved.
        path: String,
        /// The underlying error message.
        message: String,
    },
    /// The file does not start with [`SNAPSHOT_MAGIC`] — not a snapshot at all.
    BadMagic,
    /// The file's format version is not [`SNAPSHOT_FORMAT_VERSION`].
    UnsupportedVersion {
        /// The version found in the header.
        found: u32,
    },
    /// The payload does not hash to the header's fingerprint (truncation or corruption).
    FingerprintMismatch {
        /// The fingerprint that was expected.
        expected: u64,
        /// The fingerprint that was found.
        found: u64,
    },
    /// The payload is structurally invalid (truncated, out-of-range ids, …).
    Corrupt(String),
    /// The session does not fit the format: a length, statement position or node id exceeds
    /// the `u32` field that holds it.
    TooLarge {
        /// The first value that did not fit.
        value: usize,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io { path, message } => write!(f, "snapshot io `{path}`: {message}"),
            SnapshotError::BadMagic => f.write_str("not a snapshot file (bad magic)"),
            SnapshotError::UnsupportedVersion { found } => write!(
                f,
                "unsupported snapshot format version {found} (this build reads version \
                 {SNAPSHOT_FORMAT_VERSION}; rebuild the snapshot)"
            ),
            SnapshotError::FingerprintMismatch { expected, found } => write!(
                f,
                "workload fingerprint mismatch: expected {expected:016x}, found {found:016x}"
            ),
            SnapshotError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
            SnapshotError::TooLarge { value } => write!(
                f,
                "session too large for a snapshot: {value} exceeds a u32 length or index field"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<String> for SnapshotError {
    fn from(message: String) -> Self {
        SnapshotError::Corrupt(message)
    }
}

/// Persistence entry points on [`RobustnessSession`], so call sites read
/// `session.save_snapshot(path)` / `RobustnessSession::open_snapshot(path)`.
pub trait SessionSnapshotExt: Sized {
    /// Serializes the session (workload, LTPs, cached graphs) to `path`, returning the
    /// workload fingerprint stamped into the header.
    fn save_snapshot(&self, path: impl AsRef<Path>) -> Result<u64, SnapshotError>;

    /// Deserializes a session from `path`, returning it together with the verified
    /// fingerprint. No unfolding and no Algorithm 1 edge derivation runs.
    fn open_snapshot(path: impl AsRef<Path>) -> Result<(Self, u64), SnapshotError>;
}

impl SessionSnapshotExt for RobustnessSession {
    fn save_snapshot(&self, path: impl AsRef<Path>) -> Result<u64, SnapshotError> {
        save_snapshot(self, path)
    }

    fn open_snapshot(path: impl AsRef<Path>) -> Result<(Self, u64), SnapshotError> {
        open_snapshot(path)
    }
}

/// Serializes a session into snapshot bytes (header + payload). Fails with
/// [`SnapshotError::TooLarge`] when a length, statement position or node id does not fit the
/// format's `u32` fields.
pub fn snapshot_to_bytes(session: &RobustnessSession) -> Result<Vec<u8>, SnapshotError> {
    let mut payload = Writer::new();
    encode_workload(&mut payload, session.workload());
    let ltps = session.ltps();
    payload.len(ltps.len());
    for ltp in ltps {
        encode_ltp(&mut payload, ltp);
    }
    let graphs = session.cached_graphs();
    payload.len(graphs.len());
    for graph in &graphs {
        encode_graph(&mut payload, graph);
    }
    let payload = payload
        .into_bytes()
        .map_err(|value| SnapshotError::TooLarge { value })?;

    let mut bytes = Vec::with_capacity(20 + payload.len());
    bytes.extend_from_slice(&SNAPSHOT_MAGIC);
    bytes.extend_from_slice(&SNAPSHOT_FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&fnv64_words(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);
    Ok(bytes)
}

/// Cache of decoded LTP-list sections, keyed by their exact encoded byte span.
///
/// The graph section re-encodes each graph's node LTPs in full, and the cached graphs of a
/// session overlap heavily: the FK-on and FK-off graphs at one granularity share the same
/// (possibly widened) node set, and the attribute-granularity nodes are usually the session
/// LTP section verbatim. A typical 4-graph snapshot therefore carries only *two* distinct
/// node encodings, and the encoding is canonical (equal values ⇔ equal bytes), so a section
/// whose upcoming bytes equal an already-decoded span can skip the parse — and with it every
/// per-statement validation — and hand out the *same* decoded nodes by reference:
/// [`SummaryGraph`] nodes are `Arc`-shared, so every graph entry after the first match costs
/// reference-count bumps, not a deep clone. The session LTP section is decoded into `Arc`s
/// too and seeds the cache, so attribute-granularity graphs share the session's LTPs.
struct NodeSectionCache<'a> {
    entries: Vec<(&'a [u8], Vec<Arc<LinearProgram>>)>,
}

/// Validates the 20-byte header and the payload fingerprint, returning the fingerprint.
fn check_header(bytes: &[u8]) -> Result<u64, SnapshotError> {
    if bytes.len() < HEADER_LEN {
        return Err(SnapshotError::Corrupt(format!(
            "file too short for a snapshot header ({} bytes)",
            bytes.len()
        )));
    }
    if bytes[0..8] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != SNAPSHOT_FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion { found: version });
    }
    let stamped = u64::from_le_bytes(bytes[12..HEADER_LEN].try_into().unwrap());
    let actual = fnv64_words(&bytes[HEADER_LEN..]);
    if stamped != actual {
        return Err(SnapshotError::FingerprintMismatch {
            expected: stamped,
            found: actual,
        });
    }
    Ok(actual)
}

/// Decodes a header-checked snapshot's payload into a session; `bytes` is the whole file
/// (header included).
fn decode_session(bytes: &[u8]) -> Result<RobustnessSession, SnapshotError> {
    let payload = &bytes[HEADER_LEN..];
    let mut r = Reader::new(payload);
    let workload = decode_workload(&mut r)?;
    let ltp_section_start = r.position();
    let ltp_count = r.len()?;
    let mut ltps = Vec::with_capacity(ltp_count);
    for _ in 0..ltp_count {
        ltps.push(Arc::new(decode_ltp(&mut r, &workload.schema)?));
    }
    let ltp_section = &payload[ltp_section_start..r.position()];
    let graph_count = r.len()?;
    let mut graphs = Vec::with_capacity(graph_count);
    // Seed the node cache with the session LTP section: attribute-granularity graphs
    // usually re-encode it verbatim, and granularity-mates share node sets with each other.
    let mut node_cache = NodeSectionCache {
        entries: vec![(ltp_section, ltps.clone())],
    };
    for _ in 0..graph_count {
        graphs.push(decode_graph(&mut r, &workload.schema, &mut node_cache)?);
    }
    if !r.is_at_end() {
        return Err(SnapshotError::Corrupt(
            "trailing bytes after the last section".to_string(),
        ));
    }
    Ok(RobustnessSession::from_snapshot_parts(
        workload, ltps, graphs,
    ))
}

/// Deserializes a session from snapshot bytes, returning it with the verified fingerprint.
/// The one snapshot decoder: [`open_snapshot`] reads a file and calls it.
pub fn session_from_snapshot_bytes(
    bytes: &[u8],
) -> Result<(RobustnessSession, u64), SnapshotError> {
    let fingerprint = check_header(bytes)?;
    Ok((decode_session(bytes)?, fingerprint))
}

/// [`SessionSnapshotExt::save_snapshot`] as a free function.
pub fn save_snapshot(
    session: &RobustnessSession,
    path: impl AsRef<Path>,
) -> Result<u64, SnapshotError> {
    let path = path.as_ref();
    let bytes = snapshot_to_bytes(session)?;
    let fingerprint = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    std::fs::write(path, &bytes).map_err(|e| SnapshotError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })?;
    Ok(fingerprint)
}

/// [`SessionSnapshotExt::open_snapshot`] as a free function.
///
/// The warm-start path: reads the file and decodes it with [`session_from_snapshot_bytes`].
/// Every graph's in-adjacency and reachability arrays come from the file — no edge
/// derivation, no closure computation.
pub fn open_snapshot(path: impl AsRef<Path>) -> Result<(RobustnessSession, u64), SnapshotError> {
    let path = path.as_ref();
    let bytes = std::fs::read(path).map_err(|e| SnapshotError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })?;
    session_from_snapshot_bytes(&bytes)
}

// ---------------------------------------------------------------------------
// Workload section
// ---------------------------------------------------------------------------

fn encode_workload(w: &mut Writer, workload: &Workload) {
    w.str(&workload.name);
    encode_schema(w, &workload.schema);
    w.len(workload.programs.len());
    for program in &workload.programs {
        encode_program(w, program);
    }
    w.len(workload.abbreviations.len());
    for (name, abbrev) in &workload.abbreviations {
        w.str(name);
        w.str(abbrev);
    }
    w.u32(u32::try_from(workload.unfold.max_loop_iterations).unwrap_or(u32::MAX));
    w.bool(workload.unfold.deduplicate);
}

fn decode_workload(r: &mut Reader<'_>) -> Result<Workload, SnapshotError> {
    let name = r.str()?;
    let schema = decode_schema(r)?;
    let program_count = r.len()?;
    let mut programs = Vec::with_capacity(program_count);
    for _ in 0..program_count {
        programs.push(decode_program(r, &schema)?);
    }
    let abbrev_count = r.len()?;
    let mut abbreviations = Vec::with_capacity(abbrev_count);
    for _ in 0..abbrev_count {
        let program = r.str()?;
        let abbrev = r.str()?;
        abbreviations.push((program, abbrev));
    }
    let max_loop_iterations = r.u32()? as usize;
    let deduplicate = r.bool()?;

    let mut workload = Workload::new(name, schema, programs, &[]);
    workload.abbreviations = abbreviations;
    Ok(workload.with_unfold_options(UnfoldOptions {
        max_loop_iterations,
        deduplicate,
    }))
}

fn encode_schema(w: &mut Writer, schema: &Schema) {
    w.str(schema.name());
    w.len(schema.relation_count());
    for rel in schema.relations() {
        w.str(rel.name());
        w.len(rel.attribute_count());
        for attr in rel.attr_names() {
            w.str(attr);
        }
        let pk: Vec<u8> = rel.primary_key().iter().map(|a| a.0).collect();
        w.len(pk.len());
        for idx in pk {
            w.u8(idx);
        }
    }
    w.len(schema.foreign_key_count());
    for fk in schema.foreign_keys() {
        w.str(fk.name());
        w.u16(fk.dom().0);
        w.u16(fk.range().0);
        let pairs: Vec<(u8, u8)> = fk.attr_pairs().map(|(d, rng)| (d.0, rng.0)).collect();
        w.len(pairs.len());
        for (dom_attr, range_attr) in pairs {
            w.u8(dom_attr);
            w.u8(range_attr);
        }
    }
}

fn decode_schema(r: &mut Reader<'_>) -> Result<Schema, SnapshotError> {
    let name = r.str()?;
    let mut builder = SchemaBuilder::new(name);

    // Relations are rebuilt through the builder, which re-validates and reassigns the same
    // sequential ids the encoder observed.
    let rel_count = r.len()?;
    let mut rel_attr_names: Vec<Vec<String>> = Vec::with_capacity(rel_count);
    for _ in 0..rel_count {
        let rel_name = r.str()?;
        let attr_count = r.len()?;
        let mut attrs = Vec::with_capacity(attr_count);
        for _ in 0..attr_count {
            attrs.push(r.str()?);
        }
        let pk_count = r.len()?;
        let mut pk = Vec::with_capacity(pk_count);
        for _ in 0..pk_count {
            let idx = r.u8()? as usize;
            let attr = attrs.get(idx).ok_or_else(|| {
                SnapshotError::Corrupt(format!(
                    "primary-key attribute index {idx} out of range for relation `{rel_name}`"
                ))
            })?;
            pk.push(attr.clone());
        }
        let attr_refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
        let pk_refs: Vec<&str> = pk.iter().map(String::as_str).collect();
        builder
            .relation(&rel_name, &attr_refs, &pk_refs)
            .map_err(|e| SnapshotError::Corrupt(format!("invalid relation `{rel_name}`: {e}")))?;
        rel_attr_names.push(attrs);
    }

    let fk_count = r.len()?;
    for _ in 0..fk_count {
        let fk_name = r.str()?;
        let dom = r.u16()? as usize;
        let range = r.u16()? as usize;
        let pair_count = r.len()?;
        let mut dom_attrs = Vec::with_capacity(pair_count);
        let mut range_attrs = Vec::with_capacity(pair_count);
        for _ in 0..pair_count {
            let d = r.u8()? as usize;
            let g = r.u8()? as usize;
            let resolve = |rel: usize, attr: usize| -> Result<&str, SnapshotError> {
                rel_attr_names
                    .get(rel)
                    .and_then(|attrs| attrs.get(attr))
                    .map(String::as_str)
                    .ok_or_else(|| {
                        SnapshotError::Corrupt(format!(
                            "foreign key `{fk_name}` references relation {rel} attribute {attr} out of range"
                        ))
                    })
            };
            dom_attrs.push(resolve(dom, d)?.to_string());
            range_attrs.push(resolve(range, g)?.to_string());
        }
        let dom_refs: Vec<&str> = dom_attrs.iter().map(String::as_str).collect();
        let range_refs: Vec<&str> = range_attrs.iter().map(String::as_str).collect();
        builder
            .foreign_key(
                &fk_name,
                RelId(dom as u16),
                &dom_refs,
                RelId(range as u16),
                &range_refs,
            )
            .map_err(|e| SnapshotError::Corrupt(format!("invalid foreign key `{fk_name}`: {e}")))?;
    }
    Ok(builder.build())
}

fn encode_statement(w: &mut Writer, stmt: &Statement) {
    w.str(stmt.name());
    w.u16(stmt.rel().0);
    w.u8(stmt.kind().table_index() as u8);
    w.opt_u64(stmt.pread_set().map(AttrSet::bits));
    w.opt_u64(stmt.read_set().map(AttrSet::bits));
    w.opt_u64(stmt.write_set().map(AttrSet::bits));
}

fn decode_statement(r: &mut Reader<'_>, schema: &Schema) -> Result<Statement, SnapshotError> {
    let name = r.str()?;
    let rel_idx = r.u16()? as usize;
    if rel_idx >= schema.relation_count() {
        return Err(SnapshotError::Corrupt(format!(
            "statement `{name}` references relation {rel_idx} of {}",
            schema.relation_count()
        )));
    }
    let kind_idx = r.u8()? as usize;
    let kind: StatementKind = *StatementKind::ALL.get(kind_idx).ok_or_else(|| {
        SnapshotError::Corrupt(format!("statement `{name}` has invalid kind {kind_idx}"))
    })?;
    let pread = r.opt_u64()?.map(AttrSet::from_bits);
    let read = r.opt_u64()?.map(AttrSet::from_bits);
    let write = r.opt_u64()?.map(AttrSet::from_bits);
    Statement::new(
        name.as_str(),
        schema.relation(RelId(rel_idx as u16)),
        kind,
        pread,
        read,
        write,
    )
    .map_err(|e| SnapshotError::Corrupt(format!("invalid statement `{name}`: {e}")))
}

fn encode_expr(w: &mut Writer, expr: &ProgramExpr) {
    match expr {
        ProgramExpr::Statement(id) => {
            w.u8(0);
            w.u16(id.0);
        }
        ProgramExpr::Seq(parts) => {
            w.u8(1);
            w.len(parts.len());
            for part in parts {
                encode_expr(w, part);
            }
        }
        ProgramExpr::Choice(a, b) => {
            w.u8(2);
            encode_expr(w, a);
            encode_expr(w, b);
        }
        ProgramExpr::Optional(a) => {
            w.u8(3);
            encode_expr(w, a);
        }
        ProgramExpr::Loop(a) => {
            w.u8(4);
            encode_expr(w, a);
        }
        ProgramExpr::Empty => w.u8(5),
    }
}

fn decode_expr(
    r: &mut Reader<'_>,
    statements: usize,
    depth: usize,
) -> Result<ProgramExpr, SnapshotError> {
    if depth > 64 {
        return Err(SnapshotError::Corrupt(
            "program expression nests deeper than 64 levels".to_string(),
        ));
    }
    Ok(match r.u8()? {
        0 => {
            let id = r.u16()?;
            if (id as usize) >= statements {
                return Err(SnapshotError::Corrupt(format!(
                    "expression references statement {id} of {statements}"
                )));
            }
            ProgramExpr::Statement(StmtId(id))
        }
        1 => {
            let count = r.len()?;
            let mut parts = Vec::with_capacity(count);
            for _ in 0..count {
                parts.push(decode_expr(r, statements, depth + 1)?);
            }
            ProgramExpr::Seq(parts)
        }
        2 => {
            let a = decode_expr(r, statements, depth + 1)?;
            let b = decode_expr(r, statements, depth + 1)?;
            ProgramExpr::choice(a, b)
        }
        3 => ProgramExpr::optional(decode_expr(r, statements, depth + 1)?),
        4 => ProgramExpr::looped(decode_expr(r, statements, depth + 1)?),
        5 => ProgramExpr::Empty,
        other => {
            return Err(SnapshotError::Corrupt(format!(
                "invalid expression tag {other}"
            )))
        }
    })
}

fn encode_program(w: &mut Writer, program: &Program) {
    w.str(program.name());
    w.len(program.statement_count());
    for (_, stmt) in program.statements() {
        encode_statement(w, stmt);
    }
    encode_expr(w, program.body());
    w.len(program.fk_constraints().len());
    for c in program.fk_constraints() {
        w.u16(c.fk.0);
        w.u16(c.dom_stmt.0);
        w.u16(c.range_stmt.0);
    }
}

fn decode_program(r: &mut Reader<'_>, schema: &Schema) -> Result<Program, SnapshotError> {
    let name = r.str()?;
    let stmt_count = r.len()?;
    let mut statements = Vec::with_capacity(stmt_count);
    for _ in 0..stmt_count {
        statements.push(decode_statement(r, schema)?);
    }
    let body = decode_expr(r, stmt_count, 0)?;
    let fkc_count = r.len()?;
    let mut fk_constraints = Vec::with_capacity(fkc_count);
    for _ in 0..fkc_count {
        let fk = r.u16()?;
        let dom_stmt = r.u16()?;
        let range_stmt = r.u16()?;
        if (fk as usize) >= schema.foreign_key_count()
            || (dom_stmt as usize) >= stmt_count
            || (range_stmt as usize) >= stmt_count
        {
            return Err(SnapshotError::Corrupt(format!(
                "program `{name}` has an out-of-range foreign-key constraint"
            )));
        }
        fk_constraints.push(FkConstraint {
            fk: FkId(fk),
            dom_stmt: StmtId(dom_stmt),
            range_stmt: StmtId(range_stmt),
        });
    }
    // Statement ids are 16 bits: `from_parts` refuses a program that would alias its statements.
    Program::from_parts(name, statements, body, fk_constraints)
        .map_err(|e| SnapshotError::Corrupt(e.to_string()))
}

// ---------------------------------------------------------------------------
// LTP and graph sections
// ---------------------------------------------------------------------------

fn encode_ltp(w: &mut Writer, ltp: &LinearProgram) {
    w.str(ltp.name());
    w.str(ltp.program_name());
    w.len(ltp.len());
    for (_, stmt) in ltp.statements() {
        encode_statement(w, stmt);
    }
    for pos in 0..ltp.len() {
        w.u16(ltp.origin(pos).0);
    }
    w.len(ltp.fk_constraints().len());
    for c in ltp.fk_constraints() {
        w.u16(c.fk.0);
        w.len(c.dom_pos);
        w.len(c.range_pos);
    }
}

fn decode_ltp(r: &mut Reader<'_>, schema: &Schema) -> Result<LinearProgram, SnapshotError> {
    let name = r.str()?;
    let program_name = r.str()?;
    let stmt_count = r.len()?;
    let mut statements = Vec::with_capacity(stmt_count);
    for _ in 0..stmt_count {
        statements.push(decode_statement(r, schema)?);
    }
    let mut origins = Vec::with_capacity(stmt_count);
    for _ in 0..stmt_count {
        origins.push(StmtId(r.u16()?));
    }
    let fkc_count = r.len()?;
    let mut fk_constraints = Vec::with_capacity(fkc_count);
    for _ in 0..fkc_count {
        let fk = r.u16()?;
        let dom_pos = r.u32()? as usize;
        let range_pos = r.u32()? as usize;
        if (fk as usize) >= schema.foreign_key_count()
            || dom_pos >= stmt_count
            || range_pos >= stmt_count
        {
            return Err(SnapshotError::Corrupt(format!(
                "LTP `{name}` has an out-of-range foreign-key constraint"
            )));
        }
        fk_constraints.push(LinearFkConstraint {
            fk: FkId(fk),
            dom_pos,
            range_pos,
        });
    }
    Ok(LinearProgram::new(
        name,
        program_name,
        statements,
        origins,
        fk_constraints,
    ))
}

fn encode_settings(w: &mut Writer, settings: AnalysisSettings) {
    w.u8(match settings.granularity {
        Granularity::Attribute => 0,
        Granularity::Tuple => 1,
    });
    w.bool(settings.use_foreign_keys);
    w.u8(match settings.condition {
        CycleCondition::TypeI => 0,
        CycleCondition::TypeII => 1,
    });
}

fn decode_settings(r: &mut Reader<'_>) -> Result<AnalysisSettings, SnapshotError> {
    let granularity = match r.u8()? {
        0 => Granularity::Attribute,
        1 => Granularity::Tuple,
        other => {
            return Err(SnapshotError::Corrupt(format!(
                "invalid granularity byte {other}"
            )))
        }
    };
    let use_foreign_keys = r.bool()?;
    let condition = match r.u8()? {
        0 => CycleCondition::TypeI,
        1 => CycleCondition::TypeII,
        other => {
            return Err(SnapshotError::Corrupt(format!(
                "invalid cycle-condition byte {other}"
            )))
        }
    };
    Ok(AnalysisSettings {
        granularity,
        use_foreign_keys,
        condition,
    })
}

fn encode_graph(w: &mut Writer, graph: &SummaryGraph) {
    encode_settings(w, graph.settings());
    w.len(graph.node_count());
    for (_, ltp) in graph.nodes() {
        encode_ltp(w, ltp);
    }
    w.len(graph.edge_count());
    for edge in graph.edges() {
        w.u32(edge.from);
        w.u32(edge.from_stmt);
        w.u8(u8::from(edge.kind.is_counterflow()));
        w.u32(edge.to_stmt);
        w.u32(edge.to);
    }
    // The derived arrays (forces derivation, which is idempotent and deterministic —
    // re-serializing a reopened snapshot reproduces the words bit for bit). Lengths are
    // implied by the node/edge counts above; see the module docs for the layout.
    let (in_offsets, in_targets) = graph.in_adjacency();
    let (_, reach_bits) = graph.reachability_words();
    w.u32_slice(in_offsets);
    w.u32_slice(in_targets);
    w.u64_slice(reach_bits);
}

fn decode_graph<'a>(
    r: &mut Reader<'a>,
    schema: &Schema,
    node_cache: &mut NodeSectionCache<'a>,
) -> Result<SummaryGraph, SnapshotError> {
    let settings = decode_settings(r)?;
    // The node section (count prefix + LTPs): if its bytes equal an already-decoded span,
    // skip the parse and share the decoded list — the encoding is canonical, so equal bytes
    // decode to equal nodes, and a matched span consumes exactly as many bytes as it did the
    // first time it was decoded.
    let node_section_start = r.position();
    let rest = r.remaining();
    let cached = node_cache
        .entries
        .iter()
        .position(|(span, _)| rest.starts_with(span));
    let nodes = match cached {
        Some(at) => {
            let (span, nodes) = &node_cache.entries[at];
            r.skip_raw(span.len())?;
            nodes.clone()
        }
        None => {
            let node_count = r.len()?;
            let mut nodes = Vec::with_capacity(node_count);
            for _ in 0..node_count {
                nodes.push(Arc::new(decode_ltp(r, schema)?));
            }
            let span = &rest[..r.position() - node_section_start];
            // The clone below is `node_count` reference-count bumps, not a re-decode.
            node_cache.entries.push((span, nodes.clone()));
            nodes
        }
    };
    let edge_count = r.len()?;
    let mut edges = Vec::with_capacity(edge_count);
    for _ in 0..edge_count {
        let from = r.u32()?;
        let from_stmt = r.u32()?;
        let kind = match r.u8()? {
            0 => EdgeKind::NonCounterflow,
            1 => EdgeKind::Counterflow,
            other => {
                return Err(SnapshotError::Corrupt(format!(
                    "invalid edge kind byte {other}"
                )))
            }
        };
        let to_stmt = r.u32()?;
        let to = r.u32()?;
        edges.push(SummaryEdge {
            from,
            from_stmt,
            kind,
            to_stmt,
            to,
        });
    }

    // `from_snapshot_parts_with_derived` range-checks the edges, checks their order and counts
    // the out-adjacency offsets, in one pass.
    let n = nodes.len();
    let reach_len = n * n.div_ceil(64).max(1);
    let parts = SummaryGraphDerived {
        in_offsets: r.u32_slice(n + 1)?,
        in_targets: r.u32_slice(edge_count)?,
        reach_bits: r.u64_slice(reach_len)?,
    };
    SummaryGraph::from_snapshot_parts_with_derived(nodes, edges, settings, parts)
        .map_err(SnapshotError::Corrupt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvrc_benchmarks::{auction, smallbank, tpcc};
    use mvrc_btp::MAX_PROGRAM_STATEMENTS;

    fn warm_session(workload: Workload) -> RobustnessSession {
        let session = RobustnessSession::new(workload);
        for condition in [CycleCondition::TypeII, CycleCondition::TypeI] {
            for settings in AnalysisSettings::evaluation_grid(condition) {
                session.is_robust(settings);
            }
        }
        session
    }

    #[test]
    fn snapshot_round_trips_the_paper_benchmarks_bit_identically() {
        for workload in [smallbank(), tpcc(), auction()] {
            let session = warm_session(workload);
            let bytes = snapshot_to_bytes(&session).unwrap();
            let before = SummaryGraph::constructions_on_current_thread();
            let (reopened, fingerprint) = session_from_snapshot_bytes(&bytes).unwrap();
            assert_eq!(
                SummaryGraph::constructions_on_current_thread(),
                before,
                "opening a snapshot must not run Algorithm 1"
            );
            assert_ne!(fingerprint, 0);
            assert_eq!(reopened.workload().name, session.workload().name);
            assert_eq!(reopened.program_names(), session.program_names());
            assert_eq!(reopened.ltps(), session.ltps());
            assert_eq!(reopened.cached_graph_count(), 4);
            for settings in AnalysisSettings::evaluation_grid(CycleCondition::TypeII) {
                assert_eq!(
                    *reopened.graph(settings),
                    *session.graph(settings),
                    "graph arrays must round-trip bit-identically"
                );
            }
            // Canonical encoding: re-serializing the reopened session reproduces the bytes.
            assert_eq!(snapshot_to_bytes(&reopened).unwrap(), bytes);
        }
    }

    #[test]
    fn header_corruption_is_rejected() {
        let session = warm_session(auction());
        let bytes = snapshot_to_bytes(&session).unwrap();

        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xff;
        assert_eq!(
            session_from_snapshot_bytes(&bad_magic).unwrap_err(),
            SnapshotError::BadMagic
        );

        let mut bad_version = bytes.clone();
        bad_version[8] = 99;
        assert!(matches!(
            session_from_snapshot_bytes(&bad_version).unwrap_err(),
            SnapshotError::UnsupportedVersion { found: 99 }
        ));

        let mut flipped_payload = bytes.clone();
        let last = flipped_payload.len() - 1;
        flipped_payload[last] ^= 0x01;
        assert!(matches!(
            session_from_snapshot_bytes(&flipped_payload).unwrap_err(),
            SnapshotError::FingerprintMismatch { .. }
        ));

        assert!(matches!(
            session_from_snapshot_bytes(&bytes[..10]).unwrap_err(),
            SnapshotError::Corrupt(_)
        ));

        // Truncating the payload while restamping the fingerprint: structural error.
        let mut truncated = bytes[..bytes.len() - 4].to_vec();
        let fp = fnv64_words(&truncated[20..]);
        truncated[12..20].copy_from_slice(&fp.to_le_bytes());
        assert!(matches!(
            session_from_snapshot_bytes(&truncated).unwrap_err(),
            SnapshotError::Corrupt(_)
        ));
    }

    #[test]
    fn a_program_of_more_statements_than_ids_is_corrupt() {
        // A well-formed program record of 65,537 copies of one statement, an empty body and no
        // foreign-key constraints: decodable in every part but its statement count.
        let workload = auction();
        let stmt = workload.programs[0].statements().next().unwrap().1;
        let encode = |count: usize| {
            let mut w = Writer::new();
            w.str("P");
            w.len(count);
            for _ in 0..count {
                encode_statement(&mut w, stmt);
            }
            encode_expr(&mut w, &ProgramExpr::Empty);
            w.len(0);
            w.into_bytes().unwrap()
        };
        let decode = |bytes: &[u8]| decode_program(&mut Reader::new(bytes), &workload.schema);

        let at_limit = decode(&encode(MAX_PROGRAM_STATEMENTS)).unwrap();
        assert_eq!(at_limit.statement_count(), MAX_PROGRAM_STATEMENTS);
        match decode(&encode(MAX_PROGRAM_STATEMENTS + 1)).unwrap_err() {
            SnapshotError::Corrupt(msg) => assert!(msg.contains("65537 statements"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn io_errors_carry_the_path() {
        let err = open_snapshot("/definitely/not/here.mvrcsnap").unwrap_err();
        match err {
            SnapshotError::Io { path, .. } => assert!(path.contains("not/here")),
            other => panic!("expected Io error, got {other:?}"),
        }
    }
}
