//! The snapshot layer: a versioned, self-describing binary format persisting a
//! [`RobustnessSession`] — its [`Workload`], the unfolded LTPs, every cached
//! [`SummaryGraph`] and the sweep cache — so another process can answer robustness queries
//! without re-unfolding the workload, re-deriving a single Algorithm 1 edge or recomputing a
//! single closure word.
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
//! | 8      | 4    | format version, `u32` LE ([`SNAPSHOT_FORMAT_VERSION`], currently 3) |
//! | 12     | 8    | workload fingerprint, `u64` LE — FNV-1a over the payload |
//! | 20     | …    | payload: workload section, LTP section, graph section, sweep section |
//!
//! The payload encoding is *canonical* (fixed-width integers, length-prefixed lists, no maps
//! in nondeterministic order, only the zero-filled alignment padding of the derived blocks),
//! so the fingerprint doubles as a content identity: the shard protocol of [`crate::shard`]
//! stamps it into plans and verdict files, and refuses to merge artifacts whose fingerprints
//! disagree. Every open recomputes the FNV over the payload and rejects any header/payload
//! mismatch, which catches truncation and bit flips. The fingerprint is the word-lane variant
//! of FNV-1a (chained over `u64` LE lanes, one multiply per eight bytes): payloads carry whole
//! derived arrays, and a byte-chained hash would cost more than the decode it guards.
//!
//! # Graph section
//!
//! Per cached granularity/foreign-key combination, the graph section stores the widened LTP
//! nodes, the complete Algorithm 1 edge list and an alignment-padded block of the graph's
//! *derived* arrays — the compressed-sparse-row adjacency and the word-parallel reachability
//! closure. After the edge list, each graph encodes:
//!
//! | field | encoding |
//! |-------|----------|
//! | padding | zero bytes until the absolute file offset is 8-byte aligned |
//! | out-CSR | `n + 1` offset `u32`s, then `E` target `u32`s (edge indices grouped by source) |
//! | in-CSR | `n + 1` offset `u32`s, then `E` target `u32`s (edge indices grouped by target) |
//! | reachability | `n · max(⌈n/64⌉, 1)` row-major `u64` closure words |
//!
//! All lengths are implied by the entry's node and edge counts (no prefixes), and the `u32`
//! count is always even, so the `u64` closure words land 8-byte aligned too. The alignment is
//! what makes the block *mappable*: [`open_snapshot`] reads the file into one 8-byte-aligned
//! buffer ([`crate::mmap::SnapshotMap`]) and installs each graph's arrays as **zero-copy
//! borrowed slabs** over that buffer ([`SummaryGraph::from_snapshot_parts_with_derived`]) —
//! a warm start performs no per-element decode, no edge derivation, no adjacency build and no
//! closure computation, verified in tests via the construction and closure counters. The
//! adjacency arrays are structurally validated against the edge list on open (bit-identity
//! with a fresh derivation is forced); the closure words are covered by the fingerprint. The
//! round-trip is **bit-identical** on every graph array — `reopened.graph(s) ==
//! original.graph(s)` including the derived arrays — and re-serializing a reopened snapshot
//! reproduces its bytes.
//!
//! [`session_from_snapshot_bytes`] — the byte-slice entry point, also the only path on
//! big-endian hosts — decodes the same block into owned arrays instead of borrowing.
//!
//! # Sweep section
//!
//! The last section holds the session's **sweep cache** — the verdict bitsets incremental
//! subset sweeps reuse across workload edits ([`mvrc_robustness::CachedSweep`]). It is a
//! length-prefixed list of entries, each encoding:
//!
//! | field | encoding |
//! |-------|----------|
//! | analysis settings | granularity byte, foreign-key bool, condition byte |
//! | programs | `u32` count, then per program a string name and a `u64` structural fingerprint |
//! | robust bitset | `u32` word count (`⌈2^n / 64⌉` for `n` programs), then the `u64` words |

#![forbid(unsafe_code)]

use crate::codec::{fnv64_words, Reader, Writer};
use crate::mmap::SnapshotMap;
use mvrc_btp::{
    FkConstraint, LinearFkConstraint, LinearProgram, Program, ProgramExpr, Statement,
    StatementKind, StmtId, UnfoldOptions, Workload,
};
use mvrc_robustness::{
    AnalysisSettings, CachedSweep, CycleCondition, EdgeKind, Granularity, RobustnessSession,
    SummaryEdge, SummaryGraph, SummaryGraphDerived, U32Slab, U64Slab, MAX_SWEEP_PROGRAMS,
};
use mvrc_schema::{AttrSet, FkId, RelId, Schema, SchemaBuilder};
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// The 8-byte magic at offset 0 of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"MVRCSNAP";

/// The snapshot format version (header offset 8): written by every save, and the only version
/// this build opens.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 3;

/// The header length in bytes; payload offsets are relative to it, and the derived blocks are
/// padded to absolute (header-inclusive) 8-byte alignment.
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
    /// The fingerprint check failed: either the payload does not hash to the header's
    /// fingerprint (corruption), or the caller expected a different workload.
    FingerprintMismatch {
        /// The fingerprint that was expected.
        expected: u64,
        /// The fingerprint that was found.
        found: u64,
    },
    /// The payload is structurally invalid (truncated, out-of-range ids, …).
    Corrupt(String),
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

/// Serializes a session into snapshot bytes (header + payload).
pub fn snapshot_to_bytes(session: &RobustnessSession) -> Vec<u8> {
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
    let sweeps = session.cached_sweeps();
    payload.len(sweeps.len());
    for (settings, sweep) in &sweeps {
        encode_cached_sweep(&mut payload, *settings, sweep);
    }
    let payload = payload.into_bytes();

    let mut bytes = Vec::with_capacity(20 + payload.len());
    bytes.extend_from_slice(&SNAPSHOT_MAGIC);
    bytes.extend_from_slice(&SNAPSHOT_FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&fnv64_words(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);
    bytes
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
/// reference-count bumps, not a deep clone. The session LTP section is seeded borrowed and
/// upgraded to an `Arc` list the first time a graph entry actually matches it, so opens whose
/// graphs all use widened (tuple-granularity) nodes never pay the conversion.
struct NodeSectionCache<'a, 'l> {
    entries: Vec<(&'a [u8], NodeSource<'l>)>,
}

enum NodeSource<'l> {
    /// The session LTP section — borrowed; converted to an `Arc` list on first use.
    Borrowed(&'l [LinearProgram]),
    /// An `Arc`-shared node list decoded from an earlier graph entry (or upgraded from the
    /// session LTP section).
    Shared(Vec<Arc<LinearProgram>>),
}

impl NodeSource<'_> {
    /// The decoded nodes as an `Arc` list, upgrading a borrowed source in place so the
    /// deep clone happens at most once per distinct node section.
    fn arcs(&mut self) -> Vec<Arc<LinearProgram>> {
        match self {
            NodeSource::Borrowed(ltps) => {
                let arcs: Vec<Arc<LinearProgram>> =
                    ltps.iter().map(|l| Arc::new(l.clone())).collect();
                *self = NodeSource::Shared(arcs.clone());
                arcs
            }
            NodeSource::Shared(arcs) => arcs.clone(),
        }
    }
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

/// Decodes a header-checked snapshot's payload into a session. `mapped` selects the
/// zero-copy path for the derived blocks (`None` decodes them into owned arrays); `bytes` is
/// the whole file (header included), and must be the mapping's own bytes when `mapped` is
/// `Some`.
fn decode_session(
    bytes: &[u8],
    mapped: Option<&Arc<SnapshotMap>>,
) -> Result<RobustnessSession, SnapshotError> {
    let payload = &bytes[HEADER_LEN..];
    let mut r = Reader::new(payload);
    let workload = decode_workload(&mut r)?;
    let ltp_section_start = r.position();
    let ltp_count = r.len()?;
    let mut ltps = Vec::with_capacity(ltp_count);
    for _ in 0..ltp_count {
        ltps.push(decode_ltp(&mut r, &workload.schema)?);
    }
    let ltp_section = &payload[ltp_section_start..r.position()];
    let graph_count = r.len()?;
    let mut graphs = Vec::with_capacity(graph_count);
    // Seed the node cache with the session LTP section: attribute-granularity graphs
    // usually re-encode it verbatim, and granularity-mates share node sets with each other.
    let mut node_cache = NodeSectionCache {
        entries: vec![(ltp_section, NodeSource::Borrowed(&ltps))],
    };
    for _ in 0..graph_count {
        graphs.push(decode_graph(
            &mut r,
            &workload.schema,
            mapped,
            &mut node_cache,
        )?);
    }
    drop(node_cache);
    let sweep_count = r.len()?;
    let mut sweeps: Vec<(AnalysisSettings, CachedSweep)> = Vec::with_capacity(sweep_count);
    for _ in 0..sweep_count {
        sweeps.push(decode_cached_sweep(&mut r)?);
    }
    if !r.is_at_end() {
        return Err(SnapshotError::Corrupt(
            "trailing bytes after the last section".to_string(),
        ));
    }
    let session = RobustnessSession::from_snapshot_parts(workload, ltps, graphs);
    for (settings, sweep) in sweeps {
        session.install_cached_sweep(settings, sweep);
    }
    Ok(session)
}

/// Deserializes a session from snapshot bytes, returning it with the verified fingerprint.
///
/// Always produces a session with *owned* graph arrays (the slice has no stable owner to
/// borrow from); [`open_snapshot`] is the zero-copy path.
pub fn session_from_snapshot_bytes(
    bytes: &[u8],
) -> Result<(RobustnessSession, u64), SnapshotError> {
    let fingerprint = check_header(bytes)?;
    Ok((decode_session(bytes, None)?, fingerprint))
}

/// [`SessionSnapshotExt::save_snapshot`] as a free function.
pub fn save_snapshot(
    session: &RobustnessSession,
    path: impl AsRef<Path>,
) -> Result<u64, SnapshotError> {
    let path = path.as_ref();
    let bytes = snapshot_to_bytes(session);
    let fingerprint = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    std::fs::write(path, &bytes).map_err(|e| SnapshotError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })?;
    Ok(fingerprint)
}

/// [`SessionSnapshotExt::open_snapshot`] as a free function.
///
/// The warm-start path: the file is read once into an 8-byte-aligned [`SnapshotMap`] and, on
/// little-endian hosts, every graph's CSR adjacency and reachability arrays are installed as
/// zero-copy borrowed slabs over that mapping — no per-element decode, no edge derivation, no
/// closure computation. Big-endian hosts fall back to the owned decode of
/// [`session_from_snapshot_bytes`].
pub fn open_snapshot(path: impl AsRef<Path>) -> Result<(RobustnessSession, u64), SnapshotError> {
    let path = path.as_ref();
    let map = SnapshotMap::open(path).map_err(|e| SnapshotError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })?;
    let fingerprint = check_header(map.bytes())?;
    let map = Arc::new(map);
    let mapped = cfg!(target_endian = "little").then_some(&map);
    let session = decode_session(map.bytes(), mapped)?;
    Ok((session, fingerprint))
}

/// Opens a snapshot and additionally requires its fingerprint to equal `expected` — how shard
/// workers make sure the snapshot on disk is the one their plan was computed for.
pub fn open_snapshot_expecting(
    path: impl AsRef<Path>,
    expected: u64,
) -> Result<RobustnessSession, SnapshotError> {
    let (session, found) = open_snapshot(path)?;
    if found != expected {
        return Err(SnapshotError::FingerprintMismatch { expected, found });
    }
    Ok(session)
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
        &name,
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
    Ok(Program::from_parts(name, statements, body, fk_constraints))
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
        w.u32(u32::try_from(c.dom_pos).expect("LTP position exceeds u32"));
        w.u32(u32::try_from(c.range_pos).expect("LTP position exceeds u32"));
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
        w.u32(u32::try_from(edge.from).expect("node id exceeds u32"));
        w.u32(u32::try_from(edge.from_stmt).expect("statement position exceeds u32"));
        w.u8(u8::from(edge.kind.is_counterflow()));
        w.u32(u32::try_from(edge.to_stmt).expect("statement position exceeds u32"));
        w.u32(u32::try_from(edge.to).expect("node id exceeds u32"));
    }
    // The derived block (forces derivation, which is idempotent and deterministic —
    // re-serializing a reopened snapshot reproduces the words bit for bit). Lengths are
    // implied by the node/edge counts above; see the module docs for the layout.
    let (out_offsets, out_targets) = graph.out_adjacency();
    let (in_offsets, in_targets) = graph.in_adjacency();
    let (_, reach_bits) = graph.reachability_words();
    w.pad8(HEADER_LEN);
    w.u32_slice(out_offsets);
    w.u32_slice(out_targets);
    w.u32_slice(in_offsets);
    w.u32_slice(in_targets);
    debug_assert_eq!((HEADER_LEN + w.position()) % 8, 0, "even u32 count");
    w.u64_slice(reach_bits);
}

fn decode_graph<'a>(
    r: &mut Reader<'a>,
    schema: &Schema,
    mapped: Option<&Arc<SnapshotMap>>,
    node_cache: &mut NodeSectionCache<'a, '_>,
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
            let (span, source) = &mut node_cache.entries[at];
            let nodes = source.arcs();
            r.skip_raw(span.len())?;
            nodes
        }
        None => {
            let node_count = r.len()?;
            let mut nodes = Vec::with_capacity(node_count);
            for _ in 0..node_count {
                nodes.push(Arc::new(decode_ltp(r, schema)?));
            }
            let span = &rest[..r.position() - node_section_start];
            // The clone below is `node_count` reference-count bumps, not a re-decode.
            node_cache
                .entries
                .push((span, NodeSource::Shared(nodes.clone())));
            nodes
        }
    };
    let node_count = nodes.len();
    let edge_count = r.len()?;
    let mut edges = Vec::with_capacity(edge_count);
    for _ in 0..edge_count {
        let from = r.u32()? as usize;
        let from_stmt = r.u32()? as usize;
        let kind = match r.u8()? {
            0 => EdgeKind::NonCounterflow,
            1 => EdgeKind::Counterflow,
            other => {
                return Err(SnapshotError::Corrupt(format!(
                    "invalid edge kind byte {other}"
                )))
            }
        };
        let to_stmt = r.u32()? as usize;
        let to = r.u32()? as usize;
        let valid = from < nodes.len()
            && to < nodes.len()
            && from_stmt < nodes[from].len()
            && to_stmt < nodes[to].len();
        if !valid {
            return Err(SnapshotError::Corrupt(
                "summary edge endpoint out of range".to_string(),
            ));
        }
        edges.push(SummaryEdge {
            from,
            from_stmt,
            kind,
            to_stmt,
            to,
        });
    }

    let n = node_count;
    let reach_len = n * n.div_ceil(64).max(1);
    r.skip_pad8(HEADER_LEN)?;
    let parts = match mapped {
        None => SummaryGraphDerived {
            out_offsets: r.u32_slice(n + 1)?.into(),
            out_targets: r.u32_slice(edge_count)?.into(),
            in_offsets: r.u32_slice(n + 1)?.into(),
            in_targets: r.u32_slice(edge_count)?.into(),
            reach_bits: r.u64_slice(reach_len)?.into(),
        },
        Some(map) => {
            // Walk past each array, carving a shared slab over the mapping in its place.
            // `skip_raw` returns the array's payload offset and bounds-checks the walk, so
            // every slab range lies inside the mapping; the absolute (header-inclusive)
            // offsets are exactly element-aligned thanks to the padding and the even `u32`
            // count (the `u64` closure words start 8-byte aligned).
            let owner: Arc<dyn mvrc_robustness::SlabOwner> = Arc::clone(map) as _;
            let u32_slab = |r: &mut Reader<'_>, len: usize| -> Result<U32Slab, String> {
                let at = HEADER_LEN + r.skip_raw(len * 4)?;
                debug_assert_eq!(at % 4, 0);
                Ok(U32Slab::shared(Arc::clone(&owner), at / 4, len))
            };
            let out_offsets = u32_slab(r, n + 1)?;
            let out_targets = u32_slab(r, edge_count)?;
            let in_offsets = u32_slab(r, n + 1)?;
            let in_targets = u32_slab(r, edge_count)?;
            let at = HEADER_LEN + r.skip_raw(reach_len * 8)?;
            debug_assert_eq!(at % 8, 0);
            let reach_bits = U64Slab::shared(owner, at / 8, reach_len);
            SummaryGraphDerived {
                out_offsets,
                out_targets,
                in_offsets,
                in_targets,
                reach_bits,
            }
        }
    };
    SummaryGraph::from_snapshot_parts_with_derived(nodes, edges, settings, parts)
        .map_err(SnapshotError::Corrupt)
}

// ---------------------------------------------------------------------------
// Sweep section
// ---------------------------------------------------------------------------

fn encode_cached_sweep(w: &mut Writer, settings: AnalysisSettings, sweep: &CachedSweep) {
    encode_settings(w, settings);
    w.len(sweep.programs.len());
    for (name, fingerprint) in sweep.programs.iter().zip(&sweep.program_fingerprints) {
        w.str(name);
        w.u64(*fingerprint);
    }
    w.len(sweep.robust.len());
    for &word in &sweep.robust {
        w.u64(word);
    }
}

fn decode_cached_sweep(
    r: &mut Reader<'_>,
) -> Result<(AnalysisSettings, CachedSweep), SnapshotError> {
    let settings = decode_settings(r)?;
    let program_count = r.len()?;
    if program_count > MAX_SWEEP_PROGRAMS {
        return Err(SnapshotError::Corrupt(format!(
            "cached sweep claims {program_count} programs (the sweep bound is \
             {MAX_SWEEP_PROGRAMS})"
        )));
    }
    let mut programs = Vec::with_capacity(program_count);
    let mut program_fingerprints = Vec::with_capacity(program_count);
    for _ in 0..program_count {
        let name = r.str()?;
        if programs.contains(&name) {
            return Err(SnapshotError::Corrupt(format!(
                "cached sweep lists program `{name}` twice"
            )));
        }
        programs.push(name);
        program_fingerprints.push(r.u64()?);
    }
    let word_count = r.len()?;
    if word_count != CachedSweep::word_count_for(program_count) {
        return Err(SnapshotError::Corrupt(format!(
            "cached sweep has {word_count} verdict words, {program_count} programs need {}",
            CachedSweep::word_count_for(program_count)
        )));
    }
    let mut robust = Vec::with_capacity(word_count);
    for _ in 0..word_count {
        robust.push(r.u64()?);
    }
    Ok((
        settings,
        CachedSweep {
            programs,
            program_fingerprints,
            robust,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvrc_benchmarks::{auction, smallbank, tpcc};

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
            let bytes = snapshot_to_bytes(&session);
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
            assert_eq!(snapshot_to_bytes(&reopened), bytes);
        }
    }

    #[test]
    fn header_corruption_is_rejected() {
        let session = warm_session(auction());
        let bytes = snapshot_to_bytes(&session);

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
    fn open_snapshot_expecting_rejects_a_different_fingerprint() {
        let dir = std::env::temp_dir().join(format!("mvrc-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("auction.mvrcsnap");
        let session = warm_session(auction());
        let fingerprint = session.save_snapshot(&path).unwrap();

        let reopened = open_snapshot_expecting(&path, fingerprint).unwrap();
        assert_eq!(reopened.workload().name, "Auction");

        let err = open_snapshot_expecting(&path, fingerprint ^ 1).unwrap_err();
        assert!(matches!(err, SnapshotError::FingerprintMismatch { .. }));
        assert!(err.to_string().contains("fingerprint mismatch"));

        let (_, via_trait) = RobustnessSession::open_snapshot(&path).unwrap();
        assert_eq!(via_trait, fingerprint);
        std::fs::remove_dir_all(&dir).ok();
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
