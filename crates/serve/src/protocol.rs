//! The wire protocol: length-prefixed JSON frames.
//!
//! # Frame format
//!
//! Every message — request or response — is one *frame*:
//!
//! ```text
//! ┌────────────────────┬──────────────────────────────┐
//! │ length: u32 (LE)   │ body: `length` bytes of JSON │
//! └────────────────────┴──────────────────────────────┘
//! ```
//!
//! The body is a single UTF-8 JSON value. Requests are objects with an `"op"` field plus
//! op-specific fields (most carry `"tenant"`); responses are `{"ok": true, "result": …}` or
//! `{"ok": false, "error": "…"}`.
//!
//! # Robustness at the frame layer
//!
//! * **Oversized frames** — a length prefix above [`MAX_FRAME_BYTES`] is rejected *before any
//!   allocation*: the peer gets one error reply and the connection is closed. A hostile or
//!   corrupt length prefix can therefore not trigger an out-of-memory allocation, and a
//!   server never desynchronizes by guessing where the next frame starts.
//! * **Malformed JSON** — a frame that is not valid JSON (or not the expected shape) earns an
//!   error reply, and the connection *stays open*: framing is intact, so the next frame is
//!   still well-delimited.
//! * **Mid-frame disconnects** — a peer vanishing between the length prefix and the last body
//!   byte surfaces as [`FrameError::Closed`]/[`FrameError::Io`] on that connection alone.
//! * **Oversized replies** — a body that renders past [`MAX_FRAME_BYTES`] is refused by
//!   [`write_frame`] with [`FrameError::BodyTooLarge`] before any byte is written, so the
//!   server answers with an error reply instead and the connection stays open.

#![forbid(unsafe_code)]

use serde_json::Value;
use std::io::{Read, Write};

/// Upper bound on a frame body, requests and responses alike (16 MiB): small enough that a
/// corrupt length prefix cannot drive an allocation into the gigabytes. Some replies do not
/// fit — the subset exploration of 20 read-only YCSB-T programs lists 1,048,575 robust subsets
/// in ~28 MB — and are answered with an error reply (see [`write_frame`]).
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// A frame-layer failure.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection at a frame boundary (a clean end of stream).
    Closed,
    /// An I/O error, including disconnects in the middle of a frame.
    Io(std::io::Error),
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    Oversized {
        /// The declared body length.
        declared: usize,
    },
    /// The body is not valid JSON.
    BadJson(String),
    /// An outgoing body exceeds [`MAX_FRAME_BYTES`]; nothing was written.
    BodyTooLarge {
        /// The rendered body length.
        len: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => f.write_str("connection closed"),
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::Oversized { declared } => write!(
                f,
                "frame of {declared} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
            ),
            FrameError::BadJson(msg) => write!(f, "malformed JSON body: {msg}"),
            FrameError::BodyTooLarge { len } => write!(
                f,
                "outgoing body of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte frame limit"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

/// Reads one frame and parses its body as JSON.
///
/// Returns [`FrameError::Closed`] when the stream ends *before the first prefix byte* (the
/// peer hung up between requests) and [`FrameError::Io`] when it ends inside a frame. An
/// oversized length prefix returns [`FrameError::Oversized`] without reading or allocating
/// the body — the caller must treat the stream as desynchronized and close it.
pub fn read_frame(stream: &mut impl Read) -> Result<Value, FrameError> {
    let mut prefix = [0u8; 4];
    // Distinguish a clean close (zero prefix bytes) from a mid-frame one.
    match stream.read(&mut prefix) {
        Ok(0) => return Err(FrameError::Closed),
        Ok(n) => stream
            .read_exact(&mut prefix[n..])
            .map_err(FrameError::Io)?,
        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
            stream.read_exact(&mut prefix).map_err(FrameError::Io)?
        }
        Err(e) => return Err(FrameError::Io(e)),
    }
    let declared = u32::from_le_bytes(prefix) as usize;
    if declared > MAX_FRAME_BYTES {
        return Err(FrameError::Oversized { declared });
    }
    let mut body = vec![0u8; declared];
    stream.read_exact(&mut body).map_err(FrameError::Io)?;
    let text = String::from_utf8(body).map_err(|e| FrameError::BadJson(e.to_string()))?;
    serde_json::from_str(&text).map_err(|e| FrameError::BadJson(e.to_string()))
}

/// Writes one JSON value as a frame.
///
/// A body that renders past [`MAX_FRAME_BYTES`] returns [`FrameError::BodyTooLarge`] and writes
/// nothing, so the stream stays in sync; I/O failures return [`FrameError::Io`].
///
/// Prefix and body go out in one `write_all`: written separately, the body of every frame
/// would wait out the peer's delayed acknowledgement (~40 ms) on a socket without
/// `TCP_NODELAY`.
pub fn write_frame(stream: &mut impl Write, value: &Value) -> Result<(), FrameError> {
    let body = serde_json::to_string(value).expect("a JSON value serializes");
    if body.len() > MAX_FRAME_BYTES {
        return Err(FrameError::BodyTooLarge { len: body.len() });
    }
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(body.as_bytes());
    stream
        .write_all(&frame)
        .and_then(|()| stream.flush())
        .map_err(FrameError::Io)
}

/// Builds a success response envelope, moving `result` into it.
pub fn ok_response(result: Value) -> Value {
    Value::Object(vec![
        ("ok".to_string(), Value::Bool(true)),
        ("result".to_string(), result),
    ])
}

/// Builds an error response envelope.
pub fn error_response(message: impl Into<String>) -> Value {
    serde_json::json!({ "ok": false, "error": message.into() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let value = serde_json::json!({"op": "ping", "n": 7});
        let mut buf = Vec::new();
        write_frame(&mut buf, &value).unwrap();
        let mut cursor = &buf[..];
        assert_eq!(read_frame(&mut cursor).unwrap(), value);
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::Closed)));
    }

    /// A writer that takes every byte it is offered and counts its `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write() {
        let mut out = CountingWriter::default();
        let values: Vec<Value> = (0..3)
            .map(|n| serde_json::json!({"op": "ping", "n": n}))
            .collect();
        for (k, value) in values.iter().enumerate() {
            write_frame(&mut out, value).unwrap();
            assert_eq!(out.writes, k + 1, "frame {k} took more than one write");
        }
        let mut cursor = &out.bytes[..];
        for value in &values {
            assert_eq!(&read_frame(&mut cursor).unwrap(), value);
        }
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::Closed)));
    }

    #[test]
    fn oversized_prefix_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        buf.extend_from_slice(b"ignored");
        let mut cursor = &buf[..];
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameError::Oversized { declared }) if declared == u32::MAX as usize
        ));
    }

    #[test]
    fn an_oversized_body_is_refused_before_anything_is_written() {
        // Two quotes around the string push the body one byte past the limit.
        let value = Value::String("x".repeat(MAX_FRAME_BYTES - 1));
        let mut buf = Vec::new();
        assert!(matches!(
            write_frame(&mut buf, &value),
            Err(FrameError::BodyTooLarge { len }) if len == MAX_FRAME_BYTES + 1
        ));
        assert!(buf.is_empty());
        // At the limit it is written.
        let value = Value::String("x".repeat(MAX_FRAME_BYTES - 2));
        write_frame(&mut buf, &value).unwrap();
        assert_eq!(buf.len(), 4 + MAX_FRAME_BYTES);
    }

    #[test]
    fn malformed_body_is_a_bad_json_error() {
        let body = b"{not json";
        let mut buf = Vec::new();
        buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
        buf.extend_from_slice(body);
        let mut cursor = &buf[..];
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameError::BadJson(_))
        ));
    }

    #[test]
    fn truncated_body_is_an_io_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&16u32.to_le_bytes());
        buf.extend_from_slice(b"short");
        let mut cursor = &buf[..];
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::Io(_))));
    }
}
