//! A small blocking client for the daemon's wire protocol.
//!
//! One [`Client`] is one TCP connection; requests and responses alternate strictly, so the
//! client is a simple call/return interface. [`Client::call`] unwraps the response envelope
//! (`{"ok": true, "result": …}` / `{"ok": false, "error": …}`) into a `Result`.

#![forbid(unsafe_code)]

use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use serde_json::Value;

use crate::protocol::{read_frame, write_frame, FrameError};

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// A connection or frame-layer failure.
    Frame(FrameError),
    /// The server answered with an error envelope.
    Server(String),
    /// The server's reply was not a well-formed envelope.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Frame(e) => write!(f, "{e}"),
            ClientError::Server(msg) => write!(f, "server error: {msg}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

/// One connection to a daemon.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to `addr` (e.g. `127.0.0.1:7654`).
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // Replies to subset sweeps on large workloads can take a while; cap reads generously
        // rather than hanging forever on a dead server.
        stream.set_read_timeout(Some(Duration::from_secs(600)))?;
        Ok(Client { stream })
    }

    /// Sends one request and returns the raw response envelope.
    pub fn request(&mut self, request: &Value) -> Result<Value, ClientError> {
        write_frame(&mut self.stream, request)?;
        Ok(read_frame(&mut self.stream)?)
    }

    /// Sends one request and unwraps the envelope: `Ok(result)` on `"ok": true`, the server's
    /// error message otherwise.
    pub fn call(&mut self, request: &Value) -> Result<Value, ClientError> {
        let reply = self.request(request)?;
        match reply.get("ok").and_then(Value::as_bool) {
            Some(true) => Ok(reply.get("result").cloned().unwrap_or(Value::Null)),
            Some(false) => Err(ClientError::Server(
                reply
                    .get("error")
                    .and_then(Value::as_str)
                    .unwrap_or("unspecified error")
                    .to_string(),
            )),
            None => Err(ClientError::Protocol(format!(
                "reply is not an envelope: {}",
                serde_json::to_string(&reply).unwrap_or_default()
            ))),
        }
    }
}
