//! A blocking line-protocol client for the `snailqc serve` daemon, shared
//! by the `serve_integration` and `hostile_qasm` suites.

#![allow(dead_code)]

use serde::Value;
use snailqc::serve::protocol::object;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::path::Path;

/// An RPC failure reported by the server (or a dead connection).
#[derive(Debug, Clone, PartialEq)]
pub struct RpcFailure {
    /// Machine-readable code (`busy`, `bad_request`, …); `transport` for
    /// connection-level failures.
    pub code: String,
    /// Human-readable detail.
    pub message: String,
}

impl std::fmt::Display for RpcFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

/// One connection to the daemon; requests are issued serially.
pub struct Client {
    reader: BufReader<Box<dyn std::io::Read + Send>>,
    writer: Box<dyn Write + Send>,
    next_id: u64,
}

impl Client {
    /// Connects over TCP (`host:port`).
    pub fn connect_tcp(addr: &str) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = stream.try_clone()?;
        Ok(Self::from_parts(Box::new(reader), Box::new(stream)))
    }

    /// Connects over a Unix-domain socket.
    #[cfg(unix)]
    pub fn connect_unix(path: &Path) -> std::io::Result<Self> {
        let stream = UnixStream::connect(path)?;
        let reader = stream.try_clone()?;
        Ok(Self::from_parts(Box::new(reader), Box::new(stream)))
    }

    fn from_parts(reader: Box<dyn std::io::Read + Send>, writer: Box<dyn Write + Send>) -> Self {
        Self {
            reader: BufReader::new(reader),
            writer,
            next_id: 0,
        }
    }

    /// Sends one request and blocks for its response, returning the
    /// `result` value or the server's error. Requests are issued serially
    /// per client, so the next line is always this request's response.
    pub fn call(&mut self, method: &str, params: Value) -> Result<Value, RpcFailure> {
        self.next_id += 1;
        let frame = object(vec![
            ("id", Value::UInt(self.next_id)),
            ("method", Value::String(method.to_string())),
            ("params", params),
        ]);
        let transport = |e: String| RpcFailure {
            code: "transport".into(),
            message: e,
        };
        let line = serde_json::to_string(&frame).map_err(|e| transport(e.to_string()))?;
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .and_then(|()| self.writer.flush())
            .map_err(|e| transport(format!("send: {e}")))?;
        let mut response = String::new();
        match self.reader.read_line(&mut response) {
            Ok(0) => Err(transport("server closed the connection".into())),
            Ok(_) => {
                let value =
                    serde_json::from_str(response.trim()).map_err(|e| transport(e.to_string()))?;
                if let Some(result) = value.get("result") {
                    return Ok(result.clone());
                }
                let error = value.get("error");
                let field = |name: &str| {
                    error
                        .and_then(|e| e.get(name))
                        .and_then(Value::as_str)
                        .unwrap_or("unknown")
                        .to_string()
                };
                Err(RpcFailure {
                    code: field("code"),
                    message: field("message"),
                })
            }
            Err(e) => Err(transport(format!("recv: {e}"))),
        }
    }
}
