//! Drives the shipped `snailqc` binary the way users do: one `transpile`
//! process per CLI op, or one request→response on a persistent
//! `snailqc serve` connection.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde_json::Value;

use crate::plan::{basis_name, DeviceArg, Input, Op, Plan};
use crate::sys::{self, Usage};
use crate::util::qasm_digest;

/// What one op returned, kept raw while the clock runs and decoded after
/// the timed phase.
#[derive(Debug, Default)]
pub struct Reply {
    pub latency: Duration,
    /// A transport failure, a failed spawn or a non-zero exit.
    pub error: Option<String>,
    /// The `transpile --json` report (CLI) or the response line (daemon).
    pub text: String,
    /// CLI only: the FNV-1a digest of the `-o` file, `None` if none was
    /// written.
    pub written_digest: Option<String>,
    /// CLI only: the child's own CPU time and peak RSS.
    pub usage: Option<Usage>,
}

/// A decoded, checked reply.
#[derive(Debug, Default)]
pub struct Outcome {
    pub latency: Duration,
    pub error: Option<String>,
    pub routed_digest: String,
    pub swaps: u64,
    pub basis_gates: u64,
    pub basis_depth: u64,
    /// Daemon only: the response's `cached` field and `micros`.
    pub cached: String,
    pub handle_micros: u64,
}

impl Reply {
    /// Reads the report fields shared by `transpile --json` output and the
    /// daemon's `transpile` result, and checks the op's output: the `-o`
    /// file against `basis_digest` (CLI), the QASM 3 text (`emit`).
    pub fn decode(&self, input: &Input, emit: bool, cli: bool) -> Outcome {
        let mut outcome = Outcome {
            latency: self.latency,
            ..Outcome::default()
        };
        if let Some(e) = &self.error {
            outcome.error = Some(e.clone());
            return outcome;
        }
        if let Err(e) = self.read(&mut outcome, emit, cli) {
            outcome.error = Some(format!("`{}`: {e}", input.label));
        }
        outcome
    }

    fn read(&self, outcome: &mut Outcome, emit: bool, cli: bool) -> Result<(), String> {
        let value = serde_json::from_str(self.text.trim_end())
            .map_err(|e| format!("unreadable reply ({e}): {:.200}", self.text))?;
        let result = if cli {
            &value
        } else if let Some(result) = value.get("result") {
            result
        } else {
            let code = value.get("error").and_then(|e| e.get("code"));
            return Err(format!(
                "daemon error `{}`",
                code.and_then(Value::as_str).unwrap_or("unknown")
            ));
        };
        let text = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).map(str::to_string);
        let count = |key: &str| result.get("report").and_then(|r| r.get(key)?.as_u64());
        let incomplete = || format!("incomplete report: {:.200}", self.text);
        outcome.routed_digest = text(result, "routed_digest").ok_or_else(incomplete)?;
        outcome.swaps = count("swap_count").ok_or_else(incomplete)?;
        outcome.basis_gates = count("basis_gate_count").ok_or_else(incomplete)?;
        outcome.basis_depth = count("basis_gate_depth").ok_or_else(incomplete)?;
        if cli {
            // `-o` writes the translated circuit, whose digest the report
            // carries.
            match &self.written_digest {
                None => return Err("-o output was not written".into()),
                Some(d) if Some(d) != text(result, "basis_digest").as_ref() => {
                    return Err("-o output does not match basis_digest".into())
                }
                Some(_) => {}
            }
        } else {
            outcome.cached = text(result, "cached").unwrap_or_default();
            outcome.handle_micros = result.get("micros").and_then(Value::as_u64).unwrap_or(0);
            let qasm = text(result, "qasm").unwrap_or_default();
            if emit && !qasm.starts_with("OPENQASM 3") {
                return Err("emit returned no QASM 3".into());
            }
        }
        Ok(())
    }
}

/// A set-up workload, ready for timed ops.
pub enum Runner {
    Cli {
        bin: PathBuf,
        /// Where every op's `-o` output goes.
        out: PathBuf,
    },
    Serve {
        daemon: Daemon,
        /// One request line per timed op, rendered during set-up.
        frames: Vec<String>,
    },
}

impl Runner {
    /// Warms the CLI (writing outputs to `out`) or starts and warms a
    /// daemon.
    pub fn open(bin: &Path, plan: &Plan, out: &Path, serve: bool) -> Result<Self, String> {
        if !serve {
            let mut runner = Runner::Cli {
                bin: bin.to_path_buf(),
                out: out.to_path_buf(),
            };
            // Warm the page cache and loader with the lowest-numbered input
            // of each op class, the same cells whatever the op order.
            let mut firsts: Vec<&Op> = Vec::new();
            for op in &plan.ops {
                match firsts.iter_mut().find(|f| f.class == op.class) {
                    Some(first) if first.input <= op.input => {}
                    Some(first) => *first = op,
                    None => firsts.push(op),
                }
            }
            for op in firsts {
                let input = &plan.inputs[op.input];
                let reply = runner.run(input, 0);
                if let Some(e) = reply.decode(input, op.emit, true).error {
                    return Err(format!("warm-up op failed: {e}"));
                }
            }
            return Ok(runner);
        }
        let mut daemon = Daemon::spawn(bin)?;
        for (i, op) in plan.warmup.iter().enumerate() {
            let input = &plan.inputs[op.input];
            let frame = request_frame(u64::MAX - i as u64, input, op.emit);
            if let Some(e) = daemon.transpile(&frame).decode(input, op.emit, false).error {
                return Err(format!("warm-up request failed: {e}"));
            }
        }
        let frames = plan
            .ops
            .iter()
            .enumerate()
            .map(|(i, op)| request_frame(i as u64, &plan.inputs[op.input], op.emit))
            .collect();
        Ok(Runner::Serve { daemon, frames })
    }

    /// Runs the `index`-th op of the timed list, on `input`.
    pub fn run(&mut self, input: &Input, index: usize) -> Reply {
        match self {
            Runner::Cli { bin, out } => run_cli(bin, out, input),
            Runner::Serve { daemon, frames } => daemon.transpile(&frames[index]),
        }
    }

    /// CPU time and `VmHWM` of the daemon so far (`None` for the CLI, whose
    /// usage each reply carries).
    pub fn daemon_usage(&self) -> Result<Option<Usage>, String> {
        match self {
            Runner::Cli { .. } => Ok(None),
            Runner::Serve { daemon, .. } => sys::process(daemon.child.id()).map(Some),
        }
    }

    pub fn frames(&self) -> &[String] {
        match self {
            Runner::Cli { .. } => &[],
            Runner::Serve { frames, .. } => frames,
        }
    }

    /// The daemon's `stats` result (`Null` for the CLI).
    pub fn stats(&mut self) -> Result<Value, String> {
        match self {
            Runner::Cli { .. } => Ok(Value::Null),
            Runner::Serve { daemon, .. } => {
                let line = daemon.call(r#"{"id":0,"method":"stats"}"#)?;
                let value = serde_json::from_str(line.trim_end()).map_err(|e| e.to_string())?;
                value
                    .get("result")
                    .cloned()
                    .ok_or_else(|| format!("stats failed: {line}"))
            }
        }
    }

    /// Stops the daemon (serve) and waits for it; never part of a timed value.
    pub fn close(self) -> Result<(), String> {
        match self {
            Runner::Cli { .. } => Ok(()),
            Runner::Serve { daemon, .. } => daemon.stop(),
        }
    }
}

/// One `snailqc transpile` process. The source arrives on stdin
/// (`transpile -`): writing one input file per cell made set-up time track
/// the state of the file system rather than the program.
fn run_cli(bin: &Path, out: &Path, input: &Input) -> Reply {
    // A stale output from an earlier op must never pass for this op's.
    if let Err(e) = std::fs::remove_file(out) {
        if e.kind() != std::io::ErrorKind::NotFound {
            return Reply {
                error: Some(format!("removing {}: {e}", out.display())),
                ..Reply::default()
            };
        }
    }
    let mut cmd = Command::new(bin);
    cmd.args(["transpile", "-"]);
    match &input.device {
        DeviceArg::Topology(name) => cmd.args(["--topology", name]),
        DeviceArg::Spec(path) => cmd.args(["--device", path]),
    };
    cmd.args(["--basis", basis_name(input.basis), "--json", "-o"])
        .arg(out)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    let started = Instant::now();
    let finished = cmd
        .spawn()
        .and_then(|child| talk(child, input.source.as_bytes()));
    let latency = started.elapsed();
    match finished {
        Err(e) => Reply {
            latency,
            error: Some(format!("running {}: {e}", bin.display())),
            ..Reply::default()
        },
        Ok((status, _, _)) if !status.success() => Reply {
            latency,
            error: Some(format!("`{}` exited with {status}", input.label)),
            ..Reply::default()
        },
        Ok((_, stdout, usage)) => Reply {
            latency,
            error: None,
            text: String::from_utf8_lossy(&stdout).into_owned(),
            written_digest: std::fs::read(out).ok().map(|w| qasm_digest(&w)),
            usage: Some(usage),
        },
    }
}

/// Writes `source` to the child's stdin, reads its stdout to the end and
/// reaps it. The CLI reads all of stdin before it writes anything, so
/// writing the whole source first cannot deadlock.
fn talk(
    mut child: Child,
    source: &[u8],
) -> std::io::Result<(std::process::ExitStatus, Vec<u8>, Usage)> {
    let mut stdin = child.stdin.take().expect("stdin is piped");
    let sent = stdin.write_all(source);
    drop(stdin);
    let mut stdout = Vec::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_end(&mut stdout);
    let (status, usage) = sys::wait(child)?;
    sent?;
    read?;
    Ok((status, stdout, usage))
}

/// A `transpile` request line with the CLI's defaults made explicit.
fn request_frame(id: u64, input: &Input, emit: bool) -> String {
    let text = |s: &str| Value::String(s.to_string());
    let device = match &input.device {
        DeviceArg::Topology(name) => ("topology", text(name)),
        DeviceArg::Spec(path) => ("device", text(path)),
    };
    let mut params = vec![
        ("source", text(&input.source)),
        device,
        ("basis", text(basis_name(input.basis))),
        ("seed", Value::UInt(input.router_seed)),
    ];
    if emit {
        params.push(("emit", text("qasm3")));
    }
    let frame = object(vec![
        ("id", Value::UInt(id)),
        ("method", text("transpile")),
        ("params", object(params)),
    ]);
    serde_json::to_string(&frame).expect("a frame holds no floats") + "\n"
}

/// A JSON object from `(key, value)` pairs, in order.
pub fn object(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A `snailqc serve --tcp 127.0.0.1:0` child and its one connection.
pub struct Daemon {
    child: Child,
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    stderr: Option<JoinHandle<String>>,
    /// Set by the first transport failure.
    broken: Option<String>,
}

impl Daemon {
    /// Spawns the daemon, reads the bound port from its `listening on
    /// tcp://…` line (no polling), and connects once.
    fn spawn(bin: &Path) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--tcp", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {} serve: {e}", bin.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stderr.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("daemon exited before listening: {line}"));
                }
                Ok(_) => {
                    if let Some(rest) = line.split("listening on tcp://").nth(1) {
                        break rest.split_whitespace().next().unwrap_or("").to_string();
                    }
                }
            }
        };
        // Drain the rest of stderr so the daemon can never block on it.
        let drain = std::thread::spawn(move || {
            let mut rest = String::new();
            let _ = stderr.read_to_string(&mut rest);
            rest
        });
        let connected = TcpStream::connect(&addr).and_then(|stream| {
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(10)))?;
            let reader = BufReader::new(stream.try_clone()?);
            Ok((stream, reader))
        });
        let mut daemon = match connected {
            Ok((stream, reader)) => Daemon {
                child,
                stream,
                reader,
                stderr: Some(drain),
                broken: None,
            },
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = drain.join();
                return Err(format!("connecting to {addr}: {e}"));
            }
        };
        daemon.call("{\"id\":0,\"method\":\"ping\"}")?;
        Ok(daemon)
    }

    /// Sends one line and reads one response line.
    fn call(&mut self, frame: &str) -> Result<String, String> {
        let frame = frame.trim_end();
        self.stream
            .write_all(frame.as_bytes())
            .and_then(|()| self.stream.write_all(b"\n"))
            .map_err(|e| format!("send: {e}"))?;
        let mut response = String::new();
        match self.reader.read_line(&mut response) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => Ok(response),
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    /// One timed request→response; the clock covers only the socket round
    /// trip, not reading the response afterwards. After a transport failure
    /// every later op fails at once, so a dead or hung daemon cannot stretch
    /// the run.
    fn transpile(&mut self, frame: &str) -> Reply {
        if let Some(e) = &self.broken {
            return Reply {
                error: Some(e.clone()),
                ..Reply::default()
            };
        }
        let mut line = String::new();
        let started = Instant::now();
        let sent = self
            .stream
            .write_all(frame.as_bytes())
            .map_err(|e| format!("send: {e}"))
            .and_then(|()| match self.reader.read_line(&mut line) {
                Ok(0) => Err("daemon closed the connection".to_string()),
                Ok(_) => Ok(()),
                Err(e) => Err(format!("recv: {e}")),
            });
        let latency = started.elapsed();
        if let Err(e) = &sent {
            self.broken = Some(e.clone());
        }
        Reply {
            latency,
            error: sent.err(),
            text: line,
            ..Reply::default()
        }
    }

    /// Asks for a drain, closes the connection and waits for the process
    /// (killing it if it has not exited within ten seconds).
    fn stop(mut self) -> Result<(), String> {
        let acknowledged = self.call("{\"id\":0,\"method\":\"shutdown\"}");
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        let deadline = Instant::now() + Duration::from_secs(10);
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break None;
                }
            }
        };
        let log = self.stderr.take().map(|h| h.join().unwrap_or_default());
        acknowledged?;
        match status {
            Some(s) if s.success() => Ok(()),
            _ => Err(format!(
                "daemon did not drain cleanly ({status:?}): {}",
                log.unwrap_or_default()
            )),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Reached with the child still running only on an error path.
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(handle) = self.stderr.take() {
            let _ = handle.join();
        }
    }
}
