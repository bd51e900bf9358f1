//! `snailqc serve` — the warm-cache transpile daemon.
//!
//! The PR-5 [`RoutingCache`](snailqc_transpiler::RoutingCache) and the PR-3
//! [`SweepStore`] only pay off while the
//! process lives across requests; this module keeps it alive. A long-running
//! server speaks the line-delimited JSON-RPC protocol of [`protocol`] over
//! TCP or a Unix-domain socket and transpiles submitted OpenQASM (2.0 or
//! 3.0, auto-detected) on demand, keeping a pool of warm
//! [`Device`]s — with their routing caches resident — across requests.
//!
//! Production shape:
//!
//! * **Bounded job queue with backpressure.** Transpile jobs flow through a
//!   `sync_channel` of configurable capacity; when it is full the request is
//!   rejected immediately with a structured `busy` error instead of queueing
//!   unboundedly. Clients retry with their own policy.
//! * **Worker pool.** A fixed pool of worker threads (default: available
//!   parallelism) drains the queue. The vendored rayon stand-in offers only
//!   scoped fork-join parallelism, so the daemon's persistent pool is plain
//!   OS threads; rayon still parallelizes *inside* a single routing call
//!   (best-of-trials fan-out).
//! * **Bitwise reproducibility.** Every request carries (or defaults) a
//!   router seed, and the same (source, seed, configuration) produces a
//!   routed-instruction digest bitwise-identical to one-shot
//!   `snailqc transpile` — the caches never change results, they only skip
//!   recomputing them.
//! * **Metrics, not spans.** Every frame's JSON decode and every transpile
//!   job are timed into the `snailqc-obs` metrics registry, which always
//!   counts; the `stats` RPC surfaces their p50/p90/p99 (`decode_micros`,
//!   `latency_micros`), queue depth, cache hit rates (memory,
//!   `RoutingCache`, `SweepStore`) and request counters. No daemon thread
//!   enters a `snailqc_obs::Trace`, so the daemon records no spans.
//! * **Shared store.** With a store file configured, cells persist across
//!   daemon restarts and are shared with the batch CLI: both run jobs through
//!   [`request::run`], whose store rows keep the report and both circuit
//!   digests, so a `cached: "store"` reply names the circuit the cold run
//!   answered. Append-only flushes make the file safe for concurrent writers.
//! * **Bounded frames.** A request line longer than [`MAX_FRAME_BYTES`] is
//!   refused with a `frame_too_large` error and its connection closed, so
//!   a client that never sends a newline cannot grow the daemon's memory.
//!   `stats` counts the refusals (`requests.frames_refused`).
//! * **Graceful drain.** A `shutdown` RPC or SIGTERM/SIGINT stops accepting
//!   work, finishes every queued job, delivers the responses, flushes the
//!   store and exits.
//!
//! ```text
//! snailqc serve --tcp 127.0.0.1:7878 --workers 8 --store cache.jsonl
//! printf '%s\n' '{"id":1,"method":"transpile","params":{"source":"...","topology":"tree-20","seed":7}}' | nc 127.0.0.1 7878
//! ```

pub mod protocol;

pub use crate::request::circuit_digest;

use crate::request::{self, CacheSource, Caches, DeviceArg, DeviceRecipe, TranspileArgs};
use protocol::{error_response, object, ok_response, parse_request, Request};
use serde::Value;
use snailqc_core::device::Device;
use snailqc_core::noise::ErrorModelSpec;
use snailqc_core::registry::DeviceRegistry;
use snailqc_core::store::{CachedCell, SweepStore};
use snailqc_obs as obs;
use snailqc_qasm::QasmVersion;
use std::collections::HashMap;
use std::io::{BufRead, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Warm `Device`s kept in the pool; beyond this, devices are rebuilt per
/// request (correct, just cold).
const DEVICE_POOL_CAP: usize = 64;

/// Accept-loop poll interval (the listener runs non-blocking so drain
/// requests are noticed promptly).
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// Per-connection read timeout; bounds how long a drain waits on an idle
/// client holding its connection open.
const READ_POLL: Duration = Duration::from_millis(100);

/// The longest request frame a connection may send, newline excluded. A
/// longer one is refused with `frame_too_large` and its connection closed,
/// so a partial frame holds at most this much of the daemon's memory. It is
/// 8x the 4 MiB frame of the CI smoke, and above the ~21 MB a plain program
/// of `MAX_EXPANDED_GATES` two-qubit gates takes once JSON-escaped.
pub const MAX_FRAME_BYTES: usize = 32 << 20;

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Where the daemon listens.
#[derive(Debug, Clone)]
pub enum Bind {
    /// A TCP socket (`host:port`; port 0 picks an ephemeral port).
    Tcp(String),
    /// A Unix-domain socket at this path (removed on drain).
    #[cfg(unix)]
    Unix(PathBuf),
}

/// Daemon configuration (see the CLI's `serve` flags).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listening address.
    pub bind: Bind,
    /// Worker threads; 0 means available parallelism.
    pub workers: usize,
    /// Bounded job-queue capacity; a full queue rejects with `busy`.
    pub queue_capacity: usize,
    /// Optional shared `SweepStore` file (same format and keys as the batch
    /// CLI's `--store`).
    pub store: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            bind: Bind::Tcp("127.0.0.1:7878".into()),
            workers: 0,
            queue_capacity: 64,
            store: None,
        }
    }
}

/// The address a spawned server actually bound (useful with port 0).
#[derive(Debug, Clone)]
pub enum BoundAddr {
    /// Bound TCP socket address.
    Tcp(SocketAddr),
    /// Bound Unix-domain socket path.
    #[cfg(unix)]
    Unix(PathBuf),
}

impl std::fmt::Display for BoundAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BoundAddr::Tcp(addr) => write!(f, "tcp://{addr}"),
            #[cfg(unix)]
            BoundAddr::Unix(path) => write!(f, "unix://{}", path.display()),
        }
    }
}

// ---------------------------------------------------------------------------
// Request resolution
// ---------------------------------------------------------------------------

/// Reads an optional param through `get`; `null` counts as absent, and a
/// value `get` rejects is an error naming the expected `kind`.
fn param<'a, T>(
    params: &'a Value,
    name: &str,
    get: fn(&'a Value) -> Option<T>,
    kind: &str,
) -> Result<Option<T>, String> {
    match params.get(name) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => get(v)
            .map(Some)
            .ok_or_else(|| format!("`{name}` must be {kind}")),
    }
}

fn param_str<'a>(params: &'a Value, name: &str) -> Result<Option<&'a str>, String> {
    param(params, name, Value::as_str, "a string")
}

/// Maps `transpile` params onto the shared request resolver. `device` takes
/// a name or path, or a spec as an inline object; `error_model` takes a
/// preset name or an inline object.
fn transpile_args(params: &Value) -> Result<TranspileArgs<'_>, String> {
    let device = match params.get("device") {
        None => None,
        Some(Value::String(arg)) => Some(DeviceArg::Name(arg)),
        Some(inline @ Value::Object(_)) => Some(DeviceArg::Spec(
            serde_json::to_string(inline).map_err(|e| format!("device: {e}"))?,
        )),
        Some(_) => {
            return Err("`device` must be a name, a spec-file path, or a spec object".into())
        }
    };
    let error_model = match params.get("error_model") {
        None | Some(Value::Null) => None,
        Some(Value::String(name)) => Some(
            ErrorModelSpec::preset(name)
                .ok_or_else(|| format!("unknown error-model preset `{name}`"))?,
        ),
        Some(inline @ Value::Object(_)) => Some(ErrorModelSpec::from_json(
            &serde_json::to_string(inline).map_err(|e| format!("error_model: {e}"))?,
        )?),
        Some(_) => return Err("`error_model` must be a preset name or an object".into()),
    };
    Ok(TranspileArgs {
        device,
        topology: param_str(params, "topology")?,
        basis: param_str(params, "basis")?,
        error_model,
        error_weight: param(params, "error_weight", Value::as_f64, "a number")?,
        layout: param_str(params, "layout")?,
        trials: param(params, "trials", Value::as_u64, "a non-negative integer")?
            .map(|trials| trials as usize),
        seed: param(params, "seed", Value::as_u64, "a non-negative integer")?,
    })
}

/// Resolves `transpile` params into a job, pulling the device from the warm
/// pool (or building and pooling it).
fn resolve_spec(state: &ServerState, params: &Value) -> Result<request::Job, String> {
    let source = param_str(params, "source")?
        .ok_or("transpile needs `source` (the QASM text)")?
        .to_string();
    let args = transpile_args(params)?;
    let device = state.warm_device(&args.recipe(&state.registry)?)?;
    let pipeline = args.pipeline(&device)?;
    let emit = match param_str(params, "emit")? {
        None => None,
        Some("qasm2") => Some(QasmVersion::V2),
        Some("qasm3") => Some(QasmVersion::V3),
        Some(other) => return Err(format!("unknown emit dialect `{other}` (qasm2 | qasm3)")),
    };
    Ok(request::Job {
        source,
        device,
        pipeline,
        emit,
        digest: true,
    })
}

// ---------------------------------------------------------------------------
// Server state
// ---------------------------------------------------------------------------

/// One queued transpile job.
struct Job {
    id: Value,
    spec: request::Job,
    /// The owning connection's response channel.
    reply: Sender<String>,
}

/// Everything shared between the acceptor, connections and workers.
struct ServerState {
    shutdown: AtomicBool,
    /// Job-queue sender; taken (and dropped) to start the drain, which
    /// closes the channel and lets workers exit after the backlog.
    queue: Mutex<Option<SyncSender<Job>>>,
    depth: AtomicUsize,
    queue_capacity: usize,
    workers: usize,
    /// Device lookup, with the search path read once at startup.
    registry: DeviceRegistry,
    devices: Mutex<HashMap<String, Device>>,
    memory: Mutex<HashMap<String, CachedCell>>,
    store: Option<Mutex<SweepStore>>,
    started: Instant,
    received: AtomicU64,
    completed: AtomicU64,
    busy_rejected: AtomicU64,
    failed: AtomicU64,
    memory_hits: AtomicU64,
    store_replayed: AtomicU64,
    active_connections: AtomicUsize,
}

impl ServerState {
    /// Starts the drain: stop accepting, close the job queue (workers finish
    /// the backlog, then exit). Idempotent.
    fn begin_drain(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        drop(self.queue.lock().expect("queue lock").take());
    }

    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Enqueues a job, or returns it with the error code to reply with.
    /// (The rejected job rides back in the `Err` so the caller can answer
    /// on its reply channel — the "large" variant is the point.)
    #[allow(clippy::result_large_err)]
    fn try_enqueue(&self, job: Job) -> Result<(), (Job, &'static str)> {
        let guard = self.queue.lock().expect("queue lock");
        match guard.as_ref() {
            None => Err((job, "shutting_down")),
            Some(tx) => {
                // Counted before the send: a worker may dequeue (and
                // decrement) the instant `try_send` returns, so the reverse
                // order would transiently underflow the gauge.
                self.depth.fetch_add(1, Ordering::SeqCst);
                match tx.try_send(job) {
                    Ok(()) => Ok(()),
                    Err(e) => {
                        self.depth.fetch_sub(1, Ordering::SeqCst);
                        match e {
                            TrySendError::Full(job) => Err((job, "busy")),
                            TrySendError::Disconnected(job) => Err((job, "shutting_down")),
                        }
                    }
                }
            }
        }
    }

    /// Fetches (or builds and pools) the warm device for a request. The key
    /// is computed before anything is built, so a pool hit builds nothing,
    /// and pool hits share the device's `RoutingCache`, which is the
    /// daemon's whole reason to exist.
    fn warm_device(&self, recipe: &DeviceRecipe) -> Result<Device, String> {
        let key = recipe.key();
        if let Some(device) = self.devices.lock().expect("device pool lock").get(&key) {
            obs::counter_add("serve.device_pool.hits", 1);
            return Ok(device.clone());
        }
        obs::counter_add("serve.device_pool.misses", 1);
        let device = recipe.build()?;
        let mut pool = self.devices.lock().expect("device pool lock");
        if pool.len() < DEVICE_POOL_CAP {
            pool.insert(key, device.clone());
        }
        Ok(device)
    }

    /// The `stats` RPC payload. `latency_micros` times only a worker's
    /// handling of a transpile job, not its frame decode (`decode_micros`,
    /// every frame) or its wait in the queue.
    fn stats_value(&self) -> Value {
        let snapshot = obs::snapshot();
        let counter = |name: &str| Value::UInt(snapshot.counter(name).unwrap_or(0));
        let micros = |name: &str| {
            let h = snapshot.histogram(name);
            object(vec![
                ("count", Value::UInt(h.map_or(0, |h| h.count))),
                ("mean", Value::Float(h.map_or(0.0, |h| h.mean))),
                ("p50", Value::UInt(h.map_or(0, |h| h.p50))),
                ("p90", Value::UInt(h.map_or(0, |h| h.p90))),
                ("p99", Value::UInt(h.map_or(0, |h| h.p99))),
                ("max", Value::UInt(h.map_or(0, |h| h.max))),
            ])
        };
        let store = match &self.store {
            None => Value::Null,
            Some(store) => {
                let store = store.lock().expect("store lock");
                object(vec![
                    ("entries", Value::UInt(store.len() as u64)),
                    ("hits", Value::UInt(store.hits() as u64)),
                    ("misses", Value::UInt(store.misses() as u64)),
                    ("inserted", Value::UInt(store.inserted() as u64)),
                    (
                        "skipped_corrupt",
                        Value::UInt(store.skipped_corrupt() as u64),
                    ),
                    ("write_errors", counter("serve.store.write_errors")),
                ])
            }
        };
        object(vec![
            (
                "uptime_secs",
                Value::Float(self.started.elapsed().as_secs_f64()),
            ),
            ("workers", Value::UInt(self.workers as u64)),
            (
                "queue",
                object(vec![
                    (
                        "depth",
                        Value::UInt(self.depth.load(Ordering::SeqCst) as u64),
                    ),
                    ("capacity", Value::UInt(self.queue_capacity as u64)),
                ]),
            ),
            (
                "requests",
                object(vec![
                    (
                        "received",
                        Value::UInt(self.received.load(Ordering::SeqCst)),
                    ),
                    (
                        "completed",
                        Value::UInt(self.completed.load(Ordering::SeqCst)),
                    ),
                    (
                        "busy_rejected",
                        Value::UInt(self.busy_rejected.load(Ordering::SeqCst)),
                    ),
                    ("failed", Value::UInt(self.failed.load(Ordering::SeqCst))),
                    ("frames_refused", counter("serve.frames_refused")),
                ]),
            ),
            ("latency_micros", micros("serve.request_micros")),
            ("decode_micros", micros("serve.decode_micros")),
            (
                "cache",
                object(vec![
                    (
                        "memory_entries",
                        Value::UInt(self.memory.lock().expect("memory lock").len() as u64),
                    ),
                    (
                        "memory_hits",
                        Value::UInt(self.memory_hits.load(Ordering::SeqCst)),
                    ),
                    (
                        "store_replayed",
                        Value::UInt(self.store_replayed.load(Ordering::SeqCst)),
                    ),
                    ("routing_cache_hits", counter("routing_cache.hits")),
                    ("routing_cache_misses", counter("routing_cache.misses")),
                    ("sweep_store_hits", counter("sweep_store.hits")),
                    ("sweep_store_misses", counter("sweep_store.misses")),
                    ("store", store),
                ]),
            ),
            (
                "devices_warm",
                Value::UInt(self.devices.lock().expect("device pool lock").len() as u64),
            ),
            ("device_pool_hits", counter("serve.device_pool.hits")),
            ("device_pool_misses", counter("serve.device_pool.misses")),
        ])
    }
}

// ---------------------------------------------------------------------------
// Request handling
// ---------------------------------------------------------------------------

/// Runs one transpile job to a response line through the shared runner,
/// counting its cache source and flushing the store after a computed job.
fn handle_transpile(state: &ServerState, job: &Job) -> String {
    let started = Instant::now();
    let caches = Caches {
        memory: Some(&state.memory),
        store: state.store.as_ref(),
    };
    let outcome = match request::run(&job.spec, caches) {
        Ok(outcome) => outcome,
        Err(message) => {
            state.failed.fetch_add(1, Ordering::SeqCst);
            return error_response(&job.id, "transpile_failed", &message);
        }
    };
    match outcome.cached {
        CacheSource::Memory => {
            state.memory_hits.fetch_add(1, Ordering::SeqCst);
        }
        CacheSource::Store => {
            state.store_replayed.fetch_add(1, Ordering::SeqCst);
        }
        CacheSource::None => {
            if let Some(store) = &state.store {
                let mut store = store.lock().expect("store lock");
                if let Err(err) = store.flush() {
                    obs::counter_add("serve.store.write_errors", 1);
                    eprintln!(
                        "snailqc serve: could not persist store {}: {err}",
                        store.path().display()
                    );
                }
            }
        }
    }

    let micros = started.elapsed().as_micros() as u64;
    obs::histogram_record("serve.request_micros", micros);
    state.completed.fetch_add(1, Ordering::SeqCst);
    let opt_string = |v: Option<String>| v.map(Value::String).unwrap_or(Value::Null);
    let cell = outcome.cell;
    ok_response(
        &job.id,
        object(vec![
            ("report", serde_json::to_value(&cell.report)),
            ("routed_digest", opt_string(cell.routed_digest)),
            ("basis_digest", opt_string(cell.basis_digest)),
            ("cached", Value::String(outcome.cached.label().to_string())),
            ("cache_key", opt_string(outcome.key)),
            ("seed", Value::UInt(job.spec.pipeline.router().seed)),
            ("qasm", opt_string(outcome.written)),
            ("micros", Value::UInt(micros)),
        ]),
    )
}

/// Dispatches one request line from a connection.
fn handle_line(state: &Arc<ServerState>, line: &str, reply: &Sender<String>) {
    let decode_started = Instant::now();
    let parsed = parse_request(line);
    obs::histogram_record(
        "serve.decode_micros",
        decode_started.elapsed().as_micros() as u64,
    );
    let request = match parsed {
        Ok(request) => request,
        Err(message) => {
            let _ = reply.send(error_response(&Value::Null, "bad_request", &message));
            return;
        }
    };
    state.received.fetch_add(1, Ordering::SeqCst);
    let Request { id, method, params } = request;
    match method.as_str() {
        "ping" => {
            let _ = reply.send(ok_response(
                &id,
                object(vec![
                    ("ok", Value::Bool(true)),
                    (
                        "version",
                        Value::String(env!("CARGO_PKG_VERSION").to_string()),
                    ),
                ]),
            ));
        }
        "stats" => {
            let _ = reply.send(ok_response(&id, state.stats_value()));
        }
        "shutdown" => {
            let _ = reply.send(ok_response(
                &id,
                object(vec![("draining", Value::Bool(true))]),
            ));
            state.begin_drain();
        }
        "transpile" => match resolve_spec(state, &params) {
            Err(message) => {
                state.failed.fetch_add(1, Ordering::SeqCst);
                let _ = reply.send(error_response(&id, "bad_request", &message));
            }
            Ok(spec) => {
                let job = Job {
                    id,
                    spec,
                    reply: reply.clone(),
                };
                if let Err((job, code)) = state.try_enqueue(job) {
                    if code == "busy" {
                        state.busy_rejected.fetch_add(1, Ordering::SeqCst);
                    }
                    let _ = reply.send(error_response(
                        &job.id,
                        code,
                        &format!("job queue rejected the request ({code})"),
                    ));
                }
            }
        },
        other => {
            let _ = reply.send(error_response(
                &id,
                "bad_request",
                &format!("unknown method `{other}` (transpile | stats | ping | shutdown)"),
            ));
        }
    }
}

/// Reads request lines from one connection until EOF, error, drain, or a
/// frame longer than [`MAX_FRAME_BYTES`]. Responses flow through `reply` to
/// the connection's writer thread, so a pipelining client gets each
/// response as soon as its worker finishes.
fn connection_loop(
    state: Arc<ServerState>,
    mut reader: Box<dyn std::io::Read + Send>,
    reply: Sender<String>,
) {
    let mut reader = std::io::BufReader::new(&mut reader);
    let mut frame = Vec::new();
    loop {
        // Room for the rest of a longest frame and its newline.
        let room = (MAX_FRAME_BYTES + 1 - frame.len()) as u64;
        match (&mut reader).take(room).read_until(b'\n', &mut frame) {
            Ok(0) => break,
            Ok(_) if frame.last() != Some(&b'\n') && frame.len() > MAX_FRAME_BYTES => {
                obs::counter_add("serve.frames_refused", 1);
                let _ = reply.send(error_response(
                    &Value::Null,
                    "frame_too_large",
                    &format!("a request frame holds at most {MAX_FRAME_BYTES} bytes"),
                ));
                break;
            }
            // A whole frame, or the last one of a client that closed
            // without a newline.
            Ok(_) => {
                match std::str::from_utf8(&frame) {
                    Ok(text) if text.trim().is_empty() => {}
                    Ok(text) => handle_line(&state, text.trim(), &reply),
                    Err(_) => {
                        let _ = reply.send(error_response(
                            &Value::Null,
                            "bad_request",
                            "frame is not valid UTF-8",
                        ));
                    }
                }
                frame.clear();
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // Read timeout: `frame` keeps the bytes read so far, even
                // half a UTF-8 character; just check for a drain before
                // blocking again.
                if state.draining() {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}

/// Wires up the reader + writer thread pair for one accepted connection.
fn spawn_connection(
    state: &Arc<ServerState>,
    reader: Box<dyn std::io::Read + Send>,
    mut writer: Box<dyn std::io::Write + Send>,
) {
    state.active_connections.fetch_add(1, Ordering::SeqCst);
    let (reply_tx, reply_rx): (Sender<String>, Receiver<String>) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        // Exits when every sender (the reader below + any in-flight jobs)
        // is gone, so queued responses are always delivered before close.
        for response in reply_rx {
            if writer
                .write_all(format!("{response}\n").as_bytes())
                .and_then(|()| writer.flush())
                .is_err()
            {
                break;
            }
        }
    });
    let state = Arc::clone(state);
    std::thread::spawn(move || {
        connection_loop(Arc::clone(&state), reader, reply_tx);
        state.active_connections.fetch_sub(1, Ordering::SeqCst);
    });
}

// ---------------------------------------------------------------------------
// Listeners
// ---------------------------------------------------------------------------

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

impl Listener {
    fn bind(bind: &Bind) -> Result<(Self, BoundAddr), String> {
        match bind {
            Bind::Tcp(addr) => {
                let listener =
                    TcpListener::bind(addr).map_err(|e| format!("binding tcp `{addr}`: {e}"))?;
                let bound = listener.local_addr().map_err(|e| e.to_string())?;
                Ok((Listener::Tcp(listener), BoundAddr::Tcp(bound)))
            }
            #[cfg(unix)]
            Bind::Unix(path) => {
                // A dead previous daemon leaves the socket file behind;
                // binding over it needs the unlink first.
                let _ = std::fs::remove_file(path);
                let listener = UnixListener::bind(path)
                    .map_err(|e| format!("binding unix socket `{}`: {e}", path.display()))?;
                Ok((
                    Listener::Unix(listener, path.clone()),
                    BoundAddr::Unix(path.clone()),
                ))
            }
        }
    }

    fn set_nonblocking(&self) -> std::io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(true),
            #[cfg(unix)]
            Listener::Unix(l, _) => l.set_nonblocking(true),
        }
    }

    /// Accepts one connection, returning its split read/write halves.
    #[allow(clippy::type_complexity)]
    fn accept(
        &self,
    ) -> std::io::Result<(
        Box<dyn std::io::Read + Send>,
        Box<dyn std::io::Write + Send>,
    )> {
        match self {
            Listener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                stream.set_nonblocking(false)?;
                stream.set_nodelay(true)?;
                stream.set_read_timeout(Some(READ_POLL))?;
                let writer: TcpStream = stream.try_clone()?;
                Ok((Box::new(stream), Box::new(writer)))
            }
            #[cfg(unix)]
            Listener::Unix(l, _) => {
                let (stream, _) = l.accept()?;
                stream.set_nonblocking(false)?;
                stream.set_read_timeout(Some(READ_POLL))?;
                let writer: UnixStream = stream.try_clone()?;
                Ok((Box::new(stream), Box::new(writer)))
            }
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// A running daemon: the accept loop, worker pool and shared state. Obtain
/// one with [`Server::spawn`] (tests, embedding) or drive the whole
/// lifecycle with [`run`] (the CLI).
pub struct Server {
    state: Arc<ServerState>,
    addr: BoundAddr,
    acceptor: std::thread::JoinHandle<()>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds, starts the worker pool and the accept loop, and returns
    /// without blocking. `stats` reads the `snailqc-obs` metrics, which
    /// always count; no daemon thread enters a trace, so a request leaves
    /// no spans behind and memory does not grow with the number of requests
    /// served.
    pub fn spawn(config: ServeConfig) -> Result<Self, String> {
        let workers = if config.workers == 0 {
            std::thread::available_parallelism().map_or(2, |n| n.get())
        } else {
            config.workers
        };
        let queue_capacity = config.queue_capacity.max(1);
        let (listener, addr) = Listener::bind(&config.bind)?;
        listener
            .set_nonblocking()
            .map_err(|e| format!("listener nonblocking: {e}"))?;
        let (queue_tx, queue_rx) = sync_channel::<Job>(queue_capacity);
        let state = Arc::new(ServerState {
            shutdown: AtomicBool::new(false),
            queue: Mutex::new(Some(queue_tx)),
            depth: AtomicUsize::new(0),
            queue_capacity,
            workers,
            registry: DeviceRegistry::with_default_paths(),
            devices: Mutex::new(HashMap::new()),
            memory: Mutex::new(HashMap::new()),
            store: config
                .store
                .as_ref()
                .map(|path| Mutex::new(SweepStore::open(path))),
            started: Instant::now(),
            received: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            busy_rejected: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            memory_hits: AtomicU64::new(0),
            store_replayed: AtomicU64::new(0),
            active_connections: AtomicUsize::new(0),
        });

        let queue_rx = Arc::new(Mutex::new(queue_rx));
        let worker_handles: Vec<_> = (0..workers)
            .map(|_| {
                let state = Arc::clone(&state);
                let queue_rx = Arc::clone(&queue_rx);
                std::thread::spawn(move || loop {
                    let job = queue_rx.lock().expect("queue rx lock").recv();
                    let Ok(job) = job else { break };
                    state.depth.fetch_sub(1, Ordering::SeqCst);
                    let response = handle_transpile(&state, &job);
                    let _ = job.reply.send(response);
                })
            })
            .collect();

        let acceptor = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || {
                while !state.draining() {
                    match listener.accept() {
                        Ok((reader, writer)) => spawn_connection(&state, reader, writer),
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(ACCEPT_POLL);
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(e) => {
                            eprintln!("snailqc serve: accept error: {e}");
                            std::thread::sleep(ACCEPT_POLL);
                        }
                    }
                }
                // `listener` drops here, unlinking a Unix socket path.
            })
        };

        Ok(Self {
            state,
            addr,
            acceptor,
            workers: worker_handles,
        })
    }

    /// The address actually bound (resolves port 0).
    pub fn addr(&self) -> &BoundAddr {
        &self.addr
    }

    /// Requests a graceful drain (same effect as the `shutdown` RPC).
    pub fn shutdown(&self) {
        self.state.begin_drain();
    }

    /// True once a drain has been requested (RPC, signal, or
    /// [`Server::shutdown`]).
    pub fn draining(&self) -> bool {
        self.state.draining()
    }

    /// Blocks until a requested drain completes: the accept loop stops,
    /// workers finish the queued backlog, connections wind down and the
    /// store is flushed. Call [`Server::shutdown`] first (or let a
    /// `shutdown` RPC / signal do it).
    pub fn join(self) -> Result<(), String> {
        while !self.state.draining() {
            std::thread::sleep(Duration::from_millis(50));
        }
        self.state.begin_drain(); // idempotent; ensures the queue is closed
        self.acceptor
            .join()
            .map_err(|_| "accept thread panicked".to_string())?;
        for worker in self.workers {
            worker
                .join()
                .map_err(|_| "worker thread panicked".to_string())?;
        }
        // Connections notice the drain within one read-timeout tick; give
        // stragglers a bounded grace period rather than hanging forever.
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.state.active_connections.load(Ordering::SeqCst) > 0 && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(20));
        }
        if let Some(store) = &self.state.store {
            let mut store = store.lock().expect("store lock");
            store
                .flush()
                .map_err(|e| format!("flushing store `{}`: {e}", store.path().display()))?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Signals + blocking entry point
// ---------------------------------------------------------------------------

/// Set by the SIGTERM/SIGINT handler; polled by [`run`].
#[cfg(unix)]
static SIGNALLED: AtomicBool = AtomicBool::new(false);

/// Installs SIGTERM/SIGINT handlers that request a graceful drain. Calls
/// `signal(2)` through the C library std already links (the workspace
/// vendors no `libc` crate); the handler only stores to an atomic, which is
/// async-signal-safe.
#[cfg(unix)]
fn install_signal_handlers() {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" fn on_signal(_signum: i32) {
        SIGNALLED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    // SAFETY: installing an async-signal-safe handler (a single atomic
    // store) for signals whose default disposition is process death anyway.
    unsafe {
        signal(SIGTERM, on_signal);
        signal(SIGINT, on_signal);
    }
}

/// Runs the daemon to completion: spawn, serve until a `shutdown` RPC or
/// SIGTERM/SIGINT, drain, exit. This is what `snailqc serve` calls.
pub fn run(config: ServeConfig) -> Result<(), String> {
    let server = Server::spawn(config)?;
    #[cfg(unix)]
    install_signal_handlers();
    eprintln!(
        "snailqc serve: listening on {} ({} workers, queue {})",
        server.addr(),
        server.state.workers,
        server.state.queue_capacity
    );
    loop {
        #[cfg(unix)]
        if SIGNALLED.load(Ordering::SeqCst) {
            eprintln!("snailqc serve: signal received, draining");
            server.shutdown();
            break;
        }
        if server.draining() {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let completed = server.state.completed.load(Ordering::SeqCst);
    server.join()?;
    eprintln!("snailqc serve: drained after {completed} completed requests");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use snailqc_core::registry::LocatedDevice;

    fn test_state(queue_capacity: usize) -> (Arc<ServerState>, Receiver<Job>) {
        let (tx, rx) = sync_channel(queue_capacity);
        let state = Arc::new(ServerState {
            shutdown: AtomicBool::new(false),
            queue: Mutex::new(Some(tx)),
            depth: AtomicUsize::new(0),
            queue_capacity,
            workers: 1,
            registry: DeviceRegistry::with_default_paths(),
            devices: Mutex::new(HashMap::new()),
            memory: Mutex::new(HashMap::new()),
            store: None,
            started: Instant::now(),
            received: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            busy_rejected: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            memory_hits: AtomicU64::new(0),
            store_replayed: AtomicU64::new(0),
            active_connections: AtomicUsize::new(0),
        });
        (state, rx)
    }

    fn test_job(state: &ServerState) -> Job {
        let params = protocol::object(vec![
            (
                "source",
                Value::String("OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[1];\n".into()),
            ),
            ("topology", Value::String("tree-20".into())),
        ]);
        let (reply, _keep) = std::sync::mpsc::channel();
        std::mem::forget(_keep); // keep the receiver alive for the test
        Job {
            id: Value::UInt(1),
            spec: resolve_spec(state, &params).unwrap(),
            reply,
        }
    }

    #[test]
    fn full_queue_rejects_with_busy_and_drain_with_shutting_down() {
        let (state, rx) = test_state(1);
        // The first job arrives as a frame, so `stats` sees its decode time.
        let (reply, replies) = std::sync::mpsc::channel();
        let frame = r#"{"id": 1, "method": "transpile", "params": {"source": "OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[1];\n", "topology": "tree-20"}}"#;
        handle_line(&state, frame, &reply);
        assert!(
            replies.try_recv().is_err(),
            "the frame was answered, not queued"
        );
        let stats = state.stats_value();
        let decoded = stats
            .get("decode_micros")
            .and_then(|d| d.get("count"))
            .and_then(Value::as_u64);
        assert!(decoded >= Some(1), "stats: {stats:?}");
        let (_, code) = state.try_enqueue(test_job(&state)).unwrap_err();
        assert_eq!(code, "busy");
        // Draining takes precedence over capacity.
        state.begin_drain();
        let (_, code) = state.try_enqueue(test_job(&state)).unwrap_err();
        assert_eq!(code, "shutting_down");
        drop(rx);
    }

    #[test]
    fn resolve_spec_mirrors_cli_defaults_and_rejects_bad_params() {
        let (state, _rx) = test_state(4);
        let params = protocol::object(vec![
            (
                "source",
                Value::String("OPENQASM 2.0;\nqreg q[2];\n".into()),
            ),
            ("topology", Value::String("tree-20".into())),
        ]);
        let spec = resolve_spec(&state, &params).unwrap();
        assert_eq!(spec.pipeline.router().seed, 11);
        assert_eq!(spec.pipeline.router().trials, 4);
        assert_eq!(spec.pipeline.router().error_weight, 0.0);
        assert!(spec.emit.is_none());
        // An error model flips the default weight to 1.0, like the CLI.
        let noisy = protocol::object(vec![
            (
                "source",
                Value::String("OPENQASM 2.0;\nqreg q[2];\n".into()),
            ),
            ("topology", Value::String("tree-20".into())),
            ("error_model", Value::String("decoherence".into())),
        ]);
        let spec = resolve_spec(&state, &noisy).unwrap();
        assert_eq!(spec.pipeline.router().error_weight, 1.0);
        assert!(spec.device.error_model().is_some());
        for (name, value) in [
            ("topology", Value::String("no-such".into())),
            ("basis", Value::String("nope".into())),
            ("trials", Value::String("four".into())),
            ("layout", Value::String("spiral".into())),
            ("error_weight", Value::Float(-1.0)),
            ("emit", Value::String("qasm4".into())),
            ("error_model", Value::UInt(3)),
        ] {
            let mut pairs = vec![
                (
                    "source".to_string(),
                    Value::String("OPENQASM 2.0;\nqreg q[2];\n".into()),
                ),
                ("topology".to_string(), Value::String("tree-20".into())),
            ];
            pairs.retain(|(k, _)| k != name);
            pairs.push((name.to_string(), value));
            let params = Value::Object(pairs);
            assert!(
                resolve_spec(&state, &params).is_err(),
                "bad `{name}` accepted"
            );
        }
    }

    #[test]
    fn device_names_resolve_against_the_catalog_and_unknown_names_error() {
        let registry = DeviceRegistry::with_default_paths();
        let recipe = |name: &str| {
            let params = protocol::object(vec![("device", Value::String(name.into()))]);
            transpile_args(&params)?.recipe(&registry)
        };
        for name in ["tree-20", "Corral1,2-16", "HEAVY_HEX_84"] {
            assert!(
                matches!(
                    recipe(name),
                    Ok(DeviceRecipe { located: LocatedDevice::Catalog(n), .. })
                        if snailqc_util::names_match(n, name)
                ),
                "`{name}` did not resolve to a catalog device"
            );
        }
        let err = recipe("no-such-device").expect_err("an unknown device name resolved");
        assert!(err.contains("unknown device `no-such-device`"), "{err}");
    }

    #[test]
    fn warm_device_pool_shares_routing_caches() {
        let (state, _rx) = test_state(4);
        let recipe = |name| {
            TranspileArgs {
                device: Some(DeviceArg::Name(name)),
                basis: Some("sqrt-iswap"),
                ..TranspileArgs::default()
            }
            .recipe(&state.registry)
            .unwrap()
        };
        let a = state.warm_device(&recipe("tree-20")).unwrap();
        let b = state.warm_device(&recipe("TREE_20")).unwrap();
        // Forgiving name spellings normalize to one pool entry.
        assert_eq!(state.devices.lock().unwrap().len(), 1);
        assert_eq!(a, b);
    }
}
