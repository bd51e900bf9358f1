//! End-to-end tests of the `snailqc serve` daemon: the wire protocol over
//! real sockets, digest parity with the one-shot CLI, cache behaviour
//! visible through the `stats` RPC, graceful drain, and the shared store
//! surviving daemon restarts.

mod support;

use serde::Value;
use snailqc::serve::protocol::object;
use snailqc::serve::{Bind, BoundAddr, ServeConfig, Server, MAX_FRAME_BYTES};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;
use support::Client;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "snailqc-serve-{tag}-{}-{:?}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn spawn_tcp(store: Option<PathBuf>) -> (Server, String) {
    let server = Server::spawn(ServeConfig {
        bind: Bind::Tcp("127.0.0.1:0".into()),
        workers: 2,
        queue_capacity: 16,
        store,
    })
    .expect("server spawns");
    let addr = match server.addr() {
        BoundAddr::Tcp(addr) => addr.to_string(),
        #[allow(unreachable_patterns)]
        _ => unreachable!("tcp bind"),
    };
    (server, addr)
}

fn qaoa12_source() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/qaoa12.qasm");
    std::fs::read_to_string(path).expect("example circuit exists")
}

fn transpile_params(source: &str) -> Value {
    object(vec![
        ("source", Value::String(source.to_string())),
        ("topology", Value::String("corral11-16".to_string())),
    ])
}

fn str_field<'a>(value: &'a Value, name: &str) -> &'a str {
    value
        .get(name)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("response field `{name}` missing in {value:?}"))
}

#[test]
fn serve_matches_one_shot_cli_and_surfaces_cache_hits_in_stats() {
    let dir = temp_dir("parity");
    let store_path = dir.join("store.jsonl");
    let (server, addr) = spawn_tcp(Some(store_path.clone()));
    let source = qaoa12_source();

    // The reproducibility contract: the daemon's routed digest for the
    // default configuration must be bitwise-identical to what the one-shot
    // CLI reports for the same file and flags.
    let cli = Command::new(env!("CARGO_BIN_EXE_snailqc"))
        .args([
            "transpile",
            "examples/qaoa12.qasm",
            "--topology",
            "corral11-16",
            "--json",
        ])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("one-shot CLI runs");
    assert!(
        cli.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&cli.stderr)
    );
    let cli_json = serde_json::from_str(&String::from_utf8(cli.stdout).unwrap())
        .expect("CLI emits valid JSON");
    let cli_digest = str_field(&cli_json, "routed_digest").to_string();

    let mut client = Client::connect_tcp(&addr).expect("client connects");
    let ping = client.call("ping", object(vec![])).expect("ping works");
    assert_eq!(ping.get("ok"), Some(&Value::Bool(true)));

    let first = client
        .call("transpile", transpile_params(&source))
        .expect("first transpile");
    assert_eq!(str_field(&first, "routed_digest"), cli_digest);
    assert_eq!(str_field(&first, "cached"), "none");
    assert!(first
        .get("report")
        .and_then(|r| r.get("swap_count"))
        .is_some());

    // Parallel clients, same request: every response must carry the same
    // digest regardless of which worker served it.
    let digests: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let addr = addr.clone();
                let source = source.clone();
                scope.spawn(move || {
                    let mut client = Client::connect_tcp(&addr).expect("client connects");
                    let response = client
                        .call("transpile", transpile_params(&source))
                        .expect("parallel transpile");
                    str_field(&response, "routed_digest").to_string()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for digest in &digests {
        assert_eq!(digest, &cli_digest, "digest drifted under concurrency");
    }

    // The repeats were cache hits, visible through `stats`: the shared
    // store was probed and hit, and the memory cache replayed the digest.
    let second = client
        .call("transpile", transpile_params(&source))
        .expect("repeat transpile");
    assert_eq!(str_field(&second, "cached"), "memory");
    assert_eq!(str_field(&second, "routed_digest"), cli_digest);

    let stats = client.call("stats", object(vec![])).expect("stats RPC");
    let cache = stats.get("cache").expect("stats.cache");
    let count = |v: Option<&Value>| v.and_then(Value::as_u64).unwrap_or(0);
    assert!(count(cache.get("memory_hits")) >= 5, "stats: {stats:?}");
    let store_stats = cache.get("store").expect("stats.cache.store");
    assert!(count(store_stats.get("hits")) >= 5, "stats: {stats:?}");
    assert_eq!(count(store_stats.get("entries")), 1, "stats: {stats:?}");
    for histogram in ["latency_micros", "decode_micros"] {
        for field in ["p50", "p90", "p99", "count", "mean", "max"] {
            assert!(
                stats.get(histogram).and_then(|l| l.get(field)).is_some(),
                "{histogram}.{field} missing: {stats:?}"
            );
        }
    }
    assert!(
        count(stats.get("requests").and_then(|r| r.get("completed"))) >= 6,
        "stats: {stats:?}"
    );
    assert!(count(stats.get("devices_warm")) >= 1);
    // The first request built the device; the parallel and repeat requests
    // found it warm in the pool.
    assert!(
        count(stats.get("device_pool_misses")) >= 1,
        "stats: {stats:?}"
    );
    assert!(
        count(stats.get("device_pool_hits")) >= 5,
        "stats: {stats:?}"
    );
    assert_eq!(
        count(store_stats.get("write_errors")),
        0,
        "stats: {stats:?}"
    );

    // Malformed frames and unknown methods get structured errors, not a
    // dropped connection.
    let failure = client
        .call("no_such_method", object(vec![]))
        .expect_err("unknown method is an error");
    assert_eq!(failure.code, "bad_request");
    let failure = client
        .call(
            "transpile",
            object(vec![("topology", Value::String("corral11-16".into()))]),
        )
        .expect_err("missing source is an error");
    assert_eq!(failure.code, "bad_request");

    // Graceful drain via the shutdown RPC: the response still arrives, the
    // server winds down, and the store file holds the persisted cell.
    let drain = client
        .call("shutdown", object(vec![]))
        .expect("shutdown RPC");
    assert_eq!(drain.get("draining"), Some(&Value::Bool(true)));
    server.join().expect("drain completes");
    let persisted = snailqc::core::store::SweepStore::open(&store_path);
    assert_eq!(persisted.len(), 1, "store persisted across the drain");
    std::fs::remove_dir_all(&dir).ok();
}

/// The daemon's memory must not grow with the number of requests served:
/// no daemon thread has a trace entered, so none records a span, while the
/// metrics behind `stats` always count. A trace entered on the client
/// thread collects nothing from the daemon's threads.
#[test]
fn the_daemon_records_no_spans_and_stats_still_counts_every_request() {
    const REQUESTS: u64 = 200;
    let trace = snailqc::obs::Trace::default();
    let entered = trace.enter();
    let (server, addr) = spawn_tcp(None);
    let ghz3 = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\n\
                h q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n";
    let mut client = Client::connect_tcp(&addr).expect("client connects");
    for seed in 0..REQUESTS {
        // A distinct seed per request: every one misses the caches and runs
        // the whole pipeline, router trials included.
        let response = client
            .call(
                "transpile",
                object(vec![
                    ("source", Value::String(ghz3.to_string())),
                    ("topology", Value::String("tree-20".to_string())),
                    ("seed", Value::UInt(seed)),
                ]),
            )
            .expect("transpile");
        assert_eq!(str_field(&response, "cached"), "none");
    }
    let stats = client.call("stats", object(vec![])).expect("stats RPC");
    drop(entered);
    let spans = trace.finish().spans;
    assert!(
        spans.is_empty(),
        "the client's trace holds {} daemon spans, e.g. `{}`",
        spans.len(),
        spans[0].name
    );
    for histogram in ["latency_micros", "decode_micros"] {
        let count = stats
            .get(histogram)
            .and_then(|h| h.get("count"))
            .and_then(Value::as_u64)
            .unwrap_or(0);
        assert!(count >= REQUESTS, "{histogram}.count = {count}: {stats:?}");
    }
    client
        .call("shutdown", object(vec![]))
        .expect("shutdown RPC");
    server.join().expect("drain completes");
}

/// Reads one response line from a raw connection.
fn read_reply(reader: &mut BufReader<TcpStream>) -> Value {
    let mut line = String::new();
    reader.read_line(&mut line).expect("a reply line");
    serde_json::from_str(line.trim()).unwrap_or_else(|e| panic!("`{line}`: {e}"))
}

#[test]
fn a_frame_over_the_cap_is_refused_and_its_connection_closes() {
    let (server, addr) = spawn_tcp(None);
    let mut stream = TcpStream::connect(&addr).expect("raw client connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    // One byte over the cap, and no newline for the daemon to wait for.
    stream
        .write_all(&vec![b'x'; MAX_FRAME_BYTES + 1])
        .expect("the daemon reads the whole over-long frame");
    let mut reader = BufReader::new(stream);
    let reply = read_reply(&mut reader);
    assert_eq!(reply.get("id"), Some(&Value::Null), "{reply:?}");
    let error = reply.get("error").expect("an error reply");
    assert_eq!(str_field(error, "code"), "frame_too_large", "{reply:?}");
    let mut rest = String::new();
    assert_eq!(
        reader
            .read_line(&mut rest)
            .expect("a closed connection reads EOF"),
        0,
        "the daemon closes the connection after refusing: `{rest}`"
    );

    // A fresh client is served, and `stats` counts the refusal.
    let mut client = Client::connect_tcp(&addr).expect("client connects");
    let ping = client.call("ping", object(vec![])).expect("ping");
    assert_eq!(ping.get("ok"), Some(&Value::Bool(true)));
    let stats = client.call("stats", object(vec![])).expect("stats RPC");
    let refused = stats
        .get("requests")
        .and_then(|r| r.get("frames_refused"))
        .and_then(Value::as_u64);
    assert!(refused >= Some(1), "{stats:?}");
    server.shutdown();
    server.join().expect("drain completes");
}

#[test]
fn a_frame_split_inside_a_utf8_character_across_a_read_timeout_is_answered() {
    let (server, addr) = spawn_tcp(None);
    let mut stream = TcpStream::connect(&addr).expect("raw client connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let frame = "{\"id\": 1, \"method\": \"ping\", \"params\": {\"note\": \"é\"}}\n";
    // Split after the first byte of `é`, and pause past the daemon's
    // 100 ms read timeout so the first half arrives alone.
    let split = frame.find('é').unwrap() + 1;
    stream.write_all(&frame.as_bytes()[..split]).unwrap();
    std::thread::sleep(Duration::from_millis(400));
    stream.write_all(&frame.as_bytes()[split..]).unwrap();
    let mut reader = BufReader::new(stream);
    let reply = read_reply(&mut reader);
    assert_eq!(
        reply.get("result").and_then(|r| r.get("ok")),
        Some(&Value::Bool(true)),
        "{reply:?}"
    );
    // A whole frame that is not UTF-8 is a bad request, and the connection
    // stays open for the next one.
    reader.get_mut().write_all(b"\xff\n").unwrap();
    let reply = read_reply(&mut reader);
    let error = reply.get("error").expect("an error reply");
    assert_eq!(str_field(error, "code"), "bad_request", "{reply:?}");
    reader.get_mut().write_all(frame.as_bytes()).unwrap();
    assert!(read_reply(&mut reader).get("result").is_some());
    server.shutdown();
    server.join().expect("drain completes");
}

#[test]
fn a_non_finite_parameter_gets_an_error_reply_and_the_single_worker_lives_on() {
    let server = Server::spawn(ServeConfig {
        bind: Bind::Tcp("127.0.0.1:0".into()),
        workers: 1,
        queue_capacity: 4,
        store: None,
    })
    .expect("server spawns");
    let BoundAddr::Tcp(addr) = server.addr() else {
        unreachable!("tcp bind")
    };
    let addr = addr.to_string();
    let bad = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncu1(0/0) q[0],q[1];\n";
    let params = |source: &str| {
        object(vec![
            ("source", Value::String(source.to_string())),
            ("topology", Value::String("corral11-16".to_string())),
            ("basis", Value::String("sqrt-iswap".to_string())),
        ])
    };

    // The client blocks on each reply, so run the exchange on a thread and
    // bound the wait: a daemon that stops answering fails the test.
    let (done, outcome) = std::sync::mpsc::channel();
    let good = qaoa12_source();
    std::thread::spawn(move || {
        let mut client = Client::connect_tcp(&addr).expect("client connects");
        let failure = client
            .call("transpile", params(bad))
            .expect_err("a NaN angle is an error");
        let ping = client.call("ping", object(vec![]));
        let routed = client.call("transpile", params(&good));
        let _ = client.call("shutdown", object(vec![]));
        let _ = done.send((failure, ping, routed));
    });
    let (failure, ping, routed) = outcome
        .recv_timeout(std::time::Duration::from_secs(120))
        .expect("the daemon answers every request");
    assert_eq!(failure.code, "transpile_failed", "{failure}");
    assert!(failure.message.contains("4:1"), "{failure}");
    assert!(failure.message.contains("not a finite number"), "{failure}");
    assert_eq!(
        ping.expect("ping after the error").get("ok"),
        Some(&Value::Bool(true))
    );
    assert!(!str_field(&routed.expect("transpile after the error"), "routed_digest").is_empty());
    server.join().expect("drain completes");
}

#[test]
fn an_over_cap_inline_spec_gets_an_error_reply_and_the_single_worker_lives_on() {
    let server = Server::spawn(ServeConfig {
        bind: Bind::Tcp("127.0.0.1:0".into()),
        workers: 1,
        queue_capacity: 4,
        store: None,
    })
    .expect("server spawns");
    let BoundAddr::Tcp(addr) = server.addr() else {
        unreachable!("tcp bind")
    };
    let addr = addr.to_string();
    fn ghz3_on_line(qubits: usize) -> Value {
        let spec = format!(
            r#"{{"snailqc_device": 1, "name": "line_{qubits}", "topology": {{"generator": "line", "params": {{"qubits": {qubits}}}}}}}"#
        );
        let ghz3 = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n";
        object(vec![
            ("source", Value::String(ghz3.to_string())),
            ("device", serde_json::from_str(&spec).unwrap()),
        ])
    }

    // One worker: a request that panicked it would leave every later
    // transpile answered with `shutting_down`.
    let (done, outcome) = std::sync::mpsc::channel();
    let good = qaoa12_source();
    std::thread::spawn(move || {
        let mut client = Client::connect_tcp(&addr).expect("client connects");
        let over = client
            .call("transpile", ghz3_on_line(65_536))
            .expect_err("65,536 qubits exceed the cap");
        let at_cap = client.call("transpile", ghz3_on_line(65_535));
        let routed = client.call("transpile", transpile_params(&good));
        let _ = client.call("shutdown", object(vec![]));
        let _ = done.send((over, at_cap, routed));
    });
    let (over, at_cap, routed) = outcome
        .recv_timeout(std::time::Duration::from_secs(120))
        .expect("the daemon answers every request");
    assert!(
        over.message.contains("exceeds the supported maximum 65535"),
        "{over}"
    );
    let at_cap = at_cap.expect("a line at the cap routes");
    assert!(!str_field(&at_cap, "routed_digest").is_empty());
    assert!(!str_field(&routed.expect("transpile after the error"), "routed_digest").is_empty());
    server.join().expect("drain completes");
}

#[test]
fn an_inline_hypercube_at_the_qubit_cap_routes_and_the_single_worker_routes_on() {
    let server = Server::spawn(ServeConfig {
        bind: Bind::Tcp("127.0.0.1:0".into()),
        workers: 1,
        queue_capacity: 4,
        store: None,
    })
    .expect("server spawns");
    let BoundAddr::Tcp(addr) = server.addr() else {
        unreachable!("tcp bind")
    };
    let addr = addr.to_string();
    let spec = r#"{"snailqc_device": 1, "name": "hypercube_65535", "topology": {"generator": "hypercube", "params": {"qubits": 65535}}}"#;
    let ghz3 = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n";
    let at_cap = object(vec![
        ("source", Value::String(ghz3.to_string())),
        ("device", serde_json::from_str(spec).unwrap()),
    ]);

    // One worker: a graph build that held it would leave qaoa12 unanswered
    // past the bound, so both requests finishing shows it is free again.
    let (done, outcome) = std::sync::mpsc::channel();
    let good = qaoa12_source();
    std::thread::spawn(move || {
        let mut client = Client::connect_tcp(&addr).expect("client connects");
        let at_cap = client.call("transpile", at_cap);
        let routed = client.call("transpile", transpile_params(&good));
        let _ = client.call("shutdown", object(vec![]));
        let _ = done.send((at_cap, routed));
    });
    let (at_cap, routed) = outcome
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("the daemon answers both requests within the bound");
    let at_cap = at_cap.expect("a hypercube at the cap routes");
    assert!(!str_field(&at_cap, "routed_digest").is_empty());
    assert_eq!(
        at_cap
            .get("report")
            .and_then(|r| r.get("physical_qubits"))
            .and_then(Value::as_u64),
        Some(65_535)
    );
    assert!(!str_field(&routed.expect("qaoa12 routes after it"), "routed_digest").is_empty());
    server.join().expect("drain completes");
}

#[test]
fn warm_store_is_replayed_by_a_restarted_daemon() {
    let dir = temp_dir("restart");
    let store_path = dir.join("store.jsonl");
    let source = qaoa12_source();
    let translated = || {
        object(vec![
            ("source", Value::String(source.clone())),
            ("topology", Value::String("corral11-16".to_string())),
            ("basis", Value::String("sqrt-iswap".to_string())),
        ])
    };

    let (server, addr) = spawn_tcp(Some(store_path.clone()));
    let mut client = Client::connect_tcp(&addr).expect("client connects");
    let first = client
        .call("transpile", transpile_params(&source))
        .expect("cold transpile");
    assert_eq!(str_field(&first, "cached"), "none");
    let swaps = first
        .get("report")
        .and_then(|r| r.get("swap_count"))
        .and_then(Value::as_u64)
        .expect("swap count");
    let first_translated = client
        .call("transpile", translated())
        .expect("cold translated transpile");
    assert_eq!(str_field(&first_translated, "cached"), "none");
    server.shutdown();
    server.join().expect("first daemon drains");

    // A fresh daemon has a cold memory cache but the shared store file: the
    // same request replays the persisted report without re-routing.
    let (server, addr) = spawn_tcp(Some(store_path));
    let mut client = Client::connect_tcp(&addr).expect("client reconnects");
    let replayed = client
        .call("transpile", transpile_params(&source))
        .expect("warm transpile");
    assert_eq!(str_field(&replayed, "cached"), "store");
    assert_eq!(
        replayed
            .get("report")
            .and_then(|r| r.get("swap_count"))
            .and_then(Value::as_u64),
        Some(swaps),
        "replayed report must match the original"
    );
    // The replay names the circuit the cold run answered, with and without
    // a basis.
    let replayed_translated = client
        .call("transpile", translated())
        .expect("warm translated transpile");
    assert_eq!(str_field(&replayed_translated, "cached"), "store");
    for (cold, warm) in [
        (&first, &replayed),
        (&first_translated, &replayed_translated),
    ] {
        assert!(!str_field(warm, "routed_digest").is_empty());
        for field in ["routed_digest", "basis_digest", "report"] {
            assert_eq!(warm.get(field), cold.get(field), "`{field}` differs");
        }
    }
    assert!(!str_field(&replayed_translated, "basis_digest").is_empty());
    server.shutdown();
    server.join().expect("second daemon drains");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_cell_written_by_batch_store_is_a_daemon_store_hit_with_the_same_digests() {
    let dir = temp_dir("batch-store");
    let circuits = dir.join("circuits");
    std::fs::create_dir_all(&circuits).unwrap();
    let source = qaoa12_source();
    std::fs::write(circuits.join("qaoa12.qasm"), &source).unwrap();
    let store_path = dir.join("store.jsonl");

    let batch = Command::new(env!("CARGO_BIN_EXE_snailqc"))
        .args([
            "transpile",
            circuits.to_str().unwrap(),
            "--topology",
            "corral11-16",
            "--basis",
            "sqrt-iswap",
            "--seed",
            "9",
            "--store",
            store_path.to_str().unwrap(),
            "--json",
        ])
        .output()
        .expect("batch CLI runs");
    assert!(
        batch.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&batch.stderr)
    );
    let batch: Value = serde_json::from_str(&String::from_utf8(batch.stdout).unwrap()).unwrap();
    let row = &batch
        .get("files")
        .and_then(Value::as_array)
        .expect("batch rows")[0];
    let seed = row.get("seed").and_then(Value::as_u64).expect("row seed");

    let (server, addr) = spawn_tcp(Some(store_path));
    let mut client = Client::connect_tcp(&addr).expect("client connects");
    let replayed = client
        .call(
            "transpile",
            object(vec![
                ("source", Value::String(source)),
                ("topology", Value::String("corral11-16".to_string())),
                ("basis", Value::String("sqrt-iswap".to_string())),
                ("seed", Value::UInt(seed)),
            ]),
        )
        .expect("transpile");
    assert_eq!(str_field(&replayed, "cached"), "store");
    assert!(!str_field(&replayed, "basis_digest").is_empty());
    for field in ["routed_digest", "basis_digest", "report"] {
        assert_eq!(replayed.get(field), row.get(field), "`{field}` differs");
    }
    server.shutdown();
    server.join().expect("drain completes");
    std::fs::remove_dir_all(&dir).ok();
}

#[cfg(unix)]
#[test]
fn unix_socket_round_trip_and_cleanup() {
    let dir = temp_dir("unix");
    let socket = dir.join("snailqc.sock");
    let server = Server::spawn(ServeConfig {
        bind: Bind::Unix(socket.clone()),
        workers: 1,
        queue_capacity: 4,
        store: None,
    })
    .expect("unix server spawns");
    let mut client = Client::connect_unix(&socket).expect("unix client connects");
    let ping = client.call("ping", object(vec![])).expect("ping over unix");
    assert_eq!(ping.get("ok"), Some(&Value::Bool(true)));
    let response = client
        .call("transpile", transpile_params(&qaoa12_source()))
        .expect("transpile over unix");
    assert!(!str_field(&response, "routed_digest").is_empty());
    server.shutdown();
    server.join().expect("unix drain");
    assert!(!socket.exists(), "socket file removed on drain");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn file_backed_devices_match_the_cli_and_are_never_served_stale() {
    let dir = temp_dir("device");
    let spec_path = dir.join("bench.json");
    std::fs::write(
        &spec_path,
        r#"{"snailqc_device": 1, "name": "bench", "topology": {"generator": "tree", "params": {"levels": 1}}}"#,
    )
    .unwrap();
    let source = qaoa12_source();
    let (server, addr) = spawn_tcp(None);
    let mut client = Client::connect_tcp(&addr).expect("client connects");

    let device_params = |path: &PathBuf| {
        object(vec![
            ("source", Value::String(source.clone())),
            ("device", Value::String(path.display().to_string())),
        ])
    };

    // Digest parity with the one-shot CLI for the same spec file.
    let cli = Command::new(env!("CARGO_BIN_EXE_snailqc"))
        .args([
            "transpile",
            "examples/qaoa12.qasm",
            "--device",
            spec_path.to_str().unwrap(),
            "--json",
        ])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("one-shot CLI runs");
    assert!(
        cli.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&cli.stderr)
    );
    let cli_json: Value = serde_json::from_str(&String::from_utf8(cli.stdout).unwrap()).unwrap();
    let cli_digest = str_field(&cli_json, "routed_digest").to_string();

    let first = client
        .call("transpile", device_params(&spec_path))
        .expect("file-backed transpile");
    assert_eq!(str_field(&first, "routed_digest"), cli_digest);
    assert_eq!(str_field(&first, "cached"), "none");
    let repeat = client
        .call("transpile", device_params(&spec_path))
        .expect("repeat transpile");
    assert_eq!(str_field(&repeat, "cached"), "memory");
    assert_eq!(str_field(&repeat, "routed_digest"), cli_digest);

    // Editing the spec between requests must change the answer: the daemon
    // re-reads the file and keys its warm pool and caches by content, so the
    // stale tree-shaped result cannot replay for the new ring topology.
    std::fs::write(
        &spec_path,
        r#"{"snailqc_device": 1, "name": "bench", "topology": {"generator": "ring", "params": {"qubits": 20}}}"#,
    )
    .unwrap();
    let edited = client
        .call("transpile", device_params(&spec_path))
        .expect("transpile after edit");
    assert_eq!(str_field(&edited, "cached"), "none", "stale cache replay");
    assert_ne!(
        str_field(&edited, "routed_digest"),
        cli_digest,
        "edited spec must route differently"
    );

    // A spec passed inline as a JSON object behaves like the file contents.
    let inline = client
        .call(
            "transpile",
            object(vec![
                ("source", Value::String(source.clone())),
                (
                    "device",
                    serde_json::from_str(&std::fs::read_to_string(&spec_path).unwrap()).unwrap(),
                ),
            ]),
        )
        .expect("inline spec transpile");
    assert_eq!(
        str_field(&inline, "routed_digest"),
        str_field(&edited, "routed_digest"),
        "inline spec must match the file it mirrors"
    );

    // `device` and `topology` together is a structured error.
    let conflict = client
        .call(
            "transpile",
            object(vec![
                ("source", Value::String(source.clone())),
                ("device", Value::String(spec_path.display().to_string())),
                ("topology", Value::String("tree-20".into())),
            ]),
        )
        .expect_err("conflicting params are rejected");
    assert_eq!(conflict.code, "bad_request");

    server.shutdown();
    server.join().expect("drain completes");
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs `snailqc transpile examples/qaoa12.qasm <flags> --json` and parses
/// its report.
fn cli_json(flags: &[&str]) -> Value {
    let cli = Command::new(env!("CARGO_BIN_EXE_snailqc"))
        .args(["transpile", "examples/qaoa12.qasm", "--json"])
        .args(flags)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("one-shot CLI runs");
    assert!(
        cli.status.success(),
        "{flags:?}: {}",
        String::from_utf8_lossy(&cli.stderr)
    );
    serde_json::from_str(&String::from_utf8(cli.stdout).unwrap()).expect("CLI emits valid JSON")
}

#[test]
fn daemon_and_cli_resolve_every_request_axis_identically() {
    let text = |s: &str| Value::String(s.to_string());
    let cases = vec![
        // A catalog name, through the alias and through `device`.
        (
            vec!["--topology", "corral11-16", "--basis", "sqrt-iswap"],
            vec![
                ("topology", text("corral11-16")),
                ("basis", text("sqrt-iswap")),
            ],
        ),
        (
            vec!["--device", "Corral1,1-16", "--basis", "sqrt-iswap"],
            vec![
                ("device", text("Corral1,1-16")),
                ("basis", text("sqrt-iswap")),
            ],
        ),
        // A shipped spec by name through the alias: the basis is inherited
        // from the spec, or stripped with `none`.
        (
            vec!["--topology", "ibm-heavy-hex-127"],
            vec![("topology", text("ibm-heavy-hex-127"))],
        ),
        (
            vec!["--topology", "ibm-heavy-hex-127", "--basis", "none"],
            vec![
                ("topology", text("ibm-heavy-hex-127")),
                ("basis", text("none")),
            ],
        ),
        // An error model, with the derived weight and with an explicit one.
        (
            vec!["--device", "tree-20", "--error-model", "calibrated"],
            vec![
                ("device", text("tree-20")),
                ("error_model", text("calibrated")),
            ],
        ),
        (
            vec![
                "--device",
                "tree-20",
                "--error-model",
                "calibrated",
                "--error-weight",
                "0.5",
            ],
            vec![
                ("device", text("tree-20")),
                ("error_model", text("calibrated")),
                ("error_weight", Value::Float(0.5)),
            ],
        ),
        // The pipeline axes.
        (
            vec![
                "--topology",
                "tree-20",
                "--layout",
                "trivial",
                "--trials",
                "2",
                "--seed",
                "5",
            ],
            vec![
                ("topology", text("tree-20")),
                ("layout", text("trivial")),
                ("trials", Value::UInt(2)),
                ("seed", Value::UInt(5)),
            ],
        ),
    ];

    let source = qaoa12_source();
    let (server, addr) = spawn_tcp(None);
    let mut client = Client::connect_tcp(&addr).expect("client connects");
    for (flags, params) in cases {
        let cli = cli_json(&flags);
        let mut pairs = vec![("source", Value::String(source.clone()))];
        pairs.extend(params);
        let daemon = client
            .call("transpile", object(pairs))
            .unwrap_or_else(|e| panic!("{flags:?}: {e:?}"));
        assert!(!str_field(&daemon, "routed_digest").is_empty());
        assert!(daemon.get("report").is_some(), "{daemon:?}");
        for field in ["routed_digest", "basis_digest", "report"] {
            assert_eq!(
                daemon.get(field),
                cli.get(field),
                "`{field}` differs for {flags:?}"
            );
        }
    }
    server.shutdown();
    server.join().expect("drain completes");
}
