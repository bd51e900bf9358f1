//! Hostile QASM inputs that once took the front end down: sums, nested
//! parentheses and prefix chains deep enough to overflow the call stack,
//! gate definitions whose expansion doubles at every level, and tens of
//! thousands of register declarations. Each one now parses, or is refused
//! with a `line:col` error, on a small stack and in bounded time, through
//! the library, the CLI and a live `serve` daemon.

mod support;

use serde::Value;
use snailqc::circuit::Gate;
use snailqc::qasm::{parse3_circuit, parse_circuit, MAX_EXPANDED_GATES};
use snailqc::serve::protocol::object;
use snailqc::serve::{Bind, BoundAddr, ServeConfig, Server};
use std::process::Command;
use std::time::{Duration, Instant};
use support::Client;

/// `rx(angle) q[0];` on one qubit, in both dialects.
fn rx_programs(angle: &str) -> [String; 2] {
    [
        format!("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[1];\nrx({angle}) q[0];\n"),
        format!("OPENQASM 3.0;\ninclude \"stdgates.inc\";\nqubit[1] q;\nrx({angle}) q[0];\n"),
    ]
}

/// 40,000 terms of `1+1+…+1`.
fn long_sum() -> String {
    vec!["1"; 40_000].join("+")
}

/// 24 definitions, each calling the one before it twice: 2²³ gates from
/// under a kilobyte of text. The application sits at line 28, column 1.
fn doubling_definitions() -> String {
    let mut src = String::from("OPENQASM 2.0;\ninclude \"qelib1.inc\";\ngate g0 a { x a; }\n");
    for k in 1..24 {
        src += &format!("gate g{k} a {{ g{} a; g{} a; }}\n", k - 1, k - 1);
    }
    src + "qreg q[1];\ng23 q[0];\n"
}

/// Runs `f` on a thread with a 512 KiB stack, a quarter of a serve
/// worker's.
fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(512 << 10)
        .spawn(f)
        .expect("thread spawns")
        .join()
        .expect("parsing does not panic")
}

#[test]
fn deep_expressions_parse_to_their_exact_angle_on_a_small_stack() {
    let sum = (1..40_000).fold(1.0f64, |acc, _| acc + 1.0);
    let cases = [
        (long_sum(), sum),
        (
            format!("{}0.5{}", "(".repeat(20_000), ")".repeat(20_000)),
            0.5,
        ),
        (format!("{}0.25", "-".repeat(100_000)), 0.25),
        (format!("{}0.25", "-".repeat(100_001)), -0.25),
    ];
    for (angle, want) in cases {
        let [v2, v3] = rx_programs(&angle);
        let (c2, c3) = on_small_stack(move || (parse_circuit(&v2), parse3_circuit(&v3)));
        for circuit in [c2.unwrap(), c3.unwrap()] {
            assert_eq!(circuit.len(), 1);
            match circuit.instructions()[0].gate {
                Gate::RX(got) => assert_eq!(got.to_bits(), want.to_bits(), "{got} vs {want}"),
                ref other => panic!("expected an rx gate, got {other:?}"),
            }
        }
    }
}

#[test]
fn doubling_definitions_are_refused_at_their_application_before_expanding() {
    let src = doubling_definitions();
    assert!(src.len() < 1024, "{} bytes", src.len());
    let v3 = src
        .replace("OPENQASM 2.0;", "OPENQASM 3.0;")
        .replace("qelib1.inc", "stdgates.inc");
    let started = Instant::now();
    let (e2, e3) = on_small_stack(move || (parse_circuit(&src), parse3_circuit(&v3)));
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "{:?}",
        started.elapsed()
    );
    for err in [e2.unwrap_err(), e3.unwrap_err()] {
        assert_eq!((err.line, err.col), (28, 1), "{err}");
        let limit = format!("limit of {MAX_EXPANDED_GATES}");
        assert!(err.message.contains(&limit), "{err}");
    }
}

/// 20,000 one-qubit registers, each followed by a gate on it, in both
/// dialects. Declaring a register once rebuilt the whole circuit, which made
/// this take half a minute.
fn many_registers() -> [String; 2] {
    let (mut v2, mut v3) = (
        String::from("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n"),
        String::from("OPENQASM 3.0;\ninclude \"stdgates.inc\";\n"),
    );
    for r in 0..20_000 {
        v2 += &format!("qreg r{r}[1];\nh r{r}[0];\n");
        v3 += &format!("qubit r{r};\nh r{r};\n");
    }
    [v2, v3]
}

#[test]
fn many_register_declarations_parse_in_linear_time() {
    let [v2, v3] = many_registers();
    let dir = std::env::temp_dir().join(format!("snailqc-registers-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("registers.qasm");
    std::fs::write(&path, &v2).unwrap();
    let started = Instant::now();
    let (c2, c3) = (parse_circuit(&v2).unwrap(), parse3_circuit(&v3).unwrap());
    let cli = Command::new(env!("CARGO_BIN_EXE_snailqc"))
        .arg("parse")
        .arg(&path)
        .output()
        .expect("the CLI runs");
    let elapsed = started.elapsed();
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(elapsed < Duration::from_secs(20), "{elapsed:?}");
    assert_eq!(c2, c3);
    assert_eq!((c2.num_qubits(), c2.len()), (20_000, 20_000));
    assert_eq!(c2.instructions()[19_999].qubits, vec![19_999]);
    let stdout = String::from_utf8_lossy(&cli.stdout);
    assert!(
        cli.status.success(),
        "{}",
        String::from_utf8_lossy(&cli.stderr)
    );
    assert!(stdout.contains("h:20000"), "{stdout}");
}

#[test]
fn the_cli_parses_the_long_sum_and_refuses_the_doubling_definitions() {
    let dir = std::env::temp_dir().join(format!("snailqc-hostile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let [sum, _] = rx_programs(&long_sum());
    let (sum_path, doubling_path) = (dir.join("sum.qasm"), dir.join("doubling.qasm"));
    std::fs::write(&sum_path, sum).unwrap();
    std::fs::write(&doubling_path, doubling_definitions()).unwrap();
    let parse = |path: &std::path::Path| {
        Command::new(env!("CARGO_BIN_EXE_snailqc"))
            .arg("parse")
            .arg(path)
            .output()
            .expect("the CLI runs")
    };
    let (ok, refused) = (parse(&sum_path), parse(&doubling_path));
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stderr)
    );
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert!(!refused.status.success());
    assert!(stderr.contains("28:1"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn serve_answers_deep_nesting_and_refuses_doubling_definitions_then_still_pings() {
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
    let params = |source: String| {
        object(vec![
            ("source", Value::String(source)),
            ("topology", Value::String("corral11-16".to_string())),
        ])
    };
    let [nested, _] = rx_programs(&format!("{}1{}", "(".repeat(3_000), ")".repeat(3_000)));
    let doubling = doubling_definitions();

    // The client blocks on each reply, so run the exchange on a thread and
    // bound the wait: a daemon that stops answering fails the test.
    let (done, outcome) = std::sync::mpsc::channel();
    let client = std::thread::spawn(move || {
        let mut client = Client::connect_tcp(&addr).expect("client connects");
        let routed = client.call("transpile", params(nested));
        let started = Instant::now();
        let refused = client.call("transpile", params(doubling));
        let refused_in = started.elapsed();
        let ping = client.call("ping", object(vec![]));
        let _ = client.call("shutdown", object(vec![]));
        let _ = done.send((routed, refused, refused_in, ping));
    });
    let (routed, refused, refused_in, ping) = outcome
        .recv_timeout(Duration::from_secs(120))
        .expect("the daemon answers every request");
    client.join().expect("the client thread finishes");
    let routed = routed.expect("the nested request routes");
    assert!(routed
        .get("routed_digest")
        .and_then(Value::as_str)
        .is_some());
    let failure = refused.expect_err("the doubling definitions are refused");
    assert_eq!(failure.code, "transpile_failed", "{failure}");
    assert!(failure.message.contains("28:1"), "{failure}");
    assert!(refused_in < Duration::from_secs(2), "{refused_in:?}");
    assert_eq!(
        ping.expect("ping after both").get("ok"),
        Some(&Value::Bool(true))
    );
    server.join().expect("drain completes");
}
