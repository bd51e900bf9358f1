//! End-to-end tests of the `snailqc` binary's noise-aware transpile path:
//! golden JSON output for a preset error model, the degraded-edge
//! improvement scenario through a JSON error-model file, and the
//! observability exports (`--trace-out` / `--metrics-json`).

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn snailqc(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_snailqc"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("snailqc binary runs")
}

/// Runs `snailqc` like [`snailqc`], but kills the child and fails the test
/// when it is still running after `bound`. Output is read after the child
/// exits, so it must fit the pipe buffers (a report, not routed QASM).
fn snailqc_within(args: &[&str], bound: Duration) -> std::process::Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_snailqc"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("snailqc binary runs");
    let start = Instant::now();
    while child.try_wait().expect("child status").is_none() {
        if start.elapsed() > bound {
            child.kill().expect("kill the child");
            child.wait().expect("reap the child");
            panic!("`snailqc {}` still running after {bound:?}", args.join(" "));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("child output")
}

/// Structural JSON equality with a 1e-12 relative tolerance on numbers:
/// `powf` is lowered to the platform libm, whose last-ulp behaviour differs
/// between glibc/musl/macOS, so byte-exact float comparison would be flaky
/// across toolchains while any real routing drift changes integers anyway.
fn json_approx_eq(a: &serde_json::Value, b: &serde_json::Value, path: &str) {
    use serde_json::Value;
    match (a, b) {
        (Value::Object(xs), Value::Object(ys)) => {
            let keys = |entries: &[(String, Value)]| {
                entries.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>()
            };
            assert_eq!(keys(xs), keys(ys), "object keys differ at {path}");
            for ((k, x), (_, y)) in xs.iter().zip(ys) {
                json_approx_eq(x, y, &format!("{path}.{k}"));
            }
        }
        (Value::Array(xs), Value::Array(ys)) => {
            assert_eq!(xs.len(), ys.len(), "array length differs at {path}");
            for (i, (x, y)) in xs.iter().zip(ys).enumerate() {
                json_approx_eq(x, y, &format!("{path}[{i}]"));
            }
        }
        _ => match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) => {
                let tolerance = 1e-12 * x.abs().max(y.abs()).max(1.0);
                assert!((x - y).abs() <= tolerance, "{path}: {x} != {y}");
            }
            _ => assert_eq!(a, b, "value differs at {path}"),
        },
    }
}

#[test]
fn transpile_with_decoherence_preset_matches_golden_json() {
    let output = snailqc(&[
        "transpile",
        "examples/qaoa12.qasm",
        "--topology",
        "corral11-16",
        "--error-model",
        "decoherence",
        "--json",
    ]);
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let got = serde_json::from_str(&stdout).expect("CLI emits valid JSON");
    let golden = serde_json::from_str(include_str!("data/qaoa12_decoherence.json"))
        .expect("golden file is valid JSON");
    // Any drift means the router or the output schema changed; regenerate
    // tests/data/qaoa12_decoherence.json if the change is intentional.
    json_approx_eq(&got, &golden, "$");
}

#[test]
fn degraded_edge_error_model_improves_estimated_infidelity() {
    // The acceptance scenario: one corral edge degraded 10× via a JSON error
    // model. The noise-aware router must beat the noise-blind router on
    // estimated infidelity, and the JSON must surface both estimates.
    let output = snailqc(&[
        "transpile",
        "examples/qaoa12.qasm",
        "--topology",
        "corral11-16",
        "--error-model",
        "tests/data/corral_degraded.json",
        "--json",
    ]);
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).unwrap();
    let json = serde_json::from_str(&stdout).expect("valid JSON output");
    let fidelity = json.get("fidelity").expect("fidelity block present");
    let blind = fidelity
        .get("noise_blind")
        .and_then(|f| f.get("total_fidelity"))
        .and_then(|v| v.as_f64())
        .expect("noise-blind estimate");
    let aware = fidelity
        .get("noise_aware")
        .and_then(|f| f.get("total_fidelity"))
        .and_then(|v| v.as_f64())
        .expect("noise-aware estimate");
    let improvement = fidelity
        .get("infidelity_improvement")
        .and_then(|v| v.as_f64())
        .expect("improvement ratio");
    assert!(
        aware > blind,
        "noise-aware routing must beat noise-blind on the degraded corral: \
         {aware} vs {blind}"
    );
    assert!(improvement > 1.0, "improvement = {improvement}");
}

#[test]
fn unknown_error_model_reports_the_preset_list() {
    let output = snailqc(&[
        "transpile",
        "examples/qaoa12.qasm",
        "--topology",
        "corral11-16",
        "--error-model",
        "bogus",
    ]);
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("decoherence"), "stderr: {stderr}");
}

#[test]
fn flag_equals_value_form_matches_the_space_form() {
    // The PR-3 flag-parsing fix: `--flag=value` used to error as an unknown
    // flag; now both spellings must produce identical output.
    let spaced = snailqc(&[
        "transpile",
        "examples/qaoa12.qasm",
        "--topology",
        "corral11-16",
        "--basis",
        "sqrt-iswap",
        "--seed",
        "7",
        "--json",
    ]);
    let equals = snailqc(&[
        "transpile",
        "examples/qaoa12.qasm",
        "--topology=corral11-16",
        "--basis=sqrt-iswap",
        "--seed=7",
        "--json",
    ]);
    assert!(
        spaced.status.success() && equals.status.success(),
        "stderr: {} / {}",
        String::from_utf8_lossy(&spaced.stderr),
        String::from_utf8_lossy(&equals.stderr)
    );
    assert_eq!(spaced.stdout, equals.stdout);
}

#[test]
fn bool_flags_reject_inline_values_and_unknown_flags_still_error() {
    let with_value = snailqc(&[
        "transpile",
        "examples/qaoa12.qasm",
        "--topology=corral11-16",
        "--json=1",
    ]);
    assert!(!with_value.status.success());
    assert!(String::from_utf8_lossy(&with_value.stderr).contains("does not take a value"));

    let unknown = snailqc(&[
        "transpile",
        "examples/qaoa12.qasm",
        "--topology=corral11-16",
        "--bogus=3",
    ]);
    assert!(!unknown.status.success());
    assert!(String::from_utf8_lossy(&unknown.stderr).contains("unknown option"));
}

#[test]
fn batch_mode_aggregates_a_directory_deterministically() {
    // `snailqc transpile <dir>`: every .qasm file routed in parallel with
    // deterministic per-file seeds, one aggregated JSON report.
    let dir = std::env::temp_dir().join(format!("snailqc-batch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for (name, qubits) in [("ghz6", 6), ("ghz9", 9)] {
        let body: String = (1..qubits)
            .map(|q| format!("cx q[{}], q[{}];\n", q - 1, q))
            .collect();
        std::fs::write(
            dir.join(format!("{name}.qasm")),
            format!("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[{qubits}];\nh q[0];\n{body}"),
        )
        .unwrap();
    }
    // A non-QASM file must be ignored, not break the batch.
    std::fs::write(dir.join("notes.txt"), "not a circuit").unwrap();

    let run = || {
        let output = snailqc(&[
            "transpile",
            dir.to_str().unwrap(),
            "--topology=tree-20",
            "--basis=sqrt-iswap",
            "--seed=5",
            "--json",
        ]);
        assert!(
            output.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        String::from_utf8(output.stdout).unwrap()
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "batch output must be deterministic");

    let json = serde_json::from_str(&first).expect("valid aggregated JSON");
    let summary = json.get("summary").expect("summary block");
    assert_eq!(summary.get("files").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(summary.get("transpiled").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(summary.get("failed").and_then(|v| v.as_u64()), Some(0));
    let files = json.get("files").and_then(|v| v.as_array()).expect("files");
    assert_eq!(files.len(), 2);
    // Sorted by file name, each with its own derived seed and a report.
    assert_eq!(
        files[0].get("file").and_then(|v| v.as_str()),
        Some("ghz6.qasm")
    );
    assert_eq!(
        files[1].get("file").and_then(|v| v.as_str()),
        Some("ghz9.qasm")
    );
    let seeds: Vec<u64> = files
        .iter()
        .map(|f| f.get("seed").and_then(|v| v.as_u64()).expect("seed"))
        .collect();
    assert_ne!(seeds[0], seeds[1], "per-file seeds must differ");
    for f in files {
        assert!(f.get("report").map(|r| r.get("swap_count").is_some()) == Some(true));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn transpile_auto_detects_the_qasm3_example_end_to_end() {
    // The acceptance scenario: `snailqc transpile examples/qaoa12_v3.qasm`
    // succeeds via header auto-detection, and produces the same report as
    // the equivalent v2 file.
    let run = |file: &str| {
        let output = snailqc(&[
            "transpile",
            file,
            "--topology=corral11-16",
            "--basis=sqrt-iswap",
            "--seed=7",
            "--json",
        ]);
        assert!(
            output.status.success(),
            "{file} stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        serde_json::from_str(&String::from_utf8(output.stdout).unwrap()).expect("valid JSON")
    };
    let v2 = run("examples/qaoa12.qasm");
    let v3 = run("examples/qaoa12_v3.qasm");
    assert_eq!(
        v2.get("report"),
        v3.get("report"),
        "both dialects of the same circuit must transpile identically"
    );
}

#[test]
fn parse_reports_the_detected_version() {
    let output = snailqc(&["parse", "examples/qaoa12_v3.qasm", "--json"]);
    assert!(output.status.success());
    let json: serde_json::Value =
        serde_json::from_str(&String::from_utf8(output.stdout).unwrap()).unwrap();
    assert_eq!(json.get("version").and_then(|v| v.as_str()), Some("3.0"));
    assert_eq!(json.get("qubits").and_then(|v| v.as_u64()), Some(12));

    let output = snailqc(&["parse", "examples/qaoa12.qasm", "--json"]);
    let json: serde_json::Value =
        serde_json::from_str(&String::from_utf8(output.stdout).unwrap()).unwrap();
    assert_eq!(json.get("version").and_then(|v| v.as_str()), Some("2.0"));
}

#[test]
fn emit_qasm3_and_convert_round_trip_byte_identically() {
    let dir = std::env::temp_dir().join(format!("snailqc-v3-pipe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let p = |name: &str| dir.join(name).to_str().unwrap().to_string();

    // emit --qasm3 produces a v3 header + v3 declarations.
    let output = snailqc(&[
        "emit",
        "qft",
        "--qubits",
        "6",
        "--qasm3",
        "--measure-all",
        "-o",
        &p("qft6_v3.qasm"),
    ]);
    assert!(output.status.success());
    let text = std::fs::read_to_string(p("qft6_v3.qasm")).unwrap();
    assert!(text.starts_with("OPENQASM 3.0;"), "{text}");
    assert!(text.contains("qubit[6] q;"), "{text}");
    assert!(text.contains("c = measure q;"), "{text}");

    // v2 → v3 → v2 through `convert` is byte-identical (the CI smoke pipe).
    assert!(
        snailqc(&["emit", "qft", "--qubits", "6", "-o", &p("qft6.qasm")])
            .status
            .success()
    );
    assert!(snailqc(&[
        "convert",
        &p("qft6.qasm"),
        "--qasm3",
        "-o",
        &p("pipe_v3.qasm")
    ])
    .status
    .success());
    assert!(
        snailqc(&["convert", &p("pipe_v3.qasm"), "-o", &p("pipe_back.qasm")])
            .status
            .success()
    );
    assert_eq!(
        std::fs::read_to_string(p("qft6.qasm")).unwrap(),
        std::fs::read_to_string(p("pipe_back.qasm")).unwrap(),
        "v2 → v3 → v2 must be byte-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn convert_preserves_full_register_measurement_and_warns_on_partial() {
    let dir = std::env::temp_dir().join(format!("snailqc-convert-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let p = |name: &str| dir.join(name).to_str().unwrap().to_string();

    // A full-register measurement survives conversion in both directions.
    std::fs::write(
        p("bell.qasm"),
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\n\
         h q[0];\ncx q[0],q[1];\nmeasure q -> c;\n",
    )
    .unwrap();
    let output = snailqc(&["convert", &p("bell.qasm"), "--qasm3"]);
    assert!(output.status.success());
    let text = String::from_utf8(output.stdout).unwrap();
    assert!(text.contains("bit[2] c;"), "{text}");
    assert!(text.contains("c = measure q;"), "{text}");
    let back = snailqc(&["convert", &p("bell.qasm")]);
    let text = String::from_utf8(back.stdout).unwrap();
    assert!(text.contains("measure q -> c;"), "{text}");

    // A partial measurement cannot be represented: dropped with a warning.
    std::fs::write(
        p("partial.qasm"),
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\ncreg c[1];\n\
         h q[0];\nmeasure q[0] -> c[0];\n",
    )
    .unwrap();
    let output = snailqc(&["convert", &p("partial.qasm"), "--qasm3"]);
    assert!(output.status.success());
    let text = String::from_utf8(output.stdout).unwrap();
    assert!(!text.contains("measure"), "{text}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("partial measurements"),
        "stderr must warn: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batch_mode_walks_recursively_over_mixed_dialects() {
    let dir = std::env::temp_dir().join(format!("snailqc-batch-mixed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("nested")).unwrap();
    // One v2 file at the top level, one v3 file in a subdirectory.
    std::fs::write(
        dir.join("bell_v2.qasm"),
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("nested/bell_v3.qasm"),
        "OPENQASM 3.0;\ninclude \"stdgates.inc\";\nqubit[2] q;\nh q[0];\nctrl @ x q[0],q[1];\n",
    )
    .unwrap();

    let output = snailqc(&[
        "transpile",
        dir.to_str().unwrap(),
        "--topology=tree-20",
        "--seed=5",
        "--json",
    ]);
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let json: serde_json::Value =
        serde_json::from_str(&String::from_utf8(output.stdout).unwrap()).unwrap();
    let summary = json.get("summary").unwrap();
    assert_eq!(summary.get("files").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(summary.get("transpiled").and_then(|v| v.as_u64()), Some(2));
    let files = json.get("files").and_then(|v| v.as_array()).unwrap();
    let names: Vec<&str> = files
        .iter()
        .map(|f| f.get("file").and_then(|v| v.as_str()).unwrap())
        .collect();
    assert_eq!(names, vec!["bell_v2.qasm", "nested/bell_v3.qasm"]);
    // Identical circuits (the v3 `ctrl @ x` lowers to the same cx), so the
    // reports differ only through their per-file seeds.
    for f in files {
        let report = f.get("report").expect("report present");
        assert_eq!(
            report.get("input_two_qubit_gates").and_then(|v| v.as_u64()),
            Some(1)
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batch_store_replays_cached_cells_on_the_second_run() {
    let dir = std::env::temp_dir().join(format!("snailqc-batch-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for (name, qubits) in [("ghz5", 5), ("ghz8", 8)] {
        let body: String = (1..qubits)
            .map(|q| format!("cx q[{}], q[{}];\n", q - 1, q))
            .collect();
        std::fs::write(
            dir.join(format!("{name}.qasm")),
            format!("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[{qubits}];\nh q[0];\n{body}"),
        )
        .unwrap();
    }
    let store = dir.join("cache.jsonl");

    let run = || {
        let output = snailqc(&[
            "transpile",
            dir.to_str().unwrap(),
            "--topology=tree-20",
            "--basis=sqrt-iswap",
            "--seed=5",
            &format!("--store={}", store.display()),
            "--json",
        ]);
        assert!(
            output.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        serde_json::from_str(&String::from_utf8(output.stdout).unwrap()).expect("valid JSON")
    };
    let first = run();
    let second = run();

    let hits = |json: &serde_json::Value| {
        json.get("summary")
            .and_then(|s| s.get("cache_hits"))
            .and_then(|v| v.as_u64())
            .expect("cache_hits in summary")
    };
    // `cache.jsonl` itself is not a .qasm file, so the walk skips it; the
    // first run routes everything, the second replays every cell.
    assert_eq!(hits(&first), 0);
    assert_eq!(hits(&second), 2, "second run must replay both cells");
    let cached_flags = |json: &serde_json::Value| -> Vec<bool> {
        json.get("files")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|f| f.get("cached") == Some(&serde_json::Value::Bool(true)))
            .collect()
    };
    assert_eq!(cached_flags(&first), vec![false, false]);
    assert_eq!(cached_flags(&second), vec![true, true]);
    // Replayed reports are identical to the originally-routed ones.
    let reports = |json: &serde_json::Value| -> Vec<(serde_json::Value, serde_json::Value)> {
        json.get("files")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|f| {
                (
                    f.get("file").expect("file name").clone(),
                    f.get("report").expect("report").clone(),
                )
            })
            .collect()
    };
    assert_eq!(reports(&first), reports(&second));

    // Changing any pipeline knob — here the layout strategy — misses the
    // cache instead of replaying stale reports.
    let relayout = snailqc(&[
        "transpile",
        dir.to_str().unwrap(),
        "--topology=tree-20",
        "--basis=sqrt-iswap",
        "--seed=5",
        "--layout=trivial",
        &format!("--store={}", store.display()),
        "--json",
    ]);
    assert!(relayout.status.success());
    let relayout: serde_json::Value =
        serde_json::from_str(&String::from_utf8(relayout.stdout).unwrap()).unwrap();
    assert_eq!(hits(&relayout), 0, "a different layout must not replay");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batch_rows_carry_the_single_file_digests_at_the_row_seed() {
    // A batch row names the circuit it stands for: its digests are the ones
    // `transpile <file> --json` reports for that file at the row's seed, and
    // with `--emit-dir` the written QASM 2 file is the digested text.
    let dir = std::env::temp_dir().join(format!("snailqc-batch-digest-{}", std::process::id()));
    let out = dir.join("out");
    let circuits = dir.join("in");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&circuits).unwrap();
    for (name, qubits) in [("ghz5", 5), ("ghz7", 7)] {
        let body: String = (1..qubits).map(|q| format!("cx q[0], q[{q}];\n")).collect();
        std::fs::write(
            circuits.join(format!("{name}.qasm")),
            format!("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[{qubits}];\nh q[0];\n{body}"),
        )
        .unwrap();
    }
    let output = snailqc(&[
        "transpile",
        circuits.to_str().unwrap(),
        "--topology=tree-20",
        "--basis=sqrt-iswap",
        "--seed=5",
        &format!("--emit-dir={}", out.display()),
        "--json",
    ]);
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let json: serde_json::Value =
        serde_json::from_str(&String::from_utf8(output.stdout).unwrap()).expect("valid JSON");
    let files = json.get("files").and_then(|v| v.as_array()).expect("files");
    assert_eq!(files.len(), 2);
    for row in files {
        let text = |value: &serde_json::Value, key: &str| {
            value
                .get(key)
                .and_then(|v| v.as_str())
                .unwrap_or_else(|| panic!("`{key}` missing in {value:?}"))
                .to_string()
        };
        let name = text(row, "file");
        let seed = row.get("seed").and_then(|v| v.as_u64()).expect("seed");
        let single = snailqc(&[
            "transpile",
            circuits.join(&name).to_str().unwrap(),
            "--topology=tree-20",
            "--basis=sqrt-iswap",
            &format!("--seed={seed}"),
            "--json",
        ]);
        assert!(single.status.success(), "{name}");
        let single: serde_json::Value =
            serde_json::from_str(&String::from_utf8(single.stdout).unwrap()).unwrap();
        for key in ["routed_digest", "basis_digest"] {
            assert_eq!(text(row, key), text(&single, key), "{name}: `{key}`");
        }
        assert_eq!(row.get("report"), single.get("report"), "{name}");
        let written = std::fs::read(out.join(&name)).expect("emitted file");
        assert_eq!(
            format!("{:016x}", snailqc_util::fnv1a_64(&written)),
            text(row, "basis_digest"),
            "{name}: the emitted file is the translated circuit"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn single_file_transpile_refuses_the_batch_only_flags() {
    // `--store` and `--emit-dir` act on batch mode only; with a file they
    // used to be accepted and ignored, writing nothing.
    let dir = std::env::temp_dir().join(format!("snailqc-batch-only-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("s.jsonl");
    let emit_dir = dir.join("out");
    for flag in [
        format!("--store={}", store.display()),
        format!("--emit-dir={}", emit_dir.display()),
    ] {
        let output = snailqc(&[
            "transpile",
            "examples/qaoa12.qasm",
            "--topology",
            "corral11-16",
            &flag,
            "--json",
        ]);
        assert!(!output.status.success(), "{flag} was accepted");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("batch mode"), "{flag}: {stderr}");
        assert!(output.stdout.is_empty(), "{flag}: a report was printed");
    }
    assert!(!store.exists() && !emit_dir.exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batch_mode_surfaces_per_file_errors_without_aborting() {
    let dir = std::env::temp_dir().join(format!("snailqc-batch-err-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("good.qasm"),
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[4];\nh q[0];\ncx q[0], q[1];\n",
    )
    .unwrap();
    std::fs::write(dir.join("broken.qasm"), "OPENQASM 2.0;\nqreg q[").unwrap();

    let output = snailqc(&[
        "transpile",
        dir.to_str().unwrap(),
        "--topology=hypercube-16",
        "--json",
    ]);
    assert!(
        output.status.success(),
        "a partial batch still succeeds: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let json =
        serde_json::from_str(&String::from_utf8(output.stdout).unwrap()).expect("valid JSON");
    let summary = json.get("summary").unwrap();
    assert_eq!(summary.get("transpiled").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(summary.get("failed").and_then(|v| v.as_u64()), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batch_mode_emit_dir_mirrors_routed_qasm_next_to_the_report() {
    // `snailqc transpile <dir> --emit-dir <out>`: every file's routed
    // circuit lands under <out> at its directory-relative path, parseable
    // and device-respecting, alongside the aggregated JSON report.
    let dir = std::env::temp_dir().join(format!("snailqc-batch-emit-{}", std::process::id()));
    let out = std::env::temp_dir().join(format!("snailqc-batch-emit-out-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&out);
    std::fs::create_dir_all(dir.join("sub")).unwrap();
    let circuit = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[6];\nh q[0];\ncx q[0], q[5];\ncx q[1], q[4];\n";
    std::fs::write(dir.join("top.qasm"), circuit).unwrap();
    std::fs::write(dir.join("sub").join("nested.qasm"), circuit).unwrap();

    let output = snailqc(&[
        "transpile",
        dir.to_str().unwrap(),
        "--topology=square-lattice-16",
        "--emit-dir",
        out.to_str().unwrap(),
        "--seed=9",
        "--json",
    ]);
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let json =
        serde_json::from_str(&String::from_utf8(output.stdout).unwrap()).expect("valid JSON");
    let files = json.get("files").and_then(|v| v.as_array()).expect("files");
    assert_eq!(files.len(), 2);
    for f in files {
        let emitted = f
            .get("emitted")
            .and_then(|v| v.as_str())
            .expect("emitted path");
        assert!(std::path::Path::new(emitted).exists(), "{emitted} missing");
    }

    // The mirrored layout: top.qasm and sub/nested.qasm under <out>. (Their
    // contents may differ — per-file router seeds key on the relative path.)
    let top = std::fs::read_to_string(out.join("top.qasm")).expect("top.qasm emitted");
    std::fs::read_to_string(out.join("sub").join("nested.qasm")).expect("nested emitted");

    // Emitted QASM is parseable and every 2Q gate sits on a device edge.
    let program = snailqc::qasm::parse(&top).expect("emitted QASM parses");
    let graph = snailqc::topology::catalog::by_name("square-lattice-16").unwrap();
    for inst in program.circuit.instructions() {
        if inst.is_two_qubit() {
            assert!(
                graph.has_edge(inst.qubits[0], inst.qubits[1]),
                "emitted gate on non-adjacent qubits {:?}",
                inst.qubits
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn trace_out_and_metrics_json_capture_the_pipeline_run() {
    // `--trace-out` writes a Chrome trace-event JSON with the pipeline-stage
    // spans nested under `pipeline.run`, and `--metrics-json` a snapshot
    // whose counters include the router work and cache statistics.
    let dir = std::env::temp_dir().join(format!("snailqc-obs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("trace.json");
    let metrics_path = dir.join("metrics.json");

    let output = snailqc(&[
        "transpile",
        "examples/qaoa12.qasm",
        "--topology=corral11-16",
        "--basis=sqrt-iswap",
        &format!("--trace-out={}", trace_path.display()),
        &format!("--metrics-json={}", metrics_path.display()),
        "--json",
    ]);
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    // The transpile report itself is unchanged by the observability flags.
    let report: serde_json::Value =
        serde_json::from_str(&String::from_utf8(output.stdout).unwrap()).expect("valid JSON");
    assert!(report.get("report").is_some());

    let trace: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&trace_path).unwrap())
            .expect("trace file is valid JSON");
    let events = trace
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty(), "trace must contain spans");
    let span_id = |event: &serde_json::Value, field: &str| {
        event
            .get("args")
            .and_then(|a| a.get(field))
            .and_then(|v| v.as_u64())
            .expect("span ids in args")
    };
    let by_name = |name: &str| {
        events
            .iter()
            .find(|e| e.get("name").and_then(|v| v.as_str()) == Some(name))
            .unwrap_or_else(|| panic!("span `{name}` missing from trace"))
    };
    let run = by_name("pipeline.run");
    for stage in [
        "pipeline.layout",
        "pipeline.routing",
        "pipeline.translation",
    ] {
        assert_eq!(
            span_id(by_name(stage), "parent"),
            span_id(run, "id"),
            "{stage} must nest under pipeline.run"
        );
    }
    by_name("router.trial");

    let metrics: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&metrics_path).unwrap())
            .expect("metrics file is valid JSON");
    let counters = metrics.get("counters").expect("counters block");
    let counter = |name: &str| {
        counters
            .get(name)
            .and_then(|v| v.as_u64())
            .unwrap_or_else(|| panic!("counter `{name}` missing"))
    };
    assert!(counter("router.trials_run") >= 4, "default 4 trials");
    assert!(counter("router.swap_candidates_scored") > 0);
    assert!(counter("routing_cache.misses") > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_failed_transpile_still_writes_its_trace_and_metrics_files() {
    let dir = std::env::temp_dir().join(format!("snailqc-obs-failed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (source, trace_path, metrics_path) = (
        dir.join("ghz20.qasm"),
        dir.join("trace.json"),
        dir.join("metrics.json"),
    );
    let body: String = (1..20)
        .map(|q| format!("cx q[{}], q[{q}];\n", q - 1))
        .collect();
    std::fs::write(
        &source,
        format!("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[20];\nh q[0];\n{body}"),
    )
    .unwrap();
    let output = snailqc(&[
        "transpile",
        source.to_str().unwrap(),
        "--topology=corral11-16",
        &format!("--trace-out={}", trace_path.display()),
        &format!("--metrics-json={}", metrics_path.display()),
    ]);
    assert!(!output.status.success(), "20 qubits fit a 16-qubit device?");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("only has 16"), "{stderr}");
    let read = |path: &std::path::Path| -> serde_json::Value {
        serde_json::from_str(&std::fs::read_to_string(path).expect("file written"))
            .expect("valid JSON")
    };
    let trace = read(&trace_path);
    assert!(trace
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .is_some());
    let dropped = trace.get("otherData").and_then(|o| o.get("dropped_spans"));
    assert_eq!(dropped.and_then(|v| v.as_u64()), Some(0));
    assert!(read(&metrics_path).get("counters").is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snailqc_trace_without_output_files_prints_the_counter_table() {
    let output = Command::new(env!("CARGO_BIN_EXE_snailqc"))
        .args([
            "transpile",
            "examples/qaoa12.qasm",
            "--topology",
            "corral11-16",
        ])
        .env("SNAILQC_TRACE", "1")
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("snailqc binary runs");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("counters\n"), "{stderr}");
    assert!(stderr.contains("router.trials_run"), "{stderr}");
}

#[test]
fn batch_mode_records_per_file_latency_histograms() {
    let dir = std::env::temp_dir().join(format!("snailqc-obs-batch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for (name, qubits) in [("ghz4", 4), ("ghz7", 7)] {
        let body: String = (1..qubits)
            .map(|q| format!("cx q[{}], q[{}];\n", q - 1, q))
            .collect();
        std::fs::write(
            dir.join(format!("{name}.qasm")),
            format!("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[{qubits}];\nh q[0];\n{body}"),
        )
        .unwrap();
    }
    let metrics_path = dir.join("metrics.json");
    let trace_path = dir.join("trace.json");

    // Two workers even on a one-core machine, so the trials and the files
    // run off the main thread.
    let output = Command::new(env!("CARGO_BIN_EXE_snailqc"))
        .args([
            "transpile",
            dir.to_str().unwrap(),
            "--topology=tree-20",
            "--seed=5",
            &format!("--trace-out={}", trace_path.display()),
            &format!("--metrics-json={}", metrics_path.display()),
            "--json",
        ])
        .env("RAYON_NUM_THREADS", "2")
        .output()
        .expect("snailqc binary runs");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );

    let metrics: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
    let latency = metrics
        .get("histograms")
        .and_then(|h| h.get("batch.file_micros"))
        .expect("per-file latency histogram");
    assert_eq!(latency.get("count").and_then(|v| v.as_u64()), Some(2));
    assert!(latency.get("p99").and_then(|v| v.as_u64()).is_some());

    // One `batch.file` span per input, annotated with the file name.
    let trace: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();
    let file_spans: Vec<&serde_json::Value> = trace
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .unwrap()
        .iter()
        .filter(|e| e.get("name").and_then(|v| v.as_str()) == Some("batch.file"))
        .collect();
    assert_eq!(file_spans.len(), 2);

    // The run is one tree: every span's parent chain reaches the one root,
    // through the spans that carried the trace to the worker threads.
    let events = trace.get("traceEvents").and_then(|v| v.as_array()).unwrap();
    let arg = |event: &serde_json::Value, field: &str| {
        event
            .get("args")
            .and_then(|a| a.get(field))
            .and_then(|v| v.as_u64())
            .unwrap()
    };
    let parents: std::collections::HashMap<u64, u64> = events
        .iter()
        .map(|e| (arg(e, "id"), arg(e, "parent")))
        .collect();
    let roots: Vec<u64> = parents
        .iter()
        .filter(|&(_, &parent)| parent == 0)
        .map(|(&id, _)| id)
        .collect();
    assert_eq!(roots.len(), 1, "roots {roots:?}");
    for &id in parents.keys() {
        let mut at = id;
        for _ in 0..parents.len() {
            if parents[&at] == 0 {
                break;
            }
            at = parents[&at];
        }
        assert_eq!(at, roots[0], "span {id} does not reach the root");
    }
    let tids = |name: &str| -> std::collections::HashSet<u64> {
        events
            .iter()
            .filter(|e| e.get("name").and_then(|v| v.as_str()) == Some(name))
            .map(|e| e.get("tid").and_then(|v| v.as_u64()).unwrap())
            .collect()
    };
    let trial_tids = tids("router.trial");
    assert!(!trial_tids.is_empty(), "no router.trial spans in the tree");
    assert!(
        trial_tids
            .iter()
            .any(|tid| !tids("batch.run").contains(tid)),
        "no router.trial span from a worker thread: {trial_tids:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Device specs: --device, devices list/show/validate, device-gen
// ---------------------------------------------------------------------------

/// Extracts `routed_digest` from a successful `--json` transpile run.
fn routed_digest_of(args: &[&str]) -> String {
    let output = snailqc(args);
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let value: serde_json::Value =
        serde_json::from_str(&String::from_utf8_lossy(&output.stdout)).unwrap();
    value
        .get("routed_digest")
        .and_then(|v| v.as_str())
        .expect("routed_digest present")
        .to_string()
}

#[test]
fn device_flag_accepts_builtins_and_matches_topology_flag() {
    // `--topology` is an alias of `--device`: it takes catalog names and
    // shipped spec names alike.
    for (topology, device) in [
        ("tree-20", "tree-20"),
        ("ibm-heavy-hex-127", "devices/ibm_heavy_hex_127.json"),
    ] {
        let via_topology = routed_digest_of(&[
            "transpile",
            "examples/qaoa12.qasm",
            "--topology",
            topology,
            "--json",
        ]);
        let via_device = routed_digest_of(&[
            "transpile",
            "examples/qaoa12.qasm",
            "--device",
            device,
            "--json",
        ]);
        assert_eq!(via_topology, via_device, "`{topology}`");
    }

    let both = snailqc(&[
        "transpile",
        "examples/qaoa12.qasm",
        "--device=tree-20",
        "--topology=tree-20",
    ]);
    assert!(!both.status.success());
    assert!(
        String::from_utf8_lossy(&both.stderr).contains("mutually exclusive"),
        "{}",
        String::from_utf8_lossy(&both.stderr)
    );
}

#[test]
fn non_finite_and_negative_error_weights_are_rejected_before_routing() {
    for weight in ["nan", "inf", "-1"] {
        let output = snailqc(&[
            "transpile",
            "examples/qaoa12.qasm",
            "--topology",
            "corral11-16",
            "--error-model",
            "calibrated",
            &format!("--error-weight={weight}"),
            "--json",
        ]);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!output.status.success(), "`{weight}` accepted: {stderr}");
        assert!(
            output.stdout.is_empty(),
            "`{weight}` routed before failing: {}",
            String::from_utf8_lossy(&output.stdout)
        );
        assert!(
            stderr.contains("error weight must be a finite, non-negative number"),
            "`{weight}`: {stderr}"
        );
    }
}

#[test]
fn non_finite_gate_parameters_are_rejected_with_a_span_not_a_panic() {
    let dir = std::env::temp_dir().join(format!("snailqc-non-finite-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cases = [
        ("v2.qasm", "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncu1(0/0) q[0],q[1];\n", "4:1"),
        ("v3.qasm", "OPENQASM 3.0;\ninclude \"stdgates.inc\";\nqubit[2] q;\nrzz(1e308*10) q[0],q[1];\n", "4:1"),
        (
            "body.qasm",
            "OPENQASM 2.0;\ninclude \"qelib1.inc\";\ngate g(a) q,r { cu1(1/a) q,r; }\nqreg q[2];\ng(0) q[0],q[1];\n",
            "3:17",
        ),
    ];
    for (file, source, span) in cases {
        let path = dir.join(file);
        std::fs::write(&path, source).unwrap();
        let output = snailqc(&[
            "transpile",
            path.to_str().unwrap(),
            "--topology",
            "corral11-16",
            "--basis",
            "sqrt-iswap",
        ]);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!output.status.success(), "{file} accepted: {stderr}");
        assert_ne!(output.status.code(), Some(101), "{file} panicked: {stderr}");
        assert!(!stderr.contains("panicked"), "{file}: {stderr}");
        assert!(stderr.contains(span), "{file}: no `{span}` in {stderr}");
        assert!(stderr.contains("not a finite number"), "{file}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn device_file_inherits_the_spec_basis_and_transpiles() {
    let output = snailqc(&[
        "transpile",
        "examples/qaoa12.qasm",
        "--device",
        "devices/ibm_heavy_hex_127.json",
        "--json",
    ]);
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let value: serde_json::Value =
        serde_json::from_str(&String::from_utf8_lossy(&output.stdout)).unwrap();
    assert_eq!(
        value.get("topology").and_then(|v| v.as_str()),
        Some("IBM Heavy-Hex 127")
    );
    // The spec pins cnot; with no --basis flag the device keeps it.
    assert_eq!(value.get("basis").and_then(|v| v.as_str()), Some("CX"));
    assert!(value.get("basis_digest").and_then(|v| v.as_str()).is_some());

    // `--basis none` strips the spec's basis again.
    let stripped = snailqc(&[
        "transpile",
        "examples/qaoa12.qasm",
        "--device",
        "devices/ibm_heavy_hex_127.json",
        "--basis",
        "none",
        "--json",
    ]);
    assert!(stripped.status.success());
    let value: serde_json::Value =
        serde_json::from_str(&String::from_utf8_lossy(&stripped.stdout)).unwrap();
    assert!(matches!(value.get("basis"), Some(serde_json::Value::Null)));
}

#[test]
fn device_gen_spec_feeds_back_with_identical_routed_digest() {
    let dir = std::env::temp_dir().join(format!("snailqc-device-gen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("tree20.json");
    let generated = snailqc(&[
        "device-gen",
        "tree",
        "--levels",
        "1",
        "-o",
        spec.to_str().unwrap(),
    ]);
    assert!(
        generated.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&generated.stderr)
    );
    // A generated spec mirroring the built-in tree-20 routes identically.
    let builtin = routed_digest_of(&[
        "transpile",
        "examples/qaoa12.qasm",
        "--topology",
        "tree-20",
        "--json",
    ]);
    let from_spec = routed_digest_of(&[
        "transpile",
        "examples/qaoa12.qasm",
        "--device",
        spec.to_str().unwrap(),
        "--json",
    ]);
    assert_eq!(builtin, from_spec);

    // --expand emits an explicit edge list that still routes identically.
    let expanded = dir.join("tree20_expanded.json");
    let output = snailqc(&[
        "device-gen",
        "tree",
        "--levels",
        "1",
        "--expand",
        "-o",
        expanded.to_str().unwrap(),
    ]);
    assert!(output.status.success());
    let text = std::fs::read_to_string(&expanded).unwrap();
    assert!(text.contains("\"edges\""), "{text}");
    let from_expanded = routed_digest_of(&[
        "transpile",
        "examples/qaoa12.qasm",
        "--device",
        expanded.to_str().unwrap(),
        "--json",
    ]);
    assert_eq!(builtin, from_expanded);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_spec_above_the_qubit_cap_is_refused_at_its_line_and_column() {
    let dir = std::env::temp_dir().join(format!("snailqc-over-cap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("line_65536.json");
    std::fs::write(
        &spec,
        "{\n  \"snailqc_device\": 1,\n  \"name\": \"line_65536\",\n  \
         \"topology\": {\"generator\": \"line\", \"params\": {\"qubits\": 65536}}\n}\n",
    )
    .unwrap();
    let output = snailqc(&[
        "transpile",
        "examples/qaoa12.qasm",
        "--device",
        spec.to_str().unwrap(),
    ]);
    assert_eq!(output.status.code(), Some(1), "an error, not a panic");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("line 4, column 58: `qubits` 65536 exceeds the supported maximum 65535"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_line_at_the_qubit_cap_routes_ghz3() {
    let dir = std::env::temp_dir().join(format!("snailqc-at-cap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (spec, ghz) = (dir.join("line_65535.json"), dir.join("ghz3.qasm"));
    let (spec, ghz) = (spec.to_str().unwrap(), ghz.to_str().unwrap());
    for args in [
        ["device-gen", "line", "--qubits", "65535", "-o", spec],
        ["emit", "ghz", "--qubits", "3", "-o", ghz],
    ] {
        let output = snailqc(&args);
        assert!(
            output.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&output.stderr)
        );
    }
    let output = snailqc(&["transpile", ghz, "--device", spec, "--json"]);
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let json: serde_json::Value =
        serde_json::from_str(&String::from_utf8(output.stdout).unwrap()).expect("valid JSON");
    let report = json.get("report").expect("report block");
    let field = |name: &str| report.get(name).and_then(|v| v.as_u64());
    assert_eq!(field("physical_qubits"), Some(65_535));
    assert_eq!(
        field("swap_count"),
        Some(0),
        "GHZ-3 needs no SWAP on a line"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Generates the spec `device-gen <generator_args>` writes, validates it and
/// routes GHZ-3 on it with zero SWAPs, each step within a wall-clock bound
/// far above the one-pass graph build (well under a second in a debug
/// build) and far below an edge-by-edge one (minutes at this size).
fn generated_spec_at_the_cap_validates_and_routes_ghz3(tag: &str, generator_args: &[&str]) {
    const BOUND: Duration = Duration::from_secs(30);
    let dir = std::env::temp_dir().join(format!("snailqc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (spec, ghz) = (dir.join("spec.json"), dir.join("ghz3.qasm"));
    let (spec, ghz) = (spec.to_str().unwrap(), ghz.to_str().unwrap());
    let generate: Vec<&str> = ["device-gen"]
        .into_iter()
        .chain(generator_args.iter().copied())
        .chain(["-o", spec])
        .collect();
    for args in [
        generate,
        vec!["emit", "ghz", "--qubits", "3", "-o", ghz],
        vec!["devices", "validate", spec],
    ] {
        let output = snailqc_within(&args, BOUND);
        assert!(
            output.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&output.stderr)
        );
    }
    let output = snailqc_within(&["transpile", ghz, "--device", spec, "--json"], BOUND);
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let json: serde_json::Value =
        serde_json::from_str(&String::from_utf8(output.stdout).unwrap()).expect("valid JSON");
    let report = json.get("report").expect("report block");
    let field = |name: &str| report.get(name).and_then(|v| v.as_u64());
    assert_eq!(field("physical_qubits"), Some(65_535));
    assert_eq!(field("swap_count"), Some(0), "GHZ-3 embeds as a path");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_hypercube_at_the_qubit_cap_validates_and_routes_ghz3_in_bounded_time() {
    generated_spec_at_the_cap_validates_and_routes_ghz3(
        "hypercube-at-cap",
        &["hypercube", "--qubits", "65535"],
    );
}

#[test]
fn a_255_by_257_grid_validates_and_routes_ghz3_in_bounded_time() {
    generated_spec_at_the_cap_validates_and_routes_ghz3(
        "grid-at-cap",
        &["grid", "--rows", "255", "--cols", "257"],
    );
}

#[test]
fn devices_list_merges_builtins_and_spec_files() {
    let output = snailqc(&["devices", "--json"]);
    assert!(output.status.success());
    let rows: serde_json::Value =
        serde_json::from_str(&String::from_utf8_lossy(&output.stdout)).unwrap();
    let rows = rows.as_array().unwrap();
    let source_of = |name: &str| {
        rows.iter()
            .find(|r| r.get("name").and_then(|v| v.as_str()) == Some(name))
            .and_then(|r| r.get("source"))
            .and_then(|v| v.as_str())
            .map(str::to_string)
    };
    assert_eq!(source_of("tree-20").as_deref(), Some("builtin"));
    assert_eq!(
        source_of("ibm_heavy_hex_127").as_deref(),
        Some("devices/ibm_heavy_hex_127.json")
    );

    // `topologies` stays as an alias with identical output.
    let alias = snailqc(&["topologies", "--json"]);
    assert!(alias.status.success());
    assert_eq!(output.stdout, alias.stdout);
}

#[test]
fn devices_validate_passes_shipped_and_fails_broken_specs() {
    let good = snailqc(&["devices", "validate", "devices/"]);
    assert!(
        good.status.success(),
        "stdout: {}",
        String::from_utf8_lossy(&good.stdout)
    );

    let dir = std::env::temp_dir().join(format!("snailqc-validate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("broken.json"),
        r#"{"snailqc_device": 1, "name": "b", "topology": {"generator": "moebius", "params": {"qubits": 4}}}"#,
    )
    .unwrap();
    let bad = snailqc(&["devices", "validate", dir.to_str().unwrap()]);
    assert!(!bad.status.success());
    let stdout = String::from_utf8_lossy(&bad.stdout);
    assert!(stdout.contains("FAIL"), "{stdout}");
    assert!(stdout.contains("unknown generator `moebius`"), "{stdout}");
    assert!(stdout.contains("line 1, column"), "spans surface: {stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn emit_sizes_workload_from_the_device() {
    let output = snailqc(&["emit", "ghz", "--device", "devices/ion_trap_32.json"]);
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let qasm = String::from_utf8_lossy(&output.stdout);
    assert!(qasm.contains("qreg q[32];"), "{qasm}");
}
