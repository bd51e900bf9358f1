//! The benchmark's own tests: reduced runs of every workload, through the
//! harness binary against a release `snailqc` (`target/release/snailqc`,
//! or the binary `SNAILQC_BIN` names).

use std::path::PathBuf;
use std::process::Command;

use serde_json::Value;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits inside the repository")
        .to_path_buf()
}

fn snailqc_bin() -> PathBuf {
    let bin = std::env::var_os("SNAILQC_BIN")
        .map(PathBuf::from)
        .unwrap_or_else(|| repo_root().join("target/release/snailqc"));
    assert!(
        bin.is_file(),
        "{} is missing: run `cargo build --release --bin snailqc` first",
        bin.display()
    );
    bin
}

/// The harness arguments of one reduced run.
fn args(workload: &str, seed: u64, trace: bool) -> Vec<String> {
    let seed = seed.to_string();
    let trace = if trace { "1" } else { "0" };
    let bin = snailqc_bin().display().to_string();
    ["--bin", &bin, "--workload", workload, "--seed", &seed]
        .into_iter()
        .chain(["--seconds", "1", "--trace", trace, "--reduced"])
        .map(str::to_string)
        .collect()
}

/// One reduced run; returns the parsed last stdout line.
fn run(workload: &str, seed: u64, trace: bool) -> Value {
    let mut harness = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    harness.args(args(workload, seed, trace));
    result_of(harness, workload)
}

fn result_of(mut command: Command, workload: &str) -> Value {
    let output = command
        .current_dir(repo_root())
        .output()
        .expect("harness runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{workload}: {stderr}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().expect("a result line");
    let result = serde_json::from_str(last).expect("the result line is JSON");
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{stderr}");
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1);
    result
}

/// `(name, unit)` of every metric of one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let spec = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let text_of = |m: &Value, key: &str| m.get(key).and_then(Value::as_str).unwrap().to_string();
    spec.get(section)
        .and_then(Value::as_array)
        .expect("section is a list")
        .iter()
        .map(|m| (text_of(m, "name"), text_of(m, "unit")))
        .collect()
}

fn assert_prints(result: &Value, section: &str, workload: &str) {
    let metrics = result.get("metrics").expect("metrics");
    for (name, unit) in declared(section) {
        let metric = metrics
            .get(&name)
            .unwrap_or_else(|| panic!("{workload} does not print {name}"));
        assert_eq!(
            metric.get("unit").and_then(Value::as_str),
            Some(unit.as_str())
        );
        let value = metric
            .get("value")
            .and_then(Value::as_f64)
            .expect("a number");
        assert!(value.is_finite(), "{workload} {name} = {value}");
    }
}

const WORKLOADS: [&str; 3] = ["codesign_cli", "serve_stream", "kiloqubit_cli"];

#[test]
fn every_workload_prints_every_declared_metric_with_its_unit() {
    for workload in WORKLOADS {
        assert_prints(&run(workload, 1, false), "end_to_end", workload);
        assert_prints(&run(workload, 1, true), "per_layer", workload);
    }
}

fn metric(result: &Value, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("no {name}"))
}

/// `run.sh` runs `cargo build` and then `exec`s the harness, and Linux keeps
/// a process's reaped-children usage across `exec`. Here a shell first
/// reaps a `dd` holding a 64 MB buffer, then `exec`s the harness: the
/// reported peak must still be that of the `snailqc` children alone.
#[test]
fn peak_rss_counts_only_the_timed_children() {
    let direct = metric(&run("codesign_cli", 1, false), "peak_rss_mb");
    let mut wrapped = Command::new("sh");
    wrapped
        .args([
            "-c",
            "dd if=/dev/zero of=/dev/null bs=64M count=1 2>/dev/null && exec \"$@\"",
            "sh",
            env!("CARGO_BIN_EXE_perfbench"),
        ])
        .args(args("codesign_cli", 1, false));
    let after_dd = metric(&result_of(wrapped, "codesign_cli"), "peak_rss_mb");
    assert!(
        direct < 32.0,
        "a reduced codesign_cli child peaked at {direct} MB"
    );
    assert!(
        after_dd < 32.0,
        "peak_rss_mb {after_dd} MB counts the 64 MB dd (direct run: {direct} MB)"
    );
}

fn totals(result: &Value) -> [u64; 3] {
    ["swaps_total", "basis_gates_total", "basis_depth_total"]
        .map(|name| metric(result, name) as u64)
}

#[test]
fn counts_repeat_for_a_seed_and_change_with_it() {
    for workload in WORKLOADS {
        let first = totals(&run(workload, 3, false));
        assert!(first.iter().all(|&c| c > 0), "{workload}: {first:?}");
        assert_eq!(first, totals(&run(workload, 3, false)), "{workload}");
        assert_ne!(first, totals(&run(workload, 4, false)), "{workload}");
    }
}
