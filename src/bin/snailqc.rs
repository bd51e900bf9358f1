//! The `snailqc` command-line driver.
//!
//! Exposes the topology catalog, the workload generators and the full Fig. 10
//! staged pipeline (layout → routing → translation → analysis) over OpenQASM
//! files — version 2.0 or 3.0, auto-detected from the `OPENQASM` header —
//! with optional machine-readable JSON output. Every transpile flows through
//! one `Device` (graph + noise + native basis) and one `Pipeline`:
//!
//! ```text
//! snailqc transpile circuit.qasm --topology corral11-16 --basis sqrt-iswap --json
//! snailqc transpile circuit.qasm --topology=corral11-16 --error-model=calibrated --json
//! snailqc transpile qasm_dir/ --topology tree-84 --seed 7 --store cache.jsonl --json
//! snailqc emit qaoa-vanilla --qubits 12 --seed 7 --qasm3 -o qaoa12_v3.qasm
//! snailqc convert circuit.qasm --qasm3
//! snailqc parse circuit_v3.qasm
//! snailqc topologies --json
//! snailqc workloads
//! ```

use rayon::prelude::*;
use snailqc::core::device::Device;
use snailqc::core::fidelity::{estimate_fidelity, estimate_fidelity_edges, FidelityEstimate};
use snailqc::core::noise::ErrorModelSpec;
use snailqc::core::registry::{DeviceRegistry, DeviceSource, LocatedDevice};
use snailqc::core::store::source_cell_key;
use snailqc::decompose::BasisGate;
use snailqc::devices::{basis_name, DeviceSpec, GeneratorSpec, TopologySource};
use snailqc::prelude::*;
use snailqc::request::{parse_source, DeviceArg, TranspileArgs};
use snailqc::transpiler::{TranspileReport, TranspileResult};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "snailqc — SNAIL co-design transpilation toolkit (HPCA 2023 reproduction)

USAGE:
    snailqc <COMMAND> [OPTIONS]

Options take either `--flag value` or `--flag=value` form.

COMMANDS:
    transpile <file.qasm|dir>  Run the staged pipeline on an OpenQASM 2.0 or
                            3.0 file (dialect auto-detected from the header),
                            or on every .qasm file under a directory,
                            recursively (batch mode: parallel, deterministic
                            per-file seeds, one aggregated JSON report)
        --device <arg>      Target device: a spec-file path, a built-in
                            catalog name, or the name of a spec found on
                            SNAILQC_DEVICE_PATH / ./devices
                            (see `snailqc devices`)
        --topology <arg>    Alias of --device (give only one of the two)
        --basis <gate>      cnot | syc | sqrt-iswap | none
                            [default: the spec's basis, else none]
        --layout <strategy> dense | trivial                  [default: dense]
        --trials <N>        Stochastic routing trials        [default: 4]
        --seed <N>          Router RNG seed                  [default: 11]
        --error-model <m>   default | control | decoherence | calibrated,
                            or a JSON file with per-edge rates; enables
                            noise-aware routing + fidelity estimates
        --error-weight <w>  Fidelity weight of the SWAP scoring
                            [default: 1 with --error-model, else 0]
        --store <file>      Batch mode: JSON-lines report cache; repeated
                            runs replay cached cells instead of re-routing
        --emit-dir <dir>    Batch mode: write each file's routed (and
                            basis-translated, if any) circuit as QASM under
                            <dir>, mirroring the input directory layout;
                            implies re-routing every file (bypasses --store
                            reads)
        --trace-out <file>  Write a Chrome trace-event JSON of the run's
                            pipeline/router spans (open in Perfetto or
                            chrome://tracing)
        --metrics-json <f>  Write the metrics snapshot (counters, gauges,
                            histogram quantiles) as JSON
        --qasm3             Write -o output as OpenQASM 3.0
        -o, --out <file>    Write the transpiled circuit as QASM
                            (batch mode: write the aggregated JSON report)
        --json              Print the report as JSON

    emit <workload>         Export a built-in workload as OpenQASM
        --qubits <N>        Problem size in qubits (required unless --device)
        --device <arg>      Size the workload to fill this device
        --seed <N>          Generator seed                   [default: 7]
        --qasm3             Emit OpenQASM 3.0 instead of 2.0
        --measure-all       Append a full-register measurement
        -o, --out <file>    Write to a file instead of stdout

    convert <file.qasm>     Re-emit a circuit in either dialect (input
                            dialect auto-detected from the header)
        --qasm3             Emit OpenQASM 3.0 instead of 2.0
        -o, --out <file>    Write to a file instead of stdout

    parse <file.qasm>       Parse a file (either dialect) and print circuit
                            statistics
        --json              Print the statistics as JSON

    serve                   Run the transpile daemon: line-delimited JSON-RPC
                            over TCP or a Unix socket, keeping warm devices
                            and routing caches resident across requests (see
                            README § Serving for the protocol)
        --tcp <addr>        TCP listen address      [default: 127.0.0.1:7878]
        --unix <path>       Listen on a Unix-domain socket instead of TCP
        --workers <N>       Worker threads; 0 = available cores [default: 0]
        --queue <N>         Bounded job-queue capacity; a full queue answers
                            structured `busy` errors         [default: 64]
        --store <file>      Shared JSON-lines report cache — same file and
                            cache keys as `transpile --store`, safe for
                            concurrent writers

    devices [list]          List the device catalog — built-in topologies
                            plus every spec file on SNAILQC_DEVICE_PATH and
                            in ./devices — with Table 1/2 metrics
        --json              Print the catalog as JSON
    devices show <arg>      Show one device (name or spec file) in detail
        --json              Print the details as JSON
    devices validate <p>... Validate spec files (or directories of them);
                            exits non-zero if any fails  [default: devices/]

    device-gen <family>     Emit a device-spec JSON for a topology family:
                            line | ring | complete | star | grid |
                            grid-diagonals | hex | heavy-hex | hypercube |
                            tree | tree-rr | corral
        --qubits <N>        Size (line/ring/complete/star/hypercube)
        --rows/--cols <N>   Size (grid/grid-diagonals/hex/heavy-hex)
        --levels <N>        Size (tree); --round-robin for the RR variant
        --posts <N>         Size (corral); --stride-a/--stride-b [default: 1]
        --truncate <N>      Boundary-truncate to N qubits (heavy-hex 127…)
        --name <s>          Spec name       [default: <family>_<qubits>]
        --display-name <s>  Human-readable label
        --description <s>   Free-text provenance note
        --basis <gate>      Pin the native two-qubit basis
        --error-model <m>   Attach a named error-model preset
        --expand            Freeze the generator into an explicit edge list
        -o, --out <file>    Write to a file instead of stdout

    topologies              Alias of `devices list`
        --json              Print the catalog as JSON

    workloads               List the built-in workload generators

    help                    Show this message

Use `-` as <file.qasm> to read from stdin.

Setting SNAILQC_TRACE=1 enables the observability layer for any transpile
run; without --trace-out/--metrics-json the metrics summary table is
printed to stderr.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let rest = &args[1..];
    let result = match command.as_str() {
        "transpile" => cmd_transpile(rest),
        "serve" => cmd_serve(rest),
        "emit" => cmd_emit(rest),
        "convert" => cmd_convert(rest),
        "parse" => cmd_parse(rest),
        "devices" => cmd_devices(rest),
        "device-gen" => cmd_device_gen(rest),
        "topologies" => cmd_topologies(rest),
        "workloads" => cmd_workloads(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}` (try `snailqc help`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------------
// Argument plumbing
// ---------------------------------------------------------------------------

/// Splits `args` into flags (with values) and positional arguments.
struct Options {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Options {
    /// `value_flags` name the options that consume a value — either inline
    /// (`--flag=value`) or as the following argument (`--flag value`);
    /// `bool_flags` the valueless switches. Anything else errors out instead
    /// of being silently ignored.
    fn parse(args: &[String], value_flags: &[&str], bool_flags: &[&str]) -> Result<Self, String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            if a.starts_with('-') && a != "-" {
                let body = a.trim_start_matches('-');
                let (name, inline) = match body.split_once('=') {
                    Some((name, value)) => (name.to_string(), Some(value.to_string())),
                    None => (body.to_string(), None),
                };
                let canonical = if name == "o" { "out".to_string() } else { name };
                if value_flags.contains(&canonical.as_str()) {
                    let value = match inline {
                        Some(value) => value,
                        None => {
                            i += 1;
                            args.get(i)
                                .ok_or_else(|| format!("--{canonical} needs a value"))?
                                .clone()
                        }
                    };
                    flags.push((canonical, Some(value)));
                } else if bool_flags.contains(&canonical.as_str()) {
                    if inline.is_some() {
                        return Err(format!("--{canonical} does not take a value"));
                    }
                    flags.push((canonical, None));
                } else {
                    return Err(format!("unknown option `{a}` (try `snailqc help`)"));
                }
                i += 1;
            } else {
                positional.push(a.clone());
                i += 1;
            }
        }
        Ok(Self { positional, flags })
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn numeric<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.parsed(name)?.unwrap_or(default))
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name}: invalid value `{v}`"))
            })
            .transpose()
    }
}

fn read_source(path: &str) -> Result<String, String> {
    if path == "-" {
        let mut buffer = String::new();
        std::io::stdin()
            .read_to_string(&mut buffer)
            .map_err(|e| format!("reading stdin: {e}"))?;
        Ok(buffer)
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("reading `{path}`: {e}"))
    }
}

/// The QASM dialect selected by the presence of `--qasm3`.
fn output_version(opts: &Options) -> snailqc::qasm::QasmVersion {
    if opts.has("qasm3") {
        snailqc::qasm::QasmVersion::V3
    } else {
        snailqc::qasm::QasmVersion::V2
    }
}

fn emit_output(text: &str, out: Option<&str>) -> Result<(), String> {
    match out {
        Some(path) => {
            std::fs::write(path, text).map_err(|e| format!("writing `{path}`: {e}"))?;
            eprintln!("wrote {path}");
            Ok(())
        }
        None => {
            print!("{text}");
            Ok(())
        }
    }
}

// ---------------------------------------------------------------------------
// transpile
// ---------------------------------------------------------------------------

/// Maps `transpile`'s flags onto the shared request resolver.
fn transpile_args(opts: &Options) -> Result<TranspileArgs<'_>, String> {
    Ok(TranspileArgs {
        device: opts.value("device").map(DeviceArg::Name),
        topology: opts.value("topology"),
        basis: opts.value("basis"),
        error_model: opts
            .value("error-model")
            .map(ErrorModelSpec::parse)
            .transpose()?,
        error_weight: opts.parsed("error-weight")?,
        layout: opts.value("layout"),
        trials: opts.parsed("trials")?,
        seed: opts.parsed("seed")?,
    })
}

#[derive(serde::Serialize)]
struct TranspileOutput {
    file: String,
    topology: String,
    layout: String,
    basis: Option<&'static str>,
    trials: usize,
    seed: u64,
    error_model: Option<ErrorModelSpec>,
    error_weight: f64,
    report: TranspileReport,
    /// FNV-1a digest of the routed circuit's canonical QASM emission; equal
    /// digests mean gate-for-gate identical circuits, so this is what the
    /// serve daemon's reproducibility contract is checked against.
    routed_digest: String,
    /// Digest of the basis-translated circuit (`--basis` runs only).
    basis_digest: Option<String>,
    fidelity: Option<FidelityComparison>,
}

/// Noise-blind vs noise-aware routing under the same calibrated device.
#[derive(serde::Serialize)]
struct FidelityComparison {
    /// Edge-aware estimate for the circuit the noise-blind router produced.
    noise_blind: FidelityEstimate,
    /// Edge-aware estimate for the circuit the noise-aware router produced.
    noise_aware: FidelityEstimate,
    /// Uniform-rate estimate (ignores per-edge calibration) of the
    /// noise-aware circuit, for reference.
    uniform: FidelityEstimate,
    /// `(1 − F_blind) / (1 − F_aware)`; > 1 means noise-aware routing
    /// reduced the estimated infidelity.
    infidelity_improvement: f64,
}

fn cmd_transpile(args: &[String]) -> Result<(), String> {
    let opts = Options::parse(
        args,
        &[
            "device",
            "topology",
            "basis",
            "layout",
            "trials",
            "seed",
            "error-model",
            "error-weight",
            "store",
            "emit-dir",
            "out",
            "trace-out",
            "metrics-json",
        ],
        &["json", "qasm3"],
    )?;
    let [file] = opts.positional.as_slice() else {
        return Err("transpile needs exactly one <file.qasm | directory> argument".into());
    };
    let (device, pipeline) =
        transpile_args(&opts)?.resolve(&DeviceRegistry::with_default_paths())?;
    let observed = obs_setup(&opts);
    if file != "-" && Path::new(file).is_dir() {
        transpile_directory(file, &device, &pipeline, &opts)?;
    } else {
        transpile_one_file(file, &device, &pipeline, &opts)?;
    }
    if observed {
        obs_finish(&opts)?;
    }
    Ok(())
}

/// Turns on the workspace observability layer when the run asked for it —
/// via `--trace-out`, `--metrics-json`, or the `SNAILQC_TRACE` environment
/// variable. Returns whether it was enabled, so the caller knows to drain.
fn obs_setup(opts: &Options) -> bool {
    let wanted = opts.value("trace-out").is_some()
        || opts.value("metrics-json").is_some()
        || snailqc::obs::env_requests_tracing();
    if wanted {
        snailqc::obs::enable();
    }
    wanted
}

/// Drains the spans and metrics collected during the run: writes the Chrome
/// trace-event JSON and/or the metrics snapshot where requested, and falls
/// back to a human-readable summary table on stderr for env-only runs so
/// `SNAILQC_TRACE=1` alone still shows something.
fn obs_finish(opts: &Options) -> Result<(), String> {
    let spans = snailqc::obs::take_spans();
    let metrics = snailqc::obs::snapshot();
    if let Some(path) = opts.value("trace-out") {
        std::fs::write(path, snailqc::obs::chrome_trace(&spans))
            .map_err(|e| format!("writing trace `{path}`: {e}"))?;
    }
    if let Some(path) = opts.value("metrics-json") {
        std::fs::write(path, snailqc::obs::metrics_json(&metrics))
            .map_err(|e| format!("writing metrics `{path}`: {e}"))?;
    }
    if opts.value("trace-out").is_none() && opts.value("metrics-json").is_none() {
        eprint!("{}", snailqc::obs::summary_table(&metrics));
    }
    Ok(())
}

fn transpile_one_file(
    file: &str,
    device: &Device,
    pipeline: &Pipeline,
    opts: &Options,
) -> Result<(), String> {
    let source = read_source(file)?;
    let circuit = parse_source(&source, device).map_err(|e| format!("`{file}`: {e}"))?;
    let result = device
        .try_transpile(&circuit, pipeline)
        .map_err(|e| format!("`{file}`: {e}"))?;
    let error_weight = pipeline.router().error_weight;

    // With an error model, also run the noise-blind router on the same
    // calibrated device so the output surfaces both fidelity estimates. On a
    // uniform device (or with zero weight) the noise-aware run is provably
    // identical to the noise-blind one, so reuse its report instead of
    // routing twice.
    let blind_report = if device.error_model().is_none()
        || error_weight == 0.0
        || device.graph().edge_errors_uniform()
    {
        result.report
    } else {
        let blind = pipeline.to_builder().error_weight(0.0).build();
        device
            .try_transpile(&circuit, &blind)
            .map_err(|e| format!("`{file}`: {e}"))?
            .report
    };
    let fidelity = device.error_model().map(|spec| {
        let estimate = |report: &TranspileReport| estimate_fidelity_edges(report, &spec.model);
        let uniform = estimate_fidelity(&result.report, &spec.model);
        let noise_blind = estimate(&blind_report);
        let noise_aware = estimate(&result.report);
        let infidelity_improvement = (1.0 - noise_blind.total_fidelity)
            / (1.0 - noise_aware.total_fidelity).max(f64::MIN_POSITIVE);
        FidelityComparison {
            noise_blind,
            noise_aware,
            uniform,
            infidelity_improvement,
        }
    });

    if let Some(out) = opts.value("out") {
        let circuit = result.translated.as_ref().unwrap_or(&result.routed.circuit);
        emit_output(
            &snailqc::qasm::emit_versioned(circuit, output_version(opts)),
            Some(out),
        )?;
    }

    if opts.has("json") {
        let output = TranspileOutput {
            file: file.to_string(),
            topology: device.graph().name().to_string(),
            layout: format!("{:?}", pipeline.layout()),
            basis: device.basis().map(|b| b.label()),
            trials: pipeline.router().trials,
            seed: pipeline.router().seed,
            error_model: device.error_model().cloned(),
            error_weight,
            report: result.report,
            routed_digest: snailqc::serve::circuit_digest(&result.routed.circuit),
            basis_digest: result
                .translated
                .as_ref()
                .map(snailqc::serve::circuit_digest),
            fidelity,
        };
        println!(
            "{}",
            serde_json::to_string_pretty(&output).map_err(|e| e.to_string())?
        );
    } else {
        print_human_report(file, device, &result, error_weight, fidelity.as_ref());
    }
    Ok(())
}

fn print_human_report(
    file: &str,
    device: &Device,
    result: &TranspileResult,
    error_weight: f64,
    fidelity: Option<&FidelityComparison>,
) {
    let r = &result.report;
    println!("== transpile {file} onto {} ==", device.graph().name());
    println!("  logical qubits        {}", r.logical_qubits);
    println!("  physical qubits       {}", r.physical_qubits);
    println!("  input 2Q gates        {}", r.input_two_qubit_gates);
    println!("  SWAPs inserted        {}", r.swap_count);
    println!("  critical-path SWAPs   {}", r.swap_depth);
    println!("  routed 2Q gates       {}", r.routed_two_qubit_gates);
    println!("  routed 2Q depth       {}", r.routed_two_qubit_depth);
    match device.basis() {
        Some(b) => {
            println!("  basis                 {}", b.label());
            println!("  basis gate count      {}", r.basis_gate_count);
            println!("  basis gate depth      {}", r.basis_gate_depth);
        }
        None => println!("  basis                 (routing only)"),
    }
    if let Some(f) = fidelity {
        println!("  -- fidelity (error-weight {error_weight}) --");
        println!(
            "  noise-blind routing   {:.6}",
            f.noise_blind.total_fidelity
        );
        println!(
            "  noise-aware routing   {:.6}",
            f.noise_aware.total_fidelity
        );
        println!("  uniform-rate estimate {:.6}", f.uniform.total_fidelity);
        println!("  infidelity improved   {:.3}x", f.infidelity_improvement);
    }
    println!("  -- pass trace --");
    for stage in &result.trace.stages {
        let delta = stage.two_qubit_out as i64 - stage.two_qubit_in as i64;
        let delta = if delta == 0 {
            String::new()
        } else {
            format!("  ({delta:+} 2Q gates)")
        };
        println!("  {:<12}{:>10.1} µs{delta}", stage.stage, stage.micros);
    }
}

// ---------------------------------------------------------------------------
// transpile (batch mode)
// ---------------------------------------------------------------------------

#[derive(serde::Serialize)]
struct BatchFileOutput {
    file: String,
    /// Router seed used for this file (base seed ⊕ FNV-1a of the file's
    /// directory-relative path).
    seed: u64,
    /// True when the report was replayed from the `--store` cache instead of
    /// being re-routed.
    cached: bool,
    /// Path the routed QASM was written to (`--emit-dir` runs only).
    emitted: Option<String>,
    error: Option<String>,
    report: Option<TranspileReport>,
}

#[derive(serde::Serialize)]
struct BatchSummary {
    files: usize,
    transpiled: usize,
    failed: usize,
    /// Cells replayed from the `--store` cache.
    cache_hits: usize,
    /// Corrupt lines skipped while loading the `--store` cache (typically
    /// a tail truncated by a killed run); 0 without `--store`.
    store_skipped_corrupt: usize,
    total_swaps: usize,
    total_routed_two_qubit_gates: usize,
    total_basis_gates: usize,
}

#[derive(serde::Serialize)]
struct BatchOutput {
    directory: String,
    topology: String,
    layout: String,
    basis: Option<&'static str>,
    trials: usize,
    base_seed: u64,
    error_model: Option<ErrorModelSpec>,
    error_weight: f64,
    summary: BatchSummary,
    files: Vec<BatchFileOutput>,
}

/// Recursively collects every `.qasm` file under `dir`.
fn collect_qasm_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    for entry in
        std::fs::read_dir(dir).map_err(|e| format!("reading directory `{}`: {e}", dir.display()))?
    {
        let path = entry
            .map_err(|e| format!("reading directory `{}`: {e}", dir.display()))?
            .path();
        if path.is_dir() {
            collect_qasm_files(&path, out)?;
        } else if path.is_file() && path.extension().and_then(|e| e.to_str()) == Some("qasm") {
            out.push(path);
        }
    }
    Ok(())
}

/// Batch mode: transpile every `.qasm` file under `dir` — recursively — in
/// parallel and emit one aggregated report. Each file's router seed is
/// derived from the base seed and the file's directory-relative path alone,
/// so results are independent of worker threads, directory enumeration
/// order, and which other files are present. With `--store <file>`, reports
/// are cached in a `SweepStore` keyed by file contents + device + routing
/// config, and repeated runs replay cached cells instead of re-routing.
fn transpile_directory(
    dir: &str,
    device: &Device,
    pipeline: &Pipeline,
    opts: &Options,
) -> Result<(), String> {
    let root = Path::new(dir);
    let mut paths: Vec<PathBuf> = Vec::new();
    collect_qasm_files(root, &mut paths)?;
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no .qasm files under `{dir}`"));
    }
    let mut store = opts.value("store").map(SweepStore::open);
    let emit_dir = opts.value("emit-dir").map(PathBuf::from);

    // Sequential cheap phase: read each file and probe the cache (the store
    // is single-threaded); parsing and routing — the expensive part — run in
    // parallel below for every cache miss. An `--emit-dir` run needs the
    // routed circuit, which the store does not keep, so it transpiles every
    // file (cache writes still happen).
    enum Prepared {
        Failed(String),
        Cached(TranspileReport),
        Work(String, String), // source, cache key
    }
    let prepared: Vec<(String, u64, Prepared)> = paths
        .iter()
        .map(|path| {
            let name = path
                .strip_prefix(root)
                .map(|p| p.to_string_lossy().into_owned())
                .unwrap_or_else(|_| path.display().to_string());
            let seed = pipeline.router().seed ^ snailqc_util::fnv1a_64(name.as_bytes());
            let outcome = std::fs::read_to_string(path)
                .map(|source| {
                    // The same key `snailqc serve` uses, so a cell transpiled
                    // by either is a store hit for the other.
                    let key = source_cell_key(&source, seed, device, pipeline);
                    let cached = if emit_dir.is_some() {
                        None
                    } else {
                        store.as_mut().and_then(|s| s.get(&key))
                    };
                    match cached {
                        Some(report) => Prepared::Cached(report),
                        None => Prepared::Work(source, key),
                    }
                })
                .map_err(|e| format!("reading `{}`: {e}", path.display()));
            match outcome {
                Ok(prepared) => (name, seed, prepared),
                Err(error) => (name, seed, Prepared::Failed(error)),
            }
        })
        .collect();

    let routed: Vec<(BatchFileOutput, Option<String>)> = prepared
        .par_iter()
        .map(|(name, seed, prepared)| {
            let _file_span = if snailqc::obs::is_enabled() {
                Some(snailqc::obs::span_with("batch.file", name.clone()))
            } else {
                None
            };
            let timer = snailqc::obs::is_enabled().then(std::time::Instant::now);
            let (name, seed) = (name.clone(), *seed);
            let outcome = match prepared {
                Prepared::Failed(error) => (
                    BatchFileOutput {
                        file: name,
                        seed,
                        cached: false,
                        emitted: None,
                        error: Some(error.clone()),
                        report: None,
                    },
                    None,
                ),
                Prepared::Cached(report) => (
                    BatchFileOutput {
                        file: name,
                        seed,
                        cached: true,
                        emitted: None,
                        error: None,
                        report: Some(*report),
                    },
                    None,
                ),
                Prepared::Work(source, key) => {
                    let outcome = parse_source(source, device).and_then(|circuit| {
                        let pipeline = pipeline.to_builder().seed(seed).build();
                        let result = device
                            .try_transpile(&circuit, &pipeline)
                            .map_err(|e| e.to_string())?;
                        let emitted = match &emit_dir {
                            None => None,
                            Some(dir) => {
                                let target = dir.join(&name);
                                let circuit =
                                    result.translated.as_ref().unwrap_or(&result.routed.circuit);
                                let qasm =
                                    snailqc::qasm::emit_versioned(circuit, output_version(opts));
                                if let Some(parent) = target.parent() {
                                    std::fs::create_dir_all(parent).map_err(|e| {
                                        format!("creating `{}`: {e}", parent.display())
                                    })?;
                                }
                                std::fs::write(&target, qasm)
                                    .map_err(|e| format!("writing `{}`: {e}", target.display()))?;
                                Some(target.display().to_string())
                            }
                        };
                        Ok((result.report, emitted))
                    });
                    match outcome {
                        Ok((report, emitted)) => (
                            BatchFileOutput {
                                file: name,
                                seed,
                                cached: false,
                                emitted,
                                error: None,
                                report: Some(report),
                            },
                            Some(key.clone()),
                        ),
                        Err(error) => (
                            BatchFileOutput {
                                file: name,
                                seed,
                                cached: false,
                                emitted: None,
                                error: Some(error),
                                report: None,
                            },
                            None,
                        ),
                    }
                }
            };
            if let Some(timer) = timer {
                snailqc::obs::histogram_record(
                    "batch.file_micros",
                    timer.elapsed().as_micros() as u64,
                );
            }
            outcome
        })
        .collect();
    let mut files = Vec::with_capacity(routed.len());
    for (output, key) in routed {
        if let (Some(store), Some(key), Some(report)) = (store.as_mut(), key, output.report) {
            store.insert(key, report);
        }
        files.push(output);
    }
    if let Some(store) = &mut store {
        store
            .flush()
            .map_err(|e| format!("writing store `{}`: {e}", store.path().display()))?;
    }

    let cache_hits = files.iter().filter(|f| f.cached).count();
    let transpiled: Vec<&TranspileReport> =
        files.iter().filter_map(|f| f.report.as_ref()).collect();
    let summary = BatchSummary {
        files: files.len(),
        transpiled: transpiled.len(),
        failed: files.len() - transpiled.len(),
        cache_hits,
        store_skipped_corrupt: store.as_ref().map_or(0, |s| s.skipped_corrupt()),
        total_swaps: transpiled.iter().map(|r| r.swap_count).sum(),
        total_routed_two_qubit_gates: transpiled.iter().map(|r| r.routed_two_qubit_gates).sum(),
        total_basis_gates: transpiled.iter().map(|r| r.basis_gate_count).sum(),
    };
    let output = BatchOutput {
        directory: dir.to_string(),
        topology: device.graph().name().to_string(),
        layout: format!("{:?}", pipeline.layout()),
        basis: device.basis().map(|b| b.label()),
        trials: pipeline.router().trials,
        base_seed: pipeline.router().seed,
        error_model: device.error_model().cloned(),
        error_weight: pipeline.router().error_weight,
        summary,
        files,
    };

    let json = serde_json::to_string_pretty(&output).map_err(|e| e.to_string())?;
    if let Some(out) = opts.value("out") {
        emit_output(&format!("{json}\n"), Some(out))?;
    }
    if opts.has("json") {
        println!("{json}");
    } else {
        println!(
            "== transpile {} .qasm files from {dir} onto {} ==",
            output.summary.files,
            device.graph().name()
        );
        println!(
            "  {:<28} {:>6} {:>8} {:>10} {:>10}",
            "file", "qubits", "SWAPs", "2Q gates", "basis 2Q"
        );
        for f in &output.files {
            match (&f.report, &f.error) {
                (Some(r), _) => println!(
                    "  {:<28} {:>6} {:>8} {:>10} {:>10}",
                    f.file,
                    r.logical_qubits,
                    r.swap_count,
                    r.routed_two_qubit_gates,
                    r.basis_gate_count
                ),
                (None, Some(e)) => println!("  {:<28} error: {e}", f.file),
                (None, None) => unreachable!("file produced neither report nor error"),
            }
        }
        println!(
            "  -- total: {} SWAPs, {} routed 2Q gates, {} basis gates; {} failed, {} cached --",
            output.summary.total_swaps,
            output.summary.total_routed_two_qubit_gates,
            output.summary.total_basis_gates,
            output.summary.failed,
            output.summary.cache_hits
        );
        if output.summary.store_skipped_corrupt > 0 {
            println!(
                "  warning: skipped {} corrupt line(s) in the --store cache",
                output.summary.store_skipped_corrupt
            );
        }
        if let Some(dir) = &emit_dir {
            let emitted = output.files.iter().filter(|f| f.emitted.is_some()).count();
            println!(
                "  wrote {emitted} routed QASM file(s) under {}",
                dir.display()
            );
        }
    }
    if output.summary.failed > 0 && output.summary.transpiled == 0 {
        return Err("every file in the batch failed".into());
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

/// `snailqc serve`: the long-running transpile daemon (see `snailqc::serve`).
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let opts = Options::parse(args, &["tcp", "unix", "workers", "queue", "store"], &[])?;
    if !opts.positional.is_empty() {
        return Err("serve takes no positional arguments".into());
    }
    let bind = match (opts.value("unix"), opts.value("tcp")) {
        (Some(_), Some(_)) => return Err("--tcp and --unix are mutually exclusive".into()),
        (Some(path), None) => {
            #[cfg(unix)]
            {
                snailqc::serve::Bind::Unix(PathBuf::from(path))
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                return Err("--unix sockets are not supported on this platform".into());
            }
        }
        (None, addr) => snailqc::serve::Bind::Tcp(addr.unwrap_or("127.0.0.1:7878").to_string()),
    };
    let config = snailqc::serve::ServeConfig {
        bind,
        workers: opts.numeric("workers", 0usize)?,
        queue_capacity: opts.numeric("queue", 64usize)?,
        store: opts.value("store").map(PathBuf::from),
    };
    snailqc::serve::run(config)
}

// ---------------------------------------------------------------------------
// emit
// ---------------------------------------------------------------------------

fn cmd_emit(args: &[String]) -> Result<(), String> {
    let opts = Options::parse(
        args,
        &["qubits", "seed", "out", "device"],
        &["measure-all", "qasm3"],
    )?;
    let [workload_name] = opts.positional.as_slice() else {
        return Err("emit needs exactly one <workload> argument (see `snailqc workloads`)".into());
    };
    let workload = Workload::by_name(workload_name).ok_or_else(|| {
        format!(
            "unknown workload `{workload_name}`; available: {}",
            Workload::names().join(", ")
        )
    })?;
    // `--device` sizes the workload to fill a machine; an explicit
    // `--qubits` still wins (e.g. a 12-qubit circuit aimed at a 127-qubit
    // device).
    let qubits: usize = match (opts.value("qubits"), opts.value("device")) {
        (Some(v), _) => v
            .parse()
            .map_err(|_| "--qubits: invalid value".to_string())?,
        (None, Some(arg)) => DeviceRegistry::with_default_paths()
            .resolve(arg)?
            .num_qubits(),
        (None, None) => return Err("emit needs --qubits <N> (or --device <file-or-name>)".into()),
    };
    if qubits == 0 {
        return Err("--qubits must be at least 1".into());
    }
    let seed: u64 = opts.numeric("seed", 7)?;
    let circuit = workload.generate(qubits, seed);
    let emit_opts = snailqc::qasm::EmitOptions {
        measure_all: opts.has("measure-all"),
        version: output_version(&opts),
        ..Default::default()
    };
    emit_output(
        &snailqc::qasm::emit_with(&circuit, &emit_opts),
        opts.value("out"),
    )
}

// ---------------------------------------------------------------------------
// convert
// ---------------------------------------------------------------------------

/// Re-emits a parsed circuit in the selected dialect: the QASM version
/// up/down-converter (`v2 → v3 → v2` is byte-identical, which the CI smoke
/// job asserts).
///
/// The circuit IR is unitary-only, so a full-register measurement is
/// re-emitted as `measure_all`; partial measurements (and barriers) cannot
/// be represented and are dropped with a warning on stderr.
fn cmd_convert(args: &[String]) -> Result<(), String> {
    let opts = Options::parse(args, &["out"], &["qasm3"])?;
    let [file] = opts.positional.as_slice() else {
        return Err("convert needs exactly one <file.qasm> argument".into());
    };
    let source = read_source(file)?;
    let program = snailqc::qasm::parse_any(&source).map_err(|e| e.to_string())?;
    let measure_all =
        program.measurements > 0 && program.measurements == program.circuit.num_qubits();
    if program.measurements > 0 && !measure_all {
        eprintln!(
            "warning: `{file}` measures {} of {} qubits; partial measurements are not \
             representable and were dropped",
            program.measurements,
            program.circuit.num_qubits()
        );
    }
    if program.barriers > 0 {
        eprintln!(
            "warning: `{file}` contains {} barrier(s), which are not representable and \
             were dropped",
            program.barriers
        );
    }
    let emit_opts = snailqc::qasm::EmitOptions {
        measure_all,
        version: output_version(&opts),
        ..Default::default()
    };
    emit_output(
        &snailqc::qasm::emit_with(&program.circuit, &emit_opts),
        opts.value("out"),
    )
}

// ---------------------------------------------------------------------------
// parse
// ---------------------------------------------------------------------------

#[derive(serde::Serialize)]
struct ParseOutput {
    file: String,
    /// The dialect declared by the `OPENQASM` header (`"2.0"` or `"3.0"`).
    version: &'static str,
    qubits: usize,
    gates: usize,
    two_qubit_gates: usize,
    depth: usize,
    two_qubit_depth: usize,
    swap_count: usize,
    measurements: usize,
    barriers: usize,
    gate_counts: std::collections::BTreeMap<&'static str, usize>,
}

fn cmd_parse(args: &[String]) -> Result<(), String> {
    let opts = Options::parse(args, &[], &["json"])?;
    let [file] = opts.positional.as_slice() else {
        return Err("parse needs exactly one <file.qasm> argument".into());
    };
    let source = read_source(file)?;
    let program = snailqc::qasm::parse_any(&source).map_err(|e| e.to_string())?;
    let c = &program.circuit;
    let output = ParseOutput {
        file: file.clone(),
        version: program.version.header(),
        qubits: c.num_qubits(),
        gates: c.len(),
        two_qubit_gates: c.two_qubit_count(),
        depth: c.depth(),
        two_qubit_depth: c.two_qubit_depth(),
        swap_count: c.swap_count(),
        measurements: program.measurements,
        barriers: program.barriers,
        gate_counts: c.gate_counts(),
    };
    if opts.has("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&output).map_err(|e| e.to_string())?
        );
    } else {
        println!("== {file} ==");
        println!("  OPENQASM        {}", output.version);
        println!("  qubits          {}", output.qubits);
        println!("  gates           {}", output.gates);
        println!("  2Q gates        {}", output.two_qubit_gates);
        println!("  depth           {}", output.depth);
        println!("  2Q depth        {}", output.two_qubit_depth);
        println!("  SWAPs           {}", output.swap_count);
        println!("  measurements    {}", output.measurements);
        println!("  barriers        {}", output.barriers);
        let histogram: Vec<String> = output
            .gate_counts
            .iter()
            .map(|(name, count)| format!("{name}:{count}"))
            .collect();
        println!("  histogram       {}", histogram.join(" "));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// devices / topologies / workloads
// ---------------------------------------------------------------------------

#[derive(serde::Serialize)]
struct DeviceRow {
    name: String,
    display: String,
    qubits: usize,
    diameter: usize,
    avg_distance: f64,
    avg_connectivity: f64,
    /// `"builtin"` for catalog topologies, the spec-file path otherwise.
    source: String,
}

/// `snailqc devices [list|show|validate]` — the device catalog: the built-in
/// topologies merged with every spec file on the search path.
fn cmd_devices(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("show") => devices_show(&args[1..]),
        Some("validate") => devices_validate(&args[1..]),
        Some("list") => devices_list(&args[1..]),
        // Bare `snailqc devices [--json]` lists, like `topologies` always did.
        _ => devices_list(args),
    }
}

/// `snailqc topologies` — kept as an alias of `snailqc devices list`.
fn cmd_topologies(args: &[String]) -> Result<(), String> {
    devices_list(args)
}

fn devices_list(args: &[String]) -> Result<(), String> {
    let opts = Options::parse(args, &[], &["json"])?;
    let registry = DeviceRegistry::with_default_paths();
    let mut rows = Vec::new();
    for entry in registry.entries() {
        let (device, source) = match &entry.source {
            DeviceSource::Builtin => (Device::from_catalog(&entry.name)?, "builtin".to_string()),
            DeviceSource::File(path) => match Device::from_spec_file(path) {
                Ok(device) => (device, path.display().to_string()),
                Err(e) => {
                    eprintln!("warning: skipping `{}`: {e}", path.display());
                    continue;
                }
            },
        };
        let metrics = device.graph().metrics();
        rows.push(DeviceRow {
            name: entry.name,
            display: device.label().to_string(),
            qubits: metrics.qubits,
            diameter: metrics.diameter,
            avg_distance: metrics.avg_distance,
            avg_connectivity: metrics.avg_connectivity,
            source,
        });
    }
    if opts.has("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&rows).map_err(|e| e.to_string())?
        );
    } else {
        println!(
            "{:<26} {:>6} {:>9} {:>8} {:>8}  source",
            "name", "qubits", "diameter", "avgD", "avgC"
        );
        for row in rows {
            println!(
                "{:<26} {:>6} {:>9} {:>8.2} {:>8.2}  {}",
                row.name,
                row.qubits,
                row.diameter,
                row.avg_distance,
                row.avg_connectivity,
                row.source
            );
        }
    }
    Ok(())
}

#[derive(serde::Serialize)]
struct DeviceShow {
    name: String,
    label: String,
    qubits: usize,
    edges: usize,
    diameter: usize,
    avg_distance: f64,
    avg_connectivity: f64,
    basis: Option<&'static str>,
    default_edge_error: f64,
    error_model: Option<ErrorModelSpec>,
    /// FNV-1a digest over the per-edge error rates — the routing-cache /
    /// store key component that changes when calibration changes.
    noise_digest: String,
    source: String,
}

fn devices_show(args: &[String]) -> Result<(), String> {
    let opts = Options::parse(args, &[], &["json"])?;
    let [arg] = opts.positional.as_slice() else {
        return Err("devices show needs exactly one <name-or-file> argument".into());
    };
    let located = DeviceRegistry::with_default_paths().locate(arg)?;
    let device = located.build()?;
    let source = match &located {
        LocatedDevice::Spec {
            path: Some(path), ..
        } => path.display().to_string(),
        _ => "builtin".to_string(),
    };
    let metrics = device.graph().metrics();
    let output = DeviceShow {
        name: arg.clone(),
        label: device.label().to_string(),
        qubits: metrics.qubits,
        edges: device.graph().edges().count(),
        diameter: metrics.diameter,
        avg_distance: metrics.avg_distance,
        avg_connectivity: metrics.avg_connectivity,
        basis: device.basis().map(basis_name),
        default_edge_error: device.graph().default_edge_error(),
        error_model: device.error_model().cloned(),
        noise_digest: format!("{:016x}", device.noise_digest()),
        source,
    };
    if opts.has("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&output).map_err(|e| e.to_string())?
        );
    } else {
        println!("== {} ==", output.label);
        println!("  source          {}", output.source);
        println!("  qubits          {}", output.qubits);
        println!("  edges           {}", output.edges);
        println!("  diameter        {}", output.diameter);
        println!("  avg distance    {:.2}", output.avg_distance);
        println!("  avg connectivity {:.2}", output.avg_connectivity);
        println!("  basis           {}", output.basis.unwrap_or("none"));
        println!(
            "  edge error      {:.2e} (default)",
            output.default_edge_error
        );
        println!("  noise digest    {}", output.noise_digest);
    }
    Ok(())
}

/// `snailqc devices validate <file-or-dir>...` — load every spec end-to-end
/// (parse, build the graph, resolve basis and error model) and report per
/// file; exits non-zero if any spec fails.
fn devices_validate(args: &[String]) -> Result<(), String> {
    let opts = Options::parse(args, &[], &[])?;
    let targets = if opts.positional.is_empty() {
        vec!["devices".to_string()]
    } else {
        opts.positional.clone()
    };
    let mut files = Vec::new();
    for target in &targets {
        let path = Path::new(target);
        if path.is_dir() {
            let mut found: Vec<PathBuf> = std::fs::read_dir(path)
                .map_err(|e| format!("reading `{target}`: {e}"))?
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.is_file() && p.extension().is_some_and(|x| x == "json"))
                .collect();
            found.sort();
            files.extend(found);
        } else {
            files.push(PathBuf::from(target));
        }
    }
    if files.is_empty() {
        return Err(format!(
            "no .json specs found under: {}",
            targets.join(", ")
        ));
    }
    let mut failures = 0usize;
    for file in &files {
        match Device::from_spec_file(file) {
            Ok(device) => println!(
                "ok    {}  ({}, {} qubits)",
                file.display(),
                device.label(),
                device.num_qubits()
            ),
            Err(e) => {
                failures += 1;
                println!("FAIL  {}: {e}", file.display());
            }
        }
    }
    if failures > 0 {
        return Err(format!(
            "{failures} of {} device spec(s) failed validation",
            files.len()
        ));
    }
    println!("{} device spec(s) valid", files.len());
    Ok(())
}

// ---------------------------------------------------------------------------
// device-gen
// ---------------------------------------------------------------------------

/// `snailqc device-gen <family>` — emit a device-spec JSON file for a
/// parameterized topology family, ready to edit or feed back to `--device`.
fn cmd_device_gen(args: &[String]) -> Result<(), String> {
    let opts = Options::parse(
        args,
        &[
            "qubits",
            "rows",
            "cols",
            "levels",
            "posts",
            "stride-a",
            "stride-b",
            "name",
            "display-name",
            "description",
            "basis",
            "error-model",
            "truncate",
            "out",
        ],
        &["round-robin", "expand"],
    )?;
    let [family] = opts.positional.as_slice() else {
        return Err(format!(
            "device-gen needs exactly one <family> argument ({GEN_FAMILIES})"
        ));
    };
    let generator = generator_from_flags(family, &opts)?;
    let full = generator
        .checked_qubits()
        .map_err(|e| format!("device-gen: {e}"))?;
    let truncate: Option<usize> = match opts.value("truncate") {
        None => None,
        Some(v) => {
            let n: usize = v
                .parse()
                .map_err(|_| "--truncate: invalid value".to_string())?;
            if n == 0 || n > full {
                return Err(format!(
                    "--truncate must be in 1..={full} (the generated size), got {n}"
                ));
            }
            Some(n)
        }
    };
    let qubits = truncate.unwrap_or(full);
    let name = opts
        .value("name")
        .map(str::to_string)
        .unwrap_or_else(|| format!("{}_{}", generator.spec_name().replace('-', "_"), qubits));
    let basis = match opts.value("basis") {
        Some(n) => BasisGate::by_name(n)?,
        None => None,
    };
    let mut spec = DeviceSpec {
        name,
        display_name: opts.value("display-name").map(str::to_string),
        description: opts.value("description").map(str::to_string),
        basis,
        topology: TopologySource::Generator {
            generator,
            qubits: truncate,
        },
        error_model: opts
            .value("error-model")
            .map(|m| snailqc::devices::ErrorModelRef::Preset(m.to_string())),
        error_model_at: None,
    };
    // `--expand` freezes the generator into an explicit edge list (with the
    // calibrated per-edge rates, if any), so the file stands alone.
    if opts.has("expand") {
        let graph = spec.build_graph().map_err(|e| e.to_string())?;
        let mut expanded = DeviceSpec::from_graph(spec.name.clone(), &graph);
        expanded.display_name = spec.display_name.clone().or(expanded.display_name);
        expanded.description = spec.description.clone();
        expanded.basis = spec.basis;
        if spec.error_model.is_some() {
            expanded.error_model = spec.error_model.clone();
        }
        spec = expanded;
    }
    // Self-check: whatever we emit must load back as a device (this is also
    // what validates an `--error-model` preset name).
    let text = spec.to_json();
    Device::from_spec_str(&text).map_err(|e| format!("generated spec failed validation: {e}"))?;
    emit_output(&text, opts.value("out"))
}

const GEN_FAMILIES: &str =
    "line | ring | complete | star | grid | grid-diagonals | hex | heavy-hex | hypercube | \
     tree | tree-rr | corral";

/// Maps a family name plus its sizing flags onto a validated generator,
/// accepting the same forgiving spellings as spec files.
fn generator_from_flags(family: &str, opts: &Options) -> Result<GeneratorSpec, String> {
    let need = |flag: &str| -> Result<usize, String> {
        opts.value(flag)
            .ok_or_else(|| format!("device-gen {family} needs --{flag} <N>"))?
            .parse::<usize>()
            .map_err(|_| format!("--{flag}: invalid value"))
    };
    let spec = match snailqc_util::normalize_name(family).as_str() {
        "line" => GeneratorSpec::Line {
            qubits: need("qubits")?,
        },
        "ring" => GeneratorSpec::Ring {
            qubits: need("qubits")?,
        },
        "complete" | "alltoall" | "fullyconnected" => GeneratorSpec::Complete {
            qubits: need("qubits")?,
        },
        "star" => GeneratorSpec::Star {
            qubits: need("qubits")?,
        },
        "grid" | "square" | "squarelattice" => GeneratorSpec::Grid {
            rows: need("rows")?,
            cols: need("cols")?,
        },
        "griddiagonals" | "latticealtdiagonals" => GeneratorSpec::GridDiagonals {
            rows: need("rows")?,
            cols: need("cols")?,
        },
        "hex" | "hexlattice" => GeneratorSpec::Hex {
            rows: need("rows")?,
            cols: need("cols")?,
        },
        "heavyhex" => GeneratorSpec::HeavyHex {
            rows: need("rows")?,
            cols: need("cols")?,
        },
        "hypercube" => GeneratorSpec::Hypercube {
            qubits: need("qubits")?,
        },
        "tree" => GeneratorSpec::Tree {
            levels: need("levels")?,
            round_robin: opts.has("round-robin"),
        },
        "treerr" => GeneratorSpec::Tree {
            levels: need("levels")?,
            round_robin: true,
        },
        "corral" => GeneratorSpec::Corral {
            posts: need("posts")?,
            stride_a: opts.numeric("stride-a", 1usize)?,
            stride_b: opts.numeric("stride-b", 1usize)?,
        },
        _ => return Err(format!("unknown family `{family}` ({GEN_FAMILIES})")),
    };
    Ok(spec)
}

fn cmd_workloads(_args: &[String]) -> Result<(), String> {
    println!("{:<16} description", "name");
    for (name, workload) in Workload::names().iter().zip(Workload::all()) {
        println!("{:<16} {}", name, workload.label());
    }
    Ok(())
}
