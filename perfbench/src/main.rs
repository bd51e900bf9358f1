//! Fixed-work benchmark of the `snailqc` CLI and `snailqc serve`.
//!
//! ```text
//! perfbench --bin <snailqc> --workload <name> --seed <n> --seconds <s> --trace <0|1> [--reduced]
//! ```
//!
//! Prints a human summary on stderr and, as the last line of stdout, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}` with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! See README.md for the workloads and the layer → metric map.

mod calib;
mod e2e;
mod plan;
mod replay;
mod sys;
mod util;

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use calib::{Calibration, Profile, Scale};
use e2e::{object, Outcome, Runner};
use plan::{Kind, Plan};
use replay::{Reference, Replayed, Tracer};
use serde_json::Value;
use snailqc::prelude::Verdict;
use util::{mean, percentile};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Kernel samples after each set-up that set its host-speed scale.
const SETUP_SAMPLES: usize = 11;

struct Args {
    bin: PathBuf,
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    reduced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut values: HashMap<String, String> = HashMap::new();
    let mut reduced = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--reduced" {
            reduced = true;
            continue;
        }
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        values.insert(name.to_string(), value);
    }
    let get = |name: &str| {
        values
            .get(name)
            .cloned()
            .ok_or_else(|| format!("missing --{name}"))
    };
    let number = |name: &str| -> Result<u64, String> {
        get(name)?
            .parse()
            .map_err(|_| format!("--{name} must be a whole number"))
    };
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Args {
        bin: PathBuf::from(get("bin")?),
        kind: Kind::parse(&get("workload")?)?,
        seed: number("seed")?,
        seconds: number("seconds")?.max(1),
        trace,
        reduced,
    })
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| {
        let scratch = PathBuf::from(".bench_tmp").join(format!(
            "{}-{}-{}",
            args.kind.name(),
            args.seed,
            std::process::id()
        ));
        let outcome = run(&args, &scratch);
        let _ = std::fs::remove_dir_all(&scratch);
        outcome
    });
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Everything the timed phase measured.
struct Timed {
    outcomes: Vec<Outcome>,
    /// Each op's host-speed scale, from the kernel samples around it.
    scales: Vec<Scale>,
    /// Each op's share of the timed wall time: its latency plus the
    /// harness's bookkeeping up to the next op, without kernel samples.
    slots: Vec<Duration>,
    /// CPU time of the work in reference ms.
    cpu_ms: f64,
    peak_rss_kb: u64,
    /// Daemon `stats` after the timed phase (`Null` for CLI workloads).
    stats: Value,
}

fn run(args: &Args, scratch: &Path) -> Result<String, String> {
    let serve = args.kind == Kind::ServeStream;
    std::fs::create_dir_all(scratch).map_err(|e| format!("creating {}: {e}", scratch.display()))?;
    let out = scratch.join("out.qasm");
    // The daemon workload's time is decoding large frames.
    let mut calib = Calibration::new(if serve {
        Profile::Decode
    } else {
        Profile::Transpile
    });
    // (measured s, reference s) of each set-up.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut current: Option<(Plan, Runner)> = None;
    let ticks = sys::cpu_ticks(&[None])?[0];
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        let plan = plan::build(args.kind, args.seed, args.seconds, args.reduced);
        let runner = Runner::open(&args.bin, &plan, &out, serve)?;
        let measured = started.elapsed().as_secs_f64();
        setups.push((measured, measured * calib.measure(SETUP_SAMPLES)?.speed));
        if let Some((_, previous)) = current.replace((plan, runner)) {
            previous.close()?;
        }
    }
    // One set-up is too short to count stolen ticks in; all of them are not.
    let steal = ticks.steal_share(sys::cpu_ticks(&[None])?[0]);
    for (_, scaled) in &mut setups {
        *scaled *= 1.0 - steal;
    }
    let (plan, mut runner) = current.expect("at least one set-up");
    print_mix(args.kind, &plan);

    // A traced run replays each op's layers in-process right after the op
    // (outside its latency), so layer times and the op they explain are
    // measured under the same machine conditions.
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let frames = runner.frames().to_vec();
    let mut tracer = Tracer::new();
    let mut replayed: HashMap<usize, Replayed> = HashMap::new();
    let mut frame_decode_ms = Vec::new();
    let mut replies = Vec::with_capacity(plan.ops.len());
    let mut slots = Vec::with_capacity(plan.ops.len());
    let first_sample = calib.samples.len();
    let before = runner.daemon_usage()?;
    for (i, op) in plan.ops.iter().enumerate() {
        let started = Instant::now();
        replies.push(runner.run(&plan.inputs[op.input], i));
        if !args.trace {
            slots.push(started.elapsed());
            calib.sample()?;
            continue;
        }
        if let Some(frame) = frames.get(i) {
            // The faster of two decodes, so a burst of contention on the
            // harness does not show up as daemon decode time.
            let mut fastest = f64::INFINITY;
            for _ in 0..2 {
                let span = tracer.open("serve.decode", i);
                let request = snailqc::serve::protocol::parse_request(frame.trim_end());
                tracer.close(span);
                request.map_err(|e| format!("decoding timed frame {i}: {e}"))?;
                let s = &tracer.spans[span];
                fastest = fastest.min((s.end - s.start).as_secs_f64() * 1e3);
            }
            frame_decode_ms.push(fastest);
        }
        if let Entry::Vacant(slot) = replayed.entry(op.input) {
            slot.insert(replay::replay(
                &mut tracer,
                op.input,
                &plan.inputs[op.input],
                &root,
            )?);
        }
        slots.push(started.elapsed());
        calib.sample()?;
    }
    // `WINDOW` samples past the last op, so its window is as wide as the rest.
    calib.measure(calib::WINDOW)?;
    let after = runner.daemon_usage()?;
    let stats = runner.stats()?;
    runner.close()?;
    let outcomes: Vec<Outcome> = plan
        .ops
        .iter()
        .zip(&replies)
        .map(|(op, reply)| reply.decode(&plan.inputs[op.input], op.emit, !serve))
        .collect();
    let scales: Vec<Scale> = (0..plan.ops.len())
        .map(|i| calib.scale_at(first_sample + i))
        .collect();
    // The daemon's usage over the timed phase, scaled by the ops' mean
    // speed weighted by their time, or the timed CLI children's, each
    // scaled by its own op's.
    let (cpu_ms, peak_rss_kb) = match (before, after) {
        (Some(before), Some(after)) => {
            let weighted: f64 = scales
                .iter()
                .zip(&slots)
                .map(|(s, t)| s.speed * t.as_secs_f64())
                .sum();
            let total: f64 = slots.iter().map(Duration::as_secs_f64).sum();
            let cpu = after.cpu.saturating_sub(before.cpu).as_secs_f64() * 1e3;
            (cpu * weighted / total, after.peak_rss_kb)
        }
        _ => replies
            .iter()
            .zip(&scales)
            .filter_map(|(r, s)| Some((r.usage?, s)))
            .fold((0.0, 0), |(cpu, peak), (u, s)| {
                (
                    cpu + u.cpu.as_secs_f64() * 1e3 * s.speed,
                    peak.max(u.peak_rss_kb),
                )
            }),
    };
    let timed = Timed {
        outcomes,
        scales,
        slots,
        cpu_ms,
        peak_rss_kb,
        stats,
    };

    // Untraced runs check against a plain in-process transpile.
    let mut references: HashMap<usize, Reference> = HashMap::new();
    if !args.trace {
        for op in &plan.ops {
            if let Entry::Vacant(slot) = references.entry(op.input) {
                slot.insert(replay::reference(&plan.inputs[op.input], &root)?);
            }
        }
    }
    let reference = |i: usize| {
        replayed
            .get(&i)
            .map(|r| &r.reference)
            .or_else(|| references.get(&i))
            .expect("every used input has a reference")
    };

    let mut failed = 0;
    for (op, outcome) in plan.ops.iter().zip(&timed.outcomes) {
        let input = &plan.inputs[op.input];
        let r = reference(op.input);
        let problem = if let Some(e) = &outcome.error {
            Some(e.clone())
        } else if outcome.routed_digest != r.routed_digest {
            Some(format!(
                "`{}`: routed digest {} but in-process {}",
                input.label, outcome.routed_digest, r.routed_digest
            ))
        } else if (outcome.swaps, outcome.basis_gates, outcome.basis_depth)
            != (r.swaps, r.basis_gates, r.basis_depth)
        {
            Some(format!("`{}`: counts differ from in-process", input.label))
        } else if let Verdict::NotEquivalent(why) = &r.verdict {
            Some(format!("`{}`: routed circuit refuted: {why}", input.label))
        } else {
            None
        };
        if let Some(problem) = problem {
            if failed < 5 {
                eprintln!("perfbench: failed op: {problem}");
            }
            failed += 1;
        }
    }

    let metrics = if args.trace {
        let spawn_ms = spawn_floor_ms(&args.bin)?;
        std::fs::create_dir_all(".bench_out").map_err(|e| e.to_string())?;
        tracer.write(&PathBuf::from(".bench_out").join(format!(
            "spans-{}-{}.json",
            args.kind.name(),
            args.seed
        )))?;
        layer_metrics(
            args.kind,
            &plan,
            &timed,
            &tracer,
            &replayed,
            &frames,
            &frame_decode_ms,
            spawn_ms,
            calib.median_cpu_ms(),
        )
    } else {
        end_to_end_metrics(&plan, &timed, &setups)
    };
    for (name, value, unit) in &metrics {
        eprintln!("  {name:<32} {value:>14.4} {unit}");
    }
    let metrics = metrics
        .iter()
        .map(|&(name, value, unit)| {
            // JSON has no NaN or infinities.
            let value = if value.is_finite() { value } else { 0.0 };
            let metric = object(vec![
                ("value", Value::Float(value)),
                ("unit", Value::String(unit.to_string())),
            ]);
            (name, metric)
        })
        .collect();
    let result = object(vec![
        ("correct", Value::Bool(failed == 0)),
        ("attempted", Value::UInt(plan.ops.len() as u64)),
        ("failed", Value::UInt(failed)),
        ("metrics", object(metrics)),
    ]);
    serde_json::to_string(&result).map_err(|e| e.to_string())
}

type Metric = (&'static str, f64, &'static str);

/// `values` (one per op) grouped by op class, classes in first-seen order.
fn by_class<'a>(plan: &'a Plan, values: &[f64]) -> Vec<(&'a str, Vec<f64>)> {
    let mut groups: Vec<(&str, Vec<f64>)> = Vec::new();
    for (op, &v) in plan.ops.iter().zip(values) {
        match groups.iter_mut().find(|(c, _)| *c == op.class) {
            Some((_, group)) => group.push(v),
            None => groups.push((op.class, vec![v])),
        }
    }
    groups
}

/// Prints the op-class mix.
fn print_mix(kind: Kind, plan: &Plan) {
    let mix: Vec<String> = by_class(plan, &vec![0.0; plan.ops.len()])
        .iter()
        .map(|(c, v)| {
            let share = 100.0 * v.len() as f64 / plan.ops.len() as f64;
            format!("{c} {} ({share:.0}%)", v.len())
        })
        .collect();
    eprintln!(
        "perfbench {}: {} ops over {} inputs; mix: {}",
        kind.name(),
        plan.ops.len(),
        plan.inputs.len(),
        mix.join(", ")
    );
}

fn end_to_end_metrics(plan: &Plan, timed: &Timed, setups: &[(f64, f64)]) -> Vec<Metric> {
    let n = timed.outcomes.len();
    let measured: Vec<f64> = timed
        .outcomes
        .iter()
        .map(|o| o.latency.as_secs_f64() * 1e3)
        .collect();
    let latencies: Vec<f64> = measured
        .iter()
        .zip(&timed.scales)
        .map(|(ms, s)| ms * s.wall())
        .collect();
    for (class, v) in &by_class(plan, &latencies) {
        eprintln!(
            "  class {class:<12} n={:<5} p50 {:>9.3} ms  p90 {:>9.3} ms",
            v.len(),
            percentile(v, 0.5),
            percentile(v, 0.9)
        );
    }
    eprintln!(
        "  op latency over n={n} samples ({} beyond p90)",
        n - (n * 9).div_ceil(10)
    );
    // The neighbourhood of each percentile: a wide one means it sits where
    // two op classes meet.
    for (lo, mid, hi) in [(0.45, "p50", 0.55), (0.85, "p90", 0.95)] {
        eprintln!(
            "  around {mid}: {:.3} .. {:.3} ms",
            percentile(&latencies, lo),
            percentile(&latencies, hi)
        );
    }
    let wall = |scaled: bool| -> f64 {
        timed
            .slots
            .iter()
            .zip(&timed.scales)
            .map(|(t, s)| t.as_secs_f64() * if scaled { s.wall() } else { 1.0 })
            .sum()
    };
    let scale = |f: fn(&Scale) -> f64| timed.scales.iter().map(f).collect::<Vec<f64>>();
    eprintln!(
        "  host speed: wall scale p10 {:.3} p50 {:.3} p90 {:.3}, speed p50 {:.3}, \
         steal p50 {:.3}; as measured: setup {:.4} s, {:.3} ops/s, p50 {:.3} ms, p90 {:.3} ms",
        percentile(&scale(Scale::wall), 0.1),
        percentile(&scale(Scale::wall), 0.5),
        percentile(&scale(Scale::wall), 0.9),
        percentile(&scale(|s| s.speed), 0.5),
        percentile(&scale(|s| s.steal), 0.5),
        percentile(&setups.iter().map(|s| s.0).collect::<Vec<_>>(), 0.5),
        n as f64 / wall(false),
        percentile(&measured, 0.5),
        percentile(&measured, 0.9),
    );
    let total = |f: fn(&Outcome) -> u64| timed.outcomes.iter().map(f).sum::<u64>() as f64;
    vec![
        (
            "setup_s",
            percentile(&setups.iter().map(|s| s.1).collect::<Vec<_>>(), 0.5),
            "s",
        ),
        ("ops_per_s", n as f64 / wall(true), "1/s"),
        ("op_p50_ms", percentile(&latencies, 0.5), "ms"),
        ("op_p90_ms", percentile(&latencies, 0.9), "ms"),
        ("cpu_ms_per_op", timed.cpu_ms / n as f64, "ms"),
        ("peak_rss_mb", timed.peak_rss_kb as f64 / 1024.0, "MB"),
        ("swaps_total", total(|o| o.swaps), "count"),
        ("basis_gates_total", total(|o| o.basis_gates), "count"),
        ("basis_depth_total", total(|o| o.basis_depth), "count"),
    ]
}

/// Median wall time of `snailqc --help`: the process start-up floor.
fn spawn_floor_ms(bin: &Path) -> Result<f64, String> {
    let mut samples = Vec::new();
    for _ in 0..21 {
        let started = Instant::now();
        let status = Command::new(bin)
            .arg("--help")
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        samples.push(started.elapsed().as_secs_f64() * 1e3);
        if !status.success() {
            return Err(format!("`snailqc --help` exited with {status}"));
        }
    }
    Ok(percentile(&samples, 0.5))
}

/// Per-op layer times from the traced replay. Each op is charged the layer
/// calls it actually makes: a CLI op parses, builds its device, transpiles
/// cold (distance state included), emits QASM 2 and digests; a daemon miss
/// decodes its frame, parses and transpiles on a warm pooled device (plus
/// QASM 3 emission for `emit` requests); a daemon memory hit only decodes.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    kind: Kind,
    plan: &Plan,
    timed: &Timed,
    tracer: &Tracer,
    replayed: &HashMap<usize, Replayed>,
    frames: &[String],
    frame_decode_ms: &[f64],
    spawn_ms: f64,
    kernel_ms: f64,
) -> Vec<Metric> {
    let spans = tracer.self_ms();
    let layer =
        |input: usize, name: &'static str| spans.get(&(input, name)).copied().unwrap_or(0.0);
    let cli = kind != Kind::ServeStream;
    let n = plan.ops.len() as f64;

    #[derive(Default)]
    struct Sums {
        parse: f64,
        parse_bytes: f64,
        build: f64,
        distance: f64,
        layout: f64,
        route: f64,
        routed_2q: f64,
        translate: f64,
        residual: f64,
        emit: f64,
        digest: f64,
        decode: f64,
        decode_bytes: f64,
        handle: f64,
        serve_residual: f64,
        cli_residual: f64,
        hits: f64,
    }
    let mut s = Sums::default();
    let mut classes: std::collections::BTreeMap<&str, [f64; 4]> = Default::default();
    for (i, (op, outcome)) in plan.ops.iter().zip(&timed.outcomes).enumerate() {
        let r = &replayed[&op.input];
        let wall = outcome.latency.as_secs_f64() * 1e3;
        if !cli {
            let (decode, handle) = (frame_decode_ms[i], outcome.handle_micros as f64 / 1e3);
            s.decode += decode;
            s.decode_bytes += frames[i].len() as f64;
            s.handle += handle;
            s.serve_residual += wall - decode - handle;
            let row = classes.entry(op.class).or_insert([0.0; 4]);
            for (sum, v) in row.iter_mut().zip([1.0, wall, decode, handle]) {
                *sum += v;
            }
            if outcome.cached == "memory" {
                s.hits += 1.0;
                continue;
            }
        }
        let warm = layer(op.input, "transpile.warm");
        let (layout, route, translate) = (
            layer(op.input, "transpiler.layout"),
            layer(op.input, "transpiler.route"),
            layer(op.input, "transpiler.translate"),
        );
        s.parse += layer(op.input, "qasm.parse");
        s.parse_bytes += r.source_bytes as f64;
        s.layout += layout;
        s.route += route;
        s.routed_2q += r.routed_two_qubit as f64;
        s.translate += translate;
        s.residual += warm - layout - route - translate;
        s.digest += layer(op.input, "serve.digest");
        if cli {
            let build = layer(op.input, "devices.build");
            let distance = layer(op.input, "transpile.cold") - warm;
            let emit = layer(op.input, "qasm.emit.v2");
            s.build += build;
            s.distance += distance;
            s.emit += emit;
            let inside = layer(op.input, "qasm.parse")
                + build
                + layer(op.input, "transpile.cold")
                + emit
                + layer(op.input, "serve.digest");
            s.cli_residual += wall - inside;
        } else if op.emit {
            s.emit += layer(op.input, "qasm.emit.v3");
        }
    }

    for (class, [count, wall, decode, handle]) in &classes {
        eprintln!(
            "  class {class:<12} n={count:<5} mean latency {:>9.3} ms = decode {:>9.3} + handle {:>9.3} + rest {:>8.3}",
            wall / count,
            decode / count,
            handle / count,
            (wall - decode - handle) / count
        );
    }
    let verify: Vec<f64> = replayed.keys().map(|&i| layer(i, "sim.verify")).collect();
    let verified = replayed
        .values()
        .filter(|r| r.reference.verdict.is_equivalent())
        .count();
    let inconclusive = replayed
        .values()
        .filter(|r| matches!(r.reference.verdict, Verdict::Inconclusive(_)))
        .count();
    let stat = |path: &[&str]| {
        path.iter()
            .try_fold(&timed.stats, |v, key| v.get(key))
            .and_then(Value::as_u64)
            .unwrap_or(0) as f64
    };
    let per_op = |v: f64| v / n;
    // Layers a workload never calls report 0, not 0/0.
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    vec![
        ("cli.spawn_ms", spawn_ms, "ms"),
        ("qasm.parse_ms", per_op(s.parse), "ms"),
        (
            "qasm.parse_mb_per_s",
            ratio(s.parse_bytes / 1e3, s.parse),
            "MB/s",
        ),
        ("devices.build_ms", per_op(s.build), "ms"),
        ("topology.distance_cold_ms", per_op(s.distance), "ms"),
        ("transpiler.layout_ms", per_op(s.layout), "ms"),
        ("transpiler.route_ms", per_op(s.route), "ms"),
        (
            "transpiler.route_us_per_2q",
            ratio(s.route * 1e3, s.routed_2q),
            "us",
        ),
        ("transpiler.translate_ms", per_op(s.translate), "ms"),
        ("transpiler.residual_ms", per_op(s.residual), "ms"),
        ("qasm.emit_ms", per_op(s.emit), "ms"),
        ("serve.digest_ms", per_op(s.digest), "ms"),
        ("serve.decode_ms", per_op(s.decode), "ms"),
        (
            "serve.decode_mb_per_s",
            ratio(s.decode_bytes / 1e3, s.decode),
            "MB/s",
        ),
        ("serve.handle_ms", per_op(s.handle), "ms"),
        ("serve.residual_ms", per_op(s.serve_residual), "ms"),
        (
            "serve.memory_hit_share",
            if cli { 0.0 } else { s.hits / n },
            "ratio",
        ),
        ("serve.device_pool_misses", stat(&["devices_warm"]), "count"),
        (
            "serve.routing_cache_misses",
            stat(&["cache", "routing_cache_misses"]),
            "count",
        ),
        (
            "serve.busy_rejected",
            stat(&["requests", "busy_rejected"]),
            "count",
        ),
        ("cli.residual_ms", per_op(s.cli_residual), "ms"),
        ("sim.verify_ms", mean(&verify), "ms"),
        ("sim.verified", verified as f64, "count"),
        ("sim.inconclusive", inconclusive as f64, "count"),
        ("trace.overhead_pct", tracer.overhead_pct(), "%"),
        ("calib.kernel_ms", kernel_ms, "ms"),
    ]
}
