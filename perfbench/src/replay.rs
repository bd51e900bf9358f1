//! In-process replay of the workload inputs through the library's public
//! entry points: the reference each op's output is checked against, and —
//! in a traced run — one span per layer call, timed from outside.

use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use snailqc::prelude::{Device, LayoutStrategy, Pipeline, QasmVersion, RouterConfig, Verdict};
use snailqc::transpiler::{route_with_cache, translate_to_basis, RoutingCache};

use serde_json::Value;

use crate::e2e::object;
use crate::plan::{DeviceArg, Input};

/// What one input must produce, whichever way it is run.
pub struct Reference {
    pub routed_digest: String,
    pub swaps: u64,
    pub basis_gates: u64,
    pub basis_depth: u64,
    pub verdict: Verdict,
}

/// The device exactly as the CLI and the daemon resolve it.
fn build_device(input: &Input, root: &Path) -> Result<Device, String> {
    let device = match &input.device {
        DeviceArg::Topology(name) => Device::from_catalog(name)?,
        DeviceArg::Spec(path) => Device::from_spec_file(root.join(path))?,
    };
    Ok(device.with_basis(input.basis))
}

/// The CLI's default pipeline for this input's router seed.
fn pipeline_for(input: &Input, device: &Device) -> Pipeline {
    Pipeline::builder()
        .layout(LayoutStrategy::Dense)
        .router(RouterConfig {
            trials: 4,
            seed: input.router_seed,
            error_weight: if device.error_model().is_some() {
                1.0
            } else {
                0.0
            },
            ..RouterConfig::default()
        })
        .build()
}

/// Transpiles and verifies one input without tracing.
pub fn reference(input: &Input, root: &Path) -> Result<Reference, String> {
    let circuit = snailqc::qasm::parse_any(&input.source)
        .map_err(|e| e.to_string())?
        .circuit;
    let device = build_device(input, root)?;
    let result = device
        .try_transpile(&circuit, &pipeline_for(input, &device))
        .map_err(|e| e.to_string())?;
    Ok(Reference {
        routed_digest: snailqc::serve::circuit_digest(&result.routed.circuit),
        swaps: result.report.swap_count as u64,
        basis_gates: result.report.basis_gate_count as u64,
        basis_depth: result.report.basis_gate_depth as u64,
        verdict: snailqc::sim::verify_equivalent(&circuit, &result.routed),
    })
}

/// One recorded span. `key` is the input (or, for frame decoding, the op)
/// the span belongs to.
pub struct Span {
    pub name: &'static str,
    pub key: usize,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

/// Spans kept in memory and written out when the run ends.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn open(&mut self, name: &'static str, key: usize) -> usize {
        self.spans.push(Span {
            name,
            key,
            parent: self.open.last().copied(),
            start: self.origin.elapsed(),
            end: Duration::ZERO,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    pub fn close(&mut self, span: usize) {
        assert_eq!(self.open.pop(), Some(span), "spans close innermost first");
        self.spans[span].end = self.origin.elapsed();
    }

    /// Runs `f` inside a leaf span.
    pub fn time<T>(&mut self, name: &'static str, key: usize, f: impl FnOnce() -> T) -> T {
        let span = self.open(name, key);
        let out = f();
        self.close(span);
        out
    }

    /// Self time in ms of every (key, span name): each span's duration minus
    /// the part its children cover.
    pub fn self_ms(&self) -> HashMap<(usize, &'static str), f64> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_time[parent] += span.end - span.start;
            }
        }
        let mut out = HashMap::new();
        for (span, children) in self.spans.iter().zip(child_time) {
            let own = (span.end - span.start).saturating_sub(children);
            *out.entry((span.key, span.name)).or_insert(0.0) += own.as_secs_f64() * 1e3;
        }
        out
    }

    /// Share (%) of the traced time that span bookkeeping itself takes:
    /// the cost of one empty span, measured here, times the spans recorded,
    /// over the time the outermost spans cover.
    pub fn overhead_pct(&self) -> f64 {
        const PROBES: u32 = 10_000;
        let mut probe = Tracer::new();
        let started = Instant::now();
        for _ in 0..PROBES {
            let span = probe.open("probe", 0);
            probe.close(span);
        }
        let per_span = started.elapsed().as_secs_f64() / f64::from(PROBES);
        let covered: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.end - s.start).as_secs_f64())
            .sum();
        100.0 * per_span * self.spans.len() as f64 / covered
    }

    /// Writes the spans as a JSON array (times in µs from the run's start).
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let rows = self
            .spans
            .iter()
            .map(|s| {
                object(vec![
                    ("name", Value::String(s.name.to_string())),
                    ("key", Value::UInt(s.key as u64)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                    ),
                    ("start_us", Value::UInt(s.start.as_micros() as u64)),
                    ("end_us", Value::UInt(s.end.as_micros() as u64)),
                ])
            })
            .collect();
        let text = serde_json::to_string_pretty(&Value::Array(rows)).map_err(|e| e.to_string())?;
        std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

/// Per-input facts the layer metrics need besides span times.
pub struct Replayed {
    pub reference: Reference,
    pub source_bytes: usize,
    pub routed_two_qubit: usize,
}

/// Replays one input through each layer's public call, one span per call:
/// parse, device build, a cold then a warm `try_transpile`, then layout,
/// warm-cache routing and translation on their own, emission in both
/// dialects, the digests and verification.
pub fn replay(
    tracer: &mut Tracer,
    key: usize,
    input: &Input,
    root: &Path,
) -> Result<Replayed, String> {
    let root_span = tracer.open("input", key);
    let circuit = tracer
        .time("qasm.parse", key, || {
            snailqc::qasm::parse_any(&input.source)
        })
        .map_err(|e| e.to_string())?
        .circuit;
    let device = tracer.time("devices.build", key, || build_device(input, root))?;
    let pipeline = pipeline_for(input, &device);
    let transpile = || {
        device
            .try_transpile(&circuit, &pipeline)
            .map_err(|e| e.to_string())
    };
    tracer.time("transpile.cold", key, transpile)?;
    let result = tracer.time("transpile.warm", key, transpile)?;

    let graph = device.graph();
    let layout = tracer
        .time("transpiler.layout", key, || {
            LayoutStrategy::Dense.try_compute(&circuit, graph)
        })
        .map_err(|e| e.to_string())?;
    let cache = RoutingCache::new();
    route_with_cache(&circuit, graph, &layout, pipeline.router(), &cache);
    let routed = tracer.time("transpiler.route", key, || {
        route_with_cache(&circuit, graph, &layout, pipeline.router(), &cache)
    });
    tracer.time("transpiler.translate", key, || {
        black_box(translate_to_basis(&routed.circuit, input.basis))
    });
    let output = result.translated.as_ref().unwrap_or(&result.routed.circuit);
    tracer.time("qasm.emit.v2", key, || {
        black_box(snailqc::qasm::emit_versioned(output, QasmVersion::V2))
    });
    tracer.time("qasm.emit.v3", key, || {
        black_box(snailqc::qasm::emit_versioned(output, QasmVersion::V3))
    });
    // Both digests, as the CLI and the daemon compute them.
    let routed_digest = tracer.time("serve.digest", key, || {
        black_box(
            result
                .translated
                .as_ref()
                .map(snailqc::serve::circuit_digest),
        );
        snailqc::serve::circuit_digest(&result.routed.circuit)
    });
    let verdict = tracer.time("sim.verify", key, || {
        snailqc::sim::verify_equivalent(&circuit, &result.routed)
    });
    tracer.close(root_span);
    Ok(Replayed {
        reference: Reference {
            routed_digest,
            swaps: result.report.swap_count as u64,
            basis_gates: result.report.basis_gate_count as u64,
            basis_depth: result.report.basis_gate_depth as u64,
            verdict,
        },
        source_bytes: input.source.len(),
        routed_two_qubit: routed.circuit.two_qubit_count(),
    })
}
