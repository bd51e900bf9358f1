//! The staged transpilation pipeline of Fig. 10.
//!
//! `Quantum circuit → layout → routing → (count SWAPs) → basis translation
//! → analysis (count 2Q gates)`. A [`Pipeline`] configures the two stages
//! that have settings, layout and routing, through [`Pipeline::builder`];
//! the basis to translate into is an argument of [`Pipeline::run`], because
//! on a co-designed machine the device, not the pipeline, fixes the gate:
//!
//! ```
//! use snailqc_transpiler::{Pipeline, LayoutStrategy, RouterConfig, RoutingCache};
//! use snailqc_decompose::BasisGate;
//! use snailqc_topology::builders;
//! use snailqc_workloads::qft;
//!
//! let pipeline = Pipeline::builder()
//!     .layout(LayoutStrategy::Dense)
//!     .router(RouterConfig::default())
//!     .build();
//! let graph = builders::hypercube(4);
//! // Translate into √iSWAP, with a fresh cache of distance rows.
//! let result = pipeline
//!     .run(&qft(8, true), &graph, Some(BasisGate::SqrtISwap), &RoutingCache::new())
//!     .unwrap();
//! assert!(result.report.basis_gate_count >= result.report.swap_count);
//! ```
//!
//! `snailqc_core::device::Device::try_transpile` makes the same call with
//! the device's graph, native basis and long-lived routing cache.
//!
//! A run produces a [`TranspileResult`]: the routed (and optionally
//! basis-translated) circuit, the [`TranspileReport`] bundling the four data
//! series the paper collects for every (workload, size, topology, basis)
//! point — total SWAPs, critical-path SWAPs, total 2Q basis gates, and
//! critical-path 2Q basis gates (the pulse-duration proxy) — plus a
//! [`PassTrace`] recording per-stage wall time and gate/SWAP deltas for
//! observability.
//!
//! When the calling thread has a [`snailqc_obs::Trace`] entered, every stage
//! additionally runs inside a tracing span (`pipeline.layout`,
//! `pipeline.routing`, …) nested under a `pipeline.run` span.
//! Instrumentation only records — routed output is bitwise-identical with or
//! without a trace.

use crate::layout::{LayoutError, LayoutStrategy};
use crate::routing::{route_with_cache, RoutedCircuit, RouterConfig, RoutingCache};
use crate::translate::translate_to_basis;
use snailqc_circuit::Circuit;
use snailqc_decompose::BasisGate;
use snailqc_obs as obs;
use snailqc_topology::CouplingGraph;
use std::time::Instant;

/// Why a pipeline run could not produce a result. Today the only fallible
/// stage is layout (routing, translation and analysis are total on any
/// placed program); the enum leaves room for later stages to fail without
/// another API break.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TranspileError {
    /// The layout stage could not place the program — it does not fit in
    /// any single connected component of the device.
    Layout(LayoutError),
}

impl std::fmt::Display for TranspileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TranspileError::Layout(e) => write!(f, "layout failed: {e}"),
        }
    }
}

impl std::error::Error for TranspileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TranspileError::Layout(e) => Some(e),
        }
    }
}

impl From<LayoutError> for TranspileError {
    fn from(e: LayoutError) -> Self {
        TranspileError::Layout(e)
    }
}

/// The staged transpilation flow: layout → routing → translation → analysis.
///
/// Build one with [`Pipeline::builder`], then [`Pipeline::run`] it on any
/// number of (circuit, device) pairs; a pipeline is an immutable recipe and
/// every run is independent.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct Pipeline {
    layout: LayoutStrategy,
    router: RouterConfig,
}

impl Default for Pipeline {
    fn default() -> Self {
        Self::builder().build()
    }
}

impl Pipeline {
    /// Starts building a pipeline (dense layout, default router).
    pub fn builder() -> PipelineBuilder {
        PipelineBuilder::default()
    }

    /// Re-opens this pipeline as a builder, to derive a variant (e.g. the
    /// same stages under a different seed).
    pub fn to_builder(&self) -> PipelineBuilder {
        PipelineBuilder {
            layout: self.layout,
            router: self.router,
        }
    }

    /// The configured layout strategy.
    pub fn layout(&self) -> LayoutStrategy {
        self.layout
    }

    /// The configured router.
    pub fn router(&self) -> &RouterConfig {
        &self.router
    }

    /// Runs the pipeline on `circuit`: layout → routing → translation →
    /// analysis.
    ///
    /// `basis` is the basis to translate into — `None` (a bare coupling
    /// graph, or a device without a native gate) stops after routing.
    /// `cache` holds the distance rows routing reads; it must belong to
    /// `graph` (same structure and edge errors), and reusing it across runs
    /// on that graph saves recomputing rows without changing the output.
    /// `snailqc_core::device::Device::try_transpile` passes the device's
    /// graph, native basis and cache.
    ///
    /// Returns a [`TranspileError`] when the program cannot be placed (e.g.
    /// it straddles every connected component of a fragmented device) — the
    /// error the CLI and the serve daemon surface as a diagnostic instead of
    /// a crash.
    pub fn run(
        &self,
        circuit: &Circuit,
        graph: &CouplingGraph,
        basis: Option<BasisGate>,
        cache: &RoutingCache,
    ) -> Result<TranspileResult, TranspileError> {
        let _run_span = obs::span("pipeline.run");
        let mut trace = PassTrace::default();

        // Stage 1 — layout: pick the initial logical→physical placement.
        let started = Instant::now();
        let stage_span = obs::span("pipeline.layout");
        let layout = self.layout.try_compute(circuit, graph)?;
        drop(stage_span);
        trace.push(
            "layout",
            started,
            (circuit.len(), circuit.two_qubit_count()),
            (circuit.len(), circuit.two_qubit_count()),
        );

        // Stage 2 — routing: insert SWAPs until every 2Q gate is adjacent.
        let started = Instant::now();
        let stage_span = obs::span("pipeline.routing");
        let routed = route_with_cache(circuit, graph, &layout, &self.router, cache);
        drop(stage_span);
        trace.push(
            "routing",
            started,
            (circuit.len(), circuit.two_qubit_count()),
            (routed.circuit.len(), routed.circuit.two_qubit_count()),
        );

        // Stage 3 — translation: rewrite into the native basis, if any.
        let translated = basis.map(|basis| {
            let started = Instant::now();
            let stage_span = obs::span("pipeline.translation");
            let (translated, _) = translate_to_basis(&routed.circuit, basis);
            drop(stage_span);
            trace.push(
                "translation",
                started,
                (routed.circuit.len(), routed.circuit.two_qubit_count()),
                (translated.len(), translated.two_qubit_count()),
            );
            translated
        });

        // Stage 4 — analysis: collect the paper's metrics.
        let started = Instant::now();
        let stage_span = obs::span("pipeline.analysis");
        let mut report = TranspileReport {
            logical_qubits: circuit.num_qubits(),
            physical_qubits: graph.num_qubits(),
            input_two_qubit_gates: circuit.two_qubit_count(),
            swap_count: routed.swap_count,
            swap_depth: routed.swap_depth(),
            routed_two_qubit_gates: routed.circuit.two_qubit_count(),
            routed_two_qubit_depth: routed.circuit.two_qubit_depth(),
            basis,
            basis_gate_count: 0,
            basis_gate_depth: 0,
            error_weight: self.router.error_weight,
            routed_edge_log_fidelity: edge_log_fidelity(&routed.circuit, graph),
            basis_edge_log_fidelity: 0.0,
        };
        if let Some(translated) = &translated {
            report.basis_gate_count = translated.two_qubit_count();
            report.basis_gate_depth = translated.two_qubit_depth();
            report.basis_edge_log_fidelity = edge_log_fidelity(translated, graph);
        }
        let final_gates = translated
            .as_ref()
            .map(|t| (t.len(), t.two_qubit_count()))
            .unwrap_or((routed.circuit.len(), routed.circuit.two_qubit_count()));
        drop(stage_span);
        trace.push("analysis", started, final_gates, final_gates);

        Ok(TranspileResult {
            routed,
            translated,
            report,
            trace,
        })
    }
}

/// Assembles a [`Pipeline`] stage by stage.
#[derive(Debug, Clone, Copy)]
pub struct PipelineBuilder {
    layout: LayoutStrategy,
    router: RouterConfig,
}

impl Default for PipelineBuilder {
    fn default() -> Self {
        Self {
            layout: LayoutStrategy::Dense,
            router: RouterConfig::default(),
        }
    }
}

impl PipelineBuilder {
    /// Sets the initial-placement strategy.
    pub fn layout(mut self, layout: LayoutStrategy) -> Self {
        self.layout = layout;
        self
    }

    /// Sets the full router configuration.
    pub fn router(mut self, router: RouterConfig) -> Self {
        self.router = router;
        self
    }

    /// Overrides the router seed, keeping the rest of the configuration.
    pub fn seed(mut self, seed: u64) -> Self {
        self.router.seed = seed;
        self
    }

    /// Overrides the number of stochastic routing trials.
    pub fn trials(mut self, trials: usize) -> Self {
        self.router.trials = trials;
        self
    }

    /// Overrides the fidelity weight of the SWAP scoring (`0` = noise-blind).
    pub fn error_weight(mut self, error_weight: f64) -> Self {
        self.router.error_weight = error_weight;
        self
    }

    /// Finalizes the pipeline.
    pub fn build(self) -> Pipeline {
        Pipeline {
            layout: self.layout,
            router: self.router,
        }
    }
}

/// Wall time and gate/SWAP deltas of one pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct StageTrace {
    /// Stage name: `layout`, `routing`, `translation` or `analysis`.
    pub stage: &'static str,
    /// Wall time the stage took, in microseconds.
    pub micros: f64,
    /// Total gates entering the stage.
    pub gates_in: usize,
    /// Total gates leaving the stage.
    pub gates_out: usize,
    /// Two-qubit gates entering the stage.
    pub two_qubit_in: usize,
    /// Two-qubit gates leaving the stage.
    pub two_qubit_out: usize,
}

/// Per-stage observability record of one pipeline run: which stages ran, how
/// long each took, and how each changed the circuit's gate counts.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize)]
pub struct PassTrace {
    /// The stages that ran, in execution order.
    pub stages: Vec<StageTrace>,
}

impl PassTrace {
    fn push(
        &mut self,
        stage: &'static str,
        started: Instant,
        (gates_in, two_qubit_in): (usize, usize),
        (gates_out, two_qubit_out): (usize, usize),
    ) {
        self.stages.push(StageTrace {
            stage,
            micros: started.elapsed().as_secs_f64() * 1e6,
            gates_in,
            gates_out,
            two_qubit_in,
            two_qubit_out,
        });
    }

    /// The trace of one stage by name, if it ran.
    pub fn stage(&self, name: &str) -> Option<&StageTrace> {
        self.stages.iter().find(|s| s.stage == name)
    }

    /// SWAP gates inserted by the routing stage (its two-qubit delta).
    pub fn swaps_inserted(&self) -> usize {
        self.stage("routing")
            .map(|s| s.two_qubit_out - s.two_qubit_in)
            .unwrap_or(0)
    }
}

/// The measurements collected by the Fig. 10 flow.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct TranspileReport {
    /// Program qubits.
    pub logical_qubits: usize,
    /// Device qubits.
    pub physical_qubits: usize,
    /// Two-qubit gates in the input circuit (before routing).
    pub input_two_qubit_gates: usize,
    /// SWAP gates inserted by routing.
    pub swap_count: usize,
    /// Critical-path SWAP count after routing.
    pub swap_depth: usize,
    /// Two-qubit gates after routing (input gates + SWAPs).
    pub routed_two_qubit_gates: usize,
    /// Critical-path two-qubit count after routing.
    pub routed_two_qubit_depth: usize,
    /// Basis used for translation, if any.
    pub basis: Option<BasisGate>,
    /// Total basis-gate applications after translation (0 when no basis).
    pub basis_gate_count: usize,
    /// Critical-path basis-gate count — the paper's pulse-duration proxy.
    pub basis_gate_depth: usize,
    /// Fidelity weight the router scored SWAPs with (0 = noise-blind).
    pub error_weight: f64,
    /// `Σ ln(1 − err_e)` over the two-qubit gates of the *routed* circuit,
    /// using the per-edge error rates the router saw. `exp` of this is the
    /// routed circuit's control-channel fidelity at SWAP granularity.
    pub routed_edge_log_fidelity: f64,
    /// `Σ ln(1 − err_e)` over the basis gates of the *translated* circuit
    /// (0 when no basis was requested).
    pub basis_edge_log_fidelity: f64,
}

/// The full output of a pipeline run.
#[derive(Debug, Clone)]
pub struct TranspileResult {
    /// The routed physical circuit (before basis translation).
    pub routed: RoutedCircuit,
    /// The basis-translated circuit, when a basis was requested.
    pub translated: Option<Circuit>,
    /// The collected measurements.
    pub report: TranspileReport,
    /// Per-stage timings and gate deltas.
    pub trace: PassTrace,
}

/// `Σ ln(1 − err_e)` over every two-qubit gate of `circuit`, the log of the
/// circuit's control-channel success probability under `graph`'s per-edge
/// error rates.
fn edge_log_fidelity(circuit: &Circuit, graph: &CouplingGraph) -> f64 {
    circuit
        .instructions()
        .iter()
        .filter(|inst| inst.is_two_qubit())
        .map(|inst| {
            let rate = graph
                .edge_error(inst.qubits[0], inst.qubits[1])
                .clamp(0.0, 0.999_999);
            (1.0 - rate).ln()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use snailqc_topology::{builders, catalog};
    use snailqc_workloads::{ghz, qaoa_vanilla, qft};

    /// A run on a bare graph with a fresh cache.
    fn run(
        pipeline: &Pipeline,
        circuit: &Circuit,
        graph: &CouplingGraph,
        basis: Option<BasisGate>,
    ) -> TranspileResult {
        pipeline
            .run(circuit, graph, basis, &RoutingCache::new())
            .unwrap()
    }

    #[test]
    fn report_fields_are_consistent() {
        let c = qft(8, true);
        let graph = builders::square_lattice(3, 3);
        let result = run(&Pipeline::default(), &c, &graph, Some(BasisGate::Cnot));
        let r = result.report;
        assert_eq!(r.logical_qubits, 8);
        assert_eq!(r.physical_qubits, 9);
        assert_eq!(r.input_two_qubit_gates, c.two_qubit_count());
        assert_eq!(
            r.routed_two_qubit_gates,
            r.input_two_qubit_gates + r.swap_count
        );
        assert!(r.basis_gate_count >= r.routed_two_qubit_gates);
        assert!(r.basis_gate_depth <= r.basis_gate_count);
        assert!(r.swap_depth <= r.swap_count);
        let translated = result.translated.unwrap();
        assert_eq!(translated.two_qubit_count(), r.basis_gate_count);
    }

    #[test]
    fn a_run_without_a_basis_skips_translation() {
        let c = ghz(6);
        let graph = builders::line(6);
        let result = run(&Pipeline::default(), &c, &graph, None);
        assert!(result.translated.is_none());
        assert_eq!(result.report.basis_gate_count, 0);
        assert!(result.trace.stage("translation").is_none());
    }

    #[test]
    fn a_run_translates_into_the_basis_it_is_given() {
        let c = ghz(6);
        let graph = builders::line(6);
        let result = run(&Pipeline::default(), &c, &graph, Some(BasisGate::SqrtISwap));
        assert_eq!(result.report.basis, Some(BasisGate::SqrtISwap));
        assert!(result.translated.is_some());
    }

    #[test]
    fn ghz_on_a_line_with_trivial_adjacency_needs_no_swaps() {
        let c = ghz(6);
        let graph = builders::line(6);
        let result = run(&Pipeline::default(), &c, &graph, None);
        assert_eq!(result.report.swap_count, 0);
    }

    #[test]
    fn corral_beats_heavy_hex_on_qaoa_swaps() {
        // Observation 2 in miniature: the densely connected SNAIL Corral
        // routes an all-to-all QAOA with far fewer SWAPs than heavy-hex.
        let c = qaoa_vanilla(12, 1, 3);
        let corral = catalog::corral11_16();
        let heavy = catalog::heavy_hex_20();
        let pipeline = Pipeline::default();
        let on_corral = run(&pipeline, &c, &corral, None).report;
        let on_heavy = run(&pipeline, &c, &heavy, None).report;
        assert!(
            on_corral.swap_count < on_heavy.swap_count,
            "corral {} vs heavy-hex {}",
            on_corral.swap_count,
            on_heavy.swap_count
        );
    }

    #[test]
    fn sqrt_iswap_beats_syc_on_total_gate_count() {
        // Observation 1: for the same routed circuit, the √iSWAP basis never
        // needs more applications than SYC.
        let c = qft(10, true);
        let graph = builders::hypercube(4);
        let siswap = run(&Pipeline::default(), &c, &graph, Some(BasisGate::SqrtISwap));
        let syc = run(&Pipeline::default(), &c, &graph, Some(BasisGate::Syc));
        assert!(siswap.report.basis_gate_count <= syc.report.basis_gate_count);
    }

    #[test]
    fn builder_configures_every_stage() {
        let pipeline = Pipeline::builder()
            .layout(LayoutStrategy::Trivial)
            .trials(2)
            .seed(99)
            .error_weight(0.5)
            .build();
        assert_eq!(pipeline.layout(), LayoutStrategy::Trivial);
        assert_eq!(pipeline.router().trials, 2);
        assert_eq!(pipeline.router().seed, 99);
        assert_eq!(pipeline.router().error_weight, 0.5);
    }

    #[test]
    fn pass_trace_records_every_stage_and_the_swap_delta() {
        let c = qft(8, true);
        let graph = builders::square_lattice(3, 3);
        let result = run(&Pipeline::default(), &c, &graph, Some(BasisGate::Cnot));
        let names: Vec<&str> = result.trace.stages.iter().map(|s| s.stage).collect();
        assert_eq!(names, ["layout", "routing", "translation", "analysis"]);
        assert_eq!(result.trace.swaps_inserted(), result.report.swap_count);
        let routing = result.trace.stage("routing").unwrap();
        assert_eq!(routing.two_qubit_in, c.two_qubit_count());
        assert_eq!(routing.two_qubit_out, result.report.routed_two_qubit_gates);
        let translation = result.trace.stage("translation").unwrap();
        assert_eq!(translation.two_qubit_out, result.report.basis_gate_count);
        for stage in &result.trace.stages {
            assert!(stage.micros >= 0.0, "{}", stage.stage);
        }
    }
}
