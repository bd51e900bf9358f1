//! A first-class device: coupling graph + per-edge noise + native basis.
//!
//! The paper's whole argument is about *co-designed machines* — a topology,
//! its native basis gate and its calibrated noise are one artifact, because
//! all three are set by the same modulator. A [`Device`] bundles that
//! artifact behind one type so every consumer (the sweep engine, the CLI,
//! the bench binaries) stops re-assembling it by hand:
//!
//! ```
//! use snailqc_core::device::Device;
//! use snailqc_core::noise::ErrorModelSpec;
//! use snailqc_decompose::BasisGate;
//! use snailqc_transpiler::Pipeline;
//! use snailqc_workloads::Workload;
//!
//! let device = Device::from_catalog("corral11-16")
//!     .unwrap()
//!     .with_basis(BasisGate::SqrtISwap)
//!     .with_error_model(ErrorModelSpec::preset("calibrated").unwrap())
//!     .unwrap();
//! let circuit = Workload::Qft.generate(8, 7);
//! let result = device.try_transpile(&circuit, &Pipeline::default()).unwrap();
//! assert_eq!(result.report.basis, Some(BasisGate::SqrtISwap));
//! ```
//!
//! [`Device::try_transpile`] resolves the pipeline's default
//! [`BasisChoice::Device`](snailqc_transpiler::BasisChoice::Device)
//! translation stage against the device's native basis — on a co-designed
//! machine the modulator chooses the gate, not the transpiler call site.

use crate::machine::Machine;
use crate::noise::ErrorModelSpec;
use snailqc_circuit::Circuit;
use snailqc_decompose::BasisGate;
use snailqc_devices::{DeviceSpec, ErrorModelRef};
use snailqc_topology::{catalog, CouplingGraph};
use snailqc_transpiler::{Pipeline, RoutingCache, TranspileError, TranspileResult};
use std::sync::Arc;

/// A co-designed quantum device: a coupling graph carrying per-edge error
/// rates, an optional native two-qubit basis gate, and a display label.
///
/// Every device also owns a [`RoutingCache`]: the all-pairs hop matrix and
/// any error-weighted scoring matrices are computed once on first transpile
/// and shared by every later transpile on the same device (clones share the
/// cache too) — the reason a sweep over (workload × size × seed) cells no
/// longer recomputes all-pairs BFS per cell. The cache never changes
/// results; it only remembers what an uncached run would recompute.
#[derive(Debug, Clone)]
pub struct Device {
    label: String,
    graph: CouplingGraph,
    basis: Option<BasisGate>,
    error_model: Option<ErrorModelSpec>,
    /// Lazily filled distance matrices keyed to `graph`; rebuilt whenever
    /// the graph's noise changes ([`Device::with_error_model`]).
    routing_cache: Arc<RoutingCache>,
}

/// Cache-blind equality: two devices are equal when their observable state
/// (label, graph, basis, error model) agrees, regardless of which
/// distance matrices each has materialized so far.
impl PartialEq for Device {
    fn eq(&self, other: &Self) -> bool {
        self.label == other.label
            && self.graph == other.graph
            && self.basis == other.basis
            && self.error_model == other.error_model
    }
}

impl Device {
    /// Wraps a bare coupling graph (no native basis, uniform default noise).
    /// The device label starts as the graph's name.
    pub fn from_graph(graph: CouplingGraph) -> Self {
        Self {
            label: graph.name().to_string(),
            graph,
            basis: None,
            error_model: None,
            routing_cache: Arc::new(RoutingCache::new()),
        }
    }

    /// Builds the device a [`Machine`] names: its catalog graph with its
    /// native basis gate, labelled like the paper's figure legends (e.g.
    /// `Heavy-Hex-CX`).
    pub fn from_machine(machine: Machine) -> Self {
        Self::from_graph(machine.graph())
            .with_basis(machine.basis)
            .with_label(machine.label())
    }

    /// Builds a device from the topology catalog by name (forgiving
    /// matching, same registry as `snailqc topologies`). The device has no
    /// native basis until [`Device::with_basis`] sets one.
    pub fn from_catalog(name: &str) -> Result<Self, String> {
        let graph = catalog::by_name(name).ok_or_else(|| {
            format!(
                "unknown topology `{name}`; available: {}",
                catalog::names().join(", ")
            )
        })?;
        Ok(Self::from_graph(graph))
    }

    /// Builds a device from device-spec JSON text (the `snailqc-devices`
    /// format): topology from edges or a generator, then the spec's error
    /// model stamped on via [`ErrorModelSpec`], then the native basis.
    /// Parse and validation errors carry `line:column` positions.
    pub fn from_spec_str(text: &str) -> Result<Self, String> {
        let spec = DeviceSpec::parse(text).map_err(|e| e.to_string())?;
        Self::from_spec(&spec)
    }

    /// Builds a device from an already-parsed [`DeviceSpec`].
    pub fn from_spec(spec: &DeviceSpec) -> Result<Self, String> {
        let graph = spec.build_graph().map_err(|e| e.to_string())?;
        let mut device = Self::from_graph(graph);
        if let Some(em) = &spec.error_model {
            // The devices crate sits below this one, so it carries the error
            // model as raw data; resolve it here and pin any semantic error
            // to the spec's recorded `error_model` position.
            let position = |e: String| match spec.error_model_at {
                Some((line, col)) => format!("line {line}, column {col}: error_model: {e}"),
                None => format!("error_model: {e}"),
            };
            let resolved = match em {
                ErrorModelRef::Preset(name) => ErrorModelSpec::preset(name).ok_or_else(|| {
                    format!(
                        "unknown preset `{name}` (presets: {})",
                        crate::noise::PRESETS.join(", ")
                    )
                }),
                ErrorModelRef::Inline(text) => ErrorModelSpec::from_json(text),
            }
            .map_err(&position)?;
            device = device.with_error_model(resolved).map_err(&position)?;
        }
        if let Some(basis) = spec.basis {
            device = device.with_basis(basis);
        }
        Ok(device)
    }

    /// Builds a device from a device-spec JSON file; errors are prefixed
    /// with the path.
    pub fn from_spec_file(path: impl AsRef<std::path::Path>) -> Result<Self, String> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading device spec `{}`: {e}", path.display()))?;
        Self::from_spec_str(&text).map_err(|e| format!("device spec `{}`: {e}", path.display()))
    }

    /// Stamps `spec`'s edge-noise distribution onto the device (see
    /// [`ErrorModelSpec::apply`]) and records the spec. Errors if the spec
    /// names an edge the device does not have.
    pub fn with_error_model(mut self, spec: ErrorModelSpec) -> Result<Self, String> {
        spec.apply(&mut self.graph)?;
        self.error_model = Some(spec);
        // The graph's noise changed, so any materialized scoring matrices
        // are stale; start a fresh cache (shared clones keep the old one,
        // which still matches *their* graph).
        self.routing_cache = Arc::new(RoutingCache::new());
        Ok(self)
    }

    /// Sets the native two-qubit basis gate.
    pub fn with_basis(mut self, basis: BasisGate) -> Self {
        self.basis = Some(basis);
        self
    }

    /// Clears the native basis gate — how `--basis none` overrides a spec
    /// file that pins one.
    pub fn without_basis(mut self) -> Self {
        self.basis = None;
        self
    }

    /// Overrides the display label.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// The display label (figure-legend style; also the sweep-store key
    /// component identifying this device).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The coupling graph, with any applied error model stamped on.
    pub fn graph(&self) -> &CouplingGraph {
        &self.graph
    }

    /// The native basis gate, when the device has one.
    pub fn basis(&self) -> Option<BasisGate> {
        self.basis
    }

    /// The error-model specification applied via [`Device::with_error_model`].
    pub fn error_model(&self) -> Option<&ErrorModelSpec> {
        self.error_model.as_ref()
    }

    /// Number of physical qubits.
    pub fn num_qubits(&self) -> usize {
        self.graph.num_qubits()
    }

    /// True when `circuit` fits on this device.
    pub fn fits(&self, circuit: &Circuit) -> bool {
        circuit.num_qubits() <= self.graph.num_qubits()
    }

    /// Runs `pipeline` on this device. The pipeline's default
    /// `BasisChoice::Device` translation stage resolves to this device's
    /// native basis (no translation when the device has none).
    ///
    /// Returns a [`TranspileError`] when the circuit cannot be placed on this
    /// device — e.g. it needs more qubits than the device's largest connected
    /// component has.
    pub fn try_transpile(
        &self,
        circuit: &Circuit,
        pipeline: &Pipeline,
    ) -> Result<TranspileResult, TranspileError> {
        pipeline.run(circuit, &self.graph, self.basis, &self.routing_cache)
    }

    /// A stable fingerprint of the device's per-edge error rates, mixed into
    /// sweep-store cache keys so re-calibrating a device (same label,
    /// different noise) never resurrects stale cached results.
    pub fn noise_digest(&self) -> u64 {
        let mut bytes = Vec::with_capacity(8 * (1 + 3 * self.graph.num_edges()));
        bytes.extend_from_slice(&self.graph.default_edge_error().to_bits().to_le_bytes());
        for ((a, b), rate) in self.graph.edge_errors() {
            bytes.extend_from_slice(&(a as u64).to_le_bytes());
            bytes.extend_from_slice(&(b as u64).to_le_bytes());
            bytes.extend_from_slice(&rate.to_bits().to_le_bytes());
        }
        snailqc_util::fnv1a_64(&bytes)
    }

    /// A stable fingerprint of the device's coupling structure (qubit count
    /// plus the lexicographic edge list), mixed into sweep-store cache keys
    /// so two devices that merely share a label — e.g. a spec file edited in
    /// place — can never alias each other's cached results.
    pub fn structure_digest(&self) -> u64 {
        let mut bytes = Vec::with_capacity(8 * (1 + 2 * self.graph.num_edges()));
        bytes.extend_from_slice(&(self.graph.num_qubits() as u64).to_le_bytes());
        for (a, b) in self.graph.edges() {
            bytes.extend_from_slice(&(a as u64).to_le_bytes());
            bytes.extend_from_slice(&(b as u64).to_le_bytes());
        }
        snailqc_util::fnv1a_64(&bytes)
    }
}

impl From<CouplingGraph> for Device {
    fn from(graph: CouplingGraph) -> Self {
        Self::from_graph(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_machine_round_trips() {
        for machine in Machine::figure13_lineup() {
            let device = Device::from_machine(machine);
            assert_eq!(device.basis(), Some(machine.basis));
            assert_eq!(device.label(), machine.label());
            assert_eq!(device.graph(), &machine.graph());
        }
    }

    #[test]
    fn from_catalog_resolves_forgivingly_and_rejects_unknown_names() {
        let device = Device::from_catalog("CORRAL_1_1_16").unwrap();
        assert_eq!(device.label(), "Corral1,1-16");
        assert!(device.basis().is_none());
        let err = Device::from_catalog("no-such-device").unwrap_err();
        assert!(err.contains("corral11-16"), "{err}");
    }

    #[test]
    fn with_error_model_stamps_rates_and_records_the_spec() {
        let device = Device::from_catalog("tree-20")
            .unwrap()
            .with_error_model(ErrorModelSpec::preset("calibrated").unwrap())
            .unwrap();
        assert!(!device.graph().edge_errors_uniform());
        assert!(device.error_model().is_some());
        // Bad overrides surface as errors instead of silently no-opping.
        let err = Device::from_catalog("tree-20")
            .unwrap()
            .with_error_model(ErrorModelSpec::from_json(r#"{"edges": [[0, 19, 0.1]]}"#).unwrap());
        assert!(err.is_err());
    }

    #[test]
    fn transpile_uses_the_native_basis_by_default() {
        let circuit = snailqc_workloads::qft(8, true);
        let device = Device::from_machine(Machine::figure13_lineup()[0]);
        let result = device
            .try_transpile(&circuit, &Pipeline::default())
            .unwrap();
        assert_eq!(result.report.basis, Some(BasisGate::Cnot));
        assert!(result.translated.is_some());
        // A basis-less device routes without translating.
        let bare = Device::from_catalog("hypercube-16").unwrap();
        let routed_only = bare.try_transpile(&circuit, &Pipeline::default()).unwrap();
        assert!(routed_only.translated.is_none());
    }

    #[test]
    fn noise_digest_tracks_calibration_not_label() {
        let uniform = Device::from_catalog("tree-20").unwrap();
        let calibrated = Device::from_catalog("tree-20")
            .unwrap()
            .with_error_model(ErrorModelSpec::preset("calibrated").unwrap())
            .unwrap();
        assert_ne!(uniform.noise_digest(), calibrated.noise_digest());
        assert_eq!(
            uniform.noise_digest(),
            Device::from_catalog("tree-20").unwrap().noise_digest()
        );
    }

    #[test]
    fn repeated_transpiles_reuse_the_cache_without_changing_results() {
        let circuit = snailqc_workloads::quantum_volume(10, 5, 3);
        let device = Device::from_catalog("square-lattice-16")
            .unwrap()
            .with_error_model(ErrorModelSpec::preset("calibrated").unwrap())
            .unwrap();
        let pipeline = Pipeline::builder().error_weight(1.0).build();
        let cold = device.try_transpile(&circuit, &pipeline).unwrap();
        for _ in 0..2 {
            let warm = device.try_transpile(&circuit, &pipeline).unwrap();
            assert_eq!(cold.report, warm.report);
            assert_eq!(
                cold.routed.circuit.instructions(),
                warm.routed.circuit.instructions(),
                "device cache changed routed output"
            );
        }
        // Clones share the cache and still match; equality ignores cache
        // state entirely.
        let clone = device.clone();
        let via_clone = clone.try_transpile(&circuit, &pipeline).unwrap();
        assert_eq!(cold.report, via_clone.report);
        assert_eq!(device, clone);
        assert_eq!(
            device,
            Device::from_catalog("square-lattice-16")
                .unwrap()
                .with_error_model(ErrorModelSpec::preset("calibrated").unwrap())
                .unwrap()
        );
    }

    #[test]
    fn fits_checks_qubit_budget() {
        let device = Device::from_catalog("hypercube-16").unwrap();
        assert!(device.fits(&snailqc_workloads::ghz(16)));
        assert!(!device.fits(&snailqc_workloads::ghz(17)));
        assert_eq!(device.num_qubits(), 16);
    }
}
