//! End-to-end circuit fidelity estimation under the paper's two error
//! regimes (§3.1).
//!
//! The paper normalizes machines by assuming uniform gate fidelity and free
//! single-qubit gates, and argues that the right figure of merit depends on
//! the dominant error source:
//!
//! * **control-error dominated** — every applied two-qubit gate contributes
//!   the same infidelity, so the *total* basis-gate count matters;
//! * **decoherence dominated** — only wall-clock time matters, so the
//!   *critical-path* (pulse-duration) count matters, scaled by the basis
//!   gate's pulse fraction (a √iSWAP pulse is half an iSWAP, Eq. 12).
//!
//! [`estimate_fidelity`] turns a [`TranspileReport`] into both estimates plus
//! their product, which is the quantity the paper uses to argue the co-design
//! advantage translates into reliability.

use serde::Serialize;
use snailqc_decompose::BasisGate;
use snailqc_transpiler::TranspileReport;

/// Error-model parameters for the fidelity estimate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ErrorModel {
    /// Infidelity contributed by each applied basis-gate pulse
    /// (control-error channel).
    pub per_gate_infidelity: f64,
    /// Infidelity accumulated per unit of critical-path pulse time, in units
    /// of a full iSWAP-length pulse (decoherence channel).
    pub per_pulse_time_infidelity: f64,
}

impl Default for ErrorModel {
    fn default() -> Self {
        // The paper's running example: a 99%-fidelity full-length pulse.
        Self {
            per_gate_infidelity: 1e-3,
            per_pulse_time_infidelity: 1e-2,
        }
    }
}

impl ErrorModel {
    /// A model where only gate count matters (idle qubits retain coherence).
    pub fn control_limited(per_gate_infidelity: f64) -> Self {
        Self {
            per_gate_infidelity,
            per_pulse_time_infidelity: 0.0,
        }
    }

    /// A model where only circuit duration matters.
    pub fn decoherence_limited(per_pulse_time_infidelity: f64) -> Self {
        Self {
            per_gate_infidelity: 0.0,
            per_pulse_time_infidelity,
        }
    }
}

/// The fidelity estimate for one transpiled circuit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FidelityEstimate {
    /// Basis gate the report was translated into (`None` for routing-only
    /// estimates at SWAP granularity).
    pub basis: Option<BasisGate>,
    /// Number of basis-gate pulses applied.
    pub gate_count: usize,
    /// Critical-path pulse duration in iSWAP units
    /// (`basis_gate_depth × pulse_fraction`).
    pub pulse_duration: f64,
    /// Fidelity under the control-error channel: `(1 − ε_g)^gates`.
    pub control_fidelity: f64,
    /// Fidelity under the decoherence channel: `(1 − ε_t)^duration`.
    pub decoherence_fidelity: f64,
    /// Product of the two channels.
    pub total_fidelity: f64,
    /// True when the control channel used the device's per-edge error rates
    /// (the routed circuit's actual links) instead of the uniform model rate.
    pub edge_aware: bool,
}

/// Estimates the end-to-end fidelity of a transpiled circuit at the
/// report's granularity: basis-gate pulses when it was basis-translated,
/// otherwise routed two-qubit gates, each a unit-length pulse.
pub fn estimate_fidelity(report: &TranspileReport, model: &ErrorModel) -> FidelityEstimate {
    let (gate_count, pulse_duration) = match report.basis {
        Some(basis) => (
            report.basis_gate_count,
            report.basis_gate_depth as f64 * basis.pulse_fraction(),
        ),
        None => (
            report.routed_two_qubit_gates,
            report.routed_two_qubit_depth as f64,
        ),
    };
    let control_fidelity = (1.0 - model.per_gate_infidelity).powi(gate_count as i32);
    let decoherence_fidelity = (1.0 - model.per_pulse_time_infidelity).powf(pulse_duration);
    FidelityEstimate {
        basis: report.basis,
        gate_count,
        pulse_duration,
        control_fidelity,
        decoherence_fidelity,
        total_fidelity: control_fidelity * decoherence_fidelity,
        edge_aware: false,
    }
}

/// Estimates fidelity from the routed circuit's *actual per-edge
/// infidelities*: the control channel is `exp(Σ ln(1 − err_e))` over the
/// exact edges the routed (or basis-translated, when available) circuit
/// touches, as recorded by the transpiler in the report's edge log-fidelity
/// sums. The decoherence channel still comes from `model`, since circuit
/// duration is edge-independent.
///
/// On a uniform device whose edge rate equals `model.per_gate_infidelity`,
/// this agrees with [`estimate_fidelity`] to floating-point accuracy; on a
/// calibrated device it rewards routes that avoid noisy links.
pub fn estimate_fidelity_edges(report: &TranspileReport, model: &ErrorModel) -> FidelityEstimate {
    let (gate_count, pulse_duration, log_fidelity) = match report.basis {
        Some(basis) => (
            report.basis_gate_count,
            report.basis_gate_depth as f64 * basis.pulse_fraction(),
            report.basis_edge_log_fidelity,
        ),
        None => (
            report.routed_two_qubit_gates,
            report.routed_two_qubit_depth as f64,
            report.routed_edge_log_fidelity,
        ),
    };
    let control_fidelity = log_fidelity.exp();
    let decoherence_fidelity = (1.0 - model.per_pulse_time_infidelity).powf(pulse_duration);
    FidelityEstimate {
        basis: report.basis,
        gate_count,
        pulse_duration,
        control_fidelity,
        decoherence_fidelity,
        total_fidelity: control_fidelity * decoherence_fidelity,
        edge_aware: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snailqc_topology::catalog;
    use snailqc_transpiler::{Pipeline, RoutingCache};
    use snailqc_workloads::Workload;

    fn report_for(basis: BasisGate, graph: &snailqc_topology::CouplingGraph) -> TranspileReport {
        let circuit = Workload::Qft.generate(12, 3);
        Pipeline::builder()
            .translate_to(basis)
            .build()
            .run(&circuit, graph, None, &RoutingCache::new())
            .unwrap()
            .report
    }

    #[test]
    fn fidelities_are_probabilities() {
        let report = report_for(BasisGate::SqrtISwap, &catalog::corral12_16());
        let est = estimate_fidelity(&report, &ErrorModel::default());
        for f in [
            est.control_fidelity,
            est.decoherence_fidelity,
            est.total_fidelity,
        ] {
            assert!((0.0..=1.0).contains(&f), "{f}");
        }
        assert!(est.total_fidelity <= est.control_fidelity);
        assert!(est.total_fidelity <= est.decoherence_fidelity);
    }

    #[test]
    fn more_gates_mean_lower_control_fidelity() {
        let small = report_for(BasisGate::SqrtISwap, &catalog::corral12_16());
        let big = report_for(BasisGate::Cnot, &catalog::heavy_hex_20());
        let model = ErrorModel::control_limited(1e-3);
        let f_small = estimate_fidelity(&small, &model);
        let f_big = estimate_fidelity(&big, &model);
        assert!(f_small.gate_count < f_big.gate_count);
        assert!(f_small.total_fidelity > f_big.total_fidelity);
    }

    #[test]
    fn sqrt_iswap_pulse_duration_uses_half_pulses() {
        let report = report_for(BasisGate::SqrtISwap, &catalog::tree_20());
        let est = estimate_fidelity(&report, &ErrorModel::default());
        assert!((est.pulse_duration - report.basis_gate_depth as f64 * 0.5).abs() < 1e-12);
    }

    #[test]
    fn pure_decoherence_model_ignores_gate_count() {
        let report = report_for(BasisGate::SqrtISwap, &catalog::tree_20());
        let est = estimate_fidelity(&report, &ErrorModel::decoherence_limited(1e-2));
        assert!((est.control_fidelity - 1.0).abs() < 1e-12);
        assert!(est.decoherence_fidelity < 1.0);
    }

    #[test]
    fn routing_only_reports_are_estimated_at_routed_granularity() {
        let circuit = Workload::Qft.generate(8, 2);
        let report = Pipeline::default()
            .run(&circuit, &catalog::tree_20(), None, &RoutingCache::new())
            .unwrap()
            .report;
        let model = ErrorModel::default();
        let est = estimate_fidelity(&report, &model);
        assert!(est.basis.is_none());
        assert_eq!(est.gate_count, report.routed_two_qubit_gates);
        assert_eq!(est.pulse_duration, report.routed_two_qubit_depth as f64);
        let control = (1.0 - model.per_gate_infidelity).powi(report.routed_two_qubit_gates as i32);
        let decoherence =
            (1.0 - model.per_pulse_time_infidelity).powf(report.routed_two_qubit_depth as f64);
        assert_eq!(est.total_fidelity, control * decoherence);
        assert!((0.0..1.0).contains(&est.total_fidelity));
    }

    #[test]
    fn edge_aware_estimate_matches_uniform_on_an_uncalibrated_device() {
        // Every catalog graph defaults to DEFAULT_EDGE_ERROR = 1e-3, the same
        // rate as ErrorModel::default().per_gate_infidelity, so both control
        // channels must agree to floating-point accuracy.
        let report = report_for(BasisGate::SqrtISwap, &catalog::corral12_16());
        let model = ErrorModel::default();
        let uniform = estimate_fidelity(&report, &model);
        let edges = estimate_fidelity_edges(&report, &model);
        assert!(edges.edge_aware);
        assert!(
            (uniform.control_fidelity - edges.control_fidelity).abs() < 1e-9,
            "{} vs {}",
            uniform.control_fidelity,
            edges.control_fidelity
        );
        assert_eq!(uniform.gate_count, edges.gate_count);
    }

    #[test]
    fn edge_aware_estimate_punishes_a_degraded_edge() {
        use snailqc_transpiler::RouterConfig;
        let circuit = Workload::Qft.generate(12, 3);
        let graph = catalog::corral11_16();
        let mut degraded = graph.clone();
        degraded.scale_edge_error(0, 2, 50.0);
        let pipeline = Pipeline::builder()
            // Noise-blind routing so both devices get the identical circuit.
            .router(RouterConfig::default())
            .translate_to(BasisGate::SqrtISwap)
            .build();
        let clean = pipeline
            .run(&circuit, &graph, None, &RoutingCache::new())
            .unwrap()
            .report;
        let noisy = pipeline
            .run(&circuit, &degraded, None, &RoutingCache::new())
            .unwrap()
            .report;
        assert_eq!(clean.swap_count, noisy.swap_count);
        let model = ErrorModel::default();
        let f_clean = estimate_fidelity_edges(&clean, &model);
        let f_noisy = estimate_fidelity_edges(&noisy, &model);
        assert!(
            f_noisy.control_fidelity < f_clean.control_fidelity,
            "degraded edge must lower the edge-aware control fidelity"
        );
    }
}
