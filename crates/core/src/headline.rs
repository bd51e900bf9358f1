//! The paper's headline comparisons.
//!
//! * §1 / §6.2: averaged over Quantum Volume circuits from 16 to 80 qubits, a
//!   hypercube with a √iSWAP basis needs **3.16× fewer total 2Q gates** and
//!   **6.11× fewer duration-weighted 2Q gates** than heavy-hex with CNOT, and
//!   (gate-agnostically) **2.57× / 5.63× fewer total / critical-path SWAPs**.
//! * §6.1: moving from Heavy-Hex to the SNAIL Tree cuts total SWAPs by 54.3%
//!   and critical-path SWAPs by 79.8% for 80-qubit QV; the hypercube cuts a
//!   further 42.5% / 54.3%.
//! * §3.2: for an 80-qubit QAOA, Heavy-Hex needs 1.92× / 1.53× / 2.83× the
//!   critical-path SWAPs of Square-Lattice / Lattice+AltDiag / Hypercube.

use crate::device::Device;
use crate::machine::Machine;
use crate::sweep::{run_sweep, SweepConfig};
use serde::Serialize;
use snailqc_decompose::BasisGate;
use snailqc_transpiler::TranspileReport;
use snailqc_workloads::Workload;

/// Ratios between a baseline machine and a proposed machine, averaged over a
/// size sweep (baseline / proposed, so > 1 means the proposal wins).
#[derive(Debug, Clone, Serialize)]
pub struct HeadlineRatios {
    /// Baseline machine label.
    pub baseline: String,
    /// Proposed machine label.
    pub proposed: String,
    /// Circuit sizes averaged over.
    pub sizes: Vec<usize>,
    /// Mean ratio of total SWAP counts.
    pub total_swap_ratio: f64,
    /// Mean ratio of critical-path SWAP counts.
    pub critical_swap_ratio: f64,
    /// Mean ratio of total basis-gate counts.
    pub total_2q_ratio: f64,
    /// Mean ratio of critical-path basis-gate counts (pulse duration).
    pub critical_2q_ratio: f64,
}

/// Options for the headline computation.
#[derive(Debug, Clone, Serialize)]
pub struct HeadlineConfig {
    /// Quantum Volume sizes to average over (the paper: 16–80).
    pub sizes: Vec<usize>,
    /// Router trials per point.
    pub routing_trials: usize,
    /// Base seed.
    pub seed: u64,
}

impl Default for HeadlineConfig {
    fn default() -> Self {
        Self {
            sizes: vec![16, 32, 48, 64, 80],
            routing_trials: 4,
            seed: 2022,
        }
    }
}

impl HeadlineConfig {
    /// A tiny configuration for tests.
    pub fn smoke() -> Self {
        Self {
            sizes: vec![12, 16],
            routing_trials: 1,
            seed: 5,
        }
    }
}

/// Transpiles `workload` at every configured size onto every machine through
/// [`run_sweep`] (dense layout; circuit seed `seed ^ size`, router seed
/// `seed ^ size << 16`), returning one report per (size, machine), size-major.
///
/// # Panics
/// Panics if a configured size exceeds a machine's qubit count, rather than
/// letting the sweep skip that cell and misalign the pairs.
fn run_machines(
    machines: &[Machine],
    workload: Workload,
    config: &HeadlineConfig,
) -> Vec<TranspileReport> {
    let devices: Vec<Device> = machines.iter().copied().map(Device::from_machine).collect();
    let sweep = SweepConfig {
        workloads: vec![workload],
        sizes: config.sizes.clone(),
        routing_trials: config.routing_trials,
        error_weight: 0.0,
        seed: config.seed,
    };
    let points = run_sweep(&devices, &sweep);
    assert_eq!(
        points.len(),
        config.sizes.len() * devices.len(),
        "headline sizes {:?} must fit every machine",
        config.sizes
    );
    points.into_iter().map(|p| p.report).collect()
}

fn machine(name: &str, basis: BasisGate) -> Machine {
    Machine::new(name, basis).expect("headline machines are catalog instances")
}

/// Computes the headline ratios between two machines on a workload sweep.
///
/// # Panics
/// Panics if a configured size exceeds either machine's qubit count.
pub fn headline_ratios(
    baseline: Machine,
    proposed: Machine,
    workload: Workload,
    config: &HeadlineConfig,
) -> HeadlineRatios {
    let mut total_swap = Vec::new();
    let mut crit_swap = Vec::new();
    let mut total_2q = Vec::new();
    let mut crit_2q = Vec::new();
    for pair in run_machines(&[baseline, proposed], workload, config).chunks(2) {
        let (base, prop) = (&pair[0], &pair[1]);
        let ratio = |a: usize, b: usize| {
            if b == 0 {
                f64::NAN
            } else {
                a as f64 / b as f64
            }
        };
        total_swap.push(ratio(base.swap_count, prop.swap_count));
        crit_swap.push(ratio(base.swap_depth, prop.swap_depth));
        total_2q.push(ratio(base.basis_gate_count, prop.basis_gate_count));
        crit_2q.push(ratio(base.basis_gate_depth, prop.basis_gate_depth));
    }
    let mean = |v: &[f64]| {
        let finite: Vec<f64> = v.iter().copied().filter(|x| x.is_finite()).collect();
        if finite.is_empty() {
            f64::NAN
        } else {
            finite.iter().sum::<f64>() / finite.len() as f64
        }
    };
    HeadlineRatios {
        baseline: baseline.label(),
        proposed: proposed.label(),
        sizes: config.sizes.clone(),
        total_swap_ratio: mean(&total_swap),
        critical_swap_ratio: mean(&crit_swap),
        total_2q_ratio: mean(&total_2q),
        critical_2q_ratio: mean(&crit_2q),
    }
}

/// The paper's headline: hypercube + √iSWAP versus heavy-hex + CNOT on
/// Quantum Volume circuits.
///
/// # Panics
/// Panics if a configured size exceeds 84 qubits.
pub fn quantum_volume_headline(config: &HeadlineConfig) -> HeadlineRatios {
    headline_ratios(
        machine("heavy-hex-84", BasisGate::Cnot),
        machine("hypercube-84", BasisGate::SqrtISwap),
        Workload::QuantumVolume,
        config,
    )
}

/// §6.1's intermediate comparison: heavy-hex → Tree and Tree → hypercube SWAP
/// reductions on 80-qubit Quantum Volume. Returns
/// `(heavy_hex_to_tree, tree_to_hypercube)` as fractional reductions in
/// `(total swaps, critical-path swaps)`.
///
/// # Panics
/// Panics if `config.sizes` is empty or its largest size exceeds 84 qubits.
pub fn tree_progression(config: &HeadlineConfig) -> ((f64, f64), (f64, f64)) {
    let size = *config.sizes.iter().max().expect("non-empty sizes");
    let single = HeadlineConfig {
        sizes: vec![size],
        ..config.clone()
    };
    let machines = [
        machine("heavy-hex-84", BasisGate::Cnot),
        machine("tree-84", BasisGate::SqrtISwap),
        machine("hypercube-84", BasisGate::SqrtISwap),
    ];
    let [heavy, tree, hyper]: [TranspileReport; 3] =
        run_machines(&machines, Workload::QuantumVolume, &single)
            .try_into()
            .expect("one report per machine");
    let reduction = |from: usize, to: usize| 1.0 - to as f64 / from as f64;
    (
        (
            reduction(heavy.swap_count, tree.swap_count),
            reduction(heavy.swap_depth, tree.swap_depth),
        ),
        (
            reduction(tree.swap_count, hyper.swap_count),
            reduction(tree.swap_depth, hyper.swap_depth),
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_direction_holds_even_at_small_sizes() {
        // Even on a reduced sweep the co-designed machine must beat the
        // baseline on every headline metric (ratios > 1).
        let r = quantum_volume_headline(&HeadlineConfig::smoke());
        assert!(
            r.total_swap_ratio > 1.0,
            "total swap ratio {}",
            r.total_swap_ratio
        );
        assert!(
            r.critical_swap_ratio > 1.0,
            "critical swap ratio {}",
            r.critical_swap_ratio
        );
        assert!(
            r.total_2q_ratio > 1.0,
            "total 2q ratio {}",
            r.total_2q_ratio
        );
        assert!(
            r.critical_2q_ratio > 1.0,
            "critical 2q ratio {}",
            r.critical_2q_ratio
        );
    }

    #[test]
    fn ratios_are_labelled() {
        let r = quantum_volume_headline(&HeadlineConfig::smoke());
        assert_eq!(r.baseline, "Heavy-Hex-CX");
        assert_eq!(r.proposed, "Hypercube-sqrt-iSWAP");
    }

    #[test]
    #[should_panic(expected = "must fit every machine")]
    fn sizes_that_do_not_fit_panic_instead_of_misaligning_pairs() {
        quantum_volume_headline(&HeadlineConfig {
            sizes: vec![90],
            ..HeadlineConfig::smoke()
        });
    }

    #[test]
    fn tree_progression_reductions_are_positive() {
        let ((hh_tree_total, hh_tree_crit), (tree_hyper_total, _)) =
            tree_progression(&HeadlineConfig::smoke());
        assert!(
            hh_tree_total > 0.0,
            "heavy-hex → tree total reduction {hh_tree_total}"
        );
        assert!(
            hh_tree_crit > 0.0,
            "heavy-hex → tree critical reduction {hh_tree_crit}"
        );
        // Tree → hypercube may be small at tiny sizes but must not regress
        // catastrophically.
        assert!(tree_hyper_total > -0.5);
    }
}
