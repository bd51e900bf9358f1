//! Basis translation (the "Basis Translation" box of Fig. 10).
//!
//! After routing, every two-qubit gate is rewritten into the machine's native
//! basis gate (CNOT for CR, SYC for FSIM, √iSWAP for the SNAIL) using the
//! analytic Weyl-chamber counting rules of [`snailqc_decompose::BasisGate`].
//! Each pass classifies through one [`GateClassifier`], so a gate kind is
//! classified once, not once per gate.
//!
//! The pass is *structural*: it expands each two-qubit gate into exactly the
//! required number of bare basis-gate applications, which is what the
//! paper's metrics (total 2Q count and critical-path 2Q count / pulse
//! duration) measure. The interleaved single-qubit corrections are treated
//! as free (§3.1) and are **dropped**, so the translated circuit is a
//! counting skeleton: it is not equivalent to its input, and neither is
//! anything written out from it (`snailqc transpile -o`, `--emit-dir`, the
//! serve daemon's `emit`). Exact corrections for a single gate can be
//! fitted on demand with [`snailqc_decompose::NuOpDecomposer`].

use snailqc_circuit::Circuit;
use snailqc_decompose::{BasisGate, GateClassifier};

/// Summary of one basis-translation pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct TranslationStats {
    /// Number of two-qubit gates before translation.
    pub input_two_qubit_gates: usize,
    /// Number of basis-gate applications emitted.
    pub output_basis_gates: usize,
    /// Number of input gates that were already native (one application).
    pub native_gates: usize,
}

/// Translates every two-qubit gate of `circuit` into `basis` applications.
///
/// Single-qubit gates are passed through unchanged. Returns the translated
/// circuit and per-pass statistics.
pub fn translate_to_basis(circuit: &Circuit, basis: BasisGate) -> (Circuit, TranslationStats) {
    let mut classifier = GateClassifier::new(basis);
    let mut out = Circuit::new(circuit.num_qubits());
    let mut stats = TranslationStats {
        input_two_qubit_gates: 0,
        output_basis_gates: 0,
        native_gates: 0,
    };
    for inst in circuit.instructions() {
        if !inst.is_two_qubit() {
            out.push(inst.gate.clone(), &inst.qubits);
            continue;
        }
        stats.input_two_qubit_gates += 1;
        let count = classifier.count(&inst.gate);
        if count == 1 {
            stats.native_gates += 1;
        }
        for _ in 0..count {
            out.push(basis.gate(), &inst.qubits);
            stats.output_basis_gates += 1;
        }
    }
    (out, stats)
}

/// Convenience: the total number of basis gates a circuit needs without
/// materializing the translated circuit.
pub fn count_basis_gates(circuit: &Circuit, basis: BasisGate) -> usize {
    let mut classifier = GateClassifier::new(basis);
    circuit
        .instructions()
        .iter()
        .map(|i| classifier.count(&i.gate))
        .sum()
}

/// Critical-path basis-gate count (the paper's pulse-duration proxy): the
/// longest dependency chain where each two-qubit gate contributes its basis
/// decomposition length and single-qubit gates are free.
pub fn critical_path_basis_gates(circuit: &Circuit, basis: BasisGate) -> usize {
    let mut classifier = GateClassifier::new(basis);
    circuit
        .weighted_depth(|inst| classifier.count(&inst.gate) as f64)
        .round() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use snailqc_circuit::Circuit;
    use snailqc_workloads::{ghz, qft};

    #[test]
    fn ghz_translates_one_to_two_in_sqrt_iswap() {
        let c = ghz(5);
        let (out, stats) = translate_to_basis(&c, BasisGate::SqrtISwap);
        // Each CNOT becomes two √iSWAPs.
        assert_eq!(stats.input_two_qubit_gates, 4);
        assert_eq!(stats.output_basis_gates, 8);
        assert_eq!(out.two_qubit_count(), 8);
        assert_eq!(out.gate_counts()["siswap"], 8);
    }

    #[test]
    fn ghz_is_native_in_cnot_basis() {
        let c = ghz(5);
        let (out, stats) = translate_to_basis(&c, BasisGate::Cnot);
        assert_eq!(stats.output_basis_gates, 4);
        assert_eq!(stats.native_gates, 4);
        assert_eq!(out.two_qubit_count(), 4);
    }

    #[test]
    fn swaps_cost_three_in_both_main_bases() {
        let mut c = Circuit::new(2);
        c.swap(0, 1);
        for basis in [BasisGate::Cnot, BasisGate::SqrtISwap] {
            let (out, _) = translate_to_basis(&c, basis);
            assert_eq!(out.two_qubit_count(), 3, "{}", basis.label());
        }
        let (out, _) = translate_to_basis(&c, BasisGate::Syc);
        assert_eq!(out.two_qubit_count(), 4);
    }

    #[test]
    fn qft_counts_follow_per_gate_rules() {
        // QFT's controlled-phase gates are all two-CNOT-class; its SWAPs are
        // three-of-anything.
        let n = 6;
        let c = qft(n, true);
        let cp_gates = n * (n - 1) / 2;
        let swaps = n / 2;
        assert_eq!(
            count_basis_gates(&c, BasisGate::Cnot),
            2 * cp_gates + 3 * swaps
        );
        assert_eq!(
            count_basis_gates(&c, BasisGate::SqrtISwap),
            2 * cp_gates + 3 * swaps
        );
        assert_eq!(
            count_basis_gates(&c, BasisGate::Syc),
            3 * cp_gates + 4 * swaps
        );
    }

    #[test]
    fn single_qubit_gates_pass_through() {
        let mut c = Circuit::new(2);
        c.h(0);
        c.rz(0.3, 1);
        c.cx(0, 1);
        let (out, _) = translate_to_basis(&c, BasisGate::SqrtISwap);
        let counts = out.gate_counts();
        assert_eq!(counts["h"], 1);
        assert_eq!(counts["rz"], 1);
        assert!(!counts.contains_key("cx"));
    }

    #[test]
    fn critical_path_counts_weight_two_qubit_chains() {
        // Two parallel CNOTs then one dependent CNOT: critical path = 2 CNOTs
        // = 4 √iSWAPs.
        let mut c = Circuit::new(4);
        c.cx(0, 1);
        c.cx(2, 3);
        c.cx(1, 2);
        assert_eq!(critical_path_basis_gates(&c, BasisGate::Cnot), 2);
        assert_eq!(critical_path_basis_gates(&c, BasisGate::SqrtISwap), 4);
        let (out, _) = translate_to_basis(&c, BasisGate::SqrtISwap);
        assert_eq!(out.two_qubit_depth(), 4);
    }

    #[test]
    fn count_helper_matches_full_translation() {
        let c = qft(7, true);
        for basis in BasisGate::all() {
            let (out, stats) = translate_to_basis(&c, basis);
            assert_eq!(out.two_qubit_count(), count_basis_gates(&c, basis));
            assert_eq!(stats.output_basis_gates, out.two_qubit_count());
        }
    }
}
