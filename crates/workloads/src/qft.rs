//! Quantum Fourier Transform circuits.
//!
//! The textbook construction used by Qiskit's `QFT` class: a cascade of
//! Hadamards and controlled-phase rotations, optionally followed by the
//! qubit-reversal SWAP network (enabled by default, as in the paper's
//! experiments). QFT is the paper's stress test for long-range connectivity —
//! every qubit interacts with every other qubit exactly once.

use snailqc_circuit::Circuit;
use std::f64::consts::PI;

/// Generates an `num_qubits`-qubit QFT circuit.
///
/// `with_swaps` appends the final qubit-reversal SWAP network (⌊n/2⌋ SWAPs),
/// matching Qiskit's default.
pub fn qft(num_qubits: usize, with_swaps: bool) -> Circuit {
    let mut c = Circuit::new(num_qubits);
    for i in 0..num_qubits {
        c.h(i);
        for j in (i + 1)..num_qubits {
            let angle = PI / f64::powi(2.0, (j - i) as i32);
            c.cp(angle, j, i);
        }
    }
    if with_swaps {
        for i in 0..num_qubits / 2 {
            c.swap(i, num_qubits - 1 - i);
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use snailqc_circuit::simulate;

    #[test]
    fn gate_counts_follow_closed_form() {
        for n in [2, 3, 5, 8, 16] {
            let c = qft(n, true);
            let counts = c.gate_counts();
            assert_eq!(counts["h"], n, "n = {n}");
            assert_eq!(counts["cp"], n * (n - 1) / 2, "n = {n}");
            assert_eq!(counts.get("swap").copied().unwrap_or(0), n / 2, "n = {n}");
        }
    }

    #[test]
    fn without_swaps_has_no_swaps() {
        let c = qft(6, false);
        assert_eq!(c.swap_count(), 0);
        assert_eq!(c.two_qubit_count(), 15);
    }

    #[test]
    fn every_qubit_pair_interacts_exactly_once() {
        let n = 7;
        let c = qft(n, false);
        let mut pairs = c.interaction_pairs();
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(pairs.len(), n * (n - 1) / 2);
    }

    #[test]
    fn qft_of_zero_state_is_uniform_superposition() {
        let n = 4;
        let c = qft(n, true);
        let sv = simulate(&c);
        let expected = 1.0 / f64::powi(2.0, n as i32);
        for idx in 0..(1 << n) {
            assert!((sv.probability(idx) - expected).abs() < 1e-9, "index {idx}");
        }
    }

    #[test]
    fn qft_followed_by_inverse_is_identity() {
        let n = 5;
        let c = qft(n, true);
        let mut sv = simulate(&c);
        sv.apply_circuit(&c.inverse());
        assert!((sv.probability(0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn phase_angles_decay_geometrically() {
        let c = qft(4, false);
        // The first controlled-phase on qubit 0 uses π/2, the next π/4, …
        let mut angles = Vec::new();
        for inst in c.instructions() {
            if let snailqc_circuit::Gate::CPhase(a) = inst.gate {
                if inst.qubits[1] == 0 {
                    angles.push(a);
                }
            }
        }
        assert_eq!(angles.len(), 3);
        assert!((angles[0] - PI / 2.0).abs() < 1e-12);
        assert!((angles[1] - PI / 4.0).abs() < 1e-12);
        assert!((angles[2] - PI / 8.0).abs() < 1e-12);
    }
}
