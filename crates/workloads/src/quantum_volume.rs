//! Quantum Volume model circuits.
//!
//! The standard QV construction (Cross et al. 2019, as implemented by Qiskit's
//! `QuantumVolume` class): `depth` layers, each consisting of a random
//! permutation of the qubits followed by Haar-random SU(4) blocks on the
//! ⌊n/2⌋ resulting pairs. QV circuits are the paper's headline workload (the
//! 2.57×/5.63× SWAP and 3.16×/6.11× 2Q-gate reductions are averaged over QV
//! sizes 16–80).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use snailqc_circuit::{Circuit, Gate};
use snailqc_math::random::haar_unitary4;

/// Generates a Quantum Volume model circuit on `num_qubits` qubits with
/// `depth` layers of random-pairing SU(4) blocks.
pub fn quantum_volume(num_qubits: usize, depth: usize, seed: u64) -> Circuit {
    assert!(num_qubits >= 2, "quantum volume needs at least two qubits");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut circuit = Circuit::new(num_qubits);
    let mut order: Vec<usize> = (0..num_qubits).collect();
    for _ in 0..depth {
        order.shuffle(&mut rng);
        for pair in order.chunks_exact(2) {
            let u = haar_unitary4(&mut rng);
            circuit.push(Gate::Unitary2(u), &[pair[0], pair[1]]);
        }
    }
    circuit
}

#[cfg(test)]
mod tests {
    use super::*;
    use snailqc_circuit::simulate;

    #[test]
    fn gate_count_matches_layer_structure() {
        for n in [2, 4, 5, 8, 9] {
            let c = quantum_volume(n, n, 3);
            assert_eq!(c.two_qubit_count(), (n / 2) * n, "n = {n}");
            assert_eq!(c.len(), (n / 2) * n);
        }
    }

    #[test]
    fn all_gates_are_two_qubit_unitaries() {
        let c = quantum_volume(6, 6, 1);
        for inst in c.instructions() {
            assert_eq!(inst.gate.name(), "unitary2");
            assert!(inst.gate.matrix4().unwrap().is_unitary(1e-9));
        }
    }

    #[test]
    fn deterministic_for_fixed_seed_and_distinct_across_seeds() {
        let a = quantum_volume(6, 6, 10);
        let b = quantum_volume(6, 6, 10);
        let c = quantum_volume(6, 6, 11);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn each_layer_touches_disjoint_pairs() {
        let n = 8;
        let c = quantum_volume(n, n, 5);
        // Gates come out layer by layer: within each chunk of n/2 gates the
        // operand sets are disjoint.
        for layer in c.instructions().chunks(n / 2) {
            let mut seen = std::collections::HashSet::new();
            for inst in layer {
                for &q in &inst.qubits {
                    assert!(seen.insert(q), "qubit {q} repeated within a layer");
                }
            }
        }
    }

    #[test]
    fn produces_normalized_states() {
        let c = quantum_volume(4, 4, 2);
        let sv = simulate(&c);
        let total: f64 = sv.amplitudes().iter().map(|a| a.norm_sqr()).sum();
        assert!((total - 1.0).abs() < 1e-8);
    }

    #[test]
    fn depth_is_bounded_by_layer_count() {
        let c = quantum_volume(8, 8, 9);
        assert!(c.two_qubit_depth() <= 8);
        assert!(c.two_qubit_depth() >= 1);
    }
}
