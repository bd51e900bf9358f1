//! Property-based tests for the circuit IR and the statevector simulator.

use proptest::prelude::*;
use snailqc_circuit::{simulate, Circuit, Gate, StateVector};

/// Strategy producing a random circuit on `n` qubits from a restricted but
/// representative gate alphabet.
fn arb_circuit(max_qubits: usize, max_gates: usize) -> impl Strategy<Value = Circuit> {
    (
        2..=max_qubits,
        proptest::collection::vec((0..6u8, 0..1000u32, 0..1000u32, any::<f64>()), 1..max_gates),
    )
        .prop_map(|(n, ops)| {
            let mut c = Circuit::new(n);
            for (kind, a, b, angle) in ops {
                let q0 = a as usize % n;
                let mut q1 = b as usize % n;
                if q1 == q0 {
                    q1 = (q0 + 1) % n;
                }
                let theta = (angle % std::f64::consts::TAU).abs();
                match kind {
                    0 => c.h(q0),
                    1 => c.rz(theta, q0),
                    2 => c.rx(theta, q0),
                    3 => c.cx(q0, q1),
                    4 => c.push(Gate::SqrtISwap, &[q0, q1]),
                    _ => c.rzz(theta, q0, q1),
                }
            }
            c
        })
}

/// Sum of all probabilities (1 for a normalized state).
fn total_probability(sv: &StateVector) -> f64 {
    sv.amplitudes().iter().map(|a| a.norm_sqr()).sum()
}

/// `c` on a register of `n >= c.num_qubits()` qubits.
fn widened(c: &Circuit, n: usize) -> Circuit {
    let mut wide = c.clone();
    wide.widen(n);
    wide
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn depth_never_exceeds_length(c in arb_circuit(6, 40)) {
        prop_assert!(c.depth() <= c.len());
        prop_assert!(c.two_qubit_depth() <= c.two_qubit_count());
        prop_assert!(c.swap_depth() <= c.swap_count());
    }

    #[test]
    fn two_qubit_metrics_are_consistent(c in arb_circuit(6, 40)) {
        prop_assert_eq!(c.interaction_pairs().len(), c.two_qubit_count());
        let counts = c.gate_counts();
        let total: usize = counts.values().sum();
        prop_assert_eq!(total, c.len());
    }

    #[test]
    fn simulation_preserves_norm(c in arb_circuit(5, 30)) {
        let sv = simulate(&c);
        prop_assert!((total_probability(&sv) - 1.0).abs() < 1e-8);
    }

    #[test]
    fn circuit_then_inverse_is_identity(c in arb_circuit(5, 20)) {
        let mut sv = simulate(&c);
        sv.apply_circuit(&c.inverse());
        prop_assert!((sv.probability(0) - 1.0).abs() < 1e-7);
    }

    #[test]
    fn permuting_qubits_preserves_probability_mass(c in arb_circuit(5, 20)) {
        let n = c.num_qubits();
        let sv = simulate(&c);
        let perm: Vec<usize> = (0..n).map(|q| (q + 1) % n).collect();
        let permuted = sv.permute_qubits(&perm);
        prop_assert!((total_probability(&permuted) - 1.0).abs() < 1e-8);
        // The multiset of probabilities is unchanged.
        let mut a: Vec<f64> = (0..1 << n).map(|i| sv.probability(i)).collect();
        let mut b: Vec<f64> = (0..1 << n).map(|i| permuted.probability(i)).collect();
        a.sort_by(|x, y| x.partial_cmp(y).unwrap());
        b.sort_by(|x, y| x.partial_cmp(y).unwrap());
        for (x, y) in a.iter().zip(b.iter()) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn fidelity_is_symmetric_and_bounded(a in arb_circuit(4, 15), b in arb_circuit(4, 15)) {
        let n = a.num_qubits().max(b.num_qubits());
        let sa = {
            let mut s = StateVector::zero_state(n);
            s.apply_circuit(&widened(&a, n));
            s
        };
        let sb = {
            let mut s = StateVector::zero_state(n);
            s.apply_circuit(&widened(&b, n));
            s
        };
        let f_ab = sa.fidelity(&sb);
        let f_ba = sb.fidelity(&sa);
        prop_assert!((f_ab - f_ba).abs() < 1e-9);
        prop_assert!((-1e-9..=1.0 + 1e-9).contains(&f_ab));
    }
}
