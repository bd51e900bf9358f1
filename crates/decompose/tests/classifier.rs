//! The class table and the per-pass memo must give exactly the answer of
//! `count_for_unitary` on the gate's matrix, for every two-qubit gate kind
//! in every basis.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snailqc_circuit::Gate;
use snailqc_decompose::{BasisGate, GateClassifier};
use snailqc_math::random::haar_unitary4;
use std::f64::consts::{FRAC_PI_2, PI};

/// Every two-qubit `Gate` variant, the parametric ones built from `a`, `b`
/// and `c`.
fn two_qubit_gates(a: f64, b: f64, c: f64, rng: &mut StdRng) -> Vec<Gate> {
    vec![
        Gate::CX,
        Gate::CZ,
        Gate::CPhase(a),
        Gate::Swap,
        Gate::ISwap,
        Gate::SqrtISwap,
        Gate::ISwapPow(a),
        Gate::Fsim(a, b),
        Gate::Syc,
        Gate::ZXInteraction(a),
        Gate::RZZ(a),
        Gate::RXX(a),
        Gate::RYY(a),
        Gate::Canonical(a, b, c),
        Gate::Unitary2(haar_unitary4(rng)),
    ]
}

#[test]
fn table_and_memo_agree_with_the_unitary_classification() {
    let mut rng = StdRng::seed_from_u64(2024);
    let mut angles = vec![0.0, -0.0, FRAC_PI_2, -FRAC_PI_2, PI, -PI, 2.0 * PI, 1e-12];
    angles.extend((0..8).map(|_| rng.gen_range(-2.0 * PI..2.0 * PI)));
    // A repeated angle: the second pass over it answers from the memo.
    angles.push(angles[10]);
    angles.push(FRAC_PI_2);

    for basis in BasisGate::all() {
        let mut classifier = GateClassifier::new(basis);
        for (i, &a) in angles.iter().enumerate() {
            let b = angles[(i + 1) % angles.len()];
            let c = angles[(i + 2) % angles.len()];
            for gate in two_qubit_gates(a, b, c, &mut rng) {
                let want = basis.count_for_unitary(&gate.matrix4().unwrap());
                assert_eq!(
                    basis.count_for_gate(&gate),
                    want,
                    "count_for_gate({gate:?}) in {}",
                    basis.label()
                );
                assert_eq!(
                    classifier.count(&gate),
                    want,
                    "GateClassifier::count({gate:?}) in {}",
                    basis.label()
                );
            }
        }
    }
}

#[test]
fn single_qubit_gates_cost_nothing_through_the_classifier() {
    for basis in BasisGate::all() {
        let mut classifier = GateClassifier::new(basis);
        for gate in [Gate::H, Gate::RZ(0.3), Gate::U3(0.1, 0.2, 0.3)] {
            assert_eq!(classifier.count(&gate), 0, "{gate:?}");
        }
    }
}
