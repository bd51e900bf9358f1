//! Property-based tests for basis-gate counting and the fidelity model.

use proptest::prelude::*;
use rand::SeedableRng;
use snailqc_circuit::Gate;
use snailqc_decompose::{
    hilbert_schmidt_fidelity, nth_root_basis_fidelity, pulse_duration, total_fidelity, BasisGate,
};
use snailqc_math::gates;
use snailqc_math::random::{haar_unitary4, random_local_dressing};
use snailqc_math::weyl::weyl_coordinates;

fn rng_from(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn counts_are_within_worst_case_for_haar_targets(seed in 0u64..1000) {
        // The worst case is a SWAP, which sits at the chamber corner.
        let u = haar_unitary4(&mut rng_from(seed));
        for basis in BasisGate::all() {
            let k = basis.count_for_unitary(&u);
            prop_assert!(k <= basis.count_for_gate(&Gate::Swap));
            prop_assert!(k >= 1, "Haar targets are never local");
        }
    }

    #[test]
    fn counts_are_invariant_under_local_dressing(seed in 0u64..400) {
        let mut rng = rng_from(seed);
        let core = haar_unitary4(&mut rng);
        let dressed = random_local_dressing(&core, &mut rng);
        for basis in BasisGate::all() {
            prop_assert_eq!(basis.count_for_unitary(&core), basis.count_for_unitary(&dressed));
        }
    }

    #[test]
    fn sqrt_iswap_never_needs_more_than_cnot_plus_one_and_syc_never_fewer(seed in 0u64..400) {
        let u = haar_unitary4(&mut rng_from(seed));
        let cx = BasisGate::Cnot.count_for_unitary(&u);
        let si = BasisGate::SqrtISwap.count_for_unitary(&u);
        let syc = BasisGate::Syc.count_for_unitary(&u);
        prop_assert!(si <= 3 && cx <= 3 && syc <= 4);
        prop_assert!(syc >= cx, "SYC should never beat CNOT under the analytic rules");
    }

    #[test]
    fn cphase_family_needs_at_most_two(theta in 0.01..std::f64::consts::TAU) {
        let u = gates::cphase(theta);
        prop_assert!(BasisGate::Cnot.count_for_unitary(&u) <= 2);
        prop_assert!(BasisGate::SqrtISwap.count_for_unitary(&u) <= 2);
    }

    #[test]
    fn fractional_iswap_needs_at_most_two_sqrt_iswaps(t in 0.01..1.0f64) {
        // Any XY-family gate has c3 = 0 and c1 = c2, which lies inside the
        // two-application region of the √iSWAP basis.
        let u = gates::iswap_pow(t);
        let w = weyl_coordinates(&u);
        prop_assert!(w.c3.abs() < 1e-9);
        prop_assert!(BasisGate::SqrtISwap.count_for_unitary(&u) <= 2);
    }

    #[test]
    fn hilbert_schmidt_fidelity_is_phase_invariant_and_bounded(seed in 0u64..400, phase in 0.0..std::f64::consts::TAU) {
        let u = haar_unitary4(&mut rng_from(seed));
        let v = haar_unitary4(&mut rng_from(seed ^ 0xA5A5));
        let f = hilbert_schmidt_fidelity(&u, &v);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&f));
        let f_phase = hilbert_schmidt_fidelity(&u, &v.scale(snailqc_math::C64::cis(phase)));
        prop_assert!((f - f_phase).abs() < 1e-9);
        prop_assert!((hilbert_schmidt_fidelity(&u, &u) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn basis_fidelity_model_is_monotone(fb in 0.5..1.0f64, n in 1u32..10) {
        let f_n = nth_root_basis_fidelity(fb, n);
        let f_n1 = nth_root_basis_fidelity(fb, n + 1);
        prop_assert!(f_n1 >= f_n);
        prop_assert!(f_n >= fb);
        prop_assert!(f_n <= 1.0);
    }

    #[test]
    fn total_fidelity_decreases_with_more_gates(fd in 0.5..1.0f64, fb in 0.5..1.0f64, k in 1usize..8) {
        prop_assert!(total_fidelity(fd, fb, k + 1) <= total_fidelity(fd, fb, k) + 1e-12);
        prop_assert!(total_fidelity(fd, fb, k) <= fd + 1e-12);
    }

    #[test]
    fn pulse_duration_scales_linearly(k in 1usize..10, n in 1u32..10) {
        let d = pulse_duration(k, n);
        prop_assert!((d - k as f64 / n as f64).abs() < 1e-12);
        prop_assert!(pulse_duration(k + 1, n) > d);
        prop_assert!(pulse_duration(k, n + 1) < d);
    }
}
