//! Property-based tests for the linear-algebra and Weyl-chamber layers.

// Matrix-reconstruction checks compare indexed entries; index loops are clearest.
#![allow(clippy::needless_range_loop)]

use proptest::prelude::*;
use snailqc_math::complex::C64;
use snailqc_math::gates;
use snailqc_math::matrix::{Matrix2, Matrix4};
use snailqc_math::random::{haar_unitary2, haar_unitary4};
use snailqc_math::weyl::{canonicalize, makhlin_invariants, weyl_coordinates};
use std::f64::consts::FRAC_PI_4;

fn rng_from(seed: u64) -> rand::rngs::StdRng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------------- complex arithmetic ----------------

    #[test]
    fn complex_multiplication_is_commutative_and_associative(
        a in -10.0..10.0f64, b in -10.0..10.0f64,
        c in -10.0..10.0f64, d in -10.0..10.0f64,
        e in -10.0..10.0f64, f in -10.0..10.0f64,
    ) {
        let x = C64::new(a, b);
        let y = C64::new(c, d);
        let z = C64::new(e, f);
        prop_assert!((x * y).approx_eq(y * x, 1e-9));
        prop_assert!(((x * y) * z).approx_eq(x * (y * z), 1e-7));
    }

    #[test]
    fn complex_modulus_is_multiplicative(a in -10.0..10.0f64, b in -10.0..10.0f64,
                                         c in -10.0..10.0f64, d in -10.0..10.0f64) {
        let x = C64::new(a, b);
        let y = C64::new(c, d);
        prop_assert!(((x * y).abs() - x.abs() * y.abs()).abs() < 1e-7);
    }

    #[test]
    fn cis_lies_on_unit_circle(theta in -20.0..20.0f64) {
        prop_assert!((C64::cis(theta).abs() - 1.0).abs() < 1e-12);
    }

    // ---------------- rotation gates ----------------

    #[test]
    fn rotations_compose_additively(a in -3.0..3.0f64, b in -3.0..3.0f64) {
        prop_assert!((gates::rz(a) * gates::rz(b)).approx_eq(&gates::rz(a + b), 1e-9));
        prop_assert!((gates::rx(a) * gates::rx(b)).approx_eq(&gates::rx(a + b), 1e-9));
        prop_assert!((gates::ry(a) * gates::ry(b)).approx_eq(&gates::ry(a + b), 1e-9));
    }

    #[test]
    fn u3_is_always_unitary(theta in -6.3..6.3f64, phi in -6.3..6.3f64, lam in -6.3..6.3f64) {
        prop_assert!(gates::u3(theta, phi, lam).is_unitary(1e-9));
    }

    #[test]
    fn iswap_powers_compose(a in 0.01..1.0f64, b in 0.01..1.0f64) {
        let lhs = gates::iswap_pow(a) * gates::iswap_pow(b);
        let rhs = gates::iswap_pow(a + b);
        prop_assert!(lhs.approx_eq(&rhs, 1e-9));
    }

    #[test]
    fn fsim_is_unitary(theta in -3.2..3.2f64, phi in -3.2..3.2f64) {
        prop_assert!(gates::fsim(theta, phi).is_unitary(1e-9));
    }

    // ---------------- kron and matrix identities ----------------

    #[test]
    fn kron_respects_products(seed1 in 0u64..1000, seed2 in 0u64..1000) {
        let a = haar_unitary2(&mut rng_from(seed1));
        let b = haar_unitary2(&mut rng_from(seed1 ^ 0xABCD));
        let c = haar_unitary2(&mut rng_from(seed2));
        let d = haar_unitary2(&mut rng_from(seed2 ^ 0xABCD));
        // (a⊗b)(c⊗d) = (ac)⊗(bd)
        let lhs = a.kron(&b) * c.kron(&d);
        let rhs = (a * c).kron(&(b * d));
        prop_assert!(lhs.approx_eq(&rhs, 1e-9));
    }

    #[test]
    fn determinant_is_multiplicative_for_unitaries(seed in 0u64..1000) {
        let u = haar_unitary4(&mut rng_from(seed));
        let v = haar_unitary4(&mut rng_from(seed ^ 0xF00D));
        let lhs = (u * v).det();
        let rhs = u.det() * v.det();
        prop_assert!(lhs.approx_eq(rhs, 1e-7));
        prop_assert!((u.det().abs() - 1.0).abs() < 1e-8);
    }

    #[test]
    fn adjoint_is_inverse_for_unitaries(seed in 0u64..1000) {
        let u = haar_unitary4(&mut rng_from(seed));
        prop_assert!((u * u.adjoint()).approx_eq(&Matrix4::identity(), 1e-9));
        prop_assert!((u.adjoint() * u).approx_eq(&Matrix4::identity(), 1e-9));
    }

    #[test]
    fn trace_is_invariant_under_cyclic_permutation(seed in 0u64..1000) {
        let u = haar_unitary4(&mut rng_from(seed));
        let v = haar_unitary4(&mut rng_from(seed ^ 0xBEEF));
        prop_assert!((u * v).trace().approx_eq((v * u).trace(), 1e-8));
    }

    // ---------------- Weyl chamber ----------------

    #[test]
    fn weyl_coordinates_always_land_in_chamber(seed in 0u64..2000) {
        let u = haar_unitary4(&mut rng_from(seed));
        let w = weyl_coordinates(&u);
        prop_assert!(w.c1 <= FRAC_PI_4 + 1e-7);
        prop_assert!(w.c2 <= w.c1 + 1e-7);
        prop_assert!(w.c3.abs() <= w.c2 + 1e-7);
        prop_assert!(w.c1 >= -1e-9 && w.c2 >= -1e-9);
    }

    #[test]
    fn weyl_coordinates_invariant_under_local_dressing(seed in 0u64..500) {
        let mut rng = rng_from(seed);
        let core = haar_unitary4(&mut rng);
        let base = weyl_coordinates(&core);
        let dressed = snailqc_math::random::random_local_dressing(&core, &mut rng);
        let w = weyl_coordinates(&dressed);
        prop_assert!(w.approx_eq(&base, 1e-5),
            "({}, {}, {}) vs ({}, {}, {})", w.c1, w.c2, w.c3, base.c1, base.c2, base.c3);
    }

    #[test]
    fn weyl_coordinates_symmetric_under_qubit_exchange(seed in 0u64..500) {
        let u = haar_unitary4(&mut rng_from(seed));
        let a = weyl_coordinates(&u);
        let b = weyl_coordinates(&(gates::swap() * u * gates::swap()));
        prop_assert!(a.approx_eq(&b, 1e-6));
    }

    #[test]
    fn weyl_coordinates_of_inverse_match_up_to_sign(seed in 0u64..500) {
        // U and U† share |c3| and the first two coordinates.
        let u = haar_unitary4(&mut rng_from(seed));
        let a = weyl_coordinates(&u);
        let b = weyl_coordinates(&u.adjoint());
        prop_assert!((a.c1 - b.c1).abs() < 1e-6);
        prop_assert!((a.c2 - b.c2).abs() < 1e-6);
        prop_assert!((a.c3.abs() - b.c3.abs()).abs() < 1e-6);
    }

    #[test]
    fn makhlin_invariants_agree_between_matrix_and_coordinates(seed in 0u64..500) {
        let u = haar_unitary4(&mut rng_from(seed));
        let w = weyl_coordinates(&u);
        let (g1m, g2m, g3m) = makhlin_invariants(&u);
        let (g1c, g2c, g3c) = w.makhlin_invariants();
        prop_assert!((g1m - g1c).abs() < 1e-5);
        prop_assert!((g2m.abs() - g2c.abs()).abs() < 1e-5);
        prop_assert!((g3m - g3c).abs() < 1e-5);
    }

    #[test]
    fn canonicalize_is_idempotent(c1 in -3.2..3.2f64, c2 in -3.2..3.2f64, c3 in -3.2..3.2f64) {
        let once = canonicalize([c1, c2, c3]);
        let twice = canonicalize(once.as_array());
        prop_assert!(once.approx_eq(&twice, 1e-9));
    }

    #[test]
    fn canonical_gate_round_trips_through_weyl_analysis(
        c1 in 0.0..FRAC_PI_4, c2 in 0.0..FRAC_PI_4, c3 in 0.0..FRAC_PI_4,
    ) {
        // Build a gate from arbitrary coordinates, re-extract, re-build: both
        // canonical classes must agree.
        let gate = gates::canonical(c1, c2, c3);
        let w = weyl_coordinates(&gate);
        let rebuilt = gates::canonical(w.c1, w.c2, w.c3);
        let w2 = weyl_coordinates(&rebuilt);
        prop_assert!(w.approx_eq(&w2, 1e-6));
    }

    // ---------------- simultaneous diagonalization ----------------

    #[test]
    fn jacobi_reconstructs_random_symmetric_matrices(seed in 0u64..1000) {
        use rand::Rng;
        let mut rng = rng_from(seed);
        let n = 4;
        let mut a = vec![vec![0.0f64; n]; n];
        for i in 0..n {
            for j in i..n {
                let v: f64 = rng.gen_range(-2.0..2.0);
                a[i][j] = v;
                a[j][i] = v;
            }
        }
        let e = snailqc_math::eigen::jacobi_symmetric(&a);
        // Reconstruct a = V diag(λ) Vᵀ.
        let mut recon = vec![vec![0.0f64; n]; n];
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0;
                for k in 0..n {
                    acc += e.vectors[i][k] * e.values[k] * e.vectors[j][k];
                }
                recon[i][j] = acc;
            }
        }
        for i in 0..n {
            for j in 0..n {
                prop_assert!((recon[i][j] - a[i][j]).abs() < 1e-7);
            }
        }
    }
}

#[test]
fn named_gates_have_expected_chamber_positions() {
    // A non-property anchor so the suite fails loudly if conventions drift.
    let w = weyl_coordinates(&gates::cx());
    assert!((w.c1 - FRAC_PI_4).abs() < 1e-9 && w.c2.abs() < 1e-9);
    let w = weyl_coordinates(&gates::swap());
    assert!((w.c3 - FRAC_PI_4).abs() < 1e-9);
    let local = gates::h().kron(&Matrix2::identity());
    assert!(weyl_coordinates(&local).is_local(1e-9));
}
