//! Weyl-chamber (KAK canonical-class) analysis of two-qubit unitaries.
//!
//! Every `U ∈ U(4)` can be written as
//! `U = (K₁ₗ ⊗ K₁ᵣ) · exp(i (c₁ X⊗X + c₂ Y⊗Y + c₃ Z⊗Z)) · (K₂ₗ ⊗ K₂ᵣ)`
//! with single-qubit `K`s. The triple `(c₁, c₂, c₃)`, folded into the Weyl
//! chamber `π/4 ≥ c₁ ≥ c₂ ≥ |c₃|` (with `c₃ ≥ 0` whenever `c₁ = π/4`),
//! uniquely labels the local-equivalence class of `U` and fully determines
//! how many applications of a given basis gate are needed to synthesize it —
//! the quantity at the heart of the paper's co-design comparison (§2.3, §3.1).
//!
//! The implementation follows the standard magic-basis construction: in the
//! magic (Bell) basis the local factors become real orthogonal and the
//! canonical factor becomes diagonal, so the eigenphases of `Mᵀ M` (with `M`
//! the magic-basis image of `U`) reveal the canonical coordinates.

use crate::complex::C64;
use crate::eigen::simultaneous_diagonalize;
use crate::gates::magic_basis;
use crate::matrix::Matrix4;
use std::f64::consts::{FRAC_PI_2, FRAC_PI_4};

/// Canonical (Weyl-chamber) coordinates of a two-qubit unitary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeylCoordinates {
    /// First canonical coordinate, `0 ≤ c1 ≤ π/4`.
    pub c1: f64,
    /// Second canonical coordinate, `0 ≤ c2 ≤ c1`.
    pub c2: f64,
    /// Third canonical coordinate, `|c3| ≤ c2`.
    pub c3: f64,
}

impl WeylCoordinates {
    /// Builds coordinates from an arbitrary (not necessarily canonical)
    /// triple, folding it into the Weyl chamber.
    pub fn from_raw(c1: f64, c2: f64, c3: f64) -> Self {
        canonicalize([c1, c2, c3])
    }

    /// Returns the coordinates as an array `[c1, c2, c3]`.
    pub fn as_array(&self) -> [f64; 3] {
        [self.c1, self.c2, self.c3]
    }

    /// True when the two coordinate triples agree within `tol`.
    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        (self.c1 - other.c1).abs() <= tol
            && (self.c2 - other.c2).abs() <= tol
            && (self.c3 - other.c3).abs() <= tol
    }

    /// True when the unitary is a tensor product of single-qubit gates.
    pub fn is_local(&self, tol: f64) -> bool {
        self.c1.abs() <= tol && self.c2.abs() <= tol && self.c3.abs() <= tol
    }

    /// True when the unitary is in the CNOT/CZ local-equivalence class.
    pub fn is_cnot_class(&self, tol: f64) -> bool {
        (self.c1 - FRAC_PI_4).abs() <= tol && self.c2.abs() <= tol && self.c3.abs() <= tol
    }

    /// True when the unitary is in the √iSWAP local-equivalence class.
    pub fn is_sqrt_iswap_class(&self, tol: f64) -> bool {
        let t = FRAC_PI_4 / 2.0;
        (self.c1 - t).abs() <= tol && (self.c2 - t).abs() <= tol && self.c3.abs() <= tol
    }

    /// True when the class lies in the region synthesizable with **two**
    /// √iSWAP applications: `c1 ≥ c2 + |c3|` (Huang et al. 2021).
    pub fn in_two_sqrt_iswap_region(&self, tol: f64) -> bool {
        self.c1 + tol >= self.c2 + self.c3.abs()
    }

    /// Makhlin local invariants `(g1, g2, g3)` computed from the coordinates.
    pub fn makhlin_invariants(&self) -> (f64, f64, f64) {
        let (a, b, c) = (2.0 * self.c1, 2.0 * self.c2, 2.0 * self.c3);
        let g1 = a.cos().powi(2) * b.cos().powi(2) * c.cos().powi(2)
            - a.sin().powi(2) * b.sin().powi(2) * c.sin().powi(2);
        let g2 = 0.25 * (2.0 * a).sin() * (2.0 * b).sin() * (2.0 * c).sin();
        let g3 = 4.0 * g1 - (2.0 * a).cos() * (2.0 * b).cos() * (2.0 * c).cos();
        (g1, g2, g3)
    }
}

/// Computes the Weyl-chamber coordinates of an arbitrary two-qubit unitary.
///
/// The result is invariant under single-qubit pre-/post-multiplication and
/// global phase.
pub fn weyl_coordinates(u: &Matrix4) -> WeylCoordinates {
    // Normalize to SU(4); the branch of the fourth root is irrelevant because
    // a global phase of i^k shifts every coordinate by kπ/2, which the
    // canonicalization absorbs.
    let det = u.det();
    let su = u.scale(det.nth_root(4).inv());

    // Magic-basis image and its "Takagi" matrix S = Mᵀ M.
    let b = magic_basis();
    let m = b.adjoint() * su * b;
    let s_mat = m.transpose() * m;

    // S is complex symmetric and unitary, so Re S and Im S are commuting real
    // symmetric matrices; diagonalize them simultaneously.
    let re: Vec<Vec<f64>> = (0..4)
        .map(|r| (0..4).map(|c| s_mat[(r, c)].re).collect())
        .collect();
    let im: Vec<Vec<f64>> = (0..4)
        .map(|r| (0..4).map(|c| s_mat[(r, c)].im).collect())
        .collect();
    let o = simultaneous_diagonalize(&re, &im);

    // Eigenphases: diag(Oᵀ S O) = exp(2 i λⱼ).
    let mut lambdas = [0.0f64; 4];
    for (j, lambda) in lambdas.iter_mut().enumerate() {
        let mut val = C64::default();
        for r in 0..4 {
            for c in 0..4 {
                val += C64::real(o[r][j]) * s_mat[(r, c)] * C64::real(o[c][j]);
            }
        }
        *lambda = val.arg() / 2.0;
    }

    // Invert λ = (c1-c2+c3, -c1+c2+c3, -c1-c2-c3, c1+c2-c3); any permutation
    // or branch ambiguity in λ maps to a Weyl-group move on (c1,c2,c3), which
    // the canonicalization below removes.
    let c1 = (lambdas[0] + lambdas[3]) / 2.0;
    let c2 = (lambdas[1] + lambdas[3]) / 2.0;
    let c3 = (lambdas[0] + lambdas[1]) / 2.0;
    canonicalize([c1, c2, c3])
}

/// Folds an arbitrary canonical triple into the Weyl chamber using the
/// local-equivalence symmetry group: per-coordinate shifts by π/2,
/// coordinate swaps, and pairwise sign flips.
pub fn canonicalize(raw: [f64; 3]) -> WeylCoordinates {
    const EPS: f64 = 1e-9;
    let mut c = raw;

    // 1. Reduce each coordinate modulo π/2 into [-π/4, π/4].
    for v in &mut c {
        *v -= (*v / FRAC_PI_2).round() * FRAC_PI_2;
        // Prefer the +π/4 representative over -π/4 for determinism.
        if (*v + FRAC_PI_4).abs() < EPS {
            *v = FRAC_PI_4;
        }
    }

    // 2. Sort by decreasing absolute value (coordinate swaps are free).
    c.sort_by(|a, b| b.abs().partial_cmp(&a.abs()).unwrap());

    // 3. Make the two largest coordinates non-negative using pairwise flips.
    if c[0] < 0.0 {
        c[0] = -c[0];
        c[2] = -c[2];
    }
    if c[1] < 0.0 {
        c[1] = -c[1];
        c[2] = -c[2];
    }

    // 4. On the chamber boundary c1 = π/4 the sign of c3 is gauge; pick +.
    if (c[0] - FRAC_PI_4).abs() < EPS && c[2] < 0.0 {
        c[2] = -c[2];
    }
    // Re-sort the two leading coordinates in case flips introduced ties in a
    // different order (absolute values unchanged, so ordering still valid).
    if c[1] > c[0] {
        c.swap(0, 1);
    }
    if c[2].abs() > c[1] + EPS {
        // Cannot happen if the moves above preserved |·| ordering; guard for
        // numerical noise by re-sorting on magnitude and re-fixing signs.
        c.sort_by(|a, b| b.abs().partial_cmp(&a.abs()).unwrap());
        if c[0] < 0.0 {
            c[0] = -c[0];
            c[2] = -c[2];
        }
        if c[1] < 0.0 {
            c[1] = -c[1];
            c[2] = -c[2];
        }
    }

    // Snap tiny values to zero for stable downstream classification.
    for v in &mut c {
        if v.abs() < EPS {
            *v = 0.0;
        }
    }

    WeylCoordinates {
        c1: c[0],
        c2: c[1],
        c3: c[2],
    }
}

/// Makhlin local invariants `(g1, g2, g3)` computed directly from the matrix.
///
/// These agree with [`WeylCoordinates::makhlin_invariants`] for the same
/// unitary, providing an independent cross-check of the Weyl pipeline.
pub fn makhlin_invariants(u: &Matrix4) -> (f64, f64, f64) {
    let det = u.det();
    let su = u.scale(det.nth_root(4).inv());
    let b = magic_basis();
    let m = b.adjoint() * su * b;
    let big_m = m.transpose() * m;
    let tr = big_m.trace();
    let tr2 = tr * tr;
    let tr_m2 = (big_m * big_m).trace();
    let g1c = tr2 / 16.0;
    let g3c = (tr2 - tr_m2) / 4.0;
    (g1c.re, g1c.im, g3c.re)
}

/// Reconstructs a representative unitary (the canonical gate itself) for a
/// Weyl class. Useful for tests and for template seeding in the numerical
/// decomposer.
pub fn canonical_gate(coords: &WeylCoordinates) -> Matrix4 {
    crate::gates::canonical(coords.c1, coords.c2, coords.c3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;
    use crate::random::{haar_unitary2, haar_unitary4, random_local_dressing};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::f64::consts::{FRAC_PI_4, FRAC_PI_8};

    const TOL: f64 = 1e-7;

    fn assert_coords(u: &Matrix4, expected: [f64; 3], label: &str) {
        let w = weyl_coordinates(u);
        let e = WeylCoordinates {
            c1: expected[0],
            c2: expected[1],
            c3: expected[2],
        };
        assert!(
            w.approx_eq(&e, 1e-6),
            "{label}: got ({:.6}, {:.6}, {:.6}), expected ({:.6}, {:.6}, {:.6})",
            w.c1,
            w.c2,
            w.c3,
            e.c1,
            e.c2,
            e.c3
        );
    }

    #[test]
    fn identity_is_origin() {
        assert_coords(&Matrix4::identity(), [0.0, 0.0, 0.0], "identity");
    }

    #[test]
    fn named_gate_coordinates() {
        assert_coords(&gates::cx(), [FRAC_PI_4, 0.0, 0.0], "cnot");
        assert_coords(&gates::cz(), [FRAC_PI_4, 0.0, 0.0], "cz");
        assert_coords(&gates::iswap(), [FRAC_PI_4, FRAC_PI_4, 0.0], "iswap");
        assert_coords(&gates::dcx(), [FRAC_PI_4, FRAC_PI_4, 0.0], "dcx");
        assert_coords(&gates::swap(), [FRAC_PI_4, FRAC_PI_4, FRAC_PI_4], "swap");
        assert_coords(
            &gates::sqrt_iswap(),
            [FRAC_PI_8, FRAC_PI_8, 0.0],
            "sqrt_iswap",
        );
        assert_coords(&gates::csx(), [FRAC_PI_8, 0.0, 0.0], "csx");
    }

    #[test]
    fn nth_root_iswap_coordinates() {
        for n in 1..=7u32 {
            let expect = gates::nth_root_iswap_coords(n);
            assert_coords(
                &gates::nth_root_iswap(n),
                expect,
                &format!("{n}-th root iswap"),
            );
        }
    }

    #[test]
    fn syc_coordinates() {
        // SYC = FSIM(π/2, π/6) is locally equivalent to iSWAP up to the small
        // |11⟩ phase; its Weyl class is (π/4, π/4, π/24).
        let w = weyl_coordinates(&gates::syc());
        assert!((w.c1 - FRAC_PI_4).abs() < 1e-6, "c1 = {}", w.c1);
        assert!((w.c2 - FRAC_PI_4).abs() < 1e-6, "c2 = {}", w.c2);
        assert!(
            (w.c3 - std::f64::consts::PI / 24.0).abs() < 1e-6,
            "c3 = {}",
            w.c3
        );
    }

    #[test]
    fn cphase_sweeps_cnot_axis() {
        // CPhase(θ) has Weyl class (θ/4, 0, 0).
        for &(theta, expect) in &[
            (std::f64::consts::PI, FRAC_PI_4),
            (std::f64::consts::FRAC_PI_2, FRAC_PI_8),
            (0.3, 0.075),
        ] {
            let w = weyl_coordinates(&gates::cphase(theta));
            assert!((w.c1 - expect).abs() < 1e-6, "theta {theta}: c1 {}", w.c1);
            assert!(w.c2.abs() < 1e-6 && w.c3.abs() < 1e-6);
        }
    }

    #[test]
    fn coordinates_invariant_under_local_dressing() {
        let mut rng = StdRng::seed_from_u64(21);
        for core in [
            gates::cx(),
            gates::sqrt_iswap(),
            gates::syc(),
            gates::swap(),
        ] {
            let base = weyl_coordinates(&core);
            for _ in 0..8 {
                let dressed = random_local_dressing(&core, &mut rng);
                let w = weyl_coordinates(&dressed);
                assert!(
                    w.approx_eq(&base, 1e-6),
                    "dressed coords ({}, {}, {}) vs base ({}, {}, {})",
                    w.c1,
                    w.c2,
                    w.c3,
                    base.c1,
                    base.c2,
                    base.c3
                );
            }
        }
    }

    #[test]
    fn coordinates_invariant_under_global_phase() {
        let u = gates::cx();
        for k in 0..8 {
            let phase = C64::cis(k as f64 * std::f64::consts::PI / 4.0);
            let w = weyl_coordinates(&u.scale(phase));
            assert!(w.approx_eq(
                &WeylCoordinates {
                    c1: FRAC_PI_4,
                    c2: 0.0,
                    c3: 0.0
                },
                1e-6
            ));
        }
    }

    #[test]
    fn local_unitaries_map_to_origin() {
        let mut rng = StdRng::seed_from_u64(33);
        for _ in 0..10 {
            let l = haar_unitary2(&mut rng).kron(&haar_unitary2(&mut rng));
            let w = weyl_coordinates(&l);
            assert!(w.is_local(1e-6), "({}, {}, {})", w.c1, w.c2, w.c3);
        }
    }

    #[test]
    fn haar_unitaries_land_in_chamber() {
        let mut rng = StdRng::seed_from_u64(55);
        for _ in 0..50 {
            let u = haar_unitary4(&mut rng);
            let w = weyl_coordinates(&u);
            assert!(w.c1 <= FRAC_PI_4 + TOL);
            assert!(w.c2 <= w.c1 + TOL);
            assert!(w.c3.abs() <= w.c2 + TOL);
            assert!(w.c1 >= -TOL && w.c2 >= -TOL);
        }
    }

    #[test]
    fn makhlin_invariants_match_coordinate_formula() {
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..30 {
            let u = haar_unitary4(&mut rng);
            let w = weyl_coordinates(&u);
            let (g1m, g2m, g3m) = makhlin_invariants(&u);
            let (g1c, g2c, g3c) = w.makhlin_invariants();
            assert!((g1m - g1c).abs() < 1e-6, "g1 {g1m} vs {g1c}");
            assert!((g2m.abs() - g2c.abs()).abs() < 1e-6, "g2 {g2m} vs {g2c}");
            assert!((g3m - g3c).abs() < 1e-6, "g3 {g3m} vs {g3c}");
        }
    }

    #[test]
    fn makhlin_invariants_of_named_gates() {
        let cases: [(&str, Matrix4, (f64, f64, f64)); 4] = [
            ("identity", Matrix4::identity(), (1.0, 0.0, 3.0)),
            ("cnot", gates::cx(), (0.0, 0.0, 1.0)),
            ("iswap", gates::iswap(), (0.0, 0.0, -1.0)),
            ("swap", gates::swap(), (-1.0, 0.0, -3.0)),
        ];
        for (name, u, (e1, e2, e3)) in cases {
            let (g1, g2, g3) = makhlin_invariants(&u);
            assert!((g1 - e1).abs() < 1e-9, "{name} g1 = {g1}");
            assert!((g2 - e2).abs() < 1e-9, "{name} g2 = {g2}");
            assert!((g3 - e3).abs() < 1e-9, "{name} g3 = {g3}");
        }
    }

    #[test]
    fn canonical_gate_round_trip() {
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..20 {
            let u = haar_unitary4(&mut rng);
            let w = weyl_coordinates(&u);
            let rebuilt = canonical_gate(&w);
            let w2 = weyl_coordinates(&rebuilt);
            assert!(w.approx_eq(&w2, 1e-6));
        }
    }

    #[test]
    fn two_sqrt_iswap_region_membership() {
        // CNOT (π/4, 0, 0): inside the 2-use region.
        assert!(weyl_coordinates(&gates::cx()).in_two_sqrt_iswap_region(1e-9));
        // SWAP (π/4, π/4, π/4): outside (needs 3).
        assert!(!weyl_coordinates(&gates::swap()).in_two_sqrt_iswap_region(1e-9));
        // iSWAP (π/4, π/4, 0): boundary, inside.
        assert!(weyl_coordinates(&gates::iswap()).in_two_sqrt_iswap_region(1e-9));
    }

    #[test]
    fn classification_helpers() {
        assert!(weyl_coordinates(&gates::cx()).is_cnot_class(1e-6));
        assert!(weyl_coordinates(&gates::cz()).is_cnot_class(1e-6));
        assert!(weyl_coordinates(&gates::sqrt_iswap()).is_sqrt_iswap_class(1e-6));
        assert!(weyl_coordinates(&Matrix4::identity()).is_local(1e-9));
        assert!(!weyl_coordinates(&gates::cx()).is_local(1e-6));
    }

    #[test]
    fn canonicalize_folds_out_of_range_values() {
        // A coordinate slightly above π/4 folds back symmetric about π/4 via
        // the π/2 shift and sign flips.
        let w = canonicalize([FRAC_PI_4 + 0.1, 0.0, 0.0]);
        assert!((w.c1 - (FRAC_PI_4 - 0.1)).abs() < 1e-9);
        // Negative values fold to positive.
        let w = canonicalize([-0.2, 0.1, 0.0]);
        assert!(w.c1 >= w.c2 && w.c2 >= w.c3.abs());
        assert!((w.c1 - 0.2).abs() < 1e-9);
    }
}
