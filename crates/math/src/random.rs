//! Haar-random unitary sampling.
//!
//! Quantum Volume circuits and the `ⁿ√iSWAP` fidelity study (paper §6.3) both
//! draw two-qubit unitaries from the Haar measure on `U(4)`. We sample a
//! complex Ginibre matrix (i.i.d. standard complex normals) and orthonormalize
//! it with a phase-fixed Gram–Schmidt QR, which is the textbook Haar
//! construction.

// Gram-Schmidt updates columns in place by index; keep the index loops.
#![allow(clippy::needless_range_loop)]

use crate::complex::C64;
use crate::matrix::{Matrix2, Matrix4};
use rand::Rng;

/// Draws a standard normal via the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        let u2: f64 = rng.gen::<f64>();
        if u1 > f64::MIN_POSITIVE {
            return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }
}

/// Draws a standard complex normal (real and imaginary parts iid `N(0, 1)`).
pub fn complex_normal<R: Rng + ?Sized>(rng: &mut R) -> C64 {
    C64::new(standard_normal(rng), standard_normal(rng))
}

/// Samples a Haar-random unitary from `U(2)`.
pub fn haar_unitary2<R: Rng + ?Sized>(rng: &mut R) -> Matrix2 {
    let cols = gram_schmidt(
        vec![
            vec![complex_normal(rng), complex_normal(rng)],
            vec![complex_normal(rng), complex_normal(rng)],
        ],
        rng,
    );
    let mut m = Matrix2::zeros();
    for (c, col) in cols.iter().enumerate() {
        for (r, v) in col.iter().enumerate() {
            m[(r, c)] = *v;
        }
    }
    m
}

/// Samples a Haar-random unitary from `U(4)`.
pub fn haar_unitary4<R: Rng + ?Sized>(rng: &mut R) -> Matrix4 {
    let cols = gram_schmidt(
        (0..4)
            .map(|_| (0..4).map(|_| complex_normal(rng)).collect())
            .collect(),
        rng,
    );
    let mut m = Matrix4::zeros();
    for (c, col) in cols.iter().enumerate() {
        for (r, v) in col.iter().enumerate() {
            m[(r, c)] = *v;
        }
    }
    m
}

/// Modified Gram–Schmidt on the column vectors, with the QR phase fix that
/// makes the distribution exactly Haar (each diagonal of `R` made real
/// positive). Re-draws a column in the measure-zero event of linear
/// dependence.
fn gram_schmidt<R: Rng + ?Sized>(mut cols: Vec<Vec<C64>>, rng: &mut R) -> Vec<Vec<C64>> {
    let n = cols.len();
    for i in 0..n {
        loop {
            // Orthogonalize column i against all previous columns.
            for j in 0..i {
                let proj: C64 = cols[j]
                    .iter()
                    .zip(cols[i].iter())
                    .map(|(a, b)| a.conj() * *b)
                    .sum();
                for k in 0..n {
                    let adj = cols[j][k] * proj;
                    cols[i][k] -= adj;
                }
            }
            let norm: f64 = cols[i].iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
            if norm > 1e-12 {
                for k in 0..n {
                    cols[i][k] = cols[i][k] / norm;
                }
                break;
            }
            // Degenerate draw; resample this column.
            for k in 0..n {
                cols[i][k] = complex_normal(rng);
            }
        }
    }
    cols
}

/// Samples a random two-qubit unitary of the form `(a0 ⊗ a1) · U · (b0 ⊗ b1)`
/// for a fixed core `U` with Haar-random single-qubit dressings — i.e. a
/// random member of `U`'s local-equivalence class.
pub fn random_local_dressing<R: Rng + ?Sized>(core: &Matrix4, rng: &mut R) -> Matrix4 {
    let a0 = haar_unitary2(rng);
    let a1 = haar_unitary2(rng);
    let b0 = haar_unitary2(rng);
    let b1 = haar_unitary2(rng);
    a0.kron(&a1) * *core * b0.kron(&b1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn haar2_is_unitary() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            assert!(haar_unitary2(&mut rng).is_unitary(1e-9));
        }
    }

    #[test]
    fn haar4_is_unitary() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..20 {
            assert!(haar_unitary4(&mut rng).is_unitary(1e-9));
        }
    }

    #[test]
    fn sampling_is_deterministic_for_fixed_seed() {
        let a = haar_unitary4(&mut StdRng::seed_from_u64(42));
        let b = haar_unitary4(&mut StdRng::seed_from_u64(42));
        assert!(a.approx_eq(&b, 0.0));
    }

    #[test]
    fn normal_sampler_has_reasonable_moments() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.08, "variance {var}");
    }

    #[test]
    fn local_dressing_preserves_unitarity() {
        let mut rng = StdRng::seed_from_u64(5);
        let dressed = random_local_dressing(&crate::gates::sqrt_iswap(), &mut rng);
        assert!(dressed.is_unitary(1e-9));
    }
}
