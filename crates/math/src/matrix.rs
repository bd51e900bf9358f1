//! Dense 2×2 and 4×4 complex matrices.
//!
//! These are the only sizes the library needs: single-qubit operators live in
//! `U(2)` and two-qubit operators in `U(4)`. Both types are plain
//! stack-allocated arrays with value semantics.

use crate::complex::{C64, ONE, ZERO};
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

/// A 2×2 complex matrix (single-qubit operator).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Matrix2 {
    data: [[C64; 2]; 2],
}

/// A 4×4 complex matrix (two-qubit operator).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Matrix4 {
    data: [[C64; 4]; 4],
}

impl Matrix2 {
    /// Builds a matrix from rows.
    pub const fn new(data: [[C64; 2]; 2]) -> Self {
        Self { data }
    }

    /// The zero matrix.
    pub const fn zeros() -> Self {
        Self {
            data: [[ZERO; 2]; 2],
        }
    }

    /// The identity matrix.
    pub const fn identity() -> Self {
        let mut m = Self::zeros();
        m.data[0][0] = ONE;
        m.data[1][1] = ONE;
        m
    }

    /// Builds a diagonal matrix.
    pub fn diag(d0: C64, d1: C64) -> Self {
        let mut m = Self::zeros();
        m[(0, 0)] = d0;
        m[(1, 1)] = d1;
        m
    }

    /// Conjugate transpose.
    pub fn adjoint(&self) -> Self {
        let mut out = Self::zeros();
        for r in 0..2 {
            for c in 0..2 {
                out.data[c][r] = self.data[r][c].conj();
            }
        }
        out
    }

    /// Transpose (no conjugation).
    pub fn transpose(&self) -> Self {
        let mut out = Self::zeros();
        for r in 0..2 {
            for c in 0..2 {
                out.data[c][r] = self.data[r][c];
            }
        }
        out
    }

    /// Entry-wise complex conjugate.
    pub fn conj(&self) -> Self {
        let mut out = *self;
        for r in 0..2 {
            for c in 0..2 {
                out.data[r][c] = out.data[r][c].conj();
            }
        }
        out
    }

    /// Matrix trace.
    pub fn trace(&self) -> C64 {
        self.data[0][0] + self.data[1][1]
    }

    /// Determinant.
    pub fn det(&self) -> C64 {
        self.data[0][0] * self.data[1][1] - self.data[0][1] * self.data[1][0]
    }

    /// Multiplies every entry by a complex scalar.
    pub fn scale(&self, k: C64) -> Self {
        let mut out = *self;
        for r in 0..2 {
            for c in 0..2 {
                out.data[r][c] *= k;
            }
        }
        out
    }

    /// Kronecker (tensor) product `self ⊗ other`, giving a two-qubit operator.
    ///
    /// Index convention: qubit 0 is the *left* factor and occupies the most
    /// significant bit of the computational-basis index, matching the usual
    /// `|q0 q1⟩` ordering used throughout the crate.
    pub fn kron(&self, other: &Matrix2) -> Matrix4 {
        let mut out = Matrix4::zeros();
        for r0 in 0..2 {
            for c0 in 0..2 {
                for r1 in 0..2 {
                    for c1 in 0..2 {
                        out[(r0 * 2 + r1, c0 * 2 + c1)] = self.data[r0][c0] * other.data[r1][c1];
                    }
                }
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data
            .iter()
            .flatten()
            .map(|z| z.norm_sqr())
            .sum::<f64>()
            .sqrt()
    }

    /// Returns `true` when `self · self† = I` within `tol`.
    pub fn is_unitary(&self, tol: f64) -> bool {
        (*self * self.adjoint()).approx_eq(&Self::identity(), tol)
    }

    /// Entry-wise approximate equality.
    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        for r in 0..2 {
            for c in 0..2 {
                if !self.data[r][c].approx_eq(other.data[r][c], tol) {
                    return false;
                }
            }
        }
        true
    }

    /// Approximate equality up to a global phase.
    pub fn approx_eq_up_to_phase(&self, other: &Self, tol: f64) -> bool {
        phase_aligned_distance_2(self, other) <= tol
    }
}

impl Matrix4 {
    /// Builds a matrix from rows.
    pub const fn new(data: [[C64; 4]; 4]) -> Self {
        Self { data }
    }

    /// The zero matrix.
    pub const fn zeros() -> Self {
        Self {
            data: [[ZERO; 4]; 4],
        }
    }

    /// The identity matrix.
    pub const fn identity() -> Self {
        let mut m = Self::zeros();
        m.data[0][0] = ONE;
        m.data[1][1] = ONE;
        m.data[2][2] = ONE;
        m.data[3][3] = ONE;
        m
    }

    /// Builds a diagonal matrix.
    pub fn diag(d: [C64; 4]) -> Self {
        let mut m = Self::zeros();
        for (i, v) in d.into_iter().enumerate() {
            m[(i, i)] = v;
        }
        m
    }

    /// Conjugate transpose.
    pub fn adjoint(&self) -> Self {
        let mut out = Self::zeros();
        for r in 0..4 {
            for c in 0..4 {
                out.data[c][r] = self.data[r][c].conj();
            }
        }
        out
    }

    /// Transpose (no conjugation).
    pub fn transpose(&self) -> Self {
        let mut out = Self::zeros();
        for r in 0..4 {
            for c in 0..4 {
                out.data[c][r] = self.data[r][c];
            }
        }
        out
    }

    /// Entry-wise complex conjugate.
    pub fn conj(&self) -> Self {
        let mut out = *self;
        for r in 0..4 {
            for c in 0..4 {
                out.data[r][c] = out.data[r][c].conj();
            }
        }
        out
    }

    /// Matrix trace.
    pub fn trace(&self) -> C64 {
        (0..4).map(|i| self.data[i][i]).sum()
    }

    /// Determinant, computed by cofactor expansion over the first row.
    #[allow(clippy::needless_range_loop)] // cofactor loops skip the minor's column by index
    pub fn det(&self) -> C64 {
        let m = &self.data;
        let det3 = |a: [[C64; 3]; 3]| -> C64 {
            a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
                - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
                + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
        };
        let minor = |col: usize| -> [[C64; 3]; 3] {
            let mut out = [[ZERO; 3]; 3];
            for (ri, r) in (1..4).enumerate() {
                let mut ci = 0;
                for c in 0..4 {
                    if c == col {
                        continue;
                    }
                    out[ri][ci] = m[r][c];
                    ci += 1;
                }
            }
            out
        };
        let mut acc = ZERO;
        let mut sign = 1.0;
        for c in 0..4 {
            acc += m[0][c] * det3(minor(c)) * sign;
            sign = -sign;
        }
        acc
    }

    /// Multiplies every entry by a complex scalar.
    pub fn scale(&self, k: C64) -> Self {
        let mut out = *self;
        for r in 0..4 {
            for c in 0..4 {
                out.data[r][c] *= k;
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data
            .iter()
            .flatten()
            .map(|z| z.norm_sqr())
            .sum::<f64>()
            .sqrt()
    }

    /// Hilbert–Schmidt inner product `⟨A, B⟩ = Tr(A† B)`.
    pub fn hs_inner(&self, other: &Self) -> C64 {
        let mut acc = ZERO;
        for r in 0..4 {
            for c in 0..4 {
                acc += self.data[r][c].conj() * other.data[r][c];
            }
        }
        acc
    }

    /// Returns `true` when `self · self† = I` within `tol`.
    pub fn is_unitary(&self, tol: f64) -> bool {
        (*self * self.adjoint()).approx_eq(&Self::identity(), tol)
    }

    /// Entry-wise approximate equality.
    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        for r in 0..4 {
            for c in 0..4 {
                if !self.data[r][c].approx_eq(other.data[r][c], tol) {
                    return false;
                }
            }
        }
        true
    }

    /// Approximate equality up to a global phase.
    pub fn approx_eq_up_to_phase(&self, other: &Self, tol: f64) -> bool {
        phase_aligned_distance_4(self, other) <= tol
    }
}

/// Maximum entry-wise distance between `a` and `e^{iφ} b` for the optimal φ.
fn phase_aligned_distance_2(a: &Matrix2, b: &Matrix2) -> f64 {
    // Align phases using the largest-magnitude entry of b.
    let mut best = (0usize, 0usize);
    let mut mag = -1.0;
    for r in 0..2 {
        for c in 0..2 {
            if b[(r, c)].abs() > mag {
                mag = b[(r, c)].abs();
                best = (r, c);
            }
        }
    }
    if mag < 1e-14 {
        return a.frobenius_norm();
    }
    let phase = a[best] / b[best];
    let phase = if phase.abs() < 1e-14 {
        crate::complex::ONE
    } else {
        phase / phase.abs()
    };
    let mut dist: f64 = 0.0;
    for r in 0..2 {
        for c in 0..2 {
            dist = dist.max((a[(r, c)] - b[(r, c)] * phase).abs());
        }
    }
    dist
}

/// Maximum entry-wise distance between `a` and `e^{iφ} b` for the optimal φ.
fn phase_aligned_distance_4(a: &Matrix4, b: &Matrix4) -> f64 {
    let mut best = (0usize, 0usize);
    let mut mag = -1.0;
    for r in 0..4 {
        for c in 0..4 {
            if b[(r, c)].abs() > mag {
                mag = b[(r, c)].abs();
                best = (r, c);
            }
        }
    }
    if mag < 1e-14 {
        return a.frobenius_norm();
    }
    let phase = a[best] / b[best];
    let phase = if phase.abs() < 1e-14 {
        crate::complex::ONE
    } else {
        phase / phase.abs()
    };
    let mut dist: f64 = 0.0;
    for r in 0..4 {
        for c in 0..4 {
            dist = dist.max((a[(r, c)] - b[(r, c)] * phase).abs());
        }
    }
    dist
}

impl Index<(usize, usize)> for Matrix2 {
    type Output = C64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &C64 {
        &self.data[r][c]
    }
}

impl IndexMut<(usize, usize)> for Matrix2 {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut C64 {
        &mut self.data[r][c]
    }
}

impl Index<(usize, usize)> for Matrix4 {
    type Output = C64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &C64 {
        &self.data[r][c]
    }
}

impl IndexMut<(usize, usize)> for Matrix4 {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut C64 {
        &mut self.data[r][c]
    }
}

impl Mul for Matrix2 {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        let mut out = Self::zeros();
        for r in 0..2 {
            for c in 0..2 {
                let mut acc = ZERO;
                for k in 0..2 {
                    acc += self.data[r][k] * rhs.data[k][c];
                }
                out.data[r][c] = acc;
            }
        }
        out
    }
}

impl Mul for Matrix4 {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        let mut out = Self::zeros();
        for r in 0..4 {
            for c in 0..4 {
                let mut acc = ZERO;
                for k in 0..4 {
                    acc += self.data[r][k] * rhs.data[k][c];
                }
                out.data[r][c] = acc;
            }
        }
        out
    }
}

impl Add for Matrix2 {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        let mut out = self;
        for r in 0..2 {
            for c in 0..2 {
                out.data[r][c] += rhs.data[r][c];
            }
        }
        out
    }
}

impl Add for Matrix4 {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        let mut out = self;
        for r in 0..4 {
            for c in 0..4 {
                out.data[r][c] += rhs.data[r][c];
            }
        }
        out
    }
}

impl Sub for Matrix2 {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        let mut out = self;
        for r in 0..2 {
            for c in 0..2 {
                out.data[r][c] -= rhs.data[r][c];
            }
        }
        out
    }
}

impl Sub for Matrix4 {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        let mut out = self;
        for r in 0..4 {
            for c in 0..4 {
                out.data[r][c] -= rhs.data[r][c];
            }
        }
        out
    }
}

impl Neg for Matrix2 {
    type Output = Self;
    fn neg(self) -> Self {
        self.scale(C64::real(-1.0))
    }
}

impl Neg for Matrix4 {
    type Output = Self;
    fn neg(self) -> Self {
        self.scale(C64::real(-1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::I;

    const TOL: f64 = 1e-12;

    fn pauli_x() -> Matrix2 {
        Matrix2::new([[ZERO, ONE], [ONE, ZERO]])
    }

    fn pauli_z() -> Matrix2 {
        Matrix2::new([[ONE, ZERO], [ZERO, -ONE]])
    }

    #[test]
    fn identity_is_multiplicative_unit() {
        let x = pauli_x();
        assert!((x * Matrix2::identity()).approx_eq(&x, TOL));
        assert!((Matrix2::identity() * x).approx_eq(&x, TOL));
    }

    #[test]
    fn pauli_algebra() {
        let x = pauli_x();
        let z = pauli_z();
        // X² = Z² = I, XZ = -ZX
        assert!((x * x).approx_eq(&Matrix2::identity(), TOL));
        assert!((z * z).approx_eq(&Matrix2::identity(), TOL));
        assert!((x * z).approx_eq(&(z * x).scale(C64::real(-1.0)), TOL));
    }

    #[test]
    fn determinant_of_paulis() {
        assert!(pauli_x().det().approx_eq(C64::real(-1.0), TOL));
        assert!(pauli_z().det().approx_eq(C64::real(-1.0), TOL));
        assert!(Matrix2::identity().det().approx_eq(ONE, TOL));
    }

    #[test]
    fn kron_of_identities_is_identity() {
        let id4 = Matrix2::identity().kron(&Matrix2::identity());
        assert!(id4.approx_eq(&Matrix4::identity(), TOL));
    }

    #[test]
    fn kron_ordering_convention() {
        // Z ⊗ I must act on the most significant (left) qubit.
        let zi = pauli_z().kron(&Matrix2::identity());
        assert!(zi[(0, 0)].approx_eq(ONE, TOL));
        assert!(zi[(1, 1)].approx_eq(ONE, TOL));
        assert!(zi[(2, 2)].approx_eq(-ONE, TOL));
        assert!(zi[(3, 3)].approx_eq(-ONE, TOL));
    }

    #[test]
    fn det4_multiplicative() {
        let a = pauli_x().kron(&pauli_z());
        let b = pauli_z().kron(&pauli_x());
        let lhs = (a * b).det();
        let rhs = a.det() * b.det();
        assert!(lhs.approx_eq(rhs, 1e-10));
    }

    #[test]
    fn adjoint_reverses_products() {
        let a = pauli_x().kron(&pauli_z());
        let b = Matrix2::identity().kron(&pauli_x());
        assert!(((a * b).adjoint()).approx_eq(&(b.adjoint() * a.adjoint()), TOL));
    }

    #[test]
    fn unitarity_checks() {
        assert!(pauli_x().is_unitary(TOL));
        assert!(pauli_x().kron(&pauli_z()).is_unitary(TOL));
        let not_unitary = Matrix2::new([[ONE, ONE], [ZERO, ONE]]);
        assert!(!not_unitary.is_unitary(TOL));
    }

    #[test]
    fn phase_equality() {
        let a = pauli_x();
        let b = pauli_x().scale(I);
        assert!(a.approx_eq_up_to_phase(&b, TOL));
        assert!(!a.approx_eq(&b, TOL));
    }

    #[test]
    fn trace_linearity() {
        let a = pauli_x().kron(&pauli_z());
        let b = Matrix4::identity();
        assert!((a + b).trace().approx_eq(a.trace() + b.trace(), TOL));
    }

    #[test]
    fn hs_inner_of_identity() {
        let id = Matrix4::identity();
        assert!(id.hs_inner(&id).approx_eq(C64::real(4.0), TOL));
    }
}
