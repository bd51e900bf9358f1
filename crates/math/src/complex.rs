//! A minimal, dependency-free complex number type.
//!
//! The crate deliberately avoids external linear-algebra dependencies; all
//! numerics needed by the co-design study operate on 2×2 and 4×4 complex
//! matrices, for which a hand-rolled implementation is both simpler to audit
//! and faster to compile.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A double-precision complex number.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct C64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

/// The additive identity, `0 + 0i`.
pub const ZERO: C64 = C64 { re: 0.0, im: 0.0 };
/// The multiplicative identity, `1 + 0i`.
pub const ONE: C64 = C64 { re: 1.0, im: 0.0 };
/// The imaginary unit, `0 + 1i`.
pub const I: C64 = C64 { re: 0.0, im: 1.0 };

impl C64 {
    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn real(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// Creates a purely imaginary complex number.
    #[inline]
    pub const fn imag(im: f64) -> Self {
        Self { re: 0.0, im }
    }

    /// Returns `e^{iθ} = cos θ + i sin θ`.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Self {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Self {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared magnitude `|z|²`.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Argument (phase angle) in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse. Returns NaNs when `self` is zero.
    #[inline]
    pub fn inv(self) -> Self {
        let d = self.norm_sqr();
        Self {
            re: self.re / d,
            im: -self.im / d,
        }
    }

    /// Principal square root.
    pub fn sqrt(self) -> Self {
        let r = self.abs();
        let theta = self.arg();
        Self::cis(theta / 2.0) * r.sqrt()
    }

    /// Principal `n`-th root (`z^{1/n}`).
    pub fn nth_root(self, n: u32) -> Self {
        let r = self.abs().powf(1.0 / f64::from(n));
        let theta = self.arg() / f64::from(n);
        Self::cis(theta) * r
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Self {
            re: self.re * k,
            im: self.im * k,
        }
    }

    /// Returns `true` when both parts are within `tol` of `other`'s.
    #[inline]
    pub fn approx_eq(self, other: Self, tol: f64) -> bool {
        (self.re - other.re).abs() <= tol && (self.im - other.im).abs() <= tol
    }

    /// Returns `true` when both parts are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl fmt::Display for C64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{:.6}+{:.6}i", self.re, self.im)
        } else {
            write!(f, "{:.6}-{:.6}i", self.re, -self.im)
        }
    }
}

impl From<f64> for C64 {
    fn from(re: f64) -> Self {
        Self::real(re)
    }
}

impl Add for C64 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self {
            re: self.re + rhs.re,
            im: self.im + rhs.im,
        }
    }
}

impl Sub for C64 {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self {
            re: self.re - rhs.re,
            im: self.im - rhs.im,
        }
    }
}

impl Mul for C64 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

impl Mul<f64> for C64 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: f64) -> Self {
        self.scale(rhs)
    }
}

impl Mul<C64> for f64 {
    type Output = C64;
    #[inline]
    fn mul(self, rhs: C64) -> C64 {
        rhs.scale(self)
    }
}

impl Div for C64 {
    type Output = Self;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // z / w = z * w⁻¹
    fn div(self, rhs: Self) -> Self {
        self * rhs.inv()
    }
}

impl Div<f64> for C64 {
    type Output = Self;
    #[inline]
    fn div(self, rhs: f64) -> Self {
        Self {
            re: self.re / rhs,
            im: self.im / rhs,
        }
    }
}

impl Neg for C64 {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self {
            re: -self.re,
            im: -self.im,
        }
    }
}

impl AddAssign for C64 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl SubAssign for C64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl MulAssign for C64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Sum for C64 {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-12;

    #[test]
    fn arithmetic_identities() {
        let z = C64::new(3.0, -4.0);
        assert!((z + ZERO).approx_eq(z, TOL));
        assert!((z * ONE).approx_eq(z, TOL));
        assert!((z - z).approx_eq(ZERO, TOL));
        assert!((z * z.inv()).approx_eq(ONE, TOL));
        assert!((z / z).approx_eq(ONE, TOL));
    }

    #[test]
    fn magnitude_and_phase() {
        let z = C64::new(3.0, 4.0);
        assert!((z.abs() - 5.0).abs() < TOL);
        assert!((z.norm_sqr() - 25.0).abs() < TOL);
        let w = C64::cis(std::f64::consts::FRAC_PI_2);
        assert!(w.approx_eq(I, TOL));
        assert!((w.arg() - std::f64::consts::FRAC_PI_2).abs() < TOL);
    }

    #[test]
    fn conjugation_and_roots() {
        let z = C64::new(1.0, 2.0);
        assert!((z * z.conj()).approx_eq(C64::real(z.norm_sqr()), TOL));
        let s = z.sqrt();
        assert!((s * s).approx_eq(z, 1e-10));
        let r = z.nth_root(4);
        assert!((r * r * r * r).approx_eq(z, 1e-10));
    }

    #[test]
    fn i_squares_to_minus_one() {
        assert!((I * I).approx_eq(-ONE, TOL));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(format!("{}", C64::new(1.0, -1.0)), "1.000000-1.000000i");
        assert_eq!(format!("{}", C64::new(1.0, 1.0)), "1.000000+1.000000i");
    }
}
