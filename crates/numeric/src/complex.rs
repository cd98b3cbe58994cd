//! A minimal double-precision complex number.
//!
//! The workspace needs complex arithmetic only for pole/residue algebra in
//! reduced-order models, so a small hand-rolled type is preferable to an
//! external dependency.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
///
/// # Examples
///
/// ```
/// use rlc_numeric::Complex64;
///
/// let i = Complex64::I;
/// assert_eq!(i * i, Complex64::new(-1.0, 0.0));
///
/// let z = Complex64::new(3.0, 4.0);
/// assert_eq!(z.norm(), 5.0);
/// assert_eq!(z.conj(), Complex64::new(3.0, -4.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// The additive identity `0 + 0i`.
    pub const ZERO: Self = Self { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0i`.
    pub const ONE: Self = Self { re: 1.0, im: 0.0 };
    /// The imaginary unit `0 + 1i`.
    pub const I: Self = Self { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_real(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }

    /// Modulus `|z|`.
    #[inline]
    pub fn norm(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared modulus `|z|²` (cheaper than [`norm`](Self::norm)).
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Argument (phase angle) in radians.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse `1/z`.
    #[inline]
    pub fn recip(self) -> Self {
        let d = self.norm_sqr();
        Self::new(self.re / d, -self.im / d)
    }

    /// Complex exponential `e^z`.
    ///
    /// # Examples
    ///
    /// ```
    /// use rlc_numeric::Complex64;
    /// use std::f64::consts::PI;
    ///
    /// // Euler: e^{iπ} = −1
    /// let z = (Complex64::I * PI).exp();
    /// assert!((z.re + 1.0).abs() < 1e-15 && z.im.abs() < 1e-15);
    /// ```
    #[inline]
    pub fn exp(self) -> Self {
        let r = self.re.exp();
        Self::new(r * self.im.cos(), r * self.im.sin())
    }

    /// Principal square root.
    #[inline]
    pub fn sqrt(self) -> Self {
        if self.re == 0.0 && self.im == 0.0 {
            return Self::ZERO;
        }
        let r = self.norm();
        let re = ((r + self.re) / 2.0).sqrt();
        let im = ((r - self.re) / 2.0).sqrt().copysign(self.im);
        Self::new(re, im)
    }

    /// Returns `true` if both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Raises to an integer power by repeated squaring.
    pub fn powi(self, mut n: i32) -> Self {
        if n == 0 {
            return Self::ONE;
        }
        let mut base = if n < 0 { self.recip() } else { self };
        if n < 0 {
            n = -n;
        }
        let mut acc = Self::ONE;
        while n > 0 {
            if n & 1 == 1 {
                acc *= base;
            }
            base *= base;
            n >>= 1;
        }
        acc
    }
}

impl Add for Complex64 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl Sub for Complex64 {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl Mul for Complex64 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Div for Complex64 {
    type Output = Self;
    #[inline]
    #[allow(
        clippy::suspicious_arithmetic_impl,
        reason = "z/w = z·w⁻¹ by definition"
    )]
    fn div(self, rhs: Self) -> Self {
        self * rhs.recip()
    }
}

impl Neg for Complex64 {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self::new(-self.re, -self.im)
    }
}

impl Mul<f64> for Complex64 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: f64) -> Self {
        Self::new(self.re * rhs, self.im * rhs)
    }
}

impl Mul<Complex64> for f64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        rhs * self
    }
}

impl Div<f64> for Complex64 {
    type Output = Self;
    #[inline]
    fn div(self, rhs: f64) -> Self {
        Self::new(self.re / rhs, self.im / rhs)
    }
}

impl From<f64> for Complex64 {
    #[inline]
    fn from(re: f64) -> Self {
        Self::from_real(re)
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |acc, z| acc + z)
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn close(a: Complex64, b: Complex64, tol: f64) -> bool {
        (a - b).norm() <= tol
    }

    #[test]
    fn basic_arithmetic() {
        let a = Complex64::new(1.0, 2.0);
        let b = Complex64::new(3.0, -1.0);
        assert_eq!(a + b, Complex64::new(4.0, 1.0));
        assert_eq!(a - b, Complex64::new(-2.0, 3.0));
        assert_eq!(a * b, Complex64::new(5.0, 5.0));
        assert!(close(a / b * b, a, 1e-15));
        assert_eq!(-a, Complex64::new(-1.0, -2.0));
    }

    #[test]
    fn scalar_ops() {
        let a = Complex64::new(1.0, 2.0);
        assert_eq!(a * 2.0, Complex64::new(2.0, 4.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(a / 2.0, Complex64::new(0.5, 1.0));
    }

    #[test]
    fn conj_and_norms() {
        let z = Complex64::new(3.0, 4.0);
        assert_eq!(z.norm(), 5.0);
        assert_eq!(z.norm_sqr(), 25.0);
        assert_eq!(z.conj().im, -4.0);
        assert!(close(z * z.conj(), Complex64::from_real(25.0), 1e-12));
    }

    #[test]
    fn recip_inverts() {
        let z = Complex64::new(-2.0, 7.0);
        assert!(close(z * z.recip(), Complex64::ONE, 1e-15));
    }

    #[test]
    fn exp_euler_identity() {
        let z = (Complex64::I * PI).exp();
        assert!(close(z, Complex64::from_real(-1.0), 1e-14));
        // exp of real argument matches f64::exp
        let r = Complex64::from_real(1.5).exp();
        assert!((r.re - 1.5f64.exp()).abs() < 1e-12 && r.im == 0.0);
    }

    #[test]
    fn sqrt_principal_branch() {
        let z = Complex64::new(-4.0, 0.0);
        let s = z.sqrt();
        assert!(close(s, Complex64::new(0.0, 2.0), 1e-15));
        assert!(close(s * s, z, 1e-12));
        // sqrt of a general value squares back
        let w = Complex64::new(1.0, -3.0);
        assert!(close(w.sqrt() * w.sqrt(), w, 1e-12));
        // principal branch has non-negative real part
        assert!(w.sqrt().re >= 0.0);
        assert_eq!(Complex64::ZERO.sqrt(), Complex64::ZERO);
    }

    #[test]
    fn powi_matches_repeated_multiplication() {
        let z = Complex64::new(1.2, -0.7);
        let mut acc = Complex64::ONE;
        for _ in 0..5 {
            acc *= z;
        }
        assert!(close(z.powi(5), acc, 1e-12));
        assert_eq!(z.powi(0), Complex64::ONE);
        assert!(close(z.powi(-2) * z.powi(2), Complex64::ONE, 1e-12));
    }

    #[test]
    fn arg_quadrants() {
        assert_eq!(Complex64::new(1.0, 0.0).arg(), 0.0);
        assert!((Complex64::new(0.0, 1.0).arg() - PI / 2.0).abs() < 1e-15);
        assert!((Complex64::new(-1.0, 0.0).arg() - PI).abs() < 1e-15);
    }

    #[test]
    fn sum_and_from() {
        let s: Complex64 = [Complex64::ONE, Complex64::I, Complex64::new(2.0, 3.0)]
            .into_iter()
            .sum();
        assert_eq!(s, Complex64::new(3.0, 4.0));
        let r: Complex64 = 2.5.into();
        assert_eq!(r, Complex64::from_real(2.5));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex64::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(Complex64::new(1.0, -2.0).to_string(), "1-2i");
    }

    #[test]
    fn finiteness() {
        assert!(Complex64::ONE.is_finite());
        assert!(!Complex64::new(f64::NAN, 0.0).is_finite());
        assert!(!Complex64::new(0.0, f64::INFINITY).is_finite());
    }
}
