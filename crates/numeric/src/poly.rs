//! Dense real-coefficient polynomials and simultaneous root finding.
//!
//! Asymptotic waveform evaluation reduces an RLC tree to a `q`-pole model
//! whose poles are the roots of the Padé denominator polynomial. The degrees
//! involved are tiny (q ≤ 8), so the Aberth–Ehrlich simultaneous iteration —
//! simple, derivative-based, and cubically convergent — is an excellent fit.

use crate::{Complex64, NumericError};

/// A polynomial with real coefficients stored lowest-degree first.
///
/// `coeffs[k]` is the coefficient of `x^k`. The representation is kept
/// normalized: the leading coefficient is non-zero (except for the zero
/// polynomial which stores a single `0.0`).
///
/// # Examples
///
/// ```
/// use rlc_numeric::Polynomial;
///
/// // p(x) = x² − 3x + 2 = (x − 1)(x − 2)
/// let p = Polynomial::new(vec![2.0, -3.0, 1.0]);
/// assert_eq!(p.degree(), 2);
/// assert_eq!(p.eval(1.0), 0.0);
///
/// let mut roots: Vec<f64> = p.roots(1e-12, 200)?.iter().map(|z| z.re).collect();
/// roots.sort_by(f64::total_cmp);
/// assert!((roots[0] - 1.0).abs() < 1e-9 && (roots[1] - 2.0).abs() < 1e-9);
/// # Ok::<(), rlc_numeric::NumericError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Polynomial {
    coeffs: Vec<f64>,
}

impl Polynomial {
    /// Creates a polynomial from coefficients in ascending degree order.
    ///
    /// Trailing (leading-degree) zeros are trimmed so that `degree` is
    /// meaningful. An empty coefficient list denotes the zero polynomial.
    pub fn new(mut coeffs: Vec<f64>) -> Self {
        while coeffs.len() > 1 && coeffs.last() == Some(&0.0) {
            coeffs.pop();
        }
        if coeffs.is_empty() {
            coeffs.push(0.0);
        }
        Self { coeffs }
    }

    /// Builds the monic polynomial with the given roots: `Π (x − rᵢ)`.
    ///
    /// Complex roots must come in conjugate pairs for the result to be real;
    /// the imaginary residue from pairing is discarded.
    ///
    /// # Examples
    ///
    /// ```
    /// use rlc_numeric::{Complex64, Polynomial};
    /// let p = Polynomial::from_roots(&[Complex64::from_real(1.0), Complex64::from_real(-2.0)]);
    /// // (x − 1)(x + 2) = x² + x − 2
    /// assert_eq!(p.coeffs(), &[-2.0, 1.0, 1.0]);
    /// ```
    pub fn from_roots(roots: &[Complex64]) -> Self {
        let mut c = vec![Complex64::ONE];
        for &r in roots {
            let mut next = vec![Complex64::ZERO; c.len() + 1];
            for (k, &ck) in c.iter().enumerate() {
                next[k + 1] += ck;
                next[k] -= ck * r;
            }
            c = next;
        }
        Self::new(c.into_iter().map(|z| z.re).collect())
    }

    /// The coefficients in ascending degree order.
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// The degree (0 for constants, including the zero polynomial).
    pub fn degree(&self) -> usize {
        self.coeffs.len() - 1
    }

    /// Returns `true` if this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.coeffs == [0.0]
    }

    /// Evaluates at a real point by Horner's rule.
    pub fn eval(&self, x: f64) -> f64 {
        self.coeffs.iter().rev().fold(0.0, |acc, &c| acc * x + c)
    }

    /// Evaluates at a complex point by Horner's rule.
    pub fn eval_complex(&self, z: Complex64) -> Complex64 {
        self.coeffs
            .iter()
            .rev()
            .fold(Complex64::ZERO, |acc, &c| acc * z + Complex64::from_real(c))
    }

    /// Returns the derivative polynomial.
    ///
    /// # Examples
    ///
    /// ```
    /// use rlc_numeric::Polynomial;
    /// let p = Polynomial::new(vec![1.0, 2.0, 3.0]); // 1 + 2x + 3x²
    /// assert_eq!(p.derivative().coeffs(), &[2.0, 6.0]);
    /// ```
    pub fn derivative(&self) -> Self {
        if self.degree() == 0 {
            return Self::new(vec![0.0]);
        }
        Self::new(
            self.coeffs
                .iter()
                .enumerate()
                .skip(1)
                .map(|(k, &c)| k as f64 * c)
                .collect(),
        )
    }

    /// Finds all complex roots by the Aberth–Ehrlich simultaneous iteration.
    ///
    /// Converges for the small, well-separated-root polynomials produced by
    /// Padé denominators. Roots are returned in no particular order;
    /// conjugate symmetry is preserved to within `tol`.
    ///
    /// # Errors
    ///
    /// * [`NumericError::Degenerate`] for the zero polynomial.
    /// * [`NumericError::NoConvergence`] if `max_iter` is exhausted before
    ///   every approximation stabilizes to `tol`.
    pub fn roots(&self, tol: f64, max_iter: usize) -> Result<Vec<Complex64>, NumericError> {
        if self.is_zero() {
            return Err(NumericError::Degenerate {
                context: "roots of the zero polynomial",
            });
        }
        let n = self.degree();
        if n == 0 {
            return Ok(Vec::new());
        }
        if n == 1 {
            // c0 + c1 x = 0
            return Ok(vec![Complex64::from_real(-self.coeffs[0] / self.coeffs[1])]);
        }
        if n == 2 {
            return Ok(quadratic_roots(self.coeffs[0], self.coeffs[1], self.coeffs[2]).to_vec());
        }

        // Initial guesses: points on a circle of radius set by the Cauchy
        // bound, slightly perturbed off the real axis and off symmetry.
        let lead = self.coeffs[n];
        let radius = 1.0
            + self
                .coeffs
                .iter()
                .take(n)
                .map(|c| (c / lead).abs())
                .fold(0.0f64, f64::max);
        let mut z: Vec<Complex64> = (0..n)
            .map(|k| {
                let theta = 2.0 * core::f64::consts::PI * (k as f64 + 0.25) / n as f64 + 0.5;
                Complex64::new(radius * theta.cos(), radius * theta.sin())
            })
            .collect();

        let deriv = self.derivative();
        for _ in 0..max_iter {
            let mut converged = true;
            for i in 0..n {
                let p = self.eval_complex(z[i]);
                let dp = deriv.eval_complex(z[i]);
                if p.norm() <= tol * (1.0 + z[i].norm()) {
                    continue;
                }
                let newton = if dp.norm_sqr() > 0.0 {
                    p / dp
                } else {
                    Complex64::new(tol.max(1e-300), tol.max(1e-300))
                };
                let mut repulsion = Complex64::ZERO;
                for (j, &zj) in z.iter().enumerate() {
                    if j != i {
                        let diff = z[i] - zj;
                        if diff.norm_sqr() > 0.0 {
                            repulsion += diff.recip();
                        }
                    }
                }
                let denom = Complex64::ONE - newton * repulsion;
                let step = if denom.norm_sqr() > 0.0 {
                    newton / denom
                } else {
                    newton
                };
                z[i] -= step;
                if step.norm() > tol * (1.0 + z[i].norm()) {
                    converged = false;
                }
            }
            if converged {
                return Ok(z);
            }
        }
        Err(NumericError::NoConvergence {
            iterations: max_iter,
        })
    }
}

/// Roots of `c + b x + a x²` (both of them, as complex numbers), computed
/// with the numerically stable citardauq/quadratic split.
///
/// # Panics
///
/// Panics if `a == 0` (not a quadratic).
pub fn quadratic_roots(c: f64, b: f64, a: f64) -> [Complex64; 2] {
    assert!(a != 0.0, "leading coefficient must be non-zero");
    let disc = b * b - 4.0 * a * c;
    if disc >= 0.0 {
        let sq = disc.sqrt();
        // Avoid cancellation: compute the larger-magnitude root first.
        let q = -0.5 * (b + sq.copysign(b));
        let r1 = if q != 0.0 { c / q } else { 0.0 };
        let r2 = q / a;
        [Complex64::from_real(r1), Complex64::from_real(r2)]
    } else {
        let sq = (-disc).sqrt();
        let re = -b / (2.0 * a);
        let im = sq / (2.0 * a);
        [Complex64::new(re, im), Complex64::new(re, -im)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted_real_roots(p: &Polynomial) -> Vec<f64> {
        let mut r: Vec<f64> = p.roots(1e-12, 500).unwrap().iter().map(|z| z.re).collect();
        r.sort_by(f64::total_cmp);
        r
    }

    #[test]
    fn construction_trims_leading_zeros() {
        let p = Polynomial::new(vec![1.0, 2.0, 0.0, 0.0]);
        assert_eq!(p.degree(), 1);
        assert_eq!(p.coeffs(), &[1.0, 2.0]);
        let z = Polynomial::new(vec![]);
        assert!(z.is_zero());
        assert_eq!(z.degree(), 0);
    }

    #[test]
    fn eval_horner() {
        let p = Polynomial::new(vec![1.0, -2.0, 3.0]); // 1 − 2x + 3x²
        assert_eq!(p.eval(0.0), 1.0);
        assert_eq!(p.eval(2.0), 9.0);
        let z = p.eval_complex(Complex64::I); // 1 − 2i − 3
        assert_eq!(z, Complex64::new(-2.0, -2.0));
    }

    #[test]
    fn derivative_rules() {
        let p = Polynomial::new(vec![5.0]); // constant
        assert_eq!(p.derivative().coeffs(), &[0.0]);
        let p = Polynomial::new(vec![0.0, 0.0, 0.0, 4.0]); // 4x³
        assert_eq!(p.derivative().coeffs(), &[0.0, 0.0, 12.0]);
    }

    #[test]
    fn linear_root() {
        let p = Polynomial::new(vec![-6.0, 2.0]); // 2x − 6
        let r = p.roots(1e-12, 10).unwrap();
        assert_eq!(r.len(), 1);
        assert!((r[0].re - 3.0).abs() < 1e-14 && r[0].im == 0.0);
    }

    #[test]
    fn quadratic_real_and_complex() {
        let [r1, r2] = quadratic_roots(2.0, -3.0, 1.0); // (x−1)(x−2)
        let mut v = [r1.re, r2.re];
        v.sort_by(f64::total_cmp);
        assert!((v[0] - 1.0).abs() < 1e-14 && (v[1] - 2.0).abs() < 1e-14);

        let [c1, c2] = quadratic_roots(1.0, 0.0, 1.0); // x² + 1
        assert!((c1.im.abs() - 1.0).abs() < 1e-14);
        assert_eq!(c1.re, 0.0);
        assert_eq!(c1, c2.conj());
    }

    #[test]
    fn quadratic_avoids_cancellation() {
        // x² − 1e8 x + 1: roots ~1e8 and ~1e-8.
        let [r1, r2] = quadratic_roots(1.0, -1e8, 1.0);
        let (small, big) = if r1.re < r2.re {
            (r1.re, r2.re)
        } else {
            (r2.re, r1.re)
        };
        assert!((big - 1e8).abs() / 1e8 < 1e-12);
        assert!((small - 1e-8).abs() / 1e-8 < 1e-6);
    }

    #[test]
    #[should_panic(expected = "leading coefficient")]
    fn quadratic_rejects_degenerate() {
        let _ = quadratic_roots(1.0, 1.0, 0.0);
    }

    #[test]
    fn cubic_real_roots() {
        // (x−1)(x−2)(x−4) = x³ −7x² +14x −8
        let p = Polynomial::new(vec![-8.0, 14.0, -7.0, 1.0]);
        let r = sorted_real_roots(&p);
        assert!((r[0] - 1.0).abs() < 1e-8);
        assert!((r[1] - 2.0).abs() < 1e-8);
        assert!((r[2] - 4.0).abs() < 1e-8);
    }

    #[test]
    fn quartic_complex_pairs() {
        // (x² + 1)(x² + 4) — all roots purely imaginary.
        let p = Polynomial::new(vec![4.0, 0.0, 5.0, 0.0, 1.0]);
        let mut roots = p.roots(1e-12, 500).unwrap();
        roots.sort_by(|a, b| a.im.total_cmp(&b.im));
        for z in &roots {
            assert!(z.re.abs() < 1e-8, "expected purely imaginary, got {z}");
        }
        let ims: Vec<f64> = roots.iter().map(|z| z.im).collect();
        assert!((ims[0] + 2.0).abs() < 1e-8);
        assert!((ims[1] + 1.0).abs() < 1e-8);
        assert!((ims[2] - 1.0).abs() < 1e-8);
        assert!((ims[3] - 2.0).abs() < 1e-8);
    }

    #[test]
    fn from_roots_round_trips() {
        let roots = [
            Complex64::from_real(-1.0),
            Complex64::new(-2.0, 3.0),
            Complex64::new(-2.0, -3.0),
        ];
        let p = Polynomial::from_roots(&roots);
        assert_eq!(p.degree(), 3);
        for &r in &roots {
            assert!(p.eval_complex(r).norm() < 1e-12);
        }
        // Recover them.
        let rec = p.roots(1e-12, 500).unwrap();
        for &orig in &roots {
            assert!(
                rec.iter().any(|z| (*z - orig).norm() < 1e-7),
                "missing root {orig}"
            );
        }
    }

    #[test]
    fn widely_separated_poles_like_awe() {
        // Time constants spanning 3 decades, as Padé denominators produce.
        let roots = [
            Complex64::from_real(-1.0),
            Complex64::from_real(-31.0),
            Complex64::from_real(-950.0),
        ];
        let p = Polynomial::from_roots(&roots);
        let rec = sorted_real_roots(&p);
        assert!((rec[0] + 950.0).abs() / 950.0 < 1e-6);
        assert!((rec[1] + 31.0).abs() / 31.0 < 1e-8);
        assert!((rec[2] + 1.0).abs() < 1e-8);
    }

    #[test]
    fn zero_polynomial_roots_error() {
        let z = Polynomial::new(vec![0.0]);
        assert!(matches!(
            z.roots(1e-12, 10),
            Err(NumericError::Degenerate { .. })
        ));
    }

    #[test]
    fn constant_polynomial_has_no_roots() {
        let p = Polynomial::new(vec![3.0]);
        assert!(p.roots(1e-12, 10).unwrap().is_empty());
    }

    #[test]
    fn repeated_roots_converge_approximately() {
        // (x+1)²(x+3): repeated roots converge slower & less accurately —
        // accept a looser tolerance.
        let p = Polynomial::new(vec![3.0, 7.0, 5.0, 1.0]);
        let r = sorted_real_roots(&p);
        assert!((r[0] + 3.0).abs() < 1e-5);
        assert!((r[1] + 1.0).abs() < 1e-4);
        assert!((r[2] + 1.0).abs() < 1e-4);
    }
}
