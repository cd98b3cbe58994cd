//! Scalar root finding: bisection, Brent's method, safeguarded Newton, and
//! bracket expansion.
//!
//! These are used to invert the closed-form second-order step response for
//! *exact* 50% delay and 10–90% rise-time computation (against which the
//! paper's fitted formulas, eqs. (33)–(34), are validated).

use crate::NumericError;

/// Finds a root of `f` on `[a, b]` by bisection.
///
/// Robust but linear-rate; prefer [`brent`] unless you need the absolute
/// predictability of bisection.
///
/// # Errors
///
/// Returns [`NumericError::NoSignChange`] if `f(a)` and `f(b)` have the same
/// sign, and [`NumericError::NoConvergence`] if the interval does not shrink
/// below `tol` within `max_iter` iterations.
///
/// # Examples
///
/// ```
/// use rlc_numeric::roots::bisect;
/// let root = bisect(|x| x * x - 2.0, 0.0, 2.0, 1e-12, 100)?;
/// assert!((root - 2f64.sqrt()).abs() < 1e-10);
/// # Ok::<(), rlc_numeric::NumericError>(())
/// ```
pub fn bisect<F: FnMut(f64) -> f64>(
    mut f: F,
    mut a: f64,
    mut b: f64,
    tol: f64,
    max_iter: usize,
) -> Result<f64, NumericError> {
    let mut fa = f(a);
    let fb = f(b);
    if fa == 0.0 {
        return Ok(a);
    }
    if fb == 0.0 {
        return Ok(b);
    }
    if fa.signum() == fb.signum() {
        return Err(NumericError::NoSignChange { a, b });
    }
    for _ in 0..max_iter {
        let mid = 0.5 * (a + b);
        let fm = f(mid);
        if fm == 0.0 || (b - a).abs() < tol {
            return Ok(mid);
        }
        if fm.signum() == fa.signum() {
            a = mid;
            fa = fm;
        } else {
            b = mid;
        }
    }
    Err(NumericError::NoConvergence {
        iterations: max_iter,
    })
}

/// Finds a root of `f` on `[a, b]` using Brent's method
/// (inverse-quadratic/secant steps with a bisection safeguard).
///
/// # Errors
///
/// Returns [`NumericError::NoSignChange`] if `f(a)` and `f(b)` have the same
/// sign, and [`NumericError::NoConvergence`] if `max_iter` is exhausted.
///
/// # Examples
///
/// ```
/// use rlc_numeric::roots::brent;
/// let root = brent(|x| x.cos() - x, 0.0, 1.0, 1e-14, 100)?;
/// assert!((root.cos() - root).abs() < 1e-12);
/// # Ok::<(), rlc_numeric::NumericError>(())
/// ```
pub fn brent<F: FnMut(f64) -> f64>(
    mut f: F,
    a: f64,
    b: f64,
    tol: f64,
    max_iter: usize,
) -> Result<f64, NumericError> {
    let (mut a, mut b) = (a, b);
    let mut fa = f(a);
    let mut fb = f(b);
    if fa == 0.0 {
        return Ok(a);
    }
    if fb == 0.0 {
        return Ok(b);
    }
    if fa.signum() == fb.signum() {
        return Err(NumericError::NoSignChange { a, b });
    }
    if fa.abs() < fb.abs() {
        core::mem::swap(&mut a, &mut b);
        core::mem::swap(&mut fa, &mut fb);
    }
    let mut c = a;
    let mut fc = fa;
    let mut d = b - a;
    let mut mflag = true;

    for _ in 0..max_iter {
        if fb == 0.0 || (b - a).abs() < tol {
            return Ok(b);
        }
        let mut s = if fa != fc && fb != fc {
            // Inverse quadratic interpolation.
            a * fb * fc / ((fa - fb) * (fa - fc))
                + b * fa * fc / ((fb - fa) * (fb - fc))
                + c * fa * fb / ((fc - fa) * (fc - fb))
        } else {
            // Secant.
            b - fb * (b - a) / (fb - fa)
        };

        let lo = (3.0 * a + b) / 4.0;
        let (lo, hi) = if lo < b { (lo, b) } else { (b, lo) };
        let cond_bad_range = s <= lo || s >= hi;
        let cond_small_step = if mflag {
            (s - b).abs() >= (b - c).abs() / 2.0
        } else {
            (s - b).abs() >= (c - d).abs() / 2.0
        };
        let cond_tiny_interval = if mflag {
            (b - c).abs() < tol
        } else {
            (c - d).abs() < tol
        };
        if cond_bad_range || cond_small_step || cond_tiny_interval {
            s = 0.5 * (a + b);
            mflag = true;
        } else {
            mflag = false;
        }

        let fs = f(s);
        d = c;
        c = b;
        fc = fb;
        if fa.signum() != fs.signum() {
            b = s;
            fb = fs;
        } else {
            a = s;
            fa = fs;
        }
        if fa.abs() < fb.abs() {
            core::mem::swap(&mut a, &mut b);
            core::mem::swap(&mut fa, &mut fb);
        }
    }
    Err(NumericError::NoConvergence {
        iterations: max_iter,
    })
}

/// Newton's method safeguarded by a bracketing interval.
///
/// Takes Newton steps from `x0` using the derivative supplied by `df`, but
/// falls back to bisection on `[a, b]` whenever a step leaves the bracket or
/// the derivative is too small. The bracket is maintained using the sign of
/// `f`, so the method is globally convergent on a sign-changing bracket while
/// retaining Newton's quadratic local rate.
///
/// # Errors
///
/// Returns [`NumericError::NoSignChange`] if `[a, b]` does not bracket a
/// root, and [`NumericError::NoConvergence`] if `max_iter` is exhausted.
///
/// # Examples
///
/// ```
/// use rlc_numeric::roots::newton_bracketed;
/// // Solve x³ = 5 starting from a poor guess.
/// let root = newton_bracketed(|x| x * x * x - 5.0, |x| 3.0 * x * x, 0.1, 0.0, 5.0, 1e-14, 100)?;
/// assert!((root - 5f64.cbrt()).abs() < 1e-12);
/// # Ok::<(), rlc_numeric::NumericError>(())
/// ```
#[allow(
    clippy::too_many_arguments,
    reason = "the bracket, tolerances and iteration cap are all independent knobs"
)]
pub fn newton_bracketed<F, D>(
    mut f: F,
    mut df: D,
    x0: f64,
    a: f64,
    b: f64,
    tol: f64,
    max_iter: usize,
) -> Result<f64, NumericError>
where
    F: FnMut(f64) -> f64,
    D: FnMut(f64) -> f64,
{
    let (mut lo, mut hi) = (a, b);
    let flo = f(lo);
    let fhi = f(hi);
    if flo == 0.0 {
        return Ok(lo);
    }
    if fhi == 0.0 {
        return Ok(hi);
    }
    if flo.signum() == fhi.signum() {
        return Err(NumericError::NoSignChange { a, b });
    }
    let mut x = x0.clamp(lo.min(hi), lo.max(hi));
    for _ in 0..max_iter {
        let fx = f(x);
        if fx == 0.0 {
            return Ok(x);
        }
        // Maintain the bracket.
        if fx.signum() == flo.signum() {
            lo = x;
        } else {
            hi = x;
        }
        if (hi - lo).abs() < tol {
            return Ok(0.5 * (lo + hi));
        }
        let dfx = df(x);
        let newton = if dfx != 0.0 { x - fx / dfx } else { f64::NAN };
        let (bmin, bmax) = (lo.min(hi), lo.max(hi));
        x = if newton.is_finite() && newton > bmin && newton < bmax {
            newton
        } else {
            0.5 * (lo + hi)
        };
    }
    Err(NumericError::NoConvergence {
        iterations: max_iter,
    })
}

/// Expands `[a, b]` geometrically to the right until `f` changes sign.
///
/// Useful when only a lower bound on the root is known (e.g. searching for
/// the first time a rising waveform crosses a threshold). Returns the
/// bracketing interval.
///
/// # Errors
///
/// Returns [`NumericError::NoConvergence`] if no sign change is found within
/// `max_doublings` interval doublings.
///
/// # Examples
///
/// ```
/// use rlc_numeric::roots::{expand_bracket_right, brent};
/// let f = |t: f64| 1.0 - (-0.1 * t).exp() - 0.9; // crosses zero near t ≈ 23
/// let (a, b) = expand_bracket_right(f, 0.0, 1.0, 60)?;
/// let root = brent(f, a, b, 1e-12, 200)?;
/// assert!((root - 23.025850929940457).abs() < 1e-6);
/// # Ok::<(), rlc_numeric::NumericError>(())
/// ```
pub fn expand_bracket_right<F: FnMut(f64) -> f64>(
    mut f: F,
    a: f64,
    initial_width: f64,
    max_doublings: usize,
) -> Result<(f64, f64), NumericError> {
    let fa = f(a);
    if fa == 0.0 {
        return Ok((a, a));
    }
    let mut width = initial_width;
    let mut lo = a;
    let mut flo = fa;
    for _ in 0..max_doublings {
        let hi = lo + width;
        let fhi = f(hi);
        if fhi == 0.0 || fhi.signum() != flo.signum() {
            return Ok((lo, hi));
        }
        lo = hi;
        flo = fhi;
        width *= 2.0;
    }
    Err(NumericError::NoConvergence {
        iterations: max_doublings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bisect_sqrt2() {
        let r = bisect(|x| x * x - 2.0, 0.0, 2.0, 1e-13, 200).unwrap();
        assert!((r - std::f64::consts::SQRT_2).abs() < 1e-10);
    }

    #[test]
    fn bisect_endpoint_roots() {
        assert_eq!(bisect(|x| x, 0.0, 1.0, 1e-12, 10).unwrap(), 0.0);
        assert_eq!(bisect(|x| x - 1.0, 0.0, 1.0, 1e-12, 10).unwrap(), 1.0);
    }

    #[test]
    fn bisect_rejects_same_sign() {
        let err = bisect(|x| x * x + 1.0, -1.0, 1.0, 1e-12, 100).unwrap_err();
        assert!(matches!(err, NumericError::NoSignChange { .. }));
    }

    #[test]
    fn brent_transcendental() {
        let r = brent(|x| x.exp() - 3.0, 0.0, 2.0, 1e-14, 100).unwrap();
        assert!((r - 3f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn brent_handles_flat_regions() {
        // A function that is nearly flat near the left endpoint.
        let f = |x: f64| (x - 1.0).powi(3);
        let r = brent(f, -5.0, 4.0, 1e-13, 200).unwrap();
        assert!((r - 1.0).abs() < 1e-4);
    }

    #[test]
    fn brent_rejects_same_sign() {
        assert!(matches!(
            brent(|x| x * x + 1.0, -1.0, 1.0, 1e-12, 100),
            Err(NumericError::NoSignChange { .. })
        ));
    }

    #[test]
    fn newton_quadratic_convergence() {
        let mut evals = 0usize;
        let r = newton_bracketed(
            |x| {
                evals += 1;
                x * x - 2.0
            },
            |x| 2.0 * x,
            1.0,
            0.0,
            2.0,
            1e-14,
            100,
        )
        .unwrap();
        assert!((r - std::f64::consts::SQRT_2).abs() < 1e-12);
        assert!(
            evals < 12,
            "expected Newton-rate convergence, used {evals} evals"
        );
    }

    #[test]
    fn newton_survives_zero_derivative() {
        // df is zero at the starting point; must fall back to bisection.
        let r = newton_bracketed(
            |x| x * x * x - 1.0,
            |x| 3.0 * x * x,
            0.0,
            -1.0,
            2.0,
            1e-13,
            200,
        )
        .unwrap();
        assert!((r - 1.0).abs() < 1e-10);
    }

    #[test]
    fn newton_rejects_bad_bracket() {
        assert!(matches!(
            newton_bracketed(|x| x * x + 1.0, |x| 2.0 * x, 0.0, -1.0, 1.0, 1e-12, 50),
            Err(NumericError::NoSignChange { .. })
        ));
    }

    #[test]
    fn expand_bracket_finds_crossing() {
        let (a, b) = expand_bracket_right(|t| t - 100.0, 0.0, 1.0, 64).unwrap();
        assert!(a <= 100.0 && 100.0 <= b);
    }

    #[test]
    fn expand_bracket_gives_up() {
        assert!(matches!(
            expand_bracket_right(|_| 1.0, 0.0, 1.0, 8),
            Err(NumericError::NoConvergence { .. })
        ));
    }

    #[test]
    fn expand_then_brent_composes() {
        let f = |t: f64| 1.0 - (-t).exp() - 0.5;
        let (a, b) = expand_bracket_right(f, 0.0, 0.05, 64).unwrap();
        let r = brent(f, a, b, 1e-13, 100).unwrap();
        assert!((r - std::f64::consts::LN_2).abs() < 1e-10);
    }
}
