//! The continuous curve-fit formulas for the scaled 50% delay and rise time
//! (paper eqs. 33–34), and the machinery to regenerate them.
//!
//! The paper characterizes the time-scaled 50% delay and 10–90% rise time as
//! one-variable functions of ζ (Fig. 6), then fits closed forms so the
//! metrics are cheap and continuous — the property optimization loops need.
//! For the 50% delay the published fit is
//!
//! ```text
//! t'_pd(ζ) = 1.047·e^{−ζ/0.85} + 1.39·ζ                       (eq. 33)
//! ```
//!
//! The constants of the rise-time fit (eq. 34) were lost from the available
//! text of the paper, so this crate regenerates the same three-term
//! functional form from the exact inversion (see [`refit_rise`]); the
//! regenerated constants are hard-coded in [`rise_time_scaled`] and verified
//! against the exact curve in the test suite. `DESIGN.md` documents this
//! substitution.
//!
//! Both fits reduce to the Elmore (Wyatt) values for large ζ: the
//! exponential terms vanish and the linear terms approach `2ζ·ln 2` and
//! `2ζ·ln 9` — the exact first-order limits — because `2ζ` is the scaled
//! Elmore time constant (paper eqs. 37–38).

use rlc_numeric::linalg::Matrix;

use crate::step;

/// Coefficient of ζ in the published 50% delay fit: close to `2·ln 2`.
const DELAY_LINEAR: f64 = 1.39;

/// The published eq. (33) fit for the scaled 50% delay.
///
/// Accuracy: within a few percent of the exact inversion for
/// `ζ ∈ [0.2, 10]`, matching the paper's accuracy claims; exact in the
/// large-ζ (Elmore) limit to within the fit's linear coefficient.
///
/// # Panics
///
/// Panics if `zeta` is not positive.
///
/// # Examples
///
/// ```
/// use eed::fitted::delay_50_scaled;
/// use eed::step::time_to_reach_scaled;
///
/// let fitted = delay_50_scaled(1.0);
/// let exact = time_to_reach_scaled(1.0, 0.5);
/// assert!((fitted - exact).abs() / exact < 0.04);
/// ```
pub fn delay_50_scaled(zeta: f64) -> f64 {
    assert!(zeta > 0.0, "damping factor must be positive, got {zeta}");
    1.047 * (-zeta / 0.85).exp() + DELAY_LINEAR * zeta
}

/// The eq. (34)-form fit for the scaled 10–90% rise time, with constants
/// regenerated by [`refit_rise`] (see module docs).
///
/// # Panics
///
/// Panics if `zeta` is not positive.
pub fn rise_time_scaled(zeta: f64) -> f64 {
    assert!(zeta > 0.0, "damping factor must be positive, got {zeta}");
    RISE_FIT.eval(zeta)
}

/// Regenerated rise-time fit constants (three-term eq. 34 form).
///
/// These are produced by running [`refit_rise`] over `ζ ∈ [0.2, 4]` and are
/// pinned here so the public function is deterministic and dependency-free;
/// the test suite re-derives them and asserts agreement.
pub const RISE_FIT: RiseFit = RiseFit {
    a1: 3.888_768_070_125_001,
    b1: 0.45,
    e1: 1.35,
    a2: -2.932_561_023_309_473,
    b2: 1.45,
    e2: 1.25,
    c: 4.394_449_154_672_439, // = 2·ln 9, the exact Elmore limit
};

/// A fitted 50% delay curve of the paper's eq. (33) form
/// `a·e^{−ζ/b} + c·ζ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayFit {
    /// Amplitude of the exponential correction term.
    pub a: f64,
    /// Decay constant of the exponential term.
    pub b: f64,
    /// Linear (Elmore-limit) coefficient.
    pub c: f64,
}

impl DelayFit {
    /// Evaluates the fit at ζ.
    pub fn eval(&self, zeta: f64) -> f64 {
        self.a * (-zeta / self.b).exp() + self.c * zeta
    }

    /// Maximum relative error of this fit against the exact inversion over
    /// the given ζ grid.
    pub fn max_relative_error(&self, zetas: &[f64]) -> f64 {
        zetas
            .iter()
            .map(|&z| {
                let exact = step::time_to_reach_scaled(z, 0.5);
                ((self.eval(z) - exact) / exact).abs()
            })
            .fold(0.0, f64::max)
    }
}

/// A fitted rise-time curve of the paper's eq. (34) three-term form
/// `a1·e^{−ζ^{e1}/b1} − a2·e^{−ζ^{e2}/b2}·sign + c·ζ`.
///
/// (`a2` is stored with its sign folded in, i.e. the curve is
/// `a1·e1term + a2·e2term + c·ζ` with possibly negative `a1`/`a2`.)
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RiseFit {
    /// Amplitude of the first exponential term.
    pub a1: f64,
    /// Decay constant of the first exponential term.
    pub b1: f64,
    /// ζ exponent inside the first exponential.
    pub e1: f64,
    /// Amplitude of the second exponential term.
    pub a2: f64,
    /// Decay constant of the second exponential term.
    pub b2: f64,
    /// ζ exponent inside the second exponential.
    pub e2: f64,
    /// Linear (Elmore-limit) coefficient.
    pub c: f64,
}

impl RiseFit {
    /// Evaluates the fit at ζ.
    pub fn eval(&self, zeta: f64) -> f64 {
        self.a1 * (-zeta.powf(self.e1) / self.b1).exp()
            + self.a2 * (-zeta.powf(self.e2) / self.b2).exp()
            + self.c * zeta
    }

    /// Maximum relative error against the exact 10–90% rise time over the
    /// given ζ grid.
    pub fn max_relative_error(&self, zetas: &[f64]) -> f64 {
        zetas
            .iter()
            .map(|&z| {
                let exact = exact_rise_scaled(z);
                ((self.eval(z) - exact) / exact).abs()
            })
            .fold(0.0, f64::max)
    }
}

/// Exact scaled 10–90% rise time via inversion of the step response.
pub fn exact_rise_scaled(zeta: f64) -> f64 {
    step::time_to_reach_scaled(zeta, 0.9) - step::time_to_reach_scaled(zeta, 0.1)
}

/// Refits the eq. (33) delay form from scratch: exact 50% delays are
/// computed on `zetas`, the nonlinear constant `b` is grid-searched, and
/// `(a, c)` solve the linear least-squares subproblem.
///
/// Reproduces the paper's Fig. 6 curve-fitting step.
///
/// # Panics
///
/// Panics if `zetas` has fewer than 3 points or contains non-positive
/// values.
pub fn refit_delay(zetas: &[f64]) -> DelayFit {
    assert!(zetas.len() >= 3, "need at least 3 fit points");
    let exact: Vec<f64> = zetas
        .iter()
        .map(|&z| step::time_to_reach_scaled(z, 0.5))
        .collect();
    let mut best = DelayFit {
        a: 1.0,
        b: 0.85,
        c: DELAY_LINEAR,
    };
    let mut best_err = f64::INFINITY;
    // Grid search b; LSQ for (a, c).
    let mut b = 0.2;
    while b <= 2.0 {
        let rows: Vec<Vec<f64>> = zetas.iter().map(|&z| vec![(-z / b).exp(), z]).collect();
        let row_refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let design = Matrix::from_rows(&row_refs).expect("well-formed design matrix");
        if let Ok(sol) = design.solve_least_squares(&exact) {
            let fit = DelayFit {
                a: sol[0],
                b,
                c: sol[1],
            };
            let err = fit.max_relative_error(zetas);
            if err < best_err {
                best_err = err;
                best = fit;
            }
        }
        b += 0.01;
    }
    best
}

/// Refits the eq. (34) rise-time form from scratch, grid-searching the two
/// decay constants (the ζ exponents are kept at the paper's 1.35/1.25) and
/// solving `(a1, a2, c)` by least squares.
///
/// # Panics
///
/// Panics if `zetas` has fewer than 4 points or contains non-positive
/// values.
pub fn refit_rise(zetas: &[f64]) -> RiseFit {
    assert!(zetas.len() >= 4, "need at least 4 fit points");
    let (e1, e2) = (1.35, 1.25);
    // Pin the linear coefficient to the exact Elmore limit 2·ln 9 (the
    // scaled first-order rise time is 2ζ·ln 9), so the fit is asymptotically
    // exact; only the two exponential amplitudes are solved by LSQ.
    let c = 2.0 * 9.0f64.ln();
    let residual: Vec<f64> = zetas
        .iter()
        .map(|&z| exact_rise_scaled(z) - c * z)
        .collect();
    let mut best = RISE_FIT;
    let mut best_err = f64::INFINITY;
    let mut b1: f64 = 0.2;
    while b1 <= 3.0 {
        let mut b2: f64 = 0.2;
        while b2 <= 3.0 {
            if (b1 - b2).abs() < 0.04 {
                // Nearly identical basis functions — skip the ill-conditioned
                // corner of the search space.
                b2 += 0.05;
                continue;
            }
            let rows: Vec<Vec<f64>> = zetas
                .iter()
                .map(|&z| vec![(-z.powf(e1) / b1).exp(), (-z.powf(e2) / b2).exp()])
                .collect();
            let row_refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
            let design = Matrix::from_rows(&row_refs).expect("well-formed design matrix");
            if let Ok(sol) = design.solve_least_squares(&residual) {
                let fit = RiseFit {
                    a1: sol[0],
                    b1,
                    e1,
                    a2: sol[1],
                    b2,
                    e2,
                    c,
                };
                let err = fit.max_relative_error(zetas);
                if err < best_err {
                    best_err = err;
                    best = fit;
                }
            }
            b2 += 0.05;
        }
        b1 += 0.05;
    }
    best
}

/// A standard ζ grid spanning the regimes of interest, used by Fig. 6 and
/// the refitting tests.
pub fn standard_zeta_grid() -> Vec<f64> {
    let mut grid = Vec::new();
    let mut z = 0.2;
    while z <= 4.0 + 1e-9 {
        grid.push(z);
        z += 0.05;
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_delay_fit_tracks_exact_curve() {
        // Paper claim: the fit serves across all damping conditions. Allow
        // the few-percent envelope of a two-term fit.
        let grid = standard_zeta_grid();
        let fit = DelayFit {
            a: 1.047,
            b: 0.85,
            c: DELAY_LINEAR,
        };
        let err = fit.max_relative_error(&grid);
        assert!(err < 0.04, "published eq. 33 fit error {err}");
    }

    #[test]
    fn delay_fit_elmore_limit() {
        // For large ζ: fitted ≈ exact ≈ 2ζ·ln2.
        let z = 50.0;
        let fitted = delay_50_scaled(z);
        let elmore = 2.0 * z * core::f64::consts::LN_2;
        assert!((fitted - elmore).abs() / elmore < 0.01);
    }

    #[test]
    fn pinned_rise_fit_tracks_exact_curve() {
        let grid = standard_zeta_grid();
        let err = RISE_FIT.max_relative_error(&grid);
        assert!(err < 0.05, "pinned rise fit error {err}");
    }

    #[test]
    fn rise_fit_elmore_limit() {
        // The scaled first-order rise time is 2ζ·ln 9; the fit's linear term
        // is pinned to exactly that coefficient.
        assert!((RISE_FIT.c - 2.0 * 9.0f64.ln()).abs() < 1e-12);
        let z = 50.0;
        let exact = exact_rise_scaled(z);
        assert!((rise_time_scaled(z) - exact).abs() / exact < 0.02);
    }

    #[test]
    fn refit_delay_matches_published_envelope() {
        let grid = standard_zeta_grid();
        let fit = refit_delay(&grid);
        // Our refit should be at least as good as the published constants.
        assert!(fit.max_relative_error(&grid) < 0.04, "{fit:?}");
        // And structurally similar: positive exponential amplitude, linear
        // coefficient near 2·ln2.
        assert!(fit.a > 0.0);
        assert!(
            (fit.c - 2.0 * core::f64::consts::LN_2).abs() < 0.15,
            "{fit:?}"
        );
    }

    #[test]
    fn refit_rise_reproduces_pinned_constants() {
        let grid = standard_zeta_grid();
        let fit = refit_rise(&grid);
        let err = fit.max_relative_error(&grid);
        assert!(err < 0.05, "refit rise error {err} ({fit:?})");
        // The pinned constants must perform comparably to a fresh refit.
        let pinned_err = RISE_FIT.max_relative_error(&grid);
        assert!(
            pinned_err <= err * 2.0 + 0.01,
            "pinned {pinned_err} vs refit {err}"
        );
    }

    #[test]
    fn fits_are_continuous_and_increasing_in_zeta() {
        // The whole point of eq. 33/34: continuous in ζ (usable in
        // optimization). Check monotonicity on a fine grid.
        let mut prev_d = 0.0;
        let mut prev_r = 0.0;
        let mut z = 0.2;
        while z < 5.0 {
            let d = delay_50_scaled(z);
            let r = rise_time_scaled(z);
            assert!(d > prev_d, "delay fit not increasing at ζ={z}");
            assert!(r > prev_r, "rise fit not increasing at ζ={z}");
            prev_d = d;
            prev_r = r;
            z += 0.01;
        }
    }

    #[test]
    #[should_panic(expected = "damping factor")]
    fn rejects_non_positive_zeta() {
        let _ = delay_50_scaled(-1.0);
    }

    #[test]
    #[should_panic(expected = "at least 3 fit points")]
    fn refit_needs_points() {
        let _ = refit_delay(&[1.0]);
    }
}
