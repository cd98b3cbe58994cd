//! Numerical kernels for the Equivalent Elmore Delay workspace.
//!
//! The algorithms in the paper and its comparators need a small, well-tested
//! set of numerical tools rather than a general linear-algebra stack:
//!
//! * [`Complex64`] — complex arithmetic for pole/residue manipulation
//!   (`mod complex`);
//! * [`Polynomial`] — dense real-coefficient polynomials with
//!   Aberth–Ehrlich root finding (`mod poly`), used to extract Padé poles in
//!   asymptotic waveform evaluation;
//! * scalar root finding — bisection, Brent's method and a safeguarded
//!   Newton (`mod roots`), used to invert closed-form step responses for the
//!   exact 50% delay and rise time;
//! * dense linear algebra — partial-pivoting LU solve and Householder-QR
//!   least squares (`mod linalg`), used by moment matching and by the
//!   curve-refit of the paper's eqs. (33)–(34).
//!
//! # Examples
//!
//! Find where a damped cosine first crosses 0.5:
//!
//! ```
//! use rlc_numeric::roots::brent;
//!
//! let f = |t: f64| 1.0 - (-t).exp() * (2.0 * t).cos() - 0.5;
//! let root = brent(f, 0.0, 2.0, 1e-12, 200)?;
//! assert!((f(root)).abs() < 1e-10);
//! # Ok::<(), rlc_numeric::NumericError>(())
//! ```

mod complex;
mod error;
pub mod linalg;
pub mod minimize;
pub mod poly;
pub mod roots;

pub use complex::Complex64;
pub use error::NumericError;
pub use poly::Polynomial;
