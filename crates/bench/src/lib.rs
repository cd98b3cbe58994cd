//! Shared plumbing for the figure-regeneration binaries.
//!
//! Each binary under `src/bin/` regenerates one figure of the paper's
//! evaluation (see `DESIGN.md` for the experiment index): it prints the
//! same rows/series the figure plots, writes a CSV under `target/figures/`,
//! and ends with a `SHAPE-CHECK` block asserting the qualitative claims the
//! figure makes. `EXPERIMENTS.md` records the outcomes.
//!
//! Failures are reported through [`BenchError`] rather than panics, so a
//! binary that hits a bad configuration mid-sweep prints what failed and
//! exits non-zero instead of aborting with a backtrace.

use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::PathBuf;

use eed::{SecondOrderModel, TreeAnalysis};
use rlc_sim::{simulate, SimOptions, Source, Waveform};
use rlc_tree::{NodeId, RlcSection, RlcTree};
use rlc_units::{Capacitance, Inductance, Resistance, Time};

/// Failure of a figure binary or one of the shared helpers.
#[derive(Debug)]
pub enum BenchError {
    /// A sweep asked for a configuration the circuit cannot realize
    /// (e.g. retuning an RC tree to a finite ζ).
    Untunable(String),
    /// A simulated waveform never crossed 50% within its horizon.
    NoCrossing,
    /// Filesystem failure while writing a CSV.
    Io {
        /// What was being written.
        context: String,
        source: io::Error,
    },
    /// One or more `SHAPE-CHECK` assertions failed.
    ShapeChecksFailed {
        /// The descriptions of the failed checks.
        failed: Vec<String>,
    },
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Untunable(msg) => write!(f, "untunable configuration: {msg}"),
            BenchError::NoCrossing => write!(f, "simulated waveform never crosses 50%"),
            BenchError::Io { context, source } => write!(f, "I/O error ({context}): {source}"),
            BenchError::ShapeChecksFailed { failed } => {
                write!(
                    f,
                    "{} shape check(s) failed: {}",
                    failed.len(),
                    failed.join("; ")
                )
            }
        }
    }
}

impl std::error::Error for BenchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BenchError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl BenchError {
    fn io(context: impl Into<String>) -> impl FnOnce(io::Error) -> Self {
        let context = context.into();
        move |source| BenchError::Io { context, source }
    }
}

/// Builds an `RlcSection` from engineering magnitudes (Ω, nH, pF).
pub fn section(r_ohms: f64, l_nh: f64, c_pf: f64) -> RlcSection {
    RlcSection::new(
        Resistance::from_ohms(r_ohms),
        Inductance::from_nanohenries(l_nh),
        Capacitance::from_picofarads(c_pf),
    )
}

/// Returns a copy of `tree` with every inductance scaled so that the model
/// at `node` has damping factor `zeta`.
///
/// Since `ζ = T_RC/(2√T_LC)` and `T_LC` is linear in a global inductance
/// scale `k`, the required scale is `k = (T_RC/(2ζ))²/T_LC` — this is how
/// the Fig. 11 sweep "for several values of ζ" is produced.
///
/// # Errors
///
/// Returns [`BenchError::Untunable`] if `zeta` is not positive or the tree
/// has no inductance at `node` (an RC tree cannot reach a finite ζ).
pub fn retune_zeta(tree: &RlcTree, node: NodeId, zeta: f64) -> Result<RlcTree, BenchError> {
    if zeta.is_nan() || zeta <= 0.0 {
        return Err(BenchError::Untunable(format!(
            "target damping must be positive, got {zeta}"
        )));
    }
    let sums = rlc_moments::tree_sums(tree);
    let t_rc = sums.rc(node).as_seconds();
    let t_lc = sums.lc(node).as_seconds_squared();
    if t_lc <= 0.0 {
        return Err(BenchError::Untunable(
            "cannot retune an RC tree (zero inductance) to a finite ζ".to_owned(),
        ));
    }
    let k = (t_rc / (2.0 * zeta)).powi(2) / t_lc;
    Ok(tree.map_sections(|_, s| s.with_inductance(s.inductance() * k)))
}

/// Simulates the unit-step response at `node`, sized from the model's own
/// delay estimate: step `delay/resolution`, horizon `delay·horizon`.
pub fn sim_step_waveform(tree: &RlcTree, node: NodeId, resolution: f64, horizon: f64) -> Waveform {
    let delay = TreeAnalysis::new(tree).delay_50(node);
    let options = SimOptions::new(
        Time::from_seconds(delay.as_seconds() / resolution),
        Time::from_seconds(delay.as_seconds() * horizon),
    );
    simulate(tree, &Source::step(1.0), &options, &[node]).remove(0)
}

/// Relative 50% delay error of the model (exact inversion) versus the
/// simulated waveform.
///
/// # Errors
///
/// Returns [`BenchError::NoCrossing`] if the waveform never reaches 50%
/// within its horizon.
pub fn delay_error(model: &SecondOrderModel, wave: &Waveform) -> Result<f64, BenchError> {
    let sim = wave.delay_50(1.0).ok_or(BenchError::NoCrossing)?;
    Ok(((model.delay_50_exact() - sim).as_seconds() / sim.as_seconds()).abs())
}

/// Maximum absolute difference between the model's step response and the
/// simulated waveform (in fractions of the supply), sampled on the
/// waveform's own time grid.
pub fn waveform_error(model: &SecondOrderModel, wave: &Waveform) -> f64 {
    wave.times()
        .iter()
        .map(|&t| (model.unit_step(t) - wave.sample_at(t)).abs())
        .fold(0.0, f64::max)
}

/// The shared output directory `target/figures/`, created on demand.
pub fn figures_dir() -> Result<PathBuf, BenchError> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/figures");
    fs::create_dir_all(&dir).map_err(BenchError::io("create target/figures"))?;
    Ok(dir)
}

/// A CSV sink under `target/figures/<name>.csv`.
///
/// Row writes are infallible at the call site — the first I/O error is
/// latched and reported by [`finish`](Self::finish), so sweep loops stay
/// free of per-row error plumbing.
pub struct FigureCsv {
    path: PathBuf,
    file: fs::File,
    deferred: Option<io::Error>,
}

impl FigureCsv {
    /// Creates `target/figures/<name>.csv` with the given header row.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Io`] if the directory or file cannot be
    /// created.
    pub fn create(name: &str, header: &str) -> Result<Self, BenchError> {
        let path = figures_dir()?.join(format!("{name}.csv"));
        let mut file =
            fs::File::create(&path).map_err(BenchError::io(format!("create {name}.csv")))?;
        let deferred = writeln!(file, "{header}").err();
        Ok(Self {
            path,
            file,
            deferred,
        })
    }

    /// Appends one row of comma-separated values.
    pub fn row(&mut self, values: &[f64]) {
        let line = values
            .iter()
            .map(|v| format!("{v:.9e}"))
            .collect::<Vec<_>>()
            .join(",");
        self.raw_row(&line);
    }

    /// Appends one pre-formatted row (for mixed text/number rows).
    pub fn raw_row(&mut self, line: &str) {
        if self.deferred.is_none() {
            self.deferred = writeln!(self.file, "{line}").err();
        }
    }

    /// The file path, for the closing message.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }

    /// Flushes the file and surfaces any write error latched by
    /// [`row`](Self::row)/[`raw_row`](Self::raw_row).
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Io`] for the first failed write, if any.
    pub fn finish(mut self) -> Result<PathBuf, BenchError> {
        let context = format!("write {}", self.path.display());
        if let Some(source) = self.deferred.take() {
            return Err(BenchError::Io { context, source });
        }
        self.file.flush().map_err(BenchError::io(context))?;
        Ok(self.path)
    }
}

/// Collects `SHAPE-CHECK` verdicts so every check in a figure binary runs
/// (and prints) before the binary decides its exit status.
///
/// # Examples
///
/// ```
/// use rlc_bench::ShapeChecks;
///
/// let mut checks = ShapeChecks::new();
/// checks.check("delay increases along the line", true);
/// assert!(checks.finish().is_ok());
/// ```
#[derive(Debug, Default)]
pub struct ShapeChecks {
    failed: Vec<String>,
    total: usize,
}

impl ShapeChecks {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Prints the `SHAPE-CHECK` verdict line and records the outcome.
    pub fn check(&mut self, description: &str, ok: bool) {
        self.total += 1;
        if ok {
            println!("SHAPE-CHECK PASS: {description}");
        } else {
            println!("SHAPE-CHECK FAIL: {description}");
            self.failed.push(description.to_owned());
        }
    }

    /// Number of checks recorded so far.
    pub fn total(&self) -> usize {
        self.total
    }

    /// `true` if every check so far passed.
    pub fn all_passed(&self) -> bool {
        self.failed.is_empty()
    }

    /// Consumes the collector.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::ShapeChecksFailed`] listing every failed
    /// check.
    pub fn finish(self) -> Result<(), BenchError> {
        if self.failed.is_empty() {
            Ok(())
        } else {
            Err(BenchError::ShapeChecksFailed {
                failed: self.failed,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlc_tree::topology;

    #[test]
    fn retune_hits_target_zeta() {
        let (tree, nodes) = topology::fig5(section(25.0, 5.0, 0.5));
        for target in [0.3, 0.5, 1.0, 2.0] {
            let tuned = retune_zeta(&tree, nodes.n7, target).expect("inductive tree retunes");
            let timing = TreeAnalysis::new(&tuned);
            assert!(
                (timing.model(nodes.n7).zeta() - target).abs() < 1e-9,
                "target {target}"
            );
        }
    }

    #[test]
    fn retune_rejects_rc_tree() {
        let (tree, sink) = topology::single_line(2, section(10.0, 0.0, 1.0));
        let err = retune_zeta(&tree, sink, 0.5).unwrap_err();
        assert!(
            err.to_string().contains("cannot retune an RC tree"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn retune_rejects_non_positive_zeta() {
        let (tree, sink) = topology::single_line(2, section(10.0, 1.0, 1.0));
        for bad in [0.0, -1.0, f64::NAN] {
            let err = retune_zeta(&tree, sink, bad).unwrap_err();
            assert!(matches!(err, BenchError::Untunable(_)), "ζ = {bad}: {err}");
        }
    }

    #[test]
    fn waveform_helpers_are_consistent() {
        let (tree, sink) = topology::single_line(3, section(30.0, 2.0, 0.3));
        let wave = sim_step_waveform(&tree, sink, 300.0, 30.0);
        let timing = TreeAnalysis::new(&tree);
        let model = timing.model(sink);
        // A short inductive line carries double-digit model error (that is
        // the phenomenon the figures measure); the helpers just need to
        // report it in a sane range.
        assert!(delay_error(model, &wave).unwrap() < 0.25);
        assert!(waveform_error(model, &wave) < 0.5);
    }

    #[test]
    fn figure_csv_writes_rows() {
        let mut csv = FigureCsv::create("__unit_test", "a,b").unwrap();
        csv.row(&[1.0, 2.0]);
        csv.raw_row("x,y");
        let path = csv.finish().unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("a,b\n"));
        assert!(content.contains("1.000000000e0,2.000000000e0"));
        assert!(content.ends_with("x,y\n"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn shape_checks_collect_failures_without_aborting() {
        let mut checks = ShapeChecks::new();
        checks.check("first (passes)", true);
        checks.check("second (fails)", false);
        checks.check("third (fails)", false);
        assert_eq!(checks.total(), 3);
        assert!(!checks.all_passed());
        match checks.finish() {
            Err(BenchError::ShapeChecksFailed { failed }) => {
                assert_eq!(failed.len(), 2);
                assert!(failed[0].contains("second"));
            }
            other => panic!("expected shape-check failure, got {other:?}"),
        }
    }

    #[test]
    fn shape_checks_pass_when_all_ok() {
        let mut checks = ShapeChecks::new();
        checks.check("only", true);
        assert!(checks.all_passed());
        assert!(checks.finish().is_ok());
    }

    #[test]
    fn bench_error_display_is_informative() {
        let err = BenchError::Untunable("nope".into());
        assert!(err.to_string().contains("nope"));
        let err = BenchError::ShapeChecksFailed {
            failed: vec!["a".into(), "b".into()],
        };
        assert!(err.to_string().contains("2 shape check(s)"));
    }
}
