//! End-to-end and per-layer benchmark of the `serve` timing daemon.
//!
//! ```text
//! bash examples/benchmark/run.sh [--workload NAME] [--seed N] [--seconds S]
//!                                [--trace 0|1] [--repeat N]
//! ```
//!
//! Each workload runs in a closed loop over two TCP connections against
//! the shipped `serve` binary; a separate single-threaded replay of the
//! same requests then times each layer's public function from outside.
//! Every metric prints as `workload metric value unit`; the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. `--trace 0` reports the end-to-end metrics
//! only, `--trace 1` the per-layer ones only, and without `--trace` both.
//! `--repeat N` runs every workload N times, on seeds `seed` to
//! `seed + N - 1`, and prints each metric's median, quartiles and relative
//! spread. Results
//! and span files land in `target/benchmark/`. See README.md.

mod gen;
mod oracle;
mod replay;
mod tcp;

use std::path::PathBuf;
use std::process::ExitCode;

use rlc_obs::json::{self, number, quote, Value};

use gen::{Kind, Req, Workload, CONNECTIONS, WARMUP_PER_CONN};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Traced replay requests per connection (1000 in all).
const REPLAY_PER_CONN: usize = 500;
/// The fewest latency samples that support a p99 (ten beyond it).
const P99_MIN_SAMPLES: usize = 1000;
/// `trace.coverage` outside this range fails the run.
const COVERAGE: std::ops::RangeInclusive<f64> = 0.85..=1.15;
const OUT_DIR: &str = "target/benchmark";

struct Args {
    workloads: Vec<Kind>,
    seed: u64,
    seconds: u64,
    /// `None` reports both metric sets.
    trace: Option<bool>,
    repeat: u64,
    serve: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Kind::ALL.to_vec(),
        seed: 1,
        seconds: 28,
        trace: None,
        repeat: 1,
        serve: PathBuf::from("target/release/serve"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                args.workloads =
                    vec![Kind::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?]
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            "--repeat" => args.repeat = number()?.max(1),
            "--serve" => args.serve = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(args)
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

struct Run {
    kind: Kind,
    seed: u64,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<Metric>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let mut runs = Vec::new();
    for r in 0..args.repeat {
        for &kind in &args.workloads {
            let seed = args.seed + r;
            match run(kind, seed, &args) {
                Ok(run) => {
                    for m in &run.metrics {
                        println!("{} {} {} {}", kind.name(), m.name, m.value, m.unit);
                    }
                    for problem in &run.problems {
                        eprintln!("benchmark: {} seed {seed}: {problem}", kind.name());
                    }
                    runs.push(run);
                }
                Err(e) => {
                    eprintln!("benchmark: {} seed {seed}: {e}", kind.name());
                    return ExitCode::from(2);
                }
            }
        }
    }
    if let Err(e) = write_results(&runs) {
        eprintln!("benchmark: {e}");
        return ExitCode::from(2);
    }
    let summary = summarize(&runs, &args);
    println!("{summary}");
    if runs.iter().all(|r| r.failed == 0 && r.problems.is_empty()) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One workload, one seed: set-ups, the timed window, the checks, and the
/// traced replay when per-layer metrics are wanted.
fn run(kind: Kind, seed: u64, args: &Args) -> Result<Run, String> {
    let workload = Workload::new(kind, seed);
    gen::self_check(&workload).map_err(|e| format!("generator self-check: {e}"))?;
    let warmup: Vec<Vec<Req>> = (0..CONNECTIONS)
        .map(|c| workload.requests(c, 0..WARMUP_PER_CONN))
        .collect();

    // Each set-up but the last is shut down before the next starts.
    let mut setup = tcp::setup(&args.serve, &warmup)?;
    let mut setup_s = vec![setup.elapsed.as_secs_f64()];
    while setup_s.len() < SETUPS {
        drop(setup.conns);
        setup.serve.shutdown()?;
        setup = tcp::setup(&args.serve, &warmup)?;
        setup_s.push(setup.elapsed.as_secs_f64());
    }
    let tcp::Setup {
        serve, mut conns, ..
    } = setup;

    let before = serve.metrics()?;
    let cpu_before = serve.cpu_ticks()?;
    let window = tcp::closed_loop(&mut conns, &workload, args.seconds);
    let cpu_ticks = serve.cpu_ticks()? - cpu_before;
    let peak_rss_kb = serve.peak_rss_kb()?;
    let after = serve.metrics()?;
    drop(conns);
    let (stats, printed) = serve.shutdown()?;

    let mut problems: Vec<String> = window.errors.iter().take(5).cloned().collect();
    problems.extend(cross_check(
        kind,
        &before,
        &after,
        &stats,
        &printed,
        window.attempted,
    ));
    let mut failed = window.failed;
    for (req, reply) in &window.samples {
        let expected = oracle::expected(&req.wire, oracle::cache_field(reply))?;
        if req.accepts(reply) && *reply != expected {
            failed += 1;
            problems.push(format!(
                "oracle: {} replied {} expected {}",
                req.name,
                tcp::clip(reply),
                tcp::clip(&expected)
            ));
        }
    }

    let mut latencies = window.latencies_ns.clone();
    latencies.sort_unstable();
    if latencies.len() < P99_MIN_SAMPLES {
        problems.push(format!(
            "{} latency samples support no p99 (need {P99_MIN_SAMPLES}); lengthen --seconds",
            latencies.len()
        ));
    }
    let latency_p50_us = percentile(&latencies, 0.50) / 1e3;
    let completed = latencies.len().max(1) as f64;
    let delta = |path: &[&str]| field(&after, path).saturating_sub(field(&before, path)) as f64;
    let attempted = window.attempted.max(1) as f64;

    let mut metrics = Vec::new();
    if args.trace != Some(true) {
        let mut sorted = setup_s.clone();
        sorted.sort_by(f64::total_cmp);
        metrics.extend([
            metric(
                "req_per_s",
                (window.attempted - failed) as f64 / window.elapsed.as_secs_f64(),
                "req/s",
            ),
            metric("latency_p50_us", latency_p50_us, "us"),
            metric("latency_p99_us", percentile(&latencies, 0.99) / 1e3, "us"),
            metric(
                "server_cpu_us_per_req",
                cpu_ticks as f64 * 1e6 / tcp::CLOCK_TICKS_PER_S as f64 / completed,
                "us",
            ),
            metric("setup_s", sorted[SETUPS / 2], "s"),
        ]);
    }
    if args.trace != Some(false) {
        let hits = delta(&["cache", "hits"]);
        let lookups = hits + delta(&["cache", "misses"]);
        metrics.extend([
            metric(
                "cache.hit_ratio",
                if lookups > 0.0 { hits / lookups } else { 0.0 },
                "fraction",
            ),
            metric(
                "cache.evictions_per_req",
                delta(&["cache", "evictions"]) / attempted,
                "count",
            ),
            metric(
                "engine.jobs_per_req",
                delta(&["engine", "submitted"]) / attempted,
                "count",
            ),
            metric(
                "engine.rejected",
                delta(&["engine", "rejected_overload"]) + delta(&["engine", "rejected_shutdown"]),
                "count",
            ),
            metric(
                "lint.denied_ratio",
                delta(&["lint_denied"]) / attempted,
                "fraction",
            ),
            metric(
                "parse.error_ratio",
                delta(&["outcomes", "error"]) / attempted,
                "fraction",
            ),
            metric("serve.peak_rss_mb", peak_rss_kb as f64 / 1024.0, "MB"),
        ]);
        let warm = workload.interleaved(0, WARMUP_PER_CONN);
        let requests = workload.interleaved(WARMUP_PER_CONN, REPLAY_PER_CONN);
        let replay = replay::run(&warm, &requests)?;
        problems.extend(
            replay
                .mismatches
                .iter()
                .take(5)
                .map(|m| format!("replay: {m}")),
        );
        let n = requests.len() as f64;
        let traced_ns: u64 = replay.request_ns.iter().sum();
        let self_ns: u64 = replay.layers.iter().map(|l| l.self_ns).sum();
        for layer in &replay.layers {
            metrics.extend([
                metric(
                    format!("{}.us_per_req", layer.name),
                    layer.self_ns as f64 / n / 1e3,
                    "us",
                ),
                metric(
                    format!("{}.calls_per_req", layer.name),
                    layer.calls as f64 / n,
                    "count",
                ),
                metric(
                    format!("{}.share", layer.name),
                    layer.self_ns as f64 / traced_ns as f64,
                    "fraction",
                ),
            ]);
        }
        let mut request_ns = replay.request_ns.clone();
        request_ns.sort_unstable();
        metrics.push(metric(
            "transport.gap_us_p50",
            latency_p50_us - percentile(&request_ns, 0.50) / 1e3,
            "us",
        ));
        let coverage = self_ns as f64 / replay.untraced_ns as f64;
        if !COVERAGE.contains(&coverage) {
            problems.push(format!("trace.coverage {coverage} is outside {COVERAGE:?}"));
        }
        metrics.push(metric("trace.coverage", coverage, "fraction"));
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
        let path = format!("{OUT_DIR}/{}.spans.json", kind.name());
        std::fs::write(&path, replay.spans_json(kind.name(), seed))
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    Ok(Run {
        kind,
        seed,
        attempted: window.attempted,
        failed,
        problems,
        metrics,
    })
}

/// Nearest-rank percentile of sorted samples.
fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// A counter from an `rlc-trace/1` report or `stats` line (0 if absent).
fn field(doc: &Value, path: &[&str]) -> u64 {
    path.iter()
        .try_fold(doc, |v, key| v.get(key))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

/// Checks the server's own counters against what the client did.
fn cross_check(
    kind: Kind,
    before: &Value,
    after: &Value,
    stats: &str,
    printed: &str,
    attempted: u64,
) -> Vec<String> {
    let Ok(stats_doc) = json::parse(stats) else {
        return vec![format!("shutdown reply is not JSON: {}", tcp::clip(stats))];
    };
    let warmup = (WARMUP_PER_CONN * CONNECTIONS) as u64;
    let window = |path: &[&str]| field(after, path).saturating_sub(field(before, path));
    let mut checks = vec![
        // The `metrics` report counts the earlier `metrics` call, not
        // itself; the final stats count both.
        (
            "metrics requests",
            field(after, &["requests"]),
            warmup + attempted + 1,
        ),
        (
            "stats requests",
            field(&stats_doc, &["requests"]),
            warmup + attempted + 2,
        ),
        ("bad_requests", field(&stats_doc, &["bad_requests"]), 0),
        (
            "rejected_overload",
            field(&stats_doc, &["engine", "rejected_overload"]),
            0,
        ),
        (
            "engine.submitted vs cache misses",
            field(&stats_doc, &["engine", "submitted"]),
            field(&stats_doc, &["cache", "misses"]),
        ),
    ];
    match kind {
        Kind::AnalyzeHot => checks.push((
            "cache misses in the window",
            window(&["cache", "misses"]),
            0,
        )),
        Kind::AnalyzeCold | Kind::EngineHeavy => {
            checks.push(("cache hits in the window", window(&["cache", "hits"]), 0))
        }
        Kind::Mixed => {}
    }
    let mut problems: Vec<String> = checks
        .into_iter()
        .filter(|(_, got, want)| got != want)
        .map(|(what, got, want)| format!("server cross-check: {what} is {got}, expected {want}"))
        .collect();
    if stats != printed {
        problems.push("the shutdown reply differs from the stats line serve printed".into());
    }
    problems
}

fn write_results(runs: &[Run]) -> Result<(), String> {
    let mut out = String::from("{\"runs\": [\n");
    for (i, run) in runs.iter().enumerate() {
        let problems: Vec<String> = run.problems.iter().map(|p| quote(p)).collect();
        out.push_str(&format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"attempted\": {}, \"failed\": {}, \"problems\": [{}], \"metrics\": {}}}{}\n",
            run.kind.name(),
            run.seed,
            run.attempted,
            run.failed,
            problems.join(", "),
            metrics_json(run.metrics.iter().map(|m| (m.name.clone(), m.value, m.unit))),
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    out.push_str("]}\n");
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let path = format!("{OUT_DIR}/results.json");
    std::fs::write(&path, out).map_err(|e| format!("writing {path}: {e}"))
}

fn metrics_json(metrics: impl Iterator<Item = (String, f64, &'static str)>) -> String {
    let body: Vec<String> = metrics
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": \"{unit}\"}}",
                quote(&name),
                number(value)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The closing JSON line. One run reports its metrics as measured; several
/// report each metric's median under `workload.metric` (or the bare name
/// when only one workload ran), after printing medians, quartiles and
/// relative spreads.
fn summarize(runs: &[Run], args: &Args) -> String {
    let correct = runs.iter().all(|r| r.failed == 0 && r.problems.is_empty());
    let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    let mut summary = Vec::new();
    for &kind in &args.workloads {
        let of_kind: Vec<&Run> = runs.iter().filter(|r| r.kind == kind).collect();
        let Some(first) = of_kind.first() else {
            continue;
        };
        for (i, m) in first.metrics.iter().enumerate() {
            let mut values: Vec<f64> = of_kind.iter().map(|r| r.metrics[i].value).collect();
            values.sort_by(f64::total_cmp);
            let [q1, median, q3] = quartiles(&values);
            if args.repeat > 1 {
                println!(
                    "{} {} median={median} q1={q1} q3={q3} spread={} {}",
                    kind.name(),
                    m.name,
                    (q3 - q1) / median.abs(),
                    m.unit
                );
            }
            let name = if args.workloads.len() == 1 {
                m.name.clone()
            } else {
                format!("{}.{}", kind.name(), m.name)
            };
            summary.push((name, median, m.unit));
        }
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        metrics_json(summary.into_iter())
    )
}

/// Quartiles of sorted values by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`.
fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let n = sorted.len();
    if n < 2 {
        return [sorted.first().copied().unwrap_or(0.0); 3];
    }
    let m = n + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}
