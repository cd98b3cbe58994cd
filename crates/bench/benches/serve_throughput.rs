//! Criterion benchmark for the `rlc-serve` request path: analyzes/second
//! through [`ServeCore`] with a cold cache (every request is a new
//! circuit — full parse → canonicalize → engine trip, plus an insert)
//! versus a warm cache (every request is a repeat — the engine is never
//! touched).
//!
//! All counters come from the service's own `rlc-trace/1` metrics
//! snapshot (the same document the `metrics` verb serves) rather than
//! hand-threaded bench counters, so the benchmark also proves the
//! telemetry surface is accurate under load. After the warm measurement
//! it *asserts* the cache hit ratio exceeded 90% and that zero engine
//! jobs ran, and it prints the bucket-quantized p50/p99 per-stage
//! latencies recorded for `BENCH_serve.json`.
//!
//! Finally, the overhead guard re-runs the cold path with telemetry
//! disabled (the [`TelemetryConfig::enabled`] escape hatch, which exists
//! only for this comparison) and asserts the always-on instrumentation
//! costs at most 5% of cold-path wall time (DESIGN.md §13's budget).

#![allow(clippy::expect_used, reason = "a bench aborts on a broken invariant")]

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rlc_obs::{json, TimeSource};
use rlc_serve::{AnalyzeRequest, CacheConfig, ServeConfig, ServeCore, TelemetryConfig};

/// Requests per measured iteration.
const REQUESTS: usize = 32;
/// Series sections per deck — enough that the engine trip dominates the
/// cold path and the warm path's savings are visible.
const SECTIONS: usize = 48;

/// A `SECTIONS`-long RLC line whose first resistance is `seed`-dependent,
/// so distinct seeds are distinct circuits (distinct cache keys).
fn deck(seed: usize) -> String {
    let mut deck = String::new();
    let mut parent = "in".to_owned();
    for k in 0..SECTIONS {
        let node = format!("n{k}");
        let ohms = if k == 0 { 25 + seed } else { 25 };
        deck.push_str(&format!("R{k} {parent} {node} {ohms}\n"));
        deck.push_str(&format!("L{k} {node} {node}x 5n\nC{k} {node}x 0 0.5p\n"));
        parent = format!("{node}x");
    }
    deck
}

fn core(cache_capacity: usize, telemetry_enabled: bool) -> ServeCore {
    ServeCore::new(ServeConfig {
        workers: 1,
        queue_capacity: 8,
        cache: CacheConfig {
            capacity: cache_capacity,
            ttl: None,
        },
        telemetry: TelemetryConfig {
            enabled: telemetry_enabled,
            ..TelemetryConfig::default()
        },
    })
}

/// The parsed `rlc-trace/1` snapshot for `core`.
fn metrics(core: &ServeCore) -> json::Value {
    json::parse(&core.metrics_report()).expect("metrics_report renders valid rlc-trace/1 JSON")
}

/// An integer field at `path` inside the snapshot.
#[expect(clippy::panic, reason = "a missing metric fails the cross-check")]
fn metric_u64(snapshot: &json::Value, path: &[&str]) -> u64 {
    let mut value = snapshot;
    for key in path {
        value = value
            .get(key)
            .unwrap_or_else(|| panic!("rlc-trace/1 report lacks {}", path.join(".")));
    }
    value
        .as_u64()
        .unwrap_or_else(|| panic!("{} is not a u64", path.join(".")))
}

fn bench_cold_vs_warm(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_throughput");
    group.throughput(Throughput::Elements(REQUESTS as u64));

    // Cold: a fresh circuit per request, forever — every analyze misses,
    // runs the engine, and inserts (with LRU churn once the cache fills).
    let cold = core(256, true);
    let mut seed = 0usize;
    group.bench_function("cold_cache", |b| {
        b.iter(|| {
            for _ in 0..REQUESTS {
                seed += 1;
                std::hint::black_box(cold.analyze(AnalyzeRequest::new("cold", deck(seed))));
            }
        })
    });
    let cold_snapshot = metrics(&cold);
    assert_eq!(
        metric_u64(&cold_snapshot, &["cache", "hits"]),
        0,
        "distinct circuits must never hit the cache"
    );
    assert_eq!(
        metric_u64(&cold_snapshot, &["engine", "submitted"]),
        metric_u64(&cold_snapshot, &["outcomes", "ok"]),
        "every cold analyze takes exactly one engine trip"
    );

    // Warm: the working set is prepopulated; every measured request is a
    // repeat and must be served without engine work.
    let warm = core(2 * REQUESTS, true);
    for i in 0..REQUESTS {
        warm.analyze(AnalyzeRequest::new("prewarm", deck(i)));
    }
    let before = metrics(&warm);
    group.bench_function("warm_cache", |b| {
        b.iter(|| {
            for i in 0..REQUESTS {
                std::hint::black_box(warm.analyze(AnalyzeRequest::new("warm", deck(i))));
            }
        })
    });
    group.finish();

    // Ratio over the *measured* phase only — the prewarm pass is all
    // misses by construction and must not dilute the assertion (under
    // `--test` Criterion runs a single iteration, so total-ratio would
    // sit at exactly 0.5 even with perfect content addressing).
    let after = metrics(&warm);
    let hits = metric_u64(&after, &["cache", "hits"]) - metric_u64(&before, &["cache", "hits"]);
    let misses =
        metric_u64(&after, &["cache", "misses"]) - metric_u64(&before, &["cache", "misses"]);
    let ratio = hits as f64 / (hits + misses) as f64;
    assert!(
        ratio > 0.9,
        "warm-cache hit ratio {ratio:.3} <= 0.9 (hits {hits}, misses {misses})"
    );
    assert_eq!(
        metric_u64(&after, &["engine", "submitted"]),
        metric_u64(&before, &["engine", "submitted"]),
        "warm-cache requests must do zero engine work"
    );

    // Bucket-quantized stage latencies for BENCH_serve.json: what the
    // cold path spent where (log2-bucket upper bounds, nanoseconds).
    eprintln!("cold-path stage latencies (p50/p99 ns, bucket-quantized):");
    for stage in [
        "read",
        "parse",
        "lint",
        "cache",
        "admission",
        "engine",
        "render",
    ] {
        eprintln!(
            "  {:<10} p50 {:>8}  p99 {:>8}  (n={})",
            stage,
            metric_u64(&cold_snapshot, &["stages", stage, "p50"]),
            metric_u64(&cold_snapshot, &["stages", stage, "p99"]),
            metric_u64(&cold_snapshot, &["stages", stage, "count"]),
        );
    }

    overhead_guard(seed);
}

/// Asserts the always-on telemetry stays within DESIGN.md §13's 5%
/// overhead budget on the cold (engine-bound) path. Interleaved rounds
/// with min-of-rounds elapsed on each side squeeze out scheduler noise;
/// the instrumentation itself is a handful of relaxed atomics plus one
/// short mutex push per request, far below the budget.
fn overhead_guard(mut seed: usize) {
    const ROUNDS: usize = 9;
    // Rounds 3× the bench iteration: long enough that a scheduler tick
    // is small relative to the round, short enough to afford 9 of each.
    const GUARD_REQUESTS: usize = 3 * REQUESTS;
    // Deck generation is pure string formatting — build each round's
    // (distinct, still-cold) circuits before starting the clock so the
    // measured region is the serve path and nothing else.
    let mut measure = |core: &ServeCore| {
        let decks: Vec<String> = (0..GUARD_REQUESTS)
            .map(|_| {
                seed += 1;
                deck(seed)
            })
            .collect();
        let start = TimeSource::Wall.now();
        for deck in decks {
            std::hint::black_box(core.analyze(AnalyzeRequest::new("guard", deck)));
        }
        start.elapsed()
    };
    let instrumented = core(256, true);
    let baseline = core(256, false);
    // Warm both pools (thread spawn, allocator) before measuring.
    measure(&instrumented);
    measure(&baseline);
    // Adjacent on/off pairs see the same machine conditions, so the
    // per-round ratio cancels clock/scheduler drift; alternating which
    // side goes first cancels position bias, and the median over rounds
    // shrugs off the occasional interrupted round.
    let mut median_ratio = || {
        let mut ratios: Vec<f64> = (0..ROUNDS)
            .map(|round| {
                let (on, off) = if round % 2 == 0 {
                    let on = measure(&instrumented);
                    (on, measure(&baseline))
                } else {
                    let off = measure(&baseline);
                    (measure(&instrumented), off)
                };
                on.as_secs_f64() / off.as_secs_f64()
            })
            .collect();
        ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
        ratios[ROUNDS / 2]
    };
    // One retry: a single measurement can lose its whole median to a
    // sustained background burst; a true regression fails both passes.
    let mut ratio = median_ratio();
    if ratio > 1.05 {
        eprintln!("telemetry overhead guard: ratio {ratio:.4} over budget, re-measuring once");
        ratio = median_ratio();
    }
    eprintln!(
        "telemetry overhead guard: median cold-path ratio {ratio:.4} over {ROUNDS} paired rounds"
    );
    assert!(
        ratio <= 1.05,
        "always-on telemetry overhead {ratio:.4} exceeds the 5% budget"
    );
    // The escape hatch really disabled recording: nothing was traced.
    let silent = metrics(&baseline);
    assert_eq!(metric_u64(&silent, &["total", "count"]), 0);
}

criterion_group!(benches, bench_cold_vs_warm);
criterion_main!(benches);
