//! The telemetry determinism contract (DESIGN.md §13): with a logical
//! time source, the same request sequence produces a byte-identical
//! `metrics` response at any engine worker count — the report depends
//! only on which stages ran how often, never on scheduling or wall
//! clocks. The workload below exercises every outcome class.

#![allow(clippy::expect_used, reason = "test helpers abort on failure")]

use std::sync::Arc;
use std::time::Duration;

use rlc_obs::TimeSource;
use rlc_serve::{
    AnalyzeRequest, CacheConfig, LintMode, LintRequest, ProtocolError, ServeConfig, ServeCore,
    TelemetryConfig,
};

/// Outstanding-job bound; queued + in-flight, so the overload point is
/// the same at every worker count.
const CAPACITY: usize = 2;

/// ζ ≈ 0.265 at the far sink — passes lint=warn with an L201
/// annotation, rejected by lint=deny.
const UNDERDAMPED: &str = "R1 in n1 25\nC1 n1 0 0.5p\nL2 n1 n2 5n\nC2 n2 0 1p\n";

fn core(workers: usize) -> Arc<ServeCore> {
    Arc::new(ServeCore::new(ServeConfig {
        workers,
        queue_capacity: CAPACITY,
        cache: CacheConfig {
            capacity: 16,
            ttl: None,
        },
        telemetry: TelemetryConfig {
            time: TimeSource::Logical { quantum_ns: 512 },
            ..TelemetryConfig::default()
        },
    }))
}

/// Runs the mixed workload and returns the final `metrics` response.
fn run_workload(workers: usize) -> String {
    let core = core(workers);

    // ok (miss) → cache_hit → lint verb (ok) → lint_denied → error.
    assert!(core
        .analyze(AnalyzeRequest::new("first", UNDERDAMPED))
        .contains("\"cache\": \"miss\""));
    assert!(core
        .analyze(AnalyzeRequest::new("again", UNDERDAMPED))
        .contains("\"cache\": \"hit\""));
    assert!(core
        .lint(&LintRequest {
            name: "first".to_owned(),
            deck: UNDERDAMPED.to_owned(),
        })
        .contains("\"type\": \"lint\""));
    let mut gated = AnalyzeRequest::new("gated", UNDERDAMPED);
    gated.lint = LintMode::Deny;
    assert!(core.analyze(gated).contains("\"kind\": \"lint_denied\""));
    assert!(core
        .analyze(AnalyzeRequest::new("broken", "R1 in n1 oops\n"))
        .contains("\"status\": \"error\""));

    // overloaded: pin every admission slot with held jobs, then submit
    // one more. The sleepers land depths 1..=CAPACITY in some order —
    // the histogram cannot tell which.
    let held: Vec<_> = (0..CAPACITY)
        .map(|i| {
            let core = Arc::clone(&core);
            std::thread::spawn(move || {
                let mut request = AnalyzeRequest::new(
                    format!("held{i}"),
                    format!("R1 in n1 {}\nC1 n1 0 0.5p\n", 30 + i),
                );
                request.sleep_ms = Some(300);
                core.analyze(request)
            })
        })
        .collect();
    let deadline = TimeSource::Wall.now() + Duration::from_secs(10);
    while (core.engine_stats().submitted as usize) < 1 + CAPACITY {
        assert!(
            TimeSource::Wall.now() < deadline,
            "held jobs never admitted"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(core
        .analyze(AnalyzeRequest::new("spill", "R1 in n1 99\nC1 n1 0 0.5p\n"))
        .contains("\"kind\": \"overloaded\""));
    for handle in held {
        assert!(handle
            .join()
            .expect("held request thread")
            .contains("\"status\": \"ok\""));
    }

    // deadline: already expired at pickup, work is shed.
    let mut stale = AnalyzeRequest::new("stale", "R1 in n1 77\nC1 n1 0 0.5p\n");
    stale.deadline_ms = Some(0);
    stale.sleep_ms = Some(20);
    assert!(core.analyze(stale).contains("deadline"));

    // bad_request, then shutting_down after the drain.
    assert!(core
        .bad_request(&ProtocolError {
            message: "determinism probe".to_owned(),
        })
        .contains("\"kind\": \"bad_request\""));
    core.drain();
    assert!(core
        .analyze(AnalyzeRequest::new("late", "R1 in n1 88\nC1 n1 0 0.5p\n"))
        .contains("\"kind\": \"shutting_down\""));

    core.metrics()
}

#[test]
fn metrics_are_byte_identical_across_worker_counts() {
    let reference = run_workload(1);
    assert!(reference.contains("\"schema\": \"rlc-trace/1\""));
    // Every outcome class left exactly its mark.
    for needle in [
        "\"ok\": 4",
        "\"cache_hit\": 1",
        "\"lint_denied\": 1",
        "\"overloaded\": 1",
        "\"deadline\": 1",
        "\"error\": 1",
        "\"shutting_down\": 1",
        "\"bad_request\": 1",
    ] {
        assert!(
            reference.contains(needle),
            "missing {needle} in {reference}"
        );
    }
    for workers in [2usize, 4, 8] {
        let metrics = run_workload(workers);
        assert_eq!(
            metrics, reference,
            "metrics at workers={workers} differ from workers=1"
        );
    }
}

#[test]
fn metrics_exclude_their_own_request() {
    let core = core(1);
    let first = core.metrics();
    assert!(
        first.contains("\"requests\": 0"),
        "a metrics snapshot must describe only requests finished before it: {first}"
    );
    let second = core.metrics();
    assert!(second.contains("\"requests\": 1"), "{second}");
}

#[test]
fn trace_reports_are_structural_not_deterministic() {
    let core = core(1);
    core.analyze(AnalyzeRequest::new("one", UNDERDAMPED));
    let trace = core.trace(0);
    assert!(trace.contains("\"schema\": \"rlc-trace/1\""));
    assert!(trace.contains("\"verb\": \"analyze\""));
    assert!(trace.contains("\"outcome\": \"ok\""));
    // Raw wall nanoseconds live here and only here — the flight
    // recorder is explicitly outside the byte-determinism guarantee.
    assert!(trace.contains("total_ns"));
}
