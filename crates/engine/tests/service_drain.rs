//! Integration tests for the [`EngineService`] admission and drain
//! contracts:
//!
//! * outstanding work is bounded — submissions beyond `capacity` are
//!   rejected with a typed [`EngineError::Overloaded`], never queued;
//! * a drain lets every accepted (in-flight *or* queued) job complete and
//!   deliver its result;
//! * submissions after a drain begins get [`EngineError::ShuttingDown`].
//!
//! Held jobs (see [`JobSpec::hold`]) pin workers deterministically, so
//! none of these tests race the real analysis speed.

use std::time::Duration;

use rlc_engine::{EngineError, EngineService, JobSpec, ServiceConfig};
use rlc_obs::TimeSource;

const DECK: &str = "R1 in n1 25\nC1 n1 0 0.5p\nR2 n1 n2 25\nC2 n2 0 0.5p\n";

fn held(name: &str, millis: u64) -> JobSpec {
    JobSpec::deck(name, DECK).hold(Duration::from_millis(millis))
}

/// Admission counts queued + in-flight, so exactly `capacity` held jobs
/// are accepted and the next is rejected — at every worker count.
#[test]
fn overload_is_typed_and_deterministic_across_worker_counts() {
    for workers in [1usize, 2, 4, 8] {
        let service = EngineService::start(ServiceConfig {
            workers,
            capacity: 4,
            ..ServiceConfig::default()
        });
        let tickets: Vec<_> = (0..4)
            .map(|i| {
                service
                    .submit_spec(held(&format!("held{i}"), 100))
                    .unwrap_or_else(|e| panic!("job {i} within capacity rejected: {e}"))
            })
            .collect();
        let err = service
            .submit_spec(held("overflow", 100))
            .expect_err("5th outstanding job must be rejected");
        assert!(
            matches!(err, EngineError::Overloaded { capacity: 4, .. }),
            "workers={workers}: {err}"
        );
        assert_eq!(err.net(), "overflow");

        for ticket in tickets {
            assert!(ticket.wait().is_ok(), "workers={workers}");
        }
        let stats = service.shutdown();
        assert_eq!(stats.submitted, 4, "workers={workers}");
        assert_eq!(stats.completed, 4, "workers={workers}");
        assert_eq!(stats.rejected_overload, 1, "workers={workers}");
    }
}

/// Once capacity frees up, the same service accepts work again — the
/// rejection is load shedding, not a poisoned state.
#[test]
fn overload_recovers_after_completion() {
    let service = EngineService::start(ServiceConfig {
        workers: 1,
        capacity: 1,
        ..ServiceConfig::default()
    });
    let first = service.submit_spec(held("first", 50)).expect("admitted");
    assert!(matches!(
        service.submit("second", DECK).unwrap_err(),
        EngineError::Overloaded { .. }
    ));
    first.wait().expect("first completes");
    let second = service
        .submit("second", DECK)
        .expect("capacity freed after completion");
    assert!(second.wait().is_ok());
    drop(service);
}

/// In-flight *and* queued jobs complete across a drain; submissions after
/// `close()` are rejected with `ShuttingDown`.
#[test]
fn drain_completes_accepted_work_and_rejects_late_submissions() {
    let service = EngineService::start(ServiceConfig {
        workers: 2,
        capacity: 8,
        ..ServiceConfig::default()
    });
    // Two held jobs occupy both workers; two more wait in the queue.
    let tickets: Vec<_> = (0..4)
        .map(|i| service.submit_spec(held(&format!("net{i}"), 60)).unwrap())
        .collect();

    // Stop admission deterministically *before* draining, then prove the
    // typed rejection while accepted jobs are still in flight.
    service.close();
    let err = service.submit("late", DECK).unwrap_err();
    assert!(matches!(err, EngineError::ShuttingDown { .. }), "{err}");
    assert_eq!(err.net(), "late");

    let drain_started = TimeSource::Wall.now();
    service.drain();
    // Both queued jobs ran after their predecessors' holds, so a full
    // drain cannot return before the second wave of holds elapsed.
    assert!(drain_started.elapsed() >= Duration::from_millis(50));

    for ticket in tickets {
        let timing = ticket.wait().expect("accepted jobs complete");
        assert_eq!(timing.sections, 2);
    }
    assert_eq!(service.outstanding(), 0);

    let stats = service.shutdown();
    assert_eq!(stats.submitted, 4);
    assert_eq!(stats.completed, 4);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.rejected_shutdown, 1);
}

/// `shutdown` on an idle service returns immediately with zeroed work
/// counters, and `drain` is idempotent.
#[test]
fn idle_shutdown_is_clean() {
    let service = EngineService::start(ServiceConfig {
        workers: 3,
        capacity: 2,
        ..ServiceConfig::default()
    });
    service.drain();
    service.drain();
    let stats = service.shutdown();
    assert_eq!(stats, rlc_engine::ServiceStats::default());
}
