//! Criterion benchmark for the coupled-analysis pillar of `rlc-couple` /
//! `rlc-engine`: groups/second over a fixed corpus of coupled buses at 1,
//! 2, 4, and 8 workers, plus the single-group closed-form cost.
//!
//! Each group is a 3-net bus (line nets chained by coupling capacitors),
//! so one job runs nine O(n) EED passes (three Miller scenarios × three
//! victims) plus the noise bounds. As with `batch_throughput`, the report
//! bytes are identical at every worker count; only wall-clock changes.

#![allow(clippy::expect_used, reason = "a bench aborts on a broken invariant")]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rlc_couple::analyze_group;
use rlc_engine::{CoupleBatch, Engine};
use rlc_tree::coupled::CoupledGroup;

const GROUPS: usize = 32;
/// Sections per net of each 3-net bus group.
const SECTIONS: usize = 48;

/// One 3-net coupled bus deck, with per-group parameter jitter so jobs are
/// not byte-identical.
fn bus_deck(index: usize) -> String {
    use std::fmt::Write as _;

    let mut deck = String::new();
    for net in 0..3 {
        let _ = writeln!(deck, ".net g{net}");
        let r = 18.0 + index as f64 + 3.0 * net as f64;
        for s in 0..SECTIONS {
            let parent = if s == 0 {
                "in".to_owned()
            } else {
                format!("n{}", s - 1)
            };
            let _ = writeln!(deck, "R{s} {parent} n{s} {r}");
            let _ = writeln!(deck, "L{s} n{s} n{s}x 1.8n");
            let _ = writeln!(deck, "C{s} n{s}x 0 0.22p");
        }
    }
    // Chain the bus: neighbours couple at every eighth section.
    let mut k = 0;
    for pair in 0..2 {
        for s in (7..SECTIONS).step_by(8) {
            k += 1;
            let _ = writeln!(deck, "K{k} g{pair}.n{s}x g{}.n{s}x 0.05p", pair + 1);
        }
    }
    deck.push_str(".end\n");
    deck
}

fn corpus() -> CoupleBatch {
    let mut batch = CoupleBatch::new();
    for i in 0..GROUPS {
        batch.push_deck(format!("bus{i:02}"), bus_deck(i));
    }
    batch
}

fn bench_worker_scaling(c: &mut Criterion) {
    let batch = corpus();
    let mut group = c.benchmark_group("couple_throughput");
    group.throughput(Throughput::Elements(GROUPS as u64));
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("workers", workers),
            &workers,
            |b, &workers| {
                let engine = Engine::with_workers(workers);
                b.iter(|| std::hint::black_box(engine.run_couple(&batch)))
            },
        );
    }
    group.finish();
}

fn bench_single_group(c: &mut Criterion) {
    let parsed = CoupledGroup::parse(&bus_deck(0)).expect("bench deck parses");
    let mut group = c.benchmark_group("couple_analyze");
    group.bench_function(BenchmarkId::new("bus_3x48", SECTIONS), |b| {
        b.iter(|| std::hint::black_box(analyze_group(&parsed, "bus")))
    });
    group.finish();
}

criterion_group!(benches, bench_worker_scaling, bench_single_group);
criterion_main!(benches);
