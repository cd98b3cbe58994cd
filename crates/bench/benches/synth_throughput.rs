//! Criterion benchmark for the buffer-insertion pillar of `rlc-synth` /
//! `rlc-engine`: nets/second through `Engine::run_synth` at 1, 2, 4, and
//! 8 workers, and the bottom-up DP's cost against candidate-site count.
//!
//! As with `batch_throughput` and `couple_throughput`, the `rlc-synth/1`
//! report bytes are identical at every worker count; only wall-clock
//! changes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rlc_bench::section;
use rlc_engine::{Engine, SynthBatch};
use rlc_synth::{plan_buffers, BufferSpec};
use rlc_tree::topology;

const NETS: usize = 32;
/// Sections per line net of the worker-scaling corpus.
const SECTIONS: usize = 48;

/// One resistive line deck with library and constraint cards, with
/// per-net parameter jitter so jobs are not byte-identical.
fn synth_deck(index: usize) -> String {
    use std::fmt::Write as _;

    let mut deck = String::new();
    let r = 600.0 + 20.0 * index as f64;
    for s in 0..SECTIONS {
        let parent = if s == 0 {
            "in".to_owned()
        } else {
            format!("n{}", s - 1)
        };
        let _ = writeln!(deck, "R{s} {parent} n{s} {r}");
        let _ = writeln!(deck, "C{s} n{s} 0 0.35p");
    }
    let _ = writeln!(deck, ".lib bufx r=120 cin=5f tin=15p");
    let _ = writeln!(deck, ".driver 100");
    deck.push_str(".end\n");
    deck
}

fn corpus() -> SynthBatch {
    let mut batch = SynthBatch::new();
    for i in 0..NETS {
        batch.push_deck(format!("net{i:02}"), synth_deck(i));
    }
    batch
}

fn bench_worker_scaling(c: &mut Criterion) {
    let batch = corpus();
    let mut group = c.benchmark_group("synth_throughput");
    group.throughput(Throughput::Elements(NETS as u64));
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("workers", workers),
            &workers,
            |b, &workers| {
                let engine = Engine::with_workers(workers);
                b.iter(|| std::hint::black_box(engine.run_synth(&batch)))
            },
        );
    }
    group.finish();
}

/// The DP's closed-form cost against candidate-site count: every section
/// is a site, so a line of `n` sections enumerates `n` sites.
fn bench_dp_sites(c: &mut Criterion) {
    let buffer = BufferSpec {
        resistance: 120.0,
        input_capacitance: 5e-15,
        intrinsic_delay: 15e-12,
    };
    let mut group = c.benchmark_group("synth_dp_sites");
    for sites in [16usize, 64, 256] {
        let (tree, _) = topology::single_line(sites, section(700.0, 0.0, 0.35));
        group.bench_with_input(BenchmarkId::new("line", sites), &tree, |b, tree| {
            b.iter(|| std::hint::black_box(plan_buffers(tree, 100.0, &buffer)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_worker_scaling, bench_dp_sites);
criterion_main!(benches);
