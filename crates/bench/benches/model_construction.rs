//! Criterion benchmark for experiment A4's cost axis: constructing each
//! delay model at one node — Wyatt, the paper's model, the Kahng–Muddu
//! two-pole (needs exact moments), and AWE q=4 (needs 8 moments plus pole
//! extraction).

#![allow(clippy::expect_used, reason = "a bench aborts on a broken invariant")]

use criterion::{criterion_group, criterion_main, Criterion};
use eed::SecondOrderModel;
use rlc_awe::{awe_at_node, two_pole_at_node, ReducedOrderModel};
use rlc_bench::section;
use rlc_tree::topology;

fn bench_model_construction(c: &mut Criterion) {
    let (line, sink) = topology::single_line(64, section(20.0, 2.0, 0.3));
    let sums = rlc_moments::tree_sums(&line);
    let (t_rc, t_lc) = (sums.rc(sink), sums.lc(sink));

    let mut group = c.benchmark_group("model_at_node_64section_line");
    group.bench_function("eed_from_sums", |b| {
        b.iter(|| {
            SecondOrderModel::from_sums(std::hint::black_box(t_rc), std::hint::black_box(t_lc))
        })
    });
    group.bench_function("eed_including_tree_sums", |b| {
        b.iter(|| SecondOrderModel::at_node(std::hint::black_box(&line), sink))
    });
    group.bench_function("wyatt", |b| {
        b.iter(|| ReducedOrderModel::wyatt(std::hint::black_box(t_rc)))
    });
    group.bench_function("two_pole_exact_moments", |b| {
        b.iter(|| two_pole_at_node(std::hint::black_box(&line), sink).expect("builds"))
    });
    group.bench_function("awe_q4", |b| {
        b.iter(|| awe_at_node(std::hint::black_box(&line), sink, 4).expect("builds"))
    });
    group.finish();
}

fn bench_metric_evaluation(c: &mut Criterion) {
    let (line, sink) = topology::single_line(64, section(20.0, 2.0, 0.3));
    let model = SecondOrderModel::at_node(&line, sink);
    let mut group = c.benchmark_group("metrics_on_model");
    group.bench_function("delay_50_fitted", |b| {
        b.iter(|| std::hint::black_box(&model).delay_50())
    });
    group.bench_function("delay_50_exact", |b| {
        b.iter(|| std::hint::black_box(&model).delay_50_exact())
    });
    group.bench_function("settling_time", |b| {
        b.iter(|| std::hint::black_box(&model).settling_time(0.1))
    });
    group.finish();
}

criterion_group!(benches, bench_model_construction, bench_metric_evaluation);
criterion_main!(benches);
