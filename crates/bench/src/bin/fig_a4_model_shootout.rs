//! Experiment A4 (comparison) — delay-model shootout over a tree corpus:
//! Wyatt single-pole \[16\], Kahng–Muddu two-pole from exact moments \[30\],
//! the paper's equivalent Elmore model (exact inversion and eq. 33 fit),
//! and AWE with 4 poles \[33\]–\[35\], all against transient simulation.
//!
//! Expected shape: EED ≈ two-pole accuracy at Elmore-like cost; AWE is the
//! most accurate but needs moments + eigen-solves; Wyatt collapses on
//! underdamped nets.
//!
//! Run with: `cargo run -p rlc-bench --bin fig_a4_model_shootout --release`

#![allow(clippy::expect_used, reason = "a figure aborts on a broken invariant")]

use eed::TreeAnalysis;
use rlc_awe::{awe_at_node, two_pole_at_node, ReducedOrderModel};
use rlc_bench::{section, sim_step_waveform, BenchError, FigureCsv, ShapeChecks};
use rlc_obs::TimeSource;
use rlc_tree::{topology, NodeId, RlcTree};
use rlc_units::Time;

struct Case {
    name: &'static str,
    tree: RlcTree,
    sink: NodeId,
}

fn corpus() -> Vec<Case> {
    let mut cases = Vec::new();
    let (t, s) = topology::single_line(4, section(40.0, 2.0, 0.3));
    cases.push(Case {
        name: "line-moderate",
        tree: t,
        sink: s,
    });
    let (t, s) = topology::single_line(6, section(12.0, 4.0, 0.35));
    cases.push(Case {
        name: "line-inductive",
        tree: t,
        sink: s,
    });
    let (t, n) = topology::fig5(section(25.0, 5.0, 0.5));
    cases.push(Case {
        name: "fig5-balanced",
        tree: t,
        sink: n.n7,
    });
    let (t, n) = topology::fig5_asymmetric(3.0, section(25.0, 3.0, 0.4));
    cases.push(Case {
        name: "fig5-asym3",
        tree: t,
        sink: n.n4,
    });
    let t = topology::balanced_tree(4, 2, section(30.0, 3.0, 0.4));
    let s = t.leaves().next().expect("sinks");
    cases.push(Case {
        name: "btree-4lvl",
        tree: t,
        sink: s,
    });
    let (t, s) = topology::single_line(8, section(80.0, 0.5, 0.4));
    cases.push(Case {
        name: "line-resistive",
        tree: t,
        sink: s,
    });
    cases
}

fn main() -> Result<(), BenchError> {
    let mut csv = FigureCsv::create(
        "fig_a4_model_shootout",
        "case,zeta,err_wyatt,err_two_pole,err_eed_exact,err_eed_fit,err_awe4",
    )?;
    println!(
        "{:<15} {:>6} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "case", "ζ", "wyatt", "two-pole", "eed", "eed-fit", "awe4"
    );
    let mut acc = [0.0f64; 5]; // mean errors per model
    let mut worst = [0.0f64; 5];
    let cases = corpus();
    for case in &cases {
        let timing = TreeAnalysis::new(&case.tree);
        let model = timing.model(case.sink);
        let wave = sim_step_waveform(&case.tree, case.sink, 500.0, 50.0);
        let sim = wave.delay_50(1.0).expect("crosses 50%").as_seconds();
        let err = |d: Time| ((d.as_seconds() - sim) / sim).abs();

        let wyatt = err(ReducedOrderModel::wyatt(model.elmore_time_constant())
            .delay_50()
            .expect("monotone"));
        let two = err(two_pole_at_node(&case.tree, case.sink)
            .expect("two-pole builds")
            .delay_50()
            .expect("crosses"));
        let eed_exact = err(model.delay_50_exact());
        let eed_fit = err(model.delay_50());
        let awe = err(awe_at_node(&case.tree, case.sink, 4)
            .expect("AWE builds")
            .delay_50()
            .expect("crosses"));
        let errs = [wyatt, two, eed_exact, eed_fit, awe];
        for (a, e) in acc.iter_mut().zip(errs) {
            *a += e / cases.len() as f64;
        }
        for (w, e) in worst.iter_mut().zip(errs) {
            *w = w.max(e);
        }
        csv.row(&[0.0, model.zeta(), wyatt, two, eed_exact, eed_fit, awe]);
        println!(
            "{:<15} {:>6.2} {:>8.2}% {:>8.2}% {:>8.2}% {:>8.2}% {:>8.2}%",
            case.name,
            model.zeta(),
            wyatt * 100.0,
            two * 100.0,
            eed_exact * 100.0,
            eed_fit * 100.0,
            awe * 100.0
        );
    }
    println!(
        "\nmean:  wyatt {:.2}%  two-pole {:.2}%  eed {:.2}%  eed-fit {:.2}%  awe4 {:.2}%",
        acc[0] * 100.0,
        acc[1] * 100.0,
        acc[2] * 100.0,
        acc[3] * 100.0,
        acc[4] * 100.0
    );

    // Cost comparison: model construction at ALL sinks of a large tree.
    let big = topology::balanced_tree(12, 2, section(25.0, 3.0, 0.4));
    let start = TimeSource::Wall.now();
    let analysis = TreeAnalysis::new(&big);
    std::hint::black_box(analysis.len());
    let eed_cost = start.elapsed();
    let sink = big.leaves().next().expect("sinks");
    let start = TimeSource::Wall.now();
    let _ = std::hint::black_box(awe_at_node(&big, sink, 4));
    let awe_cost = start.elapsed();
    println!(
        "cost on a {}-section tree: EED all-nodes {:?} vs AWE single-node {:?}",
        big.len(),
        eed_cost,
        awe_cost
    );
    println!("\nwrote {}", csv.finish()?.display());

    let mut checks = ShapeChecks::new();
    checks.check(
        "Wyatt is the worst model on average",
        acc[0] > acc[1] && acc[0] > acc[2] && acc[0] > acc[4],
    );
    checks.check(
        "AWE(4) is the most accurate on average",
        acc[4] <= acc[1] && acc[4] <= acc[2],
    );
    checks.check(
        "EED tracks the two-pole model (same order of accuracy)",
        acc[2] < 2.5 * acc[1] + 0.01,
    );
    checks.check(
        "the eq. 33 fit costs at most ~3 extra points of mean error",
        (acc[3] - acc[2]).abs() < 0.03,
    );
    checks.check(
        "EED analyzes 4095 nodes in the time AWE spends on a handful",
        eed_cost < awe_cost * 20,
    );

    checks.finish()
}
