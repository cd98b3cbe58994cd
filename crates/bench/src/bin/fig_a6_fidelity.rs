//! Experiment A6 (extension) — **fidelity** of the equivalent Elmore
//! model as an optimization objective.
//!
//! The paper's Section I argues that Elmore-class models are used for
//! synthesis because of their *fidelity*: "an optimal or near-optimal
//! solution achieved by a design methodology based on the Elmore delay is
//! also near-optimal based on a more accurate delay" \[25\]. This binary
//! tests that claim for buffer insertion on RLC nets: van Ginneken's DP
//! (driven by Elmore constants) picks a placement; exhaustive search
//! scored by the *full RLC model* finds the true optimum; we report how
//! close the Elmore choice lands.
//!
//! Run with: `cargo run -p rlc-bench --bin fig_a6_fidelity --release`

use rlc_bench::{BenchError, FigureCsv, ShapeChecks};
use rlc_opt::buffering;
use rlc_opt::repeater::Repeater;
use rlc_tree::{topology, NodeId, RlcTree};
use rlc_units::{Capacitance, Inductance, Resistance, Time};

fn corpus() -> Vec<(String, RlcTree)> {
    let mut cases = Vec::new();
    // Resistive nets: the regime classic buffer insertion was built for.
    for seed in 0..6u64 {
        let tree = topology::random_tree(
            seed,
            7,
            (Resistance::from_ohms(50.0), Resistance::from_ohms(500.0)),
            (
                Inductance::from_picohenries(50.0),
                Inductance::from_nanohenries(1.0),
            ),
            (
                Capacitance::from_femtofarads(50.0),
                Capacitance::from_picofarads(0.8),
            ),
        );
        cases.push((format!("random-{seed}"), tree));
    }
    // Strongly inductive nets: where the Elmore objective and the RLC
    // objective could plausibly diverge — the stress case for fidelity.
    for seed in 0..4u64 {
        let tree = topology::random_tree(
            100 + seed,
            7,
            (Resistance::from_ohms(5.0), Resistance::from_ohms(60.0)),
            (
                Inductance::from_nanohenries(2.0),
                Inductance::from_nanohenries(12.0),
            ),
            (
                Capacitance::from_femtofarads(100.0),
                Capacitance::from_picofarads(0.6),
            ),
        );
        cases.push((format!("inductive-{seed}"), tree));
    }
    cases
}

fn main() -> Result<(), BenchError> {
    let lib = Repeater::typical_cmos_250nm();
    let size = 15.0;
    let driver = Resistance::from_ohms(400.0);

    let mut csv = FigureCsv::create(
        "fig_a6_fidelity",
        "case,elmore_choice_delay_ps,true_optimum_delay_ps,excess_percent,rank",
    )?;
    println!("case        Elmore-chosen (RLC-timed)   true RLC optimum   excess   rank/128");
    let mut excesses = Vec::new();
    let mut ranks = Vec::new();
    for (idx, (name, tree)) in corpus().into_iter().enumerate() {
        let sol = buffering::van_ginneken(&tree, driver, &lib, size);
        let chosen = buffering::evaluate(&tree, &sol.buffers, driver, &lib, size);

        // Exhaustive search over all 2^7 placements, scored by the RLC
        // model.
        let nodes: Vec<NodeId> = tree.node_ids().collect();
        let mut all: Vec<Time> = Vec::with_capacity(1 << nodes.len());
        let mut best = Time::from_seconds(f64::INFINITY);
        for mask in 0u32..(1 << nodes.len()) {
            let set: Vec<NodeId> = nodes
                .iter()
                .enumerate()
                .filter(|(k, _)| mask & (1 << k) != 0)
                .map(|(_, &n)| n)
                .collect();
            let d = buffering::evaluate(&tree, &set, driver, &lib, size);
            best = best.min(d);
            all.push(d);
        }
        let excess = chosen.as_seconds() / best.as_seconds() - 1.0;
        let rank = all
            .iter()
            .filter(|d| d.as_seconds() < chosen.as_seconds() * (1.0 - 1e-12))
            .count()
            + 1;
        excesses.push(excess);
        ranks.push(rank);
        csv.row(&[
            idx as f64,
            chosen.as_picoseconds(),
            best.as_picoseconds(),
            excess * 100.0,
            rank as f64,
        ]);
        println!(
            "{name:<11} {:<27} {:<18} {:<8} {rank}/128",
            chosen.to_string(),
            best.to_string(),
            format!("{:.2}%", excess * 100.0),
        );
    }
    let mean_excess = excesses.iter().sum::<f64>() / excesses.len() as f64;
    let worst_excess = excesses.iter().cloned().fold(0.0f64, f64::max);
    println!(
        "\nmean excess over the true optimum: {:.2}%; worst {:.2}%",
        mean_excess * 100.0,
        worst_excess * 100.0
    );
    println!("wrote {}", csv.finish()?.display());

    let mut checks = ShapeChecks::new();
    checks.check(
        "the Elmore-chosen placement is within 10% of the true RLC optimum on average",
        mean_excess < 0.10,
    );
    checks.check("no case exceeds 30% excess", worst_excess < 0.30);
    checks.check(
        "the Elmore choice ranks in the top 10% of all 128 placements in most cases",
        ranks.iter().filter(|&&r| r <= 13).count() * 2 > ranks.len(),
    );

    checks.finish()
}
