//! Experiment A5 (extension) — repeater insertion under RC vs RLC delay
//! models, reproducing the qualitative result of the authors' follow-on
//! study (*Effects of Inductance on the Propagation Delay and Repeater
//! Insertion in VLSI Circuits*, TVLSI 2000): ignoring inductance leads to
//! **over-insertion** — more, larger repeaters than the inductive wire
//! actually needs.
//!
//! Run with: `cargo run -p rlc-bench --bin fig_a5_repeater --release`

use rlc_bench::{BenchError, FigureCsv, ShapeChecks};
use rlc_opt::repeater::{self, Repeater};
use rlc_tree::wire::WireModel;
use rlc_units::Inductance;

fn main() -> Result<(), BenchError> {
    let lib = Repeater::typical_cmos_250nm();
    let rlc_wire = WireModel::CLOCK_SPINE;
    let rc_wire = WireModel::new(
        rlc_wire.resistance_per_um(),
        Inductance::ZERO,
        rlc_wire.capacitance_per_um(),
    );

    let mut csv = FigureCsv::create(
        "fig_a5_repeater",
        "length_um,count_rlc,size_rlc,delay_rlc_ps,count_rc,size_rc,delay_rc_model_ps,delay_rc_plan_on_rlc_ps",
    )?;
    println!("length    RLC plan (k, h, delay)        RC plan (k, h)   RC plan cost on RLC wire");
    let mut over_insertion = Vec::new();
    let mut penalty = Vec::new();
    for length in [2_000.0, 5_000.0, 10_000.0, 20_000.0] {
        let plan_rlc = repeater::optimize(&rlc_wire, length, &lib);
        let plan_rc = repeater::optimize(&rc_wire, length, &lib);
        // What happens if the RC-derived plan is applied to the real
        // (inductive) wire:
        let rc_plan_cost =
            repeater::total_delay(&rlc_wire, length, plan_rc.count, plan_rc.size, &lib);
        csv.row(&[
            length,
            plan_rlc.count as f64,
            plan_rlc.size,
            plan_rlc.delay.as_picoseconds(),
            plan_rc.count as f64,
            plan_rc.size,
            plan_rc.delay.as_picoseconds(),
            rc_plan_cost.as_picoseconds(),
        ]);
        println!(
            "{length:<9} k={:<3} h={:<6.1} {:<12} k={:<3} h={:<6.1} {}",
            plan_rlc.count,
            plan_rlc.size,
            plan_rlc.delay.to_string(),
            plan_rc.count,
            plan_rc.size,
            rc_plan_cost,
        );
        over_insertion.push(plan_rc.count as i64 - plan_rlc.count as i64);
        penalty.push(rc_plan_cost.as_seconds() / plan_rlc.delay.as_seconds());
    }
    println!("\nwrote {}", csv.finish()?.display());

    let mut checks = ShapeChecks::new();
    checks.check(
        "the RC model never calls for fewer repeaters than the RLC model",
        over_insertion.iter().all(|&d| d >= 0),
    );
    checks.check(
        "the RC model over-inserts on at least the longer wires",
        over_insertion.iter().any(|&d| d > 0),
    );
    checks.check(
        "applying the RC plan to the real wire costs delay (≥ the RLC plan)",
        penalty.iter().all(|&p| p >= 0.999),
    );

    checks.finish()
}
