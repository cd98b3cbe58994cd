//! Figure 12: accuracy versus tree asymmetry. The Fig. 5 topology with the
//! left-branch impedance scaled by `asym ∈ {1, 2, 4, 8}`; closed-form step
//! response vs simulation at the extreme sinks.
//!
//! Paper claims: the approximation deteriorates as the tree becomes more
//! asymmetric; delay errors can reach ~20% for highly asymmetric trees;
//! waveform-shape errors are even larger.
//!
//! Run with: `cargo run -p rlc-bench --bin fig12_asymmetry --release`

use eed::TreeAnalysis;
use rlc_bench::{
    delay_error, section, sim_step_waveform, waveform_error, BenchError, FigureCsv, ShapeChecks,
};
use rlc_tree::topology;

fn main() -> Result<(), BenchError> {
    let base = section(25.0, 4.0, 0.4);
    let asyms = [1.0, 2.0, 4.0, 8.0];

    let mut csv = FigureCsv::create("fig12_asymmetry", "asym,sink,delay_error,waveform_error")?;
    println!("asym   sink   delay err   waveform err");
    let mut worst_delay = Vec::new();
    let mut worst_wave = Vec::new();
    for &asym in &asyms {
        let (tree, nodes) = topology::fig5_asymmetric(asym, base);
        let timing = TreeAnalysis::new(&tree);
        let mut wd = 0.0f64;
        let mut ww = 0.0f64;
        for (label, sink) in [(4.0, nodes.n4), (7.0, nodes.n7)] {
            let model = timing.model(sink);
            let wave = sim_step_waveform(&tree, sink, 400.0, 40.0);
            let de = delay_error(model, &wave)?;
            let we = waveform_error(model, &wave);
            csv.row(&[asym, label, de, we]);
            println!(
                "{asym:<6} n{label:<5} {:<11.2}% {:.2}%",
                de * 100.0,
                we * 100.0
            );
            wd = wd.max(de);
            ww = ww.max(we);
        }
        worst_delay.push(wd);
        worst_wave.push(ww);
    }
    println!("\nwrote {}", csv.finish()?.display());

    let mut checks = ShapeChecks::new();
    checks.check(
        "delay error grows from balanced to highly asymmetric",
        worst_delay[3] > worst_delay[0] && worst_delay[3] > worst_delay[1],
    );
    checks.check(
        "delay error stays within the paper's ~20% band (allowing slack)",
        worst_delay.iter().all(|&e| e < 0.25),
    );
    checks.check(
        "waveform-shape error exceeds the delay error (paper Section V-B)",
        worst_wave.iter().zip(&worst_delay).all(|(&w, &d)| w > d),
    );

    checks.finish()
}
