//! Continuous wire sizing on the closed-form delay.
//!
//! Widening a wire trades resistance (down) against capacitance (up), so
//! the sink delay has an interior optimum in the width. Because the
//! paper's delay expression is continuous in the electrical parameters, a
//! derivative-free 1-D search on it converges without any simulation in
//! the loop — the property Section I advertises for synthesis.
//!
//! Every width probe rewrites every section of the chain, so each probe
//! simply re-times it from scratch with [`sized_delay`].

use eed::TreeAnalysis;
use rlc_tree::wire::WireModel;
use rlc_tree::RlcTree;
use rlc_units::{Capacitance, Time};

use crate::search::golden_min;

/// Result of a wire-sizing optimization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizedWire {
    /// Optimal width, as a multiple of the input wire's width.
    pub width: f64,
    /// Predicted 50% delay at the optimum.
    pub delay: Time,
}

/// The model 50% delay of `length_um` of `wire` widened by `width`,
/// driving `load`, discretized into `segments` sections.
///
/// # Panics
///
/// Panics if `width`, `length_um` or `segments` is not positive.
pub fn sized_delay(
    wire: &WireModel,
    width: f64,
    length_um: f64,
    load: Capacitance,
    segments: usize,
) -> Time {
    let sized = wire.widened(width);
    let mut tree = RlcTree::new();
    let sink = sized.route(&mut tree, None, length_um, segments);
    let sec = tree.section_mut(sink);
    *sec = sec.with_added_capacitance(load);
    TreeAnalysis::new(&tree).delay_50(sink)
}

/// Finds the width in `[min_width, max_width]` minimizing the sink delay,
/// by golden-section search on the closed-form delay.
///
/// # Panics
///
/// Panics if the bounds are not positive with `min_width < max_width`.
pub fn optimal_width(
    wire: &WireModel,
    length_um: f64,
    load: Capacitance,
    min_width: f64,
    max_width: f64,
) -> SizedWire {
    assert!(
        min_width > 0.0 && max_width > min_width,
        "width bounds must satisfy 0 < min < max, got [{min_width}, {max_width}]"
    );
    let f = |w: f64| sized_delay(wire, w, length_um, load, 8).as_seconds();
    let (width, delay) = golden_min(min_width, max_width, f);
    SizedWire {
        width,
        delay: Time::from_seconds(delay),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOAD: f64 = 120.0; // fF

    #[test]
    fn delay_has_an_interior_optimum() {
        let wire = WireModel::MINIMUM_WIDTH_SIGNAL;
        let load = Capacitance::from_femtofarads(LOAD);
        let best = optimal_width(&wire, 3000.0, load, 1.0, 64.0);
        assert!(
            best.width > 1.5 && best.width < 60.0,
            "width {}",
            best.width
        );
        // The optimum beats both extremes.
        let narrow = sized_delay(&wire, 1.0, 3000.0, load, 8);
        let wide = sized_delay(&wire, 64.0, 3000.0, load, 8);
        assert!(best.delay < narrow);
        assert!(best.delay < wide);
    }

    #[test]
    fn optimum_is_locally_flat() {
        let wire = WireModel::MINIMUM_WIDTH_SIGNAL;
        let load = Capacitance::from_femtofarads(LOAD);
        let best = optimal_width(&wire, 3000.0, load, 1.0, 64.0);
        for factor in [0.9, 1.1] {
            let nearby = sized_delay(&wire, best.width * factor, 3000.0, load, 8);
            assert!(
                nearby >= best.delay * 0.9999,
                "width {} should not beat the optimum",
                best.width * factor
            );
        }
    }

    #[test]
    fn longer_wires_want_wider_metal() {
        let wire = WireModel::MINIMUM_WIDTH_SIGNAL;
        let load = Capacitance::from_femtofarads(LOAD);
        let short = optimal_width(&wire, 1000.0, load, 1.0, 64.0);
        let long = optimal_width(&wire, 6000.0, load, 1.0, 64.0);
        assert!(
            long.width > short.width,
            "long {} vs short {}",
            long.width,
            short.width
        );
    }

    #[test]
    #[should_panic(expected = "width bounds")]
    fn rejects_inverted_bounds() {
        let _ = optimal_width(
            &WireModel::MINIMUM_WIDTH_SIGNAL,
            1000.0,
            Capacitance::ZERO,
            4.0,
            2.0,
        );
    }
}
