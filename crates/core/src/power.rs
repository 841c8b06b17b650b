//! The domino switching/power model (paper §2 and §4.2).
//!
//! Per clock cycle, with `p` the signal probability of the relevant logical
//! value:
//!
//! | element | switching probability | paper evidence |
//! |---|---|---|
//! | domino gate | `p` | Property 2.1 |
//! | static inverter at an *output* boundary | `p(driver)` | Figure 5: `.8019` / `.0019` |
//! | static inverter at an *input* boundary | `2·p·(1−p)` | Figure 5: `.18` per input at `p = 0.9` |
//! | generic static gate (Figure 2 comparison) | `2·p·(1−p)` | Figure 2 parabola |
//!
//! An output-boundary inverter is driven by a pulsing domino output, so it
//! switches whenever the driver evaluates high; an input-boundary inverter
//! is driven by a stable primary input, so it only toggles when consecutive
//! vectors differ. Domino gates never glitch (Property 2.2), which is what
//! makes these zero-delay probabilities *exact*.
//!
//! The block power estimate is the paper's `Σ Sᵢ·Cᵢ·Pᵢ` (§4.2) with
//! per-gate capacitance `Cᵢ` and a structure penalty `Pᵢ` (series-stack AND
//! gates can be penalized to discourage slow structures).

use crate::synth::{DominoGateKind, DominoNetwork, DominoRef};

/// Fractional bits of the fixed-point power representation: one unit is
/// `2⁻⁴⁰ ≈ 9.1e-13` switching-weight, the same order as the historical
/// `1e-12` commit margin of the searches.
pub const POWER_FRAC_BITS: u32 = 40;

/// The fixed-point scale factor, `2^POWER_FRAC_BITS` as an `f64` (exact —
/// it is a power of two).
pub const POWER_SCALE: f64 = (1u64 << POWER_FRAC_BITS) as f64;

/// An integer-scaled power value: switching-weight units of `2⁻⁴⁰`.
///
/// # Scaling contract
///
/// Every per-element power weight (a domino gate's `S·C·P` contribution, a
/// boundary inverter's toggle weight) is quantized **once**, at the element
/// level, by [`power_to_fixed`] — round-to-nearest onto the `2⁻⁴⁰` grid.
/// Totals are then plain integer sums of those quantized weights, which
/// makes them
///
/// * **path-independent** — integer addition is associative and
///   commutative, so any accumulation order (a walk of Gray-code flips, a
///   freshly seeded accountant, a scored delta added to a total) produces
///   the *same bits*;
/// * **exactly reversible** — adding and later subtracting an element's
///   weight restores the previous total exactly, so incremental
///   accountants never drift from a full recomputation.
///
/// Quantization error is at most `2⁻⁴¹` per element, so a total over `k`
/// elements is within `k·2⁻⁴¹` (≈ `5e-10` for a million elements) of the
/// real-valued sum. Overflow is impossible in practice: an `i64`
/// accommodates total weights up to `2²³ ≈ 8.4e6` (callers keep per-element
/// weights below that; the paper's models use unit-order weights).
pub type FixedPower = i64;

/// Quantizes one element weight onto the `2⁻⁴⁰` fixed-point grid
/// (round-to-nearest). See the [`FixedPower`] scaling contract.
///
/// ```
/// use domino_phase::power::{fixed_to_power, power_to_fixed, POWER_SCALE};
///
/// let w = power_to_fixed(0.8019);
/// assert!((fixed_to_power(w) - 0.8019).abs() <= 0.5 / POWER_SCALE);
/// // Integer totals merge by addition, independent of order.
/// assert_eq!(w + power_to_fixed(0.18), power_to_fixed(0.18) + w);
/// ```
pub fn power_to_fixed(weight: f64) -> FixedPower {
    debug_assert!(weight.is_finite(), "power weights must be finite");
    (weight * POWER_SCALE).round() as FixedPower
}

/// Converts a fixed-point total back to switching-weight units (exact for
/// totals below `2⁵³` units, i.e. total weight below `2¹³`; rounds above).
pub fn fixed_to_power(fixed: FixedPower) -> f64 {
    fixed as f64 / POWER_SCALE
}

/// Switching probability of a domino gate whose logical output has signal
/// probability `p` (Property 2.1 — the identity function).
pub fn domino_switching(p: f64) -> f64 {
    p
}

/// Switching probability of a static CMOS gate under the temporal
/// independence toggle model: `2·p·(1−p)` (the Figure 2 parabola).
pub fn static_switching(p: f64) -> f64 {
    2.0 * p * (1.0 - p)
}

/// Per-element weights of the power estimate `Σ Sᵢ·Cᵢ·Pᵢ`.
///
/// The paper's experiments use `Cᵢ = 1` and `Pᵢ = 0`; a zero penalty would
/// erase the objective entirely under a literal reading, so — matching what
/// the paper *says it did* ("we effectively determined the phase assignment
/// that minimized the total switching activity") — the default model uses
/// unit weights, making power = total switching.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Output capacitance `Cᵢ` of every domino gate.
    pub gate_cap: f64,
    /// Structure penalty `Pᵢ` for AND (series-stack) domino gates.
    pub and_penalty: f64,
    /// Structure penalty `Pᵢ` for OR (parallel-stack) domino gates.
    pub or_penalty: f64,
    /// Capacitance of boundary static inverters.
    pub inverter_cap: f64,
}

impl PowerModel {
    /// Unit weights: power = total switching activity (the paper's
    /// experimental setting).
    pub fn unit() -> Self {
        PowerModel {
            gate_cap: 1.0,
            and_penalty: 1.0,
            or_penalty: 1.0,
            inverter_cap: 1.0,
        }
    }

    /// A timing-aware variant that penalizes series-stack ANDs (the `Pᵢ`
    /// discussion of §4.2): AND gates cost `and_penalty ×` their switching.
    pub fn with_and_penalty(and_penalty: f64) -> Self {
        PowerModel {
            and_penalty,
            ..PowerModel::unit()
        }
    }

    /// Weight of one gate of the given kind.
    pub fn gate_weight(&self, kind: DominoGateKind) -> f64 {
        let penalty = match kind {
            DominoGateKind::And => self.and_penalty,
            DominoGateKind::Or => self.or_penalty,
        };
        self.gate_cap * penalty
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel::unit()
    }
}

/// Estimated switching-weighted power, broken down by element class
/// (Figure 5's three rows).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PowerBreakdown {
    /// Domino gates inside the block.
    pub block: f64,
    /// Static inverters at the input boundary.
    pub input_inverters: f64,
    /// Static inverters at the output boundary.
    pub output_inverters: f64,
}

impl PowerBreakdown {
    /// Total over all element classes.
    pub fn total(&self) -> f64 {
        self.block + self.input_inverters + self.output_inverters
    }
}

/// Estimates the power of a synthesized domino block.
///
/// `node_probs[i]` must be the signal probability of original-network node
/// with arena index `i` (from [`prob`](crate::prob)); a gate realizing the
/// complement of node `n` has probability `1 − node_probs[n]`
/// (Property 4.1, exact for complements).
///
/// # Example
///
/// ```
/// use domino_phase::power::{estimate_power, PowerModel};
/// use domino_phase::prob::{compute_probabilities, ProbabilityConfig};
/// use domino_phase::{DominoSynthesizer, PhaseAssignment};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let net = domino_workloads::figures::fig5_network()?;
/// let probs = compute_probabilities(&net, &[0.9; 4], &ProbabilityConfig::default())?;
/// let synth = DominoSynthesizer::new(&net)?;
/// let domino = synth.synthesize(&PhaseAssignment::all_positive(2))?;
/// let power = estimate_power(&domino, probs.as_slice(), &PowerModel::unit());
/// assert!(power.total() > 0.0);
/// assert_eq!(
///     power.total(),
///     power.block + power.input_inverters + power.output_inverters,
/// );
/// # Ok(())
/// # }
/// ```
pub fn estimate_power(
    domino: &DominoNetwork,
    node_probs: &[f64],
    model: &PowerModel,
) -> PowerBreakdown {
    let mut breakdown = PowerBreakdown::default();
    for gate in domino.gates() {
        let p = rail_probability(node_probs[gate.source.index()], gate.complemented);
        breakdown.block += domino_switching(p) * model.gate_weight(gate.kind);
    }
    for &src in domino.input_inverters() {
        let p = node_probs[src.index()];
        breakdown.input_inverters += static_switching(p) * model.inverter_cap;
    }
    for out in domino.outputs() {
        if !out.phase.is_negative() {
            continue;
        }
        // The boundary inverter pulses with its (domino) driver.
        let p = ref_probability(domino, out.driver, node_probs);
        breakdown.output_inverters += domino_switching(p) * model.inverter_cap;
    }
    breakdown
}

/// Probability that a rail (possibly complemented) is high.
pub fn rail_probability(p: f64, complemented: bool) -> f64 {
    if complemented {
        1.0 - p
    } else {
        p
    }
}

/// Probability that a [`DominoRef`] rail is high, given original-network
/// node probabilities.
pub fn ref_probability(domino: &DominoNetwork, r: DominoRef, node_probs: &[f64]) -> f64 {
    match r {
        DominoRef::Gate(i) => {
            let g = &domino.gates()[i];
            rail_probability(node_probs[g.source.index()], g.complemented)
        }
        DominoRef::Source { node, complemented } => {
            rail_probability(node_probs[node.index()], complemented)
        }
        DominoRef::Constant(v) => {
            if v {
                1.0
            } else {
                0.0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase_assignment::PhaseAssignment;
    use crate::synth::DominoSynthesizer;
    use domino_netlist::Network;

    #[test]
    fn switching_models_match_figure2() {
        // Domino: straight line through (0,0), (0.5,0.5), (1,1).
        assert_eq!(domino_switching(0.0), 0.0);
        assert_eq!(domino_switching(0.5), 0.5);
        assert_eq!(domino_switching(1.0), 1.0);
        // Static: parabola peaking at 0.5 with value 0.5.
        assert_eq!(static_switching(0.0), 0.0);
        assert_eq!(static_switching(1.0), 0.0);
        assert!((static_switching(0.5) - 0.5).abs() < 1e-12);
        assert!((static_switching(0.9) - 0.18).abs() < 1e-12);
        // Domino switches more than static everywhere above p = 0.5.
        for i in 1..10 {
            let p = 0.5 + i as f64 / 20.0;
            assert!(domino_switching(p) > static_switching(p));
        }
    }

    /// Reconstruct Figure 5 exactly: f = (a+b)+(c·d), g = !(a+b)+!(c·d),
    /// all PI probabilities 0.9.
    fn fig5() -> (Network, Vec<f64>) {
        let mut net = Network::new("fig5");
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        let c = net.add_input("c").unwrap();
        let d = net.add_input("d").unwrap();
        let aob = net.add_or([a, b]).unwrap();
        let cad = net.add_and([c, d]).unwrap();
        let f = net.add_or([aob, cad]).unwrap();
        let naob = net.add_not(aob).unwrap();
        let ncad = net.add_not(cad).unwrap();
        let g = net.add_or([naob, ncad]).unwrap();
        net.add_output("f", f).unwrap();
        net.add_output("g", g).unwrap();
        // Exact node probabilities at p(PI) = 0.9.
        let mut probs = vec![0.0; net.len()];
        probs[a.index()] = 0.9;
        probs[b.index()] = 0.9;
        probs[c.index()] = 0.9;
        probs[d.index()] = 0.9;
        probs[aob.index()] = 0.99;
        probs[cad.index()] = 0.81;
        probs[f.index()] = 1.0 - 0.01 * 0.19; // .9981
        probs[naob.index()] = 0.01;
        probs[ncad.index()] = 0.19;
        probs[g.index()] = 1.0 - 0.99 * 0.81; // .1981
        (net, probs)
    }

    #[test]
    fn figure5_first_assignment() {
        // (f+, g−): block computes f and !g = (a+b)·(c·d).
        let (net, probs) = fig5();
        let synth = DominoSynthesizer::new(&net).unwrap();
        let mut pa = PhaseAssignment::all_positive(2);
        pa.flip(1);
        let d = synth.synthesize(&pa).unwrap();
        let power = estimate_power(&d, &probs, &PowerModel::unit());
        // Block: .99 + .81 + .9981 + .8019 = 3.6
        assert!((power.block - 3.6).abs() < 1e-9, "block = {}", power.block);
        assert!((power.input_inverters - 0.0).abs() < 1e-12);
        assert!(
            (power.output_inverters - 0.8019).abs() < 1e-9,
            "out = {}",
            power.output_inverters
        );
        assert!((power.total() - 4.4019).abs() < 1e-9);
    }

    #[test]
    fn figure5_second_assignment() {
        // (f−, g+): block computes !f = !(a+b)·!(c·d) and g.
        let (net, probs) = fig5();
        let synth = DominoSynthesizer::new(&net).unwrap();
        let mut pa = PhaseAssignment::all_positive(2);
        pa.flip(0);
        let d = synth.synthesize(&pa).unwrap();
        let power = estimate_power(&d, &probs, &PowerModel::unit());
        // Block: .01 + .19 + .0019 + .1981 = 0.40
        assert!((power.block - 0.40).abs() < 1e-9, "block = {}", power.block);
        // Four input inverters at 2·.9·.1 = .18 each.
        assert!(
            (power.input_inverters - 0.72).abs() < 1e-9,
            "in = {}",
            power.input_inverters
        );
        assert!(
            (power.output_inverters - 0.0019).abs() < 1e-9,
            "out = {}",
            power.output_inverters
        );
        // Totals: 1.1219 vs 4.4019 — "75% fewer transitions".
        let reduction = 1.0 - power.total() / 4.4019;
        assert!(
            reduction > 0.74 && reduction < 0.76,
            "reduction {reduction}"
        );
    }

    #[test]
    fn and_penalty_weights_series_gates() {
        let mut net = Network::new("t");
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        let g = net.add_and([a, b]).unwrap();
        net.add_output("f", g).unwrap();
        let synth = DominoSynthesizer::new(&net).unwrap();
        let d = synth.synthesize(&PhaseAssignment::all_positive(1)).unwrap();
        let probs = {
            let mut p = vec![0.5; net.len()];
            p[g.index()] = 0.25;
            p
        };
        let unit = estimate_power(&d, &probs, &PowerModel::unit());
        let penalized = estimate_power(&d, &probs, &PowerModel::with_and_penalty(3.0));
        assert!((penalized.block - 3.0 * unit.block).abs() < 1e-12);
    }

    #[test]
    fn breakdown_total_sums_components() {
        let b = PowerBreakdown {
            block: 1.5,
            input_inverters: 0.25,
            output_inverters: 0.75,
        };
        assert!((b.total() - 2.5).abs() < 1e-12);
    }
}
