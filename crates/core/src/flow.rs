//! The overall power-minimization paradigm (paper Figure 6).
//!
//! ```text
//!   generate initial phase assignment
//!        │
//!        ▼
//!   partition sequential circuit (enhanced MFVS)  ┐
//!   compute signal probabilities (ordered BDDs)   ┴ power estimation
//!        │
//!        ▼
//!   generate new candidate phase assignment (cost K) ──► measure ──► commit?
//!        │                                                   ▲
//!        └──────────────── candidates left ──────────────────┘
//!        ▼
//!   output final phase assignment
//! ```
//!
//! [`minimize_power`] runs the whole loop; [`minimize_area`] runs the
//! baseline of Puri et al. \[15\] through the same reporting path so the two
//! are directly comparable (Tables 1 and 2). Both compute the
//! probabilities and then call [`minimize`], the search-and-synthesis half
//! the engine runs once per side over one shared kernel.

use domino_netlist::Network;

use crate::error::PhaseError;
use crate::phase_assignment::PhaseAssignment;
use crate::power::{estimate_power, PowerBreakdown};
use crate::prob::{compute_probabilities, NodeProbabilities, ProbabilityConfig};
use crate::search::{
    min_area_assignment, min_power_assignment, MinAreaConfig, MinPowerConfig, SearchOutcome,
};
use crate::synth::{DominoNetwork, DominoSynthesizer};

/// Configuration of the full flow.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlowConfig {
    /// Signal-probability machinery (ordering, MFVS, sweeps).
    pub probability: ProbabilityConfig,
    /// The min-power search (§4.1).
    pub power: MinPowerConfig,
    /// The min-area baseline search.
    pub area: MinAreaConfig,
}

/// Everything the flow produced for one circuit.
#[derive(Debug, Clone)]
pub struct FlowReport {
    /// Final phase assignment.
    pub assignment: PhaseAssignment,
    /// The synthesized inverter-free block under that assignment.
    pub domino: DominoNetwork,
    /// Estimated switching-weighted power of the block.
    pub power: PowerBreakdown,
    /// Cell count (domino gates + boundary inverters).
    pub area_cells: usize,
    /// Search statistics (evaluations, commits, convergence trace).
    pub outcome: SearchOutcome,
}

/// Runs the paper's full minimum-power flow on `net` with the given primary
/// input probabilities.
///
/// # Errors
///
/// * [`PhaseError::ProbabilityMismatch`] if `pi_probs` does not match the
///   primary input count;
/// * [`PhaseError::Netlist`] / [`PhaseError::Bdd`] from validation or BDD
///   blow-up.
///
/// # Example
///
/// ```
/// use domino_phase::flow::{minimize_power, FlowConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut net = domino_netlist::Network::new("ex");
/// let a = net.add_input("a")?;
/// let b = net.add_input("b")?;
/// let g = net.add_or([a, b])?;
/// let f = net.add_not(g)?;
/// net.add_output("f", f)?;
/// let report = minimize_power(&net, &[0.9, 0.9], &FlowConfig::default())?;
/// assert!(report.domino.is_inverter_free());
/// # Ok(())
/// # }
/// ```
pub fn minimize_power(
    net: &Network,
    pi_probs: &[f64],
    config: &FlowConfig,
) -> Result<FlowReport, PhaseError> {
    let probabilities = compute_probabilities(net, pi_probs, &config.probability)?;
    minimize(
        &DominoSynthesizer::new(net)?,
        &probabilities,
        false,
        config,
        &|| false,
    )
}

/// Runs the minimum-area baseline (\[15\]) and reports its power under the
/// same estimate, for MA-vs-MP comparisons.
///
/// # Errors
///
/// Same conditions as [`minimize_power`].
pub fn minimize_area(
    net: &Network,
    pi_probs: &[f64],
    config: &FlowConfig,
) -> Result<FlowReport, PhaseError> {
    let probabilities = compute_probabilities(net, pi_probs, &config.probability)?;
    minimize(
        &DominoSynthesizer::new(net)?,
        &probabilities,
        true,
        config,
        &|| false,
    )
}

/// The flow after the probability stage, over a caller-owned synthesizer
/// and probabilities: the min-area search (`area`) or the min-power
/// search, synthesis of the winning assignment, and its power estimate
/// under `config.power.model`. A caller that runs both objectives on one
/// circuit builds the synthesizer and the probabilities once and calls
/// this per side.
///
/// `is_cancelled` is consulted before the search and again before the
/// synthesis, so a caller holding a cancel flag (e.g. a `dominod` worker
/// observing `DELETE /jobs/:id`) gets a bounded response time instead of
/// waiting out the whole flow. The check is a plain closure so this crate
/// stays independent of any particular token type.
///
/// # Errors
///
/// [`PhaseError::Cancelled`] when `is_cancelled` returns `true` at a
/// boundary, plus the search's and the synthesis's own errors.
pub fn minimize(
    synth: &DominoSynthesizer<'_>,
    probabilities: &NodeProbabilities,
    area: bool,
    config: &FlowConfig,
    is_cancelled: &dyn Fn() -> bool,
) -> Result<FlowReport, PhaseError> {
    check_cancel(is_cancelled)?;
    let outcome = if area {
        min_area_assignment(synth, &config.area)?
    } else {
        let initial = PhaseAssignment::all_positive(synth.view_outputs().len());
        min_power_assignment(synth, probabilities, initial, &config.power)?
    };
    check_cancel(is_cancelled)?;
    let domino = synth.synthesize(&outcome.assignment)?;
    let power = estimate_power(&domino, probabilities.as_slice(), &config.power.model);
    Ok(FlowReport {
        assignment: outcome.assignment.clone(),
        area_cells: domino.area_cells(),
        domino,
        power,
        outcome,
    })
}

fn check_cancel(is_cancelled: &dyn Fn() -> bool) -> Result<(), PhaseError> {
    if is_cancelled() {
        Err(PhaseError::Cancelled)
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase_assignment::Phase;

    fn fig5() -> Network {
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
        net
    }

    #[test]
    fn ma_and_mp_can_differ() {
        // The paper's core claim: minimum area ≠ minimum power.
        let net = fig5();
        let pi = vec![0.9; 4];
        let cfg = FlowConfig::default();
        let ma = minimize_area(&net, &pi, &cfg).unwrap();
        let mp = minimize_power(&net, &pi, &cfg).unwrap();
        assert!(mp.power.total() <= ma.power.total() + 1e-12);
        // At p = 0.9 the saving is large (75% including boundaries).
        assert!(mp.power.total() < 0.5 * ma.power.total());
        // MP found the (f−, g+) assignment.
        assert_eq!(mp.assignment.phase(0), Phase::Negative);
        assert_eq!(mp.assignment.phase(1), Phase::Positive);
    }

    #[test]
    fn reports_are_consistent() {
        let net = fig5();
        let pi = vec![0.5; 4];
        let report = minimize_power(&net, &pi, &FlowConfig::default()).unwrap();
        assert_eq!(report.area_cells, report.domino.area_cells());
        assert!((report.power.total() - report.outcome.objective).abs() < 1e-9);
        assert!(report.domino.is_inverter_free());
        assert_eq!(report.assignment.len(), 2);
    }

    #[test]
    fn sequential_flow_runs() {
        // A small FSM exercises partition + probability sweeps end to end.
        let mut net = Network::new("fsm");
        let a = net.add_input("a").unwrap();
        let q0 = net.add_latch(false);
        let q1 = net.add_latch(false);
        let nq1 = net.add_not(q1).unwrap();
        let d0 = net.add_and([a, nq1]).unwrap();
        let d1 = net.add_or([q0, q1]).unwrap();
        net.set_latch_data(q0, d0).unwrap();
        net.set_latch_data(q1, d1).unwrap();
        let out = net.add_and([q0, q1]).unwrap();
        net.add_output("o", out).unwrap();
        let config = FlowConfig::default();
        let report = minimize_power(&net, &[0.7], &config).unwrap();
        // View outputs: o, q0.d, q1.d.
        assert_eq!(report.assignment.len(), 3);
        assert!(report.domino.is_inverter_free());
        let probs = compute_probabilities(&net, &[0.7], &config.probability).unwrap();
        assert!(probs.partition().is_some());
    }

    #[test]
    fn wrong_probability_count_rejected() {
        let net = fig5();
        assert!(matches!(
            minimize_power(&net, &[0.5], &FlowConfig::default()),
            Err(PhaseError::ProbabilityMismatch { .. })
        ));
    }
}
