//! Output checks run after the timed phase: golden search outcomes for
//! the public rows, the golden sifting outcome for the sift jobs, and
//! complete (BDD) equivalence of the re-synthesized domino block for the
//! rows the fixture does not pin.

use domino_bdd::circuit::check_equivalence;
use domino_engine::{FlowOutcome, ObjectiveResult};
use domino_netlist::Network;
use domino_phase::{DominoSynthesizer, Phase, PhaseAssignment};

use crate::golden::Golden;
use crate::inputs::Check;

/// Both sides of a Compare outcome.
fn sides(outcome: &FlowOutcome) -> Result<[(&'static str, &ObjectiveResult); 2], String> {
    match (&outcome.ma, &outcome.mp) {
        (Some(ma), Some(mp)) => Ok([("MA", ma), ("MP", mp)]),
        _ => Err(format!("{}: compare outcome lacks a side", outcome.name)),
    }
}

/// Verifies `outcome` of a job over `net` as `check` prescribes.
///
/// # Errors
///
/// A description of the first mismatch.
pub fn check_outcome(
    check: &Check,
    net: &Network,
    outcome: &FlowOutcome,
    golden: &Golden,
) -> Result<(), String> {
    let sides = sides(outcome)?;
    match check {
        Check::Golden(name) => check_assignments(name, &sides, golden),
        Check::GoldenSift(name) => {
            check_assignments(name, &sides, golden)?;
            let want = golden
                .reorder
                .get(name)
                .ok_or_else(|| format!("no golden reorder row for {name}"))?;
            for (side, r) in sides {
                let got = r
                    .bdd
                    .reorder
                    .as_ref()
                    .ok_or_else(|| format!("{name} {side}: no reorder summary"))?;
                if got.swaps != want.swaps
                    || r.bdd.nodes != want.bdd_nodes
                    || got.final_order != want.order
                {
                    return Err(format!(
                        "{name} {side}: sift gave {} swaps / {} nodes, golden {} / {} (orders equal: {})",
                        got.swaps,
                        r.bdd.nodes,
                        want.swaps,
                        want.bdd_nodes,
                        got.final_order == want.order
                    ));
                }
            }
            Ok(())
        }
        Check::Equivalence => {
            let synth = DominoSynthesizer::new(net).map_err(|e| e.to_string())?;
            let view = synth.comb_view();
            for (side, r) in sides {
                let phases = r
                    .assignment
                    .chars()
                    .map(|c| {
                        if c == '-' {
                            Phase::Negative
                        } else {
                            Phase::Positive
                        }
                    })
                    .collect();
                let block = synth
                    .synthesize(&PhaseAssignment::from_phases(phases))
                    .map_err(|e| e.to_string())?;
                match check_equivalence(&view, &block.to_network()) {
                    Ok(None) => {}
                    Ok(Some(output)) => {
                        return Err(format!(
                            "{} {side}: block differs from the source at output {output}",
                            outcome.name
                        ))
                    }
                    Err(e) => return Err(format!("{} {side}: {e}", outcome.name)),
                }
            }
            Ok(())
        }
    }
}

fn check_assignments(
    name: &str,
    sides: &[(&'static str, &ObjectiveResult); 2],
    golden: &Golden,
) -> Result<(), String> {
    let want = golden
        .kernel
        .get(name)
        .ok_or_else(|| format!("no golden kernel row for {name}"))?;
    let [(_, ma), (_, mp)] = sides;
    if ma.assignment != want.ma_assignment || mp.assignment != want.mp_assignment {
        return Err(format!(
            "{name}: assignments MA {} / MP {} differ from golden MA {} / MP {}",
            ma.assignment, mp.assignment, want.ma_assignment, want.mp_assignment
        ));
    }
    Ok(())
}
