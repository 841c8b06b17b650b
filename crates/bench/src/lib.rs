//! Shared harness for the experiment binaries: runs circuits through the
//! minimum-area and minimum-power flows (untimed or timed), measures power
//! with the PowerMill-substitute simulator, and formats paper-style rows.
//!
//! Since the `domino-engine` subsystem landed, this crate no longer executes
//! flows itself: [`Experiment`] lowers its knobs into an engine
//! [`JobSpec`] and every run goes through
//! [`domino_engine::run_job`] — the same code path as the `dominoc` CLI —
//! so results are cacheable, batchable and identical across the binaries
//! and the CLI. [`Experiment::compare_batch`] fans a whole suite out over a
//! [`FlowEngine`] thread pool.
//!
//! Every table and figure of the paper has a binary in `src/bin/`:
//!
//! | binary | regenerates |
//! |---|---|
//! | `table1` | Table 1 — untimed MA vs MP, p(PI) = 0.5 |
//! | `table2` | Table 2 — timed (resized) MA vs MP |
//! | `fig2` | Figure 2 — switching vs signal probability curves |
//! | `fig3` | Figure 3 — inverter removal by phase change |
//! | `fig4` | Figure 4 — trapped-inverter logic duplication |
//! | `fig5` | Figure 5 — switching totals of two assignments |
//! | `fig6` | Figure 6 — convergence trace of the minimization loop |
//! | `fig7` | Figure 7 — sequential partition quality |
//! | `fig9` | Figure 9 — the symmetry MFVS transformation |
//! | `fig10` | Figure 10 — BDD variable ordering comparison |
//! | `ablations` | DESIGN.md A1–A5 design-choice studies |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod check;
pub mod fleet_probe;
pub mod serve_probe;

use domino_engine::{
    run_job, EngineError, FlowEngine, FlowJob, JobResult, JobSpec, PiSpec, RunObjective,
};
use domino_netlist::Network;
use domino_phase::flow::FlowConfig;
use domino_sim::SimConfig;
use domino_techmap::Library;

/// One side (MA or MP) of a table row — the engine's pure-data result.
///
/// `size` is the mapped cell count (the "Size" column), [`power_ma`] the
/// simulated current (the "Pwr" column).
///
/// [`power_ma`]: domino_engine::ObjectiveResult::power_ma
pub type FlowResult = domino_engine::ObjectiveResult;

/// MA-vs-MP comparison for one circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Circuit name.
    pub name: String,
    /// Minimum-area flow result.
    pub ma: FlowResult,
    /// Minimum-power flow result.
    pub mp: FlowResult,
    /// The shared clock target of a timed run, ps.
    pub clock_ps: Option<f64>,
}

impl Comparison {
    /// `% Area Pen.` column: MP size overhead relative to MA.
    pub fn area_penalty_pct(&self) -> f64 {
        100.0 * (self.mp.size as f64 - self.ma.size as f64) / self.ma.size as f64
    }

    /// `% Pwr Sav.` column: MP power saving relative to MA.
    pub fn power_saving_pct(&self) -> f64 {
        100.0 * (self.ma.power_ma() - self.mp.power_ma()) / self.ma.power_ma()
    }

    fn from_outcome(outcome: domino_engine::FlowOutcome) -> Result<Self, EngineError> {
        match (outcome.ma, outcome.mp) {
            (Some(ma), Some(mp)) => Ok(Comparison {
                name: outcome.name,
                ma,
                mp,
                clock_ps: outcome.clock_ps,
            }),
            _ => Err(EngineError::Spec(
                "comparison outcome is missing a side".into(),
            )),
        }
    }
}

/// Experiment knobs shared by the table binaries.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Primary-input signal probability (the paper uses 0.5).
    pub pi_probability: f64,
    /// Flow configuration (search + probability machinery).
    pub flow: FlowConfig,
    /// Cell library.
    pub library: Library,
    /// Simulation length/seed.
    pub sim: SimConfig,
    /// Timed synthesis: resize to meet this fraction of the unsized MA
    /// delay (None = untimed, Table 1).
    pub timing_fraction: Option<f64>,
    /// `P_i` penalty for series-stack AND gates in the MP objective (§4.2):
    /// timed runs set this so the power search avoids structures the sizer
    /// cannot rescue.
    pub mp_and_penalty: Option<f64>,
}

impl Default for Experiment {
    fn default() -> Self {
        Experiment {
            pi_probability: 0.5,
            flow: FlowConfig::default(),
            library: Library::standard(),
            sim: SimConfig::default(),
            timing_fraction: None,
            mp_and_penalty: None,
        }
    }
}

impl Experiment {
    /// Lowers these knobs into an engine [`JobSpec`] for `net` (serialized
    /// as inline BLIF, so the spec is self-contained and cacheable).
    pub fn to_spec(&self, name: &str, net: &Network, objective: RunObjective) -> JobSpec {
        let mut spec = JobSpec::for_network(name, net);
        spec.objective = objective;
        spec.pi = PiSpec::Uniform(self.pi_probability);
        spec.flow = self.flow.clone();
        spec.library = self.library.clone();
        spec.sim = self.sim;
        spec.timing_fraction = self.timing_fraction;
        spec.mp_and_penalty = self.mp_and_penalty;
        spec
    }

    /// Builds a resolved engine job for `net`.
    pub fn job(&self, name: &str, net: &Network, objective: RunObjective) -> FlowJob {
        FlowJob::new(self.to_spec(name, net, objective), net.clone())
    }

    /// Runs the MA-vs-MP comparison on one circuit through the engine. For
    /// timed experiments the clock target is a fraction of the *MA* unsized
    /// delay, applied to both variants (the paper's "realistic timing
    /// constraints").
    ///
    /// # Errors
    ///
    /// Propagates [`EngineError`] from either flow.
    pub fn compare(&self, name: &str, net: &Network) -> Result<Comparison, EngineError> {
        let job = self.job(name, net, RunObjective::Compare);
        Comparison::from_outcome(run_job(&job)?)
    }

    /// Runs MA-vs-MP comparisons for a whole suite on a [`FlowEngine`] —
    /// parallel across circuits, cache-aware, one `Result` per circuit in
    /// input order.
    pub fn compare_batch(
        &self,
        circuits: &[(&str, &Network)],
        engine: &FlowEngine,
    ) -> Vec<Result<Comparison, EngineError>> {
        let jobs: Vec<FlowJob> = circuits
            .iter()
            .map(|(name, net)| self.job(name, net, RunObjective::Compare))
            .collect();
        engine
            .run_batch(&jobs)
            .into_iter()
            .map(|result| match result {
                JobResult::Completed { outcome, .. } => Comparison::from_outcome(*outcome),
                JobResult::Failed(e) => Err(e),
                JobResult::Cancelled => Err(EngineError::Cancelled),
            })
            .collect()
    }
}

/// Formats a table of comparisons in the paper's column layout.
pub fn format_table(rows: &[(Comparison, &str, usize, usize)]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    writeln!(
        s,
        "{:<11} {:<13} {:>5} {:>5} | {:>6} {:>8} | {:>6} {:>8} | {:>10} {:>10}",
        "Ckt", "Desc.", "#PIs", "#POs", "MA Sz", "MA Pwr", "MP Sz", "MP Pwr", "%AreaPen", "%PwrSav"
    )
    .unwrap();
    writeln!(s, "{}", "-".repeat(104)).unwrap();
    let mut pen_sum = 0.0;
    let mut sav_sum = 0.0;
    for (cmp, desc, pis, pos) in rows {
        writeln!(
            s,
            "{:<11} {:<13} {:>5} {:>5} | {:>6} {:>8.2} | {:>6} {:>8.2} | {:>10.1} {:>10.1}",
            cmp.name,
            desc,
            pis,
            pos,
            cmp.ma.size,
            cmp.ma.power_ma(),
            cmp.mp.size,
            cmp.mp.power_ma(),
            cmp.area_penalty_pct(),
            cmp.power_saving_pct()
        )
        .unwrap();
        pen_sum += cmp.area_penalty_pct();
        sav_sum += cmp.power_saving_pct();
    }
    let n = rows.len() as f64;
    writeln!(s, "{}", "-".repeat(104)).unwrap();
    writeln!(
        s,
        "{:<37} {:>15} {:>8} {:>6} {:>8} | {:>10.1} {:>10.1}",
        "Average",
        "",
        "",
        "",
        "",
        pen_sum / n,
        sav_sum / n
    )
    .unwrap();
    s
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn compare_agrees_with_single_objective_jobs() {
        let net = fig5();
        let mut experiment = Experiment::default();
        experiment.sim.cycles = 256;
        let cmp = experiment.compare("fig5", &net).unwrap();
        let side = |objective| run_job(&experiment.job("fig5", &net, objective)).unwrap();
        assert_eq!(Some(cmp.ma), side(RunObjective::MinArea).ma);
        assert_eq!(Some(cmp.mp), side(RunObjective::MinPower).mp);
    }

    #[test]
    fn compare_batch_matches_serial_compare() {
        let net = fig5();
        let mut experiment = Experiment::default();
        experiment.sim.cycles = 256;
        let serial = experiment.compare("fig5", &net).unwrap();
        let batch = experiment.compare_batch(&[("fig5", &net)], &FlowEngine::serial());
        assert_eq!(batch.len(), 1);
        assert_eq!(*batch[0].as_ref().unwrap(), serial);
    }

    #[test]
    fn experiment_spec_is_serializable() {
        let net = fig5();
        let experiment = Experiment {
            timing_fraction: Some(0.85),
            mp_and_penalty: Some(2.5),
            ..Experiment::default()
        };
        let spec = experiment.to_spec("fig5", &net, RunObjective::Compare);
        let json = spec.to_json();
        let back = JobSpec::from_json(&json).unwrap();
        assert_eq!(back, spec);
        // The inline-BLIF source resolves back to the same structure.
        let job = back.resolve().unwrap();
        assert_eq!(job.network.structural_digest(), net.structural_digest());
    }
}
