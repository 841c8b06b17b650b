//! The traced replay of `run_job`: the same public calls `run_job` makes,
//! one span each, rebuilt into a `FlowOutcome` that must be byte-identical
//! to the real one — so the per-layer times describe the work `run_job`
//! really does. Extra `CircuitBdds::build_reordered` (and, for sequential
//! circuits, `partition`) calls beside each probability computation split
//! the BDD build, the sift and the MFVS partition out of it; they are
//! timed but not attributed to the job.

use domino_bdd::circuit::CircuitBdds;
use domino_bdd::{ordering, ReorderConfig, ReorderMode};
use domino_engine::{
    assignment_string, run_job, BddKernelStats, FlowJob, FlowOutcome, ObjectiveResult, ReorderInfo,
    RunObjective,
};
use domino_phase::power::{estimate_power, PowerModel};
use domino_phase::prob::{compute_probabilities, OrderingChoice};
use domino_phase::search::{min_area_assignment, min_power_assignment};
use domino_phase::{DominoSynthesizer, PhaseAssignment};
use domino_sgraph::partition;
use domino_sim::{measure_power, SimConfig};
use domino_techmap::{map, size_for_timing, sta, SizingConfig};

use crate::trace::Tracer;

/// Per-layer sums over replayed calls (one job, or a pass of jobs).
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// `build_reordered` with reordering off, beside every probability
    /// computation.
    pub build_ms: f64,
    /// `build_reordered` with the job's reorder mode (sift jobs only).
    pub sifted_build_ms: f64,
    /// Adjacent-level swaps of those sifted builds (exact).
    pub swaps: u64,
    /// Op-cache hits of the reorder-off builds.
    pub op_cache_hits: u64,
    /// Op-cache lookups (hits + misses) of the reorder-off builds.
    pub op_cache_lookups: u64,
    /// `partition` beside each probability computation of a sequential
    /// circuit.
    pub partition_ms: f64,
    /// `compute_probabilities` minus the build in the job's own mode and
    /// minus the partition.
    pub prob_ms: f64,
    /// `min_area_assignment`.
    pub search_ma_ms: f64,
    /// `min_power_assignment`.
    pub search_mp_ms: f64,
    /// Evaluations of the MP searches (exact).
    pub mp_evaluations: u64,
    /// Evaluations of every search.
    pub evaluations: u64,
    /// Commits of every search.
    pub commits: u64,
    /// `DominoSynthesizer::new` + `synthesize` + `estimate_power`.
    pub synth_ms: f64,
    /// `map`.
    pub map_ms: f64,
    /// `sta`.
    pub sta_ms: f64,
    /// `size_for_timing`.
    pub size_ms: f64,
    /// `measure_power`.
    pub sim_ms: f64,
    /// Simulated word-steps (exact).
    pub sim_words: u64,
    /// Shared BDD nodes, one kernel per job (exact).
    pub nodes: u64,
    /// Sum of the spans attributed to the job.
    pub attributed_ms: f64,
    /// The real `run_job` on the same job.
    pub run_job_ms: f64,
}

impl Layers {
    /// Adds `o` into `self`.
    pub fn add(&mut self, o: &Layers) {
        self.build_ms += o.build_ms;
        self.sifted_build_ms += o.sifted_build_ms;
        self.swaps += o.swaps;
        self.op_cache_hits += o.op_cache_hits;
        self.op_cache_lookups += o.op_cache_lookups;
        self.partition_ms += o.partition_ms;
        self.prob_ms += o.prob_ms;
        self.search_ma_ms += o.search_ma_ms;
        self.search_mp_ms += o.search_mp_ms;
        self.mp_evaluations += o.mp_evaluations;
        self.evaluations += o.evaluations;
        self.commits += o.commits;
        self.synth_ms += o.synth_ms;
        self.map_ms += o.map_ms;
        self.sta_ms += o.sta_ms;
        self.size_ms += o.size_ms;
        self.sim_ms += o.sim_ms;
        self.sim_words += o.sim_words;
        self.nodes += o.nodes;
        self.attributed_ms += o.attributed_ms;
        self.run_job_ms += o.run_job_ms;
    }

    /// `run_job` minus the replay's attributed spans (may be negative).
    pub fn unattributed_ms(&self) -> f64 {
        self.run_job_ms - self.attributed_ms
    }

    /// Sift time: sifted build minus reorder-off build.
    pub fn sift_ms(&self) -> f64 {
        self.sifted_build_ms - self.build_ms
    }
}

/// Replays `job`, then times the real `run_job` on it.
///
/// Returns the replay's layer sums and whether its outcome serialized
/// byte-identically to `run_job`'s (`Err` describes a mismatch or a
/// failed call).
///
/// # Errors
///
/// A failed call or a replay that diverged from `run_job`.
pub fn replay_and_compare(job: &FlowJob, tr: &mut Tracer, id: u64) -> Result<Layers, String> {
    let mut layers = Layers::default();
    let replayed = replay(job, tr, id, &mut layers)?;
    let (real, ms) = tr.time("engine.run_job", id, || run_job(job));
    layers.run_job_ms = ms;
    let real = real.map_err(|e| e.to_string())?;
    let (a, b) = (replayed.to_json().serialize(), real.to_json().serialize());
    if a != b {
        return Err(format!(
            "{}: replayed outcome differs from run_job's",
            job.spec.name
        ));
    }
    layers.nodes = real.mp.as_ref().map_or(0, |r| r.bdd.nodes as u64);
    Ok(layers)
}

/// The replay proper: `run_job`'s call sequence for every objective.
fn replay(
    job: &FlowJob,
    tr: &mut Tracer,
    id: u64,
    layers: &mut Layers,
) -> Result<FlowOutcome, String> {
    let span = tr.open("engine.replay", id);
    let (valid, ms) = tr.time("netlist.validate", id, || job.network.validate());
    layers.attributed_ms += ms;
    valid.map_err(|e| e.to_string())?;
    let (ma, mp, clock_ps) = match job.spec.objective {
        RunObjective::MinArea => (
            Some(objective(job, true, None, tr, id, layers)?),
            None,
            None,
        ),
        RunObjective::MinPower => (
            None,
            Some(objective(job, false, None, tr, id, layers)?),
            None,
        ),
        RunObjective::Compare => {
            let clock_ps = match job.spec.timing_fraction {
                None => None,
                Some(fraction) => {
                    let probe = tr.open("engine.timed_probe", id);
                    let mut probe_spec = job.spec.clone();
                    probe_spec.timing_fraction = None;
                    probe_spec.sim = SimConfig {
                        cycles: 16,
                        adaptive_tol_ppm: 0,
                        ..probe_spec.sim
                    };
                    let (probe_job, ms) = tr.time("engine.flow_job_new", id, || {
                        FlowJob::new(probe_spec, job.network.clone())
                    });
                    layers.attributed_ms += ms;
                    let side = objective(&probe_job, true, None, tr, id, layers)?;
                    tr.close(probe);
                    Some(side.worst_arrival_ps * fraction)
                }
            };
            let ma = objective(job, true, clock_ps, tr, id, layers)?;
            let mp = objective(job, false, clock_ps, tr, id, layers)?;
            (Some(ma), Some(mp), clock_ps)
        }
    };
    tr.close(span);
    Ok(FlowOutcome {
        name: job.spec.name.clone(),
        key: job.cache_key().to_string(),
        pis: job.network.inputs().len(),
        pos: job.network.outputs().len(),
        ma,
        mp,
        clock_ps,
    })
}

/// One objective side, as `run_objective` runs it.
fn objective(
    job: &FlowJob,
    area: bool,
    clock_ps: Option<f64>,
    tr: &mut Tracer,
    id: u64,
    layers: &mut Layers,
) -> Result<ObjectiveResult, String> {
    let spec = &job.spec;
    let net = &job.network;
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let pi = spec.pi.expand(net).map_err(|e| err(&e))?;
    let mut flow = spec.flow.clone();
    if !area {
        if let Some(penalty) = spec.mp_and_penalty {
            flow.power.model = PowerModel::with_and_penalty(penalty);
        }
    }
    let side = tr.open(
        if area {
            "engine.ma_side"
        } else {
            "engine.mp_side"
        },
        id,
    );

    // Split calls: not part of run_job, timed beside its kernel build.
    let order = match &flow.probability.ordering {
        OrderingChoice::Paper => ordering::paper_order(net),
        other => {
            return Err(format!(
                "replay supports the paper order only, not {other:?}"
            ))
        }
    };
    let (off, ms) = tr.time("bdd.build_reordered.off", id, || {
        CircuitBdds::build_reordered(
            net,
            order.clone(),
            &ReorderConfig::with_mode(ReorderMode::Off),
        )
    });
    let (off, _) = off.map_err(|e| err(&e))?;
    let stats = off.manager().stats();
    layers.op_cache_hits += stats.cache_hits;
    layers.op_cache_lookups += stats.cache_hits + stats.cache_misses;
    layers.build_ms += ms;
    let mut kernel_ms = ms;
    let mode = flow.probability.reorder;
    if mode != ReorderMode::Off {
        let (sifted, ms) = tr.time("bdd.build_reordered.sift", id, || {
            CircuitBdds::build_reordered(net, order.clone(), &ReorderConfig::with_mode(mode))
        });
        let (_, outcome) = sifted.map_err(|e| err(&e))?;
        layers.swaps += outcome.map_or(0, |o| o.swaps);
        layers.sifted_build_ms += ms;
        kernel_ms = ms;
    }
    let mut partition_ms = 0.0;
    if net.is_sequential() {
        let (_, ms) = tr.time("sgraph.partition", id, || {
            partition(net, &flow.probability.mfvs)
        });
        layers.partition_ms += ms;
        partition_ms = ms;
    }

    // run_objective's own calls, each attributed.
    let mut attributed = 0.0;
    let (probs, ms) = tr.time("core.prob.compute_probabilities", id, || {
        compute_probabilities(net, &pi, &flow.probability)
    });
    let probs = probs.map_err(|e| err(&e))?;
    attributed += ms;
    layers.prob_ms += ms - kernel_ms - partition_ms;
    let (synth, ms) = tr.time("core.synth.new", id, || DominoSynthesizer::new(net));
    let synth = synth.map_err(|e| err(&e))?;
    attributed += ms;
    layers.synth_ms += ms;
    let (outcome, ms) = if area {
        tr.time("core.search.min_area_assignment", id, || {
            min_area_assignment(&synth, &flow.area)
        })
    } else {
        tr.time("core.search.min_power_assignment", id, || {
            let initial = PhaseAssignment::all_positive(synth.view_outputs().len());
            min_power_assignment(&synth, &probs, initial, &flow.power)
        })
    };
    let outcome = outcome.map_err(|e| err(&e))?;
    attributed += ms;
    if area {
        layers.search_ma_ms += ms;
    } else {
        layers.search_mp_ms += ms;
        layers.mp_evaluations += outcome.evaluations as u64;
    }
    layers.evaluations += outcome.evaluations as u64;
    layers.commits += outcome.commits as u64;
    let (domino, ms) = tr.time("core.synth.synthesize", id, || {
        synth.synthesize(&outcome.assignment)
    });
    let domino = domino.map_err(|e| err(&e))?;
    attributed += ms;
    layers.synth_ms += ms;
    let (estimate, ms) = tr.time("core.power.estimate_power", id, || {
        estimate_power(&domino, probs.as_slice(), &flow.power.model)
    });
    attributed += ms;
    layers.synth_ms += ms;
    let (mut mapped, ms) = tr.time("techmap.map", id, || map(&domino, &spec.library));
    attributed += ms;
    layers.map_ms += ms;
    let (timing, ms) = tr.time("techmap.sta", id, || sta(&mapped, &spec.library));
    attributed += ms;
    layers.sta_ms += ms;
    let mut worst = timing.worst_arrival_ps;
    let mut timing_met = true;
    if let Some(fraction) = spec.timing_fraction {
        let target = clock_ps.unwrap_or(worst * fraction);
        let (sizing, ms) = tr.time("techmap.size_for_timing", id, || {
            size_for_timing(
                &mut mapped,
                &spec.library,
                &SizingConfig {
                    clock_period_ps: Some(target),
                    ..SizingConfig::default()
                },
            )
        });
        attributed += ms;
        layers.size_ms += ms;
        worst = sizing.timing.worst_arrival_ps;
        timing_met = sizing.met;
    }
    let (power, ms) = tr.time("sim.measure_power", id, || {
        measure_power(&mapped, &spec.library, &pi, &spec.sim)
    });
    attributed += ms;
    layers.sim_ms += ms;
    layers.sim_words += power.stats.words;
    layers.attributed_ms += attributed;
    tr.close(side);

    let bdd = probs
        .bdd_stats()
        .map(|stats| BddKernelStats::from_manager(stats, probs.bdd_node_count()))
        .unwrap_or_default()
        .with_reorder(probs.reorder_outcome().map(|o| ReorderInfo {
            mode: flow.probability.reorder,
            swaps: o.swaps,
            nodes_before: o.nodes_before,
            final_order: o.final_order.clone(),
        }));
    Ok(ObjectiveResult {
        size: mapped.effective_cell_count(),
        cap_ma: power.cap_ma,
        short_circuit_ma: power.short_circuit_ma,
        leakage_ma: power.leakage_ma,
        estimated_switching: estimate.total(),
        worst_arrival_ps: worst,
        timing_met,
        evaluations: outcome.evaluations,
        commits: outcome.commits,
        assignment: assignment_string(&outcome.assignment),
        bdd,
        sim: power.stats,
    })
}
