//! One-job execution: the full parse → probabilities → search → synthesis →
//! techmap → (sizing) → simulation pipeline, lifted out of the experiment
//! binaries into a reusable function.
//!
//! Every job takes one path, [`run`]: the kernel stage (BDD build,
//! probability fixed point, any sifting) and the domino synthesizer are
//! built once and shared by the job's MA and MP sides. [`run_job`] is that
//! path with no snapshot store and no cancellation; the
//! [`FlowEngine`](crate::FlowEngine) adds both.
//!
//! A run is deterministic: every random stream in the flow (search
//! ordering, vector simulation) is seeded from the [`JobSpec`], so the
//! same job produces the same [`FlowOutcome`] on any thread of any run —
//! the property the engine's parallel-equivalence tests pin down.
//!
//! [`JobSpec`]: crate::JobSpec

use domino_phase::flow::{minimize, FlowReport};
use domino_phase::power::PowerModel;
use domino_phase::prob::{
    compute_probabilities, compute_probabilities_with_bdds, NodeProbabilities,
};
use domino_phase::{DominoSynthesizer, PhaseError};
use domino_sim::measure_power;
use domino_store::{SnapshotStore, WarmSnapshot};
use domino_techmap::{map, size_for_timing, sta, SizingConfig};

use crate::error::EngineError;
use crate::job::{
    assignment_string, snapshot_key, BddKernelStats, FlowJob, FlowOutcome, ObjectiveResult,
    ReorderInfo, RunObjective,
};

/// Executes one job start to finish according to its objective.
///
/// `Compare` runs MA first, then MP. A timed spec sizes a netlist to its
/// own unsized worst arrival times the timing fraction; a timed
/// `Compare` sizes both sides to MA's clock, exactly like the paper's
/// Table 2 methodology.
///
/// # Errors
///
/// Flow errors ([`EngineError::Flow`]), invalid networks
/// ([`EngineError::Netlist`]) and PI-profile mismatches
/// ([`EngineError::Spec`]).
pub fn run_job(job: &FlowJob) -> Result<FlowOutcome, EngineError> {
    run(job, None, &|| false)
}

/// The one run path behind [`run_job`] and the engine.
///
/// With a [`SnapshotStore`] the kernel stage makes the job's only store
/// lookup (see [`kernel`]). `is_cancelled` is consulted before the kernel,
/// at the flow's stage boundaries (kernel → search → synthesis) of each
/// side, and between synthesis and the map/sim stages — so a cancel
/// raised while MA runs stops the job before MP starts. `DELETE
/// /jobs/:id` on a running `dominod` job rides this path: cancellation
/// latency is bounded by the longest single stage, not the whole flow.
///
/// # Errors
///
/// [`EngineError::Cancelled`] when `is_cancelled` reports `true`, plus
/// everything [`run_job`] can return.
pub(crate) fn run(
    job: &FlowJob,
    snapshots: Option<&SnapshotStore>,
    is_cancelled: &dyn Fn() -> bool,
) -> Result<FlowOutcome, EngineError> {
    let spec = &job.spec;
    job.network.validate()?;
    let pi = spec.pi.expand(&job.network)?;
    if is_cancelled() {
        return Err(EngineError::Cancelled);
    }
    let probabilities = kernel(job, &pi, snapshots)?;
    let synth = DominoSynthesizer::new(&job.network)?;
    let bdd = probabilities
        .bdd_stats()
        .map(|stats| BddKernelStats::from_manager(stats, probabilities.bdd_node_count()))
        .unwrap_or_default()
        .with_reorder(probabilities.reorder_outcome().map(|o| ReorderInfo {
            mode: spec.flow.probability.reorder,
            swaps: o.swaps,
            nodes_before: o.nodes_before,
            final_order: o.final_order.clone(),
        }));
    // One side (MA when `area`, else MP) through search, synthesis,
    // mapping, optional sizing and simulation.
    let side = |area: bool, clock_ps: Option<f64>| {
        let mut flow = spec.flow.clone();
        if let (false, Some(penalty)) = (area, spec.mp_and_penalty) {
            flow.power.model = PowerModel::with_and_penalty(penalty);
        }
        let report = minimize(&synth, &probabilities, area, &flow, is_cancelled)?;
        // The synthesis → map/sim boundary: simulation is the other
        // dominant stage, so a cancel raised during the search is honored
        // before paying it.
        if is_cancelled() {
            return Err(EngineError::Cancelled);
        }
        Ok(measure(job, &pi, report, bdd.clone(), clock_ps))
    };
    let (ma, mp, clock_ps) = match spec.objective {
        RunObjective::MinArea => (Some(side(true, None)?.0), None, None),
        RunObjective::MinPower => (None, Some(side(false, None)?.0), None),
        RunObjective::Compare => {
            let (ma, clock_ps) = side(true, None)?;
            let (mp, _) = side(false, clock_ps)?;
            (Some(ma), Some(mp), clock_ps)
        }
    };
    Ok(FlowOutcome {
        name: spec.name.clone(),
        key: job.cache_key().to_string(),
        pis: job.network.inputs().len(),
        pos: job.network.outputs().len(),
        ma,
        mp,
        clock_ps,
    })
}

/// Produces the job's kernel stage: BDDs, converged probabilities and any
/// sifting, once per job.
///
/// With a store, a servable snapshot (full verification happens inside
/// [`SnapshotStore::load`]) skips BDD construction and probability
/// convergence entirely — the loaded state is
/// [rehydrated](NodeProbabilities::rehydrate) with only pure graph work
/// (the sequential partition recompute). Otherwise the kernel runs cold,
/// the build is counted, and the warm state is persisted for the next
/// process.
///
/// Byte-identity of warm outcomes: the snapshot carries the cold build's
/// kernel statistics and reorder outcome verbatim (a deserialized manager
/// has zero traffic counters), so a report assembled from a warm load is
/// indistinguishable from the cold run that produced the snapshot.
fn kernel(
    job: &FlowJob,
    pi: &[f64],
    snapshots: Option<&SnapshotStore>,
) -> Result<NodeProbabilities, PhaseError> {
    let prob = &job.spec.flow.probability;
    let Some(store) = snapshots else {
        return compute_probabilities(&job.network, pi, prob);
    };
    let key = snapshot_key(&job.network, prob, pi);
    if let Some(warm) = store.load(&key, job.network.len()) {
        return Ok(NodeProbabilities::rehydrate(
            &job.network,
            prob,
            warm.probs,
            warm.bdd_nodes,
            warm.bdd_stats,
            warm.reorder,
        ));
    }
    store.note_kernel_build();
    let (probabilities, mut bdds) = compute_probabilities_with_bdds(&job.network, pi, prob)?;
    // Compact to the postorder file layout before storing, so the arena a
    // later load rebuilds is the arena this process would have had — and
    // probability sweeps over the loaded copy walk memory in DFS order.
    bdds.remap_compact();
    store.store(
        &key,
        &WarmSnapshot {
            bdds,
            probs: probabilities.as_slice().to_vec(),
            bdd_nodes: probabilities.bdd_node_count(),
            bdd_stats: probabilities.bdd_stats().copied(),
            reorder: probabilities.reorder_outcome().cloned(),
        },
    );
    Ok(probabilities)
}

/// Maps one side's synthesized block, sizes it when the spec is timed,
/// and simulates its power. Returns the side's result and, when timed,
/// the clock it was sized to: `clock_ps` if given (MP takes MA's), else
/// this netlist's own unsized worst arrival times the timing fraction.
fn measure(
    job: &FlowJob,
    pi: &[f64],
    report: FlowReport,
    bdd: BddKernelStats,
    clock_ps: Option<f64>,
) -> (ObjectiveResult, Option<f64>) {
    let spec = &job.spec;
    let mut mapped = map(&report.domino, &spec.library);
    let mut worst = sta(&mapped, &spec.library).worst_arrival_ps;
    let mut timing_met = true;
    let clock_ps = spec
        .timing_fraction
        .map(|fraction| clock_ps.unwrap_or(worst * fraction));
    if let Some(target) = clock_ps {
        let sizing = size_for_timing(
            &mut mapped,
            &spec.library,
            &SizingConfig {
                clock_period_ps: Some(target),
                ..SizingConfig::default()
            },
        );
        worst = sizing.timing.worst_arrival_ps;
        timing_met = sizing.met;
    }
    let power = measure_power(&mapped, &spec.library, pi, &spec.sim);
    let result = ObjectiveResult {
        size: mapped.effective_cell_count(),
        cap_ma: power.cap_ma,
        short_circuit_ma: power.short_circuit_ma,
        leakage_ma: power.leakage_ma,
        estimated_switching: report.power.total(),
        worst_arrival_ps: worst,
        timing_met,
        evaluations: report.outcome.evaluations,
        commits: report.outcome.commits,
        assignment: assignment_string(&report.assignment),
        bdd,
        sim: power.stats,
    };
    (result, clock_ps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobSpec, PiSpec};
    use domino_netlist::Network;

    fn fig5_job(objective: RunObjective) -> FlowJob {
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
        let mut spec = JobSpec::for_network("fig5", &net);
        spec.objective = objective;
        spec.pi = PiSpec::Uniform(0.9);
        FlowJob::new(spec, net)
    }

    #[test]
    fn compare_reproduces_the_paper_claim() {
        let outcome = run_job(&fig5_job(RunObjective::Compare)).unwrap();
        let (ma, mp) = (outcome.ma.unwrap(), outcome.mp.unwrap());
        // At p = 0.9 the MP assignment (f-, g+) beats MA on switching.
        assert!(mp.estimated_switching < ma.estimated_switching);
        assert_eq!(mp.assignment, "-+");
        assert!(outcome.clock_ps.is_none());
    }

    #[test]
    fn single_objective_runs_one_side() {
        let area = run_job(&fig5_job(RunObjective::MinArea)).unwrap();
        assert!(area.ma.is_some() && area.mp.is_none());
        let power = run_job(&fig5_job(RunObjective::MinPower)).unwrap();
        assert!(power.ma.is_none() && power.mp.is_some());
    }

    #[test]
    fn run_job_is_deterministic() {
        let a = run_job(&fig5_job(RunObjective::Compare)).unwrap();
        let b = run_job(&fig5_job(RunObjective::Compare)).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_json().serialize(), b.to_json().serialize());
    }

    fn timed(job: FlowJob) -> FlowJob {
        let mut spec = job.spec;
        spec.timing_fraction = Some(0.9);
        FlowJob::new(spec, job.network)
    }

    /// One store lookup per job: a cold compare (untimed or timed) builds
    /// and stores the kernel once and never hits; a restarted process
    /// loads it once and builds nothing. Outcomes are byte-identical to a
    /// run without a store either way.
    #[test]
    fn snapshotted_runs_look_up_the_store_once_per_job() {
        for (tag, job) in [
            ("untimed", fig5_job(RunObjective::Compare)),
            ("timed", timed(fig5_job(RunObjective::Compare))),
        ] {
            let dir = std::env::temp_dir()
                .join(format!("dominolp-runner-snap-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let plain = run_job(&job).unwrap().to_json().serialize();

            let store = SnapshotStore::on_disk(&dir).unwrap();
            let cold = run(&job, Some(&store), &|| false).unwrap();
            assert_eq!(
                cold.to_json().serialize(),
                plain,
                "{tag}: the snapshot path must not change outcomes"
            );
            let stats = store.stats();
            assert_eq!(stats.kernel_builds, 1, "{tag}");
            assert_eq!(stats.stores, 1, "{tag}");
            assert_eq!(stats.hits, 0, "{tag}");

            // A restarted process: served fully from the snapshot, zero
            // kernel recompute, byte-identical outcome.
            let restarted = SnapshotStore::on_disk(&dir).unwrap();
            let warm = run(&job, Some(&restarted), &|| false).unwrap();
            assert_eq!(warm.to_json().serialize(), plain, "{tag}");
            let stats = restarted.stats();
            assert_eq!(
                stats.kernel_builds, 0,
                "{tag}: warm restart recomputes nothing"
            );
            assert_eq!(stats.hits, 1, "{tag}");

            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// Cancellation at every check of a timed compare: before the kernel,
    /// then per side kernel → search (for MP: MA → MP), search →
    /// synthesis and synthesis → map/sim.
    #[test]
    fn cancellation_is_honored_at_every_check() {
        let job = timed(fig5_job(RunObjective::Compare));
        let calls = std::cell::Cell::new(0);
        let count = || {
            calls.set(calls.get() + 1);
            false
        };
        let completed = run(&job, None, &count).unwrap();
        assert_eq!(completed, run_job(&job).unwrap());
        let checks = calls.get();
        assert_eq!(checks, 7);
        for k in 1..=checks {
            calls.set(0);
            let cancel_at_k = || {
                calls.set(calls.get() + 1);
                calls.get() >= k
            };
            assert!(
                matches!(run(&job, None, &cancel_at_k), Err(EngineError::Cancelled)),
                "check {k} must cancel"
            );
            assert_eq!(calls.get(), k, "the job stops at the check that cancelled");
        }
    }

    #[test]
    fn timed_compare_shares_one_clock() {
        let outcome = run_job(&timed(fig5_job(RunObjective::Compare))).unwrap();
        let clock = outcome.clock_ps.unwrap();
        assert!(clock > 0.0);
        assert!(outcome.ma.unwrap().timing_met);
    }
}
