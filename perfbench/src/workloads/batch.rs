//! The two batch workloads, `tables_cold` and `sift_compare`: closed-loop
//! passes over a fixed job list on a 1-worker `FlowEngine` with no result
//! cache and no snapshot store, so every pass recomputes everything.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use domino_engine::{
    CancelToken, EngineConfig, FlowEngine, FlowJob, FlowOutcome, JobResult, ProgressEvent,
    ReorderMode,
};

use crate::check::check_outcome;
use crate::golden::Golden;
use crate::inputs::{sift_jobs, tables_jobs, BatchJob};
use crate::replay::{replay_and_compare, Layers};
use crate::report::Report;
use crate::stats::{geomean, median};
use crate::trace::Tracer;
use crate::workloads::{peak_rss_mib, record_tail, repeat_setups, timed_setups, Window};

/// Which batch workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Batch {
    /// The paper's tables, regenerated cold.
    Tables,
    /// Sifted compares of apex7 and x1.
    Sift,
}

/// A set-up: the seeded jobs and the engine every pass runs on.
struct Setup {
    jobs: Vec<BatchJob>,
    engine: FlowEngine,
}

fn set_up(kind: Batch, seed: u64) -> Setup {
    let jobs = match kind {
        Batch::Tables => tables_jobs(seed),
        Batch::Sift => sift_jobs(),
    };
    let engine = FlowEngine::new(EngineConfig {
        threads: 1,
        cache: None,
        snapshots: None,
    });
    // Warm-up: one full pass of the tables; for the sift jobs, one pass
    // of their unsifted twins (a sifted pass takes seconds — longer than
    // several set-ups are allowed to).
    let warm: Vec<BatchJob> = jobs
        .iter()
        .map(|j| {
            let mut j = j.clone();
            j.spec.flow.probability.reorder = ReorderMode::Off;
            j
        })
        .collect();
    for r in pass(&engine, &warm, None).results {
        r.expect("warm-up pass completes");
    }
    Setup { jobs, engine }
}

/// What one op produced.
struct Pass {
    results: Vec<Result<FlowOutcome, String>>,
    ms: f64,
    /// Time in `JobSpec::resolve` (traced passes only).
    parse_ms: f64,
    /// Per-job engine time from the progress events (traced passes only).
    job_ms: Vec<f64>,
}

/// One op: resolve every inline-BLIF spec, then run the batch. A traced
/// op (`trace` = tracer and op id) records a span around every resolve and
/// every engine job; an untraced one calls the engine exactly as a user
/// would.
fn pass(engine: &FlowEngine, jobs: &[BatchJob], mut trace: Option<(&mut Tracer, u64)>) -> Pass {
    let start = Instant::now();
    let op_span = trace.as_mut().map(|(tr, op)| tr.open("perfbench.op", *op));
    let mut parse_ms = 0.0;
    let mut resolved = Vec::with_capacity(jobs.len());
    for (i, j) in jobs.iter().enumerate() {
        let job = match trace.as_mut() {
            Some((tr, op)) => {
                let (job, ms) = tr.time("engine.JobSpec::resolve", *op << 8 | i as u64, || {
                    j.spec.clone().resolve()
                });
                parse_ms += ms;
                job
            }
            None => j.spec.clone().resolve(),
        };
        resolved.push(job.map_err(|e| e.to_string()));
    }
    let flow_jobs: Result<Vec<FlowJob>, String> = resolved.into_iter().collect();
    let mut job_ms = Vec::new();
    let results = match flow_jobs {
        Err(e) => vec![Err(e); jobs.len()],
        Ok(flow_jobs) => {
            let raw = match trace.as_mut() {
                None => engine.run_batch(&flow_jobs),
                Some((tr, op)) => {
                    let marks = Mutex::new(vec![(None, None); jobs.len()]);
                    let raw = engine.run_batch_with(
                        &flow_jobs,
                        |event| {
                            let now = Some(Instant::now());
                            let mut marks = marks.lock().expect("marks lock");
                            match event {
                                ProgressEvent::Started { index, .. } => marks[index].0 = now,
                                ProgressEvent::Finished { index, .. }
                                | ProgressEvent::Failed { index, .. } => marks[index].1 = now,
                                ProgressEvent::Cancelled { .. } => {}
                            }
                        },
                        &CancelToken::new(),
                    );
                    let marks = marks.into_inner().expect("marks lock");
                    for (i, mark) in marks.into_iter().enumerate() {
                        if let (Some(s), Some(e)) = mark {
                            tr.record("engine.run_job", *op << 8 | i as u64, s, e);
                            job_ms.push((e - s).as_secs_f64() * 1e3);
                        }
                    }
                    raw
                }
            };
            raw.into_iter().map(outcome_of).collect()
        }
    };
    if let (Some((tr, _)), Some(span)) = (trace, op_span) {
        tr.close(span);
    }
    Pass {
        results,
        ms: start.elapsed().as_secs_f64() * 1e3,
        parse_ms,
        job_ms,
    }
}

fn outcome_of(result: JobResult) -> Result<FlowOutcome, String> {
    match result {
        JobResult::Completed { outcome, .. } => Ok(*outcome),
        JobResult::Failed(e) => Err(e.to_string()),
        JobResult::Cancelled => Err("cancelled".into()),
    }
}

/// What the traced run collects beside the untraced ops.
#[derive(Default)]
struct Traced {
    op_ms: Vec<f64>,
    parse_ms: Vec<f64>,
    job_ms: Vec<Vec<f64>>,
    /// Replay passes: the pass total and each job's own sums.
    passes: Vec<(Layers, Vec<(String, Layers)>)>,
}

/// Runs a batch workload and fills `report`.
pub fn run(
    kind: Batch,
    seed: u64,
    seconds: u64,
    traced: bool,
    report: &mut Report,
    tr: &mut Tracer,
) {
    // Set-ups timed before and after the untraced window: their median
    // then follows the machine's speed over the whole run, as the op
    // latencies do, not over the first seconds alone. A sift_compare
    // set-up is about 10 ms, so it takes many of them.
    let (before, after) = match kind {
        Batch::Tables => (11, 10),
        Batch::Sift => (51, 50),
    };
    let (setup, mut setup_times) = timed_setups(before, || set_up(kind, seed), drop);
    let Setup { jobs, engine } = setup;
    let budget = Duration::from_secs(seconds);

    // The first op's outcomes are kept and checked after the timed
    // phase; every later op must reproduce them exactly.
    let mut first: Option<Vec<Result<FlowOutcome, String>>> = None;
    let mut ops = 0u64;
    let mut differing = 0u64;
    let mut tally = |results: Vec<Result<FlowOutcome, String>>| {
        ops += 1;
        match &first {
            None => first = Some(results),
            Some(f) => {
                if results.iter().zip(f).any(|(r, f)| r.is_err() || r != f) {
                    differing += 1;
                }
            }
        }
    };
    let mut untraced = Window::new(if traced { budget / 3 } else { budget });
    let mut completed_jobs = 0u64;
    let mut rss = None;
    while untraced.more() {
        let op = pass(&engine, &jobs, None);
        untraced.sample(op.ms);
        // Equal work on every commit: set-up plus one op.
        rss.get_or_insert_with(peak_rss_mib);
        completed_jobs += op.results.iter().filter(|r| r.is_ok()).count() as u64;
        tally(op.results);
    }
    let window_s = untraced.elapsed_s();
    setup_times.extend(repeat_setups(after, || set_up(kind, seed), drop));
    report.set("setup_s", median(&setup_times));

    let mut t = Traced {
        job_ms: vec![Vec::new(); jobs.len()],
        ..Traced::default()
    };
    if traced {
        let mut window = Window::new(budget / 3);
        let mut id = 0u64;
        while window.more() {
            id += 1;
            let op = pass(&engine, &jobs, Some((&mut *tr, id)));
            window.sample(op.ms);
            t.op_ms.push(op.ms);
            t.parse_ms.push(op.parse_ms);
            for (samples, ms) in t.job_ms.iter_mut().zip(op.job_ms) {
                samples.push(ms);
            }
            tally(op.results);
        }
        // The replay, outside any timed op.
        let resolved: Vec<FlowJob> = jobs
            .iter()
            .map(|j| j.spec.clone().resolve().expect("spec resolves"))
            .collect();
        let mut window = Window::new(budget / 3);
        while window.more() {
            id += 1;
            let mut total = Layers::default();
            let mut per_job = Vec::new();
            for (i, (job, fj)) in jobs.iter().zip(&resolved).enumerate() {
                match replay_and_compare(fj, tr, id << 8 | i as u64) {
                    Ok(layers) => {
                        total.add(&layers);
                        per_job.push((job.row.clone(), layers));
                    }
                    Err(e) => report.wrong(format!("replay of {}: {e}", job.row)),
                }
            }
            window.sample(0.0);
            t.passes.push((total, per_job));
        }
        report.count("replay_passes", t.passes.len() as u64);
    }
    report.set("peak_rss_mb", rss.unwrap_or_else(peak_rss_mib));

    // Output checks: the first op against the references.
    let golden = Golden::load();
    let first = first.expect("at least one op ran");
    let mut first_ok = true;
    for (job, result) in jobs.iter().zip(&first) {
        let verdict = result.as_ref().map_err(Clone::clone).and_then(|outcome| {
            let net = job
                .spec
                .clone()
                .resolve()
                .map_err(|e| e.to_string())?
                .network;
            check_outcome(&job.check, &net, outcome, &golden)
        });
        if let Err(e) = verdict {
            report.wrong(format!("{}: {e}", job.row));
            first_ok = false;
        }
    }
    if differing > 0 {
        report.wrong(format!("{differing} ops differ from the first op"));
    }
    let failed_ops = if first_ok { differing } else { ops };
    report.attempted = ops;
    report.failed = failed_ops;
    report.count("ops", ops);
    report.count("jobs_per_op", jobs.len() as u64);

    // End-to-end.
    report.set("jobs_per_s", completed_jobs as f64 / window_s);
    report.set("op_ms_p50", median(untraced.samples()));
    record_tail(report, untraced.samples());
    report.set("ok_pct", 100.0 * (ops - failed_ops) as f64 / ops as f64);
    let mp: Vec<_> = first
        .iter()
        .filter_map(|r| r.as_ref().ok().and_then(|o| o.mp.clone()))
        .collect();
    if mp.len() == jobs.len() {
        report.set(
            "mp_power_ma",
            geomean(&mp.iter().map(|r| r.power_ma()).collect::<Vec<_>>()),
        );
        report.set(
            "mp_cells",
            geomean(&mp.iter().map(|r| r.size as f64).collect::<Vec<_>>()),
        );
    } else {
        report.set("mp_power_ma", 0.0);
        report.set("mp_cells", 0.0);
    }

    if traced {
        per_layer(kind, report, &jobs, median(untraced.samples()), &t);
    }
}

fn per_layer(kind: Batch, report: &mut Report, jobs: &[BatchJob], untraced_p50: f64, t: &Traced) {
    report.set(
        "trace.overhead_pct",
        100.0 * (median(&t.op_ms) - untraced_p50) / untraced_p50,
    );
    report.set("netlist.parse_ms", median(&t.parse_ms));
    for (job, samples) in jobs.iter().zip(&t.job_ms) {
        if !samples.is_empty() {
            report.set(&format!("engine.job_ms.{}", job.row), median(samples));
        }
    }
    if t.passes.is_empty() {
        return;
    }
    let med = |f: &dyn Fn(&Layers) -> f64| {
        median(&t.passes.iter().map(|(l, _)| f(l)).collect::<Vec<_>>())
    };
    report.set("bdd.build_ms", med(&|l| l.build_ms));
    report.set("bdd.nodes", med(&|l| l.nodes as f64));
    report.set(
        "bdd.op_cache_hit_rate",
        med(&|l| l.op_cache_hits as f64 / l.op_cache_lookups.max(1) as f64),
    );
    report.set("search.ma_ms", med(&|l| l.search_ma_ms));
    report.set("search.mp_ms", med(&|l| l.search_mp_ms));
    report.set("search.mp_evaluations", med(&|l| l.mp_evaluations as f64));
    report.set(
        "search.commit_ratio",
        med(&|l| l.commits as f64 / l.evaluations.max(1) as f64),
    );
    report.set("synth.ms", med(&|l| l.synth_ms));
    report.set("techmap.map_ms", med(&|l| l.map_ms));
    report.set("techmap.sta_ms", med(&|l| l.sta_ms));
    report.set("sim.ms", med(&|l| l.sim_ms));
    report.set("sim.words", med(&|l| l.sim_words as f64));
    report.set("engine.unattributed_ms", med(&|l| l.unattributed_ms()));
    match kind {
        Batch::Tables => {
            // On the sift jobs this difference is swamped by the
            // run-to-run spread of a seconds-long sifted build.
            report.set("prob.ms", med(&|l| l.prob_ms));
            report.set("sgraph.partition_ms", med(&|l| l.partition_ms));
            report.set("techmap.size_ms", med(&|l| l.size_ms));
        }
        Batch::Sift => {
            report.set("bdd.sift_ms", med(&|l| l.sift_ms()));
            report.set("bdd.swaps", med(&|l| l.swaps as f64));
            for row in ["apex7", "x1"] {
                let per_swap: Vec<f64> = t
                    .passes
                    .iter()
                    .flat_map(|(_, per_job)| per_job.iter())
                    .filter(|(r, l)| r == &format!("{row}_sift") && l.swaps > 0)
                    .map(|(_, l)| l.sift_ms() * 1e3 / l.swaps as f64)
                    .collect();
                if !per_swap.is_empty() {
                    report.set(&format!("bdd.us_per_swap.{row}"), median(&per_swap));
                }
            }
        }
    }
}
