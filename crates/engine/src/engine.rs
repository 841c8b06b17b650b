//! The batch executor: a work-stealing thread pool over [`FlowJob`]s with
//! progress callbacks, cooperative cancellation and cache integration.
//!
//! Jobs are independent (each carries its own circuit and config), so the
//! pool is a shared claim counter over an immutable job list: every worker
//! steals the next unclaimed index, runs it (or answers it from the
//! [`ResultCache`]), and reports through the progress callback. Results are
//! written back by input index, so the output order is the input order
//! regardless of scheduling — combined with per-job determinism this makes
//! `threads = 1` and `threads = N` produce *identical* outcome vectors,
//! which the engine's equivalence tests pin on the full public suite.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use domino_store::SnapshotStore;

use crate::cache::ResultCache;
use crate::error::EngineError;
use crate::job::{FlowJob, FlowOutcome};
use crate::runner::run;

/// Cooperative cancellation handle, shared between the caller and workers.
///
/// Batch runs check cancellation between jobs: a running flow finishes,
/// but no new job is claimed afterwards. The single-job
/// [`FlowEngine::run_one`] path additionally threads the token into the
/// flow's stage boundaries (kernel → search → synthesis → map/sim, and
/// MA → MP), so a running job stops at the next boundary instead of
/// completing — this is what bounds `DELETE /jobs/:id` latency on a
/// `dominod` worker. Cloning shares the flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation of every batch holding this token.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// `true` once [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// What happened to one job of a batch.
#[derive(Debug)]
pub enum JobResult {
    /// The job ran (or was answered from the cache).
    Completed {
        /// The outcome (boxed: it dwarfs the other variants).
        outcome: Box<FlowOutcome>,
        /// `true` if it came from the cache without recomputation.
        cached: bool,
    },
    /// The job failed; the rest of the batch still runs.
    Failed(EngineError),
    /// The batch was cancelled before this job was claimed.
    Cancelled,
}

impl JobResult {
    /// The outcome if the job completed.
    pub fn outcome(&self) -> Option<&FlowOutcome> {
        match self {
            JobResult::Completed { outcome, .. } => Some(outcome),
            _ => None,
        }
    }

    /// `true` if the job completed from the cache.
    pub fn was_cached(&self) -> bool {
        matches!(self, JobResult::Completed { cached: true, .. })
    }
}

/// Progress notifications delivered to the batch callback.
///
/// Callbacks may arrive from any worker thread, but never concurrently for
/// the same `index`, and `Started` always precedes that index's terminal
/// event.
#[derive(Debug, Clone, PartialEq)]
pub enum ProgressEvent {
    /// A worker claimed job `index`.
    Started {
        /// Index into the submitted job list.
        index: usize,
        /// The job's display name.
        name: String,
    },
    /// Job `index` finished.
    Finished {
        /// Index into the submitted job list.
        index: usize,
        /// The job's display name.
        name: String,
        /// `true` if answered from the cache.
        cached: bool,
        /// Wall-clock milliseconds spent on this job.
        elapsed_ms: u64,
    },
    /// Job `index` failed (the error text; the full error is in the
    /// returned [`JobResult`]).
    Failed {
        /// Index into the submitted job list.
        index: usize,
        /// The job's display name.
        name: String,
        /// Rendered error.
        error: String,
    },
    /// Job `index` was never claimed because the batch was cancelled.
    Cancelled {
        /// Index into the submitted job list.
        index: usize,
    },
}

/// Engine configuration.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Worker threads. `0` means one per available CPU (capped by the job
    /// count either way).
    pub threads: usize,
    /// Shared result cache; `None` disables caching.
    pub cache: Option<Arc<ResultCache>>,
    /// Persistent warm-state snapshot store; `None` disables snapshotting.
    /// Sits *under* the result cache: a cache hit answers the whole job,
    /// a snapshot hit answers only the kernel stage (converged
    /// probabilities, no BDD build) of a job that still has to run its
    /// search, synthesis and simulation stages. The snapshot's value is
    /// surviving restarts — the cache's memory layer does not.
    pub snapshots: Option<Arc<SnapshotStore>>,
}

/// In-flight request coalescing ("single-flight"): one gate mutex per
/// cache key currently being computed. A worker about to run a cacheable
/// job takes its key's gate first; concurrent submissions of the same
/// key queue on the gate and — once the leader has stored the outcome —
/// answer from the cache instead of recomputing. This keeps the engine's
/// counter contract exact: `misses` stays "number of flow
/// recomputations" even under duplicate in-flight submissions.
#[derive(Debug, Default)]
struct SingleFlight {
    keys: Mutex<HashMap<String, Arc<Mutex<()>>>>,
}

impl SingleFlight {
    /// The gate for `key`, creating it if this is the first in-flight
    /// computation of that key.
    fn acquire(&self, key: &str) -> Arc<Mutex<()>> {
        let mut keys = self.keys.lock().unwrap_or_else(|p| p.into_inner());
        Arc::clone(keys.entry(key.to_string()).or_default())
    }

    /// Drops the table entry once the caller (still holding its `Arc`
    /// from [`SingleFlight::acquire`]) is the last participant: the map
    /// holds one reference, the caller the other. A surviving waiter
    /// keeps the count higher and the entry alive.
    fn release(&self, key: &str) {
        let mut keys = self.keys.lock().unwrap_or_else(|p| p.into_inner());
        if keys.get(key).is_some_and(|g| Arc::strong_count(g) <= 2) {
            keys.remove(key);
        }
    }
}

/// The parallel batch flow executor.
#[derive(Debug, Default)]
pub struct FlowEngine {
    config: EngineConfig,
    singleflight: SingleFlight,
}

impl FlowEngine {
    /// An engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        FlowEngine {
            config,
            singleflight: SingleFlight::default(),
        }
    }

    /// A serial engine with no cache (useful as a baseline).
    pub fn serial() -> Self {
        FlowEngine::new(EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        })
    }

    /// The snapshot store this engine loads warm state from, if any.
    pub fn snapshots(&self) -> Option<&Arc<SnapshotStore>> {
        self.config.snapshots.as_ref()
    }

    /// The cache this engine consults, if any.
    pub fn cache(&self) -> Option<&Arc<ResultCache>> {
        self.config.cache.as_ref()
    }

    /// Resolved worker count for a batch of `jobs` jobs.
    fn worker_count(&self, jobs: usize) -> usize {
        let requested = if self.config.threads == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            self.config.threads
        };
        requested.clamp(1, jobs.max(1))
    }

    /// Runs every job and returns one [`JobResult`] per job, in input
    /// order. Convenience wrapper over [`FlowEngine::run_batch_with`] with
    /// no progress reporting and no cancellation.
    pub fn run_batch(&self, jobs: &[FlowJob]) -> Vec<JobResult> {
        self.run_batch_with(jobs, |_| {}, &CancelToken::new())
    }

    /// Runs a single job *inline on the calling thread* — no worker pool,
    /// no thread spawn — with the same cache consultation and panic
    /// containment as a batch run. This is the job-ingest path for
    /// services that bring their own scheduling (e.g. `dominod` workers):
    /// a warm cache hit costs a lookup, not a thread.
    pub fn run_one(&self, job: &FlowJob, cancel: &CancelToken) -> JobResult {
        if cancel.is_cancelled() {
            return JobResult::Cancelled;
        }
        execute_with_cache(
            job,
            self.config.cache.as_deref(),
            self.config.snapshots.as_deref(),
            &self.singleflight,
            &|| cancel.is_cancelled(),
        )
    }

    /// Runs every job with a progress callback and a cancellation token.
    ///
    /// Results come back in input order. A failed job does not abort the
    /// batch; a cancelled batch finishes the jobs already claimed and marks
    /// the rest [`JobResult::Cancelled`].
    pub fn run_batch_with<F>(
        &self,
        jobs: &[FlowJob],
        progress: F,
        cancel: &CancelToken,
    ) -> Vec<JobResult>
    where
        F: Fn(ProgressEvent) + Send + Sync,
    {
        let workers = self.worker_count(jobs.len());
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<JobResult>>> =
            (0..jobs.len()).map(|_| Mutex::new(None)).collect();
        let progress = &progress;
        let next = &next;
        let slots = &slots;
        let cache = self.config.cache.as_deref();
        let snapshots = self.config.snapshots.as_deref();
        let singleflight = &self.singleflight;

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(move || loop {
                    let index = next.fetch_add(1, Ordering::SeqCst);
                    if index >= jobs.len() {
                        return;
                    }
                    let job = &jobs[index];
                    if cancel.is_cancelled() {
                        *slots[index].lock().expect("slot lock") = Some(JobResult::Cancelled);
                        progress(ProgressEvent::Cancelled { index });
                        continue;
                    }
                    progress(ProgressEvent::Started {
                        index,
                        name: job.spec.name.clone(),
                    });
                    let start = Instant::now();
                    // Batch semantics: claimed jobs finish even when the
                    // batch is cancelled, so no mid-flow token here.
                    let result = execute_with_cache(job, cache, snapshots, singleflight, &|| false);
                    let elapsed_ms = start.elapsed().as_millis() as u64;
                    match &result {
                        JobResult::Completed { cached, .. } => {
                            progress(ProgressEvent::Finished {
                                index,
                                name: job.spec.name.clone(),
                                cached: *cached,
                                elapsed_ms,
                            });
                        }
                        JobResult::Failed(e) => {
                            progress(ProgressEvent::Failed {
                                index,
                                name: job.spec.name.clone(),
                                error: e.to_string(),
                            });
                        }
                        JobResult::Cancelled => unreachable!("cancellation handled above"),
                    }
                    *slots[index].lock().expect("slot lock") = Some(result);
                });
            }
        });

        slots
            .iter()
            .map(|slot| {
                slot.lock()
                    .expect("slot lock")
                    .take()
                    .expect("every index claimed exactly once")
            })
            .collect()
    }
}

/// Runs one job, consulting (and filling) the cache if one is configured.
///
/// The display name is patched onto cache hits: two jobs over the same
/// content can carry different row labels, and the label is explicitly not
/// part of the content address.
fn execute_with_cache(
    job: &FlowJob,
    cache: Option<&ResultCache>,
    snapshots: Option<&SnapshotStore>,
    singleflight: &SingleFlight,
    is_cancelled: &dyn Fn() -> bool,
) -> JobResult {
    // The key's gate comes *before* the lookup: a duplicate in-flight
    // submission queues here while the leader computes, then finds the
    // leader's outcome in the cache. Uncontended the gate is one map
    // lock + one mutex lock — noise next to a flow run or a JSON decode.
    let gate = cache.map(|_| singleflight.acquire(job.cache_key()));
    let guard: Option<MutexGuard<'_, ()>> = gate
        .as_ref()
        .map(|g| g.lock().unwrap_or_else(|p| p.into_inner()));
    let release = |guard: Option<MutexGuard<'_, ()>>| {
        drop(guard);
        if gate.is_some() {
            singleflight.release(job.cache_key());
        }
    };
    if let Some(cache) = cache {
        if let Some(mut outcome) = cache.get(job.cache_key()) {
            outcome.name = job.spec.name.clone();
            release(guard);
            return JobResult::Completed {
                outcome: Box::new(outcome),
                cached: true,
            };
        }
    }
    // A panicking flow must not take the whole batch (and its scope) down:
    // contain it to this job. The job data is read-only here, so unwind
    // safety is not a concern.
    let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run(job, snapshots, is_cancelled)
    }))
    .unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        Err(EngineError::Panicked(msg))
    });
    let result = match ran {
        Ok(outcome) => {
            if let Some(cache) = cache {
                cache.put(job.cache_key(), &outcome);
            }
            JobResult::Completed {
                outcome: Box::new(outcome),
                cached: false,
            }
        }
        Err(EngineError::Cancelled) => JobResult::Cancelled,
        Err(e) => JobResult::Failed(e),
    };
    // The gate opens only after the outcome is stored (or the run gave
    // up): a waiter waking here either hits the cache or — after a
    // cancelled/failed leader — becomes the new leader and recomputes.
    release(guard);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{CircuitSource, JobSpec, RunObjective};
    use domino_netlist::Network;
    use domino_sim::SimConfig;

    fn tiny_job(name: &str, n_extra: usize) -> FlowJob {
        let mut net = Network::new(name);
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        let mut last = net.add_or([a, b]).unwrap();
        for _ in 0..n_extra {
            last = net.add_not(last).unwrap();
        }
        net.add_output("f", last).unwrap();
        let mut spec = JobSpec::for_network(name, &net);
        spec.objective = RunObjective::Compare;
        spec.sim = SimConfig {
            cycles: 64,
            warmup: 4,
            seed: 1,
            ..SimConfig::default()
        };
        FlowJob::new(spec, net)
    }

    #[test]
    fn batch_preserves_input_order() {
        let jobs: Vec<FlowJob> = (0..6).map(|i| tiny_job(&format!("job{i}"), i)).collect();
        let engine = FlowEngine::new(EngineConfig {
            threads: 3,
            cache: None,
            snapshots: None,
        });
        let results = engine.run_batch(&jobs);
        assert_eq!(results.len(), 6);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.outcome().unwrap().name, format!("job{i}"));
        }
    }

    #[test]
    fn unrunnable_specs_fail_in_the_engine() {
        let FlowJob {
            mut spec, network, ..
        } = tiny_job("zero", 0);
        spec.sim.cycles = 0;
        let zero_cycles = FlowJob::new(spec, network);
        let engine = FlowEngine::serial();
        let results = engine.run_batch(&[zero_cycles.clone(), tiny_job("good", 0)]);
        match &results[0] {
            JobResult::Failed(EngineError::Spec(msg)) => assert!(msg.contains("sim.cycles")),
            other => panic!("expected a spec failure, got {other:?}"),
        }
        assert!(results[1].outcome().is_some());
        assert!(matches!(
            engine.run_one(&zero_cycles, &CancelToken::new()),
            JobResult::Failed(EngineError::Spec(_))
        ));
    }

    #[test]
    fn failures_do_not_abort_the_batch() {
        let good = tiny_job("good", 0);
        let bad = FlowJob::new(
            JobSpec {
                source: CircuitSource::Suite("nonesuch".into()),
                ..JobSpec::suite("bad")
            },
            {
                // An invalid network: an output driven by a latch with no
                // data input fails flow validation.
                let mut net = Network::new("bad");
                let l = net.add_latch(false);
                net.add_output("q", l).unwrap();
                net
            },
        );
        let engine = FlowEngine::serial();
        let results = engine.run_batch(&[bad, good]);
        assert!(matches!(results[0], JobResult::Failed(_)));
        assert!(results[1].outcome().is_some());
    }

    #[test]
    fn cache_answers_second_batch_without_recompute() {
        let cache = Arc::new(ResultCache::in_memory());
        let engine = FlowEngine::new(EngineConfig {
            threads: 2,
            cache: Some(Arc::clone(&cache)),
            snapshots: None,
        });
        let jobs: Vec<FlowJob> = (0..4).map(|i| tiny_job(&format!("j{i}"), i)).collect();
        let cold = engine.run_batch(&jobs);
        assert!(cold.iter().all(|r| !r.was_cached()));
        assert_eq!(cache.stats().misses, 4);
        let warm = engine.run_batch(&jobs);
        assert!(warm.iter().all(JobResult::was_cached));
        // Zero new misses: zero flow recomputations.
        assert_eq!(cache.stats().misses, 4);
        assert_eq!(cache.stats().hits(), 4);
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!(c.outcome(), w.outcome());
        }
    }

    #[test]
    fn pre_cancelled_batch_runs_nothing() {
        let jobs: Vec<FlowJob> = (0..3).map(|i| tiny_job(&format!("c{i}"), i)).collect();
        let cancel = CancelToken::new();
        cancel.cancel();
        let engine = FlowEngine::serial();
        let events = Mutex::new(Vec::new());
        let results = engine.run_batch_with(&jobs, |e| events.lock().unwrap().push(e), &cancel);
        assert!(results.iter().all(|r| matches!(r, JobResult::Cancelled)));
        assert_eq!(events.lock().unwrap().len(), 3);
    }

    #[test]
    fn pre_cancelled_run_one_runs_nothing_and_caches_nothing() {
        let cache = Arc::new(ResultCache::in_memory());
        let engine = FlowEngine::new(EngineConfig {
            threads: 1,
            cache: Some(Arc::clone(&cache)),
            snapshots: None,
        });
        let job = tiny_job("precancelled", 2);
        // An already-cancelled token short-circuits run_one. (Mid-flow
        // cancellation is pinned check by check in the runner's tests.)
        let cancel = CancelToken::new();
        cancel.cancel();
        let result = engine.run_one(&job, &cancel);
        assert!(matches!(result, JobResult::Cancelled));
        assert_eq!(cache.stats().stores, 0);
        assert_eq!(cache.len(), 0);
    }

    /// Duplicate in-flight submissions of one cache key share a single
    /// computation: the leader runs the flow once, every concurrent
    /// duplicate queues on the key's single-flight gate and answers from
    /// the cache — byte-identical outcomes, exactly one recomputation.
    #[test]
    fn concurrent_same_key_submissions_compute_once() {
        let cache = Arc::new(ResultCache::in_memory());
        let engine = FlowEngine::new(EngineConfig {
            threads: 1,
            cache: Some(Arc::clone(&cache)),
            snapshots: None,
        });
        let job = tiny_job("dup", 3);
        let engine = &engine;
        let job = &job;
        let outcomes: Vec<FlowOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(move || match engine.run_one(job, &CancelToken::new()) {
                        JobResult::Completed { outcome, .. } => *outcome,
                        other => panic!("expected completion, got {other:?}"),
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for o in &outcomes[1..] {
            assert_eq!(o, &outcomes[0], "coalesced outcomes are identical");
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "exactly one flow recomputation");
        assert_eq!(stats.stores, 1);
        assert_eq!(stats.hits(), 3, "every duplicate answered from cache");
        // The gate table does not leak entries.
        assert!(engine.singleflight.keys.lock().unwrap().is_empty());
    }

    #[test]
    fn mid_batch_cancellation_stops_remaining_jobs() {
        let jobs: Vec<FlowJob> = (0..8).map(|i| tiny_job(&format!("m{i}"), i)).collect();
        let cancel = CancelToken::new();
        let engine = FlowEngine::serial();
        let cancel_after_first = {
            let cancel = cancel.clone();
            move |event: ProgressEvent| {
                if matches!(event, ProgressEvent::Finished { index: 0, .. }) {
                    cancel.cancel();
                }
            }
        };
        let results = engine.run_batch_with(&jobs, cancel_after_first, &cancel);
        assert!(results[0].outcome().is_some());
        assert!(results[1..]
            .iter()
            .all(|r| matches!(r, JobResult::Cancelled)));
    }
}
