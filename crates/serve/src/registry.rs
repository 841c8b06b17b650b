//! The job registry: admission queue, lifecycle state, event logs and the
//! stage-timing counters behind `GET /metrics`.
//!
//! One mutex guards the whole registry (job map + FIFO queue + counters),
//! and one condvar wakes idle workers when a job is submitted or the
//! drain begins. Observers of a job are not woken here: the thread that
//! makes a transition tells the server, which answers that job's parked
//! waiters. That is deliberately simple: the service is built for
//! *flow-bound* traffic — jobs cost milliseconds to run and microseconds
//! to book-keep — so a single lock is nowhere near the bottleneck, and it
//! makes the invariants easy to state:
//!
//! * a job id is in `queue` iff its record's status is [`JobStatus::Queued`]
//!   (cancelled-while-queued ids are skipped lazily at claim time);
//! * every job reaches exactly one terminal status, appends exactly one
//!   terminal [`EventRecord`], and its event `seq` numbers are dense from
//!   0 (`queued`);
//! * admission never blocks: a full queue is an immediate
//!   [`AdmitError::Full`] (the HTTP layer turns it into `429` +
//!   `Retry-After`), so accepted jobs are never silently dropped —
//!   rejection is always explicit.

use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use domino_engine::{CancelToken, FlowJob};

use crate::protocol::{EventKind, EventRecord, JobStatus, MetricsReply, StatusReply, SubmitReply};

/// Why a submission was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitError {
    /// The admission queue is at capacity; retry later.
    Full {
        /// Current queue depth (== capacity).
        depth: u64,
    },
    /// The server is draining for shutdown and admits nothing new.
    Draining,
}

/// One job's full server-side state.
#[derive(Debug)]
struct JobRecord {
    id: u64,
    name: String,
    key: String,
    status: JobStatus,
    cached: Option<bool>,
    error: Option<String>,
    /// The engine's exact serialized outcome text — stored (and served)
    /// verbatim so the wire stays byte-identical to a local run.
    outcome_text: Option<String>,
    events: Vec<EventRecord>,
    cancel: CancelToken,
    queued_at: Instant,
    claimed_at: Option<Instant>,
    queue_ms: Option<u64>,
    exec_ms: Option<u64>,
    /// The runnable job, present only while queued (taken at claim time).
    job: Option<Box<FlowJob>>,
}

impl JobRecord {
    fn push_event(
        &mut self,
        kind: EventKind,
        cached: Option<bool>,
        elapsed_ms: Option<u64>,
        error: Option<String>,
    ) {
        let seq = self.events.len() as u64;
        self.events.push(EventRecord {
            seq,
            id: self.id,
            kind,
            name: self.name.clone(),
            cached,
            elapsed_ms,
            error,
        });
    }

    /// The status reply *without* its parsed outcome, paired with the raw
    /// outcome text. Parsing a multi-KB outcome document is too expensive
    /// for the registry lock — which also serializes submit/claim/finish —
    /// so callers attach it via [`attach_outcome`] after unlocking.
    fn status_seed(&self) -> (StatusReply, Option<String>) {
        (
            StatusReply {
                id: self.id,
                name: self.name.clone(),
                key: self.key.clone(),
                status: self.status,
                cached: self.cached,
                queue_ms: self.queue_ms,
                exec_ms: self.exec_ms,
                error: self.error.clone(),
                outcome: None,
            },
            self.outcome_text.clone(),
        )
    }
}

#[derive(Debug, Default)]
struct Counters {
    submitted: u64,
    rejected: u64,
    completed: u64,
    failed: u64,
    cancelled: u64,
    warm: u64,
    queue_wait_ms: u64,
    exec_ms: u64,
}

/// Terminal records kept for `GET /jobs/:id` queries before the oldest
/// are evicted. Bounds registry memory on a long-lived server: clients
/// are expected to fetch results promptly (or use `?wait=1` / the sync
/// submit path); a result not fetched within this many later completions
/// is gone (`404`). Counters are unaffected by eviction.
pub const RETAINED_TERMINAL_JOBS: usize = 4096;

#[derive(Debug)]
struct Inner {
    jobs: HashMap<u64, JobRecord>,
    queue: VecDeque<u64>,
    /// Terminal job ids in completion order, oldest first — the eviction
    /// queue that keeps `jobs` bounded.
    retired: VecDeque<u64>,
    next_id: u64,
    draining: bool,
    counters: Counters,
}

impl Inner {
    /// Marks `id` terminal for retention purposes and evicts the oldest
    /// terminal records beyond the retention bound. Queued/running
    /// records are never evicted (they are bounded by the queue capacity
    /// and the worker count).
    fn retire(&mut self, id: u64, retained: usize) {
        self.retired.push_back(id);
        while self.retired.len() > retained {
            let oldest = self.retired.pop_front().expect("non-empty");
            self.jobs.remove(&oldest);
        }
    }
}

/// Shared admission queue + job table. All methods are `&self`; the
/// registry is meant to live in an `Arc` shared by the accept loop,
/// connection handlers and workers.
#[derive(Debug)]
pub struct Registry {
    capacity: usize,
    retained: usize,
    inner: Mutex<Inner>,
    cond: Condvar,
}

impl Registry {
    /// A registry whose admission queue holds at most `capacity` jobs,
    /// retaining up to [`RETAINED_TERMINAL_JOBS`] finished records.
    pub fn new(capacity: usize) -> Self {
        Registry::with_retention(capacity, RETAINED_TERMINAL_JOBS)
    }

    /// Like [`Registry::new`] with an explicit terminal-record retention
    /// bound (smallest useful value is 1).
    pub fn with_retention(capacity: usize, retained: usize) -> Self {
        Registry {
            capacity: capacity.max(1),
            retained: retained.max(1),
            inner: Mutex::new(Inner {
                jobs: HashMap::new(),
                queue: VecDeque::new(),
                retired: VecDeque::new(),
                next_id: 1,
                draining: false,
                counters: Counters::default(),
            }),
            cond: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("registry lock")
    }

    /// Admits a job into the FIFO queue.
    ///
    /// # Errors
    ///
    /// [`AdmitError::Full`] when the queue is at capacity (explicit
    /// backpressure; the job is *not* enqueued), [`AdmitError::Draining`]
    /// once shutdown has begun.
    pub fn submit(&self, job: FlowJob) -> Result<SubmitReply, AdmitError> {
        let mut inner = self.lock();
        if inner.draining {
            return Err(AdmitError::Draining);
        }
        if domino_failpoint::should_fire("serve.registry.admit") {
            // Injected backpressure: indistinguishable from a genuinely
            // full queue, so the 429 + Retry-After path is exercised end
            // to end (client errors, gateway relay-verbatim).
            inner.counters.rejected += 1;
            return Err(AdmitError::Full {
                depth: inner.queue.len() as u64,
            });
        }
        if inner.queue.len() >= self.capacity {
            inner.counters.rejected += 1;
            return Err(AdmitError::Full {
                depth: inner.queue.len() as u64,
            });
        }
        let id = inner.next_id;
        inner.next_id += 1;
        let mut record = JobRecord {
            id,
            name: job.spec.name.clone(),
            key: job.cache_key().to_string(),
            status: JobStatus::Queued,
            cached: None,
            error: None,
            outcome_text: None,
            events: Vec::new(),
            cancel: CancelToken::new(),
            queued_at: Instant::now(),
            claimed_at: None,
            queue_ms: None,
            exec_ms: None,
            job: Some(Box::new(job)),
        };
        record.push_event(EventKind::Queued, None, None, None);
        let reply = SubmitReply {
            id,
            name: record.name.clone(),
            key: record.key.clone(),
            status: JobStatus::Queued,
            queue_depth: (inner.queue.len() + 1) as u64,
        };
        inner.jobs.insert(id, record);
        inner.queue.push_back(id);
        inner.counters.submitted += 1;
        self.cond.notify_all();
        Ok(reply)
    }

    /// Admits a job that the result cache already answered: the record is
    /// created in [`JobStatus::Completed`] with its full (zero-duration)
    /// event history and never touches the queue — warm traffic occupies
    /// no queue slot and no worker. `outcome_text` is the engine's exact
    /// serialized outcome.
    ///
    /// # Errors
    ///
    /// [`AdmitError::Draining`] once shutdown has begun (a draining server
    /// answers nothing new, warm or not).
    pub fn admit_completed(
        &self,
        job: &FlowJob,
        outcome_text: String,
    ) -> Result<SubmitReply, AdmitError> {
        let mut inner = self.lock();
        if inner.draining {
            return Err(AdmitError::Draining);
        }
        let id = inner.next_id;
        inner.next_id += 1;
        let mut record = JobRecord {
            id,
            name: job.spec.name.clone(),
            key: job.cache_key().to_string(),
            status: JobStatus::Completed,
            cached: Some(true),
            error: None,
            outcome_text: Some(outcome_text),
            events: Vec::new(),
            cancel: CancelToken::new(),
            queued_at: Instant::now(),
            claimed_at: None,
            queue_ms: Some(0),
            exec_ms: Some(0),
            job: None,
        };
        record.push_event(EventKind::Queued, None, None, None);
        record.push_event(EventKind::Started, None, Some(0), None);
        record.push_event(EventKind::Finished, Some(true), Some(0), None);
        let reply = SubmitReply {
            id,
            name: record.name.clone(),
            key: record.key.clone(),
            status: JobStatus::Completed,
            queue_depth: inner.queue.len() as u64,
        };
        inner.jobs.insert(id, record);
        inner.counters.submitted += 1;
        inner.counters.completed += 1;
        inner.counters.warm += 1;
        inner.retire(id, self.retained);
        Ok(reply)
    }

    /// Blocks until a queued job is available and claims it, recording the
    /// `started` event. Returns `None` once the registry is draining and
    /// the queue is empty — the worker's signal to exit.
    pub fn claim(&self) -> Option<(u64, FlowJob, CancelToken)> {
        let mut inner = self.lock();
        loop {
            while let Some(id) = inner.queue.pop_front() {
                let record = inner.jobs.get_mut(&id).expect("queued job has a record");
                if record.status != JobStatus::Queued {
                    // Unreachable today (cancel removes queued ids eagerly)
                    // but cheap insurance against a future race.
                    continue;
                }
                let now = Instant::now();
                let queue_ms = now.duration_since(record.queued_at).as_millis() as u64;
                record.status = JobStatus::Running;
                record.claimed_at = Some(now);
                record.queue_ms = Some(queue_ms);
                record.push_event(EventKind::Started, None, Some(queue_ms), None);
                let job = *record.job.take().expect("queued job carries its FlowJob");
                let token = record.cancel.clone();
                inner.counters.queue_wait_ms += queue_ms;
                return Some((id, job, token));
            }
            if inner.draining {
                return None;
            }
            inner = self.cond.wait(inner).expect("registry lock");
        }
    }

    /// Records a successful completion. `outcome_text` is the engine's
    /// serialized outcome, stored verbatim.
    pub fn finish(&self, id: u64, outcome_text: String, cached: bool) {
        let mut inner = self.lock();
        let record = inner.jobs.get_mut(&id).expect("finishing a known job");
        let exec_ms = elapsed_ms(record.claimed_at);
        record.status = JobStatus::Completed;
        record.cached = Some(cached);
        record.exec_ms = Some(exec_ms);
        record.outcome_text = Some(outcome_text);
        record.push_event(EventKind::Finished, Some(cached), Some(exec_ms), None);
        inner.counters.completed += 1;
        if cached {
            inner.counters.warm += 1;
        }
        inner.counters.exec_ms += exec_ms;
        inner.retire(id, self.retained);
    }

    /// Records a flow failure.
    pub fn fail(&self, id: u64, error: String) {
        let mut inner = self.lock();
        let record = inner.jobs.get_mut(&id).expect("failing a known job");
        let exec_ms = elapsed_ms(record.claimed_at);
        record.status = JobStatus::Failed;
        record.exec_ms = Some(exec_ms);
        record.error = Some(error.clone());
        record.push_event(EventKind::Failed, None, Some(exec_ms), Some(error));
        inner.counters.failed += 1;
        inner.counters.exec_ms += exec_ms;
        inner.retire(id, self.retained);
    }

    /// Marks a claimed job cancelled (the engine observed the token before
    /// running it).
    pub fn mark_cancelled(&self, id: u64) {
        let mut inner = self.lock();
        let record = inner.jobs.get_mut(&id).expect("cancelling a known job");
        if record.status.is_terminal() {
            return;
        }
        record.status = JobStatus::Cancelled;
        record.exec_ms = Some(elapsed_ms(record.claimed_at));
        record.push_event(EventKind::Cancelled, None, None, None);
        inner.counters.cancelled += 1;
        inner.retire(id, self.retained);
    }

    /// Requests cancellation of a job (`DELETE /jobs/:id`).
    ///
    /// Queued jobs transition to [`JobStatus::Cancelled`] immediately and
    /// never run. For running jobs cancellation is cooperative: the token
    /// is set and the engine observes it at the flow's stage boundaries
    /// (probabilities → search → synthesis → simulation), so the job stops
    /// at the next boundary rather than running to completion. The status
    /// returned *here* still says `Running`; it flips to `Cancelled` once
    /// the worker reports back.
    pub fn cancel(&self, id: u64) -> Option<StatusReply> {
        let mut inner = self.lock();
        let record = inner.jobs.get_mut(&id)?;
        record.cancel.cancel();
        if record.status == JobStatus::Queued {
            record.status = JobStatus::Cancelled;
            record.queue_ms = Some(record.queued_at.elapsed().as_millis() as u64);
            record.job = None;
            // elapsed_ms is documented as time-since-claim; a job cancelled
            // while queued was never claimed, so the event carries None
            // (the queue wait lives in the status document's queue_ms).
            record.push_event(EventKind::Cancelled, None, None, None);
            // Eager removal keeps the admission-capacity check accurate: a
            // cancelled job must free its queue slot immediately.
            inner.queue.retain(|&q| q != id);
            inner.counters.cancelled += 1;
            inner.retire(id, self.retained);
        }
        // The record may have been the retention victim of its own retire
        // call only if `retained == 0`, which the constructor forbids.
        let seed = inner.jobs[&id].status_seed();
        drop(inner);
        Some(attach_outcome(seed))
    }

    /// Current status of a job, or `None` for unknown ids.
    pub fn status(&self, id: u64) -> Option<StatusReply> {
        let seed = self.lock().jobs.get(&id).map(JobRecord::status_seed);
        seed.map(attach_outcome)
    }

    /// The stored outcome text (exact engine bytes) with the job's status;
    /// `None` for unknown ids.
    pub fn outcome_text(&self, id: u64) -> Option<(JobStatus, Option<String>, Option<String>)> {
        let inner = self.lock();
        let record = inner.jobs.get(&id)?;
        Some((
            record.status,
            record.outcome_text.clone(),
            record.error.clone(),
        ))
    }

    /// Events of job `id` with sequence number `>= from_seq`, plus whether
    /// a terminal event has been recorded. `None` for unknown ids.
    pub fn events_from(&self, id: u64, from_seq: u64) -> Option<(Vec<EventRecord>, bool)> {
        let inner = self.lock();
        let record = inner.jobs.get(&id)?;
        let fresh: Vec<EventRecord> = record
            .events
            .iter()
            .filter(|e| e.seq >= from_seq)
            .cloned()
            .collect();
        let terminal = record.events.last().is_some_and(|e| e.kind.is_terminal());
        Some((fresh, terminal))
    }

    /// Begins draining: no new admissions, workers finish the queue and
    /// exit.
    pub fn drain(&self) {
        // Runs from a server's `Drop` too, so it must not panic: raising
        // the flag is sound whatever a panicked lock holder left behind.
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.draining = true;
        self.cond.notify_all();
    }

    /// A metrics snapshot. `workers`/`uptime_ms`/`cache` are the caller's
    /// (the registry does not own them).
    pub fn metrics(
        &self,
        workers: u64,
        uptime_ms: u64,
        cache: Option<crate::protocol::CacheCounters>,
    ) -> MetricsReply {
        let inner = self.lock();
        let queue_depth = inner.queue.len() as u64;
        MetricsReply {
            queue_depth,
            queue_capacity: self.capacity as u64,
            workers,
            uptime_ms,
            submitted: inner.counters.submitted,
            rejected: inner.counters.rejected,
            completed: inner.counters.completed,
            failed: inner.counters.failed,
            cancelled: inner.counters.cancelled,
            warm: inner.counters.warm,
            queue_wait_ms: inner.counters.queue_wait_ms,
            exec_ms: inner.counters.exec_ms,
            cache,
            // The registry owns neither the snapshot store nor the
            // connection layer; the server overlays both before replying.
            snapshot: None,
            reactor: None,
            failpoints: crate::protocol::FailpointCounter::snapshot(),
        }
    }
}

/// Completes a [`JobRecord::status_seed`] pair by parsing the outcome
/// text — outside the registry lock.
fn attach_outcome((mut reply, text): (StatusReply, Option<String>)) -> StatusReply {
    reply.outcome = text
        .as_deref()
        .and_then(|t| domino_engine::json::parse(t).ok());
    reply
}

fn elapsed_ms(since: Option<Instant>) -> u64 {
    since.map(|t| t.elapsed().as_millis() as u64).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use domino_engine::JobSpec;

    fn job(name: &str) -> FlowJob {
        let mut spec = JobSpec::suite("frg1");
        spec.name = name.to_string();
        spec.resolve().expect("suite resolves")
    }

    #[test]
    fn fifo_order_and_event_sequence() {
        let reg = Registry::new(8);
        let a = reg.submit(job("a")).unwrap();
        let b = reg.submit(job("b")).unwrap();
        assert_eq!(a.queue_depth, 1);
        assert_eq!(b.queue_depth, 2);

        let (id_a, _, _) = reg.claim().unwrap();
        assert_eq!(id_a, a.id);
        reg.finish(id_a, "{}".to_string(), false);
        let (events, terminal) = reg.events_from(id_a, 0).unwrap();
        assert!(terminal);
        let kinds: Vec<_> = events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![EventKind::Queued, EventKind::Started, EventKind::Finished]
        );
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );

        let (id_b, _, _) = reg.claim().unwrap();
        assert_eq!(id_b, b.id);
    }

    #[test]
    fn full_queue_rejects_explicitly() {
        let reg = Registry::new(2);
        reg.submit(job("a")).unwrap();
        reg.submit(job("b")).unwrap();
        let err = reg.submit(job("c")).unwrap_err();
        assert_eq!(err, AdmitError::Full { depth: 2 });
        // The rejection is counted, and nothing was enqueued.
        let m = reg.metrics(1, 0, None);
        assert_eq!(m.rejected, 1);
        assert_eq!(m.submitted, 2);
        assert_eq!(m.queue_depth, 2);
    }

    #[test]
    fn cancel_while_queued_never_runs() {
        let reg = Registry::new(8);
        let a = reg.submit(job("a")).unwrap();
        let b = reg.submit(job("b")).unwrap();
        let reply = reg.cancel(a.id).unwrap();
        assert_eq!(reply.status, JobStatus::Cancelled);
        // The claim skips the cancelled id and hands out b.
        let (id, _, _) = reg.claim().unwrap();
        assert_eq!(id, b.id);
        let (events, terminal) = reg.events_from(a.id, 0).unwrap();
        assert!(terminal);
        assert_eq!(events.last().unwrap().kind, EventKind::Cancelled);
    }

    #[test]
    fn drain_wakes_idle_workers() {
        let reg = std::sync::Arc::new(Registry::new(4));
        let worker = {
            let reg = std::sync::Arc::clone(&reg);
            std::thread::spawn(move || reg.claim())
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        reg.drain();
        assert!(worker.join().unwrap().is_none());
        assert_eq!(reg.submit(job("late")).unwrap_err(), AdmitError::Draining);
    }

    #[test]
    fn terminal_records_are_evicted_beyond_the_retention_bound() {
        let reg = Registry::with_retention(8, 2);
        let ids: Vec<u64> = (0..3)
            .map(|i| reg.submit(job(&format!("j{i}"))).unwrap().id)
            .collect();
        for _ in 0..3 {
            let (id, _, _) = reg.claim().unwrap();
            reg.finish(id, "{}".to_string(), false);
        }
        // Only the 2 most recent terminal records survive; the oldest is
        // gone (404 at the HTTP layer) but its counters remain.
        assert!(reg.status(ids[0]).is_none(), "oldest evicted");
        assert!(reg.status(ids[1]).is_some());
        assert!(reg.status(ids[2]).is_some());
        assert_eq!(reg.metrics(1, 0, None).completed, 3);
    }
}
