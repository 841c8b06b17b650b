//! The wire protocol: typed request/response bodies and their JSON codecs.
//!
//! Every body on the wire is one JSON document produced by the engine's
//! deterministic writer ([`domino_engine::json`]), so responses are
//! byte-stable: serializing the same reply twice yields identical text.
//! Job submissions reuse [`domino_engine::JobSpec`]'s own codec — the
//! service adds no spec dialect of its own — and completed outcomes travel
//! as the *exact* serialized [`FlowOutcome`](domino_engine::FlowOutcome)
//! text the engine produced, which is what makes the wire byte-identical
//! to a local `dominoc run` (pinned by the serve integration tests).
//!
//! Every reply type here round-trips through its codec
//! (`from_json(to_json(x)) == x`), pinned by proptests at the bottom of
//! this module.

use std::fmt;

use domino_engine::json::Json;
use domino_engine::EngineError;

/// Lifecycle state of a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Admitted and waiting in the FIFO queue.
    Queued,
    /// Claimed by a worker and executing.
    Running,
    /// Finished successfully; the outcome is available.
    Completed,
    /// The flow failed; the error text is available.
    Failed,
    /// Cancelled before completion.
    Cancelled,
}

impl JobStatus {
    /// The wire tag for this status.
    pub fn tag(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Completed => "completed",
            JobStatus::Failed => "failed",
            JobStatus::Cancelled => "cancelled",
        }
    }

    /// Parses a wire tag.
    pub fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "queued" => Some(JobStatus::Queued),
            "running" => Some(JobStatus::Running),
            "completed" => Some(JobStatus::Completed),
            "failed" => Some(JobStatus::Failed),
            "cancelled" => Some(JobStatus::Cancelled),
            _ => None,
        }
    }

    /// `true` once the job can no longer change state.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobStatus::Completed | JobStatus::Failed | JobStatus::Cancelled
        )
    }
}

impl fmt::Display for JobStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// `202 Accepted` body for `POST /jobs`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitReply {
    /// Server-assigned job id (monotonic per server instance).
    pub id: u64,
    /// Display name echoed from the spec.
    pub name: String,
    /// The job's content-address (engine cache key).
    pub key: String,
    /// State at admission time: [`JobStatus::Queued`] for jobs that
    /// entered the queue, [`JobStatus::Completed`] for warm submissions
    /// the cache answered at admission (HTTP 200 instead of 202).
    pub status: JobStatus,
    /// Queue depth right after this admission.
    pub queue_depth: u64,
}

impl SubmitReply {
    /// Serializes to the wire JSON.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("id", Json::Num(self.id as f64)),
            ("name", Json::Str(self.name.clone())),
            ("key", Json::Str(self.key.clone())),
            ("status", Json::Str(self.status.tag().to_string())),
            ("queue_depth", Json::Num(self.queue_depth as f64)),
        ])
    }

    /// Parses the wire JSON.
    ///
    /// # Errors
    ///
    /// [`EngineError::Spec`] on missing or mistyped fields.
    pub fn from_json(v: &Json) -> Result<Self, EngineError> {
        Ok(SubmitReply {
            id: req_u64(v, "id")?,
            name: req_str(v, "name")?,
            key: req_str(v, "key")?,
            status: req_status(v)?,
            queue_depth: req_u64(v, "queue_depth")?,
        })
    }
}

/// `GET /jobs/:id` body: everything known about one job.
#[derive(Debug, Clone, PartialEq)]
pub struct StatusReply {
    /// Server-assigned job id.
    pub id: u64,
    /// Display name from the spec.
    pub name: String,
    /// The job's content-address (engine cache key).
    pub key: String,
    /// Current lifecycle state.
    pub status: JobStatus,
    /// Whether the outcome was answered from the result cache
    /// (`None` until completed).
    pub cached: Option<bool>,
    /// Milliseconds spent queued (`None` until claimed).
    pub queue_ms: Option<u64>,
    /// Milliseconds spent executing (`None` until finished).
    pub exec_ms: Option<u64>,
    /// Rendered error for failed jobs.
    pub error: Option<String>,
    /// The outcome document for completed jobs. Parsed from — and
    /// re-serializing to — the exact bytes the engine produced.
    pub outcome: Option<Json>,
}

impl StatusReply {
    /// Serializes to the wire JSON.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("id", Json::Num(self.id as f64)),
            ("name", Json::Str(self.name.clone())),
            ("key", Json::Str(self.key.clone())),
            ("status", Json::Str(self.status.tag().to_string())),
            ("cached", opt_bool(self.cached)),
            ("queue_ms", opt_u64(self.queue_ms)),
            ("exec_ms", opt_u64(self.exec_ms)),
            ("error", opt_str(&self.error)),
            ("outcome", self.outcome.clone().unwrap_or(Json::Null)),
        ])
    }

    /// Parses the wire JSON.
    ///
    /// # Errors
    ///
    /// [`EngineError::Spec`] on missing or mistyped fields.
    pub fn from_json(v: &Json) -> Result<Self, EngineError> {
        Ok(StatusReply {
            id: req_u64(v, "id")?,
            name: req_str(v, "name")?,
            key: req_str(v, "key")?,
            status: req_status(v)?,
            cached: opt_bool_from(v, "cached"),
            queue_ms: opt_u64_from(v, "queue_ms"),
            exec_ms: opt_u64_from(v, "exec_ms"),
            error: opt_str_from(v, "error"),
            outcome: match v.get("outcome") {
                None | Some(Json::Null) => None,
                Some(j) => Some(j.clone()),
            },
        })
    }
}

/// What kind of lifecycle transition an [`EventRecord`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Admitted into the queue.
    Queued,
    /// Claimed by a worker.
    Started,
    /// Completed successfully.
    Finished,
    /// The flow failed.
    Failed,
    /// Cancelled.
    Cancelled,
}

impl EventKind {
    /// The wire tag for this event kind.
    pub fn tag(self) -> &'static str {
        match self {
            EventKind::Queued => "queued",
            EventKind::Started => "started",
            EventKind::Finished => "finished",
            EventKind::Failed => "failed",
            EventKind::Cancelled => "cancelled",
        }
    }

    /// Parses a wire tag.
    pub fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "queued" => Some(EventKind::Queued),
            "started" => Some(EventKind::Started),
            "finished" => Some(EventKind::Finished),
            "failed" => Some(EventKind::Failed),
            "cancelled" => Some(EventKind::Cancelled),
            _ => None,
        }
    }

    /// `true` for events after which no further events can arrive.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            EventKind::Finished | EventKind::Failed | EventKind::Cancelled
        )
    }
}

/// One line of the `GET /jobs/:id/events` stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// Per-job sequence number, starting at 0 with the `queued` event.
    pub seq: u64,
    /// The job this event belongs to.
    pub id: u64,
    /// What happened.
    pub kind: EventKind,
    /// Display name of the job.
    pub name: String,
    /// For `finished`: whether the cache answered it.
    pub cached: Option<bool>,
    /// For terminal events: milliseconds since the job was claimed
    /// (`queued`/`cancelled-while-queued` events carry `None`).
    pub elapsed_ms: Option<u64>,
    /// For `failed`: the rendered error.
    pub error: Option<String>,
}

impl EventRecord {
    /// Serializes to the wire JSON (one line of the event stream).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("seq", Json::Num(self.seq as f64)),
            ("id", Json::Num(self.id as f64)),
            ("event", Json::Str(self.kind.tag().to_string())),
            ("name", Json::Str(self.name.clone())),
            ("cached", opt_bool(self.cached)),
            ("elapsed_ms", opt_u64(self.elapsed_ms)),
            ("error", opt_str(&self.error)),
        ])
    }

    /// Parses the wire JSON.
    ///
    /// # Errors
    ///
    /// [`EngineError::Spec`] on missing or mistyped fields.
    pub fn from_json(v: &Json) -> Result<Self, EngineError> {
        let kind = v
            .get("event")
            .and_then(Json::as_str)
            .and_then(EventKind::from_tag)
            .ok_or_else(|| missing("event"))?;
        Ok(EventRecord {
            seq: req_u64(v, "seq")?,
            id: req_u64(v, "id")?,
            kind,
            name: req_str(v, "name")?,
            cached: opt_bool_from(v, "cached"),
            elapsed_ms: opt_u64_from(v, "elapsed_ms"),
            error: opt_str_from(v, "error"),
        })
    }
}

/// Result-cache counters as exposed by `GET /metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCounters {
    /// Lookups answered from memory.
    pub memory_hits: u64,
    /// Lookups answered from disk.
    pub disk_hits: u64,
    /// Lookups that recomputed.
    pub misses: u64,
    /// Outcomes inserted.
    pub stores: u64,
    /// Entries currently on disk (0 for memory-only caches).
    pub disk_entries: u64,
    /// Corrupt disk entries detected and quarantined (served as misses,
    /// never as data).
    pub corrupt_evictions: u64,
}

impl CacheCounters {
    /// Total hits across both backends.
    pub fn hits(&self) -> u64 {
        self.memory_hits + self.disk_hits
    }

    fn to_json(self) -> Json {
        Json::obj(vec![
            ("memory_hits", Json::Num(self.memory_hits as f64)),
            ("disk_hits", Json::Num(self.disk_hits as f64)),
            ("misses", Json::Num(self.misses as f64)),
            ("stores", Json::Num(self.stores as f64)),
            ("disk_entries", Json::Num(self.disk_entries as f64)),
            (
                "corrupt_evictions",
                Json::Num(self.corrupt_evictions as f64),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, EngineError> {
        Ok(CacheCounters {
            memory_hits: req_u64(v, "memory_hits")?,
            disk_hits: req_u64(v, "disk_hits")?,
            misses: req_u64(v, "misses")?,
            stores: req_u64(v, "stores")?,
            disk_entries: req_u64(v, "disk_entries")?,
            // Absent on pre-quarantine servers: a gateway must keep
            // parsing their metrics during a rolling upgrade.
            corrupt_evictions: opt_u64_from(v, "corrupt_evictions").unwrap_or(0),
        })
    }
}

/// Warm-state snapshot-store counters as exposed by `GET /metrics` —
/// the restart-warm proof on the wire: after a restart over the same
/// `--snapshot-dir`, the first submission shows `hits > 0` with
/// `kernel_builds == 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SnapshotCounters {
    /// Probes answered by a verified on-disk snapshot.
    pub hits: u64,
    /// Probes that found nothing usable.
    pub misses: u64,
    /// Snapshots written to disk.
    pub stores: u64,
    /// BDD kernels actually built in this process (the zero a warm
    /// restart asserts on).
    pub kernel_builds: u64,
    /// Snapshots that failed verification and were quarantined (served
    /// as misses, never as data).
    pub corrupt_evictions: u64,
    /// Snapshots evicted by the disk byte budget.
    pub disk_evictions: u64,
    /// Snapshot entries currently on disk.
    pub disk_entries: u64,
    /// Bytes of snapshot entries currently on disk.
    pub disk_bytes: u64,
}

impl SnapshotCounters {
    fn to_json(self) -> Json {
        Json::obj(vec![
            ("hits", Json::Num(self.hits as f64)),
            ("misses", Json::Num(self.misses as f64)),
            ("stores", Json::Num(self.stores as f64)),
            ("kernel_builds", Json::Num(self.kernel_builds as f64)),
            (
                "corrupt_evictions",
                Json::Num(self.corrupt_evictions as f64),
            ),
            ("disk_evictions", Json::Num(self.disk_evictions as f64)),
            ("disk_entries", Json::Num(self.disk_entries as f64)),
            ("disk_bytes", Json::Num(self.disk_bytes as f64)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, EngineError> {
        Ok(SnapshotCounters {
            hits: req_u64(v, "hits")?,
            misses: req_u64(v, "misses")?,
            stores: req_u64(v, "stores")?,
            kernel_builds: req_u64(v, "kernel_builds")?,
            corrupt_evictions: opt_u64_from(v, "corrupt_evictions").unwrap_or(0),
            disk_evictions: opt_u64_from(v, "disk_evictions").unwrap_or(0),
            disk_entries: opt_u64_from(v, "disk_entries").unwrap_or(0),
            disk_bytes: opt_u64_from(v, "disk_bytes").unwrap_or(0),
        })
    }
}

/// One failpoint site's counters, as exposed by `GET /metrics` when the
/// process runs with an active fault-injection schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailpointCounter {
    /// Site name (e.g. `engine.cache.disk_write`).
    pub site: String,
    /// The schedule the site runs (`once`, `every(3)`, ...).
    pub mode: String,
    /// Times the site was evaluated.
    pub hits: u64,
    /// Evaluations that injected the fault.
    pub fires: u64,
}

impl FailpointCounter {
    /// The process's failpoint sites as `/metrics` reports them (see
    /// [`domino_failpoint::snapshot`]).
    pub fn snapshot() -> Vec<FailpointCounter> {
        domino_failpoint::snapshot()
            .into_iter()
            .map(|s| FailpointCounter {
                site: s.site,
                mode: s.mode,
                hits: s.hits,
                fires: s.fires,
            })
            .collect()
    }

    /// Serializes to the wire JSON.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("site", Json::Str(self.site.clone())),
            ("mode", Json::Str(self.mode.clone())),
            ("hits", Json::Num(self.hits as f64)),
            ("fires", Json::Num(self.fires as f64)),
        ])
    }

    /// Parses the wire JSON.
    ///
    /// # Errors
    ///
    /// [`EngineError::Spec`] on missing or mistyped fields.
    pub fn from_json(v: &Json) -> Result<Self, EngineError> {
        Ok(FailpointCounter {
            site: req_str(v, "site")?,
            mode: req_str(v, "mode")?,
            hits: req_u64(v, "hits")?,
            fires: req_u64(v, "fires")?,
        })
    }
}

/// Connection-reactor counters as exposed by `GET /metrics` — the
/// observable proof that connection handling is event-driven: under
/// thousands of kept-alive clients, `open_connections` scales while the
/// `workers` / handler thread counts do not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReactorCounters {
    /// Connections currently registered with the reactor.
    pub open_connections: u64,
    /// Connections accepted since start (including ones since closed).
    pub accepts: u64,
    /// Connections closed by the idle-timeout wheel.
    pub timeouts: u64,
}

impl ReactorCounters {
    /// Serializes to the wire JSON.
    pub fn to_json(self) -> Json {
        Json::obj(vec![
            ("open_connections", Json::Num(self.open_connections as f64)),
            ("accepts", Json::Num(self.accepts as f64)),
            ("timeouts", Json::Num(self.timeouts as f64)),
        ])
    }

    /// Parses the wire JSON.
    ///
    /// # Errors
    ///
    /// [`EngineError::Spec`] on missing or mistyped fields.
    pub fn from_json(v: &Json) -> Result<Self, EngineError> {
        Ok(ReactorCounters {
            open_connections: req_u64(v, "open_connections")?,
            accepts: req_u64(v, "accepts")?,
            timeouts: req_u64(v, "timeouts")?,
        })
    }
}

/// `GET /metrics` body: queue, lifecycle counters, stage timings, cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsReply {
    /// Jobs currently waiting in the queue.
    pub queue_depth: u64,
    /// Admission-queue capacity.
    pub queue_capacity: u64,
    /// Worker threads executing jobs.
    pub workers: u64,
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// Jobs admitted (`202`).
    pub submitted: u64,
    /// Jobs rejected with `429` (queue full). Nothing else produces one.
    pub rejected: u64,
    /// Jobs that completed successfully.
    pub completed: u64,
    /// Jobs whose flow failed.
    pub failed: u64,
    /// Jobs cancelled before completion.
    pub cancelled: u64,
    /// Completed jobs answered from the result cache.
    pub warm: u64,
    /// Total milliseconds jobs spent in the queue stage (admission →
    /// claim), summed over claimed jobs.
    pub queue_wait_ms: u64,
    /// Total milliseconds jobs spent in the execute stage (claim →
    /// terminal), summed over finished jobs.
    pub exec_ms: u64,
    /// Result-cache counters (`None` when the server runs uncached).
    pub cache: Option<CacheCounters>,
    /// Warm-state snapshot-store counters (`None` when the server runs
    /// without `--snapshot-dir`, and in documents from pre-snapshot
    /// servers — rolling upgrade).
    pub snapshot: Option<SnapshotCounters>,
    /// Connection-reactor counters (`None` in documents from
    /// pre-reactor servers — rolling upgrade).
    pub reactor: Option<ReactorCounters>,
    /// Fault-injection site counters; empty unless the process runs with
    /// an active failpoint schedule (chaos testing).
    pub failpoints: Vec<FailpointCounter>,
}

impl MetricsReply {
    /// Serializes to the wire JSON.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("queue_depth", Json::Num(self.queue_depth as f64)),
            ("queue_capacity", Json::Num(self.queue_capacity as f64)),
            ("workers", Json::Num(self.workers as f64)),
            ("uptime_ms", Json::Num(self.uptime_ms as f64)),
            ("submitted", Json::Num(self.submitted as f64)),
            ("rejected", Json::Num(self.rejected as f64)),
            ("completed", Json::Num(self.completed as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("cancelled", Json::Num(self.cancelled as f64)),
            ("warm", Json::Num(self.warm as f64)),
            ("queue_wait_ms", Json::Num(self.queue_wait_ms as f64)),
            ("exec_ms", Json::Num(self.exec_ms as f64)),
            (
                "cache",
                self.cache.map(CacheCounters::to_json).unwrap_or(Json::Null),
            ),
            (
                "snapshot",
                self.snapshot
                    .map(SnapshotCounters::to_json)
                    .unwrap_or(Json::Null),
            ),
            (
                "reactor",
                self.reactor
                    .map(ReactorCounters::to_json)
                    .unwrap_or(Json::Null),
            ),
            (
                "failpoints",
                Json::Arr(
                    self.failpoints
                        .iter()
                        .map(FailpointCounter::to_json)
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses the wire JSON.
    ///
    /// # Errors
    ///
    /// [`EngineError::Spec`] on missing or mistyped fields.
    pub fn from_json(v: &Json) -> Result<Self, EngineError> {
        Ok(MetricsReply {
            queue_depth: req_u64(v, "queue_depth")?,
            queue_capacity: req_u64(v, "queue_capacity")?,
            workers: req_u64(v, "workers")?,
            uptime_ms: req_u64(v, "uptime_ms")?,
            submitted: req_u64(v, "submitted")?,
            rejected: req_u64(v, "rejected")?,
            completed: req_u64(v, "completed")?,
            failed: req_u64(v, "failed")?,
            cancelled: req_u64(v, "cancelled")?,
            warm: req_u64(v, "warm")?,
            queue_wait_ms: req_u64(v, "queue_wait_ms")?,
            exec_ms: req_u64(v, "exec_ms")?,
            cache: match v.get("cache") {
                None | Some(Json::Null) => None,
                Some(j) => Some(CacheCounters::from_json(j)?),
            },
            // Absent on pre-snapshot servers (rolling upgrade).
            snapshot: match v.get("snapshot") {
                None | Some(Json::Null) => None,
                Some(j) => Some(SnapshotCounters::from_json(j)?),
            },
            // Absent on pre-reactor servers (rolling upgrade).
            reactor: match v.get("reactor") {
                None | Some(Json::Null) => None,
                Some(j) => Some(ReactorCounters::from_json(j)?),
            },
            // Absent on pre-failpoint servers (rolling upgrade).
            failpoints: match v.get("failpoints").and_then(Json::as_arr) {
                Some(items) => items
                    .iter()
                    .map(FailpointCounter::from_json)
                    .collect::<Result<_, _>>()?,
                None => Vec::new(),
            },
        })
    }
}

/// One backend's health as reported in the gateway's `GET /metrics`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendHealthDoc {
    /// Backend address (`host:port`).
    pub addr: String,
    /// Whether the last contact (probe or routed request) succeeded.
    pub healthy: bool,
    /// Times this backend transitioned healthy → down.
    pub down_transitions: u64,
    /// Circuit-breaker state label: `closed`, `open` or `half-open`.
    pub breaker: String,
}

impl BackendHealthDoc {
    /// Serializes to the wire JSON. Field order is part of the wire
    /// contract — fleet smoke checks grep for `"addr":...,"healthy":...`
    /// adjacency.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("addr", Json::Str(self.addr.clone())),
            ("healthy", Json::Bool(self.healthy)),
            ("down_transitions", Json::Num(self.down_transitions as f64)),
            ("breaker", Json::Str(self.breaker.clone())),
        ])
    }

    /// Parses the wire JSON leniently (absent fields default — documents
    /// from older gateways keep parsing during rolling upgrades).
    pub fn from_json(v: &Json) -> Self {
        BackendHealthDoc {
            addr: v
                .get("addr")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            healthy: v.get("healthy").and_then(Json::as_bool).unwrap_or(false),
            down_transitions: v
                .get("down_transitions")
                .and_then(Json::as_u64)
                .unwrap_or(0),
            // Absent in documents from pre-breaker gateways (rolling
            // upgrade): closed is the only state such a gateway can be in.
            breaker: v
                .get("breaker")
                .and_then(Json::as_str)
                .unwrap_or("closed")
                .to_string(),
        }
    }
}

/// The gateway's `GET /metrics` document (`dominogw`'s counterpart of
/// [`MetricsReply`]). Both servers now assemble their documents through
/// this module instead of by hand, so the shared sections — failpoints,
/// reactor — cannot drift between them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GatewayMetricsDoc {
    /// Milliseconds since the gateway started.
    pub uptime_ms: u64,
    /// Jobs forwarded to a backend (any reply status).
    pub routed: u64,
    /// Backend `429`s propagated to callers.
    pub rejected: u64,
    /// Submissions answered by a failover backend.
    pub failovers: u64,
    /// Cold-home submissions warmed from a peer before routing.
    pub peer_fills: u64,
    /// Submissions refused with `503` (no reachable backend).
    pub unroutable: u64,
    /// Sync submissions coalesced onto an in-flight leader's reply.
    pub coalesced: u64,
    /// Connection-reactor counters (`None` in documents from
    /// pre-reactor gateways — rolling upgrade).
    pub reactor: Option<ReactorCounters>,
    /// Per-backend health and breaker state.
    pub backends: Vec<BackendHealthDoc>,
    /// Failpoint site counters — empty unless the gateway runs with an
    /// active fault-injection schedule (chaos testing).
    pub failpoints: Vec<FailpointCounter>,
}

impl GatewayMetricsDoc {
    /// Serializes to the wire JSON (field order is part of the wire
    /// contract; see [`BackendHealthDoc::to_json`]).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("uptime_ms", Json::Num(self.uptime_ms as f64)),
            ("routed", Json::Num(self.routed as f64)),
            ("rejected", Json::Num(self.rejected as f64)),
            ("failovers", Json::Num(self.failovers as f64)),
            ("peer_fills", Json::Num(self.peer_fills as f64)),
            ("unroutable", Json::Num(self.unroutable as f64)),
            ("coalesced", Json::Num(self.coalesced as f64)),
            (
                "reactor",
                self.reactor
                    .map(ReactorCounters::to_json)
                    .unwrap_or(Json::Null),
            ),
            (
                "backends",
                Json::Arr(
                    self.backends
                        .iter()
                        .map(BackendHealthDoc::to_json)
                        .collect(),
                ),
            ),
            (
                "failpoints",
                Json::Arr(
                    self.failpoints
                        .iter()
                        .map(FailpointCounter::to_json)
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses the `GET /metrics` document of a gateway.
    ///
    /// # Errors
    ///
    /// [`EngineError::Spec`] on missing or mistyped required fields.
    /// Sections added after the first gateway release (`coalesced`,
    /// `reactor`, backend `breaker`) parse leniently for rolling
    /// upgrades.
    pub fn from_json(v: &Json) -> Result<Self, EngineError> {
        let backends = match v.get("backends") {
            Some(Json::Arr(items)) => items.iter().map(BackendHealthDoc::from_json).collect(),
            _ => Vec::new(),
        };
        let failpoints = match v.get("failpoints") {
            Some(Json::Arr(items)) => items
                .iter()
                .filter_map(|f| FailpointCounter::from_json(f).ok())
                .collect(),
            _ => Vec::new(),
        };
        Ok(GatewayMetricsDoc {
            uptime_ms: req_u64(v, "uptime_ms")?,
            routed: req_u64(v, "routed")?,
            rejected: req_u64(v, "rejected")?,
            failovers: req_u64(v, "failovers")?,
            peer_fills: req_u64(v, "peer_fills")?,
            unroutable: req_u64(v, "unroutable")?,
            // Absent in pre-coalescing documents (rolling upgrade).
            coalesced: v.get("coalesced").and_then(Json::as_u64).unwrap_or(0),
            // Absent in pre-reactor documents (rolling upgrade).
            reactor: match v.get("reactor") {
                None | Some(Json::Null) => None,
                Some(j) => Some(ReactorCounters::from_json(j)?),
            },
            backends,
            failpoints,
        })
    }
}

/// A `/metrics` document of either flavor: `dominod`'s server sections
/// (queue/cache/reactor/failpoints) or `dominogw`'s gateway sections
/// (routing counters/backends/reactor/failpoints). One entry point for
/// tools — the bench harness, `dominoc` — that scrape either server kind
/// without knowing in advance which they are talking to.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsDoc {
    /// The `dominod` sections, when the document came from a backend.
    pub server: Option<MetricsReply>,
    /// The `dominogw` sections, when the document came from a gateway.
    pub gateway: Option<GatewayMetricsDoc>,
}

impl MetricsDoc {
    /// Wraps a server-flavor document.
    pub fn server(reply: MetricsReply) -> Self {
        MetricsDoc {
            server: Some(reply),
            gateway: None,
        }
    }

    /// Wraps a gateway-flavor document.
    pub fn gateway(doc: GatewayMetricsDoc) -> Self {
        MetricsDoc {
            server: None,
            gateway: Some(doc),
        }
    }

    /// Reactor counters from whichever flavor is present.
    pub fn reactor(&self) -> Option<ReactorCounters> {
        self.server
            .as_ref()
            .and_then(|s| s.reactor)
            .or_else(|| self.gateway.as_ref().and_then(|g| g.reactor))
    }

    /// Serializes the present flavor to its wire JSON (an empty object
    /// when neither section is set).
    pub fn to_json(&self) -> Json {
        if let Some(server) = &self.server {
            server.to_json()
        } else if let Some(gateway) = &self.gateway {
            gateway.to_json()
        } else {
            Json::obj(Vec::new())
        }
    }

    /// Parses either flavor, detected by its signature fields: gateway
    /// documents carry `routed`, server documents `queue_depth`.
    ///
    /// # Errors
    ///
    /// [`EngineError::Spec`] when the document matches neither flavor or
    /// a required field of the detected flavor is missing.
    pub fn from_json(v: &Json) -> Result<Self, EngineError> {
        if v.get("routed").is_some() {
            return Ok(MetricsDoc::gateway(GatewayMetricsDoc::from_json(v)?));
        }
        if v.get("queue_depth").is_some() {
            return Ok(MetricsDoc::server(MetricsReply::from_json(v)?));
        }
        Err(EngineError::Spec(
            "not a metrics document: neither 'routed' nor 'queue_depth' present".to_string(),
        ))
    }
}

/// Error body sent with every non-2xx response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorReply {
    /// Human-readable reason.
    pub error: String,
}

impl ErrorReply {
    /// An error body with the given reason.
    pub fn new(error: impl Into<String>) -> Self {
        ErrorReply {
            error: error.into(),
        }
    }

    /// Serializes to the wire JSON.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![("error", Json::Str(self.error.clone()))])
    }

    /// Parses the wire JSON.
    ///
    /// # Errors
    ///
    /// [`EngineError::Spec`] if the `error` field is missing.
    pub fn from_json(v: &Json) -> Result<Self, EngineError> {
        Ok(ErrorReply {
            error: req_str(v, "error")?,
        })
    }
}

// ---- small codec helpers ----

fn missing(key: &str) -> EngineError {
    EngineError::Spec(format!("missing or mistyped field '{key}'"))
}

fn req_u64(v: &Json, key: &str) -> Result<u64, EngineError> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| missing(key))
}

fn req_str(v: &Json, key: &str) -> Result<String, EngineError> {
    Ok(v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| missing(key))?
        .to_string())
}

fn req_status(v: &Json) -> Result<JobStatus, EngineError> {
    v.get("status")
        .and_then(Json::as_str)
        .and_then(JobStatus::from_tag)
        .ok_or_else(|| missing("status"))
}

fn opt_bool(v: Option<bool>) -> Json {
    v.map(Json::Bool).unwrap_or(Json::Null)
}

fn opt_u64(v: Option<u64>) -> Json {
    v.map(|n| Json::Num(n as f64)).unwrap_or(Json::Null)
}

fn opt_str(v: &Option<String>) -> Json {
    v.as_ref()
        .map(|s| Json::Str(s.clone()))
        .unwrap_or(Json::Null)
}

fn opt_bool_from(v: &Json, key: &str) -> Option<bool> {
    v.get(key).and_then(Json::as_bool)
}

fn opt_u64_from(v: &Json, key: &str) -> Option<u64> {
    v.get(key).and_then(Json::as_u64)
}

fn opt_str_from(v: &Json, key: &str) -> Option<String> {
    v.get(key).and_then(Json::as_str).map(str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Millisecond/counter values stay below 2^40 so they survive the
    /// `f64`-carried `Json::Num` exactly (the wire uses the engine's JSON
    /// model; only sim seeds need the full u64 range, and those travel
    /// through `JobSpec`'s own string codec).
    const COUNTER: std::ops::Range<u64> = 0..(1 << 40);

    fn status_strategy() -> impl Strategy<Value = JobStatus> {
        (0u64..5).prop_map(|i| {
            [
                JobStatus::Queued,
                JobStatus::Running,
                JobStatus::Completed,
                JobStatus::Failed,
                JobStatus::Cancelled,
            ][i as usize]
        })
    }

    fn kind_strategy() -> impl Strategy<Value = EventKind> {
        (0u64..5).prop_map(|i| {
            [
                EventKind::Queued,
                EventKind::Started,
                EventKind::Finished,
                EventKind::Failed,
                EventKind::Cancelled,
            ][i as usize]
        })
    }

    fn name_strategy() -> impl Strategy<Value = String> {
        prop::collection::vec(0usize..64, 0..12).prop_map(|chars| {
            chars
                .into_iter()
                .map(|c| {
                    // Exercise escaping: quotes, backslashes, newlines,
                    // control characters and non-ASCII all appear.
                    [
                        'a', 'Z', '0', ' ', '"', '\\', '\n', '\t', '\u{1}', 'é', '∑', '-',
                    ][c % 12]
                })
                .collect()
        })
    }

    fn opt<S: Strategy + 'static>(s: S) -> impl Strategy<Value = Option<S::Value>>
    where
        S::Value: Clone + std::fmt::Debug,
    {
        (any::<bool>(), s).prop_map(|(some, v)| if some { Some(v) } else { None })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn submit_reply_roundtrips(
            id in COUNTER, depth in COUNTER, name in name_strategy(), status in status_strategy()
        ) {
            let reply = SubmitReply {
                id,
                name,
                key: format!("{id:032x}"),
                status,
                queue_depth: depth,
            };
            let text = reply.to_json().serialize();
            let v = domino_engine::json::parse(&text).unwrap();
            prop_assert_eq!(SubmitReply::from_json(&v).unwrap(), reply);
        }

        #[test]
        fn status_reply_roundtrips(
            id in COUNTER,
            name in name_strategy(),
            status in status_strategy(),
            cached in opt(any::<bool>()),
            queue_ms in opt(COUNTER),
            exec_ms in opt(COUNTER),
            error in opt(name_strategy()),
            has_outcome: bool
        ) {
            let outcome = has_outcome.then(|| {
                Json::obj(vec![
                    ("name", Json::Str("frg1".into())),
                    ("pis", Json::Num(31.0)),
                ])
            });
            let reply = StatusReply {
                id,
                name,
                key: "k".repeat(8),
                status,
                cached,
                queue_ms,
                exec_ms,
                error,
                outcome,
            };
            let text = reply.to_json().serialize();
            let v = domino_engine::json::parse(&text).unwrap();
            prop_assert_eq!(StatusReply::from_json(&v).unwrap(), reply);
        }

        #[test]
        fn event_record_roundtrips(
            seq in COUNTER,
            id in COUNTER,
            kind in kind_strategy(),
            name in name_strategy(),
            cached in opt(any::<bool>()),
            elapsed in opt(COUNTER)
        ) {
            let record = EventRecord {
                seq,
                id,
                kind,
                name,
                cached,
                elapsed_ms: elapsed,
                error: kind.is_terminal().then(|| "boom \"quoted\"".to_string()),
            };
            let text = record.to_json().serialize();
            let v = domino_engine::json::parse(&text).unwrap();
            prop_assert_eq!(EventRecord::from_json(&v).unwrap(), record);
        }

        #[test]
        fn metrics_reply_roundtrips(
            a in COUNTER, b in COUNTER, c in COUNTER, d in COUNTER,
            e in COUNTER, with_cache: bool
        ) {
            let reply = MetricsReply {
                queue_depth: a,
                queue_capacity: b,
                workers: c,
                uptime_ms: d,
                submitted: e,
                rejected: a ^ b,
                completed: b ^ c,
                failed: c ^ d,
                cancelled: d ^ e,
                warm: a ^ e,
                queue_wait_ms: a.wrapping_add(b) & ((1 << 40) - 1),
                exec_ms: c.wrapping_add(d) & ((1 << 40) - 1),
                cache: with_cache.then_some(CacheCounters {
                    memory_hits: a,
                    disk_hits: b,
                    misses: c,
                    stores: d,
                    disk_entries: e,
                    corrupt_evictions: a ^ c,
                }),
                snapshot: with_cache.then_some(SnapshotCounters {
                    hits: a,
                    misses: b,
                    stores: c,
                    kernel_builds: d,
                    corrupt_evictions: e,
                    disk_evictions: a ^ b,
                    disk_entries: b ^ d,
                    disk_bytes: a.wrapping_add(e) & ((1 << 40) - 1),
                }),
                reactor: with_cache.then_some(ReactorCounters {
                    open_connections: a,
                    accepts: b,
                    timeouts: c ^ e,
                }),
                failpoints: if with_cache {
                    vec![FailpointCounter {
                        site: "engine.cache.disk_write".into(),
                        mode: "every(3)".into(),
                        hits: a,
                        fires: b,
                    }]
                } else {
                    Vec::new()
                },
            };
            let text = reply.to_json().serialize();
            let v = domino_engine::json::parse(&text).unwrap();
            prop_assert_eq!(MetricsReply::from_json(&v).unwrap(), reply);
        }

        #[test]
        fn gateway_metrics_doc_roundtrips(
            a in COUNTER, b in COUNTER, c in COUNTER, d in COUNTER,
            e in COUNTER, with_extras: bool
        ) {
            let doc = GatewayMetricsDoc {
                uptime_ms: a,
                routed: b,
                rejected: c,
                failovers: d,
                peer_fills: e,
                unroutable: a ^ b,
                coalesced: b ^ c,
                reactor: with_extras.then_some(ReactorCounters {
                    open_connections: d,
                    accepts: e,
                    timeouts: a ^ d,
                }),
                backends: vec![BackendHealthDoc {
                    addr: "127.0.0.1:7171".into(),
                    healthy: with_extras,
                    down_transitions: c ^ d,
                    breaker: "half-open".into(),
                }],
                failpoints: if with_extras {
                    vec![FailpointCounter {
                        site: "fleet.gateway.relay".into(),
                        mode: "once".into(),
                        hits: a,
                        fires: b,
                    }]
                } else {
                    Vec::new()
                },
            };
            let text = doc.to_json().serialize();
            let v = domino_engine::json::parse(&text).unwrap();
            prop_assert_eq!(GatewayMetricsDoc::from_json(&v).unwrap(), doc.clone());
            // Flavor detection routes the same bytes through MetricsDoc.
            let unified = MetricsDoc::from_json(&v).unwrap();
            prop_assert_eq!(unified.gateway, Some(doc));
            prop_assert_eq!(unified.server, None);
        }
    }

    #[test]
    fn metrics_doc_detects_flavors_and_rejects_neither() {
        let server = domino_engine::json::parse(
            r#"{"queue_depth":0,"queue_capacity":4,"workers":1,"uptime_ms":9,
                "submitted":0,"rejected":0,"completed":0,"failed":0,
                "cancelled":0,"warm":0,"queue_wait_ms":0,"exec_ms":0}"#,
        )
        .unwrap();
        let doc = MetricsDoc::from_json(&server).unwrap();
        assert!(doc.server.is_some() && doc.gateway.is_none());
        assert_eq!(doc.reactor(), None, "pre-reactor documents parse");

        let gateway = domino_engine::json::parse(
            r#"{"uptime_ms":9,"routed":3,"rejected":0,"failovers":1,
                "peer_fills":0,"unroutable":0,
                "reactor":{"open_connections":2,"accepts":5,"timeouts":1}}"#,
        )
        .unwrap();
        let doc = MetricsDoc::from_json(&gateway).unwrap();
        assert!(doc.gateway.is_some() && doc.server.is_none());
        assert_eq!(
            doc.reactor(),
            Some(ReactorCounters {
                open_connections: 2,
                accepts: 5,
                timeouts: 1
            })
        );

        let neither = domino_engine::json::parse(r#"{"status":"ok"}"#).unwrap();
        assert!(MetricsDoc::from_json(&neither).is_err());
    }

    #[test]
    fn error_reply_roundtrips() {
        let reply = ErrorReply::new("queue full: 4 jobs waiting");
        let v = domino_engine::json::parse(&reply.to_json().serialize()).unwrap();
        assert_eq!(ErrorReply::from_json(&v).unwrap(), reply);
    }

    #[test]
    fn unknown_status_tag_is_rejected() {
        let v = domino_engine::json::parse(
            r#"{"id":1,"name":"x","key":"k","status":"nonesuch","queue_depth":0}"#,
        )
        .unwrap();
        assert!(SubmitReply::from_json(&v).is_err());
    }

    #[test]
    fn terminal_flags_are_consistent() {
        for s in [JobStatus::Queued, JobStatus::Running] {
            assert!(!s.is_terminal());
        }
        for s in [
            JobStatus::Completed,
            JobStatus::Failed,
            JobStatus::Cancelled,
        ] {
            assert!(s.is_terminal());
        }
        assert!(!EventKind::Queued.is_terminal());
        assert!(!EventKind::Started.is_terminal());
        assert!(EventKind::Finished.is_terminal());
    }
}
