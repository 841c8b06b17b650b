//! `dominod`'s core: the reactor front, the HTTP router, the worker pool
//! and graceful shutdown.
//!
//! # Request lifecycle
//!
//! ```text
//! POST /jobs ──▶ parse JobSpec ──▶ resolve circuit ──▶ cache probe
//!                   (400)          (400; memoized)      │hit: 200, no queue
//!                                                       │miss
//!                                                       ▼ admission queue
//!                                                      (202 | 429+Retry-After)
//!                                                          │ FIFO
//!                                                          ▼
//!                                               worker: FlowEngine::run_one
//!                                               (shared ResultCache: get,
//!                                                run, atomic store)
//!                                                          │
//!          GET /jobs/:id ◀── status/outcome ◀── registry ◀─┘
//!          GET /jobs/:id/result   (the engine's exact outcome bytes)
//!          GET /jobs/:id/events   (chunked stream, one JSON line each)
//!          DELETE /jobs/:id       (cooperative cancel)
//! ```
//!
//! # Threads
//!
//! One reactor thread ([`crate::front`]) multiplexes every socket; a
//! small handler pool runs the router; the worker pool executes jobs. A
//! long-poll (`?wait=1`) or `/events` stream that must wait holds no
//! thread: its connection is *parked* under the job's id, and the thread
//! that moves the job on — a worker that claims or ends it, or the
//! `DELETE` handler that cancels it while queued — answers that job's
//! parked waiters itself. Ten thousand clients blocked on results cost
//! no thread at all.
//!
//! Determinism holds across the wire because the server stores and serves
//! the engine's serialized [`FlowOutcome`](domino_engine::FlowOutcome)
//! *verbatim*: for any spec, `GET /jobs/:id/result` is byte-identical to
//! the JSONL a local `dominoc run` emits, warm or cold cache, at any
//! worker or client count (pinned by `tests/server_integration.rs`).
//!
//! # Shutdown
//!
//! The server runs in a [`Service`] shell, whose drain latch `POST
//! /shutdown`, a [`ShutdownHandle`], SIGTERM/SIGINT and `Drop` all trip:
//! admissions turn into `503`, the reactor closes its listener and idle
//! connections, workers finish every job already admitted — each terminal
//! transition answering that job's parked waiters — and in-flight
//! connections close after their final response. The on-disk cache
//! needs no separate flush — every store is written (atomically) at
//! completion time — so a drained server can be killed with nothing in
//! flight.

use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use domino_engine::json::{parse, Json};
use domino_engine::{
    CircuitSource, EngineConfig, EngineError, FlowEngine, FlowJob, JobResult, JobSpec, ResultCache,
};

use crate::config::ArgTable;
use crate::front::{FrontConfig, FrontHandle, Responder, StreamHandle};
use crate::http::Request;
use crate::protocol::{CacheCounters, ErrorReply, JobStatus};
use crate::registry::{AdmitError, Registry};
use crate::service::{Router, Service, ShutdownHandle};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (the bound address is
    /// reported by [`Server::addr`]).
    pub addr: String,
    /// Worker threads executing jobs. `0` means one per available CPU.
    pub workers: usize,
    /// Admission-queue capacity; submissions beyond it get `429`.
    pub queue_capacity: usize,
    /// Shared result cache; `None` disables caching.
    pub cache: Option<Arc<ResultCache>>,
    /// Warm-state snapshot store sitting *under* the result cache: on a
    /// cache miss the worker rebuilds the flow from a persisted BDD +
    /// probability snapshot instead of recomputing the kernel. `None`
    /// disables snapshots.
    pub snapshots: Option<Arc<domino_engine::SnapshotStore>>,
    /// Connection limits of the reactor front.
    pub front: FrontConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: format!("127.0.0.1:{DEFAULT_PORT}"),
            workers: 0,
            queue_capacity: 64,
            cache: None,
            snapshots: None,
            front: FrontConfig::default(),
        }
    }
}

impl ServeConfig {
    /// The server's flag table (see [`crate::config`]): the single
    /// declaration behind both [`ServeConfig::parse_args`] and
    /// `dominod --help`.
    pub fn arg_table() -> ArgTable {
        let table = ArgTable::new("server")
            .flag(
                "--addr",
                "<host:port>",
                "bind address [127.0.0.1:7171]; port 0 = ephemeral",
            )
            .flag("--workers", "<n>", "worker threads, 0 = all CPUs [0]")
            .flag("--queue", "<n>", "admission queue capacity [64]")
            .flag(
                "--cache",
                "<dir>",
                "on-disk result cache (shared with dominoc)",
            )
            .flag(
                "--cache-mem-entries",
                "<n>",
                "in-memory cache entry budget, 0 = unbounded [0]",
            )
            .flag(
                "--cache-disk-bytes",
                "<n>",
                "on-disk cache byte budget, 0 = unbounded [0]",
            )
            .flag(
                "--snapshot-dir",
                "<dir>",
                "warm-state snapshot store: persisted probability\nkernels survive restarts (shared with dominoc)",
            )
            .flag(
                "--snapshot-disk-bytes",
                "<n>",
                "snapshot store byte budget, 0 = unbounded [0]",
            );
        crate::config::failpoint_docs(crate::config::connection_flags(table))
    }

    /// Parses the `dominod` flags (`--addr`, `--workers`, `--queue`,
    /// `--cache`, `--cache-mem-entries`, `--cache-disk-bytes`,
    /// `--snapshot-dir`, `--snapshot-disk-bytes`, `--idle-ms`,
    /// `--max-requests`, `--max-connections`).
    ///
    /// # Errors
    ///
    /// A rendered usage message for unknown flags, missing values,
    /// non-integer counts, a zero queue capacity, cache/snapshot budgets
    /// without their directory flag, or an unusable cache or snapshot
    /// directory.
    pub fn parse_args(args: &[String]) -> Result<ServeConfig, String> {
        let parsed = Self::arg_table().parse(args)?;
        let mut config = ServeConfig::default();
        parsed.set_string("--addr", &mut config.addr);
        parsed.set_integer("--workers", &mut config.workers)?;
        parsed.set_integer_at_least_one("--queue", &mut config.queue_capacity)?;
        config.front = FrontConfig::from_args(&parsed)?;
        let mut cache_mem_entries: usize = 0;
        parsed.set_integer("--cache-mem-entries", &mut cache_mem_entries)?;
        let mut cache_disk_bytes: u64 = 0;
        parsed.set_integer("--cache-disk-bytes", &mut cache_disk_bytes)?;
        // The cache is built last so the budget flags work in any order
        // relative to `--cache`.
        match parsed.last("--cache") {
            Some(dir) => {
                let cache = ResultCache::on_disk(dir)
                    .map_err(|e| e.to_string())?
                    .with_memory_entry_budget(cache_mem_entries)
                    .with_disk_byte_budget(cache_disk_bytes);
                config.cache = Some(Arc::new(cache));
            }
            None if cache_mem_entries != 0 || cache_disk_bytes != 0 => {
                return Err("cache budget flags require --cache".to_string());
            }
            None => {}
        }
        let mut snapshot_disk_bytes: u64 = 0;
        parsed.set_integer("--snapshot-disk-bytes", &mut snapshot_disk_bytes)?;
        match parsed.last("--snapshot-dir") {
            Some(dir) => {
                let store = domino_engine::SnapshotStore::on_disk(dir)?
                    .with_disk_byte_budget(snapshot_disk_bytes);
                config.snapshots = Some(Arc::new(store));
            }
            None if snapshot_disk_bytes != 0 => {
                return Err("--snapshot-disk-bytes requires --snapshot-dir".to_string());
            }
            None => {}
        }
        Ok(config)
    }
}

/// The default `dominod` port.
pub const DEFAULT_PORT: u16 = 7171;

/// The one place `dominod` and `dominogw` resolve an admitted spec.
/// Memoizes circuit resolution by source *content*: repeated submissions
/// of the same suite row or inline BLIF clone the parsed
/// [`Network`](domino_netlist::Network) instead of re-generating/-parsing
/// it — on the warm path that is most of the per-request CPU. Only
/// successfully resolved sources enter the memo, so a hit is always
/// sound.
///
/// A server resolves only what a request carries: a `blif_path` source
/// is refused, since resolving it would open a path on the server's own
/// host — a FIFO blocks the handler for good, and `/dev/zero` aborts the
/// process when the line reader runs out of memory. `dominoc submit`
/// sends BLIF files inline.
///
/// Bounded in **bytes**, not just entries: sources above 1 MiB are never
/// memoized, and the memo is emptied once it holds 256 entries or 16 MiB
/// of source text (the parsed networks scale with their sources) — a
/// client cycling through large distinct inline circuits cannot grow
/// server memory past the budget.
#[derive(Debug, Default)]
pub struct ResolveMemo {
    map: Mutex<(HashMap<String, domino_netlist::Network>, usize)>,
}

/// Distinct sources kept by the resolve memo before it resets.
const RESOLVE_MEMO_CAP: usize = 256;

/// Largest single source the memo will retain (1 MiB — every suite
/// circuit is far below this; a one-off giant BLIF just re-parses).
const RESOLVE_MEMO_MAX_SOURCE_BYTES: usize = 1024 * 1024;

/// Total source bytes retained before the memo resets (16 MiB).
const RESOLVE_MEMO_MAX_TOTAL_BYTES: usize = 16 * 1024 * 1024;

impl ResolveMemo {
    /// The admission decode both servers run on a `POST /jobs` body:
    /// UTF-8, JSON, [`JobSpec::from_json`], then the memoized resolve.
    ///
    /// # Errors
    ///
    /// The `400` text: a body that is not UTF-8, an invalid job spec, or
    /// an unresolvable job — a `blif_path` source, or whatever
    /// [`JobSpec::resolve`] returns.
    pub fn job_from_body(&self, body: &[u8]) -> Result<FlowJob, String> {
        let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
        let spec = parse(text)
            .map_err(|e| e.to_string())
            .and_then(|v| JobSpec::from_json(&v).map_err(|e| e.to_string()))
            .map_err(|e| format!("invalid job spec: {e}"))?;
        self.resolve(spec)
            .map_err(|e| format!("unresolvable job: {e}"))
    }

    /// Pairs `spec` with its circuit, parsed or generated once per
    /// distinct source while the memo keeps it.
    fn resolve(&self, spec: JobSpec) -> Result<FlowJob, EngineError> {
        let key = match &spec.source {
            CircuitSource::Suite(name) => format!("suite\u{0}{name}"),
            CircuitSource::BlifInline(text) => format!("blif\u{0}{text}"),
            CircuitSource::BlifPath(_) => {
                return Err(EngineError::Spec(
                    "a server does not read 'blif_path' sources; send the BLIF text as 'blif'"
                        .into(),
                ))
            }
        };
        if key.len() > RESOLVE_MEMO_MAX_SOURCE_BYTES {
            return spec.resolve();
        }
        if let Some(net) = self.map.lock().expect("memo lock").0.get(&key) {
            return Ok(FlowJob::new(spec, net.clone()));
        }
        let job = spec.resolve()?;
        let mut guard = self.map.lock().expect("memo lock");
        let (map, bytes) = &mut *guard;
        if map.len() >= RESOLVE_MEMO_CAP || *bytes + key.len() > RESOLVE_MEMO_MAX_TOTAL_BYTES {
            map.clear();
            *bytes = 0;
        }
        // Two racing resolvers of the same new source both reach here;
        // count the key's bytes only for the insert that actually adds an
        // entry, or the accounting drifts above the real total.
        if let std::collections::hash_map::Entry::Vacant(slot) = map.entry(key) {
            *bytes += slot.key().len();
            slot.insert(job.network.clone());
        }
        Ok(job)
    }
}

/// A request waiting on one job, parked with the connection held by the
/// reactor until a transition of that job answers it.
enum Waiter {
    /// `POST /jobs?wait=1` / `GET /jobs/:id/result?wait=1`: answer with
    /// the outcome bytes once the job is terminal.
    Outcome(Responder),
    /// `GET /jobs/:id?wait=1`: answer with the status document once the
    /// job is terminal.
    Terminal(Responder),
    /// `GET /jobs/:id/events`: feed fresh events as chunks; finish at
    /// the terminal event.
    Events { stream: StreamHandle, next_seq: u64 },
}

impl Waiter {
    /// `false` once the reactor has closed the waiter's connection.
    fn is_live(&self) -> bool {
        match self {
            Waiter::Outcome(responder) | Waiter::Terminal(responder) => responder.is_live(),
            Waiter::Events { stream, .. } => stream.is_live(),
        }
    }
}

/// Parked waiters by job id. A waiter whose client has left is dropped at
/// its job's next transition, or when another waiter parks on that job:
/// every waiter of a job was live when the last one parked, so a job
/// never holds more waiters than the reactor has connections.
type Parked = HashMap<u64, Vec<Waiter>>;

struct Shared {
    registry: Registry,
    resolve_memo: ResolveMemo,
    engine: FlowEngine,
    cache: Option<Arc<ResultCache>>,
    snapshots: Option<Arc<domino_engine::SnapshotStore>>,
    front: FrontHandle,
    parked: Mutex<Parked>,
    started: Instant,
    workers: usize,
}

impl Router for Shared {
    fn route(shared: &Arc<Self>, request: Request, responder: Responder) {
        route(shared, &request, responder);
    }

    /// Admissions close and idle workers wake; they exit once the
    /// admitted queue has run.
    fn drain(&self) {
        self.registry.drain();
    }
}

impl Shared {
    fn is_shutting_down(&self) -> bool {
        self.front.is_draining()
    }

    /// The parked waiters. A panic while the lock is held can only lose
    /// the waiters it was serving; the map itself stays valid, so later
    /// callers carry on with it.
    fn parked(&self) -> MutexGuard<'_, Parked> {
        self.parked.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Answers `waiter` now if its job lets it, or parks it under `id`.
    /// The check and the insert happen under one lock, the lock
    /// [`Shared::wake`] takes after every transition: a transition either
    /// lands before the check, which then sees it, or its wake finds the
    /// waiter parked.
    fn park(&self, id: u64, waiter: Waiter) {
        let mut parked = self.parked();
        if let Some(waiter) = self.service_waiter(id, waiter) {
            let waiters = parked.entry(id).or_default();
            waiters.retain(Waiter::is_live);
            waiters.push(waiter);
        }
    }

    /// Called by the thread that just moved job `id` on: advances each of
    /// its parked waiters and parks again those that must still wait.
    fn wake(&self, id: u64) {
        let mut parked = self.parked();
        for waiter in parked.remove(&id).unwrap_or_default() {
            if let Some(waiter) = self.service_waiter(id, waiter) {
                parked.entry(id).or_default().push(waiter);
            }
        }
    }

    /// Advances one waiter on job `id`; returns it if it must still wait.
    fn service_waiter(&self, id: u64, waiter: Waiter) -> Option<Waiter> {
        if !waiter.is_live() {
            return None; // client hung up; drop the reply
        }
        match waiter {
            Waiter::Outcome(responder) => match self.registry.outcome_text(id) {
                None => {
                    not_found(responder, id);
                    None
                }
                Some((status, text, error)) if status.is_terminal() => {
                    respond_outcome(responder, status, text, error);
                    None
                }
                Some(_) => Some(Waiter::Outcome(responder)),
            },
            Waiter::Terminal(responder) => match self.registry.status(id) {
                None => {
                    not_found(responder, id);
                    None
                }
                Some(reply) if reply.status.is_terminal() => {
                    responder.respond(200, &[], reply.to_json().serialize().as_bytes());
                    None
                }
                Some(_) => Some(Waiter::Terminal(responder)),
            },
            Waiter::Events {
                mut stream,
                mut next_seq,
            } => {
                match self.registry.events_from(id, next_seq) {
                    None => {
                        // The job fell out of retention mid-stream; end the
                        // stream cleanly rather than hold the client forever.
                        stream.finish();
                        None
                    }
                    Some((fresh, terminal)) => {
                        for event in &fresh {
                            let mut line = event.to_json().serialize();
                            line.push('\n');
                            stream.chunk(line.as_bytes());
                            next_seq = event.seq + 1;
                        }
                        if terminal {
                            stream.finish();
                            None
                        } else {
                            Some(Waiter::Events { stream, next_seq })
                        }
                    }
                }
            }
        }
    }

    fn cache_counters(&self) -> Option<CacheCounters> {
        self.cache.as_ref().map(|cache| {
            let stats = cache.stats();
            CacheCounters {
                memory_hits: stats.memory_hits,
                disk_hits: stats.disk_hits,
                misses: stats.misses,
                stores: stats.stores,
                disk_entries: cache.disk_len() as u64,
                corrupt_evictions: stats.corrupt_evictions,
            }
        })
    }

    fn snapshot_counters(&self) -> Option<crate::protocol::SnapshotCounters> {
        self.snapshots.as_ref().map(|store| {
            let stats = store.stats();
            crate::protocol::SnapshotCounters {
                hits: stats.hits,
                misses: stats.misses,
                stores: stats.stores,
                kernel_builds: stats.kernel_builds,
                corrupt_evictions: stats.corrupt_evictions,
                disk_evictions: stats.disk_evictions,
                disk_entries: store.disk_len() as u64,
                disk_bytes: store.disk_bytes(),
            }
        })
    }

    fn metrics(&self) -> crate::protocol::MetricsReply {
        let mut reply = self.registry.metrics(
            self.workers as u64,
            self.started.elapsed().as_millis() as u64,
            self.cache_counters(),
        );
        reply.snapshot = self.snapshot_counters();
        reply.reactor = Some(self.front.counters());
        reply
    }
}

/// A running `dominod` instance: a worker pool over one job registry,
/// routed by a [`Service`] shell.
pub struct Server {
    service: Service,
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("service", &self.service)
            .finish()
    }
}

impl Server {
    /// Binds, spawns the reactor and the handler/worker pools, and
    /// returns.
    ///
    /// # Errors
    ///
    /// [`io::Error`] if the address cannot be bound or the reactor
    /// cannot be set up.
    pub fn start(config: ServeConfig) -> io::Result<Server> {
        let workers = if config.workers == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            config.workers
        };
        let (mut service, shared) =
            Service::start("dominod", &config.addr, config.front, |front| Shared {
                registry: Registry::new(config.queue_capacity),
                resolve_memo: ResolveMemo::default(),
                engine: FlowEngine::new(EngineConfig {
                    threads: 1,
                    cache: config.cache.clone(),
                    snapshots: config.snapshots.clone(),
                }),
                cache: config.cache,
                snapshots: config.snapshots,
                front,
                parked: Mutex::new(HashMap::new()),
                started: Instant::now(),
                workers,
            })?;
        for _ in 0..workers {
            let shared = Arc::clone(&shared);
            service.spawn_worker(move || worker_loop(&shared));
        }
        Ok(Server { service, shared })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.service.addr()
    }

    /// A cloneable handle that requests this server's drain from another
    /// thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.service.shutdown_handle()
    }

    /// Blocks until the drain is requested, then waits for it: every
    /// admitted job runs — answering its parked waiters — and every
    /// connection closes. The server can still be inspected (e.g.
    /// [`Server::metrics`]) afterwards.
    pub fn wait(&mut self) {
        self.service.wait();
    }

    /// Requests the drain and waits for it to finish.
    pub fn shutdown(self) {
        self.service.shutdown();
    }

    /// An in-process metrics snapshot (same content as `GET /metrics`) —
    /// usable even after the drain, when the HTTP surface is gone.
    pub fn metrics(&self) -> crate::protocol::MetricsReply {
        self.shared.metrics()
    }
}

impl AsMut<Service> for Server {
    fn as_mut(&mut self) -> &mut Service {
        &mut self.service
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some((id, job, token)) = shared.registry.claim() {
        shared.wake(id);
        // run_one executes inline on this worker thread (no per-job scope
        // spawn), so warm cache hits cost a lookup, not a thread.
        match shared.engine.run_one(&job, &token) {
            JobResult::Completed { outcome, cached } => {
                shared
                    .registry
                    .finish(id, outcome.to_json().serialize(), cached);
            }
            JobResult::Failed(e) => shared.registry.fail(id, e.to_string()),
            JobResult::Cancelled => shared.registry.mark_cancelled(id),
        }
        shared.wake(id);
    }
}

fn route(shared: &Arc<Shared>, request: &Request, responder: Responder) {
    let method = request.method.as_str();
    let path = request.path.as_str();
    match (method, path) {
        ("GET", "/healthz") => {
            let body = Json::obj(vec![
                ("status", Json::Str("ok".into())),
                (
                    "uptime_ms",
                    Json::Num(shared.started.elapsed().as_millis() as f64),
                ),
                ("draining", Json::Bool(shared.is_shutting_down())),
            ]);
            responder.respond(200, &[], body.serialize().as_bytes());
        }
        ("GET", "/metrics") => {
            let reply = shared.metrics();
            responder.respond(200, &[], reply.to_json().serialize().as_bytes());
        }
        ("POST", "/jobs") => handle_submit(shared, request, responder),
        ("GET", _) if path.starts_with("/cache/peek/") => {
            handle_cache_peek(shared, &path["/cache/peek/".len()..], responder);
        }
        ("POST", _) if path.starts_with("/cache/fill/") => {
            handle_cache_fill(shared, request, &path["/cache/fill/".len()..], responder);
        }
        _ => match request.job_path() {
            Some((id, "")) if method == "GET" => handle_status(shared, request, id, responder),
            Some((id, "")) if method == "DELETE" => match shared.registry.cancel(id) {
                Some(reply) => {
                    // A queued job is cancelled on the spot: a transition
                    // no worker will report.
                    shared.wake(id);
                    responder.respond(200, &[], reply.to_json().serialize().as_bytes());
                }
                None => not_found(responder, id),
            },
            Some((id, "result")) if method == "GET" => {
                handle_result(shared, request, id, responder);
            }
            Some((id, "events")) if method == "GET" => handle_events(shared, id, responder),
            // A known sub-path with the wrong method is 405; an unknown
            // sub-path is 404 — don't misdiagnose a path typo as a method
            // error.
            Some((_, "" | "result" | "events")) => responder.error(405, "method not allowed"),
            Some(_) | None => responder.error(404, &format!("no such endpoint: {method} {path}")),
        },
    }
}

/// `GET /cache/peek/:key` — the read half of cache peering: answers with
/// the cached outcome's canonical bytes, or 404. The lookup is
/// count-silent ([`ResultCache::peek`]) so fleet-side probing does not
/// distort this node's hit/miss accounting.
fn handle_cache_peek(shared: &Arc<Shared>, key: &str, responder: Responder) {
    match shared.cache.as_ref().and_then(|cache| cache.peek(key)) {
        Some(outcome) => {
            responder.respond(200, &[], outcome.to_json().serialize().as_bytes());
        }
        None => responder.error(404, &format!("no cache entry: {key}")),
    }
}

/// `POST /cache/fill/:key` — the write half of cache peering: a peer (or
/// the gateway, relaying a peer's entry) hands this node an outcome it
/// computed, so the next submission for that key is answered warm here.
/// The body must be a complete serialized outcome whose own `key` field
/// matches the path — a guard against cross-wiring two jobs' results.
fn handle_cache_fill(shared: &Arc<Shared>, request: &Request, key: &str, responder: Responder) {
    let Some(cache) = &shared.cache else {
        return responder.error(404, "no cache configured");
    };
    let Ok(text) = std::str::from_utf8(&request.body) else {
        return responder.error(400, "body is not UTF-8");
    };
    let outcome = match domino_engine::FlowOutcome::from_json_text(text) {
        Ok(outcome) => outcome,
        Err(e) => return responder.error(400, &format!("invalid outcome: {e}")),
    };
    if outcome.key != key {
        let message = format!(
            "outcome key '{}' does not match path key '{key}'",
            outcome.key
        );
        return responder.error(400, &message);
    }
    cache.put(key, &outcome);
    let body = Json::obj(vec![("status", Json::Str("filled".into()))]);
    responder.respond(200, &[], body.serialize().as_bytes());
}

fn handle_submit(shared: &Arc<Shared>, request: &Request, responder: Responder) {
    if shared.is_shutting_down() {
        return responder.error(503, "server is draining for shutdown");
    }
    let job = match shared.resolve_memo.job_from_body(&request.body) {
        Ok(job) => job,
        Err(e) => return responder.error(400, &e),
    };
    // Admission-time cache check: a warm submission is answered right
    // here — no queue slot, no worker round trip, no parked waiter.
    // `probe` counts the hit but not a miss (the worker's own `get`
    // counts recomputations), so the /metrics accounting stays exact:
    // hits == cache-answered jobs, misses == flows actually recomputed.
    if let Some(cache) = &shared.cache {
        if let Some(mut outcome) = cache.probe(job.cache_key()) {
            outcome.name = job.spec.name.clone();
            return match shared
                .registry
                .admit_completed(&job, outcome.to_json().serialize())
            {
                Ok(reply) if request.wants_wait() => {
                    respond_with_outcome(shared, reply.id, responder);
                }
                // 200, not 202: the work is already done.
                Ok(reply) => {
                    responder.respond(200, &[], reply.to_json().serialize().as_bytes());
                }
                Err(_) => responder.error(503, "server is draining for shutdown"),
            };
        }
    }
    match shared.registry.submit(job) {
        // Synchronous mode: `POST /jobs?wait=1` parks the reply until the
        // job is terminal, then answers like `GET /jobs/:id/result` — one
        // round trip per job, holding no thread while it waits. Never
        // abandoned on shutdown: the drain runs every admitted job to a
        // terminal state, so the wait is bounded and the client gets its
        // outcome even mid-drain.
        Ok(reply) if request.wants_wait() => shared.park(reply.id, Waiter::Outcome(responder)),
        Ok(reply) => {
            responder.respond(202, &[], reply.to_json().serialize().as_bytes());
        }
        Err(AdmitError::Full { depth }) => {
            let body = ErrorReply::new(format!("queue full: {depth} jobs waiting"))
                .to_json()
                .serialize();
            responder.respond(429, &[("retry-after", "1")], body.as_bytes());
        }
        Err(AdmitError::Draining) => responder.error(503, "server is draining for shutdown"),
    }
}

fn handle_status(shared: &Arc<Shared>, request: &Request, id: u64, responder: Responder) {
    match shared.registry.status(id) {
        None => not_found(responder, id),
        Some(reply) if request.wants_wait() && !reply.status.is_terminal() => {
            shared.park(id, Waiter::Terminal(responder));
        }
        Some(reply) => {
            responder.respond(200, &[], reply.to_json().serialize().as_bytes());
        }
    }
}

fn handle_result(shared: &Arc<Shared>, request: &Request, id: u64, responder: Responder) {
    match shared.registry.outcome_text(id) {
        None => not_found(responder, id),
        Some((status, _, _)) if request.wants_wait() && !status.is_terminal() => {
            shared.park(id, Waiter::Outcome(responder));
        }
        Some((status, text, error)) if status.is_terminal() => {
            respond_outcome(responder, status, text, error);
        }
        // Unfinished without ?wait=1: the explicit 409 nudge.
        Some((status, _, _)) => respond_outcome(responder, status, None, None),
    }
}

/// Answers with the job's stored outcome bytes (the byte-identity path),
/// or the appropriate error for failed/cancelled/unfinished jobs.
fn respond_with_outcome(shared: &Arc<Shared>, id: u64, responder: Responder) {
    match shared.registry.outcome_text(id) {
        None => not_found(responder, id),
        Some((status, text, error)) => respond_outcome(responder, status, text, error),
    }
}

fn respond_outcome(
    responder: Responder,
    status: JobStatus,
    text: Option<String>,
    error: Option<String>,
) {
    match (status, text) {
        (JobStatus::Completed, Some(text)) => {
            // The engine's exact bytes: this is the byte-identity endpoint.
            responder.respond(200, &[], text.as_bytes());
        }
        (JobStatus::Failed, _) => {
            responder.error(502, &format!("job failed: {}", error.unwrap_or_default()));
        }
        (JobStatus::Cancelled, _) => responder.error(409, "job was cancelled"),
        (status, _) => responder.error(
            409,
            &format!("job not finished (status: {status}); use ?wait=1 to block"),
        ),
    }
}

fn handle_events(shared: &Arc<Shared>, id: u64, responder: Responder) {
    if shared.registry.status(id).is_none() {
        return not_found(responder, id);
    }
    // Chunked streams are `Connection: close` by construction: the
    // stream's end IS the connection's end. The job's transitions feed it
    // — including through a shutdown, since the drain terminates every
    // admitted job.
    let stream = responder.begin_stream(200);
    shared.park(
        id,
        Waiter::Events {
            stream,
            next_seq: 0,
        },
    );
}

fn not_found(responder: Responder, id: u64) {
    responder.error(404, &format!("no such job: {id}"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::time::Duration;

    /// A valid one-gate BLIF of about `bytes` bytes, distinct per `tag`:
    /// the bulk is a comment, so it parses in microseconds.
    fn padded_blif(tag: usize, bytes: usize) -> String {
        let head = format!(".model m{tag}\n.inputs a\n.outputs f\n.names a f\n1 1\n.end\n# ");
        let pad = bytes.saturating_sub(head.len() + 1);
        format!("{head}{}\n", "x".repeat(pad))
    }

    #[test]
    fn resolve_memo_stays_within_its_byte_budget() {
        let memo = ResolveMemo::default();
        let held = || {
            let guard = memo.map.lock().expect("memo lock");
            let keys: usize = guard.0.keys().map(String::len).sum();
            assert_eq!(keys, guard.1, "the byte count is the keys' length");
            (guard.0.len(), guard.1)
        };
        // 40 distinct sources just under the per-source cap: 2.5 times
        // what the memo may hold.
        let mut peak = 0;
        for tag in 0..40 {
            let text = padded_blif(tag, RESOLVE_MEMO_MAX_SOURCE_BYTES - 64);
            let mut spec = JobSpec::suite("padded");
            spec.source = CircuitSource::BlifInline(text);
            memo.resolve(spec).expect("resolves");
            let (entries, bytes) = held();
            assert!(entries >= 1, "a fitting source is kept");
            assert!(bytes <= RESOLVE_MEMO_MAX_TOTAL_BYTES, "{bytes} bytes kept");
            peak = peak.max(bytes);
        }
        assert!(peak > RESOLVE_MEMO_MAX_TOTAL_BYTES - RESOLVE_MEMO_MAX_SOURCE_BYTES);

        // A source over the per-source cap resolves but is not kept.
        let before = held();
        let mut spec = JobSpec::suite("giant");
        spec.source = CircuitSource::BlifInline(padded_blif(99, 2 * RESOLVE_MEMO_MAX_SOURCE_BYTES));
        let job = memo.resolve(spec).expect("resolves");
        assert_eq!(job.network.outputs().len(), 1);
        assert_eq!(held(), before, "the giant source is not kept");
    }

    /// Spins until `done` holds; panics after 10 s rather than hang.
    fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::yield_now();
        }
    }

    /// Long-polls whose clients left do not pile up on a job that stays
    /// queued: the next waiter to park on that job drops them.
    #[test]
    fn parking_drops_waiters_whose_clients_left() {
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            front: FrontConfig {
                idle_timeout_ms: 50,
                ..FrontConfig::default()
            },
            ..ServeConfig::default()
        })
        .expect("ephemeral bind");
        // No pooled connection: the waiters' are the only ones open.
        let client = crate::ServeClient::builder(server.addr().to_string())
            .fresh_connections()
            .build();
        // Outlasts the steps below several times over in release builds.
        let mut holder = JobSpec::suite("apex7");
        holder.sim.cycles = 1 << 21;
        client.submit(&holder).expect("holder admitted");
        let mut queued = JobSpec::suite("frg1");
        queued.sim.cycles = 256;
        let id = client.submit(&queued).expect("queued behind the holder").id;
        let parked_on = |id: u64| server.shared.parked().get(&id).map_or(0, Vec::len);
        let open = || server.metrics().reactor.expect("counters").open_connections;
        let long_poll = || {
            let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
            write!(stream, "GET /jobs/{id}?wait=1 HTTP/1.1\r\n\r\n").expect("request");
            stream
        };

        let gone: Vec<_> = (0..3).map(|_| long_poll()).collect();
        wait_until("three parked waiters", || parked_on(id) == 3);
        drop(gone);
        // The reactor reaps the vanished clients at their idle deadline.
        wait_until("the vanished clients' reap", || open() == 0);
        let _kept = long_poll();
        wait_until("the fourth waiter to park", || parked_on(id) != 3);
        assert_eq!(parked_on(id), 1, "parking dropped the dead waiters");
        assert_eq!(server.metrics().queue_depth, 1, "the job never moved");
        server.shutdown();
    }
}
