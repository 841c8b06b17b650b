//! `dominogw`: the fleet gateway. One HTTP front door that routes each
//! submitted job — by its engine cache key (content-address) — to a
//! `dominod` backend chosen by rendezvous hashing, so identical specs
//! always land on the same backend and its warm cache.
//!
//! # Wire contract
//!
//! The gateway speaks the same protocol as `dominod` itself: `dominoc`
//! and [`ServeClient`](domino_serve::ServeClient) work against it
//! unchanged. Responses carrying
//! outcome bytes (`/jobs/:id/result`, `POST /jobs?wait=1`) are relayed
//! **verbatim** — the gateway never re-serializes an outcome, so fleet
//! results stay byte-identical to single-node and local runs (pinned by
//! `tests/gateway_integration.rs`). Job ids are gateway-assigned and
//! rewritten in protocol documents (submit/status replies, event
//! records) so callers never see backend-local ids.
//!
//! # Routing
//!
//! * **Home**: the highest rendezvous score among healthy backends.
//! * **Failover**: connect-refused ⇒ mark the backend down and try the
//!   next backend in score order — deterministic, so every gateway
//!   agrees. Only *connect* failures fail over; once a request has been
//!   sent, an error is reported (a blind resend could double-submit).
//! * **Backpressure**: a backend's `429` is propagated verbatim (with
//!   `Retry-After`) and never failed over — a full home queue means the
//!   fleet should slow down, not migrate load away from the key's cache.
//! * **Cache peering**: before routing a cold submit, the gateway peeks
//!   the home's cache; on a miss it peeks the failover sequence and, if a
//!   peer holds the entry, fills the home's cache first
//!   (`POST /cache/fill/:key`) — one node's cold run warms the fleet.
//!
//! # Threads
//!
//! Like `dominod`, the gateway multiplexes every client connection on
//! one reactor thread ([`domino_serve::front`]): idle kept-alive
//! clients cost a socket each and no thread. Relay work — backend round
//! trips, `?wait=1` long-polls, event-stream re-emission — blocks for
//! its whole backend exchange, so it never runs on the handler pool:
//! each relay gets a detached thread, capped at [`RELAY_CAP`] in
//! flight (beyond that, an honest `503` + `Retry-After`). The handler
//! pool itself only ever executes control endpoints (`/healthz`,
//! `/metrics`, `/shutdown`) and request classification, so health and
//! drain stay responsive no matter how many clients sit in long-polls.

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use domino_engine::json::{parse, Json};
use domino_engine::JobSpec;
use domino_serve::config::{apply_connection_flags, DEFAULT_MAX_CONNECTIONS};
use domino_serve::front::{FrontConfig, FrontHandle, HttpFront, Responder};
use domino_serve::http::Request;
use domino_serve::protocol::{ErrorReply, StatusReply, SubmitReply};
use domino_serve::{ArgTable, ClientError, FailpointCounter, ResolveMemo, RetryPolicy};

use crate::pool::BackendPool;

/// One backend's health as reported in the gateway's `GET /metrics` —
/// the gateway flavor of the shared metrics schema in
/// [`domino_serve::protocol`].
pub type BackendHealth = domino_serve::protocol::BackendHealthDoc;

/// Point-in-time gateway counters (the `GET /metrics` document) — the
/// gateway flavor of the shared metrics schema in
/// [`domino_serve::protocol`].
pub type GatewayMetrics = domino_serve::protocol::GatewayMetricsDoc;

/// Failover attempts a submission may make beyond its first backend. A
/// budget (rather than "walk the whole ranking") bounds worst-case
/// submit latency on a large fleet that is mostly down.
pub const FAILOVER_RETRY_BUDGET: u32 = 3;

/// Default TCP port for `dominogw` (one above `dominod`'s 7171 block).
pub const DEFAULT_GW_PORT: u16 = 7270;

/// Handler threads of the gateway's front. These only classify requests
/// and answer control endpoints — every backend-blocking relay moves to
/// its own detached thread (see [`RELAY_CAP`]) — so a handful suffices.
const GW_HANDLER_THREADS: usize = 4;

/// Concurrently blocking relays (backend round trips, `?wait=1`
/// long-polls, event streams) the gateway will carry; each occupies one
/// detached, mostly-sleeping thread. Beyond the cap, callers get `503` +
/// `Retry-After` — the same backpressure shape as the reactor's
/// connection cap. Before the reactor front this bound was implicit in
/// thread-per-connection; now it is explicit and survives thousands of
/// *idle* clients costing no thread at all.
pub const RELAY_CAP: usize = 512;

/// Gateway configuration (CLI flags of `dominogw`).
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Listen address, e.g. `127.0.0.1:7270`. Port 0 binds ephemerally.
    pub addr: String,
    /// Backend `dominod` addresses (`host:port`), one per `--backend`.
    pub backends: Vec<String>,
    /// Health-probe interval.
    pub probe_interval: Duration,
    /// Per-connection idle timeout (same state machine as `dominod`).
    pub idle_timeout_ms: u64,
    /// Requests served per connection before a polite close.
    pub max_requests_per_connection: u32,
    /// Concurrently open connections the reactor accepts before
    /// answering further accepts with `503` and an immediate close.
    pub max_connections: usize,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            addr: format!("127.0.0.1:{DEFAULT_GW_PORT}"),
            backends: Vec::new(),
            probe_interval: Duration::from_millis(500),
            idle_timeout_ms: 10_000,
            max_requests_per_connection: 1024,
            max_connections: DEFAULT_MAX_CONNECTIONS,
        }
    }
}

impl GatewayConfig {
    /// The gateway's flag table (see [`domino_serve::config`]): the
    /// single declaration behind both [`GatewayConfig::parse_args`] and
    /// `dominogw --help`. The connection flags are the exact same
    /// declarations `dominod` uses.
    pub fn arg_table() -> ArgTable {
        let table = ArgTable::new("gateway")
            .flag(
                "--addr",
                "<host:port>",
                "bind address [127.0.0.1:7270]; port 0 = ephemeral",
            )
            .flag(
                "--backend",
                "<host:port>",
                "dominod backend; repeat once per fleet node (required)",
            )
            .flag("--probe-ms", "<n>", "health-probe interval [500]");
        domino_serve::config::failpoint_docs(domino_serve::config::connection_flags(table))
    }

    /// Parses `dominogw` CLI flags (`--addr`, repeated `--backend`,
    /// `--probe-ms`, `--idle-ms`, `--max-requests`,
    /// `--max-connections`).
    ///
    /// # Errors
    ///
    /// A rendered usage problem: unknown flag, missing value, no
    /// backends.
    pub fn parse_args(args: &[String]) -> Result<Self, String> {
        let parsed = Self::arg_table().parse(args)?;
        let mut config = GatewayConfig::default();
        parsed.set_string("--addr", &mut config.addr);
        config.backends = parsed.all("--backend");
        if let Some(ms) = parsed.integer::<u64>("--probe-ms")? {
            config.probe_interval = Duration::from_millis(ms.max(1));
        }
        apply_connection_flags(
            &parsed,
            &mut config.idle_timeout_ms,
            &mut config.max_requests_per_connection,
            &mut config.max_connections,
        )?;
        if config.backends.is_empty() {
            return Err("at least one --backend is required".to_string());
        }
        Ok(config)
    }
}

/// Gateway ids are monotonic; the table maps them to `(backend,
/// backend-local id)`. Bounded: the oldest mappings are evicted beyond
/// [`ID_TABLE_CAP`] — matching `dominod`'s own bounded retention of
/// terminal jobs.
const ID_TABLE_CAP: usize = 65_536;

#[derive(Debug, Default)]
struct IdTable {
    next: u64,
    map: BTreeMap<u64, (String, u64)>,
}

impl IdTable {
    fn assign(&mut self, backend: &str, backend_id: u64) -> u64 {
        while self.map.len() >= ID_TABLE_CAP {
            self.map.pop_first();
        }
        self.next += 1;
        self.map
            .insert(self.next, (backend.to_string(), backend_id));
        self.next
    }

    fn lookup(&self, gw_id: u64) -> Option<(String, u64)> {
        self.map.get(&gw_id).cloned()
    }
}

/// A verbatim-relayable reply a coalescing leader captured for its
/// followers: status, optional `Retry-After`, exact body bytes.
type StoredReply = (u16, Option<String>, Vec<u8>);

/// In-flight coalescing for sync (`?wait=1`) submissions: one gate per
/// routing key. The leader holds the gate's lock for the whole backend
/// round trip and stores its reply; duplicates block on the lock and
/// replay the identical bytes instead of re-submitting. A leader that
/// failed stores nothing, so the next waiter simply becomes the new
/// leader and tries again.
///
/// The leader releases the gate *before* its reply goes out: a client
/// that reacts to the reply by re-submitting the same key must get a
/// fresh backend round trip, never a replay off the not-yet-released
/// gate. Only duplicates already blocked on the gate coalesce.
#[derive(Debug, Default)]
struct SyncFlight {
    gates: Mutex<HashMap<String, Arc<Mutex<Option<StoredReply>>>>>,
}

impl SyncFlight {
    fn acquire(&self, key: &str) -> Arc<Mutex<Option<StoredReply>>> {
        Arc::clone(
            self.gates
                .lock()
                .expect("sync flight")
                .entry(key.to_string())
                .or_default(),
        )
    }

    fn release(&self, key: &str) {
        let mut gates = self.gates.lock().expect("sync flight");
        if let Some(gate) = gates.get(key) {
            // 2 = the map's reference + the caller's about-to-drop clone.
            if Arc::strong_count(gate) <= 2 {
                gates.remove(key);
            }
        }
    }
}

#[derive(Debug)]
struct GwShared {
    pool: Arc<BackendPool>,
    ids: Mutex<IdTable>,
    resolve_memo: ResolveMemo,
    retry: RetryPolicy,
    sync_flight: SyncFlight,
    front: FrontHandle,
    addr: SocketAddr,
    started: Instant,
    /// Jobs forwarded to a backend (any reply status).
    routed: AtomicU64,
    /// Backend `429`s propagated to callers.
    rejected: AtomicU64,
    /// Submissions answered by a non-home backend after the home refused
    /// the connection.
    failovers: AtomicU64,
    /// Cold-home submissions warmed from a peer's cache before routing.
    peer_fills: AtomicU64,
    /// Submissions with no reachable backend at all (`503`).
    unroutable: AtomicU64,
    /// Sync submissions answered by replaying an in-flight leader's
    /// reply instead of a backend round trip.
    coalesced: AtomicU64,
    /// Relay threads currently blocking on a backend exchange (bounded
    /// by [`RELAY_CAP`]).
    relays: std::sync::atomic::AtomicUsize,
}

impl GwShared {
    fn is_shutting_down(&self) -> bool {
        self.front.is_draining()
    }

    fn begin_shutdown(&self) {
        // The reactor owns the listener and every connection: one flag
        // flip closes the accept path and starts the drain (no self-
        // connect wake needed — the reactor's waker pipe does it).
        self.front.shutdown();
    }

    /// The `GET /metrics` document: gateway counters, live reactor
    /// counters, per-backend health, failpoint sites.
    fn metrics_doc(&self) -> GatewayMetrics {
        let backends = self
            .pool
            .backends()
            .iter()
            .map(|b| BackendHealth {
                addr: b.addr().to_string(),
                healthy: b.is_healthy(),
                down_transitions: b.down_transitions(),
                breaker: b.breaker_state().to_string(),
            })
            .collect();
        let failpoints = domino_failpoint::snapshot()
            .into_iter()
            .map(|s| FailpointCounter {
                site: s.site,
                mode: s.mode,
                hits: s.hits,
                fires: s.fires,
            })
            .collect();
        GatewayMetrics {
            uptime_ms: self.started.elapsed().as_millis() as u64,
            routed: self.routed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
            peer_fills: self.peer_fills.load(Ordering::Relaxed),
            unroutable: self.unroutable.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            reactor: Some(self.front.counters()),
            backends,
            failpoints,
        }
    }
}

/// A running gateway: reactor front + health prober over a backend pool.
#[derive(Debug)]
pub struct Gateway {
    shared: Arc<GwShared>,
    reactor_handle: Option<JoinHandle<io::Result<()>>>,
    prober_handle: Option<JoinHandle<()>>,
}

impl Gateway {
    /// Binds, probes the fleet once (so routing starts with real health
    /// bits), spawns the reactor and the prober, and returns.
    ///
    /// # Errors
    ///
    /// [`io::Error`] when the listen address cannot be bound or the
    /// reactor cannot be set up.
    pub fn start(config: GatewayConfig) -> io::Result<Gateway> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let pool = Arc::new(BackendPool::new(&config.backends));
        pool.probe_once();

        let front = HttpFront::bind(
            listener,
            FrontConfig {
                name: "dominogw",
                idle_timeout: Duration::from_millis(config.idle_timeout_ms.max(1)),
                max_requests: config.max_requests_per_connection.max(1),
                max_connections: config.max_connections.max(1),
                handler_threads: GW_HANDLER_THREADS,
            },
        )?;

        let shared = Arc::new(GwShared {
            pool: Arc::clone(&pool),
            ids: Mutex::new(IdTable::default()),
            resolve_memo: ResolveMemo::default(),
            retry: RetryPolicy::new(FAILOVER_RETRY_BUDGET),
            sync_flight: SyncFlight::default(),
            front: front.handle(),
            addr,
            started: Instant::now(),
            routed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            peer_fills: AtomicU64::new(0),
            unroutable: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            relays: std::sync::atomic::AtomicUsize::new(0),
        });

        let reactor_handle = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("dominogw-reactor".into())
                .spawn(move || {
                    front.run(Arc::new(move |request, responder| {
                        route(&shared, request, responder);
                    }))
                })?
        };

        let prober_shared = Arc::clone(&shared);
        let prober_handle = pool.spawn_prober(config.probe_interval, move || {
            prober_shared.is_shutting_down()
        });

        Ok(Gateway {
            shared,
            reactor_handle: Some(reactor_handle),
            prober_handle: Some(prober_handle),
        })
    }

    /// The bound listen address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The backend pool (for tests and the load harness).
    pub fn pool(&self) -> &Arc<BackendPool> {
        &self.shared.pool
    }

    /// A handle that lets a signal watcher request the drain.
    pub fn shutdown_handle(&self) -> GatewayShutdownHandle {
        GatewayShutdownHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Begins the drain and blocks until the gateway has fully stopped.
    pub fn shutdown(mut self) {
        self.shared.begin_shutdown();
        self.join();
    }

    /// Blocks until the gateway exits (a drain requested over the wire or
    /// via [`Gateway::shutdown_handle`]).
    pub fn wait(mut self) {
        self.join();
    }

    fn join(&mut self) {
        if let Some(handle) = self.reactor_handle.take() {
            while !self.shared.is_shutting_down() {
                std::thread::sleep(Duration::from_millis(10));
            }
            // The reactor bounds its own drain (idle connections close
            // immediately, stragglers are force-closed after a grace
            // period), so this join cannot hang forever.
            let _ = handle.join();
        }
        if let Some(handle) = self.prober_handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        if !self.shared.is_shutting_down() {
            self.shared.begin_shutdown();
        }
        self.join();
    }
}

/// Lets a signal watcher thread request the gateway drain (the SIGTERM /
/// SIGINT path of `dominogw`).
#[derive(Clone)]
pub struct GatewayShutdownHandle {
    shared: Arc<GwShared>,
}

impl GatewayShutdownHandle {
    /// Requests the drain, exactly like `POST /shutdown`.
    pub fn request_shutdown(&self) {
        self.shared.begin_shutdown();
    }
}

impl std::fmt::Debug for GatewayShutdownHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GatewayShutdownHandle").finish()
    }
}

fn error_reply(responder: Responder, status: u16, message: &str) {
    let body = ErrorReply::new(message).to_json().serialize();
    responder.respond(status, &[], body.as_bytes());
}

/// Releases one [`RELAY_CAP`] slot when a relay thread finishes (or
/// unwinds).
struct RelaySlot(Arc<GwShared>);

impl Drop for RelaySlot {
    fn drop(&mut self) {
        self.0.relays.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Runs `work` — a relay that may block on a backend for its whole
/// exchange (a `?wait=1` long-poll, an event-stream re-emission, any
/// round trip against a slow backend) — on its own detached thread, so
/// handler-pool threads never block and control endpoints stay
/// responsive. At [`RELAY_CAP`] concurrent relays the caller gets a
/// `503` with `Retry-After` instead of a queue slot.
fn spawn_relay(
    shared: &Arc<GwShared>,
    responder: Responder,
    work: impl FnOnce(Responder) + Send + 'static,
) {
    if shared.relays.fetch_add(1, Ordering::SeqCst) >= RELAY_CAP {
        shared.relays.fetch_sub(1, Ordering::SeqCst);
        let body = ErrorReply::new(format!("relay capacity reached: {RELAY_CAP} in flight"))
            .to_json()
            .serialize();
        responder.respond(503, &[("retry-after", "1")], body.as_bytes());
        return;
    }
    let slot = RelaySlot(Arc::clone(shared));
    // A failed spawn (thread exhaustion) consumes the closure, and the
    // responder with it: the client's connection closes at its idle
    // timeout. There is no better answer once the OS refuses threads —
    // the cap above keeps the gateway far from that cliff.
    let _ = std::thread::Builder::new()
        .name("dominogw-relay".into())
        .spawn(move || {
            let _slot = slot;
            work(responder);
        });
}

/// Splits `/jobs/42[/tail]` into the id and the remainder.
fn job_path(path: &str) -> Option<(u64, &str)> {
    let rest = path.strip_prefix("/jobs/")?;
    let (id, tail) = match rest.split_once('/') {
        Some((id, tail)) => (id, tail),
        None => (rest, ""),
    };
    Some((id.parse().ok()?, tail))
}

/// Classifies one request on a handler-pool thread. Control endpoints
/// answer inline (they touch no backend and must stay responsive);
/// everything that talks to a backend moves to a relay thread via
/// [`spawn_relay`].
fn route(shared: &Arc<GwShared>, request: Request, responder: Responder) {
    let method = request.method.clone();
    let path = request.path.clone();
    match (method.as_str(), path.as_str()) {
        ("GET", "/healthz") => {
            let healthy = shared
                .pool
                .backends()
                .iter()
                .filter(|b| b.is_healthy())
                .count();
            let body = Json::obj(vec![
                ("status", Json::Str("ok".into())),
                ("role", Json::Str("gateway".into())),
                ("backends", Json::Num(shared.pool.backends().len() as f64)),
                ("healthy", Json::Num(healthy as f64)),
            ]);
            responder.respond(200, &[], body.serialize().as_bytes());
        }
        ("GET", "/metrics") => {
            let body = shared.metrics_doc().to_json().serialize();
            responder.respond(200, &[], body.as_bytes());
        }
        ("POST", "/shutdown") => {
            // Drain first: a client that reacts to this answer must find
            // admissions already closed.
            shared.begin_shutdown();
            let body = Json::obj(vec![("status", Json::Str("shutting-down".into()))]);
            responder.respond_close(200, &[], body.serialize().as_bytes());
        }
        ("POST", "/jobs") => {
            let shared2 = Arc::clone(shared);
            spawn_relay(shared, responder, move |responder| {
                handle_submit(&request, &shared2, responder);
            });
        }
        _ => match job_path(&path) {
            Some((gw_id, tail @ ("" | "result"))) if method == "GET" => {
                let tail = tail.to_string();
                let shared2 = Arc::clone(shared);
                spawn_relay(shared, responder, move |responder| {
                    handle_job_fetch(&request, &shared2, gw_id, &tail, responder);
                });
            }
            Some((gw_id, "")) if method == "DELETE" => {
                let shared2 = Arc::clone(shared);
                spawn_relay(shared, responder, move |responder| {
                    handle_job_fetch(&request, &shared2, gw_id, "", responder);
                });
            }
            Some((gw_id, "events")) if method == "GET" => {
                let shared2 = Arc::clone(shared);
                spawn_relay(shared, responder, move |responder| {
                    handle_events(&shared2, gw_id, responder);
                });
            }
            Some((_, "" | "result" | "events")) => {
                error_reply(responder, 405, "method not allowed");
            }
            Some(_) | None => {
                error_reply(
                    responder,
                    404,
                    &format!("no such endpoint: {method} {path}"),
                );
            }
        },
    }
}

/// Relays `response` (status, `Retry-After` when present, body verbatim)
/// to the gateway's caller.
fn relay_verbatim(responder: Responder, response: &domino_serve::http::Response) {
    let retry_after = response.header("retry-after").map(str::to_string);
    let extra: Vec<(&str, &str)> = retry_after
        .as_deref()
        .map(|v| vec![("retry-after", v)])
        .unwrap_or_default();
    responder.respond(response.status, &extra, &response.body);
}

/// Replays a captured leader reply (status, optional `Retry-After`,
/// verbatim body) to a caller.
fn replay_stored(responder: Responder, reply: &StoredReply) {
    let (status, retry_after, body) = reply;
    let extra: Vec<(&str, &str)> = retry_after
        .as_deref()
        .map(|v| vec![("retry-after", v)])
        .unwrap_or_default();
    responder.respond(*status, &extra, body);
}

fn handle_submit(request: &Request, shared: &Arc<GwShared>, responder: Responder) {
    if shared.is_shutting_down() {
        return error_reply(responder, 503, "gateway is draining for shutdown");
    }
    // Compute the routing key exactly as the backend will: resolve the
    // spec through the backends' own memo and take its content-address.
    // An unroutable spec fails here with the same 400 a backend would
    // give.
    let Ok(text) = std::str::from_utf8(&request.body) else {
        return error_reply(responder, 400, "body is not UTF-8");
    };
    let spec = match parse(text)
        .map_err(|e| e.to_string())
        .and_then(|v| JobSpec::from_json(&v).map_err(|e| e.to_string()))
    {
        Ok(spec) => spec,
        Err(e) => return error_reply(responder, 400, &format!("invalid job spec: {e}")),
    };
    let key = match shared.resolve_memo.resolve(spec) {
        Ok(job) => job.cache_key().to_string(),
        Err(e) => return error_reply(responder, 400, &format!("unresolvable job: {e}")),
    };

    // Only sync submissions coalesce at the gateway: their reply *is*
    // the outcome, so followers can replay the leader's bytes verbatim.
    // Async duplicates each get their own id and dedupe one hop later,
    // at the backend engine's own in-flight gate.
    if !request.wants_wait() {
        submit_routed(request, shared, &key, responder, None);
        return;
    }
    let gate = shared.sync_flight.acquire(&key);
    let mut slot = gate.lock().unwrap_or_else(|p| p.into_inner());
    match slot.clone() {
        Some(reply) => {
            shared.coalesced.fetch_add(1, Ordering::Relaxed);
            replay_stored(responder, &reply);
            drop(slot);
            shared.sync_flight.release(&key);
        }
        None => match submit_routed(request, shared, &key, responder, Some(&mut slot)) {
            // Leader with a captured reply: unlock and release the gate
            // first, then answer — see the gate-ordering note on
            // [`SyncFlight`].
            Some(deferred) => {
                let stored = slot.clone();
                drop(slot);
                shared.sync_flight.release(&key);
                if let Some(reply) = stored {
                    replay_stored(deferred, &reply);
                }
            }
            None => {
                drop(slot);
                shared.sync_flight.release(&key);
            }
        },
    }
}

/// The routing core of a submission: peer-warms the home cache, then
/// walks the failover sequence under the retry budget and each
/// backend's circuit breaker. A sync leader passes `capture` so its
/// verbatim-relayed reply is stored for coalesced followers; when a
/// reply was captured this *returns the responder unanswered* so the
/// caller can release the coalescing gate before replying (see the
/// ordering note on [`SyncFlight`]). On every other path the responder
/// is answered here and `None` comes back.
fn submit_routed(
    request: &Request,
    shared: &Arc<GwShared>,
    key: &str,
    responder: Responder,
    mut capture: Option<&mut Option<StoredReply>>,
) -> Option<Responder> {
    let ranked = shared.pool.ranked(key);
    if ranked.is_empty() {
        shared.unroutable.fetch_add(1, Ordering::Relaxed);
        error_reply(responder, 503, "no healthy backend");
        return None;
    }

    // Cache peering: if the home is cold for this key but a peer is warm,
    // fill the home before routing — the submit below is then answered
    // from the home's cache instead of recomputing. Peering is pure
    // opportunism on the control-plane client (short I/O timeout, see
    // `CONTROL_IO_TIMEOUT`): a home peek that *errors* (as opposed to a
    // confirmed miss) skips peering entirely, and a slow or half-up peer
    // costs the cold path at most the control timeout, never the data
    // plane's 30 s.
    if ranked.len() > 1 {
        if let Ok(None) = ranked[0].control_client().cache_peek(key) {
            for peer in &ranked[1..] {
                if let Ok(Some(bytes)) = peer.control_client().cache_peek(key) {
                    if ranked[0].control_client().cache_fill(key, &bytes).is_ok() {
                        shared.peer_fills.fetch_add(1, Ordering::Relaxed);
                    }
                    break;
                }
            }
        }
    }

    let target = request.target();
    let mut attempts: u32 = 0;
    for backend in ranked.iter() {
        // The retry budget bounds the walk; the breaker skips backends
        // that earned no more traffic (half-open admits one trial).
        if attempts > shared.retry.budget {
            break;
        }
        if !backend.breaker_allows() {
            continue;
        }
        if attempts > 0 {
            // Deterministic exponential backoff between failover hops:
            // a same-instant thundering herd against the runner-up is
            // exactly how one backend's crash topples the next.
            std::thread::sleep(shared.retry.delay(attempts - 1, None));
        }
        let forwarded = if domino_failpoint::should_fire("fleet.gateway.relay") {
            Err(ClientError::Unreachable(
                "failpoint fired: fleet.gateway.relay".to_string(),
            ))
        } else {
            backend
                .client()
                .forward("POST", &target, Some(&request.body))
        };
        attempts += 1;
        match forwarded {
            // Connect refused: the prober will confirm, but routing must
            // not wait for it — mark down and fail over now. Deterministic
            // because the rendezvous order is.
            Err(ClientError::Unreachable(_)) => {
                backend.mark_down();
                backend.record_failure();
                continue;
            }
            // The request may have reached the backend; resending could
            // double-submit, so report instead of failing over.
            Err(e) => {
                backend.record_failure();
                error_reply(responder, 502, &format!("backend {}: {e}", backend.addr()));
                return None;
            }
            Ok(response) => {
                backend.record_success();
                shared.routed.fetch_add(1, Ordering::Relaxed);
                if attempts > 1 {
                    shared.failovers.fetch_add(1, Ordering::Relaxed);
                }
                if response.status == 429 {
                    shared.rejected.fetch_add(1, Ordering::Relaxed);
                }
                // Sync submits answer with outcome bytes (or an error
                // body) — no id to rewrite, relay verbatim. Async submits
                // answer with a SubmitReply whose backend-local id must
                // become a gateway id.
                if request.wants_wait() || !(response.status == 200 || response.status == 202) {
                    if let Some(slot) = capture.take() {
                        *slot = Some((
                            response.status,
                            response.header("retry-after").map(str::to_string),
                            response.body.clone(),
                        ));
                        return Some(responder);
                    }
                    relay_verbatim(responder, &response);
                    return None;
                }
                let reply = response
                    .text()
                    .ok()
                    .and_then(|t| parse(&t).ok())
                    .and_then(|v| SubmitReply::from_json(&v).ok());
                let Some(mut reply) = reply else {
                    error_reply(
                        responder,
                        502,
                        &format!("backend {} sent an undecodable reply", backend.addr()),
                    );
                    return None;
                };
                let gw_id = shared
                    .ids
                    .lock()
                    .expect("id table")
                    .assign(backend.addr(), reply.id);
                reply.id = gw_id;
                responder.respond(response.status, &[], reply.to_json().serialize().as_bytes());
                return None;
            }
        }
    }
    shared.unroutable.fetch_add(1, Ordering::Relaxed);
    error_reply(responder, 503, "no healthy backend");
    None
}

/// Rebuilds the backend-side target for a job sub-path, preserving the
/// query string (`?wait=1` long-polls ride through unchanged).
fn backend_target(backend_id: u64, tail: &str, request: &Request) -> String {
    let mut target = format!("/jobs/{backend_id}");
    if !tail.is_empty() {
        target.push('/');
        target.push_str(tail);
    }
    let query: Vec<String> = request
        .query
        .iter()
        .map(|(k, v)| {
            if v.is_empty() {
                k.clone()
            } else {
                format!("{k}={v}")
            }
        })
        .collect();
    if !query.is_empty() {
        target.push('?');
        target.push_str(&query.join("&"));
    }
    target
}

/// `GET /jobs/:id[/result]` and `DELETE /jobs/:id`: forward to the job's
/// backend, rewriting ids in protocol documents and relaying result
/// bytes verbatim.
fn handle_job_fetch(
    request: &Request,
    shared: &Arc<GwShared>,
    gw_id: u64,
    tail: &str,
    responder: Responder,
) {
    let Some((addr, backend_id)) = shared.ids.lock().expect("id table").lookup(gw_id) else {
        return error_reply(responder, 404, &format!("no such job: {gw_id}"));
    };
    // Status lookups go to the job's backend even when it is marked
    // unhealthy — the mark may be a transient probe failure.
    let Some(backend) = shared
        .pool
        .backends()
        .iter()
        .find(|b| b.addr() == addr)
        .cloned()
    else {
        return error_reply(responder, 404, &format!("no such job: {gw_id}"));
    };
    let target = backend_target(backend_id, tail, request);
    let response = match backend.client().forward(&request.method, &target, None) {
        Ok(response) => {
            backend.record_success();
            response
        }
        Err(ClientError::Unreachable(e)) => {
            backend.mark_down();
            backend.record_failure();
            return error_reply(responder, 502, &format!("backend {addr} unreachable: {e}"));
        }
        Err(e) => {
            backend.record_failure();
            return error_reply(responder, 502, &format!("backend {addr}: {e}"));
        }
    };
    // Result bytes (and error bodies) are relayed verbatim; status
    // documents get their id rewritten back to the gateway's.
    if tail == "result" || response.status != 200 {
        return relay_verbatim(responder, &response);
    }
    let reply = response
        .text()
        .ok()
        .and_then(|t| parse(&t).ok())
        .and_then(|v| StatusReply::from_json(&v).ok());
    let Some(mut reply) = reply else {
        return error_reply(
            responder,
            502,
            &format!("backend {addr} sent an undecodable reply"),
        );
    };
    reply.id = gw_id;
    responder.respond(200, &[], reply.to_json().serialize().as_bytes());
}

/// `GET /jobs/:id/events`: re-emits the backend's event stream with
/// gateway ids. A status probe runs first so an unknown job answers 404
/// instead of an empty 200 stream.
fn handle_events(shared: &Arc<GwShared>, gw_id: u64, responder: Responder) {
    let Some((addr, backend_id)) = shared.ids.lock().expect("id table").lookup(gw_id) else {
        return error_reply(responder, 404, &format!("no such job: {gw_id}"));
    };
    let Some(backend) = shared
        .pool
        .backends()
        .iter()
        .find(|b| b.addr() == addr)
        .cloned()
    else {
        return error_reply(responder, 404, &format!("no such job: {gw_id}"));
    };
    match backend
        .client()
        .forward("GET", &format!("/jobs/{backend_id}"), None)
    {
        Ok(probe) if probe.status == 200 => backend.record_success(),
        Ok(probe) => {
            backend.record_success();
            let body = probe.text().unwrap_or_default();
            responder.respond(probe.status, &[], body.as_bytes());
            return;
        }
        Err(e) => {
            backend.record_failure();
            return error_reply(responder, 502, &format!("backend {addr}: {e}"));
        }
    }
    let mut stream = responder.begin_stream(200);
    let mut relay_failed = false;
    let streamed = backend.client().events(backend_id, |event| {
        if relay_failed {
            return;
        }
        // The caller hanging up mid-stream surfaces as a dead stream
        // handle (the reactor dropped the connection); stop relaying but
        // keep draining the backend stream to completion.
        if !stream.is_live() {
            relay_failed = true;
            return;
        }
        let mut event = event.clone();
        event.id = gw_id;
        let line = format!("{}\n", event.to_json().serialize());
        stream.chunk(line.as_bytes());
    });
    // Write the terminating zero-length chunk only for a stream that
    // ended cleanly AND whose every event reached the caller. A backend
    // stream that died mid-relay must leave the caller's stream visibly
    // truncated — terminating it would forge a complete-looking stream
    // missing its terminal event.
    if streamed.is_ok() && !relay_failed {
        stream.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_table_is_bounded_and_monotonic() {
        let mut table = IdTable::default();
        let first = table.assign("b1", 1);
        assert_eq!(first, 1);
        for i in 0..(ID_TABLE_CAP as u64 + 10) {
            table.assign("b1", i);
        }
        assert!(table.map.len() <= ID_TABLE_CAP);
        // The earliest mapping was evicted, the newest survives.
        assert_eq!(table.lookup(first), None);
        let newest = table.next;
        assert!(table.lookup(newest).is_some());
    }

    #[test]
    fn parse_args_requires_backends() {
        assert!(GatewayConfig::parse_args(&[]).is_err());
        let config = GatewayConfig::parse_args(&[
            "--addr".into(),
            "127.0.0.1:0".into(),
            "--backend".into(),
            "127.0.0.1:7171".into(),
            "--backend".into(),
            "127.0.0.1:7172".into(),
            "--probe-ms".into(),
            "100".into(),
        ])
        .expect("valid flags");
        assert_eq!(config.backends.len(), 2);
        assert_eq!(config.probe_interval, Duration::from_millis(100));
        assert!(GatewayConfig::parse_args(&["--nonesuch".into()]).is_err());
    }

    #[test]
    fn parse_args_accepts_shared_connection_flags() {
        let config = GatewayConfig::parse_args(&[
            "--backend".into(),
            "127.0.0.1:7171".into(),
            "--idle-ms".into(),
            "250".into(),
            "--max-requests".into(),
            "16".into(),
            "--max-connections".into(),
            "32".into(),
        ])
        .expect("valid flags");
        assert_eq!(config.idle_timeout_ms, 250);
        assert_eq!(config.max_requests_per_connection, 16);
        assert_eq!(config.max_connections, 32);
        assert!(GatewayConfig::parse_args(&[
            "--backend".into(),
            "b".into(),
            "--max-connections".into(),
            "0".into(),
        ])
        .is_err());
    }

    #[test]
    fn backend_target_preserves_query() {
        let request = Request {
            method: "GET".into(),
            path: "/jobs/7".into(),
            query: vec![("wait".into(), "1".into())],
            headers: Vec::new(),
            body: Vec::new(),
        };
        assert_eq!(backend_target(42, "", &request), "/jobs/42?wait=1");
        assert_eq!(
            backend_target(42, "result", &request),
            "/jobs/42/result?wait=1"
        );
    }
}
