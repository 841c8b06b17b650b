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
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use domino_engine::json::{parse, Json};
use domino_engine::EngineError;
use domino_serve::front::{FrontConfig, FrontHandle, Responder};
use domino_serve::http::{Request, Response};
use domino_serve::protocol::{ErrorReply, StatusReply, SubmitReply};
use domino_serve::service::{Router, Service};
use domino_serve::{ArgTable, ClientError, FailpointCounter, ResolveMemo, ShutdownHandle};

use crate::pool::{Backend, BackendPool};

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
    /// Connection limits of the reactor front (the same as `dominod`'s).
    pub front: FrontConfig,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            addr: format!("127.0.0.1:{DEFAULT_GW_PORT}"),
            backends: Vec::new(),
            probe_interval: Duration::from_millis(500),
            front: FrontConfig::default(),
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
        config.front = FrontConfig::from_args(&parsed)?;
        if config.backends.is_empty() {
            return Err("at least one --backend is required".to_string());
        }
        Ok(config)
    }
}

/// Gateway ids are monotonic; the table maps them to `(backend index,
/// backend-local id)`, the index into [`BackendPool::backends`]. Bounded:
/// the oldest mappings are evicted beyond [`ID_TABLE_CAP`] — matching
/// `dominod`'s own bounded retention of terminal jobs.
const ID_TABLE_CAP: usize = 65_536;

#[derive(Debug, Default)]
struct IdTable {
    next: u64,
    map: BTreeMap<u64, (usize, u64)>,
}

impl IdTable {
    fn assign(&mut self, backend: usize, backend_id: u64) -> u64 {
        while self.map.len() >= ID_TABLE_CAP {
            self.map.pop_first();
        }
        self.next += 1;
        self.map.insert(self.next, (backend, backend_id));
        self.next
    }

    fn lookup(&self, gw_id: u64) -> Option<(usize, u64)> {
        self.map.get(&gw_id).copied()
    }
}

/// The pause before failover hop `n` (0-based) is this, doubled `n`
/// times: 40, 80 and 160 ms under [`FAILOVER_RETRY_BUDGET`].
const FAILOVER_PAUSE: Duration = Duration::from_millis(40);

/// One answer to a gateway caller: status, optional `Retry-After`, body.
/// Every backend-bound handler builds one and sends it once. Handlers
/// return `Result<Reply, Reply>`: `Ok` is the backend's answer (verbatim,
/// or with its job id rewritten), `Err` the gateway's own error.
#[derive(Debug, Clone)]
struct Reply {
    status: u16,
    retry_after: Option<String>,
    body: Vec<u8>,
}

impl Reply {
    fn new(status: u16, body: Vec<u8>) -> Reply {
        Reply {
            status,
            retry_after: None,
            body,
        }
    }

    /// A backend's answer as it came: status, `Retry-After` when
    /// present, exact body bytes.
    fn verbatim(response: Response) -> Reply {
        Reply {
            status: response.status,
            retry_after: response.header("retry-after").map(str::to_string),
            body: response.body,
        }
    }

    fn json(status: u16, doc: &Json) -> Reply {
        Reply::new(status, doc.serialize().into_bytes())
    }

    /// An [`ErrorReply`] body carrying `message`.
    fn error(status: u16, message: &str) -> Reply {
        Reply::json(status, &ErrorReply::new(message).to_json())
    }

    fn send(self, responder: Responder) {
        let retry_after = self.retry_after.as_deref().map(|v| ("retry-after", v));
        responder.respond(self.status, retry_after.as_slice(), &self.body);
    }
}

/// A backend's protocol document decoded with `from_json`, or `None`
/// when the body is not one.
fn decode<T>(response: &Response, from_json: fn(&Json) -> Result<T, EngineError>) -> Option<T> {
    let text = std::str::from_utf8(&response.body).ok()?;
    from_json(&parse(text).ok()?).ok()
}

/// In-flight coalescing for sync (`?wait=1`) submissions: one gate per
/// routing key. The leader holds the gate's lock for the whole backend
/// round trip and stores the backend's reply; duplicates block on the
/// lock and replay the identical bytes instead of re-submitting. A leader
/// that failed stores nothing, so the next waiter simply becomes the new
/// leader and tries again.
///
/// Leader and followers alike release the gate *before* their reply goes
/// out: a client that reacts to the reply by re-submitting the same key
/// must get a fresh backend round trip, never a replay off the
/// not-yet-released gate. Only duplicates already blocked on the gate
/// coalesce.
#[derive(Debug, Default)]
struct SyncFlight {
    gates: Mutex<HashMap<String, Arc<Mutex<Option<Reply>>>>>,
}

impl SyncFlight {
    fn acquire(&self, key: &str) -> Arc<Mutex<Option<Reply>>> {
        Arc::clone(
            self.gates
                .lock()
                .expect("sync flight")
                .entry(key.to_string())
                .or_default(),
        )
    }

    /// Gives `gate` back and forgets the key's gate once no caller holds
    /// it. The caller's reference drops under the map lock, so the last
    /// holder always sees only the map's: a stored reply never outlives
    /// the callers that were blocked on it.
    fn release(&self, key: &str, gate: Arc<Mutex<Option<Reply>>>) {
        let mut gates = self.gates.lock().expect("sync flight");
        drop(gate);
        if gates.get(key).is_some_and(|g| Arc::strong_count(g) == 1) {
            gates.remove(key);
        }
    }
}

#[derive(Debug)]
struct GwShared {
    pool: Arc<BackendPool>,
    ids: Mutex<IdTable>,
    resolve_memo: ResolveMemo,
    sync_flight: SyncFlight,
    front: FrontHandle,
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

impl Router for GwShared {
    fn route(shared: &Arc<Self>, request: Request, responder: Responder) {
        route(shared, request, responder);
    }
}

impl GwShared {
    fn is_shutting_down(&self) -> bool {
        self.front.is_draining()
    }

    /// The backend holding gateway job `gw_id` and the job's backend-local
    /// id, or the 404 for an id this gateway never assigned (or evicted).
    fn job(&self, gw_id: u64) -> Result<(&Backend, u64), Reply> {
        let found = self.ids.lock().expect("id table").lookup(gw_id);
        let (index, backend_id) =
            found.ok_or_else(|| Reply::error(404, &format!("no such job: {gw_id}")))?;
        Ok((&self.pool.backends()[index], backend_id))
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
            failpoints: FailpointCounter::snapshot(),
        }
    }
}

/// A running gateway: a health prober over a backend pool, routed by a
/// [`Service`] shell.
#[derive(Debug)]
pub struct Gateway {
    service: Service,
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
        let pool = Arc::new(BackendPool::new(&config.backends));
        let (mut service, _) = Service::start("dominogw", &config.addr, config.front, |front| {
            pool.probe_once();
            GwShared {
                pool: Arc::clone(&pool),
                ids: Mutex::new(IdTable::default()),
                resolve_memo: ResolveMemo::default(),
                sync_flight: SyncFlight::default(),
                front,
                started: Instant::now(),
                routed: AtomicU64::new(0),
                rejected: AtomicU64::new(0),
                failovers: AtomicU64::new(0),
                peer_fills: AtomicU64::new(0),
                unroutable: AtomicU64::new(0),
                coalesced: AtomicU64::new(0),
                relays: std::sync::atomic::AtomicUsize::new(0),
            }
        })?;
        let drain = service.shutdown_handle();
        service.spawn_helper(move || pool.run_prober(config.probe_interval, &drain));
        Ok(Gateway { service })
    }

    /// The bound listen address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.service.addr()
    }

    /// A cloneable handle that requests this gateway's drain from another
    /// thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.service.shutdown_handle()
    }

    /// Blocks until the drain is requested, then waits for every
    /// connection to close and the prober to stop.
    pub fn wait(&mut self) {
        self.service.wait();
    }

    /// Requests the drain and waits for it to finish.
    pub fn shutdown(self) {
        self.service.shutdown();
    }
}

impl AsMut<Service> for Gateway {
    fn as_mut(&mut self) -> &mut Service {
        &mut self.service
    }
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
        let message = format!("relay capacity reached: {RELAY_CAP} in flight");
        let reply = Reply {
            retry_after: Some("1".to_string()),
            ..Reply::error(503, &message)
        };
        return reply.send(responder);
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

/// The backend-bound work a request hands its relay thread.
enum Relay {
    Submit,
    /// `GET /jobs/:id[/result]` or `DELETE /jobs/:id`: the gateway id and
    /// the job sub-path (`""` or `"result"`).
    Fetch(u64, &'static str),
    Events(u64),
}

/// Classifies one request on a handler-pool thread. Control endpoints
/// answer inline (they touch no backend and must stay responsive);
/// everything that talks to a backend moves to a relay thread via
/// [`spawn_relay`].
fn route(shared: &Arc<GwShared>, request: Request, responder: Responder) {
    let relay = match (request.method.as_str(), request.path.as_str()) {
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
            return responder.respond(200, &[], body.serialize().as_bytes());
        }
        ("GET", "/metrics") => {
            let body = shared.metrics_doc().to_json().serialize();
            return responder.respond(200, &[], body.as_bytes());
        }
        ("POST", "/jobs") => Relay::Submit,
        (method, path) => match (method, request.job_path()) {
            ("GET" | "DELETE", Some((gw_id, ""))) => Relay::Fetch(gw_id, ""),
            ("GET", Some((gw_id, "result"))) => Relay::Fetch(gw_id, "result"),
            ("GET", Some((gw_id, "events"))) => Relay::Events(gw_id),
            (_, Some((_, "" | "result" | "events"))) => {
                return responder.error(405, "method not allowed")
            }
            _ => return responder.error(404, &format!("no such endpoint: {method} {path}")),
        },
    };
    let relay_shared = Arc::clone(shared);
    spawn_relay(shared, responder, move |responder| {
        let shared = &*relay_shared;
        let reply = match relay {
            Relay::Submit => handle_submit(&request, shared),
            Relay::Fetch(gw_id, tail) => handle_job_fetch(&request, shared, gw_id, tail),
            Relay::Events(gw_id) => return handle_events(shared, gw_id, responder),
        };
        reply.unwrap_or_else(|error| error).send(responder);
    });
}

fn handle_submit(request: &Request, shared: &GwShared) -> Result<Reply, Reply> {
    if shared.is_shutting_down() {
        return Err(Reply::error(503, "gateway is draining for shutdown"));
    }
    // Compute the routing key exactly as the backend will: decode the
    // body with the backends' own admission decode and take the job's
    // content-address. An unroutable spec fails here with the same 400 a
    // backend would give.
    let key = match shared.resolve_memo.job_from_body(&request.body) {
        Ok(job) => job.cache_key().to_string(),
        Err(e) => return Err(Reply::error(400, &e)),
    };

    // Only sync submissions coalesce at the gateway: their reply *is*
    // the outcome, so followers can replay the leader's bytes verbatim.
    // Async duplicates each get their own id and dedupe one hop later,
    // at the backend engine's own in-flight gate.
    if !request.wants_wait() {
        return submit_routed(request, shared, &key);
    }
    let gate = shared.sync_flight.acquire(&key);
    let mut slot = gate.lock().unwrap_or_else(|p| p.into_inner());
    let reply = match &*slot {
        Some(stored) => {
            shared.coalesced.fetch_add(1, Ordering::Relaxed);
            Ok(stored.clone())
        }
        None => {
            let reply = submit_routed(request, shared, &key);
            // Only a backend's reply is stored: after a gateway error the
            // next waiter leads a fresh attempt.
            *slot = reply.as_ref().ok().cloned();
            reply
        }
    };
    // Unlock and release the gate before the reply goes out — see the
    // gate-ordering note on [`SyncFlight`].
    drop(slot);
    shared.sync_flight.release(&key, gate);
    reply
}

/// The routing core of a submission: peer-warms the home cache, then
/// walks the failover sequence under the retry budget and each
/// backend's circuit breaker. `Ok` is the backend's reply; `Err` the
/// gateway's own error, which a coalescing leader never stores.
fn submit_routed(request: &Request, shared: &GwShared, key: &str) -> Result<Reply, Reply> {
    let backends = shared.pool.backends();
    let ranked = shared.pool.ranked(key);
    if ranked.is_empty() {
        shared.unroutable.fetch_add(1, Ordering::Relaxed);
        return Err(Reply::error(503, "no healthy backend"));
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
        let home = backends[ranked[0]].control_client();
        if let Ok(None) = home.cache_peek(key) {
            for &peer in &ranked[1..] {
                if let Ok(Some(bytes)) = backends[peer].control_client().cache_peek(key) {
                    if home.cache_fill(key, &bytes).is_ok() {
                        shared.peer_fills.fetch_add(1, Ordering::Relaxed);
                    }
                    break;
                }
            }
        }
    }

    let target = request.target();
    let mut attempts: u32 = 0;
    for &index in &ranked {
        let backend = &backends[index];
        // The retry budget bounds the walk; the breaker skips backends
        // that earned no more traffic (half-open admits one trial).
        if attempts > FAILOVER_RETRY_BUDGET {
            break;
        }
        if !backend.breaker_allows() {
            continue;
        }
        if attempts > 0 {
            // A growing pause between failover hops: a same-instant
            // thundering herd against the runner-up is exactly how one
            // backend's crash topples the next.
            std::thread::sleep(FAILOVER_PAUSE * (1 << (attempts - 1)));
        }
        attempts += 1;
        let forwarded = backend.relay(|client| {
            if domino_failpoint::should_fire("fleet.gateway.relay") {
                let fired = "failpoint fired: fleet.gateway.relay".to_string();
                return Err(ClientError::Unreachable(fired));
            }
            client.forward("POST", &target, Some(&request.body))
        });
        let response = match forwarded {
            Ok(response) => response,
            // Connect refused: `relay` marked the backend down, so the
            // prober must confirm recovery; fail over now. Deterministic
            // because the rendezvous order is.
            Err(ClientError::Unreachable(_)) => continue,
            // The request may have reached the backend; resending could
            // double-submit, so report instead of failing over.
            Err(e) => {
                let message = format!("backend {}: {e}", backend.addr());
                return Err(Reply::error(502, &message));
            }
        };
        shared.routed.fetch_add(1, Ordering::Relaxed);
        if attempts > 1 {
            shared.failovers.fetch_add(1, Ordering::Relaxed);
        }
        if response.status == 429 {
            shared.rejected.fetch_add(1, Ordering::Relaxed);
        }
        // Sync submits answer with outcome bytes (or an error body) — no
        // id to rewrite, relay verbatim. Async submits answer with a
        // SubmitReply whose backend-local id must become a gateway id.
        if request.wants_wait() || !(response.status == 200 || response.status == 202) {
            return Ok(Reply::verbatim(response));
        }
        let Some(mut reply) = decode(&response, SubmitReply::from_json) else {
            let message = format!("backend {} sent an undecodable reply", backend.addr());
            return Err(Reply::error(502, &message));
        };
        reply.id = shared.ids.lock().expect("id table").assign(index, reply.id);
        return Ok(Reply::json(response.status, &reply.to_json()));
    }
    shared.unroutable.fetch_add(1, Ordering::Relaxed);
    Err(Reply::error(503, "no healthy backend"))
}

/// Rebuilds the backend-side target for a job sub-path, preserving the
/// query string (`?wait=1` long-polls ride through unchanged).
fn backend_target(backend_id: u64, tail: &str, request: &Request) -> String {
    // `Request::target` is the path followed by `?query`, if any.
    let query = &request.target()[request.path.len()..];
    if tail.is_empty() {
        format!("/jobs/{backend_id}{query}")
    } else {
        format!("/jobs/{backend_id}/{tail}{query}")
    }
}

/// `GET /jobs/:id[/result]` and `DELETE /jobs/:id`: forward to the job's
/// backend, rewriting ids in protocol documents and relaying result
/// bytes verbatim. Status lookups go to the job's backend even when it
/// is marked unhealthy — the mark may be a transient probe failure.
fn handle_job_fetch(
    request: &Request,
    shared: &GwShared,
    gw_id: u64,
    tail: &str,
) -> Result<Reply, Reply> {
    let (backend, backend_id) = shared.job(gw_id)?;
    let target = backend_target(backend_id, tail, request);
    let addr = backend.addr();
    let response = match backend.relay(|client| client.forward(&request.method, &target, None)) {
        Ok(response) => response,
        Err(e) => {
            let message = match e {
                ClientError::Unreachable(e) => format!("backend {addr} unreachable: {e}"),
                e => format!("backend {addr}: {e}"),
            };
            return Err(Reply::error(502, &message));
        }
    };
    // Result bytes (and error bodies) are relayed verbatim; status
    // documents get their id rewritten back to the gateway's.
    if tail == "result" || response.status != 200 {
        return Ok(Reply::verbatim(response));
    }
    let Some(mut reply) = decode(&response, StatusReply::from_json) else {
        let message = format!("backend {addr} sent an undecodable reply");
        return Err(Reply::error(502, &message));
    };
    reply.id = gw_id;
    Ok(Reply::json(200, &reply.to_json()))
}

/// `GET /jobs/:id/events`: re-emits the backend's event stream with
/// gateway ids. A status probe runs first so an unknown job answers 404
/// instead of an empty 200 stream.
fn handle_events(shared: &GwShared, gw_id: u64, responder: Responder) {
    let (backend, backend_id) = match probe_job(shared, gw_id) {
        Ok(job) => job,
        Err(reply) => return reply.send(responder),
    };
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

/// The events relay's status probe: the job's backend and backend-local
/// id when that backend knows the job, else the caller's answer instead
/// of a stream (the 404, the probe's own non-200 reply, or a 502).
fn probe_job(shared: &GwShared, gw_id: u64) -> Result<(&Backend, u64), Reply> {
    let (backend, backend_id) = shared.job(gw_id)?;
    let target = format!("/jobs/{backend_id}");
    let probe = match backend.relay(|client| client.forward("GET", &target, None)) {
        Ok(probe) => probe,
        Err(e) => {
            let message = format!("backend {}: {e}", backend.addr());
            return Err(Reply::error(502, &message));
        }
    };
    if probe.status != 200 {
        let body = probe.text().unwrap_or_default();
        return Err(Reply::new(probe.status, body.into_bytes()));
    }
    Ok((backend, backend_id))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_table_is_bounded_and_monotonic() {
        let mut table = IdTable::default();
        let first = table.assign(0, 1);
        assert_eq!(first, 1);
        for i in 0..(ID_TABLE_CAP as u64 + 10) {
            table.assign(0, i);
        }
        assert!(table.map.len() <= ID_TABLE_CAP);
        // The earliest mapping was evicted, the newest survives.
        assert_eq!(table.lookup(first), None);
        let newest = table.next;
        assert!(table.lookup(newest).is_some());
    }

    #[test]
    fn a_gate_is_forgotten_once_its_last_holder_releases() {
        let flight = SyncFlight::default();
        for leader_first in [true, false] {
            let leader = flight.acquire("k");
            let follower = flight.acquire("k");
            *leader.lock().expect("gate") = Some(Reply::new(200, b"done".to_vec()));
            let (first, second) = if leader_first {
                (leader, follower)
            } else {
                (follower, leader)
            };
            flight.release("k", first);
            assert!(flight.gates.lock().expect("map").contains_key("k"));
            flight.release("k", second);
            // A later, non-concurrent submission must lead, not replay.
            assert!(flight.gates.lock().expect("map").is_empty());
        }
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
        assert_eq!(config.front.idle_timeout_ms, 250);
        assert_eq!(config.front.max_requests_per_connection, 16);
        assert_eq!(config.front.max_connections, 32);
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
