//! The gateway's view of its `dominod` backends: one kept-alive
//! [`ServeClient`] per backend plus a health bit maintained by a probe
//! thread and by routing-time connect failures.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use domino_serve::http::Response;
use domino_serve::{ClientError, ServeClient, ShutdownHandle};

use crate::hash;

/// I/O bound for control-plane traffic (health probes, cache peek/fill
/// peering): connect, read and write each complete within this or the
/// call fails. Far below the data-plane client's 30 s read timeout — a
/// half-up backend (accepts TCP, never answers) must cost the routing
/// path at most this long, not serialize every cold submission behind a
/// 30 s stall per peer.
pub const CONTROL_IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Consecutive data-plane failures that trip a backend's circuit
/// breaker open. Low enough that a wedged backend stops eating failover
/// latency quickly, high enough that one flaky request doesn't.
pub const BREAKER_TRIP_THRESHOLD: u32 = 3;

const BREAKER_CLOSED: u8 = 0;
const BREAKER_OPEN: u8 = 1;
const BREAKER_HALF_OPEN: u8 = 2;

/// One `dominod` backend as the gateway sees it.
#[derive(Debug)]
pub struct Backend {
    addr: String,
    client: ServeClient,
    control_client: ServeClient,
    healthy: AtomicBool,
    /// Times this backend was marked down (probe failure or routing-time
    /// connect failure).
    downs: AtomicU64,
    /// Consecutive data-plane failures since the last success; trips the
    /// breaker at [`BREAKER_TRIP_THRESHOLD`].
    consecutive_failures: AtomicU32,
    /// Circuit-breaker state: closed (normal), open (no traffic until a
    /// probe succeeds), half-open (one trial request allowed).
    breaker: AtomicU8,
}

impl Backend {
    fn new(addr: String) -> Self {
        let client = ServeClient::new(addr.clone());
        let control_client = ServeClient::with_io_timeout(addr.clone(), CONTROL_IO_TIMEOUT);
        Backend {
            addr,
            client,
            control_client,
            // Optimistic start: the first probe (or first routed request)
            // corrects it. Starting pessimistic would reject the whole
            // fleet's traffic until a probe cycle completes.
            healthy: AtomicBool::new(true),
            downs: AtomicU64::new(0),
            consecutive_failures: AtomicU32::new(0),
            breaker: AtomicU8::new(BREAKER_CLOSED),
        }
    }

    /// The backend's address (`host:port`) — also its rendezvous identity.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The kept-alive client for this backend (data plane: forwarded
    /// requests, relayed event streams).
    pub fn client(&self) -> &ServeClient {
        &self.client
    }

    /// The [`CONTROL_IO_TIMEOUT`]-bounded client for this backend
    /// (control plane: health probes, cache peek/fill peering).
    pub fn control_client(&self) -> &ServeClient {
        &self.control_client
    }

    /// Whether the last contact (probe or routed request) succeeded.
    pub fn is_healthy(&self) -> bool {
        self.healthy.load(Ordering::SeqCst)
    }

    /// Runs one relayed (data-plane) call on this backend's client and
    /// records its outcome. A success — any HTTP status — resets the
    /// failure streak and closes the breaker. A refused connection marks
    /// the backend down, so the next probe cycle must confirm recovery
    /// before it takes traffic again, and counts a failure. Any other
    /// error counts a failure only.
    pub(crate) fn relay(
        &self,
        call: impl FnOnce(&ServeClient) -> Result<Response, ClientError>,
    ) -> Result<Response, ClientError> {
        let outcome = call(&self.client);
        match &outcome {
            Ok(_) => self.record_success(),
            Err(ClientError::Unreachable(_)) => {
                self.mark_down();
                self.record_failure();
            }
            Err(_) => self.record_failure(),
        }
        outcome
    }

    /// Demotes the backend until a probe succeeds again.
    fn mark_down(&self) {
        if self.healthy.swap(false, Ordering::SeqCst) {
            self.downs.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// How many times this backend transitioned healthy → down.
    pub fn down_transitions(&self) -> u64 {
        self.downs.load(Ordering::Relaxed)
    }

    /// Counts one more consecutive failure: [`BREAKER_TRIP_THRESHOLD`] in
    /// a row trip the breaker open; only a successful health probe
    /// re-arms it (half-open).
    fn record_failure(&self) {
        let failures = self.consecutive_failures.fetch_add(1, Ordering::SeqCst) + 1;
        if failures >= BREAKER_TRIP_THRESHOLD {
            self.breaker.store(BREAKER_OPEN, Ordering::SeqCst);
        }
    }

    /// Resets the failure streak and closes the breaker (this is how a
    /// half-open trial graduates back to closed).
    fn record_success(&self) {
        self.consecutive_failures.store(0, Ordering::SeqCst);
        self.breaker.store(BREAKER_CLOSED, Ordering::SeqCst);
    }

    /// Whether the breaker admits a request right now. Closed always
    /// admits. Open never admits. Half-open admits exactly one caller —
    /// the trial request — and reverts to open until that trial's relayed
    /// outcome closes it again.
    pub fn breaker_allows(&self) -> bool {
        match self.breaker.load(Ordering::SeqCst) {
            BREAKER_CLOSED => true,
            BREAKER_HALF_OPEN => self
                .breaker
                .compare_exchange(
                    BREAKER_HALF_OPEN,
                    BREAKER_OPEN,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
                .is_ok(),
            _ => false,
        }
    }

    /// The breaker state as a metrics-friendly label.
    pub fn breaker_state(&self) -> &'static str {
        match self.breaker.load(Ordering::SeqCst) {
            BREAKER_OPEN => "open",
            BREAKER_HALF_OPEN => "half-open",
            _ => "closed",
        }
    }

    fn probe_succeeded(&self) {
        self.healthy.store(true, Ordering::SeqCst);
        // A live /healthz does not prove the data plane works, so an
        // open breaker graduates only to half-open: one trial request
        // decides between closed and open again.
        let _ = self.breaker.compare_exchange(
            BREAKER_OPEN,
            BREAKER_HALF_OPEN,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
    }

    fn probe(&self) {
        if domino_failpoint::should_fire("fleet.pool.probe") {
            self.mark_down();
            return;
        }
        match self.control_client.healthz() {
            Ok(_) => self.probe_succeeded(),
            Err(_) => self.mark_down(),
        }
    }
}

/// The fleet membership: fixed at construction (membership churn within a
/// run is modeled as health, not as add/remove — rendezvous hashing makes
/// the distinction immaterial for placement).
#[derive(Debug)]
pub struct BackendPool {
    backends: Vec<Arc<Backend>>,
}

impl BackendPool {
    /// A pool over `addrs`, all initially presumed healthy.
    pub fn new(addrs: &[String]) -> Self {
        BackendPool {
            backends: addrs
                .iter()
                .map(|a| Arc::new(Backend::new(a.clone())))
                .collect(),
        }
    }

    /// All backends, healthy or not, in construction order.
    pub fn backends(&self) -> &[Arc<Backend>] {
        &self.backends
    }

    /// The *eligible* backends in rendezvous order for `key`, as indices
    /// into [`backends`](Self::backends): healthy, breaker not open; the
    /// first is the key's home, the rest the deterministic failover
    /// sequence.
    ///
    /// Fail-open: when *every* backend is filtered out (a probe blackout
    /// marks the whole fleet down at once), the full membership is
    /// ranked instead — the data plane keeps trying real connections
    /// rather than rejecting all traffic on control-plane evidence alone.
    pub fn ranked(&self, key: &str) -> Vec<usize> {
        let mut names: Vec<&str> = self
            .backends
            .iter()
            .filter(|b| b.is_healthy() && b.breaker_state() != "open")
            .map(|b| b.addr())
            .collect();
        if names.is_empty() {
            names = self.backends.iter().map(|b| b.addr()).collect();
        }
        hash::rank(&names, key)
            .into_iter()
            .filter_map(|addr| self.backends.iter().position(|b| b.addr() == addr))
            .collect()
    }

    /// Probes every backend's `/healthz` once, updating health bits.
    pub fn probe_once(&self) {
        for backend in &self.backends {
            backend.probe();
        }
    }

    /// This backend's deterministic probe-start offset within one probe
    /// interval. Hashing the address (not an index) keeps the offset
    /// stable across restarts and identical on every gateway, while
    /// spreading the fleet's first-probe times across the interval so a
    /// large pool doesn't hammer every `/healthz` at the same instant.
    pub fn probe_stagger(addr: &str, interval: Duration) -> Duration {
        let nanos = interval.as_nanos() as u64;
        if nanos == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(hash::score(addr, "probe-stagger") % nanos)
    }

    /// Runs the health-probe loop until `drain` trips. The first probe
    /// of each backend waits for its
    /// [`probe_stagger`](Self::probe_stagger) offset; after that first
    /// staggered round, every interval probes the whole pool.
    pub fn run_prober(&self, interval: Duration, drain: &ShutdownHandle) {
        let started = Instant::now();
        let mut staggered: Vec<(Duration, &Backend)> = self
            .backends
            .iter()
            .map(|b| (Self::probe_stagger(b.addr(), interval), &**b))
            .collect();
        staggered.sort_by_key(|(offset, _)| *offset);
        for (offset, backend) in staggered {
            if drain.wait_timeout(offset.saturating_sub(started.elapsed())) {
                return;
            }
            backend.probe();
        }
        while !drain.wait_timeout(interval) {
            self.probe_once();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranked_skips_unhealthy_backends() {
        let pool = BackendPool::new(&[
            "127.0.0.1:7101".to_string(),
            "127.0.0.1:7102".to_string(),
            "127.0.0.1:7103".to_string(),
        ]);
        let key = "deadbeefdeadbeefdeadbeefdeadbeef";
        let full = pool.ranked(key);
        assert_eq!(full.len(), 3);

        // Knock out the key's home: the runner-up becomes the home and
        // the down backend vanishes from the ranking entirely.
        let home = &pool.backends()[full[0]];
        home.mark_down();
        assert_eq!(home.down_transitions(), 1);
        let rerouted = pool.ranked(key);
        assert_eq!(rerouted.len(), 2);
        assert_eq!(rerouted[0], full[1]);

        // Double demotion counts once per healthy → down transition.
        home.mark_down();
        assert_eq!(home.down_transitions(), 1);
    }

    #[test]
    fn probe_against_dead_port_marks_down() {
        // Port 9 (discard) refuses connections on any sane machine.
        let pool = BackendPool::new(&["127.0.0.1:9".to_string()]);
        assert!(pool.backends()[0].is_healthy(), "optimistic start");
        pool.probe_once();
        assert!(!pool.backends()[0].is_healthy());
    }

    #[test]
    fn breaker_trips_on_consecutive_failures_and_half_open_admits_one_trial() {
        let pool = BackendPool::new(&["127.0.0.1:7101".to_string()]);
        let backend = &pool.backends()[0];
        assert_eq!(backend.breaker_state(), "closed");

        // Below the threshold the breaker stays closed...
        for _ in 0..BREAKER_TRIP_THRESHOLD - 1 {
            backend.record_failure();
            assert_eq!(backend.breaker_state(), "closed");
            assert!(backend.breaker_allows());
        }
        // ...and a success resets the streak entirely.
        backend.record_success();
        for _ in 0..BREAKER_TRIP_THRESHOLD - 1 {
            backend.record_failure();
        }
        assert_eq!(backend.breaker_state(), "closed");

        // The threshold-th consecutive failure trips it open.
        backend.record_failure();
        assert_eq!(backend.breaker_state(), "open");
        assert!(!backend.breaker_allows());

        // A successful probe re-arms to half-open; exactly one caller
        // wins the trial slot, everyone else keeps seeing open.
        backend.probe_succeeded();
        assert_eq!(backend.breaker_state(), "half-open");
        assert!(backend.breaker_allows(), "first caller takes the trial");
        assert!(!backend.breaker_allows(), "second caller is held back");
        assert_eq!(backend.breaker_state(), "open");

        // Trial succeeded: closed again and admitting freely.
        backend.record_success();
        assert_eq!(backend.breaker_state(), "closed");
        assert!(backend.breaker_allows());
    }

    #[test]
    fn ranked_excludes_open_breakers() {
        let pool = BackendPool::new(&["127.0.0.1:7101".to_string(), "127.0.0.1:7102".to_string()]);
        let key = "deadbeefdeadbeefdeadbeefdeadbeef";
        let full = pool.ranked(key);
        for _ in 0..BREAKER_TRIP_THRESHOLD {
            pool.backends()[full[0]].record_failure();
        }
        let rerouted = pool.ranked(key);
        assert_eq!(rerouted.len(), 1);
        assert_eq!(rerouted[0], full[1]);
    }

    #[test]
    fn ranked_fails_open_when_every_backend_is_filtered() {
        let pool = BackendPool::new(&["127.0.0.1:7101".to_string(), "127.0.0.1:7102".to_string()]);
        for backend in pool.backends() {
            backend.mark_down();
        }
        // A probe blackout must not zero the routing table: with nothing
        // eligible, the full membership is ranked so the data plane can
        // still try real connections.
        let ranked = pool.ranked("deadbeefdeadbeefdeadbeefdeadbeef");
        assert_eq!(ranked.len(), 2);
    }

    #[test]
    fn probe_stagger_is_deterministic_and_within_interval() {
        let interval = Duration::from_secs(1);
        let a = BackendPool::probe_stagger("127.0.0.1:7101", interval);
        let b = BackendPool::probe_stagger("127.0.0.1:7102", interval);
        assert_eq!(a, BackendPool::probe_stagger("127.0.0.1:7101", interval));
        assert_ne!(a, b, "near-identical addresses still spread apart");
        assert!(a < interval && b < interval);
        assert_eq!(
            BackendPool::probe_stagger("127.0.0.1:7101", Duration::ZERO),
            Duration::ZERO
        );
    }
}
