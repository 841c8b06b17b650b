//! `ServeClient`: the client half of the wire protocol, used by the
//! `dominoc` subcommands, the `dominogw` gateway, the integration tests
//! and the load harness.
//!
//! By default the client keeps one connection alive and reuses it across
//! requests (`Connection: keep-alive`), falling back transparently to a
//! fresh connection when the pooled one has gone stale — a server may
//! close an idle connection at any time, and the retry makes that
//! invisible to callers. The retry fires only when the request provably
//! never reached the server (the write failed, or the server closed
//! before sending any response byte); a failure after that — a read
//! timeout, a reset mid-response — is surfaced as an error, because the
//! server may already be processing the request and a blind resend could
//! double-submit a job. Blocking requests (`?wait=1`/`?wait=true`
//! anywhere in the query string, event streams) always use a dedicated
//! single-request connection so an arbitrarily-long job cannot pin the
//! pooled one. Connection failures are distinguished from job failures
//! so the CLI can exit with distinct codes: a refused/unreachable server
//! is [`ClientError::Unreachable`], a job that ran and failed is
//! [`ClientError::Api`].

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use domino_engine::json::{parse, Json};
use domino_engine::JobSpec;

use crate::http::{HttpConnection, Response};
use crate::protocol::{ErrorReply, EventRecord, MetricsReply, StatusReply, SubmitReply};

/// Client-side failures, split by who is at fault.
#[derive(Debug)]
pub enum ClientError {
    /// Could not connect to the server at all (refused, no route, DNS).
    /// `dominoc` maps this to its distinct "server unreachable" exit code.
    Unreachable(String),
    /// The connection worked but I/O failed mid-request.
    Io(String),
    /// The server answered with something the protocol cannot parse.
    Protocol(String),
    /// The server answered with a non-success status and an error body.
    Api {
        /// HTTP status code.
        status: u16,
        /// The server's rendered reason.
        error: String,
        /// `Retry-After` seconds, when the server sent one (backpressure).
        retry_after: Option<u64>,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Unreachable(e) => write!(f, "server unreachable: {e}"),
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Api { status, error, .. } => {
                write!(f, "server returned {status}: {error}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// A retry budget with exponential backoff and *deterministic* jitter —
/// the pacing of the gateway's failover hops. The delay before retry `n`
/// is a pure function of `(seed, n)`, so a chaos run that failed over its
/// way to recovery replays the exact same schedule under the same seed. A
/// server-sent `Retry-After` overrides the computed backoff — explicit
/// backpressure knows better than a guess.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Additional attempts after the first (0 = never retry).
    pub budget: u32,
    /// Backoff before the first retry; doubles each retry.
    pub base_delay: Duration,
    /// Ceiling for the computed (jittered) backoff. `Retry-After` is
    /// honored even beyond it.
    pub max_delay: Duration,
    /// Jitter seed; same seed ⇒ same delays.
    pub seed: u64,
}

impl RetryPolicy {
    /// A policy with `budget` retries and the default 50 ms → 2 s
    /// exponential window, seed 0.
    pub fn new(budget: u32) -> Self {
        RetryPolicy {
            budget,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
            seed: 0,
        }
    }

    /// The delay before retry `attempt` (0-based): "equal jitter" over an
    /// exponential window — half the window guaranteed, half jittered by
    /// a splitmix64 of `(seed, attempt)`. When the failed attempt carried
    /// a `Retry-After`, that wins verbatim.
    pub fn delay(&self, attempt: u32, retry_after: Option<u64>) -> Duration {
        if let Some(secs) = retry_after {
            return Duration::from_secs(secs);
        }
        let window = self
            .base_delay
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.max_delay);
        let half = window / 2;
        let jitter_ns = match half.as_nanos() as u64 {
            0 => 0,
            span => splitmix64(self.seed ^ u64::from(attempt).wrapping_mul(0x9e37)) % (span + 1),
        };
        half + Duration::from_nanos(jitter_ns)
    }
}

/// splitmix64 finalizer — the workspace's stock deterministic mixer.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A `dominod` client bound to one server address.
///
/// Cloning shares the connection pool: clones of one client reuse the
/// same kept-alive connection (one at a time; concurrent requests that
/// find the pool busy open their own connection and the winner repools).
#[derive(Debug, Clone)]
pub struct ServeClient {
    addr: String,
    reuse: bool,
    /// When set, bounds connect, reads and writes — control-plane
    /// clients (probes, cache peering) use this so a half-up peer
    /// cannot stall them for the default 30 s read timeout.
    io_timeout: Option<Duration>,
    pool: Arc<Mutex<Option<HttpConnection>>>,
    reuses: Arc<AtomicU64>,
}

/// Read timeout for immediate (non-blocking) requests on a default
/// client; blocking requests (`?wait=1`, event streams) are untimed.
const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Builds a [`ServeClient`] from chainable options — the one place every
/// client knob lives ([`ServeClient::new`] is the all-defaults shorthand):
///
/// ```
/// use domino_serve::ServeClient;
/// use std::time::Duration;
///
/// let probe = ServeClient::builder("127.0.0.1:7171")
///     .io_timeout(Duration::from_secs(2))
///     .build();
/// assert_eq!(probe.addr(), "127.0.0.1:7171");
/// ```
#[derive(Debug, Clone)]
pub struct ClientBuilder {
    addr: String,
    keep_alive: bool,
    io_timeout: Option<Duration>,
}

impl ClientBuilder {
    /// Starts a builder for the server at `addr` with the defaults of
    /// [`ServeClient::new`]: keep-alive on, no I/O timeout.
    pub fn new(addr: impl Into<String>) -> Self {
        ClientBuilder {
            addr: addr.into(),
            keep_alive: true,
            io_timeout: None,
        }
    }

    /// Opens a fresh connection for every request instead of pooling a
    /// kept-alive one — the pre-keep-alive wire behaviour, kept for
    /// benchmarking the difference and for strict request isolation.
    #[must_use]
    pub fn fresh_connections(mut self) -> Self {
        self.keep_alive = false;
        self
    }

    /// Bounds connect, reads and writes by `timeout` — for control-plane
    /// traffic (health probes, cache peek/fill peering) that must stay
    /// fast even against a half-up peer that accepts TCP but never
    /// answers. Blocking requests (`?wait=1`, event streams) are still
    /// untimed on reads.
    #[must_use]
    pub fn io_timeout(mut self, timeout: Duration) -> Self {
        self.io_timeout = Some(timeout);
        self
    }

    /// The configured client.
    pub fn build(self) -> ServeClient {
        ServeClient {
            addr: self.addr,
            reuse: self.keep_alive,
            io_timeout: self.io_timeout,
            pool: Arc::new(Mutex::new(None)),
            reuses: Arc::new(AtomicU64::new(0)),
        }
    }
}

impl ServeClient {
    /// Starts a [`ClientBuilder`] for the server at `addr` (e.g.
    /// `127.0.0.1:7171`) — the front door for configured clients.
    pub fn builder(addr: impl Into<String>) -> ClientBuilder {
        ClientBuilder::new(addr)
    }

    /// A keep-alive client for the server at `addr` with default options
    /// — shorthand for `ServeClient::builder(addr).build()`.
    pub fn new(addr: impl Into<String>) -> Self {
        ClientBuilder::new(addr).build()
    }

    /// The server address this client talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// How many requests were answered over a reused (kept-alive)
    /// connection rather than a fresh one. Shared across clones.
    pub fn connection_reuses(&self) -> u64 {
        self.reuses.load(Ordering::Relaxed)
    }

    /// `blocking`: whether this request may legitimately wait on job
    /// progress (long-polls, event streams, sync submits). Those get no
    /// read timeout — the server sends nothing until the job is terminal,
    /// and a job may queue and run for arbitrarily long — while immediate
    /// requests keep a timeout so a wedged server cannot hang the CLI.
    fn connect(&self, blocking: bool) -> Result<HttpConnection, ClientError> {
        let unreach =
            |e: &dyn fmt::Display| ClientError::Unreachable(format!("{}: {e}", self.addr));
        if domino_failpoint::should_fire("serve.client.connect") {
            return Err(unreach(&"failpoint fired: serve.client.connect"));
        }
        let stream = match self.io_timeout {
            None => std::net::TcpStream::connect(&self.addr).map_err(|e| unreach(&e))?,
            // Bounded connect: try each resolved address under the
            // budget, so a peer whose SYN queue accepts but never
            // completes the handshake cannot stall the caller.
            Some(limit) => {
                use std::net::ToSocketAddrs;
                let addrs = self.addr.to_socket_addrs().map_err(|e| unreach(&e))?;
                let mut last: Option<std::io::Error> = None;
                let mut connected = None;
                for addr in addrs {
                    match std::net::TcpStream::connect_timeout(&addr, limit) {
                        Ok(stream) => {
                            connected = Some(stream);
                            break;
                        }
                        Err(e) => last = Some(e),
                    }
                }
                connected.ok_or_else(|| match &last {
                    Some(e) => unreach(e),
                    None => unreach(&"address resolved to nothing"),
                })?
            }
        };
        let timeout = if blocking {
            None
        } else {
            Some(self.io_timeout.unwrap_or(DEFAULT_READ_TIMEOUT))
        };
        stream
            .set_read_timeout(timeout)
            .map_err(|e| ClientError::Io(e.to_string()))?;
        if let Some(limit) = self.io_timeout {
            stream
                .set_write_timeout(Some(limit))
                .map_err(|e| ClientError::Io(e.to_string()))?;
        }
        Ok(HttpConnection::new(stream))
    }

    /// One request/response exchange on `conn`.
    fn exchange(
        &self,
        conn: &mut HttpConnection,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
        keep_alive: bool,
    ) -> std::io::Result<Response> {
        conn.write_request(&self.addr, method, path, body, keep_alive)?;
        conn.read_response()
    }

    fn request(
        &self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> Result<Response, ClientError> {
        let response = self.request_any(method, path, body)?;
        check_status(&response)?;
        Ok(response)
    }

    /// The transport half of [`ServeClient::request`]: one exchange,
    /// whatever the status — interpreting non-2xx is the caller's job.
    fn request_any(
        &self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> Result<Response, ClientError> {
        // A `?wait=1` / `?wait=true` request blocks until the job is
        // terminal; it gets a dedicated connection so it cannot pin the
        // pooled one. Decided by the same query parsing as the server's
        // `Request::wants_wait` — proxied targets (the gateway forwards
        // its caller's target verbatim) may carry `wait` in any position
        // and either spelling.
        let blocking = crate::http::target_wants_wait(path);
        if blocking || !self.reuse {
            let mut conn = self.connect(blocking)?;
            let response = self
                .exchange(&mut conn, method, path, body, false)
                .map_err(|e| ClientError::Io(e.to_string()))?;
            return Ok(response);
        }
        // Keep-alive path: try the pooled connection first, retrying
        // exactly once on a fresh connection when the pooled one has gone
        // stale. For idempotent methods (GET/DELETE) any pooled failure
        // is retried — re-asking is harmless. A non-idempotent request
        // (`POST /jobs` admits a job) is retried only when it provably
        // never reached the server's handler:
        //
        // * the write itself failed (the request never fully left), or
        // * the server closed cleanly before sending any response byte —
        //   it idle-closed the pooled connection without reading the
        //   request (this protocol's servers always answer a request they
        //   processed).
        //
        // Any later failure (read timeout, reset mid-response) may mean
        // the server is processing, or already processed, the request;
        // resending could then double-submit, so those surface as errors
        // instead. A fresh connection's failure is never retried — that
        // is a real error.
        let idempotent = matches!(method, "GET" | "DELETE");
        let mut pooled = self.pool.lock().expect("client pool").take();
        if pooled.is_some() && domino_failpoint::should_fire("serve.client.reuse") {
            // Injected stale pool: the kept-alive connection is dropped as
            // if the server had idle-closed it, forcing the fresh-connect
            // fallback below.
            pooled = None;
        }
        if let Some(mut conn) = pooled {
            match conn.write_request(&self.addr, method, path, body, true) {
                // Stale pool: fall through to a fresh connection.
                Err(_never_sent) => {}
                Ok(()) => match conn.read_response() {
                    Ok(response) => {
                        self.reuses.fetch_add(1, Ordering::Relaxed);
                        self.repool(conn, &response);
                        return Ok(response);
                    }
                    // Stale pool: fall through to a fresh connection.
                    Err(e) if idempotent || crate::http::closed_before_response(&e) => {}
                    Err(e) => return Err(ClientError::Io(format!("pooled connection: {e}"))),
                },
            }
        }
        let mut conn = self.connect(false)?;
        let response = self
            .exchange(&mut conn, method, path, body, true)
            .map_err(|e| ClientError::Io(e.to_string()))?;
        self.repool(conn, &response);
        Ok(response)
    }

    /// Proxy passthrough: one exchange returning the raw [`Response`]
    /// whatever its status — what `dominogw` uses to relay a backend's
    /// answer (success or error body) verbatim to its own caller. Rides
    /// the same kept-alive pool as the typed methods.
    ///
    /// # Errors
    ///
    /// Transport failures only ([`ClientError::Unreachable`] /
    /// [`ClientError::Io`]); an HTTP error status is a successful forward.
    pub fn forward(
        &self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> Result<Response, ClientError> {
        self.request_any(method, path, body)
    }

    /// Returns a connection to the pool iff the server agreed to keep it
    /// alive. Error responses (4xx/5xx) still ride keep-alive: the
    /// connection state is clean after any complete exchange.
    fn repool(&self, conn: HttpConnection, response: &Response) {
        if response.keeps_alive() {
            *self.pool.lock().expect("client pool") = Some(conn);
        }
    }

    fn request_json(
        &self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> Result<Json, ClientError> {
        let response = self.request(method, path, body)?;
        parse_body(&response)
    }

    /// `POST /jobs`: submits a spec, returning the admission reply.
    ///
    /// # Errors
    ///
    /// [`ClientError::Api`] with status 429 (and `retry_after`) when the
    /// queue is full, 400 for invalid specs, 503 while draining.
    pub fn submit(&self, spec: &JobSpec) -> Result<SubmitReply, ClientError> {
        let body = spec.to_json().serialize();
        let v = self.request_json("POST", "/jobs", Some(body.as_bytes()))?;
        SubmitReply::from_json(&v).map_err(|e| ClientError::Protocol(e.to_string()))
    }

    /// `POST /jobs?wait=1`: submit and wait in one round trip, returning
    /// the completed outcome as the engine's exact serialized JSON text —
    /// the cheapest warm-cache path (one round trip per job).
    ///
    /// # Errors
    ///
    /// Same as [`ServeClient::submit`] for admission, plus
    /// [`ClientError::Api`] with 502/409 if the job failed or was
    /// cancelled.
    pub fn run_sync(&self, spec: &JobSpec) -> Result<String, ClientError> {
        let body = spec.to_json().serialize();
        let response = self.request("POST", "/jobs?wait=1", Some(body.as_bytes()))?;
        response
            .text()
            .map_err(|e| ClientError::Protocol(e.to_string()))
    }

    /// `GET /jobs/:id`: the job's status document. With `wait`, blocks
    /// until the job is terminal.
    ///
    /// # Errors
    ///
    /// [`ClientError::Api`] with 404 for unknown jobs.
    pub fn status(&self, id: u64, wait: bool) -> Result<StatusReply, ClientError> {
        let path = format!("/jobs/{id}{}", if wait { "?wait=1" } else { "" });
        let v = self.request_json("GET", &path, None)?;
        StatusReply::from_json(&v).map_err(|e| ClientError::Protocol(e.to_string()))
    }

    /// `GET /jobs/:id/result`: the completed outcome as the engine's exact
    /// serialized JSON text. With `wait`, blocks until terminal.
    ///
    /// # Errors
    ///
    /// [`ClientError::Api`] with status 502 if the job failed, 409 if it
    /// was cancelled or is not finished.
    pub fn result(&self, id: u64, wait: bool) -> Result<String, ClientError> {
        let path = format!("/jobs/{id}/result{}", if wait { "?wait=1" } else { "" });
        let response = self.request("GET", &path, None)?;
        response
            .text()
            .map_err(|e| ClientError::Protocol(e.to_string()))
    }

    /// `GET /cache/peek/:key`: this node's cached outcome bytes for
    /// `key`, or `None` when it holds no entry (a 404 is the expected
    /// miss answer, not an error).
    ///
    /// # Errors
    ///
    /// Transport failures and non-404 API errors.
    pub fn cache_peek(&self, key: &str) -> Result<Option<String>, ClientError> {
        match self.request("GET", &format!("/cache/peek/{key}"), None) {
            Ok(response) => response
                .text()
                .map(Some)
                .map_err(|e| ClientError::Protocol(e.to_string())),
            Err(ClientError::Api { status: 404, .. }) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// `POST /cache/fill/:key`: hands this node an outcome computed
    /// elsewhere, warming its cache for `key`.
    ///
    /// # Errors
    ///
    /// [`ClientError::Api`] with 400 when the outcome does not match the
    /// key, 404 when the node runs without a cache.
    pub fn cache_fill(&self, key: &str, outcome_text: &str) -> Result<(), ClientError> {
        self.request(
            "POST",
            &format!("/cache/fill/{key}"),
            Some(outcome_text.as_bytes()),
        )
        .map(|_| ())
    }

    /// `GET /jobs/:id/events`: streams the job's lifecycle events,
    /// invoking `on_event` for each as it arrives, until the stream ends
    /// (terminal event or server drain).
    ///
    /// # Errors
    ///
    /// Transport, protocol (an undecodable event line), and API errors.
    pub fn events(
        &self,
        id: u64,
        mut on_event: impl FnMut(&EventRecord),
    ) -> Result<Vec<EventRecord>, ClientError> {
        // The event stream blocks between chunks for as long as the job
        // runs; no read timeout, and a dedicated connection — the server
        // closes it when the stream ends.
        let mut conn = self.connect(true)?;
        conn.write_request(
            &self.addr,
            "GET",
            &format!("/jobs/{id}/events"),
            None,
            false,
        )
        .map_err(|e| ClientError::Io(e.to_string()))?;
        let mut events = Vec::new();
        let mut pending = String::new();
        let mut parse_failure: Option<String> = None;
        let response = conn
            .read_response_streaming(|chunk| {
                pending.push_str(&String::from_utf8_lossy(chunk));
                while let Some(newline) = pending.find('\n') {
                    let line: String = pending.drain(..=newline).collect();
                    let line = line.trim();
                    if line.is_empty() {
                        continue;
                    }
                    match parse(line)
                        .map_err(|e| e.to_string())
                        .and_then(|v| EventRecord::from_json(&v).map_err(|e| e.to_string()))
                    {
                        Ok(event) => {
                            on_event(&event);
                            events.push(event);
                        }
                        // A line we cannot decode must not vanish silently —
                        // dropping (say) the terminal event would make the
                        // caller misread a finished job as unfinished.
                        Err(e) if parse_failure.is_none() => {
                            parse_failure = Some(format!("undecodable event '{line}': {e}"));
                        }
                        Err(_) => {}
                    }
                }
            })
            .map_err(|e| ClientError::Io(e.to_string()))?;
        check_status(&response)?;
        if let Some(failure) = parse_failure {
            return Err(ClientError::Protocol(failure));
        }
        Ok(events)
    }

    /// `DELETE /jobs/:id`: requests cancellation; returns the resulting
    /// status (queued jobs cancel immediately, running jobs stop at the
    /// flow's next stage boundary).
    ///
    /// # Errors
    ///
    /// [`ClientError::Api`] with 404 for unknown jobs.
    pub fn cancel(&self, id: u64) -> Result<StatusReply, ClientError> {
        let v = self.request_json("DELETE", &format!("/jobs/{id}"), None)?;
        StatusReply::from_json(&v).map_err(|e| ClientError::Protocol(e.to_string()))
    }

    /// `GET /metrics`.
    ///
    /// # Errors
    ///
    /// Transport and protocol errors.
    pub fn metrics(&self) -> Result<MetricsReply, ClientError> {
        let v = self.request_json("GET", "/metrics", None)?;
        MetricsReply::from_json(&v).map_err(|e| ClientError::Protocol(e.to_string()))
    }

    /// `GET /healthz`. Returns the raw health document.
    ///
    /// # Errors
    ///
    /// Transport and protocol errors.
    pub fn healthz(&self) -> Result<Json, ClientError> {
        self.request_json("GET", "/healthz", None)
    }

    /// `POST /shutdown`: asks the server to drain and exit.
    ///
    /// # Errors
    ///
    /// Transport and API errors.
    pub fn shutdown(&self) -> Result<(), ClientError> {
        self.request("POST", "/shutdown", None).map(|_| ())
    }
}

fn parse_body(response: &Response) -> Result<Json, ClientError> {
    let text = response
        .text()
        .map_err(|e| ClientError::Protocol(e.to_string()))?;
    parse(&text).map_err(|e| ClientError::Protocol(e.to_string()))
}

fn check_status(response: &Response) -> Result<(), ClientError> {
    if (200..300).contains(&response.status) {
        return Ok(());
    }
    let error = parse_body(response)
        .ok()
        .and_then(|v| ErrorReply::from_json(&v).ok())
        .map(|e| e.error)
        .unwrap_or_else(|| format!("(no error body, {} bytes)", response.body.len()));
    Err(ClientError::Api {
        status: response.status,
        error,
        retry_after: response.header("retry-after").and_then(|v| v.parse().ok()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{render_response, Request, RequestParser};
    use std::io::{Read, Write};
    use std::net::{Shutdown, TcpListener, TcpStream};

    /// A scripted server's side of one connection: reads with the
    /// server's parser, answers with the server's renderer, and leaves
    /// the raw socket to the script.
    struct FakeServer {
        stream: TcpStream,
        parser: RequestParser,
    }

    impl FakeServer {
        fn accept(listener: &TcpListener) -> FakeServer {
            let (stream, _) = listener.accept().unwrap();
            FakeServer {
                stream,
                parser: RequestParser::new(),
            }
        }

        fn read_request(&mut self) -> Request {
            loop {
                if let Some(request) = self.parser.try_next().unwrap() {
                    return request;
                }
                let mut buf = [0u8; 4096];
                let n = self.stream.read(&mut buf).unwrap();
                assert!(n > 0, "client closed mid-request");
                self.parser.feed(&buf[..n]);
            }
        }

        fn respond(&mut self, status: u16, headers: &[(&str, &str)], body: &[u8]) {
            let message = render_response(status, headers, body, true);
            self.stream.write_all(&message).unwrap();
        }
    }

    /// A stale pooled connection whose close the client observes as a
    /// clean EOF before any response byte is retried transparently, even
    /// for a non-idempotent POST — the server provably never read the
    /// request.
    #[test]
    fn pooled_post_is_retried_after_clean_eof_before_any_response_byte() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let client = ServeClient::new(addr);
        let server = std::thread::spawn(move || {
            // Exchange 1 primes the pool.
            let mut conn = FakeServer::accept(&listener);
            conn.read_request();
            conn.respond(200, &[], b"{}");
            // Idle-close the pooled connection: FIN without a response.
            // Only the write side, so the client's unread second request
            // drains instead of triggering a reset.
            conn.stream.shutdown(Shutdown::Write).unwrap();
            // The retry arrives on a fresh connection.
            let mut retry_conn = FakeServer::accept(&listener);
            let request = retry_conn.read_request();
            retry_conn.respond(200, &[], b"{\"retried\":true}");
            request
        });
        assert_eq!(
            client.forward("POST", "/jobs", Some(b"{}")).unwrap().status,
            200
        );
        let response = client.forward("POST", "/jobs", Some(b"{}")).unwrap();
        assert_eq!(response.body, b"{\"retried\":true}");
        let request = server.join().unwrap();
        assert_eq!(request.method, "POST");
        // Both answers came over connections that saw no prior response.
        assert_eq!(client.connection_reuses(), 0);
    }

    /// A pooled POST whose response *started* and then died must surface
    /// the failure instead of retrying: the server may have admitted the
    /// job, and a resend could double-submit it.
    #[test]
    fn pooled_post_failure_after_response_started_is_not_retried() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let client = ServeClient::new(addr);
        let server = std::thread::spawn(move || {
            let mut conn = FakeServer::accept(&listener);
            conn.read_request();
            conn.respond(200, &[], b"{}");
            // Second request: begin a response, then die mid-body.
            conn.read_request();
            conn.stream
                .write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 10\r\n\r\nabc")
                .unwrap();
            conn.stream.shutdown(Shutdown::Write).unwrap();
            // No retry may arrive: the listener must stay silent.
            listener.set_nonblocking(true).unwrap();
            std::thread::sleep(Duration::from_millis(100));
            assert!(
                listener.accept().is_err(),
                "a mid-response failure must not be retried"
            );
        });
        assert_eq!(
            client.forward("POST", "/jobs", Some(b"{}")).unwrap().status,
            200
        );
        let err = client.forward("POST", "/jobs", Some(b"{}")).unwrap_err();
        assert!(matches!(err, ClientError::Io(_)), "got {err:?}");
        server.join().unwrap();
    }

    /// The backoff schedule is a pure function of (seed, attempt): same
    /// inputs, same delays — a chaos run's timing reproduces exactly.
    #[test]
    fn retry_policy_delays_are_deterministic_and_honor_retry_after() {
        let policy = RetryPolicy {
            seed: 42,
            ..RetryPolicy::new(3)
        };
        for attempt in 0..4 {
            assert_eq!(
                policy.delay(attempt, None),
                policy.delay(attempt, None),
                "replaying attempt {attempt} gives the same delay"
            );
        }
        // Equal jitter: each delay lands in the upper half of its
        // exponentially growing window.
        let first = policy.delay(0, None);
        assert!(first >= Duration::from_millis(25) && first <= Duration::from_millis(50));
        let third = policy.delay(2, None);
        assert!(third >= Duration::from_millis(100) && third <= Duration::from_millis(200));
        // The computed backoff never exceeds its ceiling, however deep
        // the attempt counter gets.
        assert!(policy.delay(30, None) <= policy.max_delay);
        // Explicit server backpressure wins verbatim over the schedule.
        assert_eq!(policy.delay(5, Some(7)), Duration::from_secs(7));
        // The seed actually feeds the jitter.
        let seeded = |seed| RetryPolicy {
            seed,
            ..RetryPolicy::new(3)
        };
        assert_ne!(seeded(1).delay(0, None), seeded(2).delay(0, None));
    }

    /// Idempotent requests retry on ANY pooled failure — including the
    /// abrupt-close flavours (reset races) a clean idle close can
    /// degrade into.
    #[test]
    fn pooled_get_is_retried_after_abrupt_close() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let client = ServeClient::new(addr);
        let server = std::thread::spawn(move || {
            let mut conn = FakeServer::accept(&listener);
            conn.read_request();
            conn.respond(200, &[], b"{}");
            // Full close: depending on timing the client sees EOF or a
            // reset; a GET must survive either.
            drop(conn);
            let mut retry_conn = FakeServer::accept(&listener);
            retry_conn.read_request();
            retry_conn.respond(200, &[], b"{\"ok\":true}");
        });
        assert_eq!(client.forward("GET", "/metrics", None).unwrap().status, 200);
        let response = client.forward("GET", "/metrics", None).unwrap();
        assert_eq!(response.body, b"{\"ok\":true}");
        server.join().unwrap();
    }
}
