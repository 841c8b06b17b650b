//! `ServeClient`: the client half of the wire protocol, used by the
//! `dominoc` subcommands, the `dominogw` gateway, the integration tests
//! and the load harness.
//!
//! Every exchange, long-polls included, takes an idle kept-alive
//! connection from a small per-client stack or connects, and puts the
//! connection back when the reply keeps it alive. The read timeout
//! belongs to the exchange, not the connection: a long-poll
//! (`?wait=1`/`?wait=true` anywhere in the query string) waits as long
//! as its job queues and runs, so it has none; every other exchange has
//! the client's I/O timeout, or 30 s by default, so a wedged server
//! cannot hang the caller.
//!
//! A server may close an idle connection at any time, so a pooled
//! connection that has gone stale is replaced by a fresh one — but only
//! when the server cannot have answered the request (the write failed,
//! or the server closed before sending any response byte) or the method
//! is idempotent (GET, DELETE). A failure after that — a read timeout, a
//! reset mid-response — is surfaced as an error, because the server may
//! still be processing the request and a blind resend could
//! double-submit a job. Event streams take a fresh connection of their
//! own, which the server closes when the stream ends. Connection
//! failures are distinguished from job failures so the CLI can exit with
//! distinct codes: a refused/unreachable server is
//! [`ClientError::Unreachable`], a job that ran and failed is
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

/// A `dominod` client bound to one server address.
///
/// Cloning shares the idle connections: concurrent exchanges on clones
/// of one client each take an idle connection or open their own, and
/// each puts its connection back afterwards.
#[derive(Debug, Clone)]
pub struct ServeClient {
    addr: String,
    /// When set, bounds connect, writes and every read but a
    /// long-poll's — control-plane clients (probes, cache peering) use
    /// this so a half-up peer cannot stall them for the default 30 s read
    /// timeout.
    io_timeout: Option<Duration>,
    idle: Arc<Mutex<Vec<HttpConnection>>>,
    reuses: Arc<AtomicU64>,
}

/// Read timeout for an exchange that is not a long-poll, on a client
/// without an I/O timeout.
const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Idle kept-alive connections one client and its clones keep; a
/// connection put back on a full stack is closed. This covers the
/// concurrency that shares one client: `fleet_probe` drives a gateway
/// with 4 clients, so the gateway's client for one backend may carry 4
/// relays at once, and `gateway_mix` carries 2 per backend.
const IDLE_CONNECTIONS: usize = 8;

impl ServeClient {
    /// A client for the server at `addr` (e.g. `127.0.0.1:7171`) with no
    /// I/O timeout: connect and writes are unbounded, and every read but
    /// a long-poll's times out after 30 s.
    pub fn new(addr: impl Into<String>) -> Self {
        ServeClient {
            addr: addr.into(),
            io_timeout: None,
            idle: Arc::default(),
            reuses: Arc::default(),
        }
    }

    /// A client whose connect, writes and every read but a long-poll's
    /// are bounded by `timeout` — for control-plane traffic (health
    /// probes, cache peek/fill peering) that must stay fast even against
    /// a half-up peer that accepts TCP but never answers.
    ///
    /// ```
    /// use domino_serve::ServeClient;
    /// use std::time::Duration;
    ///
    /// let probe = ServeClient::with_io_timeout("127.0.0.1:7171", Duration::from_secs(2));
    /// assert_eq!(probe.addr(), "127.0.0.1:7171");
    /// ```
    pub fn with_io_timeout(addr: impl Into<String>, timeout: Duration) -> Self {
        ServeClient {
            io_timeout: Some(timeout),
            ..ServeClient::new(addr)
        }
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

    /// A fresh connection. The I/O timeout, if any, bounds the connect
    /// and every write; the connection has no read timeout, because each
    /// exchange sets its own.
    fn connect(&self) -> Result<HttpConnection, ClientError> {
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
        stream
            .set_write_timeout(self.io_timeout)
            .map_err(|e| ClientError::Io(e.to_string()))?;
        Ok(HttpConnection::new(stream))
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
        // A long-poll blocks until its job is terminal, so it waits
        // without a read timeout. Decided by the same query parsing as
        // the server's `Request::wants_wait` — proxied targets (the
        // gateway forwards its caller's target verbatim) may carry `wait`
        // in any position and either spelling.
        let read_timeout = if crate::http::target_wants_wait(path) {
            None
        } else {
            Some(self.io_timeout.unwrap_or(DEFAULT_READ_TIMEOUT))
        };
        // Try an idle connection first, retrying exactly once on a fresh
        // connection when it has gone stale. For idempotent methods
        // (GET/DELETE) any pooled failure is retried — re-asking is
        // harmless. A non-idempotent request (`POST /jobs` admits a job)
        // is retried only when the server cannot have answered it:
        //
        // * the write itself failed (the request never fully left), or
        // * the server closed cleanly before sending any response byte —
        //   it idle-closed the pooled connection without reading the
        //   request, or it died before answering, taking the request
        //   with it (a live server of this protocol always answers a
        //   request it read).
        //
        // Any later failure (read timeout, reset mid-response) may mean
        // the server is processing, or already processed, the request;
        // resending could then double-submit, so those surface as errors
        // instead. A fresh connection's failure is never retried — that
        // is a real error.
        let idempotent = matches!(method, "GET" | "DELETE");
        let send = |conn: &mut HttpConnection| {
            conn.set_read_timeout(read_timeout)
                .and_then(|()| conn.write_request(&self.addr, method, path, body, true))
        };
        let mut pooled = self.idle.lock().expect("client pool").pop();
        if pooled.is_some() && domino_failpoint::should_fire("serve.client.reuse") {
            // Injected stale pool: the kept-alive connection is dropped as
            // if the server had idle-closed it, forcing the fresh-connect
            // fallback below.
            pooled = None;
        }
        if let Some(mut conn) = pooled {
            match send(&mut conn) {
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
        let mut conn = self.connect()?;
        let response = send(&mut conn)
            .and_then(|()| conn.read_response())
            .map_err(|e| ClientError::Io(e.to_string()))?;
        self.repool(conn, &response);
        Ok(response)
    }

    /// Proxy passthrough: one exchange returning the raw [`Response`]
    /// whatever its status — what `dominogw` uses to relay a backend's
    /// answer (success or error body) verbatim to its own caller. Rides
    /// the same kept-alive connections as the typed methods.
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

    /// Puts a connection back on the idle stack iff the server agreed to
    /// keep it alive and the stack has room. Error responses (4xx/5xx)
    /// still ride keep-alive: the connection state is clean after any
    /// complete exchange.
    fn repool(&self, conn: HttpConnection, response: &Response) {
        if response.keeps_alive() {
            let mut idle = self.idle.lock().expect("client pool");
            if idle.len() < IDLE_CONNECTIONS {
                idle.push(conn);
            }
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
        // runs: a fresh connection with no read timeout, which the server
        // closes when the stream ends. A stream that fails midway is
        // reported, never replayed.
        let mut conn = self.connect()?;
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
        /// Accepts the next connection. Its reads time out, so a script
        /// whose client went elsewhere fails instead of hanging.
        fn accept(listener: &TcpListener) -> FakeServer {
            let (stream, _) = listener.accept().unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
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
    /// request. A long-poll follows the same rule.
    #[test]
    fn pooled_post_is_retried_after_clean_eof_before_any_response_byte() {
        for target in ["/jobs", "/jobs?wait=1"] {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            let client = ServeClient::new(addr);
            let server = std::thread::spawn(move || {
                // Exchange 1 primes the pool.
                let mut conn = FakeServer::accept(&listener);
                conn.read_request();
                conn.respond(200, &[], b"{}");
                // Idle-close the pooled connection: FIN without a
                // response. Only the write side, so the client's unread
                // second request drains instead of triggering a reset.
                conn.stream.shutdown(Shutdown::Write).unwrap();
                // The retry arrives on a fresh connection.
                let mut retry_conn = FakeServer::accept(&listener);
                let request = retry_conn.read_request();
                retry_conn.respond(200, &[], b"{\"retried\":true}");
                request
            });
            assert_eq!(
                client.forward("POST", target, Some(b"{}")).unwrap().status,
                200
            );
            let response = client.forward("POST", target, Some(b"{}")).unwrap();
            assert_eq!(response.body, b"{\"retried\":true}", "{target}");
            let request = server.join().unwrap();
            assert_eq!(request.method, "POST", "{target}");
            assert_eq!(request.target(), target);
            // Both answers came over connections that saw no prior response.
            assert_eq!(client.connection_reuses(), 0, "{target}");
        }
    }

    /// Long-polls ride the kept-alive connection like any other
    /// exchange: two `?wait=1` submits share one accepted connection.
    #[test]
    fn long_polls_reuse_the_kept_alive_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = ServeClient::new(listener.local_addr().unwrap().to_string());
        let server = std::thread::spawn(move || {
            let mut conn = FakeServer::accept(&listener);
            for _ in 0..2 {
                assert!(conn.read_request().wants_wait());
                conn.respond(200, &[], b"{}");
            }
            listener.set_nonblocking(true).unwrap();
            assert!(listener.accept().is_err(), "a second connection opened");
        });
        for _ in 0..2 {
            let response = client.forward("POST", "/jobs?wait=1", Some(b"{}"));
            assert_eq!(response.unwrap().status, 200);
        }
        server.join().unwrap();
        assert_eq!(client.connection_reuses(), 1);
    }

    /// The read timeout belongs to the exchange, not the connection: on
    /// one pooled connection a long-poll outwaits the client's I/O
    /// timeout, and the plain GET after it does not.
    #[test]
    fn read_timeout_belongs_to_the_exchange() {
        let io_timeout = Duration::from_millis(100);
        let delay = 3 * io_timeout;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let client = ServeClient::with_io_timeout(addr, io_timeout);
        let server = std::thread::spawn(move || {
            let mut conn = FakeServer::accept(&listener);
            conn.read_request();
            conn.respond(200, &[], b"{}");
            conn.read_request();
            std::thread::sleep(delay);
            conn.respond(200, &[], b"{\"waited\":true}");
            // The GET times out on the pooled connection and, being
            // idempotent, once more on a fresh one; both answers come
            // as late, to clients that have left.
            conn.read_request();
            let mut retry_conn = FakeServer::accept(&listener);
            retry_conn.read_request();
            std::thread::sleep(delay);
            for late in [conn, retry_conn] {
                let mut stream = late.stream;
                let _ = stream.write_all(&render_response(200, &[], b"{}", true));
            }
        });
        client.forward("GET", "/healthz", None).unwrap();
        let response = client.forward("POST", "/jobs?wait=1", Some(b"{}"));
        assert_eq!(response.unwrap().body, b"{\"waited\":true}");
        assert_eq!(client.connection_reuses(), 1, "the long-poll was pooled");
        let err = client.forward("GET", "/metrics", None).unwrap_err();
        assert!(matches!(err, ClientError::Io(_)), "got {err:?}");
        server.join().unwrap();
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
