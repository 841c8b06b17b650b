//! The event-driven connection front shared by `dominod` and `dominogw`.
//!
//! One reactor thread multiplexes every socket over
//! [`domino_reactor::Poller`] (epoll readiness), so a kept-alive
//! connection costs a socket, not an OS thread — thousands of clients
//! stay cheap. The wire codec lives in [`crate::http`]: the reactor
//! parses with [`RequestParser`] and writes the [`render_response`]
//! family's bytes.
//!
//! # Shape
//!
//! ```text
//!              ┌────────────────────────────┐   (Request, Responder)
//!   sockets ──►│ reactor thread             ├──► handler pool (route())
//!              │  poll / parse / flush      │◄── Op queue + waker
//!              │  timer wheel (idle)        │      Responder::respond
//!              └────────────────────────────┘      StreamHandle::chunk
//! ```
//!
//! The reactor owns every socket. Parsed requests are handed to a small
//! handler pool; handlers never touch the socket — they answer through a
//! [`Responder`] (or a [`StreamHandle`] for chunked `/events` replies),
//! which enqueues an op and wakes the reactor. Because a `Responder` is
//! `Send + 'static`, a handler may also park it and return immediately —
//! whichever thread later has the answer responds — so long-polls
//! (`?wait=1`) hold no thread at all.
//!
//! One request is in flight per connection at a time; read interest is
//! dropped while a response is pending, and responses flush strictly in
//! order, so pipelined clients get their answers in request order.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use domino_reactor::{Interest, Poller, TimerWheel, WakeHandle, Waker};

use crate::http::{
    render_chunk, render_chunk_end, render_chunked_head, render_response, Request, RequestParser,
};
use crate::protocol::{ErrorReply, ReactorCounters};

/// Token of the accept socket in the poller.
const LISTENER_TOKEN: u64 = 0;
/// Token of the wake pipe in the poller.
const WAKER_TOKEN: u64 = 1;
/// First token handed to an accepted connection. Tokens are monotonic
/// and never reused, so a stale timer or op for a closed connection
/// simply misses the map.
const FIRST_CONN_TOKEN: u64 = 2;

/// Idle-timeout granularity of the timer wheel.
const TIMER_TICK: Duration = Duration::from_millis(10);
/// Slot count of the timer wheel.
const TIMER_SLOTS: usize = 512;
/// How long a draining reactor waits for in-flight connections before
/// force-closing them.
const DRAIN_GRACE: Duration = Duration::from_secs(10);
/// Per-`read(2)` buffer size.
const READ_CHUNK: usize = 16 * 1024;
/// Most bytes one `read_ready` invocation consumes from a single
/// connection. Level-triggered polling picks the remainder up on the
/// next wait, so the cap costs nothing — but it keeps one fire-hosing
/// client from monopolizing the reactor thread or stacking requests in
/// its parser beyond the one the server is willing to hold.
const READ_BUDGET: usize = 4 * READ_CHUNK;

/// The body sent with a `400` on an unparseable request.
const MALFORMED: &[u8] = b"{\"error\":\"malformed request\"}";
/// The body sent with the `503` that answers an accept beyond
/// `max_connections`.
const OVER_CAPACITY: &[u8] = b"{\"error\":\"connection limit reached\"}";

/// Threads in the handler pool. Routing is cheap on both servers: jobs run
/// on `dominod`'s workers, a waiting request is parked, and a gateway
/// relay gets its own thread — so a handful is plenty.
const HANDLER_THREADS: usize = 4;

/// The connection limits of one [`HttpFront`]: the `--idle-ms`,
/// `--max-requests` and `--max-connections` flags of `dominod` and
/// `dominogw` alike (see [`crate::config::connection_flags`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontConfig {
    /// Milliseconds a connection may sit with no complete request before
    /// the reactor closes it.
    pub idle_timeout_ms: u64,
    /// Requests served on one connection before the server forces
    /// `Connection: close`.
    pub max_requests_per_connection: u32,
    /// Open connections before further accepts are answered with a `503`
    /// and an immediate close.
    pub max_connections: usize,
}

impl Default for FrontConfig {
    fn default() -> Self {
        FrontConfig {
            idle_timeout_ms: 10_000,
            max_requests_per_connection: 1024,
            max_connections: crate::config::DEFAULT_MAX_CONNECTIONS,
        }
    }
}

/// The request handler: called on a pool thread with each parsed request
/// and the [`Responder`] that answers it.
pub type FrontHandler = Arc<dyn Fn(Request, Responder) + Send + Sync>;

/// An op enqueued by a [`Responder`]/[`StreamHandle`] for the reactor.
enum Op {
    /// A complete fixed-length response.
    Respond {
        token: u64,
        status: u16,
        headers: Vec<(String, String)>,
        body: Vec<u8>,
        force_close: bool,
    },
    /// The head of a chunked stream (always `Connection: close`).
    StreamBegin { token: u64, status: u16 },
    /// One chunk of an open stream.
    StreamChunk { token: u64, data: Vec<u8> },
    /// The terminating zero-length chunk; the connection closes after
    /// the flush.
    StreamEnd { token: u64 },
    /// Abandon the connection without a terminal chunk (a relay that
    /// died mid-stream has nothing truthful left to say).
    Abort { token: u64 },
}

/// State shared between the reactor thread and everyone holding a
/// [`Responder`], [`StreamHandle`] or [`FrontHandle`].
struct FrontShared {
    ops: Mutex<VecDeque<Op>>,
    wake: WakeHandle,
    /// Tokens of currently-open connections — lets the holder of a
    /// parked [`Responder`] or [`StreamHandle`] notice a dead client
    /// without writing to it.
    live: Mutex<HashSet<u64>>,
    draining: AtomicBool,
    open_connections: AtomicU64,
    accepts: AtomicU64,
    timeouts: AtomicU64,
}

impl FrontShared {
    /// Enqueues `op` for the reactor. A [`Responder`]'s drop calls this
    /// while a panicking handler unwinds, where a second panic would abort
    /// the process, so a poisoned lock is recovered: the queue is valid
    /// after every push and pop.
    fn push(&self, op: Op) {
        self.ops
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push_back(op);
        self.wake.wake();
    }

    fn is_live(&self, token: u64) -> bool {
        self.live.lock().expect("live lock").contains(&token)
    }
}

/// The single-use reply channel for one request. Consuming it enqueues
/// the response with the reactor. Dropping it unanswered — a handler
/// that panicked or returned early — answers `500` and closes the
/// connection, so no client waits on a request nobody will answer.
pub struct Responder {
    token: u64,
    shared: Arc<FrontShared>,
    /// Cleared once the request is answered; a drop while set sends the
    /// `500`.
    armed: bool,
}

impl std::fmt::Debug for Responder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Responder")
            .field("token", &self.token)
            .finish()
    }
}

impl Responder {
    /// Answers with a fixed-length response. The reactor decides the
    /// `Connection` header from the request's wishes, the per-connection
    /// request budget and drain state.
    pub fn respond(mut self, status: u16, extra_headers: &[(&str, &str)], body: &[u8]) {
        self.finish_with(status, extra_headers, body, false);
    }

    /// Answers and unconditionally closes the connection afterwards
    /// (`POST /shutdown`'s goodbye, protocol-fatal errors).
    pub fn respond_close(mut self, status: u16, extra_headers: &[(&str, &str)], body: &[u8]) {
        self.finish_with(status, extra_headers, body, true);
    }

    /// Starts a chunked-transfer response (always `Connection: close`)
    /// and returns the handle that feeds it.
    pub fn begin_stream(mut self, status: u16) -> StreamHandle {
        self.armed = false;
        self.shared.push(Op::StreamBegin {
            token: self.token,
            status,
        });
        StreamHandle {
            token: self.token,
            shared: Arc::clone(&self.shared),
            finished: false,
        }
    }

    /// Answers with an [`ErrorReply`] body carrying `message`.
    pub fn error(self, status: u16, message: &str) {
        let body = ErrorReply::new(message).to_json().serialize();
        self.respond(status, &[], body.as_bytes());
    }

    /// `false` once the reactor has closed this connection — a parked
    /// long-poll can be dropped instead of answered.
    pub fn is_live(&self) -> bool {
        self.shared.is_live(self.token)
    }

    fn finish_with(&mut self, status: u16, headers: &[(&str, &str)], body: &[u8], close: bool) {
        self.armed = false;
        self.shared.push(Op::Respond {
            token: self.token,
            status,
            headers: headers
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            body: body.to_vec(),
            force_close: close,
        });
    }
}

impl Drop for Responder {
    fn drop(&mut self) {
        if self.armed {
            let body = ErrorReply::new("the request was not answered").to_json();
            self.finish_with(500, &[], body.serialize().as_bytes(), true);
        }
    }
}

/// An open chunked stream. Dropping it without [`StreamHandle::finish`]
/// aborts the connection: the client sees a truncated stream with no
/// terminating chunk, which is how a relay reports a backend that died
/// mid-stream.
pub struct StreamHandle {
    token: u64,
    shared: Arc<FrontShared>,
    finished: bool,
}

impl std::fmt::Debug for StreamHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamHandle")
            .field("token", &self.token)
            .field("finished", &self.finished)
            .finish()
    }
}

impl StreamHandle {
    /// Enqueues one chunk. Empty data is skipped — an empty chunk would
    /// terminate the stream.
    pub fn chunk(&mut self, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        self.shared.push(Op::StreamChunk {
            token: self.token,
            data: data.to_vec(),
        });
    }

    /// Writes the terminating chunk and closes the connection.
    pub fn finish(mut self) {
        self.finished = true;
        self.shared.push(Op::StreamEnd { token: self.token });
    }

    /// `false` once the client is gone — the feeder should stop.
    pub fn is_live(&self) -> bool {
        self.shared.is_live(self.token)
    }
}

impl Drop for StreamHandle {
    fn drop(&mut self) {
        if !self.finished {
            self.shared.push(Op::Abort { token: self.token });
        }
    }
}

/// A cloneable control handle onto a running [`HttpFront`].
#[derive(Clone)]
pub struct FrontHandle {
    shared: Arc<FrontShared>,
}

impl std::fmt::Debug for FrontHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrontHandle").finish()
    }
}

impl FrontHandle {
    /// Starts the drain: the listener closes, idle connections close
    /// now, in-flight ones finish their response and close. The
    /// [`HttpFront::run`] call returns once every connection is gone
    /// (force-closing stragglers after a grace period).
    pub fn shutdown(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.wake.wake();
    }

    /// `true` once [`FrontHandle::shutdown`] has been called.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// A snapshot of the reactor's counters for `/metrics`.
    pub fn counters(&self) -> ReactorCounters {
        ReactorCounters {
            open_connections: self.shared.open_connections.load(Ordering::SeqCst),
            accepts: self.shared.accepts.load(Ordering::SeqCst),
            timeouts: self.shared.timeouts.load(Ordering::SeqCst),
        }
    }
}

/// A bound, not-yet-running connection front. [`HttpFront::bind`] sets
/// up the poller; [`HttpFront::run`] (typically on a dedicated thread)
/// loops until drained.
pub struct HttpFront {
    listener: TcpListener,
    name: &'static str,
    cfg: FrontConfig,
    poller: Poller,
    waker: Waker,
    shared: Arc<FrontShared>,
}

impl std::fmt::Debug for HttpFront {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpFront").field("cfg", &self.cfg).finish()
    }
}

impl HttpFront {
    /// Wraps an already-bound listener in a reactor front; `name`
    /// (`dominod`, `dominogw`) prefixes its handler threads' names.
    ///
    /// # Errors
    ///
    /// [`io::Error`] creating the epoll instance or wake pipe.
    pub fn bind(
        listener: TcpListener,
        name: &'static str,
        cfg: FrontConfig,
    ) -> io::Result<HttpFront> {
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        let waker = Waker::new()?;
        poller.add(&listener, LISTENER_TOKEN, Interest::READABLE)?;
        poller.add(&waker, WAKER_TOKEN, Interest::READABLE)?;
        let shared = Arc::new(FrontShared {
            ops: Mutex::new(VecDeque::new()),
            wake: waker.handle()?,
            live: Mutex::new(HashSet::new()),
            draining: AtomicBool::new(false),
            open_connections: AtomicU64::new(0),
            accepts: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
        });
        Ok(HttpFront {
            listener,
            name,
            cfg,
            poller,
            waker,
            shared,
        })
    }

    /// The control handle (cloneable; give one to the shutdown path and
    /// one to `/metrics`).
    pub fn handle(&self) -> FrontHandle {
        FrontHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Runs the reactor until drained. Spawns the handler pool, owns
    /// every socket, and joins the pool before returning.
    ///
    /// # Errors
    ///
    /// [`io::Error`] from `epoll_wait` or handler-thread spawning;
    /// per-connection I/O errors close that connection only.
    pub fn run(self, handler: FrontHandler) -> io::Result<()> {
        let HttpFront {
            listener,
            name,
            cfg,
            poller,
            waker,
            shared,
        } = self;

        let (tx, rx) = mpsc::channel::<(Request, Responder)>();
        let rx = Arc::new(Mutex::new(rx));
        let mut pool = Vec::new();
        for i in 0..HANDLER_THREADS {
            let rx = Arc::clone(&rx);
            let handler = Arc::clone(&handler);
            pool.push(
                std::thread::Builder::new()
                    .name(format!("{name}-handler-{i}"))
                    .spawn(move || loop {
                        let job = {
                            let guard = rx.lock().expect("handler rx lock");
                            guard.recv()
                        };
                        // A panicking handler costs its client a 500 (the
                        // responder's drop sends it) and never this thread.
                        match job {
                            Ok((request, responder)) => {
                                let call = AssertUnwindSafe(|| handler(request, responder));
                                let _ = std::panic::catch_unwind(call);
                            }
                            Err(_) => break,
                        }
                    })?,
            );
        }

        let mut reactor = Reactor {
            cfg,
            poller,
            shared,
            conns: HashMap::new(),
            wheel: TimerWheel::new(TIMER_TICK, TIMER_SLOTS),
            tx,
            next_token: FIRST_CONN_TOKEN,
        };
        let result = reactor.run(&listener, &waker);
        // Closing the dispatch channel ends idle pool threads. They are
        // detached, not joined: a gateway handler can sit in a blocking
        // relay against a hung backend, and the drain must stay bounded
        // — the reactor has already force-closed that handler's client.
        drop(reactor);
        drop(pool);
        result
    }
}

/// Per-connection dispatch state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Between requests: read interest armed, idle timer running.
    Idle,
    /// A request was handed to the pool; its response has not been
    /// enqueued yet. Read interest is dropped.
    InFlight,
    /// A chunked stream is open on this connection.
    Streaming,
}

struct Conn {
    stream: TcpStream,
    parser: RequestParser,
    out: Vec<u8>,
    out_pos: usize,
    state: ConnState,
    served: u32,
    req_wants_close: bool,
    close_after_flush: bool,
    /// The peer half-closed (EPOLLRDHUP) while a request was in flight.
    /// No further request can arrive, so the pending response (if its
    /// handler still answers) is the connection's last; the idle timer
    /// is re-armed as a bound in case the handler never does. Once set,
    /// the connection re-registers without RDHUP interest — re-reporting
    /// a known half-close every level-triggered wait is a busy loop.
    peer_half_closed: bool,
    /// Bumped on every (re)arm/cancel; a timer firing with a stale seq
    /// is ignored — lazy cancellation.
    timer_seq: u64,
    interest: Interest,
}

struct Reactor {
    cfg: FrontConfig,
    poller: Poller,
    shared: Arc<FrontShared>,
    conns: HashMap<u64, Conn>,
    wheel: TimerWheel,
    tx: mpsc::Sender<(Request, Responder)>,
    next_token: u64,
}

impl Reactor {
    fn run(&mut self, listener: &TcpListener, waker: &Waker) -> io::Result<()> {
        let mut events = Vec::new();
        let mut fired: Vec<(u64, u64)> = Vec::new();
        let mut listener_registered = true;
        let mut drain_deadline: Option<Instant> = None;

        loop {
            let draining = self.shared.draining.load(Ordering::SeqCst);
            if draining && drain_deadline.is_none() {
                drain_deadline = Some(Instant::now() + DRAIN_GRACE);
                if listener_registered {
                    let _ = self.poller.delete(listener);
                    listener_registered = false;
                }
                // Idle connections with nothing left to flush have been
                // told `keep-alive`, but a draining server gets to renege
                // — the client's next request would be refused anyway.
                let idle: Vec<u64> = self
                    .conns
                    .iter()
                    .filter(|(_, c)| c.state == ConnState::Idle && c.out.len() == c.out_pos)
                    .map(|(t, _)| *t)
                    .collect();
                for token in idle {
                    self.close_conn(token);
                }
            }
            if draining && self.conns.is_empty() {
                return Ok(());
            }
            if let Some(deadline) = drain_deadline {
                if Instant::now() >= deadline {
                    let all: Vec<u64> = self.conns.keys().copied().collect();
                    for token in all {
                        self.close_conn(token);
                    }
                    return Ok(());
                }
            }

            loop {
                let op = self.shared.ops.lock().expect("ops lock").pop_front();
                match op {
                    Some(op) => self.apply(op),
                    None => break,
                }
            }

            let timeout = if self.conns.is_empty() && drain_deadline.is_none() {
                None // nothing to time out; ops and accepts wake us
            } else {
                Some(Duration::from_millis(25))
            };
            self.poller.wait(&mut events, timeout)?;
            for ev in std::mem::take(&mut events) {
                match ev.token {
                    WAKER_TOKEN => waker.drain(),
                    LISTENER_TOKEN => self.accept_ready(listener),
                    token => self.conn_event(token, ev.readable, ev.writable, ev.hangup, ev.error),
                }
            }

            self.wheel.advance(Instant::now(), &mut fired);
            for (token, seq) in fired.drain(..) {
                // An idle connection past its deadline, or a half-closed
                // one whose response never came — both are reaped.
                let expired = self.conns.get(&token).is_some_and(|c| {
                    c.timer_seq == seq && (c.state == ConnState::Idle || c.peer_half_closed)
                });
                if expired {
                    self.shared.timeouts.fetch_add(1, Ordering::SeqCst);
                    self.close_conn(token);
                }
            }
        }
    }

    fn accept_ready(&mut self, listener: &TcpListener) {
        loop {
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            };
            self.shared.accepts.fetch_add(1, Ordering::SeqCst);
            if domino_failpoint::should_fire("serve.http.accept") {
                continue; // injected accept fault: drop the socket
            }
            if self.shared.draining.load(Ordering::SeqCst) {
                continue;
            }
            if self.conns.len() >= self.cfg.max_connections.max(1) {
                // Best-effort 503 so the client learns why; a full send
                // buffer just means they get a bare close instead.
                let _ = stream.set_nonblocking(true);
                let goodbye = render_response(503, &[("retry-after", "1")], OVER_CAPACITY, false);
                let _ = (&stream).write(&goodbye);
                continue;
            }
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let token = self.next_token;
            self.next_token += 1;
            if self.poller.add(&stream, token, Interest::READABLE).is_err() {
                continue;
            }
            self.conns.insert(
                token,
                Conn {
                    stream,
                    parser: RequestParser::new(),
                    out: Vec::new(),
                    out_pos: 0,
                    state: ConnState::Idle,
                    served: 0,
                    req_wants_close: false,
                    close_after_flush: false,
                    peer_half_closed: false,
                    timer_seq: 0,
                    interest: Interest::READABLE,
                },
            );
            self.shared.live.lock().expect("live lock").insert(token);
            self.shared.open_connections.fetch_add(1, Ordering::SeqCst);
            self.enter_idle(token);
        }
    }

    fn conn_event(
        &mut self,
        token: u64,
        readable: bool,
        writable: bool,
        hangup: bool,
        error: bool,
    ) {
        if !self.conns.contains_key(&token) {
            return; // closed earlier in this batch
        }
        if error {
            self.close_conn(token);
            return;
        }
        if writable {
            self.flush(token);
        }
        if !self.conns.contains_key(&token) {
            return;
        }
        let state = self.conns[&token].state;
        if readable || (hangup && state == ConnState::Idle) {
            // A half-close between requests is a goodbye: the read below
            // sees EOF.
            self.read_ready(token);
        }
        if !hangup {
            return;
        }
        match self.conns.get(&token).map(|c| c.state) {
            // The stream's consumer is gone; drop the connection so the
            // feeder observes `!is_live()` and stops.
            Some(ConnState::Streaming) => self.close_conn(token),
            // A half-close with a request in flight: the client may still
            // be reading, so the pending response is served and then the
            // connection closes — but note the hangup exactly once (and
            // drop RDHUP interest), or the level-triggered poller would
            // re-report it every wait and spin the reactor for as long as
            // the handler takes to answer. The re-armed idle timer bounds
            // a handler that never does (a parked long-poll whose client
            // vanished): the close flips `is_live()` false, so the waiter
            // is dropped unanswered.
            Some(ConnState::InFlight) => {
                let conn = self.conns.get_mut(&token).expect("state just read");
                if !conn.peer_half_closed {
                    conn.peer_half_closed = true;
                    self.arm_idle_timer(token);
                    self.sync_interest(token);
                }
            }
            Some(ConnState::Idle) | None => {}
        }
    }

    /// Reads from `token` until a complete request parses, the socket
    /// runs dry, or [`READ_BUDGET`] is spent (level-triggered polling
    /// resumes where we stopped). Stopping at one parsed request keeps
    /// the protocol invariant that a peer can never force the server to
    /// hold more than one parsed request — pipelined extras stay in the
    /// kernel's socket buffer, throttled by TCP flow control.
    fn read_ready(&mut self, token: u64) {
        let mut buf = [0u8; READ_CHUNK];
        let mut consumed = 0usize;
        let mut progressed = false;
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.state != ConnState::Idle {
                return; // a request is in flight; its response gates reads
            }
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    // EOF. Mid-request bytes die with the connection: a
                    // clean close, not a malformed request.
                    self.close_conn(token);
                    return;
                }
                Ok(n) => {
                    conn.parser.feed(&buf[..n]);
                    progressed = true;
                    consumed += n;
                    match conn.parser.try_next() {
                        Err(_) => {
                            self.refuse_malformed(token);
                            return;
                        }
                        Ok(Some(request)) => {
                            self.dispatch(token, request);
                            return;
                        }
                        Ok(None) => {}
                    }
                    if consumed >= READ_BUDGET {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(token);
                    return;
                }
            }
        }
        if progressed {
            // Partial-request activity pushes the idle deadline.
            self.arm_idle_timer(token);
        }
    }

    fn apply(&mut self, op: Op) {
        match op {
            Op::Respond {
                token,
                status,
                headers,
                body,
                force_close,
            } => {
                if !self.conns.contains_key(&token) {
                    return; // client left before the answer was ready
                }
                // An injected write error once the response has started:
                // the status line goes out, then the connection closes.
                let write_fails = domino_failpoint::should_fire("serve.http.write");
                let draining = self.shared.draining.load(Ordering::SeqCst);
                let conn = self.conns.get_mut(&token).expect("checked above");
                let keep_alive = !write_fails
                    && !force_close
                    && !draining
                    && conn.served < self.cfg.max_requests_per_connection.max(1)
                    && !conn.req_wants_close
                    // A half-closed peer can send no further request:
                    // this response is the connection's last.
                    && !conn.peer_half_closed;
                let header_refs: Vec<(&str, &str)> = headers
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.as_str()))
                    .collect();
                let mut message = render_response(status, &header_refs, &body, keep_alive);
                if write_fails {
                    let status_line_end = message.iter().position(|&b| b == b'\n');
                    message.truncate(status_line_end.map_or(0, |i| i + 1));
                }
                conn.out.extend_from_slice(&message);
                conn.close_after_flush = !keep_alive;
                conn.state = ConnState::Idle;
                if keep_alive {
                    self.enter_idle(token);
                }
                self.flush(token);
            }
            Op::StreamBegin { token, status } => {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return;
                };
                conn.out.extend_from_slice(&render_chunked_head(status));
                conn.state = ConnState::Streaming;
                // Cancel a half-close reaper: the handler is alive and
                // feeding. A consumer that fully vanishes surfaces as a
                // chunk-write failure (or EPOLLERR) and closes then.
                conn.timer_seq += 1;
                self.flush(token);
            }
            Op::StreamChunk { token, data } => {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return;
                };
                if conn.state != ConnState::Streaming {
                    return;
                }
                conn.out.extend_from_slice(&render_chunk(&data));
                self.flush(token);
            }
            Op::StreamEnd { token } => {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return;
                };
                if conn.state != ConnState::Streaming {
                    return;
                }
                conn.out.extend_from_slice(render_chunk_end());
                conn.close_after_flush = true;
                self.flush(token);
            }
            Op::Abort { token } => {
                if self.conns.contains_key(&token) {
                    self.flush(token); // push out already-queued chunks
                    self.close_conn(token);
                }
            }
        }
    }

    /// Entered between requests: runs the read failpoint, then either
    /// dispatches a pipelined request already in the parser or arms read
    /// interest and the idle timer.
    fn enter_idle(&mut self, token: u64) {
        if domino_failpoint::should_fire("serve.http.read") {
            self.refuse_malformed(token);
            return;
        }
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        match conn.parser.try_next() {
            Err(_) => self.refuse_malformed(token),
            Ok(Some(request)) => self.dispatch(token, request),
            Ok(None) => {
                self.arm_idle_timer(token);
                self.sync_interest(token);
            }
        }
    }

    /// Injected read faults and truly malformed bytes get the same `400`
    /// and a close.
    fn refuse_malformed(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.out
            .extend_from_slice(&render_response(400, &[], MALFORMED, false));
        conn.close_after_flush = true;
        conn.state = ConnState::Idle;
        conn.timer_seq += 1; // cancel the idle timer
        self.flush(token);
    }

    fn dispatch(&mut self, token: u64, request: Request) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.served += 1;
        conn.req_wants_close = request.wants_close();
        conn.state = ConnState::InFlight;
        conn.timer_seq += 1; // no idle timeout while a handler owns it
        self.sync_interest(token);
        let responder = Responder {
            token,
            shared: Arc::clone(&self.shared),
            armed: true,
        };
        // Send fails only once the pool is gone, i.e. during teardown.
        let _ = self.tx.send((request, responder));
    }

    fn arm_idle_timer(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.timer_seq += 1;
        let seq = conn.timer_seq;
        let deadline = Instant::now() + Duration::from_millis(self.cfg.idle_timeout_ms.max(1));
        self.wheel.schedule(token, seq, deadline);
    }

    /// Writes as much buffered output as the socket accepts right now.
    fn flush(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.out_pos >= conn.out.len() {
                conn.out.clear();
                conn.out_pos = 0;
                if conn.close_after_flush {
                    self.close_conn(token);
                } else {
                    self.sync_interest(token);
                }
                return;
            }
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    self.close_conn(token);
                    return;
                }
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.sync_interest(token);
                    return;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(token);
                    return;
                }
            }
        }
    }

    /// Re-registers the connection for exactly the readiness it needs:
    /// readable only between requests, writable only with queued output.
    fn sync_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let desired = Interest {
            readable: conn.state == ConnState::Idle && !conn.close_after_flush,
            writable: conn.out_pos < conn.out.len(),
            // A noted half-close must leave the mask, or the level-
            // triggered poller re-reports it forever (see
            // `Conn::peer_half_closed`).
            rdhup: !conn.peer_half_closed,
        };
        if desired != conn.interest && self.poller.modify(&conn.stream, token, desired).is_ok() {
            conn.interest = desired;
        }
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.delete(&conn.stream);
            self.shared.live.lock().expect("live lock").remove(&token);
            self.shared.open_connections.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpStream as BlockingStream;

    fn start_echo_front(
        idle_timeout: Duration,
        max_requests: u32,
        max_connections: usize,
    ) -> (
        std::net::SocketAddr,
        FrontHandle,
        std::thread::JoinHandle<()>,
    ) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let front = HttpFront::bind(
            listener,
            "front-test",
            FrontConfig {
                idle_timeout_ms: idle_timeout.as_millis() as u64,
                max_requests_per_connection: max_requests,
                max_connections,
            },
        )
        .expect("front");
        let handle = front.handle();
        let join = std::thread::spawn(move || {
            front
                .run(Arc::new(|req: Request, responder: Responder| {
                    if req.path == "/boom" {
                        panic!("the handler panics on /boom");
                    }
                    if req.path == "/stream" {
                        let mut stream = responder.begin_stream(200);
                        stream.chunk(b"one\n");
                        stream.chunk(b"two\n");
                        stream.finish();
                    } else {
                        responder.respond(200, &[], req.path.as_bytes());
                    }
                }))
                .expect("run");
        });
        (addr, handle, join)
    }

    fn get(stream: &mut BlockingStream, path: &str) -> (u16, String, String) {
        write!(stream, "GET {path} HTTP/1.1\r\nhost: t\r\n\r\n").expect("write");
        read_reply(&mut BufReader::new(stream))
    }

    fn read_reply(reader: &mut impl BufRead) -> (u16, String, String) {
        let mut line = String::new();
        reader.read_line(&mut line).expect("status line");
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .expect("code")
            .parse()
            .expect("u16");
        let mut connection = String::new();
        let mut content_length = 0usize;
        loop {
            let mut header = String::new();
            reader.read_line(&mut header).expect("header");
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some(v) = header.strip_prefix("connection: ") {
                connection = v.to_string();
            }
            if let Some(v) = header.strip_prefix("content-length: ") {
                content_length = v.parse().expect("len");
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).expect("body");
        (status, connection, String::from_utf8(body).expect("utf8"))
    }

    #[test]
    fn serves_keep_alive_requests_and_drains() {
        let (addr, handle, join) = start_echo_front(Duration::from_secs(5), 1024, 64);
        let mut stream = BlockingStream::connect(addr).expect("connect");
        for i in 0..3 {
            let (status, connection, body) = get(&mut stream, &format!("/ping/{i}"));
            assert_eq!(status, 200);
            assert_eq!(connection, "keep-alive");
            assert_eq!(body, format!("/ping/{i}"));
        }
        assert!(handle.counters().open_connections >= 1);
        handle.shutdown();
        join.join().expect("reactor exits");
        assert_eq!(handle.counters().open_connections, 0);
    }

    /// More panicking requests than pool threads each get a 500, and the
    /// pool still serves the next request.
    #[test]
    fn handler_panics_answer_500_and_leave_the_pool_serving() {
        let (addr, handle, join) = start_echo_front(Duration::from_secs(5), 1024, 64);
        let connect = || {
            let stream = BlockingStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(2)))
                .expect("timeout");
            stream
        };
        for _ in 0..=HANDLER_THREADS {
            let (status, connection, _) = get(&mut connect(), "/boom");
            assert_eq!((status, connection.as_str()), (500, "close"));
        }
        let (status, _, body) = get(&mut connect(), "/ok");
        assert_eq!((status, body.as_str()), (200, "/ok"));
        handle.shutdown();
        join.join().expect("reactor exits");
    }

    #[test]
    fn request_budget_closes_the_connection() {
        let (addr, handle, join) = start_echo_front(Duration::from_secs(5), 2, 64);
        let mut stream = BlockingStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        // Three pipelined requests against a budget of two.
        stream
            .write_all(
                b"GET /1 HTTP/1.1\r\nhost: t\r\n\r\n\
                  GET /2 HTTP/1.1\r\nhost: t\r\n\r\n\
                  GET /3 HTTP/1.1\r\nhost: t\r\n\r\n",
            )
            .expect("write");
        let mut reader = BufReader::new(stream);
        assert_eq!(
            read_reply(&mut reader),
            (200, "keep-alive".to_string(), "/1".to_string())
        );
        assert_eq!(
            read_reply(&mut reader),
            (200, "close".to_string(), "/2".to_string()),
            "request #max_requests closes"
        );
        let mut rest = Vec::new();
        let _ = reader.read_to_end(&mut rest);
        assert!(
            rest.is_empty(),
            "the third pipelined request is never served"
        );
        handle.shutdown();
        join.join().expect("reactor exits");
    }

    #[test]
    fn half_close_mid_pipeline_serves_only_the_complete_request() {
        let (addr, handle, join) = start_echo_front(Duration::from_secs(5), 1024, 64);
        let mut stream = BlockingStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        // One complete request, then half of a second, then FIN.
        stream
            .write_all(b"GET /ok HTTP/1.1\r\nhost: t\r\n\r\nGET /tru")
            .expect("write");
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let mut reader = BufReader::new(stream);
        let (status, _, body) = read_reply(&mut reader);
        assert_eq!((status, body.as_str()), (200, "/ok"));
        // The truncated request is not a panic, not a hang — just a close.
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).expect("server closes");
        assert!(rest.is_empty());
        handle.shutdown();
        join.join().expect("reactor exits");
    }

    #[test]
    fn streams_chunks_then_closes() {
        let (addr, handle, join) = start_echo_front(Duration::from_secs(5), 1024, 64);
        let mut stream = BlockingStream::connect(addr).expect("connect");
        write!(stream, "GET /stream HTTP/1.1\r\nhost: t\r\n\r\n").expect("write");
        let mut reader = BufReader::new(stream);
        let mut all = Vec::new();
        reader.read_to_end(&mut all).expect("read to close");
        let text = String::from_utf8(all).expect("utf8");
        assert!(text.contains("transfer-encoding: chunked"));
        assert!(text.contains("one\n") && text.contains("two\n"));
        assert!(text.ends_with("0\r\n\r\n"), "terminal chunk then close");
        handle.shutdown();
        join.join().expect("reactor exits");
    }

    #[test]
    fn idle_connections_time_out() {
        let (addr, handle, join) = start_echo_front(Duration::from_millis(80), 1024, 64);
        let mut stream = BlockingStream::connect(addr).expect("connect");
        // Half a request, then silence: the slow-loris peer is cut off.
        write!(stream, "GET /slow HTTP/1.1\r\nhost:").expect("write");
        let mut end = Vec::new();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let n = stream.read_to_end(&mut end).expect("server closes");
        assert_eq!(n, 0, "no response bytes for a half request");
        assert!(handle.counters().timeouts >= 1);
        handle.shutdown();
        join.join().expect("reactor exits");
    }

    /// A front whose `/park` handler stashes the responder instead of
    /// answering — the reactor-side shape of a `?wait=1` long-poll.
    fn start_parking_front(
        idle_timeout: Duration,
    ) -> (
        std::net::SocketAddr,
        FrontHandle,
        std::thread::JoinHandle<()>,
        Arc<Mutex<Vec<Responder>>>,
    ) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let front = HttpFront::bind(
            listener,
            "front-park-test",
            FrontConfig {
                idle_timeout_ms: idle_timeout.as_millis() as u64,
                max_requests_per_connection: 1024,
                max_connections: 64,
            },
        )
        .expect("front");
        let handle = front.handle();
        let parked: Arc<Mutex<Vec<Responder>>> = Arc::new(Mutex::new(Vec::new()));
        let parked_in = Arc::clone(&parked);
        let join = std::thread::spawn(move || {
            front
                .run(Arc::new(move |req: Request, responder: Responder| {
                    if req.path == "/park" {
                        parked_in.lock().expect("parked").push(responder);
                    } else {
                        responder.respond(200, &[], req.path.as_bytes());
                    }
                }))
                .expect("run");
        });
        (addr, handle, join, parked)
    }

    #[test]
    fn vanished_inflight_client_is_reaped_and_goes_dead() {
        let (addr, handle, join, parked) = start_parking_front(Duration::from_millis(80));
        let mut stream = BlockingStream::connect(addr).expect("connect");
        write!(stream, "GET /park HTTP/1.1\r\nhost: t\r\n\r\n").expect("write");
        // Wait for the handler to park the responder, then vanish.
        let deadline = Instant::now() + Duration::from_secs(5);
        while parked.lock().expect("parked").is_empty() {
            assert!(Instant::now() < deadline, "request never dispatched");
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(stream);
        // The half-close is noted once (no busy loop) and the idle timer
        // reaps the connection, flipping `is_live()` so the parked reply
        // is dropped unanswered.
        let deadline = Instant::now() + Duration::from_secs(5);
        while handle.counters().open_connections != 0 {
            assert!(Instant::now() < deadline, "vanished client never reaped");
            std::thread::sleep(Duration::from_millis(5));
        }
        let responder = parked.lock().expect("parked").pop().expect("one parked");
        assert!(!responder.is_live(), "reaped connection must read as dead");
        handle.shutdown();
        join.join().expect("reactor exits");
    }

    #[test]
    fn half_closed_client_still_gets_its_pending_response() {
        let (addr, handle, join, parked) = start_parking_front(Duration::from_secs(5));
        let mut stream = BlockingStream::connect(addr).expect("connect");
        write!(stream, "GET /park HTTP/1.1\r\nhost: t\r\n\r\n").expect("write");
        let deadline = Instant::now() + Duration::from_secs(5);
        while parked.lock().expect("parked").is_empty() {
            assert!(Instant::now() < deadline, "request never dispatched");
            std::thread::sleep(Duration::from_millis(5));
        }
        // Half-close: no more requests will come, but the client still
        // reads. The pending response must arrive and then close the
        // connection.
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        std::thread::sleep(Duration::from_millis(50));
        let responder = parked.lock().expect("parked").pop().expect("one parked");
        responder.respond(200, &[], b"late answer");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let (status, connection, body) = read_reply(&mut BufReader::new(&mut stream));
        assert_eq!(status, 200);
        assert_eq!(connection, "close", "half-closed peer gets a final close");
        assert_eq!(body, "late answer");
        handle.shutdown();
        join.join().expect("reactor exits");
    }

    #[test]
    fn accepts_beyond_the_cap_get_a_503() {
        let (addr, handle, join) = start_echo_front(Duration::from_secs(5), 1024, 2);
        let mut keep1 = BlockingStream::connect(addr).expect("connect");
        let mut keep2 = BlockingStream::connect(addr).expect("connect");
        let (s1, ..) = get(&mut keep1, "/a");
        let (s2, ..) = get(&mut keep2, "/b");
        assert_eq!((s1, s2), (200, 200));
        let mut over = BlockingStream::connect(addr).expect("connect");
        over.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let (status, connection, body) = read_reply(&mut BufReader::new(&mut over));
        assert_eq!(status, 503);
        assert_eq!(connection, "close");
        assert!(body.contains("connection limit reached"));
        handle.shutdown();
        join.join().expect("reactor exits");
    }
}
