//! Edge-of-the-wire acceptance tests for the reactor-fronted `dominod`
//! connection handling — the cases a thread-per-connection server gets
//! wrong for free and an event-driven one must prove:
//!
//! * **slow loris** — a connection that sends half a request and goes
//!   silent is closed by the idle-timeout wheel, not parked on a reader
//!   thread forever;
//! * **mid-stream disconnect** — a client that vanishes in the middle of
//!   a chunked `/jobs/:id/events` stream is detected and its connection
//!   released; the job itself still completes;
//! * **accept burst past `--max-connections`** — connections beyond the
//!   cap get a clean `503` + close, held connections stay untouched, and
//!   nothing leaks: once the held ones close, the server accepts again;
//! * **drain with idle keep-alive herd** — shutdown with dozens of idle
//!   kept-alive connections completes promptly (the reactor force-closes
//!   idlers instead of waiting out their timeouts).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use domino_engine::JobSpec;
use domino_serve::front::FrontConfig;
use domino_serve::{JobStatus, ServeClient, ServeConfig, Server};

/// A cheap spec (short simulation) for liveness probes.
fn quick_spec() -> JobSpec {
    let mut spec = JobSpec::suite("frg1");
    spec.sim.cycles = 256;
    spec.sim.warmup = 8;
    spec
}

/// A spec that keeps a debug-profile worker busy long enough to race
/// against (large simulation budget).
fn slow_spec() -> JobSpec {
    let mut spec = JobSpec::suite("apex7");
    spec.name = "slowpoke".to_string();
    spec.sim.cycles = 65_536;
    spec
}

fn start_server(config: ServeConfig) -> (Server, String) {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        ..config
    })
    .expect("ephemeral bind");
    let addr = server.addr().to_string();
    (server, addr)
}

/// Opens a raw connection, serves one `GET /healthz` on it, and returns
/// it still open (kept alive) — a registered, idle connection from the
/// reactor's point of view.
fn open_idle_keepalive(addr: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nhost: test\r\nconnection: keep-alive\r\n\r\n")
        .expect("write healthz");
    let head = read_response_head(&mut stream);
    assert!(
        head.starts_with("HTTP/1.1 200"),
        "healthz on a fresh connection must answer 200, got: {head}"
    );
    stream
}

/// Reads one HTTP response (head + content-length body) off `stream`,
/// returning everything read as text. Panics on timeout.
fn read_response_head(stream: &mut TcpStream) -> String {
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
    // Read the head byte-by-byte (test-grade, not perf-grade).
    while !buf.ends_with(b"\r\n\r\n") {
        match stream.read(&mut byte) {
            Ok(0) => break,
            Ok(_) => buf.push(byte[0]),
            Err(e) => panic!("reading response head: {e}"),
        }
    }
    let head = String::from_utf8_lossy(&buf).to_string();
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            l.to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(str::to_string)
        })
        .map(|v| v.trim().parse().expect("content-length parses"))
        .unwrap_or(0);
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        stream.read_exact(&mut body).expect("read body");
    }
    format!("{head}{}", String::from_utf8_lossy(&body))
}

/// Polls the server's in-process metrics until `pred` holds or the
/// deadline passes; returns the last observed open-connection count.
fn wait_for_open_connections(
    server: &Server,
    deadline: Duration,
    pred: impl Fn(u64) -> bool,
) -> u64 {
    let start = Instant::now();
    loop {
        let open = server
            .metrics()
            .reactor
            .expect("reactor counters present")
            .open_connections;
        if pred(open) || start.elapsed() > deadline {
            return open;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn slow_loris_partial_request_is_idle_timed_out() {
    let (server, addr) = start_server(ServeConfig {
        front: FrontConfig {
            idle_timeout_ms: 200,
            ..FrontConfig::default()
        },
        ..ServeConfig::default()
    });

    // Half a request line, then silence — a reader thread would block in
    // `read` forever; the reactor's timer wheel must reap it.
    let mut loris = TcpStream::connect(&addr).expect("connect");
    loris
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    loris
        .write_all(b"POST /jobs HTTP/1.1\r\ncontent-le")
        .expect("write partial request");

    let mut buf = [0u8; 64];
    let n = loris.read(&mut buf).expect("server closes, not timeout");
    assert_eq!(n, 0, "a timed-out slow loris gets EOF, not a response");

    let reactor = server.metrics().reactor.expect("reactor counters present");
    assert!(
        reactor.timeouts >= 1,
        "the idle-timeout counter must record the reaped connection"
    );

    // The server is unharmed: a real client is served normally.
    let outcome = ServeClient::new(addr).run_sync(&quick_spec());
    assert!(outcome.is_ok(), "server serves after reaping a slow loris");
    server.shutdown();
}

#[test]
fn client_disconnect_mid_event_stream_releases_the_connection() {
    let (server, addr) = start_server(ServeConfig::default());
    let client = ServeClient::new(addr.clone());

    let admit = client.submit(&slow_spec()).expect("slow job admitted");

    // Follow the chunked event stream just far enough to see it live,
    // then vanish without a goodbye.
    {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        stream
            .write_all(
                format!(
                    "GET /jobs/{}/events HTTP/1.1\r\nhost: test\r\n\r\n",
                    admit.id
                )
                .as_bytes(),
            )
            .expect("write events request");
        let mut byte = [0u8; 1];
        let mut seen = Vec::new();
        // Read until the first event line has arrived (one full chunk).
        while !seen.ends_with(b"\n\r\n") {
            match stream.read(&mut byte) {
                Ok(0) => panic!("stream ended before the first event"),
                Ok(_) => seen.push(byte[0]),
                Err(e) => panic!("reading event stream: {e}"),
            }
        }
        let text = String::from_utf8_lossy(&seen);
        assert!(
            text.starts_with("HTTP/1.1 200"),
            "event stream opens with 200, got: {text}"
        );
        // `stream` drops here: RST/EOF mid-stream from the server's view.
    }

    // The abandoned job still completes — a vanished spectator must not
    // take the worker with it.
    let status = client.status(admit.id, true).expect("job reaches terminal");
    assert_eq!(status.status, JobStatus::Completed);

    // The reactor notices the dead stream once the next event write
    // fails, and releases the connection. Only the pooled client
    // connection (at most) may remain.
    let open = wait_for_open_connections(&server, Duration::from_secs(5), |open| open <= 1);
    assert!(
        open <= 1,
        "dead event-stream connection must be released, {open} still open"
    );
    server.shutdown();
}

#[test]
fn accept_burst_beyond_max_connections_gets_clean_503_and_leaks_nothing() {
    let cap = 8usize;
    let (server, addr) = start_server(ServeConfig {
        front: FrontConfig {
            max_connections: cap,
            idle_timeout_ms: 60_000,
            ..FrontConfig::default()
        },
        ..ServeConfig::default()
    });

    // Fill the cap with live kept-alive connections.
    let held: Vec<TcpStream> = (0..cap).map(|_| open_idle_keepalive(&addr)).collect();

    // Everything beyond the cap is turned away at accept: a `503` with
    // `retry-after`, then close — never silence, never a hang.
    for i in 0..2 * cap {
        let mut extra = TcpStream::connect(&addr).expect("connect beyond cap");
        extra
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let mut reply = String::new();
        extra
            .read_to_string(&mut reply)
            .expect("over-cap reply then EOF");
        assert!(
            reply.starts_with("HTTP/1.1 503"),
            "over-cap connection {i} must get a 503, got: {reply}"
        );
        assert!(
            reply.to_ascii_lowercase().contains("retry-after"),
            "over-cap 503 carries retry-after: {reply}"
        );
    }

    // The held connections were untouched by the burst.
    let reactor = server.metrics().reactor.expect("reactor counters present");
    assert_eq!(
        reactor.open_connections, cap as u64,
        "the burst must not displace held connections"
    );

    // No leak: once the held connections close, the server accepts and
    // serves again.
    drop(held);
    let open = wait_for_open_connections(&server, Duration::from_secs(5), |open| open == 0);
    assert_eq!(open, 0, "closed connections must be fully released");
    let outcome = ServeClient::new(addr).run_sync(&quick_spec());
    assert!(outcome.is_ok(), "server serves normally after the burst");
    server.shutdown();
}

#[test]
fn drain_with_a_herd_of_idle_keepalive_connections_is_prompt() {
    let herd = 64usize;
    let (server, addr) = start_server(ServeConfig {
        // Idle timeout far beyond the test's patience: only the drain
        // logic may close these.
        front: FrontConfig {
            idle_timeout_ms: 600_000,
            max_connections: herd + 16,
            ..FrontConfig::default()
        },
        ..ServeConfig::default()
    });

    let held: Vec<TcpStream> = (0..herd).map(|_| open_idle_keepalive(&addr)).collect();
    let reactor = server.metrics().reactor.expect("reactor counters present");
    assert_eq!(reactor.open_connections, herd as u64);

    // Shutdown must not wait out 64 ten-minute idle timeouts.
    let start = Instant::now();
    server.shutdown();
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(10),
        "drain with {herd} idle connections took {elapsed:?}"
    );

    // Every held connection was closed by the drain.
    for mut stream in held {
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        let mut buf = [0u8; 64];
        // EOF, possibly after a final in-flight response's bytes.
        loop {
            match stream.read(&mut buf) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) => panic!("drained connection must close cleanly: {e}"),
            }
        }
    }
}
