//! Shared load-measurement harness for the `dominod` service: N
//! concurrent clients driving an in-process server over the public suite,
//! cold cache vs warm cache.
//!
//! Used by two binaries — `serve_bench` (the standalone load generator)
//! and `perf_snapshot` (whose `serve` section feeds the CI regression
//! gate) — so both always measure the same thing:
//!
//! * **cold wave** — every client submits its own seed-varied copy of the
//!   suite (distinct content addresses), so every job recomputes;
//! * **warm waves** — the same specs again: every request must be
//!   answered by the shared [`ResultCache`] without recomputation, which
//!   this harness *verifies* (hit-counter delta == request count) rather
//!   than assumes.
//!
//! Clients use the synchronous `POST /jobs?wait=1` path, one round trip
//! per job over each client's kept-alive connection, so the warm numbers
//! measure the service floor (parse + cache hit + respond) and the
//! cold/warm ratio is an honest "what does the resident cache buy"
//! statement.
//!
//! Two extra warm arms isolate what HTTP keep-alive buys on the
//! non-blocking wire: the same warm requests once over kept-alive
//! (pooled) connections and once with a fresh connection per request —
//! same bytes, same cache hits, only the connection discipline differs.

use std::sync::{Arc, Barrier};
use std::time::Instant;

use domino_engine::{JobSpec, ResultCache};
use domino_serve::front::FrontConfig;
use domino_serve::{ClientError, ServeClient, ServeConfig, Server};

/// Load-harness knobs.
#[derive(Debug, Clone)]
pub struct ServeLoadConfig {
    /// Restrict to the two cheapest circuits (the CI smoke mode).
    pub fast: bool,
    /// Concurrent client threads.
    pub clients: usize,
    /// Warm waves to run; the best (minimum-wall) wave is reported, the
    /// cache accounting is verified across all of them.
    pub warm_passes: usize,
}

impl Default for ServeLoadConfig {
    fn default() -> Self {
        ServeLoadConfig {
            fast: false,
            clients: 4,
            warm_passes: 3,
        }
    }
}

/// One wave's aggregate numbers.
#[derive(Debug, Clone, Copy)]
pub struct WaveStats {
    /// Requests in the wave.
    pub jobs: u64,
    /// Wall-clock for the whole wave, ms.
    pub wall_ms: f64,
    /// Throughput over the wave, jobs per second.
    pub jobs_per_s: f64,
    /// Mean per-request latency (submit → outcome bytes), ms.
    pub mean_ms: f64,
}

impl WaveStats {
    pub(crate) fn from_latencies(wall_ms: f64, latencies_ms: &[f64]) -> WaveStats {
        let jobs = latencies_ms.len() as u64;
        WaveStats {
            jobs,
            wall_ms,
            jobs_per_s: if wall_ms > 0.0 {
                jobs as f64 / (wall_ms / 1e3)
            } else {
                f64::INFINITY
            },
            mean_ms: latencies_ms.iter().sum::<f64>() / jobs.max(1) as f64,
        }
    }
}

/// The cold-vs-warm measurement, plus the verified cache accounting.
#[derive(Debug, Clone)]
pub struct ServeMeasurement {
    /// Client threads used.
    pub clients: usize,
    /// Server worker threads (resolved).
    pub workers: u64,
    /// Requests per wave (`clients × suite size`).
    pub jobs_per_wave: u64,
    /// The cold (all-recompute) wave.
    pub cold: WaveStats,
    /// The best warm (all-cache-hit) wave.
    pub warm: WaveStats,
    /// `warm.jobs_per_s / cold.jobs_per_s`.
    pub warm_speedup: f64,
    /// Cache hits observed across every warm wave (verified to equal
    /// `warm_requests`).
    pub warm_hits: u64,
    /// Warm requests issued across every warm wave.
    pub warm_requests: u64,
    /// Best warm submit wave over kept-alive (pooled) connections.
    pub keepalive: WaveStats,
    /// The same warm submit wave with a fresh connection per request.
    pub per_connection: WaveStats,
    /// `keepalive.jobs_per_s / per_connection.jobs_per_s` — what the
    /// persistent-connection wire buys at the service floor.
    pub keepalive_speedup: f64,
    /// Requests answered over a reused connection in the best kept-alive
    /// wave (verified: every request but each client's first).
    pub connection_reuses: u64,
}

/// Suite rows the harness drives (`--fast` keeps the two cheapest).
pub fn serve_suite_names(fast: bool) -> Vec<&'static str> {
    domino_workloads::public_row_names()
        .into_iter()
        .filter(|name| !fast || ["frg1", "apex7"].contains(name))
        .collect()
}

pub(crate) fn client_specs(names: &[&'static str], client: usize) -> Vec<JobSpec> {
    names
        .iter()
        .map(|name| {
            let mut spec = JobSpec::suite(name);
            // A per-client seed gives each client distinct content
            // addresses, so the cold wave is cold for *every* request
            // (identical specs would warm each other mid-wave).
            spec.sim.seed += client as u64;
            spec
        })
        .collect()
}

/// Runs one wave: every client thread submits its specs synchronously.
/// Returns (wall_ms, per-request latencies).
pub(crate) fn run_wave(addr: &str, specs_per_client: &[Vec<JobSpec>]) -> (f64, Vec<f64>) {
    let wave_start = Instant::now();
    let mut latencies: Vec<f64> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = specs_per_client
            .iter()
            .map(|specs| {
                scope.spawn(move || {
                    let client = ServeClient::new(addr.to_string());
                    specs
                        .iter()
                        .map(|spec| {
                            let start = Instant::now();
                            client.run_sync(spec).expect("served job completes");
                            start.elapsed().as_secs_f64() * 1e3
                        })
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        for handle in handles {
            latencies.extend(handle.join().expect("client thread"));
        }
    });
    (wave_start.elapsed().as_secs_f64() * 1e3, latencies)
}

/// One warm *submit* wave (non-blocking `POST /jobs`, answered by the
/// cache's probe fast path): every client issues its specs on one client
/// handle, pooled (`reuse`) or connection-per-request. Returns
/// (wall_ms, latencies, connections reused).
fn run_submit_wave(
    addr: &str,
    specs_per_client: &[Vec<JobSpec>],
    reuse: bool,
) -> (f64, Vec<f64>, u64) {
    let wave_start = Instant::now();
    let mut latencies: Vec<f64> = Vec::new();
    let mut reuses = 0u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = specs_per_client
            .iter()
            .map(|specs| {
                scope.spawn(move || {
                    let pooled = ServeClient::new(addr.to_string());
                    let lat: Vec<f64> = specs
                        .iter()
                        .map(|spec| {
                            // A fresh client holds no idle connection, so
                            // it pays one connect for its one request.
                            let fresh = (!reuse).then(|| ServeClient::new(addr.to_string()));
                            let client = fresh.as_ref().unwrap_or(&pooled);
                            let start = Instant::now();
                            client.submit(spec).expect("warm submit succeeds");
                            start.elapsed().as_secs_f64() * 1e3
                        })
                        .collect();
                    (lat, pooled.connection_reuses())
                })
            })
            .collect();
        for handle in handles {
            let (lat, r) = handle.join().expect("client thread");
            latencies.extend(lat);
            reuses += r;
        }
    });
    (wave_start.elapsed().as_secs_f64() * 1e3, latencies, reuses)
}

/// Starts an in-process server, runs the cold wave and `warm_passes` warm
/// waves, verifies the warm-path cache accounting, and shuts down.
///
/// # Panics
///
/// Panics if any served job fails, or if the warm waves are not answered
/// entirely from the cache (hit delta != request count) — the measurement
/// would be meaningless, so it refuses to report one.
pub fn measure_serve(config: &ServeLoadConfig) -> ServeMeasurement {
    let names = serve_suite_names(config.fast);
    let clients = config.clients.max(1);
    let specs_per_client: Vec<Vec<JobSpec>> =
        (0..clients).map(|c| client_specs(&names, c)).collect();
    let jobs_per_wave = (clients * names.len()) as u64;

    let cache = Arc::new(ResultCache::in_memory());
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 0,
        // The harness measures service latency, not admission control:
        // size the queue so backpressure never triggers.
        queue_capacity: (jobs_per_wave as usize) * 2 + 16,
        cache: Some(Arc::clone(&cache)),
        ..ServeConfig::default()
    })
    .expect("ephemeral bind");
    let addr = server.addr().to_string();

    let (cold_wall, cold_lat) = run_wave(&addr, &specs_per_client);
    let cold = WaveStats::from_latencies(cold_wall, &cold_lat);
    let after_cold = cache.stats();

    let mut warm: Option<WaveStats> = None;
    for _ in 0..config.warm_passes.max(1) {
        let (wall, lat) = run_wave(&addr, &specs_per_client);
        let stats = WaveStats::from_latencies(wall, &lat);
        if warm.is_none_or(|best| stats.wall_ms < best.wall_ms) {
            warm = Some(stats);
        }
    }
    let warm = warm.expect("at least one warm pass");
    let after_warm = cache.stats();

    let warm_requests = jobs_per_wave * config.warm_passes.max(1) as u64;
    let warm_hits = after_warm.hits() - after_cold.hits();
    assert_eq!(
        warm_hits, warm_requests,
        "warm waves must be answered entirely from the cache"
    );
    assert_eq!(
        after_warm.misses, after_cold.misses,
        "warm waves must not recompute"
    );

    // The keep-alive arms: identical warm submits, only the connection
    // discipline differs. Run after the warm accounting above so the
    // probe fast path's extra cache hits cannot disturb it.
    let mut per_connection: Option<WaveStats> = None;
    let mut keepalive: Option<(WaveStats, u64)> = None;
    for _ in 0..config.warm_passes.max(1) {
        let (wall, lat, reuses) = run_submit_wave(&addr, &specs_per_client, false);
        assert_eq!(reuses, 0, "connection-per-request arm must never reuse");
        let stats = WaveStats::from_latencies(wall, &lat);
        if per_connection.is_none_or(|best| stats.wall_ms < best.wall_ms) {
            per_connection = Some(stats);
        }
        let (wall, lat, reuses) = run_submit_wave(&addr, &specs_per_client, true);
        assert_eq!(
            reuses,
            jobs_per_wave - clients as u64,
            "kept-alive arm must reuse every request but each client's first"
        );
        let stats = WaveStats::from_latencies(wall, &lat);
        if keepalive
            .as_ref()
            .is_none_or(|(best, _)| stats.wall_ms < best.wall_ms)
        {
            keepalive = Some((stats, reuses));
        }
    }
    let per_connection = per_connection.expect("at least one per-connection wave");
    let (keepalive, connection_reuses) = keepalive.expect("at least one kept-alive wave");

    let metrics = server.metrics();
    assert_eq!(metrics.failed, 0, "no served job may fail");
    let workers = metrics.workers;
    server.shutdown();

    ServeMeasurement {
        clients,
        workers,
        jobs_per_wave,
        cold,
        warm,
        warm_speedup: warm.jobs_per_s / cold.jobs_per_s,
        warm_hits,
        warm_requests,
        keepalive,
        per_connection,
        keepalive_speedup: keepalive.jobs_per_s / per_connection.jobs_per_s,
        connection_reuses,
    }
}

/// Connection-scale knobs: how many kept-alive connections to hold open
/// concurrently, and how many driver threads open them.
#[derive(Debug, Clone)]
pub struct ConnectionScaleConfig {
    /// Concurrent kept-alive connections to hold open.
    pub connections: usize,
    /// Driver threads opening them (each holds `connections / drivers`).
    pub drivers: usize,
}

impl Default for ConnectionScaleConfig {
    fn default() -> Self {
        ConnectionScaleConfig {
            connections: 2048,
            drivers: 8,
        }
    }
}

/// The connection-scale measurement: N concurrent kept-alive
/// connections against one reactor-fronted server, every response
/// byte-verified, the server's thread count verified bounded.
#[derive(Debug, Clone, Copy)]
pub struct ConnectionScaleMeasurement {
    /// Connections actually held open (clamped to the fd limit).
    pub connections: u64,
    /// Driver threads used.
    pub drivers: usize,
    /// Wall-clock to open every connection and serve a warm submit +
    /// result pair on each, ms.
    pub open_ms: f64,
    /// Warm requests per second during the open sweep.
    pub requests_per_s: f64,
    /// The server reactor's `open_connections` counter observed while
    /// every connection was held (at least `connections`).
    pub open_connections: u64,
    /// Process thread count observed while every connection was held.
    pub process_threads: u64,
    /// The bound `process_threads` was verified against — independent of
    /// the connection count.
    pub thread_bound: u64,
}

/// The process's current thread count, from `/proc/self/status`.
fn process_threads() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))?
                .split_whitespace()
                .nth(1)?
                .parse()
                .ok()
        })
        .expect("/proc/self/status has a Threads line")
}

/// Holds `config.connections` kept-alive connections open against one
/// in-process server, serving a warm `POST /jobs` + `GET result` pair on
/// each and byte-comparing
/// every outcome, then — with all connections held — verifies the
/// server's reactor counter sees them all and the process thread count
/// stays bounded (connections cost sockets, not threads).
///
/// The open-file soft limit is raised as far as the hard limit allows;
/// if it still cannot cover the requested count, the count is clamped
/// (and reported via the returned `connections`).
///
/// # Panics
///
/// Panics on a byte-mismatched response, a reactor counter below the
/// held connection count, or a thread count above the bound.
pub fn measure_connection_scale(config: &ConnectionScaleConfig) -> ConnectionScaleMeasurement {
    let drivers = config.drivers.max(1);
    // Client + server side of every connection live in this process, plus
    // headroom for the suite, the cache and the control connection.
    let wanted_fds = (config.connections as u64) * 2 + 256;
    let fd_limit =
        domino_reactor::raise_open_file_limit(wanted_fds).expect("query/raise the open-file limit");
    let connections = if fd_limit < wanted_fds {
        let usable = ((fd_limit.saturating_sub(256)) / 2) as usize;
        eprintln!(
            "serve_probe: open-file limit {fd_limit} clamps the connection count \
             {} -> {usable}",
            config.connections
        );
        usable.max(1)
    } else {
        config.connections.max(1)
    };

    let cache = Arc::new(ResultCache::in_memory());
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_capacity: 64,
        cache: Some(Arc::clone(&cache)),
        front: FrontConfig {
            max_connections: connections + 64,
            ..FrontConfig::default()
        },
        ..ServeConfig::default()
    })
    .expect("ephemeral bind");
    let addr = server.addr().to_string();

    // One spec, warmed once: every connection's request must then be a
    // cache hit answered inline, and every response byte-identical.
    let spec = JobSpec::suite("frg1");
    let expected = ServeClient::new(addr.clone())
        .run_sync(&spec)
        .expect("warming job completes");

    let held = Barrier::new(drivers + 1);
    let release = Barrier::new(drivers + 1);
    let per_driver: Vec<usize> = (0..drivers)
        .map(|d| connections / drivers + usize::from(d < connections % drivers))
        .collect();

    let sweep_start = Instant::now();
    let mut open_ms = 0.0;
    let mut observed_open = 0u64;
    let mut observed_threads = 0u64;
    // Reactor + handler pool + workers + main are all there is on
    // the server side; the rest is this harness's own drivers. The slack
    // absorbs runtime housekeeping threads without ever being compatible
    // with thread-per-connection at four-digit connection counts.
    let thread_bound = (drivers as u64) + 32;
    std::thread::scope(|scope| {
        for &quota in &per_driver {
            let (addr, spec, expected) = (&addr, &spec, &expected);
            let (held, release) = (&held, &release);
            scope.spawn(move || {
                let mut held_clients = Vec::with_capacity(quota);
                for _ in 0..quota {
                    // submit + result fetch ride the client's pooled
                    // keep-alive connection, so the connection stays open
                    // and counted by the reactor while the client is held.
                    let client = ServeClient::new(addr.clone());
                    let admit = client.submit(spec).expect("warm submit admits");
                    let outcome = loop {
                        match client.result(admit.id, false) {
                            Ok(text) => break text,
                            // 409: admitted but not yet terminal (the
                            // cache answers warm submissions inline, so
                            // this is a startup race at most).
                            Err(ClientError::Api { status: 409, .. }) => {
                                std::thread::sleep(std::time::Duration::from_millis(1));
                            }
                            Err(e) => panic!("warm result fetch: {e}"),
                        }
                    };
                    assert_eq!(
                        outcome, *expected,
                        "every connection must see byte-identical outcome bytes"
                    );
                    held_clients.push(client);
                }
                held.wait();
                // Connections stay pooled (and open) in `held_clients`
                // until the main thread has observed the peak.
                release.wait();
                drop(held_clients);
            });
        }
        held.wait();
        open_ms = sweep_start.elapsed().as_secs_f64() * 1e3;
        let metrics = server.metrics();
        let reactor = metrics.reactor.expect("reactor counters present");
        observed_open = reactor.open_connections;
        observed_threads = process_threads();
        release.wait();
    });

    assert!(
        observed_open >= connections as u64,
        "reactor must see every held connection ({observed_open} < {connections})"
    );
    assert!(
        observed_threads <= thread_bound,
        "thread count must stay bounded: {observed_threads} threads for \
         {connections} connections (bound {thread_bound})"
    );
    server.shutdown();

    ConnectionScaleMeasurement {
        connections: connections as u64,
        drivers,
        open_ms,
        requests_per_s: if open_ms > 0.0 {
            (connections * 2) as f64 / (open_ms / 1e3)
        } else {
            f64::INFINITY
        },
        open_connections: observed_open,
        process_threads: observed_threads,
        thread_bound,
    }
}
