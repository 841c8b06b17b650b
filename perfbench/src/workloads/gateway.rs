//! `gateway_mix`: `POST /jobs?wait=1` round trips — the call
//! `dominoc run <file.blif> --server` makes — from two closed-loop
//! clients through an in-process `dominogw` over two in-process `dominod`
//! backends (1 worker and an in-memory result cache each).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use domino_engine::json::{parse, Json};
use domino_engine::{run_job, FlowJob, FlowOutcome, JobSpec, ResultCache};
use domino_fleet::{Gateway, GatewayConfig, GatewayMetrics};
use domino_serve::{ClientError, MetricsReply, ServeClient, ServeConfig, Server};
use domino_workloads::public_suite;

use crate::check::check_outcome;
use crate::golden::Golden;
use crate::inputs::{fresh_profile, Check, MixStream};
use crate::report::{Report, PUBLIC_ROWS};
use crate::stats::{geomean, median};
use crate::trace::Tracer;
use crate::workloads::{peak_rss_mib, record_tail, timed_setups};

/// Closed-loop clients (one connection each).
const CLIENTS: usize = 2;

/// Backends behind the gateway.
const BACKENDS: usize = 2;

/// Set-ups per run (each starts and stops a whole fleet).
const SETUPS: usize = 3;

/// Span id of the traced run's direct probes: above any request index,
/// and exact as a JSON number.
const PROBE_SPAN_ID: u64 = 1 << 52;

/// Failpoint site whose injected faults the failure accounting follows.
const RELAY_SITE: &str = "fleet.gateway.relay";

/// The in-process fleet.
struct Fleet {
    gateway: Gateway,
    backends: Vec<Server>,
    caches: Vec<Arc<ResultCache>>,
}

impl Fleet {
    fn start() -> Fleet {
        let caches: Vec<Arc<ResultCache>> = (0..BACKENDS)
            .map(|_| Arc::new(ResultCache::in_memory()))
            .collect();
        let backends: Vec<Server> = caches
            .iter()
            .map(|cache| {
                Server::start(ServeConfig {
                    addr: "127.0.0.1:0".into(),
                    workers: 1,
                    cache: Some(Arc::clone(cache)),
                    ..ServeConfig::default()
                })
                .expect("backend starts")
            })
            .collect();
        let gateway = Gateway::start(GatewayConfig {
            addr: "127.0.0.1:0".into(),
            backends: backends.iter().map(|b| b.addr().to_string()).collect(),
            ..GatewayConfig::default()
        })
        .expect("gateway starts");
        Fleet {
            gateway,
            backends,
            caches,
        }
    }

    fn gateway_addr(&self) -> String {
        self.gateway.addr().to_string()
    }

    fn stop(self) {
        self.gateway.shutdown();
        for backend in self.backends {
            backend.shutdown();
        }
    }

    /// Summed backend counters (in-process, so reading them costs no
    /// connection).
    fn backend_totals(&self) -> Totals {
        let mut t = Totals::default();
        for b in &self.backends {
            let m: MetricsReply = b.metrics();
            let cache = m.cache.unwrap_or_default();
            t.hits += cache.memory_hits + cache.disk_hits;
            t.misses += cache.misses;
            t.rejected += m.rejected;
            t.queue_wait_ms += m.queue_wait_ms;
            t.exec_ms += m.exec_ms;
            t.accepts += m.reactor.map_or(0, |r| r.accepts);
        }
        t
    }

    fn gateway_metrics(&self, client: &ServeClient) -> GatewayMetrics {
        let response = client
            .forward("GET", "/metrics", None)
            .expect("gateway metrics");
        let text = response.text().expect("metrics body is text");
        GatewayMetrics::from_json(&parse(&text).expect("metrics json")).expect("metrics decode")
    }
}

/// Backend counters summed over the fleet.
#[derive(Debug, Clone, Copy, Default)]
struct Totals {
    hits: u64,
    misses: u64,
    rejected: u64,
    queue_wait_ms: u64,
    exec_ms: u64,
    accepts: u64,
}

/// One finished request.
#[derive(Debug)]
struct Sample {
    spec_id: u64,
    ms: f64,
    result: Result<String, ClientError>,
}

/// What a set-up leaves behind.
struct Setup {
    fleet: Fleet,
    stream: MixStream,
    samples: Vec<Sample>,
    specs: BTreeMap<u64, JobSpec>,
    /// Relay faults injected before this set-up began (the failure
    /// accounting covers the fleet that outlives set-up).
    fires_at_start: u64,
}

/// Requests served sequentially during set-up after the pool (one
/// shuffled block), so the set-up's hit/miss counts are exact.
fn warm_requests(stream: &MixStream) -> u64 {
    stream.block_len()
}

fn set_up(seed: u64) -> Setup {
    let fires_at_start = relay_fires();
    let suite = public_suite().expect("suite generates");
    let pool: Vec<(JobSpec, usize)> = PUBLIC_ROWS
        .iter()
        .map(|&row| {
            let b = suite.iter().find(|b| b.name == row).expect("public row");
            (
                JobSpec::for_network(row, &b.network),
                b.network.inputs().len(),
            )
        })
        .collect();
    let stream = MixStream::new(seed, pool);
    let fleet = Fleet::start();
    let client = ServeClient::new(fleet.gateway_addr());
    let mut samples = Vec::new();
    let mut specs = BTreeMap::new();
    for (row, spec) in stream.pool().iter().enumerate() {
        samples.push(send(&client, row as u64, spec));
        specs.insert(row as u64, spec.clone());
    }
    for index in 0..warm_requests(&stream) {
        let req = stream.request(index);
        samples.push(send(&client, req.spec_id, &req.spec));
        specs.insert(req.spec_id, req.spec);
    }
    Setup {
        fleet,
        stream,
        samples,
        specs,
        fires_at_start,
    }
}

fn send(client: &ServeClient, spec_id: u64, spec: &JobSpec) -> Sample {
    let start = Instant::now();
    let result = client.run_sync(spec);
    Sample {
        spec_id,
        ms: start.elapsed().as_secs_f64() * 1e3,
        result,
    }
}

/// Runs the closed loop for `budget` from stream position `next`, one
/// client per thread; client `i` records spans into `tracers[i]` when
/// given. Returns the samples, the window's wall time and the specs sent.
fn mix_window(
    fleet: &Fleet,
    stream: &MixStream,
    next: &AtomicU64,
    budget: Duration,
    tracers: &mut [Tracer],
) -> (Vec<Sample>, f64, BTreeMap<u64, JobSpec>) {
    let addr = fleet.gateway_addr();
    let start = Instant::now();
    let mut slots: Vec<Option<&mut Tracer>> = tracers.iter_mut().map(Some).collect();
    slots.resize_with(CLIENTS, || None);
    let results: Vec<(Vec<Sample>, BTreeMap<u64, JobSpec>, Instant)> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = slots
                .into_iter()
                .map(|mut tracer| {
                    let client = ServeClient::new(addr.clone());
                    scope.spawn(move || {
                        let mut samples = Vec::new();
                        let mut specs = BTreeMap::new();
                        let mut last = start;
                        while start.elapsed() < budget {
                            let index = next.fetch_add(1, Ordering::SeqCst);
                            let req = stream.request(index);
                            let span = tracer
                                .as_deref_mut()
                                .map(|tr| tr.open("serve.ServeClient::run_sync", index));
                            samples.push(send(&client, req.spec_id, &req.spec));
                            if let (Some(tr), Some(span)) = (tracer.as_deref_mut(), span) {
                                tr.close(span);
                            }
                            last = Instant::now();
                            specs.insert(req.spec_id, req.spec);
                        }
                        (samples, specs, last)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
    let mut samples = Vec::new();
    let mut specs = BTreeMap::new();
    let mut end = start;
    for (s, sp, last) in results {
        samples.extend(s);
        specs.extend(sp);
        end = end.max(last);
    }
    (samples, (end - start).as_secs_f64(), specs)
}

/// Runs `gateway_mix` and fills `report`.
pub fn run(seed: u64, seconds: u64, traced: bool, report: &mut Report, tr: &mut Tracer) {
    let (setup, setup_times) = timed_setups(SETUPS, || set_up(seed), |s: Setup| s.fleet.stop());
    report.set("setup_s", median(&setup_times));
    // Equal work on every commit: set-up serves a fixed request count,
    // while the timed window's count (and the registry and caches it
    // grows) depends on speed.
    report.set("peak_rss_mb", peak_rss_mib());
    let Setup {
        fleet,
        stream,
        samples: setup_samples,
        mut specs,
        fires_at_start,
    } = setup;
    let setup_totals = fleet.backend_totals();
    report.count("setup_cache_hits", setup_totals.hits);
    report.count("setup_cache_misses", setup_totals.misses);
    report.detail(
        "stream_digest",
        Json::Str(format!("{:016x}", stream_digest(&stream))),
    );

    let budget = Duration::from_secs(seconds);
    let next = AtomicU64::new(warm_requests(&stream));
    let (untraced, window_s, sent) = mix_window(
        &fleet,
        &stream,
        &next,
        if traced { budget / 3 } else { budget },
        &mut [],
    );
    specs.extend(sent);

    let mut traced_samples = Vec::new();
    let control = ServeClient::new(fleet.gateway_addr());
    if traced {
        let before = fleet.backend_totals();
        let gw_before = fleet.gateway_metrics(&control);
        let mut tracers: Vec<Tracer> = (0..CLIENTS).map(|_| Tracer::new(tr.epoch())).collect();
        let (samples, _, sent) = mix_window(&fleet, &stream, &next, budget / 3, &mut tracers);
        for t in tracers {
            tr.absorb(t);
        }
        specs.extend(sent);
        let after = fleet.backend_totals();
        let gw_after = fleet.gateway_metrics(&control);
        let requests = samples.len() as f64;
        let misses = (after.misses - before.misses) as f64;
        let hits = (after.hits - before.hits) as f64;
        if misses > 0.0 {
            report.set(
                "serve.queue_wait_ms_per_miss",
                (after.queue_wait_ms - before.queue_wait_ms) as f64 / misses,
            );
            report.set(
                "serve.exec_ms_per_miss",
                (after.exec_ms - before.exec_ms) as f64 / misses,
            );
        }
        report.set("serve.cache_hit_ratio", hits / (hits + misses).max(1.0));
        report.set("serve.rejected", (after.rejected - before.rejected) as f64);
        let gw_accepts = |m: &GatewayMetrics| m.reactor.map_or(0, |r| r.accepts);
        report.set(
            "reactor.accepts_per_request",
            ((gw_accepts(&gw_after) - gw_accepts(&gw_before)) + (after.accepts - before.accepts))
                as f64
                / requests.max(1.0),
        );
        report.set(
            "fleet.failovers",
            (gw_after.failovers - gw_before.failovers) as f64,
        );
        report.set(
            "fleet.coalesced",
            (gw_after.coalesced - gw_before.coalesced) as f64,
        );
        let p50 = |s: &[Sample]| median(&ok_latencies(s));
        report.set(
            "trace.overhead_pct",
            100.0 * (p50(&samples) - p50(&untraced)) / p50(&untraced),
        );
        traced_samples = samples;
        probes(&fleet, &stream, seed, report, tr);
    }
    let gw_final = fleet.gateway_metrics(&control);
    drop(control);
    fleet.stop();

    // Output checks over every request of the run.
    let golden = Golden::load();
    let mut reference: BTreeMap<u64, Result<String, String>> = BTreeMap::new();
    let mut outcomes = Vec::new();
    for (&id, spec) in &specs {
        let job = spec.clone().resolve().expect("spec resolves");
        let want = run_job(&job)
            .map(|o| {
                if let Some(row) = PUBLIC_ROWS.get(id as usize) {
                    let check = Check::Golden(row.to_string());
                    if let Err(e) = check_outcome(&check, &job.network, &o, &golden) {
                        report.wrong(e);
                    }
                    outcomes.push(o.clone());
                }
                o.to_json().serialize()
            })
            .map_err(|e| e.to_string());
        reference.insert(id, want);
    }
    // A served body is right only if it equals a reference; a failed
    // request is a failed op, not a wrong one.
    let wrong = |s: &Sample| match (&s.result, reference.get(&s.spec_id)) {
        (Ok(body), Some(Ok(want))) => body != want,
        (Ok(_), _) => true,
        (Err(_), _) => false,
    };
    let all_samples = || setup_samples.iter().chain(&untraced).chain(&traced_samples);
    let wrong_ops = all_samples().filter(|s| wrong(s)).count() as u64;
    if wrong_ops > 0 {
        report.wrong(format!(
            "{wrong_ops} responses differ from an in-process run_job of the same spec"
        ));
    }
    let failed_setup = setup_samples.iter().filter(|s| s.result.is_err()).count() as u64;
    let measured: Vec<&Sample> = untraced.iter().chain(&traced_samples).collect();
    let failed = measured
        .iter()
        .filter(|s| s.result.is_err() || wrong(s))
        .count() as u64;
    let refused = measured
        .iter()
        .filter(|s| matches!(s.result, Err(ClientError::Api { status: 429, .. })))
        .count();
    report.attempted = measured.len() as u64;
    report.failed = failed;
    report.count("attempted_ops", measured.len() as u64);
    report.count("failed_ops", failed);
    report.count("refused_ops", refused as u64);
    report.count("setup_failed_ops", failed_setup);
    report.count(
        "latency_samples",
        (ok_latencies(&untraced).len() + ok_latencies(&traced_samples).len()) as u64,
    );
    report.count("failpoint_fires", relay_fires() - fires_at_start);
    report.count("failovers", gw_final.failovers);
    report.count("distinct_specs", specs.len() as u64);

    // End-to-end, from the untraced window.
    let lat = ok_latencies(&untraced);
    let untraced_failed = untraced
        .iter()
        .filter(|s| s.result.is_err() || wrong(s))
        .count();
    report.set("jobs_per_s", lat.len() as f64 / window_s);
    if lat.is_empty() {
        // Nothing succeeded: no latency to report; ok_pct says why.
        report.set("op_ms_p50", 0.0);
        report.set("op_ms_tail", 0.0);
    } else {
        report.set("op_ms_p50", median(&lat));
        record_tail(report, &lat);
    }
    report.set(
        "ok_pct",
        100.0 * (untraced.len() - untraced_failed) as f64 / untraced.len().max(1) as f64,
    );
    if outcomes.len() != PUBLIC_ROWS.len() {
        report.set("mp_power_ma", 0.0);
        report.set("mp_cells", 0.0);
    } else {
        let mp: Vec<_> = outcomes
            .iter()
            .filter_map(|o: &FlowOutcome| o.mp.clone())
            .collect();
        report.set(
            "mp_power_ma",
            geomean(&mp.iter().map(|r| r.power_ma()).collect::<Vec<_>>()),
        );
        report.set(
            "mp_cells",
            geomean(&mp.iter().map(|r| r.size as f64).collect::<Vec<_>>()),
        );
    }
}

fn ok_latencies(samples: &[Sample]) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.result.is_ok())
        .map(|s| s.ms)
        .collect()
}

/// Injected relay faults so far in this process.
fn relay_fires() -> u64 {
    domino_failpoint::snapshot()
        .iter()
        .filter(|s| s.site == RELAY_SITE)
        .map(|s| s.fires)
        .sum()
}

/// FNV-1a over the first blocks of the stream (spec ids and profiles):
/// equal digests mean equal request streams.
fn stream_digest(stream: &MixStream) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for index in 0..4 * stream.block_len() {
        let req = stream.request(index);
        for b in req
            .spec
            .to_json()
            .serialize()
            .bytes()
            .chain(req.spec_id.to_le_bytes())
        {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The traced run's direct probes, outside any timed window.
fn probes(fleet: &Fleet, stream: &MixStream, seed: u64, report: &mut Report, tr: &mut Tracer) {
    let id = PROBE_SPAN_ID;
    let mut key_us = Vec::new();
    let mut probe_us = Vec::new();
    let mut hit_rtt = Vec::new();
    let mut hop = Vec::new();
    let gw = ServeClient::new(fleet.gateway_addr());
    for (row, spec) in stream.pool().iter().enumerate() {
        let body = spec.to_json().serialize();
        let parse_ms: Vec<f64> = (0..5)
            .map(|_| {
                tr.time("engine.json::parse+JobSpec::from_json", id, || {
                    JobSpec::from_json(&parse(&body).expect("body parses")).expect("spec decodes")
                })
                .1
            })
            .collect();
        report.set(
            &format!("engine.spec_parse_ms.{}", PUBLIC_ROWS[row]),
            median(&parse_ms),
        );
        let job = spec.clone().resolve().expect("spec resolves");
        let key = job.cache_key().to_string();
        let us: Vec<f64> = (0..21)
            .map(|_| {
                let (s, n) = (spec.clone(), job.network.clone());
                tr.time("engine.FlowJob::new", id, || FlowJob::new(s, n)).1 * 1e3
            })
            .collect();
        key_us.push(median(&us));
        // The backend that holds the warm entry (peek counts nothing).
        let home = fleet
            .caches
            .iter()
            .position(|c| c.peek(&key).is_some())
            .expect("pool spec is warm on some backend");
        let us: Vec<f64> = (0..101)
            .map(|_| {
                tr.time("engine.ResultCache::probe", id, || {
                    fleet.caches[home].probe(&key)
                })
                .1 * 1e3
            })
            .collect();
        probe_us.push(median(&us));
        let direct = ServeClient::new(fleet.backends[home].addr().to_string());
        let rtt = |client: &ServeClient, tr: &mut Tracer, name: &str| -> f64 {
            let ms: Vec<f64> = (0..5)
                .map(|_| {
                    let (r, ms) = tr.time(name, id, || client.run_sync(spec));
                    r.expect("warm probe succeeds");
                    ms
                })
                .collect();
            median(&ms)
        };
        let direct_ms = rtt(&direct, tr, "serve.direct_hit");
        let gw_ms = rtt(&gw, tr, "fleet.gateway_hit");
        hit_rtt.push(direct_ms);
        hop.push(gw_ms - direct_ms);
    }
    report.set("engine.key_us", mean(&key_us));
    report.set("engine.cache_probe_us", mean(&probe_us));
    report.set("serve.hit_rtt_ms", mean(&hit_rtt));
    report.set("fleet.hop_ms", mean(&hop));

    // Cold requests sent straight to one backend: round trip minus its
    // own queue wait, execution and spec parse leaves the reply-pump wait.
    let backend = &fleet.backends[0];
    let direct = ServeClient::new(backend.addr().to_string());
    let before = backend.metrics();
    let mut rtt = Vec::new();
    let mut parse_total = 0.0;
    for round in 0..2u64 {
        for (row, spec) in stream.pool().iter().enumerate() {
            let mut spec = spec.clone();
            let inputs = spec
                .clone()
                .resolve()
                .expect("spec resolves")
                .network
                .inputs()
                .len();
            spec.pi = domino_engine::PiSpec::PerInput(fresh_profile(
                seed ^ 0x5052_4f42_4553 ^ (round << 8 | row as u64),
                inputs,
            ));
            let body = spec.to_json().serialize();
            let (r, ms) = tr.time("serve.direct_miss", id, || direct.run_sync(&spec));
            r.expect("cold probe succeeds");
            rtt.push(ms);
            parse_total += {
                let start = Instant::now();
                let _ = JobSpec::from_json(&parse(&body).expect("body parses"));
                start.elapsed().as_secs_f64() * 1e3
            };
        }
    }
    let after = backend.metrics();
    let n = rtt.len() as f64;
    report.set("serve.miss_rtt_ms", mean(&rtt));
    let server_ms =
        (after.exec_ms - before.exec_ms + after.queue_wait_ms - before.queue_wait_ms) as f64;
    report.set(
        "serve.miss_wait_ms",
        (rtt.iter().sum::<f64>() - server_ms - parse_total) / n,
    );
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}
