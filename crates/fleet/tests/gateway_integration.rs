//! End-to-end acceptance tests for the `dominogw` fleet gateway:
//!
//! * **byte-identity through the gateway** — outcomes fetched via the
//!   gateway are byte-identical to direct single-node runs and to local
//!   serial `FlowEngine` runs, with concurrent clients;
//! * **cache peering** — a key computed on one backend is answered warm
//!   by a *different* backend (which never computed it) after the
//!   gateway's peek-before-route fill;
//! * **deterministic failover** — killing a key's home backend reroutes
//!   the next submission to the rendezvous runner-up;
//! * **backpressure propagation** — a backend's `429` + `Retry-After`
//!   reaches the gateway's caller verbatim and is never failed over;
//! * **id scoping** — callers only ever see gateway-assigned ids, across
//!   submit, status, result, cancel and the event stream;
//! * **relay failures** — a refused connection on any relay marks the
//!   backend down, and a failed sync leader leaves nothing to replay.

use std::sync::Arc;

use domino_engine::json::parse;
use domino_engine::{CircuitSource, FlowEngine, JobSpec, ResultCache};
use domino_fleet::{hash, Gateway, GatewayConfig, GatewayMetrics};
use domino_serve::front::FrontConfig;
use domino_serve::{ClientError, EventKind, JobStatus, ServeClient, ServeConfig, Server};

fn public_specs() -> Vec<JobSpec> {
    domino_workloads::public_row_names()
        .iter()
        .map(|name| {
            let mut spec = JobSpec::suite(name);
            spec.sim.cycles = 512;
            spec.sim.warmup = 8;
            spec
        })
        .collect()
}

fn local_outcome_json(spec: &JobSpec) -> String {
    let job = spec.clone().resolve().expect("spec resolves");
    let results = FlowEngine::serial().run_batch(&[job]);
    results[0]
        .outcome()
        .expect("local run completes")
        .to_json()
        .serialize()
}

fn start_backend(cache: Option<Arc<ResultCache>>) -> (Server, String) {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_capacity: 16,
        cache,
        // Short idle timeout: shutdown drains wait for idle kept-alive
        // connections, and tests open many clients.
        front: FrontConfig {
            idle_timeout_ms: 1_000,
            ..FrontConfig::default()
        },
        ..ServeConfig::default()
    })
    .expect("backend binds");
    let addr = server.addr().to_string();
    (server, addr)
}

fn start_gateway(backends: Vec<String>) -> (Gateway, ServeClient) {
    let gateway = Gateway::start(GatewayConfig {
        addr: "127.0.0.1:0".into(),
        backends,
        probe_interval: std::time::Duration::from_millis(100),
        front: FrontConfig {
            idle_timeout_ms: 1_000,
            ..FrontConfig::default()
        },
    })
    .expect("gateway binds");
    let client = ServeClient::new(gateway.addr().to_string());
    (gateway, client)
}

fn gateway_metrics(client: &ServeClient) -> GatewayMetrics {
    let response = client.forward("GET", "/metrics", None).expect("metrics");
    let v = parse(&response.text().expect("utf-8")).expect("json");
    GatewayMetrics::from_json(&v).expect("decodes")
}

/// The routing key the gateway will compute for `spec`.
fn routing_key(spec: &JobSpec) -> String {
    spec.clone()
        .resolve()
        .expect("resolves")
        .cache_key()
        .to_string()
}

/// A variant of `base` (tweaked simulation budget, so a distinct cache
/// key) whose rendezvous home among `backends` is `want`. The search is
/// deterministic: the hash only depends on addresses and the key.
fn spec_homed_on(base: &JobSpec, backends: &[&str], want: &str) -> JobSpec {
    let mut spec = base.clone();
    for cycles in (256..512).step_by(8) {
        spec.sim.cycles = cycles;
        let key = routing_key(&spec);
        if hash::rank(backends, &key)[0] == want {
            return spec;
        }
    }
    panic!("no spec variant homed on {want}");
}

#[test]
fn gateway_outcomes_are_byte_identical_to_direct_runs() {
    let specs = public_specs();
    let expected: Vec<String> = specs.iter().map(local_outcome_json).collect();

    let (backend_a, addr_a) = start_backend(Some(Arc::new(ResultCache::in_memory())));
    let (backend_b, addr_b) = start_backend(Some(Arc::new(ResultCache::in_memory())));
    let (gateway, client) = start_gateway(vec![addr_a.clone(), addr_b.clone()]);

    // Concurrent clients submit the full suite through the gateway.
    let clients = 3;
    std::thread::scope(|scope| {
        for _ in 0..clients {
            let (client, specs, expected) = (client.clone(), &specs, &expected);
            scope.spawn(move || {
                for (spec, want) in specs.iter().zip(expected) {
                    let admitted = client.submit(spec).expect("admitted");
                    let got = client.result(admitted.id, true).expect("job completes");
                    assert_eq!(&got, want, "gateway outcome differs from local run");
                }
            });
        }
    });

    // Sync mode rides through too, byte-identical.
    let sync = client.run_sync(&specs[0]).expect("sync submit");
    assert_eq!(&sync, &expected[0]);

    // Direct single-node check: ask the home backend for the same spec.
    let key = routing_key(&specs[0]);
    let home = hash::rank(&[addr_a.as_str(), addr_b.as_str()], &key)[0];
    let direct = ServeClient::new(home.to_string());
    assert_eq!(direct.run_sync(&specs[0]).expect("direct run"), expected[0]);

    let metrics = gateway_metrics(&client);
    assert_eq!(
        metrics.routed,
        (clients * specs.len()) as u64 + 1,
        "every submission was forwarded"
    );
    assert_eq!(metrics.unroutable, 0);
    assert_eq!(metrics.failovers, 0, "healthy fleet never fails over");

    gateway.shutdown();
    backend_a.shutdown();
    backend_b.shutdown();
}

#[test]
fn cache_peering_lets_an_uncomputed_backend_answer_warm() {
    let cache_a = Arc::new(ResultCache::in_memory());
    let cache_b = Arc::new(ResultCache::in_memory());
    let (backend_a, addr_a) = start_backend(Some(Arc::clone(&cache_a)));
    let (backend_b, addr_b) = start_backend(Some(Arc::clone(&cache_b)));

    // A spec homed on B — but computed cold on A, directly, before the
    // gateway ever routes it.
    let spec = spec_homed_on(
        &public_specs()[0],
        &[addr_a.as_str(), addr_b.as_str()],
        &addr_b,
    );
    let direct_a = ServeClient::new(addr_a.clone());
    let computed_on_a = direct_a.run_sync(&spec).expect("cold run on A");
    assert!(cache_a.stats().misses > 0, "A computed it cold");

    // Routed through the gateway, the job homes on B; the peek-fill pass
    // moves A's entry into B before forwarding, so B answers warm without
    // ever running the flow.
    let (gateway, client) = start_gateway(vec![addr_a.clone(), addr_b.clone()]);
    let admitted = client.submit(&spec).expect("admitted");
    let status = client.status(admitted.id, true).expect("terminal");
    assert_eq!(status.status, JobStatus::Completed);
    assert_eq!(status.cached, Some(true), "B answered from cache");
    let via_gateway = client.result(admitted.id, false).expect("stored");
    assert_eq!(via_gateway, computed_on_a, "peer-warmed bytes identical");

    let b_stats = cache_b.stats();
    assert_eq!(b_stats.misses, 0, "B never computed anything");
    assert!(b_stats.stores >= 1, "B holds the peered entry");
    let metrics = gateway_metrics(&client);
    assert_eq!(metrics.peer_fills, 1, "exactly one peek-fill");

    gateway.shutdown();
    backend_a.shutdown();
    backend_b.shutdown();
}

#[test]
fn killing_a_backend_reroutes_to_the_rendezvous_runner_up() {
    let (backend_a, addr_a) = start_backend(Some(Arc::new(ResultCache::in_memory())));
    let (backend_b, addr_b) = start_backend(Some(Arc::new(ResultCache::in_memory())));
    let backends = [addr_a.as_str(), addr_b.as_str()];

    let spec = spec_homed_on(&public_specs()[0], &backends, &addr_b);
    let expected = local_outcome_json(&spec);
    let key = routing_key(&spec);
    assert_eq!(
        hash::rank(&backends, &key),
        vec![addr_b.as_str(), addr_a.as_str()]
    );

    // Long probe interval: the *routing path* must discover the death,
    // not the prober.
    let gateway = Gateway::start(GatewayConfig {
        addr: "127.0.0.1:0".into(),
        backends: vec![addr_a.clone(), addr_b.clone()],
        probe_interval: std::time::Duration::from_secs(3600),
        front: FrontConfig {
            idle_timeout_ms: 1_000,
            ..FrontConfig::default()
        },
    })
    .expect("gateway binds");
    let client = ServeClient::new(gateway.addr().to_string());

    // Kill the home backend, then submit: connect-refused fails over to
    // the runner-up and the job still completes with identical bytes.
    backend_b.shutdown();
    let got = client.run_sync(&spec).expect("failover run");
    assert_eq!(got, expected, "failover preserved byte-identity");

    let metrics = gateway_metrics(&client);
    assert_eq!(metrics.failovers, 1);
    let b_entry = metrics
        .backends
        .iter()
        .find(|b| b.addr == addr_b)
        .expect("B is listed");
    assert!(!b_entry.healthy, "B is marked down");
    assert_eq!(b_entry.down_transitions, 1, "one down transition");

    // Subsequent submissions route straight to A — no more failovers.
    let again = client.run_sync(&spec).expect("rerouted run");
    assert_eq!(again, expected);
    assert_eq!(gateway_metrics(&client).failovers, 1);

    gateway.shutdown();
    backend_a.shutdown();
}

#[test]
fn backend_backpressure_reaches_the_caller_verbatim() {
    // One worker, one queue slot, no cache: easy to overflow.
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_capacity: 1,
        cache: None,
        ..ServeConfig::default()
    })
    .expect("backend binds");
    let (gateway, client) = start_gateway(vec![server.addr().to_string()]);

    let mut slow = JobSpec::suite("apex7");
    slow.name = "slowpoke".into();
    slow.sim.cycles = 1 << 20;
    let running = client.submit(&slow).expect("admitted");
    loop {
        let status = client.status(running.id, false).expect("known job");
        if status.status == JobStatus::Running {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let mut queued = public_specs().remove(1);
    queued.name = "queued".into();
    let queued = client.submit(&queued).expect("fits the queue");

    // The backend's 429 + Retry-After must reach us unchanged, and the
    // gateway must not "helpfully" retry it elsewhere.
    match client.submit(&public_specs()[0]) {
        Err(ClientError::Api {
            status: 429,
            retry_after,
            ..
        }) => assert_eq!(retry_after, Some(1), "Retry-After propagated"),
        other => panic!("expected 429 through the gateway, got {other:?}"),
    }
    let metrics = gateway_metrics(&client);
    assert_eq!(metrics.rejected, 1);
    assert_eq!(metrics.failovers, 0, "backpressure is never failed over");

    // Cancelling through the gateway frees the slot (gateway-scoped id).
    let cancelled = client.cancel(queued.id).expect("known job");
    assert_eq!(cancelled.status, JobStatus::Cancelled);
    assert_eq!(cancelled.id, queued.id, "reply carries the gateway id");
    client.cancel(running.id).expect("stop the slow job");

    gateway.shutdown();
    server.shutdown();
}

#[test]
fn job_ids_and_event_streams_are_gateway_scoped() {
    let (backend_a, addr_a) = start_backend(None);
    let (backend_b, addr_b) = start_backend(None);
    let (gateway, client) = start_gateway(vec![addr_a, addr_b]);

    // Submit several jobs so gateway ids and backend-local ids diverge
    // (two backends each assign their own 1, 2, ... sequence).
    let mut spec = public_specs().swap_remove(0);
    spec.sim.cycles = 256;
    let ids: Vec<u64> = (0..4)
        .map(|i| {
            let mut spec = spec.clone();
            spec.sim.cycles = 256 + i * 8; // distinct keys, both backends used
            client.submit(&spec).expect("admitted").id
        })
        .collect();
    let mut unique = ids.clone();
    unique.dedup();
    assert_eq!(unique, ids, "gateway ids are strictly increasing");

    for &id in &ids {
        let status = client.status(id, true).expect("terminal");
        assert_eq!(status.id, id, "status carries the gateway id");
        assert_eq!(status.status, JobStatus::Completed);
        client.result(id, false).expect("result by gateway id");
    }

    // The event stream is re-emitted with the gateway's id on every line.
    let mut spec = spec.clone();
    spec.sim.cycles = 300;
    let id = client.submit(&spec).expect("admitted").id;
    let events = client.events(id, |_| {}).expect("stream completes");
    assert!(!events.is_empty());
    assert!(events.iter().all(|e| e.id == id), "all events rewritten");
    assert_eq!(events.last().map(|e| e.kind), Some(EventKind::Finished));

    // An id the gateway never assigned is 404, even though some backend
    // does have a job numbered 1.
    match client.status(999, false) {
        Err(ClientError::Api { status: 404, .. }) => {}
        other => panic!("expected 404 for a foreign id, got {other:?}"),
    }

    gateway.shutdown();
    backend_a.shutdown();
    backend_b.shutdown();
}

/// `POST /shutdown` closes admissions before it answers: a submission
/// sent as soon as the 200 is read is refused — a 503 "gateway is
/// draining" if its connection is still open, else the closed connection
/// itself — and never relayed to a backend.
#[test]
fn submissions_after_the_shutdown_answer_are_refused() {
    let (backend, backend_addr) = start_backend(None);
    let (mut gateway, client) = start_gateway(vec![backend_addr]);
    let spec = public_specs().swap_remove(1);
    // Warm the client's connection pool so the submission below can go
    // out on an already open connection.
    client.healthz().expect("gateway is up");
    client.shutdown().expect("shutdown accepted");
    match client.submit(&spec) {
        Err(ClientError::Api {
            status: 503, error, ..
        }) if error.contains("gateway is draining") => {}
        Err(ClientError::Unreachable(_) | ClientError::Io(_)) => {}
        other => panic!("expected refusal during the drain, got {other:?}"),
    }
    gateway.wait();
    assert_eq!(backend.metrics().submitted, 0, "no job reached the backend");
    backend.shutdown();
}

/// A `Gateway` dropped without `shutdown()` drains like one shut down:
/// once the drop returns, new connections are refused.
#[test]
fn dropped_gateway_refuses_new_connections() {
    let (backend, backend_addr) = start_backend(None);
    let (gateway, client) = start_gateway(vec![backend_addr]);
    client.healthz().expect("gateway is up");
    let addr = gateway.addr();
    drop(gateway);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while std::net::TcpStream::connect(addr).is_ok() {
        assert!(
            std::time::Instant::now() < deadline,
            "a dropped gateway still accepts connections"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    backend.shutdown();
}

/// A `blif_path` source gets a 400 at the gateway before it is routed,
/// even when the path names a valid BLIF file; the gateway then routes a
/// normal job to completion.
#[test]
fn blif_path_sources_are_refused_before_routing() {
    let dir = std::env::temp_dir().join(format!("dominolp-gw-path-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("and2.blif");
    std::fs::write(
        &path,
        ".model m\n.inputs a b\n.outputs f\n.names a b f\n11 1\n.end\n",
    )
    .expect("write BLIF");
    let (backend, backend_addr) = start_backend(None);
    let (gateway, client) = start_gateway(vec![backend_addr]);
    let mut spec = JobSpec::suite("pathy");
    spec.source = CircuitSource::BlifPath(path.display().to_string());
    match client.submit(&spec) {
        Err(ClientError::Api {
            status: 400, error, ..
        }) => assert!(error.contains("blif_path"), "{error}"),
        other => panic!("expected 400, got {other:?}"),
    }
    assert_eq!(gateway_metrics(&client).routed, 0);
    assert_eq!(backend.metrics().submitted, 0, "no job reached the backend");

    let id = client.submit(&public_specs()[0]).expect("admitted").id;
    let status = client.status(id, true).expect("terminal");
    assert_eq!(status.status, JobStatus::Completed);
    assert_eq!(gateway_metrics(&client).routed, 1);
    assert_eq!(backend.metrics().submitted, 1);
    gateway.shutdown();
    backend.shutdown();
    std::fs::remove_dir_all(&dir).expect("clean up");
}

/// A backend whose event stream dies mid-relay must leave the gateway's
/// caller with a visibly *truncated* stream (an I/O error) — never a
/// well-formed, terminated stream missing its terminal event. Uses a
/// scripted fake backend so the mid-stream death is deterministic.
#[test]
fn truncated_backend_event_stream_is_not_forged_complete() {
    use domino_serve::front::{HttpFront, Responder};
    use domino_serve::http::Request;
    use domino_serve::{EventRecord, StatusReply, SubmitReply};
    use std::net::TcpListener;

    let listener = TcpListener::bind("127.0.0.1:0").expect("fake backend binds");
    let addr = listener.local_addr().expect("addr").to_string();
    let spec = {
        let mut spec = public_specs().swap_remove(0);
        spec.sim.cycles = 256;
        spec
    };
    let key = routing_key(&spec);

    // The scripted backend, served by the production front: health and
    // submit answer normally; the status probe reports the job running;
    // the event stream emits one event and then dies without the chunked
    // terminator.
    let front = HttpFront::bind(
        listener,
        "fake-backend",
        FrontConfig {
            max_connections: 64,
            ..FrontConfig::default()
        },
    )
    .expect("fake backend front");
    let fake = front.handle();
    let reactor = std::thread::spawn(move || {
        front.run(Arc::new(move |request: Request, responder: Responder| {
            match (request.method.as_str(), request.path.as_str()) {
                ("POST", "/jobs") => {
                    let reply = SubmitReply {
                        id: 7,
                        name: "fake".into(),
                        key: key.clone(),
                        status: JobStatus::Queued,
                        queue_depth: 1,
                    };
                    responder.respond(202, &[], reply.to_json().serialize().as_bytes());
                }
                ("GET", "/jobs/7") => {
                    let reply = StatusReply {
                        id: 7,
                        name: "fake".into(),
                        key: key.clone(),
                        status: JobStatus::Running,
                        cached: None,
                        queue_ms: Some(0),
                        exec_ms: None,
                        error: None,
                        outcome: None,
                    };
                    responder.respond(200, &[], reply.to_json().serialize().as_bytes());
                }
                ("GET", "/jobs/7/events") => {
                    let record = EventRecord {
                        seq: 0,
                        id: 7,
                        kind: EventKind::Queued,
                        name: "fake".into(),
                        cached: None,
                        elapsed_ms: None,
                        error: None,
                    };
                    let line = format!("{}\n", record.to_json().serialize());
                    let mut stream = responder.begin_stream(200);
                    stream.chunk(line.as_bytes());
                    // Die mid-stream: dropping the handle without
                    // `finish` aborts the connection with no terminator.
                }
                // Health probes and anything else.
                _ => responder.respond(200, &[], b"{\"status\":\"ok\"}"),
            }
        }))
    });

    let (gateway, client) = start_gateway(vec![addr]);
    let id = client.submit(&spec).expect("admitted through gateway").id;
    match client.events(id, |_| {}) {
        Err(ClientError::Io(_)) => {}
        other => panic!("a truncated backend stream must surface as an I/O error, got {other:?}"),
    }
    gateway.shutdown();
    fake.shutdown();
    reactor
        .join()
        .expect("fake backend reactor")
        .expect("fake backend runs");
}

/// The events relay marks a backend down when its status probe's
/// connection is refused, like the submit and fetch relays: the caller
/// gets a 502, and `/metrics` shows the backend unhealthy before any
/// health probe could have run.
#[test]
fn events_relay_marks_a_refusing_backend_down() {
    let (backend_a, addr_a) = start_backend(None);
    let (backend_b, addr_b) = start_backend(None);
    let mut base = public_specs().swap_remove(0);
    base.sim.cycles = 256;
    let spec = spec_homed_on(&base, &[addr_a.as_str(), addr_b.as_str()], &addr_b);

    // A day-long probe interval: only the relay can notice the death.
    let gateway = Gateway::start(GatewayConfig {
        addr: "127.0.0.1:0".into(),
        backends: vec![addr_a.clone(), addr_b.clone()],
        probe_interval: std::time::Duration::from_secs(86_400),
        front: FrontConfig {
            idle_timeout_ms: 1_000,
            ..FrontConfig::default()
        },
    })
    .expect("gateway binds");
    let client = ServeClient::new(gateway.addr().to_string());
    let id = client.submit(&spec).expect("admitted on B").id;
    backend_b.shutdown();

    match client.events(id, |_| {}) {
        Err(ClientError::Api {
            status: 502, error, ..
        }) => assert!(error.contains(&addr_b), "{error}"),
        other => panic!("expected a 502 from the events relay, got {other:?}"),
    }
    let metrics = gateway_metrics(&client);
    let health = |addr: &str| {
        let entry = metrics.backends.iter().find(|b| b.addr == addr);
        entry.expect("backend is listed").clone()
    };
    assert!(!health(&addr_b).healthy, "the relay marked B down");
    assert_eq!(health(&addr_b).down_transitions, 1);
    assert!(health(&addr_a).healthy, "A is untouched");

    gateway.shutdown();
    backend_a.shutdown();
}

/// A sync leader whose backend exchange fails stores nothing: its caller
/// gets the 502, and the duplicate blocked on the gate leads a fresh
/// round trip instead of replaying the failure. The scripted backend
/// holds the first `POST /jobs` for 0.5 s, then aborts it before a
/// complete answer; the second gets a 200.
#[test]
fn failed_sync_leader_stores_nothing_and_the_duplicate_leads_again() {
    use domino_serve::front::{HttpFront, Responder};
    use domino_serve::http::Request;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::time::Duration;

    const OUTCOME: &str = "{\"name\":\"fake\",\"round_trip\":2}";
    let listener = TcpListener::bind("127.0.0.1:0").expect("fake backend binds");
    let addr = listener.local_addr().expect("addr").to_string();
    let front = HttpFront::bind(
        listener,
        "fake-backend",
        FrontConfig {
            max_connections: 64,
            ..FrontConfig::default()
        },
    )
    .expect("fake backend front");
    let fake = front.handle();
    let (leader_arrived, leader_at_backend) = std::sync::mpsc::channel();
    let posts = Arc::new(AtomicUsize::new(0));
    let leader_failed = Arc::new(AtomicBool::new(false));
    // Whether the leader's exchange had already failed when the second
    // `POST /jobs` arrived, i.e. whether the gate serialized the two.
    let second_after_failure = Arc::new(AtomicBool::new(false));
    let reactor = {
        let (posts, leader_failed, second_after_failure) = (
            Arc::clone(&posts),
            Arc::clone(&leader_failed),
            Arc::clone(&second_after_failure),
        );
        std::thread::spawn(move || {
            front.run(Arc::new(move |request: Request, responder: Responder| {
                match (request.method.as_str(), request.path.as_str()) {
                    ("POST", "/jobs") if posts.fetch_add(1, Ordering::SeqCst) == 0 => {
                        leader_arrived
                            .send(())
                            .expect("the test waits for the leader");
                        std::thread::sleep(Duration::from_millis(500));
                        leader_failed.store(true, Ordering::SeqCst);
                        // An unfinished stream aborts the connection.
                        drop(responder.begin_stream(200));
                    }
                    ("POST", "/jobs") => {
                        second_after_failure
                            .store(leader_failed.load(Ordering::SeqCst), Ordering::SeqCst);
                        responder.respond(200, &[], OUTCOME.as_bytes());
                    }
                    // Health probes and anything else.
                    _ => responder.respond(200, &[], b"{\"status\":\"ok\"}"),
                }
            }))
        })
    };

    let (gateway, client) = start_gateway(vec![addr.clone()]);
    let spec = public_specs().swap_remove(0);
    let leader = {
        let (client, spec) = (client.clone(), spec.clone());
        std::thread::spawn(move || client.run_sync(&spec))
    };
    // The duplicate goes out while the backend holds the leader's exchange.
    leader_at_backend
        .recv()
        .expect("the leader reaches the backend");
    let duplicate = client.run_sync(&spec);

    match leader.join().expect("leader thread") {
        Err(ClientError::Api {
            status: 502, error, ..
        }) => assert!(error.contains(&addr), "{error}"),
        other => panic!("expected the failed leader's 502, got {other:?}"),
    }
    assert_eq!(duplicate.expect("the duplicate leads again"), OUTCOME);
    assert_eq!(posts.load(Ordering::SeqCst), 2, "one round trip each");
    assert!(
        second_after_failure.load(Ordering::SeqCst),
        "the duplicate waited on the gate for the leader's failure"
    );
    assert_eq!(
        gateway_metrics(&client).coalesced,
        0,
        "nothing was replayed"
    );

    gateway.shutdown();
    fake.shutdown();
    reactor
        .join()
        .expect("fake backend reactor")
        .expect("fake backend runs");
}
