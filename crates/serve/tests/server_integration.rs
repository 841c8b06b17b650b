//! End-to-end acceptance tests for the `dominod` wire protocol:
//!
//! * **determinism across the wire** — for any spec, the outcome JSON
//!   fetched from the server is byte-identical to a local serial
//!   `FlowEngine` run (what `dominoc run --jsonl` emits), cold or warm
//!   cache, with many concurrent clients and workers;
//! * **warm requests recompute nothing** — a second wave of identical
//!   submissions is answered entirely by the shared cache: the hit
//!   counter delta equals the request count and the miss counter is flat;
//! * **backpressure** — a full admission queue answers `429` +
//!   `Retry-After` while every *admitted* job still reaches a terminal
//!   state (nothing is silently dropped), and cancelling a queued job
//!   frees its slot;
//! * **event streams** — the chunked `/jobs/:id/events` feed delivers the
//!   dense `queued → started → finished` sequence and terminates;
//! * **graceful shutdown** — `POST /shutdown` drains admitted jobs before
//!   the workers exit, and the HTTP surface goes away afterwards.

use std::io::Write;
use std::sync::Arc;

use domino_engine::json::parse;
use domino_engine::{CircuitSource, FlowEngine, JobSpec, ResultCache};
use domino_serve::http::HttpConnection;
use domino_serve::{
    ClientError, EventKind, JobStatus, ServeClient, ServeConfig, Server, StatusReply,
};

/// The public-suite specs used throughout, with short simulations so the
/// debug-profile tests stay quick. Identical specs are what byte-identity
/// is claimed over.
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

/// A spec that keeps a debug-profile worker busy for a while (large
/// simulation budget, adaptive stop disabled by default).
fn slow_spec() -> JobSpec {
    let mut spec = JobSpec::suite("apex7");
    spec.name = "slowpoke".to_string();
    spec.sim.cycles = 65_536;
    spec
}

/// The reference bytes: what `dominoc run --jsonl` writes for `spec`.
fn local_outcome_json(spec: &JobSpec) -> String {
    let job = spec.clone().resolve().expect("spec resolves");
    let results = FlowEngine::serial().run_batch(&[job]);
    results[0]
        .outcome()
        .expect("local run completes")
        .to_json()
        .serialize()
}

fn start_server(config: ServeConfig) -> (Server, ServeClient) {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..config
    })
    .expect("ephemeral bind");
    let client = ServeClient::new(server.addr().to_string());
    (server, client)
}

#[test]
fn concurrent_submissions_are_byte_identical_to_local_runs() {
    let specs = public_specs();
    let expected: Vec<String> = specs.iter().map(local_outcome_json).collect();

    let cache = Arc::new(ResultCache::in_memory());
    let (server, client) = start_server(ServeConfig {
        workers: 4,
        queue_capacity: 64,
        cache: Some(Arc::clone(&cache)),
        ..ServeConfig::default()
    });

    // Cold wave: 3 clients submit the full suite concurrently (12 jobs).
    let clients = 3;
    std::thread::scope(|scope| {
        for _ in 0..clients {
            let (client, specs, expected) = (client.clone(), &specs, &expected);
            scope.spawn(move || {
                let ids: Vec<u64> = specs
                    .iter()
                    .map(|spec| client.submit(spec).expect("admitted").id)
                    .collect();
                for (id, want) in ids.iter().zip(expected) {
                    let got = client.result(*id, true).expect("job completes");
                    assert_eq!(&got, want, "wire outcome differs from local run");
                }
            });
        }
    });

    let cold = client.metrics().expect("metrics");
    assert_eq!(cold.completed, (clients * specs.len()) as u64);
    assert_eq!(cold.failed, 0);
    let cold_cache = cold.cache.expect("server runs cached");
    assert_eq!(cold_cache.misses + cold_cache.hits(), cold.completed);

    // Warm wave: every request must be answered by the cache — hit delta
    // == request count, zero new misses — and stay byte-identical.
    let warm_requests = specs.len() as u64;
    for (spec, want) in specs.iter().zip(&expected) {
        let id = client.submit(spec).expect("admitted").id;
        let status = client.status(id, true).expect("terminal");
        assert_eq!(status.status, JobStatus::Completed);
        assert_eq!(status.cached, Some(true), "warm request recomputed");
        assert_eq!(&client.result(id, false).expect("stored"), want);
    }
    let warm = client.metrics().expect("metrics");
    let warm_cache = warm.cache.expect("server runs cached");
    assert_eq!(
        warm_cache.hits() - cold_cache.hits(),
        warm_requests,
        "every warm request is a cache hit"
    );
    assert_eq!(
        warm_cache.misses, cold_cache.misses,
        "no warm recomputation"
    );
    assert_eq!(warm.warm - cold.warm, warm_requests);

    // Synchronous mode (`POST /jobs?wait=1`) serves the same exact bytes
    // in a single round trip.
    let sync = client.run_sync(&specs[0]).expect("sync submit");
    assert_eq!(&sync, &expected[0]);

    server.shutdown();
}

#[test]
fn restart_over_snapshot_dir_serves_first_request_without_kernel_builds() {
    let base = std::env::temp_dir().join(format!("dominolp-serve-snap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let snap_dir = base.join("snapshots");
    let mut spec = JobSpec::suite("frg1");
    spec.sim.cycles = 512;
    spec.sim.warmup = 8;
    let expected = local_outcome_json(&spec);

    // Cold "process": empty snapshot store, fresh result cache.
    let first = {
        let store = domino_engine::SnapshotStore::on_disk(&snap_dir).expect("snapshot dir");
        let (server, client) = start_server(ServeConfig {
            workers: 1,
            cache: Some(Arc::new(ResultCache::in_memory())),
            snapshots: Some(Arc::new(store)),
            ..ServeConfig::default()
        });
        let got = client.run_sync(&spec).expect("cold run");
        let snap = client
            .metrics()
            .expect("metrics")
            .snapshot
            .expect("snapshot section present");
        assert_eq!(snap.kernel_builds, 1, "cold run builds the kernel once");
        assert!(snap.stores >= 1, "cold run persists the kernel");
        server.shutdown();
        got
    };
    assert_eq!(first, expected, "snapshotted run matches the local bytes");

    // Restarted "process": same snapshot dir, FRESH result cache — the
    // restart-warm contract: first request byte-identical with zero
    // kernel builds.
    let store = domino_engine::SnapshotStore::on_disk(&snap_dir).expect("snapshot dir");
    let (server, client) = start_server(ServeConfig {
        workers: 1,
        cache: Some(Arc::new(ResultCache::in_memory())),
        snapshots: Some(Arc::new(store)),
        ..ServeConfig::default()
    });
    let got = client.run_sync(&spec).expect("warm restart run");
    assert_eq!(got, expected, "restart-warm outcome is byte-identical");
    let snap = client
        .metrics()
        .expect("metrics")
        .snapshot
        .expect("snapshot section present");
    assert_eq!(snap.kernel_builds, 0, "no kernel rebuilt after restart");
    assert!(snap.hits >= 1, "the persisted snapshot warmed the run");
    assert!(snap.disk_entries >= 1);
    server.shutdown();
    std::fs::remove_dir_all(&base).expect("cleanup");
}

#[test]
fn full_queue_backpressures_and_drops_nothing() {
    let (server, client) = start_server(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        cache: None,
        ..ServeConfig::default()
    });

    // Occupy the single worker with a holder that outlasts the checks
    // below in release builds...
    let mut holder = slow_spec();
    holder.sim.cycles = 1 << 20;
    let slow = client.submit(&holder).expect("admitted");
    loop {
        let status = client.status(slow.id, false).expect("known job");
        match status.status {
            JobStatus::Running => break,
            JobStatus::Queued => std::thread::sleep(std::time::Duration::from_millis(5)),
            other => panic!("the holder ended as {other:?} before it was seen running"),
        }
    }
    // ...fill the queue...
    let mut queued_spec = public_specs().remove(1);
    queued_spec.name = "queued".to_string();
    let queued = client.submit(&queued_spec).expect("fits the queue");

    // ...and overflow it: explicit 429 + Retry-After, nothing enqueued.
    let overflow = client.submit(&public_specs()[0]);
    match overflow {
        Err(ClientError::Api {
            status: 429,
            retry_after,
            ..
        }) => assert_eq!(retry_after, Some(1), "429 carries Retry-After"),
        other => panic!("expected 429, got {other:?}"),
    }

    // Cancelling the queued job frees its slot immediately...
    let cancelled = client.cancel(queued.id).expect("known job");
    assert_eq!(cancelled.status, JobStatus::Cancelled);
    // ...so the next submission is admitted again.
    let replacement = client.submit(&public_specs()[0]).expect("slot freed");

    // Every admitted job reaches a terminal state; nothing silently lost.
    assert_eq!(
        client.status(slow.id, true).unwrap().status,
        JobStatus::Completed
    );
    assert_eq!(
        client.status(replacement.id, true).unwrap().status,
        JobStatus::Completed
    );
    assert_eq!(
        client.status(queued.id, false).unwrap().status,
        JobStatus::Cancelled
    );
    let result_of_cancelled = client.result(queued.id, false);
    assert!(
        matches!(
            result_of_cancelled,
            Err(ClientError::Api { status: 409, .. })
        ),
        "cancelled job has no outcome: {result_of_cancelled:?}"
    );

    let metrics = client.metrics().expect("metrics");
    assert_eq!(metrics.submitted, 3, "slow + queued + replacement admitted");
    assert_eq!(metrics.rejected, 1, "exactly one explicit 429");
    assert_eq!(metrics.completed, 2);
    assert_eq!(metrics.cancelled, 1);
    assert_eq!(
        metrics.submitted,
        metrics.completed + metrics.cancelled,
        "admitted = terminal: no job was silently dropped"
    );

    server.shutdown();
}

#[test]
fn cache_peering_warms_a_cold_node() {
    let cache_a = Arc::new(ResultCache::in_memory());
    let cache_b = Arc::new(ResultCache::in_memory());
    let (server_a, client_a) = start_server(ServeConfig {
        workers: 1,
        queue_capacity: 4,
        cache: Some(Arc::clone(&cache_a)),
        ..ServeConfig::default()
    });
    let (server_b, client_b) = start_server(ServeConfig {
        workers: 1,
        queue_capacity: 4,
        cache: Some(Arc::clone(&cache_b)),
        ..ServeConfig::default()
    });

    // Node A computes an outcome the normal way.
    let spec = public_specs().remove(0);
    let admitted = client_a.submit(&spec).expect("admitted");
    assert_eq!(
        client_a.status(admitted.id, true).expect("terminal").status,
        JobStatus::Completed
    );
    let bytes = client_a.result(admitted.id, false).expect("stored");

    // Peek answers the exact stored bytes without touching the hit/miss
    // accounting (gateway probing must not distort the node's stats).
    let stats_before = cache_a.stats();
    let peeked = client_a
        .cache_peek(&admitted.key)
        .expect("peek works")
        .expect("node A holds the entry");
    assert_eq!(peeked, bytes, "peek serves the stored bytes verbatim");
    let stats_after = cache_a.stats();
    assert_eq!(stats_after.hits(), stats_before.hits(), "peek is silent");
    assert_eq!(stats_after.misses, stats_before.misses, "peek is silent");

    // Node B has never seen the key.
    assert_eq!(
        client_b.cache_peek(&admitted.key).expect("peek works"),
        None
    );

    // Peer-fill node B; an identical submission there is now a pure cache
    // hit — byte-identical result, zero recomputation.
    client_b
        .cache_fill(&admitted.key, &peeked)
        .expect("fill accepted");
    let warm = client_b.submit(&spec).expect("admitted");
    assert_eq!(warm.key, admitted.key, "same spec, same routing key");
    let status = client_b.status(warm.id, true).expect("terminal");
    assert_eq!(status.status, JobStatus::Completed);
    assert_eq!(status.cached, Some(true), "peer-warmed node served cached");
    assert_eq!(client_b.result(warm.id, false).expect("stored"), bytes);
    assert_eq!(
        cache_b.stats().misses,
        0,
        "peer-warmed node recomputed nothing"
    );

    // A fill whose outcome does not match the key is rejected: peering
    // must not be able to poison a node's cache.
    match client_b.cache_fill("00000000000000000000000000000000", &peeked) {
        Err(ClientError::Api { status: 400, .. }) => {}
        other => panic!("expected 400 for key mismatch, got {other:?}"),
    }

    server_a.shutdown();
    server_b.shutdown();
}

#[test]
fn event_stream_delivers_dense_lifecycle_and_terminates() {
    let (server, client) = start_server(ServeConfig {
        workers: 1,
        queue_capacity: 8,
        cache: None,
        ..ServeConfig::default()
    });
    let mut spec = public_specs().swap_remove(0);
    spec.sim.cycles = 256;
    let id = client.submit(&spec).expect("admitted").id;

    // The stream blocks until the terminal event, then ends on its own.
    let mut streamed = Vec::new();
    let events = client
        .events(id, |e| streamed.push(e.kind))
        .expect("stream completes");
    let kinds: Vec<EventKind> = events.iter().map(|e| e.kind).collect();
    assert_eq!(
        kinds,
        vec![EventKind::Queued, EventKind::Started, EventKind::Finished]
    );
    assert_eq!(streamed, kinds, "callback saw the same sequence");
    let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
    assert_eq!(seqs, vec![0, 1, 2], "dense sequence numbers");
    assert_eq!(events[2].cached, Some(false));
    assert!(events[2].elapsed_ms.is_some());

    server.shutdown();
}

#[test]
fn malformed_requests_get_4xx_not_silence() {
    let (server, client) = start_server(ServeConfig {
        workers: 1,
        queue_capacity: 4,
        cache: None,
        ..ServeConfig::default()
    });

    // Unknown job id.
    match client.status(999, false) {
        Err(ClientError::Api { status: 404, .. }) => {}
        other => panic!("expected 404, got {other:?}"),
    }

    // A body that is not a JobSpec.
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream
        .write_all(b"POST /jobs HTTP/1.1\r\ncontent-length: 8\r\n\r\nnot json")
        .unwrap();
    let mut conn = domino_serve::http::HttpConnection::new(stream);
    let response = conn.read_response().unwrap();
    assert_eq!(response.status, 400);

    // An unknown endpoint.
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream.write_all(b"GET /nonesuch HTTP/1.1\r\n\r\n").unwrap();
    let mut conn = domino_serve::http::HttpConnection::new(stream);
    let response = conn.read_response().unwrap();
    assert_eq!(response.status, 404);

    // A spec naming an unknown suite row fails at resolve time.
    match client.submit(&JobSpec::suite("nonesuch")) {
        Err(ClientError::Api { status: 400, .. }) => {}
        other => panic!("expected 400, got {other:?}"),
    }

    server.shutdown();
}

/// Specs the flow cannot run get a 400 before admission, and the server
/// goes on serving. Runs under a timeout: a server that admits them leaves
/// its one worker on a job that never ends.
#[test]
fn unrunnable_specs_are_refused_before_admission() {
    let (done, finished) = std::sync::mpsc::channel();
    let body = std::thread::spawn(move || {
        let (server, client) = start_server(ServeConfig {
            workers: 1,
            queue_capacity: 4,
            cache: None,
            ..ServeConfig::default()
        });
        let mut zero_cycles = JobSpec::suite("frg1");
        zero_cycles.sim.cycles = 0;
        let mut unit_fanin = JobSpec::suite("frg1");
        unit_fanin.library.max_fanin = 1;
        let mut wide_walk = JobSpec::suite("apex7");
        wide_walk.flow.area.exhaustive_limit = 40;
        for (what, spec) in [
            ("sim.cycles 0", zero_cycles),
            ("library.max_fanin 1", unit_fanin),
            ("flow.area.exhaustive_limit 40", wide_walk),
        ] {
            match client.submit(&spec) {
                Err(ClientError::Api { status: 400, .. }) => {}
                other => panic!("{what}: expected 400, got {other:?}"),
            }
        }
        assert_eq!(client.metrics().expect("metrics").submitted, 0);

        let normal = public_specs().remove(0);
        let id = client.submit(&normal).expect("admitted").id;
        let status = client.status(id, true).expect("terminal");
        assert_eq!(status.status, JobStatus::Completed);
        assert_eq!(client.metrics().expect("metrics").submitted, 1);
        server.shutdown();
        done.send(()).expect("test thread waits");
    });
    match finished.recv_timeout(std::time::Duration::from_secs(120)) {
        Ok(()) => body.join().expect("test body"),
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(body.join().expect_err("body ended without finishing"))
        }
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("timed out: an admitted spec never finished")
        }
    }
}

/// A `blif_path` source would make the server open a path on its own
/// host; it gets a 400 before admission even when the path names a valid
/// BLIF file, and the server goes on serving.
#[test]
fn blif_path_sources_are_refused_before_admission() {
    let dir = std::env::temp_dir().join(format!("dominolp-serve-path-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("and2.blif");
    std::fs::write(
        &path,
        ".model m\n.inputs a b\n.outputs f\n.names a b f\n11 1\n.end\n",
    )
    .expect("write BLIF");
    let (server, client) = start_server(ServeConfig {
        workers: 1,
        queue_capacity: 4,
        cache: None,
        ..ServeConfig::default()
    });
    let mut spec = JobSpec::suite("pathy");
    spec.source = CircuitSource::BlifPath(path.display().to_string());
    match client.submit(&spec) {
        Err(ClientError::Api {
            status: 400, error, ..
        }) => {
            assert!(error.contains("blif_path"), "{error}");
        }
        other => panic!("expected 400, got {other:?}"),
    }
    assert_eq!(client.metrics().expect("metrics").submitted, 0);

    let id = client.submit(&public_specs()[0]).expect("admitted").id;
    let status = client.status(id, true).expect("terminal");
    assert_eq!(status.status, JobStatus::Completed);
    assert_eq!(client.metrics().expect("metrics").submitted, 1);
    server.shutdown();
    std::fs::remove_dir_all(&dir).expect("clean up");
}

#[test]
fn unreachable_server_is_distinguished_from_job_failure() {
    // Port 9 (discard) on localhost is refused in any sane environment.
    let client = ServeClient::new("127.0.0.1:9");
    match client.metrics() {
        Err(ClientError::Unreachable(_)) => {}
        other => panic!("expected Unreachable, got {other:?}"),
    }
}

#[test]
fn graceful_shutdown_drains_admitted_jobs() {
    let cache = Arc::new(ResultCache::in_memory());
    let (mut server, client) = start_server(ServeConfig {
        workers: 1,
        queue_capacity: 8,
        cache: Some(cache),
        ..ServeConfig::default()
    });

    let specs = public_specs();
    let ids: Vec<u64> = specs[..3]
        .iter()
        .map(|spec| client.submit(spec).expect("admitted").id)
        .collect();

    // The wire-level shutdown: admissions stop, the drain begins.
    client.shutdown().expect("shutdown accepted");
    match client.submit(&specs[3]) {
        // 503 while draining; Unreachable/Io once the dying listener is
        // past accepting (the kernel backlog may still take — then reset —
        // the connection). All three mean: not admitted, told explicitly.
        Err(
            ClientError::Api { status: 503, .. } | ClientError::Unreachable(_) | ClientError::Io(_),
        ) => {}
        other => panic!("expected refusal during drain, got {other:?}"),
    }

    // wait() returns only after every admitted job was executed.
    server.wait();
    let metrics = server.metrics();
    assert_eq!(metrics.completed, ids.len() as u64, "drain ran every job");
    assert_eq!(metrics.queue_depth, 0);

    // The HTTP surface is gone after the drain.
    match client.healthz() {
        Err(ClientError::Unreachable(_)) => {}
        other => panic!("expected Unreachable after drain, got {other:?}"),
    }
}

/// A `Server` dropped without `shutdown()` drains like one shut down: once
/// the drop returns, new connections are refused.
#[test]
fn dropped_server_refuses_new_connections() {
    let (server, client) = start_server(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    client.healthz().expect("server is up");
    let addr = server.addr();
    drop(server);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while std::net::TcpStream::connect(addr).is_ok() {
        assert!(
            std::time::Instant::now() < deadline,
            "a dropped server still accepts connections"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

/// Sends `GET /jobs/:id` and then `target` on one raw connection in one
/// write, and returns the connection once the first answer is in. The
/// reactor read both requests at once and hands the second to a handler
/// as soon as the first is answered, so `target` is in flight: a drain
/// cannot mistake its connection for an idle one.
fn in_flight(server: &Server, id: u64, target: &str) -> HttpConnection {
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    stream
        .write_all(
            format!("GET /jobs/{id} HTTP/1.1\r\n\r\nGET {target} HTTP/1.1\r\n\r\n").as_bytes(),
        )
        .expect("write both requests");
    let mut conn = HttpConnection::new(stream);
    assert_eq!(conn.read_response().expect("status").status, 200);
    conn
}

/// Every parked waiter is answered by the transition that ends its wait:
/// a `DELETE` of a queued job answers that job's long-polls and event
/// streams from the handler, and the shutdown drain runs the rest of the
/// queue, each terminal transition answering its waiters, before
/// `wait()` returns.
#[test]
fn parked_waiters_wake_on_transitions_and_drain() {
    let (mut server, client) = start_server(ServeConfig {
        workers: 1,
        queue_capacity: 8,
        cache: None,
        ..ServeConfig::default()
    });
    let mut spec_a = public_specs().swap_remove(0);
    spec_a.sim.cycles = 256;
    let mut spec_b = spec_a.clone();
    spec_b.name = "b".to_string();

    // One worker: the holder occupies it, A and B queue behind it. The
    // holder outlasts this test's set-up many times over in release
    // builds and still ends well inside the reactor's 10 s drain grace in
    // debug builds.
    let mut holder = slow_spec();
    holder.sim.cycles *= 16;
    client.submit(&holder).expect("holder admitted");
    let a = client.submit(&spec_a).expect("A admitted").id;
    let b = client.submit(&spec_b).expect("B admitted").id;

    // All three waiter kinds on both jobs, each on its own connection.
    let (queued_tx, queued_rx) = std::sync::mpsc::channel();
    let waiters: Vec<_> = [a, b]
        .into_iter()
        .map(|id| {
            let mut result = in_flight(&server, id, &format!("/jobs/{id}/result?wait=1"));
            let mut status = in_flight(&server, id, &format!("/jobs/{id}?wait=1"));
            let (events, queued_tx) = (client.clone(), queued_tx.clone());
            (
                std::thread::spawn(move || result.read_response().expect("outcome answer")),
                std::thread::spawn(move || status.read_response().expect("status answer")),
                std::thread::spawn(move || {
                    events.events(id, |e| {
                        if e.kind == EventKind::Queued {
                            queued_tx.send(()).expect("test waits");
                        }
                    })
                }),
            )
        })
        .collect();
    // An event stream is parked once it has delivered `queued`.
    queued_rx.recv().expect("A's stream parked");
    queued_rx.recv().expect("B's stream parked");

    // Cancelling B while it is queued is a transition no worker reports:
    // the handler itself must answer B's waiters.
    let cancelled = client.cancel(b).expect("B known");
    assert_eq!(cancelled.status, JobStatus::Cancelled, "B was still queued");

    // The drain runs the holder, then A; A's waiters are answered by its
    // transitions before `wait()` returns.
    server.shutdown_handle().request_shutdown();
    server.wait();

    let mut answers = waiters.into_iter().map(|(result, status, events)| {
        let status = status.join().expect("status waiter");
        assert_eq!(status.status, 200);
        let status = StatusReply::from_json(&parse(&status.text().unwrap()).unwrap()).unwrap();
        let events = events.join().expect("events waiter").expect("stream ends");
        let kinds: Vec<EventKind> = events.iter().map(|e| e.kind).collect();
        (result.join().expect("result waiter"), status, kinds)
    });
    let (result, status, kinds) = answers.next().expect("A's waiters");
    assert_eq!(result.status, 200);
    assert_eq!(result.text().unwrap(), local_outcome_json(&spec_a));
    assert_eq!(status.status, JobStatus::Completed);
    assert!(
        status.outcome.is_some(),
        "the status document carries the outcome"
    );
    assert_eq!(
        kinds,
        vec![EventKind::Queued, EventKind::Started, EventKind::Finished]
    );

    let (result, status, kinds) = answers.next().expect("B's waiters");
    assert_eq!(result.status, 409);
    assert!(result.text().unwrap().contains("cancelled"));
    assert_eq!(status.status, JobStatus::Cancelled);
    assert_eq!(kinds, vec![EventKind::Queued, EventKind::Cancelled]);
}
