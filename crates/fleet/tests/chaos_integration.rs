//! Chaos acceptance tests: a real multi-process fleet driven through
//! seeded failpoint schedules, pinning that recovery is *byte-identical*
//! to fault-free runs.
//!
//! * **crash consistency** — a backend killed between its cache temp
//!   write and the rename leaves no partial entry; the restarted process
//!   sweeps the orphan temp and recomputes identical bytes;
//! * **request coalescing** — duplicate in-flight submissions of one
//!   cache key compute exactly once, at both `dominod` (engine
//!   single-flight) and `dominogw` (sync-submit coalescing);
//! * **fail-open routing** — a probe blackout (every probe failing by
//!   injection) must not take down the data plane;
//! * **deterministic failover** — an injected relay fault fails over to
//!   the rendezvous runner-up with identical bytes, and so does a backend
//!   that dies mid sync job on a kept-alive relay connection;
//! * **fault surfacing** — a `once` schedule fires exactly once and the
//!   fleet is clean afterwards, with hit counts visible in `/metrics`;
//!   a response cut after its status line is surfaced, never resent.
//!
//! Backends are subprocesses of this test binary itself (the hidden
//! [`chaos_backend_helper`] below, selected via `DOMINO_CHAOS_ROLE`) —
//! `cargo test -p domino-fleet` does not build `dominod`, but it always
//! builds this binary and `dominogw`.

use std::io::{BufRead, BufReader};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use domino_engine::json::parse;
use domino_engine::{FlowEngine, JobSpec, ResultCache};
use domino_fleet::GatewayMetrics;
use domino_serve::front::FrontConfig;
use domino_serve::{ClientError, ServeClient, ServeConfig, Server};

/// Exit code `engine.cache.crash_rename` kills the process with.
const CRASH_RENAME_EXIT: i32 = 86;

/// Subprocess role: when `DOMINO_CHAOS_ROLE=backend`, this "test" is a
/// `dominod`-equivalent server process (same `Server`, same engine, same
/// on-disk cache) that serves until `POST /shutdown` or a kill. In a
/// normal test run the env var is absent and this is a no-op.
#[test]
fn chaos_backend_helper() {
    if std::env::var("DOMINO_CHAOS_ROLE").as_deref() != Ok("backend") {
        return;
    }
    let cache_dir = std::env::var("DOMINO_CHAOS_CACHE").expect("DOMINO_CHAOS_CACHE is set");
    let cache = Arc::new(ResultCache::on_disk(cache_dir).expect("cache dir opens"));
    let mut server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_capacity: 16,
        cache: Some(cache),
        front: FrontConfig {
            idle_timeout_ms: 1_000,
            ..FrontConfig::default()
        },
        ..ServeConfig::default()
    })
    .expect("backend binds");
    // The parent parses this exact line for the ephemeral port.
    println!("dominod listening on {}", server.addr());
    server.wait();
}

/// A child process that is killed (not leaked) however the test exits.
struct Proc(Child);

impl Proc {
    fn wait_code(mut self) -> Option<i32> {
        let status = self.0.wait().expect("child reaped");
        status.code()
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Reads the child's stdout until the `<name> listening on <addr>`
/// marker (a *substring* search — the backend helper's line is prefixed
/// by libtest's own `test ... ` chatter), returns the addr, and keeps
/// draining the pipe in the background.
fn await_listening(child: &mut Child, marker: &str) -> String {
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line).expect("child stdout readable") == 0 {
            panic!("child exited before printing '{marker}'");
        }
        if let Some(at) = line.find(marker).map(|at| at + marker.len()) {
            let rest = &line[at..];
            let addr = rest.trim().to_string();
            std::thread::spawn(move || {
                let mut sink = String::new();
                while reader.read_line(&mut sink).map(|n| n > 0).unwrap_or(false) {
                    sink.clear();
                }
            });
            return addr;
        }
    }
}

/// Spawns a backend subprocess (self-exec of this test binary in its
/// `chaos_backend_helper` role) with an optional failpoint schedule.
fn spawn_backend(cache_dir: &Path, failpoints: Option<(&str, u64)>) -> (Proc, String) {
    let exe = std::env::current_exe().expect("own path");
    let mut cmd = Command::new(exe);
    cmd.args([
        "chaos_backend_helper",
        "--exact",
        "--nocapture",
        "--test-threads=1",
    ])
    .env("DOMINO_CHAOS_ROLE", "backend")
    .env("DOMINO_CHAOS_CACHE", cache_dir)
    .env_remove("DOMINO_FAILPOINTS")
    .env_remove("DOMINO_FAILPOINT_SEED")
    .stdout(Stdio::piped())
    .stderr(Stdio::null());
    if let Some((spec, seed)) = failpoints {
        cmd.env("DOMINO_FAILPOINTS", spec)
            .env("DOMINO_FAILPOINT_SEED", seed.to_string());
    }
    let mut child = cmd.spawn().expect("spawn backend subprocess");
    let addr = await_listening(&mut child, "dominod listening on ");
    (Proc(child), addr)
}

/// Spawns the real `dominogw` binary over `backends`, with an optional
/// failpoint schedule passed via the CLI flags under test.
fn spawn_gateway(
    backends: &[String],
    failpoints: Option<(&str, u64)>,
    probe_ms: u64,
) -> (Proc, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dominogw"));
    cmd.args(["--addr", "127.0.0.1:0", "--idle-ms", "1000"])
        .args(["--probe-ms", &probe_ms.to_string()])
        .env_remove("DOMINO_FAILPOINTS")
        .env_remove("DOMINO_FAILPOINT_SEED")
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    for backend in backends {
        cmd.args(["--backend", backend]);
    }
    if let Some((spec, seed)) = failpoints {
        cmd.args(["--failpoints", spec])
            .args(["--failpoint-seed", &seed.to_string()]);
    }
    let mut child = cmd.spawn().expect("spawn dominogw");
    let addr = await_listening(&mut child, "dominogw listening on ");
    (Proc(child), addr)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dominolp-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn chaos_spec(cycles: usize) -> JobSpec {
    let mut spec = JobSpec::suite(domino_workloads::public_row_names()[0]);
    spec.sim.cycles = cycles;
    spec.sim.warmup = 8;
    spec
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

fn gateway_metrics(client: &ServeClient) -> GatewayMetrics {
    let response = client.forward("GET", "/metrics", None).expect("metrics");
    let v = parse(&response.text().expect("utf-8")).expect("json");
    GatewayMetrics::from_json(&v).expect("decodes")
}

fn disk_entries(dir: &Path) -> (Vec<String>, Vec<String>) {
    let mut entries = Vec::new();
    let mut temps = Vec::new();
    for entry in std::fs::read_dir(dir).expect("cache dir lists") {
        let entry = entry.expect("dir entry");
        if !entry.file_type().expect("file type").is_file() {
            continue;
        }
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.contains(".tmp") {
            temps.push(name);
        } else {
            entries.push(name);
        }
    }
    (entries, temps)
}

/// Satellite 3 + tentpole (c): a backend killed deterministically between
/// its cache temp write and the publishing rename leaves a consistent
/// cache — no partial entry, and the orphan temp is swept on restart —
/// and the recomputed outcome is byte-identical.
#[test]
fn kill_mid_cache_write_leaves_consistent_cache_and_recovers() {
    let spec = chaos_spec(384);
    let expected = local_outcome_json(&spec);
    let cache_dir = temp_dir("crash-rename");

    let (backend, addr) = spawn_backend(&cache_dir, Some(("engine.cache.crash_rename=once", 0)));
    let client = ServeClient::new(addr);
    // The process dies mid-request (after the temp write, before the
    // rename), so the caller sees a connection failure, not bytes.
    client
        .run_sync(&spec)
        .expect_err("the injected crash cuts the connection");
    assert_eq!(
        backend.wait_code(),
        Some(CRASH_RENAME_EXIT),
        "the failpoint's distinctive exit code proves the injected kill"
    );

    // Crash consistency on disk: the entry was never published, only an
    // orphan temp remains.
    let (entries, temps) = disk_entries(&cache_dir);
    assert!(
        entries.is_empty(),
        "no partial entry may be visible: {entries:?}"
    );
    assert!(!temps.is_empty(), "the interrupted temp write is on disk");

    // Restart on the same cache dir: the open sweeps the orphan...
    let (backend, addr) = spawn_backend(&cache_dir, None);
    let (entries, temps) = disk_entries(&cache_dir);
    assert!(temps.is_empty(), "restart swept the orphan temp: {temps:?}");
    assert!(entries.is_empty());

    // ...and the recomputation is byte-identical to a fault-free run.
    let client = ServeClient::new(addr);
    let got = client.run_sync(&spec).expect("recovered run completes");
    assert_eq!(got, expected, "recovery is byte-identical");
    let (entries, _) = disk_entries(&cache_dir);
    assert_eq!(entries.len(), 1, "the recomputed entry is published");
    client.shutdown().expect("graceful drain");
    assert_eq!(backend.wait_code(), Some(0));
}

/// Tentpole (d), `dominod` half: duplicate in-flight submissions of one
/// cache key share a single engine computation (the cache counts exactly
/// one miss and one store) and every caller gets identical bytes.
#[test]
fn duplicate_submissions_coalesce_at_backend_engine() {
    // A longer simulation keeps the leader's computation in flight while
    // the duplicates arrive, so the coalescing is actually exercised.
    let spec = chaos_spec(16_384);
    let expected = local_outcome_json(&spec);
    let cache_dir = temp_dir("backend-coalesce");
    let (backend, addr) = spawn_backend(&cache_dir, None);
    let client = ServeClient::new(addr);

    let outcomes: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let client = client.clone();
                let spec = spec.clone();
                scope.spawn(move || client.run_sync(&spec).expect("duplicate completes"))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for got in &outcomes {
        assert_eq!(got, &expected, "every duplicate got identical bytes");
    }

    let metrics = client.metrics().expect("metrics");
    let cache = metrics.cache.expect("backend runs cached");
    assert_eq!(cache.misses, 1, "the flow was computed exactly once");
    assert_eq!(cache.stores, 1, "and stored exactly once");
    assert!(cache.hits() >= 2, "the duplicates were answered warm");
    client.shutdown().expect("graceful drain");
    assert_eq!(backend.wait_code(), Some(0));
}

/// Tentpole (d), `dominogw` half: duplicate in-flight sync submissions
/// of one routing key collapse onto the leader's backend round trip —
/// the gateway replays the leader's exact bytes and the fleet computes
/// the flow exactly once.
#[test]
fn duplicate_sync_submissions_coalesce_at_gateway_and_compute_once() {
    // A longer simulation keeps the leader's round trip in flight while
    // the duplicates arrive, so the coalescing is actually exercised.
    let spec = chaos_spec(16_400);
    let expected = local_outcome_json(&spec);
    let dir_a = temp_dir("gw-coalesce-a");
    let dir_b = temp_dir("gw-coalesce-b");
    let (backend_a, addr_a) = spawn_backend(&dir_a, None);
    let (backend_b, addr_b) = spawn_backend(&dir_b, None);
    let (gateway, gw_addr) = spawn_gateway(&[addr_a.clone(), addr_b.clone()], None, 100);
    let client = ServeClient::new(gw_addr);

    let outcomes: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let client = client.clone();
                let spec = spec.clone();
                scope.spawn(move || client.run_sync(&spec).expect("duplicate completes"))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for got in &outcomes {
        assert_eq!(got, &expected, "every duplicate got identical bytes");
    }

    let metrics = gateway_metrics(&client);
    assert!(
        metrics.coalesced >= 1,
        "concurrent duplicates coalesced at the gateway (got {})",
        metrics.coalesced
    );
    // Fleet-wide, the flow ran once: summed over both backends, exactly
    // one miss and one store.
    let (mut misses, mut stores) = (0, 0);
    for addr in [&addr_a, &addr_b] {
        let cache = ServeClient::new(addr.clone())
            .metrics()
            .expect("backend metrics")
            .cache
            .expect("backend runs cached");
        misses += cache.misses;
        stores += cache.stores;
    }
    assert_eq!(misses, 1, "the fleet computed the flow exactly once");
    assert_eq!(stores, 1);

    client.shutdown().expect("gateway drains");
    drop(gateway);
    for (backend, addr) in [(backend_a, addr_a), (backend_b, addr_b)] {
        ServeClient::new(addr).shutdown().expect("backend drains");
        assert_eq!(backend.wait_code(), Some(0));
    }
}

/// Tentpole (b) fail-open: a probe blackout — every health probe failing
/// by injection, the whole fleet marked down — must not take down the
/// data plane. Submissions keep flowing (fail-open ranking) and the
/// injected schedule is visible in the gateway's `/metrics`.
#[test]
fn probe_blackout_fails_open_and_reports_failpoint_hits() {
    let spec = chaos_spec(408);
    let expected = local_outcome_json(&spec);
    let dir_a = temp_dir("blackout-a");
    let dir_b = temp_dir("blackout-b");
    let (_backend_a, addr_a) = spawn_backend(&dir_a, None);
    let (_backend_b, addr_b) = spawn_backend(&dir_b, None);
    let (_gateway, gw_addr) = spawn_gateway(
        &[addr_a, addr_b],
        Some(("fleet.pool.probe=every(1)", 11)),
        50,
    );
    let client = ServeClient::new(gw_addr);

    let got = client.run_sync(&spec).expect("blackout run completes");
    assert_eq!(got, expected, "fail-open routing preserved byte-identity");

    let metrics = gateway_metrics(&client);
    assert_eq!(metrics.unroutable, 0, "the data plane never went dark");
    assert!(metrics.routed >= 1);
    assert!(
        metrics.backends.iter().all(|b| !b.healthy),
        "every probe was failed by injection: {:?}",
        metrics.backends
    );
    let probe_site = metrics
        .failpoints
        .iter()
        .find(|f| f.site == "fleet.pool.probe")
        .expect("the schedule is visible in /metrics");
    assert!(probe_site.fires >= 2, "probes kept firing: {probe_site:?}");
    assert_eq!(probe_site.mode, "every(1)");
}

/// Tentpole failover determinism: an injected relay fault on the home
/// attempt fails over to the rendezvous runner-up, with the retry
/// consumed from the budget, the fault counted in `/metrics`, and the
/// outcome byte-identical.
#[test]
fn relay_fault_fails_over_byte_identical() {
    let spec = chaos_spec(416);
    let expected = local_outcome_json(&spec);
    let dir_a = temp_dir("relay-a");
    let dir_b = temp_dir("relay-b");
    let (_backend_a, addr_a) = spawn_backend(&dir_a, None);
    let (_backend_b, addr_b) = spawn_backend(&dir_b, None);
    let (_gateway, gw_addr) = spawn_gateway(
        &[addr_a, addr_b],
        Some(("fleet.gateway.relay=once", 3)),
        100,
    );
    let client = ServeClient::new(gw_addr);

    let got = client.run_sync(&spec).expect("failover run completes");
    assert_eq!(got, expected, "failover preserved byte-identity");

    let metrics = gateway_metrics(&client);
    assert_eq!(metrics.failovers, 1, "exactly one failover hop");
    let relay_site = metrics
        .failpoints
        .iter()
        .find(|f| f.site == "fleet.gateway.relay")
        .expect("the schedule is visible in /metrics");
    assert_eq!(relay_site.fires, 1, "`once` fired exactly once");

    // The schedule is spent: the next submission relays cleanly with no
    // further failovers.
    let again = client.run_sync(&spec).expect("clean run");
    assert_eq!(again, expected);
    assert_eq!(gateway_metrics(&client).failovers, 1);
}

/// A TCP pipe in front of one backend, for a test that must see the
/// backend's death in a fixed order. A dying process gives none: its
/// kernel may close a connection before the listener, and a client that
/// reconnects in between is accepted and then reset, not refused. The
/// pipe keeps every client connection open after its backend is gone,
/// until [`Pipe::close`] stops listening and then closes them.
struct Pipe {
    addr: String,
    stop: Arc<AtomicBool>,
    acceptor: std::thread::JoinHandle<()>,
    clients: Arc<Mutex<Vec<TcpStream>>>,
}

impl Pipe {
    fn start(backend: String) -> Pipe {
        let listener = TcpListener::bind("127.0.0.1:0").expect("pipe binds");
        listener
            .set_nonblocking(true)
            .expect("nonblocking listener");
        let addr = listener.local_addr().expect("pipe addr").to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let clients = Arc::new(Mutex::new(Vec::new()));
        let (stopped, held) = (Arc::clone(&stop), Arc::clone(&clients));
        let acceptor = std::thread::spawn(move || {
            while !stopped.load(Ordering::SeqCst) {
                let Ok((client, _)) = listener.accept() else {
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                };
                // A connect after the backend died drops the client.
                let Ok(upstream) = TcpStream::connect(&backend) else {
                    continue;
                };
                client.set_nonblocking(false).expect("blocking client");
                let clone = |s: &TcpStream| s.try_clone().expect("socket clones");
                held.lock().expect("clients").push(clone(&client));
                for (mut from, mut to) in [(clone(&client), clone(&upstream)), (upstream, client)] {
                    std::thread::spawn(move || std::io::copy(&mut from, &mut to));
                }
            }
        });
        Pipe {
            addr,
            stop,
            acceptor,
            clients,
        }
    }

    /// Stops listening, then closes every client connection.
    fn close(self) {
        self.stop.store(true, Ordering::SeqCst);
        self.acceptor.join().expect("the acceptor exits");
        for client in self.clients.lock().expect("clients").iter() {
            let _ = client.shutdown(Shutdown::Both);
        }
    }
}

/// A backend that dies mid sync job on a pooled relay connection is
/// failed over like one that refuses: the gateway's pooled exchange sees
/// a close before any response byte, retries on a fresh connection, is
/// refused, and the runner-up answers with identical bytes.
#[test]
fn backend_death_mid_sync_job_on_a_pooled_relay_fails_over() {
    let dir_a = temp_dir("pooled-death-a");
    let dir_b = temp_dir("pooled-death-b");
    // A's second cache write kills it.
    let (mut backend_a, addr_a) =
        spawn_backend(&dir_a, Some(("engine.cache.crash_rename=after(1)", 0)));
    let (_backend_b, addr_b) = spawn_backend(&dir_b, None);
    let pipe = Pipe::start(addr_a);
    let backends = [pipe.addr.as_str(), addr_b.as_str()];
    let mut homed_on_a = (0..)
        .map(|i| chaos_spec(432 + 8 * i))
        .filter(|spec| {
            let job = spec.clone().resolve().expect("spec resolves");
            domino_fleet::hash::rank(&backends, job.cache_key())[0] == pipe.addr
        })
        .map(|spec| {
            let expected = local_outcome_json(&spec);
            (spec, expected)
        });
    let (first, first_expected) = homed_on_a.next().expect("a spec homed on A");
    let (second, second_expected) = homed_on_a.next().expect("another spec homed on A");
    let (_gateway, gw_addr) = spawn_gateway(&[pipe.addr.clone(), addr_b], None, 100);
    let client = ServeClient::new(gw_addr);

    // The first job completes on A and leaves the gateway a kept-alive
    // connection to A.
    let got = client.run_sync(&first).expect("the first job completes");
    assert_eq!(got, first_expected, "byte-identical to a local run");
    // The second kills A during its cache write. Only once A is gone
    // does the pipe stop listening and close the gateway's connection.
    let submitter = {
        let client = client.clone();
        std::thread::spawn(move || client.run_sync(&second))
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    let code = loop {
        if let Some(status) = backend_a.0.try_wait().expect("A is waited on") {
            break status.code();
        }
        assert!(Instant::now() < deadline, "A never ran the second job");
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(code, Some(CRASH_RENAME_EXIT), "the injected crash killed A");
    pipe.close();
    let got = submitter.join().expect("the submitter returns");
    assert_eq!(
        got.expect("the runner-up answers"),
        second_expected,
        "byte-identical to a local run"
    );
    assert_eq!(
        gateway_metrics(&client).failovers,
        1,
        "the second failed over"
    );
}

/// A `once` schedule at a backend's connection-read boundary fires
/// exactly once — the first caller sees a connection failure, every
/// later request is clean — and the site's counters surface in the
/// backend's `/metrics`.
#[test]
fn injected_read_fault_fires_exactly_once_then_clears() {
    let spec = chaos_spec(424);
    let expected = local_outcome_json(&spec);
    let cache_dir = temp_dir("read-fault");
    let (backend, addr) = spawn_backend(&cache_dir, Some(("serve.http.read=once", 5)));
    let client = ServeClient::new(addr);

    client
        .run_sync(&spec)
        .expect_err("the injected read fault cuts the first request");
    let got = client.run_sync(&spec).expect("second request is clean");
    assert_eq!(got, expected, "recovery is byte-identical");

    let metrics = client.metrics().expect("metrics");
    let read_site = metrics
        .failpoints
        .iter()
        .find(|f| f.site == "serve.http.read")
        .expect("the schedule is visible in /metrics");
    assert_eq!(read_site.fires, 1, "`once` fired exactly once");
    assert!(read_site.hits >= 2, "later reads were evaluated and passed");
    client.shutdown().expect("graceful drain");
    assert_eq!(backend.wait_code(), Some(0));
}

/// A response that dies after its status line went out is surfaced, not
/// resent, even on a kept-alive connection: the backend admitted the
/// job, and a resend would admit it twice.
#[test]
fn pooled_submit_cut_after_its_status_line_is_not_resent() {
    const SITE: &str = "serve.http.write";
    let schedule = format!("{SITE}=every(2)");
    // A seed whose phase passes the first response and cuts the second.
    let seed = (0..)
        .find(|&seed| {
            let reg = domino_failpoint::Registry::parse(&schedule, seed).expect("schedule parses");
            !reg.should_fire(SITE) && reg.should_fire(SITE)
        })
        .expect("some seed phases every(2) so");
    let cache_dir = temp_dir("write-fault");
    let (_backend, addr) = spawn_backend(&cache_dir, Some((&schedule, seed)));
    let client = ServeClient::new(addr);

    client.healthz().expect("the first response is whole");
    let err = client
        .submit(&chaos_spec(392))
        .expect_err("the second response is cut after its status line");
    assert!(matches!(err, ClientError::Io(_)), "got {err:?}");

    let metrics = client.metrics().expect("the third response is whole");
    assert_eq!(metrics.submitted, 1, "the cut submit was not resent");
    let write_site = metrics
        .failpoints
        .iter()
        .find(|f| f.site == SITE)
        .expect("the schedule is visible in /metrics");
    assert_eq!(write_site.fires, 1);
}
