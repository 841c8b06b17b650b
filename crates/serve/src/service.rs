//! The service shell `dominod` and `dominogw` both run in, and the `main`
//! both daemons share.
//!
//! A [`Service`] binds the listener, runs the reactor front
//! ([`crate::front`]) over a [`Router`], holds the one drain latch and
//! joins the threads. `POST /shutdown`, a [`ShutdownHandle`],
//! SIGTERM/SIGINT (wired by [`daemon_main`]) and `Drop` all trip the
//! latch: [`Router::drain`] runs, then the reactor closes its listener and
//! idle connections, and in-flight ones close after their last response.
//! [`Service::wait`] joins every thread. `Drop` joins only the reactor and
//! the helpers, whose exit the drain bounds — never a worker running a
//! job — so a dropped service refuses new connections once `Drop` returns.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use domino_engine::json::Json;

use crate::config::ArgTable;
use crate::front::{FrontConfig, FrontHandle, HttpFront, Responder};
use crate::http::Request;

/// The per-server half of a [`Service`]: its routes, and what else must
/// stop accepting work when the drain begins.
pub trait Router: Send + Sync + 'static {
    /// Answers one request on a handler-pool thread. `POST /shutdown`
    /// never gets here: the shell answers it.
    fn route(router: &Arc<Self>, request: Request, responder: Responder);

    /// Runs once as the drain begins, before the front stops accepting.
    fn drain(&self) {}
}

struct Latch {
    tripped: Mutex<bool>,
    cond: Condvar,
    front: FrontHandle,
    on_drain: Box<dyn Fn() + Send + Sync>,
}

/// The drain latch of a running [`Service`]. Cloneable and `Send`: hand
/// one to a signal watcher and keep the server itself for its `wait`.
#[derive(Clone)]
pub struct ShutdownHandle {
    latch: Arc<Latch>,
}

impl std::fmt::Debug for ShutdownHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShutdownHandle").finish()
    }
}

impl ShutdownHandle {
    /// Starts the graceful drain, exactly like `POST /shutdown`
    /// (idempotent).
    pub fn request_shutdown(&self) {
        let mut tripped = self.tripped();
        if !*tripped {
            *tripped = true;
            (self.latch.on_drain)();
            self.latch.front.shutdown();
            self.latch.cond.notify_all();
        }
    }

    /// Blocks until the drain is requested or `timeout` has passed;
    /// `true` once the drain is requested.
    pub fn wait_timeout(&self, timeout: Duration) -> bool {
        let (tripped, _) = self
            .latch
            .cond
            .wait_timeout_while(self.tripped(), timeout, |tripped| !*tripped)
            .unwrap_or_else(PoisonError::into_inner);
        *tripped
    }

    fn wait(&self) {
        let _tripped = self
            .latch
            .cond
            .wait_while(self.tripped(), |tripped| !*tripped)
            .unwrap_or_else(PoisonError::into_inner);
    }

    fn tripped(&self) -> MutexGuard<'_, bool> {
        self.latch
            .tripped
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// One running server: the reactor front over a [`Router`], the drain
/// latch, and the threads the service joins (see the module docs).
#[derive(Debug)]
pub struct Service {
    addr: SocketAddr,
    drain: ShutdownHandle,
    reactor: Option<JoinHandle<io::Result<()>>>,
    helpers: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Service {
    /// Binds `addr`, builds the router over the front's handle, and runs
    /// the reactor on its own thread. `name` (`dominod`, `dominogw`)
    /// prefixes the reactor's thread names.
    ///
    /// # Errors
    ///
    /// [`io::Error`] if the address cannot be bound or the reactor
    /// cannot be set up.
    pub fn start<R: Router>(
        name: &'static str,
        addr: &str,
        config: FrontConfig,
        router: impl FnOnce(FrontHandle) -> R,
    ) -> io::Result<(Service, Arc<R>)> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let front = HttpFront::bind(listener, name, config)?;
        let router = Arc::new(router(front.handle()));
        let on_drain = Arc::clone(&router);
        let drain = ShutdownHandle {
            latch: Arc::new(Latch {
                tripped: Mutex::new(false),
                cond: Condvar::new(),
                front: front.handle(),
                on_drain: Box::new(move || on_drain.drain()),
            }),
        };
        let reactor = {
            let (router, drain) = (Arc::clone(&router), drain.clone());
            std::thread::Builder::new()
                .name(format!("{name}-reactor"))
                .spawn(move || {
                    front.run(Arc::new(move |request: Request, responder: Responder| {
                        if request.method == "POST" && request.path == "/shutdown" {
                            // Drain first: a client that reacts to this
                            // answer must find admissions already closed.
                            drain.request_shutdown();
                            let body =
                                Json::obj(vec![("status", Json::Str("shutting-down".into()))]);
                            responder.respond_close(200, &[], body.serialize().as_bytes());
                        } else {
                            R::route(&router, request, responder);
                        }
                    }))
                })?
        };
        let service = Service {
            addr,
            drain,
            reactor: Some(reactor),
            helpers: Vec::new(),
            workers: Vec::new(),
        };
        Ok((service, router))
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle onto this service's drain latch.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.drain.clone()
    }

    /// Runs `work` on a worker thread, which runs the jobs admitted before
    /// the drain to their end: [`Service::wait`] joins it, `Drop` does not.
    pub(crate) fn spawn_worker(&mut self, work: impl FnOnce() + Send + 'static) {
        self.workers.push(std::thread::spawn(work));
    }

    /// Runs `work` on a helper thread, which must return once the drain
    /// begins (it naps on [`ShutdownHandle::wait_timeout`]): both
    /// [`Service::wait`] and `Drop` join it.
    pub fn spawn_helper(&mut self, work: impl FnOnce() + Send + 'static) {
        self.helpers.push(std::thread::spawn(work));
    }

    /// Blocks until the drain is requested, then joins every thread: the
    /// workers once the admitted jobs have run — each answering its
    /// parked waiters — and the reactor once every connection is gone.
    pub fn wait(&mut self) {
        self.drain.wait();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        self.join_bounded();
    }

    /// Requests the drain and waits for it to finish.
    pub fn shutdown(mut self) {
        self.drain.request_shutdown();
        self.wait();
    }

    /// Joins the threads whose exit the drain bounds.
    fn join_bounded(&mut self) {
        if let Some(handle) = self.reactor.take() {
            let _ = handle.join();
        }
        for handle in self.helpers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.drain.request_shutdown();
        self.join_bounded();
    }
}

/// The whole `main` of `dominod` and `dominogw`. `--help` prints the
/// usage built from `table`; `--failpoints` arms fault injection behind a
/// `failpoints active: ...` log header; `parse` reads the other flags and
/// `start` starts the server. Then stdout gets the exact `<name> listening
/// on <addr>` line scripts parse for the port, SIGTERM and SIGINT trip the
/// drain like `POST /shutdown`, and after the drain `drained` gives the
/// closing log line. Exits 0 after `--help` or a drain, 2 after a usage or
/// bind error.
pub fn daemon_main<C, D: AsMut<Service>>(
    name: &'static str,
    synopsis: &str,
    table: &ArgTable,
    parse: impl FnOnce(&[String]) -> Result<C, String>,
    start: impl FnOnce(C) -> io::Result<D>,
    drained: impl FnOnce(&D) -> String,
) -> ExitCode {
    let usage = format!(
        "usage: {name} {synopsis}\n\
         \n\
         options:\n\
         {}\n\
         \n\
         stop it with: dominoc shutdown --server <addr>, SIGTERM or SIGINT",
        table.options_help()
    );
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let run = || -> Result<(), String> {
        if args
            .iter()
            .any(|a| matches!(a.as_str(), "help" | "--help" | "-h"))
        {
            println!("{usage}");
            return Ok(());
        }
        domino_failpoint::take_cli_args(&mut args)?;
        if let Some((spec, seed)) = domino_failpoint::active_spec() {
            // The reproducibility header: a chaos failure is rerunnable
            // from this one log line.
            eprintln!("{name}: failpoints active: {spec} (seed {seed})");
        }
        let config = parse(&args)?;
        let mut daemon = start(config).map_err(|e| format!("bind failed: {e}"))?;
        let service = daemon.as_mut();
        // Scripts (CI smokes, serve_bench, fleet_bench) parse this exact
        // line for the port.
        println!("{name} listening on {}", service.addr());
        wire_signals(name, service.shutdown_handle());
        service.wait();
        eprintln!("{name}: {}", drained(&daemon));
        Ok(())
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{name}: {message}");
            eprintln!("{usage}");
            ExitCode::from(2)
        }
    }
}

/// Arranges for SIGTERM and SIGINT to trip `drain`. A signal handler may
/// only set a flag, so a watcher thread turns the flag into the drain; it
/// stops with any other drain too. Failures are reported, not fatal — a
/// platform without signal support still serves.
fn wire_signals(name: &'static str, drain: ShutdownHandle) {
    let flag = Arc::new(AtomicBool::new(false));
    for signal in [signal_hook::consts::SIGTERM, signal_hook::consts::SIGINT] {
        if let Err(e) = signal_hook::flag::register(signal, Arc::clone(&flag)) {
            eprintln!("{name}: signal {signal} not wired: {e}");
        }
    }
    let watcher = std::thread::Builder::new()
        .name(format!("{name}-signals"))
        .spawn(move || {
            while !drain.wait_timeout(Duration::from_millis(50)) {
                if flag.load(Ordering::SeqCst) {
                    eprintln!("{name}: signal received, draining");
                    drain.request_shutdown();
                }
            }
        });
    if let Err(e) = watcher {
        eprintln!("{name}: signals not wired: {e}");
    }
}
