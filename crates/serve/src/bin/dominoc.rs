//! `dominoc` — drive the domino synthesis flow from the command line,
//! locally or against a `dominod` server.
//!
//! ```text
//! dominoc run (<file.blif> | --suite <row>)   one circuit, locally
//! dominoc batch <file.blif>...                many circuits in parallel
//! dominoc suite [--public]                    the built-in Table 1/2 suite
//! dominoc cache stats|clear --cache <dir>     disk cache maintenance
//! dominoc submit (<file.blif> | --suite <row>) --server <addr>
//! dominoc status <id> [--wait]                job status JSON
//! dominoc watch <id>                          stream lifecycle events
//! dominoc result <id> [--wait]                outcome JSON (byte-identical to a local run)
//! dominoc cancel <id>                         request cancellation
//! dominoc metrics                             server metrics JSON
//! dominoc shutdown                            graceful server drain
//! ```
//!
//! Exit status: 0 on success, 1 when a job failed or the server rejected
//! the request, 2 on usage errors, 3 when the server is unreachable.

use std::process::ExitCode;
use std::sync::Arc;

use domino_engine::{
    report, CancelToken, CircuitSource, EngineConfig, FlowEngine, JobResult, JobSpec,
    ProgressEvent, ReorderMode, ResultCache, RunObjective, SnapshotStore,
};
use domino_serve::{ClientError, ServeClient, DEFAULT_PORT};

/// Exit code for "the server could not be reached at all" — distinct from
/// exit 1 ("the job itself failed") so scripts can tell infrastructure
/// trouble from flow trouble.
const EXIT_UNREACHABLE: u8 = 3;

fn usage() -> String {
    format!(
        "usage: dominoc <command> [args]\n\
     \n\
     local flow commands:\n\
     \x20 run (<file.blif> | --suite <row>)     one circuit\n\
     \x20 batch <file.blif>...                  many circuits in parallel\n\
     \x20 suite [--public]                      built-in Table 1/2 suite\n\
     \x20 cache stats --cache <dir>             disk cache counters/entries\n\
     \x20 cache clear --cache <dir>             empty the disk cache\n\
     \x20 cache snapshots --snapshot-dir <dir>  warm-state snapshot store inspection\n\
     \n\
     server commands (against a dominod or dominogw):\n\
     \x20 submit (<file.blif> | --suite <row>)  submit a job; prints its id on stdout\n\
     \x20        [--wait]                       ...or block and print the outcome JSON\n\
     \x20 status <id> [--wait]                  job status JSON\n\
     \x20 watch <id>                            stream lifecycle events (one JSON line each)\n\
     \x20 result <id> [--wait]                  outcome JSON, byte-identical to `run --jsonl`\n\
     \x20 cancel <id>                           cancel (immediate while queued, cooperative while running)\n\
     \x20 metrics                               queue/cache/timing counters JSON\n\
     \x20 shutdown                              drain admitted jobs, then exit\n\
     \n\
     flow options (run/batch/suite/submit):\n\
     \x20 --objective area|power|compare   [compare]\n\
     \x20 --p <f>                          PI probability [0.5]\n\
     \x20 --timed <fraction>               timed synthesis clock fraction\n\
     \x20 --and-penalty <f>                MP series-stack penalty\n\
     \x20 --threads <n>                    engine workers, 0 = all CPUs [0]\n\
     \x20 --cache <dir>                    disk result cache\n\
     \x20 --snapshot-dir <dir>             warm-state snapshot store (restart-warm kernels)\n\
     \x20 --jsonl <file|->                 JSONL outcomes\n\
     \x20 --sim-cycles <n>                 simulation cycles [4096]\n\
     \x20 --sim-shards <n>                 simulation stream shards [8]\n\
     \x20 --reorder off|auto|sift          BDD dynamic variable reordering [off]\n\
     \x20 --stats                          print BDD kernel + simulation statistics\n\
     \x20 --quiet                          suppress progress\n\
     \n\
     server options:\n\
     \x20 --server <host:port>             dominod address [127.0.0.1:{DEFAULT_PORT}]\n\
     \n\
     exit codes:\n\
     \x20 0  success\n\
     \x20 1  a job failed, or the server rejected the request (400/409/429/5xx)\n\
     \x20 2  usage error\n\
     \x20 3  server unreachable (connection refused / no route)"
    )
}

#[derive(Debug)]
struct Options {
    objective: RunObjective,
    p: f64,
    timed: Option<f64>,
    and_penalty: Option<f64>,
    threads: usize,
    cache_dir: Option<String>,
    snapshot_dir: Option<String>,
    jsonl: Option<String>,
    sim_cycles: Option<usize>,
    sim_shards: Option<u32>,
    reorder: ReorderMode,
    stats: bool,
    quiet: bool,
    public_only: bool,
    suite_row: Option<String>,
    server: String,
    wait: bool,
    positional: Vec<String>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut opts = Options {
            objective: RunObjective::Compare,
            p: 0.5,
            timed: None,
            and_penalty: None,
            threads: 0,
            cache_dir: None,
            snapshot_dir: None,
            jsonl: None,
            sim_cycles: None,
            sim_shards: None,
            reorder: ReorderMode::Off,
            stats: false,
            quiet: false,
            public_only: false,
            suite_row: None,
            server: format!("127.0.0.1:{DEFAULT_PORT}"),
            wait: false,
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = |name: &str| -> Result<String, String> {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} needs a value"))
            };
            match arg.as_str() {
                "--objective" => {
                    let v = value("--objective")?;
                    opts.objective = match v.as_str() {
                        "area" | "min-area" | "ma" => RunObjective::MinArea,
                        "power" | "min-power" | "mp" => RunObjective::MinPower,
                        "compare" | "both" => RunObjective::Compare,
                        other => return Err(format!("unknown objective '{other}'")),
                    };
                }
                "--p" => {
                    opts.p = value("--p")?
                        .parse()
                        .map_err(|_| "--p needs a number".to_string())?;
                }
                "--timed" => {
                    opts.timed = Some(
                        value("--timed")?
                            .parse()
                            .map_err(|_| "--timed needs a number".to_string())?,
                    );
                }
                "--and-penalty" => {
                    opts.and_penalty = Some(
                        value("--and-penalty")?
                            .parse()
                            .map_err(|_| "--and-penalty needs a number".to_string())?,
                    );
                }
                "--threads" => {
                    opts.threads = value("--threads")?
                        .parse()
                        .map_err(|_| "--threads needs an integer".to_string())?;
                }
                "--cache" => opts.cache_dir = Some(value("--cache")?),
                "--snapshot-dir" => opts.snapshot_dir = Some(value("--snapshot-dir")?),
                "--jsonl" => opts.jsonl = Some(value("--jsonl")?),
                "--sim-cycles" => {
                    let n: usize = value("--sim-cycles")?
                        .parse()
                        .map_err(|_| "--sim-cycles needs an integer".to_string())?;
                    if n == 0 {
                        return Err("--sim-cycles must be at least 1".to_string());
                    }
                    opts.sim_cycles = Some(n);
                }
                "--sim-shards" => {
                    let n: u32 = value("--sim-shards")?
                        .parse()
                        .map_err(|_| "--sim-shards needs an integer".to_string())?;
                    if n == 0 {
                        return Err("--sim-shards must be at least 1".to_string());
                    }
                    opts.sim_shards = Some(n);
                }
                "--reorder" => {
                    opts.reorder = value("--reorder")?.parse()?;
                }
                "--suite" => opts.suite_row = Some(value("--suite")?),
                "--server" => opts.server = value("--server")?,
                "--wait" => opts.wait = true,
                "--stats" => opts.stats = true,
                "--quiet" => opts.quiet = true,
                "--public" => opts.public_only = true,
                other if other.starts_with("--") => {
                    return Err(format!("unknown option '{other}'"));
                }
                other => opts.positional.push(other.to_string()),
            }
        }
        Ok(opts)
    }

    fn apply(&self, mut spec: JobSpec) -> JobSpec {
        spec.objective = self.objective;
        spec.pi = domino_engine::PiSpec::Uniform(self.p);
        spec.timing_fraction = self.timed;
        spec.mp_and_penalty = self.and_penalty;
        if let Some(cycles) = self.sim_cycles {
            spec.sim.cycles = cycles;
        }
        if let Some(shards) = self.sim_shards {
            spec.sim.shards = shards;
        }
        spec.flow.probability.reorder = self.reorder;
        spec
    }

    fn cache(&self) -> Result<Option<Arc<ResultCache>>, String> {
        match &self.cache_dir {
            Some(dir) => ResultCache::on_disk(dir)
                .map(|c| Some(Arc::new(c)))
                .map_err(|e| e.to_string()),
            None => Ok(None),
        }
    }

    fn snapshots(&self) -> Result<Option<Arc<SnapshotStore>>, String> {
        match &self.snapshot_dir {
            Some(dir) => SnapshotStore::on_disk(dir).map(|s| Some(Arc::new(s))),
            None => Ok(None),
        }
    }

    fn client(&self) -> ServeClient {
        ServeClient::new(self.server.clone())
    }

    /// The single circuit spec for `run`/`submit`: a BLIF path or a suite
    /// row, exactly one of them.
    fn single_spec(&self, command: &str) -> Result<JobSpec, String> {
        match (&self.suite_row, self.positional.as_slice()) {
            (Some(row), []) => Ok(self.apply(JobSpec::suite(row))),
            (None, [path]) => Ok(blif_job(path, self)),
            _ => Err(format!(
                "{command} needs exactly one BLIF file or --suite <row>"
            )),
        }
    }
}

fn stem(path: &str) -> String {
    std::path::Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.to_string())
}

fn blif_job(path: &str, opts: &Options) -> JobSpec {
    opts.apply(JobSpec {
        name: stem(path),
        source: CircuitSource::BlifPath(path.to_string()),
        ..JobSpec::suite("unused")
    })
}

fn run_jobs(specs: Vec<JobSpec>, opts: &Options) -> Result<ExitCode, String> {
    let total = specs.len();
    let mut jobs = Vec::with_capacity(total);
    for spec in specs {
        jobs.push(spec.resolve().map_err(|e| e.to_string())?);
    }
    let cache = opts.cache()?;
    let snapshots = opts.snapshots()?;
    let engine = FlowEngine::new(EngineConfig {
        threads: opts.threads,
        cache: cache.clone(),
        snapshots: snapshots.clone(),
    });
    let quiet = opts.quiet;
    let progress = move |event: ProgressEvent| {
        if quiet {
            return;
        }
        match event {
            ProgressEvent::Started { index, name } => {
                eprintln!("[{}/{}] {name} ...", index + 1, total);
            }
            ProgressEvent::Finished {
                index,
                name,
                cached,
                elapsed_ms,
            } => {
                let how = if cached { "cache hit" } else { "computed" };
                eprintln!(
                    "[{}/{}] {name} done ({how}, {elapsed_ms} ms)",
                    index + 1,
                    total
                );
            }
            ProgressEvent::Failed { index, name, error } => {
                eprintln!("[{}/{}] {name} FAILED: {error}", index + 1, total);
            }
            ProgressEvent::Cancelled { index } => {
                eprintln!("[{}/{}] cancelled", index + 1, total);
            }
        }
    };
    let results = engine.run_batch_with(&jobs, progress, &CancelToken::new());

    // --quiet silences *progress* (stderr), never the results: the table,
    // stats and cache summary always print, as documented in the usage.
    print!("{}", report::format_outcomes(&results));
    if opts.stats {
        print!("{}", report::format_kernel_stats(&results));
    }
    if let Some(cache) = &cache {
        let stats = cache.stats();
        println!(
            "cache: {} hits ({} memory, {} disk), {} misses, {} entries on disk",
            stats.hits(),
            stats.memory_hits,
            stats.disk_hits,
            stats.misses,
            cache.disk_len(),
        );
    }
    if let Some(store) = &snapshots {
        let stats = store.stats();
        println!(
            "snapshots: {} hits, {} misses, {} stores, {} kernel builds, {} entries on disk",
            stats.hits,
            stats.misses,
            stats.stores,
            stats.kernel_builds,
            store.disk_len(),
        );
    }
    if let Some(path) = &opts.jsonl {
        let jsonl = report::to_jsonl(&results);
        if path == "-" {
            print!("{jsonl}");
        } else {
            std::fs::write(path, jsonl).map_err(|e| format!("writing {path}: {e}"))?;
        }
    }
    let all_ok = results
        .iter()
        .all(|r| matches!(r, JobResult::Completed { .. }));
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_suite(opts: &Options) -> Result<ExitCode, String> {
    let specs = suite_names(opts.public_only)
        .into_iter()
        .map(|name| opts.apply(JobSpec::suite(name)))
        .collect();
    run_jobs(specs, opts)
}

/// Suite row names, optionally restricted to the public-domain subset
/// (owned by `domino-workloads`, so the CLI never drifts from the library).
fn suite_names(public_only: bool) -> Vec<&'static str> {
    if public_only {
        domino_workloads::public_row_names()
    } else {
        domino_workloads::table_row_names()
    }
}

fn cmd_cache(args: &[String]) -> Result<ExitCode, String> {
    let sub = args.first().map(String::as_str);
    let opts = Options::parse(args.get(1..).unwrap_or(&[]))?;
    if sub == Some("snapshots") {
        // The snapshot store has its own directory flag: it is a
        // different artifact class (kernels, not outcomes) and is never
        // the same directory as the result cache.
        let dir = opts
            .snapshot_dir
            .ok_or_else(|| "cache snapshots needs --snapshot-dir <dir>".to_string())?;
        let store = SnapshotStore::on_disk(&dir)?;
        println!("snapshot directory: {dir}");
        println!("entries on disk: {}", store.disk_len());
        println!("bytes on disk: {}", store.disk_bytes());
        return Ok(ExitCode::SUCCESS);
    }
    let dir = opts
        .cache_dir
        .ok_or_else(|| "cache commands need --cache <dir>".to_string())?;
    let cache = ResultCache::on_disk(&dir).map_err(|e| e.to_string())?;
    match sub {
        Some("stats") => {
            println!("cache directory: {dir}");
            println!("entries on disk: {}", cache.disk_len());
            Ok(ExitCode::SUCCESS)
        }
        Some("clear") => {
            let before = cache.disk_len();
            cache.clear().map_err(|e| e.to_string())?;
            println!("removed {before} entries from {dir}");
            Ok(ExitCode::SUCCESS)
        }
        _ => Err("cache subcommand must be 'stats', 'clear' or 'snapshots'".to_string()),
    }
}

// ---- server-side commands ----

/// Renders a client error and picks the documented exit code: 3 for an
/// unreachable server, 1 for everything the server itself rejected.
fn client_failure(context: &str, error: &ClientError) -> ExitCode {
    eprintln!("dominoc: {context}: {error}");
    if let ClientError::Api {
        retry_after: Some(seconds),
        ..
    } = error
    {
        eprintln!("dominoc: server suggests retrying after {seconds}s");
    }
    match error {
        ClientError::Unreachable(_) => ExitCode::from(EXIT_UNREACHABLE),
        _ => ExitCode::FAILURE,
    }
}

fn parse_job_id(opts: &Options, command: &str) -> Result<u64, String> {
    match opts.positional.as_slice() {
        [id] => id
            .parse()
            .map_err(|_| format!("{command} needs a numeric job id, got '{id}'")),
        _ => Err(format!("{command} needs exactly one job id")),
    }
}

fn cmd_submit(opts: &Options) -> Result<ExitCode, String> {
    let mut spec = opts.single_spec("submit")?;
    // Inline the circuit text: the server need not share our filesystem.
    // Content addressing makes this equivalent to a local path run.
    if let CircuitSource::BlifPath(path) = &spec.source {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading '{path}': {e}"))?;
        spec.source = CircuitSource::BlifInline(text);
    }
    if opts.wait {
        // Synchronous mode: one round trip, outcome JSON on stdout.
        return match opts.client().run_sync(&spec) {
            Ok(text) => {
                println!("{text}");
                Ok(ExitCode::SUCCESS)
            }
            Err(e) => Ok(client_failure("submit", &e)),
        };
    }
    match opts.client().submit(&spec) {
        Ok(reply) => {
            eprintln!(
                "submitted job {} ({}, {}), queue depth {}",
                reply.id, reply.name, reply.status, reply.queue_depth
            );
            // Machine-parseable: exactly the id on stdout.
            println!("{}", reply.id);
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => Ok(client_failure("submit", &e)),
    }
}

fn cmd_status(opts: &Options) -> Result<ExitCode, String> {
    let id = parse_job_id(opts, "status")?;
    match opts.client().status(id, opts.wait) {
        Ok(reply) => {
            println!("{}", reply.to_json().serialize());
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => Ok(client_failure("status", &e)),
    }
}

fn cmd_watch(opts: &Options) -> Result<ExitCode, String> {
    let id = parse_job_id(opts, "watch")?;
    match opts.client().events(id, |event| {
        println!("{}", event.to_json().serialize());
    }) {
        Ok(events) => Ok(match events.last().map(|e| e.kind) {
            Some(domino_serve::EventKind::Finished) => ExitCode::SUCCESS,
            // Failed, cancelled, or the stream ended without a terminal
            // event (server drain): not a success.
            _ => ExitCode::FAILURE,
        }),
        Err(e) => Ok(client_failure("watch", &e)),
    }
}

fn cmd_result(opts: &Options) -> Result<ExitCode, String> {
    let id = parse_job_id(opts, "result")?;
    match opts.client().result(id, opts.wait) {
        Ok(text) => {
            // One outcome document per line — the same framing as
            // `run --jsonl`, so the bytes diff clean against a local run.
            println!("{text}");
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => Ok(client_failure("result", &e)),
    }
}

fn cmd_cancel(opts: &Options) -> Result<ExitCode, String> {
    let id = parse_job_id(opts, "cancel")?;
    match opts.client().cancel(id) {
        Ok(reply) => {
            println!("{}", reply.to_json().serialize());
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => Ok(client_failure("cancel", &e)),
    }
}

fn cmd_metrics(opts: &Options) -> Result<ExitCode, String> {
    match opts.client().metrics() {
        Ok(reply) => {
            println!("{}", reply.to_json().serialize());
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => Ok(client_failure("metrics", &e)),
    }
}

fn cmd_shutdown(opts: &Options) -> Result<ExitCode, String> {
    match opts.client().shutdown() {
        Ok(()) => {
            eprintln!("dominoc: server at {} is draining", opts.server);
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => Ok(client_failure("shutdown", &e)),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().map(String::as_str) else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    let rest = &args[1..];
    let run = || -> Result<ExitCode, String> {
        match command {
            "run" => {
                let opts = Options::parse(rest)?;
                let spec = opts.single_spec("run")?;
                run_jobs(vec![spec], &opts)
            }
            "batch" => {
                let opts = Options::parse(rest)?;
                if opts.positional.is_empty() {
                    return Err("batch needs at least one BLIF file".to_string());
                }
                let specs = opts.positional.iter().map(|p| blif_job(p, &opts)).collect();
                run_jobs(specs, &opts)
            }
            "suite" => {
                let opts = Options::parse(rest)?;
                if !opts.positional.is_empty() {
                    return Err("suite takes no positional arguments".to_string());
                }
                cmd_suite(&opts)
            }
            "cache" => cmd_cache(rest),
            "submit" => cmd_submit(&Options::parse(rest)?),
            "status" => cmd_status(&Options::parse(rest)?),
            "watch" => cmd_watch(&Options::parse(rest)?),
            "result" => cmd_result(&Options::parse(rest)?),
            "cancel" => cmd_cancel(&Options::parse(rest)?),
            "metrics" => cmd_metrics(&Options::parse(rest)?),
            "shutdown" => cmd_shutdown(&Options::parse(rest)?),
            "help" | "--help" | "-h" => {
                println!("{}", usage());
                Ok(ExitCode::SUCCESS)
            }
            other => Err(format!("unknown command '{other}'")),
        }
    };
    match run() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("dominoc: {message}");
            eprintln!("{}", usage());
            ExitCode::from(2)
        }
    }
}
