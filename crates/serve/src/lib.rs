//! `dominod` — a long-running phase-assignment service over the
//! [`domino_engine`] batch flow engine, plus the `dominoc` CLI that talks
//! to it.
//!
//! PR 1–4 made single flows fast and deterministic; this crate makes them
//! *servable*: instead of paying BDD/search/sim warmup per `dominoc`
//! invocation, a resident `dominod` process keeps one
//! [`FlowEngine`](domino_engine::FlowEngine) and one shared
//! [`ResultCache`](domino_engine::ResultCache) hot across every caller.
//! The wire layer is hand-rolled HTTP/1.1 on [`std::net`] — the build
//! environment has no registry access, so (following the `crates/compat`
//! precedent) there are no external dependencies.
//!
//! # Endpoints
//!
//! | endpoint | purpose |
//! |---|---|
//! | `POST /jobs` | submit a [`JobSpec`](domino_engine::JobSpec) JSON body; `202` + id, or `429` + `Retry-After` when the admission queue is full; `?wait=1` blocks and answers with the outcome bytes (one round trip) |
//! | `GET /jobs/:id` | status document (`?wait=1` long-polls until terminal) |
//! | `GET /jobs/:id/result` | the engine's exact serialized outcome bytes — byte-identical to `dominoc run` |
//! | `GET /jobs/:id/events` | chunked stream of lifecycle events, one JSON line each |
//! | `DELETE /jobs/:id` | cooperative cancellation |
//! | `GET /metrics` | queue depth, lifecycle counters, stage timings, cache hit/miss |
//! | `GET /healthz` | liveness |
//! | `POST /shutdown` | graceful drain: finish admitted jobs, then exit |
//!
//! # Example
//!
//! ```
//! use domino_serve::{ServeClient, ServeConfig, Server};
//! use domino_engine::JobSpec;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let server = Server::start(ServeConfig {
//!     addr: "127.0.0.1:0".into(), // ephemeral port
//!     workers: 2,
//!     ..ServeConfig::default()
//! })?;
//! let client = ServeClient::new(server.addr().to_string());
//!
//! let mut spec = JobSpec::suite("frg1");
//! spec.sim.cycles = 256; // keep the doctest quick
//! let admitted = client.submit(&spec)?;
//! let outcome_json = client.result(admitted.id, true)?; // blocks until done
//! assert!(outcome_json.starts_with("{\"name\":\"frg1\""));
//!
//! server.shutdown(); // drain and join
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod client;
pub mod config;
pub mod front;
pub mod http;
pub mod protocol;
mod registry;
mod server;
pub mod service;

pub use client::{ClientBuilder, ClientError, ServeClient};
pub use config::{ArgTable, ParsedArgs, DEFAULT_MAX_CONNECTIONS};
pub use protocol::{
    CacheCounters, ErrorReply, EventKind, EventRecord, FailpointCounter, JobStatus, MetricsReply,
    ReactorCounters, StatusReply, SubmitReply,
};
pub use server::{ResolveMemo, ServeConfig, Server, DEFAULT_PORT};
pub use service::{daemon_main, ShutdownHandle};
