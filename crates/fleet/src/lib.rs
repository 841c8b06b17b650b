//! `dominofleet` — scale-out for the phase-assignment service: a
//! consistent-hash gateway (`dominogw`) over N `dominod` backends, with
//! cache peering so one node's cold run warms the whole fleet.
//!
//! PR 5 made flows servable by one resident `dominod`; this crate makes
//! a *fleet* of them look like one server:
//!
//! * [`hash`] — rendezvous (highest-random-weight) hashing from a job's
//!   content-address to its home backend: identical specs always land on
//!   the same node and its warm cache, and membership churn only moves
//!   the keys that must move.
//! * [`pool`] — the gateway's health-checked view of its backends (one
//!   kept-alive [`domino_serve::ServeClient`] each).
//! * [`gateway`] — the `dominogw` front door: protocol-compatible with
//!   `dominod` (same client, same `dominoc`), relaying outcome bytes
//!   verbatim, rewriting job ids, propagating `429` backpressure, and
//!   failing over deterministically when a backend is unreachable.
//!
//! # Example
//!
//! ```
//! use domino_fleet::{Gateway, GatewayConfig};
//! use domino_serve::{ServeConfig, Server, ServeClient};
//! use domino_engine::JobSpec;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Two backends...
//! let a = Server::start(ServeConfig { addr: "127.0.0.1:0".into(), workers: 1, ..Default::default() })?;
//! let b = Server::start(ServeConfig { addr: "127.0.0.1:0".into(), workers: 1, ..Default::default() })?;
//! // ...one gateway.
//! let gw = Gateway::start(GatewayConfig {
//!     addr: "127.0.0.1:0".into(),
//!     backends: vec![a.addr().to_string(), b.addr().to_string()],
//!     ..Default::default()
//! })?;
//!
//! // The gateway speaks the dominod protocol: the same client works.
//! let client = ServeClient::new(gw.addr().to_string());
//! let mut spec = JobSpec::suite("frg1");
//! spec.sim.cycles = 256; // keep the doctest quick
//! let outcome_json = client.run_sync(&spec)?;
//! assert!(outcome_json.starts_with("{\"name\":\"frg1\""));
//!
//! gw.shutdown();
//! a.shutdown();
//! b.shutdown();
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod gateway;
pub mod hash;
pub mod pool;

pub use gateway::{
    BackendHealth, Gateway, GatewayConfig, GatewayMetrics, DEFAULT_GW_PORT, FAILOVER_RETRY_BUDGET,
};
pub use pool::{Backend, BackendPool, BREAKER_TRIP_THRESHOLD};
