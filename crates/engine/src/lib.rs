//! Parallel batch flow engine for the `dominolp` workspace — run *many*
//! circuits through the paper's synthesis flow concurrently, and never run
//! the same one twice.
//!
//! The experiment binaries in `domino-bench` originally drove every circuit
//! through parse → probabilities → search → synthesis → techmap → simulation
//! serially and from scratch. This crate turns that one-shot pipeline into a
//! production-style subsystem:
//!
//! * [`JobSpec`] / [`FlowJob`] / [`FlowOutcome`] — a fully serializable job
//!   model: circuit source (built-in suite row, BLIF file, or inline BLIF),
//!   PI probability profile, objective (min-area / min-power / compare),
//!   the complete flow/library/simulation configuration, and a pure-data
//!   result that is `PartialEq`-comparable and JSON-roundtrippable;
//! * [`run_job`] — one job, start to finish, on the calling thread: the
//!   kernel stage (BDDs, probabilities, any sifting) and the domino
//!   synthesizer are built once and shared by the MA and MP sides, and a
//!   timed compare sizes both to the MA netlist's own unsized delay times
//!   the timing fraction;
//! * [`FlowEngine`] — the same run path behind a work-stealing thread pool
//!   (std threads, no external dependencies) with per-job
//!   [`ProgressEvent`] callbacks, cooperative [`CancelToken`] cancellation
//!   ([`FlowEngine::run_one`] honors it at every stage boundary) and an
//!   optional [`SnapshotStore`] consulted once per job; results always
//!   come back in input order, and `threads = N` is bit-identical to
//!   `threads = 1`;
//! * [`ResultCache`] — a content-addressed cache keyed by
//!   [`Network::structural_digest`](domino_netlist::Network::structural_digest)
//!   plus the canonical JSON of every result-affecting spec field, with
//!   in-memory and on-disk (one JSON file per entry) backends and
//!   hit/miss/store [`CacheStats`];
//! * `dominoc` — the CLI binary driving all of it (it lives in
//!   `domino-serve` next to the `dominod` server so it can also speak the
//!   wire protocol): `run` one BLIF, `batch` many, `suite` for the
//!   built-in Table 1/2 circuits, `cache stats` / `cache clear` for the
//!   disk cache; paper-style tables on stdout and machine-readable JSONL
//!   on request.
//!
//! # Example
//!
//! ```
//! use domino_engine::{EngineConfig, FlowEngine, JobSpec, ResultCache};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), domino_engine::EngineError> {
//! let cache = Arc::new(ResultCache::in_memory());
//! let engine = FlowEngine::new(EngineConfig {
//!     threads: 2,
//!     cache: Some(Arc::clone(&cache)),
//!     snapshots: None, // see SnapshotStore for restart-warm kernels
//! });
//! let jobs = vec![JobSpec::suite("frg1").resolve()?];
//! let cold = engine.run_batch(&jobs);
//! let warm = engine.run_batch(&jobs); // answered from the cache
//! assert_eq!(cold[0].outcome(), warm[0].outcome());
//! assert!(warm[0].was_cached());
//! assert_eq!(cache.stats().misses, 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cache;
#[allow(clippy::module_inception)]
mod engine;
mod error;
mod job;
pub mod json;
pub mod report;
mod runner;

pub use cache::{CacheStats, ResultCache};
pub use domino_bdd::ReorderMode;
pub use domino_sim::SimStats;
pub use domino_store::{SnapshotStats, SnapshotStore, WarmSnapshot};
pub use engine::{CancelToken, EngineConfig, FlowEngine, JobResult, ProgressEvent};
pub use error::EngineError;
pub use job::{
    assignment_string, cache_key, snapshot_key, BddKernelStats, CircuitSource, FlowJob,
    FlowOutcome, JobSpec, ObjectiveResult, PiSpec, ReorderInfo, RunObjective,
};
pub use runner::run_job;
