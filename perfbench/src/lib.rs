//! The dominolp benchmark: three seeded workloads driven through the
//! workspace's public API, every output checked, end-to-end metrics from
//! untraced runs and per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tables_cold --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is the result object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.

#![forbid(unsafe_code)]

pub mod check;
pub mod golden;
pub mod inputs;
pub mod replay;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
