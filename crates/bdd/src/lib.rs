//! Reduced ordered binary decision diagrams (ROBDDs) with exact signal
//! probability computation.
//!
//! This crate is the probability engine of the `dominolp` workspace: the
//! paper (§4.2) computes the signal probability of every circuit node with
//! BDDs, and controls BDD size with a circuit-driven variable ordering
//! heuristic (§4.2.2) implemented in [`ordering`].
//!
//! Contents:
//!
//! * [`BddManager`] — arena-based ROBDD store with hash-consing, apply
//!   caches, `and`/`or`/`xor`/`not`/`ite`, evaluation, SAT counting,
//!   support, and shared node counting;
//! * [`BddManager::signal_probability`] — exact `P[f = 1]` for independent
//!   input probabilities, linear in BDD size;
//! * [`circuit`] — builds BDDs for every node of a
//!   [`Network`](domino_netlist::Network);
//! * [`ordering`] — the paper's reverse-topological, fanout-cone-weighted
//!   variable ordering plus baseline orders for the Figure 10 comparison;
//! * [`dvo`] — dynamic variable reordering: in-place adjacent level swaps
//!   and Rudell-style sifting with deterministic fixed-trigger schedules.
//!
//! # Example
//!
//! ```
//! use domino_bdd::BddManager;
//!
//! # fn main() -> Result<(), domino_bdd::BddError> {
//! let mut m = BddManager::new(2);
//! let a = m.var(0)?;
//! let b = m.var(1)?;
//! let f = m.and(a, b)?;
//! // P[a·b = 1] with P[a]=0.9, P[b]=0.9
//! let p = m.signal_probability(f, &[0.9, 0.9])?;
//! assert!((p - 0.81).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod circuit;
pub mod dvo;
pub mod fx;
mod manager;
pub mod ordering;
mod swap;
pub mod table;

pub use dvo::{ReorderConfig, ReorderMode, ReorderOutcome};
pub use manager::{Bdd, BddError, BddManager, BddStats};
