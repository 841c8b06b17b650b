//! Statistical vector simulation and power measurement — the stand-in for
//! the paper's EPIC PowerMill runs.
//!
//! The paper measures final power by simulating the mapped netlist with
//! "statistically generated input vectors with the appropriate signal
//! probabilities". This crate reproduces that methodology on a
//! **bit-parallel engine**: 64 independent Monte-Carlo lanes are packed
//! into every `u64` word ([`PackedVectorSource`]), each gate evaluates as
//! one word-wide boolean operation, and switching events are accumulated
//! with `count_ones` into integer counters that convert to `f64` exactly
//! once — so one pass of the netlist simulates 64 vectors and totals are
//! independent of accumulation order. [`measure_power`] and
//! [`measure_domino_switching`] go one step further: both compile their
//! circuit into one CSR form and simulate up to 8 sub-seeded shard streams
//! in lockstep on one runner, 8 words per rail in one pass.
//!
//! * [`VectorSource`] / [`PackedVectorSource`] — seeded Bernoulli vector
//!   streams with per-input probabilities (scalar and 64-lane packed);
//! * [`measure_power`] — cycle-accurate simulation of a mapped netlist with
//!   capacitive, short-circuit and leakage currents reported in mA
//!   (Property 2.2 makes zero-delay simulation *exact* for domino
//!   switching); supports adaptive cycle control via
//!   [`SimConfig::adaptive_tol_ppm`];
//! * [`measure_domino_switching`] — event counts on the unmapped
//!   [`DominoNetwork`](domino_phase::DominoNetwork), used to validate the
//!   BDD-based estimate `Σ S·C·P` against simulation;
//! * [`montecarlo`] — sampled node probabilities, the cross-check for the
//!   exact BDD probabilities;
//! * [`simulate_static`] — a unit-delay event-driven simulation of the
//!   *static CMOS* realization, which glitches; the contrast quantifies
//!   Property 2.2 and the Figure 2 switching models;
//! * [`reference`](mod@reference) — one-bool-at-a-time scalar implementations consuming
//!   the identical packed stream, pinned bit-identical to the packed
//!   kernels by the golden equivalence tests.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod montecarlo;
mod packed;
mod power;
pub mod reference;
mod static_sim;
mod vectors;

pub use packed::SimStats;
pub use power::{measure_domino_switching, measure_power, PowerReport, SimConfig, SwitchingCounts};
pub use static_sim::{simulate_static, StaticSimReport};
pub use vectors::{PackedVectorSource, VectorSource, LANES};
