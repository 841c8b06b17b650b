//! Automated phase assignment for the synthesis of low power domino
//! circuits — the core algorithms of Patra & Narayanan, DAC 1999.
//!
//! Domino logic is inherently *non-inverting*: a domino block functions only
//! if every gate makes a monotonic 0→1 transition, so internal inverters
//! must be eliminated before a netlist can be implemented in domino. The
//! classical recipe (Puri et al., ICCAD '96) picks a **phase** for every
//! primary output — *positive* (no inverter at the output boundary) or
//! *negative* (one static inverter at the boundary) — and pushes inverters
//! out of the block with DeMorgan's law, duplicating logic wherever
//! conflicting polarity demands trap an inverter.
//!
//! The paper's observation: the phase assignment also determines the
//! **switching activity** of the block, because a domino gate switches with
//! probability exactly equal to the *signal probability* of its output
//! (Property 2.1) — and a complemented cone has probability `1 − p`
//! (Property 4.1). Minimum area and minimum power are *different*
//! assignments.
//!
//! This crate provides:
//!
//! * [`DominoSynthesizer`] / [`DominoNetwork`] — inverter-free synthesis for
//!   any [`PhaseAssignment`] (§3, Figures 3–4);
//! * [`power`] — the domino switching/power model (§2, Figures 2 & 5) and
//!   the `Σ Sᵢ·Cᵢ·Pᵢ` estimator (§4.2);
//! * [`prob`] — exact node probabilities via BDDs, with MFVS partitioning
//!   for sequential circuits (§4.2.1–4.2.2);
//! * [`cost`] — the pairwise cost function `K(i±, j±)` with cone overlap
//!   `O(i,j)` and cone averages `A_i` (§4.1);
//! * [`search`] — the min-power greedy loop of §4.1 and the min-area
//!   baseline of \[15\];
//! * [`flow`] — the complete Figure-6 power-minimization paradigm.
//!
//! # Example
//!
//! ```
//! use domino_phase::{DominoSynthesizer, PhaseAssignment};
//! use domino_netlist::Network;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // f = !(a·b) cannot be implemented in domino as-is…
//! let mut net = Network::new("nand");
//! let a = net.add_input("a")?;
//! let b = net.add_input("b")?;
//! let ab = net.add_and([a, b])?;
//! let f = net.add_not(ab)?;
//! net.add_output("f", f)?;
//!
//! let synth = DominoSynthesizer::new(&net)?;
//! // …but with f in negative phase the block computes a·b and a static
//! // inverter at the boundary restores f.
//! let domino = synth.synthesize(&PhaseAssignment::all_negative(1))?;
//! assert!(domino.is_inverter_free());
//! assert_eq!(domino.output_inverter_count(), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cost;
mod error;
pub mod flow;
mod phase_assignment;
pub mod power;
pub mod prob;
pub mod search;
mod synth;

pub use error::PhaseError;
pub use phase_assignment::{Phase, PhaseAssignment};
pub use synth::{
    DominoGate, DominoGateKind, DominoNetwork, DominoRef, DominoSynthesizer, ViewOutput,
};
