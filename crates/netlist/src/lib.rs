//! Boolean network infrastructure for domino logic synthesis.
//!
//! This crate provides the *technology-independent* gate-level netlist that the
//! rest of the `dominolp` workspace is built on. A [`Network`] is a directed
//! acyclic graph of [`NodeKind::And`] / [`NodeKind::Or`] / [`NodeKind::Not`]
//! gates over primary inputs, constants and clocked latches (D flip-flops).
//! Sequential circuits are modelled by latches whose data input closes a cycle
//! *through* the combinational DAG, never inside it.
//!
//! Provided services:
//!
//! * construction and validation ([`Network`], [`NetlistError`])
//! * traversal: topological order, logic levels, transitive fanin/fanout cones
//!   ([`Network::topo_order`], [`Network::transitive_fanin`], ...)
//! * functional evaluation for combinational and sequential networks
//!   ([`Network::eval_comb`], [`SequentialState`])
//! * light technology-independent optimization: constant folding, double
//!   negation removal, structural hashing ([`optimize`])
//! * BLIF reading/writing ([`parse_blif`], [`write_blif`])
//! * summary statistics ([`NetworkStats`])
//! * a stable structural digest for content-addressed result caching
//!   ([`Network::structural_digest`])
//!
//! # Example
//!
//! ```
//! use domino_netlist::{Network, NodeKind};
//!
//! # fn main() -> Result<(), domino_netlist::NetlistError> {
//! let mut net = Network::new("demo");
//! let a = net.add_input("a")?;
//! let b = net.add_input("b")?;
//! let ab = net.add_and([a, b])?;
//! let nab = net.add_not(ab)?;
//! net.add_output("nand", nab)?;
//! net.validate()?;
//! assert_eq!(net.node(ab).kind, NodeKind::And);
//! assert_eq!(net.eval_comb(&[true, true])?, vec![false]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod blif;
mod digest;
mod error;
mod eval;
mod network;
mod node;
mod optimize;
mod stats;
mod traversal;

pub use blif::{parse_blif, parse_blif_path, parse_blif_reader, write_blif};
pub use error::NetlistError;
pub use eval::SequentialState;
pub use network::{Network, NodeId, Output};
pub use node::{Node, NodeKind};
pub use optimize::{optimize, OptimizeReport};
pub use stats::NetworkStats;
pub use traversal::LevelMap;
