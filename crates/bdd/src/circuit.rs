//! Building BDDs for every node of a Boolean network.
//!
//! The BDD *variables* of a network are its combinational sources: primary
//! inputs first, then latch outputs (a latch output is a free variable of the
//! combinational block it feeds — the sequential partitioning in
//! `domino-sgraph` decides what probability it carries). The variable index
//! of the `i`-th source is `i`; see [`source_nodes`].

use std::collections::HashMap;

use domino_netlist::{Network, NodeId, NodeKind};

use crate::dvo::{self, ReorderConfig, ReorderMode, ReorderOutcome};
use crate::manager::{Bdd, BddError, BddManager};
use crate::ordering;

/// The combinational source nodes of `net` in variable-index order: primary
/// inputs in declaration order, then latches in declaration order.
pub fn source_nodes(net: &Network) -> Vec<NodeId> {
    net.inputs()
        .iter()
        .chain(net.latches().iter())
        .copied()
        .collect()
}

/// BDDs for every node of a network, sharing one [`BddManager`].
///
/// # Example
///
/// ```
/// use domino_bdd::circuit::CircuitBdds;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut net = domino_netlist::Network::new("c");
/// let a = net.add_input("a")?;
/// let b = net.add_input("b")?;
/// let g = net.add_and([a, b])?;
/// net.add_output("f", g)?;
///
/// let bdds = CircuitBdds::build(&net)?;
/// let p = bdds.node_probabilities(&net, &[0.9, 0.9])?;
/// assert!((p[g.index()] - 0.81).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CircuitBdds {
    manager: BddManager,
    node_funcs: Vec<Bdd>,
}

impl CircuitBdds {
    /// Builds BDDs for all nodes using the paper's §4.2.2 variable ordering
    /// heuristic ([`ordering::paper_order`]).
    ///
    /// # Errors
    ///
    /// Returns [`BddError::NodeLimit`] if construction blows up.
    pub fn build(net: &Network) -> Result<Self, BddError> {
        Self::build_with_order(net, ordering::paper_order(net))
    }

    /// Builds BDDs for all nodes with an explicit variable order:
    /// `order[l]` is the source-variable index placed at BDD level `l`
    /// (level 0 is root-most).
    ///
    /// # Errors
    ///
    /// Returns [`BddError::UnknownVariable`] if `order` is not a permutation
    /// of the source indices, or [`BddError::NodeLimit`] on blow-up.
    pub fn build_with_order(net: &Network, order: Vec<usize>) -> Result<Self, BddError> {
        let (bdds, _) = Self::build_reordered(net, order, &ReorderConfig::default())?;
        Ok(bdds)
    }

    /// Builds BDDs for all nodes under the given start order, running
    /// dynamic variable reordering per `reorder`:
    ///
    /// * [`ReorderMode::Off`] — exactly [`CircuitBdds::build_with_order`]
    ///   (bit-identical arena, stats and probabilities), outcome `None`;
    /// * [`ReorderMode::Sift`] — one sifting campaign after construction,
    ///   then compaction;
    /// * [`ReorderMode::Auto`] — sifts (and compacts) whenever the arena
    ///   crosses the fixed doubling ladder of node-count thresholds during
    ///   construction, and compacts once more at the end. Triggers depend
    ///   only on deterministic arena sizes, never on timing.
    ///
    /// For the two active modes the returned [`ReorderOutcome`] records
    /// swap counts, node counts and the final order (equal to the start
    /// order when nothing fired).
    ///
    /// # Errors
    ///
    /// Same conditions as [`CircuitBdds::build_with_order`].
    pub fn build_reordered(
        net: &Network,
        order: Vec<usize>,
        reorder: &ReorderConfig,
    ) -> Result<(Self, Option<ReorderOutcome>), BddError> {
        let sources = source_nodes(net);
        if order.len() != sources.len() {
            return Err(BddError::ArityMismatch {
                expected: sources.len(),
                got: order.len(),
            });
        }
        let mut manager = BddManager::with_order(order)?;
        // Shared BDDs for block-sized control logic land near the gate
        // count; pre-sizing the kernel tables avoids mid-build rehashes.
        manager.reserve(net.len());
        let var_of: HashMap<NodeId, usize> =
            sources.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        let mut node_funcs = vec![Bdd::FALSE; net.len()];
        let mut outcome = match reorder.mode {
            ReorderMode::Off => None,
            _ => Some(ReorderOutcome::default()),
        };
        // The auto ladder: first sift when the arena reaches the trigger,
        // then at deterministic doublings from wherever the last sift
        // left the (compacted) arena.
        let mut next_trigger = reorder.auto_trigger_nodes.max(4);
        let mut auto_fired = false;
        for id in net.topo_order() {
            let node = net.node(id);
            let f = match node.kind {
                NodeKind::Input | NodeKind::Latch { .. } => manager.var(var_of[&id])?,
                NodeKind::Constant(v) => manager.constant(v),
                NodeKind::Not => {
                    let x = node_funcs[node.fanins[0].index()];
                    manager.not(x)?
                }
                // Feed fanin functions straight from the arena — no
                // per-gate temporary Vec on the construction hot path.
                NodeKind::And => {
                    manager.and_many(node.fanins.iter().map(|f| node_funcs[f.index()]))?
                }
                NodeKind::Or => {
                    manager.or_many(node.fanins.iter().map(|f| node_funcs[f.index()]))?
                }
            };
            node_funcs[id.index()] = f;
            if reorder.mode == ReorderMode::Auto && manager.stats().nodes >= next_trigger {
                auto_fired = true;
                let sifted = dvo::sift(&mut manager, &node_funcs, reorder.max_growth_pct)?;
                outcome
                    .as_mut()
                    .expect("auto mode records an outcome")
                    .absorb(&sifted);
                node_funcs = manager.compact(&node_funcs);
                next_trigger = manager.stats().nodes.max(next_trigger) * 2;
            }
        }
        let run_final = match reorder.mode {
            ReorderMode::Off => false,
            ReorderMode::Sift => true,
            ReorderMode::Auto => auto_fired,
        };
        if run_final {
            let sifted = dvo::sift(&mut manager, &node_funcs, reorder.max_growth_pct)?;
            outcome
                .as_mut()
                .expect("active mode records an outcome")
                .absorb(&sifted);
            node_funcs = manager.compact(&node_funcs);
        }
        if let Some(o) = outcome.as_mut() {
            // A mode that never fired still records where the order ended
            // up (== the start order) so stats always carry it.
            if o.final_order.is_empty() {
                o.final_order = manager.order();
                o.nodes_before = manager.node_count(&node_funcs);
                o.nodes_after = o.nodes_before;
            }
        }
        Ok((
            CircuitBdds {
                manager,
                node_funcs,
            },
            outcome,
        ))
    }

    /// The underlying manager.
    pub fn manager(&self) -> &BddManager {
        &self.manager
    }

    /// BDD of a node.
    pub fn node_bdd(&self, id: NodeId) -> Bdd {
        self.node_funcs[id.index()]
    }

    /// BDDs of the primary outputs, in declaration order.
    pub fn output_bdds(&self, net: &Network) -> Vec<Bdd> {
        net.outputs()
            .iter()
            .map(|o| self.node_funcs[o.driver.index()])
            .collect()
    }

    /// Shared node count over the primary-output BDDs — the Figure 10
    /// metric.
    pub fn output_node_count(&self, net: &Network) -> usize {
        self.manager.node_count(&self.output_bdds(net))
    }

    /// Shared node count over *all* circuit node BDDs.
    pub fn total_node_count(&self) -> usize {
        self.manager.node_count(&self.node_funcs)
    }

    /// Canonical structural digest over all circuit node BDDs
    /// ([`BddManager::digest`]): a function of the represented functions
    /// only, independent of arena layout — equal before and after
    /// compaction, and equal to a from-scratch build under the same order.
    pub fn bdd_digest(&self) -> u64 {
        self.manager.digest(&self.node_funcs)
    }

    /// Runs a sifting campaign over the already-built BDDs and compacts
    /// the arena. Probabilities and evaluation results are unchanged
    /// (same functions, new shapes); node counts typically shrink.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::NodeLimit`] if a swap exhausts the arena limit.
    pub fn reorder(&mut self, reorder: &ReorderConfig) -> Result<ReorderOutcome, BddError> {
        let outcome = dvo::sift(&mut self.manager, &self.node_funcs, reorder.max_growth_pct)?;
        self.node_funcs = self.manager.compact(&self.node_funcs);
        Ok(outcome)
    }

    /// Exact signal probability of every node (indexed by node arena index),
    /// given per-source probabilities in source order (PIs then latches; see
    /// [`source_nodes`]).
    ///
    /// # Errors
    ///
    /// Returns [`BddError::ArityMismatch`] /
    /// [`BddError::InvalidProbability`] for bad probability vectors.
    pub fn node_probabilities(
        &self,
        net: &Network,
        source_probs: &[f64],
    ) -> Result<Vec<f64>, BddError> {
        let _ = net;
        self.manager
            .signal_probabilities(&self.node_funcs, source_probs)
    }

    /// [`CircuitBdds::node_probabilities`] writing into a caller-owned
    /// buffer (cleared first), so sweep loops reuse one allocation across
    /// evaluations.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CircuitBdds::node_probabilities`].
    pub fn node_probabilities_into(
        &self,
        net: &Network,
        source_probs: &[f64],
        out: &mut Vec<f64>,
    ) -> Result<(), BddError> {
        let _ = net;
        self.manager
            .signal_probabilities_into(&self.node_funcs, source_probs, out)
    }
}

/// Formally checks that two combinational networks with the same interface
/// compute the same functions, by hash-consed BDD identity (complete — not
/// sampled). Inputs are matched by *position*, outputs by position.
///
/// Returns `Ok(None)` when equivalent, or `Ok(Some(index))` with the first
/// differing output position.
///
/// # Errors
///
/// Returns [`BddError::ArityMismatch`] if the interfaces differ in input or
/// output count, or [`BddError::NodeLimit`] on blow-up.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use domino_bdd::circuit::check_equivalence;
/// use domino_netlist::Network;
///
/// // DeMorgan: !(a·b) == !a + !b
/// let mut x = Network::new("x");
/// let a = x.add_input("a")?;
/// let b = x.add_input("b")?;
/// let ab = x.add_and([a, b])?;
/// let f = x.add_not(ab)?;
/// x.add_output("f", f)?;
///
/// let mut y = Network::new("y");
/// let a = y.add_input("a")?;
/// let b = y.add_input("b")?;
/// let na = y.add_not(a)?;
/// let nb = y.add_not(b)?;
/// let g = y.add_or([na, nb])?;
/// y.add_output("f", g)?;
///
/// assert_eq!(check_equivalence(&x, &y)?, None);
/// # Ok(())
/// # }
/// ```
pub fn check_equivalence(a: &Network, b: &Network) -> Result<Option<usize>, BddError> {
    let sa = source_nodes(a);
    let sb = source_nodes(b);
    if sa.len() != sb.len() {
        return Err(BddError::ArityMismatch {
            expected: sa.len(),
            got: sb.len(),
        });
    }
    if a.outputs().len() != b.outputs().len() {
        return Err(BddError::ArityMismatch {
            expected: a.outputs().len(),
            got: b.outputs().len(),
        });
    }
    // Build both networks in one shared manager: hash-consing makes
    // function equality pointer equality.
    let n = sa.len();
    let mut manager = BddManager::new(n);
    let build = |manager: &mut BddManager, net: &Network| -> Result<Vec<Bdd>, BddError> {
        let sources = source_nodes(net);
        let var_of: HashMap<NodeId, usize> =
            sources.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        let mut funcs = vec![Bdd::FALSE; net.len()];
        for id in net.topo_order() {
            let node = net.node(id);
            let f = match node.kind {
                NodeKind::Input | NodeKind::Latch { .. } => manager.var(var_of[&id])?,
                NodeKind::Constant(v) => manager.constant(v),
                NodeKind::Not => manager.not(funcs[node.fanins[0].index()])?,
                NodeKind::And => manager.and_many(node.fanins.iter().map(|f| funcs[f.index()]))?,
                NodeKind::Or => manager.or_many(node.fanins.iter().map(|f| funcs[f.index()]))?,
            };
            funcs[id.index()] = f;
        }
        Ok(net
            .outputs()
            .iter()
            .map(|o| funcs[o.driver.index()])
            .collect())
    };
    let outs_a = build(&mut manager, a)?;
    let outs_b = build(&mut manager, b)?;
    Ok(outs_a.iter().zip(&outs_b).position(|(x, y)| x != y))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> (Network, NodeId, NodeId) {
        // f = (a+b)·!c, g = a+b
        let mut net = Network::new("x");
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        let c = net.add_input("c").unwrap();
        let ab = net.add_or([a, b]).unwrap();
        let nc = net.add_not(c).unwrap();
        let f = net.add_and([ab, nc]).unwrap();
        net.add_output("f", f).unwrap();
        net.add_output("g", ab).unwrap();
        (net, f, ab)
    }

    #[test]
    fn bdds_match_network_evaluation() {
        let (net, _, _) = example();
        let bdds = CircuitBdds::build(&net).unwrap();
        let outs = bdds.output_bdds(&net);
        for bits in 0..8u32 {
            let vals: Vec<bool> = (0..3).map(|i| bits & (1 << i) != 0).collect();
            let expect = net.eval_comb(&vals).unwrap();
            for (o, &bdd) in outs.iter().enumerate() {
                assert_eq!(
                    bdds.manager().eval(bdd, &vals).unwrap(),
                    expect[o],
                    "output {o} bits {bits}"
                );
            }
        }
    }

    #[test]
    fn probabilities_exact() {
        let (net, f, ab) = example();
        let bdds = CircuitBdds::build(&net).unwrap();
        let p = bdds.node_probabilities(&net, &[0.5, 0.5, 0.5]).unwrap();
        // P[a+b] = 0.75, P[(a+b)·!c] = 0.375
        assert!((p[ab.index()] - 0.75).abs() < 1e-12);
        assert!((p[f.index()] - 0.375).abs() < 1e-12);
    }

    #[test]
    fn latch_outputs_are_variables() {
        let mut net = Network::new("seq");
        let a = net.add_input("a").unwrap();
        let q = net.add_latch(false);
        let g = net.add_and([a, q]).unwrap();
        net.set_latch_data(q, g).unwrap();
        net.add_output("f", g).unwrap();
        let bdds = CircuitBdds::build(&net).unwrap();
        // Sources: a (var 0), q (var 1); P[g] = P[a]·P[q].
        let p = bdds.node_probabilities(&net, &[0.5, 0.25]).unwrap();
        assert!((p[g.index()] - 0.125).abs() < 1e-12);
        assert_eq!(source_nodes(&net), vec![a, q]);
    }

    #[test]
    fn explicit_order_changes_nothing_functionally() {
        let (net, _, _) = example();
        let b1 = CircuitBdds::build_with_order(&net, vec![0, 1, 2]).unwrap();
        let b2 = CircuitBdds::build_with_order(&net, vec![2, 1, 0]).unwrap();
        let p1 = b1.node_probabilities(&net, &[0.3, 0.6, 0.9]).unwrap();
        let p2 = b2.node_probabilities(&net, &[0.3, 0.6, 0.9]).unwrap();
        for (x, y) in p1.iter().zip(&p2) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    /// The disjoint-pairs circuit f = Σ aᵢ·bᵢ with a's and b's split
    /// across the declaration order — exponential under the identity
    /// order, linear once the pairs interleave.
    fn pairs_net(k: usize) -> Network {
        let mut net = Network::new("pairs");
        let a: Vec<NodeId> = (0..k)
            .map(|i| net.add_input(format!("a{i}")).unwrap())
            .collect();
        let b: Vec<NodeId> = (0..k)
            .map(|i| net.add_input(format!("b{i}")).unwrap())
            .collect();
        let products: Vec<NodeId> = (0..k).map(|i| net.add_and([a[i], b[i]]).unwrap()).collect();
        let f = net.add_or(products).unwrap();
        net.add_output("f", f).unwrap();
        net
    }

    #[test]
    fn reorder_off_is_identical_to_plain_build() {
        let (net, _, _) = example();
        let plain = CircuitBdds::build(&net).unwrap();
        let (off, outcome) = CircuitBdds::build_reordered(
            &net,
            crate::ordering::paper_order(&net),
            &ReorderConfig::default(),
        )
        .unwrap();
        assert!(outcome.is_none());
        assert_eq!(plain.manager.stats(), off.manager.stats());
        assert_eq!(plain.node_funcs, off.node_funcs);
    }

    #[test]
    fn sift_mode_shrinks_and_preserves_probabilities() {
        let net = pairs_net(6);
        let order: Vec<usize> = (0..12).collect();
        let plain = CircuitBdds::build_with_order(&net, order.clone()).unwrap();
        let cfg = ReorderConfig::with_mode(ReorderMode::Sift);
        let (sifted, outcome) = CircuitBdds::build_reordered(&net, order, &cfg).unwrap();
        let outcome = outcome.unwrap();
        assert_eq!(outcome.nodes_before, plain.total_node_count());
        assert_eq!(outcome.nodes_after, sifted.total_node_count());
        assert!(
            outcome.nodes_after * 2 <= outcome.nodes_before,
            "sift barely helped: {} -> {}",
            outcome.nodes_before,
            outcome.nodes_after
        );
        assert_eq!(outcome.final_order, sifted.manager.order());
        // Compacted: the arena holds exactly the live nodes + terminals.
        assert_eq!(sifted.manager.stats().nodes, outcome.nodes_after + 2);
        // Semantics: probabilities match the unreordered build exactly in
        // value (bit patterns may differ — summation order changed).
        let probs = vec![0.3; 12];
        let p0 = plain.node_probabilities(&net, &probs).unwrap();
        let p1 = sifted.node_probabilities(&net, &probs).unwrap();
        for (i, (x, y)) in p0.iter().zip(&p1).enumerate() {
            assert!((x - y).abs() < 1e-12, "node {i}: {x} vs {y}");
        }
    }

    #[test]
    fn auto_mode_triggers_on_the_node_ladder() {
        let net = pairs_net(7);
        let order: Vec<usize> = (0..14).collect();
        let mut cfg = ReorderConfig::with_mode(ReorderMode::Auto);
        cfg.auto_trigger_nodes = 32; // tiny, so the ladder fires mid-build
        let (bdds, outcome) = CircuitBdds::build_reordered(&net, order.clone(), &cfg).unwrap();
        let outcome = outcome.unwrap();
        assert!(outcome.swaps > 0, "auto never fired with a tiny trigger");
        let plain = CircuitBdds::build_with_order(&net, order).unwrap();
        assert!(bdds.total_node_count() < plain.total_node_count());
        // Determinism: the same build reorders identically.
        let (bdds2, outcome2) =
            CircuitBdds::build_reordered(&net, (0..14).collect(), &cfg).unwrap();
        assert_eq!(outcome, outcome2.unwrap());
        assert_eq!(bdds.bdd_digest(), bdds2.bdd_digest());
    }

    #[test]
    fn sifted_manager_matches_fresh_build_under_final_order() {
        let net = pairs_net(5);
        let cfg = ReorderConfig::with_mode(ReorderMode::Sift);
        let (sifted, outcome) =
            CircuitBdds::build_reordered(&net, (0..10).collect(), &cfg).unwrap();
        let outcome = outcome.unwrap();
        let fresh = CircuitBdds::build_with_order(&net, outcome.final_order).unwrap();
        assert_eq!(sifted.total_node_count(), fresh.total_node_count());
        assert_eq!(sifted.bdd_digest(), fresh.bdd_digest());
    }

    #[test]
    fn wrong_order_length_rejected() {
        let (net, _, _) = example();
        assert!(matches!(
            CircuitBdds::build_with_order(&net, vec![0, 1]),
            Err(BddError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn equivalence_detects_differences() {
        let mut x = Network::new("x");
        let a = x.add_input("a").unwrap();
        let b = x.add_input("b").unwrap();
        let f = x.add_and([a, b]).unwrap();
        x.add_output("f", f).unwrap();

        let mut y = Network::new("y");
        let a = y.add_input("a").unwrap();
        let b = y.add_input("b").unwrap();
        let f = y.add_or([a, b]).unwrap();
        y.add_output("f", f).unwrap();

        assert_eq!(check_equivalence(&x, &x).unwrap(), None);
        assert_eq!(check_equivalence(&x, &y).unwrap(), Some(0));
    }

    #[test]
    fn equivalence_interface_mismatch_rejected() {
        let mut x = Network::new("x");
        let a = x.add_input("a").unwrap();
        x.add_output("f", a).unwrap();
        let mut y = Network::new("y");
        let a = y.add_input("a").unwrap();
        let b = y.add_input("b").unwrap();
        let f = y.add_and([a, b]).unwrap();
        y.add_output("f", f).unwrap();
        assert!(check_equivalence(&x, &y).is_err());
    }
}
