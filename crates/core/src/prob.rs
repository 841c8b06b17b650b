//! Exact signal probabilities for every network node (paper §4.2.1–4.2.2).
//!
//! Combinational networks: one BDD per node (shared manager) under a
//! configurable variable order, probabilities in one memoized sweep.
//!
//! Sequential networks: the latch dependency structure is made acyclic by
//! cutting an (approximately minimum) feedback vertex set of the s-graph
//! (`domino-sgraph`); cut latches act as pseudo primary inputs with
//! probability ½, the remaining latches are resolved in dependency order
//! (their steady-state probability is their data input's probability), and
//! optional extra sweeps iterate the cut latches toward a fixpoint.

use domino_bdd::circuit::CircuitBdds;
use domino_bdd::ordering;
use domino_bdd::{BddStats, ReorderConfig, ReorderMode, ReorderOutcome};
use domino_netlist::Network;
use domino_sgraph::{partition, MfvsConfig, Partition};

use crate::error::PhaseError;

/// Which BDD variable order to build with (ablation A2 of DESIGN.md).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum OrderingChoice {
    /// The paper's reverse-topological fanout-cone heuristic (§4.2.2).
    #[default]
    Paper,
    /// Naive first-visit topological order (Figure 10's 11-node baseline).
    Topological,
    /// A seeded random permutation.
    Random(u64),
    /// An explicit order (level 0 first).
    Custom(Vec<usize>),
}

/// Configuration for [`compute_probabilities`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProbabilityConfig {
    /// Variable ordering for the BDDs.
    pub ordering: OrderingChoice,
    /// MFVS heuristic configuration for sequential partitioning.
    pub mfvs: MfvsConfig,
    /// Number of fixpoint sweeps updating cut-latch probabilities (≥ 1).
    /// Sweep 1 uses probability ½ for every cut latch, matching the paper's
    /// partition-and-approximate scheme; more sweeps refine toward a
    /// steady state.
    pub sweeps: usize,
    /// Probability assigned to cut latches on the first sweep.
    pub cut_latch_probability: f64,
    /// Early-exit threshold for the sequential sweep loop: when no source
    /// probability moved by more than this between sweeps, the remaining
    /// sweeps are skipped (they could only reproduce the same result). The
    /// default `0.0` exits only at an *exact* fixed point, so results are
    /// bit-identical to running every sweep.
    pub convergence_tolerance: f64,
    /// Dynamic variable reordering (sifting) applied while the BDDs are
    /// built. `Off` (the default) reproduces the static-order build
    /// bit-for-bit; `Auto` sifts at fixed node-count triggers; `Sift` runs
    /// one final sifting pass. Result-affecting: the reorder mode joins
    /// the engine cache key.
    pub reorder: ReorderMode,
}

impl Default for ProbabilityConfig {
    fn default() -> Self {
        ProbabilityConfig {
            ordering: OrderingChoice::Paper,
            mfvs: MfvsConfig::default(),
            sweeps: 2,
            cut_latch_probability: 0.5,
            convergence_tolerance: 0.0,
            reorder: ReorderMode::Off,
        }
    }
}

/// Signal probability of every node, plus the artifacts that produced them.
#[derive(Debug, Clone)]
pub struct NodeProbabilities {
    probs: Vec<f64>,
    partition: Option<Partition>,
    bdd_nodes: usize,
    bdd_stats: Option<BddStats>,
    reorder: Option<ReorderOutcome>,
}

impl NodeProbabilities {
    /// Wraps externally computed per-node probabilities (e.g. Monte-Carlo
    /// estimates from `domino-sim`) so they can drive the same search
    /// machinery as the exact BDD values (ablation A5).
    pub fn from_vec(probs: Vec<f64>) -> Self {
        NodeProbabilities {
            probs,
            partition: None,
            bdd_nodes: 0,
            bdd_stats: None,
            reorder: None,
        }
    }

    /// Probability of node with arena index `i` (see
    /// [`NodeId::index`](domino_netlist::NodeId::index)).
    pub fn get(&self, i: usize) -> f64 {
        self.probs[i]
    }

    /// The full probability slice, indexed by node arena index.
    pub fn as_slice(&self) -> &[f64] {
        &self.probs
    }

    /// The sequential partition, if the network had latches.
    pub fn partition(&self) -> Option<&Partition> {
        self.partition.as_ref()
    }

    /// Shared BDD nodes used for the computation (the §4.2.2 cost metric).
    pub fn bdd_node_count(&self) -> usize {
        self.bdd_nodes
    }

    /// Kernel statistics of the BDD manager that produced these
    /// probabilities (unique-table and op-cache traffic); `None` for
    /// externally supplied probabilities ([`NodeProbabilities::from_vec`]).
    pub fn bdd_stats(&self) -> Option<&BddStats> {
        self.bdd_stats.as_ref()
    }

    /// Outcome of dynamic variable reordering, if a reorder mode other
    /// than [`ReorderMode::Off`] was configured (swap count, node counts
    /// before/after, and the final variable order).
    pub fn reorder_outcome(&self) -> Option<&ReorderOutcome> {
        self.reorder.as_ref()
    }

    /// Reassembles a [`NodeProbabilities`] from snapshot-carried parts
    /// without any BDD work: `probs`, `bdd_nodes`, `bdd_stats` and
    /// `reorder` come back verbatim from the snapshot (no manager exists
    /// on this path, so the cold build's statistics are carried, not
    /// recomputed), while the sequential partition — pure graph work on
    /// the netlist, not kernel recompute — is rederived deterministically
    /// from `net` and `config.mfvs`.
    pub fn rehydrate(
        net: &Network,
        config: &ProbabilityConfig,
        probs: Vec<f64>,
        bdd_nodes: usize,
        bdd_stats: Option<BddStats>,
        reorder: Option<ReorderOutcome>,
    ) -> Self {
        let partition = net.is_sequential().then(|| partition(net, &config.mfvs));
        NodeProbabilities {
            probs,
            partition,
            bdd_nodes,
            bdd_stats,
            reorder,
        }
    }
}

fn resolve_order(net: &Network, choice: &OrderingChoice) -> Vec<usize> {
    match choice {
        OrderingChoice::Paper => ordering::paper_order(net),
        OrderingChoice::Topological => ordering::topological_order(net),
        OrderingChoice::Random(seed) => {
            let n = net.inputs().len() + net.latches().len();
            ordering::random_order(n, *seed)
        }
        OrderingChoice::Custom(order) => order.clone(),
    }
}

/// Computes the exact signal probability of every node given per-primary-
/// input probabilities.
///
/// # Errors
///
/// * [`PhaseError::ProbabilityMismatch`] if `pi_probs` does not match the
///   primary input count;
/// * [`PhaseError::Bdd`] if BDD construction exceeds limits or
///   probabilities are invalid.
///
/// # Example
///
/// ```
/// use domino_phase::prob::{compute_probabilities, ProbabilityConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut net = domino_netlist::Network::new("p");
/// let a = net.add_input("a")?;
/// let b = net.add_input("b")?;
/// let g = net.add_or([a, b])?;
/// net.add_output("f", g)?;
/// let probs = compute_probabilities(&net, &[0.9, 0.9], &ProbabilityConfig::default())?;
/// assert!((probs.get(g.index()) - 0.99).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn compute_probabilities(
    net: &Network,
    pi_probs: &[f64],
    config: &ProbabilityConfig,
) -> Result<NodeProbabilities, PhaseError> {
    if pi_probs.len() != net.inputs().len() {
        return Err(PhaseError::ProbabilityMismatch {
            expected: net.inputs().len(),
            got: pi_probs.len(),
        });
    }
    let order = resolve_order(net, &config.ordering);
    let (bdds, reorder) =
        CircuitBdds::build_reordered(net, order, &ReorderConfig::with_mode(config.reorder))?;
    let bdd_nodes = bdds.total_node_count();

    if !net.is_sequential() {
        let probs = bdds.node_probabilities(net, pi_probs)?;
        return Ok(NodeProbabilities {
            probs,
            partition: None,
            bdd_nodes,
            bdd_stats: Some(bdds.manager().stats()),
            reorder,
        });
    }

    // Sequential: partition, then resolve latch probabilities.
    let part = partition(net, &config.mfvs);
    let latches = net.latches();
    // Dense latch-position map indexed by node arena index (hoisted out of
    // the sweep loop; the former HashMap cost a hash per latch per sweep).
    let mut latch_pos = vec![usize::MAX; net.len()];
    for (i, &l) in latches.iter().enumerate() {
        latch_pos[l.index()] = i;
    }
    // Source probabilities: PIs then latches.
    let mut source_probs: Vec<f64> = pi_probs.to_vec();
    source_probs.extend(std::iter::repeat_n(
        config.cut_latch_probability,
        latches.len(),
    ));

    let sweeps = config.sweeps.max(1);
    // One probability buffer reused across all sweeps; `last_eval_sources`
    // snapshots the source vector the buffer was computed under, so a
    // sweep whose sources have not moved past the tolerance can stop —
    // re-evaluating would reproduce the buffer as-is.
    let mut probs = Vec::new();
    let mut last_eval_sources: Option<Vec<f64>> = None;
    for _ in 0..sweeps {
        // Scheduled latches resolve in dependency order within the sweep.
        for &l in &part.schedule {
            let data = net.node(l).fanins[0];
            let p = bdds
                .manager()
                .signal_probability(bdds.node_bdd(data), &source_probs)?;
            source_probs[pi_probs.len() + latch_pos[l.index()]] = p;
        }
        if let Some(prev) = &last_eval_sources {
            let converged = prev
                .iter()
                .zip(&source_probs)
                .all(|(a, b)| (a - b).abs() <= config.convergence_tolerance);
            if converged {
                break;
            }
        }
        // All node probabilities under the current sources.
        bdds.node_probabilities_into(net, &source_probs, &mut probs)?;
        match &mut last_eval_sources {
            Some(prev) => prev.copy_from_slice(&source_probs),
            None => last_eval_sources = Some(source_probs.clone()),
        }
        // Cut latches move toward their data's probability for the next
        // sweep.
        for &l in &part.cut {
            let data = net.node(l).fanins[0];
            source_probs[pi_probs.len() + latch_pos[l.index()]] = probs[data.index()];
        }
    }
    Ok(NodeProbabilities {
        probs,
        partition: Some(part),
        bdd_nodes,
        bdd_stats: Some(bdds.manager().stats()),
        reorder,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use domino_netlist::Network;

    #[test]
    fn combinational_exact() {
        let mut net = Network::new("c");
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        let c = net.add_input("c").unwrap();
        let ab = net.add_and([a, b]).unwrap();
        let f = net.add_or([ab, c]).unwrap();
        let nf = net.add_not(f).unwrap();
        net.add_output("f", nf).unwrap();
        let p =
            compute_probabilities(&net, &[0.9, 0.8, 0.3], &ProbabilityConfig::default()).unwrap();
        let expect_f = 1.0 - (1.0 - 0.72) * 0.7;
        assert!((p.get(f.index()) - expect_f).abs() < 1e-12);
        assert!((p.get(nf.index()) - (1.0 - expect_f)).abs() < 1e-12);
        assert!(p.partition().is_none());
        assert!(p.bdd_node_count() > 0);
    }

    #[test]
    fn wrong_pi_count_rejected() {
        let mut net = Network::new("c");
        let _ = net.add_input("a").unwrap();
        assert!(matches!(
            compute_probabilities(&net, &[], &ProbabilityConfig::default()),
            Err(PhaseError::ProbabilityMismatch { .. })
        ));
    }

    #[test]
    fn pipeline_probabilities_propagate_through_latches() {
        // a -> q0 -> q1; all latches scheduled (no feedback), so after one
        // sweep q1 carries P[a].
        let mut net = Network::new("pipe");
        let a = net.add_input("a").unwrap();
        let q0 = net.add_latch(false);
        let q1 = net.add_latch(false);
        net.set_latch_data(q0, a).unwrap();
        net.set_latch_data(q1, q0).unwrap();
        net.add_output("o", q1).unwrap();
        let p = compute_probabilities(&net, &[0.7], &ProbabilityConfig::default()).unwrap();
        assert!((p.get(q0.index()) - 0.7).abs() < 1e-12);
        assert!((p.get(q1.index()) - 0.7).abs() < 1e-12);
        let part = p.partition().unwrap();
        assert!(part.cut.is_empty());
        assert_eq!(part.schedule.len(), 2);
    }

    #[test]
    fn feedback_latch_iterates_toward_fixpoint() {
        // q' = a + q (a sticky latch): the exact steady-state probability
        // tends to 1; more sweeps should move monotonically upward.
        let mut net = Network::new("sticky");
        let a = net.add_input("a").unwrap();
        let q = net.add_latch(false);
        let d = net.add_or([a, q]).unwrap();
        net.set_latch_data(q, d).unwrap();
        net.add_output("o", q).unwrap();
        let p1 = compute_probabilities(
            &net,
            &[0.5],
            &ProbabilityConfig {
                sweeps: 1,
                ..ProbabilityConfig::default()
            },
        )
        .unwrap();
        let p4 = compute_probabilities(
            &net,
            &[0.5],
            &ProbabilityConfig {
                sweeps: 4,
                ..ProbabilityConfig::default()
            },
        )
        .unwrap();
        // Sweep 1: q = 0.5 ⇒ d = 0.75. Sweep 4 refines: q = 0.75 ⇒
        // d = 0.875, then q = 0.875 ⇒ …
        assert!((p1.get(d.index()) - 0.75).abs() < 1e-12);
        assert!(p4.get(d.index()) > p1.get(d.index()));
        assert_eq!(p1.partition().unwrap().cut.len(), 1);
    }

    /// A feed-forward pipeline reaches its fixed point after one sweep, so
    /// the default zero-tolerance early exit must stop there — and the
    /// result must be bit-identical to running every requested sweep.
    #[test]
    fn early_exit_at_exact_fixpoint_is_bit_identical() {
        let mut net = Network::new("pipe");
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        let g = net.add_and([a, b]).unwrap();
        let q0 = net.add_latch(false);
        let q1 = net.add_latch(false);
        net.set_latch_data(q0, g).unwrap();
        net.set_latch_data(q1, q0).unwrap();
        let out = net.add_or([q1, a]).unwrap();
        net.add_output("o", out).unwrap();
        let pi = [0.3, 0.8];
        let one = compute_probabilities(
            &net,
            &pi,
            &ProbabilityConfig {
                sweeps: 1,
                ..ProbabilityConfig::default()
            },
        )
        .unwrap();
        let many = compute_probabilities(
            &net,
            &pi,
            &ProbabilityConfig {
                sweeps: 64,
                ..ProbabilityConfig::default()
            },
        )
        .unwrap();
        for (x, y) in one.as_slice().iter().zip(many.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// A sequential workload with feedback: the cut latch refines by a
    /// shrinking delta each sweep, so a loose tolerance stops the loop
    /// after exactly the sweeps whose movement exceeded it.
    #[test]
    fn convergence_tolerance_stops_sequential_sweeps() {
        // Sticky latch q' = a + q: cut-latch probability walks
        // 0.5 → 0.75 → 0.875 → ... (delta halves each sweep).
        let mut net = Network::new("sticky");
        let a = net.add_input("a").unwrap();
        let q = net.add_latch(false);
        let d = net.add_or([a, q]).unwrap();
        net.set_latch_data(q, d).unwrap();
        net.add_output("o", q).unwrap();
        let with_tol = compute_probabilities(
            &net,
            &[0.5],
            &ProbabilityConfig {
                sweeps: 10,
                convergence_tolerance: 0.2,
                ..ProbabilityConfig::default()
            },
        )
        .unwrap();
        let two_sweeps = compute_probabilities(
            &net,
            &[0.5],
            &ProbabilityConfig {
                sweeps: 2,
                ..ProbabilityConfig::default()
            },
        )
        .unwrap();
        let full = compute_probabilities(
            &net,
            &[0.5],
            &ProbabilityConfig {
                sweeps: 10,
                ..ProbabilityConfig::default()
            },
        )
        .unwrap();
        // Sweep 2's source delta is 0.25 > 0.2, sweep 3's is 0.125 ≤ 0.2:
        // the tolerant run stops after two evaluations.
        for (x, y) in with_tol.as_slice().iter().zip(two_sweeps.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // ... which really is an early exit: the full 10-sweep run differs.
        assert!(with_tol.get(d.index()) < full.get(d.index()));
    }

    /// `reorder: Off` must be byte-identical to the historical build path,
    /// and an active mode must record its outcome while leaving every
    /// probability numerically exact.
    #[test]
    fn reorder_modes_preserve_probabilities() {
        let mut net = Network::new("c");
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        let c = net.add_input("c").unwrap();
        let d = net.add_input("d").unwrap();
        let ab = net.add_and([a, b]).unwrap();
        let cd = net.add_and([c, d]).unwrap();
        let f = net.add_or([ab, cd]).unwrap();
        net.add_output("f", f).unwrap();
        let pi = [0.3, 0.6, 0.9, 0.2];
        let off = compute_probabilities(&net, &pi, &ProbabilityConfig::default()).unwrap();
        assert!(off.reorder_outcome().is_none());
        for mode in [ReorderMode::Auto, ReorderMode::Sift] {
            let on = compute_probabilities(
                &net,
                &pi,
                &ProbabilityConfig {
                    reorder: mode,
                    ..ProbabilityConfig::default()
                },
            )
            .unwrap();
            let outcome = on.reorder_outcome().expect("active mode records outcome");
            assert_eq!(outcome.final_order.len(), 4);
            for (x, y) in off.as_slice().iter().zip(on.as_slice()) {
                assert!((x - y).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn ordering_choice_does_not_change_probabilities() {
        let mut net = Network::new("c");
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        let c = net.add_input("c").unwrap();
        let ab = net.add_and([a, b]).unwrap();
        let f = net.add_or([ab, c]).unwrap();
        net.add_output("f", f).unwrap();
        let pi = [0.2, 0.4, 0.6];
        let base = compute_probabilities(&net, &pi, &ProbabilityConfig::default()).unwrap();
        for choice in [
            OrderingChoice::Topological,
            OrderingChoice::Random(7),
            OrderingChoice::Custom(vec![2, 0, 1]),
        ] {
            let alt = compute_probabilities(
                &net,
                &pi,
                &ProbabilityConfig {
                    ordering: choice,
                    ..ProbabilityConfig::default()
                },
            )
            .unwrap();
            for (x, y) in base.as_slice().iter().zip(alt.as_slice()) {
                assert!((x - y).abs() < 1e-12);
            }
        }
    }
}
