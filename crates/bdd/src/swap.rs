//! In-place exchange of two adjacent BDD levels — the primitive under
//! dynamic variable reordering ([`crate::dvo`]).
//!
//! # How a swap works on the dense arena
//!
//! A swap of levels `l` (variable `x`) and `l+1` (variable `y`) must leave
//! **every live handle denoting the function it denoted before** — handles
//! are held by callers (circuit node tables) that a swap cannot reach. The
//! arena makes this possible by rewriting nodes in place:
//!
//! * nodes at `l+1` keep their structure and simply move up to level `l`
//!   (their function `ite(y, hi, lo)` is untouched — `y` just moved);
//! * nodes at `l` that do **not** depend on `y` (no child at `l+1`) keep
//!   their structure and move down to level `l+1`;
//! * nodes at `l` that do depend on `y` are rewritten in place through the
//!   Shannon identity `ite(x, B, A) = ite(y, ite(x, B₁, A₁), ite(x, B₀,
//!   A₀))`: the node becomes a `y`-decision at level `l` whose children
//!   are (possibly fresh) `x`-decisions at level `l+1`.
//!
//! The unique table is keyed by variable, `(var, lo, hi)`
//! ([`BddManager::unique_key`]), so a node that moves between the two
//! levels unchanged keeps its entry and the swap only writes its `level`
//! field. Only rewritten nodes are re-keyed: their old key is retracted
//! before the order changes and the new one interned once the rewrite is
//! done; canonicity arguments (inlined as debug asserts) guarantee no two
//! keys collide.
//!
//! # Reclaiming dead nodes
//!
//! A rewrite orphans the old children it no longer points to. [`LiveCount`]
//! keeps a reference count local to one sift, moved only where a swap
//! rewires a live node, so it knows which nodes died and the live node
//! count is an O(1) running total instead of a walk over the graph.
//!
//! Only old lower nodes can die in a swap: the subfunctions below both
//! levels are the same under either order, and a rewire references its new
//! children before it releases the old ones. Pass 3 sets each old lower
//! node's level, which makes its key exact again, so a dead one has its
//! key retracted there and leaves the level lists. A sift starts by
//! retracting the nodes the build left dead. From then on the unique table
//! and the level lists hold exactly the live nodes, and a swap costs what
//! the live nodes at its two levels cost.
//!
//! A reclaimed node stays in the arena, unreachable and with a stale
//! `level`, until the compaction that ends every sift drops it. `mk` cannot
//! bring it back, because its key is gone: a rewrite that needs the same
//! function interns a fresh node.
//!
//! [`BddManager::swap_adjacent_levels`] has no roots, so it counts every
//! arena node as one: nothing dies, nothing is reclaimed, and every handle
//! stays valid.
//!
//! No swap touches the op cache. A memoized `(op, a, b) → r` stays correct
//! while `a`, `b` and `r` denote the functions they were memoized under,
//! which holds for every handle [`BddManager::swap_adjacent_levels`] leaves.
//! Inside a sift an entry may name a reclaimed node, but the sift looks
//! nothing up in the cache, and its closing compaction drops it.
//!
//! Lists are walked in order, the order is a pure function of the swap
//! sequence, and the unique-table probe sequences are a pure function of
//! the keys, so a swap is bit-identically deterministic.

use crate::manager::{Bdd, BddError, BddManager, Node};

/// Per-level node lists for a sift: `lists[l]` holds the handle of every
/// live node at level `l`. Built once by [`LiveCount::new`], maintained by
/// [`swap_adjacent`] so a sifting pass never rescans the arena.
pub(crate) type LevelLists = Vec<Vec<u32>>;

/// A reference count local to one sift: `refs[h]` is the number of live
/// nodes pointing at node `h` plus its occurrences among the sift's roots,
/// so a node is live — reachable from the roots — exactly when its count
/// is nonzero, and `total` counts those nodes: it always equals
/// [`BddManager::node_count`] over the roots.
///
/// A swap changes reachability only where it rewires a live node, so that
/// is the only place the counts move ([`LiveCount::rewire`]).
#[derive(Debug)]
pub(crate) struct LiveCount {
    refs: Vec<u32>,
    total: usize,
    /// Scratch stack of the count cascades, reused across swaps.
    stack: Vec<Bdd>,
}

impl LiveCount {
    /// Seeds the counts from `roots` (each occurrence is one reference),
    /// retracts every node they do not reach from the unique table, and
    /// returns the live nodes' level lists (ascending handle order).
    ///
    /// Every node's `level` must be exact, as it is after a build or a
    /// compaction.
    pub(crate) fn new(m: &mut BddManager, roots: &[Bdd]) -> (LiveCount, LevelLists) {
        let mut live = LiveCount {
            refs: vec![0; m.nodes.len()],
            total: 0,
            stack: Vec::new(),
        };
        for &root in roots {
            live.up(m, root);
        }
        let mut lists: LevelLists = vec![Vec::new(); m.n_vars()];
        for h in 2..m.nodes.len() {
            let handle = u32::try_from(h).expect("bdd arena exceeds u32");
            let nd = m.nodes[h];
            if live.is_live(handle) {
                lists[nd.level as usize].push(handle);
            } else {
                retract(m, nd);
            }
        }
        (live, lists)
    }

    /// Number of live nodes.
    pub(crate) fn total(&self) -> usize {
        self.total
    }

    fn is_live(&self, handle: u32) -> bool {
        self.refs[handle as usize] > 0
    }

    /// Re-points live node `u` from children `old` to `new`: the new
    /// children gain their references first, then the old ones lose
    /// theirs, so a child both share never dies on the way.
    fn rewire(&mut self, m: &BddManager, u: u32, old: [Bdd; 2], new: [Bdd; 2]) {
        debug_assert!(self.is_live(u), "rewired node {u} is dead");
        // Rewrites may have appended fresh nodes to the arena.
        self.refs.resize(m.nodes.len(), 0);
        for child in new {
            self.up(m, child);
        }
        for child in old {
            self.down(m, child);
        }
    }

    /// Adds a reference to `b`. A node whose count reaches 1 has become
    /// live and passes a reference on to each child.
    fn up(&mut self, m: &BddManager, b: Bdd) {
        self.stack.push(b);
        while let Some(b) = self.stack.pop() {
            if b.is_terminal() {
                continue;
            }
            let count = &mut self.refs[b.index()];
            *count += 1;
            if *count == 1 {
                self.total += 1;
                let nd = m.nodes[b.index()];
                self.stack.extend([nd.lo, nd.hi]);
            }
        }
    }

    /// Drops a reference to `b`. A node whose count reaches 0 has died and
    /// drops its reference to each child.
    fn down(&mut self, m: &BddManager, b: Bdd) {
        self.stack.push(b);
        while let Some(b) = self.stack.pop() {
            if b.is_terminal() {
                continue;
            }
            let count = &mut self.refs[b.index()];
            *count -= 1;
            if *count == 0 {
                self.total -= 1;
                let nd = m.nodes[b.index()];
                self.stack.extend([nd.lo, nd.hi]);
            }
        }
    }
}

/// Removes `nd`'s key from the unique table; its `level` must be exact.
fn retract(m: &mut BddManager, nd: Node) {
    let (var, lo, hi) = m.unique_key(nd);
    let removed = m.unique.remove(var, lo, hi);
    debug_assert!(removed, "node {nd:?} missing from unique table");
}

/// `true` when `c` is a node at `level` (terminals sit at no level).
fn is_at(m: &BddManager, c: Bdd, level: u32) -> bool {
    !c.is_terminal() && m.nodes[c.index()].level == level
}

/// Cofactors of child `c` with respect to the variable at `lower` level:
/// `(c|ᵥ₌₀, c|ᵥ₌₁)`. A child below `lower` (or a terminal) is constant in
/// that variable.
fn cofactors(m: &BddManager, c: Bdd, lower: u32) -> (Bdd, Bdd) {
    if is_at(m, c, lower) {
        let nd = m.nodes[c.index()];
        (nd.lo, nd.hi)
    } else {
        (c, c)
    }
}

/// Swaps levels `upper_level` and `upper_level + 1`, maintaining `lists`
/// and `live` and reclaiming the nodes the swap kills.
///
/// # Errors
///
/// Returns [`BddError::NodeLimit`] if the rewrite needs a fresh node past
/// the arena limit. The manager must be considered poisoned after that —
/// the swap is half-applied — so callers propagate the error outward.
pub(crate) fn swap_adjacent(
    m: &mut BddManager,
    upper_level: usize,
    lists: &mut LevelLists,
    live: &mut LiveCount,
) -> Result<(), BddError> {
    let l = u32::try_from(upper_level).expect("level fits u32");
    let upper = std::mem::take(&mut lists[upper_level]);
    let lower = std::mem::take(&mut lists[upper_level + 1]);
    let mut new_upper: Vec<u32> = Vec::with_capacity(upper.len() + lower.len());
    let mut new_lower: Vec<u32> = Vec::with_capacity(upper.len());

    // Pass 1, under the old order: upper nodes independent of the lower
    // variable move down unchanged, keeping their keys. The rest will be
    // rewritten, so their keys are retracted while `unique_key` still
    // names their old variable. Children of an upper node are old lower
    // nodes or deeper — never other upper nodes — so moving some uppers
    // to level `l + 1` here leaves the `is_at` tests exact.
    let mut rewrites: Vec<u32> = Vec::with_capacity(upper.len());
    for &u in &upper {
        let nd = m.nodes[u as usize];
        if is_at(m, nd.lo, l + 1) || is_at(m, nd.hi, l + 1) {
            retract(m, nd);
            rewrites.push(u);
        } else {
            m.nodes[u as usize].level = l + 1;
            new_lower.push(u);
        }
    }

    // The order bookkeeping swaps before any rewrite so `mk` calls below
    // intern under the post-swap order.
    m.var_at_level.swap(upper_level, upper_level + 1);
    m.level_of_var[m.var_at_level[upper_level] as usize] = l;
    m.level_of_var[m.var_at_level[upper_level + 1] as usize] = l + 1;

    // Pass 2: the remaining upper nodes are rewritten in place. Their
    // `mk(l + 1, ..)` calls find a moved-down node (its key never left the
    // table) instead of duplicating it.
    let arena_before = m.nodes.len();
    for &u in &rewrites {
        let nd = m.nodes[u as usize];
        let (a0, a1) = cofactors(m, nd.lo, l + 1);
        let (b0, b1) = cofactors(m, nd.hi, l + 1);
        let f0 = m.mk(l + 1, a0, b0)?;
        let f1 = m.mk(l + 1, a1, b1)?;
        // f0 == f1 would make the node redundant, which canonicity rules
        // out for a node that depends on both swapped variables.
        debug_assert_ne!(f0, f1, "rewritten node {u} became redundant");
        let rewritten = Node {
            level: l,
            lo: f0,
            hi: f1,
        };
        m.nodes[u as usize] = rewritten;
        let (var, lo, hi) = m.unique_key(rewritten);
        m.unique.insert(var, lo, hi, u);
        live.rewire(m, u, [nd.lo, nd.hi], [f0, f1]);
        new_upper.push(u);
    }

    // Pass 3: old lower nodes move up unchanged, keeping their keys. At
    // their new level the key is exact again, so the ones pass 2 killed
    // are retracted here and leave the lists.
    for &v in &lower {
        m.nodes[v as usize].level = l;
        if live.is_live(v) {
            new_upper.push(v);
        } else {
            retract(m, m.nodes[v as usize]);
        }
    }

    // Nodes `mk` created during pass 2 all sit at the new lower level.
    for i in arena_before..m.nodes.len() {
        new_lower.push(u32::try_from(i).expect("bdd arena exceeds u32"));
    }

    lists[upper_level] = new_upper;
    lists[upper_level + 1] = new_lower;
    Ok(())
}

impl BddManager {
    /// Swaps the variables at levels `upper_level` and `upper_level + 1`
    /// in place. Every existing [`Bdd`] handle keeps denoting the function
    /// it denoted before; only the variable order (and the shape of the
    /// shared graph) changes. Nodes orphaned by the swap stay in the arena
    /// and the unique table until [`BddManager::compact`].
    ///
    /// Swapping the same pair twice restores the original order, node
    /// count and [`BddManager::digest`] — the involution the reorder
    /// proptests pin.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::UnknownVariable`] if `upper_level + 1` is not a
    /// valid level, or [`BddError::NodeLimit`] on arena exhaustion (the
    /// manager is poisoned in that case).
    pub fn swap_adjacent_levels(&mut self, upper_level: usize) -> Result<(), BddError> {
        if upper_level + 1 >= self.n_vars() {
            return Err(BddError::UnknownVariable {
                var: upper_level + 1,
                n_vars: self.n_vars(),
            });
        }
        // Every arena node counts as a root, so none dies and every handle
        // stays valid.
        let roots: Vec<Bdd> = (2..self.nodes.len()).map(Bdd::from_index).collect();
        let (mut live, mut lists) = LiveCount::new(self, &roots);
        swap_adjacent(self, upper_level, &mut lists, &mut live)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::CircuitBdds;
    use domino_workloads::GeneratorSpec;
    use proptest::prelude::*;

    /// f = a·b + c·d, plus g = a⊕c to share structure.
    fn setup() -> (BddManager, Bdd, Bdd) {
        let mut m = BddManager::new(4);
        let a = m.var(0).unwrap();
        let b = m.var(1).unwrap();
        let c = m.var(2).unwrap();
        let d = m.var(3).unwrap();
        let ab = m.and(a, b).unwrap();
        let cd = m.and(c, d).unwrap();
        let f = m.or(ab, cd).unwrap();
        let g = m.xor(a, c).unwrap();
        (m, f, g)
    }

    fn eval_table(m: &BddManager, root: Bdd) -> Vec<bool> {
        (0..16u32)
            .map(|bits| {
                let vals: Vec<bool> = (0..4).map(|i| bits & (1 << i) != 0).collect();
                m.eval(root, &vals).unwrap()
            })
            .collect()
    }

    #[test]
    fn swap_preserves_semantics_of_every_handle() {
        let (mut m, f, g) = setup();
        let table_f = eval_table(&m, f);
        let table_g = eval_table(&m, g);
        for level in 0..3 {
            m.swap_adjacent_levels(level).unwrap();
            assert_eq!(eval_table(&m, f), table_f, "f broken after swap {level}");
            assert_eq!(eval_table(&m, g), table_g, "g broken after swap {level}");
        }
    }

    #[test]
    fn swap_twice_is_identity_on_order_count_and_digest() {
        let (mut m, f, g) = setup();
        let order = m.order();
        let count = m.node_count(&[f, g]);
        let digest = m.digest(&[f, g]);
        m.swap_adjacent_levels(1).unwrap();
        assert_ne!(m.order(), order, "swap changed nothing");
        m.swap_adjacent_levels(1).unwrap();
        assert_eq!(m.order(), order);
        assert_eq!(m.node_count(&[f, g]), count);
        assert_eq!(m.digest(&[f, g]), digest);
    }

    #[test]
    fn swap_updates_order_bookkeeping() {
        let (mut m, _, _) = setup();
        m.swap_adjacent_levels(0).unwrap();
        assert_eq!(m.order(), vec![1, 0, 2, 3]);
        // var() must now place variable 1 at the root level.
        let b = m.var(1).unwrap();
        assert_eq!(m.nodes[b.index()].level, 0);
    }

    #[test]
    fn out_of_range_level_rejected() {
        let (mut m, _, _) = setup();
        assert!(matches!(
            m.swap_adjacent_levels(3),
            Err(BddError::UnknownVariable { .. })
        ));
        let mut one = BddManager::new(1);
        assert!(one.swap_adjacent_levels(0).is_err());
    }

    #[test]
    fn unique_table_stays_exact_across_swaps() {
        let (mut m, f, g) = setup();
        for level in [0, 1, 2, 1, 0, 2] {
            m.swap_adjacent_levels(level).unwrap();
        }
        // Every arena node must still be interned under its variable key,
        // and nothing else may be.
        let nodes: Vec<(usize, Node)> = m.nodes.iter().copied().enumerate().skip(2).collect();
        assert_eq!(m.unique.len(), nodes.len(), "stale unique-table entries");
        for (i, nd) in nodes {
            let (var, lo, hi) = m.unique_key(nd);
            assert_eq!(var, m.order()[nd.level as usize] as u32);
            assert_eq!(
                m.unique.get(var, lo, hi),
                Some(i as u32),
                "node {i} lost its unique-table entry"
            );
        }
        // And the live graph is still canonical: rebuilding from scratch
        // under the same order yields the same digest.
        let digest = m.digest(&[f, g]);
        let mut fresh = BddManager::with_order(m.order()).unwrap();
        let a = fresh.var(0).unwrap();
        let b = fresh.var(1).unwrap();
        let c = fresh.var(2).unwrap();
        let d = fresh.var(3).unwrap();
        let ab = fresh.and(a, b).unwrap();
        let cd = fresh.and(c, d).unwrap();
        let f2 = fresh.or(ab, cd).unwrap();
        let g2 = fresh.xor(a, c).unwrap();
        assert_eq!(fresh.digest(&[f2, g2]), digest);
    }

    /// A manager holding every node function of a random control-block
    /// network, built under the paper's order.
    fn workload(seed: u64, pis: usize, pos: usize, gates: usize) -> (BddManager, Vec<Bdd>) {
        let net = domino_workloads::generate(&GeneratorSpec::control_block(
            format!("lc{seed}"),
            pis,
            pos,
            gates,
            seed,
        ))
        .expect("generator produces valid networks");
        let bdds = CircuitBdds::build(&net).expect("workload builds");
        let funcs = net.node_ids().map(|id| bdds.node_bdd(id)).collect();
        (bdds.manager().clone(), funcs)
    }

    /// Checks what a sift's bookkeeping promises after every swap: the
    /// running total is the reachable count, the unique table holds
    /// exactly the live nodes, each under its key, and `lists` holds
    /// exactly the live nodes, each at its level.
    fn check_reclaimed(m: &mut BddManager, lists: &LevelLists, live: &LiveCount, roots: &[Bdd]) {
        assert_eq!(live.total(), m.node_count(roots), "running total drifted");
        assert_eq!(m.unique.len(), live.total(), "dead nodes left interned");
        let mut listed = 0;
        for (level, list) in lists.iter().enumerate() {
            listed += list.len();
            for &h in list {
                assert!(live.is_live(h), "dead node {h} listed at level {level}");
                let nd = m.nodes[h as usize];
                assert_eq!(nd.level as usize, level, "node {h} listed off its level");
                let (var, lo, hi) = m.unique_key(nd);
                assert_eq!(m.unique.get(var, lo, hi), Some(h), "node {h} lost its key");
            }
        }
        assert_eq!(
            listed,
            live.total(),
            "a live node is missing from the lists"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Over a random sequence of swaps, for a random subset of the
        /// functions as roots, the running live total, the unique table
        /// and the level lists stay exact after every swap, and a step
        /// that swaps its level straight back restores the node count and
        /// the digest.
        #[test]
        fn running_total_matches_node_count_across_swaps(
            seed in 0u64..1000,
            pis in 4usize..12,
            pos in 1usize..5,
            gates in 8usize..40,
            root_mask in any::<u64>(),
            steps in proptest::collection::vec((0usize..64, any::<bool>()), 1..24),
        ) {
            let (mut m, funcs) = workload(seed, pis, pos, gates);
            let roots: Vec<Bdd> = funcs
                .iter()
                .enumerate()
                .filter(|(i, _)| root_mask >> (i % 64) & 1 == 1)
                .map(|(_, &f)| f)
                .collect();
            let (mut live, mut lists) = LiveCount::new(&mut m, &roots);
            check_reclaimed(&mut m, &lists, &live, &roots);
            for (pick, back) in steps {
                let level = pick % (m.n_vars() - 1);
                let count = m.node_count(&roots);
                let digest = m.digest(&roots);
                swap_adjacent(&mut m, level, &mut lists, &mut live).unwrap();
                check_reclaimed(&mut m, &lists, &live, &roots);
                if back {
                    swap_adjacent(&mut m, level, &mut lists, &mut live).unwrap();
                    check_reclaimed(&mut m, &lists, &live, &roots);
                    prop_assert_eq!(m.node_count(&roots), count);
                    prop_assert_eq!(m.digest(&roots), digest);
                }
            }
        }
    }

    #[test]
    fn a_swap_reclaims_the_nodes_it_kills() {
        let (mut m, funcs) = workload(7, 8, 3, 30);
        let (mut live, mut lists) = LiveCount::new(&mut m, &funcs);
        let total = live.total();
        let mut killed = 0;
        for level in 0..m.n_vars() - 1 {
            let before: Vec<u32> = lists.concat();
            swap_adjacent(&mut m, level, &mut lists, &mut live).unwrap();
            let dead: Vec<u32> = before.into_iter().filter(|&h| !live.is_live(h)).collect();
            killed += dead.len();
            check_reclaimed(&mut m, &lists, &live, &funcs);
            // Swapping back needs the same functions again: `mk` interns
            // fresh nodes for them rather than reviving the reclaimed ones.
            swap_adjacent(&mut m, level, &mut lists, &mut live).unwrap();
            check_reclaimed(&mut m, &lists, &live, &funcs);
            assert_eq!(live.total(), total);
            assert!(
                dead.iter().all(|&h| !live.is_live(h)),
                "a reclaimed node came back"
            );
        }
        assert!(killed > 0, "no swap killed a live node");
    }
}
