//! Structural traversals: topological order, logic levels, fanout maps and
//! transitive fanin/fanout cones.
//!
//! All traversals treat latch data edges as *sequential*: a latch output is a
//! source of the combinational DAG, and a latch data pin is a sink (like a
//! primary output).

use std::collections::HashSet;

use crate::network::{Network, NodeId};

/// Logic levels of every node: sources (inputs, constants, latch outputs) are
/// level 0, a gate is one more than its deepest combinational fanin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelMap {
    levels: Vec<u32>,
    depth: u32,
}

impl LevelMap {
    /// Level of a node.
    pub fn level(&self, id: NodeId) -> u32 {
        self.levels[id.index()]
    }

    /// Maximum level over all nodes (circuit depth).
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Raw level slice indexed by node arena index.
    pub fn as_slice(&self) -> &[u32] {
        &self.levels
    }
}

impl Network {
    /// Nodes in a combinational topological order (every gate after all of
    /// its combinational fanins). The arena order already satisfies this
    /// invariant, so this is simply all node ids in arena order; it exists as
    /// a named operation so call sites document their requirement.
    pub fn topo_order(&self) -> Vec<NodeId> {
        self.node_ids().collect()
    }

    /// Logic level of every node.
    pub fn levels(&self) -> LevelMap {
        let mut levels = vec![0u32; self.len()];
        let mut depth = 0;
        for id in self.topo_order() {
            let node = self.node(id);
            let l = node
                .comb_fanins()
                .iter()
                .map(|f| levels[f.index()] + 1)
                .max()
                .unwrap_or(0);
            levels[id.index()] = l;
            depth = depth.max(l);
        }
        LevelMap { levels, depth }
    }

    /// Combinational fanout adjacency: for every node, the gates that consume
    /// it through a combinational edge. Latch data edges are *not* included.
    pub fn fanouts(&self) -> Vec<Vec<NodeId>> {
        let mut out = vec![Vec::new(); self.len()];
        for id in self.node_ids() {
            for &f in self.node(id).comb_fanins() {
                out[f.index()].push(id);
            }
        }
        out
    }

    /// Like [`Network::fanouts`] but also counting latch data edges and
    /// primary outputs as one fanout each. Used by fanout-cone heuristics.
    pub fn fanout_degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.len()];
        for id in self.node_ids() {
            for &f in &self.node(id).fanins {
                deg[f.index()] += 1;
            }
        }
        for o in self.outputs() {
            deg[o.driver.index()] += 1;
        }
        deg
    }

    /// Transitive fanin cone of `root` through combinational edges,
    /// *including* `root` itself and the sources (inputs/constants/latch
    /// outputs) it reaches. This is the set `D_i` of the paper's cost
    /// function when `root` drives primary output `i`.
    pub fn transitive_fanin(&self, root: NodeId) -> HashSet<NodeId> {
        let mut seen = HashSet::new();
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if seen.insert(id) {
                stack.extend(self.node(id).comb_fanins().iter().copied());
            }
        }
        seen
    }

    /// Transitive fanout cone of `root` through combinational edges,
    /// including `root`.
    pub fn transitive_fanout(&self, root: NodeId) -> HashSet<NodeId> {
        let fanouts = self.fanouts();
        let mut seen = HashSet::new();
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if seen.insert(id) {
                stack.extend(fanouts[id.index()].iter().copied());
            }
        }
        seen
    }

    /// Size of the transitive fanout cone of every node, computed in one
    /// reverse-topological sweep using cone sets. Exact (set union), so it
    /// costs O(V·V/64) words in the worst case; intended for the BDD ordering
    /// heuristic where networks are block-sized.
    pub fn fanout_cone_sizes(&self) -> Vec<usize> {
        let n = self.len();
        // CSR fanout adjacency (two flat allocations) instead of
        // [`Network::fanouts`]'s Vec-per-node.
        let mut offsets = vec![0usize; n + 1];
        for id in self.node_ids() {
            for f in self.node(id).comb_fanins() {
                offsets[f.index() + 1] += 1;
            }
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut adj = vec![0u32; offsets[n]];
        let mut cursor = offsets.clone();
        for id in self.node_ids() {
            for f in self.node(id).comb_fanins() {
                adj[cursor[f.index()]] = id.index() as u32;
                cursor[f.index()] += 1;
            }
        }
        let words = n.div_ceil(64);
        // One flat bitset matrix (row i = node i's cone) instead of one
        // allocation per node — this sits on the BDD-ordering hot path.
        let mut cones: Vec<u64> = vec![0u64; n * words];
        let mut sizes = vec![0usize; n];
        for id in self.topo_order().into_iter().rev() {
            let i = id.index();
            cones[i * words + i / 64] |= 1u64 << (i % 64);
            // Merge every fanout's cone into ours.
            for f in adj[offsets[i]..offsets[i + 1]].iter().map(|&f| f as usize) {
                // Combinational fanouts always come later in arena order.
                assert!(f > i, "fanout precedes node in arena order");
                let (head, tail) = cones.split_at_mut(f * words);
                let row = &mut head[i * words..(i + 1) * words];
                for (w, src) in row.iter_mut().zip(&tail[..words]) {
                    *w |= *src;
                }
            }
            sizes[i] = cones[i * words..(i + 1) * words]
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum();
        }
        sizes
    }

    /// The primary inputs contained in the transitive fanin of `root`, in
    /// declaration order.
    pub fn cone_inputs(&self, root: NodeId) -> Vec<NodeId> {
        let cone = self.transitive_fanin(root);
        self.inputs()
            .iter()
            .copied()
            .filter(|i| cone.contains(i))
            .collect()
    }

    /// All nodes that are dead (not reachable from any primary output or any
    /// latch data input).
    pub fn dead_nodes(&self) -> HashSet<NodeId> {
        let mut live = HashSet::new();
        let mut stack: Vec<NodeId> = self.outputs().iter().map(|o| o.driver).collect();
        for &l in self.latches() {
            stack.push(l);
            if let Some(d) = self.node(l).fanins.first() {
                stack.push(*d);
            }
        }
        while let Some(id) = stack.pop() {
            if live.insert(id) {
                stack.extend(self.node(id).fanins.iter().copied());
            }
        }
        self.node_ids().filter(|id| !live.contains(id)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;

    fn diamond() -> (Network, [NodeId; 6]) {
        // f = (a&b) | (b&c); g = !(b&c)
        let mut net = Network::new("diamond");
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        let c = net.add_input("c").unwrap();
        let ab = net.add_and([a, b]).unwrap();
        let bc = net.add_and([b, c]).unwrap();
        let f = net.add_or([ab, bc]).unwrap();
        net.add_output("f", f).unwrap();
        let g = net.add_not(bc).unwrap();
        net.add_output("g", g).unwrap();
        (net, [a, b, c, ab, bc, f])
    }

    #[test]
    fn levels_and_depth() {
        let (net, [a, b, _c, ab, _bc, f]) = diamond();
        let lv = net.levels();
        assert_eq!(lv.level(a), 0);
        assert_eq!(lv.level(b), 0);
        assert_eq!(lv.level(ab), 1);
        assert_eq!(lv.level(f), 2);
        assert_eq!(lv.depth(), 2);
        assert_eq!(lv.as_slice().len(), net.len());
    }

    #[test]
    fn tfi_contains_cone() {
        let (net, [a, b, c, ab, bc, f]) = diamond();
        let cone = net.transitive_fanin(f);
        for id in [a, b, c, ab, bc, f] {
            assert!(cone.contains(&id));
        }
        assert_eq!(cone.len(), 6);
        let small = net.transitive_fanin(ab);
        assert_eq!(small.len(), 3);
    }

    #[test]
    fn tfo_and_fanouts() {
        let (net, [_a, b, _c, ab, bc, f]) = diamond();
        let tfo = net.transitive_fanout(b);
        assert!(tfo.contains(&ab));
        assert!(tfo.contains(&bc));
        assert!(tfo.contains(&f));
        let fo = net.fanouts();
        assert_eq!(fo[b.index()].len(), 2);
        assert_eq!(fo[f.index()].len(), 0);
    }

    #[test]
    fn fanout_cone_sizes_match_tfo() {
        let (net, ids) = diamond();
        let sizes = net.fanout_cone_sizes();
        for id in ids {
            assert_eq!(sizes[id.index()], net.transitive_fanout(id).len());
        }
    }

    #[test]
    fn cone_inputs_ordered() {
        let (net, [a, b, c, _ab, bc, f]) = diamond();
        assert_eq!(net.cone_inputs(f), vec![a, b, c]);
        assert_eq!(net.cone_inputs(bc), vec![b, c]);
    }

    #[test]
    fn dead_node_detection() {
        let mut net = Network::new("t");
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        let live = net.add_and([a, b]).unwrap();
        let dead = net.add_or([a, b]).unwrap();
        net.add_output("f", live).unwrap();
        let dn = net.dead_nodes();
        assert!(dn.contains(&dead));
        assert!(!dn.contains(&live));
        assert!(!dn.contains(&a));
    }

    #[test]
    fn fanout_degrees_count_outputs_and_latches() {
        let mut net = Network::new("t");
        let a = net.add_input("a").unwrap();
        let q = net.add_latch(false);
        let g = net.add_or([a, q]).unwrap();
        net.set_latch_data(q, g).unwrap();
        net.add_output("f", g).unwrap();
        let deg = net.fanout_degrees();
        // g feeds the latch data and the primary output.
        assert_eq!(deg[g.index()], 2);
        assert_eq!(deg[a.index()], 1);
    }
}
