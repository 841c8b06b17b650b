use std::collections::HashSet;
use std::fmt;

use crate::error::NetlistError;
use crate::node::{Node, NodeKind};

/// Dense handle to a node inside a [`Network`].
///
/// Ids are indices into the owning network's node arena; they are only
/// meaningful for the network that created them (or for a network derived
/// from it by an operation that documents id stability).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates an id from a raw arena index.
    pub fn from_index(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("netlist node index exceeds u32::MAX"))
    }

    /// The raw arena index of this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A named primary output: a name plus the node that drives it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Output {
    /// Output port name.
    pub name: String,
    /// Driving node.
    pub driver: NodeId,
}

/// A technology-independent Boolean network.
///
/// Nodes live in an append-only arena; [`NodeId`]s index into it. The
/// combinational portion (gates) is kept acyclic by construction — a gate may
/// only reference already-created nodes — while sequential cycles are closed
/// explicitly through [`Network::set_latch_data`].
///
/// See the [crate documentation](crate) for an end-to-end example.
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    name: String,
    nodes: Vec<Node>,
    inputs: Vec<NodeId>,
    latches: Vec<NodeId>,
    outputs: Vec<Output>,
    /// The inputs' names, so a duplicate is found without a scan of every
    /// input; [`Network::add_input`] and [`Network::set_node_name`] keep
    /// it in sync.
    input_names: HashSet<String>,
    /// The outputs' names, for the same reason.
    output_names: HashSet<String>,
}

impl Network {
    /// Creates an empty network with the given model name.
    pub fn new(name: impl Into<String>) -> Self {
        Network {
            name: name.into(),
            nodes: Vec::new(),
            inputs: Vec::new(),
            latches: Vec::new(),
            outputs: Vec::new(),
            input_names: HashSet::new(),
            output_names: HashSet::new(),
        }
    }

    /// Model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the network.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of nodes in the arena (including inputs, constants, latches).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Borrow a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range; ids must come from this network.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// All node ids in arena order (a valid construction order, hence any
    /// gate appears after its combinational fanins).
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId::from_index)
    }

    /// Primary input ids, in declaration order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Latch ids, in declaration order.
    pub fn latches(&self) -> &[NodeId] {
        &self.latches
    }

    /// Primary outputs, in declaration order.
    pub fn outputs(&self) -> &[Output] {
        &self.outputs
    }

    /// `true` if the network has at least one latch.
    pub fn is_sequential(&self) -> bool {
        !self.latches.is_empty()
    }

    fn push(&mut self, node: Node) -> NodeId {
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(node);
        id
    }

    fn check_ids<'a>(&self, ids: impl IntoIterator<Item = &'a NodeId>) -> Result<(), NetlistError> {
        for &id in ids {
            if id.index() >= self.nodes.len() {
                return Err(NetlistError::UnknownNode(id));
            }
        }
        Ok(())
    }

    /// Adds a primary input with the given name.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if an input with this name
    /// already exists.
    pub fn add_input(&mut self, name: impl Into<String>) -> Result<NodeId, NetlistError> {
        let name = name.into();
        if !self.input_names.insert(name.clone()) {
            return Err(NetlistError::DuplicateName(name));
        }
        let id = self.push(Node {
            kind: NodeKind::Input,
            fanins: Vec::new(),
            name: Some(name),
        });
        self.inputs.push(id);
        Ok(id)
    }

    /// Adds a constant node.
    pub fn add_const(&mut self, value: bool) -> NodeId {
        self.push(Node {
            kind: NodeKind::Constant(value),
            fanins: Vec::new(),
            name: None,
        })
    }

    fn add_gate(
        &mut self,
        kind: NodeKind,
        fanins: Vec<NodeId>,
        tag: &'static str,
    ) -> Result<NodeId, NetlistError> {
        if fanins.is_empty() {
            return Err(NetlistError::EmptyFanin { kind: tag });
        }
        self.check_ids(&fanins)?;
        Ok(self.push(Node {
            kind,
            fanins,
            name: None,
        }))
    }

    /// Adds an AND gate over the given fanins (≥ 1; a single fanin acts as a
    /// buffer).
    ///
    /// # Errors
    ///
    /// Returns an error if `fanins` is empty or references unknown nodes.
    pub fn add_and(
        &mut self,
        fanins: impl IntoIterator<Item = NodeId>,
    ) -> Result<NodeId, NetlistError> {
        self.add_gate(NodeKind::And, fanins.into_iter().collect(), "and")
    }

    /// Adds an OR gate over the given fanins (≥ 1; a single fanin acts as a
    /// buffer).
    ///
    /// # Errors
    ///
    /// Returns an error if `fanins` is empty or references unknown nodes.
    pub fn add_or(
        &mut self,
        fanins: impl IntoIterator<Item = NodeId>,
    ) -> Result<NodeId, NetlistError> {
        self.add_gate(NodeKind::Or, fanins.into_iter().collect(), "or")
    }

    /// Adds an inverter over `fanin`.
    ///
    /// # Errors
    ///
    /// Returns an error if `fanin` references an unknown node.
    pub fn add_not(&mut self, fanin: NodeId) -> Result<NodeId, NetlistError> {
        self.check_ids([&fanin])?;
        Ok(self.push(Node {
            kind: NodeKind::Not,
            fanins: vec![fanin],
            name: None,
        }))
    }

    /// Adds a latch (D flip-flop) with reset value `init` and *no data input
    /// yet*. Connect it later with [`Network::set_latch_data`] — this
    /// two-step protocol is what allows sequential feedback cycles to be
    /// built.
    pub fn add_latch(&mut self, init: bool) -> NodeId {
        let id = self.push(Node {
            kind: NodeKind::Latch { init },
            fanins: Vec::new(),
            name: None,
        });
        self.latches.push(id);
        id
    }

    /// Connects (or reconnects) the data input of `latch` to `data`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::NotALatch`] if `latch` is not a latch, or
    /// [`NetlistError::UnknownNode`] for ids outside this network.
    pub fn set_latch_data(&mut self, latch: NodeId, data: NodeId) -> Result<(), NetlistError> {
        self.check_ids([&latch, &data])?;
        let node = &mut self.nodes[latch.index()];
        if !matches!(node.kind, NodeKind::Latch { .. }) {
            return Err(NetlistError::NotALatch(latch));
        }
        node.fanins = vec![data];
        Ok(())
    }

    /// Data input of a latch, if connected.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::NotALatch`] if `latch` is not a latch.
    pub fn latch_data(&self, latch: NodeId) -> Result<Option<NodeId>, NetlistError> {
        let node = self
            .nodes
            .get(latch.index())
            .ok_or(NetlistError::UnknownNode(latch))?;
        if !matches!(node.kind, NodeKind::Latch { .. }) {
            return Err(NetlistError::NotALatch(latch));
        }
        Ok(node.fanins.first().copied())
    }

    /// Declares a primary output `name` driven by `driver`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if an output with this name
    /// exists, or [`NetlistError::UnknownNode`] for foreign ids.
    pub fn add_output(
        &mut self,
        name: impl Into<String>,
        driver: NodeId,
    ) -> Result<(), NetlistError> {
        self.check_ids([&driver])?;
        let name = name.into();
        if !self.output_names.insert(name.clone()) {
            return Err(NetlistError::DuplicateName(name));
        }
        self.outputs.push(Output { name, driver });
        Ok(())
    }

    /// Assigns a debug/BLIF name to a node (overwrites any existing name).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownNode`] for foreign ids, and
    /// [`NetlistError::DuplicateName`] if `id` is an input and another
    /// input already has this name.
    pub fn set_node_name(
        &mut self,
        id: NodeId,
        name: impl Into<String>,
    ) -> Result<(), NetlistError> {
        self.check_ids([&id])?;
        let name = name.into();
        let node = &mut self.nodes[id.index()];
        if node.kind == NodeKind::Input && node.name.as_ref() != Some(&name) {
            if !self.input_names.insert(name.clone()) {
                return Err(NetlistError::DuplicateName(name));
            }
            if let Some(old) = &node.name {
                self.input_names.remove(old);
            }
        }
        node.name = Some(name);
        Ok(())
    }

    /// Count of nodes of each gate kind `(and, or, not)`.
    pub fn gate_counts(&self) -> (usize, usize, usize) {
        let mut and = 0;
        let mut or = 0;
        let mut not = 0;
        for n in &self.nodes {
            match n.kind {
                NodeKind::And => and += 1,
                NodeKind::Or => or += 1,
                NodeKind::Not => not += 1,
                _ => {}
            }
        }
        (and, or, not)
    }

    /// Checks the structural invariants of the network:
    ///
    /// * every latch has a data input,
    /// * `Not` gates have exactly one fanin, `And`/`Or` at least one,
    /// * the combinational portion is acyclic (arena order is a topological
    ///   order by construction, but reconnection via [`Self::set_latch_data`]
    ///   cannot break this; we still verify defensively),
    /// * input/output names are unique.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), NetlistError> {
        let mut seen: HashSet<&str> = HashSet::with_capacity(self.inputs.len());
        for &i in &self.inputs {
            let name = self.nodes[i.index()].name.as_deref().unwrap_or_default();
            if !seen.insert(name) {
                return Err(NetlistError::DuplicateName(name.to_string()));
            }
        }
        seen.clear();
        for o in &self.outputs {
            if !seen.insert(&o.name) {
                return Err(NetlistError::DuplicateName(o.name.clone()));
            }
        }
        for (idx, node) in self.nodes.iter().enumerate() {
            let id = NodeId::from_index(idx);
            match node.kind {
                NodeKind::Not => {
                    if node.fanins.len() != 1 {
                        return Err(NetlistError::InvalidArity {
                            kind: "not",
                            got: node.fanins.len(),
                        });
                    }
                }
                NodeKind::And | NodeKind::Or => {
                    if node.fanins.is_empty() {
                        return Err(NetlistError::EmptyFanin {
                            kind: node.kind.tag(),
                        });
                    }
                }
                NodeKind::Latch { .. } => {
                    if node.fanins.len() != 1 {
                        return Err(NetlistError::UnconnectedLatch(id));
                    }
                }
                NodeKind::Input | NodeKind::Constant(_) => {
                    if !node.fanins.is_empty() {
                        return Err(NetlistError::InvalidArity {
                            kind: node.kind.tag(),
                            got: node.fanins.len(),
                        });
                    }
                }
            }
            for &f in &node.fanins {
                if f.index() >= self.nodes.len() {
                    return Err(NetlistError::UnknownNode(f));
                }
            }
            // Arena order is a topological order for combinational edges.
            for &f in node.comb_fanins() {
                if f.index() >= idx {
                    return Err(NetlistError::CombinationalCycle(id));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut net = Network::new("t");
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        let g = net.add_and([a, b]).unwrap();
        net.add_output("f", g).unwrap();
        assert_eq!(net.len(), 3);
        assert_eq!(net.inputs().len(), 2);
        assert_eq!(net.outputs().len(), 1);
        assert_eq!(net.outputs()[0].driver, g);
        assert!(!net.is_sequential());
        net.validate().unwrap();
    }

    #[test]
    fn duplicate_input_name_rejected() {
        let mut net = Network::new("t");
        net.add_input("a").unwrap();
        assert_eq!(
            net.add_input("a"),
            Err(NetlistError::DuplicateName("a".into()))
        );
    }

    #[test]
    fn renaming_an_input_keeps_names_unique() {
        let mut net = Network::new("t");
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        assert_eq!(
            net.set_node_name(b, "a"),
            Err(NetlistError::DuplicateName("a".into()))
        );
        net.set_node_name(a, "a").unwrap();
        net.set_node_name(a, "c").unwrap();
        // The old name is free again; the new one is taken.
        net.add_input("a").unwrap();
        assert!(net.add_input("c").is_err());
        net.validate().unwrap();
    }

    #[test]
    fn duplicate_output_name_rejected() {
        let mut net = Network::new("t");
        let a = net.add_input("a").unwrap();
        net.add_output("f", a).unwrap();
        assert!(net.add_output("f", a).is_err());
    }

    #[test]
    fn empty_fanin_rejected() {
        let mut net = Network::new("t");
        assert_eq!(
            net.add_and(std::iter::empty()),
            Err(NetlistError::EmptyFanin { kind: "and" })
        );
        assert_eq!(
            net.add_or(std::iter::empty()),
            Err(NetlistError::EmptyFanin { kind: "or" })
        );
    }

    #[test]
    fn foreign_id_rejected() {
        let mut net = Network::new("t");
        let a = net.add_input("a").unwrap();
        let bogus = NodeId::from_index(17);
        assert_eq!(
            net.add_and([a, bogus]),
            Err(NetlistError::UnknownNode(bogus))
        );
        assert_eq!(net.add_not(bogus), Err(NetlistError::UnknownNode(bogus)));
    }

    #[test]
    fn latch_protocol() {
        let mut net = Network::new("t");
        let a = net.add_input("a").unwrap();
        let q = net.add_latch(false);
        // Unconnected latch fails validation.
        assert_eq!(net.validate(), Err(NetlistError::UnconnectedLatch(q)));
        // Feedback through a gate is legal.
        let g = net.add_or([a, q]).unwrap();
        net.set_latch_data(q, g).unwrap();
        net.add_output("f", g).unwrap();
        net.validate().unwrap();
        assert!(net.is_sequential());
        assert_eq!(net.latch_data(q).unwrap(), Some(g));
    }

    #[test]
    fn set_latch_data_on_non_latch_fails() {
        let mut net = Network::new("t");
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        assert_eq!(net.set_latch_data(a, b), Err(NetlistError::NotALatch(a)));
        assert_eq!(net.latch_data(a), Err(NetlistError::NotALatch(a)));
    }

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId::from_index(5).to_string(), "n5");
    }

    #[test]
    fn gate_counts() {
        let mut net = Network::new("t");
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        let x = net.add_and([a, b]).unwrap();
        let y = net.add_or([a, b]).unwrap();
        let _ = net.add_not(x).unwrap();
        let _ = net.add_not(y).unwrap();
        assert_eq!(net.gate_counts(), (1, 1, 2));
    }
}
