use crate::network::NodeId;

/// The functional kind of a network node.
///
/// `And`/`Or` gates accept any fanin count ≥ 1 (a single-fanin gate acts as a
/// buffer); `Not` is always unary. A [`NodeKind::Latch`] is a positive
/// edge-triggered D flip-flop: its single fanin is the *data* input and the
/// node's value is the flop's current state `Q`. Latch fanin edges are
/// *sequential* — they do not participate in the combinational DAG, which is
/// what allows sequential networks to contain cycles through latches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// Primary input.
    Input,
    /// Constant `false` / `true`.
    Constant(bool),
    /// Logical conjunction of all fanins.
    And,
    /// Logical disjunction of all fanins.
    Or,
    /// Logical negation of the single fanin.
    Not,
    /// D flip-flop with the given reset state; fanin 0 is the data input.
    Latch {
        /// Value of the flop after reset.
        init: bool,
    },
}

impl NodeKind {
    /// Short lowercase tag for diagnostics and DOT/BLIF output.
    pub fn tag(self) -> &'static str {
        match self {
            NodeKind::Input => "input",
            NodeKind::Constant(false) => "const0",
            NodeKind::Constant(true) => "const1",
            NodeKind::And => "and",
            NodeKind::Or => "or",
            NodeKind::Not => "not",
            NodeKind::Latch { .. } => "latch",
        }
    }

    /// `true` for `And`, `Or`, `Not` — the nodes that form the combinational
    /// DAG.
    pub fn is_gate(self) -> bool {
        matches!(self, NodeKind::And | NodeKind::Or | NodeKind::Not)
    }
}

/// A single node of a [`Network`](crate::Network): its kind, fanins and
/// optional name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// Functional kind.
    pub kind: NodeKind,
    /// Fanin nodes. Empty for inputs/constants; exactly one for `Not` and
    /// (connected) latches.
    pub fanins: Vec<NodeId>,
    /// Optional signal name (always present for primary inputs).
    pub name: Option<String>,
}

impl Node {
    /// Fanins that participate in the combinational DAG. For latches this is
    /// empty: the latch output is a combinational *source* and its data edge
    /// is sequential.
    pub fn comb_fanins(&self) -> &[NodeId] {
        if matches!(self.kind, NodeKind::Latch { .. }) {
            &[]
        } else {
            &self.fanins
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_predicates() {
        assert!(NodeKind::And.is_gate());
        assert!(NodeKind::Or.is_gate());
        assert!(NodeKind::Not.is_gate());
        assert!(!NodeKind::Input.is_gate());
        assert!(!NodeKind::Latch { init: false }.is_gate());
    }

    #[test]
    fn tags_are_distinct() {
        let tags = [
            NodeKind::Input.tag(),
            NodeKind::Constant(false).tag(),
            NodeKind::Constant(true).tag(),
            NodeKind::And.tag(),
            NodeKind::Or.tag(),
            NodeKind::Not.tag(),
            NodeKind::Latch { init: false }.tag(),
        ];
        let mut dedup = tags.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), tags.len());
    }

    #[test]
    fn latch_comb_fanins_empty() {
        let latch = Node {
            kind: NodeKind::Latch { init: false },
            fanins: vec![NodeId::from_index(3)],
            name: None,
        };
        assert!(latch.comb_fanins().is_empty());
        let gate = Node {
            kind: NodeKind::And,
            fanins: vec![NodeId::from_index(1), NodeId::from_index(2)],
            name: None,
        };
        assert_eq!(gate.comb_fanins().len(), 2);
    }
}
