//! Versioned text serialization of BDDs with a digest-verified roundtrip.
//!
//! The on-disk node order is a deterministic **postorder DFS** over the
//! roots (children before parents, `lo` before `hi`, roots in declared
//! order), so every serialized node references only already-emitted ids and
//! deserialization is a single forward pass of `BddManager::mk` calls —
//! the rebuilt arena lays nodes out in exactly the file order. The same
//! order drives [`BddManager::compact_postorder`], so a deserialized
//! manager is born compacted the way `remap_compact` would leave it.
//!
//! Format (line-oriented, embedded in the checksummed store container):
//!
//! ```text
//! bddsnap 1
//! vars <n_vars>
//! order <var-at-level-0> <var-at-level-1> ...
//! nodes <count>
//! <level> <lo-id> <hi-id>          (count lines; ids 0/1 are terminals,
//!                                   fresh nodes take 2, 3, ... in order)
//! roots <id> <id> ...
//! digest <16 lowercase hex digits>
//! ```
//!
//! `digest` is [`BddManager::digest`] over the roots — a function of the
//! represented functions only. [`BddManager::deserialize_from`] recomputes
//! it after rebuilding and refuses to return a manager whose digest does
//! not match the recorded one, so a snapshot that survives the container
//! checksum but was mangled in transit still cannot produce wrong answers.

use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

use crate::manager::{Bdd, BddError, BddManager};

/// Magic first line of a serialized BDD section, including the format
/// version. Bump the version on any incompatible change; old readers
/// reject unknown versions and callers rebuild from scratch.
pub const BDD_SNAPSHOT_HEADER: &str = "bddsnap 1";

/// Errors from [`BddManager::deserialize_from`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SnapshotError {
    /// The input is not a well-formed snapshot (wrong header/version,
    /// truncated, or a field failed to parse or validate).
    Malformed(String),
    /// The rebuilt manager's digest does not match the recorded one.
    DigestMismatch {
        /// Digest recorded in the snapshot.
        recorded: u64,
        /// Digest recomputed from the rebuilt arena.
        rebuilt: u64,
    },
    /// Rebuilding hit a BDD construction error (e.g. the node limit).
    Bdd(BddError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Malformed(what) => write!(f, "malformed bdd snapshot: {what}"),
            SnapshotError::DigestMismatch { recorded, rebuilt } => write!(
                f,
                "bdd snapshot digest mismatch: recorded {recorded:016x}, rebuilt {rebuilt:016x}"
            ),
            SnapshotError::Bdd(e) => write!(f, "bdd snapshot rebuild failed: {e}"),
        }
    }
}

impl Error for SnapshotError {}

impl From<BddError> for SnapshotError {
    fn from(e: BddError) -> Self {
        SnapshotError::Bdd(e)
    }
}

fn malformed(what: impl Into<String>) -> SnapshotError {
    SnapshotError::Malformed(what.into())
}

impl BddManager {
    /// The non-terminal nodes reachable from `roots` in postorder DFS
    /// (children before parents, `lo` before `hi`, roots in order) — the
    /// serialization and [`BddManager::compact_postorder`] layout.
    fn postorder(&self, roots: &[Bdd]) -> Vec<u32> {
        const UNSEEN: u8 = 0;
        const EXPANDED: u8 = 1;
        const DONE: u8 = 2;
        let mut state = vec![UNSEEN; self.nodes.len()];
        state[0] = DONE;
        state[1] = DONE;
        let mut order: Vec<u32> = Vec::new();
        let mut stack: Vec<Bdd> = Vec::new();
        for &r in roots.iter().rev() {
            stack.push(r);
        }
        while let Some(&b) = stack.last() {
            let i = b.index();
            match state[i] {
                UNSEEN => {
                    state[i] = EXPANDED;
                    let n = self.nodes[i];
                    // Push hi first so lo is completed (and numbered) first.
                    if state[n.hi.index()] == UNSEEN {
                        stack.push(n.hi);
                    }
                    if state[n.lo.index()] == UNSEEN {
                        stack.push(n.lo);
                    }
                }
                EXPANDED => {
                    state[i] = DONE;
                    order.push(b.raw());
                    stack.pop();
                }
                _ => {
                    stack.pop();
                }
            }
        }
        order
    }

    /// Serializes the function DAG reachable from `roots` into `out` in the
    /// versioned `bddsnap` text format, nodes in postorder DFS, closed with
    /// the roots' canonical [`BddManager::digest`].
    ///
    /// The output is arena-layout independent: two managers holding the
    /// same functions under the same variable order serialize identically.
    pub fn serialize_into(&self, roots: &[Bdd], out: &mut String) {
        let order = self.postorder(roots);
        let mut id = vec![0u32; self.nodes.len()];
        id[1] = 1;
        writeln!(out, "{BDD_SNAPSHOT_HEADER}").expect("string write");
        writeln!(out, "vars {}", self.n_vars()).expect("string write");
        out.push_str("order");
        for &v in &self.var_at_level {
            write!(out, " {v}").expect("string write");
        }
        out.push('\n');
        writeln!(out, "nodes {}", order.len()).expect("string write");
        for (next, &i) in (2u32..).zip(order.iter()) {
            id[i as usize] = next;
            let n = self.nodes[i as usize];
            writeln!(out, "{} {} {}", n.level, id[n.lo.index()], id[n.hi.index()])
                .expect("string write");
        }
        out.push_str("roots");
        for &r in roots {
            write!(out, " {}", id[r.index()]).expect("string write");
        }
        out.push('\n');
        writeln!(out, "digest {:016x}", self.digest(roots)).expect("string write");
    }

    /// Rebuilds a manager (and the root handles, positionally) from text
    /// produced by [`BddManager::serialize_into`], verifying the recorded
    /// digest against the rebuilt arena before returning.
    ///
    /// The rebuilt arena holds exactly the serialized nodes in file order
    /// (postorder DFS) plus the two terminals; traffic counters start at
    /// zero, so callers that care about build-time statistics must carry
    /// them out of band.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] for structural damage,
    /// [`SnapshotError::DigestMismatch`] when the rebuilt functions differ
    /// from the recorded digest, [`SnapshotError::Bdd`] if reconstruction
    /// itself fails.
    pub fn deserialize_from(text: &str) -> Result<(Self, Vec<Bdd>), SnapshotError> {
        let mut lines = text.lines();
        let header = lines.next().ok_or_else(|| malformed("empty input"))?;
        if header != BDD_SNAPSHOT_HEADER {
            return Err(malformed(format!(
                "unsupported header {header:?} (expected {BDD_SNAPSHOT_HEADER:?})"
            )));
        }
        let n_vars: usize = parse_field(lines.next(), "vars")?
            .parse()
            .map_err(|_| malformed("vars count is not a number"))?;
        let order_body = parse_field(lines.next(), "order")?;
        let order: Vec<usize> = order_body
            .split_ascii_whitespace()
            .map(|t| t.parse().map_err(|_| malformed("order entry not a number")))
            .collect::<Result<_, _>>()?;
        if order.len() != n_vars {
            return Err(malformed(format!(
                "order has {} entries for {n_vars} vars",
                order.len()
            )));
        }
        let n_nodes: usize = parse_field(lines.next(), "nodes")?
            .parse()
            .map_err(|_| malformed("node count is not a number"))?;
        let mut manager = BddManager::with_order(order)
            .map_err(|_| malformed("order is not a permutation of the variables"))?;
        manager.reserve(n_nodes + 2);
        let mut handles: Vec<Bdd> = Vec::with_capacity(n_nodes + 2);
        handles.push(Bdd::FALSE);
        handles.push(Bdd::TRUE);
        for k in 0..n_nodes {
            let line = lines
                .next()
                .ok_or_else(|| malformed(format!("truncated at node {k} of {n_nodes}")))?;
            let mut it = line.split_ascii_whitespace();
            let level: u32 = next_num(&mut it, "node level")?;
            let lo: usize = next_num(&mut it, "node lo")?;
            let hi: usize = next_num(&mut it, "node hi")?;
            if it.next().is_some() {
                return Err(malformed(format!("trailing tokens on node line {k}")));
            }
            if level as usize >= n_vars {
                return Err(malformed(format!("node {k} level {level} out of range")));
            }
            // Postorder: children strictly precede their parent.
            if lo >= handles.len() || hi >= handles.len() {
                return Err(malformed(format!("node {k} references an undefined child")));
            }
            if lo == hi {
                return Err(malformed(format!("node {k} is not reduced (lo == hi)")));
            }
            let b = manager.mk(level, handles[lo], handles[hi])?;
            handles.push(b);
        }
        let roots_body = parse_field(lines.next(), "roots")?;
        let roots: Vec<Bdd> = roots_body
            .split_ascii_whitespace()
            .map(|t| {
                let id: usize = t.parse().map_err(|_| malformed("root id not a number"))?;
                handles
                    .get(id)
                    .copied()
                    .ok_or_else(|| malformed(format!("root id {id} out of range")))
            })
            .collect::<Result<_, _>>()?;
        let digest_hex = parse_field(lines.next(), "digest")?;
        let recorded = u64::from_str_radix(digest_hex.trim(), 16)
            .map_err(|_| malformed("digest is not 16 hex digits"))?;
        if lines.next().is_some() {
            return Err(malformed("trailing lines after digest"));
        }
        let rebuilt = manager.digest(&roots);
        if rebuilt != recorded {
            return Err(SnapshotError::DigestMismatch { recorded, rebuilt });
        }
        Ok((manager, roots))
    }

    /// [`BddManager::compact`], but renumbering survivors in the postorder
    /// DFS serialization order instead of ascending old-handle order — so a
    /// compacted arena and a deserialized snapshot of the same functions
    /// have identical layouts, and probability sweeps (which walk handles
    /// densely) see children immediately before their parents.
    ///
    /// Same contract otherwise: drops unreachable nodes, rebuilds the
    /// unique table, clears the op cache, keeps traffic counters, returns
    /// the remapped `roots` positionally. The digest is unchanged (it is
    /// layout-independent).
    pub fn compact_postorder(&mut self, roots: &[Bdd]) -> Vec<Bdd> {
        use crate::manager::Node;
        let order = self.postorder(roots);
        let mut map = vec![0u32; self.nodes.len()];
        map[1] = 1;
        for (next, &i) in (2u32..).zip(order.iter()) {
            map[i as usize] = next;
        }
        let mut new_nodes = Vec::with_capacity(order.len() + 2);
        new_nodes.push(self.nodes[0]);
        new_nodes.push(self.nodes[1]);
        for &i in &order {
            let nd = self.nodes[i as usize];
            new_nodes.push(Node {
                level: nd.level,
                lo: Bdd::from_raw(map[nd.lo.index()]),
                hi: Bdd::from_raw(map[nd.hi.index()]),
            });
        }
        self.install_arena(new_nodes);
        roots
            .iter()
            .map(|r| Bdd::from_raw(map[r.index()]))
            .collect()
    }
}

fn parse_field<'a>(line: Option<&'a str>, key: &str) -> Result<&'a str, SnapshotError> {
    let line = line.ok_or_else(|| malformed(format!("missing {key} line")))?;
    line.strip_prefix(key)
        .map(str::trim_start)
        .ok_or_else(|| malformed(format!("expected {key} line, got {line:?}")))
}

fn next_num<'a, T: std::str::FromStr>(
    it: &mut impl Iterator<Item = &'a str>,
    what: &str,
) -> Result<T, SnapshotError> {
    it.next()
        .ok_or_else(|| malformed(format!("missing {what}")))?
        .parse()
        .map_err(|_| malformed(format!("{what} is not a number")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (BddManager, Vec<Bdd>) {
        let mut m = BddManager::with_order(vec![2, 0, 1]).unwrap();
        let a = m.var(0).unwrap();
        let b = m.var(1).unwrap();
        let c = m.var(2).unwrap();
        let ab = m.and(a, b).unwrap();
        let f = m.or(ab, c).unwrap();
        let g = m.xor(a, c).unwrap();
        let ng = m.not(g).unwrap();
        (m, vec![f, g, ng, Bdd::TRUE, f])
    }

    #[test]
    fn roundtrip_preserves_digest_counts_and_order() {
        let (m, roots) = sample();
        let mut text = String::new();
        m.serialize_into(&roots, &mut text);
        let (m2, roots2) = BddManager::deserialize_from(&text).unwrap();
        assert_eq!(m2.digest(&roots2), m.digest(&roots));
        assert_eq!(m2.order(), m.order());
        assert_eq!(m2.node_count(&roots2), m.node_count(&roots));
        // Reserialization is byte-identical: the rebuilt arena is already
        // in postorder file order.
        let mut text2 = String::new();
        m2.serialize_into(&roots2, &mut text2);
        assert_eq!(text, text2);
    }

    #[test]
    fn serialization_is_layout_independent() {
        let (m, roots) = sample();
        // Build the same functions with extra garbage interleaved, then
        // compare serializations.
        let mut m2 = BddManager::with_order(vec![2, 0, 1]).unwrap();
        let a = m2.var(0).unwrap();
        let b = m2.var(1).unwrap();
        let c = m2.var(2).unwrap();
        let junk = m2.xor(b, c).unwrap();
        let _ = m2.not(junk).unwrap();
        let ab = m2.and(a, b).unwrap();
        let f = m2.or(ab, c).unwrap();
        let g = m2.xor(a, c).unwrap();
        let ng = m2.not(g).unwrap();
        let roots2 = vec![f, g, ng, Bdd::TRUE, f];
        let (mut s1, mut s2) = (String::new(), String::new());
        m.serialize_into(&roots, &mut s1);
        m2.serialize_into(&roots2, &mut s2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn compact_postorder_matches_file_layout_and_digest() {
        let (mut m, roots) = sample();
        let before = m.digest(&roots);
        let mut text = String::new();
        m.serialize_into(&roots, &mut text);
        let roots2 = m.compact_postorder(&roots);
        assert_eq!(m.digest(&roots2), before);
        let mut text2 = String::new();
        m.serialize_into(&roots2, &mut text2);
        assert_eq!(text, text2);
        // Compacted arena == deserialized arena, node for node.
        let (md, rootsd) = BddManager::deserialize_from(&text).unwrap();
        assert_eq!(md.stats().nodes, m.stats().nodes);
        assert_eq!(rootsd, roots2);
        // Still a working manager: hash-consing finds the survivors.
        let p1 = m.signal_probabilities(&roots2, &[0.3, 0.6, 0.9]).unwrap();
        let p2 = md.signal_probabilities(&rootsd, &[0.3, 0.6, 0.9]).unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn wrong_header_rejected() {
        let (m, roots) = sample();
        let mut text = String::new();
        m.serialize_into(&roots, &mut text);
        let bad = text.replacen("bddsnap 1", "bddsnap 2", 1);
        assert!(matches!(
            BddManager::deserialize_from(&bad),
            Err(SnapshotError::Malformed(_))
        ));
    }

    #[test]
    fn truncation_rejected() {
        let (m, roots) = sample();
        let mut text = String::new();
        m.serialize_into(&roots, &mut text);
        let lines: Vec<&str> = text.lines().collect();
        for cut in 0..lines.len() {
            let partial = lines[..cut].join("\n");
            assert!(
                BddManager::deserialize_from(&partial).is_err(),
                "accepted a snapshot truncated to {cut} lines"
            );
        }
    }

    #[test]
    fn digest_tamper_rejected() {
        let (m, roots) = sample();
        let mut text = String::new();
        m.serialize_into(&roots, &mut text);
        // Swap the recorded roots for different (valid) ids: digest check
        // must catch the semantic change.
        let tampered: String = text
            .lines()
            .map(|l| {
                if l.starts_with("roots") {
                    "roots 1 1 1 1 1\n".to_string()
                } else {
                    format!("{l}\n")
                }
            })
            .collect();
        assert!(matches!(
            BddManager::deserialize_from(&tampered),
            Err(SnapshotError::DigestMismatch { .. })
        ));
    }

    #[test]
    fn undefined_child_rejected() {
        // A node line referencing an id not yet defined (forward ref).
        let text = "bddsnap 1\nvars 1\norder 0\nnodes 1\n0 0 7\nroots 2\ndigest 0\n";
        assert!(matches!(
            BddManager::deserialize_from(text),
            Err(SnapshotError::Malformed(_))
        ));
    }
}
