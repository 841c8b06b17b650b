//! The ROBDD manager: hash-consed node arena, boolean operations, and
//! analyses (evaluation, SAT count, support, node count, signal
//! probability).
//!
//! # Kernel data structures
//!
//! Every number the workspace produces — signal probabilities, `Σ S·C·P`
//! power estimates, the pairwise phase search — bottoms out here, so the
//! manager is built around dense, allocation-free structures rather than
//! `std` hash maps:
//!
//! * hash-consing goes through an open-addressed [`UniqueTable`] and the
//!   binary-op/NOT memo through a direct-mapped [`OpCache`], both hashed
//!   with the Fx mix from [`crate::fx`] (see [`crate::table`]);
//! * the `&self` analyses ([`BddManager::signal_probability`],
//!   [`BddManager::sat_count`], [`BddManager::support`],
//!   [`BddManager::node_count`]) memoize into stamp-versioned `Vec` arenas
//!   indexed by the `u32` node handle, reused across calls through a
//!   [`RefCell`] — repeated evaluations allocate nothing;
//! * results are bit-identical to the `HashMap` implementation they
//!   replaced: node handles, traversal order and floating-point summation
//!   order are unchanged (pinned by the golden-equivalence tests).

use std::cell::RefCell;
use std::error::Error;
use std::fmt;

use crate::table::{OpCache, UniqueTable};

/// Handle to a BDD root inside a [`BddManager`].
///
/// `Bdd`s are only meaningful for the manager that created them. The two
/// terminals are [`Bdd::FALSE`] and [`Bdd::TRUE`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Bdd(u32);

impl Bdd {
    /// The constant-false terminal.
    pub const FALSE: Bdd = Bdd(0);
    /// The constant-true terminal.
    pub const TRUE: Bdd = Bdd(1);

    /// `true` if this is one of the two terminals.
    pub fn is_terminal(self) -> bool {
        self.0 < 2
    }

    /// `true` if this is the constant-true terminal.
    pub fn is_true(self) -> bool {
        self == Bdd::TRUE
    }

    /// `true` if this is the constant-false terminal.
    pub fn is_false(self) -> bool {
        self == Bdd::FALSE
    }

    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }

    pub(crate) fn raw(self) -> u32 {
        self.0
    }
}

/// Errors from BDD construction.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BddError {
    /// A variable index was out of range for this manager.
    UnknownVariable {
        /// The offending variable index.
        var: usize,
        /// Number of variables in the manager.
        n_vars: usize,
    },
    /// The node arena exceeded the configured limit (BDD blow-up guard).
    NodeLimit {
        /// The configured limit.
        limit: usize,
    },
    /// A probability/assignment slice had the wrong length.
    ArityMismatch {
        /// Expected length (number of variables).
        expected: usize,
        /// Supplied length.
        got: usize,
    },
    /// A supplied probability was outside `[0, 1]` or not finite.
    InvalidProbability {
        /// Variable whose probability is invalid.
        var: usize,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for BddError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BddError::UnknownVariable { var, n_vars } => {
                write!(
                    f,
                    "variable {var} out of range for manager with {n_vars} variables"
                )
            }
            BddError::NodeLimit { limit } => {
                write!(f, "bdd node limit of {limit} nodes exceeded")
            }
            BddError::ArityMismatch { expected, got } => {
                write!(f, "expected {expected} per-variable values, got {got}")
            }
            BddError::InvalidProbability { var, value } => {
                write!(f, "probability {value} for variable {var} is not in [0, 1]")
            }
        }
    }
}

impl Error for BddError {}

/// Internal node: decision on the variable at `level`, children `lo`/`hi`.
/// Crate-visible so the level-swap machinery ([`crate::swap`]) can rewrite
/// nodes in place.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Node {
    pub(crate) level: u32,
    pub(crate) lo: Bdd,
    pub(crate) hi: Bdd,
}

pub(crate) const TERMINAL_LEVEL: u32 = u32::MAX;

/// Size/occupancy/traffic statistics of a manager, from
/// [`BddManager::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BddStats {
    /// Live nodes in the arena, including the two terminals.
    pub nodes: usize,
    /// Number of variables.
    pub n_vars: usize,
    /// Live entries in the operation cache.
    pub cache_entries: usize,
    /// Unique-table lookups that found an existing node (hash-consing
    /// shares).
    pub unique_hits: u64,
    /// Unique-table lookups that interned a fresh node.
    pub unique_misses: u64,
    /// Operation-cache lookups (and/or/xor/not) answered from the cache.
    pub cache_hits: u64,
    /// Operation-cache lookups that had to recurse.
    pub cache_misses: u64,
}

impl BddStats {
    /// Unique-table hit fraction, or `None` before any lookups.
    pub fn unique_hit_rate(&self) -> Option<f64> {
        rate(self.unique_hits, self.unique_misses)
    }

    /// Operation-cache hit fraction, or `None` before any lookups.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        rate(self.cache_hits, self.cache_misses)
    }
}

fn rate(hits: u64, misses: u64) -> Option<f64> {
    let total = hits + misses;
    if total == 0 {
        None
    } else {
        Some(hits as f64 / total as f64)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum BinOp {
    And,
    Or,
    Xor,
}

impl BinOp {
    /// Nonzero [`OpCache`] tag.
    fn tag(self) -> u32 {
        match self {
            BinOp::And => 1,
            BinOp::Or => 2,
            BinOp::Xor => 3,
        }
    }
}

/// [`OpCache`] tag for negation (`b` operand unused).
const NOT_TAG: u32 = 4;

/// Stamp-versioned dense memo for the `&self` analyses: `value[i]` is valid
/// iff `stamp[i] == cur`. Bumping `cur` invalidates everything in O(1), so
/// repeated evaluations reuse the same allocations with no clearing pass.
#[derive(Debug, Clone, Default)]
struct EvalScratch {
    stamp: Vec<u32>,
    value: Vec<f64>,
    /// Visit stamps over *variables* (for support computation).
    var_stamp: Vec<u32>,
    /// Explicit DFS stack for the iterative traversals.
    stack: Vec<Bdd>,
    cur: u32,
}

impl EvalScratch {
    /// Starts a new evaluation over `n_nodes` nodes and `n_vars` variables.
    fn begin(&mut self, n_nodes: usize, n_vars: usize) {
        if self.cur == u32::MAX {
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.var_stamp.iter_mut().for_each(|s| *s = 0);
            self.cur = 1;
        } else {
            self.cur += 1;
        }
        if self.stamp.len() < n_nodes {
            self.stamp.resize(n_nodes, 0);
            self.value.resize(n_nodes, 0.0);
        }
        if self.var_stamp.len() < n_vars {
            self.var_stamp.resize(n_vars, 0);
        }
        self.stack.clear();
    }

    #[inline]
    fn get(&self, i: usize) -> Option<f64> {
        if self.stamp[i] == self.cur {
            Some(self.value[i])
        } else {
            None
        }
    }

    #[inline]
    fn set(&mut self, i: usize, v: f64) {
        self.stamp[i] = self.cur;
        self.value[i] = v;
    }

    /// First visit of node `i` this evaluation?
    #[inline]
    fn visit(&mut self, i: usize) -> bool {
        if self.stamp[i] == self.cur {
            false
        } else {
            self.stamp[i] = self.cur;
            true
        }
    }

    /// First visit of variable `v` this evaluation?
    #[inline]
    fn visit_var(&mut self, v: usize) -> bool {
        if self.var_stamp[v] == self.cur {
            false
        } else {
            self.var_stamp[v] = self.cur;
            true
        }
    }
}

/// Stamp-versioned dense memo for [`BddManager::cofactor`] (`&mut self`, so
/// it lives outside the [`RefCell`] and is taken with `mem::take` while the
/// recursion also creates nodes).
#[derive(Debug, Clone, Default)]
struct CofScratch {
    stamp: Vec<u32>,
    value: Vec<u32>,
    cur: u32,
}

impl CofScratch {
    fn begin(&mut self, n_nodes: usize) {
        if self.cur == u32::MAX {
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.cur = 1;
        } else {
            self.cur += 1;
        }
        if self.stamp.len() < n_nodes {
            self.stamp.resize(n_nodes, 0);
            self.value.resize(n_nodes, 0);
        }
    }

    #[inline]
    fn get(&self, i: usize) -> Option<Bdd> {
        if i < self.stamp.len() && self.stamp[i] == self.cur {
            Some(Bdd(self.value[i]))
        } else {
            None
        }
    }

    #[inline]
    fn set(&mut self, i: usize, v: Bdd) {
        if i < self.stamp.len() {
            self.stamp[i] = self.cur;
            self.value[i] = v.0;
        }
    }
}

/// An arena-based ROBDD manager with a fixed variable order.
///
/// Variables are external indices `0..n_vars`; the order in which they are
/// tested from root to terminals is fixed at construction
/// ([`BddManager::with_order`]) or defaults to `0, 1, 2, ...`
/// ([`BddManager::new`]). The manager hash-conses nodes, so structural
/// equality of functions is pointer equality of [`Bdd`] handles —
/// this is what makes node counting and equivalence checks O(1)/O(size).
///
/// There is no garbage collection: the target workloads (block-sized domino
/// control logic) comfortably fit; a configurable [node limit]
/// (`BddManager::set_node_limit`) guards against pathological blow-up.
#[derive(Debug, Clone)]
pub struct BddManager {
    pub(crate) nodes: Vec<Node>,
    pub(crate) unique: UniqueTable,
    pub(crate) op_cache: OpCache,
    /// level_of_var[v] = position of variable v in the order (0 = root-most).
    pub(crate) level_of_var: Vec<u32>,
    /// var_at_level[l] = variable tested at level l.
    pub(crate) var_at_level: Vec<u32>,
    node_limit: usize,
    scratch: RefCell<EvalScratch>,
    cof_scratch: CofScratch,
}

impl BddManager {
    /// Creates a manager over `n_vars` variables with the identity order
    /// (variable 0 at the root).
    pub fn new(n_vars: usize) -> Self {
        Self::with_order((0..n_vars).collect()).expect("identity order is always a permutation")
    }

    /// Creates a manager whose variable order is the given permutation:
    /// `order[l]` is the variable tested at level `l` (level 0 is the
    /// root-most).
    ///
    /// # Errors
    ///
    /// Returns [`BddError::UnknownVariable`] if `order` is not a permutation
    /// of `0..order.len()`.
    pub fn with_order(order: Vec<usize>) -> Result<Self, BddError> {
        let n = order.len();
        let mut level_of_var = vec![u32::MAX; n];
        for (level, &var) in order.iter().enumerate() {
            if var >= n || level_of_var[var] != u32::MAX {
                return Err(BddError::UnknownVariable { var, n_vars: n });
            }
            level_of_var[var] = level as u32;
        }
        Ok(BddManager {
            nodes: vec![
                Node {
                    level: TERMINAL_LEVEL,
                    lo: Bdd::FALSE,
                    hi: Bdd::FALSE,
                },
                Node {
                    level: TERMINAL_LEVEL,
                    lo: Bdd::TRUE,
                    hi: Bdd::TRUE,
                },
            ],
            unique: UniqueTable::new(),
            op_cache: OpCache::new(),
            level_of_var,
            var_at_level: order.iter().map(|&v| v as u32).collect(),
            node_limit: 50_000_000,
            scratch: RefCell::new(EvalScratch::default()),
            cof_scratch: CofScratch::default(),
        })
    }

    /// Number of variables.
    pub fn n_vars(&self) -> usize {
        self.level_of_var.len()
    }

    /// The variable order: element `l` is the variable tested at level `l`.
    pub fn order(&self) -> Vec<usize> {
        self.var_at_level.iter().map(|&v| v as usize).collect()
    }

    /// Caps the node arena; operations that would exceed it return
    /// [`BddError::NodeLimit`].
    pub fn set_node_limit(&mut self, limit: usize) {
        self.node_limit = limit;
    }

    /// Pre-sizes the unique table and op cache for roughly
    /// `expected_nodes` arena nodes, avoiding rehash pauses during
    /// construction. Best called before building anything (the circuit
    /// builder sizes by the network's node count).
    pub fn reserve(&mut self, expected_nodes: usize) {
        self.nodes
            .reserve(expected_nodes.saturating_sub(self.nodes.len()));
        self.unique.reserve(expected_nodes);
        self.op_cache.reserve(expected_nodes * 2);
    }

    /// Current statistics (sizes plus unique-table/op-cache traffic).
    pub fn stats(&self) -> BddStats {
        let (unique_hits, unique_misses) = self.unique.counters();
        let (cache_hits, cache_misses) = self.op_cache.counters();
        BddStats {
            nodes: self.nodes.len(),
            n_vars: self.n_vars(),
            cache_entries: self.op_cache.len(),
            unique_hits,
            unique_misses,
            cache_hits,
            cache_misses,
        }
    }

    /// The constant BDD for `value`.
    pub fn constant(&self, value: bool) -> Bdd {
        if value {
            Bdd::TRUE
        } else {
            Bdd::FALSE
        }
    }

    /// The single-variable function `v`.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::UnknownVariable`] if `var ≥ n_vars`.
    pub fn var(&mut self, var: usize) -> Result<Bdd, BddError> {
        if var >= self.n_vars() {
            return Err(BddError::UnknownVariable {
                var,
                n_vars: self.n_vars(),
            });
        }
        let level = self.level_of_var[var];
        self.mk(level, Bdd::FALSE, Bdd::TRUE)
    }

    /// The negated single-variable function `!v`.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::UnknownVariable`] if `var ≥ n_vars`.
    pub fn nvar(&mut self, var: usize) -> Result<Bdd, BddError> {
        if var >= self.n_vars() {
            return Err(BddError::UnknownVariable {
                var,
                n_vars: self.n_vars(),
            });
        }
        let level = self.level_of_var[var];
        self.mk(level, Bdd::TRUE, Bdd::FALSE)
    }

    pub(crate) fn mk(&mut self, level: u32, lo: Bdd, hi: Bdd) -> Result<Bdd, BddError> {
        if lo == hi {
            return Ok(lo);
        }
        let node = Node { level, lo, hi };
        let (var, lo, hi) = self.unique_key(node);
        if let Some(b) = self.unique.get(var, lo, hi) {
            return Ok(Bdd(b));
        }
        if self.nodes.len() >= self.node_limit {
            return Err(BddError::NodeLimit {
                limit: self.node_limit,
            });
        }
        let b = Bdd(u32::try_from(self.nodes.len()).expect("bdd arena exceeds u32"));
        self.nodes.push(node);
        self.unique.insert(var, lo, hi, b.0);
        Ok(b)
    }

    /// The unique-table key of `node`: `(var, lo, hi)`, where `var` is the
    /// variable tested at the node's level. Keying by variable rather than
    /// level lets a node that a level swap moves unchanged keep its entry
    /// ([`crate::swap`]). Every lookup, intern and retraction derives its
    /// key here.
    #[inline]
    pub(crate) fn unique_key(&self, node: Node) -> (u32, u32, u32) {
        (self.var_at_level[node.level as usize], node.lo.0, node.hi.0)
    }

    /// Replaces the arena with `nodes` (a renumbered compaction of it),
    /// re-interns every node and drops the op cache, whose entries are
    /// keyed by the old handles. Traffic counters survive.
    pub(crate) fn install_arena(&mut self, nodes: Vec<Node>) {
        self.nodes = nodes;
        self.unique.clear();
        for (i, &node) in self.nodes.iter().enumerate().skip(2) {
            let (var, lo, hi) = self.unique_key(node);
            self.unique.insert(var, lo, hi, i as u32);
        }
        self.op_cache.clear();
    }

    fn level(&self, b: Bdd) -> u32 {
        self.nodes[b.index()].level
    }

    /// Conjunction `a · b`.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::NodeLimit`] if the arena limit is hit.
    pub fn and(&mut self, a: Bdd, b: Bdd) -> Result<Bdd, BddError> {
        self.binop(BinOp::And, a, b)
    }

    /// Disjunction `a + b`.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::NodeLimit`] if the arena limit is hit.
    pub fn or(&mut self, a: Bdd, b: Bdd) -> Result<Bdd, BddError> {
        self.binop(BinOp::Or, a, b)
    }

    /// Exclusive or `a ⊕ b`.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::NodeLimit`] if the arena limit is hit.
    pub fn xor(&mut self, a: Bdd, b: Bdd) -> Result<Bdd, BddError> {
        self.binop(BinOp::Xor, a, b)
    }

    /// Conjunction over any number of operands (empty product = true).
    ///
    /// # Errors
    ///
    /// Returns [`BddError::NodeLimit`] if the arena limit is hit.
    pub fn and_many(&mut self, operands: impl IntoIterator<Item = Bdd>) -> Result<Bdd, BddError> {
        let mut acc = Bdd::TRUE;
        for x in operands {
            acc = self.and(acc, x)?;
            if acc.is_false() {
                break;
            }
        }
        Ok(acc)
    }

    /// Disjunction over any number of operands (empty sum = false).
    ///
    /// # Errors
    ///
    /// Returns [`BddError::NodeLimit`] if the arena limit is hit.
    pub fn or_many(&mut self, operands: impl IntoIterator<Item = Bdd>) -> Result<Bdd, BddError> {
        let mut acc = Bdd::FALSE;
        for x in operands {
            acc = self.or(acc, x)?;
            if acc.is_true() {
                break;
            }
        }
        Ok(acc)
    }

    fn binop(&mut self, op: BinOp, a: Bdd, b: Bdd) -> Result<Bdd, BddError> {
        // Terminal cases.
        match op {
            BinOp::And => {
                if a.is_false() || b.is_false() {
                    return Ok(Bdd::FALSE);
                }
                if a.is_true() {
                    return Ok(b);
                }
                if b.is_true() || a == b {
                    return Ok(a);
                }
            }
            BinOp::Or => {
                if a.is_true() || b.is_true() {
                    return Ok(Bdd::TRUE);
                }
                if a.is_false() {
                    return Ok(b);
                }
                if b.is_false() || a == b {
                    return Ok(a);
                }
            }
            BinOp::Xor => {
                if a == b {
                    return Ok(Bdd::FALSE);
                }
                if a.is_false() {
                    return Ok(b);
                }
                if b.is_false() {
                    return Ok(a);
                }
                if a.is_true() {
                    return self.not(b);
                }
                if b.is_true() {
                    return self.not(a);
                }
            }
        }
        // Commutative: canonicalize operand order for the cache.
        let (ka, kb) = if a <= b { (a, b) } else { (b, a) };
        if let Some(r) = self.op_cache.get(op.tag(), ka.0, kb.0) {
            return Ok(Bdd(r));
        }
        let (la, lb) = (self.level(a), self.level(b));
        let level = la.min(lb);
        let (a_lo, a_hi) = if la == level {
            let n = self.nodes[a.index()];
            (n.lo, n.hi)
        } else {
            (a, a)
        };
        let (b_lo, b_hi) = if lb == level {
            let n = self.nodes[b.index()];
            (n.lo, n.hi)
        } else {
            (b, b)
        };
        let lo = self.binop(op, a_lo, b_lo)?;
        let hi = self.binop(op, a_hi, b_hi)?;
        let r = self.mk(level, lo, hi)?;
        self.op_cache.insert(op.tag(), ka.0, kb.0, r.0);
        self.op_cache.maybe_grow();
        Ok(r)
    }

    /// Negation `!a`.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::NodeLimit`] if the arena limit is hit.
    pub fn not(&mut self, a: Bdd) -> Result<Bdd, BddError> {
        if a.is_true() {
            return Ok(Bdd::FALSE);
        }
        if a.is_false() {
            return Ok(Bdd::TRUE);
        }
        if let Some(r) = self.op_cache.get(NOT_TAG, a.0, 0) {
            return Ok(Bdd(r));
        }
        let n = self.nodes[a.index()];
        let lo = self.not(n.lo)?;
        let hi = self.not(n.hi)?;
        let r = self.mk(n.level, lo, hi)?;
        self.op_cache.insert(NOT_TAG, a.0, 0, r.0);
        self.op_cache.insert(NOT_TAG, r.0, 0, a.0);
        self.op_cache.maybe_grow();
        Ok(r)
    }

    /// If-then-else `f·g + !f·h`.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::NodeLimit`] if the arena limit is hit.
    pub fn ite(&mut self, f: Bdd, g: Bdd, h: Bdd) -> Result<Bdd, BddError> {
        let fg = self.and(f, g)?;
        let nf = self.not(f)?;
        let nfh = self.and(nf, h)?;
        self.or(fg, nfh)
    }

    /// Evaluates the function under a complete variable assignment
    /// (`assignment[v]` is the value of variable `v`).
    ///
    /// # Errors
    ///
    /// Returns [`BddError::ArityMismatch`] if the slice length differs from
    /// the variable count.
    pub fn eval(&self, root: Bdd, assignment: &[bool]) -> Result<bool, BddError> {
        if assignment.len() != self.n_vars() {
            return Err(BddError::ArityMismatch {
                expected: self.n_vars(),
                got: assignment.len(),
            });
        }
        let mut cur = root;
        while !cur.is_terminal() {
            let n = self.nodes[cur.index()];
            let var = self.var_at_level[n.level as usize] as usize;
            cur = if assignment[var] { n.hi } else { n.lo };
        }
        Ok(cur.is_true())
    }

    fn check_probs(&self, probs: &[f64]) -> Result<(), BddError> {
        if probs.len() != self.n_vars() {
            return Err(BddError::ArityMismatch {
                expected: self.n_vars(),
                got: probs.len(),
            });
        }
        for (var, &p) in probs.iter().enumerate() {
            if !(0.0..=1.0).contains(&p) {
                return Err(BddError::InvalidProbability { var, value: p });
            }
        }
        Ok(())
    }

    /// Exact signal probability `P[f = 1]` given independent per-variable
    /// probabilities `P[v = 1] = probs[v]`. Linear in the number of BDD
    /// nodes; memoized into a reusable dense arena, so repeated calls
    /// allocate nothing.
    ///
    /// This is the core primitive of the paper's power estimator: for a
    /// domino gate, the switching probability *equals* this value
    /// (Property 2.1).
    ///
    /// # Errors
    ///
    /// Returns [`BddError::ArityMismatch`] on length mismatch or
    /// [`BddError::InvalidProbability`] for values outside `[0, 1]`.
    pub fn signal_probability(&self, root: Bdd, probs: &[f64]) -> Result<f64, BddError> {
        self.check_probs(probs)?;
        let mut scratch = self.scratch.borrow_mut();
        scratch.begin(self.nodes.len(), 0);
        Ok(self.prob_rec(root, probs, &mut scratch))
    }

    /// Batched [`BddManager::signal_probability`]: one shared memo table
    /// across all roots, so shared subgraphs are only visited once.
    ///
    /// # Errors
    ///
    /// Same conditions as [`BddManager::signal_probability`].
    pub fn signal_probabilities(&self, roots: &[Bdd], probs: &[f64]) -> Result<Vec<f64>, BddError> {
        let mut out = Vec::new();
        self.signal_probabilities_into(roots, probs, &mut out)?;
        Ok(out)
    }

    /// [`BddManager::signal_probabilities`] writing into a caller-owned
    /// buffer, so sweep loops (sequential probability fixpoints) reuse one
    /// allocation across evaluations. `out` is cleared first.
    ///
    /// # Errors
    ///
    /// Same conditions as [`BddManager::signal_probability`].
    pub fn signal_probabilities_into(
        &self,
        roots: &[Bdd],
        probs: &[f64],
        out: &mut Vec<f64>,
    ) -> Result<(), BddError> {
        self.check_probs(probs)?;
        let mut scratch = self.scratch.borrow_mut();
        scratch.begin(self.nodes.len(), 0);
        out.clear();
        out.reserve(roots.len());
        for &r in roots {
            out.push(self.prob_rec(r, probs, &mut scratch));
        }
        Ok(())
    }

    fn prob_rec(&self, b: Bdd, probs: &[f64], scratch: &mut EvalScratch) -> f64 {
        if b.is_false() {
            return 0.0;
        }
        if b.is_true() {
            return 1.0;
        }
        if let Some(p) = scratch.get(b.index()) {
            return p;
        }
        let n = self.nodes[b.index()];
        let var = self.var_at_level[n.level as usize] as usize;
        let p_var = probs[var];
        let p = (1.0 - p_var) * self.prob_rec(n.lo, probs, scratch)
            + p_var * self.prob_rec(n.hi, probs, scratch);
        scratch.set(b.index(), p);
        p
    }

    /// Number of satisfying assignments of `root` over all `n_vars`
    /// variables.
    pub fn sat_count(&self, root: Bdd) -> f64 {
        let p = self
            .signal_probability(root, &vec![0.5; self.n_vars()])
            .expect("uniform probabilities are valid");
        p * (2f64).powi(self.n_vars() as i32)
    }

    /// The set of variables the function depends on, sorted ascending.
    pub fn support(&self, root: Bdd) -> Vec<usize> {
        let mut scratch = self.scratch.borrow_mut();
        scratch.begin(self.nodes.len(), self.n_vars());
        let mut vars = Vec::new();
        scratch.stack.push(root);
        while let Some(b) = scratch.stack.pop() {
            if b.is_terminal() || !scratch.visit(b.index()) {
                continue;
            }
            let n = self.nodes[b.index()];
            let var = self.var_at_level[n.level as usize] as usize;
            if scratch.visit_var(var) {
                vars.push(var);
            }
            scratch.stack.push(n.lo);
            scratch.stack.push(n.hi);
        }
        vars.sort_unstable();
        vars
    }

    /// Number of distinct non-terminal nodes reachable from the given roots
    /// (shared nodes counted once). This is the metric of the paper's
    /// Figure 10 ordering comparison.
    pub fn node_count(&self, roots: &[Bdd]) -> usize {
        let mut scratch = self.scratch.borrow_mut();
        scratch.begin(self.nodes.len(), 0);
        scratch.stack.extend_from_slice(roots);
        let mut count = 0;
        while let Some(b) = scratch.stack.pop() {
            if b.is_terminal() || !scratch.visit(b.index()) {
                continue;
            }
            count += 1;
            let n = self.nodes[b.index()];
            scratch.stack.push(n.lo);
            scratch.stack.push(n.hi);
        }
        count
    }

    /// Existential quantification `∃var. f = f[var←0] + f[var←1]`.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::UnknownVariable`] for out-of-range variables or
    /// [`BddError::NodeLimit`] on blow-up.
    pub fn exists(&mut self, root: Bdd, var: usize) -> Result<Bdd, BddError> {
        let lo = self.cofactor(root, var, false)?;
        let hi = self.cofactor(root, var, true)?;
        self.or(lo, hi)
    }

    /// Universal quantification `∀var. f = f[var←0] · f[var←1]`.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::UnknownVariable`] for out-of-range variables or
    /// [`BddError::NodeLimit`] on blow-up.
    pub fn forall(&mut self, root: Bdd, var: usize) -> Result<Bdd, BddError> {
        let lo = self.cofactor(root, var, false)?;
        let hi = self.cofactor(root, var, true)?;
        self.and(lo, hi)
    }

    /// Functional composition `f[var ← g]` via Shannon expansion:
    /// `g·f[var←1] + !g·f[var←0]`.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::UnknownVariable`] for out-of-range variables or
    /// [`BddError::NodeLimit`] on blow-up.
    pub fn compose(&mut self, root: Bdd, var: usize, g: Bdd) -> Result<Bdd, BddError> {
        let hi = self.cofactor(root, var, true)?;
        let lo = self.cofactor(root, var, false)?;
        self.ite(g, hi, lo)
    }

    /// Positive cofactor of `root` with respect to `var` (i.e. `f[var←1]`
    /// when `positive`, else `f[var←0]`).
    ///
    /// # Errors
    ///
    /// Returns [`BddError::UnknownVariable`] for out-of-range variables or
    /// [`BddError::NodeLimit`] on blow-up.
    pub fn cofactor(&mut self, root: Bdd, var: usize, positive: bool) -> Result<Bdd, BddError> {
        if var >= self.n_vars() {
            return Err(BddError::UnknownVariable {
                var,
                n_vars: self.n_vars(),
            });
        }
        let target = self.level_of_var[var];
        // The memo lives outside the RefCell because the recursion needs
        // `&mut self` (it creates nodes); take it, run, put it back. Only
        // nodes that existed at entry are memoized, so sizing it now is
        // sound even though the arena grows underneath.
        let mut memo = std::mem::take(&mut self.cof_scratch);
        memo.begin(self.nodes.len());
        let result = self.cofactor_rec(root, target, positive, &mut memo);
        self.cof_scratch = memo;
        result
    }

    fn cofactor_rec(
        &mut self,
        b: Bdd,
        target: u32,
        positive: bool,
        memo: &mut CofScratch,
    ) -> Result<Bdd, BddError> {
        if b.is_terminal() {
            return Ok(b);
        }
        let n = self.nodes[b.index()];
        if n.level > target {
            return Ok(b);
        }
        if let Some(r) = memo.get(b.index()) {
            return Ok(r);
        }
        let r = if n.level == target {
            if positive {
                n.hi
            } else {
                n.lo
            }
        } else {
            let lo = self.cofactor_rec(n.lo, target, positive, memo)?;
            let hi = self.cofactor_rec(n.hi, target, positive, memo)?;
            self.mk(n.level, lo, hi)?
        };
        memo.set(b.index(), r);
        Ok(r)
    }

    /// Canonical structural digest of the function DAG reachable from
    /// `roots`: a 64-bit FNV-1a over `(variable, lo, hi)` triples in a
    /// deterministic first-visit DFS numbering (lo before hi, roots in
    /// order), closed over the roots' canonical ids.
    ///
    /// The digest is a function of the *represented functions and variable
    /// identities only* — arena layout, handle values and the variable
    /// order drop out. Two managers holding the same functions under the
    /// same order digest identically even if their arenas differ (the
    /// property the sift-vs-fresh-build differential test pins), and a
    /// swap pair that returns to the original order restores the original
    /// digest (the involution test).
    pub fn digest(&self, roots: &[Bdd]) -> u64 {
        const UNVISITED: u64 = u64::MAX;
        let mut canon = vec![UNVISITED; self.nodes.len()];
        canon[0] = 0;
        canon[1] = 1;
        let mut visit_order: Vec<u32> = Vec::new();
        let mut stack: Vec<Bdd> = Vec::new();
        for &r in roots.iter().rev() {
            stack.push(r);
        }
        let mut next = 2u64;
        while let Some(b) = stack.pop() {
            if canon[b.index()] != UNVISITED {
                continue;
            }
            canon[b.index()] = next;
            next += 1;
            visit_order.push(b.raw());
            let n = self.nodes[b.index()];
            // Push hi first so lo is visited (and numbered) first.
            stack.push(n.hi);
            stack.push(n.lo);
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mix = |h: &mut u64, v: u64| {
            *h ^= v;
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for &i in &visit_order {
            let n = self.nodes[i as usize];
            mix(&mut h, u64::from(self.var_at_level[n.level as usize]));
            mix(&mut h, canon[n.lo.index()]);
            mix(&mut h, canon[n.hi.index()]);
        }
        for &r in roots {
            mix(&mut h, canon[r.index()]);
        }
        h
    }

    /// Garbage-collects the arena down to the nodes reachable from `roots`
    /// (plus the terminals), renumbering survivors in ascending old-handle
    /// order, rebuilding the unique table and dropping the op cache (whose
    /// entries are keyed by the old handles). Returns the remapped `roots`
    /// positionally.
    ///
    /// Level swaps strand dead nodes in the arena (an in-place rewrite
    /// orphans the children it no longer points to); a sifting pass ends
    /// with a compaction so `stats().nodes` means live size again.
    /// Traffic counters survive.
    pub fn compact(&mut self, roots: &[Bdd]) -> Vec<Bdd> {
        let n = self.nodes.len();
        let mut keep = vec![false; n];
        keep[0] = true;
        keep[1] = true;
        let mut stack: Vec<Bdd> = roots.to_vec();
        while let Some(b) = stack.pop() {
            if keep[b.index()] {
                continue;
            }
            keep[b.index()] = true;
            let nd = self.nodes[b.index()];
            stack.push(nd.lo);
            stack.push(nd.hi);
        }
        let mut map = vec![0u32; n];
        let mut next = 2u32;
        map[1] = 1;
        for (i, &kept) in keep.iter().enumerate().skip(2) {
            if kept {
                map[i] = next;
                next += 1;
            }
        }
        let mut new_nodes = Vec::with_capacity(next as usize);
        new_nodes.push(self.nodes[0]);
        new_nodes.push(self.nodes[1]);
        for (i, &kept) in keep.iter().enumerate().skip(2) {
            if kept {
                let nd = self.nodes[i];
                new_nodes.push(Node {
                    level: nd.level,
                    lo: Bdd(map[nd.lo.index()]),
                    hi: Bdd(map[nd.hi.index()]),
                });
            }
        }
        self.install_arena(new_nodes);
        roots.iter().map(|r| Bdd(map[r.index()])).collect()
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    fn three_vars() -> (BddManager, Bdd, Bdd, Bdd) {
        let mut m = BddManager::new(3);
        let a = m.var(0).unwrap();
        let b = m.var(1).unwrap();
        let c = m.var(2).unwrap();
        (m, a, b, c)
    }

    #[test]
    fn terminal_identities() {
        let (mut m, a, _, _) = three_vars();
        assert_eq!(m.and(a, Bdd::TRUE).unwrap(), a);
        assert_eq!(m.and(a, Bdd::FALSE).unwrap(), Bdd::FALSE);
        assert_eq!(m.or(a, Bdd::FALSE).unwrap(), a);
        assert_eq!(m.or(a, Bdd::TRUE).unwrap(), Bdd::TRUE);
        assert_eq!(m.xor(a, a).unwrap(), Bdd::FALSE);
        assert_eq!(m.and(a, a).unwrap(), a);
        assert_eq!(m.or(a, a).unwrap(), a);
    }

    #[test]
    fn hash_consing_makes_equal_functions_identical() {
        let (mut m, a, b, c) = three_vars();
        // (a·b)·c == a·(b·c)
        let ab = m.and(a, b).unwrap();
        let abc1 = m.and(ab, c).unwrap();
        let bc = m.and(b, c).unwrap();
        let abc2 = m.and(a, bc).unwrap();
        assert_eq!(abc1, abc2);
        // DeMorgan: !(a+b) == !a·!b
        let aob = m.or(a, b).unwrap();
        let lhs = m.not(aob).unwrap();
        let na = m.not(a).unwrap();
        let nb = m.not(b).unwrap();
        let rhs = m.and(na, nb).unwrap();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn double_negation() {
        let (mut m, a, b, _) = three_vars();
        let f = m.and(a, b).unwrap();
        let nf = m.not(f).unwrap();
        let nnf = m.not(nf).unwrap();
        assert_eq!(nnf, f);
    }

    #[test]
    fn eval_matches_semantics() {
        let (mut m, a, b, c) = three_vars();
        let ab = m.and(a, b).unwrap();
        let f = m.or(ab, c).unwrap(); // f = a·b + c
        for bits in 0..8u32 {
            let va = bits & 1 != 0;
            let vb = bits & 2 != 0;
            let vc = bits & 4 != 0;
            assert_eq!(
                m.eval(f, &[va, vb, vc]).unwrap(),
                (va && vb) || vc,
                "bits {bits}"
            );
        }
    }

    #[test]
    fn xor_semantics() {
        let (mut m, a, b, _) = three_vars();
        let f = m.xor(a, b).unwrap();
        assert!(m.eval(f, &[true, false, false]).unwrap());
        assert!(m.eval(f, &[false, true, false]).unwrap());
        assert!(!m.eval(f, &[true, true, false]).unwrap());
        assert!(!m.eval(f, &[false, false, false]).unwrap());
    }

    #[test]
    fn ite_semantics() {
        let (mut m, a, b, c) = three_vars();
        let f = m.ite(a, b, c).unwrap();
        for bits in 0..8u32 {
            let va = bits & 1 != 0;
            let vb = bits & 2 != 0;
            let vc = bits & 4 != 0;
            assert_eq!(m.eval(f, &[va, vb, vc]).unwrap(), if va { vb } else { vc });
        }
    }

    #[test]
    fn signal_probability_independent_product() {
        let (mut m, a, b, c) = three_vars();
        let ab = m.and(a, b).unwrap();
        let f = m.or(ab, c).unwrap();
        // P = 1 - (1 - pa·pb)(1 - pc)
        let (pa, pb, pc) = (0.9, 0.8, 0.3);
        let expect = 1.0 - (1.0 - pa * pb) * (1.0 - pc);
        let got = m.signal_probability(f, &[pa, pb, pc]).unwrap();
        assert!((got - expect).abs() < 1e-12);
    }

    #[test]
    fn probability_of_complement_sums_to_one() {
        let (mut m, a, b, c) = three_vars();
        let ab = m.and(a, b).unwrap();
        let f = m.xor(ab, c).unwrap();
        let nf = m.not(f).unwrap();
        let probs = [0.42, 0.13, 0.77];
        let p = m.signal_probability(f, &probs).unwrap();
        let q = m.signal_probability(nf, &probs).unwrap();
        assert!((p + q - 1.0).abs() < 1e-12);
    }

    #[test]
    fn batched_probabilities_match_individual() {
        let (mut m, a, b, c) = three_vars();
        let f1 = m.and(a, b).unwrap();
        let f2 = m.or(f1, c).unwrap();
        let f3 = m.xor(a, c).unwrap();
        let probs = [0.5, 0.25, 0.75];
        let batch = m.signal_probabilities(&[f1, f2, f3], &probs).unwrap();
        for (i, &f) in [f1, f2, f3].iter().enumerate() {
            assert_eq!(batch[i], m.signal_probability(f, &probs).unwrap());
        }
    }

    #[test]
    fn invalid_probability_rejected() {
        let (m, a, _, _) = three_vars();
        assert!(matches!(
            m.signal_probability(a, &[1.5, 0.5, 0.5]),
            Err(BddError::InvalidProbability { var: 0, .. })
        ));
        assert!(matches!(
            m.signal_probability(a, &[0.5]),
            Err(BddError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn sat_count_majority() {
        let (mut m, a, b, c) = three_vars();
        // majority(a,b,c) has 4 satisfying assignments
        let ab = m.and(a, b).unwrap();
        let ac = m.and(a, c).unwrap();
        let bc = m.and(b, c).unwrap();
        let f = m.or_many([ab, ac, bc]).unwrap();
        assert_eq!(m.sat_count(f), 4.0);
    }

    #[test]
    fn support_and_node_count() {
        let (mut m, a, _b, c) = three_vars();
        let f = m.and(a, c).unwrap();
        assert_eq!(m.support(f), vec![0, 2]);
        assert_eq!(m.node_count(&[f]), 2);
        // Shared roots counted once.
        assert_eq!(m.node_count(&[f, f]), 2);
        assert_eq!(m.node_count(&[Bdd::TRUE]), 0);
    }

    #[test]
    fn variable_order_respected() {
        // Order c, b, a: c at the root.
        let mut m = BddManager::with_order(vec![2, 1, 0]).unwrap();
        let a = m.var(0).unwrap();
        let c = m.var(2).unwrap();
        let f = m.and(a, c).unwrap();
        // Root should test variable 2 (level 0).
        assert_eq!(m.order(), vec![2, 1, 0]);
        // Evaluation stays consistent regardless of order.
        assert!(m.eval(f, &[true, false, true]).unwrap());
        assert!(!m.eval(f, &[true, false, false]).unwrap());
    }

    #[test]
    fn bad_order_rejected() {
        assert!(BddManager::with_order(vec![0, 0, 1]).is_err());
        assert!(BddManager::with_order(vec![0, 3, 1]).is_err());
    }

    #[test]
    fn node_limit_enforced() {
        let mut m = BddManager::new(16);
        let vars: Vec<Bdd> = (0..16).map(|i| m.var(i).unwrap()).collect();
        let limit = m.stats().nodes + 4;
        m.set_node_limit(limit);
        let mut acc = Bdd::TRUE;
        let mut hit_limit = false;
        for chunk in vars.chunks(2) {
            let x = m.xor(chunk[0], chunk[1]);
            match x.and_then(|x| m.and(acc, x)) {
                Ok(r) => acc = r,
                Err(BddError::NodeLimit { limit: l }) if l == limit => {
                    hit_limit = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(hit_limit);
    }

    #[test]
    fn cofactor_shannon_expansion() {
        let (mut m, a, b, c) = three_vars();
        let ab = m.and(a, b).unwrap();
        let f = m.or(ab, c).unwrap();
        let f1 = m.cofactor(f, 0, true).unwrap();
        let f0 = m.cofactor(f, 0, false).unwrap();
        // Shannon: f = a·f1 + !a·f0
        let re = m.ite(a, f1, f0).unwrap();
        assert_eq!(re, f);
        // Cofactors do not depend on the variable.
        assert!(!m.support(f1).contains(&0));
        assert!(!m.support(f0).contains(&0));
    }

    #[test]
    fn quantification_semantics() {
        let (mut m, a, b, c) = three_vars();
        // f = a·b + !a·c
        let f = m.ite(a, b, c).unwrap();
        // ∃a. f = b + c
        let ex = m.exists(f, 0).unwrap();
        let bc = m.or(b, c).unwrap();
        assert_eq!(ex, bc);
        // ∀a. f = b · c
        let fa = m.forall(f, 0).unwrap();
        let band = m.and(b, c).unwrap();
        assert_eq!(fa, band);
        // ∃ then ∀ commute for distinct variables.
        let e_then_a = {
            let e = m.exists(f, 1).unwrap();
            m.forall(e, 2).unwrap()
        };
        let a_then_e = {
            let fa = m.forall(f, 2).unwrap();
            m.exists(fa, 1).unwrap()
        };
        assert_eq!(e_then_a, a_then_e);
    }

    #[test]
    fn compose_substitutes_functions() {
        let (mut m, a, b, c) = three_vars();
        // f = a·b; f[a ← (b + c)] = (b+c)·b = b
        let f = m.and(a, b).unwrap();
        let g = m.or(b, c).unwrap();
        let comp = m.compose(f, 0, g).unwrap();
        assert_eq!(comp, b);
        // Composing a variable with itself is the identity.
        let same = m.compose(f, 0, a).unwrap();
        assert_eq!(same, f);
    }

    #[test]
    fn unknown_variable_rejected() {
        let mut m = BddManager::new(2);
        assert!(matches!(
            m.var(2),
            Err(BddError::UnknownVariable { var: 2, n_vars: 2 })
        ));
        assert!(m.nvar(5).is_err());
        let a = m.var(0).unwrap();
        assert!(m.cofactor(a, 9, true).is_err());
    }

    #[test]
    fn stats_reflect_growth() {
        let (m0, _, _, _) = three_vars();
        let s = m0.stats();
        assert_eq!(s.n_vars, 3);
        assert!(s.nodes >= 5); // 2 terminals + 3 variable nodes
    }
}
