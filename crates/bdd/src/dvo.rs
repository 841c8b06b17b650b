//! Dynamic variable ordering: Rudell-style sifting built on the adjacent
//! level swap (`crate::swap`), with deterministic fixed-trigger
//! schedules.
//!
//! # Determinism contract
//!
//! Reordering is **result-affecting** (it changes BDD shapes, and with
//! them the structure-canonical floating-point summation order of signal
//! probabilities), so everything here is a pure function of the manager
//! state and the configuration:
//!
//! * the sifting agenda, swap sequence and abort decisions depend only on
//!   node counts — never on wall-clock time, thread counts or allocation
//!   addresses;
//! * the size metric is the exact shared node count reachable from the
//!   caller's roots, kept as a running total by a reference count local
//!   to the sift (`swap::LiveCount`): seeded from the roots once, then
//!   moved by each swap only where it rewires a live node, so reading it
//!   after a swap is O(1) instead of a [`BddManager::node_count`] walk;
//! * the same count reclaims dead nodes as they die: the sift retracts
//!   the nodes the build left dead, and each swap retracts the ones it
//!   kills, so the unique table and the level lists hold only live nodes
//!   and a swap visits only those;
//! * the agenda orders variables by their live population at round
//!   start, which is a function of the order and the roots alone;
//! * the `auto` schedule triggers on arena-size thresholds (a doubling
//!   ladder), which grow deterministically during construction.
//!
//! The same circuit at the same [`ReorderMode`] therefore reorders
//! identically on every run, every thread count and every shard count.

use std::fmt;
use std::str::FromStr;

use crate::manager::{Bdd, BddError, BddManager};
use crate::swap::{swap_adjacent, LevelLists, LiveCount};

/// When (and whether) dynamic variable reordering runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReorderMode {
    /// Never reorder: today's static-order behavior, bit-for-bit.
    #[default]
    Off,
    /// Sift when construction crosses fixed arena-size thresholds
    /// (deterministic doubling ladder starting at
    /// [`ReorderConfig::auto_trigger_nodes`]), and once more after the
    /// build when any trigger fired.
    Auto,
    /// One unconditional sifting pass after construction.
    Sift,
}

impl ReorderMode {
    /// The CLI/JSON spelling (`off` / `auto` / `sift`).
    pub fn as_str(self) -> &'static str {
        match self {
            ReorderMode::Off => "off",
            ReorderMode::Auto => "auto",
            ReorderMode::Sift => "sift",
        }
    }
}

impl fmt::Display for ReorderMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for ReorderMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(ReorderMode::Off),
            "auto" => Ok(ReorderMode::Auto),
            "sift" => Ok(ReorderMode::Sift),
            other => Err(format!(
                "unknown reorder mode '{other}' (expected off, auto or sift)"
            )),
        }
    }
}

/// Tuning knobs for dynamic reordering. Every field is result-affecting
/// and participates in the engine cache key when the mode is not `Off`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReorderConfig {
    /// Schedule: `Off` (default), `Auto` or `Sift`.
    pub mode: ReorderMode,
    /// A sift direction aborts once the working size exceeds the best
    /// size seen for the variable by this percentage (Rudell's
    /// max-growth bound).
    pub max_growth_pct: u32,
    /// `Auto` triggers its first mid-build sift when the arena reaches
    /// this many nodes; later triggers double from there.
    pub auto_trigger_nodes: usize,
}

impl Default for ReorderConfig {
    fn default() -> Self {
        ReorderConfig {
            mode: ReorderMode::Off,
            max_growth_pct: 20,
            auto_trigger_nodes: 2048,
        }
    }
}

impl ReorderConfig {
    /// A config with the given mode and default bounds.
    pub fn with_mode(mode: ReorderMode) -> Self {
        ReorderConfig {
            mode,
            ..ReorderConfig::default()
        }
    }
}

/// What a reorder campaign did, recorded into kernel stats and flow JSON.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReorderOutcome {
    /// Adjacent-level swaps performed (including settle-back moves).
    pub swaps: u64,
    /// Sifting passes over the full variable agenda.
    pub sift_rounds: u32,
    /// Shared reachable node count before the first sift (equals
    /// `nodes_after` when nothing triggered).
    pub nodes_before: usize,
    /// Shared reachable node count after the last sift.
    pub nodes_after: usize,
    /// The final variable order: element `l` is the variable at level `l`.
    pub final_order: Vec<usize>,
}

impl ReorderOutcome {
    /// Merges a later sift's statistics into an accumulated outcome
    /// (`auto` mode can sift several times during one build).
    pub(crate) fn absorb(&mut self, later: &ReorderOutcome) {
        if self.sift_rounds == 0 && self.swaps == 0 {
            self.nodes_before = later.nodes_before;
        }
        self.swaps += later.swaps;
        self.sift_rounds += later.sift_rounds;
        self.nodes_after = later.nodes_after;
        self.final_order = later.final_order.clone();
    }
}

/// Sifting passes stop after this many rounds even if still improving —
/// a fixed bound so the schedule is a pure function of the inputs.
const MAX_SIFT_ROUNDS: u32 = 3;

/// Runs sifting passes until a pass stops shrinking the shared node count
/// over `roots` (bounded by `MAX_SIFT_ROUNDS`). Each variable is sifted
/// through every level — down to the bottom, up to the top — under the
/// max-growth abort, then settled at its best level; ties keep the level
/// closest to the search path's earliest visit, deterministically.
///
/// Only `roots` survive: the sift reclaims every node they do not reach
/// and ends with [`BddManager::compact`], so it returns the remapped
/// roots (positionally) and every other handle is void afterwards. The
/// op cache is empty on return.
///
/// # Errors
///
/// Returns [`BddError::NodeLimit`] if a swap exhausts the arena limit
/// (the manager is poisoned in that case).
pub fn sift(
    m: &mut BddManager,
    roots: &[Bdd],
    max_growth_pct: u32,
) -> Result<(ReorderOutcome, Vec<Bdd>), BddError> {
    let n = m.n_vars();
    let (mut live, mut lists) = LiveCount::new(m, roots);
    let mut outcome = ReorderOutcome {
        nodes_before: live.total(),
        ..ReorderOutcome::default()
    };
    let mut shrinking = n >= 2;
    while shrinking {
        outcome.sift_rounds += 1;
        let round_start = live.total();
        // Agenda: variables by live population at round start (the lists
        // hold live nodes only), largest first (they have the most to
        // give), ties by variable index.
        let population: Vec<usize> = (0..n)
            .map(|v| lists[m.level_of_var[v] as usize].len())
            .collect();
        let mut agenda: Vec<usize> = (0..n).collect();
        agenda.sort_by(|&a, &b| population[b].cmp(&population[a]).then(a.cmp(&b)));
        for v in agenda {
            sift_one(
                m,
                v,
                roots,
                &mut lists,
                &mut live,
                max_growth_pct,
                &mut outcome,
            )?;
        }
        shrinking = live.total() < round_start && outcome.sift_rounds < MAX_SIFT_ROUNDS;
    }
    outcome.nodes_after = live.total();
    outcome.final_order = m.order();
    Ok((outcome, m.compact(roots)))
}

/// Sifts one variable to its best level, leaving `live` at the resulting
/// size.
fn sift_one(
    m: &mut BddManager,
    var: usize,
    roots: &[Bdd],
    lists: &mut LevelLists,
    live: &mut LiveCount,
    max_growth_pct: u32,
    outcome: &mut ReorderOutcome,
) -> Result<(), BddError> {
    let n = m.n_vars();
    let mut level = m.level_of_var[var] as usize;
    let mut best_size = live.total();
    let mut best_level = level;
    let limit = |best: usize| best.saturating_mul(100 + max_growth_pct as usize) / 100;
    // Down to the bottom.
    while level + 1 < n {
        swap_adjacent(m, level, lists, live)?;
        outcome.swaps += 1;
        level += 1;
        let size = live.total();
        if size < best_size {
            best_size = size;
            best_level = level;
        } else if size > limit(best_size) {
            break;
        }
    }
    // Back up to the top.
    while level > 0 {
        swap_adjacent(m, level - 1, lists, live)?;
        outcome.swaps += 1;
        level -= 1;
        let size = live.total();
        if size < best_size {
            best_size = size;
            best_level = level;
        } else if size > limit(best_size) {
            break;
        }
    }
    // Settle at the best level seen. The size under a given order is
    // canonical, so arriving back at `best_level` restores `best_size`.
    while level < best_level {
        swap_adjacent(m, level, lists, live)?;
        outcome.swaps += 1;
        level += 1;
    }
    while level > best_level {
        swap_adjacent(m, level - 1, lists, live)?;
        outcome.swaps += 1;
        level -= 1;
    }
    debug_assert_eq!(
        live.total(),
        m.node_count(roots),
        "running live count drifted from the reachable count"
    );
    debug_assert_eq!(
        live.total(),
        best_size,
        "size not canonical under restored order"
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic sifting demo: f = a₀·b₀ + a₁·b₁ + ... with the pairs
    /// split across the order (a's first, then b's) — exponential under
    /// the start order, linear once the pairs are adjacent.
    fn pairs_function(m: &mut BddManager, k: usize) -> Bdd {
        let mut f = Bdd::FALSE;
        for i in 0..k {
            let a = m.var(i).unwrap();
            let b = m.var(k + i).unwrap();
            let ab = m.and(a, b).unwrap();
            f = m.or(f, ab).unwrap();
        }
        f
    }

    #[test]
    fn sifting_shrinks_the_pairs_function() {
        let mut m = BddManager::new(12);
        let f = pairs_function(&mut m, 6);
        let before = m.node_count(&[f]);
        let (outcome, roots) = sift(&mut m, &[f], 20).unwrap();
        assert_eq!(outcome.nodes_before, before);
        let after = m.node_count(&roots);
        assert_eq!(outcome.nodes_after, after);
        // Optimal interleaved order needs 2k nodes; the split order needs
        // ~3·2^(k-1). Sifting must find (near-)linear size.
        assert!(
            after * 4 <= before,
            "sifting only got {before} -> {after} nodes"
        );
        assert!(outcome.swaps > 0);
        assert_eq!(outcome.final_order, m.order());
    }

    #[test]
    fn sifting_preserves_semantics() {
        let mut m = BddManager::new(8);
        let f = pairs_function(&mut m, 4);
        let truth: Vec<bool> = (0..256u32)
            .map(|bits| {
                let vals: Vec<bool> = (0..8).map(|i| bits & (1 << i) != 0).collect();
                m.eval(f, &vals).unwrap()
            })
            .collect();
        let (_, roots) = sift(&mut m, &[f], 20).unwrap();
        for (bits, &expect) in truth.iter().enumerate() {
            let vals: Vec<bool> = (0..8).map(|i| bits & (1 << i) != 0).collect();
            assert_eq!(
                m.eval(roots[0], &vals).unwrap(),
                expect,
                "assignment {bits}"
            );
        }
    }

    #[test]
    fn sifting_is_deterministic() {
        let run = || {
            let mut m = BddManager::new(10);
            let f = pairs_function(&mut m, 5);
            let (outcome, roots) = sift(&mut m, &[f], 20).unwrap();
            (outcome, m.order(), m.digest(&roots))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn compaction_after_sifting_leaves_only_live_nodes() {
        let mut m = BddManager::new(10);
        let f = pairs_function(&mut m, 5);
        let (_, roots) = sift(&mut m, &[f], 20).unwrap();
        let live = m.node_count(&roots);
        let digest = m.digest(&roots);
        assert_eq!(m.stats().nodes, live + 2, "arena not fully compacted");
        // The sift's own compaction left nothing for another to do.
        assert_eq!(m.compact(&roots), roots, "compaction renumbered again");
        assert_eq!(m.digest(&roots), digest, "compaction changed the graph");
        assert_eq!(m.node_count(&roots), live);
    }

    #[test]
    fn sift_returns_only_live_nodes_and_an_empty_op_cache() {
        let mut m = BddManager::new(10);
        let f = pairs_function(&mut m, 5);
        // a₀·b₁ is no subfunction of f: the op cache memoizes it, and the
        // sift reclaims its node because no root reaches it.
        let a0 = m.var(0).unwrap();
        let b1 = m.var(6).unwrap();
        m.and(a0, b1).unwrap();
        assert!(m.stats().cache_entries > 0);
        let (outcome, roots) = sift(&mut m, &[f, a0, b1], 20).unwrap();
        assert_eq!(m.stats().nodes, outcome.nodes_after + 2);
        assert_eq!(m.stats().cache_entries, 0, "op cache survived the sift");
        // So the same `and` recomputes under the new order instead of
        // answering with the reclaimed handle.
        let again = m.and(roots[1], roots[2]).unwrap();
        assert_eq!(m.node_count(&[again]), 2);
        for bits in 0..1024u32 {
            let vals: Vec<bool> = (0..10).map(|i| bits & (1 << i) != 0).collect();
            assert_eq!(
                m.eval(again, &vals).unwrap(),
                vals[0] && vals[6],
                "assignment {bits}"
            );
        }
    }

    #[test]
    fn trivial_managers_sift_to_nothing() {
        let mut m = BddManager::new(1);
        let a = m.var(0).unwrap();
        let (outcome, _) = sift(&mut m, &[a], 20).unwrap();
        assert_eq!(outcome.swaps, 0);
        assert_eq!(outcome.nodes_before, outcome.nodes_after);
    }

    #[test]
    fn mode_parsing_round_trips() {
        for mode in [ReorderMode::Off, ReorderMode::Auto, ReorderMode::Sift] {
            assert_eq!(mode.as_str().parse::<ReorderMode>().unwrap(), mode);
        }
        assert!("fast".parse::<ReorderMode>().is_err());
        assert_eq!(ReorderMode::default(), ReorderMode::Off);
    }
}
