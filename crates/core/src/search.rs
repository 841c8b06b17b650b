//! Phase-assignment search: the minimum-area baseline of Puri et al. \[15\]
//! and the paper's minimum-power greedy loop (§4.1).
//!
//! Both searches share an incremental [`ConeAccountant`] that maintains the
//! union of per-output demand cones under the current assignment with
//! reference counts. The accountant is exact: its totals equal
//! [`estimate_power`](crate::power::estimate_power) /
//! [`DominoNetwork::area_cells`](crate::DominoNetwork::area_cells) on the
//! synthesized network (asserted by tests).
//!
//! The cones belong to the [`DominoSynthesizer`], which stores each
//! output's two cones as the slots they share plus each phase's **flip
//! diff** (the slots only that phase's cone holds). Flipping an output
//! changes the block by its flip diffs alone, so the accountant scores a
//! candidate — one flip or a pair — as an **exact integer delta** read off
//! the diffs, without moving: a slot at count 0 that the candidate adds
//! costs its weight, a slot at count 1 that it drops saves its weight, and
//! the output inverter comes or goes. The local searches
//! score their candidates that way and apply only the ones they commit,
//! and a commit moves the counts of the diff slots only. The §4.1 loop
//! draws its `n(n−1)/2` initial pairs from one sorted run, merged with a
//! small heap of re-scored stale pairs.
//!
//! Every search runs on the thread that calls it, with one accountant; the
//! exhaustive walk of [`search_objective`] moves it through all `2^n`
//! assignments in Gray-code order, one flip per step.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use domino_netlist::{NodeId, NodeKind};

use crate::cost::CostModel;
use crate::error::PhaseError;
use crate::phase_assignment::{Phase, PhaseAssignment};
use crate::power::{
    fixed_to_power, power_to_fixed, static_switching, FixedPower, PowerModel, POWER_FRAC_BITS,
};
use crate::prob::NodeProbabilities;
use crate::synth::{DemandRoot, DominoGateKind, DominoSynthesizer};

/// What the accountant optimizes.
#[derive(Debug, Clone)]
pub enum Objective<'p> {
    /// Cell count: domino gates + boundary inverters (the \[15\] baseline).
    Area,
    /// Switching-weighted power `Σ S·C·P` plus boundary inverters — the
    /// paper's estimate.
    Power {
        /// Base (positive-polarity) probability per original node index.
        probs: &'p [f64],
        /// Element weights.
        model: PowerModel,
    },
}

/// Incremental objective evaluator over phase assignments.
///
/// Maintains, for the current assignment, a reference count per demand
/// slot — `2·node + polarity` for a gate, `2·source + 1` for a source's
/// input inverter — in one dense array indexed like the synthesizer's
/// cones. A phase change moves only the counts of the output's flip diffs
/// ([`set_phase`](Self::set_phase)); [`flip_delta`](Self::flip_delta) and
/// [`moves_delta`](Self::moves_delta) read what a change would do to the
/// total without making it.
///
/// # Fixed-point totals
///
/// Every element weight is quantized once, at construction, onto the
/// [`FixedPower`] `2⁻⁴⁰` grid (one weight per slot, one per output
/// inverter), and the running totals are plain `i64` sums of those table
/// entries. A phase change therefore applies an **incremental integer
/// delta** per touched element — no per-step weight recomputation — and
/// because integer addition is associative and commutative the total is
/// *path-independent*: an accountant flipped to an assignment step by step
/// carries bit-identical totals to one freshly seeded there, which is what
/// makes a scored delta equal to the change of applying it, bit for bit.
#[derive(Debug)]
pub struct ConeAccountant<'a> {
    synth: &'a DominoSynthesizer<'a>,
    current: PhaseAssignment,
    /// Refcount per slot.
    refs: Vec<u32>,
    /// Quantized weight per slot.
    weights: Vec<FixedPower>,
    /// Quantized weight of output `i`'s output inverter, placed while it
    /// is in negative phase.
    out_weights: Vec<FixedPower>,
    /// Net count change per slot while [`moves_delta`](Self::moves_delta)
    /// runs; all zero between calls.
    pending: Vec<i32>,
    /// Gates and input inverters.
    placed: FixedPower,
    output_inv: FixedPower,
}

impl<'a> ConeAccountant<'a> {
    /// Creates an accountant positioned at `initial`.
    ///
    /// # Errors
    ///
    /// Returns [`PhaseError::AssignmentMismatch`] if `initial` does not
    /// match the synthesizer's view outputs.
    pub fn new(
        synth: &'a DominoSynthesizer<'a>,
        objective: Objective<'_>,
        initial: PhaseAssignment,
    ) -> Result<Self, PhaseError> {
        let n = synth.view_outputs().len();
        if initial.len() != n {
            return Err(PhaseError::AssignmentMismatch {
                expected: n,
                got: initial.len(),
            });
        }
        let weights = build_weight_table(synth, &objective);
        let cones = synth.cones();
        let out_weights = (0..n)
            .map(|i| output_inverter_weight(&objective, cones.root(i, Phase::Negative)))
            .collect();
        let mut acct = ConeAccountant {
            synth,
            current: initial,
            refs: vec![0; weights.len()],
            pending: vec![0; weights.len()],
            weights,
            out_weights,
            placed: 0,
            output_inv: 0,
        };
        for i in 0..n {
            let phase = acct.current.phase(i);
            acct.add(cones.shared(i));
            acct.add(cones.only(i, phase));
            if phase.is_negative() {
                acct.output_inv += acct.out_weights[i];
            }
        }
        Ok(acct)
    }

    /// The current assignment.
    pub fn assignment(&self) -> &PhaseAssignment {
        &self.current
    }

    /// Objective total under the current assignment, in weight units.
    pub fn total(&self) -> f64 {
        fixed_to_power(self.fixed_total())
    }

    /// The exact fixed-point total — what the searches compare. Equal
    /// assignments give equal bits regardless of the flip path taken to
    /// reach them (see the type-level docs).
    pub fn fixed_total(&self) -> FixedPower {
        self.placed + self.output_inv
    }

    /// `(block, input inverters, output inverters)` components. Splits the
    /// placed slots by kind, so it costs one pass over them.
    pub fn components(&self) -> (f64, f64, f64) {
        let net = self.synth.network();
        let input_inv: FixedPower = (1..self.refs.len())
            .step_by(2)
            .filter(|&at| {
                self.refs[at] > 0
                    && matches!(
                        net.node(NodeId::from_index(at / 2)).kind,
                        NodeKind::Input | NodeKind::Latch { .. }
                    )
            })
            .map(|at| self.weights[at])
            .sum();
        (
            fixed_to_power(self.placed - input_inv),
            fixed_to_power(input_inv),
            fixed_to_power(self.output_inv),
        )
    }

    /// Changes output `i`'s phase; no-op if unchanged. Moves the counts of
    /// `i`'s flip diffs only.
    pub fn set_phase(&mut self, i: usize, phase: Phase) {
        let old = self.current.phase(i);
        if old == phase {
            return;
        }
        let cones = self.synth.cones();
        self.remove(cones.only(i, old));
        self.add(cones.only(i, phase));
        self.output_inv += self.output_inverter_delta(i, phase);
        self.current.set(i, phase);
    }

    /// Flips output `i`.
    pub fn flip(&mut self, i: usize) {
        self.set_phase(i, self.current.phase(i).flipped());
    }

    /// The exact change of [`fixed_total`](Self::fixed_total) that
    /// [`flip`](Self::flip)`(i)` would make, read off `i`'s flip diffs
    /// without moving.
    pub fn flip_delta(&self, i: usize) -> FixedPower {
        let old = self.current.phase(i);
        let new = old.flipped();
        let cones = self.synth.cones();
        let mut delta = self.output_inverter_delta(i, new);
        for &at in cones.only(i, old) {
            if self.refs[at as usize] == 1 {
                delta -= self.weights[at as usize];
            }
        }
        for &at in cones.only(i, new) {
            if self.refs[at as usize] == 0 {
                delta += self.weights[at as usize];
            }
        }
        delta
    }

    /// The exact change of [`fixed_total`](Self::fixed_total) that setting
    /// every `(output, phase)` of `moves` would make, without moving.
    /// Outputs must be distinct; one already in its phase adds nothing.
    ///
    /// Moves' flip diffs may overlap, so the net count change of each diff
    /// slot is summed first; a slot then costs its weight if it goes from
    /// 0 to above 0 and saves it if it goes to 0.
    pub fn moves_delta(&mut self, moves: &[(usize, Phase)]) -> FixedPower {
        let mut changed = moves
            .iter()
            .filter(|&&(i, phase)| self.current.phase(i) != phase);
        match (changed.next(), changed.next()) {
            (None, _) => return 0,
            (Some(&(i, _)), None) => return self.flip_delta(i),
            _ => {}
        }
        let cones = self.synth.cones();
        let mut delta = 0;
        for &(i, phase) in moves {
            let old = self.current.phase(i);
            if old == phase {
                continue;
            }
            delta += self.output_inverter_delta(i, phase);
            for &at in cones.only(i, old) {
                self.pending[at as usize] -= 1;
            }
            for &at in cones.only(i, phase) {
                self.pending[at as usize] += 1;
            }
        }
        for &(i, phase) in moves {
            let old = self.current.phase(i);
            if old == phase {
                continue;
            }
            for &at in cones.only(i, old).iter().chain(cones.only(i, phase)) {
                let at = at as usize;
                let change = std::mem::take(&mut self.pending[at]);
                if change == 0 {
                    continue; // balanced, or already counted
                }
                if self.refs[at] == 0 {
                    delta += self.weights[at];
                } else if i64::from(self.refs[at]) + i64::from(change) == 0 {
                    delta -= self.weights[at];
                }
            }
        }
        delta
    }

    /// Sets every `(output, phase)` of `moves`.
    pub fn apply(&mut self, moves: &[(usize, Phase)]) {
        for &(i, phase) in moves {
            self.set_phase(i, phase);
        }
    }

    /// The output-inverter change of moving output `i` to `phase` from the
    /// other phase.
    fn output_inverter_delta(&self, i: usize, phase: Phase) -> FixedPower {
        if phase.is_negative() {
            self.out_weights[i]
        } else {
            -self.out_weights[i]
        }
    }

    fn add(&mut self, slots: &[u32]) {
        for &at in slots {
            let count = &mut self.refs[at as usize];
            *count += 1;
            if *count == 1 {
                self.placed += self.weights[at as usize];
            }
        }
    }

    fn remove(&mut self, slots: &[u32]) {
        for &at in slots {
            let count = &mut self.refs[at as usize];
            assert!(*count > 0, "removing an unaccounted slot");
            *count -= 1;
            if *count == 0 {
                self.placed -= self.weights[at as usize];
            }
        }
    }
}

/// Quantized weight of the output-boundary inverter a negative-phase output
/// adds on `root`.
fn output_inverter_weight(objective: &Objective<'_>, root: DemandRoot) -> FixedPower {
    match objective {
        Objective::Area => AREA_UNIT,
        Objective::Power { probs, model } => {
            let p = match root {
                DemandRoot::Node(n, c) | DemandRoot::Source(n, c) => {
                    let base = probs[n.index()];
                    if c {
                        1.0 - base
                    } else {
                        base
                    }
                }
                DemandRoot::Constant(v) => {
                    if v {
                        1.0
                    } else {
                        0.0
                    }
                }
            };
            power_to_fixed(p * model.inverter_cap)
        }
    }
}

/// One cell or inverter in the area objective: weight `1.0`, exact in
/// fixed point (`2⁴⁰` units).
const AREA_UNIT: FixedPower = 1 << POWER_FRAC_BITS;

/// Quantizes every per-element weight once, up front: the per-flip work of
/// [`ConeAccountant`] then reduces to integer table deltas. The table is
/// laid out like the cones' slots: gate weights at `2·node + polarity`, a
/// source's input-inverter weight at `2·source + 1`.
fn build_weight_table(synth: &DominoSynthesizer<'_>, objective: &Objective<'_>) -> Vec<FixedPower> {
    let net = synth.network();
    let n_nodes = net.len();
    match objective {
        Objective::Area => vec![AREA_UNIT; 2 * n_nodes],
        Objective::Power { probs, model } => {
            let mut weights = vec![0 as FixedPower; 2 * n_nodes];
            for idx in 0..n_nodes {
                let node = net.node(NodeId::from_index(idx));
                let p = probs[idx];
                match node.kind {
                    NodeKind::And | NodeKind::Or => {
                        for (pol, complemented) in [(0usize, false), (1usize, true)] {
                            let kind = match (node.kind, complemented) {
                                (NodeKind::And, false) | (NodeKind::Or, true) => {
                                    DominoGateKind::And
                                }
                                _ => DominoGateKind::Or,
                            };
                            let rail = if complemented { 1.0 - p } else { p };
                            weights[2 * idx + pol] = power_to_fixed(rail * model.gate_weight(kind));
                        }
                    }
                    NodeKind::Input | NodeKind::Latch { .. } => {
                        weights[2 * idx + 1] =
                            power_to_fixed(static_switching(p) * model.inverter_cap);
                    }
                    NodeKind::Not | NodeKind::Constant(_) => {}
                }
            }
            weights
        }
    }
}

/// Result of a phase-assignment search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// The assignment found.
    pub assignment: PhaseAssignment,
    /// Objective value at that assignment (cells for area, switching-power
    /// for power).
    pub objective: f64,
    /// Number of candidate evaluations (synthesize + measure steps).
    pub evaluations: usize,
    /// Number of committed changes.
    pub commits: usize,
    /// Objective after each commit (convergence trace, Figure 6).
    pub trace: Vec<f64>,
}

/// Configuration for [`min_area_assignment`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MinAreaConfig {
    /// Up to this many outputs the search is exhaustive over all `2^n`
    /// assignments (gray-code walk, `O(cone)` per step) — this makes the
    /// baseline *optimal* like the paper's \[15\] runs.
    pub exhaustive_limit: usize,
    /// Hill-climbing passes for larger output counts.
    pub max_passes: usize,
}

impl Default for MinAreaConfig {
    fn default() -> Self {
        MinAreaConfig {
            exhaustive_limit: 16,
            max_passes: 32,
        }
    }
}

/// Minimum-area phase assignment — the Puri et al. \[15\] baseline: exhaustive
/// for small output counts, single-flip hill climbing from all-positive
/// otherwise.
///
/// # Errors
///
/// Propagates [`PhaseError`] from accounting (never fails on a validated
/// synthesizer).
pub fn min_area_assignment(
    synth: &DominoSynthesizer<'_>,
    config: &MinAreaConfig,
) -> Result<SearchOutcome, PhaseError> {
    search_objective(synth, Objective::Area, config)
}

/// Generic exhaustive/hill-climbing search over an [`Objective`] — the
/// machinery behind [`min_area_assignment`], also used to find the *true*
/// optimum power assignment on small circuits (frg1's 8-assignment space).
///
/// Up to `exhaustive_limit` view outputs it walks all `2^n` assignments in
/// Gray-code order on one accountant (one flip per step, `O(flip diff)`
/// each); above that it hill-climbs from all-positive.
///
/// # Errors
///
/// Propagates [`PhaseError`] from accounting.
///
/// # Example
///
/// ```
/// use domino_phase::search::{search_objective, MinAreaConfig, Objective};
/// use domino_phase::DominoSynthesizer;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut net = domino_netlist::Network::new("ex");
/// let a = net.add_input("a")?;
/// let b = net.add_input("b")?;
/// let f = net.add_and([a, b])?;
/// let g = net.add_not(f)?;
/// net.add_output("f", f)?;
/// net.add_output("g", g)?;
/// let synth = DominoSynthesizer::new(&net)?;
/// let outcome = search_objective(&synth, Objective::Area, &MinAreaConfig::default())?;
/// // Exhaustive over 2² assignments; the optimum shares the AND gate.
/// assert_eq!(outcome.evaluations, 4);
/// # Ok(())
/// # }
/// ```
pub fn search_objective(
    synth: &DominoSynthesizer<'_>,
    objective: Objective<'_>,
    config: &MinAreaConfig,
) -> Result<SearchOutcome, PhaseError> {
    let n = synth.view_outputs().len();
    let mut acct = ConeAccountant::new(synth, objective, PhaseAssignment::all_positive(n))?;
    if n <= config.exhaustive_limit && n > 0 {
        return Ok(gray_walk(acct, n));
    }
    let mut progress = Progress::new(acct.fixed_total());
    progress.evaluations = 1;
    hill_climb(&mut acct, config.max_passes, &mut progress);
    Ok(progress.finish(&acct))
}

/// The running record every search reports in its [`SearchOutcome`]. In
/// the local searches the accountant sits at the best assignment found, so
/// `best` equals its total (or, under `always_commit`, the last committed
/// one); the Gray walk moves on and remembers the best step itself.
struct Progress {
    best: FixedPower,
    trace: Vec<f64>,
    evaluations: usize,
    commits: usize,
}

impl Progress {
    fn new(best: FixedPower) -> Self {
        Progress {
            best,
            trace: vec![fixed_to_power(best)],
            evaluations: 0,
            commits: 0,
        }
    }

    /// Counts one evaluated candidate whose total would be `total`, and
    /// records it as a commit if it beats the best (or `always_commit`).
    /// Returns whether the caller should apply it.
    fn commits(&mut self, total: FixedPower, always_commit: bool) -> bool {
        self.evaluations += 1;
        if total < self.best || always_commit {
            self.best = total;
            self.trace.push(fixed_to_power(total));
            self.commits += 1;
            true
        } else {
            false
        }
    }

    fn finish(self, acct: &ConeAccountant<'_>) -> SearchOutcome {
        SearchOutcome {
            assignment: acct.assignment().clone(),
            objective: fixed_to_power(self.best),
            evaluations: self.evaluations,
            commits: self.commits,
            trace: self.trace,
        }
    }
}

/// Single-flip hill climbing: up to `passes` sweeps over the outputs, each
/// flip scored by its exact delta and applied only if it improves; stops
/// after a sweep without a commit.
fn hill_climb(acct: &mut ConeAccountant<'_>, passes: usize, progress: &mut Progress) {
    for _ in 0..passes {
        let mut improved = false;
        for i in 0..acct.assignment().len() {
            if progress.commits(acct.fixed_total() + acct.flip_delta(i), false) {
                acct.flip(i);
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
}

/// Exhaustive walk over all `2^n` assignments in Gray-code order: step `s`
/// visits `s ^ (s >> 1)`, one flip (`trailing_zeros(s)`) away from the
/// step before, and commits iff it beats every earlier step. The reported
/// assignment is that of the last committed step.
fn gray_walk(mut acct: ConeAccountant<'_>, n: usize) -> SearchOutcome {
    let mut progress = Progress::new(acct.fixed_total());
    progress.evaluations = 1;
    let mut best_step = 0u64;
    for step in 1..1u64 << n {
        acct.flip(step.trailing_zeros() as usize);
        if progress.commits(acct.fixed_total(), false) {
            best_step = step;
        }
    }
    let mut outcome = progress.finish(&acct);
    outcome.assignment = PhaseAssignment::from_bits(n, best_step ^ (best_step >> 1));
    outcome
}

/// Configuration for [`min_power_assignment`].
#[derive(Debug, Clone, PartialEq)]
pub struct MinPowerConfig {
    /// Element weights of the power estimate.
    pub model: PowerModel,
    /// Commit every candidate even if measured power did not decrease
    /// (ablation A4; the paper commits only on improvement).
    pub always_commit: bool,
    /// Use the cost function `K` to order candidate pairs (the paper's
    /// heuristic). When `false`, pairs are visited in a seeded random order
    /// (ablation A3) with the combination still chosen by `K`.
    pub k_guided: bool,
    /// Seed for the random pair order when `k_guided` is `false`.
    pub seed: u64,
    /// Measurement-driven single-flip hill-climbing passes *after* the
    /// pairwise loop. The paper's loop consumes each pair once, so an
    /// unluckily ranked combination can strand an output in the wrong
    /// phase; one cheap refinement pass fixes that (set to 0 for the
    /// strictly literal §4.1 algorithm).
    pub refinement_passes: usize,
}

impl Default for MinPowerConfig {
    fn default() -> Self {
        MinPowerConfig {
            model: PowerModel::unit(),
            always_commit: false,
            k_guided: true,
            seed: 1,
            refinement_passes: 1,
        }
    }
}

/// A scored pair of the §4.1 loop. Ordered by cost (`total_cmp`), then
/// `(i, j)`: a total order, and a pair has at most one entry at a time, so
/// the loop's pop sequence is fixed.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PairEntry {
    cost: f64,
    i: usize,
    j: usize,
    phase_i: Phase,
    phase_j: Phase,
    version_i: u64,
    version_j: u64,
}

impl Eq for PairEntry {}

impl Ord for PairEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.cost
            .total_cmp(&other.cost)
            .then_with(|| (self.i, self.j).cmp(&(other.i, other.j)))
    }
}

impl PartialOrd for PairEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The paper's §4.1 minimum-power phase assignment heuristic.
///
/// 1. start from an arbitrary initial assignment and measure its power;
/// 2. for every pair of outputs, compute the cost `K` of the four keep/flip
///    combinations;
/// 3. take the globally cheapest `(pair, combination)`;
/// 4. synthesize that candidate and measure its power;
/// 5. commit iff the power decreased;
/// 6. remove the pair from the candidate set and repeat until empty.
///
/// The per-candidate measurement uses the incremental [`ConeAccountant`]
/// (exactly equal to a full resynthesis + `Σ S·C·P` estimate).
///
/// # Errors
///
/// Returns [`PhaseError::AssignmentMismatch`] if `initial` has the wrong
/// length.
///
/// # Example
///
/// The paper's Figure 5 pair at `p(PI) = 0.9`: the heuristic finds the
/// `(f−, g+)` assignment, 75% cheaper than the all-positive one.
///
/// ```
/// use domino_phase::prob::{compute_probabilities, ProbabilityConfig};
/// use domino_phase::search::{min_power_assignment, MinPowerConfig};
/// use domino_phase::{DominoSynthesizer, Phase, PhaseAssignment};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let net = domino_workloads::figures::fig5_network()?;
/// let probs = compute_probabilities(&net, &[0.9; 4], &ProbabilityConfig::default())?;
/// let synth = DominoSynthesizer::new(&net)?;
/// let outcome = min_power_assignment(
///     &synth,
///     &probs,
///     PhaseAssignment::all_positive(2),
///     &MinPowerConfig::default(),
/// )?;
/// assert_eq!(outcome.assignment.phase(0), Phase::Negative); // f flipped
/// assert_eq!(outcome.assignment.phase(1), Phase::Positive); // g kept
/// assert!((outcome.objective - 1.1219).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn min_power_assignment(
    synth: &DominoSynthesizer<'_>,
    probs: &NodeProbabilities,
    initial: PhaseAssignment,
    config: &MinPowerConfig,
) -> Result<SearchOutcome, PhaseError> {
    let n = synth.view_outputs().len();
    let cost_model = CostModel::new(synth, probs);
    let mut acct = ConeAccountant::new(
        synth,
        Objective::Power {
            probs: probs.as_slice(),
            model: config.model,
        },
        initial,
    )?;
    let mut progress = Progress::new(acct.fixed_total());

    if n >= 2 {
        let mut versions = vec![0u64; n];
        let score = |i: usize, j: usize, acct: &ConeAccountant<'_>, versions: &[u64]| {
            let (phase_i, phase_j, cost) = cost_model.pair_best(i, j, acct.assignment());
            PairEntry {
                cost,
                i,
                j,
                phase_i,
                phase_j,
                version_i: versions[i],
                version_j: versions[j],
            }
        };
        if config.k_guided {
            // Every pair starts in one sorted run, cheapest last; a pair
            // popped stale is re-scored into the small `stale` heap. The
            // cheaper head of the two is the global minimum, as one heap
            // of every entry would pop it.
            let mut run: Vec<PairEntry> = (0..n)
                .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
                .map(|(i, j)| score(i, j, &acct, &versions))
                .collect();
            run.sort_unstable_by(|a, b| b.cmp(a));
            let mut stale: BinaryHeap<Reverse<PairEntry>> = BinaryHeap::new();
            loop {
                let entry = match (run.last(), stale.peek()) {
                    (Some(head), Some(Reverse(top))) if top < head => stale.pop().map(|e| e.0),
                    (Some(_), _) => run.pop(),
                    (None, _) => stale.pop().map(|e| e.0),
                };
                let Some(entry) = entry else { break };
                if entry.version_i != versions[entry.i] || entry.version_j != versions[entry.j] {
                    stale.push(Reverse(score(entry.i, entry.j, &acct, &versions)));
                    continue;
                }
                evaluate_pair(&mut acct, &entry, config, &mut progress, &mut versions);
            }
        } else {
            // Ablation: random pair order, combination still by K.
            let mut pairs: Vec<(usize, usize)> = (0..n)
                .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
                .collect();
            let mut state = config.seed | 1;
            for idx in (1..pairs.len()).rev() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let j = (state % (idx as u64 + 1)) as usize;
                pairs.swap(idx, j);
            }
            for (i, j) in pairs {
                let entry = score(i, j, &acct, &versions);
                evaluate_pair(&mut acct, &entry, config, &mut progress, &mut versions);
            }
        }
    }

    // Optional refinement: measurement-driven single flips.
    hill_climb(&mut acct, config.refinement_passes, &mut progress);
    Ok(progress.finish(&acct))
}

/// Scores the pair's chosen combination as an exact delta and applies it
/// if it commits. A combination that keeps both phases measures nothing.
fn evaluate_pair(
    acct: &mut ConeAccountant<'_>,
    entry: &PairEntry,
    config: &MinPowerConfig,
    progress: &mut Progress,
    versions: &mut [u64],
) {
    let moves = [(entry.i, entry.phase_i), (entry.j, entry.phase_j)];
    if moves.iter().all(|&(i, p)| acct.assignment().phase(i) == p) {
        return;
    }
    let total = acct.fixed_total() + acct.moves_delta(&moves);
    if progress.commits(total, config.always_commit) {
        acct.apply(&moves);
        versions[entry.i] += 1;
        versions[entry.j] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::estimate_power;
    use crate::prob::{compute_probabilities, ProbabilityConfig};
    use domino_netlist::Network;

    /// The Figure 5 circuit: high-probability cones where phase choice
    /// matters a lot.
    fn fig5() -> Network {
        let mut net = Network::new("fig5");
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        let c = net.add_input("c").unwrap();
        let d = net.add_input("d").unwrap();
        let aob = net.add_or([a, b]).unwrap();
        let cad = net.add_and([c, d]).unwrap();
        let f = net.add_or([aob, cad]).unwrap();
        let naob = net.add_not(aob).unwrap();
        let ncad = net.add_not(cad).unwrap();
        let g = net.add_or([naob, ncad]).unwrap();
        net.add_output("f", f).unwrap();
        net.add_output("g", g).unwrap();
        net
    }

    fn probs_for(net: &Network, p: f64) -> NodeProbabilities {
        compute_probabilities(
            net,
            &vec![p; net.inputs().len()],
            &ProbabilityConfig::default(),
        )
        .unwrap()
    }

    /// The accountant must agree exactly with full synthesis + estimation
    /// at every assignment.
    #[test]
    fn accountant_matches_full_synthesis() {
        let net = fig5();
        let synth = DominoSynthesizer::new(&net).unwrap();
        let probs = probs_for(&net, 0.9);
        let model = PowerModel::unit();
        let mut acct = ConeAccountant::new(
            &synth,
            Objective::Power {
                probs: probs.as_slice(),
                model,
            },
            PhaseAssignment::all_positive(2),
        )
        .unwrap();
        // Walk all four assignments in gray order.
        for step in 0u64..4 {
            if step > 0 {
                acct.flip(step.trailing_zeros() as usize);
            }
            let pa = acct.assignment().clone();
            let full = synth.synthesize(&pa).unwrap();
            let est = estimate_power(&full, probs.as_slice(), &model);
            assert!(
                (acct.total() - est.total()).abs() < 1e-9,
                "assignment {pa}: acct {} vs full {}",
                acct.total(),
                est.total()
            );
            let (b, ii, oi) = acct.components();
            assert!((b - est.block).abs() < 1e-9);
            assert!((ii - est.input_inverters).abs() < 1e-9);
            assert!((oi - est.output_inverters).abs() < 1e-9);
        }
    }

    #[test]
    fn accountant_matches_area() {
        let net = fig5();
        let synth = DominoSynthesizer::new(&net).unwrap();
        let mut acct =
            ConeAccountant::new(&synth, Objective::Area, PhaseAssignment::all_positive(2)).unwrap();
        for step in 0u64..4 {
            if step > 0 {
                acct.flip(step.trailing_zeros() as usize);
            }
            let full = synth.synthesize(acct.assignment()).unwrap();
            assert_eq!(acct.total() as usize, full.area_cells());
        }
    }

    #[test]
    fn min_area_exhaustive_is_optimal() {
        let net = fig5();
        let synth = DominoSynthesizer::new(&net).unwrap();
        let outcome = min_area_assignment(&synth, &MinAreaConfig::default()).unwrap();
        // Brute force over all four assignments.
        let brute = (0..4u64)
            .map(|bits| {
                let pa = PhaseAssignment::from_bits(2, bits);
                synth.synthesize(&pa).unwrap().area_cells()
            })
            .min()
            .unwrap();
        assert_eq!(outcome.objective as usize, brute);
        assert_eq!(outcome.evaluations, 4);
    }

    #[test]
    fn min_power_finds_figure5_optimum() {
        // The paper's example: at p(PI) = 0.9 the (f−, g+) assignment is
        // 75% cheaper; the greedy heuristic must find it.
        let net = fig5();
        let synth = DominoSynthesizer::new(&net).unwrap();
        let probs = probs_for(&net, 0.9);
        let outcome = min_power_assignment(
            &synth,
            &probs,
            PhaseAssignment::all_positive(2),
            &MinPowerConfig::default(),
        )
        .unwrap();
        assert_eq!(outcome.assignment.phase(0), Phase::Negative, "f flipped");
        assert_eq!(outcome.assignment.phase(1), Phase::Positive, "g kept");
        assert!((outcome.objective - 1.1219).abs() < 1e-9);
        assert!(outcome.commits >= 1);
        // Trace is monotone decreasing.
        for w in outcome.trace.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
    }

    #[test]
    fn min_power_never_worse_than_initial() {
        let net = fig5();
        let synth = DominoSynthesizer::new(&net).unwrap();
        for p in [0.1, 0.3, 0.5, 0.7, 0.9] {
            let probs = probs_for(&net, p);
            for init_bits in 0..4u64 {
                let init = PhaseAssignment::from_bits(2, init_bits);
                let acct = ConeAccountant::new(
                    &synth,
                    Objective::Power {
                        probs: probs.as_slice(),
                        model: PowerModel::unit(),
                    },
                    init.clone(),
                )
                .unwrap();
                let initial_power = acct.total();
                let outcome =
                    min_power_assignment(&synth, &probs, init, &MinPowerConfig::default()).unwrap();
                assert!(
                    outcome.objective <= initial_power + 1e-12,
                    "p={p} init={init_bits:b}"
                );
            }
        }
    }

    #[test]
    fn random_order_ablation_still_improves() {
        let net = fig5();
        let synth = DominoSynthesizer::new(&net).unwrap();
        let probs = probs_for(&net, 0.9);
        let outcome = min_power_assignment(
            &synth,
            &probs,
            PhaseAssignment::all_positive(2),
            &MinPowerConfig {
                k_guided: false,
                seed: 42,
                ..MinPowerConfig::default()
            },
        )
        .unwrap();
        // With a single pair the random order is irrelevant; it must still
        // find the optimum.
        assert!((outcome.objective - 1.1219).abs() < 1e-9);
    }

    #[test]
    fn heuristic_reaches_the_exhaustive_optimum_on_figure5() {
        // frg1's argument in miniature: with ≤ 2^n assignments the optimum
        // is computable, and the heuristic should land on it.
        let net = fig5();
        let synth = DominoSynthesizer::new(&net).unwrap();
        for p in [0.1, 0.5, 0.9] {
            let probs = probs_for(&net, p);
            let power = Objective::Power {
                probs: probs.as_slice(),
                model: PowerModel::unit(),
            };
            let exhaustive = MinAreaConfig {
                exhaustive_limit: 2,
                max_passes: 0,
            };
            let optimal = search_objective(&synth, power, &exhaustive).unwrap();
            let heuristic = min_power_assignment(
                &synth,
                &probs,
                PhaseAssignment::all_positive(2),
                &MinPowerConfig::default(),
            )
            .unwrap();
            assert!(
                (heuristic.objective - optimal.objective).abs() < 1e-9,
                "p={p}: heuristic {} vs optimal {}",
                heuristic.objective,
                optimal.objective
            );
        }
    }

    /// 12 outputs with shared, asymmetric cones over 6 inputs.
    fn wide12() -> Network {
        let mut net = Network::new("wide12");
        let ins: Vec<_> = (0..6)
            .map(|i| net.add_input(format!("i{i}")).unwrap())
            .collect();
        for i in 0..12usize {
            let g1 = net.add_and([ins[i % 6], ins[(i + 1) % 6]]).unwrap();
            let g2 = net.add_or([g1, ins[(i + 2) % 6]]).unwrap();
            let driver = if i % 2 == 0 {
                g2
            } else {
                net.add_not(g2).unwrap()
            };
            net.add_output(format!("o{i}"), driver).unwrap();
        }
        net
    }

    /// The incremental fixed-point delta must never drift from a full
    /// recomputation: an accountant flipped along a long Gray path carries
    /// bit-identical totals to one freshly seeded at the same assignment.
    #[test]
    fn incremental_totals_match_full_recomputation() {
        let net = wide12();
        let synth = DominoSynthesizer::new(&net).unwrap();
        let probs = probs_for(&net, 0.73);
        let objective = Objective::Power {
            probs: probs.as_slice(),
            model: PowerModel::with_and_penalty(2.5),
        };
        let mut walker =
            ConeAccountant::new(&synth, objective.clone(), PhaseAssignment::all_positive(12))
                .unwrap();
        for step in 1u64..512 {
            walker.flip(step.trailing_zeros() as usize);
            if step % 37 == 0 {
                let fresh =
                    ConeAccountant::new(&synth, objective.clone(), walker.assignment().clone())
                        .unwrap();
                assert_eq!(
                    walker.fixed_total(),
                    fresh.fixed_total(),
                    "step {step}: incremental vs full recomputation"
                );
            }
        }
    }

    #[test]
    fn always_commit_ablation_can_end_worse() {
        let net = fig5();
        let synth = DominoSynthesizer::new(&net).unwrap();
        let probs = probs_for(&net, 0.9);
        let strict = min_power_assignment(
            &synth,
            &probs,
            PhaseAssignment::all_positive(2),
            &MinPowerConfig::default(),
        )
        .unwrap();
        let always = min_power_assignment(
            &synth,
            &probs,
            PhaseAssignment::all_positive(2),
            &MinPowerConfig {
                always_commit: true,
                ..MinPowerConfig::default()
            },
        )
        .unwrap();
        // The strict policy is never worse.
        assert!(strict.objective <= always.objective + 1e-12);
    }
}
