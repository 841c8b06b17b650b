//! The delta-scored searches against the apply/measure/revert loops they
//! replaced, and the exhaustive Gray-code walk against fresh accountants.
//!
//! The searches score every candidate as an exact integer delta read off
//! the outputs' flip diffs and apply only what they commit. The reference
//! loops below are test-only copies of the searches as they were before:
//! each applies a candidate through `ConeAccountant::set_phase`, reads
//! `fixed_total`, and reverts the candidates it rejects; the §4.1 loop
//! keeps every pair in one `BinaryHeap`. The walk moves one accountant
//! through all `2^n` assignments; its reference scores each assignment on
//! an accountant seeded fresh there. Both sides must give the same
//! assignment, objective bits, evaluations, commits and trace, and every
//! scored delta must equal the `fixed_total` change of applying it.

use std::collections::BinaryHeap;

use dominolp::netlist::Network;
use dominolp::phase::cost::CostModel;
use dominolp::phase::power::{fixed_to_power, FixedPower, PowerModel};
use dominolp::phase::prob::{compute_probabilities, NodeProbabilities, ProbabilityConfig};
use dominolp::phase::search::{
    min_power_assignment, search_objective, ConeAccountant, MinAreaConfig, MinPowerConfig,
    Objective, SearchOutcome,
};
use dominolp::phase::{DominoSynthesizer, Phase, PhaseAssignment};
use dominolp::workloads::{generate, GeneratorSpec};
use proptest::prelude::*;

/// A small deterministic stream (SplitMix64) for the values proptest's
/// strategies do not draw directly.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }

    fn phase(&mut self) -> Phase {
        if self.next() & 1 == 1 {
            Phase::Negative
        } else {
            Phase::Positive
        }
    }
}

/// A random `generate` network: 6–13 inputs, 2–8 outputs, 20–59 gates,
/// `latches` latches.
fn generated(seed: u64, latches: usize) -> Network {
    let spec = GeneratorSpec {
        n_latches: latches,
        ..GeneratorSpec::control_block(
            format!("d{seed}"),
            6 + (seed % 8) as usize,
            2 + (seed % 7) as usize,
            20 + (seed % 40) as usize,
            seed,
        )
    };
    generate(&spec).expect("generator succeeds")
}

fn assert_same(got: &SearchOutcome, want: &SearchOutcome, what: &str) {
    let bits = |trace: &[f64]| trace.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(got.assignment, want.assignment, "{what}: assignment");
    assert_eq!(
        got.objective.to_bits(),
        want.objective.to_bits(),
        "{what}: objective"
    );
    assert_eq!(got.evaluations, want.evaluations, "{what}: evaluations");
    assert_eq!(got.commits, want.commits, "{what}: commits");
    assert_eq!(bits(&got.trace), bits(&want.trace), "{what}: trace");
}

/// The record the reference loops keep, as the searches did before.
struct Record {
    best: FixedPower,
    trace: Vec<f64>,
    evaluations: usize,
    commits: usize,
}

impl Record {
    fn new(acct: &ConeAccountant<'_>) -> Self {
        Record {
            best: acct.fixed_total(),
            trace: vec![acct.total()],
            evaluations: 0,
            commits: 0,
        }
    }

    /// Measures the applied candidate; `true` if it commits.
    fn measure(&mut self, acct: &ConeAccountant<'_>, always_commit: bool) -> bool {
        self.evaluations += 1;
        let total = acct.fixed_total();
        if total < self.best || always_commit {
            self.best = total;
            self.trace.push(fixed_to_power(total));
            self.commits += 1;
            true
        } else {
            false
        }
    }

    fn outcome(self, assignment: PhaseAssignment) -> SearchOutcome {
        SearchOutcome {
            assignment,
            objective: fixed_to_power(self.best),
            evaluations: self.evaluations,
            commits: self.commits,
            trace: self.trace,
        }
    }
}

/// Applies `moves`, measures, and reverts unless the candidate commits.
fn apply_measure_revert(
    acct: &mut ConeAccountant<'_>,
    moves: &[(usize, Phase)],
    record: &mut Record,
    always_commit: bool,
) -> bool {
    let old: Vec<(usize, Phase)> = moves
        .iter()
        .map(|&(i, _)| (i, acct.assignment().phase(i)))
        .collect();
    for &(i, p) in moves {
        acct.set_phase(i, p);
    }
    if record.measure(acct, always_commit) {
        return true;
    }
    for &(i, p) in &old {
        acct.set_phase(i, p);
    }
    false
}

/// Single-flip hill climbing by apply, measure and revert.
fn reference_climb(acct: &mut ConeAccountant<'_>, passes: usize, record: &mut Record) {
    for _ in 0..passes {
        let mut improved = false;
        for i in 0..acct.assignment().len() {
            let flipped = acct.assignment().phase(i).flipped();
            improved |= apply_measure_revert(acct, &[(i, flipped)], record, false);
        }
        if !improved {
            break;
        }
    }
}

/// The hill-climbing branch of `search_objective`, from all-positive.
fn reference_hill_climb(
    synth: &DominoSynthesizer<'_>,
    objective: Objective<'_>,
    passes: usize,
) -> SearchOutcome {
    let n = synth.view_outputs().len();
    let mut acct = ConeAccountant::new(synth, objective, PhaseAssignment::all_positive(n))
        .expect("assignment fits");
    let mut record = Record::new(&acct);
    record.evaluations = 1;
    reference_climb(&mut acct, passes, &mut record);
    record.outcome(acct.assignment().clone())
}

/// The exhaustive branch of `search_objective`: every assignment in Gray
/// order (step `s` visits `s ^ (s >> 1)`), each scored on its own freshly
/// seeded accountant, committing on strict improvement.
fn reference_walk(synth: &DominoSynthesizer<'_>, objective: &Objective<'_>) -> SearchOutcome {
    let n = synth.view_outputs().len();
    let seeded = |bits: u64| {
        ConeAccountant::new(
            synth,
            objective.clone(),
            PhaseAssignment::from_bits(n, bits),
        )
        .expect("assignment fits")
    };
    let mut record = Record::new(&seeded(0));
    record.evaluations = 1;
    let mut best = 0;
    for step in 1..1u64 << n {
        let bits = step ^ (step >> 1);
        if record.measure(&seeded(bits), false) {
            best = bits;
        }
    }
    record.outcome(PhaseAssignment::from_bits(n, best))
}

/// The §4.1 loop's heap entry: a max-heap ordered so the cheapest pair
/// (cost by `total_cmp`, then `(i, j)`) is on top.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapEntry {
    cost: f64,
    i: usize,
    j: usize,
    phase_i: Phase,
    phase_j: Phase,
    version_i: u64,
    version_j: u64,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .cost
            .total_cmp(&self.cost)
            .then_with(|| (other.i, other.j).cmp(&(self.i, self.j)))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

fn power_accountant<'a>(
    synth: &'a DominoSynthesizer<'a>,
    probs: &NodeProbabilities,
    initial: PhaseAssignment,
    model: PowerModel,
) -> ConeAccountant<'a> {
    let objective = Objective::Power {
        probs: probs.as_slice(),
        model,
    };
    ConeAccountant::new(synth, objective, initial).expect("assignment fits")
}

/// `min_power_assignment` with every pair in one `BinaryHeap` and every
/// candidate applied, measured and reverted.
fn reference_min_power(
    synth: &DominoSynthesizer<'_>,
    probs: &NodeProbabilities,
    initial: PhaseAssignment,
    config: &MinPowerConfig,
) -> SearchOutcome {
    let n = synth.view_outputs().len();
    let cost_model = CostModel::new(synth, probs);
    let mut acct = power_accountant(synth, probs, initial, config.model);
    let mut record = Record::new(&acct);
    let mut versions = vec![0u64; n];
    let mut evaluate = |acct: &mut ConeAccountant<'_>, i, j, pi, pj, versions: &mut [u64]| {
        if acct.assignment().phase(i) == pi && acct.assignment().phase(j) == pj {
            return;
        }
        if apply_measure_revert(acct, &[(i, pi), (j, pj)], &mut record, config.always_commit) {
            versions[i] += 1;
            versions[j] += 1;
        }
    };
    if n >= 2 && config.k_guided {
        let entry = |i, j, acct: &ConeAccountant<'_>, versions: &[u64]| {
            let (phase_i, phase_j, cost) = cost_model.pair_best(i, j, acct.assignment());
            HeapEntry {
                cost,
                i,
                j,
                phase_i,
                phase_j,
                version_i: versions[i],
                version_j: versions[j],
            }
        };
        let mut heap = BinaryHeap::new();
        for i in 0..n {
            for j in i + 1..n {
                heap.push(entry(i, j, &acct, &versions));
            }
        }
        while let Some(e) = heap.pop() {
            if e.version_i != versions[e.i] || e.version_j != versions[e.j] {
                heap.push(entry(e.i, e.j, &acct, &versions));
                continue;
            }
            evaluate(&mut acct, e.i, e.j, e.phase_i, e.phase_j, &mut versions);
        }
    } else if n >= 2 {
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
            let (pi, pj, _) = cost_model.pair_best(i, j, acct.assignment());
            evaluate(&mut acct, i, j, pi, pj, &mut versions);
        }
    }
    reference_climb(&mut acct, config.refinement_passes, &mut record);
    record.outcome(acct.assignment().clone())
}

/// Walks an accountant through random single flips and random moves of
/// one to three outputs: each scored delta must equal the `fixed_total`
/// change of applying it, and the total must equal that of an accountant
/// seeded fresh at the same assignment.
fn check_deltas(
    synth: &DominoSynthesizer<'_>,
    objective: &Objective<'_>,
    start: PhaseAssignment,
    stream: &mut Stream,
) {
    let n = synth.view_outputs().len();
    let mut acct = ConeAccountant::new(synth, objective.clone(), start).expect("fits");
    for step in 0..24 {
        let i = stream.below(n);
        let before = acct.fixed_total();
        let delta = acct.flip_delta(i);
        acct.flip(i);
        assert_eq!(acct.fixed_total() - before, delta, "step {step}: flip {i}");

        let mut moves: Vec<(usize, Phase)> = Vec::new();
        for _ in 0..1 + stream.below(3) {
            let j = stream.below(n);
            if moves.iter().all(|&(k, _)| k != j) {
                moves.push((j, stream.phase()));
            }
        }
        let before = acct.fixed_total();
        let delta = acct.moves_delta(&moves);
        acct.apply(&moves);
        assert_eq!(acct.fixed_total() - before, delta, "step {step}: {moves:?}");

        let fresh =
            ConeAccountant::new(synth, objective.clone(), acct.assignment().clone()).expect("fits");
        assert_eq!(fresh.fixed_total(), acct.fixed_total(), "step {step}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn delta_scored_searches_match_apply_measure_revert(
        seed in 0u64..1_000_000,
        latches in 0usize..4,
        knobs: u64,
        k_guided: bool,
        always_commit: bool,
        refinement_passes in 0usize..3,
    ) {
        let net = generated(seed, latches);
        let mut stream = Stream(knobs);
        let pi: Vec<f64> = (0..net.inputs().len())
            .map(|_| 0.05 + 0.9 * (stream.next() >> 11) as f64 / (1u64 << 53) as f64)
            .collect();
        let probs = compute_probabilities(&net, &pi, &ProbabilityConfig::default())
            .expect("probabilities");
        let synth = DominoSynthesizer::new(&net).expect("valid network");
        let n = synth.view_outputs().len();
        let initial = PhaseAssignment::from_bits(n, stream.next());
        let model = PowerModel::with_and_penalty(1.0 + stream.below(5) as f64 * 0.75);
        let config = MinPowerConfig {
            model,
            always_commit,
            k_guided,
            seed: stream.next(),
            refinement_passes,
        };

        let got = min_power_assignment(&synth, &probs, initial.clone(), &config)
            .expect("search runs");
        let want = reference_min_power(&synth, &probs, initial.clone(), &config);
        assert_same(&got, &want, "min_power_assignment");

        let power = Objective::Power { probs: probs.as_slice(), model };
        let climb = MinAreaConfig { exhaustive_limit: 0, max_passes: 1 + refinement_passes };
        let walk = MinAreaConfig { exhaustive_limit: n, max_passes: 0 };
        for objective in [Objective::Area, power.clone()] {
            let got = search_objective(&synth, objective.clone(), &climb).expect("search runs");
            let want = reference_hill_climb(&synth, objective.clone(), climb.max_passes);
            assert_same(&got, &want, "hill climb");

            let got = search_objective(&synth, objective.clone(), &walk).expect("search runs");
            assert_eq!(got.evaluations, 1 << n);
            assert_same(&got, &reference_walk(&synth, &objective), "exhaustive walk");
        }

        check_deltas(&synth, &Objective::Area, initial.clone(), &mut stream);
        check_deltas(&synth, &power, initial, &mut stream);
    }
}

/// The walk on a network as wide as the ones whose walks were once split
/// across threads (12–14 view outputs): a generated 14-output control block
/// under the area objective and the power objective at three PI
/// probabilities, each against the fresh-accountant reference; the reported
/// area must be the area of synthesizing the reported assignment.
#[test]
fn exhaustive_walk_matches_fresh_accountants_on_fourteen_outputs() {
    let net = generate(&GeneratorSpec::control_block("walk14", 10, 14, 80, 5))
        .expect("generator succeeds");
    let synth = DominoSynthesizer::new(&net).expect("valid network");
    let n = synth.view_outputs().len();
    assert_eq!(n, 14);
    let walk = MinAreaConfig {
        exhaustive_limit: n,
        max_passes: 0,
    };

    let area = search_objective(&synth, Objective::Area, &walk).expect("search runs");
    assert_eq!(area.evaluations, 1 << n);
    assert_same(
        &area,
        &reference_walk(&synth, &Objective::Area),
        "area walk",
    );
    let cells = synth
        .synthesize(&area.assignment)
        .expect("synthesis")
        .area_cells();
    assert_eq!(area.objective as usize, cells);

    for p in [0.5, 0.9, 0.37] {
        let pi = vec![p; net.inputs().len()];
        let probs =
            compute_probabilities(&net, &pi, &ProbabilityConfig::default()).expect("probabilities");
        let power = Objective::Power {
            probs: probs.as_slice(),
            model: PowerModel::unit(),
        };
        let got = search_objective(&synth, power.clone(), &walk).expect("search runs");
        assert_same(
            &got,
            &reference_walk(&synth, &power),
            &format!("power walk p={p}"),
        );
    }
}
