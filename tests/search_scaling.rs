//! Search-machinery behaviour at suite scale: hill-climbing min-area beyond
//! the exhaustive limit, and cost-model sanity on wide-interface circuits.

use dominolp::phase::cost::CostModel;
use dominolp::phase::prob::{compute_probabilities, ProbabilityConfig};
use dominolp::phase::search::{min_area_assignment, MinAreaConfig};
use dominolp::phase::{DominoSynthesizer, PhaseAssignment};
use dominolp::workloads::{generate, GeneratorSpec};

#[test]
fn hill_climbing_min_area_matches_resynthesis() {
    // 24 outputs: beyond the default exhaustive limit, so the hill climber
    // runs; its reported objective must equal the real synthesized area.
    let spec = GeneratorSpec::control_block("wide", 30, 24, 160, 13);
    let net = generate(&spec).expect("generator succeeds");
    let synth = DominoSynthesizer::new(&net).expect("valid");
    let outcome = min_area_assignment(&synth, &MinAreaConfig::default()).expect("search");
    let full = synth.synthesize(&outcome.assignment).expect("synthesis");
    assert_eq!(outcome.objective as usize, full.area_cells());
    // Hill climbing from all-positive can only improve or stay.
    let all_pos = synth
        .synthesize(&PhaseAssignment::all_positive(24))
        .expect("synthesis");
    assert!(full.area_cells() <= all_pos.area_cells());
}

#[test]
fn exhaustive_limit_boundary_behaviour() {
    // Exactly at the limit the search is exhaustive (2^n evaluations).
    let spec = GeneratorSpec::control_block("exact", 12, 4, 40, 2);
    let net = generate(&spec).expect("generator succeeds");
    let synth = DominoSynthesizer::new(&net).expect("valid");
    let outcome = min_area_assignment(
        &synth,
        &MinAreaConfig {
            exhaustive_limit: 4,
            max_passes: 0,
        },
    )
    .expect("search");
    assert_eq!(outcome.evaluations, 16);
    // Certify optimality against brute force.
    let brute = (0..16u64)
        .map(|bits| {
            synth
                .synthesize(&PhaseAssignment::from_bits(4, bits))
                .expect("synthesis")
                .area_cells()
        })
        .min()
        .expect("non-empty");
    assert_eq!(outcome.objective as usize, brute);
}

#[test]
fn cost_model_invariants_at_scale() {
    let spec = GeneratorSpec::control_block("cm", 40, 12, 200, 5);
    let net = generate(&spec).expect("generator succeeds");
    let pi = vec![0.5; 40];
    let probs = compute_probabilities(&net, &pi, &ProbabilityConfig::default()).expect("probs");
    let synth = DominoSynthesizer::new(&net).expect("valid");
    let cm = CostModel::new(&synth, &probs);
    let n = cm.len();
    assert_eq!(n, 12);
    for i in 0..n {
        assert!(cm.cone_size(i) > 0, "every cone is non-empty");
        for phase in [
            dominolp::phase::Phase::Positive,
            dominolp::phase::Phase::Negative,
        ] {
            let a = cm.average(i, phase);
            assert!((0.0..=1.0).contains(&a));
        }
        for j in 0..n {
            if i == j {
                continue;
            }
            let o = cm.overlap(i, j);
            // |Di ∩ Dj| ≤ min(|Di|, |Dj|) ⇒ O ≤ 0.5 (0.5 iff identical
            // cones); symmetric.
            assert!((0.0..=0.5).contains(&o), "O({i},{j}) = {o}");
            assert_eq!(cm.overlap(i, j), cm.overlap(j, i));
        }
        // K is monotone in the averages: all-positive cost with high
        // averages exceeds the flipped cost when averages exceed ½.
        for j in 0..n {
            if i == j {
                continue;
            }
            let (pi_, pj_, k) = cm.pair_best(i, j, &PhaseAssignment::all_positive(n));
            assert!(k <= cm.cost(i, j, pi_, pj_) + 1e-12);
        }
    }
}
