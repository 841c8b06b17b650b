//! Cross-crate integration: the complete flow preserves functionality and
//! its invariants on randomly generated control blocks. The battery at
//! the bottom checks formal (BDD) equivalence of both sides of a job over
//! random combinational and sequential networks and a small giant, and
//! pins the trapped-inverter duplication count.

use dominolp::netlist::optimize;
use dominolp::phase::flow::{minimize_area, minimize_power, FlowConfig};
use dominolp::sim::VectorSource;
use dominolp::workloads::{generate, generate_giant, GeneratorSpec, GiantSpec};
use proptest::prelude::*;

fn sample_equivalence(
    net: &dominolp::netlist::Network,
    domino: &dominolp::phase::DominoNetwork,
    seed: u64,
) {
    let mut vectors = VectorSource::uniform(net.inputs().len(), seed);
    for _ in 0..200 {
        let v = vectors.next_vector();
        assert_eq!(
            domino.eval(&v).expect("eval"),
            net.eval_comb(&v).expect("eval"),
            "domino block must compute the original functions"
        );
    }
}

#[test]
fn ma_and_mp_flows_preserve_function() {
    for seed in 0..6u64 {
        let spec = GeneratorSpec::control_block(format!("rand{seed}"), 16, 6, 70, seed);
        let net = generate(&spec).expect("generator succeeds");
        let pi = vec![0.5; 16];
        let cfg = FlowConfig::default();
        let ma = minimize_area(&net, &pi, &cfg).expect("ma flow");
        let mp = minimize_power(&net, &pi, &cfg).expect("mp flow");
        assert!(ma.domino.is_inverter_free());
        assert!(mp.domino.is_inverter_free());
        sample_equivalence(&net, &ma.domino, 100 + seed);
        sample_equivalence(&net, &mp.domino, 200 + seed);
        // MP's estimate is never worse than the all-positive start, and the
        // reported power matches the search objective.
        assert!((mp.power.total() - mp.outcome.objective).abs() < 1e-9);
    }
}

#[test]
fn optimize_then_flow_agrees_with_raw_flow_functionally() {
    let spec = GeneratorSpec::control_block("opt", 14, 5, 60, 3);
    let raw = generate(&spec).expect("generator succeeds");
    let (opt, _) = optimize(&raw);
    let pi = vec![0.5; 14];
    let cfg = FlowConfig::default();
    let report = minimize_power(&opt, &pi, &cfg).expect("mp flow");
    // The optimized network's domino block computes the raw functions.
    let mut vectors = VectorSource::uniform(14, 7);
    for _ in 0..200 {
        let v = vectors.next_vector();
        assert_eq!(
            report.domino.eval(&v).expect("eval"),
            raw.eval_comb(&v).expect("eval")
        );
    }
    // Optimization never grows the network.
    assert!(opt.len() <= raw.len());
}

#[test]
fn flows_are_formally_equivalent_to_the_source() {
    use dominolp::bdd::circuit::check_equivalence;
    use dominolp::phase::DominoSynthesizer;
    for seed in 0..4u64 {
        let spec = GeneratorSpec::control_block(format!("feq{seed}"), 14, 5, 55, seed);
        let net = generate(&spec).expect("generator succeeds");
        let pi = vec![0.5; 14];
        let cfg = FlowConfig::default();
        let synth = DominoSynthesizer::new(&net).expect("valid");
        let view = synth.comb_view();
        for report in [
            minimize_area(&net, &pi, &cfg).expect("ma flow"),
            minimize_power(&net, &pi, &cfg).expect("mp flow"),
        ] {
            // Complete (BDD) equivalence — not sampling.
            assert_eq!(
                check_equivalence(&view, &report.domino.to_network()).expect("bdds build"),
                None,
                "seed {seed}"
            );
        }
    }
}

#[test]
fn sequential_flow_preserves_cycle_behaviour() {
    use dominolp::netlist::SequentialState;
    let spec = GeneratorSpec {
        n_latches: 6,
        ..GeneratorSpec::control_block("seqflow", 10, 4, 50, 9)
    };
    let net = generate(&spec).expect("generator succeeds");
    let pi = vec![0.5; 10];
    let report = minimize_power(&net, &pi, &FlowConfig::default()).expect("mp flow");

    // Step the original network and the domino block side by side: the
    // domino view outputs are [POs, latch Ds]; latch state evolves
    // identically, so POs must match cycle by cycle.
    let mut state = SequentialState::new(&net);
    let mut domino_state: Vec<bool> = report.domino.latch_inits().to_vec();
    let mut vectors = VectorSource::uniform(10, 31);
    for cycle in 0..100 {
        let v = vectors.next_vector();
        let want = state.step(&net, &v).expect("step");
        let mut sources = v.clone();
        sources.extend(domino_state.iter().copied());
        let outs = report.domino.eval(&sources).expect("eval");
        let n_pos = net.outputs().len();
        assert_eq!(&outs[..n_pos], &want[..], "cycle {cycle}");
        domino_state.copy_from_slice(&outs[n_pos..]);
    }
}

/// Formal equivalence of both sides of a job, run as the engine runs
/// them: one synthesizer and one probability table shared by the MA and
/// MP searches.
fn assert_both_sides_equivalent(net: &dominolp::netlist::Network) {
    use dominolp::bdd::circuit::check_equivalence;
    use dominolp::phase::flow::minimize;
    use dominolp::phase::prob::compute_probabilities;
    use dominolp::phase::DominoSynthesizer;
    let cfg = FlowConfig::default();
    let pi = vec![0.5; net.inputs().len()];
    let probs = compute_probabilities(net, &pi, &cfg.probability).expect("probabilities");
    let synth = DominoSynthesizer::new(net).expect("valid");
    let view = synth.comb_view();
    for area in [true, false] {
        let report = minimize(&synth, &probs, area, &cfg, &|| false).expect("flow");
        assert!(report.domino.is_inverter_free());
        assert_eq!(
            check_equivalence(&view, &report.domino.to_network()).expect("bdds build"),
            None,
            "{} side of {}",
            if area { "MA" } else { "MP" },
            net.name()
        );
        // Duplication counts the nodes realized in both polarities.
        let mut polarities = std::collections::HashMap::new();
        for g in report.domino.gates() {
            *polarities.entry(g.source).or_insert(0) += 1;
        }
        let both = polarities.values().filter(|&&k| k == 2).count();
        assert_eq!(report.domino.duplicated_node_count(), both);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// MA and MP blocks are formally equivalent to the combinational view
    /// on random control blocks, combinational and sequential.
    #[test]
    fn ma_and_mp_blocks_are_formally_equivalent(seed in 0u64..1_000_000, latches in 0usize..4) {
        let spec = GeneratorSpec {
            n_latches: latches,
            ..GeneratorSpec::control_block(
                format!("eq{seed}"),
                6 + (seed % 8) as usize,
                2 + (seed % 6) as usize,
                20 + (seed % 40) as usize,
                seed,
            )
        };
        assert_both_sides_equivalent(&generate(&spec).expect("generator succeeds"));
    }
}

#[test]
fn giant_ma_and_mp_blocks_are_formally_equivalent() {
    let giant = generate_giant(&GiantSpec::giant("eqgiant", 24, 6, 6, 2, 71)).expect("generates");
    assert_both_sides_equivalent(&giant);
}

/// Figure 4 three times over: each output pair shares an OR cone, one
/// output wanting it direct and the other complemented, so with every
/// output positive all three cones are duplicated; flipping the
/// complemented side of a pair removes that pair's duplicate.
#[test]
fn trapped_inverters_duplicate_exactly_the_shared_cones() {
    use dominolp::netlist::Network;
    use dominolp::phase::{DominoSynthesizer, Phase, PhaseAssignment};
    let mut net = Network::new("fig4x3");
    let c = net.add_input("c").unwrap();
    for k in 0..3 {
        let a = net.add_input(format!("a{k}")).unwrap();
        let b = net.add_input(format!("b{k}")).unwrap();
        let aob = net.add_or([a, b]).unwrap();
        let naob = net.add_not(aob).unwrap();
        let f = net.add_and([aob, c]).unwrap();
        let g = net.add_and([naob, c]).unwrap();
        net.add_output(format!("f{k}"), f).unwrap();
        net.add_output(format!("g{k}"), g).unwrap();
    }
    let synth = DominoSynthesizer::new(&net).unwrap();
    let mut pa = PhaseAssignment::all_positive(6);
    assert_eq!(synth.synthesize(&pa).unwrap().duplicated_node_count(), 3);
    pa.set(1, Phase::Negative);
    assert_eq!(synth.synthesize(&pa).unwrap().duplicated_node_count(), 2);
    pa.set(3, Phase::Negative);
    pa.set(5, Phase::Negative);
    assert_eq!(synth.synthesize(&pa).unwrap().duplicated_node_count(), 0);
}
