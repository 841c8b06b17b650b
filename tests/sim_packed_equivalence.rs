//! The packed-engine contract: the bit-parallel simulation kernels must be
//! **bit-identical** to the scalar reference implementations for the same
//! logical vector stream — identical per-node toggle counts, identical
//! power totals, identical probability estimates. The reference
//! (`dominolp::sim::reference`) unpacks the very same `PackedVectorSource`
//! words and simulates the 64 lanes one `bool` at a time; both sides
//! accumulate integer event counters and share the final integer→`f64`
//! conversion, so any disagreement is a packed-kernel bug, not float
//! noise.

use dominolp::phase::{DominoSynthesizer, Phase, PhaseAssignment};
use dominolp::sim::montecarlo::estimate_node_probabilities;
use dominolp::sim::{
    measure_domino_switching, measure_power, reference, simulate_static, SimConfig, SimStats,
};
use dominolp::techmap::{map, Library};
use dominolp::workloads::{generate, public_suite, GeneratorSpec};
use proptest::prelude::*;

/// 3 full words + one 8-lane partial word: exercises the remainder mask.
fn small_cfg(seed: u64) -> SimConfig {
    SimConfig {
        cycles: 200,
        warmup: 3,
        seed,
        ..SimConfig::default()
    }
}

/// Golden equivalence on the public suite: the exact flow-shaped workload,
/// both MA-shaped (all-positive) and a mixed assignment, through mapping.
#[test]
fn packed_power_matches_scalar_reference_on_public_suite() {
    let lib = Library::standard();
    for bench in public_suite().expect("suite generates").iter() {
        let net = &bench.network;
        let pi = vec![0.5; net.inputs().len()];
        let synth = DominoSynthesizer::new(net).expect("synthesizer");
        let n = synth.view_outputs().len();
        let alternating = PhaseAssignment::from_phases(
            (0..n)
                .map(|i| {
                    if i % 2 == 0 {
                        Phase::Positive
                    } else {
                        Phase::Negative
                    }
                })
                .collect(),
        );
        for (tag, pa) in [
            ("all+", PhaseAssignment::all_positive(n)),
            ("alt", alternating),
        ] {
            let domino = synth.synthesize(&pa).expect("synthesis");
            let mapped = map(&domino, &lib);
            let cfg = small_cfg(0x00D0_1110 + pa.negative_count() as u64);
            let packed = measure_power(&mapped, &lib, &pi, &cfg);
            let scalar = reference::measure_power(&mapped, &lib, &pi, &cfg);
            assert_eq!(packed, scalar, "{} {tag}: power", bench.name);

            let packed_sw = measure_domino_switching(&domino, &pi, &cfg);
            let scalar_sw = reference::measure_domino_switching(&domino, &pi, &cfg);
            assert_eq!(packed_sw, scalar_sw, "{} {tag}: switching", bench.name);
        }
    }
}

#[test]
fn packed_montecarlo_and_static_match_scalar_reference() {
    for bench in public_suite().expect("suite generates").iter().take(2) {
        let net = &bench.network;
        let pi: Vec<f64> = (0..net.inputs().len())
            .map(|i| 0.15 + 0.07 * (i % 10) as f64)
            .collect();
        let cfg = small_cfg(17);
        assert_eq!(
            estimate_node_probabilities(net, &pi, &cfg),
            reference::estimate_node_probabilities(net, &pi, &cfg),
            "{}: monte-carlo",
            bench.name
        );
        assert_eq!(
            simulate_static(net, &pi, &cfg),
            reference::simulate_static(net, &pi, &cfg),
            "{}: static sim",
            bench.name
        );
    }
}

/// Sequential feedback: flop lanes must evolve independently and still
/// match the lane-by-lane scalar replay.
#[test]
fn packed_sequential_simulation_matches_scalar_reference() {
    let spec = GeneratorSpec {
        n_latches: 5,
        ..GeneratorSpec::control_block("pk_seq", 8, 3, 40, 6)
    };
    let net = generate(&spec).expect("generator succeeds");
    let pi = vec![0.6; 8];
    let cfg = SimConfig {
        cycles: 130, // 2 full words + 2-lane partial
        warmup: 8,
        seed: 23,
        ..SimConfig::default()
    };
    let synth = DominoSynthesizer::new(&net).expect("valid");
    let n = synth.view_outputs().len();
    let domino = synth
        .synthesize(&PhaseAssignment::from_bits(
            n,
            0b1011 & ((1 << n as u64) - 1),
        ))
        .expect("synthesis");
    let lib = Library::standard();
    let mapped = map(&domino, &lib);
    assert_eq!(
        measure_power(&mapped, &lib, &pi, &cfg),
        reference::measure_power(&mapped, &lib, &pi, &cfg)
    );
    assert_eq!(
        measure_domino_switching(&domino, &pi, &cfg),
        reference::measure_domino_switching(&domino, &pi, &cfg)
    );
    assert_eq!(
        estimate_node_probabilities(&net, &pi, &cfg),
        reference::estimate_node_probabilities(&net, &pi, &cfg)
    );
    assert_eq!(
        simulate_static(&net, &pi, &cfg),
        reference::simulate_static(&net, &pi, &cfg)
    );
}

/// A mixed phase assignment of `n` view outputs.
fn mixed(n: usize) -> PhaseAssignment {
    PhaseAssignment::from_bits(n, 0b1011_0110 & ((1u64 << n.min(63)) - 1))
}

/// The public-suite rows frg1 and apex7 and a sequential block with five
/// flops, each synthesized under a mixed assignment: the circuits the
/// shard-block tests run, with their input probabilities.
fn block_test_circuits() -> Vec<(&'static str, Vec<f64>, dominolp::phase::DominoNetwork)> {
    let suite = public_suite().expect("suite generates");
    let seq = generate(&GeneratorSpec {
        n_latches: 5,
        ..GeneratorSpec::control_block("pk_seq", 8, 3, 40, 6)
    })
    .expect("generator succeeds");
    let row = |name: &str| &suite.iter().find(|b| b.name == name).expect("row").network;
    [
        ("frg1", row("frg1"), 0.5),
        ("apex7", row("apex7"), 0.5),
        ("pk_seq", &seq, 0.6),
    ]
    .into_iter()
    .map(|(name, net, p)| {
        let synth = DominoSynthesizer::new(net).expect("synthesizer");
        let domino = synth
            .synthesize(&mixed(synth.view_outputs().len()))
            .expect("synthesis");
        (name, vec![p; net.inputs().len()], domino)
    })
    .collect()
}

/// Shards are simulated in lockstep blocks of 8, then at most one block
/// each of 4, 2 and 1. Shard counts that leave partial blocks (1, 3, 7,
/// 9, 17) and cycle/warmup splits under which a block's shards run
/// different step counts must still match the scalar reference, which
/// replays each shard on its own.
#[test]
fn packed_power_matches_scalar_reference_across_shard_blocks() {
    let lib = Library::standard();
    for (name, pi, domino) in block_test_circuits() {
        let mapped = map(&domino, &lib);
        for shards in [1u32, 3, 7, 9, 17] {
            // 203/19: uneven cycles and warmup, so step counts differ
            // within a block; 1024/16: the giant workload's budget.
            for (cycles, warmup) in [(203, 19), (1024, 16), (130, 0)] {
                let cfg = SimConfig {
                    cycles,
                    warmup,
                    seed: 0x00D0_1110 + u64::from(shards),
                    shards,
                    ..SimConfig::default()
                };
                let packed = measure_power(&mapped, &lib, &pi, &cfg);
                assert_eq!(
                    packed,
                    reference::measure_power(&mapped, &lib, &pi, &cfg),
                    "{name}: shards {shards}, cycles {cycles}, warmup {warmup}"
                );
                assert_eq!(packed.stats.shards, u64::from(shards));
                assert_eq!(
                    measure_domino_switching(&domino, &pi, &cfg),
                    reference::measure_domino_switching(&domino, &pi, &cfg),
                    "{name}: switching, shards {shards}, cycles {cycles}"
                );
            }
        }
    }
}

/// The scalar reference has no adaptive mode, so adaptive reports are
/// pinned to values recorded from the one-shard-at-a-time kernel. Both
/// tolerances stop the shards at different checkpoints, so lanes of one
/// block finish at different steps.
#[test]
fn adaptive_reports_are_pinned() {
    let lib = Library::standard();
    let circuits = block_test_circuits();
    let configs = [
        SimConfig {
            cycles: 1 << 16,
            warmup: 19,
            seed: 0x00D0_1110,
            adaptive_tol_ppm: 1_000,
            shards: 8,
        },
        SimConfig {
            cycles: 20_000,
            warmup: 3,
            seed: 5,
            adaptive_tol_ppm: 500,
            shards: 11,
        },
    ];
    // Circuit and config, then the pinned cycles (= vectors), switch
    // events, words, measured words and `cap_ma` bits.
    let pinned = [
        ("apex7", 0, 4864, 982_681, 95, 76, 0x3ff9_ccad_f00e_47f3),
        (
            "apex7",
            1,
            10_062,
            2_033_111,
            170,
            159,
            0x3ff9_cd3a_9c17_434a,
        ),
        (
            "pk_seq",
            0,
            13_056,
            561_159,
            223,
            204,
            0x3fd5_d262_379e_6dbb,
        ),
        (
            "pk_seq",
            1,
            12_163,
            522_290,
            204,
            193,
            0x3fd5_cd66_b99d_8874,
        ),
    ];
    for (name, config, cycles, events, words, measured_words, cap_bits) in pinned {
        let (_, pi, domino) = circuits.iter().find(|c| c.0 == name).expect("circuit");
        let cfg = &configs[config];
        let report = measure_power(&map(domino, &lib), &lib, pi, cfg);
        let stats = SimStats {
            vectors: cycles as u64,
            words,
            measured_words,
            shards: u64::from(cfg.shards),
        };
        assert_eq!(
            (
                report.cycles,
                report.switch_events,
                report.stats,
                report.cap_ma.to_bits()
            ),
            (cycles, events, stats, cap_bits),
            "{name}, config {config}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random networks, seeds, probabilities and assignments: packed and
    /// scalar must agree bit for bit on every kernel.
    #[test]
    fn packed_equals_scalar_on_random_networks(
        gen_seed in 0u64..1000,
        sim_seed in 0u64..1000,
        pis in 4usize..10,
        pos in 2usize..5,
        gates in 12usize..45,
        latches in 0usize..4,
        bits in 0u64..256,
        p10 in 1u64..10,
    ) {
        let spec = GeneratorSpec {
            n_latches: latches,
            ..GeneratorSpec::control_block(
                format!("pk{gen_seed}"), pis, pos, gates, gen_seed,
            )
        };
        let net = generate(&spec).expect("generator succeeds");
        let pi = vec![p10 as f64 / 10.0; pis];
        let cfg = small_cfg(sim_seed);
        let synth = DominoSynthesizer::new(&net).expect("valid");
        let n = synth.view_outputs().len();
        let pa = PhaseAssignment::from_bits(n, bits & ((1u64 << n.min(63)) - 1));
        let domino = synth.synthesize(&pa).expect("synthesis");
        let lib = Library::standard();
        let mapped = map(&domino, &lib);

        prop_assert_eq!(
            measure_power(&mapped, &lib, &pi, &cfg),
            reference::measure_power(&mapped, &lib, &pi, &cfg)
        );
        prop_assert_eq!(
            measure_domino_switching(&domino, &pi, &cfg),
            reference::measure_domino_switching(&domino, &pi, &cfg)
        );
        prop_assert_eq!(
            estimate_node_probabilities(&net, &pi, &cfg),
            reference::estimate_node_probabilities(&net, &pi, &cfg)
        );
        prop_assert_eq!(
            simulate_static(&net, &pi, &cfg),
            reference::simulate_static(&net, &pi, &cfg)
        );
    }
}
