//! Criterion bench for §4.1: the min-power greedy search and the min-area
//! baseline, per candidate-evaluation machinery (ConeAccountant), plus the
//! exhaustive Gray-code walk over the power objective.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use domino_phase::power::PowerModel;
use domino_phase::prob::{compute_probabilities, ProbabilityConfig};
use domino_phase::search::{
    min_area_assignment, min_power_assignment, search_objective, MinAreaConfig, MinPowerConfig,
    Objective,
};
use domino_phase::{DominoSynthesizer, PhaseAssignment};
use domino_workloads::{generate, table_suite, GeneratorSpec};

fn bench_search(c: &mut Criterion) {
    let suite = table_suite().expect("suite generates");
    let mut group = c.benchmark_group("phase_search");
    group.sample_size(10);
    for bench in suite.iter().filter(|b| ["apex7", "frg1"].contains(&b.name)) {
        let net = &bench.network;
        let pi = vec![0.5; net.inputs().len()];
        let probs = compute_probabilities(net, &pi, &ProbabilityConfig::default()).unwrap();
        let synth = DominoSynthesizer::new(net).unwrap();
        let n = synth.view_outputs().len();
        group.bench_function(BenchmarkId::new("min_power", bench.name), |b| {
            b.iter(|| {
                min_power_assignment(
                    &synth,
                    &probs,
                    PhaseAssignment::all_positive(n),
                    &MinPowerConfig::default(),
                )
                .unwrap()
            })
        });
        group.bench_function(BenchmarkId::new("min_area", bench.name), |b| {
            b.iter(|| min_area_assignment(&synth, &MinAreaConfig::default()).unwrap())
        });
    }

    // Exhaustive power walk over 2^14 assignments on a generated 14-output
    // control block (the suite circuits have either trivial or intractably
    // wide output counts for a full walk).
    let net = generate(&GeneratorSpec::control_block("walk14", 10, 14, 80, 5)).unwrap();
    let pi = vec![0.5; net.inputs().len()];
    let probs = compute_probabilities(&net, &pi, &ProbabilityConfig::default()).unwrap();
    let synth = DominoSynthesizer::new(&net).unwrap();
    let walk = MinAreaConfig {
        exhaustive_limit: synth.view_outputs().len(),
        max_passes: 0,
    };
    group.bench_function(BenchmarkId::new("power_walk", "walk14"), |b| {
        b.iter(|| {
            let power = Objective::Power {
                probs: probs.as_slice(),
                model: PowerModel::unit(),
            };
            search_objective(&synth, power, &walk).unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_search);
criterion_main!(benches);
