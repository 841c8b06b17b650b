//! Criterion bench: the bit-parallel simulation engine against its scalar
//! reference on the same logical vector stream — the packed/scalar ratio
//! is the engine's speedup, machine-independent of the flow around it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use domino_phase::{DominoSynthesizer, PhaseAssignment};
use domino_sim::montecarlo::estimate_node_probabilities;
use domino_sim::{measure_domino_switching, measure_power, reference, SimConfig};
use domino_techmap::{map, Library};
use domino_workloads::public_suite;

fn bench_sim_packed(c: &mut Criterion) {
    let suite = public_suite().expect("suite generates");
    let lib = Library::standard();
    // 1024 cycles keeps the scalar side affordable; the packed/scalar
    // ratio is cycle-count independent.
    let cfg = SimConfig {
        cycles: 1024,
        warmup: 16,
        ..SimConfig::default()
    };

    let mut group = c.benchmark_group("sim_packed");
    group.sample_size(20);
    for bench in suite
        .iter()
        .filter(|b| ["frg1", "apex7", "x3"].contains(&b.name))
    {
        let net = &bench.network;
        let pi = vec![0.5; net.inputs().len()];
        let synth = DominoSynthesizer::new(net).expect("synthesizer");
        let n = synth.view_outputs().len();
        let domino = synth
            .synthesize(&PhaseAssignment::all_positive(n))
            .expect("synthesis");
        let mapped = map(&domino, &lib);

        group.bench_function(BenchmarkId::new("power_packed", bench.name), |b| {
            b.iter(|| measure_power(&mapped, &lib, &pi, &cfg))
        });
        // Shard counts below the lockstep block width of 8: one stream,
        // and a remainder that splits into blocks of 2 and 1.
        for shards in [1u32, 3] {
            let cfg = SimConfig { shards, ..cfg };
            group.bench_function(
                BenchmarkId::new(format!("power_packed_{shards}shard"), bench.name),
                |b| b.iter(|| measure_power(&mapped, &lib, &pi, &cfg)),
            );
        }
        group.bench_function(BenchmarkId::new("power_scalar", bench.name), |b| {
            b.iter(|| reference::measure_power(&mapped, &lib, &pi, &cfg))
        });
        group.bench_function(BenchmarkId::new("switching_packed", bench.name), |b| {
            b.iter(|| measure_domino_switching(&domino, &pi, &cfg))
        });
        group.bench_function(BenchmarkId::new("switching_scalar", bench.name), |b| {
            b.iter(|| reference::measure_domino_switching(&domino, &pi, &cfg))
        });
        group.bench_function(BenchmarkId::new("montecarlo_packed", bench.name), |b| {
            b.iter(|| estimate_node_probabilities(net, &pi, &cfg))
        });
        group.bench_function(BenchmarkId::new("montecarlo_scalar", bench.name), |b| {
            b.iter(|| reference::estimate_node_probabilities(net, &pi, &cfg))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sim_packed);
criterion_main!(benches);
