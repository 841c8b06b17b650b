//! Regenerates the kernel-equivalence fixtures pinned by
//! `tests/golden_kernel.rs` (checked in at
//! `tests/fixtures/golden_kernel.txt`).
//!
//! For every public-domain suite circuit this emits, as stable
//! `key=value` text: the network's structural digest, an FNV-1a hash over
//! the exact bit patterns of every node probability, the shared BDD node
//! count, the minimum-area / minimum-power search outcomes (assignment
//! string plus the objective's `f64` bit pattern) — and, since the
//! bit-parallel simulation engine landed, the packed power measurement
//! (total current bits + switch events) and domino switching counts of the
//! min-area assignment under the default `SimConfig` — and a hash of the
//! whole serialized `run_job` outcome of each circuit's compare job,
//! untimed and timed the way `table2` runs it, plus the untimed job with
//! `reorder: sift`. Then, for `perfbench`'s
//! `tables_cold` workload: a hash of the BLIF text re-written after one
//! parse of each Table 1 row and of its giant circuit (`blif` rows), and
//! the untimed outcome of the jobs that the public rows leave out
//! (Industry 1–3 and the giant at 1024 cycles), each resolved from
//! inline BLIF as the workload resolves it. The golden test compares
//! the live kernel against these values bit for bit, so any refactor of
//! the BDD manager, accountant, search, vector stream, packed simulator
//! or engine runner must leave them untouched (or consciously
//! regenerate).
//!
//! ```text
//! cargo run --release -p domino-bench --bin golden_dump -- [--out <path>]
//! ```
//!
//! Without `--out` the fixture text goes to stdout. CI regenerates into a
//! temp file and diffs against the checked-in fixture, failing when a code
//! change silently shifts pinned outputs without a fixture update.

use std::fmt::Write as _;

use domino_bdd::ReorderMode;
use domino_engine::{run_job, FlowJob, JobSpec};
use domino_netlist::{parse_blif, write_blif, Network};
use domino_phase::flow::FlowConfig;
use domino_phase::prob::{compute_probabilities, ProbabilityConfig};
use domino_phase::search::{min_area_assignment, min_power_assignment};
use domino_phase::{DominoSynthesizer, PhaseAssignment};
use domino_sim::{measure_domino_switching, measure_power, SimConfig};
use domino_techmap::{map, Library};
use domino_workloads::{generate_giant, public_suite, table_suite, GiantSpec};

/// The giant sequential circuit of `perfbench`'s `tables_cold` workload.
fn tables_cold_giant() -> Network {
    generate_giant(&GiantSpec::giant("giant", 192, 32, 14, 2, 71)).expect("giant generates")
}

/// A suite row's name without spaces, lowercased (`Industry 1` →
/// `industry1`), as `tables_cold` names its metric rows.
fn row_name(name: &str) -> String {
    name.replace(' ', "").to_lowercase()
}

/// FNV-1a over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut state = 0xcbf2_9ce4_8422_2325u64;
    for byte in bytes {
        state ^= u64::from(byte);
        state = state.wrapping_mul(0x0000_0100_0000_01b3);
    }
    state
}

/// FNV-1a over the `f64` bit patterns of a probability vector: equal hash
/// ⟺ byte-identical probabilities (no tolerance).
fn prob_hash(probs: &[f64]) -> u64 {
    fnv1a(probs.iter().flat_map(|p| p.to_bits().to_le_bytes()))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let suite = public_suite().expect("suite generates");
    let config = FlowConfig::default();
    let lib = Library::standard();
    let sim_cfg = SimConfig::default();
    let mut text = String::new();
    writeln!(
        text,
        "# golden kernel fixtures — regenerate with:\n\
         #   cargo run --release -p domino-bench --bin golden_dump -- --out tests/fixtures/golden_kernel.txt"
    )
    .unwrap();
    for bench in &suite {
        let net = &bench.network;
        let pi = vec![0.5; net.inputs().len()];
        let probs = compute_probabilities(net, &pi, &config.probability).expect("probabilities");
        let synth = DominoSynthesizer::new(net).expect("synthesizer");
        let n = synth.view_outputs().len();
        let ma = min_area_assignment(&synth, &config.area).expect("min-area");
        let mp = min_power_assignment(
            &synth,
            &probs,
            PhaseAssignment::all_positive(n),
            &config.power,
        )
        .expect("min-power");
        writeln!(
            text,
            "kernel name={} digest={:016x} prob_hash={:016x} bdd_nodes={} \
             ma_assignment={} ma_objective={:016x} ma_evaluations={} \
             mp_assignment={} mp_objective={:016x} mp_evaluations={}",
            bench.name,
            net.structural_digest(),
            prob_hash(probs.as_slice()),
            probs.bdd_node_count(),
            ma.assignment,
            ma.objective.to_bits(),
            ma.evaluations,
            mp.assignment,
            mp.objective.to_bits(),
            mp.evaluations,
        )
        .unwrap();

        // Reorder pins: the same probability computation with sifting
        // enabled must stay bit-identical too — node probabilities, the
        // shared node count after reordering, the exact swap count and
        // the final variable order are all deterministic.
        let sifted = compute_probabilities(
            net,
            &pi,
            &ProbabilityConfig {
                reorder: ReorderMode::Sift,
                ..config.probability.clone()
            },
        )
        .expect("sifted probabilities");
        let outcome = sifted
            .reorder_outcome()
            .expect("sift mode records an outcome");
        let order = outcome
            .final_order
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(".");
        writeln!(
            text,
            "reorder name={} mode=sift prob_hash={:016x} bdd_nodes={} swaps={} order={}",
            bench.name,
            prob_hash(sifted.as_slice()),
            sifted.bdd_node_count(),
            outcome.swaps,
            order,
        )
        .unwrap();

        // Packed-simulation pins: power and switching of the MA assignment
        // under the default simulation config.
        let domino = synth.synthesize(&ma.assignment).expect("synthesis");
        let mapped = map(&domino, &lib);
        let power = measure_power(&mapped, &lib, &pi, &sim_cfg);
        let switching = measure_domino_switching(&domino, &pi, &sim_cfg);
        writeln!(
            text,
            "sim name={} power_total={:016x} switch_events={} vectors={} words={} \
             block={:016x} input_inv={:016x} output_inv={:016x}",
            bench.name,
            power.total_ma().to_bits(),
            power.switch_events,
            power.stats.vectors,
            power.stats.words,
            switching.block.to_bits(),
            switching.input_inverters.to_bits(),
            switching.output_inverters.to_bits(),
        )
        .unwrap();

        // Whole-outcome pins: the compare job `table1` (untimed) and
        // `table2` (85% of the MA delay, P_i = 2.5) run on this circuit,
        // and the untimed job with `reorder: sift` (which pins the
        // unique-table counters and the reorder summary too), hashed over
        // `run_job`'s serialized outcome.
        for mode in ["untimed", "timed", "sift"] {
            let mut spec = JobSpec::for_network(bench.name, net);
            match mode {
                "timed" => {
                    spec.timing_fraction = Some(0.85);
                    spec.mp_and_penalty = Some(2.5);
                }
                "sift" => spec.flow.probability.reorder = ReorderMode::Sift,
                _ => {}
            }
            let outcome = run_job(&FlowJob::new(spec, net.clone())).expect("job runs");
            writeln!(
                text,
                "outcome name={} mode={mode} hash={:016x}",
                bench.name,
                fnv1a(outcome.to_json().serialize().into_bytes()),
            )
            .unwrap();
        }
    }

    // Ingestion pins: what the parser builds from each `tables_cold`
    // circuit, written back out as BLIF after one round trip.
    let table = table_suite().expect("suite generates");
    let giant = tables_cold_giant();
    let circuits = table
        .iter()
        .map(|b| (row_name(b.name), &b.network))
        .chain(std::iter::once(("giant".to_string(), &giant)));
    for (row, net) in circuits {
        let parsed = parse_blif(&write_blif(net)).expect("written BLIF parses");
        writeln!(
            text,
            "blif name={row} hash={:016x}",
            fnv1a(write_blif(&parsed).into_bytes()),
        )
        .unwrap();
    }

    // The rest of `tables_cold`: the untimed compare jobs of the rows the
    // public suite leaves out, and the giant at 1024 cycles, each
    // resolved from inline BLIF.
    let mut extra: Vec<(String, JobSpec)> = table
        .iter()
        .filter(|b| b.description != "Public Domain")
        .map(|b| (row_name(b.name), JobSpec::for_network(b.name, &b.network)))
        .collect();
    let mut spec = JobSpec::for_network("giant", &giant);
    spec.sim.cycles = 1024;
    extra.push(("giant".to_string(), spec));
    for (row, spec) in extra {
        let outcome = run_job(&spec.resolve().expect("inline BLIF resolves")).expect("job runs");
        writeln!(
            text,
            "outcome name={row} mode=untimed hash={:016x}",
            fnv1a(outcome.to_json().serialize().into_bytes()),
        )
        .unwrap();
    }

    match out {
        Some(path) => {
            std::fs::write(&path, &text).expect("write fixture");
            eprintln!("wrote {path}");
        }
        None => print!("{text}"),
    }
}
