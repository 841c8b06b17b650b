//! Golden equivalence tests: the dense-arena BDD engine, dense-refcount
//! accountant, sharded Gray-code walk *and* the bit-parallel simulation
//! engine must be bit-identical to the pinned fixtures on the public
//! suite.
//!
//! The fixtures live in `tests/fixtures/golden_kernel.txt` and are
//! regenerated with
//! `cargo run --release -p domino-bench --bin golden_dump -- --out
//! tests/fixtures/golden_kernel.txt`. They pin, per circuit: the
//! structural digest (cache-key ingredient), an FNV-1a hash over the exact
//! `f64` bit patterns of every node probability, the shared BDD node
//! count, the min-area / min-power search outcomes (assignment plus the
//! objective's raw bit pattern), the sifting outcome (`reorder` rows: the
//! post-reorder probability hash, node count, swap count and final
//! variable order), and — for the packed simulator — the
//! measured power total, switch-event count and domino switching averages
//! of the min-area assignment under the default `SimConfig`, and
//! (`outcome` rows) an FNV-1a hash of the serialized `run_job` outcome of
//! the circuit's compare job, untimed and timed as `table2` runs it, and
//! untimed with `reorder: sift`. For `perfbench`'s
//! `tables_cold` workload they also pin what the BLIF parser builds
//! (`blif` rows: a hash of each Table 1 row and the giant written back
//! out after one parse) and the untimed outcomes of the jobs the public
//! rows leave out (Industry 1–3 and the giant), resolved from inline BLIF
//! as the workload resolves them. Any
//! kernel, simulator or runner change that shifts a single bit fails
//! here; CI additionally
//! regenerates the fixture into a temp file and diffs it against the
//! checked-in copy, so a conscious change must update the fixture in the
//! same commit.
//!
//! The property tests at the bottom drive the open-addressed unique table
//! against a `std::collections::HashMap` reference model under random
//! workloads.

use std::collections::HashMap;

use dominolp::bdd::table::UniqueTable;
use dominolp::bdd::ReorderMode;
use dominolp::engine::{run_job, FlowJob, JobSpec};
use dominolp::netlist::{parse_blif, write_blif, Network};
use dominolp::phase::flow::FlowConfig;
use dominolp::phase::prob::{compute_probabilities, ProbabilityConfig};
use dominolp::phase::search::{min_area_assignment, min_power_assignment};
use dominolp::phase::{DominoSynthesizer, PhaseAssignment};
use dominolp::sim::{measure_domino_switching, measure_power, SimConfig};
use dominolp::techmap::{map, Library};
use dominolp::workloads::{generate_giant, public_suite, table_suite, GiantSpec};
use proptest::prelude::*;

const FIXTURES: &str = include_str!("fixtures/golden_kernel.txt");

/// One `key=value` fixture line, keyed by its leading tag (`kernel`,
/// `reorder`, `sim` or `outcome`).
#[derive(Debug)]
struct Row {
    fields: HashMap<String, String>,
}

impl Row {
    fn get(&self, key: &str) -> &str {
        self.fields
            .get(key)
            .unwrap_or_else(|| panic!("fixture row missing field '{key}'"))
    }

    fn hex(&self, key: &str) -> u64 {
        u64::from_str_radix(self.get(key), 16)
            .unwrap_or_else(|_| panic!("fixture field '{key}' is not hex"))
    }

    fn num(&self, key: &str) -> u64 {
        self.get(key)
            .parse()
            .unwrap_or_else(|_| panic!("fixture field '{key}' is not a number"))
    }
}

/// The fixture's rows by leading tag, each in file order.
#[derive(Default)]
struct Fixtures {
    kernel: Vec<Row>,
    reorder: Vec<Row>,
    sim: Vec<Row>,
    outcome: Vec<Row>,
    blif: Vec<Row>,
}

fn parse_fixtures() -> Fixtures {
    let mut fixtures = Fixtures::default();
    for line in FIXTURES.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let tag = parts.next().expect("fixture line has a tag");
        let fields: HashMap<String, String> = parts
            .map(|kv| {
                let (k, v) = kv.split_once('=').expect("fixture field is key=value");
                (k.to_string(), v.to_string())
            })
            .collect();
        let row = Row { fields };
        match tag {
            "kernel" => fixtures.kernel.push(row),
            "reorder" => fixtures.reorder.push(row),
            "sim" => fixtures.sim.push(row),
            "outcome" => fixtures.outcome.push(row),
            "blif" => fixtures.blif.push(row),
            other => panic!("unknown fixture tag '{other}'"),
        }
    }
    fixtures
}

/// Rows of `tables_cold` jobs outside the public suite (must match
/// `golden_dump`).
const TABLES_COLD_EXTRA: [&str; 4] = ["industry1", "industry2", "industry3", "giant"];

/// The giant sequential circuit of `tables_cold` (must match
/// `golden_dump`).
fn tables_cold_giant() -> Network {
    generate_giant(&GiantSpec::giant("giant", 192, 32, 14, 2, 71)).expect("giant generates")
}

/// `Industry 1` → `industry1`, as `tables_cold` names its rows.
fn row_name(name: &str) -> String {
    name.replace(' ', "").to_lowercase()
}

/// FNV-1a over a byte stream (must match `golden_dump`'s implementation).
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut state = 0xcbf2_9ce4_8422_2325u64;
    for byte in bytes {
        state ^= u64::from(byte);
        state = state.wrapping_mul(0x0000_0100_0000_01b3);
    }
    state
}

/// FNV-1a over the `f64` bit patterns — equal hash ⟺ byte-identical
/// probabilities.
fn prob_hash(probs: &[f64]) -> u64 {
    fnv1a(probs.iter().flat_map(|p| p.to_bits().to_le_bytes()))
}

#[test]
fn kernel_is_bit_identical_to_fixtures() {
    let suite = public_suite().expect("suite generates");
    let config = FlowConfig::default();
    let golden = parse_fixtures().kernel;
    assert_eq!(suite.len(), golden.len());
    for (bench, golden) in suite.iter().zip(&golden) {
        assert_eq!(bench.name, golden.get("name"));
        let net = &bench.network;
        assert_eq!(
            net.structural_digest(),
            golden.hex("digest"),
            "{}: structural digest (cache key ingredient) moved",
            bench.name
        );
        let pi = vec![0.5; net.inputs().len()];
        let probs = compute_probabilities(net, &pi, &config.probability).expect("probabilities");
        assert_eq!(
            prob_hash(probs.as_slice()),
            golden.hex("prob_hash"),
            "{}: node probabilities are no longer bit-identical",
            bench.name
        );
        assert_eq!(
            probs.bdd_node_count() as u64,
            golden.num("bdd_nodes"),
            "{}",
            bench.name
        );

        let synth = DominoSynthesizer::new(net).expect("synthesizer");
        let n = synth.view_outputs().len();
        let ma = min_area_assignment(&synth, &config.area).expect("min-area");
        assert_eq!(
            ma.assignment.to_string(),
            golden.get("ma_assignment"),
            "{} MA",
            bench.name
        );
        assert_eq!(
            ma.objective.to_bits(),
            golden.hex("ma_objective"),
            "{} MA objective",
            bench.name
        );
        assert_eq!(
            ma.evaluations as u64,
            golden.num("ma_evaluations"),
            "{} MA",
            bench.name
        );

        let mp = min_power_assignment(
            &synth,
            &probs,
            PhaseAssignment::all_positive(n),
            &config.power,
        )
        .expect("min-power");
        assert_eq!(
            mp.assignment.to_string(),
            golden.get("mp_assignment"),
            "{} MP",
            bench.name
        );
        assert_eq!(
            mp.objective.to_bits(),
            golden.hex("mp_objective"),
            "{} MP objective",
            bench.name
        );
        assert_eq!(
            mp.evaluations as u64,
            golden.num("mp_evaluations"),
            "{} MP",
            bench.name
        );
    }
}

#[test]
fn sifted_kernel_is_bit_identical_to_fixtures() {
    let suite = public_suite().expect("suite generates");
    let config = ProbabilityConfig {
        reorder: ReorderMode::Sift,
        ..FlowConfig::default().probability
    };
    let golden = parse_fixtures().reorder;
    assert_eq!(suite.len(), golden.len());
    for (bench, golden) in suite.iter().zip(&golden) {
        assert_eq!(bench.name, golden.get("name"));
        assert_eq!("sift", golden.get("mode"));
        let net = &bench.network;
        let pi = vec![0.5; net.inputs().len()];
        let probs = compute_probabilities(net, &pi, &config).expect("sifted probabilities");
        assert_eq!(
            prob_hash(probs.as_slice()),
            golden.hex("prob_hash"),
            "{}: sifted node probabilities are no longer bit-identical",
            bench.name
        );
        assert_eq!(
            probs.bdd_node_count() as u64,
            golden.num("bdd_nodes"),
            "{}: sifted node count moved",
            bench.name
        );
        let outcome = probs
            .reorder_outcome()
            .expect("sift mode records an outcome");
        assert_eq!(
            outcome.swaps,
            golden.num("swaps"),
            "{}: sifting took a different number of swaps",
            bench.name
        );
        let order = outcome
            .final_order
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(".");
        assert_eq!(
            order,
            golden.get("order"),
            "{}: sifting settled on a different variable order",
            bench.name
        );
    }
}

#[test]
fn packed_simulation_is_bit_identical_to_fixtures() {
    let suite = public_suite().expect("suite generates");
    let config = FlowConfig::default();
    let lib = Library::standard();
    let sim_cfg = SimConfig::default();
    let golden = parse_fixtures().sim;
    assert_eq!(suite.len(), golden.len());
    for (bench, golden) in suite.iter().zip(&golden) {
        assert_eq!(bench.name, golden.get("name"));
        let net = &bench.network;
        let pi = vec![0.5; net.inputs().len()];
        let synth = DominoSynthesizer::new(net).expect("synthesizer");
        let ma = min_area_assignment(&synth, &config.area).expect("min-area");
        let domino = synth.synthesize(&ma.assignment).expect("synthesis");
        let mapped = map(&domino, &lib);

        let power = measure_power(&mapped, &lib, &pi, &sim_cfg);
        assert_eq!(
            power.total_ma().to_bits(),
            golden.hex("power_total"),
            "{}: measured power total is no longer bit-identical",
            bench.name
        );
        assert_eq!(
            power.switch_events,
            golden.num("switch_events"),
            "{}: switch-event count moved",
            bench.name
        );
        assert_eq!(power.stats.vectors, golden.num("vectors"), "{}", bench.name);
        assert_eq!(power.stats.words, golden.num("words"), "{}", bench.name);

        let switching = measure_domino_switching(&domino, &pi, &sim_cfg);
        for (key, value) in [
            ("block", switching.block),
            ("input_inv", switching.input_inverters),
            ("output_inv", switching.output_inverters),
        ] {
            assert_eq!(
                value.to_bits(),
                golden.hex(key),
                "{}: switching '{key}' is no longer bit-identical",
                bench.name
            );
        }
    }
}

#[test]
fn job_outcomes_are_byte_identical_to_fixtures() {
    let suite = public_suite().expect("suite generates");
    let golden = parse_fixtures().outcome;
    let mut rows = golden
        .iter()
        .filter(|row| !TABLES_COLD_EXTRA.contains(&row.get("name")));
    for bench in &suite {
        for mode in ["untimed", "timed", "sift"] {
            // The compare job `table1` (untimed) or `table2` (85% of the
            // MA delay, P_i = 2.5) runs on this circuit, and the untimed
            // job with a final sifting pass.
            let mut spec = JobSpec::for_network(bench.name, &bench.network);
            match mode {
                "timed" => {
                    spec.timing_fraction = Some(0.85);
                    spec.mp_and_penalty = Some(2.5);
                }
                "sift" => spec.flow.probability.reorder = ReorderMode::Sift,
                _ => {}
            }
            let golden = rows.next().expect("an outcome row per job");
            assert_eq!(bench.name, golden.get("name"));
            assert_eq!(mode, golden.get("mode"));
            let outcome = run_job(&FlowJob::new(spec, bench.network.clone())).expect("job runs");
            assert_eq!(
                fnv1a(outcome.to_json().serialize().into_bytes()),
                golden.hex("hash"),
                "{} ({mode}): the serialized job outcome moved",
                bench.name,
            );
        }
    }
    assert!(rows.next().is_none(), "outcome rows without a job");
}

#[test]
fn tables_cold_outcomes_are_byte_identical_to_fixtures() {
    let mut jobs: Vec<(String, JobSpec)> = table_suite()
        .expect("suite generates")
        .iter()
        .filter(|b| b.description != "Public Domain")
        .map(|b| (row_name(b.name), JobSpec::for_network(b.name, &b.network)))
        .collect();
    let mut giant = JobSpec::for_network("giant", &tables_cold_giant());
    giant.sim.cycles = 1024;
    jobs.push(("giant".to_string(), giant));
    let golden = parse_fixtures().outcome;
    let golden: Vec<&Row> = golden
        .iter()
        .filter(|row| TABLES_COLD_EXTRA.contains(&row.get("name")))
        .collect();
    assert_eq!(jobs.len(), golden.len(), "an outcome row per job");
    for ((row, spec), golden) in jobs.into_iter().zip(golden) {
        assert_eq!(row, golden.get("name"));
        assert_eq!("untimed", golden.get("mode"));
        let outcome = run_job(&spec.resolve().expect("inline BLIF resolves")).expect("job runs");
        assert_eq!(
            fnv1a(outcome.to_json().serialize().into_bytes()),
            golden.hex("hash"),
            "{row}: the serialized job outcome moved",
        );
    }
}

#[test]
fn parsed_blif_is_byte_identical_to_fixtures() {
    let table = table_suite().expect("suite generates");
    let giant = tables_cold_giant();
    let circuits: Vec<(String, &Network)> = table
        .iter()
        .map(|b| (row_name(b.name), &b.network))
        .chain(std::iter::once(("giant".to_string(), &giant)))
        .collect();
    let golden = parse_fixtures().blif;
    assert_eq!(circuits.len(), golden.len(), "a blif row per circuit");
    for ((row, net), golden) in circuits.into_iter().zip(&golden) {
        assert_eq!(row, golden.get("name"));
        let parsed = parse_blif(&write_blif(net)).expect("written BLIF parses");
        assert_eq!(
            fnv1a(write_blif(&parsed).into_bytes()),
            golden.hex("hash"),
            "{row}: the parser builds a different network",
        );
    }
}

/// One random unique-table operation: a key triple (narrow ranges force
/// collisions and duplicate lookups).
fn key_strategy() -> impl Strategy<Value = (u32, u32, u32)> {
    (0u32..32, 0u32..64, 0u32..64)
}

proptest! {
    /// The open-addressed table must agree with a `HashMap` reference
    /// model under the manager's access pattern (lookup, insert on miss)
    /// for every random workload, including through growth.
    #[test]
    fn unique_table_agrees_with_hashmap_model(keys in proptest::collection::vec(key_strategy(), 1..400)) {
        let mut table = UniqueTable::new();
        let mut reference: HashMap<(u32, u32, u32), u32> = HashMap::new();
        let mut next = 2u32; // node handles start at 2
        for (level, lo, hi) in keys {
            let expect = reference.get(&(level, lo, hi)).copied();
            prop_assert_eq!(table.get(level, lo, hi), expect);
            if expect.is_none() {
                table.insert(level, lo, hi, next);
                reference.insert((level, lo, hi), next);
                next += 1;
            }
        }
        prop_assert_eq!(table.len(), reference.len());
        // Every interned key is still retrievable after all growth.
        for (&(level, lo, hi), &value) in &reference {
            prop_assert_eq!(table.get(level, lo, hi), Some(value));
        }
        // Exactly one counted miss per interned key (its first lookup);
        // everything else — including the retrieval loop above — hit.
        let (hits, misses) = table.counters();
        prop_assert_eq!(misses as usize, reference.len());
        prop_assert!(hits as usize >= reference.len());
    }
}
