//! Scalar reference implementations of the packed simulation kernels.
//!
//! Each function here consumes the **same logical vector stream** as its
//! packed counterpart — it draws the identical `u64` words from
//! [`PackedVectorSource`] (walking the same per-shard sub-seeded streams
//! for the sharded kernels) and then simulates the 64 lanes one at a time
//! with plain `bool` evaluation, accumulating the same integer event
//! counters and running the same final integer→`f64` conversion. Because
//! the counters are order-independent integers, the packed kernels must
//! reproduce these results **bit for bit**; `tests/sim_packed_equivalence.rs`
//! pins that contract on the public suite and under proptest-generated
//! random networks.
//!
//! These functions exist to validate (and benchmark against) the packed
//! engine — they are one-bool-at-a-time and roughly 64× slower; production
//! paths should call the packed kernels in the crate root.
//!
//! Adaptive cycle control is a packed-engine feature: every function here
//! requires `config.adaptive_tol_ppm == 0`.

use std::collections::BTreeSet;

use domino_netlist::{Network, NodeKind, SequentialState};
use domino_phase::{DominoNetwork, DominoRef};
use domino_techmap::{CellClass, Library, MappedNetlist};

use crate::packed::{ShardPlan, SimStats, WordSchedule, LANES};
use crate::power::{
    dff_source_loads, finalize_power, PowerCounters, SimConfig, SwitchingEventCounters,
};
use crate::static_sim::StaticSimReport;
use crate::vectors::PackedVectorSource;
use crate::{PowerReport, SwitchingCounts};

/// Draws every word-step of the packed stream up front so lanes can be
/// replayed independently.
fn collect_words(pi_probs: &[f64], seed: u64, steps: usize) -> Vec<Vec<u64>> {
    let mut src = PackedVectorSource::new(pi_probs, seed);
    (0..steps)
        .map(|_| {
            let mut w = vec![0u64; pi_probs.len()];
            src.next_words(&mut w);
            w
        })
        .collect()
}

fn lane_bit(word: u64, lane: usize) -> bool {
    (word >> lane) & 1 == 1
}

fn assert_fixed_length(config: &SimConfig) {
    assert_eq!(
        config.adaptive_tol_ppm, 0,
        "the scalar reference does not implement adaptive cycle control"
    );
}

/// Scalar reference for [`measure_power`](crate::measure_power): identical
/// stream, identical counters, identical report — one lane at a time.
///
/// # Panics
///
/// Panics on a PI-count mismatch or a non-zero `adaptive_tol_ppm`.
pub fn measure_power(
    mapped: &MappedNetlist,
    lib: &Library,
    pi_probs: &[f64],
    config: &SimConfig,
) -> PowerReport {
    assert_eq!(
        pi_probs.len(),
        mapped.pi_count(),
        "one probability per primary input"
    );
    assert_fixed_length(config);
    let loads = mapped.load_caps_ff(lib);
    let source_loads = dff_source_loads(mapped, lib);
    let plan = ShardPlan::new(config);

    let mut counters = PowerCounters {
        measured_cycles: config.cycles as u64,
        ..PowerCounters::new(mapped)
    };
    let mut stats = SimStats {
        vectors: config.cycles as u64,
        shards: plan.len() as u64,
        ..SimStats::default()
    };
    // Same shard decomposition as the packed kernel, each shard's stream
    // replayed lane by lane.
    for slice in plan.iter() {
        let schedule = WordSchedule::new(slice.warmup, slice.cycles);
        let total_steps = schedule.total_steps();
        let step_words = collect_words(pi_probs, slice.seed, total_steps);
        stats.words += total_steps as u64;
        stats.measured_words += schedule.measured_words() as u64;
        for lane in 0..LANES {
            let mut sources = vec![false; mapped.source_count()];
            for dff in mapped.dffs() {
                sources[dff.source_index] = dff.init;
            }
            let mut prev_cells = vec![false; mapped.cells().len()];
            for (step, words) in step_words.iter().enumerate() {
                let measuring = lane_bit(schedule.step_mask(step), lane);
                for (slot, &w) in sources.iter_mut().zip(words) {
                    *slot = lane_bit(w, lane);
                }
                let values = mapped.eval_cells(&sources);
                if measuring {
                    for (i, cell) in mapped.cells().iter().enumerate() {
                        let event = match cell.class {
                            CellClass::DominoAnd | CellClass::DominoOr | CellClass::DominoBuf => {
                                values[i]
                            }
                            CellClass::InputInv => values[i] != prev_cells[i],
                            CellClass::OutputInv => !values[i],
                            CellClass::Dff => unreachable!("flops are not in cells"),
                        };
                        counters.cell_events[i] += u64::from(event);
                    }
                }
                prev_cells.copy_from_slice(&values);
                // Clock the flops simultaneously (mirrors the packed
                // kernel): sample every data input before any flop output
                // moves.
                let next_states: Vec<bool> = mapped
                    .dffs()
                    .iter()
                    .map(|dff| mapped.ref_value(dff.data, &sources, &values))
                    .collect();
                for (j, dff) in mapped.dffs().iter().enumerate() {
                    if measuring && next_states[j] != sources[dff.source_index] {
                        counters.dff_events[j] += 1;
                    }
                    sources[dff.source_index] = next_states[j];
                }
            }
        }
    }

    finalize_power(mapped, lib, &loads, &source_loads, &counters, stats)
}

/// Positions (in source order) of the block's input-boundary inverters.
fn inverter_positions(domino: &DominoNetwork) -> Vec<usize> {
    domino
        .input_inverters()
        .iter()
        .map(|&inv| {
            domino
                .sources()
                .iter()
                .position(|&s| s == inv)
                .expect("inverter on known source")
        })
        .collect()
}

/// Scalar reference for
/// [`measure_domino_switching`](crate::measure_domino_switching).
///
/// # Panics
///
/// Panics on a PI-count mismatch or a non-zero `adaptive_tol_ppm`.
pub fn measure_domino_switching(
    domino: &DominoNetwork,
    pi_probs: &[f64],
    config: &SimConfig,
) -> SwitchingCounts {
    let n_latches = domino.latch_inits().len();
    let n_pis = domino.sources().len() - n_latches;
    assert_eq!(pi_probs.len(), n_pis, "one probability per primary input");
    assert_fixed_length(config);
    let inverter_positions = inverter_positions(domino);

    let mut counters = SwitchingEventCounters::default();
    // Same shard decomposition as the packed kernel, each shard's stream
    // replayed lane by lane.
    for slice in ShardPlan::new(config).iter() {
        let schedule = WordSchedule::new(slice.warmup, slice.cycles);
        let total_steps = schedule.total_steps();
        let step_words = collect_words(pi_probs, slice.seed, total_steps);
        for lane in 0..LANES {
            let mut sources = vec![false; domino.sources().len()];
            for (i, &init) in domino.latch_inits().iter().enumerate() {
                sources[n_pis + i] = init;
            }
            let mut prev_sources = sources.clone();
            for (step, words) in step_words.iter().enumerate() {
                let measuring = lane_bit(schedule.step_mask(step), lane);
                for (slot, &w) in sources.iter_mut().zip(words) {
                    *slot = lane_bit(w, lane);
                }
                let rails = domino
                    .eval_rails(&sources)
                    .expect("source width matches by construction");
                if measuring {
                    for &v in &rails {
                        counters.block += u64::from(v);
                    }
                    for &pos in &inverter_positions {
                        counters.input_inverters += u64::from(sources[pos] != prev_sources[pos]);
                    }
                }
                prev_sources.copy_from_slice(&sources);

                // Resolve every output against this cycle's rails first,
                // then clock the latches simultaneously (mirrors the packed
                // kernel).
                let block_values: Vec<bool> = domino
                    .outputs()
                    .iter()
                    .map(|out| match out.driver {
                        DominoRef::Gate(i) => rails[i],
                        DominoRef::Source { node, complemented } => {
                            let pos = domino
                                .sources()
                                .iter()
                                .position(|&s| s == node)
                                .expect("known source");
                            sources[pos] ^ complemented
                        }
                        DominoRef::Constant(v) => v,
                    })
                    .collect();
                let mut latch_idx = 0usize;
                for (out, &block_value) in domino.outputs().iter().zip(&block_values) {
                    if measuring && out.phase.is_negative() && block_value {
                        counters.output_inverters += 1;
                    }
                    if out.is_latch_data {
                        let logical = if out.phase.is_negative() {
                            !block_value
                        } else {
                            block_value
                        };
                        sources[n_pis + latch_idx] = logical;
                        latch_idx += 1;
                    }
                }
            }
        }
    }
    counters.per_cycle(config.cycles)
}

/// Scalar reference for
/// [`estimate_node_probabilities`](crate::montecarlo::estimate_node_probabilities).
///
/// # Panics
///
/// Panics on a PI-count mismatch or a non-zero `adaptive_tol_ppm`.
pub fn estimate_node_probabilities(
    net: &Network,
    pi_probs: &[f64],
    config: &SimConfig,
) -> Vec<f64> {
    assert_eq!(
        pi_probs.len(),
        net.inputs().len(),
        "one probability per primary input"
    );
    assert_fixed_length(config);
    let schedule = WordSchedule::new(config.warmup, config.cycles);
    let total_steps = schedule.total_steps();
    let step_words = collect_words(pi_probs, config.seed, total_steps);

    let mut tallies = vec![0u64; net.len()];
    let mut inputs = vec![false; net.inputs().len()];
    for lane in 0..LANES {
        let mut state = SequentialState::new(net);
        for (step, words) in step_words.iter().enumerate() {
            let measuring = lane_bit(schedule.step_mask(step), lane);
            for (slot, &w) in inputs.iter_mut().zip(words) {
                *slot = lane_bit(w, lane);
            }
            let (_, values) = state
                .step_with_values(net, &inputs)
                .expect("validated network evaluates");
            if measuring {
                for (t, &v) in tallies.iter_mut().zip(&values) {
                    *t += u64::from(v);
                }
            }
        }
    }
    tallies
        .into_iter()
        .map(|t| t as f64 / config.cycles as f64)
        .collect()
}

/// Scalar reference for [`simulate_static`](crate::simulate_static): the
/// original event-driven unit-delay wavefront, replayed lane by lane.
///
/// # Panics
///
/// Panics on a PI-count mismatch or a non-zero `adaptive_tol_ppm`.
pub fn simulate_static(net: &Network, pi_probs: &[f64], config: &SimConfig) -> StaticSimReport {
    assert_eq!(
        pi_probs.len(),
        net.inputs().len(),
        "one probability per primary input"
    );
    assert_fixed_length(config);
    let fanouts = net.fanouts();
    let schedule = WordSchedule::new(config.warmup, config.cycles);
    let total_steps = schedule.total_steps();
    let step_words = collect_words(pi_probs, config.seed, total_steps);

    let mut transitions = 0u64;
    let mut glitches = 0u64;
    for lane in 0..LANES {
        let mut seq = SequentialState::new(net);
        let mut values = net
            .eval_nodes(&vec![false; net.inputs().len()], seq.states())
            .expect("validated network evaluates");
        for (step, words) in step_words.iter().enumerate() {
            let measuring = lane_bit(schedule.step_mask(step), lane);
            let before = values.clone();

            let mut dirty: BTreeSet<usize> = BTreeSet::new();
            for (&id, &w) in net.inputs().iter().zip(words) {
                let v = lane_bit(w, lane);
                if values[id.index()] != v {
                    values[id.index()] = v;
                    if measuring {
                        transitions += 1;
                    }
                    dirty.extend(fanouts[id.index()].iter().map(|f| f.index()));
                }
            }
            for (&id, &v) in net.latches().iter().zip(seq.states()) {
                if values[id.index()] != v {
                    values[id.index()] = v;
                    if measuring {
                        transitions += 1;
                    }
                    dirty.extend(fanouts[id.index()].iter().map(|f| f.index()));
                }
            }

            let mut toggle_counts = vec![0u32; net.len()];
            let mut guard = 0usize;
            while !dirty.is_empty() && guard <= 4 * net.len() {
                guard += 1;
                let mut updates: Vec<(usize, bool)> = Vec::new();
                for &i in &dirty {
                    let node = net.node(domino_netlist::NodeId::from_index(i));
                    let v = match node.kind {
                        NodeKind::And => node.fanins.iter().all(|f| values[f.index()]),
                        NodeKind::Or => node.fanins.iter().any(|f| values[f.index()]),
                        NodeKind::Not => !values[node.fanins[0].index()],
                        _ => continue,
                    };
                    if v != values[i] {
                        updates.push((i, v));
                    }
                }
                let mut next: BTreeSet<usize> = BTreeSet::new();
                for (i, v) in updates {
                    values[i] = v;
                    toggle_counts[i] += 1;
                    if measuring {
                        transitions += 1;
                    }
                    next.extend(fanouts[i].iter().map(|f| f.index()));
                }
                dirty = next;
            }

            if measuring {
                for (i, &t) in toggle_counts.iter().enumerate() {
                    if t == 0 {
                        continue;
                    }
                    let settled_changed = values[i] != before[i];
                    glitches += u64::from(t - u32::from(settled_changed));
                }
            }

            let next_states: Vec<bool> = net
                .latches()
                .iter()
                .map(|&l| values[net.node(l).fanins[0].index()])
                .collect();
            seq.set_states(&next_states).expect("state width");
        }
    }

    StaticSimReport {
        transitions,
        glitch_transitions: glitches,
        cycles: config.cycles,
    }
}
