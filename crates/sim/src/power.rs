//! Cycle-accurate power measurement of mapped domino netlists, and
//! switching-event counting on unmapped domino blocks — on the bit-parallel
//! simulation engine (64 Monte-Carlo lanes per `u64` word, every gate one
//! word-wide boolean operation).
//!
//! Energy accounting per cycle (all capacitances in fF, from the library):
//!
//! * every **domino** cell pays its clock/precharge capacitance
//!   unconditionally (the clock-loading term that makes domino expensive),
//!   and switches its full output load when it evaluates high
//!   (Property 2.1);
//! * an **input inverter** switches its load when its (stable) input
//!   differs from the previous cycle;
//! * an **output inverter** pulses with its domino driver: it switches when
//!   the driver evaluates high;
//! * a **flip-flop** pays clock capacitance every cycle and switches its
//!   output load when its state changes.
//!
//! [`measure_power`] compiles the mapped netlist once per call: every rail
//! becomes an index into one word array laid out
//! `[sources | cells | 0 | !0]`, cell fanins become CSR ranges of those
//! indices, and cells are grouped by event rule. A simulation step then
//! evaluates and counts with indexed loads and writes each cell word in
//! place; the only words it keeps from the previous step are those of the
//! input inverters, whose events are toggles.
//!
//! Switching events are accumulated per cell as *integer popcounts* of the
//! packed value words and converted to `f64` exactly once at the end, so
//! totals are independent of accumulation order — the property that lets
//! the shards' counters merge by addition and the scalar lane-by-lane
//! [`reference`](crate::reference) implementations reproduce them bit for
//! bit. The shards run one after another on the calling thread.
//!
//! Average capacitive current: `I_cap = C_avg · V_dd · f` (reported in mA);
//! short-circuit current is modelled as 10% of capacitive (the classic
//! rule of thumb) and leakage as a per-cell constant — giving the same
//! three-component current breakdown the paper reports from PowerMill.

use domino_phase::{DominoNetwork, PackedRailEvaluator};
use domino_techmap::{CellClass, Library, MappedNetlist, MappedRef};

use crate::packed::{broadcast, shard_plan, ShardSlice, SimStats, WordSchedule};
use crate::vectors::PackedVectorSource;

/// First adaptive checkpoint, in measured words per shard (128 vectors).
/// Checkpoints then *double*: a shard checks at words 2, 4, 8, 16, … — so
/// early stop stays reachable for small budgets at any shard count (a
/// fixed 16-word interval would have needed `shards × 1024` vectors before
/// the first comparison), while a long non-converging run pays only
/// `O(log words)` `finalize_power` estimate passes instead of one every
/// fixed interval. Each comparison spans half the shard's data — a
/// stronger convergence signal than equal-width windows.
const ADAPTIVE_FIRST_CHECK_WORDS: usize = 2;

/// Simulation length, seeding, and shard decomposition.
///
/// # Determinism contract
///
/// Measurement results are a pure function of `(cycles, warmup, seed,
/// adaptive_tol_ppm, shards)`. Sharded kernels run their shards in order
/// on the calling thread, accumulate integer event counters per shard and
/// merge them by addition.
///
/// # Example
///
/// ```
/// use domino_sim::SimConfig;
///
/// let cfg = SimConfig { cycles: 1 << 16, ..SimConfig::default() };
/// // The shard count is part of the stream definition, like the seed.
/// let one_stream = SimConfig { shards: 1, ..cfg };
/// assert_eq!(cfg.cycles, one_stream.cycles);
/// assert_ne!(cfg, one_stream);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Measured vectors, summed over all shards. The packed engine
    /// simulates 64 lanes per word, so each shard evaluates
    /// `its cycles / 64` full words plus one partially-masked word for the
    /// remainder.
    pub cycles: usize,
    /// Warmup word-steps discarded from statistics (sequential state
    /// settling), split across the shards: each shard settles its own 64
    /// independent Monte-Carlo lane-chains for `warmup / shards` steps —
    /// at least one step whenever `warmup > 0`, so no shard measures from
    /// completely cold state. A total budget, not a per-chain depth:
    /// sequential designs whose pipelines need more than `warmup / shards`
    /// cycles to settle should scale `warmup` with the shard count. The
    /// single-stream kernels ([`montecarlo`](crate::montecarlo),
    /// [`simulate_static`](crate::simulate_static)) run all `warmup` steps
    /// on their one stream.
    pub warmup: usize,
    /// RNG seed. Shard 0 draws from `seed` itself; shard `k > 0` draws
    /// from a SplitMix64-mixed sub-seed of `(seed, k)`.
    pub seed: u64,
    /// Adaptive cycle control for [`measure_power`], in parts per million
    /// (`0` = fixed length, the default). When non-zero, each shard
    /// compares its running energy-per-cycle estimate at *doubling*
    /// checkpoints (its measured words 2, 4, 8, …) and stops early — at a
    /// word boundary, never exceeding its cycle share — once the relative
    /// change between consecutive checkpoints drops below `tol · 1e-6`.
    /// Deterministic for a given seed and shard count; the realized length
    /// is reported in [`PowerReport::cycles`] and [`PowerReport::stats`].
    pub adaptive_tol_ppm: u32,
    /// Logical shards the measurement is decomposed into (clamped to at
    /// least 1; shards that would measure zero cycles are dropped). Part
    /// of the stream definition — changing it changes the sampled vectors,
    /// bit for bit, like changing the seed would.
    pub shards: u32,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            cycles: 4096,
            warmup: 16,
            seed: 0x00D0_1110,
            adaptive_tol_ppm: 0,
            shards: 8,
        }
    }
}

/// Measured currents, PowerMill-style.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerReport {
    /// Average capacitive current, mA.
    pub cap_ma: f64,
    /// Short-circuit current, mA.
    pub short_circuit_ma: f64,
    /// Leakage current, mA.
    pub leakage_ma: f64,
    /// Measured cycles (may be less than requested under adaptive mode).
    pub cycles: usize,
    /// Total switching events observed.
    pub switch_events: u64,
    /// Packed-engine work accounting (vectors, words, lane utilization).
    pub stats: SimStats,
}

impl PowerReport {
    /// Total current (capacitive + short-circuit + leakage), mA — the
    /// "Pwr" column of Tables 1 and 2.
    pub fn total_ma(&self) -> f64 {
        self.cap_ma + self.short_circuit_ma + self.leakage_ma
    }
}

/// Load seen by each flop output rail (consumer pins), fF.
pub(crate) fn dff_source_loads(mapped: &MappedNetlist, lib: &Library) -> Vec<f64> {
    let mut source_loads = vec![0.0f64; mapped.source_count()];
    for cell in mapped.cells() {
        for &f in &cell.fanins {
            if let MappedRef::Source(i) = f {
                source_loads[i] += lib.input_cap_ff * cell.size;
            }
        }
    }
    for dff in mapped.dffs() {
        if let MappedRef::Source(i) = dff.data {
            source_loads[i] += lib.input_cap_ff * dff.size;
        }
    }
    source_loads
}

/// Integer switching-event counters of one mapped-netlist run. Totals are
/// order-independent: the packed engine and the scalar reference produce
/// identical counters for the same logical vector stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PowerCounters {
    /// Switch events per combinational cell.
    pub cell_events: Vec<u64>,
    /// State-change events per flip-flop.
    pub dff_events: Vec<u64>,
    /// Measured cycles the counters cover.
    pub measured_cycles: u64,
}

/// Converts integer counters into currents. Shared verbatim by the packed
/// engine and the scalar reference so equal counters give bit-identical
/// reports.
pub(crate) fn finalize_power(
    mapped: &MappedNetlist,
    lib: &Library,
    loads: &[f64],
    source_loads: &[f64],
    counters: &PowerCounters,
    stats: SimStats,
) -> PowerReport {
    let vdd2 = lib.vdd * lib.vdd;
    let cycles = counters.measured_cycles as f64;
    let mut energy_ffv2 = 0.0f64; // Σ C·V² in fF·V²
    let mut events = 0u64;
    for (i, cell) in mapped.cells().iter().enumerate() {
        match cell.class {
            CellClass::DominoAnd | CellClass::DominoOr | CellClass::DominoBuf => {
                energy_ffv2 += cycles * lib.clock_cap_ff * cell.size * vdd2;
                energy_ffv2 += counters.cell_events[i] as f64 * loads[i] * vdd2;
            }
            CellClass::InputInv | CellClass::OutputInv => {
                energy_ffv2 += counters.cell_events[i] as f64 * loads[i] * vdd2;
            }
            CellClass::Dff => unreachable!("flops are not in cells"),
        }
        events += counters.cell_events[i];
    }
    for (j, dff) in mapped.dffs().iter().enumerate() {
        energy_ffv2 += cycles * lib.clock_cap_ff * dff.size * vdd2;
        energy_ffv2 += counters.dff_events[j] as f64 * source_loads[dff.source_index] * vdd2;
        events += counters.dff_events[j];
    }

    // Average switched capacitance per cycle (fF) → current.
    let cavg_ff = energy_ffv2 / vdd2 / cycles;
    // I = C·V·f: fF × V × MHz × 1e-6 = mA.
    let cap_ma = cavg_ff * lib.vdd * lib.clock_mhz * 1e-6;
    let short_circuit_ma = 0.1 * cap_ma;
    let leakage_ma = mapped.cell_count() as f64 * lib.leak_ua * 1e-3;
    PowerReport {
        cap_ma,
        short_circuit_ma,
        leakage_ma,
        cycles: counters.measured_cycles as usize,
        switch_events: events,
        stats,
    }
}

/// How a compiled cell combines its fanin words. A domino buffer is a
/// one-fanin `And`.
#[derive(Debug, Clone, Copy)]
enum CellOp {
    And,
    Or,
    Not,
}

/// A [`MappedNetlist`] compiled for word-parallel simulation (see the
/// module docs). Shared read-only across shards.
struct CompiledNetlist {
    /// Source rails, primary inputs first: word indices `0..sources`.
    sources: usize,
    pis: usize,
    /// Per cell: its operation; cell `i` is word `sources + i`.
    ops: Vec<CellOp>,
    /// CSR offsets: cell `i` reads the words
    /// `fanins[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
    fanins: Vec<u32>,
    /// Cell indices by event rule.
    domino: Vec<u32>,
    input_inv: Vec<u32>,
    output_inv: Vec<u32>,
    /// Per flop: the word of its data input and of the rail it drives.
    dff_data: Vec<u32>,
    dff_source: Vec<u32>,
}

impl CompiledNetlist {
    fn new(mapped: &MappedNetlist) -> Self {
        let sources = mapped.source_count();
        let cells = mapped.cells().len();
        let word = |r: MappedRef| -> u32 {
            let index = match r {
                MappedRef::Source(i) => i,
                MappedRef::Cell(i) => sources + i,
                MappedRef::Const(v) => sources + cells + usize::from(v),
            };
            u32::try_from(index).expect("netlist rail count exceeds u32::MAX")
        };
        let mut net = CompiledNetlist {
            sources,
            pis: mapped.pi_count(),
            ops: Vec::with_capacity(cells),
            offsets: Vec::with_capacity(cells + 1),
            fanins: Vec::new(),
            domino: Vec::new(),
            input_inv: Vec::new(),
            output_inv: Vec::new(),
            dff_data: mapped.dffs().iter().map(|d| word(d.data)).collect(),
            dff_source: mapped
                .dffs()
                .iter()
                .map(|d| d.source_index as u32)
                .collect(),
        };
        net.offsets.push(0);
        for (i, cell) in mapped.cells().iter().enumerate() {
            let i = i as u32;
            let op = match cell.class {
                CellClass::DominoAnd | CellClass::DominoBuf => {
                    net.domino.push(i);
                    CellOp::And
                }
                CellClass::DominoOr => {
                    net.domino.push(i);
                    CellOp::Or
                }
                CellClass::InputInv => {
                    net.input_inv.push(i);
                    CellOp::Not
                }
                CellClass::OutputInv => {
                    net.output_inv.push(i);
                    CellOp::Not
                }
                CellClass::Dff => unreachable!("flops are not in cells"),
            };
            net.ops.push(op);
            net.fanins.extend(cell.fanins.iter().map(|&f| word(f)));
            net.offsets.push(net.fanins.len() as u32);
        }
        net
    }

    /// A fresh word array: every flop rail at its reset value, the two
    /// constant words set, everything else zero.
    fn initial_words(&self, mapped: &MappedNetlist) -> Vec<u64> {
        let cells = self.ops.len();
        let mut words = vec![0u64; self.sources + cells + 2];
        for dff in mapped.dffs() {
            words[dff.source_index] = broadcast(dff.init);
        }
        words[self.sources + cells + 1] = !0;
        words
    }

    /// Evaluates every cell, in topological order, from the source words.
    fn eval(&self, words: &mut [u64]) {
        for (i, op) in self.ops.iter().enumerate() {
            let fanins = &self.fanins[self.offsets[i] as usize..self.offsets[i + 1] as usize];
            words[self.sources + i] = match op {
                CellOp::And => fanins.iter().fold(!0, |acc, &f| acc & words[f as usize]),
                CellOp::Or => fanins.iter().fold(0, |acc, &f| acc | words[f as usize]),
                CellOp::Not => !words[fanins[0] as usize],
            };
        }
    }
}

/// One shard's simulation state over a [`CompiledNetlist`].
struct PackedPowerSim<'a> {
    net: &'a CompiledNetlist,
    vectors: PackedVectorSource,
    words: Vec<u64>,
    /// Each input inverter's word of the previous step.
    prev_input_inv: Vec<u64>,
    dff_next: Vec<u64>,
}

impl PackedPowerSim<'_> {
    /// Advances every lane one cycle; counts events on lanes in `mask`.
    fn step(&mut self, mask: u64, counters: &mut PowerCounters) {
        let net = self.net;
        self.vectors.next_words(&mut self.words[..net.pis]);
        net.eval(&mut self.words);

        let cells = &self.words[net.sources..];
        if mask != 0 {
            for &i in &net.domino {
                let i = i as usize;
                let events = cells[i] & mask;
                counters.cell_events[i] += u64::from(events.count_ones());
            }
            for (&i, &prev) in net.input_inv.iter().zip(&self.prev_input_inv) {
                let i = i as usize;
                let events = (cells[i] ^ prev) & mask;
                counters.cell_events[i] += u64::from(events.count_ones());
            }
            // Pulses with its domino driver (driver high ⇔ inverter output
            // low).
            for &i in &net.output_inv {
                let i = i as usize;
                let events = !cells[i] & mask;
                counters.cell_events[i] += u64::from(events.count_ones());
            }
        }
        for (prev, &i) in self.prev_input_inv.iter_mut().zip(&net.input_inv) {
            *prev = cells[i as usize];
        }

        // Clock the flops simultaneously: every data input samples the
        // rails of *this* cycle before any flop output moves, so a flop
        // chained directly to another flop's rail sees its pre-edge value.
        for (next, &d) in self.dff_next.iter_mut().zip(&net.dff_data) {
            *next = self.words[d as usize];
        }
        for (j, (&next, &s)) in self.dff_next.iter().zip(&net.dff_source).enumerate() {
            let s = s as usize;
            if mask != 0 {
                let flips = (next ^ self.words[s]) & mask;
                counters.dff_events[j] += u64::from(flips.count_ones());
            }
            self.words[s] = next;
        }
    }
}

/// Per-shard output of the packed power kernel, merged by addition.
struct PowerShardOutput {
    counters: PowerCounters,
    words: u64,
    measured_words: u64,
}

/// Simulates `mapped` with Bernoulli-`pi_probs` vectors on the packed
/// engine and reports average currents.
///
/// The measurement is decomposed into [`SimConfig::shards`] sub-seeded
/// shard streams, run in order; per-shard integer counters merge by
/// addition (see the [`SimConfig`] determinism contract).
///
/// # Panics
///
/// Panics if `pi_probs.len()` differs from the netlist's primary input
/// count.
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
    let loads = mapped.load_caps_ff(lib);
    let source_loads = dff_source_loads(mapped, lib);
    let net = CompiledNetlist::new(mapped);
    let plan = shard_plan(config);
    let tol = f64::from(config.adaptive_tol_ppm) * 1e-6;

    let run_shard = |slice: &ShardSlice| -> PowerShardOutput {
        let mut sim = PackedPowerSim {
            net: &net,
            vectors: PackedVectorSource::new(pi_probs, slice.seed),
            words: net.initial_words(mapped),
            prev_input_inv: vec![0u64; net.input_inv.len()],
            dff_next: vec![0u64; mapped.dffs().len()],
        };
        let mut counters = PowerCounters {
            cell_events: vec![0u64; mapped.cells().len()],
            dff_events: vec![0u64; mapped.dffs().len()],
            measured_cycles: 0,
        };

        let schedule = WordSchedule::new(slice.warmup, slice.cycles);
        for _ in 0..schedule.warmup {
            sim.step(0, &mut counters);
        }
        let mut measured_words = 0usize;
        let mut last_estimate: Option<f64> = None;
        let mut next_check = ADAPTIVE_FIRST_CHECK_WORDS;
        for k in 0..schedule.measured_words() {
            sim.step(schedule.mask(k), &mut counters);
            measured_words += 1;
            counters.measured_cycles += u64::from(schedule.mask(k).count_ones());
            // Adaptive early exit: stop this shard at a word boundary once
            // its running energy-per-cycle estimate has converged between
            // (doubling) checkpoints. Per-shard, so the decision depends
            // only on the shard's own stream.
            if tol > 0.0 && measured_words == next_check {
                next_check *= 2;
                let estimate = finalize_power(
                    mapped,
                    lib,
                    &loads,
                    &source_loads,
                    &counters,
                    SimStats::default(),
                )
                .cap_ma;
                if let Some(prev) = last_estimate {
                    if (estimate - prev).abs() <= tol * prev.abs() {
                        break;
                    }
                }
                last_estimate = Some(estimate);
            }
        }
        PowerShardOutput {
            counters,
            words: (schedule.warmup + measured_words) as u64,
            measured_words: measured_words as u64,
        }
    };

    let mut counters = PowerCounters {
        cell_events: vec![0u64; mapped.cells().len()],
        dff_events: vec![0u64; mapped.dffs().len()],
        measured_cycles: 0,
    };
    let mut stats = SimStats {
        shards: plan.len() as u64,
        ..SimStats::default()
    };
    for out in plan.iter().map(run_shard) {
        for (total, &events) in counters
            .cell_events
            .iter_mut()
            .zip(&out.counters.cell_events)
        {
            *total += events;
        }
        for (total, &events) in counters.dff_events.iter_mut().zip(&out.counters.dff_events) {
            *total += events;
        }
        counters.measured_cycles += out.counters.measured_cycles;
        stats.words += out.words;
        stats.measured_words += out.measured_words;
    }
    stats.vectors = counters.measured_cycles;
    finalize_power(mapped, lib, &loads, &source_loads, &counters, stats)
}

/// Per-element-class switching event averages for an (unmapped) domino
/// block: directly comparable with
/// [`estimate_power`](domino_phase::power::estimate_power) under the unit
/// power model.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SwitchingCounts {
    /// Average domino gate events per cycle.
    pub block: f64,
    /// Average input-inverter toggles per cycle.
    pub input_inverters: f64,
    /// Average output-inverter pulses per cycle.
    pub output_inverters: f64,
}

impl SwitchingCounts {
    /// Total events per cycle.
    pub fn total(&self) -> f64 {
        self.block + self.input_inverters + self.output_inverters
    }
}

/// Integer switching-event counters of one domino-block run (shared by the
/// packed engine and the scalar reference).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SwitchingEventCounters {
    pub block: u64,
    pub input_inverters: u64,
    pub output_inverters: u64,
}

impl SwitchingEventCounters {
    /// Event counts → per-cycle averages, in one place so the packed and
    /// reference paths divide identically.
    pub(crate) fn per_cycle(&self, cycles: usize) -> SwitchingCounts {
        let c = cycles as f64;
        SwitchingCounts {
            block: self.block as f64 / c,
            input_inverters: self.input_inverters as f64 / c,
            output_inverters: self.output_inverters as f64 / c,
        }
    }
}

/// Positions (in source order) of the block's input-boundary inverters.
pub(crate) fn inverter_positions(domino: &DominoNetwork) -> Vec<usize> {
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

/// Counts model switching events on a [`DominoNetwork`] by packed
/// simulation (sequential state handled through the latch-data outputs,
/// one independent chain per lane).
///
/// Sharded exactly like [`measure_power`]: per-shard integer counters
/// merged by addition.
///
/// # Panics
///
/// Panics if `pi_probs` does not have one entry per primary input of the
/// original network.
pub fn measure_domino_switching(
    domino: &DominoNetwork,
    pi_probs: &[f64],
    config: &SimConfig,
) -> SwitchingCounts {
    let n_latches = domino.latch_inits().len();
    let n_pis = domino.sources().len() - n_latches;
    assert_eq!(pi_probs.len(), n_pis, "one probability per primary input");

    let eval = domino.packed_evaluator();
    let inverter_positions = inverter_positions(domino);
    let plan = shard_plan(config);

    let run_shard = |slice: &ShardSlice| -> SwitchingEventCounters {
        let mut vectors = PackedVectorSource::new(pi_probs, slice.seed);
        let mut source_words = vec![0u64; domino.sources().len()];
        for (i, &init) in domino.latch_inits().iter().enumerate() {
            source_words[n_pis + i] = broadcast(init);
        }
        let mut prev_source_words = source_words.clone();
        let mut pi_words = vec![0u64; n_pis];
        let mut rails: Vec<u64> = Vec::new();
        let mut out_words = vec![0u64; eval.outputs().len()];
        let mut counters = SwitchingEventCounters::default();

        let schedule = WordSchedule::new(slice.warmup, slice.cycles);
        for step in 0..schedule.total_steps() {
            let mask = schedule.step_mask(step);
            vectors.next_words(&mut pi_words);
            source_words[..n_pis].copy_from_slice(&pi_words);
            eval.eval_rails(&source_words, &mut rails);
            if mask != 0 {
                for &r in &rails {
                    counters.block += u64::from((r & mask).count_ones());
                }
                // Boundary inverters on both PI and latch rails toggle when
                // the (cycle-stable) rail value differs from the previous
                // cycle.
                for &pos in &inverter_positions {
                    let toggles = (source_words[pos] ^ prev_source_words[pos]) & mask;
                    counters.input_inverters += u64::from(toggles.count_ones());
                }
            }
            prev_source_words.copy_from_slice(&source_words);

            // Outputs: count output-inverter pulses, then clock the latches
            // simultaneously — every driver samples this cycle's rails
            // before any latch state moves (a latch fed directly by another
            // latch's rail must see its pre-edge value).
            for (k, out) in eval.outputs().iter().enumerate() {
                out_words[k] = PackedRailEvaluator::ref_word(out.driver, &source_words, &rails);
                if mask != 0 && out.negative {
                    counters.output_inverters += u64::from((out_words[k] & mask).count_ones());
                }
            }
            let mut latch_idx = 0usize;
            for (k, out) in eval.outputs().iter().enumerate() {
                if out.is_latch_data {
                    let logical = if out.negative {
                        !out_words[k]
                    } else {
                        out_words[k]
                    };
                    source_words[n_pis + latch_idx] = logical;
                    latch_idx += 1;
                }
            }
        }
        counters
    };

    let mut counters = SwitchingEventCounters::default();
    for shard in plan.iter().map(run_shard) {
        counters.block += shard.block;
        counters.input_inverters += shard.input_inverters;
        counters.output_inverters += shard.output_inverters;
    }
    counters.per_cycle(config.cycles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::LANES;
    use domino_netlist::Network;
    use domino_phase::power::{estimate_power, PowerModel};
    use domino_phase::prob::{compute_probabilities, ProbabilityConfig};
    use domino_phase::{DominoSynthesizer, PhaseAssignment};
    use domino_techmap::map;

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

    /// The headline validation: simulated switching matches the BDD-exact
    /// estimate on the Figure 5 circuit, for both phase assignments.
    #[test]
    fn simulation_validates_bdd_estimate() {
        let net = fig5();
        let synth = DominoSynthesizer::new(&net).unwrap();
        let pi = vec![0.9; 4];
        let probs = compute_probabilities(&net, &pi, &ProbabilityConfig::default()).unwrap();
        let cfg = SimConfig {
            cycles: 40_000,
            warmup: 16,
            seed: 11,
            ..SimConfig::default()
        };
        for bits in [0b01u64, 0b10u64] {
            let pa = PhaseAssignment::from_bits(2, bits);
            let domino = synth.synthesize(&pa).unwrap();
            let est = estimate_power(&domino, probs.as_slice(), &PowerModel::unit());
            let sim = measure_domino_switching(&domino, &pi, &cfg);
            assert!(
                (sim.block - est.block).abs() < 0.05 * est.block.max(0.1),
                "bits {bits:b}: block sim {} vs est {}",
                sim.block,
                est.block
            );
            assert!(
                (sim.total() - est.total()).abs() < 0.05 * est.total(),
                "bits {bits:b}: total sim {} vs est {}",
                sim.total(),
                est.total()
            );
        }
    }

    #[test]
    fn mapped_power_is_positive_and_scales_with_activity() {
        // A monotone positive cone: f = (a+b)+(c·d). Every domino gate's
        // evaluation probability rises with the input probability, so power
        // must too.
        let mut net = Network::new("mono");
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        let c = net.add_input("c").unwrap();
        let d = net.add_input("d").unwrap();
        let aob = net.add_or([a, b]).unwrap();
        let cad = net.add_and([c, d]).unwrap();
        let f = net.add_or([aob, cad]).unwrap();
        net.add_output("f", f).unwrap();
        let synth = DominoSynthesizer::new(&net).unwrap();
        let domino = synth.synthesize(&PhaseAssignment::all_positive(1)).unwrap();
        let lib = domino_techmap::Library::standard();
        let mapped = map(&domino, &lib);
        let cfg = SimConfig::default();
        let low = measure_power(&mapped, &lib, &[0.1; 4], &cfg);
        let high = measure_power(&mapped, &lib, &[0.9; 4], &cfg);
        assert!(low.total_ma() > 0.0);
        assert!(high.cap_ma > low.cap_ma);
        assert!(high.switch_events > low.switch_events);
        // Components are consistent.
        assert!((high.short_circuit_ma - 0.1 * high.cap_ma).abs() < 1e-12);
        assert!(high.leakage_ma > 0.0);
        // Work accounting: 4096 cycles over 8 shards = 8 full words each,
        // plus 16 warmup words split 2 per shard.
        assert_eq!(high.stats.vectors, 4096);
        assert_eq!(high.stats.shards, 8);
        assert_eq!(high.stats.measured_words, 64);
        assert_eq!(high.stats.words, 80);
        assert!((high.stats.lane_utilization() - 1.0).abs() < 1e-12);
    }

    /// The shard count is part of the stream definition: different shard
    /// counts are different, but statistically consistent, measurements.
    #[test]
    fn shard_counts_measure_consistently() {
        let net = fig5();
        let synth = DominoSynthesizer::new(&net).unwrap();
        let domino = synth.synthesize(&PhaseAssignment::all_positive(2)).unwrap();
        let lib = domino_techmap::Library::standard();
        let mapped = map(&domino, &lib);
        let pi = [0.7; 4];
        let base = SimConfig::default();
        let sharded = measure_power(&mapped, &lib, &pi, &base);
        let one_shard = measure_power(&mapped, &lib, &pi, &SimConfig { shards: 1, ..base });
        assert_eq!(one_shard.stats.shards, 1);
        assert_eq!(one_shard.cycles, sharded.cycles);
        assert!(
            (one_shard.cap_ma - sharded.cap_ma).abs() < 0.1 * sharded.cap_ma,
            "shardings are statistically consistent"
        );
    }

    #[test]
    fn partial_word_masks_remainder_lanes() {
        let net = fig5();
        let synth = DominoSynthesizer::new(&net).unwrap();
        let domino = synth.synthesize(&PhaseAssignment::all_positive(2)).unwrap();
        let lib = domino_techmap::Library::standard();
        let mapped = map(&domino, &lib);
        let cfg = SimConfig {
            cycles: 100, // 8 shards of 12–13 lanes, each a partial word
            warmup: 2,
            ..SimConfig::default()
        };
        let report = measure_power(&mapped, &lib, &[0.5; 4], &cfg);
        assert_eq!(report.cycles, 100);
        assert_eq!(report.stats.vectors, 100);
        assert_eq!(report.stats.shards, 8);
        assert_eq!(report.stats.measured_words, 8);
        assert!(report.stats.lane_utilization() < 1.0);
    }

    #[test]
    fn adaptive_mode_stops_early_and_stays_deterministic() {
        let net = fig5();
        let synth = DominoSynthesizer::new(&net).unwrap();
        let domino = synth.synthesize(&PhaseAssignment::all_positive(2)).unwrap();
        let lib = domino_techmap::Library::standard();
        let mapped = map(&domino, &lib);
        let fixed = SimConfig {
            cycles: 1 << 20,
            ..SimConfig::default()
        };
        let adaptive = SimConfig {
            adaptive_tol_ppm: 20_000, // 2% between 1024-vector checkpoints
            ..fixed
        };
        let full = measure_power(&mapped, &lib, &[0.5; 4], &fixed);
        let early = measure_power(&mapped, &lib, &[0.5; 4], &adaptive);
        assert!(early.cycles < full.cycles, "adaptive must stop early");
        assert_eq!(early.cycles % LANES, 0, "stops at a word boundary");
        // Converged estimate is close to the full-length measurement.
        assert!((early.cap_ma - full.cap_ma).abs() < 0.05 * full.cap_ma);
        let again = measure_power(&mapped, &lib, &[0.5; 4], &adaptive);
        assert_eq!(early, again);

        // The checkpoint interval scales with the shard count, so adaptive
        // mode must stay reachable for moderate budgets too — not just for
        // runs longer than shards × 1024 vectors.
        let moderate = measure_power(
            &mapped,
            &lib,
            &[0.5; 4],
            &SimConfig {
                cycles: 16 * 1024,
                adaptive_tol_ppm: 50_000, // 5%
                ..SimConfig::default()
            },
        );
        assert!(
            moderate.cycles < 16 * 1024,
            "moderate budget must stop early, got {}",
            moderate.cycles
        );
    }

    #[test]
    fn chained_latches_clock_simultaneously() {
        // q1' = !q1 (toggle), q2' = q1, g = q1·q2. With simultaneous
        // clocking q2 lags q1 by one cycle, so q1 and q2 are never both
        // high and the AND gate never evaluates. A flop that shoot-through
        // sampled its neighbour's *new* value would make q2 ≡ q1 and the
        // gate fire every other cycle.
        let mut net = Network::new("chain");
        let q1 = net.add_latch(false);
        let q2 = net.add_latch(false);
        let nq1 = net.add_not(q1).unwrap();
        net.set_latch_data(q1, nq1).unwrap();
        net.set_latch_data(q2, q1).unwrap();
        let g = net.add_and([q1, q2]).unwrap();
        net.add_output("g", g).unwrap();
        let synth = DominoSynthesizer::new(&net).unwrap();
        let n = synth.view_outputs().len();
        let domino = synth.synthesize(&PhaseAssignment::all_positive(n)).unwrap();
        let cfg = SimConfig {
            cycles: 1024,
            warmup: 8,
            ..SimConfig::default()
        };
        let counts = measure_domino_switching(&domino, &[], &cfg);
        assert_eq!(counts.block, 0.0, "AND(q1, q2) must never evaluate");

        // Same invariant through mapping: the only domino cell is the AND,
        // so its load never switches and no flop pair ever agrees.
        let lib = domino_techmap::Library::standard();
        let mapped = map(&domino, &lib);
        let report = measure_power(&mapped, &lib, &[], &cfg);
        // Both flops and the !q1 input inverter toggle every cycle; the
        // AND never fires. Shoot-through clocking would add AND events on
        // half the cycles.
        assert_eq!(report.switch_events, 3 * 1024);
    }

    #[test]
    fn sequential_power_measurement_runs() {
        let mut net = Network::new("seq");
        let a = net.add_input("a").unwrap();
        let q = net.add_latch(false);
        let nq = net.add_not(q).unwrap();
        let d = net.add_and([a, nq]).unwrap();
        net.set_latch_data(q, d).unwrap();
        net.add_output("o", q).unwrap();
        let synth = DominoSynthesizer::new(&net).unwrap();
        let domino = synth.synthesize(&PhaseAssignment::all_positive(2)).unwrap();
        let lib = domino_techmap::Library::standard();
        let mapped = map(&domino, &lib);
        let report = measure_power(&mapped, &lib, &[0.5], &SimConfig::default());
        assert!(report.total_ma() > 0.0);
        // The toggling flop generates events.
        assert!(report.switch_events > 0);
    }

    #[test]
    fn compiled_eval_agrees_with_scalar_lane_by_lane() {
        // f = !(a·b) + c under a mixed phase assignment exercises every
        // cell class except Dff; a 5-input AND adds a decomposed tree.
        let mut net = Network::new("pk");
        let ins: Vec<_> = (0..5)
            .map(|i| net.add_input(format!("i{i}")).unwrap())
            .collect();
        let ab = net.add_and([ins[0], ins[1]]).unwrap();
        let nab = net.add_not(ab).unwrap();
        let f = net.add_or([nab, ins[2]]).unwrap();
        let wide = net.add_and(ins.iter().copied()).unwrap();
        net.add_output("f", f).unwrap();
        net.add_output("g", ab).unwrap();
        net.add_output("w", wide).unwrap();
        let synth = DominoSynthesizer::new(&net).unwrap();
        let lib = domino_techmap::Library::standard();
        for bits in 0..8u64 {
            let domino = synth
                .synthesize(&PhaseAssignment::from_bits(3, bits))
                .unwrap();
            let mapped = map(&domino, &lib);
            let compiled = CompiledNetlist::new(&mapped);
            let mut words = compiled.initial_words(&mapped);
            // All 32 input patterns across lanes 0..32.
            for lane in 0..32usize {
                for (i, w) in words[..5].iter_mut().enumerate() {
                    if (lane >> i) & 1 == 1 {
                        *w |= 1 << lane;
                    }
                }
            }
            compiled.eval(&mut words);
            for lane in 0..32usize {
                let values: Vec<bool> = (0..5).map(|i| (words[i] >> lane) & 1 == 1).collect();
                let scalar = mapped.eval_cells(&values);
                for (i, &v) in scalar.iter().enumerate() {
                    assert_eq!(
                        (words[5 + i] >> lane) & 1 == 1,
                        v,
                        "bits {bits} lane {lane} cell {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn reproducible_for_fixed_seed() {
        let net = fig5();
        let synth = DominoSynthesizer::new(&net).unwrap();
        let domino = synth.synthesize(&PhaseAssignment::all_positive(2)).unwrap();
        let lib = domino_techmap::Library::standard();
        let mapped = map(&domino, &lib);
        let cfg = SimConfig::default();
        let a = measure_power(&mapped, &lib, &[0.5; 4], &cfg);
        let b = measure_power(&mapped, &lib, &[0.5; 4], &cfg);
        assert_eq!(a, b);
    }
}
