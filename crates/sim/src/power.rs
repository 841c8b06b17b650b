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
//! Both kernels compile their circuit once per call into one form: every
//! rail becomes an index into one array laid out `[sources | cells | 0 |
//! !0]`, and cell fanins become CSR ranges of those indices. A mapped
//! netlist compiles cell for cell; a domino block compiles as its input
//! inverters, then its gates, then one output inverter per negative-phase
//! output, with each latch a flop. Both then simulate their shard streams
//! **in lockstep** on one runner: blocks of 8 shards, then at most one
//! block each of 4, 2 and 1, each rail holding one `u64` per shard of the
//! block, so one CSR pass loads each fanin index once for up to 8 words.
//! Each cell class has one event rule, so a step counts a cell's events as
//! it writes the cell's words; the only history a step needs is the input
//! inverters' previous words, which are still in place when it overwrites
//! them. The two forms differ only in the words a run starts from.
//!
//! Switching events are accumulated per cell and shard as *integer
//! popcounts* of the packed value words and converted to `f64` exactly
//! once at the end, so totals are independent of accumulation order — the
//! property that lets the shards' counters merge by addition and the
//! scalar lane-by-lane [`reference`](crate::reference) implementations
//! reproduce them bit for bit.
//!
//! Average capacitive current: `I_cap = C_avg · V_dd · f` (reported in mA);
//! short-circuit current is modelled as 10% of capacitive (the classic
//! rule of thumb) and leakage as a per-cell constant — giving the same
//! three-component current breakdown the paper reports from PowerMill.

use domino_phase::{DominoGateKind, DominoNetwork, DominoRef};
use domino_techmap::{CellClass, Library, MappedNetlist, MappedRef};

use crate::packed::{broadcast, ShardPlan, SimStats, WordSchedule};
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
/// adaptive_tol_ppm, shards)`. The sharded kernels, [`measure_power`] and
/// [`measure_domino_switching`], run their shards on the calling thread in
/// lockstep blocks, where a shard that has finished or stopped early takes
/// a zero mask; they accumulate integer event counters per shard and
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
    /// [`measure_domino_switching`] always runs the full length.
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

impl PowerCounters {
    /// All-zero counters for `mapped`.
    pub(crate) fn new(mapped: &MappedNetlist) -> Self {
        PowerCounters {
            cell_events: vec![0; mapped.cells().len()],
            dff_events: vec![0; mapped.dffs().len()],
            measured_cycles: 0,
        }
    }
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

/// How a compiled cell combines its fanin words, and when it switches:
/// each cell class has one fixed event rule, so counting folds into the
/// evaluation pass. A domino buffer is a one-fanin `And`.
#[derive(Debug, Clone, Copy)]
enum CellOp {
    /// Domino AND: switches its load whenever it evaluates high.
    And,
    /// Domino OR: the same event rule as `And`.
    Or,
    /// Input inverter: switches when its word differs from the previous
    /// step's.
    InputInv,
    /// Output inverter: pulses with its domino driver (driver high ⇔
    /// inverter output low).
    OutputInv,
}

/// A circuit compiled for word-parallel simulation (see the module docs).
/// Shared read-only across shard blocks.
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
    /// Per flop: the word of its data input and of the rail it drives.
    dff_data: Vec<u32>,
    dff_source: Vec<u32>,
    /// Every word's value before the first step, broadcast to every lane:
    /// flop rails at their reset values and the constant `!0`. An input
    /// inverter's first toggle counts against its word here.
    init: Vec<u64>,
}

/// Index of a rail in a [`CompiledNetlist`]'s word array.
fn word_index(index: usize) -> u32 {
    u32::try_from(index).expect("netlist rail count exceeds u32::MAX")
}

impl CompiledNetlist {
    /// `sources` rails, the first `pis` of them primary inputs, room for
    /// `cells` cells, no flops yet, and every initial word 0 but the
    /// constant `!0`.
    fn empty(sources: usize, pis: usize, cells: usize) -> Self {
        let mut init = vec![0; sources + cells + 2];
        init[sources + cells + 1] = !0;
        CompiledNetlist {
            sources,
            pis,
            ops: Vec::with_capacity(cells),
            offsets: vec![0],
            fanins: Vec::new(),
            dff_data: Vec::new(),
            dff_source: Vec::new(),
            init,
        }
    }

    /// Appends a cell; returns its word.
    fn push_cell(&mut self, op: CellOp, fanins: impl IntoIterator<Item = u32>) -> u32 {
        self.ops.push(op);
        self.fanins.extend(fanins);
        self.offsets.push(self.fanins.len() as u32);
        word_index(self.sources + self.ops.len() - 1)
    }

    /// Adds a flop that drives source rail `source` from word `data`,
    /// reset to `init`.
    fn push_flop(&mut self, data: u32, source: usize, init: bool) {
        self.dff_data.push(data);
        self.dff_source.push(word_index(source));
        self.init[source] = broadcast(init);
    }

    /// A mapped netlist, cell for cell. Its input inverters start at 0.
    fn from_mapped(mapped: &MappedNetlist) -> Self {
        let sources = mapped.source_count();
        let cells = mapped.cells().len();
        let word = |r: MappedRef| {
            word_index(match r {
                MappedRef::Source(i) => i,
                MappedRef::Cell(i) => sources + i,
                MappedRef::Const(v) => sources + cells + usize::from(v),
            })
        };
        let mut net = CompiledNetlist::empty(sources, mapped.pi_count(), cells);
        for cell in mapped.cells() {
            let op = match cell.class {
                CellClass::DominoAnd | CellClass::DominoBuf => CellOp::And,
                CellClass::DominoOr => CellOp::Or,
                CellClass::InputInv => CellOp::InputInv,
                CellClass::OutputInv => CellOp::OutputInv,
                CellClass::Dff => unreachable!("flops are not in cells"),
            };
            net.push_cell(op, cell.fanins.iter().map(|&f| word(f)));
        }
        for dff in mapped.dffs() {
            net.push_flop(word(dff.data), dff.source_index, dff.init);
        }
        net
    }

    /// A domino block: its input inverters, then its gates, then one
    /// output inverter per negative-phase output, with each latch a flop
    /// fed by its output after the boundary inverter. An input inverter
    /// starts at the complement of its source's reset value (a primary
    /// input's is 0), so its first toggle counts a change of the source.
    fn from_domino(domino: &DominoNetwork) -> Self {
        let sources = domino.sources().len();
        let pis = sources - domino.latch_inits().len();
        let inverters = domino.input_inverters().len();
        let first_gate = sources + inverters;
        let cells = inverters + domino.gate_count() + domino.output_inverter_count();
        let span = domino.sources().iter().map(|s| s.index() + 1).max();
        let mut position = vec![0; span.unwrap_or(0)];
        for (k, s) in domino.sources().iter().enumerate() {
            position[s.index()] = k;
        }
        let mut complement = vec![0; sources];
        for (k, s) in domino.input_inverters().iter().enumerate() {
            complement[position[s.index()]] = sources + k;
        }
        let word = |r: DominoRef| {
            word_index(match r {
                DominoRef::Gate(i) => first_gate + i,
                DominoRef::Source { node, complemented } => {
                    let k = position[node.index()];
                    if complemented {
                        complement[k]
                    } else {
                        k
                    }
                }
                DominoRef::Constant(v) => sources + cells + usize::from(v),
            })
        };
        let mut net = CompiledNetlist::empty(sources, pis, cells);
        for s in domino.input_inverters() {
            net.push_cell(CellOp::InputInv, [word_index(position[s.index()])]);
        }
        for gate in domino.gates() {
            let op = match gate.kind {
                DominoGateKind::And => CellOp::And,
                DominoGateKind::Or => CellOp::Or,
            };
            net.push_cell(op, gate.fanins.iter().map(|&f| word(f)));
        }
        let mut latches = domino.latch_inits().iter().enumerate();
        for out in domino.outputs() {
            let mut data = word(out.driver);
            if out.phase.is_negative() {
                data = net.push_cell(CellOp::OutputInv, [data]);
            }
            if out.is_latch_data {
                let (k, &init) = latches.next().expect("one latch per latch-data output");
                net.push_flop(data, pis + k, init);
            }
        }
        for (k, s) in domino.input_inverters().iter().enumerate() {
            net.init[sources + k] = !net.init[position[s.index()]];
        }
        net
    }
}

/// `W` shard streams simulated in lockstep over one [`CompiledNetlist`]:
/// every rail holds one word per shard (its *lane*), so each fanin index
/// is loaded once per `W` words. Lanes never mix — lane `l` evolves
/// exactly as its shard would alone — and each lane keeps its own integer
/// event counters.
struct LockstepSim<'a, const W: usize> {
    net: &'a CompiledNetlist,
    /// Laid out `[sources | cells | 0 | !0]`. A cell's word holds its value
    /// of the previous step until the step overwrites it, which is all the
    /// history the input inverters' toggle rule needs.
    words: Vec<[u64; W]>,
    dff_next: Vec<[u64; W]>,
    /// Per cell and lane: switch events.
    cell_events: Vec<[u64; W]>,
    /// Per flop and lane: state changes.
    dff_events: Vec<[u64; W]>,
}

/// Adds the events of `events` under `masks` to `counts`, lane by lane.
fn count<const W: usize>(counts: &mut [u64; W], events: &[u64; W], masks: &[u64; W]) {
    for ((c, &e), &m) in counts.iter_mut().zip(events).zip(masks) {
        *c += u64::from((e & m).count_ones());
    }
}

impl<'a, const W: usize> LockstepSim<'a, W> {
    /// Every word at its initial image in every lane; no events counted.
    fn new(net: &'a CompiledNetlist) -> Self {
        let cells = net.ops.len();
        let flops = net.dff_source.len();
        LockstepSim {
            net,
            words: net.init.iter().map(|&w| [w; W]).collect(),
            dff_next: vec![[0; W]; flops],
            cell_events: vec![[0; W]; cells],
            dff_events: vec![[0; W]; flops],
        }
    }

    /// Advances every lane one cycle from the primary-input words already
    /// in place, counting each lane's events on the vectors in its mask.
    fn step(&mut self, masks: &[u64; W]) {
        let net = self.net;
        let counting = masks.iter().any(|&m| m != 0);
        let words = &mut self.words;
        for (i, op) in net.ops.iter().enumerate() {
            let fanins = &net.fanins[net.offsets[i] as usize..net.offsets[i + 1] as usize];
            let slot = net.sources + i;
            let (value, events) = match op {
                CellOp::And => {
                    let mut acc = [!0; W];
                    for &f in fanins {
                        for (a, &w) in acc.iter_mut().zip(&words[f as usize]) {
                            *a &= w;
                        }
                    }
                    (acc, acc)
                }
                CellOp::Or => {
                    let mut acc = [0; W];
                    for &f in fanins {
                        for (a, &w) in acc.iter_mut().zip(&words[f as usize]) {
                            *a |= w;
                        }
                    }
                    (acc, acc)
                }
                CellOp::InputInv => {
                    let (input, prev) = (&words[fanins[0] as usize], &words[slot]);
                    let value: [u64; W] = std::array::from_fn(|l| !input[l]);
                    (value, std::array::from_fn(|l| value[l] ^ prev[l]))
                }
                CellOp::OutputInv => {
                    let driver = words[fanins[0] as usize];
                    (driver.map(|w| !w), driver)
                }
            };
            words[slot] = value;
            if counting {
                count(&mut self.cell_events[i], &events, masks);
            }
        }

        // Clock the flops simultaneously: every data input samples the
        // rails of *this* cycle before any flop output moves, so a flop
        // chained directly to another flop's rail sees its pre-edge value.
        for (next, &d) in self.dff_next.iter_mut().zip(&net.dff_data) {
            *next = words[d as usize];
        }
        for ((next, &s), events) in self
            .dff_next
            .iter()
            .zip(&net.dff_source)
            .zip(&mut self.dff_events)
        {
            let state = &mut words[s as usize];
            if counting {
                count(events, &std::array::from_fn(|l| next[l] ^ state[l]), masks);
            }
            *state = *next;
        }
    }

    /// Lane `l`'s counters, as its shard alone would have them.
    fn lane_counters(&self, l: usize, measured_cycles: u64) -> PowerCounters {
        PowerCounters {
            cell_events: self.cell_events.iter().map(|c| c[l]).collect(),
            dff_events: self.dff_events.iter().map(|c| c[l]).collect(),
            measured_cycles,
        }
    }
}

/// One shard's vector stream and progress inside a lockstep block.
struct ShardLane {
    vectors: PackedVectorSource,
    schedule: WordSchedule,
    measured_words: usize,
    measured_cycles: u64,
    next_check: usize,
    last_estimate: Option<f64>,
    /// Set once an adaptive checkpoint has stopped the shard.
    stopped: bool,
}

/// Adaptive early stop: a shard stops once the estimate of its counters
/// moves by at most `tol` (relative) between consecutive checkpoints.
struct Adaptive<'a> {
    tol: f64,
    estimate: &'a dyn Fn(&PowerCounters) -> f64,
}

/// The shard streams of one call over one compiled circuit, run in
/// lockstep blocks of 8, then at most one block each of 4, 2 and 1, so no
/// lane is padding.
struct ShardRun<'a> {
    net: &'a CompiledNetlist,
    pi_probs: &'a [f64],
    plan: ShardPlan,
    /// `None` runs every shard to its full length.
    adaptive: Option<Adaptive<'a>>,
}

impl ShardRun<'_> {
    /// Every shard's counters merged by addition, with the run's work.
    fn run(&self) -> (PowerCounters, SimStats) {
        let mut totals = PowerCounters {
            cell_events: vec![0; self.net.ops.len()],
            dff_events: vec![0; self.net.dff_data.len()],
            measured_cycles: 0,
        };
        let mut stats = SimStats {
            shards: self.plan.len() as u64,
            ..SimStats::default()
        };
        let mut start = self.blocks::<8>(0, &mut totals, &mut stats);
        start = self.blocks::<4>(start, &mut totals, &mut stats);
        start = self.blocks::<2>(start, &mut totals, &mut stats);
        self.blocks::<1>(start, &mut totals, &mut stats);
        stats.vectors = totals.measured_cycles;
        (totals, stats)
    }

    /// Runs shards `start..` in lockstep blocks of `W` for as long as a
    /// whole block fits, adding their counters and work into the totals;
    /// returns the first shard left over.
    fn blocks<const W: usize>(
        &self,
        mut start: usize,
        totals: &mut PowerCounters,
        stats: &mut SimStats,
    ) -> usize {
        while self.plan.len() - start >= W {
            self.block::<W>(start, totals, stats);
            start += W;
        }
        start
    }

    fn block<const W: usize>(
        &self,
        start: usize,
        totals: &mut PowerCounters,
        stats: &mut SimStats,
    ) {
        let mut lanes: [ShardLane; W] = std::array::from_fn(|l| {
            let slice = self.plan.slice(start + l);
            ShardLane {
                vectors: PackedVectorSource::new(self.pi_probs, slice.seed),
                schedule: WordSchedule::new(slice.warmup, slice.cycles),
                measured_words: 0,
                measured_cycles: 0,
                next_check: ADAPTIVE_FIRST_CHECK_WORDS,
                last_estimate: None,
                stopped: false,
            }
        });
        let mut sim = LockstepSim::<W>::new(self.net);
        let mut pi_words = vec![0u64; self.net.pis];
        for step in 0.. {
            // A lane whose shard has finished or stopped takes a zero mask
            // and draws no vectors; its words run on unobserved.
            let mut masks = [0u64; W];
            let mut running = false;
            for (l, lane) in lanes.iter_mut().enumerate() {
                if lane.stopped || step >= lane.schedule.total_steps() {
                    continue;
                }
                running = true;
                masks[l] = lane.schedule.step_mask(step);
                lane.vectors.next_words(&mut pi_words);
                for (word, &w) in sim.words.iter_mut().zip(&pi_words) {
                    word[l] = w;
                }
            }
            if !running {
                break;
            }
            sim.step(&masks);

            for (l, lane) in lanes.iter_mut().enumerate() {
                if masks[l] == 0 {
                    continue;
                }
                lane.measured_words += 1;
                lane.measured_cycles += u64::from(masks[l].count_ones());
                // Adaptive early exit: stop this shard at a word boundary
                // once its running estimate has converged between
                // (doubling) checkpoints. Per-shard, so the decision
                // depends only on the shard's own stream.
                let Some(adaptive) = &self.adaptive else {
                    continue;
                };
                if lane.measured_words == lane.next_check {
                    lane.next_check *= 2;
                    let estimate = (adaptive.estimate)(&sim.lane_counters(l, lane.measured_cycles));
                    if let Some(prev) = lane.last_estimate {
                        lane.stopped = (estimate - prev).abs() <= adaptive.tol * prev.abs();
                    }
                    lane.last_estimate = Some(estimate);
                }
            }
        }

        for (total, events) in totals.cell_events.iter_mut().zip(&sim.cell_events) {
            *total += events.iter().sum::<u64>();
        }
        for (total, events) in totals.dff_events.iter_mut().zip(&sim.dff_events) {
            *total += events.iter().sum::<u64>();
        }
        for lane in &lanes {
            totals.measured_cycles += lane.measured_cycles;
            stats.words += (lane.schedule.warmup + lane.measured_words) as u64;
            stats.measured_words += lane.measured_words as u64;
        }
    }
}

/// Simulates `mapped` with Bernoulli-`pi_probs` vectors on the packed
/// engine and reports average currents.
///
/// The measurement is decomposed into [`SimConfig::shards`] sub-seeded
/// shard streams, simulated in lockstep blocks of 8 — then at most one
/// block each of 4, 2 and 1 for the remainder, so no lane is padding.
/// Per-shard integer counters merge by addition (see the [`SimConfig`]
/// determinism contract).
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
    let estimate = |counters: &PowerCounters| {
        finalize_power(
            mapped,
            lib,
            &loads,
            &source_loads,
            counters,
            SimStats::default(),
        )
        .cap_ma
    };
    let net = CompiledNetlist::from_mapped(mapped);
    let (counters, stats) = ShardRun {
        net: &net,
        pi_probs,
        plan: ShardPlan::new(config),
        adaptive: (config.adaptive_tol_ppm > 0).then_some(Adaptive {
            tol: f64::from(config.adaptive_tol_ppm) * 1e-6,
            estimate: &estimate,
        }),
    }
    .run();
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

/// Counts model switching events on a [`DominoNetwork`] by packed
/// simulation (sequential state handled through the latch-data outputs,
/// one independent chain per lane).
///
/// Runs on the same compiled form and lockstep shard blocks as
/// [`measure_power`], always for the full [`SimConfig::cycles`]:
/// [`SimConfig::adaptive_tol_ppm`] does not apply.
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
    let n_pis = domino.sources().len() - domino.latch_inits().len();
    assert_eq!(pi_probs.len(), n_pis, "one probability per primary input");
    let net = CompiledNetlist::from_domino(domino);
    let (totals, _) = ShardRun {
        net: &net,
        pi_probs,
        plan: ShardPlan::new(config),
        adaptive: None,
    }
    .run();
    let mut counters = SwitchingEventCounters::default();
    for (op, &events) in net.ops.iter().zip(&totals.cell_events) {
        *match op {
            CellOp::And | CellOp::Or => &mut counters.block,
            CellOp::InputInv => &mut counters.input_inverters,
            CellOp::OutputInv => &mut counters.output_inverters,
        } += events;
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
        // Switching counts always run the full length.
        assert_eq!(
            measure_domino_switching(&domino, &[0.5; 4], &adaptive),
            measure_domino_switching(&domino, &[0.5; 4], &fixed)
        );

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
        // Two lanes: lane 0 walks all 32 input patterns across bits
        // 0..32, lane 1 their complements, so a step that mixed lanes
        // would show.
        let step = |compiled: &CompiledNetlist| {
            let mut sim = LockstepSim::<2>::new(compiled);
            for bit in 0..32usize {
                for (i, w) in sim.words[..5].iter_mut().enumerate() {
                    if (bit >> i) & 1 == 1 {
                        w[0] |= 1 << bit;
                    } else {
                        w[1] |= 1 << bit;
                    }
                }
            }
            sim.step(&[0; 2]);
            assert!(
                sim.cell_events.iter().all(|e| *e == [0; 2]),
                "zero masks count nothing"
            );
            sim.words
        };
        for bits in 0..8u64 {
            let domino = synth
                .synthesize(&PhaseAssignment::from_bits(3, bits))
                .unwrap();
            let mapped = map(&domino, &lib);
            let mapped_words = step(&CompiledNetlist::from_mapped(&mapped));
            let block_words = step(&CompiledNetlist::from_domino(&domino));
            // The block's layout: input inverters, gates, then one output
            // inverter per negative-phase output, in output order.
            let first_gate = 5 + domino.input_inverter_count();
            let mut output_inverter = first_gate + domino.gate_count();
            let outputs: Vec<usize> = domino
                .outputs()
                .iter()
                .map(|o| {
                    if o.phase.is_negative() {
                        output_inverter += 1;
                        output_inverter - 1
                    } else if let DominoRef::Gate(i) = o.driver {
                        first_gate + i
                    } else {
                        panic!("every output here is driven by a gate")
                    }
                })
                .collect();
            for lane in 0..2usize {
                for bit in 0..32usize {
                    let at = |words: &[[u64; 2]], w: usize| (words[w][lane] >> bit) & 1 == 1;
                    let values: Vec<bool> = (0..5).map(|i| at(&mapped_words, i)).collect();
                    for (i, &v) in mapped.eval_cells(&values).iter().enumerate() {
                        assert_eq!(
                            at(&mapped_words, 5 + i),
                            v,
                            "bits {bits} lane {lane} bit {bit} cell {i}"
                        );
                    }
                    for (i, &v) in domino.eval_rails(&values).unwrap().iter().enumerate() {
                        assert_eq!(
                            at(&block_words, first_gate + i),
                            v,
                            "bits {bits} lane {lane} bit {bit} gate {i}"
                        );
                    }
                    for (o, &v) in domino.eval(&values).unwrap().iter().enumerate() {
                        assert_eq!(
                            at(&block_words, outputs[o]),
                            v,
                            "bits {bits} lane {lane} bit {bit} output {o}"
                        );
                    }
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
