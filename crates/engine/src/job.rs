//! The serializable job model: what to run ([`JobSpec`]), on which circuit
//! ([`CircuitSource`]), and what came out ([`FlowOutcome`]).
//!
//! A [`JobSpec`] captures *every* knob that affects a flow's result — the
//! full [`FlowConfig`], [`Library`] and [`SimConfig`], the PI probability
//! profile, the objective, and the timed-synthesis settings — so that its
//! canonical JSON combined with the circuit's
//! [`structural digest`](domino_netlist::Network::structural_digest) forms a
//! sound content address for the result cache: equal key ⇒ equal outcome.
//!
//! [`FlowOutcome`] is the pure-data result (no netlists), cheap to clone,
//! `PartialEq`-comparable across thread counts, and serialized with the
//! engine's deterministic JSON writer so a cached outcome is byte-identical
//! to a recomputed one.

use std::fmt;
use std::path::Path;

use domino_bdd::ReorderMode;
use domino_netlist::Network;
use domino_phase::flow::FlowConfig;
use domino_phase::power::PowerModel;
use domino_phase::prob::{OrderingChoice, ProbabilityConfig};
use domino_phase::search::{MinAreaConfig, MinPowerConfig};
use domino_phase::{Phase, PhaseAssignment};
use domino_sgraph::MfvsConfig;
use domino_sim::{SimConfig, SimStats};
use domino_techmap::Library;

use crate::error::EngineError;
use crate::json::{parse, Json};

/// Where a job's circuit comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum CircuitSource {
    /// A row of the built-in benchmark suite (`"frg1"`, `"Industry 1"`, ...).
    Suite(String),
    /// A BLIF file on disk, loaded at [`JobSpec::resolve`] time.
    BlifPath(String),
    /// Inline BLIF text (how provided networks are serialized).
    BlifInline(String),
}

/// Which flow(s) a job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunObjective {
    /// Minimum-area baseline only.
    MinArea,
    /// Minimum-power flow only.
    MinPower,
    /// Both, with the timed clock target derived from the MA netlist — the
    /// paper's MA-vs-MP table methodology.
    Compare,
}

impl RunObjective {
    fn tag(self) -> &'static str {
        match self {
            RunObjective::MinArea => "min-area",
            RunObjective::MinPower => "min-power",
            RunObjective::Compare => "compare",
        }
    }

    fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "min-area" | "area" | "ma" => Some(RunObjective::MinArea),
            "min-power" | "power" | "mp" => Some(RunObjective::MinPower),
            "compare" | "both" => Some(RunObjective::Compare),
            _ => None,
        }
    }
}

impl fmt::Display for RunObjective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// Primary-input signal probability profile.
#[derive(Debug, Clone, PartialEq)]
pub enum PiSpec {
    /// One probability for every primary input (the paper uses 0.5).
    Uniform(f64),
    /// Explicit per-input probabilities (must match the PI count).
    PerInput(Vec<f64>),
}

impl PiSpec {
    /// Expands to one probability per primary input of `net`.
    ///
    /// # Errors
    ///
    /// [`EngineError::Spec`] if an explicit profile's length does not match
    /// the circuit's PI count.
    pub fn expand(&self, net: &Network) -> Result<Vec<f64>, EngineError> {
        match self {
            PiSpec::Uniform(p) => Ok(vec![*p; net.inputs().len()]),
            PiSpec::PerInput(ps) => {
                if ps.len() != net.inputs().len() {
                    return Err(EngineError::Spec(format!(
                        "pi probability count {} does not match {} primary inputs",
                        ps.len(),
                        net.inputs().len()
                    )));
                }
                Ok(ps.clone())
            }
        }
    }
}

/// A complete, serializable description of one flow run.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Display name (table row label). Not part of the cache key.
    pub name: String,
    /// Circuit to run on.
    pub source: CircuitSource,
    /// Which flow(s) to run.
    pub objective: RunObjective,
    /// PI signal probabilities.
    pub pi: PiSpec,
    /// Search + probability machinery configuration.
    pub flow: FlowConfig,
    /// Cell library.
    pub library: Library,
    /// Simulation length/seed.
    pub sim: SimConfig,
    /// Timed synthesis: resize to meet this fraction of the unsized MA
    /// delay (`None` = untimed).
    pub timing_fraction: Option<f64>,
    /// Series-stack penalty for the MP objective in timed runs (§4.2).
    pub mp_and_penalty: Option<f64>,
}

impl JobSpec {
    /// An untimed compare job over a suite circuit with paper defaults.
    pub fn suite(name: &str) -> Self {
        JobSpec {
            name: name.to_string(),
            source: CircuitSource::Suite(name.to_string()),
            objective: RunObjective::Compare,
            pi: PiSpec::Uniform(0.5),
            flow: FlowConfig::default(),
            library: Library::standard(),
            sim: SimConfig::default(),
            timing_fraction: None,
            mp_and_penalty: None,
        }
    }

    /// A job over an explicit network (serialized as inline BLIF).
    pub fn for_network(name: &str, net: &Network) -> Self {
        JobSpec {
            source: CircuitSource::BlifInline(domino_netlist::write_blif(net)),
            ..JobSpec::suite(name)
        }
    }

    /// Loads the circuit and pairs it with this spec as a runnable
    /// [`FlowJob`].
    ///
    /// # Errors
    ///
    /// [`EngineError::Spec`] for unknown suite rows, [`EngineError::Io`] for
    /// unreadable BLIF paths, [`EngineError::Netlist`] for invalid BLIF.
    pub fn resolve(self) -> Result<FlowJob, EngineError> {
        let network = match &self.source {
            CircuitSource::Suite(name) => {
                let spec = domino_workloads::row_spec(name)
                    .ok_or_else(|| EngineError::Spec(format!("unknown suite circuit '{name}'")))?;
                domino_workloads::generate(&spec)?
            }
            CircuitSource::BlifPath(path) => {
                // Streaming ingestion: the file is parsed line-by-line, so
                // giant circuits never exist in memory as text.
                match domino_netlist::parse_blif_path(Path::new(path)) {
                    Ok(net) => net,
                    Err(domino_netlist::NetlistError::Io(msg)) => {
                        return Err(EngineError::Io(format!("reading '{path}': {msg}")))
                    }
                    Err(e) => return Err(e.into()),
                }
            }
            CircuitSource::BlifInline(text) => domino_netlist::parse_blif(text)?,
        };
        Ok(FlowJob::new(self, network))
    }

    /// Canonical JSON of the *result-affecting* configuration — everything
    /// except the display name and the circuit source (the circuit itself is
    /// covered by the structural digest).
    pub fn config_json(&self) -> Json {
        Json::obj(vec![
            ("objective", Json::Str(self.objective.tag().to_string())),
            ("pi", pi_to_json(&self.pi)),
            ("flow", flow_to_json(&self.flow)),
            ("library", library_to_json(&self.library)),
            ("sim", sim_to_json(&self.sim)),
            ("timing_fraction", opt_num(self.timing_fraction)),
            ("mp_and_penalty", opt_num(self.mp_and_penalty)),
        ])
    }

    /// Serializes the full spec (including name and source) to JSON.
    pub fn to_json(&self) -> Json {
        let source = match &self.source {
            CircuitSource::Suite(n) => Json::obj(vec![("suite", Json::Str(n.clone()))]),
            CircuitSource::BlifPath(p) => Json::obj(vec![("blif_path", Json::Str(p.clone()))]),
            CircuitSource::BlifInline(t) => Json::obj(vec![("blif", Json::Str(t.clone()))]),
        };
        Json::obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("source", source),
            ("config", self.config_json()),
        ])
    }

    /// Parses a spec serialized by [`JobSpec::to_json`]. Missing config
    /// fields fall back to defaults, so hand-written job files can stay
    /// short: `{"name":"x","source":{"blif_path":"x.blif"}}` is valid.
    ///
    /// # Errors
    ///
    /// [`EngineError::Spec`] on malformed structure or unknown tags, and
    /// for values [`JobSpec::validate`] refuses.
    pub fn from_json(v: &Json) -> Result<Self, EngineError> {
        let name = v
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| EngineError::Spec("job spec missing 'name'".into()))?
            .to_string();
        let source = v
            .get("source")
            .ok_or_else(|| EngineError::Spec("job spec missing 'source'".into()))?;
        let source = if let Some(s) = source.get("suite").and_then(Json::as_str) {
            CircuitSource::Suite(s.to_string())
        } else if let Some(p) = source.get("blif_path").and_then(Json::as_str) {
            CircuitSource::BlifPath(p.to_string())
        } else if let Some(t) = source.get("blif").and_then(Json::as_str) {
            CircuitSource::BlifInline(t.to_string())
        } else {
            return Err(EngineError::Spec(
                "source must have 'suite', 'blif_path' or 'blif'".into(),
            ));
        };
        let defaults = JobSpec::suite(&name);
        let cfg = v.get("config");
        let get = |key: &str| cfg.and_then(|c| c.get(key));
        let objective = match get("objective").and_then(Json::as_str) {
            Some(tag) => RunObjective::from_tag(tag)
                .ok_or_else(|| EngineError::Spec(format!("unknown objective '{tag}'")))?,
            None => defaults.objective,
        };
        let pi = match get("pi") {
            Some(j) => pi_from_json(j)?,
            None => defaults.pi,
        };
        let flow = match get("flow") {
            Some(j) => flow_from_json(j)?,
            None => defaults.flow,
        };
        let library = match get("library") {
            Some(j) => library_from_json(j)?,
            None => defaults.library,
        };
        let sim = match get("sim") {
            Some(j) => sim_from_json(j)?,
            None => defaults.sim,
        };
        let spec = JobSpec {
            name,
            source,
            objective,
            pi,
            flow,
            library,
            sim,
            timing_fraction: get("timing_fraction").and_then(Json::as_f64),
            mp_and_penalty: get("mp_and_penalty").and_then(Json::as_f64),
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Refuses values the flow cannot run: `sim.cycles` of 0 (the currents
    /// would divide by zero), `library.max_fanin` below 2 (mapping could
    /// not split a wide gate) and `flow.area.exhaustive_limit` above 20
    /// (a walk of more than 2²⁰ assignments). [`JobSpec::from_json`] and
    /// every run call it, so a spec built in code is held to the same
    /// bounds as one sent over the wire.
    ///
    /// # Errors
    ///
    /// [`EngineError::Spec`] naming the first field out of bounds.
    pub fn validate(&self) -> Result<(), EngineError> {
        if self.sim.cycles == 0 {
            return Err(EngineError::Spec("sim.cycles must be at least 1".into()));
        }
        if self.library.max_fanin < 2 {
            return Err(EngineError::Spec(
                "library.max_fanin must be at least 2".into(),
            ));
        }
        if self.flow.area.exhaustive_limit > MAX_EXHAUSTIVE_LIMIT {
            return Err(EngineError::Spec(format!(
                "flow.area.exhaustive_limit must be at most {MAX_EXHAUSTIVE_LIMIT}"
            )));
        }
        Ok(())
    }
}

/// The largest `flow.area.exhaustive_limit` a spec may carry: a walk over
/// 2²⁰ assignments takes tens of milliseconds, each further output doubles
/// it, and a running walk cannot be cancelled.
const MAX_EXHAUSTIVE_LIMIT: usize = 20;

/// A [`JobSpec`] paired with its resolved circuit and content-address.
#[derive(Debug, Clone)]
pub struct FlowJob {
    /// The job description.
    pub spec: JobSpec,
    /// The circuit to run.
    pub network: Network,
    key: String,
}

impl FlowJob {
    /// Pairs a spec with an already-built network (no source resolution).
    pub fn new(spec: JobSpec, network: Network) -> Self {
        let key = cache_key(&network, &spec);
        FlowJob { spec, network, key }
    }

    /// The content-address of this job: a stable hex digest of the
    /// network's structure and every result-affecting spec field. Two jobs
    /// with equal keys produce equal [`FlowOutcome`]s (modulo the display
    /// name, which is not hashed).
    pub fn cache_key(&self) -> &str {
        &self.key
    }
}

/// Computes the content-address for running `spec` on `net`. `sim.shards`
/// is in the key: the shard count defines the vector streams and therefore
/// the measured bits.
pub fn cache_key(net: &Network, spec: &JobSpec) -> String {
    let config = spec.config_json().serialize();
    content_address(net, config, spec.flow.probability.reorder)
}

/// Computes the content-address of a job's *warm state* — the converged
/// probability table and kernel statistics that [`crate::SnapshotStore`]
/// persists across restarts.
///
/// Deliberately **narrower** than [`cache_key`]: the kernel stage depends
/// only on the circuit structure, the probability configuration, and the
/// primary-input probabilities. Jobs that differ in objective, library,
/// simulation settings, timing fraction or MP penalty therefore share one
/// snapshot — an untimed compare warms the kernel a timed or
/// single-objective run of the same circuit loads. PI probabilities are
/// hashed by exact bit pattern, matching the bit-identity contract of the
/// stored probability table.
pub fn snapshot_key(net: &Network, prob: &ProbabilityConfig, pi_probs: &[f64]) -> String {
    let mut config = probability_to_json(prob).serialize();
    config.push('\n');
    for &p in pi_probs {
        config.push_str(&format!("{:016x}", p.to_bits()));
    }
    content_address(net, config, prob.reorder)
}

/// The sifting path's revision, mixed into both content addresses of a
/// spec whose `reorder` is not `off`. The same sifted spec yields other
/// outcome bytes (swaps, final order, unique-table counters) when the
/// sift takes another path, so each such change bumps this, and a store
/// written before it never answers for a spec after it. Revision 2
/// reclaims dead nodes in every swap and orders the agenda by live
/// population.
const SIFT_REVISION: &str = "sift revision 2";

/// A 128-bit hex address over `config` and the network's structural
/// digest, with [`SIFT_REVISION`] appended for an active `reorder`.
fn content_address(net: &Network, mut config: String, reorder: ReorderMode) -> String {
    if reorder != ReorderMode::Off {
        config.push('\n');
        config.push_str(SIFT_REVISION);
    }
    let net_digest = net.structural_digest();
    // Two independent FNV-1a passes (salted differently) give a 128-bit
    // address; collisions are negligible at any realistic cache size.
    let lo = fnv1a64(config.as_bytes(), net_digest ^ 0x9E37_79B9_7F4A_7C15);
    let hi = fnv1a64(
        config.as_bytes(),
        net_digest.rotate_left(31) ^ 0x517C_C1B7_2722_0A95,
    );
    format!("{hi:016x}{lo:016x}")
}

fn fnv1a64(bytes: &[u8], seed: u64) -> u64 {
    let mut state = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(0x0000_0100_0000_01b3);
    }
    state
}

/// Summary of a dynamic variable reordering (sifting) campaign, recorded
/// when a flow ran with a reorder mode other than `off`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReorderInfo {
    /// The configured mode (`auto` or `sift`).
    pub mode: ReorderMode,
    /// Adjacent level swaps performed across all sifting passes.
    pub swaps: u64,
    /// Reachable BDD nodes before the first sifting pass.
    pub nodes_before: usize,
    /// The final variable order, level 0 first (variable indices).
    pub final_order: Vec<usize>,
}

impl ReorderInfo {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("mode", Json::Str(self.mode.as_str().into())),
            ("swaps", Json::Num(self.swaps as f64)),
            ("nodes_before", Json::Num(self.nodes_before as f64)),
            (
                "final_order",
                Json::Arr(
                    self.final_order
                        .iter()
                        .map(|&v| Json::Num(v as f64))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, EngineError> {
        let mode = v
            .get("mode")
            .and_then(Json::as_str)
            .ok_or_else(|| missing("mode"))?
            .parse::<ReorderMode>()
            .map_err(EngineError::Spec)?;
        let final_order = v
            .get("final_order")
            .and_then(Json::as_arr)
            .ok_or_else(|| missing("final_order"))?
            .iter()
            .map(|j| j.as_usize().ok_or_else(|| missing("final_order")))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ReorderInfo {
            mode,
            swaps: req_usize(v, "swaps")? as u64,
            nodes_before: req_usize(v, "nodes_before")?,
            final_order,
        })
    }
}

/// BDD kernel statistics of one flow side: how big the shared BDDs were
/// and how the unique table / operation cache performed while building
/// them. Surfaced by `dominoc run --stats`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BddKernelStats {
    /// Shared BDD node count used for the probability computation.
    pub nodes: usize,
    /// Unique-table lookups answered by hash-consing.
    pub unique_hits: u64,
    /// Unique-table lookups that interned a fresh node.
    pub unique_misses: u64,
    /// Operation-cache hits.
    pub cache_hits: u64,
    /// Operation-cache misses.
    pub cache_misses: u64,
    /// Dynamic reordering summary; `None` when the flow ran with
    /// `reorder: off` (and in every outcome cached before reordering
    /// existed).
    pub reorder: Option<ReorderInfo>,
}

impl BddKernelStats {
    /// Snapshots a manager's [`domino_bdd::BddStats`] counters, paired
    /// with the flow's shared BDD node count (the §4.2.2 metric — not the
    /// manager's arena size).
    pub fn from_manager(stats: &domino_bdd::BddStats, nodes: usize) -> Self {
        BddKernelStats {
            nodes,
            unique_hits: stats.unique_hits,
            unique_misses: stats.unique_misses,
            cache_hits: stats.cache_hits,
            cache_misses: stats.cache_misses,
            reorder: None,
        }
    }

    /// Attaches a reordering summary (builder style, used by the runner).
    #[must_use]
    pub fn with_reorder(mut self, reorder: Option<ReorderInfo>) -> Self {
        self.reorder = reorder;
        self
    }

    /// Unique-table hit fraction, or `None` before any lookups. (Defined
    /// here as well as on [`domino_bdd::BddStats`] because this type is
    /// what outcome JSON deserializes back into.)
    pub fn unique_hit_rate(&self) -> Option<f64> {
        hit_rate(self.unique_hits, self.unique_misses)
    }

    /// Operation-cache hit fraction, or `None` before any lookups.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        hit_rate(self.cache_hits, self.cache_misses)
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("nodes", Json::Num(self.nodes as f64)),
            ("unique_hits", Json::Num(self.unique_hits as f64)),
            ("unique_misses", Json::Num(self.unique_misses as f64)),
            ("cache_hits", Json::Num(self.cache_hits as f64)),
            ("cache_misses", Json::Num(self.cache_misses as f64)),
        ];
        // Emitted only when reordering ran, so `reorder: off` outcomes stay
        // byte-identical to pre-reordering builds.
        if let Some(reorder) = &self.reorder {
            fields.push(("reorder", reorder.to_json()));
        }
        Json::obj(fields)
    }

    fn from_json(v: &Json) -> Result<Self, EngineError> {
        Ok(BddKernelStats {
            nodes: req_usize(v, "nodes")?,
            unique_hits: req_usize(v, "unique_hits")? as u64,
            unique_misses: req_usize(v, "unique_misses")? as u64,
            cache_hits: req_usize(v, "cache_hits")? as u64,
            cache_misses: req_usize(v, "cache_misses")? as u64,
            reorder: match v.get("reorder") {
                None | Some(Json::Null) => None,
                Some(j) => Some(ReorderInfo::from_json(j)?),
            },
        })
    }
}

fn hit_rate(hits: u64, misses: u64) -> Option<f64> {
    let total = hits + misses;
    if total == 0 {
        None
    } else {
        Some(hits as f64 / total as f64)
    }
}

fn sim_stats_to_json(stats: &SimStats) -> Json {
    Json::obj(vec![
        ("vectors", Json::Num(stats.vectors as f64)),
        ("words", Json::Num(stats.words as f64)),
        ("measured_words", Json::Num(stats.measured_words as f64)),
        ("shards", Json::Num(stats.shards as f64)),
    ])
}

fn sim_stats_from_json(v: &Json) -> Result<SimStats, EngineError> {
    Ok(SimStats {
        vectors: req_usize(v, "vectors")? as u64,
        words: req_usize(v, "words")? as u64,
        measured_words: req_usize(v, "measured_words")? as u64,
        // Optional so outcomes cached before the sharded engine still parse.
        shards: v.get("shards").and_then(Json::as_usize).unwrap_or(0) as u64,
    })
}

/// One flow variant's result (the MA or MP side of a table row).
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectiveResult {
    /// Mapped standard-cell count (the "Size" column).
    pub size: usize,
    /// Simulated capacitive current, mA.
    pub cap_ma: f64,
    /// Simulated short-circuit current, mA.
    pub short_circuit_ma: f64,
    /// Simulated leakage current, mA.
    pub leakage_ma: f64,
    /// Estimated (BDD) switching power, for reference.
    pub estimated_switching: f64,
    /// Worst arrival after mapping (and sizing, if timed), ps.
    pub worst_arrival_ps: f64,
    /// Whether the timing constraint was met (timed runs).
    pub timing_met: bool,
    /// Search evaluations performed.
    pub evaluations: usize,
    /// Search commits performed.
    pub commits: usize,
    /// The final phase assignment as a `+`/`-` string, output order.
    pub assignment: String,
    /// BDD kernel statistics of this side's probability computation.
    pub bdd: BddKernelStats,
    /// Packed-simulation work accounting (vectors simulated, words
    /// evaluated) of this side's power measurement.
    pub sim: SimStats,
}

impl ObjectiveResult {
    /// Total simulated current, mA (the "Pwr" column).
    pub fn power_ma(&self) -> f64 {
        self.cap_ma + self.short_circuit_ma + self.leakage_ma
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("size", Json::Num(self.size as f64)),
            ("cap_ma", Json::Num(self.cap_ma)),
            ("short_circuit_ma", Json::Num(self.short_circuit_ma)),
            ("leakage_ma", Json::Num(self.leakage_ma)),
            ("estimated_switching", Json::Num(self.estimated_switching)),
            ("worst_arrival_ps", Json::Num(self.worst_arrival_ps)),
            ("timing_met", Json::Bool(self.timing_met)),
            ("evaluations", Json::Num(self.evaluations as f64)),
            ("commits", Json::Num(self.commits as f64)),
            ("assignment", Json::Str(self.assignment.clone())),
            ("bdd", self.bdd.to_json()),
            ("sim", sim_stats_to_json(&self.sim)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, EngineError> {
        Ok(ObjectiveResult {
            size: req_usize(v, "size")?,
            cap_ma: req_f64(v, "cap_ma")?,
            short_circuit_ma: req_f64(v, "short_circuit_ma")?,
            leakage_ma: req_f64(v, "leakage_ma")?,
            estimated_switching: req_f64(v, "estimated_switching")?,
            worst_arrival_ps: req_f64(v, "worst_arrival_ps")?,
            timing_met: req_bool(v, "timing_met")?,
            evaluations: req_usize(v, "evaluations")?,
            commits: req_usize(v, "commits")?,
            assignment: v
                .get("assignment")
                .and_then(Json::as_str)
                .ok_or_else(|| missing("assignment"))?
                .to_string(),
            // Optional so outcomes cached before the kernel stats existed
            // still parse.
            bdd: match v.get("bdd") {
                None | Some(Json::Null) => BddKernelStats::default(),
                Some(j) => BddKernelStats::from_json(j)?,
            },
            // Optional so outcomes cached before the packed engine existed
            // still parse.
            sim: match v.get("sim") {
                None | Some(Json::Null) => SimStats::default(),
                Some(j) => sim_stats_from_json(j)?,
            },
        })
    }
}

/// Everything one job produced. Pure data: cacheable, comparable, printable.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowOutcome {
    /// Display name from the spec.
    pub name: String,
    /// The job's content-address (cache key).
    pub key: String,
    /// Primary input count of the circuit.
    pub pis: usize,
    /// Primary output count of the circuit.
    pub pos: usize,
    /// Minimum-area result (`objective` = `MinArea` or `Compare`).
    pub ma: Option<ObjectiveResult>,
    /// Minimum-power result (`objective` = `MinPower` or `Compare`).
    pub mp: Option<ObjectiveResult>,
    /// The derived clock target for timed compare runs, ps.
    pub clock_ps: Option<f64>,
}

impl FlowOutcome {
    /// `% Area Pen.` column: MP size overhead relative to MA.
    /// `None` unless both sides ran.
    pub fn area_penalty_pct(&self) -> Option<f64> {
        let (ma, mp) = (self.ma.as_ref()?, self.mp.as_ref()?);
        Some(100.0 * (mp.size as f64 - ma.size as f64) / ma.size as f64)
    }

    /// `% Pwr Sav.` column: MP power saving relative to MA.
    /// `None` unless both sides ran.
    pub fn power_saving_pct(&self) -> Option<f64> {
        let (ma, mp) = (self.ma.as_ref()?, self.mp.as_ref()?);
        Some(100.0 * (ma.power_ma() - mp.power_ma()) / ma.power_ma())
    }

    /// Serializes to JSON (deterministic; see the cache's byte-identity
    /// guarantee).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("key", Json::Str(self.key.clone())),
            ("pis", Json::Num(self.pis as f64)),
            ("pos", Json::Num(self.pos as f64)),
            (
                "ma",
                self.ma
                    .as_ref()
                    .map(ObjectiveResult::to_json)
                    .unwrap_or(Json::Null),
            ),
            (
                "mp",
                self.mp
                    .as_ref()
                    .map(ObjectiveResult::to_json)
                    .unwrap_or(Json::Null),
            ),
            ("clock_ps", opt_num(self.clock_ps)),
        ])
    }

    /// Parses an outcome serialized by [`FlowOutcome::to_json`].
    ///
    /// # Errors
    ///
    /// [`EngineError::Spec`] on missing or mistyped fields.
    pub fn from_json(v: &Json) -> Result<Self, EngineError> {
        let side = |key: &str| -> Result<Option<ObjectiveResult>, EngineError> {
            match v.get(key) {
                None | Some(Json::Null) => Ok(None),
                Some(j) => Ok(Some(ObjectiveResult::from_json(j)?)),
            }
        };
        Ok(FlowOutcome {
            name: v
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| missing("name"))?
                .to_string(),
            key: v
                .get("key")
                .and_then(Json::as_str)
                .ok_or_else(|| missing("key"))?
                .to_string(),
            pis: req_usize(v, "pis")?,
            pos: req_usize(v, "pos")?,
            ma: side("ma")?,
            mp: side("mp")?,
            clock_ps: v.get("clock_ps").and_then(Json::as_f64),
        })
    }

    /// Parses an outcome from JSON text.
    ///
    /// # Errors
    ///
    /// [`EngineError::Spec`] on malformed JSON or missing fields.
    pub fn from_json_text(text: &str) -> Result<Self, EngineError> {
        let v = parse(text).map_err(|e| EngineError::Spec(e.to_string()))?;
        FlowOutcome::from_json(&v)
    }
}

/// Renders a phase assignment as the `+`/`-` string stored in outcomes.
pub fn assignment_string(pa: &PhaseAssignment) -> String {
    pa.iter()
        .map(|p| if p == Phase::Negative { '-' } else { '+' })
        .collect()
}

// ---- JSON codecs for the foreign configuration structs ----

fn opt_num(v: Option<f64>) -> Json {
    v.map(Json::Num).unwrap_or(Json::Null)
}

fn missing(key: &str) -> EngineError {
    EngineError::Spec(format!("missing or mistyped field '{key}'"))
}

fn req_f64(v: &Json, key: &str) -> Result<f64, EngineError> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| missing(key))
}

fn req_usize(v: &Json, key: &str) -> Result<usize, EngineError> {
    v.get(key)
        .and_then(Json::as_usize)
        .ok_or_else(|| missing(key))
}

/// Serializes a `u64` exactly: as a decimal string. `Json::Num` carries an
/// `f64`, which silently rounds integers above 2^53 — unacceptable for
/// seeds, which feed both the flow and the cache key.
fn u64_to_json(v: u64) -> Json {
    Json::Str(v.to_string())
}

fn u64_from_json(v: &Json) -> Option<u64> {
    match v {
        Json::Str(s) => s.parse().ok(),
        // Tolerated for hand-written job files; exact for values < 2^53.
        _ => v.as_u64(),
    }
}

fn req_u64(v: &Json, key: &str) -> Result<u64, EngineError> {
    v.get(key)
        .and_then(u64_from_json)
        .ok_or_else(|| missing(key))
}

fn req_bool(v: &Json, key: &str) -> Result<bool, EngineError> {
    v.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| missing(key))
}

fn pi_to_json(pi: &PiSpec) -> Json {
    match pi {
        PiSpec::Uniform(p) => Json::obj(vec![("uniform", Json::Num(*p))]),
        PiSpec::PerInput(ps) => Json::obj(vec![(
            "per_input",
            Json::Arr(ps.iter().map(|&p| Json::Num(p)).collect()),
        )]),
    }
}

fn pi_from_json(v: &Json) -> Result<PiSpec, EngineError> {
    if let Some(p) = v.get("uniform").and_then(Json::as_f64) {
        return Ok(PiSpec::Uniform(p));
    }
    if let Some(arr) = v.get("per_input").and_then(Json::as_arr) {
        let ps = arr
            .iter()
            .map(|j| j.as_f64().ok_or_else(|| missing("per_input")))
            .collect::<Result<Vec<_>, _>>()?;
        return Ok(PiSpec::PerInput(ps));
    }
    Err(EngineError::Spec(
        "pi must have 'uniform' or 'per_input'".into(),
    ))
}

fn ordering_to_json(o: &OrderingChoice) -> Json {
    match o {
        OrderingChoice::Paper => Json::Str("paper".into()),
        OrderingChoice::Topological => Json::Str("topological".into()),
        OrderingChoice::Random(seed) => Json::obj(vec![("random", u64_to_json(*seed))]),
        OrderingChoice::Custom(order) => Json::obj(vec![(
            "custom",
            Json::Arr(order.iter().map(|&i| Json::Num(i as f64)).collect()),
        )]),
    }
}

fn ordering_from_json(v: &Json) -> Result<OrderingChoice, EngineError> {
    match v {
        Json::Str(s) if s == "paper" => Ok(OrderingChoice::Paper),
        Json::Str(s) if s == "topological" => Ok(OrderingChoice::Topological),
        _ => {
            if let Some(seed) = v.get("random").and_then(u64_from_json) {
                return Ok(OrderingChoice::Random(seed));
            }
            if let Some(arr) = v.get("custom").and_then(Json::as_arr) {
                let order = arr
                    .iter()
                    .map(|j| j.as_usize().ok_or_else(|| missing("custom")))
                    .collect::<Result<Vec<_>, _>>()?;
                return Ok(OrderingChoice::Custom(order));
            }
            Err(EngineError::Spec("unknown BDD ordering".into()))
        }
    }
}

/// Canonical JSON of the probability-stage configuration. Shared by the
/// flow section of the cache key and by [`snapshot_key`], so the two
/// content addresses cannot disagree about what the kernel stage depends
/// on.
fn probability_to_json(prob: &ProbabilityConfig) -> Json {
    let mut probability = vec![
        ("ordering", ordering_to_json(&prob.ordering)),
        ("mfvs_symmetry", Json::Bool(prob.mfvs.symmetry)),
        (
            "mfvs_descending_weight",
            Json::Bool(prob.mfvs.descending_weight),
        ),
        ("sweeps", Json::Num(prob.sweeps as f64)),
        (
            "cut_latch_probability",
            Json::Num(prob.cut_latch_probability),
        ),
        (
            "convergence_tolerance",
            Json::Num(prob.convergence_tolerance),
        ),
    ];
    // Reordering is result-affecting, so it must join the cache key — but
    // only when active, so `reorder: off` specs keep the exact content
    // address (and cached outcomes) they had before reordering existed.
    if prob.reorder != ReorderMode::Off {
        probability.push(("reorder", Json::Str(prob.reorder.as_str().into())));
    }
    Json::obj(probability)
}

fn flow_to_json(flow: &FlowConfig) -> Json {
    Json::obj(vec![
        ("probability", probability_to_json(&flow.probability)),
        (
            "power",
            Json::obj(vec![
                ("gate_cap", Json::Num(flow.power.model.gate_cap)),
                ("and_penalty", Json::Num(flow.power.model.and_penalty)),
                ("or_penalty", Json::Num(flow.power.model.or_penalty)),
                ("inverter_cap", Json::Num(flow.power.model.inverter_cap)),
                ("always_commit", Json::Bool(flow.power.always_commit)),
                ("k_guided", Json::Bool(flow.power.k_guided)),
                ("seed", u64_to_json(flow.power.seed)),
                (
                    "refinement_passes",
                    Json::Num(flow.power.refinement_passes as f64),
                ),
            ]),
        ),
        (
            "area",
            Json::obj(vec![
                (
                    "exhaustive_limit",
                    Json::Num(flow.area.exhaustive_limit as f64),
                ),
                ("max_passes", Json::Num(flow.area.max_passes as f64)),
            ]),
        ),
    ])
}

fn flow_from_json(v: &Json) -> Result<FlowConfig, EngineError> {
    let p = v.get("probability").ok_or_else(|| missing("probability"))?;
    let pw = v.get("power").ok_or_else(|| missing("power"))?;
    let a = v.get("area").ok_or_else(|| missing("area"))?;
    Ok(FlowConfig {
        probability: ProbabilityConfig {
            ordering: ordering_from_json(p.get("ordering").ok_or_else(|| missing("ordering"))?)?,
            mfvs: MfvsConfig {
                symmetry: req_bool(p, "mfvs_symmetry")?,
                descending_weight: req_bool(p, "mfvs_descending_weight")?,
            },
            sweeps: req_usize(p, "sweeps")?,
            cut_latch_probability: req_f64(p, "cut_latch_probability")?,
            // Optional so short hand-written job files stay valid.
            convergence_tolerance: p
                .get("convergence_tolerance")
                .and_then(Json::as_f64)
                .unwrap_or_default(),
            // Optional: absent means `off` (the historical behaviour).
            reorder: match p.get("reorder").and_then(Json::as_str) {
                None => ReorderMode::Off,
                Some(s) => s.parse().map_err(EngineError::Spec)?,
            },
        },
        power: MinPowerConfig {
            model: PowerModel {
                gate_cap: req_f64(pw, "gate_cap")?,
                and_penalty: req_f64(pw, "and_penalty")?,
                or_penalty: req_f64(pw, "or_penalty")?,
                inverter_cap: req_f64(pw, "inverter_cap")?,
            },
            always_commit: req_bool(pw, "always_commit")?,
            k_guided: req_bool(pw, "k_guided")?,
            seed: req_u64(pw, "seed")?,
            refinement_passes: req_usize(pw, "refinement_passes")?,
        },
        area: MinAreaConfig {
            exhaustive_limit: req_usize(a, "exhaustive_limit")?,
            max_passes: req_usize(a, "max_passes")?,
        },
    })
}

fn library_to_json(lib: &Library) -> Json {
    Json::obj(vec![
        ("max_fanin", Json::Num(lib.max_fanin as f64)),
        ("and_base_ps", Json::Num(lib.and_base_ps)),
        ("and_stack_ps", Json::Num(lib.and_stack_ps)),
        ("or_base_ps", Json::Num(lib.or_base_ps)),
        ("or_stack_ps", Json::Num(lib.or_stack_ps)),
        ("inv_ps", Json::Num(lib.inv_ps)),
        ("dff_clk_to_q_ps", Json::Num(lib.dff_clk_to_q_ps)),
        ("load_ps_per_ff", Json::Num(lib.load_ps_per_ff)),
        ("input_cap_ff", Json::Num(lib.input_cap_ff)),
        ("self_cap_ff", Json::Num(lib.self_cap_ff)),
        ("clock_cap_ff", Json::Num(lib.clock_cap_ff)),
        ("leak_ua", Json::Num(lib.leak_ua)),
        ("vdd", Json::Num(lib.vdd)),
        ("clock_mhz", Json::Num(lib.clock_mhz)),
    ])
}

fn library_from_json(v: &Json) -> Result<Library, EngineError> {
    Ok(Library {
        max_fanin: req_usize(v, "max_fanin")?,
        and_base_ps: req_f64(v, "and_base_ps")?,
        and_stack_ps: req_f64(v, "and_stack_ps")?,
        or_base_ps: req_f64(v, "or_base_ps")?,
        or_stack_ps: req_f64(v, "or_stack_ps")?,
        inv_ps: req_f64(v, "inv_ps")?,
        dff_clk_to_q_ps: req_f64(v, "dff_clk_to_q_ps")?,
        load_ps_per_ff: req_f64(v, "load_ps_per_ff")?,
        input_cap_ff: req_f64(v, "input_cap_ff")?,
        self_cap_ff: req_f64(v, "self_cap_ff")?,
        clock_cap_ff: req_f64(v, "clock_cap_ff")?,
        leak_ua: req_f64(v, "leak_ua")?,
        vdd: req_f64(v, "vdd")?,
        clock_mhz: req_f64(v, "clock_mhz")?,
    })
}

fn sim_to_json(sim: &SimConfig) -> Json {
    Json::obj(vec![
        ("cycles", Json::Num(sim.cycles as f64)),
        ("warmup", Json::Num(sim.warmup as f64)),
        ("seed", u64_to_json(sim.seed)),
        (
            "adaptive_tol_ppm",
            Json::Num(f64::from(sim.adaptive_tol_ppm)),
        ),
        ("shards", Json::Num(f64::from(sim.shards))),
        // A constant: every simulation runs on one thread, and the field
        // stays so that cache keys, and the entries stored under them, do
        // not move. `sim_from_json` ignores an incoming `threads`.
        ("threads", Json::Num(1.0)),
    ])
}

fn sim_from_json(v: &Json) -> Result<SimConfig, EngineError> {
    let defaults = SimConfig::default();
    Ok(SimConfig {
        cycles: req_usize(v, "cycles")?,
        warmup: req_usize(v, "warmup")?,
        seed: req_u64(v, "seed")?,
        // Optional so job files written before adaptive mode stay valid —
        // but a present-and-malformed value must fail loudly like every
        // other field, not silently disable adaptive mode.
        adaptive_tol_ppm: match v.get("adaptive_tol_ppm") {
            None | Some(Json::Null) => 0,
            Some(j) => j
                .as_usize()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| missing("adaptive_tol_ppm"))?,
        },
        // Optional (pre-sharding job files), same fail-loudly rule.
        shards: match v.get("shards") {
            None | Some(Json::Null) => defaults.shards,
            Some(j) => j
                .as_usize()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| missing("shards"))?,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_json_roundtrip() {
        let mut spec = JobSpec::suite("frg1");
        spec.timing_fraction = Some(0.85);
        spec.mp_and_penalty = Some(2.5);
        spec.flow.power.refinement_passes = 3;
        spec.flow.probability.ordering = OrderingChoice::Random(9);
        // Above 2^53: would be silently rounded if seeds went through f64.
        spec.sim.seed = 9_007_199_254_740_993;
        spec.sim.shards = 4;
        spec.pi = PiSpec::PerInput(vec![0.25, 0.75]);
        let back = JobSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn minimal_spec_json_uses_defaults() {
        let v = crate::json::parse(r#"{"name":"x","source":{"suite":"frg1"}}"#).unwrap();
        let spec = JobSpec::from_json(&v).unwrap();
        assert_eq!(spec.objective, RunObjective::Compare);
        assert_eq!(spec.flow, FlowConfig::default());
        assert_eq!(spec.pi, PiSpec::Uniform(0.5));
    }

    #[test]
    fn cache_key_separates_config_and_circuit() {
        let job = JobSpec::suite("frg1").resolve().unwrap();
        let same = JobSpec::suite("frg1").resolve().unwrap();
        assert_eq!(job.cache_key(), same.cache_key());

        let mut timed_spec = JobSpec::suite("frg1");
        timed_spec.timing_fraction = Some(0.85);
        let timed = timed_spec.resolve().unwrap();
        assert_ne!(job.cache_key(), timed.cache_key());

        let other = JobSpec::suite("x1").resolve().unwrap();
        assert_ne!(job.cache_key(), other.cache_key());
    }

    #[test]
    fn sim_threads_do_not_split_the_cache() {
        // Simulations run on one thread: a spec carrying any `threads`
        // parses to the key of one without...
        let a = JobSpec::suite("frg1").resolve().unwrap();
        let text = a.spec.to_json().serialize();
        assert!(text.contains(r#""threads":1"#));
        for threads in ["8", "0", "null"] {
            let carried = text.replace(r#""threads":1"#, &format!(r#""threads":{threads}"#));
            let spec = JobSpec::from_json(&parse(&carried).unwrap()).unwrap();
            assert_eq!(spec.resolve().unwrap().cache_key(), a.cache_key());
        }
        // ...while shards define the vector streams and stay in the key.
        let mut sharded_spec = JobSpec::suite("frg1");
        sharded_spec.sim.shards = 1;
        let c = sharded_spec.resolve().unwrap();
        assert_ne!(a.cache_key(), c.cache_key());
    }

    #[test]
    fn specs_the_flow_cannot_run_are_refused() {
        let base = JobSpec::suite("frg1");
        let mut zero_cycles = base.clone();
        zero_cycles.sim.cycles = 0;
        let mut unit_fanin = base.clone();
        unit_fanin.library.max_fanin = 1;
        let mut no_fanin = base.clone();
        no_fanin.library.max_fanin = 0;
        let mut wide_walk = base.clone();
        wide_walk.flow.area.exhaustive_limit = 21;
        for (spec, field) in [
            (zero_cycles, "sim.cycles"),
            (unit_fanin, "library.max_fanin"),
            (no_fanin, "library.max_fanin"),
            (wide_walk, "flow.area.exhaustive_limit"),
        ] {
            match JobSpec::from_json(&spec.to_json()) {
                Err(EngineError::Spec(msg)) => assert!(msg.contains(field), "{msg}"),
                other => panic!("{field}: expected a spec error, got {other:?}"),
            }
            match spec.validate() {
                Err(EngineError::Spec(msg)) => assert!(msg.contains(field), "{msg}"),
                other => panic!("{field}: expected a spec error, got {other:?}"),
            }
        }
        // The bounds themselves are accepted.
        let mut edge = base;
        edge.sim.cycles = 1;
        edge.library.max_fanin = 2;
        edge.flow.area.exhaustive_limit = 20;
        edge.validate().unwrap();
        assert_eq!(JobSpec::from_json(&edge.to_json()).unwrap(), edge);
    }

    #[test]
    fn snapshot_key_is_narrower_than_cache_key() {
        let job = JobSpec::suite("frg1").resolve().unwrap();
        let pi = job.spec.pi.expand(&job.network).unwrap();
        let base = snapshot_key(&job.network, &job.spec.flow.probability, &pi);

        // Knobs downstream of the kernel stage split the cache key but
        // share the snapshot: an untimed compare warms the timed run.
        let mut timed_spec = JobSpec::suite("frg1");
        timed_spec.timing_fraction = Some(0.85);
        timed_spec.mp_and_penalty = Some(2.5);
        timed_spec.objective = RunObjective::MinPower;
        timed_spec.sim.cycles = 16;
        let timed = timed_spec.resolve().unwrap();
        assert_ne!(job.cache_key(), timed.cache_key());
        assert_eq!(
            snapshot_key(&timed.network, &timed.spec.flow.probability, &pi),
            base
        );

        // Kernel-stage knobs split the snapshot key.
        let mut sifted = job.spec.flow.probability.clone();
        sifted.reorder = ReorderMode::Sift;
        assert_ne!(snapshot_key(&job.network, &sifted, &pi), base);
        let mut skewed = pi.clone();
        skewed[0] = 0.25;
        assert_ne!(
            snapshot_key(&job.network, &job.spec.flow.probability, &skewed),
            base
        );
        let other = JobSpec::suite("x1").resolve().unwrap();
        let other_pi = other.spec.pi.expand(&other.network).unwrap();
        assert_ne!(
            snapshot_key(&other.network, &other.spec.flow.probability, &other_pi),
            base
        );
    }

    /// Keys computed before dead-node reclamation changed the sifting
    /// path, on frg1's suite spec: a store written then must keep serving
    /// unsifted jobs and must not serve sifted ones.
    #[test]
    fn only_sifted_specs_moved_off_their_earlier_keys() {
        let earlier = [
            (
                ReorderMode::Off,
                "d124e5efb3cca19bfcfed323b7503b94",
                "0bbeeafa8dfda3f7a047c581648c0c06",
            ),
            (
                ReorderMode::Sift,
                "93d175487d9cc4789902c56c02cb8799",
                "59a7303ab8d3ce10deb2ade0a8919df7",
            ),
        ];
        for (reorder, cache, snapshot) in earlier {
            let mut spec = JobSpec::suite("frg1");
            spec.flow.probability.reorder = reorder;
            let job = spec.resolve().unwrap();
            let pi = job.spec.pi.expand(&job.network).unwrap();
            let now = (
                job.cache_key().to_string(),
                snapshot_key(&job.network, &job.spec.flow.probability, &pi),
            );
            if reorder == ReorderMode::Off {
                assert_eq!(now, (cache.to_string(), snapshot.to_string()));
            } else {
                assert_ne!(now.0, cache, "sifted cache key did not move");
                assert_ne!(now.1, snapshot, "sifted snapshot key did not move");
            }
        }
    }

    #[test]
    fn display_name_is_not_part_of_the_key() {
        let a = JobSpec::suite("frg1").resolve().unwrap();
        let mut renamed_spec = JobSpec::suite("frg1");
        renamed_spec.name = "row 5".into();
        let b = renamed_spec.resolve().unwrap();
        assert_eq!(a.cache_key(), b.cache_key());
    }

    #[test]
    fn inline_blif_and_suite_share_content_address() {
        // Content addressing: the same circuit text reaches the same key
        // regardless of where it came from.
        let via_suite = JobSpec::suite("frg1").resolve().unwrap();
        let spec = JobSpec::for_network("frg1", &via_suite.network);
        let via_blif = spec.resolve().unwrap();
        assert_eq!(via_suite.cache_key(), via_blif.cache_key());
    }

    #[test]
    fn outcome_json_roundtrip() {
        let outcome = FlowOutcome {
            name: "frg1".into(),
            key: "ab".repeat(16),
            pis: 31,
            pos: 3,
            ma: Some(ObjectiveResult {
                size: 98,
                cap_ma: 1.25,
                short_circuit_ma: 0.014,
                leakage_ma: 0.002,
                estimated_switching: 40.5,
                worst_arrival_ps: 310.0,
                timing_met: true,
                evaluations: 8,
                commits: 2,
                assignment: "+-+".into(),
                bdd: BddKernelStats {
                    nodes: 50,
                    unique_hits: 120,
                    unique_misses: 48,
                    cache_hits: 30,
                    cache_misses: 90,
                    reorder: Some(ReorderInfo {
                        mode: ReorderMode::Sift,
                        swaps: 17,
                        nodes_before: 80,
                        final_order: vec![2, 0, 1],
                    }),
                },
                sim: SimStats {
                    vectors: 4096,
                    words: 80,
                    measured_words: 64,
                    shards: 8,
                },
            }),
            mp: None,
            clock_ps: Some(263.5),
        };
        let text = outcome.to_json().serialize();
        assert_eq!(FlowOutcome::from_json_text(&text).unwrap(), outcome);
        // Determinism: re-serializing the parsed value is byte-identical.
        assert_eq!(
            FlowOutcome::from_json_text(&text)
                .unwrap()
                .to_json()
                .serialize(),
            text
        );
    }

    #[test]
    fn unknown_suite_row_is_a_spec_error() {
        let err = JobSpec::suite("nonesuch").resolve().unwrap_err();
        assert!(matches!(err, EngineError::Spec(_)), "{err}");
    }

    #[test]
    fn assignment_string_renders_phases() {
        let pa = PhaseAssignment::from_bits(4, 0b0101);
        let s = assignment_string(&pa);
        assert_eq!(s.len(), 4);
        assert!(s.chars().all(|c| c == '+' || c == '-'));
    }
}
