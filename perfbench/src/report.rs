//! The metric catalogue and the run's printed report: one human-readable
//! line per metric, a `detail` JSON line with exact counts, and the
//! result object as the last line of standard output.

use std::collections::BTreeMap;

use domino_engine::json::Json;

/// End-to-end metrics every workload reports with tracing off.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("peak_rss_mb", "MiB"),
    ("ok_pct", "%"),
    ("mp_power_ma", "mA"),
    ("mp_cells", "cells"),
];

/// Table rows whose `run_job` time is reported as `engine.job_ms.<row>`.
pub const JOB_ROWS: [&str; 14] = [
    "industry1",
    "industry2",
    "industry3",
    "apex7",
    "frg1",
    "x1",
    "x3",
    "apex7_timed",
    "frg1_timed",
    "x1_timed",
    "x3_timed",
    "giant",
    "apex7_sift",
    "x1_sift",
];

/// Public rows whose request bodies are parsed for
/// `engine.spec_parse_ms.<row>`.
pub const PUBLIC_ROWS: [&str; 4] = ["apex7", "frg1", "x1", "x3"];

/// Per-layer metrics every traced run reports: `(name, unit, better)`.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let fixed_head: [(&str, &str, &str); 20] = [
        ("netlist.parse_ms", "ms", "lower"),
        ("bdd.build_ms", "ms", "lower"),
        ("bdd.nodes", "count", "lower"),
        ("bdd.op_cache_hit_rate", "ratio", "higher"),
        ("bdd.sift_ms", "ms", "lower"),
        ("bdd.swaps", "count", "lower"),
        ("bdd.us_per_swap.apex7", "us", "lower"),
        ("bdd.us_per_swap.x1", "us", "lower"),
        ("sgraph.partition_ms", "ms", "lower"),
        ("prob.ms", "ms", "lower"),
        ("search.ma_ms", "ms", "lower"),
        ("search.mp_ms", "ms", "lower"),
        ("search.mp_evaluations", "count", "lower"),
        ("search.commit_ratio", "ratio", "higher"),
        ("synth.ms", "ms", "lower"),
        ("techmap.map_ms", "ms", "lower"),
        ("techmap.sta_ms", "ms", "lower"),
        ("techmap.size_ms", "ms", "lower"),
        ("sim.ms", "ms", "lower"),
        ("sim.words", "count", "lower"),
    ];
    let fixed_tail: [(&str, &str, &str); 15] = [
        ("engine.key_us", "us", "lower"),
        ("engine.cache_probe_us", "us", "lower"),
        ("serve.hit_rtt_ms", "ms", "lower"),
        ("serve.miss_rtt_ms", "ms", "lower"),
        ("serve.queue_wait_ms_per_miss", "ms", "lower"),
        ("serve.exec_ms_per_miss", "ms", "lower"),
        ("serve.miss_wait_ms", "ms", "lower"),
        ("serve.cache_hit_ratio", "ratio", "higher"),
        ("serve.rejected", "count", "lower"),
        ("reactor.accepts_per_request", "ratio", "lower"),
        ("fleet.hop_ms", "ms", "lower"),
        ("fleet.failovers", "count", "lower"),
        ("fleet.coalesced", "count", "higher"),
        ("trace.overhead_pct", "%", "lower"),
        ("engine.unattributed_ms", "ms", "lower"),
    ];
    let own = |(n, u, b): (&str, &'static str, &'static str)| (n.to_string(), u, b);
    let mut all: Vec<_> = fixed_head.into_iter().map(own).collect();
    all.extend(
        JOB_ROWS
            .iter()
            .map(|r| (format!("engine.job_ms.{r}"), "ms", "lower")),
    );
    all.extend(
        PUBLIC_ROWS
            .iter()
            .map(|r| (format!("engine.spec_parse_ms.{r}"), "ms", "lower")),
    );
    all.extend(fixed_tail.into_iter().map(own));
    all
}

/// One run's measurements and verdict.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<String, f64>,
    notes: Vec<String>,
    detail: Vec<(String, Json)>,
    /// Every checked output matched its reference.
    pub correct: bool,
    /// Ops attempted in the timed phase(s).
    pub attempted: u64,
    /// Ops that failed, were refused, or produced a wrong output.
    pub failed: u64,
}

impl Report {
    /// An empty report that is correct until a check says otherwise.
    pub fn new() -> Self {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    /// Sets a metric value.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite value (it could not be printed as JSON).
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(name.to_string(), value);
    }

    /// Adds a human-readable remark printed before the result.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Adds an exact count or fact to the `detail` line.
    pub fn detail(&mut self, key: &str, value: Json) {
        self.detail.push((key.to_string(), value));
    }

    /// Adds an exact count to the `detail` line.
    pub fn count(&mut self, key: &str, n: u64) {
        self.detail(key, Json::Num(n as f64));
    }

    /// Records a failed output check: the run is no longer correct.
    pub fn wrong(&mut self, what: impl Into<String>) {
        let what = what.into();
        eprintln!("perfbench: WRONG OUTPUT: {what}");
        self.notes.push(format!("wrong output: {what}"));
        self.correct = false;
    }

    /// Prints the report. `traced` selects the per-layer catalogue over
    /// the end-to-end one; a per-layer metric the workload does not load
    /// is printed as 0 and marked `n/a`.
    ///
    /// # Panics
    ///
    /// Panics if an end-to-end metric was never set (a benchmark bug).
    pub fn print(&self, workload: &str, traced: bool) {
        let catalogue: Vec<(String, &str)> = if traced {
            per_layer().into_iter().map(|(n, u, _)| (n, u)).collect()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        for note in &self.notes {
            println!("note: {note}");
        }
        let mut metrics = Vec::with_capacity(catalogue.len());
        for (name, unit) in &catalogue {
            let (value, remark) = match self.values.get(name) {
                Some(&v) => (v, ""),
                None if traced => (0.0, "  (n/a: not loaded by this workload)"),
                None => panic!("end-to-end metric {name} was not measured"),
            };
            println!("{workload} {name:<34} {value:>16.6} {unit}{remark}");
            let metric = Json::obj(vec![
                ("value", Json::Num(value)),
                ("unit", Json::Str(unit.to_string())),
            ]);
            metrics.push((name.clone(), metric));
        }
        println!("detail {}", Json::Obj(self.detail.clone()).serialize());
        let result = Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ]);
        println!("{}", result.serialize());
    }
}
