//! The three workloads and the measurement plumbing they share.

pub mod batch;
pub mod gateway;

use std::time::{Duration, Instant};

use domino_engine::json::Json;

use crate::report::Report;
use crate::stats::tail;

/// Runs `set_up` once untimed and then `count` times timed, tearing down
/// all but the last, and returns the last with the timed set-ups'
/// seconds. The untimed first set-up takes the process's one-off costs
/// (first-touch page faults, lazy statics, the allocator's first growth)
/// out of the timings. The count is fixed per workload, never derived
/// from elapsed time, so the work done before the first timed op (and
/// the memory it leaves) is the same on every commit.
pub fn timed_setups<T>(
    count: usize,
    mut set_up: impl FnMut() -> T,
    mut tear_down: impl FnMut(T),
) -> (T, Vec<f64>) {
    tear_down(set_up());
    let mut times = repeat_setups(count - 1, &mut set_up, &mut tear_down);
    let start = Instant::now();
    let state = set_up();
    times.push(start.elapsed().as_secs_f64());
    (state, times)
}

/// Runs `set_up` and `tear_down` `count` times and returns the set-ups'
/// seconds.
pub fn repeat_setups<T>(
    count: usize,
    mut set_up: impl FnMut() -> T,
    mut tear_down: impl FnMut(T),
) -> Vec<f64> {
    (0..count)
        .map(|_| {
            let start = Instant::now();
            let state = set_up();
            let s = start.elapsed().as_secs_f64();
            tear_down(state);
            s
        })
        .collect()
}

/// A closed-loop measurement window: ops start while the budget lasts,
/// and at least one op always runs.
#[derive(Debug)]
pub struct Window {
    start: Instant,
    budget: Duration,
    end: Instant,
    samples: Vec<f64>,
}

impl Window {
    /// A window of `budget` starting now.
    pub fn new(budget: Duration) -> Self {
        let now = Instant::now();
        Window {
            start: now,
            budget,
            end: now,
            samples: Vec::new(),
        }
    }

    /// Whether another op may start.
    pub fn more(&self) -> bool {
        self.samples.is_empty() || self.start.elapsed() < self.budget
    }

    /// Records a finished op's latency (ms).
    pub fn sample(&mut self, ms: f64) {
        self.samples.push(ms);
        self.end = Instant::now();
    }

    /// Latencies recorded so far (ms).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Seconds from the window's start to its last finished op.
    pub fn elapsed_s(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Sets `op_ms_tail` and states which percentile it is.
pub fn record_tail(report: &mut Report, samples: &[f64]) {
    let t = tail(samples);
    report.set("op_ms_tail", t.value);
    report.note(format!(
        "op_ms_tail is p{} over {} samples ({} beyond it)",
        t.percentile, t.samples, t.beyond
    ));
    report.detail("tail_percentile", Json::Num(t.percentile));
    report.count("tail_samples", t.samples as u64);
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
