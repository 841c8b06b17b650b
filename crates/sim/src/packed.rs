//! Shared plumbing for the bit-parallel simulation engine: lane/word
//! scheduling, shard decomposition and work accounting.
//!
//! The engine packs 64 *independent* Monte-Carlo lanes into every `u64`
//! word. One word-step advances every lane by one cycle, so a run of `c`
//! measured cycles needs `⌈c / 64⌉` measured word-steps — the last one
//! masked down to the remainder lanes — plus the run's warmup word-steps.
//!
//! # Shard decomposition
//!
//! A measurement of `cycles` vectors is decomposed into
//! [`SimConfig::shards`](crate::SimConfig) **logical shards**: shard `k`
//! simulates its own contiguous block of the requested cycles from its own
//! sub-seeded [`PackedVectorSource`](crate::PackedVectorSource) stream
//! (every lane is an independent Monte-Carlo chain, so shards are simply
//! more chains). The shards run one after another on the calling thread.
//! All event counters are order-independent integers, so the per-shard
//! counters merge by plain addition — the merged totals are a pure
//! function of `(probs, seed, cycles, warmup, shards)`: `shards` is part of
//! the stream definition, like the seed.

pub use crate::vectors::LANES;

use crate::power::SimConfig;

/// Broadcasts a boolean to all 64 lanes.
pub(crate) fn broadcast(v: bool) -> u64 {
    if v {
        !0
    } else {
        0
    }
}

/// Word schedule of one packed run: warmup word-steps, full measured
/// words, and the remainder mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WordSchedule {
    /// Unmeasured word-steps (one per warmup cycle, every lane settling).
    pub warmup: usize,
    /// Fully-measured word-steps.
    pub full: usize,
    /// Lanes measured in the final partial word (0 = none).
    pub rem: u32,
}

impl WordSchedule {
    pub(crate) fn new(warmup: usize, cycles: usize) -> Self {
        WordSchedule {
            warmup,
            full: cycles / LANES,
            rem: (cycles % LANES) as u32,
        }
    }

    /// Measured word-steps, the partial word included.
    pub(crate) fn measured_words(&self) -> usize {
        self.full + usize::from(self.rem > 0)
    }

    /// Lane mask of measured word-step `k`.
    pub(crate) fn mask(&self, k: usize) -> u64 {
        if k < self.full {
            !0
        } else {
            (1u64 << self.rem) - 1
        }
    }

    /// Total word-steps of the run, warmup included.
    pub(crate) fn total_steps(&self) -> usize {
        self.warmup + self.measured_words()
    }

    /// Lane mask of absolute word-step `step`: zero during warmup, the
    /// measured mask afterwards. The one place the warmup/measured split
    /// lives — every kernel and every scalar reference steps through this,
    /// so the packed/reference bit-equivalence contract cannot drift.
    pub(crate) fn step_mask(&self, step: usize) -> u64 {
        if step < self.warmup {
            0
        } else {
            self.mask(step - self.warmup)
        }
    }
}

/// One logical shard of a packed measurement: its private stream seed and
/// its slice of the run's warmup/measured budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ShardSlice {
    /// Sub-seed of this shard's [`PackedVectorSource`](crate::PackedVectorSource) stream.
    pub seed: u64,
    /// Warmup word-steps this shard runs before measuring.
    pub warmup: usize,
    /// Measured cycles (vectors) this shard contributes.
    pub cycles: usize,
}

/// Derives the stream seed of shard `k`. Shard 0 uses the configured seed
/// itself — so a single-shard run reproduces the classic single-stream
/// semantics — and every other shard gets a SplitMix64-mixed sub-seed,
/// decorrelating the shard streams while staying a pure function of
/// `(seed, k)`.
pub(crate) fn shard_seed(seed: u64, k: u64) -> u64 {
    if k == 0 {
        return seed;
    }
    let mut z = seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Decomposes a [`SimConfig`] into its logical shards: measured cycles and
/// warmup word-steps are split as evenly as possible (earlier shards take
/// the remainders), and shards left with no measured cycles are dropped —
/// so tiny runs degrade gracefully and `shards > words` stays
/// well-defined. When any warmup is requested at all, every shard settles
/// for **at least one** word-step: a shard measuring from completely cold
/// state would count spurious first-cycle inverter toggles the warmup knob
/// exists to discard. The plan is a pure function of the config.
pub(crate) fn shard_plan(config: &SimConfig) -> Vec<ShardSlice> {
    let shards = (config.shards.max(1) as usize).min(config.cycles.max(1));
    let base = config.cycles / shards;
    let rem = config.cycles % shards;
    let wbase = config.warmup / shards;
    let wrem = config.warmup % shards;
    (0..shards)
        .map(|k| {
            let mut warmup = wbase + usize::from(k < wrem);
            if warmup == 0 && config.warmup > 0 {
                warmup = 1;
            }
            ShardSlice {
                seed: shard_seed(config.seed, k as u64),
                warmup,
                cycles: base + usize::from(k < rem),
            }
        })
        .filter(|slice| slice.cycles > 0)
        .collect()
}

/// Work accounting of one packed simulation run — surfaced through
/// [`PowerReport::stats`](crate::PowerReport) and `dominoc --stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimStats {
    /// Measured vectors (cycles) that contributed to the statistics.
    pub vectors: u64,
    /// Total word-steps evaluated, warmup included, summed over shards.
    pub words: u64,
    /// Measured word-steps (each evaluates all 64 lanes), summed over
    /// shards.
    pub measured_words: u64,
    /// Logical shards the measurement was decomposed into (1 for the
    /// single-stream kernels).
    pub shards: u64,
}

impl SimStats {
    /// Fraction of measured lanes that contributed vectors: 1.0 when the
    /// cycle count is a multiple of 64, lower when the final word was
    /// partially masked.
    pub fn lane_utilization(&self) -> f64 {
        if self.measured_words == 0 {
            0.0
        } else {
            self.vectors as f64 / (self.measured_words * LANES as u64) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_covers_cycles_exactly() {
        let s = WordSchedule::new(3, 130);
        assert_eq!(s.measured_words(), 3);
        let covered: u32 = (0..s.measured_words())
            .map(|k| s.mask(k).count_ones())
            .sum();
        assert_eq!(covered, 130);
        assert_eq!(s.mask(0), !0);
        assert_eq!(s.mask(2).count_ones(), 2);

        let exact = WordSchedule::new(0, 128);
        assert_eq!(exact.measured_words(), 2);
        assert_eq!(exact.mask(1), !0);
    }

    #[test]
    fn stats_utilization() {
        let full = SimStats {
            vectors: 4096,
            words: 128,
            measured_words: 64,
            shards: 8,
        };
        assert!((full.lane_utilization() - 1.0).abs() < 1e-12);
        let partial = SimStats {
            vectors: 100,
            words: 4,
            measured_words: 2,
            shards: 1,
        };
        assert!((partial.lane_utilization() - 100.0 / 128.0).abs() < 1e-12);
        assert_eq!(SimStats::default().lane_utilization(), 0.0);
    }

    #[test]
    fn shard_plan_covers_cycles_exactly() {
        let cfg = SimConfig {
            cycles: 4096,
            warmup: 64,
            seed: 7,
            shards: 8,
            ..SimConfig::default()
        };
        let plan = shard_plan(&cfg);
        assert_eq!(plan.len(), 8);
        assert_eq!(plan.iter().map(|s| s.cycles).sum::<usize>(), 4096);
        assert_eq!(plan.iter().map(|s| s.warmup).sum::<usize>(), 64);
        // Shard 0 keeps the configured seed; the others get distinct mixes.
        assert_eq!(plan[0].seed, 7);
        let mut seeds: Vec<u64> = plan.iter().map(|s| s.seed).collect();
        seeds.dedup();
        assert_eq!(seeds.len(), 8);

        // Uneven split: earlier shards take the remainders.
        let uneven = shard_plan(&SimConfig {
            cycles: 203,
            warmup: 3,
            shards: 8,
            ..cfg
        });
        assert_eq!(uneven.iter().map(|s| s.cycles).sum::<usize>(), 203);
        assert!(uneven.iter().all(|s| s.cycles > 0));
        assert!(uneven[0].cycles >= uneven[7].cycles);

        // More shards than cycles: empty shards are dropped.
        let tiny = shard_plan(&SimConfig {
            cycles: 3,
            warmup: 0,
            shards: 8,
            ..cfg
        });
        assert_eq!(tiny.len(), 3);
        assert_eq!(tiny.iter().map(|s| s.cycles).sum::<usize>(), 3);
    }
}
