//! Seeded statistical vector generation.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A reproducible stream of input vectors where bit `i` is an independent
/// Bernoulli variable with probability `probs[i]` — the "statistically
/// generated input vectors with the appropriate signal probabilities" of
/// the paper's measurement flow.
///
/// # Example
///
/// ```
/// use domino_sim::VectorSource;
///
/// let mut src = VectorSource::new(vec![0.9, 0.1], 42);
/// let v = src.next_vector();
/// assert_eq!(v.len(), 2);
/// // Streams are reproducible for a given seed.
/// let mut again = VectorSource::new(vec![0.9, 0.1], 42);
/// assert_eq!(again.next_vector(), v);
/// ```
#[derive(Debug, Clone)]
pub struct VectorSource {
    probs: Vec<f64>,
    rng: StdRng,
}

impl VectorSource {
    /// Creates a stream over the given per-bit probabilities.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]`.
    pub fn new(probs: Vec<f64>, seed: u64) -> Self {
        assert!(
            probs.iter().all(|p| (0.0..=1.0).contains(p)),
            "probabilities must lie in [0, 1]"
        );
        VectorSource {
            probs,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Uniform probability ½ for `n` bits.
    pub fn uniform(n: usize, seed: u64) -> Self {
        VectorSource::new(vec![0.5; n], seed)
    }

    /// Number of bits per vector.
    pub fn width(&self) -> usize {
        self.probs.len()
    }

    /// Draws the next vector.
    pub fn next_vector(&mut self) -> Vec<bool> {
        self.probs
            .iter()
            .map(|&p| self.rng.gen_bool(p.clamp(0.0, 1.0)))
            .collect()
    }
}

/// Number of independent simulation lanes packed into one `u64` word.
pub const LANES: usize = 64;

/// Bit-planes drawn (at most) per packed Bernoulli word: thresholds are
/// resolved on a 2^-32 grid, so packed marginals match the requested
/// probability to within 2^-33 after rounding.
const PROB_BITS: u32 = 32;

/// Converts a probability to its fixed-point threshold on the 2^32 grid.
fn fixed_threshold(p: f64) -> u64 {
    assert!((0.0..=1.0).contains(&p), "probabilities must lie in [0, 1]");
    // Round to the nearest grid point; p = 1 maps to 2^32 (always true).
    ((p * (1u64 << PROB_BITS) as f64).round() as u64).min(1u64 << PROB_BITS)
}

/// Draws one `u64` whose 64 bits are iid Bernoulli(`t` / 2^32).
///
/// Bit-plane rejection: uniform 32-bit lane values are compared against the
/// threshold one bit-plane at a time, most significant first; a lane is
/// decided as soon as its uniform bit differs from the threshold bit, and
/// generation stops when every lane is decided (about 7 draws on average,
/// never more than [`PROB_BITS`]). Deterministic for a given RNG state —
/// the draw count depends only on previously generated bits.
///
/// Planes below the threshold's lowest set bit are skipped entirely: once
/// every remaining threshold bit is zero, a still-undecided lane (equal to
/// the threshold so far) can only compare `>= t`, i.e. it has already
/// failed. Round thresholds therefore cost very few draws — `p = ½`
/// (`t = 2³¹`) resolves all 64 lanes with a *single* RNG word, which is
/// the common case for the paper's uniform-probability runs.
fn bernoulli_word(rng: &mut StdRng, t: u64) -> u64 {
    if t == 0 {
        return 0;
    }
    if t >= 1u64 << PROB_BITS {
        return !0;
    }
    let mut result = 0u64;
    let mut undecided = !0u64;
    for plane in (t.trailing_zeros()..PROB_BITS).rev() {
        let r = rng.next_u64();
        if (t >> plane) & 1 == 1 {
            // Uniform bit 0 < threshold bit 1: decided below threshold.
            result |= undecided & !r;
            undecided &= r;
        } else {
            // Uniform bit 1 > threshold bit 0: decided above threshold.
            undecided &= !r;
        }
        if undecided == 0 {
            break;
        }
    }
    result
}

/// A bit-parallel vector stream: 64 *independent* Monte-Carlo lanes per
/// input, one lane per bit of a `u64` word. One
/// [`next_words`](PackedVectorSource::next_words) call advances
/// every lane by one cycle, so consumers that evaluate gates word-wide
/// simulate 64 vectors per netlist pass.
///
/// # Stream semantics
///
/// Lane `l` (bit `l` of every word) is an independent Bernoulli stream with
/// the configured per-input probability — temporal adjacency is between
/// *successive words* of the same input, within the same lane. Streams are
/// reproducible for a given seed, but do **not** reproduce the scalar
/// [`VectorSource`] stream for the same seed: the packed generator consumes
/// raw RNG output in bit-plane order (several lanes per draw) instead of
/// one draw per bit. Marginal frequencies agree with [`VectorSource`] to
/// within 2^-33 (probabilities are resolved on a 2^-32 fixed-point grid).
///
/// # Seed semantics
///
/// The stream is a pure function of `(probs, seed)`: equal seeds replay
/// equal words, different seeds give statistically independent streams.
/// The sharded kernels in [`crate::measure_power`] build one source per
/// logical shard — shard 0 from the configured seed itself, shard `k > 0`
/// from a SplitMix64 mix of `(seed, k)` — so a sharded measurement is as
/// reproducible as a single stream, and a 1-shard run consumes exactly
/// the classic single-stream sequence. Simulating shards in lockstep does
/// not interleave their streams: each source is drawn only for its own
/// shard's steps.
///
/// # Example
///
/// ```
/// use domino_sim::PackedVectorSource;
///
/// let mut src = PackedVectorSource::uniform(3, 42);
/// let mut words = [0u64; 3];
/// src.next_words(&mut words);
/// let mut again = PackedVectorSource::uniform(3, 42);
/// let mut rerun = [0u64; 3];
/// again.next_words(&mut rerun);
/// assert_eq!(words, rerun); // reproducible for a given seed
/// ```
#[derive(Debug, Clone)]
pub struct PackedVectorSource {
    thresholds: Vec<u64>,
    rng: StdRng,
}

impl PackedVectorSource {
    /// Creates a packed stream over the given per-input probabilities.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]`.
    pub fn new(probs: &[f64], seed: u64) -> Self {
        PackedVectorSource {
            thresholds: probs.iter().map(|&p| fixed_threshold(p)).collect(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Uniform probability ½ for `n` inputs.
    pub fn uniform(n: usize, seed: u64) -> Self {
        PackedVectorSource::new(&vec![0.5; n], seed)
    }

    /// Number of inputs (words per step).
    pub fn width(&self) -> usize {
        self.thresholds.len()
    }

    /// Advances every lane by one cycle: writes one word per input.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.width()`.
    pub fn next_words(&mut self, out: &mut [u64]) {
        assert_eq!(out.len(), self.thresholds.len(), "word count");
        for (slot, &t) in out.iter_mut().zip(&self.thresholds) {
            *slot = bernoulli_word(&mut self.rng, t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empirical_frequency_matches_probability() {
        let mut src = VectorSource::new(vec![0.9, 0.5, 0.1], 7);
        let n = 20_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            let v = src.next_vector();
            for (c, &bit) in counts.iter_mut().zip(&v) {
                *c += bit as usize;
            }
        }
        let freqs: Vec<f64> = counts.iter().map(|&c| c as f64 / n as f64).collect();
        assert!((freqs[0] - 0.9).abs() < 0.01, "{freqs:?}");
        assert!((freqs[1] - 0.5).abs() < 0.01, "{freqs:?}");
        assert!((freqs[2] - 0.1).abs() < 0.01, "{freqs:?}");
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = VectorSource::uniform(32, 1);
        let mut b = VectorSource::uniform(32, 2);
        assert_ne!(a.next_vector(), b.next_vector());
    }

    #[test]
    #[should_panic(expected = "probabilities must lie in [0, 1]")]
    fn invalid_probability_panics() {
        let _ = VectorSource::new(vec![1.5], 0);
    }

    #[test]
    fn packed_marginals_match_scalar_source() {
        // Satellite contract: packed marginal frequencies agree with the
        // scalar VectorSource for the same probability vector.
        let probs = [0.9, 0.5, 0.1, 0.73];
        let steps = 400; // 400 × 64 = 25_600 samples per input
        let mut packed = PackedVectorSource::new(&probs, 7);
        let mut words = [0u64; 4];
        let mut packed_ones = [0u64; 4];
        for _ in 0..steps {
            packed.next_words(&mut words);
            for (c, &w) in packed_ones.iter_mut().zip(&words) {
                *c += u64::from(w.count_ones());
            }
        }
        let mut scalar = VectorSource::new(probs.to_vec(), 7);
        let n = steps * LANES;
        let mut scalar_ones = [0u64; 4];
        for _ in 0..n {
            let v = scalar.next_vector();
            for (c, &bit) in scalar_ones.iter_mut().zip(&v) {
                *c += bit as u64;
            }
        }
        for i in 0..probs.len() {
            let pf = packed_ones[i] as f64 / n as f64;
            let sf = scalar_ones[i] as f64 / n as f64;
            assert!((pf - probs[i]).abs() < 0.01, "input {i}: packed {pf}");
            assert!(
                (pf - sf).abs() < 0.02,
                "input {i}: packed {pf} vs scalar {sf}"
            );
        }
    }

    #[test]
    fn packed_lanes_are_independent() {
        // Adjacent lanes must not be correlated: count agreements between
        // lane 0 and lane 1 across steps; expect ~50% for p = 0.5.
        let mut src = PackedVectorSource::uniform(1, 3);
        let mut w = [0u64; 1];
        let steps = 8_000;
        let mut agree = 0usize;
        for _ in 0..steps {
            src.next_words(&mut w);
            if (w[0] & 1) == ((w[0] >> 1) & 1) {
                agree += 1;
            }
        }
        let frac = agree as f64 / steps as f64;
        assert!((frac - 0.5).abs() < 0.03, "lane agreement {frac}");
    }

    #[test]
    fn packed_extreme_probabilities_are_constant() {
        let mut src = PackedVectorSource::new(&[0.0, 1.0], 1);
        let mut w = [0u64; 2];
        for _ in 0..16 {
            src.next_words(&mut w);
            assert_eq!(w[0], 0);
            assert_eq!(w[1], !0);
        }
    }

    #[test]
    #[should_panic(expected = "probabilities must lie in [0, 1]")]
    fn packed_invalid_probability_panics() {
        let _ = PackedVectorSource::new(&[-0.1], 0);
    }
}
