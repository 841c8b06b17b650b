//! Order statistics for latency samples and geometric means for the
//! quality metrics.

/// Percentiles `op_ms_tail` may report, in tenths of a percent, lowest
/// first. With ten samples beyond, the steps after p75 need 100, 500 and
/// 10 000 samples, so each workload sits inside one step: a 30 s
/// `tables_cold` window (about 150–290 passes) on p90 and a
/// `gateway_mix` window (about 1 300–3 500 requests) on p98. Throughput
/// would have to change about 1.5-fold or more to switch steps; a p99
/// step would leave `gateway_mix` 1.3-fold of room.
pub const TAIL_LADDER: [usize; 4] = [750, 900, 980, 999];

/// Samples that must lie beyond a percentile before it may be reported
/// as the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The reported tail of a latency distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Which percentile was reported.
    pub percentile: f64,
    /// The nearest-rank value at that percentile.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
}

/// The highest [`TAIL_LADDER`] percentile with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it (nearest-rank definition). Under
/// 40 samples no step above p75 can have that many beyond it, so the bar
/// drops to a quarter of the samples: the tail is then p75, the upper
/// quartile, which one slow op cannot move the way it moves a maximum.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn tail(xs: &[f64]) -> Tail {
    assert!(!xs.is_empty(), "tail of no samples");
    let s = sorted(xs);
    let n = s.len();
    let bar = TAIL_MIN_BEYOND.min(n / 4);
    let (per_mille, rank) = TAIL_LADDER
        .iter()
        .rev()
        .map(|&pm| (pm, nearest_rank(pm, n)))
        .find(|&(_, rank)| n - rank >= bar)
        .expect("p75 always has a quarter of the samples beyond it");
    Tail {
        percentile: per_mille as f64 / 10.0,
        value: s[rank - 1],
        samples: n,
        beyond: n - rank,
    }
}

/// 1-based nearest rank of a percentile (in tenths of a percent) among
/// `n` samples, in integers so 99.9% of 10 000 is rank 9 990 exactly.
fn nearest_rank(per_mille: usize, n: usize) -> usize {
    (per_mille * n).div_ceil(1000).clamp(1, n)
}

/// Geometric mean of strictly positive values, summed in sorted order so
/// the result is bit-identical whatever order the values come in (the
/// seed shuffles the batch jobs).
///
/// # Panics
///
/// Panics on an empty slice or a non-positive value.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geometric mean of no values");
    assert!(
        xs.iter().all(|&x| x > 0.0),
        "geometric mean needs positive values"
    );
    (sorted(xs).iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_ignores_the_order_of_its_values() {
        let xs = [2.873, 0.41, 17.9, 1.0e-3, 3.3];
        let reversed: Vec<f64> = xs.iter().rev().copied().collect();
        assert_eq!(geomean(&xs).to_bits(), geomean(&reversed).to_bits());
    }
}
