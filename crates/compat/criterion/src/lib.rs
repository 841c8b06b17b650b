//! Offline drop-in for the subset of the `criterion` benchmarking API this
//! workspace uses.
//!
//! The build environment has no registry access, so the workspace vendors a
//! minimal wall-clock harness with the same surface: [`Criterion`],
//! [`BenchmarkGroup`], [`BenchmarkId`], [`Bencher::iter`], [`black_box`] and
//! the [`criterion_group!`] / [`criterion_main!`] macros. Each benchmark runs
//! a warm-up that sizes its batches — doubling the iteration count until one
//! batch spans at least 1 ms — and then `sample_size` timed samples of that
//! many iterations each, reporting the per-iteration mean/min/max to stdout.
//! Batching keeps timer resolution and one-off stalls from dominating
//! microsecond payloads. There is no statistical analysis, HTML report or
//! `target/criterion` history — numbers are indicative, not rigorous.

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Shortest span of one timed sample: the warm-up doubles its batch until
/// a batch takes at least this long, and every sample runs that batch.
const SAMPLE_TARGET: Duration = Duration::from_millis(1);

/// Top-level benchmark driver.
#[derive(Debug, Default)]
pub struct Criterion {
    default_sample_size: Option<usize>,
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let sample_size = self.default_sample_size.unwrap_or(10);
        BenchmarkGroup {
            _criterion: self,
            name: name.into(),
            sample_size,
        }
    }

    /// Runs a stand-alone benchmark (no group).
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let sample_size = self.default_sample_size.unwrap_or(10);
        run_benchmark(None, &id.into(), sample_size, f);
        self
    }

    /// Sets the default sample count for subsequent benchmarks.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.default_sample_size = Some(n.max(1));
        self
    }
}

/// A named group of benchmarks sharing settings.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Times `f` under `id`.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(Some(&self.name), &id.into(), self.sample_size, f);
        self
    }

    /// Times `f` under `id`, passing `input` through.
    pub fn bench_with_input<I, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        run_benchmark(Some(&self.name), &id.into(), self.sample_size, |b| {
            f(b, input)
        });
        self
    }

    /// Ends the group (kept for API compatibility; nothing to flush).
    pub fn finish(self) {}
}

/// Identifies one benchmark, optionally parameterized.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// `function_name/parameter` identifier.
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            label: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// Identifier from the parameter alone.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId {
            label: s.to_string(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(label: String) -> Self {
        BenchmarkId { label }
    }
}

/// Passed to benchmark closures; call [`Bencher::iter`] with the payload.
pub struct Bencher {
    elapsed: Duration,
    /// Calls of the payload per sample; 0 until the warm-up sizes it.
    iterations: u64,
}

impl Bencher {
    /// Times one batch of calls of `f` (results are black-boxed). In the
    /// warm-up the batch doubles from one call until it spans 1 ms, which
    /// fixes the batch of every sample.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let mut batch = |iterations: u64| {
            let start = Instant::now();
            for _ in 0..iterations {
                black_box(f());
            }
            start.elapsed()
        };
        if self.iterations > 0 {
            self.elapsed = batch(self.iterations);
            return;
        }
        let mut iterations = 1;
        loop {
            self.elapsed = batch(iterations);
            if self.elapsed >= SAMPLE_TARGET {
                break;
            }
            iterations *= 2;
        }
        self.iterations = iterations;
    }
}

fn run_benchmark<F>(group: Option<&str>, id: &BenchmarkId, sample_size: usize, mut f: F)
where
    F: FnMut(&mut Bencher),
{
    let full_name = match group {
        Some(g) => format!("{g}/{}", id.label),
        None => id.label.clone(),
    };
    // One warm-up call sizes the batch, then `sample_size` batched samples.
    let mut bencher = Bencher {
        elapsed: Duration::ZERO,
        iterations: 0,
    };
    f(&mut bencher);
    let iterations = bencher.iterations.max(1);
    let mut samples = Vec::with_capacity(sample_size);
    for _ in 0..sample_size {
        let mut bencher = Bencher {
            elapsed: Duration::ZERO,
            iterations,
        };
        f(&mut bencher);
        samples.push(bencher.elapsed / iterations as u32);
    }
    let total: Duration = samples.iter().sum();
    let mean = total / samples.len() as u32;
    let min = samples.iter().min().copied().unwrap_or_default();
    let max = samples.iter().max().copied().unwrap_or_default();
    println!(
        "{full_name:<60} mean {:>12} min {:>12} max {:>12} ({} samples of {iterations})",
        format_duration(mean),
        format_duration(min),
        format_duration(max),
        samples.len()
    );
}

fn format_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos >= 1_000_000_000 {
        format!("{:.3} s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.3} ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.3} µs", nanos as f64 / 1e3)
    } else {
        format!("{nanos} ns")
    }
}

/// Declares a benchmark group function, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the benchmark `main`, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_runs_benchmarks() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("smoke");
        let mut runs = 0usize;
        group.sample_size(3).bench_function("noop", |b| {
            runs += 1;
            b.iter(|| black_box(1 + 1));
        });
        group.finish();
        // warm-up + 3 samples
        assert_eq!(runs, 4);
    }

    #[test]
    fn warm_up_batches_samples_to_the_target_span() {
        let mut bencher = Bencher {
            elapsed: Duration::ZERO,
            iterations: 0,
        };
        let mut calls = 0u64;
        bencher.iter(|| calls += 1);
        assert!(bencher.elapsed >= SAMPLE_TARGET);
        assert!(bencher.iterations.is_power_of_two());
        assert!(bencher.iterations > 1, "a no-op payload is batched");
        // Every doubling ran: 1 + 2 + … + n calls.
        assert_eq!(calls, 2 * bencher.iterations - 1);

        let mut sample = Bencher {
            elapsed: Duration::ZERO,
            iterations: 5,
        };
        let mut calls = 0u64;
        sample.iter(|| calls += 1);
        assert_eq!((calls, sample.iterations), (5, 5));
    }

    #[test]
    fn bench_with_input_passes_input() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("smoke");
        let data = vec![1u64, 2, 3];
        group.sample_size(2).bench_with_input(
            BenchmarkId::new("sum", data.len()),
            &data,
            |b, d| {
                b.iter(|| d.iter().sum::<u64>());
            },
        );
        group.finish();
    }
}
