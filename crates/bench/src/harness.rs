//! Minimal, dependency-free wall-clock benchmark harness.
//!
//! A caller builds its workloads, calls [`Bench::measure`] per case and
//! harvests the measured cases with [`Bench::take_samples`] (as
//! `corebench` does for `BENCH_core.json`). The harness runs a warm-up
//! iteration, then a fixed number of timed iterations, and records min /
//! median / mean wall-clock times — enough to compare the algorithms'
//! scaling, which is what the paper's experiments are about (statistical
//! rigor at the nanosecond level is not; use an external profiler for
//! that).

use std::time::{Duration, Instant};

/// Collects one [`Sample`] per measured case.
pub struct Bench {
    iterations: usize,
    samples: Vec<Sample>,
}

/// A measured case, harvested with [`Bench::take_samples`] for
/// machine-readable output (e.g. the `BENCH_core.json` artifact).
#[derive(Debug, Clone)]
pub struct Sample {
    /// The case label passed to [`Bench::measure`].
    pub label: String,
    /// Fastest timed iteration.
    pub min: Duration,
    /// Median timed iteration.
    pub median: Duration,
    /// Mean over all timed iterations.
    pub mean: Duration,
    /// Extra per-case counters attached with [`Bench::annotate`] (e.g.
    /// `bytes_per_node` on the scaling rows), emitted as additional JSON
    /// keys on the row.
    pub stats: Vec<(String, u128)>,
}

impl Bench {
    /// Creates a harness that runs every case `iterations` times (after
    /// one untimed warm-up iteration).
    pub fn new(iterations: usize) -> Self {
        assert!(iterations >= 1, "at least one timed iteration is required");
        Bench {
            iterations,
            samples: Vec::new(),
        }
    }

    /// Times `f` and records a sample under `label`.
    pub fn measure<F: FnMut()>(&mut self, label: &str, mut f: F) {
        f(); // warm-up
        let mut times: Vec<Duration> = (0..self.iterations)
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed()
            })
            .collect();
        times.sort_unstable();
        self.samples.push(Sample {
            label: label.to_string(),
            min: times[0],
            median: times[times.len() / 2],
            mean: times.iter().sum::<Duration>() / times.len() as u32,
            stats: Vec::new(),
        });
    }

    /// Times `f` exactly once, with no warm-up iteration — for the large
    /// scaling cases where a second multi-second run would double the
    /// cost of the row without improving the estimate. The single cold
    /// time is recorded as min = median = mean.
    pub fn measure_cold<F: FnOnce()>(&mut self, label: &str, f: F) {
        let start = Instant::now();
        f();
        let d = start.elapsed();
        self.samples.push(Sample {
            label: label.to_string(),
            min: d,
            median: d,
            mean: d,
            stats: Vec::new(),
        });
    }

    /// Attaches a named counter to the most recently measured case (a
    /// memory footprint, a work count — anything worth committing next to
    /// the timings). No-op when nothing has been measured yet.
    pub fn annotate(&mut self, key: &str, value: u128) {
        if let Some(sample) = self.samples.last_mut() {
            sample.stats.push((key.to_string(), value));
        }
    }

    /// Drains the recorded samples.
    pub fn take_samples(&mut self) -> Vec<Sample> {
        std::mem::take(&mut self.samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_warm_up_plus_timed_iterations() {
        let mut bench = Bench::new(3);
        let mut counter = 0u64;
        bench.measure("noop", || {
            counter += 1;
        });
        // warm-up + 3 timed iterations
        assert_eq!(counter, 4);
        let samples = bench.take_samples();
        assert_eq!(samples.len(), 1);
        assert!(samples[0].min <= samples[0].median);
        assert!(bench.take_samples().is_empty());
    }

    #[test]
    fn annotate_attaches_to_the_last_measured_case() {
        let mut bench = Bench::new(1);
        bench.annotate("orphan", 1); // before any measurement: dropped
        bench.measure("case", || {});
        bench.annotate("bytes_per_node", 42);
        let samples = bench.take_samples();
        assert_eq!(samples[0].stats, vec![("bytes_per_node".to_string(), 42)]);
    }
}
