//! Minimal, dependency-free wall-clock benchmark harness.
//!
//! A caller builds its workloads, calls [`Bench::measure`] per case and
//! harvests the measured cases with [`Bench::take_samples`] (as
//! `corebench` does for `BENCH_core.json`). The harness runs a warm-up
//! iteration, then at least the requested number of timed iterations, and
//! records min / median / mean wall-clock times — enough to compare the
//! algorithms' scaling, which is what the paper's experiments are about
//! (statistical rigor at the nanosecond level is not; use an external
//! profiler for that).

use std::time::{Duration, Instant};

/// [`Bench::measure`] keeps timing a case past its iteration count until
/// the timed runs add up to this much: a row of a few milliseconds then
/// takes its minimum from about ten runs instead of three, so one
/// scheduling stall on a busy machine cannot decide it.
const MIN_TIMED_TOTAL: Duration = Duration::from_millis(30);

/// The most timed runs [`Bench::measure`] takes of one case while it
/// works towards [`MIN_TIMED_TOTAL`].
const MAX_TIMED_RUNS: usize = 1000;

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
    /// Creates a harness that times every case at least `iterations`
    /// times (after one untimed warm-up iteration).
    pub fn new(iterations: usize) -> Self {
        assert!(iterations >= 1, "at least one timed iteration is required");
        Bench {
            iterations,
            samples: Vec::new(),
        }
    }

    /// Times `f` and records a sample under `label`: the requested
    /// iterations, then more until the timed runs add up to 30 ms or
    /// number 1000.
    pub fn measure<F: FnMut()>(&mut self, label: &str, mut f: F) {
        f(); // warm-up
        let mut times: Vec<Duration> = Vec::with_capacity(self.iterations);
        let mut total = Duration::ZERO;
        while times.len() < self.iterations
            || (total < MIN_TIMED_TOTAL && times.len() < MAX_TIMED_RUNS)
        {
            let start = Instant::now();
            f();
            let elapsed = start.elapsed();
            total += elapsed;
            times.push(elapsed);
        }
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
        // A case longer than the minimum total keeps the requested count.
        bench.measure("long", || {
            counter += 1;
            std::thread::sleep(MIN_TIMED_TOTAL);
        });
        // warm-up + 3 timed iterations
        assert_eq!(counter, 4);
        let samples = bench.take_samples();
        assert_eq!(samples.len(), 1);
        assert!(samples[0].min <= samples[0].median);
        assert!(bench.take_samples().is_empty());
    }

    #[test]
    fn short_cases_are_timed_until_the_minimum_total() {
        let mut bench = Bench::new(3);
        // A no-op runs past the requested count, up to the run cap (a
        // stall of the test thread can end it sooner).
        let mut noop = 0usize;
        bench.measure("noop", || noop += 1);
        assert!(
            (1 + 3 + 1..=1 + MAX_TIMED_RUNS).contains(&noop),
            "{noop} runs"
        );
        // A case of at least 4 ms stops by the eighth run (about eight
        // where three were asked for, fewer if the sleeps overshoot).
        let mut slow = 0usize;
        bench.measure("sleep", || {
            slow += 1;
            std::thread::sleep(Duration::from_millis(4));
        });
        assert!((1 + 3..=1 + 8).contains(&slow), "{slow} runs");
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
