//! Minimal, dependency-free wall-clock benchmark harness.
//!
//! A caller builds its workloads, calls [`Bench::measure`] per case and
//! either prints one table or harvests the rows with
//! [`Bench::take_samples`] (as `corebench` does). The harness runs a
//! warm-up iteration, then a fixed number of timed iterations, and
//! reports min / median / mean wall-clock times — enough to compare the
//! algorithms' scaling, which is what the paper's experiments are about
//! (statistical rigor at the nanosecond level is not; use an external
//! profiler for that).

use std::time::{Duration, Instant};

/// One benchmark group: collects rows and prints them on drop.
pub struct Bench {
    group: String,
    iterations: usize,
    rows: Vec<Row>,
}

struct Row {
    label: String,
    min: Duration,
    median: Duration,
    mean: Duration,
    stats: Vec<(String, u128)>,
}

/// A measured case, harvested with [`Bench::take_samples`] for
/// machine-readable output (e.g. the `BENCH_core.json` artifact) instead
/// of the printed table.
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
    /// Creates a group that runs every case `iterations` times (after one
    /// untimed warm-up iteration).
    pub fn new(group: &str, iterations: usize) -> Self {
        assert!(iterations >= 1, "at least one timed iteration is required");
        Bench {
            group: group.to_string(),
            iterations,
            rows: Vec::new(),
        }
    }

    /// Times `f` and records a row under `label`.
    pub fn measure<F: FnMut()>(&mut self, label: &str, mut f: F) {
        f(); // warm-up
        let mut samples: Vec<Duration> = (0..self.iterations)
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed()
            })
            .collect();
        samples.sort_unstable();
        let min = samples[0];
        let median = samples[samples.len() / 2];
        let mean = samples.iter().sum::<Duration>() / samples.len() as u32;
        self.rows.push(Row {
            label: label.to_string(),
            min,
            median,
            mean,
            stats: Vec::new(),
        });
    }

    /// Times `f` exactly once, with no warm-up iteration — for the large
    /// scaling cases where a second multi-second run would double the
    /// cost of the row without improving the estimate. The single cold
    /// sample is recorded as min = median = mean.
    pub fn measure_cold<F: FnOnce()>(&mut self, label: &str, f: F) {
        let start = Instant::now();
        f();
        let d = start.elapsed();
        self.rows.push(Row {
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
        if let Some(row) = self.rows.last_mut() {
            row.stats.push((key.to_string(), value));
        }
    }

    /// Drains the recorded rows as [`Sample`]s, suppressing the printed
    /// table (nothing is left for [`Bench::report`] / drop to print).
    pub fn take_samples(&mut self) -> Vec<Sample> {
        self.rows
            .drain(..)
            .map(|r| Sample {
                label: r.label,
                min: r.min,
                median: r.median,
                mean: r.mean,
                stats: r.stats,
            })
            .collect()
    }

    /// Prints the group's table. Called automatically on drop; exposed for
    /// explicit flushing in tests.
    pub fn report(&mut self) {
        if self.rows.is_empty() {
            return;
        }
        println!("\n### {} ({} iterations)\n", self.group, self.iterations);
        println!(
            "{:<44} {:>12} {:>12} {:>12}",
            "case", "min", "median", "mean"
        );
        for row in &self.rows {
            println!(
                "{:<44} {:>12} {:>12} {:>12}",
                row.label,
                format_duration(row.min),
                format_duration(row.median),
                format_duration(row.mean),
            );
        }
        self.rows.clear();
    }
}

impl Drop for Bench {
    fn drop(&mut self) {
        self.report();
    }
}

fn format_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos} ns")
    } else if nanos < 1_000_000 {
        format!("{:.1} µs", nanos as f64 / 1e3)
    } else if nanos < 1_000_000_000 {
        format!("{:.2} ms", nanos as f64 / 1e6)
    } else {
        format!("{:.3} s", nanos as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_and_reports() {
        let mut bench = Bench::new("test-group", 3);
        let mut counter = 0u64;
        bench.measure("noop", || {
            counter += 1;
        });
        // warm-up + 3 timed iterations
        assert_eq!(counter, 4);
        assert_eq!(bench.rows.len(), 1);
        bench.report();
        assert!(bench.rows.is_empty());
    }

    #[test]
    fn annotate_attaches_to_the_last_measured_case() {
        let mut bench = Bench::new("g", 1);
        bench.annotate("orphan", 1); // before any measurement: dropped
        bench.measure("case", || {});
        bench.annotate("bytes_per_node", 42);
        let samples = bench.take_samples();
        assert_eq!(samples[0].stats, vec![("bytes_per_node".to_string(), 42)]);
    }

    #[test]
    fn duration_formatting_covers_the_ranges() {
        assert!(format_duration(Duration::from_nanos(12)).ends_with("ns"));
        assert!(format_duration(Duration::from_micros(12)).ends_with("µs"));
        assert!(format_duration(Duration::from_millis(12)).ends_with("ms"));
        assert!(format_duration(Duration::from_secs(2)).ends_with("s"));
    }
}
