//! The deterministic stress suite: algorithms × scenarios × seeds.
//!
//! A [`StressCase`] names everything one adversarial execution needs —
//! algorithm, workload family, size, UID seed, [`Scenario`] and adversary
//! seed. Crucially, a whole case can be derived from a *single* `u64`
//! ([`StressCase::from_seed`]), so any failure found by a seed sweep is
//! reported as one number and reproduced bit-for-bit by
//! [`replay`] — the FoundationDB recipe, applied to actively dynamic
//! networks.
//!
//! A case whose scenario perturbs asynchronous delivery
//! ([`Scenario::is_async`]) and whose algorithm has an actor
//! implementation runs on the seeded asynchronous scheduler
//! ([`EngineMode::Seeded`]) under the scenario's delivery knobs; every
//! other case runs on the synchronous round engine. Both run on the same
//! DST-armed network, so the adversary's faults land at the run's commits
//! on either engine, and a seeded run replays from the case seed like a
//! synchronous one.
//!
//! The harness tolerates every way a run can end under faults: clean
//! completion, a clean error (model violation, exhausted round or step
//! budget) or a panic inside the algorithm (caught, recorded, still
//! deterministic). The DST report (fault schedule + invariant violations)
//! is harvested in all three cases.
//!
//! [`minimize`] shrinks a failing case by bisecting the fault budget: the
//! adversary's RNG is only consumed while budget remains, so the schedule
//! under budget `b` is a prefix of the schedule under `B > b`, making the
//! failing-fault prefix well-defined.

use adn_core::algorithm::{self, arm_network_for_dst, DstConfig, EngineMode, RunConfig};
use adn_graph::rng::DetRng;
use adn_graph::{GraphFamily, UidAssignment, UidMap};
use adn_runtime::RuntimeReport;
use adn_sim::dst::{self, DstReport, Scenario};
use adn_sim::Network;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// One fully specified adversarial execution.
#[derive(Debug, Clone, PartialEq)]
pub struct StressCase {
    /// The single seed this case was derived from (0 when the case was
    /// constructed explicitly rather than via [`StressCase::from_seed`]).
    pub seed: u64,
    /// Registry id of the algorithm under test.
    pub algorithm: String,
    /// Workload family of the initial network.
    pub family: GraphFamily,
    /// Requested node count (families may round it).
    pub n: usize,
    /// Seed for instance generation and the UID permutation.
    pub uid_seed: u64,
    /// The adversarial environment.
    pub scenario: Scenario,
    /// Adversary seed.
    pub adversary_seed: u64,
    /// Hard round budget so every synchronous run terminates even when
    /// faults stall the algorithm. A seeded run is bounded by the
    /// scheduler's step budget instead.
    pub round_budget: usize,
    /// Seed of the seeded asynchronous scheduler the case runs on, or
    /// `None` for the synchronous round engine.
    pub sched_seed: Option<u64>,
}

impl StressCase {
    /// Derives a complete case from one `u64`: algorithm, family, size,
    /// UID seed, scenario and adversary seed are all drawn from the
    /// [`DetRng`] stream of `seed`, and so is a scheduler seed when the
    /// scenario [`is_async`](Scenario::is_async) and the algorithm
    /// [`supports_async_engines`](algorithm::ReconfigurationAlgorithm::supports_async_engines).
    /// The same seed always produces the same case — this is the unit of
    /// replay.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = DetRng::seed_from_u64(seed);
        let algorithms = algorithm::registry();
        let a = algorithms[rng.gen_range(0, algorithms.len())];
        // CutInHalf only supports spanning lines; every other algorithm
        // takes the full family roulette.
        let family = if a.spec().id == "centralized_cut_in_half" {
            GraphFamily::Line
        } else {
            GraphFamily::ALL[rng.gen_range(0, GraphFamily::ALL.len())]
        };
        let n = rng.gen_range(8, 41);
        let uid_seed = (rng.next_u64() % 100_000) + 1;
        let pool = dst::scenarios();
        let scenario = pool[rng.gen_range(0, pool.len())].clone();
        let adversary_seed = rng.next_u64();
        // Drawn last, so no earlier draw depends on the engine.
        let sched_seed =
            (scenario.is_async() && a.supports_async_engines()).then(|| rng.next_u64());
        StressCase {
            seed,
            algorithm: a.spec().id.to_string(),
            family,
            n,
            uid_seed,
            scenario,
            adversary_seed,
            round_budget: 8 * n + 64,
            sched_seed,
        }
    }

    /// Constructs an explicit case (for matrix-style sweeps where the
    /// algorithm and scenario are pinned rather than seed-derived). It runs
    /// on the synchronous engine, whatever its scenario.
    pub fn explicit(
        algorithm: &str,
        family: GraphFamily,
        n: usize,
        uid_seed: u64,
        scenario: Scenario,
        adversary_seed: u64,
    ) -> Self {
        StressCase {
            seed: 0,
            algorithm: algorithm.to_string(),
            family,
            n,
            uid_seed,
            scenario,
            adversary_seed,
            round_budget: 8 * n + 64,
            sched_seed: None,
        }
    }
}

/// How an adversarial execution ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StressOutcome {
    /// The algorithm ran to completion.
    Completed {
        /// Rounds consumed.
        rounds: usize,
        /// Total edge activations.
        activations: usize,
    },
    /// The algorithm returned an error (model violation, exhausted round
    /// budget, rejected input — all legitimate under faults).
    Failed(String),
    /// The algorithm panicked; the panic was caught and recorded.
    Panicked(String),
}

impl StressOutcome {
    fn label(&self) -> String {
        match self {
            StressOutcome::Completed {
                rounds,
                activations,
            } => format!("completed (rounds {rounds}, activations {activations})"),
            StressOutcome::Failed(e) => format!("failed: {e}"),
            StressOutcome::Panicked(m) => format!("panicked: {m}"),
        }
    }
}

/// The result of running one [`StressCase`].
#[derive(Debug, Clone, PartialEq)]
pub struct StressReport {
    /// The case that was run.
    pub case: StressCase,
    /// Actual node count of the generated instance.
    pub n_actual: usize,
    /// How the execution ended.
    pub outcome: StressOutcome,
    /// The harvested DST report (fault schedule + violations).
    pub dst: DstReport,
    /// The scheduler's report of a completed seeded run.
    pub runtime: Option<RuntimeReport>,
}

impl StressReport {
    /// A run is *clean* when the algorithm completed and no invariant was
    /// violated. Fault-free scenarios must always be clean; under faults,
    /// `Failed` outcomes are expected and only invariant violations or
    /// panics count as suite failures (see [`StressReport::is_suite_failure`]).
    pub fn is_clean(&self) -> bool {
        matches!(self.outcome, StressOutcome::Completed { .. }) && self.dst.violations.is_empty()
    }

    /// True when this run should fail the stress suite: the algorithm
    /// panicked, or an invariant was violated in a failure-free world, or
    /// the run failed without a single injected fault to blame.
    pub fn is_suite_failure(&self) -> bool {
        match &self.outcome {
            StressOutcome::Panicked(_) => true,
            StressOutcome::Failed(_) => self.dst.faults.is_empty(),
            StressOutcome::Completed { .. } => {
                self.dst.faults.is_empty() && !self.dst.violations.is_empty()
            }
        }
    }

    /// Renders the full report to a stable string; replay equality is
    /// checked byte-for-byte on exactly this.
    pub fn render(&self) -> String {
        let engine = match self.case.sched_seed {
            Some(seed) => format!("sched_seed={seed}"),
            None => format!("budget={}", self.case.round_budget),
        };
        let mut s = String::new();
        s.push_str(&format!(
            "case seed={} algorithm={} family={} n={} (actual {}) uid_seed={} \
             adversary_seed={} {engine}\n",
            self.case.seed,
            self.case.algorithm,
            self.case.family,
            self.case.n,
            self.n_actual,
            self.case.uid_seed,
            self.case.adversary_seed,
        ));
        s.push_str(&format!("outcome: {}\n", self.outcome.label()));
        s.push_str(&self.dst.render());
        if let Some(runtime) = &self.runtime {
            s.push_str(&runtime.render());
        }
        s
    }
}

/// The message a caught panic carried.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one case: generates the instance, arms the network with the
/// scenario's adversary and the spec-derived invariant checker, executes
/// the algorithm (catching panics) and harvests the DST report. A case
/// with a scheduler seed runs on [`EngineMode::Seeded`] with the
/// scenario's delivery knobs; every other case runs on the synchronous
/// engine under its round budget.
///
/// # Panics
///
/// Panics if the case names an unregistered algorithm.
pub fn run_case(case: &StressCase) -> StressReport {
    run_case_with_recorder(case, false)
}

/// Runs one case like [`run_case`], but with the network's raw event
/// recorder armed beside the DST tap and never drained, so both bus taps
/// are live under the full adversarial schedule and the shared event
/// buffer is never compacted. The recorder is an observer: the render is
/// byte-identical to [`run_case`]'s (CI diffs a recorder-armed slice
/// against the committed expectation on exactly this property).
pub fn run_case_recorded(case: &StressCase) -> StressReport {
    run_case_with_recorder(case, true)
}

fn run_case_with_recorder(case: &StressCase, recorded: bool) -> StressReport {
    let a = algorithm::find(&case.algorithm)
        .unwrap_or_else(|| panic!("unregistered algorithm `{}`", case.algorithm));
    let graph = case.family.generate(case.n, case.uid_seed);
    let n_actual = graph.node_count();
    let uids = UidMap::new(
        n_actual,
        UidAssignment::RandomPermutation {
            seed: case.uid_seed,
        },
    );
    let mut network = Network::new(graph);
    let dcfg = DstConfig {
        scenario: case.scenario.clone(),
        seed: case.adversary_seed,
    };
    arm_network_for_dst(&mut network, &a.spec(), &uids, &dcfg);
    if recorded {
        network.set_event_recording(true);
    }
    let config = match case.sched_seed {
        // The armed scenario also hands the scheduler its delivery knobs.
        Some(seed) => RunConfig::default()
            .with_engine(EngineMode::Seeded { seed })
            .with_dst(dcfg.scenario, dcfg.seed),
        None => RunConfig::default().with_round_budget(case.round_budget),
    };

    let result = catch_unwind(AssertUnwindSafe(|| a.execute(&mut network, &uids, &config)));
    let (outcome, dst, runtime) = match result {
        Ok(Ok(o)) => (
            StressOutcome::Completed {
                rounds: o.rounds,
                activations: o.metrics.total_activations,
            },
            o.dst,
            o.runtime,
        ),
        Ok(Err(e)) => (
            StressOutcome::Failed(e.to_string()),
            network.take_dst_report(),
            None,
        ),
        Err(payload) => (
            StressOutcome::Panicked(panic_message(payload)),
            network.take_dst_report(),
            None,
        ),
    };
    let dst = dst.unwrap_or_else(|| DstReport {
        scenario: case.scenario.name.clone(),
        seed: case.adversary_seed,
        rounds_checked: 0,
        crashed: Vec::new(),
        faults: Vec::new(),
        violations: Vec::new(),
    });
    StressReport {
        case: case.clone(),
        n_actual,
        outcome,
        dst,
        runtime,
    }
}

/// Replays a seed-derived case: `replay(seed)` re-runs exactly the
/// execution [`StressCase::from_seed`] describes. Two calls with the same
/// seed render byte-identically.
pub fn replay(seed: u64) -> StressReport {
    run_case(&StressCase::from_seed(seed))
}

/// Runs a seed twice and checks the two renders for byte equality.
/// Returns the first report plus the verdict.
pub fn verify_replay(seed: u64) -> (StressReport, bool) {
    let first = replay(seed);
    let second = replay(seed);
    let identical = first.render() == second.render();
    (first, identical)
}

/// Result of [`minimize`].
#[derive(Debug, Clone)]
pub struct Minimized {
    /// The seed of the minimized case — paste it into [`replay`] (for
    /// seed-derived cases) or re-derive the case and shrink its budget to
    /// [`Minimized::minimal_budget`] to reproduce.
    pub seed: u64,
    /// Smallest fault budget that still reproduces a non-clean run.
    pub minimal_budget: usize,
    /// The fault budget the case originally carried.
    pub original_budget: usize,
    /// The report of the minimized run.
    pub report: StressReport,
}

/// Counts the minimized run's injected faults by kind, in a stable
/// order. Empty entries are omitted.
fn fault_histogram(faults: &[dst::FaultRecord]) -> Vec<(&'static str, usize)> {
    use adn_sim::dst::FaultEvent;
    let kinds = [
        "crash",
        "delete_edge",
        "insert_edge",
        "join",
        "skew",
        "partition",
        "heal",
    ];
    let mut counts = [0usize; 7];
    for f in faults {
        let k = match f.event {
            FaultEvent::CrashNode { .. } => 0,
            FaultEvent::DeleteEdge { .. } => 1,
            FaultEvent::InsertEdge { .. } => 2,
            FaultEvent::Join { .. } => 3,
            FaultEvent::Skew { .. } => 4,
            FaultEvent::Partition { .. } => 5,
            FaultEvent::Heal { .. } => 6,
        };
        counts[k] += 1;
    }
    kinds
        .into_iter()
        .zip(counts)
        .filter(|&(_, c)| c > 0)
        .collect()
}

impl Minimized {
    /// Renders the minimization result to a stable string: the minimized
    /// seed and budget, a histogram of the faults the minimal schedule
    /// actually injected, and the full minimized-run report. Suitable for
    /// pasting into a bug report — the first line alone reproduces the
    /// run.
    pub fn render(&self) -> String {
        let mut s = format!(
            "minimized: seed={} budget {} of {} ({} on {} under {})\n",
            self.seed,
            self.minimal_budget,
            self.original_budget,
            self.report.case.algorithm,
            self.report.case.family,
            self.report.case.scenario.name,
        );
        let histogram = fault_histogram(&self.report.dst.faults);
        if histogram.is_empty() {
            s.push_str("faults injected: none\n");
        } else {
            s.push_str("faults injected:");
            for (kind, count) in histogram {
                s.push_str(&format!(" {kind}={count}"));
            }
            s.push('\n');
        }
        s.push_str(&self.report.render());
        s
    }
}

/// Shrinks a failing case to the smallest fault budget whose run is
/// non-clean. Returns `None` when the case is clean at its original
/// budget (nothing to minimize).
///
/// The RNG-driven fault schedule under budget `b` is a prefix of the
/// schedule under any larger budget, but the runs *diverge after the
/// `b`-th fault* — a later fault can mask an earlier failure (e.g.
/// re-insert a deleted edge), so non-cleanliness is not necessarily
/// monotone in the budget. Partition scenarios bend the prefix property
/// further: the `Heal` half of a partition is budget-free (it consumes
/// neither budget nor RNG), so truncating the budget between a partition
/// and its heal still replays the heal — a smaller-budget run is not a
/// literal schedule prefix. The search therefore never *assumes*
/// prefix-closure: it scans upward from 0 (budgets are small) and returns
/// the report of the first budget it actually observed failing, so the
/// result is failing by construction — for partition/heal scenarios and
/// any future budget-bending fault alike — and exactly minimal: every
/// smaller budget was probed and ran clean.
pub fn minimize(case: &StressCase) -> Option<Minimized> {
    let run_with = |budget: usize| {
        let mut c = case.clone();
        c.scenario.fault_budget = budget;
        run_case(&c)
    };
    let full = run_with(case.scenario.fault_budget);
    if full.is_clean() {
        return None;
    }
    for budget in 0..case.scenario.fault_budget {
        let report = run_with(budget);
        if !report.is_clean() {
            return Some(Minimized {
                seed: case.seed,
                minimal_budget: budget,
                original_budget: case.scenario.fault_budget,
                report,
            });
        }
    }
    Some(Minimized {
        seed: case.seed,
        minimal_budget: case.scenario.fault_budget,
        original_budget: case.scenario.fault_budget,
        report: full,
    })
}

/// Summary of a seed sweep.
#[derive(Debug, Clone)]
pub struct SweepSummary {
    /// The master seed the case seeds were derived from.
    pub master_seed: u64,
    /// All reports, in case order.
    pub reports: Vec<StressReport>,
}

impl SweepSummary {
    /// Number of cleanly completed runs.
    pub fn completed(&self) -> usize {
        self.reports
            .iter()
            .filter(|r| matches!(r.outcome, StressOutcome::Completed { .. }))
            .count()
    }

    /// Number of runs that ended in a clean error.
    pub fn failed(&self) -> usize {
        self.reports
            .iter()
            .filter(|r| matches!(r.outcome, StressOutcome::Failed(_)))
            .count()
    }

    /// Number of caught panics.
    pub fn panicked(&self) -> usize {
        self.reports
            .iter()
            .filter(|r| matches!(r.outcome, StressOutcome::Panicked(_)))
            .count()
    }

    /// Number of runs with at least one invariant violation.
    pub fn with_violations(&self) -> usize {
        self.reports
            .iter()
            .filter(|r| !r.dst.violations.is_empty())
            .count()
    }

    /// The suite failures (see [`StressReport::is_suite_failure`]).
    pub fn suite_failures(&self) -> Vec<&StressReport> {
        self.reports
            .iter()
            .filter(|r| r.is_suite_failure())
            .collect()
    }

    /// A short human-readable summary table.
    pub fn summary_text(&self) -> String {
        let mut s = format!(
            "DST sweep: master_seed={} cases={} completed={} failed={} panicked={} \
             with_violations={} suite_failures={}\n",
            self.master_seed,
            self.reports.len(),
            self.completed(),
            self.failed(),
            self.panicked(),
            self.with_violations(),
            self.suite_failures().len(),
        );
        for r in self.suite_failures() {
            s.push_str(&format!(
                "  FAILURE seed={} ({} on {} under {}): {}\n",
                r.case.seed,
                r.case.algorithm,
                r.case.family,
                r.case.scenario.name,
                r.outcome.label()
            ));
        }
        s
    }

    /// Serializes the sweep to a small JSON document (hand-rolled — the
    /// workspace is dependency-free), suitable for the `BENCH_dst.json`
    /// artifact.
    pub fn to_json(&self) -> String {
        use json_escape as esc;
        let failures: Vec<String> = self
            .suite_failures()
            .iter()
            .map(|r| {
                format!(
                    "{{\"seed\":{},\"algorithm\":\"{}\",\"family\":\"{}\",\"scenario\":\"{}\",\"outcome\":\"{}\"}}",
                    r.case.seed,
                    esc(&r.case.algorithm),
                    esc(r.case.family.name()),
                    esc(&r.case.scenario.name),
                    esc(&r.outcome.label()),
                )
            })
            .collect();
        format!(
            "{{\"master_seed\":{},\"cases\":{},\"completed\":{},\"failed\":{},\"panicked\":{},\
             \"with_violations\":{},\"total_faults_injected\":{},\"suite_failures\":[{}]}}",
            self.master_seed,
            self.reports.len(),
            self.completed(),
            self.failed(),
            self.panicked(),
            self.with_violations(),
            self.reports
                .iter()
                .map(|r| r.dst.faults.len())
                .sum::<usize>(),
            failures.join(","),
        )
    }
}

/// Escapes a string for embedding in the workspace's hand-rolled JSON
/// artifacts (`BENCH_dst.json`, `BENCH_core.json`) — the workspace is
/// dependency-free, so this is the one shared escaper.
pub fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Runs `cases` seed-derived cases, with case seeds drawn from
/// `master_seed`'s [`DetRng`] stream. Every failure is reported with its
/// own `u64` case seed, replayable via [`replay`].
///
/// Equivalent to [`sweep_with_threads`] with one thread.
pub fn sweep(master_seed: u64, cases: usize) -> SweepSummary {
    sweep_with_threads(master_seed, cases, 1)
}

/// Runs the first `cases` cases of a sweep with the event recorder armed
/// (see [`run_case_recorded`]) — the CI recorder-armed stress-sweep
/// slice. The recorder never reaches the rendered reports, so the
/// summary renders byte-identically to the plain sweep's prefix of the
/// same length; what the slice adds is coverage of both bus taps armed
/// together under real adversarial schedules.
pub fn sweep_recorded(master_seed: u64, cases: usize) -> SweepSummary {
    SweepSummary {
        master_seed,
        reports: run_seeds(master_seed, cases, 1, |s| {
            run_case_recorded(&StressCase::from_seed(s))
        }),
    }
}

/// The number of blocks each sweep worker should expect to claim: small
/// enough that the atomic counter is touched a handful of times per
/// worker instead of once per case, large enough that a straggler block
/// cannot serialize the tail of the sweep.
const SWEEP_BLOCKS_PER_WORKER: usize = 8;

/// The sweep pool: runs `run` on each of `cases` case seeds drawn from
/// `master_seed`'s [`DetRng`] stream (the only part that consumes the
/// master RNG; cases are then fully independent) and returns the results
/// in case order. Workers steal contiguous blocks of case indices from a
/// shared atomic counter, one counter bump per block, so the result is
/// the same for every thread count.
fn run_seeds<R: Send>(
    master_seed: u64,
    cases: usize,
    threads: usize,
    run: impl Fn(u64) -> R + Sync,
) -> Vec<R> {
    let mut rng = DetRng::seed_from_u64(master_seed);
    let seeds: Vec<u64> = (0..cases).map(|_| rng.next_u64()).collect();
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let workers = threads.clamp(1, cases.max(1)).min(hw);
    if workers <= 1 {
        return seeds.into_iter().map(run).collect();
    }
    let block = cases.div_ceil(workers * SWEEP_BLOCKS_PER_WORKER).max(1);
    let next = AtomicUsize::new(0);
    let (seeds, next, run) = (&seeds, &next, &run);
    let mut indexed: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let start = next.fetch_add(block, Ordering::Relaxed);
                        if start >= seeds.len() {
                            break;
                        }
                        let end = (start + block).min(seeds.len());
                        out.extend((start..end).map(|i| (i, run(seeds[i]))));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });
    indexed.sort_by_key(|(i, _)| *i);
    debug_assert_eq!(indexed.len(), cases);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// Runs a seed sweep on a pool of `threads` worker threads
/// (`std::thread`, no external dependencies). Case seeds are derived
/// up-front from the master RNG, workers steal contiguous *blocks* of
/// case indices from a shared atomic counter, and reports are reassembled
/// in case order — so the returned [`SweepSummary`] (and therefore
/// `summary_text`/`to_json` and every per-case [`StressReport::render`])
/// is byte-identical for every thread count, including 1.
///
/// `threads` is clamped to `[1, cases]` and to the machine's available
/// parallelism (oversubscription only slows a CPU-bound sweep down);
/// `0` means one thread.
pub fn sweep_with_threads(master_seed: u64, cases: usize, threads: usize) -> SweepSummary {
    SweepSummary {
        master_seed,
        reports: run_seeds(master_seed, cases, threads, |s| {
            run_case(&StressCase::from_seed(s))
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_derivation_is_deterministic() {
        let a = StressCase::from_seed(17);
        let b = StressCase::from_seed(17);
        assert_eq!(a, b);
        let c = StressCase::from_seed(18);
        assert_ne!(a, c);
    }

    #[test]
    fn failure_free_runs_are_clean() {
        for algorithm in adn_core::algorithm::registry() {
            let family = if algorithm.spec().id == "centralized_cut_in_half" {
                GraphFamily::Line
            } else {
                GraphFamily::Ring
            };
            let case = StressCase::explicit(
                algorithm.spec().id,
                family,
                20,
                3,
                Scenario::failure_free(),
                99,
            );
            let report = run_case(&case);
            assert!(
                report.is_clean(),
                "{} under failure_free: {}",
                algorithm.spec().id,
                report.render()
            );
            assert!(!report.is_suite_failure());
        }
    }

    #[test]
    fn seed_derivation_routes_async_scenarios_of_async_algorithms() {
        for seed in 0..256u64 {
            let case = StressCase::from_seed(seed);
            let a = algorithm::find(&case.algorithm).expect("registered algorithm");
            assert_eq!(
                case.sched_seed.is_some(),
                case.scenario.is_async() && a.supports_async_engines(),
                "seed {seed}: {case:?}"
            );
        }
        // The scheduler seed is the last draw, so every other field keeps
        // the value the seed drew when every case ran synchronously.
        let pinned = [
            "1 flooding star 22 34607 async_asymmetric 17388166129998380965 seeded",
            "7 flooding hypercube 22 44480 failure_free 8817880822462381631 sync",
            "14 clique_formation line 11 64808 async_asymmetric 3553216667817520020 sync",
            "19 graph_to_wreath dense_random 15 25672 async_reorder 18002629913981916097 seeded",
            "28 graph_to_wreath barbell 21 37541 churn 8582721815330874092 sync",
        ];
        for pin in pinned {
            let seed = pin.split(' ').next().unwrap().parse().unwrap();
            let c = StressCase::from_seed(seed);
            let engine = match c.sched_seed {
                Some(_) => "seeded",
                None => "sync",
            };
            let drawn = format!(
                "{seed} {} {} {} {} {} {} {engine}",
                c.algorithm, c.family, c.n, c.uid_seed, c.scenario.name, c.adversary_seed
            );
            assert_eq!(drawn, pin);
            assert_eq!(c.round_budget, 8 * c.n + 64, "{pin}");
        }
    }

    #[test]
    fn replay_is_byte_identical() {
        // 1 (flooding), 19 and 20 (GraphToWreath) run on the seeded
        // scheduler.
        let seeds = [1u64, 2, 3, 19, 20, 40, 41];
        let mut seeded = 0;
        for seed in seeds {
            let (report, identical) = verify_replay(seed);
            assert!(identical, "seed {seed} diverged:\n{}", report.render());
            seeded += usize::from(report.case.sched_seed.is_some());
        }
        assert_eq!(seeded, 3);
    }

    #[test]
    fn seeded_cases_render_a_quiesced_runtime_report() {
        let summary = sweep(0x51EE7, 48);
        let seeded: Vec<_> = summary
            .reports
            .iter()
            .filter(|r| r.case.sched_seed.is_some())
            .collect();
        assert!(seeded.len() >= 4, "{} seeded cases", seeded.len());
        for r in seeded {
            let render = r.render();
            assert!(
                matches!(r.outcome, StressOutcome::Completed { .. }),
                "{render}"
            );
            assert!(render.contains("termination: detected"), "{render}");
            assert!(render.contains("in flight 0"), "{render}");
        }
    }

    #[test]
    fn crash_armed_seeded_case_replays_and_degrades_cleanly() {
        // No registered asynchronous scenario crashes a node, so the crash
        // half of a seeded run is pinned with explicit cases: one crash of
        // the highest-degree node, at one commit round each, swept across
        // the 40 commit rounds of a star run under async_churn's delivery
        // knobs. Whichever way each run falls — surviving to a star or
        // degrading — it must replay byte-identically, pin the crash in
        // its render, and fail, if at all, with a clean error.
        let knobs = dst::find_scenario("async_churn").expect("async_churn is registered");
        let (mut completed, mut failed) = (0, 0);
        for round in 2..=41 {
            let scenario = Scenario {
                name: "crash_stop".to_string(),
                fault_budget: 1,
                per_round_probability: 1.0,
                crash_weight: 1,
                churn_weight: 0,
                ..knobs.clone()
            }
            .with_window(round, Some(round))
            .with_target(dst::TargetPolicy::MaxDegree);
            let case = StressCase {
                sched_seed: Some(5),
                ..StressCase::explicit(
                    "graph_to_star",
                    GraphFamily::Ring,
                    16,
                    21,
                    scenario,
                    round as u64,
                )
            };
            let first = run_case(&case);
            let render = first.render();
            assert_eq!(render, run_case(&case).render(), "crash case diverged");
            assert!(
                render.contains(&format!("fault @r{round}: crash node")),
                "render must pin the crash:\n{render}"
            );
            assert!(!first.is_suite_failure(), "{render}");
            match first.outcome {
                StressOutcome::Completed { .. } => completed += 1,
                StressOutcome::Failed(_) => failed += 1,
                StressOutcome::Panicked(_) => panic!("{render}"),
            }
        }
        assert!(
            completed > 0 && failed > 0,
            "{completed} completed, {failed} failed"
        );
    }

    #[test]
    fn recorder_armed_cases_render_like_plain_cases() {
        // The CI slice's master seed (`adn_bench::DST_MASTER_SEED`).
        let master_seed = 0xD57_5EED;
        let plain = sweep(master_seed, 24);
        let recorded = sweep_recorded(master_seed, 24);
        assert_eq!(plain.reports.len(), 24);
        assert!(plain.reports.iter().any(|r| r.case.sched_seed.is_some()));
        for (plain, recorded) in plain.reports.iter().zip(&recorded.reports) {
            assert_eq!(plain.render(), recorded.render());
        }
    }

    #[test]
    fn minimizer_finds_a_minimal_failing_budget() {
        // Crashing an interior node of a line disconnects it: flooding
        // then cannot complete, and the connectivity invariant records a
        // violation — a guaranteed non-clean case.
        let scenario = Scenario {
            per_round_probability: 1.0,
            ..Scenario::crash_stop().with_fault_budget(6)
        };
        let case = StressCase::explicit("flooding", GraphFamily::Line, 16, 1, scenario, 12345);
        let full = run_case(&case);
        assert!(!full.is_clean(), "{}", full.render());
        let minimized = minimize(&case).expect("a failing case must minimize");
        assert!(minimized.minimal_budget >= 1, "budget 0 is failure-free");
        assert!(minimized.minimal_budget <= 6);
        assert!(!minimized.report.is_clean());
        // The render leads with the reproduction line and histograms the
        // injected faults (a pure-crash scenario injects only crashes).
        let rendered = minimized.render();
        assert!(
            rendered.starts_with(&format!(
                "minimized: seed=0 budget {} of 6",
                minimized.minimal_budget
            )),
            "{rendered}"
        );
        assert!(rendered.contains("faults injected: crash="), "{rendered}");
        assert!(!rendered.contains("delete_edge="), "{rendered}");
        assert!(rendered.contains("outcome:"), "{rendered}");
        // The minimal budget really is minimal: one less fault is clean.
        let mut below = case.clone();
        below.scenario.fault_budget = minimized.minimal_budget - 1;
        assert!(run_case(&below).is_clean(), "{}", run_case(&below).render());
    }

    #[test]
    fn minimizer_returns_a_failing_budget_for_partition_scenarios() {
        // Regression guard for the budget-free heal: `partition_heal`
        // schedules its `Heal` without consuming budget or RNG, so a
        // smaller-budget run is *not* a literal prefix of the original
        // schedule. The minimizer must still return a budget whose run it
        // observed failing — never a "minimal" budget that runs clean.
        let scenario = Scenario {
            per_round_probability: 1.0,
            ..dst::find_scenario("partition_heal")
                .expect("registered scenario")
                .with_fault_budget(4)
        };
        let mut minimized_some = 0usize;
        for adversary_seed in 0..40u64 {
            let case = StressCase::explicit(
                "graph_to_star",
                GraphFamily::SparseRandom,
                18,
                3,
                scenario.clone(),
                adversary_seed,
            );
            let full = run_case(&case);
            if full.is_clean() {
                continue;
            }
            let minimized = minimize(&case).expect("non-clean case must minimize");
            minimized_some += 1;
            assert!(
                !minimized.report.is_clean(),
                "seed {adversary_seed}: minimize returned a clean \"minimal\" budget {}:\n{}",
                minimized.minimal_budget,
                minimized.report.render()
            );
            assert!(minimized.minimal_budget <= case.scenario.fault_budget);
            // Exact minimality: every smaller budget runs clean.
            for below in 0..minimized.minimal_budget {
                let mut c = case.clone();
                c.scenario.fault_budget = below;
                assert!(
                    run_case(&c).is_clean(),
                    "seed {adversary_seed}: budget {below} already fails, {} is not minimal",
                    minimized.minimal_budget
                );
            }
        }
        assert!(
            minimized_some >= 3,
            "only {minimized_some} of 40 partition cases were non-clean — \
             the regression guard never exercised the minimizer"
        );
    }

    #[test]
    fn sweep_output_is_identical_across_thread_counts() {
        let serial = sweep_with_threads(0xAB1E, 10, 1);
        assert!(serial.reports.iter().any(|r| r.case.sched_seed.is_some()));
        for threads in [2usize, 4, 16] {
            let parallel = sweep_with_threads(0xAB1E, 10, threads);
            assert_eq!(parallel.master_seed, serial.master_seed);
            assert_eq!(parallel.reports.len(), serial.reports.len());
            assert_eq!(
                parallel.summary_text(),
                serial.summary_text(),
                "aggregate diverged at {threads} threads"
            );
            assert_eq!(parallel.to_json(), serial.to_json());
            for (a, b) in serial.reports.iter().zip(&parallel.reports) {
                assert_eq!(
                    a.render(),
                    b.render(),
                    "case seed {} diverged at {threads} threads",
                    a.case.seed
                );
            }
        }
        // `sweep` is the one-thread path.
        let plain = sweep(0xAB1E, 10);
        assert_eq!(plain.to_json(), serial.to_json());
    }

    #[test]
    fn sweep_reports_are_individually_replayable() {
        let summary = sweep(0xD57, 12);
        assert_eq!(summary.reports.len(), 12);
        for report in &summary.reports {
            let again = replay(report.case.seed);
            assert_eq!(
                report.render(),
                again.render(),
                "case seed {} is not reproducible",
                report.case.seed
            );
        }
        let json = summary.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"cases\":12"));
    }
}
