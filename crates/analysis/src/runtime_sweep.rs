//! Deterministic seed sweep for the asynchronous actor runtime.
//!
//! The synchronous stress suite ([`crate::stress`]) derives a whole
//! adversarial execution from one `u64`; this module applies the same
//! recipe to the `adn-runtime` schedulers. A [`RuntimeCase`] names a
//! program (flooding actors, the line-to-tree actors, or one of the
//! committee algorithms — GraphToStar / GraphToWreath), a workload, an
//! *asynchronous* scenario, a scheduler seed and an adversary seed, all
//! drawn from a single case seed, so any divergence found by a sweep is
//! one replayable number.
//!
//! The scenario's delivery knobs (reorder window, per-link delay,
//! asymmetric latency) perturb every case's scheduler. Committee cases
//! also run on a network armed with the DST adversary
//! ([`arm_network_for_dst`]) under the case's scenario and adversary
//! seed, so the stress suite's faults land at the run's commits, and
//! their report renders the harvested [`DstReport`]. Flooding and
//! line-to-tree cases run unarmed: flooding actors never commit, so the
//! adversary would never act, and the line-to-tree actors run armed
//! inside every wreath case's rebuilds.
//!
//! Every case runs on the [`SeededScheduler`]: its delivery order is a
//! pure function of the scheduler seed, and the adversary's schedule a
//! pure function of its own seed, so [`RuntimeCaseReport::render`] is
//! byte-identical across reruns and thread counts — exactly the replay
//! contract the synchronous suite gives, extended to executions with no
//! round structure at all. A panic is caught and reported as the case's
//! outcome, and the sweep applies the stress suite's suite-failure rule
//! ([`RuntimeCaseReport::is_suite_failure`]).
//!
//! [`SeededScheduler`]: adn_runtime::SeededScheduler

use crate::stress::panic_message;
use adn_core::algorithm::{self, arm_network_for_dst, DstConfig, EngineMode, RunConfig};
use adn_core::graph_to_wreath::WreathConfig;
use adn_core::subroutines::{
    run_runtime_line_to_tree, run_runtime_star, run_runtime_wreath, LineToTreeConfig,
};
use adn_graph::rng::DetRng;
use adn_graph::{GraphFamily, NodeId, UidAssignment, UidMap};
use adn_runtime::{AsyncKnobs, Scheduler, SeededScheduler};
use adn_sim::dst::{self, DstReport, Scenario};
use adn_sim::Network;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The actor program a runtime case exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeProgram {
    /// Delta-forwarding token flooding (through the `flooding` registry
    /// entry, i.e. the full `EngineMode` dispatch path).
    Flooding,
    /// The message-driven line-to-tree actors
    /// ([`adn_core::subroutines::runtime_line_to_tree`]).
    LineToTree,
    /// The committee actors running GraphToStar
    /// ([`adn_core::subroutines::runtime_committee`]).
    Star,
    /// The committee actors running the wreath family (tree arity from
    /// [`RuntimeCase::arity`]).
    Wreath,
}

impl RuntimeProgram {
    /// Stable program identifier used in renders and sweep summaries.
    pub fn name(&self) -> &'static str {
        match self {
            RuntimeProgram::Flooding => "flooding",
            RuntimeProgram::LineToTree => "line_to_tree",
            RuntimeProgram::Star => "graph_to_star",
            RuntimeProgram::Wreath => "graph_to_wreath",
        }
    }

    /// Whether this program runs the committee actors (and therefore
    /// runs on a network armed with the DST adversary).
    pub fn is_committee(&self) -> bool {
        matches!(self, RuntimeProgram::Star | RuntimeProgram::Wreath)
    }
}

/// Workload families used for flooding cases — the connected subset, so
/// a clean run is always possible (flooding rejects disconnected
/// inputs).
const FLOOD_FAMILIES: [GraphFamily; 8] = [
    GraphFamily::Line,
    GraphFamily::Ring,
    GraphFamily::Star,
    GraphFamily::CompleteBinaryTree,
    GraphFamily::Grid,
    GraphFamily::RandomTree,
    GraphFamily::Caterpillar,
    GraphFamily::Hypercube,
];

/// Workload families for committee cases — the subset that honours the
/// requested node count exactly (Grid and Hypercube round `n`).
const COMMITTEE_FAMILIES: [GraphFamily; 4] = [
    GraphFamily::Line,
    GraphFamily::Ring,
    GraphFamily::RandomTree,
    GraphFamily::Caterpillar,
];

/// One fully specified asynchronous execution.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeCase {
    /// The single seed this case was derived from (0 for explicit cases).
    pub seed: u64,
    /// The actor program under test.
    pub program: RuntimeProgram,
    /// Workload family of the initial network (always `Line` for
    /// [`RuntimeProgram::LineToTree`]).
    pub family: GraphFamily,
    /// Requested node count (families may round it).
    pub n: usize,
    /// Seed for instance generation and the UID permutation.
    pub uid_seed: u64,
    /// The asynchronous scenario supplying the delivery knobs.
    pub scenario: Scenario,
    /// The scheduler seed (delivery order, delay jitter).
    pub sched_seed: u64,
    /// Tree arity for line-to-tree and wreath cases (ignored by
    /// flooding and GraphToStar).
    pub arity: usize,
    /// Seed of the DST adversary armed on committee cases' networks
    /// (ignored by flooding and line-to-tree cases, which run unarmed).
    pub adversary_seed: u64,
}

impl RuntimeCase {
    /// Derives a complete case from one `u64` — the unit of replay.
    ///
    /// # Panics
    ///
    /// Panics if the scenario registry contains no asynchronous
    /// scenarios (a registry regression).
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = DetRng::seed_from_u64(seed);
        let program = match rng.gen_range(0, 4) {
            0 => RuntimeProgram::Flooding,
            1 => RuntimeProgram::LineToTree,
            2 => RuntimeProgram::Star,
            _ => RuntimeProgram::Wreath,
        };
        let family = match program {
            RuntimeProgram::Flooding => FLOOD_FAMILIES[rng.gen_range(0, FLOOD_FAMILIES.len())],
            RuntimeProgram::LineToTree => GraphFamily::Line,
            RuntimeProgram::Star | RuntimeProgram::Wreath => {
                COMMITTEE_FAMILIES[rng.gen_range(0, COMMITTEE_FAMILIES.len())]
            }
        };
        let n = rng.gen_range(8, 65);
        let uid_seed = (rng.next_u64() % 100_000) + 1;
        let pool: Vec<Scenario> = dst::scenarios()
            .into_iter()
            .filter(|s| s.is_async())
            .collect();
        assert!(!pool.is_empty(), "no asynchronous scenarios registered");
        let scenario = pool[rng.gen_range(0, pool.len())].clone();
        let sched_seed = rng.next_u64();
        let arity = 2 + rng.gen_range(0, 3);
        // Drawn last: drawing it earlier would move every later field of
        // every case.
        let adversary_seed = rng.next_u64();
        RuntimeCase {
            seed,
            program,
            family,
            n,
            uid_seed,
            scenario,
            sched_seed,
            arity,
            adversary_seed,
        }
    }
}

/// The result of running one [`RuntimeCase`].
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeCaseReport {
    /// The case that was run.
    pub case: RuntimeCase,
    /// Actual node count of the generated instance.
    pub n_actual: usize,
    /// A stable one-line digest of the program outcome (`completed …`,
    /// `failed: …` or `panicked: …`).
    pub outcome: String,
    /// Render of the scheduler's [`adn_runtime::RuntimeReport`] (empty
    /// when the run failed before the scheduler finished).
    pub runtime: String,
    /// Whether the run completed.
    pub completed: bool,
    /// Whether the program panicked (the panic was caught; the run did
    /// not complete).
    pub panicked: bool,
    /// The DST report harvested from an armed (committee) case's network:
    /// the adversary's fault schedule and every invariant violation.
    pub dst: Option<DstReport>,
}

impl RuntimeCaseReport {
    /// Whether the invariant checker recorded at least one violation.
    fn has_violations(&self) -> bool {
        self.dst.as_ref().is_some_and(|d| !d.violations.is_empty())
    }

    /// True when this run should fail the sweep, by the stress suite's
    /// rule ([`crate::stress::StressReport::is_suite_failure`]): the
    /// program panicked, or it failed or violated an invariant without a
    /// single injected fault to blame.
    pub fn is_suite_failure(&self) -> bool {
        let faulted = self.dst.as_ref().is_some_and(|d| !d.faults.is_empty());
        self.panicked || (!faulted && (!self.completed || self.has_violations()))
    }

    /// Renders the full report to a stable string; replay equality is
    /// checked byte-for-byte on exactly this.
    pub fn render(&self) -> String {
        let knobs = AsyncKnobs::from_scenario(&self.case.scenario);
        let mut s = String::new();
        s.push_str(&format!(
            "runtime case seed={} program={} family={} n={} (actual {}) uid_seed={} \
             scenario={} sched_seed={} arity={}\n",
            self.case.seed,
            self.case.program.name(),
            self.case.family,
            self.case.n,
            self.n_actual,
            self.case.uid_seed,
            self.case.scenario.name,
            self.case.sched_seed,
            self.case.arity,
        ));
        s.push_str(&format!(
            "knobs: reorder_window={} max_link_delay={} asymmetric={}\n",
            knobs.reorder_window, knobs.max_link_delay, knobs.asymmetric_delay,
        ));
        if let Some(dst) = &self.dst {
            s.push_str(&dst.render());
        }
        s.push_str(&format!("outcome: {}\n", self.outcome));
        s.push_str(&self.runtime);
        s
    }
}

/// The case's seeded scheduler: its scheduler seed and its scenario's
/// delivery knobs.
fn scheduler(case: &RuntimeCase) -> Scheduler {
    Scheduler::Seeded(
        SeededScheduler::new(case.sched_seed).with_knobs(AsyncKnobs::from_scenario(&case.scenario)),
    )
}

/// What a completed program leaves behind: its outcome digest, the
/// render of its runtime report and, for an armed case, its DST report.
type Completed = (String, String, Option<DstReport>);

/// Runs one case on the seeded scheduler. Committee cases run on a
/// network armed with the DST adversary under the case's scenario and
/// adversary seed; a panic is caught and becomes the `panicked: …`
/// outcome.
pub fn run_case(case: &RuntimeCase) -> RuntimeCaseReport {
    let graph = case.family.generate(case.n, case.uid_seed);
    let n_actual = graph.node_count();
    let uids = UidMap::new(
        n_actual,
        UidAssignment::RandomPermutation {
            seed: case.uid_seed,
        },
    );
    let mut network = Network::new(graph);
    if case.program.is_committee() {
        let a = algorithm::find(case.program.name()).expect("committee programs are registered");
        let dst = DstConfig {
            scenario: case.scenario.clone(),
            seed: case.adversary_seed,
        };
        arm_network_for_dst(&mut network, &a.spec(), &uids, &dst);
    }
    let result = catch_unwind(AssertUnwindSafe(|| run_program(case, &mut network, &uids)));
    let (completed, panicked) = (matches!(result, Ok(Ok(_))), result.is_err());
    let (outcome, runtime, dst) = match result {
        Ok(Ok(done)) => done,
        Ok(Err(e)) => (format!("failed: {e}"), String::new(), None),
        Err(payload) => (
            format!("panicked: {}", panic_message(payload)),
            String::new(),
            None,
        ),
    };
    RuntimeCaseReport {
        case: case.clone(),
        n_actual,
        outcome,
        runtime,
        completed,
        panicked,
        // A run that did not complete left its report on the network.
        dst: dst.or_else(|| network.take_dst_report()),
    }
}

/// Runs the case's program on `network`; errors come back rendered.
fn run_program(
    case: &RuntimeCase,
    network: &mut Network,
    uids: &UidMap,
) -> Result<Completed, String> {
    let n_actual = network.node_count();
    match case.program {
        RuntimeProgram::Flooding => {
            let a = algorithm::find("flooding").expect("flooding is registered");
            let mut config = RunConfig::default().with_engine(EngineMode::Seeded {
                seed: case.sched_seed,
            });
            // The scenario is knob transport only: the network is *not*
            // armed (flooding actors never commit, so an adversary would
            // never act) — `RunConfig::scheduler` lifts the delivery knobs.
            config.dst = Some(DstConfig {
                scenario: case.scenario.clone(),
                seed: case.sched_seed,
            });
            let o = a
                .execute(network, uids, &config)
                .map_err(|e| e.to_string())?;
            let full = o.tokens_per_node.iter().filter(|&&t| t == n_actual).count();
            let report = o.runtime.expect("async flooding reports its runtime");
            Ok((
                format!(
                    "completed (leader {}, {}/{} nodes hold all tokens)",
                    o.leader, full, n_actual
                ),
                report.render(),
                o.dst,
            ))
        }
        RuntimeProgram::LineToTree => {
            let line: Vec<NodeId> = (0..n_actual).map(NodeId).collect();
            let config = LineToTreeConfig {
                arity: case.arity,
                keep_line_edges: false,
            };
            let (tree, report) =
                run_runtime_line_to_tree(network, &line, &config, &scheduler(case))
                    .map_err(|e| e.to_string())?;
            Ok((
                format!(
                    "completed (tree depth {}, root {})",
                    tree.depth(),
                    tree.root()
                ),
                report.render(),
                None,
            ))
        }
        RuntimeProgram::Star | RuntimeProgram::Wreath => {
            let config = RunConfig::default();
            let scheduler = scheduler(case);
            let o = match case.program {
                RuntimeProgram::Star => run_runtime_star(network, uids, &config, &scheduler),
                _ => {
                    let wreath = WreathConfig {
                        tree_arity: case.arity,
                        ..WreathConfig::binary()
                    };
                    run_runtime_wreath(network, uids, &wreath, &config, &scheduler)
                }
            }
            .map_err(|e| e.to_string())?;
            let report = o
                .runtime
                .expect("async committee runs report their runtime");
            Ok((
                format!(
                    "completed (leader {}, {} phases, committees per phase {:?})",
                    o.leader, o.phases, o.committees_per_phase
                ),
                report.render(),
                o.dst,
            ))
        }
    }
}

/// Replays a seed-derived case; two calls with the same seed render
/// byte-identically.
pub fn replay(seed: u64) -> RuntimeCaseReport {
    run_case(&RuntimeCase::from_seed(seed))
}

/// Runs a seed twice and checks the two renders for byte equality.
pub fn verify_replay(seed: u64) -> (RuntimeCaseReport, bool) {
    let first = replay(seed);
    let second = replay(seed);
    let identical = first.render() == second.render();
    (first, identical)
}

/// Summary of a runtime seed sweep.
#[derive(Debug, Clone)]
pub struct RuntimeSweepSummary {
    /// The master seed the case seeds were derived from.
    pub master_seed: u64,
    /// All reports, in case order.
    pub reports: Vec<RuntimeCaseReport>,
}

impl RuntimeSweepSummary {
    /// Number of completed runs.
    pub fn completed(&self) -> usize {
        self.reports.iter().filter(|r| r.completed).count()
    }

    /// The reports of runs that did not complete.
    pub fn failures(&self) -> Vec<&RuntimeCaseReport> {
        self.reports.iter().filter(|r| !r.completed).collect()
    }

    /// Number of runs with at least one invariant violation.
    pub fn with_violations(&self) -> usize {
        self.reports.iter().filter(|r| r.has_violations()).count()
    }

    /// The suite failures (see [`RuntimeCaseReport::is_suite_failure`]).
    pub fn suite_failures(&self) -> Vec<&RuntimeCaseReport> {
        self.reports
            .iter()
            .filter(|r| r.is_suite_failure())
            .collect()
    }

    /// A short human-readable summary, listing every run that did not
    /// complete or is a suite failure.
    pub fn summary_text(&self) -> String {
        let mut s = format!(
            "runtime sweep: master_seed={} cases={} completed={} failed={} \
             with_violations={} suite_failures={}\n",
            self.master_seed,
            self.reports.len(),
            self.completed(),
            self.failures().len(),
            self.with_violations(),
            self.suite_failures().len(),
        );
        for r in self
            .reports
            .iter()
            .filter(|r| !r.completed || r.is_suite_failure())
        {
            s.push_str(&format!(
                "  FAILURE seed={} ({} on {} under {} sched_seed={}): {}\n",
                r.case.seed,
                r.case.program.name(),
                r.case.family,
                r.case.scenario.name,
                r.case.sched_seed,
                r.outcome,
            ));
        }
        s
    }
}

/// Runs `cases` seed-derived runtime cases with seeds drawn from
/// `master_seed`. Equivalent to [`sweep_with_threads`] with one thread.
pub fn sweep(master_seed: u64, cases: usize) -> RuntimeSweepSummary {
    sweep_with_threads(master_seed, cases, 1)
}

/// Runs a runtime seed sweep on `threads` worker threads, on the stress
/// sweep's pool ([`crate::stress::sweep_with_threads`]): the summary and
/// every per-case render are byte-identical for every thread count.
pub fn sweep_with_threads(master_seed: u64, cases: usize, threads: usize) -> RuntimeSweepSummary {
    RuntimeSweepSummary {
        master_seed,
        reports: crate::stress::run_seeds(master_seed, cases, threads, |s| {
            run_case(&RuntimeCase::from_seed(s))
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_derivation_is_deterministic_and_async_only() {
        for seed in 0..32u64 {
            let a = RuntimeCase::from_seed(seed);
            let b = RuntimeCase::from_seed(seed);
            assert_eq!(a, b);
            assert!(a.scenario.is_async(), "seed {seed} drew a sync scenario");
            if a.program.is_committee() {
                assert!(
                    COMMITTEE_FAMILIES.contains(&a.family),
                    "seed {seed} drew a family that rounds n for a committee program"
                );
            }
        }
    }

    #[test]
    fn only_committee_cases_render_a_dst_report() {
        for seed in [26u64, 27, 28, 30] {
            let report = replay(seed);
            assert_eq!(
                report.dst.is_some(),
                report.case.program.is_committee(),
                "{}",
                report.render()
            );
        }
    }

    #[test]
    fn suite_failures_follow_the_stress_rule() {
        let base = replay(26);
        let dst = DstReport {
            scenario: "async_churn".to_string(),
            seed: 1,
            rounds_checked: 2,
            crashed: Vec::new(),
            faults: Vec::new(),
            violations: Vec::new(),
        };
        let fault = dst::FaultRecord {
            round: 2,
            event: dst::FaultEvent::Skew { rounds: 1 },
        };
        let violation = dst::Violation {
            round: 2,
            invariant: "connectivity",
            detail: String::new(),
        };
        let report = |completed: bool, panicked: bool, faults: bool, violations: bool| {
            let mut dst = dst.clone();
            if faults {
                dst.faults.push(fault.clone());
            }
            if violations {
                dst.violations.push(violation.clone());
            }
            RuntimeCaseReport {
                completed,
                panicked,
                dst: Some(dst),
                ..base.clone()
            }
        };
        // (completed, panicked, faults, violations) -> suite failure
        for (case, expected) in [
            ((true, false, false, false), false),
            ((true, false, false, true), true),
            ((true, false, true, true), false),
            ((false, false, false, false), true),
            ((false, false, true, false), false),
            ((false, true, true, false), true),
        ] {
            let (completed, panicked, faults, violations) = case;
            assert_eq!(
                report(completed, panicked, faults, violations).is_suite_failure(),
                expected,
                "{case:?}"
            );
        }
    }

    #[test]
    fn replay_is_byte_identical() {
        // Seeds chosen to cover every program, including committee cases
        // under the churn adversary (30 = star + joins, 49 = wreath +
        // joins).
        for seed in [26u64, 27, 28, 30, 34, 49] {
            let (report, identical) = verify_replay(seed);
            assert!(identical, "seed {seed} diverged:\n{}", report.render());
        }
    }

    #[test]
    fn sweep_completes_and_is_thread_count_invariant() {
        let serial = sweep_with_threads(0xCAFE, 8, 1);
        assert_eq!(serial.completed(), 8, "{}", serial.summary_text());
        for threads in [2usize, 4] {
            let parallel = sweep_with_threads(0xCAFE, 8, threads);
            assert_eq!(parallel.summary_text(), serial.summary_text());
            for (a, b) in serial.reports.iter().zip(&parallel.reports) {
                assert_eq!(
                    a.render(),
                    b.render(),
                    "case seed {} diverged at {threads} threads",
                    a.case.seed
                );
            }
        }
    }

    #[test]
    fn completed_reports_embed_a_quiesced_runtime_report() {
        let summary = sweep(0x51EE7, 6);
        for r in &summary.reports {
            assert!(r.completed, "{}", r.render());
            assert!(
                r.runtime.contains("termination: detected"),
                "{}",
                r.render()
            );
            assert!(r.runtime.contains("in flight 0"), "{}", r.render());
        }
    }

    #[test]
    fn crash_armed_committee_case_replays_and_degrades_cleanly() {
        // The async pool's only fault-budgeted scenario joins nodes and
        // never crashes one, so the crash half of the armed path is pinned
        // with explicit cases: one crash of the highest-degree node, at
        // one commit round each, swept across all 40 commit rounds of a
        // star run under async_churn's delivery knobs. Whichever way each
        // run falls — surviving to a star or degrading — the outcome must
        // replay byte-identically, the render must pin the crash, and any
        // failure must be the clean error, not a panic or a hang.
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
            let case = RuntimeCase {
                seed: 0,
                program: RuntimeProgram::Star,
                family: GraphFamily::Ring,
                n: 16,
                uid_seed: 21,
                scenario,
                sched_seed: 5,
                arity: 2,
                adversary_seed: round as u64,
            };
            let first = run_case(&case);
            let second = run_case(&case);
            assert_eq!(first.render(), second.render(), "crash case diverged");
            assert!(
                first
                    .render()
                    .contains(&format!("fault @r{round}: crash node")),
                "render must pin the crash:\n{}",
                first.render()
            );
            assert!(!first.is_suite_failure(), "{}", first.render());
            if first.completed {
                completed += 1;
            } else {
                assert!(
                    first.outcome.starts_with("failed: "),
                    "degraded run must fail cleanly: {}",
                    first.outcome
                );
                failed += 1;
            }
        }
        assert!(
            completed > 0 && failed > 0,
            "{completed} completed, {failed} failed"
        );
    }
}
