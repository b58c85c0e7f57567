//! The four workloads: seed-derived job lists, how one job runs, and the
//! output checks every job must pass.

use adn_analysis::stress::{self, StressCase, StressReport};
use adn_core::algorithm::{self, EngineMode, ReconfigurationAlgorithm, RunConfig};
use adn_core::TransformationOutcome;
use adn_graph::rng::DetRng;
use adn_graph::{traversal, Graph, GraphFamily, UidAssignment, UidMap};
use adn_sim::{dst, Network, Scenario};

/// One named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SparseSync,
    DenseSync,
    AsyncSeeded,
    DstSweep,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SparseSync,
        Workload::DenseSync,
        Workload::AsyncSeeded,
        Workload::DstSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SparseSync => "sparse_sync",
            Workload::DenseSync => "dense_sync",
            Workload::AsyncSeeded => "async_seeded",
            Workload::DstSweep => "dst_sweep",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes: `Full` is the benchmark, `Mini` the same job shapes at toy
/// sizes for the unit tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    #[cfg(test)]
    Mini,
}

/// One generated initial network with its UID assignment. Built exactly as
/// `StressCase` builds its instances: the family generated from `seed`, and
/// UIDs a random permutation from the same seed.
#[derive(Debug, PartialEq)]
pub struct Instance {
    pub family: GraphFamily,
    pub n: usize,
    pub seed: u64,
    pub graph: Graph,
    pub uids: UidMap,
}

impl Instance {
    pub fn derive(family: GraphFamily, n: usize, seed: u64) -> Instance {
        let graph = family.generate(n, seed);
        let uids = UidMap::new(
            graph.node_count(),
            UidAssignment::RandomPermutation { seed },
        );
        Instance {
            family,
            n,
            seed,
            graph,
            uids,
        }
    }
}

/// One algorithm execution of a job list.
pub struct Job {
    pub algorithm: &'static dyn ReconfigurationAlgorithm,
    pub instance: usize,
    pub config: RunConfig,
}

/// Everything set-up builds for one run: the job list and its inputs.
pub enum Work {
    /// Algorithm executions on bench-built networks (no DST armed).
    Runs {
        instances: Vec<Instance>,
        jobs: Vec<Job>,
    },
    /// Stress cases, each run DST-armed by `stress::run_case`.
    Stress { cases: Vec<StressCase> },
}

impl Work {
    pub fn len(&self) -> usize {
        match self {
            Work::Runs { jobs, .. } => jobs.len(),
            Work::Stress { cases } => cases.len(),
        }
    }
}

/// A ladder of instances: `steps` sizes per family, spaced geometrically
/// from `min_n` to `max_n` and handed round-robin to the families, so
/// every instance has a size of its own.
struct Ladder {
    algorithms: &'static [&'static str],
    families: &'static [GraphFamily],
    min_n: usize,
    max_n: usize,
    steps: usize,
}

impl Ladder {
    /// The (family, n) of every instance, by ascending n.
    fn sizes(&self) -> Vec<(GraphFamily, usize)> {
        let count = self.families.len() * self.steps;
        let ratio = self.max_n as f64 / self.min_n as f64;
        (0..count)
            .map(|i| {
                let t = i as f64 / (count - 1).max(1) as f64;
                let n = (self.min_n as f64 * ratio.powf(t)).round() as usize;
                (self.families[i % self.families.len()], n)
            })
            .collect()
    }
}

const SPARSE_WREATHS: &[&str] = &["graph_to_wreath", "graph_to_thin_wreath"];
const SPARSE_FAMILIES: &[GraphFamily] = &[
    GraphFamily::Line,
    GraphFamily::Ring,
    GraphFamily::Grid,
    GraphFamily::BoundedDegreeConnected,
    GraphFamily::RandomTree,
];
const DENSE_ALGORITHMS: &[&str] = &["clique_formation", "flooding"];
const DENSE_FAMILIES: &[GraphFamily] = &[
    GraphFamily::Line,
    GraphFamily::SparseRandom,
    GraphFamily::DenseRandom,
];
const ASYNC_FAMILIES: &[GraphFamily] = &[
    GraphFamily::Ring,
    GraphFamily::Line,
    GraphFamily::BoundedDegreeConnected,
];

fn ladders(workload: Workload, scale: Scale) -> Vec<Ladder> {
    let full = scale == Scale::Full;
    let ladder = |algorithms, families, (min_n, max_n, steps), mini: (usize, usize, usize)| {
        let (min_n, max_n, steps) = if full { (min_n, max_n, steps) } else { mini };
        Ladder {
            algorithms,
            families,
            min_n,
            max_n,
            steps,
        }
    };
    // Each algorithm climbs to the sizes where its jobs cost about as much
    // as the others', so a workload's per-job times form one continuum: a
    // median or tail in a gap between clusters would swing with the seed.
    // The sizes keep a pass at 0.5–1 s on a 2-core x86-64 VM, so a
    // run times every job dozens of times (see `measure`).
    match workload {
        Workload::SparseSync => vec![
            ladder(SPARSE_WREATHS, SPARSE_FAMILIES, (256, 2048, 3), (16, 48, 1)),
            ladder(
                &["graph_to_star"],
                SPARSE_FAMILIES,
                (512, 4096, 3),
                (32, 64, 1),
            ),
            ladder(
                &["centralized_general"],
                SPARSE_FAMILIES,
                (2048, 16384, 3),
                (64, 128, 1),
            ),
        ],
        Workload::DenseSync => vec![ladder(
            DENSE_ALGORITHMS,
            DENSE_FAMILIES,
            (48, 128, 12),
            (8, 16, 1),
        )],
        Workload::AsyncSeeded => vec![
            ladder(
                &["graph_to_star"],
                ASYNC_FAMILIES,
                (128, 512, 7),
                (16, 32, 1),
            ),
            ladder(
                &["graph_to_wreath"],
                ASYNC_FAMILIES,
                (64, 256, 7),
                (12, 24, 1),
            ),
            ladder(&["flooding"], ASYNC_FAMILIES, (32, 128, 7), (8, 12, 1)),
        ],
        Workload::DstSweep => Vec::new(),
    }
}

/// Seeds the fixed stream of `dst_sweep`'s adversary seeds.
const ADVERSARY_SEEDS: u64 = 0xad5e_ed00;

/// The `dst_sweep` cases: every algorithm × family × DST scenario cell
/// three times, at a small, a middle and a large size in 8..=40. The seed
/// draws each case's instance and UIDs (its UID seed); the sizes and
/// adversary seeds are fixed, as the size ladders of the other workloads
/// are.
///
/// `StressCase::from_seed` draws algorithm, family, scenario, size and
/// adversary seed independently and uniformly. Taking every cell and
/// size band equally often keeps that mix but removes its draw-to-draw
/// variation, which would move the run's totals and tail from seed to
/// seed: about twenty cases (flooding on dense or random graphs under
/// crashes or churn) cost 30 to 300 times the median case, by their size
/// and by when the adversary strikes. With those drawn afresh per seed,
/// the tenth-slowest case moved by a third between seeds. As in
/// `from_seed`, `centralized_cut_in_half` runs on lines only. `Mini` keeps
/// one case in 25.
fn stress_cases(rng: &mut DetRng, scale: Scale) -> Vec<StressCase> {
    let mut schedules = DetRng::seed_from_u64(ADVERSARY_SEEDS);
    // (algorithm, family, scenario, index of the algorithm-family pair)
    let mut cells = Vec::new();
    for (a, algorithm) in algorithm::registry().iter().enumerate() {
        let id = algorithm.spec().id;
        for (f, family) in GraphFamily::ALL.into_iter().enumerate() {
            let family = if id == "centralized_cut_in_half" {
                GraphFamily::Line
            } else {
                family
            };
            for scenario in dst::scenarios() {
                cells.push((id, family, scenario, a * GraphFamily::ALL.len() + f));
            }
        }
    }
    let (copies, stride) = if scale == Scale::Full {
        (3, 1)
    } else {
        (1, 25)
    };
    let mut cases = Vec::new();
    for copy in 0..copies {
        for (cell, (id, family, scenario, pair)) in cells.iter().enumerate() {
            // Each copy of a cell in another band of 8..=18, 19..=29 and
            // 30..=40, at an offset set by the algorithm-family pair, so
            // the size does not follow the scenario.
            let n = 8 + 11 * ((cell + copy) % 3) + pair % 11;
            let uid_seed = rng.next_u64() % 100_000 + 1;
            let adversary_seed = schedules.next_u64();
            cases.push(StressCase::explicit(
                id,
                *family,
                n,
                uid_seed,
                scenario.clone(),
                adversary_seed,
            ));
        }
    }
    cases.into_iter().step_by(stride).collect()
}

/// Builds a run's job list and inputs from `seed`: the same seed always
/// gives the same work, and the program sees only these generated inputs.
pub fn setup(workload: Workload, seed: u64, scale: Scale) -> Work {
    let mut rng = DetRng::seed_from_u64(seed);
    if workload == Workload::DstSweep {
        return Work::Stress {
            cases: stress_cases(&mut rng, scale),
        };
    }
    let mut instances = Vec::new();
    let mut jobs = Vec::new();
    for ladder in ladders(workload, scale) {
        for (family, n) in ladder.sizes() {
            let instance = instances.len();
            instances.push(Instance::derive(family, n, rng.next_u64() % 1_000_000 + 1));
            for id in ladder.algorithms {
                let config = if workload == Workload::AsyncSeeded {
                    async_config(&mut rng, jobs.len())
                } else {
                    RunConfig::default()
                };
                jobs.push(Job {
                    algorithm: algorithm::find(id).expect("workloads name registered algorithms"),
                    instance,
                    config,
                });
            }
        }
    }
    Work::Runs { instances, jobs }
}

/// The seeded-scheduler configuration of the `index`-th async job: a fresh
/// scheduler seed, and the delivery scenarios in turn. A scenario only
/// supplies delivery knobs: `execute` on a bench-built network never arms
/// the DST layer, and these scenarios inject no faults. The ladders hand
/// out the three async families in turn as well, so the scenario turn
/// shifts by one after every three jobs to give each family every
/// scenario.
fn async_config(rng: &mut DetRng, index: usize) -> RunConfig {
    let scenario = match (index + index / 3) % 3 {
        0 => Scenario::async_reorder(),
        1 => Scenario::async_link_delay(),
        _ => Scenario::async_asymmetric(),
    };
    RunConfig::default()
        .with_engine(EngineMode::Seeded {
            seed: rng.next_u64(),
        })
        .with_dst(scenario, 0)
}

/// The paper's edge-complexity results of one execution, summed over jobs
/// into the `sim_*` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sim {
    pub rounds: usize,
    pub activations: usize,
    pub max_activated_edges: usize,
    pub max_activated_degree: usize,
}

impl Sim {
    pub fn of(outcome: &TransformationOutcome) -> Sim {
        Sim {
            rounds: outcome.rounds,
            activations: outcome.metrics.total_activations,
            max_activated_edges: outcome.metrics.max_activated_edges,
            max_activated_degree: outcome.metrics.max_activated_degree,
        }
    }

    pub fn add(&mut self, other: Sim) {
        self.rounds += other.rounds;
        self.activations += other.activations;
        self.max_activated_edges += other.max_activated_edges;
        self.max_activated_degree += other.max_activated_degree;
    }
}

pub fn label(job: &Job, instance: &Instance) -> String {
    let engine = match job.config.engine {
        EngineMode::Seeded { seed } => format!(
            " seeded({}, {seed})",
            job.config
                .dst
                .as_ref()
                .map_or("", |d| d.scenario.name.as_str())
        ),
        _ => String::new(),
    };
    format!(
        "{} on {} n={} seed={}{engine}",
        job.algorithm.spec().id,
        instance.family,
        instance.n,
        instance.seed
    )
}

pub fn case_label(case: &StressCase) -> String {
    format!(
        "stress case {} on {} n={} seed={} under {} adversary_seed={}",
        case.algorithm, case.family, case.n, case.uid_seed, case.scenario.name, case.adversary_seed
    )
}

/// Checks a finished execution against its algorithm's specification:
/// the final network is connected, the leader's eccentricity is within
/// the diameter bound, the maximum degree is within the degree bound, the
/// leader is the maximum-UID node where the algorithm promises it, and a
/// flooding run delivered every token to every node.
pub fn check_outcome(
    algorithm: &dyn ReconfigurationAlgorithm,
    instance: &Instance,
    outcome: &TransformationOutcome,
) -> Result<(), String> {
    let spec = algorithm.spec();
    let n = instance.graph.node_count();
    let final_graph = &outcome.final_graph;
    if final_graph.node_count() != n {
        return Err(format!(
            "final network has {} nodes, expected {n}",
            final_graph.node_count()
        ));
    }
    let eccentricity = traversal::eccentricity(final_graph, outcome.leader)
        .ok_or_else(|| "final network is disconnected".to_string())?;
    if eccentricity > (spec.diameter_bound)(n) {
        return Err(format!(
            "leader eccentricity {eccentricity} exceeds the diameter bound {}",
            (spec.diameter_bound)(n)
        ));
    }
    if outcome.final_max_degree() > (spec.max_degree_bound)(n) {
        return Err(format!(
            "final max degree {} exceeds the bound {}",
            outcome.final_max_degree(),
            (spec.max_degree_bound)(n)
        ));
    }
    if spec.elects_max_uid_leader && Some(outcome.leader) != instance.uids.max_uid_node() {
        return Err(format!(
            "leader {} is not the maximum-UID node",
            outcome.leader
        ));
    }
    if spec.id == "flooding"
        && (outcome.tokens_per_node.len() != n || outcome.tokens_per_node.iter().any(|&t| t != n))
    {
        return Err("flooding left a node without every token".to_string());
    }
    Ok(())
}

/// Runs one algorithm job on a fresh bench-built network; only `execute`
/// is timed. Returns the seconds taken and the checked result.
pub fn run_job(job: &Job, instance: &Instance) -> (f64, Result<TransformationOutcome, String>) {
    let mut network = Network::new(instance.graph.clone());
    let start = std::time::Instant::now();
    let result = job
        .algorithm
        .execute(&mut network, &instance.uids, &job.config);
    let seconds = start.elapsed().as_secs_f64();
    let checked = result
        .map_err(|e| e.to_string())
        .and_then(|outcome| check_outcome(job.algorithm, instance, &outcome).map(|()| outcome));
    (
        seconds,
        checked.map_err(|e| format!("{}: {e}", label(job, instance))),
    )
}

/// Runs one stress case and renders its report; both are timed. A suite
/// failure (a panic, or a violation or error with no fault to blame)
/// fails the job.
pub fn run_stress(case: &StressCase) -> (f64, StressReport, String, Result<(), String>) {
    let start = std::time::Instant::now();
    let report = stress::run_case(case);
    let render = report.render();
    let seconds = start.elapsed().as_secs_f64();
    let verdict = if report.is_suite_failure() {
        Err(format!(
            "{} is a suite failure: {}",
            case_label(case),
            render.lines().nth(1).unwrap_or("")
        ))
    } else {
        Ok(())
    };
    (seconds, report, render, verdict)
}

/// The fault-free twin of a stress case: the same algorithm on the same
/// instance with the case's round budget, on an unarmed network. Its
/// outcome feeds `dst_sweep`'s `sim_*` sums, which therefore do not move
/// when a robustness change lets more armed cases complete.
pub fn unarmed_twin(case: &StressCase) -> (Job, Instance) {
    let algorithm =
        algorithm::find(&case.algorithm).expect("stress cases name registered algorithms");
    let instance = Instance::derive(case.family, case.n, case.uid_seed);
    let job = Job {
        algorithm,
        instance: 0,
        config: RunConfig::default().with_round_budget(case.round_budget),
    };
    (job, instance)
}

/// FNV-1a over `bytes`, continuing from `hash` (start from [`FNV_OFFSET`]).
pub fn fnv64(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
