//! The unified algorithm layer: one trait, one config, one registry.
//!
//! Every transformation strategy of the paper — the three distributed
//! algorithms, the baselines and the centralized strategies — is exposed
//! as a [`ReconfigurationAlgorithm`]: a named, self-describing object that
//! executes on a validated [`adn_sim::Network`] under a shared
//! [`RunConfig`]. The [`registry`] enumerates all of them, which is what
//! lets experiments, benches and conformance tests sweep *algorithms ×
//! graph families* generically instead of hard-coding per-algorithm entry
//! points.
//!
//! ```
//! use adn_core::algorithm::{registry, RunConfig};
//! use adn_graph::{generators, UidAssignment, UidMap};
//!
//! let graph = generators::line(32);
//! let uids = UidMap::new(32, UidAssignment::RandomPermutation { seed: 1 });
//! for algorithm in registry() {
//!     if !algorithm.supports(&graph) {
//!         continue;
//!     }
//!     let outcome = algorithm.run(&graph, &uids, &RunConfig::default()).unwrap();
//!     assert!(outcome.final_graph.node_count() == 32, "{}", algorithm.name());
//! }
//! ```

use crate::graph_to_wreath::WreathConfig;
use crate::{baselines, centralized, graph_to_star, graph_to_wreath};
use crate::{CoreError, TransformationOutcome};
use adn_graph::properties::ceil_log2;
use adn_graph::{Graph, UidMap};
use adn_runtime::{AsyncKnobs, SeededScheduler};
use adn_sim::dst::{Adversary, DstState, InvariantPolicy, Scenario};
use adn_sim::{Network, SimError};

/// Which execution engine drives an algorithm.
///
/// The paper's model is synchronous and every algorithm runs there; the
/// asynchronous mode executes on the `adn-runtime` actor layer instead,
/// with no round barrier and Dijkstra–Scholten quiescence detection.
/// The algorithms with an actor implementation — flooding, the
/// line-to-tree subroutine, `GraphToStar` and the wreath family — accept
/// the asynchronous mode; the rest fail with [`CoreError::InvalidInput`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// The lock-step round engine of `adn-sim` (the default).
    #[default]
    Synchronous,
    /// The asynchronous seeded scheduler: delivery order derives from one
    /// seed, runs replay byte-identically. Delay and reorder knobs are
    /// lifted from [`RunConfig::dst`]'s scenario when one is set. Under
    /// [`ReconfigurationAlgorithm::run`] that scenario also arms the DST
    /// adversary, which then injects its faults at the run's commits, as
    /// it does at the synchronous engine's rounds.
    Seeded {
        /// Scheduler seed.
        seed: u64,
    },
}

impl EngineMode {
    /// True for the synchronous round engine.
    pub fn is_synchronous(&self) -> bool {
        matches!(self, EngineMode::Synchronous)
    }
}

/// A deterministic-simulation-testing request travelling with the run
/// configuration: which adversarial [`Scenario`] to execute under and the
/// seed that makes the whole fault schedule reproducible.
#[derive(Debug, Clone)]
pub struct DstConfig {
    /// The adversarial environment to run under.
    pub scenario: Scenario,
    /// Adversary seed; `(scenario, seed)` determines the fault schedule
    /// bit-for-bit.
    pub seed: u64,
}

/// The shared run configuration honored by every registered algorithm.
///
/// This replaces the scattered per-function booleans and config structs of
/// the old `run_*` API: an optional hard round budget, the DST request and
/// the engine all travel together. Neither the gadget nor the target is
/// configurable: each registered algorithm runs the one its
/// [`AlgorithmSpec`] describes.
#[derive(Debug, Clone, Default)]
pub struct RunConfig {
    /// Optional hard cap on the rounds metered on the network (cumulative
    /// when composing on an already-used network); executions exceeding it
    /// fail with [`SimError::RoundLimitExceeded`] instead of completing.
    pub round_budget: Option<usize>,
    /// Optional deterministic-simulation-testing request: run under an
    /// adversarial scenario with round-level invariant checking. Honored
    /// by [`ReconfigurationAlgorithm::run`], which builds the network;
    /// callers invoking [`ReconfigurationAlgorithm::execute`] on their own
    /// network arm it themselves via [`arm_network_for_dst`]. On an
    /// asynchronous engine an armed scenario injects its faults at the
    /// run's commits, and its delivery knobs (see [`RunConfig::scheduler`])
    /// perturb the seeded scheduler whether the network is armed or not.
    pub dst: Option<DstConfig>,
    /// Which execution engine drives the run (synchronous rounds by
    /// default; see [`EngineMode`]).
    pub engine: EngineMode,
}

impl RunConfig {
    /// Sets the round budget (builder style).
    pub fn with_round_budget(mut self, rounds: usize) -> Self {
        self.round_budget = Some(rounds);
        self
    }

    /// Requests a deterministic-simulation-testing run under `scenario`
    /// with the given adversary seed (builder style).
    pub fn with_dst(mut self, scenario: Scenario, seed: u64) -> Self {
        self.dst = Some(DstConfig { scenario, seed });
        self
    }

    /// Selects the execution engine (builder style).
    pub fn with_engine(mut self, engine: EngineMode) -> Self {
        self.engine = engine;
        self
    }

    /// Guard for algorithms without an asynchronous actor implementation:
    /// fails with [`CoreError::InvalidInput`] unless the configured engine
    /// is the synchronous one.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidInput`] when an asynchronous engine mode is
    /// configured.
    pub fn require_sync_engine(&self, algorithm: &'static str) -> Result<(), CoreError> {
        if self.engine.is_synchronous() {
            Ok(())
        } else {
            Err(CoreError::InvalidInput {
                reason: format!(
                    "{algorithm} has no asynchronous implementation; \
                     use EngineMode::Synchronous"
                ),
            })
        }
    }

    /// The asynchronous scheduler this configuration selects, or `None`
    /// for the synchronous engine. The scheduler takes its delivery knobs
    /// from the armed DST scenario when one is present.
    pub fn scheduler(&self) -> Option<SeededScheduler> {
        match self.engine {
            EngineMode::Synchronous => None,
            EngineMode::Seeded { seed } => {
                let knobs = self.dst.as_ref().map_or_else(AsyncKnobs::default, |dst| {
                    AsyncKnobs::from_scenario(&dst.scenario)
                });
                Some(SeededScheduler::new(seed).with_knobs(knobs))
            }
        }
    }

    /// Fails with [`SimError::RoundLimitExceeded`] once the metered rounds
    /// on `network` (cumulative, counting rounds committed before this
    /// execution) exceed the configured budget. Algorithms call this at
    /// the top of every phase/round loop and again before returning, so a
    /// completed execution never exceeds the budget.
    ///
    /// # Errors
    ///
    /// [`CoreError::Sim`] when the budget is exhausted.
    pub fn check_round_budget(&self, network: &Network) -> Result<(), CoreError> {
        match self.round_budget {
            Some(limit) if network.metrics().rounds > limit => {
                Err(CoreError::Sim(SimError::RoundLimitExceeded { limit }))
            }
            _ => Ok(()),
        }
    }

    /// The engine round cap implied by this configuration: the algorithm's
    /// own `default` limit, tightened by whatever is left of the budget
    /// after the rounds already metered on `network` (the budget counts
    /// cumulative network rounds, like [`RunConfig::check_round_budget`]).
    pub fn engine_round_cap(&self, network: &Network, default: usize) -> usize {
        match self.round_budget {
            Some(budget) => default.min(budget.saturating_sub(network.metrics().rounds)),
            None => default,
        }
    }
}

/// The input checks every registered algorithm runs before its first
/// round, on either engine, in this order: a non-empty network, one UID
/// per node, and a connected graph (the error names `algorithm`).
///
/// # Errors
///
/// [`CoreError::InvalidInput`] for the first check that fails.
pub(crate) fn validate_input(
    network: &Network,
    uids: &UidMap,
    algorithm: &str,
) -> Result<(), CoreError> {
    let graph = network.graph();
    let n = graph.node_count();
    if n == 0 {
        return Err(CoreError::InvalidInput {
            reason: "the initial network must contain at least one node".into(),
        });
    }
    if uids.len() != n {
        return Err(CoreError::InvalidInput {
            reason: "one UID per node is required".into(),
        });
    }
    if !adn_graph::traversal::is_connected(graph) {
        return Err(CoreError::InvalidInput {
            reason: format!("{algorithm} requires a connected initial network"),
        });
    }
    Ok(())
}

/// Static description of an algorithm: identity, paper reference, the
/// complexity bounds its theorem states, and machine-checkable bounds on
/// the final network used by the conformance suite.
#[derive(Debug, Clone, Copy)]
pub struct AlgorithmSpec {
    /// Stable machine-friendly identifier (`snake_case`), used for
    /// registry lookup.
    pub id: &'static str,
    /// Human-readable name, as the paper spells it.
    pub name: &'static str,
    /// Where in the paper the algorithm and its bounds live.
    pub paper_ref: &'static str,
    /// Asymptotic running time in rounds, as stated by the paper.
    pub time: &'static str,
    /// Asymptotic total edge activations, as stated by the paper.
    pub total_activations: &'static str,
    /// Degree behaviour, as stated by the paper.
    pub degree: &'static str,
    /// True for strategies with a global controller (Section 6).
    pub centralized: bool,
    /// True when the elected leader is guaranteed to be the maximum-UID
    /// node (`u_max`).
    pub elects_max_uid_leader: bool,
    /// Upper bound on the diameter of the final network, as a function of
    /// `n` (generous constants; checked by the conformance suite).
    pub diameter_bound: fn(usize) -> usize,
    /// Upper bound on the maximum degree of the final network, as a
    /// function of `n` (generous constants; checked by the conformance
    /// suite).
    pub max_degree_bound: fn(usize) -> usize,
}

/// A reconfiguration algorithm of the paper, exposed uniformly.
///
/// Implementations execute on a caller-provided [`Network`] so they can be
/// composed (run a transformation, then a task, on the same metered
/// network) and honor the shared [`RunConfig`].
pub trait ReconfigurationAlgorithm: Sync {
    /// Human-readable name (defaults to [`AlgorithmSpec::name`]).
    fn name(&self) -> &'static str {
        self.spec().name
    }

    /// The static description of this algorithm.
    fn spec(&self) -> AlgorithmSpec;

    /// Whether this algorithm's precondition accepts `initial` (beyond
    /// connectivity, which every algorithm requires). Only
    /// [`CentralizedCutInHalf`] restricts this (spanning lines).
    fn supports(&self, initial: &Graph) -> bool {
        let _ = initial;
        true
    }

    /// Whether this algorithm has an asynchronous actor implementation,
    /// i.e. accepts [`EngineMode::Seeded`] in addition to the synchronous
    /// engine (which every algorithm supports). Algorithms that return
    /// `false` here must fail cleanly with [`CoreError::InvalidInput`] —
    /// never panic — when handed the asynchronous mode; the conformance
    /// suite exercises every registered algorithm once per mode to
    /// enforce exactly that.
    fn supports_async_engines(&self) -> bool {
        false
    }

    /// Executes the algorithm on `network` (whose current snapshot is the
    /// initial network `G_s`) under `config`.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidInput`] when the precondition fails.
    /// * [`CoreError::Sim`] on model violations or an exhausted
    ///   [`RunConfig::round_budget`].
    /// * [`CoreError::DidNotConverge`] on internal phase-budget exhaustion
    ///   (an implementation bug — the algorithms are proven to terminate).
    fn execute(
        &self,
        network: &mut Network,
        uids: &UidMap,
        config: &RunConfig,
    ) -> Result<TransformationOutcome, CoreError>;

    /// Runs on a fresh [`Network`] over `initial`: arms the
    /// deterministic-simulation-testing layer when [`RunConfig::dst`] asks
    /// for it (the one entry point that does), then calls
    /// [`ReconfigurationAlgorithm::execute`].
    ///
    /// # Errors
    ///
    /// As [`ReconfigurationAlgorithm::execute`].
    fn run(
        &self,
        initial: &Graph,
        uids: &UidMap,
        config: &RunConfig,
    ) -> Result<TransformationOutcome, CoreError> {
        let mut network = Network::new(initial.clone());
        if let Some(dst) = &config.dst {
            arm_network_for_dst(&mut network, &self.spec(), uids, dst);
        }
        self.execute(&mut network, uids, config)
    }
}

/// Installs the deterministic-simulation-testing state on `network`: a
/// seeded [`Adversary`] for `dst.scenario` plus a round-level
/// [`InvariantPolicy`] derived from the algorithm's [`AlgorithmSpec`]
/// (generous slack over the spec's *final*-network degree bound, since
/// intermediate snapshots may legitimately exceed it; connectivity of the
/// live subgraph; UID uniqueness across churn).
pub fn arm_network_for_dst(
    network: &mut Network,
    spec: &AlgorithmSpec,
    uids: &UidMap,
    dst: &DstConfig,
) {
    let n = network.node_count();
    let policy = InvariantPolicy {
        max_activated_degree: Some(4 * (spec.max_degree_bound)(n) + 8),
        // Any algorithm may temporarily hold its activated edges on top of
        // the surviving initial ones; the subroutines' stated budget is
        // O(n) activated edges, the clique straw-man needs the full n².
        max_active_edges: Some(network.graph().edge_count() + n * n),
    };
    let uid_values = uids.as_slice().iter().map(|u| u.value()).collect();
    network.install_dst(DstState::new(
        Adversary::new(dst.scenario.clone(), dst.seed),
        policy,
        uid_values,
    ));
}

/// **GraphToStar** (Section 3): `O(log n)` time, optimal `O(n log n)`
/// total activations, spanning-star target (Depth-1 Tree).
#[derive(Debug, Clone, Copy, Default)]
pub struct GraphToStar;

impl ReconfigurationAlgorithm for GraphToStar {
    fn spec(&self) -> AlgorithmSpec {
        AlgorithmSpec {
            id: "graph_to_star",
            name: "GraphToStar",
            paper_ref: "Section 3, Theorem 3.8",
            time: "O(log n)",
            total_activations: "O(n log n)",
            degree: "Θ(n) at the hub (inherent for diameter 2)",
            centralized: false,
            elects_max_uid_leader: true,
            diameter_bound: |n| if n <= 2 { n.saturating_sub(1) } else { 2 },
            max_degree_bound: |n| n.saturating_sub(1),
        }
    }

    fn supports_async_engines(&self) -> bool {
        true
    }

    fn execute(
        &self,
        network: &mut Network,
        uids: &UidMap,
        config: &RunConfig,
    ) -> Result<TransformationOutcome, CoreError> {
        graph_to_star::execute(network, uids, config)
    }
}

/// **GraphToWreath** (Section 4): bounded degree, `O(log² n)` time,
/// complete-binary-tree target (Depth-`log n` Tree).
#[derive(Debug, Clone, Copy, Default)]
pub struct GraphToWreath;

impl ReconfigurationAlgorithm for GraphToWreath {
    fn spec(&self) -> AlgorithmSpec {
        AlgorithmSpec {
            id: "graph_to_wreath",
            name: "GraphToWreath",
            paper_ref: "Section 4, Theorem 4.2",
            time: "O(log² n)",
            total_activations: "O(n log² n)",
            degree: "O(1) activated degree",
            centralized: false,
            elects_max_uid_leader: true,
            diameter_bound: |n| 4 * ceil_log2(n.max(2)) + 4,
            max_degree_bound: |_| 3,
        }
    }

    fn supports_async_engines(&self) -> bool {
        true
    }

    fn execute(
        &self,
        network: &mut Network,
        uids: &UidMap,
        config: &RunConfig,
    ) -> Result<TransformationOutcome, CoreError> {
        graph_to_wreath::execute(network, uids, &WreathConfig::binary(), config)
    }
}

/// **GraphToThinWreath** (Section 5): polylogarithmic degree, `o(log² n)`
/// time, complete polylog-degree-tree target.
#[derive(Debug, Clone, Copy, Default)]
pub struct GraphToThinWreath;

impl ReconfigurationAlgorithm for GraphToThinWreath {
    fn spec(&self) -> AlgorithmSpec {
        AlgorithmSpec {
            id: "graph_to_thin_wreath",
            name: "GraphToThinWreath",
            paper_ref: "Section 5, Theorem 5.1",
            time: "O(log² n / log log n)",
            total_activations: "O(n log² n / log log n)",
            degree: "O(log n)",
            centralized: false,
            elects_max_uid_leader: true,
            diameter_bound: |n| 2 * ceil_log2(n.max(2)) + 4,
            max_degree_bound: |n| WreathConfig::polylog(n).tree_arity + 1,
        }
    }

    fn supports_async_engines(&self) -> bool {
        true
    }

    fn execute(
        &self,
        network: &mut Network,
        uids: &UidMap,
        config: &RunConfig,
    ) -> Result<TransformationOutcome, CoreError> {
        let wreath = WreathConfig::polylog(network.node_count());
        graph_to_wreath::execute(network, uids, &wreath, config)
    }
}

/// The clique-formation straw-man (Section 1.2): `O(log n)` time but
/// `Θ(n²)` activations and linear degree.
#[derive(Debug, Clone, Copy, Default)]
pub struct CliqueFormation;

impl ReconfigurationAlgorithm for CliqueFormation {
    fn spec(&self) -> AlgorithmSpec {
        AlgorithmSpec {
            id: "clique_formation",
            name: "CliqueFormation",
            paper_ref: "Section 1.2",
            time: "O(log n)",
            total_activations: "Θ(n²)",
            degree: "Θ(n)",
            centralized: false,
            elects_max_uid_leader: true,
            diameter_bound: |n| if n <= 1 { 0 } else { 1 },
            max_degree_bound: |n| n.saturating_sub(1),
        }
    }

    fn execute(
        &self,
        network: &mut Network,
        uids: &UidMap,
        config: &RunConfig,
    ) -> Result<TransformationOutcome, CoreError> {
        baselines::clique::execute(network, uids, config)
    }
}

/// The centralized `CutInHalf` strategy on a spanning line (Section 6):
/// `log n` rounds and `Θ(n)` total activations.
#[derive(Debug, Clone, Copy, Default)]
pub struct CentralizedCutInHalf;

impl ReconfigurationAlgorithm for CentralizedCutInHalf {
    fn spec(&self) -> AlgorithmSpec {
        AlgorithmSpec {
            id: "centralized_cut_in_half",
            name: "Centralized CutInHalf",
            paper_ref: "Section 6, Lemma D.2",
            time: "O(log n)",
            total_activations: "Θ(n)",
            degree: "O(log n)",
            centralized: true,
            elects_max_uid_leader: false,
            diameter_bound: |n| 2 * ceil_log2(n.max(2)) + 2,
            max_degree_bound: |n| 2 * ceil_log2(n.max(2)) + 2,
        }
    }

    fn supports(&self, initial: &Graph) -> bool {
        adn_graph::properties::is_line(initial)
    }

    fn execute(
        &self,
        network: &mut Network,
        uids: &UidMap,
        config: &RunConfig,
    ) -> Result<TransformationOutcome, CoreError> {
        centralized::execute_cut_in_half(network, uids, config)
    }
}

/// The general centralized strategy (Theorem 6.3): spanning tree → Euler
/// tour → virtual ring → `CutInHalf`, pruned to a BFS tree of depth
/// `O(log n)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CentralizedGeneral;

impl ReconfigurationAlgorithm for CentralizedGeneral {
    fn spec(&self) -> AlgorithmSpec {
        AlgorithmSpec {
            id: "centralized_general",
            name: "Centralized(Euler+CutInHalf)",
            paper_ref: "Section 6, Theorem 6.3",
            time: "O(log n)",
            total_activations: "Θ(n)",
            degree: "unbounded (target permits it)",
            centralized: true,
            elects_max_uid_leader: true,
            diameter_bound: |n| 6 * ceil_log2(n.max(2)) + 6,
            max_degree_bound: |n| n.saturating_sub(1),
        }
    }

    fn execute(
        &self,
        network: &mut Network,
        uids: &UidMap,
        config: &RunConfig,
    ) -> Result<TransformationOutcome, CoreError> {
        centralized::execute_general(network, uids, config)
    }
}

/// The no-reconfiguration baseline: flooding over the static initial
/// network (Section 1.2). Performs zero edge operations; the "final"
/// network is the initial one.
#[derive(Debug, Clone, Copy, Default)]
pub struct Flooding;

impl ReconfigurationAlgorithm for Flooding {
    fn spec(&self) -> AlgorithmSpec {
        AlgorithmSpec {
            id: "flooding",
            name: "Flooding",
            paper_ref: "Section 1.2 (no-modification baseline)",
            time: "Θ(diameter)",
            total_activations: "0",
            degree: "unchanged",
            centralized: false,
            elects_max_uid_leader: true,
            diameter_bound: |n| n.saturating_sub(1),
            max_degree_bound: |n| n.saturating_sub(1),
        }
    }

    fn supports_async_engines(&self) -> bool {
        true
    }

    fn execute(
        &self,
        network: &mut Network,
        uids: &UidMap,
        config: &RunConfig,
    ) -> Result<TransformationOutcome, CoreError> {
        baselines::flooding::execute(network, uids, config)
    }
}

static REGISTRY: [&dyn ReconfigurationAlgorithm; 7] = [
    &GraphToStar,
    &GraphToWreath,
    &GraphToThinWreath,
    &CliqueFormation,
    &CentralizedCutInHalf,
    &CentralizedGeneral,
    &Flooding,
];

/// Every registered algorithm, in canonical comparison order (the three
/// distributed algorithms, then the baselines, then the centralized
/// strategies).
pub fn registry() -> &'static [&'static dyn ReconfigurationAlgorithm] {
    &REGISTRY
}

/// Looks an algorithm up by its stable id (`"graph_to_star"`, …) or its
/// human-readable name, case-insensitively.
pub fn find(id: &str) -> Option<&'static dyn ReconfigurationAlgorithm> {
    REGISTRY
        .iter()
        .copied()
        .find(|a| a.spec().id.eq_ignore_ascii_case(id) || a.spec().name.eq_ignore_ascii_case(id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adn_graph::{generators, UidAssignment};

    #[test]
    fn registry_ids_are_unique_and_findable() {
        let mut ids: Vec<&str> = registry().iter().map(|a| a.spec().id).collect();
        ids.sort_unstable();
        let deduped = {
            let mut v = ids.clone();
            v.dedup();
            v
        };
        assert_eq!(ids, deduped, "duplicate algorithm ids");
        for a in registry() {
            assert!(find(a.spec().id).is_some());
            assert!(find(a.spec().name).is_some());
            assert!(find(&a.spec().id.to_uppercase()).is_some());
        }
        assert!(find("no_such_algorithm").is_none());
    }

    #[test]
    fn every_algorithm_runs_on_a_line() {
        let n = 24;
        let graph = generators::line(n);
        let uids = UidMap::new(n, UidAssignment::RandomPermutation { seed: 3 });
        for a in registry() {
            assert!(a.supports(&graph), "{} must support a line", a.name());
            let outcome = a
                .run(&graph, &uids, &RunConfig::default())
                .unwrap_or_else(|e| panic!("{}: {e}", a.name()));
            assert!(
                adn_graph::traversal::is_connected(&outcome.final_graph),
                "{} disconnected the network",
                a.name()
            );
            if a.spec().elects_max_uid_leader {
                assert_eq!(Some(outcome.leader), uids.max_uid_node(), "{}", a.name());
            }
        }
    }

    #[test]
    fn round_budget_is_enforced_by_every_algorithm() {
        let graph = generators::line(64);
        let uids = UidMap::new(64, UidAssignment::Sequential);
        let strict = RunConfig::default().with_round_budget(1);
        for a in registry() {
            if !a.supports(&graph) {
                continue;
            }
            let result = a.run(&graph, &uids, &strict);
            assert!(
                matches!(
                    result,
                    Err(CoreError::Sim(SimError::RoundLimitExceeded { .. }))
                ),
                "{} ignored a 1-round budget: {:?}",
                a.name(),
                result.map(|o| o.rounds)
            );
        }
    }

    #[test]
    fn completed_runs_never_exceed_the_budget() {
        // A budget is a hard cap on the outcome's rounds, not just a
        // phase-boundary heuristic: a run either finishes within it or
        // errors (this used to overshoot by up to one final phase).
        let graph = generators::line(6);
        let uids = UidMap::new(6, UidAssignment::Sequential);
        for budget in 1..16usize {
            let config = RunConfig::default().with_round_budget(budget);
            for a in registry() {
                if !a.supports(&graph) {
                    continue;
                }
                if let Ok(outcome) = a.run(&graph, &uids, &config) {
                    assert!(
                        outcome.rounds <= budget,
                        "{} completed with {} rounds under a budget of {budget}",
                        a.name(),
                        outcome.rounds
                    );
                }
            }
        }
    }

    #[test]
    fn budget_is_cumulative_when_composing_on_one_network() {
        // The budget counts total metered rounds on the network, for
        // engine-based algorithms too: a second execution on the same
        // network only gets what is left.
        let graph = generators::line(12);
        let uids = UidMap::new(12, UidAssignment::Sequential);
        let config = RunConfig::default().with_round_budget(15);
        let mut network = Network::new(graph.clone());
        Flooding.execute(&mut network, &uids, &config).unwrap();
        assert!(network.metrics().rounds >= 11);
        let second = Flooding.execute(&mut network, &uids, &config);
        assert!(
            matches!(
                second,
                Err(CoreError::Sim(SimError::RoundLimitExceeded { .. }))
            ),
            "second run must see only the remaining budget: {second:?}"
        );
    }

    #[test]
    fn cut_in_half_only_supports_lines() {
        assert!(CentralizedCutInHalf.supports(&generators::line(8)));
        assert!(!CentralizedCutInHalf.supports(&generators::ring(8)));
        let uids = UidMap::new(8, UidAssignment::Sequential);
        assert!(matches!(
            CentralizedCutInHalf.run(&generators::ring(8), &uids, &RunConfig::default()),
            Err(CoreError::InvalidInput { .. })
        ));
    }
}
