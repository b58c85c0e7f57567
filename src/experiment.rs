//! The [`Experiment`] builder: the one-stop entry point for running any
//! registered algorithm on any workload.
//!
//! ```
//! use actively_dynamic_networks::prelude::*;
//!
//! let outcome = Experiment::on(generators::line(64))
//!     .uids(UidAssignment::RandomPermutation { seed: 7 })
//!     .algorithm("graph_to_star")
//!     .run()
//!     .unwrap();
//! assert_eq!(outcome.final_diameter(), Some(2));
//! ```

use adn_core::algorithm::{self, CentralizedConfig, DstConfig, EngineMode, RunConfig};
use adn_core::{CoreError, TransformationOutcome};
use adn_graph::{Graph, GraphFamily, UidAssignment, UidMap};
use adn_sim::dst::Scenario;
use adn_sim::Network;

/// Builder for a single algorithm execution: workload × UID assignment ×
/// algorithm × [`RunConfig`].
///
/// Constructed with [`Experiment::on`] (an explicit initial network) or
/// [`Experiment::family`] (a named workload family). The algorithm is
/// selected by registry id (see [`adn_core::algorithm::registry`]); UIDs
/// default to [`UidAssignment::Sequential`].
#[derive(Debug, Clone)]
pub struct Experiment {
    graph: Graph,
    uids: UidSource,
    algorithm: String,
    config: RunConfig,
}

#[derive(Debug, Clone)]
enum UidSource {
    Assignment(UidAssignment),
    Explicit(UidMap),
}

impl Experiment {
    /// Starts an experiment on an explicit initial network.
    pub fn on(graph: Graph) -> Self {
        Experiment {
            graph,
            uids: UidSource::Assignment(UidAssignment::Sequential),
            algorithm: String::from("graph_to_star"),
            config: RunConfig::default(),
        }
    }

    /// Starts an experiment on an instance of a named workload family
    /// (sizes are rounded to the family's realisable sizes, exactly like
    /// [`GraphFamily::generate`]).
    pub fn family(family: GraphFamily, n: usize, seed: u64) -> Self {
        Experiment::on(family.generate(n, seed))
    }

    /// Selects the UID assignment (default: sequential).
    pub fn uids(mut self, assignment: UidAssignment) -> Self {
        self.uids = UidSource::Assignment(assignment);
        self
    }

    /// Provides an explicit UID map instead of an assignment rule.
    pub fn uid_map(mut self, uids: UidMap) -> Self {
        self.uids = UidSource::Explicit(uids);
        self
    }

    /// Selects the algorithm by registry id (e.g. `"graph_to_star"`) or
    /// human-readable name. Unknown names surface as
    /// [`CoreError::InvalidInput`] from [`Experiment::run`].
    pub fn algorithm(mut self, id: &str) -> Self {
        self.algorithm = id.to_string();
        self
    }

    /// Caps the execution at `rounds` simulated rounds.
    pub fn round_budget(mut self, rounds: usize) -> Self {
        self.config.round_budget = Some(rounds);
        self
    }

    /// Selects the centralized-strategy target shape.
    pub fn centralized(mut self, config: CentralizedConfig) -> Self {
        self.config.centralized = config;
        self
    }

    /// Selects the execution engine: the default synchronous round loop,
    /// the seeded single-threaded asynchronous scheduler (byte-identical
    /// replay from one `u64`), or the free multi-threaded scheduler.
    /// Algorithms without an asynchronous implementation reject
    /// non-synchronous modes with [`CoreError::InvalidInput`].
    pub fn engine(mut self, mode: EngineMode) -> Self {
        self.config.engine = mode;
        self
    }

    /// Runs the experiment under an adversarial [`Scenario`] with the
    /// given adversary seed: the deterministic-simulation-testing layer
    /// injects faults between rounds (on an asynchronous engine, at the
    /// run's commits) and checks round-level invariants; the harvested
    /// report lands in [`TransformationOutcome::dst`].
    pub fn scenario(mut self, scenario: Scenario, seed: u64) -> Self {
        self.config.dst = Some(DstConfig { scenario, seed });
        self
    }

    /// Replaces the whole [`RunConfig`] at once.
    pub fn config(mut self, config: RunConfig) -> Self {
        self.config = config;
        self
    }

    /// The initial network this experiment will run on.
    pub fn initial_graph(&self) -> &Graph {
        &self.graph
    }

    /// Resolves the UID map this experiment will use.
    pub fn resolve_uids(&self) -> UidMap {
        match &self.uids {
            UidSource::Assignment(a) => UidMap::new(self.graph.node_count(), *a),
            UidSource::Explicit(m) => m.clone(),
        }
    }

    /// Runs the experiment on a fresh network built from the initial
    /// graph (moved, not cloned — the builder is consumed).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidInput`] for unknown algorithm ids or rejected
    /// inputs; otherwise whatever the algorithm's
    /// [`adn_core::algorithm::ReconfigurationAlgorithm::execute`] raises.
    pub fn run(self) -> Result<TransformationOutcome, CoreError> {
        let algorithm = Self::lookup(&self.algorithm)?;
        let uids = self.resolve_uids();
        let mut network = Network::new(self.graph);
        if let Some(dst) = &self.config.dst {
            algorithm::arm_network_for_dst(&mut network, &algorithm.spec(), &uids, dst);
        }
        algorithm.execute(&mut network, &uids, &self.config)
    }

    /// Runs the experiment on a caller-provided network (for composing
    /// with further metered work on the same network). The network's
    /// current snapshot must be exactly the experiment's initial graph —
    /// when composing after earlier work, build the experiment from that
    /// snapshot: `Experiment::on(network.graph().clone())`.
    ///
    /// # Errors
    ///
    /// As [`Experiment::run`]; additionally [`CoreError::InvalidInput`]
    /// when the network's snapshot differs from the configured graph.
    pub fn execute(self, network: &mut Network) -> Result<TransformationOutcome, CoreError> {
        if network.graph() != &self.graph {
            return Err(CoreError::InvalidInput {
                reason: format!(
                    "the network's current snapshot ({} nodes, {} edges) is not the experiment's \
                     initial graph ({} nodes, {} edges); build the experiment from the snapshot: \
                     Experiment::on(network.graph().clone())",
                    network.graph().node_count(),
                    network.graph().edge_count(),
                    self.graph.node_count(),
                    self.graph.edge_count(),
                ),
            });
        }
        let algorithm = Self::lookup(&self.algorithm)?;
        let uids = self.resolve_uids();
        if let Some(dst) = &self.config.dst {
            algorithm::arm_network_for_dst(network, &algorithm.spec(), &uids, dst);
        }
        algorithm.execute(network, &uids, &self.config)
    }

    fn lookup(id: &str) -> Result<&'static dyn algorithm::ReconfigurationAlgorithm, CoreError> {
        algorithm::find(id).ok_or_else(|| CoreError::InvalidInput {
            reason: format!(
                "unknown algorithm `{id}` (registered: {})",
                algorithm::registry()
                    .iter()
                    .map(|a| a.spec().id)
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adn_core::tasks::verify_leader_election;
    use adn_graph::generators;

    #[test]
    fn builder_runs_end_to_end() {
        let outcome = Experiment::on(generators::line(64))
            .uids(UidAssignment::RandomPermutation { seed: 7 })
            .algorithm("graph_to_star")
            .run()
            .unwrap();
        let uids = UidMap::new(64, UidAssignment::RandomPermutation { seed: 7 });
        assert!(verify_leader_election(&outcome, &uids));
        assert_eq!(outcome.final_diameter(), Some(2));
    }

    #[test]
    fn family_shorthand_and_defaults() {
        // Default algorithm (GraphToStar) and default UIDs (sequential).
        let outcome = Experiment::family(GraphFamily::Ring, 32, 3).run().unwrap();
        assert_eq!(outcome.leader, adn_graph::NodeId(31));
    }

    #[test]
    fn unknown_algorithm_is_a_clean_error() {
        let err = Experiment::on(generators::line(8))
            .algorithm("definitely_not_registered")
            .run()
            .unwrap_err();
        match err {
            CoreError::InvalidInput { reason } => {
                assert!(reason.contains("definitely_not_registered"));
                assert!(reason.contains("graph_to_star"), "lists registered ids");
            }
            other => panic!("expected InvalidInput, got {other:?}"),
        }
    }

    #[test]
    fn explicit_uid_map_wins() {
        let uids = UidMap::from_values(vec![5, 99, 1, 2]);
        let outcome = Experiment::on(generators::line(4))
            .uid_map(uids)
            .algorithm("graph_to_star")
            .run()
            .unwrap();
        assert_eq!(outcome.leader, adn_graph::NodeId(1));
    }

    #[test]
    fn round_budget_flows_through() {
        let result = Experiment::on(generators::line(128))
            .algorithm("graph_to_wreath")
            .round_budget(1)
            .run();
        assert!(result.is_err());
    }

    #[test]
    fn execute_rejects_a_network_with_a_different_snapshot() {
        // Same node count, different topology: without the check this
        // would silently run on the ring while reporting the line.
        let mut network = Network::new(generators::ring(8));
        let err = Experiment::on(generators::line(8))
            .execute(&mut network)
            .unwrap_err();
        match err {
            CoreError::InvalidInput { reason } => {
                assert!(reason.contains("snapshot"), "{reason}");
            }
            other => panic!("expected InvalidInput, got {other:?}"),
        }
    }

    #[test]
    fn execute_composes_on_an_existing_network() {
        let graph = generators::ring(24);
        let mut network = Network::new(graph.clone());
        let outcome = Experiment::on(graph)
            .algorithm("centralized_general")
            .execute(&mut network)
            .unwrap();
        // The same network object carries the metered history.
        assert_eq!(network.metrics().rounds, outcome.rounds);
        assert_eq!(network.graph(), &outcome.final_graph);
    }
}
