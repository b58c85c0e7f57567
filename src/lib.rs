//! # actively-dynamic-networks
//!
//! Facade crate for the reproduction of *"Distributed Computation and
//! Reconfiguration in Actively Dynamic Networks"* (Michail, Skretas,
//! Spirakis — PODC 2020). It re-exports the workspace crates:
//!
//! * [`graph`] (adn-graph) — graph substrate: generators, metrics, rooted
//!   trees, UID assignments.
//! * [`sim`] (adn-sim) — the synchronous actively-dynamic-network
//!   simulator with the distance-2 activation rule and edge-complexity
//!   metering.
//! * [`core`] (adn-core) — the paper's algorithms behind the unified
//!   [`core::algorithm::ReconfigurationAlgorithm`] trait and
//!   [`core::algorithm::registry`]: GraphToStar, GraphToWreath,
//!   GraphToThinWreath, the baselines and the centralized strategies,
//!   plus subroutines, lower-bound machinery and the task layer.
//! * [`runtime`] (adn-runtime) — the asynchronous actor runtime: the
//!   seeded, replayable [`prelude::SeededScheduler`] and Dijkstra–Scholten
//!   termination detection; selected per run via [`prelude::EngineMode`].
//! * [`analysis`] (adn-analysis) — the experiment harness.
//!
//! An algorithm runs through its registry entry: `run` on a fresh network,
//! or `execute` to compose on a network of your own.
//!
//! # Quickstart
//!
//! ```
//! use actively_dynamic_networks::prelude::*;
//!
//! // Reconfigure a spanning line (the paper's worst case: diameter n-1)
//! // into a spanning star, electing a leader in O(log n) rounds with
//! // O(n log n) edge activations.
//! let line = generators::line(64);
//! let uids = UidMap::new(64, UidAssignment::RandomPermutation { seed: 7 });
//! let outcome = GraphToStar.run(&line, &uids, &RunConfig::default()).unwrap();
//!
//! assert_eq!(outcome.final_diameter(), Some(2));
//!
//! // Or sweep every registered algorithm generically:
//! let graph = generators::ring(32);
//! let uids = UidMap::new(32, UidAssignment::Sequential);
//! for algorithm in registry() {
//!     if algorithm.supports(&graph) {
//!         let outcome = algorithm.run(&graph, &uids, &RunConfig::default()).unwrap();
//!         println!("{:<20} {} rounds", algorithm.name(), outcome.rounds);
//!     }
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use adn_analysis as analysis;
pub use adn_core as core;
pub use adn_graph as graph;
pub use adn_runtime as runtime;
pub use adn_sim as sim;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use adn_core::algorithm::{
        arm_network_for_dst, find as find_algorithm, registry, AlgorithmSpec, CentralizedCutInHalf,
        CentralizedGeneral, CliqueFormation, DstConfig, EngineMode, Flooding, GraphToStar,
        GraphToThinWreath, GraphToWreath, ReconfigurationAlgorithm, RunConfig,
    };
    pub use adn_core::baselines::clique::run_clique_then_prune;
    pub use adn_core::committee::{CommitteeForest, CommitteeId};
    pub use adn_core::graph_to_wreath::WreathConfig;
    pub use adn_core::tasks::{
        disseminate_after_transformation, disseminate_by_flooding_only, verify_leader_election,
    };
    pub use adn_core::{CoreError, TransformationOutcome};
    pub use adn_graph::{
        generators, properties, traversal, Graph, GraphFamily, NodeId, RootedTree, Uid,
        UidAssignment, UidMap,
    };
    pub use adn_runtime::{AsyncKnobs, RuntimeReport, SeededScheduler};
    pub use adn_sim::dst::{
        find_scenario, scenarios, DstReport, FaultEvent, FaultRecord, Scenario, TargetPolicy,
    };
    pub use adn_sim::{EdgeMetrics, Network, RoundEvent};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work_together() {
        let graph = GraphFamily::Ring.generate(16, 1);
        let uids = UidMap::new(16, UidAssignment::Sequential);
        let outcome = GraphToWreath
            .run(&graph, &uids, &RunConfig::default())
            .unwrap();
        assert!(verify_leader_election(&outcome, &uids));
        assert!(properties::is_tree(&outcome.final_graph));
    }

    #[test]
    fn async_engine_flows_through_run() {
        let graph = GraphFamily::Ring.generate(24, 5);
        let uids = UidMap::new(24, UidAssignment::Sequential);
        let config = RunConfig::default().with_engine(EngineMode::Seeded { seed: 11 });
        let outcome = Flooding.run(&graph, &uids, &config).unwrap();
        assert!(outcome.tokens_per_node.iter().all(|&t| t == 24));
        let report = outcome.runtime.expect("async runs carry a runtime report");
        assert_eq!(report.seed, 11);
        assert_eq!(report.in_flight_at_detection, 0);
    }
}
