//! Common result type for the transformation algorithms.

use adn_graph::{Graph, NodeId};
use adn_runtime::RuntimeReport;
use adn_sim::{DstReport, EdgeMetrics, Network};

/// Outcome of any registered algorithm (`GraphToStar`, `GraphToWreath`,
/// `GraphToThinWreath`, clique formation, flooding or a centralized
/// strategy).
///
/// Besides the metered execution, it records the two pieces of the
/// Depth-d Tree problem statement: the elected leader (root) and the final
/// reconfigured network. Task-layer by-products (token dissemination) are
/// folded in as well, so one outcome type covers the whole registry.
#[derive(Debug, Clone)]
pub struct TransformationOutcome {
    /// The elected unique leader (the paper's `u_max` for the distributed
    /// algorithms; the chosen root for centralized strategies).
    pub leader: NodeId,
    /// The final network `G_f` produced by the transformation.
    pub final_graph: Graph,
    /// Number of phases executed (0 for algorithms without a phase
    /// structure).
    pub phases: usize,
    /// Rounds consumed (mirrors `metrics.rounds`).
    pub rounds: usize,
    /// The edge-complexity metrics of the execution.
    pub metrics: EdgeMetrics,
    /// Per-phase number of committees alive (empty when not applicable);
    /// drives the committee-decay figure (F4).
    pub committees_per_phase: Vec<usize>,
    /// Tokens known by each node at the end of a dissemination run
    /// (flooding); empty for algorithms that do not disseminate tokens.
    pub tokens_per_node: Vec<usize>,
    /// Report of the deterministic-simulation-testing layer (fault
    /// schedule + invariant violations), harvested automatically when the
    /// execution ran on a DST-armed network; `None` otherwise.
    pub dst: Option<DstReport>,
    /// Report of the asynchronous runtime (delivery steps, message and
    /// ack counts, termination detection), populated when the run used an
    /// asynchronous [`crate::algorithm::EngineMode`]; `None` for
    /// synchronous executions. Asynchronous runs have no round counter,
    /// so `rounds` then reflects only committed reconfiguration rounds.
    pub runtime: Option<RuntimeReport>,
}

impl TransformationOutcome {
    /// Builds an outcome from a finished execution on `network`: final
    /// snapshot, metrics and rounds are copied from the network and its
    /// DST report, if one is installed, is taken; phase-structure fields
    /// start empty and are filled in by the algorithm when applicable.
    pub fn from_network(leader: NodeId, network: &mut Network) -> Self {
        TransformationOutcome {
            leader,
            final_graph: network.graph().clone(),
            phases: 0,
            rounds: network.metrics().rounds,
            metrics: network.metrics().clone(),
            committees_per_phase: Vec::new(),
            tokens_per_node: Vec::new(),
            dst: network.take_dst_report(),
            runtime: None,
        }
    }

    /// Final diameter of `G_f` (None if disconnected — which would be an
    /// algorithm bug).
    pub fn final_diameter(&self) -> Option<usize> {
        adn_graph::traversal::diameter(&self.final_graph)
    }

    /// Maximum degree of `G_f`.
    pub fn final_max_degree(&self) -> usize {
        self.final_graph.max_degree()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adn_graph::generators;

    #[test]
    fn outcome_accessors() {
        let outcome = TransformationOutcome {
            leader: NodeId(0),
            final_graph: generators::star(8),
            phases: 3,
            rounds: 6,
            metrics: EdgeMetrics::default(),
            committees_per_phase: vec![8, 4, 1],
            tokens_per_node: Vec::new(),
            dst: None,
            runtime: None,
        };
        assert_eq!(outcome.final_diameter(), Some(2));
        assert_eq!(outcome.final_max_degree(), 7);
    }

    #[test]
    fn from_network_mirrors_the_network_state() {
        let mut network = Network::new(generators::line(5));
        network.stage_activation(NodeId(0), NodeId(2)).unwrap();
        network.commit_round();
        let outcome = TransformationOutcome::from_network(NodeId(4), &mut network);
        assert_eq!(outcome.leader, NodeId(4));
        assert_eq!(outcome.rounds, 1);
        assert_eq!(outcome.metrics.total_activations, 1);
        assert!(outcome.final_graph.has_edge(NodeId(0), NodeId(2)));
        assert!(outcome.phases == 0 && outcome.committees_per_phase.is_empty());
        assert!(outcome.tokens_per_node.is_empty());
        assert!(outcome.dst.is_none());
    }
}
