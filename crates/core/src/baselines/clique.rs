//! The clique-formation baseline (Section 1.2).
//!
//! In every round, every node activates an edge with each of its potential
//! neighbours (nodes at distance 2). Since the neighbourhood at least
//! doubles every round, a spanning clique `K_n` is formed in `O(log n)`
//! rounds; from the clique, any global computation or any target network
//! is one round away. The point of the paper is that this straw-man is
//! *edge-inefficient*: `Θ(n²)` total activations, `Θ(n²)` concurrently
//! active edges and degree `Θ(n)` — which is exactly what the experiments
//! driven by this module demonstrate.

use crate::algorithm::{validate_input, RunConfig};
use crate::{CoreError, TransformationOutcome};
use adn_graph::{Graph, NodeId, UidMap};
use adn_sim::{Network, SimError};

/// Executes clique formation on `network` (trait entry point; see
/// [`crate::algorithm::CliqueFormation`]).
///
/// The initial nodes `0..n` run the rule; a node a churn fault adds later
/// stays passive. Each round reads the snapshot at its start: in
/// ascending node order, every node stages an activation to each of its
/// potential neighbours, ascending. A node is done once it has no
/// potential neighbour left, and stays done; the run ends when every node
/// is done.
pub(crate) fn execute(
    network: &mut Network,
    uids: &UidMap,
    config: &RunConfig,
) -> Result<TransformationOutcome, CoreError> {
    config.require_sync_engine("CliqueFormation")?;
    validate_input(network, uids, "clique formation")?;
    let n = network.node_count();
    let limit =
        config.engine_round_cap(network, 4 * adn_graph::properties::ceil_log2(n.max(2)) + 16);
    let mut done = vec![false; n];
    let mut rounds = 0;
    while !done.iter().all(|&d| d) {
        if rounds >= limit {
            return Err(SimError::RoundLimitExceeded { limit }.into());
        }
        rounds += 1;
        for (i, done) in done.iter_mut().enumerate() {
            let u = NodeId(i);
            let potential = network.graph().potential_neighbors(u);
            *done |= potential.is_empty();
            for v in potential {
                network.stage_activation(u, v)?;
            }
        }
        network.commit_round();
    }
    config.check_round_budget(network)?;
    let leader = uids.max_uid_node().expect("validated input is non-empty");
    Ok(TransformationOutcome::from_network(leader, network))
}

/// Runs clique formation and then, in one additional round, prunes the
/// clique down to `target` (any graph over the same vertex set), exactly
/// as Section 1.2 describes ("transforming into any desired target network
/// `G_f` through eliminating the edges in `E(K_n) \ E(G_f)`").
///
/// # Errors
///
/// Returns an error if the initial graph is disconnected (the clique can
/// then never span the network), on simulator round-limit violations, or
/// if `target` has a different node count.
pub fn run_clique_then_prune(
    initial: &Graph,
    uids: &UidMap,
    target: &Graph,
) -> Result<TransformationOutcome, CoreError> {
    if target.node_count() != initial.node_count() {
        return Err(CoreError::InvalidInput {
            reason: "target must have the same vertex set as the initial network".into(),
        });
    }
    let mut network = Network::new(initial.clone());
    let mut outcome = execute(&mut network, uids, &RunConfig::default())?;
    // One more round: drop every edge not in the target.
    let mut network = Network::new(outcome.final_graph.clone());
    for e in outcome.final_graph.edges() {
        if !target.has_edge(e.a, e.b) {
            network.stage_deactivation(e.a, e.b)?;
        }
    }
    // Edges of the target missing from the clique cannot exist (the clique
    // has them all), so activation is never needed here.
    network.commit_round();
    let prune_metrics = network.metrics().clone();
    outcome.metrics.absorb_sequential(&prune_metrics);
    outcome.rounds += prune_metrics.rounds;
    outcome.final_graph = network.graph().clone();
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adn_graph::properties::ceil_log2;
    use adn_graph::{generators, traversal, GraphFamily, UidAssignment};

    fn run_clique(initial: &Graph, uids: &UidMap) -> Result<TransformationOutcome, CoreError> {
        let mut network = Network::new(initial.clone());
        execute(&mut network, uids, &RunConfig::default())
    }

    #[test]
    fn forms_a_clique_in_log_rounds() {
        let mut inputs: Vec<(String, Graph, UidMap)> = [4usize, 8, 16, 32, 50]
            .iter()
            .map(|&n| {
                let uids = UidMap::new(n, UidAssignment::Sequential);
                (format!("line {n}"), generators::line(n), uids)
            })
            .collect();
        for family in [
            GraphFamily::Line,
            GraphFamily::Ring,
            GraphFamily::Grid,
            GraphFamily::RandomTree,
        ] {
            for n in [64usize, 128] {
                let g = family.generate(n, 2);
                let uids =
                    UidMap::new(g.node_count(), UidAssignment::RandomPermutation { seed: 2 });
                inputs.push((format!("{} {n}", family.name()), g, uids));
            }
        }
        for (label, g, uids) in &inputs {
            let n = g.node_count();
            let diameter = traversal::diameter(g).unwrap();
            let outcome = run_clique(g, uids).unwrap();
            // Every round squares the graph, halving all distances; one
            // empty round then detects termination.
            assert_eq!(outcome.rounds, ceil_log2(diameter) + 1, "{label}");
            // Edge complexity is quadratic — the whole point of the paper:
            // every missing edge is activated exactly once and never
            // deactivated, so all of them are active at the end.
            let activations = n * (n - 1) / 2 - g.edge_count();
            let metrics = &outcome.metrics;
            assert_eq!(metrics.total_activations, activations, "{label}");
            assert_eq!(metrics.max_activated_edges, activations, "{label}");
            assert_eq!(metrics.total_deactivations, 0, "{label}");
            assert_eq!(outcome.final_graph, generators::complete(n), "{label}");
            assert_eq!(Some(outcome.leader), uids.max_uid_node(), "{label}");
        }
    }

    #[test]
    fn busiest_node_activation_count_follows_the_staging_order() {
        // An edge both endpoints stage counts for whichever stages it
        // first, so the per-node maximum depends on staging in ascending
        // node order, then ascending `N_2` order. UIDs play no part.
        for (n, expected) in [(16usize, 7usize), (33, 16)] {
            for uids in [
                UidAssignment::Sequential,
                UidAssignment::RandomPermutation { seed: 3 },
            ] {
                let outcome = run_clique(&generators::line(n), &UidMap::new(n, uids)).unwrap();
                assert_eq!(
                    outcome.metrics.max_node_activations_in_round, expected,
                    "line({n}), {uids:?}"
                );
            }
        }
    }

    #[test]
    fn works_from_various_families() {
        for family in [
            generators::ring(20),
            generators::random_tree(20, 3),
            generators::grid(4, 5),
        ] {
            let n = family.node_count();
            let uids = UidMap::new(n, UidAssignment::RandomPermutation { seed: 1 });
            let outcome = run_clique(&family, &uids).unwrap();
            assert_eq!(outcome.final_graph.edge_count(), n * (n - 1) / 2);
            assert_eq!(Some(outcome.leader), uids.max_uid_node());
        }
    }

    #[test]
    fn prune_reaches_any_target() {
        let n = 24;
        let g = generators::ring(n);
        let uids = UidMap::new(n, UidAssignment::Sequential);
        let target = generators::star(n);
        let outcome = run_clique_then_prune(&g, &uids, &target).unwrap();
        assert_eq!(outcome.final_graph, target);
        // The pruning round deactivated Θ(n²) edges.
        assert!(outcome.metrics.total_deactivations >= n * (n - 1) / 2 - (n - 1) - n);
    }

    #[test]
    fn rejects_disconnected_inputs_and_mismatched_targets() {
        let mut g = generators::line(6);
        g.remove_edge(NodeId(2), NodeId(3)).unwrap();
        let uids = UidMap::new(6, UidAssignment::Sequential);
        assert!(matches!(
            run_clique(&g, &uids),
            Err(CoreError::InvalidInput { .. })
        ));
        let ok = generators::line(6);
        assert!(matches!(
            run_clique_then_prune(&ok, &uids, &generators::star(5)),
            Err(CoreError::InvalidInput { .. })
        ));
    }

    #[test]
    fn the_round_budget_caps_the_loop() {
        // line(16) needs 5 rounds; a budget of 2 stops it after two.
        let mut network = Network::new(generators::line(16));
        let uids = UidMap::new(16, UidAssignment::Sequential);
        let config = RunConfig::default().with_round_budget(2);
        let err = execute(&mut network, &uids, &config).unwrap_err();
        assert!(
            matches!(
                err,
                CoreError::Sim(SimError::RoundLimitExceeded { limit: 2 })
            ),
            "{err:?}"
        );
        assert_eq!(network.metrics().rounds, 2);
    }

    #[test]
    fn single_node_terminates_immediately() {
        let g = Graph::new(1);
        let uids = UidMap::new(1, UidAssignment::Sequential);
        let outcome = run_clique(&g, &uids).unwrap();
        assert_eq!(outcome.rounds, 1);
        assert_eq!(outcome.metrics.total_activations, 0);
    }
}
