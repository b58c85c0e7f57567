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
//!
//! Each round copies its start-of-round snapshot into [`BitRows`] once and
//! reads every `N_2(u)` off the copy by word OR. A new edge `{u, v}`,
//! `u < v`, is staged once, by `u` in its own turn. Both endpoints read
//! the same snapshot, so `v` would find `u` in its `N_2` and stage the
//! edge again: a no-op the model does not meter, so leaving it out
//! changes no count. A node that joined by churn takes no turn and sits
//! above every initial node, so its edges are staged by their initial
//! endpoints. Each activation's witness is the smallest common neighbour
//! of its endpoints, the lowest set bit of the AND of their rows. The
//! network checks it with two adjacency probes
//! ([`Network::stage_jump_wave`]) instead of searching for a common
//! neighbour, and the distance-2 rule stays enforced there alone.

use crate::algorithm::{validate_input, RunConfig};
use crate::{CoreError, TransformationOutcome};
use adn_graph::{BitRow, BitRows, Graph, NodeId, UidMap};
use adn_sim::{Network, SimError, WaveActivation};

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
    let mut rows = BitRows::new();
    let mut reach = BitRow::new();
    let mut wave = Vec::new();
    let mut rounds = 0;
    while !done.iter().all(|&d| d) {
        if rounds >= limit {
            return Err(SimError::RoundLimitExceeded { limit }.into());
        }
        rounds += 1;
        rows.fill(network.graph());
        for (i, done) in done.iter_mut().enumerate() {
            let u = NodeId(i);
            rows.distance_two(u, &mut reach);
            *done |= reach.is_empty();
            // A lower initial node staged its edge to `u` in its own turn.
            wave.clear();
            wave.extend(reach.nodes_from(NodeId(i + 1)).map(|v| {
                WaveActivation {
                    initiator: u,
                    target: v,
                    witness: rows
                        .common_neighbor(u, v)
                        .expect("a potential neighbour shares a neighbour"),
                }
            }));
            network.stage_jump_wave(&wave, &[])?;
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
    use crate::algorithm::{arm_network_for_dst, CliqueFormation, DstConfig};
    use crate::ReconfigurationAlgorithm;
    use adn_graph::properties::ceil_log2;
    use adn_graph::{generators, traversal, GraphFamily, UidAssignment};
    use adn_sim::{EdgeMetrics, RoundEvent, Scenario};

    fn run_clique(initial: &Graph, uids: &UidMap) -> Result<TransformationOutcome, CoreError> {
        let mut network = Network::new(initial.clone());
        execute(&mut network, uids, &RunConfig::default())
    }

    /// The round loop as the straw-man states it, kept as the oracle of
    /// [`execute`]: every initial node, in ascending order, stages an
    /// activation to every node at distance two from it in the
    /// start-of-round snapshot, ascending, each proved by the network's
    /// own common-neighbour search.
    fn reference_execute(
        network: &mut Network,
        uids: &UidMap,
        config: &RunConfig,
    ) -> Result<TransformationOutcome, CoreError> {
        config.require_sync_engine("CliqueFormation")?;
        validate_input(network, uids, "clique formation")?;
        let n = network.node_count();
        let limit = config.engine_round_cap(network, 4 * ceil_log2(n.max(2)) + 16);
        let mut done = vec![false; n];
        let mut rounds = 0;
        while !done.iter().all(|&d| d) {
            if rounds >= limit {
                return Err(SimError::RoundLimitExceeded { limit }.into());
            }
            rounds += 1;
            for (i, done) in done.iter_mut().enumerate() {
                let u = NodeId(i);
                let graph = network.graph();
                let potential: Vec<NodeId> = graph
                    .nodes()
                    .filter(|&w| graph.at_distance_two(u, w))
                    .collect();
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

    /// Everything a run leaves behind that the two loops must agree on.
    #[derive(Debug, PartialEq)]
    struct Observed {
        result: Result<(NodeId, usize, usize), CoreError>,
        metrics: EdgeMetrics,
        graph: Graph,
        events: Vec<RoundEvent>,
        dst: Option<String>,
        faults: usize,
    }

    type Executor =
        fn(&mut Network, &UidMap, &RunConfig) -> Result<TransformationOutcome, CoreError>;

    fn observe(
        executor: Executor,
        initial: &Graph,
        uids: &UidMap,
        dst: Option<&DstConfig>,
    ) -> Observed {
        let mut network = Network::new(initial.clone());
        network.set_event_recording(true);
        if let Some(dst) = dst {
            arm_network_for_dst(&mut network, &CliqueFormation.spec(), uids, dst);
        }
        let result = executor(&mut network, uids, &RunConfig::default());
        let report = match &result {
            Ok(outcome) => outcome.dst.clone(),
            Err(_) => network.take_dst_report(),
        };
        if let Ok(outcome) = &result {
            assert_eq!(&outcome.metrics, network.metrics());
            assert_eq!(&outcome.final_graph, network.graph());
        }
        Observed {
            result: result.map(|o| (o.leader, o.rounds, o.phases)),
            metrics: network.metrics().clone(),
            graph: network.graph().clone(),
            events: network.take_events(),
            dst: report.as_ref().map(|r| r.render()),
            faults: report.map_or(0, |r| r.faults.len()),
        }
    }

    #[test]
    fn matches_the_reference_loop_with_and_without_faults() {
        let scenarios = [
            Scenario::churn(),
            Scenario::crash_stop(),
            Scenario::adversarial_edges(),
            Scenario::partition_heal(),
            Scenario::mixed(),
        ];
        let (mut runs, mut faulted, mut errors) = (0, 0, 0);
        for family in GraphFamily::ALL {
            for n in [8usize, 63, 64, 65, 130] {
                let g = family.generate(n, 4);
                let uids =
                    UidMap::new(g.node_count(), UidAssignment::RandomPermutation { seed: 4 });
                let mut arms = vec![None];
                for scenario in &scenarios {
                    for seed in [1u64, 2, 3] {
                        arms.push(Some(DstConfig {
                            scenario: scenario.clone(),
                            seed: seed ^ ((n as u64) << 8),
                        }));
                    }
                }
                for dst in &arms {
                    let label = format!(
                        "{} n={n} {:?}",
                        family.name(),
                        dst.as_ref().map(|d| (&d.scenario.name, d.seed))
                    );
                    let expect = observe(reference_execute, &g, &uids, dst.as_ref());
                    let got = observe(execute, &g, &uids, dst.as_ref());
                    assert_eq!(got, expect, "{label}");
                    runs += 1;
                    faulted += usize::from(got.faults > 0);
                    errors += usize::from(got.result.is_err());
                }
            }
        }
        // The comparison covers runs whose faults landed.
        assert_eq!(runs, GraphFamily::ALL.len() * 5 * 16);
        assert!(faulted > runs / 2, "{faulted} of {runs} runs saw a fault");
        assert!(errors < runs, "{errors} of {runs} runs failed");
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
