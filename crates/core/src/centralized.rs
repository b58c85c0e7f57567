//! Centralized transformation strategies (Section 6, Appendix D).
//!
//! These strategies have global knowledge of the network and a central
//! controller deciding every node's actions. They serve two roles in the
//! paper and in this reproduction:
//!
//! 1. [`crate::algorithm::CentralizedCutInHalf`] is the `CutInHalf`
//!    algorithm: on a spanning line it reaches diameter `O(log n)` in
//!    `log n` rounds with only `Θ(n)` total edge activations —
//!    establishing that the centralized optimum for total activations is
//!    linear (tight against Lemma 6.2 / D.3).
//! 2. [`crate::algorithm::CentralizedGeneral`] is the strategy of
//!    Theorem 6.3 / D.5 for arbitrary connected graphs: compute a
//!    spanning tree, walk an Euler tour to obtain a *virtual ring* of at
//!    most `2n` positions, and run `CutInHalf` on it. It shows the `Θ(n)`-activation bound holds for
//!    every initial network, which is the baseline our distributed
//!    algorithms are compared against in experiment F6/F7 (they must pay
//!    an extra `Θ(log n)` factor — Theorem 6.4).

use crate::algorithm::{validate_input, RunConfig};
use crate::{CoreError, TransformationOutcome};
use adn_graph::traversal::{bfs_parents, bfs_spanning_tree, euler_tour};
use adn_graph::{Edge, Graph, NodeId, UidMap};
use adn_sim::{Network, WaveActivation};

/// Executes `CutInHalf` on `network`, whose current snapshot must be a
/// spanning line; the line order is recovered by walking from an endpoint
/// and the first node of the walk becomes the root/leader (trait entry
/// point; see [`crate::algorithm::CentralizedCutInHalf`]).
pub(crate) fn execute_cut_in_half(
    network: &mut Network,
    uids: &UidMap,
    config: &RunConfig,
) -> Result<TransformationOutcome, CoreError> {
    config.require_sync_engine("Centralized CutInHalf")?;
    validate_input(network, uids, "CutInHalf")?;
    if !adn_graph::properties::is_line(network.graph()) {
        return Err(CoreError::InvalidInput {
            reason: "CutInHalf requires a spanning line as the initial network".into(),
        });
    }
    let order = line_order(network.graph());
    cut_in_half(network, &order, config)?;
    config.check_round_budget(network)?;
    Ok(TransformationOutcome::from_network(order[0], network))
}

/// Recovers the path order of a spanning line, starting at the
/// smallest-index endpoint (for `n == 1`, the single node).
fn line_order(graph: &Graph) -> Vec<NodeId> {
    let n = graph.node_count();
    if n <= 1 {
        return (0..n).map(NodeId).collect();
    }
    let start = graph
        .nodes()
        .find(|&u| graph.degree(u) == 1)
        .expect("a line with n >= 2 has an endpoint");
    let mut order = Vec::with_capacity(n);
    let mut prev: Option<NodeId> = None;
    let mut current = start;
    loop {
        order.push(current);
        let next = graph.neighbors(current).find(|&v| Some(v) != prev);
        match next {
            Some(v) => {
                prev = Some(current);
                current = v;
            }
            None => break,
        }
    }
    debug_assert_eq!(order.len(), n, "walk covered the whole line");
    order
}

/// The virtual-line `CutInHalf` core: positions along `order` (which may
/// repeat nodes, as in an Euler tour) are connected at doubling distances.
/// Activations between positions that map to the same node or to already
/// adjacent nodes are skipped (they cost nothing).
///
/// The doubling edge `order[j]`–`order[j + hop]` closes a path through
/// `order[j + step]`, whose two halves are edges of the previous round
/// (of the line itself when `step` is 1), so each round is one wave whose
/// witnesses are known. The network checks each with two adjacency
/// probes and falls back to its common-neighbour search only where a
/// repeated tour node or a fault made the witness stale.
fn cut_in_half(
    network: &mut Network,
    order: &[NodeId],
    config: &RunConfig,
) -> Result<(), CoreError> {
    let len = order.len();
    let mut wave = Vec::new();
    let mut step = 1usize;
    while step < len.saturating_sub(1) {
        config.check_round_budget(network)?;
        let hop = step * 2;
        let graph = network.graph();
        wave.clear();
        wave.extend(
            (0..len.saturating_sub(hop))
                .step_by(hop)
                .filter(|&j| {
                    order[j] != order[j + hop] && !graph.has_edge(order[j], order[j + hop])
                })
                .map(|j| WaveActivation {
                    initiator: order[j],
                    target: order[j + hop],
                    witness: order[j + step],
                }),
        );
        if wave.is_empty() {
            // The round still elapses even if every doubling edge happened
            // to exist already (e.g. repeated Euler-tour nodes).
            network.advance_idle_rounds(1);
        } else {
            network.stage_jump_wave(&wave, &[])?;
            network.commit_round();
        }
        step = hop;
    }
    Ok(())
}

/// Executes the general centralized strategy of Theorem 6.3 on `network`:
/// spanning tree → Euler tour → virtual ring → `CutInHalf`, followed by
/// one clean-up round that prunes the graph down to a BFS tree rooted at
/// the maximum-UID node (trait entry point; see
/// [`crate::algorithm::CentralizedGeneral`]).
pub(crate) fn execute_general(
    network: &mut Network,
    uids: &UidMap,
    config: &RunConfig,
) -> Result<TransformationOutcome, CoreError> {
    config.require_sync_engine("Centralized(Euler+CutInHalf)")?;
    validate_input(network, uids, "the centralized strategy")?;
    let n = network.node_count();
    let root = uids.max_uid_node().expect("validated input is non-empty");
    let tree =
        bfs_spanning_tree(network.graph(), root).expect("connected graph has a spanning tree");
    let tour = euler_tour(&tree);

    cut_in_half(network, &tour, config)?;

    if n > 1 {
        config.check_round_budget(network)?;
        // One clean-up round: keep only a BFS tree of the current
        // low-diameter graph rooted at `root`. The network can only be
        // disconnected here if the environment (a DST fault) severed it
        // mid-run; surface that as a clean error, not a panic.
        let parent = bfs_parents(network.graph(), root).ok_or_else(|| CoreError::InvalidInput {
            reason: "network disconnected before the prune round (environment fault)".to_string(),
        })?;
        // The tree's edges are the {u, parent(u)} pairs: every other edge
        // of the snapshot is dropped, in one column.
        let drops: Vec<Edge> = network
            .graph()
            .edges()
            .filter(|e| parent[e.a.index()] != Some(e.b) && parent[e.b.index()] != Some(e.a))
            .collect();
        network.stage_jump_wave(&[], &drops)?;
        network.commit_round();
    }

    config.check_round_budget(network)?;
    Ok(TransformationOutcome::from_network(root, network))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{
        arm_network_for_dst, CentralizedCutInHalf, CentralizedGeneral, DstConfig,
    };
    use crate::ReconfigurationAlgorithm;
    use adn_graph::properties::ceil_log2;
    use adn_graph::traversal::diameter;
    use adn_graph::{generators, GraphFamily, UidAssignment};
    use adn_sim::{EdgeMetrics, RoundEvent, Scenario};

    /// The `CutInHalf` core as first written, kept as the oracle of
    /// [`cut_in_half`]: each doubling edge is staged on its own, proved
    /// by the network's common-neighbour search.
    fn reference_cut_in_half(
        network: &mut Network,
        order: &[NodeId],
        config: &RunConfig,
    ) -> Result<(), CoreError> {
        let len = order.len();
        let mut step = 1usize;
        while step < len.saturating_sub(1) {
            config.check_round_budget(network)?;
            let hop = step * 2;
            let mut staged_any = false;
            let mut j = 0usize;
            while j + hop < len {
                let a = order[j];
                let b = order[j + hop];
                if a != b && !network.graph().has_edge(a, b) {
                    network.stage_activation(a, b)?;
                    staged_any = true;
                }
                j += hop;
            }
            if staged_any {
                network.commit_round();
            } else {
                network.advance_idle_rounds(1);
            }
            step = hop;
        }
        Ok(())
    }

    /// [`execute_cut_in_half`] over the oracle core.
    fn reference_execute_cut_in_half(
        network: &mut Network,
        uids: &UidMap,
        config: &RunConfig,
    ) -> Result<TransformationOutcome, CoreError> {
        config.require_sync_engine("Centralized CutInHalf")?;
        validate_input(network, uids, "CutInHalf")?;
        let graph = network.graph().clone();
        if !adn_graph::properties::is_line(&graph) {
            return Err(CoreError::InvalidInput {
                reason: "CutInHalf requires a spanning line as the initial network".into(),
            });
        }
        let order = line_order(&graph);
        reference_cut_in_half(network, &order, config)?;
        config.check_round_budget(network)?;
        Ok(TransformationOutcome::from_network(order[0], network))
    }

    /// [`execute_general`] as first written: the oracle core, and a prune
    /// round that reads its keep set off the BFS tree's graph against a
    /// clone of the snapshot.
    fn reference_execute_general(
        network: &mut Network,
        uids: &UidMap,
        config: &RunConfig,
    ) -> Result<TransformationOutcome, CoreError> {
        config.require_sync_engine("Centralized(Euler+CutInHalf)")?;
        validate_input(network, uids, "the centralized strategy")?;
        let initial = network.graph().clone();
        let n = initial.node_count();
        let root = uids.max_uid_node().expect("validated input is non-empty");
        let tree = bfs_spanning_tree(&initial, root).expect("connected graph has a spanning tree");
        let tour = euler_tour(&tree);
        reference_cut_in_half(network, &tour, config)?;
        if n > 1 {
            config.check_round_budget(network)?;
            let bfs = bfs_spanning_tree(network.graph(), root).ok_or_else(|| {
                CoreError::InvalidInput {
                    reason: "network disconnected before the prune round (environment fault)"
                        .to_string(),
                }
            })?;
            let keep = bfs.to_graph();
            let current = network.graph().clone();
            for e in current.edges() {
                if !keep.has_edge(e.a, e.b) {
                    network.stage_deactivation(e.a, e.b)?;
                }
            }
            network.commit_round();
        }
        config.check_round_budget(network)?;
        Ok(TransformationOutcome::from_network(root, network))
    }

    /// Everything a run leaves behind that the new code and its oracle
    /// must agree on.
    #[derive(Debug, PartialEq)]
    struct Observed {
        result: Result<(NodeId, usize, usize), CoreError>,
        metrics: EdgeMetrics,
        graph: Graph,
        events: Vec<RoundEvent>,
        dst: Option<String>,
        faults: usize,
    }

    fn observe(
        run: impl Fn(&mut Network) -> Result<TransformationOutcome, CoreError>,
        spec: &crate::AlgorithmSpec,
        initial: &Graph,
        uids: &UidMap,
        dst: Option<&DstConfig>,
    ) -> Observed {
        let mut network = Network::new(initial.clone());
        network.set_event_recording(true);
        if let Some(dst) = dst {
            arm_network_for_dst(&mut network, spec, uids, dst);
        }
        let result = run(&mut network);
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
    fn matches_the_reference_strategy_with_and_without_faults() {
        let scenarios = [
            Scenario::churn(),
            Scenario::crash_stop(),
            Scenario::adversarial_edges(),
            Scenario::partition_heal(),
            Scenario::mixed(),
        ];
        let config = RunConfig::default();
        let (general, cut) = (CentralizedGeneral.spec(), CentralizedCutInHalf.spec());
        let (mut runs, mut faulted, mut errors) = (0, 0, 0);
        for family in GraphFamily::ALL {
            for n in [8usize, 63, 64, 130] {
                let g = family.generate(n, 6);
                let uids =
                    UidMap::new(g.node_count(), UidAssignment::RandomPermutation { seed: 6 });
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
                    let mut pairs = vec![(
                        format!("{label} general"),
                        observe(
                            |net| reference_execute_general(net, &uids, &config),
                            &general,
                            &g,
                            &uids,
                            dst.as_ref(),
                        ),
                        observe(
                            |net| execute_general(net, &uids, &config),
                            &general,
                            &g,
                            &uids,
                            dst.as_ref(),
                        ),
                    )];
                    if family == GraphFamily::Line {
                        pairs.push((
                            format!("{label} CutInHalf"),
                            observe(
                                |net| reference_execute_cut_in_half(net, &uids, &config),
                                &cut,
                                &g,
                                &uids,
                                dst.as_ref(),
                            ),
                            observe(
                                |net| execute_cut_in_half(net, &uids, &config),
                                &cut,
                                &g,
                                &uids,
                                dst.as_ref(),
                            ),
                        ));
                    }
                    for (label, expect, got) in pairs {
                        assert_eq!(got, expect, "{label}");
                        runs += 1;
                        faulted += usize::from(got.faults > 0);
                        errors += usize::from(got.result.is_err());
                    }
                }
            }
        }
        // The comparison covers runs whose faults landed, and failures.
        assert_eq!(runs, (GraphFamily::ALL.len() + 1) * 4 * 16);
        assert!(faulted > runs / 2, "{faulted} of {runs} runs saw a fault");
        assert!(
            errors > 0 && errors < runs,
            "{errors} of {runs} runs failed"
        );
    }

    fn run_general(initial: &Graph, uids: &UidMap) -> Result<TransformationOutcome, CoreError> {
        let mut network = Network::new(initial.clone());
        execute_general(&mut network, uids, &RunConfig::default())
    }

    fn run_cut(initial: &Graph, uids: &UidMap) -> Result<TransformationOutcome, CoreError> {
        let mut network = Network::new(initial.clone());
        execute_cut_in_half(&mut network, uids, &RunConfig::default())
    }

    #[test]
    fn cut_in_half_reaches_log_diameter_with_linear_activations() {
        for &n in &[8usize, 16, 64, 128, 256, 500] {
            let g = generators::line(n);
            let uids = UidMap::new(n, UidAssignment::Sequential);
            let outcome = run_cut(&g, &uids).unwrap();
            // Θ(n) total activations (in fact < n).
            assert!(
                outcome.metrics.total_activations <= n,
                "n={n}: {} activations",
                outcome.metrics.total_activations
            );
            // O(log n) rounds.
            assert!(outcome.rounds <= ceil_log2(n) + 1, "n={n}");
            // O(log n) final diameter.
            let d = diameter(&outcome.final_graph).unwrap();
            assert!(d <= 2 * ceil_log2(n) + 2, "n={n}: diameter {d}");
        }
    }

    #[test]
    fn cut_in_half_rejects_non_lines() {
        let g = generators::ring(5);
        let uids = UidMap::new(5, UidAssignment::Sequential);
        assert!(matches!(
            run_cut(&g, &uids),
            Err(CoreError::InvalidInput { .. })
        ));
        let empty = UidMap::new(0, UidAssignment::Sequential);
        assert!(matches!(
            run_cut(&Graph::new(0), &empty),
            Err(CoreError::InvalidInput { .. })
        ));
    }

    #[test]
    fn general_strategy_works_on_all_families() {
        for family in GraphFamily::ALL {
            let g = family.generate(60, 3);
            let n = g.node_count();
            let uids = UidMap::new(n, UidAssignment::RandomPermutation { seed: 1 });
            let outcome = run_general(&g, &uids).unwrap();
            // Θ(n) activations: the Euler tour has < 2n positions.
            assert!(
                outcome.metrics.total_activations <= 2 * n,
                "{family}: {} activations for n={n}",
                outcome.metrics.total_activations
            );
            // O(log n) rounds.
            assert!(outcome.rounds <= ceil_log2(2 * n) + 2, "{family}");
            // Low final diameter.
            let d = diameter(&outcome.final_graph).unwrap();
            assert!(d <= 3 * ceil_log2(n.max(2)) + 3, "{family}: diameter {d}");
        }
    }

    #[test]
    fn general_strategy_yields_a_low_depth_tree() {
        let g = generators::line(200);
        let uids = UidMap::new(200, UidAssignment::Sequential);
        let outcome = run_general(&g, &uids).unwrap();
        assert!(adn_graph::properties::is_tree(&outcome.final_graph));
        let tree =
            adn_graph::RootedTree::from_tree_graph(&outcome.final_graph, outcome.leader).unwrap();
        assert!(tree.depth() <= 3 * ceil_log2(200), "depth {}", tree.depth());
        // Leader is the max UID node (node 199 under Sequential).
        assert_eq!(outcome.leader, NodeId(199));
    }

    #[test]
    fn rejects_disconnected_graphs() {
        let mut g = generators::line(6);
        g.remove_edge(NodeId(1), NodeId(2)).unwrap();
        let uids = UidMap::new(6, UidAssignment::Sequential);
        assert!(matches!(
            run_general(&g, &uids),
            Err(CoreError::InvalidInput { .. })
        ));
    }

    #[test]
    fn single_node_is_trivial() {
        let g = Graph::new(1);
        let uids = UidMap::new(1, UidAssignment::Sequential);
        let outcome = run_general(&g, &uids).unwrap();
        assert_eq!(outcome.metrics.total_activations, 0);
    }
}
