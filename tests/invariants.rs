//! Property-style tests over random connected networks and random UID
//! assignments: the paper's correctness and complexity invariants must
//! hold on every instance, not just the hand-picked ones.
//!
//! Instances are drawn from a seeded [`DetRng`] stream, so failures are
//! reproducible: the failing `(kind, n, seed)` triple is printed by the
//! assertion message.

use actively_dynamic_networks::prelude::*;
use adn_graph::properties::ceil_log2;
use adn_graph::rng::DetRng;

/// One random connected instance: a graph on 4..=48 nodes plus the UID
/// seed used for its random permutation.
fn instances(cases: usize) -> Vec<(String, Graph, u64)> {
    let mut rng = DetRng::seed_from_u64(0xADB0);
    let mut out = Vec::with_capacity(cases);
    for _ in 0..cases {
        let n = rng.gen_range(4, 49);
        let seed = rng.gen_range(0, 1000) as u64;
        let kind = rng.gen_range(0, 3);
        let graph = match kind {
            0 => generators::random_tree(n, seed),
            1 => generators::random_connected(n, 0.1, seed),
            _ => generators::random_bounded_degree_connected(n, 4, n / 3, seed),
        };
        out.push((format!("kind={kind} n={n} seed={seed}"), graph, seed));
    }
    out
}

#[test]
fn graph_to_star_invariants() {
    for (label, graph, seed) in instances(24) {
        let n = graph.node_count();
        let uids = UidMap::new(n, UidAssignment::RandomPermutation { seed });
        let outcome = Experiment::on(graph)
            .uids(UidAssignment::RandomPermutation { seed })
            .algorithm("graph_to_star")
            .run()
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        // Depth-1 tree centred at the max-UID leader.
        assert!(properties::is_star(&outcome.final_graph), "{label}");
        assert_eq!(
            properties::star_center(&outcome.final_graph),
            Some(outcome.leader),
            "{label}"
        );
        assert_eq!(Some(outcome.leader), uids.max_uid_node(), "{label}");
        // Edge-complexity bounds of Theorem 3.8 (generous constants).
        assert!(outcome.rounds <= 12 * ceil_log2(n.max(2)) + 14, "{label}");
        assert!(
            outcome.metrics.total_activations <= 6 * n * ceil_log2(n.max(2)).max(1),
            "{label}"
        );
        assert!(outcome.metrics.max_activated_edges <= 2 * n, "{label}");
        assert!(
            outcome.metrics.max_node_activations_in_round <= 1,
            "{label}"
        );
    }
}

#[test]
fn graph_to_wreath_invariants() {
    for (label, graph, seed) in instances(24) {
        let n = graph.node_count();
        let uids = UidMap::new(n, UidAssignment::RandomPermutation { seed });
        let outcome = Experiment::on(graph.clone())
            .uids(UidAssignment::RandomPermutation { seed })
            .algorithm("graph_to_wreath")
            .run()
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        // Depth-log n tree rooted at the max-UID leader, arity <= 2.
        assert!(properties::is_tree(&outcome.final_graph), "{label}");
        assert_eq!(Some(outcome.leader), uids.max_uid_node(), "{label}");
        let tree = RootedTree::from_tree_graph(&outcome.final_graph, outcome.leader).unwrap();
        assert!(tree.depth() <= 2 * ceil_log2(n.max(2)) + 2, "{label}");
        for u in graph.nodes() {
            assert!(tree.child_count(u) <= 2, "{label}: node {u}");
        }
        // Constant activated degree regardless of the input degree.
        assert!(outcome.metrics.max_activated_degree <= 10, "{label}");
    }
}

#[test]
fn simulator_never_creates_multi_edges_or_breaks_vertex_set() {
    for (label, graph, seed) in instances(24) {
        let n = graph.node_count();
        let outcome = Experiment::on(graph)
            .uids(UidAssignment::RandomPermutation { seed })
            .algorithm("graph_to_star")
            .run()
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert!(outcome.final_graph.check_invariants(), "{label}");
        assert_eq!(outcome.final_graph.node_count(), n, "{label}");
    }
}

#[test]
fn centralized_strategy_is_linear_in_activations() {
    for (label, graph, seed) in instances(24) {
        let n = graph.node_count();
        let outcome = Experiment::on(graph.clone())
            .uids(UidAssignment::RandomPermutation { seed })
            .algorithm("centralized_general")
            .run()
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert!(outcome.metrics.total_activations <= 2 * n, "{label}");
        assert!(properties::is_tree(&outcome.final_graph), "{label}");
        assert!(outcome.rounds <= ceil_log2(2 * n) + 3, "{label}");
        // The low-diameter target skips only the prune round, so it keeps
        // every edge of the pruned tree.
        let loose = Experiment::on(graph)
            .uids(UidAssignment::RandomPermutation { seed })
            .algorithm("centralized_general")
            .centralized(CentralizedConfig::LowDiameter)
            .run()
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert!(
            outcome
                .final_graph
                .edges()
                .all(|e| loose.final_graph.has_edge(e.a, e.b)),
            "{label}"
        );
    }
}
