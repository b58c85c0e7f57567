//! End-to-end integration tests spanning all workspace crates:
//! graph generation → simulation → transformation → task layer → analysis,
//! all driven through the algorithm registry's `run` entry point.

use actively_dynamic_networks::prelude::*;
use adn_analysis::RunRecord;
use adn_graph::properties::ceil_log2;

#[test]
fn full_pipeline_on_every_family() {
    for family in GraphFamily::ALL {
        let graph = family.generate(36, 5);
        let n = graph.node_count();
        let uids = UidMap::new(n, UidAssignment::RandomPermutation { seed: 5 });

        let outcome = GraphToStar
            .run(&graph, &uids, &RunConfig::default())
            .expect("GraphToStar");
        assert!(verify_leader_election(&outcome, &uids), "{family}");
        assert!(properties::is_star(&outcome.final_graph), "{family}");

        let outcome = GraphToWreath
            .run(&graph, &uids, &RunConfig::default())
            .expect("GraphToWreath");
        assert!(verify_leader_election(&outcome, &uids), "{family}");
        assert!(properties::is_tree(&outcome.final_graph), "{family}");
        let tree = RootedTree::from_tree_graph(&outcome.final_graph, outcome.leader).unwrap();
        assert!(tree.depth() <= 2 * ceil_log2(n.max(2)) + 2, "{family}");
    }
}

#[test]
fn transformation_beats_flooding_on_high_diameter_graphs() {
    let n = 200;
    let graph = generators::line(n);
    let uids = UidMap::new(n, UidAssignment::RandomPermutation { seed: 2 });
    let (flood_rounds, _) = disseminate_by_flooding_only(&graph, &uids).unwrap();
    let outcome = GraphToStar
        .run(&graph, &uids, &RunConfig::default())
        .unwrap();
    let report = disseminate_after_transformation(&outcome, &uids).unwrap();
    assert!(report.transformation_rounds + report.dissemination_rounds < flood_rounds / 3);
}

#[test]
fn analysis_records_agree_with_direct_runs() {
    let record = RunRecord::measure(&GraphToStar, GraphFamily::Ring, 40, 8).unwrap();
    let graph = GraphFamily::Ring.generate(40, 8);
    let uids = UidMap::new(
        graph.node_count(),
        UidAssignment::RandomPermutation { seed: 8 },
    );
    let outcome = GraphToStar
        .run(&graph, &uids, &RunConfig::default())
        .unwrap();
    assert_eq!(record.rounds, outcome.rounds);
    assert_eq!(record.total_activations, outcome.metrics.total_activations);
    assert!(record.leader_ok);
}

#[test]
fn centralized_vs_distributed_activation_separation() {
    // The empirical content of Theorem 6.4: on increasing-order rings the
    // distributed algorithm pays a Θ(log n) factor more than the
    // centralized strategy.
    let n = 256;
    let ring = generators::ring(n);
    let uids = UidMap::new(n, UidAssignment::Sequential);
    let star = GraphToStar
        .run(&ring, &uids, &RunConfig::default())
        .unwrap();
    let central = CentralizedGeneral
        .run(&ring, &uids, &RunConfig::default())
        .unwrap();
    assert!(central.metrics.total_activations <= 2 * n);
    assert!(
        star.metrics.total_activations >= 2 * central.metrics.total_activations,
        "distributed {} vs centralized {}",
        star.metrics.total_activations,
        central.metrics.total_activations
    );
}

#[test]
fn clique_baseline_is_edge_inefficient_but_fast() {
    let n = 64;
    let graph = generators::line(n);
    let uids = UidMap::new(n, UidAssignment::Sequential);
    let clique = CliqueFormation
        .run(&graph, &uids, &RunConfig::default())
        .unwrap();
    let star = GraphToStar
        .run(&graph, &uids, &RunConfig::default())
        .unwrap();
    assert!(clique.rounds <= ceil_log2(n) + 2);
    // Θ(n²) vs Θ(n log n): at n = 64 the ratio is already a few-fold and it
    // grows with n (the scaling series is experiment T4).
    assert!(clique.metrics.total_activations > 3 * star.metrics.total_activations);
    assert_eq!(clique.metrics.max_total_degree, n - 1);
}
