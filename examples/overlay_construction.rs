//! Overlay-network construction scenario (Related Work, Section 1.4):
//! a peer-to-peer system starts from a sparse bounded-degree topology and
//! wants a low-diameter, bounded-degree overlay. GraphToWreath builds a
//! spanning complete binary tree (diameter O(log n)) while never exceeding
//! a constant activated degree — the property overlay networks care about.
//!
//! Run with: `cargo run --release --example overlay_construction`

use actively_dynamic_networks::prelude::*;

fn main() -> Result<(), CoreError> {
    let n = 512;
    // Bounded-degree peer topology: a ring with a few random chords.
    let graph = GraphFamily::BoundedDegreeConnected.generate(n, 7);
    let uids = UidMap::new(
        graph.node_count(),
        UidAssignment::RandomPermutation { seed: 7 },
    );

    println!(
        "initial overlay : n = {}, max degree = {}, diameter = {:?}",
        graph.node_count(),
        graph.max_degree(),
        traversal::diameter(&graph)
    );

    for id in ["graph_to_wreath", "graph_to_thin_wreath"] {
        let algorithm = find_algorithm(id).expect("registered");
        let spec = algorithm.spec();
        let outcome = algorithm.run(&graph, &uids, &RunConfig::default())?;
        let tree = RootedTree::from_tree_graph(&outcome.final_graph, outcome.leader)
            .expect("final overlay is a spanning tree");
        println!(
            "{:<18}: rounds = {:4}, activations = {:6}, max degree during run = {:2}, final depth = {:2}  [{} time]",
            spec.name,
            outcome.rounds,
            outcome.metrics.total_activations,
            outcome.metrics.max_total_degree,
            tree.depth(),
            spec.time,
        );
    }

    println!(
        "(GraphToStar would be faster but needs a linear-degree hub — unusable as a P2P overlay.)"
    );
    let star = GraphToStar.run(&graph, &uids, &RunConfig::default())?;
    println!(
        "GraphToStar       : rounds = {:4}, activations = {:6}, max degree during run = {:2} (!)",
        star.rounds, star.metrics.total_activations, star.metrics.max_total_degree
    );
    Ok(())
}
