//! Reconfigurable-robotics scenario (Section 1.4, "Programmable Matter"):
//! a swarm assembled as a 2-D grid must reorganise its communication
//! structure into a shallow command tree rooted at the highest-priority
//! robot, while every connection change is a physical link that costs
//! energy — exactly the paper's edge-complexity measures.
//!
//! The comparison sweeps the algorithm registry instead of naming each
//! strategy, so new registered algorithms show up automatically.
//!
//! Run with: `cargo run --release --example robot_swarm_reconfiguration`

use actively_dynamic_networks::prelude::*;

fn main() -> Result<(), CoreError> {
    // A 16 x 16 grid of robots.
    let graph = generators::grid(16, 16);
    let n = graph.node_count();
    println!(
        "swarm: {n} robots in a 16x16 grid, diameter {:?}",
        traversal::diameter(&graph)
    );

    // Compare every registered distributed strategy on the energy measures.
    let uids = UidMap::new(n, UidAssignment::RandomPermutation { seed: 3 });
    let mut outcomes = Vec::new();
    for algorithm in registry() {
        let spec = algorithm.spec();
        if spec.centralized || !algorithm.supports(&graph) {
            continue; // robots have no global controller
        }
        let outcome = algorithm.run(&graph, &uids, &RunConfig::default())?;
        outcomes.push((spec.name, outcome));
    }
    println!(
        "{:<18} {:>7} {:>12} {:>14} {:>10} {:>10}",
        "strategy", "rounds", "activations", "max act.edges", "max degree", "final diam"
    );
    for (name, o) in &outcomes {
        println!(
            "{:<18} {:>7} {:>12} {:>14} {:>10} {:>10}",
            name,
            o.rounds,
            o.metrics.total_activations,
            o.metrics.max_activated_edges,
            o.metrics.max_total_degree,
            o.final_diameter().map_or(-1i64, |d| d as i64),
        );
    }

    // The command tree: broadcast a "go" order from the elected leader of
    // the bounded-degree strategy (GraphToWreath).
    let (name, best) = outcomes
        .iter()
        .find(|(name, _)| *name == "GraphToWreath")
        .expect("GraphToWreath is registered");
    let broadcast = adn_core::tasks::convergecast_broadcast_rounds(&best.final_graph, best.leader)
        .expect("command tree is connected");
    println!("\nusing {name}: a command broadcast + acknowledgement takes {broadcast} rounds on the final tree");
    Ok(())
}
