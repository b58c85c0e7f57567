//! Quickstart: reconfigure a high-diameter network into a spanning star,
//! elect a leader, and inspect the paper's edge-complexity measures —
//! all through the algorithm's `run` entry point.
//!
//! Run with: `cargo run --release --example quickstart`

use actively_dynamic_networks::prelude::*;

fn main() -> Result<(), CoreError> {
    // A spanning line: the paper's canonical worst case (diameter n - 1).
    let n = 256;
    let graph = generators::line(n);
    let uids = UidMap::new(n, UidAssignment::RandomPermutation { seed: 42 });

    println!(
        "initial network : spanning line, n = {n}, diameter = {:?}",
        traversal::diameter(&graph)
    );

    // GraphToStar (Section 3): O(log n) rounds, O(n log n) activations.
    let outcome = GraphToStar.run(&graph, &uids, &RunConfig::default())?;

    println!(
        "elected leader  : {} (max UID? {})",
        outcome.leader,
        verify_leader_election(&outcome, &uids)
    );
    println!("final diameter  : {:?}", outcome.final_diameter());
    println!("rounds          : {}", outcome.rounds);
    println!("phases          : {}", outcome.phases);
    println!(
        "total edge activations      : {}",
        outcome.metrics.total_activations
    );
    println!(
        "max activated edges / round : {}",
        outcome.metrics.max_activated_edges
    );
    println!(
        "max activated degree        : {}",
        outcome.metrics.max_activated_degree
    );
    println!(
        "committees per phase        : {:?}",
        outcome.committees_per_phase
    );

    // Composition (Section 1.3): disseminate every token over the new
    // low-diameter network and compare with flooding the original line.
    let report = disseminate_after_transformation(&outcome, &uids)?;
    let (flood_rounds, _) = disseminate_by_flooding_only(&graph, &uids)?;
    println!(
        "token dissemination: flooding G_s = {flood_rounds} rounds, transform + disseminate = {} rounds",
        report.transformation_rounds + report.dissemination_rounds
    );
    Ok(())
}
