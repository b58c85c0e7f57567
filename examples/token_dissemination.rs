//! Token dissemination (Section 2.2): every node must learn every other
//! node's token. Compares the no-reconfiguration baseline (flooding over
//! the initial network, Θ(diameter) rounds, zero activations) with the
//! reconfigure-then-disseminate composition of Section 1.3.
//!
//! Run with: `cargo run --release --example token_dissemination`

use actively_dynamic_networks::prelude::*;

fn main() -> Result<(), CoreError> {
    println!(
        "{:>6} {:>16} {:>26} {:>12}",
        "n", "flooding rounds", "transform+disseminate", "activations"
    );
    for n in [64usize, 128, 256, 512] {
        let graph = generators::line(n);
        let uids = UidMap::new(n, UidAssignment::RandomPermutation { seed: 11 });

        // The baseline is itself a registered algorithm now.
        let flood = Flooding.run(&graph, &uids, &RunConfig::default())?;
        assert_eq!(flood.metrics.total_activations, 0);
        assert!(flood.tokens_per_node.iter().all(|&t| t == n));

        let outcome = GraphToStar.run(&graph, &uids, &RunConfig::default())?;
        let report = disseminate_after_transformation(&outcome, &uids)?;
        let combined = report.transformation_rounds + report.dissemination_rounds;

        println!(
            "{:>6} {:>16} {:>26} {:>12}",
            n,
            flood.rounds,
            format!(
                "{combined} ({} + {})",
                report.transformation_rounds, report.dissemination_rounds
            ),
            report.metrics.total_activations
        );
    }
    println!("\nFlooding needs Θ(n) rounds on a line; paying Θ(n log n) activations buys an O(log n)-round solution.");
    Ok(())
}
