//! Run records: one row per (algorithm, workload, n, seed) execution.

use adn_core::algorithm::{ReconfigurationAlgorithm, RunConfig};
use adn_core::CoreError;
use adn_graph::{GraphFamily, UidAssignment, UidMap};

/// One row of measurements.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Name of the algorithm executed
    /// ([`ReconfigurationAlgorithm::name`]).
    pub algorithm: &'static str,
    /// Workload family name.
    pub family: String,
    /// Number of nodes of the instance actually generated.
    pub n: usize,
    /// Seed used for the instance and the UID permutation.
    pub seed: u64,
    /// Rounds consumed.
    pub rounds: usize,
    /// Phases (0 when not phase-structured).
    pub phases: usize,
    /// Total edge activations.
    pub total_activations: usize,
    /// Maximum concurrently-active activated (non-initial) edges.
    pub max_activated_edges: usize,
    /// Maximum activated degree.
    pub max_activated_degree: usize,
    /// Maximum total degree observed.
    pub max_total_degree: usize,
    /// Diameter of the final network.
    pub final_diameter: Option<usize>,
    /// Whether the elected leader is the maximum-UID node.
    pub leader_ok: bool,
}

impl RunRecord {
    /// Runs `algorithm` under the default [`RunConfig`] on one instance
    /// of `family`, with UIDs permuted by the instance seed, and records
    /// the result.
    ///
    /// # Errors
    ///
    /// Propagates algorithm errors.
    pub fn measure(
        algorithm: &dyn ReconfigurationAlgorithm,
        family: GraphFamily,
        n: usize,
        seed: u64,
    ) -> Result<Self, CoreError> {
        let graph = family.generate(n, seed);
        let n = graph.node_count();
        let uids = UidMap::new(n, UidAssignment::RandomPermutation { seed });
        let outcome = algorithm.run(&graph, &uids, &RunConfig::default())?;
        Ok(RunRecord {
            algorithm: algorithm.name(),
            family: family.name().to_string(),
            n,
            seed,
            rounds: outcome.rounds,
            phases: outcome.phases,
            total_activations: outcome.metrics.total_activations,
            max_activated_edges: outcome.metrics.max_activated_edges,
            max_activated_degree: outcome.metrics.max_activated_degree,
            max_total_degree: outcome.metrics.max_total_degree,
            final_diameter: outcome.final_diameter(),
            leader_ok: uids.max_uid_node() == Some(outcome.leader),
        })
    }
}

/// Formats a slice of records as a GitHub-flavoured markdown table.
pub fn markdown_table(records: &[RunRecord]) -> String {
    let mut s = String::new();
    s.push_str(
        "| algorithm | family | n | rounds | phases | total act. | max act. edges | max act. deg | max deg | final diam | leader ok |\n",
    );
    s.push_str("|---|---|---|---|---|---|---|---|---|---|---|\n");
    for r in records {
        s.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |\n",
            r.algorithm,
            r.family,
            r.n,
            r.rounds,
            r.phases,
            r.total_activations,
            r.max_activated_edges,
            r.max_activated_degree,
            r.max_total_degree,
            r.final_diameter.map_or("-".to_string(), |d| d.to_string()),
            if r.leader_ok { "yes" } else { "no" },
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use adn_core::algorithm::{registry, GraphToStar};

    #[test]
    fn measure_produces_consistent_records() {
        let r = RunRecord::measure(&GraphToStar, GraphFamily::Line, 32, 1).unwrap();
        assert_eq!(r.n, 32);
        assert!(r.leader_ok);
        assert_eq!(r.final_diameter, Some(2));
        assert!(r.rounds > 0);
        let table = markdown_table(&[r]);
        assert!(table.contains("GraphToStar"));
        assert!(table.contains("| line |"));
    }

    #[test]
    fn every_supporting_algorithm_runs_on_a_small_ring() {
        let ring = GraphFamily::Ring.generate(24, 3);
        for alg in registry().iter().filter(|a| a.supports(&ring)) {
            let r = RunRecord::measure(*alg, GraphFamily::Ring, 24, 3).unwrap();
            assert_eq!(r.algorithm, alg.name());
            assert!(r.final_diameter.is_some(), "{} disconnected", r.algorithm);
            if alg.spec().elects_max_uid_leader {
                assert!(r.leader_ok, "{} elected the wrong leader", r.algorithm);
            }
        }
    }
}
