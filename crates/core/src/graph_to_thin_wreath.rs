//! **GraphToThinWreath** (Section 5): trading a polylogarithmic degree for
//! `o(log² n)` time.
//!
//! The gadget is a *thin wreath*: a ring together with a complete
//! polylogarithmic-degree tree spanning it. With tree arity `⌈log n⌉` the
//! intra-committee diameter drops from `Θ(log n)` to
//! `Θ(log n / log log n)`, so both the per-phase communication and the
//! per-phase tree rebuild get cheaper, yielding
//! `O(log² n / log log n) = o(log² n)` total rounds (Theorem 5.1) at the
//! cost of a polylogarithmic (instead of constant) maximum degree.
//!
//! The implementation instantiates the shared wreath engine of
//! [`crate::graph_to_wreath`] with the polylogarithmic arity — and thereby
//! runs on the shared committee layer of [`crate::committee`] (arena
//! forest, one-pass selection, selection forest), the
//! engine's batched ring splices (successor-pointer rings, one
//! materialization pass per merge) and its lockstep tree rebuilds
//! (every merged ring of a phase in one line-to-tree batch, so a phase
//! costs its slowest rebuild); this covers the selection / ring-merging /
//! tree-merging / termination pipeline of Section 5.
//!
//! **Simplification.** The matchmaker/matched refinement of Appendix C
//! (pair matching of leaf committees performed by their common parent) is
//! an optimisation of the same pipeline that reduces the constant in front
//! of the bound; it is not modelled separately. The quantity our
//! experiments compare (rounds as a function of `n`, against
//! GraphToWreath's `log² n` growth) is produced by the arity change, which
//! the T1 and F9 tables of the experiment report show (`report -- t1`,
//! `report -- f9`; the full report is pinned in
//! `tests/expectations/report.txt`).

#[cfg(test)]
mod tests {
    use crate::algorithm::RunConfig;
    use crate::graph_to_wreath::{self, WreathConfig};
    use crate::{CoreError, TransformationOutcome};
    use adn_graph::properties::{ceil_log2, is_tree};
    use adn_graph::{generators, Graph, RootedTree, UidAssignment, UidMap};
    use adn_sim::Network;

    fn run_thin(initial: &Graph, uids: &UidMap) -> Result<TransformationOutcome, CoreError> {
        let mut network = Network::new(initial.clone());
        let config = WreathConfig::polylog(initial.node_count());
        graph_to_wreath::execute(&mut network, uids, &config, &RunConfig::default())
    }

    fn run_wide(initial: &Graph, uids: &UidMap) -> Result<TransformationOutcome, CoreError> {
        let mut network = Network::new(initial.clone());
        graph_to_wreath::execute(
            &mut network,
            uids,
            &WreathConfig::binary(),
            &RunConfig::default(),
        )
    }

    #[test]
    fn solves_depth_log_n_tree_with_polylog_degree() {
        for &n in &[16usize, 64, 128, 256] {
            let g = generators::ring(n);
            let uids = UidMap::new(n, UidAssignment::RandomPermutation { seed: 7 });
            let outcome = run_thin(&g, &uids).unwrap();
            assert!(is_tree(&outcome.final_graph));
            assert_eq!(Some(outcome.leader), uids.max_uid_node());
            let tree = RootedTree::from_tree_graph(&outcome.final_graph, outcome.leader).unwrap();
            let arity = ceil_log2(n).max(2);
            for u in g.nodes() {
                assert!(tree.child_count(u) <= arity);
            }
            // Depth is O(log n / log log n) ≤ log n.
            assert!(
                tree.depth() <= ceil_log2(n) + 1,
                "n={n}: depth {}",
                tree.depth()
            );
            // Degree is polylogarithmic, not constant.
            assert!(
                outcome.metrics.max_total_degree <= 2 * arity + 10,
                "n={n}: degree {}",
                outcome.metrics.max_total_degree
            );
        }
    }

    #[test]
    fn shallower_committees_give_fewer_rounds_than_wreath_at_scale() {
        // The o(log² n) vs O(log² n) separation: at this scale the two are
        // close (the asymptotic gap is a log log n factor), but the thin
        // variant must not be meaningfully slower, and its committees are
        // strictly shallower. The full scaling series is regenerated by the
        // T3 experiment in the benchmark harness.
        let n = 256;
        let g = generators::line(n);
        let uids = UidMap::new(n, UidAssignment::Sequential);
        let thin = run_thin(&g, &uids).unwrap();
        let wide = run_wide(&g, &uids).unwrap();
        assert!(
            thin.rounds <= wide.rounds + ceil_log2(n),
            "thin wreath ({}) should not be meaningfully slower than wreath ({})",
            thin.rounds,
            wide.rounds
        );
    }

    #[test]
    fn final_tree_depth_beats_binary_wreath_depth() {
        let n = 512;
        let g = generators::ring(n);
        let uids = UidMap::new(n, UidAssignment::Sequential);
        let thin = run_thin(&g, &uids).unwrap();
        let wide = run_wide(&g, &uids).unwrap();
        let thin_tree = RootedTree::from_tree_graph(&thin.final_graph, thin.leader).unwrap();
        let wide_tree = RootedTree::from_tree_graph(&wide.final_graph, wide.leader).unwrap();
        assert!(thin_tree.depth() <= wide_tree.depth());
    }

    #[test]
    fn rejects_disconnected_inputs() {
        let mut g = generators::line(8);
        g.remove_edge(adn_graph::NodeId(3), adn_graph::NodeId(4))
            .unwrap();
        let uids = UidMap::new(8, UidAssignment::Sequential);
        assert!(matches!(
            run_thin(&g, &uids),
            Err(CoreError::InvalidInput { .. })
        ));
        let uids0 = UidMap::new(0, UidAssignment::Sequential);
        assert!(run_thin(&Graph::new(0), &uids0).is_err());
    }
}
