//! Synchronous `LineToCompleteBinaryTree` (Proposition 2.2), generalised
//! to complete `k`-ary trees.
//!
//! Every node repeatedly activates an edge with its grandparent and
//! deactivates the edge with its former parent, *unless* its grandparent
//! already has `k` children (in which case it stops, keeping its current
//! parent) or its parent is the root (in which case it has reached its
//! final position). With `k = 2` this is exactly the paper's
//! `LineToCompleteBinaryTree`; with `k = ⌈log n⌉` it is the
//! `LineToCompletePolylogarithmicTree` of Section 5.
//!
//! The paper notes that "there are some special cases where the above
//! process needs to be tweaked"; our single tweak is a deterministic
//! admission rule when several grandchildren could hop onto the same
//! grandparent in one round and exceed its capacity: the lowest-position
//! candidates are admitted first and the rest simply retry in the next
//! round. On a line with `k = 2` the rule never triggers.
//!
//! The wreath algorithms run the subroutine over a merged ring read as a
//! line from its leader, and the ring must survive: with
//! [`LineToTreeConfig::keep_line_edges`] a jump keeps the edge it leaves
//! when that edge is a line edge, which happens exactly on a position's
//! first jump. The closing edge of the ring joins the root to the last
//! position, and no position ever jumps off the root, so it stays too.
//!
//! The rule is written once, in `async_line_to_tree`'s jump planner.
//! Lemma B.4 says the wake-up variant of Appendix B performs exactly the
//! synchronous run's activations and deactivations, so the synchronous
//! subroutine here is that variant's lockstep batch with every node awake
//! from round 1.

use crate::subroutines::run_async_line_to_tree;
use crate::CoreError;
use adn_graph::{NodeId, RootedTree};
use adn_sim::Network;

/// Configuration for [`run_line_to_tree`], its wake-up variant
/// [`run_async_line_to_tree`] and the actor runs of
/// [`runtime_line_to_tree`](crate::subroutines::runtime_line_to_tree).
#[derive(Debug, Clone)]
pub struct LineToTreeConfig {
    /// Maximum number of children per node in the constructed tree
    /// (2 for the complete binary tree).
    pub arity: usize,
    /// Keep every line edge active (the wreath algorithms keep their ring,
    /// whose edges are the line's plus the closing edge, through the tree
    /// construction). A position leaves its line edge only on its first
    /// jump: every later jump leaves a parent at least two positions back,
    /// and no position jumps off the root, so the closing edge is never
    /// dropped either. The rule is checked by position, with no edge set.
    pub keep_line_edges: bool,
}

impl LineToTreeConfig {
    /// The paper's `LineToCompleteBinaryTree` configuration.
    pub fn binary() -> Self {
        LineToTreeConfig {
            arity: 2,
            keep_line_edges: false,
        }
    }
}

/// Runs the synchronous line-to-tree subroutine on `network`: the
/// wake-up variant with every node awake from round 1.
///
/// `line` lists the nodes in order; `line[0]` is the root and consecutive
/// entries must be adjacent in the network's current graph.
///
/// Returns the constructed rooted tree **in position space** (vertex `i`
/// of the returned tree is `line[i]`, the root is position 0) together
/// with the number of rounds consumed: the parent of node `line[i]` is
/// `line[p]` for the tree parent `p` of position `i`. When `line` is
/// simply `0..n` in order the two spaces coincide.
///
/// # Errors
///
/// * [`CoreError::InvalidInput`] if `line` is empty, repeats nodes, names
///   a node outside the network, has non-adjacent consecutive entries, or
///   `config.arity < 1`.
/// * [`CoreError::Sim`] on model violations (implementation bugs).
/// * [`CoreError::DidNotConverge`] if the internal round budget is
///   exhausted (implementation bugs).
pub fn run_line_to_tree(
    network: &mut Network,
    line: &[NodeId],
    config: &LineToTreeConfig,
) -> Result<(RootedTree, usize), CoreError> {
    run_async_line_to_tree(network, line, config, &vec![1; line.len()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph_to_wreath::WreathConfig;
    use crate::subroutines::async_line_to_tree::planned_tree;
    use adn_graph::properties::{ceil_log2, is_bounded_arity_tree};
    use adn_graph::{generators, NodeId};

    fn identity_line(n: usize) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn line_becomes_binary_tree_with_log_depth() {
        // Proposition 2.2 over an (n, arity) ladder: the planned tree, of
        // logarithmic depth, in at most ⌈log n⌉ rounds, with every node's
        // degree within the tree's bound and one activation per node per
        // round. With arity 1 nobody jumps and the line stays a line.
        let mut sizes: Vec<usize> = (1..=300).collect();
        sizes.extend([511, 512, 513, 1024]);
        for &n in &sizes {
            for arity in [1usize, 2, 3, 4, 8, 12] {
                let line = identity_line(n);
                let mut net = Network::new(generators::line(n));
                let config = LineToTreeConfig {
                    arity,
                    keep_line_edges: false,
                };
                let (tree, rounds) = run_line_to_tree(&mut net, &line, &config).unwrap();
                let label = format!("n={n} arity={arity}");
                assert_eq!(tree, planned_tree(n, arity), "{label}");
                assert_eq!(
                    RootedTree::from_tree_graph(net.graph(), line[0]).as_ref(),
                    Ok(&tree),
                    "{label}: the final graph is the tree"
                );
                let max_depth = if arity >= 2 { ceil_log2(n) + 1 } else { n - 1 };
                assert!(
                    is_bounded_arity_tree(net.graph(), line[0], arity, max_depth),
                    "{label}: depth {}",
                    tree.depth()
                );
                assert!(rounds <= ceil_log2(n), "{label}: rounds {rounds}");
                let metrics = net.metrics();
                assert!(metrics.max_total_degree <= arity + 1, "{label}");
                assert!(metrics.max_node_activations_in_round <= 1, "{label}");
                assert!(metrics.max_active_edges_total <= 2 * n, "{label}");
            }
        }
    }

    #[test]
    fn final_network_edges_match_tree_edges() {
        let n = 64;
        let g = generators::line(n);
        let mut net = Network::new(g);
        let (tree, _) =
            run_line_to_tree(&mut net, &identity_line(n), &LineToTreeConfig::binary()).unwrap();
        // The final active edge set is exactly the tree's edge set (line
        // edges not kept here, so all former parent edges are gone).
        let final_graph = net.graph();
        assert_eq!(final_graph.edge_count(), n - 1);
        for u in (1..n).map(NodeId) {
            let p = tree.parent(u).unwrap();
            assert!(final_graph.has_edge(u, p));
        }
    }

    #[test]
    fn protected_edges_survive() {
        let n = 32;
        let g = generators::line(n);
        let mut net = Network::new(g.clone());
        let config = LineToTreeConfig {
            keep_line_edges: true,
            ..LineToTreeConfig::binary()
        };
        let (tree, _) = run_line_to_tree(&mut net, &identity_line(n), &config).unwrap();
        // All original line edges are still active.
        for e in g.edges() {
            assert!(
                net.graph().has_edge(e.a, e.b),
                "kept line edge {e:?} was removed"
            );
        }
        // And the tree edges are active too.
        for u in (1..n).map(NodeId) {
            let p = tree.parent(u).unwrap();
            assert!(net.graph().has_edge(u, p));
        }
        // Degree: 2 line edges + at most (1 parent + 2 children) tree edges.
        assert!(net.metrics().max_total_degree <= 6);
    }

    #[test]
    fn polylog_arity_gives_shallower_trees() {
        let n = 256;
        let g = generators::line(n);
        let mut net_bin = Network::new(g.clone());
        let (bin, _) =
            run_line_to_tree(&mut net_bin, &identity_line(n), &LineToTreeConfig::binary()).unwrap();
        let arity = WreathConfig::polylog(n).tree_arity;
        let polylog = LineToTreeConfig {
            arity,
            keep_line_edges: false,
        };
        let mut net_poly = Network::new(g);
        let (poly, _) = run_line_to_tree(&mut net_poly, &identity_line(n), &polylog).unwrap();
        assert!(
            poly.depth() < bin.depth(),
            "poly {} vs bin {}",
            poly.depth(),
            bin.depth()
        );
        for u in (0..n).map(NodeId) {
            assert!(poly.child_count(u) <= arity);
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let g = generators::line(4);
        let mut net = Network::new(g);
        // Empty line.
        assert!(matches!(
            run_line_to_tree(&mut net, &[], &LineToTreeConfig::binary()),
            Err(CoreError::InvalidInput { .. })
        ));
        // Repeated node.
        assert!(matches!(
            run_line_to_tree(
                &mut net,
                &[NodeId(0), NodeId(1), NodeId(0)],
                &LineToTreeConfig::binary()
            ),
            Err(CoreError::InvalidInput { .. })
        ));
        // Non-adjacent consecutive nodes.
        assert!(matches!(
            run_line_to_tree(
                &mut net,
                &[NodeId(0), NodeId(2)],
                &LineToTreeConfig::binary()
            ),
            Err(CoreError::InvalidInput { .. })
        ));
        // Zero arity.
        assert!(matches!(
            run_line_to_tree(
                &mut net,
                &[NodeId(0), NodeId(1)],
                &LineToTreeConfig {
                    arity: 0,
                    keep_line_edges: false
                }
            ),
            Err(CoreError::InvalidInput { .. })
        ));
        // A node outside the network.
        assert!(matches!(
            run_line_to_tree(&mut net, &[NodeId(99)], &LineToTreeConfig::binary()),
            Err(CoreError::InvalidInput { .. })
        ));
    }

    #[test]
    fn singleton_and_pair_lines() {
        let g = generators::line(2);
        let mut net = Network::new(g);
        let (tree, rounds) =
            run_line_to_tree(&mut net, &identity_line(2), &LineToTreeConfig::binary()).unwrap();
        assert_eq!(rounds, 0);
        assert_eq!(tree.depth(), 1);

        let g1 = generators::line(1);
        let mut net1 = Network::new(g1);
        let (tree1, rounds1) =
            run_line_to_tree(&mut net1, &identity_line(1), &LineToTreeConfig::binary()).unwrap();
        assert_eq!(rounds1, 0);
        assert_eq!(tree1.node_count(), 1);
    }

    #[test]
    fn works_on_reversed_lines_within_larger_networks() {
        // The line need not be the whole vertex set nor in index order:
        // build a line graph but feed the subroutine the reversed order
        // (root at the other end).
        let n = 33;
        let g = generators::line(n);
        let mut net = Network::new(g);
        let line: Vec<NodeId> = (0..n).rev().map(NodeId).collect();
        let (tree, _) = run_line_to_tree(&mut net, &line, &LineToTreeConfig::binary()).unwrap();
        // The root position maps to node n-1.
        assert_eq!(tree.parent(NodeId(0)), None);
        assert!(tree.depth() <= ceil_log2(n) + 1);
        // Node-id-space parents must be adjacent in the final network.
        for (pos, &node) in line.iter().enumerate().skip(1) {
            let parent = line[tree.parent(NodeId(pos)).expect("non-root").index()];
            assert!(net.graph().has_edge(node, parent));
        }
    }
}
