//! Structural predicates used to verify that transformation algorithms
//! reach the target families claimed by the paper.

use crate::traversal::is_connected;
use crate::{Graph, NodeId, RootedTree};

/// Returns true if the graph is a tree: connected with exactly `n - 1`
/// edges.
pub fn is_tree(graph: &Graph) -> bool {
    let n = graph.node_count();
    n > 0 && graph.edge_count() == n - 1 && is_connected(graph)
}

/// Returns the centre of the graph if it is a spanning star
/// (one node adjacent to every other node, and no other edges).
///
/// For `n <= 2` any connected graph is trivially a star; node 0 (or the
/// higher-degree node) is returned.
pub fn star_center(graph: &Graph) -> Option<NodeId> {
    let n = graph.node_count();
    if n == 0 {
        return None;
    }
    if n == 1 {
        return Some(NodeId(0));
    }
    if graph.edge_count() != n - 1 {
        return None;
    }
    let center = graph.nodes().max_by_key(|&u| graph.degree(u))?;
    if graph.degree(center) != n - 1 {
        return None;
    }
    // All other nodes must have degree exactly 1.
    for u in graph.nodes() {
        if u != center && graph.degree(u) != 1 {
            return None;
        }
    }
    Some(center)
}

/// Returns true if the graph is a spanning star.
pub fn is_star(graph: &Graph) -> bool {
    star_center(graph).is_some()
}

/// Returns true if the graph is a simple path (spanning line).
pub fn is_line(graph: &Graph) -> bool {
    let n = graph.node_count();
    if n == 0 {
        return false;
    }
    if n == 1 {
        return graph.edge_count() == 0;
    }
    if graph.edge_count() != n - 1 || !is_connected(graph) {
        return false;
    }
    let deg1 = graph.nodes().filter(|&u| graph.degree(u) == 1).count();
    let deg2 = graph.nodes().filter(|&u| graph.degree(u) == 2).count();
    deg1 == 2 && deg2 == n - 2
}

/// Returns true if the graph is a spanning ring (cycle).
pub fn is_ring(graph: &Graph) -> bool {
    let n = graph.node_count();
    if n < 3 {
        return false;
    }
    graph.edge_count() == n && is_connected(graph) && graph.nodes().all(|u| graph.degree(u) == 2)
}

/// Returns true if the graph, rooted at `root`, is a tree where every node
/// has at most `arity` children and depth is at most `max_depth`.
pub fn is_bounded_arity_tree(graph: &Graph, root: NodeId, arity: usize, max_depth: usize) -> bool {
    if !is_tree(graph) {
        return false;
    }
    match RootedTree::from_tree_graph(graph, root) {
        Ok(t) => t.depth() <= max_depth && graph.nodes().all(|u| t.child_count(u) <= arity),
        Err(_) => false,
    }
}

/// Integer base-2 logarithm, rounded up, of `n` (with `ceil_log2(0) = 0`
/// and `ceil_log2(1) = 0`). Used pervasively to express the paper's
/// `⌈log n⌉` bounds in tests and analysis.
pub fn ceil_log2(n: usize) -> usize {
    if n <= 1 {
        0
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn recognises_stars() {
        assert!(is_star(&generators::star(10)));
        assert_eq!(star_center(&generators::star(10)), Some(NodeId(0)));
        assert!(!is_star(&generators::line(10)));
        assert!(!is_star(&generators::ring(10)));
        assert!(is_star(&generators::line(2)));
        assert!(is_star(&Graph::new(1)));
        assert!(star_center(&Graph::new(0)).is_none());
        // A star plus an extra edge is no longer a star.
        let mut g = generators::star(5);
        g.add_edge(NodeId(1), NodeId(2)).unwrap();
        assert!(!is_star(&g));
    }

    #[test]
    fn recognises_lines_and_rings() {
        assert!(is_line(&generators::line(7)));
        assert!(!is_line(&generators::ring(7)));
        assert!(!is_line(&generators::star(7)));
        assert!(is_ring(&generators::ring(7)));
        assert!(!is_ring(&generators::line(7)));
        assert!(!is_ring(&generators::ring(2)));
        assert!(is_line(&Graph::new(1)));
    }

    #[test]
    fn recognises_trees_and_depth_bounds() {
        let cbt = generators::complete_binary_tree(31);
        assert!(is_tree(&cbt));
        assert!(is_bounded_arity_tree(&cbt, NodeId(0), 2, 4));
        assert!(!is_bounded_arity_tree(&cbt, NodeId(0), 2, 3));
        let star = generators::star(8);
        assert!(!is_bounded_arity_tree(&star, NodeId(0), 2, 4));
        assert!(is_bounded_arity_tree(&star, NodeId(0), 7, 1));
    }

    #[test]
    fn bounded_arity_checks() {
        let t = generators::complete_kary_tree(40, 4);
        assert!(is_bounded_arity_tree(&t, NodeId(0), 4, 4));
        assert!(!is_bounded_arity_tree(&t, NodeId(0), 3, 10));
    }

    #[test]
    fn log_helpers() {
        assert_eq!(ceil_log2(0), 0);
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(8), 3);
        assert_eq!(ceil_log2(9), 4);
    }
}
