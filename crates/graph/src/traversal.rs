//! Breadth-first search, distances, diameter, connectivity, spanning trees
//! and Euler tours.

use crate::{Graph, NodeId, RootedTree};
use std::collections::VecDeque;

/// Distances (in hops) from `source` to every node; `None` for unreachable
/// nodes.
pub fn bfs_distances(graph: &Graph, source: NodeId) -> Vec<Option<usize>> {
    let n = graph.node_count();
    let mut dist = vec![None; n];
    if source.index() >= n {
        return dist;
    }
    let mut queue = VecDeque::new();
    dist[source.index()] = Some(0);
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()].expect("queued nodes have distances");
        for &v in graph.neighbors_slice(u) {
            if dist[v.index()].is_none() {
                dist[v.index()] = Some(du + 1);
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Shortest-path distance between `u` and `v`, or `None` if disconnected.
pub fn distance(graph: &Graph, u: NodeId, v: NodeId) -> Option<usize> {
    bfs_distances(graph, u).get(v.index()).copied().flatten()
}

/// Eccentricity of `source`: the maximum distance to any reachable node, or
/// `None` if some node is unreachable (the graph is disconnected).
pub fn eccentricity(graph: &Graph, source: NodeId) -> Option<usize> {
    let dist = bfs_distances(graph, source);
    let mut ecc = 0usize;
    for d in dist {
        match d {
            Some(d) => ecc = ecc.max(d),
            None => return None,
        }
    }
    Some(ecc)
}

/// Diameter of the graph (maximum eccentricity), or `None` if the graph is
/// disconnected or empty.
///
/// Computed by all-pairs BFS: O(n · (n + m)). Every experiment in this
/// reproduction runs on graphs small enough for this to be cheap relative
/// to the simulated executions themselves.
pub fn diameter(graph: &Graph) -> Option<usize> {
    let n = graph.node_count();
    if n == 0 {
        return None;
    }
    let mut best = 0usize;
    for u in graph.nodes() {
        best = best.max(eccentricity(graph, u)?);
    }
    Some(best)
}

/// Returns true if the graph is connected (vacuously true for `n <= 1`).
pub fn is_connected(graph: &Graph) -> bool {
    let n = graph.node_count();
    if n <= 1 {
        return true;
    }
    bfs_distances(graph, NodeId(0)).iter().all(Option::is_some)
}

/// The parent map of a BFS spanning tree rooted at `root`
/// (`parent[root] == None`): each node's parent is the node that first
/// reached it, neighbours scanned in adjacency order.
///
/// Returns `None` if the graph is disconnected (a spanning tree does not
/// exist) or `root` is out of range. For callers that only need the
/// parents; [`bfs_spanning_tree`] wraps it into a [`RootedTree`].
pub fn bfs_parents(graph: &Graph, root: NodeId) -> Option<Vec<Option<NodeId>>> {
    let n = graph.node_count();
    if root.index() >= n {
        return None;
    }
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    let mut visited = vec![false; n];
    let mut queue = VecDeque::new();
    visited[root.index()] = true;
    queue.push_back(root);
    while let Some(u) = queue.pop_front() {
        for &v in graph.neighbors_slice(u) {
            if !visited[v.index()] {
                visited[v.index()] = true;
                parent[v.index()] = Some(u);
                queue.push_back(v);
            }
        }
    }
    visited.iter().all(|&b| b).then_some(parent)
}

/// BFS spanning tree rooted at `root`: [`bfs_parents`] as a
/// [`RootedTree`].
///
/// Returns `None` if the graph is disconnected (a spanning tree does not
/// exist) or `root` is out of range.
pub fn bfs_spanning_tree(graph: &Graph, root: NodeId) -> Option<RootedTree> {
    RootedTree::from_parents(root, bfs_parents(graph, root)?).ok()
}

/// An Euler tour (closed walk traversing every tree edge exactly twice) of
/// a rooted tree, as the sequence of visited nodes starting and ending at
/// the root.
///
/// The tour has exactly `2·(n-1) + 1` entries for a tree on `n ≥ 1` nodes.
/// This is the walk the paper's centralized strategy (Theorem 6.3 /
/// Appendix D) uses to build a *virtual ring* with `|V'| ≤ 2·|V|` on which
/// `CutInHalf` is executed.
pub fn euler_tour(tree: &RootedTree) -> Vec<NodeId> {
    fn visit(tree: &RootedTree, u: NodeId, out: &mut Vec<NodeId>) {
        out.push(u);
        for &c in tree.children(u) {
            visit(tree, c, out);
            out.push(u);
        }
    }
    let mut out = Vec::with_capacity(2 * tree.node_count());
    visit(tree, tree.root(), &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn nid(i: usize) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn distances_on_a_line() {
        let g = generators::line(5);
        let d = bfs_distances(&g, nid(0));
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
        assert_eq!(distance(&g, nid(0), nid(4)), Some(4));
        assert_eq!(eccentricity(&g, nid(2)), Some(2));
        assert_eq!(diameter(&g), Some(4));
    }

    #[test]
    fn disconnected_graphs_report_none() {
        let g = Graph::from_edges(4, vec![(nid(0), nid(1))]).unwrap();
        assert!(!is_connected(&g));
        assert_eq!(diameter(&g), None);
        assert_eq!(eccentricity(&g, nid(0)), None);
        assert_eq!(distance(&g, nid(0), nid(3)), None);
    }

    #[test]
    fn ring_diameter_is_half() {
        let g = generators::ring(10);
        assert_eq!(diameter(&g), Some(5));
        assert!(is_connected(&g));
    }

    #[test]
    fn spanning_tree_covers_all_nodes() {
        let g = generators::ring(8);
        let t = bfs_spanning_tree(&g, nid(3)).expect("ring is connected");
        assert_eq!(t.node_count(), 8);
        assert_eq!(t.root(), nid(3));
        // A spanning tree of a connected graph on n nodes has n-1 edges.
        assert_eq!(t.edge_count(), 7);
        // Every non-root node has a parent that is adjacent in the graph.
        for u in g.nodes() {
            if u != t.root() {
                let p = t.parent(u).unwrap();
                assert!(g.has_edge(u, p));
            }
        }
        // The tree is `bfs_parents` wrapped.
        let parents = bfs_parents(&g, nid(3)).expect("ring is connected");
        assert!(g.nodes().all(|u| parents[u.index()] == t.parent(u)));
    }

    #[test]
    fn spanning_tree_of_disconnected_graph_is_none() {
        let g = Graph::from_edges(4, vec![(nid(0), nid(1))]).unwrap();
        assert!(bfs_spanning_tree(&g, nid(0)).is_none());
        assert!(bfs_parents(&g, nid(0)).is_none());
        assert!(
            bfs_parents(&generators::line(4), nid(4)).is_none(),
            "root out of range"
        );
    }

    #[test]
    fn euler_tour_length_and_coverage() {
        let g = generators::line(6);
        let t = bfs_spanning_tree(&g, nid(0)).unwrap();
        let tour = euler_tour(&t);
        assert_eq!(tour.len(), 2 * (6 - 1) + 1);
        assert_eq!(tour.first(), Some(&nid(0)));
        assert_eq!(tour.last(), Some(&nid(0)));
    }

    #[test]
    fn euler_tour_consecutive_entries_are_tree_edges() {
        let g = generators::random_connected(40, 0.1, 7);
        let t = bfs_spanning_tree(&g, nid(0)).unwrap();
        let tree_graph = t.to_graph();
        let tour = euler_tour(&t);
        for w in tour.windows(2) {
            assert!(tree_graph.has_edge(w[0], w[1]));
        }
    }

    #[test]
    fn single_node_graph() {
        let g = Graph::new(1);
        assert!(is_connected(&g));
        assert_eq!(diameter(&g), Some(0));
        let t = bfs_spanning_tree(&g, nid(0)).unwrap();
        assert_eq!(euler_tour(&t), vec![nid(0)]);
    }
}
