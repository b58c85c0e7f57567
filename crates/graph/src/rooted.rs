//! Rooted, oriented trees.
//!
//! The paper's subroutines (`TreeToStar`, `LineToCompleteBinaryTree`)
//! assume nodes have a *sense of orientation*: every node can distinguish
//! its parent from its children. [`RootedTree`] is that oriented view.

use crate::{Graph, GraphError, NodeId};
use std::collections::VecDeque;

/// A rooted tree over the vertex set `0..n`, stored as a parent map plus
/// derived children lists and depths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RootedTree {
    root: NodeId,
    parent: Vec<Option<NodeId>>,
    children: Vec<Vec<NodeId>>,
    depth: Vec<usize>,
}

impl RootedTree {
    /// Builds a rooted tree from a parent map (`parent[root] == None`).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NotATree`] if the parent map does not describe
    /// a tree rooted at `root` spanning all `n` nodes (cycles, multiple
    /// roots, unreachable nodes, out-of-range parents).
    pub fn from_parents(root: NodeId, parent: Vec<Option<NodeId>>) -> Result<Self, GraphError> {
        let n = parent.len();
        if root.index() >= n {
            return Err(GraphError::NotATree {
                reason: format!("root {root} out of range for {n} nodes"),
            });
        }
        if parent[root.index()].is_some() {
            return Err(GraphError::NotATree {
                reason: "root must not have a parent".into(),
            });
        }
        for (i, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                if p.index() >= n {
                    return Err(GraphError::NotATree {
                        reason: format!("parent of v{i} out of range"),
                    });
                }
                if p.index() == i {
                    return Err(GraphError::NotATree {
                        reason: format!("v{i} is its own parent"),
                    });
                }
            } else if i != root.index() {
                return Err(GraphError::NotATree {
                    reason: format!("non-root v{i} has no parent"),
                });
            }
        }
        // The scan visits children in ascending id order, so every
        // children list comes out sorted without a sort.
        let mut children = vec![Vec::new(); n];
        for (i, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                children[p.index()].push(NodeId(i));
            }
        }
        // BFS from the root to compute depths and detect unreachable nodes
        // (which would indicate a cycle among non-root nodes).
        let mut depth = vec![usize::MAX; n];
        let mut queue = VecDeque::new();
        depth[root.index()] = 0;
        queue.push_back(root);
        let mut visited = 1usize;
        while let Some(u) = queue.pop_front() {
            for &c in &children[u.index()] {
                if depth[c.index()] != usize::MAX {
                    return Err(GraphError::NotATree {
                        reason: format!("node {c} reached twice (cycle)"),
                    });
                }
                depth[c.index()] = depth[u.index()] + 1;
                visited += 1;
                queue.push_back(c);
            }
        }
        if visited != n {
            return Err(GraphError::NotATree {
                reason: "cycle detected: some nodes are unreachable from the root".into(),
            });
        }
        Ok(RootedTree {
            root,
            parent,
            children,
            depth,
        })
    }

    /// Roots an undirected tree/connected graph at `root` using BFS
    /// (shortest-path parents).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NotATree`] if `graph` is not a connected tree
    /// (i.e. `m != n - 1` or disconnected).
    pub fn from_tree_graph(graph: &Graph, root: NodeId) -> Result<Self, GraphError> {
        let n = graph.node_count();
        if n == 0 {
            return Err(GraphError::NotATree {
                reason: "empty graph".into(),
            });
        }
        if graph.edge_count() != n - 1 {
            return Err(GraphError::NotATree {
                reason: format!(
                    "a tree on {n} nodes must have {} edges, found {}",
                    n - 1,
                    graph.edge_count()
                ),
            });
        }
        let mut parent = vec![None; n];
        let mut visited = vec![false; n];
        let mut queue = VecDeque::new();
        visited[root.index()] = true;
        queue.push_back(root);
        while let Some(u) = queue.pop_front() {
            for v in graph.neighbors(u) {
                if !visited[v.index()] {
                    visited[v.index()] = true;
                    parent[v.index()] = Some(u);
                    queue.push_back(v);
                }
            }
        }
        if !visited.iter().all(|&b| b) {
            return Err(GraphError::NotATree {
                reason: "graph is disconnected".into(),
            });
        }
        RootedTree::from_parents(root, parent)
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.parent.len()
    }

    /// Number of edges (`n - 1`).
    pub fn edge_count(&self) -> usize {
        self.node_count().saturating_sub(1)
    }

    /// Parent of `u`, or `None` for the root.
    pub fn parent(&self, u: NodeId) -> Option<NodeId> {
        self.parent[u.index()]
    }

    /// Grandparent of `u`, if it exists.
    pub fn grandparent(&self, u: NodeId) -> Option<NodeId> {
        self.parent(u).and_then(|p| self.parent(p))
    }

    /// Children of `u`, in ascending order.
    pub fn children(&self, u: NodeId) -> &[NodeId] {
        &self.children[u.index()]
    }

    /// Number of children of `u`.
    pub fn child_count(&self, u: NodeId) -> usize {
        self.children[u.index()].len()
    }

    /// Depth of the tree: maximum node depth.
    pub fn depth(&self) -> usize {
        self.depth.iter().copied().max().unwrap_or(0)
    }

    /// Maximum number of tree edges incident to any node
    /// (children + parent).
    pub fn max_degree(&self) -> usize {
        (0..self.node_count())
            .map(|i| self.children[i].len() + usize::from(self.parent[i].is_some()))
            .max()
            .unwrap_or(0)
    }

    /// Converts the rooted tree into its underlying undirected [`Graph`].
    pub fn to_graph(&self) -> Graph {
        let mut g = Graph::new(self.node_count());
        for (i, p) in self.parent.iter().enumerate() {
            if let Some(p) = p {
                g.add_edge(NodeId(i), *p).expect("tree edges are valid");
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn nid(i: usize) -> NodeId {
        NodeId(i)
    }

    fn sample_tree() -> RootedTree {
        // 0 is root; 1, 2 children of 0; 3, 4 children of 1; 5 child of 3.
        let parent = vec![
            None,
            Some(nid(0)),
            Some(nid(0)),
            Some(nid(1)),
            Some(nid(1)),
            Some(nid(3)),
        ];
        RootedTree::from_parents(nid(0), parent).unwrap()
    }

    #[test]
    fn basic_accessors() {
        let t = sample_tree();
        assert_eq!(t.root(), nid(0));
        assert_eq!(t.node_count(), 6);
        assert_eq!(t.edge_count(), 5);
        assert_eq!(t.parent(nid(3)), Some(nid(1)));
        assert_eq!(t.grandparent(nid(3)), Some(nid(0)));
        assert_eq!(t.grandparent(nid(1)), None);
        assert_eq!(t.children(nid(1)), &[nid(3), nid(4)]);
        assert_eq!(t.child_count(nid(0)), 2);
        assert_eq!(t.depth(), 3);
        assert_eq!(t.max_degree(), 3);
    }

    #[test]
    fn to_graph_roundtrip() {
        let t = sample_tree();
        let g = t.to_graph();
        assert_eq!(g.edge_count(), 5);
        let t2 = RootedTree::from_tree_graph(&g, nid(0)).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn rejects_invalid_parent_maps() {
        // Root with a parent.
        assert!(RootedTree::from_parents(nid(0), vec![Some(nid(1)), None]).is_err());
        // Non-root without a parent.
        assert!(RootedTree::from_parents(nid(0), vec![None, None]).is_err());
        // Self-parent.
        assert!(RootedTree::from_parents(nid(0), vec![None, Some(nid(1))]).is_err());
        // Cycle among non-root nodes: 1 -> 2 -> 1 unreachable from root 0.
        assert!(RootedTree::from_parents(nid(0), vec![None, Some(nid(2)), Some(nid(1))]).is_err());
        // Out-of-range root.
        assert!(RootedTree::from_parents(nid(5), vec![None]).is_err());
        // Out-of-range parent.
        assert!(RootedTree::from_parents(nid(0), vec![None, Some(nid(9))]).is_err());
    }

    #[test]
    fn from_tree_graph_rejects_non_trees() {
        let ring = generators::ring(4);
        assert!(RootedTree::from_tree_graph(&ring, nid(0)).is_err());
        let mut disconnected = Graph::new(4);
        disconnected.add_edge(nid(0), nid(1)).unwrap();
        disconnected.add_edge(nid(2), nid(3)).unwrap();
        // 3 edges required for a tree on 4 nodes, only 2 present.
        assert!(RootedTree::from_tree_graph(&disconnected, nid(0)).is_err());
    }

    #[test]
    fn line_rooted_at_endpoint_has_depth_n_minus_1() {
        let g = generators::line(7);
        let t = RootedTree::from_tree_graph(&g, nid(0)).unwrap();
        assert_eq!(t.depth(), 6);
        assert_eq!(t.max_degree(), 2);
    }
}
