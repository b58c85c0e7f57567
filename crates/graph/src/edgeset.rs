//! A flat, sorted edge set.
//!
//! The wreath engine builds per-phase edge sets (the phase's ring edges,
//! which its clean-up keeps, and the final tree's edges, which
//! termination keeps). These sets are built once and then only probed, so a sorted `Vec<Edge>` with
//! binary-search membership beats a `BTreeSet<Edge>`: construction is one
//! sort over a contiguous buffer, probes are cache-friendly, and iteration
//! is a slice walk — in the same ascending order the `BTreeSet` form used,
//! so deterministic executions are preserved.

use crate::Edge;

/// A sorted, duplicate-free set of [`Edge`]s backed by a flat `Vec`.
///
/// Build it in bulk (`from_vec`, `collect()`, `extend`) and probe it with
/// [`SortedEdgeSet::contains`]; ascending iteration order matches the
/// `BTreeSet<Edge>` representation it replaces.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SortedEdgeSet {
    edges: Vec<Edge>,
}

impl SortedEdgeSet {
    /// The empty set.
    pub fn new() -> Self {
        SortedEdgeSet::default()
    }

    /// Builds the set from an arbitrary vector (one sort + dedup pass).
    pub fn from_vec(mut edges: Vec<Edge>) -> Self {
        edges.sort_unstable();
        edges.dedup();
        SortedEdgeSet { edges }
    }

    /// True if `e` is in the set (binary search).
    pub fn contains(&self, e: &Edge) -> bool {
        self.edges.binary_search(e).is_ok()
    }

    /// Inserts `e`, returning true if it was absent.
    pub fn insert(&mut self, e: Edge) -> bool {
        match self.edges.binary_search(&e) {
            Ok(_) => false,
            Err(pos) => {
                self.edges.insert(pos, e);
                true
            }
        }
    }

    /// Number of edges in the set.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True when the set has no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The edges as a sorted slice.
    pub fn as_slice(&self) -> &[Edge] {
        &self.edges
    }

    /// Iterates the edges in ascending (canonical) order.
    pub fn iter(&self) -> impl Iterator<Item = &Edge> + '_ {
        self.edges.iter()
    }
}

impl FromIterator<Edge> for SortedEdgeSet {
    fn from_iter<I: IntoIterator<Item = Edge>>(iter: I) -> Self {
        SortedEdgeSet::from_vec(iter.into_iter().collect())
    }
}

impl IntoIterator for SortedEdgeSet {
    type Item = Edge;
    type IntoIter = std::vec::IntoIter<Edge>;

    fn into_iter(self) -> Self::IntoIter {
        self.edges.into_iter()
    }
}

impl<'a> IntoIterator for &'a SortedEdgeSet {
    type Item = &'a Edge;
    type IntoIter = std::slice::Iter<'a, Edge>;

    fn into_iter(self) -> Self::IntoIter {
        self.edges.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;

    fn e(a: usize, b: usize) -> Edge {
        Edge::new(NodeId(a), NodeId(b))
    }

    #[test]
    fn construction_sorts_and_dedups() {
        let set = SortedEdgeSet::from_vec(vec![e(3, 1), e(0, 2), e(1, 3), e(0, 1)]);
        assert_eq!(set.len(), 3);
        assert_eq!(set.as_slice(), &[e(0, 1), e(0, 2), e(1, 3)]);
        assert!(set.contains(&e(1, 3)));
        assert!(set.contains(&e(3, 1)), "canonical form is order-free");
        assert!(!set.contains(&e(2, 3)));
    }

    #[test]
    fn matches_btreeset_iteration_order() {
        use std::collections::BTreeSet;
        let edges = vec![e(5, 2), e(1, 9), e(0, 3), e(2, 5), e(4, 8)];
        let reference: BTreeSet<Edge> = edges.iter().copied().collect();
        let flat: SortedEdgeSet = edges.into_iter().collect();
        assert!(flat.iter().copied().eq(reference.iter().copied()));
        assert_eq!(flat.len(), reference.len());
    }

    #[test]
    fn insert_keeps_order_and_reports_novelty() {
        let mut set = SortedEdgeSet::new();
        assert!(set.is_empty());
        assert!(set.insert(e(2, 4)));
        assert!(set.insert(e(0, 1)));
        assert!(!set.insert(e(4, 2)));
        assert_eq!(set.as_slice(), &[e(0, 1), e(2, 4)]);
    }
}
