//! UID namespaces and assignments.
//!
//! Every node starts with a unique identifier drawn from a namespace `U`
//! (Section 2.1). Algorithms are comparison based, so only the relative
//! order of UIDs matters; the assignments below control that order, which
//! is exactly what the lower-bound constructions of Section 6 manipulate
//! (the *increasing order ring*, Definition D.8).

use crate::rng::DetRng;
use crate::{NodeId, Uid};

/// How UIDs are assigned to the nodes `0..n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UidAssignment {
    /// Node `i` receives UID `i + 1` (so the maximum-UID node is `n - 1`).
    /// On `ring(n)` this is the increasing-order ring of Definition D.8:
    /// node 0 gets the smallest UID and UIDs increase around the ring, the
    /// input the lower-bound experiments of Section 6 require.
    Sequential,
    /// Node `i` receives UID `n - i` (so the maximum-UID node is `0`).
    Reversed,
    /// UIDs `1..=n` are assigned by a seeded random permutation.
    RandomPermutation {
        /// RNG seed for reproducibility.
        seed: u64,
    },
}

/// A concrete UID assignment for `n` nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UidMap {
    uids: Vec<Uid>,
}

impl UidMap {
    /// Builds a UID map for `n` nodes according to `assignment`.
    pub fn new(n: usize, assignment: UidAssignment) -> Self {
        let uids = match assignment {
            UidAssignment::Sequential => (0..n).map(|i| Uid(i as u64 + 1)).collect(),
            UidAssignment::Reversed => (0..n).map(|i| Uid((n - i) as u64)).collect(),
            UidAssignment::RandomPermutation { seed } => {
                let mut values: Vec<u64> = (1..=n as u64).collect();
                let mut rng = DetRng::seed_from_u64(seed);
                rng.shuffle(&mut values);
                values.into_iter().map(Uid).collect()
            }
        };
        UidMap { uids }
    }

    /// Builds a UID map directly from explicit values.
    ///
    /// # Panics
    ///
    /// Panics if the values are not pairwise distinct.
    pub fn from_values(values: Vec<u64>) -> Self {
        let mut sorted = values.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), values.len(), "UIDs must be unique");
        UidMap {
            uids: values.into_iter().map(Uid).collect(),
        }
    }

    /// Number of nodes covered by the map.
    pub fn len(&self) -> usize {
        self.uids.len()
    }

    /// Returns true if the map covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.uids.is_empty()
    }

    /// UID of node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn uid(&self, u: NodeId) -> Uid {
        self.uids[u.index()]
    }

    /// The node holding the maximum UID (the node the paper calls
    /// `u_max`), or `None` for an empty map.
    pub fn max_uid_node(&self) -> Option<NodeId> {
        self.uids
            .iter()
            .enumerate()
            .max_by_key(|(_, uid)| **uid)
            .map(|(i, _)| NodeId(i))
    }

    /// The node holding the minimum UID, or `None` for an empty map.
    pub fn min_uid_node(&self) -> Option<NodeId> {
        self.uids
            .iter()
            .enumerate()
            .min_by_key(|(_, uid)| **uid)
            .map(|(i, _)| NodeId(i))
    }

    /// Iterator over `(node, uid)` pairs in node order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, Uid)> + '_ {
        self.uids.iter().enumerate().map(|(i, &u)| (NodeId(i), u))
    }

    /// The underlying UID vector, indexed by node.
    pub fn as_slice(&self) -> &[Uid] {
        &self.uids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_assignment() {
        let m = UidMap::new(5, UidAssignment::Sequential);
        assert_eq!(m.len(), 5);
        assert!(!m.is_empty());
        assert_eq!(m.uid(NodeId(0)), Uid(1));
        assert_eq!(m.uid(NodeId(4)), Uid(5));
        assert_eq!(m.max_uid_node(), Some(NodeId(4)));
        assert_eq!(m.min_uid_node(), Some(NodeId(0)));
    }

    #[test]
    fn reversed_assignment() {
        let m = UidMap::new(4, UidAssignment::Reversed);
        assert_eq!(m.uid(NodeId(0)), Uid(4));
        assert_eq!(m.max_uid_node(), Some(NodeId(0)));
    }

    #[test]
    fn random_permutation_is_deterministic_and_bijective() {
        let a = UidMap::new(50, UidAssignment::RandomPermutation { seed: 9 });
        let b = UidMap::new(50, UidAssignment::RandomPermutation { seed: 9 });
        assert_eq!(a, b);
        let c = UidMap::new(50, UidAssignment::RandomPermutation { seed: 10 });
        assert_ne!(a, c);
        let mut values: Vec<u64> = a.as_slice().iter().map(|u| u.value()).collect();
        values.sort_unstable();
        assert_eq!(values, (1..=50).collect::<Vec<_>>());
    }

    #[test]
    fn from_values_and_iter() {
        let m = UidMap::from_values(vec![10, 3, 77]);
        let pairs: Vec<_> = m.iter().collect();
        assert_eq!(pairs[0], (NodeId(0), Uid(10)));
        assert_eq!(m.max_uid_node(), Some(NodeId(2)));
        assert_eq!(m.min_uid_node(), Some(NodeId(1)));
    }

    #[test]
    #[should_panic(expected = "unique")]
    fn from_values_rejects_duplicates() {
        let _ = UidMap::from_values(vec![1, 2, 2]);
    }

    #[test]
    fn empty_map() {
        let m = UidMap::new(0, UidAssignment::Sequential);
        assert!(m.is_empty());
        assert_eq!(m.max_uid_node(), None);
        assert_eq!(m.min_uid_node(), None);
    }
}
