//! Bit-row copies of a graph snapshot.
//!
//! The clique-formation baseline needs every node's potential neighbours
//! (`N_2`) in every round, and a witness for each activation it stages.
//! On a bit-row copy both are word operations: `N_2(u)` is the OR of the
//! rows of `u`'s neighbours with `row(u)` and `u` masked out, `deg(u)·n/64`
//! words in all, and a witness for `{u, w}` is the lowest set bit of
//! `row(u) AND row(w)`. The sorted adjacency lists of [`Graph`] would pay
//! one bit write per candidate and a merge scan per witness instead.

use crate::{Graph, NodeId};

/// A bit-row copy of a [`Graph`] snapshot: one row of `⌈n/64⌉` words per
/// node, where bit `w` of row `u` is set exactly when `{u, w}` is an edge.
///
/// [`BitRows::fill`] rewrites the copy in place, so one value serves a
/// whole run of snapshots without reallocating once the node count stops
/// growing. The copy does not follow later edits of the graph.
#[derive(Debug, Clone, Default)]
pub struct BitRows {
    n: usize,
    /// Words per row, `⌈n/64⌉`.
    stride: usize,
    /// The rows, node after node.
    bits: Vec<u64>,
}

impl BitRows {
    /// An empty copy (no nodes) that allocates nothing until it is filled.
    pub fn new() -> Self {
        BitRows::default()
    }

    /// Overwrites the copy with the adjacency of `graph`, in
    /// `n·⌈n/64⌉` word writes plus one bit per edge endpoint.
    pub fn fill(&mut self, graph: &Graph) {
        self.n = graph.node_count();
        self.stride = self.n.div_ceil(64);
        self.bits.clear();
        self.bits.resize(self.n * self.stride, 0);
        for u in 0..self.n {
            let row = &mut self.bits[u * self.stride..(u + 1) * self.stride];
            for &w in graph.neighbors_slice(NodeId(u)) {
                row[w.index() / 64] |= 1 << (w.index() % 64);
            }
        }
    }

    /// The adjacency row of `u`: bit `w` is set when `{u, w}` is an edge.
    fn row(&self, u: NodeId) -> &[u64] {
        assert!(u.index() < self.n, "node {u} out of range (n = {})", self.n);
        &self.bits[u.index() * self.stride..(u.index() + 1) * self.stride]
    }

    /// Writes `N_2(u)`, the nodes at distance exactly two from `u` (its
    /// *potential neighbours*), into `out`: the OR of the rows of `u`'s
    /// neighbours, minus `row(u)` and `u` itself. `out` is overwritten, so
    /// one value serves every call. Costs `deg(u)·⌈n/64⌉` word operations.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn distance_two(&self, u: NodeId, out: &mut BitRow) {
        let own = self.row(u);
        let acc = &mut out.words;
        acc.clear();
        acc.resize(self.stride, 0);
        for v in set_bits(own, 0) {
            for (acc, &word) in acc.iter_mut().zip(self.row(v)) {
                *acc |= word;
            }
        }
        for (acc, &word) in acc.iter_mut().zip(own) {
            *acc &= !word;
        }
        acc[u.index() / 64] &= !(1 << (u.index() % 64));
    }

    /// The smallest common neighbour of `u` and `w`, if any: the lowest
    /// set bit of `row(u) AND row(w)`. The same node
    /// [`Graph::common_neighbor`] returns on the copied snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `w` is out of range.
    pub fn common_neighbor(&self, u: NodeId, w: NodeId) -> Option<NodeId> {
        self.row(u)
            .iter()
            .zip(self.row(w))
            .enumerate()
            .find_map(|(i, (a, b))| {
                let both = a & b;
                (both != 0).then(|| NodeId(i * 64 + both.trailing_zeros() as usize))
            })
    }
}

/// A set of nodes held as one bit row, as [`BitRows::distance_two`]
/// writes it.
#[derive(Debug, Clone, Default)]
pub struct BitRow {
    words: Vec<u64>,
}

impl BitRow {
    /// An empty set that allocates nothing until it is written.
    pub fn new() -> Self {
        BitRow::default()
    }

    /// Whether the set has no members.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&word| word == 0)
    }

    /// The members `from` and above, ascending.
    pub fn nodes_from(&self, from: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        set_bits(&self.words, from.index())
    }
}

/// The set bits of `row` at positions `from` and above, ascending, as
/// node ids.
fn set_bits(row: &[u64], from: usize) -> impl Iterator<Item = NodeId> + '_ {
    let first = from / 64;
    row.iter()
        .enumerate()
        .skip(first)
        .flat_map(move |(i, &word)| {
            let mut word = if i == first {
                word & (!0u64 << (from % 64))
            } else {
                word
            };
            std::iter::from_fn(move || {
                (word != 0).then(|| {
                    let bit = word.trailing_zeros() as usize;
                    word &= word - 1;
                    NodeId(i * 64 + bit)
                })
            })
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, GraphFamily};

    fn nid(i: usize) -> NodeId {
        NodeId(i)
    }

    fn distance_two(rows: &BitRows, u: NodeId) -> Vec<NodeId> {
        let mut reach = BitRow::new();
        rows.distance_two(u, &mut reach);
        assert_eq!(reach.words.len(), rows.stride);
        let members: Vec<NodeId> = reach.nodes_from(nid(0)).collect();
        assert_eq!(reach.is_empty(), members.is_empty());
        members
    }

    #[test]
    fn potential_neighbors_are_distance_two() {
        // Path 0 - 1 - 2 - 3
        let g = Graph::from_edges(
            4,
            vec![(nid(0), nid(1)), (nid(1), nid(2)), (nid(2), nid(3))],
        )
        .unwrap();
        let mut rows = BitRows::new();
        rows.fill(&g);
        assert_eq!(distance_two(&rows, nid(0)), vec![nid(2)]);
        assert!(g.at_distance_two(nid(0), nid(2)));
        assert!(!g.at_distance_two(nid(0), nid(3)));
        assert!(!g.at_distance_two(nid(0), nid(1)));
        assert_eq!(rows.common_neighbor(nid(0), nid(2)), Some(nid(1)));
        assert_eq!(rows.common_neighbor(nid(0), nid(3)), None);
    }

    #[test]
    fn potential_neighbors_match_the_distance_two_definition() {
        let mut cases: Vec<(String, Graph)> = vec![
            // Overlapping lists: many duplicates, a block subtracted.
            ("lollipop".into(), generators::lollipop(4, 4)),
            // A centre of degree n - 1 (empty `N_2`) and single-list leaves.
            ("star 200".into(), generators::star(200)),
            // Long sparse rows.
            ("line 4096".into(), generators::line(4096)),
            ("grid 4096".into(), generators::grid(64, 64)),
            // Dense rows.
            (
                "dense_random 128".into(),
                GraphFamily::DenseRandom.generate(128, 7),
            ),
            ("hypercube 128".into(), generators::hypercube(7)),
            ("empty".into(), Graph::new(0)),
            ("isolated 1".into(), Graph::new(1)),
            ("isolated 2".into(), Graph::new(2)),
            ("edge 2".into(), generators::line(2)),
        ];
        // Empty `N_2` everywhere, and rows that end exactly on, one past
        // and one short of a word boundary.
        for n in [63usize, 64, 65, 129] {
            let complete = generators::complete(n);
            let mut unmatched = complete.clone();
            for i in (0..n - 1).step_by(2) {
                unmatched.remove_edge(nid(i), nid(i + 1)).unwrap();
            }
            cases.push((format!("K_{n}"), complete));
            cases.push((format!("K_{n} minus a matching"), unmatched));
        }
        let mut rows = BitRows::new();
        for (label, g) in &cases {
            // One value refilled across snapshots of every size.
            rows.fill(g);
            assert_eq!(rows.bits.len(), g.node_count() * rows.stride, "{label}");
            for u in g.nodes() {
                let neighbors: Vec<NodeId> = set_bits(rows.row(u), 0).collect();
                assert_eq!(neighbors, g.neighbors_slice(u), "{label}: row {u}");
                let got = distance_two(&rows, u);
                let expect: Vec<NodeId> = g.nodes().filter(|&w| g.at_distance_two(u, w)).collect();
                assert_eq!(got, expect, "{label}: node {u}");
            }
        }
    }

    #[test]
    fn common_neighbor_matches_the_merge_scan() {
        let mut rows = BitRows::new();
        for (label, g) in [
            ("lollipop", generators::lollipop(4, 4)),
            ("K_65", generators::complete(65)),
            ("hypercube 128", generators::hypercube(7)),
            (
                "dense_random 130",
                GraphFamily::DenseRandom.generate(130, 3),
            ),
            ("grid 256", generators::grid(16, 16)),
        ] {
            rows.fill(&g);
            for u in g.nodes() {
                for w in g.nodes() {
                    assert_eq!(
                        rows.common_neighbor(u, w),
                        g.common_neighbor(u, w),
                        "{label}: {u}, {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn set_bits_start_at_any_position() {
        let row = [0b1011u64, 0, 1 << 63 | 1];
        let all: Vec<usize> = set_bits(&row, 0).map(NodeId::index).collect();
        assert_eq!(all, vec![0, 1, 3, 128, 191]);
        for from in 0..=192 {
            let tail: Vec<usize> = set_bits(&row, from).map(NodeId::index).collect();
            let expect: Vec<usize> = all.iter().copied().filter(|&b| b >= from).collect();
            assert_eq!(tail, expect, "from {from}");
        }
    }

    #[test]
    fn a_refill_follows_growth_and_shrinkage() {
        let mut rows = BitRows::new();
        assert_eq!((rows.n, rows.stride), (0, 0));
        let mut g = generators::line(70);
        rows.fill(&g);
        assert_eq!(rows.stride, 2);
        let joined = g.add_node();
        g.add_edge(joined, nid(0)).unwrap();
        rows.fill(&g);
        assert_eq!(distance_two(&rows, joined), vec![nid(1)]);
        rows.fill(&generators::line(3));
        assert_eq!(rows.stride, 1);
        assert_eq!(distance_two(&rows, nid(0)), vec![nid(2)]);
        assert_eq!(rows.bits, [0b010, 0b101, 0b010]);
    }
}
