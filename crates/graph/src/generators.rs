//! Generators for the initial-network and target-network families used in
//! the paper and its reproduction experiments.
//!
//! All random generators are deterministic given a seed (they use the
//! crate's own [`DetRng`]), so every experiment in this repository is
//! reproducible.

use crate::rng::DetRng;
use crate::{Graph, NodeId};

fn nid(i: usize) -> NodeId {
    NodeId(i)
}

/// Spanning line (path) `v0 - v1 - … - v{n-1}`.
///
/// The paper's canonical worst case: diameter `n - 1`.
pub fn line(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for i in 1..n {
        g.add_edge(nid(i - 1), nid(i)).expect("valid line edge");
    }
    g
}

/// Ring (cycle) on `n` nodes. For `n < 3` this degenerates to a line.
pub fn ring(n: usize) -> Graph {
    let mut g = line(n);
    if n >= 3 {
        g.add_edge(nid(n - 1), nid(0)).expect("valid closing edge");
    }
    g
}

/// Spanning star centred at node `0` (the target family of `GraphToStar`,
/// i.e. a Depth-1 tree).
pub fn star(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for i in 1..n {
        g.add_edge(nid(0), nid(i)).expect("valid star edge");
    }
    g
}

/// Complete graph `K_n` (the result of the clique-formation baseline).
pub fn complete(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            g.add_edge(nid(i), nid(j)).expect("valid clique edge");
        }
    }
    g
}

/// Complete binary tree on `n` nodes in heap order (node `i` has children
/// `2i+1` and `2i+2`), rooted at node `0`.
pub fn complete_binary_tree(n: usize) -> Graph {
    complete_kary_tree(n, 2)
}

/// Complete `k`-ary tree on `n` nodes in heap order, rooted at node `0`.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn complete_kary_tree(n: usize, k: usize) -> Graph {
    assert!(k >= 1, "arity must be at least 1");
    let mut g = Graph::new(n);
    for i in 1..n {
        let parent = (i - 1) / k;
        g.add_edge(nid(parent), nid(i)).expect("valid tree edge");
    }
    g
}

/// 2-dimensional grid graph with `rows × cols` nodes (row-major indexing).
pub fn grid(rows: usize, cols: usize) -> Graph {
    let n = rows * cols;
    let mut g = Graph::new(n);
    for r in 0..rows {
        for c in 0..cols {
            let i = r * cols + c;
            if c + 1 < cols {
                g.add_edge(nid(i), nid(i + 1)).expect("valid grid edge");
            }
            if r + 1 < rows {
                g.add_edge(nid(i), nid(i + cols)).expect("valid grid edge");
            }
        }
    }
    g
}

/// `d`-dimensional hypercube on `2^d` nodes.
pub fn hypercube(d: u32) -> Graph {
    let n = 1usize << d;
    let mut g = Graph::new(n);
    for i in 0..n {
        for bit in 0..d {
            let j = i ^ (1usize << bit);
            if j > i {
                g.add_edge(nid(i), nid(j)).expect("valid hypercube edge");
            }
        }
    }
    g
}

/// Caterpillar: a spine line on `spine` nodes, each spine node carrying
/// `legs` pendant leaves. Total node count `spine * (1 + legs)`.
pub fn caterpillar(spine: usize, legs: usize) -> Graph {
    let n = spine * (1 + legs);
    let mut g = Graph::new(n);
    for i in 1..spine {
        g.add_edge(nid(i - 1), nid(i)).expect("valid spine edge");
    }
    for s in 0..spine {
        for l in 0..legs {
            let leaf = spine + s * legs + l;
            g.add_edge(nid(s), nid(leaf)).expect("valid leg edge");
        }
    }
    g
}

/// Lollipop: a clique on `clique` nodes attached to a path on `tail` nodes.
/// Total node count `clique + tail`.
pub fn lollipop(clique: usize, tail: usize) -> Graph {
    let n = clique + tail;
    let mut g = Graph::new(n);
    for i in 0..clique {
        for j in (i + 1)..clique {
            g.add_edge(nid(i), nid(j)).expect("valid clique edge");
        }
    }
    for i in 0..tail {
        let prev = if i == 0 {
            clique.saturating_sub(1)
        } else {
            clique + i - 1
        };
        if n > 1 {
            g.add_edge(nid(prev), nid(clique + i))
                .expect("valid tail edge");
        }
    }
    g
}

/// Uniform random recursive tree on `n` nodes: node `i` attaches to a
/// uniformly random earlier node. Expected depth Θ(log n), unbounded degree.
pub fn random_tree(n: usize, seed: u64) -> Graph {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut g = Graph::new(n);
    for i in 1..n {
        let parent = rng.gen_range(0, i);
        g.add_edge(nid(parent), nid(i)).expect("valid tree edge");
    }
    g
}

/// Random tree with maximum degree `max_degree` (≥ 2): node `i` attaches to
/// a random earlier node that still has spare degree. Used for the
/// bounded-degree workloads of `GraphToWreath`.
///
/// # Panics
///
/// Panics if `max_degree < 2` and `n > 2`.
pub fn random_bounded_degree_tree(n: usize, max_degree: usize, seed: u64) -> Graph {
    if n > 2 {
        assert!(max_degree >= 2, "need max_degree >= 2 to span {n} nodes");
    }
    let mut rng = DetRng::seed_from_u64(seed);
    let mut g = Graph::new(n);
    let mut available: Vec<usize> = if n > 0 { vec![0] } else { vec![] };
    for i in 1..n {
        let idx = rng.gen_range(0, available.len());
        let parent = available[idx];
        g.add_edge(nid(parent), nid(i)).expect("valid tree edge");
        if g.degree(nid(parent)) >= max_degree {
            available.swap_remove(idx);
        }
        if max_degree > 1 {
            available.push(i);
        }
    }
    g
}

/// Random spanning-line-plus-chords graph: a Hamiltonian path through a
/// random permutation of the nodes plus `extra_edges` random chords.
/// Connected by construction and close to the paper's hard instances when
/// `extra_edges` is small.
pub fn random_line_with_chords(n: usize, extra_edges: usize, seed: u64) -> Graph {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut perm: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut perm);
    let mut g = Graph::new(n);
    for w in perm.windows(2) {
        g.add_edge(nid(w[0]), nid(w[1])).expect("valid path edge");
    }
    let mut added = 0usize;
    let mut attempts = 0usize;
    while added < extra_edges && attempts < 20 * (extra_edges + 1) && n >= 2 {
        attempts += 1;
        let u = rng.gen_range(0, n);
        let v = rng.gen_range(0, n);
        if u != v && !g.has_edge(nid(u), nid(v)) {
            g.add_edge(nid(u), nid(v)).expect("valid chord");
            added += 1;
        }
    }
    g
}

/// Connected Erdős–Rényi graph: `G(n, p)` conditioned on connectivity by
/// overlaying a uniform random recursive tree (so the result is always
/// connected, and for moderate `p` is statistically close to `G(n, p)`).
pub fn random_connected(n: usize, p: f64, seed: u64) -> Graph {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut g = random_tree(n, seed.wrapping_add(0x9E3779B97F4A7C15));
    for i in 0..n {
        for j in (i + 1)..n {
            if !g.has_edge(nid(i), nid(j)) && rng.gen_bool(p) {
                g.add_edge(nid(i), nid(j)).expect("valid random edge");
            }
        }
    }
    g
}

/// Binomial ("Bernoulli") graph restricted to bounded degree: starts from a
/// ring (degree 2) and adds random chords only between nodes whose degree
/// is still below `max_degree`.
pub fn random_bounded_degree_connected(
    n: usize,
    max_degree: usize,
    extra_edges: usize,
    seed: u64,
) -> Graph {
    assert!(max_degree >= 2, "need max_degree >= 2");
    let mut rng = DetRng::seed_from_u64(seed);
    let mut g = if n >= 3 { ring(n) } else { line(n) };
    let mut added = 0usize;
    let mut attempts = 0usize;
    while added < extra_edges && attempts < 50 * (extra_edges + 1) && n >= 2 {
        attempts += 1;
        let u = rng.gen_range(0, n);
        let v = rng.gen_range(0, n);
        if u != v
            && !g.has_edge(nid(u), nid(v))
            && g.degree(nid(u)) < max_degree
            && g.degree(nid(v)) < max_degree
        {
            g.add_edge(nid(u), nid(v)).expect("valid chord");
            added += 1;
        }
    }
    g
}

/// Barbell graph: two cliques of size `k` connected by a path of `bridge`
/// nodes. A classic high-diameter, locally-dense instance.
pub fn barbell(k: usize, bridge: usize) -> Graph {
    let n = 2 * k + bridge;
    let mut g = Graph::new(n);
    for i in 0..k {
        for j in (i + 1)..k {
            g.add_edge(nid(i), nid(j)).expect("valid clique edge");
        }
    }
    let offset = k + bridge;
    for i in 0..k {
        for j in (i + 1)..k {
            g.add_edge(nid(offset + i), nid(offset + j))
                .expect("valid clique edge");
        }
    }
    // Path connecting the two cliques.
    let mut prev = if k > 0 { k - 1 } else { 0 };
    for b in 0..bridge {
        g.add_edge(nid(prev), nid(k + b))
            .expect("valid bridge edge");
        prev = k + b;
    }
    if k > 0 && n > k {
        g.add_edge(nid(prev), nid(offset))
            .expect("valid bridge edge");
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::{diameter, is_connected};
    use crate::RootedTree;

    #[test]
    fn line_and_ring_shapes() {
        let l = line(6);
        assert_eq!(l.edge_count(), 5);
        assert_eq!(l.max_degree(), 2);
        let r = ring(6);
        assert_eq!(r.edge_count(), 6);
        assert_eq!(r.max_degree(), 2);
        assert_eq!(diameter(&r), Some(3));
        // Degenerate sizes.
        assert_eq!(ring(2).edge_count(), 1);
        assert_eq!(line(1).edge_count(), 0);
        assert_eq!(line(0).edge_count(), 0);
    }

    #[test]
    fn star_and_complete_shapes() {
        let s = star(9);
        assert_eq!(s.edge_count(), 8);
        assert_eq!(s.degree(NodeId(0)), 8);
        assert_eq!(diameter(&s), Some(2));
        let k = complete(5);
        assert_eq!(k.edge_count(), 10);
        assert_eq!(diameter(&k), Some(1));
    }

    #[test]
    fn complete_binary_tree_shape() {
        let t = complete_binary_tree(15);
        assert_eq!(t.edge_count(), 14);
        assert!(t.max_degree() <= 3);
        let rooted = RootedTree::from_tree_graph(&t, NodeId(0)).unwrap();
        assert_eq!(rooted.depth(), 3);
    }

    #[test]
    fn grid_and_hypercube() {
        let g = grid(4, 5);
        assert_eq!(g.node_count(), 20);
        assert_eq!(g.edge_count(), 4 * 4 + 5 * 3);
        assert_eq!(diameter(&g), Some(7));
        let h = hypercube(4);
        assert_eq!(h.node_count(), 16);
        assert_eq!(h.edge_count(), 32);
        assert_eq!(diameter(&h), Some(4));
    }

    #[test]
    fn caterpillar_and_lollipop_and_barbell_connected() {
        assert!(is_connected(&caterpillar(5, 3)));
        assert!(is_connected(&lollipop(5, 6)));
        let b = barbell(4, 3);
        assert!(is_connected(&b));
        assert_eq!(b.node_count(), 11);
    }

    #[test]
    fn random_trees_are_trees_and_deterministic() {
        let t1 = random_tree(50, 42);
        let t2 = random_tree(50, 42);
        assert_eq!(t1, t2, "same seed, same tree");
        assert_eq!(t1.edge_count(), 49);
        assert!(is_connected(&t1));
        let t3 = random_tree(50, 43);
        assert_ne!(t1, t3, "different seed should (a.s.) differ");
    }

    #[test]
    fn bounded_degree_tree_respects_bound() {
        for seed in 0..5 {
            let t = random_bounded_degree_tree(80, 3, seed);
            assert_eq!(t.edge_count(), 79);
            assert!(is_connected(&t));
            assert!(t.max_degree() <= 3);
        }
    }

    #[test]
    fn random_connected_is_connected() {
        for seed in 0..3 {
            let g = random_connected(60, 0.05, seed);
            assert!(is_connected(&g));
        }
    }

    #[test]
    fn random_line_with_chords_is_connected() {
        let g = random_line_with_chords(64, 10, 3);
        assert!(is_connected(&g));
        assert!(g.edge_count() >= 63);
    }

    #[test]
    fn bounded_degree_connected_respects_bound() {
        let g = random_bounded_degree_connected(64, 4, 40, 11);
        assert!(is_connected(&g));
        assert!(g.max_degree() <= 4);
    }
}
