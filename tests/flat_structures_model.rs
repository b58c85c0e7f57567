//! Differential property suite for the flat data path.
//!
//! The graph core stores adjacency as per-node sorted `Vec<NodeId>` and
//! the network stages rounds as sorted edge columns. These tests pin both
//! against straightforward `BTreeSet`-based reference models — the
//! representation the seed used — under seeded random operation
//! sequences (add_edge / remove_edge / add_node / stage / commit), so any
//! divergence in contents, iteration order, counters or round summaries
//! is caught with the seed that reproduces it.

use actively_dynamic_networks::graph::rng::DetRng;
use actively_dynamic_networks::graph::{generators, Edge, Graph, NodeId};
use actively_dynamic_networks::sim::{Network, WaveActivation};
use std::collections::{BTreeMap, BTreeSet};

/// The old adjacency representation, kept as an executable specification.
struct ModelGraph {
    adjacency: Vec<BTreeSet<NodeId>>,
    edges: BTreeSet<(NodeId, NodeId)>,
}

impl ModelGraph {
    fn new(n: usize) -> Self {
        ModelGraph {
            adjacency: vec![BTreeSet::new(); n],
            edges: BTreeSet::new(),
        }
    }

    fn canon(u: NodeId, v: NodeId) -> (NodeId, NodeId) {
        (u.min(v), u.max(v))
    }

    fn add_node(&mut self) -> NodeId {
        self.adjacency.push(BTreeSet::new());
        NodeId(self.adjacency.len() - 1)
    }

    fn add_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        let inserted = self.adjacency[u.index()].insert(v);
        self.adjacency[v.index()].insert(u);
        if inserted {
            self.edges.insert(Self::canon(u, v));
        }
        inserted
    }

    fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        let removed = self.adjacency[u.index()].remove(&v);
        self.adjacency[v.index()].remove(&u);
        if removed {
            self.edges.remove(&Self::canon(u, v));
        }
        removed
    }

    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.adjacency
            .get(u.index())
            .is_some_and(|a| a.contains(&v))
    }

    fn potential_neighbors(&self, u: NodeId) -> Vec<NodeId> {
        let mut out = BTreeSet::new();
        for &v in &self.adjacency[u.index()] {
            for &w in &self.adjacency[v.index()] {
                if w != u && !self.has_edge(u, w) {
                    out.insert(w);
                }
            }
        }
        out.into_iter().collect()
    }
}

fn assert_same_state(graph: &Graph, model: &ModelGraph, seed: u64, step: usize) {
    let n = model.adjacency.len();
    assert_eq!(graph.node_count(), n, "seed {seed} step {step}: node count");
    assert_eq!(
        graph.edge_count(),
        model.edges.len(),
        "seed {seed} step {step}: edge count"
    );
    assert!(
        graph.check_invariants(),
        "seed {seed} step {step}: invariants"
    );
    for u in (0..n).map(NodeId) {
        let got: Vec<NodeId> = graph.neighbors(u).collect();
        let expect: Vec<NodeId> = model.adjacency[u.index()].iter().copied().collect();
        assert_eq!(
            got, expect,
            "seed {seed} step {step}: neighbours of {u} (order included)"
        );
        assert_eq!(graph.neighbors_slice(u), &expect[..]);
        assert_eq!(graph.degree(u), expect.len());
    }
}

#[test]
fn graph_matches_btreeset_model_under_random_ops() {
    for seed in 0u64..12 {
        let mut rng = DetRng::seed_from_u64(0x9A4F ^ seed.wrapping_mul(0x1234_5679));
        let mut n = 2 + rng.gen_range(0, 14);
        let mut graph = Graph::new(n);
        let mut model = ModelGraph::new(n);
        for step in 0..400 {
            match rng.gen_range(0, 100) {
                // Mostly edge insertions so the graphs stay interesting.
                0..=54 => {
                    let u = NodeId(rng.gen_range(0, n));
                    let v = NodeId(rng.gen_range(0, n));
                    if u == v {
                        assert!(graph.add_edge(u, v).is_err());
                        continue;
                    }
                    assert_eq!(
                        graph.add_edge(u, v).unwrap(),
                        model.add_edge(u, v),
                        "seed {seed} step {step}: add {u}-{v}"
                    );
                }
                55..=84 => {
                    let u = NodeId(rng.gen_range(0, n));
                    let v = NodeId(rng.gen_range(0, n));
                    if u == v {
                        continue;
                    }
                    assert_eq!(
                        graph.remove_edge(u, v).unwrap(),
                        model.remove_edge(u, v),
                        "seed {seed} step {step}: remove {u}-{v}"
                    );
                }
                85..=92 => {
                    assert_eq!(graph.add_node(), model.add_node());
                    n += 1;
                }
                _ => {
                    // Read-path probes: membership, N2, witnesses.
                    let u = NodeId(rng.gen_range(0, n));
                    let v = NodeId(rng.gen_range(0, n));
                    assert_eq!(graph.has_edge(u, v), model.has_edge(u, v));
                    assert_eq!(
                        graph.potential_neighbors(u),
                        model.potential_neighbors(u),
                        "seed {seed} step {step}: N2({u})"
                    );
                    if u != v {
                        assert_eq!(
                            graph.at_distance_two(u, v),
                            !model.has_edge(u, v) && model.potential_neighbors(u).contains(&v)
                        );
                    }
                }
            }
        }
        assert_same_state(&graph, &model, seed, 400);
    }
}

#[test]
fn graph_batch_ops_match_single_edge_model() {
    for seed in 0u64..8 {
        let mut rng = DetRng::seed_from_u64(0xBA7C4 ^ seed.wrapping_mul(31));
        let n = 6 + rng.gen_range(0, 26);
        let mut batched = Graph::new(n);
        let mut singles = Graph::new(n);
        for _round in 0..40 {
            // Draw a set-semantics batch (sorted, deduplicated).
            let mut batch: BTreeSet<Edge> = BTreeSet::new();
            for _ in 0..rng.gen_range(0, 9) {
                let u = rng.gen_range(0, n);
                let mut v = rng.gen_range(0, n - 1);
                if v >= u {
                    v += 1;
                }
                batch.insert(Edge::new(NodeId(u), NodeId(v)));
            }
            let batch: Vec<Edge> = batch.into_iter().collect();
            if rng.gen_bool(0.6) {
                let mut from_batch = Vec::new();
                batched.add_edges_batch(&batch, |e| from_batch.push(e));
                let mut from_singles = Vec::new();
                for e in &batch {
                    if singles.add_edge(e.a, e.b).unwrap() {
                        from_singles.push(*e);
                    }
                }
                assert_eq!(from_batch, from_singles, "seed {seed}: fresh edges");
            } else {
                let mut from_batch = Vec::new();
                batched.remove_edges_batch(&batch, |e| from_batch.push(e));
                let mut from_singles = Vec::new();
                for e in &batch {
                    if singles.remove_edge(e.a, e.b).unwrap() {
                        from_singles.push(*e);
                    }
                }
                assert_eq!(from_batch, from_singles, "seed {seed}: removed edges");
            }
            assert_eq!(batched, singles, "seed {seed}: state diverged");
            assert!(batched.check_invariants());
        }
    }
}

/// Reference model of the network's round staging: `BTreeSet` columns,
/// set-difference activated-edge accounting — the seed's representation.
struct ModelStaging {
    initial: BTreeSet<(NodeId, NodeId)>,
    current: BTreeSet<(NodeId, NodeId)>,
    staged_act: BTreeSet<(NodeId, NodeId)>,
    staged_deact: BTreeSet<(NodeId, NodeId)>,
    staged_by_node: BTreeMap<NodeId, usize>,
    max_node_activations: usize,
    total_activations: usize,
    total_deactivations: usize,
}

impl ModelStaging {
    fn new(initial: &Graph) -> Self {
        let edges: BTreeSet<(NodeId, NodeId)> = initial.edges().map(|e| (e.a, e.b)).collect();
        ModelStaging {
            initial: edges.clone(),
            current: edges,
            staged_act: BTreeSet::new(),
            staged_deact: BTreeSet::new(),
            staged_by_node: BTreeMap::new(),
            max_node_activations: 0,
            total_activations: 0,
            total_deactivations: 0,
        }
    }

    fn canon(u: NodeId, v: NodeId) -> (NodeId, NodeId) {
        (u.min(v), u.max(v))
    }

    fn stage_activation(&mut self, u: NodeId, v: NodeId) -> bool {
        let newly = self.staged_act.insert(Self::canon(u, v));
        if newly {
            *self.staged_by_node.entry(u).or_insert(0) += 1;
        }
        newly
    }

    fn stage_deactivation(&mut self, u: NodeId, v: NodeId) -> bool {
        self.staged_deact.insert(Self::canon(u, v))
    }

    fn commit(&mut self) -> (usize, usize, usize) {
        let conflicted: Vec<_> = self
            .staged_act
            .intersection(&self.staged_deact)
            .copied()
            .collect();
        for e in conflicted {
            self.staged_act.remove(&e);
            self.staged_deact.remove(&e);
        }
        let activations = self.staged_act.len();
        let deactivations = self.staged_deact.len();
        for e in std::mem::take(&mut self.staged_act) {
            self.current.insert(e);
        }
        for e in std::mem::take(&mut self.staged_deact) {
            self.current.remove(&e);
        }
        self.total_activations += activations;
        self.total_deactivations += deactivations;
        self.max_node_activations = self
            .max_node_activations
            .max(self.staged_by_node.values().copied().max().unwrap_or(0));
        self.staged_by_node.clear();
        let activated_now = self.current.difference(&self.initial).count();
        (activations, deactivations, activated_now)
    }

    fn activated_degree(&self, u: NodeId) -> usize {
        self.current
            .difference(&self.initial)
            .filter(|&&(a, b)| a == u || b == u)
            .count()
    }
}

#[test]
fn network_staging_matches_btreeset_model_under_random_ops() {
    for seed in 0u64..10 {
        let mut rng = DetRng::seed_from_u64(0x57A6E ^ seed.wrapping_mul(97));
        let n = 8 + rng.gen_range(0, 17);
        let initial = generators::random_line_with_chords(n, n / 2, seed);
        let mut net = Network::new(initial.clone());
        let mut model = ModelStaging::new(&initial);
        for round in 0..60 {
            for _ in 0..rng.gen_range(0, 7) {
                let u = NodeId(rng.gen_range(0, n));
                let v = NodeId(rng.gen_range(0, n));
                if u == v {
                    continue;
                }
                if rng.gen_bool(0.65) {
                    // The network validates distance-2; mirror only the
                    // stages it accepts.
                    if let Ok(newly) = net.stage_activation(u, v) {
                        if net.graph().has_edge(u, v) {
                            assert!(!newly, "active edge stages are no-ops");
                        } else {
                            assert_eq!(
                                newly,
                                model.stage_activation(u, v),
                                "seed {seed} round {round}: stage {u}-{v}"
                            );
                        }
                    }
                } else if net.graph().has_edge(u, v) {
                    assert_eq!(
                        net.stage_deactivation(u, v).unwrap(),
                        model.stage_deactivation(u, v),
                        "seed {seed} round {round}: unstage {u}-{v}"
                    );
                }
            }
            let summary = net.commit_round();
            let (activations, deactivations, activated_now) = model.commit();
            assert_eq!(
                summary.activations, activations,
                "seed {seed} round {round}"
            );
            assert_eq!(
                summary.deactivations, deactivations,
                "seed {seed} round {round}"
            );
            assert_eq!(
                summary.activated_edges_now, activated_now,
                "seed {seed} round {round}"
            );
            assert_eq!(net.activated_edge_count(), activated_now);
            let current_edges: BTreeSet<(NodeId, NodeId)> =
                net.graph().edges().map(|e| (e.a, e.b)).collect();
            assert_eq!(
                current_edges, model.current,
                "seed {seed} round {round}: snapshot edge set"
            );
            for u in (0..n).map(NodeId) {
                assert_eq!(
                    net.activated_degree(u),
                    model.activated_degree(u),
                    "seed {seed} round {round}: activated degree of {u}"
                );
            }
        }
        assert_eq!(net.metrics().total_activations, model.total_activations);
        assert_eq!(net.metrics().total_deactivations, model.total_deactivations);
        assert_eq!(
            net.metrics().max_node_activations_in_round,
            model.max_node_activations
        );
        assert!(net.graph().check_invariants());
    }
}

/// Arena-stressing differential: hub-heavy seeded op sequences that force
/// block overflow relocations and periodic compactions (the small random
/// graphs above rarely cross the dead-slot threshold), interleaved with
/// crash severs (`remove_incident_edges`), churn `add_node` and batch
/// edits — all pinned against the `BTreeSet` reference.
#[test]
fn arena_relocation_and_compaction_match_model_under_churn() {
    for seed in 0u64..8 {
        let mut rng = DetRng::seed_from_u64(0xC0FFEE ^ seed.wrapping_mul(0x5851_F42D));
        let mut n = 48 + rng.gen_range(0, 32);
        let mut graph = Graph::new(n);
        let mut model = ModelGraph::new(n);
        // A handful of hub nodes receive most insertions, so their blocks
        // overflow repeatedly and strand dead capacity behind them.
        let hubs: Vec<usize> = (0..4).map(|_| rng.gen_range(0, n)).collect();
        let mut compactions_seen = 0usize;
        let mut last_dead = graph.dead_slots();
        for step in 0..1200 {
            match rng.gen_range(0, 100) {
                0..=59 => {
                    let u = if rng.gen_bool(0.7) {
                        hubs[rng.gen_range(0, hubs.len())]
                    } else {
                        rng.gen_range(0, n)
                    };
                    let v = rng.gen_range(0, n);
                    if u == v {
                        continue;
                    }
                    let (u, v) = (NodeId(u), NodeId(v));
                    assert_eq!(
                        graph.add_edge(u, v).unwrap(),
                        model.add_edge(u, v),
                        "seed {seed} step {step}: add {u}-{v}"
                    );
                }
                60..=79 => {
                    let u = NodeId(rng.gen_range(0, n));
                    let v = NodeId(rng.gen_range(0, n));
                    if u == v {
                        continue;
                    }
                    assert_eq!(
                        graph.remove_edge(u, v).unwrap(),
                        model.remove_edge(u, v),
                        "seed {seed} step {step}: remove {u}-{v}"
                    );
                }
                80..=87 => {
                    // Crash sever: drop every incident edge of one node.
                    let u = NodeId(rng.gen_range(0, n));
                    let mut severed = Vec::new();
                    graph
                        .remove_incident_edges(u, |e| severed.push(e))
                        .expect("sever on a healthy graph");
                    let neighbors: Vec<NodeId> =
                        model.adjacency[u.index()].iter().copied().collect();
                    for &v in &neighbors {
                        model.remove_edge(u, v);
                    }
                    assert_eq!(
                        severed.len(),
                        neighbors.len(),
                        "seed {seed} step {step}: severed degree of {u}"
                    );
                }
                88..=93 => {
                    assert_eq!(graph.add_node(), model.add_node());
                    n += 1;
                }
                _ => {
                    // Batch round: disjoint fresh adds applied as one merge.
                    let mut batch: BTreeSet<Edge> = BTreeSet::new();
                    for _ in 0..rng.gen_range(2, 24) {
                        let u = rng.gen_range(0, n);
                        let v = rng.gen_range(0, n);
                        if u != v {
                            batch.insert(Edge::new(NodeId(u), NodeId(v)));
                        }
                    }
                    let batch: Vec<Edge> = batch.into_iter().collect();
                    let mut from_batch = Vec::new();
                    graph.add_edges_batch(&batch, |e| from_batch.push(e));
                    for e in &batch {
                        model.add_edge(e.a, e.b);
                    }
                }
            }
            // Dead slots only ever decrease at a compaction (relocations
            // add them, nothing else touches the counter), so a drop
            // between steps is positive proof one ran. A batch step may
            // compact and then relocate again, so `dead` need not be zero
            // afterwards — but it must stay under the trigger ratio.
            let dead_now = graph.dead_slots();
            if dead_now < last_dead {
                compactions_seen += 1;
                assert!(
                    dead_now * 4 < graph.arena_slots().max(1) + 4,
                    "seed {seed} step {step}: post-compaction dead space \
                     still above the trigger ratio"
                );
            }
            last_dead = dead_now;
            if step % 97 == 0 {
                assert_same_state(&graph, &model, seed, step);
            }
        }
        assert_same_state(&graph, &model, seed, 1200);
        assert!(
            compactions_seen > 0,
            "seed {seed}: workload never triggered a compaction — \
             thresholds changed or the hubs are too small"
        );
        // Footprint sanity: the arena never hoards more than the columns
        // plus capacity doubling can explain.
        assert!(graph.memory_footprint_bytes() > 0);
        let mut explicit = graph.clone();
        explicit.compact();
        assert_eq!(explicit, graph, "compaction is semantics-preserving");
        assert_eq!(explicit.dead_slots(), 0);
    }
}

/// Regression (seeded): a crash severing a hub right at the compaction
/// threshold, with the next committed wave triggering the compaction
/// mid-schedule. The old per-node `Vec` representation had no compaction
/// to get wrong; the arena must relocate and compact without panicking
/// and keep its layout invariants.
#[test]
fn crash_landing_at_compaction_boundary_stays_sound() {
    for seed in 0u64..4 {
        let mut rng = DetRng::seed_from_u64(0xDEAD ^ seed.wrapping_mul(7919));
        let n = 1024usize;
        let mut net = Network::new(generators::star(n));
        for round in 0..6 {
            let wave: Vec<WaveActivation> = (0..700)
                .map(|_| {
                    let u = 1 + rng.gen_range(0, n - 1);
                    let v = 1 + rng.gen_range(0, n - 1);
                    (u, v)
                })
                .filter(|&(u, v)| u != v)
                .map(|(u, v)| WaveActivation {
                    initiator: NodeId(u),
                    target: NodeId(v),
                    witness: NodeId(0),
                })
                .collect();
            // Before the crash every activation is witnessed by the hub and
            // staging succeeds. After it, the hub is edgeless, so staging may
            // stop at a pair with no surviving common neighbour; the commit
            // below still applies the partially-staged wave.
            let staged = net.stage_jump_wave(&wave, &[]);
            if round < 3 {
                staged.expect("pre-crash staging is hub-witnessed");
            }
            if round == 2 {
                // Crash the hub: its (huge) block empties in place, which
                // puts the arena deep into dead-slot territory; the next
                // committed wave's relocations must compact safely while
                // the schedule is mid-flight.
                net.inject_crash(NodeId(0)).expect("hub is in range");
            }
            net.commit_round();
            assert!(net.graph().check_invariants(), "seed {seed} round {round}");
        }
    }
}
