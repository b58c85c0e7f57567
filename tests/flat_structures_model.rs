//! Differential property suite for the flat data path.
//!
//! The graph core stores adjacency as per-node sorted `Vec<NodeId>` and
//! the network stages rounds as edge columns in stage order. These
//! tests pin both against straightforward `BTreeSet`-based reference
//! models — the representation the seed used — under seeded random
//! operation sequences (add_edge / remove_edge / jump / add_node / stage /
//! commit), so any divergence in contents, iteration order, counters or
//! round summaries is caught with the seed that reproduces it. Rounds of
//! pointer jumps committed in place are pinned against the same rounds
//! staged and committed in groups.

use actively_dynamic_networks::graph::rng::DetRng;
use actively_dynamic_networks::graph::{generators, BitRow, BitRows, Edge, Graph, NodeId};
use actively_dynamic_networks::sim::dst::{
    Adversary, DstState, InvariantPolicy, Scenario, TargetPolicy,
};
use actively_dynamic_networks::sim::{Jump, Network, RoundSummary, SimError, WaveActivation};
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
        let mut rows = BitRows::new();
        let mut reach = BitRow::new();
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
                    // Read-path probes: membership, N2 off a bit-row
                    // copy, witnesses.
                    let u = NodeId(rng.gen_range(0, n));
                    let v = NodeId(rng.gen_range(0, n));
                    assert_eq!(graph.has_edge(u, v), model.has_edge(u, v));
                    rows.fill(&graph);
                    rows.distance_two(u, &mut reach);
                    assert_eq!(
                        reach.nodes_from(NodeId(0)).collect::<Vec<_>>(),
                        model.potential_neighbors(u),
                        "seed {seed} step {step}: N2({u})"
                    );
                    assert_eq!(
                        rows.common_neighbor(u, v),
                        graph.common_neighbor(u, v),
                        "seed {seed} step {step}: witness of {u}, {v}"
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
            // Draw a set-semantics batch (deduplicated), shuffled about
            // half the time: the callbacks must come in ascending
            // canonical order either way.
            let mut batch: BTreeSet<Edge> = BTreeSet::new();
            for _ in 0..rng.gen_range(0, 9) {
                let u = rng.gen_range(0, n);
                let mut v = rng.gen_range(0, n - 1);
                if v >= u {
                    v += 1;
                }
                batch.insert(Edge::new(NodeId(u), NodeId(v)));
            }
            let mut batch: Vec<Edge> = batch.into_iter().collect();
            if rng.gen_bool(0.5) {
                rng.shuffle(&mut batch);
            }
            let mut from_batch = Vec::new();
            let mut from_singles = Vec::new();
            if rng.gen_bool(0.6) {
                batched.add_edges_batch(&batch, |e| from_batch.push(e));
                for e in &batch {
                    if singles.add_edge(e.a, e.b).unwrap() {
                        from_singles.push(*e);
                    }
                }
            } else {
                batched.remove_edges_batch(&batch, |e| from_batch.push(e));
                for e in &batch {
                    if singles.remove_edge(e.a, e.b).unwrap() {
                        from_singles.push(*e);
                    }
                }
            }
            from_singles.sort_unstable();
            assert_eq!(from_batch, from_singles, "seed {seed}: changed edges");
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
/// pointer jumps (`Graph::jump`), crash severs (`remove_incident_edges`),
/// churn `add_node` and batch edits — all pinned against the `BTreeSet`
/// reference. Half the single edits go through one-edge `add_edges_batch`
/// / `remove_edges_batch` calls, whose callbacks must report exactly the
/// edges that changed, and a twin graph that makes each of those edits
/// with `add_edge` / `remove_edge` (a batch's smaller endpoint first, the
/// order a batch edits its endpoints in) must keep the same arena layout
/// (slots and dead slots), so a one-edge batch relocates and compacts as
/// the per-edge edit does. The twin makes a jump as `remove_edge` of the
/// edge it leaves, then `add_edge` of the new one, and must keep that
/// layout too: a jump never relocates its mover's block when it drops an
/// edge, and grows the target's block as an insertion does.
#[test]
fn arena_relocation_and_compaction_match_model_under_churn() {
    // Jump coverage over all seeds: shifts towards smaller and larger
    // ids, jumps without a drop, and jumps that relocated or compacted.
    let (mut shifted_down, mut shifted_up, mut kept) = (0usize, 0usize, 0usize);
    let (mut jump_relocations, mut jump_compactions) = (0usize, 0usize);
    for seed in 0u64..8 {
        let mut rng = DetRng::seed_from_u64(0xC0FFEE ^ seed.wrapping_mul(0x5851_F42D));
        let mut n = 48 + rng.gen_range(0, 32);
        let mut graph = Graph::new(n);
        let mut per_edge = Graph::new(n);
        let mut model = ModelGraph::new(n);
        // A handful of hub nodes receive most insertions, so their blocks
        // overflow repeatedly and strand dead capacity behind them.
        let hubs: Vec<usize> = (0..4).map(|_| rng.gen_range(0, n)).collect();
        let mut compactions_seen = 0usize;
        let mut last_dead = graph.dead_slots();
        for step in 0..1200 {
            match rng.gen_range(0, 100) {
                0..=9 => {
                    // A pointer jump of `u` to a node it is not adjacent
                    // to, hub-heavy on both ends, leaving a random
                    // neighbour unless `u` keeps its edges.
                    let mut pick = || {
                        if rng.gen_bool(0.5) {
                            hubs[rng.gen_range(0, hubs.len())]
                        } else {
                            rng.gen_range(0, n)
                        }
                    };
                    let (u, to) = (NodeId(pick()), NodeId(pick()));
                    if u == to || model.has_edge(u, to) {
                        continue;
                    }
                    let left: Vec<NodeId> = model.adjacency[u.index()].iter().copied().collect();
                    let drop = !left.is_empty() && rng.gen_bool(0.75);
                    let from = if drop {
                        left[rng.gen_range(0, left.len())]
                    } else {
                        NodeId(rng.gen_range(0, n))
                    };
                    let (slots, dead) = (graph.arena_slots(), graph.dead_slots());
                    graph.jump(u, from, to, drop);
                    if drop {
                        model.remove_edge(u, from);
                        per_edge.remove_edge(u, from).unwrap();
                        if to < from {
                            shifted_down += 1;
                        } else {
                            shifted_up += 1;
                        }
                    } else {
                        kept += 1;
                    }
                    model.add_edge(u, to);
                    per_edge.add_edge(u, to).unwrap();
                    if graph.dead_slots() < dead {
                        jump_compactions += 1;
                    } else if graph.arena_slots() > slots {
                        jump_relocations += 1;
                    }
                    assert!(
                        graph.check_invariants(),
                        "seed {seed} step {step}: jump of {u} from {from} to {to}"
                    );
                }
                10..=59 => {
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
                    let fresh = model.add_edge(u, v);
                    let e = Edge::new(u, v);
                    let batched = rng.gen_bool(0.5);
                    if !batched {
                        assert_eq!(
                            graph.add_edge(u, v).unwrap(),
                            fresh,
                            "seed {seed} step {step}: add {u}-{v}"
                        );
                    } else {
                        let mut from_batch = Vec::new();
                        assert_eq!(
                            graph.add_edges_batch(&[e], |x| from_batch.push(x)),
                            usize::from(fresh),
                            "seed {seed} step {step}: one-edge add {u}-{v}"
                        );
                        assert_eq!(
                            from_batch,
                            fresh.then_some(e).into_iter().collect::<Vec<_>>()
                        );
                    }
                    let (x, y) = if batched { (e.a, e.b) } else { (u, v) };
                    per_edge.add_edge(x, y).unwrap();
                }
                60..=79 => {
                    let u = NodeId(rng.gen_range(0, n));
                    let v = NodeId(rng.gen_range(0, n));
                    if u == v {
                        continue;
                    }
                    let present = model.remove_edge(u, v);
                    let e = Edge::new(u, v);
                    if rng.gen_bool(0.5) {
                        assert_eq!(
                            graph.remove_edge(u, v).unwrap(),
                            present,
                            "seed {seed} step {step}: remove {u}-{v}"
                        );
                    } else {
                        let mut from_batch = Vec::new();
                        assert_eq!(
                            graph.remove_edges_batch(&[e], |x| from_batch.push(x)),
                            usize::from(present),
                            "seed {seed} step {step}: one-edge remove {u}-{v}"
                        );
                        assert_eq!(
                            from_batch,
                            present.then_some(e).into_iter().collect::<Vec<_>>()
                        );
                    }
                    per_edge.remove_edge(u, v).unwrap();
                }
                80..=87 => {
                    // Crash sever: drop every incident edge of one node.
                    let u = NodeId(rng.gen_range(0, n));
                    let mut severed = Vec::new();
                    graph
                        .remove_incident_edges(u, |e| severed.push(e))
                        .expect("sever on a healthy graph");
                    per_edge
                        .remove_incident_edges(u, |_| {})
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
                    per_edge.add_node();
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
                    per_edge.add_edges_batch(&batch, |_| {});
                    for e in &batch {
                        model.add_edge(e.a, e.b);
                    }
                }
            }
            assert_eq!(
                (graph.arena_slots(), graph.dead_slots()),
                (per_edge.arena_slots(), per_edge.dead_slots()),
                "seed {seed} step {step}: arena layout of one-edge batches vs per-edge edits"
            );
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
    let coverage = [
        shifted_down,
        shifted_up,
        kept,
        jump_relocations,
        jump_compactions,
    ];
    assert!(
        coverage.iter().all(|&c| c > 0),
        "jumps down, up, without a drop, relocating, compacting: {coverage:?}"
    );
}

/// Regression (seeded): a crash severing a hub right at the compaction
/// threshold, with the next committed wave triggering the compaction
/// mid-schedule. The old per-node `Vec` representation had no compaction
/// to get wrong; the arena must relocate and compact without panicking
/// and keep its layout invariants.
#[test]
fn crash_landing_at_compaction_boundary_stays_sound() {
    // The DST adversary crashes the highest-degree node — the hub — at
    // the boundary after the third commit (before round 4), and nowhere
    // else.
    let hub_crash = Scenario {
        per_round_probability: 1.0,
        ..Scenario::crash_stop()
    }
    .with_fault_budget(1)
    .with_window(4, Some(4))
    .with_target(TargetPolicy::MaxDegree);
    for seed in 0u64..4 {
        let mut rng = DetRng::seed_from_u64(0xDEAD ^ seed.wrapping_mul(7919));
        let n = 1024usize;
        let mut net = Network::new(generators::star(n));
        net.install_dst(DstState::new(
            Adversary::new(hub_crash.clone(), seed),
            InvariantPolicy::default(),
            Vec::new(),
        ));
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
            // After the third commit the adversary crashes the hub: its
            // (huge) block empties in place, which puts the arena deep
            // into dead-slot territory; the next committed wave's
            // relocations must compact safely while the schedule is
            // mid-flight.
            net.commit_round();
            assert_eq!(
                net.is_crashed(NodeId(0)),
                round >= 2,
                "seed {seed} round {round}"
            );
            assert!(net.graph().check_invariants(), "seed {seed} round {round}");
        }
    }
}

/// Whether no two of `jumps` name the same edge, activated or dropped:
/// `Network::commit_jumps`'s precondition.
fn jumps_name_distinct_edges(jumps: &[Jump]) -> bool {
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    for j in jumps {
        edges.push((j.node.min(j.to), j.node.max(j.to)));
        if j.drop {
            edges.push((j.node.min(j.from), j.node.max(j.from)));
        }
    }
    edges.sort_unstable();
    edges.windows(2).all(|w| w[0] != w[1])
}

/// The same round through the staging path: one witnessed activation per
/// jump, the dropped edges as deactivations, then `commit_round`.
fn commit_staged(twin: &mut Network, jumps: &[Jump]) -> Result<RoundSummary, SimError> {
    let acts: Vec<WaveActivation> = jumps
        .iter()
        .map(|j| WaveActivation {
            initiator: j.node,
            target: j.to,
            witness: j.from,
        })
        .collect();
    let drops: Vec<Edge> = jumps
        .iter()
        .filter(|j| j.drop)
        .map(|j| Edge::new(j.node, j.from))
        .collect();
    twin.stage_jump_wave(&acts, &drops)?;
    Ok(twin.commit_round())
}

/// A jump that fails its checks, by a node that does not jump this round
/// (`idle`), or `None` when the one drawn would share an edge with the
/// round's jumps: an id out of range (activation or drop), a self-loop, or
/// an activation with no common neighbour.
fn bad_jump(net: &Network, jumps: &[Jump], idle: NodeId, rng: &mut DetRng) -> Option<Jump> {
    let graph = net.graph();
    let n = graph.node_count();
    let beyond = NodeId(n + rng.gen_range(0, 3));
    let neighbor = graph.neighbors_slice(idle).first().copied();
    let bad = match rng.gen_range(0, 4) {
        0 => Jump {
            node: idle,
            from: idle,
            to: beyond,
            drop: false,
        },
        // An activation that changes nothing, then a drop out of range:
        // the error comes from the drop column, after every activation.
        1 => Jump {
            node: idle,
            from: beyond,
            to: neighbor?,
            drop: true,
        },
        2 => Jump {
            node: idle,
            from: neighbor.unwrap_or(beyond),
            to: idle,
            drop: false,
        },
        _ => {
            let far = (0..n).map(NodeId).find(|&x| {
                x != idle && !graph.has_edge(idle, x) && graph.common_neighbor(idle, x).is_none()
            })?;
            Jump {
                node: idle,
                from: neighbor.unwrap_or(beyond),
                to: far,
                drop: false,
            }
        }
    };
    let mut all = jumps.to_vec();
    all.push(bad);
    jumps_name_distinct_edges(&all).then_some(bad)
}

/// Rounds of pointer jumping on random rooted trees, committed in place by
/// `commit_jumps` on one network and through `stage_jump_wave` +
/// `commit_round` on a twin, both with the recorder armed, fault-free and
/// under the `crash_stop` and `adversarial_edges` adversaries. The test
/// computes its own rounds: every node whose parent is not the root jumps
/// to its grandparent, keeping the edge it leaves for a random quarter, as
/// `keep_line_edges` does on a first jump. The graph carries extra edges
/// (some onto grandparents, so a target is already adjacent) and misses
/// some tree edges (an absent drop edge, a stale witness the common
/// neighbour scan must back up or reject), and some rounds carry a jump
/// that fails its checks. Results (errors included), summaries, metrics,
/// graphs, recorded events and DST renders must agree, and a failed
/// `commit_jumps` must apply nothing.
#[test]
fn jump_rounds_commit_like_staged_waves() {
    let scenarios = [
        Scenario::failure_free(),
        Scenario::crash_stop(),
        Scenario::adversarial_edges(),
    ];
    // Coverage over all trials: present targets with and without a drop,
    // absent drop edges, scanned witnesses, and each error kind.
    let (mut present_dropped, mut present_kept) = (0usize, 0usize);
    let (mut absent_drops, mut scanned) = (0usize, 0usize);
    let mut errors: BTreeSet<&str> = BTreeSet::new();
    for seed in 0u64..90 {
        let mut rng = DetRng::seed_from_u64(0x1F3A ^ seed.wrapping_mul(0x9E37_79B9));
        let n = 8 + rng.gen_range(0, 33);
        let mut parent: Vec<Option<usize>> = (0..n)
            .map(|i| (i > 0).then(|| rng.gen_range(0, i)))
            .collect();
        let mut graph = Graph::new(n);
        for (i, p) in parent.iter().enumerate() {
            if let Some(p) = *p {
                graph.add_edge(NodeId(i), NodeId(p)).unwrap();
            }
        }
        for _ in 0..n / 3 {
            let u = rng.gen_range(0, n);
            let grandparent = parent[u].and_then(|p| parent[p]);
            let v = match grandparent {
                Some(g) if rng.gen_bool(0.5) => g,
                _ => rng.gen_range(0, n),
            };
            if u != v {
                graph.add_edge(NodeId(u), NodeId(v)).unwrap();
            }
        }
        for _ in 0..n / 8 {
            // Cut the edge of a node `u` to its parent, where `u` has a
            // great-grandparent. A bridge to that node leaves `u`'s first
            // jump a common neighbour with its target for the scan to
            // find, and a bridge from each child of `u` to the parent
            // makes that child's first target already adjacent.
            let u = 1 + rng.gen_range(0, n - 1);
            let p = parent[u].expect("non-root");
            let Some(up) = parent[p].and_then(|g| parent[g]) else {
                continue;
            };
            graph.remove_edge(NodeId(u), NodeId(p)).unwrap();
            graph.add_edge(NodeId(u), NodeId(up)).unwrap();
            for c in (0..n).filter(|&c| parent[c] == Some(u)) {
                graph.add_edge(NodeId(c), NodeId(p)).unwrap();
            }
        }
        let scenario = scenarios[seed as usize % scenarios.len()].clone();
        let mut net = Network::new(graph);
        net.install_dst(DstState::new(
            Adversary::new(scenario.clone(), seed),
            InvariantPolicy::default(),
            Vec::new(),
        ));
        net.set_event_recording(true);
        let mut twin = net.clone();
        for round in 0..8 {
            let label = format!("seed {seed} ({}) round {round}", scenario.name);
            let mut jumps: Vec<Jump> = (0..n)
                .filter_map(|u| {
                    let p = parent[u]?;
                    let g = parent[p]?;
                    Some((u, p, g))
                })
                .map(|(u, p, g)| Jump {
                    node: NodeId(u),
                    from: NodeId(p),
                    to: NodeId(g),
                    drop: !rng.gen_bool(0.25),
                })
                .collect();
            if jumps.is_empty() {
                break;
            }
            let idle =
                (0..n).find(|&u| parent[u].and_then(|p| parent[p]).is_none() && rng.gen_bool(0.5));
            if let Some(idle) = idle.filter(|_| rng.gen_bool(0.2)) {
                if let Some(bad) = bad_jump(&net, &jumps, NodeId(idle), &mut rng) {
                    let at = rng.gen_range(0, jumps.len() + 1);
                    jumps.insert(at, bad);
                }
            }
            let (before, metrics, at_round) =
                (net.graph().clone(), net.metrics().clone(), net.round());
            let got = net.commit_jumps(&jumps);
            let want = commit_staged(&mut twin, &jumps);
            assert_eq!(got, want, "{label}");
            assert_eq!(net.staged_operations(), 0, "{label}");
            assert_eq!(net.take_events(), twin.take_events(), "{label}");
            if let Err(e) = got {
                errors.insert(match e {
                    SimError::NotPotentialNeighbors { .. } => "unwitnessed",
                    SimError::NodeOutOfRange { .. } => "out of range",
                    SimError::SelfLoop { .. } => "self-loop",
                    _ => "other",
                });
                assert_eq!(net.graph(), &before, "{label}: nothing applied");
                assert_eq!(net.metrics(), &metrics, "{label}: nothing metered");
                assert_eq!(net.round(), at_round, "{label}: no round passed");
                // The twin keeps what it staged before the error.
                break;
            }
            for j in &jumps {
                let leaves = before.has_edge(j.node, j.from);
                if before.has_edge(j.node, j.to) {
                    if j.drop {
                        present_dropped += 1;
                    } else {
                        present_kept += 1;
                    }
                } else if !(leaves && before.has_edge(j.from, j.to)) {
                    scanned += 1;
                }
                absent_drops += usize::from(j.drop && !leaves);
            }
            assert_eq!(net.graph(), twin.graph(), "{label}");
            assert_eq!(net.metrics(), twin.metrics(), "{label}");
            assert!(net.graph().check_invariants(), "{label}");
            let next: Vec<Option<usize>> = (0..n)
                .map(|u| parent[u].map(|p| parent[p].unwrap_or(p)))
                .collect();
            parent = next;
        }
        let (ours, theirs) = (net.take_dst_report(), twin.take_dst_report());
        assert_eq!(
            ours.as_ref().map(|r| r.render()),
            theirs.as_ref().map(|r| r.render()),
            "seed {seed}: DST render"
        );
        assert_eq!(ours, theirs, "seed {seed}: DST report");
    }
    let coverage = [present_dropped, present_kept, absent_drops, scanned];
    assert!(
        coverage.iter().all(|&c| c > 0),
        "present target with and without a drop, absent drop, scanned witness: {coverage:?}"
    );
    assert_eq!(
        errors.into_iter().collect::<Vec<_>>(),
        ["out of range", "self-loop", "unwitnessed"]
    );
}
