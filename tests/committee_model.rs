//! Differential property suite for the committee-forest layer and the
//! incremental engine views.
//!
//! The committee algorithms used to build their scaffolding out of
//! `BTreeMap<NodeId, Committee>` membership maps, nested-`BTreeMap`
//! committee adjacency and per-round full `NodeView` rebuilds. These tests
//! keep the old representations alive as executable specifications and pin
//! the arena-backed [`CommitteeForest`] / flat [`CommitteeAdjacency`] /
//! incremental [`ViewCache`] against them under seeded random operation
//! sequences — membership, iteration order, bridge selection, selection
//! roots and view contents all included — so any divergence is caught with
//! the seed that reproduces it (the `tests/flat_structures_model.rs`
//! pattern, one layer up).

use actively_dynamic_networks::core::committee::{CommitteeForest, CommitteeId, SelectionForest};
use actively_dynamic_networks::graph::rng::DetRng;
use actively_dynamic_networks::graph::{generators, Graph, NodeId, UidAssignment, UidMap};
use actively_dynamic_networks::sim::dst::{Adversary, InvariantPolicy, Scenario};
use actively_dynamic_networks::sim::engine::ViewCache;
use actively_dynamic_networks::sim::{DstState, Network};
use std::collections::BTreeMap;

/// The old committee bookkeeping: committees keyed by leader, membership
/// extended on merge, `committee_of` holding leaders.
struct ModelPartition {
    committees: BTreeMap<NodeId, Vec<NodeId>>,
    committee_of: Vec<NodeId>,
}

impl ModelPartition {
    fn new(n: usize) -> Self {
        ModelPartition {
            committees: (0..n).map(|i| (NodeId(i), vec![NodeId(i)])).collect(),
            committee_of: (0..n).map(NodeId).collect(),
        }
    }

    fn absorb(&mut self, dying: NodeId, absorbing: NodeId) {
        let dead = self.committees.remove(&dying).expect("dying exists");
        for &m in &dead {
            self.committee_of[m.index()] = absorbing;
        }
        self.committees
            .get_mut(&absorbing)
            .expect("absorbing exists")
            .extend(dead);
    }

    /// The adjacency builder copy-pasted between `graph_to_star.rs` and
    /// `graph_to_wreath.rs` before the committee module, verbatim.
    fn committee_adjacency(
        &self,
        graph: &Graph,
    ) -> BTreeMap<NodeId, BTreeMap<NodeId, (NodeId, NodeId)>> {
        let mut adj: BTreeMap<NodeId, BTreeMap<NodeId, (NodeId, NodeId)>> = BTreeMap::new();
        for e in graph.edges() {
            if e.b.index() >= self.committee_of.len() {
                continue;
            }
            let ca = self.committee_of[e.a.index()];
            let cb = self.committee_of[e.b.index()];
            if ca == cb {
                continue;
            }
            let entry = adj.entry(ca).or_default().entry(cb).or_insert((e.a, e.b));
            if (e.a, e.b) < *entry {
                *entry = (e.a, e.b);
            }
            let entry = adj.entry(cb).or_default().entry(ca).or_insert((e.b, e.a));
            if (e.b, e.a) < *entry {
                *entry = (e.b, e.a);
            }
        }
        adj
    }
}

/// Leaders never migrate between slots, so slot id == initial leader index
/// in both algorithms; the model's leader keys translate directly.
fn assert_same_partition(forest: &CommitteeForest, model: &ModelPartition, ctx: &str) {
    let live_leaders: Vec<NodeId> = forest
        .live_ids()
        .iter()
        .map(|&c| forest.leader(c))
        .collect();
    let model_leaders: Vec<NodeId> = model.committees.keys().copied().collect();
    assert_eq!(
        live_leaders, model_leaders,
        "{ctx}: live committees (order included)"
    );
    for (&leader, members) in &model.committees {
        let cid = forest.committee_of(leader).expect("leader is tracked");
        assert_eq!(forest.leader(cid), leader, "{ctx}: leader of {leader}");
        assert!(forest.is_alive(cid));
        assert_eq!(
            forest.members(cid),
            &members[..],
            "{ctx}: members of {leader} (order included)"
        );
    }
    for u in 0..model.committee_of.len() {
        assert_eq!(
            forest.leader_of(NodeId(u)),
            model.committee_of[u],
            "{ctx}: committee of node {u}"
        );
    }
}

fn assert_same_adjacency(
    forest: &CommitteeForest,
    model: &ModelPartition,
    graph: &Graph,
    ctx: &str,
) {
    let flat = forest.committee_adjacency(graph);
    let reference = model.committee_adjacency(graph);
    let mut rows_seen = 0usize;
    for &cid in forest.live_ids() {
        let leader = forest.leader(cid);
        let rows = flat.neighbors(cid);
        rows_seen += rows.len();
        let expect = reference.get(&leader);
        assert_eq!(
            rows.len(),
            expect.map_or(0, |m| m.len()),
            "{ctx}: neighbour count of {leader}"
        );
        if let Some(expect) = expect {
            // Same neighbours in the same (ascending) order, same bridges.
            for (row, (&other_leader, &(x, y))) in rows.iter().zip(expect.iter()) {
                assert_eq!(forest.leader(row.other), other_leader, "{ctx}: order");
                assert_eq!(
                    (row.bridge_local, row.bridge_remote),
                    (x, y),
                    "{ctx}: bridge {leader} -> {other_leader}"
                );
            }
        }
    }
    assert_eq!(rows_seen, flat.row_count(), "{ctx}: no orphan rows");
}

#[test]
fn forest_matches_btreemap_model_under_seeded_merge_sequences() {
    for seed in 0u64..10 {
        let mut rng = DetRng::seed_from_u64(0xC0FF ^ seed.wrapping_mul(0x9E37_79B9));
        let n = 8 + rng.gen_range(0, 25);
        let mut graph = generators::random_line_with_chords(n, n / 2, seed);
        let mut forest = CommitteeForest::singletons(n);
        let mut model = ModelPartition::new(n);
        // Churned-in nodes beyond the tracked set must stay invisible.
        let joined = graph.add_node();
        graph.add_edge(NodeId(0), joined).unwrap();

        for step in 0..60 {
            match rng.gen_range(0, 10) {
                0..=5 => {
                    // Merge two distinct live committees.
                    if forest.live_count() < 2 {
                        continue;
                    }
                    let live = forest.live_ids();
                    let a = live[rng.gen_range(0, live.len())];
                    let b = live[rng.gen_range(0, live.len())];
                    if a == b {
                        continue;
                    }
                    forest.absorb(a, b);
                    model.absorb(NodeId(a.index()), NodeId(b.index()));
                }
                6..=7 => {
                    // Mutate the graph: the adjacency must track it.
                    let u = NodeId(rng.gen_range(0, n));
                    let v = NodeId(rng.gen_range(0, n));
                    if u == v {
                        continue;
                    }
                    if rng.gen_bool(0.5) {
                        let _ = graph.add_edge(u, v);
                    } else {
                        let _ = graph.remove_edge(u, v);
                    }
                }
                _ => {
                    let ctx = format!("seed {seed} step {step}");
                    assert_same_partition(&forest, &model, &ctx);
                    assert_same_adjacency(&forest, &model, &graph, &ctx);
                }
            }
        }
        let ctx = format!("seed {seed} final");
        assert_same_partition(&forest, &model, &ctx);
        assert_same_adjacency(&forest, &model, &graph, &ctx);
    }
}

#[test]
fn replace_members_and_retire_match_wholesale_rebuild_semantics() {
    // The wreath engine's merge: roots take over the spliced ring
    // (arbitrary order), children retire. The model rebuilds its map the
    // way the old code built `next_committees`, and the adjacency the
    // engine builds from the snapshot after every merge must match the
    // model's.
    for seed in 0u64..6 {
        let mut rng = DetRng::seed_from_u64(0x11EA7 ^ seed.wrapping_mul(131));
        let n = 6 + rng.gen_range(0, 19);
        let mut graph = generators::random_line_with_chords(n, n / 2, seed);
        // Churned-in nodes beyond the tracked set must stay invisible.
        let joined = graph.add_node();
        graph.add_edge(NodeId(0), joined).unwrap();
        let mut forest = CommitteeForest::singletons(n);
        let mut model = ModelPartition::new(n);
        while forest.live_count() > 1 {
            // Pick a root and a few children, splice their members in an
            // interleaved (ring-like, unsorted) order.
            let live = forest.live_ids().to_vec();
            let root = live[rng.gen_range(0, live.len())];
            let mut children: Vec<CommitteeId> = Vec::new();
            for _ in 0..(1 + rng.gen_range(0, 3)) {
                let c = live[rng.gen_range(0, live.len())];
                if c != root && !children.contains(&c) {
                    children.push(c);
                }
            }
            if children.is_empty() {
                continue;
            }
            let mut ring: Vec<NodeId> = forest.members(root).to_vec();
            for &c in &children {
                let members = forest.members(c);
                // Insert child members at a pseudo-random cut point.
                let cut = rng.gen_range(0, ring.len());
                let mut spliced = ring[..=cut].to_vec();
                spliced.extend_from_slice(members);
                spliced.extend_from_slice(&ring[cut + 1..]);
                ring = spliced;
            }
            forest.replace_members(root, ring.clone());
            for &c in &children {
                forest.retire(c);
            }
            let root_leader = NodeId(root.index());
            for &c in &children {
                model.committees.remove(&NodeId(c.index()));
            }
            model.committees.insert(root_leader, ring.clone());
            for &u in &ring {
                model.committee_of[u.index()] = root_leader;
            }
            let ctx = format!("seed {seed}");
            assert_same_partition(&forest, &model, &ctx);
            assert_same_adjacency(&forest, &model, &graph, &ctx);
        }
    }
}

#[test]
fn selection_forest_matches_pointer_chasing_reference() {
    for seed in 0u64..10 {
        let mut rng = DetRng::seed_from_u64(0x5E1EC7 ^ seed.wrapping_mul(0xABCD));
        let n = 6 + rng.gen_range(0, 30);
        let mut forest = CommitteeForest::singletons(n);
        for _ in 0..rng.gen_range(0, n / 2) {
            let live = forest.live_ids();
            if live.len() < 2 {
                break;
            }
            let a = live[rng.gen_range(0, live.len())];
            let b = live[rng.gen_range(0, live.len())];
            if a != b {
                forest.absorb(a, b);
            }
        }
        // Build an acyclic selection: each committee may select a
        // strictly larger live slot (mirrors the strictly-larger-UID rule).
        let live = forest.live_ids().to_vec();
        let mut edges: Vec<(CommitteeId, CommitteeId)> = Vec::new();
        let mut selected: BTreeMap<NodeId, NodeId> = BTreeMap::new();
        for (i, &c) in live.iter().enumerate() {
            if i + 1 < live.len() && rng.gen_bool(0.7) {
                let parent = live[i + 1 + rng.gen_range(0, live.len() - i - 1)];
                edges.push((c, parent));
                selected.insert(NodeId(c.index()), NodeId(parent.index()));
            }
        }
        let sel = SelectionForest::new(&forest, &edges);

        // Reference: the old per-query chaser and BTreeMap scaffolding.
        let root_of = |mut c: NodeId| {
            let mut guard = 0usize;
            while let Some(&parent) = selected.get(&c) {
                c = parent;
                guard += 1;
                if guard > live.len() {
                    break;
                }
            }
            c
        };
        let mut children_of: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
        for (&child, &parent) in &selected {
            children_of.entry(parent).or_default().push(child);
        }
        let roots: Vec<NodeId> = live
            .iter()
            .map(|&c| NodeId(c.index()))
            .filter(|c| !selected.contains_key(c))
            .collect();

        assert_eq!(
            sel.roots()
                .iter()
                .map(|&c| NodeId(c.index()))
                .collect::<Vec<_>>(),
            roots,
            "seed {seed}: roots (order included)"
        );
        for &c in &live {
            let leader = NodeId(c.index());
            assert_eq!(
                NodeId(sel.root_of(c).index()),
                root_of(leader),
                "seed {seed}: root of {leader}"
            );
            let expect_children = children_of.get(&leader).cloned().unwrap_or_default();
            assert_eq!(
                sel.children(c)
                    .iter()
                    .map(|&x| NodeId(x.index()))
                    .collect::<Vec<_>>(),
                expect_children,
                "seed {seed}: children of {leader} (order included)"
            );
            assert_eq!(sel.has_children(c), !expect_children.is_empty());
            assert_eq!(
                sel.parent(c).map(|p| NodeId(p.index())),
                selected.get(&leader).copied(),
                "seed {seed}: parent of {leader}"
            );
        }
    }
}

/// Drives a DST-armed network with random staged operations and
/// adversarial faults, maintaining one incremental [`ViewCache`] across
/// rounds and comparing it, field for field, against a from-scratch
/// rebuild every round — the engine's old behaviour. Both cache kinds
/// run on every input: with `N_2`, and without it (the cache of programs
/// that never read `N_2`).
#[test]
fn incremental_views_match_full_rebuild_under_faults() {
    let scenarios = [
        Scenario::failure_free(),
        Scenario::mixed().with_fault_budget(10),
        Scenario {
            per_round_probability: 0.6,
            ..Scenario::partition_heal().with_fault_budget(3)
        },
        Scenario {
            per_round_probability: 0.8,
            ..Scenario::churn().with_fault_budget(6)
        },
    ];
    for (which, scenario) in scenarios.into_iter().enumerate() {
        for (seed, with_n2) in (0u64..6).flat_map(|seed| [(seed, true), (seed, false)]) {
            let mut rng = DetRng::seed_from_u64(0x71E3 ^ seed.wrapping_mul(97) ^ (which as u64));
            let n = 8 + rng.gen_range(0, 17);
            let initial = generators::random_line_with_chords(n, n / 2, seed);
            let uids = UidMap::new(n, UidAssignment::Sequential);
            let mut net = Network::new(initial);
            net.install_dst(DstState::new(
                Adversary::new(scenario.clone(), seed.wrapping_mul(7) + 1),
                InvariantPolicy::default(),
                (1..=n as u64).collect(),
            ));
            net.set_change_tracking(true);
            let mut cache = ViewCache::new(&net, &uids, n, with_n2);
            for round in 0..50 {
                for _ in 0..rng.gen_range(0, 6) {
                    let n_now = net.node_count();
                    let u = NodeId(rng.gen_range(0, n_now));
                    let v = NodeId(rng.gen_range(0, n_now));
                    if u == v {
                        continue;
                    }
                    if rng.gen_bool(0.7) {
                        let _ = net.stage_activation(u, v);
                    } else {
                        let _ = net.stage_deactivation(u, v);
                    }
                }
                net.commit_round();
                let changed = net.take_changed_nodes();
                cache.refresh_changed(&net, &uids, &changed);
                cache.begin_round(&net);
                let mut fresh = ViewCache::new(&net, &uids, n, with_n2);
                fresh.begin_round(&net);
                assert_eq!(
                    cache.views(),
                    fresh.views(),
                    "scenario {} seed {seed} N_2 {with_n2} round {round}: incremental views diverged",
                    scenario.name
                );
            }
        }
    }
}
