//! Differential model suite for the incremental invariant engine.
//!
//! Two layers are pinned here. At the structure level, [`DynConn`] is
//! compared against a from-scratch BFS component count under every fault
//! kind the DST adversary can produce — crash severs, churn joins, edge
//! rewires, partition cuts and their heals — including the post-batch
//! replay contract the harness uses (graph mutated fully first, deltas
//! replayed afterwards). At the harness level, a DST run with the
//! incremental engine is locked step-for-step against an identical run
//! with `set_from_scratch_checks(true)`: same fault schedule, same
//! per-round verdicts, byte-identical reports. In debug builds the
//! engine's internal BFS oracle asserts on every round of these runs as
//! well.

use adn_graph::rng::DetRng;
use adn_graph::{generators, DynConn, Edge, Graph, NodeId};
use adn_sim::{Adversary, DstState, InvariantPolicy, Network, Scenario};

/// From-scratch reference: number of connected components among nodes
/// with `alive[i]` set, by repeated BFS.
fn reference_components(graph: &Graph, alive: &[bool]) -> usize {
    let n = graph.node_count();
    let mut seen = vec![false; n];
    let mut components = 0usize;
    for s in 0..n {
        if !alive[s] || seen[s] {
            continue;
        }
        components += 1;
        seen[s] = true;
        let mut queue = std::collections::VecDeque::from([NodeId(s)]);
        while let Some(u) = queue.pop_front() {
            for &v in graph.neighbors_slice(u) {
                if alive[v.index()] && !seen[v.index()] {
                    seen[v.index()] = true;
                    queue.push_back(v);
                }
            }
        }
    }
    components
}

fn assert_agrees(conn: &DynConn, graph: &Graph, alive: &[bool], context: &str) {
    assert_eq!(
        conn.live_components(),
        reference_components(graph, alive),
        "component count diverged after {context}"
    );
    assert_eq!(
        conn.live_count(),
        alive.iter().filter(|&&a| a).count(),
        "live count diverged after {context}"
    );
}

/// Crash `u`: sever every incident edge (graph first, then replay), then
/// the crash itself — the exact event order the network produces.
fn crash_via_events(g: &mut Graph, conn: &mut DynConn, alive: &mut [bool], u: NodeId) {
    let severed: Vec<NodeId> = g.neighbors_slice(u).to_vec();
    for v in &severed {
        g.remove_edge(u, *v).unwrap();
    }
    for v in &severed {
        conn.remove_edge(u, *v, g);
    }
    conn.crash(u, g);
    alive[u.index()] = false;
}

#[test]
fn structure_matches_bfs_under_every_fault_kind() {
    let mut rng = DetRng::seed_from_u64(0xDC_0901);
    for trial in 0..25 {
        let n = 8 + (trial % 7);
        let mut g = generators::random_line_with_chords(n, n / 2, trial as u64);
        let mut conn = DynConn::from_graph(&g);
        let mut alive = vec![true; g.node_count()];
        let mut open_cut: Option<Vec<Edge>> = None;
        for step in 0..80 {
            match rng.gen_range(0, 6) {
                // Edge rewire: insert a random absent live-live edge.
                0 | 1 => {
                    let u = rng.gen_range(0, g.node_count());
                    let v = rng.gen_range(0, g.node_count());
                    if u != v && alive[u] && alive[v] && !g.has_edge(NodeId(u), NodeId(v)) {
                        g.add_edge(NodeId(u), NodeId(v)).unwrap();
                        conn.insert_edge(NodeId(u), NodeId(v));
                    }
                }
                // Edge rewire: delete a random present live-live edge.
                2 => {
                    let edges = g.edge_vec();
                    if !edges.is_empty() {
                        let e = edges[rng.gen_range(0, edges.len())];
                        if alive[e.a.index()] && alive[e.b.index()] {
                            g.remove_edge(e.a, e.b).unwrap();
                            conn.remove_edge(e.a, e.b, &g);
                        }
                    }
                }
                // Crash sever (keep at least two nodes live).
                3 => {
                    if alive.iter().filter(|&&a| a).count() > 2 {
                        let u = rng.gen_range(0, g.node_count());
                        if alive[u] {
                            crash_via_events(&mut g, &mut conn, &mut alive, NodeId(u));
                        }
                    }
                }
                // Churn join, attached to a random live node.
                4 => {
                    let live: Vec<usize> = (0..g.node_count()).filter(|&i| alive[i]).collect();
                    let at = live[rng.gen_range(0, live.len())];
                    let node = g.add_node();
                    assert_eq!(conn.add_node(), node);
                    alive.push(true);
                    g.add_edge(node, NodeId(at)).unwrap();
                    conn.insert_edge(node, NodeId(at));
                }
                // Partition: sever a whole cut as one batch (graph fully
                // mutated first, deltas replayed against the final
                // snapshot), or heal the open cut the same way.
                _ => {
                    if let Some(cut) = open_cut.take() {
                        let healed: Vec<Edge> = cut
                            .into_iter()
                            .filter(|e| alive[e.a.index()] && alive[e.b.index()])
                            .filter(|e| g.add_edge(e.a, e.b).unwrap())
                            .collect();
                        for e in &healed {
                            conn.insert_edge(e.a, e.b);
                        }
                    } else {
                        let pivot = match (0..g.node_count()).find(|&i| alive[i]) {
                            Some(p) => NodeId(p),
                            None => continue,
                        };
                        let mut in_side = vec![false; g.node_count()];
                        in_side[pivot.index()] = true;
                        let mut queue = std::collections::VecDeque::from([pivot]);
                        let target = alive.iter().filter(|&&a| a).count().div_ceil(2);
                        let mut size = 1usize;
                        while let Some(u) = queue.pop_front() {
                            if size >= target {
                                break;
                            }
                            for &v in g.neighbors_slice(u) {
                                if size < target && alive[v.index()] && !in_side[v.index()] {
                                    in_side[v.index()] = true;
                                    size += 1;
                                    queue.push_back(v);
                                }
                            }
                        }
                        let cut: Vec<Edge> = g
                            .edges()
                            .filter(|e| in_side[e.a.index()] != in_side[e.b.index()])
                            .collect();
                        for e in &cut {
                            g.remove_edge(e.a, e.b).unwrap();
                        }
                        for e in &cut {
                            conn.remove_edge(e.a, e.b, &g);
                        }
                        if !cut.is_empty() {
                            open_cut = Some(cut);
                        }
                    }
                }
            }
            assert_agrees(&conn, &g, &alive, &format!("trial {trial} step {step}"));
        }
    }
}

#[test]
fn dead_tree_edge_without_replacement_splits_and_recovers() {
    // Two triangles joined by one bridge: every triangle edge has a
    // replacement (the way around), the bridge has none. Removing the
    // bridge must take the scoped-rebuild path and split; re-inserting
    // must union back to one component.
    let mut g = Graph::new(6);
    for (a, b) in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] {
        g.add_edge(NodeId(a), NodeId(b)).unwrap();
    }
    g.add_edge(NodeId(2), NodeId(3)).unwrap(); // the bridge
    let mut conn = DynConn::from_graph(&g);
    assert!(conn.is_connected());

    // A triangle edge dies: replacement found, still one component.
    g.remove_edge(NodeId(0), NodeId(1)).unwrap();
    conn.remove_edge(NodeId(0), NodeId(1), &g);
    assert!(conn.is_connected(), "triangle edge has a replacement");

    // The bridge dies: no replacement anywhere — the component splits.
    g.remove_edge(NodeId(2), NodeId(3)).unwrap();
    conn.remove_edge(NodeId(2), NodeId(3), &g);
    assert!(!conn.is_connected(), "bridge has no replacement");
    assert_eq!(conn.live_components(), 2);
    let alive = vec![true; 6];
    assert_agrees(&conn, &g, &alive, "bridge removal");

    // Healing the bridge merges the halves again.
    g.add_edge(NodeId(2), NodeId(3)).unwrap();
    conn.insert_edge(NodeId(2), NodeId(3));
    assert!(conn.is_connected());
    assert_agrees(&conn, &g, &alive, "bridge heal");
}

/// The invariant policy the harness-level differential runs use:
/// everything armed, bounds tight enough that adversarial perturbation
/// can actually trip them.
fn differential_policy() -> InvariantPolicy {
    InvariantPolicy {
        check_connectivity: true,
        max_activated_degree: Some(3),
        max_active_edges: Some(64),
        check_uid_uniqueness: true,
    }
}

/// Builds the lockstep pair: two identical armed networks, one on the
/// incremental engine, one forced from-scratch.
fn armed_pair(scenario: &Scenario, seed: u64, n: usize) -> (Network, Network) {
    let graph = generators::random_line_with_chords(n, n / 4, seed);
    let uids: Vec<u64> = (1..=n as u64).collect();
    let mut incremental = Network::new(graph.clone());
    incremental.install_dst(DstState::new(
        Adversary::new(scenario.clone(), seed),
        differential_policy(),
        uids.clone(),
    ));
    let mut scratch = Network::new(graph);
    let mut state = DstState::new(
        Adversary::new(scenario.clone(), seed),
        differential_policy(),
        uids,
    );
    state.set_from_scratch_checks(true);
    scratch.install_dst(state);
    (incremental, scratch)
}

/// Drives both networks through the identical workload: alternating
/// staged toggle batches (activate / deactivate line chords, committed
/// as real `commit_round` batches) interleaved with idle rounds.
fn drive_lockstep(net: &mut Network, rounds: usize) {
    for r in 0..rounds {
        match r % 4 {
            0 | 1 => {
                // The backbone of `random_line_with_chords` is the line
                // 0-1-2-…, so (i, i+2) is always at distance 2.
                for i in (0..6).map(|k| 2 * k) {
                    let (u, v) = (NodeId(i), NodeId(i + 2));
                    if r % 4 == 0 {
                        let _ = net.stage_activation(u, v);
                    } else {
                        let _ = net.stage_deactivation(u, v);
                    }
                }
                net.commit_round();
            }
            2 => {
                net.commit_round(); // an empty batch is still a round
            }
            _ => net.advance_idle_rounds(1),
        }
    }
}

#[test]
fn incremental_and_from_scratch_reports_agree_across_scenarios() {
    let scenarios = [
        Scenario::failure_free(),
        Scenario::crash_stop(),
        Scenario::adversarial_edges(),
        Scenario::churn(),
        Scenario::round_skew(),
        Scenario::mixed(),
        Scenario::partition_heal(),
    ];
    for scenario in &scenarios {
        for seed in [1u64, 7, 42] {
            let (mut incremental, mut scratch) = armed_pair(scenario, seed, 24);
            drive_lockstep(&mut incremental, 40);
            drive_lockstep(&mut scratch, 40);
            let a = incremental.take_dst_report().expect("armed");
            let b = scratch.take_dst_report().expect("armed");
            assert!(a.rounds_checked > 0);
            assert_eq!(
                a.render(),
                b.render(),
                "incremental vs from-scratch diverged: scenario {} seed {seed}",
                scenario.name
            );
        }
    }
}

#[test]
fn per_round_verdicts_agree_under_interleaved_batches() {
    // Probability-1 mixed faulting under interleaved activation,
    // deactivation and idle rounds — one lockstep run differentiates the
    // incremental engine against the from-scratch checker round for
    // round rather than report for report.
    let scenario = Scenario {
        fault_budget: 24,
        per_round_probability: 1.0,
        ..Scenario::mixed()
    };
    for seed in [3u64, 11] {
        let (mut incremental, mut scratch) = armed_pair(&scenario, seed, 20);
        for r in 0..48 {
            match r % 3 {
                0 => {
                    for i in (0..8).map(|k| 2 * k) {
                        let _ = incremental.stage_activation(NodeId(i), NodeId(i + 2));
                        let _ = scratch.stage_activation(NodeId(i), NodeId(i + 2));
                    }
                    incremental.commit_round();
                    scratch.commit_round();
                }
                1 => {
                    for i in (0..8).map(|k| 2 * k) {
                        let _ = incremental.stage_deactivation(NodeId(i), NodeId(i + 2));
                        let _ = scratch.stage_deactivation(NodeId(i), NodeId(i + 2));
                    }
                    incremental.commit_round();
                    scratch.commit_round();
                }
                _ => {
                    incremental.advance_idle_rounds(1);
                    scratch.advance_idle_rounds(1);
                }
            }
            let via_events = incremental.dst_state().expect("armed");
            let via_scan = scratch.dst_state().expect("armed");
            assert_eq!(
                via_events.violations(),
                via_scan.violations(),
                "per-round verdicts diverged at round {r} (seed {seed})"
            );
            assert_eq!(via_events.crashed(), via_scan.crashed());
        }
        let a = incremental.take_dst_report().expect("armed");
        let b = scratch.take_dst_report().expect("armed");
        assert_eq!(a.render(), b.render());
        assert!(
            !a.faults.is_empty(),
            "probability-1 mixed run injected faults"
        );
    }
}

#[test]
fn crash_heavy_run_records_identical_connectivity_violations() {
    // Hub-targeted crashes on a star: the centre dies early, every leaf
    // is stranded, and the connectivity invariant must fire identically
    // through the event-fed forest and the full BFS.
    let scenario = Scenario {
        fault_budget: 4,
        per_round_probability: 1.0,
        ..Scenario::crash_stop().with_target(adn_sim::dst::TargetPolicy::MaxDegree)
    };
    let n = 12;
    let graph = generators::star(n);
    let uids: Vec<u64> = (1..=n as u64).collect();
    let mut incremental = Network::new(graph.clone());
    incremental.install_dst(DstState::new(
        Adversary::new(scenario.clone(), 5),
        differential_policy(),
        uids.clone(),
    ));
    let mut scratch = Network::new(graph);
    let mut state = DstState::new(Adversary::new(scenario, 5), differential_policy(), uids);
    state.set_from_scratch_checks(true);
    scratch.install_dst(state);
    for _ in 0..12 {
        incremental.advance_idle_rounds(1);
        scratch.advance_idle_rounds(1);
    }
    let a = incremental.take_dst_report().expect("armed");
    let b = scratch.take_dst_report().expect("armed");
    assert_eq!(a.render(), b.render());
    assert!(
        a.violations.iter().any(|v| v.invariant == "connectivity"),
        "hub crash must strand the leaves: {:?}",
        a.violations
    );
}
