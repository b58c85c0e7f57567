//! Differential model suite for the DST layer's invariant checks.
//!
//! Every test drives an armed network and checks the verdicts the DST
//! state records at each round boundary against verdicts the test
//! computes from scratch on the same snapshot: a BFS component count over
//! the live nodes, an ascending activated-degree scan and the edge count.
//! The state keeps connectivity as a cached verdict and re-checks it only
//! after an event that can change it, so besides the scenario sweeps
//! there is one case per re-check rule — a removal whose only witness
//! goes in the same round, a churn node cut off from its attach edge, a
//! heal that reconnects a partition, crashes of a cut vertex and of the
//! last stranded node — and one for the path that re-checks nothing: a
//! jump wave whose drops are all witnessed. In debug builds the state's
//! own BFS oracle asserts on every round of these runs as well.

use adn_graph::{generators, Edge, Graph, NodeId};
use adn_sim::dst::TargetPolicy;
use adn_sim::{Adversary, DstState, InvariantPolicy, Network, Scenario, WaveActivation};

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

/// The invariant policy the harness-level differential runs use: bounds
/// tight enough that adversarial perturbation can actually trip them.
fn differential_policy() -> InvariantPolicy {
    InvariantPolicy {
        max_activated_degree: Some(3),
        max_active_edges: Some(64),
    }
}

/// `graph` armed with `scenario` under [`differential_policy`], UIDs
/// `1..=n`.
fn armed_on(graph: Graph, scenario: Scenario, seed: u64) -> Network {
    let n = graph.node_count();
    let mut net = Network::new(graph);
    net.install_dst(DstState::new(
        Adversary::new(scenario, seed),
        differential_policy(),
        (1..=n as u64).collect(),
    ));
    net
}

/// An armed network on a line with chords, UIDs `1..=n`.
fn armed(scenario: &Scenario, seed: u64, n: usize) -> Network {
    let graph = generators::random_line_with_chords(n, n / 4, seed);
    armed_on(graph, scenario.clone(), seed)
}

/// The graph on `0..n` with the given edges.
fn graph_of(n: usize, edges: &[(usize, usize)]) -> Graph {
    Graph::from_edges(n, edges.iter().map(|&(a, b)| (NodeId(a), NodeId(b)))).unwrap()
}

/// Whether the live subgraph of the network's snapshot is connected,
/// from scratch.
fn live_connected(net: &Network) -> bool {
    let alive: Vec<bool> = net.graph().nodes().map(|u| !net.is_crashed(u)).collect();
    reference_components(net.graph(), &alive) <= 1
}

/// The violations [`differential_policy`] must record on the network's
/// current snapshot, computed from scratch in the DST state's check
/// order. UIDs stay unique (the initial ones are distinct and joins hand
/// out fresh ones), so that check never fires.
fn reference_verdicts(net: &Network) -> Vec<String> {
    let graph = net.graph();
    let alive: Vec<bool> = graph.nodes().map(|u| !net.is_crashed(u)).collect();
    let mut verdicts = Vec::new();
    if reference_components(graph, &alive) > 1 {
        let live = alive.iter().filter(|&&a| a).count();
        verdicts.push(format!(
            "connectivity: live subgraph disconnected ({live} live nodes)"
        ));
    }
    if let Some(u) = graph.nodes().find(|&u| net.activated_degree(u) > 3) {
        let d = net.activated_degree(u);
        verdicts.push(format!(
            "activated_degree: node {u} has activated degree {d} > bound 3"
        ));
    }
    let m = graph.edge_count();
    if m > 64 {
        verdicts.push(format!("edge_budget: {m} active edges > bound 64"));
    }
    verdicts
}

/// Checks the violations recorded at the last round boundary — those
/// past `checked` — against [`reference_verdicts`], and the crashed set
/// against the network's, then moves `checked` past them.
fn assert_round_verdicts(net: &Network, checked: &mut usize, context: &str) {
    let state = net.dst_state().expect("armed");
    let recorded: Vec<String> = state.violations()[*checked..]
        .iter()
        .map(|v| format!("{}: {}", v.invariant, v.detail))
        .collect();
    assert_eq!(recorded, reference_verdicts(net), "{context}");
    let crashed: Vec<NodeId> = net.graph().nodes().filter(|&u| net.is_crashed(u)).collect();
    assert!(state.crashed().iter().copied().eq(crashed), "{context}");
    *checked = state.violations().len();
}

/// Drives the network through alternating staged toggle batches
/// (activate / deactivate line chords, committed as real `commit_round`
/// batches) interleaved with idle rounds, checking every round's
/// verdicts.
fn drive_checked(net: &mut Network, rounds: usize, label: &str) {
    let mut checked = 0;
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
        assert_round_verdicts(net, &mut checked, &format!("{label} round {r}"));
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
            let mut net = armed(scenario, seed, 24);
            drive_checked(
                &mut net,
                40,
                &format!("scenario {} seed {seed}", scenario.name),
            );
            let report = net.take_dst_report().expect("armed");
            assert_eq!(report.rounds_checked, 40);
        }
    }
}

#[test]
fn per_round_verdicts_agree_under_interleaved_batches() {
    // Probability-1 mixed faulting under interleaved activation,
    // deactivation and idle rounds, the incremental engine's verdicts
    // checked against the from-scratch reference round for round.
    let scenario = Scenario {
        fault_budget: 24,
        per_round_probability: 1.0,
        ..Scenario::mixed()
    };
    for seed in [3u64, 11] {
        let mut net = armed(&scenario, seed, 20);
        let mut checked = 0;
        for r in 0..48 {
            match r % 3 {
                0 => {
                    for i in (0..8).map(|k| 2 * k) {
                        let _ = net.stage_activation(NodeId(i), NodeId(i + 2));
                    }
                    net.commit_round();
                }
                1 => {
                    for i in (0..8).map(|k| 2 * k) {
                        let _ = net.stage_deactivation(NodeId(i), NodeId(i + 2));
                    }
                    net.commit_round();
                }
                _ => net.advance_idle_rounds(1),
            }
            assert_round_verdicts(&net, &mut checked, &format!("seed {seed} round {r}"));
        }
        let report = net.take_dst_report().expect("armed");
        assert!(
            !report.faults.is_empty(),
            "probability-1 mixed run injected faults"
        );
    }
}

#[test]
fn crash_heavy_run_records_identical_connectivity_violations() {
    // Hub-targeted crashes on a star: the centre dies early, every leaf
    // is stranded, and the connectivity invariant must fire through the
    // cached verdict exactly when the from-scratch BFS says so.
    let scenario = Scenario {
        fault_budget: 4,
        per_round_probability: 1.0,
        ..Scenario::crash_stop().with_target(TargetPolicy::MaxDegree)
    };
    let mut net = armed_on(generators::star(12), scenario, 5);
    let mut checked = 0;
    for r in 0..12 {
        net.advance_idle_rounds(1);
        assert_round_verdicts(&net, &mut checked, &format!("round {r}"));
    }
    let report = net.take_dst_report().expect("armed");
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.invariant == "connectivity"),
        "hub crash must strand the leaves: {:?}",
        report.violations
    );
}

#[test]
fn removal_whose_only_witness_goes_in_the_same_round_is_rechecked() {
    // Triangles {0,1,2} and {2,3,4} sharing node 2. Dropping {3,4} leaves
    // the 2-path 3-2-4, so the verdict stands. Dropping {0,1} and {1,2}
    // together strands node 1: {0,1}'s only common neighbour, 2, goes
    // with the second edge of the same round.
    let graph = graph_of(5, &[(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]);
    let mut net = armed_on(graph, Scenario::failure_free(), 1);
    let mut checked = 0;
    net.stage_deactivation(NodeId(3), NodeId(4)).unwrap();
    net.commit_round();
    assert_round_verdicts(&net, &mut checked, "witnessed drop");
    assert!(live_connected(&net));
    net.stage_deactivation(NodeId(0), NodeId(1)).unwrap();
    net.stage_deactivation(NodeId(1), NodeId(2)).unwrap();
    net.commit_round();
    assert_round_verdicts(&net, &mut checked, "drop whose witness goes too");
    assert!(!live_connected(&net));
    net.advance_idle_rounds(1);
    assert_round_verdicts(&net, &mut checked, "idle round after the split");
}

#[test]
fn churn_node_cut_off_from_its_attach_edge_is_rechecked() {
    // One join, hung on the line's highest-degree node. The fresh node
    // first jumps from its attach node to a neighbour of it (the drop is
    // witnessed, the verdict stands), then loses that edge too and is
    // stranded.
    let scenario = Scenario {
        fault_budget: 1,
        per_round_probability: 1.0,
        ..Scenario::churn().with_target(TargetPolicy::MaxDegree)
    };
    let mut net = armed_on(generators::line(6), scenario, 3);
    let mut checked = 0;
    net.advance_idle_rounds(1);
    assert_round_verdicts(&net, &mut checked, "join");
    let state = net.dst_state().expect("armed");
    let Some(adn_sim::FaultEvent::Join {
        node, attached_to, ..
    }) = state.fault_log().last().map(|f| f.event.clone())
    else {
        panic!(
            "the first round must inject the join: {:?}",
            state.fault_log()
        );
    };
    assert!(net.graph().has_edge(node, attached_to));
    assert!(live_connected(&net));
    let hop = net.graph().neighbors_slice(attached_to)[0];
    assert_ne!(hop, node);
    net.stage_activation(node, hop).unwrap();
    net.stage_deactivation(node, attached_to).unwrap();
    net.commit_round();
    assert_round_verdicts(&net, &mut checked, "attach edge swapped by a jump");
    assert!(live_connected(&net));
    net.stage_deactivation(node, hop).unwrap();
    net.commit_round();
    assert_round_verdicts(&net, &mut checked, "last edge of the churn node dropped");
    assert!(!live_connected(&net));
}

#[test]
fn heal_that_reconnects_a_partition_is_rechecked() {
    let scenario = Scenario {
        fault_budget: 1,
        per_round_probability: 1.0,
        window_start: 1,
        heal_delay: 3,
        ..Scenario::partition_heal()
    };
    let mut net = armed_on(generators::ring(12), scenario, 5);
    let mut checked = 0;
    let (mut cut, mut healed) = (false, false);
    for r in 0..8 {
        net.advance_idle_rounds(1);
        assert_round_verdicts(&net, &mut checked, &format!("round {r}"));
        if !live_connected(&net) {
            cut = true;
        } else if cut {
            healed = true;
        }
    }
    assert!(cut && healed, "the partition must open and heal");
}

#[test]
fn crashes_of_a_cut_vertex_and_of_the_last_stranded_node_are_rechecked() {
    // Two 4-cliques joined through node 4, the one node of degree 2.
    // Lowest-degree crashes take node 4 first (the live subgraph splits),
    // then the left clique one node at a time; the crash of its last node
    // leaves the right clique alone, connected again.
    let mut edges = vec![(3, 4), (4, 5)];
    for clique in [[0, 1, 2, 3], [5, 6, 7, 8]] {
        for (i, &a) in clique.iter().enumerate() {
            edges.extend(clique[i + 1..].iter().map(|&b| (a, b)));
        }
    }
    let graph = graph_of(9, &edges);
    let scenario = Scenario {
        fault_budget: 5,
        per_round_probability: 1.0,
        ..Scenario::crash_stop().with_target(TargetPolicy::MinDegree)
    };
    let mut net = armed_on(graph, scenario, 9);
    let mut checked = 0;
    let mut verdicts = Vec::new();
    for r in 0..6 {
        net.advance_idle_rounds(1);
        assert_round_verdicts(&net, &mut checked, &format!("round {r}"));
        verdicts.push(live_connected(&net));
    }
    let crashed: Vec<usize> = (0..9).filter(|&i| net.is_crashed(NodeId(i))).collect();
    assert_eq!(crashed, [0, 1, 2, 3, 4]);
    assert_eq!(verdicts, [false, false, false, false, true, true]);
}

#[test]
fn jump_wave_with_witnessed_drops_keeps_its_verdict() {
    // Doubling waves on a line rooted at 0: at step s every multiple of
    // 2s jumps from its parent i - s to its grandparent i - 2s, which
    // stays adjacent to i - s (an odd multiple of s does not move), so
    // every dropped edge is bridged by a 2-path.
    let n = 32;
    let mut net = armed_on(generators::line(n), Scenario::failure_free(), 1);
    let mut checked = 0;
    let mut step = 1;
    while 2 * step < n {
        let movers: Vec<usize> = (2 * step..n).step_by(2 * step).collect();
        let wave: Vec<WaveActivation> = movers
            .iter()
            .map(|&i| WaveActivation {
                initiator: NodeId(i),
                target: NodeId(i - 2 * step),
                witness: NodeId(i - step),
            })
            .collect();
        let drops: Vec<Edge> = movers
            .iter()
            .map(|&i| Edge::new(NodeId(i), NodeId(i - step)))
            .collect();
        net.stage_jump_wave(&wave, &drops).unwrap();
        net.commit_round();
        assert_round_verdicts(&net, &mut checked, &format!("wave at step {step}"));
        assert!(live_connected(&net));
        step *= 2;
    }
    assert_eq!(net.graph().edge_count(), n - 1);
}
