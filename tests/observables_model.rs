//! Differential suite for the network's round-event bus.
//!
//! Both observers of [`Network`] — DST replay and the raw recorder — are
//! taps on one recorded [`RoundEvent`] stream. These tests drive
//! DST-armed networks through mixed / partition / churn / crash fault
//! schedules with both taps armed at once and pin the stream against
//! from-scratch reference computations:
//!
//! * replaying the recorded events over a snapshot of the initial graph
//!   reproduces the live snapshot edge for edge;
//! * the metered totals and maxima (`EdgeMetrics::rounds`,
//!   `total_activations`, `max_activations_in_round`) match the boundary
//!   events.

use actively_dynamic_networks::graph::rng::DetRng;
use actively_dynamic_networks::graph::{generators, Edge, Graph, NodeId};
use actively_dynamic_networks::sim::dst::{Adversary, InvariantPolicy, Scenario};
use actively_dynamic_networks::sim::{DstState, Network, RoundEvent};

/// Replays one event into the from-scratch mirror graph.
fn apply_to_mirror(mirror: &mut Graph, event: &RoundEvent) {
    match *event {
        RoundEvent::Edge { edge, added, .. } => {
            let changed = if added {
                mirror.add_edge(edge.a, edge.b)
            } else {
                mirror.remove_edge(edge.a, edge.b)
            };
            assert_eq!(
                changed,
                Ok(true),
                "recorded {event:?} must mutate the mirror"
            );
        }
        RoundEvent::NodeJoined(node) => {
            assert_eq!(mirror.add_node(), node, "joins arrive in id order");
        }
        RoundEvent::NodeCrashed(_) | RoundEvent::RoundCommitted { .. } | RoundEvent::IdleRound => {}
    }
}

#[test]
fn recorded_stream_replays_to_snapshot_under_faults() {
    let scenarios = [
        Scenario::mixed().with_fault_budget(10),
        Scenario {
            per_round_probability: 0.6,
            ..Scenario::partition_heal().with_fault_budget(4)
        },
        Scenario {
            per_round_probability: 0.8,
            ..Scenario::churn().with_fault_budget(6)
        },
        Scenario {
            per_round_probability: 0.5,
            ..Scenario::crash_stop().with_fault_budget(5)
        },
    ];
    for (which, scenario) in scenarios.into_iter().enumerate() {
        for seed in 0u64..6 {
            let mut rng = DetRng::seed_from_u64(0xB5_0B5 ^ seed.wrapping_mul(173) ^ (which as u64));
            let n = 8 + rng.gen_range(0, 17);
            let initial = generators::random_line_with_chords(n, n / 2, seed);
            let mut net = Network::new(initial.clone());
            net.install_dst(DstState::new(
                Adversary::new(scenario.clone(), seed.wrapping_mul(11) + 5),
                InvariantPolicy::default(),
                (1..=n as u64).collect(),
            ));
            // Both taps at once: raw recorder and DST tap (armed by
            // install_dst).
            net.set_event_recording(true);

            let mut mirror = initial;
            let mut boundaries = 0usize;
            let mut idles = 0usize;
            let mut per_round_activations = Vec::new();
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
                if rng.gen_bool(0.2) {
                    net.advance_idle_rounds(1 + rng.gen_range(0, 2));
                }

                let events = net.take_events();

                // Replay into the mirror.
                let mut window_activations = Vec::new();
                for (i, event) in events.iter().enumerate() {
                    apply_to_mirror(&mut mirror, event);
                    match *event {
                        RoundEvent::RoundCommitted {
                            activations,
                            deactivations,
                            ..
                        } => {
                            // The commit's own edge events close in on its
                            // boundary: the adds, strictly ascending, then
                            // the removes, strictly ascending.
                            let (adds, removes) =
                                events[i - activations - deactivations..i].split_at(activations);
                            for (run, added) in [(adds, true), (removes, false)] {
                                let edges: Vec<Edge> = run
                                    .iter()
                                    .map(|e| match *e {
                                        RoundEvent::Edge { edge, added: a, .. } if a == added => {
                                            edge
                                        }
                                        _ => panic!(
                                            "scenario {} seed {seed} round {round}: {e:?} \
                                             out of place in a commit run",
                                            scenario.name
                                        ),
                                    })
                                    .collect();
                                assert!(
                                    edges.windows(2).all(|w| w[0] < w[1]),
                                    "scenario {} seed {seed} round {round}: commit run \
                                     not strictly ascending: {edges:?}",
                                    scenario.name
                                );
                            }
                            boundaries += 1;
                            window_activations.push(activations);
                            let adds = events
                                .iter()
                                .filter(|e| matches!(e, RoundEvent::Edge { added: true, .. }))
                                .count();
                            let removes = events
                                .iter()
                                .filter(|e| matches!(e, RoundEvent::Edge { added: false, .. }))
                                .count();
                            // One commit per drain window: the committed
                            // counts are bounded by the window's edge
                            // events (faults add more, stages never lost).
                            assert!(activations <= adds && deactivations <= removes);
                        }
                        RoundEvent::IdleRound => idles += 1,
                        _ => {}
                    }
                }
                per_round_activations.extend(window_activations);
                assert_eq!(
                    &mirror,
                    net.graph(),
                    "scenario {} seed {seed} round {round}: replayed mirror diverged",
                    scenario.name
                );
            }

            // Elapsed-round accounting: every boundary and every idle
            // charge (including adversarial skew) is one metered round
            // contributing its activation count (0 for idles).
            let metrics = net.metrics();
            assert_eq!(metrics.rounds, boundaries + idles);
            let committed_total: usize = per_round_activations.iter().sum();
            assert_eq!(metrics.total_activations, committed_total);
            let committed_max = per_round_activations.iter().copied().max().unwrap_or(0);
            assert_eq!(metrics.max_activations_in_round, committed_max);
        }
    }
}
