//! Differential suite for the network's round-event bus.
//!
//! Every observable of [`Network`] — engine changed-nodes, DST replay,
//! metrics, the per-round trace — is now a projection of one recorded
//! [`RoundEvent`] stream. These tests drive DST-armed networks through
//! mixed / partition / churn / crash fault schedules with *every*
//! consumer armed at once and pin the stream against from-scratch
//! reference computations:
//!
//! * replaying the recorded events over a snapshot of the initial graph
//!   reproduces the live snapshot edge for edge;
//! * the drained changed-node projection equals what the raw stream
//!   implies;
//! * each traced round's `max_degree` (served by the incremental degree
//!   histogram) equals a from-scratch scan of the replayed mirror at
//!   that round boundary — in release builds too, where the histogram's
//!   `debug_assert` oracle is compiled out;
//! * the elapsed-round accounting (`EdgeMetrics::rounds`,
//!   `activations_per_round`) matches the boundary events.

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

/// The changed-node projection of an event window: endpoints of every
/// edge mutation, sorted and deduplicated — the reference
/// `take_changed_nodes` must match.
fn changed_nodes_of(events: &[RoundEvent]) -> Vec<NodeId> {
    let mut changed: Vec<NodeId> = events
        .iter()
        .filter_map(|e| match e {
            RoundEvent::Edge { edge, .. } => Some([edge.a, edge.b]),
            _ => None,
        })
        .flatten()
        .collect();
    changed.sort_unstable();
    changed.dedup();
    changed
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
            // Every consumer at once: raw recorder, engine tap, DST tap
            // (armed by install_dst) and the traced ledger.
            net.set_event_recording(true);
            net.set_change_tracking(true);
            net.set_trace_enabled(true);

            let mut mirror = initial;
            let mut boundaries = 0usize;
            let mut idles = 0usize;
            let mut traced_max_degrees = Vec::new();
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
                let changed = net.take_changed_nodes();

                // The engine tap's drain is a projection of the stream.
                assert_eq!(
                    changed,
                    changed_nodes_of(&events),
                    "scenario {} seed {seed} round {round}: changed-node projection diverged",
                    scenario.name
                );

                // Replay into the mirror; sample it at every boundary for
                // the traced max_degree cross-check.
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
                            traced_max_degrees.push(mirror.max_degree());
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

            // Trace: one entry per committed round, max_degree equal to
            // the from-scratch scan of the mirror at that boundary.
            let trace = net.trace();
            assert_eq!(trace.len(), boundaries);
            for (stats, &expected) in trace.iter().zip(&traced_max_degrees) {
                assert_eq!(
                    stats.max_degree, expected,
                    "scenario {} seed {seed} round {}: traced max_degree diverged",
                    scenario.name, stats.round
                );
            }

            // Elapsed-round accounting: every boundary and every idle
            // charge (including adversarial skew) is one metered round
            // contributing its activation count (0 for idles).
            let metrics = net.metrics();
            assert_eq!(metrics.rounds, boundaries + idles);
            assert_eq!(metrics.recorded_rounds(), boundaries + idles);
            let committed_total: usize = per_round_activations.iter().sum();
            assert_eq!(metrics.total_activations, committed_total);
        }
    }
}

#[test]
fn trace_from_scratch_knob_matches_incremental_histogram() {
    // The benchmark comparison knob must be observationally inert: the
    // from-scratch scan and the histogram serve identical traces under a
    // faulty schedule (this is the release-build cross-check; debug
    // builds also assert it inside every traced commit).
    let scenario = Scenario::mixed().with_fault_budget(8);
    for seed in 0u64..4 {
        let run = |from_scratch: bool| {
            let mut rng = DetRng::seed_from_u64(0x7AC3 ^ seed);
            let n = 24;
            let mut net = Network::new(generators::random_line_with_chords(n, n / 2, seed));
            net.install_dst(DstState::new(
                Adversary::new(scenario.clone(), seed + 2),
                InvariantPolicy::default(),
                (1..=n as u64).collect(),
            ));
            net.set_trace_from_scratch(from_scratch);
            net.set_trace_enabled(true);
            for _ in 0..40 {
                for _ in 0..rng.gen_range(0, 5) {
                    let n_now = net.node_count();
                    let u = NodeId(rng.gen_range(0, n_now));
                    let v = NodeId(rng.gen_range(0, n_now));
                    if u != v {
                        let _ = net.stage_activation(u, v);
                    }
                }
                net.commit_round();
            }
            (net.take_trace(), net.metrics().clone())
        };
        let incremental = run(false);
        let scratch = run(true);
        assert_eq!(incremental, scratch, "seed {seed}: knob changed the trace");
    }
}
