//! Seeded property sweep over `lower_bounds.rs` and `outcome.rs`: on
//! generated instances, no measured execution may ever beat the paper's
//! proven lower bounds, and the dissemination accounting in the shared
//! outcome type must balance exactly.

use actively_dynamic_networks::prelude::*;
use adn_core::lower_bounds;
use adn_graph::rng::DetRng;

#[test]
fn no_algorithm_beats_the_line_time_lower_bound() {
    // Lemma 6.1 / D.2: any strategy solving Depth-log n Tree from a
    // spanning line needs at least `line_time_lower_bound(n)` rounds. A
    // measured round count below it would mean either the simulator
    // under-meters rounds or the bound is computed wrong.
    let mut rng = DetRng::seed_from_u64(0x10_BB);
    for _ in 0..10 {
        let n = rng.gen_range(8, 100);
        let seed = rng.next_u64() % 1000;
        let graph = generators::line(n);
        let bound = lower_bounds::line_time_lower_bound(n);
        for algorithm in registry() {
            if !algorithm.supports(&graph) {
                continue;
            }
            let uids = UidMap::new(n, UidAssignment::RandomPermutation { seed });
            let outcome = algorithm
                .run(&graph, &uids, &RunConfig::default())
                .unwrap_or_else(|e| panic!("{} on line n={n}: {e}", algorithm.name()));
            assert!(
                outcome.rounds >= bound,
                "{} on line n={n} (seed {seed}): measured {} rounds < lower bound {bound}",
                algorithm.name(),
                outcome.rounds
            );
        }
    }
}

#[test]
fn no_reconfiguring_algorithm_beats_the_activation_lower_bound() {
    // Lemma D.3: solving Depth-log n Tree from a spanning line requires
    // at least n - 1 - 2 log n activations (flooding is exempt: it never
    // reconfigures and does not solve the problem).
    let mut rng = DetRng::seed_from_u64(0xAC7);
    for _ in 0..8 {
        let n = rng.gen_range(12, 100);
        let seed = rng.next_u64() % 1000;
        let graph = generators::line(n);
        let bound = lower_bounds::centralized_total_activation_lower_bound(n);
        for algorithm in registry() {
            if algorithm.spec().id == "flooding" || !algorithm.supports(&graph) {
                continue;
            }
            let uids = UidMap::new(n, UidAssignment::RandomPermutation { seed });
            let outcome = algorithm
                .run(&graph, &uids, &RunConfig::default())
                .unwrap_or_else(|e| panic!("{} on line n={n}: {e}", algorithm.name()));
            assert!(
                outcome.metrics.total_activations >= bound,
                "{} on line n={n} (seed {seed}): {} activations < lower bound {bound}",
                algorithm.name(),
                outcome.metrics.total_activations
            );
        }
    }
}

#[test]
fn distributed_bound_is_respected_on_increasing_order_rings() {
    // Theorem 6.4 applies to comparison-based distributed algorithms on
    // the increasing-order ring; GraphToStar is the paper's witness.
    for n in [64usize, 128] {
        let uids = UidMap::new(n, UidAssignment::Sequential);
        let outcome = GraphToStar
            .run(&generators::ring(n), &uids, &RunConfig::default())
            .unwrap();
        let bound = lower_bounds::distributed_total_activation_lower_bound(n);
        assert!(
            outcome.metrics.total_activations >= bound,
            "n={n}: {} activations < distributed lower bound {bound}",
            outcome.metrics.total_activations
        );
    }
}

#[test]
fn flooding_token_accounting_balances_exactly() {
    // Flooding injects exactly one token per node; full dissemination
    // replicates each to all n nodes, so tokens_per_node must be the
    // constant n and sum to n² — on every generated family.
    let mut rng = DetRng::seed_from_u64(0x70_4E);
    for _ in 0..10 {
        let family = GraphFamily::ALL[rng.gen_range(0, GraphFamily::ALL.len())];
        let size = rng.gen_range(6, 48);
        let seed = rng.next_u64() % 1000;
        let graph = family.generate(size, seed);
        let n = graph.node_count();
        let uids = UidMap::new(n, UidAssignment::RandomPermutation { seed });
        let outcome = Flooding
            .run(&graph, &uids, &RunConfig::default())
            .unwrap_or_else(|e| panic!("flooding on {family} n={n}: {e}"));
        let label = format!("flooding on {family} (n={n}, seed={seed})");
        assert_eq!(outcome.tokens_per_node.len(), n, "{label}");
        assert!(
            outcome.tokens_per_node.iter().all(|&t| t == n),
            "{label}: {:?}",
            outcome.tokens_per_node
        );
        let injected = n; // one token per node
        assert_eq!(
            outcome.tokens_per_node.iter().sum::<usize>(),
            injected * n,
            "{label}: token sum does not balance"
        );
        // Flooding never touches edges; the outcome must reflect that.
        assert_eq!(outcome.metrics.total_activations, 0, "{label}");
        assert_eq!(
            outcome.final_graph.edge_count(),
            outcome.metrics.max_active_edges_total,
            "{label}"
        );
    }
}

#[test]
fn recorded_stream_accounting_matches_every_algorithms_outcome() {
    // The outcome's meters are folds of the network's round-event bus.
    // Running any registered algorithm on a recorder-armed network must
    // yield a stream whose boundary events reproduce `rounds` and
    // `total_activations` exactly, and whose edge events replayed over
    // the initial graph land on the final graph edge for edge.
    let mut rng = DetRng::seed_from_u64(0xEB_05);
    for _ in 0..4 {
        let n = rng.gen_range(8, 48);
        let seed = rng.next_u64() % 1000;
        let graph = generators::line(n);
        for algorithm in registry() {
            if !algorithm.supports(&graph) {
                continue;
            }
            let uids = UidMap::new(n, UidAssignment::RandomPermutation { seed });
            let mut net = Network::new(graph.clone());
            net.set_event_recording(true);
            let outcome = algorithm
                .execute(&mut net, &uids, &RunConfig::default())
                .unwrap_or_else(|e| panic!("{} on line n={n}: {e}", algorithm.name()));
            let label = format!("{} on line n={n} (seed {seed})", algorithm.name());
            let mut mirror = graph.clone();
            let mut boundaries = 0usize;
            let mut idles = 0usize;
            let mut activation_sum = 0usize;
            for event in net.take_events() {
                match event {
                    RoundEvent::Edge { edge, added, .. } => {
                        let changed = if added {
                            mirror.add_edge(edge.a, edge.b)
                        } else {
                            mirror.remove_edge(edge.a, edge.b)
                        };
                        assert_eq!(changed, Ok(true), "{label}: {event:?} must mutate");
                    }
                    RoundEvent::RoundCommitted { activations, .. } => {
                        boundaries += 1;
                        activation_sum += activations;
                    }
                    RoundEvent::IdleRound => idles += 1,
                    RoundEvent::NodeJoined(_) | RoundEvent::NodeCrashed(_) => {
                        panic!("{label}: churn event {event:?} without faults")
                    }
                }
            }
            assert_eq!(outcome.rounds, boundaries + idles, "{label}: round fold");
            assert_eq!(
                outcome.metrics.total_activations, activation_sum,
                "{label}: activation fold"
            );
            assert_eq!(mirror, outcome.final_graph, "{label}: replayed mirror");
        }
    }
}

#[test]
fn flooding_recorded_stream_contains_no_edge_events() {
    // Flooding is the no-reconfiguration baseline: its recorded stream
    // must be pure round boundaries — not a single edge mutation — on
    // every generated family, matching its zero activation meter.
    let mut rng = DetRng::seed_from_u64(0xF_100D);
    for _ in 0..6 {
        let family = GraphFamily::ALL[rng.gen_range(0, GraphFamily::ALL.len())];
        let size = rng.gen_range(6, 40);
        let seed = rng.next_u64() % 1000;
        let graph = family.generate(size, seed);
        let n = graph.node_count();
        let uids = UidMap::new(n, UidAssignment::RandomPermutation { seed });
        let flooding = find_algorithm("flooding").expect("flooding is registered");
        let mut net = Network::new(graph.clone());
        net.set_event_recording(true);
        let outcome = flooding
            .execute(&mut net, &uids, &RunConfig::default())
            .unwrap_or_else(|e| panic!("flooding on {family} n={n}: {e}"));
        let events = net.take_events();
        let label = format!("flooding on {family} (n={n}, seed={seed})");
        assert!(!events.is_empty(), "{label}: flooding meters rounds");
        assert!(
            events
                .iter()
                .all(|e| matches!(e, RoundEvent::RoundCommitted { .. } | RoundEvent::IdleRound)),
            "{label}: non-boundary event in {events:?}"
        );
        assert_eq!(events.len(), outcome.rounds, "{label}: one event per round");
        assert_eq!(net.graph(), &graph, "{label}: flooding never touches edges");
    }
}

#[test]
fn non_disseminating_outcomes_report_no_tokens() {
    // The shared outcome type must not leak dissemination fields into
    // transformation-only runs.
    let mut rng = DetRng::seed_from_u64(0x0E);
    for _ in 0..6 {
        let n = rng.gen_range(8, 40);
        let seed = rng.next_u64() % 1000;
        let graph = generators::random_tree(n, seed);
        let uids = UidMap::new(n, UidAssignment::RandomPermutation { seed });
        let outcome = GraphToStar
            .run(&graph, &uids, &RunConfig::default())
            .unwrap();
        assert!(outcome.tokens_per_node.is_empty());
        assert_eq!(outcome.rounds, outcome.metrics.rounds);
        assert!(outcome.dst.is_none());
    }
}
