//! Differential model tests for the asynchronous runtime.
//!
//! Three obligations of the `adn-runtime` subsystem, checked from the
//! facade so the whole public path (`run` → engine dispatch → scheduler
//! → outcome) is exercised:
//!
//! 1. the seeded scheduler replays **byte-identically** from one `u64`;
//! 2. on delay-free schedules the asynchronous engine reaches the same
//!    outcome as the synchronous engine (and the tree actors the same
//!    tree as the synchronous subroutine under *any* knobs);
//! 3. Dijkstra–Scholten never declares termination with a message still
//!    in flight, across a seed sweep of adversarial delivery schedules —
//!    including schedules where the DST adversary **crashes an actor
//!    mid-phase** with unacked sends outstanding;
//! 4. the committee algorithms (`GraphToStar`, `GraphToWreath`) reach the
//!    synchronous engine's committee structures and edge work on the
//!    asynchronous engine, on delay-free and adversarial schedules,
//!    across sizes, each run with one report counting every round it
//!    committed;
//! 5. under the DST adversary's churn and crash scenarios every
//!    asynchronous algorithm completes or fails with a clean error, and
//!    seeded runs replay their runtime and DST reports byte-identically.

use actively_dynamic_networks::core::subroutines::{
    run_line_to_tree, run_runtime_line_to_tree, run_runtime_star, run_runtime_wreath,
    LineToTreeConfig,
};
use actively_dynamic_networks::prelude::*;
use actively_dynamic_networks::runtime::flood::{flood_actors, FloodActor, TokenSet};
use actively_dynamic_networks::runtime::{AsyncProgram, Context};
use actively_dynamic_networks::sim::dst::{Adversary, DstState, InvariantPolicy};

/// The nastiest delivery schedule the seeded scheduler offers: wide
/// reorder window, per-message delays and persistently asymmetric links.
const ADVERSARIAL: AsyncKnobs = AsyncKnobs {
    reorder_window: 6,
    max_link_delay: 3,
    asymmetric_delay: true,
};

/// A seeded scheduler under the [`ADVERSARIAL`] knobs.
fn adversarial(sched_seed: u64) -> SeededScheduler {
    SeededScheduler::new(sched_seed).with_knobs(ADVERSARIAL)
}

/// A DST scenario that crashes one node, at the boundary before round
/// `round` (the first commit closes round 1, so 2 is the earliest).
fn one_crash_at(round: usize) -> Scenario {
    Scenario {
        per_round_probability: 1.0,
        ..Scenario::crash_stop()
    }
    .with_fault_budget(1)
    .with_window(round, Some(round))
}

fn flood_outcome(
    family: GraphFamily,
    n: usize,
    seed: u64,
    engine: EngineMode,
) -> TransformationOutcome {
    let graph = family.generate(n, seed);
    let uids = UidMap::new(graph.node_count(), UidAssignment::Sequential);
    let config = RunConfig::default().with_engine(engine);
    Flooding.run(&graph, &uids, &config).expect("flooding run")
}

#[test]
fn seeded_scheduler_replays_byte_identically() {
    for (family, n) in [
        (GraphFamily::Ring, 24),
        (GraphFamily::Grid, 25),
        (GraphFamily::RandomTree, 40),
    ] {
        for sched_seed in [0u64, 7, 0xDEAD_BEEF] {
            let a = flood_outcome(family, n, 3, EngineMode::Seeded { seed: sched_seed });
            let b = flood_outcome(family, n, 3, EngineMode::Seeded { seed: sched_seed });
            let ra = a.runtime.expect("async run carries a report");
            let rb = b.runtime.expect("async run carries a report");
            assert_eq!(
                ra.render(),
                rb.render(),
                "replay diverged: {family:?} n={n} sched_seed={sched_seed}"
            );
            assert_eq!(a.tokens_per_node, b.tokens_per_node);
            assert_eq!(a.leader, b.leader);
        }
    }
}

#[test]
fn delay_free_async_flooding_matches_the_sync_engine() {
    // With all knobs zero the seeded scheduler delivers earliest-first,
    // and flooding's token-merge is order-independent anyway — so the
    // asynchronous engine must land on exactly the synchronous outcome
    // (modulo round/step accounting, which async runs do not have).
    for (family, n) in [
        (GraphFamily::Line, 32),
        (GraphFamily::Ring, 24),
        (GraphFamily::Star, 17),
        (GraphFamily::SparseRandom, 30),
    ] {
        for graph_seed in [1u64, 12] {
            let sync = flood_outcome(family, n, graph_seed, EngineMode::Synchronous);
            let seeded = flood_outcome(family, n, graph_seed, EngineMode::Seeded { seed: 0 });
            assert_eq!(sync.leader, seeded.leader, "{family:?} n={n}");
            assert_eq!(
                sync.tokens_per_node, seeded.tokens_per_node,
                "{family:?} n={n}"
            );
            assert!(seeded.tokens_per_node.iter().all(|&t| t == n));
            assert_eq!(
                sync.final_graph.edge_count(),
                seeded.final_graph.edge_count(),
                "flooding must not reconfigure under either engine"
            );
        }
    }
}

#[test]
fn tree_actors_match_the_synchronous_subroutine_under_any_knobs() {
    // Unlike flooding, line-to-tree *does* reconfigure, and its handshake
    // is delivery-order sensitive — equality with the synchronous
    // subroutine under adversarial knobs is the real differential test.
    for (n, arity) in [(16usize, 2usize), (33, 2), (48, 3)] {
        let line: Vec<NodeId> = (0..n).map(NodeId).collect();
        let config = LineToTreeConfig {
            arity,
            keep_line_edges: false,
        };
        let mut sync_net = Network::new(generators::line(n));
        let (sync_tree, _) = run_line_to_tree(&mut sync_net, &line, &config).unwrap();
        for sched_seed in [2u64, 41, 9999] {
            let mut net = Network::new(generators::line(n));
            let scheduler = adversarial(sched_seed);
            let (tree, report) =
                run_runtime_line_to_tree(&mut net, &line, &config, &scheduler).unwrap();
            assert_eq!(
                tree, sync_tree,
                "n={n} arity={arity} sched_seed={sched_seed}"
            );
            assert_eq!(report.in_flight_at_detection, 0);
        }
    }
}

/// Asserts that an asynchronous committee run did the synchronous
/// run's edge work — the same activations and deactivations in total —
/// and that its one runtime report counts every round it committed.
fn assert_same_edge_work(run: &TransformationOutcome, sync: &TransformationOutcome, label: &str) {
    assert_eq!(
        run.metrics.total_activations, sync.metrics.total_activations,
        "{label}: activations"
    );
    assert_eq!(
        run.metrics.total_deactivations, sync.metrics.total_deactivations,
        "{label}: deactivations"
    );
    let report = run.runtime.as_ref().expect("async runs carry a report");
    assert_eq!(report.commits, run.rounds, "{label}: commits vs rounds");
    assert_eq!(
        report.activations, run.metrics.total_activations,
        "{label}: runtime vs network activations"
    );
    assert_eq!(
        report.deactivations, run.metrics.total_deactivations,
        "{label}: runtime vs network deactivations"
    );
}

/// The committee sizes the differential gate runs at, with a cheap
/// family per size so the adversarial sweeps stay fast.
const COMMITTEE_CASES: [(GraphFamily, usize); 3] = [
    (GraphFamily::SparseRandom, 8),
    (GraphFamily::SparseRandom, 64),
    (GraphFamily::Ring, 256),
];

fn committee_outcome(
    algorithm: &str,
    family: GraphFamily,
    n: usize,
    seed: u64,
    engine: EngineMode,
) -> TransformationOutcome {
    let graph = family.generate(n, seed);
    let uids = UidMap::new(graph.node_count(), UidAssignment::Sequential);
    let config = RunConfig::default().with_engine(engine);
    find_algorithm(algorithm)
        .expect("registered")
        .run(&graph, &uids, &config)
        .unwrap_or_else(|e| panic!("{algorithm} on {family:?} n={n} under {engine:?}: {e}"))
}

#[test]
fn delay_free_async_committees_match_the_sync_engine() {
    // The main async==sync gate: GraphToStar and the wreath family
    // reconfigure heavily, and their committee bookkeeping (selection,
    // merging, ring splicing) runs message-driven. On delay-free
    // schedules the asynchronous engine must land on exactly the
    // synchronous committee structures — final graph, leader, phase
    // count and the per-phase committee census — with the same edge work
    // and one report covering every committed round. The thin wreath
    // rebuilds arity-⌈log₂ n⌉ trees, so its rebuilds differ from the
    // binary wreath's.
    for algorithm in ["graph_to_star", "graph_to_wreath", "graph_to_thin_wreath"] {
        for (family, n) in COMMITTEE_CASES {
            let sync = committee_outcome(algorithm, family, n, 5, EngineMode::Synchronous);
            let seeded = committee_outcome(algorithm, family, n, 5, EngineMode::Seeded { seed: 0 });
            let label = format!("{algorithm} on {family:?} n={n}");
            assert_eq!(seeded.leader, sync.leader, "{label}");
            assert_eq!(seeded.final_graph, sync.final_graph, "{label}");
            assert_eq!(seeded.phases, sync.phases, "{label}");
            assert_eq!(
                seeded.committees_per_phase, sync.committees_per_phase,
                "{label}"
            );
            assert_eq!(
                seeded
                    .runtime
                    .as_ref()
                    .expect("async runs carry a report")
                    .in_flight_at_detection,
                0,
                "{label}"
            );
            assert_same_edge_work(&seeded, &sync, &label);
        }
    }
}

#[test]
fn adversarial_schedules_do_not_change_committee_outcomes() {
    // Reordered, delayed and asymmetric delivery must not change what the
    // committee algorithms build: every mini-phase decision is made on a
    // complete (quiesced) message set or by an order-independent rule.
    for (family, n) in COMMITTEE_CASES {
        let graph = family.generate(n, 9);
        let uids = UidMap::new(n, UidAssignment::RandomPermutation { seed: 9 });
        let star_sync = GraphToStar
            .run(&graph, &uids, &RunConfig::default())
            .expect("sync star");
        let wreath_sync = GraphToWreath
            .run(&graph, &uids, &RunConfig::default())
            .expect("sync wreath");
        for sched_seed in [1u64, 58] {
            let label = format!("{family:?} n={n} sched_seed={sched_seed}");
            let scheduler = adversarial(sched_seed);
            let mut network = Network::new(graph.clone());
            let star = run_runtime_star(&mut network, &uids, &RunConfig::default(), &scheduler)
                .unwrap_or_else(|e| panic!("star {label}: {e}"));
            assert_eq!(star.final_graph, star_sync.final_graph, "star {label}");
            assert_eq!(
                star.committees_per_phase, star_sync.committees_per_phase,
                "star {label}"
            );
            assert_same_edge_work(&star, &star_sync, &format!("star {label}"));
            let mut network = Network::new(graph.clone());
            let wreath = run_runtime_wreath(
                &mut network,
                &uids,
                &WreathConfig::binary(),
                &RunConfig::default(),
                &scheduler,
            )
            .unwrap_or_else(|e| panic!("wreath {label}: {e}"));
            assert_eq!(
                wreath.final_graph, wreath_sync.final_graph,
                "wreath {label}"
            );
            assert_eq!(
                wreath.committees_per_phase, wreath_sync.committees_per_phase,
                "wreath {label}"
            );
            assert_same_edge_work(&wreath, &wreath_sync, &format!("wreath {label}"));
        }
    }
}

#[test]
fn committee_runs_replay_byte_identically() {
    // The committee algorithms' seeded runs — including the wreath's
    // line-to-tree rebuilds, which are barriers of the same run under the
    // same seed — must render byte-identical reports on replay.
    for algorithm in ["graph_to_star", "graph_to_wreath"] {
        for sched_seed in [0u64, 7, 0xDEAD_BEEF] {
            let engine = EngineMode::Seeded { seed: sched_seed };
            let a = committee_outcome(algorithm, GraphFamily::Grid, 25, 3, engine);
            let b = committee_outcome(algorithm, GraphFamily::Grid, 25, 3, engine);
            assert_eq!(
                a.runtime.expect("report").render(),
                b.runtime.expect("report").render(),
                "{algorithm} replay diverged at sched_seed={sched_seed}"
            );
            assert_eq!(a.final_graph, b.final_graph);
        }
    }
}

/// Flooding that commits a round at every handler: each handler also
/// stages the removal of the edge to its ring successor (a no-op once the
/// edge is gone), so an adversary armed on the network gets a turn after
/// every start and every application message.
struct CommittingFlood {
    flood: FloodActor,
    successor: NodeId,
}

impl AsyncProgram for CommittingFlood {
    type Message = TokenSet;

    fn on_start(&mut self, ctx: &mut Context<TokenSet>) {
        self.flood.on_start(ctx);
        ctx.deactivate(self.successor);
    }

    fn on_message(&mut self, from: NodeId, msg: TokenSet, ctx: &mut Context<TokenSet>) {
        self.flood.on_message(from, msg, ctx);
        ctx.deactivate(self.successor);
    }
}

#[test]
fn ds_accounting_stays_sound_when_actors_crash_mid_phase() {
    // 64-seed sweep with one crash armed mid-run: the crashed actor holds
    // unacked sends (its deficit is forgiven and its mail acked by the
    // scheduler on its behalf), so the detector must neither hang waiting
    // for a dead node's acks nor fire while live-destined messages are in
    // flight. The tight step budget turns any hang into a fast, clean
    // `DidNotQuiesce` failure instead of a test timeout.
    let n = 20;
    let graph = generators::ring(n);
    for sched_seed in 0..64u64 {
        let crash_round = 2 + (sched_seed as usize * 11) % 60;
        let mut network = Network::new(graph.clone());
        network.install_dst(DstState::new(
            Adversary::new(one_crash_at(crash_round), sched_seed),
            InvariantPolicy::default(),
            Vec::new(),
        ));
        let mut actors: Vec<CommittingFlood> = flood_actors(&graph)
            .into_iter()
            .enumerate()
            .map(|(i, flood)| CommittingFlood {
                flood,
                successor: NodeId((i + 1) % n),
            })
            .collect();
        let report = adversarial(sched_seed)
            .with_max_steps(500_000)
            .run(&mut network, &mut actors)
            .unwrap_or_else(|e| {
                panic!("crashed run must still quiesce (sched_seed={sched_seed}): {e}")
            });
        assert_eq!(
            report.in_flight_at_detection, 0,
            "detector fired with live messages in flight (sched_seed={sched_seed})"
        );
        let dst = network.take_dst_report().expect("armed network");
        assert_eq!(
            (dst.crashed.len(), dst.faults.first().map(|f| f.round)),
            (1, Some(crash_round)),
            "crash did not land (sched_seed={sched_seed})"
        );
    }
}

#[test]
fn armed_crash_during_committee_run_is_deterministic_and_clean() {
    // Seeded regression for the fault-armed committee path: a crash the
    // DST adversary injects mid-execution either lets the protocol
    // complete (the node was no longer needed) or surfaces as a clean
    // CoreError — never a panic, never a hang — and the whole faulted
    // execution, fault schedule included, replays deterministically.
    let n = 16;
    let graph = GraphFamily::SparseRandom.generate(n, 21);
    let uids = UidMap::new(n, UidAssignment::RandomPermutation { seed: 21 });
    // The crash hits the highest-degree node: a hub, often a committee
    // leader.
    let armed = |crash_round: usize, seed: u64| {
        let mut network = Network::new(graph.clone());
        let dst = DstConfig {
            scenario: one_crash_at(crash_round).with_target(TargetPolicy::MaxDegree),
            seed,
        };
        arm_network_for_dst(&mut network, &GraphToStar.spec(), &uids, &dst);
        network
    };
    // A clean run commits the same rounds whatever the schedule;
    // spreading the crash over all of them makes some runs survive it and
    // others degrade, so both result paths stay exercised.
    let commits = run_runtime_star(
        &mut Network::new(graph.clone()),
        &uids,
        &RunConfig::default(),
        &adversarial(0),
    )
    .expect("clean run")
    .rounds;
    let run = |sched_seed: u64| {
        let crash_round = 2 + (sched_seed as usize * 7) % commits;
        let mut network = armed(crash_round, sched_seed);
        let scheduler = adversarial(sched_seed);
        run_runtime_star(&mut network, &uids, &RunConfig::default(), &scheduler)
            .map(|o| {
                let dst = o.dst.expect("armed runs carry a DST report");
                (
                    o.leader,
                    o.phases,
                    o.runtime
                        .expect("faulted seeded runs carry a report")
                        .render(),
                    dst.render(),
                    dst.crashed.len(),
                )
            })
            .map_err(|e| e.to_string())
    };
    let (mut survived_crash, mut failed_clean) = (0, 0);
    for sched_seed in 0..16u64 {
        let first = run(sched_seed);
        let second = run(sched_seed);
        assert_eq!(
            first, second,
            "faulted committee run diverged on replay (sched_seed={sched_seed})"
        );
        match first {
            Ok((.., 1)) => survived_crash += 1,
            Ok(_) => {} // crash round fell past the run's end
            Err(_) => failed_clean += 1,
        }
    }
    // The sweep must actually exercise both halves of the armed-crash
    // path: schedules that absorb a landed crash and complete, and
    // schedules where the crash degrades the protocol into a clean error.
    assert!(survived_crash > 0, "no schedule survived a landed crash");
    assert!(failed_clean > 0, "no schedule degraded into a clean error");
}

#[test]
fn seeded_runs_under_churn_and_crashes_complete_or_fail_cleanly() {
    // Every asynchronous algorithm, run through `run` on the seeded
    // engine under the DST adversary's churn and crash scenarios: the
    // adversary injects at the run's commits, joined nodes get no actor
    // and crashed actors are retired. Each run must complete or return a
    // CoreError (a panic fails the test), and a second run must render
    // the same runtime report and DST report.
    let inputs = [
        generators::line(24),
        generators::ring(24),
        generators::random_tree(24, 5),
    ];
    let mut faulted = 0;
    for algorithm in registry() {
        if !algorithm.supports_async_engines() {
            continue;
        }
        for scenario in [
            Scenario::churn(),
            Scenario::async_churn(),
            Scenario::crash_stop(),
        ] {
            for (i, graph) in inputs.iter().enumerate() {
                let seed = i as u64 + 1;
                let uids = UidMap::new(24, UidAssignment::RandomPermutation { seed });
                let config = RunConfig::default()
                    .with_engine(EngineMode::Seeded { seed })
                    .with_dst(scenario.clone(), seed);
                let run = || {
                    algorithm
                        .run(graph, &uids, &config)
                        .map(|o| {
                            let dst = o.dst.expect("armed runs carry a DST report");
                            let runtime = o.runtime.expect("async runs carry a report");
                            (runtime.render(), dst.render(), dst.faults.len())
                        })
                        .map_err(|e| e.to_string())
                };
                let first = run();
                assert_eq!(
                    first,
                    run(),
                    "{} under {} on input {i} diverged on replay",
                    algorithm.name(),
                    scenario.name
                );
                if first.is_ok_and(|(.., faults)| faults > 0) {
                    faulted += 1;
                }
            }
        }
    }
    assert!(faulted > 0, "the adversary never injected a fault");
}

#[test]
fn seeded_committee_runs_complete_under_churn() {
    // Joined nodes have no actor: the scheduler answers their mail, and
    // checks its actor count once per run, not at every barrier. Unlike
    // `seeded_runs_under_churn_and_crashes_complete_or_fail_cleanly`,
    // which accepts a clean failure, these runs must complete, record
    // their joins and elect the maximum-UID node.
    let graph = generators::ring(24);
    let uids = UidMap::new(24, UidAssignment::RandomPermutation { seed: 3 });
    for algorithm in ["graph_to_star", "graph_to_wreath"] {
        let algorithm = find_algorithm(algorithm).expect("registered");
        for scenario in [Scenario::churn(), Scenario::async_churn()] {
            let config = RunConfig::default()
                .with_engine(EngineMode::Seeded { seed: 3 })
                .with_dst(scenario.clone(), 3);
            let outcome = algorithm
                .run(&graph, &uids, &config)
                .unwrap_or_else(|e| panic!("{} under {}: {e}", algorithm.name(), scenario.name));
            let dst = outcome.dst.expect("armed runs carry a DST report");
            assert!(
                !dst.faults.is_empty(),
                "{} under {}: no node joined",
                algorithm.name(),
                scenario.name
            );
            assert_eq!(outcome.leader, uids.max_uid_node().expect("non-empty"));
        }
    }
}

#[test]
fn termination_detection_never_fires_with_messages_in_flight() {
    // Property sweep: across many scheduler seeds and adversarial knobs,
    // Dijkstra–Scholten must only declare global quiescence when the
    // in-flight message count is exactly zero — and the computation must
    // actually be finished (every node knows every token), i.e. the
    // detector is neither unsound nor trivially late.
    let n = 20;
    let graph = generators::ring(n);
    for sched_seed in 0..64u64 {
        let mut network = Network::new(graph.clone());
        let mut actors = flood_actors(&graph);
        let report = adversarial(sched_seed)
            .run(&mut network, &mut actors)
            .expect("seeded flood run");
        assert_eq!(
            report.in_flight_at_detection, 0,
            "detector fired with messages in flight (sched_seed={sched_seed})"
        );
        assert!(
            actors.iter().all(|a| a.known().len() == n),
            "detector fired before dissemination finished (sched_seed={sched_seed})"
        );
    }
}
