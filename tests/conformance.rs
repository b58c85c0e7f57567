//! Registry-driven conformance suite: every registered algorithm runs on
//! every `GraphFamily` and must satisfy the invariants its
//! `AlgorithmSpec` declares — the elected leader is the maximum-UID node
//! (when the spec promises leader election), the final network spans all
//! nodes and is connected within the spec'd diameter bound, and the final
//! degree respects the spec'd degree bound.
//!
//! The distance-2 activation rule is enforced *during* the runs by
//! `adn_sim::Network` (`stage_activation` rejects any activation between
//! nodes that do not share a common neighbour at the beginning of the
//! round), so an execution completing without `CoreError::Sim` certifies
//! that no metered activation ever violated it; the dedicated test at the
//! bottom demonstrates the rejection path.

use actively_dynamic_networks::prelude::*;

const SEEDS: [u64; 2] = [1, 11];
const SIZE: usize = 30;

#[test]
fn every_algorithm_on_every_family_meets_its_spec() {
    for algorithm in registry() {
        let spec = algorithm.spec();
        // A disconnected input is outside every algorithm's model: the
        // builder rejects it cleanly.
        let mut split = generators::line(6);
        split.remove_edge(NodeId(2), NodeId(3)).unwrap();
        assert!(
            matches!(
                Experiment::on(split).algorithm(spec.id).run(),
                Err(CoreError::InvalidInput { .. })
            ),
            "{} must reject a disconnected input",
            spec.id
        );
        for family in GraphFamily::ALL {
            for seed in SEEDS {
                let graph = family.generate(SIZE, seed);
                let n = graph.node_count();
                if !algorithm.supports(&graph) {
                    // Unsupported inputs must be rejected cleanly, not
                    // mis-handled.
                    let uids = UidMap::new(n, UidAssignment::RandomPermutation { seed });
                    assert!(
                        matches!(
                            algorithm.run(&graph, &uids, &RunConfig::default()),
                            Err(CoreError::InvalidInput { .. })
                        ),
                        "{} must reject unsupported {family}",
                        spec.id
                    );
                    continue;
                }
                let label = format!("{} on {family} (n={n}, seed={seed})", spec.id);
                let uids = UidMap::new(n, UidAssignment::RandomPermutation { seed });
                let outcome = Experiment::on(graph)
                    .uids(UidAssignment::RandomPermutation { seed })
                    .algorithm(spec.id)
                    .trace(TraceLevel::PerRound)
                    .run()
                    .unwrap_or_else(|e| panic!("{label}: {e}"));

                // The final network spans the whole vertex set and is
                // connected within the spec'd diameter bound.
                assert_eq!(outcome.final_graph.node_count(), n, "{label}");
                assert!(outcome.final_graph.check_invariants(), "{label}");
                let diameter = outcome
                    .final_diameter()
                    .unwrap_or_else(|| panic!("{label}: final network disconnected"));
                assert!(
                    diameter <= (spec.diameter_bound)(n),
                    "{label}: diameter {diameter} > bound {}",
                    (spec.diameter_bound)(n)
                );

                // Degree bound on the final network.
                let degree = outcome.final_max_degree();
                assert!(
                    degree <= (spec.max_degree_bound)(n),
                    "{label}: degree {degree} > bound {}",
                    (spec.max_degree_bound)(n)
                );

                // Leader election.
                if spec.elects_max_uid_leader {
                    assert_eq!(
                        Some(outcome.leader),
                        uids.max_uid_node(),
                        "{label}: wrong leader"
                    );
                }

                // Accounting sanity: the trace covers only metered rounds
                // and the metrics mirror the round count.
                assert_eq!(outcome.rounds, outcome.metrics.rounds, "{label}");
                assert!(
                    outcome.trace.iter().all(|r| r.round <= outcome.rounds),
                    "{label}: trace rounds out of range"
                );
            }
        }
    }
}

#[test]
fn supports_matrix_is_exactly_cut_in_half_on_non_lines() {
    // Only CentralizedCutInHalf restricts its inputs; everything else
    // accepts every (connected) family.
    for algorithm in registry() {
        for family in GraphFamily::ALL {
            let graph = family.generate(SIZE, 1);
            let expected =
                algorithm.spec().id != "centralized_cut_in_half" || properties::is_line(&graph);
            assert_eq!(
                algorithm.supports(&graph),
                expected,
                "{} on {family}",
                algorithm.spec().id
            );
        }
    }
}

#[test]
fn every_algorithm_declares_and_honors_its_engine_modes() {
    // Every registered algorithm declares which engines it supports; it
    // must complete under every declared mode and fail with the clean
    // `InvalidInput` rejection — never a panic — under the others. Runs
    // ask for the per-round trace, which every engine must honour: a run
    // that activated an edge committed a round, so it traced one, and a
    // committee algorithm stamps its first traced round with the
    // committee count its first phase started with.
    const COMMITTEE_ALGORITHMS: [&str; 3] =
        ["graph_to_star", "graph_to_wreath", "graph_to_thin_wreath"];
    let all_modes = [
        EngineMode::Synchronous,
        EngineMode::Seeded { seed: 3 },
        EngineMode::Free { threads: 2 },
    ];
    for algorithm in registry() {
        let spec = algorithm.spec();
        let declared = algorithm.supported_engine_modes();
        assert!(
            declared.contains(&EngineMode::Synchronous),
            "{}: every algorithm must support the synchronous engine",
            spec.id
        );
        // The declared list matches the boolean capability flag.
        assert_eq!(
            declared.len() > 1,
            algorithm.supports_async_engines(),
            "{}: supported_engine_modes disagrees with supports_async_engines",
            spec.id
        );
        let graph = if spec.id == "centralized_cut_in_half" {
            generators::line(12)
        } else {
            generators::ring(12)
        };
        let n = graph.node_count();
        let uids = UidMap::new(n, UidAssignment::RandomPermutation { seed: 7 });
        for mode in all_modes {
            let supported = match mode {
                EngineMode::Synchronous => true,
                _ => algorithm.supports_async_engines(),
            };
            let config = RunConfig::default()
                .with_engine(mode)
                .with_trace(TraceLevel::PerRound);
            let result = algorithm.run(&graph, &uids, &config);
            if supported {
                let outcome = result
                    .unwrap_or_else(|e| panic!("{} must complete under {mode:?}: {e}", spec.id));
                assert_eq!(
                    outcome.final_graph.node_count(),
                    n,
                    "{} under {mode:?}",
                    spec.id
                );
                if outcome.metrics.total_activations > 0 {
                    assert!(
                        !outcome.trace.is_empty(),
                        "{} under {mode:?}: activated edges but traced no round",
                        spec.id
                    );
                }
                if COMMITTEE_ALGORITHMS.contains(&spec.id) {
                    assert_eq!(
                        outcome.trace.first().map(|row| row.groups_alive),
                        outcome.committees_per_phase.first().copied(),
                        "{} under {mode:?}: first traced round's committee count",
                        spec.id
                    );
                }
                if !mode.is_synchronous() {
                    assert!(
                        outcome.runtime.is_some(),
                        "{} under {mode:?}: async runs must carry a runtime report",
                        spec.id
                    );
                }
            } else {
                assert!(
                    matches!(result, Err(CoreError::InvalidInput { .. })),
                    "{} must cleanly reject {mode:?}",
                    spec.id
                );
            }
        }
    }
}

#[test]
fn distance_two_rule_is_enforced_by_the_simulator() {
    // The invariant the conformance runs rely on: activations are
    // validated against the distance-2 rule at staging time, so no
    // completed run can contain a violating activation.
    let mut network = Network::new(generators::line(4));
    assert!(matches!(
        network.stage_activation(NodeId(0), NodeId(3)),
        Err(sim_error) if sim_error.to_string().contains("distance-2")
    ));
}
