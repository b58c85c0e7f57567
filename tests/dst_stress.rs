//! Deterministic simulation-testing acceptance suite: every registered
//! algorithm runs under (at least) the four canonical scenarios —
//! failure-free, crash-stop, adversarial-edges, churn — with round-level
//! invariant checking armed, and every run (clean or failing) reproduces
//! byte-identically from its seeds.

use actively_dynamic_networks::prelude::*;
use adn_analysis::stress::{self, StressCase, StressOutcome};

const MATRIX_SEEDS: [u64; 2] = [1, 2];

fn matrix_scenarios() -> Vec<Scenario> {
    vec![
        Scenario::failure_free(),
        Scenario::crash_stop(),
        Scenario::adversarial_edges(),
        Scenario::churn(),
    ]
}

fn family_for(algorithm_id: &str) -> GraphFamily {
    if algorithm_id == "centralized_cut_in_half" {
        GraphFamily::Line
    } else {
        GraphFamily::Ring
    }
}

#[test]
fn every_algorithm_under_every_canonical_scenario_is_deterministic() {
    for algorithm in registry() {
        let id = algorithm.spec().id;
        for scenario in matrix_scenarios() {
            for seed in MATRIX_SEEDS {
                let case = StressCase::explicit(
                    id,
                    family_for(id),
                    24,
                    seed,
                    scenario.clone(),
                    seed.wrapping_mul(0x9E37_79B9),
                );
                let first = stress::run_case(&case);
                let second = stress::run_case(&case);
                assert_eq!(
                    first.render(),
                    second.render(),
                    "{id} under {} (seed {seed}) is not deterministic",
                    scenario.name
                );
                // Invariant checking really ran: every round boundary was
                // evaluated.
                assert!(
                    first.dst.rounds_checked > 0,
                    "{id} under {}: checker never ran\n{}",
                    scenario.name,
                    first.render()
                );
                if scenario.name == "failure_free" {
                    assert!(
                        first.is_clean(),
                        "{id} must be clean without faults:\n{}",
                        first.render()
                    );
                } else {
                    assert!(
                        first.dst.faults.len() <= scenario.fault_budget,
                        "{id} under {}: fault budget overrun\n{}",
                        scenario.name,
                        first.render()
                    );
                }
                // Nothing in the matrix may fail the suite (panics, or
                // failures with no fault to blame).
                assert!(
                    !first.is_suite_failure(),
                    "{id} under {} (seed {seed}) is a suite failure:\n{}",
                    scenario.name,
                    first.render()
                );
            }
        }
    }
}

#[test]
fn faults_do_get_injected_across_the_matrix() {
    // The matrix above tolerates quiet runs (short executions leave the
    // adversary little time); here we confirm each fault class actually
    // fires when given a certain shot.
    let mut kinds_seen = std::collections::BTreeSet::new();
    for scenario in [
        Scenario::crash_stop(),
        Scenario::adversarial_edges(),
        Scenario::churn(),
        Scenario::round_skew(),
        Scenario::partition_heal(),
    ] {
        let scenario = Scenario {
            per_round_probability: 1.0,
            ..scenario
        };
        let case = StressCase::explicit("flooding", GraphFamily::Line, 20, 3, scenario, 77);
        let report = stress::run_case(&case);
        for f in &report.dst.faults {
            let kind = match f.event {
                FaultEvent::CrashNode { .. } => "crash",
                FaultEvent::DeleteEdge { .. } => "delete",
                FaultEvent::InsertEdge { .. } => "insert",
                FaultEvent::Join { .. } => "join",
                FaultEvent::Skew { .. } => "skew",
                FaultEvent::Partition { .. } => "partition",
                FaultEvent::Heal { .. } => "heal",
            };
            kinds_seen.insert(kind);
        }
    }
    assert!(
        kinds_seen.len() >= 5,
        "expected crash, edge ops, churn, skew and partition/heal to all fire, saw {} kinds: {kinds_seen:?}",
        kinds_seen.len()
    );
    assert!(
        kinds_seen.contains("partition") && kinds_seen.contains("heal"),
        "partition/heal cycle must fire: {kinds_seen:?}"
    );
}

#[test]
fn seed_derived_failures_replay_from_one_u64() {
    // Scan seed-derived cases until a few have injected faults, then
    // check each reproduces byte-identically from its single u64 seed —
    // the property the `--replay` CLI entry point exposes.
    let mut replayed = 0;
    for seed in 0..200u64 {
        let report = stress::replay(seed);
        if report.dst.faults.is_empty() {
            continue;
        }
        let (again, identical) = stress::verify_replay(seed);
        assert!(identical, "seed {seed} diverged");
        assert_eq!(report.render(), again.render(), "seed {seed} diverged");
        replayed += 1;
        if replayed >= 5 {
            break;
        }
    }
    assert!(
        replayed >= 5,
        "fewer than 5 of 200 seeds injected faults — adversary too quiet"
    );
}

#[test]
fn run_arms_the_dst_layer_from_its_config() {
    let graph = generators::ring(24);
    let uids = UidMap::new(24, UidAssignment::Sequential);
    let config = RunConfig::default().with_dst(Scenario::failure_free(), 9);
    let outcome = GraphToStar.run(&graph, &uids, &config).unwrap();
    let report = outcome.dst.expect("`run` must arm the DST layer");
    assert_eq!(report.scenario, "failure_free");
    assert!(report.is_clean());
    assert!(report.rounds_checked > 0);

    // A plain run carries no report.
    let plain = GraphToStar
        .run(&graph, &uids, &RunConfig::default())
        .unwrap();
    assert!(plain.dst.is_none());
}

#[test]
fn crashed_algorithm_failures_are_attributed_to_faults() {
    // A certain crash on a line will stall flooding (it waits for n
    // tokens): the run fails, but the failure is attributed to the
    // injected fault, so it is not a suite failure — and it minimizes.
    let scenario = Scenario {
        per_round_probability: 1.0,
        ..Scenario::crash_stop().with_fault_budget(2)
    };
    let case = StressCase::explicit("flooding", GraphFamily::Line, 16, 1, scenario, 5);
    let report = stress::run_case(&case);
    assert!(
        matches!(report.outcome, StressOutcome::Failed(_)),
        "{}",
        report.render()
    );
    assert!(!report.dst.faults.is_empty());
    assert!(!report.is_suite_failure());
    let minimized = stress::minimize(&case).expect("non-clean case must minimize");
    assert!(minimized.minimal_budget >= 1);
}
