//! # adn-bench
//!
//! The wall-clock CPU baseline ([`corebench`], timed through the
//! dependency-free [`harness`]) and the `report` binary that regenerates
//! every model-level table and figure of the reproduction (rounds,
//! activations, degrees — the quantities the paper's theorems are about,
//! which are independent of wall-clock time).
//!
//! * `cargo run -p adn-bench --release --bin report` — full experiment
//!   report (all tables/figures, pinned in `tests/expectations/report.txt`).
//! * `cargo run -p adn-bench --release --bin report -- t1` — a single
//!   experiment (ids: t1, t4, f1, f3, f4, f5, t6, f7, t8, f9).
//! * `cargo run -p adn-bench --release --bin report -- --dst [cases]
//!   [--threads N]` — the deterministic stress suite (default 1344
//!   seed-derived cases, each drawing one of the 7 registry algorithms and
//!   one of the 11 registered scenarios uniformly; cases under an
//!   asynchronous scenario whose algorithm has an actor implementation run
//!   on the seeded scheduler) on `N` worker threads; writes
//!   `BENCH_dst.json` (byte-identical for every `N`).
//! * `cargo run -p adn-bench --release --bin report -- --replay <seed>` —
//!   replays one stress case, on whichever engine it runs, from its `u64`
//!   seed and verifies the rerun is byte-identical.
//! * `cargo run -p adn-bench --release --bin report -- --minimize
//!   <seed>` — shrinks a stress case to the smallest failing fault
//!   budget (minimized seed + fault-kind histogram).
//! * `cargo run -p adn-bench --release --bin report -- --bench [--quick]
//!   [--threads N] [--check <baseline.json>]` — the CPU-performance
//!   baseline of the hot data path; writes `BENCH_core.json` and, with
//!   `--check`, fails on a >2x `min_ns` regression against the given
//!   committed baseline (the CI `bench-smoke` gate, see [`corebench`]).

pub mod corebench;
pub mod harness;

/// Master seed of the CI stress sweep (any u64 works; fixed so the CI
/// artifact is comparable across commits).
pub const DST_MASTER_SEED: u64 = 0xD57_5EED;

/// Default case count for the stress sweep. Each seed-derived case draws
/// its algorithm from the 7-algorithm registry and its scenario from the
/// 11 registered scenarios, uniformly, so the count is no product of
/// cells; it stays fixed so the sweep's summary compares across commits.
pub const DST_DEFAULT_CASES: usize = 1344;

/// Runs the deterministic stress sweep on `threads` worker threads
/// (`0` or `1` = serial) and returns
/// `(summary_text, json, suite_failure_count)` — the JSON is what CI
/// stores as `BENCH_dst.json`; a non-zero failure count should fail the
/// caller. The output is byte-identical for every thread count.
pub fn dst_suite(cases: usize, threads: usize) -> (String, String, usize) {
    let summary = adn_analysis::stress::sweep_with_threads(DST_MASTER_SEED, cases, threads);
    let failures = summary.suite_failures().len();
    (summary.summary_text(), summary.to_json(), failures)
}

/// Renders every per-case report of the stress sweep into one string —
/// the byte-identity artifact perf refactors diff against (`report --
/// --dump-renders [cases]`). The concatenation is byte-identical for
/// every thread count, like the sweep summary itself.
pub fn dump_renders(cases: usize, threads: usize) -> String {
    let summary = adn_analysis::stress::sweep_with_threads(DST_MASTER_SEED, cases, threads);
    join_renders(summary.reports.iter().map(|r| r.render()))
}

/// Like [`dump_renders`], but every case runs with the event recorder
/// armed beside the DST tap (`report -- --dump-renders-recorded
/// [cases]`) — the CI recorder-armed stress-sweep slice. The recorder is
/// an observer, so the output is byte-identical to the plain dump of the
/// same prefix; the point is that both bus taps run armed together under
/// real adversarial schedules.
pub fn dump_renders_recorded(cases: usize) -> String {
    let summary = adn_analysis::stress::sweep_recorded(DST_MASTER_SEED, cases);
    join_renders(summary.reports.iter().map(|r| r.render()))
}

fn join_renders(renders: impl Iterator<Item = String>) -> String {
    let mut out = String::new();
    for render in renders {
        out.push_str(&render);
        out.push_str("----\n");
    }
    out
}

/// Minimizes a seed-derived stress case: shrinks its fault budget to the
/// smallest count that still reproduces a non-clean run, and renders the
/// minimized seed, budget and fault-kind histogram. Returns the verdict
/// text and whether the case was non-clean at all.
pub fn minimize_report(seed: u64) -> (String, bool) {
    let case = adn_analysis::stress::StressCase::from_seed(seed);
    match adn_analysis::stress::minimize(&case) {
        Some(minimized) => (minimized.render(), true),
        None => (
            format!("case seed={seed} is clean at its full fault budget — nothing to minimize\n"),
            false,
        ),
    }
}

/// Replays one stress case from its seed, twice, and reports whether the
/// two runs rendered byte-identically.
pub fn replay_report(seed: u64) -> String {
    let (report, identical) = adn_analysis::stress::verify_replay(seed);
    let verdict = if identical {
        "replay byte-identical: yes"
    } else {
        "replay byte-identical: NO — determinism bug, please report"
    };
    format!("{}{verdict}\n", report.render())
}

/// Returns the experiment fragment for the given id, or the full report
/// when `id` is `None` / unrecognised.
pub fn report_for(id: Option<&str>) -> String {
    use adn_analysis::experiments as ex;
    match id {
        Some("t1") => ex::t1_contribution_table(&[64, 128, 256, 512], 256),
        Some("t4") => ex::t4_clique_baseline(&[32, 64, 128, 256]),
        Some("f1") => ex::f1_subroutines(&[64, 128, 256, 512, 1024]),
        Some("f3") => ex::f3_async_equivalence(&[64, 256]),
        Some("f4") => ex::f4_committee_decay(256, 11),
        Some("f5") => ex::f5_time_lower_bound(&[64, 128, 256, 512]),
        Some("t6") => ex::t6_centralized(&[64, 128, 256, 512, 1024]),
        Some("f7") => ex::f7_distributed_lower_bound(&[64, 128, 256, 512]),
        Some("t8") => ex::t8_tasks(&[64, 128, 256, 512]),
        Some("f9") => ex::f9_tradeoff(256),
        _ => ex::run_all_default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_experiment_lookup_works() {
        let s = report_for(Some("f4"));
        assert!(s.contains("committees alive"));
    }

    #[test]
    fn dst_suite_runs_and_serializes() {
        let (summary, json, suite_failures) = dst_suite(6, 1);
        assert!(summary.contains("cases=6"), "{summary}");
        assert!(json.contains("\"cases\":6"), "{json}");
        assert_eq!(suite_failures, 0, "{summary}");
        // Parallel execution changes nothing about the artifact.
        let (_, json2, _) = dst_suite(6, 3);
        assert_eq!(json, json2);
    }

    #[test]
    fn replay_report_confirms_determinism() {
        let s = replay_report(7);
        assert!(s.contains("replay byte-identical: yes"), "{s}");
    }
}
