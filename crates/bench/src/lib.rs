//! # adn-bench
//!
//! The wall-clock CPU baseline ([`corebench`], timed through the
//! dependency-free [`harness`]) and the `report` binary that regenerates
//! every model-level table and figure of the reproduction (rounds,
//! activations, degrees — the quantities the paper's theorems are about,
//! which are independent of wall-clock time).
//!
//! * `cargo run -p adn-bench --release --bin report` — full experiment
//!   report (all tables/figures, as captured in EXPERIMENTS.md).
//! * `cargo run -p adn-bench --release --bin report -- t1` — a single
//!   experiment (ids: t1, t4, f1, f3, f4, f5, t6, f7, t8, f9).
//! * `cargo run -p adn-bench --release --bin report -- --dst [cases]
//!   [--threads N]` — the deterministic stress suite (default 1344 cases
//!   ≈ 64 seeds × 7 algorithms × 3 fault scenarios) on `N` worker
//!   threads; writes `BENCH_dst.json` (byte-identical for every `N`).
//! * `cargo run -p adn-bench --release --bin report -- --replay <seed>` —
//!   replays one stress case from its `u64` seed and verifies the rerun
//!   is byte-identical.
//! * `cargo run -p adn-bench --release --bin report -- --minimize
//!   <seed>` — shrinks a stress case to the smallest failing fault
//!   budget (minimized seed + fault-kind histogram).
//! * `cargo run -p adn-bench --release --bin report -- --runtime [cases]
//!   [--threads N]` — the asynchronous-runtime seed sweep with replay
//!   verification (the CI `runtime-smoke` gate).
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

/// Default case count for the stress sweep: 64 seeds for every
/// (algorithm, fault scenario) pair of the 7-algorithm registry and the
/// 3 primary fault scenarios.
pub const DST_DEFAULT_CASES: usize = 64 * 7 * 3;

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
    render_reports(&summary.reports)
}

/// Like [`dump_renders`], but every case runs with per-round tracing
/// enabled (`report -- --dump-renders-traced [cases]`) — the CI traced
/// stress-sweep slice. Tracing is an observer, so the output is
/// byte-identical to the untraced dump of the same prefix; the point is
/// that the traced `max_degree` path (degree histogram + debug-build
/// from-scratch oracle) runs under real adversarial schedules.
pub fn dump_renders_traced(cases: usize) -> String {
    let summary = adn_analysis::stress::sweep_traced(DST_MASTER_SEED, cases);
    render_reports(&summary.reports)
}

fn render_reports(reports: &[adn_analysis::stress::StressReport]) -> String {
    let mut out = String::new();
    for report in reports {
        out.push_str(&report.render());
        out.push_str("----\n");
    }
    out
}

/// Master seed of the asynchronous-runtime sweep (fixed for comparable
/// CI artifacts, like [`DST_MASTER_SEED`]).
pub const RUNTIME_MASTER_SEED: u64 = 0xA5_15EED;

/// Runs the asynchronous-runtime seed sweep on `threads` worker threads
/// and verifies byte-identical replay on a subset of its cases. Returns
/// `(summary_text, failure_count)`: failures are runs that did not
/// complete plus replays that diverged — a non-zero count should fail
/// the caller (the CI `runtime-smoke` gate).
pub fn runtime_suite(cases: usize, threads: usize) -> (String, usize) {
    use adn_analysis::runtime_sweep;
    let summary = runtime_sweep::sweep_with_threads(RUNTIME_MASTER_SEED, cases, threads);
    let mut failures = summary.failures().len();
    let mut text = summary.summary_text();
    let verified = summary.reports.len().min(8);
    let mut diverged = 0usize;
    for report in summary.reports.iter().take(verified) {
        let (again, identical) = runtime_sweep::verify_replay(report.case.seed);
        if !identical || again.render() != report.render() {
            diverged += 1;
            text.push_str(&format!(
                "  REPLAY DIVERGED seed={} ({} on {} under {} sched_seed={}) — determinism \
                 bug, replay with `report -- --replay-runtime {}`\n",
                report.case.seed,
                report.case.program.name(),
                report.case.family,
                report.case.scenario.name,
                report.case.sched_seed,
                report.case.seed,
            ));
        }
    }
    failures += diverged;
    text.push_str(&format!(
        "replay verified on {verified} case(s): {}\n",
        if diverged == 0 {
            "byte-identical".to_string()
        } else {
            format!("{diverged} DIVERGED")
        }
    ));
    (text, failures)
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

/// Replays one asynchronous-runtime case from its seed, twice, and
/// reports whether the two runs rendered byte-identically — the runtime
/// counterpart of [`replay_report`], fronted by `report -- --replay-runtime`.
pub fn runtime_replay_report(seed: u64) -> String {
    let (report, identical) = adn_analysis::runtime_sweep::verify_replay(seed);
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

    #[test]
    fn runtime_suite_completes_and_verifies_replay() {
        let (summary, failures) = runtime_suite(6, 2);
        assert_eq!(failures, 0, "{summary}");
        assert!(summary.contains("cases=6"), "{summary}");
        assert!(summary.contains("byte-identical"), "{summary}");
        // The artifact is thread-count invariant.
        let (serial, _) = runtime_suite(6, 1);
        assert_eq!(summary, serial);
    }
}
