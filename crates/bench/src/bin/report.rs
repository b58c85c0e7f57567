//! Regenerates the experiment tables and figures of the reproduction, and
//! fronts the deterministic stress suite and the CPU-performance baseline.
//!
//! Usage:
//!
//! * `cargo run -p adn-bench --release --bin report [-- <experiment-id>]`
//!   where `<experiment-id>` is one of t1, t4, f1, f3, f4, f5, t6, f7,
//!   t8, f9 (no id = the full report, pinned in
//!   `tests/expectations/report.txt`);
//! * `... report -- --dst [cases] [--threads N]` — run the DST stress
//!   sweep (default 1344 cases) on `N` worker threads (default: available
//!   cores; the artifact is byte-identical for every `N`) and write
//!   `BENCH_dst.json`;
//! * `... report -- --replay <seed>` — replay one stress case, on the
//!   synchronous engine or the seeded scheduler, from its `u64` seed and
//!   verify byte-identical reproduction;
//! * `... report -- --minimize <seed>` — shrink a stress case to the
//!   smallest fault budget that still fails and print the minimized
//!   seed, budget and fault-kind histogram;
//! * `... report -- --dump-renders [cases] [--threads N]` — render every
//!   stress case into one dump (byte-identical for every `N`), whose md5
//!   is pinned in `tests/expectations/renders.md5`;
//! * `... report -- --dump-renders-recorded [cases]` — render a slice of
//!   the stress sweep with the event recorder armed beside the DST tap
//!   (byte-identical to the plain dump; exercises both bus taps armed);
//! * `... report -- --bench [--quick] [--threads N]` — run the CPU-perf
//!   baseline of the hot data path and write `BENCH_core.json`
//!   (`--quick` is the reduced CI smoke pass).

/// Extracts `--threads N` from `args` (removing both tokens); `None` when
/// the flag is absent.
fn take_threads(args: &mut Vec<String>) -> Option<usize> {
    let pos = args.iter().position(|a| a == "--threads")?;
    let value = args
        .get(pos + 1)
        .and_then(|s| s.parse().ok())
        .expect("usage: --threads <positive integer>");
    args.drain(pos..=pos + 1);
    Some(value)
}

/// Extracts `--check <path>` from `args` (removing both tokens); `None`
/// when the flag is absent.
fn take_check(args: &mut Vec<String>) -> Option<String> {
    let pos = args.iter().position(|a| a == "--check")?;
    let value = args
        .get(pos + 1)
        .cloned()
        .expect("usage: --check <baseline json path>");
    args.drain(pos..=pos + 1);
    Some(value)
}

fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        args.remove(pos);
        true
    } else {
        false
    }
}

/// Rejects flags a subcommand does not honor instead of silently
/// swallowing them.
fn reject_unused(subcommand: &str, threads: Option<usize>, quick: bool, threads_ok: bool) {
    if threads.is_some() && !threads_ok {
        panic!("`{subcommand}` does not take --threads");
    }
    if quick {
        panic!("`{subcommand}` does not take --quick");
    }
}

fn reject_check(subcommand: &str, check: &Option<String>) {
    if check.is_some() {
        panic!("`{subcommand}` does not take --check");
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let threads = take_threads(&mut args);
    let quick = take_flag(&mut args, "--quick");
    let check = take_check(&mut args);
    let first = args.first().cloned();
    match first.as_deref() {
        Some("--replay") => {
            reject_unused("--replay", threads, quick, false);
            reject_check("--replay", &check);
            let seed: u64 = args
                .get(1)
                .and_then(|s| s.parse().ok())
                .expect("usage: report --replay <u64 seed>");
            let report = adn_bench::replay_report(seed);
            print!("{report}");
            if !report.contains("replay byte-identical: yes") {
                std::process::exit(1);
            }
        }
        Some("--minimize") => {
            reject_unused("--minimize", threads, quick, false);
            reject_check("--minimize", &check);
            let seed: u64 = args
                .get(1)
                .and_then(|s| s.parse().ok())
                .expect("usage: report --minimize <u64 seed>");
            let (report, _was_failing) = adn_bench::minimize_report(seed);
            print!("{report}");
        }
        Some("--dst") => {
            reject_unused("--dst", None, quick, true);
            reject_check("--dst", &check);
            let cases: usize = match args.get(1) {
                Some(raw) => raw
                    .parse()
                    .unwrap_or_else(|_| panic!("usage: report --dst [case count], got `{raw}`")),
                None => adn_bench::DST_DEFAULT_CASES,
            };
            let threads = adn_bench::corebench::resolve_threads(threads.unwrap_or(0));
            let (summary, json, suite_failures) = adn_bench::dst_suite(cases, threads);
            std::fs::write("BENCH_dst.json", &json).expect("write BENCH_dst.json");
            print!("{summary}");
            println!(
                "wrote BENCH_dst.json ({} bytes, {threads} threads)",
                json.len()
            );
            // A non-zero exit makes the CI stress job an actual gate.
            if suite_failures > 0 {
                std::process::exit(1);
            }
        }
        Some("--dump-renders") => {
            reject_unused("--dump-renders", None, quick, true);
            reject_check("--dump-renders", &check);
            let cases: usize = match args.get(1) {
                Some(raw) => raw.parse().unwrap_or_else(|_| {
                    panic!("usage: report --dump-renders [case count], got `{raw}`")
                }),
                None => adn_bench::DST_DEFAULT_CASES,
            };
            let threads = adn_bench::corebench::resolve_threads(threads.unwrap_or(0));
            print!("{}", adn_bench::dump_renders(cases, threads));
        }
        Some("--dump-renders-recorded") => {
            reject_unused("--dump-renders-recorded", threads, quick, false);
            reject_check("--dump-renders-recorded", &check);
            let cases: usize = match args.get(1) {
                Some(raw) => raw.parse().unwrap_or_else(|_| {
                    panic!("usage: report --dump-renders-recorded [case count], got `{raw}`")
                }),
                None => 96,
            };
            print!("{}", adn_bench::dump_renders_recorded(cases));
        }
        Some("--bench") => {
            // Read the baseline *before* running: the run overwrites
            // BENCH_core.json, which is the usual baseline path.
            let baseline = check.as_ref().map(|path| {
                std::fs::read_to_string(path)
                    .unwrap_or_else(|e| panic!("--check {path}: cannot read baseline: {e}"))
            });
            let cfg = adn_bench::corebench::CoreBenchConfig {
                quick,
                threads: threads.unwrap_or(0),
            };
            let (table, json) = adn_bench::corebench::run(&cfg);
            std::fs::write("BENCH_core.json", &json).expect("write BENCH_core.json");
            print!("{table}");
            println!("wrote BENCH_core.json ({} bytes)", json.len());
            if let Some(baseline) = baseline {
                match adn_bench::corebench::check_against_baseline(&baseline, &json, 2.0) {
                    Ok(verdict) => print!("{verdict}"),
                    Err(failure) => {
                        // A non-zero exit makes the CI bench-smoke job an
                        // actual regression gate.
                        eprintln!("{failure}");
                        std::process::exit(1);
                    }
                }
            }
        }
        other => {
            reject_unused("the experiment report", threads, quick, false);
            reject_check("the experiment report", &check);
            println!("{}", adn_bench::report_for(other));
        }
    }
}
