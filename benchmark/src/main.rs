//! End-to-end benchmark of the actively dynamic network reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <u64> --seconds <s> --trace <0|1>
//! ```
//!
//! The program runs one named workload in one single-threaded process. Its
//! job list and every input (graphs, UID maps, run configurations) derive
//! from `--seed`: the same seed gives the same inputs, and the algorithms
//! see only those generated inputs. Every job's output is checked, and a
//! failed check makes the run incorrect (exit code 1). The last line of
//! standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it print each
//! metric as `name value unit`, plus `#` information lines.
//!
//! # Workloads
//!
//! Every algorithm workload climbs size ladders: each ladder spaces
//! `families × steps` sizes geometrically between its bounds and hands
//! them round-robin to the families, so every instance has a size of its
//! own. Each algorithm's ladder sits where its jobs cost from about one
//! to a few tens of ms on a 2-core x86-64 VM, so a workload's per-job
//! times form one continuum: a median or tail that falls between clusters
//! of equal-sized jobs swings with the seed. The seed picks every
//! instance's graph and UIDs (and, on `async_seeded`, every scheduler
//! seed).
//!
//! | name | jobs per pass | why |
//! |---|---|---|
//! | `sparse_sync` | {line, ring, grid, bounded_degree_connected, random_tree}; `graph_to_wreath` and `graph_to_thin_wreath` on n = 256..2048, `graph_to_star` on 512..4096, `centralized_general` on 2048..16384; 15 sizes each: 60 jobs | The paper's headline task at scale. Committee and subroutine logic plus `Network::commit_round` dominate; a change to the wreath engine's round structure shows here first. |
//! | `dense_sync` | {`clique_formation`, `flooding`} × {line, sparse_random, dense_random} on n = 48..128, 36 sizes: 72 jobs | The same `Graph`/`Network` layers used the other way: dense n² edge growth instead of sparse churn. The node-program engine dominates and the committee layer is bypassed, so a commit-path or committee change should not move it. |
//! | `async_seeded` | {ring, line, bounded_degree_connected} under `EngineMode::Seeded`; `graph_to_star` on n = 128..512, `graph_to_wreath` on 64..256, `flooding` on 32..128; 21 sizes each: 63 jobs, each with its own scheduler seed and one of the `async_reorder`, `async_link_delay` and `async_asymmetric` knobs, every family meeting every knob | The `adn-runtime` seeded scheduler: message delivery and Dijkstra–Scholten termination detection dominate. `execute` runs on a bench-built network, so DST is not armed. |
//! | `dst_sweep` | 3003 stress cases — every algorithm × family × DST scenario at a small, a middle and a large n in 8..40, with seed-drawn instances and UIDs and fixed adversary seeds (the mix `StressCase::from_seed` draws, without its draw-to-draw variation; see `workload::stress_cases`) — through `stress::run_case` + `StressReport::render` | Tiny n (8..40) with the adversary and invariant checks armed: fixed per-round costs (DST checks, bus, `catch_unwind`, render) dominate, unlike the per-edge costs of `sparse_sync`. |
//!
//! # Run shape
//!
//! Set-up builds the job list and its inputs. One warm-up job runs; then
//! the whole list runs in passes (0.5–1 s each on a 2-core x86-64 VM)
//! until `--seconds` have elapsed, at least 3 and at most 64 passes; a
//! 25 s run makes 26–45. A job's time is the fastest of its passes and
//! times `execute` alone (`dst_sweep`: `run_case` + `render`); the output
//! checks run outside the timed region. After every pass set-up is timed
//! once more, and its copy of the inputs freed. Nothing starts a thread.
//!
//! Why the fastest pass: on a shared host the same code runs up to ~40%
//! slower for stretches of milliseconds to minutes, as other tenants load
//! the caches, memory and sibling threads. That only ever adds time. A
//! job's median pass follows the share of slow stretches in its run,
//! which differs from run to run; the fastest of dozens of passes spread
//! over the run follows it far less. `benchmark/SPREAD.md` has the
//! measurements.
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! * `setup_s`: median of the set-up times taken after the passes.
//! * `jobs_per_s`: jobs ÷ Σ per-job seconds.
//! * `job_ms_p50`: median of the per-job times.
//! * `job_ms_tail`: the highest percentile of the per-job times with at
//!   least ten jobs beyond it; the percentile and job count are printed
//!   as an information line.
//! * `peak_heap_mb`: the heap a run needs at once: the inputs' bytes
//!   plus a job's working set (the most bytes it had live at once,
//!   its network copy, execution and output checks included), taken at
//!   the tail percentile of the jobs' working sets by `job_ms_tail`'s
//!   rule. Counted by the benchmark's global allocator. A job's working
//!   set repeats exactly for its inputs; the tail rather than the largest
//!   keeps one rare stress case (clique formation on a hypercube under
//!   `async_churn` can need 2.5 MB, five times any other) from deciding
//!   the figure.
//! * `sim_rounds`, `sim_activations`, `sim_max_activated_edges`,
//!   `sim_max_activated_degree`: the paper's measures (Section 2.2) summed
//!   over one pass's jobs. They repeat exactly per seed, and every pass
//!   must reproduce them. On `dst_sweep` they come from each case's
//!   fault-free twin (same algorithm, instance and round budget, no DST),
//!   run once after the timed passes, so a robustness change that lets
//!   more armed cases complete does not read as "more rounds".
//! * `completed_share`: clean jobs ÷ timed jobs (`dst_sweep`:
//!   `StressReport::is_clean`; elsewhere every checked job is clean).
//!
//! Failed jobs — an error, a failed output check, or on `dst_sweep` a
//! suite failure or panic — are the JSON's `failed`; any makes the run
//! incorrect. `dst_sweep` also prints an FNV-64 digest of all renders of
//! one pass; every pass must produce the same digest.
//!
//! Output checks (`sparse_sync`, `dense_sync`, `async_seeded`, and each
//! `dst_sweep` twin): the final network is connected, the leader's
//! eccentricity is at most `spec.diameter_bound(n)` (one BFS), the final
//! maximum degree is at most `spec.max_degree_bound(n)`, the leader is the
//! maximum-UID node when `spec.elects_max_uid_leader`, and flooding leaves
//! every node with all n tokens.
//!
//! # Traced run (`--trace 1`)
//!
//! One pass with spans (name, start, end, parent, job) recorded from this
//! program around its calls into each layer; see [`trace::traced_pass`].
//! Each execution runs again with the bus recorder armed, and the recorded
//! `RoundEvent` stream is replayed twice: onto a fresh `Network` (staging
//! untimed, `commit_round`/`advance_idle_rounds` timed) and onto a bare
//! `Graph` clone through `add_edges_batch`/`remove_edges_batch`. The
//! replay must reproduce the execution's rounds, activations,
//! deactivations, maximum activated edges, maximum activated degree,
//! maximum total degree and final network, or the run fails: the split is
//! valid only when the replay is exact. Replay staging is not reported —
//! `stage_activation`'s common-neighbour scan costs more than the witnessed
//! wave staging the algorithms really use. Spans are written at the end to
//! `$CARGO_TARGET_DIR/benchmark-spans/<workload>-<seed>.spans.jsonl`
//! (`target/` when unset); a span's self time is its busy time minus that
//! of the spans it caused.
//!
//! Per-layer metrics (layer → the end-to-end metric it should move):
//!
//! * `core.execute_ms` (adn-core `ReconfigurationAlgorithm::execute`) →
//!   `jobs_per_s` everywhere.
//! * `core.self_ms` = execute − replayed commit: committee and subroutine
//!   logic on `sparse_sync`, the node-program engine on `dense_sync`, the
//!   scheduler on `async_seeded` → `job_ms_tail` on `sparse_sync`,
//!   `job_ms_p50`/`jobs_per_s` on `dense_sync` and `async_seeded`.
//! * `sim.network.commit_ms`, `sim.network.commit_us_per_round` (adn-sim
//!   `Network::commit_round`) → `jobs_per_s`/`job_ms_tail` on
//!   `sparse_sync`; predicted flat on `dense_sync` and `async_seeded`.
//! * `graph.batch_apply_ms` (adn-graph arena batch edits) → `jobs_per_s`
//!   on `sparse_sync`; `dense_sync` is its dense-growth counter-workload.
//! * `sim.bus.events`, `sim.edge_events_per_round`,
//!   `sim.bus.record_overhead_pct` (recorded vs plain execute: the cost of
//!   tracing, which moves nothing).
//! * `sim.rounds_committed`, `sim.rounds_idle`, `sim.rounds_zero_op`,
//!   `sim.useful_round_share`, `core.phases` → `sim_rounds` and
//!   `job_ms_tail` on `sparse_sync`, where a wreath round fix must raise
//!   `sim.useful_round_share`.
//! * `sim.engine.ns_per_node_round` = core.self ÷ Σ n·rounds →
//!   `job_ms_p50` on `dense_sync`.
//! * `runtime.steps`, `runtime.app_messages`, `runtime.acks`,
//!   `runtime.commits` (adn-runtime `RuntimeReport`; 0 on synchronous
//!   workloads) → `jobs_per_s`/`job_ms_p50` on `async_seeded`, where the
//!   nanoseconds per step (core.self ÷ steps) is printed as information.
//! * `input.derive_ms` (instance generation from the seed; `dst_sweep`:
//!   each case's instance) → `setup_s`.
//! * `sim.dst.armed_ms`, `sim.dst.armed_overhead_ms` (armed − plain
//!   execute), `sim.dst.render_ms`: the DST layer (`dst_sweep`:
//!   `stress::run_case` under the case's scenario; elsewhere a fault-free
//!   armed run, which must report no fault or violation) → `jobs_per_s`
//!   and `job_ms_p50` on `dst_sweep`.
//! * `sim.dst.faults`, `sim.dst.violations`, `stress.completed`,
//!   `stress.failed`, `stress.panicked` → `completed_share` on
//!   `dst_sweep`.
//!
//! # Reproducing a claim
//!
//! Build the parent and the change with identical benchmark code, then run
//! at least ten parent/change pairs, alternating which side runs first,
//! with the same `--seconds`, each pair on a fresh seed. Report each side's
//! median and quartiles per metric and workload. A gain counts only when
//! the change wins at least nine pairs in ten and the medians differ by
//! more than the parent's own quartile spread; every other metric must
//! stay within its `BENCHMARK.json` bound. Confirm the claim on one seed
//! held out while the change was written. A counter (`sim_*`, per-layer
//! counts) repeats exactly per seed and is reported as a count, not as a
//! speed-up.

mod heap;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::Instant;
use workload::{Scale, Sim, Work, Workload};

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

const USAGE: &str = "usage: benchmark --workload <sparse_sync|dense_sync|async_seeded|dst_sweep> \
                     [--seed <u64>] [--seconds <s>] [--trace <0|1>]";
const MIN_PASSES: usize = 3;
/// Passes stop here even when `--seconds` have not elapsed.
const MAX_PASSES: usize = 64;

#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 25.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse::<f64>().map_err(|_| bad())?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

type Metric = (&'static str, f64, &'static str);

/// What one run prints.
struct Report {
    attempted: usize,
    failures: Vec<String>,
    metrics: Vec<Metric>,
    info: Vec<String>,
}

/// The timed passes and their untimed checks.
struct Measured {
    /// Per job, one time in seconds per pass.
    times: Vec<Vec<f64>>,
    passes: usize,
    clean: usize,
    attempted: usize,
    sim: Sim,
    digest: Option<u64>,
    /// One set-up time per pass, taken after it.
    setup_times: Vec<f64>,
    /// Per job, the most heap bytes it had live at once.
    job_heap: Vec<usize>,
    failures: Vec<String>,
}

fn measure(work: &Work, seconds: f64, setup: impl Fn() -> Work) -> Measured {
    let mut m = Measured {
        times: (0..work.len())
            .map(|_| Vec::with_capacity(MAX_PASSES))
            .collect(),
        passes: 0,
        clean: 0,
        attempted: 0,
        sim: Sim::default(),
        digest: None,
        setup_times: Vec::new(),
        job_heap: vec![0; work.len()],
        failures: Vec::new(),
    };
    let mut sims: Vec<Option<Sim>> = match work {
        Work::Runs { jobs, .. } => vec![None; jobs.len()],
        Work::Stress { .. } => Vec::new(),
    };
    let mut setup_times = Vec::with_capacity(MAX_PASSES);
    let start = Instant::now();
    // Set-up is timed once after every pass, so its samples spread over
    // the run like the jobs'.
    let mut more = |passes: usize| {
        if passes > 0 {
            let begin = Instant::now();
            let inputs = setup();
            setup_times.push(begin.elapsed().as_secs_f64());
            drop(inputs);
        }
        passes < MIN_PASSES || (passes < MAX_PASSES && start.elapsed().as_secs_f64() < seconds)
    };
    match work {
        Work::Runs { instances, jobs } => {
            let first = &jobs[0];
            let _ = workload::run_job(first, &instances[first.instance]);
            while more(m.passes) {
                for (j, job) in jobs.iter().enumerate() {
                    let ((s, result), bytes) =
                        heap::peak_of(|| workload::run_job(job, &instances[job.instance]));
                    m.times[j].push(s);
                    m.job_heap[j] = m.job_heap[j].max(bytes);
                    let checked = result.and_then(|outcome| {
                        let sim = Sim::of(&outcome);
                        match sims[j] {
                            Some(first) if first != sim => Err(format!(
                                "{}: pass {} gave {sim:?}, the first pass {first:?}",
                                workload::label(job, &instances[job.instance]),
                                m.passes + 1
                            )),
                            _ => {
                                sims[j] = Some(sim);
                                Ok(())
                            }
                        }
                    });
                    match checked {
                        Ok(()) => m.clean += 1,
                        Err(e) => m.failures.push(e),
                    }
                }
                m.passes += 1;
            }
            for sim in sims.into_iter().flatten() {
                m.sim.add(sim);
            }
        }
        Work::Stress { cases } => {
            let _ = workload::run_stress(&cases[0]);
            while more(m.passes) {
                let mut digest = workload::FNV_OFFSET;
                for (j, case) in cases.iter().enumerate() {
                    let ((s, report, render, verdict), bytes) =
                        heap::peak_of(|| workload::run_stress(case));
                    m.times[j].push(s);
                    m.job_heap[j] = m.job_heap[j].max(bytes);
                    digest = workload::fnv64(digest, render.as_bytes());
                    if report.is_clean() {
                        m.clean += 1;
                    }
                    if let Err(e) = verdict {
                        m.failures.push(e);
                    }
                }
                match m.digest {
                    Some(first) if first != digest => m.failures.push(format!(
                        "pass {} rendered digest {digest:016x}, the first pass {first:016x}",
                        m.passes + 1
                    )),
                    _ => m.digest = Some(digest),
                }
                m.passes += 1;
            }
            // The fault-free twins, once and untimed: they only feed sim_*.
            for case in cases {
                let (job, instance) = workload::unarmed_twin(case);
                match workload::run_job(&job, &instance).1 {
                    Ok(outcome) => m.sim.add(Sim::of(&outcome)),
                    Err(e) => m.failures.push(format!(
                        "fault-free twin of {}: {e}",
                        workload::case_label(case)
                    )),
                }
                m.attempted += 1;
            }
        }
    }
    m.setup_times = setup_times;
    m.attempted += work.len() * m.passes;
    m
}

fn run_measured(workload: Workload, seed: u64, seconds: f64, scale: Scale) -> Report {
    let live = heap::live_bytes();
    let work = workload::setup(workload, seed, scale);
    let inputs = heap::live_bytes().saturating_sub(live);
    let m = measure(&work, seconds, || workload::setup(workload, seed, scale));

    let per_job: Vec<f64> = m.times.iter().map(|t| stats::min(t)).collect();
    let tail = stats::tail(&per_job);
    let job_heap: Vec<f64> = m.job_heap.iter().map(|&b| b as f64).collect();
    let heap_tail = stats::tail(&job_heap);
    let pass_seconds: Vec<String> = (0..m.passes)
        .map(|p| format!("{:.3}", m.times.iter().map(|t| t[p]).sum::<f64>()))
        .collect();
    let mut info = vec![
        format!(
            "workload {} seed {seed}: {} jobs x {} passes",
            workload.name(),
            work.len(),
            m.passes
        ),
        format!("timed seconds per pass: {}", pass_seconds.join(" ")),
        format!(
            "job_ms_tail is the p{:.2} of {} per-job times",
            tail.percentile, tail.samples
        ),
    ];
    if let Some(digest) = m.digest {
        info.push(format!("render digest fnv64 {digest:016x}"));
    }
    let metrics = vec![
        ("setup_s", stats::median(&m.setup_times), "s"),
        (
            "jobs_per_s",
            per_job.len() as f64 / per_job.iter().sum::<f64>(),
            "jobs/s",
        ),
        ("job_ms_p50", stats::median(&per_job) * 1e3, "ms"),
        ("job_ms_tail", tail.value * 1e3, "ms"),
        (
            "peak_heap_mb",
            (inputs as f64 + heap_tail.value) / 1e6,
            "MB",
        ),
        ("sim_rounds", m.sim.rounds as f64, "rounds"),
        ("sim_activations", m.sim.activations as f64, "edges"),
        (
            "sim_max_activated_edges",
            m.sim.max_activated_edges as f64,
            "edges",
        ),
        (
            "sim_max_activated_degree",
            m.sim.max_activated_degree as f64,
            "degree",
        ),
        (
            "completed_share",
            m.clean as f64 / (work.len() * m.passes) as f64,
            "share",
        ),
    ];
    Report {
        attempted: m.attempted,
        failures: m.failures,
        metrics,
        info,
    }
}

fn spans_path(workload: Workload, seed: u64) -> std::path::PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    std::path::PathBuf::from(target)
        .join("benchmark-spans")
        .join(format!("{}-{seed}.spans.jsonl", workload.name()))
}

fn run_traced(workload: Workload, seed: u64, scale: Scale) -> (Report, trace::Tracer) {
    let work = workload::setup(workload, seed, scale);
    let traced = trace::traced_pass(&work);
    let metrics = trace::per_layer_metrics(&traced);
    let mut info = vec![format!(
        "workload {} seed {seed}: traced pass over {} jobs",
        workload.name(),
        work.len()
    )];
    let steps = traced.counts.runtime_steps;
    if steps > 0 {
        let self_ns = metrics
            .iter()
            .find(|m| m.0 == "core.self_ms")
            .map_or(0.0, |m| m.1 * 1e6);
        info.push(format!(
            "runtime ns per step (core.self / steps): {:.1}",
            self_ns / steps as f64
        ));
    }
    let report = Report {
        attempted: traced.attempted,
        failures: traced.failures,
        metrics,
        info,
    };
    (report, traced.tracer)
}

fn json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failures.is_empty(),
        report.attempted,
        report.failures.len(),
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report = if args.trace {
        let (mut report, tracer) = run_traced(args.workload, args.seed, Scale::Full);
        let path = spans_path(args.workload, args.seed);
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        report.info.push(format!(
            "{} spans written to {}",
            tracer.spans.len(),
            path.display()
        ));
        report
    } else {
        run_measured(args.workload, args.seed, args.seconds, Scale::Full)
    };
    if let Some((name, value, _)) = report.metrics.iter().find(|m| !m.1.is_finite()) {
        report
            .failures
            .push(format!("metric {name} is not a finite number: {value}"));
    }
    for failure in report.failures.iter().take(20) {
        eprintln!("FAILED {failure}");
    }
    for line in &report.info {
        println!("# {line}");
    }
    for (name, value, unit) in &report.metrics {
        println!("{name} {value} {unit}");
    }
    println!("{}", json(&report));
    if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Everything a job list determines, as text.
    fn fingerprint(work: &Work) -> String {
        match work {
            Work::Runs { instances, jobs } => {
                let jobs: Vec<String> = jobs
                    .iter()
                    .map(|j| format!("{} {} {:?}", j.algorithm.spec().id, j.instance, j.config))
                    .collect();
                format!("{instances:?} {jobs:?}")
            }
            Work::Stress { cases } => format!("{cases:?}"),
        }
    }

    #[test]
    fn job_lists_are_deterministic_per_seed_and_differ_across_seeds() {
        for workload in Workload::ALL {
            let first = fingerprint(&workload::setup(workload, 7, Scale::Full));
            assert_eq!(
                first,
                fingerprint(&workload::setup(workload, 7, Scale::Full))
            );
            assert_ne!(
                first,
                fingerprint(&workload::setup(workload, 8, Scale::Full))
            );
        }
    }

    #[test]
    fn arguments_parse_and_bad_ones_are_refused() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        assert_eq!(
            parse("--workload dense_sync --seed 9 --seconds 2.5 --trace 1"),
            Ok(Args {
                workload: Workload::DenseSync,
                seed: 9,
                seconds: 2.5,
                trace: true
            })
        );
        for bad in [
            "",
            "--workload nope",
            "--workload dst_sweep --trace 2",
            "--workload dst_sweep --seed -1",
            "--workload dst_sweep --seconds",
            "--workload dst_sweep --extra 1",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be refused");
        }
    }

    #[test]
    fn self_time_subtracts_the_busy_time_of_child_spans() {
        let mut tracer = trace::Tracer::new();
        let span = |name, parent, start_ns, end_ns, busy_ns, calls| trace::Span {
            job: 0,
            name,
            parent,
            start_ns,
            end_ns,
            busy_ns,
            calls,
        };
        tracer.spans = vec![
            span("job", None, 0, 100, 100, 1),
            span("replay.network", Some(0), 10, 70, 60, 1),
            // Three merged calls spread over 15..60, busy for 25 of it.
            span("sim.network.commit", Some(1), 15, 60, 25, 3),
            span("core.execute", Some(0), 70, 90, 20, 1),
        ];
        assert_eq!(tracer.self_times(), vec![20, 35, 25, 20]);
        assert_eq!(tracer.total_ns("sim.network.commit"), 25);

        // Merged calls give the span their envelope and their busy sum.
        let mut tracer = trace::Tracer::new();
        let root = tracer.open(0, "job", None);
        let merged = tracer.open(0, "graph.batch_apply", Some(root));
        tracer.call(merged, 10, 12);
        tracer.call(merged, 40, 45);
        let s = &tracer.spans[merged];
        assert_eq!((s.start_ns, s.end_ns, s.busy_ns, s.calls), (10, 45, 7, 2));
    }

    /// The `key` field of every entry of a `BENCHMARK.json` section.
    fn declared(section: &str, key: &str) -> Vec<String> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
        let body = &json[start..];
        body[..body.find(']').expect("the section is a list")]
            .split(&format!("\"{key}\""))
            .skip(1)
            .map(|entry| {
                let value = entry.trim_start().trim_start_matches(':').trim_start();
                value[1..]
                    .split('"')
                    .next()
                    .expect("quoted value")
                    .to_string()
            })
            .collect()
    }

    /// The printed names and units, to compare with `declared`.
    fn names_and_units(metrics: &[Metric]) -> (Vec<String>, Vec<String>) {
        metrics
            .iter()
            .map(|m| (m.0.to_string(), m.2.to_string()))
            .unzip()
    }

    fn sim_and_digest(report: &Report) -> Vec<String> {
        let mut kept: Vec<String> = report
            .metrics
            .iter()
            .filter(|m| m.0.starts_with("sim_"))
            .map(|m| format!("{} {}", m.0, m.1))
            .collect();
        kept.extend(report.info.iter().filter(|i| i.contains("digest")).cloned());
        kept
    }

    #[test]
    fn every_printed_metric_is_well_named_and_declared_with_its_unit() {
        let workloads: Vec<String> = declared("workloads", "name");
        let expected: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, expected);
        let well_named = |name: &str| {
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        };
        for workload in Workload::ALL {
            let measured = run_measured(workload, 3, 0.0, Scale::Mini);
            let (traced, _) = run_traced(workload, 3, Scale::Mini);
            for report in [&measured, &traced] {
                assert!(report.failures.is_empty(), "{:?}", report.failures);
                assert!(report
                    .metrics
                    .iter()
                    .all(|m| well_named(m.0) && m.1.is_finite()));
            }
            for (report, section) in [(&measured, "end_to_end"), (&traced, "per_layer")] {
                let declared = (declared(section, "name"), declared(section, "unit"));
                assert_eq!(names_and_units(&report.metrics), declared, "{workload:?}");
            }
        }
    }

    #[test]
    fn miniature_workloads_repeat_their_counts_exactly() {
        for workload in Workload::ALL {
            let first = run_measured(workload, 5, 0.0, Scale::Mini);
            let second = run_measured(workload, 5, 0.0, Scale::Mini);
            assert!(first.failures.is_empty(), "{:?}", first.failures);
            assert_eq!(
                sim_and_digest(&first),
                sim_and_digest(&second),
                "{workload:?}"
            );
            assert!(first
                .metrics
                .iter()
                .any(|m| m.0 == "sim_rounds" && m.1 > 0.0));
        }
    }
}
