//! The traced run: spans around the calls into each layer, the replay of
//! each execution's recorded `RoundEvent` stream, and the per-layer
//! metrics derived from both.

use crate::workload::{self, check_outcome, Instance, Job, Work};
use adn_analysis::stress::{StressCase, StressOutcome};
use adn_core::algorithm::{arm_network_for_dst, DstConfig};
use adn_core::TransformationOutcome;
use adn_graph::{Edge, Graph};
use adn_sim::{Network, RoundEvent, Scenario};
use std::io::Write;
use std::time::Instant;

/// One span: a named interval of one job, with the span that caused it.
/// A span that merges repeated calls (every `commit_round` of a replay)
/// runs from its first call's start to its last call's end and is busy
/// only for the sum of its calls.
#[derive(Debug)]
pub struct Span {
    pub job: usize,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub busy_ns: u64,
    pub calls: u64,
}

/// Spans kept in memory for the whole run and written out at its end.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span starting now; [`Tracer::close`] ends it. A span that
    /// merges calls instead gets them through [`Tracer::call`].
    pub fn open(&mut self, job: usize, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.now();
        self.spans.push(Span {
            job,
            name,
            parent,
            start_ns: now,
            end_ns: now,
            busy_ns: 0,
            calls: 0,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        let now = self.now();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.busy_ns = now.saturating_sub(span.start_ns);
        span.calls = 1;
    }

    /// Adds one call, timed by the caller, to a merging span; calls come
    /// in time order.
    pub fn call(&mut self, id: usize, start_ns: u64, end_ns: u64) {
        let span = &mut self.spans[id];
        if span.calls == 0 {
            span.start_ns = start_ns;
        }
        span.end_ns = end_ns;
        span.busy_ns += end_ns.saturating_sub(start_ns);
        span.calls += 1;
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        job: usize,
        name: &'static str,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(job, name, Some(parent));
        let value = f();
        self.close(id);
        value
    }

    /// Every span's self time: its busy time minus the busy time of the
    /// spans it caused.
    pub fn self_times(&self) -> Vec<u64> {
        let mut self_ns: Vec<u64> = self.spans.iter().map(|s| s.busy_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                self_ns[parent] = self_ns[parent].saturating_sub(span.busy_ns);
            }
        }
        self_ns
    }

    /// Busy time summed over every span named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.busy_ns)
            .sum()
    }

    /// Writes one JSON object per span, with its self time.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let self_ns = self.self_times();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"job\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\
                 \"end_ns\":{},\"busy_ns\":{},\"self_ns\":{},\"calls\":{}}}",
                span.job,
                span.name,
                span.start_ns,
                span.end_ns,
                span.busy_ns,
                self_ns[id],
                span.calls
            )?;
        }
        out.flush()
    }
}

/// Per-layer counts gathered alongside the spans.
#[derive(Debug, Default)]
pub struct Counts {
    pub phases: usize,
    pub rounds_committed: usize,
    pub rounds_idle: usize,
    pub rounds_zero_op: usize,
    pub events: usize,
    pub edge_events: usize,
    /// Σ n · rounds over executions: the node-rounds the engine stepped.
    pub node_rounds: usize,
    pub runtime_steps: usize,
    pub runtime_app_messages: usize,
    pub runtime_acks: usize,
    pub runtime_commits: usize,
    pub dst_faults: usize,
    pub dst_violations: usize,
    pub armed_completed: usize,
    pub armed_failed: usize,
    pub armed_panicked: usize,
}

/// The outcome of one traced pass.
pub struct Traced {
    pub tracer: Tracer,
    pub counts: Counts,
    pub attempted: usize,
    pub failures: Vec<String>,
}

/// Runs every job once, under a `job` span with these children:
///
/// * `input.derive` re-derives the job's inputs from its seed
///   (`dst_sweep`: the case's instance, for its fault-free twin);
/// * `sim.dst.armed` runs it DST-armed (`dst_sweep`: `stress::run_case`
///   under the case's scenario; otherwise a fault-free scenario, so only
///   the invariant checks are added) and `sim.dst.render` renders the
///   report;
/// * `core.execute` is the plain execution, as the untraced run times it
///   (`dst_sweep`: the case's fault-free twin);
/// * `core.execute_recorded` repeats it with the bus recorder armed;
/// * `replay.network` replays the recorded stream onto a fresh `Network`
///   (staging untimed, `sim.network.commit` timed per call) and
///   `replay.graph` onto a bare `Graph` (`graph.batch_apply` timed).
///
/// A replay that does not reproduce the execution's metrics and final
/// network fails the job, since the per-layer split is then invalid.
pub fn traced_pass(work: &Work) -> Traced {
    let mut traced = Traced {
        tracer: Tracer::new(),
        counts: Counts::default(),
        attempted: work.len(),
        failures: Vec::new(),
    };
    match work {
        Work::Runs { instances, jobs } => {
            for (id, job) in jobs.iter().enumerate() {
                let instance = &instances[job.instance];
                let root = traced.tracer.open(id, "job", None);
                let derived = traced.tracer.time(id, "input.derive", root, || {
                    Instance::derive(instance.family, instance.n, instance.seed)
                });
                let scenario = job
                    .config
                    .dst
                    .as_ref()
                    .map_or_else(Scenario::failure_free, |d| d.scenario.clone());
                let verdict = if derived == *instance {
                    armed_run(&mut traced, id, root, job, instance, scenario)
                } else {
                    Err("re-derived instance differs".to_string())
                };
                let verdict = verdict.and_then(|armed| {
                    let outcome = trace_execution(&mut traced, id, root, job, instance)?;
                    if (armed.rounds, armed.metrics.total_activations)
                        != (outcome.rounds, outcome.metrics.total_activations)
                    {
                        return Err("the fault-free DST-armed run diverged".to_string());
                    }
                    Ok(())
                });
                traced.tracer.close(root);
                if let Err(e) = verdict {
                    traced
                        .failures
                        .push(format!("{}: {e}", workload::label(job, instance)));
                }
            }
        }
        Work::Stress { cases } => {
            for (id, case) in cases.iter().enumerate() {
                let root = traced.tracer.open(id, "job", None);
                let verdict = trace_case(&mut traced, id, root, case);
                traced.tracer.close(root);
                if let Err(e) = verdict {
                    traced
                        .failures
                        .push(format!("{}: {e}", workload::case_label(case)));
                }
            }
        }
    }
    traced
}

/// One algorithm job's DST-armed run; returns its outcome when it
/// completed without faults or violations.
fn armed_run(
    traced: &mut Traced,
    id: usize,
    root: usize,
    job: &Job,
    instance: &Instance,
    scenario: Scenario,
) -> Result<TransformationOutcome, String> {
    let tracer = &mut traced.tracer;
    let mut network = Network::new(instance.graph.clone());
    let result = tracer.time(id, "sim.dst.armed", root, || {
        let dst = DstConfig { scenario, seed: 0 };
        arm_network_for_dst(&mut network, &job.algorithm.spec(), &instance.uids, &dst);
        job.algorithm
            .execute(&mut network, &instance.uids, &job.config)
    });
    let counts = &mut traced.counts;
    let outcome = match result {
        Ok(outcome) => {
            counts.armed_completed += 1;
            outcome
        }
        Err(e) => {
            counts.armed_failed += 1;
            return Err(format!("DST-armed run failed: {e}"));
        }
    };
    let report = outcome
        .dst
        .as_ref()
        .ok_or_else(|| "DST-armed run returned no report".to_string())?;
    counts.dst_faults += report.faults.len();
    counts.dst_violations += report.violations.len();
    traced
        .tracer
        .time(id, "sim.dst.render", root, || report.render());
    if !report.faults.is_empty() || !report.violations.is_empty() {
        return Err(format!(
            "fault-free DST-armed run reported:\n{}",
            report.render()
        ));
    }
    Ok(outcome)
}

fn trace_case(
    traced: &mut Traced,
    id: usize,
    root: usize,
    case: &StressCase,
) -> Result<(), String> {
    let tracer = &mut traced.tracer;
    let (job, instance) = tracer.time(id, "input.derive", root, || workload::unarmed_twin(case));
    let report = tracer.time(id, "sim.dst.armed", root, || {
        adn_analysis::stress::run_case(case)
    });
    tracer.time(id, "sim.dst.render", root, || report.render());
    let counts = &mut traced.counts;
    counts.dst_faults += report.dst.faults.len();
    counts.dst_violations += report.dst.violations.len();
    match report.outcome {
        StressOutcome::Completed { .. } => counts.armed_completed += 1,
        StressOutcome::Failed(_) => counts.armed_failed += 1,
        StressOutcome::Panicked(_) => counts.armed_panicked += 1,
    }
    if report.is_suite_failure() {
        return Err("suite failure".to_string());
    }
    trace_execution(traced, id, root, &job, &instance).map(|_| ())
}

/// The execution and replay spans of [`traced_pass`] for one execution;
/// returns the plain execution's checked outcome.
fn trace_execution(
    traced: &mut Traced,
    id: usize,
    root: usize,
    job: &Job,
    instance: &Instance,
) -> Result<TransformationOutcome, String> {
    let tracer = &mut traced.tracer;
    let mut network = Network::new(instance.graph.clone());
    let outcome = tracer
        .time(id, "core.execute", root, || {
            job.algorithm
                .execute(&mut network, &instance.uids, &job.config)
        })
        .map_err(|e| e.to_string())?;
    check_outcome(job.algorithm, instance, &outcome)?;

    let mut network = Network::new(instance.graph.clone());
    network.set_event_recording(true);
    let recorded = tracer
        .time(id, "core.execute_recorded", root, || {
            job.algorithm
                .execute(&mut network, &instance.uids, &job.config)
        })
        .map_err(|e| e.to_string())?;
    let events = network.take_events();
    if recorded.metrics != outcome.metrics || recorded.final_graph != outcome.final_graph {
        return Err("arming the recorder changed the execution".to_string());
    }

    let replay = tracer.open(id, "replay.network", Some(root));
    let replayed = replay_network(tracer, id, replay, &instance.graph, &events);
    tracer.close(replay);
    let replayed = replayed?;
    let (got, want) = (replayed.metrics(), &outcome.metrics);
    let fields = |m: &adn_sim::EdgeMetrics| {
        [
            m.rounds,
            m.total_activations,
            m.total_deactivations,
            m.max_activated_edges,
            m.max_activated_degree,
            m.max_total_degree,
        ]
    };
    if fields(got) != fields(want) || replayed.graph() != &outcome.final_graph {
        return Err(format!(
            "network replay diverged: [rounds, activations, deactivations, max activated \
             edges, max activated degree, max total degree] = {:?}, expected {:?}",
            fields(got),
            fields(want)
        ));
    }
    let replay = tracer.open(id, "replay.graph", Some(root));
    let graph = replay_graph(tracer, id, replay, &instance.graph, &events);
    tracer.close(replay);
    if graph != outcome.final_graph {
        return Err("graph replay diverged".to_string());
    }

    let counts = &mut traced.counts;
    counts.phases += outcome.phases;
    counts.node_rounds += instance.graph.node_count() * outcome.rounds;
    counts.events += events.len();
    for event in &events {
        match *event {
            RoundEvent::Edge { .. } => counts.edge_events += 1,
            RoundEvent::RoundCommitted {
                activations,
                deactivations,
                ..
            } => {
                counts.rounds_committed += 1;
                if activations + deactivations == 0 {
                    counts.rounds_zero_op += 1;
                }
            }
            RoundEvent::IdleRound => counts.rounds_idle += 1,
            RoundEvent::NodeJoined(_) | RoundEvent::NodeCrashed(_) => {}
        }
    }
    if let Some(runtime) = &outcome.runtime {
        counts.runtime_steps += runtime.steps;
        counts.runtime_app_messages += runtime.app_messages;
        counts.runtime_acks += runtime.acks;
        counts.runtime_commits += runtime.commits;
    }
    Ok(outcome)
}

/// Replays a fault-free event stream onto a fresh network: each round's
/// edge events are staged (untimed) and its boundary committed (timed), and
/// each idle round is charged (timed). A round's edge events are recorded
/// at its commit, so no idle round falls between them.
///
/// Staging is not reported: `stage_activation`'s common-neighbour scan
/// costs more than the witnessed wave staging the algorithms use.
fn replay_network(
    tracer: &mut Tracer,
    job: usize,
    parent: usize,
    initial: &Graph,
    events: &[RoundEvent],
) -> Result<Network, String> {
    let mut network = Network::new(initial.clone());
    let commit = tracer.open(job, "sim.network.commit", Some(parent));
    for event in events {
        match *event {
            RoundEvent::Edge { edge, added, .. } => {
                let staged = if added {
                    network.stage_activation(edge.a, edge.b)
                } else {
                    network.stage_deactivation(edge.a, edge.b)
                };
                if !matches!(staged, Ok(true)) {
                    return Err(format!("replayed {event:?} was not staged: {staged:?}"));
                }
            }
            RoundEvent::RoundCommitted {
                activations,
                deactivations,
                ..
            } => {
                let start = tracer.now();
                let summary = network.commit_round();
                tracer.call(commit, start, tracer.now());
                if (summary.activations, summary.deactivations) != (activations, deactivations) {
                    return Err(format!("replayed round {} diverged", summary.round));
                }
            }
            RoundEvent::IdleRound => {
                let start = tracer.now();
                network.advance_idle_rounds(1);
                tracer.call(commit, start, tracer.now());
            }
            RoundEvent::NodeJoined(_) | RoundEvent::NodeCrashed(_) => {
                return Err(format!("fault event {event:?} in a fault-free run"));
            }
        }
    }
    Ok(network)
}

/// Replays the stream's edge events onto a bare graph, one
/// `add_edges_batch` + `remove_edges_batch` pair per committed round.
/// Rounds are grouped before the timed loop.
fn replay_graph(
    tracer: &mut Tracer,
    job: usize,
    parent: usize,
    initial: &Graph,
    events: &[RoundEvent],
) -> Graph {
    let mut rounds: Vec<(Vec<Edge>, Vec<Edge>)> = vec![(Vec::new(), Vec::new())];
    for event in events {
        match *event {
            RoundEvent::Edge { edge, added, .. } => {
                let round = rounds.last_mut().expect("rounds is never empty");
                if added {
                    round.0.push(edge);
                } else {
                    round.1.push(edge);
                }
            }
            RoundEvent::RoundCommitted { .. } => rounds.push((Vec::new(), Vec::new())),
            _ => {}
        }
    }
    let mut graph = initial.clone();
    let apply = tracer.open(job, "graph.batch_apply", Some(parent));
    for (adds, removes) in rounds
        .iter()
        .filter(|(a, r)| !a.is_empty() || !r.is_empty())
    {
        let start = tracer.now();
        graph.add_edges_batch(adds, |_| {});
        graph.remove_edges_batch(removes, |_| {});
        tracer.call(apply, start, tracer.now());
    }
    graph
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// The per-layer metrics of a traced pass, in `BENCHMARK.json` order.
pub fn per_layer_metrics(traced: &Traced) -> Vec<(&'static str, f64, &'static str)> {
    let t = &traced.tracer;
    let c = &traced.counts;
    let ms = |ns: u64| ns as f64 / 1e6;
    let execute = t.total_ns("core.execute");
    let recorded = t.total_ns("core.execute_recorded");
    let commit = t.total_ns("sim.network.commit");
    let armed = t.total_ns("sim.dst.armed");
    let self_ns = execute as f64 - commit as f64;
    let rounds = (c.rounds_committed + c.rounds_idle) as f64;
    vec![
        ("core.execute_ms", ms(execute), "ms"),
        ("core.self_ms", self_ns / 1e6, "ms"),
        ("core.phases", c.phases as f64, "count"),
        ("sim.network.commit_ms", ms(commit), "ms"),
        (
            "sim.network.commit_us_per_round",
            ratio(commit as f64 / 1e3, rounds),
            "us",
        ),
        ("sim.rounds_committed", c.rounds_committed as f64, "count"),
        ("sim.rounds_idle", c.rounds_idle as f64, "count"),
        ("sim.rounds_zero_op", c.rounds_zero_op as f64, "count"),
        (
            "sim.useful_round_share",
            ratio((c.rounds_committed - c.rounds_zero_op) as f64, rounds),
            "share",
        ),
        ("sim.bus.events", c.events as f64, "count"),
        (
            "sim.edge_events_per_round",
            ratio(c.edge_events as f64, rounds),
            "count",
        ),
        (
            "sim.bus.record_overhead_pct",
            ratio(100.0 * (recorded as f64 - execute as f64), execute as f64),
            "%",
        ),
        (
            "sim.engine.ns_per_node_round",
            ratio(self_ns, c.node_rounds as f64),
            "ns",
        ),
        (
            "graph.batch_apply_ms",
            ms(t.total_ns("graph.batch_apply")),
            "ms",
        ),
        ("runtime.steps", c.runtime_steps as f64, "count"),
        (
            "runtime.app_messages",
            c.runtime_app_messages as f64,
            "count",
        ),
        ("runtime.acks", c.runtime_acks as f64, "count"),
        ("runtime.commits", c.runtime_commits as f64, "count"),
        ("input.derive_ms", ms(t.total_ns("input.derive")), "ms"),
        ("sim.dst.armed_ms", ms(armed), "ms"),
        (
            "sim.dst.armed_overhead_ms",
            (armed as f64 - execute as f64) / 1e6,
            "ms",
        ),
        ("sim.dst.render_ms", ms(t.total_ns("sim.dst.render")), "ms"),
        ("sim.dst.faults", c.dst_faults as f64, "count"),
        ("sim.dst.violations", c.dst_violations as f64, "count"),
        ("stress.completed", c.armed_completed as f64, "count"),
        ("stress.failed", c.armed_failed as f64, "count"),
        ("stress.panicked", c.armed_panicked as f64, "count"),
    ]
}
