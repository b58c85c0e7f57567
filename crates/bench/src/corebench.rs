//! CPU-performance baseline for the hot data path (`BENCH_core.json`).
//!
//! The model-level report measures rounds and activations — quantities the
//! paper's theorems are about. This module measures the *wall-clock* cost
//! of the structures those quantities are computed on: raw graph mutation,
//! distance-2 scans, `commit_round`, full algorithm executions and the
//! stress-sweep throughput. The resulting JSON is the comparison point for
//! every future performance PR (see README "Performance").
//!
//! Run with `cargo run -p adn-bench --release --bin report -- --bench`
//! (`--quick` for the reduced CI smoke pass, `--threads N` to pin the
//! sweep-throughput case to a thread count).

use crate::harness::{Bench, Sample};
use adn_analysis::stress::json_escape;
use adn_core::algorithm::{self, EngineMode, RunConfig};
use adn_core::committee::{CommitteeForest, CommitteeId, SelectionForest};
use adn_core::subroutines::{run_line_to_tree, run_runtime_line_to_tree, LineToTreeConfig};
use adn_graph::rng::DetRng;
use adn_graph::{generators, BitRow, BitRows, Edge, Graph, NodeId, UidAssignment, UidMap};
use adn_runtime::flood::flood_actors;
use adn_runtime::{AsyncKnobs, SeededScheduler};
use adn_sim::{Adversary, DstState, InvariantPolicy, Network, Scenario, WaveActivation};
use std::collections::BTreeSet;
use std::time::Instant;

/// Configuration for the core CPU benchmark.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreBenchConfig {
    /// Reduced sizes and iteration counts for the CI smoke job.
    pub quick: bool,
    /// Worker threads for the sweep-throughput case (0 = available
    /// parallelism).
    pub threads: usize,
}

/// Resolves a requested worker-thread count: `0` means one thread per
/// available core (the shared default of every parallel entry point).
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    }
}

/// A deterministic pseudo-random edge stream on `n` nodes (no self-loops,
/// duplicates allowed — the structures under test must absorb them).
fn edge_stream(n: usize, m: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    let mut rng = DetRng::seed_from_u64(seed);
    (0..m)
        .map(|_| {
            let u = rng.gen_range(0, n);
            let mut v = rng.gen_range(0, n - 1);
            if v >= u {
                v += 1;
            }
            (NodeId(u), NodeId(v))
        })
        .collect()
}

/// A deterministic connected "scratch" graph for read-path cases.
fn scratch_graph(n: usize, extra: usize, seed: u64) -> Graph {
    generators::random_line_with_chords(n, extra, seed)
}

fn bench_graph_ops(bench: &mut Bench, quick: bool) {
    let n = if quick { 256 } else { 1024 };
    let m = if quick { 2048 } else { 16384 };
    let stream = edge_stream(n, m, 0xADD5);

    bench.measure(&format!("graph/add_remove_stream n={n} m={m}"), || {
        let mut g = Graph::new(n);
        for &(u, v) in &stream {
            let _ = g.add_edge(u, v);
        }
        for &(u, v) in &stream {
            let _ = g.remove_edge(u, v);
        }
        assert!(g.is_empty());
    });

    // Every node's `N_2` off a fresh bit-row copy, as one round of clique
    // formation computes them. n = 1024 in both modes: at a smaller n the
    // quick row would run under the `--check` noise floor.
    let n_potential = 1024;
    let g = scratch_graph(n_potential, 4 * n_potential, 0x5EED);
    let mut rows = BitRows::new();
    let mut reach = BitRow::new();
    bench.measure(&format!("graph/bitrows_n2_all n={n_potential}"), || {
        rows.fill(&g);
        let mut total = 0usize;
        for u in g.nodes() {
            rows.distance_two(u, &mut reach);
            total += reach.nodes_from(NodeId(0)).count();
        }
        assert!(total > 0);
    });

    let g = scratch_graph(n, 4 * n, 0x5EED);
    bench.measure(&format!("graph/neighbor_scan n={n}"), || {
        let mut acc = 0usize;
        for u in g.nodes() {
            for v in g.neighbors(u) {
                acc = acc.wrapping_add(v.index());
            }
        }
        std::hint::black_box(acc);
    });
}

fn bench_commit_round(bench: &mut Bench, quick: bool) {
    // Star with centre 0: every leaf pair is at distance 2, so arbitrary
    // leaf-leaf activations are valid. Stage `chunk` edges per round,
    // commit, then deactivate them over the same number of rounds — a
    // pure staging/commit workload with no algorithm logic on top.
    let n = if quick { 513 } else { 2049 };
    let chunk = 64;
    let rounds = if quick { 16 } else { 64 };
    let mut rng = DetRng::seed_from_u64(0xC0117);
    let schedule: Vec<Vec<(NodeId, NodeId)>> = (0..rounds)
        .map(|_| {
            (0..chunk)
                .map(|_| {
                    let u = rng.gen_range(1, n);
                    let mut v = rng.gen_range(1, n - 1);
                    if v >= u {
                        v += 1;
                    }
                    (NodeId(u), NodeId(v))
                })
                .collect()
        })
        .collect();

    bench.measure(
        &format!("network/commit_round star n={n} chunk={chunk} rounds={rounds}x2"),
        || {
            let mut net = Network::new(generators::star(n));
            for batch in &schedule {
                for &(u, v) in batch {
                    let _ = net.stage_activation(u, v);
                }
                net.commit_round();
            }
            for batch in &schedule {
                for &(u, v) in batch {
                    let _ = net.stage_deactivation(u, v);
                }
                net.commit_round();
            }
            assert_eq!(net.activated_edge_count(), 0);
        },
    );

    // Steady-state variant: the network outlives the closure, so the
    // measurement is staging + commit only (no construction), and every
    // iteration returns the snapshot to the initial star.
    let mut net = Network::new(generators::star(n));
    bench.measure(
        &format!("network/commit_round_steady star n={n} chunk={chunk} rounds={rounds}x2"),
        || {
            for batch in &schedule {
                for &(u, v) in batch {
                    let _ = net.stage_activation(u, v);
                }
                net.commit_round();
            }
            for batch in &schedule {
                for &(u, v) in batch {
                    let _ = net.stage_deactivation(u, v);
                }
                net.commit_round();
            }
            assert_eq!(net.activated_edge_count(), 0);
        },
    );

    // The asynchronous runtime's commit shape: each handler commits its
    // own round, almost always of one activation or one deactivation.
    // Every round here is one operation on a distinct leaf pair.
    let ops = if quick { 4096 } else { 16384 };
    let (mut seen, mut one_op) = (BTreeSet::new(), Vec::with_capacity(ops));
    while one_op.len() < ops {
        let (u, v) = (NodeId(rng.gen_range(1, n)), NodeId(rng.gen_range(1, n)));
        if u != v && seen.insert(Edge::new(u, v)) {
            one_op.push((u, v));
        }
    }
    bench.measure(
        &format!("network/commit_round_one_op star n={n} rounds={ops}x2"),
        || {
            for &(u, v) in &one_op {
                let _ = net.stage_activation(u, v);
                net.commit_round();
            }
            for &(u, v) in &one_op {
                let _ = net.stage_deactivation(u, v);
                net.commit_round();
            }
            assert_eq!(net.activated_edge_count(), 0);
        },
    );
}

/// `m` distinct canonical edges on `n` nodes, sorted ascending — the
/// batch-build input for the scaling rows.
fn scale_edges(n: usize, m: usize, seed: u64) -> Vec<Edge> {
    let mut rng = DetRng::seed_from_u64(seed ^ n as u64);
    let mut set: BTreeSet<Edge> = BTreeSet::new();
    while set.len() < m {
        let u = rng.gen_range(0, n);
        let mut v = rng.gen_range(0, n - 1);
        if v >= u {
            v += 1;
        }
        set.insert(Edge::new(NodeId(u), NodeId(v)));
    }
    set.into_iter().collect()
}

/// `k` distinct leaf-leaf activations on a centre-0 star, each witnessed
/// by the hub — a maximal valid jump wave for the commit benchmarks.
fn scale_wave(n: usize, k: usize, seed: u64) -> (Vec<WaveActivation>, Vec<Edge>) {
    let mut rng = DetRng::seed_from_u64(seed ^ n as u64);
    let mut set: BTreeSet<Edge> = BTreeSet::new();
    while set.len() < k {
        let u = 1 + rng.gen_range(0, n - 1);
        let mut v = 1 + rng.gen_range(0, n - 2);
        if v >= u {
            v += 1;
        }
        set.insert(Edge::new(NodeId(u), NodeId(v)));
    }
    let drops: Vec<Edge> = set.iter().copied().collect();
    let wave = drops
        .iter()
        .map(|e| WaveActivation {
            initiator: e.a,
            target: e.b,
            witness: NodeId(0),
        })
        .collect();
    (wave, drops)
}

/// The scaling rows the ROADMAP's million-node item commits to: arena
/// batch build plus a full adjacency sweep (`graph/scale`), and a staged
/// jump wave committed and dropped again (`network/commit_round_wave`),
/// each annotated with a `bytes_per_node` footprint stat. The n = 10^6
/// points run in the separate one-shot cold group (full mode only) so
/// `--quick` stays fast.
fn bench_scale(bench: &mut Bench, n: usize, cold: bool) {
    let m = 2 * n;
    let edges = scale_edges(n, m, 0x5CA1E);
    let mut built: Option<Graph> = None;
    let build_scan = |built: &mut Option<Graph>| {
        let mut g = Graph::new(n);
        for chunk in edges.chunks(8192) {
            g.add_edges_batch(chunk, |_| {});
        }
        assert_eq!(g.edge_count(), m);
        let mut acc = 0usize;
        for u in g.nodes() {
            for &v in g.neighbors_slice(u) {
                acc = acc.wrapping_add(v.index());
            }
        }
        std::hint::black_box(acc);
        *built = Some(g);
    };
    let label = format!("graph/scale batch_build+scan n={n} m={m}");
    if cold {
        bench.measure_cold(&label, || build_scan(&mut built));
    } else {
        bench.measure(&label, || build_scan(&mut built));
    }
    let g = built.take().expect("measured at least once");
    bench.annotate("bytes_per_node", (g.memory_footprint_bytes() / n) as u128);
    drop(g);

    // One wave of k activations committed, then dropped — back to the
    // initial star each iteration.
    let k = (n / 4).max(1024);
    let (wave, drops) = scale_wave(n, k, 0xC0557);
    let mut net = Network::new(generators::star(n));
    let commit_cycle = |net: &mut Network| {
        net.stage_jump_wave(&wave, &[]).expect("hub-witnessed wave");
        net.commit_round();
        net.stage_jump_wave(&[], &drops).expect("edges are active");
        net.commit_round();
        assert_eq!(net.activated_edge_count(), 0);
    };
    let label = format!("network/commit_round_wave star n={n} wave={k}");
    if cold {
        bench.measure_cold(&label, || commit_cycle(&mut net));
    } else {
        bench.measure(&label, || commit_cycle(&mut net));
    }
    bench.annotate(
        "bytes_per_node",
        (net.graph().memory_footprint_bytes() / n) as u128,
    );
}

/// The full-mode-only n = 10^6 group: the scaling rows plus one complete
/// `graph_to_wreath` execution at million-node scale — the ROADMAP's "as
/// fast as the hardware allows" checkpoints. Everything is measured cold
/// and once; at this size a warm-up pass would only double a multi-second
/// row.
fn bench_million(bench: &mut Bench) {
    let n = 1_000_000usize;
    bench_scale(bench, n, true);
    bench_wreath_cold(bench, n);
}

/// One cold `graph_to_wreath` execution on an `n`-node line, annotated
/// with its round count: the rows where Θ(n) against O(log² n) rounds
/// shows.
fn bench_wreath_cold(bench: &mut Bench, n: usize) {
    let line = generators::line(n);
    let uids = UidMap::new(n, UidAssignment::RandomPermutation { seed: 11 });
    let a = algorithm::find("graph_to_wreath").expect("registered algorithm");
    let mut rounds = 0usize;
    bench.measure_cold(&format!("algorithm/graph_to_wreath n={n}"), || {
        rounds = a
            .run(&line, &uids, &RunConfig::default())
            .expect("clean run")
            .rounds;
    });
    bench.annotate("rounds", rounds as u128);
}

fn bench_algorithms(bench: &mut Bench, quick: bool) {
    // Quick mode uses n = 256: at n = 128 GraphToStar runs at the
    // `--check` noise floor. Clique formation stays at n = 128 in both
    // modes: its Θ(n²) edge growth makes one n = 512 run take seconds.
    // Centralized general stays at n = 512: at n = 128 it runs under the
    // noise floor.
    let n = if quick { 256 } else { 512 };
    let cases: &[(&str, Graph)] = &[
        ("graph_to_star", generators::line(n)),
        ("graph_to_wreath", generators::line(n)),
        ("graph_to_thin_wreath", generators::line(n)),
        ("flooding", generators::ring(n)),
        ("centralized_general", generators::line(512)),
        ("clique_formation", generators::ring(128)),
    ];
    for (id, graph) in cases {
        let a = algorithm::find(id).expect("registered algorithm");
        let n = graph.node_count();
        let uids = UidMap::new(n, UidAssignment::RandomPermutation { seed: 11 });
        let config = RunConfig::default();
        bench.measure(&format!("algorithm/{id} n={n}"), || {
            let outcome = a.run(graph, &uids, &config).expect("clean run");
            assert!(outcome.rounds > 0);
        });
    }
    if !quick {
        bench_wreath_cold(bench, 65536);
    }
}

/// One synchronous LineToCompleteBinaryTree rebuild of a whole line: the
/// lockstep every wreath-family phase runs on its merged rings, whose
/// pointer jumps commit through `Network::commit_jumps`.
fn bench_line_to_tree(bench: &mut Bench, quick: bool) {
    let n = if quick { 4096 } else { 65536 };
    let graph = generators::line(n);
    let line: Vec<NodeId> = (0..n).map(NodeId).collect();
    let config = LineToTreeConfig::binary();
    bench.measure(&format!("subroutine/line_to_tree line n={n}"), || {
        let mut net = Network::new(graph.clone());
        let (tree, rounds) = run_line_to_tree(&mut net, &line, &config).expect("a line rebuilds");
        assert!(rounds > 0);
        std::hint::black_box(tree.depth());
    });
}

/// Builds a mid-merge committee forest: `committees` surviving slots over
/// `n` nodes, members distributed round-robin (every committee keeps its
/// smallest slot as leader — the shape a few merge phases produce).
fn mid_merge_forest(n: usize, committees: usize) -> CommitteeForest {
    let mut forest = CommitteeForest::singletons(n);
    let merges: Vec<(CommitteeId, CommitteeId)> = (committees..n)
        .map(|i| (CommitteeId(i), CommitteeId(i % committees)))
        .collect();
    forest.absorb_batch(&merges);
    forest
}

fn bench_committee(bench: &mut Bench, quick: bool) {
    // Quick mode uses n = 8192: the one-pass selection reads about 10 µs
    // at n = 512 and 130 µs at n = 4096, too near the `--check` noise
    // floor of 100 µs.
    let n = if quick { 8192 } else { 32768 };
    let g = scratch_graph(n, 4 * n, 0xC033);
    let uids = UidMap::new(n, UidAssignment::RandomPermutation { seed: 0xC033 });
    let committees = (n / 8).max(2);
    let forest = mid_merge_forest(n, committees);
    bench.measure(
        &format!("committee/select n={n} committees={committees}"),
        || {
            let choices = forest.select_largest_uid_neighbors(&g, &uids, |_| true);
            assert!(choices.iter().any(Option::is_some));
        },
    );

    // A full merge cascade: every committee selects over the snapshot and
    // each selection tree merges into its root, until one committee
    // remains — the structural work of the wreath engine's phase loop,
    // without the edge operations.
    bench.measure(&format!("committee/selection_cascade n={n}"), || {
        let mut forest = CommitteeForest::singletons(n);
        while forest.live_count() > 1 {
            let choices = forest.select_largest_uid_neighbors(&g, &uids, |_| true);
            let selections: Vec<(CommitteeId, CommitteeId)> = forest
                .live_ids()
                .iter()
                .filter_map(|&c| choices[c.index()].map(|(target, _, _)| (c, target)))
                .collect();
            let sel = SelectionForest::new(&forest, &selections);
            let merges: Vec<(CommitteeId, CommitteeId)> = selections
                .iter()
                .map(|&(c, _)| (c, sel.root_of(c)))
                .collect();
            forest.absorb_batch(&merges);
        }
        assert_eq!(forest.live_count(), 1);
    });
}

/// The asynchronous actor runtime: flooding, line-to-tree and the
/// committee actors (GraphToStar / GraphToWreath) on the seeded
/// scheduler. The flooding and line-to-tree cases exercise the
/// adversarial knobs (reorder window, per-link delay, asymmetric latency).
fn bench_runtime(bench: &mut Bench, quick: bool) {
    let n = if quick { 128 } else { 512 };
    let knobs = AsyncKnobs {
        reorder_window: 4,
        max_link_delay: 2,
        asymmetric_delay: true,
    };
    let seeded = SeededScheduler::new(42).with_knobs(knobs);

    let ring = generators::ring(n);
    bench.measure(&format!("runtime/flood_seeded n={n}"), || {
        let mut net = Network::new(ring.clone());
        let mut actors = flood_actors(&ring);
        let report = seeded
            .run(&mut net, &mut actors)
            .expect("seeded flood quiesces");
        assert_eq!(report.in_flight_at_detection, 0);
    });

    let line_graph = generators::line(n);
    let line: Vec<NodeId> = (0..n).map(NodeId).collect();
    let config = LineToTreeConfig::binary();
    bench.measure(&format!("runtime/line_to_tree_seeded n={n}"), || {
        let mut net = Network::new(line_graph.clone());
        let (tree, report) = run_runtime_line_to_tree(&mut net, &line, &config, &seeded)
            .expect("seeded tree build quiesces");
        assert_eq!(report.in_flight_at_detection, 0);
        std::hint::black_box(tree.depth());
    });

    // The committee actors: GraphToStar / GraphToWreath through the full
    // `EngineMode` dispatch path. Smaller n than the subroutine cases —
    // a committee run is a whole phase cascade (gossip, report, decide,
    // execute per phase), not a single quiescent wave.
    let committee_n = if quick { 64 } else { 256 };
    let committee_graph = generators::ring(committee_n);
    let committee_uids = UidMap::new(committee_n, UidAssignment::RandomPermutation { seed: 11 });
    for (id, label) in [("graph_to_star", "star"), ("graph_to_wreath", "wreath")] {
        let a = algorithm::find(id).expect("registered algorithm");
        let seeded = RunConfig::default().with_engine(EngineMode::Seeded { seed: 42 });
        bench.measure(&format!("runtime/{label}_seeded n={committee_n}"), || {
            let outcome = a
                .run(&committee_graph, &committee_uids, &seeded)
                .expect("seeded committee run quiesces");
            assert!(outcome.runtime.is_some());
        });
    }
}

fn bench_sweep(bench: &mut Bench, quick: bool, threads: usize) {
    let cases = if quick { 24 } else { 96 };
    bench.measure(&format!("sweep/serial cases={cases}"), || {
        let summary = adn_analysis::stress::sweep(0xBE7C4, cases);
        assert_eq!(summary.reports.len(), cases);
    });
    if threads > 1 {
        bench.measure(&format!("sweep/threads={threads} cases={cases}"), || {
            let summary = adn_analysis::stress::sweep_with_threads(0xBE7C4, cases, threads);
            assert_eq!(summary.reports.len(), cases);
        });
        bench.annotate("cores", resolve_threads(0) as u128);
    }
}

/// The DST invariant engine under a sparse steady-state workload and
/// under churn, at the ROADMAP's n=65536 scale. Every round stages at
/// most 64 edge events on an armed 65536-node star, so the steady row
/// (`dst/invariants_steady`) pays O(changes) per round: the centre
/// witnesses every dropped chord, so the connectivity verdict is never
/// re-checked. The churn row drives one join per round through the
/// event-fed path (UID bookkeeping, and an attach edge that leaves the
/// verdict standing).
fn bench_dst_invariants(bench: &mut Bench) {
    let n = 65536usize;
    let rounds = 64usize;
    let chunk = 64usize;
    // Distinct leaf-leaf chords on the centre-0 star: every leaf pair is
    // at distance 2, so plain staging validates, and none of them is an
    // initial edge.
    let chords: Vec<(NodeId, NodeId)> = (0..chunk)
        .map(|k| (NodeId(1 + 2 * k), NodeId(2 + 2 * k)))
        .collect();
    let policy = InvariantPolicy {
        max_activated_degree: Some(8),
        max_active_edges: Some(2 * n),
    };
    let uids: Vec<u64> = (1..=n as u64).collect();
    let toggle_rounds = |net: &mut Network| {
        for r in 0..rounds {
            for &(u, v) in &chords {
                if r % 2 == 0 {
                    let _ = net.stage_activation(u, v);
                } else {
                    let _ = net.stage_deactivation(u, v);
                }
            }
            net.commit_round();
        }
        assert_eq!(net.activated_edge_count(), 0);
    };

    let mut net = Network::new(generators::star(n));
    let state = DstState::new(
        Adversary::new(Scenario::failure_free(), 0xD57),
        policy.clone(),
        uids.clone(),
    );
    net.install_dst(state);
    bench.measure(&format!("dst/invariants_steady n={n}"), || {
        toggle_rounds(&mut net);
    });

    // Churn: one guaranteed join per round boundary (probability 1, ample
    // budget), so every round exercises the event-fed join path — the
    // attach edge, which needs no connectivity re-check, and incremental
    // UID bookkeeping.
    let churn = Scenario {
        fault_budget: 1_000_000,
        per_round_probability: 1.0,
        ..Scenario::churn()
    };
    let mut net = Network::new(generators::star(n));
    let state = DstState::new(Adversary::new(churn, 0xD58), policy, uids);
    net.install_dst(state);
    bench.measure(&format!("dst/invariants_churn n={n}"), || {
        for _ in 0..rounds {
            net.advance_idle_rounds(1);
        }
    });
}

/// Serializes bench samples to the `BENCH_core.json` document
/// (hand-rolled — the workspace is dependency-free).
fn to_json(cfg: &CoreBenchConfig, threads: usize, elapsed_ms: u128, samples: &[Sample]) -> String {
    let rows: Vec<String> = samples
        .iter()
        .map(|s| {
            let stats: String = s
                .stats
                .iter()
                .map(|(k, v)| format!(",\"{}\":{v}", json_escape(k)))
                .collect();
            format!(
                "{{\"case\":\"{}\",\"min_ns\":{},\"median_ns\":{},\"mean_ns\":{}{stats}}}",
                json_escape(&s.label),
                s.min.as_nanos(),
                s.median.as_nanos(),
                s.mean.as_nanos(),
            )
        })
        .collect();
    // `cores` records the machine the numbers were taken on: rows pinned
    // to more worker threads than that measure oversubscription overhead,
    // not speedup, and the baseline check skips them on smaller machines.
    format!(
        "{{\"mode\":\"{}\",\"threads\":{},\"cores\":{},\"elapsed_ms\":{},\"rows\":[{}]}}",
        if cfg.quick { "quick" } else { "full" },
        threads,
        resolve_threads(0),
        elapsed_ms,
        rows.join(","),
    )
}

/// The worker-thread count a case label is pinned to (a `threads=K`
/// token anywhere in the label), if any.
fn pinned_threads(label: &str) -> Option<usize> {
    let rest = &label[label.find("threads=")? + "threads=".len()..];
    let digits = &rest[..rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len())];
    digits.parse().ok()
}

/// Extracts `(case label, min_ns)` rows from a `BENCH_core.json` document.
///
/// The artifact is hand-rolled, so the scanner is deliberately tolerant:
/// keys may come in any order, whitespace may appear anywhere, trailing
/// (or duplicated) commas are accepted, and string escapes are decoded. A
/// row counts only when its `case` and `min_ns` fields appear *in the
/// same object* — the substring scanner this replaces searched forward
/// for `"min_ns":` from the label and could silently pair a label with
/// the *next* row's counter when keys were reordered or renamed, dropping
/// a row from the regression gate without any visible error.
pub fn parse_rows(json: &str) -> Vec<(String, u128)> {
    let mut scanner = RowScanner {
        bytes: json.as_bytes(),
        pos: 0,
        rows: Vec::new(),
    };
    scanner.skip_ws();
    let _ = scanner.value();
    scanner.rows
}

/// Minimal recursive-descent scanner behind [`parse_rows`]: walks any
/// JSON-shaped document and collects every object that carries both a
/// `"case"` string and a `"min_ns"` integer. Malformed input never
/// panics — scanning just stops at the first byte that fits nothing.
struct RowScanner<'a> {
    bytes: &'a [u8],
    pos: usize,
    rows: Vec<(String, u128)>,
}

impl RowScanner<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, c: u8) -> bool {
        self.skip_ws();
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Parses any value; returns the integer when the value was a
    /// nonnegative integer number, `Some(None)` for every other valid
    /// value, `None` when nothing could be parsed (scan stops there).
    fn value(&mut self) -> Option<Option<u128>> {
        self.skip_ws();
        match self.peek()? {
            b'{' => self.object().map(|()| None),
            b'[' => self.array().map(|()| None),
            b'"' => self.string().map(|_| None),
            _ => self.scalar(),
        }
    }

    fn object(&mut self) -> Option<()> {
        if !self.eat(b'{') {
            return None;
        }
        let mut case: Option<String> = None;
        let mut min_ns: Option<u128> = None;
        loop {
            // Tolerate trailing and duplicated commas between members.
            while self.eat(b',') {}
            if self.eat(b'}') {
                break;
            }
            let key = self.string()?;
            if !self.eat(b':') {
                return None;
            }
            self.skip_ws();
            if self.peek() == Some(b'"') {
                let v = self.string()?;
                if key == "case" {
                    case = Some(v);
                }
            } else {
                let v = self.value()?;
                if key == "min_ns" {
                    min_ns = v.or(min_ns);
                }
            }
        }
        if let (Some(label), Some(m)) = (case, min_ns) {
            self.rows.push((label, m));
        }
        Some(())
    }

    fn array(&mut self) -> Option<()> {
        if !self.eat(b'[') {
            return None;
        }
        loop {
            while self.eat(b',') {}
            if self.eat(b']') {
                break;
            }
            self.value()?;
        }
        Some(())
    }

    fn string(&mut self) -> Option<String> {
        if !self.eat(b'"') {
            return None;
        }
        let mut out = String::new();
        loop {
            match self.peek()? {
                b'"' => {
                    self.pos += 1;
                    return Some(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let escaped = self.peek()?;
                    self.pos += 1;
                    match escaped {
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self.bytes.get(self.pos..self.pos + 4)?;
                            self.pos += 4;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            out.push(char::from_u32(code)?);
                        }
                        c => out.push(c as char),
                    }
                }
                _ => {
                    // Consume one UTF-8 scalar (labels are ASCII in
                    // practice, but stay correct for anything).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).ok()?);
                }
            }
        }
    }

    /// Numbers, booleans and null; only a plain nonnegative integer
    /// yields a value.
    fn scalar(&mut self) -> Option<Option<u128>> {
        self.skip_ws();
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E' | b'a'..=b'z' | b'A'..=b'Z')
        ) {
            self.pos += 1;
        }
        if self.pos == start {
            return None;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?;
        Some(text.parse::<u128>().ok())
    }
}

/// Cases whose baseline `min_ns` is below this are excluded from the
/// regression comparison: at the microsecond scale, cross-machine clock
/// and cache differences dwarf any real signal (the quick-mode
/// `neighbor_scan` case runs ~1 µs), so comparing them only produces
/// false alarms. Skipped cases are named in the verdict.
const MIN_COMPARABLE_NS: u128 = 100_000;

/// Compares a freshly produced `BENCH_core.json` document against a
/// committed baseline document: every baseline case (matched by exact
/// label, so mode and sizes must agree) must be present in the current
/// run and must not regress by more than `factor` on `min_ns`. Baseline
/// cases *missing* from the current run are an error — a renamed or
/// deleted bench must be re-baselined, not silently dropped from the
/// gate — and a run with no matching case at all (e.g. quick-mode
/// samples checked against a full-mode baseline) fails loudly rather
/// than passing vacuously. Baseline cases under `MIN_COMPARABLE_NS`
/// (100 µs) are skipped as noise.
pub fn check_against_baseline(
    baseline_json: &str,
    current_json: &str,
    factor: f64,
) -> Result<String, String> {
    check_against_baseline_with_cores(baseline_json, current_json, factor, resolve_threads(0))
}

/// [`check_against_baseline`] with the available core count made
/// explicit (the public entry point detects it): baseline cases pinned
/// to more worker threads than `cores` are skipped with a loud note —
/// on a smaller machine those rows measure oversubscription overhead,
/// not speedup, and comparing them poisons the verdict both ways.
pub fn check_against_baseline_with_cores(
    baseline_json: &str,
    current_json: &str,
    factor: f64,
    cores: usize,
) -> Result<String, String> {
    let baseline = parse_rows(baseline_json);
    let current = parse_rows(current_json);
    let mut compared = 0usize;
    let mut regressions: Vec<String> = Vec::new();
    let mut missing: Vec<String> = Vec::new();
    let mut skipped: Vec<String> = Vec::new();
    let mut overcommitted: Vec<String> = Vec::new();
    let mut report = String::new();
    for (label, base_min) in &baseline {
        if pinned_threads(label).is_some_and(|t| t > cores) {
            overcommitted.push(label.clone());
            continue;
        }
        let Some((_, new_min)) = current.iter().find(|(l, _)| l == label) else {
            missing.push(label.clone());
            continue;
        };
        if *base_min < MIN_COMPARABLE_NS {
            skipped.push(label.clone());
            continue;
        }
        compared += 1;
        let ratio = *new_min as f64 / (*base_min).max(1) as f64;
        report.push_str(&format!(
            "{label:<56} baseline {base_min:>12} ns  now {new_min:>12} ns  ratio {ratio:.2}\n"
        ));
        if ratio > factor {
            regressions.push(format!(
                "{label}: {new_min} ns vs baseline {base_min} ns ({ratio:.2}x > {factor:.1}x)"
            ));
        }
    }
    if compared == 0 && skipped.is_empty() && overcommitted.is_empty() {
        return Err(format!(
            "no baseline case matched any of the {} measured samples — \
             mode/sizes/threads of the run must match the committed baseline",
            current.len()
        ));
    }
    if !missing.is_empty() {
        return Err(format!(
            "{report}bench check FAILED: {} baseline case(s) missing from this run \
             (renamed or deleted benches must be re-baselined):\n  {}",
            missing.len(),
            missing.join("\n  ")
        ));
    }
    if !skipped.is_empty() {
        report.push_str(&format!(
            "skipped {} sub-{MIN_COMPARABLE_NS}ns case(s) as cross-machine noise: {}\n",
            skipped.len(),
            skipped.join(", ")
        ));
    }
    if !overcommitted.is_empty() {
        report.push_str(&format!(
            "SKIPPED {} case(s) pinned to more worker threads than the {cores} available \
             core(s) — their baseline numbers measure oversubscription, not speedup: {}\n",
            overcommitted.len(),
            overcommitted.join(", ")
        ));
    }
    // Current cases the baseline does not know yet are not gated — say
    // so, so a stale baseline is visible in the verdict instead of the
    // new benches silently running unchecked.
    let unbaselined: Vec<&str> = current
        .iter()
        .filter(|(l, _)| !baseline.iter().any(|(b, _)| b == l))
        .map(|(l, _)| l.as_str())
        .collect();
    if !unbaselined.is_empty() {
        report.push_str(&format!(
            "note: {} case(s) not in the baseline (un-gated until it is regenerated): {}\n",
            unbaselined.len(),
            unbaselined.join(", ")
        ));
    }
    if regressions.is_empty() {
        report.push_str(&format!(
            "bench check: {compared} cases within {factor:.1}x of baseline\n"
        ));
        Ok(report)
    } else {
        Err(format!(
            "{report}bench check FAILED: {} regression(s) > {factor:.1}x:\n  {}",
            regressions.len(),
            regressions.join("\n  ")
        ))
    }
}

/// Runs the core CPU benchmark and returns `(human_table, json)`.
pub fn run(cfg: &CoreBenchConfig) -> (String, String) {
    let threads = resolve_threads(cfg.threads);
    let iterations = if cfg.quick { 3 } else { 9 };
    let started = Instant::now();
    let mut bench = Bench::new(iterations);
    bench_graph_ops(&mut bench, cfg.quick);
    bench_commit_round(&mut bench, cfg.quick);
    bench_scale(&mut bench, 4096, false);
    if !cfg.quick {
        bench_scale(&mut bench, 65536, false);
    }
    bench_committee(&mut bench, cfg.quick);
    bench_algorithms(&mut bench, cfg.quick);
    bench_line_to_tree(&mut bench, cfg.quick);
    bench_runtime(&mut bench, cfg.quick);
    bench_sweep(&mut bench, cfg.quick, threads);
    bench_dst_invariants(&mut bench);
    let mut samples = bench.take_samples();
    if !cfg.quick {
        let mut cold = Bench::new(1);
        bench_million(&mut cold);
        samples.extend(cold.take_samples());
    }
    let samples = samples;
    let elapsed_ms = started.elapsed().as_millis();
    let mut table = format!(
        "core CPU baseline ({} mode, {iterations} iterations, sweep threads {threads})\n",
        if cfg.quick { "quick" } else { "full" },
    );
    for s in &samples {
        table.push_str(&format!(
            "{:<56} min {:>12?} median {:>12?} mean {:>12?}\n",
            s.label, s.min, s.median, s.mean
        ));
    }
    let json = to_json(cfg, threads, elapsed_ms, &samples);
    (table, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_runs_and_serializes() {
        let (table, json) = run(&CoreBenchConfig {
            quick: true,
            threads: 1,
        });
        assert!(table.contains("core CPU baseline"));
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"mode\":\"quick\""));
        assert!(json.contains("graph/add_remove_stream"));
        assert!(json.contains("network/commit_round"));
        assert!(json.contains("subroutine/line_to_tree line n=4096"));
        assert!(json.contains("sweep/serial"));
    }

    #[test]
    fn baseline_check_compares_and_flags_regressions() {
        let baseline = "{\"mode\":\"quick\",\"threads\":1,\"elapsed_ms\":1,\"rows\":[\
                        {\"case\":\"a n=1\",\"min_ns\":500000,\"median_ns\":1,\"mean_ns\":1},\
                        {\"case\":\"b n=1\",\"min_ns\":500000,\"median_ns\":1,\"mean_ns\":1}]}";
        assert_eq!(
            parse_rows(baseline),
            vec![("a n=1".to_string(), 500000), ("b n=1".to_string(), 500000)]
        );
        // Within 2x: passes.
        let current = baseline.replace(
            "\"min_ns\":500000,\"median_ns\":1,\"mean_ns\":1}]",
            "\"min_ns\":700000,\"median_ns\":1,\"mean_ns\":1}]",
        );
        let verdict = check_against_baseline(baseline, &current, 2.0).expect("within budget");
        assert!(verdict.contains("2 cases within 2.0x"), "{verdict}");
        // A > 2x regression fails and names the case.
        let bad = baseline.replacen("\"min_ns\":500000", "\"min_ns\":9999999", 1);
        let failure = check_against_baseline(baseline, &bad, 2.0).unwrap_err();
        assert!(failure.contains("a n=1"), "{failure}");
        assert!(failure.contains("regression"), "{failure}");
        // Disjoint label sets are a loud configuration error, not a pass.
        let other =
            "{\"rows\":[{\"case\":\"z n=9\",\"min_ns\":500000,\"median_ns\":5,\"mean_ns\":5}]}";
        let mismatch = check_against_baseline(baseline, other, 2.0).unwrap_err();
        assert!(mismatch.contains("no baseline case matched"), "{mismatch}");
        // A baseline case absent from the current run fails loudly too —
        // coverage cannot silently shrink.
        let shrunk =
            "{\"rows\":[{\"case\":\"a n=1\",\"min_ns\":500000,\"median_ns\":1,\"mean_ns\":1}]}";
        let lost = check_against_baseline(baseline, shrunk, 2.0).unwrap_err();
        assert!(lost.contains("missing from this run"), "{lost}");
        assert!(lost.contains("b n=1"), "{lost}");
        // Sub-floor baseline cases are excluded from the comparison (and
        // named), so microsecond noise cannot fail the gate.
        let tiny = "{\"rows\":[\
                    {\"case\":\"a n=1\",\"min_ns\":500000,\"median_ns\":1,\"mean_ns\":1},\
                    {\"case\":\"t n=1\",\"min_ns\":900,\"median_ns\":1,\"mean_ns\":1}]}";
        let noisy = tiny.replace("\"min_ns\":900", "\"min_ns\":90000");
        let verdict = check_against_baseline(tiny, &noisy, 2.0).expect("noise is skipped");
        assert!(verdict.contains("skipped 1"), "{verdict}");
        assert!(verdict.contains("t n=1"), "{verdict}");
        // Current cases absent from the baseline pass but are named, so
        // a stale baseline is visible in the verdict.
        let grown = "{\"rows\":[\
                     {\"case\":\"a n=1\",\"min_ns\":500000,\"median_ns\":1,\"mean_ns\":1},\
                     {\"case\":\"b n=1\",\"min_ns\":500000,\"median_ns\":1,\"mean_ns\":1},\
                     {\"case\":\"new n=1\",\"min_ns\":500000,\"median_ns\":1,\"mean_ns\":1}]}";
        let verdict = check_against_baseline(baseline, grown, 2.0).expect("new cases pass");
        assert!(verdict.contains("not in the baseline"), "{verdict}");
        assert!(verdict.contains("new n=1"), "{verdict}");
    }

    #[test]
    fn pinned_threads_parses_labels() {
        assert_eq!(pinned_threads("sweep/threads=4 cases=96"), Some(4));
        assert_eq!(pinned_threads("sweep/threads=16 cases=24"), Some(16));
        assert_eq!(pinned_threads("sweep/cases=24 threads=2"), Some(2));
        assert_eq!(pinned_threads("sweep/serial cases=96"), None);
        assert_eq!(pinned_threads("graph/scale n=4096 m=8192"), None);
    }

    #[test]
    fn baseline_check_skips_rows_overcommitted_for_this_machine() {
        let baseline = "{\"rows\":[\
                        {\"case\":\"a n=1\",\"min_ns\":500000,\"median_ns\":1,\"mean_ns\":1},\
                        {\"case\":\"sweep/threads=4 cases=96\",\"min_ns\":500000,\
                         \"median_ns\":1,\"mean_ns\":1}]}";
        // On a 1-core machine the threads=4 row is skipped (loudly) and
        // its absence from the current run is not an error — a smaller
        // machine cannot reproduce it meaningfully.
        let current =
            "{\"rows\":[{\"case\":\"a n=1\",\"min_ns\":500000,\"median_ns\":1,\"mean_ns\":1}]}";
        let verdict = check_against_baseline_with_cores(baseline, current, 2.0, 1)
            .expect("overcommitted row is skipped, not missing");
        assert!(verdict.contains("SKIPPED 1 case(s)"), "{verdict}");
        assert!(verdict.contains("sweep/threads=4 cases=96"), "{verdict}");
        assert!(verdict.contains("1 cases within 2.0x"), "{verdict}");
        // Even a wild regression on the overcommitted row cannot fail the
        // gate on the smaller machine...
        let regressed = "{\"rows\":[\
                         {\"case\":\"a n=1\",\"min_ns\":500000,\"median_ns\":1,\"mean_ns\":1},\
                         {\"case\":\"sweep/threads=4 cases=96\",\"min_ns\":99999999,\
                          \"median_ns\":1,\"mean_ns\":1}]}";
        check_against_baseline_with_cores(baseline, regressed, 2.0, 1)
            .expect("overcommitted regression is not gated here");
        // ...but on a machine with enough cores it is compared again.
        let failure = check_against_baseline_with_cores(baseline, regressed, 2.0, 4)
            .expect_err("4-core machine gates the threads=4 row");
        assert!(failure.contains("sweep/threads=4"), "{failure}");
    }

    #[test]
    fn parse_rows_tolerates_reordered_keys_whitespace_and_trailing_commas() {
        // Reordered keys: `min_ns` before `case`. The old substring
        // scanner paired each label with the *next* row's counter here
        // and silently dropped the last row.
        let reordered = "{\"rows\":[\
                         {\"min_ns\":111,\"case\":\"a n=1\",\"median_ns\":1},\
                         {\"min_ns\":222,\"case\":\"b n=1\",\"median_ns\":2}]}";
        assert_eq!(
            parse_rows(reordered),
            vec![("a n=1".to_string(), 111), ("b n=1".to_string(), 222)]
        );
        // Whitespace everywhere (pretty-printed artifact).
        let pretty =
            "{\n  \"rows\": [\n    { \"case\" : \"a n=1\" ,\n      \"min_ns\" : 123 }\n  ]\n}";
        assert_eq!(parse_rows(pretty), vec![("a n=1".to_string(), 123)]);
        // Trailing commas after members and elements.
        let trailing =
            "{\"rows\":[{\"case\":\"a n=1\",\"min_ns\":7,},{\"case\":\"b n=1\",\"min_ns\":8,},]}";
        assert_eq!(
            parse_rows(trailing),
            vec![("a n=1".to_string(), 7), ("b n=1".to_string(), 8)]
        );
        // A row missing `min_ns` is skipped rather than stealing the next
        // row's counter; the next row still parses.
        let partial = "{\"rows\":[{\"case\":\"broken n=1\",\"median_ns\":9},\
                       {\"case\":\"ok n=1\",\"min_ns\":10}]}";
        assert_eq!(parse_rows(partial), vec![("ok n=1".to_string(), 10)]);
        // Escaped labels decode; nested values are walked, not tripped on.
        let escaped =
            "{\"meta\":{\"notes\":[1,2,{\"x\":true}]},\"rows\":[{\"case\":\"q\\\"uote n=1\",\"min_ns\":5}]}";
        assert_eq!(parse_rows(escaped), vec![("q\"uote n=1".to_string(), 5)]);
        // Garbage never panics.
        assert!(parse_rows("{\"rows\":[{\"case\":\"x").is_empty());
        assert!(parse_rows("not json at all").is_empty());
    }

    #[test]
    fn committee_benches_run() {
        let mut bench = Bench::new(1);
        bench_committee(&mut bench, true);
        let samples = bench.take_samples();
        let labels: Vec<&str> = samples.iter().map(|s| s.label.as_str()).collect();
        assert!(labels.iter().any(|l| l.starts_with("committee/select ")));
        assert!(labels
            .iter()
            .any(|l| l.starts_with("committee/selection_cascade")));
    }

    #[test]
    fn runtime_benches_run() {
        let mut bench = Bench::new(1);
        bench_runtime(&mut bench, true);
        let samples = bench.take_samples();
        let labels: Vec<&str> = samples.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "runtime/flood_seeded n=128",
                "runtime/line_to_tree_seeded n=128",
                "runtime/star_seeded n=64",
                "runtime/wreath_seeded n=64",
            ]
        );
    }

    #[test]
    fn edge_stream_is_deterministic_and_loop_free() {
        let a = edge_stream(64, 256, 9);
        let b = edge_stream(64, 256, 9);
        assert_eq!(a, b);
        assert!(a.iter().all(|(u, v)| u != v));
    }
}
