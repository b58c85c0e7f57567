//! The experiment drivers that regenerate every table and figure of the
//! reproduction (experiment ids t1, t4, f1, f3, f4, f5, t6, f7, t8 and
//! f9).
//!
//! Each function returns a self-contained markdown fragment; the
//! `adn-bench` crate exposes them through the `report` binary
//! (`cargo run -p adn-bench --release --bin report -- <experiment id>`),
//! and `tests/expectations/report.txt` pins the full report's output.

use crate::fit::best_fit;
use crate::record::{markdown_table, RunRecord};
use adn_core::algorithm::{
    self, CentralizedCutInHalf, CentralizedGeneral, CliqueFormation, GraphToStar,
    ReconfigurationAlgorithm, RunConfig,
};
use adn_core::lower_bounds;
use adn_core::subroutines::{
    run_async_line_to_tree, run_line_to_tree, run_tree_to_star, LineToTreeConfig,
};
use adn_core::tasks::{disseminate_after_transformation, disseminate_by_flooding_only};
use adn_graph::properties::ceil_log2;
use adn_graph::{generators, GraphFamily, NodeId, RootedTree, UidAssignment, UidMap};
use adn_sim::Network;

fn defaults() -> RunConfig {
    RunConfig::default()
}

fn uid_map(n: usize, seed: u64) -> UidMap {
    UidMap::new(n, UidAssignment::RandomPermutation { seed })
}

/// The strategies T1 and F9 set side by side, in registry order: every
/// registered algorithm except the line-only CutInHalf (T6 measures it)
/// and flooding, which does not reconfigure (T8 measures it).
fn compared() -> impl Iterator<Item = &'static dyn ReconfigurationAlgorithm> {
    algorithm::registry()
        .iter()
        .copied()
        .filter(|a| !matches!(a.spec().id, "centralized_cut_in_half" | "flooding"))
}

fn fit_line(label: &str, points: &[(usize, f64)]) -> String {
    match best_fit(points) {
        Some(fit) => format!(
            "- {label}: best fit `{:.3} · {}` (mean relative error {:.1}%)\n",
            fit.constant,
            fit.shape,
            100.0 * fit.mean_relative_error
        ),
        None => format!("- {label}: not enough data\n"),
    }
}

/// T1 — the contribution table of the abstract / Section 1.3: all five
/// strategies side by side on spanning lines of increasing size, plus
/// growth-shape fits for rounds and total activations.
pub fn t1_contribution_table(sizes: &[usize], clique_cap: usize) -> String {
    let mut records = Vec::new();
    for alg in compared() {
        for &n in sizes {
            if alg.name() == CliqueFormation.name() && n > clique_cap {
                continue;
            }
            records.push(RunRecord::measure(alg, GraphFamily::Line, n, 1).expect("run"));
        }
    }
    let mut out = String::from("### T1 — time / edge-complexity trade-off (spanning line)\n\n");
    out.push_str(&markdown_table(&records));
    out.push('\n');
    for alg in compared().map(|a| a.name()) {
        let rounds: Vec<(usize, f64)> = records
            .iter()
            .filter(|r| r.algorithm == alg)
            .map(|r| (r.n, r.rounds as f64))
            .collect();
        let acts: Vec<(usize, f64)> = records
            .iter()
            .filter(|r| r.algorithm == alg)
            .map(|r| (r.n, r.total_activations as f64))
            .collect();
        out.push_str(&fit_line(&format!("{alg} rounds"), &rounds));
        out.push_str(&fit_line(&format!("{alg} total activations"), &acts));
    }
    out
}

/// T4 — the clique-formation straw-man against GraphToStar: both take
/// `O(log n)` rounds, but the clique pays `Θ(n²)` activations and linear
/// degree.
pub fn t4_clique_baseline(sizes: &[usize]) -> String {
    let mut records = Vec::new();
    for &n in sizes {
        records.push(RunRecord::measure(&CliqueFormation, GraphFamily::Ring, n, 2).expect("run"));
        records.push(RunRecord::measure(&GraphToStar, GraphFamily::Ring, n, 2).expect("run"));
    }
    let mut out = String::from("### T4 — clique formation vs GraphToStar (ring)\n\n");
    out.push_str(&markdown_table(&records));
    out.push('\n');
    let clique: Vec<(usize, f64)> = records
        .iter()
        .filter(|r| r.algorithm == CliqueFormation.name())
        .map(|r| (r.n, r.total_activations as f64))
        .collect();
    let star: Vec<(usize, f64)> = records
        .iter()
        .filter(|r| r.algorithm == GraphToStar.name())
        .map(|r| (r.n, r.total_activations as f64))
        .collect();
    out.push_str(&fit_line("CliqueFormation total activations", &clique));
    out.push_str(&fit_line("GraphToStar total activations", &star));
    out
}

/// F1/F2 — the basic subroutines (Propositions 2.1 and 2.2).
pub fn f1_subroutines(sizes: &[usize]) -> String {
    let mut out = String::from("### F1/F2 — TreeToStar and LineToCompleteBinaryTree\n\n");
    out.push_str("| subroutine | n | ceil(log n) | rounds | total act. | max active edges | max degree |\n|---|---|---|---|---|---|---|\n");
    for &n in sizes {
        let g = generators::line(n);
        let tree = RootedTree::from_tree_graph(&g, NodeId(0)).unwrap();
        let mut net = Network::new(g.clone());
        let rounds = run_tree_to_star(&mut net, &tree).unwrap();
        out.push_str(&format!(
            "| TreeToStar (line) | {n} | {} | {rounds} | {} | {} | {} |\n",
            ceil_log2(n),
            net.metrics().total_activations,
            net.metrics().max_active_edges_total,
            net.metrics().max_total_degree
        ));
        let mut net = Network::new(g);
        let line: Vec<NodeId> = (0..n).map(NodeId).collect();
        let (cbt, rounds) = run_line_to_tree(&mut net, &line, &LineToTreeConfig::binary()).unwrap();
        out.push_str(&format!(
            "| LineToCompleteBinaryTree | {n} | {} | {rounds} | {} | {} | {} (tree depth {}) |\n",
            ceil_log2(n),
            net.metrics().total_activations,
            net.metrics().max_active_edges_total,
            net.metrics().max_total_degree,
            cbt.depth()
        ));
    }
    out
}

/// F3 — asynchronous vs synchronous LineToCompleteBinaryTree
/// (Lemma B.4 / Corollary B.5).
pub fn f3_async_equivalence(sizes: &[usize]) -> String {
    let mut out = String::from("### F3 — asynchronous LineToCompleteBinaryTree (Lemma B.4)\n\n");
    out.push_str("| n | wake-up schedule | identical to sync | async rounds | sync rounds |\n|---|---|---|---|---|\n");
    for &n in sizes {
        let line: Vec<NodeId> = (0..n).map(NodeId).collect();
        let sync = {
            let mut net = Network::new(generators::line(n));
            run_line_to_tree(&mut net, &line, &LineToTreeConfig::binary()).unwrap()
        };
        for (label, wake) in [
            ("all awake", vec![1usize; n]),
            (
                "staggered (i mod log n)",
                (0..n).map(|i| 1 + i % ceil_log2(n).max(1)).collect(),
            ),
            (
                "reverse staggered",
                (0..n)
                    .map(|i| 1 + (n - 1 - i) % (ceil_log2(n).max(1) + 2))
                    .collect(),
            ),
        ] {
            let mut net = Network::new(generators::line(n));
            let (tree, rounds) =
                run_async_line_to_tree(&mut net, &line, &LineToTreeConfig::binary(), &wake)
                    .unwrap();
            out.push_str(&format!(
                "| {n} | {label} | {} | {rounds} | {} |\n",
                if tree == sync.0 { "yes" } else { "NO" },
                sync.1
            ));
        }
    }
    out
}

/// F4 — committee decay of GraphToStar (the exponential-growth invariant
/// behind Lemmas 3.2–3.6).
pub fn f4_committee_decay(n: usize, seed: u64) -> String {
    let g = GraphFamily::SparseRandom.generate(n, seed);
    let uids = uid_map(g.node_count(), seed);
    let outcome = GraphToStar.run(&g, &uids, &defaults()).expect("run");
    let mut out = format!(
        "### F4 — committees alive per phase (GraphToStar, sparse random graph, n = {})\n\n| phase | committees alive |\n|---|---|\n",
        g.node_count()
    );
    for (i, c) in outcome.committees_per_phase.iter().enumerate() {
        out.push_str(&format!("| {} | {} |\n", i + 1, c));
    }
    out.push_str(&format!(
        "\nTotal phases: {}, rounds: {}\n",
        outcome.phases, outcome.rounds
    ));
    out
}

/// F5 — the Ω(log n) time lower bound on spanning lines (Lemma 6.1)
/// against the measured running times.
pub fn f5_time_lower_bound(sizes: &[usize]) -> String {
    let mut out = String::from("### F5 — time lower bound on spanning lines (Lemma 6.1)\n\n");
    out.push_str("| n | ceil(log n) | potential-argument lower bound | GraphToStar rounds | centralized rounds |\n|---|---|---|---|---|\n");
    for &n in sizes {
        let g = generators::line(n);
        let uids = uid_map(n, 3);
        let star = GraphToStar.run(&g, &uids, &defaults()).expect("run");
        let central = CentralizedGeneral.run(&g, &uids, &defaults()).expect("run");
        out.push_str(&format!(
            "| {n} | {} | {} | {} | {} |\n",
            ceil_log2(n),
            lower_bounds::line_time_lower_bound(n),
            star.rounds,
            central.rounds
        ));
    }
    out
}

/// T6 — centralized upper bound (Theorem 6.3) against the centralized
/// lower bounds (Lemmas 6.2 / D.3–D.4).
pub fn t6_centralized(sizes: &[usize]) -> String {
    let mut out =
        String::from("### T6 — centralized setting: Θ(n) total activations (Theorem 6.3)\n\n");
    out.push_str("| n | lower bound n-1-2log n | CutInHalf (line) activations | Euler+CutInHalf activations | per-round lower bound | max activations/round |\n|---|---|---|---|---|---|\n");
    for &n in sizes {
        let line_graph = generators::line(n);
        let line_uids = UidMap::new(n, UidAssignment::Sequential);
        let cut = CentralizedCutInHalf
            .run(&line_graph, &line_uids, &defaults())
            .expect("run");
        let g = GraphFamily::SparseRandom.generate(n, 5);
        let uids = uid_map(g.node_count(), 5);
        let euler = CentralizedGeneral.run(&g, &uids, &defaults()).expect("run");
        out.push_str(&format!(
            "| {n} | {} | {} | {} | {} | {} |\n",
            lower_bounds::centralized_total_activation_lower_bound(n),
            cut.metrics.total_activations,
            euler.metrics.total_activations,
            lower_bounds::centralized_per_round_activation_lower_bound(n),
            cut.metrics.max_activations_in_round,
        ));
    }
    out
}

/// F7 — the distributed Ω(n log n) activation lower bound on
/// increasing-order rings (Theorem 6.4), matched by GraphToStar's
/// O(n log n) upper bound and contrasted with the centralized Θ(n).
pub fn f7_distributed_lower_bound(sizes: &[usize]) -> String {
    let mut out = String::from(
        "### F7 — distributed Ω(n log n) vs centralized Θ(n) on increasing-order rings (Theorem 6.4)\n\n",
    );
    out.push_str("| n | n·log n | GraphToStar activations (increasing ring) | centralized activations | distributed LB (conservative) | centralized LB |\n|---|---|---|---|---|---|\n");
    let mut star_points = Vec::new();
    for &n in sizes {
        let ring = generators::ring(n);
        let uids = UidMap::new(n, UidAssignment::Sequential);
        let star = GraphToStar.run(&ring, &uids, &defaults()).expect("run");
        let central = CentralizedGeneral
            .run(&ring, &uids, &defaults())
            .expect("run");
        star_points.push((n, star.metrics.total_activations as f64));
        out.push_str(&format!(
            "| {n} | {} | {} | {} | {} | {} |\n",
            n * ceil_log2(n),
            star.metrics.total_activations,
            central.metrics.total_activations,
            lower_bounds::distributed_total_activation_lower_bound(n),
            lower_bounds::centralized_total_activation_lower_bound(n),
        ));
    }
    out.push('\n');
    out.push_str(&fit_line(
        "GraphToStar activations on increasing rings",
        &star_points,
    ));
    out
}

/// T8 — the composition claim of Section 1.3: reconfigure-then-disseminate
/// versus flooding on the original network.
pub fn t8_tasks(sizes: &[usize]) -> String {
    let mut out =
        String::from("### T8 — token dissemination: flooding vs transform-then-disseminate\n\n");
    out.push_str("| n | flooding rounds (G_s) | GraphToStar rounds | dissemination rounds (G_f) | total | speed-up |\n|---|---|---|---|---|---|\n");
    for &n in sizes {
        let g = generators::line(n);
        let uids = uid_map(n, 7);
        let (flood_rounds, _) = disseminate_by_flooding_only(&g, &uids).expect("run");
        let outcome = GraphToStar.run(&g, &uids, &defaults()).expect("run");
        let report = disseminate_after_transformation(&outcome, &uids).expect("run");
        let total = report.transformation_rounds + report.dissemination_rounds;
        out.push_str(&format!(
            "| {n} | {flood_rounds} | {} | {} | {total} | {:.1}x |\n",
            report.transformation_rounds,
            report.dissemination_rounds,
            flood_rounds as f64 / total.max(1) as f64
        ));
    }
    out
}

/// F9 — the gadget ablation at a fixed size: star vs wreath vs thin wreath
/// (plus baselines), showing the time / degree / activation trade-off.
pub fn f9_tradeoff(n: usize) -> String {
    let mut records = Vec::new();
    for alg in compared() {
        if alg.name() == CliqueFormation.name() && n > 256 {
            continue;
        }
        records.push(RunRecord::measure(alg, GraphFamily::Ring, n, 9).expect("run"));
    }
    let mut out = format!("### F9 — trade-off at fixed n = {n} (ring)\n\n");
    out.push_str(&markdown_table(&records));
    out
}

/// Runs every experiment with the default (fast) parameter sets and
/// concatenates the fragments. This is what the `report` binary prints and
/// what `tests/expectations/report.txt` pins.
pub fn run_all_default() -> String {
    let mut out = String::from("# Regenerated experiment report\n\n");
    out.push_str(&t1_contribution_table(&[64, 128, 256, 512], 256));
    out.push('\n');
    out.push_str(&t4_clique_baseline(&[32, 64, 128, 256]));
    out.push('\n');
    out.push_str(&f1_subroutines(&[64, 128, 256, 512, 1024]));
    out.push('\n');
    out.push_str(&f3_async_equivalence(&[64, 256]));
    out.push('\n');
    out.push_str(&f4_committee_decay(256, 11));
    out.push('\n');
    out.push_str(&f5_time_lower_bound(&[64, 128, 256, 512]));
    out.push('\n');
    out.push_str(&t6_centralized(&[64, 128, 256, 512, 1024]));
    out.push('\n');
    out.push_str(&f7_distributed_lower_bound(&[64, 128, 256, 512]));
    out.push('\n');
    out.push_str(&t8_tasks(&[64, 128, 256, 512]));
    out.push('\n');
    out.push_str(&f9_tradeoff(256));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subroutine_figure_renders() {
        let s = f1_subroutines(&[16, 32]);
        assert!(s.contains("TreeToStar"));
        assert!(s.contains("LineToCompleteBinaryTree"));
    }

    #[test]
    fn async_equivalence_always_matches() {
        let s = f3_async_equivalence(&[32]);
        assert!(!s.contains(" NO "), "async/sync mismatch:\n{s}");
    }

    #[test]
    fn lower_bound_tables_render() {
        let s = f5_time_lower_bound(&[32, 64]);
        assert!(s.contains("| 32 |"));
        let s = t6_centralized(&[32, 64]);
        assert!(s.contains("CutInHalf"));
        let s = f7_distributed_lower_bound(&[32, 64]);
        assert!(s.contains("GraphToStar"));
    }

    #[test]
    fn tasks_table_shows_speedup() {
        let s = t8_tasks(&[64]);
        assert!(s.contains("x |"));
    }

    #[test]
    fn committee_decay_reaches_one() {
        let s = f4_committee_decay(48, 3);
        assert!(s.contains("| 1 |"));
    }
}
