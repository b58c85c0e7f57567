//! **GraphToStar** (Section 3): the edge-optimal algorithm for general
//! graphs.
//!
//! The nodes are partitioned into *committees*, each internally organised
//! as a star whose centre is the committee's leader (the maximum-UID node
//! of the committee). Committees repeatedly select the largest-UID
//! neighbouring committee and merge into it; chains of selections form
//! trees of committees which are collapsed with the `TreeToStar` idea
//! applied at committee granularity (the *pulling* mode). When a single
//! committee remains, its leader is the network-wide maximum-UID node
//! `u_max`, and one final phase deactivates every remaining edge except the
//! star edges, solving Depth-1 Tree.
//!
//! Complexity (Theorem 3.8), all verified by the tests and the benchmark
//! harness: `O(log n)` rounds, at most `2n` active edges per round, an
//! optimal `O(n log n)` total edge activations, and (necessarily) a linear
//! maximum degree at the star centre.

use crate::algorithm::RunConfig;
use crate::committee::{CommitteeForest, CommitteeId, IncrementalAdjacency};
use crate::{CoreError, TransformationOutcome};
use adn_graph::{Edge, Graph, NodeId, UidMap};
use adn_sim::Network;

/// The mode a committee executes in during a phase (Section 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Looking for a larger neighbouring committee to join.
    Selection,
    /// Merging into the committee led by the given node in this phase.
    Merging { into: NodeId },
    /// Climbing the tree of selections towards its root. `attach` is the
    /// node (in the committee above us) that our leader currently holds an
    /// activated edge to; it is the parent committee's leader when we first
    /// enter pulling mode, and is advanced one hop towards the tree's root
    /// every phase (TreeToStar applied at committee granularity).
    Pulling { attach: NodeId },
    /// Selected by others; waiting for them to merge into us.
    Waiting,
}

/// A pending round-B hop: `(selector leader, target leader, helper edge)`.
type PendingHop = (NodeId, NodeId, Option<(NodeId, NodeId)>);

/// A structural committee invariant did not hold (a merge target or
/// attach node fell outside the tracked vertex set). Unreachable in the
/// fault-free model; surfaced as a clean error (instead of the `expect`
/// panics this engine used to carry) so adversarial stress runs record a
/// `Failed` outcome rather than a `Panicked` one.
fn invariant_error(detail: String) -> CoreError {
    CoreError::BrokenInvariant {
        algorithm: "GraphToStar",
        detail,
    }
}

/// Result of the selection step of a phase.
#[derive(Debug, Clone)]
struct Selection {
    selector: CommitteeId,
    target: CommitteeId,
    /// Bridge nodes: `x` in the selector committee adjacent to `y` in the
    /// target committee.
    bridge_x: NodeId,
    bridge_y: NodeId,
}

/// Executes GraphToStar on `network` (trait entry point; see
/// [`crate::algorithm::GraphToStar`]).
pub(crate) fn execute(
    network: &mut Network,
    uids: &UidMap,
    config: &RunConfig,
) -> Result<TransformationOutcome, CoreError> {
    let initial = network.graph().clone();
    let n = initial.node_count();
    if n == 0 {
        return Err(CoreError::InvalidInput {
            reason: "the initial network must contain at least one node".into(),
        });
    }
    if uids.len() != n {
        return Err(CoreError::InvalidInput {
            reason: "one UID per node is required".into(),
        });
    }
    if !adn_graph::traversal::is_connected(&initial) {
        return Err(CoreError::InvalidInput {
            reason: "GraphToStar requires a connected initial network".into(),
        });
    }
    if !config.engine.is_synchronous() {
        return crate::subroutines::runtime_committee::run_runtime_star(network, uids, config);
    }

    network.set_trace_enabled(config.trace.is_per_round());
    // The incremental adjacency consumes the committee tap of the
    // network's round-event bus (and the forest's merges) instead of
    // rebuilding from the edge set every phase. The tap is armed before
    // the first operation so no delta is missed, and disarmed on *every*
    // exit path — error returns included — so a caller's network is
    // never left accumulating deltas.
    network.set_edge_delta_tracking(true);
    let result = run_phases(network, uids, config, &initial, n);
    network.set_edge_delta_tracking(false);
    result
}

/// The phase loop of [`execute`], split out so the edge-delta hook is
/// disarmed on every exit path (the engine's `run_rounds` discipline).
fn run_phases(
    network: &mut Network,
    uids: &UidMap,
    config: &RunConfig,
    initial: &Graph,
    n: usize,
) -> Result<TransformationOutcome, CoreError> {
    let mut state = State::new(initial);
    let mut committees_per_phase = Vec::new();
    let mut phases = 0usize;
    let phase_limit = 40 * adn_graph::properties::ceil_log2(n.max(2)) + 80;

    while state.forest.live_count() > 1 {
        phases += 1;
        config.check_round_budget(network)?;
        if phases > phase_limit {
            return Err(CoreError::DidNotConverge {
                algorithm: "GraphToStar",
                phase_limit,
            });
        }
        committees_per_phase.push(state.forest.live_count());
        network.note_groups_alive(state.forest.live_count());
        state.run_phase(network, uids)?;
    }

    // Termination phase: keep only the star edges.
    let leader = state.forest.leader(state.forest.live_ids()[0]);
    if n > 1 {
        config.check_round_budget(network)?;
        network.note_groups_alive(1);
        let graph = network.graph().clone();
        for e in graph.edges() {
            if e.a != leader && e.b != leader {
                network.stage_deactivation(e.a, e.b)?;
            }
        }
        network.commit_round();
        // The paper charges 2 rounds for the termination phase (detection +
        // clean-up); charge the detection round explicitly.
        network.advance_idle_rounds(1);
        phases += 1;
        committees_per_phase.push(1);
    }

    config.check_round_budget(network)?;
    debug_assert_eq!(Some(leader), uids.max_uid_node());
    let mut outcome = TransformationOutcome::from_network(leader, network);
    outcome.phases = phases;
    outcome.committees_per_phase = committees_per_phase;
    Ok(outcome)
}

struct State {
    /// The arena-backed committee partition. Leaders never migrate between
    /// slots in this algorithm (an absorbing committee keeps its leader),
    /// so ascending slot order is ascending leader order — the iteration
    /// order the old `BTreeMap<NodeId, Committee>` provided.
    forest: CommitteeForest,
    /// Delta-driven committee adjacency, synced at every phase start from
    /// the network's edge deltas and the forest's merges.
    adjacency: IncrementalAdjacency,
    /// Per-slot mode column, parallel to the forest arena.
    mode: Vec<Mode>,
    /// Edges of the initial network (never deactivated before termination).
    initial_edges: Graph,
}

impl State {
    fn new(initial: &Graph) -> Self {
        let n = initial.node_count();
        let forest = CommitteeForest::singletons(n);
        let adjacency = IncrementalAdjacency::new(&forest, initial);
        State {
            forest,
            adjacency,
            mode: vec![Mode::Selection; n],
            initial_edges: initial.clone(),
        }
    }

    fn run_phase(&mut self, network: &mut Network, uids: &UidMap) -> Result<(), CoreError> {
        let deltas = network.take_edge_deltas();
        let adjacency = self
            .adjacency
            .refresh(&self.forest, network.graph(), &deltas);
        let start_mode: Vec<Mode> = self.mode.clone();
        let slots = self.forest.slot_count();

        // ------------------------------------------------------------------
        // 1. Selection decisions (no edge operations yet).
        // ------------------------------------------------------------------
        let mut selections: Vec<Selection> = Vec::new();
        let mut did_select = vec![false; slots];
        let mut selected_by = vec![false; slots];
        for &cid in self.forest.live_ids() {
            if self.mode[cid.index()] != Mode::Selection {
                continue;
            }
            // Only committees not already committed to a merge or climb
            // are selectable targets.
            let candidate = adjacency.select_largest_uid_neighbor(cid, &self.forest, uids, |o| {
                !matches!(
                    start_mode[o.index()],
                    Mode::Pulling { .. } | Mode::Merging { .. }
                )
            });
            if let Some((target, x, y)) = candidate {
                did_select[cid.index()] = true;
                selected_by[target.index()] = true;
                selections.push(Selection {
                    selector: cid,
                    target,
                    bridge_x: x,
                    bridge_y: y,
                });
            }
        }

        // ------------------------------------------------------------------
        // 2. Edge operations: round A then round B.
        // ------------------------------------------------------------------
        // Selection round A: the selector's leader connects towards the
        // target committee (helper edge e1, or directly the leader-leader
        // edge when it is already at distance <= 2). `pending_b` collects
        // the round-B second hops.
        let mut pending_b: Vec<PendingHop> = Vec::new();
        let mut wave_acts: Vec<adn_sim::WaveActivation> = Vec::new();
        let mut wave_drops: Vec<Edge> = Vec::new();
        for sel in &selections {
            let u = self.forest.leader(sel.selector);
            let v = self.forest.leader(sel.target);
            let x = sel.bridge_x;
            let y = sel.bridge_y;
            if network.graph().has_edge(u, v) {
                // Already adjacent (for example both singletons joined by an
                // initial edge): nothing to activate.
                continue;
            }
            if u == x || y == v {
                // The leader-leader edge is one hop away: witness y (if the
                // selector's leader is the bridge) or witness x (if the
                // bridge lands on the target leader).
                wave_acts.push(adn_sim::WaveActivation {
                    initiator: u,
                    target: v,
                    witness: if u == x { y } else { x },
                });
                continue;
            }
            // General case: helper edge e1 = (u, y) via witness x now, then
            // the leader-leader edge via witness y in round B.
            wave_acts.push(adn_sim::WaveActivation {
                initiator: u,
                target: y,
                witness: x,
            });
            pending_b.push((u, v, Some((u, y))));
        }

        // Merging committees: every member joins the target leader's star.
        let mut merges: Vec<(CommitteeId, CommitteeId)> = Vec::new(); // (dying, absorbing)
        for &cid in self.forest.live_ids() {
            if let Mode::Merging { into } = self.mode[cid.index()] {
                let leader = self.forest.leader(cid);
                let into_cid = self
                    .forest
                    .committee_of(into)
                    .ok_or_else(|| invariant_error(format!("merge target {into} is untracked")))?;
                merges.push((cid, into_cid));
                for &x in self.forest.members(cid) {
                    if x == leader {
                        continue;
                    }
                    // The dying committee's leader sits on both the star
                    // edge (x, leader) and the leader-leader edge
                    // (leader, into) from the selection phase.
                    wave_acts.push(adn_sim::WaveActivation {
                        initiator: x,
                        target: into,
                        witness: leader,
                    });
                    if !self.initial_edges.has_edge(x, leader) {
                        wave_drops.push(Edge::new(x, leader));
                    }
                }
            }
        }

        // Pulling committees: climb one level of the committee tree
        // (TreeToStar applied to committees). The climb target is the next
        // node up the selection tree as it stood at the beginning of the
        // phase: the attach node's committee leader if we are attached to
        // an ordinary member, otherwise whatever our attach leader itself
        // points upwards to (its merge target or its own attach node).
        let mut climbs: Vec<(CommitteeId, NodeId)> = Vec::new(); // (committee, new attach node)
        for &cid in self.forest.live_ids() {
            if let Mode::Pulling { attach } = self.mode[cid.index()] {
                let leader = self.forest.leader(cid);
                let attach_cid = self
                    .forest
                    .committee_of(attach)
                    .ok_or_else(|| invariant_error(format!("attach node {attach} is untracked")))?;
                let attach_leader = self.forest.leader(attach_cid);
                let target = if attach != attach_leader {
                    // Hop from an ex-leader member to its current leader.
                    attach_leader
                } else {
                    match start_mode[attach_cid.index()] {
                        Mode::Merging { into } => into,
                        Mode::Pulling { attach: up } => up,
                        // The attach committee is a root (waiting or back in
                        // selection): stay put, we merge into it next phase.
                        _ => attach,
                    }
                };
                if target != attach {
                    // The attach node supports both the old (leader,
                    // attach) edge and the upward (attach, target) edge.
                    wave_acts.push(adn_sim::WaveActivation {
                        initiator: leader,
                        target,
                        witness: attach,
                    });
                    if !self.initial_edges.has_edge(leader, attach) {
                        wave_drops.push(Edge::new(leader, attach));
                    }
                }
                climbs.push((cid, target));
            }
        }

        network.stage_jump_wave(&wave_acts, &wave_drops)?;
        let summary_a = network.commit_round();

        // Round B: second selection hop, witnessed by the round-A helper
        // endpoint `y` (adjacent to `u` via the helper edge and to `v`
        // inside the target committee).
        wave_acts.clear();
        wave_drops.clear();
        let mut any_b = false;
        for (u, v, helper) in &pending_b {
            let witness = helper.map_or(*u, |(_, y)| y);
            wave_acts.push(adn_sim::WaveActivation {
                initiator: *u,
                target: *v,
                witness,
            });
            if let Some((a, b)) = helper {
                if !self.initial_edges.has_edge(*a, *b) {
                    wave_drops.push(Edge::new(*a, *b));
                }
            }
            any_b = true;
        }
        network.stage_jump_wave(&wave_acts, &wave_drops)?;
        if any_b || !selections.is_empty() {
            // A selection phase always costs 2 rounds (Lemma 3.7), even if
            // the second hop happened to be unnecessary for some selectors.
            network.commit_round();
        } else if summary_a.activations == 0 && summary_a.deactivations == 0 {
            // A phase with no edge operations at all (pure mode
            // transitions) still costs a round of communication.
            network.advance_idle_rounds(1);
        }

        // ------------------------------------------------------------------
        // 3. Apply merges to the committee structure.
        // ------------------------------------------------------------------
        self.forest.absorb_batch(&merges);

        // ------------------------------------------------------------------
        // 4. Mode transitions for the next phase.
        // ------------------------------------------------------------------
        // Pulling committees first (their new attach nodes were computed
        // above). If the attach node is now the leader of a root committee
        // (waiting / back in selection), we merge into it next phase;
        // otherwise we keep pulling.
        for (cid, new_attach) in climbs {
            let attach_cid = self
                .forest
                .committee_of(new_attach)
                .ok_or_else(|| invariant_error(format!("attach node {new_attach} is untracked")))?;
            let attach_is_root_leader = new_attach == self.forest.leader(attach_cid)
                && matches!(
                    self.mode[attach_cid.index()],
                    Mode::Waiting | Mode::Selection
                );
            self.mode[cid.index()] = if attach_is_root_leader {
                Mode::Merging { into: new_attach }
            } else {
                Mode::Pulling { attach: new_attach }
            };
        }

        // Selector committees.
        for sel in &selections {
            let target_selected = did_select[sel.target.index()];
            let target_leader = self.forest.leader(sel.target);
            self.mode[sel.selector.index()] = if target_selected {
                Mode::Pulling {
                    attach: target_leader,
                }
            } else {
                Mode::Merging {
                    into: target_leader,
                }
            };
        }

        // Committees that did not select: Waiting / Selection transitions.
        let mut has_children = vec![false; slots];
        for &cid in self.forest.live_ids() {
            let parent = match self.mode[cid.index()] {
                Mode::Merging { into } => Some(into),
                Mode::Pulling { attach } => Some(attach),
                _ => None,
            };
            if let Some(p) = parent {
                let pc = self
                    .forest
                    .committee_of(p)
                    .ok_or_else(|| invariant_error(format!("parent node {p} is untracked")))?;
                has_children[pc.index()] = true;
            }
        }
        for &cid in self.forest.live_ids() {
            match self.mode[cid.index()] {
                Mode::Merging { .. } | Mode::Pulling { .. } => {}
                Mode::Selection | Mode::Waiting => {
                    self.mode[cid.index()] =
                        if selected_by[cid.index()] || has_children[cid.index()] {
                            Mode::Waiting
                        } else {
                            Mode::Selection
                        };
                }
            }
        }

        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adn_graph::properties::{ceil_log2, is_star, star_center};
    use adn_graph::{generators, GraphFamily, UidAssignment};

    fn check_outcome(initial: &Graph, uids: &UidMap, outcome: &TransformationOutcome) {
        let n = initial.node_count();
        // Depth-1 Tree: the final network is a spanning star...
        assert!(
            is_star(&outcome.final_graph),
            "final graph is not a star (n={n})"
        );
        // ...centred at the elected leader, which is the max-UID node.
        assert_eq!(star_center(&outcome.final_graph), Some(outcome.leader));
        assert_eq!(Some(outcome.leader), uids.max_uid_node());
        // Final diameter 2 (for n >= 3).
        if n >= 3 {
            assert_eq!(outcome.final_diameter(), Some(2));
        }
    }

    fn run_on(initial: &Graph, uids: &UidMap) -> Result<TransformationOutcome, CoreError> {
        let mut network = Network::new(initial.clone());
        execute(&mut network, uids, &RunConfig::traced())
    }

    fn run(initial: &Graph, assignment: UidAssignment) -> (UidMap, TransformationOutcome) {
        let uids = UidMap::new(initial.node_count(), assignment);
        let outcome = run_on(initial, &uids).expect("GraphToStar must succeed");
        (uids, outcome)
    }

    #[test]
    fn solves_depth_1_tree_on_lines() {
        for &n in &[2usize, 3, 4, 7, 8, 16, 31, 64, 100, 128] {
            let g = generators::line(n);
            let (uids, outcome) = run(&g, UidAssignment::Sequential);
            check_outcome(&g, &uids, &outcome);
        }
    }

    #[test]
    fn solves_depth_1_tree_on_rings_and_stars_and_grids() {
        for g in [
            generators::ring(30),
            generators::star(30),
            generators::grid(5, 6),
            generators::complete_binary_tree(31),
        ] {
            let (uids, outcome) = run(&g, UidAssignment::Sequential);
            check_outcome(&g, &uids, &outcome);
            let (uids, outcome) = run(&g, UidAssignment::Reversed);
            check_outcome(&g, &uids, &outcome);
        }
    }

    #[test]
    fn solves_depth_1_tree_on_random_graphs_with_random_uids() {
        for seed in 0..6u64 {
            let g = generators::random_connected(50, 0.08, seed);
            let (uids, outcome) = run(&g, UidAssignment::RandomPermutation { seed });
            check_outcome(&g, &uids, &outcome);
        }
    }

    #[test]
    fn solves_depth_1_tree_on_all_families() {
        for family in GraphFamily::ALL {
            let g = family.generate(40, 11);
            let (uids, outcome) = run(&g, UidAssignment::RandomPermutation { seed: 5 });
            check_outcome(&g, &uids, &outcome);
        }
    }

    /// Runs GraphToStar on the Theorem 3.8 bound inputs — line, ring,
    /// grid and random tree at n = 1024, 4096 and 16384 (generator and
    /// UID seed 2) — handing each outcome to `check` with its label and
    /// `(n, ⌈log₂ n⌉)`.
    fn for_each_bound_input(check: impl Fn(&str, usize, usize, &TransformationOutcome)) {
        let families = [
            GraphFamily::Line,
            GraphFamily::Ring,
            GraphFamily::Grid,
            GraphFamily::RandomTree,
        ];
        for family in families {
            for size in [1024usize, 4096, 16384] {
                let g = family.generate(size, 2);
                let n = g.node_count();
                let (_, outcome) = run(&g, UidAssignment::RandomPermutation { seed: 2 });
                check(&format!("{family} n={n}"), n, ceil_log2(n), &outcome);
            }
        }
    }

    #[test]
    fn time_is_logarithmic() {
        // Theorem 3.8: O(log n) rounds, with the constant pinned at 4.
        for_each_bound_input(|label, _, log, outcome| {
            assert!(
                outcome.rounds <= 4 * log,
                "{label}: {} rounds > 4·⌈log₂ n⌉ = {}",
                outcome.rounds,
                4 * log
            );
            // Phases are O(log n) too.
            assert!(
                outcome.phases <= 8 * log + 8,
                "{label}: {} phases",
                outcome.phases
            );
        });
    }

    #[test]
    fn edge_complexity_matches_theorem_3_8() {
        for_each_bound_input(|label, n, log, outcome| {
            let m = &outcome.metrics;
            // O(n log n) total activations, with the constant pinned at 1.
            assert!(
                m.total_activations <= n * log,
                "{label}: {} activations > n·⌈log₂ n⌉ = {}",
                m.total_activations,
                n * log
            );
            // At most 2n activated (non-initial) edges alive at any time.
            assert!(
                m.max_activated_edges <= 2 * n,
                "{label}: {} active activated edges",
                m.max_activated_edges
            );
            // Each node activates at most one edge per round.
            assert!(m.max_node_activations_in_round <= 1, "{label}");
        });
    }

    #[test]
    fn committee_count_decays_to_one() {
        let g = generators::random_connected(80, 0.05, 4);
        let (_, outcome) = run(&g, UidAssignment::RandomPermutation { seed: 4 });
        let counts = &outcome.committees_per_phase;
        assert_eq!(counts.first(), Some(&80));
        assert_eq!(counts.last(), Some(&1));
        // Monotonically non-increasing.
        for w in counts.windows(2) {
            assert!(w[1] <= w[0]);
        }
    }

    #[test]
    fn network_stays_connected_throughout() {
        // Connectivity preservation: the final graph must span all nodes; a
        // disconnection could never be repaired by distance-2 activations,
        // so a connected final star certifies connectivity was preserved.
        let g = generators::barbell(8, 6);
        let (uids, outcome) = run(&g, UidAssignment::Sequential);
        check_outcome(&g, &uids, &outcome);
        assert!(adn_graph::traversal::is_connected(&outcome.final_graph));
    }

    #[test]
    fn rejects_invalid_inputs() {
        let uids = UidMap::new(0, UidAssignment::Sequential);
        assert!(matches!(
            run_on(&Graph::new(0), &uids),
            Err(CoreError::InvalidInput { .. })
        ));
        let mut g = generators::line(6);
        g.remove_edge(NodeId(2), NodeId(3)).unwrap();
        let uids = UidMap::new(6, UidAssignment::Sequential);
        assert!(matches!(
            run_on(&g, &uids),
            Err(CoreError::InvalidInput { .. })
        ));
        let uids = UidMap::new(5, UidAssignment::Sequential);
        assert!(matches!(
            run_on(&generators::line(6), &uids),
            Err(CoreError::InvalidInput { .. })
        ));
    }

    #[test]
    fn single_node_and_pair() {
        let (uids, outcome) = run(&Graph::new(1), UidAssignment::Sequential);
        assert_eq!(outcome.leader, uids.max_uid_node().unwrap());
        assert_eq!(outcome.final_graph.edge_count(), 0);

        let (uids, outcome) = run(&generators::line(2), UidAssignment::Sequential);
        check_outcome(&generators::line(2), &uids, &outcome);
    }
}
