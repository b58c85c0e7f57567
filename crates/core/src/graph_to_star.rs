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
//! The phase rules — `Mode`, the climb target, the merge list and the
//! absorb + mode-transition step of `StarCommittees` — are written once
//! here. This module's round engine feeds them what it reads off the
//! graph: every phase starts from the committee adjacency of the current
//! snapshot, built afresh by
//! [`CommitteeForest::committee_adjacency`]. The asynchronous runtime's
//! committee actors (`subroutines::runtime_committee`) feed them their
//! leaders' decisions instead.
//!
//! Complexity (Theorem 3.8), all verified by the tests and the benchmark
//! harness: `O(log n)` rounds, at most `2n` active edges per round, an
//! optimal `O(n log n)` total edge activations, and (necessarily) a linear
//! maximum degree at the star centre.

use crate::algorithm::RunConfig;
use crate::committee::{start_run, CommitteeForest, CommitteeId, PhaseLog};
use crate::{CoreError, TransformationOutcome};
use adn_graph::properties::ceil_log2;
use adn_graph::{Edge, Graph, NodeId, UidMap};
use adn_sim::{Network, WaveActivation};

/// The mode a committee executes in during a phase (Section 3). The
/// runtime's committee actors gossip it as is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
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

impl Mode {
    /// Waiting or back in selection: the committee is the root of its
    /// selection tree, not committed to a merge or a climb. Only roots
    /// are selectable targets, and a climber that reaches a root's leader
    /// merges into it next phase.
    pub(crate) fn is_root(self) -> bool {
        matches!(self, Mode::Selection | Mode::Waiting)
    }
}

/// The climb target of a pulling committee attached to `attach`, whose
/// committee is led by `attach_leader` and started the phase in
/// `attach_mode`: the next node up the selection tree as it stood at the
/// beginning of the phase. That is the attach node's leader if we are
/// attached to an ordinary member, otherwise whatever our attach leader
/// itself points upwards to (its merge target or its own attach node).
/// A root attach committee keeps us where we are: we merge into it next
/// phase.
pub(crate) fn climb_target(attach: NodeId, attach_leader: NodeId, attach_mode: Mode) -> NodeId {
    if attach != attach_leader {
        // Hop from an ex-leader member to its current leader.
        return attach_leader;
    }
    match attach_mode {
        Mode::Merging { into } => into,
        Mode::Pulling { attach: up } => up,
        _ => attach,
    }
}

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

/// The GraphToStar committees: the arena-backed partition, the per-slot
/// mode column and the phase record. Both engines evolve it with the
/// rules below and differ only in how they observe a phase's selections
/// and climbs.
///
/// Leaders never migrate between slots in this algorithm (an absorbing
/// committee keeps its leader), so ascending slot order is ascending
/// leader order — the iteration order the old `BTreeMap<NodeId,
/// Committee>` provided.
pub(crate) struct StarCommittees {
    /// The committee partition.
    pub(crate) forest: CommitteeForest,
    /// Per-slot mode column, parallel to the forest arena.
    pub(crate) mode: Vec<Mode>,
    /// Phase counter, committee census and phase limit.
    pub(crate) log: PhaseLog,
}

impl StarCommittees {
    /// `n` singleton committees, all in selection mode.
    pub(crate) fn new(n: usize) -> Self {
        StarCommittees {
            forest: CommitteeForest::singletons(n),
            mode: vec![Mode::Selection; n],
            log: PhaseLog::new("GraphToStar", 40 * ceil_log2(n.max(2)) + 80),
        }
    }

    /// The live committees in merging mode, ascending, each with the node
    /// it merges into.
    pub(crate) fn merging(&self) -> impl Iterator<Item = (CommitteeId, NodeId)> + '_ {
        self.forest
            .live_ids()
            .iter()
            .filter_map(|&cid| match self.mode[cid.index()] {
                Mode::Merging { into } => Some((cid, into)),
                _ => None,
            })
    }

    /// The live committees in pulling mode, ascending, each with its
    /// attach node.
    pub(crate) fn pulling(&self) -> impl Iterator<Item = (CommitteeId, NodeId)> + '_ {
        self.forest
            .live_ids()
            .iter()
            .filter_map(|&cid| match self.mode[cid.index()] {
                Mode::Pulling { attach } => Some((cid, attach)),
                _ => None,
            })
    }

    /// The phase's merge list: `(dying, absorbing)` for every merging
    /// committee, ascending by the dying one.
    pub(crate) fn merge_list(&self) -> Result<Vec<(CommitteeId, CommitteeId)>, CoreError> {
        self.merging()
            .map(|(cid, into)| {
                let into_cid = self
                    .forest
                    .committee_of(into)
                    .ok_or_else(|| invariant_error(format!("merge target {into} is untracked")))?;
                Ok((cid, into_cid))
            })
            .collect()
    }

    /// Steps 3 and 4 of a phase: applies the `merges` to the committee
    /// structure, then moves every committee to its next mode from the
    /// phase's `selections` (`(selector, target)`) and `climbs` (`(pulling
    /// committee, new attach node)`).
    pub(crate) fn finish_phase(
        &mut self,
        selections: &[(CommitteeId, CommitteeId)],
        merges: &[(CommitteeId, CommitteeId)],
        climbs: &[(CommitteeId, NodeId)],
    ) -> Result<(), CoreError> {
        let slots = self.forest.slot_count();
        let mut did_select = vec![false; slots];
        let mut selected_by = vec![false; slots];
        for &(selector, target) in selections {
            did_select[selector.index()] = true;
            selected_by[target.index()] = true;
        }

        self.forest.absorb_batch(merges);

        // Pulling committees first. If the new attach node is now the
        // leader of a root committee, we merge into it next phase;
        // otherwise we keep pulling.
        for &(cid, new_attach) in climbs {
            let attach_cid = self
                .forest
                .committee_of(new_attach)
                .ok_or_else(|| invariant_error(format!("attach node {new_attach} is untracked")))?;
            let attach_is_root_leader = new_attach == self.forest.leader(attach_cid)
                && self.mode[attach_cid.index()].is_root();
            self.mode[cid.index()] = if attach_is_root_leader {
                Mode::Merging { into: new_attach }
            } else {
                Mode::Pulling { attach: new_attach }
            };
        }

        // Selector committees: pull towards a target that selected too,
        // otherwise merge into it.
        for &(selector, target) in selections {
            let target_leader = self.forest.leader(target);
            self.mode[selector.index()] = if did_select[target.index()] {
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
            if self.mode[cid.index()].is_root() {
                self.mode[cid.index()] = if selected_by[cid.index()] || has_children[cid.index()] {
                    Mode::Waiting
                } else {
                    Mode::Selection
                };
            }
        }
        Ok(())
    }

    /// The termination phase's deactivations: every edge not incident to
    /// the elected leader, so only the star stays.
    pub(crate) fn termination_drops(&self, graph: &Graph) -> Vec<Edge> {
        let leader = self.forest.first_leader();
        graph
            .edges()
            .filter(|e| e.a != leader && e.b != leader)
            .collect()
    }
}

/// Executes GraphToStar on `network` (trait entry point; see
/// [`crate::algorithm::GraphToStar`]).
pub(crate) fn execute(
    network: &mut Network,
    uids: &UidMap,
    config: &RunConfig,
) -> Result<TransformationOutcome, CoreError> {
    if !config.engine.is_synchronous() {
        return crate::subroutines::runtime_committee::run_runtime_star(network, uids, config);
    }
    start_run(network, uids, "GraphToStar", config)?;

    let initial = network.graph().clone();
    let n = initial.node_count();
    let mut state = State::new(initial);

    while state.committees.forest.live_count() > 1 {
        let live = state.committees.forest.live_count();
        state.committees.log.begin(config, network, live)?;
        state.run_phase(network, uids)?;
    }

    // Termination phase: keep only the star edges.
    let leader = state.committees.forest.first_leader();
    if n > 1 {
        state.committees.log.terminate(config, network)?;
        for e in state.committees.termination_drops(network.graph()) {
            network.stage_deactivation(e.a, e.b)?;
        }
        network.commit_round();
        // The paper charges 2 rounds for the termination phase (detection +
        // clean-up); charge the detection round explicitly.
        network.advance_idle_rounds(1);
    }

    config.check_round_budget(network)?;
    debug_assert_eq!(Some(leader), uids.max_uid_node());
    Ok(state.committees.log.outcome(leader, network))
}

struct State {
    committees: StarCommittees,
    /// Edges of the initial network (never deactivated before termination).
    initial_edges: Graph,
}

impl State {
    fn new(initial: Graph) -> Self {
        State {
            committees: StarCommittees::new(initial.node_count()),
            initial_edges: initial,
        }
    }

    /// One phase: the selections over the committee adjacency of the
    /// phase's snapshot, round A (selection helpers, merges and climbs),
    /// round B (the second selection hops), then the shared merge and
    /// mode-transition step.
    fn run_phase(&mut self, network: &mut Network, uids: &UidMap) -> Result<(), CoreError> {
        let committees = &self.committees;
        let (forest, mode) = (&committees.forest, &committees.mode);
        let adjacency = forest.committee_adjacency(network.graph());

        // Selection: a committee in selection mode picks its target among
        // the root committees (those not already committed to a merge or
        // climb), and its leader connects towards the target in round A —
        // the helper edge (u, y) via witness x, or directly the
        // leader-leader edge when it is already at distance <= 2. The
        // round-B second hops `(u, v, y)` are collected in `pending_b`.
        let mut selections: Vec<(CommitteeId, CommitteeId)> = Vec::new();
        let mut pending_b: Vec<(NodeId, NodeId, NodeId)> = Vec::new();
        let mut wave_acts: Vec<WaveActivation> = Vec::new();
        let mut wave_drops: Vec<Edge> = Vec::new();
        for &cid in forest.live_ids() {
            if mode[cid.index()] != Mode::Selection {
                continue;
            }
            let Some((target, x, y)) =
                adjacency
                    .select_largest_uid_neighbor(cid, forest, uids, |o| mode[o.index()].is_root())
            else {
                continue;
            };
            selections.push((cid, target));
            let u = forest.leader(cid);
            let v = forest.leader(target);
            if network.graph().has_edge(u, v) {
                // Already adjacent (for example both singletons joined by an
                // initial edge): nothing to activate.
                continue;
            }
            if u == x || y == v {
                // The leader-leader edge is one hop away: witness y (if the
                // selector's leader is the bridge) or witness x (if the
                // bridge lands on the target leader).
                wave_acts.push(WaveActivation {
                    initiator: u,
                    target: v,
                    witness: if u == x { y } else { x },
                });
                continue;
            }
            wave_acts.push(WaveActivation {
                initiator: u,
                target: y,
                witness: x,
            });
            pending_b.push((u, v, y));
        }

        // Merging committees: every member joins the target leader's star.
        let merges = committees.merge_list()?;
        for (cid, into) in committees.merging() {
            let leader = forest.leader(cid);
            for &x in forest.members(cid) {
                if x == leader {
                    continue;
                }
                // The dying committee's leader sits on both the star
                // edge (x, leader) and the leader-leader edge
                // (leader, into) from the selection phase.
                wave_acts.push(WaveActivation {
                    initiator: x,
                    target: into,
                    witness: leader,
                });
                if !self.initial_edges.has_edge(x, leader) {
                    wave_drops.push(Edge::new(x, leader));
                }
            }
        }

        // Pulling committees: climb one level of the committee tree.
        let mut climbs: Vec<(CommitteeId, NodeId)> = Vec::new();
        for (cid, attach) in committees.pulling() {
            let leader = forest.leader(cid);
            let attach_cid = forest
                .committee_of(attach)
                .ok_or_else(|| invariant_error(format!("attach node {attach} is untracked")))?;
            let target = climb_target(attach, forest.leader(attach_cid), mode[attach_cid.index()]);
            if target != attach {
                // The attach node supports both the old (leader,
                // attach) edge and the upward (attach, target) edge.
                wave_acts.push(WaveActivation {
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

        network.stage_jump_wave(&wave_acts, &wave_drops)?;
        let summary_a = network.commit_round();

        // Round B: second selection hop, witnessed by the round-A helper
        // endpoint `y` (adjacent to `u` via the helper edge and to `v`
        // inside the target committee); the helper edge is dropped.
        wave_acts.clear();
        wave_drops.clear();
        for &(u, v, y) in &pending_b {
            wave_acts.push(WaveActivation {
                initiator: u,
                target: v,
                witness: y,
            });
            if !self.initial_edges.has_edge(u, y) {
                wave_drops.push(Edge::new(u, y));
            }
        }
        network.stage_jump_wave(&wave_acts, &wave_drops)?;
        if !selections.is_empty() {
            // A selection phase always costs 2 rounds (Lemma 3.7), even if
            // the second hop happened to be unnecessary for some selectors.
            network.commit_round();
        } else if summary_a.activations == 0 && summary_a.deactivations == 0 {
            // A phase with no edge operations at all (pure mode
            // transitions) still costs a round of communication.
            network.advance_idle_rounds(1);
        }

        self.committees.finish_phase(&selections, &merges, &climbs)
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
