//! Committee algorithms (`GraphToStar`, the wreath family) as
//! message-driven actors on the `adn-runtime` seeded scheduler.
//!
//! The synchronous engines run a phase as a handful of lock-step rounds:
//! gossip the committee neighbourhood, let every leader decide, execute
//! the edge operations, transition modes. This module re-expresses each
//! phase as a sequence of **asynchronous mini-phases** separated by
//! Dijkstra–Scholten quiescence barriers (each one
//! [`SeededRun::barrier`](adn_runtime::SeededRun::barrier) of one run):
//!
//! 1. **Gossip** — every node sends its committee's `(leader, mode)` to
//!    each graph neighbour, so leaders later see exactly the committee
//!    adjacency the synchronous engines compute centrally.
//! 2. **Report** — members forward their gossip observations to their
//!    leader.
//! 3. **Decide** — leaders fold the reports with the synchronous
//!    selection rule (largest-UID strictly-larger neighbouring committee,
//!    with the lexicographically smallest bridge) and stage the first
//!    wave of edge operations; merging leaders instruct their members by
//!    message.
//! 4. **Execution mini-phases** — the remaining edge-operation waves
//!    (the star's round-B hop and deferred deactivations, the wreath's
//!    per-level splice rounds and clean-up), each planned between barriers
//!    and carried out by the owning actors.
//! 5. **Rebuild** (wreath family) — every merged ring is rebuilt into a
//!    tree in one barrier: each ring node runs its position's
//!    [`TreeActor`] of the actor line-to-tree
//!    ([`runtime_line_to_tree`](super::runtime_line_to_tree)), keeping
//!    the ring's edges, and the tree messages travel as `CommitteeMsg::Tree`.
//!
//! The rules themselves are not written here. Each entry point is a
//! phase loop shaped like its synchronous engine's `execute`, with
//! barriers where the engine communicates and commits rounds; *between*
//! barriers, never inside the asynchronous execution, it calls the
//! synchronous engines' own rule set on what the actors observed:
//! `StarCommittees` and `climb_target` for GraphToStar, `WreathState`
//! for the wreath family, and the shared selection fold of
//! [`crate::committee`]. This module keeps only the runtime work — the
//! actors and their messages, the mini-phases, the hand-off of planned
//! operations at each barrier, and the hand-off of ring positions to the
//! rebuild.
//! Because every decision is made either on a complete message set
//! (after a barrier) or by a commutative rule, the resulting committee
//! structures — final graph, phase count, committees per phase — **equal
//! the synchronous engines' on delay-free and adversarial schedules
//! alike**, which the differential tests in `tests/runtime_model.rs` pin.
//!
//! A committee run is one [`SeededRun`](adn_runtime::SeededRun): every
//! mini-phase, the rebuilds included, is a barrier of it, so the run has
//! one report (its `commits` count every round the run commits) and one
//! replayable delivery order.
//!
//! **Armed faults:** on a network armed with the DST adversary
//! ([`arm_network_for_dst`](crate::algorithm::arm_network_for_dst)) the
//! adversary acts at the run's commits, rebuilds included, as it does at
//! the synchronous engine's rounds. A node it joins gets no actor and
//! stays outside the committees; an actor whose node it crashes is
//! retired by the scheduler. The protocols then either complete or
//! fail with a clean [`CoreError`] (no panic, no hang — the phase limit
//! and the scheduler's step budget bound every execution). A faulted run
//! diverges from the synchronous baseline by design.

use crate::algorithm::{validate_input, RunConfig};
use crate::committee::{select_largest_uid, CommitteeForest, CommitteeId};
use crate::graph_to_star::{climb_target, Mode, StarCommittees};
use crate::graph_to_wreath::{Choice, WreathConfig, WreathState};
use crate::subroutines::async_line_to_tree::{validate_line, PlanWork};
use crate::subroutines::{LineToTreeConfig, TreeActor, TreeMsg};
use crate::{CoreError, TransformationOutcome};
use adn_graph::{Graph, NodeId, UidMap};
use adn_runtime::{AsyncProgram, Context, SeededScheduler};
use adn_sim::{Network, WaveActivation};
use std::mem;

/// One gossip observation: node `x` saw neighbour `y`, which reported
/// belonging to the committee led by `y_leader` currently in `y_mode`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BridgeInfo {
    x: NodeId,
    y: NodeId,
    y_leader: NodeId,
    y_mode: Mode,
}

/// Messages of the committee protocols.
#[derive(Debug, Clone)]
enum CommitteeMsg {
    /// Gossip: "I belong to the committee led by `leader`, in `mode`." The
    /// wreath engine gossips `Selection` for everyone — its selection rule
    /// ignores modes.
    Bridge { leader: NodeId, mode: Mode },
    /// A member forwards its gossip observations to its leader.
    Report { bridges: Vec<BridgeInfo> },
    /// A merging leader instructs a member to join `into`'s star.
    MergeOp { into: NodeId },
    /// A line-to-tree message between two positions of a merged ring.
    Tree(TreeMsg),
}

impl From<TreeMsg> for CommitteeMsg {
    fn from(msg: TreeMsg) -> Self {
        CommitteeMsg::Tree(msg)
    }
}

/// Which mini-phase the actor runs when the scheduler starts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mini {
    Idle,
    Gossip,
    Report,
    StarDecide,
    StarHopB,
    Deact,
    WreathDecide,
    Exec,
    Rebuild,
}

/// One node of a committee protocol. The phase loop feeds the per-phase
/// inputs (leader, mode, neighbour snapshot) between barriers; within a
/// mini-phase the actor acts on messages alone.
struct CommitteeActor<'a> {
    uids: &'a UidMap,
    initial: &'a Graph,
    // Inputs fed between barriers.
    mini: Mini,
    leader: NodeId,
    mode: Mode,
    neighbors: Vec<NodeId>,
    members: Vec<NodeId>,
    assigned_acts: Vec<NodeId>,
    assigned_deacts: Vec<NodeId>,
    // Protocol state accumulated within a phase.
    bridges: Vec<BridgeInfo>,
    reports: Vec<BridgeInfo>,
    // Decision artifacts the phase loop reads after barriers.
    selection: Option<(NodeId, NodeId, NodeId)>,
    climb: Option<NodeId>,
    pending_b: Option<(NodeId, NodeId)>,
    pending_deacts: Vec<NodeId>,
    /// This node's ring position while its merged ring is rebuilt (inert
    /// otherwise).
    tree: TreeActor,
}

impl<'a> CommitteeActor<'a> {
    fn new(id: usize, uids: &'a UidMap, initial: &'a Graph) -> Self {
        CommitteeActor {
            uids,
            initial,
            mini: Mini::Idle,
            leader: NodeId(id),
            mode: Mode::Selection,
            neighbors: Vec::new(),
            members: Vec::new(),
            assigned_acts: Vec::new(),
            assigned_deacts: Vec::new(),
            bridges: Vec::new(),
            reports: Vec::new(),
            selection: None,
            climb: None,
            pending_b: None,
            pending_deacts: Vec::new(),
            tree: TreeActor::default(),
        }
    }

    fn clear_phase_state(&mut self) {
        self.members.clear();
        self.assigned_acts.clear();
        self.assigned_deacts.clear();
        self.bridges.clear();
        self.reports.clear();
        self.selection = None;
        self.climb = None;
        self.pending_b = None;
        self.pending_deacts.clear();
    }

    /// The leader's selection over its reports: the selection rule the
    /// round engines apply in `CommitteeForest::select_largest_uid_neighbors`,
    /// restricted to root committees when `star_rules`. Intra-committee reports name
    /// our own leader, whose UID is not strictly larger, so the fold
    /// skips them; the fold is order-independent, so the order in which
    /// the reports arrived cannot change the outcome.
    fn decide_selection(&self, me: NodeId, star_rules: bool) -> Option<(NodeId, NodeId, NodeId)> {
        let candidates = self
            .reports
            .iter()
            .filter(|e| !star_rules || e.y_mode.is_root())
            .map(|e| (self.uids.uid(e.y_leader), e.y_leader, e.x, e.y));
        select_largest_uid(self.uids.uid(me), candidates)
    }

    /// The star leader's decision step (the synchronous round A, minus
    /// the deactivations, which wait for the dedicated `Deact` barrier so
    /// no activation witness disappears early).
    fn star_decide(&mut self, ctx: &mut Context<CommitteeMsg>) {
        let me = ctx.id();
        match self.mode {
            Mode::Selection => {
                let Some((v, x, y)) = self.decide_selection(me, true) else {
                    return;
                };
                self.selection = Some((v, x, y));
                if self.neighbors.contains(&v) {
                    return; // already adjacent: nothing to activate
                }
                if me == x || y == v {
                    ctx.activate(v);
                    return;
                }
                // General case: helper edge (me, y) now, leader-leader
                // edge via witness y in the hop-B mini-phase.
                ctx.activate(y);
                self.pending_b = Some((v, y));
            }
            Mode::Merging { into } => {
                for i in 0..self.members.len() {
                    let m = self.members[i];
                    if m != me {
                        ctx.send(m, CommitteeMsg::MergeOp { into });
                    }
                }
            }
            Mode::Pulling { attach } => {
                // Any gossip entry for the attach node carries the same
                // `(leader, mode)` payload, so the pick is value-unique.
                let Some(e) = self.reports.iter().find(|e| e.y == attach).copied() else {
                    return; // degraded (faults): stay attached
                };
                let target = climb_target(attach, e.y_leader, e.y_mode);
                if target != attach {
                    ctx.activate(target);
                    if !self.initial.has_edge(me, attach) {
                        self.pending_deacts.push(attach);
                    }
                }
                self.climb = Some(target);
            }
            Mode::Waiting => {}
        }
    }
}

impl AsyncProgram for CommitteeActor<'_> {
    type Message = CommitteeMsg;

    fn on_start(&mut self, ctx: &mut Context<Self::Message>) {
        match self.mini {
            Mini::Idle => {}
            Mini::Gossip => {
                for i in 0..self.neighbors.len() {
                    let nb = self.neighbors[i];
                    ctx.send(
                        nb,
                        CommitteeMsg::Bridge {
                            leader: self.leader,
                            mode: self.mode,
                        },
                    );
                }
            }
            Mini::Report => {
                if ctx.id() == self.leader {
                    let mut own = mem::take(&mut self.bridges);
                    self.reports.append(&mut own);
                } else if !self.bridges.is_empty() {
                    let bridges = mem::take(&mut self.bridges);
                    ctx.send(self.leader, CommitteeMsg::Report { bridges });
                }
            }
            Mini::StarDecide => {
                if ctx.id() == self.leader {
                    self.star_decide(ctx);
                }
            }
            Mini::StarHopB => {
                if let Some((v, y)) = self.pending_b.take() {
                    ctx.activate(v);
                    if !self.initial.has_edge(ctx.id(), y) {
                        self.pending_deacts.push(y);
                    }
                }
            }
            Mini::Deact => {
                for p in mem::take(&mut self.pending_deacts) {
                    ctx.deactivate(p);
                }
            }
            Mini::WreathDecide => {
                if ctx.id() == self.leader {
                    self.selection = self.decide_selection(ctx.id(), false);
                }
            }
            Mini::Exec => {
                for p in mem::take(&mut self.assigned_acts) {
                    ctx.activate(p);
                }
                for p in mem::take(&mut self.assigned_deacts) {
                    ctx.deactivate(p);
                }
            }
            Mini::Rebuild => self.tree.start(ctx),
        }
    }

    fn on_message(&mut self, from: NodeId, msg: Self::Message, ctx: &mut Context<Self::Message>) {
        match msg {
            CommitteeMsg::Bridge { leader, mode } => {
                self.bridges.push(BridgeInfo {
                    x: ctx.id(),
                    y: from,
                    y_leader: leader,
                    y_mode: mode,
                });
            }
            CommitteeMsg::Report { bridges } => {
                self.reports.extend(bridges);
            }
            CommitteeMsg::MergeOp { into } => {
                ctx.activate(into);
                if !self.initial.has_edge(ctx.id(), self.leader) {
                    self.pending_deacts.push(self.leader);
                }
            }
            CommitteeMsg::Tree(msg) => self.tree.receive(msg, ctx),
        }
    }
}

fn build_actors<'a>(n: usize, uids: &'a UidMap, initial: &'a Graph) -> Vec<CommitteeActor<'a>> {
    (0..n)
        .map(|i| CommitteeActor::new(i, uids, initial))
        .collect()
}

/// Feeds every committee member its phase inputs and arms the gossip
/// mini-phase. All nodes belong to some live committee, so this covers
/// the whole actor array.
fn prep_gossip<F: Fn(CommitteeId) -> Mode>(
    forest: &CommitteeForest,
    network: &Network,
    actors: &mut [CommitteeActor],
    mode_of: F,
) {
    let graph = network.graph();
    for &cid in forest.live_ids() {
        let leader = forest.leader(cid);
        let mode = mode_of(cid);
        for &m in forest.members(cid) {
            if m.index() >= actors.len() {
                continue;
            }
            let a = &mut actors[m.index()];
            a.clear_phase_state();
            a.leader = leader;
            a.mode = mode;
            a.neighbors.clear();
            a.neighbors.extend_from_slice(graph.neighbors_slice(m));
            a.mini = Mini::Gossip;
        }
        if leader.index() < actors.len() {
            actors[leader.index()].members = forest.members(cid).to_vec();
        }
    }
}

/// Every live committee's selection as its leader decided it, indexed by
/// slot, with the target leader resolved to its committee.
fn harvest_selections(
    forest: &CommitteeForest,
    actors: &[CommitteeActor],
    algorithm: &'static str,
) -> Result<Vec<Option<Choice>>, CoreError> {
    let mut selected = vec![None; forest.slot_count()];
    for &cid in forest.live_ids() {
        if let Some((v, x, y)) = actors[forest.leader(cid).index()].selection {
            let target = forest
                .committee_of(v)
                .ok_or_else(|| CoreError::BrokenInvariant {
                    algorithm,
                    detail: format!("selection target {v} is untracked"),
                })?;
            selected[cid.index()] = Some((target, x, y));
        }
    }
    Ok(selected)
}

fn set_mini(actors: &mut [CommitteeActor], mini: Mini) {
    for a in actors.iter_mut() {
        a.mini = mini;
    }
}

/// Hands a pre-planned operation list to its owning actors and arms one
/// execution barrier (all guards were evaluated between barriers against
/// the snapshot the synchronous engine would have used). Each
/// deactivation `(a, b)` is performed by `a`.
fn assign_ops(
    actors: &mut [CommitteeActor],
    acts: &[WaveActivation],
    deacts: impl IntoIterator<Item = (NodeId, NodeId)>,
) {
    for a in actors.iter_mut() {
        a.assigned_acts.clear();
        a.assigned_deacts.clear();
        a.mini = Mini::Exec;
    }
    for act in acts {
        if act.initiator.index() < actors.len() {
            actors[act.initiator.index()].assigned_acts.push(act.target);
        }
    }
    for (a, b) in deacts {
        if a.index() < actors.len() {
            actors[a.index()].assigned_deacts.push(b);
        }
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Runs GraphToStar on the asynchronous runtime under `scheduler`;
/// `config` supplies the round budget. Each phase of the synchronous
/// engine becomes five barriers: gossip, report, decide (round A), hop B
/// (round B) and the deferred deactivations.
///
/// # Errors
///
/// As the synchronous engine ([`CoreError::InvalidInput`] for bad inputs,
/// [`CoreError::DidNotConverge`] / [`CoreError::Sim`] /
/// [`CoreError::BrokenInvariant`] on bugs or armed faults). A phase that
/// commits no round, merges no committee and changes no mode is a fixed
/// point (faults can leave a run there) and fails at once with
/// [`CoreError::DidNotConverge`] naming that phase. A scheduler that uses
/// up its step budget fails the run with [`CoreError::Runtime`].
pub fn run_runtime_star(
    network: &mut Network,
    uids: &UidMap,
    config: &RunConfig,
    scheduler: &SeededScheduler,
) -> Result<TransformationOutcome, CoreError> {
    validate_input(network, uids, "GraphToStar")?;
    let initial = network.graph().clone();
    let n = initial.node_count();
    let actors = &mut build_actors(n, uids, &initial);
    let mut run = scheduler.start(network, n)?;
    let mut committees = StarCommittees::new(n);

    while committees.forest.live_count() > 1 {
        let live = committees.forest.live_count();
        committees.log.begin(config, network, live)?;
        let (rounds, modes) = (network.metrics().rounds, committees.mode.clone());
        let mode = &committees.mode;
        prep_gossip(&committees.forest, network, actors, |cid| mode[cid.index()]);
        run.barrier(network, actors)?;
        for mini in [Mini::Report, Mini::StarDecide, Mini::StarHopB, Mini::Deact] {
            set_mini(actors, mini);
            run.barrier(network, actors)?;
        }

        // The leaders' selections and climbs feed the synchronous merge
        // and mode-transition step. A degraded (faulted) committee
        // recorded no climb and stays put.
        let selections: Vec<(CommitteeId, CommitteeId)> =
            harvest_selections(&committees.forest, actors, committees.log.algorithm)?
                .into_iter()
                .enumerate()
                .filter_map(|(slot, choice)| choice.map(|(to, _, _)| (CommitteeId(slot), to)))
                .collect();
        let merges = committees.merge_list()?;
        let climbs: Vec<(CommitteeId, NodeId)> = committees
            .pulling()
            .map(|(cid, attach)| {
                let leader = committees.forest.leader(cid);
                (cid, actors[leader.index()].climb.unwrap_or(attach))
            })
            .collect();
        committees.finish_phase(&selections, &merges, &climbs)?;
        // A phase that commits no round leaves the graph as it was, and
        // the crashed set too (the adversary acts only at commits). If it
        // also left the committees and their modes as they were, every
        // later phase decides the same: the run can never converge.
        if network.metrics().rounds == rounds
            && committees.forest.live_count() == live
            && committees.mode == modes
        {
            return Err(CoreError::DidNotConverge {
                algorithm: committees.log.algorithm,
                phase_limit: committees.log.phases,
            });
        }
    }

    // Termination phase: deactivate every non-star edge.
    if committees.forest.tracked_nodes() > 1 {
        committees.log.terminate(config, network)?;
        let drops = committees.termination_drops(network.graph());
        assign_ops(actors, &[], drops.iter().map(|e| (e.a, e.b)));
        run.barrier(network, actors)?;
    }
    let mut outcome = committees
        .log
        .outcome(committees.forest.first_leader(), network);
    outcome.runtime = Some(run.finish());
    Ok(outcome)
}

/// Runs the wreath family (GraphToWreath / GraphToThinWreath, by
/// `wreath.tree_arity`) on the asynchronous runtime under `scheduler`;
/// `config` supplies the round budget. Each phase of the synchronous
/// engine becomes barriers: gossip, report and decide; three per splice
/// level (round A's activations, round B's activations, round B's
/// deactivations); the clean-up deactivations, if any; and one rebuild of
/// every merged ring.
///
/// # Errors
///
/// As [`run_runtime_star`].
pub fn run_runtime_wreath(
    network: &mut Network,
    uids: &UidMap,
    wreath: &WreathConfig,
    config: &RunConfig,
    scheduler: &SeededScheduler,
) -> Result<TransformationOutcome, CoreError> {
    validate_input(network, uids, wreath.name)?;
    let initial = network.graph().clone();
    let n = initial.node_count();
    let actors = &mut build_actors(n, uids, &initial);
    let mut run = scheduler.start(network, n)?;
    let mut state = WreathState::new(n, wreath.name);
    let rebuild = LineToTreeConfig {
        arity: wreath.tree_arity,
        keep_line_edges: true,
    };
    // Scratch shared by every ring the run rebuilds.
    let (mut plan_work, mut seen, mut parents) = (PlanWork::default(), Vec::new(), Vec::new());

    while state.forest.live_count() > 1 {
        let live = state.forest.live_count();
        state.log.begin(config, network, live)?;
        prep_gossip(&state.forest, network, actors, |_| Mode::Selection);
        run.barrier(network, actors)?;
        for mini in [Mini::Report, Mini::WreathDecide] {
            set_mini(actors, mini);
            run.barrier(network, actors)?;
        }
        let selected = harvest_selections(&state.forest, actors, state.log.algorithm)?;
        if !state.select(selected) {
            // No committee found a larger neighbour this phase: retry (the
            // phase was already counted, as in the synchronous
            // idle-and-continue).
            continue;
        }

        // Ring merging, one splice level at a time: round A's activations,
        // then round B's activations and deactivations, both planned on
        // the post-round-A snapshot under the synchronous guards.
        while let Some(level) = state.plan_level()? {
            assign_ops(actors, &level.round_a(network.graph()), []);
            run.barrier(network, actors)?;
            let drops = level.round_b_drops(network.graph(), &initial);
            assign_ops(actors, &level.round_b(network.graph()), []);
            run.barrier(network, actors)?;
            assign_ops(actors, &[], drops);
            run.barrier(network, actors)?;
        }
        if state.merged_roots().next().is_none() {
            continue;
        }
        state.materialize_rings()?;
        let drops = state.cleanup(network.graph(), &initial);
        if !drops.is_empty() {
            assign_ops(actors, &[], drops.iter().map(|e| (e.a, e.b)));
            run.barrier(network, actors)?;
        }

        // Tree merging: every merged ring, checked as the synchronous
        // lockstep batch checks it, is rebuilt in one barrier, each of its
        // nodes running its position's line-to-tree actor.
        let merged_roots: Vec<CommitteeId> = state.merged_roots().collect();
        set_mini(actors, Mini::Rebuild);
        for &root in &merged_roots {
            let line = state.merged_line(root);
            validate_line(network, line, wreath.tree_arity, &mut seen)?;
            let trees = TreeActor::for_line(line, &rebuild, &mut plan_work);
            for (&node, tree) in line.iter().zip(trees) {
                actors[node.index()].tree = tree;
            }
        }
        run.barrier(network, actors)?;
        for &root in &merged_roots {
            parents.clear();
            for &node in state.merged_line(root) {
                parents.push(mem::take(&mut actors[node.index()].tree).final_parent()?);
            }
            state.install_tree(root, &parents);
        }
        state.retire_merged();
    }

    // Termination phase: keep only the final committee's tree edges.
    if state.forest.tracked_nodes() > 1 {
        state.log.terminate(config, network)?;
        let drops = state.termination_drops(network.graph());
        assign_ops(actors, &[], drops.iter().map(|e| (e.a, e.b)));
        run.barrier(network, actors)?;
    }
    let mut outcome = state.log.outcome(state.forest.first_leader(), network);
    outcome.runtime = Some(run.finish());
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{
        arm_network_for_dst, DstConfig, GraphToStar, GraphToWreath, ReconfigurationAlgorithm,
        RunConfig,
    };
    use adn_graph::properties::{is_star, is_tree, star_center};
    use adn_graph::{generators, UidAssignment};
    use adn_runtime::{AsyncKnobs, RuntimeError};
    use adn_sim::dst::Scenario;

    fn seeded(seed: u64) -> SeededScheduler {
        SeededScheduler::new(seed)
    }

    /// A network over `g` armed with `algorithm`'s DST policy and an
    /// adversary that crashes one node at the boundary before round
    /// `round` (the first commit closes round 1, so 2 is the earliest).
    fn crash_armed(
        g: &Graph,
        uids: &UidMap,
        algorithm: &dyn ReconfigurationAlgorithm,
        round: usize,
        seed: u64,
    ) -> Network {
        let scenario = Scenario {
            per_round_probability: 1.0,
            ..Scenario::crash_stop()
        }
        .with_fault_budget(1)
        .with_window(round, Some(round));
        let mut network = Network::new(g.clone());
        arm_network_for_dst(
            &mut network,
            &algorithm.spec(),
            uids,
            &DstConfig { scenario, seed },
        );
        network
    }

    fn sync_star(g: &Graph, uids: &UidMap) -> TransformationOutcome {
        let mut network = Network::new(g.clone());
        crate::graph_to_star::execute(&mut network, uids, &RunConfig::default())
            .expect("sync star must succeed")
    }

    fn sync_wreath(g: &Graph, uids: &UidMap) -> TransformationOutcome {
        let mut network = Network::new(g.clone());
        crate::graph_to_wreath::execute(
            &mut network,
            uids,
            &WreathConfig::binary(),
            &RunConfig::default(),
        )
        .expect("sync wreath must succeed")
    }

    #[test]
    fn seeded_star_matches_sync_on_small_graphs() {
        for (g, seed) in [
            (generators::line(9), 7u64),
            (generators::ring(12), 11),
            (generators::grid(3, 4), 13),
            (generators::random_connected(16, 0.2, 3), 17),
        ] {
            let uids = UidMap::new(g.node_count(), UidAssignment::RandomPermutation { seed });
            let sync = sync_star(&g, &uids);
            let mut network = Network::new(g.clone());
            let outcome =
                run_runtime_star(&mut network, &uids, &RunConfig::default(), &seeded(seed))
                    .expect("runtime star must succeed");
            assert!(is_star(&outcome.final_graph));
            assert_eq!(star_center(&outcome.final_graph), Some(outcome.leader));
            assert_eq!(outcome.leader, sync.leader);
            assert_eq!(outcome.final_graph, sync.final_graph);
            assert_eq!(outcome.phases, sync.phases);
            assert_eq!(outcome.committees_per_phase, sync.committees_per_phase);
            assert!(outcome.runtime.is_some());
        }
    }

    #[test]
    fn seeded_wreath_matches_sync_on_small_graphs() {
        for (g, seed) in [
            (generators::line(10), 19u64),
            (generators::ring(14), 23),
            (generators::grid(4, 4), 29),
        ] {
            let uids = UidMap::new(g.node_count(), UidAssignment::RandomPermutation { seed });
            let sync = sync_wreath(&g, &uids);
            let mut network = Network::new(g.clone());
            let outcome = run_runtime_wreath(
                &mut network,
                &uids,
                &WreathConfig::binary(),
                &RunConfig::default(),
                &seeded(seed),
            )
            .expect("runtime wreath must succeed");
            assert!(is_tree(&outcome.final_graph));
            assert_eq!(outcome.leader, sync.leader);
            assert_eq!(outcome.final_graph, sync.final_graph);
            assert_eq!(outcome.phases, sync.phases);
            assert_eq!(outcome.committees_per_phase, sync.committees_per_phase);
        }
    }

    #[test]
    fn adversarial_knobs_do_not_change_star_outcomes() {
        let g = generators::random_connected(20, 0.2, 9);
        let uids = UidMap::new(20, UidAssignment::RandomPermutation { seed: 9 });
        let sync = sync_star(&g, &uids);
        let knobs = AsyncKnobs {
            reorder_window: 6,
            max_link_delay: 3,
            asymmetric_delay: true,
        };
        for seed in [1u64, 2, 3] {
            let mut network = Network::new(g.clone());
            let outcome = run_runtime_star(
                &mut network,
                &uids,
                &RunConfig::default(),
                &SeededScheduler::new(seed).with_knobs(knobs),
            )
            .expect("adversarial star must succeed");
            assert_eq!(outcome.final_graph, sync.final_graph);
            assert_eq!(outcome.committees_per_phase, sync.committees_per_phase);
        }
    }

    #[test]
    fn seeded_star_replays_byte_identically() {
        let g = generators::grid(4, 5);
        let uids = UidMap::new(20, UidAssignment::RandomPermutation { seed: 2 });
        let run = |seed: u64| {
            let mut network = Network::new(g.clone());
            run_runtime_star(&mut network, &uids, &RunConfig::default(), &seeded(seed))
                .expect("must succeed")
                .runtime
                .expect("runtime report present")
                .render()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn armed_crash_is_survived_or_fails_cleanly() {
        let g = generators::random_connected(14, 0.25, 4);
        let uids = UidMap::new(14, UidAssignment::RandomPermutation { seed: 4 });
        let run = |mut network: Network, seed: u64| {
            run_runtime_star(&mut network, &uids, &RunConfig::default(), &seeded(seed))
        };
        let commits = run(Network::new(g.clone()), 0).expect("clean run").rounds;
        for seed in 0..8u64 {
            let round = 2 + (seed as usize * 7) % commits;
            let result = run(crash_armed(&g, &uids, &GraphToStar, round, seed), seed);
            // Either the run completes (crash landed after the protocol
            // stopped needing the node) or it fails with a clean error —
            // never a panic, never a hang.
            if let Ok(outcome) = &result {
                assert!(outcome.runtime.is_some());
                assert_eq!(outcome.dst.as_ref().map(|d| d.crashed.len()), Some(1));
            }
        }
    }

    #[test]
    fn a_crash_fixed_point_fails_at_once_and_replays() {
        // Crash-stops can leave a run in a phase that commits no round,
        // merges nothing and changes no mode; every later phase would
        // repeat it. The run stops at that phase (9 here), far below the
        // 280-phase limit at n = 32.
        let (n, seed) = (32, 5u64);
        let g = generators::line(n);
        let uids = UidMap::new(n, UidAssignment::RandomPermutation { seed });
        let scenario = Scenario {
            per_round_probability: 0.2,
            ..Scenario::crash_stop()
        };
        let config = RunConfig::default()
            .with_dst(scenario.clone(), seed)
            .with_engine(crate::algorithm::EngineMode::Seeded { seed });
        let run = || {
            let mut network = Network::new(g.clone());
            let dst = DstConfig {
                scenario: scenario.clone(),
                seed,
            };
            arm_network_for_dst(&mut network, &GraphToStar.spec(), &uids, &dst);
            let err = GraphToStar
                .execute(&mut network, &uids, &config)
                .expect_err("the crashes strand the run");
            let report = network.take_dst_report().expect("armed network");
            assert!(!report.crashed.is_empty());
            (err, report.render(), network.graph().clone())
        };
        let first = run();
        assert_eq!(
            first.0,
            CoreError::DidNotConverge {
                algorithm: "GraphToStar",
                phase_limit: 9
            }
        );
        assert_eq!(run(), first, "a stalled run replays identically");
    }

    #[test]
    fn armed_crash_anywhere_in_a_wreath_run_fails_cleanly() {
        // The rebuilds are barriers of the run, so a crash can land in
        // one: sweeping the crash across every commit round of a clean run
        // reaches every mini-phase, and each run must complete or fail
        // with a clean error — never a panic, never a hang.
        let g = generators::ring(12);
        let uids = UidMap::new(12, UidAssignment::RandomPermutation { seed: 6 });
        let run = |mut network: Network| {
            run_runtime_wreath(
                &mut network,
                &uids,
                &WreathConfig::binary(),
                &RunConfig::default(),
                &seeded(6),
            )
        };
        let commits = run(Network::new(g.clone()))
            .expect("clean run")
            .runtime
            .expect("report")
            .commits;
        let (mut completed, mut failed) = (0, 0);
        for round in 2..=commits + 1 {
            match run(crash_armed(&g, &uids, &GraphToWreath, round, round as u64)) {
                Ok(_) => completed += 1,
                Err(_) => failed += 1,
            }
        }
        assert!(
            completed > 0 && failed > 0,
            "{completed} completed, {failed} failed"
        );
    }

    #[test]
    fn a_scheduler_that_gives_up_is_a_runtime_error() {
        // An exhausted step budget is neither a bad input nor a broken
        // committee invariant: it surfaces as the scheduler's own error.
        let uids = UidMap::new(8, UidAssignment::Sequential);
        let mut network = Network::new(generators::ring(8));
        let scheduler = SeededScheduler::new(1).with_max_steps(3);
        let err =
            run_runtime_star(&mut network, &uids, &RunConfig::default(), &scheduler).unwrap_err();
        assert_eq!(
            err,
            CoreError::Runtime(RuntimeError::DidNotQuiesce { steps: 3 })
        );
    }

    #[test]
    fn single_node_is_trivial() {
        let uids = UidMap::new(1, UidAssignment::Sequential);
        let mut network = Network::new(Graph::new(1));
        let outcome = run_runtime_star(&mut network, &uids, &RunConfig::default(), &seeded(1))
            .expect("single node must succeed");
        assert_eq!(outcome.leader, NodeId(0));
        assert_eq!(outcome.final_graph.edge_count(), 0);
        assert_eq!(outcome.phases, 0);
    }
}
