//! Committee algorithms (`GraphToStar`, the wreath family) as
//! message-driven actors on the `adn-runtime` schedulers.
//!
//! The synchronous engines run a phase as a handful of lock-step rounds:
//! gossip the committee neighbourhood, let every leader decide, execute
//! the edge operations, transition modes. This module re-expresses each
//! phase as a sequence of **asynchronous mini-phases** separated by
//! Dijkstra–Scholten quiescence barriers (the schedulers' `run_phased`
//! entry points):
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
//!    per-level splice rounds), each planned between barriers and carried
//!    out by the owning actors.
//!
//! The rules themselves are not written here. A driver runs *between*
//! barriers, never inside the asynchronous execution, and calls the
//! synchronous engines' own rule set on what the actors observed:
//! `StarCommittees` and `climb_target` for GraphToStar, `WreathState`
//! for the wreath family, and the shared selection fold of
//! [`crate::committee`]. This module keeps only the runtime work — the
//! actors and their messages, the mini-phase stages, the hand-off of
//! planned operations at each barrier, and the nested tree rebuilds.
//! Because every decision is made either on a complete message set
//! (after a barrier) or by a commutative rule, the resulting committee
//! structures — final graph, phase count, committees per phase — **equal
//! the synchronous engines' on delay-free and adversarial schedules
//! alike**, which the differential tests in `tests/runtime_model.rs` pin
//! for both schedulers.
//!
//! Inside a wreath phase the merged rings are rebuilt into trees with the
//! actor-based [`runtime_line_to_tree`](super::runtime_line_to_tree)
//! subroutine, one root after another, nested under the same scheduler
//! family (seeded sub-seeds are split deterministically from the master
//! seed, so seeded replay stays byte-identical).
//!
//! **Armed faults:** the seeded entry points accept a
//! [`FaultPlan`]; crashes sever a node mid-run and the protocols then
//! either complete or fail with a clean [`CoreError`] (no panic, no
//! hang — the phase limit and the scheduler's step budget bound every
//! execution). A crash plan makes the run diverge from the synchronous
//! baseline by design; the fault plan is consulted only by the *outer*
//! scheduler, between deliveries of the committee protocol itself.

use crate::algorithm::{EngineMode, RunConfig};
use crate::committee::{select_largest_uid, start_run, CommitteeForest, CommitteeId, PhaseLog};
use crate::graph_to_star::{climb_target, Mode, StarCommittees};
use crate::graph_to_wreath::{Choice, SpliceLevel, WreathConfig, WreathState};
use crate::subroutines::{
    run_runtime_line_to_tree_free, run_runtime_line_to_tree_seeded, LineToTreeConfig,
};
use crate::{CoreError, TransformationOutcome};
use adn_graph::edgeset::SortedEdgeSet;
use adn_graph::{Graph, NodeId, UidMap};
use adn_runtime::{
    AsyncKnobs, AsyncProgram, Context, FaultPlan, FreeScheduler, RuntimeReport, SeededScheduler,
};
use adn_sim::{Network, WaveActivation};
use std::mem;
use std::sync::Arc;

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
}

/// One node of a committee protocol. The driver feeds the per-phase
/// inputs (leader, mode, neighbour snapshot) between barriers; within a
/// mini-phase the actor acts on messages alone.
struct CommitteeActor {
    uids: Arc<UidMap>,
    initial: Arc<Graph>,
    // Driver-fed inputs.
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
    // Decision artifacts the driver reads after barriers.
    selection: Option<(NodeId, NodeId, NodeId)>,
    climb: Option<NodeId>,
    pending_b: Option<(NodeId, NodeId)>,
    pending_deacts: Vec<NodeId>,
}

impl CommitteeActor {
    fn new(id: usize, uids: &Arc<UidMap>, initial: &Arc<Graph>) -> Self {
        CommitteeActor {
            uids: Arc::clone(uids),
            initial: Arc::clone(initial),
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

    /// The leader's selection over its reports: the shared selection fold
    /// of `CommitteeAdjacency::select_largest_uid_neighbor`, restricted
    /// to root committees when `star_rules`. Intra-committee reports name
    /// our own leader, whose UID is not strictly larger, so the fold
    /// skips them; the fold is order-independent, so the free scheduler's
    /// nondeterministic report arrival order cannot change the outcome.
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

impl AsyncProgram for CommitteeActor {
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
        }
    }
}

fn build_actors(n: usize, uids: &UidMap, initial: &Graph) -> Vec<CommitteeActor> {
    let uids = Arc::new(uids.clone());
    let initial = Arc::new(initial.clone());
    (0..n)
        .map(|i| CommitteeActor::new(i, &uids, &initial))
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
/// execution barrier (all guards were evaluated by the driver against
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
// GraphToStar driver
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StarStage {
    Begin,
    Gossip,
    Report,
    Decide,
    HopB,
    Deact,
    Done,
}

/// The deterministic between-barriers orchestrator of the star phases:
/// it steps the actors through the mini-phases of
/// `graph_to_star::State::run_phase` and applies the shared
/// [`StarCommittees`] rules to the leaders' decisions.
struct StarDriver<'a> {
    run: &'a RunConfig,
    committees: StarCommittees,
    stage: StarStage,
}

impl<'a> StarDriver<'a> {
    fn new(run: &'a RunConfig, n: usize) -> Self {
        StarDriver {
            run,
            committees: StarCommittees::new(n),
            stage: StarStage::Begin,
        }
    }

    /// Called by the scheduler before every mini-phase. Returns `false`
    /// when the protocol has quiesced.
    fn step(
        &mut self,
        network: &mut Network,
        actors: &mut [CommitteeActor],
    ) -> Result<bool, CoreError> {
        loop {
            match self.stage {
                StarStage::Begin => {
                    let committees = &mut self.committees;
                    let live = committees.forest.live_count();
                    if live <= 1 {
                        self.stage = StarStage::Done;
                        if committees.forest.tracked_nodes() <= 1 {
                            return Ok(false);
                        }
                        // The synchronous termination phase: deactivate
                        // every non-star edge.
                        committees.log.terminate(self.run, network)?;
                        let drops = committees.termination_drops(network.graph());
                        assign_ops(actors, &[], drops.iter().map(|e| (e.a, e.b)));
                        return Ok(true);
                    }
                    committees.log.begin(self.run, network, live)?;
                    let mode = &committees.mode;
                    prep_gossip(&committees.forest, network, actors, |cid| mode[cid.index()]);
                    self.stage = StarStage::Gossip;
                    return Ok(true);
                }
                StarStage::Gossip => {
                    set_mini(actors, Mini::Report);
                    self.stage = StarStage::Report;
                    return Ok(true);
                }
                StarStage::Report => {
                    set_mini(actors, Mini::StarDecide);
                    self.stage = StarStage::Decide;
                    return Ok(true);
                }
                StarStage::Decide => {
                    set_mini(actors, Mini::StarHopB);
                    self.stage = StarStage::HopB;
                    return Ok(true);
                }
                StarStage::HopB => {
                    set_mini(actors, Mini::Deact);
                    self.stage = StarStage::Deact;
                    return Ok(true);
                }
                StarStage::Deact => {
                    self.finish_phase(actors)?;
                    self.stage = StarStage::Begin;
                }
                StarStage::Done => return Ok(false),
            }
        }
    }

    /// Bookkeeping after the deactivation barrier: harvest the leaders'
    /// selections and climbs and apply the synchronous merge and
    /// mode-transition step.
    fn finish_phase(&mut self, actors: &[CommitteeActor]) -> Result<(), CoreError> {
        let committees = &mut self.committees;
        let selections: Vec<(CommitteeId, CommitteeId)> =
            harvest_selections(&committees.forest, actors, committees.log.algorithm)?
                .into_iter()
                .enumerate()
                .filter_map(|(slot, choice)| {
                    choice.map(|(target, _, _)| (CommitteeId(slot), target))
                })
                .collect();
        let merges = committees.merge_list()?;
        // Degraded (faulted) committees recorded no climb: stay put.
        let climbs: Vec<(CommitteeId, NodeId)> = committees
            .pulling()
            .map(|(cid, attach)| {
                let leader = committees.forest.leader(cid);
                (cid, actors[leader.index()].climb.unwrap_or(attach))
            })
            .collect();
        committees.finish_phase(&selections, &merges, &climbs)
    }
}

// ---------------------------------------------------------------------------
// Wreath driver
// ---------------------------------------------------------------------------

/// Which scheduler family drives the run (and its nested line-to-tree
/// rebuilds).
#[derive(Debug, Clone, Copy)]
enum NestedEngine {
    Seeded { seed: u64 },
    Free { threads: usize },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WreathStage {
    Begin,
    Gossip,
    Report,
    Decide,
    PlanLevel,
    LevelA,
    LevelB,
    LevelC,
    Cleanup,
    Done,
}

/// The between-barriers orchestrator of the wreath phases: it steps the
/// actors through the shared [`WreathState`] rules. Each splice level's
/// round A / round B+clean-up pair becomes three barriers (activations,
/// activations, deactivations), and the merged rings are rebuilt with the
/// nested runtime line-to-tree.
struct WreathDriver<'a> {
    run: &'a RunConfig,
    tree_arity: usize,
    initial: &'a Graph,
    nested: NestedEngine,
    knobs: AsyncKnobs,
    state: WreathState,
    stage: WreathStage,
    /// The splice level under way.
    level: SpliceLevel,
    /// Its round-B deactivations, planned on the post-round-A snapshot.
    level_drops: Vec<(NodeId, NodeId)>,
}

impl<'a> WreathDriver<'a> {
    fn new(
        run: &'a RunConfig,
        wreath: &WreathConfig,
        initial: &'a Graph,
        nested: NestedEngine,
        knobs: AsyncKnobs,
    ) -> Self {
        WreathDriver {
            run,
            tree_arity: wreath.tree_arity,
            initial,
            nested,
            knobs,
            state: WreathState::new(initial.node_count(), wreath.name),
            stage: WreathStage::Begin,
            level: SpliceLevel::default(),
            level_drops: Vec::new(),
        }
    }

    fn step(
        &mut self,
        network: &mut Network,
        actors: &mut [CommitteeActor],
    ) -> Result<bool, CoreError> {
        loop {
            match self.stage {
                WreathStage::Begin => {
                    let state = &mut self.state;
                    let live = state.forest.live_count();
                    if live <= 1 {
                        self.stage = WreathStage::Done;
                        if state.forest.tracked_nodes() <= 1 {
                            return Ok(false);
                        }
                        // The synchronous termination phase: keep only the
                        // final committee's tree edges.
                        state.log.terminate(self.run, network)?;
                        let drops = state.termination_drops(network.graph());
                        assign_ops(actors, &[], drops.iter().map(|e| (e.a, e.b)));
                        return Ok(true);
                    }
                    state.log.begin(self.run, network, live)?;
                    prep_gossip(&state.forest, network, actors, |_| Mode::Selection);
                    self.stage = WreathStage::Gossip;
                    return Ok(true);
                }
                WreathStage::Gossip => {
                    set_mini(actors, Mini::Report);
                    self.stage = WreathStage::Report;
                    return Ok(true);
                }
                WreathStage::Report => {
                    set_mini(actors, Mini::WreathDecide);
                    self.stage = WreathStage::Decide;
                    return Ok(true);
                }
                WreathStage::Decide => {
                    let state = &mut self.state;
                    let selected = harvest_selections(&state.forest, actors, state.log.algorithm)?;
                    // No committee found a larger neighbour this phase:
                    // retry (the phase was already counted, as in the
                    // synchronous idle-and-continue).
                    self.stage = if state.select(selected) {
                        WreathStage::PlanLevel
                    } else {
                        WreathStage::Begin
                    };
                }
                WreathStage::PlanLevel => {
                    if let Some(level) = self.state.plan_level()? {
                        assign_ops(actors, &level.round_a(network.graph()), []);
                        self.level = level;
                        self.stage = WreathStage::LevelA;
                        return Ok(true);
                    }
                    if self.state.merged_roots().next().is_none() {
                        self.stage = WreathStage::Begin;
                        continue;
                    }
                    self.state.materialize_rings()?;
                    let (drops, _) = self.state.cleanup(network.graph(), self.initial);
                    if drops.is_empty() {
                        self.rebuild_and_retire(network)?;
                        self.stage = WreathStage::Begin;
                        continue;
                    }
                    assign_ops(actors, &[], drops.iter().map(|e| (e.a, e.b)));
                    self.stage = WreathStage::Cleanup;
                    return Ok(true);
                }
                WreathStage::LevelA => {
                    // Post-round-A snapshot: the round-B activations and
                    // the deferred deactivations, under the synchronous
                    // round-B guards.
                    let graph = network.graph();
                    self.level_drops = self.level.round_b_drops(graph, self.initial);
                    assign_ops(actors, &self.level.round_b(graph), []);
                    self.stage = WreathStage::LevelB;
                    return Ok(true);
                }
                WreathStage::LevelB => {
                    assign_ops(actors, &[], mem::take(&mut self.level_drops));
                    self.stage = WreathStage::LevelC;
                    return Ok(true);
                }
                WreathStage::LevelC => {
                    self.stage = WreathStage::PlanLevel;
                }
                WreathStage::Cleanup => {
                    self.rebuild_and_retire(network)?;
                    self.stage = WreathStage::Begin;
                }
                WreathStage::Done => return Ok(false),
            }
        }
    }

    /// Rebuilds an `arity`-ary tree over every merged ring with the
    /// nested runtime line-to-tree (ring edges protected), one root after
    /// another, installs each, and retires the committees that merged
    /// away.
    fn rebuild_and_retire(&mut self, network: &mut Network) -> Result<(), CoreError> {
        let roots: Vec<CommitteeId> = self.state.merged_roots().collect();
        for root in roots {
            let line = self.state.merged_line(root);
            let config = LineToTreeConfig {
                arity: self.tree_arity,
                protected_edges: SortedEdgeSet::ring_edges(line),
            };
            let (tree, _report) = match self.nested {
                NestedEngine::Seeded { seed } => run_runtime_line_to_tree_seeded(
                    network,
                    line,
                    &config,
                    split_seed(seed, self.state.log.phases as u64, root.index() as u64),
                    self.knobs,
                )?,
                NestedEngine::Free { threads } => {
                    run_runtime_line_to_tree_free(network, line, &config, threads)?
                }
            };
            let mut parents = vec![0; line.len()];
            for (pos, parent) in parents.iter_mut().enumerate().skip(1) {
                let Some(p) = tree.parent(NodeId(pos)) else {
                    return Err(CoreError::BrokenInvariant {
                        algorithm: self.state.log.algorithm,
                        detail: format!("position {pos} has no parent in the rebuilt tree"),
                    });
                };
                *parent = p.index();
            }
            self.state.install_tree(root, &parents, tree.depth());
        }
        self.state.retire_merged();
        Ok(())
    }
}

/// Deterministic sub-seed derivation (SplitMix64 over the master seed,
/// the phase counter and the root slot), so every nested line-to-tree
/// rebuild replays byte-identically under the same master seed.
fn split_seed(base: u64, phase: u64, root: u64) -> u64 {
    let mut z =
        base ^ phase.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ root.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// The run's outcome, with the scheduler's report attached.
fn finish(
    network: &mut Network,
    forest: &CommitteeForest,
    log: PhaseLog,
    report: RuntimeReport,
) -> TransformationOutcome {
    let mut outcome = log.outcome(forest.first_leader(), network);
    outcome.runtime = Some(report);
    outcome
}

/// Runs GraphToStar on the asynchronous runtime, dispatching on
/// [`RunConfig::engine`] (`Seeded` or `Free`; `Synchronous` is an error —
/// the synchronous engine lives in `graph_to_star`).
///
/// # Errors
///
/// As the synchronous engine ([`CoreError::InvalidInput`] for bad inputs,
/// [`CoreError::DidNotConverge`] / [`CoreError::Sim`] /
/// [`CoreError::BrokenInvariant`] on bugs or armed faults).
pub fn run_runtime_star(
    network: &mut Network,
    uids: &UidMap,
    config: &RunConfig,
) -> Result<TransformationOutcome, CoreError> {
    match config.engine {
        EngineMode::Seeded { seed } => run_runtime_star_faulted(
            network,
            uids,
            config,
            seed,
            config.async_knobs(),
            &FaultPlan::default(),
        ),
        EngineMode::Free { threads } => {
            start_run(network, uids, "GraphToStar", config)?;
            let initial = network.graph().clone();
            let mut actors = build_actors(initial.node_count(), uids, &initial);
            let mut driver = StarDriver::new(config, initial.node_count());
            let report = FreeScheduler::new(threads).run_phased(
                network,
                &mut actors,
                |net, acts, _phase| driver.step(net, acts),
            )?;
            let StarCommittees { forest, log, .. } = driver.committees;
            Ok(finish(network, &forest, log, report))
        }
        EngineMode::Synchronous => Err(CoreError::InvalidInput {
            reason: "run_runtime_star requires an asynchronous engine mode".into(),
        }),
    }
}

/// Runs GraphToStar under the seeded scheduler with an explicit knob set
/// and an armed [`FaultPlan`]. The `(seed, knobs, plan)` triple replays
/// byte-identically.
///
/// # Errors
///
/// As [`run_runtime_star`]; with a non-empty plan, faults may surface as
/// clean [`CoreError`]s.
pub fn run_runtime_star_faulted(
    network: &mut Network,
    uids: &UidMap,
    config: &RunConfig,
    seed: u64,
    knobs: AsyncKnobs,
    faults: &FaultPlan,
) -> Result<TransformationOutcome, CoreError> {
    start_run(network, uids, "GraphToStar", config)?;
    let initial = network.graph().clone();
    let mut actors = build_actors(initial.node_count(), uids, &initial);
    let mut driver = StarDriver::new(config, initial.node_count());
    let report = SeededScheduler::new(seed)
        .with_knobs(knobs)
        .run_phased_with_faults(network, &mut actors, faults, |net, acts, _phase| {
            driver.step(net, acts)
        })?;
    let StarCommittees { forest, log, .. } = driver.committees;
    Ok(finish(network, &forest, log, report))
}

/// Runs the wreath family (GraphToWreath / GraphToThinWreath, by
/// `wreath.tree_arity`) on the asynchronous runtime, dispatching on
/// [`RunConfig::engine`].
///
/// # Errors
///
/// As [`run_runtime_star`].
pub fn run_runtime_wreath(
    network: &mut Network,
    uids: &UidMap,
    wreath: &WreathConfig,
    config: &RunConfig,
) -> Result<TransformationOutcome, CoreError> {
    match config.engine {
        EngineMode::Seeded { seed } => run_runtime_wreath_faulted(
            network,
            uids,
            wreath,
            config,
            seed,
            config.async_knobs(),
            &FaultPlan::default(),
        ),
        EngineMode::Free { threads } => {
            start_run(network, uids, wreath.name, config)?;
            let initial = network.graph().clone();
            let mut actors = build_actors(initial.node_count(), uids, &initial);
            let mut driver = WreathDriver::new(
                config,
                wreath,
                &initial,
                NestedEngine::Free { threads },
                AsyncKnobs::default(),
            );
            let report = FreeScheduler::new(threads).run_phased(
                network,
                &mut actors,
                |net, acts, _phase| driver.step(net, acts),
            )?;
            let WreathState { forest, log, .. } = driver.state;
            Ok(finish(network, &forest, log, report))
        }
        EngineMode::Synchronous => Err(CoreError::InvalidInput {
            reason: "run_runtime_wreath requires an asynchronous engine mode".into(),
        }),
    }
}

/// Runs the wreath family under the seeded scheduler with an explicit
/// knob set and an armed [`FaultPlan`]. The `(seed, knobs, plan)` triple
/// replays byte-identically (nested rebuild sub-seeds are split
/// deterministically from `seed`).
///
/// # Errors
///
/// As [`run_runtime_star_faulted`].
pub fn run_runtime_wreath_faulted(
    network: &mut Network,
    uids: &UidMap,
    wreath: &WreathConfig,
    config: &RunConfig,
    seed: u64,
    knobs: AsyncKnobs,
    faults: &FaultPlan,
) -> Result<TransformationOutcome, CoreError> {
    start_run(network, uids, wreath.name, config)?;
    let initial = network.graph().clone();
    let mut actors = build_actors(initial.node_count(), uids, &initial);
    let mut driver = WreathDriver::new(
        config,
        wreath,
        &initial,
        NestedEngine::Seeded { seed },
        knobs,
    );
    let report = SeededScheduler::new(seed)
        .with_knobs(knobs)
        .run_phased_with_faults(network, &mut actors, faults, |net, acts, _phase| {
            driver.step(net, acts)
        })?;
    let WreathState { forest, log, .. } = driver.state;
    Ok(finish(network, &forest, log, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::RunConfig;
    use adn_graph::properties::{is_star, is_tree, star_center};
    use adn_graph::{generators, UidAssignment};

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
            let outcome = run_runtime_star(
                &mut network,
                &uids,
                &RunConfig::default().with_engine(EngineMode::Seeded { seed }),
            )
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
    fn free_star_matches_sync() {
        let g = generators::random_connected(24, 0.15, 5);
        let uids = UidMap::new(24, UidAssignment::RandomPermutation { seed: 5 });
        let sync = sync_star(&g, &uids);
        let mut network = Network::new(g.clone());
        let outcome = run_runtime_star(
            &mut network,
            &uids,
            &RunConfig::default().with_engine(EngineMode::Free { threads: 4 }),
        )
        .expect("free star must succeed");
        assert_eq!(outcome.final_graph, sync.final_graph);
        assert_eq!(outcome.committees_per_phase, sync.committees_per_phase);
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
                &RunConfig::default().with_engine(EngineMode::Seeded { seed }),
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
    fn free_wreath_matches_sync() {
        let g = generators::ring(18);
        let uids = UidMap::new(18, UidAssignment::RandomPermutation { seed: 31 });
        let sync = sync_wreath(&g, &uids);
        let mut network = Network::new(g.clone());
        let outcome = run_runtime_wreath(
            &mut network,
            &uids,
            &WreathConfig::binary(),
            &RunConfig::default().with_engine(EngineMode::Free { threads: 3 }),
        )
        .expect("free wreath must succeed");
        assert_eq!(outcome.final_graph, sync.final_graph);
        assert_eq!(outcome.committees_per_phase, sync.committees_per_phase);
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
            let outcome = run_runtime_star_faulted(
                &mut network,
                &uids,
                &RunConfig::default().with_engine(EngineMode::Seeded { seed }),
                seed,
                knobs,
                &FaultPlan::default(),
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
            run_runtime_star(
                &mut network,
                &uids,
                &RunConfig::default().with_engine(EngineMode::Seeded { seed }),
            )
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
        for seed in 0..8u64 {
            let crash = NodeId((seed as usize * 5) % 14);
            let plan = FaultPlan::new().crash_at(20 + seed as usize * 7, crash);
            let mut network = Network::new(g.clone());
            let result = run_runtime_star_faulted(
                &mut network,
                &uids,
                &RunConfig::default().with_engine(EngineMode::Seeded { seed }),
                seed,
                AsyncKnobs::default(),
                &plan,
            );
            // Either the run completes (crash landed after the protocol
            // stopped needing the node) or it fails with a clean error —
            // never a panic, never a hang.
            if let Ok(outcome) = &result {
                assert!(outcome.runtime.is_some());
            }
        }
    }

    #[test]
    fn synchronous_mode_is_rejected() {
        let g = generators::line(4);
        let uids = UidMap::new(4, UidAssignment::Sequential);
        let mut network = Network::new(g.clone());
        assert!(matches!(
            run_runtime_star(&mut network, &uids, &RunConfig::default()),
            Err(CoreError::InvalidInput { .. })
        ));
        let mut network = Network::new(g);
        assert!(matches!(
            run_runtime_wreath(
                &mut network,
                &uids,
                &WreathConfig::binary(),
                &RunConfig::default()
            ),
            Err(CoreError::InvalidInput { .. })
        ));
    }

    #[test]
    fn single_node_is_trivial() {
        let uids = UidMap::new(1, UidAssignment::Sequential);
        let mut network = Network::new(Graph::new(1));
        let outcome = run_runtime_star(
            &mut network,
            &uids,
            &RunConfig::default().with_engine(EngineMode::Seeded { seed: 1 }),
        )
        .expect("single node must succeed");
        assert_eq!(outcome.leader, NodeId(0));
        assert_eq!(outcome.final_graph.edge_count(), 0);
        assert_eq!(outcome.phases, 0);
    }
}
