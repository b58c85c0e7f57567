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
//! 3. **Decide** — leaders reproduce the synchronous selection rule
//!    (largest-UID strictly-larger neighbouring committee, with the
//!    lexicographically smallest bridge) from the reports alone and stage
//!    the first wave of edge operations; merging leaders instruct their
//!    members by message.
//! 4. **Execution mini-phases** — the remaining edge-operation waves
//!    (the star's round-B hop and deferred deactivations, the wreath's
//!    per-level splice rounds), each planned by a deterministic driver
//!    between barriers and carried out by the owning actors.
//!
//! The driver is plain in-process orchestration state (the committee
//! forest, the mode column, the wreath's ring splicing): it runs *between*
//! barriers, never inside the asynchronous execution, and mirrors the
//! synchronous transition rules verbatim. Because every decision is made
//! either on a complete message set (after a barrier) or by a
//! commutative rule, the resulting committee structures — final graph,
//! phase count, committees per phase — **equal the synchronous engines'
//! on delay-free and adversarial schedules alike**, which the
//! differential tests in `tests/runtime_model.rs` pin for both schedulers.
//!
//! Inside a wreath phase the merged rings are rebuilt into trees with the
//! actor-based [`runtime_line_to_tree`](super::runtime_line_to_tree)
//! subroutine, nested under the same scheduler family (seeded sub-seeds
//! are split deterministically from the master seed, so seeded replay
//! stays byte-identical).
//!
//! **Armed faults:** the seeded entry points accept a
//! [`FaultPlan`]; crashes sever a node mid-run and the protocols then
//! either complete or fail with a clean [`CoreError`] (no panic, no
//! hang — the phase limit and the scheduler's step budget bound every
//! execution). A crash plan makes the run diverge from the synchronous
//! baseline by design; the fault plan is consulted only by the *outer*
//! scheduler, between deliveries of the committee protocol itself.

use crate::algorithm::{EngineMode, RunConfig};
use crate::committee::{CommitteeForest, CommitteeId, SelectionForest};
use crate::graph_to_wreath::WreathConfig;
use crate::subroutines::{
    run_runtime_line_to_tree_free, run_runtime_line_to_tree_seeded, LineToTreeConfig,
};
use crate::{CoreError, TransformationOutcome};
use adn_graph::edgeset::SortedEdgeSet;
use adn_graph::properties::ceil_log2;
use adn_graph::{Edge, Graph, NodeId, Uid, UidMap};
use adn_runtime::{
    AsyncKnobs, AsyncProgram, Context, FaultPlan, FreeScheduler, RuntimeReport, SeededScheduler,
};
use adn_sim::Network;
use std::mem;
use std::sync::Arc;

/// A committee mode as carried on the wire (the star engine's `Mode`,
/// made `Copy` for gossip payloads). The wreath engine gossips
/// `Selection` for everyone — its selection rule ignores modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WireMode {
    Selection,
    Merging(NodeId),
    Pulling(NodeId),
    Waiting,
}

/// One gossip observation: node `x` saw neighbour `y`, which reported
/// belonging to the committee led by `y_leader` currently in `y_mode`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BridgeInfo {
    x: NodeId,
    y: NodeId,
    y_leader: NodeId,
    y_mode: WireMode,
}

/// Messages of the committee protocols.
#[derive(Debug, Clone)]
enum CommitteeMsg {
    /// Gossip: "I belong to the committee led by `leader`, in `mode`."
    Bridge { leader: NodeId, mode: WireMode },
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
    mode: WireMode,
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
    pending_b: Option<(NodeId, Option<NodeId>)>,
    pending_deacts: Vec<NodeId>,
}

impl CommitteeActor {
    fn new(id: usize, uids: &Arc<UidMap>, initial: &Arc<Graph>) -> Self {
        CommitteeActor {
            uids: Arc::clone(uids),
            initial: Arc::clone(initial),
            mini: Mini::Idle,
            leader: NodeId(id),
            mode: WireMode::Selection,
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

    /// The synchronous selection rule, recomputed from reports: the
    /// largest-UID committee strictly above our own among the gossiped
    /// neighbours (filtered by the star's eligibility when `star_rules`),
    /// bridged by the lexicographically smallest `(x, y)` pair — exactly
    /// `CommitteeAdjacency::select_largest_uid_neighbor`. Every clause is
    /// order-independent, so the free scheduler's nondeterministic report
    /// arrival order cannot change the outcome.
    fn decide_selection(&self, me: NodeId, star_rules: bool) -> Option<(NodeId, NodeId, NodeId)> {
        let my_uid = self.uids.uid(me);
        let mut best: Option<(Uid, NodeId)> = None;
        for e in &self.reports {
            if e.y_leader == self.leader {
                continue; // intra-committee edge
            }
            if star_rules && matches!(e.y_mode, WireMode::Merging(_) | WireMode::Pulling(_)) {
                continue; // committed committees are not selectable targets
            }
            let uid = self.uids.uid(e.y_leader);
            if uid <= my_uid {
                continue;
            }
            if best.is_none_or(|(b, _)| uid > b) {
                best = Some((uid, e.y_leader));
            }
        }
        let (_, v) = best?;
        let (x, y) = self
            .reports
            .iter()
            .filter(|e| e.y_leader == v)
            .map(|e| (e.x, e.y))
            .min()?;
        Some((v, x, y))
    }

    /// The star leader's decision step (the synchronous round A, minus
    /// the deactivations, which wait for the dedicated `Deact` barrier so
    /// no activation witness disappears early).
    fn star_decide(&mut self, ctx: &mut Context<CommitteeMsg>) {
        let me = ctx.id();
        match self.mode {
            WireMode::Selection => {
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
                self.pending_b = Some((v, Some(y)));
            }
            WireMode::Merging(into) => {
                for i in 0..self.members.len() {
                    let m = self.members[i];
                    if m != me {
                        ctx.send(m, CommitteeMsg::MergeOp { into });
                    }
                }
            }
            WireMode::Pulling(attach) => {
                // Any gossip entry for the attach node carries the same
                // `(leader, mode)` payload, so the pick is value-unique.
                let Some(e) = self.reports.iter().find(|e| e.y == attach).copied() else {
                    return; // degraded (faults): stay attached
                };
                let target = if attach != e.y_leader {
                    e.y_leader
                } else {
                    match e.y_mode {
                        WireMode::Merging(into) => into,
                        WireMode::Pulling(up) => up,
                        _ => attach,
                    }
                };
                if target != attach {
                    ctx.activate(target);
                    if !self.initial.has_edge(me, attach) {
                        self.pending_deacts.push(attach);
                    }
                }
                self.climb = Some(target);
            }
            WireMode::Waiting => {}
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
                if let Some((v, helper)) = self.pending_b.take() {
                    ctx.activate(v);
                    if let Some(y) = helper {
                        if !self.initial.has_edge(ctx.id(), y) {
                            self.pending_deacts.push(y);
                        }
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

fn invariant(algorithm: &'static str, detail: String) -> CoreError {
    CoreError::BrokenInvariant { algorithm, detail }
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
fn prep_gossip<F: Fn(CommitteeId) -> WireMode>(
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

fn set_mini(actors: &mut [CommitteeActor], mini: Mini) {
    for a in actors.iter_mut() {
        a.mini = mini;
    }
}

/// Hands a pre-planned operation list to its owning actors and arms one
/// execution barrier (all guards were evaluated by the driver against
/// the snapshot the synchronous engine would have used).
fn assign_ops(
    actors: &mut [CommitteeActor],
    acts: &[(NodeId, NodeId)],
    deacts: &[(NodeId, NodeId)],
) {
    for a in actors.iter_mut() {
        a.assigned_acts.clear();
        a.assigned_deacts.clear();
        a.mini = Mini::Exec;
    }
    for &(a, b) in acts {
        if a.index() < actors.len() {
            actors[a.index()].assigned_acts.push(b);
        }
    }
    for &(a, b) in deacts {
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

/// The deterministic between-barriers orchestrator of the star phases.
/// Mirrors `graph_to_star::State::run_phase` clause for clause.
struct StarDriver<'a> {
    run: &'a RunConfig,
    n: usize,
    forest: CommitteeForest,
    mode: Vec<WireMode>,
    phases: usize,
    committees_per_phase: Vec<usize>,
    phase_limit: usize,
    stage: StarStage,
}

impl<'a> StarDriver<'a> {
    fn new(run: &'a RunConfig, n: usize) -> Self {
        StarDriver {
            run,
            n,
            forest: CommitteeForest::singletons(n),
            mode: vec![WireMode::Selection; n],
            phases: 0,
            committees_per_phase: Vec::new(),
            phase_limit: 40 * ceil_log2(n.max(2)) + 80,
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
                    if self.forest.live_count() <= 1 {
                        if self.n > 1 {
                            self.run.check_round_budget(network)?;
                            self.prep_termination(network, actors);
                            self.phases += 1;
                            self.committees_per_phase.push(1);
                            self.stage = StarStage::Done;
                            return Ok(true);
                        }
                        self.stage = StarStage::Done;
                        return Ok(false);
                    }
                    self.phases += 1;
                    self.run.check_round_budget(network)?;
                    if self.phases > self.phase_limit {
                        return Err(CoreError::DidNotConverge {
                            algorithm: "GraphToStar",
                            phase_limit: self.phase_limit,
                        });
                    }
                    self.committees_per_phase.push(self.forest.live_count());
                    let mode = &self.mode;
                    prep_gossip(&self.forest, network, actors, |cid| mode[cid.index()]);
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

    /// The synchronous termination phase: deactivate every non-star edge,
    /// each assigned to its first endpoint.
    fn prep_termination(&self, network: &Network, actors: &mut [CommitteeActor]) {
        let leader = self.forest.leader(self.forest.live_ids()[0]);
        let deacts: Vec<(NodeId, NodeId)> = network
            .graph()
            .edges()
            .filter(|e| e.a != leader && e.b != leader)
            .map(|e| (e.a, e.b))
            .collect();
        assign_ops(actors, &[], &deacts);
    }

    /// Bookkeeping after the deactivation barrier: harvest the leaders'
    /// decisions and replay the synchronous merge/transition rules.
    fn finish_phase(&mut self, actors: &[CommitteeActor]) -> Result<(), CoreError> {
        let slots = self.forest.slot_count();
        let mut selections: Vec<(CommitteeId, CommitteeId)> = Vec::new();
        let mut did_select = vec![false; slots];
        let mut selected_by = vec![false; slots];
        for &cid in self.forest.live_ids() {
            if self.mode[cid.index()] != WireMode::Selection {
                continue;
            }
            let leader = self.forest.leader(cid);
            if let Some((v, _x, _y)) = actors[leader.index()].selection {
                let target = self.forest.committee_of(v).ok_or_else(|| {
                    invariant("GraphToStar", format!("selection target {v} is untracked"))
                })?;
                did_select[cid.index()] = true;
                selected_by[target.index()] = true;
                selections.push((cid, target));
            }
        }

        let mut merges: Vec<(CommitteeId, CommitteeId)> = Vec::new();
        for &cid in self.forest.live_ids() {
            if let WireMode::Merging(into) = self.mode[cid.index()] {
                let into_cid = self.forest.committee_of(into).ok_or_else(|| {
                    invariant("GraphToStar", format!("merge target {into} is untracked"))
                })?;
                merges.push((cid, into_cid));
            }
        }

        let mut climbs: Vec<(CommitteeId, NodeId)> = Vec::new();
        for &cid in self.forest.live_ids() {
            if let WireMode::Pulling(attach) = self.mode[cid.index()] {
                let leader = self.forest.leader(cid);
                // Degraded (faulted) committees recorded no climb: stay put.
                climbs.push((cid, actors[leader.index()].climb.unwrap_or(attach)));
            }
        }

        self.forest.absorb_batch(&merges);

        for (cid, new_attach) in climbs {
            let attach_cid = self.forest.committee_of(new_attach).ok_or_else(|| {
                invariant(
                    "GraphToStar",
                    format!("attach node {new_attach} is untracked"),
                )
            })?;
            let attach_is_root_leader = new_attach == self.forest.leader(attach_cid)
                && matches!(
                    self.mode[attach_cid.index()],
                    WireMode::Waiting | WireMode::Selection
                );
            self.mode[cid.index()] = if attach_is_root_leader {
                WireMode::Merging(new_attach)
            } else {
                WireMode::Pulling(new_attach)
            };
        }

        for &(selector, target) in &selections {
            let target_leader = self.forest.leader(target);
            self.mode[selector.index()] = if did_select[target.index()] {
                WireMode::Pulling(target_leader)
            } else {
                WireMode::Merging(target_leader)
            };
        }

        let mut has_children = vec![false; slots];
        for &cid in self.forest.live_ids() {
            let parent = match self.mode[cid.index()] {
                WireMode::Merging(into) => Some(into),
                WireMode::Pulling(attach) => Some(attach),
                _ => None,
            };
            if let Some(p) = parent {
                let pc = self.forest.committee_of(p).ok_or_else(|| {
                    invariant("GraphToStar", format!("parent node {p} is untracked"))
                })?;
                has_children[pc.index()] = true;
            }
        }
        for &cid in self.forest.live_ids() {
            match self.mode[cid.index()] {
                WireMode::Merging(_) | WireMode::Pulling(_) => {}
                WireMode::Selection | WireMode::Waiting => {
                    self.mode[cid.index()] =
                        if selected_by[cid.index()] || has_children[cid.index()] {
                            WireMode::Waiting
                        } else {
                            WireMode::Selection
                        };
                }
            }
        }
        Ok(())
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

/// The between-barriers orchestrator of the wreath phases. Mirrors
/// `graph_to_wreath::run_phases` clause for clause: ring splicing is
/// planned level by level, each level's round A / round B+clean-up pair
/// becomes three barriers (activations, activations, deactivations), and
/// the merged rings are rebuilt with the nested runtime line-to-tree.
struct WreathDriver<'a> {
    run: &'a RunConfig,
    wreath: &'a WreathConfig,
    initial: &'a Graph,
    n: usize,
    nested: NestedEngine,
    knobs: AsyncKnobs,
    forest: CommitteeForest,
    tree_edges: Vec<Vec<Edge>>,
    tree_depth: Vec<usize>,
    ring_succ: Vec<NodeId>,
    ring_mark: Vec<(u64, CommitteeId)>,
    ring_len: Vec<usize>,
    merged_line: Vec<Vec<NodeId>>,
    epoch: u64,
    phases: usize,
    committees_per_phase: Vec<usize>,
    phase_limit: usize,
    stage: WreathStage,
    // Per-phase merge state.
    selected: Vec<Option<(CommitteeId, NodeId, NodeId)>>,
    sel: Option<SelectionForest>,
    frontier: Vec<CommitteeId>,
    stale_tree_edges: Vec<Edge>,
    merged_any: bool,
    // Per-level operation lists (synchronous round-B semantics).
    round_b: Vec<(NodeId, NodeId)>,
    helpers: Vec<(NodeId, NodeId)>,
    deactivate: Vec<(NodeId, NodeId)>,
    deacts_c: Vec<(NodeId, NodeId)>,
}

impl<'a> WreathDriver<'a> {
    fn new(
        run: &'a RunConfig,
        wreath: &'a WreathConfig,
        initial: &'a Graph,
        n: usize,
        nested: NestedEngine,
        knobs: AsyncKnobs,
    ) -> Self {
        WreathDriver {
            run,
            wreath,
            initial,
            n,
            nested,
            knobs,
            forest: CommitteeForest::singletons(n),
            tree_edges: vec![Vec::new(); n],
            tree_depth: vec![0; n],
            ring_succ: (0..n).map(NodeId).collect(),
            ring_mark: vec![(0, CommitteeId(0)); n],
            ring_len: vec![0; n],
            merged_line: vec![Vec::new(); n],
            epoch: 0,
            phases: 0,
            committees_per_phase: Vec::new(),
            phase_limit: 20 * ceil_log2(n.max(2)) + 40,
            stage: WreathStage::Begin,
            selected: Vec::new(),
            sel: None,
            frontier: Vec::new(),
            stale_tree_edges: Vec::new(),
            merged_any: false,
            round_b: Vec::new(),
            helpers: Vec::new(),
            deactivate: Vec::new(),
            deacts_c: Vec::new(),
        }
    }

    fn invariant(&self, detail: String) -> CoreError {
        invariant(self.wreath.name, detail)
    }

    fn step(
        &mut self,
        network: &mut Network,
        actors: &mut [CommitteeActor],
    ) -> Result<bool, CoreError> {
        loop {
            match self.stage {
                WreathStage::Begin => {
                    if self.forest.live_count() <= 1 {
                        if self.n > 1 {
                            self.run.check_round_budget(network)?;
                            self.prep_termination(network, actors);
                            self.phases += 1;
                            self.committees_per_phase.push(1);
                            self.stage = WreathStage::Done;
                            return Ok(true);
                        }
                        self.stage = WreathStage::Done;
                        return Ok(false);
                    }
                    self.phases += 1;
                    self.run.check_round_budget(network)?;
                    if self.phases > self.phase_limit {
                        return Err(CoreError::DidNotConverge {
                            algorithm: self.wreath.name,
                            phase_limit: self.phase_limit,
                        });
                    }
                    self.committees_per_phase.push(self.forest.live_count());
                    prep_gossip(&self.forest, network, actors, |_| WireMode::Selection);
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
                    if !self.harvest_selection(actors)? {
                        // No committee found a larger neighbour this phase;
                        // retry (the phase was already counted, mirroring
                        // the synchronous idle-and-continue).
                        self.stage = WreathStage::Begin;
                        continue;
                    }
                    self.stage = WreathStage::PlanLevel;
                }
                WreathStage::PlanLevel => {
                    let level = self.compute_level()?;
                    if level.is_empty() {
                        if !self.merged_any {
                            self.sel = None;
                            self.stage = WreathStage::Begin;
                            continue;
                        }
                        self.materialize_rings()?;
                        let cleanup = self.plan_cleanup(network)?;
                        if cleanup.is_empty() {
                            self.rebuild_and_retire(network)?;
                            self.stage = WreathStage::Begin;
                            continue;
                        }
                        assign_ops(actors, &[], &cleanup);
                        self.stage = WreathStage::Cleanup;
                        return Ok(true);
                    }
                    self.merged_any = true;
                    let acts_a = self.plan_splices(network, level)?;
                    assign_ops(actors, &acts_a, &[]);
                    self.stage = WreathStage::LevelA;
                    return Ok(true);
                }
                WreathStage::LevelA => {
                    // Post-round-A snapshot: plan the round-B activations
                    // and the deferred deactivations with the synchronous
                    // round-B guards.
                    let graph = network.graph();
                    let mut acts_b: Vec<(NodeId, NodeId)> = Vec::new();
                    for &(a, b) in &self.round_b {
                        if a != b && !graph.has_edge(a, b) {
                            acts_b.push((a, b));
                        }
                    }
                    self.deacts_c.clear();
                    for &(a, b) in &self.helpers {
                        if !self.initial.has_edge(a, b) && graph.has_edge(a, b) {
                            self.deacts_c.push((a, b));
                        }
                    }
                    for &(a, b) in &self.deactivate {
                        if !self.initial.has_edge(a, b) {
                            self.deacts_c.push((a, b));
                        }
                    }
                    assign_ops(actors, &acts_b, &[]);
                    self.stage = WreathStage::LevelB;
                    return Ok(true);
                }
                WreathStage::LevelB => {
                    let deacts = mem::take(&mut self.deacts_c);
                    assign_ops(actors, &[], &deacts);
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

    /// Harvests the leaders' selections; returns `false` when no
    /// committee selected. On success the selection forest and the ring
    /// splice state are initialised.
    fn harvest_selection(&mut self, actors: &[CommitteeActor]) -> Result<bool, CoreError> {
        let slots = self.forest.slot_count();
        self.selected = vec![None; slots];
        let mut sel_edges: Vec<(CommitteeId, CommitteeId)> = Vec::new();
        for &cid in self.forest.live_ids() {
            let leader = self.forest.leader(cid);
            if let Some((v, x, y)) = actors[leader.index()].selection {
                let target = self
                    .forest
                    .committee_of(v)
                    .ok_or_else(|| self.invariant(format!("selection target {v} is untracked")))?;
                self.selected[cid.index()] = Some((target, x, y));
                sel_edges.push((cid, target));
            }
        }
        if sel_edges.is_empty() {
            return Ok(false);
        }
        let sel = SelectionForest::new(&self.forest, &sel_edges);
        self.epoch += 1;
        for &r in sel.roots() {
            if !sel.has_children(r) {
                continue;
            }
            let members = self.forest.members(r);
            for w in members.windows(2) {
                self.ring_succ[w[0].index()] = w[1];
            }
            self.ring_succ[members[members.len() - 1].index()] = members[0];
            for &u in members {
                self.ring_mark[u.index()] = (self.epoch, r);
            }
            self.ring_len[r.index()] = members.len();
        }
        self.stale_tree_edges.clear();
        self.merged_any = false;
        self.frontier = sel.roots().to_vec();
        self.sel = Some(sel);
        Ok(true)
    }

    /// The next BFS level of the selection forest under the current
    /// frontier: `(root, child, bridge x, attach y)` tuples.
    fn compute_level(&self) -> Result<Vec<(CommitteeId, CommitteeId, NodeId, NodeId)>, CoreError> {
        let sel = self
            .sel
            .as_ref()
            .ok_or_else(|| self.invariant("level planning without a selection forest".into()))?;
        let mut level: Vec<(CommitteeId, CommitteeId, NodeId, NodeId)> = Vec::new();
        for &p in &self.frontier {
            for &c in sel.children(p) {
                let (_, x, y) = self.selected[c.index()].ok_or_else(|| {
                    self.invariant(format!(
                        "committee {c} has a parent but no recorded selection"
                    ))
                })?;
                level.push((sel.root_of(p), c, x, y));
            }
        }
        Ok(level)
    }

    /// Plans one splice level (the synchronous group chaining, verbatim):
    /// fills the round-B / helper / deactivate lists, advances the ring
    /// pointers, and returns the round-A activation list with its guard
    /// evaluated against the current (pre-level) snapshot.
    fn plan_splices(
        &mut self,
        network: &Network,
        level: Vec<(CommitteeId, CommitteeId, NodeId, NodeId)>,
    ) -> Result<Vec<(NodeId, NodeId)>, CoreError> {
        let mut grouped = level.clone();
        grouped.sort_by_key(|&(root, _, _, y)| (root, y));

        let mut round_a: Vec<(NodeId, NodeId)> = Vec::new();
        self.round_b.clear();
        self.helpers.clear();
        self.deactivate.clear();

        let mut g = 0usize;
        while g < grouped.len() {
            let (root, _, _, y) = grouped[g];
            let mut g_end = g + 1;
            while g_end < grouped.len() && grouped[g_end].0 == root && grouped[g_end].3 == y {
                g_end += 1;
            }
            let group = &grouped[g..g_end];
            g = g_end;
            if self.ring_mark[y.index()] != (self.epoch, root) {
                return Err(self.invariant(format!(
                    "attach node {y} is not on the merged ring of {root}"
                )));
            }
            let succ_after_y = self.ring_succ[y.index()];
            let len_before = self.ring_len[root.index()];
            let mut prev_end: NodeId = y;
            let mut segment_len = 0usize;
            for &(_, child, x, _) in group {
                let child_ring = self.forest.members(child);
                let x_pos = child_ring.iter().position(|&u| u == x).ok_or_else(|| {
                    self.invariant(format!(
                        "bridge node {x} is not on the ring of committee {child}"
                    ))
                })?;
                let m = child_ring.len();
                if prev_end == y {
                    // Bridge edge (y, x): already active (initial edge).
                } else {
                    self.helpers.push((prev_end, y));
                    self.round_b.push((prev_end, x));
                }
                if m >= 3 {
                    self.deactivate.push((x, child_ring[(x_pos + m - 1) % m]));
                }
                self.stale_tree_edges
                    .extend(self.tree_edges[child.index()].iter().copied());
                let mut cursor = prev_end;
                for k in 0..m {
                    let node = child_ring[(x_pos + k) % m];
                    self.ring_succ[cursor.index()] = node;
                    self.ring_mark[node.index()] = (self.epoch, root);
                    cursor = node;
                }
                prev_end = cursor;
                segment_len += m;
            }
            if len_before >= 2 {
                self.helpers.push((prev_end, y));
                self.round_b.push((prev_end, succ_after_y));
                self.deactivate.push((y, succ_after_y));
            } else {
                round_a.push((prev_end, y));
            }
            self.ring_succ[prev_end.index()] = succ_after_y;
            self.ring_len[root.index()] = len_before + segment_len;
        }

        self.frontier = level.iter().map(|&(_, c, _, _)| c).collect();

        let graph = network.graph();
        let mut acts_a: Vec<(NodeId, NodeId)> = Vec::new();
        for &(a, b) in round_a.iter().chain(self.helpers.iter()) {
            if a != b && !graph.has_edge(a, b) {
                acts_a.push((a, b));
            }
        }
        Ok(acts_a)
    }

    /// Walks the successor maps into per-root merged rings, rotated to
    /// start at each root's leader (the synchronous materialization).
    fn materialize_rings(&mut self) -> Result<(), CoreError> {
        let sel = self
            .sel
            .as_ref()
            .ok_or_else(|| self.invariant("materialize without a selection forest".into()))?;
        for &root in sel.roots() {
            if !sel.has_children(root) {
                continue;
            }
            let leader = self.forest.leader(root);
            if self.ring_mark[leader.index()] != (self.epoch, root) {
                return Err(invariant(
                    self.wreath.name,
                    format!("leader {leader} is not on the merged ring of {root}"),
                ));
            }
            let m = self.ring_len[root.index()];
            let line = &mut self.merged_line[root.index()];
            line.clear();
            let mut cur = leader;
            for _ in 0..m {
                line.push(cur);
                cur = self.ring_succ[cur.index()];
            }
            if cur != leader {
                return Err(invariant(
                    self.wreath.name,
                    format!("merged ring of {root} did not close at its leader"),
                ));
            }
        }
        Ok(())
    }

    /// The stale-tree-edge clean-up list (synchronous guards: not an
    /// initial edge, not on a surviving ring, still present).
    fn plan_cleanup(&mut self, network: &Network) -> Result<Vec<(NodeId, NodeId)>, CoreError> {
        let sel = self
            .sel
            .as_ref()
            .ok_or_else(|| self.invariant("cleanup without a selection forest".into()))?;
        for &root in sel.roots() {
            if sel.has_children(root) {
                self.stale_tree_edges
                    .extend(self.tree_edges[root.index()].iter().copied());
            }
        }
        let mut ring_edge_vec: Vec<Edge> = Vec::new();
        for &root in sel.roots() {
            let ring: &[NodeId] = if sel.has_children(root) {
                &self.merged_line[root.index()]
            } else {
                self.forest.members(root)
            };
            for w in ring.windows(2) {
                ring_edge_vec.push(Edge::new(w[0], w[1]));
            }
            if ring.len() >= 3 {
                ring_edge_vec.push(Edge::new(ring[ring.len() - 1], ring[0]));
            }
        }
        let ring_edges = SortedEdgeSet::from_vec(ring_edge_vec);
        let graph = network.graph();
        Ok(self
            .stale_tree_edges
            .iter()
            .filter(|e| {
                !self.initial.has_edge(e.a, e.b)
                    && !ring_edges.contains(e)
                    && graph.has_edge(e.a, e.b)
            })
            .map(|e| (e.a, e.b))
            .collect())
    }

    /// Rebuilds an `arity`-ary tree over every merged ring with the
    /// nested runtime line-to-tree (ring edges protected), re-homes the
    /// members and retires the committees that merged away.
    fn rebuild_and_retire(&mut self, network: &mut Network) -> Result<(), CoreError> {
        let sel = self
            .sel
            .take()
            .ok_or_else(|| self.invariant("rebuild without a selection forest".into()))?;
        for &root in sel.roots() {
            if !sel.has_children(root) {
                continue;
            }
            let line = mem::take(&mut self.merged_line[root.index()]);
            let m = line.len();
            let config = LineToTreeConfig {
                arity: self.wreath.tree_arity,
                protected_edges: SortedEdgeSet::ring_edges(&line),
            };
            let (tree, _report) = match self.nested {
                NestedEngine::Seeded { seed } => run_runtime_line_to_tree_seeded(
                    network,
                    &line,
                    &config,
                    split_seed(seed, self.phases as u64, root.index() as u64),
                    self.knobs,
                )?,
                NestedEngine::Free { threads } => {
                    run_runtime_line_to_tree_free(network, &line, &config, threads)?
                }
            };
            let mut edges: Vec<Edge> = Vec::with_capacity(m.saturating_sub(1));
            for pos in 1..m {
                let parent_pos = tree.parent(NodeId(pos)).ok_or_else(|| {
                    invariant(
                        self.wreath.name,
                        format!("position {pos} has no parent in the rebuilt tree"),
                    )
                })?;
                edges.push(Edge::new(line[pos], line[parent_pos.index()]));
            }
            self.tree_edges[root.index()] = edges;
            self.tree_depth[root.index()] = tree.depth();
            self.forest.replace_members(root, line);
        }
        let dead: Vec<CommitteeId> = self
            .forest
            .live_ids()
            .iter()
            .copied()
            .filter(|c| self.selected[c.index()].is_some())
            .collect();
        self.forest.retire_batch(&dead);
        for c in dead {
            self.tree_edges[c.index()].clear();
            self.tree_depth[c.index()] = 0;
        }
        Ok(())
    }

    /// The synchronous termination phase: keep only the final committee's
    /// tree edges.
    fn prep_termination(&self, network: &Network, actors: &mut [CommitteeActor]) {
        let final_committee = self.forest.live_ids()[0];
        let keep = SortedEdgeSet::from_vec(self.tree_edges[final_committee.index()].clone());
        let deacts: Vec<(NodeId, NodeId)> = network
            .graph()
            .edges()
            .filter(|e| !keep.contains(e))
            .map(|e| (e.a, e.b))
            .collect();
        assign_ops(actors, &[], &deacts);
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

fn validate(network: &Network, uids: &UidMap, name: &str) -> Result<(), CoreError> {
    let n = network.node_count();
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
    if !adn_graph::traversal::is_connected(network.graph()) {
        return Err(CoreError::InvalidInput {
            reason: format!("{name} requires a connected initial network"),
        });
    }
    Ok(())
}

fn finish(
    network: &mut Network,
    leader: NodeId,
    phases: usize,
    committees_per_phase: Vec<usize>,
    report: RuntimeReport,
) -> Result<TransformationOutcome, CoreError> {
    let mut outcome = TransformationOutcome::from_network(leader, network);
    outcome.phases = phases;
    outcome.committees_per_phase = committees_per_phase;
    outcome.runtime = Some(report);
    Ok(outcome)
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
            validate(network, uids, "GraphToStar")?;
            let initial = network.graph().clone();
            let n = initial.node_count();
            let mut actors = build_actors(n, uids, &initial);
            let mut driver = StarDriver::new(config, n);
            let report = FreeScheduler::new(threads).run_phased(
                network,
                &mut actors,
                |net, acts, _phase| driver.step(net, acts),
            )?;
            let leader = driver.forest.leader(driver.forest.live_ids()[0]);
            finish(
                network,
                leader,
                driver.phases,
                driver.committees_per_phase,
                report,
            )
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
    validate(network, uids, "GraphToStar")?;
    let initial = network.graph().clone();
    let n = initial.node_count();
    let mut actors = build_actors(n, uids, &initial);
    let mut driver = StarDriver::new(config, n);
    let report = SeededScheduler::new(seed)
        .with_knobs(knobs)
        .run_phased_with_faults(network, &mut actors, faults, |net, acts, _phase| {
            driver.step(net, acts)
        })?;
    let leader = driver.forest.leader(driver.forest.live_ids()[0]);
    finish(
        network,
        leader,
        driver.phases,
        driver.committees_per_phase,
        report,
    )
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
            validate(network, uids, wreath.name)?;
            let initial = network.graph().clone();
            let n = initial.node_count();
            let mut actors = build_actors(n, uids, &initial);
            let mut driver = WreathDriver::new(
                config,
                wreath,
                &initial,
                n,
                NestedEngine::Free { threads },
                AsyncKnobs::default(),
            );
            let report = FreeScheduler::new(threads).run_phased(
                network,
                &mut actors,
                |net, acts, _phase| driver.step(net, acts),
            )?;
            let leader = driver.forest.leader(driver.forest.live_ids()[0]);
            finish(
                network,
                leader,
                driver.phases,
                driver.committees_per_phase,
                report,
            )
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
    validate(network, uids, wreath.name)?;
    let initial = network.graph().clone();
    let n = initial.node_count();
    let mut actors = build_actors(n, uids, &initial);
    let mut driver = WreathDriver::new(
        config,
        wreath,
        &initial,
        n,
        NestedEngine::Seeded { seed },
        knobs,
    );
    let report = SeededScheduler::new(seed)
        .with_knobs(knobs)
        .run_phased_with_faults(network, &mut actors, faults, |net, acts, _phase| {
            driver.step(net, acts)
        })?;
    let leader = driver.forest.leader(driver.forest.live_ids()[0]);
    finish(
        network,
        leader,
        driver.phases,
        driver.committees_per_phase,
        report,
    )
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
