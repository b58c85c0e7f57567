//! The validated, metered temporal graph.
//!
//! The network's two observers — the DST invariant checks and raw event
//! recording — are taps on one [`RoundEvent`] bus (see [`crate::bus`]):
//! each applied mutation is emitted from exactly one place (the bus's
//! edge sink for edges, the join/crash/boundary points below for the
//! rest) and fanned out to whichever taps are armed. The
//! [`EdgeMetrics`] are always on and kept by the network itself.

use crate::bus::{BusTap, EdgeSink, EventBus};
use crate::dst::{DstReport, DstState};
use crate::{EdgeMetrics, RoundEvent, SimError};
use adn_graph::{Edge, Graph, NodeId};

/// Deterministic multiply-rotate hasher for the staged-set guards: an
/// [`Edge`] hashes as two `usize` writes, each folded in with a fixed odd
/// multiplier. The guards are only probed and inserted — never iterated —
/// so hash order cannot affect execution, and the fixed seed keeps the
/// structure independent of process state (std's default hasher seeds per
/// process and costs several times more per probe on these tiny keys).
#[derive(Default, Clone)]
struct EdgeKeyHasher(u64);

impl std::hash::Hasher for EdgeKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
        }
    }

    fn write_usize(&mut self, x: usize) {
        self.0 = (self.0.rotate_left(32) ^ x as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type StagedEdgeSet = std::collections::HashSet<Edge, std::hash::BuildHasherDefault<EdgeKeyHasher>>;

/// One activation of a batched jump wave, staged through
/// [`Network::stage_jump_wave`]: the `initiator` activates an edge to
/// `target`, and `witness` is a node the caller asserts is currently
/// adjacent to both — the engines' hot loops always know one (the old
/// parent in a TreeToStar jump, the bridge endpoint in a star merge).
/// The claim is *verified* with two adjacency probes, which replaces the
/// general common-neighbour merge scan of [`Network::stage_activation`]
/// with two binary searches; a stale witness falls back to the full scan
/// before the distance-2 rule rejects the activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaveActivation {
    /// The node performing the activation (metered as the initiator).
    pub initiator: NodeId,
    /// The other endpoint of the new edge.
    pub target: NodeId,
    /// A node believed adjacent to both endpoints in the current snapshot.
    pub witness: NodeId,
}

/// One pointer jump of a round committed by [`Network::commit_jumps`]:
/// `node` activates an edge to `to` over its neighbour `from`, the
/// distance-2 witness, and with `drop` deactivates its edge to `from`
/// (Proposition 2.2's jump from a parent to the grandparent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Jump {
    /// The node that moves (metered as the initiator).
    pub node: NodeId,
    /// The neighbour it leaves: the witness, and with `drop` the other
    /// endpoint of the dropped edge.
    pub from: NodeId,
    /// The node it activates an edge to.
    pub to: NodeId,
    /// Whether `{node, from}` is deactivated in the same round.
    pub drop: bool,
}

/// Verdict bit of [`Network::commit_jumps`]: the jump's activation is
/// staged (the edge is absent and the distance-2 rule holds).
const ACTIVATES: u8 = 1;
/// Verdict bit of [`Network::commit_jumps`]: the jump drops a present
/// edge.
const DROPS: u8 = 2;

/// Whether no two of `jumps` name the same edge, activated or dropped:
/// the condition under which applying them one by one gives
/// `(E ∪ E_ac) \ E_dac` with no conflict rule to run.
fn jumps_share_no_edge(jumps: &[Jump]) -> bool {
    let mut edges: Vec<(NodeId, NodeId)> = jumps
        .iter()
        .flat_map(|j| {
            let key = |x: NodeId| (j.node.min(x), j.node.max(x));
            std::iter::once(key(j.to)).chain(j.drop.then(|| key(j.from)))
        })
        .collect();
    edges.sort_unstable();
    edges.windows(2).all(|w| w[0] != w[1])
}

/// Summary of a committed round, returned by [`Network::commit_round`] and
/// [`Network::commit_jumps`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundSummary {
    /// The round that was just committed (1-based, matching the paper's
    /// `E(i)` indexing).
    pub round: usize,
    /// Number of edges activated in this round (`|E_ac(i)|`).
    pub activations: usize,
    /// Number of edges deactivated in this round (`|E_dac(i)|`).
    pub deactivations: usize,
    /// Number of active non-initial edges after the round.
    pub activated_edges_now: usize,
}

/// The actively dynamic network: the current snapshot `D(i)`, the initial
/// network `D(1)`, the staged operations of the round in progress, and the
/// accumulated [`EdgeMetrics`].
///
/// A round proceeds by staging any number of activations and deactivations
/// (validated against the snapshot at the *beginning* of the round, as the
/// model prescribes) and then calling [`Network::commit_round`], which
/// applies `E(i+1) = (E(i) ∪ E_ac(i)) \ E_dac(i)` and advances the round
/// counter. A round of pointer jumps is checked and committed in one call
/// by [`Network::commit_jumps`]. Rounds that involve only message passing
/// (no edge operations) can be charged with
/// [`Network::advance_idle_rounds`].
#[derive(Debug, Clone)]
pub struct Network {
    initial: Graph,
    current: Graph,
    round: usize,
    /// Columnar round staging: the staged activation edges in stage
    /// order, duplicate-free (set semantics via the hash guards below).
    /// Nothing sorts them: the batch edits at commit group them by node
    /// and report the applied edges in canonical order.
    staged_activations: Vec<Edge>,
    /// Successful activation stages per initiator this round (zero
    /// outside `staged_initiators`, whose nodes are listed once each).
    initiator_stages: Vec<usize>,
    staged_initiators: Vec<NodeId>,
    /// Staged deactivations, in stage order, duplicate-free.
    staged_deactivations: Vec<Edge>,
    /// Membership guards for the two staged columns (duplicate staging
    /// must stay an observable no-op). Only probed and inserted — never
    /// iterated — so hash order cannot leak into execution.
    staged_activation_set: StagedEdgeSet,
    staged_deactivation_set: StagedEdgeSet,
    /// Per-node count of active non-initial edges, maintained
    /// incrementally so `commit_round` does not have to rebuild the full
    /// activated-edge difference graph every round.
    activated_degree: Vec<usize>,
    /// Number of currently active non-initial edges (incremental mirror of
    /// the old per-round scan).
    activated_now: usize,
    /// Per-node crash marker, set by the DST crash-stop fault. Staged
    /// edges with a crashed endpoint are dropped at commit in one pass —
    /// a crashed node performs no further edge operations.
    crashed: Vec<bool>,
    /// True once any node has crashed; lets the fault-free fast path skip
    /// the per-commit crashed-endpoint scans entirely.
    any_crashed: bool,
    /// Per-commit scratch (touched / grown endpoints, added and removed
    /// edges, the jump verdicts of `commit_jumps`), reused so the hot
    /// commit paths allocate nothing.
    commit_touched: Vec<NodeId>,
    commit_grew: Vec<NodeId>,
    commit_added: Vec<Edge>,
    commit_removed: Vec<Edge>,
    jump_verdicts: Vec<u8>,
    /// The round-event bus: the one recorded stream both observers (DST
    /// replay, raw recorder) drain from their own taps. See
    /// [`crate::bus`].
    bus: EventBus,
    /// The paper's edge-complexity measures, accumulated since round 1.
    metrics: EdgeMetrics,
    /// Optional deterministic-simulation-testing state (adversary +
    /// invariant checker), ticked at every round boundary.
    dst: Option<Box<DstState>>,
}

impl Network {
    /// Creates a network whose initial snapshot `D(1)` is `initial`.
    pub fn new(initial: Graph) -> Self {
        let current = initial.clone();
        let metrics = EdgeMetrics {
            max_total_degree: current.max_degree(),
            max_active_edges_total: current.edge_count(),
            ..EdgeMetrics::default()
        };
        let n = current.node_count();
        Network {
            initial,
            current,
            round: 1,
            staged_activations: Vec::new(),
            initiator_stages: vec![0; n],
            staged_initiators: Vec::new(),
            staged_deactivations: Vec::new(),
            staged_activation_set: StagedEdgeSet::default(),
            staged_deactivation_set: StagedEdgeSet::default(),
            activated_degree: vec![0; n],
            activated_now: 0,
            crashed: vec![false; n],
            any_crashed: false,
            commit_touched: Vec::new(),
            commit_grew: Vec::new(),
            commit_added: Vec::new(),
            commit_removed: Vec::new(),
            jump_verdicts: Vec::new(),
            bus: EventBus::default(),
            metrics,
            dst: None,
        }
    }

    /// Enables or disables the raw event recorder (either transition
    /// clears the tap's pending view). While enabled,
    /// [`Network::take_events`] drains the application-ordered
    /// [`RoundEvent`] stream itself — mutations, crashes, joins, round
    /// boundaries and idle charges. Off by default.
    pub fn set_event_recording(&mut self, enabled: bool) {
        self.bus.arm(BusTap::Recorder, enabled);
    }

    /// Whether the raw event recorder is armed.
    pub fn event_recording(&self) -> bool {
        self.bus.is_armed(BusTap::Recorder)
    }

    /// Drains the recorded round-event stream, in application order.
    /// Empty unless [`Network::set_event_recording`] is on.
    pub fn take_events(&mut self) -> Vec<RoundEvent> {
        let mut events = Vec::new();
        self.bus.drain_into(BusTap::Recorder, &mut events);
        events
    }

    /// Installs a deterministic-simulation-testing state (seeded
    /// adversary + invariant checker). From now on the state is ticked at
    /// every round boundary: the adversary may inject faults and the
    /// invariants are evaluated on the resulting snapshot. Harvest the
    /// result with [`Network::take_dst_report`].
    pub fn install_dst(&mut self, mut state: DstState) {
        self.bus.arm(BusTap::Dst, true);
        state.attach(self);
        self.dst = Some(Box::new(state));
    }

    /// The installed DST state, if any.
    pub fn dst_state(&self) -> Option<&DstState> {
        self.dst.as_deref()
    }

    /// Removes the DST state and finalizes it into a report. Returns
    /// `None` when no state was installed (or it was already taken).
    pub fn take_dst_report(&mut self) -> Option<DstReport> {
        self.bus.arm(BusTap::Dst, false);
        self.dst.take().map(|s| s.into_report())
    }

    /// Drains the pending round events into `buffer` (the caller's
    /// reusable scratch, not cleared here), so the DST channel keeps one
    /// allocation for the whole run. Called once per tick by
    /// `DstState::on_round`.
    pub(crate) fn drain_dst_events(&mut self, buffer: &mut Vec<RoundEvent>) {
        self.bus.drain_into(BusTap::Dst, buffer);
    }

    fn tick_dst(&mut self) {
        if let Some(mut state) = self.dst.take() {
            state.on_round(self);
            self.dst = Some(state);
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.current.node_count()
    }

    /// The current round index `i` (1-based; the initial network is the
    /// snapshot at the beginning of round 1).
    pub fn round(&self) -> usize {
        self.round
    }

    /// The current snapshot `D(i)`.
    pub fn graph(&self) -> &Graph {
        &self.current
    }

    /// Returns true if `{u, v}` was an edge of the initial network.
    pub fn is_initial_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.initial.has_edge(u, v)
    }

    /// The accumulated edge-complexity metrics.
    pub fn metrics(&self) -> &EdgeMetrics {
        &self.metrics
    }

    /// Number of currently active edges that are not initial edges.
    pub fn activated_edge_count(&self) -> usize {
        self.activated_now
    }

    /// Number of active non-initial edges incident to `u` (the node's
    /// *activated degree*), maintained incrementally.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn activated_degree(&self, u: NodeId) -> usize {
        self.activated_degree[u.index()]
    }

    fn check_node(&self, u: NodeId) -> Result<(), SimError> {
        if u.index() >= self.node_count() {
            Err(SimError::NodeOutOfRange {
                node: u,
                n: self.node_count(),
            })
        } else {
            Ok(())
        }
    }

    /// Stages the activation of edge `{u, v}` by node `u` for the current
    /// round.
    ///
    /// Returns `Ok(true)` if the activation was staged, `Ok(false)` if the
    /// edge is already active (the model treats this as a no-op).
    ///
    /// # Errors
    ///
    /// * [`SimError::SelfLoop`] if `u == v`.
    /// * [`SimError::NodeOutOfRange`] if an endpoint is out of range.
    /// * [`SimError::NotPotentialNeighbors`] if `u` and `v` do not share a
    ///   common neighbour in the snapshot at the beginning of this round
    ///   (the distance-2 rule of Section 2.1).
    pub fn stage_activation(&mut self, u: NodeId, v: NodeId) -> Result<bool, SimError> {
        self.stage_witnessed(u, v, None)
    }

    /// Stages the activation of `{u, v}` by `u` with the checks and
    /// results of [`Network::stage_activation`]. A `witness` claimed to
    /// neighbour both endpoints settles the distance-2 rule with two
    /// adjacency probes; only a missing or stale one pays for the
    /// common-neighbour merge scan.
    fn stage_witnessed(
        &mut self,
        u: NodeId,
        v: NodeId,
        witness: Option<NodeId>,
    ) -> Result<bool, SimError> {
        self.check_node(u)?;
        self.check_node(v)?;
        if u == v {
            return Err(SimError::SelfLoop { node: u });
        }
        if self.current.has_edge(u, v) {
            return Ok(false);
        }
        self.distance_two(u, v, witness.filter(|&w| self.current.has_edge(u, w)))?;
        let e = Edge::new(u, v);
        if !self.staged_activation_set.insert(e) {
            return Ok(false);
        }
        self.staged_activations.push(e);
        let stages = &mut self.initiator_stages[u.index()];
        if *stages == 0 {
            self.staged_initiators.push(u);
        }
        *stages += 1;
        Ok(true)
    }

    /// The distance-2 rule of Section 2.1 for `u != v` not adjacent in the
    /// current snapshot: they must share a neighbour. `witness`, a node
    /// the caller has seen adjacent to `u`, settles it with one probe of
    /// `{witness, v}`; without one, or when that probe fails, the
    /// common-neighbour merge scan decides. Every activation entry point
    /// checks the rule here.
    fn distance_two(&self, u: NodeId, v: NodeId, witness: Option<NodeId>) -> Result<(), SimError> {
        if witness.is_some_and(|w| self.current.has_edge(w, v))
            || self.current.common_neighbor(u, v).is_some()
        {
            Ok(())
        } else {
            Err(SimError::NotPotentialNeighbors {
                u,
                v,
                round: self.round,
            })
        }
    }

    /// Stages the deactivation of edge `{u, v}` for the current round.
    ///
    /// Returns `Ok(true)` if the deactivation was staged, `Ok(false)` if
    /// the edge is not currently active (a no-op per the model).
    ///
    /// # Errors
    ///
    /// * [`SimError::SelfLoop`] if `u == v`.
    /// * [`SimError::NodeOutOfRange`] if an endpoint is out of range.
    pub fn stage_deactivation(&mut self, u: NodeId, v: NodeId) -> Result<bool, SimError> {
        self.check_node(u)?;
        self.check_node(v)?;
        if u == v {
            return Err(SimError::SelfLoop { node: u });
        }
        if !self.current.has_edge(u, v) {
            return Ok(false);
        }
        let e = Edge::new(u, v);
        if self.staged_deactivation_set.insert(e) {
            self.staged_deactivations.push(e);
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Stages a whole jump wave in one call: a column of witnessed
    /// activations, then a column of deactivations. Semantically identical
    /// to calling [`Network::stage_activation`] for every wave entry and
    /// then [`Network::stage_deactivation`] for every edge of
    /// `deactivations`, but each activation's distance-2 check is two
    /// adjacency probes against the supplied witness instead of a
    /// common-neighbour merge scan (with the full scan as fallback for a
    /// stale witness). Returns the number of operations newly staged;
    /// already-active / already-inactive edges and duplicate stages are
    /// no-ops, exactly as in the per-edge entry points.
    ///
    /// [`Network::commit_round`] applies a staged wave as two grouped
    /// batch merges, the right tool for waves that fan many edges into one
    /// node (star merges, TreeToStar, clique formation). A round of pure
    /// pointer jumps, one edge move per node, commits cheaper through
    /// [`Network::commit_jumps`].
    ///
    /// # Errors
    ///
    /// The same errors as the per-edge entry points, discovered in column
    /// order (activations first). On error, entries before the offending
    /// one remain staged — identical to the equivalent per-edge loop.
    pub fn stage_jump_wave(
        &mut self,
        activations: &[WaveActivation],
        deactivations: &[Edge],
    ) -> Result<usize, SimError> {
        let mut staged = 0usize;
        for w in activations {
            staged += usize::from(self.stage_witnessed(w.initiator, w.target, Some(w.witness))?);
        }
        for e in deactivations {
            staged += usize::from(self.stage_deactivation(e.a, e.b)?);
        }
        Ok(staged)
    }

    /// Number of operations currently staged (activations + deactivations).
    pub fn staged_operations(&self) -> usize {
        self.staged_activations.len() + self.staged_deactivations.len()
    }

    /// Commits one round of pointer jumps: for every [`Jump`], `node`
    /// activates `{node, to}` with `from` as the distance-2 witness, and
    /// with `drop` deactivates `{node, from}`. Checks, errors, summary,
    /// metrics, bus events and DST tick are exactly those of
    /// [`Network::stage_jump_wave`], given one [`WaveActivation`] per jump
    /// and the dropped edges as deactivations, followed by
    /// [`Network::commit_round`].
    ///
    /// Only the cost differs. Each jump probes its three distinct edges
    /// once and is applied in place by one [`Graph::jump`], with no staging
    /// guard, conflict probe or grouped batch merge. That fits the
    /// LineToTree lockstep, where each node moves one edge per round and
    /// blocks stay short; a wave that fans many edges into one node belongs
    /// to `commit_round`, since an in-place insertion costs the length of
    /// the block it lands in. The bus receives the applied activations in
    /// ascending canonical order, then the applied deactivations likewise,
    /// then the boundary; the two columns are sorted only while a tap is
    /// armed, since nothing else observes their order.
    ///
    /// # Errors
    ///
    /// The first error `stage_jump_wave` would report, in its order: every
    /// activation, then every drop. On error nothing is staged or applied
    /// and the round does not advance.
    ///
    /// # Panics
    ///
    /// Panics if operations are staged. No two jumps may name the same
    /// edge, activated or dropped, which tree pointer jumping never does
    /// (two nodes would have to be each other's parent or grandparent):
    /// debug builds check it, and a violation can make [`Graph::jump`]
    /// panic.
    pub fn commit_jumps(&mut self, jumps: &[Jump]) -> Result<RoundSummary, SimError> {
        assert_eq!(
            self.staged_operations(),
            0,
            "cannot commit jumps while edge operations are staged"
        );
        debug_assert!(jumps_share_no_edge(jumps), "two jumps share an edge");
        let mut verdicts = std::mem::take(&mut self.jump_verdicts);
        let checked = self.check_jumps(jumps, &mut verdicts);
        self.jump_verdicts = verdicts;
        checked?;

        self.commit_touched.clear();
        self.commit_grew.clear();
        self.commit_added.clear();
        self.commit_removed.clear();
        for (j, &verdict) in jumps.iter().zip(&self.jump_verdicts) {
            let (mut activates, mut drops) = (verdict & ACTIVATES != 0, verdict & DROPS != 0);
            if activates {
                let stages = &mut self.initiator_stages[j.node.index()];
                if *stages == 0 {
                    self.staged_initiators.push(j.node);
                }
                *stages += 1;
            }
            // A crashed endpoint drops the operation, as in `commit_round`.
            // `from` is range-checked only when the jump drops.
            if self.any_crashed {
                let crashed = &self.crashed;
                activates &= !crashed[j.node.index()] && !crashed[j.to.index()];
                drops = drops && !crashed[j.node.index()] && !crashed[j.from.index()];
            }
            if activates {
                self.current.jump(j.node, j.from, j.to, drops);
                self.commit_added.push(Edge::new(j.node, j.to));
            } else if drops {
                self.current
                    .remove_edge(j.node, j.from)
                    .expect("a checked drop removes a present edge");
            }
            if drops {
                self.commit_removed.push(Edge::new(j.node, j.from));
            }
        }
        if self.bus.any_armed() {
            self.commit_added.sort_unstable();
            self.commit_removed.sort_unstable();
        }
        let mut sink = EdgeSink {
            initial: &self.initial,
            activated_degree: &mut self.activated_degree,
            activated_now: &mut self.activated_now,
            bus: &mut self.bus,
        };
        for &e in &self.commit_added {
            self.commit_grew.extend([e.a, e.b]);
            if sink.edge(e, true) {
                self.commit_touched.extend([e.a, e.b]);
            }
        }
        for &e in &self.commit_removed {
            sink.edge(e, false);
        }
        Ok(self.finish_round(self.commit_added.len(), self.commit_removed.len()))
    }

    /// The checks of [`Network::commit_jumps`], in `stage_jump_wave`'s
    /// order, writing one verdict per jump (`ACTIVATES`, `DROPS`) into
    /// `verdicts`. Each jump probes `{node, to}`, then `{node, from}`,
    /// which both the witness and the drop read, then `{from, to}`.
    fn check_jumps(&self, jumps: &[Jump], verdicts: &mut Vec<u8>) -> Result<(), SimError> {
        verdicts.clear();
        for j in jumps {
            self.check_node(j.node)?;
            self.check_node(j.to)?;
            if j.node == j.to {
                return Err(SimError::SelfLoop { node: j.node });
            }
            let present = self.current.has_edge(j.node, j.to);
            let leaves = (j.drop || !present) && self.current.has_edge(j.node, j.from);
            let mut verdict = if j.drop && leaves { DROPS } else { 0 };
            if !present {
                self.distance_two(j.node, j.to, leaves.then_some(j.from))?;
                verdict |= ACTIVATES;
            }
            verdicts.push(verdict);
        }
        for j in jumps.iter().filter(|j| j.drop) {
            self.check_node(j.from)?;
            if j.from == j.node {
                return Err(SimError::SelfLoop { node: j.node });
            }
        }
        Ok(())
    }

    /// Commits the round in progress: applies
    /// `E(i+1) = (E(i) ∪ E_ac(i)) \ E_dac(i)`, updates the metrics, and
    /// advances the round counter.
    ///
    /// Per the paper's conflict rule, an edge staged for both activation
    /// and deactivation in the same round is left untouched ("their actions
    /// have no effect"); with the staging preconditions above this can only
    /// arise when a fault changes the snapshot between the two stages, and
    /// is resolved conservatively.
    ///
    /// The deactivations are applied before the activations, which gives
    /// the same snapshot once the conflict rule has run, and lets a node
    /// that swaps one edge for another reuse the freed slot of its
    /// adjacency block. The bus still receives the applied activations in
    /// ascending canonical order, then the applied deactivations likewise,
    /// whatever order they were staged or applied in. The commit sorts
    /// nothing: it costs O(k) for the round's `k` staged operations plus
    /// the two batch edits (linear in the batch and the touched nodes'
    /// degrees, see [`Graph::add_edges_batch`]).
    pub fn commit_round(&mut self) -> RoundSummary {
        // Conflict rule: the shorter column probes the other's staging
        // guard; only a hit pays for filtering both.
        let (activating, deactivating) =
            (&self.staged_activation_set, &self.staged_deactivation_set);
        let conflict = if self.staged_activations.len() <= self.staged_deactivations.len() {
            self.staged_activations
                .iter()
                .any(|e| deactivating.contains(e))
        } else {
            self.staged_deactivations
                .iter()
                .any(|e| activating.contains(e))
        };
        if conflict {
            self.staged_activations
                .retain(|e| !deactivating.contains(e));
            self.staged_deactivations
                .retain(|e| !activating.contains(e));
        }
        self.staged_activation_set.clear();
        self.staged_deactivation_set.clear();

        // Validate staged edges against crashed endpoints in one pass: a
        // node crash-stopped mid-round performs no further edge
        // operations, so its staged edges are dropped, not applied. The
        // scan is skipped entirely while no node has crashed.
        if self.any_crashed {
            let crashed = &self.crashed;
            self.staged_activations
                .retain(|e| !crashed[e.a.index()] && !crashed[e.b.index()]);
            self.staged_deactivations
                .retain(|e| !crashed[e.a.index()] && !crashed[e.b.index()]);
        }

        let activations = self.staged_activations.len();
        let deactivations = self.staged_deactivations.len();

        // Apply the staged columns as two batch merge passes over the
        // flat adjacency, updating the incremental activated-degree
        // counters from the per-edge callbacks.
        let mut touched = std::mem::take(&mut self.commit_touched);
        let mut grew = std::mem::take(&mut self.commit_grew);
        let mut removed = std::mem::take(&mut self.commit_removed);
        touched.clear();
        grew.clear();
        removed.clear();
        {
            // The single emission point: every applied mutation goes
            // through `sink.edge`, which records the bus event and keeps
            // the activation counters current.
            let mut sink = EdgeSink {
                initial: &self.initial,
                activated_degree: &mut self.activated_degree,
                activated_now: &mut self.activated_now,
                bus: &mut self.bus,
            };
            // Deactivations are applied first, so a node that loses an
            // edge and gains one (a jump) frees a slot of its block before
            // it fills one, and a tightly packed block is not relocated.
            // The conflict rule left the columns disjoint, so
            // `(E \ D) ∪ A = (E ∪ A) \ D`. The removed edges wait in
            // `removed` until the activations are on the bus.
            self.current
                .remove_edges_batch(&self.staged_deactivations, |e| removed.push(e));
            self.current.add_edges_batch(&self.staged_activations, |e| {
                grew.push(e.a);
                grew.push(e.b);
                if sink.edge(e, true) {
                    touched.push(e.a);
                    touched.push(e.b);
                }
            });
            for &e in &removed {
                sink.edge(e, false);
            }
        }
        self.staged_activations.clear();
        self.staged_deactivations.clear();
        self.commit_touched = touched;
        self.commit_grew = grew;
        self.commit_removed = removed;
        self.finish_round(activations, deactivations)
    }

    /// The tail both commits share, once the round's edits are applied and
    /// on the bus: the metrics, the `RoundCommitted` boundary and the DST
    /// tick. `commit_touched` holds the endpoints of the applied non-initial
    /// activations and `commit_grew` those of every applied activation.
    /// Maxima are sampled only now, after every edit of the round, so a
    /// node activated and deactivated in the same round is credited with
    /// its end-of-round degree, exactly like the old whole-graph scan.
    fn finish_round(&mut self, activations: usize, deactivations: usize) -> RoundSummary {
        for &u in &self.commit_touched {
            self.metrics.max_activated_degree = self
                .metrics
                .max_activated_degree
                .max(self.activated_degree[u.index()]);
        }

        // Metrics bookkeeping. The per-initiator counters count every
        // successful stage (including edges later dropped by the conflict
        // rule, matching the old per-stage map); reading them resets them.
        // Initiators that crash-stopped this round are excluded — a
        // crashed node performs no edge operations, consistent with its
        // staged edges being dropped.
        self.metrics.rounds += 1;
        self.metrics.total_activations += activations;
        self.metrics.total_deactivations += deactivations;
        self.metrics.max_activations_in_round =
            self.metrics.max_activations_in_round.max(activations);
        let mut max_per_node = 0usize;
        for u in self.staged_initiators.drain(..) {
            let stages = std::mem::take(&mut self.initiator_stages[u.index()]);
            if !self.crashed[u.index()] {
                max_per_node = max_per_node.max(stages);
            }
        }
        self.metrics.max_node_activations_in_round =
            self.metrics.max_node_activations_in_round.max(max_per_node);

        let activated_now = self.activated_now;
        self.metrics.max_activated_edges = self.metrics.max_activated_edges.max(activated_now);
        self.metrics.max_active_edges_total = self
            .metrics
            .max_active_edges_total
            .max(self.current.edge_count());
        // The total-degree maximum is sampled at commit instants. Only
        // endpoints that gained an edge this round can raise it.
        for &u in &self.commit_grew {
            self.metrics.max_total_degree =
                self.metrics.max_total_degree.max(self.current.degree(u));
        }
        let summary = RoundSummary {
            round: self.round,
            activations,
            deactivations,
            activated_edges_now: activated_now,
        };
        // The round boundary closes this round's event run: its edge
        // events precede it, the DST tick's fault events follow it.
        self.bus.record(RoundEvent::RoundCommitted {
            round: summary.round,
            activations,
            deactivations,
        });
        self.round += 1;
        self.tick_dst();
        summary
    }

    /// Charges `k` rounds in which only message passing happens (no edge
    /// operations). Used by the committee-level algorithms to account for
    /// intra-committee communication, whose duration the paper bounds by
    /// the committee diameter.
    ///
    /// # Panics
    ///
    /// Panics if edge operations are currently staged; idle rounds must not
    /// swallow pending operations.
    pub fn advance_idle_rounds(&mut self, k: usize) {
        assert_eq!(
            self.staged_operations(),
            0,
            "cannot charge idle rounds while edge operations are staged"
        );
        for _ in 0..k {
            self.charge_idle_rounds(1);
            self.tick_dst();
        }
    }

    /// Charges `k` rounds with zero activations: time passes and each
    /// round adds one [`RoundEvent::IdleRound`] to the bus.
    fn charge_idle_rounds(&mut self, k: usize) {
        self.round += k;
        self.metrics.rounds += k;
        for _ in 0..k {
            self.bus.record(RoundEvent::IdleRound);
        }
    }

    // ---- fault-injection entry points (crate-private, used by `dst`) ----
    //
    // Adversarial operations bypass the distance-2 validation (the
    // environment is more powerful than the nodes) and are *not* metered:
    // the edge-complexity measures account for the algorithm's work, not
    // the adversary's. The incremental activated-degree counters are kept
    // consistent so invariant checks and `activated_edge_count` stay
    // correct under faults.

    /// Crash-stops `node`: severs all of its incident edges in one merge
    /// pass (not one tree lookup per edge) and marks the node crashed, so
    /// any operations it staged in the round in progress are dropped at
    /// commit. Returns the number of severed edges, or
    /// [`SimError::BrokenInvariant`] when the adjacency arena is corrupted
    /// (sever validates symmetry up front and mutates nothing on error).
    pub(crate) fn fault_crash_node(&mut self, node: NodeId) -> Result<usize, SimError> {
        let mut sink = EdgeSink {
            initial: &self.initial,
            activated_degree: &mut self.activated_degree,
            activated_now: &mut self.activated_now,
            bus: &mut self.bus,
        };
        let severed = self.current.remove_incident_edges(node, |e| {
            sink.edge(e, false);
        })?;
        self.crashed[node.index()] = true;
        self.any_crashed = true;
        // Ordering contract: the severed-edge removals above precede the
        // crash marker.
        self.bus.record(RoundEvent::NodeCrashed(node));
        Ok(severed)
    }

    /// Per-node crash markers (indexed by node id), maintained by
    /// [`Network::fault_crash_node`]. Shared with the DST invariant checks
    /// so they can test membership without a set lookup per edge.
    pub(crate) fn crashed_mask(&self) -> &[bool] {
        &self.crashed
    }

    /// Whether `node` has been crash-stopped (out-of-range nodes report
    /// `false`).
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.crashed.get(node.index()).copied().unwrap_or(false)
    }

    /// Removes an edge adversarially. Returns true if it was present.
    pub(crate) fn fault_remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        let removed = self.current.remove_edge(u, v).unwrap_or(false);
        if removed {
            let mut sink = EdgeSink {
                initial: &self.initial,
                activated_degree: &mut self.activated_degree,
                activated_now: &mut self.activated_now,
                bus: &mut self.bus,
            };
            sink.edge(Edge::new(u, v), false);
        }
        removed
    }

    /// Inserts an edge adversarially. Returns true if it was absent.
    pub(crate) fn fault_insert_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        let added = self.current.add_edge(u, v).unwrap_or(false);
        if added {
            let mut sink = EdgeSink {
                initial: &self.initial,
                activated_degree: &mut self.activated_degree,
                activated_now: &mut self.activated_now,
                bus: &mut self.bus,
            };
            sink.edge(Edge::new(u, v), true);
            // The commit-time degree sampling only looks at endpoints of
            // staged activations; adversarial growth is accounted here.
            self.metrics.max_total_degree = self
                .metrics
                .max_total_degree
                .max(self.current.degree(u))
                .max(self.current.degree(v));
        }
        added
    }

    /// Appends a fresh, isolated node (churn). The initial network keeps
    /// its original vertex set; every edge of the new node counts as
    /// activated.
    pub(crate) fn fault_add_node(&mut self) -> NodeId {
        let node = self.current.add_node();
        self.activated_degree.push(0);
        self.initiator_stages.push(0);
        self.crashed.push(false);
        // Ordering contract: the join precedes any attach edge insertion.
        self.bus.record(RoundEvent::NodeJoined(node));
        node
    }

    /// Skews time forward by `k` rounds (message-delay perturbation):
    /// rounds pass, nothing happens, the metered round count grows.
    pub(crate) fn fault_skew(&mut self, k: usize) {
        self.charge_idle_rounds(k);
    }

    /// Returns true if the current snapshot is connected.
    pub fn is_connected(&self) -> bool {
        adn_graph::traversal::is_connected(&self.current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adn_graph::generators;

    fn nid(i: usize) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn activation_requires_distance_two() {
        let mut net = Network::new(generators::line(4));
        // 0 and 2 share neighbour 1: allowed.
        assert!(net.stage_activation(nid(0), nid(2)).unwrap());
        // 0 and 3 are at distance 3: rejected.
        assert!(matches!(
            net.stage_activation(nid(0), nid(3)),
            Err(SimError::NotPotentialNeighbors { .. })
        ));
        // Re-staging the same activation is idempotent.
        assert!(!net.stage_activation(nid(0), nid(2)).unwrap());
        let summary = net.commit_round();
        assert_eq!(summary.activations, 1);
        assert!(net.graph().has_edge(nid(0), nid(2)));
        assert!(net.is_initial_edge(nid(0), nid(1)));
        assert!(!net.is_initial_edge(nid(0), nid(2)));
        assert!(net.is_connected());
        // Next round 0-3 are now at distance 2 (via 2).
        assert!(net.stage_activation(nid(0), nid(3)).unwrap());
        net.commit_round();
        assert!(net.graph().has_edge(nid(0), nid(3)));
        assert_eq!(net.metrics().total_activations, 2);
        assert_eq!(net.round(), 3);
    }

    #[test]
    fn activating_active_edge_is_noop() {
        let mut net = Network::new(generators::line(3));
        assert!(!net.stage_activation(nid(0), nid(1)).unwrap());
        let s = net.commit_round();
        assert_eq!(s.activations, 0);
        assert_eq!(net.metrics().total_activations, 0);
    }

    #[test]
    fn deactivation_requires_active_edge() {
        let mut net = Network::new(generators::line(3));
        assert!(net.stage_deactivation(nid(0), nid(1)).unwrap());
        assert!(
            !net.stage_deactivation(nid(0), nid(2)).unwrap(),
            "inactive edge is a no-op"
        );
        let s = net.commit_round();
        assert_eq!(s.deactivations, 1);
        assert!(!net.graph().has_edge(nid(0), nid(1)));
        assert_eq!(net.metrics().total_deactivations, 1);
    }

    #[test]
    fn self_loops_and_out_of_range_are_rejected() {
        let mut net = Network::new(generators::line(3));
        assert!(matches!(
            net.stage_activation(nid(1), nid(1)),
            Err(SimError::SelfLoop { .. })
        ));
        assert!(matches!(
            net.stage_activation(nid(0), nid(9)),
            Err(SimError::NodeOutOfRange { .. })
        ));
        assert!(matches!(
            net.stage_deactivation(nid(9), nid(0)),
            Err(SimError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn conflicting_activation_and_deactivation_cancel() {
        // Staging validates against E(i), so an edge reaches both columns
        // only when a fault changes the snapshot between the two stages:
        // stage the activation of {0, 2}, let a fault insert it, then stage
        // its deactivation. The commit must leave it alone.
        let mut net = Network::new(generators::line(3));
        assert!(net.stage_activation(nid(0), nid(2)).unwrap());
        assert!(net.fault_insert_edge(nid(0), nid(2)));
        let activated = net.activated_edge_count();
        net.set_event_recording(true);
        assert!(net.stage_deactivation(nid(0), nid(2)).unwrap());
        let s = net.commit_round();
        assert_eq!((s.activations, s.deactivations), (0, 0));
        assert!(net.graph().has_edge(nid(0), nid(2)));
        assert_eq!(net.activated_edge_count(), activated);
        assert_eq!(
            net.take_events(),
            vec![RoundEvent::RoundCommitted {
                round: 1,
                activations: 0,
                deactivations: 0,
            }],
            "no commit edge event for the cancelled pair"
        );
        assert_eq!(net.metrics().total_activations, 0);
        assert_eq!(net.metrics().total_deactivations, 0);
    }

    #[test]
    fn metrics_track_activated_edges_and_degree() {
        // Star with centre 0 on 5 nodes: leaves are pairwise at distance 2.
        let mut net = Network::new(generators::star(5));
        net.stage_activation(nid(1), nid(2)).unwrap();
        net.stage_activation(nid(1), nid(3)).unwrap();
        net.stage_activation(nid(1), nid(4)).unwrap();
        let s = net.commit_round();
        assert_eq!(s.activations, 3);
        assert_eq!(net.metrics().max_activated_edges, 3);
        // Node 1 now has 3 activated edges.
        assert_eq!(net.metrics().max_activated_degree, 3);
        // Total degree of node 1 is 4 (3 activated + 1 initial).
        assert_eq!(net.metrics().max_total_degree, 4);
        assert_eq!(net.metrics().max_node_activations_in_round, 3);
        // Deactivate one; maxima must not decrease.
        net.stage_deactivation(nid(1), nid(2)).unwrap();
        net.commit_round();
        assert_eq!(net.metrics().max_activated_edges, 3);
        assert_eq!(net.activated_edge_count(), 2);
    }

    #[test]
    fn idle_rounds_advance_time_only() {
        let mut net = Network::new(generators::line(4));
        net.set_event_recording(true);
        net.advance_idle_rounds(5);
        assert_eq!(net.round(), 6);
        assert_eq!(net.metrics().rounds, 5);
        assert_eq!(net.metrics().total_activations, 0);
        assert_eq!(net.take_events(), vec![RoundEvent::IdleRound; 5]);
    }

    #[test]
    fn idle_rounds_contribute_zero_activations() {
        // Pin the documented accounting: idle communication rounds and
        // adversarially skewed rounds are one `IdleRound` event each, with
        // no edge operations, and every elapsed round is metered.
        let mut net = Network::new(generators::line(4));
        net.set_event_recording(true);
        net.stage_activation(nid(0), nid(2)).unwrap();
        net.commit_round();
        net.advance_idle_rounds(2);
        net.fault_skew(1);
        net.stage_activation(nid(1), nid(3)).unwrap();
        net.commit_round();
        let per_round: Vec<usize> = net
            .take_events()
            .into_iter()
            .filter_map(|e| match e {
                RoundEvent::RoundCommitted { activations, .. } => Some(activations),
                RoundEvent::IdleRound => Some(0),
                _ => None,
            })
            .collect();
        assert_eq!(per_round, [1, 0, 0, 0, 1]);
        let m = net.metrics();
        assert_eq!(m.rounds, 5);
        assert_eq!(m.total_activations, 2);
        assert_eq!(m.max_activations_in_round, 1);
    }

    #[test]
    fn event_recorder_streams_mutations_and_boundaries_in_order() {
        let mut net = Network::new(generators::line(5));
        net.stage_activation(nid(0), nid(2)).unwrap();
        net.commit_round();
        assert!(
            net.take_events().is_empty(),
            "recorder off by default: nothing recorded"
        );
        net.set_event_recording(true);
        assert!(net.event_recording());
        net.stage_activation(nid(2), nid(4)).unwrap();
        net.stage_deactivation(nid(1), nid(2)).unwrap();
        net.commit_round();
        // Faults after a commit land behind its boundary, in order.
        assert!(net.fault_insert_edge(nid(1), nid(2)));
        assert!(net.fault_remove_edge(nid(1), nid(2)));
        net.advance_idle_rounds(1);
        let joined = net.fault_add_node();
        net.fault_remove_edge(nid(0), nid(1));
        net.fault_crash_node(nid(4)).unwrap();
        let events = net.take_events();
        assert_eq!(
            events,
            vec![
                RoundEvent::Edge {
                    edge: Edge::new(nid(2), nid(4)),
                    added: true,
                    initial: false,
                },
                RoundEvent::Edge {
                    edge: Edge::new(nid(1), nid(2)),
                    added: false,
                    initial: true,
                },
                RoundEvent::RoundCommitted {
                    round: 2,
                    activations: 1,
                    deactivations: 1,
                },
                RoundEvent::Edge {
                    edge: Edge::new(nid(1), nid(2)),
                    added: true,
                    initial: true,
                },
                RoundEvent::Edge {
                    edge: Edge::new(nid(1), nid(2)),
                    added: false,
                    initial: true,
                },
                RoundEvent::IdleRound,
                RoundEvent::NodeJoined(joined),
                RoundEvent::Edge {
                    edge: Edge::new(nid(0), nid(1)),
                    added: false,
                    initial: true,
                },
                RoundEvent::Edge {
                    edge: Edge::new(nid(2), nid(4)),
                    added: false,
                    initial: false,
                },
                RoundEvent::Edge {
                    edge: Edge::new(nid(3), nid(4)),
                    added: false,
                    initial: true,
                },
                RoundEvent::NodeCrashed(nid(4)),
            ],
            "application order: committed adds, committed removes, the boundary, \
             faults; crash removals before the crash marker"
        );
        assert!(net.take_events().is_empty(), "drain empties the tap");
        net.set_event_recording(false);
        assert!(!net.event_recording());
    }

    #[test]
    fn event_recorder_streams_a_jump_wave_adds_first() {
        // A line-to-tree wave on line(6), staged in descending order: 5
        // hops 4 → 3, 4 hops 3 → 2 and 2 hops 1 → 0, each dropping the
        // edge to the parent it leaves, so node 2 both loses {1, 2} and
        // gains {0, 2} and {2, 4}. The commit applies the removals first,
        // yet the bus lists the activations ascending, then the
        // deactivations ascending, then the boundary.
        let mut net = Network::new(generators::line(6));
        net.set_event_recording(true);
        let jumps = [(5, 4, 3), (4, 3, 2), (2, 1, 0)];
        let acts: Vec<WaveActivation> = jumps
            .iter()
            .map(|&(u, w, v)| WaveActivation {
                initiator: nid(u),
                target: nid(v),
                witness: nid(w),
            })
            .collect();
        let drops: Vec<Edge> = jumps
            .iter()
            .map(|&(u, w, _)| Edge::new(nid(u), nid(w)))
            .collect();
        assert_eq!(net.stage_jump_wave(&acts, &drops).unwrap(), 6);
        net.commit_round();
        let edge = |a: usize, b: usize, added: bool| RoundEvent::Edge {
            edge: Edge::new(nid(a), nid(b)),
            added,
            initial: !added,
        };
        assert_eq!(
            net.take_events(),
            vec![
                edge(0, 2, true),
                edge(2, 4, true),
                edge(3, 5, true),
                edge(1, 2, false),
                edge(3, 4, false),
                edge(4, 5, false),
                RoundEvent::RoundCommitted {
                    round: 1,
                    activations: 3,
                    deactivations: 3,
                },
            ]
        );
        // The same metrics as when the commit applied the additions
        // first.
        assert_eq!(
            net.metrics(),
            &EdgeMetrics {
                rounds: 1,
                total_activations: 3,
                total_deactivations: 3,
                max_activations_in_round: 3,
                max_activated_edges: 3,
                max_active_edges_total: 5,
                max_activated_degree: 2,
                max_total_degree: 3,
                max_node_activations_in_round: 1,
            }
        );
        let expected = [(0, 1), (0, 2), (2, 3), (2, 4), (3, 5)];
        assert!(net
            .graph()
            .edges()
            .eq(expected.iter().map(|&(a, b)| Edge::new(nid(a), nid(b)))));

        // The same round committed in place, in the same descending order,
        // reaches the bus in the same order.
        let mut jumped = Network::new(generators::line(6));
        jumped.set_event_recording(true);
        let round: Vec<Jump> = jumps
            .iter()
            .map(|&(u, w, v)| Jump {
                node: nid(u),
                from: nid(w),
                to: nid(v),
                drop: true,
            })
            .collect();
        let summary = jumped.commit_jumps(&round).unwrap();
        assert_eq!((summary.activations, summary.deactivations), (3, 3));
        assert_eq!(jumped.graph(), net.graph());
        assert_eq!(jumped.metrics(), net.metrics());
        let mut replayed = Network::new(generators::line(6));
        replayed.set_event_recording(true);
        replayed.stage_jump_wave(&acts, &drops).unwrap();
        replayed.commit_round();
        assert_eq!(jumped.take_events(), replayed.take_events());
    }

    #[test]
    fn commit_jumps_drops_crashed_endpoints_as_commit_round_does() {
        // Node 3 of line(8) crash-stops, then the adversary reconnects it
        // to 2 and 4, so jumps that touch it pass their checks. Its
        // operations are dropped side by side: node 4's activation
        // applies while its drop of {3, 4} does not, and node 3's own two
        // activations count for no initiator. Node 0 keeps its edges and
        // names a witness outside the network, which the scan replaces.
        let crashed = || {
            let mut net = Network::new(generators::line(8));
            net.fault_crash_node(nid(3)).unwrap();
            assert!(net.fault_insert_edge(nid(2), nid(3)));
            assert!(net.fault_insert_edge(nid(3), nid(4)));
            net.set_event_recording(true);
            net
        };
        let jump = |node, from, to, drop| Jump {
            node: nid(node),
            from: nid(from),
            to: nid(to),
            drop,
        };
        let round = [
            jump(4, 3, 2, true),
            jump(3, 2, 1, true),
            jump(3, 4, 5, false),
            jump(6, 5, 4, true),
            jump(7, 6, 5, true),
            jump(0, 99, 2, false),
        ];
        let mut net = crashed();
        let summary = net.commit_jumps(&round).unwrap();
        assert_eq!((summary.activations, summary.deactivations), (4, 2));
        assert_eq!(net.metrics().max_node_activations_in_round, 1);

        let mut twin = crashed();
        let acts: Vec<WaveActivation> = round
            .iter()
            .map(|j| WaveActivation {
                initiator: j.node,
                target: j.to,
                witness: j.from,
            })
            .collect();
        let drops: Vec<Edge> = round
            .iter()
            .filter(|j| j.drop)
            .map(|j| Edge::new(j.node, j.from))
            .collect();
        twin.stage_jump_wave(&acts, &drops).unwrap();
        assert_eq!(twin.commit_round(), summary);
        assert_eq!(twin.graph(), net.graph());
        assert_eq!(twin.metrics(), net.metrics());
        assert_eq!(twin.take_events(), net.take_events());
        for u in 0..8 {
            assert_eq!(twin.activated_degree(nid(u)), net.activated_degree(nid(u)));
        }
    }

    #[test]
    fn a_failed_jump_round_applies_nothing() {
        // The second activation has no common neighbour: the error names
        // it, although the first jump (and every drop) would pass, and the
        // network is left exactly as it was.
        let mut net = Network::new(generators::line(6));
        net.set_event_recording(true);
        let before = net.graph().clone();
        let round = [
            Jump {
                node: nid(2),
                from: nid(1),
                to: nid(0),
                drop: true,
            },
            Jump {
                node: nid(5),
                from: nid(4),
                to: nid(2),
                drop: true,
            },
        ];
        assert_eq!(
            net.commit_jumps(&round),
            Err(SimError::NotPotentialNeighbors {
                u: nid(5),
                v: nid(2),
                round: 1,
            })
        );
        assert_eq!(net.graph(), &before);
        assert_eq!((net.round(), net.staged_operations()), (1, 0));
        assert_eq!(
            net.metrics(),
            &EdgeMetrics {
                max_total_degree: 2,
                max_active_edges_total: 5,
                ..EdgeMetrics::default()
            }
        );
        assert!(net.take_events().is_empty());
        // Errors come in staging order, every activation before any drop:
        // the unwitnessed activation outranks two earlier drops whose
        // `from` lies outside the network, and without it the first of
        // those drops is reported.
        let beyond = |node, from, to| Jump {
            node: nid(node),
            from: nid(from),
            to: nid(to),
            drop: true,
        };
        let drops_beyond = [beyond(1, 99, 0), beyond(2, 98, 1)];
        let ordered = [drops_beyond[0], drops_beyond[1], round[1]];
        assert!(matches!(
            net.commit_jumps(&ordered),
            Err(SimError::NotPotentialNeighbors { .. })
        ));
        assert_eq!(
            net.commit_jumps(&drops_beyond),
            Err(SimError::NodeOutOfRange {
                node: nid(99),
                n: 6
            })
        );
        // A later round starts clean.
        assert_eq!(net.commit_jumps(&round[..1]).unwrap().activations, 1);
    }

    #[test]
    #[should_panic(expected = "idle rounds")]
    fn idle_rounds_refuse_staged_operations() {
        let mut net = Network::new(generators::line(4));
        net.stage_activation(nid(0), nid(2)).unwrap();
        net.advance_idle_rounds(1);
    }

    #[test]
    fn staged_edges_to_a_node_crashed_in_the_same_round_are_dropped() {
        // Regression: an edge staged *before* the endpoint crash-stops in
        // the same round must be dropped at commit, not applied to the
        // snapshot or counted as an activation.
        let mut net = Network::new(generators::line(5));
        assert!(net.stage_activation(nid(0), nid(2)).unwrap());
        assert!(net.stage_activation(nid(2), nid(4)).unwrap());
        assert!(net.stage_deactivation(nid(2), nid(3)).unwrap());
        let severed = net.fault_crash_node(nid(2));
        assert_eq!(severed, Ok(2), "both line edges of node 2 are severed");
        let s = net.commit_round();
        assert_eq!(s.activations, 0, "crashed-endpoint activations dropped");
        assert_eq!(s.deactivations, 0, "crashed-endpoint deactivations dropped");
        assert!(!net.graph().has_edge(nid(0), nid(2)));
        assert!(!net.graph().has_edge(nid(2), nid(4)));
        assert_eq!(net.metrics().total_activations, 0);
        assert_eq!(net.activated_edge_count(), 0);
        assert_eq!(net.activated_degree(nid(2)), 0);
        // Stages between live nodes in the same round still commit.
        let mut net2 = Network::new(generators::line(5));
        net2.stage_activation(nid(0), nid(2)).unwrap();
        net2.stage_activation(nid(2), nid(4)).unwrap();
        net2.fault_crash_node(nid(4)).unwrap();
        let s2 = net2.commit_round();
        assert_eq!(s2.activations, 1, "only the edge touching node 4 drops");
        assert!(net2.graph().has_edge(nid(0), nid(2)));
        assert!(!net2.graph().has_edge(nid(2), nid(4)));
    }

    #[test]
    fn crash_severs_incident_edges_and_updates_counters() {
        let mut net = Network::new(generators::star(5));
        net.stage_activation(nid(1), nid(2)).unwrap();
        net.stage_activation(nid(3), nid(4)).unwrap();
        net.commit_round();
        assert_eq!(net.activated_edge_count(), 2);
        // Crash the centre: all 4 initial star edges go; activated edges
        // between leaves survive, activated counters are untouched.
        let severed = net.fault_crash_node(nid(0));
        assert_eq!(severed, Ok(4));
        assert_eq!(net.graph().degree(nid(0)), 0);
        assert_eq!(net.activated_edge_count(), 2);
        // Crash a leaf with an activated edge: counters come back down.
        let severed = net.fault_crash_node(nid(1));
        assert_eq!(severed, Ok(1));
        assert_eq!(net.activated_edge_count(), 1);
        assert_eq!(net.activated_degree(nid(2)), 0);
        assert_eq!(net.activated_degree(nid(3)), 1);
    }

    #[test]
    fn jump_wave_matches_per_edge_staging() {
        // Star with centre 0: every leaf pair is at distance 2 via 0.
        let mut wave_net = Network::new(generators::star(8));
        let mut edge_net = Network::new(generators::star(8));
        let acts: Vec<WaveActivation> = (1..7)
            .map(|i| WaveActivation {
                initiator: nid(i),
                target: nid(i + 1),
                witness: nid(0),
            })
            .collect();
        let deacts = vec![Edge::new(nid(0), nid(3)), Edge::new(nid(0), nid(5))];
        let staged = wave_net.stage_jump_wave(&acts, &deacts).unwrap();
        assert_eq!(staged, acts.len() + deacts.len());
        for w in &acts {
            edge_net.stage_activation(w.initiator, w.target).unwrap();
        }
        for e in &deacts {
            edge_net.stage_deactivation(e.a, e.b).unwrap();
        }
        assert_eq!(wave_net.commit_round(), edge_net.commit_round());
        assert_eq!(wave_net.graph(), edge_net.graph());
        assert_eq!(wave_net.metrics(), edge_net.metrics());
    }

    #[test]
    fn jump_wave_tolerates_stale_witness_and_rejects_non_potential() {
        let mut net = Network::new(generators::line(5));
        // Stale witness (not adjacent to both) but a real common
        // neighbour exists: the fallback scan accepts the activation.
        let staged = net
            .stage_jump_wave(
                &[WaveActivation {
                    initiator: nid(0),
                    target: nid(2),
                    witness: nid(4),
                }],
                &[],
            )
            .unwrap();
        assert_eq!(staged, 1);
        // Distance 3 with a bogus witness: rejected like the per-edge path.
        assert!(matches!(
            net.stage_jump_wave(
                &[WaveActivation {
                    initiator: nid(1),
                    target: nid(4),
                    witness: nid(0),
                }],
                &[],
            ),
            Err(SimError::NotPotentialNeighbors { .. })
        ));
        // Already-active edges and duplicate stages are counted as no-ops.
        let staged = net
            .stage_jump_wave(
                &[
                    WaveActivation {
                        initiator: nid(0),
                        target: nid(1),
                        witness: nid(2),
                    },
                    WaveActivation {
                        initiator: nid(0),
                        target: nid(2),
                        witness: nid(1),
                    },
                ],
                &[],
            )
            .unwrap();
        assert_eq!(staged, 0);
    }
}
