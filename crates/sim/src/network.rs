//! The validated, metered temporal graph.
//!
//! Every observable of the network — engine changed-nodes, DST topology
//! replay, raw event recording, metrics and the per-round trace — hangs
//! off one [`RoundEvent`] bus (see [`crate::bus`]): each applied mutation
//! is emitted from exactly one place (the bus's edge sink for edges, the
//! join/crash/boundary points below for the rest) and fanned out to
//! whichever consumers are armed.

use crate::bus::{BusTap, EdgeSink, EventBus, RoundLedger};
use crate::dst::{DstReport, DstState};
use crate::{EdgeMetrics, RoundEvent, RoundStats, SimError};
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
/// parent in a line-to-tree jump, the bridge endpoint in a star merge).
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

/// Summary of a committed round, returned by [`Network::commit_round`].
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
/// counter. Rounds that involve only message passing (no edge operations)
/// can be charged with [`Network::advance_idle_rounds`].
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
    /// Per-commit scratch (touched / grown endpoints), reused so the hot
    /// commit path allocates nothing.
    commit_touched: Vec<NodeId>,
    commit_grew: Vec<NodeId>,
    /// The round-event bus: the one recorded stream every buffered
    /// observer (engine changed-nodes, DST replay, raw recorder) drains
    /// from its own tap. See [`crate::bus`].
    bus: EventBus,
    /// The always-on inline subscriber: accumulated [`EdgeMetrics`],
    /// per-round [`RoundStats`] trace, and the degree histogram behind
    /// the traced `max_degree`.
    ledger: RoundLedger,
    /// Optional deterministic-simulation-testing state (adversary +
    /// invariant checker), ticked at every round boundary.
    dst: Option<Box<DstState>>,
}

impl Network {
    /// Creates a network whose initial snapshot `D(1)` is `initial`.
    pub fn new(initial: Graph) -> Self {
        let current = initial.clone();
        let mut ledger = RoundLedger::default();
        ledger.metrics.max_total_degree = current.max_degree();
        ledger.metrics.max_active_edges_total = current.edge_count();
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
            bus: EventBus::default(),
            ledger,
            dst: None,
        }
    }

    /// Enables or disables the change-tracking hook (either transition
    /// clears the tap's pending view). While enabled,
    /// [`Network::take_changed_nodes`] reports every node whose incident
    /// edge set changed — through committed rounds or adversarial faults
    /// — since the last drain.
    ///
    /// The hook is **single-consumer**: it is one tap of the round-event
    /// bus with one cursor and one drain. [`crate::engine::run_programs`]
    /// arms it for the duration of a run and disarms it on every exit
    /// path, so any tracking an outer caller had enabled on the same
    /// network is reset.
    pub fn set_change_tracking(&mut self, enabled: bool) {
        self.bus.arm(BusTap::Engine, enabled);
    }

    /// Drains the recorded change set: the nodes whose incident edges
    /// changed since the last drain, sorted ascending and duplicate-free.
    /// Empty unless [`Network::set_change_tracking`] is on.
    pub fn take_changed_nodes(&mut self) -> Vec<NodeId> {
        let mut changed = Vec::new();
        self.bus.drain(BusTap::Engine, |event| {
            if let RoundEvent::Edge { edge, .. } = *event {
                changed.push(edge.a);
                changed.push(edge.b);
            }
        });
        changed.sort_unstable();
        changed.dedup();
        changed
    }

    /// Enables or disables the raw event recorder (either transition
    /// clears the tap's pending view). While enabled,
    /// [`Network::take_events`] drains the application-ordered
    /// [`RoundEvent`] stream itself — mutations, crashes, joins, round
    /// boundaries and idle charges — the ground truth the per-consumer
    /// drains above are projections of. Off by default.
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

    /// Enables or disables the per-round [`RoundStats`] trace. While
    /// enabled, every committed round appends one entry (idle rounds are
    /// not traced — they perform no edge operations by definition).
    /// Enabling also builds the degree histogram (one O(n) pass) that
    /// serves the traced `max_degree` in O(1) amortized per mutation;
    /// disabling drops it.
    pub fn set_trace_enabled(&mut self, enabled: bool) {
        self.ledger.trace_enabled = enabled;
        self.sync_degree_tracker();
    }

    /// Returns true if per-round tracing is enabled.
    pub fn trace_enabled(&self) -> bool {
        self.ledger.trace_enabled
    }

    /// Forces traced rounds back onto the O(n) from-scratch
    /// `Graph::max_degree` scan instead of the incremental degree
    /// histogram. Benchmark comparison knob (the histogram is dropped so
    /// the from-scratch path pays no mirror maintenance), mirroring
    /// `DstState::set_from_scratch_checks`; the values are identical
    /// either way, which debug builds assert on every traced commit.
    pub fn set_trace_from_scratch(&mut self, enabled: bool) {
        self.ledger.trace_from_scratch = enabled;
        self.sync_degree_tracker();
    }

    /// Keeps the degree histogram alive exactly while the traced
    /// `max_degree` is served incrementally.
    fn sync_degree_tracker(&mut self) {
        let want = self.ledger.trace_enabled && !self.ledger.trace_from_scratch;
        if want && !self.ledger.degrees.enabled() {
            self.ledger.degrees.rebuild(&self.current);
        } else if !want && self.ledger.degrees.enabled() {
            self.ledger.degrees.disable();
        }
    }

    /// Records the number of algorithm-specific groups (e.g. committees)
    /// currently alive; the value is stamped into every subsequently traced
    /// round until updated. Algorithms without a group structure leave it
    /// at the default 0.
    pub fn note_groups_alive(&mut self, groups: usize) {
        self.ledger.groups_alive = groups;
    }

    /// The per-round trace captured so far (empty unless tracing was
    /// enabled via [`Network::set_trace_enabled`]).
    pub fn trace(&self) -> &[RoundStats] {
        &self.ledger.trace
    }

    /// Takes ownership of the captured trace, leaving an empty one behind.
    pub fn take_trace(&mut self) -> Vec<RoundStats> {
        std::mem::take(&mut self.ledger.trace)
    }

    /// Caps the recorded per-round activation history (see
    /// [`EdgeMetrics::round_history_limit`]): long service/bench runs
    /// keep totals, means and maxima exact while the per-round vector
    /// stops growing past `limit` entries, with the overflow counted in
    /// [`EdgeMetrics::round_records_dropped`]. `None` removes the cap.
    pub fn set_round_history_limit(&mut self, limit: Option<usize>) {
        self.ledger.metrics.set_round_history_limit(limit);
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

    /// The initial network `D(1) = G_s`.
    pub fn initial_graph(&self) -> &Graph {
        &self.initial
    }

    /// Returns true if `{u, v}` was an edge of the initial network.
    pub fn is_initial_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.initial.has_edge(u, v)
    }

    /// The accumulated edge-complexity metrics.
    pub fn metrics(&self) -> &EdgeMetrics {
        &self.ledger.metrics
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
        self.check_node(u)?;
        self.check_node(v)?;
        if u == v {
            return Err(SimError::SelfLoop { node: u });
        }
        if self.current.has_edge(u, v) {
            return Ok(false);
        }
        // Distance-2 rule: `u != v` and non-adjacency are already
        // established, so the common-neighbour probe alone decides it.
        if self.current.common_neighbor(u, v).is_none() {
            return Err(SimError::NotPotentialNeighbors {
                u,
                v,
                round: self.round,
            });
        }
        Ok(self.push_activation(Edge::new(u, v), u))
    }

    /// Stages the validated activation `e` by `initiator` unless it is
    /// already staged. Returns whether it was newly staged.
    fn push_activation(&mut self, e: Edge, initiator: NodeId) -> bool {
        if !self.staged_activation_set.insert(e) {
            return false;
        }
        self.staged_activations.push(e);
        let stages = &mut self.initiator_stages[initiator.index()];
        if *stages == 0 {
            self.staged_initiators.push(initiator);
        }
        *stages += 1;
        true
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
    /// activations and a column of deactivations, validated and staged in
    /// a single pass. Semantically identical to calling
    /// [`Network::stage_activation`] for every wave entry and then
    /// [`Network::stage_deactivation`] for every edge of
    /// `deactivations`, but each activation's distance-2 check is two
    /// adjacency probes against the supplied witness instead of a
    /// common-neighbour merge scan (with the full scan as fallback for a
    /// stale witness). Returns the number of operations newly staged;
    /// already-active / already-inactive edges and duplicate stages are
    /// no-ops, exactly as in the per-edge entry points.
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
            let (u, v) = (w.initiator, w.target);
            self.check_node(u)?;
            self.check_node(v)?;
            if u == v {
                return Err(SimError::SelfLoop { node: u });
            }
            if self.current.has_edge(u, v) {
                continue;
            }
            // Distance-2 rule, witness-first: two binary probes confirm
            // the claimed common neighbour; only a stale witness pays for
            // the general merge scan before rejecting.
            let witnessed = w.witness != u
                && w.witness != v
                && self.current.has_edge(u, w.witness)
                && self.current.has_edge(w.witness, v);
            if !witnessed && self.current.common_neighbor(u, v).is_none() {
                return Err(SimError::NotPotentialNeighbors {
                    u,
                    v,
                    round: self.round,
                });
            }
            if self.push_activation(Edge::new(u, v), u) {
                staged += 1;
            }
        }
        for &e in deactivations {
            self.check_node(e.a)?;
            self.check_node(e.b)?;
            if e.a == e.b {
                return Err(SimError::SelfLoop { node: e.a });
            }
            if !self.current.has_edge(e.a, e.b) {
                continue;
            }
            let canonical = Edge::new(e.a, e.b);
            if self.staged_deactivation_set.insert(canonical) {
                self.staged_deactivations.push(canonical);
                staged += 1;
            }
        }
        Ok(staged)
    }

    /// Number of operations currently staged (activations + deactivations).
    pub fn staged_operations(&self) -> usize {
        self.staged_activations.len() + self.staged_deactivations.len()
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
    /// The bus receives the applied activations in ascending canonical
    /// order, then the applied deactivations likewise, whatever order they
    /// were staged in. The commit sorts nothing: it costs O(k) for the
    /// round's `k` staged operations plus the two batch edits (linear in
    /// the batch and the touched nodes' degrees, see
    /// [`Graph::add_edges_batch`]).
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
        // counters from the per-edge callbacks. Maxima are taken only
        // after both batches are applied, so a node activated and
        // deactivated in the same round is credited with its end-of-round
        // degree, exactly like the old whole-graph scan.
        let mut touched = std::mem::take(&mut self.commit_touched);
        let mut grew = std::mem::take(&mut self.commit_grew);
        touched.clear();
        grew.clear();
        {
            // The single emission point: every applied mutation goes
            // through `sink.edge`, which records the bus event and keeps
            // the activation counters and degree histogram current.
            let mut sink = EdgeSink {
                initial: &self.initial,
                activated_degree: &mut self.activated_degree,
                activated_now: &mut self.activated_now,
                bus: &mut self.bus,
                ledger: &mut self.ledger,
            };
            self.current.add_edges_batch(&self.staged_activations, |e| {
                grew.push(e.a);
                grew.push(e.b);
                if sink.edge(e, true) {
                    touched.push(e.a);
                    touched.push(e.b);
                }
            });
            self.current
                .remove_edges_batch(&self.staged_deactivations, |e| {
                    sink.edge(e, false);
                });
        }
        self.staged_activations.clear();
        self.staged_deactivations.clear();
        for &u in &touched {
            self.ledger.metrics.max_activated_degree = self
                .ledger
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
        self.ledger.metrics.rounds += 1;
        self.ledger.metrics.total_activations += activations;
        self.ledger.metrics.total_deactivations += deactivations;
        self.ledger.metrics.push_round_activations(activations);
        let mut max_per_node = 0usize;
        for u in self.staged_initiators.drain(..) {
            let stages = std::mem::take(&mut self.initiator_stages[u.index()]);
            if !self.crashed[u.index()] {
                max_per_node = max_per_node.max(stages);
            }
        }
        self.ledger.metrics.max_node_activations_in_round = self
            .ledger
            .metrics
            .max_node_activations_in_round
            .max(max_per_node);

        let activated_now = self.activated_now;
        self.ledger.metrics.max_activated_edges =
            self.ledger.metrics.max_activated_edges.max(activated_now);
        self.ledger.metrics.max_active_edges_total = self
            .ledger
            .metrics
            .max_active_edges_total
            .max(self.current.edge_count());
        // The total-degree maximum is sampled at commit instants. Only
        // endpoints that gained an edge this round can raise it.
        for &u in &grew {
            self.ledger.metrics.max_total_degree = self
                .ledger
                .metrics
                .max_total_degree
                .max(self.current.degree(u));
        }
        self.commit_touched = touched;
        self.commit_grew = grew;
        // The traced max_degree is sampled here — after the staged batches
        // applied, before the DST tick injects next-round faults. The
        // degree histogram serves it in O(1) amortized; the old O(n)
        // from-scratch scan stays on as a debug-build differential oracle
        // (and as the `set_trace_from_scratch` benchmark comparison path).
        let max_degree = if self.ledger.trace_enabled {
            if self.ledger.degrees.enabled() {
                let incremental = self.ledger.degrees.max_degree();
                debug_assert_eq!(
                    incremental,
                    self.current.max_degree(),
                    "degree histogram departed from the from-scratch scan at round {}",
                    self.round
                );
                incremental
            } else {
                self.current.max_degree()
            }
        } else {
            0
        };

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
        self.ledger.on_round_committed(
            summary.round,
            activations,
            deactivations,
            activated_now,
            max_degree,
        );
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
            self.round += 1;
            self.ledger.on_idle_rounds(1);
            self.bus.record(RoundEvent::IdleRound);
            self.tick_dst();
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
            ledger: &mut self.ledger,
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

    // ---- armed fault entry points (public, used by `adn-runtime`) ----
    //
    // The asynchronous schedulers deliver crash and churn events *during*
    // an execution (between message deliveries), so the runtime needs the
    // same adversarial operations the synchronous DST harness uses. These
    // wrappers expose exactly the crash/join pair; edge-level perturbation
    // stays the synchronous adversary's private business.

    /// Crash-stops `node` mid-execution: severs all incident edges and
    /// marks the node crashed so later staged operations touching it are
    /// dropped at commit. Returns the number of severed edges. Out-of-range
    /// nodes are ignored (returns `Ok(0)`);
    /// [`SimError::BrokenInvariant`] reports a corrupted adjacency arena
    /// (nothing is mutated in that case).
    pub fn inject_crash(&mut self, node: NodeId) -> Result<usize, SimError> {
        if node.index() >= self.crashed.len() {
            return Ok(0);
        }
        self.fault_crash_node(node)
    }

    /// Appends a fresh, isolated node mid-execution (churn join). The new
    /// node has no edges and no say until an algorithm learns about it.
    pub fn inject_join(&mut self) -> NodeId {
        self.fault_add_node()
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
                ledger: &mut self.ledger,
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
                ledger: &mut self.ledger,
            };
            sink.edge(Edge::new(u, v), true);
            // The commit-time degree sampling only looks at endpoints of
            // staged activations; adversarial growth is accounted here.
            self.ledger.metrics.max_total_degree = self
                .ledger
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
        self.ledger.on_join();
        // Ordering contract: the join precedes any attach edge insertion.
        self.bus.record(RoundEvent::NodeJoined(node));
        node
    }

    /// Skews time forward by `k` rounds (message-delay perturbation):
    /// rounds pass, nothing happens, the metered round count grows.
    pub(crate) fn fault_skew(&mut self, k: usize) {
        self.round += k;
        self.ledger.on_idle_rounds(k);
        for _ in 0..k {
            self.bus.record(RoundEvent::IdleRound);
        }
    }

    /// Convenience: stages and commits a single activation in its own
    /// round. Mostly used by tests and the centralized strategies.
    ///
    /// # Errors
    ///
    /// Same as [`Network::stage_activation`].
    pub fn activate_in_own_round(
        &mut self,
        u: NodeId,
        v: NodeId,
    ) -> Result<RoundSummary, SimError> {
        self.stage_activation(u, v)?;
        Ok(self.commit_round())
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
        net.advance_idle_rounds(5);
        assert_eq!(net.round(), 6);
        assert_eq!(net.metrics().rounds, 5);
        assert_eq!(net.metrics().total_activations, 0);
        assert_eq!(net.metrics().activations_per_round.len(), 5);
    }

    #[test]
    fn idle_rounds_contribute_zero_activations() {
        // Pin the documented accounting: idle communication rounds and
        // adversarially skewed rounds each contribute an explicit 0 to
        // `activations_per_round`, and the mean's denominator counts
        // them (activations per *elapsed* round, not per committed one).
        let mut net = Network::new(generators::line(4));
        net.stage_activation(nid(0), nid(2)).unwrap();
        net.commit_round();
        net.advance_idle_rounds(2);
        net.fault_skew(1);
        net.stage_activation(nid(1), nid(3)).unwrap();
        net.commit_round();
        let m = net.metrics();
        assert_eq!(m.activations_per_round, vec![1, 0, 0, 0, 1]);
        assert_eq!(m.rounds, 5);
        assert_eq!(m.recorded_rounds(), 5);
        assert_eq!(m.total_activations, 2);
        assert!((m.mean_activations_per_round() - 2.0 / 5.0).abs() < 1e-9);
    }

    #[test]
    fn history_cap_keeps_network_metrics_exact() {
        let mut net = Network::new(generators::star(6));
        net.set_round_history_limit(Some(2));
        for leaf in [1usize, 2, 3] {
            net.stage_activation(nid(leaf), nid(leaf + 1)).unwrap();
            net.commit_round();
        }
        net.advance_idle_rounds(2);
        let m = net.metrics();
        assert_eq!(m.activations_per_round, vec![1, 1], "capped prefix");
        assert_eq!(m.round_records_dropped, 3);
        assert_eq!(m.recorded_rounds(), 5);
        assert_eq!(m.total_activations, 3);
        assert_eq!(m.max_activations_in_round(), 1);
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
        let joined = net.inject_join();
        net.fault_remove_edge(nid(0), nid(1));
        net.inject_crash(nid(4)).unwrap();
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
    fn traced_max_degree_matches_from_scratch_scan() {
        let mut incremental = Network::new(generators::star(8));
        let mut scratch = Network::new(generators::star(8));
        incremental.set_trace_enabled(true);
        scratch.set_trace_enabled(true);
        scratch.set_trace_from_scratch(true);
        for i in 1..7 {
            incremental.stage_activation(nid(i), nid(i + 1)).unwrap();
            scratch.stage_activation(nid(i), nid(i + 1)).unwrap();
        }
        incremental.commit_round();
        scratch.commit_round();
        incremental.stage_deactivation(nid(0), nid(4)).unwrap();
        scratch.stage_deactivation(nid(0), nid(4)).unwrap();
        incremental.commit_round();
        scratch.commit_round();
        incremental.fault_crash_node(nid(0)).unwrap();
        scratch.fault_crash_node(nid(0)).unwrap();
        incremental.commit_round();
        scratch.commit_round();
        assert_eq!(incremental.trace(), scratch.trace());
        assert_eq!(incremental.trace()[0].max_degree, 7, "hub at 7 post-wave");
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

    #[test]
    fn activate_in_own_round_helper() {
        let mut net = Network::new(generators::line(3));
        let s = net.activate_in_own_round(nid(0), nid(2)).unwrap();
        assert_eq!(s.activations, 1);
        assert!(net.is_connected());
        assert!(net.is_initial_edge(nid(0), nid(1)));
        assert!(!net.is_initial_edge(nid(0), nid(2)));
    }
}
