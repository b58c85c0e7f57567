//! Driver for strictly local node programs.
//!
//! A [`NodeProgram`] is a per-node state machine that only ever sees its
//! own state, its current neighbourhood (`N_1`), its potential
//! neighbourhood (`N_2`) and the messages delivered to it — exactly the
//! information the model of Section 2.1 grants a node. The [`run_programs`]
//! driver executes one program instance per node in lock step and applies
//! their edge decisions through the validated [`Network`] API.

use crate::{ExecutionReport, Network, SimError};
use adn_graph::{NodeId, Uid, UidMap};

/// A node's read-only view of the world at the beginning of a round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeView {
    /// This node's index.
    pub id: NodeId,
    /// This node's UID.
    pub uid: Uid,
    /// The current round (1-based).
    pub round: usize,
    /// Number of nodes in the network. The basic model does not assume
    /// knowledge of `n`, but some algorithms in the paper do
    /// (GraphToThinWreath explicitly, flooding with termination detection
    /// implicitly); programs that must not use it simply ignore it.
    pub n: usize,
    /// Current neighbours (`N_1`), ascending.
    pub neighbors: Vec<NodeId>,
    /// Potential neighbours (`N_2`, nodes at distance exactly 2), ascending.
    /// Empty for programs that declare they never read it
    /// ([`NodeProgram::READS_POTENTIAL_NEIGHBORS`]).
    pub potential_neighbors: Vec<NodeId>,
}

/// Edge decisions produced by a node in a round.
#[derive(Debug, Clone, Default)]
pub struct NodeDecision {
    /// Potential neighbours to activate an edge with.
    pub activate: Vec<NodeId>,
    /// Current neighbours to deactivate the edge with.
    pub deactivate: Vec<NodeId>,
}

impl NodeDecision {
    /// A decision that performs no edge operations.
    pub fn none() -> Self {
        NodeDecision::default()
    }
}

/// A strictly local, synchronous node program.
///
/// The driver calls [`NodeProgram::send`] for every node (based on the
/// snapshot at the beginning of the round), delivers the messages, then
/// calls [`NodeProgram::step`] for every node with its inbox; the returned
/// decisions are validated and applied, the round is committed, and the
/// execution stops once every node reports [`NodeProgram::has_terminated`].
pub trait NodeProgram {
    /// The message type exchanged between neighbours.
    type Message: Clone + std::fmt::Debug;

    /// Whether the program reads [`NodeView::potential_neighbors`]. When
    /// false, the engine never computes `N_2` and leaves that field empty.
    const READS_POTENTIAL_NEIGHBORS: bool = true;

    /// Compose the messages to send this round, addressed to current
    /// neighbours. Messages addressed to non-neighbours are a programming
    /// error and abort the execution.
    fn send(&mut self, view: &NodeView) -> Vec<(NodeId, Self::Message)>;

    /// Process the inbox (pairs of sender and message) and return the edge
    /// operations to perform this round.
    fn step(&mut self, view: &NodeView, inbox: &[(NodeId, Self::Message)]) -> NodeDecision;

    /// Whether this node has terminated. Terminated nodes are still polled
    /// (their `send`/`step` are expected to be no-ops) so that the driver's
    /// lock-step structure is preserved.
    fn has_terminated(&self) -> bool;
}

/// Configuration for [`run_programs`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Abort with [`SimError::RoundLimitExceeded`] if the programs have not
    /// all terminated after this many rounds.
    pub max_rounds: usize,
    /// Record a per-round [`RoundStats`] trace in the report.
    pub record_trace: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_rounds: 100_000,
            record_trace: false,
        }
    }
}

fn build_view(network: &Network, uids: &UidMap, id: NodeId, with_n2: bool) -> NodeView {
    let graph = network.graph();
    NodeView {
        id,
        uid: uids.uid(id),
        round: network.round(),
        n: network.node_count(),
        neighbors: graph.neighbors_slice(id).to_vec(),
        potential_neighbors: if with_n2 {
            graph.potential_neighbors(id)
        } else {
            Vec::new()
        },
    }
}

/// Incrementally maintained [`NodeView`]s for the first `count` nodes of a
/// network (the nodes that run programs; churned-in nodes beyond them are
/// passive and need no view).
///
/// The engine used to rebuild every view from scratch each round — an
/// `O(n)` pass of neighbour copies and `N_2` computations even in rounds
/// where nothing changed. The cache instead consumes the engine tap of
/// the network's round-event bus ([`Network::take_changed_nodes`]) and
/// recomputes
/// only the views whose contents can actually have moved: a node's `N_1`
/// changes only if one of its incident edges changed, and its `N_2` only
/// if an edge within distance one of it changed — so the affected set is
/// the changed endpoints plus their current neighbours.
///
/// A cache built without `N_2` (for programs that never read it) leaves
/// every `potential_neighbors` empty and refreshes only the changed
/// endpoints, whose `N_1` is all that can have moved.
///
/// The per-view `round`/`n` scalars are refreshed for everyone each round
/// by [`ViewCache::begin_round`] (two word writes per node), so the cached
/// views are field-for-field identical to freshly built ones — the
/// differential suite pins this under random committed rounds and
/// adversarial faults, with and without `N_2`.
#[derive(Debug)]
pub struct ViewCache {
    views: Vec<NodeView>,
    /// Whether the views carry `N_2`.
    with_n2: bool,
    /// Scratch mask for the affected set (reused across rounds).
    affected: Vec<bool>,
}

impl ViewCache {
    /// Builds the initial views of nodes `0..count` from the network's
    /// current snapshot, computing `N_2` only when `with_n2` is set.
    pub fn new(network: &Network, uids: &UidMap, count: usize, with_n2: bool) -> Self {
        ViewCache {
            views: (0..count)
                .map(|i| build_view(network, uids, NodeId(i), with_n2))
                .collect(),
            with_n2,
            affected: Vec::new(),
        }
    }

    /// The maintained views (index `i` is node `i`).
    pub fn views(&self) -> &[NodeView] {
        &self.views
    }

    /// Refreshes the per-round scalars (`round`, current `n`) on every
    /// view. Call at the top of each engine round.
    pub fn begin_round(&mut self, network: &Network) {
        let round = network.round();
        let n = network.node_count();
        for view in &mut self.views {
            view.round = round;
            view.n = n;
        }
    }

    /// Recomputes the views invalidated by the drained change set
    /// `changed` (sorted endpoints of every edge mutation since the last
    /// drain): the endpoints themselves and, when the views carry `N_2`,
    /// their *current* neighbours. A former neighbour severed this round is
    /// itself an endpoint of the severed edge, so the union covers every
    /// node whose `N_1` or `N_2` can have changed.
    pub fn refresh_changed(&mut self, network: &Network, uids: &UidMap, changed: &[NodeId]) {
        if changed.is_empty() {
            return;
        }
        let count = self.views.len();
        self.affected.clear();
        self.affected.resize(count, false);
        let graph = network.graph();
        for &u in changed {
            if u.index() < count {
                self.affected[u.index()] = true;
            }
            if !self.with_n2 {
                continue;
            }
            for &v in graph.neighbors_slice(u) {
                if v.index() < count {
                    self.affected[v.index()] = true;
                }
            }
        }
        for i in 0..count {
            if self.affected[i] {
                self.views[i] = build_view(network, uids, NodeId(i), self.with_n2);
            }
        }
    }
}

/// Runs one [`NodeProgram`] per node until all of them terminate.
///
/// # Errors
///
/// Propagates any [`SimError`] raised by invalid edge operations, messages
/// addressed to non-neighbours, or exceeding `config.max_rounds`.
///
/// # Panics
///
/// Panics if `programs.len()` or `uids.len()` does not match the network
/// size.
pub fn run_programs<P: NodeProgram>(
    network: &mut Network,
    programs: &mut [P],
    uids: &UidMap,
    config: &EngineConfig,
) -> Result<ExecutionReport, SimError> {
    let n = network.node_count();
    assert_eq!(programs.len(), n, "one program per node is required");
    assert_eq!(uids.len(), n, "one UID per node is required");

    // Per-round statistics are captured by the network itself so that the
    // trace convention is shared with the committee-level algorithms; the
    // caller's trace setting is restored on the way out.
    let caller_trace = network.trace_enabled();
    if config.record_trace {
        network.set_trace_enabled(true);
    }
    let trace_start = network.trace().len();

    // Views are maintained incrementally: full build once, then only the
    // nodes whose neighbourhood (or 2-neighbourhood) changed in a round —
    // reported by the network's change-tracking hook, which also covers
    // adversarial DST faults — are recomputed. The hook is (re-)armed here
    // and disarmed on every exit path.
    network.set_change_tracking(true);
    let result = run_rounds(network, programs, uids, config);
    network.set_change_tracking(false);
    result?;

    let trace = network.trace()[trace_start..].to_vec();
    network.set_trace_enabled(caller_trace);
    let report = ExecutionReport::new(network.metrics().clone(), network.graph().clone(), 0)
        .with_trace(trace);
    Ok(report)
}

/// The engine's round loop (split out so [`run_programs`] can disarm the
/// change-tracking hook on error paths too).
fn run_rounds<P: NodeProgram>(
    network: &mut Network,
    programs: &mut [P],
    uids: &UidMap,
    config: &EngineConfig,
) -> Result<(), SimError> {
    let programs_len = programs.len();
    let mut view_cache: Option<ViewCache> = None;
    let mut inboxes: Vec<Vec<(NodeId, P::Message)>> = Vec::new();
    let mut rounds_executed = 0usize;

    while !programs.iter().all(|p| p.has_terminated()) {
        if rounds_executed >= config.max_rounds {
            return Err(SimError::RoundLimitExceeded {
                limit: config.max_rounds,
            });
        }
        rounds_executed += 1;

        // The node count is re-read every round: under DST churn faults
        // the network can grow mid-run; joined nodes have no program (they
        // are passive), but they can receive messages and appear in
        // neighbourhoods, so the inboxes must cover the full current
        // vertex set. The inboxes are kept across rounds and cleared, not
        // reallocated.
        let n_now = network.node_count();
        let cache = view_cache.get_or_insert_with(|| {
            ViewCache::new(network, uids, programs_len, P::READS_POTENTIAL_NEIGHBORS)
        });
        cache.begin_round(network);
        let views = cache.views();
        inboxes.resize_with(n_now, Vec::new);
        for inbox in &mut inboxes {
            inbox.clear();
        }

        // Send phase.
        for i in 0..programs_len {
            let outbox = programs[i].send(&views[i]);
            for (to, msg) in outbox {
                if !network.graph().has_edge(NodeId(i), to) {
                    return Err(SimError::NotPotentialNeighbors {
                        u: NodeId(i),
                        v: to,
                        round: network.round(),
                    });
                }
                inboxes[to.index()].push((NodeId(i), msg));
            }
        }

        // Step phase: gather decisions, then stage and commit.
        for i in 0..programs_len {
            let decision = programs[i].step(&views[i], &inboxes[i]);
            for v in decision.activate {
                network.stage_activation(NodeId(i), v)?;
            }
            for v in decision.deactivate {
                network.stage_deactivation(NodeId(i), v)?;
            }
        }
        network.commit_round();
        let changed = network.take_changed_nodes();
        cache.refresh_changed(network, uids, &changed);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use adn_graph::{generators, UidAssignment};

    /// A toy program: every node activates an edge to its smallest
    /// potential neighbour once, then terminates.
    struct OneShot {
        done: bool,
    }

    impl NodeProgram for OneShot {
        type Message = ();

        fn send(&mut self, _view: &NodeView) -> Vec<(NodeId, ())> {
            Vec::new()
        }

        fn step(&mut self, view: &NodeView, _inbox: &[(NodeId, ())]) -> NodeDecision {
            if self.done {
                return NodeDecision::none();
            }
            self.done = true;
            NodeDecision {
                activate: view
                    .potential_neighbors
                    .first()
                    .copied()
                    .into_iter()
                    .collect(),
                deactivate: Vec::new(),
            }
        }

        fn has_terminated(&self) -> bool {
            self.done
        }
    }

    /// Gossip program: floods the maximum UID seen; terminates after a
    /// fixed number of rounds.
    struct MaxGossip {
        best: u64,
        rounds_left: usize,
    }

    impl NodeProgram for MaxGossip {
        type Message = u64;

        fn send(&mut self, view: &NodeView) -> Vec<(NodeId, u64)> {
            view.neighbors.iter().map(|&v| (v, self.best)).collect()
        }

        fn step(&mut self, _view: &NodeView, inbox: &[(NodeId, u64)]) -> NodeDecision {
            for (_, m) in inbox {
                self.best = self.best.max(*m);
            }
            self.rounds_left = self.rounds_left.saturating_sub(1);
            NodeDecision::none()
        }

        fn has_terminated(&self) -> bool {
            self.rounds_left == 0
        }
    }

    #[test]
    fn one_shot_program_activates_and_stops() {
        let g = generators::line(5);
        let uids = UidMap::new(5, UidAssignment::Sequential);
        let mut net = Network::new(g);
        let mut programs: Vec<OneShot> = (0..5).map(|_| OneShot { done: false }).collect();
        let report =
            run_programs(&mut net, &mut programs, &uids, &EngineConfig::default()).unwrap();
        assert_eq!(report.rounds, 1);
        assert!(report.metrics.total_activations >= 2);
        assert!(net.is_connected());
    }

    #[test]
    fn gossip_reaches_everyone_on_a_line() {
        let n = 9;
        let g = generators::line(n);
        let uids = UidMap::new(n, UidAssignment::Sequential);
        let mut net = Network::new(g);
        let mut programs: Vec<MaxGossip> = (0..n)
            .map(|i| MaxGossip {
                best: uids.uid(NodeId(i)).value(),
                rounds_left: n,
            })
            .collect();
        let config = EngineConfig {
            record_trace: true,
            ..Default::default()
        };
        let report = run_programs(&mut net, &mut programs, &uids, &config).unwrap();
        assert_eq!(report.rounds, n);
        assert_eq!(report.trace.len(), n);
        for p in &programs {
            assert_eq!(p.best, n as u64, "every node learns the max UID");
        }
        // Pure gossip performs no edge operations.
        assert_eq!(report.metrics.total_activations, 0);
    }

    #[test]
    fn round_limit_is_enforced() {
        struct Never;
        impl NodeProgram for Never {
            type Message = ();
            fn send(&mut self, _v: &NodeView) -> Vec<(NodeId, ())> {
                Vec::new()
            }
            fn step(&mut self, _v: &NodeView, _i: &[(NodeId, ())]) -> NodeDecision {
                NodeDecision::none()
            }
            fn has_terminated(&self) -> bool {
                false
            }
        }
        let g = generators::line(3);
        let uids = UidMap::new(3, UidAssignment::Sequential);
        let mut net = Network::new(g);
        let mut programs = vec![Never, Never, Never];
        let config = EngineConfig {
            max_rounds: 5,
            record_trace: false,
        };
        let err = run_programs(&mut net, &mut programs, &uids, &config).unwrap_err();
        assert!(matches!(err, SimError::RoundLimitExceeded { limit: 5 }));
    }

    #[test]
    fn messages_to_non_neighbors_are_rejected() {
        struct BadSender {
            done: bool,
        }
        impl NodeProgram for BadSender {
            type Message = ();
            fn send(&mut self, view: &NodeView) -> Vec<(NodeId, ())> {
                if view.id == NodeId(0) {
                    vec![(NodeId(2), ())] // not a neighbour on a line of 3
                } else {
                    Vec::new()
                }
            }
            fn step(&mut self, _v: &NodeView, _i: &[(NodeId, ())]) -> NodeDecision {
                self.done = true;
                NodeDecision::none()
            }
            fn has_terminated(&self) -> bool {
                self.done
            }
        }
        let g = generators::line(3);
        let uids = UidMap::new(3, UidAssignment::Sequential);
        let mut net = Network::new(g);
        let mut programs = vec![
            BadSender { done: false },
            BadSender { done: false },
            BadSender { done: false },
        ];
        let err =
            run_programs(&mut net, &mut programs, &uids, &EngineConfig::default()).unwrap_err();
        assert!(matches!(err, SimError::NotPotentialNeighbors { .. }));
    }
}
