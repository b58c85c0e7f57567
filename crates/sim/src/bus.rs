//! The round-event bus: one application-ordered stream of topology and
//! round-boundary events, emitted from exactly one place per mutation in
//! [`crate::Network`], with cheap fan-out to every observer.
//!
//! The network has two buffered observers — the topology replay feed of
//! the DST invariant engine and the raw event recorder — and one
//! always-on subscriber, the per-round metrics/trace bookkeeping. Rather
//! than a channel per observer, each with its own push site duplicated
//! across `commit_round` and every `fault_*` entry point, the bus records
//! a single [`RoundEvent`] stream with one cursor, or tap, per buffered
//! consumer: each consumer arms its tap, mutations are recorded once, and
//! each drain copies the pending slice out. The buffer is compacted as
//! soon as every armed tap has drained, so steady-state memory is one
//! round of events.
//!
//! The always-on consumers — [`crate::EdgeMetrics`], the per-round
//! [`crate::RoundStats`] trace and the degree histogram behind the traced
//! `max_degree` — do not buffer: they live in a crate-private inline
//! subscriber and are updated synchronously at the same emission points,
//! so untraced executions with no taps armed pay two branch tests per
//! mutation and nothing else.

use crate::metrics::EdgeMetrics;
use crate::trace::RoundStats;
use adn_graph::{Edge, Graph, NodeId};

/// One event on the network's round-event bus, in application order.
///
/// Ordering contract (identical to the old per-channel contracts): a
/// committed round records its applied activations ascending, then its
/// applied deactivations ascending, then one [`RoundEvent::RoundCommitted`]
/// boundary; a crash records one `Edge { added: false }` per severed edge
/// *before* its [`RoundEvent::NodeCrashed`]; a churn join records
/// [`RoundEvent::NodeJoined`] *before* the attach edge's insertion; and
/// adversarial faults land between the boundary of the round they were
/// injected at and the next round's stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundEvent {
    /// An applied edge mutation (committed stage or adversarial fault).
    Edge {
        /// The mutated edge (canonical endpoint order).
        edge: Edge,
        /// True for an insertion, false for a removal.
        added: bool,
        /// True when the edge belongs to the initial network `D(1)` —
        /// the initial-edge classification the paper's activation
        /// metrics are defined on (only non-initial edges count as
        /// activated).
        initial: bool,
    },
    /// A fresh node was appended (churn join), isolated at birth.
    NodeJoined(NodeId),
    /// A node crash-stopped (its severed edges precede this event).
    NodeCrashed(NodeId),
    /// Round boundary: the preceding edge events of this round were
    /// committed. `activations`/`deactivations` are the applied counts
    /// of the round, matching [`crate::RoundSummary`].
    RoundCommitted {
        /// The 1-based round index that was just committed.
        round: usize,
        /// Applied activations this round (`|E_ac(i)|`).
        activations: usize,
        /// Applied deactivations this round (`|E_dac(i)|`).
        deactivations: usize,
    },
    /// One idle round elapsed (communication-only charge or adversarial
    /// round skew): time passed, no edge operations.
    IdleRound,
}

/// The buffered consumers of the bus, one cursor each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BusTap {
    /// The installed DST invariant state (topology replay drain).
    Dst = 0,
    /// The public raw-event recorder ([`crate::Network::take_events`]).
    Recorder = 1,
}

const TAPS: usize = 2;

/// The shared event buffer plus one (cursor, armed) pair per [`BusTap`].
///
/// Recording is O(1) and happens only while at least one tap is armed;
/// a drain reads the tap's pending slice `events[cursor..]` and advances
/// the cursor; the buffer is cleared as soon as every armed tap has
/// caught up (disarmed taps never hold data back).
#[derive(Debug, Clone, Default)]
pub(crate) struct EventBus {
    events: Vec<RoundEvent>,
    cursors: [usize; TAPS],
    armed: [bool; TAPS],
    any_armed: bool,
}

impl EventBus {
    /// Arms or disarms a tap. Either transition resets the tap's view to
    /// "nothing pending", preserving the old per-channel contract that
    /// toggling a hook clears its buffer.
    pub fn arm(&mut self, tap: BusTap, enabled: bool) {
        let i = tap as usize;
        self.armed[i] = enabled;
        self.cursors[i] = self.events.len();
        self.any_armed = self.armed.iter().any(|&a| a);
        self.compact();
    }

    /// Whether the given tap is armed.
    pub fn is_armed(&self, tap: BusTap) -> bool {
        self.armed[tap as usize]
    }

    /// Records one event (no-op while no tap is armed).
    #[inline]
    pub fn record(&mut self, event: RoundEvent) {
        if self.any_armed {
            self.events.push(event);
        }
    }

    /// Copies the tap's pending events into `out` (not cleared first) and
    /// marks them consumed, so a per-round consumer reuses one
    /// allocation.
    pub fn drain_into(&mut self, tap: BusTap, out: &mut Vec<RoundEvent>) {
        let i = tap as usize;
        out.extend_from_slice(&self.events[self.cursors[i]..]);
        self.cursors[i] = self.events.len();
        self.compact();
    }

    /// Clears the buffer once every armed tap has consumed it all.
    fn compact(&mut self) {
        let len = self.events.len();
        let fully_drained = self
            .cursors
            .iter()
            .zip(&self.armed)
            .all(|(&cursor, &armed)| !armed || cursor == len);
        if fully_drained {
            self.events.clear();
            self.cursors = [0; TAPS];
        }
    }
}

/// Incremental degree histogram: the traced-round `max_degree` in O(1)
/// amortized instead of the old per-round O(n) whole-graph scan.
///
/// While enabled, the tracker mirrors every node's total degree and the
/// bucket counts `hist[d]` = number of nodes with degree exactly `d`,
/// fed one edge event at a time from the bus emission points. The
/// maximum moves up on insertion for free and walks down bucket by
/// bucket on removal; each downward step crosses a bucket some earlier
/// insertion raised, so the walk is amortized O(1) per event. The old
/// from-scratch scan stays on as a debug-build differential oracle at
/// every traced commit (the `dst::DynConn` recipe).
#[derive(Debug, Clone, Default)]
pub(crate) struct DegreeTracker {
    enabled: bool,
    /// Mirror of each node's current total degree.
    degree: Vec<usize>,
    /// `hist[d]` = number of nodes with degree exactly `d`.
    hist: Vec<usize>,
    /// Largest degree with a non-empty bucket (0 for the empty graph).
    max: usize,
}

impl DegreeTracker {
    /// Whether the tracker is live.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Drops the mirror state (untraced executions pay nothing).
    pub fn disable(&mut self) {
        self.enabled = false;
        self.degree = Vec::new();
        self.hist = Vec::new();
        self.max = 0;
    }

    /// (Re)builds the histogram from the current snapshot — one O(n)
    /// pass when tracing is switched on, never per round.
    pub fn rebuild(&mut self, graph: &Graph) {
        self.enabled = true;
        self.degree.clear();
        self.hist.clear();
        self.hist.push(0);
        self.max = 0;
        for u in graph.nodes() {
            let d = graph.degree(u);
            self.degree.push(d);
            if d >= self.hist.len() {
                self.hist.resize(d + 1, 0);
            }
            self.hist[d] += 1;
            self.max = self.max.max(d);
        }
    }

    /// Applies one edge mutation to both endpoints' buckets.
    #[inline]
    pub fn on_edge(&mut self, e: Edge, added: bool) {
        if !self.enabled {
            return;
        }
        self.bump(e.a, added);
        self.bump(e.b, added);
    }

    fn bump(&mut self, u: NodeId, up: bool) {
        let d = self.degree[u.index()];
        self.hist[d] -= 1;
        let nd = if up { d + 1 } else { d - 1 };
        self.degree[u.index()] = nd;
        if nd >= self.hist.len() {
            self.hist.push(0);
        }
        self.hist[nd] += 1;
        if nd > self.max {
            self.max = nd;
        } else {
            while self.max > 0 && self.hist[self.max] == 0 {
                self.max -= 1;
            }
        }
    }

    /// A fresh isolated node joined (degree 0).
    pub fn on_join(&mut self) {
        if !self.enabled {
            return;
        }
        self.degree.push(0);
        self.hist[0] += 1;
    }

    /// The current maximum total degree, O(1).
    pub fn max_degree(&self) -> usize {
        self.max
    }
}

/// The always-on inline subscriber of the bus: owns the accumulated
/// [`EdgeMetrics`], the per-round [`RoundStats`] trace and the
/// [`DegreeTracker`], and is updated synchronously at the same emission
/// points the buffered taps record at — the `RoundSummary`/`EdgeMetrics`
/// bookkeeping as a bus subscriber rather than loose fields on the
/// network.
#[derive(Debug, Clone, Default)]
pub(crate) struct RoundLedger {
    /// The paper's edge-complexity measures.
    pub metrics: EdgeMetrics,
    /// Captured per-round statistics (empty unless tracing is on).
    pub trace: Vec<RoundStats>,
    /// Whether committed rounds append a [`RoundStats`] entry.
    pub trace_enabled: bool,
    /// Algorithm-declared live-group count stamped into traced rounds.
    pub groups_alive: usize,
    /// The degree histogram behind the traced `max_degree` value.
    pub degrees: DegreeTracker,
}

impl RoundLedger {
    /// Per-edge hook: keeps the degree histogram current. The
    /// activation counters live on the network (they are model state,
    /// consulted by staging validation), so they are updated alongside
    /// this call at the single emission point.
    #[inline]
    pub fn on_edge(&mut self, e: Edge, added: bool) {
        self.degrees.on_edge(e, added);
    }

    /// Per-join hook: the histogram gains a degree-0 node.
    pub fn on_join(&mut self) {
        self.degrees.on_join();
    }

    /// Charges `k` rounds with zero activations (idle communication
    /// rounds or adversarial skew).
    pub fn on_idle_rounds(&mut self, k: usize) {
        self.metrics.rounds += k;
        let per_round = &mut self.metrics.activations_per_round;
        per_round.resize(per_round.len() + k, 0);
    }

    /// Appends the traced entry for a committed round, if tracing is on.
    pub fn on_round_committed(
        &mut self,
        round: usize,
        activations: usize,
        deactivations: usize,
        activated_edges: usize,
        max_degree: usize,
    ) {
        if self.trace_enabled {
            self.trace.push(RoundStats {
                round,
                activations,
                deactivations,
                activated_edges,
                max_degree,
                groups_alive: self.groups_alive,
            });
        }
    }
}

/// The single emission point for applied edge mutations. Every apply
/// path of the network — the `commit_round` batch callbacks and each
/// adversarial fault entry point — funnels through [`EdgeSink::edge`],
/// which classifies the edge against the initial network, keeps the
/// activated-edge counters and the inline ledger (degree histogram)
/// current, and records the event on the bus. There is no other place
/// that touches these observables, so commits and faults report them
/// identically by construction.
pub(crate) struct EdgeSink<'a> {
    /// The initial network `D(1)` (for the initial-edge classification).
    pub initial: &'a Graph,
    /// Per-node count of active non-initial edges (model state: staging
    /// validation and invariant checks read it).
    pub activated_degree: &'a mut [usize],
    /// Number of currently active non-initial edges.
    pub activated_now: &'a mut usize,
    /// The buffered event bus.
    pub bus: &'a mut EventBus,
    /// The always-on inline subscriber.
    pub ledger: &'a mut RoundLedger,
}

impl EdgeSink<'_> {
    /// Emits one applied edge mutation. Returns true when the edge is
    /// non-initial, i.e. the mutation changed the activated-edge set.
    #[inline]
    pub fn edge(&mut self, e: Edge, added: bool) -> bool {
        let initial = self.initial.has_edge(e.a, e.b);
        self.ledger.on_edge(e, added);
        self.bus.record(RoundEvent::Edge {
            edge: e,
            added,
            initial,
        });
        if !initial {
            if added {
                *self.activated_now += 1;
                self.activated_degree[e.a.index()] += 1;
                self.activated_degree[e.b.index()] += 1;
            } else {
                *self.activated_now -= 1;
                self.activated_degree[e.a.index()] -= 1;
                self.activated_degree[e.b.index()] -= 1;
            }
        }
        !initial
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(a: usize, b: usize) -> Edge {
        Edge::new(NodeId(a), NodeId(b))
    }

    #[test]
    fn bus_records_only_while_armed_and_compacts_when_drained() {
        let mut bus = EventBus::default();
        bus.record(RoundEvent::IdleRound);
        assert!(bus.events.is_empty(), "no tap armed: nothing recorded");

        bus.arm(BusTap::Dst, true);
        bus.record(RoundEvent::NodeJoined(NodeId(3)));
        bus.record(RoundEvent::IdleRound);
        assert_eq!(bus.events.len(), 2);

        // A late arm sees only post-arm events.
        bus.arm(BusTap::Recorder, true);
        bus.record(RoundEvent::NodeCrashed(NodeId(1)));
        let mut recorded = Vec::new();
        bus.drain_into(BusTap::Recorder, &mut recorded);
        assert_eq!(recorded, vec![RoundEvent::NodeCrashed(NodeId(1))]);
        assert_eq!(bus.events.len(), 3, "DST tap still pending: kept");

        let mut dst = Vec::new();
        bus.drain_into(BusTap::Dst, &mut dst);
        assert_eq!(dst.len(), 3);
        assert!(bus.events.is_empty(), "all armed taps drained: compacted");

        // Disarming releases the buffer even with events pending.
        bus.record(RoundEvent::IdleRound);
        bus.arm(BusTap::Dst, false);
        assert_eq!(bus.events.len(), 1, "recorder still pending: kept");
        bus.arm(BusTap::Recorder, false);
        assert!(bus.events.is_empty());
    }

    #[test]
    fn degree_tracker_follows_mutations_and_joins() {
        let g = adn_graph::generators::star(5); // centre 0, degree 4
        let mut t = DegreeTracker::default();
        t.rebuild(&g);
        assert_eq!(t.max_degree(), 4);

        // Leaf-leaf insertions raise leaves to degree 2; max stays 4.
        t.on_edge(edge(1, 2), true);
        assert_eq!(t.max_degree(), 4);
        // Pile edges onto node 1 until it passes the hub.
        t.on_edge(edge(1, 3), true);
        t.on_edge(edge(1, 4), true);
        assert_eq!(t.max_degree(), 4, "node 1 ties the hub at 4");
        let g2 = adn_graph::generators::star(6);
        let mut t2 = DegreeTracker::default();
        t2.rebuild(&g2);
        assert_eq!(t2.max_degree(), 5);

        // Removing the max-holder's edges walks the max down.
        t.on_edge(edge(1, 2), false);
        t.on_edge(edge(1, 3), false);
        assert_eq!(t.max_degree(), 4, "hub still at 4");
        t.on_edge(edge(0, 1), false);
        t.on_edge(edge(0, 2), false);
        t.on_edge(edge(0, 3), false);
        t.on_edge(edge(0, 4), false);
        // Degrees now: node 0: 0, node 1: 1 (1-4), node 4: 2 (1-4? no).
        // Remaining edges: {1,4}. Max is 1.
        assert_eq!(t.max_degree(), 1);

        t.on_join();
        assert_eq!(t.max_degree(), 1, "a joined node starts at degree 0");
        t.on_edge(edge(4, 5), true);
        t.on_edge(edge(1, 5), true);
        assert_eq!(t.max_degree(), 2);
    }

    #[test]
    fn disabled_tracker_ignores_events() {
        let mut t = DegreeTracker::default();
        assert!(!t.enabled());
        t.on_edge(edge(0, 1), true);
        t.on_join();
        assert_eq!(t.max_degree(), 0);
        t.rebuild(&adn_graph::generators::line(3));
        assert!(t.enabled());
        assert_eq!(t.max_degree(), 2);
        t.disable();
        assert_eq!(t.max_degree(), 0);
    }
}
