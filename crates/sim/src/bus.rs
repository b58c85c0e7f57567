//! The round-event bus: one application-ordered stream of topology and
//! round-boundary events, emitted from exactly one place per mutation in
//! [`crate::Network`], with cheap fan-out to every observer.
//!
//! The network has two observers — the invariant checks of the DST state
//! and the raw event recorder — and nothing else watches
//! a run. Rather than a channel per observer, each with its own push site
//! duplicated across `commit_round` and every `fault_*` entry point, the
//! bus records a single [`RoundEvent`] stream with one cursor, or tap,
//! per observer: each observer arms its tap, mutations are recorded once,
//! and each drain copies the pending slice out. The buffer is compacted
//! as soon as every armed tap has drained, so steady-state memory is one
//! round of events. With no tap armed, recording costs one branch per
//! event.
//!
//! The network's always-on bookkeeping, [`crate::EdgeMetrics`], is not an
//! observer: the network updates it directly at commit and idle-round
//! time.

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
    /// The installed DST state (its invariant checks' event feed).
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

    /// Whether any tap is armed, i.e. whether events are recorded at all.
    pub fn any_armed(&self) -> bool {
        self.any_armed
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

/// The single emission point for applied edge mutations. Every apply
/// path of the network — the `commit_round` batch callbacks, the applied
/// columns of `commit_jumps` and each adversarial fault entry point —
/// funnels through [`EdgeSink::edge`], which classifies the edge against
/// the initial network, keeps the activated-edge counters current, and
/// records the event on the bus. There is no other place that touches
/// these observables, so commits and faults report them identically by
/// construction.
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
}

impl EdgeSink<'_> {
    /// Emits one applied edge mutation. Returns true when the edge is
    /// non-initial, i.e. the mutation changed the activated-edge set.
    #[inline]
    pub fn edge(&mut self, e: Edge, added: bool) -> bool {
        let initial = self.initial.has_edge(e.a, e.b);
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

    #[test]
    fn bus_records_only_while_armed_and_compacts_when_drained() {
        let mut bus = EventBus::default();
        bus.record(RoundEvent::IdleRound);
        assert!(bus.events.is_empty(), "no tap armed: nothing recorded");
        assert!(!bus.any_armed());

        bus.arm(BusTap::Dst, true);
        assert!(bus.any_armed());
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
        assert!(!bus.any_armed());
    }
}
