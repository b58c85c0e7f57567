//! Dijkstra–Scholten termination detection for diffusing computations.
//!
//! The scheduler plays the virtual root: it sends one `Start` to every
//! actor (root deficit `n`) and the computation diffuses from there.
//! Every delivered message engages its receiver (if idle) or earns an
//! immediate acknowledgement (if already engaged); an engaged node keeps
//! a *deficit* — acknowledgements still owed for messages it sent — and
//! signs off to its engagement parent only once its deficit is zero.
//! When the root's deficit reaches zero every node has signed off and,
//! because a sign-off happens strictly after all acknowledgements for a
//! node's own sends have arrived, **no message is in flight**.
//!
//! This module holds the per-actor bookkeeping; the scheduler's delivery
//! step in [`seeded`](crate::seeded) drives it.

use adn_graph::NodeId;

/// Who engaged a node in the diffusing computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DsParent {
    /// Engaged by the scheduler's start signal; sign-off decrements the
    /// root deficit directly.
    Root,
    /// Engaged by the first message from this node; sign-off sends it an
    /// acknowledgement.
    Node(NodeId),
}

/// Per-actor Dijkstra–Scholten bookkeeping.
#[derive(Debug, Clone, Default)]
pub struct DsState {
    parent: Option<DsParent>,
    deficit: usize,
}

impl DsState {
    /// Records receipt of an engaging message (a `Start` maps to
    /// `DsParent::Root`, an application message to
    /// `DsParent::Node(sender)`). Returns `true` if the node was idle and
    /// is now engaged with this sender as parent — in that case the
    /// acknowledgement is deferred to [`try_disengage`](Self::try_disengage).
    /// Returns `false` if the node was already engaged: the caller must
    /// acknowledge the sender immediately (after the handler runs).
    pub fn on_receive(&mut self, from: DsParent) -> bool {
        if self.parent.is_none() {
            self.parent = Some(from);
            true
        } else {
            false
        }
    }

    /// Records `count` messages sent: each will eventually be
    /// acknowledged, so the deficit grows.
    pub fn on_sent(&mut self, count: usize) {
        self.deficit += count;
    }

    /// Records one received acknowledgement.
    pub fn on_ack(&mut self) {
        debug_assert!(self.deficit > 0, "ack without outstanding deficit");
        self.deficit = self.deficit.saturating_sub(1);
    }

    /// If the node is engaged with zero deficit it disengages and returns
    /// its parent, which the caller must acknowledge (root sign-offs
    /// decrement the root deficit, node sign-offs become `Ack` messages).
    /// Returns `None` while the node still owes nothing or waits on acks.
    pub fn try_disengage(&mut self) -> Option<DsParent> {
        if self.deficit == 0 {
            self.parent.take()
        } else {
            None
        }
    }

    /// Whether the node is currently engaged.
    pub fn engaged(&self) -> bool {
        self.parent.is_some()
    }

    /// Crash-stops this node's bookkeeping: the deficit is forgiven (acks
    /// owed *to* the node will be dropped by the scheduler) and the
    /// engagement parent, if any, is returned so the scheduler can sign
    /// off on the node's behalf — the diffusing computation must not wait
    /// forever on a node that will never ack.
    pub fn crash(&mut self) -> Option<DsParent> {
        self.deficit = 0;
        self.parent.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engage_ack_disengage_cycle() {
        let mut ds = DsState::default();
        assert!(!ds.engaged());
        // First message engages; second earns an immediate ack.
        assert!(ds.on_receive(DsParent::Root));
        assert!(!ds.on_receive(DsParent::Node(NodeId(4))));
        assert!(ds.engaged());
        // Two sends -> deficit 2; cannot disengage until both acked.
        ds.on_sent(2);
        assert_eq!(ds.try_disengage(), None);
        ds.on_ack();
        assert_eq!(ds.try_disengage(), None);
        ds.on_ack();
        assert_eq!(ds.try_disengage(), Some(DsParent::Root));
        assert!(!ds.engaged());
        // Re-engagement after disengaging picks a fresh parent.
        assert!(ds.on_receive(DsParent::Node(NodeId(1))));
        assert_eq!(ds.try_disengage(), Some(DsParent::Node(NodeId(1))));
    }

    #[test]
    fn idle_node_never_disengages() {
        let mut ds = DsState::default();
        assert_eq!(ds.try_disengage(), None);
    }
}
