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
//! Both schedulers run one delivery step, `deliver`, and differ only in
//! their `Transport`: how an envelope travels, where the root's sign-offs
//! land and how a handler's edge operations reach the network.

use crate::actor::{AsyncProgram, Context, Envelope};
use crate::RuntimeReport;
use adn_graph::NodeId;
use adn_sim::network::Network;
use adn_sim::SimError;

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

/// A scheduler's side of a delivery.
pub(crate) trait Transport<M> {
    /// Puts `env` in flight from `from` to `to`.
    fn send(&mut self, from: NodeId, to: NodeId, env: Envelope<M>);

    /// Releases one of the root's start obligations.
    fn sign_off_root(&mut self);

    /// Commits the handler's edge operations in `ctx` with [`commit_ops`].
    fn commit(&mut self, ctx: &mut Context<M>, report: &mut RuntimeReport) -> Result<(), SimError>;
}

/// Acknowledges `parent` on behalf of `node`: a root sign-off releases a
/// start obligation, a node sign-off is an `Ack` envelope.
pub(crate) fn sign_off<M>(transport: &mut impl Transport<M>, node: NodeId, parent: DsParent) {
    match parent {
        DsParent::Root => transport.sign_off_root(),
        DsParent::Node(p) => transport.send(node, p, Envelope::Ack),
    }
}

/// Stages the handler's activations, then its deactivations, as
/// `ctx.id()`'s and commits them as one round, counting the round and the
/// edges its [`RoundSummary`](adn_sim::RoundSummary) says it activated and
/// deactivated into `report`. Stops at the first operation the network
/// rejects.
pub(crate) fn commit_ops<M>(
    network: &mut Network,
    ctx: &mut Context<M>,
    report: &mut RuntimeReport,
) -> Result<(), SimError> {
    let node = ctx.id();
    for peer in ctx.activations.drain(..) {
        network.stage_activation(node, peer)?;
    }
    for peer in ctx.deactivations.drain(..) {
        network.stage_deactivation(node, peer)?;
    }
    let round = network.commit_round();
    report.activations += round.activations;
    report.deactivations += round.deactivations;
    report.commits += 1;
    Ok(())
}

/// Delivers `env` to `node`, whose program and bookkeeping are `program`
/// and `ds`, counting it into `report` (the scheduler counts the step
/// itself). In order:
///
/// 1. engage the receiver, or note that the sender is owed an ack now;
/// 2. run the handler;
/// 3. commit the handler's edge operations as one round;
/// 4. send the outbox;
/// 5. send the ack the sender is owed;
/// 6. sign off if the receiver owes nothing more.
///
/// The bookkeeping always completes, so the detector stays sound; an
/// edge operation the network rejected is returned afterwards.
pub(crate) fn deliver<P: AsyncProgram>(
    program: &mut P,
    ds: &mut DsState,
    ctx: &mut Context<P::Message>,
    node: NodeId,
    env: Envelope<P::Message>,
    transport: &mut impl Transport<P::Message>,
    report: &mut RuntimeReport,
) -> Result<(), SimError> {
    ctx.reset(node);
    let owed = match env {
        Envelope::Start => {
            // When an application message overtook the start signal and
            // engaged the node first, the root's copy is acknowledged on
            // the spot.
            let owed = (!ds.on_receive(DsParent::Root)).then_some(DsParent::Root);
            program.on_start(ctx);
            owed
        }
        Envelope::App { from, msg } => {
            report.app_messages += 1;
            let sender = DsParent::Node(from);
            let owed = (!ds.on_receive(sender)).then_some(sender);
            program.on_message(from, msg, ctx);
            owed
        }
        Envelope::Ack => {
            report.acks += 1;
            ds.on_ack();
            None
        }
    };
    let committed = if ctx.activations.is_empty() && ctx.deactivations.is_empty() {
        Ok(())
    } else {
        transport.commit(ctx, report)
    };
    if !ctx.outbox.is_empty() {
        ds.on_sent(ctx.outbox.len());
        for (to, msg) in ctx.outbox.drain(..) {
            transport.send(node, to, Envelope::App { from: node, msg });
        }
    }
    if let Some(sender) = owed {
        sign_off(transport, node, sender);
    }
    if let Some(parent) = ds.try_disengage() {
        sign_off(transport, node, parent);
    }
    committed
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
