//! The actor surface: what a node program looks like to the asynchronous
//! runtime, and the side-effect context handlers write into.

use adn_graph::NodeId;

/// An asynchronous node program: one actor per node, driven entirely by
/// message delivery.
///
/// Unlike the synchronous algorithms' round loops there is no round
/// structure and no termination flag — an actor is quiescent exactly when
/// it has no unprocessed message, and the run ends when the
/// Dijkstra–Scholten detector observes global quiescence. Handlers must
/// be safe to call in any delivery order; in particular
/// [`on_message`](AsyncProgram::on_message) may run before
/// [`on_start`](AsyncProgram::on_start) if a neighbour's start message
/// overtakes this node's own start signal, so all state must be fully
/// initialised at construction.
pub trait AsyncProgram {
    /// Payload exchanged between actors.
    type Message: Clone + std::fmt::Debug;

    /// Called once when the scheduler's start signal reaches this actor.
    fn on_start(&mut self, ctx: &mut Context<Self::Message>);

    /// Called for every delivered application message.
    fn on_message(&mut self, from: NodeId, msg: Self::Message, ctx: &mut Context<Self::Message>);
}

/// Side-effect buffer handed to each handler invocation: messages to
/// send and edge operations to stage. The scheduler drains it after the
/// handler returns — edge operations are committed first (one atomic
/// [`commit_round`](adn_sim::network::Network::commit_round)), then the
/// outbox is routed.
#[derive(Debug)]
pub struct Context<M> {
    id: NodeId,
    pub(crate) outbox: Vec<(NodeId, M)>,
    pub(crate) activations: Vec<NodeId>,
    pub(crate) deactivations: Vec<NodeId>,
}

impl<M> Context<M> {
    pub(crate) fn new(id: NodeId) -> Self {
        Context {
            id,
            outbox: Vec::new(),
            activations: Vec::new(),
            deactivations: Vec::new(),
        }
    }

    pub(crate) fn reset(&mut self, id: NodeId) {
        self.id = id;
        self.outbox.clear();
        self.activations.clear();
        self.deactivations.clear();
    }

    /// The node this handler is running on.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Queue an application message to `to`.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.outbox.push((to, msg));
    }

    /// Stage activation of the edge `(self, peer)` (distance-2 rule is
    /// enforced by the network at commit).
    pub fn activate(&mut self, peer: NodeId) {
        self.activations.push(peer);
    }

    /// Stage deactivation of the edge `(self, peer)`.
    pub fn deactivate(&mut self, peer: NodeId) {
        self.deactivations.push(peer);
    }
}

/// What travels through scheduler queues. `Start` and `Ack` are runtime
/// bookkeeping; `App` carries program payloads.
#[derive(Debug, Clone)]
pub enum Envelope<M> {
    /// The root's start signal (engages the actor in the diffusing
    /// computation and triggers [`AsyncProgram::on_start`]).
    Start,
    /// An application message.
    App {
        /// Sending node.
        from: NodeId,
        /// Program payload.
        msg: M,
    },
    /// A Dijkstra–Scholten acknowledgement.
    Ack,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_buffers_effects() {
        let mut ctx: Context<u32> = Context::new(NodeId(3));
        assert_eq!(ctx.id(), NodeId(3));
        ctx.send(NodeId(1), 42);
        ctx.activate(NodeId(2));
        ctx.deactivate(NodeId(0));
        assert_eq!(ctx.outbox, vec![(NodeId(1), 42)]);
        assert_eq!(ctx.activations, vec![NodeId(2)]);
        assert_eq!(ctx.deactivations, vec![NodeId(0)]);
        ctx.reset(NodeId(5));
        assert_eq!(ctx.id(), NodeId(5));
        assert!(ctx.outbox.is_empty() && ctx.activations.is_empty());
    }
}
