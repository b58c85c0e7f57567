//! Native asynchronous flooding (all-to-all token dissemination), and the
//! token set both flooding engines share.
//!
//! A token is named by its origin: the node index that started with it
//! (standing for that node's UID). [`TokenSet`] is a bitset over origin
//! indices with a running count, so a union is a word OR plus a popcount
//! and the set's size is one read. Both engines use it: the synchronous
//! baseline in `adn_core` and the [`FloodActor`] here.
//!
//! Unlike the synchronous baseline — which rebroadcasts a node's entire
//! known set to every neighbour every round, Θ(n³) token-hops on a line —
//! the actor forwards only **newly learned** tokens (the incoming set AND
//! NOT the known set), and only to the neighbours that did not just teach
//! them. Token sets grow monotonically and merging is commutative,
//! associative and idempotent, so the final state (every node knows every
//! token) is independent of delivery order: any seed, any knobs, same
//! outcome as the synchronous baseline.

use crate::actor::{AsyncProgram, Context};
use adn_graph::NodeId;

/// A set of flooding tokens over the origins `0..width`: one bit per
/// origin node index, plus a running count of the set bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenSet {
    words: Vec<u64>,
    len: usize,
}

impl TokenSet {
    /// The empty set over origins `0..width`.
    pub fn new(width: usize) -> Self {
        TokenSet {
            words: vec![0; width.div_ceil(64)],
            len: 0,
        }
    }

    /// The set holding only `origin`'s token.
    pub fn singleton(width: usize, origin: NodeId) -> Self {
        let mut set = TokenSet::new(width);
        set.insert(origin);
        set
    }

    /// Number of tokens in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set holds no token.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `origin`'s token is in the set.
    pub fn contains(&self, origin: NodeId) -> bool {
        self.words[origin.index() / 64] >> (origin.index() % 64) & 1 == 1
    }

    /// Adds `origin`'s token; returns whether it was new.
    pub fn insert(&mut self, origin: NodeId) -> bool {
        let word = &mut self.words[origin.index() / 64];
        let bit = 1u64 << (origin.index() % 64);
        let fresh = *word & bit == 0;
        *word |= bit;
        self.len += usize::from(fresh);
        fresh
    }

    /// The set's words, bit `i % 64` of word `i / 64` standing for origin
    /// `i` — the payload a sender shares with its neighbours.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Adds every token of `words` (another set's [`TokenSet::words`] over
    /// the same width).
    pub fn union_words(&mut self, words: &[u64]) {
        debug_assert_eq!(words.len(), self.words.len(), "token set widths differ");
        for (known, &incoming) in self.words.iter_mut().zip(words) {
            self.len += (incoming & !*known).count_ones() as usize;
            *known |= incoming;
        }
    }

    /// Adds every token of `incoming` and returns the ones that were new
    /// (`incoming` AND NOT `self`), or `None` when none was — without
    /// allocating in that case.
    pub fn absorb(&mut self, incoming: &TokenSet) -> Option<TokenSet> {
        debug_assert_eq!(
            incoming.words.len(),
            self.words.len(),
            "token set widths differ"
        );
        let first = self
            .words
            .iter()
            .zip(&incoming.words)
            .position(|(&known, &other)| other & !known != 0)?;
        let mut fresh = TokenSet {
            words: vec![0; self.words.len()],
            len: 0,
        };
        let columns = self.words.iter_mut().zip(&incoming.words);
        for ((known, &other), slot) in columns.zip(&mut fresh.words).skip(first) {
            *slot = other & !*known;
            fresh.len += slot.count_ones() as usize;
            *known |= other;
        }
        self.len += fresh.len;
        Some(fresh)
    }
}

/// Asynchronous flooding actor: learns every node's token by
/// delta-forwarding.
#[derive(Debug, Clone)]
pub struct FloodActor {
    /// This node's token alone: the start message carries exactly this,
    /// whatever arrived before the start signal (those tokens were
    /// forwarded when they arrived).
    own: TokenSet,
    neighbors: Vec<NodeId>,
    /// Every token seen so far.
    known: TokenSet,
}

impl FloodActor {
    /// Actor for node `origin` of an `n`-node network with the given
    /// (static) neighbours.
    pub fn new(origin: NodeId, n: usize, neighbors: Vec<NodeId>) -> Self {
        let own = TokenSet::singleton(n, origin);
        FloodActor {
            known: own.clone(),
            own,
            neighbors,
        }
    }

    /// Tokens learned so far.
    pub fn known(&self) -> &TokenSet {
        &self.known
    }
}

impl AsyncProgram for FloodActor {
    type Message = TokenSet;

    fn on_start(&mut self, ctx: &mut Context<TokenSet>) {
        for &nb in &self.neighbors {
            ctx.send(nb, self.own.clone());
        }
    }

    fn on_message(&mut self, from: NodeId, msg: TokenSet, ctx: &mut Context<TokenSet>) {
        let Some(fresh) = self.known.absorb(&msg) else {
            return;
        };
        // Every target but the last gets a copy; the last gets `fresh`.
        let mut targets = self.neighbors.iter().copied().filter(|&nb| nb != from);
        let Some(mut last) = targets.next() else {
            return;
        };
        for nb in targets {
            ctx.send(last, fresh.clone());
            last = nb;
        }
        ctx.send(last, fresh);
    }
}

/// Builds one [`FloodActor`] per node of a static graph.
pub fn flood_actors(graph: &adn_graph::Graph) -> Vec<FloodActor> {
    let n = graph.node_count();
    (0..n)
        .map(|i| FloodActor::new(NodeId(i), n, graph.neighbors_slice(NodeId(i)).to_vec()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AsyncKnobs, SeededScheduler};
    use adn_graph::generators;
    use adn_graph::rng::DetRng;
    use adn_sim::network::Network;
    use std::collections::BTreeSet;

    fn full(n: usize) -> TokenSet {
        let mut set = TokenSet::new(n);
        for i in 0..n {
            set.insert(NodeId(i));
        }
        set
    }

    fn members(set: &TokenSet, width: usize) -> BTreeSet<usize> {
        (0..width).filter(|&i| set.contains(NodeId(i))).collect()
    }

    fn random_set(width: usize, rng: &mut DetRng) -> (TokenSet, BTreeSet<usize>) {
        let mut set = TokenSet::new(width);
        let mut reference = BTreeSet::new();
        for _ in 0..rng.gen_range(0, width + 1) {
            let i = rng.gen_range(0, width);
            assert_eq!(set.insert(NodeId(i)), reference.insert(i));
        }
        (set, reference)
    }

    #[test]
    fn token_set_matches_btreeset_reference() {
        let mut rng = DetRng::seed_from_u64(0x70C5);
        for width in [1usize, 63, 64, 65, 129] {
            for _ in 0..64 {
                let (a, a_ref) = random_set(width, &mut rng);
                let (b, b_ref) = random_set(width, &mut rng);
                assert_eq!(members(&a, width), a_ref);
                assert_eq!(a.len(), a_ref.len());
                assert_eq!(a.is_empty(), a_ref.is_empty());

                let union_ref: BTreeSet<usize> = a_ref.union(&b_ref).copied().collect();
                let mut union = a.clone();
                union.union_words(b.words());
                assert_eq!(members(&union, width), union_ref, "width {width}");
                assert_eq!(union.len(), union_ref.len(), "width {width}");

                let fresh_ref: BTreeSet<usize> = b_ref.difference(&a_ref).copied().collect();
                let mut absorbed = a.clone();
                match absorbed.absorb(&b) {
                    Some(fresh) => {
                        assert_eq!(members(&fresh, width), fresh_ref, "width {width}");
                        assert_eq!(fresh.len(), fresh_ref.len(), "width {width}");
                    }
                    None => assert!(fresh_ref.is_empty(), "width {width}"),
                }
                assert_eq!(absorbed, union, "width {width}");
                assert_eq!(absorbed.absorb(&b), None, "absorbing twice adds nothing");
            }
        }
    }

    #[test]
    fn every_actor_learns_every_token_seeded() {
        let n = 24;
        let graph = generators::ring(n);
        for seed in [1u64, 2, 3] {
            let mut network = Network::new(graph.clone());
            let mut actors = flood_actors(&graph);
            let knobs = AsyncKnobs {
                reorder_window: 5,
                max_link_delay: 2,
                asymmetric_delay: true,
            };
            let report = SeededScheduler::new(seed)
                .with_knobs(knobs)
                .run(&mut network, &mut actors)
                .expect("run");
            assert_eq!(report.in_flight_at_detection, 0);
            for actor in &actors {
                assert_eq!(actor.known(), &full(n), "seed {seed}");
            }
        }
    }

    #[test]
    fn messages_forward_only_fresh_tokens() {
        let n = 10;
        let mut actor = FloodActor::new(NodeId(5), n, vec![NodeId(4), NodeId(6)]);
        let mut ctx = Context::new(NodeId(5));
        let mut incoming = TokenSet::new(n);
        for i in [2, 5, 9] {
            incoming.insert(NodeId(i));
        }
        actor.on_message(NodeId(4), incoming.clone(), &mut ctx);
        let mut fresh = TokenSet::new(n);
        fresh.insert(NodeId(2));
        fresh.insert(NodeId(9));
        assert_eq!(
            ctx.outbox,
            vec![(NodeId(6), fresh)],
            "not back to the teacher"
        );
        ctx.reset(NodeId(5));
        actor.on_message(NodeId(6), incoming, &mut ctx);
        assert!(ctx.outbox.is_empty(), "nothing new, nothing sent");
        assert_eq!(members(actor.known(), n), BTreeSet::from([2, 5, 9]));

        // Degree 3, taught by the middle neighbour: the other two get the
        // same fresh set, in neighbour order.
        let mut actor = FloodActor::new(NodeId(5), n, vec![NodeId(1), NodeId(4), NodeId(8)]);
        let mut ctx = Context::new(NodeId(5));
        let mut incoming = TokenSet::new(n);
        for i in [0, 5, 7] {
            incoming.insert(NodeId(i));
        }
        actor.on_message(NodeId(4), incoming, &mut ctx);
        let mut fresh = TokenSet::new(n);
        fresh.insert(NodeId(0));
        fresh.insert(NodeId(7));
        assert_eq!(
            ctx.outbox,
            vec![(NodeId(1), fresh.clone()), (NodeId(8), fresh)],
            "every neighbour but the teacher, in order"
        );
    }

    #[test]
    fn start_sends_only_the_own_token_after_an_early_message() {
        // A neighbour's message can overtake this node's start signal. The
        // tokens it brought were forwarded on arrival; the start message
        // must still carry this node's token alone.
        let n = 3;
        let mut actor = FloodActor::new(NodeId(1), n, vec![NodeId(0), NodeId(2)]);
        let mut ctx = Context::new(NodeId(1));
        actor.on_message(NodeId(0), TokenSet::singleton(n, NodeId(0)), &mut ctx);
        assert_eq!(
            ctx.outbox,
            vec![(NodeId(2), TokenSet::singleton(n, NodeId(0)))]
        );
        ctx.reset(NodeId(1));
        actor.on_start(&mut ctx);
        let own = TokenSet::singleton(n, NodeId(1));
        assert_eq!(ctx.outbox, vec![(NodeId(0), own.clone()), (NodeId(2), own)]);
        assert_eq!(actor.known().len(), 2);
    }
}
