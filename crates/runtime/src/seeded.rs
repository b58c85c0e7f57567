//! The deterministic single-threaded scheduler.
//!
//! Delivery is a discrete-event loop over a timeline of FIFO lists, one
//! per `ready_at` time, threaded through one slab of reused entry slots:
//! a front-to-back walk visits in-flight envelopes in `(ready_at, send
//! order)`, and each step removes one of the first `reorder_window`
//! entries in place, so a step costs O(window) and allocates nothing once
//! the slab has reached the run's peak in-flight count. Every
//! source of nondeterminism — reordering within the window, per-message
//! delay jitter, per-link base latency — is drawn from one [`DetRng`]
//! seeded with a single `u64`, so a run is a pure function of
//! `(network, programs, seed, knobs)` and replays byte-identically — the
//! network's DST adversary, when one is armed, included: it draws from
//! its own seeded stream at each commit. A [`SeededRun`] keeps one
//! timeline, RNG stream, clock and step counter across all of its
//! barriers. Each step delivers one envelope under the Dijkstra–Scholten
//! bookkeeping of [`termination`](crate::termination); a step also
//! retires the actors the adversary crashes and answers the mail of
//! nodes without a live actor.

use crate::actor::{AsyncProgram, Context, Envelope};
use crate::termination::{DsParent, DsState};
use crate::{AsyncKnobs, RuntimeError, RuntimeReport};
use adn_graph::rng::DetRng;
use adn_graph::NodeId;
use adn_sim::network::Network;
use adn_sim::SimError;
use std::collections::VecDeque;

/// Delivery-step budget before a seeded run is declared non-quiescent.
pub const DEFAULT_MAX_STEPS: usize = 50_000_000;

/// End of a slot list.
const NIL: usize = usize::MAX;

/// One slab slot: an in-flight entry (`None` while the slot is free) and
/// the next slot of its list, the FIFO list of its `ready_at` time or the
/// free list.
struct Slot<T> {
    item: Option<T>,
    next: usize,
}

/// The FIFO list of one `ready_at` time, threaded through the slab.
#[derive(Clone, Copy)]
struct Bucket {
    head: usize,
    tail: usize,
    len: usize,
}

impl Bucket {
    const EMPTY: Bucket = Bucket {
        head: NIL,
        tail: NIL,
        len: 0,
    };
}

/// In-flight entries in delivery order: one FIFO list per `ready_at`
/// time, the front bucket holding time `front`. A push appends to its
/// time's list, so a front-to-back walk visits entries in `(ready_at,
/// push order)` — the pop order of a priority queue keyed by `(ready_at,
/// sequence)`. Removing the `k`-th entry walks `k` entries plus any
/// empty buckets between them.
///
/// Every entry lives in one slab of slots, and a bucket is only its
/// list's head slot, tail slot and length, so no delivery time allocates
/// (a calendar queue with reused entry slots, as in Brown, "Calendar
/// queues", CACM 1988). A removal puts its slot on the free list, which a
/// push takes from before it grows the slab: the slab holds as many slots
/// as the peak number of entries in flight at once.
struct Timeline<T> {
    front: usize,
    buckets: VecDeque<Bucket>,
    slots: Vec<Slot<T>>,
    /// Head of the free-slot list.
    free: usize,
    len: usize,
}

impl<T> Timeline<T> {
    fn new() -> Self {
        Timeline {
            front: 0,
            buckets: VecDeque::new(),
            slots: Vec::new(),
            free: NIL,
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Appends `item` to the list of time `ready_at`, prepending empty
    /// buckets when that time lies before the front one.
    fn push(&mut self, ready_at: usize, item: T) {
        if self.buckets.is_empty() {
            self.front = ready_at;
        }
        while ready_at < self.front {
            self.buckets.push_front(Bucket::EMPTY);
            self.front -= 1;
        }
        let at = ready_at - self.front;
        if at >= self.buckets.len() {
            self.buckets.resize(at + 1, Bucket::EMPTY);
        }
        let entry = Slot {
            item: Some(item),
            next: NIL,
        };
        let slot = if self.free == NIL {
            self.slots.push(entry);
            self.slots.len() - 1
        } else {
            let slot = self.free;
            self.free = self.slots[slot].next;
            self.slots[slot] = entry;
            slot
        };
        let bucket = &mut self.buckets[at];
        if bucket.len == 0 {
            bucket.head = slot;
        } else {
            self.slots[bucket.tail].next = slot;
        }
        bucket.tail = slot;
        bucket.len += 1;
        self.len += 1;
    }

    /// Removes the `k`-th entry in delivery order and returns it with its
    /// `ready_at`, or `None` when at most `k` entries are queued. Its slot
    /// goes on the free list, and buckets emptied at the front are popped.
    fn remove_nth(&mut self, mut k: usize) -> Option<(usize, T)> {
        if k >= self.len {
            return None;
        }
        let mut at = 0;
        while k >= self.buckets[at].len {
            k -= self.buckets[at].len;
            at += 1;
        }
        let bucket = &mut self.buckets[at];
        let (mut prev, mut slot) = (NIL, bucket.head);
        for _ in 0..k {
            prev = slot;
            slot = self.slots[slot].next;
        }
        let next = self.slots[slot].next;
        if prev == NIL {
            bucket.head = next;
        } else {
            self.slots[prev].next = next;
        }
        if slot == bucket.tail {
            bucket.tail = prev;
        }
        bucket.len -= 1;
        let item = self.slots[slot]
            .item
            .take()
            .expect("a listed slot holds an entry");
        self.slots[slot].next = self.free;
        self.free = slot;
        let ready_at = self.front + at;
        self.len -= 1;
        while self.buckets.front().is_some_and(|b| b.len == 0) {
            self.buckets.pop_front();
            self.front += 1;
        }
        Some((ready_at, item))
    }

    fn iter(&self) -> impl Iterator<Item = &T> {
        self.buckets.iter().flat_map(move |bucket| {
            let mut slot = bucket.head;
            (0..bucket.len).filter_map(move |_| {
                let entry = &self.slots[slot];
                slot = entry.next;
                entry.item.as_ref()
            })
        })
    }
}

/// Single-threaded deterministic scheduler: the whole delivery order
/// derives from one `u64`.
#[derive(Debug, Clone)]
pub struct SeededScheduler {
    seed: u64,
    knobs: AsyncKnobs,
    max_steps: usize,
}

impl SeededScheduler {
    /// Scheduler with default knobs (no reordering, no delays) and the
    /// default step budget.
    pub fn new(seed: u64) -> Self {
        SeededScheduler {
            seed,
            knobs: AsyncKnobs::default(),
            max_steps: DEFAULT_MAX_STEPS,
        }
    }

    /// Sets the delivery-perturbation knobs.
    pub fn with_knobs(mut self, knobs: AsyncKnobs) -> Self {
        self.knobs = knobs;
        self
    }

    /// Sets the delivery-step budget.
    pub fn with_max_steps(mut self, max_steps: usize) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// The seed this scheduler replays from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Fixed per-direction base latency for the link `from -> to`
    /// (asymmetric-delay mode): a SplitMix64-style mix of the seed and
    /// both endpoints, reduced to `0..=2*max_link_delay`.
    fn link_base(&self, from: NodeId, to: NodeId) -> usize {
        if !self.knobs.asymmetric_delay {
            return 0;
        }
        let mut z = self
            .seed
            .wrapping_add((from.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add((to.index() as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let span = 2 * self.knobs.max_link_delay + 1;
        (z ^ (z >> 31)) as usize % span
    }

    /// Starts a run of `n` actors (actor `i` is node `i`) on `network`.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidInput`] unless `n` is the network's node
    /// count.
    pub fn start<M>(&self, network: &Network, n: usize) -> Result<SeededRun<M>, RuntimeError> {
        if network.node_count() != n {
            return Err(RuntimeError::InvalidInput {
                reason: format!("{n} programs for {} nodes", network.node_count()),
            });
        }
        Ok(SeededRun {
            wire: Wire {
                scheduler: self.clone(),
                timeline: Timeline::new(),
                rng: DetRng::seed_from_u64(self.seed),
                now: 0,
                root_deficit: 0,
            },
            ds: vec![DsState::default(); n],
            crashed: vec![false; n],
            started: vec![false; n],
            report: RuntimeReport::empty(self.seed, n),
            ctx: Context::new(NodeId(0)),
        })
    }

    /// Runs `programs` (actor `i` is node `i`) to Dijkstra–Scholten
    /// quiescence on `network`: a run of one barrier.
    ///
    /// # Errors
    ///
    /// As [`start`](Self::start) and [`SeededRun::barrier`].
    pub fn run<P: AsyncProgram>(
        &self,
        network: &mut Network,
        programs: &mut [P],
    ) -> Result<RuntimeReport, RuntimeError> {
        let mut run = self.start(network, programs.len())?;
        run.barrier(network, programs)?;
        Ok(run.finish())
    }
}

/// A seeded run in progress (see [`SeededScheduler::start`]). Its
/// timeline, RNG stream and clock, every actor's Dijkstra–Scholten state
/// and its report carry over from one barrier to the next, so a run of
/// many barriers replays byte-identically from the seed.
pub struct SeededRun<M> {
    wire: Wire<M>,
    ds: Vec<DsState>,
    crashed: Vec<bool>,
    started: Vec<bool>,
    report: RuntimeReport,
    ctx: Context<M>,
}

impl<M> SeededRun<M> {
    /// Re-sends `Start` to every live actor of `programs` and runs one
    /// diffusing computation to Dijkstra–Scholten quiescence.
    ///
    /// On a network armed with the DST adversary, faults land at the
    /// commits' round boundaries. After each delivery that committed, every
    /// actor whose node the adversary crashed is retired for the rest of
    /// the run: its deficit is forgiven and its engagement signed off on
    /// its behalf. Mail to a node without a live actor (crashed, or joined
    /// after the run started) is answered by the scheduler: a start
    /// releases its root obligation, an application message is
    /// acknowledged (the sender's deficit still drains) and an ack is
    /// dropped. Termination detection stays exact for the live part of the
    /// system — [`RuntimeReport::in_flight_at_detection`] counts only
    /// messages destined to live actors.
    ///
    /// # Errors
    ///
    /// * [`RuntimeError::InvalidInput`] if `programs` is not one actor per
    ///   node of the run, or if an earlier barrier failed before
    ///   quiescence (its messages are still in flight).
    /// * [`RuntimeError::DidNotQuiesce`] once the run has used up the
    ///   scheduler's step budget.
    /// * [`RuntimeError::Sim`] for an edge operation the network rejected.
    pub fn barrier<P: AsyncProgram<Message = M>>(
        &mut self,
        network: &mut Network,
        programs: &mut [P],
    ) -> Result<(), RuntimeError> {
        if programs.len() != self.ds.len() {
            return Err(RuntimeError::InvalidInput {
                reason: format!(
                    "{} programs for a run of {} actors",
                    programs.len(),
                    self.ds.len()
                ),
            });
        }
        if self.wire.root_deficit > 0 {
            return Err(RuntimeError::InvalidInput {
                reason: "an earlier barrier of this run failed before quiescence".into(),
            });
        }
        let max_steps = self.wire.scheduler.max_steps;
        let window = self.wire.scheduler.knobs.reorder_window.max(1);
        let mut link = Link {
            wire: &mut self.wire,
            network,
        };
        self.started.fill(false);
        for i in (0..programs.len()).filter(|&i| !self.crashed[i]) {
            link.wire.enqueue(None, NodeId(i), Envelope::Start);
            link.wire.root_deficit += 1;
        }
        while link.wire.root_deficit > 0 {
            let report = &mut self.report;
            if report.steps >= max_steps {
                return Err(RuntimeError::DidNotQuiesce {
                    steps: report.steps,
                });
            }
            // Deliver one of the first `window` entries in readiness
            // order, picked uniformly; with window 1 no RNG is consumed,
            // so the default knobs add zero draws to the stream.
            let wire = &mut *link.wire;
            let candidates = window.min(wire.timeline.len());
            let pick = if candidates > 1 {
                wire.rng.gen_range(0, candidates)
            } else {
                0
            };
            let Some((ready_at, (node, env))) = wire.timeline.remove_nth(pick) else {
                // Unreachable by the Dijkstra–Scholten invariant (an
                // engaged node with zero deficit disengages at its last
                // delivery), kept as a loud failure rather than a hang.
                return Err(RuntimeError::DidNotQuiesce {
                    steps: report.steps,
                });
            };
            wire.now = wire.now.max(ready_at);
            report.steps += 1;

            if self.crashed.get(node.index()) != Some(&false) {
                // The scheduler answers mail to a node without a live
                // actor: starts release their root obligation,
                // application messages are acked so the sender's deficit
                // drains, acks are dropped (the deficit they would pay was
                // forgiven).
                match env {
                    Envelope::Start => wire.root_deficit -= 1,
                    Envelope::App { from, .. } => wire.enqueue(Some(node), from, Envelope::Ack),
                    Envelope::Ack => {}
                }
                continue;
            }
            if matches!(env, Envelope::Start) {
                debug_assert!(!self.started[node.index()], "duplicate start");
                self.started[node.index()] = true;
            }
            let commits = report.commits;
            link.deliver(
                &mut programs[node.index()],
                &mut self.ds[node.index()],
                &mut self.ctx,
                node,
                env,
                report,
            )?;
            if report.commits != commits {
                link.retire_crashed(&mut self.ds, &mut self.crashed);
            }
        }
        Ok(())
    }

    /// Ends the run and returns its report.
    pub fn finish(self) -> RuntimeReport {
        let mut report = self.report;
        // Leftovers can only be acks destined to crashed nodes; everything
        // aimed at a live actor holds up a deficit somewhere.
        report.in_flight_at_detection = self
            .wire
            .timeline
            .iter()
            .filter(|(to, _)| self.crashed.get(to.index()) == Some(&false))
            .count();
        report
    }
}

/// The seeded scheduler's transport state, carried across a run's
/// barriers: the timeline, the RNG stream that perturbs it, the clock and
/// the root's deficit.
struct Wire<M> {
    scheduler: SeededScheduler,
    timeline: Timeline<(NodeId, Envelope<M>)>,
    rng: DetRng,
    now: usize,
    root_deficit: usize,
}

impl<M> Wire<M> {
    /// Schedules `env` for `to` after the link's base latency (none for
    /// the root's starts) plus a jitter draw when delays are on.
    fn enqueue(&mut self, from: Option<NodeId>, to: NodeId, env: Envelope<M>) {
        let knobs = &self.scheduler.knobs;
        let jitter = if knobs.max_link_delay > 0 {
            self.rng.gen_range(0, knobs.max_link_delay + 1)
        } else {
            0
        };
        let base = from.map_or(0, |f| self.scheduler.link_base(f, to));
        self.timeline.push(self.now + 1 + base + jitter, (to, env));
    }
}

/// One barrier's transport: the run's wire and the network its handlers
/// commit to.
struct Link<'a, M> {
    wire: &'a mut Wire<M>,
    network: &'a mut Network,
}

impl<M> Link<'_, M> {
    /// Retires every actor whose node the network's DST adversary has
    /// crashed and that is not yet marked `crashed`: marks it, forgives its
    /// deficit and signs off its engagement on its behalf. An unarmed
    /// network costs one branch.
    fn retire_crashed(&mut self, ds: &mut [DsState], crashed: &mut [bool]) {
        let Some(dst) = self.network.dst_state() else {
            return;
        };
        // Joined nodes have no actor to retire.
        let fresh: Vec<NodeId> = dst
            .crashed()
            .iter()
            .copied()
            .filter(|c| crashed.get(c.index()) == Some(&false))
            .collect();
        for c in fresh {
            crashed[c.index()] = true;
            if let Some(parent) = ds[c.index()].crash() {
                self.sign_off(c, parent);
            }
        }
    }

    /// Acknowledges `parent` on behalf of `node`: a root sign-off releases
    /// a start obligation, a node sign-off is an `Ack` envelope.
    fn sign_off(&mut self, node: NodeId, parent: DsParent) {
        match parent {
            DsParent::Root => self.wire.root_deficit -= 1,
            DsParent::Node(p) => self.wire.enqueue(Some(node), p, Envelope::Ack),
        }
    }

    /// Stages the handler's activations, then its deactivations, as
    /// `ctx.id()`'s and commits them as one round, counting the round and
    /// the edges its [`RoundSummary`](adn_sim::RoundSummary) says it
    /// activated and deactivated into `report`. Stops at the first
    /// operation the network rejects.
    fn commit(&mut self, ctx: &mut Context<M>, report: &mut RuntimeReport) -> Result<(), SimError> {
        let node = ctx.id();
        for peer in ctx.activations.drain(..) {
            self.network.stage_activation(node, peer)?;
        }
        for peer in ctx.deactivations.drain(..) {
            self.network.stage_deactivation(node, peer)?;
        }
        let round = self.network.commit_round();
        report.activations += round.activations;
        report.deactivations += round.deactivations;
        report.commits += 1;
        Ok(())
    }

    /// Delivers `env` to `node`, whose program and bookkeeping are
    /// `program` and `ds`, counting it into `report` (the caller counts
    /// the step itself). In order:
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
    fn deliver<P: AsyncProgram<Message = M>>(
        &mut self,
        program: &mut P,
        ds: &mut DsState,
        ctx: &mut Context<M>,
        node: NodeId,
        env: Envelope<M>,
        report: &mut RuntimeReport,
    ) -> Result<(), SimError> {
        ctx.reset(node);
        let owed = match env {
            Envelope::Start => {
                // When an application message overtook the start signal
                // and engaged the node first, the root's copy is
                // acknowledged on the spot.
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
            self.commit(ctx, report)
        };
        if !ctx.outbox.is_empty() {
            ds.on_sent(ctx.outbox.len());
            for (to, msg) in ctx.outbox.drain(..) {
                self.wire
                    .enqueue(Some(node), to, Envelope::App { from: node, msg });
            }
        }
        if let Some(sender) = owed {
            self.sign_off(node, sender);
        }
        if let Some(parent) = ds.try_disengage() {
            self.sign_off(node, parent);
        }
        committed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adn_graph::{generators, Graph};

    /// Ping-pong over one edge: node 0 sends `k` to its neighbours and
    /// every receiver forwards `k - 1` back until it hits zero.
    struct Countdown {
        neighbors: Vec<NodeId>,
        start: u32,
        received: u32,
    }

    impl AsyncProgram for Countdown {
        type Message = u32;
        fn on_start(&mut self, ctx: &mut Context<u32>) {
            if self.start > 0 {
                for &nb in &self.neighbors {
                    ctx.send(nb, self.start);
                }
            }
        }
        fn on_message(&mut self, from: NodeId, msg: u32, ctx: &mut Context<u32>) {
            self.received += msg;
            if msg > 1 {
                ctx.send(from, msg - 1);
            }
        }
    }

    fn countdown_programs(graph: &Graph, start_node: usize, k: u32) -> Vec<Countdown> {
        (0..graph.node_count())
            .map(|i| Countdown {
                neighbors: graph.neighbors_slice(NodeId(i)).to_vec(),
                start: if i == start_node { k } else { 0 },
                received: 0,
            })
            .collect()
    }

    #[test]
    fn quiesces_and_counts_messages() {
        let graph = generators::line(2);
        let mut network = Network::new(graph.clone());
        let mut programs = countdown_programs(&graph, 0, 4);
        let report = SeededScheduler::new(11)
            .run(&mut network, &mut programs)
            .expect("run");
        // Messages 4, 3, 2, 1 bounce across the single edge.
        assert_eq!(report.app_messages, 4);
        assert_eq!(report.in_flight_at_detection, 0);
        assert_eq!(programs[1].received, 4 + 2);
        assert_eq!(programs[0].received, 3 + 1);
    }

    #[test]
    fn replays_byte_identically() {
        // Runs of two barriers: the second starts from the first's
        // timeline, clock and RNG stream.
        let graph = generators::line(9);
        for seed in [0u64, 1, 42, 0xDEAD_BEEF] {
            let knobs = AsyncKnobs {
                reorder_window: 3,
                max_link_delay: 2,
                asymmetric_delay: true,
            };
            let render: Vec<String> = (0..2)
                .map(|_| {
                    let mut network = Network::new(graph.clone());
                    let mut programs = countdown_programs(&graph, 4, 6);
                    let scheduler = SeededScheduler::new(seed).with_knobs(knobs);
                    let mut run = scheduler.start(&network, 9).expect("start");
                    run.barrier(&mut network, &mut programs).expect("barrier");
                    run.barrier(&mut network, &mut programs).expect("barrier");
                    let report = run.finish();
                    // Node 4 counts 6 down with each of its two neighbours,
                    // once per barrier.
                    assert_eq!(report.app_messages, 24);
                    report.render()
                })
                .collect();
            assert_eq!(render[0], render[1], "seed {seed} diverged");
        }
    }

    #[test]
    fn program_count_mismatch_is_invalid_input() {
        let graph = generators::line(3);
        let mut network = Network::new(graph.clone());
        let mut programs = countdown_programs(&graph, 0, 1);
        programs.pop();
        let err = SeededScheduler::new(0)
            .run(&mut network, &mut programs)
            .unwrap_err();
        assert!(matches!(err, RuntimeError::InvalidInput { .. }));
    }

    #[test]
    fn step_budget_is_enforced() {
        let graph = generators::line(2);
        let mut network = Network::new(graph.clone());
        let mut programs = countdown_programs(&graph, 0, 1_000_000);
        let mut run = SeededScheduler::new(0)
            .with_max_steps(50)
            .start(&network, 2)
            .expect("start");
        let err = run.barrier(&mut network, &mut programs).unwrap_err();
        assert!(matches!(err, RuntimeError::DidNotQuiesce { steps: 50 }));
        // The failed barrier left its messages in flight, so the run takes
        // no further barrier.
        let again = run.barrier(&mut network, &mut programs).unwrap_err();
        assert!(matches!(again, RuntimeError::InvalidInput { .. }));
    }

    /// A sorted `Vec` of `(ready_at, seq)` is the reference for the
    /// timeline. One seeded sequence shaped like a scheduler run (pushes at
    /// `now + 1 + delay`, removals among the first four entries, `now`
    /// following each removal) must remove identical entries from both,
    /// including pushes that land before the front bucket and entries
    /// left behind `now`.
    #[test]
    fn timeline_matches_sorted_reference() {
        let mut rng = DetRng::seed_from_u64(17);
        let mut timeline: Timeline<usize> = Timeline::new();
        let mut reference: Vec<(usize, usize)> = Vec::new();
        let (mut now, mut seq) = (0usize, 0usize);
        let (mut before_front, mut behind_now) = (0usize, 0usize);
        let mut peak = 0usize;
        for _ in 0..20_000 {
            if rng.gen_bool(0.5) {
                let ready_at = now + 1 + rng.gen_range(0, 7);
                if reference
                    .first()
                    .is_some_and(|&(front, _)| ready_at < front)
                {
                    before_front += 1;
                }
                let at = reference.partition_point(|&entry| entry < (ready_at, seq));
                reference.insert(at, (ready_at, seq));
                timeline.push(ready_at, seq);
                seq += 1;
            } else {
                let k = rng.gen_range(0, 4);
                let expected = (k < reference.len()).then(|| reference.remove(k));
                assert_eq!(timeline.remove_nth(k), expected);
                if let Some((ready_at, _)) = expected {
                    now = now.max(ready_at);
                }
            }
            if reference.first().is_some_and(|&(front, _)| front < now) {
                behind_now += 1;
            }
            assert_eq!(timeline.len(), reference.len());
            peak = peak.max(reference.len());
            assert!(
                timeline.slots.len() <= peak,
                "{} slots for a peak of {peak} entries in flight",
                timeline.slots.len()
            );
        }
        assert!(timeline
            .iter()
            .copied()
            .eq(reference.iter().map(|&(_, s)| s)));
        assert!(
            before_front > 0 && behind_now > 0,
            "{before_front} early pushes, {behind_now} steps with entries behind now"
        );
    }
}
