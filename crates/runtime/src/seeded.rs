//! The deterministic single-threaded scheduler.
//!
//! Delivery is a discrete-event loop over a timeline of FIFO buckets, one
//! per `ready_at` time: a front-to-back walk visits in-flight envelopes in
//! `(ready_at, send order)`, and each step removes one of the first
//! `reorder_window` entries in place, so a step costs O(window). Every
//! source of nondeterminism — reordering within the window, per-message
//! delay jitter, per-link base latency — is drawn from one [`DetRng`]
//! seeded with a single `u64`, so a run is a pure function of
//! `(network, programs, seed, knobs)` and replays byte-identically.

use crate::actor::{AsyncProgram, Context, Envelope};
use crate::fault::{FaultKind, FaultPlan};
use crate::termination::{DsParent, DsState};
use crate::{AsyncKnobs, RuntimeError, RuntimeReport};
use adn_graph::rng::DetRng;
use adn_graph::NodeId;
use adn_sim::network::Network;
use std::collections::VecDeque;

/// Delivery-step budget before a seeded run is declared non-quiescent.
pub const DEFAULT_MAX_STEPS: usize = 50_000_000;

/// In-flight entries in delivery order: one FIFO bucket per `ready_at`
/// time, the front bucket holding time `front`. A push appends to its
/// bucket, so a front-to-back walk visits entries in `(ready_at, push
/// order)` — the pop order of a priority queue keyed by `(ready_at,
/// sequence)`. Removing the `k`-th entry walks `k` entries plus any
/// empty buckets between them.
struct Timeline<T> {
    front: usize,
    buckets: VecDeque<VecDeque<T>>,
    len: usize,
}

impl<T> Timeline<T> {
    fn new() -> Self {
        Timeline {
            front: 0,
            buckets: VecDeque::new(),
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Appends `item` to the bucket of time `ready_at`, prepending empty
    /// buckets when that time lies before the front one.
    fn push(&mut self, ready_at: usize, item: T) {
        if self.buckets.is_empty() {
            self.front = ready_at;
        }
        while ready_at < self.front {
            self.buckets.push_front(VecDeque::new());
            self.front -= 1;
        }
        let slot = ready_at - self.front;
        if slot >= self.buckets.len() {
            self.buckets.resize_with(slot + 1, VecDeque::new);
        }
        self.buckets[slot].push_back(item);
        self.len += 1;
    }

    /// Removes the `k`-th entry in delivery order and returns it with its
    /// `ready_at`, or `None` when at most `k` entries are queued. Buckets
    /// emptied at the front are dropped, not kept for reuse.
    fn remove_nth(&mut self, mut k: usize) -> Option<(usize, T)> {
        if k >= self.len {
            return None;
        }
        let mut slot = 0;
        while k >= self.buckets[slot].len() {
            k -= self.buckets[slot].len();
            slot += 1;
        }
        let item = self.buckets[slot].remove(k)?;
        let ready_at = self.front + slot;
        self.len -= 1;
        while self.buckets.front().is_some_and(VecDeque::is_empty) {
            self.buckets.pop_front();
            self.front += 1;
        }
        Some((ready_at, item))
    }

    fn iter(&self) -> impl Iterator<Item = &T> {
        self.buckets.iter().flatten()
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

    /// Runs `programs` (actor `i` is node `i`) to Dijkstra–Scholten
    /// quiescence on `network`.
    pub fn run<P: AsyncProgram>(
        &self,
        network: &mut Network,
        programs: &mut [P],
    ) -> Result<RuntimeReport, RuntimeError> {
        self.run_phased(network, programs, |_, _, phase| {
            Ok::<bool, RuntimeError>(phase == 0)
        })
    }

    /// Runs `programs` in driver-delimited phases: before each phase the
    /// `driver` closure is called with the network, the actors and the
    /// phase index; it may rewrite actor state (common-knowledge
    /// orchestration between barriers) and returns whether another phase
    /// should run. Each phase re-sends `Start` to every live actor and
    /// runs to Dijkstra–Scholten quiescence; one RNG stream spans all
    /// phases, so a phased run replays byte-identically from the seed.
    ///
    /// # Errors
    ///
    /// Whatever the driver raises, plus every [`RuntimeError`] a
    /// single-phase run can raise (converted via `E: From<RuntimeError>`).
    pub fn run_phased<P, E, F>(
        &self,
        network: &mut Network,
        programs: &mut [P],
        driver: F,
    ) -> Result<RuntimeReport, E>
    where
        P: AsyncProgram,
        E: From<RuntimeError>,
        F: FnMut(&mut Network, &mut [P], usize) -> Result<bool, E>,
    {
        self.run_phased_with_faults(network, programs, &FaultPlan::default(), driver)
    }

    /// [`run_phased`](Self::run_phased) with an armed [`FaultPlan`]:
    /// events fire deterministically when the cumulative delivery-step
    /// counter reaches their step, *between* deliveries. A crash severs
    /// the node in the network, forgives its Dijkstra–Scholten deficit and
    /// signs off its engagement on its behalf; subsequent application
    /// messages to it are acknowledged by the scheduler (senders' deficits
    /// still drain) and acks to it are dropped. Termination detection
    /// stays exact for the live part of the system —
    /// [`RuntimeReport::in_flight_at_detection`] counts only messages
    /// destined to live nodes.
    #[allow(clippy::too_many_lines)]
    pub fn run_phased_with_faults<P, E, F>(
        &self,
        network: &mut Network,
        programs: &mut [P],
        faults: &FaultPlan,
        mut driver: F,
    ) -> Result<RuntimeReport, E>
    where
        P: AsyncProgram,
        E: From<RuntimeError>,
        F: FnMut(&mut Network, &mut [P], usize) -> Result<bool, E>,
    {
        let n = programs.len();
        if network.node_count() != n {
            return Err(E::from(RuntimeError::InvalidInput {
                reason: format!("{n} programs for {} nodes", network.node_count()),
            }));
        }
        let mut rng = DetRng::seed_from_u64(self.seed);
        let window = self.knobs.reorder_window.max(1);
        let mut timeline: Timeline<(NodeId, Envelope<P::Message>)> = Timeline::new();
        let mut now = 0usize;
        let mut ds: Vec<DsState> = vec![DsState::default(); n];
        let mut crashed = vec![false; n];
        let mut started = vec![false; n];
        let mut fault_idx = 0usize;
        let mut report = RuntimeReport {
            scheduler: "seeded",
            seed: Some(self.seed),
            threads: None,
            n,
            steps: 0,
            app_messages: 0,
            acks: 0,
            commits: 0,
            activations: 0,
            deactivations: 0,
            in_flight_at_detection: 0,
        };
        let mut ctx: Context<P::Message> = Context::new(NodeId(0));

        let enqueue = |timeline: &mut Timeline<(NodeId, Envelope<P::Message>)>,
                       rng: &mut DetRng,
                       now: usize,
                       from: Option<NodeId>,
                       to: NodeId,
                       env: Envelope<P::Message>| {
            let jitter = if self.knobs.max_link_delay > 0 {
                rng.gen_range(0, self.knobs.max_link_delay + 1)
            } else {
                0
            };
            let base = from.map_or(0, |f| self.link_base(f, to));
            timeline.push(now + 1 + base + jitter, (to, env));
        };

        let mut phase = 0usize;
        loop {
            if !driver(network, programs, phase)? {
                break;
            }
            started.fill(false);
            let mut root_deficit = 0usize;
            for (i, _) in crashed.iter().enumerate().take(n).filter(|(_, c)| !**c) {
                enqueue(
                    &mut timeline,
                    &mut rng,
                    now,
                    None,
                    NodeId(i),
                    Envelope::Start,
                );
                root_deficit += 1;
            }
            while root_deficit > 0 {
                if report.steps >= self.max_steps {
                    return Err(E::from(RuntimeError::DidNotQuiesce {
                        steps: report.steps,
                    }));
                }
                // Fire every armed fault whose step has been reached.
                while let Some(event) = faults.events().get(fault_idx) {
                    if event.at_step > report.steps {
                        break;
                    }
                    fault_idx += 1;
                    match event.kind {
                        FaultKind::Crash(c) => {
                            if c.index() >= n || crashed[c.index()] {
                                continue;
                            }
                            network
                                .inject_crash(c)
                                .map_err(|e| E::from(RuntimeError::Sim(e)))?;
                            crashed[c.index()] = true;
                            match ds[c.index()].crash() {
                                Some(DsParent::Root) => root_deficit -= 1,
                                Some(DsParent::Node(p)) => {
                                    enqueue(&mut timeline, &mut rng, now, Some(c), p, Envelope::Ack)
                                }
                                None => {}
                            }
                        }
                        FaultKind::Join => {
                            network.inject_join();
                        }
                    }
                }
                // Deliver one of the first `window` entries in readiness
                // order, picked uniformly; with window 1 no RNG is consumed,
                // so the default knobs add zero draws to the stream.
                let candidates = window.min(timeline.len());
                let pick = if candidates > 1 {
                    rng.gen_range(0, candidates)
                } else {
                    0
                };
                let Some((ready_at, (node, env))) = timeline.remove_nth(pick) else {
                    // Unreachable by the Dijkstra–Scholten invariant (an
                    // engaged node with zero deficit disengages at its last
                    // delivery), kept as a loud failure rather than a hang.
                    return Err(E::from(RuntimeError::DidNotQuiesce {
                        steps: report.steps,
                    }));
                };
                now = now.max(ready_at);
                report.steps += 1;

                if crashed[node.index()] {
                    // The scheduler answers a crashed node's mail: starts
                    // release their root obligation, application messages
                    // are acked so the sender's deficit drains, acks are
                    // dropped (the deficit they would pay was forgiven).
                    match env {
                        Envelope::Start => root_deficit -= 1,
                        Envelope::App { from, .. } => enqueue(
                            &mut timeline,
                            &mut rng,
                            now,
                            Some(node),
                            from,
                            Envelope::Ack,
                        ),
                        Envelope::Ack => {}
                    }
                    continue;
                }

                ctx.reset(node);
                let mut immediate_root_ack = false;
                let mut ack_sender: Option<NodeId> = None;
                match env {
                    Envelope::Start => {
                        let engaged_now = ds[node.index()].on_receive(DsParent::Root);
                        if !engaged_now {
                            // An application message overtook the start signal
                            // and engaged this node first; the root's copy is
                            // acknowledged on the spot.
                            immediate_root_ack = true;
                        }
                        debug_assert!(!started[node.index()], "duplicate start");
                        started[node.index()] = true;
                        programs[node.index()].on_start(&mut ctx);
                    }
                    Envelope::App { from, msg } => {
                        report.app_messages += 1;
                        let engaged_now = ds[node.index()].on_receive(DsParent::Node(from));
                        if !engaged_now {
                            ack_sender = Some(from);
                        }
                        programs[node.index()].on_message(from, msg, &mut ctx);
                    }
                    Envelope::Ack => {
                        report.acks += 1;
                        ds[node.index()].on_ack();
                    }
                }

                // Edge operations first (one atomic commit), then the outbox.
                if !ctx.activations.is_empty() || !ctx.deactivations.is_empty() {
                    for peer in ctx.activations.drain(..) {
                        network
                            .stage_activation(node, peer)
                            .map_err(|e| E::from(RuntimeError::Sim(e)))?;
                        report.activations += 1;
                    }
                    for peer in ctx.deactivations.drain(..) {
                        network
                            .stage_deactivation(node, peer)
                            .map_err(|e| E::from(RuntimeError::Sim(e)))?;
                        report.deactivations += 1;
                    }
                    network.commit_round();
                    report.commits += 1;
                }
                if !ctx.outbox.is_empty() {
                    ds[node.index()].on_sent(ctx.outbox.len());
                    for (to, msg) in ctx.outbox.drain(..) {
                        enqueue(
                            &mut timeline,
                            &mut rng,
                            now,
                            Some(node),
                            to,
                            Envelope::App { from: node, msg },
                        );
                    }
                }
                if let Some(sender) = ack_sender {
                    enqueue(
                        &mut timeline,
                        &mut rng,
                        now,
                        Some(node),
                        sender,
                        Envelope::Ack,
                    );
                }
                if immediate_root_ack {
                    root_deficit -= 1;
                }
                match ds[node.index()].try_disengage() {
                    Some(DsParent::Root) => root_deficit -= 1,
                    Some(DsParent::Node(parent)) => enqueue(
                        &mut timeline,
                        &mut rng,
                        now,
                        Some(node),
                        parent,
                        Envelope::Ack,
                    ),
                    None => {}
                }
            }
            phase += 1;
        }
        // Leftovers can only be acks destined to crashed nodes; everything
        // aimed at a live node holds up a deficit somewhere.
        report.in_flight_at_detection = timeline
            .iter()
            .filter(|(to, _)| !crashed.get(to.index()).copied().unwrap_or(true))
            .count();
        Ok(report)
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
                    SeededScheduler::new(seed)
                        .with_knobs(knobs)
                        .run(&mut network, &mut programs)
                        .expect("run")
                        .render()
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
        let err = SeededScheduler::new(0)
            .with_max_steps(50)
            .run(&mut network, &mut programs)
            .unwrap_err();
        assert!(matches!(err, RuntimeError::DidNotQuiesce { steps: 50 }));
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
