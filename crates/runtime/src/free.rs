//! The free-running multi-threaded scheduler.
//!
//! Actors are partitioned into contiguous chunks, one worker thread per
//! chunk, and every worker drains an unbounded `std::sync::mpsc` inbox.
//! Delivery order is whatever the OS scheduler produces — this is the
//! hardware-throughput mode, not a reproducible one — but termination is
//! still exact: the same Dijkstra–Scholten bookkeeping as the seeded
//! scheduler runs inside the workers, root sign-offs flow to the main
//! thread over a channel, and the run ends when all `n` start-engagement
//! obligations have been signed off, at which point no application
//! message or ack is in flight.

use crate::actor::{AsyncProgram, Context, Envelope};
use crate::termination::{DsParent, DsState};
use crate::{RuntimeError, RuntimeReport};
use adn_graph::NodeId;
use adn_sim::network::Network;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Mutex;
use std::time::Duration;

/// Default wall-clock budget for a free-running run.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(60);

enum WorkerMsg<M> {
    Deliver { to: NodeId, env: Envelope<M> },
    Shutdown,
}

/// Shared atomic counters behind [`RuntimeReport`] in free mode.
#[derive(Default)]
struct Counters {
    steps: AtomicUsize,
    app_messages: AtomicUsize,
    acks: AtomicUsize,
    commits: AtomicUsize,
    activations: AtomicUsize,
    deactivations: AtomicUsize,
    in_flight: AtomicUsize,
}

/// Free-running scheduler: real threads, OS-determined delivery order,
/// exact Dijkstra–Scholten quiescence.
#[derive(Debug, Clone)]
pub struct FreeScheduler {
    threads: usize,
    timeout: Duration,
}

impl FreeScheduler {
    /// Scheduler with `threads` workers (clamped to `[1, n]` at run time)
    /// and the default timeout.
    pub fn new(threads: usize) -> Self {
        FreeScheduler {
            threads: threads.max(1),
            timeout: DEFAULT_TIMEOUT,
        }
    }

    /// Sets the wall-clock budget.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Worker count this scheduler was built with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `programs` in driver-delimited phases (the free-running
    /// counterpart of [`crate::SeededScheduler::run_phased`]): before each
    /// phase the driver may rewrite actor state and decides whether
    /// another phase runs; each phase spins up the worker pool and runs to
    /// Dijkstra–Scholten quiescence. Counters accumulate across phases.
    ///
    /// # Errors
    ///
    /// Whatever the driver raises, plus every [`RuntimeError`] a
    /// single-phase run can raise.
    pub fn run_phased<P, E, F>(
        &self,
        network: &mut Network,
        programs: &mut [P],
        mut driver: F,
    ) -> Result<RuntimeReport, E>
    where
        P: AsyncProgram,
        E: From<RuntimeError>,
        F: FnMut(&mut Network, &mut [P], usize) -> Result<bool, E>,
    {
        let n = programs.len();
        let mut report = RuntimeReport {
            scheduler: "free",
            seed: None,
            threads: Some(self.threads.min(n.max(1))),
            n,
            steps: 0,
            app_messages: 0,
            acks: 0,
            commits: 0,
            activations: 0,
            deactivations: 0,
            in_flight_at_detection: 0,
        };
        let mut phase = 0usize;
        loop {
            if !driver(network, programs, phase)? {
                break;
            }
            let r = self.run(network, programs).map_err(E::from)?;
            report.steps += r.steps;
            report.app_messages += r.app_messages;
            report.acks += r.acks;
            report.commits += r.commits;
            report.activations += r.activations;
            report.deactivations += r.deactivations;
            report.in_flight_at_detection = r.in_flight_at_detection;
            phase += 1;
        }
        Ok(report)
    }

    /// Runs `programs` (actor `i` is node `i`) to Dijkstra–Scholten
    /// quiescence on `network` using free-running worker threads.
    pub fn run<P: AsyncProgram>(
        &self,
        network: &mut Network,
        programs: &mut [P],
    ) -> Result<RuntimeReport, RuntimeError> {
        let n = network.node_count();
        if programs.len() != n {
            return Err(RuntimeError::InvalidInput {
                reason: format!("{} programs for {n} nodes", programs.len()),
            });
        }
        if n == 0 {
            return Err(RuntimeError::InvalidInput {
                reason: "empty network".to_string(),
            });
        }
        let workers = self.threads.min(n);
        let chunk = n.div_ceil(workers);

        let mut senders: Vec<Sender<WorkerMsg<P::Message>>> = Vec::with_capacity(workers);
        let mut receivers: Vec<Receiver<WorkerMsg<P::Message>>> = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = channel();
            senders.push(tx);
            receivers.push(rx);
        }
        let (root_tx, root_rx) = channel::<()>();

        let counters = Counters::default();
        let network_lock = Mutex::new(network);
        let first_error: Mutex<Option<RuntimeError>> = Mutex::new(None);

        let outcome = std::thread::scope(|scope| {
            let chunks: Vec<&mut [P]> = programs.chunks_mut(chunk).collect();
            debug_assert_eq!(chunks.len(), workers);
            for ((w, body), rx) in chunks.into_iter().enumerate().zip(receivers) {
                let base = w * chunk;
                let senders = senders.clone();
                let root_tx = root_tx.clone();
                let counters = &counters;
                let network_lock = &network_lock;
                let first_error = &first_error;
                scope.spawn(move || {
                    worker_loop(
                        base,
                        body,
                        rx,
                        &senders,
                        &root_tx,
                        counters,
                        network_lock,
                        first_error,
                        chunk,
                    );
                });
            }

            // Kick off the diffusing computation: one start per actor.
            for i in 0..n {
                counters.in_flight.fetch_add(1, Ordering::SeqCst);
                let _ = senders[i / chunk].send(WorkerMsg::Deliver {
                    to: NodeId(i),
                    env: Envelope::Start,
                });
            }

            // Root deficit is n; count the sign-offs.
            let deadline = std::time::Instant::now() + self.timeout;
            let mut signed_off = 0usize;
            while signed_off < n {
                let budget = deadline.saturating_duration_since(std::time::Instant::now());
                match root_rx.recv_timeout(budget) {
                    Ok(()) => signed_off += 1,
                    Err(_) => break,
                }
            }
            let in_flight = counters.in_flight.load(Ordering::SeqCst);
            for tx in &senders {
                let _ = tx.send(WorkerMsg::Shutdown);
            }
            (signed_off == n, in_flight)
        });
        let (quiesced, in_flight) = outcome;

        if let Some(err) = first_error.into_inner().expect("error mutex") {
            return Err(err);
        }
        if !quiesced {
            return Err(RuntimeError::TimedOut);
        }
        Ok(RuntimeReport {
            scheduler: "free",
            seed: None,
            threads: Some(workers),
            n,
            steps: counters.steps.load(Ordering::SeqCst),
            app_messages: counters.app_messages.load(Ordering::SeqCst),
            acks: counters.acks.load(Ordering::SeqCst),
            commits: counters.commits.load(Ordering::SeqCst),
            activations: counters.activations.load(Ordering::SeqCst),
            deactivations: counters.deactivations.load(Ordering::SeqCst),
            in_flight_at_detection: in_flight,
        })
    }
}

/// One worker: owns the actors in `body` (global ids `base..base + len`)
/// and processes deliveries until shutdown.
#[allow(clippy::too_many_arguments)]
fn worker_loop<P: AsyncProgram>(
    base: usize,
    body: &mut [P],
    rx: Receiver<WorkerMsg<P::Message>>,
    senders: &[Sender<WorkerMsg<P::Message>>],
    root_tx: &Sender<()>,
    counters: &Counters,
    network_lock: &Mutex<&mut Network>,
    first_error: &Mutex<Option<RuntimeError>>,
    chunk: usize,
) {
    let mut ds: Vec<DsState> = body.iter().map(|_| DsState::default()).collect();
    let mut ctx: Context<P::Message> = Context::new(NodeId(base));
    let send_to = |to: NodeId, env: Envelope<P::Message>| {
        counters.in_flight.fetch_add(1, Ordering::SeqCst);
        let _ = senders[to.index() / chunk].send(WorkerMsg::Deliver { to, env });
    };
    while let Ok(msg) = rx.recv() {
        let (to, env) = match msg {
            WorkerMsg::Deliver { to, env } => (to, env),
            WorkerMsg::Shutdown => break,
        };
        counters.in_flight.fetch_sub(1, Ordering::SeqCst);
        counters.steps.fetch_add(1, Ordering::SeqCst);
        let local = to.index() - base;
        ctx.reset(to);
        let mut immediate_root_ack = false;
        let mut ack_sender: Option<NodeId> = None;
        match env {
            Envelope::Start => {
                if !ds[local].on_receive(DsParent::Root) {
                    immediate_root_ack = true;
                }
                body[local].on_start(&mut ctx);
            }
            Envelope::App { from, msg } => {
                counters.app_messages.fetch_add(1, Ordering::SeqCst);
                if !ds[local].on_receive(DsParent::Node(from)) {
                    ack_sender = Some(from);
                }
                body[local].on_message(from, msg, &mut ctx);
            }
            Envelope::Ack => {
                counters.acks.fetch_add(1, Ordering::SeqCst);
                ds[local].on_ack();
            }
        }
        if !ctx.activations.is_empty() || !ctx.deactivations.is_empty() {
            // Stage + commit under one lock so each handler's edge ops
            // land as one atomic reconfiguration round.
            let mut net = network_lock.lock().expect("network lock");
            let mut failed = false;
            for peer in ctx.activations.drain(..) {
                match net.stage_activation(to, peer) {
                    Ok(_) => {
                        counters.activations.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(e) => {
                        record_error(first_error, e.into());
                        failed = true;
                    }
                }
            }
            for peer in ctx.deactivations.drain(..) {
                match net.stage_deactivation(to, peer) {
                    Ok(_) => {
                        counters.deactivations.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(e) => {
                        record_error(first_error, e.into());
                        failed = true;
                    }
                }
            }
            if !failed {
                net.commit_round();
                counters.commits.fetch_add(1, Ordering::SeqCst);
            }
        }
        if !ctx.outbox.is_empty() {
            ds[local].on_sent(ctx.outbox.len());
            let outbox: Vec<(NodeId, P::Message)> = ctx.outbox.drain(..).collect();
            for (dest, payload) in outbox {
                send_to(
                    dest,
                    Envelope::App {
                        from: to,
                        msg: payload,
                    },
                );
            }
        }
        if let Some(sender) = ack_sender {
            send_to(sender, Envelope::Ack);
        }
        if immediate_root_ack {
            let _ = root_tx.send(());
        }
        match ds[local].try_disengage() {
            Some(DsParent::Root) => {
                let _ = root_tx.send(());
            }
            Some(DsParent::Node(parent)) => send_to(parent, Envelope::Ack),
            None => {}
        }
    }
}

fn record_error(slot: &Mutex<Option<RuntimeError>>, err: RuntimeError) {
    let mut guard = slot.lock().expect("error slot");
    guard.get_or_insert(err);
}

#[cfg(test)]
mod tests {
    use super::*;
    use adn_graph::generators;

    struct Echo {
        neighbors: Vec<NodeId>,
        kick: bool,
        seen: usize,
    }

    impl AsyncProgram for Echo {
        type Message = u32;
        fn on_start(&mut self, ctx: &mut Context<u32>) {
            if self.kick {
                for &nb in &self.neighbors {
                    ctx.send(nb, 3);
                }
            }
        }
        fn on_message(&mut self, from: NodeId, msg: u32, ctx: &mut Context<u32>) {
            self.seen += 1;
            if msg > 1 {
                ctx.send(from, msg - 1);
            }
        }
    }

    #[test]
    fn free_run_quiesces_on_a_ring() {
        let graph = generators::ring(16);
        let mut network = Network::new(graph.clone());
        let mut programs: Vec<Echo> = (0..16)
            .map(|i| Echo {
                neighbors: graph.neighbors_slice(NodeId(i)).to_vec(),
                kick: i == 0,
                seen: 0,
            })
            .collect();
        let report = FreeScheduler::new(4)
            .run(&mut network, &mut programs)
            .expect("run");
        // Node 0 kicks both neighbours with 3; each exchange is 3 -> 2 -> 1.
        assert_eq!(report.app_messages, 6);
        assert_eq!(report.in_flight_at_detection, 0);
        assert_eq!(report.threads, Some(4));
    }

    #[test]
    fn timeout_fires_on_endless_chatter() {
        struct Chatter {
            peer: NodeId,
        }
        impl AsyncProgram for Chatter {
            type Message = ();
            fn on_start(&mut self, ctx: &mut Context<()>) {
                ctx.send(self.peer, ());
            }
            fn on_message(&mut self, from: NodeId, _msg: (), ctx: &mut Context<()>) {
                ctx.send(from, ());
            }
        }
        let graph = generators::line(2);
        let mut network = Network::new(graph);
        let mut programs = vec![Chatter { peer: NodeId(1) }, Chatter { peer: NodeId(0) }];
        let err = FreeScheduler::new(2)
            .with_timeout(Duration::from_millis(50))
            .run(&mut network, &mut programs)
            .unwrap_err();
        assert_eq!(err, RuntimeError::TimedOut);
    }
}
