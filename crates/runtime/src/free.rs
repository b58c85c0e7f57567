//! The free-running multi-threaded scheduler.
//!
//! Actors are partitioned into contiguous chunks, one worker thread per
//! chunk, and every worker drains an unbounded `std::sync::mpsc` inbox.
//! Delivery order is whatever the OS scheduler produces — this is the
//! hardware-throughput mode, not a reproducible one — but termination is
//! still exact: every worker runs the shared [`deliver`](crate::termination)
//! step, root sign-offs flow to the main thread over a channel, and the
//! run ends when all `n` start-engagement obligations have been signed
//! off, at which point no application message or ack is in flight. Each
//! worker counts its deliveries into its own copy of the report; the
//! copies are summed when the workers are joined. A [`FreeRun`] spins up
//! the worker pool once per barrier and adds each barrier's counts to
//! its report.
//!
//! A node the network's DST adversary joins after the run started has no
//! actor: its mail is answered by the seeded scheduler's rule (an
//! application message is acknowledged), here by the sender's transport
//! as soon as it is sent. Actors of crashed nodes are not retired; they
//! keep acknowledging their mail, and the network drops the edge
//! operations they stage.

use crate::actor::{AsyncProgram, Context, Envelope};
use crate::termination::{commit_ops, deliver, DsState, Transport};
use crate::{check_barrier, RuntimeError, RuntimeReport};
use adn_graph::NodeId;
use adn_sim::network::Network;
use adn_sim::SimError;
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

/// Free-running scheduler: real threads, OS-determined delivery order,
/// exact Dijkstra–Scholten quiescence.
#[derive(Debug, Clone)]
pub struct FreeScheduler {
    threads: usize,
    timeout: Duration,
}

impl FreeScheduler {
    /// Scheduler with up to `threads` workers and the default timeout. A
    /// run of `n` actors gives each worker a chunk of
    /// `⌈n / min(threads, n)⌉` of them, so fewer workers may run.
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

    /// How a run splits `n` actors: each worker owns a contiguous chunk of
    /// `⌈n / min(threads, n)⌉` actors, and as many workers run as it takes
    /// chunks to cover `n` (9 actors on 4 threads make 3 chunks of 3).
    /// Returns `(chunk, workers)`.
    fn partition(&self, n: usize) -> (usize, usize) {
        let chunk = n.div_ceil(self.threads.min(n).max(1));
        (chunk, n.div_ceil(chunk.max(1)))
    }

    /// Starts a run of `n` actors (actor `i` is node `i`) on `network`.
    /// Its barriers run these actors even if the network grows by churn
    /// joins.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidInput`] unless `n` is positive and the
    /// network's node count.
    pub fn start(&self, network: &Network, n: usize) -> Result<FreeRun, RuntimeError> {
        if n == 0 || network.node_count() != n {
            return Err(RuntimeError::InvalidInput {
                reason: format!("{n} programs for {} nodes", network.node_count()),
            });
        }
        let (_, workers) = self.partition(n);
        Ok(FreeRun {
            scheduler: self.clone(),
            report: RuntimeReport::empty("free", None, Some(workers), n),
        })
    }

    /// Runs `programs` (actor `i` is node `i`) to Dijkstra–Scholten
    /// quiescence on `network` using free-running worker threads: a run of
    /// one barrier.
    ///
    /// # Errors
    ///
    /// As [`start`](Self::start) and [`FreeRun::barrier`].
    pub fn run<P: AsyncProgram>(
        &self,
        network: &mut Network,
        programs: &mut [P],
    ) -> Result<RuntimeReport, RuntimeError> {
        let mut run = self.start(network, programs.len())?;
        run.barrier(network, programs)?;
        Ok(run.finish())
    }

    /// One diffusing computation over `programs` (actor `i` is node `i`);
    /// the caller has checked the actor count.
    fn run_barrier<P: AsyncProgram>(
        &self,
        network: &mut Network,
        programs: &mut [P],
    ) -> Result<RuntimeReport, RuntimeError> {
        let n = programs.len();
        let (chunk, workers) = self.partition(n);

        let mut senders: Vec<Sender<WorkerMsg<P::Message>>> = Vec::with_capacity(workers);
        let mut receivers: Vec<Receiver<WorkerMsg<P::Message>>> = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = channel();
            senders.push(tx);
            receivers.push(rx);
        }
        let (root_tx, root_rx) = channel::<()>();

        let in_flight = AtomicUsize::new(0);
        let network = Mutex::new(network);
        let first_error: Mutex<Option<SimError>> = Mutex::new(None);
        let mut report = RuntimeReport::empty("free", None, Some(workers), n);

        let quiesced = std::thread::scope(|scope| {
            let handles: Vec<_> = programs
                .chunks_mut(chunk)
                .zip(receivers)
                .enumerate()
                .map(|(w, (body, rx))| {
                    let wire = Wire {
                        senders: senders.clone(),
                        actors: n,
                        chunk,
                        in_flight: &in_flight,
                        root_tx: root_tx.clone(),
                        network: &network,
                    };
                    let tally = report.clone();
                    let first_error = &first_error;
                    scope.spawn(move || worker_loop(w * chunk, body, rx, wire, tally, first_error))
                })
                .collect();

            // Kick off the diffusing computation: one start per actor.
            for i in 0..n {
                in_flight.fetch_add(1, Ordering::SeqCst);
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
            report.in_flight_at_detection = in_flight.load(Ordering::SeqCst);
            for tx in &senders {
                let _ = tx.send(WorkerMsg::Shutdown);
            }
            for handle in handles {
                report.add_counts(&handle.join().expect("free scheduler worker panicked"));
            }
            signed_off == n
        });

        if let Some(err) = first_error.into_inner().expect("error mutex") {
            return Err(RuntimeError::Sim(err));
        }
        if !quiesced {
            return Err(RuntimeError::TimedOut);
        }
        Ok(report)
    }
}

/// A free run in progress (see [`FreeScheduler::start`]): the report its
/// barriers add up.
pub struct FreeRun {
    scheduler: FreeScheduler,
    report: RuntimeReport,
}

impl FreeRun {
    /// Sends `Start` to every actor of `programs` and runs one diffusing
    /// computation to Dijkstra–Scholten quiescence on a fresh worker pool,
    /// adding its counters to the run's. Actors of crashed nodes are not
    /// retired; a node joined after the run started has its application
    /// mail acknowledged by the sender's transport.
    ///
    /// # Errors
    ///
    /// * [`RuntimeError::InvalidInput`] if `programs` is not one actor per
    ///   node of the run.
    /// * [`RuntimeError::TimedOut`] if the scheduler's timeout elapses
    ///   first.
    /// * [`RuntimeError::Sim`] for the first edge operation the network
    ///   rejected.
    pub fn barrier<P: AsyncProgram>(
        &mut self,
        network: &mut Network,
        programs: &mut [P],
    ) -> Result<(), RuntimeError> {
        check_barrier(programs.len(), self.report.n)?;
        let r = self.scheduler.run_barrier(network, programs)?;
        self.report.add_counts(&r);
        self.report.in_flight_at_detection = r.in_flight_at_detection;
        Ok(())
    }

    /// Ends the run and returns its report.
    pub fn finish(self) -> RuntimeReport {
        self.report
    }
}

/// A worker's transport: every worker's inbox, the actor count, the
/// global in-flight count, the root's sign-off channel and the shared
/// network, locked for each handler's commit so its edge operations land
/// as one round.
struct Wire<'a, M> {
    senders: Vec<Sender<WorkerMsg<M>>>,
    actors: usize,
    chunk: usize,
    in_flight: &'a AtomicUsize,
    root_tx: Sender<()>,
    network: &'a Mutex<&'a mut Network>,
}

impl<M> Transport<M> for Wire<'_, M> {
    fn send(&mut self, from: NodeId, to: NodeId, env: Envelope<M>) {
        if to.index() >= self.actors {
            // A node joined after the run started has no actor: its
            // application mail is acknowledged on its behalf.
            if let Envelope::App { .. } = env {
                self.send(to, from, Envelope::Ack);
            }
            return;
        }
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        let _ = self.senders[to.index() / self.chunk].send(WorkerMsg::Deliver { to, env });
    }

    fn sign_off_root(&mut self) {
        let _ = self.root_tx.send(());
    }

    fn commit(&mut self, ctx: &mut Context<M>, report: &mut RuntimeReport) -> Result<(), SimError> {
        let mut network = self.network.lock().expect("network lock");
        commit_ops(&mut network, ctx, report)
    }
}

/// One worker: owns the actors in `body` (global ids `base..base + len`),
/// delivers to them until shutdown and returns its tally. The first edge
/// operation any worker's network rejects is kept in `first_error`.
fn worker_loop<P: AsyncProgram>(
    base: usize,
    body: &mut [P],
    rx: Receiver<WorkerMsg<P::Message>>,
    mut wire: Wire<'_, P::Message>,
    mut tally: RuntimeReport,
    first_error: &Mutex<Option<SimError>>,
) -> RuntimeReport {
    let mut ds: Vec<DsState> = vec![DsState::default(); body.len()];
    let mut ctx: Context<P::Message> = Context::new(NodeId(base));
    while let Ok(WorkerMsg::Deliver { to, env }) = rx.recv() {
        wire.in_flight.fetch_sub(1, Ordering::SeqCst);
        tally.steps += 1;
        let local = to.index() - base;
        let delivered = deliver(
            &mut body[local],
            &mut ds[local],
            &mut ctx,
            to,
            env,
            &mut wire,
            &mut tally,
        );
        if let Err(e) = delivered {
            first_error.lock().expect("error slot").get_or_insert(e);
        }
    }
    tally
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
    fn reports_the_workers_that_ran() {
        // Nine actors on four threads make chunks of three, so three
        // workers run, and both a one-barrier run and a started run say so.
        let graph = generators::ring(9);
        let mut network = Network::new(graph.clone());
        let mut actors = crate::flood::flood_actors(&graph);
        let scheduler = FreeScheduler::new(4);
        let report = scheduler.run(&mut network, &mut actors).expect("run");
        assert_eq!(report.threads, Some(3));
        assert!(actors.iter().all(|a| a.known().len() == 9));
        let mut run = scheduler.start(&network, 9).expect("start");
        run.barrier(&mut network, &mut actors).expect("barrier");
        assert_eq!(run.finish().threads, Some(3));
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
