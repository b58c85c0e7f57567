//! # adn-runtime
//!
//! Actor-based **asynchronous** execution for actively dynamic networks.
//!
//! The paper's algorithms are specified in synchronous rounds and the
//! `adn-sim` engine runs them in lock step. This crate drops the round
//! barrier: every node is an actor with an inbox, local state and a
//! message handler ([`AsyncProgram`]), and message delivery is driven by
//! the [`SeededScheduler`]: single-threaded discrete-event delivery whose
//! entire order (including reordering, per-link delays and asymmetric
//! link latency, see [`AsyncKnobs`]) derives from **one `u64`** via the
//! workspace's deterministic RNG. Runs replay byte-identically,
//! preserving the DST replay/shrink discipline of the synchronous sweep,
//! so a delivery order that breaks a protocol replays from its seed.
//!
//! Runs quiesce without a round counter via **Dijkstra–Scholten
//! termination detection** ([`termination`]): the scheduler acts as the
//! root of a diffusing computation, every application message carries an
//! ack obligation, and the run ends exactly when the root's deficit
//! reaches zero — at which point no message is in flight (property-tested
//! in `tests/runtime_model.rs`). Each delivery step engages, handles,
//! commits, sends, acks and signs off. A [`SeededRun`] is a sequence of
//! such diffusing computations under one report:
//! [`SeededScheduler::start`] opens it, the caller issues each barrier
//! ([`SeededRun::barrier`]) and may rewrite actor state between two, and
//! [`SeededRun::finish`] returns the report. The committee algorithms of
//! `adn-core` issue every mini-phase, their ring rebuilds included, as a
//! barrier of one run, so nothing runs nested in it;
//! [`SeededScheduler::run`] is a run of one barrier.
//!
//! Edge operations requested by a handler ([`Context::activate`] /
//! [`Context::deactivate`]) are staged and committed through the
//! validated [`adn_sim::Network`] API atomically with respect to other
//! handlers, so the distance-2 activation rule is enforced exactly as in
//! the synchronous engine.
//!
//! **Faults.** Each commit is a round of the network, so a network armed
//! with the DST adversary ([`adn_sim::dst`]) gives it a turn at every
//! commit, as the synchronous engine does: both engines share one fault
//! vocabulary. After each delivery that committed, the scheduler retires
//! every actor whose node the adversary crashed (its Dijkstra–Scholten
//! deficit forgiven, its engagement signed off on its behalf). It answers
//! mail to a node without a live actor — a crashed one, or one the
//! adversary joined after the run started — in its stead: application
//! messages are acknowledged and acks dropped, so termination detection
//! neither hangs nor fires early.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actor;
pub mod flood;
pub mod seeded;
pub mod termination;

pub use actor::{AsyncProgram, Context, Envelope};
pub use flood::FloodActor;
pub use seeded::{SeededRun, SeededScheduler};

use adn_sim::dst::Scenario;
use adn_sim::SimError;
use std::error::Error;
use std::fmt;

/// Delivery-perturbation knobs for the seeded scheduler, normally
/// lifted from a [`Scenario`]'s async fields (see
/// [`AsyncKnobs::from_scenario`]). All zero/false means "earliest first,
/// no reordering".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AsyncKnobs {
    /// The seeded scheduler picks each delivery uniformly among the first
    /// `max(1, reorder_window)` in-flight messages in readiness order.
    pub reorder_window: usize,
    /// Maximum extra per-message delay (in scheduler steps), drawn
    /// uniformly from `0..=max_link_delay` per message.
    pub max_link_delay: usize,
    /// Give every ordered link a fixed base latency in
    /// `0..=2*max_link_delay`, derived deterministically from the
    /// scheduler seed — the two directions of a link run at persistently
    /// different speeds.
    pub asymmetric_delay: bool,
}

impl AsyncKnobs {
    /// Lifts the asynchronous delivery knobs out of a scenario (the fault
    /// weights and budgets drive the DST adversary armed on the network,
    /// and are ignored here).
    pub fn from_scenario(scenario: &Scenario) -> Self {
        AsyncKnobs {
            reorder_window: scenario.reorder_window,
            max_link_delay: scenario.max_link_delay,
            asymmetric_delay: scenario.asymmetric_delay,
        }
    }
}

/// Errors raised by the asynchronous runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// An edge operation requested by a handler was rejected by the
    /// network (distance-2 violation, unknown node, …).
    Sim(SimError),
    /// The scheduler exceeded its delivery-step budget without the
    /// termination detector firing.
    DidNotQuiesce {
        /// Deliveries performed before giving up.
        steps: usize,
    },
    /// Malformed run setup (program count vs. network size, …).
    InvalidInput {
        /// Human-readable description.
        reason: String,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Sim(e) => write!(f, "simulator error: {e}"),
            RuntimeError::DidNotQuiesce { steps } => {
                write!(f, "run did not quiesce within {steps} delivery steps")
            }
            RuntimeError::InvalidInput { reason } => write!(f, "invalid input: {reason}"),
        }
    }
}

impl Error for RuntimeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RuntimeError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for RuntimeError {
    fn from(value: SimError) -> Self {
        RuntimeError::Sim(value)
    }
}

/// What a completed asynchronous run did, with a stable
/// [`render`](RuntimeReport::render) for the seeded replay gate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeReport {
    /// The scheduler seed the run replays from.
    pub seed: u64,
    /// Number of actors.
    pub n: usize,
    /// Envelope deliveries performed (start + application + ack).
    pub steps: usize,
    /// Application messages delivered.
    pub app_messages: usize,
    /// Acknowledgements delivered (Dijkstra–Scholten bookkeeping).
    pub acks: usize,
    /// Edge-operation rounds committed on the network.
    pub commits: usize,
    /// Edges the committed rounds activated: the sum of their
    /// `RoundSummary::activations`, so an activation of an edge already
    /// present counts nothing, as in the network's metrics.
    pub activations: usize,
    /// Edges the committed rounds deactivated: the sum of their
    /// `RoundSummary::deactivations`.
    pub deactivations: usize,
    /// Messages still in flight when the termination detector fired
    /// (provably zero — exposed so the property test can assert it).
    pub in_flight_at_detection: usize,
}

impl RuntimeReport {
    /// A report with every counter at zero.
    pub(crate) fn empty(seed: u64, n: usize) -> Self {
        RuntimeReport {
            seed,
            n,
            steps: 0,
            app_messages: 0,
            acks: 0,
            commits: 0,
            activations: 0,
            deactivations: 0,
            in_flight_at_detection: 0,
        }
    }

    /// Renders the report as stable text: the byte-identity replay
    /// artifact (same seed ⇒ same bytes).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "runtime: scheduler seeded seed {} · n {}\n",
            self.seed, self.n
        ));
        out.push_str(&format!(
            "  steps {} · app messages {} · acks {}\n",
            self.steps, self.app_messages, self.acks
        ));
        out.push_str(&format!(
            "  commits {} · activations {} · deactivations {}\n",
            self.commits, self.activations, self.deactivations
        ));
        out.push_str(&format!(
            "  termination: detected (Dijkstra–Scholten) · in flight {}\n",
            self.in_flight_at_detection
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adn_graph::NodeId;
    use adn_sim::network::Network;

    #[test]
    fn knobs_lift_from_scenario() {
        let s = Scenario::async_asymmetric();
        let k = AsyncKnobs::from_scenario(&s);
        assert!(k.asymmetric_delay);
        assert_eq!(k.max_link_delay, s.max_link_delay);
        let clean = AsyncKnobs::from_scenario(&Scenario::failure_free());
        assert_eq!(clean, AsyncKnobs::default());
    }

    /// On start, ring node `i` activates the edge to `i + 2` and sends
    /// one message to each ring neighbour.
    struct Chord {
        n: usize,
    }

    impl AsyncProgram for Chord {
        type Message = ();

        fn on_start(&mut self, ctx: &mut Context<()>) {
            let i = ctx.id().index();
            ctx.activate(NodeId((i + 2) % self.n));
            ctx.send(NodeId((i + 1) % self.n), ());
            ctx.send(NodeId((i + self.n - 1) % self.n), ());
        }

        fn on_message(&mut self, _from: NodeId, _msg: (), _ctx: &mut Context<()>) {}
    }

    fn chords(n: usize) -> Vec<Chord> {
        (0..n).map(|_| Chord { n }).collect()
    }

    fn counters(r: &RuntimeReport) -> [usize; 7] {
        [
            r.steps,
            r.app_messages,
            r.acks,
            r.commits,
            r.activations,
            r.deactivations,
            r.in_flight_at_detection,
        ]
    }

    #[test]
    fn knobs_do_not_change_the_counters() {
        let n = 12;
        let adversarial = AsyncKnobs {
            reorder_window: 6,
            max_link_delay: 3,
            asymmetric_delay: true,
        };
        for scheduler in [
            SeededScheduler::new(5),
            SeededScheduler::new(5).with_knobs(adversarial),
        ] {
            // Two one-barrier runs on one network: n starts, 2n messages
            // and their 2n acks each; one commit per start, which activates
            // its edge the first time and finds it present the second.
            let mut network = Network::new(adn_graph::generators::ring(n));
            let mut programs = chords(n);
            let first = scheduler.run(&mut network, &mut programs).expect("run");
            let second = scheduler.run(&mut network, &mut programs).expect("run");
            assert_eq!(
                counters(&first),
                [5 * n, 2 * n, 2 * n, n, n, 0, 0],
                "{scheduler:?}"
            );
            assert_eq!(
                counters(&second),
                [5 * n, 2 * n, 2 * n, n, 0, 0, 0],
                "{scheduler:?}"
            );
            assert_eq!(network.graph().edge_count(), 2 * n, "{scheduler:?}");

            // A run of the same two barriers counts their sum.
            let mut network = Network::new(adn_graph::generators::ring(n));
            let mut run = scheduler.start(&network, n).expect("start");
            run.barrier(&mut network, &mut programs).expect("barrier");
            run.barrier(&mut network, &mut programs).expect("barrier");
            let (first, second) = (counters(&first), counters(&second));
            let sum: [usize; 7] = std::array::from_fn(|i| first[i] + second[i]);
            assert_eq!(counters(&run.finish()), sum, "{scheduler:?}");
            assert_eq!(network.graph().edge_count(), 2 * n, "{scheduler:?}");
        }
    }

    #[test]
    fn runs_check_their_actor_count() {
        let n = 6;
        let mut network = Network::new(adn_graph::generators::ring(n));
        let mut programs = chords(n);
        let scheduler = SeededScheduler::new(1);
        let short = scheduler.start::<()>(&network, n - 1);
        assert!(matches!(short, Err(RuntimeError::InvalidInput { .. })));
        let mut run = scheduler.start(&network, n).expect("start");
        let err = run.barrier(&mut network, &mut programs[1..]).unwrap_err();
        assert!(matches!(err, RuntimeError::InvalidInput { .. }));
        run.barrier(&mut network, &mut programs).expect("barrier");
        assert_eq!(run.finish().app_messages, 2 * n);
        // A run of no actors is accepted.
        let empty = Network::new(adn_graph::Graph::new(0));
        assert!(scheduler.start::<()>(&empty, 0).is_ok());
    }

    #[test]
    fn report_render_is_stable() {
        let report = RuntimeReport {
            seed: 7,
            n: 4,
            steps: 12,
            app_messages: 5,
            acks: 5,
            commits: 2,
            activations: 2,
            deactivations: 1,
            in_flight_at_detection: 0,
        };
        let text = report.render();
        assert!(text.starts_with("runtime: scheduler seeded seed 7 · n 4\n"));
        assert!(text.contains("in flight 0"));
        assert_eq!(text, report.clone().render());
    }
}
