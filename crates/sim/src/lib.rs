//! # adn-sim — the actively dynamic network simulator
//!
//! This crate implements the synchronous model of Section 2.1 of
//! *"Distributed Computation and Reconfiguration in Actively Dynamic
//! Networks"* (Michail, Skretas, Spirakis — PODC 2020):
//!
//! * a temporal graph `D = (V, E)` evolving in rounds, starting from the
//!   initial network `G_s = D(1)`;
//! * per-round edge **activations**, only permitted between nodes at
//!   distance exactly 2 at the beginning of the round (the *potential
//!   neighbour* rule), and edge **deactivations** of currently active
//!   edges, with the paper's conflict semantics;
//! * metering of the paper's three **edge-complexity measures**:
//!   total edge activations, maximum activated edges per round, and
//!   maximum activated degree — plus the running time in rounds.
//!
//! The main layer is [`Network`], the validated, metered temporal graph.
//! Every algorithm in `adn-core` performs its edge operations through this
//! type, so the simulator doubles as a checker: an algorithm that tried to
//! activate a non-potential neighbour would fail loudly. What nodes say to
//! each other within a round is the algorithms' business; the network
//! meters only the edges.
//!
//! A run has two observers, the two taps of the network's round-event
//! [`bus`]: the DST invariant state ([`Network::install_dst`]) and the
//! raw event recorder ([`Network::set_event_recording`]), whose
//! [`RoundEvent`] stream carries every per-round detail. The paper's
//! measures, [`EdgeMetrics`], are kept whether or not a tap is armed.
//!
//! A second, orthogonal layer is the deterministic simulation-testing
//! subsystem [`dst`]: a seeded adversary that injects crash-stop
//! failures, adversarial edge rewiring, round skew and churn between
//! rounds, plus a round-level invariant checker — all reproducible
//! bit-for-bit from a single `u64` seed.
//!
//! # Example
//!
//! ```
//! use adn_graph::{generators, NodeId};
//! use adn_sim::Network;
//!
//! // A path 0 - 1 - 2: node 0 may activate an edge to node 2 (distance 2).
//! let mut net = Network::new(generators::line(3));
//! net.stage_activation(NodeId(0), NodeId(2)).unwrap();
//! net.commit_round();
//! assert!(net.graph().has_edge(NodeId(0), NodeId(2)));
//! assert_eq!(net.metrics().total_activations, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bus;
pub mod dst;
pub mod error;
pub mod metrics;
pub mod network;

pub use bus::RoundEvent;
pub use dst::{Adversary, DstReport, DstState, FaultEvent, FaultRecord, InvariantPolicy, Scenario};
pub use error::SimError;
pub use metrics::EdgeMetrics;
pub use network::{Jump, Network, RoundSummary, WaveActivation};
