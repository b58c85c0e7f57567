//! # adn-core — algorithms from the paper
//!
//! This crate contains the reproduction of every algorithm in
//! *"Distributed Computation and Reconfiguration in Actively Dynamic
//! Networks"* (Michail, Skretas, Spirakis — PODC 2020):
//!
//! * [`algorithm`] — the unified entry point: the
//!   [`ReconfigurationAlgorithm`] trait, the shared [`RunConfig`] and the
//!   [`registry`] enumerating every strategy below.
//! * [`committee`] — the shared committee-forest layer: the arena-backed
//!   partition ([`committee::CommitteeForest`]), the one-pass
//!   largest-UID selection over the snapshot's edges and the per-phase
//!   selection forest that all three committee algorithms run on.
//! * [`subroutines`] — the basic building blocks of Section 2.3 and the
//!   appendix: `TreeToStar`, `LineToCompleteBinaryTree` (synchronous and
//!   asynchronous wake-up variants) and the complete-`k`-ary-tree
//!   generalisation used by `GraphToThinWreath`.
//! * [`baselines`] — the clique-formation strategy of Section 1.2 and
//!   plain flooding, both plain synchronous round loops over the
//!   [`adn_sim::Network`] in which every node acts on its own
//!   neighbourhood only.
//! * [`graph_to_star`] — **GraphToStar** (Section 3): `O(log n)` time,
//!   `O(n log n)` total activations, `O(n)` active edges per round,
//!   spanning-star target (Depth-1 tree).
//! * [`graph_to_wreath`] — **GraphToWreath** (Section 4): bounded degree,
//!   `O(log² n)` time, `O(n log² n)` activations, complete-binary-tree
//!   target (Depth-`log n` tree).
//! * [`graph_to_thin_wreath`] — **GraphToThinWreath** (Section 5):
//!   polylogarithmic degree, `o(log² n)` time, complete
//!   polylog-degree-tree target.
//! * [`centralized`] — the centralized strategies of Section 6/Appendix D:
//!   `CutInHalf` on a spanning line and the spanning-tree → Euler-tour →
//!   virtual-ring strategy achieving `Θ(n)` total activations
//!   (Theorem 6.3).
//! * [`lower_bounds`] — the potential-function machinery
//!   (Definition D.1) and the increasing-order-ring experiment behind the
//!   Ω(log n) / Ω(n) / Ω(n log n) lower bounds of Section 6.
//! * [`tasks`] — the distributed tasks of Section 2.2 layered on top of
//!   the transformation: leader election, token dissemination and global
//!   function computation.
//!
//! Every edge operation performed by any algorithm goes through the
//! validated [`adn_sim::Network`] API, so the distance-2 activation rule is
//! enforced and the paper's edge-complexity measures are metered exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm;
pub mod baselines;
pub mod centralized;
pub mod committee;
pub mod error;
pub mod graph_to_star;
pub mod graph_to_thin_wreath;
pub mod graph_to_wreath;
pub mod lower_bounds;
pub mod outcome;
pub mod subroutines;
pub mod tasks;

pub use algorithm::{registry, AlgorithmSpec, ReconfigurationAlgorithm, RunConfig};
pub use error::CoreError;
pub use outcome::TransformationOutcome;
