//! # adn-graph — static graph substrate
//!
//! Static (per-round snapshot) graph machinery used by the actively dynamic
//! network reproduction of *"Distributed Computation and Reconfiguration in
//! Actively Dynamic Networks"* (Michail, Skretas, Spirakis — PODC 2020).
//!
//! This crate provides:
//!
//! * [`Graph`] — a simple undirected graph over a fixed vertex set
//!   `0..n`, with O(1) adjacency queries (the snapshot `D(i) = (V, E(i))`
//!   of the paper's temporal graph).
//! * [`BitRows`] — a bit-row copy of a snapshot, giving every node's
//!   potential neighbours (`N_2`) and activation witnesses by word
//!   operations.
//! * [`RootedTree`] — an explicitly rooted, oriented tree (parents /
//!   children / depths), the object manipulated by the `TreeToStar` and
//!   `LineToCompleteBinaryTree` subroutines.
//! * [`generators`] — the initial-network and target-network families used
//!   throughout the paper: lines, rings, stars, complete binary / k-ary
//!   trees, grids, random trees, connected Erdős–Rényi graphs, and more.
//! * [`traversal`] — BFS, distances, diameter, eccentricity, connectivity,
//!   spanning trees and Euler tours.
//! * [`properties`] — structural predicates (`is_star`, `is_line`,
//!   `is_ring`, depth/arity bounds, …) used to verify that the
//!   transformation algorithms reach their target family.
//! * [`uid`] — UID namespaces and assignments: `Sequential` (on
//!   `ring(n)` the *increasing-order ring* of the paper's Ω(n log n)
//!   lower bound), `Reversed` and `RandomPermutation`.
//!
//! # Example
//!
//! ```
//! use adn_graph::{generators, traversal};
//!
//! let line = generators::line(16);
//! assert_eq!(traversal::diameter(&line), Some(15));
//! let star = generators::star(16);
//! assert_eq!(traversal::diameter(&star), Some(2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitrows;
pub mod error;
pub mod families;
pub mod generators;
pub mod graph;
pub mod properties;
pub mod rng;
pub mod rooted;
pub mod traversal;
pub mod uid;

mod ids;

pub use bitrows::{BitRow, BitRows};
pub use error::GraphError;
pub use families::GraphFamily;
pub use graph::{Edge, Graph};
pub use ids::{NodeId, Uid};
pub use rooted::RootedTree;
pub use uid::{UidAssignment, UidMap};
