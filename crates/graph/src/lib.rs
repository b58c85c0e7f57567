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
//! * [`RootedTree`] — an explicitly rooted, oriented tree (parents /
//!   children / depths), the object manipulated by the `TreeToStar` and
//!   `LineToCompleteBinaryTree` subroutines.
//! * [`generators`] — the initial-network and target-network families used
//!   throughout the paper: lines, rings, stars, complete binary / k-ary
//!   trees, wreaths, thin wreaths, grids, random trees, connected
//!   Erdős–Rényi graphs, and more.
//! * [`traversal`] — BFS, distances, diameter, eccentricity, connectivity,
//!   spanning trees and Euler tours.
//! * [`properties`] — structural predicates (`is_star`, `is_line`,
//!   `is_ring`, depth/degree bounds, …) used to verify that the
//!   transformation algorithms reach their target family.
//! * [`uid`] — UID namespaces and assignments (sequential, random
//!   permutation, and the *increasing-order ring* assignment used by the
//!   paper's Ω(n log n) lower bound).
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

pub mod dynconn;
pub mod edgeset;
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

pub use dynconn::DynConn;
pub use edgeset::SortedEdgeSet;
pub use error::GraphError;
pub use families::GraphFamily;
pub use graph::{Edge, Graph};
pub use ids::{NodeId, Uid};
pub use rooted::RootedTree;
pub use uid::{UidAssignment, UidMap};
