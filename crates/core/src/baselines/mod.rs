//! Baseline strategies the paper compares against.
//!
//! * [`clique`] — the clique-formation strategy of Section 1.2: every node
//!   activates edges to all of its potential neighbours every round, which
//!   forms `K_n` in `O(log n)` rounds but costs `Θ(n²)` activations,
//!   `Θ(n²)` active edges and `Θ(n)` degree. Each round reads every
//!   `N_2` off a bit-row copy of its snapshot
//!   ([`adn_graph::BitRows`]) and stages each new edge once, witnessed.
//! * [`flooding`] — plain information flooding over the (static) initial
//!   network: no edge activations at all, but `Θ(diameter)` rounds, which
//!   is `Θ(n)` in the worst case.

pub mod clique;
pub mod flooding;

pub use clique::run_clique_then_prune;
