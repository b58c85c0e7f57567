//! # adn-analysis — experiment harness
//!
//! Runs the registered algorithms of `adn-core` over parameter sweeps,
//! collects the paper's edge-complexity measures into [`RunRecord`]s
//! (named by the registry), fits the observed growth against candidate
//! complexity shapes, and formats the tables and series that regenerate
//! every claim of the paper (the full report is pinned in
//! `tests/expectations/report.txt`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod fit;
pub mod record;
pub mod stress;

pub use fit::{best_fit, FitResult, Shape};
pub use record::RunRecord;
pub use stress::{Minimized, StressCase, StressOutcome, StressReport, SweepSummary};
