//! Basic subroutines (Section 2.3 and Appendices A–C).
//!
//! * [`tree_to_star`] — `TreeToStar`: any rooted tree becomes a spanning
//!   star centred at the root in `⌈log d⌉` rounds (Proposition 2.1).
//! * [`line_to_tree`] — the synchronous `LineToCompleteBinaryTree`
//!   (Proposition 2.2) generalised to arbitrary arity `k`; `k = 2` is the
//!   paper's binary variant, `k = ⌈log n⌉` is the
//!   `LineToCompletePolylogarithmicTree` used by `GraphToThinWreath`.
//! * [`async_line_to_tree`] — the asynchronous wake-up variant
//!   (Appendix B), which the wreath algorithms run after merging rings.
//!   It holds the one copy of Proposition 2.2's jump rule, a planner over
//!   line positions, and the lockstep batch that carries the plan out on
//!   a [`Network`](adn_sim::Network); the synchronous subroutine is that
//!   batch with every node awake from round 1.
//! * [`runtime_line_to_tree`] — the same plan carried out by
//!   message-driven actors on the `adn-runtime` seeded scheduler (no round
//!   loop at all), on their own or as the rebuild mini-phase of a wreath
//!   committee run.
//! * [`runtime_committee`] — the committee algorithms (`GraphToStar`, the
//!   wreath family) as message-driven actors on the same scheduler,
//!   under the DST adversary when the network is armed.

pub mod async_line_to_tree;
pub mod line_to_tree;
pub mod runtime_committee;
pub mod runtime_line_to_tree;
pub mod tree_to_star;

pub use async_line_to_tree::run_async_line_to_tree;
pub use line_to_tree::{run_line_to_tree, LineToTreeConfig};
pub use runtime_committee::{run_runtime_star, run_runtime_wreath};
pub use runtime_line_to_tree::{run_runtime_line_to_tree, TreeActor, TreeMsg};
pub use tree_to_star::run_tree_to_star;

use adn_graph::NodeId;
use std::collections::BTreeMap;

/// Reusable scratch state for repeated line-to-tree runs.
///
/// The lockstep core runs a *batch* of node-disjoint lines (the wreath
/// engine: one line per merged ring of a phase, all rebuilt in the same
/// rounds). Every piece of per-line state lives in flat columns here —
/// per-line columns indexed by line, per-position columns holding the
/// lines back to back — so a batch costs no allocation per line once the
/// columns have grown to the largest batch seen. The flat jump plans are
/// memoised: they are pure functions of `(line length, arity)`, and early
/// phases merge many same-sized rings; the planner's own columns are
/// reused from one plan to the next.
///
/// Purely an allocation/memoisation cache: runs with and without a shared
/// scratch are behaviourally identical.
#[derive(Debug, Default)]
pub(crate) struct LineScratch {
    /// Memoised jump plans (see
    /// [`async_line_to_tree::plan_sync_schedule`]), one per distinct
    /// (line length, arity) in `plan_of`.
    pub(crate) plans: Vec<async_line_to_tree::JumpPlan>,
    /// Index into `plans` by (line length, arity).
    pub(crate) plan_of: BTreeMap<(usize, usize), usize>,
    /// The planner's working columns.
    pub(crate) plan_work: async_line_to_tree::PlanWork,
    /// Per line: `line_start[k]..line_start[k + 1]` is line `k`'s range in
    /// the per-position columns (one more entry than there are lines).
    pub(crate) line_start: Vec<usize>,
    /// Per line: index of its jump plan in `plans`.
    pub(crate) line_plan: Vec<usize>,
    /// Per line: planned jumps not yet performed (0 = finished).
    pub(crate) line_remaining: Vec<usize>,
    /// Per line: the round by which it must have finished.
    pub(crate) line_limit: Vec<usize>,
    /// Per position: the line's node.
    pub(crate) nodes: Vec<NodeId>,
    /// Per position: wake-up round (asynchronous variant).
    pub(crate) wake: Vec<usize>,
    /// Per position: current parent — a batch index (line start +
    /// position) during a run, a position within the line after it.
    pub(crate) parent_pos: Vec<usize>,
    /// Per position: number of planned jumps performed.
    pub(crate) jumps_done: Vec<usize>,
    /// Per position: a child stays behind this round and still needs the
    /// edge to this position (asynchronous marking pass).
    pub(crate) blocked: Vec<bool>,
    /// Per-round jumps of every line, in ascending line then position
    /// order, each recorded once by the marking pass.
    pub(crate) movers: Vec<async_line_to_tree::Mover>,
    /// Line-validation scratch: one duplicate mark per network node, all
    /// clear between checks.
    pub(crate) seen: Vec<bool>,
    /// Per-round jumps of every line, in the order of `movers`, for
    /// `Network::commit_jumps`.
    pub(crate) wave: Vec<adn_sim::Jump>,
}

impl LineScratch {
    /// A fresh, empty scratch.
    pub(crate) fn new() -> Self {
        LineScratch::default()
    }

    /// Empties the batch of lines for the asynchronous subroutine.
    pub(crate) fn clear_lines(&mut self) {
        self.line_start.clear();
        self.nodes.clear();
        self.wake.clear();
    }

    /// Appends one line, with the wake-up round of each of its positions,
    /// to the batch.
    pub(crate) fn push_line(&mut self, line: &[NodeId], wake: impl IntoIterator<Item = usize>) {
        if self.line_start.is_empty() {
            self.line_start.push(0);
        }
        self.nodes.extend_from_slice(line);
        self.wake.extend(wake);
        self.line_start.push(self.nodes.len());
    }

    /// Number of lines in the batch.
    pub(crate) fn line_count(&self) -> usize {
        self.line_start.len().saturating_sub(1)
    }

    /// Parent position of every position of line `k` after a run (the
    /// root, position 0, is its own entry 0).
    pub(crate) fn line_parents(&self, k: usize) -> &[usize] {
        &self.parent_pos[self.line_start[k]..self.line_start[k + 1]]
    }
}
