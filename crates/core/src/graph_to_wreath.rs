//! **GraphToWreath** (Section 4): bounded-degree transformation into a
//! spanning complete binary tree.
//!
//! Committees are *wreaths*: the union of a ring (used for merging) and a
//! complete binary tree spanning the ring (used for intra-committee
//! communication), Definition 4.1. Each phase, every committee selects the
//! largest-UID neighbouring committee over the current snapshot, in one
//! pass over its edges by
//! [`CommitteeForest::select_largest_uid_neighbors`]; the selection edges
//! form a forest of committee trees, and each tree merges into its root in
//! a single phase by (i) splicing all rings into one spanning ring with the
//! chained construction of Appendix B ("Merging the Spanning Ring
//! Subgraph"), (ii) discarding the old tree edges and (iii) rebuilding a
//! complete binary tree over the merged ring with the (asynchronous)
//! `LineToCompleteBinaryTree` subroutine, keeping the ring edges so the
//! result is again a wreath. As in Appendix B, the rebuilds of all
//! roots of a phase run in parallel: the merged rings form one lockstep
//! batch of the subroutine, so a phase costs the slowest rebuild's rounds,
//! not the sum over its roots. When a single committee remains, the
//! termination phase deletes everything except the tree, solving
//! Depth-`log n` Tree with the elected leader `u_max` at the root.
//!
//! The phase rules — selection set-up, each splice level's plan and its
//! round-B guards, ring materialization, the clean-up list, tree install
//! and retire, and the termination keep-set — are methods of one
//! `WreathState`, written once here. The clean-up and the keep-set are
//! read off per-node columns the state keeps anyway (the rings' successor
//! pointers and marks, each node's tree parent), so neither builds an
//! edge set. This module's round engine runs them with its own round
//! accounting (communication charges, the lockstep rebuild batch); the
//! asynchronous runtime's committee actors
//! (`subroutines::runtime_committee`) run them between their barriers.
//!
//! Complexity (Theorem 4.2): `O(log² n)` rounds, `O(n log² n)` total edge
//! activations, `O(n)` active edges per round and `O(1)` maximum activated
//! degree (the total degree is bounded by a constant plus the initial
//! degree). The tests check all of these, and the experiment report (T1)
//! regenerates them. The round bound `3·⌈log₂ n⌉²` is pinned up to
//! n = 4096 on random UID permutations only: with monotone UIDs
//! (sequential or reversed) along a line the selection tree is a path,
//! splicing runs one BFS level per two rounds, and a run takes Θ(n)
//! rounds (521, 2059 and 8205 at n = 256, 1024 and 4096).
//!
//! The same engine, instantiated with a polylogarithmic tree arity, yields
//! [`crate::graph_to_thin_wreath`] (Section 5).

use crate::algorithm::{validate_input, RunConfig};
use crate::committee::{CommitteeForest, CommitteeId, PhaseLog, SelectionForest};
use crate::subroutines::async_line_to_tree::run_lockstep;
use crate::subroutines::LineScratch;
use crate::{CoreError, TransformationOutcome};
use adn_graph::properties::ceil_log2;
use adn_graph::{Edge, Graph, NodeId, UidMap};
use adn_sim::{Network, WaveActivation};

/// Parameters distinguishing the wreath-family algorithms.
#[derive(Debug, Clone)]
pub struct WreathConfig {
    /// Human-readable algorithm name (used in error reports).
    pub name: &'static str,
    /// Arity of the spanning tree rebuilt inside each committee: 2 for
    /// GraphToWreath (complete binary tree), `⌈log n⌉` for
    /// GraphToThinWreath (complete polylogarithmic tree).
    pub tree_arity: usize,
}

impl WreathConfig {
    /// The GraphToWreath configuration (binary trees, Section 4).
    pub fn binary() -> Self {
        WreathConfig {
            name: "GraphToWreath",
            tree_arity: 2,
        }
    }

    /// The GraphToThinWreath configuration for a network of `n` nodes
    /// (polylogarithmic-arity trees, Section 5).
    pub fn polylog(n: usize) -> Self {
        WreathConfig {
            name: "GraphToThinWreath",
            tree_arity: ceil_log2(n.max(4)).max(2),
        }
    }
}

/// A committee's selection: `(target committee, bridge node x in the
/// selecting committee, attach node y in the target)`.
pub(crate) type Choice = (CommitteeId, NodeId, NodeId);

/// A planned splice edge `(a, b, w)`: `a` activates `b` over the
/// distance-2 witness `w`.
type Hop = (NodeId, NodeId, NodeId);

/// The wreath committees and the merge of the current phase: the state
/// both engines evolve with the rules below.
///
/// The arena-backed committee partition carries the per-slot wreath
/// payload (spanning-tree edges and depth) as parallel columns. Member
/// lists hold the committee ring order, starting at the leader; leaders
/// never migrate between slots, so ascending slot order is ascending
/// leader order (the old `BTreeMap` iteration order).
///
/// A phase's merge is set up from the selections ([`WreathState::select`]),
/// spliced level by level ([`WreathState::plan_level`]), materialized,
/// cleaned up, and closed by installing the rebuilt trees and retiring
/// the committees that merged away. The rings under construction are
/// successor pointers (rings are node-disjoint, so one column serves every
/// root at once) with per-node `(epoch, root)` marks for clean membership
/// checks, a per-slot ring length and per-slot buffers for the
/// materialized rings, all allocated once and reused across phases. Each
/// node's parent in the tree last installed over it sits in a per-node
/// column too, which the termination keep-set reads.
pub(crate) struct WreathState {
    /// The committee partition.
    pub(crate) forest: CommitteeForest,
    /// Phase counter, committee census and phase limit.
    pub(crate) log: PhaseLog,
    tree_edges: Vec<Vec<Edge>>,
    tree_depth: Vec<usize>,
    /// Per node: its parent in the tree last installed over it, a tree's
    /// root (and a node no tree was installed over) its own.
    tree_parent: Vec<NodeId>,
    /// Per slot: the committee's selection this phase (empty between
    /// phases, like `sel`).
    selected: Vec<Option<Choice>>,
    /// The phase's selection forest.
    sel: SelectionForest,
    /// The selection-forest level whose children splice next.
    frontier: Vec<CommitteeId>,
    /// Old tree edges of every committee taking part in a merge.
    stale_tree_edges: Vec<Edge>,
    ring_succ: Vec<NodeId>,
    ring_mark: Vec<(u64, CommitteeId)>,
    ring_len: Vec<usize>,
    merged_line: Vec<Vec<NodeId>>,
    epoch: u64,
}

/// One splice level's edge operations, as planned by
/// [`WreathState::plan_level`]; the guards below pick the operations each
/// round actually performs.
#[derive(Debug, Default)]
pub(crate) struct SpliceLevel {
    round_a: Vec<Hop>,
    helpers: Vec<Hop>,
    round_b: Vec<Hop>,
    /// Ring edges `(a, b)` the splices replace: `a` drops its edge to `b`.
    deactivate: Vec<(NodeId, NodeId)>,
}

/// The hops whose edge is still missing from `graph`, as a wave.
fn missing<'a>(graph: &Graph, hops: impl IntoIterator<Item = &'a Hop>) -> Vec<WaveActivation> {
    hops.into_iter()
        .filter(|&&(a, b, _)| a != b && !graph.has_edge(a, b))
        .map(|&(a, b, w)| WaveActivation {
            initiator: a,
            target: b,
            witness: w,
        })
        .collect()
}

impl SpliceLevel {
    /// Round A, on the pre-level snapshot: the helper edges and the
    /// singleton roots' closing edges that are not present yet.
    pub(crate) fn round_a(&self, graph: &Graph) -> Vec<WaveActivation> {
        missing(graph, self.round_a.iter().chain(&self.helpers))
    }

    /// Round B's activations, on the post-round-A snapshot: the final
    /// splice edges that are not present yet.
    pub(crate) fn round_b(&self, graph: &Graph) -> Vec<WaveActivation> {
        missing(graph, &self.round_b)
    }

    /// Round B's clean-up, on the post-round-A snapshot: helper edges that
    /// are not initial edges are dropped again (those that coincided with
    /// an existing bridge stay), and so are the replaced ring edges.
    /// `(a, b)`: `a` drops its edge to `b`.
    pub(crate) fn round_b_drops(&self, graph: &Graph, initial: &Graph) -> Vec<(NodeId, NodeId)> {
        let helpers = self
            .helpers
            .iter()
            .map(|&(a, b, _)| (a, b))
            .filter(|&(a, b)| !initial.has_edge(a, b) && graph.has_edge(a, b));
        let replaced = self
            .deactivate
            .iter()
            .copied()
            .filter(|&(a, b)| !initial.has_edge(a, b));
        helpers.chain(replaced).collect()
    }
}

/// The selection forest of no committees: the merge state between
/// phases, holding no memory.
fn no_selection() -> SelectionForest {
    SelectionForest::new(&CommitteeForest::singletons(0), &[])
}

impl WreathState {
    /// `n` singleton committees of the algorithm `name`.
    pub(crate) fn new(n: usize, name: &'static str) -> Self {
        WreathState {
            forest: CommitteeForest::singletons(n),
            log: PhaseLog::new(name, 20 * ceil_log2(n.max(2)) + 40),
            tree_edges: vec![Vec::new(); n],
            tree_depth: vec![0; n],
            tree_parent: (0..n).map(NodeId).collect(),
            selected: Vec::new(),
            sel: no_selection(),
            frontier: Vec::new(),
            stale_tree_edges: Vec::new(),
            ring_succ: (0..n).map(NodeId).collect(),
            ring_mark: vec![(0, CommitteeId(0)); n],
            ring_len: vec![0; n],
            merged_line: vec![Vec::new(); n],
            epoch: 0,
        }
    }

    /// A structural committee/ring invariant did not hold. Unreachable in
    /// the fault-free model; surfaced as a clean error (instead of the
    /// `expect` panics this engine used to carry) so adversarial stress
    /// runs record a `Failed` outcome rather than a `Panicked` one.
    fn invariant(&self, detail: String) -> CoreError {
        CoreError::BrokenInvariant {
            algorithm: self.log.algorithm,
            detail,
        }
    }

    /// The depth of the deepest live committee tree.
    pub(crate) fn max_tree_depth(&self) -> usize {
        self.forest
            .live_ids()
            .iter()
            .map(|c| self.tree_depth[c.index()])
            .max()
            .unwrap_or(0)
    }

    /// Sets up the phase's merge from every committee's selection
    /// (indexed by slot): the selection forest, whose edges point from
    /// each selecting committee to its target, and the ring of every root
    /// that others merge into. Returns `false`, setting up nothing, when
    /// no committee selected.
    pub(crate) fn select(&mut self, selected: Vec<Option<Choice>>) -> bool {
        let sel_edges: Vec<(CommitteeId, CommitteeId)> = self
            .forest
            .live_ids()
            .iter()
            .filter_map(|&c| selected[c.index()].map(|(target, _, _)| (c, target)))
            .collect();
        if sel_edges.is_empty() {
            return false;
        }
        self.selected = selected;
        self.sel = SelectionForest::new(&self.forest, &sel_edges);
        self.epoch += 1;
        for &r in self.sel.roots() {
            if !self.sel.has_children(r) {
                continue;
            }
            let members = self.forest.members(r);
            for w in members.windows(2) {
                self.ring_succ[w[0].index()] = w[1];
            }
            self.ring_succ[members[members.len() - 1].index()] = members[0];
            for &u in members {
                self.ring_mark[u.index()] = (self.epoch, r);
            }
            self.ring_len[r.index()] = members.len();
        }
        self.stale_tree_edges.clear();
        self.frontier = self.sel.roots().to_vec();
        true
    }

    /// The roots others merge into this phase, ascending (untouched
    /// committees are never spliced and never rebuilt).
    pub(crate) fn merged_roots(&self) -> impl Iterator<Item = CommitteeId> + '_ {
        self.sel
            .roots()
            .iter()
            .copied()
            .filter(|&r| self.sel.has_children(r))
    }

    /// Plans the next splice level, or `None` once every selection tree
    /// is spliced into its root's ring.
    ///
    /// Children are spliced level by level (BFS order from the roots);
    /// the splices of one level execute in the same pair of rounds, as in
    /// the appendix's chained construction, and splices sharing an attach
    /// node are chained behind each other. A group splice links the child
    /// segments between the attach node and its successor in O(segment)
    /// pointer writes; each merged ring is materialized once after the
    /// last level.
    pub(crate) fn plan_level(&mut self) -> Result<Option<SpliceLevel>, CoreError> {
        // Children of the current frontier: (root, child, x, y).
        let mut level: Vec<(CommitteeId, CommitteeId, NodeId, NodeId)> = Vec::new();
        for &p in &self.frontier {
            for &c in self.sel.children(p) {
                let (_, x, y) = self.selected[c.index()].ok_or_else(|| {
                    self.invariant(format!(
                        "committee {c} has a parent but no recorded selection"
                    ))
                })?;
                level.push((self.sel.root_of(p), c, x, y));
            }
        }
        if level.is_empty() {
            return Ok(None);
        }

        // Group by (root, y) and chain the members of a group one after
        // the other. The stable sort preserves the in-level order within
        // every group, and groups come out ascending by (root, y) — the
        // old `BTreeMap` group order.
        let mut grouped = level.clone();
        grouped.sort_by_key(|&(root, _, _, y)| (root, y));
        let mut plan = SpliceLevel::default();
        let mut g = 0usize;
        while g < grouped.len() {
            let (root, _, _, y) = grouped[g];
            let mut g_end = g + 1;
            while g_end < grouped.len() && grouped[g_end].0 == root && grouped[g_end].3 == y {
                g_end += 1;
            }
            let group = &grouped[g..g_end];
            g = g_end;
            // The attach node was spliced into this root's ring at an
            // earlier level (or belongs to the root itself).
            if self.ring_mark[y.index()] != (self.epoch, root) {
                return Err(self.invariant(format!(
                    "attach node {y} is not on the merged ring of {root}"
                )));
            }
            let succ_after_y = self.ring_succ[y.index()];
            let len_before = self.ring_len[root.index()];
            // Link in the rings of all children of this group, each
            // starting at its bridge node x, chained one after the other
            // between y and y's old successor.
            let mut prev_end: NodeId = y;
            // Bridge node of the previously spliced child: `prev_end` is
            // the last node of that child's rotated ring, so its bridge is
            // adjacent to both `prev_end` (ring edge, not yet cut) and `y`
            // (initial bridge edge) — the witness for every chained helper
            // edge.
            let mut prev_x: NodeId = y;
            let mut segment_len = 0usize;
            for &(_, child, x, _) in group {
                let child_ring = self.forest.members(child);
                let x_pos = child_ring.iter().position(|&u| u == x).ok_or_else(|| {
                    self.invariant(format!(
                        "bridge node {x} is not on the ring of committee {child}"
                    ))
                })?;
                let m = child_ring.len();
                // New ring edge (prev_end, x). From y it is the bridge
                // edge, already active (an initial edge); between
                // consecutive children it is a 2-hop pattern via the
                // shared attach node y: the helper is witnessed by the
                // previous child's bridge, the final edge by y itself.
                if prev_end != y {
                    plan.helpers.push((prev_end, y, prev_x));
                    plan.round_b.push((prev_end, x, y));
                }
                // Cut the child's closing ring edge (x, ccw(x)) for rings
                // of size >= 3.
                if m >= 3 {
                    plan.deactivate.push((x, child_ring[(x_pos + m - 1) % m]));
                }
                self.stale_tree_edges
                    .extend(self.tree_edges[child.index()].iter().copied());
                // Link the child's rotated ring into the segment.
                let mut cursor = prev_end;
                for k in 0..m {
                    let node = child_ring[(x_pos + k) % m];
                    self.ring_succ[cursor.index()] = node;
                    self.ring_mark[node.index()] = (self.epoch, root);
                    cursor = node;
                }
                prev_end = cursor;
                prev_x = x;
                segment_len += m;
            }
            if len_before >= 2 {
                // Closing edge back into the root ring; the insertion edge
                // (y, succ_after_y) is replaced.
                plan.helpers.push((prev_end, y, prev_x));
                plan.round_b.push((prev_end, succ_after_y, y));
                plan.deactivate.push((y, succ_after_y));
            } else {
                // Singleton root: close the cycle straight back to y.
                plan.round_a.push((prev_end, y, prev_x));
            }
            // Close the spliced segment back into the ring.
            self.ring_succ[prev_end.index()] = succ_after_y;
            self.ring_len[root.index()] = len_before + segment_len;
        }
        self.frontier = level.iter().map(|&(_, c, _, _)| c).collect();
        Ok(Some(plan))
    }

    /// Materializes every merged ring in one amortized pass: walks the
    /// successor map from the root's leader (the rotation the tree rebuild
    /// starts from; ring edge *sets* are rotation-invariant).
    pub(crate) fn materialize_rings(&mut self) -> Result<(), CoreError> {
        for &root in self.sel.roots() {
            if !self.sel.has_children(root) {
                continue;
            }
            let leader = self.forest.leader(root);
            if self.ring_mark[leader.index()] != (self.epoch, root) {
                return Err(self.invariant(format!(
                    "leader {leader} is not on the merged ring of {root}"
                )));
            }
            let m = self.ring_len[root.index()];
            let line = &mut self.merged_line[root.index()];
            line.clear();
            let mut cur = leader;
            for _ in 0..m {
                line.push(cur);
                cur = self.ring_succ[cur.index()];
            }
            if cur != leader {
                return Err(
                    self.invariant(format!("merged ring of {root} did not close at its leader"))
                );
            }
        }
        Ok(())
    }

    /// The merged ring of `root`, starting at its leader.
    pub(crate) fn merged_line(&self, root: CommitteeId) -> &[NodeId] {
        &self.merged_line[root.index()]
    }

    /// The clean-up after the splices. The old tree edges of every
    /// committee that took part in a merge — the roots' included — are
    /// dropped, since their trees are rebuilt over the merged rings; those
    /// that coincide with a ring edge of the phase, an initial edge or an
    /// edge already gone stay.
    ///
    /// A stale tree edge joins two nodes of one merged ring (its committee
    /// was spliced into that ring whole), so it is a ring edge exactly
    /// when one endpoint succeeds the other on it; no other ring can hold
    /// it.
    pub(crate) fn cleanup(&mut self, graph: &Graph, initial: &Graph) -> Vec<Edge> {
        for &root in self.sel.roots() {
            if self.sel.has_children(root) {
                self.stale_tree_edges
                    .extend(self.tree_edges[root.index()].iter().copied());
            }
        }
        let drops: Vec<Edge> = self
            .stale_tree_edges
            .iter()
            .copied()
            .filter(|&e| {
                !self.on_merged_ring(e) && !initial.has_edge(e.a, e.b) && graph.has_edge(e.a, e.b)
            })
            .collect();
        #[cfg(test)]
        assert_eq!(
            drops,
            tests::cleanup_reference(self, graph, initial),
            "clean-up diverged from its ring-edge-set reference"
        );
        drops
    }

    /// Whether the stale tree edge `e`, whose endpoints carry the same
    /// ring mark of this phase, is a ring edge: one endpoint is the
    /// other's successor.
    fn on_merged_ring(&self, e: Edge) -> bool {
        let (a, b) = (e.a.index(), e.b.index());
        debug_assert!(
            self.ring_mark[a].0 == self.epoch && self.ring_mark[a] == self.ring_mark[b],
            "stale tree edge {e:?} is not inside one merged ring"
        );
        self.ring_succ[a] == e.b || self.ring_succ[b] == e.a
    }

    /// Installs the tree rebuilt over `root`'s merged ring — `parents[pos]`
    /// is the ring position of position `pos`'s parent (entry 0, the
    /// root's, is ignored) — and makes the ring the committee's member
    /// list. Parents sit at lower positions than their children, so one
    /// ascending pass over `parents` gives the tree's depth.
    pub(crate) fn install_tree(&mut self, root: CommitteeId, parents: &[usize]) {
        let mut depths = vec![0usize; parents.len()];
        for pos in 1..parents.len() {
            debug_assert!(parents[pos] < pos, "a parent follows its child");
            depths[pos] = depths[parents[pos]] + 1;
        }
        let depth = depths.into_iter().max().unwrap_or(0);
        let line = std::mem::take(&mut self.merged_line[root.index()]);
        let edges = &mut self.tree_edges[root.index()];
        edges.clear();
        self.tree_parent[line[0].index()] = line[0];
        for (pos, &parent) in parents.iter().enumerate().skip(1) {
            let (u, p) = (line[pos], line[parent]);
            edges.push(Edge::new(u, p));
            self.tree_parent[u.index()] = p;
        }
        self.tree_depth[root.index()] = depth;
        self.forest.replace_members(root, line);
    }

    /// Retires every committee that merged away this phase (its members
    /// were re-homed by [`WreathState::install_tree`] on its root) and
    /// frees the phase's selections.
    pub(crate) fn retire_merged(&mut self) {
        let selected = std::mem::take(&mut self.selected);
        self.sel = no_selection();
        let dead: Vec<CommitteeId> = self
            .forest
            .live_ids()
            .iter()
            .copied()
            .filter(|c| selected[c.index()].is_some())
            .collect();
        self.forest.retire_batch(&dead);
        for c in dead {
            self.tree_edges[c.index()].clear();
            self.tree_depth[c.index()] = 0;
        }
    }

    /// The termination phase's deactivations: every edge outside the
    /// final committee's spanning tree. That committee holds every tracked
    /// node and its tree was the last installed over each, so an edge is
    /// a tree edge exactly when one endpoint is the other's parent. A node
    /// beyond the tracked set (a churn join) has no parent entry, and its
    /// edges are dropped.
    pub(crate) fn termination_drops(&self, graph: &Graph) -> Vec<Edge> {
        let parent = |u: NodeId| self.tree_parent.get(u.index()).copied();
        let drops: Vec<Edge> = graph
            .edges()
            .filter(|e| parent(e.a) != Some(e.b) && parent(e.b) != Some(e.a))
            .collect();
        #[cfg(test)]
        assert_eq!(
            drops,
            tests::termination_drops_reference(self, graph),
            "termination drops diverged from their keep-set reference"
        );
        drops
    }
}

/// Executes the shared wreath engine on `network` (trait entry point used
/// by both [`crate::algorithm::GraphToWreath`] and
/// [`crate::algorithm::GraphToThinWreath`]).
pub(crate) fn execute(
    network: &mut Network,
    uids: &UidMap,
    config: &WreathConfig,
    run: &RunConfig,
) -> Result<TransformationOutcome, CoreError> {
    if let Some(scheduler) = run.scheduler() {
        return crate::subroutines::runtime_committee::run_runtime_wreath(
            network, uids, config, run, &scheduler,
        );
    }
    validate_input(network, uids, config.name)?;

    let initial = network.graph().clone();
    let n = initial.node_count();
    let mut state = WreathState::new(n, config.name);
    // Memoises jump schedules and recycles the lockstep batch's columns
    // across phases.
    let mut line_scratch = LineScratch::new();

    while state.forest.live_count() > 1 {
        let live = state.forest.live_count();
        state.log.begin(run, network, live)?;

        // ------------------------------------------------------------------
        // Selection: every committee picks its largest-UID strictly-larger
        // neighbour over the phase's snapshot, in one pass over its edges.
        // The selection edges form a forest whose roots are the
        // locally-maximal committees.
        // ------------------------------------------------------------------
        let selected = state
            .forest
            .select_largest_uid_neighbors(network.graph(), uids, |_| true);

        // Communication charge: the selection requires each committee to
        // gather neighbour information and coordinate, which costs a
        // constant number of sweeps of its own tree (Appendix B bounds it
        // by 4·log n). We charge 2·(max tree depth involved) + 2 idle
        // rounds for the whole phase.
        network.advance_idle_rounds(2 * state.max_tree_depth() + 2);

        if !state.select(selected) {
            // No committee found a larger neighbour other than through
            // committees currently unavailable; with a connected network
            // this cannot persist, but charge a round and retry.
            network.advance_idle_rounds(1);
            continue;
        }

        // ------------------------------------------------------------------
        // Ring merging: every selection tree merges into its root, one
        // splice level per pair of rounds — round A (helpers and
        // distance-2 edges), round B (final edges + clean-up), each
        // batched into one wave.
        // ------------------------------------------------------------------
        while let Some(level) = state.plan_level()? {
            let acts = level.round_a(network.graph());
            if !acts.is_empty() {
                network.stage_jump_wave(&acts, &[])?;
                network.commit_round();
            } else {
                network.advance_idle_rounds(1);
            }
            let acts = level.round_b(network.graph());
            let drops: Vec<Edge> = level
                .round_b_drops(network.graph(), &initial)
                .into_iter()
                .map(|(a, b)| Edge::new(a, b))
                .collect();
            if !acts.is_empty() || !drops.is_empty() {
                network.stage_jump_wave(&acts, &drops)?;
                network.commit_round();
            } else {
                network.advance_idle_rounds(1);
            }
        }
        if state.merged_roots().next().is_none() {
            network.advance_idle_rounds(1);
            continue;
        }
        state.materialize_rings()?;

        let drops = state.cleanup(network.graph(), &initial);
        for e in &drops {
            network.stage_deactivation(e.a, e.b)?;
        }
        if !drops.is_empty() {
            network.commit_round();
        }

        // ------------------------------------------------------------------
        // Tree merging: rebuild a complete `arity`-ary tree over every
        // merged ring with the asynchronous LineToCompleteBinaryTree,
        // keeping the ring edges. Appendix B runs the rebuilds in
        // parallel, and so does this engine: all merged rings (rotated to
        // start at their leaders) form one lockstep batch, so a phase pays
        // the slowest rebuild's rounds, not their sum. The wake-up schedule
        // models the activation message propagating from the ex-leaders: a
        // node wakes after the depth of its former committee's tree, read
        // off the pre-merge forest. A rebuild drops only edges between two
        // nodes of its own ring, never a line edge (`keep_line_edges`) and
        // never the closing edge (no position jumps off the root), so the
        // ring survives. Untouched committees are carried over unchanged.
        // ------------------------------------------------------------------
        let merged_roots: Vec<CommitteeId> = state.merged_roots().collect();
        line_scratch.clear_lines();
        for &root in &merged_roots {
            let line = state.merged_line(root);
            line_scratch.push_line(
                line,
                line.iter().map(|u| {
                    1 + state
                        .forest
                        .committee_of(*u)
                        .map_or(0, |c| state.tree_depth[c.index()])
                }),
            );
        }
        run_lockstep(network, config.tree_arity, true, &mut line_scratch)?;
        for (k, &root) in merged_roots.iter().enumerate() {
            state.install_tree(root, line_scratch.line_parents(k));
        }
        state.retire_merged();
    }

    // ----------------------------------------------------------------------
    // Termination: keep only the spanning tree of the final committee.
    // ----------------------------------------------------------------------
    let leader = state.forest.first_leader();
    if n > 1 {
        state.log.terminate(run, network)?;
        let drops = state.termination_drops(network.graph());
        for e in &drops {
            network.stage_deactivation(e.a, e.b)?;
        }
        if !drops.is_empty() {
            network.commit_round();
        }
        network.advance_idle_rounds(1);
    }

    run.check_round_budget(network)?;
    debug_assert_eq!(Some(leader), uids.max_uid_node());
    Ok(state.log.outcome(leader, network))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adn_graph::properties::{ceil_log2, is_bounded_arity_tree};
    use adn_graph::{generators, GraphFamily, UidAssignment};
    use std::collections::BTreeSet;

    /// [`WreathState::cleanup`] as first written, kept as its oracle: the
    /// ring edges of every root, untouched ones included, collected into a
    /// sorted set and probed. Reads `stale_tree_edges` after `cleanup` has
    /// added the merged roots' trees.
    pub(super) fn cleanup_reference(
        state: &WreathState,
        graph: &Graph,
        initial: &Graph,
    ) -> Vec<Edge> {
        let mut ring_edges = BTreeSet::new();
        for &root in state.sel.roots() {
            let ring: &[NodeId] = if state.sel.has_children(root) {
                &state.merged_line[root.index()]
            } else {
                state.forest.members(root)
            };
            for w in ring.windows(2) {
                ring_edges.insert(Edge::new(w[0], w[1]));
            }
            if ring.len() >= 3 {
                ring_edges.insert(Edge::new(ring[ring.len() - 1], ring[0]));
            }
        }
        state
            .stale_tree_edges
            .iter()
            .copied()
            .filter(|e| {
                !initial.has_edge(e.a, e.b) && !ring_edges.contains(e) && graph.has_edge(e.a, e.b)
            })
            .collect()
    }

    /// [`WreathState::termination_drops`] as first written, kept as its
    /// oracle: the final committee's tree edges as a sorted keep-set.
    pub(super) fn termination_drops_reference(state: &WreathState, graph: &Graph) -> Vec<Edge> {
        let final_committee = state.forest.live_ids()[0];
        let keep: BTreeSet<Edge> = state.tree_edges[final_committee.index()]
            .iter()
            .copied()
            .collect();
        graph.edges().filter(|e| !keep.contains(e)).collect()
    }

    fn check_outcome(
        initial: &Graph,
        uids: &UidMap,
        outcome: &TransformationOutcome,
        arity: usize,
    ) {
        let n = initial.node_count();
        // The final network is a spanning tree rooted at the elected
        // leader, the max-UID node, of logarithmic depth (Depth-log n
        // Tree) and within the gadget's arity bound.
        assert_eq!(Some(outcome.leader), uids.max_uid_node());
        let max_depth = 2 * ceil_log2(n.max(2)) + 2;
        assert!(
            is_bounded_arity_tree(&outcome.final_graph, outcome.leader, arity, max_depth),
            "n={n}: not a tree of depth ≤ {max_depth} and arity ≤ {arity}"
        );
    }

    fn run_on(initial: &Graph, uids: &UidMap) -> Result<TransformationOutcome, CoreError> {
        let mut network = Network::new(initial.clone());
        execute(
            &mut network,
            uids,
            &WreathConfig::binary(),
            &RunConfig::default(),
        )
    }

    fn run(initial: &Graph, assignment: UidAssignment) -> (UidMap, TransformationOutcome) {
        let uids = UidMap::new(initial.node_count(), assignment);
        let outcome = run_on(initial, &uids).expect("GraphToWreath must succeed");
        (uids, outcome)
    }

    #[test]
    fn solves_depth_log_n_tree_on_lines_and_rings() {
        for &n in &[2usize, 3, 5, 8, 16, 33, 64, 100] {
            let g = generators::line(n);
            let (uids, outcome) = run(&g, UidAssignment::Sequential);
            check_outcome(&g, &uids, &outcome, 2);
            let g = generators::ring(n.max(3));
            let (uids, outcome) = run(&g, UidAssignment::Reversed);
            check_outcome(&g, &uids, &outcome, 2);
        }
    }

    #[test]
    fn solves_depth_log_n_tree_on_bounded_degree_families() {
        for family in GraphFamily::BOUNDED_DEGREE {
            for seed in 0..3u64 {
                let g = family.generate(48, seed);
                let uids = UidMap::new(g.node_count(), UidAssignment::RandomPermutation { seed });
                let outcome = run_on(&g, &uids).expect("must succeed");
                check_outcome(&g, &uids, &outcome, 2);
            }
        }
    }

    #[test]
    fn degree_stays_bounded_on_bounded_degree_inputs() {
        for &n in &[32usize, 64, 128] {
            let g = generators::ring(n);
            let (_, outcome) = run(&g, UidAssignment::RandomPermutation { seed: 9 });
            // Theorem 4.2: constant activated degree; total degree at most
            // a constant plus the initial degree (2 for a ring). We allow
            // the generous constant 10 + 2.
            assert!(
                outcome.metrics.max_total_degree <= 12,
                "n={n}: max degree {}",
                outcome.metrics.max_total_degree
            );
            assert!(outcome.metrics.max_activated_degree <= 10);
        }
    }

    #[test]
    fn rounds_meet_the_polylogarithmic_upper_bounds() {
        // Theorem 4.2 (GraphToWreath) and Theorem 5.1 (GraphToThinWreath):
        // O(log² n) rounds, with the constant pinned at 3. Each phase
        // rebuilds all merged committees' trees in lockstep; rebuilding
        // them one after another made the rounds add up to Θ(n), which
        // breaks this bound from n = 256 on. The thin variant's shallower
        // trees must also make it no slower than the binary one on lines.
        let cases = [
            (GraphFamily::Line, 256usize),
            (GraphFamily::Line, 1024),
            (GraphFamily::Line, 4096),
            (GraphFamily::Ring, 256),
            (GraphFamily::Ring, 1024),
            (GraphFamily::Grid, 256),
            (GraphFamily::Grid, 1024),
            (GraphFamily::RandomTree, 256),
            (GraphFamily::RandomTree, 1024),
        ];
        for (family, size) in cases {
            let g = family.generate(size, 2);
            let n = g.node_count();
            let uids = UidMap::new(n, UidAssignment::RandomPermutation { seed: 2 });
            let log = ceil_log2(n);
            let mut rounds = Vec::new();
            for config in [WreathConfig::binary(), WreathConfig::polylog(n)] {
                let mut network = Network::new(g.clone());
                let outcome = execute(&mut network, &uids, &config, &RunConfig::default())
                    .expect("wreath run must succeed");
                assert!(
                    outcome.rounds <= 3 * log * log,
                    "{} on {family} n={n}: {} rounds > 3·⌈log₂ n⌉² = {}",
                    config.name,
                    outcome.rounds,
                    3 * log * log
                );
                assert!(
                    outcome.phases <= 6 * log + 6,
                    "{} on {family} n={n}: {} phases",
                    config.name,
                    outcome.phases
                );
                rounds.push(outcome.rounds);
            }
            if family == GraphFamily::Line && n >= 1024 {
                assert!(
                    rounds[1] <= rounds[0],
                    "line n={n}: thin wreath took {} rounds, wreath {}",
                    rounds[1],
                    rounds[0]
                );
            }
        }
    }

    #[test]
    fn edge_complexity_matches_theorem_4_2() {
        for &n in &[64usize, 128, 256] {
            let g = generators::ring(n);
            let (_, outcome) = run(&g, UidAssignment::RandomPermutation { seed: 5 });
            let log = ceil_log2(n).max(1);
            // O(n log² n) total activations (generous constant 6).
            assert!(
                outcome.metrics.total_activations <= 6 * n * log * log,
                "n={n}: {} activations",
                outcome.metrics.total_activations
            );
            // O(n) active edges per round: at most ~3n (ring + tree + helpers).
            assert!(
                outcome.metrics.max_activated_edges <= 4 * n,
                "n={n}: {} concurrent activated edges",
                outcome.metrics.max_activated_edges
            );
        }
    }

    #[test]
    fn committee_count_is_non_increasing_and_reaches_one() {
        let g = generators::grid(6, 8);
        let (_, outcome) = run(&g, UidAssignment::RandomPermutation { seed: 3 });
        let counts = &outcome.committees_per_phase;
        assert_eq!(counts.first(), Some(&48));
        assert_eq!(counts.last(), Some(&1));
        for w in counts.windows(2) {
            assert!(w[1] <= w[0]);
        }
    }

    #[test]
    fn works_on_unbounded_degree_inputs_too() {
        // Theorem 4.2 is stated for constant-degree inputs, but the
        // algorithm itself runs on any connected graph; the *activated*
        // degree stays constant even if the input degree is large.
        let g = generators::star(40);
        let (uids, outcome) = run(&g, UidAssignment::RandomPermutation { seed: 8 });
        check_outcome(&g, &uids, &outcome, 2);
        assert!(outcome.metrics.max_activated_degree <= 10);
    }

    #[test]
    fn column_checks_match_their_edge_set_references() {
        // `cleanup` and `termination_drops` assert their drop lists, order
        // included, against the sorted-set references in every test run;
        // this drives them over every family and both arities, fault-free
        // and under churn (joins whose edges termination must drop) and
        // crash-stop faults.
        use crate::algorithm::{
            arm_network_for_dst, DstConfig, GraphToThinWreath, GraphToWreath,
            ReconfigurationAlgorithm,
        };
        use adn_sim::Scenario;
        let arms = [None, Some(Scenario::churn()), Some(Scenario::crash_stop())];
        let (mut completed, mut faulted) = (0usize, 0usize);
        for family in GraphFamily::ALL {
            for size in [24usize, 64] {
                let g = family.generate(size, 3);
                let n = g.node_count();
                let uids = UidMap::new(n, UidAssignment::RandomPermutation { seed: 3 });
                let engines = [
                    (WreathConfig::binary(), GraphToWreath.spec()),
                    (WreathConfig::polylog(n), GraphToThinWreath.spec()),
                ];
                for (config, spec) in &engines {
                    for scenario in &arms {
                        for seed in [1u64, 2] {
                            let mut network = Network::new(g.clone());
                            if let Some(scenario) = scenario {
                                let dst = DstConfig {
                                    scenario: scenario.clone(),
                                    seed: seed ^ (n as u64) << 8,
                                };
                                arm_network_for_dst(&mut network, spec, &uids, &dst);
                            }
                            let result =
                                execute(&mut network, &uids, config, &RunConfig::default());
                            completed += usize::from(result.is_ok());
                            faulted += usize::from(
                                network
                                    .dst_state()
                                    .is_some_and(|s| !s.fault_log().is_empty()),
                            );
                            if scenario.is_none() {
                                let outcome = result.expect("fault-free runs complete");
                                check_outcome(&g, &uids, &outcome, config.tree_arity);
                            }
                        }
                    }
                }
            }
        }
        assert!(
            completed > 0 && faulted > 0,
            "{completed} completed, {faulted} faulted"
        );
    }

    #[test]
    fn rejects_invalid_inputs() {
        let uids = UidMap::new(0, UidAssignment::Sequential);
        assert!(matches!(
            run_on(&Graph::new(0), &uids),
            Err(CoreError::InvalidInput { .. })
        ));
        let mut g = generators::line(6);
        g.remove_edge(NodeId(2), NodeId(3)).unwrap();
        let uids = UidMap::new(6, UidAssignment::Sequential);
        assert!(matches!(
            run_on(&g, &uids),
            Err(CoreError::InvalidInput { .. })
        ));
    }

    #[test]
    fn single_node_is_trivial() {
        let uids = UidMap::new(1, UidAssignment::Sequential);
        let outcome = run_on(&Graph::new(1), &uids).unwrap();
        assert_eq!(outcome.leader, NodeId(0));
        assert_eq!(outcome.metrics.total_activations, 0);
    }
}
