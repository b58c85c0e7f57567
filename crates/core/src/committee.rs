//! The shared committee-forest layer.
//!
//! All three committee-based algorithms of the paper (GraphToStar,
//! GraphToWreath, GraphToThinWreath) run the same structural loop: nodes
//! are partitioned into committees led by their maximum-UID member,
//! committees select larger neighbouring committees over the *committee
//! adjacency* of the current network, the selection edges form a forest,
//! and every tree of the forest merges into its root. Before this module,
//! each algorithm rebuilt that scaffolding per phase out of
//! `BTreeMap<NodeId, Committee>` / nested-`BTreeMap` adjacency maps; now
//! the partition lives in one arena — the [`CommitteeForest`] — with dense
//! [`CommitteeId`] slots, flat membership columns, and a sort-based
//! [`CommitteeAdjacency`] builder shared by every algorithm. As in the
//! paper, where each committee learns its neighbouring committees from the
//! current network at the start of every phase, the round engines call
//! [`CommitteeForest::committee_adjacency`] on the phase's snapshot: one
//! scan of the edge set per phase, with nothing carried over between
//! phases. The pieces of a phase that every committee engine —
//! round-based or actor-based — shares live here too: the start-of-run
//! step (input checks and trace switch), the largest-UID selection fold
//! and the phase record with its convergence limit.
//!
//! Determinism contract: every accessor iterates in ascending slot order,
//! and committee leaders never migrate between slots (an absorbing
//! committee keeps its leader; a merged-away slot dies), so ascending
//! *slot* order is ascending *leader* order — exactly the `BTreeMap`
//! iteration order the algorithms relied on. The seeded DST sweep renders
//! byte-identically across the representations, which the stress replay
//! gate (`report -- --replay <seed>`) checks end to end.

use crate::algorithm::RunConfig;
use crate::{CoreError, TransformationOutcome};
use adn_graph::{Graph, NodeId, Uid, UidMap};
use adn_sim::Network;

/// Dense index of a committee slot in a [`CommitteeForest`] arena.
///
/// Slots are allocated once (one per initial node) and marked dead when
/// their committee merges away; ids are never reused, so a `CommitteeId`
/// observed in one phase stays valid (alive or dead) for the whole run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CommitteeId(pub usize);

impl CommitteeId {
    /// The slot index as a plain `usize` (for indexing parallel columns).
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for CommitteeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// The arena-backed committee partition of the tracked vertex set.
///
/// Structure-of-arrays: `committee_of` maps every tracked node to its
/// slot, `leader`/`members` are per-slot columns, and `live` is the
/// sorted list of alive slots, maintained incrementally across merges so
/// a phase never rescans the arena to find the survivors.
///
/// The *member order* discipline is the caller's: GraphToStar appends in
/// merge order (see [`CommitteeForest::absorb`] for why that order is
/// load-bearing), the wreath engine stores ring order (see
/// [`CommitteeForest::replace_members`]).
#[derive(Debug, Clone)]
pub struct CommitteeForest {
    /// Slot of the committee each tracked node belongs to. Nodes beyond
    /// this column (joined mid-run by a DST churn fault) belong to no
    /// committee and are invisible to the reconfiguration.
    committee_of: Vec<CommitteeId>,
    /// Leader of each slot.
    leader: Vec<NodeId>,
    /// Ordered member list of each slot (empty once the slot is dead).
    members: Vec<Vec<NodeId>>,
    /// Liveness of each slot.
    alive: Vec<bool>,
    /// Alive slots, ascending — the iteration spine of every phase.
    live: Vec<CommitteeId>,
}

impl CommitteeForest {
    /// The initial partition: node `i` alone in committee slot `i`, led by
    /// itself.
    pub fn singletons(n: usize) -> Self {
        CommitteeForest {
            committee_of: (0..n).map(CommitteeId).collect(),
            leader: (0..n).map(NodeId).collect(),
            members: (0..n).map(|i| vec![NodeId(i)]).collect(),
            alive: vec![true; n],
            live: (0..n).map(CommitteeId).collect(),
        }
    }

    /// Number of nodes tracked by the partition (the initial vertex set;
    /// churned-in nodes are beyond it).
    pub fn tracked_nodes(&self) -> usize {
        self.committee_of.len()
    }

    /// Number of slots in the arena (alive or dead).
    pub fn slot_count(&self) -> usize {
        self.alive.len()
    }

    /// Number of alive committees.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// The alive committee slots, ascending.
    pub fn live_ids(&self) -> &[CommitteeId] {
        &self.live
    }

    /// True while the slot's committee has not merged away.
    pub fn is_alive(&self, c: CommitteeId) -> bool {
        self.alive[c.index()]
    }

    /// The leader of committee `c`.
    pub fn leader(&self, c: CommitteeId) -> NodeId {
        self.leader[c.index()]
    }

    /// The ordered member list of committee `c`.
    pub fn members(&self, c: CommitteeId) -> &[NodeId] {
        &self.members[c.index()]
    }

    /// The leader of the first alive committee: the elected leader once a
    /// single committee is left.
    pub(crate) fn first_leader(&self) -> NodeId {
        self.leader(self.live[0])
    }

    /// The committee of node `u`, or `None` when `u` is beyond the tracked
    /// vertex set (a churned-in node).
    pub fn committee_of(&self, u: NodeId) -> Option<CommitteeId> {
        self.committee_of.get(u.index()).copied()
    }

    /// The leader of the committee `u` belongs to.
    ///
    /// # Panics
    ///
    /// Panics when `u` is beyond the tracked vertex set.
    pub fn leader_of(&self, u: NodeId) -> NodeId {
        self.leader[self.committee_of[u.index()].index()]
    }

    /// Drops the slots marked dead from `live` in one ascending pass, so a
    /// phase's whole batch of merges costs one O(live) pass instead of one
    /// per dead slot.
    fn drop_dead_from_live(&mut self) {
        let alive = &self.alive;
        self.live.retain(|c| alive[c.index()]);
    }

    /// Merges committee `dying` into `absorbing`: the dying members are
    /// appended to the absorbing member list **in merge order** and
    /// re-homed; the absorbing committee keeps its leader and the dying
    /// slot dies. GraphToStar's merge discipline.
    ///
    /// Member lists deliberately keep this concatenation order rather than
    /// being re-sorted: the order in which a committee's members stage
    /// their edge operations is observable when a stage call errors
    /// mid-phase (under adversarial faults the *first* failing operation
    /// aborts the phase), and the old `BTreeMap` + `extend` representation
    /// staged in exactly this order. Re-sorting would change which
    /// operation fails first and break byte-identical stress replays.
    ///
    /// # Panics
    ///
    /// Panics if either slot is dead or the two are the same.
    pub fn absorb(&mut self, dying: CommitteeId, absorbing: CommitteeId) {
        self.absorb_batch(&[(dying, absorbing)]);
    }

    /// [`CommitteeForest::absorb`] for every `(dying, absorbing)` pair, in
    /// order, with the dead slots leaving the live list in one pass at the
    /// end.
    ///
    /// # Panics
    ///
    /// As [`CommitteeForest::absorb`], for the first offending pair.
    pub fn absorb_batch(&mut self, merges: &[(CommitteeId, CommitteeId)]) {
        for &(dying, absorbing) in merges {
            assert_ne!(dying, absorbing, "a committee cannot absorb itself");
            assert!(self.alive[dying.index()], "dying committee must be alive");
            assert!(
                self.alive[absorbing.index()],
                "absorbing committee must be alive"
            );
            let incoming = std::mem::take(&mut self.members[dying.index()]);
            for &u in &incoming {
                self.committee_of[u.index()] = absorbing;
            }
            self.members[absorbing.index()].extend(incoming);
            self.alive[dying.index()] = false;
        }
        self.drop_dead_from_live();
    }

    /// Replaces the member list of committee `c` wholesale (the wreath
    /// engine installs the freshly merged ring this way) and re-homes every
    /// listed node to `c`. Slots whose members were taken over must be
    /// retired separately with [`CommitteeForest::retire`].
    ///
    /// # Panics
    ///
    /// Panics if `c` is dead or `members` is empty.
    pub fn replace_members(&mut self, c: CommitteeId, members: Vec<NodeId>) {
        assert!(self.alive[c.index()], "cannot repopulate a dead committee");
        assert!(!members.is_empty(), "a committee keeps at least one member");
        for &u in &members {
            self.committee_of[u.index()] = c;
        }
        self.members[c.index()] = members;
    }

    /// Marks committee `c` dead without touching `committee_of` — its
    /// members must already have been re-homed (by
    /// [`CommitteeForest::replace_members`] on the absorbing slot).
    ///
    /// # Panics
    ///
    /// Panics if `c` is already dead.
    pub fn retire(&mut self, c: CommitteeId) {
        self.retire_batch(&[c]);
    }

    /// [`CommitteeForest::retire`] for every slot of `dead`, with the dead
    /// slots leaving the live list in one pass at the end.
    ///
    /// # Panics
    ///
    /// Panics if a slot is already dead or listed twice.
    pub fn retire_batch(&mut self, dead: &[CommitteeId]) {
        for &c in dead {
            assert!(self.alive[c.index()], "committee retired twice");
            self.alive[c.index()] = false;
            self.members[c.index()].clear();
        }
        self.drop_dead_from_live();
    }

    /// Builds the committee adjacency of the current `graph`: for each
    /// ordered pair of distinct neighbouring committees `(a, b)`, the
    /// lexicographically smallest bridge `(x, y)` with `x ∈ a`, `y ∈ b`.
    ///
    /// This is the builder previously copy-pasted between `graph_to_star`
    /// and `graph_to_wreath` as a nested
    /// `BTreeMap<NodeId, BTreeMap<NodeId, (NodeId, NodeId)>>`; here it is
    /// one flat row collection + sort + dedup, with per-committee row
    /// ranges resolved by a counting pass. Edges with an endpoint beyond
    /// the tracked vertex set (churned-in nodes) are skipped, exactly as
    /// before.
    pub fn committee_adjacency(&self, graph: &Graph) -> CommitteeAdjacency {
        let tracked = self.committee_of.len();
        let mut raw: Vec<(usize, usize, NodeId, NodeId)> = Vec::new();
        for e in graph.edges() {
            // `e.b` is the larger endpoint, so checking it covers both.
            if e.b.index() >= tracked {
                continue;
            }
            let ca = self.committee_of[e.a.index()].index();
            let cb = self.committee_of[e.b.index()].index();
            if ca == cb {
                continue;
            }
            raw.push((ca, cb, e.a, e.b));
            raw.push((cb, ca, e.b, e.a));
        }
        // Sorting by (committee, other, x, y) puts the smallest bridge of
        // every ordered pair first; dedup keeps exactly that row.
        raw.sort_unstable();
        raw.dedup_by(|next, prev| next.0 == prev.0 && next.1 == prev.1);
        let slots = self.slot_count();
        let mut offsets = vec![0usize; slots + 1];
        for r in &raw {
            offsets[r.0 + 1] += 1;
        }
        for i in 0..slots {
            offsets[i + 1] += offsets[i];
        }
        let rows = raw
            .into_iter()
            .map(|(_, other, x, y)| CommitteeNeighbor {
                other: CommitteeId(other),
                bridge_local: x,
                bridge_remote: y,
            })
            .collect();
        CommitteeAdjacency { rows, offsets }
    }
}

/// One neighbouring committee in a [`CommitteeAdjacency`] row range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitteeNeighbor {
    /// The neighbouring committee.
    pub other: CommitteeId,
    /// Bridge endpoint inside the committee the row belongs to.
    pub bridge_local: NodeId,
    /// Bridge endpoint inside `other` (adjacent to `bridge_local`).
    pub bridge_remote: NodeId,
}

/// The committee-level adjacency of one network snapshot: a flat,
/// row-sorted columnar structure (rows ordered by committee, then by
/// neighbouring committee) with per-slot offsets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitteeAdjacency {
    rows: Vec<CommitteeNeighbor>,
    /// `rows[offsets[c]..offsets[c + 1]]` are the neighbours of slot `c`,
    /// ascending by `other`.
    offsets: Vec<usize>,
}

impl CommitteeAdjacency {
    /// The neighbours of committee `c`, ascending by neighbour slot, each
    /// with its lexicographically smallest bridge.
    pub fn neighbors(&self, c: CommitteeId) -> &[CommitteeNeighbor] {
        &self.rows[self.offsets[c.index()]..self.offsets[c.index() + 1]]
    }

    /// Total number of (ordered) committee adjacency rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// The selection rule every committee algorithm shares: among the
    /// neighbouring committees whose leader UID is **strictly larger**
    /// than `c`'s and that satisfy `eligible`, pick the one with the
    /// largest leader UID and return it with its bridge (the fold of
    /// `select_largest_uid` over `c`'s rows, each holding its smallest
    /// bridge). UIDs are unique, so the maximum is unambiguous; with no
    /// strictly-larger eligible neighbour, `c` is a root this phase and
    /// `None` is returned.
    pub fn select_largest_uid_neighbor<F>(
        &self,
        c: CommitteeId,
        forest: &CommitteeForest,
        uids: &UidMap,
        mut eligible: F,
    ) -> Option<(CommitteeId, NodeId, NodeId)>
    where
        F: FnMut(CommitteeId) -> bool,
    {
        let candidates = self
            .neighbors(c)
            .iter()
            .filter(|row| eligible(row.other))
            .map(|row| {
                let uid = uids.uid(forest.leader(row.other));
                (uid, row.other, row.bridge_local, row.bridge_remote)
            });
        select_largest_uid(uids.uid(forest.leader(c)), candidates)
    }
}

/// The per-phase selection forest: every committee optionally selects a
/// parent (a strictly larger-UID neighbour), the edges form a forest, and
/// each tree merges into its root. Children lists, the root list and the
/// root of every slot are resolved once at construction (one pass + path
/// memoisation) instead of the per-query pointer chasing the wreath engine
/// used to do.
#[derive(Debug, Clone)]
pub struct SelectionForest {
    parent: Vec<Option<CommitteeId>>,
    children: Vec<Vec<CommitteeId>>,
    roots: Vec<CommitteeId>,
    root: Vec<CommitteeId>,
}

impl SelectionForest {
    /// Builds the forest from `(child, parent)` selection pairs (at most
    /// one per child). Roots are the alive committees that selected no
    /// parent, ascending; children lists are ascending by child.
    ///
    /// Selection chains are acyclic by construction (UIDs strictly
    /// increase along them); a malformed cyclic input is tolerated by
    /// bounding the root chase at the arena size, mirroring the guard of
    /// the old per-query chaser.
    pub fn new(forest: &CommitteeForest, edges: &[(CommitteeId, CommitteeId)]) -> Self {
        let slots = forest.slot_count();
        let mut parent: Vec<Option<CommitteeId>> = vec![None; slots];
        let mut children: Vec<Vec<CommitteeId>> = vec![Vec::new(); slots];
        for &(child, p) in edges {
            debug_assert!(parent[child.index()].is_none(), "one selection per child");
            parent[child.index()] = Some(p);
        }
        // Ascending child order within every children list.
        for &cid in forest.live_ids() {
            if let Some(p) = parent[cid.index()] {
                children[p.index()].push(cid);
            }
        }
        let roots: Vec<CommitteeId> = forest
            .live_ids()
            .iter()
            .copied()
            .filter(|c| parent[c.index()].is_none())
            .collect();
        // Resolve the root of every alive slot, memoising along the chase.
        let mut root: Vec<CommitteeId> = (0..slots).map(CommitteeId).collect();
        let mut resolved = vec![false; slots];
        for &r in &roots {
            resolved[r.index()] = true;
        }
        let mut path: Vec<CommitteeId> = Vec::new();
        for &cid in forest.live_ids() {
            if resolved[cid.index()] {
                continue;
            }
            path.clear();
            let mut c = cid;
            let mut guard = 0usize;
            while !resolved[c.index()] {
                path.push(c);
                match parent[c.index()] {
                    Some(p) => c = p,
                    None => break,
                }
                guard += 1;
                if guard > slots {
                    break; // malformed cycle: stop where the old guard did
                }
            }
            let r = if resolved[c.index()] {
                root[c.index()]
            } else {
                c
            };
            for &on_path in &path {
                root[on_path.index()] = r;
                resolved[on_path.index()] = true;
            }
        }
        SelectionForest {
            parent,
            children,
            roots,
            root,
        }
    }

    /// The roots of the forest (alive committees that selected no parent),
    /// ascending.
    pub fn roots(&self) -> &[CommitteeId] {
        &self.roots
    }

    /// The committees that selected `c` as their parent, ascending.
    pub fn children(&self, c: CommitteeId) -> &[CommitteeId] {
        &self.children[c.index()]
    }

    /// True when at least one committee selected `c`.
    pub fn has_children(&self, c: CommitteeId) -> bool {
        !self.children[c.index()].is_empty()
    }

    /// The parent `c` selected, if any.
    pub fn parent(&self, c: CommitteeId) -> Option<CommitteeId> {
        self.parent[c.index()]
    }

    /// The root of the selection tree containing `c`.
    pub fn root_of(&self, c: CommitteeId) -> CommitteeId {
        self.root[c.index()]
    }
}

/// The start-of-run step every committee entry point shares — the round
/// engines' `execute` and the runtime's seeded and free entry points
/// alike: the input checks, in this order — a non-empty network, one UID
/// per node, and a connected graph (the error names `algorithm`) — then
/// the per-round trace switched on or off as `run` asks, before the first
/// round of either engine.
pub(crate) fn start_run(
    network: &mut Network,
    uids: &UidMap,
    algorithm: &str,
    run: &RunConfig,
) -> Result<(), CoreError> {
    let graph = network.graph();
    let n = graph.node_count();
    if n == 0 {
        return Err(CoreError::InvalidInput {
            reason: "the initial network must contain at least one node".into(),
        });
    }
    if uids.len() != n {
        return Err(CoreError::InvalidInput {
            reason: "one UID per node is required".into(),
        });
    }
    if !adn_graph::traversal::is_connected(graph) {
        return Err(CoreError::InvalidInput {
            reason: format!("{algorithm} requires a connected initial network"),
        });
    }
    network.set_trace_enabled(run.trace.is_per_round());
    Ok(())
}

/// The selection fold every committee algorithm shares: among candidate
/// neighbouring committees `(leader UID, committee, x, y)` — `x` a bridge
/// endpoint in the selecting committee, `y` its neighbour in the
/// candidate — whose leader UID is **strictly larger** than `my_uid`,
/// pick the largest UID and, among that committee's bridges, the
/// lexicographically smallest `(x, y)`. UIDs are unique, so the result is
/// unambiguous; with no strictly larger candidate the selecting committee
/// is a root this phase and `None` is returned. Every clause is
/// order-independent, so a leader folding its members' reports in any
/// arrival order decides as the round engine does over its adjacency
/// rows.
pub(crate) fn select_largest_uid<T>(
    my_uid: Uid,
    candidates: impl IntoIterator<Item = (Uid, T, NodeId, NodeId)>,
) -> Option<(T, NodeId, NodeId)> {
    let mut best: Option<(Uid, T, NodeId, NodeId)> = None;
    for candidate in candidates {
        let (uid, _, x, y) = candidate;
        if uid > my_uid
            && best
                .as_ref()
                .is_none_or(|&(b, _, bx, by)| uid > b || (uid == b && (x, y) < (bx, by)))
        {
            best = Some(candidate);
        }
    }
    best.map(|(_, target, x, y)| (target, x, y))
}

/// Phase accounting every committee engine shares: the phase counter, the
/// committee census of every phase, and the phase limit past which a run
/// has not converged.
#[derive(Debug)]
pub(crate) struct PhaseLog {
    /// The algorithm named by the errors.
    pub(crate) algorithm: &'static str,
    limit: usize,
    /// Phases opened so far, the termination phase included.
    pub(crate) phases: usize,
    committees_per_phase: Vec<usize>,
}

impl PhaseLog {
    /// An empty record for `algorithm`, which fails past `limit` phases.
    pub(crate) fn new(algorithm: &'static str, limit: usize) -> Self {
        PhaseLog {
            algorithm,
            limit,
            phases: 0,
            committees_per_phase: Vec::new(),
        }
    }

    /// Opens a phase that starts with `live` committees: counts it, checks
    /// the round budget, and fails with [`CoreError::DidNotConverge`] past
    /// the phase limit. The phase's traced rounds then carry `live` as
    /// their `groups_alive`.
    pub(crate) fn begin(
        &mut self,
        run: &RunConfig,
        network: &mut Network,
        live: usize,
    ) -> Result<(), CoreError> {
        self.phases += 1;
        run.check_round_budget(network)?;
        if self.phases > self.limit {
            return Err(CoreError::DidNotConverge {
                algorithm: self.algorithm,
                phase_limit: self.limit,
            });
        }
        self.committees_per_phase.push(live);
        network.note_groups_alive(live);
        Ok(())
    }

    /// Opens the termination phase (one committee left), after checking
    /// the round budget; its traced rounds carry one live group.
    pub(crate) fn terminate(
        &mut self,
        run: &RunConfig,
        network: &mut Network,
    ) -> Result<(), CoreError> {
        run.check_round_budget(network)?;
        self.phases += 1;
        self.committees_per_phase.push(1);
        network.note_groups_alive(1);
        Ok(())
    }

    /// The outcome of the run on `network`, elected `leader`, with this
    /// phase record.
    pub(crate) fn outcome(self, leader: NodeId, network: &mut Network) -> TransformationOutcome {
        let mut outcome = TransformationOutcome::from_network(leader, network);
        outcome.phases = self.phases;
        outcome.committees_per_phase = self.committees_per_phase;
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adn_graph::generators;

    fn cid(i: usize) -> CommitteeId {
        CommitteeId(i)
    }

    #[test]
    fn singletons_partition_every_node() {
        let f = CommitteeForest::singletons(5);
        assert_eq!(f.live_count(), 5);
        assert_eq!(f.tracked_nodes(), 5);
        for i in 0..5 {
            assert_eq!(f.committee_of(NodeId(i)), Some(cid(i)));
            assert_eq!(f.leader(cid(i)), NodeId(i));
            assert_eq!(f.members(cid(i)), &[NodeId(i)]);
            assert!(f.is_alive(cid(i)));
        }
        assert_eq!(f.committee_of(NodeId(5)), None, "untracked node");
    }

    #[test]
    fn absorb_merges_membership_and_kills_the_dying_slot() {
        let mut f = CommitteeForest::singletons(6);
        f.absorb(cid(0), cid(3));
        f.absorb(cid(5), cid(3));
        f.absorb(cid(3), cid(1));
        assert_eq!(f.live_ids(), &[cid(1), cid(2), cid(4)]);
        assert_eq!(
            f.members(cid(1)),
            &[NodeId(1), NodeId(3), NodeId(0), NodeId(5)],
            "member lists keep the historical merge order"
        );
        for u in [0usize, 1, 3, 5] {
            assert_eq!(f.committee_of(NodeId(u)), Some(cid(1)));
            assert_eq!(f.leader_of(NodeId(u)), NodeId(1));
        }
        assert!(!f.is_alive(cid(3)));
        assert_eq!(f.live_count(), 3);
    }

    #[test]
    fn replace_members_and_retire_model_a_ring_merge() {
        let mut f = CommitteeForest::singletons(4);
        // Slot 2 absorbs everyone in splice order 2, 0, 3, 1 (ring order,
        // deliberately unsorted).
        let ring = vec![NodeId(2), NodeId(0), NodeId(3), NodeId(1)];
        f.replace_members(cid(2), ring.clone());
        for c in [cid(0), cid(1), cid(3)] {
            f.retire(c);
        }
        assert_eq!(f.live_ids(), &[cid(2)]);
        assert_eq!(f.members(cid(2)), &ring[..], "ring order preserved");
        for u in 0..4 {
            assert_eq!(f.committee_of(NodeId(u)), Some(cid(2)));
        }
    }

    #[test]
    fn adjacency_matches_the_nested_btreemap_builder_shape() {
        // Line 0-1-2-3 with committees {0,1} and {2,3}: one committee pair,
        // bridged by (1, 2).
        let g = generators::line(4);
        let mut f = CommitteeForest::singletons(4);
        f.absorb(cid(0), cid(1));
        f.absorb(cid(3), cid(2));
        let adj = f.committee_adjacency(&g);
        assert_eq!(adj.row_count(), 2);
        let rows = adj.neighbors(cid(1));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].other, cid(2));
        assert_eq!(
            (rows[0].bridge_local, rows[0].bridge_remote),
            (NodeId(1), NodeId(2))
        );
        let back = adj.neighbors(cid(2));
        assert_eq!(
            (back[0].bridge_local, back[0].bridge_remote),
            (NodeId(2), NodeId(1))
        );
        // Dead slots have no rows.
        assert!(adj.neighbors(cid(0)).is_empty());
    }

    #[test]
    fn adjacency_picks_the_lexicographically_smallest_bridge() {
        // Two parallel bridges between {0,1} and {2,3}: (1,2) and (0,3).
        // The smallest (x, y) per direction wins: (0, 3) for c0 -> c1
        // (0 < 1), and (2, 1) for c1 -> c0 (both bridges start at their
        // smaller local endpoint; (2, 1) < (3, 0)).
        let g = Graph::from_edges(
            4,
            vec![
                (NodeId(0), NodeId(1)),
                (NodeId(2), NodeId(3)),
                (NodeId(1), NodeId(2)),
                (NodeId(0), NodeId(3)),
            ],
        )
        .unwrap();
        let mut f = CommitteeForest::singletons(4);
        f.absorb(cid(1), cid(0));
        f.absorb(cid(3), cid(2));
        let adj = f.committee_adjacency(&g);
        let row = &adj.neighbors(cid(0))[0];
        assert_eq!(
            (row.bridge_local, row.bridge_remote),
            (NodeId(0), NodeId(3))
        );
        let row = &adj.neighbors(cid(2))[0];
        assert_eq!(
            (row.bridge_local, row.bridge_remote),
            (NodeId(2), NodeId(1))
        );
    }

    #[test]
    fn adjacency_skips_untracked_churned_nodes() {
        let mut g = generators::line(3);
        let joined = g.add_node();
        g.add_edge(NodeId(0), joined).unwrap();
        let f = CommitteeForest::singletons(3);
        let adj = f.committee_adjacency(&g);
        // Rows only among the 3 tracked singletons: (0,1) and (1,2).
        assert_eq!(adj.row_count(), 4);
        assert!(adj.neighbors(cid(0)).iter().all(|r| r.other.index() < 3));
    }

    #[test]
    fn selection_forest_resolves_roots_children_and_levels() {
        let f = CommitteeForest::singletons(7);
        // 1 -> 0, 2 -> 0, 4 -> 2, 5 -> 4; 3 and 6 are isolated roots.
        let edges = vec![
            (cid(1), cid(0)),
            (cid(2), cid(0)),
            (cid(4), cid(2)),
            (cid(5), cid(4)),
        ];
        let sel = SelectionForest::new(&f, &edges);
        assert_eq!(sel.roots(), &[cid(0), cid(3), cid(6)]);
        assert_eq!(sel.children(cid(0)), &[cid(1), cid(2)]);
        assert_eq!(sel.children(cid(2)), &[cid(4)]);
        assert!(sel.has_children(cid(4)));
        assert!(!sel.has_children(cid(1)));
        for c in [cid(0), cid(1), cid(2), cid(4), cid(5)] {
            assert_eq!(sel.root_of(c), cid(0), "{c}");
        }
        assert_eq!(sel.root_of(cid(3)), cid(3));
        assert_eq!(sel.parent(cid(5)), Some(cid(4)));
        assert_eq!(sel.parent(cid(0)), None);
    }

    #[test]
    fn selection_fold_is_strict_and_order_independent() {
        // Reports as a leader with UID 5 receives them: two bridges into
        // the UID-9 committee led by v7, one into UID 8, one into our own
        // committee (UID 5) and one into a smaller one (UID 3).
        let reports = [
            (Uid(8), NodeId(6), NodeId(1), NodeId(6)),
            (Uid(9), NodeId(7), NodeId(2), NodeId(9)),
            (Uid(5), NodeId(0), NodeId(1), NodeId(4)),
            (Uid(9), NodeId(7), NodeId(1), NodeId(8)),
            (Uid(3), NodeId(3), NodeId(0), NodeId(3)),
        ];
        let expected = Some((NodeId(7), NodeId(1), NodeId(8)));
        // Every rotation and its reverse pick the same target and the
        // smallest bridge into it.
        for k in 0..reports.len() {
            let mut order = reports.to_vec();
            order.rotate_left(k);
            assert_eq!(select_largest_uid(Uid(5), order.iter().copied()), expected);
            order.reverse();
            assert_eq!(select_largest_uid(Uid(5), order), expected);
        }
        // Strictly larger only: the largest leader selects nothing.
        assert_eq!(select_largest_uid(Uid(9), reports), None);
    }

    #[test]
    fn display_and_index_roundtrip() {
        assert_eq!(cid(7).to_string(), "c7");
        assert_eq!(cid(7).index(), 7);
    }
}
