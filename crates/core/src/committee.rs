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
//! [`CommitteeId`] slots and flat membership columns. As in the paper,
//! where each committee learns its neighbouring committees from the
//! current network at the start of every phase, the round engines call
//! [`CommitteeForest::select_largest_uid_neighbors`] on the phase's
//! snapshot: one pass over the edge set per phase that folds every edge
//! into its endpoints' selections, a per-committee extremum as in the
//! phases of Borůvka's and Gallager–Humblet–Spira's MST algorithms, with
//! nothing carried over between phases. The pieces of a phase that every
//! committee engine — round-based or actor-based — shares live here too:
//! the largest-UID selection rule ([`select_largest_uid`]) and the phase
//! record with its convergence limit.
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

    /// Every slot's selection over the committee adjacency of `graph`,
    /// indexed by slot: for an alive committee `c`, the neighbouring
    /// committee that satisfies `eligible` and whose leader UID is the
    /// largest, and strictly larger than `c`'s, with the lexicographically
    /// smallest bridge `(x, y)` into it (`x` in `c`, `y` in the target).
    ///
    /// One pass over the edges: each edge between two committees is
    /// offered to the committee whose leader has the smaller UID (the
    /// only side the rule lets select the other) through
    /// [`select_largest_uid`]'s comparison, which is order-independent, so
    /// the result is that fold over each committee's neighbours and their
    /// bridges. Dead slots and committees with no eligible larger
    /// neighbour get `None`. Edges with an endpoint beyond the tracked
    /// vertex set (churned-in nodes) are skipped.
    pub fn select_largest_uid_neighbors(
        &self,
        graph: &Graph,
        uids: &UidMap,
        mut eligible: impl FnMut(CommitteeId) -> bool,
    ) -> Vec<Option<(CommitteeId, NodeId, NodeId)>> {
        let tracked = self.committee_of.len().min(graph.node_count());
        let mut best: Vec<Option<Candidate<CommitteeId>>> = vec![None; self.slot_count()];
        // Each edge {a, b} once, from its smaller endpoint `a`.
        for (i, &ca) in self.committee_of[..tracked].iter().enumerate() {
            let a = NodeId(i);
            let ua = uids.uid(self.leader(ca));
            for &b in graph.neighbors_slice(a) {
                if b <= a || b.index() >= tracked {
                    continue;
                }
                let cb = self.committee_of[b.index()];
                if ca == cb {
                    continue;
                }
                let ub = uids.uid(self.leader(cb));
                let (me, my_uid, other, other_uid, x, y) = if ua < ub {
                    (ca, ua, cb, ub, a, b)
                } else {
                    (cb, ub, ca, ua, b, a)
                };
                if eligible(other) {
                    offer(&mut best[me.index()], my_uid, (other_uid, other, x, y));
                }
            }
        }
        best.into_iter()
            .map(|b| b.map(|(_, target, x, y)| (target, x, y)))
            .collect()
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

/// A neighbouring committee on offer to a selecting one, as
/// [`select_largest_uid`] takes it.
type Candidate<T> = (Uid, T, NodeId, NodeId);

/// The selection rule, one candidate at a time: `candidate` replaces
/// `best` when its leader UID is **strictly larger** than `my_uid` and it
/// beats `best` — a larger UID, or the same committee over a
/// lexicographically smaller bridge `(x, y)`. The one comparison behind
/// [`select_largest_uid`] and [`CommitteeForest::select_largest_uid_neighbors`].
fn offer<T>(best: &mut Option<Candidate<T>>, my_uid: Uid, candidate: Candidate<T>) {
    let (uid, _, x, y) = candidate;
    if uid > my_uid
        && best
            .as_ref()
            .is_none_or(|&(b, _, bx, by)| uid > b || (uid == b && (x, y) < (bx, by)))
    {
        *best = Some(candidate);
    }
}

/// The selection fold every committee algorithm shares: among the
/// candidate neighbouring committees `(leader UID, committee, x, y)` — `x`
/// a bridge endpoint in the selecting committee, `y` its neighbour in the
/// candidate — whose leader UID is **strictly larger** than `my_uid`,
/// pick the largest UID and, among that committee's bridges, the
/// lexicographically smallest `(x, y)`. UIDs are unique, so the result is
/// unambiguous; with no strictly larger candidate the selecting committee
/// is a root this phase and `None` is returned. Every clause is
/// order-independent, so a leader folding its members' reports in any
/// arrival order decides as the round engine does in its pass over the
/// snapshot's edges.
pub fn select_largest_uid<T>(
    my_uid: Uid,
    candidates: impl IntoIterator<Item = (Uid, T, NodeId, NodeId)>,
) -> Option<(T, NodeId, NodeId)> {
    let mut best = None;
    for candidate in candidates {
        offer(&mut best, my_uid, candidate);
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
    /// the phase limit.
    pub(crate) fn begin(
        &mut self,
        run: &RunConfig,
        network: &Network,
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
        Ok(())
    }

    /// Opens the termination phase (one committee left), after checking
    /// the round budget.
    pub(crate) fn terminate(
        &mut self,
        run: &RunConfig,
        network: &Network,
    ) -> Result<(), CoreError> {
        run.check_round_budget(network)?;
        self.phases += 1;
        self.committees_per_phase.push(1);
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
    use adn_graph::{generators, UidAssignment};

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

    fn all(_: CommitteeId) -> bool {
        true
    }

    #[test]
    fn selection_takes_the_bridge_between_two_committees() {
        // Line 0-1-2-3 with committees {0,1} and {2,3}: one committee pair,
        // bridged by (1, 2).
        let g = generators::line(4);
        let mut f = CommitteeForest::singletons(4);
        f.absorb(cid(0), cid(1));
        f.absorb(cid(3), cid(2));
        // Sequential UIDs: leader 2 outranks leader 1.
        let uids = UidMap::new(4, UidAssignment::Sequential);
        let sel = f.select_largest_uid_neighbors(&g, &uids, all);
        assert_eq!(sel[1], Some((cid(2), NodeId(1), NodeId(2))));
        assert_eq!(sel[2], None, "the larger committee is a root");
        // Reversed UIDs: the other direction, over the same bridge.
        let uids = UidMap::new(4, UidAssignment::Reversed);
        let sel = f.select_largest_uid_neighbors(&g, &uids, all);
        assert_eq!(sel[1], None);
        assert_eq!(sel[2], Some((cid(1), NodeId(2), NodeId(1))));
        // Dead slots select nothing; an ineligible target is passed over.
        assert_eq!((sel[0], sel[3]), (None, None));
        let sel = f.select_largest_uid_neighbors(&g, &uids, |c| c != cid(1));
        assert!(sel.iter().all(Option::is_none));
    }

    #[test]
    fn selection_picks_the_lexicographically_smallest_bridge() {
        // Two parallel bridges between {0,1} and {2,3}: (1,2) and (0,3).
        // The smallest (x, y) per direction wins: (0, 3) for c0 -> c2
        // (0 < 1), and (2, 1) for c2 -> c0 (both bridges start at their
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
        let uids = UidMap::new(4, UidAssignment::Sequential);
        let sel = f.select_largest_uid_neighbors(&g, &uids, all);
        assert_eq!(sel[0], Some((cid(2), NodeId(0), NodeId(3))));
        let uids = UidMap::new(4, UidAssignment::Reversed);
        let sel = f.select_largest_uid_neighbors(&g, &uids, all);
        assert_eq!(sel[2], Some((cid(0), NodeId(2), NodeId(1))));
    }

    #[test]
    fn selection_skips_untracked_churned_nodes() {
        // The joined node hangs off node 0, the smallest UID: were it
        // visible, node 0 would select it (or fail to find its UID).
        let mut g = generators::line(3);
        let joined = g.add_node();
        g.add_edge(NodeId(0), joined).unwrap();
        let f = CommitteeForest::singletons(3);
        let uids = UidMap::new(3, UidAssignment::Sequential);
        let sel = f.select_largest_uid_neighbors(&g, &uids, all);
        assert_eq!(sel.len(), 3, "one entry per slot");
        assert_eq!(sel[0], Some((cid(1), NodeId(0), NodeId(1))));
        assert_eq!(sel[1], Some((cid(2), NodeId(1), NodeId(2))));
        assert_eq!(sel[2], None);
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
