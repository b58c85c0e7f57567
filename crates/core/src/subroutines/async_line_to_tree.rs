//! Asynchronous `LineToCompleteBinaryTree` (Appendix B), generalised to
//! arbitrary arity.
//!
//! Nodes wake up at different rounds (in the wreath algorithms the wake-up
//! round is the time at which the activation message propagated from an
//! ex-committee leader reaches the node). The paper sequences the pointer
//! jumps of the synchronous subroutine with `EA`/`DEA` activation and
//! deactivation counters so that, despite the staggered wake-ups, the
//! asynchronous execution performs **exactly the same edge activations and
//! deactivations** as the synchronous one (Lemma B.4) and finishes within
//! `O(log n + k)` rounds where `k` is the last wake-up time
//! (Corollary B.5).
//!
//! We implement the same discipline in its extensional form: every node
//! follows its synchronous jump schedule, and a jump is performed in a
//! round only when (i) the node, its current parent and the jump target
//! are awake, (ii) the supporting edge between the current parent and the
//! target is active at the beginning of the round (the distance-2
//! witness), and (iii) no child of the node still needs the edge about to
//! be deactivated — unless that child performs its own jump in the very
//! same round, mirroring the simultaneity of the synchronous execution.
//! These are precisely the constraints the `EA`/`DEA` counters encode; the
//! result is bit-for-bit the synchronous tree, which the tests assert for
//! arbitrary wake-up schedules.
//!
//! One implementation runs a whole *batch* of node-disjoint lines in
//! lockstep, because the wreath algorithms rebuild the trees of all
//! committees merged in a phase at once (Appendix B runs these rebuilds
//! in parallel). Each round, every unfinished line is marked against its
//! own wake-up schedule and round limit, all lines' jumps are committed
//! together in batch order through `Network::commit_jumps`, one in-place
//! adjacency move per jump, and an idle round is charged only when no line
//! moved. The lines share no node and a line's witness checks read only
//! its own edges, so every line performs exactly the jump sequence of a
//! run on its own: a batch takes the *maximum* of its lines' round counts
//! rather than their sum. [`run_async_line_to_tree`] is a one-line batch,
//! and the synchronous
//! [`run_line_to_tree`](crate::subroutines::run_line_to_tree) is that
//! batch with every node awake from round 1 (Lemma B.4).
//!
//! `plan_sync_schedule` is the only code that decides Proposition 2.2's
//! jumps; the lockstep batch here and the actors of
//! [`crate::subroutines::runtime_line_to_tree`] only carry its plan out.
//! The plan is flat, one column of jump targets with per-position
//! offsets, and the batch memoises it per (line length, arity). Each
//! round's marking pass records every jump's mover, old parent and target
//! once, and the round's jumps are built from that record. A position
//! leaves its line edge only on its first jump (later jumps leave a parent
//! at least two positions back, and no position jumps off the root), so
//! `keep_line_edges` keeps a wreath's ring by position alone.

use crate::subroutines::{LineScratch, LineToTreeConfig};
use crate::CoreError;
use adn_graph::properties::ceil_log2;
use adn_graph::{NodeId, RootedTree};
use adn_sim::{Jump, Network};

/// The synchronous jump schedule of a line, flat: position `pos` hops,
/// in order, to the grandparent positions
/// `targets[offsets[pos]..offsets[pos + 1]]`. All jumps sit in one
/// column, positions ascending, so a plan is two allocations whatever the
/// line's length, and per-jump data of the actors lives in columns
/// parallel to it (see [`JumpPlan::jump_index`]).
#[derive(Debug)]
pub(crate) struct JumpPlan {
    offsets: Vec<usize>,
    targets: Vec<usize>,
}

impl JumpPlan {
    /// The grandparent positions `pos` hops to, in order.
    pub(crate) fn targets(&self, pos: usize) -> &[usize] {
        &self.targets[self.offsets[pos]..self.offsets[pos + 1]]
    }

    /// Index of jump `j` of position `pos` in the flat jump column.
    pub(crate) fn jump_index(&self, pos: usize, j: usize) -> usize {
        self.offsets[pos] + j
    }

    /// Number of jumps of the whole line.
    pub(crate) fn jump_count(&self) -> usize {
        self.targets.len()
    }
}

/// The planner's working columns, reused from one plan to the next.
#[derive(Debug, Default)]
pub(crate) struct PlanWork {
    /// Per position: current parent position.
    parent: Vec<usize>,
    /// Per position: current child count.
    child_count: Vec<usize>,
    /// Per position: jumps onto it admitted in the current pass (all zero
    /// between passes).
    admitted: Vec<usize>,
    /// The positions not yet terminated, ascending.
    active: Vec<usize>,
    /// Every planned jump as (position, target), in pass order.
    log: Vec<(usize, usize)>,
}

/// Plans the synchronous subroutine purely on positions (no network) for
/// a line of `n` positions: the one implementation of Proposition 2.2's
/// rule, which [`run_lockstep`] and the actors of
/// [`crate::subroutines::runtime_line_to_tree`] carry out. Each pass reads
/// the start-of-pass parents and child counts: a position whose parent is
/// the root, or whose grandparent already has `arity` children,
/// terminates; the others hop to their grandparent, lowest positions
/// first, while the grandparent has room.
pub(crate) fn plan_sync_schedule(n: usize, arity: usize, work: &mut PlanWork) -> JumpPlan {
    let PlanWork {
        parent,
        child_count,
        admitted,
        active,
        log,
    } = work;
    parent.clear();
    parent.extend((0..n).map(|i| i.saturating_sub(1)));
    child_count.clear();
    child_count.extend((0..n).map(|i| usize::from(i + 1 < n)));
    admitted.clear();
    admitted.resize(n, 0);
    active.clear();
    active.extend(1..n);
    log.clear();
    loop {
        let pass = log.len();
        let mut kept = 0;
        for i in 0..active.len() {
            let pos = active[i];
            let p = parent[pos];
            if p == 0 || child_count[parent[p]] >= arity {
                continue;
            }
            active[kept] = pos;
            kept += 1;
            let gp = parent[p];
            if child_count[gp] + admitted[gp] < arity {
                admitted[gp] += 1;
                log.push((pos, gp));
            }
        }
        active.truncate(kept);
        if log.len() == pass {
            // A position skips a pass without terminating only when
            // another jump onto the same grandparent was planned in it,
            // so a pass that plans no jump has terminated everyone.
            debug_assert!(
                active.is_empty(),
                "a pass planned no jump but left positions unterminated"
            );
            break;
        }
        for &(pos, gp) in &log[pass..] {
            admitted[gp] = 0;
            child_count[parent[pos]] -= 1;
            child_count[gp] += 1;
            parent[pos] = gp;
        }
    }
    // Bucket the log by position; a stable scatter keeps each position's
    // jumps in pass order. `admitted` is all zero again and serves as the
    // write cursors.
    let mut offsets = vec![0; n + 1];
    for &(pos, _) in log.iter() {
        offsets[pos + 1] += 1;
    }
    for pos in 0..n {
        offsets[pos + 1] += offsets[pos];
    }
    let cursor = admitted;
    cursor.copy_from_slice(&offsets[..n]);
    let mut targets = vec![0; log.len()];
    for &(pos, gp) in log.iter() {
        targets[cursor[pos]] = gp;
        cursor[pos] += 1;
    }
    JumpPlan { offsets, targets }
}

/// One jump of a lockstep round, as batch indices (line start +
/// position): the mover, the parent it leaves and the target it hops to.
#[derive(Debug)]
pub(crate) struct Mover {
    pos: usize,
    parent: usize,
    target: usize,
}

/// The tree the synchronous schedule builds, in position space: each
/// position's parent is its last jump target, or its line predecessor if
/// it never jumps. The executors' tests compare against it.
#[cfg(test)]
pub(crate) fn planned_tree(n: usize, arity: usize) -> RootedTree {
    let plan = plan_sync_schedule(n, arity, &mut PlanWork::default());
    let parents = (0..n)
        .map(|pos| (pos > 0).then(|| NodeId(plan.targets(pos).last().copied().unwrap_or(pos - 1))))
        .collect();
    RootedTree::from_parents(NodeId(0), parents).expect("the plan builds a tree")
}

/// Runs the asynchronous line-to-tree subroutine.
///
/// `line` and `config` are as in
/// [`run_line_to_tree`](crate::subroutines::run_line_to_tree);
/// `wake_round[i]` is the wake-up round (1-based, relative to the start
/// of the subroutine) of `line[i]`. The returned tree is again in
/// position space (vertex `i` is `line[i]`).
///
/// # Errors
///
/// * [`CoreError::InvalidInput`] on the inputs
///   [`run_line_to_tree`](crate::subroutines::run_line_to_tree) rejects,
///   or a `wake_round` slice of the wrong length.
/// * [`CoreError::DidNotConverge`] / [`CoreError::Sim`] on implementation
///   bugs.
pub fn run_async_line_to_tree(
    network: &mut Network,
    line: &[NodeId],
    config: &LineToTreeConfig,
    wake_round: &[usize],
) -> Result<(RootedTree, usize), CoreError> {
    if wake_round.len() != line.len() {
        return Err(CoreError::InvalidInput {
            reason: format!(
                "wake_round has {} entries for a line of {} nodes",
                wake_round.len(),
                line.len()
            ),
        });
    }
    let mut scratch = LineScratch::new();
    scratch.push_line(line, wake_round.iter().copied());
    let rounds = run_lockstep(network, config.arity, config.keep_line_edges, &mut scratch)?;
    let parents: Vec<Option<NodeId>> = scratch
        .line_parents(0)
        .iter()
        .enumerate()
        .map(|(pos, &parent)| (pos > 0).then_some(NodeId(parent)))
        .collect();
    let tree = RootedTree::from_parents(NodeId(0), parents).expect("valid tree by construction");
    Ok((tree, rounds))
}

/// Whether the jump of position `pos` off parent position `parent` drops
/// the edge it leaves: always, unless line edges are kept and the parent
/// is the line predecessor, which it is exactly on a position's first
/// jump. Only the difference of the two positions matters, so both may be
/// offset by a line's start in a batch. Both executors decide drops here.
pub(crate) fn drops_left_edge(keep_line_edges: bool, pos: usize, parent: usize) -> bool {
    !(keep_line_edges && parent + 1 == pos)
}

/// Rejects, in this order, an empty line, zero arity, a line repeating a
/// node (naming the smallest repeated one), a line naming a node outside
/// the network, and a line whose consecutive nodes are not adjacent in the
/// current graph. Every line-to-tree entry point validates through here.
///
/// `seen` is a mark column, one entry per network node, all clear between
/// calls: it grows to the node count once, and each check marks its
/// line's nodes and clears those marks again, so a check costs O(line).
/// A node outside the network has no mark; such nodes are compared among
/// themselves, and only in that error case.
pub(crate) fn validate_line(
    network: &Network,
    line: &[NodeId],
    arity: usize,
    seen: &mut Vec<bool>,
) -> Result<(), CoreError> {
    if line.is_empty() {
        return Err(CoreError::InvalidInput {
            reason: "line must contain at least one node".into(),
        });
    }
    if arity == 0 {
        return Err(CoreError::InvalidInput {
            reason: "arity must be at least 1".into(),
        });
    }
    let n = network.node_count();
    if seen.len() < n {
        seen.resize(n, false);
    }
    let mut repeated: Option<NodeId> = None;
    let mut outside: Vec<NodeId> = Vec::new();
    for &u in line {
        if u.index() >= n {
            outside.push(u);
        } else if std::mem::replace(&mut seen[u.index()], true) {
            repeated = Some(repeated.map_or(u, |r| r.min(u)));
        }
    }
    for &u in line {
        if u.index() < n {
            seen[u.index()] = false;
        }
    }
    if repeated.is_none() {
        // Every node outside the network is larger than every node in it,
        // so its repeats only count when the line has no other.
        outside.sort_unstable();
        repeated = outside.windows(2).find(|w| w[0] == w[1]).map(|w| w[0]);
    }
    if let Some(u) = repeated {
        return Err(CoreError::InvalidInput {
            reason: format!("node {u} appears twice in the line"),
        });
    }
    if !outside.is_empty() {
        return Err(CoreError::InvalidInput {
            reason: "line refers to nodes outside the network".into(),
        });
    }
    for w in line.windows(2) {
        if !network.graph().has_edge(w[0], w[1]) {
            return Err(CoreError::InvalidInput {
                reason: format!(
                    "consecutive line nodes {} and {} are not adjacent",
                    w[0], w[1]
                ),
            });
        }
    }
    Ok(())
}

/// The lockstep core: turns every line of `scratch`'s batch (see
/// [`LineScratch::push_line`]) into an `arity`-ary tree, all lines in the
/// same rounds, and returns the number of rounds the batch took — the
/// maximum over its lines. The lines must be node-disjoint. With
/// `keep_line_edges` no line edge is ever deactivated: a position's first
/// jump leaves its line predecessor without dropping that edge, and no
/// later jump leaves a line edge (see [`LineToTreeConfig`]). Afterwards
/// [`LineScratch::line_parents`] holds each line's tree in position space.
///
/// # Errors
///
/// * [`CoreError::InvalidInput`] for zero arity or a malformed line, the
///   first in batch order; checked before the first round.
/// * [`CoreError::DidNotConverge`] when an unfinished line runs past its
///   round limit (the first such line in batch order), and
///   [`CoreError::Sim`] when a round's jumps fail the network's checks —
///   both only under faults or on implementation bugs.
pub(crate) fn run_lockstep(
    network: &mut Network,
    arity: usize,
    keep_line_edges: bool,
    scratch: &mut LineScratch,
) -> Result<usize, CoreError> {
    if arity == 0 {
        return Err(CoreError::InvalidInput {
            reason: "arity must be at least 1".into(),
        });
    }
    let lines = scratch.line_count();
    let LineScratch {
        plans,
        plan_of,
        plan_work,
        line_start,
        line_plan,
        line_remaining,
        line_limit,
        nodes,
        wake,
        parent_pos,
        jumps_done,
        blocked,
        movers,
        seen,
        wave,
    } = scratch;

    // Every position starts as the child of its predecessor on the line.
    // During the rounds a parent is a batch index (line start + position),
    // as the per-position columns are indexed; the run ends by turning
    // the parents back into positions.
    let total = nodes.len();
    parent_pos.clear();
    jumps_done.clear();
    jumps_done.resize(total, 0);
    blocked.clear();
    blocked.resize(total, false);
    line_plan.clear();
    line_remaining.clear();
    line_limit.clear();
    let mut unfinished = 0usize;
    for k in 0..lines {
        let (base, end) = (line_start[k], line_start[k + 1]);
        validate_line(network, &nodes[base..end], arity, seen)?;
        let n = end - base;
        parent_pos.extend((0..n).map(|i| base + i.saturating_sub(1)));
        let id = *plan_of.entry((n, arity)).or_insert_with(|| {
            plans.push(plan_sync_schedule(n, arity, plan_work));
            plans.len() - 1
        });
        let remaining = plans[id].jump_count();
        let max_wake = wake[base..end].iter().copied().max().unwrap_or(1);
        line_plan.push(id);
        line_remaining.push(remaining);
        line_limit.push(max_wake + 8 * ceil_log2(n.max(2)) + 32);
        unfinished += usize::from(remaining > 0);
    }

    let mut rounds = 0usize;
    while unfinished > 0 {
        rounds += 1;
        movers.clear();
        for k in 0..lines {
            if line_remaining[k] == 0 {
                continue;
            }
            if rounds > line_limit[k] {
                return Err(CoreError::DidNotConverge {
                    algorithm: "AsyncLineToTree",
                    phase_limit: line_limit[k],
                });
            }
            let base = line_start[k];
            let n = line_start[k + 1] - base;
            let plan = &plans[line_plan[k]];
            let first_mover = movers.len();
            // Marking of the jumps performed this round: a node may jump
            // if its children either finished, are already ahead, or jump
            // simultaneously (the synchronous-simultaneity case). Children
            // sit at higher positions than their parents, so one
            // descending pass settles every child before its parent: a
            // child that stays behind marks its parent `blocked`, and the
            // parent reads (and resets) the mark when the pass reaches it.
            for pos in (1..n).rev() {
                let f = base + pos;
                let held_back = std::mem::take(&mut blocked[f]);
                let done = jumps_done[f];
                let Some(&target) = plan.targets(pos).get(done) else {
                    continue;
                };
                let cp = parent_pos[f];
                let gp = base + target;
                // Distance-2 witness: the supporting edge (cp, gp) must be
                // active at the beginning of this round.
                let jumps = !held_back
                    && rounds >= wake[f]
                    && rounds >= wake[cp]
                    && rounds >= wake[gp]
                    && network.graph().has_edge(nodes[cp], nodes[gp]);
                if jumps {
                    movers.push(Mover {
                        pos: f,
                        parent: cp,
                        target: gp,
                    });
                } else if done <= jumps_done[cp] {
                    // Still needs the (pos, cp) edge its parent would drop.
                    blocked[cp] = true;
                }
            }
            // Commit in ascending position order: under faults the first
            // failing operation decides the error a run reports.
            movers[first_mover..].reverse();
            // The round's jumps are committed below or the run fails, so
            // the line's count can be settled now.
            line_remaining[k] -= movers.len() - first_mover;
            if line_remaining[k] == 0 {
                unfinished -= 1;
            }
        }
        if movers.is_empty() {
            network.advance_idle_rounds(1);
            continue;
        }
        // The round's jumps commit in place, one adjacency move each: the
        // supporting edge (cp, gp) was verified active above, so the
        // current parent doubles as the distance-2 witness.
        wave.clear();
        wave.extend(movers.iter().map(|m| Jump {
            node: nodes[m.pos],
            from: nodes[m.parent],
            to: nodes[m.target],
            drop: drops_left_edge(keep_line_edges, m.pos, m.parent),
        }));
        network.commit_jumps(wave)?;
        for m in movers.iter() {
            parent_pos[m.pos] = m.target;
            jumps_done[m.pos] += 1;
        }
    }
    for k in 0..lines {
        let base = line_start[k];
        for parent in &mut parent_pos[base..line_start[k + 1]] {
            *parent -= base;
        }
    }
    Ok(rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adn_graph::rng::DetRng;
    use adn_graph::{generators, NodeId};
    use adn_sim::RoundEvent;

    /// Activations per elapsed round, read off the recorder tap: each
    /// commit's count, 0 for an idle round.
    fn per_round_activations(net: &mut Network) -> Vec<usize> {
        net.take_events()
            .into_iter()
            .filter_map(|e| match e {
                RoundEvent::RoundCommitted { activations, .. } => Some(activations),
                RoundEvent::IdleRound => Some(0),
                _ => None,
            })
            .collect()
    }

    fn identity_line(n: usize) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    fn config(arity: usize) -> LineToTreeConfig {
        LineToTreeConfig {
            arity,
            keep_line_edges: false,
        }
    }

    /// The planner as first written, one `Vec` of targets per position,
    /// kept as the oracle of [`plan_sync_schedule`].
    fn nested_plan(n: usize, arity: usize) -> Vec<Vec<usize>> {
        let mut schedule: Vec<Vec<usize>> = vec![Vec::new(); n];
        if n <= 1 {
            return schedule;
        }
        let mut parent_pos: Vec<usize> = (0..n).map(|i| i.saturating_sub(1)).collect();
        let mut child_count: Vec<usize> = (0..n).map(|i| usize::from(i + 1 < n)).collect();
        let mut terminated: Vec<bool> = vec![false; n];
        terminated[0] = true;
        loop {
            let begin_child_count = child_count.clone();
            let mut planned_new: Vec<usize> = vec![0; n];
            let mut jumps: Vec<(usize, usize, usize)> = Vec::new();
            for pos in 1..n {
                if terminated[pos] {
                    continue;
                }
                let p = parent_pos[pos];
                if p == 0 {
                    terminated[pos] = true;
                    continue;
                }
                let gp = parent_pos[p];
                if begin_child_count[gp] >= arity {
                    terminated[pos] = true;
                    continue;
                }
                if begin_child_count[gp] + planned_new[gp] >= arity {
                    continue;
                }
                planned_new[gp] += 1;
                jumps.push((pos, p, gp));
            }
            if jumps.is_empty() {
                break;
            }
            for (pos, p, gp) in jumps {
                schedule[pos].push(gp);
                parent_pos[pos] = gp;
                child_count[p] -= 1;
                child_count[gp] += 1;
            }
        }
        schedule
    }

    #[test]
    fn flat_plan_matches_the_nested_planner() {
        // One set of working columns for every plan, as a `LineScratch`
        // reuses it across lines of different lengths.
        let mut work = PlanWork::default();
        let mut cases: Vec<(usize, usize)> = Vec::new();
        for n in 0..=300 {
            cases.extend((1..=8).map(|arity| (n, arity)));
        }
        for n in [1024, 4097] {
            cases.extend((1..=8).map(|arity| (n, arity)));
        }
        for (n, arity) in cases {
            let plan = plan_sync_schedule(n, arity, &mut work);
            let nested = nested_plan(n, arity);
            let label = format!("n={n} arity={arity}");
            let flat: Vec<&[usize]> = (0..n).map(|pos| plan.targets(pos)).collect();
            assert_eq!(flat, nested, "{label}");
            assert_eq!(
                plan.jump_count(),
                nested.iter().map(Vec::len).sum::<usize>(),
                "{label}"
            );
            // What `keep_line_edges` rests on: only a position's first
            // jump leaves its line edge (its parent is then `pos - 1`);
            // every later jump leaves a parent at least two positions
            // back, and no jump leaves the root.
            for pos in 0..n {
                let mut parent = pos.saturating_sub(1);
                for (j, &target) in plan.targets(pos).iter().enumerate() {
                    assert!(parent >= 1, "{label}: {pos} jumps off the root");
                    if j > 0 {
                        assert!(parent + 2 <= pos, "{label}: jump {j} of {pos}");
                    }
                    assert!(target < parent, "{label}: {pos} hops down the line");
                    parent = target;
                }
            }
        }
    }

    #[test]
    fn all_awake_matches_synchronous_output() {
        for &n in &[2usize, 5, 8, 16, 33, 64] {
            let g = generators::line(n);
            let mut net = Network::new(g);
            let (tree, rounds) =
                run_async_line_to_tree(&mut net, &identity_line(n), &config(2), &vec![1; n])
                    .unwrap();
            assert_eq!(tree, planned_tree(n, 2), "n={n}");
            assert!(rounds <= ceil_log2(n) + 2);
        }
    }

    #[test]
    fn uniform_delay_matches_synchronous_output_shifted_in_time() {
        for &delay in &[3usize, 7] {
            let n = 48;
            let g = generators::line(n);
            let mut net = Network::new(g);
            let (tree, rounds) =
                run_async_line_to_tree(&mut net, &identity_line(n), &config(2), &vec![delay; n])
                    .unwrap();
            assert_eq!(tree, planned_tree(n, 2));
            assert!(rounds >= delay);
            assert!(rounds <= delay + ceil_log2(n) + 2);
        }
    }

    #[test]
    fn propagation_wake_schedules_match_synchronous_output() {
        // Wake-up times as produced by the wreath merge: the activation
        // message reaches a node after at most O(log n) rounds.
        for &n in &[8usize, 16, 32, 64] {
            let wake: Vec<usize> = (0..n).map(|i| 1 + (i % (ceil_log2(n).max(1)))).collect();
            let g = generators::line(n);
            let mut net = Network::new(g);
            let (tree, rounds) =
                run_async_line_to_tree(&mut net, &identity_line(n), &config(2), &wake).unwrap();
            // Lemma B.4: identical final tree.
            assert_eq!(tree, planned_tree(n, 2), "n={n}");
            // Corollary B.5: O(log n + k) rounds.
            assert!(rounds <= 4 * ceil_log2(n) + 8, "n={n}: rounds {rounds}");
            assert!(net.metrics().max_total_degree <= 4);
        }
    }

    #[test]
    fn random_wake_schedules_match_synchronous_output() {
        let mut rng = DetRng::seed_from_u64(7);
        for &n in &[16usize, 40, 64] {
            for _ in 0..4 {
                let max_delay = ceil_log2(n) + 3;
                let wake: Vec<usize> = (0..n).map(|_| 1 + rng.gen_range(0, max_delay)).collect();
                let g = generators::line(n);
                let mut net = Network::new(g);
                let (tree, rounds) =
                    run_async_line_to_tree(&mut net, &identity_line(n), &config(2), &wake).unwrap();
                // Lemma B.4: identical to the synchronous execution.
                assert_eq!(tree, planned_tree(n, 2), "n={n}, wake={wake:?}");
                // Corollary B.5: O(log n + k).
                assert!(rounds <= 4 * ceil_log2(n) + 2 * max_delay + 8);
                assert!(net.metrics().max_total_degree <= 4, "n={n}, wake={wake:?}");
            }
        }
    }

    #[test]
    fn polylog_arity_async_matches_sync() {
        let n = 128;
        let arity = ceil_log2(n);
        let wake: Vec<usize> = (0..n).map(|i| 1 + i % 5).collect();
        let g = generators::line(n);
        let mut net = Network::new(g);
        let (tree, _) =
            run_async_line_to_tree(&mut net, &identity_line(n), &config(arity), &wake).unwrap();
        assert_eq!(tree, planned_tree(n, arity));
        for u in (0..n).map(NodeId) {
            assert!(tree.child_count(u) <= arity);
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let g = generators::line(4);
        let mut net = Network::new(g);
        assert!(matches!(
            run_async_line_to_tree(&mut net, &[], &config(2), &[]),
            Err(CoreError::InvalidInput { .. })
        ));
        assert!(matches!(
            run_async_line_to_tree(
                &mut net,
                &identity_line(4),
                &config(2),
                &[1; 3] // wrong wake length
            ),
            Err(CoreError::InvalidInput { .. })
        ));
        assert!(matches!(
            run_async_line_to_tree(&mut net, &identity_line(4), &config(0), &[1; 4]),
            Err(CoreError::InvalidInput { .. })
        ));
        // A node outside the network.
        assert!(matches!(
            run_async_line_to_tree(&mut net, &[NodeId(99)], &config(2), &[1]),
            Err(CoreError::InvalidInput { .. })
        ));
    }

    /// `validate_line`'s verdict on `line` as its error text, checking
    /// that the mark column is all clear again afterwards.
    fn line_error(net: &Network, line: &[usize], arity: usize, seen: &mut Vec<bool>) -> String {
        let line: Vec<NodeId> = line.iter().copied().map(NodeId).collect();
        let result = validate_line(net, &line, arity, seen);
        assert!(!seen.contains(&true), "{line:?} left marks behind");
        match result {
            Ok(()) => "ok".into(),
            Err(CoreError::InvalidInput { reason }) => reason,
            Err(e) => panic!("{line:?}: unexpected error {e}"),
        }
    }

    /// The duplicate check as first written: a sorted copy of the line,
    /// whose first equal pair names the smallest repeated node.
    fn sorted_duplicate(line: &[usize]) -> Option<usize> {
        let mut sorted = line.to_vec();
        sorted.sort_unstable();
        sorted.windows(2).find(|w| w[0] == w[1]).map(|w| w[0])
    }

    #[test]
    fn line_check_keeps_its_error_order_and_texts() {
        let net = Network::new(generators::line(6));
        let mut seen = Vec::new();
        let mut check = |line: &[usize], arity: usize| line_error(&net, line, arity, &mut seen);
        // Each error shadows every later one: empty line, zero arity, a
        // repeated node, a node outside the network, a missing edge.
        assert_eq!(check(&[], 0), "line must contain at least one node");
        assert_eq!(check(&[3, 3, 99], 0), "arity must be at least 1");
        assert_eq!(
            check(&[5, 2, 99, 5, 2, 0], 2),
            "node v2 appears twice in the line",
            "the smallest repeated node, not the first repeat"
        );
        assert_eq!(
            check(&[99, 4, 99, 4], 2),
            "node v4 appears twice in the line"
        );
        assert_eq!(
            check(&[0, 99, 1, 99], 2),
            "node v99 appears twice in the line",
            "a repeated node outside the network is still a repeat"
        );
        assert_eq!(
            check(&[0, 2, 99], 2),
            "line refers to nodes outside the network"
        );
        assert_eq!(
            check(&[0, 1, 3], 2),
            "consecutive line nodes v1 and v3 are not adjacent"
        );
        assert_eq!(check(&[2, 3, 4, 5], 2), "ok");
        assert_eq!(check(&[5, 4, 3, 2, 1, 0], 1), "ok");
    }

    #[test]
    fn line_check_names_the_node_the_sort_found() {
        // Random lines over ids in and beyond a 12-node network, checked
        // with one mark column throughout: the duplicate verdict is the
        // sort's, and every other line passes the duplicate check.
        let net = Network::new(generators::line(12));
        let mut seen = Vec::new();
        let mut rng = DetRng::seed_from_u64(33);
        for _ in 0..2000 {
            let len = 1 + rng.gen_range(0, 10);
            let line: Vec<usize> = (0..len).map(|_| rng.gen_range(0, 16)).collect();
            let error = line_error(&net, &line, 2, &mut seen);
            match sorted_duplicate(&line) {
                Some(u) => assert_eq!(error, format!("node v{u} appears twice in the line")),
                None => assert!(!error.contains("twice"), "{line:?}: {error}"),
            }
        }
    }

    #[test]
    fn lockstep_batch_matches_independent_single_line_runs() {
        // Node-disjoint lines (ids shuffled, so the lines interleave in id
        // space) on one network, each with a random wake-up schedule. The
        // batch must give every line the tree of its run on its own, take
        // the maximum of those runs' rounds, and perform their activations
        // in sum.
        let mut rng = DetRng::seed_from_u64(0x10c5);
        for trial in 0..8 {
            let lens: Vec<usize> = (0..1 + rng.gen_range(0, 6))
                .map(|_| 1 + rng.gen_range(0, 70))
                .collect();
            let total: usize = lens.iter().sum();
            let mut ids: Vec<NodeId> = (0..total).map(NodeId).collect();
            rng.shuffle(&mut ids);
            let mut lines: Vec<&[NodeId]> = Vec::new();
            let mut rest = &ids[..];
            for &len in &lens {
                let (line, tail) = rest.split_at(len);
                lines.push(line);
                rest = tail;
            }
            let mut g = adn_graph::Graph::new(total);
            for line in &lines {
                for w in line.windows(2) {
                    g.add_edge(w[0], w[1]).unwrap();
                }
            }
            let wakes: Vec<Vec<usize>> = lines
                .iter()
                .map(|line| {
                    let max_delay = ceil_log2(line.len().max(2)) + 3;
                    (0..line.len())
                        .map(|_| 1 + rng.gen_range(0, max_delay))
                        .collect()
                })
                .collect();
            // Odd trials keep the line edges, as the wreath engine keeps
            // its rings.
            let keep_line_edges = trial % 2 == 1;
            for arity in [2, ceil_log2(total.max(2)).max(2)] {
                let mut max_rounds = 0;
                let mut sum_activations = 0;
                // Per-round activations summed over the solo runs: each
                // line must also keep its own timing inside the batch.
                let mut sum_per_round: Vec<usize> = Vec::new();
                let mut solo_parents: Vec<Vec<Option<NodeId>>> = Vec::new();
                for (line, wake) in lines.iter().zip(&wakes) {
                    let mut net = Network::new(g.clone());
                    net.set_event_recording(true);
                    let config = LineToTreeConfig {
                        arity,
                        keep_line_edges,
                    };
                    let (tree, rounds) =
                        run_async_line_to_tree(&mut net, line, &config, wake).unwrap();
                    assert_eq!(tree, planned_tree(line.len(), arity), "Lemma B.4");
                    max_rounds = max_rounds.max(rounds);
                    sum_activations += net.metrics().total_activations;
                    let per_round = per_round_activations(&mut net);
                    if sum_per_round.len() < per_round.len() {
                        sum_per_round.resize(per_round.len(), 0);
                    }
                    for (sum, a) in sum_per_round.iter_mut().zip(per_round) {
                        *sum += a;
                    }
                    solo_parents.push((0..line.len()).map(|p| tree.parent(NodeId(p))).collect());
                }

                let mut net = Network::new(g.clone());
                net.set_event_recording(true);
                let mut scratch = LineScratch::new();
                scratch.clear_lines();
                for (line, wake) in lines.iter().zip(&wakes) {
                    scratch.push_line(line, wake.iter().copied());
                }
                let rounds = run_lockstep(&mut net, arity, keep_line_edges, &mut scratch).unwrap();
                let label = format!("trial {trial}, arity {arity}, lines {lens:?}");
                for (k, solo) in solo_parents.iter().enumerate() {
                    let batch: Vec<Option<NodeId>> = scratch
                        .line_parents(k)
                        .iter()
                        .enumerate()
                        .map(|(pos, &p)| (pos > 0).then_some(NodeId(p)))
                        .collect();
                    assert_eq!(&batch, solo, "{label}: line {k}");
                }
                assert_eq!(rounds, max_rounds, "{label}");
                assert_eq!(net.metrics().total_activations, sum_activations, "{label}");
                assert_eq!(per_round_activations(&mut net), sum_per_round, "{label}");
            }
        }
    }

    #[test]
    fn protected_edges_survive_async_run() {
        let n = 24;
        let g = generators::line(n);
        let mut net = Network::new(g.clone());
        let config = LineToTreeConfig {
            arity: 2,
            keep_line_edges: true,
        };
        let wake: Vec<usize> = (0..n).map(|i| 1 + i % 3).collect();
        let _ = run_async_line_to_tree(&mut net, &identity_line(n), &config, &wake).unwrap();
        for e in g.edges() {
            assert!(net.graph().has_edge(e.a, e.b));
        }
    }
}
