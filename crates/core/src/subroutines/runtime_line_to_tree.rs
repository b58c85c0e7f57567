//! `LineToTree` on the asynchronous actor runtime.
//!
//! The lockstep batch in [`super::async_line_to_tree`], which also runs
//! the synchronous subroutine, is driven by a global round loop; this
//! module removes the loop entirely. Every line position is an
//! [`AsyncProgram`] actor that follows the per-position jump schedule of
//! the one planner of Proposition 2.2's rule
//! (`async_line_to_tree::plan_sync_schedule`) but learns about
//! the world exclusively through messages:
//!
//! * `Attach`/`Detach` maintain each node's child set (with a tombstone
//!   for a detach that overtakes the matching attach in flight);
//! * `ParentIs` propagates a node's current parent to its children — the
//!   children's next jump target — tagged with the sender's jump count
//!   so that reordered reports from the same parent are ignored when
//!   stale.
//!
//! Because the plan is shared knowledge, the handshake can be made
//! *exact* instead of heuristic. For every jump `(p, j)` the plan
//! determines (a) the jump-count tag `k` its parent `q` carries when
//! `q`'s parent equals `p`'s target — `p` jumps only on the report
//! `ParentIs { jd: k }` — and (b) the precise set of child jumps that
//! use the edge `p`–`parent(p)` as their distance-2 witness — `p` holds
//! its own jump until each of those children confirmed with a tagged
//! `Detach`. Rule (b) is what keeps rule (a) stable: a parent cannot
//! abandon the grandparent a still-attached child is waiting to hop to,
//! so the needed report value cannot be overwritten by a later one.
//! (A frozen attach-time jump count is *not* a sound substitute: the
//! synchronous schedule is arity-gated, so jump counts are not
//! synchronized clocks — a gate based on them both deadlocks and lets
//! witnesses vanish at larger `n`.)
//!
//! Each jump stages its activation/deactivation pair through the
//! validated network (one atomic commit), so the distance-2 rule is
//! enforced exactly as in the round-based implementations. Because every
//! node follows the same fixed target sequence, the final tree equals
//! the planned tree under **any** delivery order — the tests pin this
//! across seeds, reorder windows and asymmetric delays, and the
//! differential suite (`tests/runtime_model.rs`) rechecks it against the
//! synchronous subroutine on the round engine.
//!
//! A [`TreeActor`]'s handlers run inside any host actor whose message
//! type wraps [`TreeMsg`]: [`run_runtime_line_to_tree`] runs the
//! positions as programs of their own, and the wreath committee actors
//! of [`super::runtime_committee`] hold them for one rebuild mini-phase,
//! every merged ring at once.

use crate::subroutines::async_line_to_tree::{
    drops_left_edge, plan_sync_schedule, validate_line, JumpPlan, PlanWork,
};
use crate::subroutines::LineToTreeConfig;
use crate::CoreError;
use adn_graph::{NodeId, RootedTree};
use adn_runtime::{AsyncProgram, Context, RuntimeReport, SeededScheduler};
use adn_sim::Network;
use std::rc::Rc;

/// Protocol messages; `pos` is always the sender's line position.
#[derive(Debug, Clone)]
pub enum TreeMsg {
    /// "I am now your child, having completed `jd` jumps."
    Attach {
        /// Sender position.
        pos: usize,
        /// Sender's jump count at attach time (constant while attached).
        jd: usize,
    },
    /// "I am no longer your child, having completed `jd` jumps."
    Detach {
        /// Sender position.
        pos: usize,
        /// Sender's jump count right after the jump that detached it —
        /// the receiver matches `(pos, jd)` against its precomputed
        /// witness dependencies.
        jd: usize,
    },
    /// "My current parent is `parent`" — sent to children on every jump
    /// and as the reply to an `Attach`.
    ParentIs {
        /// Sender position (must match the receiver's current parent).
        pos: usize,
        /// The sender's current parent position.
        parent: usize,
        /// The sender's jump count when reporting (stale reports from the
        /// same parent carry a smaller count and are discarded).
        jd: usize,
    },
}

/// Immutable data shared by the position actors of one line.
struct SharedPlan {
    jumps: JumpPlan,
    /// Per jump, in the plan's flat order (see [`JumpPlan::jump_index`]):
    /// the jump-count tag the `ParentIs` report enabling jump `(p, j)`
    /// must carry — the index of its target in the old parent's own
    /// parent history.
    report_tag: Vec<usize>,
    /// Per jump, in the plan's flat order: its range
    /// `detach_offsets[i]..detach_offsets[i + 1]` of `detach_pairs` (one
    /// more entry than there are jumps).
    detach_offsets: Vec<usize>,
    /// Per jump `(q, k)`, in one column grouped by jump: the child jumps
    /// `(x, jd)` whose activations use the edge `q`–`parent(q)` as
    /// distance-2 witness and must therefore confirm (via
    /// `Detach { x, jd }`) before `q`'s `k`-th jump abandons that parent.
    detach_pairs: Vec<(usize, usize)>,
    line: Vec<NodeId>,
    keep_line_edges: bool,
}

impl SharedPlan {
    fn new(n: usize, config: &LineToTreeConfig, line: &[NodeId], work: &mut PlanWork) -> Self {
        let jumps = plan_sync_schedule(n, config.arity, work);
        // Position q's parent after its first i jumps.
        let parent_after = |q: usize, i: usize| match i {
            0 => q.saturating_sub(1),
            _ => jumps.targets(q)[i - 1],
        };
        let mut report_tag = vec![0; jumps.jump_count()];
        // (the waiting jump, the tagged detach it waits for), in flat order.
        let mut waits = Vec::new();
        for x in 1..n {
            for (jx, &target) in jumps.targets(x).iter().enumerate() {
                let old_parent = parent_after(x, jx);
                let old_parent_jumps = jumps.targets(old_parent).len();
                // Parent sequences never revisit a position, so the
                // target appears exactly once in the old parent's
                // history; its index is the enabling report's tag.
                let k = (0..=old_parent_jumps)
                    .find(|&i| parent_after(old_parent, i) == target)
                    .expect("jump target must appear in the old parent's parent history");
                report_tag[jumps.jump_index(x, jx)] = k;
                if k < old_parent_jumps {
                    // The old parent's k-th jump abandons exactly this
                    // target — it must wait for x's tagged detach.
                    waits.push((jumps.jump_index(old_parent, k), (x, jx + 1)));
                }
            }
        }
        // A stable sort groups the pairs by waiting jump, each group in
        // flat order.
        waits.sort_by_key(|&(jump, _)| jump);
        let mut detach_offsets = vec![0; jumps.jump_count() + 1];
        for &(jump, _) in &waits {
            detach_offsets[jump + 1] += 1;
        }
        for jump in 0..jumps.jump_count() {
            detach_offsets[jump + 1] += detach_offsets[jump];
        }
        let detach_pairs = waits.into_iter().map(|(_, pair)| pair).collect();
        SharedPlan {
            jumps,
            report_tag,
            detach_offsets,
            detach_pairs,
            line: line.to_vec(),
            keep_line_edges: config.keep_line_edges,
        }
    }

    /// The tagged detaches jump `jump` (a flat index) waits for.
    fn detach_deps(&self, jump: usize) -> &[(usize, usize)] {
        &self.detach_pairs[self.detach_offsets[jump]..self.detach_offsets[jump + 1]]
    }
}

/// Mutable per-position protocol state.
struct Position {
    plan: Rc<SharedPlan>,
    pos: usize,
    parent_pos: usize,
    jumps_done: usize,
    /// `(child position, jump count at attach)` — maintained for the
    /// `ParentIs` broadcasts; gating uses `detaches` instead.
    children: Vec<(usize, usize)>,
    /// Positions whose `Detach` overtook their `Attach`.
    tombstones: Vec<usize>,
    /// Tagged detach confirmations received so far, matched against
    /// [`SharedPlan::detach_deps`].
    detaches: Vec<(usize, usize)>,
    /// Believed parent-of-parent (the next jump's support), if any.
    belief: Option<usize>,
    /// Jump-count tag of the accepted `ParentIs` report; `None` right
    /// after a jump (any report from the new parent is fresher).
    belief_jd: Option<usize>,
}

/// One line position's actor; the default actor sits on no line and is
/// inert (no state, no messages).
#[derive(Default)]
pub struct TreeActor {
    position: Option<Position>,
}

impl TreeActor {
    /// One actor per position of `line`, in position order, all following
    /// one shared plan, planned in `work`'s columns.
    pub(crate) fn for_line(
        line: &[NodeId],
        config: &LineToTreeConfig,
        work: &mut PlanWork,
    ) -> impl Iterator<Item = TreeActor> {
        let n = line.len();
        let plan = Rc::new(SharedPlan::new(n, config, line, work));
        (0..n).map(move |pos| TreeActor {
            position: Some(Position {
                plan: Rc::clone(&plan),
                pos,
                parent_pos: pos.saturating_sub(1),
                jumps_done: 0,
                children: if pos + 1 < n {
                    vec![(pos + 1, 0)]
                } else {
                    Vec::new()
                },
                tombstones: Vec::new(),
                detaches: Vec::new(),
                // Static initial knowledge: the grandparent is `pos - 2`,
                // as reported by a parent that has not jumped yet.
                belief: if pos >= 2 { Some(pos - 2) } else { None },
                belief_jd: if pos >= 2 { Some(0) } else { None },
            }),
        })
    }

    /// The start signal. Initial knowledge is static (parent `pos-1`,
    /// grandparent `pos-2`, child `pos+1`), so a first jump may already be
    /// enabled.
    pub(crate) fn start<M: From<TreeMsg>>(&mut self, ctx: &mut Context<M>) {
        self.try_jump(ctx);
    }

    /// Handles one protocol message, then jumps if that enabled a jump.
    pub(crate) fn receive<M: From<TreeMsg>>(&mut self, msg: TreeMsg, ctx: &mut Context<M>) {
        let Some(st) = &mut self.position else {
            return;
        };
        match msg {
            TreeMsg::Attach { pos, jd } => {
                if let Some(i) = st.tombstones.iter().position(|&t| t == pos) {
                    // The child already jumped onward; drop the stale
                    // attach (a position never re-attaches — parent
                    // target sequences do not revisit).
                    st.tombstones.swap_remove(i);
                    return;
                }
                st.children.push((pos, jd));
                // The reply carries this node's *current* parent, so a
                // child attaching just after we jumped still learns the
                // fresh support.
                let reply = TreeMsg::ParentIs {
                    pos: st.pos,
                    parent: st.parent_pos,
                    jd: st.jumps_done,
                };
                ctx.send(st.plan.line[pos], reply.into());
            }
            TreeMsg::Detach { pos, jd } => {
                // Record the confirmation even when the matching attach
                // is still in flight — the gate must be able to clear.
                st.detaches.push((pos, jd));
                if let Some(i) = st.children.iter().position(|&(c, _)| c == pos) {
                    st.children.swap_remove(i);
                } else {
                    st.tombstones.push(pos);
                }
            }
            TreeMsg::ParentIs { pos, parent, jd } => {
                if pos == st.parent_pos && st.belief_jd.is_none_or(|b| jd > b) {
                    st.belief = Some(parent);
                    st.belief_jd = Some(jd);
                }
            }
        }
        self.try_jump(ctx);
    }

    fn try_jump<M: From<TreeMsg>>(&mut self, ctx: &mut Context<M>) {
        let Some(st) = &mut self.position else {
            return;
        };
        let plan = &*st.plan;
        let Some(&target) = plan.jumps.targets(st.pos).get(st.jumps_done) else {
            return;
        };
        let jump = plan.jumps.jump_index(st.pos, st.jumps_done);
        // The enabling report must carry the exact planned tag: the
        // parent is at the planned point of its own history (it cannot
        // be past it — our detach is in its dependency set).
        let tag = plan.report_tag[jump];
        if st.belief_jd != Some(tag) {
            return;
        }
        debug_assert_eq!(
            st.belief,
            Some(target),
            "tagged report disagrees with the plan"
        );
        // Hold until every child whose hop uses our parent edge as its
        // distance-2 witness has confirmed with a tagged detach.
        let deps = plan.detach_deps(jump);
        if !deps.iter().all(|d| st.detaches.contains(d)) {
            return;
        }
        let line = &plan.line;
        let cp = st.parent_pos;
        ctx.activate(line[target]);
        if drops_left_edge(plan.keep_line_edges, st.pos, cp) {
            ctx.deactivate(line[cp]);
        }
        st.parent_pos = target;
        st.jumps_done += 1;
        st.belief = None;
        st.belief_jd = None;
        let (pos, jd) = (st.pos, st.jumps_done);
        ctx.send(line[cp], TreeMsg::Detach { pos, jd }.into());
        ctx.send(line[target], TreeMsg::Attach { pos, jd }.into());
        for &(c, _) in &st.children {
            let report = TreeMsg::ParentIs {
                pos,
                parent: target,
                jd,
            };
            ctx.send(line[c], report.into());
        }
    }

    /// The parent position this actor's position ended at, once its whole
    /// plan ran.
    ///
    /// # Errors
    ///
    /// [`CoreError::DidNotConverge`] when the position still has jumps to
    /// make (a protocol bug, or a fault stopped the run's messages), and
    /// [`CoreError::BrokenInvariant`] for an inert actor.
    pub(crate) fn final_parent(&self) -> Result<usize, CoreError> {
        let Some(st) = &self.position else {
            return Err(CoreError::BrokenInvariant {
                algorithm: "RuntimeLineToTree",
                detail: "no line position was handed to this actor".into(),
            });
        };
        let jumps = st.plan.jumps.targets(st.pos).len();
        if st.jumps_done < jumps {
            return Err(CoreError::DidNotConverge {
                algorithm: "RuntimeLineToTree",
                phase_limit: jumps,
            });
        }
        Ok(st.parent_pos)
    }
}

impl AsyncProgram for TreeActor {
    type Message = TreeMsg;

    fn on_start(&mut self, ctx: &mut Context<TreeMsg>) {
        self.start(ctx);
    }

    fn on_message(&mut self, _from: NodeId, msg: TreeMsg, ctx: &mut Context<TreeMsg>) {
        self.receive(msg, ctx);
    }
}

/// Runs line-to-tree as actors under `scheduler`, one per network node
/// (nodes off the line are inert). Returns the final tree in position
/// space plus the runtime report; the tree equals the synchronous
/// subroutine's under every seed and knob set.
///
/// # Errors
///
/// * [`CoreError::InvalidInput`] on malformed lines or zero arity.
/// * [`CoreError::Sim`] if an edge operation is rejected (a protocol bug).
/// * [`CoreError::DidNotConverge`] if the run quiesced with unfinished
///   schedules (a protocol bug).
/// * [`CoreError::Runtime`] if the scheduler used up its step budget.
pub fn run_runtime_line_to_tree(
    network: &mut Network,
    line: &[NodeId],
    config: &LineToTreeConfig,
    scheduler: &SeededScheduler,
) -> Result<(RootedTree, RuntimeReport), CoreError> {
    validate_line(network, line, config.arity, &mut Vec::new())?;
    let mut actors: Vec<TreeActor> = (0..network.node_count())
        .map(|_| TreeActor::default())
        .collect();
    let work = &mut PlanWork::default();
    for (&node, actor) in line.iter().zip(TreeActor::for_line(line, config, work)) {
        actors[node.index()] = actor;
    }
    let report = scheduler.run(network, &mut actors)?;
    let mut parents = Vec::with_capacity(line.len());
    for (pos, node) in line.iter().enumerate() {
        let parent = actors[node.index()].final_parent()?;
        parents.push((pos > 0).then_some(NodeId(parent)));
    }
    let tree =
        RootedTree::from_parents(NodeId(0), parents).map_err(|e| CoreError::BrokenInvariant {
            algorithm: "RuntimeLineToTree",
            detail: format!("final parent pointers do not form a tree: {e}"),
        })?;
    Ok((tree, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subroutines::async_line_to_tree::planned_tree;
    use adn_graph::generators;
    use adn_runtime::AsyncKnobs;

    fn identity_line(n: usize) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    fn seeded(seed: u64, knobs: AsyncKnobs) -> SeededScheduler {
        SeededScheduler::new(seed).with_knobs(knobs)
    }

    #[test]
    fn seeded_actors_build_the_synchronous_tree() {
        for &n in &[2usize, 5, 8, 16, 33, 64] {
            let config = LineToTreeConfig {
                arity: 2,
                keep_line_edges: false,
            };
            let expected = planned_tree(n, 2);
            for seed in [0u64, 7, 1234] {
                let mut net = Network::new(generators::line(n));
                let (tree, report) = run_runtime_line_to_tree(
                    &mut net,
                    &identity_line(n),
                    &config,
                    &seeded(seed, AsyncKnobs::default()),
                )
                .unwrap();
                assert_eq!(tree, expected, "n={n} seed={seed}");
                assert_eq!(report.in_flight_at_detection, 0);
            }
        }
    }

    #[test]
    fn adversarial_delivery_still_matches_the_synchronous_tree() {
        let knob_sets = [
            AsyncKnobs {
                reorder_window: 4,
                max_link_delay: 0,
                asymmetric_delay: false,
            },
            AsyncKnobs {
                reorder_window: 2,
                max_link_delay: 3,
                asymmetric_delay: false,
            },
            AsyncKnobs {
                reorder_window: 3,
                max_link_delay: 2,
                asymmetric_delay: true,
            },
        ];
        for &n in &[16usize, 40, 64] {
            let expected = planned_tree(n, 2);
            let config = LineToTreeConfig {
                arity: 2,
                keep_line_edges: false,
            };
            for (k, knobs) in knob_sets.iter().enumerate() {
                for seed in [1u64, 99, 4096] {
                    let mut net = Network::new(generators::line(n));
                    let (tree, _) = run_runtime_line_to_tree(
                        &mut net,
                        &identity_line(n),
                        &config,
                        &seeded(seed, *knobs),
                    )
                    .unwrap();
                    assert_eq!(tree, expected, "n={n} knobs#{k} seed={seed}");
                }
            }
        }
    }

    #[test]
    fn large_lines_converge_under_adversarial_knobs() {
        // Regression: with the old frozen-attach-count gate, n=128 lines
        // quiesced with unfinished schedules (a parent could advance past
        // the grandparent a still-attached child was waiting to hop to).
        // The arity-gated schedule makes jump counts drift apart only at
        // larger n, which is why n=48 never caught it.
        let n = 128;
        let expected = planned_tree(n, 2);
        let config = LineToTreeConfig {
            arity: 2,
            keep_line_edges: false,
        };
        for seed in [0u64, 9, 77] {
            let mut net = Network::new(generators::line(n));
            let (tree, _) = run_runtime_line_to_tree(
                &mut net,
                &identity_line(n),
                &config,
                &seeded(
                    seed,
                    AsyncKnobs {
                        reorder_window: 6,
                        max_link_delay: 3,
                        asymmetric_delay: true,
                    },
                ),
            )
            .unwrap();
            assert_eq!(tree, expected, "seed={seed}");
        }
    }

    #[test]
    fn polylog_arity_matches_sync() {
        let n = 128;
        let arity = adn_graph::properties::ceil_log2(n);
        let config = LineToTreeConfig {
            arity,
            keep_line_edges: false,
        };
        let expected = planned_tree(n, arity);
        let mut net = Network::new(generators::line(n));
        let (tree, _) = run_runtime_line_to_tree(
            &mut net,
            &identity_line(n),
            &config,
            &seeded(
                5,
                AsyncKnobs {
                    reorder_window: 3,
                    max_link_delay: 1,
                    asymmetric_delay: false,
                },
            ),
        )
        .unwrap();
        assert_eq!(tree, expected);
        for u in (0..n).map(NodeId) {
            assert!(tree.child_count(u) <= arity);
        }
    }

    #[test]
    fn protected_edges_survive() {
        let n = 24;
        let g = generators::line(n);
        let config = LineToTreeConfig {
            arity: 2,
            keep_line_edges: true,
        };
        let mut net = Network::new(g.clone());
        let _ = run_runtime_line_to_tree(
            &mut net,
            &identity_line(n),
            &config,
            &seeded(3, AsyncKnobs::default()),
        )
        .unwrap();
        for e in g.edges() {
            assert!(net.graph().has_edge(e.a, e.b));
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let mut net = Network::new(generators::line(4));
        let config = LineToTreeConfig {
            arity: 2,
            keep_line_edges: false,
        };
        assert!(matches!(
            run_runtime_line_to_tree(&mut net, &[], &config, &seeded(0, AsyncKnobs::default())),
            Err(CoreError::InvalidInput { .. })
        ));
        let zero_arity = LineToTreeConfig {
            arity: 0,
            keep_line_edges: false,
        };
        assert!(matches!(
            run_runtime_line_to_tree(
                &mut net,
                &identity_line(4),
                &zero_arity,
                &seeded(0, AsyncKnobs::default())
            ),
            Err(CoreError::InvalidInput { .. })
        ));
        let duplicated = vec![NodeId(0), NodeId(1), NodeId(1)];
        assert!(matches!(
            run_runtime_line_to_tree(
                &mut net,
                &duplicated,
                &config,
                &seeded(0, AsyncKnobs::default())
            ),
            Err(CoreError::InvalidInput { .. })
        ));
        assert!(matches!(
            run_runtime_line_to_tree(
                &mut net,
                &[NodeId(99)],
                &config,
                &seeded(0, AsyncKnobs::default())
            ),
            Err(CoreError::InvalidInput { .. })
        ));
    }
}
