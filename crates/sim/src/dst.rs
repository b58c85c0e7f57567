//! Deterministic simulation testing (DST): seeded adversarial scheduling,
//! fault injection and round-level invariant checking.
//!
//! The paper's algorithms are proven for a clean, failure-free,
//! round-synchronous world. This module perturbs that world the way a
//! FoundationDB-style simulation harness would — but fully
//! deterministically: a seeded [`Adversary`] driven by
//! [`adn_graph::rng::DetRng`] injects faults *between* committed rounds,
//! and an [`InvariantPolicy`] is evaluated after every round, so any
//! stress failure reproduces bit-for-bit from a single `u64` seed.
//!
//! Supported fault classes ([`FaultEvent`]):
//!
//! * **crash-stop** — a node stops forever; all of its incident edges are
//!   severed and it takes no further part in the execution;
//! * **adversarial edge deletions/insertions** — the environment rewires
//!   the network without respecting the distance-2 rule (the adversary is
//!   strictly more powerful than the nodes);
//! * **round skew** — message-delay perturbation, charged as extra
//!   rounds in which no progress happens;
//! * **churn** — a brand-new node with a fresh UID joins, attached to an
//!   existing node;
//! * **partition/heal** — the environment severs a cut splitting the
//!   live subgraph roughly in half, then re-inserts the surviving cut
//!   edges a configurable number of rounds later (connectivity loss
//!   *and* recovery in one fault).
//!
//! A [`Scenario`] declaratively describes the fault mix (budget, timing
//! window, per-round probability, kind weights, target-selection policy);
//! [`scenarios`] is the registry of named built-in scenarios, mirroring
//! the algorithm registry of `adn_core`. A [`DstState`] couples an
//! [`Adversary`] with the invariant checks and is installed on a
//! [`crate::Network`] via [`crate::Network::install_dst`]; the network
//! calls it after every committed (or idle-charged) round. The harvested
//! [`DstReport`] records the exact fault schedule and every invariant
//! violation, and renders to a stable string so replay equality can be
//! checked byte-for-byte.

use crate::bus::RoundEvent;
use crate::Network;
use crate::SimError;
use adn_graph::rng::DetRng;
use adn_graph::{DynConn, Edge, NodeId};
use std::collections::BTreeSet;
use std::collections::VecDeque;
use std::fmt;

/// How the adversary picks the victim node for node-targeted faults
/// (crashes, churn attachment points).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetPolicy {
    /// Uniformly random among eligible nodes.
    Random,
    /// The eligible node with the highest current degree (ties broken by
    /// lowest id) — aims at hubs, e.g. a freshly elected star centre.
    MaxDegree,
    /// The eligible node with the lowest current degree (ties broken by
    /// lowest id) — aims at leaves and stragglers.
    MinDegree,
}

impl TargetPolicy {
    fn pick(&self, rng: &mut DetRng, network: &Network, candidates: &[NodeId]) -> Option<NodeId> {
        if candidates.is_empty() {
            return None;
        }
        match self {
            TargetPolicy::Random => Some(candidates[rng.gen_range(0, candidates.len())]),
            TargetPolicy::MaxDegree => candidates
                .iter()
                .copied()
                .max_by_key(|&u| (network.graph().degree(u), std::cmp::Reverse(u.index()))),
            TargetPolicy::MinDegree => candidates
                .iter()
                .copied()
                .min_by_key(|&u| (network.graph().degree(u), u.index())),
        }
    }
}

impl fmt::Display for TargetPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TargetPolicy::Random => "random",
            TargetPolicy::MaxDegree => "max_degree",
            TargetPolicy::MinDegree => "min_degree",
        };
        f.write_str(s)
    }
}

/// A declarative description of an adversarial environment: which faults
/// may happen, how many, when, and to whom.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Stable scenario name (registry key).
    pub name: String,
    /// Maximum total number of fault events injected over the whole run.
    pub fault_budget: usize,
    /// First round (1-based) at which the adversary may act.
    pub window_start: usize,
    /// Last round at which the adversary may act (`None` = no limit).
    pub window_end: Option<usize>,
    /// Per-round probability of attempting one injection while inside the
    /// window and under budget.
    pub per_round_probability: f64,
    /// Relative weight of crash-stop node failures.
    pub crash_weight: u32,
    /// Relative weight of adversarial edge deletions.
    pub edge_delete_weight: u32,
    /// Relative weight of adversarial edge insertions.
    pub edge_insert_weight: u32,
    /// Relative weight of node joins (churn).
    pub churn_weight: u32,
    /// Relative weight of round-skew (message-delay) perturbations.
    pub skew_weight: u32,
    /// Maximum number of rounds a single skew event may charge.
    pub max_skew: usize,
    /// Relative weight of partition events: the adversary severs a cut
    /// splitting the live subgraph in half, then heals it (re-inserts the
    /// surviving cut edges) `heal_delay` rounds later.
    pub partition_weight: u32,
    /// Rounds between a partition and its heal (at least 1).
    pub heal_delay: usize,
    /// How victim nodes are selected.
    pub target: TargetPolicy,
    /// Asynchronous delivery only: the seeded scheduler picks each
    /// delivery among the first `max(1, reorder_window)` eligible
    /// in-flight messages instead of strict readiness order. `0` (the
    /// default) and `1` both mean no reordering. Inert under the
    /// synchronous engine (no RNG is consumed for it there), so adding
    /// the knob changes no synchronous schedule.
    pub reorder_window: usize,
    /// Asynchronous delivery only: maximum extra per-message delay, in
    /// scheduler steps, drawn uniformly per message. `0` (the default)
    /// delivers at the earliest step. Inert under the synchronous engine.
    pub max_link_delay: usize,
    /// Asynchronous delivery only: give every ordered link `(u, v)` a
    /// fixed base latency derived deterministically from the scheduler
    /// seed (on top of the per-message draw), modelling asymmetric link
    /// latency. Inert under the synchronous engine.
    pub asymmetric_delay: bool,
}

impl Scenario {
    fn base(name: &str) -> Self {
        Scenario {
            name: name.to_string(),
            fault_budget: 0,
            window_start: 1,
            window_end: None,
            per_round_probability: 0.5,
            crash_weight: 0,
            edge_delete_weight: 0,
            edge_insert_weight: 0,
            churn_weight: 0,
            skew_weight: 0,
            max_skew: 3,
            partition_weight: 0,
            heal_delay: 4,
            target: TargetPolicy::Random,
            reorder_window: 0,
            max_link_delay: 0,
            asymmetric_delay: false,
        }
    }

    /// The clean world: no faults at all. Running under this scenario is
    /// equivalent to a plain run, but with the invariant checker armed —
    /// it turns every traced execution into a property check.
    pub fn failure_free() -> Self {
        Scenario {
            per_round_probability: 0.0,
            ..Scenario::base("failure_free")
        }
    }

    /// Crash-stop node failures only.
    pub fn crash_stop() -> Self {
        Scenario {
            fault_budget: 3,
            crash_weight: 1,
            ..Scenario::base("crash_stop")
        }
    }

    /// Adversarial edge rewiring: deletions and insertions, no node
    /// failures.
    pub fn adversarial_edges() -> Self {
        Scenario {
            fault_budget: 6,
            edge_delete_weight: 2,
            edge_insert_weight: 1,
            ..Scenario::base("adversarial_edges")
        }
    }

    /// Churn: fresh nodes join mid-execution.
    pub fn churn() -> Self {
        Scenario {
            fault_budget: 4,
            churn_weight: 1,
            ..Scenario::base("churn")
        }
    }

    /// Message-delay perturbation: rounds are skewed (time passes without
    /// progress), stressing round budgets and phase accounting.
    pub fn round_skew() -> Self {
        Scenario {
            fault_budget: 4,
            skew_weight: 1,
            ..Scenario::base("round_skew")
        }
    }

    /// Partition/heal cycles: the adversary severs a cut that splits the
    /// live subgraph in half, lets the algorithm run partitioned for
    /// `heal_delay` rounds, then re-inserts the surviving cut edges.
    /// Exercises committee state across connectivity loss and recovery:
    /// selection stalls against the missing half, then resumes against
    /// the healed adjacency.
    pub fn partition_heal() -> Self {
        Scenario {
            fault_budget: 2,
            partition_weight: 1,
            heal_delay: 5,
            per_round_probability: 0.35,
            window_start: 2,
            ..Scenario::base("partition_heal")
        }
    }

    /// Everything at once — including partition/heal cycles — aimed at
    /// the highest-degree nodes.
    pub fn mixed() -> Self {
        Scenario {
            fault_budget: 8,
            crash_weight: 1,
            edge_delete_weight: 2,
            edge_insert_weight: 2,
            churn_weight: 1,
            skew_weight: 1,
            partition_weight: 1,
            target: TargetPolicy::MaxDegree,
            ..Scenario::base("mixed")
        }
    }

    /// Asynchronous message reordering only: deliveries are picked among
    /// a window of eligible in-flight messages, so causally unrelated
    /// messages overtake each other. No faults are injected — under the
    /// synchronous engine this behaves exactly like
    /// [`Scenario::failure_free`].
    pub fn async_reorder() -> Self {
        Scenario {
            per_round_probability: 0.0,
            reorder_window: 4,
            ..Scenario::base("async_reorder")
        }
    }

    /// Asynchronous per-link delay: every message draws a uniform extra
    /// delay before becoming deliverable (plus a small reorder window, so
    /// equal-readiness messages still race). Fault-free.
    pub fn async_link_delay() -> Self {
        Scenario {
            per_round_probability: 0.0,
            reorder_window: 2,
            max_link_delay: 3,
            ..Scenario::base("async_link_delay")
        }
    }

    /// Asymmetric link latency: each ordered link carries a fixed base
    /// delay derived from the scheduler seed, so the two directions of a
    /// link (and different links) run at persistently different speeds.
    /// Fault-free.
    pub fn async_asymmetric() -> Self {
        Scenario {
            per_round_probability: 0.0,
            max_link_delay: 2,
            asymmetric_delay: true,
            ..Scenario::base("async_asymmetric")
        }
    }

    /// Churn under asynchrony: the synchronous sweep exercises the churn
    /// faults (nodes joining mid-run); the asynchronous runtime sweep
    /// exercises the delivery knobs (reordering plus per-link delay).
    pub fn async_churn() -> Self {
        Scenario {
            fault_budget: 3,
            churn_weight: 1,
            reorder_window: 2,
            max_link_delay: 2,
            ..Scenario::base("async_churn")
        }
    }

    /// Whether the scenario perturbs asynchronous delivery (any of the
    /// reorder/delay/asymmetry knobs set). The runtime sweep draws its
    /// scenarios from this subset of [`scenarios`].
    pub fn is_async(&self) -> bool {
        self.reorder_window > 1 || self.max_link_delay > 0 || self.asymmetric_delay
    }

    /// Sets the fault budget (builder style).
    pub fn with_fault_budget(mut self, budget: usize) -> Self {
        self.fault_budget = budget;
        self
    }

    /// Sets the injection window (builder style).
    pub fn with_window(mut self, start: usize, end: Option<usize>) -> Self {
        self.window_start = start;
        self.window_end = end;
        self
    }

    /// Sets the target-selection policy (builder style).
    pub fn with_target(mut self, target: TargetPolicy) -> Self {
        self.target = target;
        self
    }

    fn total_weight(&self) -> u32 {
        self.crash_weight
            + self.edge_delete_weight
            + self.edge_insert_weight
            + self.churn_weight
            + self.skew_weight
            + self.partition_weight
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (budget {}, window {}..{}, p {:.2}, target {})",
            self.name,
            self.fault_budget,
            self.window_start,
            self.window_end.map_or("∞".to_string(), |e| e.to_string()),
            self.per_round_probability,
            self.target,
        )
    }
}

/// The registry of built-in scenarios, mirroring the algorithm registry:
/// sweeps iterate `algorithms × scenarios` the same way they iterate
/// `algorithms × graph families`.
pub fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario::failure_free(),
        Scenario::crash_stop(),
        Scenario::adversarial_edges(),
        Scenario::churn(),
        Scenario::round_skew(),
        Scenario::mixed(),
        Scenario::partition_heal(),
        Scenario::async_reorder(),
        Scenario::async_link_delay(),
        Scenario::async_asymmetric(),
        Scenario::async_churn(),
    ]
}

/// Looks a built-in scenario up by name (case-insensitive).
pub fn find_scenario(name: &str) -> Option<Scenario> {
    scenarios()
        .into_iter()
        .find(|s| s.name.eq_ignore_ascii_case(name))
}

/// One injected fault, as recorded in the fault schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultEvent {
    /// Node `node` crash-stopped; `severed` incident edges were removed.
    CrashNode {
        /// The crashed node.
        node: NodeId,
        /// Number of incident edges severed by the crash.
        severed: usize,
    },
    /// The adversary deleted the active edge `{u, v}`.
    DeleteEdge {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
    },
    /// The adversary inserted the edge `{u, v}` (ignoring the distance-2
    /// rule — the environment is more powerful than the nodes).
    InsertEdge {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
    },
    /// A fresh node joined the network, attached to `attached_to`.
    Join {
        /// The new node's id.
        node: NodeId,
        /// The existing node it attached to.
        attached_to: NodeId,
        /// The fresh UID assigned to the new node.
        uid: u64,
    },
    /// Time was skewed forward by `rounds` rounds (message delay).
    Skew {
        /// Number of rounds charged.
        rounds: usize,
    },
    /// The adversary severed `cut`, partitioning the live subgraph; a
    /// matching [`FaultEvent::Heal`] is scheduled `heal_delay` rounds
    /// later.
    Partition {
        /// The severed cut edges, in canonical order.
        cut: Vec<Edge>,
    },
    /// A previously severed cut was re-inserted. Edges whose endpoints
    /// crash-stopped in between (or that reappeared by other means) are
    /// dropped rather than restored.
    Heal {
        /// Number of cut edges re-inserted.
        restored: usize,
        /// Number of cut edges that could not be restored.
        dropped: usize,
    },
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultEvent::CrashNode { node, severed } => {
                write!(f, "crash node {node} (severed {severed} edges)")
            }
            FaultEvent::DeleteEdge { u, v } => write!(f, "delete edge {{{u}, {v}}}"),
            FaultEvent::InsertEdge { u, v } => write!(f, "insert edge {{{u}, {v}}}"),
            FaultEvent::Join {
                node,
                attached_to,
                uid,
            } => write!(f, "join node {node} (uid {uid}) at {attached_to}"),
            FaultEvent::Skew { rounds } => write!(f, "skew +{rounds} rounds"),
            FaultEvent::Partition { cut } => {
                write!(f, "partition (cut {} edges:", cut.len())?;
                for e in cut {
                    write!(f, " {{{}, {}}}", e.a, e.b)?;
                }
                write!(f, ")")
            }
            FaultEvent::Heal { restored, dropped } => {
                write!(f, "heal cut (restored {restored}, dropped {dropped})")
            }
        }
    }
}

/// A fault event stamped with the round *after* which it was injected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// The round boundary at which the fault was applied (the fault is
    /// visible from the beginning of this round).
    pub round: usize,
    /// The injected event.
    pub event: FaultEvent,
}

/// One invariant violation observed at a round boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The round at whose beginning the violation was observed.
    pub round: usize,
    /// Which invariant failed.
    pub invariant: &'static str,
    /// Human-readable detail.
    pub detail: String,
}

/// Which invariants to evaluate at every round boundary. Bounds are
/// normally derived from the running algorithm's `AlgorithmSpec` (with
/// generous slack, since the spec bounds the *final* network while these
/// are checked on every intermediate snapshot).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantPolicy {
    /// The subgraph induced by live (non-crashed) nodes must stay
    /// connected. Faults may legitimately break this — the violation is
    /// recorded, not fatal.
    pub check_connectivity: bool,
    /// Upper bound on any node's activated (non-initial) degree.
    pub max_activated_degree: Option<usize>,
    /// Upper bound on the number of concurrently active edges.
    pub max_active_edges: Option<usize>,
    /// UIDs (including churned-in ones) must stay pairwise distinct.
    pub check_uid_uniqueness: bool,
}

impl Default for InvariantPolicy {
    fn default() -> Self {
        InvariantPolicy {
            check_connectivity: true,
            max_activated_degree: None,
            max_active_edges: None,
            check_uid_uniqueness: true,
        }
    }
}

/// The seeded fault injector. All decisions are drawn from a [`DetRng`],
/// so the whole fault schedule is a pure function of `(scenario, seed)`.
#[derive(Debug, Clone)]
pub struct Adversary {
    scenario: Scenario,
    seed: u64,
    rng: DetRng,
    budget_left: usize,
    /// A cut severed by a partition event, waiting to be healed at the
    /// recorded round boundary.
    pending_heal: Option<PendingHeal>,
}

/// A severed cut scheduled for re-insertion.
#[derive(Debug, Clone)]
struct PendingHeal {
    at_round: usize,
    cut: Vec<Edge>,
}

impl Adversary {
    /// Creates an adversary for `scenario`, fully determined by `seed`.
    pub fn new(scenario: Scenario, seed: u64) -> Self {
        let budget_left = scenario.fault_budget;
        Adversary {
            scenario,
            seed,
            rng: DetRng::seed_from_u64(seed),
            budget_left,
            pending_heal: None,
        }
    }

    /// The seed this adversary was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scenario driving this adversary.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Remaining fault budget.
    pub fn budget_left(&self) -> usize {
        self.budget_left
    }

    /// Attempts one injection at the boundary before `round`. The RNG is
    /// only consumed while budget remains, so the RNG-driven fault
    /// schedule produced with budget `b` is a strict prefix of the
    /// schedule with budget `B > b` — the property the failing-seed
    /// minimizer relies on. The one exception is the deterministic `Heal`
    /// record of a partition: it consumes neither budget nor RNG (it is
    /// the second half of the partition fault), so it may interleave
    /// differently between budgets without desynchronising the RNG stream.
    fn inject(
        &mut self,
        network: &mut Network,
        crashed: &mut BTreeSet<NodeId>,
        uids: &mut Vec<u64>,
        next_uid: u64,
        round: usize,
    ) -> Result<Option<FaultEvent>, SimError> {
        // A due heal fires first, regardless of budget, window or
        // probability: a severed cut is always eventually re-offered.
        if self
            .pending_heal
            .as_ref()
            .is_some_and(|p| round >= p.at_round)
        {
            if let Some(pending) = self.pending_heal.take() {
                return Ok(Some(Self::heal(network, pending.cut)));
            }
        }
        if self.budget_left == 0 || self.scenario.total_weight() == 0 {
            return Ok(None);
        }
        if round < self.scenario.window_start {
            return Ok(None);
        }
        if let Some(end) = self.scenario.window_end {
            if round > end {
                return Ok(None);
            }
        }
        if !self.rng.gen_bool(self.scenario.per_round_probability) {
            return Ok(None);
        }
        let Some(event) = self.pick_event(network, crashed, uids, next_uid, round)? else {
            return Ok(None);
        };
        self.budget_left -= 1;
        Ok(Some(event))
    }

    /// Liveness is derived from the network's crash mask — the single
    /// source of truth the commit path also consults; `DstState.crashed`
    /// only mirrors it as the sorted list for the report.
    fn live_nodes(network: &Network) -> Vec<NodeId> {
        let crashed = network.crashed_mask();
        network
            .graph()
            .nodes()
            .filter(|u| !crashed[u.index()])
            .collect()
    }

    fn pick_event(
        &mut self,
        network: &mut Network,
        crashed: &mut BTreeSet<NodeId>,
        uids: &mut Vec<u64>,
        next_uid: u64,
        round: usize,
    ) -> Result<Option<FaultEvent>, SimError> {
        let s = &self.scenario;
        let total = s.total_weight();
        if total == 0 {
            // Structurally unreachable (inject() declines first), but
            // `gen_range` panics on an empty range — decline instead so a
            // future caller cannot turn a zero-weight scenario into a
            // panic on a fault path.
            return Ok(None);
        }
        let mut x = self.rng.gen_range(0, total as usize) as u32;
        let weights = [
            s.crash_weight,
            s.edge_delete_weight,
            s.edge_insert_weight,
            s.churn_weight,
            s.skew_weight,
            s.partition_weight,
        ];
        let mut kind = 0usize;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                kind = i;
                break;
            }
            x -= w;
        }
        match kind {
            0 => self.crash(network, crashed),
            1 => Ok(self.delete_edge(network)),
            2 => Ok(self.insert_edge(network)),
            3 => Ok(self.join(network, uids, next_uid)),
            4 => Ok(self.skew(network)),
            _ => Ok(self.partition(network, round)),
        }
    }

    fn crash(
        &mut self,
        network: &mut Network,
        crashed: &mut BTreeSet<NodeId>,
    ) -> Result<Option<FaultEvent>, SimError> {
        let live = Self::live_nodes(network);
        if live.len() <= 2 {
            return Ok(None); // keep at least two live nodes alive
        }
        let Some(node) = self.scenario.target.pick(&mut self.rng, network, &live) else {
            return Ok(None);
        };
        // One batched sever (and crash-mark, so same-round staged edges of
        // the victim are dropped at commit) instead of a per-edge loop. A
        // corrupted arena surfaces as a typed error the harness records as
        // a violation — never an abort mid-sweep.
        let severed = network.fault_crash_node(node)?;
        crashed.insert(node);
        Ok(Some(FaultEvent::CrashNode { node, severed }))
    }

    fn delete_edge(&mut self, network: &mut Network) -> Option<FaultEvent> {
        let edges: Vec<Edge> = network.graph().edge_vec();
        if edges.is_empty() {
            return None;
        }
        let e = edges[self.rng.gen_range(0, edges.len())];
        network.fault_remove_edge(e.a, e.b);
        Some(FaultEvent::DeleteEdge { u: e.a, v: e.b })
    }

    fn insert_edge(&mut self, network: &mut Network) -> Option<FaultEvent> {
        let live = Self::live_nodes(network);
        if live.len() < 2 {
            return None;
        }
        // A few deterministic attempts to find a non-adjacent live pair.
        for _ in 0..8 {
            let u = live[self.rng.gen_range(0, live.len())];
            let v = live[self.rng.gen_range(0, live.len())];
            if u != v && !network.graph().has_edge(u, v) {
                network.fault_insert_edge(u, v);
                return Some(FaultEvent::InsertEdge {
                    u: u.min(v),
                    v: u.max(v),
                });
            }
        }
        None
    }

    fn join(
        &mut self,
        network: &mut Network,
        uids: &mut Vec<u64>,
        next_uid: u64,
    ) -> Option<FaultEvent> {
        let live = Self::live_nodes(network);
        let attached_to = self.scenario.target.pick(&mut self.rng, network, &live)?;
        let node = network.fault_add_node();
        network.fault_insert_edge(node, attached_to);
        // `next_uid` is the caller-maintained running maximum plus one —
        // the same value the old per-join O(n) max scan produced.
        debug_assert_eq!(next_uid, uids.iter().copied().max().unwrap_or(0) + 1);
        uids.push(next_uid);
        Some(FaultEvent::Join {
            node,
            attached_to,
            uid: next_uid,
        })
    }

    fn skew(&mut self, network: &mut Network) -> Option<FaultEvent> {
        let max = self.scenario.max_skew.max(1);
        let rounds = self.rng.gen_range(1, max + 1);
        network.fault_skew(rounds);
        Some(FaultEvent::Skew { rounds })
    }

    /// Severs a cut splitting the live subgraph roughly in half: a pivot
    /// is drawn by the target policy, its BFS ball grows to half the live
    /// nodes (deterministic sorted-neighbour order), and every edge
    /// crossing the ball boundary is deleted. The cut is scheduled for
    /// healing `heal_delay` rounds later. Declined (no budget consumed)
    /// while a previous cut is still open, or when there is nothing to
    /// cut.
    fn partition(&mut self, network: &mut Network, round: usize) -> Option<FaultEvent> {
        if self.pending_heal.is_some() {
            return None; // one open cut at a time
        }
        let live = Self::live_nodes(network);
        if live.len() < 4 {
            return None;
        }
        let pivot = self.scenario.target.pick(&mut self.rng, network, &live)?;
        let crashed = network.crashed_mask();
        let side_target = live.len().div_ceil(2);
        let mut in_side = vec![false; network.node_count()];
        let mut queue = std::collections::VecDeque::from([pivot]);
        in_side[pivot.index()] = true;
        let mut side_size = 1usize;
        while let Some(u) = queue.pop_front() {
            if side_size >= side_target {
                break;
            }
            for &v in network.graph().neighbors_slice(u) {
                if side_size >= side_target {
                    break;
                }
                if !in_side[v.index()] && !crashed[v.index()] {
                    in_side[v.index()] = true;
                    side_size += 1;
                    queue.push_back(v);
                }
            }
        }
        let cut: Vec<Edge> = network
            .graph()
            .edges()
            .filter(|e| in_side[e.a.index()] != in_side[e.b.index()])
            .collect();
        if cut.is_empty() {
            return None; // already partitioned (or the side swallowed everyone)
        }
        for e in &cut {
            network.fault_remove_edge(e.a, e.b);
        }
        self.pending_heal = Some(PendingHeal {
            at_round: round + self.scenario.heal_delay.max(1),
            cut: cut.clone(),
        });
        Some(FaultEvent::Partition { cut })
    }

    /// Re-inserts a severed cut. Edges touching a node that crash-stopped
    /// in the meantime stay severed (a crashed node never comes back), and
    /// edges that reappeared by other means (adversarial insertions) count
    /// as dropped too.
    fn heal(network: &mut Network, cut: Vec<Edge>) -> FaultEvent {
        let mut restored = 0usize;
        let mut dropped = 0usize;
        for e in &cut {
            let crashed = network.crashed_mask();
            if !crashed[e.a.index()] && !crashed[e.b.index()] && network.fault_insert_edge(e.a, e.b)
            {
                restored += 1;
            } else {
                dropped += 1;
            }
        }
        FaultEvent::Heal { restored, dropped }
    }
}

/// The per-network DST state: adversary, invariant policy, fault log and
/// violation log. Installed with [`crate::Network::install_dst`]; the
/// network ticks it after every committed or idle-charged round.
#[derive(Debug, Clone)]
pub struct DstState {
    adversary: Adversary,
    policy: InvariantPolicy,
    /// UID values by node index, kept up to date across churn so UID
    /// uniqueness can be checked even for joined nodes.
    uids: Vec<u64>,
    /// Incrementally maintained duplicate count of `uids`: seeded at
    /// construction, bumped per join on a failed `uid_seen` insert —
    /// never recomputed by sorting.
    uid_dups: usize,
    /// The distinct UID values seen so far (the duplicate detector).
    uid_seen: BTreeSet<u64>,
    /// The UID the next churn join hands out: the running maximum plus
    /// one, maintained here so a join costs O(log n) instead of an O(n)
    /// max scan. Joins only ever raise the maximum, so this stays exact.
    uid_next: u64,
    crashed: BTreeSet<NodeId>,
    log: Vec<FaultRecord>,
    violations: Vec<Violation>,
    rounds_checked: usize,
    /// Incremental connectivity over the live subgraph, fed the round's
    /// topology events; `None` until [`DstState::attach`] (or when
    /// connectivity checking is off / from-scratch mode is forced).
    conn: Option<DynConn>,
    /// Nodes currently over the activated-degree bound, updated from the
    /// endpoints of the round's edge events. `first()` is the lowest
    /// offending id — the same node the old ascending full scan reported.
    over_degree: BTreeSet<NodeId>,
    /// Whether `over_degree` is being maintained (a degree bound is set
    /// and from-scratch mode is not forced).
    degree_tracked: bool,
    /// Drain scratch for the network's DST bus tap (reused, never
    /// reallocated in steady state).
    events: Vec<RoundEvent>,
    /// Reusable scratch for the BFS fallback and the debug-assert oracle
    /// (`live_subgraph_connected_with`): visited mask + queue, hoisted so
    /// neither allocates per round.
    bfs_seen: Vec<bool>,
    bfs_queue: VecDeque<NodeId>,
    /// Forces every invariant back onto the from-scratch O(n) paths
    /// (full BFS, full degree scan). Benchmark comparison knob.
    from_scratch: bool,
}

/// Number of duplicated UID values in `uids` — the from-scratch
/// reference for the incrementally maintained `uid_dups`, kept as the
/// debug-assert differential oracle.
#[cfg(debug_assertions)]
fn count_uid_duplicates(uids: &[u64]) -> usize {
    let mut sorted = uids.to_vec();
    sorted.sort_unstable();
    let before = sorted.len();
    sorted.dedup();
    before - sorted.len()
}

impl DstState {
    /// Couples an adversary with an invariant policy. `uids` are the UID
    /// values by node index of the network the state will be installed on
    /// (pass an empty vector to skip UID tracking).
    pub fn new(adversary: Adversary, policy: InvariantPolicy, uids: Vec<u64>) -> Self {
        let mut uid_seen = BTreeSet::new();
        let mut uid_dups = 0usize;
        for &uid in &uids {
            if !uid_seen.insert(uid) {
                uid_dups += 1;
            }
        }
        let uid_next = uids.iter().copied().max().unwrap_or(0) + 1;
        DstState {
            adversary,
            policy,
            uids,
            uid_dups,
            uid_seen,
            uid_next,
            crashed: BTreeSet::new(),
            log: Vec::new(),
            violations: Vec::new(),
            rounds_checked: 0,
            conn: None,
            over_degree: BTreeSet::new(),
            degree_tracked: false,
            events: Vec::new(),
            bfs_seen: Vec::new(),
            bfs_queue: VecDeque::new(),
            from_scratch: false,
        }
    }

    /// Forces every invariant back onto the from-scratch O(n) paths —
    /// full BFS for connectivity, full scan for the degree bound — by
    /// skipping the incremental structures when the state is attached to
    /// its network. Benchmark comparison knob; call before the state is
    /// installed.
    pub fn set_from_scratch_checks(&mut self, enabled: bool) {
        self.from_scratch = enabled;
    }

    /// Builds the incremental invariant state against the network the
    /// state is being installed on. Called by
    /// [`crate::Network::install_dst`], which also arms the DST tap of
    /// the network's round-event bus that keeps these structures fed.
    pub(crate) fn attach(&mut self, network: &Network) {
        self.conn = None;
        self.over_degree.clear();
        self.degree_tracked = false;
        if self.from_scratch {
            return;
        }
        let graph = network.graph();
        if self.policy.check_connectivity {
            self.conn = Some(DynConn::from_graph_with_crashed(
                graph,
                network.crashed_mask(),
            ));
        }
        if let Some(bound) = self.policy.max_activated_degree {
            self.degree_tracked = true;
            for u in graph.nodes() {
                if network.activated_degree(u) > bound {
                    self.over_degree.insert(u);
                }
            }
        }
    }

    /// The nodes crashed so far.
    pub fn crashed(&self) -> &BTreeSet<NodeId> {
        &self.crashed
    }

    /// The fault schedule injected so far.
    pub fn fault_log(&self) -> &[FaultRecord] {
        &self.log
    }

    /// The invariant violations recorded so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Called by the network at each round boundary: first the adversary
    /// gets a chance to inject, then the invariants are evaluated on the
    /// resulting snapshot.
    pub(crate) fn on_round(&mut self, network: &mut Network) {
        let round = network.round();
        let next_uid = self.uid_next;
        match self
            .adversary
            .inject(network, &mut self.crashed, &mut self.uids, next_uid, round)
        {
            Ok(Some(event)) => {
                if let FaultEvent::Join { uid, .. } = &event {
                    if !self.uid_seen.insert(*uid) {
                        self.uid_dups += 1;
                    }
                    self.uid_next = *uid + 1;
                }
                self.log.push(FaultRecord { round, event });
            }
            Ok(None) => {}
            // Fault application hit a broken graph invariant (e.g. a
            // crash sever landing on a corrupted arena). Recorded as a
            // violation with the full detail — the sweep reports the
            // reaching seed instead of aborting.
            Err(e) => self.violations.push(Violation {
                round,
                invariant: "fault-application",
                detail: e.to_string(),
            }),
        }
        self.apply_events(network);
        self.check_invariants(network, round);
    }

    /// Drains the round's topology events from the network and replays
    /// them into the incremental structures. Replay happens against the
    /// post-round snapshot — safe for the final verdict, because a
    /// repair never steals an edge the batch later removes (it is gone
    /// from the snapshot) and never unions across components the batch
    /// has not joined yet (the union-find root guard; the insert event
    /// that joins them is itself in the batch).
    fn apply_events(&mut self, network: &mut Network) {
        self.events.clear();
        network.drain_dst_events(&mut self.events);
        if self.events.is_empty() {
            return;
        }
        let events = std::mem::take(&mut self.events);
        let graph = network.graph();
        let degree_bound = if self.degree_tracked {
            self.policy.max_activated_degree
        } else {
            None
        };
        for &event in &events {
            match event {
                RoundEvent::Edge { edge, added, .. } => {
                    if let Some(conn) = self.conn.as_mut() {
                        if added {
                            conn.insert_edge(edge.a, edge.b);
                        } else {
                            conn.remove_edge(edge.a, edge.b, graph);
                        }
                    }
                    if let Some(bound) = degree_bound {
                        // Membership is recomputed from the *final*
                        // per-round degree, so replay order within the
                        // batch cannot matter.
                        for u in [edge.a, edge.b] {
                            if network.activated_degree(u) > bound {
                                self.over_degree.insert(u);
                            } else {
                                self.over_degree.remove(&u);
                            }
                        }
                    }
                }
                RoundEvent::NodeJoined(_) => {
                    if let Some(conn) = self.conn.as_mut() {
                        conn.add_node();
                    }
                }
                RoundEvent::NodeCrashed(node) => {
                    if let Some(conn) = self.conn.as_mut() {
                        conn.crash(node, graph);
                    }
                    if degree_bound.is_some() {
                        self.over_degree.remove(&node);
                    }
                }
                // Round boundaries and idle charges carry no topology.
                RoundEvent::RoundCommitted { .. } | RoundEvent::IdleRound => {}
            }
        }
        self.events = events;
        debug_assert!(self
            .conn
            .as_ref()
            .is_none_or(|c| c.node_count() == graph.node_count()));
    }

    fn check_invariants(&mut self, network: &Network, round: usize) {
        self.rounds_checked += 1;
        let graph = network.graph();
        if self.policy.check_connectivity {
            // O(1) verdict off the incremental forest; the BFS stays on
            // as a differential oracle in debug builds (and as the
            // from-scratch fallback when no forest is attached).
            let connected = match &self.conn {
                Some(conn) => conn.is_connected(),
                None => {
                    live_subgraph_connected_with(network, &mut self.bfs_seen, &mut self.bfs_queue)
                }
            };
            #[cfg(debug_assertions)]
            if self.conn.is_some() {
                let oracle =
                    live_subgraph_connected_with(network, &mut self.bfs_seen, &mut self.bfs_queue);
                assert_eq!(
                    connected, oracle,
                    "dynamic connectivity diverged from the BFS oracle at round {round}"
                );
            }
            if !connected {
                self.violations.push(Violation {
                    round,
                    invariant: "connectivity",
                    detail: format!(
                        "live subgraph disconnected ({} live nodes)",
                        graph.node_count() - self.crashed.len()
                    ),
                });
            }
        }
        if let Some(bound) = self.policy.max_activated_degree {
            // The over-bound set is maintained from the round's edge
            // events; its minimum is the node the old ascending full
            // scan reported first.
            let over = if self.degree_tracked {
                self.over_degree.iter().next().copied()
            } else {
                graph.nodes().find(|&u| network.activated_degree(u) > bound)
            };
            #[cfg(debug_assertions)]
            if self.degree_tracked {
                let oracle = graph.nodes().find(|&u| network.activated_degree(u) > bound);
                assert_eq!(
                    over, oracle,
                    "over-degree set diverged from the full scan at round {round}"
                );
            }
            if let Some(u) = over {
                let d = network.activated_degree(u);
                self.violations.push(Violation {
                    round,
                    invariant: "activated_degree",
                    detail: format!("node {u} has activated degree {d} > bound {bound}"),
                });
            }
        }
        if let Some(bound) = self.policy.max_active_edges {
            let m = graph.edge_count();
            if m > bound {
                self.violations.push(Violation {
                    round,
                    invariant: "edge_budget",
                    detail: format!("{m} active edges > bound {bound}"),
                });
            }
        }
        if self.policy.check_uid_uniqueness && !self.uids.is_empty() {
            #[cfg(debug_assertions)]
            assert_eq!(
                self.uid_dups,
                count_uid_duplicates(&self.uids),
                "incremental UID duplicate count diverged at round {round}"
            );
            if self.uid_dups > 0 {
                self.violations.push(Violation {
                    round,
                    invariant: "uid_uniqueness",
                    detail: format!("{} duplicate UIDs", self.uid_dups),
                });
            }
        }
    }

    /// Finalizes this state into a report.
    pub fn into_report(self) -> DstReport {
        DstReport {
            scenario: self.adversary.scenario.name.clone(),
            seed: self.adversary.seed,
            rounds_checked: self.rounds_checked,
            crashed: self.crashed.into_iter().collect(),
            faults: self.log,
            violations: self.violations,
        }
    }
}

/// BFS over the live (non-crashed) induced subgraph: true iff every live
/// node is reachable from the first live node. Crashed nodes are isolated
/// by construction, so plain connectivity would always be false after the
/// first crash; this is the meaningful residual property.
///
/// Crash membership comes from the network's flat crash mask (one index
/// per probe) and neighbourhoods are scanned as sorted slices — the same
/// columnar representation `commit_round` uses.
#[cfg_attr(not(test), allow(dead_code))]
fn live_subgraph_connected(network: &Network) -> bool {
    live_subgraph_connected_with(network, &mut Vec::new(), &mut VecDeque::new())
}

/// [`live_subgraph_connected`] against caller-provided scratch (visited
/// mask + BFS queue), so the per-round oracle/fallback path reuses one
/// allocation for the whole run instead of allocating per call.
fn live_subgraph_connected_with(
    network: &Network,
    seen: &mut Vec<bool>,
    queue: &mut VecDeque<NodeId>,
) -> bool {
    let graph = network.graph();
    let crashed = network.crashed_mask();
    let n = graph.node_count();
    let live_count = n - crashed.iter().filter(|&&c| c).count();
    if live_count <= 1 {
        return true;
    }
    let start = match graph.nodes().find(|u| !crashed[u.index()]) {
        Some(u) => u,
        None => return true,
    };
    seen.clear();
    seen.resize(n, false);
    queue.clear();
    seen[start.index()] = true;
    queue.push_back(start);
    let mut reached = 1usize;
    while let Some(u) = queue.pop_front() {
        for &v in graph.neighbors_slice(u) {
            if !seen[v.index()] && !crashed[v.index()] {
                seen[v.index()] = true;
                reached += 1;
                queue.push_back(v);
            }
        }
    }
    reached == live_count
}

/// The harvested result of a DST-instrumented execution: the exact fault
/// schedule, every invariant violation, and the `(scenario, seed)` pair
/// that reproduces both.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DstReport {
    /// Name of the scenario that drove the adversary.
    pub scenario: String,
    /// The adversary seed; together with the scenario it determines the
    /// whole fault schedule.
    pub seed: u64,
    /// Number of round boundaries at which invariants were evaluated.
    pub rounds_checked: usize,
    /// Nodes crashed over the run, ascending.
    pub crashed: Vec<NodeId>,
    /// The injected fault schedule, in order.
    pub faults: Vec<FaultRecord>,
    /// All recorded invariant violations, in order.
    pub violations: Vec<Violation>,
}

impl DstReport {
    /// True when no faults were injected and no invariants were violated.
    pub fn is_clean(&self) -> bool {
        self.faults.is_empty() && self.violations.is_empty()
    }

    /// Renders the report to a stable, line-oriented string. Two runs of
    /// the same `(scenario, seed)` must produce byte-identical renders —
    /// the replay machinery compares exactly this.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "scenario={} seed={} rounds_checked={}\n",
            self.scenario, self.seed, self.rounds_checked
        ));
        for f in &self.faults {
            s.push_str(&format!("fault @r{}: {}\n", f.round, f.event));
        }
        for v in &self.violations {
            s.push_str(&format!(
                "violation @r{}: {} — {}\n",
                v.round, v.invariant, v.detail
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adn_graph::generators;

    fn armed_network(n: usize, scenario: Scenario, seed: u64) -> Network {
        let mut net = Network::new(generators::line(n));
        let uids = (1..=n as u64).collect();
        net.install_dst(DstState::new(
            Adversary::new(scenario, seed),
            InvariantPolicy::default(),
            uids,
        ));
        net
    }

    #[test]
    fn registry_names_are_unique_and_findable() {
        let names: Vec<String> = scenarios().iter().map(|s| s.name.clone()).collect();
        let mut deduped = names.clone();
        deduped.sort();
        deduped.dedup();
        assert_eq!(deduped.len(), names.len());
        for name in &names {
            assert!(find_scenario(name).is_some(), "{name}");
            assert!(find_scenario(&name.to_uppercase()).is_some(), "{name}");
        }
        assert!(find_scenario("no_such_scenario").is_none());
    }

    #[test]
    fn failure_free_never_injects() {
        let mut net = armed_network(8, Scenario::failure_free(), 7);
        for _ in 0..20 {
            net.commit_round();
        }
        let report = net.take_dst_report().unwrap();
        assert!(report.faults.is_empty());
        assert!(report.violations.is_empty());
        assert_eq!(report.rounds_checked, 20);
        assert!(report.is_clean());
    }

    #[test]
    fn fault_schedule_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut net = armed_network(12, Scenario::mixed().with_fault_budget(6), seed);
            for _ in 0..30 {
                net.commit_round();
            }
            net.take_dst_report().unwrap()
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b);
        assert_eq!(a.render(), b.render());
        assert!(
            !a.faults.is_empty(),
            "mixed scenario should fire in 30 rounds"
        );
        let c = run(43);
        assert_ne!(
            a.render(),
            c.render(),
            "different seeds, different schedule"
        );
    }

    #[test]
    fn budget_prefix_property_holds() {
        // The schedule with budget b is a prefix of the schedule with a
        // larger budget (the minimizer depends on this).
        let run = |budget: usize| {
            let mut net = armed_network(
                16,
                Scenario::adversarial_edges().with_fault_budget(budget),
                9,
            );
            for _ in 0..40 {
                net.commit_round();
            }
            net.take_dst_report().unwrap().faults
        };
        let small = run(2);
        let big = run(6);
        assert_eq!(small.len(), 2);
        assert!(big.len() >= small.len());
        assert_eq!(&big[..small.len()], &small[..]);
    }

    #[test]
    fn crash_isolates_node_and_connectivity_violation_is_recorded() {
        // Crashing an interior node of a line disconnects the live rest.
        let scenario = Scenario {
            per_round_probability: 1.0,
            ..Scenario::crash_stop().with_fault_budget(1)
        };
        let mut net = armed_network(6, scenario, 5);
        net.commit_round();
        let crashed: Vec<NodeId> = net.dst_state().unwrap().crashed().iter().copied().collect();
        assert_eq!(crashed.len(), 1);
        assert_eq!(net.graph().degree(crashed[0]), 0);
        let report = net.take_dst_report().unwrap();
        assert_eq!(report.faults.len(), 1);
        // Interior crash on a line ⇒ disconnection; endpoint crash keeps
        // the rest connected. Either way the record agrees with the graph.
        let interior = !matches!(crashed[0].index(), 0 | 5);
        assert_eq!(
            report
                .violations
                .iter()
                .any(|v| v.invariant == "connectivity"),
            interior,
            "{report:?}"
        );
    }

    #[test]
    fn churn_grows_the_network_with_fresh_uids() {
        let scenario = Scenario {
            per_round_probability: 1.0,
            ..Scenario::churn().with_fault_budget(3)
        };
        let mut net = armed_network(5, scenario, 11);
        for _ in 0..3 {
            net.commit_round();
        }
        assert_eq!(net.node_count(), 8);
        let report = net.take_dst_report().unwrap();
        assert_eq!(report.faults.len(), 3);
        let uids: Vec<u64> = report
            .faults
            .iter()
            .filter_map(|f| match f.event {
                FaultEvent::Join { uid, .. } => Some(uid),
                _ => None,
            })
            .collect();
        assert_eq!(uids, vec![6, 7, 8], "fresh UIDs extend the namespace");
        assert!(
            !report
                .violations
                .iter()
                .any(|v| v.invariant == "uid_uniqueness"),
            "fresh UIDs stay unique"
        );
    }

    #[test]
    fn skew_charges_rounds_without_operations() {
        let scenario = Scenario {
            per_round_probability: 1.0,
            max_skew: 1,
            ..Scenario::round_skew().with_fault_budget(2)
        };
        let mut net = armed_network(4, scenario, 3);
        net.commit_round();
        // 1 committed round + 1 skewed round.
        assert_eq!(net.metrics().rounds, 2);
        assert_eq!(net.metrics().total_activations, 0);
        let report = net.take_dst_report().unwrap();
        assert!(matches!(
            report.faults[0].event,
            FaultEvent::Skew { rounds: 1 }
        ));
    }

    #[test]
    fn partition_disconnects_and_heal_reconnects() {
        let scenario = Scenario {
            per_round_probability: 1.0,
            window_start: 1,
            heal_delay: 3,
            ..Scenario::partition_heal().with_fault_budget(1)
        };
        let mut net = armed_network(10, scenario, 21);
        let mut disconnected_rounds = 0usize;
        for _ in 0..12 {
            net.commit_round();
            if !super::live_subgraph_connected(&net) {
                disconnected_rounds += 1;
            }
        }
        assert!(
            disconnected_rounds >= 2,
            "the cut must stay open for heal_delay rounds"
        );
        assert!(
            super::live_subgraph_connected(&net),
            "the heal must restore connectivity"
        );
        let report = net.take_dst_report().unwrap();
        assert_eq!(report.faults.len(), 2, "{}", report.render());
        let FaultEvent::Partition { cut } = &report.faults[0].event else {
            panic!("first fault must be the partition: {}", report.render());
        };
        assert!(!cut.is_empty());
        let FaultEvent::Heal { restored, dropped } = report.faults[1].event else {
            panic!("second fault must be the heal: {}", report.render());
        };
        assert_eq!(restored, cut.len(), "no crashes: the whole cut restores");
        assert_eq!(dropped, 0);
        assert_eq!(
            report.faults[1].round - report.faults[0].round,
            3,
            "heal fires heal_delay rounds after the partition"
        );
        // The connectivity invariant recorded the partitioned rounds.
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == "connectivity"));
    }

    #[test]
    fn partition_heal_schedule_is_deterministic() {
        let run = |seed: u64| {
            let mut net = armed_network(14, Scenario::partition_heal(), seed);
            for _ in 0..40 {
                net.commit_round();
            }
            net.take_dst_report().unwrap()
        };
        let a = run(5);
        let b = run(5);
        assert_eq!(a, b);
        assert_eq!(a.render(), b.render());
        assert!(
            a.faults
                .iter()
                .any(|f| matches!(f.event, FaultEvent::Partition { .. })),
            "partition_heal should fire within 40 rounds: {}",
            a.render()
        );
    }

    #[test]
    fn starved_fault_pools_decline_instead_of_panicking() {
        // Every targeted pool can run dry under enough pressure: edges to
        // delete run out, the live-node floor stops crashes, a zero total
        // weight offers nothing to draw. Each starved path must decline
        // (returning no event, consuming no budget) — never panic.
        //
        // Edge deletions on a 3-node line: only 2 edges exist; with the
        // budget far above that, every later round hits the empty pool.
        let delete_only = Scenario {
            per_round_probability: 1.0,
            edge_delete_weight: 1,
            edge_insert_weight: 0,
            ..Scenario::adversarial_edges().with_fault_budget(20)
        };
        for seed in 0..8u64 {
            let mut net = armed_network(3, delete_only.clone(), seed);
            for _ in 0..25 {
                net.commit_round();
            }
            let report = net.take_dst_report().unwrap();
            assert!(
                report.faults.len() <= 2,
                "only 2 edges existed to delete:\n{}",
                report.render()
            );
            assert_eq!(net.graph().edge_count(), 0, "seed {seed}");
        }
        // Crash-stop floor: at most n - 2 nodes may ever crash.
        let crash_all = Scenario {
            per_round_probability: 1.0,
            ..Scenario::crash_stop().with_fault_budget(20)
        };
        for seed in 0..8u64 {
            let mut net = armed_network(5, crash_all.clone(), seed);
            for _ in 0..25 {
                net.commit_round();
            }
            let report = net.take_dst_report().unwrap();
            assert!(
                report.crashed.len() <= 3,
                "the live floor keeps two nodes alive:\n{}",
                report.render()
            );
        }
        // Zero total weight with budget left: nothing to draw, no panic.
        let zero_weight = Scenario::base("zero_weight").with_fault_budget(5);
        let mut net = armed_network(4, zero_weight, 9);
        for _ in 0..10 {
            net.commit_round();
        }
        assert!(net.take_dst_report().unwrap().faults.is_empty());
    }

    #[test]
    fn heavy_churn_crash_mix_is_panic_free_and_deterministic() {
        // Regression guard for the fault-path audit: a saturating mix of
        // churn, crashes, rewiring, skew and partitions on a tiny network
        // exercises every pool-starvation branch at once. Completing (and
        // replaying byte-identically) is the assertion.
        let scenario = Scenario {
            per_round_probability: 1.0,
            crash_weight: 2,
            churn_weight: 3,
            edge_delete_weight: 2,
            edge_insert_weight: 1,
            skew_weight: 1,
            partition_weight: 1,
            target: TargetPolicy::MaxDegree,
            ..Scenario::base("heavy_mix").with_fault_budget(40)
        };
        for seed in 0..10u64 {
            let run = |seed: u64| {
                let mut net = armed_network(6, scenario.clone(), seed);
                for _ in 0..60 {
                    net.commit_round();
                }
                net.take_dst_report().unwrap()
            };
            let report = run(seed);
            let budgeted = report
                .faults
                .iter()
                .filter(|f| !matches!(f.event, FaultEvent::Heal { .. }))
                .count();
            assert!(budgeted <= 40, "heals are budget-free; the rest are not");
            assert_eq!(report.render(), run(seed).render(), "seed {seed}");
        }
    }

    #[test]
    fn window_gates_injection() {
        let scenario = Scenario {
            per_round_probability: 1.0,
            ..Scenario::adversarial_edges()
                .with_fault_budget(100)
                .with_window(5, Some(7))
        };
        let mut net = armed_network(10, scenario, 1);
        for _ in 0..12 {
            net.commit_round();
        }
        let report = net.take_dst_report().unwrap();
        assert!(!report.faults.is_empty());
        assert!(
            report.faults.iter().all(|f| (5..=7).contains(&f.round)),
            "{report:?}"
        );
    }

    #[test]
    fn target_policies_pick_extremes() {
        let mut rng = DetRng::seed_from_u64(0);
        let net = Network::new(generators::star(6)); // centre 0 has degree 5
        let candidates: Vec<NodeId> = net.graph().nodes().collect();
        assert_eq!(
            TargetPolicy::MaxDegree.pick(&mut rng, &net, &candidates),
            Some(NodeId(0))
        );
        assert_eq!(
            TargetPolicy::MinDegree.pick(&mut rng, &net, &candidates),
            Some(NodeId(1))
        );
        assert_eq!(TargetPolicy::Random.pick(&mut rng, &net, &[]), None);
    }
}
