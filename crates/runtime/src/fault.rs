//! Armed fault plans for the asynchronous schedulers.
//!
//! The synchronous DST adversary perturbs executions between rounds; the
//! asynchronous runtime has no rounds, so faults are scheduled against the
//! only clock a run has — the **delivery-step counter**. A [`FaultPlan`]
//! is a step-sorted list of crash/join events, armed on a seeded
//! scheduler with
//! [`SeededScheduler::with_faults`](crate::SeededScheduler::with_faults);
//! the scheduler fires every event whose step has been reached *before*
//! the next delivery, so a plan is part of the deterministic replay
//! state: the same `(seed, knobs, plan)` triple reproduces the same
//! execution byte for byte.
//!
//! Crash semantics follow the synchronous harness: the network severs all
//! incident edges and drops the node's staged operations, and the
//! scheduler additionally keeps Dijkstra–Scholten sound — the crashed
//! node's deficit is forgiven, its engagement parent is signed off on its
//! behalf, later application messages addressed to it are acknowledged by
//! the scheduler (so live senders' deficits still drain), and acks headed
//! to it are dropped. Termination detection therefore neither hangs on a
//! crashed node's unacked sends nor fires while a live-destined message
//! is in flight.

use adn_graph::NodeId;

/// One adversarial event, fired when the run's delivery-step counter
/// reaches [`FaultEvent::at_step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Delivery step (cumulative across phases) at which the event fires.
    pub at_step: usize,
    /// What happens.
    pub kind: FaultKind,
}

/// The adversarial operations a runtime fault plan can deliver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Crash-stop a node: sever its edges, forgive its Dijkstra–Scholten
    /// deficit, and acknowledge its mail on its behalf from then on.
    Crash(NodeId),
    /// Append a fresh, isolated node (churn). The joiner has no actor and
    /// stays invisible until an algorithm is taught to greet it.
    Join,
}

/// A step-sorted schedule of [`FaultEvent`]s for one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a crash of `node` at delivery step `at_step`.
    pub fn crash_at(mut self, at_step: usize, node: NodeId) -> Self {
        self.push(FaultEvent {
            at_step,
            kind: FaultKind::Crash(node),
        });
        self
    }

    /// Adds a churn join at delivery step `at_step`.
    pub fn join_at(mut self, at_step: usize) -> Self {
        self.push(FaultEvent {
            at_step,
            kind: FaultKind::Join,
        });
        self
    }

    /// Whether the plan has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events in firing order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    fn push(&mut self, event: FaultEvent) {
        // Keep firing order stable: sort by step, ties in insertion order.
        let pos = self
            .events
            .iter()
            .position(|e| e.at_step > event.at_step)
            .unwrap_or(self.events.len());
        self.events.insert(pos, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_kept_step_sorted() {
        let plan = FaultPlan::new()
            .crash_at(30, NodeId(2))
            .join_at(10)
            .crash_at(10, NodeId(1));
        let steps: Vec<usize> = plan.events().iter().map(|e| e.at_step).collect();
        assert_eq!(steps, vec![10, 10, 30]);
        // Ties fire in insertion order.
        assert_eq!(plan.events()[0].kind, FaultKind::Join);
        assert_eq!(plan.events()[1].kind, FaultKind::Crash(NodeId(1)));
    }
}
