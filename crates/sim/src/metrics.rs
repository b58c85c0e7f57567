//! Edge-complexity metrics (Section 2.2 of the paper).

/// The paper's edge-complexity measures plus the running time, accumulated
/// by [`crate::Network`] as rounds are committed.
///
/// * `total_activations` — `Σ_i |E_ac(i)|` (**Total Edge Activations**).
/// * `max_activated_edges` — `max_i |E(i) \ E(1)|` (**Maximum Activated
///   Edges**): the largest number of concurrently active edges that were
///   *not* part of the initial network.
/// * `max_activated_degree` — `max_i deg(D(i) \ D(1))` (**Maximum
///   Activated Degree**): the largest degree of any node counting only
///   activated (non-initial) edges.
/// * `max_total_degree` — the largest degree counting all edges (initial
///   plus activated); the paper's bounded-degree statements
///   ("8 + c where c is the initial degree") are checked against this.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeMetrics {
    /// Number of rounds that have elapsed (committed or idle-charged).
    pub rounds: usize,
    /// Total number of edge activations performed over all rounds.
    pub total_activations: usize,
    /// Total number of edge deactivations performed over all rounds.
    pub total_deactivations: usize,
    /// Maximum over rounds of the number of activations performed in
    /// that round. Per-round counts come from the recorder tap's
    /// `RoundCommitted` events (idle rounds perform none).
    pub max_activations_in_round: usize,
    /// Maximum over rounds of the number of active non-initial edges.
    pub max_activated_edges: usize,
    /// Maximum over rounds of the number of active edges (including the
    /// surviving initial edges). Useful to compare against the `2n` bounds
    /// stated for the subroutines.
    pub max_active_edges_total: usize,
    /// Maximum over rounds of a node's degree counting only activated
    /// (non-initial) edges.
    pub max_activated_degree: usize,
    /// Maximum over rounds of a node's total degree (all active edges).
    pub max_total_degree: usize,
    /// Maximum number of activations performed by (attributed to) a single
    /// node within a single round. Our main algorithms keep this at 1; the
    /// clique baseline does not.
    pub max_node_activations_in_round: usize,
}

impl EdgeMetrics {
    /// Creates an empty metrics accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merges another metrics record into this one, as if the other
    /// execution ran *after* this one on the same network (rounds add up,
    /// maxima take the max). Used when composing algorithms, e.g. a
    /// transformation followed by a dissemination phase.
    pub fn absorb_sequential(&mut self, later: &EdgeMetrics) {
        self.rounds += later.rounds;
        self.total_activations += later.total_activations;
        self.total_deactivations += later.total_deactivations;
        self.max_activations_in_round = self
            .max_activations_in_round
            .max(later.max_activations_in_round);
        self.max_activated_edges = self.max_activated_edges.max(later.max_activated_edges);
        self.max_active_edges_total = self
            .max_active_edges_total
            .max(later.max_active_edges_total);
        self.max_activated_degree = self.max_activated_degree.max(later.max_activated_degree);
        self.max_total_degree = self.max_total_degree.max(later.max_total_degree);
        self.max_node_activations_in_round = self
            .max_node_activations_in_round
            .max(later.max_node_activations_in_round);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RoundEvent;
    use adn_graph::NodeId;

    #[test]
    fn default_is_zeroed() {
        let m = EdgeMetrics::new();
        assert_eq!(m.rounds, 0);
        assert_eq!(m.total_activations, 0);
        assert_eq!(m.max_activations_in_round, 0);
    }

    #[test]
    fn per_round_maximum_matches_the_recorded_boundaries() {
        // Rounds of 1, 3 and 2 activations around two idle charges: the
        // running maximum is the largest `RoundCommitted` count, and the
        // elapsed rounds are the boundaries plus the idle rounds.
        let mut net = crate::Network::new(adn_graph::generators::line(8));
        net.set_event_recording(true);
        let waves: [&[(usize, usize)]; 3] =
            [&[(0, 2)], &[(2, 4), (4, 6), (1, 3)], &[(3, 5), (5, 7)]];
        for wave in waves {
            for &(u, v) in wave {
                net.stage_activation(NodeId(u), NodeId(v)).unwrap();
            }
            net.commit_round();
            net.advance_idle_rounds(1);
        }
        let events = net.take_events();
        let committed: Vec<usize> = events
            .iter()
            .filter_map(|e| match *e {
                RoundEvent::RoundCommitted { activations, .. } => Some(activations),
                _ => None,
            })
            .collect();
        let idle = events
            .iter()
            .filter(|e| matches!(e, RoundEvent::IdleRound))
            .count();
        assert_eq!(committed, [1, 3, 2]);
        let m = net.metrics();
        assert_eq!(m.max_activations_in_round, 3);
        assert_eq!(m.rounds, committed.len() + idle);
        assert_eq!(m.total_activations, committed.iter().sum::<usize>());
    }

    #[test]
    fn sequential_absorption_adds_and_maxes() {
        let mut a = EdgeMetrics {
            rounds: 2,
            total_activations: 5,
            total_deactivations: 1,
            max_activations_in_round: 3,
            max_activated_edges: 4,
            max_active_edges_total: 9,
            max_activated_degree: 3,
            max_total_degree: 5,
            max_node_activations_in_round: 1,
        };
        let b = EdgeMetrics {
            rounds: 4,
            total_activations: 2,
            total_deactivations: 7,
            max_activations_in_round: 1,
            max_activated_edges: 2,
            max_active_edges_total: 12,
            max_activated_degree: 6,
            max_total_degree: 4,
            max_node_activations_in_round: 3,
        };
        a.absorb_sequential(&b);
        assert_eq!(a.rounds, 6);
        assert_eq!(a.total_activations, 7);
        assert_eq!(a.total_deactivations, 8);
        assert_eq!(a.max_activations_in_round, 3);
        assert_eq!(a.max_activated_edges, 4);
        assert_eq!(a.max_active_edges_total, 12);
        assert_eq!(a.max_activated_degree, 6);
        assert_eq!(a.max_total_degree, 5);
        assert_eq!(a.max_node_activations_in_round, 3);
    }
}
