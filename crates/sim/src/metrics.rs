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
    /// Number of activations performed in each elapsed round, in round
    /// order. Idle/communication-only rounds and adversarially skewed
    /// rounds contribute an explicit 0 (pinned by
    /// `idle_rounds_contribute_zero_activations`), so the vector length
    /// is the elapsed-round count.
    pub activations_per_round: Vec<usize>,
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

    /// Number of rounds with a per-round activation record.
    pub fn recorded_rounds(&self) -> usize {
        self.activations_per_round.len()
    }

    /// Maximum number of activations in any single round.
    pub fn max_activations_in_round(&self) -> usize {
        self.activations_per_round
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// Average number of activations per *elapsed* round (0 if no
    /// rounds). The denominator counts every round that recorded a
    /// per-round entry — committed rounds, idle communication rounds
    /// and adversarially skewed rounds (the latter two contribute 0
    /// activations) — so this is activations per round of wall-clock
    /// model time, not per committed round.
    pub fn mean_activations_per_round(&self) -> f64 {
        let rounds = self.recorded_rounds();
        if rounds == 0 {
            0.0
        } else {
            self.total_activations as f64 / rounds as f64
        }
    }

    /// Merges another metrics record into this one, as if the other
    /// execution ran *after* this one on the same network (rounds add up,
    /// maxima take the max). Used when composing algorithms, e.g. a
    /// transformation followed by a dissemination phase.
    pub fn absorb_sequential(&mut self, later: &EdgeMetrics) {
        self.rounds += later.rounds;
        self.total_activations += later.total_activations;
        self.total_deactivations += later.total_deactivations;
        self.activations_per_round
            .extend_from_slice(&later.activations_per_round);
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

    #[test]
    fn default_is_zeroed() {
        let m = EdgeMetrics::new();
        assert_eq!(m.rounds, 0);
        assert_eq!(m.total_activations, 0);
        assert_eq!(m.max_activations_in_round(), 0);
        assert_eq!(m.mean_activations_per_round(), 0.0);
    }

    #[test]
    fn per_round_statistics() {
        let m = EdgeMetrics {
            rounds: 3,
            total_activations: 6,
            activations_per_round: vec![1, 2, 3],
            ..Default::default()
        };
        assert_eq!(m.max_activations_in_round(), 3);
        assert!((m.mean_activations_per_round() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn sequential_absorption_adds_and_maxes() {
        let mut a = EdgeMetrics {
            rounds: 2,
            total_activations: 5,
            total_deactivations: 1,
            activations_per_round: vec![2, 3],
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
            activations_per_round: vec![1, 1, 0, 0],
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
        assert_eq!(a.activations_per_round, vec![2, 3, 1, 1, 0, 0]);
        assert_eq!(a.max_activated_edges, 4);
        assert_eq!(a.max_active_edges_total, 12);
        assert_eq!(a.max_activated_degree, 6);
        assert_eq!(a.max_total_degree, 5);
        assert_eq!(a.max_node_activations_in_round, 3);
    }
}
