//! Per-round traces.

/// Per-round statistics captured while an execution runs. These power the
/// "figure"-style experiments (committee decay, activation time-series).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundStats {
    /// The round index.
    pub round: usize,
    /// Edges activated in this round.
    pub activations: usize,
    /// Edges deactivated in this round.
    pub deactivations: usize,
    /// Active non-initial edges after the round.
    pub activated_edges: usize,
    /// Maximum total degree after the round.
    pub max_degree: usize,
    /// Number of committees (or other algorithm-specific groups) alive
    /// after the round; 0 when the running algorithm does not track
    /// committees.
    pub groups_alive: usize,
}
