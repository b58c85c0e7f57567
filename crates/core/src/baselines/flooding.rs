//! Token dissemination by flooding over the static initial network.
//!
//! Every node starts with one token (its UID). In every round, every node
//! sends the set of tokens it knows to all of its neighbours. No edges are
//! ever activated, so the edge complexity is zero — but the running time
//! is the eccentricity of the slowest node, i.e. `Θ(diameter)` rounds,
//! which on the paper's worst-case inputs (spanning lines) is `Θ(n)`.
//! This is the "strategies that do not modify the input network" baseline
//! of Section 1.2, used by experiment T8.

use crate::algorithm::{EngineMode, RunConfig};
use crate::{CoreError, TransformationOutcome};
use adn_graph::{Graph, NodeId, Uid, UidMap};
use adn_runtime::flood::flood_actors;
use adn_runtime::{FreeScheduler, SeededScheduler};
use adn_sim::engine::{run_programs, EngineConfig, NodeDecision, NodeProgram, NodeView};
use adn_sim::Network;

struct FloodNode {
    /// Known tokens, kept sorted and duplicate-free — inbound messages
    /// are themselves sorted (clones of a sender's `known`), so absorbing
    /// one is a two-pointer union instead of per-token tree inserts. The
    /// contents and order are identical to the old `BTreeSet` form.
    known: Vec<Uid>,
    scratch: Vec<Uid>,
    /// A node terminates when it has seen `n` tokens (it knows `n` here,
    /// as in the paper's ThinWreath assumption) — `n` is read from the
    /// view.
    done: bool,
}

impl FloodNode {
    /// Merges the sorted `tokens` into the sorted `known` set.
    fn absorb(&mut self, tokens: &[Uid]) {
        debug_assert!(tokens.windows(2).all(|w| w[0] < w[1]));
        self.scratch.clear();
        self.scratch.reserve(self.known.len() + tokens.len());
        let (a, b) = (&self.known, tokens);
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    self.scratch.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    self.scratch.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    self.scratch.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        self.scratch.extend_from_slice(&a[i..]);
        self.scratch.extend_from_slice(&b[j..]);
        std::mem::swap(&mut self.known, &mut self.scratch);
    }
}

impl NodeProgram for FloodNode {
    type Message = Vec<Uid>;

    fn send(&mut self, view: &NodeView) -> Vec<(NodeId, Self::Message)> {
        view.neighbors
            .iter()
            .map(|&v| (v, self.known.clone()))
            .collect()
    }

    fn step(&mut self, view: &NodeView, inbox: &[(NodeId, Self::Message)]) -> NodeDecision {
        for (_, tokens) in inbox {
            self.absorb(tokens);
        }
        if self.known.len() >= view.n {
            self.done = true;
        }
        NodeDecision::none()
    }

    fn has_terminated(&self) -> bool {
        self.done
    }
}

/// Floods all tokens over the static graph until every node holds every
/// token. The returned outcome's `tokens_per_node` field records how many
/// tokens each node ended with (all `n` on success) and `leader` is the
/// maximum-UID node elected as a by-product of full dissemination.
///
/// # Errors
///
/// Returns [`CoreError::InvalidInput`] for disconnected graphs (flooding
/// would never complete) and propagates simulator errors.
pub(crate) fn flood(graph: &Graph, uids: &UidMap) -> Result<TransformationOutcome, CoreError> {
    let mut network = Network::new(graph.clone());
    execute(&mut network, uids, &RunConfig::default())
}

/// Executes flooding on `network` (trait entry point; see
/// [`crate::algorithm::Flooding`]).
pub(crate) fn execute(
    network: &mut Network,
    uids: &UidMap,
    config: &RunConfig,
) -> Result<TransformationOutcome, CoreError> {
    if !adn_graph::traversal::is_connected(network.graph()) {
        return Err(CoreError::InvalidInput {
            reason: "flooding requires a connected network".into(),
        });
    }
    let n = network.node_count();
    if uids.len() != n {
        return Err(CoreError::InvalidInput {
            reason: "one UID per node is required".into(),
        });
    }
    if !config.engine.is_synchronous() {
        return execute_async(network, uids, config);
    }
    network.set_trace_enabled(config.trace.is_per_round());
    let mut programs: Vec<FloodNode> = (0..n)
        .map(|i| FloodNode {
            known: vec![uids.uid(NodeId(i))],
            scratch: Vec::new(),
            done: n == 1,
        })
        .collect();
    let engine = EngineConfig {
        max_rounds: config.engine_round_cap(network, 2 * n + 4),
        record_trace: config.trace.is_per_round(),
    };
    run_programs(network, &mut programs, uids, &engine)?;
    config.check_round_budget(network)?;
    let leader = uids.max_uid_node().ok_or_else(|| CoreError::InvalidInput {
        reason: "empty network".into(),
    })?;
    let mut outcome = TransformationOutcome::from_network(leader, network);
    outcome.tokens_per_node = programs.iter().map(|p| p.known.len()).collect();
    Ok(outcome)
}

/// Flooding on the asynchronous actor runtime: delta-forwarding actors
/// (each token hop carries only newly learned tokens) driven by the
/// scheduler selected in [`RunConfig::engine`]. The outcome's token sets
/// equal the synchronous ones — token merging is confluent, so the final
/// state is delivery-order independent — while `rounds` stays 0 (no edge
/// operations, no round counter) and the runtime report lands in
/// [`TransformationOutcome::runtime`].
fn execute_async(
    network: &mut Network,
    uids: &UidMap,
    config: &RunConfig,
) -> Result<TransformationOutcome, CoreError> {
    let mut actors = flood_actors(network.graph(), uids);
    let report = match config.engine {
        EngineMode::Seeded { seed } => SeededScheduler::new(seed)
            .with_knobs(config.async_knobs())
            .run(network, &mut actors),
        EngineMode::Free { threads } => FreeScheduler::new(threads).run(network, &mut actors),
        EngineMode::Synchronous => unreachable!("dispatched from execute"),
    }
    .map_err(|e| match e {
        adn_runtime::RuntimeError::Sim(sim) => CoreError::Sim(sim),
        other => CoreError::InvalidInput {
            reason: format!("asynchronous flooding failed: {other}"),
        },
    })?;
    let leader = uids.max_uid_node().ok_or_else(|| CoreError::InvalidInput {
        reason: "empty network".into(),
    })?;
    let mut outcome = TransformationOutcome::from_network(leader, network);
    outcome.tokens_per_node = actors.iter().map(|a| a.known().len()).collect();
    outcome.runtime = Some(report);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adn_graph::{generators, UidAssignment};

    #[test]
    fn flooding_on_a_line_takes_diameter_rounds() {
        let n = 40;
        let g = generators::line(n);
        let uids = UidMap::new(n, UidAssignment::Sequential);
        let outcome = flood(&g, &uids).unwrap();
        // The two endpoints are at distance n-1, so n-1 rounds are needed
        // (plus potentially one detection round).
        assert!(outcome.rounds >= n - 1);
        assert!(outcome.rounds <= n + 1);
        assert!(outcome.tokens_per_node.iter().all(|&t| t == n));
        assert_eq!(outcome.metrics.total_activations, 0);
        assert_eq!(outcome.leader, NodeId(n - 1));
        // Flooding never reconfigures: the final network is the initial one.
        assert_eq!(&outcome.final_graph, &g);
    }

    #[test]
    fn flooding_on_a_star_is_fast() {
        let n = 40;
        let g = generators::star(n);
        let uids = UidMap::new(n, UidAssignment::Sequential);
        let outcome = flood(&g, &uids).unwrap();
        assert!(outcome.rounds <= 3);
        assert!(outcome.tokens_per_node.iter().all(|&t| t == n));
    }

    #[test]
    fn rejects_disconnected_graphs() {
        let mut g = generators::line(5);
        g.remove_edge(NodeId(1), NodeId(2)).unwrap();
        let uids = UidMap::new(5, UidAssignment::Sequential);
        assert!(matches!(
            flood(&g, &uids),
            Err(CoreError::InvalidInput { .. })
        ));
    }

    #[test]
    fn single_node_is_instant() {
        let g = Graph::new(1);
        let uids = UidMap::new(1, UidAssignment::Sequential);
        let outcome = flood(&g, &uids).unwrap();
        assert_eq!(outcome.tokens_per_node, vec![1]);
    }
}
