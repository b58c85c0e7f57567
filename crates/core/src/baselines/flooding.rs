//! Token dissemination by flooding over the static initial network.
//!
//! Every node starts with one token (its UID). In every round, every node
//! sends the set of tokens it knows to all of its neighbours. No edges are
//! ever activated, so the edge complexity is zero — but the running time
//! is the eccentricity of the slowest node, i.e. `Θ(diameter)` rounds,
//! which on the paper's worst-case inputs (spanning lines) is `Θ(n)`.
//! This is the "strategies that do not modify the input network" baseline
//! of Section 1.2, used by experiment T8.
//!
//! A node's known tokens are an [`adn_runtime::flood::TokenSet`]: one bit
//! per origin node index, with a running count. Each round copies every
//! node's set words into one snapshot buffer, and every node ORs in its
//! neighbours' snapshot words. The whole set is resent every round, not
//! only last round's news: after a fault rewires an edge or a node joins,
//! a new neighbour still receives every token, which is what lets
//! flooding heal under the stress suite's faults.

use crate::algorithm::{validate_input, RunConfig};
use crate::{CoreError, TransformationOutcome};
use adn_graph::{Graph, NodeId, UidMap};
use adn_runtime::flood::{flood_actors, TokenSet};
use adn_runtime::SeededScheduler;
use adn_sim::{Network, SimError};

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
///
/// The initial nodes `0..n` hold the tokens; a node a churn fault adds
/// later holds none and sends nothing. Each round reads the snapshot at
/// its start, both the edges and every node's token set. A node is done
/// once it holds as many tokens as the network has nodes at the start of
/// the round (it knows `n`, as in the paper's ThinWreath assumption), and
/// stays done; the run ends when every node is done.
pub(crate) fn execute(
    network: &mut Network,
    uids: &UidMap,
    config: &RunConfig,
) -> Result<TransformationOutcome, CoreError> {
    validate_input(network, uids, "flooding")?;
    if let Some(scheduler) = config.scheduler() {
        return execute_async(network, uids, &scheduler);
    }
    let n = network.node_count();
    let limit = config.engine_round_cap(network, 2 * n + 4);
    let mut known: Vec<TokenSet> = (0..n).map(|i| TokenSet::singleton(n, NodeId(i))).collect();
    let mut done = vec![n == 1; n];
    let width = n.div_ceil(64);
    let mut sent: Vec<u64> = Vec::with_capacity(n * width);
    let mut rounds = 0;
    while !done.iter().all(|&d| d) {
        if rounds >= limit {
            return Err(SimError::RoundLimitExceeded { limit }.into());
        }
        rounds += 1;
        // Copy every set out before any of them grows: each node absorbs
        // what its neighbours held at the round's start.
        sent.clear();
        for set in &known {
            sent.extend_from_slice(set.words());
        }
        let node_count = network.node_count();
        let graph = network.graph();
        for (i, (set, done)) in known.iter_mut().zip(&mut done).enumerate() {
            for v in graph.neighbors_slice(NodeId(i)) {
                if v.index() < n {
                    set.union_words(&sent[v.index() * width..][..width]);
                }
            }
            *done |= set.len() >= node_count;
        }
        network.commit_round();
    }
    config.check_round_budget(network)?;
    let leader = uids.max_uid_node().expect("validated input is non-empty");
    let mut outcome = TransformationOutcome::from_network(leader, network);
    outcome.tokens_per_node = known.iter().map(TokenSet::len).collect();
    Ok(outcome)
}

/// Flooding on the asynchronous actor runtime: delta-forwarding actors
/// (each token hop carries only newly learned tokens) driven by the
/// scheduler [`RunConfig::scheduler`] selected. The outcome's token sets
/// equal the synchronous ones — token merging is confluent, so the final
/// state is delivery-order independent — while `rounds` stays 0 (no edge
/// operations, no round counter) and the runtime report lands in
/// [`TransformationOutcome::runtime`].
fn execute_async(
    network: &mut Network,
    uids: &UidMap,
    scheduler: &SeededScheduler,
) -> Result<TransformationOutcome, CoreError> {
    let mut actors = flood_actors(network.graph());
    let report = scheduler.run(network, &mut actors)?;
    let leader = uids.max_uid_node().expect("validated input is non-empty");
    let mut outcome = TransformationOutcome::from_network(leader, network);
    outcome.tokens_per_node = actors.iter().map(|a| a.known().len()).collect();
    outcome.runtime = Some(report);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{arm_network_for_dst, DstConfig, Flooding, ReconfigurationAlgorithm};
    use adn_graph::{generators, UidAssignment};
    use adn_sim::Scenario;

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
    fn a_churn_join_stalls_flooding_at_the_round_cap() {
        // The joined node holds no token but counts toward n, so no node
        // ever holds n tokens and the run stops at the 2n + 4 round cap.
        let n = 12;
        let uids = UidMap::new(n, UidAssignment::Sequential);
        let mut network = Network::new(generators::line(n));
        let dst = DstConfig {
            scenario: Scenario {
                per_round_probability: 1.0,
                ..Scenario::churn().with_fault_budget(1)
            },
            seed: 3,
        };
        arm_network_for_dst(&mut network, &Flooding.spec(), &uids, &dst);
        let err = execute(&mut network, &uids, &RunConfig::default()).unwrap_err();
        assert!(
            matches!(
                err,
                CoreError::Sim(SimError::RoundLimitExceeded { limit: 28 })
            ),
            "{err:?}"
        );
        assert_eq!(network.node_count(), n + 1, "exactly one node joined");
    }

    #[test]
    fn a_scheduler_that_gives_up_is_not_blamed_on_the_input() {
        // An exhausted step budget is the runtime's failure, not a bad
        // input: it surfaces through `From<RuntimeError> for CoreError`.
        let n = 8;
        let uids = UidMap::new(n, UidAssignment::Sequential);
        let mut network = Network::new(generators::ring(n));
        let scheduler = SeededScheduler::new(1).with_max_steps(3);
        let err = execute_async(&mut network, &uids, &scheduler).unwrap_err();
        assert_eq!(
            err,
            CoreError::Runtime(adn_runtime::RuntimeError::DidNotQuiesce { steps: 3 })
        );
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
