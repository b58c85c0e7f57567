//! Error type shared by the algorithms in this crate.

use adn_runtime::RuntimeError;
use adn_sim::SimError;
use std::error::Error;
use std::fmt;

/// Errors raised by the transformation algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// A model violation or round-limit error raised by the simulator.
    Sim(SimError),
    /// The asynchronous scheduler used up its step budget before
    /// termination was detected.
    Runtime(RuntimeError),
    /// The input network does not satisfy the algorithm's precondition
    /// (for example, a disconnected initial network, or a non-line input
    /// to `LineToCompleteBinaryTree`).
    InvalidInput {
        /// Human-readable description of the violated precondition.
        reason: String,
    },
    /// The algorithm did not converge within its internal phase budget,
    /// or reached a phase that changes nothing and so repeats forever.
    /// Without faults this indicates a bug (the algorithms are proven to
    /// terminate); it is surfaced as an error rather than a panic so that
    /// property tests can report the offending instance.
    DidNotConverge {
        /// Name of the algorithm.
        algorithm: &'static str,
        /// The phase budget that was exhausted, or the phase found to
        /// repeat.
        phase_limit: usize,
    },
    /// An internal structural invariant did not hold (a committee scan or
    /// ring lookup came up empty). Unreachable in the fault-free model;
    /// under out-of-model perturbation it is surfaced as a clean error so
    /// adversarial stress runs record a `Failed` outcome rather than a
    /// panic.
    BrokenInvariant {
        /// Name of the algorithm.
        algorithm: &'static str,
        /// Which invariant was violated.
        detail: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Sim(e) => write!(f, "simulator error: {e}"),
            CoreError::Runtime(e) => write!(f, "runtime error: {e}"),
            CoreError::InvalidInput { reason } => write!(f, "invalid input: {reason}"),
            CoreError::DidNotConverge {
                algorithm,
                phase_limit,
            } => write!(
                f,
                "{algorithm} did not converge within {phase_limit} phases"
            ),
            CoreError::BrokenInvariant { algorithm, detail } => {
                write!(f, "{algorithm} structural invariant violated: {detail}")
            }
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Sim(e) => Some(e),
            CoreError::Runtime(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for CoreError {
    fn from(value: SimError) -> Self {
        CoreError::Sim(value)
    }
}

impl From<RuntimeError> for CoreError {
    fn from(value: RuntimeError) -> Self {
        match value {
            RuntimeError::Sim(e) => CoreError::Sim(e),
            RuntimeError::InvalidInput { reason } => CoreError::InvalidInput { reason },
            gave_up @ RuntimeError::DidNotQuiesce { .. } => CoreError::Runtime(gave_up),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adn_graph::NodeId;

    #[test]
    fn display_and_source() {
        let e = CoreError::from(SimError::SelfLoop { node: NodeId(1) });
        assert!(e.to_string().contains("simulator error"));
        assert!(Error::source(&e).is_some());
        let e = CoreError::InvalidInput {
            reason: "disconnected".into(),
        };
        assert!(e.to_string().contains("disconnected"));
        assert!(Error::source(&e).is_none());
        let e = CoreError::DidNotConverge {
            algorithm: "GraphToStar",
            phase_limit: 42,
        };
        assert!(e.to_string().contains("GraphToStar"));
        assert!(e.to_string().contains("42"));
        let e = CoreError::BrokenInvariant {
            algorithm: "GraphToWreath",
            detail: "attach node n3 is not on the merged ring".into(),
        };
        assert!(e.to_string().contains("structural invariant"));
        assert!(e.to_string().contains("n3"));
        assert!(Error::source(&e).is_none());
        let e = CoreError::from(RuntimeError::DidNotQuiesce { steps: 3 });
        assert!(e.to_string().contains("runtime error"));
        assert!(Error::source(&e).is_some());
    }
}
