//! Error type for the algorithm crate.

use std::error::Error;
use std::fmt;

use decolor_graph::GraphError;

/// Errors produced by the coloring algorithms.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum AlgoError {
    /// A parameter violates an algorithm precondition.
    InvalidParameters {
        /// Description of the violated precondition.
        reason: String,
    },
    /// A structural assumption failed at runtime (these indicate bugs or
    /// malformed inputs; the message names the violated invariant).
    InvariantViolated {
        /// Description of the violated invariant.
        reason: String,
    },
    /// An underlying graph operation failed.
    Graph(GraphError),
}

impl AlgoError {
    /// An [`AlgoError::InvariantViolated`] whose reason is `e`'s text:
    /// how a failure the algorithm cannot meet on correct input — a view
    /// of ids it derived itself, a coloring it built — surfaces.
    pub fn invariant(e: impl fmt::Display) -> AlgoError {
        AlgoError::InvariantViolated {
            reason: e.to_string(),
        }
    }
}

impl fmt::Display for AlgoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgoError::InvalidParameters { reason } => write!(f, "invalid parameters: {reason}"),
            AlgoError::InvariantViolated { reason } => write!(f, "invariant violated: {reason}"),
            AlgoError::Graph(e) => write!(f, "graph error: {e}"),
        }
    }
}

impl Error for AlgoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AlgoError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for AlgoError {
    fn from(e: GraphError) -> Self {
        AlgoError::Graph(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = AlgoError::InvalidParameters {
            reason: "t must be >= 2".into(),
        };
        assert!(e.to_string().contains("t must be >= 2"));
        let g: AlgoError = GraphError::SelfLoop { vertex: 1 }.into();
        assert!(std::error::Error::source(&g).is_some());
    }

    #[test]
    fn is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AlgoError>();
    }
}
