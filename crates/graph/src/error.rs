//! Error type for graph construction and validation.

use std::error::Error;
use std::fmt;

/// Errors produced by graph construction, generators and validators.
///
/// ```rust
/// use decolor_graph::{GraphBuilder, GraphError};
/// let mut b = GraphBuilder::new(2);
/// assert!(matches!(b.add_edge(0, 5), Err(GraphError::VertexOutOfRange { .. })));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// An endpoint index is `>= n`.
    VertexOutOfRange {
        /// The offending vertex index.
        vertex: usize,
        /// The number of vertices in the graph.
        n: usize,
    },
    /// A self-loop `{v, v}` was inserted.
    SelfLoop {
        /// The vertex with the self-loop.
        vertex: usize,
    },
    /// A parallel edge was inserted while the builder forbids them.
    ParallelEdge {
        /// One endpoint.
        u: usize,
        /// The other endpoint.
        v: usize,
    },
    /// A generator received parameters that admit no graph.
    InvalidParameters {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// A generator exhausted its retry budget (e.g. the pairing model for
    /// random regular graphs kept producing collisions).
    GenerationFailed {
        /// Human-readable description of the failure.
        reason: String,
    },
    /// A vertex was passed as an endpoint of an edge it does not belong
    /// to (e.g. [`Graph::other_endpoint`](crate::Graph::other_endpoint)).
    NotAnEndpoint {
        /// The vertex that is not an endpoint.
        vertex: usize,
        /// The edge in question.
        edge: usize,
    },
    /// A validation failed (improper coloring, broken clique cover, ...).
    ValidationFailed {
        /// Human-readable description of the violated invariant.
        reason: String,
    },
    /// An I/O operation of the out-of-core storage backend failed
    /// (creating, mapping, or reading a CSR shard file).
    Io {
        /// Human-readable description including the failing path.
        reason: String,
    },
    /// A numeric conversion or byte-offset computation overflowed the
    /// target type (e.g. a `u64` entry count that does not fit `usize`
    /// on a 32-bit host, or an offset multiply past `u64::MAX`). See
    /// [`crate::num`] for the checked helpers that produce this.
    Overflow {
        /// What was being converted or computed.
        what: &'static str,
        /// The offending value, widened so it always fits.
        value: u128,
    },
    /// An on-disk artifact (sharded CSR store, build journal, round
    /// checkpoint) failed an integrity check: bad magic, format-version
    /// mismatch, inconsistent lengths, or a checksum mismatch. The store
    /// is **never** served in this state — corruption surfaces as this
    /// error instead of a silently wrong topology or coloring.
    Corrupt {
        /// The file (or directory) that failed the check.
        path: String,
        /// The violated integrity invariant.
        reason: String,
    },
}

impl GraphError {
    /// A [`GraphError::Corrupt`] naming `path`.
    pub fn corrupt(path: &std::path::Path, reason: impl Into<String>) -> GraphError {
        GraphError::Corrupt {
            path: path.display().to_string(),
            reason: reason.into(),
        }
    }
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::VertexOutOfRange { vertex, n } => {
                write!(
                    f,
                    "vertex index {vertex} out of range for graph with {n} vertices"
                )
            }
            GraphError::SelfLoop { vertex } => write!(f, "self-loop at vertex {vertex}"),
            GraphError::ParallelEdge { u, v } => {
                write!(
                    f,
                    "parallel edge between {u} and {v} (builder forbids parallel edges)"
                )
            }
            GraphError::NotAnEndpoint { vertex, edge } => {
                write!(f, "vertex {vertex} is not an endpoint of edge {edge}")
            }
            GraphError::InvalidParameters { reason } => write!(f, "invalid parameters: {reason}"),
            GraphError::GenerationFailed { reason } => write!(f, "generation failed: {reason}"),
            GraphError::ValidationFailed { reason } => write!(f, "validation failed: {reason}"),
            GraphError::Io { reason } => write!(f, "storage I/O failed: {reason}"),
            GraphError::Overflow { what, value } => {
                write!(f, "numeric overflow: {what} (value {value})")
            }
            GraphError::Corrupt { path, reason } => {
                write!(f, "corrupt storage artifact {path}: {reason}")
            }
        }
    }
}

impl Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = GraphError::VertexOutOfRange { vertex: 9, n: 3 };
        assert_eq!(
            e.to_string(),
            "vertex index 9 out of range for graph with 3 vertices"
        );
        let e = GraphError::SelfLoop { vertex: 2 };
        assert!(e.to_string().contains("self-loop"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GraphError>();
    }
}
