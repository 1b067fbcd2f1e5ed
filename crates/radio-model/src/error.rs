//! Error type for simulator construction and stepping.

use std::error::Error;
use std::fmt;

/// Errors from constructing or driving the simulator.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum ModelError {
    /// A fault probability outside `[0, 1)`.
    InvalidFaultProbability {
        /// The offending probability.
        p: f64,
    },
    /// The number of supplied per-node values does not match the
    /// graph's node count.
    NodeCountMismatch {
        /// Values supplied.
        supplied: usize,
        /// Nodes in the graph.
        expected: usize,
    },
    /// An adversary was asked to corrupt more nodes than the pool of
    /// corruptible (non-spared) nodes holds.
    TooManyFaulty {
        /// Nodes requested to be corrupted.
        faulty: usize,
        /// Corruptible nodes available.
        pool: usize,
    },
    /// A routing controller scheduled a send from a node the graph
    /// does not have.
    SendOutOfRange {
        /// The named node's index.
        node: usize,
        /// Nodes in the graph.
        nodes: usize,
    },
    /// Two channels whose delivery-side presentations differ
    /// (`receiver` noise vs `erasure` detection) cannot be composed.
    IncompatibleChannels {
        /// Rendered left channel.
        left: String,
        /// Rendered right channel.
        right: String,
    },
    /// A channel spec string that does not parse.
    InvalidChannelSpec {
        /// The offending spec (or term of a composed spec).
        spec: String,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::InvalidFaultProbability { p } => {
                write!(f, "fault probability {p} outside [0, 1)")
            }
            ModelError::NodeCountMismatch { supplied, expected } => {
                write!(
                    f,
                    "supplied {supplied} per-node values for a graph of {expected} nodes"
                )
            }
            ModelError::TooManyFaulty { faulty, pool } => {
                write!(
                    f,
                    "cannot corrupt f = {faulty} nodes: only {pool} nodes are corruptible"
                )
            }
            ModelError::SendOutOfRange { node, nodes } => {
                write!(
                    f,
                    "controller scheduled a send from node {node} in a graph of {nodes} nodes"
                )
            }
            ModelError::IncompatibleChannels { left, right } => {
                write!(
                    f,
                    "cannot compose {left} with {right}: their delivery presentations differ"
                )
            }
            ModelError::InvalidChannelSpec { spec } => {
                write!(
                    f,
                    "invalid channel spec {spec:?} (expected faultless, sender:P, \
                     receiver:P, erasure:P, or a `+`-joined composition)"
                )
            }
        }
    }
}

impl Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            ModelError::InvalidFaultProbability { p: 1.0 }.to_string(),
            "fault probability 1 outside [0, 1)"
        );
        assert_eq!(
            ModelError::NodeCountMismatch {
                supplied: 2,
                expected: 3
            }
            .to_string(),
            "supplied 2 per-node values for a graph of 3 nodes"
        );
        assert_eq!(
            ModelError::TooManyFaulty { faulty: 4, pool: 3 }.to_string(),
            "cannot corrupt f = 4 nodes: only 3 nodes are corruptible"
        );
        assert_eq!(
            ModelError::SendOutOfRange { node: 5, nodes: 4 }.to_string(),
            "controller scheduled a send from node 5 in a graph of 4 nodes"
        );
        assert_eq!(
            ModelError::IncompatibleChannels {
                left: "receiver(p=0.1)".into(),
                right: "erasure(p=0.2)".into()
            }
            .to_string(),
            "cannot compose receiver(p=0.1) with erasure(p=0.2): \
             their delivery presentations differ"
        );
        assert!(ModelError::InvalidChannelSpec {
            spec: "bogus".into()
        }
        .to_string()
        .contains("bogus"));
    }

    #[test]
    fn is_send_sync_error() {
        fn assert_traits<T: Error + Send + Sync>() {}
        assert_traits::<ModelError>();
    }
}
