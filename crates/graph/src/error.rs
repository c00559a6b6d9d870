//! Error types for graph construction and manipulation.

use std::fmt;

/// Errors produced while building, permuting, or parsing graphs.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GraphError {
    /// An edge referenced a vertex id at or beyond the declared vertex count.
    VertexOutOfBounds {
        /// The offending vertex id.
        vertex: u32,
        /// The number of vertices in the graph.
        num_vertices: u32,
    },
    /// A permutation was not a bijection over `[0, n)`.
    InvalidPermutation {
        /// Human-readable description of what failed.
        reason: PermutationDefect,
    },
    /// A permutation's length did not match the graph it was applied to.
    PermutationLengthMismatch {
        /// Length of the permutation.
        permutation_len: usize,
        /// Number of vertices in the graph.
        num_vertices: usize,
    },
    /// A weighted operation was attempted with a non-finite or negative weight.
    InvalidWeight {
        /// The offending weight value as a bit-exact debug string.
        weight: f64,
    },
    /// A text line could not be parsed as graph input.
    Parse {
        /// 1-based line number where parsing failed.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// The vertex count asks for more memory than can be allocated.
    TooLarge {
        /// The requested number of vertices.
        num_vertices: usize,
    },
    /// A cluster assignment referenced a cluster id at or beyond the declared count.
    ClusterOutOfBounds {
        /// The offending cluster id.
        cluster: u32,
        /// The declared number of clusters.
        num_clusters: u32,
    },
    /// A cluster assignment's length did not match the graph.
    AssignmentLengthMismatch {
        /// Length of the assignment vector.
        assignment_len: usize,
        /// Number of vertices in the graph.
        num_vertices: usize,
    },
}

/// The specific way a candidate permutation failed validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum PermutationDefect {
    /// Some rank appears more than once (therefore another is missing).
    DuplicateRank {
        /// A rank that appears at least twice.
        rank: u32,
    },
    /// A rank is `>= n`.
    RankOutOfRange {
        /// The out-of-range rank.
        rank: u32,
        /// The permutation length.
        len: u32,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::VertexOutOfBounds { vertex, num_vertices } => {
                write!(f, "vertex id {vertex} out of bounds for graph with {num_vertices} vertices")
            }
            GraphError::InvalidPermutation { reason } => match reason {
                PermutationDefect::DuplicateRank { rank } => {
                    write!(f, "invalid permutation: rank {rank} appears more than once")
                }
                PermutationDefect::RankOutOfRange { rank, len } => {
                    write!(f, "invalid permutation: rank {rank} out of range for length {len}")
                }
            },
            GraphError::PermutationLengthMismatch { permutation_len, num_vertices } => {
                write!(
                    f,
                    "permutation length {permutation_len} does not match vertex count {num_vertices}"
                )
            }
            GraphError::InvalidWeight { weight } => {
                write!(f, "edge weight {weight} is not a finite non-negative number")
            }
            GraphError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            GraphError::TooLarge { num_vertices } => {
                write!(f, "cannot allocate a graph of {num_vertices} vertices")
            }
            GraphError::ClusterOutOfBounds { cluster, num_clusters } => {
                write!(f, "cluster id {cluster} out of bounds for {num_clusters} clusters")
            }
            GraphError::AssignmentLengthMismatch { assignment_len, num_vertices } => {
                write!(
                    f,
                    "assignment length {assignment_len} does not match vertex count {num_vertices}"
                )
            }
        }
    }
}

impl std::error::Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_vertex_out_of_bounds() {
        let e = GraphError::VertexOutOfBounds { vertex: 7, num_vertices: 5 };
        assert_eq!(e.to_string(), "vertex id 7 out of bounds for graph with 5 vertices");
    }

    #[test]
    fn display_duplicate_rank() {
        let e =
            GraphError::InvalidPermutation { reason: PermutationDefect::DuplicateRank { rank: 3 } };
        assert!(e.to_string().contains("rank 3"));
    }

    #[test]
    fn display_rank_out_of_range() {
        let e = GraphError::InvalidPermutation {
            reason: PermutationDefect::RankOutOfRange { rank: 9, len: 4 },
        };
        assert!(e.to_string().contains("out of range"));
    }

    #[test]
    fn display_parse_error() {
        let e = GraphError::Parse { line: 12, message: "bad token".into() };
        assert_eq!(e.to_string(), "parse error at line 12: bad token");
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(GraphError::InvalidWeight { weight: -1.0 });
        assert!(e.to_string().contains("-1"));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GraphError>();
    }
}
