//! Error type for graph construction, lookup and I/O.

use std::fmt;

/// Errors surfaced by the knowledge-graph substrate.
#[derive(Debug)]
pub enum GraphError {
    /// A node name was not found in the dictionary.
    UnknownNode(String),
    /// A node id was out of range for this graph.
    InvalidNodeId(u32),
    /// An edge label name was not found in the registry.
    UnknownEdgeLabel(String),
    /// A node type name was not found in the taxonomy.
    UnknownNodeType(String),
    /// A cycle was detected where a DAG is required (taxonomy).
    TaxonomyCycle(String),
    /// A compact binary graph file was malformed, corrupt or unsupported
    /// (bad magic, wrong version, truncation, checksum mismatch,
    /// inconsistent tables).
    Format(String),
    /// An underlying I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownNode(name) => write!(f, "unknown node: {name:?}"),
            GraphError::InvalidNodeId(id) => write!(f, "node id {id} out of range"),
            GraphError::UnknownEdgeLabel(name) => write!(f, "unknown edge label: {name:?}"),
            GraphError::UnknownNodeType(name) => write!(f, "unknown node type: {name:?}"),
            GraphError::TaxonomyCycle(name) => {
                write!(f, "taxonomy cycle involving type {name:?}")
            }
            GraphError::Format(message) => {
                write!(f, "invalid compact graph file: {message}")
            }
            GraphError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(GraphError::UnknownNode("X".into())
            .to_string()
            .contains("X"));
        assert!(GraphError::Format("bad magic".into())
            .to_string()
            .contains("bad magic"));
        let io = GraphError::from(std::io::Error::other("boom"));
        assert!(io.to_string().contains("boom"));
    }

    #[test]
    fn io_source_is_preserved() {
        use std::error::Error;
        let io = GraphError::from(std::io::Error::other("boom"));
        assert!(io.source().is_some());
        assert!(GraphError::InvalidNodeId(1).source().is_none());
    }
}
