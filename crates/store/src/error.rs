//! Error type for the triple store.

use std::fmt;

/// Errors surfaced by the triple-store substrate.
#[derive(Debug)]
pub enum StoreError {
    /// A line of an N-Triples file could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// An underlying I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Parse { line, message } => {
                write!(f, "N-Triples parse error at line {line}: {message}")
            }
            StoreError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = StoreError::Parse {
            line: 9,
            message: "missing dot".into(),
        };
        assert!(e.to_string().contains("line 9"));
    }
}
