//! Dictionary-encoded triples.

use crate::dictionary::TermId;
use serde::{Deserialize, Serialize};

/// A dictionary-encoded `(subject, predicate, object)` statement. The
/// derived order is lexicographic by subject, predicate, object — the SPO
/// order [`crate::TripleStore`] iterates in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Triple {
    /// Subject term.
    pub s: TermId,
    /// Predicate term.
    pub p: TermId,
    /// Object term.
    pub o: TermId,
}

impl Triple {
    /// Constructs a triple.
    pub const fn new(s: TermId, p: TermId, o: TermId) -> Self {
        Self { s, p, o }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u32, p: u32, o: u32) -> Triple {
        Triple::new(TermId(s), TermId(p), TermId(o))
    }

    #[test]
    fn triples_order_lexicographically() {
        assert!(t(0, 5, 5) < t(1, 0, 0));
        assert!(t(1, 0, 5) < t(1, 1, 0));
    }
}
