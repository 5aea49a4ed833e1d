//! The [`TripleStore`] loader.
//!
//! Holds the term dictionary and one deduplicated set of statements in
//! SPO order: callers insert `(subject, predicate, object)` statements as
//! [`Term`]s, and [`iter`](TripleStore::iter) yields them back as
//! dictionary ids sorted by subject, then predicate, then object.
//! [`crate::graph_view::to_knowledge_graph`] assigns node ids in that
//! order, so the order is part of every N-Triples-loaded answer.

use crate::dictionary::{Term, TermDictionary};
use crate::triple::Triple;
use std::collections::BTreeSet;

/// An in-memory, dictionary-encoded set of statements, iterated in SPO
/// order.
#[derive(Debug, Clone, Default)]
pub struct TripleStore {
    dict: TermDictionary,
    spo: BTreeSet<Triple>,
}

/// A decoded statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Statement<'a> {
    /// Subject term.
    pub s: &'a Term,
    /// Predicate term.
    pub p: &'a Term,
    /// Object term.
    pub o: &'a Term,
}

impl TripleStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored triples.
    pub fn len(&self) -> usize {
        self.spo.len()
    }

    /// True when the store holds no triples.
    pub fn is_empty(&self) -> bool {
        self.spo.is_empty()
    }

    /// Number of distinct terms in the dictionary.
    pub fn num_terms(&self) -> usize {
        self.dict.len()
    }

    /// Inserts a statement; returns `true` when it was new.
    pub fn insert(&mut self, s: &Term, p: &Term, o: &Term) -> bool {
        let t = Triple::new(
            self.dict.intern(s),
            self.dict.intern(p),
            self.dict.intern(o),
        );
        self.spo.insert(t)
    }

    /// Inserts a statement of three IRIs (the common bulk-load shape).
    pub fn insert_iris(&mut self, s: &str, p: &str, o: &str) -> bool {
        self.insert(&Term::iri(s), &Term::iri(p), &Term::iri(o))
    }

    /// Membership test.
    pub fn contains(&self, s: &Term, p: &Term, o: &Term) -> bool {
        match (self.dict.get(s), self.dict.get(p), self.dict.get(o)) {
            (Some(s), Some(p), Some(o)) => self.spo.contains(&Triple::new(s, p, o)),
            _ => false,
        }
    }

    /// Iterates every triple in SPO order.
    pub fn iter(&self) -> impl Iterator<Item = Triple> + '_ {
        self.spo.iter().copied()
    }

    /// Decodes an id triple into terms.
    ///
    /// # Panics
    ///
    /// Panics if the triple's ids did not come from this store.
    pub fn decode(&self, t: Triple) -> Statement<'_> {
        Statement {
            s: self.dict.resolve(t.s).expect("foreign subject id"),
            p: self.dict.resolve(t.p).expect("foreign predicate id"),
            o: self.dict.resolve(t.o).expect("foreign object id"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn politicians() -> TripleStore {
        let mut s = TripleStore::new();
        s.insert_iris("Merkel", "studied", "Physics");
        s.insert_iris("Putin", "studied", "Law");
        s.insert_iris("Hollande", "hasChild", "Thomas");
        s.insert_iris("Hollande", "hasChild", "Flora");
        s.insert(
            &Term::iri("Merkel"),
            &Term::iri("birthDate"),
            &Term::literal("1954-07-17"),
        );
        s
    }

    #[test]
    fn insert_deduplicates_and_contains_finds() {
        let mut s = politicians();
        assert_eq!(s.len(), 5);
        assert!(!s.insert_iris("Merkel", "studied", "Physics"));
        assert_eq!(s.len(), 5);
        assert!(s.contains(
            &Term::iri("Merkel"),
            &Term::iri("studied"),
            &Term::iri("Physics")
        ));
        // A statement over an unknown term is absent.
        assert!(!s.contains(
            &Term::iri("Nobody"),
            &Term::iri("studied"),
            &Term::iri("Physics")
        ));
    }

    #[test]
    fn literals_are_distinct_from_iris() {
        let s = politicians();
        let (merkel, born) = (Term::iri("Merkel"), Term::iri("birthDate"));
        assert!(!s.contains(&merkel, &born, &Term::iri("1954-07-17")));
        assert!(s.contains(&merkel, &born, &Term::literal("1954-07-17")));
    }

    #[test]
    fn iteration_is_in_spo_order_not_insertion_order() {
        let s = politicians();
        let all: Vec<Triple> = s.iter().collect();
        assert_eq!(all.len(), s.len());
        assert!(all.windows(2).all(|w| w[0] < w[1]));
        // Merkel's birth date was inserted last, but Merkel's subject id
        // is the smallest, so both of Merkel's statements come first.
        let subjects: Vec<&str> = all.iter().map(|&t| s.decode(t).s.lexical()).collect();
        assert_eq!(
            subjects,
            ["Merkel", "Merkel", "Putin", "Hollande", "Hollande"]
        );
    }
}
