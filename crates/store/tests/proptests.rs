//! Property-based tests for the triple store.

#![forbid(unsafe_code)]

use nck_store::dictionary::Term;
use nck_store::ntriples::{read_ntriples, write_ntriples};
use nck_store::TripleStore;
use proptest::prelude::*;
use std::collections::BTreeSet;

fn term_strategy() -> impl Strategy<Value = Term> {
    prop_oneof![
        (0u8..12).prop_map(|i| Term::iri(format!("node{i}"))),
        (0u8..4).prop_map(|i| Term::literal(format!("value {i} \"x\"\n\t\\"))),
    ]
}

fn statements() -> impl Strategy<Value = Vec<(Term, Term, Term)>> {
    prop::collection::vec(
        (
            (0u8..12).prop_map(|i| Term::iri(format!("node{i}"))),
            (0u8..5).prop_map(|i| Term::iri(format!("pred{i}"))),
            term_strategy(),
        ),
        0..50,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn store_len_equals_distinct_statements(stmts in statements()) {
        let mut store = TripleStore::new();
        for (s, p, o) in &stmts {
            store.insert(s, p, o);
        }
        let distinct: BTreeSet<_> = stmts.iter().collect();
        prop_assert_eq!(store.len(), distinct.len());
    }

    #[test]
    fn iteration_is_sorted_and_complete(stmts in statements()) {
        let mut store = TripleStore::new();
        for (s, p, o) in &stmts {
            store.insert(s, p, o);
        }
        let all: Vec<_> = store.iter().collect();
        prop_assert!(all.windows(2).all(|w| w[0] < w[1]), "not in strict SPO order");
        let decoded: BTreeSet<_> = all
            .iter()
            .map(|&t| {
                let st = store.decode(t);
                (st.s.clone(), st.p.clone(), st.o.clone())
            })
            .collect();
        let distinct: BTreeSet<_> = stmts.iter().cloned().collect();
        prop_assert_eq!(decoded, distinct);
    }

    #[test]
    fn ntriples_round_trip(stmts in statements()) {
        let mut store = TripleStore::new();
        for (s, p, o) in &stmts {
            store.insert(s, p, o);
        }
        let mut buf = Vec::new();
        write_ntriples(&store, &mut buf).unwrap();
        let back = read_ntriples(&buf[..]).unwrap();
        prop_assert_eq!(back.len(), store.len());
        for (s, p, o) in &stmts {
            prop_assert!(back.contains(s, p, o), "missing {:?} {:?} {:?}", s, p, o);
        }
    }

    #[test]
    fn graph_view_preserves_edge_count(stmts in statements()) {
        let mut store = TripleStore::new();
        for (s, p, o) in &stmts {
            store.insert(s, p, o);
        }
        let g = nck_store::graph_view::to_knowledge_graph(&store);
        // Logical edges = distinct statements up to lexical collapsing of
        // IRI/literal objects with identical text.
        let distinct_lexical: BTreeSet<(String, String, String)> = stmts
            .iter()
            .map(|(s, p, o)| {
                (
                    s.lexical().to_owned(),
                    p.lexical().to_owned(),
                    o.lexical().to_owned(),
                )
            })
            .collect();
        prop_assert_eq!(g.num_logical_edges(), distinct_lexical.len());
    }
}
