//! Adapter: triple store → [`nck_graph::KnowledgeGraph`].
//!
//! The paper's pipeline keeps the dataset in a triple store and traverses
//! it as a labeled graph. This module is that hand-off: IRIs become nodes,
//! predicates become edge labels (with automatic inverses per Def. 1),
//! literals become attribute-value nodes, and the reserved predicates
//! `rdf:type` / `rdfs:subClassOf` populate node types and the taxonomy.
//! Statements are read in the store's SPO order, which fixes the node
//! and label ids the graph (and the compact image encoded from it)
//! answers with.

use crate::dictionary::Term;
use crate::store::TripleStore;
use nck_graph::{GraphBuilder, KnowledgeGraph};

/// Reserved predicate mapping a subject to its node type.
pub const TYPE_PREDICATE: &str = "rdf:type";
/// Reserved predicate declaring a subtype axiom.
pub const SUBTYPE_PREDICATE: &str = "rdfs:subClassOf";

/// Materializes a [`KnowledgeGraph`] from every statement in the store.
///
/// - `(s, rdf:type, o)` sets node `s`'s type to `o`;
/// - `(s, rdfs:subClassOf, o)` adds the taxonomy axiom `s ⊑ o`;
/// - any other `(s, p, o)` becomes a logical edge, with a literal `o`
///   interned under its lexical form.
pub fn to_knowledge_graph(store: &TripleStore) -> KnowledgeGraph {
    let mut builder = GraphBuilder::with_capacity(store.num_terms(), store.len());
    for t in store.iter() {
        let st = store.decode(t);
        match st.p {
            Term::Iri(p) if p == TYPE_PREDICATE => {
                let node = builder.node(st.s.lexical());
                builder.set_type(node, st.o.lexical());
            }
            Term::Iri(p) if p == SUBTYPE_PREDICATE => {
                builder.subtype(st.s.lexical(), st.o.lexical());
            }
            _ => {
                builder.add_triple(st.s.lexical(), st.p.lexical(), st.o.lexical());
            }
        }
    }
    builder.build()
}

/// The reverse hand-off: exports a built [`KnowledgeGraph`] into a fresh
/// triple store (the inverse of [`to_knowledge_graph`]).
///
/// Only forward (logical) edges are written — the Def.-1 inverse mirrors
/// are reconstructed when [`to_knowledge_graph`] reads the store back.
/// Node types become `rdf:type` statements and taxonomy axioms become
/// `rdfs:subClassOf` statements.
///
/// Re-importing with [`to_knowledge_graph`] reproduces the same graph
/// **up to node-id assignment**: the importer hands out ids in
/// store-scan order, which can differ from the source graph's
/// first-mention order when a node's edges interleave labels (the CSR
/// iterates them label-sorted). Compare round trips by *name*, never by
/// source-graph `NodeId` — in particular, resolve datagen query seeds
/// by name after persisting with `nck gen`. (Loading the *same* store
/// always assigns the same ids, and the compact image encoded from the
/// loaded graph keeps them.)
///
/// One class of nodes does not survive: an **isolated, untyped node**
/// (no edges in either direction, no `rdf:type`) appears in no
/// statement — triples cannot express a bare node — so it is absent
/// from the export and from any re-import.
/// Used by the `nck gen` CLI to persist datagen graphs as N-Triples and
/// by the format-parity tests.
pub fn to_triple_store(graph: &KnowledgeGraph) -> TripleStore {
    let mut store = TripleStore::new();
    for v in graph.nodes() {
        for (l, t) in graph.edges(v) {
            if !graph.labels().is_inverse(l) {
                store.insert_iris(
                    graph.node_name(v),
                    graph.labels().name(l),
                    graph.node_name(t),
                );
            }
        }
        if let Some(ty) = graph.node_type(v) {
            store.insert_iris(
                graph.node_name(v),
                TYPE_PREDICATE,
                graph.taxonomy().name(ty),
            );
        }
    }
    let tax = graph.taxonomy();
    for i in 0..tax.len() {
        let ty = nck_graph::NodeTypeId::from_index(i);
        for &sup in tax.parents(ty) {
            store.insert_iris(tax.name(ty), SUBTYPE_PREDICATE, tax.name(sup));
        }
    }
    store
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dictionary::Term;

    fn sample_store() -> TripleStore {
        let mut s = TripleStore::new();
        s.insert_iris("Merkel", "rdf:type", "politician");
        s.insert_iris("Obama", "rdf:type", "politician");
        s.insert_iris("politician", "rdfs:subClassOf", "person");
        s.insert_iris("Merkel", "studied", "Physics");
        s.insert_iris("Obama", "hasChild", "Malia");
        s.insert(
            &Term::iri("Merkel"),
            &Term::iri("birthDate"),
            &Term::literal("1954-07-17"),
        );
        s
    }

    #[test]
    fn statements_become_edges() {
        let g = to_knowledge_graph(&sample_store());
        let merkel = g.require_node("Merkel").unwrap();
        let studied = g.labels().get("studied").unwrap();
        let targets = g.neighbors_with_label(merkel, studied);
        assert_eq!(targets.len(), 1);
        assert_eq!(g.node_name(targets[0]), "Physics");
        // 4 logical edges: studied, hasChild, birthDate — plus nothing for
        // the reserved predicates.
        assert_eq!(g.num_logical_edges(), 3);
    }

    #[test]
    fn types_and_taxonomy_populated() {
        let g = to_knowledge_graph(&sample_store());
        let merkel = g.require_node("Merkel").unwrap();
        let ty = g.node_type(merkel).unwrap();
        assert_eq!(g.taxonomy().name(ty), "politician");
        let person = g.taxonomy().get("person").unwrap();
        assert!(g.taxonomy().is_subtype(ty, person));
    }

    #[test]
    fn literals_become_value_nodes() {
        let g = to_knowledge_graph(&sample_store());
        let date = g.require_node("1954-07-17").unwrap();
        let birth = g.labels().get("birthDate").unwrap();
        let inv = g.labels().inverse(birth);
        let owners = g.neighbors_with_label(date, inv);
        assert_eq!(owners.len(), 1);
        assert_eq!(g.node_name(owners[0]), "Merkel");
    }

    #[test]
    fn reserved_predicates_do_not_become_labels() {
        let g = to_knowledge_graph(&sample_store());
        assert!(g.labels().get(TYPE_PREDICATE).is_none());
        assert!(g.labels().get(SUBTYPE_PREDICATE).is_none());
    }

    #[test]
    fn empty_store_builds_empty_graph() {
        let g = to_knowledge_graph(&TripleStore::new());
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_logical_edges(), 0);
    }

    #[test]
    fn export_round_trips_by_name() {
        let g = to_knowledge_graph(&sample_store());
        assert_round_trips_by_name(&g);
    }

    #[test]
    fn export_round_trips_when_labels_interleave() {
        // Regression: node `a`'s edges arrive p, q, p — the CSR stores
        // them label-sorted (p,x),(p,z),(q,y), so the re-import assigns
        // node ids in a different order than the source graph. The round
        // trip must still be exact at the name level.
        let mut b = nck_graph::GraphBuilder::new();
        b.add_triple("a", "p", "x");
        b.add_triple("a", "q", "y");
        b.add_triple("a", "p", "z");
        assert_round_trips_by_name(&b.build());
    }

    /// Name-level round-trip equality: same node set, and per node the
    /// same `(label name, target name)` edge multiset and type. Node ids
    /// are *not* compared — the importer may assign them differently
    /// (see [`to_triple_store`]'s docs).
    fn assert_round_trips_by_name(g: &KnowledgeGraph) {
        let back = to_knowledge_graph(&to_triple_store(g));
        assert_eq!(back.num_nodes(), g.num_nodes());
        assert_eq!(back.num_logical_edges(), g.num_logical_edges());
        assert_eq!(back.labels().len(), g.labels().len());
        let named_edges = |g: &KnowledgeGraph, v| {
            let mut out: Vec<(String, String)> = g
                .edges(v)
                .map(|(l, t)| (g.labels().name(l).to_owned(), g.node_name(t).to_owned()))
                .collect();
            out.sort();
            out
        };
        for v in g.nodes() {
            let name = g.node_name(v);
            let bv = back.require_node(name).expect("node survives round trip");
            assert_eq!(named_edges(g, v), named_edges(&back, bv), "edges of {name}");
            assert_eq!(
                g.node_type(v).map(|t| g.taxonomy().name(t)),
                back.node_type(bv).map(|t| back.taxonomy().name(t)),
                "type of {name}"
            );
        }
    }
}
