//! Property-based tests for the graph substrate.

#![forbid(unsafe_code)]

use nck_graph::builder::GraphBuilder;
use nck_graph::stats::GraphStatistics;
use nck_graph::varint::{encode_run, RunDecoder};
use nck_graph::{CompactGraph, GraphAccess};
use proptest::prelude::*;
use std::collections::HashSet;

/// Strategy: an arbitrary sorted `(label, target)` adjacency run over the
/// full `u32` range (duplicates allowed), the exact input contract of
/// [`encode_run`].
fn sorted_run() -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0u32..=u32::MAX, 0u32..=u32::MAX), 0..80).prop_map(|mut v| {
        v.sort_unstable();
        v
    })
}

/// Strategy: a list of (subject, predicate, object) index triples over
/// small universes, to be materialized through the builder.
fn triples() -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
    prop::collection::vec((0u8..20, 0u8..6, 0u8..20), 1..60)
}

fn node_name(i: u8) -> String {
    format!("node{i}")
}
fn pred_name(i: u8) -> String {
    format!("pred{i}")
}

fn build(triples: &[(u8, u8, u8)]) -> nck_graph::KnowledgeGraph {
    let mut b = GraphBuilder::new();
    for &(s, p, o) in triples {
        b.add_triple(&node_name(s), &pred_name(p), &node_name(o));
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn stored_edges_are_twice_unique_logical(ts in triples()) {
        let unique: HashSet<_> = ts.iter().cloned().collect();
        let g = build(&ts);
        prop_assert_eq!(g.num_logical_edges(), unique.len());
        prop_assert_eq!(g.num_stored_edges(), 2 * unique.len());
    }

    #[test]
    fn every_edge_has_inverse(ts in triples()) {
        let g = build(&ts);
        for v in g.nodes() {
            for (l, t) in g.edges(v) {
                let inv = g.labels().inverse(l);
                prop_assert!(
                    g.neighbors_with_label(t, inv).contains(&v),
                    "edge {}-{}->{} missing inverse",
                    g.node_name(v), g.label_name(l), g.node_name(t)
                );
            }
        }
    }

    #[test]
    fn degree_equals_edge_iteration(ts in triples()) {
        let g = build(&ts);
        for v in g.nodes() {
            prop_assert_eq!(g.degree(v), g.edges(v).count());
            let by_label: usize = g
                .labels()
                .iter()
                .map(|l| g.degree_with_label(v, l))
                .sum();
            prop_assert_eq!(g.degree(v), by_label);
        }
    }

    #[test]
    fn neighbors_with_label_matches_filtered_edges(ts in triples()) {
        let g = build(&ts);
        for v in g.nodes() {
            for l in g.labels().iter() {
                let via_slice: Vec<_> = g.neighbors_with_label(v, l).to_vec();
                let via_filter: Vec<_> = g
                    .edges(v)
                    .filter(|&(el, _)| el == l)
                    .map(|(_, t)| t)
                    .collect();
                prop_assert_eq!(via_slice, via_filter);
            }
        }
    }

    #[test]
    fn label_frequencies_sum_to_one(ts in triples()) {
        let g = build(&ts);
        let sum: f64 = g.labels().iter().map(|l| g.label_frequency(l)).sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn statistics_are_internally_consistent(ts in triples()) {
        let g = build(&ts);
        let s = GraphStatistics::compute(&g);
        prop_assert_eq!(s.num_nodes, g.num_nodes());
        let label_total: u64 = s.label_frequencies.iter().map(|l| l.count).sum();
        prop_assert_eq!(label_total as usize, g.num_stored_edges());
        let deg_total: u64 = s.degree_histogram.iter().sum();
        prop_assert_eq!(deg_total as usize, g.num_nodes());
        prop_assert!((0.0..=1.0).contains(&s.label_gini()));
    }

    #[test]
    fn varint_run_round_trips(run in sorted_run()) {
        let mut buf = Vec::new();
        encode_run(&mut buf, &run);
        let mut dec = RunDecoder::new(&buf);
        let decoded: Vec<(u32, u32)> = dec.by_ref().collect();
        prop_assert_eq!(&decoded, &run);
        prop_assert!(dec.is_exhausted(), "clean decode must consume everything");
        // The label view agrees with the full decode.
        let mut distinct: Vec<u32> = run.iter().map(|&(l, _)| l).collect();
        distinct.dedup();
        let labels: Vec<u32> = RunDecoder::new(&buf).labels().collect();
        prop_assert_eq!(labels, distinct);
    }

    #[test]
    fn compact_graph_matches_csr_id_for_id(ts in triples()) {
        let g = build(&ts);
        let c = CompactGraph::from_graph(&g);
        prop_assert_eq!(GraphAccess::num_nodes(&c), g.num_nodes());
        prop_assert_eq!(GraphAccess::num_stored_edges(&c), g.num_stored_edges());
        for v in g.nodes() {
            prop_assert_eq!(c.node_name(v), g.node_name(v));
            prop_assert_eq!(c.node_by_name(g.node_name(v)), Some(v));
            prop_assert_eq!(GraphAccess::degree(&c, v), g.degree(v));
            let ce: Vec<_> = GraphAccess::edges(&c, v).collect();
            let ge: Vec<_> = g.edges(v).collect();
            prop_assert_eq!(ce, ge);
            let cl: Vec<_> = GraphAccess::labels_of(&c, v).collect();
            let gl: Vec<_> = g.labels_of(v).collect();
            prop_assert_eq!(cl, gl);
            for l in g.labels().iter() {
                prop_assert_eq!(
                    GraphAccess::neighbors_with_label(&c, v, l).to_vec(),
                    g.neighbors_with_label(v, l).to_vec()
                );
            }
        }
    }

    #[test]
    fn labels_of_is_sorted_distinct(ts in triples()) {
        let g = build(&ts);
        for v in g.nodes() {
            let ls: Vec<_> = g.labels_of(v).collect();
            let mut sorted = ls.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(ls, sorted);
        }
    }
}
