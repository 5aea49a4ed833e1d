//! Runtime format choice: [`ErasedGraph`], a closed enum over the two
//! graph formats.
//!
//! [`GraphAccess`] uses generic associated types for its iterators, so it
//! is not object safe. The service, the engine behind it and the socket
//! server still need one graph type whose format is chosen at runtime.
//! The dataset is served in exactly two formats — the in-memory CSR
//! [`KnowledgeGraph`] and the [`CompactGraph`] image (built in memory or
//! memory-mapped from a `.nckg` file) — so that type is an enum over
//! both. It implements [`GraphAccess`] itself, so the whole generic
//! pipeline — `FindNc`, the selectors, `QueryEngine` — runs unchanged
//! over a format chosen at runtime.
//!
//! Erasure is exact: every method forwards to the underlying format, so
//! results are id-for-id identical to running the concrete type (the
//! workspace's `engine_parity` and `compact_parity` suites assert this).
//! It costs one branch per call; the edge and label iterators are enums
//! over the two formats' own iterators, so nothing is boxed.

use crate::access::GraphAccess;
use crate::compact::{CompactEdges, CompactGraph, CompactLabels};
use crate::csr::{DistinctLabels, EdgeIter};
use crate::graph::KnowledgeGraph;
use crate::ids::{EdgeLabelId, NodeId, NodeTypeId};
use crate::schema::EdgeLabelRegistry;
use crate::taxonomy::Taxonomy;
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// A reference-counted graph in either format, itself a [`GraphAccess`]
/// backend.
///
/// `ErasedGraph` is `Clone` (an `Arc` bump), `Send + Sync`, and exact:
/// the generic pipeline produces bit-identical results through it. Build
/// one with [`ErasedGraph::new`] from an owned graph of either format.
#[derive(Clone)]
pub enum ErasedGraph {
    /// The in-memory CSR graph.
    Csr(Arc<KnowledgeGraph>),
    /// The compact image.
    Compact(Arc<CompactGraph>),
}

/// Runs `$body` with `$g` bound to whichever graph `$erased` holds.
macro_rules! dispatch {
    ($erased:expr, $g:ident => $body:expr) => {
        match $erased {
            ErasedGraph::Csr($g) => $body,
            ErasedGraph::Compact($g) => $body,
        }
    };
}

impl ErasedGraph {
    /// Erases an owned [`KnowledgeGraph`] or [`CompactGraph`].
    pub fn new(graph: impl Into<ErasedGraph>) -> Self {
        graph.into()
    }
}

impl From<KnowledgeGraph> for ErasedGraph {
    fn from(graph: KnowledgeGraph) -> Self {
        ErasedGraph::Csr(Arc::new(graph))
    }
}

impl From<CompactGraph> for ErasedGraph {
    fn from(graph: CompactGraph) -> Self {
        ErasedGraph::Compact(Arc::new(graph))
    }
}

impl fmt::Debug for ErasedGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ErasedGraph")
            .field("num_nodes", &self.num_nodes())
            .field("num_stored_edges", &self.num_stored_edges())
            .finish_non_exhaustive()
    }
}

/// [`ErasedGraph`]'s edge iterator: the underlying format's own.
pub enum ErasedEdges<'a> {
    /// Over a CSR graph.
    Csr(EdgeIter<'a>),
    /// Over a compact image.
    Compact(CompactEdges<'a>),
}

impl Iterator for ErasedEdges<'_> {
    type Item = (EdgeLabelId, NodeId);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        match self {
            ErasedEdges::Csr(it) => it.next(),
            ErasedEdges::Compact(it) => it.next(),
        }
    }
}

/// [`ErasedGraph`]'s distinct-label iterator: the underlying format's own.
pub enum ErasedLabels<'a> {
    /// Over a CSR graph.
    Csr(DistinctLabels<'a>),
    /// Over a compact image.
    Compact(CompactLabels<'a>),
}

impl Iterator for ErasedLabels<'_> {
    type Item = EdgeLabelId;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        match self {
            ErasedLabels::Csr(it) => it.next(),
            ErasedLabels::Compact(it) => it.next(),
        }
    }
}

impl GraphAccess for ErasedGraph {
    type Edges<'a> = ErasedEdges<'a>;
    type Labels<'a> = ErasedLabels<'a>;

    fn num_nodes(&self) -> usize {
        dispatch!(self, g => GraphAccess::num_nodes(&**g))
    }

    fn num_stored_edges(&self) -> usize {
        dispatch!(self, g => GraphAccess::num_stored_edges(&**g))
    }

    fn node_name(&self, node: NodeId) -> &str {
        dispatch!(self, g => GraphAccess::node_name(&**g, node))
    }

    fn node_by_name(&self, name: &str) -> Option<NodeId> {
        dispatch!(self, g => GraphAccess::node_by_name(&**g, name))
    }

    fn node_type(&self, node: NodeId) -> Option<NodeTypeId> {
        dispatch!(self, g => GraphAccess::node_type(&**g, node))
    }

    fn taxonomy(&self) -> &Taxonomy {
        dispatch!(self, g => GraphAccess::taxonomy(&**g))
    }

    fn degree(&self, node: NodeId) -> usize {
        dispatch!(self, g => GraphAccess::degree(&**g, node))
    }

    fn edges(&self, node: NodeId) -> ErasedEdges<'_> {
        match self {
            ErasedGraph::Csr(g) => ErasedEdges::Csr(GraphAccess::edges(&**g, node)),
            ErasedGraph::Compact(g) => ErasedEdges::Compact(GraphAccess::edges(&**g, node)),
        }
    }

    fn edge_at(&self, node: NodeId, i: usize) -> (EdgeLabelId, NodeId) {
        dispatch!(self, g => GraphAccess::edge_at(&**g, node, i))
    }

    fn neighbors_with_label(&self, node: NodeId, label: EdgeLabelId) -> Cow<'_, [NodeId]> {
        dispatch!(self, g => GraphAccess::neighbors_with_label(&**g, node, label))
    }

    fn labels_of(&self, node: NodeId) -> ErasedLabels<'_> {
        match self {
            ErasedGraph::Csr(g) => ErasedLabels::Csr(GraphAccess::labels_of(&**g, node)),
            ErasedGraph::Compact(g) => ErasedLabels::Compact(GraphAccess::labels_of(&**g, node)),
        }
    }

    fn labels(&self) -> &EdgeLabelRegistry {
        dispatch!(self, g => GraphAccess::labels(&**g))
    }

    fn label_count(&self, label: EdgeLabelId) -> u64 {
        dispatch!(self, g => GraphAccess::label_count(&**g, label))
    }

    fn approx_bytes(&self) -> usize {
        dispatch!(self, g => GraphAccess::approx_bytes(&**g))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn sample() -> KnowledgeGraph {
        let mut b = GraphBuilder::new();
        b.add_triple("a", "knows", "b");
        b.add_triple("a", "likes", "c");
        b.add_triple("b", "knows", "c");
        b.typed_node("a", "person");
        b.build()
    }

    #[test]
    fn erased_graph_matches_concrete_backend() {
        let g = sample();
        for erased in [
            ErasedGraph::new(g.clone()),
            ErasedGraph::new(CompactGraph::from_graph(&g)),
        ] {
            assert_eq!(GraphAccess::num_nodes(&g), GraphAccess::num_nodes(&erased));
            assert_eq!(
                GraphAccess::num_stored_edges(&g),
                GraphAccess::num_stored_edges(&erased)
            );
            for v in GraphAccess::nodes(&g) {
                assert_eq!(GraphAccess::degree(&g, v), GraphAccess::degree(&erased, v));
                assert_eq!(
                    GraphAccess::node_name(&g, v),
                    GraphAccess::node_name(&erased, v)
                );
                let concrete: Vec<_> = GraphAccess::edges(&g, v).collect();
                let via_enum: Vec<_> = GraphAccess::edges(&erased, v).collect();
                assert_eq!(concrete, via_enum);
                let lc: Vec<_> = GraphAccess::labels_of(&g, v).collect();
                let le: Vec<_> = GraphAccess::labels_of(&erased, v).collect();
                assert_eq!(lc, le);
                for i in 0..GraphAccess::degree(&g, v) {
                    assert_eq!(
                        GraphAccess::edge_at(&g, v, i),
                        GraphAccess::edge_at(&erased, v, i)
                    );
                }
            }
            let knows = GraphAccess::labels(&erased).get("knows").unwrap();
            let a = GraphAccess::require_node(&erased, "a").unwrap();
            assert_eq!(
                GraphAccess::neighbors_with_label(&g, a, knows),
                GraphAccess::neighbors_with_label(&erased, a, knows)
            );
            assert_eq!(
                GraphAccess::label_count(&g, knows),
                GraphAccess::label_count(&erased, knows)
            );
        }
    }

    #[test]
    fn erased_graph_is_cheaply_cloneable_and_shareable() {
        let n = sample().num_nodes();
        let erased = ErasedGraph::new(sample());
        let clone = erased.clone();
        std::thread::scope(|s| {
            s.spawn(|| {
                assert_eq!(GraphAccess::num_nodes(&clone), n);
            });
        });
        assert_eq!(GraphAccess::num_nodes(&erased), n);
    }

    /// Generic code runs over `ErasedGraph` unchanged — the whole point.
    fn total_degree<G: GraphAccess>(g: &G) -> usize {
        g.nodes().map(|v| g.degree(v)).sum()
    }

    #[test]
    fn generic_functions_accept_erased_graphs() {
        let erased = ErasedGraph::new(sample());
        assert_eq!(
            total_degree(&erased),
            GraphAccess::num_stored_edges(&erased)
        );
    }
}
