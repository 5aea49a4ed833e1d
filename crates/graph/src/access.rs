//! The backend-generic graph surface consumed by the algorithm crates.
//!
//! The paper runs its algorithms against an Apache Jena triple store
//! ("quick traversals on the graph without loading it into main memory"),
//! while the reference substrate here is an in-memory CSR. [`GraphAccess`]
//! captures exactly the read surface the search pipeline uses —
//! node/edge iteration, per-label neighbor runs, label and degree
//! statistics, names, types and the taxonomy — so every algorithm in
//! `nck-core` is generic over the graph format. The CSR
//! [`KnowledgeGraph`] is the reference implementation;
//! [`CompactGraph`](crate::CompactGraph) answers the same surface from a
//! delta-encoded image that can stay on disk, memory-mapped — this
//! repository's counterpart of the paper's not-in-memory store.
//!
//! # Contract
//!
//! Implementations must uphold the invariants the algorithms rely on:
//!
//! - **Def. 1 closure.** The stored edge set is closed under inversion:
//!   for every stored edge `(u, l, v)` there is a stored edge
//!   `(v, l⁻¹, u)`, where `l⁻¹ = labels().inverse(l)` (symmetric labels
//!   are their own inverse and appear once per direction). [`edges`],
//!   [`degree`], [`label_count`] and [`num_stored_edges`] all range over
//!   this closed set — e.g. Eq. 1's label frequency
//!   `|E_l| / |E|` counts both directions.
//! - **Sorted per-label runs.** [`edges`] yields a node's out-edges
//!   grouped by label in ascending label order, targets ascending within
//!   a label; [`neighbors_with_label`] returns exactly the sub-run of one
//!   label (ascending targets, no duplicates); [`edge_at`] indexes into
//!   the same ordering (the O(1)-per-step access path random walks use);
//!   [`labels_of`] yields the distinct labels of that ordering,
//!   ascending.
//! - **Stable dense ids.** Node ids are dense in `0..num_nodes()` and
//!   never change; label ids index the shared
//!   [`EdgeLabelRegistry`].
//! - **Consistent statistics.** `label_count(l)` equals the number of
//!   stored edges labeled `l`, and `Σ_l label_count(l) ==
//!   num_stored_edges()`.
//!
//! Methods take `&self`; implementations must be safe for concurrent
//! reads (the pipeline fans PageRank and PathMining out across threads,
//! so backends are used with a `Sync` bound there).
//!
//! [`edges`]: GraphAccess::edges
//! [`degree`]: GraphAccess::degree
//! [`label_count`]: GraphAccess::label_count
//! [`num_stored_edges`]: GraphAccess::num_stored_edges
//! [`neighbors_with_label`]: GraphAccess::neighbors_with_label
//! [`edge_at`]: GraphAccess::edge_at
//! [`labels_of`]: GraphAccess::labels_of

use crate::csr::{DistinctLabels, EdgeIter};
use crate::error::GraphError;
use crate::graph::KnowledgeGraph;
use crate::ids::{EdgeLabelId, NodeId, NodeTypeId};
use crate::schema::EdgeLabelRegistry;
use crate::taxonomy::Taxonomy;
use std::borrow::Cow;

/// Iterator over all node ids of a graph (see [`GraphAccess::nodes`]).
pub type NodeIds = std::iter::Map<std::ops::Range<u32>, fn(u32) -> NodeId>;

/// Read access to a labeled knowledge graph, independent of the backing
/// storage. See the [module docs](self) for the contract.
pub trait GraphAccess {
    /// Iterator over a node's out-edges as `(label, target)` pairs.
    type Edges<'a>: Iterator<Item = (EdgeLabelId, NodeId)> + 'a
    where
        Self: 'a;

    /// Iterator over the distinct labels on a node's out-edges.
    type Labels<'a>: Iterator<Item = EdgeLabelId> + 'a
    where
        Self: 'a;

    // ---- size ----

    /// Number of nodes `|V|`.
    fn num_nodes(&self) -> usize;

    /// Number of stored directed edges `|E|` (logical + inverse mirrors);
    /// the denominator of Eq. 1's label frequency.
    fn num_stored_edges(&self) -> usize;

    // ---- nodes ----

    /// The name (φ label) of `node`.
    fn node_name(&self, node: NodeId) -> &str;

    /// Looks a node up by name.
    fn node_by_name(&self, name: &str) -> Option<NodeId>;

    /// The node's type, when one was assigned.
    fn node_type(&self, node: NodeId) -> Option<NodeTypeId>;

    /// The node-type taxonomy.
    fn taxonomy(&self) -> &Taxonomy;

    // ---- edges ----

    /// Out-degree of `node` over stored edges (both directions of Def. 1).
    fn degree(&self, node: NodeId) -> usize;

    /// Iterates `(label, target)` over `node`'s stored out-edges, grouped
    /// by ascending label.
    fn edges(&self, node: NodeId) -> Self::Edges<'_>;

    /// The `i`-th stored out-edge of `node` in [`edges`](Self::edges)
    /// order (the uniform-sampling access path of the random walks).
    fn edge_at(&self, node: NodeId, i: usize) -> (EdgeLabelId, NodeId);

    /// Targets of `node`'s out-edges labeled `label`, ascending.
    ///
    /// Backends with contiguous adjacency return a borrowed slice;
    /// backends that assemble the run on the fly may return an owned
    /// vector — callers treat the result as a slice either way.
    fn neighbors_with_label(&self, node: NodeId, label: EdgeLabelId) -> Cow<'_, [NodeId]>;

    /// Iterates the distinct labels on `node`'s out-edges, ascending —
    /// `L|{node}` of Def. 3.
    fn labels_of(&self, node: NodeId) -> Self::Labels<'_>;

    // ---- labels ----

    /// The edge-label registry (shared vocabulary across backends).
    fn labels(&self) -> &EdgeLabelRegistry;

    /// Number of stored edges carrying `label` — `|E_l|` of Eq. 1.
    fn label_count(&self, label: EdgeLabelId) -> u64;

    // ---- memory ----

    /// Approximate resident heap/mapped bytes this backend holds for the
    /// graph (adjacency, dictionaries, registries; excludes transient
    /// per-query allocations). An estimate, not an allocator census —
    /// used by the service stats surface and the scale benchmarks to
    /// compare backend memory footprints.
    fn approx_bytes(&self) -> usize;

    // ---- provided ----

    /// Iterates over all node ids.
    fn nodes(&self) -> NodeIds {
        (0..u32::try_from(self.num_nodes()).expect("node count exceeds u32")).map(NodeId::new)
    }

    /// Looks a node up by name, or errors with the offending name.
    fn require_node(&self, name: &str) -> Result<NodeId, GraphError> {
        self.node_by_name(name)
            .ok_or_else(|| GraphError::UnknownNode(name.to_owned()))
    }

    /// Whether `node`'s type is (transitively) a subtype of `ty`.
    fn node_has_type(&self, node: NodeId, ty: NodeTypeId) -> bool {
        match self.node_type(node) {
            Some(t) => self.taxonomy().is_subtype(t, ty),
            None => false,
        }
    }

    /// All nodes whose type is a (transitive) subtype of `ty` (linear
    /// scan; evaluation tooling, not a hot path).
    fn nodes_with_type(&self, ty: NodeTypeId) -> Vec<NodeId> {
        self.nodes()
            .filter(|&n| self.node_has_type(n, ty))
            .collect()
    }

    /// Number of `node`'s out-edges labeled `label` (the Card
    /// distribution input of §3.2).
    fn degree_with_label(&self, node: NodeId, label: EdgeLabelId) -> usize {
        self.neighbors_with_label(node, label).len()
    }

    /// The name of an edge label.
    fn label_name(&self, label: EdgeLabelId) -> &str {
        self.labels().name(label)
    }

    /// Relative frequency `|E_l| / |E|` of `label` over stored edges;
    /// Eq. 1 weights a transition by `1 − frequency`.
    fn label_frequency(&self, label: EdgeLabelId) -> f64 {
        let e = self.num_stored_edges();
        if e == 0 {
            0.0
        } else {
            self.label_count(label) as f64 / e as f64
        }
    }
}

/// References to backends are backends: this lets owning consumers
/// (`QueryEngine`, `PersonalizedPageRank`, the `nck-api` service) take
/// their graph by value while borrowing callers simply pass `&graph`.
impl<G: GraphAccess> GraphAccess for &G {
    type Edges<'a>
        = G::Edges<'a>
    where
        Self: 'a;
    type Labels<'a>
        = G::Labels<'a>
    where
        Self: 'a;

    fn num_nodes(&self) -> usize {
        G::num_nodes(self)
    }

    fn num_stored_edges(&self) -> usize {
        G::num_stored_edges(self)
    }

    fn node_name(&self, node: NodeId) -> &str {
        G::node_name(self, node)
    }

    fn node_by_name(&self, name: &str) -> Option<NodeId> {
        G::node_by_name(self, name)
    }

    fn node_type(&self, node: NodeId) -> Option<NodeTypeId> {
        G::node_type(self, node)
    }

    fn taxonomy(&self) -> &Taxonomy {
        G::taxonomy(self)
    }

    fn degree(&self, node: NodeId) -> usize {
        G::degree(self, node)
    }

    fn edges(&self, node: NodeId) -> Self::Edges<'_> {
        G::edges(self, node)
    }

    fn edge_at(&self, node: NodeId, i: usize) -> (EdgeLabelId, NodeId) {
        G::edge_at(self, node, i)
    }

    fn neighbors_with_label(&self, node: NodeId, label: EdgeLabelId) -> Cow<'_, [NodeId]> {
        G::neighbors_with_label(self, node, label)
    }

    fn labels_of(&self, node: NodeId) -> Self::Labels<'_> {
        G::labels_of(self, node)
    }

    fn labels(&self) -> &EdgeLabelRegistry {
        G::labels(self)
    }

    fn label_count(&self, label: EdgeLabelId) -> u64 {
        G::label_count(self, label)
    }

    fn approx_bytes(&self) -> usize {
        G::approx_bytes(self)
    }
}

impl GraphAccess for KnowledgeGraph {
    type Edges<'a> = EdgeIter<'a>;
    type Labels<'a> = DistinctLabels<'a>;

    fn num_nodes(&self) -> usize {
        KnowledgeGraph::num_nodes(self)
    }

    fn num_stored_edges(&self) -> usize {
        KnowledgeGraph::num_stored_edges(self)
    }

    fn node_name(&self, node: NodeId) -> &str {
        KnowledgeGraph::node_name(self, node)
    }

    fn node_by_name(&self, name: &str) -> Option<NodeId> {
        KnowledgeGraph::node_by_name(self, name)
    }

    fn node_type(&self, node: NodeId) -> Option<NodeTypeId> {
        KnowledgeGraph::node_type(self, node)
    }

    fn taxonomy(&self) -> &Taxonomy {
        KnowledgeGraph::taxonomy(self)
    }

    fn degree(&self, node: NodeId) -> usize {
        KnowledgeGraph::degree(self, node)
    }

    fn edges(&self, node: NodeId) -> EdgeIter<'_> {
        KnowledgeGraph::edges(self, node)
    }

    fn edge_at(&self, node: NodeId, i: usize) -> (EdgeLabelId, NodeId) {
        KnowledgeGraph::edge_at(self, node, i)
    }

    fn neighbors_with_label(&self, node: NodeId, label: EdgeLabelId) -> Cow<'_, [NodeId]> {
        Cow::Borrowed(KnowledgeGraph::neighbors_with_label(self, node, label))
    }

    fn labels_of(&self, node: NodeId) -> DistinctLabels<'_> {
        KnowledgeGraph::labels_of(self, node)
    }

    fn labels(&self) -> &EdgeLabelRegistry {
        KnowledgeGraph::labels(self)
    }

    fn label_count(&self, label: EdgeLabelId) -> u64 {
        KnowledgeGraph::label_count(self, label)
    }

    fn approx_bytes(&self) -> usize {
        KnowledgeGraph::approx_bytes(self)
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
        b.typed_node("a", "person");
        b.build()
    }

    /// Exercises the trait surface through a generic function, proving the
    /// CSR backend satisfies it without naming the concrete type.
    fn total_degree<G: GraphAccess>(g: &G) -> usize {
        g.nodes().map(|v| g.degree(v)).sum()
    }

    #[test]
    fn knowledge_graph_implements_access() {
        let g = sample();
        assert_eq!(total_degree(&g), GraphAccess::num_stored_edges(&g));
        let a = GraphAccess::require_node(&g, "a").unwrap();
        let knows = GraphAccess::labels(&g).get("knows").unwrap();
        let b = GraphAccess::node_by_name(&g, "b").unwrap();
        assert_eq!(
            GraphAccess::neighbors_with_label(&g, a, knows).as_ref(),
            &[b]
        );
        assert_eq!(GraphAccess::degree_with_label(&g, a, knows), 1);
        assert_eq!(GraphAccess::labels_of(&g, a).count(), 2);
        assert_eq!(
            GraphAccess::edge_at(&g, a, 0),
            GraphAccess::edges(&g, a).next().unwrap()
        );
        let freq_sum: f64 = GraphAccess::labels(&g)
            .iter()
            .map(|l| GraphAccess::label_frequency(&g, l))
            .sum();
        assert!((freq_sum - 1.0).abs() < 1e-12);
        let person = GraphAccess::taxonomy(&g).get("person").unwrap();
        assert!(GraphAccess::node_has_type(&g, a, person));
        assert_eq!(GraphAccess::nodes_with_type(&g, person), vec![a]);
        assert!(GraphAccess::require_node(&g, "zzz").is_err());
    }

    #[test]
    fn trait_and_inherent_agree() {
        let g = sample();
        for v in g.nodes() {
            let via_trait: Vec<_> = GraphAccess::edges(&g, v).collect();
            let via_inherent: Vec<_> = KnowledgeGraph::edges(&g, v).collect();
            assert_eq!(via_trait, via_inherent);
        }
    }
}
