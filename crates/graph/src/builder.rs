//! Mutable graph construction.
//!
//! The builder interns node names, registers edge labels (automatically
//! pairing inverses per Def. 1), deduplicates exact `(s, l, t)` duplicates,
//! and finally freezes everything into an immutable [`KnowledgeGraph`].
//! For every logical edge `(s, l, t)` the stored graph also contains the
//! reverse edge `(t, l⁻¹, s)`, so a single out-edge CSR answers both
//! directions.

use crate::csr::Csr;
use crate::graph::KnowledgeGraph;
use crate::ids::{EdgeLabelId, NodeId, NodeTypeId};
use crate::interner::Interner;
use crate::schema::EdgeLabelRegistry;
use crate::taxonomy::Taxonomy;
use std::collections::HashSet;

/// Incremental builder for [`KnowledgeGraph`].
#[derive(Debug, Default)]
pub struct GraphBuilder {
    names: Interner,
    types: Vec<Option<NodeTypeId>>,
    labels: EdgeLabelRegistry,
    taxonomy: Taxonomy,
    /// Logical (forward) edges only; inverses are added at build time.
    edges: Vec<(NodeId, EdgeLabelId, NodeId)>,
    seen: HashSet<(NodeId, EdgeLabelId, NodeId)>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder pre-sized for roughly `nodes` nodes and `edges`
    /// logical edges.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        Self {
            names: Interner::with_capacity(nodes),
            types: Vec::with_capacity(nodes),
            labels: EdgeLabelRegistry::new(),
            taxonomy: Taxonomy::new(),
            edges: Vec::with_capacity(edges),
            seen: HashSet::with_capacity(edges),
        }
    }

    /// Interns a node by name, returning its id (existing or fresh).
    pub fn node(&mut self, name: &str) -> NodeId {
        let raw = self.names.intern(name);
        if raw as usize >= self.types.len() {
            self.types.push(None);
        }
        NodeId::new(raw)
    }

    /// Interns a node and assigns it a type (later assignments overwrite).
    pub fn typed_node(&mut self, name: &str, type_name: &str) -> NodeId {
        let id = self.node(name);
        let ty = self.taxonomy.register(type_name);
        self.types[id.index()] = Some(ty);
        id
    }

    /// Sets the type of an existing node.
    pub fn set_type(&mut self, node: NodeId, type_name: &str) {
        let ty = self.taxonomy.register(type_name);
        self.types[node.index()] = Some(ty);
    }

    /// Registers (or retrieves) an edge label with an auto-named inverse.
    pub fn edge_label(&mut self, name: &str) -> EdgeLabelId {
        self.labels.register(name)
    }

    /// Registers (or retrieves) an edge label with an explicit inverse name.
    pub fn edge_label_with_inverse(&mut self, name: &str, inverse: &str) -> EdgeLabelId {
        self.labels.register_with_inverse(name, inverse)
    }

    /// Adds a logical edge by ids. Exact duplicates are ignored. Returns
    /// `true` when the edge was new.
    pub fn add_edge(&mut self, src: NodeId, label: EdgeLabelId, dst: NodeId) -> bool {
        assert!(
            src.index() < self.types.len() && dst.index() < self.types.len(),
            "edge endpoint not created through this builder"
        );
        assert!(
            label.index() < self.labels.len(),
            "edge label not registered through this builder"
        );
        if !self.seen.insert((src, label, dst)) {
            return false;
        }
        self.edges.push((src, label, dst));
        true
    }

    /// Adds a logical edge **without** consulting the duplicate set —
    /// the streaming path for bulk loads (`nck-datagen`'s scale
    /// generator), where a `HashSet` over tens of millions of edges would
    /// dwarf the graph itself.
    ///
    /// The caller must guarantee the edge is not an exact duplicate of
    /// one already added (e.g. by generating each source's out-edges once
    /// and deduplicating locally); [`build`](Self::build) trusts
    /// [`num_edges`](Self::num_edges) as the logical-edge count. Endpoint
    /// and label validity are still asserted.
    pub fn add_edge_unchecked(&mut self, src: NodeId, label: EdgeLabelId, dst: NodeId) {
        assert!(
            src.index() < self.types.len() && dst.index() < self.types.len(),
            "edge endpoint not created through this builder"
        );
        assert!(
            label.index() < self.labels.len(),
            "edge label not registered through this builder"
        );
        self.edges.push((src, label, dst));
    }

    /// Convenience: intern endpoints and label by name, then add the edge.
    pub fn add_triple(&mut self, subject: &str, predicate: &str, object: &str) -> bool {
        let s = self.node(subject);
        let l = self.edge_label(predicate);
        let o = self.node(object);
        self.add_edge(s, l, o)
    }

    /// Declares `sub` a subtype of `sup` in the taxonomy.
    pub fn subtype(&mut self, sub: &str, sup: &str) {
        let sub = self.taxonomy.register(sub);
        let sup = self.taxonomy.register(sup);
        self.taxonomy.add_subtype(sub, sup);
    }

    /// Mutable access to the taxonomy (for bulk hierarchy construction).
    pub fn taxonomy_mut(&mut self) -> &mut Taxonomy {
        &mut self.taxonomy
    }

    /// Number of nodes interned so far.
    pub fn num_nodes(&self) -> usize {
        self.types.len()
    }

    /// Number of logical edges added so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Freezes the builder into an immutable [`KnowledgeGraph`].
    ///
    /// Stored edges = logical edges plus one inverse per logical edge
    /// (symmetric labels get their mirror under the same label id, unless
    /// the mirror already exists as a logical edge).
    pub fn build(self) -> KnowledgeGraph {
        let num_nodes = self.types.len();
        let (stored, label_counts) = close_under_inversion(&self.labels, &self.edges);
        let csr = Csr::from_edges(num_nodes, stored);
        KnowledgeGraph::from_parts(
            self.names,
            self.types,
            self.labels,
            self.taxonomy,
            csr,
            label_counts,
            self.edges.len(),
        )
    }
}

/// Closes a logical edge set under Def.-1 inversion, the single source of
/// truth for what a backend stores: every logical edge `(s, l, t)` plus
/// its mirror `(t, l⁻¹, s)` — except that a symmetric label's mirror is
/// skipped when the mirror is itself a logical edge — sorted by
/// `(source, label, target)` and deduplicated (lexical collapsing can
/// alias logical edges). Returns the stored edges and per-label counts.
///
/// [`GraphBuilder::build`] derives the CSR from this function, and the
/// compact image is encoded from that CSR, which is what keeps the two
/// formats id-for-id interchangeable.
fn close_under_inversion(
    labels: &EdgeLabelRegistry,
    logical: &[(NodeId, EdgeLabelId, NodeId)],
) -> (Vec<(NodeId, EdgeLabelId, NodeId)>, Vec<u64>) {
    // The logical-edge dedup set is only consulted for symmetric labels
    // (their mirror can coincide with an explicit logical edge). Skipping
    // it otherwise keeps the bulk path — million-edge datagen graphs with
    // ordinary paired labels — free of an O(|E|) hash set.
    let has_symmetric = labels.iter().any(|l| labels.inverse(l) == l);
    let seen: HashSet<(NodeId, EdgeLabelId, NodeId)> = if has_symmetric {
        logical.iter().copied().collect()
    } else {
        HashSet::new()
    };
    let mut stored = Vec::with_capacity(logical.len() * 2);
    for &(s, l, t) in logical {
        stored.push((s, l, t));
        let inv = labels.inverse(l);
        let mirror = (t, inv, s);
        // A symmetric label's mirror may coincide with an explicitly
        // added logical edge; the dedup set keeps the store duplicate-free.
        if inv != l || !seen.contains(&mirror) {
            stored.push(mirror);
        }
    }
    // Deduplicate stored edges: two logical edges (a,l,b) and (b,l,a)
    // with a symmetric label would otherwise both insert mirrors that
    // collide with the originals; sort + dedup is cheap and final.
    stored.sort_unstable();
    stored.dedup();
    let mut label_counts = vec![0u64; labels.len()];
    for &(_, l, _) in &stored {
        label_counts[l.index()] += 1;
    }
    (stored, label_counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_edges_are_ignored() {
        let mut b = GraphBuilder::new();
        assert!(b.add_triple("a", "knows", "b"));
        assert!(!b.add_triple("a", "knows", "b"));
        assert_eq!(b.num_edges(), 1);
    }

    #[test]
    fn build_adds_inverse_edges() {
        let mut b = GraphBuilder::new();
        b.add_triple("a", "hasChild", "b");
        let g = b.build();
        let a = g.node_by_name("a").unwrap();
        let bb = g.node_by_name("b").unwrap();
        let has_child = g.labels().get("hasChild").unwrap();
        let inv = g.labels().inverse(has_child);
        assert_eq!(g.neighbors_with_label(a, has_child), &[bb]);
        assert_eq!(g.neighbors_with_label(bb, inv), &[a]);
        assert_eq!(g.num_logical_edges(), 1);
        assert_eq!(g.num_stored_edges(), 2);
    }

    #[test]
    fn symmetric_label_mirror_not_duplicated() {
        let mut b = GraphBuilder::new();
        let l = b.edge_label_with_inverse("isMarriedTo", "isMarriedTo");
        let x = b.node("x");
        let y = b.node("y");
        b.add_edge(x, l, y);
        b.add_edge(y, l, x); // explicit mirror
        let g = b.build();
        // Stored edges: exactly x→y and y→x once each.
        assert_eq!(g.num_stored_edges(), 2);
        assert_eq!(g.neighbors_with_label(x, l), &[y]);
        assert_eq!(g.neighbors_with_label(y, l), &[x]);
    }

    #[test]
    fn symmetric_label_single_direction_still_mirrored() {
        let mut b = GraphBuilder::new();
        let l = b.edge_label_with_inverse("marriedTo", "marriedTo");
        let x = b.node("x");
        let y = b.node("y");
        b.add_edge(x, l, y);
        let g = b.build();
        assert_eq!(g.neighbors_with_label(y, l), &[x]);
        assert_eq!(g.num_stored_edges(), 2);
    }

    #[test]
    fn typed_nodes_round_trip() {
        let mut b = GraphBuilder::new();
        let n = b.typed_node("Angela Merkel", "politician");
        let g = b.build();
        let ty = g.node_type(n).unwrap();
        assert_eq!(g.taxonomy().name(ty), "politician");
    }

    #[test]
    fn node_interning_is_stable() {
        let mut b = GraphBuilder::new();
        let a1 = b.node("a");
        b.node("b");
        let a2 = b.node("a");
        assert_eq!(a1, a2);
        assert_eq!(b.num_nodes(), 2);
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn foreign_label_rejected() {
        let mut b = GraphBuilder::new();
        let x = b.node("x");
        b.add_edge(x, EdgeLabelId::new(9), x);
    }

    #[test]
    fn label_counts_match_stored_edges() {
        let mut b = GraphBuilder::new();
        b.add_triple("a", "p", "b");
        b.add_triple("a", "p", "c");
        b.add_triple("b", "q", "c");
        let g = b.build();
        let p = g.labels().get("p").unwrap();
        let q = g.labels().get("q").unwrap();
        assert_eq!(g.label_count(p), 2);
        assert_eq!(g.label_count(g.labels().inverse(p)), 2);
        assert_eq!(g.label_count(q), 1);
        let total: u64 = g.labels().iter().map(|l| g.label_count(l)).sum();
        assert_eq!(total, g.num_stored_edges() as u64);
    }
}
