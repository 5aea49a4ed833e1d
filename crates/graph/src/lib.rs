//! # nck-graph — knowledge-graph substrate
//!
//! The paper (Def. 1) models a knowledge graph as `G = ⟨V, E, φ, ψ⟩`: a
//! directed graph whose nodes and edges carry labels, where every edge
//! `e` with label `l` has a reverse edge `e⁻¹` labeled `l⁻¹`, and where
//! attributes (birth dates, prize names, …) are themselves nodes attached
//! through labeled edges. This crate is that substrate:
//!
//! - [`access`] — the format-generic [`GraphAccess`] trait every
//!   algorithm crate programs against (the CSR [`KnowledgeGraph`] and the
//!   [`CompactGraph`] image both implement it);
//! - [`erased`] — runtime format choice: [`ErasedGraph`], a closed enum
//!   over the two formats that itself implements [`GraphAccess`];
//! - [`ids`] — compact `u32` identifiers for nodes, node types and edge
//!   labels (the graph is fully dictionary-encoded);
//! - [`interner`] — the string dictionary;
//! - [`schema`] — the edge-label registry with automatic inverse labels;
//! - [`builder`] — mutable construction API deduplicating parallel edges;
//! - [`csr`] — compressed sparse row adjacency, per-node runs sorted by
//!   label so metapath-constrained traversals can binary-search;
//! - [`compact`] — the memory-compact backend: delta/varint-encoded
//!   adjacency over degree-relabeled `u32` ids, parsed zero-copy from a
//!   checksummed binary image ([`CompactGraph`]);
//! - [`varint`] — the LEB128 + delta run codec the compact backend uses;
//! - [`graph`] — the immutable [`KnowledgeGraph`] query API;
//! - [`taxonomy`] — the node-type hierarchy (YAGO's `subclassOf` DAG);
//! - [`stats`] — label-frequency and degree statistics feeding Eq. 1;
//! - [`io`] — the compact binary graph file (with a memory-mapped
//!   zero-copy loader on Unix); triples are exchanged as N-Triples
//!   through `nck-store`.

// `deny` rather than `forbid` so the one mmap module can locally allow
// its two syscall bindings; everything else stays safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod builder;
pub mod compact;
pub mod csr;
pub mod erased;
pub mod error;
pub mod graph;
pub mod ids;
pub mod interner;
pub mod io;
pub mod schema;
pub mod stats;
pub mod taxonomy;
pub mod varint;

pub use access::GraphAccess;
pub use builder::GraphBuilder;
pub use compact::CompactGraph;
pub use erased::ErasedGraph;
pub use error::GraphError;
pub use graph::KnowledgeGraph;
pub use ids::{EdgeLabelId, NodeId, NodeTypeId};
pub use schema::EdgeLabelInfo;
pub use taxonomy::Taxonomy;
