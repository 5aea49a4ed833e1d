//! # notable-characteristics
//!
//! A Rust reproduction of *"Notable Characteristics Search through
//! Knowledge Graphs"* (Mottin, Grasnick, Kroschk, Siegler, Müller — EDBT
//! 2018, arXiv:1802.04060).
//!
//! Given a small set of query entities in a knowledge graph, the system
//!
//! 1. retrieves a **context set** — the top-k nodes most similar to the
//!    query, via metapath-constrained random walks (`ContextRW`) or a
//!    frequency-weighted Personalized PageRank baseline (`RandomWalk`);
//! 2. flags **notable characteristics** — edge labels whose value
//!    (*instance*) or count (*cardinality*) distribution over the query
//!    deviates significantly from the context's, under an exact /
//!    Monte-Carlo multinomial test (`FindNC`).
//!
//! This crate is the façade over the workspace:
//!
//! - [`api`] — the serde-first service layer: build an
//!   [`NckService`](api::NckService) over a dataset once, then answer
//!   [`QueryRequest`](api::QueryRequest)s and batches of them through
//!   one stable request/response schema, with the backend chosen at
//!   runtime;
//! - [`graph`] — knowledge-graph substrate: the two graph formats (the
//!   dictionary-encoded CSR [`KnowledgeGraph`](graph::KnowledgeGraph)
//!   and the compact, memory-mappable
//!   [`CompactGraph`](graph::CompactGraph)), the format-generic
//!   [`GraphAccess`](graph::GraphAccess) trait the algorithms run
//!   against, and the [`ErasedGraph`](graph::ErasedGraph) enum over both
//!   formats that the service layer builds on;
//! - [`store`] — the N-Triples loader: a term dictionary and SPO-ordered
//!   statements, handed to the graph formats;
//! - [`serve`] — the socket front door: `nck serve` puts the service
//!   behind length-prefixed framed JSON over TCP, with bounded admission,
//!   per-request deadlines and graceful drain — answers are id-for-id
//!   what the in-process service returns;
//! - [`stats`] — statistics substrate (multinomial test, divergences);
//! - [`core`] — the paper's algorithms;
//! - [`datagen`] — seeded synthetic YAGO-like / LinkedMDB-like data;
//! - [`eval`] — the experiment harness reproducing every table and figure.
//!
//! ## Quickstart
//!
//! ```
//! use notable_characteristics::prelude::*;
//!
//! // Build the paper's Figure-1 graph: politicians, studies, children.
//! let mut b = GraphBuilder::new();
//! b.add_triple("Merkel", "studied", "Physics");
//! for (p, domain) in [("Putin", "Law"), ("Renzi", "Law"), ("Hollande", "Law")] {
//!     b.add_triple(p, "studied", domain);
//! }
//! for (p, c) in [
//!     ("Obama", "Malia"), ("Putin", "Mariya"), ("Renzi", "Ester"),
//!     ("Renzi", "Emanuele"), ("Hollande", "Thomas"), ("Hollande", "Clemence"),
//! ] {
//!     b.add_triple(p, "hasChild", c);
//! }
//! let graph = b.build();
//!
//! // Query: {Merkel, Obama}; context: the other leaders.
//! let query = Query::by_names(&graph, ["Merkel", "Obama"]).unwrap();
//! let context_nodes: Vec<_> = ["Putin", "Renzi", "Hollande"]
//!     .iter().map(|n| graph.node_by_name(n).unwrap()).collect();
//! let context = Context::from_nodes(&context_nodes);
//!
//! // Find notable characteristics against that context.
//! let findnc = FindNc::new(FindNcConfig::default());
//! let result = findnc.discover_with_context(&graph, &query, &context).unwrap();
//! // "Merkel has no child" style deviations surface as notable labels.
//! assert!(result.characteristics.iter().any(|c| {
//!     graph.label_name(c.label) == "hasChild" && c.score > 0.0
//! }));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use nck_api as api;
pub use nck_core as core;
pub use nck_datagen as datagen;
pub use nck_engine as engine;
pub use nck_eval as eval;
pub use nck_graph as graph;
pub use nck_serve as serve;
pub use nck_stats as stats;
pub use nck_store as store;

/// Compiles and runs `README.md`'s code blocks as doctests, so the
/// quickstart can never rot (`cargo test --doc` exercises it; the
/// rendered docs omit this item).
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

/// Commonly used items, re-exported for `use notable_characteristics::prelude::*`.
pub mod prelude {
    pub use nck_api::{ApiError, Backend, NckService, QueryRequest, QueryResponse};
    pub use nck_core::config::{ContextRwConfig, FindNcConfig, PathMiningConfig, PprConfig};
    pub use nck_core::context::{Context, ContextSelector, TypeFilter};
    pub use nck_core::context_rw::ContextRw;
    pub use nck_core::findnc::{FindNc, NotableCharacteristic, SearchResult};
    pub use nck_core::ppr::{EdgeWeights, PersonalizedPageRank, RandomWalkSelector};
    pub use nck_core::query::Query;
    pub use nck_core::score::{ScoreVec, SparseWorkspace};
    pub use nck_engine::{EngineConfig, QueryEngine, SelectorMode};
    pub use nck_graph::{
        EdgeLabelId, ErasedGraph, GraphAccess, GraphBuilder, KnowledgeGraph, NodeId,
    };
    pub use nck_stats::MultinomialTest;
}
