//! # nck-store — the N-Triples loader
//!
//! The paper's experimental setup loads YAGO and LinkedMDB into an Apache
//! Jena triple store *"to perform quick traversals on the graph without
//! loading it into main memory"*. Here triples are only a load format:
//! this crate parses them and hands them to the two graph formats that
//! serve queries, the CSR [`nck_graph::KnowledgeGraph`] and the compact
//! image [`nck_graph::CompactGraph`] (which `nck build-graph` writes and
//! the service memory-maps — the counterpart of the paper's
//! not-in-memory store).
//!
//! - [`dictionary`] — term dictionary mapping IRIs/literals ↔ dense ids;
//! - [`triple`] — dictionary-encoded triples;
//! - [`store`] — the [`TripleStore`] loader: the dictionary plus one
//!   deduplicated set of statements in SPO order;
//! - [`ntriples`] — an N-Triples-subset parser and writer;
//! - [`graph_view`] — the hand-off materializing a
//!   [`nck_graph::KnowledgeGraph`] from the store, with node ids assigned
//!   in SPO order, and its inverse.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dictionary;
pub mod error;
pub mod graph_view;
pub mod ntriples;
pub mod store;
pub mod triple;

pub use dictionary::{Term, TermDictionary, TermId};
pub use error::StoreError;
pub use store::TripleStore;
pub use triple::Triple;
