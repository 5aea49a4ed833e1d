//! The compact binary graph file.
//!
//! - [`binary`] — the compact binary image described in
//!   [`crate::compact`]. `nck build-graph` compiles triples into it once;
//!   a server then opens it with [`load_compact`], which memory-maps the
//!   file where the platform supports it (falling back to a single
//!   `read`), verifies the checksum, and serves adjacency straight from
//!   the mapped bytes.
//! - [`mmap`] — the read-only file mapping behind [`load_compact`].
//!
//! Triples are exchanged as N-Triples through the `nck-store` crate.

pub mod binary;
pub mod mmap;

pub use binary::{load_compact, read_compact, save_compact, write_compact};
