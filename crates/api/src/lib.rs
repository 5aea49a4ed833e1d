//! # nck-api — the serde-first service façade
//!
//! The paper frames FindNC as an interactive service over public
//! knowledge bases; this crate is the workspace's one front door to that
//! service. It owns three things:
//!
//! - a **request/response vocabulary** ([`types`]) — serde-able
//!   [`QueryRequest`], [`QueryResponse`], [`EngineStatsReport`] — that
//!   the CLI's `--json` output and the `nck-serve` socket protocol share
//!   (one schema instead of ad-hoc ones);
//! - an **error taxonomy** ([`ApiError`]) separating caller faults from
//!   environment and pipeline faults, with a serializable wire form;
//! - the **[`NckService`] façade**: built once over a dataset
//!   (`NckService::builder().ntriples(path).backend(Backend::Compact)
//!   .engine(cfg).build()?`), it materializes the chosen format behind
//!   the closed [`nck_graph::ErasedGraph`] enum and answers single
//!   queries and batches through a shared [`nck_engine::QueryEngine`].
//!
//! Backend choice is a *runtime* value here — the erasure layer
//! ([`nck_graph::erased`]) keeps the whole generic pipeline intact, and
//! the workspace's parity tests pin erased answers to be id-for-id
//! identical to the concrete formats'.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod latency;
pub mod service;
pub mod types;

pub use error::{ApiError, ErrorBody};
pub use latency::LatencySummary;
pub use service::{rankings_equal, Backend, NckService, NckServiceBuilder};
pub use types::{Characteristic, EngineStatsReport, QueryOverrides, QueryRequest, QueryResponse};

/// JSON encode/decode entry points (`json::to_string` / `json::from_str`),
/// re-exported so façade consumers need no direct serde dependency.
pub use serde::json;
/// The parsed-JSON tree (`json::parse` output), re-exported for callers
/// that inspect payloads structurally (e.g. wire-protocol tests).
pub use serde::Value as JsonValue;
