//! # nck-engine — batched query execution with shared caches
//!
//! The algorithm crates answer one query at a time; this crate is the
//! serving layer above them. A [`QueryEngine`] owns a graph backend and a
//! pipeline configuration and executes single queries and batches of
//! [`Query`](nck_core::query::Query) values, each under the engine's
//! settings or under per-request [`Overrides`] — deduplicating and
//! amortizing the work that public-KB traffic repeats constantly:
//!
//! - **[`cache`]** — deterministic, memory-bounded LRU caching with
//!   O(1)-amortized eviction, used for PPR vectors (keyed by
//!   personalization seed node and ε), selected contexts and full search
//!   results (keyed by seed list and the settings context selection
//!   reads: selector, |C|, type filter, and walk budget or ε); each
//!   cached result also keeps the caller's [`Encoded`] form of it once
//!   one is asked for; under the engine each cache is a lock-striped
//!   [`ShardedLru`] so concurrent clients touching different keys never
//!   serialize on one global lock;
//! - **[`flight`]** — single-flight computation: concurrent misses on
//!   the same key coalesce onto one execution and every caller receives
//!   the same `Arc` (exact values make this observationally invisible);
//! - **[`schedule`]** — the deterministic batch planner: exact repeats
//!   collapse to one execution, distinct queries cluster around their
//!   hottest shared seed so cache hits land before evictions;
//! - **[`engine`]** — [`QueryEngine`] itself: plans, lets worker
//!   threads pull the groups one at a time, and fans results back out;
//!   every PageRank miss, in a batch or not, is one solo run per seed.
//!   It derives
//!   the Eq.-1 weight table at most once: at construction in RandomWalk
//!   mode, else on the first `selector: RandomWalk` override.
//!
//! Every cache stores exact values, so engine output is **id-for-id
//! identical** to running [`FindNc::discover`] sequentially under the
//! request's settings — the speedup comes purely from not recomputing
//! shared work. The `nck` CLI, the socket server and the criterion
//! benches all drive their queries through this layer.
//!
//! ```
//! use nck_core::config::{FindNcConfig, PathMiningConfig};
//! use nck_core::context::TypeFilter;
//! use nck_core::query::Query;
//! use nck_engine::{EngineConfig, QueryEngine};
//! use nck_graph::GraphBuilder;
//!
//! let mut b = GraphBuilder::new();
//! b.add_triple("Merkel", "studied", "Physics");
//! for i in 0..20 {
//!     let n = format!("leader{i}");
//!     b.add_triple(&n, "studied", "Law");
//!     b.add_triple(&n, "memberOf", "G20");
//! }
//! b.add_triple("Merkel", "memberOf", "G20");
//! let graph = b.build();
//!
//! let mut config = EngineConfig::default();
//! config.findnc.context.mining = PathMiningConfig { walks: 2_000, ..Default::default() };
//! config.findnc.context.type_filter = TypeFilter::None;
//! config.findnc.context_size = 10;
//! let engine = QueryEngine::new(&graph, config).unwrap();
//!
//! // A repeated-seed workload: the duplicate executes once, and both
//! // positions share the one computed result.
//! let q = Query::by_names(&graph, ["Merkel"]).unwrap();
//! let results = engine.run_batch(&[q.clone(), q]).unwrap();
//! assert_eq!(results.len(), 2);
//! assert_eq!(engine.stats().executed_groups, 1);
//! assert!(std::sync::Arc::ptr_eq(&results[0], &results[1]));
//! assert!(!results[0].characteristics.is_empty());
//! ```
//!
//! [`FindNc::discover`]: nck_core::findnc::FindNc::discover

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod flight;
pub mod schedule;

pub use cache::{CacheStats, LruCache, ShardedLru};
pub use engine::{Encoded, EngineConfig, EngineStats, Overrides, QueryEngine, SelectorMode};
pub use flight::SingleFlight;
pub use schedule::{canonical_key, plan, BatchPlan, QueryGroup};
