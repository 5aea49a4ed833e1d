//! The serde-first request/response vocabulary of the service façade.
//!
//! Every type here derives `Serialize`/`Deserialize` and round-trips
//! through JSON (`serde::json::to_string` / `from_str`), so the same
//! structs serve as the CLI's output schema, a future HTTP layer's wire
//! format, and the eval harness's experiment plumbing. Field names and
//! order intentionally reproduce the schema the CLI's retired hand-rolled
//! JSON emitter produced, so downstream consumers see byte-identical
//! output.
//!
//! One deliberate asymmetry, shared with `serde_json`: a non-finite
//! `f64` (NaN/±∞ has no JSON representation) encodes as `null`, and
//! `null` does not decode back into a plain `f64` — so a response
//! carrying a non-finite score is a one-way payload. The pipeline only
//! produces finite δ in practice (NaN is a degenerate-distribution
//! artifact, ranked last by `FindNc`), and `Option<f64>` fields like the
//! significances are unaffected (`null` ↔ `None`).

use nck_core::context::TypeFilter;
use nck_engine::{CacheStats, EngineStats, Overrides, SelectorMode};
use serde::{Deserialize, Serialize};

/// One notable-characteristics query: which entities, plus presentation
/// and (optional) execution options.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryRequest {
    /// Entity names to query (`Q` of Problem 1). Order matters: it is
    /// part of the engine's cache key, because floating-point context
    /// accumulation is order-sensitive.
    pub entities: Vec<String>,
    /// Free-form tag echoed back as [`QueryResponse::query`]; defaults to
    /// the comma-joined entity list.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub label: Option<String>,
    /// Truncates the response's characteristics list (the full ranking is
    /// computed either way); `None` returns every scored label.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub top: Option<usize>,
    /// Per-request pipeline overrides. An overridden query runs through
    /// the same engine caches and single-flight path as a plain one: the
    /// caches key on the seed list plus exactly the settings each layer
    /// reads, so repeats of an overridden query are cache hits, and an
    /// override equal to the engine's own setting shares the plain
    /// query's entries. Each value is bounded before any work runs (see
    /// [`QueryOverrides`]).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub overrides: Option<QueryOverrides>,
}

impl QueryRequest {
    /// A plain request for `entities` with default options.
    pub fn entities<I, S>(entities: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Self {
            entities: entities.into_iter().map(Into::into).collect(),
            label: None,
            top: None,
            overrides: None,
        }
    }

    /// The display form: the label if set, else the comma-joined entities.
    pub fn display(&self) -> String {
        match &self.label {
            Some(l) => l.clone(),
            None => self.entities.join(","),
        }
    }
}

/// Per-request pipeline overrides (see [`QueryRequest::overrides`]).
///
/// Every field changes the answer. The worker-thread cap, a
/// performance setting, is operator configuration on the engine and has
/// no wire field. The service rejects, with a typed
/// `invalid_request` and before any work, a field the effective selector
/// does not read and any value out of bounds: `context_size` outside
/// 1..=|V|, `walks` outside 1..= the engine's configured walk budget,
/// `epsilon` not in [0, 1). Nothing is clamped.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct QueryOverrides {
    /// Context size `|C|`.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub context_size: Option<usize>,
    /// PathMining walk budget.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub walks: Option<usize>,
    /// Context selector.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub selector: Option<SelectorMode>,
    /// Candidate type filter.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub type_filter: Option<TypeFilter>,
    /// Sparse-execution pruning threshold of the RandomWalk selector's
    /// PageRank (see `PprConfig::epsilon` in `nck-core`): `0.0` runs the
    /// exact frontier iteration, positive values trade a bounded L1
    /// error for neighborhood-local cost. Only meaningful together with
    /// the RandomWalk selector.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub epsilon: Option<f64>,
}

impl QueryOverrides {
    /// The serialized key of every field, in declaration order: the one
    /// list a strict decoder checks incoming override maps against.
    pub const FIELDS: &'static [&'static str] = &[
        "context_size",
        "walks",
        "selector",
        "type_filter",
        "epsilon",
    ];

    /// Whether every override is unset (the request then answers exactly
    /// as one without overrides).
    pub fn is_noop(&self) -> bool {
        *self == Self::default()
    }
}

impl From<QueryOverrides> for Overrides {
    fn from(o: QueryOverrides) -> Self {
        Self {
            context_size: o.context_size,
            walks: o.walks,
            selector: o.selector,
            type_filter: o.type_filter,
            epsilon: o.epsilon,
        }
    }
}

/// One scored characteristic, name-resolved.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Characteristic {
    /// The edge-label name.
    pub label: String,
    /// δ — 0 means not notable.
    pub score: f64,
    /// Whether δ > 0 (Def. 3).
    pub notable: bool,
    /// Significance probability of the instance test (`null` when the
    /// test did not run).
    pub inst_p: Option<f64>,
    /// Significance probability of the cardinality test.
    pub card_p: Option<f64>,
}

/// The answer to one [`QueryRequest`], fully name-resolved.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryResponse {
    /// Echo of the request ([`QueryRequest::display`]).
    pub query: String,
    /// Context size `|C|` actually retrieved.
    pub context_size: usize,
    /// Context entity names, descending by similarity score.
    pub context: Vec<String>,
    /// Scored characteristics, descending by δ, truncated to the
    /// request's `top`.
    pub characteristics: Vec<Characteristic>,
    /// Wall-clock seconds spent answering (set on single-query calls;
    /// workload members report timing at the report level instead),
    /// from after the request is resolved and validated. Under
    /// `NckService::query` it covers the engine call and building this
    /// response. On the served path (`NckService::query_json`, which
    /// `nck-serve` answers through) it covers the engine call, the
    /// result's one-time encoding if this request made it, and splicing
    /// the answer up to this field; decode, queueing and the frame write
    /// are outside it.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub secs: Option<f64>,
}

impl QueryResponse {
    /// The notable subset of [`characteristics`](Self::characteristics).
    pub fn notable(&self) -> impl Iterator<Item = &Characteristic> {
        self.characteristics.iter().filter(|c| c.notable)
    }

    /// Looks a characteristic up by label name.
    pub fn characteristic(&self, label: &str) -> Option<&Characteristic> {
        self.characteristics.iter().find(|c| c.label == label)
    }
}

/// How a workload executes (see [`WorkloadRequest::mode`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum WorkloadMode {
    /// Through the batched engine (dedup, scheduling, shared caches).
    #[default]
    Engine,
    /// One-at-a-time sequential `FindNc` runs (the baseline).
    Sequential,
    /// Both, verifying id-for-id identical rankings and reporting the
    /// speedup.
    Compare,
}

/// A batch/repeated-query workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadRequest {
    /// The distinct queries, in submission order. Per-request
    /// [`QueryRequest::overrides`] are rejected here: workload execution
    /// is the exact-parity path, and overrides would silently fork the
    /// configuration mid-benchmark.
    pub queries: Vec<QueryRequest>,
    /// Replays the whole query list this many times (a repeated-seed
    /// workload); clamped to at least 1.
    pub repeat: usize,
    /// Execution mode.
    pub mode: WorkloadMode,
    /// When positive, streams the workload through the engine in batches
    /// of this size instead of one big batch.
    pub chunk: usize,
    /// When set, additionally runs a **concurrent serving phase**: the
    /// whole workload is replayed by this many client OS threads (at
    /// least 1) over one shared engine, measuring aggregate throughput
    /// and per-request latency percentiles. Every concurrent response is
    /// verified id-for-id against the single-client phase's results —
    /// the shared caches and single-flight coalescing are exact, so
    /// concurrency must never change an answer. Reported in
    /// [`WorkloadReport::concurrent`]. `None` (and absent on the wire)
    /// skips the phase.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub clients: Option<usize>,
}

impl WorkloadRequest {
    /// An engine-mode workload over `queries`, run once, unchunked,
    /// without a concurrent phase.
    pub fn new(queries: Vec<QueryRequest>) -> Self {
        Self {
            queries,
            repeat: 1,
            mode: WorkloadMode::Engine,
            chunk: 0,
            clients: None,
        }
    }
}

/// Engine cache/dedup counters in wire form.
///
/// The leading serialized fields reproduce the legacy CLI schema (hit
/// counts only); the optional `*_coalesced` / `cache_shards` fields are
/// omitted when `None`, so payloads from older schemas still
/// deserialize (as `None`). The full per-cache counter structs ride
/// along unserialized for consumers — like the CLI's table renderer —
/// that want misses, evictions, resident bytes and hit *rates*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct EngineStatsReport {
    /// Queries submitted (batch members plus single runs).
    pub submitted: u64,
    /// Distinct work units actually executed.
    pub executed: u64,
    /// Queries answered by batch-level deduplication alone.
    pub deduplicated: u64,
    /// Result-cache hits.
    pub result_hits: u64,
    /// Context-cache hits.
    pub context_hits: u64,
    /// PPR-vector-cache hits.
    pub ppr_hits: u64,
    /// Times the engine derived the Eq.-1 weight table — 1 for a whole
    /// RandomWalk workload (shared across the batch), 0 under ContextRw.
    /// Optional on the wire so payloads from the pre-sparse schema
    /// (which had no such key) still deserialize.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub weight_builds: Option<u64>,
    /// Queries answered with a concurrent caller's in-flight result
    /// (single-flight coalescing on the result layer).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub result_coalesced: Option<u64>,
    /// Context computations coalesced onto a concurrent caller's.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub context_coalesced: Option<u64>,
    /// Per-seed PageRank computations coalesced onto a concurrent
    /// caller's.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub ppr_coalesced: Option<u64>,
    /// Labels scored across executed (non-cached) queries. Optional on
    /// the wire so payloads from older schemas still parse.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub labels_scored: Option<u64>,
    /// Lock stripes per engine cache (the result cache's count; caches
    /// with tiny entry budgets clamp lower so their bounds stay strict).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub cache_shards: Option<u64>,
    /// Approximate resident bytes of the loaded graph backend. Filled by
    /// [`NckService::stats`](crate::NckService::stats) — a bare
    /// [`EngineStats`] conversion leaves it `None` (the engine does not
    /// know its backend's footprint), and `None` stays off the wire.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub graph_bytes: Option<u64>,
    /// Full result-cache counters (not serialized; legacy schema keeps
    /// hit counts only on the wire).
    #[serde(skip)]
    pub result_cache: CacheStats,
    /// Full context-cache counters (not serialized).
    #[serde(skip)]
    pub context_cache: CacheStats,
    /// Full PPR-vector-cache counters (not serialized).
    #[serde(skip)]
    pub ppr_cache: CacheStats,
}

impl From<EngineStats> for EngineStatsReport {
    fn from(s: EngineStats) -> Self {
        Self {
            submitted: s.queries,
            executed: s.executed_groups,
            deduplicated: s.deduplicated,
            result_hits: s.result.hits,
            context_hits: s.context.hits,
            ppr_hits: s.ppr.hits,
            weight_builds: Some(s.weight_builds),
            result_coalesced: Some(s.result_coalesced),
            context_coalesced: Some(s.context_coalesced),
            ppr_coalesced: Some(s.ppr_coalesced),
            labels_scored: Some(s.labels_scored),
            cache_shards: Some(s.result.shards as u64),
            graph_bytes: None,
            result_cache: s.result,
            context_cache: s.context,
            ppr_cache: s.ppr,
        }
    }
}

/// The concurrent serving phase's measurements (see
/// [`WorkloadRequest::clients`]).
///
/// Latency percentiles are nearest-rank over every request issued by
/// every client; throughput is aggregate (total requests over the
/// phase's wall time). Parity with the single-client phase is verified
/// before the report is produced, so these numbers always describe
/// id-for-id identical answers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConcurrentReport {
    /// Client threads that replayed the workload.
    pub clients: usize,
    /// Total requests answered (clients × workload length).
    pub queries: usize,
    /// Wall time of the whole phase.
    pub secs: f64,
    /// Aggregate requests per second.
    pub throughput: f64,
    /// Median per-request latency, milliseconds.
    pub p50_ms: f64,
    /// 90th-percentile per-request latency, milliseconds.
    pub p90_ms: f64,
    /// 99th-percentile per-request latency, milliseconds.
    pub p99_ms: f64,
    /// Worst per-request latency, milliseconds.
    pub max_ms: f64,
    /// Counters of the engine shared by the concurrent clients (the
    /// coalesced counts show how much duplicate work single-flight
    /// absorbed).
    pub stats: EngineStatsReport,
}

/// The answer to a [`WorkloadRequest`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadReport {
    /// Total queries executed (distinct × repeat).
    pub queries: usize,
    /// Number of distinct submitted queries.
    pub distinct_lines: usize,
    /// The replay factor.
    pub repeat: usize,
    /// Engine-phase wall time (engine/compare modes).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub engine_secs: Option<f64>,
    /// Sequential-phase wall time (sequential/compare modes).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub sequential_secs: Option<f64>,
    /// `sequential_secs / engine_secs` (compare mode).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub speedup: Option<f64>,
    /// Engine counters (engine/compare modes).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub engine_stats: Option<EngineStatsReport>,
    /// Concurrent serving phase measurements (only when the request set
    /// [`WorkloadRequest::clients`]).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub concurrent: Option<ConcurrentReport>,
    /// One response per distinct query (its first execution).
    pub results: Vec<QueryResponse>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_display_prefers_label() {
        let mut req = QueryRequest::entities(["A", "B"]);
        assert_eq!(req.display(), "A,B");
        req.label = Some("A, B".into());
        assert_eq!(req.display(), "A, B");
    }

    #[test]
    fn optional_fields_are_omitted_from_json() {
        let req = QueryRequest::entities(["Merkel", "Obama"]);
        assert_eq!(
            serde::json::to_string(&req),
            r#"{"entities":["Merkel","Obama"]}"#
        );
    }

    #[test]
    fn engine_stats_cache_details_stay_off_the_wire() {
        let report = EngineStatsReport {
            submitted: 8,
            executed: 4,
            deduplicated: 4,
            result_hits: 2,
            context_hits: 1,
            ppr_hits: 0,
            weight_builds: Some(1),
            result_coalesced: None,
            context_coalesced: None,
            ppr_coalesced: None,
            labels_scored: None,
            cache_shards: None,
            graph_bytes: None,
            result_cache: CacheStats {
                misses: 9,
                ..CacheStats::default()
            },
            context_cache: CacheStats::default(),
            ppr_cache: CacheStats::default(),
        };
        let text = serde::json::to_string(&report);
        assert_eq!(
            text,
            r#"{"submitted":8,"executed":4,"deduplicated":4,"result_hits":2,"context_hits":1,"ppr_hits":0,"weight_builds":1}"#
        );
        let back: EngineStatsReport = serde::json::from_str(&text).unwrap();
        assert_eq!(
            back.result_cache,
            CacheStats::default(),
            "skipped fields rebuild as default"
        );
        assert_eq!(back.submitted, 8);
    }

    #[test]
    fn coalesced_and_shard_counters_round_trip() {
        let report = EngineStatsReport {
            submitted: 16,
            executed: 4,
            deduplicated: 8,
            result_hits: 4,
            context_hits: 2,
            ppr_hits: 1,
            weight_builds: Some(1),
            result_coalesced: Some(3),
            context_coalesced: Some(2),
            ppr_coalesced: Some(5),
            labels_scored: Some(40),
            cache_shards: Some(8),
            graph_bytes: Some(123_456),
            result_cache: CacheStats::default(),
            context_cache: CacheStats::default(),
            ppr_cache: CacheStats::default(),
        };
        let text = serde::json::to_string(&report);
        assert!(text.contains(r#""result_coalesced":3"#), "{text}");
        assert!(text.contains(r#""cache_shards":8"#), "{text}");
        assert!(text.contains(r#""labels_scored":40"#), "{text}");
        let back: EngineStatsReport = serde::json::from_str(&text).unwrap();
        assert_eq!(back, report, "coalesced/shard counters round-trip");
    }

    #[test]
    fn legacy_engine_stats_without_new_counters_still_parse() {
        // Payload from the pre-sparse schema: no "weight_builds", no
        // coalesced/shard keys.
        let legacy = r#"{"submitted":8,"executed":4,"deduplicated":4,"result_hits":2,"context_hits":1,"ppr_hits":0}"#;
        let back: EngineStatsReport = serde::json::from_str(legacy).unwrap();
        assert_eq!(back.weight_builds, None);
        assert_eq!(back.result_coalesced, None);
        assert_eq!(back.cache_shards, None);
        assert_eq!(back.labels_scored, None);
        assert_eq!(back.submitted, 8);
    }

    #[test]
    fn legacy_workload_request_without_clients_still_parses() {
        let legacy = r#"{"queries":[{"entities":["A"]}],"repeat":2,"mode":"Engine","chunk":0}"#;
        let back: WorkloadRequest = serde::json::from_str(legacy).unwrap();
        assert_eq!(back.clients, None);
        assert_eq!(back.repeat, 2);
    }

    /// A fully populated literal (no `..Default`, so a new field fails
    /// to compile here until it is listed) serializes exactly the keys
    /// of `QueryOverrides::FIELDS`, in order.
    #[test]
    fn override_fields_list_every_serialized_key() {
        let full = QueryOverrides {
            context_size: Some(30),
            walks: Some(1_000),
            selector: Some(SelectorMode::RandomWalk),
            type_filter: Some(TypeFilter::None),
            epsilon: Some(1e-4),
        };
        let value = serde::json::parse(&serde::json::to_string(&full)).unwrap();
        let keys: Vec<&str> = value
            .expect_map("overrides")
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, QueryOverrides::FIELDS);
    }
}
