//! [`NckService`] — the one front door to the pipeline.

use crate::error::ApiError;
use crate::types::{Characteristic, EngineStatsReport, QueryRequest, QueryResponse};
use nck_core::findnc::SearchResult;
use nck_core::query::Query;
use nck_engine::{Encoded, EngineConfig, EngineStats, Overrides, QueryEngine, SelectorMode};
use nck_graph::io::load_compact;
use nck_graph::{CompactGraph, ErasedGraph, GraphAccess, GraphError, KnowledgeGraph};
use nck_store::graph_view::to_knowledge_graph;
use nck_store::ntriples::read_ntriples;
use serde::{json, Deserialize, Serialize};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Which graph format the service materializes its dataset into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Backend {
    /// The in-memory CSR [`KnowledgeGraph`] (fast traversals, full
    /// materialization).
    #[default]
    Csr,
    /// [`CompactGraph`]: delta/varint-encoded adjacency over
    /// degree-relabeled `u32` ids — roughly half the CSR backend's
    /// resident bytes, and loadable zero-copy from a compact binary file
    /// ([`NckServiceBuilder::compact_file`]).
    Compact,
}

impl Backend {
    /// The backend's short name (`"csr"` / `"compact"`), as printed by
    /// the CLI.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Csr => "csr",
            Backend::Compact => "compact",
        }
    }
}

/// Where the builder gets its dataset from. The graph variant is boxed:
/// a built `KnowledgeGraph` is hundreds of bytes of headers and would
/// bloat every `Source` otherwise (clippy: large_enum_variant).
enum Source {
    Ntriples(PathBuf),
    CompactFile(PathBuf),
    Csr(Box<KnowledgeGraph>),
}

/// Builder for [`NckService`] — see [`NckService::builder`].
pub struct NckServiceBuilder {
    source: Option<Source>,
    /// `Some` only when the caller called [`backend`](Self::backend) —
    /// an *explicit* choice that must not be silently dropped when the
    /// source already fixes the backend.
    backend: Option<Backend>,
    engine: EngineConfig,
}

impl NckServiceBuilder {
    fn new() -> Self {
        Self {
            source: None,
            backend: None,
            engine: EngineConfig::default(),
        }
    }

    /// Loads the dataset from an N-Triples file.
    pub fn ntriples(mut self, path: impl Into<PathBuf>) -> Self {
        self.source = Some(Source::Ntriples(path.into()));
        self
    }

    /// Opens a compact binary graph file (written by `nck build-graph` or
    /// [`nck_graph::io::save_compact`]). The backend choice is then fixed
    /// to [`Backend::Compact`] — the file *is* the backend, loaded
    /// zero-copy (memory-mapped where the platform supports it).
    pub fn compact_file(mut self, path: impl Into<PathBuf>) -> Self {
        self.source = Some(Source::CompactFile(path.into()));
        self
    }

    /// Uses an already-built CSR graph. It can serve either backend: the
    /// compact encoder is a pure function of the graph. A triple store
    /// comes in as `knowledge_graph(to_knowledge_graph(&store))`, with
    /// the node ids [`ntriples`](Self::ntriples) would give it.
    pub fn knowledge_graph(mut self, graph: KnowledgeGraph) -> Self {
        self.source = Some(Source::Csr(Box::new(graph)));
        self
    }

    /// Selects the backend the dataset is materialized into (default:
    /// [`Backend::Csr`]). [`ntriples`](Self::ntriples) and
    /// [`knowledge_graph`](Self::knowledge_graph) can honor either
    /// choice; [`compact_file`](Self::compact_file) fixes the backend,
    /// so combining it with [`Backend::Csr`] makes [`build`](Self::build)
    /// fail with [`ApiError::InvalidConfig`] instead of silently serving
    /// from something else.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Sets the engine configuration (selector mode, pipeline settings,
    /// cache bounds).
    pub fn engine(mut self, config: EngineConfig) -> Self {
        self.engine = config;
        self
    }

    /// Loads the dataset, builds the chosen backend behind an
    /// [`ErasedGraph`], and constructs the engine.
    pub fn build(self) -> Result<NckService, ApiError> {
        let source = self.source.ok_or_else(|| {
            ApiError::InvalidConfig(
                "no data source: call ntriples(), compact_file() or knowledge_graph()".into(),
            )
        })?;
        let (graph, load_secs) = match source {
            Source::Ntriples(path) => {
                let file = std::fs::File::open(&path).map_err(|source| ApiError::Io {
                    path: path.clone(),
                    source,
                })?;
                let store =
                    read_ntriples(std::io::BufReader::new(file)).map_err(|e| ApiError::Parse {
                        path: path.clone(),
                        message: e.to_string(),
                    })?;
                let started = Instant::now();
                let graph = materialize(to_knowledge_graph(&store), self.backend);
                (graph, started.elapsed().as_secs_f64())
            }
            Source::CompactFile(path) => {
                if let Some(requested) = self.backend {
                    if requested != Backend::Compact {
                        return Err(ApiError::InvalidConfig(format!(
                            "backend({requested:?}) conflicts with compact_file(): \
                             a compact binary graph file can only serve the compact \
                             backend — load triples (ntriples()) or a graph \
                             (knowledge_graph()) for {}",
                            requested.name()
                        )));
                    }
                }
                let started = Instant::now();
                let graph = load_compact(&path).map_err(|e| match e {
                    GraphError::Io(source) => ApiError::Io {
                        path: path.clone(),
                        source,
                    },
                    other => ApiError::Parse {
                        path: path.clone(),
                        message: other.to_string(),
                    },
                })?;
                (ErasedGraph::new(graph), started.elapsed().as_secs_f64())
            }
            Source::Csr(graph) => (materialize(*graph, self.backend), 0.0),
        };
        let engine = QueryEngine::new(graph.clone(), self.engine)?;
        Ok(NckService {
            graph,
            engine,
            load_secs,
        })
    }
}

/// Serves `graph` in the requested format (default: [`Backend::Csr`]).
fn materialize(graph: KnowledgeGraph, backend: Option<Backend>) -> ErasedGraph {
    match backend.unwrap_or_default() {
        Backend::Csr => ErasedGraph::new(graph),
        Backend::Compact => ErasedGraph::new(CompactGraph::from_graph(&graph)),
    }
}

/// The service façade: owns the loaded dataset (behind an
/// [`ErasedGraph`]) and a [`QueryEngine`], and answers single queries
/// and batches through the serde request/response vocabulary of
/// [`crate::types`].
///
/// ```
/// use nck_api::{NckService, QueryRequest};
/// use nck_core::config::PathMiningConfig;
/// use nck_core::context::TypeFilter;
/// use nck_engine::EngineConfig;
/// use nck_graph::GraphBuilder;
///
/// // Figure 1 in miniature: every leader has a child — except Merkel.
/// let mut b = GraphBuilder::new();
/// b.add_triple("Merkel", "memberOf", "G20");
/// for i in 0..20 {
///     let leader = format!("leader{i}");
///     b.add_triple(&leader, "memberOf", "G20");
///     b.add_triple(&leader, "hasChild", &format!("child{i}"));
/// }
///
/// let mut config = EngineConfig::default();
/// config.findnc.context.mining = PathMiningConfig { walks: 2_000, ..Default::default() };
/// config.findnc.context.type_filter = TypeFilter::None; // untyped toy graph
/// config.findnc.context_size = 20;
///
/// let service = NckService::builder()
///     .knowledge_graph(b.build())
///     .engine(config)
///     .build()
///     .unwrap();
///
/// let response = service.query(&QueryRequest::entities(["Merkel"])).unwrap();
/// assert_eq!(response.context_size, 20);
/// assert!(response.characteristic("hasChild").unwrap().notable);
/// ```
pub struct NckService {
    graph: ErasedGraph,
    engine: QueryEngine<ErasedGraph>,
    load_secs: f64,
}

// The service is the unit of sharing in a concurrent deployment: one
// instance behind an `Arc` (or a plain reference from scoped threads)
// serves every client thread, which is what makes the engine's sharded
// caches and single-flight coalescing pay off. This assertion makes
// that contract explicit — a field change that silently dropped
// `Send + Sync` would fail to compile here, not in a downstream server.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<NckService>()
};

impl std::fmt::Debug for NckService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NckService")
            .field("backend", &self.backend_name())
            .field("num_nodes", &self.num_nodes())
            .field("num_stored_edges", &self.num_stored_edges())
            .finish_non_exhaustive()
    }
}

impl NckService {
    /// Starts building a service.
    pub fn builder() -> NckServiceBuilder {
        NckServiceBuilder::new()
    }

    /// The erased graph backend (cheap to clone and share).
    pub fn graph(&self) -> &ErasedGraph {
        &self.graph
    }

    /// The engine the service answers from.
    pub fn engine(&self) -> &QueryEngine<ErasedGraph> {
        &self.engine
    }

    /// The short name of the materialized backend (`"csr"` or
    /// `"compact"`), read from the graph itself.
    pub fn backend_name(&self) -> &'static str {
        match self.graph {
            ErasedGraph::Csr(_) => Backend::Csr.name(),
            ErasedGraph::Compact(_) => Backend::Compact.name(),
        }
    }

    /// Seconds spent materializing the backend (0 for pre-built sources).
    pub fn load_secs(&self) -> f64 {
        self.load_secs
    }

    /// Number of nodes in the loaded graph.
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Number of stored (Def.-1 closed) edges in the loaded graph.
    pub fn num_stored_edges(&self) -> usize {
        self.graph.num_stored_edges()
    }

    /// Engine cache/dedup counters in wire form, plus the loaded
    /// backend's approximate resident bytes (the service knows its graph;
    /// a bare [`EngineStats`] conversion does not).
    pub fn stats(&self) -> EngineStatsReport {
        let mut report = EngineStatsReport::from(self.raw_stats());
        report.graph_bytes = Some(self.graph.approx_bytes() as u64);
        report
    }

    /// Approximate resident bytes of the loaded graph backend.
    pub fn graph_bytes(&self) -> usize {
        self.graph.approx_bytes()
    }

    /// Engine counters in the engine's own form.
    pub fn raw_stats(&self) -> EngineStats {
        self.engine.stats()
    }

    /// Answers one query, with or without overrides, through the
    /// engine's caches. The response carries its wall-clock time in
    /// [`QueryResponse::secs`].
    pub fn query(&self, request: &QueryRequest) -> Result<QueryResponse, ApiError> {
        let query = self.resolve(request)?;
        let overrides = self.pipeline_overrides(request)?;
        let started = Instant::now();
        let result = self.engine.run_with(&query, &overrides)?;
        let mut response = self.response_for(request, &result);
        response.secs = Some(started.elapsed().as_secs_f64());
        Ok(response)
    }

    /// [`query`](Self::query)'s answer as JSON text: byte for byte what
    /// `json::to_string` prints for the response `query` returns, with
    /// this call's own `secs`. It resolves and validates exactly as
    /// `query` does and fails with the same errors.
    ///
    /// The context names and each characteristic are encoded once per
    /// result-cache entry and stored with it
    /// ([`QueryEngine::run_encoded`]); every later call for the entry
    /// copies them and encodes only its query echo, `context_size` and
    /// `secs`, keeping the first `top` characteristics. This is the
    /// served path: `nck-serve` writes the text into its answer frame.
    pub fn query_json(&self, request: &QueryRequest) -> Result<String, ApiError> {
        let query = self.resolve(request)?;
        let overrides = self.pipeline_overrides(request)?;
        let started = Instant::now();
        let (result, encoded) = self
            .engine
            .run_encoded(&query, &overrides, |result| self.encode(result))?;
        Ok(splice(request, &result, &encoded, started))
    }

    /// Answers a batch through the engine: exact repeats run once, and
    /// the distinct requests are pulled by worker threads in
    /// first-occurrence order through the shared caches. Plain and
    /// overridden requests mix freely: they dedup on seed list and the
    /// settings they run under. Every request is validated before any of
    /// them runs. Responses come back in input order; if requests fail,
    /// the first failing one in input order is the error.
    pub fn batch(&self, requests: &[QueryRequest]) -> Result<Vec<QueryResponse>, ApiError> {
        let planned = self.resolve_all(requests)?;
        let results = self.engine.run_batch_with(&planned)?;
        Ok(self.responses_for(requests, &results))
    }

    // -- internals ---------------------------------------------------------

    fn resolve(&self, request: &QueryRequest) -> Result<Query, ApiError> {
        Query::by_names(&self.graph, request.entities.iter().map(String::as_str))
            .map_err(ApiError::from_resolution)
    }

    /// Resolves and validates every request before any of them runs.
    fn resolve_all(&self, requests: &[QueryRequest]) -> Result<Vec<(Query, Overrides)>, ApiError> {
        requests
            .iter()
            .map(|r| Ok((self.resolve(r)?, self.pipeline_overrides(r)?)))
            .collect()
    }

    /// The request's overrides in engine form, each checked before any
    /// work runs; a violation is an [`ApiError::InvalidRequest`], and
    /// nothing is clamped:
    ///
    /// - the effective selector — the overridden one, else the engine's —
    ///   must read it: `epsilon` tunes only RandomWalk's PageRank and
    ///   `walks` only ContextRW's PathMining;
    /// - `context_size` must be in 1..=|V|;
    /// - `walks` must be in 1..= the engine's configured walk budget: a
    ///   request may trade accuracy for speed, but never buy more work
    ///   than the operator provisioned;
    /// - `epsilon` must be finite and in [0, 1).
    fn pipeline_overrides(&self, request: &QueryRequest) -> Result<Overrides, ApiError> {
        let Some(overrides) = request.overrides else {
            return Ok(Overrides::default());
        };
        let config = self.engine.config();
        let selector = overrides.selector.unwrap_or(config.selector);
        let ignored = match selector {
            SelectorMode::ContextRw => overrides.epsilon.map(|_| "epsilon"),
            SelectorMode::RandomWalk => overrides.walks.map(|_| "walks"),
        };
        if let Some(field) = ignored {
            return Err(ApiError::InvalidRequest(format!(
                "override `{field}` has no effect under the {selector:?} selector"
            )));
        }
        let out_of_range = |field: &str, bounds: String, got: String| {
            Err(ApiError::InvalidRequest(format!(
                "override `{field}` must be in {bounds}, got {got}"
            )))
        };
        if let Some(k) = overrides.context_size {
            let max = self.graph.num_nodes();
            if !(1..=max).contains(&k) {
                return out_of_range("context_size", format!("1..={max}"), k.to_string());
            }
        }
        if let Some(walks) = overrides.walks {
            let max = config.findnc.context.mining.walks;
            if !(1..=max).contains(&walks) {
                return out_of_range("walks", format!("1..={max}"), walks.to_string());
            }
        }
        if let Some(epsilon) = overrides.epsilon {
            if !(0.0..1.0).contains(&epsilon) {
                return out_of_range("epsilon", "[0, 1)".into(), epsilon.to_string());
            }
        }
        Ok(overrides.into())
    }

    /// `result` in wire form: its context's entity names, in rank order,
    /// and every scored label as a [`Characteristic`]. The one field
    /// mapping both [`response_for`](Self::response_for) and
    /// [`encode`](Self::encode) use.
    fn wire_parts<'a>(
        &'a self,
        result: &'a SearchResult,
    ) -> (Vec<String>, impl Iterator<Item = Characteristic> + 'a) {
        let context = result
            .context
            .nodes()
            .map(|n| self.graph.node_name(n).to_owned())
            .collect();
        let characteristics = result.characteristics.iter().map(|c| Characteristic {
            label: self.graph.label_name(c.label).to_owned(),
            score: c.score,
            notable: c.notable(),
            inst_p: c.inst_significance,
            card_p: c.card_significance,
        });
        (context, characteristics)
    }

    fn response_for(&self, request: &QueryRequest, result: &SearchResult) -> QueryResponse {
        let (context, characteristics) = self.wire_parts(result);
        QueryResponse {
            query: request.display(),
            context_size: result.context.len(),
            context,
            characteristics: characteristics
                .take(request.top.unwrap_or(usize::MAX))
                .collect(),
            secs: None,
        }
    }

    /// The JSON of `result`'s context and of each of its
    /// characteristics, for [`splice`]: the generic encoder's text for
    /// each, so escaping and float formatting match it by construction.
    fn encode(&self, result: &SearchResult) -> Encoded {
        let (context, characteristics) = self.wire_parts(result);
        Encoded {
            context: json::to_string(&context),
            characteristics: characteristics.map(|c| json::to_string(&c)).collect(),
        }
    }

    fn responses_for(
        &self,
        requests: &[QueryRequest],
        results: &[Arc<SearchResult>],
    ) -> Vec<QueryResponse> {
        requests
            .iter()
            .zip(results)
            .map(|(request, result)| self.response_for(request, result))
            .collect()
    }
}

/// The JSON of the [`QueryResponse`] that answers `request` with
/// `result`, spliced from `result`'s stored `encoded` form: the query
/// echo, `context_size`, the context, the first `top` characteristics
/// and `secs` — the wall time since `started`, read just before it is
/// written — in `QueryResponse`'s field order. Only the echo,
/// `context_size` and `secs` are encoded here, each with the generic
/// encoder.
fn splice(
    request: &QueryRequest,
    result: &SearchResult,
    encoded: &Encoded,
    started: Instant,
) -> String {
    let query = json::to_string(&request.display());
    let pieces = encoded
        .characteristics
        .iter()
        .take(request.top.unwrap_or(usize::MAX));
    // The pieces, plus the field names and the two numbers.
    let len = query.len()
        + encoded.context.len()
        + pieces.clone().map(|p| p.len() + 1).sum::<usize>()
        + 128;
    let mut out = String::with_capacity(len);
    out.push_str("{\"query\":");
    out.push_str(&query);
    out.push_str(",\"context_size\":");
    out.push_str(&json::to_string(&result.context.len()));
    out.push_str(",\"context\":");
    out.push_str(&encoded.context);
    out.push_str(",\"characteristics\":[");
    for (i, piece) in pieces.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(piece);
    }
    out.push_str("],\"secs\":");
    out.push_str(&json::to_string(&started.elapsed().as_secs_f64()));
    out.push('}');
    out
}

/// Exact ranking equality: same context order, same labels, same scores
/// and significances bit for bit.
///
/// Floats are compared by bit pattern, not `==`: NaN scores are a
/// supported (deterministically last-ranked) outcome, and `NaN == NaN`
/// is false — IEEE equality would report two identical rankings as
/// diverged.
pub fn rankings_equal(a: &SearchResult, b: &SearchResult) -> bool {
    fn f64_eq(x: f64, y: f64) -> bool {
        x.to_bits() == y.to_bits()
    }
    fn opt_eq(x: Option<f64>, y: Option<f64>) -> bool {
        match (x, y) {
            (Some(x), Some(y)) => f64_eq(x, y),
            (None, None) => true,
            _ => false,
        }
    }
    a.context.ranked().len() == b.context.ranked().len()
        && a.context
            .ranked()
            .iter()
            .zip(b.context.ranked())
            .all(|((na, sa), (nb, sb))| na == nb && f64_eq(*sa, *sb))
        && a.characteristics.len() == b.characteristics.len()
        && a.characteristics
            .iter()
            .zip(&b.characteristics)
            .all(|(x, y)| {
                x.label == y.label
                    && f64_eq(x.score, y.score)
                    && opt_eq(x.significance, y.significance)
            })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nck_core::context::Context;
    use nck_core::discrimination::Trigger;
    use nck_core::distributions::LabelDistributions;
    use nck_core::findnc::NotableCharacteristic;
    use nck_graph::GraphBuilder;

    /// The number after the last `"secs":` of a spliced answer.
    fn secs_of(text: &str) -> f64 {
        let (_, tail) = text.rsplit_once("\"secs\":").expect("an answer with secs");
        tail.strip_suffix('}')
            .and_then(|n| n.parse().ok())
            .expect("secs is the last field")
    }

    /// Every float and absent significance prints as the generic encoder
    /// prints it, under every `top` cut.
    #[test]
    fn splice_matches_the_generic_encoder_on_float_edge_cases() {
        let floats = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            5e-324,
            1e-300,
            2.0,
        ];
        let mut b = GraphBuilder::new();
        for i in 0..floats.len() {
            b.add_triple("A", &format!("l{i}"), "B");
        }
        let service = NckService::builder()
            .knowledge_graph(b.build())
            .build()
            .unwrap();
        let graph = service.graph();
        let query = Query::by_names(graph, ["A"]).unwrap();
        let context = Context::from_names(graph, ["B"]).unwrap();
        let characteristics = floats
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let label = graph.labels().get(&format!("l{i}")).unwrap();
                NotableCharacteristic {
                    label,
                    score: x,
                    significance: Some(x),
                    trigger: Trigger::Instance,
                    inst_significance: (i % 2 == 0).then_some(x),
                    card_significance: (i % 3 != 0).then_some(-x),
                    distributions: LabelDistributions::build(graph, &query, &context, label),
                }
            })
            .collect();
        let result = SearchResult {
            characteristics,
            context,
        };
        let encoded = service.encode(&result);
        for top in [None, Some(0), Some(3), Some(floats.len() + 1)] {
            let request = QueryRequest {
                top,
                ..QueryRequest::entities(["A"])
            };
            let text = splice(&request, &result, &encoded, Instant::now());
            let want = QueryResponse {
                secs: Some(secs_of(&text)),
                ..service.response_for(&request, &result)
            };
            assert_eq!(text, json::to_string(&want), "top {top:?}");
        }
    }
}
