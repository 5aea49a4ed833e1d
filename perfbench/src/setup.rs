//! The configuration users run (`nck`'s defaults), service set-up, and
//! the set-up layers timed one by one.

use notable_characteristics::api::{Backend, NckService};
use notable_characteristics::core::config::{PathMiningConfig, PprConfig};
use notable_characteristics::core::context::TypeFilter;
use notable_characteristics::engine::{EngineConfig, QueryEngine, SelectorMode};
use notable_characteristics::graph::{CompactGraph, ErasedGraph};
use notable_characteristics::store::graph_view::to_knowledge_graph;
use notable_characteristics::store::ntriples::read_ntriples;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Characteristics per answer: `nck`'s `--top` default.
pub const TOP: usize = 10;

/// The engine configuration `nck query|batch|serve` build from their
/// default options: ContextRW with 30,000 walks, |C| = 100, α = 0.05,
/// 20,000 Monte-Carlo samples, the common-ancestor type filter, and
/// sequential PPR summation.
pub fn cli_engine_config(selector: SelectorMode) -> EngineConfig {
    let mut cfg = EngineConfig::default();
    cfg.findnc.context.mining = PathMiningConfig {
        walks: 30_000,
        parallel: true,
        ..PathMiningConfig::default()
    };
    cfg.findnc.context.type_filter = TypeFilter::CommonAncestor;
    cfg.findnc.context_size = 100;
    cfg.selector = selector;
    cfg.randomwalk.type_filter = TypeFilter::CommonAncestor;
    cfg.randomwalk.ppr = PprConfig {
        parallel: false,
        epsilon: 0.0,
        ..PprConfig::default()
    };
    cfg.parallel = true;
    cfg.threads = None;
    cfg
}

/// Builds a service from the N-Triples file: parse, backend build and
/// engine init (Eq.-1 weights included in RandomWalk mode). Returns it
/// with the seconds taken.
pub fn build_service(
    nt: &Path,
    backend: Backend,
    config: &EngineConfig,
) -> Result<(NckService, f64), String> {
    let started = Instant::now();
    let service = NckService::builder()
        .ntriples(nt)
        .backend(backend)
        .engine(config.clone())
        .build()
        .map_err(|e| format!("service set-up failed: {e}"))?;
    Ok((service, started.elapsed().as_secs_f64()))
}

/// Builds the service `runs` times; returns the last one and the median
/// set-up seconds.
pub fn setup(
    nt: &Path,
    backend: Backend,
    config: &EngineConfig,
    runs: usize,
) -> Result<(NckService, f64), String> {
    let mut secs = Vec::with_capacity(runs);
    let mut service = None;
    for _ in 0..runs.max(1) {
        // The previous service is dropped before the next one is built.
        drop(service.take());
        let (built, s) = build_service(nt, backend, config)?;
        secs.push(s);
        service = Some(built);
    }
    let service = service.expect("at least one set-up ran");
    Ok((service, crate::report::median(&secs)))
}

/// The set-up layers timed call by call: `store.parse_ms`,
/// `graph.build_ms` (the compact encode included) and `engine.init_ms`.
pub fn setup_layers(
    nt: &Path,
    backend: Backend,
    config: &EngineConfig,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let file = std::fs::File::open(nt).map_err(|e| format!("cannot open {}: {e}", nt.display()))?;
    let t = Instant::now();
    let store = read_ntriples(std::io::BufReader::new(file))
        .map_err(|e| format!("cannot parse {}: {e}", nt.display()))?;
    let parse_ms = ms(t);
    let t = Instant::now();
    let csr = to_knowledge_graph(&store);
    let graph = match backend {
        Backend::Compact => ErasedGraph::new(CompactGraph::from_graph(&csr)),
        _ => ErasedGraph::new(csr),
    };
    let build_ms = ms(t);
    let t = Instant::now();
    let engine = QueryEngine::new(graph, config.clone()).map_err(|e| e.to_string())?;
    let init_ms = ms(t);
    drop(std::hint::black_box(engine));
    Ok(BTreeMap::from([
        ("store.parse_ms", parse_ms),
        ("graph.build_ms", build_ms),
        ("engine.init_ms", init_ms),
    ]))
}
