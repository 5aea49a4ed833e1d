//! Concurrent serving correctness: many client threads hammering one
//! shared service/engine must produce responses **id-for-id identical**
//! to fresh sequential runs — on both backends, under both selectors,
//! and under pathological one-entry-per-shard cache pressure.
//!
//! The query mix deliberately overlaps: exact repeats (result-cache /
//! single-flight territory), distinct queries sharing a seed (PPR-cache
//! territory in RandomWalk mode), and fully distinct queries. Each
//! thread walks the mix starting at its own rotation, so at any moment
//! different threads are racing different keys through the sharded
//! caches and flight slots.

#![forbid(unsafe_code)]

use notable_characteristics::api::{Backend, NckService, QueryRequest};
use notable_characteristics::core::config::{
    ContextRwConfig, FindNcConfig, PathMiningConfig, PprConfig, RandomWalkConfig,
};
use notable_characteristics::core::context::TypeFilter;
use notable_characteristics::core::findnc::{FindNc, SearchResult};
use notable_characteristics::core::ppr::RandomWalkSelector;
use notable_characteristics::core::query::Query;
use notable_characteristics::datagen::{generate, DomainId, GeneratorConfig};
use notable_characteristics::engine::{EngineConfig, QueryEngine, SelectorMode};
use notable_characteristics::graph::GraphAccess;
use notable_characteristics::store::graph_view::to_triple_store;
use std::sync::Arc;

const THREADS: usize = 8;
const ROUNDS: usize = 2;

fn pipeline_config() -> FindNcConfig {
    FindNcConfig {
        context: ContextRwConfig {
            mining: PathMiningConfig {
                walks: 4_000,
                max_length: 4,
                seed: 99,
                parallel: true,
            },
            num_metapaths: 5,
            type_filter: TypeFilter::CommonAncestor,
            max_endpoint_fraction: 0.25,
        },
        context_size: 30,
        ..FindNcConfig::default()
    }
}

fn engine_config() -> EngineConfig {
    EngineConfig {
        findnc: pipeline_config(),
        ..EngineConfig::default()
    }
}

/// Caches one entry per shard: 4 entries each cache, which clamps the
/// engine's stripes to 4, so every shard holds exactly one entry and
/// concurrent distinct keys evict each other constantly.
fn one_entry_per_shard_config() -> EngineConfig {
    EngineConfig {
        findnc: pipeline_config(),
        ppr_cache_entries: 4,
        context_cache_entries: 4,
        result_cache_entries: 4,
        ..EngineConfig::default()
    }
}

/// The overlapping mix: 4 distinct seed pairs anchored on the most
/// prominent actor (shared seeds), plus exact repeats of the first two.
fn query_mix(dataset: &notable_characteristics::datagen::Dataset) -> Vec<Vec<String>> {
    let members = &dataset
        .domain(DomainId::Actors)
        .expect("actors domain")
        .members;
    let name = |i: usize| dataset.graph.node_name(members[i]).to_owned();
    let mut mix: Vec<Vec<String>> = (0..4).map(|i| vec![name(0), name(1 + i)]).collect();
    mix.push(mix[0].clone()); // exact repeat
    mix.push(mix[1].clone()); // exact repeat
    mix
}

fn assert_identical(label: &str, a: &SearchResult, b: &SearchResult) {
    assert_eq!(
        a.context.ranked(),
        b.context.ranked(),
        "{label}: contexts must agree bit for bit"
    );
    assert_eq!(a.characteristics.len(), b.characteristics.len(), "{label}");
    for (x, y) in a.characteristics.iter().zip(&b.characteristics) {
        assert_eq!(x.label, y.label, "{label}: label order");
        assert_eq!(
            x.score.to_bits(),
            y.score.to_bits(),
            "{label}: scores must be bit-identical"
        );
        assert_eq!(x.significance, y.significance, "{label}: significance");
    }
}

/// 8 threads hammer one shared engine with rotated walks over the mix;
/// every returned result is asserted id-for-id against a fresh
/// sequential reference computed by one-at-a-time `FindNc::discover`
/// (or the sequential RandomWalk selector) over the same backend.
fn stress_engine<G: GraphAccess + Sync + Clone>(label: &str, graph: G, config: EngineConfig) {
    let dataset = generate(&GeneratorConfig::tiny(13));
    let mix = query_mix(&dataset);
    let queries: Vec<Query> = mix
        .iter()
        .map(|names| Query::by_names(&graph, names).expect("query resolves"))
        .collect();

    // Fresh sequential reference, computed before any engine ran.
    let findnc = FindNc::new(config.findnc.clone());
    let selector = match config.selector {
        SelectorMode::ContextRw => None,
        SelectorMode::RandomWalk => Some(RandomWalkSelector::new(config.randomwalk.clone())),
    };
    let reference: Vec<SearchResult> = queries
        .iter()
        .map(|q| match &selector {
            None => findnc.discover(&graph, q).expect("sequential run"),
            Some(sel) => findnc
                .discover_with_selector(&graph, q, sel)
                .expect("sequential run"),
        })
        .collect();

    let engine = QueryEngine::new(graph.clone(), config).expect("engine builds");
    let per_thread: Vec<Vec<(usize, Arc<SearchResult>)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (engine, queries) = (&engine, &queries);
                s.spawn(move || {
                    let mut out = Vec::new();
                    for round in 0..ROUNDS {
                        for i in 0..queries.len() {
                            // Each thread rotates the mix differently,
                            // so exact repeats, shared-seed pairs and
                            // distinct queries all race concurrently.
                            let qi = (i + t + round) % queries.len();
                            out.push((qi, engine.run(&queries[qi]).expect("query serves")));
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });

    for (t, answers) in per_thread.iter().enumerate() {
        for (qi, result) in answers {
            assert_identical(&format!("{label}/thread{t}/q{qi}"), result, &reference[*qi]);
        }
    }
    let stats = engine.stats();
    assert_eq!(
        stats.queries,
        (THREADS * ROUNDS * queries.len()) as u64,
        "{label}: every submission accounted"
    );
    if matches!(engine.config().selector, SelectorMode::RandomWalk) {
        assert_eq!(
            stats.weight_builds, 1,
            "{label}: one Eq.-1 weight build per engine under concurrency"
        );
    }
}

#[test]
fn concurrent_engine_matches_sequential_on_csr() {
    let dataset = generate(&GeneratorConfig::tiny(13));
    stress_engine("csr", &dataset.graph, engine_config());
}

#[test]
fn concurrent_engine_matches_sequential_under_one_entry_per_shard() {
    let dataset = generate(&GeneratorConfig::tiny(13));
    stress_engine("csr/tight", &dataset.graph, one_entry_per_shard_config());
}

#[test]
fn concurrent_randomwalk_matches_sequential_and_builds_weights_once() {
    let dataset = generate(&GeneratorConfig::tiny(13));
    let config = EngineConfig {
        findnc: pipeline_config(),
        selector: SelectorMode::RandomWalk,
        randomwalk: RandomWalkConfig {
            ppr: PprConfig {
                damping: 0.2,
                iterations: 10,
                parallel: false,
                epsilon: 0.0,
            },
            type_filter: TypeFilter::CommonAncestor,
        },
        ..EngineConfig::default()
    };
    stress_engine("csr/randomwalk", &dataset.graph, config);
}

/// The same hammering through the full `NckService` façade (which the
/// `Send + Sync` assertion in `nck-api` makes shareable by contract):
/// concurrent responses on both backends must equal the responses of a
/// fresh service queried sequentially.
#[test]
fn concurrent_service_matches_fresh_sequential_service_on_both_backends() {
    let dataset = generate(&GeneratorConfig::tiny(13));
    let mix = query_mix(&dataset);
    for backend in [Backend::Csr, Backend::Compact] {
        let build = || {
            NckService::builder()
                .triple_store(to_triple_store(&dataset.graph))
                .backend(backend)
                .engine(engine_config())
                .build()
                .expect("service builds")
        };
        // A fresh service answering the mix one query at a time is the
        // reference (its parity with raw sequential FindNc is pinned by
        // the engine-level tests above and tests/engine_parity.rs).
        let sequential = build();
        let reference: Vec<_> = mix
            .iter()
            .map(|names| {
                let mut r = sequential
                    .query(&QueryRequest::entities(names.iter().cloned()))
                    .expect("sequential query");
                r.secs = None;
                r
            })
            .collect();

        let shared = build();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (shared, mix, reference) = (&shared, &mix, &reference);
                s.spawn(move || {
                    for i in 0..mix.len() {
                        let qi = (i + t) % mix.len();
                        let mut response = shared
                            .query(&QueryRequest::entities(mix[qi].iter().cloned()))
                            .expect("concurrent query");
                        response.secs = None;
                        assert_eq!(
                            response,
                            reference[qi],
                            "{}/thread{t}/q{qi}: concurrent response diverged",
                            shared.backend_name()
                        );
                    }
                });
            }
        });
    }
}
