//! Override parity: a request with per-request overrides runs through
//! the engine's one cached, single-flight path, and its answer is bit
//! for bit the answer of a fresh pipeline under the overridden
//! configuration — `FindNc::discover` for ContextRW, and
//! `FindNc::discover_with_selector` with a sequential-summation
//! `RandomWalkSelector` for RandomWalk. That oracle is exactly how
//! overridden requests used to be answered, outside the caches.
//!
//! Pinned on both backends, under both engine selectors, through
//! `query` and `batch` (plain and overridden requests mixed, in one
//! batch and in consecutive batches on one service), for each override
//! field alone and for mixed sets, errors included (same code, same
//! message); plus the cache behavior the one path buys (a repeated
//! override is a result-cache hit, a |C|-only difference computes no
//! PageRank) and eight concurrent clients sending mixed overrides to one
//! service, which derives the weight table once.

#![forbid(unsafe_code)]

use notable_characteristics::api::{
    rankings_equal, ApiError, Backend, NckService, QueryOverrides, QueryRequest, QueryResponse,
};
use notable_characteristics::core::config::{
    ContextRwConfig, FindNcConfig, PathMiningConfig, PprConfig, RandomWalkConfig,
};
use notable_characteristics::core::context::TypeFilter;
use notable_characteristics::core::error::CoreError;
use notable_characteristics::core::findnc::{FindNc, SearchResult};
use notable_characteristics::core::ppr::{EdgeWeights, RandomWalkSelector};
use notable_characteristics::core::query::Query;
use notable_characteristics::datagen::{generate, Dataset, DomainId, GeneratorConfig};
use notable_characteristics::engine::{EngineConfig, SelectorMode};
use notable_characteristics::graph::{ErasedGraph, GraphAccess};
use notable_characteristics::store::graph_view::{to_knowledge_graph, to_triple_store};
use std::sync::{Arc, Barrier};

const BACKENDS: [Backend; 2] = [Backend::Csr, Backend::Compact];
const SELECTORS: [SelectorMode; 2] = [SelectorMode::ContextRw, SelectorMode::RandomWalk];

fn engine_config(selector: SelectorMode) -> EngineConfig {
    EngineConfig {
        findnc: FindNcConfig {
            context: ContextRwConfig {
                mining: PathMiningConfig {
                    walks: 2_000,
                    max_length: 4,
                    seed: 99,
                    parallel: true,
                },
                num_metapaths: 5,
                type_filter: TypeFilter::CommonAncestor,
                max_endpoint_fraction: 0.25,
            },
            context_size: 30,
            mc_samples: 2_000,
            ..FindNcConfig::default()
        },
        selector,
        randomwalk: RandomWalkConfig {
            ppr: PprConfig {
                damping: 0.2,
                iterations: 10,
                // The engine sums seeds sequentially whatever this says.
                parallel: true,
                epsilon: 0.0,
            },
            // Differs from ContextRW's, so a RandomWalk request must
            // read the RandomWalk setting.
            type_filter: TypeFilter::QueryTypes,
        },
        ..EngineConfig::default()
    }
}

fn service(dataset: &Dataset, backend: Backend, selector: SelectorMode) -> NckService {
    NckService::builder()
        .knowledge_graph(to_knowledge_graph(&to_triple_store(&dataset.graph)))
        .backend(backend)
        .engine(engine_config(selector))
        .build()
        .expect("service builds")
}

/// Two actor pairs sharing their first member.
fn entity_sets(dataset: &Dataset) -> Vec<Vec<String>> {
    let members = &dataset
        .domain(DomainId::Actors)
        .expect("actors domain")
        .members;
    let name = |i: usize| dataset.graph.node_name(members[i]).to_owned();
    vec![vec![name(0), name(1)], vec![name(0), name(2), name(3)]]
}

fn overrides(
    context_size: Option<usize>,
    walks: Option<usize>,
    selector: Option<SelectorMode>,
    type_filter: Option<TypeFilter>,
    epsilon: Option<f64>,
) -> QueryOverrides {
    QueryOverrides {
        context_size,
        walks,
        selector,
        type_filter,
        epsilon,
    }
}

/// Each override field alone, then mixed sets, valid under an engine
/// running `selector` (a field the effective selector ignores is a
/// typed rejection, pinned in `crates/api/tests/service_behavior.rs`).
fn cases(selector: SelectorMode) -> Vec<QueryOverrides> {
    use SelectorMode::{ContextRw, RandomWalk};
    let mut cases = vec![
        overrides(Some(12), None, None, None, None),
        overrides(None, None, None, Some(TypeFilter::None), None),
        overrides(None, None, None, Some(TypeFilter::QueryTypes), None),
        // Equal to the engine's own |C|: shares the plain entries.
        overrides(Some(30), None, None, None, None),
    ];
    cases.extend(match selector {
        ContextRw => vec![
            overrides(None, Some(500), None, None, None),
            // Too few walks to find a context: an error naming the
            // overridden |C|, pinned too.
            overrides(Some(12), Some(1), None, None, None),
            overrides(None, None, Some(RandomWalk), None, None),
            overrides(Some(15), Some(800), None, Some(TypeFilter::None), None),
            overrides(
                Some(10),
                None,
                Some(RandomWalk),
                Some(TypeFilter::None),
                Some(1e-4),
            ),
        ],
        RandomWalk => vec![
            overrides(None, None, None, None, Some(1e-4)),
            overrides(None, None, None, None, Some(-0.0)),
            // Everything pruned: the same kind of error.
            overrides(Some(12), None, None, None, Some(0.9)),
            overrides(None, None, Some(ContextRw), None, None),
            overrides(
                Some(10),
                None,
                None,
                Some(TypeFilter::QueryTypes),
                Some(1e-3),
            ),
            overrides(
                Some(15),
                Some(800),
                Some(ContextRw),
                Some(TypeFilter::None),
                None,
            ),
        ],
    });
    cases
}

/// The oracle: a fresh pipeline under the overridden configuration.
fn oracle(
    graph: &ErasedGraph,
    weights: &Arc<EdgeWeights>,
    selector: SelectorMode,
    overrides: &QueryOverrides,
    query: &Query,
) -> Result<SearchResult, CoreError> {
    let mut config = engine_config(selector);
    if let Some(k) = overrides.context_size {
        config.findnc.context_size = k;
    }
    if let Some(walks) = overrides.walks {
        config.findnc.context.mining.walks = walks;
    }
    if let Some(selector) = overrides.selector {
        config.selector = selector;
    }
    if let Some(filter) = overrides.type_filter {
        config.findnc.context.type_filter = filter;
        config.randomwalk.type_filter = filter;
    }
    if let Some(epsilon) = overrides.epsilon {
        config.randomwalk.ppr.epsilon = epsilon;
    }
    let findnc = FindNc::new(config.findnc.clone());
    match config.selector {
        SelectorMode::ContextRw => findnc.discover(graph, query),
        SelectorMode::RandomWalk => {
            config.randomwalk.ppr.parallel = false;
            let selector = RandomWalkSelector::with_weights(config.randomwalk, Arc::clone(weights));
            findnc.discover_with_selector(graph, query, &selector)
        }
    }
}

fn request(entities: &[String], overrides: Option<QueryOverrides>) -> QueryRequest {
    let mut request = QueryRequest::entities(entities.iter().cloned());
    request.overrides = overrides;
    request
}

/// The response the service must build for `expected`: the answer, or
/// the typed error's code and message.
fn expected_response(
    graph: &ErasedGraph,
    request: &QueryRequest,
    expected: Result<SearchResult, CoreError>,
) -> Result<QueryResponse, (String, String)> {
    match expected {
        Ok(result) => Ok(QueryResponse {
            query: request.display(),
            context_size: result.context.len(),
            context: result
                .context
                .nodes()
                .map(|n| graph.node_name(n).to_owned())
                .collect(),
            characteristics: result
                .characteristics
                .iter()
                .map(|c| notable_characteristics::api::Characteristic {
                    label: graph.label_name(c.label).to_owned(),
                    score: c.score,
                    notable: c.notable(),
                    inst_p: c.inst_significance,
                    card_p: c.card_significance,
                })
                .collect(),
            secs: None,
        }),
        Err(e) => {
            let e = ApiError::from(e);
            Err((e.code().to_owned(), e.to_string()))
        }
    }
}

/// Bit equality of a service answer and its expected form (`secs`
/// ignored; floats by bit pattern).
fn assert_same(
    label: &str,
    got: Result<QueryResponse, ApiError>,
    want: &Result<QueryResponse, (String, String)>,
) {
    match (got, want) {
        (Ok(got), Ok(want)) => {
            assert_eq!(
                (&got.query, got.context_size, &got.context),
                (&want.query, want.context_size, &want.context),
                "{label}: context"
            );
            let bits = |r: &QueryResponse| -> Vec<_> {
                r.characteristics
                    .iter()
                    .map(|c| {
                        (
                            c.label.clone(),
                            c.score.to_bits(),
                            c.notable,
                            c.inst_p.map(f64::to_bits),
                            c.card_p.map(f64::to_bits),
                        )
                    })
                    .collect()
            };
            assert_eq!(bits(&got), bits(want), "{label}: characteristics");
        }
        (Err(got), Err((code, message))) => {
            assert_eq!(
                (got.code(), got.to_string()),
                (code.as_str(), message.clone()),
                "{label}: error"
            );
        }
        (got, want) => panic!("{label}: got {got:?}, want {want:?}"),
    }
}

/// Every override field alone and in mixed sets, on every backend and
/// under both engine selectors: the engine's result equals the oracle's
/// bit for bit (`rankings_equal`, or the same error), and so does the
/// service's response.
#[test]
fn each_override_matches_a_fresh_pipeline_on_every_backend() {
    let dataset = generate(&GeneratorConfig::tiny(13));
    let sets = entity_sets(&dataset);
    for backend in BACKENDS {
        for selector in SELECTORS {
            let service = service(&dataset, backend, selector);
            let graph = service.graph().clone();
            let weights = Arc::new(EdgeWeights::new(&graph));
            for case in cases(selector) {
                for entities in &sets {
                    let label = format!("{backend:?}/{selector:?}/{case:?}/{entities:?}");
                    let query = Query::by_names(&graph, entities).expect("query resolves");
                    let want = oracle(&graph, &weights, selector, &case, &query);
                    let got = service.engine().run_with(&query, &case.into());
                    match (&got, &want) {
                        (Ok(got), Ok(want)) => {
                            assert!(rankings_equal(got, want), "{label}: rankings differ");
                        }
                        (Err(got), Err(want)) => {
                            assert_eq!(got.to_string(), want.to_string(), "{label}");
                        }
                        _ => panic!("{label}: engine {got:?} vs oracle {want:?}"),
                    }
                    let request = request(entities, Some(case));
                    let expected = expected_response(&graph, &request, want);
                    assert_same(&label, service.query(&request), &expected);
                }
            }
        }
    }
}

/// `batch` and `stream` take plain and overridden requests mixed,
/// duplicates included, and answer each as its oracle does.
#[test]
fn whole_and_chunked_batches_mix_plain_and_overridden_requests() {
    let dataset = generate(&GeneratorConfig::tiny(13));
    let sets = entity_sets(&dataset);
    for backend in BACKENDS {
        for selector in SELECTORS {
            let probe = service(&dataset, backend, selector);
            let graph = probe.graph().clone();
            let weights = Arc::new(EdgeWeights::new(&graph));
            let mut requests: Vec<QueryRequest> = Vec::new();
            for (i, case) in cases(selector).into_iter().enumerate().step_by(2) {
                let entities = &sets[i % sets.len()];
                requests.push(request(entities, None));
                requests.push(request(entities, Some(case)));
            }
            requests.push(requests[1].clone());
            let expected: Vec<_> = requests
                .iter()
                .map(|r| {
                    let query = Query::by_names(&graph, &r.entities).expect("query resolves");
                    let case = r.overrides.unwrap_or_default();
                    expected_response(&graph, r, oracle(&graph, &weights, selector, &case, &query))
                })
                .collect();
            // A batch fails as a whole on its first failing request, so
            // compare answers only where every request succeeds; the
            // failing ones are pinned through `query` above.
            let answerable: Vec<(QueryRequest, _)> = requests
                .into_iter()
                .zip(expected)
                .filter(|(_, e)| e.is_ok())
                .collect();
            let (requests, expected): (Vec<_>, Vec<_>) = answerable.into_iter().unzip();
            let label = format!("{backend:?}/{selector:?}");

            let batched = service(&dataset, backend, selector)
                .batch(&requests)
                .expect("batch");
            for (i, (got, want)) in batched.into_iter().zip(&expected).enumerate() {
                assert_same(&format!("{label}/batch/{i}"), Ok(got), want);
            }
            // Consecutive batches of 3 on one service: later chunks meet
            // the caches the earlier ones filled.
            let chunked = service(&dataset, backend, selector);
            for (c, (chunk, want)) in requests.chunks(3).zip(expected.chunks(3)).enumerate() {
                let answers = chunked.batch(chunk).expect("chunk");
                for (i, (got, want)) in answers.into_iter().zip(want).enumerate() {
                    assert_same(&format!("{label}/chunk{c}/{i}"), Ok(got), want);
                }
            }
        }
    }
}

/// A repeated override request is a result-cache hit: nothing executes.
#[test]
fn repeated_override_is_a_result_cache_hit() {
    let dataset = generate(&GeneratorConfig::tiny(13));
    let sets = entity_sets(&dataset);
    for selector in SELECTORS {
        let service = service(&dataset, Backend::Compact, selector);
        let overridden = request(&sets[0], Some(overrides(Some(12), None, None, None, None)));
        let first = service.query(&overridden).expect("first answer");
        let before = service.raw_stats();
        let again = service.query(&overridden).expect("repeat");
        let after = service.raw_stats();
        assert_eq!(
            after.executed_groups, before.executed_groups,
            "{selector:?}"
        );
        assert_eq!(after.result.hits, before.result.hits + 1, "{selector:?}");
        assert_eq!(first.characteristics, again.characteristics);
    }
}

/// On a RandomWalk engine, requests that differ only in `context_size`
/// share the seeds' PageRank vectors: no PageRank runs for them.
#[test]
fn context_size_only_difference_computes_no_pagerank() {
    let dataset = generate(&GeneratorConfig::tiny(13));
    let sets = entity_sets(&dataset);
    let service = service(&dataset, Backend::Compact, SelectorMode::RandomWalk);
    service
        .query(&request(&sets[0], None))
        .expect("plain answer");
    let before = service.raw_stats();
    for k in [30, 12, 5] {
        let smaller = request(&sets[0], Some(overrides(Some(k), None, None, None, None)));
        let response = service.query(&smaller).expect("overridden answer");
        assert_eq!(response.context_size, k);
    }
    let after = service.raw_stats();
    assert_eq!(after.ppr.misses, before.ppr.misses, "no PageRank computed");
    assert_eq!(
        after.executed_groups,
        before.executed_groups + 2,
        "|C| 12, 5"
    );
}

/// Eight barrier-started clients send mixed overrides — a RandomWalk
/// override on a ContextRW engine among them — to one service. Every
/// answer equals its oracle, and the weight table is derived once.
#[test]
fn concurrent_mixed_overrides_match_the_oracle_and_build_weights_once() {
    const CLIENTS: usize = 8;
    let dataset = generate(&GeneratorConfig::tiny(13));
    let sets = entity_sets(&dataset);
    let service = service(&dataset, Backend::Compact, SelectorMode::ContextRw);
    let graph = service.graph().clone();
    let weights = Arc::new(EdgeWeights::new(&graph));
    let random_walk = Some(SelectorMode::RandomWalk);
    let mix = [
        None,
        Some(overrides(None, None, random_walk, None, None)),
        Some(overrides(Some(12), None, random_walk, None, None)),
        Some(overrides(
            Some(10),
            None,
            random_walk,
            Some(TypeFilter::None),
            Some(1e-4),
        )),
        Some(overrides(Some(12), None, None, None, None)),
        Some(overrides(None, Some(500), None, None, None)),
    ];
    let requests: Vec<QueryRequest> = sets
        .iter()
        .flat_map(|entities| mix.iter().map(|o| request(entities, *o)))
        .collect();
    let expected: Vec<_> = requests
        .iter()
        .map(|r| {
            let query = Query::by_names(&graph, &r.entities).expect("query resolves");
            let case = r.overrides.unwrap_or_default();
            let want = oracle(&graph, &weights, SelectorMode::ContextRw, &case, &query);
            expected_response(&graph, r, want)
        })
        .collect();
    let barrier = Barrier::new(CLIENTS);
    let answers: Vec<Vec<(usize, Result<QueryResponse, ApiError>)>> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (service, requests, barrier) = (&service, &requests, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    (0..requests.len())
                        .map(|i| {
                            let at = (i + c * 5) % requests.len();
                            (at, service.query(&requests[at]))
                        })
                        .collect()
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    for (c, client) in answers.into_iter().enumerate() {
        for (at, got) in client {
            assert_same(&format!("client {c}, request {at}"), got, &expected[at]);
        }
    }
    let stats = service.raw_stats();
    assert_eq!(stats.weight_builds, 1, "one weight table for every client");
    assert_eq!(stats.queries, (CLIENTS * requests.len()) as u64);
    assert!(service.engine().edge_weights().is_some());
}
