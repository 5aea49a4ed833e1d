//! Behavioral guarantees of [`NckService`] beyond serialization: batch
//! answers equal the sequential pipeline's bit for bit, overrides are
//! bounded before any work, and the builder refuses contradictions.

#![forbid(unsafe_code)]

use nck_api::{rankings_equal, NckService, QueryRequest};
use nck_core::config::{PathMiningConfig, PprConfig};
use nck_core::context::TypeFilter;
use nck_core::findnc::FindNc;
use nck_core::ppr::RandomWalkSelector;
use nck_core::query::Query;
use nck_engine::{EngineConfig, SelectorMode};
use nck_graph::{GraphAccess, GraphBuilder};

fn toy_service(config: EngineConfig) -> NckService {
    let mut b = GraphBuilder::new();
    b.add_triple("Merkel", "memberOf", "G20");
    b.add_triple("Obama", "memberOf", "G20");
    b.add_triple("Obama", "hasChild", "Malia");
    for i in 0..20 {
        let leader = format!("leader{i}");
        b.add_triple(&leader, "memberOf", "G20");
        b.add_triple(&leader, "hasChild", &format!("child{i}"));
    }
    NckService::builder()
        .knowledge_graph(b.build())
        .engine(config)
        .build()
        .unwrap()
}

fn toy_config() -> EngineConfig {
    let mut config = EngineConfig::default();
    config.findnc.context.mining = PathMiningConfig {
        walks: 2_000,
        ..PathMiningConfig::default()
    };
    config.findnc.context.type_filter = TypeFilter::None;
    config.findnc.context_size = 10;
    config
}

/// Answers `requests` with one `service.batch` on a RandomWalk engine
/// and checks every answer against the sequential oracle: a fresh
/// `FindNc::discover_with_selector` with a `RandomWalkSelector` under
/// the engine's own configuration. The batch's results, read back from
/// the result cache it filled, must equal the oracle's by
/// `rankings_equal`, and its wire answers must name the same context and
/// labels in the same order.
fn assert_batch_matches_sequential_randomwalk(service: &NckService, requests: &[QueryRequest]) {
    let answers = service.batch(requests).expect("batch");
    let graph = service.graph();
    let config = service.engine().config();
    let findnc = FindNc::new(config.findnc.clone());
    let selector = RandomWalkSelector::new(config.randomwalk.clone());
    let executed = service.raw_stats().executed_groups;
    for (request, answer) in requests.iter().zip(&answers) {
        let query = Query::by_names(graph, request.entities.iter().map(String::as_str)).unwrap();
        let want = findnc
            .discover_with_selector(graph, &query, &selector)
            .unwrap();
        let got = service.engine().run(&query).unwrap();
        assert!(rankings_equal(&got, &want), "{}", request.display());
        let context: Vec<&str> = want.context.nodes().map(|n| graph.node_name(n)).collect();
        assert_eq!(answer.context, context, "{}", request.display());
        let labels: Vec<&str> = answer
            .characteristics
            .iter()
            .map(|c| c.label.as_str())
            .collect();
        let want_labels: Vec<&str> = want
            .characteristics
            .iter()
            .map(|c| graph.label_name(c.label))
            .collect();
        assert_eq!(labels, want_labels, "{}", request.display());
    }
    assert_eq!(
        service.raw_stats().executed_groups,
        executed,
        "the results are the batch's, read back from the result cache"
    );
}

/// Regression: `rankings_equal` must treat two bit-identical rankings
/// containing NaN scores as equal (IEEE `==` would call them diverged,
/// failing parity checks on correct results).
#[test]
fn rankings_equal_tolerates_nan_scores() {
    use nck_api::rankings_equal;
    use nck_core::context::Context;
    use nck_core::discrimination::{Discrimination, DiscriminationScore, Trigger};
    use nck_core::error::CoreError;
    use nck_core::findnc::FindNc;
    use nck_core::query::Query;

    struct AllNan;
    impl Discrimination for AllNan {
        fn score(
            &self,
            _dists: &nck_core::distributions::LabelDistributions,
        ) -> Result<DiscriminationScore, CoreError> {
            Ok(DiscriminationScore {
                score: f64::NAN,
                inst_score: f64::NAN,
                card_score: 0.0,
                trigger: Trigger::Instance,
                inst_significance: None,
                card_significance: None,
            })
        }
        fn name(&self) -> &'static str {
            "all-nan"
        }
    }

    let mut b = GraphBuilder::new();
    b.add_triple("Merkel", "memberOf", "G20");
    for i in 0..5 {
        let leader = format!("leader{i}");
        b.add_triple(&leader, "memberOf", "G20");
        b.add_triple(&leader, "hasChild", &format!("child{i}"));
    }
    let g = b.build();
    let q = Query::by_names(&g, ["Merkel"]).unwrap();
    let names: Vec<String> = (0..5).map(|i| format!("leader{i}")).collect();
    let c = Context::from_names(&g, &names).unwrap();
    let run = || {
        FindNc::default()
            .discover_with_discrimination(&g, &q, &c, &AllNan)
            .unwrap()
    };
    let (a, b) = (run(), run());
    assert!(
        a.characteristics.iter().any(|ch| ch.score.is_nan()),
        "the stub must actually produce NaN scores"
    );
    assert!(
        rankings_equal(&a, &b),
        "bit-identical NaN rankings must compare equal"
    );
}

/// Regression: an explicit backend choice that the source cannot honor
/// must fail the build, not silently serve from a different backend.
#[test]
fn builder_rejects_contradictory_backend() {
    use nck_api::{ApiError, Backend};

    let g = || {
        let mut b = GraphBuilder::new();
        b.add_triple("a", "knows", "b");
        b.build()
    };
    // compact_file() + backend(Csr): contradiction — the file is the
    // compact backend.
    let image = std::env::temp_dir().join(format!(
        "nck-contradictory-backend-{}.nckg",
        std::process::id()
    ));
    nck_graph::io::save_compact(&g(), &image).unwrap();
    let err = NckService::builder()
        .compact_file(&image)
        .backend(Backend::Csr)
        .build()
        .unwrap_err();
    assert!(matches!(err, ApiError::InvalidConfig(_)), "{err}");
    // compact_file() + backend(Compact): consistent, allowed.
    let served = NckService::builder()
        .compact_file(&image)
        .backend(Backend::Compact)
        .build();
    std::fs::remove_file(&image).ok();
    assert_eq!(served.unwrap().backend_name(), "compact");
    // knowledge_graph() can serve either backend.
    for backend in [Backend::Csr, Backend::Compact] {
        let service = NckService::builder()
            .knowledge_graph(g())
            .backend(backend)
            .build()
            .unwrap();
        assert_eq!(service.backend_name(), backend.name());
    }
}

/// Regression: a batch on the RandomWalk selector with the default
/// `ppr.parallel = true` equals the sequential pipeline bit for bit on
/// multi-seed queries — the engine sums per-seed PPR vectors in seed
/// order, and so does the selector under any worker count.
#[test]
fn randomwalk_batch_matches_sequential_on_eight_seeds() {
    let mut config = toy_config();
    config.selector = SelectorMode::RandomWalk;
    config.randomwalk.type_filter = TypeFilter::None;
    config.randomwalk.ppr = PprConfig {
        damping: 0.2,
        iterations: 10,
        parallel: true, // the default; it must not change a bit
        epsilon: 0.0,
    };
    let service = toy_service(config);

    // Many seeds so chunked summation would associate the f64 additions
    // differently from the engine's strict seed-order accumulation.
    let entities: Vec<String> = std::iter::once("Merkel".to_owned())
        .chain(std::iter::once("Obama".to_owned()))
        .chain((0..6).map(|i| format!("leader{i}")))
        .collect();
    let request = QueryRequest::entities(entities);
    assert_batch_matches_sequential_randomwalk(&service, &[request.clone(), request]);
    // The Eq.-1 weight table was built once, at construction, and every
    // request of the batch shared it.
    assert_eq!(service.stats().weight_builds, Some(1));
}

/// The batch stays bit-exact under sparse (ε > 0) execution too: engine
/// and sequential pipeline run the same ε-pruned frontier iteration, so
/// the approximation is shared, not diverging.
#[test]
fn randomwalk_batch_matches_sequential_under_epsilon_pruning() {
    let mut config = toy_config();
    config.selector = SelectorMode::RandomWalk;
    config.randomwalk.type_filter = TypeFilter::None;
    config.randomwalk.ppr = PprConfig {
        damping: 0.2,
        iterations: 10,
        parallel: false,
        epsilon: 1e-3,
    };
    let service = toy_service(config);
    let request = QueryRequest::entities(["Merkel", "Obama"]);
    assert_batch_matches_sequential_randomwalk(&service, &[request.clone(), request]);
    assert_eq!(service.stats().weight_builds, Some(1));
}

/// A per-request ε override runs through the engine like any request —
/// its own cache entries, keyed on the ε it runs under — and a repeat
/// is a result-cache hit that executes nothing.
#[test]
fn epsilon_override_runs_through_the_engine_caches() {
    use nck_api::QueryOverrides;

    let mut config = toy_config();
    config.selector = SelectorMode::RandomWalk;
    config.randomwalk.type_filter = TypeFilter::None;
    config.randomwalk.ppr.parallel = false;
    let service = toy_service(config);
    let mut request = QueryRequest::entities(["Merkel", "Obama"]);
    request.overrides = Some(QueryOverrides {
        epsilon: Some(1e-3),
        ..QueryOverrides::default()
    });
    let mut overridden = service.query(&request).unwrap();
    assert!(!overridden.context.is_empty());
    let stats = service.raw_stats();
    assert_eq!(
        (stats.queries, stats.executed_groups, stats.result.hits),
        (1, 1, 0),
        "the override runs through the engine"
    );
    assert_eq!(stats.ppr.misses, 2, "one PageRank per seed at ε = 1e-3");

    let mut again = service.query(&request).unwrap();
    let stats = service.raw_stats();
    assert_eq!(
        (stats.queries, stats.executed_groups, stats.result.hits),
        (2, 1, 1),
        "a repeat is a result-cache hit"
    );
    overridden.secs = None;
    again.secs = None;
    assert_eq!(overridden, again);
}

/// A service batch answers each request exactly as a single query
/// does, bit for bit.
#[test]
fn service_batch_answers_equal_per_query_answers() {
    let mut config = toy_config();
    config.selector = SelectorMode::RandomWalk;
    config.randomwalk.type_filter = TypeFilter::None;
    config.randomwalk.ppr.parallel = false;
    let requests = ["Merkel", "Obama", "leader0", "leader1"].map(|s| QueryRequest::entities([s]));

    let batched = toy_service(config.clone()).batch(&requests).unwrap();
    let solo = toy_service(config);
    let plain: Vec<_> = requests
        .iter()
        .map(|request| {
            let mut response = solo.query(request).unwrap();
            response.secs = None;
            response
        })
        .collect();
    assert_eq!(batched, plain, "batching must be answer-invariant");
}

/// An override the effective selector never reads — the overridden
/// selector if set, else the engine's — is a typed `invalid_request`
/// from both `query` and `batch`, raised before any pipeline work: the
/// engine counters do not move.
#[test]
fn overrides_the_effective_selector_ignores_are_rejected() {
    use nck_api::QueryOverrides;

    let randomwalk = || {
        let mut config = toy_config();
        config.selector = SelectorMode::RandomWalk;
        config.randomwalk.type_filter = TypeFilter::None;
        config
    };
    let cases = [
        (
            toy_config(),
            QueryOverrides {
                epsilon: Some(1e-3),
                ..QueryOverrides::default()
            },
            "epsilon",
        ),
        (
            randomwalk(),
            QueryOverrides {
                walks: Some(500),
                ..QueryOverrides::default()
            },
            "walks",
        ),
        (
            toy_config(),
            QueryOverrides {
                selector: Some(SelectorMode::RandomWalk),
                walks: Some(500),
                ..QueryOverrides::default()
            },
            "walks",
        ),
        (
            randomwalk(),
            QueryOverrides {
                selector: Some(SelectorMode::ContextRw),
                epsilon: Some(1e-3),
                ..QueryOverrides::default()
            },
            "epsilon",
        ),
    ];
    for (config, overrides, field) in cases {
        let service = toy_service(config);
        let mut request = QueryRequest::entities(["Merkel", "Obama"]);
        request.overrides = Some(overrides);
        let err = service.query(&request).unwrap_err();
        assert_eq!(err.code(), "invalid_request", "{err}");
        assert!(err.to_string().contains(field), "{err}");
        let plain = QueryRequest::entities(["leader0"]);
        let err = service.batch(&[plain, request]).unwrap_err();
        assert_eq!(err.code(), "invalid_request", "{err}");
        let stats = service.raw_stats();
        assert_eq!(
            (stats.batches, stats.queries, stats.executed_groups),
            (0, 0, 0),
            "rejected before any pipeline work"
        );
    }

    // The same override under the selector that reads it still runs.
    let service = toy_service(toy_config());
    let mut request = QueryRequest::entities(["Merkel", "Obama"]);
    request.overrides = Some(QueryOverrides {
        selector: Some(SelectorMode::RandomWalk),
        type_filter: Some(TypeFilter::None),
        epsilon: Some(1e-3),
        ..QueryOverrides::default()
    });
    assert!(!service.query(&request).unwrap().context.is_empty());
}

/// Every override is bounded before any work, through both `query` and
/// `batch`: the value at each bound is accepted, one past it is a typed
/// `invalid_request`, and a rejected request moves no engine counter.
/// Nothing is clamped.
#[test]
fn override_bounds_are_enforced_before_any_work() {
    use nck_api::QueryOverrides;

    let randomwalk = || {
        let mut config = toy_config();
        config.selector = SelectorMode::RandomWalk;
        config.randomwalk.type_filter = TypeFilter::None;
        config.randomwalk.ppr.parallel = false;
        config
    };
    let nodes = toy_service(toy_config()).num_nodes();
    let walks = toy_config().findnc.context.mining.walks;
    let context_size = |k| QueryOverrides {
        context_size: Some(k),
        ..QueryOverrides::default()
    };
    let walk_budget = |w| QueryOverrides {
        walks: Some(w),
        ..QueryOverrides::default()
    };
    let epsilon = |e| QueryOverrides {
        epsilon: Some(e),
        ..QueryOverrides::default()
    };
    // (engine, overrides, accepted)
    let cases = [
        (toy_config(), context_size(1), true),
        (toy_config(), context_size(nodes), true),
        (toy_config(), context_size(0), false),
        (toy_config(), context_size(nodes + 1), false),
        (randomwalk(), context_size(0), false),
        (toy_config(), walk_budget(1), true),
        (toy_config(), walk_budget(walks), true),
        (toy_config(), walk_budget(0), false),
        (toy_config(), walk_budget(walks + 1), false),
        (toy_config(), walk_budget(1_000_000_000), false),
        (randomwalk(), epsilon(0.0), true),
        (randomwalk(), epsilon(-0.0), true),
        (randomwalk(), epsilon(1.0 - f64::EPSILON / 2.0), true),
        (randomwalk(), epsilon(1.0), false),
        (randomwalk(), epsilon(-f64::from_bits(1)), false),
        (randomwalk(), epsilon(-1.0), false),
        (randomwalk(), epsilon(f64::NAN), false),
        (randomwalk(), epsilon(f64::INFINITY), false),
    ];
    for (config, overrides, accepted) in cases {
        let mut request = QueryRequest::entities(["Merkel", "Obama"]);
        request.overrides = Some(overrides);
        let plain = QueryRequest::entities(["leader0"]);
        let service = toy_service(config);
        let single = service.query(&request);
        let batch = service.batch(&[plain, request]);
        let stats = service.raw_stats();
        if accepted {
            // Accepted means the pipeline ran: it may still find too few
            // candidates, but that is a `pipeline` error, not a rejection.
            for code in [single.err(), batch.err()]
                .iter()
                .flatten()
                .map(|e| e.code())
            {
                assert_ne!(code, "invalid_request", "{overrides:?} is in bounds");
            }
            assert_eq!((stats.batches, stats.queries), (1, 3), "{overrides:?}");
        } else {
            for err in [single.unwrap_err(), batch.unwrap_err()] {
                assert_eq!(err.code(), "invalid_request", "{overrides:?}: {err}");
                assert!(err.to_string().contains("must be in"), "{err}");
            }
            assert_eq!(
                (stats.batches, stats.queries, stats.executed_groups),
                (0, 0, 0),
                "{overrides:?} rejected before any pipeline work"
            );
        }
    }
}
