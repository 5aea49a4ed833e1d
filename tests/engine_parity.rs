//! Engine cache correctness: batched execution through `nck-engine` must
//! be id-for-id identical to sequential `FindNc::discover` on **both**
//! graph backends, including under forced cache eviction, and a
//! RandomWalk batch identical to one request at a time under any worker
//! cap.

#![forbid(unsafe_code)]

use notable_characteristics::core::config::{ContextRwConfig, FindNcConfig, PathMiningConfig};
use notable_characteristics::core::context::TypeFilter;
use notable_characteristics::core::findnc::{FindNc, SearchResult};
use notable_characteristics::core::query::Query;
use notable_characteristics::datagen::{generate, DomainId, GeneratorConfig};
use notable_characteristics::engine::{EngineConfig, Overrides, QueryEngine, SelectorMode};
use notable_characteristics::graph::{CompactGraph, GraphAccess};
use notable_characteristics::store::graph_view::{to_knowledge_graph, to_triple_store};

fn pipeline_config() -> FindNcConfig {
    FindNcConfig {
        context: ContextRwConfig {
            mining: PathMiningConfig {
                walks: 6_000,
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

/// A repeated-seed workload over the actors domain: 4 distinct seed
/// pairs anchored on the most prominent actor, each repeated twice.
fn workload<G: GraphAccess>(graph: &G, names: &[Vec<String>]) -> Vec<Query> {
    let mut out = Vec::new();
    for _ in 0..2 {
        for q in names {
            out.push(Query::by_names(graph, q).expect("workload query resolves"));
        }
    }
    out
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
        assert_eq!(x.score, y.score, "{label}: scores");
        assert_eq!(x.significance, y.significance, "{label}: significance");
        assert_eq!(x.inst_significance, y.inst_significance, "{label}");
        assert_eq!(x.card_significance, y.card_significance, "{label}");
    }
}

/// Runs the workload through an engine and a sequential loop over the
/// same backend and asserts exact agreement; returns the engine for
/// further inspection.
fn check_backend<'g, G: GraphAccess + Sync>(
    label: &str,
    graph: &'g G,
    names: &[Vec<String>],
    config: EngineConfig,
) -> QueryEngine<&'g G> {
    let queries = workload(graph, names);
    let engine = QueryEngine::new(graph, config).expect("engine builds");
    let batched = engine.run_batch(&queries).expect("batched run");
    let findnc = FindNc::new(pipeline_config());
    for (q, b) in queries.iter().zip(&batched) {
        let sequential = findnc.discover(graph, q).expect("sequential run");
        assert_identical(label, b, &sequential);
    }
    engine
}

fn seed_pairs(dataset: &notable_characteristics::datagen::Dataset) -> Vec<Vec<String>> {
    let members = &dataset
        .domain(DomainId::Actors)
        .expect("actors domain")
        .members;
    (0..4)
        .map(|i| {
            vec![
                dataset.graph.node_name(members[0]).to_owned(),
                dataset.graph.node_name(members[1 + i]).to_owned(),
            ]
        })
        .collect()
}

#[test]
fn engine_matches_sequential_on_both_backends() {
    let dataset = generate(&GeneratorConfig::tiny(13));
    let names = seed_pairs(&dataset);
    let kg = to_knowledge_graph(&to_triple_store(&dataset.graph));
    let cg = CompactGraph::from_graph(&kg);

    let config = EngineConfig {
        findnc: pipeline_config(),
        ..EngineConfig::default()
    };
    let kg_engine = check_backend("csr", &kg, &names, config.clone());
    let cg_engine = check_backend("compact", &cg, &names, config);

    // The batch dedups the repeated half of the workload on both.
    assert_eq!(kg_engine.stats().deduplicated, 4);
    assert_eq!(cg_engine.stats().deduplicated, 4);

    // And the two backends agree with each other, id for id.
    let kq = workload(&kg, &names);
    let cq = workload(&cg, &names);
    let kr = kg_engine.run_batch(&kq).unwrap();
    let cr = cg_engine.run_batch(&cq).unwrap();
    for (a, b) in kr.iter().zip(&cr) {
        assert_identical("cross-backend", a, b);
    }
}

/// The runtime-erasure layer is exact: `ErasedGraph::Csr` and
/// `ErasedGraph::Compact` answer id-for-id identically to their generic
/// counterparts — through the engine, against the sequential baseline,
/// and across each other.
#[test]
fn erased_backends_match_generic_backends() {
    use notable_characteristics::graph::ErasedGraph;
    use std::sync::Arc;

    let dataset = generate(&GeneratorConfig::tiny(13));
    let names = seed_pairs(&dataset);
    let kg = to_knowledge_graph(&to_triple_store(&dataset.graph));
    let cg = Arc::new(CompactGraph::from_graph(&kg));
    let erased_kg = ErasedGraph::new(kg.clone());
    let erased_cg = ErasedGraph::Compact(Arc::clone(&cg));

    let config = EngineConfig {
        findnc: pipeline_config(),
        ..EngineConfig::default()
    };

    // Erased engines vs sequential runs *over the erased graphs*.
    let ekg_engine = check_backend("erased/csr", &erased_kg, &names, config.clone());
    let ecg_engine = check_backend("erased/compact", &erased_cg, &names, config.clone());

    // Erased vs generic, id for id, on both backends.
    let kg_engine = check_backend("csr", &kg, &names, config.clone());
    let cg_engine = check_backend("compact", &*cg, &names, config);
    let queries_kg = workload(&kg, &names);
    let generic_kg = kg_engine.run_batch(&queries_kg).unwrap();
    let erased_kg_results = ekg_engine.run_batch(&workload(&erased_kg, &names)).unwrap();
    for (a, b) in generic_kg.iter().zip(&erased_kg_results) {
        assert_identical("erased-vs-generic/csr", a, b);
    }
    let generic_cg = cg_engine.run_batch(&workload(&*cg, &names)).unwrap();
    let erased_cg_results = ecg_engine.run_batch(&workload(&erased_cg, &names)).unwrap();
    for (a, b) in generic_cg.iter().zip(&erased_cg_results) {
        assert_identical("erased-vs-generic/compact", a, b);
    }
    // And the two erased backends agree with each other.
    for (a, b) in erased_kg_results.iter().zip(&erased_cg_results) {
        assert_identical("erased-cross-backend", a, b);
    }
}

#[test]
fn eviction_under_pressure_keeps_results_exact() {
    let dataset = generate(&GeneratorConfig::tiny(13));
    let names = seed_pairs(&dataset);
    let kg = to_knowledge_graph(&to_triple_store(&dataset.graph));
    let cg = CompactGraph::from_graph(&kg);

    // Caches one entry deep: every distinct query evicts its
    // predecessor, so the second replay recomputes everything.
    let tight = EngineConfig {
        findnc: pipeline_config(),
        ppr_cache_entries: 1,
        context_cache_entries: 1,
        result_cache_entries: 1,
        ..EngineConfig::default()
    };
    let kg_engine = check_backend("csr/tight", &kg, &names, tight.clone());
    assert!(
        kg_engine.stats().result.evictions > 0,
        "one-deep caches must evict under an 8-query workload"
    );
    check_backend("compact/tight", &cg, &names, tight);
}

/// A RandomWalk batch of distinct seed lists, one exact repeat and one
/// ε = 1e-4 override, on both graph formats and under worker caps 1, 2,
/// 16 and unset: every answer equals its own `run_with` on a fresh
/// engine bit for bit, and each distinct (seed, ε) pair is computed
/// once. No two distinct requests share a seed, so no miss is a
/// coalesced waiter.
#[test]
fn randomwalk_batch_matches_single_requests_under_any_worker_cap() {
    use notable_characteristics::core::parallel;

    let dataset = generate(&GeneratorConfig::tiny(13));
    let members = &dataset
        .domain(DomainId::Actors)
        .expect("actors domain")
        .members;
    let name = |i: usize| dataset.graph.node_name(members[i]).to_owned();
    let seed_lists = [vec![0, 1], vec![2, 3], vec![4], vec![5, 6, 7]];
    let sparse = Overrides {
        epsilon: Some(1e-4),
        ..Overrides::default()
    };
    // (seed list, override): the lists plain, the first repeated, the
    // second again under ε = 1e-4.
    let requests: Vec<(Vec<String>, Overrides)> = seed_lists
        .iter()
        .map(|list| (list.clone(), Overrides::default()))
        .chain([(seed_lists[0].clone(), Overrides::default())])
        .chain([(seed_lists[1].clone(), sparse)])
        .map(|(list, o)| (list.into_iter().map(name).collect(), o))
        .collect();
    let distinct_pairs = 8 + 2;

    let kg = to_knowledge_graph(&to_triple_store(&dataset.graph));
    let cg = CompactGraph::from_graph(&kg);
    let config = EngineConfig {
        findnc: pipeline_config(),
        selector: SelectorMode::RandomWalk,
        ..EngineConfig::default()
    };

    fn check<G: GraphAccess + Sync>(
        label: &str,
        graph: &G,
        requests: &[(Vec<String>, Overrides)],
        config: &EngineConfig,
        distinct_pairs: u64,
    ) {
        let batch: Vec<(Query, Overrides)> = requests
            .iter()
            .map(|(names, o)| (Query::by_names(graph, names).expect("seeds resolve"), *o))
            .collect();
        let want: Vec<_> = batch
            .iter()
            .map(|(q, o)| {
                let single = QueryEngine::new(graph, config.clone()).expect("engine builds");
                single.run_with(q, o).expect("single request")
            })
            .collect();
        for cap in [Some(1), Some(2), Some(16), None] {
            parallel::set_thread_cap(cap);
            let engine = QueryEngine::new(graph, config.clone()).expect("engine builds");
            let got = engine.run_batch_with(&batch).expect("batch");
            let run = format!("{label}, cap {cap:?}");
            for (a, b) in want.iter().zip(&got) {
                assert_identical(&run, a, b);
            }
            let stats = engine.stats();
            assert_eq!(stats.deduplicated, 1, "{run}: the exact repeat");
            assert_eq!(stats.ppr.misses, distinct_pairs, "{run}: one run per pair");
        }
    }

    let base = parallel::thread_cap();
    check("csr", &kg, &requests, &config, distinct_pairs);
    check("compact", &cg, &requests, &config, distinct_pairs);
    parallel::set_thread_cap(base);
}
