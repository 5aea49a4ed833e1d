//! Batched engine vs one-at-a-time FindNC on a repeated-seed workload —
//! the amortization `nck-engine` exists for.
//!
//! The workload models public-KB traffic: 32 queries over 8 distinct
//! seed pairs, every pair anchored on the domain's most prominent
//! entity (so >50% of all seeds are shared) and each pair repeated 4
//! times. `batched_32` executes it cold through a fresh engine (dedup +
//! worker threads); `batched_32_warm` re-submits it to an
//! already-warm engine (steady-state serving, all result-cache hits);
//! `sequential_32` is the `FindNc::discover` loop the engine replaces.
//!
//! `rw_distinct32_per_seed` vs `rw_distinct32_batch_cold` time 32 cold
//! RandomWalk queries over distinct seeds — all PPR-cache misses —
//! answered one `QueryEngine::run` each vs as one batch, after
//! asserting the two answer identically.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, Criterion};
use nck_bench::small_dataset;
use nck_core::config::{ContextRwConfig, FindNcConfig, PathMiningConfig};
use nck_core::context::TypeFilter;
use nck_core::findnc::{FindNc, SearchResult};
use nck_core::parallel;
use nck_core::query::Query;
use nck_datagen::DomainId;
use nck_engine::{EngineConfig, QueryEngine};
use nck_graph::KnowledgeGraph;
use std::sync::Arc;

fn workload(graph: &KnowledgeGraph) -> Vec<Query> {
    let d = small_dataset();
    let members = &d
        .domain(DomainId::Actors)
        .expect("actors domain exists")
        .members;
    let mut queries = Vec::with_capacity(32);
    for _rep in 0..4 {
        for i in 0..8 {
            queries.push(
                Query::new(graph, vec![members[0], members[1 + i]]).expect("valid seed pair"),
            );
        }
    }
    queries
}

fn pipeline_config() -> FindNcConfig {
    FindNcConfig {
        context: ContextRwConfig {
            mining: PathMiningConfig {
                walks: 4_000,
                max_length: 5,
                seed: 2,
                parallel: true,
            },
            num_metapaths: 5,
            type_filter: TypeFilter::CommonAncestor,
            max_endpoint_fraction: 0.25,
        },
        context_size: 50,
        ..FindNcConfig::default()
    }
}

fn bench_engine(c: &mut Criterion) {
    let d = small_dataset();
    let graph = &d.graph;
    let queries = workload(graph);
    let engine_config = EngineConfig {
        findnc: pipeline_config(),
        ..EngineConfig::default()
    };

    let mut group = c.benchmark_group("engine");
    group.sample_size(10);
    group.bench_function("sequential_32", |b| {
        let findnc = FindNc::new(pipeline_config());
        b.iter(|| {
            for q in &queries {
                findnc.discover(graph, q).unwrap();
            }
        })
    });
    group.bench_function("batched_32", |b| {
        b.iter(|| {
            let engine = QueryEngine::new(graph, engine_config.clone()).unwrap();
            engine.run_batch(&queries).unwrap()
        })
    });
    group.bench_function("batched_32_warm", |b| {
        let engine = QueryEngine::new(graph, engine_config.clone()).unwrap();
        engine.run_batch(&queries).unwrap();
        b.iter(|| engine.run_batch(&queries).unwrap())
    });

    // Cold RandomWalk queries over 32 *distinct* seeds on the
    // quarter-scale planted graph (the same graph and seeds as
    // `BENCH_ppr.json`'s `per_seed_loop_32` row): every query is a
    // PPR-cache miss, 32 solo graph sweeps either way. Answered one `run`
    // each, they are spread over `parallel::thread_count(32)` scoped
    // threads in contiguous ranges; as one batch, the engine's workers
    // pull one distinct request at a time. Scoring is held light (small context, no
    // type filter) so the rows measure the PPR cost inside the full
    // engine stack rather than label scoring. Answers must agree bit for
    // bit before any timing.
    let big = nck_bench::bench_dataset();
    let rw_graph = &big.graph;
    let rw_queries: Vec<Query> = big.domains[1].members[..32]
        .iter()
        .map(|&seed| Query::new(rw_graph, vec![seed]).expect("valid seed"))
        .collect();
    let rw_config = || {
        let mut config = EngineConfig {
            selector: nck_engine::SelectorMode::RandomWalk,
            ..EngineConfig::default()
        };
        config.findnc.context_size = 10;
        config.randomwalk.type_filter = TypeFilter::None;
        config
    };
    let run_per_seed = |engine: &QueryEngine<&KnowledgeGraph>| -> Vec<Arc<SearchResult>> {
        let ranges = parallel::split_range(rw_queries.len(), parallel::thread_count(32));
        std::thread::scope(|s| {
            let workers: Vec<_> = ranges
                .into_iter()
                .map(|range| {
                    let queries = &rw_queries[range];
                    s.spawn(move || {
                        queries
                            .iter()
                            .map(|q| engine.run(q).unwrap())
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect()
        })
    };
    {
        let per_seed = QueryEngine::new(rw_graph, rw_config()).unwrap();
        let batched = QueryEngine::new(rw_graph, rw_config()).unwrap();
        let want = run_per_seed(&per_seed);
        let got = batched.run_batch(&rw_queries).unwrap();
        for (i, (a, b)) in want.iter().zip(&got).enumerate() {
            assert!(
                nck_api::rankings_equal(a, b),
                "batch diverged from per-seed runs at query {i}"
            );
        }
        assert_eq!(
            batched.stats().ppr.misses,
            32,
            "one PageRank per distinct seed"
        );
    }
    group.bench_function("rw_distinct32_per_seed", |b| {
        b.iter(|| {
            let engine = QueryEngine::new(rw_graph, rw_config()).unwrap();
            run_per_seed(&engine)
        })
    });
    group.bench_function("rw_distinct32_batch_cold", |b| {
        b.iter(|| {
            let engine = QueryEngine::new(rw_graph, rw_config()).unwrap();
            engine.run_batch(&rw_queries).unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
