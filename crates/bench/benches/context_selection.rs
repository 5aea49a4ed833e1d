//! Figure 5 — context-selection time vs |Q| for both algorithms — and
//! ContextRW selection at `nck`'s defaults on the full-scale yago-like
//! graph, the selection stage of cold profiling.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nck_bench::{bench_dataset, BENCH_WALKS};
use nck_core::config::{ContextRwConfig, PathMiningConfig, PprConfig, RandomWalkConfig};
use nck_core::context::{ContextSelector, TypeFilter};
use nck_core::context_rw::ContextRw;
use nck_core::ppr::RandomWalkSelector;
use nck_core::query::Query;
use nck_datagen::{generate, DomainId, GeneratorConfig};

fn selectors() -> (ContextRw, RandomWalkSelector) {
    let crw = ContextRw::new(ContextRwConfig {
        mining: PathMiningConfig {
            walks: BENCH_WALKS,
            max_length: 5,
            seed: 3,
            parallel: true,
        },
        num_metapaths: 5,
        type_filter: TypeFilter::CommonAncestor,
        max_endpoint_fraction: 0.25,
    });
    let rw = RandomWalkSelector::new(RandomWalkConfig {
        ppr: PprConfig {
            damping: 0.2,
            iterations: 10,
            parallel: true,
            epsilon: 0.0,
        },
        type_filter: TypeFilter::CommonAncestor,
    });
    (crw, rw)
}

fn bench_context_selection(c: &mut Criterion) {
    let d = bench_dataset();
    let (crw, rw) = selectors();
    let mut group = c.benchmark_group("fig5_context_selection");
    group.sample_size(10);
    for spec in d.queries_for(DomainId::Actors) {
        let query = Query::new(&d.graph, d.query_nodes(spec)).unwrap();
        group.bench_with_input(BenchmarkId::new("ContextRW", spec.len()), &query, |b, q| {
            b.iter(|| crw.select(&d.graph, q, 100).unwrap())
        });
        group.bench_with_input(
            BenchmarkId::new("RandomWalk", spec.len()),
            &query,
            |b, q| b.iter(|| rw.select(&d.graph, q, 100).unwrap()),
        );
    }
    group.finish();
}

/// `contextrw_yago_8`: one `ContextRw::select` per query for 8 queries
/// (members 0–1 and 2–4 of each planted domain) on the yago-like graph at
/// scale 1.0 (25,781 nodes), at `nck`'s defaults: 30,000 walks mined in
/// parallel, |C| = 100, the common-ancestor type filter.
fn bench_contextrw_yago(c: &mut Criterion) {
    let d = generate(&GeneratorConfig::yago_like(42).scaled(1.0));
    let queries: Vec<Query> = DomainId::ALL
        .iter()
        .flat_map(|&domain| {
            let members = &d
                .domain(domain)
                .expect("yago-like has every domain")
                .members;
            [members[..2].to_vec(), members[2..5].to_vec()]
        })
        .map(|nodes| Query::new(&d.graph, nodes).expect("valid members"))
        .collect();
    let crw = ContextRw::new(ContextRwConfig {
        mining: PathMiningConfig {
            walks: 30_000,
            parallel: true,
            ..PathMiningConfig::default()
        },
        type_filter: TypeFilter::CommonAncestor,
        ..ContextRwConfig::default()
    });
    // Selection is deterministic: the first pass's contexts pin the rest.
    let first: Vec<_> = queries
        .iter()
        .map(|q| crw.select(&d.graph, q, 100).unwrap().ranked().to_vec())
        .collect();
    let mut group = c.benchmark_group("context_selection");
    group.sample_size(10);
    group.bench_function("contextrw_yago_8", |b| {
        b.iter(|| {
            for (q, want) in queries.iter().zip(&first) {
                let ctx = crw.select(&d.graph, q, 100).unwrap();
                assert_eq!(ctx.ranked(), &want[..]);
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_context_selection, bench_contextrw_yago);
criterion_main!(benches);
