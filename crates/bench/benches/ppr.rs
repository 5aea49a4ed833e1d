//! Personalized-PageRank micro-benches: iteration-count scaling,
//! multi-source cost, and the dense-vs-sparse execution comparison the
//! score-vector refactor is judged by (`BENCH_ppr.json`).
//!
//! `dense_cold` runs the full-vector power iteration (`run_dense`);
//! `sparse_cold` runs the frontier iteration with ε-pruning and a fresh
//! workspace per query; `sparse_warm` reuses one [`PprWorkspace`] across
//! queries (zero steady-state allocation); `sparse_exact_cold` is the
//! ε = 0 frontier path, which must match `dense_cold` bit for bit — the
//! bench asserts that parity up front, so a CI smoke run
//! (`--samples 1`) fails loudly if the sparse path regresses.
//!
//! `per_seed_loop_{8,32}` vs `block_cold_{8,32}` measure the blocked
//! multi-seed kernel against the per-seed loop it amortizes, with
//! every lane asserted bit-identical to its solo run before timing.
//! `block_lane1_loop_8` runs the same 8 seeds as one-lane blocks: the
//! row that keeps the solo frontier executor as the single-seed path.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nck_bench::bench_dataset;
use nck_core::config::PprConfig;
use nck_core::ppr::{BlockPprWorkspace, PersonalizedPageRank, PprWorkspace};
use nck_graph::NodeId;

/// ε for the pruned sparse benches: small enough to keep rankings
/// useful (the dropped mass is a fraction of a percent — the bench
/// asserts the reported L1 bound), large enough to keep the frontier
/// neighborhood-local on the planted graph.
const EPSILON: f64 = 1e-4;

fn config(epsilon: f64) -> PprConfig {
    PprConfig {
        damping: 0.2,
        iterations: 10,
        parallel: false,
        epsilon,
    }
}

fn bench_ppr(c: &mut Criterion) {
    let d = bench_dataset();
    let g = &d.graph;
    let source = d.graph.require_node("Brad Pitt").unwrap();
    let exact = PersonalizedPageRank::new(g, config(0.0)).unwrap();
    let pruned = PersonalizedPageRank::new(g, config(EPSILON)).unwrap();

    // Regression guard, run before any timing: the ε = 0 frontier path
    // must reproduce the dense reference bit for bit (frontier_outcome
    // drives it directly — run() dispatches to run_dense at ε = 0), and
    // the ε-pruned path must respect its own reported L1 bound.
    {
        let dense = exact.run_dense(&[source]);
        let sparse = exact
            .frontier_outcome(&[source], &mut PprWorkspace::new())
            .scores;
        for (i, &want) in dense.iter().enumerate() {
            let got = sparse.get(NodeId::from_index(i));
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "frontier ε=0 diverged from dense at node {i}: {got} vs {want}"
            );
        }
        let outcome = pruned.run_outcome(&[source], &mut PprWorkspace::new());
        let dist = outcome
            .scores
            .l1_distance(&nck_core::score::ScoreVec::from_dense(dense));
        assert!(
            dist <= outcome.l1_bound + 1e-12,
            "ε-pruned run broke its L1 bound: {dist} > {}",
            outcome.l1_bound
        );
    }

    let mut group = c.benchmark_group("ppr");
    group.sample_size(20);
    for iterations in [5usize, 10, 20] {
        let ppr = PersonalizedPageRank::new(
            g,
            PprConfig {
                iterations,
                ..config(0.0)
            },
        )
        .unwrap();
        group.bench_with_input(
            BenchmarkId::new("iterations", iterations),
            &iterations,
            |b, _| b.iter(|| ppr.run(&[source])),
        );
    }

    // Dense vs sparse, cold (fresh allocations per query) and warm
    // (reused workspace).
    group.bench_function("dense_cold", |b| b.iter(|| exact.run_dense(&[source])));
    group.bench_function("sparse_exact_cold", |b| {
        b.iter(|| {
            exact
                .frontier_outcome(&[source], &mut PprWorkspace::new())
                .scores
        })
    });
    group.bench_function("sparse_cold", |b| b.iter(|| pruned.run(&[source])));
    group.bench_function("sparse_warm", |b| {
        let mut ws = PprWorkspace::new();
        b.iter(|| pruned.run_with(&[source], &mut ws))
    });

    // Multi-source personalization cost.
    let sources: Vec<NodeId> = d.domains[1].members[..5].to_vec();
    let ppr = PersonalizedPageRank::new(g, PprConfig::default()).unwrap();
    group.bench_function("multi_source_5", |b| b.iter(|| ppr.run(&sources)));

    // Distinct-seed batch: the blocked kernel (`run_block`, one graph
    // sweep per iteration shared by all lanes) vs the per-seed loop it
    // replaces. Parity is asserted before any timing: every lane must be
    // its solo `frontier_outcome` run bit for bit, so a CI smoke run
    // fails loudly if blocking ever drifts from the single-seed path.
    let batch: Vec<NodeId> = d.domains[1].members[..32].to_vec();
    {
        let blocked = exact.run_block(&batch, &mut BlockPprWorkspace::new());
        let mut ws = PprWorkspace::new();
        for (lane, &seed) in batch.iter().enumerate() {
            let solo = exact.frontier_outcome(&[seed], &mut ws);
            for i in 0..g.num_nodes() {
                let node = NodeId::from_index(i);
                assert_eq!(
                    blocked[lane].scores.get(node).to_bits(),
                    solo.scores.get(node).to_bits(),
                    "blocked lane {lane} diverged from its solo run at node {i}"
                );
            }
        }
    }
    for width in [8usize, 32] {
        let seeds = &batch[..width];
        group.bench_function(format!("per_seed_loop_{width}"), |b| {
            let mut ws = PprWorkspace::new();
            b.iter(|| {
                for &s in seeds {
                    exact.frontier_outcome(&[s], &mut ws);
                }
            })
        });
        if width == 8 {
            group.bench_function("block_lane1_loop_8", |b| {
                let mut ws = BlockPprWorkspace::new();
                b.iter(|| {
                    for &s in seeds {
                        exact.run_block(&[s], &mut ws);
                    }
                })
            });
        }
        group.bench_function(format!("block_cold_{width}"), |b| {
            b.iter(|| exact.run_block(seeds, &mut BlockPprWorkspace::new()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ppr);
criterion_main!(benches);
