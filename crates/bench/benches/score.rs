//! Label scoring: the per-label `build_full` oracle vs the node-major
//! sweep `nck_core::sweep` exists for, and FindNC's cold scoring path.
//!
//! The workload is 32 queries over distinct planted seeds (the same
//! quarter-scale graph and seed block as `BENCH_ppr.json` /
//! `BENCH_engine.json`'s `rw_distinct32_*` rows), each scored against a
//! fixed 100-node context so the rows time *scoring only* — no context
//! selection, no caches.
//!
//! `build_per_label_32` vs `build_sweep_32` isolate the §3.2 Inst/Card
//! distribution pass: O(|L|·|Q∪C|) per-label probing vs one O(Σ degree)
//! node-major sweep into an epoch-stamped reusable workspace.
//! `score_sweep_cold_32` times FindNC's full cold scoring path (the sweep
//! plus the per-label tests fanned across workers) at a 500-sample
//! Monte-Carlo budget; `score_cold_32_default` times the same path at
//! `FindNcConfig::default()` (20,000 samples), the configuration users
//! run. Before any timing, at both configurations, every swept label
//! must equal its per-label oracle: the same distributions field for
//! field and the same score bits.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, Criterion};
use nck_core::config::FindNcConfig;
use nck_core::context::Context;
use nck_core::discrimination::{Discrimination, MultinomialDiscrimination};
use nck_core::distributions::{incident_labels, LabelDistributions};
use nck_core::findnc::FindNc;
use nck_core::query::Query;
use nck_core::sweep::{self, ScoringWorkspace};
use nck_graph::{KnowledgeGraph, NodeId};
use nck_stats::MultinomialTest;

/// Paper defaults with a trimmed Monte-Carlo budget: a large budget
/// only buries the distribution pass these rows measure.
fn config() -> FindNcConfig {
    FindNcConfig {
        mc_samples: 500,
        ..FindNcConfig::default()
    }
}

/// Asserts FindNC's cold scoring path matches the per-label oracle on
/// every pair: the swept distributions equal `build_full` field for
/// field, and every scored label's score and significance bits equal the
/// configured test run on the oracle's distributions.
fn assert_matches_oracle(graph: &KnowledgeGraph, pairs: &[(Query, Context)], findnc: &FindNc) {
    let cfg = findnc.config();
    let test = MultinomialDiscrimination::new(
        MultinomialTest::new()
            .with_alpha(cfg.alpha)
            .expect("default alpha is valid")
            .with_samples(cfg.mc_samples)
            .with_seed(cfg.mc_seed),
    );
    let mut ws = ScoringWorkspace::new();
    for (i, (query, context)) in pairs.iter().enumerate() {
        let swept_dists = sweep::build_all(
            graph,
            query,
            context,
            cfg.instance_support,
            cfg.card_binning,
            cfg.include_inverse_labels,
            &mut ws,
        );
        let labels = incident_labels(graph, query, context, cfg.include_inverse_labels);
        assert_eq!(swept_dists.len(), labels.len(), "label cover at query {i}");
        for (dists, &label) in swept_dists.iter().zip(&labels) {
            let want = LabelDistributions::build_full(
                graph,
                query,
                context,
                label,
                cfg.instance_support,
                cfg.card_binning,
            );
            assert_eq!(dists, &want, "distributions diverged at query {i}");
        }
        // `swept_dists` now stands for the oracle, label by label.
        let result = findnc.discover_with_context(graph, query, context).unwrap();
        for ch in &result.characteristics {
            let oracle = &swept_dists[labels.binary_search(&ch.label).expect("incident label")];
            assert_eq!(&ch.distributions, oracle, "distributions at query {i}");
            let want = test.score(oracle).unwrap();
            assert_eq!(
                (ch.score.to_bits(), ch.significance.map(f64::to_bits)),
                (want.score.to_bits(), want.significance().map(f64::to_bits)),
                "score diverged from the per-label oracle at query {i}"
            );
        }
    }
}

fn bench_score(c: &mut Criterion) {
    let d = nck_bench::bench_dataset();
    let graph = &d.graph;
    let members = &d.domains[1].members;
    assert!(
        members.len() >= 32 + 100,
        "planted domain too small for the scoring workload"
    );

    // 32 distinct seeds, each against a 100-node same-domain context
    // (seed excluded, strictly descending similarity scores) — fixed
    // inputs, so every iteration re-scores the same cold work.
    let pairs: Vec<(Query, Context)> = members[..32]
        .iter()
        .enumerate()
        .map(|(i, &seed)| {
            let query = Query::new(graph, vec![seed]).expect("valid seed");
            let ranked: Vec<(NodeId, f64)> = members[32..]
                .iter()
                .cycle()
                .skip(i)
                .take(100)
                .enumerate()
                .map(|(rank, &n)| (n, 1.0 / (rank + 1) as f64))
                .collect();
            (query, Context::from_ranked(ranked))
        })
        .collect();

    // Parity before timing, at both timed configurations: every swept
    // label equals its per-label oracle. Distributions field for field,
    // scores bit for bit.
    let cfg = config();
    let findnc = FindNc::new(cfg.clone());
    let default_findnc = FindNc::new(FindNcConfig::default());
    for findnc in [&findnc, &default_findnc] {
        assert_matches_oracle(graph, &pairs, findnc);
    }

    let mut group = c.benchmark_group("score");
    group.sample_size(10);
    group.bench_function("build_per_label_32", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for (query, context) in &pairs {
                for label in incident_labels(graph, query, context, cfg.include_inverse_labels) {
                    let dists = LabelDistributions::build_full(
                        graph,
                        query,
                        context,
                        label,
                        cfg.instance_support,
                        cfg.card_binning,
                    );
                    total += dists.inst_q.len();
                }
            }
            total
        })
    });
    group.bench_function("build_sweep_32", |b| {
        let mut ws = ScoringWorkspace::new();
        b.iter(|| {
            let mut total = 0usize;
            for (query, context) in &pairs {
                for dists in sweep::build_all(
                    graph,
                    query,
                    context,
                    cfg.instance_support,
                    cfg.card_binning,
                    cfg.include_inverse_labels,
                    &mut ws,
                ) {
                    total += dists.inst_q.len();
                }
            }
            total
        })
    });
    group.bench_function("score_sweep_cold_32", |b| {
        let mut ws = ScoringWorkspace::new();
        b.iter(|| {
            for (query, context) in &pairs {
                findnc
                    .discover_with_context_ws(graph, query, context, &mut ws)
                    .unwrap();
            }
        })
    });
    group.bench_function("score_cold_32_default", |b| {
        let mut ws = ScoringWorkspace::new();
        b.iter(|| {
            for (query, context) in &pairs {
                default_findnc
                    .discover_with_context_ws(graph, query, context, &mut ws)
                    .unwrap();
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_score);
criterion_main!(benches);
