//! Engine batching experiment (beyond the paper): batched, cache-sharing
//! execution vs the one-at-a-time pipeline on a repeated-seed workload.
//!
//! The paper measures per-query latency (Figures 5 and 6); this
//! experiment measures *throughput* under the traffic shape the ROADMAP
//! targets — many queries, few distinct seed sets. The workload replays
//! the actors-domain query sets four times each through the `nck-api`
//! service façade in compare mode: the engine answers it through
//! `run_batch` (dedup + scheduling + shared caches), the baseline loops
//! sequential `FindNc` runs, and the service verifies the rankings are
//! id-for-id identical before reporting.

use crate::env::EvalEnv;
use crate::report::{f3, Report};
use nck_api::{NckService, QueryRequest, WorkloadMode, WorkloadRequest};
use nck_core::config::{
    ContextRwConfig, FindNcConfig, PathMiningConfig, PprConfig, RandomWalkConfig,
};
use nck_core::context::TypeFilter;
use nck_datagen::DomainId;
use nck_engine::{EngineConfig, SelectorMode};

/// Pipeline settings matching the harness's ContextRW experiments.
fn pipeline_config(env: &EvalEnv) -> FindNcConfig {
    FindNcConfig {
        context: ContextRwConfig {
            mining: PathMiningConfig {
                walks: env.walks,
                max_length: 5,
                seed: 0x0C0FFEE,
                parallel: true,
            },
            num_metapaths: 5,
            type_filter: TypeFilter::CommonAncestor,
            max_endpoint_fraction: 0.25,
        },
        context_size: 100,
        ..FindNcConfig::default()
    }
}

/// Batched vs sequential execution of a repeated actors-domain workload.
pub fn engine(env: &EvalEnv) -> Report {
    const REPEATS: usize = 4;
    let mut r = Report::new(
        "engine",
        "batched engine vs one-at-a-time FindNC, repeated actors workload, YAGO-like",
    );
    let specs = env.yago.queries_for(DomainId::Actors);
    let queries: Vec<QueryRequest> = specs
        .iter()
        .map(|s| QueryRequest::entities(s.names.iter().cloned()))
        .collect();

    let service = NckService::builder()
        .knowledge_graph(env.yago.graph.clone())
        .engine(EngineConfig {
            findnc: pipeline_config(env),
            ..EngineConfig::default()
        })
        .build()
        .expect("service builds over the eval dataset");

    // Compare mode runs both phases and errors out if any ranking
    // diverges, so reaching the report *is* the parity check.
    let report = service
        .workload(&WorkloadRequest {
            queries,
            repeat: REPEATS,
            mode: WorkloadMode::Compare,
            chunk: 0,
            clients: None,
        })
        .expect("compare workload verifies identical rankings");

    let seq_secs = report.sequential_secs.expect("compare mode timed both");
    let eng_secs = report.engine_secs.expect("compare mode timed both");
    let stats = report.engine_stats.expect("engine phase snapshots stats");
    let n = report.queries;
    r.table(
        &["mode", "queries", "total (s)", "queries/s"],
        &[
            vec![
                "sequential".into(),
                n.to_string(),
                f3(seq_secs),
                f3(n as f64 / seq_secs.max(1e-12)),
            ],
            vec![
                "batched".into(),
                n.to_string(),
                f3(eng_secs),
                f3(n as f64 / eng_secs.max(1e-12)),
            ],
        ],
    );
    r.line("");
    r.line(format!(
        "speedup {:.2}x; {} of {} executions deduplicated; rankings verified identical",
        report.speedup.unwrap_or(0.0),
        stats.deduplicated,
        stats.submitted,
    ));

    // -- RandomWalk selector: exact (ε = 0) vs ε-pruned frontier PPR ----
    //
    // Both rows execute the sparse frontier core (the dense-vs-sparse
    // representation comparison lives in `benches/ppr.rs` /
    // `BENCH_ppr.json`); the ratio isolates the effect of ε pruning.
    // ε = 0 is verified id-for-id against the sequential baseline
    // (compare mode), ε > 0 trades a bounded L1 error for locality. The
    // weight-builds counter proves the Eq.-1 table is derived once per
    // workload, not once per query.
    let rw_queries: Vec<QueryRequest> = specs
        .iter()
        .map(|s| QueryRequest::entities(s.names.iter().cloned()))
        .collect();
    let rw_workload = |epsilon: f64, mode: WorkloadMode| {
        let service = NckService::builder()
            .knowledge_graph(env.yago.graph.clone())
            .engine(EngineConfig {
                findnc: pipeline_config(env),
                selector: SelectorMode::RandomWalk,
                randomwalk: RandomWalkConfig {
                    ppr: PprConfig {
                        damping: 0.2,
                        iterations: 10,
                        parallel: false,
                        epsilon,
                    },
                    type_filter: TypeFilter::CommonAncestor,
                },
                ..EngineConfig::default()
            })
            .build()
            .expect("randomwalk service builds");
        service
            .workload(&WorkloadRequest {
                queries: rw_queries.clone(),
                repeat: REPEATS,
                mode,
                chunk: 0,
                clients: None,
            })
            .expect("randomwalk workload runs")
    };
    let exact = rw_workload(0.0, WorkloadMode::Compare);
    let sparse = rw_workload(1e-4, WorkloadMode::Engine);
    let exact_secs = exact.engine_secs.expect("engine phase timed");
    let sparse_secs = sparse.engine_secs.expect("engine phase timed");
    r.line("");
    r.table(
        &["randomwalk ppr", "queries", "engine (s)", "weight builds"],
        &[
            vec![
                "exact (eps 0)".into(),
                exact.queries.to_string(),
                f3(exact_secs),
                exact
                    .engine_stats
                    .and_then(|s| s.weight_builds)
                    .map(|w| w.to_string())
                    .unwrap_or_default(),
            ],
            vec![
                "pruned (eps 1e-4)".into(),
                sparse.queries.to_string(),
                f3(sparse_secs),
                sparse
                    .engine_stats
                    .and_then(|s| s.weight_builds)
                    .map(|w| w.to_string())
                    .unwrap_or_default(),
            ],
        ],
    );
    r.line(format!(
        "exact/pruned engine-phase ratio {:.2}x (>1 = pruning faster); \
         eps-0 rankings verified identical to the sequential baseline",
        exact_secs / sparse_secs.max(1e-12),
    ));

    // -- Concurrent serving: N client threads over one shared engine ----
    //
    // The sections above measure one submitter; this one measures the
    // traffic shape the ROADMAP actually targets — many simultaneous
    // clients with heavily overlapping queries. Each client replays the
    // whole workload through `QueryEngine::run` on a shared engine;
    // sharded caches plus single-flight coalescing mean total work stays
    // roughly constant while served queries scale with the client count.
    // Every concurrent response is verified id-for-id against the
    // single-client phase before the numbers are reported.
    let concurrent_queries: Vec<QueryRequest> = specs
        .iter()
        .map(|s| QueryRequest::entities(s.names.iter().cloned()))
        .collect();
    let mut rows = Vec::new();
    for clients in [1usize, 4] {
        let service = NckService::builder()
            .knowledge_graph(env.yago.graph.clone())
            .engine(EngineConfig {
                findnc: pipeline_config(env),
                ..EngineConfig::default()
            })
            .build()
            .expect("service builds over the eval dataset");
        let report = service
            .workload(&WorkloadRequest {
                queries: concurrent_queries.clone(),
                repeat: REPEATS,
                mode: WorkloadMode::Engine,
                chunk: 0,
                clients: Some(clients),
            })
            .expect("concurrent workload verifies identical rankings");
        let c = report.concurrent.expect("clients were requested");
        rows.push(vec![
            clients.to_string(),
            c.queries.to_string(),
            f3(c.secs),
            f3(c.throughput),
            f3(c.p50_ms),
            f3(c.p99_ms),
            (c.stats.result_coalesced.unwrap_or(0)
                + c.stats.context_coalesced.unwrap_or(0)
                + c.stats.ppr_coalesced.unwrap_or(0))
            .to_string(),
        ]);
    }
    r.line("");
    r.table(
        &[
            "clients",
            "queries",
            "total (s)",
            "queries/s",
            "p50 (ms)",
            "p99 (ms)",
            "coalesced",
        ],
        &rows,
    );
    r.line(
        "concurrent rankings verified identical to single-client execution \
         (shared sharded caches + single-flight coalescing are exact)",
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use nck_datagen::ground_truth::CrowdConfig;
    use nck_datagen::{generate, GeneratorConfig};

    #[test]
    fn engine_experiment_verifies_parity_and_reports() {
        let env = EvalEnv {
            yago: generate(&GeneratorConfig::tiny(7)),
            lmdb: generate(&GeneratorConfig::linkedmdb_like(7).scaled(0.12)),
            walks: 2_000,
            crowd: CrowdConfig::default(),
        };
        let r = engine(&env);
        assert!(r.body.contains("batched"));
        assert!(r.body.contains("speedup"));
        assert!(r.body.contains("deduplicated"));
        // Exact-vs-pruned RandomWalk section: parity at ε = 0 was
        // verified (compare mode) and the weight table was built once.
        assert!(r.body.contains("pruned (eps 1e-4)"));
        assert!(r.body.contains("weight builds"));
        // Concurrent serving section: clients column and verified parity.
        assert!(r.body.contains("clients"));
        assert!(r.body.contains("coalesced"));
        assert!(r.body.contains("verified identical to single-client"));
    }
}
