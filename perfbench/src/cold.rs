//! `profile_cold`: offline profiling through `NckService::batch`, every
//! query a miss in every cache.

use crate::layers;
use crate::report::{self, Failure, Tally};
use crate::setup::{build_service, cli_engine_config, setup, setup_layers, TOP};
use crate::trace::Trace;
use crate::{gen, Env, Outcome};
use notable_characteristics::api::{Backend, NckService, QueryRequest, QueryResponse};
use notable_characteristics::core::findnc::FindNc;
use notable_characteristics::core::query::Query;
use notable_characteristics::core::sweep::ScoringWorkspace;
use notable_characteristics::engine::{EngineConfig, EngineStats, SelectorMode};
use notable_characteristics::serve::{wire, WireRequest, WireResponse};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Query sets in the corpus; one pass profiles all of them.
const CORPUS: usize = 40;
/// Queries per `NckService::batch` call.
const BATCH: usize = 2;
/// Latency tail percentile (per-query latency is its batch call's); the
/// measured phase runs until at least ten samples lie beyond it, which
/// takes two passes.
const TAIL_P: f64 = 85.0;

/// The untimed reference: `FindNc::discover` per corpus query, on two
/// threads that each take the next query left.
fn reference(
    service: &NckService,
    config: &EngineConfig,
    requests: &[QueryRequest],
) -> Result<Vec<Result<QueryResponse, String>>, String> {
    let findnc = FindNc::new(config.findnc.clone());
    let graph = service.graph();
    let one = |request: &QueryRequest| -> Result<QueryResponse, String> {
        let query = Query::by_names(graph, request.entities.iter().map(String::as_str))
            .map_err(|e| e.to_string())?;
        let result = findnc.discover(graph, &query).map_err(|e| e.to_string())?;
        Ok(layers::expected_response(graph, request, &result))
    };
    let next = AtomicUsize::new(0);
    let mut out: Vec<(usize, Result<QueryResponse, String>)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        match requests.get(i) {
                            Some(request) => done.push((i, one(request))),
                            None => return done,
                        }
                    }
                })
            })
            .collect();
        let mut out = Vec::with_capacity(requests.len());
        for worker in workers {
            out.extend(worker.join().map_err(|_| "a reference thread panicked")?);
        }
        Ok::<_, String>(out)
    })?;
    out.sort_by_key(|(i, _)| *i);
    Ok(out.into_iter().map(|(_, r)| r).collect())
}

/// Passes over the corpus through `NckService::batch`, each on a
/// freshly built service (built outside the timed calls), until `budget`
/// seconds of batch calls and at least `min_queries` queries have run.
struct Batches {
    tally: Tally,
    latency_s: Vec<f64>,
    busy_s: f64,
    stats: EngineStats,
    /// `(pass, corpus index)` of every query sent.
    sent: Vec<(usize, usize)>,
}

fn batch_passes(
    mut service: NckService,
    env: &Env,
    config: &EngineConfig,
    requests: &[QueryRequest],
    expect: &[Result<QueryResponse, String>],
    budget: f64,
    min_queries: usize,
) -> Result<(Batches, NckService), String> {
    let mut run = Batches {
        tally: Tally::default(),
        latency_s: Vec::new(),
        busy_s: 0.0,
        stats: EngineStats::default(),
        sent: Vec::new(),
    };
    for pass in 0.. {
        let before = service.raw_stats();
        for (i, (chunk, expect)) in requests.chunks(BATCH).zip(expect.chunks(BATCH)).enumerate() {
            run.sent
                .extend((0..chunk.len()).map(|j| (pass, i * BATCH + j)));
            let t = Instant::now();
            let out = service.batch(chunk);
            let secs = t.elapsed().as_secs_f64();
            run.busy_s += secs;
            match out {
                Ok(responses) => {
                    for (got, want) in responses.into_iter().zip(expect) {
                        run.latency_s.push(secs);
                        match want {
                            Ok(want) if *want == QueryResponse { secs: None, ..got } => {
                                run.tally.answer()
                            }
                            _ => run.tally.fail(Failure::Mismatch),
                        }
                    }
                }
                Err(_) => {
                    // The batch aborts on its first rejected query; the
                    // reference says whether a rejection was due.
                    let due = expect.iter().any(Result::is_err);
                    for _ in chunk {
                        run.latency_s.push(secs);
                        run.tally.fail(if due {
                            Failure::Rejected
                        } else {
                            Failure::Mismatch
                        });
                    }
                }
            }
        }
        let pass_stats = report::combine_stats(&service.raw_stats(), &before, |a, b| a - b);
        run.stats = report::combine_stats(&pass_stats, &run.stats, |a, b| a + b);
        if run.busy_s >= budget && run.sent.len() >= min_queries {
            break;
        }
        drop(service);
        service = build_service(&env.nt, Backend::Csr, config)?.0;
    }
    Ok((run, service))
}

/// Passes over the corpus through the layer calls, each query inside an
/// `api.query` span, until `budget` seconds of queries have run.
struct LayeredRun {
    tally: Tally,
    busy_s: f64,
    labels: Vec<usize>,
}

fn layered_passes(
    service: &NckService,
    config: &EngineConfig,
    requests: &[QueryRequest],
    expect: &[Result<QueryResponse, String>],
    budget: f64,
    trace: &mut Trace,
) -> LayeredRun {
    let graph = service.graph().clone();
    let mut ws = ScoringWorkspace::new();
    let mut run = LayeredRun {
        tally: Tally::default(),
        busy_s: 0.0,
        labels: Vec::new(),
    };
    let mut req = 0u64;
    while run.busy_s < budget {
        for (request, want) in requests.iter().zip(expect) {
            let root = trace.open("api.query", None, req);
            let out = Query::by_names(&graph, request.entities.iter().map(String::as_str))
                .and_then(|q| {
                    layers::contextrw(&graph, &config.findnc, &q, &mut ws, trace, root, req)
                })
                .map(|l| {
                    (
                        layers::expected_response(&graph, request, &l.result),
                        l.labels,
                    )
                });
            trace.close(root);
            run.busy_s += trace.spans()[root].ms() / 1e3;
            match (out, want) {
                (Ok((got, labels)), Ok(want)) if got == *want => {
                    run.tally.answer();
                    run.labels.push(labels);
                }
                (Err(_), Err(_)) => run.tally.fail(Failure::Rejected),
                _ => run.tally.fail(Failure::Mismatch),
            }
            req += 1;
        }
    }
    run
}

/// Runs `profile_cold`.
pub fn run(env: &Env) -> Result<Outcome, String> {
    let config = cli_engine_config(SelectorMode::ContextRw);
    let (service, setup_s) = setup(&env.nt, Backend::Csr, &config, crate::SETUPS)?;
    let requests: Vec<QueryRequest> = gen::corpus(&env.dataset, env.seed, CORPUS, BATCH)
        .into_iter()
        .map(|names| {
            let mut r = QueryRequest::entities(names);
            r.top = Some(TOP);
            r
        })
        .collect();
    let expect = reference(&service, &config, &requests)?;

    // The tail needs its samples only where it is reported (untraced).
    let min_queries = if env.trace {
        0
    } else {
        report::min_samples(TAIL_P)
    };
    let (batches, service) = batch_passes(
        service,
        env,
        &config,
        &requests,
        &expect,
        env.seconds,
        min_queries,
    )?;
    let resident_mb = report::resident_mb()?;
    let mut tally = batches.tally.clone();
    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    let batch_qps = batches.tally.answered as f64 / batches.busy_s;

    if !env.trace {
        metrics.insert("throughput_qps", batch_qps);
        metrics.insert("latency_p50_ms", report::median(&batches.latency_s) * 1e3);
        metrics.insert(
            "latency_tail_ms",
            report::tail(&[&batches.latency_s], TAIL_P)? * 1e3,
        );
        metrics.insert("answered_frac", tally.answered_frac());
        metrics.insert("resident_mb", resident_mb);
        metrics.insert("setup_s", setup_s);
        return Ok(Outcome {
            tally,
            metrics,
            checks: Vec::new(),
        });
    }

    report::engine_metrics(&batches.stats, batches.tally.attempted, &mut metrics);
    metrics.insert(
        "client.repeat_frac",
        gen::repeat_frac(batches.sent.iter().copied()),
    );
    for name in [
        "serve.inflight",
        "serve.shed",
        "serve.deadline_misses",
        "serve.malformed",
    ] {
        metrics.insert(name, 0.0);
    }

    let mut trace = Trace::new();
    let layered = layered_passes(
        &service,
        &config,
        &requests,
        &expect,
        env.seconds,
        &mut trace,
    );
    tally.merge(&layered.tally);
    let layered_qps = layered.tally.answered as f64 / layered.busy_s;
    metrics.insert(
        "trace.overhead_frac",
        1.0 - layered_qps / batch_qps.max(f64::MIN_POSITIVE),
    );
    let self_ms = trace.self_ms();
    let span_ms = |name: &str| self_ms.get(name).copied().unwrap_or(0.0);
    let busy_ms = layered.busy_s * 1e3;
    let n = layered.tally.attempted.max(1) as f64;
    for &(span, ms, share) in report::PIPELINE_LAYERS {
        metrics.insert(ms, span_ms(span) / n);
        metrics.insert(share, report::ratio(span_ms(span), busy_ms));
    }
    let labels: Vec<f64> = layered.labels.iter().map(|&l| l as f64).collect();
    metrics.insert("stats.labels", report::mean(&labels));
    metrics.insert("api.service_ms", busy_ms / n);
    metrics.insert(
        "api.service_share",
        report::ratio(span_ms("api.query"), busy_ms),
    );
    for name in [
        "serve.overhead_ms",
        "serve.overhead_p50_ms",
        "serve.overhead_tail_ms",
        "serve.overhead_share",
    ] {
        metrics.insert(name, 0.0);
    }

    for (name, v) in setup_layers(&env.nt, Backend::Csr, &config)? {
        metrics.insert(name, v);
    }
    metrics.insert("graph.resident_mb", service.graph_bytes() as f64 / 1e6);
    service.query(&requests[0]).map_err(|e| e.to_string())?;
    metrics.insert(
        "api.query_us",
        report::micros(200, |_| {
            std::hint::black_box(service.query(&requests[0]).ok());
        }),
    );
    let payloads: Vec<Vec<u8>> = requests
        .iter()
        .map(|r| {
            let w = WireRequest {
                id: 1,
                query: r.clone(),
                deadline_ms: None,
            };
            notable_characteristics::api::json::to_string(&w).into_bytes()
        })
        .collect();
    let responses: Vec<WireResponse> = expect
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .map(|r| WireResponse::ok(1, r.clone()))
        .collect();
    if responses.is_empty() {
        return Err("the pipeline rejected every corpus query".into());
    }
    metrics.insert(
        "serve.decode_us",
        report::micros(2000, |i| {
            std::hint::black_box(wire::decode_request(&payloads[i % payloads.len()]).ok());
        }),
    );
    metrics.insert(
        "serve.encode_us",
        report::micros(2000, |i| {
            std::hint::black_box(responses[i % responses.len()].to_payload());
        }),
    );
    trace.write(&env.trace_path())?;
    Ok(Outcome {
        tally,
        metrics,
        checks: Vec::new(),
    })
}
