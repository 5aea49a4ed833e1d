//! Concurrent serving throughput: 1/2/4/8 client threads hammering one
//! shared engine (`BENCH_serve.json`) — the workload shape the sharded
//! caches and single-flight layer exist for.
//!
//! Each `clients_N_qM` bench spawns N OS threads over a **fresh shared
//! engine** and has every client replay the full 32-query repeated-seed
//! workload through `QueryEngine::run` (the serving path, one query at
//! a time, never batched). M = N × 32 is the total query count, so
//! aggregate throughput is `M / median_time`: because concurrent misses
//! on the same key coalesce to one computation and the caches are
//! genuinely shared (one `Arc<QueryEngine>`, not per-client copies),
//! total work stays roughly constant as N grows and multi-client
//! throughput exceeds the 1-client baseline.
//!
//! Before timing anything, the bench asserts that an 8-client concurrent
//! run is **id-for-id identical** to sequential `FindNc::discover` for
//! every client and every query — a CI smoke run (`--samples 1`) fails
//! loudly if concurrency ever changes an answer.
//!
//! The second half is the **socket load generator** against a real
//! `nck-serve` server on an ephemeral port, with Zipf(s = 1.0)-skewed
//! key picks over the eight distinct seed pairs:
//!
//! - **closed loop** — eight client connections, each issuing its next
//!   request only after the previous answer returns; measures serving
//!   overhead and throughput at zero queueing.
//! - **open loop** — arrivals follow a fixed schedule *independent of
//!   completions* against a deliberately saturated server
//!   (`handler_delay_ms` fault injection, small queue), so the shed
//!   path is actually exercised; latency is measured from the
//!   **scheduled** send time, not the actual one, which keeps the
//!   queueing delay a lagging sender would hide in the numbers (the
//!   coordinated-omission trap).
//!
//! Both loops merge every connection's samples into one
//! [`LatencySummary`] (never per-client-then-averaged) and append
//! `p50/p99/p999 + shed-rate` rows to `$NCK_BENCH_JSON` next to
//! criterion's own lines. Before the loops run, a socket parity guard
//! asserts eight concurrent connections receive byte-for-byte (after
//! JSON decode, `secs` cleared) the in-process `NckService::query`
//! answers.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, Criterion};
use nck_api::{Backend, LatencySummary, NckService, QueryRequest};
use nck_bench::small_dataset;
use nck_core::config::{ContextRwConfig, FindNcConfig, PathMiningConfig};
use nck_core::context::TypeFilter;
use nck_core::findnc::FindNc;
use nck_core::query::Query;
use nck_datagen::zipf::Zipf;
use nck_datagen::DomainId;
use nck_engine::{EngineConfig, QueryEngine};
use nck_graph::KnowledgeGraph;
use nck_serve::frame::{self, FrameEvent};
use nck_serve::{serve, wire, ServeClient, ServeConfig, ServeMetrics, CLIENT_MAX_FRAME};
use nck_store::graph_view::{to_knowledge_graph, to_triple_store};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The engine bench's repeated-seed workload: 32 queries over 8 distinct
/// seed pairs, all anchored on the domain's most prominent entity.
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

/// Every client replays the whole workload over the one shared engine;
/// per-client result vectors come back in client order.
fn serve_concurrently(
    engine: &QueryEngine<&KnowledgeGraph>,
    queries: &[Query],
    clients: usize,
) -> Vec<Vec<std::sync::Arc<nck_core::findnc::SearchResult>>> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(move || {
                    queries
                        .iter()
                        .map(|q| engine.run(q).expect("query serves"))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    })
}

fn bench_serve(c: &mut Criterion) {
    let d = small_dataset();
    let graph = &d.graph;
    let queries = workload(graph);
    let engine_config = EngineConfig {
        findnc: pipeline_config(),
        ..EngineConfig::default()
    };

    // Parity guard, run before any timing: 8 concurrent clients over a
    // fresh shared engine must answer every query id-for-id identically
    // to a one-at-a-time sequential FindNc loop.
    {
        let engine = QueryEngine::new(graph, engine_config.clone()).unwrap();
        let concurrent = serve_concurrently(&engine, &queries, 8);
        let findnc = FindNc::new(pipeline_config());
        let sequential: Vec<_> = queries
            .iter()
            .map(|q| findnc.discover(graph, q).expect("sequential run"))
            .collect();
        for (client, results) in concurrent.iter().enumerate() {
            for (qi, (got, want)) in results.iter().zip(&sequential).enumerate() {
                assert_eq!(
                    got.context.ranked(),
                    want.context.ranked(),
                    "client {client} query {qi}: concurrent context diverged"
                );
                assert_eq!(
                    got.characteristics.len(),
                    want.characteristics.len(),
                    "client {client} query {qi}"
                );
                for (x, y) in got.characteristics.iter().zip(&want.characteristics) {
                    assert_eq!(x.label, y.label, "client {client} query {qi}: order");
                    assert_eq!(
                        x.score.to_bits(),
                        y.score.to_bits(),
                        "client {client} query {qi}: scores must be bit-identical"
                    );
                }
            }
        }
        // The caches were genuinely shared: only the 8 distinct seed
        // pairs were ever computed, across 8 clients × 32 queries.
        let stats = engine.stats();
        assert_eq!(stats.executed_groups, 8, "one computation per distinct");
        assert_eq!(stats.queries, 8 * 32);
    }

    let mut group = c.benchmark_group("serve");
    group.sample_size(10);
    for clients in [1usize, 2, 4, 8] {
        // Total queries in the bench name so the JSON lines carry
        // everything needed to compute aggregate throughput
        // (total_queries / median_ns).
        let name = format!("clients_{clients}_q{}", clients * queries.len());
        group.bench_function(&name, |b| {
            b.iter(|| {
                // A fresh engine per iteration: cold caches, so the
                // measurement captures coalescing + sharing under
                // concurrent misses, not steady-state cache hits.
                let engine = QueryEngine::new(graph, engine_config.clone()).unwrap();
                serve_concurrently(&engine, &queries, clients)
            })
        });
    }
    group.finish();
}

// ---------------------------------------------------------------------
// Socket load generator
// ---------------------------------------------------------------------

/// Mirrors criterion's `--samples N` / `--samples=N` / `NCK_BENCH_SAMPLES`
/// convention so a `--samples 1` CI smoke run keeps the socket phases
/// short while still exercising parity, both loops, and the reporting.
fn sample_cap() -> Option<usize> {
    let mut args = std::env::args().peekable();
    while let Some(arg) = args.next() {
        if arg == "--samples" {
            if let Some(v) = args.next() {
                return v.parse().ok();
            }
        } else if let Some(v) = arg.strip_prefix("--samples=") {
            return v.parse().ok();
        }
    }
    std::env::var("NCK_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
}

fn smoke() -> bool {
    sample_cap().is_some_and(|cap| cap <= 1)
}

/// The eight distinct seed pairs of the repeated-seed workload, as
/// wire-schema requests. Index 0 is the Zipf head: under s = 1.0 skew it
/// receives ~37% of all picks, so the generator stresses the cache/
/// single-flight hot path the way a real skewed keyspace would.
fn socket_requests() -> Vec<QueryRequest> {
    let d = small_dataset();
    let members = &d.domain(DomainId::Actors).expect("actors domain").members;
    let name = |i: usize| d.graph.node_name(members[i]).to_owned();
    (0..8)
        .map(|i| QueryRequest::entities([name(0), name(1 + i)]))
        .collect()
}

/// The served façade over the same dataset and pipeline config the
/// in-process benches use.
fn socket_service() -> Arc<NckService> {
    let engine = EngineConfig {
        findnc: pipeline_config(),
        ..EngineConfig::default()
    };
    Arc::new(
        NckService::builder()
            .knowledge_graph(to_knowledge_graph(&to_triple_store(&small_dataset().graph)))
            .backend(Backend::Csr)
            .engine(engine)
            .build()
            .expect("service builds"),
    )
}

/// Socket parity guard, run before any timing: eight concurrent client
/// connections each replay all eight requests through real sockets, and
/// every decoded response (`secs` cleared) must equal the in-process
/// [`NckService::query`] answer from the very same service instance.
fn assert_socket_parity(service: &Arc<NckService>, requests: &[QueryRequest]) {
    let reference: Vec<_> = requests
        .iter()
        .map(|request| {
            let mut response = service.query(request).expect("in-process query");
            response.secs = None;
            response
        })
        .collect();

    let handle =
        serve(Arc::clone(service), "127.0.0.1:0", ServeConfig::default()).expect("server binds");
    let addr = handle.addr();
    std::thread::scope(|s| {
        for t in 0..8usize {
            let reference = &reference;
            s.spawn(move || {
                let mut client = ServeClient::connect(addr).expect("client connects");
                for i in 0..requests.len() {
                    let qi = (i + t) % requests.len();
                    let mut served = client.call(&requests[qi]).expect("served query");
                    served.secs = None;
                    assert_eq!(
                        served, reference[qi],
                        "client {t} query {qi}: served response diverged from in-process"
                    );
                }
            });
        }
    });
    let metrics = handle.shutdown();
    assert_eq!(metrics.responses_ok, 64, "all 8×8 parity queries succeed");
    assert_eq!(metrics.requests_shed, 0);
    assert_eq!(metrics.frames_malformed, 0);
}

/// Closed loop: each connection issues its next request only after the
/// previous answer arrives. Returns the merged latency summary, the
/// server metrics, and the measured wall time.
fn closed_loop(
    service: &Arc<NckService>,
    requests: &[QueryRequest],
    clients: usize,
    per_client: usize,
) -> (LatencySummary, ServeMetrics, f64) {
    let handle =
        serve(Arc::clone(service), "127.0.0.1:0", ServeConfig::default()).expect("server binds");
    let addr = handle.addr();
    let started = Instant::now();
    let samples: Vec<f64> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..clients)
            .map(|t| {
                s.spawn(move || {
                    let zipf = Zipf::new(requests.len(), 1.0);
                    let mut rng = StdRng::seed_from_u64(0xC105ED + t as u64);
                    let mut client = ServeClient::connect(addr).expect("client connects");
                    let mut latencies = Vec::with_capacity(per_client);
                    for _ in 0..per_client {
                        let pick = zipf.sample(&mut rng);
                        let sent = Instant::now();
                        client.call(&requests[pick]).expect("closed-loop call");
                        latencies.push(sent.elapsed().as_secs_f64());
                    }
                    latencies
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();
    let metrics = handle.shutdown();
    (LatencySummary::from_secs(samples), metrics, elapsed)
}

/// Open loop against a saturated server. Each connection runs a sender
/// thread pacing frames to a fixed schedule and a reader thread
/// stamping arrivals off a cloned stream; latency is `arrival −
/// scheduled send`, so a sender that falls behind cannot hide queueing
/// delay. Returns the merged summary over successful responses, the
/// client-observed shed count, and the server metrics.
fn open_loop(
    service: &Arc<NckService>,
    requests: &[QueryRequest],
    conns: usize,
    per_conn: usize,
    rate_per_sec: f64,
) -> (LatencySummary, u64, ServeMetrics) {
    let config = ServeConfig {
        workers: 2,
        queue_depth: 16,
        handler_delay_ms: 2, // fault injection: capacity ≈ 1000 req/s
        ..ServeConfig::default()
    };
    let handle = serve(Arc::clone(service), "127.0.0.1:0", config).expect("server binds");
    let addr = handle.addr();

    // One global arrival schedule, interleaved round-robin across the
    // connections; the epoch sits slightly in the future so every
    // sender is connected before its first slot.
    let start = Instant::now() + Duration::from_millis(50);
    let schedules: Vec<Vec<Instant>> = (0..conns)
        .map(|c| {
            (0..per_conn)
                .map(|k| start + Duration::from_secs_f64((k * conns + c) as f64 / rate_per_sec))
                .collect()
        })
        .collect();

    let (samples, shed, undecoded) = std::thread::scope(|s| {
        let mut readers = Vec::with_capacity(conns);
        for (c, schedule) in schedules.iter().enumerate() {
            let stream = TcpStream::connect(addr).expect("open-loop connects");
            stream.set_nodelay(true).expect("nodelay");
            let read_side = stream.try_clone().expect("stream clones");
            s.spawn(move || {
                let mut stream = stream;
                let zipf = Zipf::new(requests.len(), 1.0);
                let mut rng = StdRng::seed_from_u64(0x09E7 + c as u64);
                for (k, &when) in schedule.iter().enumerate() {
                    let now = Instant::now();
                    if when > now {
                        std::thread::sleep(when - now);
                    }
                    let request = wire::WireRequest {
                        id: (k + 1) as u64,
                        query: requests[zipf.sample(&mut rng)].clone(),
                        deadline_ms: None,
                    };
                    let payload = nck_api::json::to_string(&request).into_bytes();
                    frame::write_frame(&mut stream, &payload, CLIENT_MAX_FRAME)
                        .expect("open-loop send");
                }
                // Half-close: the server answers everything admitted,
                // then closes, which ends the reader's loop below.
                stream
                    .shutdown(std::net::Shutdown::Write)
                    .expect("half-close");
            });
            readers.push(s.spawn(move || {
                let mut read_side = read_side;
                let mut oks = Vec::new();
                let (mut shed, mut undecoded) = (0u64, 0u64);
                loop {
                    match frame::read_frame(&mut read_side, CLIENT_MAX_FRAME, u32::MAX)
                        .expect("open-loop read")
                    {
                        FrameEvent::Frame(payload) => {
                            let arrival = Instant::now();
                            let response =
                                wire::decode_response(&payload).expect("response decodes");
                            let scheduled = schedule[(response.id - 1) as usize];
                            if response.ok.is_some() {
                                oks.push(
                                    arrival.saturating_duration_since(scheduled).as_secs_f64(),
                                );
                            } else if response
                                .err
                                .as_ref()
                                .is_some_and(|e| e.error == "overloaded")
                            {
                                shed += 1;
                            } else {
                                undecoded += 1;
                            }
                        }
                        FrameEvent::Eof => break,
                        other => panic!("unexpected frame event: {other:?}"),
                    }
                }
                (oks, shed, undecoded)
            }));
        }
        let mut all = Vec::new();
        let (mut shed, mut undecoded) = (0u64, 0u64);
        for reader in readers {
            let (oks, s_, u) = reader.join().expect("reader thread");
            all.extend(oks);
            shed += s_;
            undecoded += u;
        }
        (all, shed, undecoded)
    });
    let metrics = handle.shutdown();
    assert_eq!(
        undecoded, 0,
        "every response is ok or a typed overload shed"
    );
    (LatencySummary::from_secs(samples), shed, metrics)
}

/// Appends one load-generator row next to criterion's own lines in
/// `$NCK_BENCH_JSON` (and echoes it to stdout either way).
fn report_row(bench: &str, summary: &LatencySummary, shed_rate: f64, offered_rps: f64) {
    let line = format!(
        "{{\"group\":\"serve_socket\",\"bench\":\"{bench}\",\"samples\":{},\
         \"p50_ms\":{:.3},\"p99_ms\":{:.3},\"p999_ms\":{:.3},\"max_ms\":{:.3},\
         \"shed_rate\":{:.4},\"offered_rps\":{:.1}}}",
        summary.count,
        summary.p50_ms,
        summary.p99_ms,
        summary.p999_ms,
        summary.max_ms,
        shed_rate,
        offered_rps
    );
    println!("{line}");
    if let Ok(path) = std::env::var("NCK_BENCH_JSON") {
        use std::io::Write as _;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .expect("bench json opens");
        writeln!(file, "{line}").expect("bench json appends");
    }
}

fn bench_serve_socket(_c: &mut Criterion) {
    let requests = socket_requests();
    let service = socket_service();
    assert_socket_parity(&service, &requests);

    // Closed loop: 8 connections at zero queueing. The caches are warm
    // after the parity pass, so this measures serving overhead — frame
    // + JSON round trip, admission, dispatch — not pipeline compute.
    let per_client = if smoke() { 10 } else { 150 };
    let (summary, metrics, elapsed) = closed_loop(&service, &requests, 8, per_client);
    assert_eq!(metrics.requests_shed, 0, "a closed loop never saturates");
    assert_eq!(metrics.responses_ok as usize, 8 * per_client);
    report_row(
        &format!("closed_loop_clients8_q{}", 8 * per_client),
        &summary,
        0.0,
        summary.count as f64 / elapsed,
    );

    // Open loop at ~1.6× the saturated server's capacity: shedding is
    // the expected, asserted behavior.
    let per_conn = if smoke() { 40 } else { 400 };
    let (summary, shed, metrics) = open_loop(&service, &requests, 4, per_conn, 1_600.0);
    let offered = (4 * per_conn) as u64;
    assert_eq!(
        shed, metrics.requests_shed,
        "client-observed sheds match server metrics"
    );
    assert_eq!(
        summary.count as u64 + shed,
        offered,
        "every request answered"
    );
    assert!(shed > 0, "an open loop at 1.6x capacity must shed");
    report_row(
        &format!("open_loop_rate1600_q{offered}"),
        &summary,
        shed as f64 / offered as f64,
        1_600.0,
    );
}

criterion_group!(benches, bench_serve, bench_serve_socket);
criterion_main!(benches);
