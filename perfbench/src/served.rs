//! `serve_hot` and `serve_override`: `nck-serve` over TCP, driven by a
//! closed loop of two connections.

use crate::layers;
use crate::report::{self, Failure, Tally};
use crate::setup::{cli_engine_config, setup, setup_layers, TOP};
use crate::trace::Trace;
use crate::{gen, Env, Outcome};
use notable_characteristics::api::{json, Backend, NckService, QueryOverrides, QueryRequest};
use notable_characteristics::core::findnc::FindNc;
use notable_characteristics::core::ppr::RandomWalkSelector;
use notable_characteristics::core::query::Query;
use notable_characteristics::core::sweep::ScoringWorkspace;
use notable_characteristics::engine::SelectorMode;
use notable_characteristics::serve::{
    serve, wire, ServeConfig, ServeMetrics, ServerHandle, WireRequest, WireResponse,
};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One served workload's shape.
pub struct Spec {
    backend: Backend,
    selector: SelectorMode,
    /// The `context_size` override every request carries.
    context_size: Option<usize>,
    /// Requests each connection keeps outstanding.
    outstanding: usize,
    /// The latency tail percentile.
    tail_p: f64,
    /// Answer every pool entry once, untimed, before measuring; those
    /// answers are then the reference.
    warm_up: bool,
}

/// Result-cache hits on the CSR backend: nearly all work is in the
/// serving stack. Pipelined, which keeps throughput steady.
pub const HOT: Spec = Spec {
    backend: Backend::Csr,
    selector: SelectorMode::ContextRw,
    context_size: None,
    outstanding: 16,
    tail_p: 99.0,
    warm_up: true,
};

/// Every request overrides |C| = 30 on a RandomWalk engine over the
/// compact backend, so it runs a PPR per query node outside the engine.
pub const OVERRIDE: Spec = Spec {
    backend: Backend::Compact,
    selector: SelectorMode::RandomWalk,
    context_size: Some(30),
    outstanding: 1,
    tail_p: 85.0,
    warm_up: false,
};

/// Client connections (the machine's two cores each get one generator).
const CONNECTIONS: usize = 2;
/// Query sets in the pool the Zipf picks draw from.
const POOL: usize = 16;
/// Pre-drawn picks per connection (cycled if a run outlasts them).
const PICKS: usize = 1 << 19;
/// In-process replays per pool entry; each layer's median is charged.
const REPLAYS: usize = 3;

/// What a pool entry's answer must be.
enum Expect {
    /// The response bytes between the id and `secs`.
    Body(Vec<u8>),
    /// A typed pipeline rejection with this code.
    Error(String),
}

/// One response frame split around its id and `secs`.
struct Parsed<'a> {
    id: u64,
    body: &'a [u8],
    secs: Option<f64>,
    error: Option<&'a str>,
}

fn parse(payload: &[u8]) -> Result<Parsed<'_>, String> {
    let rest = payload
        .strip_prefix(b"{\"id\":")
        .ok_or("a response that does not start with its id")?;
    let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    let id = std::str::from_utf8(&rest[..digits])
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or("a response with an unreadable id")?;
    let rest = &rest[digits..];
    if let Some(err) = rest.strip_prefix(b",\"err\":{\"error\":\"") {
        let len = err.iter().position(|&b| b == b'"').unwrap_or(err.len());
        let code = std::str::from_utf8(&err[..len]).map_err(|e| e.to_string())?;
        return Ok(Parsed {
            id,
            body: rest,
            secs: None,
            error: Some(code),
        });
    }
    let at = rest
        .windows(8)
        .rposition(|w| w == b",\"secs\":")
        .ok_or("an answer without secs")?;
    let number = rest[at + 8..]
        .strip_suffix(b"}}")
        .ok_or("an answer that does not end after secs")?;
    let secs = std::str::from_utf8(number)
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or("an answer with unreadable secs")?;
    Ok(Parsed {
        id,
        body: &rest[..at],
        secs: Some(secs),
        error: None,
    })
}

/// Checks one answer against its pool entry's reference; returns the
/// answer's `secs`.
fn check(expect: &Expect, parsed: &Parsed<'_>) -> Result<f64, Failure> {
    match (expect, parsed.error, parsed.secs) {
        (Expect::Body(body), None, Some(secs)) if parsed.body == body.as_slice() => Ok(secs),
        (_, Some("overloaded"), _) => Err(Failure::Shed),
        (_, Some("deadline_exceeded"), _) => Err(Failure::DeadlineMiss),
        (_, Some("protocol"), _) => Err(Failure::Protocol),
        (Expect::Error(code), Some(got), _) if code == got => Err(Failure::Rejected),
        _ => Err(Failure::Mismatch),
    }
}

/// A request payload without its leading `{"id":<n>`, checked by the
/// server's own strict decoder.
fn encode_suffix(request: &QueryRequest) -> Result<Vec<u8>, String> {
    let payload = json::to_string(&WireRequest {
        id: 0,
        query: request.clone(),
        deadline_ms: None,
    });
    match wire::decode_request(payload.as_bytes()) {
        Ok(decoded) if decoded.query == *request => {}
        other => return Err(format!("request {payload} does not round-trip: {other:?}")),
    }
    let suffix = payload
        .strip_prefix("{\"id\":0")
        .ok_or("request encoding does not start with its id")?;
    Ok(suffix.as_bytes().to_vec())
}

/// One connection's share of a phase. Only the latencies are kept when
/// untraced, in a buffer touched before the phase, so the client's own
/// memory does not grow with the request count `resident_mb` reports.
#[derive(Default)]
struct ConnRun {
    tally: Tally,
    latency_s: Vec<f64>,
    /// Traced: `(latency, secs, pool key)` of each answer.
    answers: Vec<(f64, f64, u32)>,
    /// Traced: the pool key of each request sent.
    keys: Vec<u32>,
    /// Traced: `(sent, received, id)` of each request.
    spans: Vec<(Instant, Instant, u64)>,
    /// Warm-up: each answer's payload.
    recorded: Vec<(u32, Vec<u8>)>,
}

/// How long a phase sends.
#[derive(Clone, Copy)]
enum Until {
    /// Every pick once (the warm-up).
    Once,
    /// Until this instant; outstanding requests are then drained.
    Deadline(Instant),
}

/// A closed loop over one connection: keeps `outstanding` requests in
/// flight, checking each answer against `expect` (or recording it when
/// `expect` is `None`).
#[allow(clippy::too_many_arguments)]
fn drive(
    addr: SocketAddr,
    picks: &[u32],
    suffixes: &[Vec<u8>],
    expect: Option<&[Expect]>,
    until: Until,
    outstanding: usize,
    id_base: u64,
    traced: bool,
) -> Result<ConnRun, String> {
    let io = |e: std::io::Error| format!("connection to {addr}: {e}");
    let stream = TcpStream::connect(addr).map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(io)?;
    let mut writer = stream.try_clone().map_err(io)?;
    let mut reader = BufReader::with_capacity(1 << 16, stream);
    let mut run = ConnRun::default();
    run.latency_s.resize(picks.len(), 0.0);
    run.latency_s.clear();
    let mut inflight: HashMap<u64, (Instant, u32)> = HashMap::with_capacity(2 * outstanding);
    let mut frame: Vec<u8> = Vec::with_capacity(1024);
    let mut payload: Vec<u8> = Vec::new();
    let mut next = 0usize;
    let more = |next: usize| match until {
        Until::Once => next < picks.len(),
        Until::Deadline(end) => Instant::now() < end,
    };
    let mut send =
        |next: &mut usize, inflight: &mut HashMap<u64, (Instant, u32)>, run: &mut ConnRun| {
            let key = picks[*next % picks.len()];
            let id = id_base + *next as u64;
            frame.clear();
            frame.extend_from_slice(&[0; 4]);
            frame.extend_from_slice(b"{\"id\":");
            frame.extend_from_slice(id.to_string().as_bytes());
            frame.extend_from_slice(&suffixes[key as usize]);
            let len = (frame.len() - 4) as u32;
            frame[..4].copy_from_slice(&len.to_be_bytes());
            inflight.insert(id, (Instant::now(), key));
            if traced {
                run.keys.push(key);
            }
            *next += 1;
            writer.write_all(&frame).map_err(io)
        };
    for _ in 0..outstanding {
        if more(next) {
            send(&mut next, &mut inflight, &mut run)?;
        }
    }
    while !inflight.is_empty() {
        let mut len = [0u8; 4];
        reader.read_exact(&mut len).map_err(io)?;
        payload.resize(u32::from_be_bytes(len) as usize, 0);
        reader.read_exact(&mut payload).map_err(io)?;
        let received = Instant::now();
        let parsed = parse(&payload)?;
        let (sent, key) = inflight
            .remove(&parsed.id)
            .ok_or_else(|| format!("a response for unknown id {}", parsed.id))?;
        let latency = received.duration_since(sent).as_secs_f64();
        run.latency_s.push(latency);
        if traced {
            run.spans.push((sent, received, parsed.id));
        }
        match expect {
            None => {
                run.recorded.push((key, payload.clone()));
                run.tally.answer();
            }
            Some(expect) => match check(&expect[key as usize], &parsed) {
                Ok(secs) => {
                    run.tally.answer();
                    if traced {
                        run.answers.push((latency, secs, key));
                    }
                }
                Err(why) => run.tally.fail(why),
            },
        }
        if more(next) {
            send(&mut next, &mut inflight, &mut run)?;
        }
    }
    Ok(run)
}

/// One measured phase over both connections.
struct Phase {
    conns: Vec<ConnRun>,
    secs: f64,
    inflight: f64,
}

impl Phase {
    fn tally(&self) -> Tally {
        let mut t = Tally::default();
        for c in &self.conns {
            t.merge(&c.tally);
        }
        t
    }

    fn qps(&self) -> f64 {
        self.tally().answered as f64 / self.secs
    }

    fn latencies(&self) -> Vec<f64> {
        self.conns
            .iter()
            .flat_map(|c| c.latency_s.iter().copied())
            .collect()
    }

    fn answers(&self) -> impl Iterator<Item = &(f64, f64, u32)> {
        self.conns.iter().flat_map(|c| c.answers.iter())
    }
}

#[allow(clippy::too_many_arguments)]
fn phase(
    handle: &ServerHandle,
    picks: &[Vec<u32>],
    suffixes: &[Vec<u8>],
    expect: &[Expect],
    seconds: f64,
    outstanding: usize,
    id_base: u64,
    traced: bool,
) -> Result<Phase, String> {
    let addr = handle.addr();
    let stop = AtomicBool::new(false);
    let started = Instant::now();
    let until = Until::Deadline(started + Duration::from_secs_f64(seconds));
    let (conns, samples) = std::thread::scope(|s| {
        // `serve.inflight` is a per-layer metric: the sampler runs only
        // in the traced run, so it does not compete with the untraced one.
        let sampler = traced.then(|| {
            s.spawn(|| {
                let mut samples = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    samples.push(handle.in_flight() as f64);
                    std::thread::sleep(Duration::from_millis(1));
                }
                samples
            })
        });
        let clients: Vec<_> = picks
            .iter()
            .enumerate()
            .map(|(c, picks)| {
                let base = id_base + ((c as u64) << 40);
                s.spawn(move || {
                    drive(
                        addr,
                        picks,
                        suffixes,
                        Some(expect),
                        until,
                        outstanding,
                        base,
                        traced,
                    )
                })
            })
            .collect();
        let conns: Vec<Result<ConnRun, String>> = clients
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect();
        stop.store(true, Ordering::Relaxed);
        let samples = sampler
            .map(|h| h.join().unwrap_or_default())
            .unwrap_or_default();
        (conns, samples)
    });
    let secs = started.elapsed().as_secs_f64();
    Ok(Phase {
        conns: conns.into_iter().collect::<Result<_, _>>()?,
        secs,
        inflight: report::mean(&samples),
    })
}

/// Waits for the server's response counters to catch up with the
/// answers the clients already read.
fn settled(handle: &ServerHandle) -> ServeMetrics {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let m = handle.metrics();
        if m.requests_admitted + m.requests_shed == m.responses_ok + m.responses_err
            || Instant::now() > deadline
        {
            return m;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The reference answers of the pool, per the workload's spec.
fn references(
    spec: &Spec,
    service: &NckService,
    handle: &ServerHandle,
    requests: &[QueryRequest],
    suffixes: &[Vec<u8>],
) -> Result<(Vec<Expect>, Vec<WireResponse>), String> {
    let mut expect = Vec::with_capacity(requests.len());
    let mut responses = Vec::with_capacity(requests.len());
    if spec.warm_up {
        // Half the pool per connection, so two entries are computed at once.
        let order: Vec<u32> = (0..requests.len() as u32).collect();
        let halves: Vec<&[u32]> = order.chunks(order.len().div_ceil(CONNECTIONS)).collect();
        let addr = handle.addr();
        let runs: Vec<Result<ConnRun, String>> = std::thread::scope(|s| {
            let clients: Vec<_> = halves
                .iter()
                .map(|&half| {
                    s.spawn(move || {
                        drive(addr, half, suffixes, None, Until::Once, 1, 1 << 62, false)
                    })
                })
                .collect();
            clients
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("client thread panicked".into()))
                })
                .collect()
        });
        let mut recorded = Vec::with_capacity(requests.len());
        for run in runs {
            recorded.extend(run?.recorded);
        }
        recorded.sort_by_key(|(key, _)| *key);
        if recorded.len() != requests.len() {
            return Err(format!(
                "the warm-up answered {} of {} pool entries",
                recorded.len(),
                requests.len()
            ));
        }
        for (_, payload) in &recorded {
            let parsed = parse(payload)?;
            expect.push(match parsed.error {
                Some(code) => Expect::Error(code.to_owned()),
                None => Expect::Body(parsed.body.to_vec()),
            });
            responses.push(wire::decode_response(payload).map_err(|e| e.to_string())?);
        }
        return Ok((expect, responses));
    }
    let mut config = service.engine().config().clone();
    if let Some(k) = spec.context_size {
        config.findnc.context_size = k;
    }
    let findnc = FindNc::new(config.findnc.clone());
    let selector = match service.engine().edge_weights() {
        Some(weights) => RandomWalkSelector::with_weights(config.randomwalk.clone(), weights),
        None => return Err("a RandomWalk engine without its weight table".into()),
    };
    let graph = service.graph();
    for request in requests {
        let query = Query::by_names(graph, request.entities.iter().map(String::as_str))
            .map_err(|e| e.to_string())?;
        match findnc.discover_with_selector(graph, &query, &selector) {
            Ok(result) => {
                let mut response = layers::expected_response(graph, request, &result);
                response.secs = Some(0.0);
                let wire = WireResponse::ok(0, response);
                expect.push(Expect::Body(parse(&wire.to_payload())?.body.to_vec()));
                responses.push(wire);
            }
            Err(e) => {
                let api = notable_characteristics::api::ApiError::Pipeline(e);
                expect.push(Expect::Error(api.code().to_owned()));
                responses.push(WireResponse::err(0, &api));
            }
        }
    }
    Ok((expect, responses))
}

/// Replays each pool entry the traced phase answered, in process through
/// the layer calls, [`REPLAYS`] times, and charges each answer its
/// entry's median layer times. Returns the layer times summed over the
/// answers and the labels scored.
fn replay(
    service: &NckService,
    requests: &[QueryRequest],
    expect: &[Expect],
    context_size: usize,
    answers: &[&(f64, f64, u32)],
    trace: &mut Trace,
    checks: &mut Vec<String>,
) -> Result<(BTreeMap<&'static str, f64>, f64), String> {
    let weights = service
        .engine()
        .edge_weights()
        .ok_or("a RandomWalk engine without its weight table")?;
    let graph = service.graph();
    let mut ws = ScoringWorkspace::new();
    let mut keys: Vec<u32> = answers.iter().map(|a| a.2).collect();
    keys.sort_unstable();
    keys.dedup();
    let mut per_key: HashMap<u32, (BTreeMap<&'static str, f64>, usize)> = HashMap::new();
    for key in keys {
        let request = &requests[key as usize];
        let query = Query::by_names(graph, request.entities.iter().map(String::as_str))
            .map_err(|e| e.to_string())?;
        let mut runs: Vec<BTreeMap<&'static str, f64>> = Vec::with_capacity(REPLAYS);
        let mut labels = 0;
        for _ in 0..REPLAYS {
            let root = trace.open("replay", None, u64::from(key));
            let layered = layers::randomwalk(
                graph,
                service.engine().config(),
                &weights,
                context_size,
                &query,
                &mut ws,
                trace,
                root,
                u64::from(key),
            )
            .map_err(|e| e.to_string())?;
            trace.close(root);
            let mut expected = layers::expected_response(graph, request, &layered.result);
            expected.secs = Some(0.0);
            let payload = WireResponse::ok(0, expected).to_payload();
            if check(&expect[key as usize], &parse(&payload)?).is_err() {
                checks.push(format!(
                    "the layered replay of pool entry {key} differs from its reference"
                ));
            }
            runs.push(trace.children_ms(root));
            labels = layered.labels;
        }
        let median = runs[0]
            .keys()
            .map(|&name| {
                let times: Vec<f64> = runs.iter().map(|r| r[name]).collect();
                (name, report::median(&times))
            })
            .collect();
        per_key.insert(key, (median, labels));
    }
    let mut layer_ms: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut labels = 0.0;
    for a in answers {
        let (ms, l) = &per_key[&a.2];
        for (name, v) in ms {
            *layer_ms.entry(name).or_insert(0.0) += v;
        }
        labels += *l as f64;
    }
    Ok((layer_ms, labels))
}

/// Runs a served workload.
pub fn run(env: &Env, spec: &Spec) -> Result<Outcome, String> {
    let config = cli_engine_config(spec.selector);
    let (service, setup_s) = setup(&env.nt, spec.backend, &config, crate::SETUPS)?;
    let service = Arc::new(service);
    let requests: Vec<QueryRequest> = gen::pool(&env.dataset, POOL)
        .into_iter()
        .map(|names| {
            let mut r = QueryRequest::entities(names);
            r.top = Some(TOP);
            r.overrides = spec.context_size.map(|k| QueryOverrides {
                context_size: Some(k),
                ..QueryOverrides::default()
            });
            r
        })
        .collect();
    let suffixes = requests
        .iter()
        .map(encode_suffix)
        .collect::<Result<Vec<_>, _>>()?;
    let picks: Vec<Vec<u32>> = (0..CONNECTIONS as u64)
        .map(|c| gen::zipf_picks(POOL, PICKS, env.seed.wrapping_add(c)))
        .collect();
    let handle = serve(Arc::clone(&service), "127.0.0.1:0", ServeConfig::default())
        .map_err(|e| format!("cannot start the server: {e}"))?;
    let (expect, reference_responses) = references(spec, &service, &handle, &requests, &suffixes)?;

    let serve_before = handle.metrics();
    let engine_before = service.raw_stats();
    let measured = phase(
        &handle,
        &picks,
        &suffixes,
        &expect,
        env.seconds,
        spec.outstanding,
        0,
        env.trace,
    )?;
    let engine_delta = report::combine_stats(&service.raw_stats(), &engine_before, |a, b| a - b);
    let resident_mb = report::resident_mb()?;
    let serve_after = handle.metrics();

    let mut tally = measured.tally();
    let mut checks: Vec<String> = Vec::new();
    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    let sent = tally.attempted;
    if spec.warm_up && (engine_delta.result.misses > 0 || engine_delta.result.hits == 0) {
        checks.push(format!(
            "result-cache hit ratio is not 1.0 ({} hits, {} misses): the pool outgrew the cache",
            engine_delta.result.hits, engine_delta.result.misses
        ));
    }
    if spec.selector == SelectorMode::RandomWalk && engine_delta.weight_builds != 1 {
        checks.push(format!(
            "weight_builds is {}, not 1",
            engine_delta.weight_builds
        ));
    }

    if !env.trace {
        let latencies = measured.latencies();
        metrics.insert("throughput_qps", measured.qps());
        metrics.insert("latency_p50_ms", report::median(&latencies) * 1e3);
        let series: Vec<&[f64]> = measured
            .conns
            .iter()
            .map(|c| c.latency_s.as_slice())
            .collect();
        metrics.insert("latency_tail_ms", report::tail(&series, spec.tail_p)? * 1e3);
        metrics.insert("answered_frac", tally.answered_frac());
        metrics.insert("resident_mb", resident_mb);
        metrics.insert("setup_s", setup_s);
    } else {
        report::engine_metrics(&engine_delta, sent, &mut metrics);
        metrics.insert("serve.inflight", measured.inflight);
        metrics.insert(
            "serve.shed",
            (serve_after.requests_shed - serve_before.requests_shed) as f64,
        );
        metrics.insert(
            "serve.deadline_misses",
            (serve_after.deadline_misses - serve_before.deadline_misses) as f64,
        );
        metrics.insert(
            "serve.malformed",
            (serve_after.frames_malformed - serve_before.frames_malformed) as f64,
        );
        let warm_keys: Vec<u32> = if spec.warm_up {
            (0..POOL as u32).collect()
        } else {
            Vec::new()
        };
        let sent_keys = measured.conns.iter().flat_map(|c| c.keys.iter().copied());
        let repeat = gen::repeat_frac(warm_keys.into_iter().chain(sent_keys));
        metrics.insert("client.repeat_frac", repeat);

        let mut trace = Trace::new();
        let traced = phase(
            &handle,
            &picks,
            &suffixes,
            &expect,
            env.seconds,
            spec.outstanding,
            1 << 50,
            true,
        )?;
        tally.merge(&traced.tally());
        metrics.insert(
            "trace.overhead_frac",
            1.0 - traced.qps() / measured.qps().max(f64::MIN_POSITIVE),
        );
        for conn in &traced.conns {
            for &(sent, received, id) in &conn.spans {
                trace.record("client.request", sent, received, None, id);
            }
        }
        let answers: Vec<&(f64, f64, u32)> = traced.answers().collect();
        if let Some(bad) = answers
            .iter()
            .find(|(lat, secs, _)| *secs < 0.0 || *secs > lat + 1e-6)
        {
            checks.push(format!(
                "a request whose service time {} s exceeds its client latency {} s",
                bad.1, bad.0
            ));
        }
        let busy_ms: f64 = answers.iter().map(|a| a.0 * 1e3).sum();
        let service_ms: f64 = answers.iter().map(|a| a.1 * 1e3).sum();
        let n = answers.len().max(1) as f64;
        let overhead: Vec<Vec<f64>> = traced
            .conns
            .iter()
            .map(|c| c.answers.iter().map(|a| (a.0 - a.1) * 1e3).collect())
            .collect();
        let overhead_series: Vec<&[f64]> = overhead.iter().map(Vec::as_slice).collect();
        let all_overhead: Vec<f64> = overhead.concat();

        let (layer_ms, labels) = match spec.context_size {
            Some(k) => replay(
                &service,
                &requests,
                &expect,
                k,
                &answers,
                &mut trace,
                &mut checks,
            )?,
            None => (BTreeMap::new(), 0.0),
        };
        let core_ms: f64 = layer_ms.values().sum();
        let layer = |name: &str| layer_ms.get(name).copied().unwrap_or(0.0);
        for &(span, ms, share) in report::PIPELINE_LAYERS {
            metrics.insert(ms, layer(span) / n);
            metrics.insert(share, report::ratio(layer(span), busy_ms));
        }
        metrics.insert("stats.labels", labels / n);
        metrics.insert("api.service_ms", service_ms / n);
        metrics.insert(
            "api.service_share",
            report::ratio(service_ms - core_ms, busy_ms),
        );
        metrics.insert("serve.overhead_ms", report::mean(&all_overhead));
        metrics.insert(
            "serve.overhead_share",
            report::ratio(busy_ms - service_ms, busy_ms),
        );
        metrics.insert("serve.overhead_p50_ms", report::median(&all_overhead));
        metrics.insert(
            "serve.overhead_tail_ms",
            report::tail(&overhead_series, spec.tail_p)?,
        );

        for (name, v) in setup_layers(&env.nt, spec.backend, &config)? {
            metrics.insert(name, v);
        }
        metrics.insert("graph.resident_mb", service.graph_bytes() as f64 / 1e6);
        let mut plain = requests[0].clone();
        plain.overrides = None;
        service.query(&plain).map_err(|e| e.to_string())?;
        metrics.insert(
            "api.query_us",
            report::micros(200, |_| {
                std::hint::black_box(service.query(&plain).ok());
            }),
        );
        let payloads: Vec<Vec<u8>> = suffixes
            .iter()
            .map(|s| [b"{\"id\":1".as_slice(), s].concat())
            .collect();
        metrics.insert(
            "serve.decode_us",
            report::micros(2000, |i| {
                std::hint::black_box(wire::decode_request(&payloads[i % payloads.len()]).ok());
            }),
        );
        metrics.insert(
            "serve.encode_us",
            report::micros(2000, |i| {
                std::hint::black_box(
                    reference_responses[i % reference_responses.len()].to_payload(),
                );
            }),
        );
        trace.write(&env.trace_path())?;
    }

    let end = settled(&handle);
    if end.requests_admitted + end.requests_shed != end.responses_ok + end.responses_err {
        checks.push(format!(
            "server counters do not reconcile: admitted {} + shed {} != ok {} + err {}",
            end.requests_admitted, end.requests_shed, end.responses_ok, end.responses_err
        ));
    }
    handle.shutdown();
    Ok(Outcome {
        tally,
        metrics,
        checks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use notable_characteristics::api::{ApiError, Characteristic, QueryResponse};

    fn answer(score: f64) -> QueryResponse {
        QueryResponse {
            query: "Angela Merkel,Barack Obama".into(),
            context_size: 2,
            context: vec!["Xi Jinping".into(), "David Cameron".into()],
            characteristics: vec![Characteristic {
                label: "hasChild".into(),
                score,
                notable: score > 0.0,
                inst_p: None,
                card_p: Some(0.0125),
            }],
            secs: Some(0.000_018),
        }
    }

    fn expect(response: QueryResponse) -> Expect {
        let payload = WireResponse::ok(0, response).to_payload();
        Expect::Body(parse(&payload).unwrap().body.to_vec())
    }

    #[test]
    fn an_injected_wrong_answer_is_a_mismatch() {
        let reference = expect(answer(0.9875));
        let served = WireResponse::ok(
            41,
            QueryResponse {
                secs: Some(0.25),
                ..answer(0.9875)
            },
        );
        let payload = served.to_payload();
        let parsed = parse(&payload).unwrap();
        assert_eq!(parsed.id, 41);
        assert_eq!(
            check(&reference, &parsed),
            Ok(0.25),
            "id and secs are not compared"
        );

        let wrong = WireResponse::ok(42, answer(0.9874)).to_payload();
        assert_eq!(
            check(&reference, &parse(&wrong).unwrap()),
            Err(Failure::Mismatch)
        );
    }

    #[test]
    fn typed_errors_are_classified() {
        let reference = expect(answer(0.5));
        let shed = WireResponse::err(7, &ApiError::Overloaded("queue full".into())).to_payload();
        assert_eq!(
            check(&reference, &parse(&shed).unwrap()),
            Err(Failure::Shed)
        );
        let rejected = Expect::Error("pipeline".into());
        let err = WireResponse::err(
            8,
            &ApiError::Pipeline(notable_characteristics::core::error::CoreError::EmptyContext),
        )
        .to_payload();
        assert_eq!(
            check(&rejected, &parse(&err).unwrap()),
            Err(Failure::Rejected)
        );
        assert_eq!(
            check(&reference, &parse(&err).unwrap()),
            Err(Failure::Mismatch)
        );
    }

    #[test]
    fn encoded_requests_decode_strictly_to_the_request() {
        let mut request = QueryRequest::entities(["Angela Merkel", "Barack Obama"]);
        request.top = Some(TOP);
        request.overrides = Some(QueryOverrides {
            context_size: Some(30),
            ..QueryOverrides::default()
        });
        let suffix = encode_suffix(&request).unwrap();
        let payload = [b"{\"id\":9".as_slice(), &suffix].concat();
        let decoded = wire::decode_request(&payload).unwrap();
        assert_eq!((decoded.id, decoded.query), (9, request));
    }
}
