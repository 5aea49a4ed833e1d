//! `nck` — command-line front end for notable-characteristics search.
//!
//! A thin shell over [`nck_api`]: every query answer flows through
//! [`NckService`] and its serde request/response types, so `--json`
//! output *is* the service wire format. Three subcommands cover the
//! workload lifecycle:
//!
//! - `nck gen`   — generate a synthetic dataset (YAGO-like / LinkedMDB-like
//!   / tiny) and persist it as N-Triples, optionally with a ready-to-run
//!   batch query file;
//! - `nck build-graph` — compile N-Triples (or a generated scale graph)
//!   into the compact binary graph format, which `--graph-format compact`
//!   then opens zero-copy (memory-mapped) instead of re-parsing;
//! - `nck query` — run one query through the batched engine and print the
//!   ranked characteristics;
//! - `nck batch` — run a batch/repeated-query workload through the engine,
//!   sequentially, or both (`--mode compare`), reporting wall times, the
//!   speedup, and the engine's cache statistics;
//! - `nck serve` — put the service behind a TCP socket speaking
//!   length-prefixed framed JSON (the same request/response schema), with
//!   bounded admission, per-request deadlines and graceful drain on
//!   stdin EOF.
//!
//! Output is human-readable tables by default, or JSON with `--json`.

#![forbid(unsafe_code)]

use notable_characteristics::api::{
    json, Backend, NckService, QueryRequest, QueryResponse, WorkloadMode, WorkloadReport,
    WorkloadRequest,
};
use notable_characteristics::core::config::{PathMiningConfig, PprConfig};
use notable_characteristics::core::context::TypeFilter;
use notable_characteristics::datagen::{generate, generate_scale, GeneratorConfig, ScaleConfig};
use notable_characteristics::engine::{EngineConfig, SelectorMode};
use notable_characteristics::graph::io::save_compact;
use notable_characteristics::serve::{serve, ServeConfig, ServeMetrics};
use notable_characteristics::store::graph_view::{to_knowledge_graph, to_triple_store};
use notable_characteristics::store::ntriples::{read_ntriples, write_ntriples};
use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "\
nck — notable characteristics search through knowledge graphs

USAGE:
  nck gen   --kind tiny|yago|lmdb --out FILE [--seed N] [--scale F]
            [--queries-out FILE]
  nck build-graph (--in FILE.nt | --scale small|medium|large) --out FILE.nckg
            [--seed N]
  nck query --graph FILE --query \"A,B,…\" [options]
  nck batch --graph FILE --queries FILE [--repeat N]
            [--mode engine|sequential|compare] [--chunk N] [--clients N]
            [options]
  nck serve --graph FILE [--addr HOST:PORT] [--workers N]
            [--queue-depth N] [--max-connections N] [--max-frame-bytes N]
            [--default-deadline-ms N] [options]

query/batch options:
  --graph-format nt|compact graph file format (default: nt). compact files
                            (from nck build-graph) open zero-copy and fix
                            the backend to compact
  --backend csr|compact     graph backend (default: csr)
  --selector contextrw|randomwalk   context selector (default: contextrw)
  --type-filter common|query|none   candidate type filter (default: common)
  --context-size N          context size |C| (default: 100)
  --walks N                 PathMining walk budget (default: 30000)
  --epsilon F               randomwalk sparse-PPR pruning threshold
                            (default: 0 = exact dense execution)
  --top N                   characteristics to print per query (default: 10)
  --threads N               cap worker threads (default: derive from the
                            machine; results are identical under any cap)
  --json                    emit JSON instead of tables
  --no-parallel             single-threaded execution

The batch query file holds one query per line: comma-separated entity
names (names containing a comma cannot be expressed); blank lines and
lines starting with '#' are skipped. --repeat N replays the whole file
N times (a repeated-seed workload); --chunk N streams the workload
through the engine in batches of N; --clients N additionally replays
the workload from N concurrent client threads over one shared engine,
reporting aggregate throughput and latency percentiles (responses are
verified id-for-id against the single-client run).

nck serve binds --addr (default 127.0.0.1:4517; port 0 picks an
ephemeral port, printed on startup), serves framed JSON requests until
stdin reaches EOF, then drains gracefully: new work is shed with a typed
overloaded error while every already-admitted request is finished and
flushed. Final serving metrics go to stdout (JSON with --json).";

/// How `--graph` should be interpreted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum GraphFormat {
    /// N-Triples text, re-parsed on every load.
    #[default]
    Ntriples,
    /// The compact binary image from `nck build-graph`, opened zero-copy.
    Compact,
}

/// Parsed command-line options shared by `query` and `batch`.
#[derive(Debug)]
struct RunOpts {
    graph: String,
    format: GraphFormat,
    /// `Some` only when `--backend` was given explicitly: a compact graph
    /// file fixes the backend, and an explicit conflicting choice must
    /// error instead of being silently dropped.
    backend: Option<Backend>,
    selector: SelectorMode,
    type_filter: TypeFilter,
    context_size: usize,
    walks: usize,
    epsilon: f64,
    top: usize,
    threads: Option<usize>,
    json: bool,
    parallel: bool,
}

impl Default for RunOpts {
    fn default() -> Self {
        Self {
            graph: String::new(),
            format: GraphFormat::Ntriples,
            backend: None,
            selector: SelectorMode::ContextRw,
            type_filter: TypeFilter::CommonAncestor,
            context_size: 100,
            walks: 30_000,
            epsilon: 0.0,
            top: 10,
            threads: None,
            json: false,
            parallel: true,
        }
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("nck: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("build-graph") => cmd_build_graph(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("batch") => cmd_batch(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("--help") | Some("-h") | Some("help") => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => fail(&format!("unknown subcommand {other:?}")),
        None => fail("a subcommand is required"),
    }
}

/// Pulls a `--flag value` pair out of `args`; returns leftovers it does
/// not recognize so each subcommand can reject them. Passing the same
/// flag twice is an error — the old behavior silently left the second
/// occurrence behind, where it was later misparsed as a positional.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    if let Some(i) = args.iter().position(|a| a == flag) {
        if i + 1 >= args.len() {
            return Err(format!("{flag} needs a value"));
        }
        let v = args.remove(i + 1);
        args.remove(i);
        if args.iter().any(|a| a == flag) {
            return Err(format!("{flag} given more than once"));
        }
        Ok(Some(v))
    } else {
        Ok(None)
    }
}

fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(i) = args.iter().position(|a| a == flag) {
        args.remove(i);
        true
    } else {
        false
    }
}

fn parse_num<T: std::str::FromStr>(v: &str, flag: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("{flag}: bad value {v:?}"))
}

fn parse_run_opts(args: &mut Vec<String>) -> Result<RunOpts, String> {
    let mut o = RunOpts::default();
    if let Some(v) = take_flag(args, "--graph")? {
        o.graph = v;
    }
    if let Some(v) = take_flag(args, "--graph-format")? {
        o.format = match v.as_str() {
            "nt" => GraphFormat::Ntriples,
            "compact" => GraphFormat::Compact,
            _ => return Err(format!("--graph-format must be nt or compact, got {v:?}")),
        };
    }
    if let Some(v) = take_flag(args, "--backend")? {
        o.backend = Some(match v.as_str() {
            "csr" => Backend::Csr,
            "compact" => Backend::Compact,
            _ => return Err(format!("--backend must be csr or compact, got {v:?}")),
        });
    }
    if let Some(v) = take_flag(args, "--selector")? {
        o.selector = match v.as_str() {
            "contextrw" => SelectorMode::ContextRw,
            "randomwalk" => SelectorMode::RandomWalk,
            _ => {
                return Err(format!(
                    "--selector must be contextrw or randomwalk, got {v:?}"
                ))
            }
        };
    }
    if let Some(v) = take_flag(args, "--type-filter")? {
        o.type_filter = match v.as_str() {
            "common" => TypeFilter::CommonAncestor,
            "query" => TypeFilter::QueryTypes,
            "none" => TypeFilter::None,
            _ => {
                return Err(format!(
                    "--type-filter must be common, query or none, got {v:?}"
                ))
            }
        };
    }
    if let Some(v) = take_flag(args, "--context-size")? {
        o.context_size = parse_num(&v, "--context-size")?;
    }
    if let Some(v) = take_flag(args, "--walks")? {
        o.walks = parse_num(&v, "--walks")?;
    }
    if let Some(v) = take_flag(args, "--epsilon")? {
        o.epsilon = parse_num(&v, "--epsilon")?;
        if !(o.epsilon >= 0.0 && o.epsilon.is_finite()) {
            return Err(format!(
                "--epsilon must be finite and non-negative, got {v:?}"
            ));
        }
    }
    if let Some(v) = take_flag(args, "--top")? {
        o.top = parse_num(&v, "--top")?;
    }
    if let Some(v) = take_flag(args, "--threads")? {
        let threads: usize = parse_num(&v, "--threads")?;
        if threads == 0 {
            return Err("--threads must be at least 1".into());
        }
        o.threads = Some(threads);
    }
    o.json = take_switch(args, "--json");
    o.parallel = !take_switch(args, "--no-parallel");
    Ok(o)
}

/// [`parse_run_opts`] as the last parse step of `query` and `batch`:
/// `--graph` is required, and any argument still left is unknown.
fn finish_run_opts(args: &mut Vec<String>) -> Result<RunOpts, String> {
    let opts = parse_run_opts(args)?;
    if opts.graph.is_empty() {
        return Err("--graph is required".into());
    }
    if let Some(junk) = args.first() {
        return Err(format!("unexpected argument {junk:?}"));
    }
    Ok(opts)
}

/// The exit status of a command's run: 1 with the error on stderr when
/// it failed.
fn exit_status(run: Result<(), String>) -> ExitCode {
    match run {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("nck: {e}");
            ExitCode::FAILURE
        }
    }
}

fn engine_config(o: &RunOpts) -> EngineConfig {
    let mut cfg = EngineConfig::default();
    cfg.findnc.context.mining = PathMiningConfig {
        walks: o.walks,
        parallel: o.parallel,
        ..PathMiningConfig::default()
    };
    cfg.findnc.context.type_filter = o.type_filter;
    cfg.findnc.context_size = o.context_size;
    cfg.selector = o.selector;
    cfg.randomwalk.type_filter = o.type_filter;
    cfg.randomwalk.ppr = PprConfig {
        parallel: o.parallel,
        epsilon: o.epsilon,
        ..PprConfig::default()
    };
    cfg.parallel = o.parallel;
    cfg.threads = o.threads;
    cfg
}

/// Builds the service and echoes the load line the CLI has always
/// printed.
fn load_service(opts: &RunOpts) -> Result<NckService, String> {
    let mut builder = NckService::builder().engine(engine_config(opts));
    builder = match opts.format {
        GraphFormat::Ntriples => builder.ntriples(&opts.graph),
        GraphFormat::Compact => builder.compact_file(&opts.graph),
    };
    if let Some(backend) = opts.backend {
        builder = builder.backend(backend);
    }
    let service = builder.build().map_err(|e| e.to_string())?;
    eprintln!(
        "loaded {} backend: {} nodes, {} stored edges, ~{} resident bytes ({:.3}s)",
        service.backend_name(),
        service.num_nodes(),
        service.num_stored_edges(),
        service.graph_bytes(),
        service.load_secs()
    );
    Ok(service)
}

/// Turns one comma-separated query line into a request tagged with the
/// raw line (so responses echo exactly what was submitted).
fn request_for_line(line: &str, top: usize) -> QueryRequest {
    let mut req = QueryRequest::entities(
        line.split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_owned),
    );
    req.label = Some(line.to_owned());
    req.top = Some(top);
    req
}

// ---------------------------------------------------------------------------
// nck gen
// ---------------------------------------------------------------------------

/// `nck gen`'s arguments.
struct GenArgs {
    config: GeneratorConfig,
    out: String,
    queries_out: Option<String>,
}

fn parse_gen(args: &mut Vec<String>) -> Result<GenArgs, String> {
    let kind = take_flag(args, "--kind")?.ok_or("--kind is required")?;
    let out = take_flag(args, "--out")?.ok_or("--out is required")?;
    let seed: u64 = match take_flag(args, "--seed")? {
        Some(v) => parse_num(&v, "--seed")?,
        None => 42,
    };
    let scale: f64 = match take_flag(args, "--scale")? {
        Some(v) => parse_num(&v, "--scale")?,
        None => 1.0,
    };
    let queries_out = take_flag(args, "--queries-out")?;
    if let Some(junk) = args.first() {
        return Err(format!("unexpected argument {junk:?}"));
    }
    let config = match kind.as_str() {
        "tiny" => GeneratorConfig::tiny(seed),
        "yago" => GeneratorConfig::yago_like(seed).scaled(scale),
        "lmdb" => GeneratorConfig::linkedmdb_like(seed).scaled(scale),
        _ => return Err(format!("--kind must be tiny, yago or lmdb, got {kind:?}")),
    };
    Ok(GenArgs {
        config,
        out,
        queries_out,
    })
}

fn cmd_gen(args: &[String]) -> ExitCode {
    let mut args = args.to_vec();
    let GenArgs {
        config,
        out,
        queries_out,
    } = match parse_gen(&mut args) {
        Ok(parsed) => parsed,
        Err(e) => return fail(&e),
    };
    exit_status((|| {
        let started = Instant::now();
        let dataset = generate(&config);
        let store = to_triple_store(&dataset.graph);
        let file =
            std::fs::File::create(&out).map_err(|e| format!("cannot create {out:?}: {e}"))?;
        write_ntriples(&store, std::io::BufWriter::new(file))
            .map_err(|e| format!("cannot write {out}: {e}"))?;
        eprintln!(
            "wrote {} ({} nodes, {} logical edges, {} statements) in {:.1}s",
            out,
            dataset.graph.num_nodes(),
            dataset.graph.num_logical_edges(),
            store.len(),
            started.elapsed().as_secs_f64()
        );
        if let Some(qpath) = queries_out {
            let mut f = std::fs::File::create(&qpath)
                .map_err(|e| format!("cannot create {qpath:?}: {e}"))?;
            let mut n = 0usize;
            for spec in &dataset.queries {
                // The batch file format is comma-delimited; a name
                // containing a comma would be silently unparseable by
                // `nck batch`, so skip it loudly instead.
                if spec.names.iter().any(|name| name.contains(',')) {
                    eprintln!(
                        "skipping query set {}: an entity name contains the ',' delimiter",
                        spec.label()
                    );
                    continue;
                }
                let line: Vec<&str> = spec.names.iter().map(String::as_str).collect();
                writeln!(f, "# {}", spec.label()).map_err(|e| e.to_string())?;
                writeln!(f, "{}", line.join(",")).map_err(|e| e.to_string())?;
                n += 1;
            }
            eprintln!("wrote {n} query sets to {qpath}");
        }
        Ok(())
    })())
}

// ---------------------------------------------------------------------------
// nck build-graph
// ---------------------------------------------------------------------------

/// Where `nck build-graph` takes its graph from.
enum GraphSource {
    Ntriples(String),
    Scale(ScaleConfig),
}

/// `nck build-graph`'s arguments: the graph source and the output path.
fn parse_build_graph(args: &mut Vec<String>) -> Result<(GraphSource, String), String> {
    let input = take_flag(args, "--in")?;
    let scale = take_flag(args, "--scale")?;
    let out = take_flag(args, "--out")?.ok_or("--out is required")?;
    let seed: u64 = match take_flag(args, "--seed")? {
        Some(v) => parse_num(&v, "--seed")?,
        None => 42,
    };
    if let Some(junk) = args.first() {
        return Err(format!("unexpected argument {junk:?}"));
    }
    let source = match (input, scale) {
        (Some(path), None) => GraphSource::Ntriples(path),
        (None, Some(size)) => GraphSource::Scale(match size.as_str() {
            "small" => ScaleConfig::small(seed),
            "medium" => ScaleConfig::medium(seed),
            "large" => ScaleConfig::large(seed),
            _ => {
                return Err(format!(
                    "--scale must be small, medium or large, got {size:?}"
                ))
            }
        }),
        (Some(_), Some(_)) => return Err("--in and --scale are mutually exclusive".into()),
        (None, None) => return Err("one of --in or --scale is required".into()),
    };
    Ok((source, out))
}

fn cmd_build_graph(args: &[String]) -> ExitCode {
    let mut args = args.to_vec();
    let (source, out) = match parse_build_graph(&mut args) {
        Ok(parsed) => parsed,
        Err(e) => return fail(&e),
    };
    exit_status((|| {
        let started = Instant::now();
        let graph = match source {
            GraphSource::Ntriples(path) => {
                let file =
                    std::fs::File::open(&path).map_err(|e| format!("cannot open {path:?}: {e}"))?;
                let store = read_ntriples(std::io::BufReader::new(file))
                    .map_err(|e| format!("cannot parse {path}: {e}"))?;
                to_knowledge_graph(&store)
            }
            GraphSource::Scale(config) => generate_scale(&config),
        };
        let build_secs = started.elapsed().as_secs_f64();
        let started = Instant::now();
        save_compact(&graph, &out).map_err(|e| format!("cannot write {out}: {e}"))?;
        let bytes = std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0);
        eprintln!(
            "wrote {out}: {} nodes, {} stored edges, {bytes} bytes \
             (build {build_secs:.1}s, encode {:.1}s)",
            graph.num_nodes(),
            graph.num_stored_edges(),
            started.elapsed().as_secs_f64()
        );
        Ok(())
    })())
}

// ---------------------------------------------------------------------------
// nck query / nck batch
// ---------------------------------------------------------------------------

fn cmd_query(args: &[String]) -> ExitCode {
    let mut args = args.to_vec();
    let parsed = (|| -> Result<(String, RunOpts), String> {
        let query_spec = take_flag(&mut args, "--query")?.ok_or("--query is required")?;
        Ok((query_spec, finish_run_opts(&mut args)?))
    })();
    let (query_spec, opts) = match parsed {
        Ok(parsed) => parsed,
        Err(e) => return fail(&e),
    };
    exit_status((|| {
        let service = load_service(&opts)?;
        let request = request_for_line(&query_spec, opts.top);
        let mut response = service.query(&request).map_err(|e| e.to_string())?;
        let secs = response.secs.take();
        if opts.json {
            // `secs` stays off the single-query wire format (the legacy
            // schema had no timing field).
            println!("{}", json::to_string(&response));
        } else {
            print_response(&response);
            println!("({:.3}s)", secs.unwrap_or(0.0));
        }
        Ok(())
    })())
}

fn cmd_batch(args: &[String]) -> ExitCode {
    let mut args = args.to_vec();
    let parsed = (|| -> Result<(String, WorkloadRequest, RunOpts), String> {
        let queries_path = take_flag(&mut args, "--queries")?.ok_or("--queries is required")?;
        let repeat: usize = match take_flag(&mut args, "--repeat")? {
            Some(v) => parse_num(&v, "--repeat")?,
            None => 1,
        };
        let mode = match take_flag(&mut args, "--mode")?.as_deref() {
            None | Some("engine") => WorkloadMode::Engine,
            Some("sequential") => WorkloadMode::Sequential,
            Some("compare") => WorkloadMode::Compare,
            Some(other) => {
                return Err(format!(
                    "--mode must be engine, sequential or compare, got {other:?}"
                ))
            }
        };
        let chunk: usize = match take_flag(&mut args, "--chunk")? {
            Some(v) => parse_num(&v, "--chunk")?,
            None => 0,
        };
        let clients: Option<usize> = match take_flag(&mut args, "--clients")? {
            Some(v) => {
                let n: usize = parse_num(&v, "--clients")?;
                if n == 0 {
                    return Err("--clients must be at least 1".into());
                }
                Some(n)
            }
            None => None,
        };
        let request = WorkloadRequest {
            queries: Vec::new(),
            repeat: repeat.max(1),
            mode,
            chunk,
            clients,
        };
        Ok((queries_path, request, finish_run_opts(&mut args)?))
    })();
    let (queries_path, mut request, opts) = match parsed {
        Ok(parsed) => parsed,
        Err(e) => return fail(&e),
    };
    exit_status((|| {
        let text = std::fs::read_to_string(&queries_path)
            .map_err(|e| format!("cannot read {queries_path:?}: {e}"))?;
        request.queries = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| request_for_line(l, opts.top))
            .collect();
        if request.queries.is_empty() {
            return Err(format!("{queries_path}: no queries"));
        }
        let service = load_service(&opts)?;
        let report = service.workload(&request).map_err(|e| e.to_string())?;
        if opts.json {
            println!("{}", json::to_string(&report));
        } else {
            print_workload(&report);
        }
        Ok(())
    })())
}

// ---------------------------------------------------------------------------
// nck serve
// ---------------------------------------------------------------------------

fn cmd_serve(args: &[String]) -> ExitCode {
    let mut args = args.to_vec();
    exit_status((|| {
        let addr = take_flag(&mut args, "--addr")?.unwrap_or_else(|| "127.0.0.1:4517".to_owned());
        let mut config = ServeConfig::default();
        if let Some(v) = take_flag(&mut args, "--workers")? {
            config.workers = parse_num(&v, "--workers")?;
            if config.workers == 0 {
                return Err("--workers must be at least 1".into());
            }
        }
        if let Some(v) = take_flag(&mut args, "--queue-depth")? {
            config.queue_depth = parse_num(&v, "--queue-depth")?;
        }
        if let Some(v) = take_flag(&mut args, "--max-connections")? {
            config.max_connections = parse_num(&v, "--max-connections")?;
        }
        if let Some(v) = take_flag(&mut args, "--max-frame-bytes")? {
            config.max_frame_bytes = parse_num(&v, "--max-frame-bytes")?;
        }
        if let Some(v) = take_flag(&mut args, "--default-deadline-ms")? {
            config.default_deadline_ms = Some(parse_num(&v, "--default-deadline-ms")?);
        }
        let opts = parse_run_opts(&mut args)?;
        if opts.graph.is_empty() {
            return Err("--graph is required".into());
        }
        if let Some(junk) = args.first() {
            return Err(format!("unexpected argument {junk:?}"));
        }
        let service = load_service(&opts)?;
        let handle = serve(std::sync::Arc::new(service), addr.as_str(), config)
            .map_err(|e| format!("cannot bind {addr}: {e}"))?;
        eprintln!(
            "serving on {} — EOF on stdin drains and exits",
            handle.addr()
        );
        // Scripted lifecycle: serve until stdin closes (`nck serve < /dev/null`
        // starts, drains and exits immediately; a pipe keeps it up until the
        // writer hangs up). No signal handling required.
        let mut sink = String::new();
        while std::io::Read::read_to_string(&mut std::io::stdin().lock(), &mut sink)
            .map(|n| n > 0)
            .unwrap_or(false)
        {
            sink.clear();
        }
        eprintln!("draining…");
        let metrics = handle.shutdown();
        if opts.json {
            println!("{}", json::to_string(&metrics));
        } else {
            print_serve_metrics(&metrics);
        }
        Ok(())
    })())
}

fn print_serve_metrics(m: &ServeMetrics) {
    println!(
        "connections: {} accepted, {} rejected at the limit",
        m.connections_accepted, m.connections_rejected
    );
    println!(
        "requests:    {} admitted, {} shed, {} deadline misses, {} malformed frames",
        m.requests_admitted, m.requests_shed, m.deadline_misses, m.frames_malformed
    );
    println!(
        "responses:   {} ok, {} errors",
        m.responses_ok, m.responses_err
    );
}

// ---------------------------------------------------------------------------
// output
// ---------------------------------------------------------------------------

fn print_response(response: &QueryResponse) {
    println!("query: {}", response.query);
    println!(
        "context: {} nodes (top: {})",
        response.context_size,
        response
            .context
            .iter()
            .take(5)
            .map(String::as_str)
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "{:<28} {:>8} {:>12} {:>12}",
        "label", "score", "inst-p", "card-p"
    );
    for c in &response.characteristics {
        println!(
            "{:<28} {:>8.3} {:>12} {:>12}",
            c.label,
            c.score,
            fmt_p(c.inst_p),
            fmt_p(c.card_p),
        );
    }
}

/// Per-cache counter table: one row per engine cache, with the shard
/// count, hit/miss/eviction counters, resident footprint and hit rate
/// that previously rode only the JSON wire report.
fn print_cache_stats(st: &notable_characteristics::api::EngineStatsReport) {
    if let Some(bytes) = st.graph_bytes {
        println!("graph:     ~{bytes} resident bytes");
    }
    println!(
        "{:<10} {:>7} {:>9} {:>9} {:>10} {:>9} {:>12} {:>9}",
        "cache", "shards", "hits", "misses", "evictions", "entries", "bytes", "hit rate"
    );
    for (name, s) in [
        ("result", &st.result_cache),
        ("context", &st.context_cache),
        ("ppr", &st.ppr_cache),
    ] {
        println!(
            "{:<10} {:>7} {:>9} {:>9} {:>10} {:>9} {:>12} {:>8.1}%",
            name,
            s.shards,
            s.hits,
            s.misses,
            s.evictions,
            s.len,
            s.bytes,
            s.hit_rate() * 100.0,
        );
    }
}

fn fmt_p(p: Option<f64>) -> String {
    match p {
        Some(p) => format!("{p:.4}"),
        None => "-".into(),
    }
}

fn print_workload(report: &WorkloadReport) {
    println!(
        "workload: {} queries ({} distinct lines × {})",
        report.queries, report.distinct_lines, report.repeat
    );
    if let Some(s) = report.engine_secs {
        println!(
            "engine:     {s:.3}s total, {:.1} queries/s",
            report.queries as f64 / s.max(1e-12)
        );
    }
    if let Some(s) = report.sequential_secs {
        println!(
            "sequential: {s:.3}s total, {:.1} queries/s",
            report.queries as f64 / s.max(1e-12)
        );
    }
    if let Some(speedup) = report.speedup {
        println!("speedup:    {speedup:.2}× (identical rankings verified)");
    }
    if let Some(st) = &report.engine_stats {
        println!(
            "engine stats: {} executed of {} submitted ({} deduplicated); \
             {} weight build(s)",
            st.executed,
            st.submitted,
            st.deduplicated,
            st.weight_builds.unwrap_or(0),
        );
        print_cache_stats(st);
    }
    if let Some(c) = &report.concurrent {
        println!(
            "concurrent: {} clients, {} queries in {:.3}s — {:.1} queries/s \
             (rankings verified identical to the single-client run)",
            c.clients, c.queries, c.secs, c.throughput
        );
        println!(
            "latency:    p50 {:.2}ms, p90 {:.2}ms, p99 {:.2}ms, max {:.2}ms",
            c.p50_ms, c.p90_ms, c.p99_ms, c.max_ms
        );
        println!(
            "coalesced:  {} results, {} contexts, {} ppr vectors \
             (duplicate in-flight work absorbed by single-flight)",
            c.stats.result_coalesced.unwrap_or(0),
            c.stats.context_coalesced.unwrap_or(0),
            c.stats.ppr_coalesced.unwrap_or(0),
        );
        print_cache_stats(&c.stats);
    }
    // Per distinct query line, the top characteristics of its first run.
    for response in &report.results {
        println!();
        print_response(response);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn take_flag_extracts_pair_and_leaves_rest() {
        let mut a = args(&["--graph", "g.nt", "--top", "5"]);
        assert_eq!(take_flag(&mut a, "--top").unwrap(), Some("5".into()));
        assert_eq!(a, args(&["--graph", "g.nt"]));
        assert_eq!(take_flag(&mut a, "--walks").unwrap(), None);
    }

    #[test]
    fn take_flag_rejects_missing_value() {
        let mut a = args(&["--top"]);
        assert!(take_flag(&mut a, "--top").is_err());
    }

    #[test]
    fn take_flag_rejects_duplicate_flag() {
        // Regression: the second occurrence used to be silently left in
        // `args`, where it was later misparsed as a positional argument.
        let mut a = args(&["--top", "5", "--top", "9"]);
        let err = take_flag(&mut a, "--top").unwrap_err();
        assert!(err.contains("more than once"), "{err}");
    }

    #[test]
    fn run_opts_reject_duplicate_flags_end_to_end() {
        let mut a = args(&["--graph", "a.nt", "--graph", "b.nt"]);
        assert!(parse_run_opts(&mut a).is_err());
    }

    #[test]
    fn graph_format_parses_both_values() {
        let mut a = args(&["--graph-format", "compact"]);
        assert_eq!(parse_run_opts(&mut a).unwrap().format, GraphFormat::Compact);
        let mut a = args(&["--graph-format", "nt"]);
        assert_eq!(
            parse_run_opts(&mut a).unwrap().format,
            GraphFormat::Ntriples
        );
        let mut a = args(&[]);
        assert_eq!(
            parse_run_opts(&mut a).unwrap().format,
            GraphFormat::Ntriples,
            "nt is the default"
        );
    }

    #[test]
    fn unknown_graph_format_is_rejected_with_the_choices() {
        let mut a = args(&["--graph-format", "parquet"]);
        let err = parse_run_opts(&mut a).unwrap_err();
        assert!(err.contains("must be nt or compact"), "{err}");
        assert!(err.contains("parquet"), "{err}");
    }

    #[test]
    fn backend_accepts_csr_and_compact_and_names_the_choices_on_error() {
        let mut a = args(&["--backend", "compact"]);
        assert_eq!(
            parse_run_opts(&mut a).unwrap().backend,
            Some(Backend::Compact)
        );
        let mut a = args(&["--backend", "csr"]);
        assert_eq!(parse_run_opts(&mut a).unwrap().backend, Some(Backend::Csr));
        let mut a = args(&[]);
        assert_eq!(
            parse_run_opts(&mut a).unwrap().backend,
            None,
            "only an explicit --backend is recorded"
        );
        for gone in ["jena", "store"] {
            let mut a = args(&["--backend", gone]);
            let err = parse_run_opts(&mut a).unwrap_err();
            assert!(err.contains("must be csr or compact"), "{err}");
        }
        // A usage error: exit 2, before any file is opened.
        let query = args(&[
            "--graph",
            "missing.nt",
            "--query",
            "A",
            "--backend",
            "store",
        ]);
        assert_eq!(cmd_query(&query), ExitCode::from(2));
    }

    #[test]
    fn threads_is_an_engine_setting() {
        // The worker cap reaches the engine only through `EngineConfig`;
        // no request carries it.
        let mut a = args(&["--threads", "3"]);
        let cfg = engine_config(&parse_run_opts(&mut a).unwrap());
        assert_eq!(cfg.threads, Some(3));
        let mut a = args(&[]);
        let cfg = engine_config(&parse_run_opts(&mut a).unwrap());
        assert_eq!(cfg.threads, EngineConfig::default().threads);
        let mut a = args(&["--threads", "0"]);
        let err = parse_run_opts(&mut a).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
    }

    #[test]
    fn removed_block_width_flag_is_an_unexpected_argument() {
        let mut a = args(&["--graph", "g.nt", "--ppr-block-width", "4"]);
        let err = finish_run_opts(&mut a).unwrap_err();
        assert_eq!(err, r#"unexpected argument "--ppr-block-width""#);
        // A usage error: exit 2, before any file is opened.
        let query = args(&[
            "--graph",
            "missing.nt",
            "--query",
            "A",
            "--ppr-block-width",
            "4",
        ]);
        assert_eq!(cmd_query(&query), ExitCode::from(2));
        let batch = args(&[
            "--graph",
            "missing.nt",
            "--queries",
            "q",
            "--ppr-block-width",
            "4",
        ]);
        assert_eq!(cmd_batch(&batch), ExitCode::from(2));
    }

    #[test]
    fn duplicate_graph_format_is_rejected() {
        let mut a = args(&["--graph-format", "nt", "--graph-format", "compact"]);
        let err = parse_run_opts(&mut a).unwrap_err();
        assert!(err.contains("more than once"), "{err}");
    }
}
