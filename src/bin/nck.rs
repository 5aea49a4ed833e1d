//! `nck` — command-line front end for notable-characteristics search.
//!
//! A thin shell over [`nck_api`]: every query answer flows through
//! [`NckService`] and its serde request/response types, so `--json`
//! output *is* the service wire format. Five subcommands cover the
//! workload lifecycle:
//!
//! - `nck gen`   — generate a synthetic dataset (YAGO-like / LinkedMDB-like
//!   / tiny) and persist it as N-Triples, optionally with a ready-to-run
//!   batch query file;
//! - `nck build-graph` — compile N-Triples (or a generated scale graph)
//!   into the compact binary graph format, which `--graph` recognizes by
//!   its leading bytes and opens zero-copy (memory-mapped) instead of
//!   re-parsing;
//! - `nck query` — run one query through the batched engine and print the
//!   ranked characteristics;
//! - `nck batch` — answer a query file as one batch through the engine:
//!   one answer per line, in file order, with the wall time and the
//!   engine's cache statistics on stderr;
//! - `nck serve` — put the service behind a TCP socket speaking
//!   length-prefixed framed JSON (the same request/response schema), with
//!   bounded admission, per-request deadlines and graceful drain on
//!   stdin EOF.
//!
//! Output is human-readable tables by default, or JSON with `--json`.

#![forbid(unsafe_code)]

use notable_characteristics::api::{
    json, Backend, EngineStatsReport, NckService, QueryRequest, QueryResponse,
};
use notable_characteristics::core::context::TypeFilter;
use notable_characteristics::datagen::{generate, generate_scale, GeneratorConfig, ScaleConfig};
use notable_characteristics::engine::{EngineConfig, SelectorMode};
use notable_characteristics::graph::compact::MAGIC;
use notable_characteristics::graph::io::save_compact;
use notable_characteristics::serve::{serve, ServeConfig, ServeMetrics};
use notable_characteristics::store::graph_view::{to_knowledge_graph, to_triple_store};
use notable_characteristics::store::ntriples::{read_ntriples, write_ntriples};
use std::io::{Read as _, Write as _};
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
  nck batch --graph FILE --queries FILE [options]
  nck serve --graph FILE [--addr HOST:PORT] [--workers N]
            [--queue-depth N] [--max-connections N] [--max-frame-bytes N]
            [--default-deadline-ms N] [options]

--graph FILE is N-Triples, or a compact image from nck build-graph,
recognized by its leading bytes; an image opens zero-copy and fixes the
backend to compact.

query/batch/serve options:
  --backend csr|compact     graph backend (default: csr)
  --selector contextrw|randomwalk   context selector (default: contextrw)
  --type-filter common|query|none   candidate type filter (default: common)
  --context-size N          context size |C| (default: 100)
  --walks N                 PathMining walk budget (default: 30000)
  --epsilon F               randomwalk sparse-PPR pruning threshold
                            (default: 0 = exact dense execution)
  --top N                   characteristics to print per query (default: 10)
  --threads N               cap worker threads (default: derive from the
                            machine; 1 runs single-threaded; answers are
                            identical under any cap)
  --json                    emit JSON instead of tables

The batch query file holds one query per line: comma-separated entity
names (names containing a comma cannot be expressed); blank lines and
lines starting with '#' are skipped. nck batch answers the whole file as
one batch and prints one answer per query line, in file order (with
--json, one QueryResponse object per line, as nck query --json prints
it); the wall time, queries/s and the engine's cache counters go to
stderr.

nck serve binds --addr (default 127.0.0.1:4517; port 0 picks an
ephemeral port, printed on startup), serves framed JSON requests until
stdin reaches EOF, then drains gracefully: new work is shed with a typed
overloaded error while every already-admitted request is finished and
flushed. Final serving metrics go to stdout (JSON with --json).";

/// Parsed command-line options shared by `query`, `batch` and `serve`.
#[derive(Debug)]
struct RunOpts {
    graph: String,
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
}

impl Default for RunOpts {
    fn default() -> Self {
        Self {
            graph: String::new(),
            backend: None,
            selector: SelectorMode::ContextRw,
            type_filter: TypeFilter::CommonAncestor,
            context_size: 100,
            walks: 30_000,
            epsilon: 0.0,
            top: 10,
            threads: None,
            json: false,
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
    Ok(o)
}

/// [`parse_run_opts`] as the last parse step of `query`, `batch` and
/// `serve`:
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
    cfg.findnc.context.mining.walks = o.walks;
    cfg.findnc.context.type_filter = o.type_filter;
    cfg.findnc.context_size = o.context_size;
    cfg.selector = o.selector;
    cfg.randomwalk.type_filter = o.type_filter;
    cfg.randomwalk.ppr.epsilon = o.epsilon;
    cfg.threads = o.threads;
    cfg
}

/// Whether the file at `path` is a compact graph image: its first 8
/// bytes are the image magic, which no N-Triples statement can start
/// with. A file that cannot be read is not one; the N-Triples loader
/// then reports why.
fn is_compact_image(path: &str) -> bool {
    let mut head = [0u8; MAGIC.len()];
    std::fs::File::open(path)
        .and_then(|mut file| file.read_exact(&mut head))
        .is_ok_and(|()| head == MAGIC)
}

/// Builds the service over `--graph`, in the format its leading bytes
/// name, and echoes the load line the CLI has always printed.
fn load_service(opts: &RunOpts) -> Result<NckService, String> {
    let mut builder = NckService::builder().engine(engine_config(opts));
    builder = if is_compact_image(&opts.graph) {
        builder.compact_file(&opts.graph)
    } else {
        builder.ntriples(&opts.graph)
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
    let parsed = (|| -> Result<(String, RunOpts), String> {
        let queries_path = take_flag(&mut args, "--queries")?.ok_or("--queries is required")?;
        Ok((queries_path, finish_run_opts(&mut args)?))
    })();
    let (queries_path, opts) = match parsed {
        Ok(parsed) => parsed,
        Err(e) => return fail(&e),
    };
    exit_status((|| {
        let text = std::fs::read_to_string(&queries_path)
            .map_err(|e| format!("cannot read {queries_path:?}: {e}"))?;
        let requests: Vec<QueryRequest> = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| request_for_line(l, opts.top))
            .collect();
        if requests.is_empty() {
            return Err(format!("{queries_path}: no queries"));
        }
        let service = load_service(&opts)?;
        let started = Instant::now();
        let responses = service.batch(&requests).map_err(|e| e.to_string())?;
        let secs = started.elapsed().as_secs_f64();
        for (i, response) in responses.iter().enumerate() {
            if opts.json {
                println!("{}", json::to_string(response));
            } else {
                if i > 0 {
                    println!();
                }
                print_response(response);
            }
        }
        eprintln!(
            "batch: {} queries in {secs:.3}s, {:.1} queries/s",
            responses.len(),
            responses.len() as f64 / secs.max(1e-12)
        );
        print_engine_stats(&service.stats());
        Ok(())
    })())
}

// ---------------------------------------------------------------------------
// nck serve
// ---------------------------------------------------------------------------

/// `nck serve`'s arguments: the bind address, the serving limits and
/// the shared run options.
fn parse_serve(args: &mut Vec<String>) -> Result<(String, ServeConfig, RunOpts), String> {
    let addr = take_flag(args, "--addr")?.unwrap_or_else(|| "127.0.0.1:4517".to_owned());
    let mut config = ServeConfig::default();
    // A zero would refuse all traffic: no worker, no queue slot, no
    // connection, no frame byte.
    for (flag, limit) in [
        ("--workers", &mut config.workers),
        ("--queue-depth", &mut config.queue_depth),
        ("--max-connections", &mut config.max_connections),
        ("--max-frame-bytes", &mut config.max_frame_bytes),
    ] {
        if let Some(v) = take_flag(args, flag)? {
            *limit = parse_num(&v, flag)?;
            if *limit == 0 {
                return Err(format!("{flag} must be at least 1"));
            }
        }
    }
    if let Some(v) = take_flag(args, "--default-deadline-ms")? {
        config.default_deadline_ms = Some(parse_num(&v, "--default-deadline-ms")?);
    }
    Ok((addr, config, finish_run_opts(args)?))
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let mut args = args.to_vec();
    let (addr, config, opts) = match parse_serve(&mut args) {
        Ok(parsed) => parsed,
        Err(e) => return fail(&e),
    };
    exit_status((|| {
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

/// The engine's counters on stderr: executed/submitted work, then one
/// row per engine cache with its shard count, hit/miss/eviction
/// counters, resident footprint and hit rate.
fn print_engine_stats(st: &EngineStatsReport) {
    eprintln!(
        "engine: {} executed of {} submitted ({} deduplicated); {} weight build(s)",
        st.executed,
        st.submitted,
        st.deduplicated,
        st.weight_builds.unwrap_or(0),
    );
    eprintln!(
        "{:<10} {:>7} {:>9} {:>9} {:>10} {:>9} {:>12} {:>9}",
        "cache", "shards", "hits", "misses", "evictions", "entries", "bytes", "hit rate"
    );
    // Result and context entries are charged one each, so only the PPR
    // cache has a byte count to show.
    for (name, s, bytes) in [
        ("result", &st.result_cache, "-".to_owned()),
        ("context", &st.context_cache, "-".to_owned()),
        ("ppr", &st.ppr_cache, st.ppr_cache.bytes.to_string()),
    ] {
        eprintln!(
            "{:<10} {:>7} {:>9} {:>9} {:>10} {:>9} {:>12} {:>8.1}%",
            name,
            s.shards,
            s.hits,
            s.misses,
            s.evictions,
            s.len,
            bytes,
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
    fn compact_images_are_recognized_by_their_leading_bytes() {
        let dir = std::env::temp_dir();
        let file = |name: &str, bytes: &[u8]| {
            let path = dir.join(format!("nck-sniff-{}-{name}", std::process::id()));
            std::fs::write(&path, bytes).unwrap();
            path.to_str().unwrap().to_owned()
        };
        let mut image = MAGIC.to_vec();
        image.extend_from_slice(b"rest of the header");
        let cases = [
            (file("image", &image), true),
            (file("magic-only", &MAGIC), true),
            (file("nt", b"<a> <knows> <b> .\n"), false),
            (file("short", &MAGIC[..7]), false),
            (file("empty", b""), false),
        ];
        for (path, compact) in &cases {
            assert_eq!(is_compact_image(path), *compact, "{path}");
            std::fs::remove_file(path).unwrap();
        }
        let missing = dir.join(format!("nck-sniff-{}-missing", std::process::id()));
        assert!(!is_compact_image(missing.to_str().unwrap()));
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
    fn removed_block_width_and_no_parallel_flags_are_unexpected_arguments() {
        for removed in [&["--ppr-block-width", "4"][..], &["--no-parallel"]] {
            let mut a = args(&["--graph", "g.nt"]);
            a.extend(args(removed));
            let err = finish_run_opts(&mut a).unwrap_err();
            assert_eq!(err, format!("unexpected argument {:?}", removed[0]));
            // A usage error: exit 2, before any file is opened.
            let mut query = args(&["--graph", "missing.nt", "--query", "A"]);
            query.extend(args(removed));
            assert_eq!(cmd_query(&query), ExitCode::from(2));
            let mut batch = args(&["--graph", "missing.nt", "--queries", "q"]);
            batch.extend(args(removed));
            assert_eq!(cmd_batch(&batch), ExitCode::from(2));
        }
    }
}
