//! [`QueryEngine`] — the batched, cache-sharing execution layer.
//!
//! One engine owns one graph backend and one pipeline configuration, and
//! answers any number of queries — under that configuration or under
//! per-request [`Overrides`] — through one cached path and three exact
//! caches. Each cache is keyed on the seed list plus exactly the
//! settings its layer reads:
//!
//! - a **PPR cache** keyed by (personalization seed node, ε) — the
//!   RandomWalk selector runs one Personalized PageRank per seed node,
//!   and ε is the only overridable setting PageRank reads, so queries
//!   sharing a seed share the vector whatever their |C| or type filter;
//!   bounded by entries *and* approximate bytes;
//! - a **context cache** keyed by (seed list, pipeline key). The
//!   pipeline key holds the effective selector, |C| and type filter,
//!   plus the walk budget under ContextRW or ε under RandomWalk — only
//!   fields the effective selector reads, so an override equal to the
//!   engine's own setting shares the plain request's entries. Repeated
//!   keys skip context selection (PathMining walks or power iterations)
//!   entirely;
//! - a **result cache** keyed the same way (scoring reads no
//!   overridable setting) — exact repeats skip the whole pipeline. Each
//!   entry also has a write-once slot for a caller's [`Encoded`] form of
//!   the result ([`QueryEngine::run_encoded`]): the first caller to ask
//!   encodes, later hits reuse the stored encoding, and it is dropped
//!   with its entry on eviction or [`QueryEngine::clear_caches`]. The
//!   engine stores it and never reads it.
//!
//! All three store values bit-identical to what a fresh sequential
//! [`FindNc`] run under the request's settings would compute, so engine
//! answers are id-for-id equal to one-at-a-time [`FindNc::discover`]
//! regardless of batch composition, overrides, cache pressure, or thread
//! count (the workspace's parity tests assert this on every backend,
//! including under forced eviction).
//!
//! The Eq.-1 weight table every PageRank reads is derived at most once
//! per engine: at construction in RandomWalk mode, or on a ContextRW
//! engine's first `selector: RandomWalk` override.
//!
//! The engine is built for **concurrent serving**: each cache is a
//! lock-striped [`crate::cache::ShardedLru`], so clients
//! touching different keys never contend on one global lock, and every
//! miss runs under **single-flight** ([`crate::flight`]) — concurrent
//! misses on the same key coalesce onto one computation and all callers
//! share the resulting `Arc`. Each cache and its flight sit behind one
//! get-or-compute call (the crate-private `Memo`). Because cached values are
//! exact, both mechanisms are observationally invisible; `EngineStats`
//! exposes `*_coalesced` counters so workload reports can show how much
//! duplicate work concurrency avoided.
//!
//! A batch is its distinct requests: exact repeats (same seed list,
//! same pipeline key) are executed once and fanned back out, and
//! worker threads pull the distinct requests one at a time in
//! first-occurrence order ([`nck_core::parallel::map_costliest_first`],
//! the helper FindNC's label tests use), each through the same path a
//! single request takes.

use crate::cache::{CacheStats, ShardedLru};
use crate::memo::Memo;
use nck_core::config::{FindNcConfig, PprConfig, RandomWalkConfig};
use nck_core::context::{top_k_context, CandidateFilter, Context, TypeFilter};
use nck_core::context_rw::{ContextRw, MatchWorkspace};
use nck_core::error::CoreError;
use nck_core::findnc::{FindNc, SearchResult};
use nck_core::parallel;
use nck_core::ppr::{EdgeWeights, PersonalizedPageRank, PprWorkspace};
use nck_core::query::Query;
use nck_core::score::ScoreVec;
use nck_core::sweep::ScoringWorkspace;
use nck_graph::{GraphAccess, NodeId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Which context selector the engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum SelectorMode {
    /// The paper's metapath-constrained ContextRW (what
    /// [`FindNc::discover`] uses).
    #[default]
    ContextRw,
    /// The frequency-weighted Personalized PageRank baseline, served
    /// through the seed-keyed PPR vector cache. Matches
    /// [`nck_core::ppr::RandomWalkSelector`] bit for bit.
    RandomWalk,
}

/// Engine construction parameters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The pipeline configuration every query runs under (context
    /// selection settings, |C|, α, Monte-Carlo budget, …).
    pub findnc: FindNcConfig,
    /// Which context selector to run.
    pub selector: SelectorMode,
    /// RandomWalk-mode settings (read under [`SelectorMode::RandomWalk`],
    /// the engine's own or a request's override).
    pub randomwalk: RandomWalkConfig,
    /// Entry bound of the PPR vector cache.
    pub ppr_cache_entries: usize,
    /// Approximate byte bound of the PPR vector cache. Entries are
    /// charged their *actual* representation cost
    /// ([`ScoreVec::approx_bytes`]): a sparse vector touching `m` nodes
    /// costs `16·m` bytes, a dense one `8·|V|` — so sparse (`epsilon >
    /// 0`) workloads fit many more vectors under the same budget. Both
    /// bounds apply, whichever trips first.
    pub ppr_cache_bytes: usize,
    /// Entry bound of the context cache.
    pub context_cache_entries: usize,
    /// Entry bound of the result cache.
    pub result_cache_entries: usize,
    /// Worker-thread cap applied to [`nck_core::parallel`] when the
    /// engine is built (`None` = leave the current process-wide cap
    /// untouched). The cap is **process-wide**: the most recently
    /// constructed engine with `Some` wins for the whole process and
    /// stays in effect after that engine is dropped — it is the
    /// operator's deployment setting, not a per-engine property, and no
    /// request can change it.
    /// Purely a performance/footprint knob: every fork-join site folds
    /// to the same result however its work is split, so answers are
    /// identical under any cap; `Some(1)` runs single-threaded.
    pub threads: Option<usize>,
    /// Let a batch's distinct requests run across worker threads, each
    /// worker pulling the next one in first-occurrence order; `false`
    /// runs them on the calling thread. A worker permission only: each
    /// answer is placed at the positions of its request, so results are
    /// identical either way (see the [module docs](self)).
    pub parallel: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            findnc: FindNcConfig::default(),
            selector: SelectorMode::ContextRw,
            randomwalk: RandomWalkConfig::default(),
            ppr_cache_entries: 256,
            ppr_cache_bytes: 64 << 20,
            context_cache_entries: 512,
            result_cache_entries: 512,
            threads: None,
            parallel: true,
        }
    }
}

/// Per-request pipeline overrides: each set field replaces the engine's
/// own setting for one request ([`QueryEngine::run_with`],
/// [`QueryEngine::run_batch_with`]).
///
/// An overridden request is answered bit for bit as a fresh [`FindNc`]
/// under the overridden configuration would answer it, through the same
/// caches and single-flight path as every other request. A field the
/// effective selector does not read (`walks` under RandomWalk,
/// `epsilon` under ContextRW) changes nothing. Values are not bounded
/// here: an out-of-range one fails the way the fresh pipeline would
/// (`nck-api` rejects them before they reach the engine).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Overrides {
    /// Context size |C|.
    pub context_size: Option<usize>,
    /// PathMining walk budget (ContextRW).
    pub walks: Option<usize>,
    /// Context selector.
    pub selector: Option<SelectorMode>,
    /// Candidate type filter of whichever selector runs.
    pub type_filter: Option<TypeFilter>,
    /// Pruning threshold ε of the PageRank (RandomWalk).
    pub epsilon: Option<f64>,
}

/// The settings a request's context — and so its result — depends on
/// beyond its seed list: exactly the fields the effective selector
/// reads, so requests differing only in a setting that is unread or
/// equal to the engine's share cache entries. Every other setting
/// (damping, iterations, metapath settings, α, Monte-Carlo budget) is
/// the engine's own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Pipeline {
    ContextRw {
        context_size: usize,
        type_filter: TypeFilter,
        walks: usize,
    },
    RandomWalk {
        context_size: usize,
        type_filter: TypeFilter,
        /// [`epsilon_key`] of ε.
        epsilon: u64,
    },
}

impl Pipeline {
    fn context_size(self) -> usize {
        match self {
            Self::ContextRw { context_size, .. } | Self::RandomWalk { context_size, .. } => {
                context_size
            }
        }
    }
}

/// The result- and context-cache key, and a batch's dedup key: the seed
/// list and the pipeline key.
///
/// The seed list keeps query order rather than being sorted: the σ
/// scoring of ContextRW and the PageRank summation of the RandomWalk
/// baseline both accumulate per-seed `f64` contributions in
/// `query.nodes()` order, and floating-point addition is not
/// associative — collapsing `[A, B, C]` with `[C, B, A]` could change
/// results in the last ulp and break the engine's bit-exact parity with
/// sequential execution. Seed-permuted requests therefore stay distinct
/// (they still share the per-seed PPR cache).
type Key = (Vec<NodeId>, Pipeline);

/// Lock stripes per cache: each cache is split into this many
/// independently locked shards selected by key hash, with the entry and
/// byte budgets divided evenly across them. Clamped per cache to its
/// entry budget (a 1-entry cache stays strictly 1-entry).
const CACHE_SHARDS: usize = 8;

/// ε as a cache key: its bits, with −0.0 mapped to 0.0 (both run the
/// exact executor, so they must share entries).
fn epsilon_key(epsilon: f64) -> u64 {
    if epsilon == 0.0 {
        0.0f64.to_bits()
    } else {
        epsilon.to_bits()
    }
}

/// A caller's encoding of one cached result — in `nck-api`, the JSON of
/// the context names and of each characteristic — kept with the
/// result-cache entry so repeats can reuse it (see
/// [`QueryEngine::run_encoded`]). The engine stores it and never reads
/// it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Encoded {
    /// The encoded context.
    pub context: String,
    /// One encoded piece per characteristic, in ranking order.
    pub characteristics: Vec<String>,
}

/// One result-cache (and result-flight) value: the exact result plus a
/// write-once slot for its [`Encoded`] form, which lives and dies with
/// the entry.
struct Entry {
    result: Arc<SearchResult>,
    encoded: OnceLock<Arc<Encoded>>,
}

/// A snapshot of the engine's cache and dedup counters. Every PageRank
/// the engine runs, for a batch or a single request, follows one
/// counted `ppr` miss; a miss runs nothing only when a concurrent
/// caller's run answers it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Batches executed so far.
    pub batches: u64,
    /// Queries submitted (batch members plus single runs).
    pub queries: u64,
    /// Distinct work units actually executed.
    pub executed_groups: u64,
    /// Queries answered by batch-level deduplication alone.
    pub deduplicated: u64,
    /// Times the Eq.-1 weight table (`O(|E|)`) was derived: at most 1
    /// for the engine's whole lifetime. A RandomWalk engine builds it at
    /// construction; a ContextRw engine on its first `selector:
    /// RandomWalk` override, if one ever comes. Every query and batch
    /// then shares it, never deriving it per query.
    pub weight_builds: u64,
    /// Queries answered with another caller's in-flight result: the
    /// caller missed the result cache while a concurrent caller was
    /// already computing the same key, blocked on that computation, and
    /// received the same `Arc` (see [`crate::flight`]).
    pub result_coalesced: u64,
    /// Context computations coalesced onto a concurrent caller's.
    pub context_coalesced: u64,
    /// Per-seed PageRank computations coalesced onto a concurrent
    /// caller's.
    pub ppr_coalesced: u64,
    /// Labels scored by the discrimination stage across executed
    /// (non-cached) queries — the scoring-stage work the caches did
    /// *not* absorb.
    pub labels_scored: u64,
    /// PPR vector cache counters.
    pub ppr: CacheStats,
    /// Context cache counters.
    pub context: CacheStats,
    /// Result cache counters.
    pub result: CacheStats,
}

/// The batched query engine. See the [module docs](self).
///
/// Owns its backend handle: borrowing callers pass `&graph` (references
/// are backends too), while owning callers — the `nck-api` service — pass
/// a cheap owned handle such as [`nck_graph::ErasedGraph`], making the
/// engine self-contained.
pub struct QueryEngine<G: GraphAccess + Sync> {
    graph: G,
    config: EngineConfig,
    /// Scores every request: scoring reads no overridable setting.
    findnc: FindNc,
    /// The Eq.-1 weight table every PageRank reads (`O(|E|)` to derive,
    /// identical for every query and every ε), set at most once.
    weights: OnceLock<Arc<EdgeWeights>>,
    ppr: Memo<(NodeId, u64), Arc<ScoreVec>>,
    /// Never has a waiter: a context is computed only by a result
    /// flight's leader, under the same key.
    contexts: Memo<Key, Context>,
    results: Memo<Key, Arc<Entry>>,
    batches: AtomicU64,
    queries: AtomicU64,
    executed_groups: AtomicU64,
    deduplicated: AtomicU64,
    weight_builds: AtomicU64,
    labels_scored: AtomicU64,
    ppr_workspaces: Pool<PprWorkspace>,
    match_workspaces: Pool<MatchWorkspace>,
    scoring_workspaces: Pool<ScoringWorkspace>,
}

/// A pool of one kind of scratch workspace — PageRank, ContextRW
/// metapath matching or the scoring sweep — checked out around each
/// computation and put back afterwards, so repeated queries, context
/// selections and label sweeps reuse their scratch instead of
/// allocating it per query (and per single-flight leader).
///
/// Its mutex is a **leaf** of the engine's lock hierarchy: `take` and
/// `put` lock, pop or push, and release before any computation or
/// cache/flight call — a guard is never held across another
/// acquisition (`nck-lint`'s lock-order rule classes it as
/// `workspace_pool` and flags any nesting, of one pool in another
/// included).
#[derive(Default)]
struct Pool<T> {
    items: Mutex<Vec<T>>,
}

impl<T: Default> Pool<T> {
    fn take(&self) -> T {
        self.items
            .lock()
            .expect("workspace pool lock")
            .pop()
            .unwrap_or_default()
    }

    fn put(&self, item: T) {
        self.items.lock().expect("workspace pool lock").push(item);
    }
}

impl<G: GraphAccess + Sync> QueryEngine<G> {
    /// Creates an engine over `graph`. Fails if the RandomWalk PageRank
    /// configuration of a RandomWalk engine is invalid (damping out of
    /// range, zero iterations, ε negative or not finite).
    pub fn new(graph: G, config: EngineConfig) -> Result<Self, CoreError> {
        // A RandomWalk engine derives the Eq.-1 weight table here; a
        // ContextRw engine derives it on its first RandomWalk override.
        // `weight_builds` exposes the count so workload reports can prove
        // it never exceeds one.
        let weights = match config.selector {
            SelectorMode::RandomWalk => {
                let table = Arc::new(EdgeWeights::new(&graph));
                // Validates damping, iterations and ε up front.
                PersonalizedPageRank::with_weights(
                    &graph,
                    config.randomwalk.ppr.clone(),
                    Arc::clone(&table),
                )?;
                OnceLock::from(table)
            }
            SelectorMode::ContextRw => OnceLock::new(),
        };
        let weight_builds = AtomicU64::new(u64::from(weights.get().is_some()));
        if config.threads.is_some() {
            parallel::set_thread_cap(config.threads);
        }
        Ok(Self {
            graph,
            findnc: FindNc::new(config.findnc.clone()),
            weights,
            // PPR vectors are charged their actual representation cost
            // (`ScoreVec::approx_bytes`); contexts and results one each.
            ppr: Memo::new(
                ShardedLru::with_max_bytes(
                    CACHE_SHARDS,
                    config.ppr_cache_entries,
                    config.ppr_cache_bytes,
                ),
                |v| v.approx_bytes(),
            ),
            contexts: Memo::new(
                ShardedLru::new(CACHE_SHARDS, config.context_cache_entries),
                |_| 1,
            ),
            results: Memo::new(
                ShardedLru::new(CACHE_SHARDS, config.result_cache_entries),
                |_| 1,
            ),
            batches: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            executed_groups: AtomicU64::new(0),
            deduplicated: AtomicU64::new(0),
            weight_builds,
            labels_scored: AtomicU64::new(0),
            ppr_workspaces: Pool::default(),
            match_workspaces: Pool::default(),
            scoring_workspaces: Pool::default(),
            config,
        })
    }

    /// The graph backend the engine answers from.
    pub fn graph(&self) -> &G {
        &self.graph
    }

    /// Read access to the configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Runs one query through the caches. The result is bit-identical to
    /// sequential [`FindNc::discover`] (ContextRW mode) or
    /// [`FindNc::discover_with_selector`] with a RandomWalk selector
    /// (RandomWalk mode) under the same configuration.
    pub fn run(&self, query: &Query) -> Result<Arc<SearchResult>, CoreError> {
        self.run_with(query, &Overrides::default())
    }

    /// [`run`](Self::run) under per-request `overrides`: the same caches
    /// and single-flight path, keyed on the settings the request
    /// actually runs under (see [`Overrides`]).
    pub fn run_with(
        &self,
        query: &Query,
        overrides: &Overrides,
    ) -> Result<Arc<SearchResult>, CoreError> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let entry = self.run_planned(query, &self.key(query, overrides))?;
        Ok(Arc::clone(&entry.result))
    }

    /// [`run_with`](Self::run_with), also returning the result's
    /// [`Encoded`] form, stored with its result-cache entry. The first
    /// call for an entry runs `encode` on the result — concurrent
    /// callers of that entry wait for it and share its output — and
    /// every later call returns the same `Arc` without encoding. Counted,
    /// cached and coalesced exactly as `run_with` is. Once the entry is
    /// evicted, the next call for its key computes and encodes afresh.
    pub fn run_encoded(
        &self,
        query: &Query,
        overrides: &Overrides,
        encode: impl FnOnce(&SearchResult) -> Encoded,
    ) -> Result<(Arc<SearchResult>, Arc<Encoded>), CoreError> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let entry = self.run_planned(query, &self.key(query, overrides))?;
        let encoded = entry
            .encoded
            .get_or_init(|| Arc::new(encode(&entry.result)));
        Ok((Arc::clone(&entry.result), Arc::clone(encoded)))
    }

    /// The pipeline key of a request under `overrides`.
    fn pipeline(&self, overrides: &Overrides) -> Pipeline {
        let config = &self.config;
        let context_size = overrides.context_size.unwrap_or(config.findnc.context_size);
        match overrides.selector.unwrap_or(config.selector) {
            SelectorMode::ContextRw => Pipeline::ContextRw {
                context_size,
                type_filter: overrides
                    .type_filter
                    .unwrap_or(config.findnc.context.type_filter),
                walks: overrides
                    .walks
                    .unwrap_or(config.findnc.context.mining.walks),
            },
            SelectorMode::RandomWalk => Pipeline::RandomWalk {
                context_size,
                type_filter: overrides
                    .type_filter
                    .unwrap_or(config.randomwalk.type_filter),
                epsilon: epsilon_key(overrides.epsilon.unwrap_or(config.randomwalk.ppr.epsilon)),
            },
        }
    }

    fn key(&self, query: &Query, overrides: &Overrides) -> Key {
        (query.nodes().to_vec(), self.pipeline(overrides))
    }

    /// `run` minus the submitted-query accounting (batch members are
    /// counted once by [`run_batch`](Self::run_batch)), through the
    /// result cache.
    ///
    /// Cache misses run under single-flight: concurrent misses on the
    /// same key coalesce onto one computation and every caller receives
    /// the same `Arc`. All cached values are exact, so coalescing never
    /// changes what a caller gets back.
    fn run_planned(&self, query: &Query, key: &Key) -> Result<Arc<Entry>, CoreError> {
        self.results.get_or_compute(key, || {
            self.executed_groups.fetch_add(1, Ordering::Relaxed);
            let context = self.context_for(query, key)?;
            // The shared `FindNc` reads |C| only to report an empty
            // context; report the request's own, as a fresh pipeline
            // under the request's settings would.
            if context.is_empty() {
                return Err(CoreError::NotEnoughCandidates {
                    requested: key.1.context_size(),
                    available: 0,
                });
            }
            // Pooled sweep scratch: the scoring stage of repeated cold
            // queries recycles its per-label maps and count rows.
            let mut ws = self.scoring_workspaces.take();
            let scored =
                self.findnc
                    .discover_with_context_ws(&self.graph, query, &context, &mut ws);
            self.scoring_workspaces.put(ws);
            let entry = Arc::new(Entry {
                result: Arc::new(scored?),
                encoded: OnceLock::new(),
            });
            self.labels_scored
                .fetch_add(entry.result.characteristics.len() as u64, Ordering::Relaxed);
            Ok(entry)
        })
    }

    /// The query's context, via the context cache. A miss builds its
    /// selector from the pipeline key — both constructors are cheap —
    /// with every other setting the engine's.
    fn context_for(&self, query: &Query, key: &Key) -> Result<Context, CoreError> {
        self.contexts.get_or_compute(key, || match key.1 {
            Pipeline::ContextRw {
                context_size,
                type_filter,
                walks,
            } => {
                let mut config = self.config.findnc.context.clone();
                config.mining.walks = walks;
                config.type_filter = type_filter;
                let mut ws = self.match_workspaces.take();
                let selected = ContextRw::new(config).select_with_metapaths_ws(
                    &self.graph,
                    query,
                    context_size,
                    &mut ws,
                );
                self.match_workspaces.put(ws);
                Ok(selected?.0)
            }
            Pipeline::RandomWalk {
                context_size,
                type_filter,
                epsilon,
            } => self.randomwalk_context(query, context_size, type_filter, epsilon),
        })
    }

    /// The Eq.-1 weight table, derived on first use.
    fn weights(&self) -> Arc<EdgeWeights> {
        Arc::clone(self.weights.get_or_init(|| {
            self.weight_builds.fetch_add(1, Ordering::Relaxed);
            Arc::new(EdgeWeights::new(&self.graph))
        }))
    }

    /// The PageRank ranker at ε (an [`epsilon_key`]) over the shared
    /// weight table, every other setting the engine's. No graph pass.
    fn ranker(&self, epsilon: u64) -> Result<PersonalizedPageRank<&G>, CoreError> {
        let config = PprConfig {
            epsilon: f64::from_bits(epsilon),
            ..self.config.randomwalk.ppr.clone()
        };
        PersonalizedPageRank::with_weights(&self.graph, config, self.weights())
    }

    /// RandomWalk-baseline selection through the PPR cache: one cached
    /// PageRank per seed node, summed in seed order (the same
    /// element-wise accumulation the sequential selector performs —
    /// [`ScoreVec::add_assign`] adds each touched slot in ascending node
    /// order, exactly one addition per slot, so sparse accumulation is
    /// bit-identical to the dense loop it replaced).
    fn randomwalk_context(
        &self,
        query: &Query,
        context_size: usize,
        type_filter: TypeFilter,
        epsilon: u64,
    ) -> Result<Context, CoreError> {
        let ppr = self.ranker(epsilon)?;
        let mut acc = ScoreVec::zeros(self.graph.num_nodes());
        // One pooled workspace per query, shared by every cache miss
        // below — with ε > 0, all seeds compute allocation-free in
        // steady state (at ε = 0 the dense executor runs and allocates
        // per seed, exactly as the pre-sparse engine did).
        let mut ws = self.ppr_workspaces.take();
        for &seed in query.nodes() {
            let v = self.ppr_vector(seed, epsilon, &ppr, &mut ws);
            acc.add_assign(&v);
        }
        self.ppr_workspaces.put(ws);
        let filter = CandidateFilter::new(&self.graph, query, type_filter);
        top_k_context(&self.graph, query, acc.iter(), &filter, context_size)
    }

    /// The PageRank vector personalized on `seed` at ε, via the PPR
    /// cache, which charges each vector its actual representation cost
    /// ([`ScoreVec::approx_bytes`]). Concurrent misses on the same key
    /// coalesce: one caller computes, the rest receive the same `Arc`
    /// (identical vectors either way — coalescing only saves the
    /// duplicate work).
    fn ppr_vector(
        &self,
        seed: NodeId,
        epsilon: u64,
        ppr: &PersonalizedPageRank<&G>,
        ws: &mut PprWorkspace,
    ) -> Arc<ScoreVec> {
        let Ok(v) = self.ppr.get_or_compute(&(seed, epsilon), || {
            Ok::<_, std::convert::Infallible>(Arc::new(ppr.run_with(&[seed], ws)))
        });
        v
    }

    /// The engine's shared Eq.-1 weight table, once it exists: from
    /// construction in RandomWalk mode, from the first `selector:
    /// RandomWalk` override in ContextRw mode. A reference run outside
    /// the engine over the same graph — perfbench's reference answers
    /// and per-layer replay of the served path — reuses it instead of
    /// re-deriving `O(|E|)` weights per query.
    pub fn edge_weights(&self) -> Option<Arc<EdgeWeights>> {
        self.weights.get().cloned()
    }

    /// Executes a batch: dedups it, lets worker threads pull the
    /// distinct requests one at a time in first-occurrence order, each
    /// through the single-request path, and places each answer at every
    /// position of its request. `results[i]` answers `queries[i]`; the
    /// first failing request in input order aborts the batch with its
    /// error.
    pub fn run_batch(&self, queries: &[Query]) -> Result<Vec<Arc<SearchResult>>, CoreError> {
        let none = Overrides::default();
        let keys = queries.iter().map(|q| self.key(q, &none)).collect();
        self.execute_batch(queries.iter().collect(), keys)
    }

    /// [`run_batch`](Self::run_batch) with per-request overrides.
    /// Requests dedup on their full key — seed list and pipeline key —
    /// so plain and overridden requests mix freely in one batch.
    pub fn run_batch_with(
        &self,
        requests: &[(Query, Overrides)],
    ) -> Result<Vec<Arc<SearchResult>>, CoreError> {
        let keys = requests.iter().map(|(q, o)| self.key(q, o)).collect();
        self.execute_batch(requests.iter().map(|(q, _)| q).collect(), keys)
    }

    fn execute_batch(
        &self,
        queries: Vec<&Query>,
        keys: Vec<Key>,
    ) -> Result<Vec<Arc<SearchResult>>, CoreError> {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.queries
            .fetch_add(queries.len() as u64, Ordering::Relaxed);
        // Each key's distinct index, numbered in first-occurrence order,
        // and the position where each distinct key first occurs.
        let mut index: HashMap<&Key, usize> = HashMap::new();
        let mut first = Vec::new();
        let distinct: Vec<usize> = keys
            .iter()
            .enumerate()
            .map(|(pos, key)| {
                *index.entry(key).or_insert_with(|| {
                    first.push(pos);
                    first.len() - 1
                })
            })
            .collect();
        self.deduplicated
            .fetch_add((keys.len() - first.len()) as u64, Ordering::Relaxed);
        let run = |d: usize| self.run_planned(queries[first[d]], &keys[first[d]]);
        // One flat cost: workers pull the distinct requests in index
        // order, one at a time.
        let answers = if self.config.parallel {
            parallel::map_costliest_first(first.len(), |_| 0, run)
        } else {
            (0..first.len()).map(run).collect()
        };
        // Distinct requests are numbered in first-occurrence order, so
        // the first error among them is the first failing request in
        // input order.
        let entries = answers.into_iter().collect::<Result<Vec<_>, _>>()?;
        Ok(distinct
            .into_iter()
            .map(|d| Arc::clone(&entries[d].result))
            .collect())
    }

    /// Snapshot of the cache and dedup counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            batches: self.batches.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            executed_groups: self.executed_groups.load(Ordering::Relaxed),
            deduplicated: self.deduplicated.load(Ordering::Relaxed),
            weight_builds: self.weight_builds.load(Ordering::Relaxed),
            result_coalesced: self.results.coalesced(),
            context_coalesced: self.contexts.coalesced(),
            ppr_coalesced: self.ppr.coalesced(),
            labels_scored: self.labels_scored.load(Ordering::Relaxed),
            ppr: self.ppr.stats(),
            context: self.contexts.stats(),
            result: self.results.stats(),
        }
    }

    /// Drops every cached PPR vector, context and result, with each
    /// result's stored encoding. Engine-level counters (batches, queries,
    /// executed groups, coalesced) keep accumulating; the per-cache
    /// hit/miss counters restart with the fresh caches. Useful for
    /// cold-cache measurements.
    pub fn clear_caches(&self) {
        self.ppr.clear();
        self.contexts.clear();
        self.results.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nck_core::config::{ContextRwConfig, PathMiningConfig};
    use nck_core::context::TypeFilter;
    use nck_graph::{GraphBuilder, KnowledgeGraph};

    /// Figure-1-style population large enough for real discoveries.
    fn leaders() -> KnowledgeGraph {
        let mut b = GraphBuilder::new();
        b.add_triple("Merkel", "studied", "Physics");
        b.add_triple("Obama", "studied", "Law");
        for i in 0..24 {
            let n = format!("leader{i}");
            b.add_triple(&n, "studied", "Law");
            for c in 0..(1 + i % 3) {
                b.add_triple(&n, "hasChild", &format!("child{i}_{c}"));
            }
            b.add_triple(&n, "memberOf", "G20");
        }
        b.add_triple("Obama", "hasChild", "Malia");
        b.add_triple("Merkel", "memberOf", "G20");
        b.add_triple("Obama", "memberOf", "G20");
        b.build()
    }

    fn fast_config() -> EngineConfig {
        EngineConfig {
            findnc: FindNcConfig {
                context: ContextRwConfig {
                    mining: PathMiningConfig {
                        walks: 4_000,
                        max_length: 3,
                        seed: 5,
                        parallel: false,
                    },
                    num_metapaths: 5,
                    type_filter: TypeFilter::None,
                    max_endpoint_fraction: 1.0,
                },
                context_size: 20,
                ..FindNcConfig::default()
            },
            ..EngineConfig::default()
        }
    }

    #[test]
    fn single_run_matches_sequential_discover() {
        let g = leaders();
        let q = Query::by_names(&g, ["Merkel", "Obama"]).unwrap();
        let cfg = fast_config();
        let engine = QueryEngine::new(&g, cfg.clone()).unwrap();
        let engine_result = engine.run(&q).unwrap();
        let sequential = FindNc::new(cfg.findnc).discover(&g, &q).unwrap();
        assert_eq!(
            engine_result.characteristics.len(),
            sequential.characteristics.len()
        );
        for (a, b) in engine_result
            .characteristics
            .iter()
            .zip(&sequential.characteristics)
        {
            assert_eq!(a.label, b.label);
            assert_eq!(a.score, b.score, "bit-exact parity");
            assert_eq!(a.significance, b.significance);
        }
    }

    #[test]
    fn repeats_hit_the_result_cache() {
        let g = leaders();
        let q = Query::by_names(&g, ["Merkel", "Obama"]).unwrap();
        let engine = QueryEngine::new(&g, fast_config()).unwrap();
        let a = engine.run(&q).unwrap();
        let b = engine.run(&q).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second run must be the cached Arc");
        let s = engine.stats();
        assert_eq!(s.queries, 2);
        assert_eq!(s.executed_groups, 1);
        assert_eq!(s.result.hits, 1);
    }

    #[test]
    fn batch_fans_results_out_in_input_order() {
        let g = leaders();
        let q1 = Query::by_names(&g, ["Merkel", "Obama"]).unwrap();
        let q2 = Query::by_names(&g, ["leader0", "leader1"]).unwrap();
        let batch = vec![q1.clone(), q2.clone(), q1.clone(), q2, q1];
        let engine = QueryEngine::new(&g, fast_config()).unwrap();
        let results = engine.run_batch(&batch).unwrap();
        assert_eq!(results.len(), 5);
        assert!(Arc::ptr_eq(&results[0], &results[2]));
        assert!(Arc::ptr_eq(&results[0], &results[4]));
        assert!(Arc::ptr_eq(&results[1], &results[3]));
        assert!(!Arc::ptr_eq(&results[0], &results[1]));
        let s = engine.stats();
        assert_eq!(s.batches, 1);
        assert_eq!(s.queries, 5);
        assert_eq!(s.executed_groups, 2);
        assert_eq!(s.deduplicated, 3);
    }

    #[test]
    fn randomwalk_mode_matches_sequential_selector() {
        use nck_core::config::PprConfig;
        use nck_core::ppr::RandomWalkSelector;
        let g = leaders();
        let q = Query::by_names(&g, ["Merkel", "Obama"]).unwrap();
        let rw = RandomWalkConfig {
            ppr: PprConfig {
                damping: 0.2,
                iterations: 10,
                parallel: false,
                epsilon: 0.0,
            },
            type_filter: TypeFilter::None,
        };
        let cfg = EngineConfig {
            selector: SelectorMode::RandomWalk,
            randomwalk: rw.clone(),
            ..fast_config()
        };
        let engine = QueryEngine::new(&g, cfg.clone()).unwrap();
        let engine_result = engine.run(&q).unwrap();
        let selector = RandomWalkSelector::new(rw);
        let sequential = FindNc::new(cfg.findnc)
            .discover_with_selector(&g, &q, &selector)
            .unwrap();
        assert_eq!(
            engine_result.context.ranked(),
            sequential.context.ranked(),
            "contexts must agree bit for bit"
        );
        for (a, b) in engine_result
            .characteristics
            .iter()
            .zip(&sequential.characteristics)
        {
            assert_eq!((a.label, a.score), (b.label, b.score));
        }
        // A second query sharing Merkel reuses her cached PPR vector.
        let q2 = Query::by_names(&g, ["Merkel", "leader0"]).unwrap();
        engine.run(&q2).unwrap();
        assert_eq!(engine.stats().ppr.hits, 1, "shared seed must hit");
        // The Eq.-1 weight table was derived exactly once for both
        // queries (ContextRw mode never builds it at all).
        assert_eq!(engine.stats().weight_builds, 1);
        let crw = QueryEngine::new(&g, fast_config()).unwrap();
        assert_eq!(crw.stats().weight_builds, 0);
        assert!(crw.edge_weights().is_none());
        assert!(engine.edge_weights().is_some());
    }

    #[test]
    fn sparse_ppr_vectors_cost_less_than_dense_estimates() {
        use nck_core::config::PprConfig;
        // The query pair's neighborhood is a tiny fraction of the graph:
        // hundreds of unrelated pairs inflate |V| without widening the
        // frontier, so the cached vectors stay sparse.
        let mut b = GraphBuilder::new();
        b.add_triple("Merkel", "memberOf", "G8");
        b.add_triple("Obama", "memberOf", "G8");
        b.add_triple("Merkel", "knows", "Obama");
        for i in 0..400 {
            b.add_triple(&format!("u{i}"), "knows", &format!("w{i}"));
        }
        let g = b.build();
        let q = Query::by_names(&g, ["Merkel", "Obama"]).unwrap();
        let cfg = EngineConfig {
            selector: SelectorMode::RandomWalk,
            randomwalk: RandomWalkConfig {
                ppr: PprConfig {
                    damping: 0.2,
                    iterations: 10,
                    parallel: false,
                    epsilon: 1e-4,
                },
                type_filter: TypeFilter::None,
            },
            ..fast_config()
        };
        let engine = QueryEngine::new(&g, cfg).unwrap();
        engine.run(&q).unwrap();
        let stats = engine.stats();
        assert_eq!(stats.ppr.len, 2, "one cached vector per seed");
        // With ε-pruned sparse vectors the cache charge must undercut the
        // old hardcoded dense estimate (8·|V| + header per vector).
        let dense_estimate = 2 * (g.num_nodes() * std::mem::size_of::<f64>() + 64);
        assert!(
            stats.ppr.bytes < dense_estimate,
            "sparse entries charged {} bytes, dense estimate {}",
            stats.ppr.bytes,
            dense_estimate
        );
    }

    /// A RandomWalk batch must be id-for-id and bit-for-bit identical to
    /// per-query runs, and compute each distinct seed's PageRank once.
    #[test]
    fn randomwalk_batch_matches_per_query_runs_bit_for_bit() {
        use nck_core::config::PprConfig;
        let g = leaders();
        let rw = RandomWalkConfig {
            ppr: PprConfig {
                damping: 0.2,
                iterations: 10,
                parallel: false,
                epsilon: 0.0,
            },
            type_filter: TypeFilter::None,
        };
        let base = EngineConfig {
            selector: SelectorMode::RandomWalk,
            randomwalk: rw,
            ..fast_config()
        };
        // 8 queries × 2 seeds, all 16 seeds distinct.
        let queries: Vec<Query> = (0..8)
            .map(|i| {
                Query::by_names(&g, [format!("leader{i}"), format!("leader{}", i + 8)]).unwrap()
            })
            .collect();
        let per_query = QueryEngine::new(&g, base.clone()).unwrap();
        let batched = QueryEngine::new(&g, base).unwrap();
        let a: Vec<Arc<SearchResult>> = queries.iter().map(|q| per_query.run(q).unwrap()).collect();
        let b = batched.run_batch(&queries).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.context.ranked(), y.context.ranked(), "contexts agree");
            assert_eq!(x.characteristics.len(), y.characteristics.len());
            for (cx, cy) in x.characteristics.iter().zip(&y.characteristics) {
                assert_eq!((cx.label, cx.score), (cy.label, cy.score));
            }
        }
        // No two queries share a seed, so no miss is a coalesced waiter.
        assert_eq!(batched.stats().ppr.misses, 16, "one miss per seed");
        assert_eq!(per_query.stats().ppr.misses, 16);
        // A warm repeat computes nothing.
        batched.run_batch(&queries).unwrap();
        assert_eq!(batched.stats().ppr.misses, 16);
    }

    fn randomwalk_config() -> EngineConfig {
        EngineConfig {
            selector: SelectorMode::RandomWalk,
            randomwalk: RandomWalkConfig {
                ppr: PprConfig {
                    damping: 0.2,
                    iterations: 10,
                    parallel: false,
                    epsilon: 0.0,
                },
                type_filter: TypeFilter::None,
            },
            ..fast_config()
        }
    }

    /// The pipeline key holds only what the effective selector reads, so
    /// an override equal to the engine's own setting — or one the
    /// selector ignores, or ε = −0.0 against ε = 0 — shares the plain
    /// request's entries.
    #[test]
    fn overrides_equal_to_the_engine_share_its_entries() {
        let g = leaders();
        let q = Query::by_names(&g, ["Merkel", "Obama"]).unwrap();
        let crw = QueryEngine::new(&g, fast_config()).unwrap();
        let plain = crw.run(&q).unwrap();
        for same in [
            Overrides {
                context_size: Some(20),
                ..Overrides::default()
            },
            Overrides {
                selector: Some(SelectorMode::ContextRw),
                walks: Some(4_000),
                epsilon: Some(0.5),
                ..Overrides::default()
            },
        ] {
            assert!(Arc::ptr_eq(&plain, &crw.run_with(&q, &same).unwrap()));
        }
        assert_eq!(crw.stats().executed_groups, 1);

        let rw = QueryEngine::new(&g, randomwalk_config()).unwrap();
        let plain = rw.run(&q).unwrap();
        let negative_zero = Overrides {
            epsilon: Some(-0.0),
            walks: Some(7),
            ..Overrides::default()
        };
        assert!(Arc::ptr_eq(
            &plain,
            &rw.run_with(&q, &negative_zero).unwrap()
        ));
        assert_eq!(rw.stats().executed_groups, 1);
    }

    /// Batches dedup on the full key: the same seeds under two settings
    /// are two executions, and each answer equals its single run.
    #[test]
    fn batches_group_by_seed_list_and_pipeline_key() {
        let g = leaders();
        let q = Query::by_names(&g, ["Merkel", "Obama"]).unwrap();
        let small = Overrides {
            context_size: Some(5),
            ..Overrides::default()
        };
        let batch = vec![
            (q.clone(), Overrides::default()),
            (q.clone(), small),
            (q.clone(), Overrides::default()),
        ];
        let engine = QueryEngine::new(&g, fast_config()).unwrap();
        let results = engine.run_batch_with(&batch).unwrap();
        assert!(Arc::ptr_eq(&results[0], &results[2]));
        assert!(!Arc::ptr_eq(&results[0], &results[1]));
        assert_eq!(results[0].context.len(), 20);
        assert_eq!(results[1].context.len(), 5);
        let s = engine.stats();
        assert_eq!((s.batches, s.queries), (1, 3));
        assert_eq!((s.executed_groups, s.deduplicated), (2, 1));
        let single = QueryEngine::new(&g, fast_config()).unwrap();
        let alone = single.run_with(&q, &small).unwrap();
        assert_eq!(alone.context.ranked(), results[1].context.ranked());
    }

    /// FP accumulation runs in seed order, so `[Obama, Merkel]` is not
    /// the same request as `[Merkel, Obama]` (see `Key`).
    #[test]
    fn seed_permuted_queries_stay_distinct() {
        let g = leaders();
        let batch = vec![
            Query::by_names(&g, ["Merkel", "Obama"]).unwrap(),
            Query::by_names(&g, ["Obama", "Merkel"]).unwrap(),
        ];
        let engine = QueryEngine::new(&g, fast_config()).unwrap();
        let results = engine.run_batch(&batch).unwrap();
        assert!(!Arc::ptr_eq(&results[0], &results[1]));
        let s = engine.stats();
        assert_eq!((s.batches, s.queries), (1, 2));
        assert_eq!((s.executed_groups, s.deduplicated), (2, 0));
    }

    #[test]
    fn an_empty_batch_runs_nothing() {
        let g = leaders();
        let engine = QueryEngine::new(&g, fast_config()).unwrap();
        assert!(engine.run_batch(&[]).unwrap().is_empty());
        let s = engine.stats();
        assert_eq!((s.batches, s.queries), (1, 0));
        assert_eq!((s.executed_groups, s.deduplicated), (0, 0));
    }

    /// A failing batch reports its first failing request in input order,
    /// whatever its seed ids: here the higher id comes first.
    #[test]
    fn a_failing_batch_reports_its_first_failing_request() {
        let mut b = GraphBuilder::new();
        b.add_triple("Merkel", "memberOf", "G20");
        let low = b.node("isolated_low");
        let high = b.node("isolated_high");
        assert!(low < high);
        let g = b.build();
        let request = |name: &str, context_size| {
            (
                Query::by_names(&g, [name]).unwrap(),
                Overrides {
                    context_size: Some(context_size),
                    ..Overrides::default()
                },
            )
        };
        let batch = vec![request("isolated_high", 7), request("isolated_low", 5)];
        for parallel in [true, false] {
            let engine = QueryEngine::new(
                &g,
                EngineConfig {
                    parallel,
                    ..fast_config()
                },
            )
            .unwrap();
            match engine.run_batch_with(&batch) {
                Err(CoreError::NotEnoughCandidates { requested, .. }) => {
                    assert_eq!(requested, 7, "parallel: {parallel}")
                }
                other => panic!("expected NotEnoughCandidates, got {other:?}"),
            }
        }
    }

    /// The PPR cache keys on ε: the same seeds under two ε values miss
    /// separately, and each answer equals its single run.
    #[test]
    fn batch_seeds_miss_once_per_epsilon() {
        let g = leaders();
        let queries: Vec<Query> = (0..2)
            .map(|i| {
                Query::by_names(&g, [format!("leader{i}"), format!("leader{}", i + 2)]).unwrap()
            })
            .collect();
        let sparse = Overrides {
            epsilon: Some(1e-3),
            ..Overrides::default()
        };
        let batch: Vec<(Query, Overrides)> = queries
            .iter()
            .flat_map(|q| [(q.clone(), Overrides::default()), (q.clone(), sparse)])
            .collect();
        let engine = QueryEngine::new(&g, randomwalk_config()).unwrap();
        let results = engine.run_batch_with(&batch).unwrap();
        assert_eq!(engine.stats().ppr.misses, 8, "4 seeds at each of 2 ε");
        let solo = QueryEngine::new(&g, randomwalk_config()).unwrap();
        for ((q, o), r) in batch.iter().zip(&results) {
            let want = solo.run_with(q, o).unwrap();
            assert_eq!(want.context.ranked(), r.context.ranked());
        }
    }

    #[test]
    fn eviction_pressure_does_not_change_results() {
        let g = leaders();
        let queries: Vec<Query> = (0..6)
            .map(|i| {
                Query::by_names(&g, [format!("leader{i}"), format!("leader{}", i + 6)]).unwrap()
            })
            .collect();
        let roomy = QueryEngine::new(&g, fast_config()).unwrap();
        let tight = QueryEngine::new(
            &g,
            EngineConfig {
                ppr_cache_entries: 1,
                context_cache_entries: 1,
                result_cache_entries: 1,
                ..fast_config()
            },
        )
        .unwrap();
        // Run the workload twice through each engine; the tight engine
        // evicts constantly, the roomy one hits constantly.
        for _ in 0..2 {
            let a = roomy.run_batch(&queries).unwrap();
            let b = tight.run_batch(&queries).unwrap();
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.context.ranked(), y.context.ranked());
                for (cx, cy) in x.characteristics.iter().zip(&y.characteristics) {
                    assert_eq!((cx.label, cx.score), (cy.label, cy.score));
                }
            }
        }
        assert!(tight.stats().result.evictions > 0, "pressure must evict");
        assert!(roomy.stats().result.hits >= 6, "second pass must hit");
    }

    /// Concurrent clients issuing the same cold query coalesce onto one
    /// computation: exactly one group executes, every client gets the
    /// same `Arc`, and the flight counters account for the waiters.
    #[test]
    fn concurrent_identical_queries_coalesce() {
        use std::sync::Barrier;
        let g = leaders();
        let q = Query::by_names(&g, ["Merkel", "Obama"]).unwrap();
        let engine = QueryEngine::new(&g, fast_config()).unwrap();
        const CLIENTS: usize = 8;
        let barrier = Barrier::new(CLIENTS);
        let results: Vec<Arc<SearchResult>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    let (engine, q, barrier) = (&engine, &q, &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        engine.run(q).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for r in &results[1..] {
            assert!(
                Arc::ptr_eq(&results[0], r),
                "all clients share the one computed Arc"
            );
        }
        let s = engine.stats();
        assert_eq!(s.queries, CLIENTS as u64);
        assert_eq!(s.executed_groups, 1, "one computation for 8 clients");
        // Every client that did not lead was answered without
        // recomputation: a cache hit, a coalesced flight, or (in a
        // narrow race window) an uncounted post-flight peek.
        assert!(
            s.result.hits + s.result_coalesced <= (CLIENTS - 1) as u64,
            "at most {} waiters, saw {} hits + {} coalesced",
            CLIENTS - 1,
            s.result.hits,
            s.result_coalesced
        );
        // A repeat run is a plain cache hit, not a flight.
        let again = engine.run(&q).unwrap();
        assert!(Arc::ptr_eq(&results[0], &again));
    }

    /// `labels_scored` accounts cold scoring work only: a cache hit
    /// never re-scores.
    #[test]
    fn labels_scored_counts_cold_scoring_only() {
        let g = leaders();
        let q = Query::by_names(&g, ["Merkel", "Obama"]).unwrap();
        let engine = QueryEngine::new(&g, fast_config()).unwrap();
        let r = engine.run(&q).unwrap();
        assert_eq!(engine.stats().labels_scored, r.characteristics.len() as u64);
        engine.run(&q).unwrap();
        assert_eq!(
            engine.stats().labels_scored,
            r.characteristics.len() as u64,
            "cache hit must not re-score"
        );
    }

    /// A stand-in encoding: the characteristic count, plus a call count.
    fn counting_encode(
        calls: &std::cell::Cell<usize>,
    ) -> impl FnOnce(&SearchResult) -> Encoded + '_ {
        move |result| {
            calls.set(calls.get() + 1);
            Encoded {
                context: result.context.len().to_string(),
                characteristics: vec![result.characteristics.len().to_string()],
            }
        }
    }

    /// Repeats of one key encode once and all share the stored `Arc`.
    #[test]
    fn repeats_encode_once_and_share_the_encoding() {
        let g = leaders();
        let q = Query::by_names(&g, ["Merkel", "Obama"]).unwrap();
        let engine = QueryEngine::new(&g, fast_config()).unwrap();
        let calls = std::cell::Cell::new(0);
        let none = Overrides::default();
        let (first_result, first) = engine
            .run_encoded(&q, &none, counting_encode(&calls))
            .unwrap();
        for _ in 1..100 {
            let (result, encoded) = engine
                .run_encoded(&q, &none, counting_encode(&calls))
                .unwrap();
            assert!(Arc::ptr_eq(&first, &encoded));
            assert!(Arc::ptr_eq(&first_result, &result));
        }
        assert_eq!(calls.get(), 1, "encode runs once per entry");
        assert!(Arc::ptr_eq(&first_result, &engine.run(&q).unwrap()));
    }

    /// The encoding lives and dies with its result-cache entry.
    #[test]
    fn eviction_drops_the_encoding_and_the_next_request_encodes_again() {
        let g = leaders();
        let first = Query::by_names(&g, ["Merkel", "Obama"]).unwrap();
        let second = Query::by_names(&g, ["leader0", "leader1"]).unwrap();
        let engine = QueryEngine::new(
            &g,
            EngineConfig {
                result_cache_entries: 1,
                ..fast_config()
            },
        )
        .unwrap();
        let calls = std::cell::Cell::new(0);
        let none = Overrides::default();
        let (_, encoded) = engine
            .run_encoded(&first, &none, counting_encode(&calls))
            .unwrap();
        let weak = Arc::downgrade(&encoded);
        drop(encoded);
        assert!(weak.upgrade().is_some(), "the cache entry holds it");
        engine
            .run_encoded(&second, &none, counting_encode(&calls))
            .unwrap();
        assert_eq!(engine.stats().result.evictions, 1);
        assert!(weak.upgrade().is_none(), "evicted with its entry");
        engine
            .run_encoded(&first, &none, counting_encode(&calls))
            .unwrap();
        assert_eq!(calls.get(), 3, "the evicted key encodes again");
    }

    /// `run_encoded` is counted, cached and coalesced as `run_with` is.
    #[test]
    fn run_encoded_leaves_the_stats_run_with_leaves() {
        let g = leaders();
        let q1 = Query::by_names(&g, ["Merkel", "Obama"]).unwrap();
        let q2 = Query::by_names(&g, ["leader0", "leader1"]).unwrap();
        let small = Overrides {
            context_size: Some(5),
            ..Overrides::default()
        };
        let none = Overrides::default();
        let sequence = [
            (&q1, none),
            (&q2, none),
            (&q1, small),
            (&q1, none),
            (&q2, none),
        ];
        let config = EngineConfig {
            result_cache_entries: 2,
            ..fast_config()
        };
        let plain = QueryEngine::new(&g, config.clone()).unwrap();
        let encoding = QueryEngine::new(&g, config).unwrap();
        let calls = std::cell::Cell::new(0);
        for (q, o) in sequence {
            plain.run_with(q, &o).unwrap();
            encoding
                .run_encoded(q, &o, counting_encode(&calls))
                .unwrap();
        }
        assert_eq!(plain.stats(), encoding.stats());
        assert!(plain.stats().result.evictions > 0, "the sequence evicts");
    }

    #[test]
    fn clear_caches_resets_entries_not_counters() {
        let g = leaders();
        let q = Query::by_names(&g, ["Merkel", "Obama"]).unwrap();
        let engine = QueryEngine::new(&g, fast_config()).unwrap();
        engine.run(&q).unwrap();
        assert_eq!(engine.stats().result.len, 1);
        engine.clear_caches();
        assert_eq!(engine.stats().result.len, 0);
        assert_eq!(engine.stats().queries, 1);
        engine.run(&q).unwrap();
        assert_eq!(engine.stats().executed_groups, 2, "recomputed after clear");
    }
}
