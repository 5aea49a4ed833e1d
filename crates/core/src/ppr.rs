//! Frequency-weighted Personalized PageRank — the RandomWalk baseline.
//!
//! §3.1 of the paper: instead of uniform transitions, an edge labeled `l`
//! carries weight `A_ij = 1 − |E_l|/|E|` (Eq. 1) — the rarer (more
//! informative) the label, the more attractive the edge. The Personalized
//! PageRank vector solves
//!
//! ```text
//! p = c·Ã·p + (1 − c)·v        (Eq. 2, Ã column-normalized)
//! ```
//!
//! by power iteration (the paper's experiments: 10 iterations). The
//! baseline computes one PageRank per query node (personalization
//! `v = e_q`), sums the vectors, and returns the top-k candidates.
//!
//! ## Sparse execution
//!
//! With [`PprConfig::epsilon`]` > 0` the iteration is executed over the
//! **frontier** — only nodes holding probability mass are visited, and
//! per-iteration cost is `O(Σ deg(frontier))` instead of
//! `O(|V| + |E|)`. Frontier entries holding less than `epsilon` mass
//! are *dropped* before propagating: the touched neighborhood stays
//! local to the sources, and the approximation error is bounded — each
//! unit of mass dropped at iteration `t` perturbs the final vector by at
//! most `c^(K−t+1)` in L1 (the difference between the exact and the
//! truncated run propagates through the same affine update, whose linear
//! part shrinks mass by the damping factor `c` every iteration). The
//! exact bound is reported per run as [`PprOutcome::l1_bound`]:
//!
//! ```text
//! ‖p_sparse − p_dense‖₁ ≤ Σ_t dropped_t · c^(K−t+1) ≤ Σ_t dropped_t
//! ```
//!
//! At `epsilon = 0` nothing can prune, so [`run`] dispatches to the
//! dense executor ([`run_dense`], the pre-sparse implementation
//! verbatim) — default-configuration performance is unchanged and
//! exactness is structural. The frontier executor is still *defined*
//! at `epsilon = 0` (visiting mass-holding nodes in ascending order
//! performs the identical `f64` operations in the identical order) and
//! [`frontier_outcome`] exposes it so the property tests pin it
//! bit-for-bit against the dense reference on every backend.
//!
//! ## Blocked multi-seed execution
//!
//! A batch of *distinct* seeds re-walks the same adjacency once per
//! seed — on [`CompactGraph`](nck_graph::CompactGraph) it even
//! re-decodes the same varint runs — although the per-seed math is
//! cheap. [`run_block`] processes `B` seeds simultaneously with `B`
//! f64 mass lanes per node: each frontier node's out-edges are located
//! and weight-looked-up **once per iteration** and applied to every
//! lane holding mass. Lane `i` is **bit-for-bit identical** to
//! `frontier_outcome(&[seeds[i]])`:
//!
//! - The blocked sweep visits the ascending union of all lanes'
//!   mass-holding nodes; a lane with zero mass at a node contributes
//!   nothing there (exactly the solo executor's zero-mass skip), so
//!   each lane sees its solo visit sequence.
//! - Every per-lane quantity (epsilon drops, dangling mass, restart,
//!   `l1_bound` decay) is accumulated in its solo order, and all
//!   propagated values are non-negative, so the shared lane-row zeroing
//!   of [`BlockSparseWorkspace`] is bitwise invisible (see its docs).
//!
//! [`run`]: PersonalizedPageRank::run
//! [`run_dense`]: PersonalizedPageRank::run_dense
//! [`frontier_outcome`]: PersonalizedPageRank::frontier_outcome
//! [`run_block`]: PersonalizedPageRank::run_block

use crate::config::{PprConfig, RandomWalkConfig};
use crate::context::{top_k_context, CandidateFilter, Context, ContextSelector};
use crate::error::CoreError;
use crate::parallel;
use crate::query::Query;
use crate::score::{BlockSparseWorkspace, ScoreVec, SparseWorkspace};
use nck_graph::{GraphAccess, NodeId};
use std::sync::Arc;

/// The Eq.-1 transition weights of a graph, shared across rankers.
///
/// Building them costs `O(|E|)` — once per graph, not once per query:
/// the engine constructs a single table and every PageRank run (cached
/// or not) borrows it through an [`Arc`].
#[derive(Debug, Clone)]
pub struct EdgeWeights {
    /// Per-label Eq. 1 weight `1 − |E_l|/|E|`.
    label_weight: Vec<f64>,
    /// Per-node total outgoing weight (the normalizer of Ã's columns).
    out_weight: Vec<f64>,
}

impl EdgeWeights {
    /// Derives the weight table from `graph` (`O(|E|)`).
    pub fn new<G: GraphAccess>(graph: &G) -> Self {
        let label_weight: Vec<f64> = graph
            .labels()
            .iter()
            .map(|l| 1.0 - graph.label_frequency(l))
            .collect();
        let mut out_weight = vec![0.0f64; graph.num_nodes()];
        for v in graph.nodes() {
            let mut w = 0.0;
            for (l, _) in graph.edges(v) {
                w += label_weight[l.index()];
            }
            out_weight[v.index()] = w;
        }
        Self {
            label_weight,
            out_weight,
        }
    }

    /// The Eq.-1 weight of `label`.
    pub fn label_weight(&self, label: nck_graph::EdgeLabelId) -> f64 {
        self.label_weight[label.index()]
    }

    /// The total outgoing weight of `node`.
    pub fn out_weight(&self, node: NodeId) -> f64 {
        self.out_weight[node.index()]
    }
}

/// Scratch state for repeated PageRank runs: two epoch-versioned
/// [`SparseWorkspace`]s (current mass and next mass), reusable across
/// any number of runs with zero steady-state allocation.
#[derive(Debug, Default)]
pub struct PprWorkspace {
    p: SparseWorkspace,
    next: SparseWorkspace,
    /// The personalization entries of the current run (sorted).
    v_entries: Vec<(NodeId, f64)>,
}

impl PprWorkspace {
    /// An empty workspace (sized lazily by the first run).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Scratch state for blocked multi-seed runs
/// ([`PersonalizedPageRank::run_block`]): two lane-strided
/// [`BlockSparseWorkspace`]s (current and next mass) plus per-lane
/// accounting buffers, all epoch-reset and reusable across any number
/// of blocks — of any width — with zero steady-state allocation.
#[derive(Debug, Default)]
pub struct BlockPprWorkspace {
    p: BlockSparseWorkspace,
    next: BlockSparseWorkspace,
    /// Per-lane propagation scale at the node currently being visited.
    scale: Vec<f64>,
    /// Per-lane dangling mass of the current iteration.
    dangling: Vec<f64>,
    /// Per-lane epsilon-dropped mass of the current iteration.
    dropped_here: Vec<f64>,
    /// Per-lane cumulative dropped mass.
    dropped_mass: Vec<f64>,
    /// Per-lane running L1 bound.
    l1_bound: Vec<f64>,
}

impl BlockPprWorkspace {
    /// An empty workspace (sized lazily by the first block).
    pub fn new() -> Self {
        Self::default()
    }
}

/// One finished PageRank run: the scores plus the approximation
/// accounting of the sparse path.
#[derive(Debug, Clone)]
pub struct PprOutcome {
    /// The score vector (sparse or dense per the densify threshold).
    pub scores: ScoreVec,
    /// Total probability mass dropped by `epsilon` pruning (0 when
    /// `epsilon == 0`).
    pub dropped_mass: f64,
    /// Upper bound on `‖sparse − exact‖₁` implied by the drops (see the
    /// [module docs](self)); 0 when `epsilon == 0`.
    pub l1_bound: f64,
}

/// Frontier-based Personalized PageRank over the weighted graph,
/// generic over the [`GraphAccess`] backend.
///
/// Owns its backend handle: pass `&graph` to borrow (references are
/// backends too), or an owned cheap handle such as
/// [`ErasedGraph`](nck_graph::ErasedGraph) when the ranker must be
/// self-contained.
pub struct PersonalizedPageRank<G> {
    graph: G,
    config: PprConfig,
    weights: Arc<EdgeWeights>,
}

impl<G: GraphAccess> PersonalizedPageRank<G> {
    /// Precomputes weights for `graph`.
    pub fn new(graph: G, config: PprConfig) -> Result<Self, CoreError> {
        let weights = Arc::new(EdgeWeights::new(&graph));
        Self::with_weights(graph, config, weights)
    }

    /// Builds the ranker around an already-derived weight table (must
    /// come from the same graph). This is how the engine shares one
    /// `O(|E|)` precomputation across a whole batch.
    pub fn with_weights(
        graph: G,
        config: PprConfig,
        weights: Arc<EdgeWeights>,
    ) -> Result<Self, CoreError> {
        if !(0.0..=1.0).contains(&config.damping) || !config.damping.is_finite() {
            return Err(CoreError::InvalidConfig {
                field: "damping",
                message: format!("must be in [0, 1], got {}", config.damping),
            });
        }
        if config.iterations == 0 {
            return Err(CoreError::InvalidConfig {
                field: "iterations",
                message: "must be positive".into(),
            });
        }
        if !(config.epsilon >= 0.0 && config.epsilon.is_finite()) {
            return Err(CoreError::InvalidConfig {
                field: "epsilon",
                message: format!("must be finite and non-negative, got {}", config.epsilon),
            });
        }
        Ok(Self {
            graph,
            config,
            weights,
        })
    }

    /// The shared Eq.-1 weight table.
    pub fn weights(&self) -> &Arc<EdgeWeights> {
        &self.weights
    }

    /// Runs the power iteration with personalization on `sources`
    /// (uniform mass over them) and returns the score vector.
    ///
    /// Allocates a fresh workspace; hot paths that answer many queries
    /// should hold a [`PprWorkspace`] and call
    /// [`run_with`](Self::run_with) instead.
    pub fn run(&self, sources: &[NodeId]) -> ScoreVec {
        self.run_with(sources, &mut PprWorkspace::new())
    }

    /// [`run`](Self::run) against a caller-held workspace. On the
    /// frontier path (`epsilon > 0`) repeated calls allocate nothing in
    /// steady state; at `epsilon = 0` the dense executor runs instead
    /// and allocates its per-run vectors exactly as the pre-sparse
    /// implementation did (the workspace is not consulted).
    pub fn run_with(&self, sources: &[NodeId], ws: &mut PprWorkspace) -> ScoreVec {
        self.run_outcome(sources, ws).scores
    }

    /// [`run_with`](Self::run_with) plus the sparse-path approximation
    /// accounting.
    ///
    /// Dispatches by `epsilon`: at `epsilon = 0` nothing can prune, so
    /// the frontier bookkeeping (epoch stamps, touched-list sorting,
    /// sparse export) is pure overhead and the dense executor
    /// ([`run_dense`](Self::run_dense)) is both faster and trivially
    /// exact — it runs instead, wrapped as [`ScoreVec::Dense`]. The
    /// frontier executor at `epsilon = 0` remains reachable through
    /// [`frontier_outcome`](Self::frontier_outcome), where the property
    /// tests pin it bit-for-bit to the dense reference.
    pub fn run_outcome(&self, sources: &[NodeId], ws: &mut PprWorkspace) -> PprOutcome {
        if self.config.epsilon == 0.0 {
            return PprOutcome {
                scores: ScoreVec::from_dense(self.run_dense(sources)),
                dropped_mass: 0.0,
                l1_bound: 0.0,
            };
        }
        self.frontier_outcome(sources, ws)
    }

    /// The frontier executor, regardless of `epsilon`: iterates only
    /// nodes holding mass, pruning entries below `epsilon`. This is what
    /// [`run_outcome`](Self::run_outcome) runs when `epsilon > 0`;
    /// callers (parity tests, benches) invoke it directly to exercise
    /// the frontier path at `epsilon = 0`, where it must match
    /// [`run_dense`](Self::run_dense) bit for bit.
    pub fn frontier_outcome(&self, sources: &[NodeId], ws: &mut PprWorkspace) -> PprOutcome {
        let n = self.graph.num_nodes();
        let c = self.config.damping;
        let eps = self.config.epsilon;
        let share = 1.0 / sources.len().max(1) as f64;
        let PprWorkspace { p, next, v_entries } = ws;
        p.begin(n);
        for &s in sources {
            p.add(s, share);
        }
        p.sort_touched();
        v_entries.clear();
        for &i in p.touched() {
            v_entries.push((NodeId::from_index(i as usize), p.value_at(i)));
        }
        let mut dropped_mass = 0.0f64;
        let mut l1_bound = 0.0f64;
        for _ in 0..self.config.iterations {
            next.begin(n);
            let mut dangling = 0.0f64;
            let mut dropped_here = 0.0f64;
            // Ascending frontier order: the exact visit order of the
            // dense loop restricted to nodes with mass, so every f64
            // accumulation happens in the same sequence and `epsilon = 0`
            // matches `run_dense` bit for bit. A frontier that has grown
            // past half the universe is walked by index scan instead of
            // sorting the touched list — same ascending visit order,
            // without the `O(f log f)` sort.
            let mut body = |ui: u32, mass: f64| {
                if mass == 0.0 {
                    return;
                }
                if eps > 0.0 && mass < eps {
                    dropped_here += mass;
                    return;
                }
                let u = NodeId::from_index(ui as usize);
                let w_total = self.weights.out_weight[ui as usize];
                if w_total <= 0.0 {
                    // Dangling node: its mass restarts at the
                    // personalization vector (standard PPR handling).
                    dangling += mass;
                    return;
                }
                let scale = c * mass / w_total;
                for (l, t) in self.graph.edges(u) {
                    next.add(t, scale * self.weights.label_weight[l.index()]);
                }
            };
            if p.touched_len() * 2 > n {
                for ui in 0..n as u32 {
                    body(ui, p.slot(ui));
                }
            } else {
                p.sort_touched();
                for &ui in p.touched() {
                    body(ui, p.value_at(ui));
                }
            }
            let restart = 1.0 - c + c * dangling;
            for &(s, vi) in v_entries.iter() {
                next.add(s, restart * vi);
            }
            dropped_mass += dropped_here;
            // The exact-vs-truncated difference propagates through the
            // linear part of the update, which contracts L1 mass by `c`
            // per iteration — fold this iteration's drops in and decay.
            l1_bound = (l1_bound + dropped_here) * c;
            std::mem::swap(p, next);
        }
        PprOutcome {
            scores: p.export(n),
            dropped_mass,
            l1_bound,
        }
    }

    /// The dense power iteration exactly as the pre-sparse implementation
    /// computed it — what [`run`](Self::run) executes at `epsilon = 0`,
    /// the reference the frontier path is pinned against, and the
    /// baseline of the dense-vs-sparse bench. Ignores `epsilon`.
    pub fn run_dense(&self, sources: &[NodeId]) -> Vec<f64> {
        let n = self.graph.num_nodes();
        let c = self.config.damping;
        let mut v = vec![0.0f64; n];
        let share = 1.0 / sources.len().max(1) as f64;
        for &s in sources {
            v[s.index()] += share;
        }
        let mut p = v.clone();
        let mut next = vec![0.0f64; n];
        for _ in 0..self.config.iterations {
            next.fill(0.0);
            let mut dangling = 0.0f64;
            for u in self.graph.nodes() {
                let mass = p[u.index()];
                if mass == 0.0 {
                    continue;
                }
                let w_total = self.weights.out_weight[u.index()];
                if w_total <= 0.0 {
                    dangling += mass;
                    continue;
                }
                let scale = c * mass / w_total;
                for (l, t) in self.graph.edges(u) {
                    next[t.index()] += scale * self.weights.label_weight[l.index()];
                }
            }
            let restart = 1.0 - c + c * dangling;
            for (x, &vi) in next.iter_mut().zip(&v) {
                *x += restart * vi;
            }
            std::mem::swap(&mut p, &mut next);
        }
        p
    }

    /// Runs one PageRank **per seed**, all seeds of the block
    /// simultaneously: one graph sweep per iteration feeds every lane,
    /// so the adjacency (and, on compact backends, its varint decode)
    /// is traversed once instead of `seeds.len()` times.
    ///
    /// Lane `i` of the result is bit-for-bit identical to
    /// `frontier_outcome(&[seeds[i]], …)` — scores, `dropped_mass`, and
    /// `l1_bound` alike (see the [module docs](self) for the visit-order
    /// argument). Duplicate seeds are independent lanes with identical
    /// outcomes. An empty block returns an empty vector.
    pub fn run_block(&self, seeds: &[NodeId], ws: &mut BlockPprWorkspace) -> Vec<PprOutcome> {
        let lanes = seeds.len();
        if lanes == 0 {
            return Vec::new();
        }
        let n = self.graph.num_nodes();
        let c = self.config.damping;
        let eps = self.config.epsilon;
        let BlockPprWorkspace {
            p,
            next,
            scale,
            dangling,
            dropped_here,
            dropped_mass,
            l1_bound,
        } = ws;
        scale.clear();
        scale.resize(lanes, 0.0);
        dangling.clear();
        dangling.resize(lanes, 0.0);
        dropped_here.clear();
        dropped_here.resize(lanes, 0.0);
        dropped_mass.clear();
        dropped_mass.resize(lanes, 0.0);
        l1_bound.clear();
        l1_bound.resize(lanes, 0.0);
        p.begin(n, lanes);
        for (lane, &s) in seeds.iter().enumerate() {
            // Single-seed personalization per lane: v = e_seed, so the
            // solo run's `share` is exactly 1.0.
            p.add(s, lane, 1.0);
        }
        for _ in 0..self.config.iterations {
            next.begin(n, lanes);
            dangling.fill(0.0);
            dropped_here.fill(0.0);
            // Ascending union-frontier order: restricted to any one
            // lane's mass-holding nodes this is that lane's solo visit
            // sequence (zero-mass lanes contribute nothing at a node),
            // so every lane's f64 accumulation order matches its solo
            // run. Past half the universe, scan by index instead of
            // sorting the touched list — same ascending order.
            let mut body = |ui: u32, masses: &[f64]| {
                let w_total = self.weights.out_weight[ui as usize];
                let mut any = false;
                for (lane, &mass) in masses.iter().enumerate() {
                    scale[lane] = 0.0;
                    if mass == 0.0 {
                        continue;
                    }
                    if eps > 0.0 && mass < eps {
                        dropped_here[lane] += mass;
                        continue;
                    }
                    if w_total <= 0.0 {
                        dangling[lane] += mass;
                        continue;
                    }
                    scale[lane] = c * mass / w_total;
                    any = true;
                }
                if !any {
                    return;
                }
                let u = NodeId::from_index(ui as usize);
                for (l, t) in self.graph.edges(u) {
                    let w = self.weights.label_weight[l.index()];
                    // One first-touch (stamp + zero fill) per edge; the
                    // lane loop then accumulates straight into the row,
                    // branchless so it vectorizes. A zero scale adds
                    // exactly `+0.0`, which is bitwise invisible: no
                    // accumulated value is ever `-0.0` (products and
                    // sums of non-negative factors), and the solo run's
                    // export filters zero slots either way.
                    let row = next.row_mut(t);
                    for (r, &s) in row.iter_mut().zip(scale.iter()) {
                        *r += s * w;
                    }
                }
            };
            if p.touched_len() * 2 > n {
                for ui in 0..n as u32 {
                    if let Some(masses) = p.row(ui) {
                        body(ui, masses);
                    }
                }
            } else {
                p.sort_touched();
                for &ui in p.touched() {
                    let Some(masses) = p.row(ui) else { continue };
                    body(ui, masses);
                }
            }
            for (lane, &s) in seeds.iter().enumerate() {
                let restart = 1.0 - c + c * dangling[lane];
                // The solo run computes `restart * v_i` with v_i = 1.0;
                // multiplying keeps the op sequence literal.
                next.add(s, lane, restart * 1.0);
            }
            for lane in 0..lanes {
                dropped_mass[lane] += dropped_here[lane];
                l1_bound[lane] = (l1_bound[lane] + dropped_here[lane]) * c;
            }
            std::mem::swap(p, next);
        }
        (0..lanes)
            .map(|lane| PprOutcome {
                scores: p.export_lane(n, lane),
                dropped_mass: dropped_mass[lane],
                l1_bound: l1_bound[lane],
            })
            .collect()
    }
}

/// The RandomWalk baseline selector: per-query-node PageRanks, summed.
pub struct RandomWalkSelector {
    config: RandomWalkConfig,
    /// Weight table shared with the caller (must match the graph passed
    /// to [`select`](ContextSelector::select)); derived per call when
    /// absent.
    weights: Option<Arc<EdgeWeights>>,
}

impl RandomWalkSelector {
    /// Creates the selector with the given configuration.
    pub fn new(config: RandomWalkConfig) -> Self {
        Self {
            config,
            weights: None,
        }
    }

    /// Creates the selector around a pre-derived weight table, skipping
    /// the per-select `O(|E|)` weight pass. The table must describe the
    /// graph later passed to `select` (weights are keyed by node/label
    /// id, so a mismatched graph would silently mis-rank).
    pub fn with_weights(config: RandomWalkConfig, weights: Arc<EdgeWeights>) -> Self {
        Self {
            config,
            weights: Some(weights),
        }
    }

    /// Paper-experiment settings (damping 0.2, 10 iterations).
    pub fn paper_experiment() -> Self {
        Self::new(RandomWalkConfig {
            ppr: PprConfig {
                damping: 0.2,
                iterations: 10,
                ..PprConfig::default()
            },
            ..RandomWalkConfig::default()
        })
    }
}

impl Default for RandomWalkSelector {
    fn default() -> Self {
        Self::new(RandomWalkConfig::default())
    }
}

impl<G: GraphAccess + Sync> ContextSelector<G> for RandomWalkSelector {
    fn select(&self, graph: &G, query: &Query, k: usize) -> Result<Context, CoreError> {
        let ppr = match &self.weights {
            Some(w) => {
                PersonalizedPageRank::with_weights(graph, self.config.ppr.clone(), Arc::clone(w))?
            }
            None => PersonalizedPageRank::new(graph, self.config.ppr.clone())?,
        };
        let nq = query.len();
        let n = graph.num_nodes();
        // One PageRank per query node ("setting v_n = 1 for each n ∈ Q,
        // individually"), computed on workers — each chunk reusing one
        // workspace across its query nodes — and summed in seed order,
        // as the engine sums its cached vectors, so the chunking never
        // reaches the bits.
        let scores = parallel::map_chunks(
            nq,
            self.config.ppr.parallel && nq > 1,
            |_i, range| {
                let mut ws = PprWorkspace::new();
                range
                    .map(|qi| ppr.run_with(&[query.nodes()[qi]], &mut ws))
                    .collect::<Vec<_>>()
            },
            ScoreVec::zeros(n),
            |mut acc, part| {
                for v in &part {
                    acc.add_assign(v);
                }
                acc
            },
        );
        let filter = CandidateFilter::new(graph, query, self.config.type_filter);
        top_k_context(graph, query, scores.iter(), &filter, k)
    }

    fn name(&self) -> &'static str {
        "RandomWalk"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::TypeFilter;
    use nck_graph::{GraphBuilder, KnowledgeGraph};

    /// A small two-community graph: `a*` nodes interlinked, `b*` nodes
    /// interlinked, one bridge.
    fn two_communities() -> KnowledgeGraph {
        let mut b = GraphBuilder::new();
        let names_a = ["a0", "a1", "a2", "a3"];
        let names_b = ["b0", "b1", "b2", "b3"];
        for w in names_a.windows(2) {
            b.add_triple(w[0], "knows", w[1]);
        }
        b.add_triple("a3", "knows", "a0");
        b.add_triple("a0", "knows", "a2");
        for w in names_b.windows(2) {
            b.add_triple(w[0], "knows", w[1]);
        }
        b.add_triple("b3", "knows", "b0");
        b.add_triple("a0", "bridge", "b0");
        for n in names_a.iter().chain(&names_b) {
            let id = b.node(n);
            b.set_type(id, "person");
        }
        b.build()
    }

    #[test]
    fn mass_conserved_each_iteration() {
        let g = two_communities();
        let ppr = PersonalizedPageRank::new(&g, PprConfig::default()).unwrap();
        let a0 = g.node_by_name("a0").unwrap();
        let p = ppr.run(&[a0]);
        let total: f64 = p.sum();
        assert!((total - 1.0).abs() < 1e-9, "total mass {total}");
        assert!(p.iter().all(|(_, x)| x >= 0.0));
    }

    #[test]
    fn personalization_node_scores_highest() {
        let g = two_communities();
        let ppr = PersonalizedPageRank::new(
            &g,
            PprConfig {
                damping: 0.2,
                iterations: 10,
                ..PprConfig::default()
            },
        )
        .unwrap();
        let a0 = g.node_by_name("a0").unwrap();
        let p = ppr.run(&[a0]);
        let (max_node, _) = p
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        assert_eq!(max_node, a0);
    }

    #[test]
    fn near_community_outranks_far_community() {
        let g = two_communities();
        let ppr = PersonalizedPageRank::new(&g, PprConfig::default()).unwrap();
        let a0 = g.node_by_name("a0").unwrap();
        let p = ppr.run(&[a0]);
        let a1 = g.node_by_name("a1").unwrap();
        let b2 = g.node_by_name("b2").unwrap();
        assert!(
            p.get(a1) > p.get(b2),
            "same-community node must outrank far node"
        );
    }

    #[test]
    fn selector_excludes_query_and_returns_k() {
        let g = two_communities();
        let q = Query::by_names(&g, ["a0"]).unwrap();
        let sel = RandomWalkSelector::default();
        let ctx = sel.select(&g, &q, 3).unwrap();
        assert_eq!(ctx.len(), 3);
        assert!(!ctx.node_set().contains(&g.node_by_name("a0").unwrap()));
        // Scores descending.
        for w in ctx.ranked().windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn rare_labels_attract_more_mass() {
        // Node q has one "common" edge to x and one "rare" edge to y;
        // the common label floods the rest of the graph.
        let mut b = GraphBuilder::new();
        b.add_triple("q", "common", "x");
        b.add_triple("q", "rare", "y");
        for i in 0..30 {
            b.add_triple(&format!("f{i}"), "common", &format!("g{i}"));
        }
        let g = b.build();
        let ppr = PersonalizedPageRank::new(
            &g,
            PprConfig {
                damping: 0.9,
                iterations: 3,
                parallel: false,
                ..PprConfig::default()
            },
        )
        .unwrap();
        let q = g.node_by_name("q").unwrap();
        let p = ppr.run(&[q]);
        let x = g.node_by_name("x").unwrap();
        let y = g.node_by_name("y").unwrap();
        assert!(
            p.get(y) > p.get(x),
            "rare-label target must receive more mass: y={} x={}",
            p.get(y),
            p.get(x)
        );
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = two_communities();
        let q = Query::by_names(&g, ["a0", "b0"]).unwrap();
        let seq = RandomWalkSelector::new(RandomWalkConfig {
            ppr: PprConfig {
                parallel: false,
                ..PprConfig::default()
            },
            type_filter: TypeFilter::None,
        })
        .select(&g, &q, 5)
        .unwrap();
        let par = RandomWalkSelector::new(RandomWalkConfig {
            ppr: PprConfig {
                parallel: true,
                ..PprConfig::default()
            },
            type_filter: TypeFilter::None,
        })
        .select(&g, &q, 5)
        .unwrap();
        assert_eq!(context_bits(&seq), context_bits(&par));
    }

    fn context_bits(c: &Context) -> Vec<(NodeId, u64)> {
        c.ranked().iter().map(|&(n, s)| (n, s.to_bits())).collect()
    }

    /// Under `parallel: true` the selector sums its per-seed vectors in
    /// seed order — `((v1 + v2) + v3) + …`, the engine's fold — never
    /// per worker chunk, so its scores carry the same bits on every
    /// host whatever its core count.
    #[test]
    fn parallel_select_sums_seeds_in_seed_order() {
        let mut b = GraphBuilder::new();
        for i in 0..60usize {
            for j in 1..=3usize {
                b.add_triple(
                    &format!("n{i}"),
                    &format!("p{}", (i * j) % 4),
                    &format!("n{}", (i * 7 + j * 13) % 60),
                );
            }
        }
        let g = b.build();
        let seeds: Vec<NodeId> = (0..8)
            .map(|i| g.node_by_name(&format!("n{}", i * 7)).unwrap())
            .collect();
        let q = Query::new(&g, seeds).unwrap();
        let config = RandomWalkConfig {
            ppr: PprConfig {
                parallel: true,
                ..PprConfig::default()
            },
            type_filter: TypeFilter::None,
        };
        let got = RandomWalkSelector::new(config.clone())
            .select(&g, &q, g.num_nodes())
            .unwrap();
        let ppr = PersonalizedPageRank::new(&g, config.ppr).unwrap();
        let mut sum = ScoreVec::zeros(g.num_nodes());
        for &seed in q.nodes() {
            sum.add_assign(&ppr.run(&[seed]));
        }
        let filter = CandidateFilter::new(&g, &q, TypeFilter::None);
        let want = top_k_context(&g, &q, sum.iter(), &filter, g.num_nodes()).unwrap();
        assert_eq!(got.len(), g.num_nodes() - q.len());
        assert_eq!(context_bits(&got), context_bits(&want));
    }

    #[test]
    fn config_validation() {
        let g = two_communities();
        assert!(PersonalizedPageRank::new(
            &g,
            PprConfig {
                damping: 1.5,
                ..PprConfig::default()
            }
        )
        .is_err());
        assert!(PersonalizedPageRank::new(
            &g,
            PprConfig {
                iterations: 0,
                ..PprConfig::default()
            }
        )
        .is_err());
        assert!(PersonalizedPageRank::new(
            &g,
            PprConfig {
                epsilon: -1e-6,
                ..PprConfig::default()
            }
        )
        .is_err());
        assert!(PersonalizedPageRank::new(
            &g,
            PprConfig {
                epsilon: f64::NAN,
                ..PprConfig::default()
            }
        )
        .is_err());
    }

    #[test]
    fn isolated_source_mass_restarts() {
        let mut b = GraphBuilder::new();
        b.node("lonely");
        b.add_triple("x", "knows", "y");
        let g = b.build();
        let ppr = PersonalizedPageRank::new(&g, PprConfig::default()).unwrap();
        let lonely = g.node_by_name("lonely").unwrap();
        let p = ppr.run(&[lonely]);
        let total: f64 = p.sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(p.get(lonely) > 0.99, "dangling mass must restart at v");
    }

    #[test]
    fn frontier_path_matches_dense_bit_for_bit_at_epsilon_zero() {
        let g = two_communities();
        for damping in [0.2, 0.8] {
            let ppr = PersonalizedPageRank::new(
                &g,
                PprConfig {
                    damping,
                    ..PprConfig::default()
                },
            )
            .unwrap();
            let mut ws = PprWorkspace::new();
            for name in ["a0", "b3"] {
                let s = g.node_by_name(name).unwrap();
                // The frontier executor, invoked directly — run() itself
                // dispatches to run_dense at ε = 0.
                let frontier = ppr.frontier_outcome(&[s], &mut ws).scores.to_dense();
                let dense = ppr.run_dense(&[s]);
                for (i, (a, b)) in frontier.iter().zip(&dense).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "node {i} diverged at ε = 0");
                }
                assert_eq!(ppr.run(&[s]).to_dense(), dense, "dispatch path agrees");
            }
        }
    }

    #[test]
    fn epsilon_pruning_stays_within_reported_bound() {
        let g = two_communities();
        let exact = PersonalizedPageRank::new(&g, PprConfig::default()).unwrap();
        let pruned = PersonalizedPageRank::new(
            &g,
            PprConfig {
                epsilon: 0.05,
                ..PprConfig::default()
            },
        )
        .unwrap();
        let a0 = g.node_by_name("a0").unwrap();
        let mut ws = PprWorkspace::new();
        let outcome = pruned.run_outcome(&[a0], &mut ws);
        assert!(outcome.dropped_mass > 0.0, "ε = 0.05 must prune something");
        let dist = outcome.scores.l1_distance(&exact.run(&[a0]));
        assert!(
            dist <= outcome.l1_bound + 1e-12,
            "L1 distance {dist} exceeds reported bound {}",
            outcome.l1_bound
        );
    }

    #[test]
    fn workspace_reuse_is_exact() {
        let g = two_communities();
        // ε > 0 so the frontier executor (the path that actually uses
        // the workspace) runs; ε = 0 dispatches to the dense loop.
        let ppr = PersonalizedPageRank::new(
            &g,
            PprConfig {
                epsilon: 1e-3,
                ..PprConfig::default()
            },
        )
        .unwrap();
        let mut ws = PprWorkspace::new();
        let nodes: Vec<NodeId> = ["a0", "b0", "a2"]
            .iter()
            .map(|n| g.node_by_name(n).unwrap())
            .collect();
        for &s in &nodes {
            let reused = ppr.run_with(&[s], &mut ws);
            let fresh = ppr.run(&[s]);
            assert_eq!(reused, fresh, "workspace reuse changed a result");
        }
    }

    #[test]
    fn shared_weights_match_derived_weights() {
        let g = two_communities();
        let weights = Arc::new(EdgeWeights::new(&g));
        let a = PersonalizedPageRank::new(&g, PprConfig::default()).unwrap();
        let b = PersonalizedPageRank::with_weights(&g, PprConfig::default(), Arc::clone(&weights))
            .unwrap();
        let a0 = g.node_by_name("a0").unwrap();
        assert_eq!(a.run(&[a0]), b.run(&[a0]));
        let sel = RandomWalkSelector::with_weights(RandomWalkConfig::default(), weights);
        let q = Query::by_names(&g, ["a0"]).unwrap();
        let via_shared = sel.select(&g, &q, 3).unwrap();
        let via_fresh = RandomWalkSelector::default().select(&g, &q, 3).unwrap();
        assert_eq!(via_shared.ranked(), via_fresh.ranked());
    }

    fn bits(v: &ScoreVec) -> Vec<u64> {
        v.to_dense().iter().map(|x| x.to_bits()).collect()
    }

    /// Every lane of a block — including duplicate seeds — must be
    /// bit-identical to its solo frontier run, at ε = 0 (where the solo
    /// run is itself pinned to `run_dense`) and under pruning.
    #[test]
    fn block_lanes_match_solo_runs_bit_for_bit() {
        let g = two_communities();
        let seeds: Vec<NodeId> = ["a0", "b3", "a2", "a0", "b1"]
            .iter()
            .map(|n| g.node_by_name(n).unwrap())
            .collect();
        for (damping, epsilon) in [(0.2, 0.0), (0.8, 0.0), (0.2, 1e-3), (0.8, 0.05)] {
            let ppr = PersonalizedPageRank::new(
                &g,
                PprConfig {
                    damping,
                    epsilon,
                    ..PprConfig::default()
                },
            )
            .unwrap();
            let mut bws = BlockPprWorkspace::new();
            let mut sws = PprWorkspace::new();
            let block = ppr.run_block(&seeds, &mut bws);
            assert_eq!(block.len(), seeds.len());
            for (lane, (&seed, got)) in seeds.iter().zip(&block).enumerate() {
                let want = ppr.frontier_outcome(&[seed], &mut sws);
                assert_eq!(
                    bits(&got.scores),
                    bits(&want.scores),
                    "lane {lane} diverged (damping {damping}, eps {epsilon})"
                );
                assert_eq!(got.dropped_mass.to_bits(), want.dropped_mass.to_bits());
                assert_eq!(got.l1_bound.to_bits(), want.l1_bound.to_bits());
            }
        }
    }

    /// Workspace reuse across blocks of different widths (including a
    /// degenerate width-1 block) must not perturb any lane.
    #[test]
    fn block_workspace_reuse_and_width_one_are_exact() {
        let g = two_communities();
        let ppr = PersonalizedPageRank::new(&g, PprConfig::default()).unwrap();
        let a0 = g.node_by_name("a0").unwrap();
        let b0 = g.node_by_name("b0").unwrap();
        let mut bws = BlockPprWorkspace::new();
        let mut sws = PprWorkspace::new();
        assert!(ppr.run_block(&[], &mut bws).is_empty());
        for seeds in [vec![a0, b0], vec![b0], vec![a0, b0, a0]] {
            let block = ppr.run_block(&seeds, &mut bws);
            for (&seed, got) in seeds.iter().zip(&block) {
                let want = ppr.frontier_outcome(&[seed], &mut sws);
                assert_eq!(bits(&got.scores), bits(&want.scores));
            }
        }
    }
}
