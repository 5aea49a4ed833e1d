//! ContextRW — metapath-constrained context selection (§3.1).
//!
//! After PathMining produces the metapath set `M` with probabilities
//! `Pr(m)`, each candidate `n′` is scored by
//!
//! ```text
//! σ(n′, Q) = Σ_{m ∈ M, n ∈ Q}  |{n →m n′}| / |{n →m n″ : n″ ∈ V∖Q}| · Pr(m)
//! ```
//!
//! i.e. for every query node and metapath, the distribution of path
//! multiplicities over endpoints is normalized to one and added with the
//! metapath's weight. Nodes reachable from several query nodes through
//! frequent metapaths accumulate the most mass — the "common connections
//! between the query nodes" the RandomWalk baseline ignores.

use crate::config::ContextRwConfig;
use crate::context::{top_k_context, CandidateFilter, Context, ContextSelector};
use crate::error::CoreError;
use crate::metapath::{Metapath, MinedMetapaths, PathMiner};
use crate::query::Query;
use crate::score::SparseWorkspace;
use nck_graph::{GraphAccess, NodeId};
use std::ops::Range;

/// The ContextRW selector.
pub struct ContextRw {
    config: ContextRwConfig,
}

impl ContextRw {
    /// Creates the selector with the given configuration.
    pub fn new(config: ContextRwConfig) -> Self {
        Self { config }
    }

    /// Read access to the configuration.
    pub fn config(&self) -> &ContextRwConfig {
        &self.config
    }

    /// Mines metapaths and returns them together with the context —
    /// useful when the caller wants to inspect `M` (Figure 6, Table 3).
    ///
    /// Metapath slots are allocated type-filter-aware: a mined metapath
    /// whose endpoints are all filtered out (e.g. a value-typed endpoint
    /// under a person query) contributes nothing to the context, so it
    /// does not consume one of the |M| slots; the next-ranked metapath
    /// takes its place. With [`crate::context::TypeFilter::None`] this is
    /// exactly the paper's plain top-|M| selection.
    pub fn select_with_metapaths<G: GraphAccess + Sync>(
        &self,
        graph: &G,
        query: &Query,
        k: usize,
    ) -> Result<(Context, MinedMetapaths), CoreError> {
        self.select_with_metapaths_ws(graph, query, k, &mut MatchWorkspace::new())
    }

    /// [`select_with_metapaths`](Self::select_with_metapaths) with a
    /// caller-provided [`MatchWorkspace`] — repeated-query callers (the
    /// engine's worker pool) recycle the matching scratch across queries.
    pub fn select_with_metapaths_ws<G: GraphAccess + Sync>(
        &self,
        graph: &G,
        query: &Query,
        k: usize,
        ws: &mut MatchWorkspace,
    ) -> Result<(Context, MinedMetapaths), CoreError> {
        let miner = PathMiner::new(self.config.mining.clone());
        let mined = miner.mine(graph, query);
        let ctx = self.context_from_mined(graph, query, k, &mined, ws)?;
        Ok((ctx, mined))
    }

    /// The σ-ranked context for the mined metapaths `mined`.
    fn context_from_mined<G: GraphAccess>(
        &self,
        graph: &G,
        query: &Query,
        k: usize,
        mined: &MinedMetapaths,
        ws: &mut MatchWorkspace,
    ) -> Result<Context, CoreError> {
        let filter = CandidateFilter::new(graph, query, self.config.type_filter);
        let endpoint_cap = self.endpoint_cap(graph, query, &filter);
        let n = graph.num_nodes();
        ws.size(n);

        // Pick the top |M| metapaths that have at least one eligible
        // endpoint and pass the selectivity guard, scanning at most
        // 4·|M| candidates. A kept metapath's endpoint runs stay in
        // `ws.endpoints`; a dropped one's are truncated away.
        let m = self.config.num_metapaths;
        let scan_cap = m.saturating_mul(4).max(m);
        // kept: (count, one endpoint-run range per query node)
        let mut kept: Vec<(u64, Vec<Range<usize>>)> = Vec::with_capacity(m);
        ws.endpoints.clear();
        for (metapath, count) in mined.ranked().iter().take(scan_cap) {
            if kept.len() >= m {
                break;
            }
            let start = ws.endpoints.len();
            let runs: Vec<Range<usize>> = query
                .nodes()
                .iter()
                .map(|&q| ws.match_metapath(graph, q, metapath))
                .collect();
            ws.eligible_epoch += 1;
            let mut eligible = 0usize;
            for &(node, _) in &ws.endpoints[start..] {
                let i = node.index();
                if ws.eligible[i] != ws.eligible_epoch
                    && !query.contains(node)
                    && filter.allows(graph, node)
                {
                    ws.eligible[i] = ws.eligible_epoch;
                    eligible += 1;
                }
            }
            if eligible > 0 && eligible <= endpoint_cap {
                kept.push((*count, runs));
            } else {
                ws.endpoints.truncate(start);
            }
        }
        // Multiplicities are integer-valued, so each denominator is exact
        // in any summation order, and every node's score accumulates in
        // (metapath, query node) order — the bits do not depend on the
        // order a frontier was pushed in.
        let total: u64 = kept.iter().map(|&(c, _)| c).sum();
        let scores = &mut ws.frontier[0];
        scores.begin(n);
        if total > 0 {
            for (count, runs) in &kept {
                let pr = *count as f64 / total as f64;
                for run in runs {
                    let endpoints = &ws.endpoints[run.clone()];
                    let denom: f64 = endpoints
                        .iter()
                        .filter(|&&(n, _)| !query.contains(n))
                        .map(|&(_, c)| c)
                        .sum();
                    if denom <= 0.0 {
                        continue;
                    }
                    for &(n, c) in endpoints {
                        if !query.contains(n) {
                            scores.add(n, c / denom * pr);
                        }
                    }
                }
            }
        }
        let scores = &ws.frontier[0];
        let ranked = scores
            .touched()
            .iter()
            .map(|&i| (NodeId::from_index(i as usize), scores.value_at(i)));
        top_k_context(graph, query, ranked, &filter, k)
    }

    /// The selectivity guard: a metapath whose eligible endpoints exceed
    /// this many is skipped.
    fn endpoint_cap<G: GraphAccess>(
        &self,
        graph: &G,
        query: &Query,
        filter: &CandidateFilter,
    ) -> usize {
        let total_candidates = graph
            .nodes()
            .filter(|&n| !query.contains(n) && filter.allows(graph, n))
            .count()
            .max(1);
        // Small cohorts are always informative; the guard targets paths
        // whose endpoints blanket a large share of the population.
        const ENDPOINT_CAP_FLOOR: usize = 50;
        ((self.config.max_endpoint_fraction * total_candidates as f64).ceil() as usize)
            .max(ENDPOINT_CAP_FLOOR)
    }
}

/// Reusable scratch for ContextRW's metapath matching and σ scoring.
///
/// Frontiers of path multiplicities, the eligible-endpoint set and the
/// score map live in epoch-stamped dense slots (see
/// [`SparseWorkspace`]), so starting a new frontier, a new endpoint set
/// or a new query costs O(1) and a long-lived workspace allocates
/// nothing once it has grown to the graph.
#[derive(Debug, Default)]
pub struct MatchWorkspace {
    /// The current and next frontier; `frontier[0]` holds the σ scores
    /// once matching is done.
    frontier: [SparseWorkspace; 2],
    /// Per-node stamp: equal to `eligible_epoch` once counted as an
    /// eligible endpoint of the metapath being scanned.
    eligible: Vec<u64>,
    eligible_epoch: u64,
    /// `(endpoint, multiplicity)` runs, one per (kept metapath, query
    /// node).
    endpoints: Vec<(NodeId, f64)>,
}

impl MatchWorkspace {
    /// An empty workspace (sized on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows the per-node slots to a universe of `n` nodes.
    fn size(&mut self, n: usize) {
        if self.eligible.len() < n {
            self.eligible.resize(n, 0);
        }
    }

    /// Counts, for one query node, the number of `metapath`-paths ending
    /// at each node — a frontier of path multiplicities pushed label by
    /// label — and appends the endpoints with their multiplicities to
    /// `self.endpoints`, returning their range.
    ///
    /// A multiplicity is a sum of integer-valued `f64`s, so it is exact
    /// whatever order the frontier is pushed in.
    fn match_metapath<G: GraphAccess>(
        &mut self,
        graph: &G,
        start: NodeId,
        metapath: &Metapath,
    ) -> Range<usize> {
        let n = graph.num_nodes();
        let [cur, next] = &mut self.frontier;
        cur.begin(n);
        cur.add(start, 1.0);
        for &label in metapath.labels() {
            if cur.touched_len() == 0 {
                break;
            }
            next.begin(n);
            for &i in cur.touched() {
                let count = cur.value_at(i);
                for &t in graph
                    .neighbors_with_label(NodeId::from_index(i as usize), label)
                    .iter()
                {
                    next.add(t, count);
                }
            }
            std::mem::swap(cur, next);
        }
        let start = self.endpoints.len();
        let cur = &self.frontier[0];
        self.endpoints.extend(
            cur.touched()
                .iter()
                .map(|&i| (NodeId::from_index(i as usize), cur.value_at(i))),
        );
        start..self.endpoints.len()
    }
}

impl Default for ContextRw {
    fn default() -> Self {
        Self::new(ContextRwConfig::default())
    }
}

impl<G: GraphAccess + Sync> ContextSelector<G> for ContextRw {
    fn select(&self, graph: &G, query: &Query, k: usize) -> Result<Context, CoreError> {
        self.select_with_metapaths(graph, query, k).map(|(c, _)| c)
    }

    fn name(&self) -> &'static str {
        "ContextRW"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PathMiningConfig;
    use crate::context::TypeFilter;
    use nck_graph::{EdgeLabelId, GraphBuilder, KnowledgeGraph};
    use proptest::prelude::*;
    use std::collections::{HashMap, HashSet};

    /// Employer graph: q0 and q1 work at acme together with colleagues;
    /// others work elsewhere.
    fn employer_graph() -> KnowledgeGraph {
        let mut b = GraphBuilder::new();
        for p in ["q0", "q1", "c0", "c1", "c2"] {
            b.add_triple(p, "worksAt", "acme");
            let n = b.node(p);
            b.set_type(n, "person");
        }
        for p in ["d0", "d1", "d2", "d3"] {
            b.add_triple(p, "worksAt", "globex");
            let n = b.node(p);
            b.set_type(n, "person");
        }
        // A little extra structure so walks have somewhere to wander.
        b.add_triple("c0", "knows", "d0");
        b.add_triple("acme", "locatedIn", "springfield");
        b.add_triple("globex", "locatedIn", "springfield");
        b.build()
    }

    fn selector(walks: usize) -> ContextRw {
        ContextRw::new(ContextRwConfig {
            mining: PathMiningConfig {
                walks,
                max_length: 4,
                seed: 17,
                parallel: false,
            },
            num_metapaths: 5,
            type_filter: TypeFilter::CommonAncestor,
            max_endpoint_fraction: 0.25,
        })
    }

    #[test]
    fn colleagues_form_the_context() {
        let g = employer_graph();
        let q = Query::by_names(&g, ["q0", "q1"]).unwrap();
        let ctx = selector(4_000).select(&g, &q, 3).unwrap();
        let names: Vec<&str> = ctx.nodes().map(|n| g.node_name(n)).collect();
        for c in ["c0", "c1", "c2"] {
            assert!(names.contains(&c), "colleague {c} missing from {names:?}");
        }
    }

    #[test]
    fn type_filter_excludes_companies() {
        let g = employer_graph();
        let q = Query::by_names(&g, ["q0", "q1"]).unwrap();
        let ctx = selector(4_000).select(&g, &q, 10).unwrap();
        let acme = g.node_by_name("acme").unwrap();
        assert!(
            !ctx.node_set().contains(&acme),
            "company node must be filtered out of a person query's context"
        );
    }

    #[test]
    fn observed_orientation_keeps_neighbors_out_even_unfiltered() {
        // Metapaths are replayed from the query side exactly as observed
        // on arrival, so the asymmetric one-hop arrival path into the
        // query ([worksAt⁻¹] from the employer) never matches from a
        // person — the employer node stays out of the context even with
        // the type filter disabled.
        let g = employer_graph();
        let q = Query::by_names(&g, ["q0", "q1"]).unwrap();
        let sel = ContextRw::new(ContextRwConfig {
            mining: PathMiningConfig {
                walks: 4_000,
                max_length: 4,
                seed: 17,
                parallel: false,
            },
            num_metapaths: 5,
            type_filter: TypeFilter::None,
            max_endpoint_fraction: 0.25,
        });
        let ctx = sel.select(&g, &q, 10).unwrap();
        let acme = g.node_by_name("acme").unwrap();
        assert!(!ctx.node_set().contains(&acme));
        let c0 = g.node_by_name("c0").unwrap();
        assert!(ctx.node_set().contains(&c0), "colleagues still retrieved");
    }

    #[test]
    fn query_nodes_never_in_context() {
        let g = employer_graph();
        let q = Query::by_names(&g, ["q0", "q1"]).unwrap();
        let ctx = selector(3_000).select(&g, &q, 10).unwrap();
        for n in ctx.nodes() {
            assert!(!q.contains(n));
        }
    }

    /// The HashMap frontier matcher the dense workspace replaced, kept
    /// as the oracle.
    fn oracle_match_metapath<G: GraphAccess>(
        graph: &G,
        start: NodeId,
        metapath: &Metapath,
    ) -> HashMap<NodeId, f64> {
        let mut frontier: HashMap<NodeId, f64> = HashMap::from([(start, 1.0)]);
        for &label in metapath.labels() {
            if frontier.is_empty() {
                break;
            }
            let mut next: HashMap<NodeId, f64> = HashMap::with_capacity(frontier.len() * 2);
            for (node, count) in frontier {
                for &t in graph.neighbors_with_label(node, label).iter() {
                    *next.entry(t).or_insert(0.0) += count;
                }
            }
            frontier = next;
        }
        frontier
    }

    /// The HashMap σ scoring the dense workspace replaced, kept as the
    /// oracle of [`ContextRw::context_from_mined`].
    fn oracle_context<G: GraphAccess>(
        sel: &ContextRw,
        graph: &G,
        query: &Query,
        k: usize,
        mined: &MinedMetapaths,
    ) -> Result<Context, CoreError> {
        let filter = CandidateFilter::new(graph, query, sel.config.type_filter);
        let endpoint_cap = sel.endpoint_cap(graph, query, &filter);
        let m = sel.config.num_metapaths;
        let scan_cap = m.saturating_mul(4).max(m);
        let mut kept: Vec<(u64, Vec<HashMap<NodeId, f64>>)> = Vec::with_capacity(m);
        for (metapath, count) in mined.ranked().iter().take(scan_cap) {
            if kept.len() >= m {
                break;
            }
            let per_q: Vec<HashMap<NodeId, f64>> = query
                .nodes()
                .iter()
                .map(|&q| oracle_match_metapath(graph, q, metapath))
                .collect();
            let mut eligible_endpoints: HashSet<NodeId> = HashSet::new();
            for endpoints in &per_q {
                eligible_endpoints.extend(
                    endpoints
                        .keys()
                        .filter(|&&n| !query.contains(n) && filter.allows(graph, n)),
                );
            }
            if !eligible_endpoints.is_empty() && eligible_endpoints.len() <= endpoint_cap {
                kept.push((*count, per_q));
            }
        }
        let total: u64 = kept.iter().map(|&(c, _)| c).sum();
        let mut scores: HashMap<NodeId, f64> = HashMap::new();
        if total > 0 {
            for (count, per_q) in &kept {
                let pr = *count as f64 / total as f64;
                for endpoints in per_q {
                    let denom: f64 = endpoints
                        .iter()
                        .filter(|&(n, _)| !query.contains(*n))
                        .map(|(_, c)| *c)
                        .sum();
                    if denom <= 0.0 {
                        continue;
                    }
                    for (&n, &c) in endpoints {
                        if !query.contains(n) {
                            *scores.entry(n).or_insert(0.0) += c / denom * pr;
                        }
                    }
                }
            }
        }
        top_k_context(graph, query, scores, &filter, k)
    }

    /// One dense match as a map, checking it lists each endpoint once.
    fn dense_match<G: GraphAccess>(
        ws: &mut MatchWorkspace,
        graph: &G,
        start: NodeId,
        metapath: &Metapath,
    ) -> HashMap<NodeId, u64> {
        ws.size(graph.num_nodes());
        ws.endpoints.clear();
        let run = ws.match_metapath(graph, start, metapath);
        let map: HashMap<NodeId, u64> = ws.endpoints[run.clone()]
            .iter()
            .map(|&(n, c)| (n, c.to_bits()))
            .collect();
        assert_eq!(map.len(), run.len(), "an endpoint listed twice");
        map
    }

    fn bits_map(map: HashMap<NodeId, f64>) -> HashMap<NodeId, u64> {
        map.into_iter().map(|(n, c)| (n, c.to_bits())).collect()
    }

    #[test]
    fn match_metapath_counts_multiplicities() {
        let g = employer_graph();
        let works_at = g.labels().get("worksAt").unwrap();
        let inv = g.labels().inverse(works_at);
        let q0 = g.node_by_name("q0").unwrap();
        let m = Metapath::new(vec![works_at, inv]);
        let endpoints = dense_match(&mut MatchWorkspace::new(), &g, q0, &m);
        // q0 →worksAt→ acme →worksAt⁻¹→ {q0, q1, c0, c1, c2}: one path each.
        assert_eq!(endpoints.len(), 5);
        assert!(endpoints.values().all(|&c| c == 1.0f64.to_bits()));
        assert_eq!(endpoints, bits_map(oracle_match_metapath(&g, q0, &m)));
    }

    /// One generated case: triples over 64 nodes and 4 labels, each
    /// node's type bit (node `i` typed `t{i % 3}` when set) and hub bit
    /// (`memberOf` one hub when non-zero, so `memberOf → memberOf⁻¹`
    /// reaches about 50 nodes and straddles the selectivity guard's
    /// 50-endpoint floor), query picks, mined `(label picks, count)`
    /// pairs plus the hub metapath's count, |M|, k, and the filter and
    /// endpoint-fraction choices.
    type Case = (
        (Vec<(u8, u8, u8)>, Vec<u8>, Vec<u8>, Vec<u8>),
        (Vec<(Vec<u8>, u8)>, u8, u8, u8),
        (u8, u8),
    );

    fn cases() -> impl Strategy<Value = Case> {
        (
            (
                prop::collection::vec((0u8..64, 0u8..4, 0u8..64), 1..80),
                prop::collection::vec(0u8..2, 64..65),
                prop::collection::vec(0u8..5, 64..65),
                prop::collection::vec(0u8..64, 1..5),
            ),
            (
                prop::collection::vec((prop::collection::vec(0u8..16, 1..6), 1u8..60), 0..10),
                1u8..60,
                1u8..6,
                1u8..64,
            ),
            (0u8..3, 0u8..3),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Dense matching equals the HashMap oracle: every endpoint
        /// multiplicity as a map, and the σ-ranked context bit for bit,
        /// with one workspace reused across metapaths and selections.
        #[test]
        fn dense_matching_matches_the_hashmap_oracle(case in cases()) {
            let (
                (triples, typed, member, picks),
                (paths, hub_count, num_metapaths, k),
                (filter, fraction),
            ) = case;
            let mut b = GraphBuilder::new();
            for i in 0..64 {
                let n = b.node(&format!("n{i}"));
                if typed[i] == 1 {
                    b.set_type(n, &format!("t{}", i % 3));
                }
                if member[i] != 0 {
                    b.add_triple(&format!("n{i}"), "memberOf", "hub");
                }
            }
            b.subtype("t0", "t");
            b.subtype("t1", "t");
            for &(s, p, o) in &triples {
                b.add_triple(&format!("n{s}"), &format!("p{p}"), &format!("n{o}"));
            }
            let g = b.build();
            let labels: Vec<EdgeLabelId> = g.labels().iter().collect();
            let mut query_nodes: Vec<NodeId> = Vec::new();
            for &p in &picks {
                let n = g.node_by_name(&format!("n{p}")).unwrap();
                if !query_nodes.contains(&n) {
                    query_nodes.push(n);
                }
            }
            let query = Query::new(&g, query_nodes).unwrap();
            let mut counts: HashMap<Vec<EdgeLabelId>, u64> = paths
                .iter()
                .map(|(ls, c)| {
                    let ls = ls.iter().map(|&l| labels[l as usize % labels.len()]).collect();
                    (ls, u64::from(*c))
                })
                .collect();
            if let Some(member_of) = g.labels().get("memberOf") {
                counts.insert(vec![member_of, g.labels().inverse(member_of)], u64::from(hub_count));
            }
            let mined = MinedMetapaths::from_counts(counts);
            let sel = ContextRw::new(ContextRwConfig {
                num_metapaths: usize::from(num_metapaths),
                type_filter: [TypeFilter::None, TypeFilter::CommonAncestor, TypeFilter::QueryTypes]
                    [usize::from(filter)],
                max_endpoint_fraction: [0.1, 0.25, 1.0][usize::from(fraction)],
                ..ContextRwConfig::default()
            });
            let mut ws = MatchWorkspace::new();
            for (metapath, _) in mined.ranked() {
                for &q in query.nodes() {
                    prop_assert_eq!(
                        dense_match(&mut ws, &g, q, metapath),
                        bits_map(oracle_match_metapath(&g, q, metapath))
                    );
                }
            }
            let bits = |ctx: Result<Context, CoreError>| {
                ctx.map(|c| {
                    c.ranked()
                        .iter()
                        .map(|&(n, s)| (n, s.to_bits()))
                        .collect::<Vec<_>>()
                })
                .map_err(|e| e.to_string())
            };
            let k = usize::from(k);
            let want = bits(oracle_context(&sel, &g, &query, k, &mined));
            for _ in 0..2 {
                prop_assert_eq!(
                    bits(sel.context_from_mined(&g, &query, k, &mined, &mut ws)),
                    want.clone()
                );
            }
        }
    }

    #[test]
    fn scores_accumulate_across_query_nodes() {
        let g = employer_graph();
        let q = Query::by_names(&g, ["q0", "q1"]).unwrap();
        let works_at = g.labels().get("worksAt").unwrap();
        let inv = g.labels().inverse(works_at);
        let (ctx, mined) = selector(4_000)
            .select_with_metapaths(&g, &q, g.num_nodes())
            .unwrap();
        assert!(mined
            .ranked()
            .iter()
            .any(|(m, _)| m.labels() == [works_at, inv]));
        let score = |name: &str| {
            let node = g.node_by_name(name).unwrap();
            ctx.ranked()
                .iter()
                .find(|&&(n, _)| n == node)
                .map_or(0.0, |&(_, s)| s)
        };
        let (c0_score, d0_score) = (score("c0"), score("d0"));
        assert!(
            c0_score > d0_score,
            "shared-employer colleague must outscore stranger: {c0_score} vs {d0_score}"
        );
    }

    #[test]
    fn deterministic_output() {
        let g = employer_graph();
        let q = Query::by_names(&g, ["q0"]).unwrap();
        let a: Vec<_> = selector(2_000).select(&g, &q, 5).unwrap().nodes().collect();
        let b: Vec<_> = selector(2_000).select(&g, &q, 5).unwrap().nodes().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn select_with_metapaths_exposes_mined_set() {
        let g = employer_graph();
        let q = Query::by_names(&g, ["q0"]).unwrap();
        let (ctx, mined) = selector(2_000).select_with_metapaths(&g, &q, 5).unwrap();
        assert!(!ctx.is_empty());
        assert!(!mined.is_empty());
    }
}
