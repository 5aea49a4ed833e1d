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
use nck_graph::{GraphAccess, NodeId};
use std::collections::HashMap;

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

    /// Counts, for one query node, the number of `m`-paths ending at each
    /// node: a frontier of path multiplicities pushed label by label.
    fn match_metapath<G: GraphAccess>(
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
        let miner = PathMiner::new(self.config.mining.clone());
        let mined = miner.mine(graph, query);
        let filter = CandidateFilter::new(graph, query, self.config.type_filter);
        let total_candidates = graph
            .nodes()
            .filter(|&n| !query.contains(n) && filter.allows(graph, n))
            .count()
            .max(1);
        // Small cohorts are always informative; the guard targets paths
        // whose endpoints blanket a large share of the population.
        const ENDPOINT_CAP_FLOOR: usize = 50;
        let endpoint_cap = ((self.config.max_endpoint_fraction * total_candidates as f64).ceil()
            as usize)
            .max(ENDPOINT_CAP_FLOOR);

        // Pick the top |M| metapaths that have at least one eligible
        // endpoint and pass the selectivity guard, scanning at most
        // 4·|M| candidates.
        let m = self.config.num_metapaths;
        let scan_cap = m.saturating_mul(4).max(m);
        // kept: (count, per-query-node endpoint multiplicity maps)
        let mut kept: Vec<(u64, Vec<HashMap<NodeId, f64>>)> = Vec::with_capacity(m);
        for (metapath, count) in mined.ranked().iter().take(scan_cap) {
            if kept.len() >= m {
                break;
            }
            let per_q: Vec<HashMap<NodeId, f64>> = query
                .nodes()
                .iter()
                .map(|&q| Self::match_metapath(graph, q, metapath))
                .collect();
            let mut eligible_endpoints: std::collections::HashSet<NodeId> =
                std::collections::HashSet::new();
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
        let ctx = top_k_context(graph, query, scores, &filter, k)?;
        Ok((ctx, mined))
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
    use nck_graph::{GraphBuilder, KnowledgeGraph};

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

    #[test]
    fn match_metapath_counts_multiplicities() {
        let g = employer_graph();
        let works_at = g.labels().get("worksAt").unwrap();
        let inv = g.labels().inverse(works_at);
        let q0 = g.node_by_name("q0").unwrap();
        let m = Metapath::new(vec![works_at, inv]);
        let endpoints = ContextRw::match_metapath(&g, q0, &m);
        // q0 →worksAt→ acme →worksAt⁻¹→ {q0, q1, c0, c1, c2}: one path each.
        assert_eq!(endpoints.len(), 5);
        assert!(endpoints.values().all(|&c| (c - 1.0).abs() < 1e-12));
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
