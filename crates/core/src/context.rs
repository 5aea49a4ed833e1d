//! The context set `C` (Def. 2) and the selector abstraction σ.
//!
//! A context selector ranks every non-query node by similarity to the
//! query and returns the top-k. Def. 2 only requires a similarity function
//! σ; the two instantiations of the paper live in [`crate::ppr`]
//! (RandomWalk) and [`crate::context_rw`] (ContextRW).
//!
//! ## Candidate type filter
//!
//! The paper's ground truth consists of entities of the query's kind
//! (actors for actor queries, …), and both its FindNC test-case contexts
//! are person-dominated ("mostly famous people in the movie business",
//! "winning a prize is common for actors (75%)"). [`TypeFilter`] makes
//! that entity bias explicit and configurable: by default a candidate
//! qualifies when its type shares a taxonomy ancestor with **every**
//! query node's type (actors + directors both qualify for an actor query
//! through `person`; movies and attribute values do not). Disable it with
//! [`TypeFilter::None`] to reproduce the unfiltered definition.

use crate::error::CoreError;
use crate::query::Query;
use nck_graph::{GraphAccess, NodeId, NodeTypeId};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Candidate filtering policy applied before the top-k cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum TypeFilter {
    /// Candidates must share a (transitive) type ancestor with every
    /// query node.
    #[default]
    CommonAncestor,
    /// Candidates must have exactly one of the query nodes' types.
    QueryTypes,
    /// No filtering: any node may enter the context (Def. 2 verbatim).
    None,
}

/// A ranked context: nodes with similarity scores, descending.
#[derive(Debug, Clone, PartialEq)]
pub struct Context {
    ranked: Vec<(NodeId, f64)>,
}

impl Context {
    /// Builds a context from pre-ranked `(node, score)` pairs (must be
    /// sorted descending by score by the caller — selectors guarantee it).
    pub fn from_ranked(ranked: Vec<(NodeId, f64)>) -> Self {
        debug_assert!(ranked.windows(2).all(|w| w[0].1 >= w[1].1));
        Self { ranked }
    }

    /// Builds a context from an ordered node list (rank-derived scores).
    pub fn from_nodes(nodes: &[NodeId]) -> Self {
        let n = nodes.len().max(1) as f64;
        Self {
            ranked: nodes
                .iter()
                .enumerate()
                .map(|(i, &id)| (id, 1.0 - i as f64 / n))
                .collect(),
        }
    }

    /// Builds a context from entity names.
    pub fn from_names<G, I, S>(graph: &G, names: I) -> Result<Self, CoreError>
    where
        G: GraphAccess,
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let nodes = names
            .into_iter()
            .map(|n| {
                graph
                    .node_by_name(n.as_ref())
                    .ok_or_else(|| CoreError::UnknownNode(n.as_ref().to_owned()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self::from_nodes(&nodes))
    }

    /// Context size |C|.
    pub fn len(&self) -> usize {
        self.ranked.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.ranked.is_empty()
    }

    /// The ranked `(node, score)` pairs.
    pub fn ranked(&self) -> &[(NodeId, f64)] {
        &self.ranked
    }

    /// The context nodes in rank order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.ranked.iter().map(|&(n, _)| n)
    }

    /// The top-`k` prefix as a new context.
    pub fn truncated(&self, k: usize) -> Context {
        Context {
            ranked: self.ranked[..k.min(self.ranked.len())].to_vec(),
        }
    }

    /// The node set (for F1 evaluation).
    pub fn node_set(&self) -> HashSet<NodeId> {
        self.nodes().collect()
    }
}

/// A similarity-based context selector (σ of Def. 2), generic over the
/// graph backend.
pub trait ContextSelector<G: GraphAccess> {
    /// Scores all candidates and returns the top-`k` as a context.
    fn select(&self, graph: &G, query: &Query, k: usize) -> Result<Context, CoreError>;

    /// Human-readable selector name (for reports).
    fn name(&self) -> &'static str;
}

/// Precomputed candidate predicate for a (graph, query, filter) triple.
pub struct CandidateFilter {
    /// `allowed[type.index()]` — whether nodes of that type qualify.
    allowed_types: Vec<bool>,
    /// Whether untyped nodes qualify (only under [`TypeFilter::None`]).
    allow_untyped: bool,
}

impl CandidateFilter {
    /// Builds the predicate by intersecting the query nodes' ancestor
    /// sets and testing every registered type against the intersection.
    pub fn new<G: GraphAccess>(graph: &G, query: &Query, filter: TypeFilter) -> Self {
        let tax = graph.taxonomy();
        let n_types = tax.len();
        match filter {
            TypeFilter::None => Self {
                allowed_types: vec![true; n_types],
                allow_untyped: true,
            },
            TypeFilter::QueryTypes => {
                let mut allowed = vec![false; n_types];
                for &q in query.nodes() {
                    if let Some(t) = graph.node_type(q) {
                        allowed[t.index()] = true;
                    }
                }
                Self {
                    allowed_types: allowed,
                    allow_untyped: false,
                }
            }
            TypeFilter::CommonAncestor => {
                // A = ∩_q (ancestors*(type(q))); candidate type T passes
                // iff ancestors*(T) ∩ A ≠ ∅.
                let mut common: Option<HashSet<NodeTypeId>> = None;
                for &q in query.nodes() {
                    let set: HashSet<NodeTypeId> = match graph.node_type(q) {
                        Some(t) => {
                            let mut s: HashSet<NodeTypeId> = tax.ancestors(t).into_iter().collect();
                            s.insert(t);
                            s
                        }
                        None => HashSet::new(),
                    };
                    common = Some(match common {
                        None => set,
                        Some(prev) => prev.intersection(&set).copied().collect(),
                    });
                }
                let common = common.unwrap_or_default();
                let allowed_types = (0..n_types)
                    .map(|i| {
                        let t = NodeTypeId::from_index(i);
                        if common.contains(&t) {
                            return true;
                        }
                        tax.ancestors(t).iter().any(|a| common.contains(a))
                    })
                    .collect();
                Self {
                    allowed_types,
                    allow_untyped: false,
                }
            }
        }
    }

    /// Whether `node` qualifies as a context candidate.
    pub fn allows<G: GraphAccess>(&self, graph: &G, node: NodeId) -> bool {
        match graph.node_type(node) {
            Some(t) => self.allowed_types.get(t.index()).copied().unwrap_or(false),
            None => self.allow_untyped,
        }
    }
}

/// Shared top-k finalization: filter, drop query nodes, select the `k`
/// best by score (descending, ties by id for determinism).
///
/// Exposed so external selectors — e.g. the caching RandomWalk path in
/// `nck-engine` — finalize their score maps exactly the way the built-in
/// selectors do. Scores that are zero or negative are dropped before the
/// cut, and `k == 0` is rejected with [`CoreError::EmptyContext`].
///
/// Selection is `O(n + k log k)`, not a full `O(n log n)` sort: the
/// candidates are partitioned around the `k`-th best with
/// `select_nth_unstable_by` and only the retained prefix is sorted. The
/// comparator (score descending, then node id ascending) is a total
/// order over distinct nodes, so the result is identical to the full
/// sort it replaces, ties included.
pub fn top_k_context<G: GraphAccess>(
    graph: &G,
    query: &Query,
    scores: impl IntoIterator<Item = (NodeId, f64)>,
    filter: &CandidateFilter,
    k: usize,
) -> Result<Context, CoreError> {
    if k == 0 {
        return Err(CoreError::EmptyContext);
    }
    let mut ranked: Vec<(NodeId, f64)> = scores
        .into_iter()
        .filter(|&(n, s)| s > 0.0 && !query.contains(n) && filter.allows(graph, n))
        .collect();
    let cmp = |a: &(NodeId, f64), b: &(NodeId, f64)| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    };
    if ranked.len() > k {
        ranked.select_nth_unstable_by(k - 1, cmp);
        ranked.truncate(k);
    }
    ranked.sort_by(cmp);
    Ok(Context::from_ranked(ranked))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nck_graph::{GraphBuilder, KnowledgeGraph};

    fn typed_graph() -> KnowledgeGraph {
        let mut b = GraphBuilder::new();
        for (name, ty) in [
            ("pitt", "actor"),
            ("clooney", "actor"),
            ("spielberg", "director"),
            ("merkel", "politician"),
            ("movie1", "movie"),
        ] {
            b.typed_node(name, ty);
        }
        b.subtype("actor", "person");
        b.subtype("director", "person");
        b.subtype("politician", "person");
        b.add_triple("pitt", "actedIn", "movie1");
        b.add_triple("pitt", "bornIn", "somewhere");
        b.build()
    }

    #[test]
    fn common_ancestor_allows_persons_not_movies() {
        let g = typed_graph();
        let q = Query::by_names(&g, ["pitt", "clooney"]).unwrap();
        let f = CandidateFilter::new(&g, &q, TypeFilter::CommonAncestor);
        assert!(f.allows(&g, g.node_by_name("spielberg").unwrap()));
        assert!(f.allows(&g, g.node_by_name("merkel").unwrap()));
        assert!(!f.allows(&g, g.node_by_name("movie1").unwrap()));
        // Untyped attribute node excluded.
        assert!(!f.allows(&g, g.node_by_name("somewhere").unwrap()));
    }

    #[test]
    fn query_types_filter_is_stricter() {
        let g = typed_graph();
        let q = Query::by_names(&g, ["pitt"]).unwrap();
        let f = CandidateFilter::new(&g, &q, TypeFilter::QueryTypes);
        assert!(f.allows(&g, g.node_by_name("clooney").unwrap()));
        assert!(!f.allows(&g, g.node_by_name("spielberg").unwrap()));
    }

    #[test]
    fn none_filter_allows_everything() {
        let g = typed_graph();
        let q = Query::by_names(&g, ["pitt"]).unwrap();
        let f = CandidateFilter::new(&g, &q, TypeFilter::None);
        assert!(f.allows(&g, g.node_by_name("movie1").unwrap()));
        assert!(f.allows(&g, g.node_by_name("somewhere").unwrap()));
    }

    #[test]
    fn mixed_type_query_intersects_ancestors() {
        let g = typed_graph();
        // {actor, politician} → common ancestor person: directors allowed.
        let q = Query::by_names(&g, ["pitt", "merkel"]).unwrap();
        let f = CandidateFilter::new(&g, &q, TypeFilter::CommonAncestor);
        assert!(f.allows(&g, g.node_by_name("spielberg").unwrap()));
        assert!(!f.allows(&g, g.node_by_name("movie1").unwrap()));
    }

    #[test]
    fn top_k_excludes_query_and_sorts() {
        let g = typed_graph();
        let q = Query::by_names(&g, ["pitt"]).unwrap();
        let f = CandidateFilter::new(&g, &q, TypeFilter::None);
        let pitt = g.node_by_name("pitt").unwrap();
        let clooney = g.node_by_name("clooney").unwrap();
        let merkel = g.node_by_name("merkel").unwrap();
        let scores = vec![(pitt, 9.0), (clooney, 0.5), (merkel, 0.7)];
        let ctx = top_k_context(&g, &q, scores, &f, 10).unwrap();
        let names: Vec<&str> = ctx.nodes().map(|n| g.node_name(n)).collect();
        assert_eq!(names, vec!["merkel", "clooney"]);
        // k = 0 is an error.
        assert!(matches!(
            top_k_context(&g, &q, vec![], &f, 0),
            Err(CoreError::EmptyContext)
        ));
    }

    #[test]
    fn context_constructors() {
        let g = typed_graph();
        let ctx = Context::from_names(&g, ["clooney", "spielberg"]).unwrap();
        assert_eq!(ctx.len(), 2);
        assert!(!ctx.is_empty());
        let top1 = ctx.truncated(1);
        assert_eq!(top1.len(), 1);
        assert_eq!(g.node_name(top1.nodes().next().unwrap()), "clooney");
        assert_eq!(ctx.node_set().len(), 2);
        assert!(Context::from_names(&g, ["ghost"]).is_err());
    }

    #[test]
    fn zero_scores_are_dropped() {
        let g = typed_graph();
        let q = Query::by_names(&g, ["pitt"]).unwrap();
        let f = CandidateFilter::new(&g, &q, TypeFilter::None);
        let clooney = g.node_by_name("clooney").unwrap();
        let ctx = top_k_context(&g, &q, vec![(clooney, 0.0)], &f, 5).unwrap();
        assert!(ctx.is_empty());
    }
}
