//! Deterministic batch planning: dedup identical requests, then order
//! the distinct ones so overlapping seed sets run close together.
//!
//! Public-KB workloads are dominated by repeated seeds (the same handful
//! of entities queried again and again), so a batch usually contains
//! (a) exact duplicates — executed once and fanned back out — and
//! (b) distinct queries sharing seed entities, which hit the engine's
//! PPR/context caches *if* they run before those entries are evicted.
//! The plan therefore clusters distinct queries around their hottest
//! shared seed: queries anchored on the most frequent seed run first and
//! adjacently, then the next-hottest anchor, and so on. Ordering uses
//! only batch-local seed frequencies, node ids and batch positions, so a
//! given batch always produces the same plan.

use nck_core::query::Query;
use nck_graph::NodeId;
use std::collections::HashMap;
use std::hash::Hash;

/// One distinct query of a batch and the batch positions it answers.
#[derive(Debug, Clone)]
pub struct QueryGroup {
    /// Index into the caller's query slice of the representative query.
    pub representative: usize,
    /// All batch positions this group's result fans out to (ascending;
    /// at least one — the representative itself).
    pub positions: Vec<usize>,
}

/// An execution plan over a batch of queries. Groups are ordered for
/// cache locality; see the [module docs](self).
#[derive(Debug, Clone)]
pub struct BatchPlan {
    /// Distinct work units, in execution order.
    pub groups: Vec<QueryGroup>,
    /// Number of input queries (so results can be fanned back out).
    pub len: usize,
}

impl BatchPlan {
    /// Queries deduplicated away (batch size minus distinct groups).
    pub fn deduplicated(&self) -> usize {
        self.len - self.groups.len()
    }
}

/// The seed-list half of a query's cache/dedup key: its seed list **in
/// input order**.
///
/// Order is deliberately preserved rather than sorted: the σ scoring of
/// ContextRW and the PageRank summation of the RandomWalk baseline both
/// accumulate per-seed `f64` contributions in `query.nodes()` order,
/// and floating-point addition is not associative — collapsing `[A, B, C]`
/// with `[C, B, A]` could change results in the last ulp and break the
/// engine's bit-exact parity with sequential execution. Seed-permuted
/// duplicates therefore stay distinct work units (they still share the
/// per-seed PPR cache and the backend's predicate runs).
pub fn canonical_key(query: &Query) -> Vec<NodeId> {
    query.nodes().to_vec()
}

/// Plans a batch given each request's key — its [`canonical_key`] plus
/// the settings `P` it runs under (the engine passes its pipeline key).
/// Exact key repeats collapse into one group; the distinct groups are
/// ordered by `(descending batch frequency of the group's hottest seed,
/// ascending hottest-seed id, ascending seed list, first position)` — a
/// deterministic clustering that keeps seed-sharing queries adjacent.
pub fn plan<P: Eq + Hash>(keys: &[(Vec<NodeId>, P)]) -> BatchPlan {
    let mut index: HashMap<&(Vec<NodeId>, P), usize> = HashMap::new();
    let mut groups: Vec<QueryGroup> = Vec::new();
    for (i, key) in keys.iter().enumerate() {
        match index.get(key) {
            Some(&g) => groups[g].positions.push(i),
            None => {
                index.insert(key, groups.len());
                groups.push(QueryGroup {
                    representative: i,
                    positions: vec![i],
                });
            }
        }
    }

    // Batch-local seed frequency over *distinct* groups (duplicates
    // would otherwise dominate the anchors without adding sharing).
    let seeds = |g: &QueryGroup| keys[g.representative].0.as_slice();
    let mut seed_freq: HashMap<NodeId, usize> = HashMap::new();
    for group in &groups {
        for &n in seeds(group) {
            *seed_freq.entry(n).or_insert(0) += 1;
        }
    }
    let anchor = |key: &[NodeId]| -> (usize, NodeId) {
        key.iter()
            .map(|&n| (seed_freq[&n], n))
            // Hottest seed; ties broken toward the smallest id.
            .max_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)))
            .expect("queries are never empty")
    };
    // Stable: groups with equal seed lists (distinct settings) keep
    // their first-position order.
    groups.sort_by(|a, b| {
        let (ka, kb) = (seeds(a), seeds(b));
        let (fa, na) = anchor(ka);
        let (fb, nb) = anchor(kb);
        fb.cmp(&fa).then(na.cmp(&nb)).then(ka.cmp(kb))
    });
    BatchPlan {
        groups,
        len: keys.len(),
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use nck_graph::{GraphBuilder, KnowledgeGraph};

    fn chain(n: usize) -> KnowledgeGraph {
        let mut b = GraphBuilder::new();
        for i in 0..n {
            b.add_triple(&format!("n{i}"), "knows", &format!("n{}", (i + 1) % n));
        }
        b.build()
    }

    fn q(g: &KnowledgeGraph, names: &[&str]) -> Query {
        Query::by_names(g, names).unwrap()
    }

    /// Keys under one shared setting, as a batch without overrides has.
    fn keys(batch: &[Query]) -> Vec<(Vec<NodeId>, ())> {
        batch.iter().map(|q| (canonical_key(q), ())).collect()
    }

    #[test]
    fn exact_duplicates_collapse_to_one_group() {
        let g = chain(8);
        let batch = vec![
            q(&g, &["n0", "n1"]),
            q(&g, &["n0", "n1"]),
            q(&g, &["n0", "n1"]),
            q(&g, &["n2", "n3"]),
        ];
        let p = plan(&keys(&batch));
        assert_eq!(p.len, 4);
        assert_eq!(p.groups.len(), 2);
        assert_eq!(p.deduplicated(), 2);
        let dup = p
            .groups
            .iter()
            .find(|g| g.positions.len() == 3)
            .expect("triplicated group");
        assert_eq!(dup.positions, vec![0, 1, 2]);
    }

    #[test]
    fn seed_permuted_queries_stay_distinct() {
        // FP accumulation runs in seed order, so [n1, n0] is not the same
        // work unit as [n0, n1] — see `canonical_key`.
        let g = chain(8);
        let batch = vec![q(&g, &["n0", "n1"]), q(&g, &["n1", "n0"])];
        let p = plan(&keys(&batch));
        assert_eq!(p.groups.len(), 2);
        assert_eq!(p.deduplicated(), 0);
    }

    #[test]
    fn same_seeds_under_different_settings_stay_distinct() {
        let g = chain(8);
        let seeds = canonical_key(&q(&g, &["n0", "n1"]));
        let batch = vec![
            (seeds.clone(), 30),
            (seeds.clone(), 100),
            (seeds.clone(), 30),
        ];
        let p = plan(&batch);
        assert_eq!(p.groups.len(), 2);
        assert_eq!(p.groups[0].positions, vec![0, 2]);
        assert_eq!(p.groups[1].positions, vec![1], "first-position order");
    }

    #[test]
    fn groups_cluster_around_hot_seeds() {
        let g = chain(10);
        // n0 appears in three distinct groups, n5 in one.
        let batch = vec![
            q(&g, &["n5", "n6"]),
            q(&g, &["n0", "n1"]),
            q(&g, &["n0", "n2"]),
            q(&g, &["n0", "n3"]),
        ];
        let p = plan(&keys(&batch));
        // The three n0-anchored groups run first, adjacently.
        let first_three: Vec<usize> = p.groups[..3].iter().map(|g| g.representative).collect();
        assert_eq!(first_three, vec![1, 2, 3]);
        assert_eq!(p.groups[3].representative, 0);
    }

    #[test]
    fn plan_is_deterministic_and_covers_all_positions() {
        let g = chain(12);
        let batch: Vec<Query> = (0..9)
            .map(|i| q(&g, &[&format!("n{}", i % 4), &format!("n{}", 4 + i % 3)]))
            .collect();
        let p1 = plan(&keys(&batch));
        let p2 = plan(&keys(&batch));
        let reps = |p: &BatchPlan| {
            p.groups
                .iter()
                .map(|g| g.representative)
                .collect::<Vec<_>>()
        };
        assert_eq!(reps(&p1), reps(&p2));
        let mut seen: Vec<usize> = p1.groups.iter().flat_map(|g| g.positions.clone()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn empty_batch_plans_empty() {
        let p = plan::<()>(&[]);
        assert!(p.groups.is_empty());
        assert_eq!(p.len, 0);
        assert_eq!(p.deduplicated(), 0);
    }
}
