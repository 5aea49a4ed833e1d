//! FindNC — the end-to-end notable characteristics search (Problem 1).
//!
//! Wires the pieces together: select a context with ContextRW (or any
//! other [`ContextSelector`]), build the Inst/Card distributions of every
//! label incident to `Q ∪ C`, score each with the discrimination function,
//! and return the labels ranked by δ. The paper's RWMult ablation
//! (RandomWalk context + multinomial test, Figure 9) is
//! [`FindNc::discover_with_selector`] with a [`crate::ppr::RandomWalkSelector`].

use crate::config::FindNcConfig;
use crate::context::{Context, ContextSelector};
use crate::context_rw::ContextRw;
use crate::discrimination::{
    Discrimination, DiscriminationScore, MultinomialDiscrimination, Trigger,
};
use crate::distributions::LabelDistributions;
use crate::error::CoreError;
use crate::query::Query;
use crate::sweep::{self, ScoringWorkspace};
use nck_graph::{EdgeLabelId, GraphAccess};
use nck_stats::MultinomialTest;

/// One scored characteristic in a [`SearchResult`].
#[derive(Debug, Clone)]
pub struct NotableCharacteristic {
    /// The edge label.
    pub label: EdgeLabelId,
    /// δ (0 = not notable).
    pub score: f64,
    /// Significance probability of the winning test (multinomial method
    /// only).
    pub significance: Option<f64>,
    /// Which distribution deviated.
    pub trigger: Trigger,
    /// Significance probability of the instance test.
    pub inst_significance: Option<f64>,
    /// Significance probability of the cardinality test.
    pub card_significance: Option<f64>,
    /// The full distributions (kept for explanation / plotting — this is
    /// how Figures 7 and 8 are drawn).
    pub distributions: LabelDistributions,
}

impl NotableCharacteristic {
    /// Whether the label is notable (δ ≠ 0, Def. 3).
    pub fn notable(&self) -> bool {
        self.score > 0.0
    }
}

/// The result of a notable-characteristics search.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// All scored labels, descending by δ (ties: ascending significance,
    /// then label id).
    pub characteristics: Vec<NotableCharacteristic>,
    /// The context the scores were computed against.
    pub context: Context,
}

impl SearchResult {
    /// Only the notable characteristics (δ ≠ 0).
    pub fn notable(&self) -> impl Iterator<Item = &NotableCharacteristic> {
        self.characteristics.iter().filter(|c| c.notable())
    }

    /// Looks a characteristic up by label name.
    pub fn characteristic<G: GraphAccess>(
        &self,
        label_name: &str,
        graph: &G,
    ) -> Option<&NotableCharacteristic> {
        let label = graph.labels().get(label_name)?;
        self.characteristics.iter().find(|c| c.label == label)
    }
}

/// The FindNC pipeline.
pub struct FindNc {
    config: FindNcConfig,
}

impl FindNc {
    /// Creates the pipeline with the given configuration.
    pub fn new(config: FindNcConfig) -> Self {
        Self { config }
    }

    /// Read access to the configuration.
    pub fn config(&self) -> &FindNcConfig {
        &self.config
    }

    fn discrimination(&self) -> Result<MultinomialDiscrimination, CoreError> {
        let test = MultinomialTest::new()
            .with_alpha(self.config.alpha)
            .map_err(CoreError::from)?
            .with_samples(self.config.mc_samples)
            .with_seed(self.config.mc_seed);
        Ok(MultinomialDiscrimination::new(test))
    }

    /// Full pipeline: ContextRW context selection, then discrimination.
    ///
    /// ```
    /// use nck_core::config::{FindNcConfig, PathMiningConfig};
    /// use nck_core::context::TypeFilter;
    /// use nck_core::prelude::*;
    /// use nck_graph::GraphBuilder;
    ///
    /// // Figure 1: every G20 leader has a child — except Merkel.
    /// let mut b = GraphBuilder::new();
    /// b.add_triple("Merkel", "memberOf", "G20");
    /// for i in 0..20 {
    ///     let leader = format!("leader{i}");
    ///     b.add_triple(&leader, "memberOf", "G20");
    ///     b.add_triple(&leader, "hasChild", &format!("child{i}"));
    /// }
    /// let graph = b.build();
    ///
    /// let mut config = FindNcConfig::default();
    /// config.context.mining = PathMiningConfig { walks: 2_000, ..Default::default() };
    /// config.context.type_filter = TypeFilter::None; // untyped toy graph
    /// config.context_size = 20;
    ///
    /// let query = Query::by_names(&graph, ["Merkel"]).unwrap();
    /// let result = FindNc::new(config).discover(&graph, &query).unwrap();
    /// // The mined co-membership metapath retrieves the other leaders…
    /// assert_eq!(result.context.len(), 20);
    /// // …and the missing child surfaces as a notable cardinality deviation.
    /// let has_child = result.characteristic("hasChild", &graph).unwrap();
    /// assert!(has_child.notable());
    /// ```
    pub fn discover<G: GraphAccess + Sync>(
        &self,
        graph: &G,
        query: &Query,
    ) -> Result<SearchResult, CoreError> {
        let selector = ContextRw::new(self.config.context.clone());
        self.discover_with_selector(graph, query, &selector)
    }

    /// Pipeline with a caller-chosen context selector (e.g. the RWMult
    /// ablation of Figure 9).
    pub fn discover_with_selector<G: GraphAccess>(
        &self,
        graph: &G,
        query: &Query,
        selector: &dyn ContextSelector<G>,
    ) -> Result<SearchResult, CoreError> {
        let context = selector.select(graph, query, self.config.context_size)?;
        self.discover_with_context(graph, query, &context)
    }

    /// Discrimination against a fixed context (also used by tests and by
    /// callers with an externally curated context).
    pub fn discover_with_context<G: GraphAccess>(
        &self,
        graph: &G,
        query: &Query,
        context: &Context,
    ) -> Result<SearchResult, CoreError> {
        self.discover_with_context_ws(graph, query, context, &mut ScoringWorkspace::new())
    }

    /// [`discover_with_context`](Self::discover_with_context) with a
    /// caller-provided [`ScoringWorkspace`] — repeated-query callers (the
    /// engine's worker pool) recycle the sweep scratch across queries.
    pub fn discover_with_context_ws<G: GraphAccess>(
        &self,
        graph: &G,
        query: &Query,
        context: &Context,
        ws: &mut ScoringWorkspace,
    ) -> Result<SearchResult, CoreError> {
        let discrimination = self.discrimination()?;
        self.discover_with_discrimination_ws(graph, query, context, &discrimination, ws)
    }

    /// Fully pluggable variant: fixed context and any discrimination
    /// function (used by the §4.2 KL/EMD comparison).
    pub fn discover_with_discrimination<G: GraphAccess>(
        &self,
        graph: &G,
        query: &Query,
        context: &Context,
        discrimination: &dyn Discrimination,
    ) -> Result<SearchResult, CoreError> {
        self.discover_with_discrimination_ws(
            graph,
            query,
            context,
            discrimination,
            &mut ScoringWorkspace::new(),
        )
    }

    /// [`discover_with_discrimination`](Self::discover_with_discrimination)
    /// with a caller-provided workspace.
    ///
    /// Distributions come from the node-major sweep
    /// ([`sweep::build_all`]), and the per-label discrimination tests fan
    /// out across [`crate::parallel`] workers, which pull the labels one
    /// at a time, costliest first
    /// ([`map_costliest_first`](crate::parallel::map_costliest_first)).
    /// Every label's result equals [`LabelDistributions::build_full`]
    /// scored on its own: the distributions by construction (see
    /// [`crate::sweep`]), and the scores because each test re-seeds from
    /// the label-independent config seed, so no result depends on call
    /// order or on which worker ran it. Results come back in label order.
    pub fn discover_with_discrimination_ws<G: GraphAccess>(
        &self,
        graph: &G,
        query: &Query,
        context: &Context,
        discrimination: &dyn Discrimination,
        ws: &mut ScoringWorkspace,
    ) -> Result<SearchResult, CoreError> {
        if context.is_empty() {
            return Err(CoreError::NotEnoughCandidates {
                requested: self.config.context_size,
                available: 0,
            });
        }
        let dists = sweep::build_all(
            graph,
            query,
            context,
            self.config.instance_support,
            self.config.card_binning,
            self.config.include_inverse_labels,
            ws,
        );
        // Fan the per-label tests out, costliest first; results come
        // back in ascending label order, and with them the first error,
        // if any.
        let scored: Vec<Result<DiscriminationScore, CoreError>> =
            crate::parallel::map_costliest_first(
                dists.len(),
                |i| test_cost(&dists[i]),
                |i| discrimination.score(&dists[i]),
            );
        let mut characteristics = Vec::with_capacity(dists.len());
        for (dists, scored) in dists.into_iter().zip(scored) {
            let s = scored?;
            characteristics.push(NotableCharacteristic {
                label: dists.label,
                score: s.score,
                significance: s.significance(),
                trigger: s.trigger,
                inst_significance: s.inst_significance,
                card_significance: s.card_significance,
                distributions: dists,
            });
        }
        // `total_cmp`, not `partial_cmp(..).unwrap_or(Equal)`: mapping
        // NaN to "equal" breaks the strict weak ordering `sort_by`
        // requires, so one NaN score could scramble (or panic) the whole
        // ranking. IEEE total order keeps the sort lawful; the explicit
        // is_nan key pins NaN scores to the *bottom* of the ranking
        // (descending total order alone would put positive NaN above
        // +inf, i.e. a broken score would top the list).
        characteristics.sort_by(|a, b| {
            a.score
                .is_nan()
                .cmp(&b.score.is_nan())
                .then(b.score.total_cmp(&a.score))
                .then(
                    a.significance
                        .unwrap_or(1.0)
                        .total_cmp(&b.significance.unwrap_or(1.0)),
                )
                .then(a.label.cmp(&b.label))
        });
        Ok(SearchResult {
            characteristics,
            context: context.clone(),
        })
    }
}

/// A label's discrimination cost for scheduling: query observations
/// times categories, summed over its two distributions. A multinomial
/// test's cost grows with both — an exact enumeration with the outcome
/// count, a Monte-Carlo test with the draws per sample — so this puts a
/// label's heavy test ahead of its cheap ones.
fn test_cost(dists: &LabelDistributions) -> u64 {
    let card_q_total: u64 = dists.card_q.iter().sum();
    dists.inst_q_total() * dists.inst_c.len() as u64 + card_q_total * dists.card_c.len() as u64
}

impl Default for FindNc {
    fn default() -> Self {
        Self::new(FindNcConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ContextRwConfig, PathMiningConfig};
    use crate::context::TypeFilter;
    use nck_graph::GraphBuilder;

    /// Figure-1 style population, large enough for the multinomial test:
    /// 24 leaders, all but the query pair have children and studied Law.
    fn leaders() -> (nck_graph::KnowledgeGraph, Query, Context) {
        let mut b = GraphBuilder::new();
        b.add_triple("Merkel", "studied", "Physics");
        b.node("Obama");
        for i in 0..24 {
            let n = format!("leader{i}");
            b.add_triple(&n, "studied", "Law");
            for c in 0..(1 + i % 3) {
                b.add_triple(&n, "hasChild", &format!("child{i}_{c}"));
            }
            b.add_triple(&n, "leads", &format!("country{i}"));
            // Shared forum membership: the symmetric structure the mined
            // metapaths replay from the query side.
            b.add_triple(&n, "memberOf", "G20");
        }
        b.add_triple("Obama", "hasChild", "Malia");
        b.add_triple("Obama", "hasChild", "Sasha");
        b.add_triple("Merkel", "leads", "Germany");
        b.add_triple("Obama", "leads", "USA");
        b.add_triple("Merkel", "memberOf", "G20");
        b.add_triple("Obama", "memberOf", "G20");
        let g = b.build();
        let q = Query::by_names(&g, ["Merkel", "Obama"]).unwrap();
        let names: Vec<String> = (0..24).map(|i| format!("leader{i}")).collect();
        let c = Context::from_names(&g, &names).unwrap();
        (g, q, c)
    }

    #[test]
    fn merkel_missing_children_is_notable() {
        let (g, q, c) = leaders();
        let result = FindNc::default().discover_with_context(&g, &q, &c).unwrap();
        let studied = result.characteristic("studied", &g).unwrap();
        assert!(
            studied.notable(),
            "Physics vs all-Law must be notable: {:?}",
            studied.score
        );
        // `leads` is identical across query and context values-wise per
        // node (each leads their own country)… distinct values, so the
        // instance test sees all-unique values on both sides; cardinality
        // is all-1 on both sides — not notable on cardinality.
        let leads = result.characteristic("leads", &g).unwrap();
        assert!(
            leads.card_significance.unwrap() > 0.05,
            "uniform cardinality must not reject: {leads:?}"
        );
    }

    #[test]
    fn result_is_sorted_by_score() {
        let (g, q, c) = leaders();
        let r = FindNc::default().discover_with_context(&g, &q, &c).unwrap();
        for w in r.characteristics.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        assert!(r.notable().count() <= r.characteristics.len());
    }

    #[test]
    fn characteristic_lookup_by_name() {
        let (g, q, c) = leaders();
        let r = FindNc::default().discover_with_context(&g, &q, &c).unwrap();
        assert!(r.characteristic("studied", &g).is_some());
        assert!(r.characteristic("nonexistent", &g).is_none());
    }

    #[test]
    fn inverse_labels_excluded_by_default_included_on_request() {
        let (g, q, c) = leaders();
        let r = FindNc::default().discover_with_context(&g, &q, &c).unwrap();
        assert!(r
            .characteristics
            .iter()
            .all(|ch| !g.labels().is_inverse(ch.label)));
        let cfg = FindNcConfig {
            include_inverse_labels: true,
            ..FindNcConfig::default()
        };
        let r2 = FindNc::new(cfg).discover_with_context(&g, &q, &c).unwrap();
        assert!(r2.characteristics.len() >= r.characteristics.len());
    }

    #[test]
    fn full_pipeline_runs_end_to_end() {
        // Small end-to-end run with real context selection.
        let (g, q, _) = leaders();
        let cfg = FindNcConfig {
            context: ContextRwConfig {
                mining: PathMiningConfig {
                    walks: 3_000,
                    max_length: 3,
                    seed: 2,
                    parallel: false,
                },
                num_metapaths: 5,
                type_filter: TypeFilter::None,
                max_endpoint_fraction: 0.25,
            },
            context_size: 20,
            ..FindNcConfig::default()
        };
        let r = FindNc::new(cfg).discover(&g, &q).unwrap();
        assert!(!r.context.is_empty());
        assert!(!r.characteristics.is_empty());
    }

    #[test]
    fn nan_scores_rank_deterministically() {
        use crate::discrimination::{Discrimination, DiscriminationScore, Trigger};

        /// Poisons the listed labels with a NaN δ. Keyed on the label id,
        /// not on call order, which the worker fan-out leaves unspecified.
        struct NanFor(Vec<EdgeLabelId>);
        impl Discrimination for NanFor {
            fn score(
                &self,
                dists: &crate::distributions::LabelDistributions,
            ) -> Result<DiscriminationScore, CoreError> {
                let score = if self.0.contains(&dists.label) {
                    f64::NAN
                } else {
                    0.5
                };
                Ok(DiscriminationScore {
                    score,
                    inst_score: score,
                    card_score: 0.0,
                    trigger: Trigger::Instance,
                    inst_significance: None,
                    card_significance: None,
                })
            }
            fn name(&self) -> &'static str {
                "nan-for-labels"
            }
        }

        let (g, q, c) = leaders();
        let poisoned = NanFor(
            ["studied", "leads"]
                .iter()
                .map(|name| g.labels().get(name).unwrap())
                .collect(),
        );
        let run = || {
            FindNc::default()
                .discover_with_discrimination(&g, &q, &c, &poisoned)
                .unwrap()
                .characteristics
                .iter()
                .map(|ch| (ch.label, ch.score.to_bits()))
                .collect::<Vec<_>>()
        };
        let first = run();
        // The sort is total: repeated runs agree bit for bit, and no
        // panic from a broken comparator.
        assert_eq!(first, run());
        assert!(first.iter().any(|(_, bits)| f64::from_bits(*bits).is_nan()));
        // NaN scores sink to the bottom — a broken score must never
        // outrank a real δ.
        let first_nan = first
            .iter()
            .position(|(_, bits)| f64::from_bits(*bits).is_nan())
            .unwrap();
        assert!(first_nan > 0, "real scores rank first");
        assert!(
            first[first_nan..]
                .iter()
                .all(|(_, bits)| f64::from_bits(*bits).is_nan()),
            "all NaN-scored labels must rank after every real score"
        );
    }

    /// Each scored label equals its per-label oracle: `build_full`'s
    /// distributions, tested on their own, give the same score and
    /// significance bits as the sweep-and-fan-out result. The proptest
    /// suite widens this across backends; this pins it in-crate.
    #[test]
    fn swept_scores_match_the_per_label_oracle() {
        let (g, q, c) = leaders();
        let findnc = FindNc::default();
        let (cfg, test) = (findnc.config(), findnc.discrimination().unwrap());
        let result = findnc.discover_with_context(&g, &q, &c).unwrap();
        assert!(!result.characteristics.is_empty());
        for ch in &result.characteristics {
            let dists = LabelDistributions::build_full(
                &g,
                &q,
                &c,
                ch.label,
                cfg.instance_support,
                cfg.card_binning,
            );
            assert_eq!(ch.distributions, dists);
            let want = test.score(&dists).unwrap();
            assert_eq!(ch.score.to_bits(), want.score.to_bits());
            assert_eq!(
                ch.significance.map(f64::to_bits),
                want.significance().map(f64::to_bits)
            );
            assert_eq!(ch.trigger, want.trigger);
            assert_eq!(
                ch.inst_significance.map(f64::to_bits),
                want.inst_significance.map(f64::to_bits)
            );
            assert_eq!(
                ch.card_significance.map(f64::to_bits),
                want.card_significance.map(f64::to_bits)
            );
        }
    }

    #[test]
    fn alpha_out_of_range_is_config_error() {
        let (g, q, c) = leaders();
        let cfg = FindNcConfig {
            alpha: 1.5,
            ..FindNcConfig::default()
        };
        assert!(FindNc::new(cfg).discover_with_context(&g, &q, &c).is_err());
    }
}
