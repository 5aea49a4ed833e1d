//! Discrimination functions δ (Def. 3 / §3.2 / §4.2).
//!
//! The paper's δ runs the multinomial test on both the instance and the
//! cardinality distributions and takes the maximum (Eq. 3):
//!
//! ```text
//! δ(l, C, Q) = max(δInst(l, C, Q), δCard(l, C, Q))
//! δInst = MT(normalize(Inst_c), Inst_q),  δCard = MT(normalize(Card_c), Card_q)
//! ```
//!
//! §4.2 compares that choice against KL divergence and EMD; both are
//! implemented here behind the same trait so the evaluation harness can
//! swap them freely.

use crate::distributions::LabelDistributions;
use crate::error::CoreError;
use nck_stats::divergence::{kl_divergence_smoothed, normalize_counts};
use nck_stats::emd::{emd_1d, emd_unit};
use nck_stats::{MultinomialTest, TestOutcome};
use serde::{Deserialize, Serialize};

/// Which distribution triggered a notable characteristic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Trigger {
    /// The instance (value) distribution deviated more.
    Instance,
    /// The cardinality distribution deviated more.
    Cardinality,
}

/// A scored characteristic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiscriminationScore {
    /// δ — 0 means not notable (Def. 3 requires δ(l, Q, C) ≠ 0).
    pub score: f64,
    /// δInst component.
    pub inst_score: f64,
    /// δCard component.
    pub card_score: f64,
    /// Which component won (the max of Eq. 3).
    pub trigger: Trigger,
    /// Significance probability of the instance test, when the method has
    /// one (multinomial only).
    pub inst_significance: Option<f64>,
    /// Significance probability of the cardinality test.
    pub card_significance: Option<f64>,
}

impl DiscriminationScore {
    /// The winning component's significance probability, if any.
    pub fn significance(&self) -> Option<f64> {
        match self.trigger {
            Trigger::Instance => self.inst_significance,
            Trigger::Cardinality => self.card_significance,
        }
    }

    /// Whether the characteristic is notable (δ ≠ 0).
    pub fn notable(&self) -> bool {
        self.score > 0.0
    }
}

/// A discrimination function δ.
///
/// `Sync` because FindNC fans per-label scoring across
/// [`crate::parallel`] workers; scoring takes `&self`, so implementations
/// needing per-call mutable state must use interior mutability that is
/// thread-safe — and note that call *order* across labels is then
/// unspecified (the paper's multinomial test re-seeds per call, so its
/// scores are order-independent).
pub trait Discrimination: Sync {
    /// Scores one label's distributions.
    fn score(&self, dists: &LabelDistributions) -> Result<DiscriminationScore, CoreError>;

    /// Method name for reports.
    fn name(&self) -> &'static str;
}

fn combine(
    inst_score: f64,
    card_score: f64,
    inst_significance: Option<f64>,
    card_significance: Option<f64>,
) -> DiscriminationScore {
    let trigger = if inst_score >= card_score {
        Trigger::Instance
    } else {
        Trigger::Cardinality
    };
    DiscriminationScore {
        score: inst_score.max(card_score),
        inst_score,
        card_score,
        trigger,
        inst_significance,
        card_significance,
    }
}

// ---------------------------------------------------------------------
// Multinomial (the paper's method)
// ---------------------------------------------------------------------

/// The paper's multinomial-test discrimination (§3.2).
#[derive(Debug, Clone)]
pub struct MultinomialDiscrimination {
    test: MultinomialTest,
}

impl MultinomialDiscrimination {
    /// Uses the given multinomial test configuration.
    pub fn new(test: MultinomialTest) -> Self {
        Self { test }
    }

    /// Paper defaults (α = 0.05).
    pub fn paper() -> Self {
        Self::new(MultinomialTest::new())
    }

    fn run(&self, context: &[u64], query: &[u64]) -> Result<TestOutcome, CoreError> {
        Ok(self.test.test_counts(context, query)?)
    }
}

impl Discrimination for MultinomialDiscrimination {
    fn score(&self, dists: &LabelDistributions) -> Result<DiscriminationScore, CoreError> {
        // Under the context-only support the query's instance observation
        // can end up empty (every value dropped, no None bucket): there is
        // no evidence to test, so the instance component contributes 0 —
        // exactly how the paper's authors case keeps `created` un-notable.
        let inst = if dists.inst_q_total() == 0 || dists.inst_c_total() == 0 {
            None
        } else {
            Some(self.run(&dists.inst_c, &dists.inst_q)?)
        };
        let card = self.run(&dists.card_c, &dists.card_q)?;
        Ok(combine(
            inst.map_or(0.0, |t| t.score),
            card.score,
            inst.map(|t| t.significance),
            Some(card.significance),
        ))
    }

    fn name(&self) -> &'static str {
        "FindNC"
    }
}

// ---------------------------------------------------------------------
// KL baseline (§4.2)
// ---------------------------------------------------------------------

/// Smoothed-KL baseline: δ = KL(query ‖ context) per distribution, max.
///
/// §3.2 explains raw KL is undefined on this workload (query mass where
/// the context has none), so the baseline uses additive smoothing.
#[derive(Debug, Clone)]
pub struct KlDiscrimination {
    /// Additive smoothing constant.
    pub epsilon: f64,
}

impl Default for KlDiscrimination {
    fn default() -> Self {
        Self { epsilon: 1e-6 }
    }
}

impl Discrimination for KlDiscrimination {
    fn score(&self, dists: &LabelDistributions) -> Result<DiscriminationScore, CoreError> {
        let inst = if dists.inst_q_total() == 0 || dists.inst_c_total() == 0 {
            0.0
        } else {
            let iq = normalize_counts(&dists.inst_q)?;
            let ic = normalize_counts(&dists.inst_c)?;
            kl_divergence_smoothed(&iq, &ic, self.epsilon)?
        };
        let cq = normalize_counts(&dists.card_q)?;
        let cc = normalize_counts(&dists.card_c)?;
        let card = kl_divergence_smoothed(&cq, &cc, self.epsilon)?;
        Ok(combine(inst, card, None, None))
    }

    fn name(&self) -> &'static str {
        "KL"
    }
}

// ---------------------------------------------------------------------
// EMD baseline (§4.2)
// ---------------------------------------------------------------------

/// EMD baseline: 1-D transport on cardinalities (they are ordered), unit
/// ground distance on instances (they are not — §3.2's objection).
#[derive(Debug, Clone, Default)]
pub struct EmdDiscrimination;

impl Discrimination for EmdDiscrimination {
    fn score(&self, dists: &LabelDistributions) -> Result<DiscriminationScore, CoreError> {
        let inst = if dists.inst_q_total() == 0 || dists.inst_c_total() == 0 {
            0.0
        } else {
            let iq = normalize_counts(&dists.inst_q)?;
            let ic = normalize_counts(&dists.inst_c)?;
            emd_unit(&iq, &ic)?
        };
        let cq = normalize_counts(&dists.card_q)?;
        let cc = normalize_counts(&dists.card_c)?;
        let card = emd_1d(&cq, &cc)?;
        Ok(combine(inst, card, None, None))
    }

    fn name(&self) -> &'static str {
        "EMD"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Context;
    use crate::query::Query;
    use nck_graph::{GraphBuilder, KnowledgeGraph};

    /// Graph where query deviates on `quirk` but matches on `usual`.
    fn fixture() -> (KnowledgeGraph, Query, Context) {
        let mut b = GraphBuilder::new();
        // Query nodes: q0, q1 — both have quirk=weird, usual=common.
        for q in ["q0", "q1"] {
            b.add_triple(q, "quirk", "weird");
            b.add_triple(q, "usual", "common");
        }
        // Context: 20 nodes with quirk=normal (one rare holder of
        // "weird", so the query's value is inside the context support),
        // usual=common.
        for i in 0..20 {
            let n = format!("c{i}");
            let value = if i == 0 { "weird" } else { "normal" };
            b.add_triple(&n, "quirk", value);
            b.add_triple(&n, "usual", "common");
        }
        let g = b.build();
        let q = Query::by_names(&g, ["q0", "q1"]).unwrap();
        let names: Vec<String> = (0..20).map(|i| format!("c{i}")).collect();
        let c = Context::from_names(&g, &names).unwrap();
        (g, q, c)
    }

    fn dists(g: &KnowledgeGraph, q: &Query, c: &Context, label: &str) -> LabelDistributions {
        let l = g.labels().get(label).unwrap();
        LabelDistributions::build(g, q, c, l)
    }

    #[test]
    fn multinomial_flags_deviating_label() {
        let (g, q, c) = fixture();
        let m = MultinomialDiscrimination::paper();
        let quirk = m.score(&dists(&g, &q, &c, "quirk")).unwrap();
        assert!(quirk.notable(), "quirk must be notable: {quirk:?}");
        assert_eq!(quirk.trigger, Trigger::Instance);
        let usual = m.score(&dists(&g, &q, &c, "usual")).unwrap();
        assert!(!usual.notable(), "usual must not be notable: {usual:?}");
    }

    #[test]
    fn multinomial_score_is_one_minus_significance() {
        let (g, q, c) = fixture();
        let m = MultinomialDiscrimination::paper();
        let s = m.score(&dists(&g, &q, &c, "quirk")).unwrap();
        let sig = s.significance().unwrap();
        assert!((s.score - (1.0 - sig)).abs() < 1e-12);
    }

    #[test]
    fn cardinality_trigger_on_missing_edges() {
        // Query nodes lack `hobby` edges entirely; context nodes have 1–2.
        let mut b = GraphBuilder::new();
        b.add_triple("q0", "anchor", "x");
        b.add_triple("q1", "anchor", "x");
        for i in 0..20 {
            let n = format!("c{i}");
            b.add_triple(&n, "anchor", "x");
            b.add_triple(&n, "hobby", &format!("h{}", i % 3));
            if i % 2 == 0 {
                b.add_triple(&n, "hobby", &format!("h{}", (i + 1) % 3));
            }
        }
        let g = b.build();
        let q = Query::by_names(&g, ["q0", "q1"]).unwrap();
        let names: Vec<String> = (0..20).map(|i| format!("c{i}")).collect();
        let c = Context::from_names(&g, &names).unwrap();
        let m = MultinomialDiscrimination::paper();
        let s = m.score(&dists(&g, &q, &c, "hobby")).unwrap();
        assert!(s.notable(), "absent hobby must be notable: {s:?}");
    }

    #[test]
    fn kl_orders_deviation_above_conformity() {
        let (g, q, c) = fixture();
        let kl = KlDiscrimination::default();
        let quirk = kl.score(&dists(&g, &q, &c, "quirk")).unwrap();
        let usual = kl.score(&dists(&g, &q, &c, "usual")).unwrap();
        assert!(quirk.score > usual.score);
        assert!(quirk.score.is_finite());
    }

    #[test]
    fn emd_orders_deviation_above_conformity() {
        let (g, q, c) = fixture();
        let emd = EmdDiscrimination;
        let quirk = emd.score(&dists(&g, &q, &c, "quirk")).unwrap();
        let usual = emd.score(&dists(&g, &q, &c, "usual")).unwrap();
        assert!(quirk.score > usual.score);
    }

    #[test]
    fn method_names() {
        assert_eq!(MultinomialDiscrimination::paper().name(), "FindNC");
        assert_eq!(KlDiscrimination::default().name(), "KL");
        assert_eq!(EmdDiscrimination.name(), "EMD");
    }

    #[test]
    fn combine_picks_max_component() {
        let s = combine(0.3, 0.9, Some(0.7), Some(0.1));
        assert_eq!(s.trigger, Trigger::Cardinality);
        assert_eq!(s.score, 0.9);
        assert_eq!(s.significance(), Some(0.1));
        let s = combine(0.9, 0.3, Some(0.1), Some(0.7));
        assert_eq!(s.trigger, Trigger::Instance);
        assert_eq!(s.significance(), Some(0.1));
    }
}
