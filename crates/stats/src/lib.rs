//! # nck-stats — statistics substrate for notable characteristics search
//!
//! The EDBT 2018 paper *Notable Characteristics Search through Knowledge
//! Graphs* (Mottin et al.) decides whether an edge label is *notable* by
//! comparing the label's distribution over the query set against its
//! distribution over the context set with an **exact multinomial test**
//! (falling back to Monte-Carlo sampling when the outcome space is large,
//! see footnote 1 of the paper). The authors delegated that test to an R
//! package; this crate implements it from scratch, together with the
//! comparison measures the paper uses as evaluation baselines (§4.2):
//!
//! - [`MultinomialTest`] — exact enumeration + seeded Monte-Carlo fallback;
//! - [`divergence`] — Kullback-Leibler and Jensen-Shannon divergences;
//! - [`emd`] — Earth Mover's Distance (1-D ground distance and unit ground
//!   distance);
//! - [`ranking`] — minimum-adjacent-swap (Kendall-tau) ranking distance used
//!   in the §4.2 metric comparison;
//! - [`metrics`] — precision / recall / F1 used throughout §4.
//!
//! Everything is deterministic: all sampling takes explicit RNGs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod divergence;
pub mod emd;
pub mod error;
pub mod exact;
pub mod metrics;
pub mod monte_carlo;
pub mod multinomial;
pub mod ranking;
pub mod special;
pub mod test;

pub use error::StatsError;
pub use metrics::{f1_score, precision_recall_f1, PrecisionRecall};
pub use multinomial::Multinomial;
pub use test::{MultinomialTest, TestMethod, TestOutcome};
