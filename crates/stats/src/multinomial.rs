//! The multinomial distribution: log-pmf and seeded sampling.
//!
//! §3.2 of the paper models the context distribution of a characteristic as
//! a multinomial `Mult(N, π)` and evaluates the query observation against
//! it. This module provides the distribution object shared by the exact and
//! Monte-Carlo test drivers.

use crate::error::StatsError;
use crate::special::ln_factorial;
use rand::{Rng, RngExt as _};

/// A multinomial distribution over `k` categories.
///
/// Probabilities are stored normalized; zero-probability categories are
/// legal (they arise whenever the query mentions a value the context never
/// exhibits — precisely the "many zero values" situation §3.2 highlights).
#[derive(Debug, Clone, PartialEq)]
pub struct Multinomial {
    probs: Vec<f64>,
    /// `ln πᵢ` per category (`-inf` where `πᵢ = 0`), computed once so the
    /// pmf and the Monte-Carlo loop read it instead of calling `ln`.
    ln_probs: Vec<f64>,
    /// Cumulative distribution for inverse-CDF sampling. The last category
    /// with mass and every category after it hold exactly 1.0.
    cdf: Vec<f64>,
    /// Chen–Asau guide table: `guide[j]` is the first index whose `cdf`
    /// reaches `j / guide.len()`, so a draw starts its search next to the
    /// answer instead of binary-searching the whole `cdf`.
    guide: Vec<usize>,
}

impl Multinomial {
    /// Builds a multinomial from raw non-negative weights (e.g. counts).
    ///
    /// Weights are normalized to probabilities. Returns an error if the
    /// vector is empty, contains a negative / non-finite weight, or sums to
    /// zero.
    pub fn from_weights(weights: &[f64]) -> Result<Self, StatsError> {
        if weights.is_empty() {
            return Err(StatsError::EmptyDistribution);
        }
        let mut total = 0.0f64;
        for (i, &w) in weights.iter().enumerate() {
            if !w.is_finite() || w < 0.0 {
                return Err(StatsError::InvalidProbability { index: i });
            }
            total += w;
        }
        if total <= 0.0 || !total.is_finite() {
            return Err(StatsError::ZeroMass);
        }
        let probs: Vec<f64> = weights.iter().map(|&w| w / total).collect();
        let ln_probs = probs.iter().map(|&p| p.ln()).collect();
        let mut cdf = Vec::with_capacity(probs.len());
        let mut acc = 0.0f64;
        for &p in &probs {
            acc += p;
            cdf.push(acc);
        }
        // Guard against floating-point shortfall at the tail: the last
        // category with mass absorbs it, so no draw can land on a trailing
        // zero-mass category.
        let last_with_mass = probs.iter().rposition(|&p| p > 0.0).unwrap_or(0);
        cdf[last_with_mass..].fill(1.0);
        let m = cdf.len();
        let mut guide = Vec::with_capacity(m);
        let mut i = 0;
        for j in 0..m {
            let edge = j as f64 / m as f64;
            while cdf[i] < edge {
                i += 1;
            }
            guide.push(i);
        }
        Ok(Self {
            probs,
            ln_probs,
            cdf,
            guide,
        })
    }

    /// Builds a multinomial from unsigned counts (the common case: the
    /// context histogram of a characteristic).
    pub fn from_counts(counts: &[u64]) -> Result<Self, StatsError> {
        let weights: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
        Self::from_weights(&weights)
    }

    /// Number of categories `k`.
    #[inline]
    pub fn num_categories(&self) -> usize {
        self.probs.len()
    }

    /// Normalized probability vector.
    #[inline]
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// `ln πᵢ` per category, `-inf` where `πᵢ = 0`.
    #[inline]
    pub(crate) fn ln_probs(&self) -> &[f64] {
        &self.ln_probs
    }

    /// Natural log of `Pr(X = x)` for `X ~ Mult(N, π)` with `N = Σ xᵢ`.
    ///
    /// Returns `f64::NEG_INFINITY` when some `xᵢ > 0` has `πᵢ = 0` — the
    /// observation is impossible under the context distribution, which the
    /// test layer treats as maximally notable.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::LengthMismatch`] when `x` does not match the
    /// category count.
    pub fn ln_pmf(&self, x: &[u64]) -> Result<f64, StatsError> {
        if x.len() != self.probs.len() {
            return Err(StatsError::LengthMismatch {
                left: x.len(),
                right: self.probs.len(),
            });
        }
        let n: u64 = x.iter().sum();
        let mut ln_p = ln_factorial(n);
        for (&xi, &ln_pi) in x.iter().zip(&self.ln_probs) {
            if xi == 0 {
                continue;
            }
            if ln_pi == f64::NEG_INFINITY {
                return Ok(f64::NEG_INFINITY);
            }
            ln_p += xi as f64 * ln_pi - ln_factorial(xi);
        }
        Ok(ln_p)
    }

    /// `Pr(X = x)` in linear space (may underflow to 0 for extreme inputs).
    pub fn pmf(&self, x: &[u64]) -> Result<f64, StatsError> {
        Ok(self.ln_pmf(x)?.exp())
    }

    /// Draws one category index according to `π` (inverse-CDF). Never
    /// returns a category with `πᵢ = 0`.
    #[inline]
    pub fn sample_category<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.random();
        // `u = 0` would select a leading zero-mass category (its cdf is
        // 0 ≥ 0). The smallest positive double selects the first category
        // with mass instead, and leaves every other draw, a positive
        // multiple of 2⁻⁵³, where it was.
        self.category_at(u.max(f64::from_bits(1)))
    }

    /// The first index whose cumulative mass reaches `u ∈ [0, 1)`, i.e.
    /// `self.cdf.partition_point(|&c| c < u)`, found from the guide table.
    #[inline]
    fn category_at(&self, u: f64) -> usize {
        let m = self.guide.len();
        let mut i = self.guide[((u * m as f64) as usize).min(m - 1)];
        // `u · m` can round up across a bucket edge, starting the search
        // past the answer: step back first.
        while i > 0 && self.cdf[i - 1] >= u {
            i -= 1;
        }
        // A bucket holds about one cdf entry: one unconditional step
        // settles most draws without a mispredicted loop exit.
        i += usize::from(self.cdf[i] < u);
        while self.cdf[i] < u {
            i += 1;
        }
        i
    }

    /// Draws a full outcome vector of `n` trials into `out` (reused buffer).
    pub fn sample_into<R: Rng + ?Sized>(&self, n: u64, rng: &mut R, out: &mut [u64]) {
        debug_assert_eq!(out.len(), self.probs.len());
        out.fill(0);
        for _ in 0..n {
            out[self.sample_category(rng)] += 1;
        }
    }

    /// Draws a fresh outcome vector of `n` trials.
    pub fn sample<R: Rng + ?Sized>(&self, n: u64, rng: &mut R) -> Vec<u64> {
        let mut out = vec![0u64; self.probs.len()];
        self.sample_into(n, rng, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn from_counts_normalizes() {
        let m = Multinomial::from_counts(&[1, 3]).unwrap();
        assert_eq!(m.probs(), &[0.25, 0.75]);
        assert_eq!(m.num_categories(), 2);
    }

    #[test]
    fn rejects_bad_weights() {
        assert_eq!(
            Multinomial::from_weights(&[]).unwrap_err(),
            StatsError::EmptyDistribution
        );
        assert_eq!(
            Multinomial::from_weights(&[1.0, -0.5]).unwrap_err(),
            StatsError::InvalidProbability { index: 1 }
        );
        assert_eq!(
            Multinomial::from_weights(&[0.0, 0.0]).unwrap_err(),
            StatsError::ZeroMass
        );
        assert_eq!(
            Multinomial::from_weights(&[f64::NAN]).unwrap_err(),
            StatsError::InvalidProbability { index: 0 }
        );
    }

    #[test]
    fn ln_pmf_matches_hand_computation() {
        // Binomial special case: Mult(3, [0.5, 0.5]), x = (2, 1):
        // 3! / (2! 1!) * 0.5^3 = 3/8.
        let m = Multinomial::from_weights(&[0.5, 0.5]).unwrap();
        let p = m.pmf(&[2, 1]).unwrap();
        assert!((p - 0.375).abs() < 1e-12, "p = {p}");
    }

    #[test]
    fn ln_pmf_trinomial() {
        // Mult(4, [0.2, 0.3, 0.5]), x = (1, 1, 2):
        // 4!/(1!1!2!) * 0.2 * 0.3 * 0.25 = 12 * 0.015 = 0.18.
        let m = Multinomial::from_weights(&[0.2, 0.3, 0.5]).unwrap();
        let p = m.pmf(&[1, 1, 2]).unwrap();
        assert!((p - 0.18).abs() < 1e-12, "p = {p}");
    }

    #[test]
    fn impossible_observation_has_zero_probability() {
        let m = Multinomial::from_counts(&[4, 0]).unwrap();
        assert_eq!(m.ln_pmf(&[1, 1]).unwrap(), f64::NEG_INFINITY);
        assert_eq!(m.pmf(&[1, 1]).unwrap(), 0.0);
        // But mass on the supported category is fine.
        assert!((m.pmf(&[2, 0]).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_observation_probability_one() {
        let m = Multinomial::from_counts(&[2, 2]).unwrap();
        assert!((m.pmf(&[0, 0]).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn length_mismatch_detected() {
        let m = Multinomial::from_counts(&[1, 1]).unwrap();
        assert!(matches!(
            m.ln_pmf(&[1, 1, 1]),
            Err(StatsError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn sampling_is_seeded_and_deterministic() {
        let m = Multinomial::from_counts(&[1, 2, 7]).unwrap();
        let mut r1 = StdRng::seed_from_u64(42);
        let mut r2 = StdRng::seed_from_u64(42);
        assert_eq!(m.sample(100, &mut r1), m.sample(100, &mut r2));
    }

    #[test]
    fn sampling_frequencies_approach_probabilities() {
        let m = Multinomial::from_counts(&[1, 3]).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let x = m.sample(100_000, &mut rng);
        let f1 = x[1] as f64 / 100_000.0;
        assert!((f1 - 0.75).abs() < 0.01, "f1 = {f1}");
        assert_eq!(x[0] + x[1], 100_000);
    }

    #[test]
    fn zero_probability_category_never_sampled() {
        let m = Multinomial::from_counts(&[5, 0, 5]).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let x = m.sample(10_000, &mut rng);
        assert_eq!(x[1], 0);
    }

    /// An `Rng` that returns one fixed 64-bit word forever.
    struct FixedBits(u64);

    impl Rng for FixedBits {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn zero_draw_skips_leading_zero_mass_categories() {
        // Any word below 2¹¹ becomes u = 0.0, whose cdf search stops at
        // the first category (cdf 0 ≥ 0) even when it has no mass.
        let m = Multinomial::from_counts(&[0, 1]).unwrap();
        assert_eq!(m.sample_category(&mut FixedBits(0)), 1);
        assert_eq!(m.sample_category(&mut FixedBits((1 << 11) - 1)), 1);
        let m = Multinomial::from_counts(&[0, 0, 3, 0, 2]).unwrap();
        assert_eq!(m.sample_category(&mut FixedBits(0)), 2);
        // With mass on category 0, u = 0 still selects it.
        let m = Multinomial::from_counts(&[1, 0, 1]).unwrap();
        assert_eq!(m.sample_category(&mut FixedBits(0)), 0);
    }

    #[test]
    fn top_draw_never_reaches_trailing_zero_mass_categories() {
        // Seven sevenths sum to 1 − 2⁻⁵² in floating point, below the top
        // draw u = 1 − 2⁻⁵³, which used to land on the forced cdf = 1.0 of
        // the trailing zero-mass category.
        let m = Multinomial::from_counts(&[1, 1, 1, 1, 1, 1, 1, 0, 0]).unwrap();
        let top = u64::MAX;
        let mass: f64 = m.probs().iter().sum();
        assert!(mass < 1.0 - f64::EPSILON / 2.0, "mass {mass}");
        assert_eq!(m.sample_category(&mut FixedBits(top)), 6);
        // Every draw lands on a category with mass.
        for bits in [0, 1 << 11, 1 << 62, 1 << 63, top - (1 << 11), top] {
            let i = m.sample_category(&mut FixedBits(bits));
            assert!(m.probs()[i] > 0.0, "bits {bits:#x} drew zero-mass {i}");
        }
    }

    #[test]
    fn guide_table_matches_binary_search() {
        let dists = [
            vec![1.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![0.5, 0.5],
            vec![0.1; 10],
            [vec![1.0; 7], vec![0.0; 3]].concat(),
            vec![0.0, 0.0, 3.0, 0.0, 0.0, 0.0, 2.0, 0.0, 5.0, 0.0, 0.0],
            // Runs of equal cdf values, uneven buckets, a dominant head.
            vec![1e6, 0.0, 0.0, 1.0, 1.0, 0.0, 1e-9, 0.0, 3.0],
            (0..97).map(|i| f64::from(i % 7)).collect(),
            (0..64).map(|i| 0.5f64.powi(i)).collect(),
            // cdf[0] sits one ulp below 5/6, and u = cdf[0] times 6 rounds
            // up to 5: the search starts past the answer and must step back.
            {
                let below = (5.0f64 / 6.0).next_down();
                assert_eq!((below * 6.0) as usize, 5);
                vec![below, 1.0 - below, 0.0, 0.0, 0.0, 0.0]
            },
        ];
        for weights in &dists {
            let m = Multinomial::from_weights(weights).unwrap();
            let mut us = vec![0.0, 1.0 - f64::EPSILON / 2.0];
            for &c in &m.cdf {
                for u in [c, c.next_down(), c.next_up()] {
                    if (0.0..1.0).contains(&u) {
                        us.push(u);
                    }
                }
            }
            let buckets = m.guide.len() as f64;
            for j in 0..m.guide.len() {
                let edge = j as f64 / buckets;
                us.extend([edge, edge.next_down().max(0.0), edge.next_up()]);
            }
            for u in us {
                assert_eq!(
                    m.category_at(u),
                    m.cdf.partition_point(|&c| c < u),
                    "weights {weights:?}, u = {u:e}"
                );
            }
        }
    }

    #[test]
    fn sample_into_reuses_buffer() {
        let m = Multinomial::from_counts(&[1, 1]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut buf = vec![99u64, 99];
        m.sample_into(10, &mut rng, &mut buf);
        assert_eq!(buf.iter().sum::<u64>(), 10);
    }
}
