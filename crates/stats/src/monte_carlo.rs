//! Monte-Carlo approximation of the multinomial significance probability.
//!
//! Footnote 1 of the paper: *"In case of large N, the exact test is
//! impractical, a Monte-Carlo sampling to approximate the final result is
//! performed."* In this pipeline `N` itself stays small (≤ |Q|), but the
//! number of categories `k` — distinct instance values seen across query
//! and context — routinely reaches hundreds, making the composition space
//! `C(N+k−1, k−1)` astronomically large. The estimator below samples
//! outcomes `y ~ Mult(N, π)` and counts how often `Pr(y) ≤ Pr(x)`.
//!
//! The estimator uses the (add-one) upward-biased form
//! `(1 + #{ln Pr(y) ≤ ln Pr(x)}) / (1 + S)` recommended for Monte-Carlo
//! p-values: it never reports an exact zero from sampling alone, keeping
//! the false-positive rate of the downstream 0.05 cut-off honest.

use crate::error::StatsError;
use crate::multinomial::Multinomial;
use crate::special::ln_factorial;
use rand::Rng;

/// Log-space tolerance for counting ties, mirroring the exact test.
const LN_TIE_TOLERANCE: f64 = 1e-9;

/// Default number of Monte-Carlo samples.
///
/// 100k samples bound the standard error of a p-value near 0.05 by
/// `sqrt(0.05 · 0.95 / 1e5) ≈ 0.0007`, comfortably below the resolution the
/// 0.05 decision threshold needs.
pub const DEFAULT_SAMPLES: u32 = 100_000;

/// Estimates `Prs(X = x)` by sampling.
///
/// # Errors
///
/// Same input validation as [`crate::exact::exact_significance`]; also
/// rejects `samples == 0`.
pub fn monte_carlo_significance<R: Rng + ?Sized>(
    dist: &Multinomial,
    x: &[u64],
    samples: u32,
    rng: &mut R,
) -> Result<f64, StatsError> {
    if samples == 0 {
        return Err(StatsError::InvalidParameter {
            name: "samples",
            message: "must be positive".into(),
        });
    }
    let ln_px = dist.ln_pmf(x)?;
    let n: u64 = x.iter().sum();
    if n == 0 {
        return Err(StatsError::EmptyObservation);
    }
    // Impossible observation: exact answer is 0 regardless of sampling.
    if ln_px == f64::NEG_INFINITY {
        return Ok(0.0);
    }
    let threshold = ln_px + LN_TIE_TOLERANCE.max(ln_px.abs() * LN_TIE_TOLERANCE);
    let ln_n_fact = ln_factorial(n);
    let ln_probs = dist.ln_probs();

    // A sample touches at most `n` of the `k` categories: count draws in
    // `counts`, remember which categories went from 0 to 1 in `touched`,
    // and afterwards visit (and reset) only those.
    let mut hits: u64 = 0;
    let mut counts = vec![0u64; dist.num_categories()];
    let mut touched: Vec<usize> = Vec::new();
    for _ in 0..samples {
        for _ in 0..n {
            let i = dist.sample_category(rng);
            if counts[i] == 0 {
                touched.push(i);
            }
            counts[i] += 1;
        }
        hits += u64::from(is_hit(
            ln_n_fact,
            ln_probs,
            &mut counts,
            &mut touched,
            threshold,
        ));
    }
    Ok((1.0 + hits as f64) / (1.0 + f64::from(samples)))
}

/// Most touched categories [`is_hit`] decides a sample over without
/// sorting; its error bound needs `m · 2⁻⁵³ ≤ 2⁻²⁰`.
const MAX_ORDER_FREE_TERMS: usize = 1 << 32;

/// Whether `ln Pr(y) ≤ threshold` for the outcome `y` held in `counts`
/// (non-zero only at the `touched` categories, in first-touch order),
/// where `ln Pr(y)` is [`sparse_ln_pmf`]'s index-order sum. Resets
/// `counts` to zero and clears `touched`.
///
/// Sorting `touched` costs as much as evaluating the terms, and the
/// answer only needs it near a tie. So the terms are first summed in
/// touch order, and that sum decides when it clears the threshold by
/// more than the reordering error can span; otherwise the index-order
/// sum decides. The hit count — and the p-value — is bit-identical to
/// deciding every sample by the index-order sum.
///
/// # Why the order-free decision is exact
///
/// Write `u = 2⁻⁵³` and `γₘ = m·u / (1 − m·u)`. Both sums add the same
/// `m + 1` floats `xⱼ` — `ln N!` and one term
/// `tᵢ = yᵢ·ln πᵢ − ln yᵢ!` per touched category, each evaluated by the
/// same two rounded operations in either order — by recursive
/// summation, so each lies within `γₘ·M` of their exact sum, where
/// `M = Σ |xⱼ|` (Higham, *Accuracy and Stability of Numerical
/// Algorithms*, 2nd ed., §4.2). Hence the touch-order sum `a` and the
/// index-order sum `b` satisfy `|a − b| ≤ 2γₘ·M`. The code computes:
///
/// - `gap = fl(a − T)` for the threshold `T`: one rounding, so
///   `|a − T| ≥ |gap| / (1 + u)`, and `gap` has the sign of `a − T`;
/// - `M̂`, the recursive sum of the `|xⱼ|`, which by the same bound is at
///   least `(1 − γₘ)·M`;
/// - `slack = fl(c·M̂)` with `c = 4(m + 1)·u`, a power-of-two multiple
///   of an integer below 2⁵³ and so exact: `slack ≥ c·M̂·(1 − u)`.
///
/// If `|gap| > slack`, then
/// `|a − T| > c·(1 − γₘ)·(1 − u)/(1 + u)·M ≥ 2γₘ·M`: the last step holds
/// for `m·u ≤ 2⁻²⁰` (at most [`MAX_ORDER_FREE_TERMS`] terms), where the
/// left factor exceeds `3.99·(m + 1)·u` and `2γₘ` is below
/// `2.01·m·u`. So `b` lies strictly on the same side of `T` as `a`, and
/// `a < T` decides `b ≤ T`. The comparison `|gap| > slack` itself is
/// exact. When `M = 0` every term is zero and `a = b` exactly.
///
/// The relative rounding model holds throughout: a difference that lands
/// in the subnormal range is exact, and `c·M̂` cannot underflow, since
/// `M̂` is 0 or above 2⁻⁵⁴ — a non-zero `ln πᵢ` is at most
/// `ln(1 − 2⁻⁵³)`, `ln N!` is 0 or at least `ln 2`, and the two parts of
/// a term never cancel (`yᵢ·ln πᵢ ≤ 0 ≤ ln yᵢ!`).
fn is_hit(
    ln_n_fact: f64,
    ln_probs: &[f64],
    counts: &mut [u64],
    touched: &mut Vec<usize>,
    threshold: f64,
) -> bool {
    let mut sum = ln_n_fact;
    let mut magnitude = ln_n_fact.abs();
    for &i in touched.iter() {
        let y = counts[i];
        let term = y as f64 * ln_probs[i] - ln_factorial(y);
        sum += term;
        magnitude += term.abs();
    }
    let gap = sum - threshold;
    let m = touched.len();
    let slack = 4.0 * (m + 1) as f64 * (f64::EPSILON / 2.0) * magnitude;
    if m <= MAX_ORDER_FREE_TERMS && gap.abs() > slack {
        for &i in touched.iter() {
            counts[i] = 0;
        }
        touched.clear();
        return gap < 0.0;
    }
    sparse_ln_pmf(ln_n_fact, ln_probs, counts, touched) <= threshold
}

/// `ln Pr(y)` for the outcome `y` held in `counts`, which is non-zero only
/// at the `touched` categories; `ln_n_fact` is `ln N!`.
///
/// Summing over the touched categories in ascending index order adds the
/// same terms in the same order as [`Multinomial::ln_pmf`] on the dense
/// vector, which skips zero counts, so the result is bit-identical to it.
/// Resets `counts` to zero and clears `touched`.
fn sparse_ln_pmf(
    ln_n_fact: f64,
    ln_probs: &[f64],
    counts: &mut [u64],
    touched: &mut Vec<usize>,
) -> f64 {
    touched.sort_unstable();
    let mut ln_p = ln_n_fact;
    for &i in touched.iter() {
        let y = std::mem::take(&mut counts[i]);
        ln_p += y as f64 * ln_probs[i] - ln_factorial(y);
    }
    touched.clear();
    ln_p
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mult(weights: &[f64]) -> Multinomial {
        Multinomial::from_weights(weights).unwrap()
    }

    #[test]
    fn agrees_with_exact_on_binomial() {
        let d = mult(&[0.9, 0.1]);
        let mut rng = StdRng::seed_from_u64(11);
        // Exact Prs for x = (1, 2) is 0.028 (see exact.rs tests).
        let est = monte_carlo_significance(&d, &[1, 2], 200_000, &mut rng).unwrap();
        assert!((est - 0.028).abs() < 0.003, "est = {est}");
    }

    #[test]
    fn agrees_with_exact_on_trinomial() {
        let d = mult(&[1.0, 1.0, 1.0]);
        let mut rng = StdRng::seed_from_u64(5);
        // Exact Prs for x = (3,0,0) is 1/9 ≈ 0.1111.
        let est = monte_carlo_significance(&d, &[3, 0, 0], 200_000, &mut rng).unwrap();
        assert!((est - 1.0 / 9.0).abs() < 0.005, "est = {est}");
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let d = mult(&[0.4, 0.6]);
        let mut r1 = StdRng::seed_from_u64(99);
        let mut r2 = StdRng::seed_from_u64(99);
        let a = monte_carlo_significance(&d, &[3, 0], 10_000, &mut r1).unwrap();
        let b = monte_carlo_significance(&d, &[3, 0], 10_000, &mut r2).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn impossible_observation_short_circuits() {
        let d = mult(&[1.0, 0.0]);
        let mut rng = StdRng::seed_from_u64(1);
        let est = monte_carlo_significance(&d, &[0, 1], 10, &mut rng).unwrap();
        assert_eq!(est, 0.0);
    }

    #[test]
    fn never_returns_zero_from_sampling() {
        // Extremely unlikely (but possible) observation: estimator floor is
        // 1/(S+1), not 0.
        let d = mult(&[0.999, 0.001]);
        let mut rng = StdRng::seed_from_u64(2);
        let est = monte_carlo_significance(&d, &[0, 5], 1_000, &mut rng).unwrap();
        assert!(est > 0.0);
        assert!(est < 0.05);
    }

    #[test]
    fn sparse_ln_pmf_is_bit_identical_to_dense() {
        let weights: Vec<f64> = (0..560).map(|i| f64::from(i % 6 + i % 11)).collect();
        let d = mult(&weights);
        let mut rng = StdRng::seed_from_u64(8);
        let mut counts = vec![0u64; d.num_categories()];
        for n in [1, 2, 7, 48, 300] {
            for _ in 0..50 {
                let dense = d.sample(n, &mut rng);
                // Touched in descending order, as far from sorted as it gets.
                let mut touched: Vec<usize> =
                    (0..dense.len()).rev().filter(|&i| dense[i] > 0).collect();
                for &i in &touched {
                    counts[i] = dense[i];
                }
                let sparse =
                    sparse_ln_pmf(ln_factorial(n), d.ln_probs(), &mut counts, &mut touched);
                assert_eq!(
                    sparse.to_bits(),
                    d.ln_pmf(&dense).unwrap().to_bits(),
                    "n = {n}"
                );
                assert!(counts.iter().all(|&c| c == 0) && touched.is_empty());
            }
        }
    }

    /// Runs [`is_hit`] on hand-built terms `ln_probs[i]` (every count 1,
    /// so each term is `ln πᵢ` exactly, and `ln N!` is 0).
    fn hit_of(ln_probs: &[f64], touched: &[usize], threshold: f64) -> bool {
        let mut counts = vec![0u64; ln_probs.len()];
        let mut order = touched.to_vec();
        for &i in &order {
            counts[i] = 1;
        }
        let hit = is_hit(0.0, ln_probs, &mut counts, &mut order, threshold);
        assert!(counts.iter().all(|&c| c == 0) && order.is_empty());
        hit
    }

    /// Terms whose touch-order and index-order sums fall on opposite
    /// sides of the threshold: the decision must be the index order's.
    /// `1e16 + 1` rounds back to `1e16`, so the sum is 1 when the `1.0`
    /// is added after the large terms cancel and 0 when it is added
    /// between them.
    #[test]
    fn near_tie_falls_back_to_the_index_order_sum() {
        // Index order 1e16, 1, −1e16 sums to 0: a hit at 0.5. Touch
        // order 1e16, −1e16, 1 sums to 1, which alone would say no.
        let cancel_last = [1e16, 1.0, -1e16];
        assert_eq!((1e16 + 1.0) - 1e16, 0.0);
        assert!(hit_of(&cancel_last, &[0, 2, 1], 0.5));
        // Index order 1e16, −1e16, 1 sums to 1: no hit at 0.5. Touch
        // order 1e16, 1, −1e16 sums to 0, which alone would say hit.
        let cancel_first = [1e16, -1e16, 1.0];
        assert!(!hit_of(&cancel_first, &[0, 2, 1], 0.5));
        // Far from the threshold the touch order decides alone, and
        // agrees.
        assert!(hit_of(&cancel_last, &[0, 2, 1], 1e3));
        assert!(!hit_of(&cancel_first, &[0, 2, 1], -1e3));
    }

    /// The order-free decision equals the index-order comparison on
    /// sampled outcomes at thresholds on, next to and away from each
    /// outcome's own `ln Pr(y)`.
    #[test]
    fn is_hit_matches_the_index_order_comparison() {
        let weights: Vec<f64> = (0..300).map(|i| f64::from(i % 7 + 1)).collect();
        let d = mult(&weights);
        let mut rng = StdRng::seed_from_u64(4);
        let mut counts = vec![0u64; d.num_categories()];
        for n in [1u64, 3, 7, 20, 48] {
            for _ in 0..200 {
                let dense = d.sample(n, &mut rng);
                let ln_p = d.ln_pmf(&dense).unwrap();
                let ulp = ln_p.abs() * f64::EPSILON;
                for threshold in [
                    ln_p,
                    ln_p.next_up(),
                    ln_p.next_down(),
                    ln_p + 64.0 * ulp,
                    ln_p - 64.0 * ulp,
                    ln_p + 1.0,
                    ln_p - 1.0,
                ] {
                    let mut touched: Vec<usize> =
                        (0..dense.len()).rev().filter(|&i| dense[i] > 0).collect();
                    for &i in &touched {
                        counts[i] = dense[i];
                    }
                    let got = is_hit(
                        ln_factorial(n),
                        d.ln_probs(),
                        &mut counts,
                        &mut touched,
                        threshold,
                    );
                    assert_eq!(got, ln_p <= threshold, "n = {n}, threshold = {threshold}");
                    assert!(counts.iter().all(|&c| c == 0) && touched.is_empty());
                }
            }
        }
    }

    #[test]
    fn zero_samples_rejected() {
        let d = mult(&[0.5, 0.5]);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(matches!(
            monte_carlo_significance(&d, &[1, 0], 0, &mut rng),
            Err(StatsError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn empty_observation_rejected() {
        let d = mult(&[0.5, 0.5]);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(matches!(
            monte_carlo_significance(&d, &[0, 0], 10, &mut rng),
            Err(StatsError::EmptyObservation)
        ));
    }

    #[test]
    fn typical_observation_close_to_one() {
        let d = mult(&[0.5, 0.5]);
        let mut rng = StdRng::seed_from_u64(17);
        let est = monte_carlo_significance(&d, &[1, 1], 50_000, &mut rng).unwrap();
        assert!(est > 0.95, "est = {est}");
    }

    #[test]
    fn estimate_within_unit_interval() {
        let d = mult(&[0.3, 0.3, 0.4]);
        let mut rng = StdRng::seed_from_u64(23);
        for x in [[6, 0, 0], [2, 2, 2], [0, 0, 6]] {
            let est = monte_carlo_significance(&d, &x, 5_000, &mut rng).unwrap();
            assert!((0.0..=1.0).contains(&est), "x={x:?} est={est}");
        }
    }
}
