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
        if sparse_ln_pmf(ln_n_fact, ln_probs, &mut counts, &mut touched) <= threshold {
            hits += 1;
        }
    }
    Ok((1.0 + hits as f64) / (1.0 + f64::from(samples)))
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
