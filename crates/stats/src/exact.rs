//! Exact multinomial test by full enumeration of the outcome space.
//!
//! The significance probability of an observation `x` under `Mult(N, π)` is
//!
//! ```text
//! Prs(X = x) = Σ_{y : Pr(X = y) ≤ Pr(X = x)} Pr(X = y)
//! ```
//!
//! (§3.2). The outcome space of a multinomial with `k` categories and `N`
//! trials has `C(N + k − 1, k − 1)` points; the enumeration below walks it
//! depth-first, carrying the partial log-probability. Categories that take
//! no trials cost nothing, so the walk does O(1) work per outcome (one
//! `exp`) and recurses at most `N` deep. [`crate::test`] only dispatches
//! here when the space is small enough (queries hold ≤ 10 nodes, so `N`
//! is tiny; `k` is what blows up), otherwise it falls back to
//! [`crate::monte_carlo`].

use crate::error::StatsError;
use crate::multinomial::Multinomial;
use crate::special::ln_factorial;

/// Relative log-space tolerance when comparing outcome probabilities.
///
/// Enumerated outcomes whose probability is *equal* to the observation's
/// must be included in the significance sum; floating-point noise in the
/// log-space accumulation would otherwise make tie inclusion arbitrary.
const LN_TIE_TOLERANCE: f64 = 1e-9;

/// Computes the exact significance probability `Prs(X = x)`.
///
/// `dist` is the context distribution `π`; `x` the query observation. The
/// number of trials is `N = Σ xᵢ`.
///
/// # Errors
///
/// - [`StatsError::LengthMismatch`] if `x` and `π` differ in length;
/// - [`StatsError::EmptyObservation`] if `N = 0` (no query node exhibits
///   the characteristic and no `None` bucket was provided upstream).
pub fn exact_significance(dist: &Multinomial, x: &[u64]) -> Result<f64, StatsError> {
    let ln_px = dist.ln_pmf(x)?; // validates length
    let n: u64 = x.iter().sum();
    if n == 0 {
        return Err(StatsError::EmptyObservation);
    }
    // If the observation is impossible under π, every outcome counted by
    // the sum also has probability ≤ 0, and all of those carry zero mass:
    // Prs = 0, i.e. maximal significance.
    if ln_px == f64::NEG_INFINITY {
        return Ok(0.0);
    }

    // Enumerate only over the support of π: categories with πᵢ = 0 can
    // never receive trials in an outcome with positive probability.
    let ln_probs: Vec<f64> = dist
        .ln_probs()
        .iter()
        .copied()
        .filter(|&ln_p| ln_p > f64::NEG_INFINITY)
        .collect();

    let threshold = ln_px + LN_TIE_TOLERANCE.max(ln_px.abs() * LN_TIE_TOLERANCE);
    let ln_n_fact = ln_factorial(n);

    // Depth-first walk over compositions of n into |support| parts.
    // `partial` carries Σ (yᵢ ln πᵢ − ln yᵢ!) for the prefix.
    let mut total = 0.0f64;
    enumerate(&ln_probs, 0, n, ln_n_fact, threshold, &mut total);
    Ok(total.min(1.0))
}

/// Recursive composition enumeration, in the order of the plain recursion
/// that gives each category in turn 0, 1, …, `remaining` trials.
///
/// `remaining ≥ 1` trials are distributed over `ln_probs[idx..]`;
/// `partial` is the log-probability accumulated for categories before
/// `idx` (including the `ln N!` term).
///
/// A category that takes no trials adds `0·ln πᵢ − ln 0! = −0.0`, which
/// leaves `partial` unchanged up to the sign of a zero, and neither `<=`
/// nor `exp` sees that sign. So the plain recursion's 0-trial branch at
/// `idx` is the same subproblem at `idx + 1`. Unrolling that chain gives
/// the order below: first the last category takes every trial, then each
/// category `j`, latest first, takes `y = 1, …, remaining` trials with the
/// categories between `idx` and `j` empty. An outcome with every trial
/// placed is counted without a further call. Every call places a trial
/// and counts an outcome, so the walk is O(outcomes) and `N` deep, and
/// `total` receives the same terms in the same order as the plain
/// recursion (pinned by `tests/kernel_parity.rs`).
fn enumerate(
    ln_probs: &[f64],
    idx: usize,
    remaining: u64,
    partial: f64,
    threshold: f64,
    total: &mut f64,
) {
    let last = ln_probs.len() - 1;
    // Categories idx..last all take 0 trials; the last takes the rest.
    count(
        partial + remaining as f64 * ln_probs[last] - ln_factorial(remaining),
        threshold,
        total,
    );
    // Then, latest first, each category j takes y ≥ 1 trials and every
    // category between idx and j takes 0.
    for j in (idx..last).rev() {
        for y in 1..remaining {
            let contrib = y as f64 * ln_probs[j] - ln_factorial(y);
            enumerate(
                ln_probs,
                j + 1,
                remaining - y,
                partial + contrib,
                threshold,
                total,
            );
        }
        let contrib = remaining as f64 * ln_probs[j] - ln_factorial(remaining);
        count(partial + contrib, threshold, total);
    }
}

/// Adds one outcome's probability when it is no likelier than the
/// observation.
#[inline]
fn count(ln_p: f64, threshold: f64, total: &mut f64) {
    if ln_p <= threshold {
        *total += ln_p.exp();
    }
}

/// Upper bound on outcome-space size for which the exact test is practical.
///
/// `N ≤ 10` and small supports enumerate in microseconds; the default caps
/// the enumeration at one million outcomes. At about 10 ns per outcome,
/// mostly its `exp`, the 720,600 outcomes of `N = 2` over 1,200 categories
/// take about 7 ms on a 2-core Xeon VM (`exact_n2_k1200` in
/// `BENCH_multinomial.json`).
pub const DEFAULT_MAX_OUTCOMES: u64 = 1_000_000;

#[cfg(test)]
mod tests {
    use super::*;

    fn mult(weights: &[f64]) -> Multinomial {
        Multinomial::from_weights(weights).unwrap()
    }

    #[test]
    fn binomial_two_sided_matches_hand_computation() {
        // Mult(2, [0.5, 0.5]): outcomes (2,0),(1,1),(0,2) with probs
        // 1/4, 1/2, 1/4. For x=(2,0): Prs = P{y : P(y) ≤ 1/4} = 1/4+1/4 = 1/2.
        let d = mult(&[0.5, 0.5]);
        let prs = exact_significance(&d, &[2, 0]).unwrap();
        assert!((prs - 0.5).abs() < 1e-12, "prs = {prs}");
        // For x=(1,1): every outcome has prob ≤ 1/2 ⇒ Prs = 1.
        let prs = exact_significance(&d, &[1, 1]).unwrap();
        assert!((prs - 1.0).abs() < 1e-12, "prs = {prs}");
    }

    #[test]
    fn skewed_binomial() {
        // Mult(3, [0.9, 0.1]), x = (0, 3): P(x) = 0.001.
        // Outcomes: (3,0)=0.729, (2,1)=0.243, (1,2)=0.027, (0,3)=0.001.
        // Prs = 0.001.
        let d = mult(&[0.9, 0.1]);
        let prs = exact_significance(&d, &[0, 3]).unwrap();
        assert!((prs - 0.001).abs() < 1e-12, "prs = {prs}");
        // x = (1, 2): Prs = 0.027 + 0.001 = 0.028.
        let prs = exact_significance(&d, &[1, 2]).unwrap();
        assert!((prs - 0.028).abs() < 1e-12, "prs = {prs}");
    }

    #[test]
    fn uniform_trinomial_includes_ties() {
        // Mult(3, uniform over 3 categories). Outcome probabilities:
        // permutations of (3,0,0): 1/27 each (3 outcomes);
        // permutations of (2,1,0): 6/27 each — wait, 3!/2! = 3 ⇒ 3 * (1/27) = 1/9...
        // P(2,1,0) = 3!/(2!1!0!) (1/3)^3 = 3/27; six such outcomes;
        // P(1,1,1) = 6/27.
        // For x = (3,0,0): Prs = 3 * 1/27 = 1/9 (ties across permutations).
        let d = mult(&[1.0, 1.0, 1.0]);
        let prs = exact_significance(&d, &[3, 0, 0]).unwrap();
        assert!((prs - 3.0 / 27.0).abs() < 1e-9, "prs = {prs}");
        // For x = (2,1,0): Prs = 6 * 3/27 + 3 * 1/27 = 21/27.
        let prs = exact_significance(&d, &[2, 1, 0]).unwrap();
        assert!((prs - 21.0 / 27.0).abs() < 1e-9, "prs = {prs}");
        // For x = (1,1,1): Prs = 1.
        let prs = exact_significance(&d, &[1, 1, 1]).unwrap();
        assert!((prs - 1.0).abs() < 1e-9, "prs = {prs}");
    }

    #[test]
    fn impossible_observation_is_maximally_significant() {
        let d = mult(&[1.0, 0.0]);
        let prs = exact_significance(&d, &[0, 2]).unwrap();
        assert_eq!(prs, 0.0);
    }

    #[test]
    fn zero_probability_categories_are_skipped_not_broken() {
        // π = (0.5, 0, 0.5); x puts mass only on the support.
        let d = mult(&[0.5, 0.0, 0.5]);
        let prs = exact_significance(&d, &[2, 0, 0]).unwrap();
        // Equivalent to binomial case above.
        assert!((prs - 0.5).abs() < 1e-12, "prs = {prs}");
    }

    #[test]
    fn empty_observation_rejected() {
        let d = mult(&[0.5, 0.5]);
        assert!(matches!(
            exact_significance(&d, &[0, 0]),
            Err(StatsError::EmptyObservation)
        ));
    }

    #[test]
    fn single_category_always_prs_one() {
        let d = mult(&[1.0]);
        let prs = exact_significance(&d, &[5]).unwrap();
        assert!((prs - 1.0).abs() < 1e-12);
    }

    #[test]
    fn significance_sums_to_at_most_one() {
        let d = mult(&[0.2, 0.3, 0.5]);
        for x in [[4, 0, 0], [0, 4, 0], [0, 0, 4], [2, 1, 1], [1, 2, 1]] {
            let prs = exact_significance(&d, &x).unwrap();
            assert!((0.0..=1.0).contains(&prs), "x={x:?} prs={prs}");
        }
    }

    #[test]
    fn likely_observation_not_significant() {
        // Observation proportional to π should have high Prs.
        let d = mult(&[0.5, 0.3, 0.2]);
        let prs = exact_significance(&d, &[5, 3, 2]).unwrap();
        assert!(prs > 0.5, "prs = {prs}");
    }
}
