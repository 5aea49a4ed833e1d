//! Bit-for-bit parity of the multinomial test kernels with the simple
//! kernels they replaced.
//!
//! The oracles below are the straightforward forms of §3.2's test, kept
//! verbatim as the reference: the exact test recurses through every
//! category of every outcome, and the Monte-Carlo test draws each dense
//! outcome vector by binary search over the cdf and evaluates the full
//! pmf, recomputing `ln πᵢ`. The shipped kernels must return the same
//! `f64` bits.
//!
//! One difference is sanctioned: the oracle sampler can draw a category
//! with `πᵢ = 0` (a draw of exactly `u = 0`, or `u` above a cdf that sums
//! 2+ ulps short of 1), which the shipped sampler never does. Such a draw
//! has a probability of a few times 2⁻⁵³ and none occurs in these inputs;
//! the sampler's unit tests pin those draws with fixed bits.

#![forbid(unsafe_code)]

use nck_stats::exact::exact_significance;
use nck_stats::monte_carlo::monte_carlo_significance;
use nck_stats::multinomial::Multinomial;
use nck_stats::special::{composition_count, ln_factorial};
use nck_stats::test::DEFAULT_SEED;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

/// Tie tolerance of both kernels.
const LN_TIE_TOLERANCE: f64 = 1e-9;

fn oracle_ln_pmf(probs: &[f64], x: &[u64]) -> f64 {
    let n: u64 = x.iter().sum();
    let mut ln_p = ln_factorial(n);
    for (&xi, &pi) in x.iter().zip(probs) {
        if xi == 0 {
            continue;
        }
        if pi == 0.0 {
            return f64::NEG_INFINITY;
        }
        ln_p += xi as f64 * pi.ln() - ln_factorial(xi);
    }
    ln_p
}

fn oracle_threshold(ln_px: f64) -> f64 {
    ln_px + LN_TIE_TOLERANCE.max(ln_px.abs() * LN_TIE_TOLERANCE)
}

/// Exact significance by recursion through every category, one call per
/// category even after the trials run out.
fn oracle_exact(dist: &Multinomial, x: &[u64]) -> f64 {
    let probs = dist.probs();
    let ln_px = oracle_ln_pmf(probs, x);
    if ln_px == f64::NEG_INFINITY {
        return 0.0;
    }
    let n: u64 = x.iter().sum();
    let ln_probs: Vec<f64> = probs.iter().filter(|&&p| p > 0.0).map(|p| p.ln()).collect();
    let mut total = 0.0;
    oracle_enumerate(
        &ln_probs,
        0,
        n,
        ln_factorial(n),
        oracle_threshold(ln_px),
        &mut total,
    );
    total.min(1.0)
}

fn oracle_enumerate(
    ln_probs: &[f64],
    idx: usize,
    remaining: u64,
    partial: f64,
    threshold: f64,
    total: &mut f64,
) {
    if idx + 1 == ln_probs.len() {
        let y = remaining;
        let ln_p = partial + y as f64 * ln_probs[idx] - ln_factorial(y);
        if ln_p <= threshold {
            *total += ln_p.exp();
        }
        return;
    }
    for y in 0..=remaining {
        let contrib = y as f64 * ln_probs[idx] - ln_factorial(y);
        oracle_enumerate(
            ln_probs,
            idx + 1,
            remaining - y,
            partial + contrib,
            threshold,
            total,
        );
    }
}

/// Monte-Carlo significance from dense outcome vectors: binary search
/// over a cdf whose last entry is forced to 1, then the full pmf.
fn oracle_monte_carlo(dist: &Multinomial, x: &[u64], samples: u32, seed: u64) -> f64 {
    let probs = dist.probs();
    let ln_px = oracle_ln_pmf(probs, x);
    if ln_px == f64::NEG_INFINITY {
        return 0.0;
    }
    let threshold = oracle_threshold(ln_px);
    let n: u64 = x.iter().sum();
    let mut cdf: Vec<f64> = probs
        .iter()
        .scan(0.0, |acc, &p| {
            *acc += p;
            Some(*acc)
        })
        .collect();
    *cdf.last_mut().expect("non-empty distribution") = 1.0;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut hits = 0u64;
    let mut buf = vec![0u64; probs.len()];
    for _ in 0..samples {
        buf.fill(0);
        for _ in 0..n {
            let u: f64 = rng.random();
            let idx = cdf.partition_point(|&c| c < u).min(probs.len() - 1);
            buf[idx] += 1;
        }
        if oracle_ln_pmf(probs, &buf) <= threshold {
            hits += 1;
        }
    }
    (1.0 + hits as f64) / (1.0 + f64::from(samples))
}

fn shipped_monte_carlo(dist: &Multinomial, x: &[u64], samples: u32, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    monte_carlo_significance(dist, x, samples, &mut rng).unwrap()
}

/// Strategy: context counts over 1..=30 categories, about a third of them
/// zero (index 0 included), at least one positive; and an observation of
/// 1..=6 trials, most of them on categories with mass.
fn case() -> impl Strategy<Value = (Vec<u64>, Vec<u64>)> {
    (1usize..=30)
        .prop_flat_map(|k| {
            (
                prop::collection::vec((0u64..=12).prop_map(|c| c.saturating_sub(4)), k),
                prop::collection::vec(0usize..64, 1..=6),
            )
        })
        .prop_filter("some context mass", |(counts, _)| {
            counts.iter().any(|&c| c > 0)
        })
        .prop_map(|(counts, trials)| {
            let support: Vec<usize> = (0..counts.len()).filter(|&i| counts[i] > 0).collect();
            let mut x = vec![0u64; counts.len()];
            for t in trials {
                // One trial in eight may land anywhere, zero mass included.
                let i = if t < 8 {
                    t % counts.len()
                } else {
                    support[t % support.len()]
                };
                x[i] += 1;
            }
            (counts, x)
        })
}

/// Outcome-space size over the support, for keeping the oracle cheap.
fn outcomes(counts: &[u64], x: &[u64]) -> Option<u64> {
    let support = counts.iter().filter(|&&c| c > 0).count() as u64;
    composition_count(x.iter().sum(), support)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn exact_matches_recursive_oracle_bit_for_bit((counts, x) in case()) {
        // The oracle makes about one call per category per outcome.
        if outcomes(&counts, &x).is_some_and(|o| o <= 200_000) {
            let dist = Multinomial::from_counts(&counts).unwrap();
            let got = exact_significance(&dist, &x).unwrap();
            let want = oracle_exact(&dist, &x);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "counts {:?} x {:?}", counts, x);
        }
    }

    #[test]
    fn monte_carlo_matches_dense_oracle_bit_for_bit(
        (counts, x) in case(),
        samples in 1u32..=600,
        seed in 0u64..u64::MAX,
    ) {
        let dist = Multinomial::from_counts(&counts).unwrap();
        let got = shipped_monte_carlo(&dist, &x, samples, seed);
        let want = oracle_monte_carlo(&dist, &x, samples, seed);
        prop_assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "counts {:?} x {:?} samples {} seed {}",
            counts,
            x,
            samples,
            seed
        );
    }
}

/// A label's value histogram over `k` values: a
/// zero-mass `None` bucket at index 0, then counts between 1 and 6.
fn corpus_counts(k: usize) -> Vec<u64> {
    (0..k as u64)
        .map(|i| {
            if i == 0 {
                0
            } else {
                1 + (i * i * 7 + 3 * i) % 41 / 8
            }
        })
        .collect()
}

#[test]
fn exact_matches_oracle_at_corpus_scale() {
    // Two query observations over a ~300-value label: ~45k outcomes.
    let counts = corpus_counts(300);
    let dist = Multinomial::from_counts(&counts).unwrap();
    for (a, b) in [(1, 2), (17, 17), (5, 299), (40, 41)] {
        let mut x = vec![0u64; counts.len()];
        x[a] += 1;
        x[b] += 1;
        let got = exact_significance(&dist, &x).unwrap();
        let want = oracle_exact(&dist, &x);
        assert_eq!(got.to_bits(), want.to_bits(), "x at {a}, {b}");
        assert!(got > 0.0 && got < 1.0, "x at {a}, {b}: significance {got}");
    }
}

#[test]
fn monte_carlo_matches_oracle_at_corpus_scale() {
    // 48 trials over a ~560-value label at the pipeline's 20,000 samples
    // and seed; the observation is a draw from the context itself, so
    // the significance lands mid-range.
    let counts = corpus_counts(560);
    let dist = Multinomial::from_counts(&counts).unwrap();
    let x = dist.sample(48, &mut StdRng::seed_from_u64(48));
    let got = shipped_monte_carlo(&dist, &x, 20_000, DEFAULT_SEED);
    let want = oracle_monte_carlo(&dist, &x, 20_000, DEFAULT_SEED);
    assert_eq!(got.to_bits(), want.to_bits());
    assert!(got > 0.05 && got < 0.95, "significance {got}");
}
