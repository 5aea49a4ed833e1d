//! Property-based tests for the statistics substrate.

#![forbid(unsafe_code)]

use nck_stats::divergence::{js_divergence, kl_divergence_smoothed, normalize, total_variation};
use nck_stats::emd::{emd_1d, emd_unit};
use nck_stats::exact::exact_significance;
use nck_stats::monte_carlo::monte_carlo_significance;
use nck_stats::multinomial::Multinomial;
use nck_stats::ranking::{kendall_tau_distance, min_swaps, spearman_footrule};
use nck_stats::special::{composition_count, ln_factorial, ln_gamma};
use nck_stats::{f1_score, MultinomialTest};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a small positive-weight vector usable as a distribution.
fn weights(max_k: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.01f64..10.0, 1..=max_k)
}

/// Strategy: a small observation over `k` categories with at least 1 trial.
fn observation(k: usize, max_n: u64) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..=max_n, k).prop_filter("nonzero", |v| v.iter().sum::<u64>() > 0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ln_gamma_satisfies_recurrence(x in 0.5f64..50.0) {
        // Γ(x+1) = x Γ(x) ⇒ lnΓ(x+1) = ln x + lnΓ(x).
        let lhs = ln_gamma(x + 1.0);
        let rhs = x.ln() + ln_gamma(x);
        prop_assert!((lhs - rhs).abs() < 1e-9 * lhs.abs().max(1.0));
    }

    #[test]
    fn ln_factorial_monotone(n in 0u64..1000) {
        prop_assert!(ln_factorial(n + 1) >= ln_factorial(n));
    }

    #[test]
    fn composition_count_recurrence(n in 0u64..30, k in 1u64..8) {
        // C(n, k) = C(n-1, k) + C(n, k-1) for the compositions count.
        if n > 0 && k > 1 {
            let a = composition_count(n, k).unwrap();
            let b = composition_count(n - 1, k).unwrap();
            let c = composition_count(n, k - 1).unwrap();
            prop_assert_eq!(a, b + c);
        }
    }

    #[test]
    fn multinomial_probs_sum_to_one(w in weights(12)) {
        let m = Multinomial::from_weights(&w).unwrap();
        let s: f64 = m.probs().iter().sum();
        prop_assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pmf_never_exceeds_one(w in weights(5), x in observation(5, 4)) {
        let mut w = w;
        w.resize(5, 0.5);
        let m = Multinomial::from_weights(&w).unwrap();
        let p = m.pmf(&x).unwrap();
        prop_assert!((0.0..=1.0 + 1e-9).contains(&p));
    }

    #[test]
    fn exact_significance_in_unit_interval(w in weights(4), x in observation(4, 3)) {
        let mut w = w;
        w.resize(4, 0.25);
        let m = Multinomial::from_weights(&w).unwrap();
        let prs = exact_significance(&m, &x).unwrap();
        prop_assert!((0.0..=1.0).contains(&prs), "prs = {}", prs);
    }

    #[test]
    fn exact_significance_includes_own_probability(w in weights(4), x in observation(4, 3)) {
        // Prs(x) ≥ Pr(x) because x itself is always counted.
        let mut w = w;
        w.resize(4, 0.25);
        let m = Multinomial::from_weights(&w).unwrap();
        let prs = exact_significance(&m, &x).unwrap();
        let px = m.pmf(&x).unwrap();
        prop_assert!(prs + 1e-9 >= px, "prs = {}, px = {}", prs, px);
    }

    #[test]
    fn monte_carlo_tracks_exact(seed in 0u64..500) {
        let m = Multinomial::from_weights(&[0.5, 0.3, 0.2]).unwrap();
        let x = [2u64, 0, 1];
        let exact = exact_significance(&m, &x).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let est = monte_carlo_significance(&m, &x, 20_000, &mut rng).unwrap();
        prop_assert!((est - exact).abs() < 0.02, "exact {} est {}", exact, est);
    }

    #[test]
    fn test_outcome_score_consistency(ctx in prop::collection::vec(1u64..50, 2..5),
                                      x in observation(4, 3)) {
        let mut x = x;
        x.truncate(ctx.len());
        if x.iter().sum::<u64>() == 0 { x[0] = 1; }
        let t = MultinomialTest::new();
        let out = t.test_counts(&ctx, &x).unwrap();
        prop_assert!((0.0..=1.0).contains(&out.significance));
        if out.notable {
            prop_assert!((out.score - (1.0 - out.significance)).abs() < 1e-12);
            prop_assert!(out.significance <= 0.05);
        } else {
            prop_assert_eq!(out.score, 0.0);
        }
    }

    #[test]
    fn kl_smoothed_nonnegative(p in weights(6)) {
        let q: Vec<f64> = p.iter().rev().cloned().collect();
        let pn = normalize(&p).unwrap();
        let qn = normalize(&q).unwrap();
        let d = kl_divergence_smoothed(&pn, &qn, 1e-6).unwrap();
        prop_assert!(d >= -1e-12);
    }

    #[test]
    fn js_symmetric_and_bounded(p in weights(6)) {
        let q: Vec<f64> = p.iter().map(|x| x * 2.0 + 0.1).collect();
        let pn = normalize(&p).unwrap();
        let qn = normalize(&q).unwrap();
        let a = js_divergence(&pn, &qn).unwrap();
        let b = js_divergence(&qn, &pn).unwrap();
        prop_assert!((a - b).abs() < 1e-12);
        prop_assert!((0.0..=std::f64::consts::LN_2 + 1e-9).contains(&a));
    }

    #[test]
    fn emd_unit_equals_tv(p in weights(6)) {
        let q: Vec<f64> = p.iter().rev().cloned().collect();
        let pn = normalize(&p).unwrap();
        let qn = normalize(&q).unwrap();
        let a = emd_unit(&pn, &qn).unwrap();
        let b = total_variation(&pn, &qn).unwrap();
        prop_assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn emd_1d_at_least_unit_emd(p in weights(6)) {
        // Moving mass at least one step costs at least the unit distance.
        let q: Vec<f64> = p.iter().rev().cloned().collect();
        let pn = normalize(&p).unwrap();
        let qn = normalize(&q).unwrap();
        prop_assert!(emd_1d(&pn, &qn).unwrap() + 1e-12 >= emd_unit(&pn, &qn).unwrap());
    }

    #[test]
    fn min_swaps_symmetric(perm in Just(()).prop_flat_map(|_| {
        prop::collection::vec(0usize..100, 2..10).prop_map(|v| {
            let mut items: Vec<usize> = v;
            items.sort_unstable();
            items.dedup();
            items
        })
    }), seed in 0u64..1000) {
        use rand::seq::SliceRandom;
        if perm.len() >= 2 {
            let mut shuffled = perm.clone();
            let mut rng = StdRng::seed_from_u64(seed);
            shuffled.shuffle(&mut rng);
            let a = min_swaps(&perm, &shuffled).unwrap();
            let b = min_swaps(&shuffled, &perm).unwrap();
            prop_assert_eq!(a, b);
            // Diaconis–Graham inequality: K ≤ F ≤ 2K.
            let f = spearman_footrule(&perm, &shuffled).unwrap();
            prop_assert!(a <= f && f <= 2 * a);
            let tau = kendall_tau_distance(&perm, &shuffled).unwrap();
            prop_assert!((0.0..=1.0).contains(&tau));
        }
    }

    #[test]
    fn f1_bounded_by_min_component(p in 0.0f64..=1.0, r in 0.0f64..=1.0) {
        let f1 = f1_score(p, r);
        prop_assert!(f1 <= p.max(r) + 1e-12);
        prop_assert!(f1 >= 0.0);
        // F1 ≤ 2·min/(1) bound and ≤ max.
        prop_assert!(f1 <= 2.0 * p.min(r).max(0.0) + 1e-12);
    }
}
