//! Multinomial-test micro-benches: exact enumeration vs Monte-Carlo, where
//! the crossover sits, and the profiling corpus's two costliest shapes.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nck_stats::exact::exact_significance;
use nck_stats::monte_carlo::monte_carlo_significance;
use nck_stats::multinomial::Multinomial;
use nck_stats::{MultinomialTest, TestMethod};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_exact_vs_mc(c: &mut Criterion) {
    let mut group = c.benchmark_group("multinomial_test");
    // Exact: N = 5 observations over k categories.
    for k in [3usize, 6, 9, 12] {
        let weights: Vec<f64> = (1..=k).map(|i| i as f64).collect();
        let dist = Multinomial::from_weights(&weights).unwrap();
        let mut x = vec![0u64; k];
        x[0] = 3;
        x[k - 1] = 2;
        group.bench_with_input(BenchmarkId::new("exact_k", k), &k, |b, _| {
            b.iter(|| exact_significance(&dist, &x).unwrap())
        });
    }
    // Monte-Carlo: fixed samples, growing support.
    for k in [50usize, 200, 800] {
        let weights: Vec<f64> = (1..=k).map(|i| (i % 7 + 1) as f64).collect();
        let dist = Multinomial::from_weights(&weights).unwrap();
        let mut x = vec![0u64; k];
        x[0] = 5;
        group.bench_with_input(BenchmarkId::new("monte_carlo_k", k), &k, |b, _| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(7);
                monte_carlo_significance(&dist, &x, 10_000, &mut rng).unwrap()
            })
        });
    }
    group.finish();
}

/// A label's value histogram over `k` categories: the zero-mass `None`
/// bucket at index 0, then counts between 1 and 6.
fn label_counts(k: u64) -> Vec<u64> {
    (0..k)
        .map(|i| {
            if i == 0 {
                0
            } else {
                1 + (i * i * 7 + 3 * i) % 41 / 8
            }
        })
        .collect()
}

/// The two costliest test shapes of the profiling corpus, at the
/// pipeline's defaults: two query observations over a ~1,200-value label
/// (the exact branch, ~720k outcomes), and 48 observations over a
/// ~560-value label (Monte-Carlo, 20,000 samples, the default seed).
fn bench_corpus_shapes(c: &mut Criterion) {
    let mut group = c.benchmark_group("multinomial_test");
    let counts = label_counts(1_200);
    let mut x = vec![0u64; counts.len()];
    x[3] = 1;
    x[1_000] = 1;
    let test = MultinomialTest::new().with_samples(20_000);
    assert_eq!(
        test.test_counts(&counts, &x).unwrap().method,
        TestMethod::Exact
    );
    group.bench_function("exact_n2_k1200", |b| {
        b.iter(|| test.test_counts(&counts, &x).unwrap())
    });
    let counts = label_counts(560);
    let dist = Multinomial::from_counts(&counts).unwrap();
    let x = dist.sample(48, &mut StdRng::seed_from_u64(48));
    assert_eq!(
        test.test_counts(&counts, &x).unwrap().method,
        TestMethod::MonteCarlo
    );
    group.bench_function("monte_carlo_n48_k560", |b| {
        b.iter(|| test.test_counts(&counts, &x).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_exact_vs_mc, bench_corpus_shapes);
criterion_main!(benches);
