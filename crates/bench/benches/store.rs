//! N-Triples loader micro-bench: bulk load into the SPO-ordered store.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nck_store::TripleStore;

fn build_store(n: usize) -> TripleStore {
    let mut s = TripleStore::new();
    for i in 0..n {
        let subject = format!("s{}", i % (n / 10).max(1));
        let predicate = format!("p{}", i % 12);
        let object = format!("o{}", i % 97);
        s.insert_iris(&subject, &predicate, &object);
    }
    s
}

fn bench_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("triple_store");
    for n in [10_000usize, 50_000] {
        group.bench_with_input(BenchmarkId::new("bulk_load", n), &n, |b, &n| {
            b.iter(|| build_store(n))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_store);
criterion_main!(benches);
