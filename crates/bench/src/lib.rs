//! # nck-bench — shared fixtures for the Criterion benchmarks
//!
//! The benches regenerate the paper's timing figures (5 and 6) with
//! statistical rigor and micro-benchmark every hot path (PPR iterations,
//! PathMining walks, metapath matching, multinomial tests, distribution
//! building, N-Triples bulk loading). Run with `cargo bench -p nck-bench`.

#![forbid(unsafe_code)]

use nck_datagen::{generate, Dataset, GeneratorConfig};
use std::sync::OnceLock;

/// The shared benchmark dataset (quarter-scale YAGO-like; generated once).
pub fn bench_dataset() -> &'static Dataset {
    static DATASET: OnceLock<Dataset> = OnceLock::new();
    DATASET.get_or_init(|| generate(&GeneratorConfig::yago_like(42).scaled(0.25)))
}

/// A small dataset for the end-to-end bench.
pub fn small_dataset() -> &'static Dataset {
    static DATASET: OnceLock<Dataset> = OnceLock::new();
    DATASET.get_or_init(|| generate(&GeneratorConfig::tiny(42)))
}

/// Standard mining walk budget for benches.
pub const BENCH_WALKS: usize = 30_000;
