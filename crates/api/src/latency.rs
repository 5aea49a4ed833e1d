//! Merged-sample latency summaries.
//!
//! Every latency report in the workspace — the closed- and open-loop
//! socket load generators of `benches/serve.rs` alike — reduces
//! per-request wall times to percentiles through this one helper, and
//! the helper's contract is the point:
//! percentiles are computed over the **merged** sample set of every
//! client, never per-client-then-averaged. Averaging per-client
//! percentiles is a classic benchmarking bug — each client's p99 is the
//! tail *of that client only*, and the mean of those values can sit far
//! below the true aggregate tail when clients have unequal latency
//! profiles (one stalled client's 100 ms tail averaged with seven fast
//! clients' 1 ms tails reads as ~13 ms). The regression tests below pin
//! the merged semantics.

use serde::{Deserialize, Serialize};

/// Nearest-rank percentiles over one merged latency sample set, in
/// milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Number of samples summarized.
    pub count: usize,
    /// Median latency.
    pub p50_ms: f64,
    /// 90th percentile.
    pub p90_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// 99.9th percentile (equals the max until the sample set is large
    /// enough to resolve it).
    pub p999_ms: f64,
    /// Worst observed latency.
    pub max_ms: f64,
}

impl LatencySummary {
    /// Summarizes per-request wall times given in **seconds** (the unit
    /// `Instant::elapsed().as_secs_f64()` produces). The samples from
    /// every client belong in one call — merging is the contract.
    pub fn from_secs(samples: impl IntoIterator<Item = f64>) -> Self {
        let mut sorted: Vec<f64> = samples.into_iter().collect();
        sorted.sort_by(f64::total_cmp);
        let ms = |p: f64| percentile(&sorted, p) * 1e3;
        Self {
            count: sorted.len(),
            p50_ms: ms(50.0),
            p90_ms: ms(90.0),
            p99_ms: ms(99.0),
            p999_ms: ms(99.9),
            max_ms: sorted.last().copied().unwrap_or(0.0) * 1e3,
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted sample (0 for an
/// empty sample).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    // The tiny epsilon keeps binary rounding in `p / 100.0` from pushing
    // an exact rank boundary (e.g. 99.9% of 1000 = rank 999) up by one.
    let rank = ((p / 100.0) * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_monotone_and_bounded_by_max() {
        let s = LatencySummary::from_secs((1..=1000).map(|i| i as f64 * 1e-3));
        assert_eq!(s.count, 1000);
        assert!(s.p50_ms <= s.p90_ms);
        assert!(s.p90_ms <= s.p99_ms);
        assert!(s.p99_ms <= s.p999_ms);
        assert!(s.p999_ms <= s.max_ms);
        assert_eq!(s.p50_ms, 500.0);
        assert_eq!(s.p99_ms, 990.0);
        assert_eq!(s.p999_ms, 999.0);
        assert_eq!(s.max_ms, 1000.0);
    }

    #[test]
    fn empty_and_singleton_samples_are_well_defined() {
        let empty = LatencySummary::from_secs([]);
        assert_eq!(empty.count, 0);
        assert_eq!(empty.p99_ms, 0.0);
        assert_eq!(empty.max_ms, 0.0);
        let one = LatencySummary::from_secs([0.005]);
        assert_eq!(one.count, 1);
        assert_eq!(one.p50_ms, 5.0);
        assert_eq!(one.p999_ms, 5.0);
        assert_eq!(one.max_ms, 5.0);
    }

    /// Regression: tails must come from the merged sample set, not from
    /// averaging per-client percentiles. Eight clients — seven answering
    /// in 1 ms, one stalled at 100 ms — have a true aggregate p99 of
    /// 100 ms (the slow client owns well over 1% of all samples); the
    /// per-client-then-average computation would report ~13 ms and hide
    /// the stall entirely.
    #[test]
    fn merged_tail_is_not_averaged_away() {
        let mut clients: Vec<Vec<f64>> = (0..7).map(|_| vec![1e-3; 100]).collect();
        clients.push(vec![100e-3; 100]);

        let merged = LatencySummary::from_secs(clients.iter().flatten().copied());
        assert_eq!(merged.count, 800);
        assert_eq!(merged.p99_ms, 100.0, "the stalled client owns the tail");

        let averaged_p99 = clients
            .iter()
            .map(|c| LatencySummary::from_secs(c.iter().copied()).p99_ms)
            .sum::<f64>()
            / clients.len() as f64;
        assert!(
            (averaged_p99 - 13.375).abs() < 0.001,
            "per-client averaging would have reported {averaged_p99}ms"
        );
        assert!(
            merged.p99_ms > 7.0 * averaged_p99,
            "merged p99 ({}) must dwarf the averaged one ({averaged_p99})",
            merged.p99_ms
        );
    }

    #[test]
    fn summary_round_trips_through_json() {
        let s = LatencySummary::from_secs([0.001, 0.002, 0.004]);
        let back: LatencySummary = serde::json::from_str(&serde::json::to_string(&s)).unwrap();
        assert_eq!(back, s);
    }
}
