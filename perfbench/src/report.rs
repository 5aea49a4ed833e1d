//! Metric catalogs, answer accounting, percentiles and the result line.

use notable_characteristics::engine::{CacheStats, EngineStats};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// End-to-end metrics (`--trace 0`), as `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("answered_frac", "frac"),
    ("resident_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (`--trace 1`), as `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("store.parse_ms", "ms"),
    ("graph.build_ms", "ms"),
    ("graph.resident_mb", "MB"),
    ("engine.init_ms", "ms"),
    ("core.select_ms", "ms"),
    ("core.ppr_ms", "ms"),
    ("core.topk_ms", "ms"),
    ("core.distributions_ms", "ms"),
    ("stats.discrimination_ms", "ms"),
    ("stats.labels", "count"),
    ("api.service_ms", "ms"),
    ("api.query_us", "us"),
    ("serve.overhead_ms", "ms"),
    ("serve.overhead_p50_ms", "ms"),
    ("serve.overhead_tail_ms", "ms"),
    ("core.select_share", "frac"),
    ("core.ppr_share", "frac"),
    ("core.topk_share", "frac"),
    ("core.distributions_share", "frac"),
    ("stats.discrimination_share", "frac"),
    ("api.service_share", "frac"),
    ("serve.overhead_share", "frac"),
    ("engine.result_hit_ratio", "frac"),
    ("engine.context_hit_ratio", "frac"),
    ("engine.ppr_hit_ratio", "frac"),
    ("engine.submitted_frac", "frac"),
    ("engine.executed_per_query", "count"),
    ("engine.coalesced", "count"),
    ("engine.weight_builds", "count"),
    ("serve.decode_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.inflight", "count"),
    ("serve.shed", "count"),
    ("serve.deadline_misses", "count"),
    ("serve.malformed", "count"),
    ("client.repeat_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// The pipeline layers the traced run times: span name, its per-query
/// self-time metric and its share of the summed busy time.
pub const PIPELINE_LAYERS: &[(&str, &str, &str)] = &[
    ("core.select", "core.select_ms", "core.select_share"),
    ("core.ppr", "core.ppr_ms", "core.ppr_share"),
    ("core.topk", "core.topk_ms", "core.topk_share"),
    (
        "core.distributions",
        "core.distributions_ms",
        "core.distributions_share",
    ),
    (
        "stats.discrimination",
        "stats.discrimination_ms",
        "stats.discrimination_share",
    ),
];

/// Why an attempted query was not answered correctly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Failure {
    /// Shed by admission control (`overloaded`).
    Shed,
    /// Answered `deadline_exceeded`.
    DeadlineMiss,
    /// A protocol or transport error.
    Protocol,
    /// The pipeline rejected the query (typed error), or the query was
    /// lost because another query of its batch was rejected.
    Rejected,
    /// An answer that differs from the reference.
    Mismatch,
}

/// Answer accounting for one measured phase.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Queries sent.
    pub attempted: u64,
    /// Queries answered and equal to the reference.
    pub answered: u64,
    /// Failed queries by reason.
    pub failed: BTreeMap<Failure, u64>,
}

impl Tally {
    /// Records one correct answer.
    pub fn answer(&mut self) {
        self.attempted += 1;
        self.answered += 1;
    }

    /// Records one failed query.
    pub fn fail(&mut self, why: Failure) {
        self.attempted += 1;
        *self.failed.entry(why).or_insert(0) += 1;
    }

    /// Failed queries, all reasons.
    pub fn failed_total(&self) -> u64 {
        self.failed.values().sum()
    }

    /// Adds another phase's counts.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.answered += other.answered;
        for (&why, &n) in &other.failed {
            *self.failed.entry(why).or_insert(0) += n;
        }
    }

    /// `answered / attempted`.
    pub fn answered_frac(&self) -> f64 {
        self.answered as f64 / self.attempted.max(1) as f64
    }

    /// The run's verdict on its answers: every answer matched its
    /// reference and the counts reconcile.
    pub fn verdict(&self) -> Result<(), String> {
        if self.attempted == 0 {
            return Err("no query was attempted".into());
        }
        if self.answered + self.failed_total() != self.attempted {
            return Err(format!(
                "answered {} + failed {} != attempted {}",
                self.answered,
                self.failed_total(),
                self.attempted
            ));
        }
        match self.failed.get(&Failure::Mismatch) {
            None | Some(0) => Ok(()),
            Some(n) => Err(format!("{n} answers differ from the reference")),
        }
    }
}

pub use notable_characteristics::api::latency::percentile;

/// Samples ranked strictly beyond percentile `p` in a sample of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64 - 1e-9).ceil() as usize;
    n - rank.clamp(1, n.max(1)).min(n)
}

/// The fewest samples that leave ten beyond percentile `p`.
pub fn min_samples(p: f64) -> usize {
    (10..).find(|&n| beyond(n, p) >= 10).unwrap_or(usize::MAX)
}

/// The tail percentile `p` of latency series (one per connection, in
/// completion order): each series is cut into up to 10 consecutive chunks
/// that each leave at least ten samples beyond `p`, and the result is the
/// median of the chunks' percentiles, so one scheduling stall moves it
/// less. Fails when a series is too short for a single chunk.
pub fn tail(series: &[&[f64]], p: f64) -> Result<f64, String> {
    let need = min_samples(p);
    let mut tails = Vec::new();
    for samples in series {
        let chunks = (samples.len() / need).min(10);
        if chunks == 0 {
            return Err(format!(
                "p{p} of {} samples leaves {} beyond it; at least 10 are needed",
                samples.len(),
                beyond(samples.len(), p)
            ));
        }
        let len = samples.len() / chunks;
        for chunk in samples.chunks(len).take(chunks) {
            let mut sorted = chunk.to_vec();
            sorted.sort_by(f64::total_cmp);
            debug_assert!(beyond(sorted.len(), p) >= 10);
            tails.push(percentile(&sorted, p));
        }
    }
    Ok(median(&tails))
}

/// The median of `samples`: the middle value, or the mean of the two
/// middle values of an even count (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The mean of `samples` (0 when empty).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `part / whole`, 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Applies `f` to each engine counter of `a` and `b` (`a - b` for a
/// delta, `a + b` for a sum); `weight_builds`, a lifetime count, is `a`'s.
pub fn combine_stats(a: &EngineStats, b: &EngineStats, f: impl Fn(u64, u64) -> u64) -> EngineStats {
    let cache = |x: &CacheStats, y: &CacheStats| CacheStats {
        hits: f(x.hits, y.hits),
        misses: f(x.misses, y.misses),
        ..*x
    };
    EngineStats {
        queries: f(a.queries, b.queries),
        executed_groups: f(a.executed_groups, b.executed_groups),
        result_coalesced: f(a.result_coalesced, b.result_coalesced),
        context_coalesced: f(a.context_coalesced, b.context_coalesced),
        ppr_coalesced: f(a.ppr_coalesced, b.ppr_coalesced),
        result: cache(&a.result, &b.result),
        context: cache(&a.context, &b.context),
        ppr: cache(&a.ppr, &b.ppr),
        ..*a
    }
}

/// The engine's per-layer counters over `sent` requests.
pub fn engine_metrics(d: &EngineStats, sent: u64, metrics: &mut BTreeMap<&'static str, f64>) {
    let hit = |c: &CacheStats| ratio(c.hits as f64, (c.hits + c.misses) as f64);
    let sent = sent as f64;
    metrics.insert("engine.result_hit_ratio", hit(&d.result));
    metrics.insert("engine.context_hit_ratio", hit(&d.context));
    metrics.insert("engine.ppr_hit_ratio", hit(&d.ppr));
    metrics.insert("engine.submitted_frac", ratio(d.queries as f64, sent));
    metrics.insert(
        "engine.executed_per_query",
        ratio(d.executed_groups as f64, sent),
    );
    let coalesced = d.result_coalesced + d.context_coalesced + d.ppr_coalesced;
    metrics.insert("engine.coalesced", coalesced as f64);
    metrics.insert("engine.weight_builds", d.weight_builds as f64);
}

/// Mean µs per call of `f` over `calls` calls.
pub fn micros(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..calls {
        f(i);
    }
    t.elapsed().as_secs_f64() * 1e6 / calls as f64
}

/// This process's resident set size in MB (10^6 bytes).
pub fn resident_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmRSS line in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}

/// The result line: one JSON object carrying exactly the metrics of
/// `catalog`, each with its unit. Fails on a missing, extra or
/// non-finite metric.
pub fn result_line(
    correct: bool,
    tally: &Tally,
    metrics: &BTreeMap<&'static str, f64>,
    catalog: &[(&str, &str)],
) -> Result<String, String> {
    if let Some(extra) = metrics
        .keys()
        .find(|k| !catalog.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("metric {extra} is not in the catalog"));
    }
    let mut body = String::new();
    for (i, (name, unit)) in catalog.iter().enumerate() {
        let value = *metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        tally.attempted,
        tally.failed_total()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use notable_characteristics::api::{json, JsonValue as Value};

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(99, 90.0), 9);
        assert_eq!(beyond(10_000, 99.9), 10);
        assert_eq!(beyond(5, 50.0), 2);
        assert_eq!(min_samples(90.0), 100);
        assert_eq!(min_samples(85.0), 67);
        assert_eq!(min_samples(99.0), 1000);
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&[&samples], 90.0).unwrap(), 90.0);
        assert!(tail(&[&samples[..99]], 90.0).is_err());
        assert!(tail(&[&samples], 95.0).is_err());
        assert!(
            tail(&[&samples, &samples[..99]], 90.0).is_err(),
            "every series must fit"
        );
        // Two chunks of 100 per series; the median of their p90s.
        let long: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&[&long], 90.0).unwrap(), (90.0 + 190.0) / 2.0);
        // At most ten chunks however long the series.
        let huge: Vec<f64> = (0..100_000).map(|i| f64::from(i % 1000)).collect();
        assert_eq!(tail(&[&huge], 99.0).unwrap(), 989.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn every_metric_is_printed_with_its_name_and_unit() {
        let manifest: Value = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        for (key, catalog) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = match manifest.get(key) {
                Some(Value::Seq(items)) => items
                    .iter()
                    .map(|m| match (m.get("name"), m.get("unit")) {
                        (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
                        other => panic!("malformed {key} entry: {other:?}"),
                    })
                    .collect(),
                other => panic!("BENCHMARK.json has no {key} list: {other:?}"),
            };
            let ours: Vec<(String, String)> = catalog
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, ours, "{key} differs from BENCHMARK.json");

            let metrics: BTreeMap<&'static str, f64> =
                catalog.iter().map(|(n, _)| (*n, 1.25)).collect();
            let line = result_line(true, &Tally::default(), &metrics, catalog).unwrap();
            let parsed: Value = json::parse(&line).unwrap();
            for (name, unit) in catalog.iter() {
                let m = parsed.get("metrics").and_then(|m| m.get(name)).unwrap();
                assert_eq!(m.get("unit"), Some(&Value::Str(unit.to_string())));
                assert_eq!(m.get("value"), Some(&Value::Float(1.25)));
            }
        }
    }

    #[test]
    fn a_missing_or_unknown_metric_fails_the_line() {
        let mut metrics: BTreeMap<&'static str, f64> =
            END_TO_END.iter().map(|(n, _)| (*n, 1.0)).collect();
        metrics.remove("setup_s");
        assert!(result_line(true, &Tally::default(), &metrics, END_TO_END).is_err());
        metrics.insert("setup_s", 1.0);
        metrics.insert("bogus", 1.0);
        assert!(result_line(true, &Tally::default(), &metrics, END_TO_END).is_err());
    }

    #[test]
    fn an_injected_wrong_answer_fails_the_run() {
        let mut tally = Tally::default();
        for _ in 0..99 {
            tally.answer();
        }
        assert!(tally.verdict().is_ok());
        tally.fail(Failure::Mismatch);
        assert!(tally.verdict().is_err());
        assert_eq!(tally.answered_frac(), 0.99);
        let mut rejected = Tally::default();
        rejected.answer();
        rejected.fail(Failure::Rejected);
        assert!(
            rejected.verdict().is_ok(),
            "a rejection counts, it is not wrong"
        );
        assert_eq!(rejected.failed_total(), 1);
    }
}
