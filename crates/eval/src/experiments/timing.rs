//! Runtime experiments (Figures 5 and 6), wall-clock measured in-process.
//!
//! Each cell is the median of five timed selections after one untimed
//! warm-up, so one slow run (a page fault, a preempted thread) does not
//! decide a cell. Criterion benches in `nck-bench` measure the same
//! quantities with statistical rigor; these harness versions print the
//! paper-style rows quickly inside `reproduce`.

use crate::env::EvalEnv;
use crate::report::{secs, Report};
use nck_core::context::ContextSelector;
use nck_datagen::DomainId;
use std::time::{Duration, Instant};

/// Timed runs per table cell; the cell reports their median.
const TIMED_RUNS: usize = 5;

/// The median wall time of [`TIMED_RUNS`] calls of `run`, after one
/// untimed warm-up call.
fn median_time(mut run: impl FnMut()) -> Duration {
    run();
    let mut times: Vec<Duration> = (0..TIMED_RUNS)
        .map(|_| {
            let start = Instant::now();
            run();
            start.elapsed()
        })
        .collect();
    times.sort_unstable();
    times[TIMED_RUNS / 2]
}

/// Figure 5: context-selection time vs |Q| for both algorithms.
pub fn fig5(env: &EvalEnv) -> Report {
    let mut r = Report::new(
        "fig5",
        format!(
            "context-selection time (s) vs query size |Q|, actors domain, YAGO-like; \
             median of {TIMED_RUNS} timed runs after 1 warm-up"
        ),
    );
    let specs = env.yago.queries_for(DomainId::Actors);
    let header = ["algorithm", "|Q|=2", "|Q|=3", "|Q|=4", "|Q|=5", "|Q|=6"];
    let mut rows = Vec::new();
    for (name, selector) in [
        (
            "ContextRW",
            &env.context_rw() as &dyn ContextSelector<nck_graph::KnowledgeGraph>,
        ),
        ("RandomWalk", &env.random_walk()),
    ] {
        let mut row = vec![name.to_owned()];
        for spec in &specs {
            let query = env.query(&env.yago, spec);
            row.push(secs(median_time(|| {
                selector
                    .select(&env.yago.graph, &query, 100)
                    .expect("selection failed");
            })));
        }
        rows.push(row);
    }
    r.table(&header, &rows);
    r.line("");
    r.line("paper shape: RandomWalk slower (up to 2 orders of magnitude at |Q| = 5),");
    r.line("growing with |Q|, while ContextRW stays fast or gets faster.");
    r
}

/// Figure 6: ContextRW time vs max metapath length for |Q| = 2..6.
pub fn fig6(env: &EvalEnv) -> Report {
    let mut r = Report::new(
        "fig6",
        format!(
            "ContextRW time (s) vs maximum metapath length, actors domain; \
             median of {TIMED_RUNS} timed runs after 1 warm-up"
        ),
    );
    let specs = env.yago.queries_for(DomainId::Actors);
    let lengths = [5usize, 10, 15, 20];
    let header: Vec<String> = std::iter::once("query".to_owned())
        .chain(lengths.iter().map(|l| format!("len={l}")))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut rows = Vec::new();
    for spec in &specs {
        let query = env.query(&env.yago, spec);
        let mut row = vec![spec.label()];
        for &len in &lengths {
            let selector = env.context_rw_with(env.walks, 5, len);
            row.push(secs(median_time(|| {
                selector
                    .select(&env.yago.graph, &query, 100)
                    .expect("selection failed");
            })));
        }
        rows.push(row);
    }
    r.table(&header_refs, &rows);
    r.line("");
    r.line("paper shape: time grows with the maximum metapath length.");
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use nck_datagen::ground_truth::CrowdConfig;
    use nck_datagen::{generate, GeneratorConfig};

    #[test]
    fn fig5_measures_both_algorithms() {
        let env = EvalEnv {
            yago: generate(&GeneratorConfig::tiny(7)),
            lmdb: generate(&GeneratorConfig::linkedmdb_like(7).scaled(0.12)),
            walks: 2_000,
            crowd: CrowdConfig::default(),
        };
        let r = fig5(&env);
        assert!(r.body.contains("ContextRW"));
        assert!(r.body.contains("RandomWalk"));
        assert!(r.title.contains("median of 5 timed runs after 1 warm-up"));
    }

    #[test]
    fn median_time_warms_up_once_then_times_five_runs() {
        let mut calls = 0;
        median_time(|| calls += 1);
        assert_eq!(calls, 1 + TIMED_RUNS);
    }
}
