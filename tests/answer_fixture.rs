//! Pins FindNC's answers across commits: a committed fixture holds the
//! context and every label's score bits for a handful of queries on a
//! small generated dataset, and the pipeline must reproduce it exactly.
//!
//! The parity suites compare two runs of one build. This suite compares
//! a run with the bits an earlier build wrote down, so a change that
//! moves any answer — on purpose or not — fails here and shows the diff.
//! Mining runs in one chunk (`parallel: false`), so the mined counts, and
//! with them the answers, are the same on any host.
//!
//! Two fixtures, one graph:
//!
//! - `answers.txt` runs on the graph exactly as datagen built it;
//! - `answers_ntriples.txt` runs on the same graph after a round trip
//!   through N-Triples (`to_triple_store`, `write_ntriples`,
//!   `read_ntriples`, `to_knowledge_graph`). The loader hands out node
//!   and label ids in its own statement order, so this fixture pins the
//!   ids every N-Triples-loaded deployment answers with.
//!
//! After a deliberate answer change, re-bless and quote the diff:
//!
//! ```text
//! cargo test --test answer_fixture -- --ignored bless
//! git diff tests/fixtures/
//! ```

#![forbid(unsafe_code)]

use notable_characteristics::core::config::FindNcConfig;
use notable_characteristics::core::findnc::FindNc;
use notable_characteristics::core::query::Query;
use notable_characteristics::datagen::{generate, Dataset, DomainId, GeneratorConfig};
use notable_characteristics::graph::KnowledgeGraph;
use notable_characteristics::stats::exact::DEFAULT_MAX_OUTCOMES;
use notable_characteristics::stats::special::composition_count;
use notable_characteristics::store::graph_view::{to_knowledge_graph, to_triple_store};
use notable_characteristics::store::ntriples::{read_ntriples, write_ntriples};
use std::fmt::Write as _;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/answers.txt");
const NTRIPLES_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/answers_ntriples.txt"
);

/// The pipeline's defaults, trimmed so a debug build answers in seconds:
/// 4,000 walks in one chunk, a 40-node context, 2,000 Monte-Carlo samples.
fn config() -> FindNcConfig {
    let mut cfg = FindNcConfig {
        context_size: 40,
        mc_samples: 2_000,
        ..FindNcConfig::default()
    };
    cfg.context.mining.walks = 4_000;
    cfg.context.mining.parallel = false;
    cfg
}

/// Which test a distribution pair runs, by `MultinomialTest`'s dispatch
/// rule: `(trials, exact)`.
fn dispatch(context: &[u64], query: &[u64]) -> (u64, bool) {
    let n: u64 = query.iter().sum();
    let support = context.iter().filter(|&&c| c > 0).count() as u64;
    let exact = composition_count(n, support).is_some_and(|c| c <= DEFAULT_MAX_OUTCOMES);
    (n, exact)
}

fn bits(p: Option<f64>) -> String {
    p.map_or_else(|| "-".to_owned(), |p| format!("{:016x}", p.to_bits()))
}

fn dataset() -> Dataset {
    generate(&GeneratorConfig::tiny(42))
}

/// The six queries, by member name: the first two and the first three
/// members of three domains.
fn queries(d: &Dataset) -> Vec<Vec<String>> {
    let mut out = Vec::new();
    for domain in [DomainId::Actors, DomainId::Politicians, DomainId::Writers] {
        let members = &d.domain(domain).expect("tiny graph has the domain").members;
        for size in [2, 3] {
            out.push(
                members[..size]
                    .iter()
                    .map(|&n| d.graph.node_name(n).to_owned())
                    .collect(),
            );
        }
    }
    out
}

/// The dataset's graph after a round trip through N-Triples text.
fn reloaded(graph: &KnowledgeGraph) -> KnowledgeGraph {
    let mut text = Vec::new();
    write_ntriples(&to_triple_store(graph), &mut text).expect("write to memory");
    to_knowledge_graph(&read_ntriples(&text[..]).expect("written N-Triples parse"))
}

/// Renders every answer on `graph`, and counts the exact tests and the
/// Monte-Carlo tests of at least 7 trials the queries ran.
fn render(graph: &KnowledgeGraph, queries: &[Vec<String>]) -> (String, usize, usize) {
    let findnc = FindNc::new(config());
    let (mut exact, mut monte_carlo) = (0, 0);
    let mut out = String::new();
    for names in queries {
        let query = Query::by_names(graph, names).expect("valid members");
        writeln!(out, "query {}", names.join(" ")).unwrap();
        let result = findnc.discover(graph, &query).expect("query answers");
        let context: Vec<String> = result
            .context
            .nodes()
            .map(|n| n.index().to_string())
            .collect();
        writeln!(out, "context {}", context.join(" ")).unwrap();
        for ch in &result.characteristics {
            writeln!(
                out,
                "label {} {} delta={:016x} inst={} card={} trigger={:?}",
                ch.label.index(),
                graph.label_name(ch.label),
                ch.score.to_bits(),
                bits(ch.inst_significance),
                bits(ch.card_significance),
                ch.trigger,
            )
            .unwrap();
            let dists = &ch.distributions;
            let mut tests = vec![dispatch(&dists.card_c, &dists.card_q)];
            if ch.inst_significance.is_some() {
                tests.push(dispatch(&dists.inst_c, &dists.inst_q));
            }
            for (n, is_exact) in tests {
                exact += usize::from(is_exact);
                monte_carlo += usize::from(!is_exact && n >= 7);
            }
        }
    }
    (out, exact, monte_carlo)
}

fn assert_matches(fixture: &str, (got, exact, monte_carlo): (String, usize, usize)) {
    assert!(exact > 0, "the fixture must run exact tests");
    assert!(
        monte_carlo > 0,
        "the fixture must run Monte-Carlo tests of at least 7 trials"
    );
    let want = std::fs::read_to_string(fixture).expect("fixture present");
    let (got_lines, want_lines): (Vec<&str>, Vec<&str>) =
        (got.lines().collect(), want.lines().collect());
    for (i, (g, w)) in got_lines.iter().zip(&want_lines).enumerate() {
        assert_eq!(g, w, "answer line {} of {fixture} moved", i + 1);
    }
    assert_eq!(got_lines.len(), want_lines.len(), "answer line count moved");
}

#[test]
fn answers_match_the_committed_fixture() {
    let d = dataset();
    assert_matches(FIXTURE, render(&d.graph, &queries(&d)));
}

#[test]
fn ntriples_answers_match_the_committed_fixture() {
    let d = dataset();
    assert_matches(NTRIPLES_FIXTURE, render(&reloaded(&d.graph), &queries(&d)));
}

/// Rewrites both fixtures from the current build.
#[test]
#[ignore = "rewrites tests/fixtures/answers*.txt; run after a deliberate answer change"]
fn bless() {
    let d = dataset();
    let queries = queries(&d);
    std::fs::create_dir_all(std::path::Path::new(FIXTURE).parent().unwrap()).unwrap();
    std::fs::write(FIXTURE, render(&d.graph, &queries).0).unwrap();
    std::fs::write(NTRIPLES_FIXTURE, render(&reloaded(&d.graph), &queries).0).unwrap();
}
