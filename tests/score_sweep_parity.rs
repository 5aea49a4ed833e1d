//! Property tests pinning FindNC's one scoring path — the node-major
//! sweep plus worker-parallel discrimination — to the per-label oracle,
//! `LabelDistributions::build_full`:
//!
//! - `sweep::build_all` must produce **field-for-field** identical
//!   `LabelDistributions` to a per-label `build_full` loop over the
//!   incident labels — under both instance-support policies, both
//!   cardinality binnings, inverse labels on and off, and empty
//!   contexts;
//! - every label `FindNc` scores must carry the distributions, score and
//!   significances **bit for bit** that `build_full` plus the configured
//!   `MultinomialTest` give for that label alone, on the CSR and
//!   compact backends;
//! - a one-worker cap must not change a bit of the ranking, and neither
//!   may caps of 1, 2 or 16 workers on a query whose costliest label —
//!   the one the workers pull first — has the highest label id.

#![forbid(unsafe_code)]

use notable_characteristics::api::rankings_equal;
use notable_characteristics::core::config::FindNcConfig;
use notable_characteristics::core::context::Context;
use notable_characteristics::core::discrimination::{
    Discrimination, MultinomialDiscrimination, Trigger,
};
use notable_characteristics::core::distributions::{
    incident_labels, CardinalityBinning, InstanceSupport, LabelDistributions,
};
use notable_characteristics::core::findnc::{FindNc, NotableCharacteristic};
use notable_characteristics::core::parallel;
use notable_characteristics::core::query::Query;
use notable_characteristics::core::sweep::{self, ScoringWorkspace};
use notable_characteristics::graph::builder::GraphBuilder;
use notable_characteristics::graph::{CompactGraph, GraphAccess, KnowledgeGraph, NodeId};
use notable_characteristics::stats::MultinomialTest;
use proptest::prelude::*;

/// One generated case: triples over a small universe, query picks,
/// context picks (possibly draining to an empty context), and the
/// support/binning/inverse toggles (0/1 bits — the vendored proptest
/// has no bool strategy).
type Case = (Vec<(u8, u8, u8)>, Vec<u8>, Vec<u8>, u8, u8, u8);

fn cases() -> impl Strategy<Value = Case> {
    (
        (
            prop::collection::vec((0u8..20, 0u8..5, 0u8..20), 1..60),
            prop::collection::vec(0u8..20, 1..4),
            prop::collection::vec(0u8..20, 0..8),
        ),
        (0u8..2, 0u8..2, 0u8..2),
    )
        .prop_map(|((ts, q, c), (union, raw, inv))| (ts, q, c, union, raw, inv))
}

fn build(triples: &[(u8, u8, u8)]) -> KnowledgeGraph {
    let mut b = GraphBuilder::new();
    for &(s, p, o) in triples {
        b.add_triple(&format!("n{s}"), &format!("p{p}"), &format!("n{o}"));
    }
    // Every query/context pick must resolve, so every candidate node
    // occurs in a triple.
    for i in 0..20 {
        b.add_triple(&format!("n{i}"), "exists", "universe");
    }
    b.build()
}

fn dedup_names(picks: &[u8]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for &i in picks {
        let name = format!("n{i}");
        if !names.contains(&name) {
            names.push(name);
        }
    }
    names
}

/// A context over the picked nodes (query nodes excluded, like the real
/// selectors), with strictly descending similarity scores.
fn context_for<G: GraphAccess>(graph: &G, picks: &[String], query: &Query) -> Context {
    let ranked: Vec<(NodeId, f64)> = picks
        .iter()
        .map(|name| graph.node_by_name(name).unwrap())
        .filter(|n| !query.nodes().contains(n))
        .enumerate()
        .map(|(rank, n)| (n, 1.0 / (rank + 1) as f64))
        .collect();
    Context::from_ranked(ranked)
}

/// Swept distributions vs the per-label loop, on one backend.
fn assert_distribution_parity<G: GraphAccess>(
    graph: &G,
    query_names: &[String],
    context_names: &[String],
    support: InstanceSupport,
    binning: CardinalityBinning,
    include_inverse: bool,
) {
    let query = Query::by_names(graph, query_names.iter().map(String::as_str)).unwrap();
    let context = context_for(graph, context_names, &query);
    let mut ws = ScoringWorkspace::new();
    let swept = sweep::build_all(
        graph,
        &query,
        &context,
        support,
        binning,
        include_inverse,
        &mut ws,
    );
    let labels = incident_labels(graph, &query, &context, include_inverse);
    prop_assert_eq!(
        swept.iter().map(|d| d.label).collect::<Vec<_>>(),
        labels.clone(),
        "the sweep must cover exactly the incident labels, in label order"
    );
    for (dists, label) in swept.iter().zip(labels) {
        let want = LabelDistributions::build_full(graph, &query, &context, label, support, binning);
        prop_assert_eq!(
            dists,
            &want,
            "label {:?} diverged under {:?}/{:?} inverse={}",
            label,
            support,
            binning,
            include_inverse
        );
    }
}

/// Every scored label vs its per-label oracle, bit for bit, on one
/// backend: `build_full` scored alone by the configured multinomial test.
fn assert_oracle_parity<G: GraphAccess + Sync>(
    graph: &G,
    query_names: &[String],
    context_names: &[String],
    support: InstanceSupport,
    binning: CardinalityBinning,
    include_inverse: bool,
) {
    let query = Query::by_names(graph, query_names.iter().map(String::as_str)).unwrap();
    let context = context_for(graph, context_names, &query);
    if context.is_empty() {
        // An empty context is a selection error (FindNC refuses to score
        // against no evidence); distribution-level parity for empty
        // contexts is covered by the sibling test.
        return;
    }
    let config = FindNcConfig {
        instance_support: support,
        card_binning: binning,
        include_inverse_labels: include_inverse,
        ..FindNcConfig::default()
    };
    let test = MultinomialDiscrimination::new(
        MultinomialTest::new()
            .with_alpha(config.alpha)
            .unwrap()
            .with_samples(config.mc_samples)
            .with_seed(config.mc_seed),
    );
    let result = FindNc::new(config)
        .discover_with_context(graph, &query, &context)
        .unwrap();
    let mut labels: Vec<_> = result.characteristics.iter().map(|c| c.label).collect();
    labels.sort_unstable();
    prop_assert_eq!(
        labels,
        incident_labels(graph, &query, &context, include_inverse),
        "every incident label is scored exactly once"
    );
    for ch in &result.characteristics {
        let dists =
            LabelDistributions::build_full(graph, &query, &context, ch.label, support, binning);
        let want = test.score(&dists).unwrap();
        prop_assert_eq!(&ch.distributions, &dists, "label {:?}", ch.label);
        prop_assert_eq!(
            (
                ch.score.to_bits(),
                ch.significance.map(f64::to_bits),
                ch.inst_significance.map(f64::to_bits),
                ch.card_significance.map(f64::to_bits),
                ch.trigger,
            ),
            (
                want.score.to_bits(),
                want.significance().map(f64::to_bits),
                want.inst_significance.map(f64::to_bits),
                want.card_significance.map(f64::to_bits),
                want.trigger,
            ),
            "label {:?} diverged from its per-label oracle",
            ch.label
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `build_all` equals the per-label `build_full` loop field for
    /// field on both backends (each resolved in its own id space),
    /// across every support/binning/inverse combination the generator
    /// produces — including empty contexts.
    #[test]
    fn swept_distributions_match_per_label_build((ts, q, c, union, raw, inv) in cases()) {
        let (union, raw, inv) = (union == 1, raw == 1, inv == 1);
        let kg = build(&ts);
        let query_names = dedup_names(&q);
        let context_names = dedup_names(&c);
        let support = if union { InstanceSupport::Union } else { InstanceSupport::ContextOnly };
        let binning = if raw { CardinalityBinning::Raw } else { CardinalityBinning::Log2 };
        assert_distribution_parity(
            &CompactGraph::from_graph(&kg),
            &query_names, &context_names, support, binning, inv,
        );
        assert_distribution_parity(&kg, &query_names, &context_names, support, binning, inv);
    }

    /// Every scored label — distributions, δ, significances, trigger —
    /// is bit-for-bit its per-label oracle's on every backend.
    #[test]
    fn swept_scores_match_per_label_oracle_on_every_backend((ts, q, c, union, raw, inv) in cases()) {
        let (union, raw, inv) = (union == 1, raw == 1, inv == 1);
        let kg = build(&ts);
        let query_names = dedup_names(&q);
        let context_names = dedup_names(&c);
        let support = if union { InstanceSupport::Union } else { InstanceSupport::ContextOnly };
        let binning = if raw { CardinalityBinning::Raw } else { CardinalityBinning::Log2 };
        assert_oracle_parity(
            &CompactGraph::from_graph(&kg),
            &query_names, &context_names, support, binning, inv,
        );
        assert_oracle_parity(&kg, &query_names, &context_names, support, binning, inv);
    }

    /// The worker count is invisible in the output: capping the process
    /// to one worker (inline scoring) produces the same bits as the
    /// uncapped parallel fan-out.
    #[test]
    fn parallel_scoring_is_answer_invariant((ts, q, c, union, raw, inv) in cases()) {
        let (union, raw, inv) = (union == 1, raw == 1, inv == 1);
        let kg = build(&ts);
        let query_names = dedup_names(&q);
        let context_names = dedup_names(&c);
        let query = Query::by_names(&kg, query_names.iter().map(String::as_str)).unwrap();
        let context = context_for(&kg, &context_names, &query);
        if context.is_empty() {
            continue; // nothing to score; the macro loops per case
        }
        let config = FindNcConfig {
            instance_support: if union { InstanceSupport::Union } else { InstanceSupport::ContextOnly },
            card_binning: if raw { CardinalityBinning::Raw } else { CardinalityBinning::Log2 },
            include_inverse_labels: inv,
            ..FindNcConfig::default()
        };
        let findnc = FindNc::new(config);
        let wide = findnc.discover_with_context(&kg, &query, &context).unwrap();
        let base = parallel::thread_cap();
        parallel::set_thread_cap(Some(1));
        let narrow = findnc.discover_with_context(&kg, &query, &context);
        parallel::set_thread_cap(base);
        prop_assert!(
            rankings_equal(&wide, &narrow.unwrap()),
            "a one-worker cap changed the swept ranking"
        );
    }
}

/// A scored label's id, δ, significance, inst and card significance bits,
/// and trigger.
type LabelBits = (usize, u64, Option<u64>, Option<u64>, Option<u64>, Trigger);

/// Every scored label's bits, in ranking order.
fn label_bits(
    findnc: &FindNc,
    graph: &KnowledgeGraph,
    query: &Query,
    context: &Context,
) -> Vec<LabelBits> {
    findnc
        .discover_with_context(graph, query, context)
        .unwrap()
        .characteristics
        .iter()
        .map(|c| {
            (
                c.label.index(),
                c.score.to_bits(),
                c.significance.map(f64::to_bits),
                c.inst_significance.map(f64::to_bits),
                c.card_significance.map(f64::to_bits),
                c.trigger,
            )
        })
        .collect()
}

/// Workers pull labels costliest first and hand results back in label
/// order. Here the costliest label (query observations × categories) is
/// the last label id, so it runs first and is folded last; the ranking
/// and every label's bits must not move under caps of 1, 2 and 16.
#[test]
fn costliest_first_scheduling_is_answer_invariant() {
    let mut b = GraphBuilder::new();
    let people: Vec<String> = (0..30).map(|i| format!("p{i}")).collect();
    for (i, p) in people.iter().enumerate() {
        b.add_triple(p, "bornIn", &format!("city{}", i % 4));
        b.add_triple(p, "studied", if i < 2 { "physics" } else { "law" });
        for c in 0..(i % 3) {
            b.add_triple(p, "hasChild", &format!("{p}_child{c}"));
        }
    }
    // Added last, so it takes the highest label id: 8 distinct works per
    // query node (a Monte-Carlo test of 16 trials over 90 categories).
    for (i, p) in people.iter().enumerate() {
        let works = if i < 2 { 8 } else { 3 };
        for w in 0..works {
            b.add_triple(p, "zCreated", &format!("work{}", (i * 3 + w) % 90));
        }
    }
    let g = b.build();
    let query = Query::by_names(&g, ["p0", "p1"]).unwrap();
    let context = context_for(&g, &people[2..], &query);
    let findnc = FindNc::new(FindNcConfig {
        mc_samples: 2_000,
        ..FindNcConfig::default()
    });
    let result = findnc.discover_with_context(&g, &query, &context).unwrap();
    let cost = |c: &NotableCharacteristic| {
        let d = &c.distributions;
        let card_q: u64 = d.card_q.iter().sum();
        d.inst_q_total() * d.inst_c.len() as u64 + card_q * d.card_c.len() as u64
    };
    let costliest = result
        .characteristics
        .iter()
        .max_by_key(|c| cost(c))
        .unwrap();
    let last = result
        .characteristics
        .iter()
        .map(|c| c.label)
        .max()
        .unwrap();
    assert_eq!(
        costliest.label, last,
        "the costliest label has the highest id"
    );
    assert_eq!(g.label_name(last), "zCreated");
    // Each label carries its own test's bits, not a neighbour's.
    let cfg = findnc.config();
    let test = MultinomialDiscrimination::new(
        MultinomialTest::new()
            .with_alpha(cfg.alpha)
            .unwrap()
            .with_samples(cfg.mc_samples)
            .with_seed(cfg.mc_seed),
    );
    for c in &result.characteristics {
        let want = test.score(&c.distributions).unwrap();
        assert_eq!(
            (c.score.to_bits(), c.inst_significance.map(f64::to_bits)),
            (
                want.score.to_bits(),
                want.inst_significance.map(f64::to_bits)
            ),
            "label {:?}",
            c.label
        );
        assert_eq!(
            c.card_significance.map(f64::to_bits),
            want.card_significance.map(f64::to_bits)
        );
    }

    let base = parallel::thread_cap();
    parallel::set_thread_cap(Some(1));
    let want = label_bits(&findnc, &g, &query, &context);
    for cap in [2, 16] {
        parallel::set_thread_cap(Some(cap));
        assert_eq!(
            label_bits(&findnc, &g, &query, &context),
            want,
            "a {cap}-worker cap moved a label's bits"
        );
    }
    parallel::set_thread_cap(base);
}
