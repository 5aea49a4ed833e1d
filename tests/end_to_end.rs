//! Workspace integration tests: the full stack, from triple store to
//! notable characteristics, exercised together.

#![forbid(unsafe_code)]

use notable_characteristics::core::config::{ContextRwConfig, FindNcConfig, PathMiningConfig};
use notable_characteristics::core::context::TypeFilter;
use notable_characteristics::datagen::{generate, GeneratorConfig};
use notable_characteristics::prelude::*;
use notable_characteristics::store::graph_view::to_knowledge_graph;
use notable_characteristics::store::TripleStore;

/// Store → graph → FindNC: a dataset loaded through the triple-store
/// substrate produces the same discoveries as one built directly.
#[test]
fn store_backed_pipeline_matches_direct_graph() {
    // Direct construction.
    let mut b = GraphBuilder::new();
    b.add_triple("q", "quirk", "weird");
    for i in 0..25 {
        let n = format!("c{i}");
        b.add_triple(&n, "quirk", if i == 0 { "weird" } else { "normal" });
        b.add_triple(&n, "usual", "common");
    }
    b.add_triple("q", "usual", "common");
    let direct = b.build();

    // Store-backed construction of the same facts.
    let mut store = TripleStore::new();
    store.insert_iris("q", "quirk", "weird");
    store.insert_iris("q", "usual", "common");
    for i in 0..25 {
        let n = format!("c{i}");
        store.insert_iris(&n, "quirk", if i == 0 { "weird" } else { "normal" });
        store.insert_iris(&n, "usual", "common");
    }
    let via_store = to_knowledge_graph(&store);
    assert_eq!(via_store.num_logical_edges(), direct.num_logical_edges());

    for graph in [&direct, &via_store] {
        let query = Query::by_names(graph, ["q"]).unwrap();
        let names: Vec<String> = (0..25).map(|i| format!("c{i}")).collect();
        let context = Context::from_names(graph, &names).unwrap();
        let result = FindNc::new(FindNcConfig::default())
            .discover_with_context(graph, &query, &context)
            .unwrap();
        let quirk = result.characteristic("quirk", graph).unwrap();
        assert!(quirk.notable(), "rare value must be notable");
        let usual = result.characteristic("usual", graph).unwrap();
        assert!(!usual.notable(), "shared value must not be notable");
    }
}

/// Graph TSV round trip preserves discovery results.
#[test]
fn tsv_round_trip_preserves_discoveries() {
    let dataset = generate(&GeneratorConfig::tiny(5));
    let mut buf = Vec::new();
    notable_characteristics::graph::io::write_tsv(&dataset.graph, &mut buf).unwrap();
    let reloaded = notable_characteristics::graph::io::read_tsv(&buf[..]).unwrap();
    assert_eq!(
        reloaded.num_logical_edges(),
        dataset.graph.num_logical_edges()
    );
    // Merkel's planted facts survive the round trip.
    let merkel = reloaded.require_node("Angela Merkel").unwrap();
    let has_child = reloaded.labels().get("hasChild").unwrap();
    assert_eq!(reloaded.degree_with_label(merkel, has_child), 0);
    let studied = reloaded.labels().get("studied").unwrap();
    let subjects = reloaded.neighbors_with_label(merkel, studied);
    assert_eq!(subjects.len(), 1);
    assert_eq!(reloaded.node_name(subjects[0]), "Physics");
}

/// The full mined pipeline runs end to end on the synthetic dataset and
/// produces a plausible, explained result.
#[test]
fn mined_pipeline_produces_explained_results() {
    let dataset = generate(&GeneratorConfig::tiny(42));
    let graph = &dataset.graph;
    let spec = notable_characteristics::datagen::queries::actors5_query();
    let query = Query::new(graph, dataset.query_nodes(&spec)).unwrap();
    let findnc = FindNc::new(FindNcConfig {
        context: ContextRwConfig {
            mining: PathMiningConfig {
                walks: 30_000,
                max_length: 5,
                seed: 4,
                parallel: true,
            },
            num_metapaths: 5,
            type_filter: TypeFilter::CommonAncestor,
            max_endpoint_fraction: 0.25,
        },
        context_size: 50,
        ..FindNcConfig::default()
    });
    let result = findnc.discover(graph, &query).unwrap();
    assert!(!result.context.is_empty());
    assert!(!result.characteristics.is_empty());
    // Scores are sorted and the report renders every label.
    for w in result.characteristics.windows(2) {
        assert!(w[0].score >= w[1].score);
    }
    let text = notable_characteristics::core::explain::report(graph, &result, query.len());
    for ch in &result.characteristics {
        assert!(text.contains(graph.label_name(ch.label)));
    }
}

/// Determinism across the whole stack: same seed, same results.
#[test]
fn whole_stack_is_deterministic() {
    let run = || {
        let dataset = generate(&GeneratorConfig::tiny(11));
        let graph = &dataset.graph;
        let spec = notable_characteristics::datagen::queries::actors5_query();
        let query = Query::new(graph, dataset.query_nodes(&spec)).unwrap();
        let findnc = FindNc::new(FindNcConfig {
            context: ContextRwConfig {
                mining: PathMiningConfig {
                    walks: 10_000,
                    max_length: 4,
                    seed: 9,
                    parallel: false,
                },
                num_metapaths: 5,
                type_filter: TypeFilter::CommonAncestor,
                max_endpoint_fraction: 0.25,
            },
            context_size: 40,
            ..FindNcConfig::default()
        });
        let result = findnc.discover(graph, &query).unwrap();
        result
            .characteristics
            .iter()
            .map(|c| (graph.label_name(c.label).to_owned(), c.score))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

/// The λ selectors disagree the way the paper says they do: the baseline's
/// context contains close-but-irrelevant neighbors that ContextRW skips.
#[test]
fn selectors_disagree_on_context_composition() {
    let dataset = generate(&GeneratorConfig::tiny(42));
    let graph = &dataset.graph;
    let spec = notable_characteristics::datagen::queries::actors5_query();
    let query = Query::new(graph, dataset.query_nodes(&spec)).unwrap();
    let crw = ContextRw::new(ContextRwConfig {
        mining: PathMiningConfig {
            walks: 30_000,
            max_length: 5,
            seed: 21,
            parallel: true,
        },
        num_metapaths: 5,
        type_filter: TypeFilter::CommonAncestor,
        max_endpoint_fraction: 0.25,
    });
    let rw = RandomWalkSelector::paper_experiment();
    use notable_characteristics::core::context::ContextSelector;
    let c1 = crw.select(graph, &query, 60).unwrap();
    let c2 = rw.select(graph, &query, 60).unwrap();
    let overlap = c1.node_set().intersection(&c2.node_set()).count();
    assert!(
        overlap < 60,
        "the two selectors must not return identical contexts"
    );
}

// ---------------------------------------------------------------------------
// Backend parity: the same pipeline over the CSR graph loaded from triples
// and the compact image encoded from it must rank the same notable
// characteristics.
// ---------------------------------------------------------------------------

use notable_characteristics::graph::{CompactGraph, GraphAccess};
use notable_characteristics::store::graph_view::{
    to_triple_store, SUBTYPE_PREDICATE, TYPE_PREDICATE,
};

/// `(label name, δ score, significance)` rows of a projected ranking.
type NamedRanking = Vec<(String, f64, Option<f64>)>;

/// Runs FindNC over a backend and projects the result onto names.
fn ranked_by_name<G: GraphAccess + Sync>(
    graph: &G,
    query_names: &[String],
    config: FindNcConfig,
) -> (Vec<String>, NamedRanking) {
    let query = Query::by_names(graph, query_names).expect("query resolves");
    let result = FindNc::new(config)
        .discover(graph, &query)
        .expect("discovery runs");
    let context = result
        .context
        .nodes()
        .map(|n| graph.node_name(n).to_owned())
        .collect();
    let ranked = result
        .characteristics
        .iter()
        .map(|c| {
            (
                graph.label_name(c.label).to_owned(),
                c.score,
                c.significance,
            )
        })
        .collect();
    (context, ranked)
}

fn assert_rankings_match(
    (ctx_a, ranked_a): &(Vec<String>, NamedRanking),
    (ctx_b, ranked_b): &(Vec<String>, NamedRanking),
) {
    assert_eq!(ctx_a, ctx_b, "context composition must match");
    assert_eq!(ranked_a.len(), ranked_b.len());
    for ((la, sa, pa), (lb, sb, pb)) in ranked_a.iter().zip(ranked_b) {
        assert_eq!(la, lb, "label order must match");
        assert!((sa - sb).abs() < 1e-9, "{la}: scores {sa} vs {sb}");
        match (pa, pb) {
            (Some(pa), Some(pb)) => {
                assert!((pa - pb).abs() < 1e-9, "{la}: significance {pa} vs {pb}")
            }
            (None, None) => {}
            other => panic!("{la}: significance presence differs: {other:?}"),
        }
    }
}

/// Figure-1 parity: fixed-context discrimination and the full mined
/// pipeline agree across backends on the paper's example graph.
#[test]
fn backends_rank_identically_on_figure1() {
    let mut store = TripleStore::new();
    store.insert_iris("Merkel", "studied", "Physics");
    for p in ["Putin", "Renzi", "Hollande"] {
        store.insert_iris(p, "studied", "Law");
    }
    for (p, c) in [
        ("Obama", "Malia"),
        ("Putin", "Mariya"),
        ("Renzi", "Ester"),
        ("Renzi", "Emanuele"),
        ("Hollande", "Thomas"),
        ("Hollande", "Clemence"),
        ("Hollande", "Flora"),
        ("Hollande", "Julien"),
    ] {
        store.insert_iris(p, "hasChild", c);
    }
    // Extra leaders so the multinomial test has context mass, plus a
    // shared forum so PathMining finds query→context metapaths.
    for i in 0..22 {
        let n = format!("leader{i}");
        store.insert_iris(&n, "studied", "Law");
        store.insert_iris(&n, "hasChild", &format!("child{i}"));
        store.insert_iris(&n, TYPE_PREDICATE, "politician");
        store.insert_iris(&n, "memberOf", "G20");
    }
    for p in ["Merkel", "Obama", "Putin", "Renzi", "Hollande"] {
        store.insert_iris(p, TYPE_PREDICATE, "politician");
        store.insert_iris(p, "memberOf", "G20");
    }
    store.insert_iris("politician", SUBTYPE_PREDICATE, "person");

    let kg = to_knowledge_graph(&store);
    let cg = CompactGraph::from_graph(&kg);

    // Fixed-context discrimination (no sampling in context selection).
    let query_names = ["Merkel".to_owned(), "Obama".to_owned()];
    let mut context_names: Vec<String> = ["Putin", "Renzi", "Hollande"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    context_names.extend((0..22).map(|i| format!("leader{i}")));
    let config = FindNcConfig::default();
    let kq = Query::by_names(&kg, &query_names).unwrap();
    let kc = Context::from_names(&kg, &context_names).unwrap();
    let kr = FindNc::new(config.clone())
        .discover_with_context(&kg, &kq, &kc)
        .unwrap();
    let cq = Query::by_names(&cg, &query_names).unwrap();
    let cc = Context::from_names(&cg, &context_names).unwrap();
    let cr = FindNc::new(config)
        .discover_with_context(&cg, &cq, &cc)
        .unwrap();
    let project = |r: &SearchResult, g: &dyn Fn(EdgeLabelId) -> String| {
        r.characteristics
            .iter()
            .map(|c| (g(c.label), c.score, c.significance))
            .collect::<Vec<_>>()
    };
    let ka = project(&kr, &|l| kg.label_name(l).to_owned());
    let ca = project(&cr, &|l| GraphAccess::label_name(&cg, l).to_owned());
    assert_rankings_match(&(vec![], ka.clone()), &(vec![], ca));
    assert!(
        ka.iter().any(|(l, s, _)| l == "studied" && *s > 0.0),
        "Figure-1 headline must be notable on both backends: {ka:?}"
    );

    // Full mined pipeline (PathMining + ContextRW + discrimination).
    let config = FindNcConfig {
        context: ContextRwConfig {
            mining: PathMiningConfig {
                walks: 8_000,
                max_length: 4,
                seed: 7,
                parallel: true,
            },
            num_metapaths: 5,
            type_filter: TypeFilter::CommonAncestor,
            max_endpoint_fraction: 1.0,
        },
        context_size: 20,
        ..FindNcConfig::default()
    };
    let a = ranked_by_name(&kg, &query_names, config.clone());
    let b = ranked_by_name(&cg, &query_names, config);
    assert!(!a.0.is_empty(), "mined context must not be empty");
    assert_rankings_match(&a, &b);
}

/// Generated-dataset parity: the full seeded pipeline agrees across
/// backends on an nck-datagen graph loaded through the store.
#[test]
fn backends_rank_identically_on_generated_dataset() {
    let dataset = generate(&GeneratorConfig::tiny(13));
    let spec = notable_characteristics::datagen::queries::actors5_query();
    let query_names: Vec<String> = dataset
        .query_nodes(&spec)
        .into_iter()
        .map(|n| dataset.graph.node_name(n).to_owned())
        .collect();

    let kg = to_knowledge_graph(&to_triple_store(&dataset.graph));
    let cg = CompactGraph::from_graph(&kg);
    assert_eq!(
        GraphAccess::num_nodes(&cg),
        KnowledgeGraph::num_nodes(&kg),
        "backends must agree on the node universe"
    );

    let config = FindNcConfig {
        context: ContextRwConfig {
            mining: PathMiningConfig {
                walks: 12_000,
                max_length: 4,
                seed: 99,
                parallel: true,
            },
            num_metapaths: 5,
            type_filter: TypeFilter::CommonAncestor,
            max_endpoint_fraction: 0.25,
        },
        context_size: 40,
        ..FindNcConfig::default()
    };
    let a = ranked_by_name(&kg, &query_names, config.clone());
    let b = ranked_by_name(&cg, &query_names, config);
    assert!(!a.0.is_empty(), "mined context must not be empty");
    assert!(!a.1.is_empty(), "characteristics must be scored");
    assert_rankings_match(&a, &b);
}
