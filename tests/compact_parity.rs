//! Compact-backend exactness: `CompactGraph` must answer id-for-id
//! identically to the CSR `KnowledgeGraph` — at the
//! `GraphAccess` level on the Figure-1 graph, and through the full
//! engine pipeline on a datagen dataset — and its on-disk image must be
//! byte-stable for a fixed seed (the golden-file contract the zero-copy
//! loader depends on).

#![forbid(unsafe_code)]

use notable_characteristics::core::config::{ContextRwConfig, FindNcConfig, PathMiningConfig};
use notable_characteristics::core::context::TypeFilter;
use notable_characteristics::core::findnc::{FindNc, SearchResult};
use notable_characteristics::core::query::Query;
use notable_characteristics::datagen::{
    generate, generate_scale, DomainId, GeneratorConfig, ScaleConfig,
};
use notable_characteristics::engine::{EngineConfig, QueryEngine};
use notable_characteristics::graph::compact::encode_compact;
use notable_characteristics::graph::io::{load_compact, save_compact};
use notable_characteristics::graph::{CompactGraph, GraphAccess, GraphBuilder, KnowledgeGraph};
use notable_characteristics::store::graph_view::{to_knowledge_graph, to_triple_store};

fn pipeline_config() -> FindNcConfig {
    FindNcConfig {
        context: ContextRwConfig {
            mining: PathMiningConfig {
                walks: 6_000,
                max_length: 4,
                seed: 99,
                parallel: true,
            },
            num_metapaths: 5,
            type_filter: TypeFilter::CommonAncestor,
            max_endpoint_fraction: 0.25,
        },
        context_size: 30,
        ..FindNcConfig::default()
    }
}

/// The paper's Figure-1 graph: politicians, studies, children.
fn figure1() -> KnowledgeGraph {
    let mut b = GraphBuilder::new();
    b.add_triple("Merkel", "studied", "Physics");
    for (p, domain) in [("Putin", "Law"), ("Renzi", "Law"), ("Hollande", "Law")] {
        b.add_triple(p, "studied", domain);
    }
    for (p, c) in [
        ("Obama", "Malia"),
        ("Putin", "Mariya"),
        ("Renzi", "Ester"),
        ("Renzi", "Emanuele"),
        ("Hollande", "Thomas"),
        ("Hollande", "Clemence"),
    ] {
        b.add_triple(p, "hasChild", c);
    }
    for p in ["Merkel", "Obama", "Putin", "Renzi", "Hollande"] {
        let n = b.node(p);
        b.set_type(n, "politician");
    }
    b.subtype("politician", "person");
    b.build()
}

/// Every `GraphAccess` observation must agree between two backends.
fn assert_access_parity<A: GraphAccess, B: GraphAccess>(label: &str, a: &A, b: &B) {
    assert_eq!(a.num_nodes(), b.num_nodes(), "{label}: node count");
    assert_eq!(
        a.num_stored_edges(),
        b.num_stored_edges(),
        "{label}: stored edges"
    );
    assert_eq!(a.labels().len(), b.labels().len(), "{label}: label count");
    for l in a.labels().iter() {
        assert_eq!(a.labels().name(l), b.labels().name(l), "{label}");
        assert_eq!(a.labels().inverse(l), b.labels().inverse(l), "{label}");
        assert_eq!(a.label_count(l), b.label_count(l), "{label}");
    }
    for v in a.nodes() {
        assert_eq!(a.node_name(v), b.node_name(v), "{label}: names");
        assert_eq!(a.node_by_name(a.node_name(v)), Some(v), "{label}");
        assert_eq!(
            a.node_type(v).map(|t| a.taxonomy().name(t).to_owned()),
            b.node_type(v).map(|t| b.taxonomy().name(t).to_owned()),
            "{label}: types"
        );
        assert_eq!(a.degree(v), b.degree(v), "{label}: degree of {v}");
        let ea: Vec<_> = a.edges(v).collect();
        let eb: Vec<_> = b.edges(v).collect();
        assert_eq!(ea, eb, "{label}: edges of {}", a.node_name(v));
        for (i, &edge) in ea.iter().enumerate() {
            assert_eq!(a.edge_at(v, i), edge, "{label}: edge_at");
        }
        let la: Vec<_> = a.labels_of(v).collect();
        let lb: Vec<_> = b.labels_of(v).collect();
        assert_eq!(la, lb, "{label}: labels_of");
        for l in a.labels().iter() {
            assert_eq!(
                a.neighbors_with_label(v, l).as_ref(),
                b.neighbors_with_label(v, l).as_ref(),
                "{label}: neighbors under {}",
                a.labels().name(l)
            );
        }
    }
}

#[test]
fn compact_matches_csr_on_figure1() {
    let kg = figure1();
    let compact = CompactGraph::from_graph(&kg);
    assert_access_parity("figure1 compact-vs-csr", &compact, &kg);

    // Loading triples assigns node ids in the store's SPO order, so the
    // image encoded from a loaded graph must keep that graph's ids.
    let loaded = to_knowledge_graph(&to_triple_store(&kg));
    let compact2 = CompactGraph::from_graph(&loaded);
    assert_access_parity("figure1 compact-vs-loaded-csr", &compact2, &loaded);
}

fn assert_identical(label: &str, a: &SearchResult, b: &SearchResult) {
    assert_eq!(
        a.context.ranked(),
        b.context.ranked(),
        "{label}: contexts must agree bit for bit"
    );
    assert_eq!(a.characteristics.len(), b.characteristics.len(), "{label}");
    for (x, y) in a.characteristics.iter().zip(&b.characteristics) {
        assert_eq!(x.label, y.label, "{label}: label order");
        assert_eq!(x.score, y.score, "{label}: scores");
        assert_eq!(x.significance, y.significance, "{label}: significance");
        assert_eq!(x.inst_significance, y.inst_significance, "{label}");
        assert_eq!(x.card_significance, y.card_significance, "{label}");
    }
}

fn seed_pairs(dataset: &notable_characteristics::datagen::Dataset) -> Vec<Vec<String>> {
    let members = &dataset
        .domain(DomainId::Actors)
        .expect("actors domain")
        .members;
    (0..4)
        .map(|i| {
            vec![
                dataset.graph.node_name(members[0]).to_owned(),
                dataset.graph.node_name(members[1 + i]).to_owned(),
            ]
        })
        .collect()
}

/// Full pipeline parity on a datagen dataset: the engine over
/// `CompactGraph` answers bit-identically to the sequential baseline
/// over it and to the engine over the CSR backend.
#[test]
fn engine_results_identical_across_both_backends() {
    let dataset = generate(&GeneratorConfig::tiny(13));
    let names = seed_pairs(&dataset);
    let kg = to_knowledge_graph(&to_triple_store(&dataset.graph));
    let compact = CompactGraph::from_graph(&kg);
    assert_access_parity("datagen compact-vs-csr", &compact, &kg);

    let config = EngineConfig {
        findnc: pipeline_config(),
        ..EngineConfig::default()
    };
    let queries: Vec<Query> = names
        .iter()
        .map(|q| Query::by_names(&kg, q).expect("query resolves"))
        .collect();

    let compact_engine = QueryEngine::new(&compact, config.clone()).expect("engine builds");
    let compact_results = compact_engine.run_batch(&queries).expect("compact batch");

    // Sequential baseline over the compact backend itself.
    let findnc = FindNc::new(pipeline_config());
    for (q, batched) in queries.iter().zip(&compact_results) {
        let sequential = findnc.discover(&compact, q).expect("sequential run");
        assert_identical("compact batched-vs-sequential", batched, &sequential);
    }

    // Cross-backend: compact vs CSR, id for id.
    let kg_engine = QueryEngine::new(&kg, config).expect("engine builds");
    let kg_results = kg_engine.run_batch(&queries).expect("csr batch");
    for (c, k) in compact_results.iter().zip(&kg_results) {
        assert_identical("compact-vs-csr", c, k);
    }
}

/// A compact graph loaded back from disk is the same backend as the one
/// encoded in memory — the pipeline cannot tell the difference.
#[test]
fn loaded_file_answers_like_the_in_memory_encoding() {
    let dataset = generate(&GeneratorConfig::tiny(13));
    let kg = to_knowledge_graph(&to_triple_store(&dataset.graph));
    let dir = std::env::temp_dir().join("nck_compact_parity_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tiny13.nckg");
    save_compact(&kg, &path).unwrap();
    let loaded = load_compact(&path).unwrap();
    assert_access_parity("loaded-vs-csr", &loaded, &kg);
    std::fs::remove_file(&path).ok();
}

/// Golden-file contract: for a fixed seed the encoder produces a
/// byte-identical image on every build — same length, same embedded
/// checksum. A change to these constants is a format or encoder change
/// and must be deliberate (bump `FORMAT_VERSION` when the layout moves).
#[test]
fn encoded_image_is_byte_stable_for_a_fixed_seed() {
    let cfg = ScaleConfig {
        nodes: 2_000,
        avg_degree: 8,
        num_labels: 6,
        num_types: 4,
        target_skew: 0.8,
        seed: 2_024,
    };
    let image = encode_compact(&generate_scale(&cfg));
    let again = encode_compact(&generate_scale(&cfg));
    assert_eq!(image, again, "two builds must agree byte for byte");
    CompactGraph::from_bytes(image.clone()).expect("golden image parses");

    // The pinned golden values for this config. The checksum lives at
    // image[16..24] (little-endian u64, covering everything after the
    // header); pinning it plus the length pins the whole image.
    let checksum = u64::from_le_bytes(image[16..24].try_into().unwrap());
    let golden_len = 140_980usize;
    let golden_checksum = 0x0dbb_fe6e_264a_c3f5u64;
    assert_eq!(
        (image.len(), checksum),
        (golden_len, golden_checksum),
        "compact image for seed 2024 drifted: if the encoder or generator \
         changed deliberately, update the golden values (and bump the \
         format version for layout changes)"
    );
}
