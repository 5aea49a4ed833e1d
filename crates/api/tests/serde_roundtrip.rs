//! JSON round-trip guarantees of the service vocabulary: what the façade
//! emits, it (or any peer speaking the schema) can read back, losslessly.

#![forbid(unsafe_code)]

use nck_api::{
    json, Characteristic, EngineStatsReport, NckService, QueryOverrides, QueryRequest,
    QueryResponse,
};
use nck_core::config::PathMiningConfig;
use nck_core::context::TypeFilter;
use nck_engine::{EngineConfig, SelectorMode};
use nck_graph::GraphBuilder;

fn roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + for<'de> serde::Deserialize<'de>,
{
    let text = json::to_string(value);
    json::from_str(&text).unwrap_or_else(|e| panic!("round-trip failed on {text}: {e}"))
}

#[test]
fn query_request_round_trips() {
    // Minimal: optional fields absent from the wire, rebuilt as None.
    let plain = QueryRequest::entities(["Angela Merkel", "Barack Obama"]);
    assert_eq!(roundtrip(&plain), plain);
    assert_eq!(
        json::to_string(&plain),
        r#"{"entities":["Angela Merkel","Barack Obama"]}"#
    );

    // Maximal: every optional set, including enum-typed overrides.
    let full = QueryRequest {
        entities: vec!["A \"quoted\" name".into(), "B\nnewline".into()],
        label: Some("A, B".into()),
        top: Some(5),
        overrides: Some(QueryOverrides {
            context_size: Some(42),
            walks: Some(1_000),
            selector: Some(SelectorMode::RandomWalk),
            type_filter: Some(TypeFilter::None),
            epsilon: Some(1e-5),
        }),
    };
    assert_eq!(roundtrip(&full), full);
    // ε rides the wire as a plain JSON number and is preserved exactly.
    let text = json::to_string(&full);
    assert!(text.contains(r#""epsilon":"#), "{text}");
    assert_eq!(
        roundtrip(&full).overrides.unwrap().epsilon,
        Some(1e-5),
        "epsilon must survive the round-trip bit-exactly"
    );
}

#[test]
fn query_response_round_trips_including_null_significances() {
    let response = QueryResponse {
        query: "Merkel,Obama".into(),
        context_size: 2,
        context: vec!["Putin".into(), "Renzi".into()],
        characteristics: vec![
            Characteristic {
                label: "hasChild".into(),
                score: 0.95,
                notable: true,
                inst_p: Some(0.0125),
                card_p: None,
            },
            Characteristic {
                label: "studied".into(),
                score: 0.0,
                notable: false,
                inst_p: None,
                card_p: Some(1.0),
            },
        ],
        secs: None,
    };
    assert_eq!(roundtrip(&response), response);
    // Absent significances serialize as explicit nulls (legacy schema),
    // while the absent timing field is omitted entirely.
    let text = json::to_string(&response);
    assert!(text.contains(r#""card_p":null"#));
    assert!(!text.contains("secs"));
}

/// End to end: a response and the engine counters produced by a real
/// service run survive the wire unchanged.
#[test]
fn service_emitted_payloads_round_trip() {
    let mut b = GraphBuilder::new();
    b.add_triple("Merkel", "memberOf", "G20");
    for i in 0..20 {
        let leader = format!("leader{i}");
        b.add_triple(&leader, "memberOf", "G20");
        b.add_triple(&leader, "hasChild", &format!("child{i}"));
    }
    let mut config = EngineConfig::default();
    config.findnc.context.mining = PathMiningConfig {
        walks: 2_000,
        ..PathMiningConfig::default()
    };
    config.findnc.context.type_filter = TypeFilter::None;
    config.findnc.context_size = 20;
    let service = NckService::builder()
        .knowledge_graph(b.build())
        .engine(config)
        .build()
        .unwrap();

    let mut request = QueryRequest::entities(["Merkel"]);
    request.top = Some(3);
    let response = service.query(&request).unwrap();
    assert_eq!(roundtrip(&response), response);

    let stats = service.stats();
    let back: EngineStatsReport = roundtrip(&stats);
    // Per-cache counter structs are #[serde(skip)] (the legacy schema
    // carries hit counts only), so they come back as defaults;
    // everything else — the coalesced/shard counters and the graph's
    // resident bytes included — is lossless.
    let wire_view = EngineStatsReport {
        result_cache: Default::default(),
        context_cache: Default::default(),
        ppr_cache: Default::default(),
        ..stats
    };
    assert_eq!(back, wire_view);
    assert_eq!(back.submitted, 1);
    assert_eq!(back.cache_shards, Some(8), "default stripe count");
    assert_eq!(back.weight_builds, Some(0), "ContextRw builds no weights");
}
