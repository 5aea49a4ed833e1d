//! Byte parity of the served answer: [`NckService::query_json`] prints
//! exactly what `json::to_string` prints for the response
//! [`NckService::query`] returns, with the spliced answer's own `secs`,
//! and fails with exactly `query`'s errors.
//!
//! Decoding both sides and comparing structs would hide a float printed
//! as `2.0` or two swapped fields, so the comparison here is on text.

#![forbid(unsafe_code)]

use nck_api::{json, Backend, NckService, QueryOverrides, QueryRequest, QueryResponse};
use nck_core::config::PathMiningConfig;
use nck_core::context::TypeFilter;
use nck_engine::{EngineConfig, SelectorMode};
use nck_graph::{GraphBuilder, KnowledgeGraph};
use nck_store::graph_view::{to_knowledge_graph, to_triple_store};

/// Query entities and labels whose names need every kind of escaping:
/// a quote, a backslash, a newline, a control character, non-ASCII.
const MERKEL: &str = "Mer\"kel";
const OBAMA: &str = "Ob\\ama";
const SUFFIXES: [&str; 5] = ["\"", "\\", "\n", "\u{1}", " Zoë 北京"];
const STUDIED: &str = "stu\\died";
const HAS_CHILD: &str = "has\"Child";
const MEMBER_OF: &str = "member\nOf\u{1}";
const BORN_IN: &str = "born\tIn ☀";
const WON: &str = "won\u{7f}€";

/// A Figure-1 population with escaped names, plus an island pair no walk
/// from outside it can reach (an empty context).
fn graph() -> KnowledgeGraph {
    let mut b = GraphBuilder::new();
    b.add_triple(MERKEL, STUDIED, "Phys\"ics");
    b.add_triple(OBAMA, STUDIED, "Law ⚖");
    for i in 0..24 {
        let leader = leader(i);
        b.add_triple(&leader, STUDIED, "Law ⚖");
        for c in 0..(1 + i % 3) {
            b.add_triple(&leader, HAS_CHILD, &format!("child{i}_{c}\t"));
        }
        b.add_triple(&leader, MEMBER_OF, "G20 ∑");
        b.add_triple(&leader, BORN_IN, &format!("city{}", i % 4));
        if i % 2 == 0 {
            b.add_triple(&leader, WON, "Prize\u{1f}");
        }
    }
    b.add_triple(OBAMA, HAS_CHILD, "Malia\r\n");
    b.add_triple(MERKEL, MEMBER_OF, "G20 ∑");
    b.add_triple(OBAMA, MEMBER_OF, "G20 ∑");
    b.add_triple(MERKEL, BORN_IN, "Hamburg");
    b.add_triple(OBAMA, WON, "Prize\u{1f}");
    b.add_triple("Island\"1", "bridge", "Island\\2");
    b.build()
}

fn leader(i: usize) -> String {
    format!("leader{i}{}", SUFFIXES[i % SUFFIXES.len()])
}

fn config() -> EngineConfig {
    let mut config = EngineConfig::default();
    config.findnc.context.mining = PathMiningConfig {
        walks: 4_000,
        max_length: 3,
        seed: 5,
        parallel: false,
    };
    config.findnc.context.type_filter = TypeFilter::None;
    config.findnc.context_size = 20;
    config.randomwalk.type_filter = TypeFilter::None;
    config
}

fn service(backend: Backend) -> NckService {
    NckService::builder()
        .knowledge_graph(to_knowledge_graph(&to_triple_store(&graph())))
        .backend(backend)
        .engine(config())
        .build()
        .expect("service builds")
}

/// The number after the last `"secs":` of an answer.
fn secs_of(text: &str) -> f64 {
    let (_, tail) = text
        .rsplit_once("\"secs\":")
        .unwrap_or_else(|| panic!("an answer without secs: {text}"));
    tail.strip_suffix('}')
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("secs is not the last field: {text}"))
}

/// `query_json` equals the encoded `query` response, with its own `secs`.
fn assert_same_bytes(service: &NckService, request: &QueryRequest, what: &str) {
    let text = service
        .query_json(request)
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    let want = QueryResponse {
        secs: Some(secs_of(&text)),
        ..service.query(request).expect("query answers")
    };
    assert_eq!(text, json::to_string(&want), "{what}");
}

fn requests() -> Vec<(&'static str, QueryRequest)> {
    let pair = QueryRequest::entities([MERKEL, OBAMA]);
    let with = |f: &dyn Fn(&mut QueryRequest)| {
        let mut r = pair.clone();
        f(&mut r);
        r
    };
    let overrides = |o: QueryOverrides| with(&|r| r.overrides = Some(o));
    vec![
        ("plain", pair.clone()),
        ("top 0", with(&|r| r.top = Some(0))),
        ("top 3", with(&|r| r.top = Some(3))),
        ("top past the end", with(&|r| r.top = Some(10_000))),
        (
            "label set",
            with(&|r| {
                r.label = Some("tag \"q\"\\\n\u{1} ✓".into());
                r.top = Some(3);
            }),
        ),
        (
            "escaped entities",
            QueryRequest::entities([leader(1), leader(2), leader(3), leader(4)]),
        ),
        (
            "context_size override",
            overrides(QueryOverrides {
                context_size: Some(5),
                ..QueryOverrides::default()
            }),
        ),
        (
            "RandomWalk override",
            overrides(QueryOverrides {
                selector: Some(SelectorMode::RandomWalk),
                ..QueryOverrides::default()
            }),
        ),
        (
            "RandomWalk with context_size",
            overrides(QueryOverrides {
                selector: Some(SelectorMode::RandomWalk),
                context_size: Some(7),
                ..QueryOverrides::default()
            }),
        ),
    ]
}

/// Every request twice: the first `query_json` for an entry encodes it
/// (later requests sharing the entry, with another `top` or label,
/// reuse that encoding), and the repeat reuses it.
fn answers_match(backend: Backend) {
    let service = service(backend);
    for (what, request) in requests() {
        for pass in ["first", "repeat"] {
            assert_same_bytes(&service, &request, &format!("{backend:?}/{what}/{pass}"));
        }
    }
    let full = service
        .query(&QueryRequest::entities([MERKEL, OBAMA]))
        .expect("query answers");
    assert!(full.characteristics.len() > 3, "the top-3 cut must cut");
}

#[test]
fn query_json_matches_query_on_csr() {
    answers_match(Backend::Csr);
}

#[test]
fn query_json_matches_query_on_compact() {
    answers_match(Backend::Compact);
}

/// An entry `query` computed first is encoded by the first `query_json`.
#[test]
fn query_json_encodes_an_entry_query_computed() {
    let service = service(Backend::Csr);
    let request = QueryRequest::entities([OBAMA, MERKEL]);
    service.query(&request).expect("query answers");
    assert_same_bytes(&service, &request, "after query");
    assert_eq!(service.raw_stats().executed_groups, 1);
}

#[test]
fn query_json_fails_with_query_errors() {
    let service = service(Backend::Csr);
    let pair = QueryRequest::entities([MERKEL, OBAMA]);
    let overridden = |o: QueryOverrides| QueryRequest {
        overrides: Some(o),
        ..pair.clone()
    };
    let cases = [
        (
            "unknown entity",
            QueryRequest::entities([MERKEL, "Nobody"]),
            "unknown_entity",
        ),
        (
            "duplicate entity",
            QueryRequest::entities([MERKEL, MERKEL]),
            "invalid_request",
        ),
        (
            "context_size out of bounds",
            overridden(QueryOverrides {
                context_size: Some(0),
                ..QueryOverrides::default()
            }),
            "invalid_request",
        ),
        (
            "walks past the budget",
            overridden(QueryOverrides {
                walks: Some(4_001),
                ..QueryOverrides::default()
            }),
            "invalid_request",
        ),
        (
            "empty context",
            QueryRequest::entities(["Island\"1", "Island\\2"]),
            "pipeline",
        ),
    ];
    for (what, request, code) in cases {
        let want = service.query(&request).expect_err(what).body();
        let got = service.query_json(&request).expect_err(what).body();
        assert_eq!(got, want, "{what}");
        assert_eq!(got.error, code, "{what}: {}", got.message);
    }
}
