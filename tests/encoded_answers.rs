//! Concurrent cold callers of one answer share one computation and one
//! stored encoding: eight barrier-started threads asking for the same
//! uncached answer run the pipeline once, encode the result once, and
//! all receive the same bytes apart from their own `secs`.

#![forbid(unsafe_code)]

use notable_characteristics::api::{NckService, QueryRequest};
use notable_characteristics::core::config::PathMiningConfig;
use notable_characteristics::core::context::TypeFilter;
use notable_characteristics::core::query::Query;
use notable_characteristics::engine::{Encoded, EngineConfig, Overrides};
use notable_characteristics::prelude::GraphBuilder;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

const CLIENTS: usize = 8;

fn service() -> NckService {
    let mut b = GraphBuilder::new();
    b.add_triple("Merkel", "studied", "Physics");
    b.add_triple("Obama", "studied", "Law");
    for i in 0..24 {
        let leader = format!("leader{i}");
        b.add_triple(&leader, "studied", "Law");
        for c in 0..(1 + i % 3) {
            b.add_triple(&leader, "hasChild", &format!("child{i}_{c}"));
        }
        b.add_triple(&leader, "memberOf", "G20");
    }
    b.add_triple("Obama", "hasChild", "Malia");
    b.add_triple("Merkel", "memberOf", "G20");
    b.add_triple("Obama", "memberOf", "G20");
    let mut config = EngineConfig::default();
    config.findnc.context.mining = PathMiningConfig {
        walks: 4_000,
        max_length: 3,
        seed: 5,
        parallel: false,
    };
    config.findnc.context.type_filter = TypeFilter::None;
    config.findnc.context_size = 20;
    NckService::builder()
        .knowledge_graph(b.build())
        .engine(config)
        .build()
        .expect("service builds")
}

/// Runs `call` on `CLIENTS` threads released together.
fn race<T: Send>(call: impl Fn() -> T + Sync) -> Vec<T> {
    let barrier = Barrier::new(CLIENTS);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let (barrier, call) = (&barrier, &call);
                s.spawn(move || {
                    barrier.wait();
                    call()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    })
}

#[test]
fn cold_query_json_callers_share_one_computation_and_encoding() {
    let service = service();
    let request = QueryRequest::entities(["Merkel", "Obama"]);
    let answers = race(|| service.query_json(&request).expect("answers"));
    let body = |text: &str| text.rsplit_once(",\"secs\":").expect("secs").0.to_owned();
    for answer in &answers[1..] {
        assert_eq!(
            body(answer),
            body(&answers[0]),
            "same bytes apart from secs"
        );
    }
    let stats = service.raw_stats();
    assert_eq!(stats.queries, CLIENTS as u64);
    assert_eq!(stats.executed_groups, 1, "one computation for 8 callers");
    assert_eq!(stats.result.evictions, 0);

    // Every answer carries the entry's one stored encoding, and asking
    // for it again does not encode.
    let query = Query::by_names(service.graph(), ["Merkel", "Obama"]).expect("resolves");
    let (_, encoded) = service
        .engine()
        .run_encoded(&query, &Overrides::default(), |_| {
            panic!("the entry is already encoded")
        })
        .expect("cached");
    let spliced = format!(
        ",\"context\":{},\"characteristics\":[{}]",
        encoded.context,
        encoded.characteristics.join(",")
    );
    assert!(!encoded.characteristics.is_empty());
    assert!(answers.iter().all(|a| a.contains(&spliced)));
}

#[test]
fn racing_cold_run_encoded_calls_encode_once() {
    let service = service();
    let query = Query::by_names(service.graph(), ["Obama", "leader3"]).expect("resolves");
    let calls = AtomicUsize::new(0);
    let encodings = race(|| {
        let (_, encoded) = service
            .engine()
            .run_encoded(&query, &Overrides::default(), |result| {
                calls.fetch_add(1, Ordering::Relaxed);
                Encoded {
                    context: result.context.len().to_string(),
                    characteristics: Vec::new(),
                }
            })
            .expect("answers");
        encoded
    });
    assert_eq!(calls.load(Ordering::Relaxed), 1, "one encode for 8 callers");
    assert!(encodings.iter().all(|e| Arc::ptr_eq(e, &encodings[0])));
    assert_eq!(service.raw_stats().executed_groups, 1);
}
