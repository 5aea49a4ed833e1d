//! Socket serving parity: a real server on an ephemeral port, real
//! client sockets, and the contract that **every served response is
//! byte-for-byte (after JSON decode) the in-process
//! [`NckService::query`] answer** — on both backends, under eight
//! concurrent client connections.
//!
//! The transport is allowed to add exactly one thing to a response: the
//! wall time (`secs`), which both sides clear before comparing.

#![forbid(unsafe_code)]

use notable_characteristics::api::{Backend, NckService, QueryRequest, QueryResponse};
use notable_characteristics::core::config::{ContextRwConfig, FindNcConfig, PathMiningConfig};
use notable_characteristics::core::context::TypeFilter;
use notable_characteristics::datagen::{generate, DomainId, GeneratorConfig};
use notable_characteristics::engine::EngineConfig;
use notable_characteristics::serve::{serve, ServeClient, ServeConfig};
use notable_characteristics::store::graph_view::{to_knowledge_graph, to_triple_store};
use std::sync::Arc;

const CLIENTS: usize = 8;

fn engine_config() -> EngineConfig {
    EngineConfig {
        findnc: FindNcConfig {
            context: ContextRwConfig {
                mining: PathMiningConfig {
                    walks: 4_000,
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
        },
        ..EngineConfig::default()
    }
}

/// The overlapping mix from `tests/concurrent_parity.rs`: shared-seed
/// pairs plus exact repeats, so concurrent clients race caches and
/// single-flight slots, not just distinct keys.
fn query_mix(dataset: &notable_characteristics::datagen::Dataset) -> Vec<QueryRequest> {
    let members = &dataset
        .domain(DomainId::Actors)
        .expect("actors domain")
        .members;
    let name = |i: usize| dataset.graph.node_name(members[i]).to_owned();
    let mut mix: Vec<QueryRequest> = (0..4)
        .map(|i| QueryRequest::entities([name(0), name(1 + i)]))
        .collect();
    mix.push(mix[0].clone());
    mix.push(mix[1].clone());
    mix
}

fn serve_matches_in_process(backend: Backend) {
    let dataset = generate(&GeneratorConfig::tiny(13));
    let mix = query_mix(&dataset);
    let service = Arc::new(
        NckService::builder()
            .knowledge_graph(to_knowledge_graph(&to_triple_store(&dataset.graph)))
            .backend(backend)
            .engine(engine_config())
            .build()
            .expect("service builds"),
    );

    // The in-process reference, from the very service instance being
    // served — this is the id-for-id contract, not a lookalike.
    let reference: Vec<QueryResponse> = mix
        .iter()
        .map(|request| {
            let mut response = service.query(request).expect("in-process query");
            response.secs = None;
            response
        })
        .collect();

    let handle =
        serve(Arc::clone(&service), "127.0.0.1:0", ServeConfig::default()).expect("server binds");
    let addr = handle.addr();

    std::thread::scope(|s| {
        for t in 0..CLIENTS {
            let (mix, reference) = (&mix, &reference);
            s.spawn(move || {
                let mut client = ServeClient::connect(addr).expect("client connects");
                for round in 0..2 {
                    for i in 0..mix.len() {
                        let qi = (i + t + round) % mix.len();
                        let mut served = client.call(&mix[qi]).expect("served query");
                        served.secs = None;
                        assert_eq!(
                            served,
                            reference[qi],
                            "{}/client{t}/q{qi}: served response diverged",
                            backend.name()
                        );
                    }
                }
            });
        }
    });

    let metrics = handle.shutdown();
    let expected = (CLIENTS * 2 * mix.len()) as u64;
    assert_eq!(
        metrics.requests_admitted, expected,
        "every request admitted"
    );
    assert_eq!(metrics.responses_ok, expected, "every response succeeded");
    assert_eq!(metrics.requests_shed, 0);
    assert_eq!(metrics.frames_malformed, 0);
    assert_eq!(metrics.connections_accepted, CLIENTS as u64);
}

#[test]
fn served_responses_match_in_process_on_csr() {
    serve_matches_in_process(Backend::Csr);
}

#[test]
fn served_responses_match_in_process_on_compact() {
    serve_matches_in_process(Backend::Compact);
}

/// Typed errors take the same trip: an in-process error and a served
/// error must carry the identical code and message.
#[test]
fn served_errors_match_in_process_bodies() {
    let dataset = generate(&GeneratorConfig::tiny(13));
    let service = Arc::new(
        NckService::builder()
            .knowledge_graph(to_knowledge_graph(&to_triple_store(&dataset.graph)))
            .engine(engine_config())
            .build()
            .expect("service builds"),
    );
    let request = QueryRequest::entities(["No Such Entity Anywhere"]);
    let local = service.query(&request).expect_err("unknown entity").body();

    let handle =
        serve(Arc::clone(&service), "127.0.0.1:0", ServeConfig::default()).expect("server binds");
    let mut client = ServeClient::connect(handle.addr()).expect("client connects");
    match client.call(&request) {
        Err(notable_characteristics::serve::ClientError::Api(served)) => {
            assert_eq!(served, local, "served error body diverged");
        }
        other => panic!("expected a typed API error, got {other:?}"),
    }
    handle.shutdown();
}
