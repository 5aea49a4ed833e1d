//! Overload behavior under saturation: a server with one deliberately
//! slow worker (`handler_delay_ms`) and a tiny admission queue must
//! shed excess load with typed `overloaded` errors, fire per-request
//! deadlines within tolerance, answer every *accepted* request
//! correctly, and drain gracefully on shutdown — zero admitted requests
//! dropped.

#![forbid(unsafe_code)]

use notable_characteristics::api::{NckService, QueryRequest, QueryResponse};
use notable_characteristics::prelude::GraphBuilder;
use notable_characteristics::serve::{serve, ClientError, ServeClient, ServeConfig, ServerHandle};
use std::sync::Arc;

/// Worker execution time injected into every request.
const DELAY_MS: u64 = 100;

fn toy_service() -> Arc<NckService> {
    let mut b = GraphBuilder::new();
    for (leader, subject) in [("Ada", "Math"), ("Grace", "Math"), ("Alan", "Logic")] {
        b.add_triple(leader, "studied", subject);
        b.add_triple(leader, "memberOf", "Pioneers");
    }
    Arc::new(
        NckService::builder()
            .knowledge_graph(b.build())
            .build()
            .expect("service builds"),
    )
}

fn slow_server(workers: usize, queue_depth: usize) -> ServerHandle {
    serve(
        toy_service(),
        "127.0.0.1:0",
        ServeConfig {
            workers,
            queue_depth,
            handler_delay_ms: DELAY_MS,
            ..ServeConfig::default()
        },
    )
    .expect("server binds")
}

/// The probe query: resolves to a typed `unknown_entity` answer, so a
/// "correct" response is cheap to verify and still exercises the full
/// admission → worker → response path.
fn probe() -> QueryRequest {
    QueryRequest::entities(["Nobody"])
}

#[test]
fn saturation_sheds_typed_overload_errors_and_answers_the_accepted() {
    // One worker sleeping 100 ms per request, two queue slots: a burst
    // of 8 pipelined requests can keep at most a handful in the system;
    // the rest must shed *immediately* with a typed error.
    let handle = slow_server(1, 2);
    let mut client = ServeClient::connect(handle.addr()).expect("connect");

    let started = std::time::Instant::now();
    let ids: Vec<u64> = (0..8)
        .map(|_| client.send(&probe()).expect("send"))
        .collect();

    let mut accepted = 0u64;
    let mut shed = 0u64;
    for id in ids {
        match client.recv(id) {
            Err(ClientError::Api(body)) if body.error == "unknown_entity" => accepted += 1,
            Err(ClientError::Api(body)) if body.error == "overloaded" => {
                assert!(
                    body.message.contains("queue full"),
                    "shed reason names the queue: {}",
                    body.message
                );
                shed += 1;
            }
            other => panic!("expected accepted or shed, got {other:?}"),
        }
    }
    assert_eq!(accepted + shed, 8, "every request answered exactly once");
    assert!(shed >= 1, "a 2-deep queue cannot absorb an 8-burst");
    // At least the two queue slots were admitted; whether the worker had
    // already popped one when the burst landed is a scheduling race.
    assert!(accepted >= 2, "the queue alone holds 2 (got {accepted})");
    // Sheds are immediate, not queued: total wall time is bounded by the
    // accepted requests' serial execution, far below 8 * DELAY_MS.
    let elapsed = started.elapsed().as_millis() as u64;
    assert!(
        elapsed < 8 * DELAY_MS,
        "shedding must not serialize behind the worker ({elapsed}ms)"
    );

    let metrics = handle.shutdown();
    assert_eq!(metrics.requests_admitted, accepted);
    assert_eq!(metrics.requests_shed, shed);
    assert_eq!(metrics.responses_ok, 0);
    assert_eq!(metrics.responses_err, 8);
}

#[test]
fn deadlines_fire_within_tolerance() {
    // One slow worker; request A occupies it for ~100 ms, request B
    // carries a 30 ms deadline and must age out in the queue.
    let handle = slow_server(1, 4);
    let mut client = ServeClient::connect(handle.addr()).expect("connect");

    let a = client.send(&probe()).expect("send A");
    let started = std::time::Instant::now();
    let b = client
        .send_with_deadline(&probe(), Some(30))
        .expect("send B");

    match client.recv(a) {
        Err(ClientError::Api(body)) => assert_eq!(body.error, "unknown_entity"),
        other => panic!("request A must be answered, got {other:?}"),
    }
    match client.recv(b) {
        Err(ClientError::Api(body)) => {
            assert_eq!(body.error, "deadline_exceeded");
            // The message carries both budget and actual elapsed time:
            // "deadline exceeded: 30ms allowed, NNNms elapsed".
            assert!(body.message.contains("30ms allowed"), "{}", body.message);
            let elapsed_ms: u64 = body
                .message
                .split("allowed, ")
                .nth(1)
                .and_then(|s| s.split("ms elapsed").next())
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| panic!("unparseable message {:?}", body.message));
            assert!(elapsed_ms >= 30, "fired only after the deadline");
            assert!(
                elapsed_ms <= 3 * DELAY_MS,
                "fired when the worker freed, not arbitrarily late ({elapsed_ms}ms)"
            );
        }
        other => panic!("request B must miss its deadline, got {other:?}"),
    }
    // The miss is reported as soon as the slow request releases the
    // worker — within one handler slot plus scheduling slack.
    let waited = started.elapsed().as_millis() as u64;
    assert!(waited <= 3 * DELAY_MS, "B answered late ({waited}ms)");

    let metrics = handle.shutdown();
    assert_eq!(metrics.deadline_misses, 1);
    assert_eq!(metrics.requests_admitted, 2);
    assert_eq!(metrics.requests_shed, 0);
}

#[test]
fn default_deadline_applies_to_requests_carrying_none() {
    let handle = serve(
        toy_service(),
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            queue_depth: 4,
            handler_delay_ms: DELAY_MS,
            default_deadline_ms: Some(30),
            ..ServeConfig::default()
        },
    )
    .expect("server binds");
    let mut client = ServeClient::connect(handle.addr()).expect("connect");
    // A occupies the worker past both deadlines; B (no explicit
    // deadline) inherits the 30 ms default and ages out queued.
    let a = client.send(&probe()).expect("send A");
    let b = client.send(&probe()).expect("send B");
    // A itself finishes at ~100 ms — also past the 30 ms default: the
    // post-execution check reports it too.
    for id in [a, b] {
        match client.recv(id) {
            Err(ClientError::Api(body)) => assert_eq!(body.error, "deadline_exceeded"),
            other => panic!("expected a deadline miss, got {other:?}"),
        }
    }
    let metrics = handle.shutdown();
    assert_eq!(metrics.deadline_misses, 2);
}

#[test]
fn graceful_drain_finishes_every_admitted_request() {
    // Four admitted slow requests in flight/queued, then shutdown: the
    // drain must finish and flush all four — zero dropped — while new
    // arrivals are shed.
    let handle = slow_server(1, 8);
    let addr = handle.addr();
    let mut client = ServeClient::connect(addr).expect("connect");
    let ids: Vec<u64> = (0..4)
        .map(|_| client.send(&probe()).expect("send"))
        .collect();
    // Let the reader admit all four before draining.
    std::thread::sleep(std::time::Duration::from_millis(30));
    assert_eq!(handle.metrics().requests_admitted, 4, "all four admitted");

    let drainer = std::thread::spawn(move || handle.shutdown());

    // Every admitted request is still answered, correctly, during drain.
    for id in ids {
        match client.recv(id) {
            Err(ClientError::Api(body)) => assert_eq!(body.error, "unknown_entity"),
            other => panic!("admitted request dropped in drain: {other:?}"),
        }
    }
    let metrics = drainer.join().expect("drain completes");
    assert_eq!(metrics.requests_admitted, 4);
    assert_eq!(metrics.responses_err, 4, "all four answers flushed");
    assert_eq!(metrics.deadline_misses, 0);

    // The drained server is gone: connecting (or being served) fails.
    match ServeClient::connect(addr) {
        Err(_) => {}
        Ok(mut late) => {
            let outcome = late.call(&probe());
            assert!(outcome.is_err(), "a drained server must not serve");
        }
    }
}

#[test]
fn requests_arriving_during_drain_are_shed_typed() {
    // A slow request pins the worker; shutdown starts; a request racing
    // the drain on an *already-open* connection is shed with a typed
    // error (readers keep polling ~25 ms, so there is a short window
    // where the frame is still read).
    let handle = slow_server(1, 8);
    let addr = handle.addr();
    let mut client = ServeClient::connect(addr).expect("connect");
    let a = client.send(&probe()).expect("send A");

    std::thread::sleep(std::time::Duration::from_millis(20));
    let drainer = std::thread::spawn(move || handle.shutdown());
    // Send the late request only once the drain has begun: the listener
    // is dropped after the drain flag is set and the queue is closed, so
    // a refused fresh connection proves both.
    let started = std::time::Instant::now();
    while std::net::TcpStream::connect(addr).is_ok() {
        assert!(
            started.elapsed() < std::time::Duration::from_secs(5),
            "the drain did not close the listener within 5 s"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    // Race one more request into the drain window.
    let late = client.send(&probe());

    match client.recv(a) {
        Err(ClientError::Api(body)) => assert_eq!(body.error, "unknown_entity"),
        other => panic!("admitted request dropped in drain: {other:?}"),
    }
    if let Ok(late_id) = late {
        match client.recv(late_id) {
            // Either the reader saw the drain flag and shed it typed…
            Err(ClientError::Api(body)) => assert_eq!(body.error, "overloaded"),
            // …or the connection closed before the frame was read.
            Err(ClientError::Io(_)) => {}
            Ok(response) => panic!("draining server served new work: {response:?}"),
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    let metrics = drainer.join().expect("drain completes");
    assert_eq!(metrics.requests_admitted, 1, "only the pre-drain request");
}

/// The connection budget: beyond `max_connections`, a new connection is
/// turned away with one typed `overloaded` frame, and existing clients
/// are unaffected.
#[test]
fn connection_limit_rejects_with_typed_error() {
    let handle = serve(
        toy_service(),
        "127.0.0.1:0",
        ServeConfig {
            max_connections: 1,
            ..ServeConfig::default()
        },
    )
    .expect("server binds");

    let mut first = ServeClient::connect(handle.addr()).expect("first connects");
    match first.call(&probe()) {
        Err(ClientError::Api(body)) => assert_eq!(body.error, "unknown_entity"),
        other => panic!("first client must be served, got {other:?}"),
    }

    let mut second = ServeClient::connect(handle.addr()).expect("TCP accepts");
    match second.call(&probe()) {
        Err(ClientError::Api(body)) => {
            assert_eq!(body.error, "overloaded");
            assert!(
                body.message.contains("connection limit"),
                "{}",
                body.message
            );
        }
        other => panic!("second client must be rejected, got {other:?}"),
    }

    // The first connection still works.
    match first.call(&probe()) {
        Err(ClientError::Api(body)) => assert_eq!(body.error, "unknown_entity"),
        other => panic!("first client broken by the rejection, got {other:?}"),
    }
    let metrics = handle.shutdown();
    assert_eq!(metrics.connections_rejected, 1);
    assert_eq!(metrics.connections_accepted, 1);
}

/// `QueryResponse` still flows under load: one fast server sanity check
/// that an accepted request under no contention returns `ok`.
#[test]
fn unloaded_server_answers_ok() {
    let mut b = GraphBuilder::new();
    for i in 0..12 {
        let name = format!("Leader {i}");
        b.add_triple(&name, "studied", "Law");
        b.add_triple(&name, "hasChild", &format!("Child {i}"));
        b.add_triple(&name, "memberOf", "G20");
    }
    b.add_triple("Leader 0", "studied", "Physics");
    // The toy graph is untyped: the default common-ancestor filter would
    // leave zero context candidates.
    let mut config = notable_characteristics::engine::EngineConfig::default();
    config.findnc.context.mining.walks = 2_000;
    config.findnc.context.type_filter = notable_characteristics::core::context::TypeFilter::None;
    config.findnc.context_size = 10;
    let service = Arc::new(
        NckService::builder()
            .knowledge_graph(b.build())
            .engine(config)
            .build()
            .expect("service builds"),
    );
    let handle =
        serve(Arc::clone(&service), "127.0.0.1:0", ServeConfig::default()).expect("server binds");
    let mut client = ServeClient::connect(handle.addr()).expect("connect");
    let request = QueryRequest::entities(["Leader 0", "Leader 1"]);
    let served: QueryResponse = client.call(&request).expect("served ok");
    assert_eq!(served.query, "Leader 0,Leader 1");
    let metrics = handle.shutdown();
    assert_eq!(metrics.responses_ok, 1);
}
