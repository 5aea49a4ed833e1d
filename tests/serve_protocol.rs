//! Adversarial wire tests: whatever bytes arrive — truncated frames,
//! oversize length prefixes, garbage payloads, invalid JSON, unknown
//! fields, mid-request disconnects — the server answers with a typed
//! `ApiError` or closes the connection cleanly. It never wedges and
//! never crashes: after every hostile act the same server must still
//! answer a well-formed request.
//!
//! A proptest rounds out the suite by round-tripping request framing
//! (arbitrary payload bytes and envelope contents) through the codec.

#![forbid(unsafe_code)]

use notable_characteristics::api::{json, JsonValue, NckService, QueryRequest};
use notable_characteristics::prelude::GraphBuilder;
use notable_characteristics::serve::{
    serve, ClientError, ServeClient, ServeConfig, ServerHandle, WireRequest,
};
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// A deliberately small frame limit so oversize behavior is cheap to hit.
const MAX_FRAME: usize = 4096;

/// A 3-leader toy service: protocol tests need liveness round trips,
/// not pipeline depth.
fn toy_server() -> ServerHandle {
    let mut b = GraphBuilder::new();
    for (leader, subject) in [("Ada", "Math"), ("Grace", "Math"), ("Alan", "Logic")] {
        b.add_triple(leader, "studied", subject);
        b.add_triple(leader, "memberOf", "Pioneers");
    }
    let service = Arc::new(
        NckService::builder()
            .knowledge_graph(b.build())
            .build()
            .expect("service builds"),
    );
    serve(
        service,
        "127.0.0.1:0",
        ServeConfig {
            max_frame_bytes: MAX_FRAME,
            ..ServeConfig::default()
        },
    )
    .expect("server binds")
}

/// The liveness probe: a full round trip on a fresh connection. The
/// query names an unknown entity, so the *service* answers a typed
/// `unknown_entity` — proof the accept loop, a reader, the queue, a
/// worker and a writer are all still standing.
fn assert_server_alive(handle: &ServerHandle) {
    let mut client = ServeClient::connect(handle.addr()).expect("fresh connection");
    match client.call(&QueryRequest::entities(["Nobody"])) {
        Err(ClientError::Api(body)) => assert_eq!(body.error, "unknown_entity"),
        other => panic!("expected a typed API error, got {other:?}"),
    }
}

/// Reads one response frame raw and returns the decoded error code.
fn read_error_code(stream: &mut TcpStream) -> String {
    let mut prefix = [0u8; 4];
    stream.read_exact(&mut prefix).expect("response prefix");
    let len = u32::from_be_bytes(prefix) as usize;
    assert!(len < 1 << 20, "sane response size");
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).expect("response payload");
    let text = std::str::from_utf8(&payload).expect("UTF-8 response");
    let value = json::parse(text).expect("JSON response");
    value
        .get("err")
        .and_then(|e| e.get("error"))
        .and_then(|c| match c {
            JsonValue::Str(s) => Some(s.clone()),
            _ => None,
        })
        .expect("typed error body")
}

/// Writes a raw frame: 4-byte big-endian length prefix + payload.
fn write_raw_frame(stream: &mut TcpStream, payload: &[u8]) {
    stream
        .write_all(&(payload.len() as u32).to_be_bytes())
        .and_then(|()| stream.write_all(payload))
        .and_then(|()| stream.flush())
        .expect("raw frame write");
}

#[test]
fn oversize_prefix_gets_typed_error_then_close() {
    let handle = toy_server();
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    // Claim 256 MiB without sending a byte of payload.
    stream
        .write_all(&(256u32 << 20).to_be_bytes())
        .expect("prefix write");
    assert_eq!(read_error_code(&mut stream), "protocol");
    // The stream cannot be resynchronized: the server closes it.
    let mut rest = Vec::new();
    assert_eq!(stream.read_to_end(&mut rest).expect("close"), 0);
    assert_server_alive(&handle);
    assert_eq!(handle.metrics().frames_malformed, 1);
    handle.shutdown();
}

#[test]
fn truncated_frame_closes_cleanly_without_wedging() {
    let handle = toy_server();
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    // Promise 100 bytes, deliver 10, hang up the write side.
    stream.write_all(&100u32.to_be_bytes()).expect("prefix");
    stream.write_all(b"ten bytes!").expect("partial payload");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    // No response is owed for half a request; the server just closes.
    let mut rest = Vec::new();
    assert_eq!(stream.read_to_end(&mut rest).expect("close"), 0);
    assert_server_alive(&handle);
    assert_eq!(handle.metrics().frames_malformed, 1);
    handle.shutdown();
}

#[test]
fn mid_request_disconnect_is_survived() {
    let handle = toy_server();
    {
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        stream.write_all(&64u32.to_be_bytes()).expect("prefix");
        stream.write_all(b"{\"id\":").expect("fragment");
        // Dropped here: a full disconnect mid-frame, no half-close.
    }
    assert_server_alive(&handle);
    let metrics = handle.shutdown();
    assert_eq!(metrics.frames_malformed, 1);
    assert_eq!(metrics.requests_admitted, 1, "only the liveness probe");
}

/// Malformed payloads inside intact framing: the connection survives and
/// each rejection is a typed `protocol` error correlating to the sent id
/// where one can be recovered.
#[test]
fn garbage_payloads_get_typed_errors_and_the_connection_survives() {
    let handle = toy_server();
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    for payload in [
        b"not json at all".as_slice(),
        b"{\"id\":3,",                                                // invalid JSON
        b"[1,2,3]",                                                   // non-map envelope
        &[0xff, 0xfe, 0x00],                                          // invalid UTF-8
        b"{\"id\":9,\"query\":{\"entities\":[\"Ada\"]},\"bogus\":1}", // unknown envelope field
        b"{\"id\":9,\"query\":{\"entities\":[\"Ada\"],\"topk\":5}}",  // unknown query field
        b"{\"id\":9,\"query\":{\"entities\":[\"Ada\"],\"overrides\":{\"walk\":1}}}",
    ] {
        write_raw_frame(&mut stream, payload);
        assert_eq!(read_error_code(&mut stream), "protocol");
    }
    // Same connection, now a well-formed request: still served.
    let request = WireRequest {
        id: 77,
        query: QueryRequest::entities(["Nobody"]),
        deadline_ms: None,
    };
    write_raw_frame(&mut stream, json::to_string(&request).as_bytes());
    assert_eq!(read_error_code(&mut stream), "unknown_entity");

    let metrics = handle.shutdown();
    assert_eq!(metrics.frames_malformed, 7);
    assert_eq!(metrics.requests_admitted, 1);
}

/// Unknown-field rejections echo the recovered correlation id, so a
/// pipelining client can tell *which* request was malformed.
#[test]
fn recovered_ids_correlate_protocol_errors() {
    let handle = toy_server();
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    write_raw_frame(
        &mut stream,
        b"{\"id\":42,\"query\":{\"entities\":[\"Ada\"]},\"bogus\":1}",
    );
    let mut prefix = [0u8; 4];
    stream.read_exact(&mut prefix).expect("prefix");
    let mut payload = vec![0u8; u32::from_be_bytes(prefix) as usize];
    stream.read_exact(&mut payload).expect("payload");
    let value = json::parse(std::str::from_utf8(&payload).unwrap()).unwrap();
    assert_eq!(value.get("id"), Some(&JsonValue::UInt(42)));
    handle.shutdown();
}

/// A request frame over the server limit but within its drain budget is
/// answered with a typed `protocol` error and the connection *survives*
/// — the server drains the oversize payload to keep the stream in sync
/// instead of racing the client's write with a reset.
#[test]
fn oversize_payload_gets_typed_error_and_the_connection_survives() {
    let handle = toy_server();
    let mut client = ServeClient::connect(handle.addr()).expect("connect");
    // ~50 KiB of entities: over the 4 KiB server limit, under the
    // client's own 16 MiB encoder limit and the server's drain budget.
    let huge = QueryRequest::entities((0..MAX_FRAME).map(|i| format!("Entity {i}")));
    match client.call(&huge) {
        Err(ClientError::Api(body)) => {
            assert_eq!(body.error, "protocol");
            assert!(body.message.contains("exceeds"), "{}", body.message);
        }
        other => panic!("expected a typed protocol error, got {other:?}"),
    }
    // Same connection, next request: still served.
    match client.call(&QueryRequest::entities(["Nobody"])) {
        Err(ClientError::Api(body)) => assert_eq!(body.error, "unknown_entity"),
        other => panic!("expected a typed API error, got {other:?}"),
    }
    assert_server_alive(&handle);
    assert_eq!(handle.metrics().frames_malformed, 1);
    handle.shutdown();
}

/// A served answer's payload is, byte for byte, the generic envelope
/// `WireResponse::ok(id, answer).to_payload()` around the in-process
/// answer carrying the frame's own `secs` — for the request that encodes
/// the cached answer and for the repeats that splice it.
#[test]
fn served_answer_bytes_equal_the_generic_envelope() {
    use notable_characteristics::core::config::PathMiningConfig;
    use notable_characteristics::core::context::TypeFilter;
    use notable_characteristics::engine::EngineConfig;
    use notable_characteristics::serve::WireResponse;

    let mut b = GraphBuilder::new();
    b.add_triple("Merkel", "memberOf", "G20");
    b.add_triple("Obama \"44\"", "memberOf", "G20");
    b.add_triple("Obama \"44\"", "hasChild", "Malia");
    for i in 0..20 {
        let leader = format!("leader{i} é");
        b.add_triple(&leader, "memberOf", "G20");
        b.add_triple(&leader, "hasChild", &format!("child{i}"));
        b.add_triple(&leader, "studied", ["Law", "Math"][i % 2]);
    }
    let mut config = EngineConfig::default();
    config.findnc.context.mining = PathMiningConfig {
        walks: 2_000,
        ..PathMiningConfig::default()
    };
    config.findnc.context.type_filter = TypeFilter::None;
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
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    let plain = QueryRequest::entities(["Merkel", "Obama \"44\""]);
    let mut cut = plain.clone();
    cut.top = Some(1);
    cut.label = Some("tag\n\u{1}".into());
    for (id, query) in [(1, &plain), (u64::MAX, &plain), (0, &cut)] {
        let request = WireRequest {
            id,
            query: query.clone(),
            deadline_ms: None,
        };
        write_raw_frame(&mut stream, json::to_string(&request).as_bytes());
        let mut prefix = [0u8; 4];
        stream.read_exact(&mut prefix).expect("prefix");
        let mut payload = vec![0u8; u32::from_be_bytes(prefix) as usize];
        stream.read_exact(&mut payload).expect("payload");
        let text = std::str::from_utf8(&payload).expect("UTF-8 response");
        let secs = text
            .rsplit_once("\"secs\":")
            .and_then(|(_, tail)| tail.strip_suffix("}}"))
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("an answer ending in secs: {text}"));
        let mut answer = service.query(query).expect("in-process answer");
        assert!(!answer.characteristics.is_empty());
        answer.secs = Some(secs);
        assert_eq!(text.as_bytes(), WireResponse::ok(id, answer).to_payload());
    }
    handle.shutdown();
}

/// A name strategy: 1–12 lowercase letters (the vendored proptest has
/// no regex strategies, so names are built from byte vectors).
fn name_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(b'a'..=b'z', 1..13)
        .prop_map(|bytes| String::from_utf8(bytes).expect("ascii"))
}

/// `Option<T>` strategy (the vendored proptest has no `option::of`).
fn option_of<S>(inner: S) -> impl Strategy<Value = Option<S::Value>>
where
    S: Strategy + 'static,
    S::Value: Clone,
{
    prop_oneof![Just(None).boxed(), inner.prop_map(Some).boxed(),]
}

proptest! {
    /// Any payload that fits the limit round-trips through the framing
    /// codec byte-for-byte.
    #[test]
    fn framing_round_trips_arbitrary_payloads(
        payload in prop::collection::vec(0u8..=255, 0..2048),
    ) {
        use notable_characteristics::serve::frame::{self, FrameEvent};
        let mut wire = Vec::new();
        frame::write_frame(&mut wire, &payload, MAX_FRAME).unwrap();
        prop_assert_eq!(wire.len(), payload.len() + 4);
        let mut cursor = std::io::Cursor::new(wire);
        match frame::read_frame(&mut cursor, MAX_FRAME, 1).unwrap() {
            FrameEvent::Frame(got) => prop_assert_eq!(got, payload),
            other => prop_assert!(false, "expected a frame, got {:?}", other),
        }
        prop_assert!(matches!(
            frame::read_frame(&mut cursor, MAX_FRAME, 1).unwrap(),
            FrameEvent::Eof
        ));
    }

    /// Arbitrary request envelopes survive encode → strict decode.
    #[test]
    fn request_envelopes_round_trip(
        id in 0u64..=u64::MAX,
        entities in prop::collection::vec(name_strategy(), 1..5),
        top in option_of(1usize..100),
        deadline_ms in option_of(1u64..10_000),
    ) {
        let mut query = QueryRequest::entities(entities);
        query.top = top;
        let request = WireRequest { id, query, deadline_ms };
        let payload = json::to_string(&request).into_bytes();
        let decoded = notable_characteristics::serve::wire::decode_request(&payload)
            .expect("strict decode accepts its own encoding");
        prop_assert_eq!(decoded, request);
    }

    /// Truncating a valid frame anywhere — prefix or payload — never
    /// yields a frame, panics, or hangs: it is a clean EOF (nothing
    /// sent), or an error.
    #[test]
    fn truncation_never_yields_a_frame(
        payload in prop::collection::vec(0u8..=255, 1..256),
        cut_fraction in 0.0f64..1.0,
    ) {
        use notable_characteristics::serve::frame::{self, FrameEvent};
        let mut wire = Vec::new();
        frame::write_frame(&mut wire, &payload, MAX_FRAME).unwrap();
        let cut = ((wire.len() as f64 * cut_fraction) as usize).min(wire.len() - 1);
        let mut cursor = std::io::Cursor::new(wire[..cut].to_vec());
        match frame::read_frame(&mut cursor, MAX_FRAME, 1) {
            Ok(FrameEvent::Eof) => prop_assert_eq!(cut, 0, "Eof only when nothing was sent"),
            Ok(other) => prop_assert!(false, "truncated input produced {:?}", other),
            Err(e) => prop_assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
        }
    }
}
