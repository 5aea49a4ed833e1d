//! The request/response envelopes that ride inside frames.
//!
//! Payloads are the **existing** `nck-api` JSON vocabulary —
//! [`QueryRequest`], [`QueryResponse`], [`ErrorBody`] — wrapped in a
//! minimal envelope carrying a client-chosen correlation `id` (responses
//! may be written out of submission order once requests fan across
//! workers) and an optional per-request deadline.
//!
//! Decoding is **strict**: unknown fields anywhere in the envelope, the
//! query, or its overrides are rejected with a typed
//! [`ApiError::Protocol`] instead of being silently dropped. On a wire
//! protocol, an ignored field is a misspelled option the client believes
//! is in effect — loud rejection is the only honest behavior.

use nck_api::{json, ApiError, ErrorBody, QueryOverrides, QueryRequest, QueryResponse};
use serde::{Deserialize, Serialize, Value};

/// One request frame: a correlation id, the query, and an optional
/// deadline in milliseconds (measured from the moment the server reads
/// the frame).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireRequest {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: u64,
    /// The query, in the exact `nck-api` schema.
    pub query: QueryRequest,
    /// Per-request deadline in milliseconds. Expired requests are
    /// answered with a typed `deadline_exceeded` error instead of a
    /// result — whether they aged out queued or finished too late.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub deadline_ms: Option<u64>,
}

/// One response frame: the echoed id plus exactly one of `ok` / `err`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireResponse {
    /// The request's correlation id (0 when the request was so malformed
    /// no id could be recovered).
    pub id: u64,
    /// The successful answer.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub ok: Option<QueryResponse>,
    /// The typed error ([`ApiError::body`]).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub err: Option<ErrorBody>,
}

impl WireResponse {
    /// A success response.
    pub fn ok(id: u64, response: QueryResponse) -> Self {
        Self {
            id,
            ok: Some(response),
            err: None,
        }
    }

    /// An error response.
    pub fn err(id: u64, error: &ApiError) -> Self {
        Self {
            id,
            ok: None,
            err: Some(error.body()),
        }
    }

    /// Serializes to the JSON payload bytes of one frame.
    pub fn to_payload(&self) -> Vec<u8> {
        json::to_string(self).into_bytes()
    }
}

/// The payload of a success frame whose answer is already JSON text
/// ([`NckService::query_json`](nck_api::NckService::query_json)):
/// `{"id":<id>,"ok":<answer>}`, the same bytes as
/// `WireResponse::ok(id, answer).to_payload()` for the decoded answer
/// ([`WireResponse::ok`], [`WireResponse::to_payload`]).
pub fn ok_payload(id: u64, answer: &str) -> Vec<u8> {
    let id = json::to_string(&id);
    let mut out = Vec::with_capacity(id.len() + answer.len() + 14);
    out.extend_from_slice(b"{\"id\":");
    out.extend_from_slice(id.as_bytes());
    out.extend_from_slice(b",\"ok\":");
    out.extend_from_slice(answer.as_bytes());
    out.push(b'}');
    out
}

/// Rejects map keys outside `allowed`.
fn check_keys(value: &Value, what: &str, allowed: &[&str]) -> Result<(), ApiError> {
    let entries = value
        .expect_map(what)
        .map_err(|e| ApiError::Protocol(e.to_string()))?;
    for (key, _) in entries {
        if !allowed.contains(&key.as_str()) {
            return Err(ApiError::Protocol(format!(
                "{what}: unknown field `{key}` (allowed: {})",
                allowed.join(", ")
            )));
        }
    }
    Ok(())
}

/// Strictly decodes one request payload.
///
/// Every failure is an [`ApiError::Protocol`]: invalid UTF-8, invalid
/// JSON, a non-map envelope, unknown fields (envelope, query, or
/// overrides), or type mismatches.
pub fn decode_request(payload: &[u8]) -> Result<WireRequest, ApiError> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| ApiError::Protocol(format!("payload is not UTF-8: {e}")))?;
    let value = json::parse(text).map_err(|e| ApiError::Protocol(format!("invalid JSON: {e}")))?;
    check_keys(&value, "request", &["id", "query", "deadline_ms"])?;
    if let Some(query) = value.get("query") {
        check_keys(
            query,
            "request.query",
            &["entities", "label", "top", "overrides"],
        )?;
        if let Some(overrides) = query.get("overrides") {
            if *overrides != Value::Null {
                check_keys(overrides, "request.query.overrides", QueryOverrides::FIELDS)?;
            }
        }
    }
    WireRequest::from_value(&value).map_err(|e| ApiError::Protocol(e.to_string()))
}

/// Decodes one response payload (the client side; also strict).
pub fn decode_response(payload: &[u8]) -> Result<WireResponse, ApiError> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| ApiError::Protocol(format!("payload is not UTF-8: {e}")))?;
    let value = json::parse(text).map_err(|e| ApiError::Protocol(format!("invalid JSON: {e}")))?;
    check_keys(&value, "response", &["id", "ok", "err"])?;
    WireResponse::from_value(&value).map_err(|e| ApiError::Protocol(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nck_api::Characteristic;

    fn request(id: u64) -> WireRequest {
        WireRequest {
            id,
            query: QueryRequest::entities(["Merkel", "Obama"]),
            deadline_ms: Some(250),
        }
    }

    #[test]
    fn request_round_trips() {
        let req = request(7);
        let payload = json::to_string(&req).into_bytes();
        assert_eq!(decode_request(&payload).unwrap(), req);
    }

    #[test]
    fn unknown_envelope_field_is_a_protocol_error() {
        let payload = br#"{"id":1,"query":{"entities":["A"]},"bogus":3}"#;
        let err = decode_request(payload).unwrap_err();
        assert_eq!(err.code(), "protocol");
        assert!(err.to_string().contains("bogus"), "{err}");
    }

    #[test]
    fn unknown_query_field_is_a_protocol_error() {
        let payload = br#"{"id":1,"query":{"entities":["A"],"topk":5}}"#;
        let err = decode_request(payload).unwrap_err();
        assert_eq!(err.code(), "protocol");
        assert!(err.to_string().contains("topk"), "{err}");
    }

    /// A misspelled key and the retired performance knobs alike: each is
    /// a typed protocol error naming the field, never silently ignored.
    #[test]
    fn unknown_override_field_is_a_protocol_error() {
        for field in ["walk", "threads", "ppr_block_width", "score_sweep"] {
            let payload =
                format!(r#"{{"id":1,"query":{{"entities":["A"],"overrides":{{"{field}":1}}}}}}"#);
            let err = decode_request(payload.as_bytes()).unwrap_err();
            assert_eq!(err.code(), "protocol", "{field}");
            assert!(err.to_string().contains(&format!("`{field}`")), "{err}");
        }
    }

    #[test]
    fn invalid_json_and_non_map_envelopes_are_protocol_errors() {
        assert_eq!(decode_request(b"{\"id\":").unwrap_err().code(), "protocol");
        assert_eq!(decode_request(b"[1,2,3]").unwrap_err().code(), "protocol");
        assert_eq!(
            decode_request(&[0xff, 0xfe]).unwrap_err().code(),
            "protocol"
        );
    }

    /// The spliced success frame is the generic envelope's bytes.
    #[test]
    fn ok_payload_matches_the_generic_envelope() {
        let answer = QueryResponse {
            query: "A,\"B\"".into(),
            context_size: 1,
            context: vec!["C\\n".into()],
            characteristics: vec![Characteristic {
                label: "l".into(),
                score: 2.0,
                notable: true,
                inst_p: Some(1e-300),
                card_p: None,
            }],
            secs: Some(0.25),
        };
        for id in [0, 7, u64::MAX] {
            assert_eq!(
                ok_payload(id, &json::to_string(&answer)),
                WireResponse::ok(id, answer.clone()).to_payload()
            );
        }
    }

    #[test]
    fn response_round_trips_ok_and_err() {
        let ok = WireResponse::ok(
            3,
            QueryResponse {
                query: "A,B".into(),
                context_size: 0,
                context: vec![],
                characteristics: vec![],
                secs: None,
            },
        );
        assert_eq!(decode_response(&ok.to_payload()).unwrap(), ok);

        let err = WireResponse::err(4, &ApiError::Overloaded("queue full".into()));
        let back = decode_response(&err.to_payload()).unwrap();
        assert_eq!(back.err.as_ref().unwrap().error, "overloaded");
        assert_eq!(back.id, 4);
    }
}
