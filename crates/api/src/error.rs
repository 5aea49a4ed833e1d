//! The [`ApiError`] taxonomy — every way a service call can fail.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::PathBuf;

/// Errors surfaced by [`NckService`](crate::NckService) and its builder.
///
/// The taxonomy separates *caller* faults (bad request, unknown entity)
/// from *environment* faults (I/O, parse) and *pipeline* faults, so a
/// transport layer can map them onto status codes mechanically — see
/// [`ApiError::code`] and [`ApiError::body`].
#[derive(Debug)]
pub enum ApiError {
    /// A data file could not be read.
    Io {
        /// The offending path.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// A data file could not be parsed.
    Parse {
        /// The offending path.
        path: PathBuf,
        /// What went wrong.
        message: String,
    },
    /// The service was built without a data source, or with inconsistent
    /// builder settings.
    InvalidConfig(String),
    /// A request referenced an entity name the graph does not contain.
    UnknownEntity(String),
    /// A request was structurally invalid (empty entity list, duplicate
    /// entities, unsupported combination of options).
    InvalidRequest(String),
    /// The search pipeline itself failed.
    Pipeline(nck_core::error::CoreError),
    /// The server shed the request: its bounded admission queue (or
    /// connection budget) was full, or it was draining for shutdown.
    /// A transport maps this to 503; the client may retry elsewhere or
    /// back off.
    Overloaded(String),
    /// The request's deadline expired before an answer could be
    /// delivered — either it aged out in the admission queue or
    /// execution finished too late to be useful.
    DeadlineExceeded {
        /// The deadline the request carried, in milliseconds.
        deadline_ms: u64,
        /// Milliseconds actually elapsed when the server gave up.
        elapsed_ms: u64,
    },
    /// The bytes on the wire were not a well-formed request: a frame
    /// exceeding the size limit, invalid JSON, a malformed envelope, or
    /// unknown fields. The connection may be closed afterwards when the
    /// stream cannot be resynchronized.
    Protocol(String),
}

impl ApiError {
    /// A stable machine-readable code for the error class.
    pub fn code(&self) -> &'static str {
        match self {
            ApiError::Io { .. } => "io",
            ApiError::Parse { .. } => "parse",
            ApiError::InvalidConfig(_) => "invalid_config",
            ApiError::UnknownEntity(_) => "unknown_entity",
            ApiError::InvalidRequest(_) => "invalid_request",
            ApiError::Pipeline(_) => "pipeline",
            ApiError::Overloaded(_) => "overloaded",
            ApiError::DeadlineExceeded { .. } => "deadline_exceeded",
            ApiError::Protocol(_) => "protocol",
        }
    }

    /// The serializable wire form of the error.
    pub fn body(&self) -> ErrorBody {
        ErrorBody {
            error: self.code().to_owned(),
            message: self.to_string(),
        }
    }

    /// Maps a query-resolution failure onto the API taxonomy: unknown
    /// names become [`ApiError::UnknownEntity`], structural problems
    /// become [`ApiError::InvalidRequest`].
    pub(crate) fn from_resolution(e: nck_core::error::CoreError) -> Self {
        use nck_core::error::CoreError;
        match e {
            CoreError::UnknownNode(name) => ApiError::UnknownEntity(name),
            CoreError::Graph(nck_graph::GraphError::UnknownNode(name)) => {
                ApiError::UnknownEntity(name)
            }
            e @ (CoreError::EmptyQuery
            | CoreError::QueryTooLarge { .. }
            | CoreError::DuplicateQueryNode(_)) => ApiError::InvalidRequest(e.to_string()),
            other => ApiError::Pipeline(other),
        }
    }
}

/// The serializable wire form of an [`ApiError`].
///
/// `Deserialize` as well as `Serialize`: a socket client decodes error
/// frames back into this struct, so the typed `error` code — not string
/// matching on messages — is what distinguishes an overload shed from a
/// deadline miss from a malformed frame.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErrorBody {
    /// Machine-readable class ([`ApiError::code`]).
    pub error: String,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApiError::Io { path, source } => {
                write!(f, "cannot read {}: {source}", path.display())
            }
            ApiError::Parse { path, message } => {
                write!(f, "cannot parse {}: {message}", path.display())
            }
            ApiError::InvalidConfig(message) => write!(f, "invalid service config: {message}"),
            ApiError::UnknownEntity(name) => write!(f, "unknown entity {name:?}"),
            ApiError::InvalidRequest(message) => write!(f, "invalid request: {message}"),
            ApiError::Pipeline(e) => write!(f, "pipeline error: {e}"),
            ApiError::Overloaded(reason) => write!(f, "server overloaded: {reason}"),
            ApiError::DeadlineExceeded {
                deadline_ms,
                elapsed_ms,
            } => write!(
                f,
                "deadline exceeded: {deadline_ms}ms allowed, {elapsed_ms}ms elapsed"
            ),
            ApiError::Protocol(message) => write!(f, "protocol error: {message}"),
        }
    }
}

impl std::error::Error for ApiError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ApiError::Io { source, .. } => Some(source),
            ApiError::Pipeline(e) => Some(e),
            _ => None,
        }
    }
}

impl From<nck_core::error::CoreError> for ApiError {
    fn from(e: nck_core::error::CoreError) -> Self {
        ApiError::Pipeline(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolution_errors_map_to_caller_faults() {
        use nck_core::error::CoreError;
        let e = ApiError::from_resolution(CoreError::UnknownNode("X".into()));
        assert!(matches!(e, ApiError::UnknownEntity(ref n) if n == "X"));
        let e = ApiError::from_resolution(CoreError::EmptyQuery);
        assert!(matches!(e, ApiError::InvalidRequest(_)));
        let e = ApiError::from_resolution(CoreError::EmptyContext);
        assert!(matches!(e, ApiError::Pipeline(_)));
    }

    #[test]
    fn body_serializes_code_and_message() {
        let body = ApiError::UnknownEntity("Merkel".into()).body();
        assert_eq!(
            serde::json::to_string(&body),
            r#"{"error":"unknown_entity","message":"unknown entity \"Merkel\""}"#
        );
    }

    #[test]
    fn serving_errors_carry_stable_codes() {
        assert_eq!(
            ApiError::Overloaded("queue full".into()).code(),
            "overloaded"
        );
        let deadline = ApiError::DeadlineExceeded {
            deadline_ms: 30,
            elapsed_ms: 105,
        };
        assert_eq!(deadline.code(), "deadline_exceeded");
        assert!(deadline.to_string().contains("30ms"), "{deadline}");
        assert!(deadline.to_string().contains("105ms"), "{deadline}");
        assert_eq!(ApiError::Protocol("bad frame".into()).code(), "protocol");
    }

    #[test]
    fn error_body_round_trips_through_json() {
        let body = ApiError::Overloaded("admission queue full (depth 64)".into()).body();
        let text = serde::json::to_string(&body);
        let back: ErrorBody = serde::json::from_str(&text).unwrap();
        assert_eq!(back, body, "a client decodes exactly what the server sent");
        assert_eq!(back.error, "overloaded");
    }
}
