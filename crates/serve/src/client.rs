//! A small blocking client for the framed protocol.
//!
//! One [`ServeClient`] wraps one TCP connection and speaks the
//! request/response envelope synchronously: [`call`](ServeClient::call)
//! writes a frame, reads frames until the response carrying its
//! correlation id arrives, and returns either the decoded
//! [`QueryResponse`] or the server's typed [`ErrorBody`]. Responses for
//! other ids (possible once a caller pipelines requests by hand) are
//! parked and picked up by their own waiters.

use crate::frame::{self, FrameEvent};
use crate::wire::{self, WireRequest, WireResponse};
use nck_api::{ErrorBody, QueryRequest, QueryResponse};
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};

/// Why a client call failed *without* a server answer. A server-side
/// rejection (overload shed, deadline miss, protocol complaint, query
/// fault) is the `Api` variant, carrying the typed [`ErrorBody`].
#[derive(Debug)]
pub enum ClientError {
    /// The server answered with a typed error.
    Api(ErrorBody),
    /// The connection failed or closed before an answer arrived.
    Io(io::Error),
    /// The server's bytes did not decode as a response.
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Api(body) => write!(f, "server error [{}]: {}", body.error, body.message),
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Protocol(m) => write!(f, "undecodable response: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Default client-side cap on response payloads (16 MiB).
pub const CLIENT_MAX_FRAME: usize = 16 << 20;

/// One blocking connection to an `nck serve` instance.
pub struct ServeClient {
    stream: TcpStream,
    next_id: u64,
    max_frame: usize,
    /// Responses read while waiting for a different id.
    parked: HashMap<u64, WireResponse>,
}

impl ServeClient {
    /// Connects to the server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            next_id: 1,
            max_frame: CLIENT_MAX_FRAME,
            parked: HashMap::new(),
        })
    }

    /// Sends one query and blocks for its answer.
    pub fn call(&mut self, query: &QueryRequest) -> Result<QueryResponse, ClientError> {
        self.call_with_deadline(query, None)
    }

    /// Sends one query carrying a server-side deadline and blocks for
    /// its answer (which may be a typed `deadline_exceeded` error).
    pub fn call_with_deadline(
        &mut self,
        query: &QueryRequest,
        deadline_ms: Option<u64>,
    ) -> Result<QueryResponse, ClientError> {
        let id = self.send_with_deadline(query, deadline_ms)?;
        self.recv(id)
    }

    /// Writes one request frame without waiting; returns its correlation
    /// id for a later [`recv`](Self::recv). Pipelining: several sends
    /// may be outstanding at once.
    pub fn send(&mut self, query: &QueryRequest) -> Result<u64, ClientError> {
        self.send_with_deadline(query, None)
    }

    /// [`send`](Self::send) with a server-side deadline.
    pub fn send_with_deadline(
        &mut self,
        query: &QueryRequest,
        deadline_ms: Option<u64>,
    ) -> Result<u64, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let request = WireRequest {
            id,
            query: query.clone(),
            deadline_ms,
        };
        let payload = nck_api::json::to_string(&request).into_bytes();
        frame::write_frame(&mut self.stream, &payload, self.max_frame)?;
        Ok(id)
    }

    /// Blocks for the response to correlation id `id`.
    pub fn recv(&mut self, id: u64) -> Result<QueryResponse, ClientError> {
        let response = loop {
            if let Some(found) = self.parked.remove(&id) {
                break found;
            }
            let response = self.read_response()?;
            if response.id == id {
                break response;
            }
            // An uncorrelated error (id 0) means the server could not
            // recover which request went wrong — or rejected the
            // connection itself. Deliver it to the current waiter
            // instead of parking it forever.
            if response.id == 0 && response.err.is_some() {
                break response;
            }
            self.parked.insert(response.id, response);
        };
        match (response.ok, response.err) {
            (Some(ok), None) => Ok(ok),
            (None, Some(err)) => Err(ClientError::Api(err)),
            (ok, err) => Err(ClientError::Protocol(format!(
                "response must carry exactly one of ok/err (ok: {}, err: {})",
                ok.is_some(),
                err.is_some()
            ))),
        }
    }

    fn read_response(&mut self) -> Result<WireResponse, ClientError> {
        // The stream has no read timeout: Idle cannot occur, and a large
        // tick budget keeps slow (but live) servers inside patience.
        match frame::read_frame(&mut self.stream, self.max_frame, u32::MAX)? {
            FrameEvent::Frame(payload) => {
                wire::decode_response(&payload).map_err(|e| ClientError::Protocol(e.to_string()))
            }
            FrameEvent::Eof => Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))),
            FrameEvent::Idle => unreachable!("no read timeout is set"),
            FrameEvent::TooLarge(len) => Err(ClientError::Protocol(format!(
                "server response of {len} bytes exceeds the client's {}-byte limit",
                self.max_frame
            ))),
        }
    }
}
