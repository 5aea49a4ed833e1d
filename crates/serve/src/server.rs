//! The accept loop, admission control, worker pool, and drain logic.
//!
//! ```text
//!                    ┌────────────── Server ──────────────┐
//!  TCP connect ──►  accept thread ──► reader thread (per conn)
//!                        │                  │ decode + admit
//!                        │                  ▼
//!                        │          Bounded admission queue ──► worker pool
//!                        │            │ full → overloaded          │
//!                        │            │ draining → overloaded      │ deadline check
//!                        │                                         ▼
//!                        │                         NckService::query_json
//!                        │                                         │
//!  response frame ◄──────┴───────────── per-connection writer ◄────┘
//! ```
//!
//! Life of a request: the reader decodes its frame (malformed input is
//! answered with a typed `protocol` error, or the connection is closed
//! when the stream cannot be resynchronized), then *admits* it into the
//! bounded queue — at capacity the request is shed immediately with a
//! typed `overloaded` error rather than queued into unbounded latency.
//! A worker later pops it, first re-checking the deadline (requests can
//! age out while queued) and re-checking it again after execution: an
//! answer the client's deadline already expired on is reported as
//! `deadline_exceeded`, not as a stale success.
//!
//! A success is answered without rebuilding the response:
//! [`NckService::query_json`] splices the answer from JSON stored with
//! its result-cache entry (encoded by the entry's first request), and
//! [`wire::ok_payload`] wraps it in the envelope — the same bytes
//! [`WireResponse::ok`] would encode. Error frames go through
//! [`WireResponse::err`].
//!
//! Shutdown is a drain, not an abort: [`ServerHandle::shutdown`] stops
//! the accept loop, closes admission (late arrivals are shed as
//! overloaded), lets the workers finish every already-admitted request,
//! waits for the responses to flush, and only then closes the sockets —
//! zero admitted requests are ever dropped.

use crate::frame::{self, FrameEvent};
use crate::queue::{Bounded, PushError};
use crate::wire::{self, WireResponse};
use nck_api::{ApiError, NckService, QueryRequest};
use serde::Serialize;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing admitted requests.
    pub workers: usize,
    /// Bounded admission-queue depth; requests beyond it are shed with
    /// a typed `overloaded` error instead of queued into unbounded
    /// latency.
    pub queue_depth: usize,
    /// Maximum simultaneously open client connections; beyond it a new
    /// connection receives one `overloaded` error frame and is closed.
    pub max_connections: usize,
    /// Maximum accepted request-frame payload, in bytes. Oversize
    /// prefixes are rejected with a typed `protocol` error before any
    /// payload byte is read.
    pub max_frame_bytes: usize,
    /// Deadline applied to requests that carry none (`None` = no
    /// default; such requests never age out).
    pub default_deadline_ms: Option<u64>,
    /// Fault injection for load tests: each admitted request sleeps
    /// this long before executing, simulating a slow handler so
    /// saturation/shedding behavior can be driven deterministically.
    /// 0 (the default) disables it.
    pub handler_delay_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_depth: 64,
            max_connections: 256,
            max_frame_bytes: 1 << 20,
            default_deadline_ms: None,
            handler_delay_ms: 0,
        }
    }
}

/// A monotonic counter snapshot of the server's behavior.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ServeMetrics {
    /// Connections accepted into service.
    pub connections_accepted: u64,
    /// Connections turned away at the connection limit.
    pub connections_rejected: u64,
    /// Malformed inputs observed (oversize prefixes, undecodable
    /// payloads, truncated frames, mid-frame disconnects).
    pub frames_malformed: u64,
    /// Requests admitted into the queue.
    pub requests_admitted: u64,
    /// Requests shed (queue full, or arriving during drain).
    pub requests_shed: u64,
    /// Requests answered `deadline_exceeded` (aged out queued, or
    /// finished past their deadline).
    pub deadline_misses: u64,
    /// Successful responses written.
    pub responses_ok: u64,
    /// Error responses written (all codes, including sheds).
    pub responses_err: u64,
}

#[derive(Default)]
struct Counters {
    connections_accepted: AtomicU64,
    connections_rejected: AtomicU64,
    frames_malformed: AtomicU64,
    requests_admitted: AtomicU64,
    requests_shed: AtomicU64,
    deadline_misses: AtomicU64,
    responses_ok: AtomicU64,
    responses_err: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> ServeMetrics {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        ServeMetrics {
            connections_accepted: get(&self.connections_accepted),
            connections_rejected: get(&self.connections_rejected),
            frames_malformed: get(&self.frames_malformed),
            requests_admitted: get(&self.requests_admitted),
            requests_shed: get(&self.requests_shed),
            deadline_misses: get(&self.deadline_misses),
            responses_ok: get(&self.responses_ok),
            responses_err: get(&self.responses_err),
        }
    }
}

/// One client connection's write half, shared between the reader (for
/// immediate protocol/shed errors) and the workers (for answers).
/// Writes are serialized by the mutex; frames from different workers
/// interleave whole, never byte-wise.
struct Connection {
    writer: Mutex<TcpStream>,
    /// Admitted requests whose response has not been written yet. The
    /// reader keeps the connection open until this drains.
    pending: AtomicUsize,
}

/// One admitted request.
struct Job {
    conn: Arc<Connection>,
    id: u64,
    query: QueryRequest,
    /// Absolute deadline (request's own, or the configured default).
    deadline: Option<Instant>,
    deadline_ms: Option<u64>,
    received: Instant,
}

struct Shared {
    service: Arc<NckService>,
    config: ServeConfig,
    queue: Bounded<Job>,
    counters: Counters,
    draining: AtomicBool,
    open_connections: AtomicUsize,
    in_flight: AtomicUsize,
}

/// Read-timeout tick used by connection readers to poll the drain flag.
const POLL: Duration = Duration::from_millis(25);
/// Mid-frame stall patience, in `POLL` ticks (≈ 5 s).
const STALL_TICKS: u32 = 200;

impl Shared {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Writes one response frame; counts it.
    fn respond(&self, conn: &Connection, response: WireResponse) {
        self.write(conn, &response.to_payload(), response.err.is_some());
    }

    /// Writes one encoded response frame; counts it as an error frame
    /// or an answer. Write failures mean the client is gone — the
    /// response is dropped on the floor by design.
    fn write(&self, conn: &Connection, payload: &[u8], is_err: bool) {
        // Poison recovery: a worker that panicked mid-write at worst
        // left a torn frame on *this* connection's stream (the client
        // sees a protocol error and reconnects); propagating the
        // poison would instead panic every worker that still owes this
        // connection a response.
        let mut writer = conn
            .writer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // Responses are server-built and trusted; they are not subject
        // to the request-frame limit.
        if frame::write_frame(&mut *writer, payload, u32::MAX as usize).is_ok() {
            if is_err {
                self.counters.responses_err.fetch_add(1, Ordering::Relaxed);
            } else {
                self.counters.responses_ok.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Executes one admitted job (worker context).
    fn process(&self, job: Job) {
        let deadline_err =
            |received: Instant, deadline_ms: Option<u64>| ApiError::DeadlineExceeded {
                deadline_ms: deadline_ms.unwrap_or(0),
                elapsed_ms: received.elapsed().as_millis() as u64,
            };
        let expired = |deadline: Option<Instant>| deadline.is_some_and(|d| Instant::now() > d);

        let answer = if expired(job.deadline) {
            // Aged out in the queue; never executed.
            self.counters
                .deadline_misses
                .fetch_add(1, Ordering::Relaxed);
            Err(deadline_err(job.received, job.deadline_ms))
        } else {
            if self.config.handler_delay_ms > 0 {
                std::thread::sleep(Duration::from_millis(self.config.handler_delay_ms));
            }
            match self.service.query_json(&job.query) {
                _ if expired(job.deadline) => {
                    // Finished, but past the deadline: the client has
                    // already given up on this answer.
                    self.counters
                        .deadline_misses
                        .fetch_add(1, Ordering::Relaxed);
                    Err(deadline_err(job.received, job.deadline_ms))
                }
                answer => answer,
            }
        };
        match answer {
            Ok(json) => self.write(&job.conn, &wire::ok_payload(job.id, &json), false),
            Err(e) => self.respond(&job.conn, WireResponse::err(job.id, &e)),
        }
        job.conn.pending.fetch_sub(1, Ordering::AcqRel);
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
    }

    /// Admission: counts the request in-flight, then tries the bounded
    /// queue; a full (or closing) queue sheds with a typed error.
    fn admit(
        &self,
        conn: &Arc<Connection>,
        id: u64,
        query: QueryRequest,
        deadline_ms: Option<u64>,
    ) {
        let deadline_ms = deadline_ms.or(self.config.default_deadline_ms);
        let received = Instant::now();
        let job = Job {
            conn: Arc::clone(conn),
            id,
            query,
            deadline: deadline_ms.map(|ms| received + Duration::from_millis(ms)),
            deadline_ms,
            received,
        };
        conn.pending.fetch_add(1, Ordering::AcqRel);
        self.in_flight.fetch_add(1, Ordering::AcqRel);
        let shed_reason = match self.queue.try_push(job) {
            Ok(()) => {
                self.counters
                    .requests_admitted
                    .fetch_add(1, Ordering::Relaxed);
                return;
            }
            Err(PushError::Full(_)) => {
                format!("admission queue full (depth {})", self.queue.capacity())
            }
            Err(PushError::Closed(_)) => "server draining".to_owned(),
        };
        conn.pending.fetch_sub(1, Ordering::AcqRel);
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
        self.counters.requests_shed.fetch_add(1, Ordering::Relaxed);
        self.respond(
            conn,
            WireResponse::err(id, &ApiError::Overloaded(shed_reason)),
        );
    }
}

/// Best-effort recovery of the correlation id from a payload that failed
/// strict decoding, so even a rejected request's error can be matched to
/// the request the client sent.
fn salvage_id(payload: &[u8]) -> u64 {
    std::str::from_utf8(payload)
        .ok()
        .and_then(|text| nck_api::json::parse(text).ok())
        .and_then(|value| value.get("id").and_then(|id| u64::from_value(id).ok()))
        .unwrap_or(0)
}

use serde::Deserialize as _; // for `u64::from_value` in `salvage_id`

/// One connection's read loop.
fn handle_connection(shared: Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let conn = match stream.try_clone() {
        Ok(writer) => Arc::new(Connection {
            writer: Mutex::new(writer),
            pending: AtomicUsize::new(0),
        }),
        Err(_) => {
            shared.open_connections.fetch_sub(1, Ordering::AcqRel);
            return;
        }
    };
    let mut reader = stream;
    let _ = reader.set_read_timeout(Some(POLL));
    let max = shared.config.max_frame_bytes;
    loop {
        if shared.draining() {
            break;
        }
        match frame::read_frame(&mut reader, max, STALL_TICKS) {
            Ok(FrameEvent::Idle) => continue,
            Ok(FrameEvent::Eof) => break,
            Ok(FrameEvent::TooLarge(len)) => {
                shared
                    .counters
                    .frames_malformed
                    .fetch_add(1, Ordering::Relaxed);
                let error = ApiError::Protocol(format!(
                    "frame of {len} bytes exceeds the {max}-byte limit"
                ));
                // A modest overshoot is drained so the stream stays in
                // sync: the peer finishes its write, reads a typed error
                // correlated to the id it sent, and the connection
                // survives. (Closing while the peer is still writing
                // would turn the buffered error into a connection
                // reset.) A frame claiming more than the drain budget
                // gets an uncorrelated error and a close.
                if (len as u64) <= 16 * max as u64 {
                    if let Ok(drained) = frame::drain_exact(&mut reader, len as u64, STALL_TICKS) {
                        shared.respond(&conn, WireResponse::err(salvage_id(&drained), &error));
                        continue;
                    }
                }
                shared.respond(&conn, WireResponse::err(0, &error));
                break;
            }
            Ok(FrameEvent::Frame(payload)) => match wire::decode_request(&payload) {
                Ok(request) => shared.admit(&conn, request.id, request.query, request.deadline_ms),
                Err(e) => {
                    // Framing stayed intact, so the connection survives
                    // a malformed payload: reject it loudly, keep
                    // reading.
                    shared
                        .counters
                        .frames_malformed
                        .fetch_add(1, Ordering::Relaxed);
                    shared.respond(&conn, WireResponse::err(salvage_id(&payload), &e));
                }
            },
            Err(_) => {
                // Truncated frame, mid-request disconnect, or a peer
                // stalled past patience: nothing can be answered
                // reliably — close, counting the anomaly.
                shared
                    .counters
                    .frames_malformed
                    .fetch_add(1, Ordering::Relaxed);
                break;
            }
        }
    }
    // Keep the socket open until every admitted request has been
    // answered (bounded wait; the workers own the actual writes).
    let mut waited = Duration::ZERO;
    while conn.pending.load(Ordering::Acquire) > 0 && waited < Duration::from_secs(30) {
        std::thread::sleep(Duration::from_millis(1));
        waited += Duration::from_millis(1);
    }
    shared.open_connections.fetch_sub(1, Ordering::AcqRel);
}

/// The accept loop.
fn accept_loop(shared: Arc<Shared>, listener: TcpListener) {
    for incoming in listener.incoming() {
        if shared.draining() {
            break;
        }
        let stream = match incoming {
            Ok(s) => s,
            Err(_) => continue,
        };
        let open = shared.open_connections.load(Ordering::Acquire);
        if open >= shared.config.max_connections {
            // Turn the connection away with one typed error frame.
            shared
                .counters
                .connections_rejected
                .fetch_add(1, Ordering::Relaxed);
            let mut stream = stream;
            let body = WireResponse::err(
                0,
                &ApiError::Overloaded(format!(
                    "connection limit reached ({} open)",
                    shared.config.max_connections
                )),
            )
            .to_payload();
            let _ = frame::write_frame(&mut stream, &body, u32::MAX as usize);
            continue;
        }
        shared
            .counters
            .connections_accepted
            .fetch_add(1, Ordering::Relaxed);
        shared.open_connections.fetch_add(1, Ordering::AcqRel);
        let shared = Arc::clone(&shared);
        let _ = std::thread::Builder::new()
            .name("nck-serve-conn".into())
            .spawn(move || handle_connection(shared, stream));
    }
}

/// A running server. Dropping the handle without calling
/// [`shutdown`](Self::shutdown) begins a drain but does not wait for it.
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time counter snapshot.
    pub fn metrics(&self) -> ServeMetrics {
        self.shared.counters.snapshot()
    }

    /// Requests admitted but not yet answered.
    pub fn in_flight(&self) -> usize {
        self.shared.in_flight.load(Ordering::Acquire)
    }

    fn begin_drain(&self) {
        self.shared.draining.store(true, Ordering::Release);
        // Stop admission; the backlog is still handed to the workers.
        self.shared.queue.close();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
    }

    /// Graceful drain: stop accepting, shed new requests, finish every
    /// admitted one, flush the responses, close the sockets. Returns the
    /// final metrics.
    pub fn shutdown(mut self) -> ServeMetrics {
        self.begin_drain();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Workers joined ⇒ every admitted response is written; readers
        // observe the drain flag within one poll tick and hang up.
        let mut waited = Duration::ZERO;
        while self.shared.open_connections.load(Ordering::Acquire) > 0
            && waited < Duration::from_secs(30)
        {
            std::thread::sleep(Duration::from_millis(2));
            waited += Duration::from_millis(2);
        }
        debug_assert_eq!(self.shared.in_flight.load(Ordering::Acquire), 0);
        self.shared.counters.snapshot()
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if !self.shared.draining() {
            self.begin_drain();
        }
    }
}

/// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and starts
/// serving `service` under `config`. Returns once the listener is live;
/// serving continues on background threads until
/// [`ServerHandle::shutdown`].
///
/// A zero `workers`, `queue_depth`, `max_connections` or
/// `max_frame_bytes` would refuse all traffic, so it fails with
/// [`io::ErrorKind::InvalidInput`], naming the field, before anything
/// is bound.
pub fn serve(
    service: Arc<NckService>,
    addr: impl ToSocketAddrs,
    config: ServeConfig,
) -> io::Result<ServerHandle> {
    for (field, limit) in [
        ("workers", config.workers),
        ("queue_depth", config.queue_depth),
        ("max_connections", config.max_connections),
        ("max_frame_bytes", config.max_frame_bytes),
    ] {
        if limit == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("ServeConfig::{field} must be at least 1"),
            ));
        }
    }
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        service,
        queue: Bounded::new(config.queue_depth),
        config,
        counters: Counters::default(),
        draining: AtomicBool::new(false),
        open_connections: AtomicUsize::new(0),
        in_flight: AtomicUsize::new(0),
    });
    let workers = (0..shared.config.workers)
        .map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("nck-serve-worker-{i}"))
                .spawn(move || {
                    while let Some(job) = shared.queue.pop() {
                        shared.process(job);
                    }
                })
        })
        .collect::<io::Result<Vec<_>>>()?;
    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("nck-serve-accept".into())
            .spawn(move || accept_loop(shared, listener))?
    };
    Ok(ServerHandle {
        shared,
        addr,
        accept: Some(accept),
        workers,
    })
}
