//! The TCP front end: listener setup, connection accounting, admission
//! gate, and graceful drain.
//!
//! On Linux the accept loop and all connection I/O run on a single
//! `poll(2)`-driven event thread (see [`crate::poll`]): idle
//! connections cost one slab slot and one pollfd each, not a thread,
//! so one shard sustains thousands of them at ~zero CPU. Heavy
//! requests are handed to a small worker pool; cheap ones (transport
//! methods, `server.ping`, estimates and memo hits) run inline on the
//! event thread to keep the single-connection latency of the old
//! thread-per-connection design. Elsewhere a thread-per-connection
//! fallback with identical wire behavior is used.
//!
//! `server.shutdown` (or [`ServerHandle::shutdown`]) drains cleanly:
//! in-flight requests finish, their responses are written and their
//! disk entries published, every connection is closed and counted, and
//! only then does [`Server::run`] return.

use crate::disk::PendingWrite;
use crate::gate::Gate;
use crate::protocol::{error_line, ok_line, ok_line_traced, Request, ServeError, PROTOCOL};
use crate::service::{ServeConfig, Service};
use lim_obs::json::{self, Value};
use lim_obs::TraceId;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Instant;

#[cfg(not(target_os = "linux"))]
use std::time::Duration;

/// Honest connection accounting, surfaced by `server.stats` and
/// mirrored into the obs gauges/counters. Invariants: `accepted ==
/// open + closed` at any quiescent moment, and `timed_out <= closed`
/// (a timed-out connection is also a closed one).
#[derive(Debug, Default)]
pub(crate) struct ConnStats {
    open: AtomicU64,
    accepted: AtomicU64,
    closed: AtomicU64,
    timed_out: AtomicU64,
}

impl ConnStats {
    pub(crate) fn on_accept(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        self.open.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_close(&self, timed_out: bool) {
        self.open.fetch_sub(1, Ordering::Relaxed);
        self.closed.fetch_add(1, Ordering::Relaxed);
        if timed_out {
            self.timed_out.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// `(open, accepted, closed, timed_out)`.
    pub(crate) fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.open.load(Ordering::Relaxed),
            self.accepted.load(Ordering::Relaxed),
            self.closed.load(Ordering::Relaxed),
            self.timed_out.load(Ordering::Relaxed),
        )
    }
}

/// Everything a connection (or the event loop) needs to answer
/// requests, shared between the accept/event thread and the workers.
pub(crate) struct ServerShared {
    pub(crate) service: Arc<Service>,
    pub(crate) gate: Arc<Gate>,
    pub(crate) shutdown: Arc<AtomicBool>,
    pub(crate) started: Instant,
    pub(crate) conns: ConnStats,
    pub(crate) idle_timeout: Option<std::time::Duration>,
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<ServerShared>,
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral port) with a fresh
    /// service.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(addr: &str, config: &ServeConfig) -> io::Result<Server> {
        Self::with_service(addr, Arc::new(Service::new(config)), config)
    }

    /// Binds to `addr` serving an existing (possibly pre-warmed)
    /// service.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn with_service(
        addr: &str,
        service: Arc<Service>,
        config: &ServeConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            addr,
            shared: Arc::new(ServerShared {
                service,
                gate: Arc::new(Gate::new(config.max_in_flight)),
                shutdown: Arc::new(AtomicBool::new(false)),
                started: Instant::now(),
                conns: ConnStats::default(),
                idle_timeout: config.idle_timeout,
            }),
        })
    }

    /// The bound address (with the actual port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service behind the endpoints.
    pub fn service(&self) -> Arc<Service> {
        Arc::clone(&self.shared.service)
    }

    /// Runs the server until shutdown is requested, then drains.
    ///
    /// # Errors
    ///
    /// Propagates listener socket failures (per-connection errors only
    /// end that connection).
    pub fn run(self) -> io::Result<()> {
        #[cfg(target_os = "linux")]
        {
            crate::poll::run(self.listener, self.shared)
        }
        #[cfg(not(target_os = "linux"))]
        {
            threaded_run(self.listener, self.shared)
        }
    }

    /// Runs the server on a background thread, returning a handle with
    /// the bound address and shutdown control.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.addr;
        let service = self.service();
        let shutdown = Arc::clone(&self.shared.shutdown);
        let join = thread::spawn(move || self.run());
        ServerHandle {
            addr,
            service,
            shutdown,
            join,
        }
    }
}

/// Control handle for a server running on a background thread.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    service: Arc<Service>,
    shutdown: Arc<AtomicBool>,
    join: JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service behind the endpoints.
    pub fn service(&self) -> Arc<Service> {
        Arc::clone(&self.service)
    }

    /// Requests shutdown without waiting for the drain.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        // Poke the listener so a poll loop parked in its timeout sees
        // the flag now instead of up to one poll period later. The
        // throwaway connection is never served; drain closes it.
        let _ = std::net::TcpStream::connect(self.addr);
    }

    /// Requests shutdown and waits for the drain to finish.
    ///
    /// # Errors
    ///
    /// Propagates the event loop's exit status.
    pub fn shutdown_and_join(self) -> io::Result<()> {
        self.shutdown();
        match self.join.join() {
            Ok(result) => result,
            Err(_) => Err(io::Error::other("server thread panicked")),
        }
    }
}

/// Answers transport-level methods (`server.shutdown`, `server.stats`)
/// that bypass the admission gate; `None` for everything else.
pub(crate) fn transport_response(rq: &Request, shared: &ServerShared) -> Option<String> {
    match rq.method.as_str() {
        "server.shutdown" => {
            shared.shutdown.store(true, Ordering::Release);
            Some(ok_line(&rq.id, false, "{\"draining\":true}"))
        }
        "server.stats" => Some(ok_line(
            &rq.id,
            false,
            &json::render(&stats_value(shared)),
        )),
        _ => None,
    }
}

/// Runs one non-transport request through the gate into the service,
/// producing its response line and the disk entries it left to
/// publish: the caller sends the line first, then hands the entries to
/// [`Service::publish`]. Sheds with a 429 when the gate is full.
pub(crate) fn execute(rq: &Request, shared: &ServerShared) -> (String, Vec<PendingWrite>) {
    match shared.gate.try_acquire() {
        None => (error_line(&rq.id, &ServeError::overloaded()), Vec::new()),
        Some(permit) => {
            // A client-minted trace id (already hex-validated by the
            // parser) becomes the request's id and is echoed back;
            // untraced requests get a server-minted id that stays
            // server-side, keeping their responses byte-stable.
            let trace = rq.trace.as_deref().and_then(TraceId::parse);
            let (out, writes) = shared.service.call_deferred(&rq.method, &rq.params, trace);
            drop(permit);
            let line = match out.result {
                Ok(result) => ok_line_traced(&rq.id, out.cached, rq.trace.as_deref(), &result),
                Err(e) => error_line(&rq.id, &e),
            };
            (line, writes)
        }
    }
}

/// Full server statistics: the service view wrapped with transport and
/// connection figures, with the live state mirrored into the obs
/// gauges and counters.
pub(crate) fn stats_value(shared: &ServerShared) -> Value {
    let (open, accepted, closed, timed_out) = shared.conns.snapshot();
    shared
        .service
        .set_gauge("serve.in_flight", shared.gate.in_flight() as f64);
    shared
        .service
        .set_gauge("serve.shed", shared.gate.shed_count() as f64);
    shared.service.set_gauge("serve.conns_open", open as f64);
    shared.service.set_counter("serve.conns_accepted", accepted);
    shared.service.set_counter("serve.conns_closed", closed);
    shared
        .service
        .set_counter("serve.conns_timed_out", timed_out);
    let service_stats = shared.service.stats_value();
    let mut members = vec![
        ("protocol".to_owned(), Value::String(PROTOCOL.into())),
        (
            "uptime_ms".to_owned(),
            Value::Number(shared.started.elapsed().as_millis() as f64),
        ),
        (
            "in_flight".to_owned(),
            Value::Number(shared.gate.in_flight() as f64),
        ),
        (
            "max_in_flight".to_owned(),
            Value::Number(shared.gate.max_in_flight() as f64),
        ),
        (
            "shed".to_owned(),
            Value::Number(shared.gate.shed_count() as f64),
        ),
        (
            "connections".to_owned(),
            Value::Object(vec![
                ("open".to_owned(), Value::Number(open as f64)),
                ("accepted".to_owned(), Value::Number(accepted as f64)),
                ("closed".to_owned(), Value::Number(closed as f64)),
                ("timed_out".to_owned(), Value::Number(timed_out as f64)),
            ]),
        ),
    ];
    if let Value::Object(service_members) = service_stats {
        members.extend(service_members);
    }
    Value::Object(members)
}

/// Thread-per-connection fallback for non-Linux hosts: same wire
/// behavior as the poll loop (including the 400 error line sent before
/// closing on oversized or non-UTF-8 input), one thread per socket.
#[cfg(not(target_os = "linux"))]
fn threaded_run(listener: TcpListener, shared: Arc<ServerShared>) -> io::Result<()> {
    const ACCEPT_POLL: Duration = Duration::from_millis(5);
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let shared = Arc::clone(&shared);
                shared.conns.on_accept();
                workers.push(thread::spawn(move || {
                    // A dropped client mid-write is that client's
                    // problem, not the server's.
                    let timed_out = handle_connection(stream, &shared).unwrap_or(false);
                    shared.conns.on_close(timed_out);
                }));
                workers.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(ACCEPT_POLL);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    for handle in workers {
        let _ = handle.join();
    }
    Ok(())
}

/// One connection's read-respond loop. Returns whether the connection
/// was closed by the idle timeout.
#[cfg(not(target_os = "linux"))]
fn handle_connection(stream: std::net::TcpStream, shared: &ServerShared) -> io::Result<bool> {
    use crate::net::{write_line, LineReader};
    const READ_POLL: Duration = Duration::from_millis(100);
    stream.set_read_timeout(Some(READ_POLL))?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = LineReader::new(stream);
    let mut last_activity = Instant::now();
    loop {
        let idle_deadline = shared.idle_timeout.map(|t| last_activity + t);
        let stop = || {
            shared.shutdown.load(Ordering::Acquire)
                || idle_deadline.is_some_and(|d| Instant::now() >= d)
        };
        let line = match reader.read_line(&stop) {
            Ok(Some(line)) => line,
            Ok(None) => {
                // EOF, drain, or idle timeout — tell them apart.
                let timed_out = !shared.shutdown.load(Ordering::Acquire)
                    && idle_deadline.is_some_and(|d| Instant::now() >= d);
                return Ok(timed_out);
            }
            // Framing failure (line too long, not UTF-8): answer with a
            // well-formed 400 error line, then close.
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                let err = ServeError::bad_request(e.to_string());
                let _ = write_line(&mut writer, &error_line(&Value::Null, &err));
                return Ok(false);
            }
            Err(e) => return Err(e),
        };
        last_activity = Instant::now();
        if line.trim().is_empty() {
            continue;
        }
        let rq = match Request::parse(&line) {
            Ok(rq) => rq,
            Err(e) => {
                write_line(&mut writer, &error_line(&Value::Null, &e))?;
                continue;
            }
        };
        let (response, writes) = match transport_response(&rq, shared) {
            Some(response) => (response, Vec::new()),
            None => execute(&rq, shared),
        };
        let sent = write_line(&mut writer, &response);
        shared.service.publish(writes);
        sent?;
        // Drain: finish the request in hand, then close the connection.
        if shared.shutdown.load(Ordering::Acquire) {
            return Ok(false);
        }
    }
}
