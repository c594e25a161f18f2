//! The TCP front end: listener setup, the backend interface the event
//! loop serves, connection accounting, admission gate, and graceful
//! drain.
//!
//! One `poll(2)`-driven event thread (see `crate::poll`) owns the
//! listener and every connection socket, for a shard ([`Server`]) and
//! for the router ([`crate::router::Router`]) alike: idle connections
//! cost one slab slot and one pollfd each, not a thread, so one process
//! sustains thousands of them at ~zero CPU. What the loop serves is a
//! `Backend`; the loop never branches on which one it has. Requests
//! the backend calls cheap run inline on the event thread, the rest on
//! a small worker pool, which a backend that answers everything inline
//! does without. An `Answer` is a reply line, or a `Relay`:
//! request lines the loop sends to other servers before the reply is
//! built, which is how the router forwards.
//!
//! `server.shutdown` (or [`ServerHandle::shutdown`]) drains cleanly:
//! in-flight requests finish, their responses are written and their
//! disk entries published, every connection is closed and counted, and
//! only then does [`Server::run`] return.

use crate::disk::PendingWrite;
use crate::gate::{Gate, GatePermit};
use crate::protocol::{error_line, ok_line, Request, ServeError, PROTOCOL};
use crate::service::{ServeConfig, Service};
use lim_obs::json::Value;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// What the event loop serves: a shard's [`Service`] or the router's
/// shard cluster.
pub(crate) trait Backend: Send + Sync {
    /// Answers a control method (`server.stats`, `server.shutdown`),
    /// which bypasses the admission gate; `None` for everything else.
    fn control(&self, rq: &Request, shared: &ServerShared) -> Option<Answer>;

    /// True when `rq` is cheap enough to answer on the event thread.
    fn runs_inline(&self, _rq: &Request) -> bool {
        false
    }

    /// True for a backend that answers every request on the event
    /// thread (`runs_inline` is then never asked); the loop starts no
    /// worker pool for it.
    fn inline_only(&self) -> bool {
        false
    }

    /// Answers one admitted request; `line` is its raw request line.
    /// Drops `permit` once the admitted work is done.
    fn answer(&self, rq: &Request, line: &str, permit: GatePermit<'_>) -> Answer;

    /// Publishes the entries an answer deferred, after its reply went
    /// out.
    fn publish(&self, _writes: Vec<PendingWrite>) {}
}

/// A backend's answer to one request.
pub(crate) enum Answer {
    /// The reply line, and the disk entries to publish once it is sent.
    Reply(String, Vec<PendingWrite>),
    /// Lines the loop sends to other servers before the reply exists.
    Relay(Relay),
}

/// Request lines for the event loop to send to other servers, all at
/// once, each over an idle pooled connection to its address or a new
/// one; the reply line is built from what comes back.
pub(crate) struct Relay {
    /// `(address, request line)` per call.
    pub(crate) calls: Vec<(String, String)>,
    /// Builds the reply line from each call's reply line, in call
    /// order; a call that got none carries why (`unreachable: …` or
    /// `failed: …`).
    pub(crate) gather: Gather,
}

/// See [`Relay::gather`].
pub(crate) type Gather = Box<dyn FnOnce(Vec<Result<String, String>>) -> String + Send>;

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

/// Everything the event loop and its workers need to answer requests.
pub(crate) struct ServerShared {
    pub(crate) backend: Arc<dyn Backend>,
    pub(crate) gate: Gate,
    pub(crate) shutdown: Arc<AtomicBool>,
    started: Instant,
    pub(crate) conns: ConnStats,
    pub(crate) idle_timeout: Option<Duration>,
}

impl ServerShared {
    /// Runs one non-control request through the gate into the backend.
    /// Sheds with a 429 when the gate is full.
    pub(crate) fn admit(&self, rq: &Request, line: &str) -> Answer {
        match self.gate.try_acquire() {
            Some(permit) => self.backend.answer(rq, line, permit),
            None => Answer::Reply(error_line(&rq.id, &ServeError::overloaded()), Vec::new()),
        }
    }

    /// Starts the drain and renders the `server.shutdown` reply.
    pub(crate) fn drain(&self, id: &Value) -> String {
        self.shutdown.store(true, Ordering::Release);
        ok_line(id, false, "{\"draining\":true}")
    }

    /// The transport figures a backend's `server.stats` carries; with
    /// `admission`, the gate's figures too.
    pub(crate) fn stats_members(&self, admission: bool) -> Vec<(String, Value)> {
        let (open, accepted, closed, timed_out) = self.conns.snapshot();
        let num = |x: u64| Value::Number(x as f64);
        let mut members = vec![
            ("protocol".to_owned(), Value::String(PROTOCOL.into())),
            (
                "uptime_ms".to_owned(),
                num(self.started.elapsed().as_millis() as u64),
            ),
        ];
        if admission {
            members.extend([
                ("in_flight".to_owned(), num(self.gate.in_flight() as u64)),
                (
                    "max_in_flight".to_owned(),
                    num(self.gate.max_in_flight() as u64),
                ),
                ("shed".to_owned(), num(self.gate.shed_count())),
            ]);
        }
        members.push((
            "connections".to_owned(),
            Value::Object(vec![
                ("open".to_owned(), num(open)),
                ("accepted".to_owned(), num(accepted)),
                ("closed".to_owned(), num(closed)),
                ("timed_out".to_owned(), num(timed_out)),
            ]),
        ));
        members
    }
}

/// A bound listener and the shared state of the loop that will serve
/// it.
pub(crate) struct Bound {
    listener: TcpListener,
    pub(crate) addr: SocketAddr,
    shared: Arc<ServerShared>,
}

impl Bound {
    pub(crate) fn new(
        addr: &str,
        backend: Arc<dyn Backend>,
        max_in_flight: usize,
        idle_timeout: Option<Duration>,
    ) -> io::Result<Bound> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        Ok(Bound {
            listener,
            addr,
            shared: Arc::new(ServerShared {
                backend,
                gate: Gate::new(max_in_flight),
                shutdown: Arc::new(AtomicBool::new(false)),
                started: Instant::now(),
                conns: ConnStats::default(),
                idle_timeout,
            }),
        })
    }

    pub(crate) fn run(self) -> io::Result<()> {
        crate::poll::run(self.listener, self.shared)
    }

    pub(crate) fn spawn(self) -> ServerHandle {
        let addr = self.addr;
        let shutdown = Arc::clone(&self.shared.shutdown);
        let join = thread::spawn(move || self.run());
        ServerHandle {
            addr,
            shutdown,
            join,
        }
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    bound: Bound,
    service: Arc<Service>,
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
        let backend = Arc::clone(&service);
        let bound = Bound::new(addr, backend, config.max_in_flight, config.idle_timeout)?;
        Ok(Server { bound, service })
    }

    /// The bound address (with the actual port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.bound.addr
    }

    /// The service behind the endpoints.
    pub fn service(&self) -> Arc<Service> {
        Arc::clone(&self.service)
    }

    /// Runs the server until shutdown is requested, then drains.
    ///
    /// # Errors
    ///
    /// Propagates listener socket failures (per-connection errors only
    /// end that connection).
    pub fn run(self) -> io::Result<()> {
        self.bound.run()
    }

    /// Runs the server on a background thread, returning a handle with
    /// the bound address and shutdown control.
    pub fn spawn(self) -> ServerHandle {
        self.bound.spawn()
    }
}

/// Control handle for a server or router running on a background
/// thread.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    join: JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown without waiting for the drain. A router drains
    /// itself, not its shards.
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
