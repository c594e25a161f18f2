//! The TCP front end: listener setup, the backend interface the event
//! loop serves, connection accounting, and graceful drain.
//!
//! One `poll(2)`-driven event thread (see `crate::poll`) owns the
//! listener and every connection socket, for a shard ([`Server`]) and
//! for the router ([`crate::router::Router`]) alike: idle connections
//! cost one slab slot and one pollfd each, not a thread, so one process
//! sustains thousands of them at ~zero CPU. What the loop serves is a
//! `Backend`; the loop never branches on which one it has. It asks the
//! backend one question per request, and the backend's `Answer` is a
//! reply line to send now, a `Relay` (request lines the loop sends to
//! other servers before the reply is built, which is how the router
//! forwards), or work for a small worker pool. A shard answers control
//! methods, its cheap methods and memo hits now, behind its own
//! admission gate, and defers the rest; the router answers everything
//! now and binds with no pool. A reply's disk entries are published on
//! a worker after the reply is sent, never on the event thread.
//!
//! `server.shutdown` (or [`ServerHandle::shutdown`]) drains cleanly:
//! in-flight requests finish, their responses are written and their
//! disk entries published, every connection is closed and counted, and
//! only then does [`Server::run`] return.

use crate::disk::PendingWrite;
use crate::gate::Gate;
use crate::protocol::{ok_line, Request, PROTOCOL};
use crate::service::{ServeConfig, Service, Shard};
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
    /// Decides one parsed request, on the event thread, once: a reply
    /// or a relay to start now, or work for a pool worker. `line` is
    /// the raw request line.
    fn serve(&self, rq: &Request, line: String, server: &ServerShared) -> Answer;

    /// Publishes a reply's disk entries, on a pool worker, after the
    /// reply went out.
    fn publish(&self, _writes: Vec<PendingWrite>) {}
}

/// A backend's answer to one request.
pub(crate) enum Answer {
    /// The reply line, and the disk entries to publish once it is sent.
    Reply(String, Vec<PendingWrite>),
    /// Lines the loop sends to other servers before the reply exists.
    Relay(Relay),
    /// Work for a pool worker, carrying what the backend already worked
    /// out about the request.
    Work(Work),
}

/// Runs on a pool worker with the request it answers, and returns what
/// [`Answer::Reply`] holds.
pub(crate) type Work = Box<dyn FnOnce(&Request) -> (String, Vec<PendingWrite>) + Send>;

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
    pub(crate) shutdown: Arc<AtomicBool>,
    started: Instant,
    pub(crate) conns: ConnStats,
    pub(crate) idle_timeout: Option<Duration>,
}

impl ServerShared {
    pub(crate) fn new(backend: Arc<dyn Backend>, idle_timeout: Option<Duration>) -> ServerShared {
        ServerShared {
            backend,
            shutdown: Arc::new(AtomicBool::new(false)),
            started: Instant::now(),
            conns: ConnStats::default(),
            idle_timeout,
        }
    }

    /// Starts the drain and renders the `server.shutdown` reply.
    pub(crate) fn drain(&self, id: &Value) -> String {
        self.shutdown.store(true, Ordering::Release);
        ok_line(id, false, "{\"draining\":true}")
    }

    /// The transport figures a backend's `server.stats` carries, with
    /// the figures of its admission gate if it has one.
    pub(crate) fn stats_members(&self, gate: Option<&Gate>) -> Vec<(String, Value)> {
        let (open, accepted, closed, timed_out) = self.conns.snapshot();
        let num = |x: u64| Value::Number(x as f64);
        let mut members = vec![
            ("protocol".to_owned(), Value::String(PROTOCOL.into())),
            (
                "uptime_ms".to_owned(),
                num(self.started.elapsed().as_millis() as u64),
            ),
        ];
        if let Some(gate) = gate {
            members.extend([
                ("in_flight".to_owned(), num(gate.in_flight() as u64)),
                ("max_in_flight".to_owned(), num(gate.max_in_flight() as u64)),
                ("shed".to_owned(), num(gate.shed_count())),
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
    /// Pool workers the loop starts; 0 for a backend that defers
    /// nothing.
    workers: usize,
}

impl Bound {
    /// Binds `addr` for `backend`, whose loop will start `workers` pool
    /// workers.
    pub(crate) fn new(
        addr: &str,
        backend: Arc<dyn Backend>,
        workers: usize,
        idle_timeout: Option<Duration>,
    ) -> io::Result<Bound> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        Ok(Bound {
            listener,
            addr,
            shared: Arc::new(ServerShared::new(backend, idle_timeout)),
            workers,
        })
    }

    pub(crate) fn run(self) -> io::Result<()> {
        crate::poll::run(self.listener, self.shared, self.workers)
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
        let gate = Arc::new(Gate::new(config.max_in_flight));
        // Two workers more than the gate admits, so the gate, not the
        // pool, is what sheds load.
        let workers = gate.max_in_flight() + 2;
        let shard = Shard {
            service: Arc::clone(&service),
            gate,
        };
        let bound = Bound::new(addr, Arc::new(shard), workers, config.idle_timeout)?;
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
