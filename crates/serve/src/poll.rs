//! `poll(2)`-driven event loop (Linux): one thread owns the listener
//! and every connection socket; a small worker pool runs heavy
//! requests.
//!
//! # Shape
//!
//! Each connection is a slab slot holding the nonblocking socket, a
//! [`LineBuffer`] assembling request lines from readiness-driven
//! reads, and an outbound byte queue flushed opportunistically (and
//! under `POLLOUT` when a write would block). Idle connections
//! therefore cost one pollfd and a few hundred bytes — no thread, no
//! stack — which is what lets one shard hold thousands of them at
//! ~zero CPU.
//!
//! # Inline fast path
//!
//! Cheap requests never leave the event thread: transport methods
//! (`server.stats`, `server.shutdown`), `server.ping`,
//! `brick.estimate` (sub-millisecond even on a cold compile) and any
//! request [`Service::memo_probe`] reports resident in the response
//! memo are answered inline, preserving the single-connection latency
//! of the old thread-per-connection design. Everything else (golden
//! transients, flows, DSE sweeps, batches, `debug.sleep`) is handed to
//! the worker pool, sized `max_in_flight + 2` so the admission gate —
//! not the pool — is what sheds load.
//!
//! # Ordering
//!
//! Responses on one connection stay in request order: while a request
//! is out with a worker the connection's buffered lines are not
//! pumped, and completions append to the same outbound queue the
//! inline path uses. At most one request per connection is in flight
//! at a time (pipelined lines queue in the [`LineBuffer`]).
//!
//! # Framing errors
//!
//! An oversized or non-UTF-8 line gets a well-formed 400 error line,
//! then the connection stops parsing, discards further input until EOF
//! or a short grace deadline, and closes — the discard step keeps the
//! error line from being lost to a TCP reset when the client is still
//! mid-send.
//!
//! # Drain
//!
//! Shutdown stops accepting, lets busy requests finish, flushes every
//! outbound queue (bounded by a grace deadline), closes and counts all
//! connections, and joins the workers. A worker sends each reply
//! before it publishes the request's disk entries, and finishes those
//! publishes before its next job, so the join also leaves every
//! answered request on disk.

use crate::net::LineBuffer;
use crate::protocol::{error_line, Request, ServeError};
use crate::server::{execute, transport_response, ServerShared};
use lim_obs::json::Value;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Upper bound on one poll wait; also the cadence of the idle sweep
/// and the shutdown-flag check for externally requested drains.
const POLL_TIMEOUT: Duration = Duration::from_millis(100);
/// How long a connection in framing-error discard mode waits for the
/// client's EOF before closing anyway.
const DISCARD_GRACE: Duration = Duration::from_secs(1);
/// How long a drain waits for busy requests and unflushed responses.
const DRAIN_GRACE: Duration = Duration::from_secs(10);
/// Per-connection read budget per readiness event, so one firehose
/// connection cannot starve the rest of the loop.
const READ_BUDGET: usize = 256 * 1024;

/// Minimal FFI surface for `poll(2)`; no libc crate in a
/// zero-dependency workspace.
mod sys {
    use std::os::unix::io::RawFd;

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: RawFd,
        pub events: i16,
        pub revents: i16,
    }

    extern "C" {
        // nfds_t is unsigned long on every Linux ABI this builds for.
        pub fn poll(fds: *mut PollFd, nfds: u64, timeout_ms: i32) -> i32;
    }
}

/// `poll(2)` with EINTR retry.
fn poll_wait(fds: &mut [sys::PollFd], timeout: Duration) -> io::Result<usize> {
    loop {
        let rc = unsafe {
            sys::poll(
                fds.as_mut_ptr(),
                fds.len() as u64,
                timeout.as_millis().min(i32::MAX as u128) as i32,
            )
        };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

/// A request handed to the worker pool, tagged with the connection
/// token its response belongs to.
struct Job {
    token: u64,
    rq: Request,
}

type Completions = Arc<Mutex<Vec<(u64, String)>>>;

/// One connection's state in the slab.
struct Conn {
    stream: TcpStream,
    buf: LineBuffer,
    /// Outbound bytes; `sent` is the flushed prefix.
    out: Vec<u8>,
    sent: usize,
    /// A request from this connection is out with a worker.
    busy: bool,
    eof: bool,
    /// Socket error or forced close: remove at the next sweep.
    dead: bool,
    /// Set on a framing error: discard input until EOF or this
    /// deadline, then close (the 400 error line is already queued).
    discard_until: Option<Instant>,
    last_activity: Instant,
    timed_out: bool,
    /// Generation tag distinguishing this connection from an earlier
    /// one that used the same slab slot; stale worker completions
    /// whose generation mismatches are dropped.
    gen: u32,
}

impl Conn {
    fn flushed(&self) -> bool {
        self.sent >= self.out.len()
    }
}

fn token(slot: usize, gen: u32) -> u64 {
    ((slot as u64) << 32) | u64::from(gen)
}

/// Loopback socket pair used to wake the poll thread when a worker
/// finishes: workers write a byte to `tx`, the poll set watches `rx`.
fn wake_pair() -> io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let tx = TcpStream::connect(listener.local_addr()?)?;
    let local = tx.local_addr()?;
    // Accept until we see our own connection, in case some other
    // process races onto the ephemeral port.
    loop {
        let (rx, peer) = listener.accept()?;
        if peer == local {
            rx.set_nonblocking(true)?;
            tx.set_nonblocking(true)?;
            tx.set_nodelay(true)?;
            return Ok((rx, tx));
        }
    }
}

fn worker(
    jobs: Arc<Mutex<mpsc::Receiver<Job>>>,
    done: Completions,
    mut wake: TcpStream,
    shared: Arc<ServerShared>,
) {
    loop {
        // Holding the lock across recv() is a deliberate handoff queue:
        // execution happens outside the lock, and an idle worker parked
        // in recv() releases it the moment a job arrives.
        let job = match jobs.lock() {
            Ok(rx) => rx.recv(),
            Err(_) => return,
        };
        let Ok(job) = job else { return };
        let (response, writes) = execute(&job.rq, &shared);
        if let Ok(mut d) = done.lock() {
            d.push((job.token, response));
        }
        // A full wake pipe means the poll thread already has a wakeup
        // pending; WouldBlock is fine.
        let _ = wake.write(&[1u8]);
        // Reply first: the event thread sends the line while this
        // worker writes and syncs the request's disk entries. The next
        // job waits for them, so the pool join at drain leaves every
        // answered request on disk.
        shared.service.publish(writes);
    }
}

/// True when `rq` is cheap enough to answer on the event thread.
fn inline_fast(rq: &Request, shared: &ServerShared) -> bool {
    matches!(rq.method.as_str(), "server.ping" | "brick.estimate")
        || shared.service.memo_probe(&rq.method, &rq.params)
}

/// Appends a response line and opportunistically flushes, so the
/// common case answers within the same readiness event instead of
/// waiting a poll cycle for `POLLOUT`.
fn push_response(conn: &mut Conn, line: &str) {
    conn.out.extend_from_slice(line.as_bytes());
    conn.out.push(b'\n');
    flush(conn);
}

fn flush(conn: &mut Conn) {
    while conn.sent < conn.out.len() {
        match conn.stream.write(&conn.out[conn.sent..]) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => conn.sent += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    conn.out.clear();
    conn.sent = 0;
}

/// Drains readable bytes into the line buffer (or the void, in discard
/// mode), bounded by [`READ_BUDGET`] per event for fairness.
fn read_into(conn: &mut Conn, now: Instant) {
    let mut budget = READ_BUDGET;
    loop {
        let mut chunk = [0u8; 4096];
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.eof = true;
                return;
            }
            Ok(n) => {
                conn.last_activity = now;
                if conn.discard_until.is_none() {
                    conn.buf.push(&chunk[..n]);
                }
                budget = budget.saturating_sub(n);
                if budget == 0 {
                    return;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
}

/// Processes buffered complete lines until the connection goes busy,
/// runs dry, or hits a framing error.
fn pump(conn: &mut Conn, tok: u64, shared: &ServerShared, jobs: &mpsc::Sender<Job>) {
    if conn.discard_until.is_some() {
        return;
    }
    while !conn.busy && !conn.dead {
        match conn.buf.next_line() {
            Ok(Some(line)) => {
                if line.trim().is_empty() {
                    continue;
                }
                handle_line(conn, tok, &line, shared, jobs);
                // Drain: answer the request in hand, drop the rest.
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
            }
            Ok(None) => return,
            Err(e) => {
                // Answer with a well-formed error line before closing,
                // then stop parsing this connection for good.
                let err = ServeError::bad_request(e.message());
                push_response(conn, &error_line(&Value::Null, &err));
                conn.buf = LineBuffer::new();
                conn.discard_until = Some(Instant::now() + DISCARD_GRACE);
                return;
            }
        }
    }
}

fn handle_line(
    conn: &mut Conn,
    tok: u64,
    line: &str,
    shared: &ServerShared,
    jobs: &mpsc::Sender<Job>,
) {
    let rq = match Request::parse(line) {
        Ok(rq) => rq,
        Err(e) => {
            push_response(conn, &error_line(&Value::Null, &e));
            return;
        }
    };
    if let Some(response) = transport_response(&rq, shared) {
        push_response(conn, &response);
        return;
    }
    if inline_fast(&rq, shared) {
        let (response, writes) = execute(&rq, shared);
        push_response(conn, &response);
        shared.service.publish(writes);
        return;
    }
    conn.busy = true;
    if let Err(mpsc::SendError(job)) = jobs.send(Job { token: tok, rq }) {
        // Workers are gone (teardown race): shed instead of hanging.
        conn.busy = false;
        push_response(
            conn,
            &error_line(&job.rq.id, &ServeError::overloaded()),
        );
    }
}

/// Runs the event loop until shutdown, then drains. See the module
/// docs for the life cycle.
pub(crate) fn run(listener: TcpListener, shared: Arc<ServerShared>) -> io::Result<()> {
    let (mut wake_rx, wake_tx) = wake_pair()?;
    let done: Completions = Arc::new(Mutex::new(Vec::new()));
    let (job_tx, job_rx) = mpsc::channel::<Job>();
    let job_rx = Arc::new(Mutex::new(job_rx));
    let worker_count = shared.gate.max_in_flight() + 2;
    let mut workers: Vec<JoinHandle<()>> = Vec::with_capacity(worker_count);
    for _ in 0..worker_count {
        let jobs = Arc::clone(&job_rx);
        let done = Arc::clone(&done);
        let wake = wake_tx.try_clone()?;
        let shared = Arc::clone(&shared);
        workers.push(thread::spawn(move || worker(jobs, done, wake, shared)));
    }

    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut gen_counter: u32 = 0;
    let mut fds: Vec<sys::PollFd> = Vec::new();
    let mut fd_slots: Vec<usize> = Vec::new();
    let mut drain_deadline: Option<Instant> = None;

    let result = (|| -> io::Result<()> {
        loop {
            let draining = shared.shutdown.load(Ordering::Acquire);
            if draining {
                let deadline =
                    *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN_GRACE);
                let pending = conns
                    .iter()
                    .flatten()
                    .any(|c| c.busy || (!c.dead && !c.flushed()));
                if !pending || Instant::now() >= deadline {
                    return Ok(());
                }
            }

            fds.clear();
            fd_slots.clear();
            fds.push(sys::PollFd {
                fd: listener.as_raw_fd(),
                events: if draining { 0 } else { sys::POLLIN },
                revents: 0,
            });
            fds.push(sys::PollFd {
                fd: wake_rx.as_raw_fd(),
                events: sys::POLLIN,
                revents: 0,
            });
            for (slot, conn) in conns.iter().enumerate() {
                let Some(c) = conn else { continue };
                let mut events = 0i16;
                if !c.eof {
                    events |= sys::POLLIN;
                }
                if !c.flushed() {
                    events |= sys::POLLOUT;
                }
                fds.push(sys::PollFd {
                    fd: c.stream.as_raw_fd(),
                    events,
                    revents: 0,
                });
                fd_slots.push(slot);
            }

            poll_wait(&mut fds, POLL_TIMEOUT)?;
            let now = Instant::now();

            // Worker wakeups: drain the pipe, deliver completions.
            if fds[1].revents != 0 {
                let mut sink = [0u8; 256];
                while matches!(wake_rx.read(&mut sink), Ok(n) if n > 0) {}
            }
            let finished = match done.lock() {
                Ok(mut d) => std::mem::take(&mut *d),
                Err(_) => Vec::new(),
            };
            for (tok, response) in finished {
                let slot = (tok >> 32) as usize;
                let gen = tok as u32;
                if let Some(Some(c)) = conns.get_mut(slot) {
                    if c.gen == gen {
                        c.busy = false;
                        push_response(c, &response);
                        pump(c, tok, &shared, &job_tx);
                    }
                }
            }

            // New connections.
            if !draining && fds[0].revents != 0 {
                loop {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            if stream.set_nonblocking(true).is_err() {
                                continue;
                            }
                            let _ = stream.set_nodelay(true);
                            shared.conns.on_accept();
                            gen_counter = gen_counter.wrapping_add(1);
                            let conn = Conn {
                                stream,
                                buf: LineBuffer::new(),
                                out: Vec::new(),
                                sent: 0,
                                busy: false,
                                eof: false,
                                dead: false,
                                discard_until: None,
                                last_activity: now,
                                timed_out: false,
                                gen: gen_counter,
                            };
                            match free.pop() {
                                Some(slot) => conns[slot] = Some(conn),
                                None => conns.push(Some(conn)),
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(e) => return Err(e),
                    }
                }
            }

            // Connection readiness.
            for (i, &slot) in fd_slots.iter().enumerate() {
                let revents = fds[i + 2].revents;
                if revents == 0 {
                    continue;
                }
                let Some(c) = conns[slot].as_mut() else { continue };
                if revents & sys::POLLNVAL != 0 {
                    c.dead = true;
                    continue;
                }
                if revents & sys::POLLOUT != 0 {
                    flush(c);
                }
                // POLLHUP/POLLERR can accompany buffered readable data;
                // reading drains it and surfaces EOF or the error.
                if revents & (sys::POLLIN | sys::POLLHUP | sys::POLLERR) != 0 {
                    read_into(c, now);
                    pump(c, token(slot, c.gen), &shared, &job_tx);
                }
            }

            // Close/idle sweep.
            for (slot, entry) in conns.iter_mut().enumerate() {
                let Some(c) = entry.as_mut() else { continue };
                if let (Some(idle), false) = (shared.idle_timeout, c.busy) {
                    if c.flushed()
                        && !c.eof
                        && c.discard_until.is_none()
                        && now.duration_since(c.last_activity) >= idle
                    {
                        c.timed_out = true;
                        c.dead = true;
                    }
                }
                if let Some(deadline) = c.discard_until {
                    if now >= deadline || (c.eof && c.flushed()) {
                        c.dead = true;
                    }
                }
                let close = c.dead || (c.eof && !c.busy && c.flushed());
                if close {
                    let timed_out = c.timed_out;
                    *entry = None;
                    free.push(slot);
                    shared.conns.on_close(timed_out);
                }
            }
        }
    })();

    // Teardown: close and count every remaining connection (flushing
    // once more, best effort), then retire the worker pool.
    for conn in conns.iter_mut() {
        if let Some(c) = conn.as_mut() {
            flush(c);
            shared.conns.on_close(c.timed_out);
        }
        *conn = None;
    }
    drop(job_tx);
    drop(wake_tx);
    for handle in workers {
        let _ = handle.join();
    }
    result
}
