//! `poll(2)`-driven event loop (Linux): one thread owns the listener,
//! every connection socket and every upstream socket a relay uses; a
//! small worker pool runs heavy requests. The same loop carries a
//! shard and the router: everything particular to either is behind
//! [`crate::server::Backend`].
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
//! # One-copy reply frames
//!
//! A reply line arrives with room for its newline (see
//! [`crate::protocol`]). When nothing is queued ahead of it, the line's
//! own buffer becomes the connection's outbound queue: the newline goes
//! in place and the whole frame leaves in one write, so a reply is
//! never copied between the handler and the socket. Only a frame the
//! socket does not take at once stays queued, flushed under `POLLOUT`;
//! the queue's buffer is released as soon as it drains, so a
//! connection that once carried a megabyte reply does not keep a
//! megabyte while idle. Line and newline always share one write: split
//! in two, the second write of a small reply would wait out the peer's
//! delayed ACK on a socket without `TCP_NODELAY`.
//!
//! # One decision per request
//!
//! The loop parses a line and asks the backend once what to do with
//! it. The backend answers cheap requests now, on the event thread —
//! for a shard, control methods, the method table's inline methods and
//! memo hits — so the common cached round trip never pays a thread
//! handoff. Anything else comes back as work for the pool, carrying
//! what the backend worked out on the way; the worker admits and
//! answers it. The pool size is given at bind: a shard's is
//! `max_in_flight + 2`, so its admission gate — not the pool — is what
//! sheds load, and the router, which answers everything now, has none.
//!
//! # Disk writes stay off the event thread
//!
//! A reply can carry disk entries to publish once it is sent. A worker
//! sends its reply first and publishes after. A reply the event thread
//! built is sent at once, and its entries go to a worker; that
//! connection takes no further line until the worker has published
//! them. So each `fsync` holds up only the client whose request wrote,
//! and a client streaming cold requests is paced by the disk without
//! queueing publishes it has outrun.
//!
//! # Relays
//!
//! An answer can be a [`Relay`]: request lines for other servers. The
//! loop sends each over an idle connection from its address's pool, or
//! over a new one opened on a short-lived connect thread (so a slow
//! connect never stalls the loop), and reads the reply through
//! `poll(2)` like any other socket; the client connection stays busy
//! until the relay's gather step has built its reply. An upstream
//! connection carries one call at a time and stays in the poll set
//! while idle, so one the peer closes is dropped when the close
//! arrives. A pooled one that still fails before any reply byte (the
//! close raced the call) retries the call once on a new connection;
//! any other failure reaches the gather step as its reason.
//!
//! # Ordering
//!
//! Responses on one connection stay in request order: while a request
//! is out with a worker or a relay the connection's buffered lines are
//! not pumped, and completions append to the same outbound queue the
//! event thread's own replies use. At most one request per connection
//! is in flight at a time (pipelined lines queue in the
//! [`LineBuffer`]).
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
//! connections, and joins the workers. A worker finishes a job's
//! publishes before its next job, and a worker takes every job queued
//! before the pool closes, so the join also leaves every answered
//! request on disk.

use crate::disk::PendingWrite;
use crate::net::LineBuffer;
use crate::protocol::{error_line, Request, ServeError};
use crate::server::{Answer, Gather, Relay, ServerShared, Work};
use lim_obs::json::Value;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Mutex, PoisonError};
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

/// A job for the pool, tagged with the token of the connection it
/// belongs to.
enum Job {
    /// Answer a request the backend deferred, then publish its entries.
    Work(u64, Request, Work),
    /// Publish the entries of a reply the event thread already sent.
    Publish(u64, Vec<PendingWrite>),
}

/// What worker and connect threads hand back to the event thread.
enum Done {
    /// The connection with this token may take its next line, once
    /// this reply line (if any) is queued.
    Ready(u64, Option<String>),
    /// The connect attempt for this upstream slot finished.
    Connected(usize, io::Result<TcpStream>),
}

type Inbox = Arc<Mutex<Vec<Done>>>;

/// Queues `done` for the event thread and wakes it. A full wake pipe
/// means a wakeup is already pending; WouldBlock is fine. A push or a
/// take leaves the queue whole, so a poisoned lock is safe to reuse.
fn post(inbox: &Inbox, wake: &mut TcpStream, done: Done) {
    inbox
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(done);
    let _ = wake.write(&[1u8]);
}

/// Frames queued for a nonblocking socket; `sent` is the flushed
/// prefix. Empty, it holds no buffer.
#[derive(Default)]
struct Outbox {
    bytes: Vec<u8>,
    sent: usize,
}

impl Outbox {
    fn flushed(&self) -> bool {
        self.sent >= self.bytes.len()
    }

    /// Queues `line` and its newline as one frame. An empty outbox
    /// takes the line's buffer as its own; only a frame behind unsent
    /// bytes is copied.
    fn push_line(&mut self, line: String) {
        if self.bytes.is_empty() {
            self.bytes = line.into_bytes();
            self.bytes.push(b'\n');
        } else {
            self.copy_line(&line);
        }
    }

    /// Queues a copy of `line` and its newline, in at most one
    /// allocation: a relay keeps its call lines, to resend one over a
    /// fresh connection when a reused one fails.
    fn copy_line(&mut self, line: &str) {
        self.bytes.reserve(line.len() + 1);
        self.bytes.extend_from_slice(line.as_bytes());
        self.bytes.push(b'\n');
    }

    /// Writes what the socket takes without blocking, and releases the
    /// buffer once it is all sent.
    fn flush(&mut self, stream: &mut TcpStream) -> io::Result<()> {
        while self.sent < self.bytes.len() {
            match stream.write(&self.bytes[self.sent..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.sent += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        *self = Outbox::default();
        Ok(())
    }
}

/// Reads what a nonblocking socket has, up to [`READ_BUDGET`] bytes so
/// one firehose peer cannot starve the loop, into `buf` (or nowhere).
/// Returns the byte count and whether the peer closed.
fn read_available(
    stream: &mut TcpStream,
    mut buf: Option<&mut LineBuffer>,
) -> io::Result<(usize, bool)> {
    let mut total = 0;
    let mut chunk = [0u8; 4096];
    while total < READ_BUDGET {
        match stream.read(&mut chunk) {
            Ok(0) => return Ok((total, true)),
            Ok(n) => {
                total += n;
                if let Some(buf) = buf.as_deref_mut() {
                    buf.push(&chunk[..n]);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok((total, false))
}

/// One connection's state in the slab.
struct Conn {
    stream: TcpStream,
    buf: LineBuffer,
    out: Outbox,
    /// A request from this connection is out with a worker or a relay,
    /// or its last reply's disk entries are still being published.
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
    /// one that used the same slab slot; stale completions whose
    /// generation mismatches are dropped.
    gen: u32,
}

fn token(slot: usize, gen: u32) -> u64 {
    ((slot as u64) << 32) | u64::from(gen)
}

/// Puts `item` in a free slot of `slab` (or a new one) and returns the
/// slot.
fn insert<T>(slab: &mut Vec<Option<T>>, free: &mut Vec<usize>, item: T) -> usize {
    match free.pop() {
        Some(slot) => {
            slab[slot] = Some(item);
            slot
        }
        None => {
            slab.push(Some(item));
            slab.len() - 1
        }
    }
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
    inbox: Inbox,
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
        match job {
            Job::Work(token, rq, work) => {
                let (line, writes) = work(&rq);
                post(&inbox, &mut wake, Done::Ready(token, Some(line)));
                // Reply first: the event thread sends the line while
                // this worker writes and syncs the request's disk
                // entries. The next job waits for them, so the pool
                // join at drain leaves every answered request on disk.
                shared.backend.publish(writes);
            }
            Job::Publish(token, writes) => {
                shared.backend.publish(writes);
                post(&inbox, &mut wake, Done::Ready(token, None));
            }
        }
    }
}

/// An upstream connection relay calls travel over: one call at a time,
/// idle in its address's pool in between.
struct Upstream {
    /// `None` while a connect thread is at work.
    stream: Option<TcpStream>,
    addr: String,
    buf: LineBuffer,
    out: Outbox,
    /// The call in progress, `(relay slot, call index)`; `None` while
    /// idle.
    call: Option<(usize, usize)>,
    /// Taken from the idle pool, where the peer may have closed it
    /// (a restart, an idle-timeout reap): a failure before any reply
    /// byte retries the call once on a new connection.
    reused: bool,
}

/// A relay waiting on its calls.
struct Pending {
    token: u64,
    calls: Vec<(String, String)>,
    replies: Vec<Option<Result<String, String>>>,
    left: usize,
    gather: Gather,
}

/// Relays in flight and the upstream connections they use. Idle
/// upstreams stay in the poll set, so one the peer closes is dropped
/// when the close arrives rather than found dead by the next call.
struct Relays {
    ups: Vec<Option<Upstream>>,
    free_ups: Vec<usize>,
    idle: HashMap<String, Vec<usize>>,
    pending: Vec<Option<Pending>>,
    free_pending: Vec<usize>,
    /// Built replies: `(connection token, reply line)`.
    finished: Vec<(u64, String)>,
    inbox: Inbox,
    wake: TcpStream,
}

impl Relays {
    fn new(inbox: Inbox, wake: TcpStream) -> Relays {
        Relays {
            ups: Vec::new(),
            free_ups: Vec::new(),
            idle: HashMap::new(),
            pending: Vec::new(),
            free_pending: Vec::new(),
            finished: Vec::new(),
            inbox,
            wake,
        }
    }

    /// Sends every call of `relay`; its reply lands in `finished`.
    fn start(&mut self, token: u64, relay: Relay) {
        let n = relay.calls.len();
        let pending = Pending {
            token,
            calls: relay.calls,
            replies: (0..n).map(|_| None).collect(),
            left: n,
            gather: relay.gather,
        };
        let rid = insert(&mut self.pending, &mut self.free_pending, pending);
        if n == 0 {
            self.finish(rid);
        }
        for i in 0..n {
            self.send(rid, i, true);
        }
    }

    /// Sends call `i` of relay `rid` over an idle connection to its
    /// address (when `reuse`) or a new one, opened on a short-lived
    /// thread so a slow connect never stalls the loop.
    fn send(&mut self, rid: usize, i: usize, reuse: bool) {
        let (addr, line) = &self.pending[rid].as_ref().expect("live relay").calls[i];
        let idle = if reuse {
            self.idle.get_mut(addr).and_then(Vec::pop)
        } else {
            None
        };
        if let Some(u) = idle {
            let up = self.ups[u].as_mut().expect("idle upstream");
            up.out.copy_line(line);
            up.call = Some((rid, i));
            up.reused = true;
            self.flush(u);
            return;
        }
        let mut up = Upstream {
            stream: None,
            addr: addr.clone(),
            buf: LineBuffer::new(),
            out: Outbox::default(),
            call: Some((rid, i)),
            reused: false,
        };
        up.out.copy_line(line);
        let addr = addr.clone();
        let u = insert(&mut self.ups, &mut self.free_ups, up);
        // Detached: a connect to an unresponsive host can take minutes
        // and a drain must not wait for it. The thread only connects
        // and posts the outcome, which is how it is checked.
        let inbox = Arc::clone(&self.inbox);
        let spawned = self.wake.try_clone().and_then(|mut wake| {
            thread::Builder::new().spawn(move || {
                let stream = TcpStream::connect(addr.as_str());
                post(&inbox, &mut wake, Done::Connected(u, stream));
            })
        });
        if let Err(e) = spawned {
            self.on_connected(u, Err(e));
        }
    }

    fn on_connected(&mut self, u: usize, stream: io::Result<TcpStream>) {
        let ready = stream.and_then(|s| {
            s.set_nonblocking(true)?;
            s.set_nodelay(true)?;
            Ok(s)
        });
        match ready {
            Ok(s) => {
                self.ups[u].as_mut().expect("connecting upstream").stream = Some(s);
                self.flush(u);
            }
            Err(e) => {
                let up = self.drop_upstream(u);
                if let Some((rid, i)) = up.call {
                    self.complete(rid, i, Err(format!("unreachable: {e}")));
                }
            }
        }
    }

    fn flush(&mut self, u: usize) {
        let Some(up) = self.ups[u].as_mut() else {
            return;
        };
        let Some(stream) = up.stream.as_mut() else {
            return;
        };
        if let Err(e) = up.out.flush(stream) {
            self.fail(u, e.to_string());
        }
    }

    /// Handles poll readiness on upstream `u`.
    fn on_ready(&mut self, u: usize, revents: i16) {
        if revents & sys::POLLOUT != 0 {
            self.flush(u);
        }
        if revents & (sys::POLLIN | sys::POLLHUP | sys::POLLERR | sys::POLLNVAL) == 0 {
            return;
        }
        // A failed flush dropped the upstream (and a retry may have
        // put a connecting one in its slot).
        let Some(up) = self.ups[u].as_mut() else {
            return;
        };
        let Some(stream) = up.stream.as_mut() else {
            return;
        };
        let eof = match read_available(stream, Some(&mut up.buf)) {
            Ok((_, eof)) => eof,
            Err(e) => return self.fail(u, e.to_string()),
        };
        let Some((rid, i)) = up.call else {
            // Idle: the peer closed it, or sent bytes nobody asked for.
            return self.fail(u, String::new());
        };
        match up.buf.next_line() {
            Ok(Some(reply)) => {
                up.call = None;
                up.reused = false;
                if up.buf.is_empty() && !eof {
                    self.idle.entry(up.addr.clone()).or_default().push(u);
                } else {
                    self.drop_upstream(u);
                }
                self.complete(rid, i, Ok(reply));
            }
            Ok(None) if eof => self.fail(u, "connection closed mid-request".into()),
            Ok(None) => {}
            Err(e) => self.fail(u, e.message().into()),
        }
    }

    /// Drops a failed upstream. Its call retries once on a new
    /// connection when a pooled socket failed before any reply byte;
    /// otherwise the call fails.
    fn fail(&mut self, u: usize, why: String) {
        let up = self.drop_upstream(u);
        match up.call {
            None => {}
            Some((rid, i)) if up.reused && up.buf.is_empty() => self.send(rid, i, false),
            Some((rid, i)) => self.complete(rid, i, Err(format!("failed: {why}"))),
        }
    }

    fn drop_upstream(&mut self, u: usize) -> Upstream {
        let up = self.ups[u].take().expect("live upstream");
        self.free_ups.push(u);
        if up.call.is_none() {
            if let Some(idle) = self.idle.get_mut(&up.addr) {
                idle.retain(|&x| x != u);
            }
        }
        up
    }

    fn complete(&mut self, rid: usize, i: usize, reply: Result<String, String>) {
        let p = self.pending[rid].as_mut().expect("live relay");
        p.replies[i] = Some(reply);
        p.left -= 1;
        if p.left == 0 {
            self.finish(rid);
        }
    }

    fn finish(&mut self, rid: usize) {
        let p = self.pending[rid].take().expect("live relay");
        self.free_pending.push(rid);
        let replies = p
            .replies
            .into_iter()
            .map(|r| r.expect("every call answered"))
            .collect();
        self.finished.push((p.token, (p.gather)(replies)));
    }
}

/// Queues a response frame and opportunistically flushes, so the
/// common case answers in one write within the same readiness event
/// instead of waiting a poll cycle for `POLLOUT`.
fn push_response(conn: &mut Conn, line: String) {
    conn.out.push_line(line);
    flush(conn);
}

fn flush(conn: &mut Conn) {
    if conn.out.flush(&mut conn.stream).is_err() {
        conn.dead = true;
    }
}

/// Drains readable bytes into the line buffer (or the void, in discard
/// mode).
fn read_into(conn: &mut Conn, now: Instant) {
    let buf = conn.discard_until.is_none().then_some(&mut conn.buf);
    match read_available(&mut conn.stream, buf) {
        Ok((n, eof)) => {
            if n > 0 {
                conn.last_activity = now;
            }
            conn.eof |= eof;
        }
        Err(_) => conn.dead = true,
    }
}

/// Processes buffered complete lines until the connection goes busy,
/// runs dry, or hits a framing error.
fn pump(
    conn: &mut Conn,
    tok: u64,
    shared: &ServerShared,
    jobs: &mpsc::Sender<Job>,
    relays: &mut Relays,
) {
    if conn.discard_until.is_some() {
        return;
    }
    while !conn.busy && !conn.dead {
        match conn.buf.next_line() {
            Ok(Some(line)) => {
                if line.trim().is_empty() {
                    continue;
                }
                handle_line(conn, tok, line, shared, jobs, relays);
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
                push_response(conn, error_line(&Value::Null, &err));
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
    line: String,
    shared: &ServerShared,
    jobs: &mpsc::Sender<Job>,
    relays: &mut Relays,
) {
    let rq = match Request::parse(&line) {
        Ok(rq) => rq,
        Err(e) => {
            push_response(conn, error_line(&Value::Null, &e));
            return;
        }
    };
    match shared.backend.serve(&rq, line, shared) {
        Answer::Reply(line, writes) => {
            push_response(conn, line);
            // The entries are published on a worker while this
            // connection waits. With no worker left (teardown race)
            // they are dropped: the disk tier is an accelerator.
            if !writes.is_empty() && jobs.send(Job::Publish(tok, writes)).is_ok() {
                conn.busy = true;
            }
        }
        Answer::Relay(relay) => {
            conn.busy = true;
            relays.start(tok, relay);
        }
        Answer::Work(work) => {
            conn.busy = true;
            if let Err(mpsc::SendError(Job::Work(_, rq, _))) = jobs.send(Job::Work(tok, rq, work)) {
                // No worker left (teardown race, or a backend bound
                // with no pool): shed instead of hanging.
                conn.busy = false;
                push_response(conn, error_line(&rq.id, &ServeError::overloaded()));
            }
        }
    }
}

/// Runs the event loop until shutdown, then drains. See the module
/// docs for the life cycle.
pub(crate) fn run(
    listener: TcpListener,
    shared: Arc<ServerShared>,
    worker_count: usize,
) -> io::Result<()> {
    let (mut wake_rx, wake_tx) = wake_pair()?;
    let inbox: Inbox = Arc::new(Mutex::new(Vec::new()));
    let (job_tx, job_rx) = mpsc::channel::<Job>();
    let job_rx = Arc::new(Mutex::new(job_rx));
    let mut workers: Vec<JoinHandle<()>> = Vec::with_capacity(worker_count);
    for _ in 0..worker_count {
        let jobs = Arc::clone(&job_rx);
        let inbox = Arc::clone(&inbox);
        let wake = wake_tx.try_clone()?;
        let shared = Arc::clone(&shared);
        workers.push(thread::spawn(move || worker(jobs, inbox, wake, shared)));
    }
    // The workers hold the queue's receiving end: a job sent with none
    // left fails at once instead of waiting forever.
    drop(job_rx);
    let mut relays = Relays::new(Arc::clone(&inbox), wake_tx.try_clone()?);

    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut gen_counter: u32 = 0;
    let mut fds: Vec<sys::PollFd> = Vec::new();
    let mut fd_slots: Vec<usize> = Vec::new();
    let mut up_slots: Vec<usize> = Vec::new();
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
                    .any(|c| c.busy || (!c.dead && !c.out.flushed()));
                if !pending || Instant::now() >= deadline {
                    return Ok(());
                }
            }

            fds.clear();
            fd_slots.clear();
            up_slots.clear();
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
            for (u, up) in relays.ups.iter().enumerate() {
                let Some(up) = up else { continue };
                let Some(stream) = &up.stream else { continue };
                let mut events = sys::POLLIN;
                if !up.out.flushed() {
                    events |= sys::POLLOUT;
                }
                fds.push(sys::PollFd {
                    fd: stream.as_raw_fd(),
                    events,
                    revents: 0,
                });
                up_slots.push(u);
            }
            for (slot, conn) in conns.iter().enumerate() {
                let Some(c) = conn else { continue };
                let mut events = 0i16;
                if !c.eof {
                    events |= sys::POLLIN;
                }
                if !c.out.flushed() {
                    events |= sys::POLLOUT;
                }
                fds.push(sys::PollFd {
                    fd: c.stream.as_raw_fd(),
                    events,
                    revents: 0,
                });
                fd_slots.push(slot);
            }

            let timeout = if relays.finished.is_empty() {
                POLL_TIMEOUT
            } else {
                Duration::ZERO
            };
            poll_wait(&mut fds, timeout)?;
            let now = Instant::now();

            // Worker and connect-thread wakeups: drain the pipe, take
            // what they handed back.
            if fds[1].revents != 0 {
                let mut sink = [0u8; 256];
                while matches!(wake_rx.read(&mut sink), Ok(n) if n > 0) {}
            }
            let inbound =
                std::mem::take(&mut *inbox.lock().unwrap_or_else(PoisonError::into_inner));
            let mut ready: Vec<(u64, Option<String>)> = Vec::new();
            for done in inbound {
                match done {
                    Done::Ready(tok, line) => ready.push((tok, line)),
                    Done::Connected(u, stream) => relays.on_connected(u, stream),
                }
            }

            // Upstream readiness, then every finished reply, relay and
            // publish goes to its connection.
            for (i, &u) in up_slots.iter().enumerate() {
                let revents = fds[i + 2].revents;
                if revents != 0 {
                    relays.on_ready(u, revents);
                }
            }
            for (tok, line) in relays.finished.drain(..) {
                ready.push((tok, Some(line)));
            }
            for (tok, line) in ready {
                let slot = (tok >> 32) as usize;
                let gen = tok as u32;
                if let Some(Some(c)) = conns.get_mut(slot) {
                    if c.gen == gen {
                        c.busy = false;
                        if let Some(line) = line {
                            push_response(c, line);
                        }
                        pump(c, tok, &shared, &job_tx, &mut relays);
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
                                out: Outbox::default(),
                                busy: false,
                                eof: false,
                                dead: false,
                                discard_until: None,
                                last_activity: now,
                                timed_out: false,
                                gen: gen_counter,
                            };
                            insert(&mut conns, &mut free, conn);
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(e) => return Err(e),
                    }
                }
            }

            // Connection readiness.
            let conn_fds = 2 + up_slots.len();
            for (i, &slot) in fd_slots.iter().enumerate() {
                let revents = fds[i + conn_fds].revents;
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
                    pump(c, token(slot, c.gen), &shared, &job_tx, &mut relays);
                }
            }

            // Close/idle sweep.
            for (slot, entry) in conns.iter_mut().enumerate() {
                let Some(c) = entry.as_mut() else { continue };
                if let (Some(idle), false) = (shared.idle_timeout, c.busy) {
                    if c.out.flushed()
                        && !c.eof
                        && c.discard_until.is_none()
                        && now.duration_since(c.last_activity) >= idle
                    {
                        c.timed_out = true;
                        c.dead = true;
                    }
                }
                if let Some(deadline) = c.discard_until {
                    if now >= deadline || (c.eof && c.out.flushed()) {
                        c.dead = true;
                    }
                }
                let close = c.dead || (c.eof && !c.busy && c.out.flushed());
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
    drop(relays);
    drop(job_tx);
    drop(wake_tx);
    for handle in workers {
        let _ = handle.join();
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{write_line, LineReader};
    use crate::server::{Backend, Bound};

    /// A connected loopback pair: the nonblocking server side the loop
    /// would own, and a blocking client.
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        (server, client)
    }

    #[test]
    fn a_frame_is_sent_from_its_own_buffer_in_one_piece() {
        let (mut server, mut client) = socket_pair();
        let mut out = Outbox::default();
        let line = crate::protocol::ok_line(&Value::Null, true, "{\"pong\":true}");
        let built_at = line.as_ptr();
        out.push_line(line);
        // Adopted, not copied: the newline went into the spare byte.
        assert_eq!(out.bytes.as_ptr(), built_at);
        out.flush(&mut server).unwrap();
        assert!(out.flushed());
        let mut got = vec![0u8; 64];
        let n = client.read(&mut got).unwrap();
        assert_eq!(
            &got[..n],
            b"{\"id\":null,\"ok\":true,\"cached\":true,\"result\":{\"pong\":true}}\n"
        );
    }

    #[test]
    fn outbox_releases_its_buffer_once_a_large_frame_is_flushed() {
        let (mut server, client) = socket_pair();
        let mut out = Outbox::default();
        // Two frames: 8 MiB outruns any loopback socket buffer while
        // the peer is not reading, so the second frame queues behind
        // the first one's unsent tail.
        let big = "x".repeat(8 << 20);
        out.push_line(big.clone());
        out.flush(&mut server).unwrap();
        out.push_line("tail".to_string());
        let reader = thread::spawn(move || {
            let mut all = Vec::new();
            let mut client = client;
            client.read_to_end(&mut all).unwrap();
            all
        });
        while !out.flushed() {
            thread::sleep(Duration::from_millis(1));
            out.flush(&mut server).unwrap();
        }
        assert_eq!(
            out.bytes.capacity(),
            0,
            "a flushed outbox must hold no buffer"
        );
        assert_eq!(out.sent, 0);
        drop(server);
        let all = reader.join().unwrap();
        assert_eq!(all.len(), big.len() + "\ntail\n".len());
        assert!(all.ends_with(b"x\ntail\n"));
    }

    /// Answers every request on the event thread with one disk entry,
    /// whose publish takes [`SlowDisk::PUBLISH`].
    struct SlowDisk;

    impl SlowDisk {
        const PUBLISH: Duration = Duration::from_millis(300);
    }

    impl Backend for SlowDisk {
        fn serve(&self, rq: &Request, _line: String, _server: &ServerShared) -> Answer {
            let write = PendingWrite::new(0, "m", &Arc::new(String::new()));
            let line = crate::protocol::ok_line(&rq.id, false, "{}");
            Answer::Reply(line, vec![write])
        }

        fn publish(&self, _writes: Vec<PendingWrite>) {
            thread::sleep(SlowDisk::PUBLISH);
        }
    }

    #[test]
    fn an_event_thread_replys_disk_writes_hold_up_only_its_connection() {
        let bound = Bound::new("127.0.0.1:0", Arc::new(SlowDisk), 2, None).unwrap();
        let addr = bound.addr;
        let handle = bound.spawn();
        let connect = || {
            let stream = TcpStream::connect(addr).unwrap();
            let reader = LineReader::new(stream.try_clone().unwrap());
            (stream, reader)
        };
        let ask = |(stream, reader): &mut (TcpStream, LineReader)| {
            write_line(stream, "{\"id\":1,\"method\":\"m\"}").unwrap();
            reader.read_line().unwrap().expect("a reply line")
        };
        let (mut writer, mut other) = (connect(), connect());
        ask(&mut writer);
        let replied = Instant::now();
        // The reply is out and its entry is being published: another
        // connection is answered meanwhile.
        ask(&mut other);
        let waited = replied.elapsed();
        assert!(
            waited < Duration::from_millis(100),
            "another connection waited {waited:?} for the publish"
        );
        // The writer's own connection takes its next line only once its
        // entry is published.
        ask(&mut writer);
        let waited = replied.elapsed();
        assert!(
            waited >= SlowDisk::PUBLISH - Duration::from_millis(50),
            "the writer's next request ran after {waited:?}, before its publish"
        );
        handle.shutdown_and_join().unwrap();
    }
}
