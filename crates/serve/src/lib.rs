//! `lim-serve`: synthesis-as-a-service for the LiM flow.
//!
//! A resident daemon keeps the expensive state — compiled bricks,
//! characterized library entries, rendered responses — warm across
//! requests, turning the cold-start flow into a milliseconds-scale RPC.
//! The moving parts:
//!
//! * [`protocol`] — the `lim-serve-v1` wire format: one JSON request
//!   per line in, one JSON response per line out, over plain TCP. The
//!   JSON is the same hand-rolled [`lim_obs::json`] used by the obs
//!   reports; the crate has zero external dependencies.
//! * [`service`] — transport-independent execution: method handlers
//!   (`brick.estimate`, `golden.compare`, `flow.run`, `dse.explore`,
//!   `batch`, …) over a process-wide [`lim_brick::SharedBrickLibrary`],
//!   a content-addressed LRU response memo ([`cache`]), per-endpoint
//!   latency accounting, and per-request obs span adoption.
//! * [`gate`] — backpressure: a shard's bounded in-flight gate;
//!   requests that find it full are shed with an explicit 429-style
//!   error instead of queueing.
//! * [`server`] — the TCP front end and graceful drain. One `poll(2)`
//!   event loop carries every connection of a shard or a router, so
//!   thousands of idle clients cost ~zero CPU. The loop asks its
//!   backend once per request whether to answer on the event thread or
//!   on a shard's small worker pool, and writes nothing to disk on the
//!   event thread. [`net`] holds the line framing shared by the loop
//!   and its clients. The front end is Linux-only.
//! * [`disk`] — the persistent compile cache: rendered replies survive
//!   restarts, so a rebooted shard answers repeated requests from disk,
//!   byte-identical, without recompiling.
//! * [`ring`]/[`router`] — cluster mode: `lim-router` consistent-hashes
//!   brick keys across shards and scatter/gathers `batch` requests, on
//!   the same event loop as a shard.
//!
//! Three binaries ship with the crate: `lim-serve` (the daemon),
//! `lim-router` (the cluster front) and `lim-client` (a one-shot caller
//! that doubles as a load generator with latency percentiles).
//!
//! # Examples
//!
//! Boot an in-process server on an ephemeral port and call it:
//!
//! ```
//! use lim_serve::{ServeConfig, Server};
//! use lim_serve::net::{write_line, LineReader};
//! use std::net::TcpStream;
//!
//! # fn main() -> std::io::Result<()> {
//! let server = Server::bind("127.0.0.1:0", &ServeConfig::default())?;
//! let addr = server.local_addr();
//! let handle = server.spawn();
//!
//! let mut stream = TcpStream::connect(addr)?;
//! write_line(&mut stream, r#"{"id":1,"method":"server.ping"}"#)?;
//! let mut reader = LineReader::new(stream.try_clone()?);
//! let reply = reader.read_line()?.expect("one response line");
//! assert!(reply.contains("\"pong\":true"));
//!
//! handle.shutdown_and_join()?;
//! # Ok(())
//! # }
//! ```

#[cfg(not(target_os = "linux"))]
compile_error!("lim-serve's front end runs on a Linux poll(2) event loop");

pub mod cache;
pub mod disk;
pub mod gate;
pub mod net;
#[cfg(target_os = "linux")]
mod poll;
pub mod protocol;
pub mod ring;
pub mod router;
pub mod server;
pub mod service;

pub use cache::ResponseCache;
pub use disk::DiskCache;
pub use gate::Gate;
pub use protocol::{Request, ServeError, PROTOCOL};
pub use ring::HashRing;
pub use server::{Server, ServerHandle};
pub use service::{CallOutcome, ServeConfig, Service};
