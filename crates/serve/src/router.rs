//! `lim-router`: a thin consistent-hashing front for a cluster of
//! `lim-serve` shards.
//!
//! Each request is placed on a shard by hashing its routing key
//! ([`crate::ring::route_key`]) onto the [`HashRing`], so all stack
//! heights of one brick land on the shard that already compiled it and
//! repeats of any request land on the shard whose memo holds it. Single
//! requests are forwarded as raw line bytes and the shard's response is
//! relayed verbatim — byte-identity with a single-shard deployment is
//! structural, not re-rendered. `batch` requests are scattered: entries
//! are grouped by shard, each group travels as one sub-batch (so the
//! per-shard golden panel sharing is preserved), and the
//! groups' result arrays are re-gathered in original entry order by raw
//! byte splicing, never by re-rendering.
//!
//! The router runs on the shard's own `poll(2)` event loop, as one more
//! `Backend`, so it gets the shard's connection handling: the
//! `connections` accounting, the 400 line before closing on an
//! oversized line, and the drain. Every answer is built on the event
//! thread, so the router binds with no worker pool; all but its own
//! `server.stats` are a `Relay`, which the loop carries over pooled
//! upstream connections, one request at a time each, without blocking
//! (see `crate::poll`), and a scattered batch's sub-batches go out
//! together. The router sheds nothing itself: it has no admission
//! gate, and the shards' own 429 lines reach the client verbatim.
//!
//! Known limits: client trace ids are not propagated through a
//! *scattered* batch (they are through every other request, including
//! single-shard batches); a shard failing mid-scatter fails the whole
//! batch with a 502; and `server.trace` and `server.telemetry` are
//! forwarded like any request, so they answer from whichever shard
//! `route_key` picks — `lim-client --trace` through a router can miss
//! the trace its request left on another shard.
//!
//! `server.shutdown` starts the router's drain, then relays the
//! shutdown to every shard (best-effort) and answers once each has
//! replied or failed, so a shard that never answers holds the router
//! no longer than the drain grace. `server.stats` answers from the
//! router with its connection figures, shard addresses and forwarding
//! counters rather than proxying one shard's view.

use crate::protocol::{cache_key, error_line, ok_line, Request, ServeError};
use crate::ring::{route_key, HashRing};
use crate::server::{Answer, Backend, Bound, Relay, ServerHandle, ServerShared};
use crate::service::MAX_BATCH;
use lim_obs::json::{self, Value};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A bound, not-yet-running router.
pub struct Router {
    bound: Bound,
}

/// The router's backend: the shards, the ring over them, and
/// forwarding counters.
#[derive(Debug)]
struct RouterShared {
    shards: Vec<String>,
    ring: HashRing,
    counts: Arc<Counts>,
}

/// Forwarding counters, shared with the relays' gather steps.
#[derive(Debug, Default)]
struct Counts {
    forwarded: AtomicU64,
    scattered: AtomicU64,
    errors: AtomicU64,
}

impl Router {
    /// Binds to `addr` routing across `shards` (shard addresses,
    /// `host:port`).
    ///
    /// # Errors
    ///
    /// Fails on an empty shard list or a bind failure.
    pub fn bind<S: AsRef<str>>(addr: &str, shards: &[S]) -> io::Result<Router> {
        if shards.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "router needs at least one shard",
            ));
        }
        let shards: Vec<String> = shards.iter().map(|s| s.as_ref().to_string()).collect();
        let shared = RouterShared {
            ring: HashRing::new(&shards),
            shards,
            counts: Arc::default(),
        };
        // Every answer is built on the event thread: no worker pool.
        let bound = Bound::new(addr, Arc::new(shared), 0, None)?;
        Ok(Router { bound })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.bound.addr
    }

    /// Runs the router until shutdown, then drains client connections.
    ///
    /// # Errors
    ///
    /// Propagates listener socket failures.
    pub fn run(self) -> io::Result<()> {
        self.bound.run()
    }

    /// Runs the router on a background thread.
    pub fn spawn(self) -> ServerHandle {
        self.bound.spawn()
    }
}

/// Every request is answered now: `server.stats` from the router's own
/// figures, everything else by a relay to the shards.
impl Backend for RouterShared {
    fn serve(&self, rq: &Request, line: String, server: &ServerShared) -> Answer {
        match rq.method.as_str() {
            "server.shutdown" => {
                // Drain first, so a shard that never answers holds the
                // router no longer than the drain grace; reply once
                // every shard has answered or failed (best-effort).
                let reply = server.drain(&rq.id);
                let line = "{\"id\":0,\"method\":\"server.shutdown\"}";
                let calls = self
                    .shards
                    .iter()
                    .map(|addr| (addr.clone(), line.to_owned()))
                    .collect();
                Answer::Relay(Relay {
                    calls,
                    gather: Box::new(move |_| reply),
                })
            }
            "server.stats" => Answer::Reply(
                ok_line(&rq.id, false, &json::render(&stats_value(self, server))),
                Vec::new(),
            ),
            "batch" => scatter_batch(line, rq, self),
            _ => {
                let shard = self.ring.shard_for(route_key(&rq.method, &rq.params));
                forward(shard, line, rq, self)
            }
        }
    }
}

/// A relayed call's reply line, or the 502 its failure becomes
/// (counted).
fn shard_reply(
    counts: &Counts,
    addr: &str,
    reply: Result<String, String>,
) -> Result<String, ServeError> {
    reply.map_err(|e| {
        counts.errors.fetch_add(1, Ordering::Relaxed);
        ServeError::bad_gateway(format!("shard {addr} {e}"))
    })
}

/// Forwards `line` verbatim to `shard` and relays its reply.
fn forward(shard: usize, line: String, rq: &Request, shared: &RouterShared) -> Answer {
    shared.counts.forwarded.fetch_add(1, Ordering::Relaxed);
    let addr = shared.shards[shard].clone();
    let (id, counts) = (rq.id.clone(), Arc::clone(&shared.counts));
    Answer::Relay(Relay {
        calls: vec![(addr.clone(), line)],
        gather: Box::new(move |replies| {
            let reply = replies.into_iter().next().expect("one call");
            shard_reply(&counts, &addr, reply).unwrap_or_else(|e| error_line(&id, &e))
        }),
    })
}

/// Scatters a `batch` across shards; the relay's gather step puts the
/// result arrays back in original entry order.
///
/// Entry validation is left to the shards: any batch whose shape the
/// router cannot route (malformed entries, nested batch, over-long) is
/// forwarded whole to one shard so the error bytes are the shard's
/// canonical ones. A batch whose entries all route to one shard is
/// likewise forwarded verbatim — that path also preserves trace
/// propagation and whole-batch memo behavior exactly.
fn scatter_batch(line: String, rq: &Request, shared: &RouterShared) -> Answer {
    let fallback_shard = shared.ring.shard_for(cache_key("batch", &rq.params));
    let forward_whole = |shard: usize| forward(shard, line, rq, shared);
    let Some(Value::Array(requests)) = rq.params.get("requests") else {
        return forward_whole(fallback_shard);
    };
    let mut targets = Vec::with_capacity(requests.len());
    for entry in requests {
        let (Some(Value::String(method)), params) = (entry.get("method"), entry.get("params"))
        else {
            return forward_whole(fallback_shard);
        };
        if method == "batch" || requests.len() > MAX_BATCH {
            return forward_whole(fallback_shard);
        }
        let empty = Value::Object(Vec::new());
        let params = match params {
            None => &empty,
            Some(p @ Value::Object(_)) => p,
            Some(_) => return forward_whole(fallback_shard),
        };
        targets.push(shared.ring.shard_for(route_key(method, params)));
    }
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); shared.shards.len()];
    for (i, &shard) in targets.iter().enumerate() {
        groups[shard].push(i);
    }
    let busy: Vec<usize> = (0..groups.len())
        .filter(|&s| !groups[s].is_empty())
        .collect();
    if busy.len() <= 1 {
        return forward_whole(busy.first().copied().unwrap_or(fallback_shard));
    }
    shared.counts.scattered.fetch_add(1, Ordering::Relaxed);

    // Scatter: each involved shard gets one sub-batch carrying its
    // entries verbatim (re-rendered request-side only; responses are
    // never re-rendered). The sub-batches go out together.
    let calls = busy
        .iter()
        .map(|&shard| {
            let entries: Vec<String> = groups[shard]
                .iter()
                .map(|&i| json::render(&requests[i]))
                .collect();
            let sub = format!(
                "{{\"id\":0,\"method\":\"batch\",\"params\":{{\"requests\":[{}]}}}}",
                entries.join(",")
            );
            (shared.shards[shard].clone(), sub)
        })
        .collect();
    let gather = Gather {
        id: rq.id.clone(),
        entries: requests.len(),
        groups: busy
            .iter()
            .map(|&s| std::mem::take(&mut groups[s]))
            .collect(),
        shards: busy.iter().map(|&s| shared.shards[s].clone()).collect(),
        counts: Arc::clone(&shared.counts),
    };
    Answer::Relay(Relay {
        calls,
        gather: Box::new(move |replies| gather.reply(replies)),
    })
}

/// What a scattered batch's gather step needs: per involved shard, its
/// address and the original positions of its entries.
struct Gather {
    id: Value,
    entries: usize,
    groups: Vec<Vec<usize>>,
    shards: Vec<String>,
    counts: Arc<Counts>,
}

impl Gather {
    /// Splices each shard's result array back into original entry
    /// order without touching the entry bytes.
    fn reply(self, replies: Vec<Result<String, String>>) -> String {
        let mut gathered: Vec<String> = Vec::with_capacity(replies.len());
        for (addr, reply) in self.shards.iter().zip(replies) {
            match shard_reply(&self.counts, addr, reply) {
                Ok(resp) => gathered.push(resp),
                Err(e) => return error_line(&self.id, &e),
            }
        }
        let mut slots: Vec<Option<&str>> = vec![None; self.entries];
        for ((addr, group), resp) in self.shards.iter().zip(&self.groups).zip(&gathered) {
            let Some(entries) = batch_results_slice(resp).map(split_top_level) else {
                // The shard answered with an error line (e.g. it shed
                // the sub-batch); relay its code and message under our
                // id.
                let err = match Value::parse(resp).ok().as_ref().and_then(shard_error) {
                    Some(err) => err,
                    None => ServeError::bad_gateway(format!(
                        "shard {addr} returned an unparseable batch response"
                    )),
                };
                return error_line(&self.id, &err);
            };
            if entries.len() != group.len() {
                return error_line(
                    &self.id,
                    &ServeError::bad_gateway(format!(
                        "shard {addr} returned {} results for {} entries",
                        entries.len(),
                        group.len()
                    )),
                );
            }
            for (&i, entry) in group.iter().zip(entries) {
                slots[i] = Some(entry);
            }
        }
        let joined: Vec<&str> = slots
            .into_iter()
            .map(|s| s.expect("every entry was grouped onto some shard"))
            .collect();
        ok_line(
            &self.id,
            false,
            &format!("{{\"results\":[{}]}}", joined.join(",")),
        )
    }
}

/// Extracts the raw contents of the `results` array from one shard's
/// successful batch response, exploiting the service's fixed rendering
/// (`…,"result":{"results":[ … ]}}`). `None` for error responses.
fn batch_results_slice(resp: &str) -> Option<&str> {
    let result = crate::protocol::result_slice(resp)?;
    result
        .strip_prefix("{\"results\":[")?
        .strip_suffix("]}")
}

/// Pulls the `error` member off a parsed shard response.
fn shard_error(resp: &Value) -> Option<ServeError> {
    let err = resp.get("error")?;
    Some(ServeError {
        code: err.get("code")?.as_f64()? as u32,
        message: err.get("message")?.as_str()?.to_string(),
    })
}

/// Splits the interior of a JSON array into its top-level elements
/// without parsing them: tracks brace/bracket depth and string state so
/// commas inside nested values or strings don't split. The input is
/// trusted shard output, so this never validates, only scans.
fn split_top_level(s: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    if s.is_empty() {
        return parts;
    }
    let bytes = s.as_bytes();
    let (mut depth, mut start) = (0usize, 0usize);
    let (mut in_string, mut escaped) = (false, false);
    for (i, &b) in bytes.iter().enumerate() {
        if in_string {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'{' | b'[' => depth += 1,
            b'}' | b']' => depth = depth.saturating_sub(1),
            b',' if depth == 0 => {
                parts.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&s[start..]);
    parts
}

/// Router-level statistics: the connection figures plus shard
/// addresses and forwarding counters (the router does not proxy shard
/// stats, and has no gate: its shards do the shedding).
fn stats_value(shared: &RouterShared, server: &ServerShared) -> Value {
    let count = |c: &AtomicU64| Value::Number(c.load(Ordering::Relaxed) as f64);
    let mut members = vec![("router".to_owned(), Value::Bool(true))];
    members.extend(server.stats_members(None));
    members.extend([
        (
            "shards".to_owned(),
            Value::Array(
                shared
                    .shards
                    .iter()
                    .map(|s| Value::String(s.clone()))
                    .collect(),
            ),
        ),
        ("forwarded".to_owned(), count(&shared.counts.forwarded)),
        ("scattered".to_owned(), count(&shared.counts.scattered)),
        ("errors".to_owned(), count(&shared.counts.errors)),
    ]);
    Value::Object(members)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_top_level_respects_nesting_and_strings() {
        assert_eq!(split_top_level(""), Vec::<&str>::new());
        assert_eq!(split_top_level("{\"a\":1}"), vec!["{\"a\":1}"]);
        assert_eq!(
            split_top_level("{\"a\":[1,2]},{\"b\":\"x,y\"},{\"c\":{\"d\":3}}"),
            vec!["{\"a\":[1,2]}", "{\"b\":\"x,y\"}", "{\"c\":{\"d\":3}}"]
        );
        // Escaped quotes inside strings don't end the string.
        assert_eq!(
            split_top_level(r#"{"m":"a\",b"},{"n":2}"#),
            vec![r#"{"m":"a\",b"}"#, r#"{"n":2}"#]
        );
    }

    #[test]
    fn batch_results_slice_matches_service_rendering() {
        let resp = "{\"id\":4,\"ok\":true,\"cached\":false,\"result\":{\"results\":[{\"ok\":true,\"cached\":false,\"result\":{\"x\":1}},{\"ok\":false,\"error\":{\"code\":404,\"message\":\"m\"}}]}}";
        let inner = batch_results_slice(resp).unwrap();
        let entries = split_top_level(inner);
        assert_eq!(entries.len(), 2);
        assert!(entries[0].starts_with("{\"ok\":true"));
        assert!(entries[1].starts_with("{\"ok\":false"));
        // Error responses never slice.
        assert_eq!(
            batch_results_slice("{\"id\":1,\"ok\":false,\"error\":{\"code\":429,\"message\":\"m\"}}"),
            None
        );
    }

    #[test]
    fn bind_rejects_an_empty_shard_list() {
        let shards: [&str; 0] = [];
        assert!(Router::bind("127.0.0.1:0", &shards).is_err());
    }
}
