//! Request traces: a trace id propagated across threads, plus a bounded
//! buffer of completed per-request span trees.
//!
//! A [`TraceId`] is minted once per request — by the client (so the id
//! appears in client-side logs before the request is sent) or by the
//! server when the client did not supply one. The id lives in a
//! thread-local while the request executes ([`TraceScope`]); `lim-par`
//! workers inherit the spawning thread's id so fan-out keeps one id per
//! request. When the request finishes, its captured span tree becomes a
//! [`Trace`] and is pushed into a [`TraceBuffer`], which retains the N
//! most recent and the N slowest completed traces — recency answers
//! "what just happened", the slowest set survives long after the burst
//! that produced it scrolled out of the recent ring.
//!
//! Traces serialize as one `trace` line of the `lim-obs-v1` schema
//! ([`trace_json_line`]), with the span tree nested as an array in
//! pre-order (same `depth` convention as top-level `span` lines).

use crate::report::{Report, SpanRow};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// A process-unique request identifier, rendered as 16 hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(pub u64);

/// SplitMix64 finalizer: a cheap bijective mixer, so sequential mint
/// counters render as unrelated-looking ids.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

static MINT_COUNTER: AtomicU64 = AtomicU64::new(0);
static MINT_SEED: OnceLock<u64> = OnceLock::new();

impl TraceId {
    /// Mints a fresh id: a per-process random-looking seed (pid mixed
    /// with wall-clock nanos) plus an atomic counter, finalized through
    /// the SplitMix64 mixer. Ids from concurrent processes (clients and the
    /// server) collide only if both seed and counter collide.
    #[must_use]
    pub fn mint() -> TraceId {
        let seed = *MINT_SEED.get_or_init(|| {
            let nanos = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| u64::try_from(d.as_nanos() & u128::from(u64::MAX)).unwrap_or(0));
            splitmix64(nanos ^ (u64::from(std::process::id()) << 32))
        });
        let n = MINT_COUNTER.fetch_add(1, Ordering::Relaxed);
        TraceId(splitmix64(seed.wrapping_add(n)).max(1))
    }

    /// Parses the [`TraceId::render`] format (1–16 hex digits).
    #[must_use]
    pub fn parse(s: &str) -> Option<TraceId> {
        if s.is_empty() || s.len() > 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(TraceId)
    }

    /// Renders the id as fixed-width lowercase hex.
    #[must_use]
    pub fn render(self) -> String {
        format!("{:016x}", self.0)
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

thread_local! {
    static CURRENT: Cell<Option<TraceId>> = const { Cell::new(None) };
}

/// The trace id currently active on this thread, if any.
#[must_use]
pub fn current() -> Option<TraceId> {
    CURRENT.with(Cell::get)
}

/// Sets (or clears) this thread's active trace id. Prefer
/// [`TraceScope`], which restores the previous id on drop; this raw
/// setter exists for worker threads that adopt an inherited id for
/// their whole lifetime.
pub fn set_current(id: Option<TraceId>) {
    CURRENT.with(|c| c.set(id));
}

/// RAII guard: makes `id` this thread's active trace id until dropped,
/// then restores whatever was active before.
#[must_use = "the trace id is only active while the scope guard is held"]
#[derive(Debug)]
pub struct TraceScope {
    prev: Option<TraceId>,
}

impl TraceScope {
    /// Activates `id` on this thread.
    pub fn enter(id: TraceId) -> TraceScope {
        let prev = current();
        set_current(Some(id));
        TraceScope { prev }
    }
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        set_current(self.prev);
    }
}

/// One completed request: its id, endpoint method, total latency, and
/// the captured span tree in pre-order.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// The propagated request id.
    pub id: TraceId,
    /// Endpoint method the request hit (e.g. `golden.compare`).
    pub method: String,
    /// End-to-end service time for the request.
    pub total: Duration,
    /// The request's span tree, pre-order (same shape as
    /// [`Report::spans`]).
    pub spans: Vec<SpanRow>,
}

impl Trace {
    /// Builds a trace from a per-request captured [`Report`].
    #[must_use]
    pub fn from_report(id: TraceId, method: &str, total: Duration, report: &Report) -> Trace {
        Trace {
            id,
            method: method.to_owned(),
            total,
            spans: report.spans.clone(),
        }
    }
}

struct BufferInner {
    /// Most recent completed traces, oldest first.
    recent: VecDeque<Arc<Trace>>,
    /// Slowest completed traces, sorted slowest-first.
    slowest: Vec<Arc<Trace>>,
}

/// A bounded retention buffer: the `cap` most recent and the `cap`
/// slowest completed traces (one trace may be in both sets).
pub struct TraceBuffer {
    cap: usize,
    inner: Mutex<BufferInner>,
}

impl std::fmt::Debug for TraceBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceBuffer").field("cap", &self.cap).finish()
    }
}

impl TraceBuffer {
    /// An empty buffer retaining up to `cap` traces per set.
    #[must_use]
    pub fn new(cap: usize) -> TraceBuffer {
        TraceBuffer {
            cap: cap.max(1),
            inner: Mutex::new(BufferInner {
                recent: VecDeque::new(),
                slowest: Vec::new(),
            }),
        }
    }

    /// Retains `trace`: always enters the recent ring (evicting the
    /// oldest), and enters the slowest set if it beats the current
    /// slowest cut-off.
    pub fn push(&self, trace: Trace) {
        let trace = Arc::new(trace);
        let mut inner = self.inner.lock().expect("trace buffer lock poisoned");
        if inner.recent.len() == self.cap {
            inner.recent.pop_front();
        }
        inner.recent.push_back(Arc::clone(&trace));
        // Insertion sort into the slowest-first list; ties keep the
        // earlier arrival ahead, so retention is deterministic.
        let pos = inner
            .slowest
            .partition_point(|t| t.total >= trace.total);
        if pos < self.cap {
            inner.slowest.insert(pos, trace);
            inner.slowest.truncate(self.cap);
        }
    }

    /// Up to `n` most recent traces, newest first.
    #[must_use]
    pub fn recent(&self, n: usize) -> Vec<Arc<Trace>> {
        let inner = self.inner.lock().expect("trace buffer lock poisoned");
        inner.recent.iter().rev().take(n).cloned().collect()
    }

    /// Up to `n` slowest traces, slowest first.
    #[must_use]
    pub fn slowest(&self, n: usize) -> Vec<Arc<Trace>> {
        let inner = self.inner.lock().expect("trace buffer lock poisoned");
        inner.slowest.iter().take(n).cloned().collect()
    }

    /// Looks up a retained trace by id (either set).
    #[must_use]
    pub fn find(&self, id: TraceId) -> Option<Arc<Trace>> {
        let inner = self.inner.lock().expect("trace buffer lock poisoned");
        inner
            .slowest
            .iter()
            .chain(inner.recent.iter())
            .find(|t| t.id == id)
            .cloned()
    }

    /// Number of traces ever retained in the recent ring right now.
    #[must_use]
    pub fn recent_len(&self) -> usize {
        self.inner.lock().expect("trace buffer lock poisoned").recent.len()
    }
}

/// Formats one `trace` JSON line of the `lim-obs-v1` schema. The span
/// tree nests as a pre-order array; each element carries the same
/// fields as a top-level `span` line.
#[must_use]
pub fn trace_json_line(t: &Trace) -> String {
    let mut out = format!(
        "{{\"type\":\"trace\",\"id\":{},\"method\":{},\"total_ns\":{},\"spans\":[",
        crate::json::string(&t.id.render()),
        crate::json::string(&t.method),
        t.total.as_nanos(),
    );
    for (i, s) in t.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"path\":{},\"name\":{},\"depth\":{},\"calls\":{},\"total_ns\":{}}}",
            crate::json::string(&s.path),
            crate::json::string(&s.name),
            s.depth,
            s.calls,
            s.total.as_nanos(),
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_with(id: u64, total_us: u64) -> Trace {
        Trace {
            id: TraceId(id),
            method: "golden.compare".into(),
            total: Duration::from_micros(total_us),
            spans: vec![SpanRow {
                path: "serve.request".into(),
                name: "serve.request".into(),
                depth: 0,
                calls: 1,
                total: Duration::from_micros(total_us),
            }],
        }
    }

    #[test]
    fn minted_ids_are_unique_and_roundtrip() {
        let a = TraceId::mint();
        let b = TraceId::mint();
        assert_ne!(a, b);
        assert_eq!(TraceId::parse(&a.render()), Some(a));
        assert_eq!(a.render().len(), 16);
        assert!(TraceId::parse("").is_none());
        assert!(TraceId::parse("not-hex").is_none());
        assert!(TraceId::parse("00112233445566778899").is_none());
    }

    #[test]
    fn scope_nests_and_restores() {
        assert_eq!(current(), None);
        {
            let _outer = TraceScope::enter(TraceId(1));
            assert_eq!(current(), Some(TraceId(1)));
            {
                let _inner = TraceScope::enter(TraceId(2));
                assert_eq!(current(), Some(TraceId(2)));
            }
            assert_eq!(current(), Some(TraceId(1)));
        }
        assert_eq!(current(), None);
    }

    #[test]
    fn buffer_keeps_slowest_past_recency_eviction() {
        let buf = TraceBuffer::new(3);
        buf.push(trace_with(1, 9_000)); // the slow one, early
        for i in 2..=10 {
            buf.push(trace_with(i, 10 + i));
        }
        // The recent ring holds only the last 3...
        let recent = buf.recent(10);
        assert_eq!(recent.len(), 3);
        assert_eq!(recent[0].id, TraceId(10));
        assert!(recent.iter().all(|t| t.id != TraceId(1)));
        // ...but the slow request survives in the slowest set.
        let slowest = buf.slowest(10);
        assert_eq!(slowest[0].id, TraceId(1));
        assert!(slowest.len() <= 3);
        assert!(buf.find(TraceId(1)).is_some());
        assert!(buf.find(TraceId(10)).is_some());
        assert!(buf.find(TraceId(2)).is_none(), "fast and old: evicted");
    }

    #[test]
    fn trace_line_is_schema_valid() {
        let line = trace_json_line(&trace_with(0xabcd, 1234));
        let v = crate::json::Value::parse(&line).unwrap();
        assert_eq!(
            v.get("type").and_then(crate::json::Value::as_str),
            Some("trace")
        );
        assert_eq!(
            v.get("id").and_then(crate::json::Value::as_str),
            Some("000000000000abcd")
        );
        let spans = v.get("spans").and_then(crate::json::Value::as_array).unwrap();
        assert_eq!(spans.len(), 1);
        assert_eq!(
            spans[0].get("name").and_then(crate::json::Value::as_str),
            Some("serve.request")
        );
    }
}
