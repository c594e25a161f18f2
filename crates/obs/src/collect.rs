//! The span aggregate: a `(parent, name)` arena of span nodes plus the
//! counter and gauge maps. Each thread collects into its own
//! [`Collector`] (the open-span stack lives there too), and a
//! long-lived process folds the reports its threads capture into one
//! more: `lim-serve`'s service-wide report is a [`Collector`] that
//! [`absorb`](Collector::absorb)s every request's report, so a report
//! is built by one pre-order walk ([`Collector::report`]) wherever it
//! comes from.

use crate::report::{Report, SpanRow};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

#[derive(Debug)]
struct Node {
    name: String,
    children: Vec<usize>,
    calls: u64,
    total: Duration,
}

/// Spans aggregated by `(parent, name)`, with counters (saturating
/// sums) and gauges (last write wins).
///
/// Rows keep their first-seen order: a node's children are listed in
/// the order they first appeared, so absorbing a report whose span
/// paths all exist only adds to calls and totals.
#[derive(Debug, Default)]
pub struct Collector {
    /// Arena of aggregated span nodes.
    nodes: Vec<Node>,
    /// Indices of root nodes, in first-entered order.
    roots: Vec<usize>,
    /// Stack of currently open node indices (only [`Span`] guards on
    /// the thread-local collector open nodes).
    stack: Vec<usize>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
}

impl Collector {
    /// The child named `name` under `parent` (a root when `None`),
    /// created with zero calls when it does not exist yet.
    fn child(&mut self, parent: Option<usize>, name: &str) -> usize {
        let siblings = match parent {
            Some(p) => &self.nodes[p].children,
            None => &self.roots,
        };
        if let Some(i) = siblings
            .iter()
            .copied()
            .find(|&i| self.nodes[i].name == name)
        {
            return i;
        }
        let idx = self.nodes.len();
        self.nodes.push(Node {
            name: name.to_owned(),
            children: Vec::new(),
            calls: 0,
            total: Duration::ZERO,
        });
        match parent {
            Some(p) => self.nodes[p].children.push(idx),
            None => self.roots.push(idx),
        }
        idx
    }

    /// Opens (or re-opens) the child named `name` under the current
    /// stack top, returning its node index.
    fn push(&mut self, name: &str) -> usize {
        let idx = self.child(self.stack.last().copied(), name);
        self.stack.push(idx);
        idx
    }

    /// Grafts a captured report's span tree under the currently open
    /// span (at the roots when none is open), aggregating by
    /// `(parent, name)` exactly like live span entry. Calls, totals and
    /// counters sum saturating (a long-lived aggregate never panics on
    /// an edge value); gauges are last-write-wins.
    pub fn absorb(&mut self, report: &Report) {
        let base = self.stack.last().copied();
        // Rows are pre-order; track the grafted chain by depth.
        let mut chain: Vec<usize> = Vec::new();
        for row in &report.spans {
            chain.truncate(row.depth);
            let idx = self.child(chain.last().copied().or(base), &row.name);
            let node = &mut self.nodes[idx];
            node.calls = node.calls.saturating_add(row.calls);
            node.total = node.total.saturating_add(row.total);
            chain.push(idx);
        }
        for (name, value) in &report.counters {
            self.add_counter(name, *value);
        }
        for (name, value) in &report.gauges {
            self.set_gauge(name, *value);
        }
    }

    /// Closes the span at `idx`, folding `elapsed` into its totals.
    /// Defensive against out-of-order guard drops: pops until `idx` is
    /// found (inner spans leaked past their parent just get closed too).
    fn pop(&mut self, idx: usize, elapsed: Duration) {
        while let Some(top) = self.stack.pop() {
            if top == idx {
                break;
            }
        }
        let node = &mut self.nodes[idx];
        node.calls = node.calls.saturating_add(1);
        node.total = node.total.saturating_add(elapsed);
    }

    fn add_counter(&mut self, name: &str, delta: u64) {
        match self.counters.get_mut(name) {
            Some(v) => *v = v.saturating_add(delta),
            None => {
                self.counters.insert(name.to_owned(), delta);
            }
        }
    }

    /// Sets the named counter to `value`, replacing its running sum.
    pub fn set_counter(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_owned(), value);
    }

    /// Sets the named gauge to `value` (last write wins).
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_owned(), value);
    }

    /// The aggregate as a [`Report`] labelled `source`: spans in
    /// depth-first pre-order, counters and gauges sorted by name.
    #[must_use]
    pub fn report(&self, source: &str) -> Report {
        let mut spans = Vec::with_capacity(self.nodes.len());
        let mut stack: Vec<(usize, String, usize)> = self
            .roots
            .iter()
            .rev()
            .map(|&i| (i, String::new(), 0usize))
            .collect();
        while let Some((idx, prefix, depth)) = stack.pop() {
            let node = &self.nodes[idx];
            let path = if prefix.is_empty() {
                node.name.clone()
            } else {
                format!("{prefix}/{}", node.name)
            };
            for &child in node.children.iter().rev() {
                stack.push((child, path.clone(), depth + 1));
            }
            spans.push(SpanRow {
                path,
                name: node.name.clone(),
                depth,
                calls: node.calls,
                total: node.total,
            });
        }
        Report {
            source: source.to_owned(),
            spans,
            counters: self.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            gauges: self.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
        }
    }
}

thread_local! {
    pub(crate) static COLLECTOR: RefCell<Collector> = RefCell::new(Collector::default());
}

/// A scoped span timer: created by [`Span::enter`], it records the
/// elapsed wall-clock time into the calling thread's span tree when
/// dropped. When collection is disabled this is a no-op guard.
///
/// Spans aggregate by `(parent, name)`: re-entering the same name under
/// the same parent accumulates `calls` and total duration on one node.
/// Totals are inclusive (a parent's total contains its children's).
#[must_use = "a span only measures anything if it is held until the end of the scope"]
#[derive(Debug)]
pub struct Span {
    start: Option<Instant>,
    node: usize,
}

impl Span {
    /// Opens a span named `name`, nested under the innermost span that
    /// is currently open on this thread.
    pub fn enter(name: &str) -> Span {
        if !crate::enabled() {
            return Span {
                start: None,
                node: 0,
            };
        }
        let node = COLLECTOR.with(|c| c.borrow_mut().push(name));
        Span {
            start: Some(Instant::now()),
            node,
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let elapsed = start.elapsed();
            COLLECTOR.with(|c| c.borrow_mut().pop(self.node, elapsed));
        }
    }
}

/// Adds `delta` to the named monotonic counter (saturating at
/// `u64::MAX`, so hot-loop counters can never overflow or panic).
/// No-op while collection is disabled.
pub fn counter_add(name: &str, delta: u64) {
    if !crate::enabled() {
        return;
    }
    COLLECTOR.with(|c| c.borrow_mut().add_counter(name, delta));
}

/// Sets the named gauge to `value` (last write wins). No-op while
/// collection is disabled.
pub fn gauge_set(name: &str, value: f64) {
    if !crate::enabled() {
        return;
    }
    COLLECTOR.with(|c| c.borrow_mut().set_gauge(name, value));
}

/// Grafts `report`'s span tree under this thread's innermost open span
/// (or at the roots when none is open), summing counters and adopting
/// gauges. This is how a thread that fanned work out over `lim-par`
/// adopts its workers' captured spans back into its own request tree,
/// so a trace covers the whole fan-out. No-op while collection is
/// disabled.
pub fn absorb_report(report: &Report) {
    if !crate::enabled() {
        return;
    }
    COLLECTOR.with(|c| c.borrow_mut().absorb(report));
}

/// Clears the calling thread's spans, counters and gauges. Open span
/// guards from before the reset are discarded when they close.
pub fn reset() {
    COLLECTOR.with(|c| *c.borrow_mut() = Collector::default());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Report;

    /// Serializes tests that toggle the process-global enable flag.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn with_clean_state<R>(f: impl FnOnce() -> R) -> R {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        crate::set_enabled(true);
        reset();
        let r = f();
        reset();
        crate::set_enabled(true);
        r
    }

    #[test]
    fn spans_nest_and_aggregate() {
        with_clean_state(|| {
            for _ in 0..3 {
                let _outer = Span::enter("outer");
                let _inner = Span::enter("inner");
            }
            // Same name under a different parent is a different node.
            let _lone = Span::enter("inner");
            drop(_lone);

            let report = Report::capture();
            let outer = report.span("outer").expect("outer exists");
            assert_eq!(outer.calls, 3);
            assert_eq!(outer.depth, 0);
            let inner = report.span("outer/inner").expect("nested inner exists");
            assert_eq!(inner.calls, 3);
            assert_eq!(inner.depth, 1);
            // Children cannot exceed their parent's inclusive total.
            assert!(inner.total <= outer.total);
            let lone = report.span("inner").expect("root-level inner exists");
            assert_eq!(lone.calls, 1);
        });
    }

    #[test]
    fn out_of_order_drop_is_tolerated() {
        with_clean_state(|| {
            let outer = Span::enter("a");
            let inner = Span::enter("b");
            // Dropping the parent first force-closes the child's stack
            // slot; the child's later drop must not corrupt the tree.
            drop(outer);
            drop(inner);
            let report = Report::capture();
            assert_eq!(report.span("a").unwrap().calls, 1);
            assert_eq!(report.span("a/b").unwrap().calls, 1);
        });
    }

    #[test]
    fn counters_saturate_instead_of_overflowing() {
        with_clean_state(|| {
            counter_add("sat", u64::MAX - 1);
            counter_add("sat", 10);
            counter_add("sat", u64::MAX);
            let report = Report::capture();
            assert_eq!(report.counter("sat"), Some(u64::MAX));
        });
    }

    #[test]
    fn gauges_last_write_wins() {
        with_clean_state(|| {
            gauge_set("g", 1.0);
            gauge_set("g", 2.5);
            let report = Report::capture();
            assert_eq!(report.gauge("g"), Some(2.5));
        });
    }

    #[test]
    fn absorb_grafts_under_open_span() {
        with_clean_state(|| {
            // A "worker" report captured elsewhere.
            let worker = Report {
                source: "worker".into(),
                spans: vec![crate::SpanRow {
                    path: "chunk".into(),
                    name: "chunk".into(),
                    depth: 0,
                    calls: 2,
                    total: std::time::Duration::from_micros(50),
                }],
                counters: vec![("par.busy_ns".into(), 7)],
                gauges: vec![("w.g".into(), 1.5)],
            };
            {
                let _req = Span::enter("request");
                absorb_report(&worker);
                absorb_report(&worker);
            }
            let report = Report::capture();
            // Worker spans graft under the open request span and
            // aggregate across repeated absorbs.
            let chunk = report.span("request/chunk").expect("grafted span");
            assert_eq!(chunk.calls, 4);
            assert_eq!(chunk.total, std::time::Duration::from_micros(100));
            assert_eq!(report.counter("par.busy_ns"), Some(14));
            assert_eq!(report.gauge("w.g"), Some(1.5));
            // With no span open, grafts land at the roots.
            absorb_report(&worker);
            let report = Report::capture();
            assert_eq!(report.span("chunk").unwrap().calls, 2);
        });
    }

    #[test]
    fn disabled_collection_records_nothing() {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        crate::set_enabled(true);
        reset();
        crate::set_enabled(false);
        {
            let _s = Span::enter("ghost");
            counter_add("ghost", 1);
            gauge_set("ghost", 1.0);
        }
        crate::set_enabled(true);
        let report = Report::capture();
        assert!(report.span("ghost").is_none());
        assert_eq!(report.counter("ghost"), None);
        reset();
    }
}
