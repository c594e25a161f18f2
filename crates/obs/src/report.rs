//! Snapshots of the collected state, rendered for humans (indented
//! tree) or machines (JSON-lines, schema `lim-obs-v1`).
//!
//! # JSON-lines schema (`lim-obs-v1`)
//!
//! One JSON object per line, discriminated by `"type"`:
//!
//! ```text
//! {"type":"meta","schema":"lim-obs-v1","source":<string>}
//! {"type":"span","path":<string>,"name":<string>,"depth":<int>,"calls":<int>,"total_ns":<int>}
//! {"type":"counter","name":<string>,"value":<int>}
//! {"type":"gauge","name":<string>,"value":<number>}
//! {"type":"bench","suite":<string>,"name":<string>,"min_ns":<int>,"median_ns":<int>,"p95_ns":<int>,"samples":<int>,"iters":<int>}
//! {"type":"table","name":<string>,"columns":[<string>...]}
//! {"type":"row","table":<string>,"values":[<string>...]}
//! {"type":"hist","name":<string>,"count":<int>,"sum_ns":<int>,"p50_ns":<int>,"p90_ns":<int>,"p99_ns":<int>,"max_ns":<int>}
//! {"type":"window","name":<string>,"window_s":<int>,"count":<int>,"p50_ns":<int>,"p90_ns":<int>,"p99_ns":<int>,"max_ns":<int>}
//! {"type":"trace","id":<string>,"method":<string>,"total_ns":<int>,"spans":[{"path":...,"name":...,"depth":...,"calls":...,"total_ns":...}...]}
//! ```
//!
//! `hist` lines are emitted by [`crate::hist::hist_json_line`],
//! `window` lines by [`crate::window::window_json_line`], and `trace`
//! lines by [`crate::trace::trace_json_line`].
//!
//! `span` lines appear in pre-order, so a consumer can rebuild the tree
//! from `depth` alone; `path` is the `/`-joined name chain. The golden
//! test in `tests/golden.rs` pins this schema — extend it by adding new
//! fields or types, never by changing existing ones.

use crate::collect::COLLECTOR;
use crate::json;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::PathBuf;
use std::time::Duration;

/// One aggregated span in pre-order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRow {
    /// `/`-joined chain of span names from the root.
    pub path: String,
    /// The span's own name (last path component).
    pub name: String,
    /// Nesting depth, 0 for roots.
    pub depth: usize,
    /// Number of times the span was entered.
    pub calls: u64,
    /// Total inclusive wall-clock time across all calls.
    pub total: Duration,
}

/// A snapshot of one thread's observability state.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Where the report came from (binary or flow name).
    pub source: String,
    /// Aggregated spans in pre-order.
    pub spans: Vec<SpanRow>,
    /// Monotonic counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauges, sorted by name.
    pub gauges: Vec<(String, f64)>,
}

impl Report {
    /// Snapshots the calling thread's spans, counters and gauges
    /// without clearing them.
    pub fn capture() -> Report {
        Self::capture_as("lim-obs")
    }

    /// [`Report::capture`] with an explicit `source` label.
    pub fn capture_as(source: &str) -> Report {
        COLLECTOR.with(|c| {
            let c = c.borrow();
            let mut spans = Vec::with_capacity(c.nodes.len());
            // Depth-first pre-order over the aggregated tree.
            let mut stack: Vec<(usize, String, usize)> = c
                .roots
                .iter()
                .rev()
                .map(|&i| (i, String::new(), 0usize))
                .collect();
            while let Some((idx, prefix, depth)) = stack.pop() {
                let node = &c.nodes[idx];
                let path = if prefix.is_empty() {
                    node.name.clone()
                } else {
                    format!("{prefix}/{}", node.name)
                };
                spans.push(SpanRow {
                    path: path.clone(),
                    name: node.name.clone(),
                    depth,
                    calls: node.calls,
                    total: node.total,
                });
                for &child in node.children.iter().rev() {
                    stack.push((child, path.clone(), depth + 1));
                }
            }
            Report {
                source: source.to_owned(),
                spans,
                counters: c.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
                gauges: c.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            }
        })
    }

    /// Looks up a span by its full `/`-joined path.
    pub fn span(&self, path: &str) -> Option<&SpanRow> {
        self.spans.iter().find(|s| s.path == path)
    }

    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Renders the span tree plus counters and gauges for humans.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {} — span tree", self.source);
        if self.spans.is_empty() {
            let _ = writeln!(out, "(no spans recorded)");
        }
        for span in &self.spans {
            let _ = writeln!(
                out,
                "{:indent$}{:<32} {:>12}  x{}",
                "",
                span.name,
                fmt_duration(span.total),
                span.calls,
                indent = span.depth * 2,
            );
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "# counters");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "{name:<40} {value:>14}");
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "# gauges");
            for (name, value) in &self.gauges {
                let _ = writeln!(out, "{name:<40} {value:>14}");
            }
        }
        out
    }

    /// Writes the report as `lim-obs-v1` JSON-lines.
    ///
    /// # Errors
    ///
    /// Propagates writer failures.
    pub fn write_json_lines(&self, w: &mut impl Write) -> io::Result<()> {
        writeln!(
            w,
            "{{\"type\":\"meta\",\"schema\":\"lim-obs-v1\",\"source\":{}}}",
            json::string(&self.source)
        )?;
        for s in &self.spans {
            writeln!(
                w,
                "{{\"type\":\"span\",\"path\":{},\"name\":{},\"depth\":{},\"calls\":{},\"total_ns\":{}}}",
                json::string(&s.path),
                json::string(&s.name),
                s.depth,
                s.calls,
                s.total.as_nanos(),
            )?;
        }
        for (name, value) in &self.counters {
            writeln!(
                w,
                "{{\"type\":\"counter\",\"name\":{},\"value\":{}}}",
                json::string(name),
                value
            )?;
        }
        for (name, value) in &self.gauges {
            writeln!(
                w,
                "{{\"type\":\"gauge\",\"name\":{},\"value\":{}}}",
                json::string(name),
                json::number(*value)
            )?;
        }
        Ok(())
    }

    /// Folds `other` into `self`: spans aggregate by path (calls and
    /// totals sum), counters sum saturating, gauges are last-write-wins.
    ///
    /// This is how a long-lived server adopts per-request reports
    /// captured on worker threads into one process-wide report: each
    /// worker runs the request under its own thread-local spans, then
    /// captures and merges into a shared `Mutex<Report>`. The merged
    /// span list is re-emitted in pre-order, so it stays valid
    /// `lim-obs-v1` output.
    pub fn merge(&mut self, other: &Report) {
        if !self.add_to_matching_spans(other) {
            self.rebuild_spans(other);
        }
        for (name, value) in &other.counters {
            match self.counters.iter_mut().find(|(n, _)| n == name) {
                Some((_, v)) => *v = v.saturating_add(*value),
                None => self.counters.push((name.clone(), *value)),
            }
        }
        self.counters.sort_by(|(a, _), (b, _)| a.cmp(b));
        for (name, value) in &other.gauges {
            match self.gauges.iter_mut().find(|(n, _)| n == name) {
                Some((_, v)) => *v = *value,
                None => self.gauges.push((name.clone(), *value)),
            }
        }
        self.gauges.sort_by(|(a, _), (b, _)| a.cmp(b));
    }

    /// The common case of a long-lived merge target: every span of
    /// `other` already has its row (same depth, name and path — one row
    /// per tree node in a captured or merged report), so calls and
    /// totals are added in place instead of rebuilding the whole tree.
    /// A server's report holds every span path it has seen, so a
    /// request's merge no longer costs time in proportion to it.
    /// Returns false, leaving `self` untouched, when some span is new.
    fn add_to_matching_spans(&mut self, other: &Report) -> bool {
        let mut rows = Vec::with_capacity(other.spans.len());
        for row in &other.spans {
            let found = self
                .spans
                .iter()
                .position(|s| s.depth == row.depth && s.name == row.name && s.path == row.path);
            match found {
                Some(i) => rows.push(i),
                None => return false,
            }
        }
        for (row, i) in other.spans.iter().zip(rows) {
            let s = &mut self.spans[i];
            s.calls = s.calls.saturating_add(row.calls);
            s.total = s.total.saturating_add(row.total);
        }
        true
    }

    /// Rebuilds both span lists into one tree keyed by (parent, name)
    /// and re-emits it in pre-order.
    fn rebuild_spans(&mut self, other: &Report) {
        struct Node {
            name: String,
            path: String,
            calls: u64,
            total: Duration,
            children: Vec<usize>,
        }
        let mut nodes: Vec<Node> = Vec::with_capacity(self.spans.len() + other.spans.len());
        let mut roots: Vec<usize> = Vec::new();
        for report in [&*self, other] {
            // Rows are pre-order, so a row's parent is the most recent
            // shallower row; track the live chain by depth.
            let mut chain: Vec<usize> = Vec::new();
            for row in &report.spans {
                chain.truncate(row.depth);
                let parent = chain.last().copied();
                let siblings: &[usize] = match parent {
                    Some(p) => &nodes[p].children,
                    None => &roots,
                };
                let existing = siblings
                    .iter()
                    .copied()
                    .find(|&i| nodes[i].name == row.name);
                let idx = match existing {
                    Some(i) => {
                        nodes[i].calls = nodes[i].calls.saturating_add(row.calls);
                        // Saturate: `Duration + Duration` panics on
                        // overflow, and a long-lived server merging
                        // per-request reports forever must never panic
                        // on a counter edge.
                        nodes[i].total = nodes[i].total.saturating_add(row.total);
                        i
                    }
                    None => {
                        let idx = nodes.len();
                        nodes.push(Node {
                            name: row.name.clone(),
                            path: row.path.clone(),
                            calls: row.calls,
                            total: row.total,
                            children: Vec::new(),
                        });
                        match parent {
                            Some(p) => nodes[p].children.push(idx),
                            None => roots.push(idx),
                        }
                        idx
                    }
                };
                chain.push(idx);
            }
        }
        let mut spans = Vec::with_capacity(nodes.len());
        let mut stack: Vec<(usize, usize)> =
            roots.iter().rev().map(|&i| (i, 0usize)).collect();
        while let Some((idx, depth)) = stack.pop() {
            let node = &nodes[idx];
            spans.push(SpanRow {
                path: node.path.clone(),
                name: node.name.clone(),
                depth,
                calls: node.calls,
                total: node.total,
            });
            for &child in node.children.iter().rev() {
                stack.push((child, depth + 1));
            }
        }
        self.spans = spans;
    }

    /// [`Report::write_json_lines`] into a `String`.
    pub fn to_json_lines(&self) -> String {
        let mut buf = Vec::new();
        self.write_json_lines(&mut buf)
            .expect("writing to a Vec cannot fail");
        String::from_utf8(buf).expect("emitter writes UTF-8")
    }
}

/// Formats one `bench` JSON line of the `lim-obs-v1` schema — shared by
/// the `lim-testkit` bench harness (emitter) and `obs_check`
/// (validator) so the `BENCH_report.json` format cannot drift.
pub fn bench_json_line(
    suite: &str,
    name: &str,
    min: Duration,
    median: Duration,
    p95: Duration,
    samples: usize,
    iters: u32,
) -> String {
    format!(
        "{{\"type\":\"bench\",\"suite\":{},\"name\":{},\"min_ns\":{},\"median_ns\":{},\"p95_ns\":{},\"samples\":{},\"iters\":{}}}",
        json::string(suite),
        json::string(name),
        min.as_nanos(),
        median.as_nanos(),
        p95.as_nanos(),
        samples,
        iters,
    )
}

/// Appends the calling thread's report to the file named by the
/// `LIM_OBS_OUT` environment variable, labelled with `source`.
///
/// Returns the path written, or `None` when `LIM_OBS_OUT` is unset (a
/// no-op, so binaries can call this unconditionally).
///
/// # Errors
///
/// Propagates file-system failures.
pub fn flush_as(source: &str) -> io::Result<Option<PathBuf>> {
    let Some(path) = std::env::var_os(crate::ENV_OUT).filter(|p| !p.is_empty()) else {
        return Ok(None);
    };
    let path = PathBuf::from(path);
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)?;
    Report::capture_as(source).write_json_lines(&mut file)?;
    Ok(Some(path))
}

/// [`flush_as`] with the default source label.
///
/// # Errors
///
/// Propagates file-system failures.
pub fn flush() -> io::Result<Option<PathBuf>> {
    flush_as("lim-obs")
}

/// Renders a duration with an auto-selected unit.
fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> Report {
        Report {
            source: "unit".into(),
            spans: vec![
                SpanRow {
                    path: "flow".into(),
                    name: "flow".into(),
                    depth: 0,
                    calls: 1,
                    total: Duration::from_micros(1500),
                },
                SpanRow {
                    path: "flow/place".into(),
                    name: "place".into(),
                    depth: 1,
                    calls: 2,
                    total: Duration::from_micros(900),
                },
            ],
            counters: vec![("place.moves".into(), 1200)],
            gauges: vec![("route.wirelength_um".into(), 3421.5)],
        }
    }

    #[test]
    fn tree_rendering_indents_and_lists_counters() {
        let text = sample_report().render_tree();
        assert!(text.contains("flow"));
        assert!(text.contains("  place"), "{text}");
        assert!(text.contains("place.moves"));
        assert!(text.contains("route.wirelength_um"));
    }

    #[test]
    fn json_lines_validate() {
        let text = sample_report().to_json_lines();
        let n = crate::json::validate_lines(&text).expect("emitted JSON is valid");
        // meta + 2 spans + 1 counter + 1 gauge.
        assert_eq!(n, 5);
    }

    #[test]
    fn bench_line_validates() {
        let line = bench_json_line(
            "suite",
            "group/case",
            Duration::from_nanos(10),
            Duration::from_nanos(20),
            Duration::from_nanos(30),
            50,
            7,
        );
        let v = crate::json::Value::parse(&line).unwrap();
        assert_eq!(v.get("type").and_then(crate::json::Value::as_str), Some("bench"));
        assert_eq!(v.get("median_ns").and_then(crate::json::Value::as_f64), Some(20.0));
    }

    #[test]
    fn merge_aggregates_spans_counters_and_gauges() {
        let mut a = sample_report();
        let mut b = sample_report();
        // Give b an extra subtree and some new/overlapping scalars.
        b.spans.push(SpanRow {
            path: "flow/route".into(),
            name: "route".into(),
            depth: 1,
            calls: 3,
            total: Duration::from_micros(100),
        });
        b.counters.push(("serve.requests".into(), 7));
        b.gauges = vec![("route.wirelength_um".into(), 9.0)];
        a.merge(&b);
        // Overlapping spans sum calls and totals.
        let place = a.span("flow/place").unwrap();
        assert_eq!(place.calls, 4);
        assert_eq!(place.total, Duration::from_micros(1800));
        // The new subtree is adopted under its parent with correct depth.
        let route = a.span("flow/route").unwrap();
        assert_eq!((route.depth, route.calls), (1, 3));
        assert_eq!(a.span("flow").unwrap().calls, 2);
        // Counters sum, new ones appear; gauges are last-write-wins.
        assert_eq!(a.counter("place.moves"), Some(2400));
        assert_eq!(a.counter("serve.requests"), Some(7));
        assert_eq!(a.gauge("route.wirelength_um"), Some(9.0));
        // Pre-order invariant holds: children directly follow parents at
        // depth+1, so the JSON-lines output stays schema-valid.
        assert_eq!(a.spans[0].path, "flow");
        assert!(a.spans[1..].iter().all(|s| s.depth == 1));
        let n = crate::json::validate_lines(&a.to_json_lines()).unwrap();
        assert_eq!(n, 4 + a.counters.len() + a.gauges.len());
    }

    #[test]
    fn merge_saturates_at_edge_values() {
        let edge = |calls, total| Report {
            source: "edge".into(),
            spans: vec![SpanRow {
                path: "s".into(),
                name: "s".into(),
                depth: 0,
                calls,
                total,
            }],
            counters: vec![("c".into(), u64::MAX - 1)],
            gauges: vec![],
        };
        // Span totals near Duration::MAX would panic with `+=` (Duration
        // addition panics on overflow); merge must saturate instead.
        let mut a = edge(u64::MAX, Duration::MAX);
        let b = edge(u64::MAX, Duration::MAX - Duration::from_nanos(1));
        a.merge(&b);
        let s = a.span("s").unwrap();
        assert_eq!(s.calls, u64::MAX);
        assert_eq!(s.total, Duration::MAX);
        assert_eq!(a.counter("c"), Some(u64::MAX));
    }

    #[test]
    fn merge_into_empty_adopts_everything() {
        let mut empty = Report {
            source: "server".into(),
            spans: vec![],
            counters: vec![],
            gauges: vec![],
        };
        empty.merge(&sample_report());
        assert_eq!(empty.spans.len(), 2);
        assert_eq!(empty.span("flow/place").unwrap().calls, 2);
        assert_eq!(empty.counter("place.moves"), Some(1200));
    }

    #[test]
    fn merge_in_place_matches_the_rebuild() {
        let row = |path: &str, name: &str, depth, calls| SpanRow {
            path: path.into(),
            name: name.into(),
            depth,
            calls,
            total: Duration::from_micros(calls),
        };
        let mut a = sample_report();
        a.spans.push(row("serve", "serve", 0, 5));
        a.spans.push(row("serve/memo", "memo", 1, 4));
        // Every span of `b` has a row in `a`: added in place, in the
        // same order the rebuild would produce.
        let mut b = sample_report();
        b.spans = vec![row("serve", "serve", 0, 1), row("serve/memo", "memo", 1, 1)];
        let mut rebuilt = a.clone();
        rebuilt.rebuild_spans(&b);
        let mut fast = a.clone();
        assert!(fast.add_to_matching_spans(&b));
        assert_eq!(fast.spans, rebuilt.spans);
        a.merge(&b);
        assert_eq!(a.spans, rebuilt.spans);
        assert_eq!(a.span("serve/memo").unwrap().calls, 5);
        // Same path and depth but another node (a `/` inside a name):
        // `c` under the root `a/b` is not `b/c` under the root `a`, so
        // the rebuild adds a row.
        let mut x = Report {
            spans: vec![
                row("a", "a", 0, 1),
                row("a/b", "a/b", 0, 1),
                row("a/b/c", "c", 1, 1),
            ],
            ..sample_report()
        };
        let y = Report {
            spans: vec![row("a", "a", 0, 1), row("a/b/c", "b/c", 1, 1)],
            ..sample_report()
        };
        assert!(!x.clone().add_to_matching_spans(&y));
        x.merge(&y);
        assert_eq!(x.spans.len(), 4);
        assert_eq!((x.spans[1].name.as_str(), x.spans[1].calls), ("b/c", 1));
    }

    #[test]
    fn lookup_helpers() {
        let r = sample_report();
        assert_eq!(r.span("flow/place").unwrap().calls, 2);
        assert!(r.span("flow/route").is_none());
        assert_eq!(r.counter("place.moves"), Some(1200));
        assert_eq!(r.gauge("route.wirelength_um"), Some(3421.5));
    }
}
