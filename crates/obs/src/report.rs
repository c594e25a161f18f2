//! Snapshots of the collected state, rendered for humans (indented
//! tree) or machines (JSON-lines, schema `lim-obs-v1`).
//!
//! A [`Report`] is a [`Collector`](crate::Collector) rendered by its
//! one pre-order walk: [`Report::capture`] renders the calling
//! thread's collector, and a long-lived aggregate that absorbs many
//! threads' reports renders the same way. Reports do not merge with
//! each other; they fold into an aggregate
//! ([`Collector::absorb`](crate::Collector::absorb)).
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

/// A snapshot of one span aggregate: a thread's collector or a
/// service-wide one.
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
        COLLECTOR.with(|c| c.borrow().report(source))
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
    use crate::Collector;

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

    /// Absorbs `reports` in order into an empty aggregate.
    fn aggregate(reports: &[&Report]) -> Report {
        let mut agg = Collector::default();
        for r in reports {
            agg.absorb(r);
        }
        agg.report("unit")
    }

    #[test]
    fn merge_aggregates_spans_counters_and_gauges() {
        let a = sample_report();
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
        let a = aggregate(&[&a, &b]);
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
        // addition panics on overflow); absorbing must saturate instead.
        let a = aggregate(&[
            &edge(u64::MAX, Duration::MAX),
            &edge(u64::MAX, Duration::MAX - Duration::from_nanos(1)),
        ]);
        let s = a.span("s").unwrap();
        assert_eq!(s.calls, u64::MAX);
        assert_eq!(s.total, Duration::MAX);
        assert_eq!(a.counter("c"), Some(u64::MAX));
        crate::json::validate_lines(&a.to_json_lines()).unwrap();
    }

    #[test]
    fn merge_into_empty_adopts_everything() {
        let sample = sample_report();
        let adopted = aggregate(&[&sample]);
        assert_eq!(adopted, sample);
        assert_eq!(adopted.span("flow/place").unwrap().calls, 2);
        assert_eq!(adopted.counter("place.moves"), Some(1200));
        crate::json::validate_lines(&adopted.to_json_lines()).unwrap();
    }

    #[test]
    fn merge_of_known_paths_keeps_row_order() {
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
        // Every span of `b` already has a row: absorbing it adds to
        // calls and totals and leaves every row where it was.
        let mut b = sample_report();
        b.spans = vec![row("serve", "serve", 0, 1), row("serve/memo", "memo", 1, 1)];
        let mut agg = Collector::default();
        agg.absorb(&a);
        let before = agg.report("unit");
        agg.absorb(&b);
        let after = agg.report("unit");
        let paths = |r: &Report| -> Vec<(String, usize)> {
            r.spans.iter().map(|s| (s.path.clone(), s.depth)).collect()
        };
        assert_eq!(paths(&after), paths(&before));
        assert_eq!(after.span("serve/memo").unwrap().calls, 5);
        assert_eq!(after.span("serve").unwrap().calls, 6);
        assert_eq!(after.spans[..2], before.spans[..2]);
        crate::json::validate_lines(&after.to_json_lines()).unwrap();
        // Same path and depth but another node (a `/` inside a name):
        // `c` under the root `a/b` is not `b/c` under the root `a`, so
        // absorbing adds a row.
        let x = Report {
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
        let x = aggregate(&[&x, &y]);
        assert_eq!(x.spans.len(), 4);
        assert_eq!((x.spans[1].name.as_str(), x.spans[1].calls), ("b/c", 1));
        crate::json::validate_lines(&x.to_json_lines()).unwrap();
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
