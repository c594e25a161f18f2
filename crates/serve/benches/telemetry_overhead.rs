//! Bench: the hot-path cost of the telemetry layer.
//!
//! Pins the budget the serving loop pays per request: an endpoint's
//! latency record (one rolling-window record: a mutex lock, then the
//! current slot's and the lifetime histogram's record), a trace-id
//! mint, and the disabled-observability span floor (one relaxed atomic
//! load, nothing else).

use lim_obs::{RollingWindow, Span, TraceId};
use lim_testkit::bench::{black_box, Bench};
use std::time::Duration;

fn main() {
    let mut c = Bench::from_args("telemetry_overhead");

    // Walk a mixed latency range so bucket indexing is not trained on a
    // single branch target.
    let window = RollingWindow::new();
    let mut tick = 0u64;
    c.bench_function("window_record", |b| {
        b.iter(|| {
            tick = tick.wrapping_add(4099);
            window.record(black_box(Duration::from_nanos(tick & 0x000f_ffff)));
        })
    });

    c.bench_function("trace_mint", |b| b.iter(|| black_box(TraceId::mint().0)));

    // With observability off a span must cost one relaxed atomic load.
    lim_obs::set_enabled(false);
    c.bench_function("disabled_span", |b| {
        b.iter(|| {
            let span = Span::enter(black_box("bench.noop"));
            black_box(&span);
        })
    });

    c.finish();
}
