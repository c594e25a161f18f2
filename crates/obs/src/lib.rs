//! `lim-obs`: zero-dependency observability for the LiM synthesis flow.
//!
//! The synthesis pipeline (`LimFlow` → brick compile → map → floorplan →
//! place → route → STA → power → DSE) is instrumented with three
//! primitives, all built on `std` alone:
//!
//! * **Spans** — [`Span::enter`] opens a scoped wall-clock timer that
//!   nests under the currently open span and aggregates by
//!   `(parent, name)`: entering `"place"` twice under `"physical"`
//!   produces one tree node with `calls == 2` and the summed duration.
//! * **Counters and gauges** — [`counter_add`] accumulates named
//!   monotonic `u64` counters (saturating, so they can never overflow or
//!   panic); [`gauge_set`] records last-write-wins `f64` gauges.
//! * **Reports** — [`Report::capture`] snapshots the calling thread's
//!   span tree, counters and gauges; the report renders as a
//!   human-readable tree ([`Report::render_tree`]) or as hand-rolled
//!   JSON-lines ([`Report::write_json_lines`], no serde). [`flush`]
//!   appends the report to the path named by the `LIM_OBS_OUT`
//!   environment variable. A thread's state is a [`Collector`]; a
//!   long-lived process folds the reports its threads capture into one
//!   more ([`Collector::absorb`]), so every report comes from the same
//!   `(parent, name)` aggregation and the same pre-order walk.
//!
//! Collection is **off by default**: every primitive first checks a
//! global atomic flag, so a disabled pipeline pays one relaxed atomic
//! load per call site and nothing else. Setting `LIM_OBS=1` or
//! `LIM_OBS_OUT=<path>` in the environment (or calling [`set_enabled`])
//! turns collection on. State is thread-local: concurrent test threads
//! never see each other's spans.
//!
//! # Examples
//!
//! ```
//! use lim_obs::{counter_add, set_enabled, Report, Span};
//!
//! set_enabled(true);
//! lim_obs::reset();
//! {
//!     let _flow = Span::enter("flow");
//!     let _place = Span::enter("place");
//!     counter_add("place.moves", 1200);
//! }
//! let report = Report::capture();
//! assert_eq!(report.span("flow/place").unwrap().calls, 1);
//! assert_eq!(report.counter("place.moves"), Some(1200));
//! ```

pub mod hist;
pub mod json;
pub mod report;
pub mod trace;
pub mod window;

mod collect;

pub use collect::{absorb_report, counter_add, gauge_set, reset, Collector, Span};
pub use hist::{hist_json_line, HistSummary, Histogram};
pub use report::{bench_json_line, flush, Report, SpanRow};
pub use trace::{trace_json_line, Trace, TraceBuffer, TraceId, TraceScope};
pub use window::{window_json_line, RollingWindow};

use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// Environment variable that enables collection when set to `1`.
pub const ENV_ENABLE: &str = "LIM_OBS";
/// Environment variable naming the file [`flush`] appends reports to.
/// Setting it also enables collection.
pub const ENV_OUT: &str = "LIM_OBS_OUT";

/// 0 = uninitialized, 1 = disabled, 2 = enabled.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// True when observability collection is on.
///
/// Initialized lazily from the environment (`LIM_OBS=1` or a non-empty
/// `LIM_OBS_OUT`); [`set_enabled`] overrides the environment for the
/// rest of the process.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        0 => init_from_env(),
        state => state == 2,
    }
}

#[cold]
fn init_from_env() -> bool {
    let on = std::env::var(ENV_ENABLE).is_ok_and(|v| v == "1")
        || std::env::var(ENV_OUT).is_ok_and(|v| !v.is_empty());
    // Respect a concurrent set_enabled over the env default.
    let _ = ENABLED.compare_exchange(
        0,
        if on { 2 } else { 1 },
        Ordering::Relaxed,
        Ordering::Relaxed,
    );
    ENABLED.load(Ordering::Relaxed) == 2
}

/// Turns collection on or off for the whole process, overriding the
/// environment.
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// A monotonic wall-clock stopwatch — the same clock the span tree is
/// built from, exposed for callers that need a raw elapsed duration
/// (e.g. per-point DSE timing) alongside the span aggregation.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts the stopwatch.
    #[must_use]
    pub fn start() -> Self {
        Stopwatch(Instant::now())
    }

    /// Time elapsed since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Self::start()
    }
}

/// Runs `f` under a span named `name` and returns its result together
/// with the measured duration.
///
/// The duration is always measured (one `Instant` pair), so callers can
/// surface stage timings in their own reports even when obs collection
/// is disabled; the span itself is only recorded when [`enabled`].
pub fn timed<R>(name: &str, f: impl FnOnce() -> R) -> (R, Duration) {
    let sw = Stopwatch::start();
    let span = Span::enter(name);
    let result = f();
    drop(span);
    (result, sw.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_measures_and_returns() {
        let (v, d) = timed("tests.timed", || 41 + 1);
        assert_eq!(v, 42);
        // Duration is valid (possibly zero on a coarse clock).
        assert!(d <= Duration::from_secs(60));
    }

    #[test]
    fn stopwatch_monotonic() {
        let sw = Stopwatch::start();
        let a = sw.elapsed();
        let b = sw.elapsed();
        assert!(b >= a);
    }
}
