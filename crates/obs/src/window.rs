//! Rolling time windows over latency histograms, with the lifetime
//! histogram kept beside them.
//!
//! A [`RollingWindow`] keeps a fixed ring of [`SLOTS`] slots, each
//! covering [`SLOT_SECS`] seconds — 30 slots × 10 s = the last five
//! minutes, of which the newest six slots are the last minute. Recording
//! stamps the sample into the slot for "now" and into the lifetime
//! histogram; reading merges the slots young enough for the requested
//! window into one [`Histogram`] snapshot. Slots are lazily recycled:
//! when the ring wraps onto a slot whose epoch (absolute slot number
//! since the window's anchor) is stale, the slot is cleared before
//! reuse, so an idle window costs nothing and a busy one clears at most
//! one slot per rotation.
//!
//! This is what lets `server.stats` distinguish "slow now" from "slow
//! ever": the lifetime histogram accumulates forever, while the 1 m /
//! 5 m snapshots age out anything older than the ring.
//!
//! The ring and the lifetime histogram sit behind one mutex, so a
//! sample is recorded once under one lock: rotation and recording are
//! a few array writes, so the uncontended lock costs far less than the
//! `Instant::now()` read it protects. Tests drive time explicitly
//! through [`RollingWindow::record_at`] / [`RollingWindow::snapshot_at`];
//! production callers use the wall-clock entry points.

use crate::hist::{HistSummary, Histogram};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Seconds covered by one ring slot.
pub const SLOT_SECS: u64 = 10;

/// Slots in the ring: 30 × [`SLOT_SECS`] = 300 s of retained history.
pub const SLOTS: usize = 30;

/// The two windows `server.stats` reports, in seconds.
pub const WINDOWS_SECS: [u64; 2] = [60, 300];

struct Slot {
    /// Absolute slot number since the anchor; `u64::MAX` = never used.
    epoch: u64,
    hist: Histogram,
}

struct Ring {
    slots: Vec<Slot>,
    /// Every sample ever recorded, whatever slot it aged out of.
    lifetime: Histogram,
}

/// A ring of per-10 s histograms covering the last [`SLOTS`] ×
/// [`SLOT_SECS`] seconds, plus the lifetime histogram.
pub struct RollingWindow {
    anchor: Instant,
    ring: Mutex<Ring>,
}

impl std::fmt::Debug for RollingWindow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RollingWindow")
            .field("slots", &SLOTS)
            .field("slot_secs", &SLOT_SECS)
            .finish()
    }
}

impl Default for RollingWindow {
    fn default() -> Self {
        Self::new()
    }
}

impl RollingWindow {
    /// An empty window anchored at "now".
    #[must_use]
    pub fn new() -> Self {
        RollingWindow {
            anchor: Instant::now(),
            ring: Mutex::new(Ring {
                slots: (0..SLOTS)
                    .map(|_| Slot {
                        epoch: u64::MAX,
                        hist: Histogram::new(),
                    })
                    .collect(),
                lifetime: Histogram::new(),
            }),
        }
    }

    /// The absolute slot number for the current wall-clock instant.
    fn now_epoch(&self) -> u64 {
        self.anchor.elapsed().as_secs() / SLOT_SECS
    }

    /// Records `d` into the current slot and the lifetime histogram.
    pub fn record(&self, d: Duration) {
        self.record_at(self.now_epoch(), d);
    }

    /// Records `d` into the slot for absolute slot number `epoch`
    /// (test hook; production uses [`RollingWindow::record`]).
    pub fn record_at(&self, epoch: u64, d: Duration) {
        let mut ring = self.ring.lock().expect("window ring lock poisoned");
        let slot = &mut ring.slots[(epoch % SLOTS as u64) as usize];
        if slot.epoch != epoch {
            // The ring wrapped onto a stale slot: recycle it.
            slot.hist.clear();
            slot.epoch = epoch;
        }
        slot.hist.record(d);
        ring.lifetime.record(d);
    }

    /// A snapshot of every sample recorded since the window was made.
    #[must_use]
    pub fn lifetime(&self) -> Histogram {
        self.ring
            .lock()
            .expect("window ring lock poisoned")
            .lifetime
            .clone()
    }

    /// Merges the slots covering the last `window_secs` seconds into one
    /// snapshot.
    #[must_use]
    pub fn snapshot(&self, window_secs: u64) -> Histogram {
        self.snapshot_at(self.now_epoch(), window_secs)
    }

    /// [`RollingWindow::snapshot`] at an explicit current slot number
    /// (test hook).
    #[must_use]
    pub fn snapshot_at(&self, now_epoch: u64, window_secs: u64) -> Histogram {
        // The current (partial) slot counts toward the window, plus
        // enough whole slots behind it to cover window_secs.
        let depth = (window_secs.div_ceil(SLOT_SECS)).min(SLOTS as u64);
        let oldest = now_epoch.saturating_sub(depth.saturating_sub(1));
        let ring = self.ring.lock().expect("window ring lock poisoned");
        let mut out = Histogram::new();
        for slot in &ring.slots {
            if slot.epoch != u64::MAX && slot.epoch >= oldest && slot.epoch <= now_epoch {
                out.merge(&slot.hist);
            }
        }
        out
    }

    /// Summaries for every window in [`WINDOWS_SECS`], as
    /// `(window_secs, summary)` pairs.
    #[must_use]
    pub fn summaries(&self) -> Vec<(u64, HistSummary)> {
        let now = self.now_epoch();
        WINDOWS_SECS
            .iter()
            .map(|&w| (w, self.snapshot_at(now, w).summary()))
            .collect()
    }
}

/// Formats one `window` JSON line of the `lim-obs-v1` schema.
#[must_use]
pub fn window_json_line(name: &str, window_secs: u64, h: &HistSummary) -> String {
    format!(
        "{{\"type\":\"window\",\"name\":{},\"window_s\":{},\"count\":{},\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}",
        crate::json::string(name),
        window_secs,
        h.count,
        h.p50_ns,
        h.p90_ns,
        h.p99_ns,
        h.max_ns,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_ages_out_old_slots() {
        let w = RollingWindow::new();
        // Samples at slot 0 (t=0s), slot 5 (t=50s), slot 29 (t=290s).
        w.record_at(0, Duration::from_micros(100));
        w.record_at(5, Duration::from_micros(200));
        w.record_at(29, Duration::from_micros(300));
        // At slot 29: 5m window sees all three, 1m window (6 slots:
        // 24..=29) sees only the slot-29 sample.
        assert_eq!(w.snapshot_at(29, 300).count(), 3);
        assert_eq!(w.snapshot_at(29, 60).count(), 1);
        // At slot 34 the ring has wrapped past slot 0; recording into
        // slot 30 recycles slot 0's storage.
        w.record_at(30, Duration::from_micros(400));
        let five_min = w.snapshot_at(34, 300);
        assert_eq!(five_min.count(), 3, "slot-0 sample aged out");
        // Much later, everything is stale.
        assert_eq!(w.snapshot_at(100, 300).count(), 0);
    }

    #[test]
    fn stale_slot_is_cleared_on_reuse() {
        let w = RollingWindow::new();
        w.record_at(2, Duration::from_micros(10));
        // Epoch 32 maps to the same ring slot as epoch 2.
        w.record_at(32, Duration::from_micros(20));
        let snap = w.snapshot_at(32, 300);
        assert_eq!(snap.count(), 1, "old epoch's sample must not leak");
        assert_eq!(snap.max_ns(), 20_000);
    }

    #[test]
    fn wall_clock_entry_points_record_into_now() {
        let w = RollingWindow::new();
        w.record(Duration::from_micros(42));
        w.record(Duration::from_micros(58));
        assert_eq!(w.snapshot(60).count(), 2);
        assert_eq!(w.snapshot(300).count(), 2);
        let summaries = w.summaries();
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].0, 60);
        assert_eq!(summaries[0].1.count, 2);
    }

    #[test]
    fn lifetime_keeps_samples_after_their_slots_age_out() {
        let w = RollingWindow::new();
        w.record_at(0, Duration::from_micros(100));
        w.record_at(5, Duration::from_micros(900));
        // Epoch 30 recycles slot 0; at epoch 100 every slot is stale.
        w.record_at(30, Duration::from_micros(200));
        assert_eq!(w.snapshot_at(100, 300).count(), 0);
        let life = w.lifetime();
        assert_eq!(life.count(), 3, "aged-out samples stay in the lifetime");
        assert_eq!(life.sum_ns(), 1_200_000);
        assert_eq!(life.max_ns(), 900_000);
    }

    #[test]
    fn lifetime_histogram_merges_across_threads() {
        let w = RollingWindow::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let w = &w;
                s.spawn(move || {
                    for i in 0..250u64 {
                        w.record(Duration::from_nanos(t * 1_000 + i));
                    }
                });
            }
        });
        let life = w.lifetime();
        assert_eq!(life.count(), 1_000);
        assert_eq!(life.max_ns(), 3_249);
        // Every recorded sample landed in exactly one bucket.
        assert_eq!(life.buckets().iter().sum::<u64>(), 1_000);
    }

    #[test]
    fn window_line_is_schema_valid() {
        let w = RollingWindow::new();
        w.record_at(0, Duration::from_micros(5));
        let line = window_json_line("serve.request", 60, &w.snapshot_at(0, 60).summary());
        let v = crate::json::Value::parse(&line).unwrap();
        assert_eq!(
            v.get("type").and_then(crate::json::Value::as_str),
            Some("window")
        );
        assert_eq!(
            v.get("window_s").and_then(crate::json::Value::as_f64),
            Some(60.0)
        );
        assert_eq!(v.get("count").and_then(crate::json::Value::as_f64), Some(1.0));
    }
}
