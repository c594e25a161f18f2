//! Log-bucketed latency histograms (HDR-style, ~2 buckets per octave).
//!
//! A latency sample in nanoseconds maps to one of [`BUCKETS`] buckets:
//! bucket 0 holds the value 0, and every power-of-two octave above 1 ns
//! is split into two sub-buckets on the bit below the most significant
//! bit. Two buckets per octave bounds the relative quantization error of
//! any percentile at ~50% of the value (the bucket's width), which is
//! plenty for p50/p90/p99 answers spanning nanoseconds to minutes while
//! keeping the whole histogram a fixed 129-slot array — no allocation on
//! the record path, ever.
//!
//! The recorded maximum is tracked exactly, so tail reporting never
//! suffers bucket rounding; p50/p90/p99 come from the bucket upper
//! bounds by cumulative rank and are clamped to the exact max. A
//! [`Histogram`] is plain counts: concurrent recorders share one behind
//! a lock, as [`crate::RollingWindow`] does with its slots and its
//! lifetime histogram, and bucket counts are exact under any
//! interleaving (adds commute), so a snapshot is a pure function of the
//! multiset of recorded samples.

use std::time::Duration;

/// Number of histogram buckets: bucket 0 for zero, plus two per octave
/// over the 64-bit nanosecond range.
pub const BUCKETS: usize = 129;

/// The bucket index for a nanosecond sample.
#[inline]
#[must_use]
pub fn bucket_index(ns: u64) -> usize {
    if ns == 0 {
        return 0;
    }
    let msb = 63 - ns.leading_zeros() as usize;
    if msb == 0 {
        // ns == 1: the first octave has no sub-bit to split on.
        return 1;
    }
    let half = (ns >> (msb - 1)) & 1;
    (2 * msb + half as usize).min(BUCKETS - 1)
}

/// Inclusive upper bound (in ns) of the values mapping to `index` — the
/// representative reported for percentiles that land in the bucket.
#[must_use]
pub fn bucket_upper_bound(index: usize) -> u64 {
    match index {
        0 => 0,
        1 => 1,
        i => {
            let msb = i / 2;
            let half = i % 2;
            // Buckets cover [2^msb, 2^msb + 2^(msb-1)) and
            // [2^msb + 2^(msb-1), 2^(msb+1)). Computed as
            // (base - 1) + step*(half + 1) so the top bucket's bound is
            // exactly u64::MAX without overflowing.
            let base = 1u64 << msb;
            let step = base >> 1;
            (base - 1) + step * (half as u64 + 1)
        }
    }
}

/// A log-bucketed latency histogram.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum_ns: u64,
    max_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one duration sample.
    pub fn record(&mut self, d: Duration) {
        self.record_ns(duration_ns(d));
    }

    /// Records one nanosecond sample.
    pub fn record_ns(&mut self, ns: u64) {
        let idx = bucket_index(ns);
        self.buckets[idx] = self.buckets[idx].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum_ns = self.sum_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Folds `other` into `self` (bucket-wise saturating sums; max of
    /// maxes).
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b = b.saturating_add(*o);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Resets all counts to zero.
    pub fn clear(&mut self) {
        *self = Histogram::default();
    }

    /// Total samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples in nanoseconds (saturating).
    #[must_use]
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// The exact maximum recorded sample in nanoseconds.
    #[must_use]
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Mean recorded sample in nanoseconds (0 when empty).
    #[must_use]
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// The raw bucket counts (index via [`bucket_index`]).
    #[must_use]
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// The value at quantile `q` (0..=1) by cumulative bucket rank:
    /// the upper bound of the bucket containing the q-th sample,
    /// clamped to the exact recorded max. Returns 0 when empty.
    #[must_use]
    pub fn percentile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Nearest-rank (1-based): ceil(q * count), at least 1.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                return bucket_upper_bound(i).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// p50/p90/p99/max as a [`HistSummary`].
    #[must_use]
    pub fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count,
            sum_ns: self.sum_ns,
            p50_ns: self.percentile_ns(0.50),
            p90_ns: self.percentile_ns(0.90),
            p99_ns: self.percentile_ns(0.99),
            max_ns: self.max_ns,
        }
    }
}

/// The headline figures of one histogram, ready for rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistSummary {
    /// Samples recorded.
    pub count: u64,
    /// Saturating sum of all samples (ns).
    pub sum_ns: u64,
    /// Median (bucket upper bound, clamped to max).
    pub p50_ns: u64,
    /// 90th percentile.
    pub p90_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// Exact maximum.
    pub max_ns: u64,
}

/// Saturating nanosecond conversion (durations past ~584 years clamp).
#[must_use]
pub fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Formats one `hist` JSON line of the `lim-obs-v1` schema.
#[must_use]
pub fn hist_json_line(name: &str, h: &HistSummary) -> String {
    format!(
        "{{\"type\":\"hist\",\"name\":{},\"count\":{},\"sum_ns\":{},\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}",
        crate::json::string(name),
        h.count,
        h.sum_ns,
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
    fn bucket_index_splits_octaves_in_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        // Octave [4, 8): two buckets [4,6) and [6,8).
        assert_eq!(bucket_index(4), 4);
        assert_eq!(bucket_index(5), 4);
        assert_eq!(bucket_index(6), 5);
        assert_eq!(bucket_index(7), 5);
        assert_eq!(bucket_index(8), 6);
        // Monotonic over the whole range.
        let mut prev = 0;
        for shift in 0..63 {
            for ns in [1u64 << shift, (1u64 << shift) + (1u64 << shift) / 2] {
                let idx = bucket_index(ns);
                assert!(idx >= prev, "bucket_index not monotonic at {ns}");
                prev = idx;
            }
        }
        assert!(bucket_index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn bucket_bounds_bracket_their_values() {
        for ns in [0u64, 1, 2, 3, 5, 100, 1_000, 123_456, u64::MAX / 2, u64::MAX] {
            let idx = bucket_index(ns);
            assert!(
                bucket_upper_bound(idx) >= ns,
                "upper bound of bucket {idx} below {ns}"
            );
            if idx > 0 {
                assert!(
                    bucket_upper_bound(idx - 1) < ns,
                    "{ns} should not fit bucket {}",
                    idx - 1
                );
            }
        }
    }

    #[test]
    fn percentiles_track_recorded_values_within_a_bucket() {
        let mut h = Histogram::new();
        for ns in [100u64, 200, 300, 400, 500, 600, 700, 800, 900, 10_000] {
            h.record_ns(ns);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.max_ns(), 10_000);
        let p50 = h.percentile_ns(0.50);
        // The 5th sample is 500; its bucket [384, 512) reports 511.
        assert!((384..=767).contains(&p50), "p50 = {p50}");
        // p99 lands in the max's bucket and is clamped to the exact max.
        assert_eq!(h.percentile_ns(0.99), 10_000);
        assert_eq!(h.percentile_ns(1.0), 10_000);
        // Quantization error is bounded by the 2-buckets/octave width.
        assert!((p50 as f64) / 500.0 <= 1.6);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.percentile_ns(0.5), 0);
        let s = h.summary();
        assert_eq!((s.count, s.p50_ns, s.max_ns), (0, 0, 0));
        assert_eq!(h.mean_ns(), 0.0);
    }

    #[test]
    fn merge_sums_buckets_and_keeps_exact_max() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record_ns(100);
        a.record_ns(200);
        b.record_ns(100);
        b.record_ns(9_999);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.max_ns(), 9_999);
        assert_eq!(a.buckets()[bucket_index(100)], 2);
        // Saturation at the edge.
        let mut big = Histogram::new();
        big.record_ns(u64::MAX);
        big.sum_ns = u64::MAX;
        let mut c = big.clone();
        c.merge(&big);
        assert_eq!(c.sum_ns(), u64::MAX);
    }

    #[test]
    fn hist_line_is_schema_valid() {
        let mut h = Histogram::new();
        h.record_ns(1_500);
        let line = hist_json_line("serve.request", &h.summary());
        let v = crate::json::Value::parse(&line).unwrap();
        assert_eq!(v.get("type").and_then(crate::json::Value::as_str), Some("hist"));
        assert_eq!(v.get("count").and_then(crate::json::Value::as_f64), Some(1.0));
        assert_eq!(
            v.get("max_ns").and_then(crate::json::Value::as_f64),
            Some(1_500.0)
        );
    }
}
