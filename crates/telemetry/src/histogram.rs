//! [`LatencyHistogram`]: the workspace's one distribution type, an
//! HDR-style log-bucketed histogram keyed on the `f64` value itself.

use crate::snapshot::HistStats;

/// Mantissa bits kept per bucket: 2^5 = 32 buckets per binary octave, giving
/// a worst-case quantization error of 1/32 ≈ 3.1 % of the value.
const SUB_BITS: u32 = 5;
/// Low bits of an `f64`'s pattern that a bucket key drops.
const SHIFT: u32 = f64::MANTISSA_DIGITS - 1 - SUB_BITS;
/// Samples per generation. Percentiles cover the previous and the current
/// generation: the last `SAMPLE_CAP` to `2 · SAMPLE_CAP − 1` samples.
pub(crate) const SAMPLE_CAP: u64 = 65_536;

/// Maps a value to its bucket key: its exponent and top five mantissa bits,
/// negated (less one) below zero, so keys order like the values they hold.
/// Whole numbers below 64 are exact; larger magnitudes keep their six most
/// significant bits (bounded relative error).
fn bucket_of(v: f64) -> i32 {
    let magnitude = (v.abs().to_bits() >> SHIFT) as i32;
    if v.is_sign_negative() {
        -magnitude - 1
    } else {
        magnitude
    }
}

/// The lower bound of bucket `key` — the deterministic representative
/// reported by [`LatencyHistogram::percentile`]. Exact for whole numbers
/// below 64, within 1/32 of any value in the bucket above.
fn value_of(key: i32) -> f64 {
    if key >= 0 {
        f64::from_bits((key as u64) << SHIFT)
    } else {
        -f64::from_bits(u64::from(key.unsigned_abs()) << SHIFT)
    }
}

/// One bucket's samples in the previous and the current generation.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Bucket {
    key: i32,
    previous: u64,
    current: u64,
}

/// A log-bucketed (HDR-style) histogram of `f64` samples: seconds, counts,
/// nanoseconds or negative values alike.
///
/// `count`, `sum`, `min` and `max` stay exact at any volume. Percentiles
/// follow recent traffic: they cover the last 65,536 to 131,071 samples
/// (two generations of 65,536; a new one starts after a fixed number of
/// samples, never after a time) and resolve to their bucket's lower bound,
/// within 1/32 of the value and clamped to the exact `min` and `max`. Only
/// non-empty buckets are stored, 24 bytes each: a series spread over six
/// decades holds ≈ 640 of them. Recording is O(log buckets).
///
/// ```
/// use spinamm_telemetry::LatencyHistogram;
/// let mut h = LatencyHistogram::new();
/// for v in 1..=100 {
///     h.record(f64::from(v));
/// }
/// assert_eq!(h.count(), 100);
/// assert_eq!(h.percentile(0.5), 50.0); // exact below 64
/// assert_eq!(h.stats().p99, 98.0); // 99 reads its bucket's lower bound
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyHistogram {
    /// Non-empty buckets, ascending by key.
    buckets: Vec<Bucket>,
    /// Samples in the previous generation.
    previous: u64,
    /// Samples in the current generation.
    current: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: Vec::new(),
            previous: 0,
            current: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        if self.current >= SAMPLE_CAP {
            // A new generation starts; the oldest one leaves the window.
            self.buckets.retain_mut(|b| {
                b.previous = std::mem::take(&mut b.current);
                b.previous > 0
            });
            self.previous = std::mem::take(&mut self.current);
        }
        self.bucket(bucket_of(value)).current += 1;
        self.current += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// The bucket with `key`, inserted empty if absent.
    fn bucket(&mut self, key: i32) -> &mut Bucket {
        let i = self
            .buckets
            .binary_search_by_key(&key, |b| b.key)
            .unwrap_or_else(|i| {
                let empty = Bucket {
                    key,
                    previous: 0,
                    current: 0,
                };
                self.buckets.insert(i, empty);
                i
            });
        &mut self.buckets[i]
    }

    /// Total samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Nearest-rank percentile over the window: the lower bound of the
    /// bucket holding the ⌈q·n⌉-th smallest of its `n` samples, clamped to
    /// the exact `min` and `max`. `NaN` when empty; `q` is clamped to
    /// `[0, 1]`.
    #[must_use]
    pub fn percentile(&self, q: f64) -> f64 {
        let window = self.previous + self.current;
        if window == 0 {
            return f64::NAN;
        }
        let rank = (q.clamp(0.0, 1.0) * window as f64).ceil() as u64;
        let rank = rank.clamp(1, window);
        let mut seen = 0u64;
        for b in &self.buckets {
            seen += b.previous + b.current;
            if seen >= rank {
                return value_of(b.key).max(self.min).min(self.max);
            }
        }
        self.max
    }

    /// Count, sum, mean, min and max (exact), and p50 … p99.9 (windowed).
    #[must_use]
    pub fn stats(&self) -> HistStats {
        let (min, max) = if self.count == 0 {
            (f64::NAN, f64::NAN)
        } else {
            (self.min, self.max)
        };
        HistStats {
            count: self.count,
            sum: self.sum,
            min,
            max,
            p50: self.percentile(0.50),
            p90: self.percentile(0.90),
            p95: self.percentile(0.95),
            p99: self.percentile(0.99),
            p999: self.percentile(0.999),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_mapping_is_monotone_and_contiguous() {
        // Whole numbers keep their six most significant bits (so those
        // below 64 are exact), the buckets of an integer-keyed histogram
        // with 32 sub-buckets per octave.
        let truncated = |v: u64| {
            let drop = (63 - v.max(1).leading_zeros()).saturating_sub(SUB_BITS);
            ((v >> drop) << drop) as f64
        };
        for v in (0..1u64 << 16).chain([1000, 1 << 20, (1 << 53) - 1]) {
            assert_eq!(value_of(bucket_of(v as f64)), truncated(v), "at {v}");
        }
        let mut prev = bucket_of(f64::NEG_INFINITY);
        for v in [
            -1e300, -1000.0, -1.5, -1e-9, 0.0, 1e-9, 0.25, 1.0, 63.0, 64.0, 1e300,
        ] {
            let b = bucket_of(v);
            assert!(b >= prev, "bucket order broke at {v}");
            assert!(value_of(b) <= v, "representative exceeds value at {v}");
            // Representative stays within 1/32 of the value.
            assert!(v - value_of(b) <= v.abs() / 32.0, "at {v}");
            prev = b;
        }
    }

    #[test]
    fn empty_percentiles_are_nan() {
        let h = LatencyHistogram::new();
        let s = h.stats();
        assert!(s.p50.is_nan());
        assert!(s.p999.is_nan());
        assert!(s.mean().is_nan());
        assert!(s.min.is_nan());
        assert!(s.max.is_nan());
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn single_sample_dominates_every_quantile() {
        let mut h = LatencyHistogram::new();
        h.record(42.0);
        for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(h.percentile(q), 42.0);
        }
        assert_eq!(h.stats().mean(), 42.0);
    }

    #[test]
    fn uniform_1_to_100_pins_exact_quantiles() {
        let mut h = LatencyHistogram::new();
        for v in 1..=100 {
            h.record(f64::from(v));
        }
        let s = h.stats();
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p90, 90.0);
        // 99 and 100 both exceed 64: bucket lower bounds.
        assert_eq!(s.p99, 98.0);
        assert_eq!(h.percentile(1.0), 100.0);
        assert_eq!(s.mean(), 50.5);
        assert_eq!(s.max, 100.0);
    }

    #[test]
    fn coarse_bucket_representative_is_deterministic() {
        // 1000: exponent 9, top five mantissa bits 30, so the bucket's
        // lower bound is (32 + 30) << 4 = 992.
        assert_eq!(bucket_of(1000.0), bucket_of(992.0));
        assert_eq!(value_of(bucket_of(1000.0)), 992.0);
        let mut h = LatencyHistogram::new();
        h.record(1000.0);
        assert_eq!(h.percentile(0.5), 1000.0, "clamped to the exact sample");
        h.record(1000.0);
        h.record(990.0);
        assert_eq!(h.percentile(0.5), 992.0);
        assert_eq!(h.stats().max, 1000.0, "min/max stay exact");
    }

    #[test]
    fn tail_percentiles_separate_from_body() {
        let mut h = LatencyHistogram::new();
        for _ in 0..999 {
            h.record(10.0);
        }
        h.record(f64::from(1 << 20));
        let s = h.stats();
        assert_eq!(s.p50, 10.0);
        assert_eq!(s.p99, 10.0);
        assert_eq!(s.p999, 10.0);
        assert_eq!(h.percentile(1.0), f64::from(1 << 20));
    }

    #[test]
    fn the_window_holds_the_last_two_generations() {
        let mut h = LatencyHistogram::new();
        for v in [1.0, 2.0, 3.0] {
            for _ in 0..SAMPLE_CAP {
                h.record(v);
            }
        }
        // The first generation has left the window; the second has not.
        assert_eq!(h.percentile(0.0), 2.0);
        assert_eq!(h.percentile(1.0), 3.0);
        h.record(4.0);
        assert_eq!(h.percentile(0.0), 3.0);
        let s = h.stats();
        assert_eq!((s.count, s.min, s.max), (3 * SAMPLE_CAP + 1, 1.0, 4.0));
    }
}
