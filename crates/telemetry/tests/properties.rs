//! Property-based tests for the telemetry layer: aggregation invariants
//! that must hold for *any* recorded series, not just hand-picked examples.

use proptest::prelude::*;
use spinamm_telemetry::{json, Layer, MemoryRecorder, Recorder};

/// Nests `depth` spans recursively, opening `width` siblings at each level.
fn nest_spans(r: &MemoryRecorder, depth: usize, width: usize) {
    if depth == 0 {
        return;
    }
    let _guard = r.span(Layer::SETTLE);
    for _ in 0..width {
        nest_spans(r, depth - 1, width);
    }
}

proptest! {
    /// Histogram percentiles are ordered min ≤ p50 ≤ p95 ≤ max for any
    /// sample set, and count/sum are exact.
    #[test]
    fn histogram_percentiles_are_monotone(
        samples in proptest::collection::vec(-1e9..1e9f64, 1..200)
    ) {
        let r = MemoryRecorder::default();
        for &s in &samples {
            r.observe("prop.hist", s);
        }
        let snap = r.snapshot();
        let h = snap.histogram_stats("prop.hist").expect("recorded");
        prop_assert_eq!(h.count, samples.len() as u64);
        let expected_sum: f64 = samples.iter().sum();
        prop_assert!((h.sum - expected_sum).abs() <= 1e-6 * expected_sum.abs().max(1.0));
        prop_assert!(h.min <= h.p50, "min {} > p50 {}", h.min, h.p50);
        prop_assert!(h.p50 <= h.p95, "p50 {} > p95 {}", h.p50, h.p95);
        prop_assert!(h.p95 <= h.max, "p95 {} > max {}", h.p95, h.max);
        prop_assert!(h.min <= h.mean() && h.mean() <= h.max);
    }

    /// Arbitrarily deep/wide span nesting never panics and records exactly
    /// the number of spans opened.
    #[test]
    fn span_nesting_never_panics(depth in 0usize..6, width in 1usize..4) {
        let r = MemoryRecorder::default();
        nest_spans(&r, depth, width);
        let snap = r.snapshot();
        // Geometric series: width + width² + … + width^depth opened spans.
        let mut expected = 0u64;
        let mut layer = 1u64;
        for _ in 0..depth {
            expected += layer;
            layer *= width as u64;
        }
        // The recursion opens one span per call with depth > 0.
        match snap.span_stats("recall.settle") {
            Some(s) => prop_assert_eq!(s.count, expected),
            None => prop_assert_eq!(expected, 0),
        }
    }

    /// Counters are exact monotone sums regardless of delta ordering.
    #[test]
    fn counters_sum_exactly(deltas in proptest::collection::vec(0u64..1_000_000, 0..64)) {
        let r = MemoryRecorder::default();
        for &d in &deltas {
            r.counter("prop.counter", d);
        }
        let snap = r.snapshot();
        prop_assert_eq!(snap.counter("prop.counter"), deltas.iter().sum::<u64>());
    }

    /// Any snapshot — including NaN/inf gauges and unicode-ish event names —
    /// renders to syntactically valid JSON.
    #[test]
    fn snapshot_json_always_validates(
        gauge in proptest::collection::vec(-1e30..1e30f64, 0..8),
        counters in proptest::collection::vec(0u64..u64::MAX / 2, 0..8),
        weird in -10.0..10.0f64
    ) {
        let r = MemoryRecorder::default();
        for (k, &v) in gauge.iter().enumerate() {
            r.gauge(&format!("g.{k}"), v);
        }
        for (k, &v) in counters.iter().enumerate() {
            r.counter(&format!("c.{k}"), v);
        }
        r.gauge("g.nan", f64::NAN);
        r.gauge("g.inf", f64::INFINITY);
        r.event("e.\"quoted\\name\"", &[("x", weird), ("nan", f64::NAN)]);
        let rendered = r.snapshot().to_json();
        prop_assert!(
            json::validate(&rendered).is_ok(),
            "invalid JSON: {}",
            rendered
        );
    }
}
