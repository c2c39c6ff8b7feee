//! Immutable aggregation results: [`TelemetrySnapshot`] and its pieces.

use crate::json::JsonValue;
use crate::LatencyHistogram;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Summary statistics of one [`LatencyHistogram`], whose docs give the
/// percentile window and bucket error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistStats {
    /// Total samples recorded (exact, beyond the percentile window).
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
    /// Smallest sample (exact).
    pub min: f64,
    /// Largest sample (exact).
    pub max: f64,
    /// Median over the window.
    pub p50: f64,
    /// 90th percentile over the window.
    pub p90: f64,
    /// 95th percentile over the window.
    pub p95: f64,
    /// 99th percentile over the window.
    pub p99: f64,
    /// 99.9th percentile over the window.
    pub p999: f64,
}

impl HistStats {
    /// Arithmetic mean.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }

    fn to_json(self) -> JsonValue {
        JsonValue::object([
            ("count", JsonValue::Uint(self.count)),
            ("sum", JsonValue::Num(self.sum)),
            ("mean", JsonValue::Num(self.mean())),
            ("min", JsonValue::Num(self.min)),
            ("max", JsonValue::Num(self.max)),
            ("p50", JsonValue::Num(self.p50)),
            ("p90", JsonValue::Num(self.p90)),
            ("p95", JsonValue::Num(self.p95)),
            ("p99", JsonValue::Num(self.p99)),
            ("p999", JsonValue::Num(self.p999)),
        ])
    }
}

/// One structured event, e.g. a hardware/ideal winner divergence.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryEvent {
    /// Event kind, e.g. `recall.hw_ideal_mismatch`.
    pub name: String,
    /// Numeric payload fields in recording order.
    pub fields: Vec<(String, f64)>,
}

/// Frozen view of everything a [`crate::MemoryRecorder`] collected.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// Monotonic counters (device events: SAR cycles, switch events, ...).
    pub counters: BTreeMap<String, u64>,
    /// Last-value gauges (engine queue depth, worker utilization, ...).
    pub gauges: BTreeMap<String, f64>,
    /// Value distributions (DOM margins, iteration counts, ...).
    pub histograms: BTreeMap<String, LatencyHistogram>,
    /// Wall-time distributions per span name, in seconds.
    pub spans: BTreeMap<String, LatencyHistogram>,
    /// Retained structured events.
    pub events: Vec<TelemetryEvent>,
    /// Events dropped once the retention cap was hit.
    pub dropped_events: u64,
}

impl TelemetrySnapshot {
    /// The value of a counter, `0` when never touched.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Statistics of a span series, if it was recorded.
    #[must_use]
    pub fn span_stats(&self, name: &str) -> Option<HistStats> {
        self.spans.get(name).map(LatencyHistogram::stats)
    }

    /// Statistics of a histogram, if it was recorded.
    #[must_use]
    pub fn histogram_stats(&self, name: &str) -> Option<HistStats> {
        self.histograms.get(name).map(LatencyHistogram::stats)
    }

    /// [`LatencyHistogram::percentile`] of a histogram (or, when no
    /// histogram has the name, a span series) at an arbitrary quantile
    /// `q ∈ [0, 1]`. Returns `NaN` for an unknown name or an empty series;
    /// a single-sample series answers that sample for every `q`.
    #[must_use]
    pub fn percentile(&self, name: &str, q: f64) -> f64 {
        self.histograms
            .get(name)
            .or_else(|| self.spans.get(name))
            .map_or(f64::NAN, |h| h.percentile(q))
    }

    /// Structured JSON value of the whole snapshot (stable, sorted keys).
    #[must_use]
    pub fn to_json_value(&self) -> JsonValue {
        let stats_map = |m: &BTreeMap<String, LatencyHistogram>| {
            JsonValue::Object(
                m.iter()
                    .map(|(k, h)| (k.clone(), h.stats().to_json()))
                    .collect(),
            )
        };
        JsonValue::object([
            (
                "counters",
                JsonValue::Object(
                    self.counters
                        .iter()
                        .map(|(k, &v)| (k.clone(), JsonValue::Uint(v)))
                        .collect(),
                ),
            ),
            (
                "gauges",
                JsonValue::Object(
                    self.gauges
                        .iter()
                        .map(|(k, &v)| (k.clone(), JsonValue::Num(v)))
                        .collect(),
                ),
            ),
            ("histograms", stats_map(&self.histograms)),
            ("spans", stats_map(&self.spans)),
            (
                "events",
                JsonValue::Array(
                    self.events
                        .iter()
                        .map(|e| {
                            JsonValue::object([
                                ("name", JsonValue::Str(e.name.clone())),
                                (
                                    "fields",
                                    JsonValue::Object(
                                        e.fields
                                            .iter()
                                            .map(|(k, v)| (k.clone(), JsonValue::Num(*v)))
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("dropped_events", JsonValue::Uint(self.dropped_events)),
        ])
    }

    /// Serializes the snapshot to a JSON string.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.to_json_value().render()
    }

    /// Renders a human-readable table of counters, gauges and span/histogram
    /// statistics.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters\n");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "  {name:<40} {value:>14}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges\n");
            for (name, value) in &self.gauges {
                let _ = writeln!(out, "  {name:<40} {value:>14.6e}");
            }
        }
        for (title, series, unit_scale, unit) in [
            ("spans", &self.spans, 1e6, "us"),
            ("histograms", &self.histograms, 1.0, ""),
        ] {
            if series.is_empty() {
                continue;
            }
            let _ = writeln!(
                out,
                "{title}\n  {:<40} {:>10} {:>12} {:>12} {:>12} {:>12}",
                "name",
                "count",
                format!("mean{unit}"),
                format!("p50{unit}"),
                format!("p95{unit}"),
                format!("max{unit}"),
            );
            for (name, h) in series {
                let s = h.stats();
                let _ = writeln!(
                    out,
                    "  {name:<40} {:>10} {:>12.3} {:>12.3} {:>12.3} {:>12.3}",
                    s.count,
                    s.mean() * unit_scale,
                    s.p50 * unit_scale,
                    s.p95 * unit_scale,
                    s.max * unit_scale,
                );
            }
        }
        if !self.events.is_empty() || self.dropped_events > 0 {
            let _ = writeln!(
                out,
                "events: {} retained, {} dropped",
                self.events.len(),
                self.dropped_events
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::{MemoryRecorder, Recorder};

    fn sample_snapshot() -> TelemetrySnapshot {
        let r = MemoryRecorder::default();
        r.counter("adc.sar_cycles", 40);
        r.gauge("engine.queue_depth", 3.0);
        r.observe("recall.dom", 27.0);
        r.record_span("recall.total", 0.002);
        r.event(
            "recall.hw_ideal_mismatch",
            &[("query", 3.0), ("margin", 1.0)],
        );
        r.snapshot()
    }

    #[test]
    fn json_is_valid_and_carries_all_sections() {
        let s = sample_snapshot();
        let j = s.to_json();
        json::validate(&j).expect("snapshot JSON must parse");
        for key in ["counters", "gauges", "histograms", "spans", "events"] {
            assert!(j.contains(&format!("\"{key}\"")), "missing {key} in {j}");
        }
        assert!(j.contains("\"adc.sar_cycles\":40"));
        assert!(j.contains("recall.hw_ideal_mismatch"));
    }

    #[test]
    fn render_mentions_every_name() {
        let s = sample_snapshot();
        let text = s.render();
        for name in [
            "adc.sar_cycles",
            "engine.queue_depth",
            "recall.dom",
            "recall.total",
        ] {
            assert!(text.contains(name), "{name} missing from:\n{text}");
        }
    }

    #[test]
    fn empty_snapshot_is_quiet_but_valid() {
        let s = TelemetrySnapshot::default();
        json::validate(&s.to_json()).unwrap();
        assert!(s.render().is_empty());
        assert_eq!(s.counter("anything"), 0);
        assert!(s.span_stats("anything").is_none());
    }

    #[test]
    fn percentile_pins_exact_values_on_known_contents() {
        let r = MemoryRecorder::default();
        for v in 1..=100 {
            r.observe("h", f64::from(v));
        }
        let s = r.snapshot();
        // Nearest rank over 100 ascending samples: p(q) = ceil(100q)-th,
        // read as its bucket's lower bound (exact below 64).
        assert_eq!(s.percentile("h", 0.50), 50.0);
        assert_eq!(s.percentile("h", 0.90), 90.0);
        assert_eq!(s.percentile("h", 0.99), 98.0);
        assert_eq!(s.percentile("h", 0.999), 100.0);
        assert_eq!(s.percentile("h", 0.0), 1.0);
        assert_eq!(s.percentile("h", 1.0), 100.0);
        // Quantiles between ranks resolve to the next rank up.
        assert_eq!(s.percentile("h", 0.505), 51.0);
        let h = s.histogram_stats("h").unwrap();
        assert_eq!(
            (h.p50, h.p90, h.p95, h.p99, h.p999),
            (50.0, 90.0, 94.0, 98.0, 100.0)
        );
    }

    #[test]
    fn percentile_single_sample_and_span_fallback() {
        let r = MemoryRecorder::default();
        r.observe("one", 7.5);
        r.record_span("recall.total", 0.25);
        let s = r.snapshot();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(s.percentile("one", q), 7.5, "single sample at q={q}");
        }
        // Span series answer when no histogram has the name.
        assert_eq!(s.percentile("recall.total", 0.5), 0.25);
    }

    #[test]
    fn percentile_of_empty_or_unknown_is_nan() {
        let s = TelemetrySnapshot::default();
        assert!(s.percentile("absent", 0.5).is_nan());
        let mut s = TelemetrySnapshot::default();
        s.histograms
            .insert("empty".to_owned(), LatencyHistogram::new());
        assert!(s.percentile("empty", 0.5).is_nan());
    }

    #[test]
    fn mean_of_empty_is_nan_and_json_null() {
        let h = HistStats {
            count: 0,
            sum: 0.0,
            min: f64::NAN,
            max: f64::NAN,
            p50: f64::NAN,
            p90: f64::NAN,
            p95: f64::NAN,
            p99: f64::NAN,
            p999: f64::NAN,
        };
        assert!(h.mean().is_nan());
        assert!(h.to_json().render().contains("null"));
    }
}
