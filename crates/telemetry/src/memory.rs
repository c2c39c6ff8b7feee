//! [`MemoryRecorder`]: an in-process aggregating recorder.

use crate::recorder::Recorder;
use crate::snapshot::{HistStats, TelemetryEvent, TelemetrySnapshot};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Retained samples per histogram/span; `count`/`sum`/`min`/`max` stay
/// exact beyond the cap, percentiles come from the most recent
/// `SAMPLE_CAP` samples (each new sample overwrites the oldest).
const SAMPLE_CAP: usize = 65_536;

/// Retained structured events; later events are counted but dropped.
const EVENT_CAP: usize = 4_096;

#[derive(Debug, Default, Clone)]
struct Series {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    samples: Vec<f64>,
}

impl Series {
    fn push(&mut self, value: f64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
        if self.samples.len() < SAMPLE_CAP {
            self.samples.push(value);
        } else {
            self.samples[((self.count - 1) % SAMPLE_CAP as u64) as usize] = value;
        }
    }

    /// Sorts the most recent samples once and derives the stats from that
    /// sort; returns both.
    fn summarize(mut self) -> (HistStats, Vec<f64>) {
        self.samples.sort_by(f64::total_cmp);
        let sorted = self.samples;
        let stats = HistStats {
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
            p50: percentile(&sorted, 0.50),
            p90: percentile(&sorted, 0.90),
            p95: percentile(&sorted, 0.95),
            p99: percentile(&sorted, 0.99),
            p999: percentile(&sorted, 0.999),
        };
        (stats, sorted)
    }
}

/// Per-name stats and ascending-sorted samples of a set of series.
type Summaries = (BTreeMap<String, HistStats>, BTreeMap<String, Vec<f64>>);

fn summarize_all(series: BTreeMap<String, Series>) -> Summaries {
    series
        .into_iter()
        .map(|(name, s)| {
            let (stats, sorted) = s.summarize();
            ((name.clone(), stats), (name, sorted))
        })
        .unzip()
}

/// Nearest-rank percentile over an ascending-sorted slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Applies `f` to the value of series `name`, looked up by `&str`: the key
/// is allocated only the first time `name` is seen.
fn update<V: Default>(map: &mut BTreeMap<String, V>, name: &str, f: impl FnOnce(&mut V)) {
    match map.get_mut(name) {
        Some(value) => f(value),
        None => f(map.entry(name.to_owned()).or_default()),
    }
}

#[derive(Debug, Default, Clone)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Series>,
    spans: BTreeMap<String, Series>,
    events: Vec<TelemetryEvent>,
    dropped_events: u64,
}

/// A recorder that aggregates everything in memory behind a mutex, for
/// later inspection via [`MemoryRecorder::snapshot`].
#[derive(Debug, Default)]
pub struct MemoryRecorder {
    inner: Mutex<Inner>,
}

impl MemoryRecorder {
    /// Freezes the current contents into an immutable snapshot.
    ///
    /// # Panics
    ///
    /// Panics if a previous user of the recorder panicked mid-update
    /// (poisoned mutex).
    #[must_use]
    pub fn snapshot(&self) -> TelemetrySnapshot {
        // Copy under the lock, sort after releasing it: a snapshot must not
        // stall the recording hot path.
        let inner = self.with(|inner| inner.clone());
        let (histograms, histogram_samples) = summarize_all(inner.histograms);
        let (spans, span_samples) = summarize_all(inner.spans);
        TelemetrySnapshot {
            counters: inner.counters,
            gauges: inner.gauges,
            histograms,
            spans,
            events: inner.events,
            dropped_events: inner.dropped_events,
            histogram_samples,
            span_samples,
        }
    }

    fn with<T>(&self, f: impl FnOnce(&mut Inner) -> T) -> T {
        f(&mut self.inner.lock().expect("telemetry mutex poisoned"))
    }
}

impl Recorder for MemoryRecorder {
    fn is_enabled(&self) -> bool {
        true
    }

    fn counter(&self, name: &str, delta: u64) {
        self.with(|inner| update(&mut inner.counters, name, |c| *c += delta));
    }

    fn gauge(&self, name: &str, value: f64) {
        self.with(|inner| update(&mut inner.gauges, name, |g| *g = value));
    }

    fn observe(&self, name: &str, value: f64) {
        self.with(|inner| update(&mut inner.histograms, name, |s| s.push(value)));
    }

    fn record_span(&self, name: &str, seconds: f64) {
        self.with(|inner| update(&mut inner.spans, name, |s| s.push(seconds)));
    }

    fn event(&self, name: &str, fields: &[(&str, f64)]) {
        self.with(|inner| {
            if inner.events.len() < EVENT_CAP {
                inner.events.push(TelemetryEvent {
                    name: name.to_owned(),
                    fields: fields.iter().map(|&(k, v)| (k.to_owned(), v)).collect(),
                });
            } else {
                inner.dropped_events += 1;
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_monotonically() {
        let r = MemoryRecorder::default();
        r.counter("x", 1);
        r.counter("x", 4);
        r.counter("y", 2);
        let s = r.snapshot();
        assert_eq!(s.counter("x"), 5);
        assert_eq!(s.counter("y"), 2);
        assert_eq!(s.counter("absent"), 0);
    }

    #[test]
    fn gauges_keep_last_value() {
        let r = MemoryRecorder::default();
        r.gauge("g", 1.0);
        r.gauge("g", -3.5);
        assert_eq!(r.snapshot().gauges.get("g"), Some(&-3.5));
    }

    #[test]
    fn histogram_stats_are_exact_for_small_series() {
        let r = MemoryRecorder::default();
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            r.observe("h", v);
        }
        let s = r.snapshot();
        let h = s.histogram_stats("h").unwrap();
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 15.0);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 5.0);
        assert_eq!(h.p50, 3.0);
        assert_eq!(h.p95, 5.0);
    }

    #[test]
    fn percentile_nearest_rank_basics() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.50), 50.0);
        assert_eq!(percentile(&sorted, 0.95), 95.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn percentiles_follow_samples_past_the_cap() {
        let r = MemoryRecorder::default();
        for _ in 0..SAMPLE_CAP {
            r.observe("h", 1.0);
        }
        for _ in 0..10_000 {
            r.observe("h", 100.0);
        }
        let s = r.snapshot();
        let h = s.histogram_stats("h").unwrap();
        assert_eq!(h.count, SAMPLE_CAP as u64 + 10_000);
        assert_eq!((h.min, h.max), (1.0, 100.0));
        assert_eq!(h.p50, 1.0);
        assert_eq!(h.p99, 100.0);
    }

    #[test]
    fn events_capped_not_lost_silently() {
        let r = MemoryRecorder::default();
        for i in 0..(super::EVENT_CAP + 10) {
            r.event("e", &[("i", i as f64)]);
        }
        let s = r.snapshot();
        assert_eq!(s.events.len(), super::EVENT_CAP);
        assert_eq!(s.dropped_events, 10);
    }

    #[test]
    fn shared_across_threads() {
        let r = std::sync::Arc::new(MemoryRecorder::default());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        r.counter("t", 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.snapshot().counter("t"), 400);
    }
}
