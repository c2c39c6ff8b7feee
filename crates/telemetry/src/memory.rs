//! [`MemoryRecorder`]: an in-process aggregating recorder.

use crate::recorder::Recorder;
use crate::snapshot::{TelemetryEvent, TelemetrySnapshot};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Retained structured events; later events are counted but dropped.
const EVENT_CAP: usize = 4_096;

/// Applies `f` to the value of series `name`, looked up by `&str`: the key
/// is allocated only the first time `name` is seen.
fn update<V: Default>(map: &mut BTreeMap<String, V>, name: &str, f: impl FnOnce(&mut V)) {
    match map.get_mut(name) {
        Some(value) => f(value),
        None => f(map.entry(name.to_owned()).or_default()),
    }
}

/// A recorder that aggregates everything in memory behind a mutex, for
/// later inspection via [`MemoryRecorder::snapshot`].
///
/// Each histogram and span series is one
/// [`LatencyHistogram`](crate::LatencyHistogram): its count, sum, min and
/// max are exact over the recorder's lifetime, its percentiles cover the
/// series' last 65,536 to 131,071 samples, and its size is set by the
/// buckets it touches, not by how many samples arrive.
#[derive(Debug, Default)]
pub struct MemoryRecorder {
    inner: Mutex<TelemetrySnapshot>,
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
        self.with(|inner| inner.clone())
    }

    fn with<T>(&self, f: impl FnOnce(&mut TelemetrySnapshot) -> T) -> T {
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
        self.with(|inner| update(&mut inner.histograms, name, |h| h.record(value)));
    }

    fn record_span(&self, name: &str, seconds: f64) {
        self.with(|inner| update(&mut inner.spans, name, |h| h.record(seconds)));
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
    use crate::histogram::SAMPLE_CAP;

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
        assert_eq!(h.count, SAMPLE_CAP + 10_000);
        assert_eq!((h.min, h.max), (1.0, 100.0));
        assert_eq!(h.p50, 1.0);
        assert_eq!(h.p99, 100.0);
    }

    #[test]
    fn windowed_p99_follows_a_distribution_shift() {
        let r = MemoryRecorder::default();
        for _ in 0..500_000 {
            r.record_span("s", 1e-3);
        }
        for _ in 0..500_000 {
            r.record_span("s", 1e-5);
        }
        // Over the lifetime, 1 ms is the p99; the window holds only 10 µs.
        let p99 = r.snapshot().percentile("s", 0.99);
        assert!((p99 - 1e-5).abs() <= 1e-5 / 32.0, "p99 {p99}");
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
