//! The kernel's select tallies the device counters locally: each one
//! reaches the recorder at most once per select, with the same totals the
//! interpreted oracle reports one cycle at a time.

use std::cell::RefCell;
use std::collections::BTreeMap;

use spinamm_core::amm::{AmmConfig, AssociativeMemoryModule, Fidelity};
use spinamm_core::request::RecallRequest;
use spinamm_data::workload::{PatternWorkload, WorkloadConfig};
use spinamm_telemetry::{MemoryRecorder, Recorder};

const DEVICE_COUNTERS: [&str; 4] = [
    "adc.sar_cycles",
    "spin.dwn_switch_events",
    "spin.latch_fires",
    "wta.dl_transitions",
];

/// Counts `counter()` calls by name and forwards everything to a
/// [`MemoryRecorder`].
#[derive(Default)]
struct CallCounting {
    calls: RefCell<BTreeMap<String, u64>>,
    inner: MemoryRecorder,
}

impl CallCounting {
    fn calls(&self, name: &str) -> u64 {
        self.calls.borrow().get(name).copied().unwrap_or(0)
    }
}

impl Recorder for CallCounting {
    fn is_enabled(&self) -> bool {
        true
    }

    fn counter(&self, name: &str, delta: u64) {
        *self.calls.borrow_mut().entry(name.to_owned()).or_default() += 1;
        self.inner.counter(name, delta);
    }

    fn gauge(&self, name: &str, value: f64) {
        self.inner.gauge(name, value);
    }

    fn observe(&self, name: &str, value: f64) {
        self.inner.observe(name, value);
    }

    fn record_span(&self, name: &str, seconds: f64) {
        self.inner.record_span(name, seconds);
    }

    fn event(&self, name: &str, fields: &[(&str, f64)]) {
        self.inner.event(name, fields);
    }
}

#[test]
fn select_reports_each_device_counter_once() {
    let w = PatternWorkload::generate(&WorkloadConfig {
        pattern_count: 40,
        vector_len: 128,
        bits: 5,
        query_count: 8,
        query_noise: 0.15,
        seed: 17,
        noise_magnitude: 3,
        similarity: 0.0,
    })
    .unwrap();
    let cfg = AmmConfig {
        fidelity: Fidelity::Driven,
        ..AmmConfig::default()
    };
    let mut module = AssociativeMemoryModule::build(&w.patterns, &cfg).unwrap();
    let mut twin = AssociativeMemoryModule::build(&w.patterns, &cfg).unwrap();
    let counting = CallCounting::default();
    let oracle = MemoryRecorder::default();
    for (k, (_, q)) in w.queries.iter().enumerate() {
        let before = DEVICE_COUNTERS.map(|name| counting.calls(name));
        let got = module
            .recall_request(q, &RecallRequest::recorded(&counting))
            .unwrap();
        let want = twin
            .oracle_recall_request(q, &RecallRequest::recorded(&oracle))
            .unwrap();
        assert_eq!(got, want, "query {k}");
        for (name, before) in DEVICE_COUNTERS.iter().zip(before) {
            let calls = counting.calls(name) - before;
            assert!(calls <= 1, "query {k}: {name} reported {calls} times");
        }
    }
    let (got, want) = (counting.inner.snapshot(), oracle.snapshot());
    for name in DEVICE_COUNTERS {
        assert!(want.counter(name) > 0, "{name} never counted");
        assert_eq!(got.counter(name), want.counter(name), "{name} total");
    }
}
