//! Property tests of the sampling contract: rate 0.0 yields no traces,
//! rate 1.0 yields exactly one per request, and the captured span trees
//! are identical across reruns at a fixed seed.

use proptest::prelude::*;
use spinamm_telemetry::{Layer, NoopRecorder, Recorder};
use spinamm_trace::{Probe, TraceBinding, TraceConfig, Tracer};

/// Replays a small deterministic workload whose span shape depends on the
/// request index, returning the captured structures.
fn run_workload(tracer: &Tracer, requests: usize) -> Vec<Vec<(u16, &'static str)>> {
    let binding = TraceBinding::Sampled(tracer);
    for i in 0..requests {
        let probe = Probe::begin(
            &NoopRecorder,
            binding,
            if i % 2 == 0 {
                Layer::RECALL
            } else {
                Layer::RECALL_BATCH
            },
        );
        {
            let _drive = probe.span(Layer::DRIVE);
        }
        {
            let settle = probe.span(Layer::SETTLE);
            settle.attr("cg_iterations", i as f64);
            if i % 3 == 0 {
                let _solve = probe.span(Layer::SOLVE);
            }
        }
        let _select = probe.span(Layer::SELECT);
    }
    tracer.traces().iter().map(|t| t.structure()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn rate_zero_yields_zero_traces(requests in 0usize..64, seed in any::<u64>()) {
        let tracer = Tracer::new(&TraceConfig {
            sample_rate: 0.0,
            seed,
            ..TraceConfig::default()
        });
        let structures = run_workload(&tracer, requests);
        prop_assert!(structures.is_empty());
        prop_assert_eq!(tracer.sampled_count(), 0);
        // The latency histogram still sees every request.
        prop_assert_eq!(tracer.request_count(), requests as u64);
    }

    #[test]
    fn rate_one_yields_one_identical_trace_per_request(
        requests in 1usize..48,
        seed in any::<u64>(),
    ) {
        let config = TraceConfig {
            sample_rate: 1.0,
            seed,
            ..TraceConfig::default()
        };
        let first = Tracer::new(&config);
        let second = Tracer::new(&config);
        let a = run_workload(&first, requests);
        let b = run_workload(&second, requests);
        prop_assert_eq!(first.sampled_count(), requests as u64);
        prop_assert_eq!(a.len(), requests);
        prop_assert_eq!(a, b, "rerun at a fixed seed must capture identical span trees");
    }

    #[test]
    fn partial_rate_is_deterministic_and_bounded(
        requests in 1usize..64,
        seed in any::<u64>(),
    ) {
        let config = TraceConfig {
            sample_rate: 0.5,
            seed,
            ..TraceConfig::default()
        };
        let first = Tracer::new(&config);
        let second = Tracer::new(&config);
        let a = run_workload(&first, requests);
        let b = run_workload(&second, requests);
        prop_assert_eq!(a, b);
        prop_assert!(first.sampled_count() <= requests as u64);
        prop_assert_eq!(first.request_count(), requests as u64);
    }
}
