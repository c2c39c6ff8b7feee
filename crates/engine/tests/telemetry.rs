//! The recorder series the observability surface promises: `/metrics`,
//! the experiments report and perfbench's per-layer ledger read these
//! names, so each entry point's `(series, count)` list is pinned here, and
//! the engine's queue gauges must stay honest after a drain.

use std::sync::Arc;

use spinamm_core::amm::{AmmConfig, AssociativeMemoryModule, Fidelity};
use spinamm_core::capacity::TiledAmm;
use spinamm_core::hierarchy::HierarchicalAmm;
use spinamm_core::partition::PartitionedAmm;
use spinamm_core::request::RecallRequest;
use spinamm_engine::{Deployment, EngineConfig, RecallEngine};
use spinamm_telemetry::MemoryRecorder;

fn patterns(count: usize, len: usize) -> Vec<Vec<u32>> {
    (0..count)
        .map(|k| {
            (0..len)
                .map(|i| ((i * 7 + k * 11 + k * k) % 32) as u32)
                .collect()
        })
        .collect()
}

fn queries(patterns: &[Vec<u32>], n: usize) -> Vec<Vec<u32>> {
    patterns
        .iter()
        .cycle()
        .take(n)
        .enumerate()
        .map(|(qi, p)| {
            let mut q = p.clone();
            let idx = qi % q.len();
            q[idx] = (q[idx] + 3) % 32;
            q
        })
        .collect()
}

/// A recorder's span series as `(name, samples)`, in name order.
fn span_series(recorder: &MemoryRecorder) -> Vec<(String, u64)> {
    recorder
        .snapshot()
        .spans
        .iter()
        .map(|(name, series)| (name.clone(), series.count()))
        .collect()
}

/// `want` as owned pairs, so a mismatch prints both lists whole.
fn series(want: &[(&str, u64)]) -> Vec<(String, u64)> {
    want.iter().map(|&(name, n)| (name.to_owned(), n)).collect()
}

#[test]
fn queue_gauges_recover_after_drain_and_wait_histogram_fills() {
    let p = patterns(4, 12);
    let module = AssociativeMemoryModule::build(&p, &AmmConfig::default()).unwrap();
    let recorder = Arc::new(MemoryRecorder::default());
    let engine = RecallEngine::with_recorder(
        Deployment::Flat(module),
        &EngineConfig {
            workers: 2,
            queue_capacity: 3,
        },
        recorder.clone(),
    );
    let inputs = queries(&p, 9);
    engine.recall_many(&inputs).unwrap();
    engine.shutdown();

    let snap = recorder.snapshot();
    // Completion re-samples the gauge, so a drained engine reads 0 rather
    // than the submission high-water mark.
    assert_eq!(snap.gauges.get("engine.queue_depth"), Some(&0.0));
    let waits = snap.histogram_stats("engine.queue_wait_ns").unwrap();
    assert_eq!(waits.count, inputs.len() as u64);
    assert!(waits.min >= 0.0);
    assert!(snap.percentile("engine.queue_wait_ns", 0.99) >= snap.gauges["engine.queue_depth"]);
}

/// Every entry point's recorder series, pinned to the sample. Each
/// deployment is built without a recorder, so the first recorded recall
/// compiles its kernels (`plan.compile`); clones share a compiled kernel,
/// so an engine compiles nothing. A composite recall is one `recall.total`
/// sample over its member modules' stage series.
#[test]
fn recorder_series_are_pinned() {
    let at = |fidelity: Fidelity| AmmConfig {
        fidelity,
        ..AmmConfig::default()
    };
    let p = patterns(4, 12);
    let inputs = queries(&p, 3);

    for fidelity in [Fidelity::Ideal, Fidelity::Driven, Fidelity::Parasitic] {
        let restamps =
            |n: u64| (fidelity == Fidelity::Parasitic).then_some(("crossbar.restamp_ns", n));
        let mut module = AssociativeMemoryModule::build(&p, &at(fidelity)).unwrap();
        let recorder = MemoryRecorder::default();
        module
            .recall_request(&inputs[0], &RecallRequest::recorded(&recorder))
            .unwrap();
        let want: Vec<_> = restamps(1)
            .into_iter()
            .chain([
                ("plan.compile", 1),
                ("recall.convert", 1),
                ("recall.drive", 1),
                ("recall.select", 1),
                ("recall.settle", 1),
                ("recall.total", 1),
            ])
            .collect();
        assert_eq!(span_series(&recorder), series(&want), "{fidelity:?} recall");

        // A batch is one drive and one settle over every query, then one
        // convert and one select per query.
        let recorder = MemoryRecorder::default();
        let req = RecallRequest::recorded(&recorder).with_workers(2);
        module.recall_batch_request(&inputs, &req).unwrap();
        let want: Vec<_> = restamps(3)
            .into_iter()
            .chain([
                ("recall.batch", 1),
                ("recall.convert", 3),
                ("recall.drive", 1),
                ("recall.select", 3),
                ("recall.settle", 1),
            ])
            .collect();
        assert_eq!(span_series(&recorder), series(&want), "{fidelity:?} batch");
    }

    let cfg = at(Fidelity::Parasitic);
    let module_series = |n: u64, total: u64| {
        let mut want = vec![
            ("crossbar.restamp_ns", n),
            ("plan.compile", n),
            ("recall.convert", n),
            ("recall.drive", n),
            ("recall.select", n),
            ("recall.settle", n),
        ];
        if total > 0 {
            want.push(("recall.total", total));
        }
        series(&want)
    };

    // The fragment path a benchmark times: evaluate + select, no
    // `recall.total`.
    let mut module = AssociativeMemoryModule::build(&p, &cfg).unwrap();
    let recorder = MemoryRecorder::default();
    let req = RecallRequest::recorded(&recorder);
    let eval = module.evaluate_query_request(&inputs[0], &req).unwrap();
    module.select_winner_request(eval, &req).unwrap();
    assert_eq!(span_series(&recorder), module_series(1, 0), "fragment");

    // Three segment modules.
    let mut part = PartitionedAmm::build(&p, 3, &cfg).unwrap();
    let recorder = MemoryRecorder::default();
    part.recall_request(&inputs[0], &RecallRequest::recorded(&recorder))
        .unwrap();
    assert_eq!(span_series(&recorder), module_series(3, 1), "partitioned");

    // The top module, then the chosen cluster's member module.
    let hp = patterns(6, 12);
    let mut hier = HierarchicalAmm::build(&hp, 2, &cfg).unwrap();
    let recorder = MemoryRecorder::default();
    hier.recall_request(&queries(&hp, 1)[0], &RecallRequest::recorded(&recorder))
        .unwrap();
    assert_eq!(span_series(&recorder), module_series(2, 1), "hierarchical");

    // Two tiles, and a result equal to the silent recall's.
    let want = TiledAmm::build(&p, 2, &cfg)
        .unwrap()
        .recall(&inputs[0])
        .unwrap();
    let mut pool = TiledAmm::build(&p, 2, &cfg).unwrap();
    let recorder = MemoryRecorder::default();
    let got = pool
        .recall_request(&inputs[0], &RecallRequest::recorded(&recorder))
        .unwrap();
    assert_eq!(got, want);
    assert_eq!(span_series(&recorder), module_series(2, 1), "tiled");

    // An engine times each query's evaluate and select once, around the
    // module's stage series, and reports each worker's utilization.
    let recorder = Arc::new(MemoryRecorder::default());
    let module = AssociativeMemoryModule::build(&p, &cfg).unwrap();
    let engine = RecallEngine::with_recorder(
        Deployment::Flat(module),
        &EngineConfig {
            workers: 2,
            queue_capacity: 4,
        },
        recorder.clone(),
    );
    engine.recall_many(&inputs).unwrap();
    engine.shutdown();
    assert_eq!(
        span_series(&recorder),
        series(&[
            ("crossbar.restamp_ns", 3),
            ("engine.select", 3),
            ("engine.settle", 3),
            ("recall.convert", 3),
            ("recall.drive", 3),
            ("recall.select", 3),
            ("recall.settle", 3),
        ]),
        "engine"
    );
    let gauges = recorder.snapshot().gauges;
    assert!(
        (0..2).any(|i| gauges.contains_key(&format!("engine.worker.{i}.utilization"))),
        "{gauges:?}"
    );
}
