//! Engine-level tracing contract: attaching a [`Tracer`] via
//! `with_observability` must leave every response bit-identical, produce
//! one `"engine.recall"` trace per submission with queue/evaluate/select
//! attribution, and keep the queue-depth gauge honest after the drain.

use std::sync::Arc;

use spinamm_core::amm::{AmmConfig, AssociativeMemoryModule, Fidelity};
use spinamm_core::capacity::TiledAmm;
use spinamm_core::hierarchy::HierarchicalAmm;
use spinamm_core::partition::PartitionedAmm;
use spinamm_engine::{Deployment, EngineConfig, RecallEngine};
use spinamm_telemetry::MemoryRecorder;
use spinamm_trace::{TraceConfig, Tracer};

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

fn traced_engine(deployment: Deployment, workers: usize) -> (RecallEngine, Arc<Tracer>) {
    let tracer = Arc::new(Tracer::new(&TraceConfig::default()));
    let engine = RecallEngine::with_observability(
        deployment,
        &EngineConfig::builder()
            .workers(workers)
            .queue_capacity(4)
            .build(),
        Arc::new(MemoryRecorder::default()),
        Some(Arc::clone(&tracer)),
    );
    (engine, tracer)
}

#[test]
fn traced_flat_engine_is_bit_identical_with_full_span_coverage() {
    let p = patterns(4, 12);
    let cfg = AmmConfig {
        fidelity: Fidelity::Driven,
        ..AmmConfig::default()
    };
    let module = AssociativeMemoryModule::build(&p, &cfg).unwrap();
    let mut sequential = Deployment::Flat(module.clone());
    let inputs = queries(&p, 10);

    let (engine, tracer) = traced_engine(Deployment::Flat(module), 3);
    let got = engine.recall_many(&inputs).unwrap();
    engine.shutdown();
    for (q, response) in inputs.iter().zip(&got) {
        assert_eq!(*response, sequential.recall(q).unwrap());
    }

    assert_eq!(tracer.request_count(), inputs.len() as u64);
    assert_eq!(tracer.sampled_count(), inputs.len() as u64);
    assert_eq!(tracer.latency().count(), inputs.len() as u64);
    let traces = tracer.traces();
    assert_eq!(traces.len(), inputs.len());
    for trace in &traces {
        assert_eq!(trace.kind, "engine.recall");
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name).collect();
        assert!(names.contains(&"queue_wait"), "{names:?}");
        assert!(names.contains(&"evaluate"), "{names:?}");
        assert!(names.contains(&"select"), "{names:?}");
        // The evaluate phase carries worker attribution and nests the
        // module's own drive/settle spans beneath it.
        let eval = trace.spans.iter().find(|s| s.name == "evaluate").unwrap();
        assert!(eval.attrs.iter().any(|&(k, _)| k == "worker"));
        assert!(names.contains(&"settle"), "{names:?}");
    }
}

#[test]
fn traced_partitioned_engine_records_shard_spans() {
    let p = patterns(4, 12);
    let cfg = AmmConfig::default();
    let part = PartitionedAmm::build(&p, 3, &cfg).unwrap();
    let mut sequential = Deployment::Partitioned(part.clone());
    let inputs = queries(&p, 8);

    let (engine, tracer) = traced_engine(Deployment::Partitioned(part), 2);
    let got = engine.recall_many(&inputs).unwrap();
    engine.shutdown();
    for (q, response) in inputs.iter().zip(&got) {
        assert_eq!(*response, sequential.recall(q).unwrap());
    }

    let traces = tracer.traces();
    assert_eq!(traces.len(), inputs.len());
    for trace in &traces {
        let settles = trace
            .spans
            .iter()
            .filter(|s| s.name == "shard.settle")
            .count();
        assert_eq!(settles, 3, "one settle span per shard");
        assert!(trace.spans.iter().any(|s| s.name == "shard.select"));
    }
}

#[test]
fn traced_hierarchical_engine_covers_both_stages() {
    let p = patterns(6, 12);
    let cfg = AmmConfig::default();
    let hier = HierarchicalAmm::build(&p, 2, &cfg).unwrap();
    let mut sequential = Deployment::Hierarchical(hier.clone());
    let inputs = queries(&p, 8);

    let (engine, tracer) = traced_engine(Deployment::Hierarchical(hier), 3);
    let got = engine.recall_many(&inputs).unwrap();
    engine.shutdown();
    for (q, response) in inputs.iter().zip(&got) {
        assert_eq!(*response, sequential.recall(q).unwrap());
    }

    for trace in &tracer.traces() {
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name).collect();
        // One queue hop: the worker evaluates the top module, and the
        // sequencer's select evaluates and selects the chosen member.
        let hops = names.iter().filter(|&&n| n == "queue_wait").count();
        assert_eq!(hops, 1, "{names:?}");
        assert!(names.contains(&"evaluate"), "{names:?}");
        assert!(names.contains(&"evaluate.member"), "{names:?}");
        assert!(names.contains(&"select"), "{names:?}");
        assert!(names.contains(&"select.member"), "{names:?}");
        let member = trace
            .spans
            .iter()
            .find(|s| s.name == "select.member")
            .unwrap();
        assert!(member.attrs.iter().any(|&(k, _)| k == "cluster"));
    }
}

#[test]
fn queue_gauges_recover_after_drain_and_wait_histogram_fills() {
    let p = patterns(4, 12);
    let module = AssociativeMemoryModule::build(&p, &AmmConfig::default()).unwrap();
    let recorder = Arc::new(MemoryRecorder::default());
    let engine = RecallEngine::with_recorder(
        Deployment::Flat(module),
        &EngineConfig::builder().workers(2).queue_capacity(3).build(),
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

#[test]
fn engine_without_tracer_records_no_traces() {
    let p = patterns(3, 10);
    let module = AssociativeMemoryModule::build(&p, &AmmConfig::default()).unwrap();
    let engine = RecallEngine::new(
        Deployment::Flat(module),
        &EngineConfig::builder().workers(2).queue_capacity(2).build(),
    );
    let inputs = queries(&p, 4);
    engine.recall_many(&inputs).unwrap();
    engine.shutdown();
    // Nothing to assert beyond "no panic": the default engine carries no
    // tracer and the disabled-handle paths must all be inert.
}

/// Span trees and recorder series the observability surface promises:
/// exact `(depth, name)` sequences per entry point, and the span series
/// a fragment caller (evaluate + select) reads from its recorder.
#[test]
fn span_trees_and_series_names_are_pinned() {
    use spinamm_core::request::RecallRequest;

    let module_tree = |fidelity: Fidelity| -> Vec<(u16, &'static str)> {
        if fidelity == Fidelity::Parasitic {
            vec![
                (0, "drive"),
                (0, "settle"),
                (1, "restamp"),
                (1, "solve"),
                (0, "convert"),
                (0, "select"),
            ]
        } else {
            vec![(0, "drive"), (0, "settle"), (0, "convert"), (0, "select")]
        }
    };
    let at = |fidelity: Fidelity| AmmConfig {
        fidelity,
        ..AmmConfig::default()
    };
    let p = patterns(4, 12);
    let inputs = queries(&p, 3);

    for fidelity in [Fidelity::Ideal, Fidelity::Driven, Fidelity::Parasitic] {
        let mut module = AssociativeMemoryModule::build(&p, &at(fidelity)).unwrap();
        let tracer = Tracer::new(&TraceConfig::default());
        let req = RecallRequest::DEFAULT.with_tracer(&tracer);
        module.recall_request(&inputs[0], &req).unwrap();
        let traces = tracer.traces();
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].kind, "recall");
        assert_eq!(traces[0].structure(), module_tree(fidelity), "{fidelity:?}");

        let tracer = Tracer::new(&TraceConfig::default());
        let req = RecallRequest::DEFAULT.with_tracer(&tracer).with_workers(2);
        module.recall_batch_request(&inputs, &req).unwrap();
        let traces = tracer.traces();
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].kind, "recall.batch");
        let mut want = module_tree(fidelity);
        want.retain(|&span| span != (0, "convert"));
        assert_eq!(traces[0].structure(), want, "{fidelity:?} batch");
    }

    let cfg = at(Fidelity::Parasitic);
    let engine_trees = |deployment: Deployment, inputs: &[Vec<u32>]| {
        let (engine, tracer) = traced_engine(deployment, 2);
        engine.recall_many(inputs).unwrap();
        engine.shutdown();
        let traces = tracer.traces();
        assert_eq!(traces.len(), inputs.len());
        assert!(traces.iter().all(|t| t.kind == "engine.recall"));
        traces.iter().map(|t| t.structure()).collect::<Vec<_>>()
    };
    let flat = vec![
        (0, "queue_wait"),
        (0, "evaluate"),
        (1, "drive"),
        (1, "settle"),
        (2, "restamp"),
        (2, "solve"),
        (0, "select"),
        (1, "convert"),
        (1, "select"),
    ];
    let module = AssociativeMemoryModule::build(&p, &cfg).unwrap();
    for tree in engine_trees(Deployment::Flat(module), &inputs) {
        assert_eq!(tree, flat);
    }

    let mut partitioned = vec![(0, "queue_wait"), (0, "evaluate")];
    partitioned.extend([(1, "shard.settle"); 3]);
    partitioned.push((0, "select"));
    partitioned.extend([(1, "shard.select"); 3]);
    let part = PartitionedAmm::build(&p, 3, &cfg).unwrap();
    for tree in engine_trees(Deployment::Partitioned(part), &inputs) {
        assert_eq!(tree, partitioned);
    }

    let mut hierarchical = flat.clone();
    hierarchical.extend([
        (1, "evaluate.member"),
        (2, "drive"),
        (2, "settle"),
        (3, "restamp"),
        (3, "solve"),
        (1, "select.member"),
        (2, "convert"),
        (2, "select"),
    ]);
    let hp = patterns(6, 12);
    let mut hier = HierarchicalAmm::build(&hp, 2, &cfg).unwrap();
    for tree in engine_trees(Deployment::Hierarchical(hier.clone()), &queries(&hp, 3)) {
        assert_eq!(tree, hierarchical);
    }

    // A direct composite recall is one "recall" trace whose tree is the
    // engine's for that kind without the queue_wait/evaluate/select
    // wrappers: each wrapper's children move up one level. The flat kind
    // shows the relation holds for the module's own recall.
    let unwrapped = |tree: &[(u16, &'static str)]| -> Vec<(u16, &'static str)> {
        let mut out = Vec::new();
        let mut wrapper = false;
        for &(depth, name) in tree {
            if depth == 0 {
                wrapper = matches!(name, "queue_wait" | "evaluate" | "select");
            }
            match (wrapper, depth) {
                (false, _) => out.push((depth, name)),
                (true, 0) => {}
                (true, _) => out.push((depth - 1, name)),
            }
        }
        out
    };
    assert_eq!(unwrapped(&flat), module_tree(Fidelity::Parasitic));
    let tracer = Tracer::new(&TraceConfig::default());
    let req = RecallRequest::DEFAULT.with_tracer(&tracer);
    let mut part = PartitionedAmm::build(&p, 3, &cfg).unwrap();
    part.recall_request(&inputs[0], &req).unwrap();
    hier.recall_request(&queries(&hp, 1)[0], &req).unwrap();
    let traces = tracer.traces();
    assert_eq!(traces.len(), 2);
    assert!(traces.iter().all(|t| t.kind == "recall"));
    assert_eq!(traces[0].structure(), unwrapped(&partitioned));
    assert_eq!(traces[1].structure(), unwrapped(&hierarchical));

    // A direct tiled recall is one "recall" trace and one `recall.total`
    // sample: every tile's drive and settle, then every tile's convert
    // and select. Its result is the untraced recall's, bit for bit.
    let mut pool = TiledAmm::build(&p, 2, &cfg).unwrap();
    let want = pool.clone().recall(&inputs[0]).unwrap();
    let tracer = Tracer::new(&TraceConfig::default());
    let recorder = MemoryRecorder::default();
    let req = RecallRequest::recorded(&recorder).with_tracer(&tracer);
    assert_eq!(pool.recall_request(&inputs[0], &req).unwrap(), want);
    let traces = tracer.traces();
    assert_eq!(traces.len(), 1);
    assert_eq!(traces[0].kind, "recall");
    let module = module_tree(Fidelity::Parasitic);
    let (evaluate, select) = module.split_at(4);
    let tiled = [evaluate, evaluate, select, select].concat();
    assert_eq!(traces[0].structure(), tiled);
    let total = recorder
        .snapshot()
        .span_stats("recall.total")
        .map(|s| s.count);
    assert_eq!(total, Some(1));

    // The fragment path a benchmark times: evaluate + select on a module
    // built without the recorder, so the kernel compiles inside it.
    let mut module = AssociativeMemoryModule::build(&p, &cfg).unwrap();
    let recorder = MemoryRecorder::default();
    let req = RecallRequest::recorded(&recorder);
    let eval = module.evaluate_query_request(&inputs[0], &req).unwrap();
    module.select_winner_request(eval, &req).unwrap();
    let snap = recorder.snapshot();
    let series: Vec<(&str, u64)> = snap
        .spans
        .iter()
        .map(|(name, series)| (name.as_str(), series.count()))
        .collect();
    assert_eq!(
        series,
        [
            ("crossbar.restamp_ns", 1),
            ("plan.compile", 1),
            ("recall.convert", 1),
            ("recall.drive", 1),
            ("recall.select", 1),
            ("recall.settle", 1),
        ]
    );
    assert!(snap.span_stats("recall.total").is_none());

    let recorder = Arc::new(MemoryRecorder::default());
    let module = AssociativeMemoryModule::build(&p, &cfg).unwrap();
    let engine = RecallEngine::with_recorder(
        Deployment::Flat(module),
        &EngineConfig::builder().workers(2).queue_capacity(4).build(),
        recorder.clone(),
    );
    engine.recall_many(&inputs).unwrap();
    engine.shutdown();
    let gauges = recorder.snapshot().gauges;
    assert!(
        (0..2).any(|i| gauges.contains_key(&format!("engine.worker.{i}.utilization"))),
        "{gauges:?}"
    );
}
