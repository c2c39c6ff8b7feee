//! Engine-throughput benchmark: the sharded recall service vs a sequential
//! recall loop over the same partitioned deployment, at one and four
//! workers. Worker scaling is bounded by host parallelism (the study's
//! `host_cpus` context field); the invariant the engine is allowed to claim
//! everywhere is bit-identity, which the determinism suite gates.

use criterion::{criterion_group, criterion_main, Criterion};
use spinamm_core::partition::PartitionedAmm;
use spinamm_core::{AmmConfig, Fidelity};
use spinamm_engine::{Deployment, EngineConfig, RecallEngine};
use std::hint::black_box;

const ROWS: usize = 64;
const COLS: usize = 16;
const SHARDS: usize = 4;
const QUERIES: usize = 8;

fn deployment() -> Deployment {
    let patterns: Vec<Vec<u32>> = (0..COLS)
        .map(|j| (0..ROWS).map(|i| ((i * 5 + j * 3) % 32) as u32).collect())
        .collect();
    let cfg = AmmConfig {
        fidelity: Fidelity::Parasitic,
        ..AmmConfig::default()
    };
    Deployment::Partitioned(PartitionedAmm::build(&patterns, SHARDS, &cfg).unwrap())
}

fn queries() -> Vec<Vec<u32>> {
    (0..QUERIES)
        .map(|q| (0..ROWS).map(|i| ((i * 7 + q * 11) % 32) as u32).collect())
        .collect()
}

fn bench_engine_throughput(c: &mut Criterion) {
    let inputs = queries();
    let mut group = c.benchmark_group("engine_throughput");
    group.sample_size(5);

    let mut sequential = deployment();
    group.bench_function("sequential_64x16_4shards_8q", |b| {
        b.iter(|| {
            for input in &inputs {
                black_box(sequential.recall(input).unwrap());
            }
        });
    });

    for workers in [1usize, 4] {
        let engine = RecallEngine::new(
            deployment(),
            &EngineConfig::builder()
                .workers(workers)
                .queue_capacity(QUERIES)
                .build(),
        );
        group.bench_function(format!("engine_{workers}w_64x16_4shards_8q"), |b| {
            b.iter(|| black_box(engine.recall_many(&inputs).unwrap()));
        });
        engine.shutdown();
    }

    group.finish();
}

criterion_group!(benches, bench_engine_throughput);
criterion_main!(benches);
