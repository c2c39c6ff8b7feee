//! Recall-throughput benchmark for the reusable-solver-state work: repeated
//! parasitic evaluations of a paper-scale 128×40 crossbar, cold (netlist
//! rebuilt and refactored per query) vs cached (netlist restamped, with the
//! IC(0) preconditioner and warm starts reused), plus the end-to-end
//! sequential vs batched recall path of the full module.
//!
//! The cached/cold ratio printed at the end is the headline number: the
//! session cache must make repeated parasitic recalls several times faster
//! than rebuilding the network every query.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spinamm_circuit::units::{Siemens, Volts};
use spinamm_core::{AmmConfig, AssociativeMemoryModule, Fidelity, RecallRequest};
use spinamm_crossbar::{
    CachedParasiticCrossbar, CrossbarArray, CrossbarGeometry, ParasiticCrossbar, RowDrive,
};
use spinamm_memristor::{DeviceLimits, LevelMap, WriteScheme};
use spinamm_trace::{TraceConfig, Tracer};
use std::hint::black_box;
use std::time::Instant;

const ROWS: usize = 128;
const COLS: usize = 40;
const QUERIES: usize = 4;

fn paper_array() -> CrossbarArray {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let map = LevelMap::new(DeviceLimits::PAPER, 5).unwrap();
    let scheme = WriteScheme::paper();
    let mut array = CrossbarArray::new(ROWS, COLS, DeviceLimits::PAPER).unwrap();
    for j in 0..COLS {
        let levels: Vec<u32> = (0..ROWS).map(|i| ((i * 5 + j * 3) % 32) as u32).collect();
        array
            .program_pattern(j, &levels, &map, &scheme, &mut rng)
            .unwrap();
    }
    array.equalize_rows(None).unwrap();
    array
}

/// Distinct DTCS-style drive vectors, one per query, spanning the DAC's
/// conductance range so every query restamps every row.
fn query_drives() -> Vec<Vec<RowDrive>> {
    (0..QUERIES)
        .map(|q| {
            (0..ROWS)
                .map(|i| RowDrive::SourceConductance {
                    g: Siemens(1.0e-4 + ((i * 31 + q * 17) % 97) as f64 * 2.0e-6),
                    supply: Volts(0.03),
                })
                .collect()
        })
        .collect()
}

fn bench_recall_throughput(c: &mut Criterion) {
    let array = paper_array();
    let drives = query_drives();
    let mut group = c.benchmark_group("recall_throughput");
    group.sample_size(5);

    let cold = ParasiticCrossbar::new(CrossbarGeometry::PAPER);
    group.bench_function("cold_parasitic_128x40_4q", |b| {
        b.iter(|| {
            for d in &drives {
                black_box(cold.evaluate(&array, d).unwrap());
            }
        });
    });

    group.bench_function("cached_parasitic_128x40_4q", |b| {
        let mut cached = CachedParasiticCrossbar::new(CrossbarGeometry::PAPER);
        cached.evaluate(&array, &drives[0]).unwrap();
        b.iter(|| {
            for d in &drives {
                black_box(cached.evaluate(&array, d).unwrap());
            }
        });
    });

    // Headline ratio: one timed pass each, cache pre-warmed, same queries.
    let cold_start = Instant::now();
    for d in &drives {
        black_box(cold.evaluate(&array, d).unwrap());
    }
    let cold_time = cold_start.elapsed();
    let mut cached = CachedParasiticCrossbar::new(CrossbarGeometry::PAPER);
    cached.evaluate(&array, &drives[0]).unwrap();
    let cached_start = Instant::now();
    for d in &drives {
        black_box(cached.evaluate(&array, d).unwrap());
    }
    let cached_time = cached_start.elapsed();
    println!(
        "recall_throughput/speedup               cached {:.3?} vs cold {:.3?} -> {:.1}x",
        cached_time,
        cold_time,
        cold_time.as_secs_f64() / cached_time.as_secs_f64().max(1e-12),
    );

    // End-to-end module path: sequential recalls vs one batched call.
    let patterns: Vec<Vec<u32>> = (0..COLS)
        .map(|j| (0..ROWS).map(|i| ((i * 5 + j * 3) % 32) as u32).collect())
        .collect();
    let inputs: Vec<Vec<u32>> = (0..8)
        .map(|q| (0..ROWS).map(|i| ((i * 7 + q * 11) % 32) as u32).collect())
        .collect();
    let cfg = AmmConfig {
        fidelity: Fidelity::Parasitic,
        ..AmmConfig::default()
    };
    let mut amm = AssociativeMemoryModule::build(&patterns, &cfg).unwrap();
    group.bench_function("amm_sequential_128x40_8q", |b| {
        b.iter(|| {
            for input in &inputs {
                black_box(amm.recall(input).unwrap());
            }
        });
    });
    let mut amm = AssociativeMemoryModule::build(&patterns, &cfg).unwrap();
    group.bench_function("amm_batch_128x40_8q", |b| {
        b.iter(|| black_box(amm.recall_batch(&inputs).unwrap()));
    });

    // Driven fidelity, the geometry where the flat correlate dominates:
    // module recall (the compiled kernel) vs the interpreted oracle.
    let driven_cfg = AmmConfig {
        fidelity: Fidelity::Driven,
        ..AmmConfig::default()
    };
    let mut driven = AssociativeMemoryModule::build(&patterns, &driven_cfg).unwrap();
    group.bench_function("amm_driven_sequential_128x40_8q", |b| {
        b.iter(|| {
            for input in &inputs {
                black_box(driven.recall(input).unwrap());
            }
        });
    });
    let mut driven_oracle = AssociativeMemoryModule::build(&patterns, &driven_cfg).unwrap();
    group.bench_function("amm_driven_oracle_128x40_8q", |b| {
        b.iter(|| {
            for input in &inputs {
                black_box(
                    driven_oracle
                        .oracle_recall_request(input, &RecallRequest::DEFAULT)
                        .unwrap(),
                );
            }
        });
    });

    // Headline kernel ratios, measured interleaved min-of-N so the compared
    // passes see the same thermal/scheduling environment: each round times
    // every variant back to back, and each side keeps its best round.
    // `plan_speedup` — oracle vs kernel at driven fidelity, where the flat
    // kernel is the whole query — is the number the regression gate pins
    // ≥ 5×. The parasitic ratio is printed too and honestly hovers near
    // 1×: both sides share the cached Cholesky/CG solve, which dominates
    // that fidelity.
    const ROUNDS: usize = 7;
    let req = RecallRequest::DEFAULT;
    let mut kernel = AssociativeMemoryModule::build(&patterns, &cfg).unwrap();
    let mut oracle = AssociativeMemoryModule::build(&patterns, &cfg).unwrap();
    kernel.recall(&inputs[0]).unwrap(); // warm the parasitic sessions
    oracle.oracle_recall_request(&inputs[0], &req).unwrap();
    let mut best = [f64::MAX; 4];
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        for input in &inputs {
            black_box(oracle.oracle_recall_request(input, &req).unwrap());
        }
        best[0] = best[0].min(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        for input in &inputs {
            black_box(kernel.recall(input).unwrap());
        }
        best[1] = best[1].min(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        for input in &inputs {
            black_box(driven_oracle.oracle_recall_request(input, &req).unwrap());
        }
        best[2] = best[2].min(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        for input in &inputs {
            black_box(driven.recall(input).unwrap());
        }
        best[3] = best[3].min(t0.elapsed().as_secs_f64());
    }
    println!(
        "recall_throughput/plan_speedup          kernel {:.3e}s vs oracle {:.3e}s (driven) -> {:.1}x",
        best[3],
        best[2],
        best[2] / best[3].max(1e-12),
    );
    println!(
        "recall_throughput/plan_parasitic_speedup kernel {:.3e}s vs oracle {:.3e}s (solve-bound) -> {:.2}x",
        best[1],
        best[0],
        best[0] / best[1].max(1e-12),
    );

    // Tracing overhead: the same sequential recalls with a disabled tracer
    // (the production default — must be free) and with a sample-everything
    // tracer (the profiling configuration — small bounded cost).
    let noop = Tracer::disabled();
    let mut amm = AssociativeMemoryModule::build(&patterns, &cfg).unwrap();
    group.bench_function("amm_sequential_noop_traced_128x40_8q", |b| {
        let req = RecallRequest::DEFAULT.with_tracer(&noop);
        b.iter(|| {
            for input in &inputs {
                black_box(amm.recall_request(input, &req).unwrap());
            }
        });
    });
    let sampled = Tracer::new(&TraceConfig::default());
    let mut amm = AssociativeMemoryModule::build(&patterns, &cfg).unwrap();
    group.bench_function("amm_sequential_traced_128x40_8q", |b| {
        let req = RecallRequest::DEFAULT.with_tracer(&sampled);
        b.iter(|| {
            for input in &inputs {
                black_box(amm.recall_request(input, &req).unwrap());
            }
        });
    });

    group.finish();
}

criterion_group!(benches, bench_recall_throughput);
criterion_main!(benches);
