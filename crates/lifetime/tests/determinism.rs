//! The scheduler's headline contract: a virtual-time schedule is a pure
//! function of (module seed, scheduler seed, schedule). Engine worker
//! count, advance-call granularity and whether traffic is served at all
//! never change a refresh decision, a pulse count or a worn-cell
//! conversion, and worker count and granularity never change a served
//! response.

use proptest::prelude::*;
use spinamm_circuit::units::Seconds;
use spinamm_core::{AmmConfig, AssociativeMemoryModule};
use spinamm_engine::{Deployment, EngineConfig, EngineResponse, RecallEngine};
use spinamm_lifetime::{LifetimeStats, MaintenanceConfig, MaintenanceEvent, MaintenanceScheduler};
use spinamm_memristor::DriftModel;

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

/// One full lifetime trace: maintenance windows at a given advance
/// granularity, each followed by an engine traffic window served on a
/// clone of the scheduler's module at `workers` threads — or by no window
/// at all when `workers` is `None`.
struct Trace {
    responses: Vec<EngineResponse>,
    stats: LifetimeStats,
    log: Vec<MaintenanceEvent>,
    conductances: Vec<Vec<spinamm_circuit::units::Siemens>>,
}

fn run_schedule(
    amm_seed: u64,
    sched_seed: u64,
    workers: Option<usize>,
    substeps: usize,
    max_cycles: Option<u64>,
) -> Trace {
    let p = patterns(4, 12);
    let module = AssociativeMemoryModule::build(
        &p,
        &AmmConfig {
            seed: amm_seed,
            spare_columns: 2,
            input_mismatch: false,
            ..AmmConfig::default()
        },
    )
    .unwrap();
    let config = MaintenanceConfig {
        check_period: Seconds(50.0),
        margin_budget_lsb: 1.0,
        max_cycles,
        seed: sched_seed,
        ..MaintenanceConfig::new(DriftModel::AGGRESSIVE)
    };
    let mut sched = MaintenanceScheduler::new(module, config).unwrap();

    let inputs = queries(&p, 7);
    let mut responses = Vec::new();
    // Three maintenance windows, each followed by a traffic window.
    for window in 1..=3 {
        let target = 4.0e3 * f64::from(window);
        let start = sched.now().0;
        for step in 1..=substeps {
            #[allow(clippy::cast_precision_loss)]
            let t = start + (target - start) * (step as f64 / substeps as f64);
            sched.advance_to(Seconds(t)).unwrap();
        }
        if let Some(workers) = workers {
            let engine = RecallEngine::new(
                Deployment::Flat(sched.module().clone()),
                &EngineConfig {
                    workers,
                    ..EngineConfig::default()
                },
            );
            responses.extend(engine.recall_many(&inputs).unwrap());
            engine.shutdown();
        }
    }
    Trace {
        responses,
        stats: sched.stats(),
        log: sched.log().to_vec(),
        conductances: sched.module().array().conductance_matrix(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Same seeds + same virtual-time schedule ⇒ bit-identical refresh
    /// decisions, pulse counts, conductances and served responses, at any
    /// worker count and advance granularity. A schedule that serves no
    /// traffic at all leaves the same stats, log and conductances: serving
    /// a clone takes nothing from the scheduler's module.
    #[test]
    fn schedule_is_deterministic_across_workers_and_granularity(
        amm_seed in any::<u64>(),
        sched_seed in any::<u64>(),
        workers in 2usize..=4,
        substeps in 2usize..=5,
        endurance in any::<bool>(),
        serve in any::<bool>(),
    ) {
        let max_cycles = endurance.then_some(60);
        let a = run_schedule(amm_seed, sched_seed, Some(1), 1, max_cycles);
        let b = run_schedule(amm_seed, sched_seed, serve.then_some(workers), substeps, max_cycles);
        prop_assert_eq!(a.stats, b.stats);
        prop_assert_eq!(a.log, b.log);
        if serve {
            prop_assert_eq!(a.responses, b.responses);
        }
        prop_assert_eq!(a.conductances, b.conductances);
    }
}
