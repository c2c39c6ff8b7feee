//! The engine's headline contract: for every deployment kind, worker
//! count, queue capacity, and thread interleaving, responses are
//! bit-identical to sequential recalls in submission order.

use proptest::prelude::*;
use spinamm_core::amm::{AmmConfig, AssociativeMemoryModule, Fidelity};
use spinamm_core::capacity::TiledAmm;
use spinamm_core::degrade::DegradationPolicy;
use spinamm_core::hierarchy::HierarchicalAmm;
use spinamm_core::partition::PartitionedAmm;
use spinamm_engine::{Deployment, EngineConfig, EngineResponse, RecallEngine};
use spinamm_faults::{FaultMap, FaultModel};

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
    // Stored patterns plus slightly perturbed variants, cycled.
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

fn config(fidelity: Fidelity) -> AmmConfig {
    AmmConfig {
        fidelity,
        ..AmmConfig::default()
    }
}

/// Runs the same queries through the engine and a sequential clone and
/// asserts bit identity, response by response.
fn assert_engine_matches_sequential(
    deployment: Deployment,
    engine_config: &EngineConfig,
    inputs: &[Vec<u32>],
) {
    let mut sequential = deployment.clone();
    let engine = RecallEngine::new(deployment, engine_config);
    let got = engine.recall_many(inputs).unwrap();
    engine.shutdown();
    let want: Vec<EngineResponse> = inputs
        .iter()
        .map(|q| sequential.recall(q).unwrap())
        .collect();
    assert_eq!(got, want);
}

#[test]
fn flat_driven_engine_is_bit_identical() {
    let p = patterns(4, 12);
    let module = AssociativeMemoryModule::build(&p, &config(Fidelity::Driven)).unwrap();
    assert_engine_matches_sequential(
        Deployment::Flat(module),
        &EngineConfig::builder().workers(4).queue_capacity(3).build(),
        &queries(&p, 12),
    );
}

#[test]
fn duplicated_template_ties_break_to_lowest_index_through_engine() {
    // The engine's select phase must apply the same lowest-index tie-break
    // as a sequential recall: with an exact duplicate of template 0 stored
    // in the last column, concurrent recalls of template 0 never report
    // the duplicate unless it strictly out-scores the original.
    let mut p = patterns(3, 12);
    p.push(p[0].clone());
    let dup = p.len() - 1;
    let inputs: Vec<Vec<u32>> = (0..8).map(|_| p[0].clone()).collect();
    let mut tie_seen = false;
    for seed in 0..12u64 {
        let cfg = AmmConfig {
            seed,
            ..config(Fidelity::Driven)
        };
        let module = AssociativeMemoryModule::build(&p, &cfg).unwrap();
        let mut sequential = Deployment::Flat(module.clone());
        let engine = RecallEngine::new(
            Deployment::Flat(module),
            &EngineConfig::builder().workers(3).queue_capacity(2).build(),
        );
        let got = engine.recall_many(&inputs).unwrap();
        engine.shutdown();
        for (q, response) in inputs.iter().zip(&got) {
            let want = sequential.recall(q).unwrap();
            assert_eq!(*response, want, "seed {seed}");
            if let EngineResponse::Flat(r) = response {
                if r.codes[0] == r.codes[dup] {
                    tie_seen = true;
                    assert_eq!(r.raw_winner, 0, "seed {seed}: tie must go to index 0");
                }
            }
        }
    }
    assert!(tie_seen, "no seed produced an exact duplicate tie");
}

#[test]
fn partitioned_driven_engine_is_bit_identical() {
    let p = patterns(4, 12);
    let part = PartitionedAmm::build(&p, 3, &config(Fidelity::Driven)).unwrap();
    assert_engine_matches_sequential(
        Deployment::Partitioned(part),
        &EngineConfig::builder().workers(3).queue_capacity(2).build(),
        &queries(&p, 10),
    );
}

#[test]
fn hierarchical_driven_engine_is_bit_identical() {
    let p = patterns(6, 12);
    let hier = HierarchicalAmm::build(&p, 2, &config(Fidelity::Driven)).unwrap();
    assert_engine_matches_sequential(
        Deployment::Hierarchical(hier),
        &EngineConfig::builder().workers(4).queue_capacity(2).build(),
        &queries(&p, 12),
    );
}

#[test]
fn partitioned_parasitic_engine_is_bit_identical() {
    // Parasitic mode exercises the cached-netlist solver sessions: worker
    // clones warm-started at build must reproduce the master's solves, with
    // one worker as with several.
    let p = patterns(3, 10);
    let part = PartitionedAmm::build(&p, 2, &config(Fidelity::Parasitic)).unwrap();
    for workers in [1, 2, 4] {
        assert_engine_matches_sequential(
            Deployment::Partitioned(part.clone()),
            &EngineConfig::builder()
                .workers(workers)
                .queue_capacity(4)
                .build(),
            &queries(&p, 6),
        );
    }
}

#[test]
fn fault_injected_engine_is_bit_identical() {
    // Faults injected before deployment re-warm the session, so clones
    // taken by the engine inherit the post-fault solver state.
    let p = patterns(3, 10);
    let model = FaultModel {
        spread_sigma: 0.05,
        ..FaultModel::stuck(0.1).unwrap()
    };
    let map = FaultMap::sample(&model, 10, p.len() + 1, 77).unwrap();
    let cfg = AmmConfig {
        spare_columns: 1,
        fidelity: Fidelity::Parasitic,
        ..AmmConfig::default()
    };
    let mut module = AssociativeMemoryModule::build(&p, &cfg).unwrap();
    module
        .inject_faults(map, &DegradationPolicy::default())
        .unwrap();
    assert_engine_matches_sequential(
        Deployment::Flat(module),
        &EngineConfig::builder().workers(3).queue_capacity(2).build(),
        &queries(&p, 8),
    );
}

#[test]
fn plan_enabled_engine_is_bit_identical() {
    // Workers evaluate through the modules' compiled kernels, shared with
    // the master; responses must not change — across every deployment
    // kind and both analytic and parasitic fidelities. The hierarchical
    // case also evaluates its member modules on the master's solver
    // sessions.
    let p = patterns(4, 12);
    for fidelity in [Fidelity::Ideal, Fidelity::Driven, Fidelity::Parasitic] {
        let module = AssociativeMemoryModule::build(&p, &config(fidelity)).unwrap();
        assert_engine_matches_sequential(
            Deployment::Flat(module),
            &EngineConfig::builder().workers(3).queue_capacity(2).build(),
            &queries(&p, 9),
        );
        let part = PartitionedAmm::build(&p, 3, &config(fidelity)).unwrap();
        assert_engine_matches_sequential(
            Deployment::Partitioned(part),
            &EngineConfig::builder().workers(2).queue_capacity(3).build(),
            &queries(&p, 6),
        );
        let hier = HierarchicalAmm::build(&p, 2, &config(fidelity)).unwrap();
        assert_engine_matches_sequential(
            Deployment::Hierarchical(hier),
            &EngineConfig::builder().workers(2).queue_capacity(3).build(),
            &queries(&p, 6),
        );
        let tiled = TiledAmm::build(&p, 2, &config(fidelity))
            .unwrap()
            .with_top_k(2)
            .unwrap();
        assert_engine_matches_sequential(
            Deployment::Tiled(tiled),
            &EngineConfig::builder().workers(2).queue_capacity(3).build(),
            &queries(&p, 6),
        );
    }
}

#[test]
fn draining_answers_every_accepted_query() {
    // Stopping the engine drains its one queue: queries submitted without
    // waiting are all answered, for every deployment kind, and the
    // recovered deployment's RNG state matches the answered traffic.
    let p = patterns(6, 12);
    let cfg = config(Fidelity::Driven);
    let kinds = [
        (
            "flat",
            Deployment::Flat(AssociativeMemoryModule::build(&p, &cfg).unwrap()),
        ),
        (
            "partitioned",
            Deployment::Partitioned(PartitionedAmm::build(&p, 3, &cfg).unwrap()),
        ),
        (
            "hierarchical",
            Deployment::Hierarchical(HierarchicalAmm::build(&p, 2, &cfg).unwrap()),
        ),
        (
            "tiled",
            Deployment::Tiled(TiledAmm::build(&p, 2, &cfg).unwrap().with_top_k(2).unwrap()),
        ),
    ];
    let inputs = queries(&p, 24);
    for (kind, deployment) in kinds {
        for round in 0..4 {
            let mut sequential = deployment.clone();
            let engine = RecallEngine::new(
                deployment.clone(),
                &EngineConfig::builder()
                    .workers(2)
                    .queue_capacity(32)
                    .build(),
            );
            let tickets: Vec<_> = inputs.iter().map(|q| engine.submit(q).unwrap()).collect();
            let mut recovered = engine.into_deployment();
            for (q, ticket) in inputs.iter().zip(tickets) {
                let got = ticket
                    .wait()
                    .unwrap_or_else(|e| panic!("{kind} round {round}: {e}"));
                assert_eq!(got, sequential.recall(q).unwrap(), "{kind} round {round}");
            }
            assert_eq!(
                recovered.recall(&inputs[0]).unwrap(),
                sequential.recall(&inputs[0]).unwrap(),
                "{kind} round {round}: recovered RNG state"
            );
        }
    }
}

#[test]
fn single_worker_engine_matches_many_workers() {
    let p = patterns(4, 12);
    let part = PartitionedAmm::build(&p, 2, &config(Fidelity::Driven)).unwrap();
    let inputs = queries(&p, 8);
    let run = |workers: usize| {
        let engine = RecallEngine::new(
            Deployment::Partitioned(part.clone()),
            &EngineConfig::builder()
                .workers(workers)
                .queue_capacity(4)
                .build(),
        );
        let out = engine.recall_many(&inputs).unwrap();
        engine.shutdown();
        out
    };
    assert_eq!(run(1), run(4));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For any deployment kind, worker count, queue capacity, and module
    /// seed, the engine reproduces sequential recall bit for bit — faults
    /// included.
    #[test]
    fn engine_is_bit_identical_for_any_shape(
        kind in 0usize..3,
        workers in 1usize..=4,
        capacity in 1usize..=4,
        amm_seed in any::<u64>(),
        fault in any::<bool>(),
        map_seed in any::<u64>(),
    ) {
        let p = patterns(4, 12);
        let cfg = AmmConfig {
            seed: amm_seed,
            spare_columns: 1,
            ..AmmConfig::default()
        };
        let deployment = if fault || kind == 0 {
            let mut module = AssociativeMemoryModule::build(&p, &cfg).unwrap();
            if fault {
                let model = FaultModel {
                    spread_sigma: 0.05,
                    ..FaultModel::stuck(0.08).unwrap()
                };
                let map = FaultMap::sample(&model, 12, p.len() + 1, map_seed).unwrap();
                module.inject_faults(map, &DegradationPolicy::default()).unwrap();
            }
            Deployment::Flat(module)
        } else if kind == 1 {
            Deployment::Partitioned(PartitionedAmm::build(&p, 3, &cfg).unwrap())
        } else {
            Deployment::Hierarchical(HierarchicalAmm::build(&p, 2, &cfg).unwrap())
        };

        let inputs = queries(&p, 9);
        let mut sequential = deployment.clone();
        let engine = RecallEngine::new(
            deployment,
            &EngineConfig::builder().workers(workers).queue_capacity(capacity).build(),
        );
        let got = engine.recall_many(&inputs).unwrap();
        engine.shutdown();
        for (q, response) in inputs.iter().zip(&got) {
            prop_assert_eq!(response, &sequential.recall(q).unwrap());
        }
    }
}
