//! The service tier adds routing, quotas and framing — and nothing else.
//! For every deployment organization, a query served through
//! [`RecallService::handle`] must be bit-identical to submitting the same
//! query directly to a [`RecallEngine`] built from the same spec: same
//! winner, same DOM, same ranked matches, same energy to the last bit.

use spinamm_core::amm::{AmmConfig, Fidelity};
use spinamm_engine::{EngineConfig, RecallEngine};
use spinamm_server::api::{ApiRecallRequest, ApiRecallResponse};
use spinamm_server::registry::{DeploymentSpec, ModuleRegistry, TenantOptions};
use spinamm_server::service::{RecallService, ServeError, ServerConfig};
use spinamm_telemetry::MemoryRecorder;
use std::sync::{Arc, Barrier};

fn patterns() -> Vec<Vec<u32>> {
    vec![
        vec![0, 31, 0, 31, 7, 24, 12, 3],
        vec![31, 0, 31, 0, 24, 7, 3, 12],
        vec![15, 15, 15, 15, 15, 15, 15, 15],
        vec![3, 28, 3, 28, 19, 9, 27, 0],
        vec![28, 3, 28, 3, 9, 19, 0, 27],
        vec![7, 7, 24, 24, 0, 31, 15, 15],
    ]
}

/// Queries: every stored pattern plus perturbed variants, deterministic.
fn queries() -> Vec<Vec<u32>> {
    let mut out = patterns();
    for (i, base) in patterns().into_iter().enumerate() {
        let mut q = base;
        for (j, level) in q.iter_mut().enumerate() {
            if (i + j) % 3 == 0 {
                *level = (*level + 2).min(31);
            }
        }
        out.push(q);
    }
    out
}

fn specs() -> Vec<(&'static str, DeploymentSpec)> {
    let config = AmmConfig {
        fidelity: Fidelity::Driven,
        seed: 0x5e12_7ab3,
        ..AmmConfig::default()
    };
    vec![
        (
            "flat",
            DeploymentSpec::Flat {
                patterns: patterns(),
                config,
            },
        ),
        (
            "partitioned",
            DeploymentSpec::Partitioned {
                patterns: patterns(),
                segments: 2,
                config,
            },
        ),
        (
            "hierarchical",
            DeploymentSpec::Hierarchical {
                patterns: patterns(),
                clusters: 2,
                config,
            },
        ),
        (
            "tiled",
            DeploymentSpec::Tiled {
                patterns: patterns(),
                tile_capacity: 2,
                top_k: 4,
                config,
            },
        ),
    ]
}

#[test]
fn served_responses_match_direct_engine_submission_for_every_kind() {
    for (name, spec) in specs() {
        // Reference: the same spec built standalone, driven through an
        // engine directly, sequentially.
        let reference_recorder = MemoryRecorder::default();
        let deployment = spec.build(&reference_recorder).expect("reference build");
        let engine = RecallEngine::new(
            deployment,
            &EngineConfig {
                workers: 2,
                queue_capacity: 16,
            },
        );
        let expected: Vec<ApiRecallResponse> = queries()
            .iter()
            .map(|q| {
                let response = engine.submit(q).expect("submit").wait().expect("wait");
                ApiRecallResponse::from_engine(name, &response)
            })
            .collect();

        // Served: the same spec registered behind the full service tier.
        let registry = Arc::new(ModuleRegistry::new());
        registry
            .register(name, &spec, &TenantOptions::default())
            .expect("register");
        let service = RecallService::new(registry, &ServerConfig::default());
        for (q, want) in queries().iter().zip(&expected) {
            let got = service
                .handle(&ApiRecallRequest {
                    tenant: name.to_owned(),
                    input: q.clone(),
                })
                .expect("served");
            assert_eq!(&got, want, "kind {name}: served response diverged");
            assert_eq!(
                got.energy_j.to_bits(),
                want.energy_j.to_bits(),
                "kind {name}: energy must be bit-identical"
            );
        }
    }
}

#[test]
fn service_rejections_are_typed_and_leave_other_tenants_serving() {
    let (_, flat_spec) = specs().remove(0);
    let registry = Arc::new(ModuleRegistry::new());
    registry
        .register("open", &flat_spec, &TenantOptions::default())
        .expect("register open");
    registry
        .register(
            "throttled",
            &flat_spec,
            &TenantOptions {
                // 1 token, glacial refill: the second query must see 429.
                quota: Some((1e-3, 1.0)),
                ..TenantOptions::default()
            },
        )
        .expect("register throttled");
    let service = RecallService::new(registry, &ServerConfig::default());
    let query = patterns().remove(0);

    let ask = |tenant: &str| {
        service.handle(&ApiRecallRequest {
            tenant: tenant.to_owned(),
            input: query.clone(),
        })
    };
    assert!(
        ask("throttled").is_ok(),
        "burst token admits the first call"
    );
    let denied = ask("throttled").expect_err("quota exhausted");
    assert_eq!(denied.status(), 429);
    assert_eq!(denied.kind(), "over_quota");

    // Unknown tenant and wrong-width inputs are typed too.
    assert_eq!(ask("missing").expect_err("unknown").status(), 404);
    let narrow = service
        .handle(&ApiRecallRequest {
            tenant: "open".to_owned(),
            input: vec![1, 2],
        })
        .expect_err("wrong width");
    assert_eq!(narrow.status(), 400);

    // None of that disturbed the open tenant.
    assert!(ask("open").is_ok());
    let snapshot = service.recorder().snapshot();
    assert_eq!(snapshot.counter("server.rejected.over_quota"), 1);
    assert_eq!(snapshot.counter("server.rejected.unknown_tenant"), 1);
    assert_eq!(snapshot.counter("server.rejected.bad_request"), 1);
}

#[test]
fn concurrent_callers_are_each_counted_exactly_once() {
    const THREADS: usize = 4;
    const PER_TENANT: usize = 25;
    let (_, flat_spec) = specs().remove(0);
    let registry = Arc::new(ModuleRegistry::new());
    registry
        .register("open", &flat_spec, &TenantOptions::default())
        .expect("register open");
    registry
        .register(
            "throttled",
            &flat_spec,
            &TenantOptions {
                // Two burst tokens, glacial refill: exactly two are served.
                quota: Some((1e-3, 2.0)),
                ..TenantOptions::default()
            },
        )
        .expect("register throttled");
    let service = RecallService::new(registry, &ServerConfig::default());
    let query = patterns().remove(0);

    // Per tenant: [served, 429, 503], tallied by each calling thread. The
    // barrier releases every caller at once.
    let start = Barrier::new(THREADS);
    let tallies: Vec<[[usize; 3]; 2]> = std::thread::scope(|s| {
        let callers: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    let mut tally = [[0; 3]; 2];
                    start.wait();
                    for _ in 0..PER_TENANT {
                        for (t, tenant) in ["open", "throttled"].into_iter().enumerate() {
                            let outcome = service.handle(&ApiRecallRequest {
                                tenant: tenant.to_owned(),
                                input: query.clone(),
                            });
                            let slot = match outcome.as_ref().map_err(ServeError::status) {
                                Ok(_) => 0,
                                Err(429) => 1,
                                Err(503) => 2,
                                Err(status) => panic!("{tenant}: unexpected status {status}"),
                            };
                            tally[t][slot] += 1;
                        }
                    }
                    tally
                })
            })
            .collect();
        callers
            .into_iter()
            .map(|c| c.join().expect("caller"))
            .collect()
    });
    let total = |t: usize, slot: usize| tallies.iter().map(|tally| tally[t][slot]).sum::<usize>();
    let offered = THREADS * PER_TENANT;
    for (t, tenant) in ["open", "throttled"].into_iter().enumerate() {
        assert_eq!(
            total(t, 0) + total(t, 1) + total(t, 2),
            offered,
            "{tenant}: served + 429 + 503 must equal offered"
        );
    }
    assert_eq!(total(0, 0), offered, "the open tenant serves everything");
    assert_eq!(total(1, 0), 2, "the throttled tenant serves its burst");
    let snapshot = service.recorder().snapshot();
    assert_eq!(snapshot.counter("server.requests"), 2 * offered as u64);
    assert_eq!(
        snapshot.counter("server.served"),
        (total(0, 0) + total(1, 0)) as u64
    );
    assert_eq!(
        snapshot.counter("server.rejected.over_quota"),
        (total(0, 1) + total(1, 1)) as u64
    );
}

#[test]
fn evicted_tenants_stop_serving() {
    let (_, spec) = specs().remove(0);
    let registry = Arc::new(ModuleRegistry::new());
    registry
        .register("gone-soon", &spec, &TenantOptions::default())
        .expect("register");
    let service = RecallService::new(Arc::clone(&registry), &ServerConfig::default());
    let query = patterns().remove(0);
    assert!(service
        .handle(&ApiRecallRequest {
            tenant: "gone-soon".to_owned(),
            input: query.clone(),
        })
        .is_ok());
    assert!(registry.evict("gone-soon"));
    assert!(!registry.evict("gone-soon"), "second evict is a no-op");
    let err = service
        .handle(&ApiRecallRequest {
            tenant: "gone-soon".to_owned(),
            input: query,
        })
        .expect_err("evicted tenant must 404");
    assert_eq!(err.status(), 404);
}
