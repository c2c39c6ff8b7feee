//! Property-based tests for the core algorithms: the SAR logic, the spin
//! ADC and the parallel winner tracker must satisfy their contracts for
//! *any* input, not just curated examples.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spinamm_circuit::units::{Amps, Seconds, Volts};
use spinamm_cmos::Tech45;
use spinamm_core::adc::SpinSarAdc;
use spinamm_core::sar::SarRegister;
use spinamm_core::wta::SpinWta;

// ---------------------------------------------------------------------------
// SAR register
// ---------------------------------------------------------------------------

proptest! {
    /// The SAR register implements exact binary search: for any ideal
    /// comparator threshold, the final code is the floor of the input.
    #[test]
    fn sar_is_exact_binary_search(bits in 1u32..=12, input in -10.0..5000.0f64) {
        let code = SarRegister::convert(bits, |trial| input >= f64::from(trial));
        let max = f64::from((1u32 << bits) - 1);
        let expected = input.floor().clamp(0.0, max);
        prop_assert_eq!(f64::from(code), expected);
    }

    /// The register always terminates in exactly `bits` steps and the code
    /// stays in range throughout.
    #[test]
    fn sar_terminates_in_bits_steps(bits in 1u32..=12, decisions in proptest::collection::vec(any::<bool>(), 12)) {
        let mut sar = SarRegister::new(bits);
        let mut steps = 0;
        for &d in decisions.iter().take(bits as usize) {
            prop_assert!(!sar.is_done());
            prop_assert!(sar.code() < (1 << bits));
            sar.step(d);
            steps += 1;
        }
        prop_assert_eq!(steps, bits);
        prop_assert!(sar.is_done());
        prop_assert!(sar.code() < (1 << bits));
    }

    /// Monotonicity: a strictly larger input never produces a smaller code
    /// under the same ideal comparator.
    #[test]
    fn sar_monotone(bits in 1u32..=10, a in 0.0..1000.0f64, delta in 0.0..100.0f64) {
        let code = |x: f64| SarRegister::convert(bits, |trial| x >= f64::from(trial));
        prop_assert!(code(a + delta) >= code(a));
    }
}

// ---------------------------------------------------------------------------
// Spin SAR ADC
// ---------------------------------------------------------------------------

fn adc(bits: u32, seed: u64) -> SpinSarAdc {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    SpinSarAdc::build(
        bits,
        Amps(1e-6),
        Volts(0.030),
        Seconds(10e-9),
        &Tech45::DEFAULT,
        &mut rng,
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any input inside the range, the converted code sits inside the
    /// comparator's asymmetric error band: the 1-LSB dead zone only ever
    /// pushes codes *down* (by at most 2 codes at a boundary), and DAC
    /// mismatch adds a fraction of an LSB either way.
    #[test]
    fn adc_code_tracks_input(seed in 0u64..50, frac in 0.0..1.0f64) {
        let a = adc(5, seed);
        let lsb = a.nominal_full_scale().0 / 32.0;
        let input = frac * 31.0 * lsb;
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xff);
        let code = a.convert(Amps(input), &mut rng).unwrap().code;
        let expected = input / lsb;
        let err = f64::from(code) - expected;
        prop_assert!(
            (-2.2..=0.7).contains(&err),
            "input {expected:.2} LSB → code {code} (err {err:.2})"
        );
    }

    /// Negative inputs always give code zero (the comparator never sees a
    /// positive net current).
    #[test]
    fn adc_clamps_negative(seed in 0u64..20, mag in 0.0..1e-4f64) {
        let a = adc(5, seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        prop_assert_eq!(a.convert(Amps(-mag), &mut rng).unwrap().code, 0);
    }

    /// The per-cycle trajectory is consistent: the final trajectory entry
    /// equals the reported code, and every entry stays in range.
    #[test]
    fn adc_trajectory_consistent(seed in 0u64..20, frac in 0.0..1.2f64) {
        let a = adc(5, seed);
        let input = frac * a.nominal_full_scale().0;
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xabc);
        let out = a.convert(Amps(input), &mut rng).unwrap();
        prop_assert_eq!(out.code_trajectory.len(), 5);
        prop_assert_eq!(*out.code_trajectory.last().unwrap(), out.code);
        for &c in &out.code_trajectory {
            prop_assert!(c < 32);
        }
    }
}

// ---------------------------------------------------------------------------
// Winner tracker
// ---------------------------------------------------------------------------

fn wta(cols: usize, seed: u64) -> SpinWta {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let adcs = (0..cols)
        .map(|_| {
            SpinSarAdc::build(
                5,
                Amps(1e-6),
                Volts(0.030),
                Seconds(10e-9),
                &Tech45::DEFAULT,
                &mut rng,
            )
            .unwrap()
        })
        .collect();
    SpinWta::new(adcs, Tech45::DEFAULT).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The reported winner always carries the maximum code, and whenever
    /// the hardware tracker singles out a column, it agrees with the scan.
    #[test]
    fn tracker_agrees_with_scan(
        seed in 0u64..20,
        fracs in proptest::collection::vec(0.0..1.0f64, 2..10),
    ) {
        let w = wta(fracs.len(), seed);
        let fs = w.adcs()[0].nominal_full_scale().0;
        let currents: Vec<Amps> = fracs.iter().map(|&f| Amps(f * fs)).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x77);
        let out = w.evaluate(&currents, &mut rng).unwrap();

        let max_code = *out.codes.iter().max().unwrap();
        prop_assert_eq!(out.dom, max_code);
        prop_assert_eq!(out.codes[out.winner], max_code);

        if let Some(t) = out.tracked_winner {
            prop_assert_eq!(
                out.codes[t], max_code,
                "tracker singled out a non-maximal column"
            );
        }
        // Every tracked column carries the max code when the max is above
        // midscale (the tracker only latches MSB-high columns).
        if max_code >= 16 {
            for &t in &out.tracked {
                prop_assert_eq!(out.codes[t], max_code);
            }
            prop_assert!(!out.tracked.is_empty(), "an MSB-high winner must be tracked");
        }
    }

    /// Permuting the inputs permutes the winner accordingly (no positional
    /// bias in the tracker; ties may resolve differently, so restrict to a
    /// unique maximum with a wide margin).
    #[test]
    fn tracker_is_permutation_equivariant(
        seed in 0u64..10,
        n in 3usize..8,
        winner_pos in 0usize..8,
        rot in 0usize..8,
    ) {
        let winner_pos = winner_pos % n;
        let rot = rot % n;
        let w = wta(n, seed);
        let fs = w.adcs()[0].nominal_full_scale().0;
        // A clear winner and graded losers.
        let base: Vec<f64> = (0..n).map(|k| 0.1 + 0.02 * k as f64).collect();
        let mut fracs = base;
        fracs[winner_pos] = 0.85;

        let run = |fr: &[f64], seed2: u64| {
            let currents: Vec<Amps> = fr.iter().map(|&f| Amps(f * fs)).collect();
            let mut rng = ChaCha8Rng::seed_from_u64(seed2);
            w.evaluate(&currents, &mut rng).unwrap().winner
        };
        prop_assert_eq!(run(&fracs, 1), winner_pos);

        let mut rotated = fracs.clone();
        rotated.rotate_left(rot);
        let expected = (winner_pos + n - rot) % n;
        prop_assert_eq!(run(&rotated, 2), expected);
    }
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Under any sampled fault map, `recall_batch` stays bit-identical to
    /// sequential `recall` — faults perturb the physics, never the
    /// order-independence the batch path relies on.
    #[test]
    fn batch_recall_is_bit_identical_under_faults(
        map_seed in any::<u64>(),
        amm_seed in any::<u64>(),
        stuck_rate in 0.0..0.2f64,
        spread_sigma in 0.0..0.1f64,
        parasitic in any::<bool>(),
    ) {
        use spinamm_core::amm::{AmmConfig, AssociativeMemoryModule, Fidelity};
        use spinamm_core::degrade::DegradationPolicy;
        use spinamm_faults::{FaultMap, FaultModel};

        let patterns = vec![
            vec![31u32, 31, 31, 31, 0, 0, 0, 0],
            vec![0, 0, 0, 0, 31, 31, 31, 31],
            vec![31, 0, 31, 0, 31, 0, 31, 0],
        ];
        let cfg = AmmConfig {
            seed: amm_seed,
            spare_columns: 1,
            fidelity: if parasitic { Fidelity::Parasitic } else { Fidelity::Driven },
            ..AmmConfig::default()
        };
        let model = FaultModel {
            spread_sigma,
            ..FaultModel::stuck(stuck_rate).unwrap()
        };
        let map = FaultMap::sample(&model, 8, 4, map_seed).unwrap();
        let policy = DegradationPolicy::default();

        let mut seq = AssociativeMemoryModule::build(&patterns, &cfg).unwrap();
        seq.inject_faults(map.clone(), &policy).unwrap();
        let mut bat = AssociativeMemoryModule::build(&patterns, &cfg).unwrap();
        bat.inject_faults(map, &policy).unwrap();

        let queries: Vec<Vec<u32>> = patterns.iter().cycle().take(5).cloned().collect();
        let sequential: Vec<_> = queries.iter().map(|q| seq.recall(q).unwrap()).collect();
        let batched = bat.recall_batch(&queries).unwrap();
        prop_assert_eq!(sequential, batched);
    }
}

// ---------------------------------------------------------------------------
// The compiled kernel under mutation
// ---------------------------------------------------------------------------

/// One step of a mutation/recall sequence, applied identically to a module
/// (recalling through its kernel) and its reference twin (recalling
/// through the interpreted oracle).
#[derive(Debug, Clone, Copy)]
enum Step {
    Recall(usize),
    Batch(usize),
    /// Evaluate on a clone, select on the module (the engine's shape).
    Split(usize),
    Faults(u64),
    Age(u64, f64),
    Install(usize),
    Retire(usize),
    /// Refresh a slot, then commit the maintenance batch.
    Refresh(usize),
    /// Migrate a slot to the n-th free column, then commit.
    Migrate(usize, usize),
    /// Stamp retention on one column through `array_maintenance`, the
    /// lifetime controller's path (dummies stay stale until a commit).
    Stamp(usize),
    /// Commit a maintenance batch on its own.
    Commit,
}

/// Steps weighted towards recalls: half of them recall, batch or split.
fn step() -> impl Strategy<Value = Step> {
    (0usize..15, any::<u64>(), 0usize..6, 0usize..3, 1.0..1e7f64).prop_map(
        |(kind, seed, i, c, elapsed)| match kind {
            0..=2 => Step::Recall(i),
            3 | 4 => Step::Batch(1 + i % 4),
            5 | 6 => Step::Split(i),
            7 => Step::Faults(seed),
            8 => Step::Age(seed, elapsed),
            9 => Step::Install(i),
            10 => Step::Retire(i),
            11 => Step::Refresh(i),
            12 => Step::Migrate(i, c),
            13 => Step::Stamp(c),
            _ => Step::Commit,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any sequence of mutations interleaved with recalls keeps the
    /// kernel bit-identical to the interpreted oracle on an identically
    /// mutated twin, at every fidelity: results, energy bits, the RNG
    /// stream the writes draw from (a final recall after the last write
    /// pins its position) and the simulated counters.
    #[test]
    fn mutations_interleaved_with_recalls_match_the_oracle(
        amm_seed in any::<u64>(),
        fidelity_kind in 0usize..3,
        steps in proptest::collection::vec(step(), 1..10),
    ) {
        use spinamm_core::amm::{AmmConfig, AssociativeMemoryModule, Fidelity, RecallResult};
        use spinamm_core::degrade::DegradationPolicy;
        use spinamm_core::request::RecallRequest;
        use spinamm_faults::{FaultMap, FaultModel};
        use spinamm_memristor::{DriftModel, RetryPolicy};
        use spinamm_telemetry::MemoryRecorder;

        let patterns = vec![
            vec![31u32, 31, 31, 31, 0, 0, 0, 0],
            vec![0, 0, 0, 0, 31, 31, 31, 31],
            vec![31, 0, 31, 0, 31, 0, 31, 0],
        ];
        let queries: Vec<Vec<u32>> = (0..6u32)
            .map(|k| {
                patterns[k as usize % 3]
                    .iter()
                    .map(|&l| (l + 3 * k) % 32)
                    .collect()
            })
            .collect();
        let cfg = AmmConfig {
            seed: amm_seed,
            spare_columns: 2,
            fidelity: [Fidelity::Ideal, Fidelity::Driven, Fidelity::Parasitic][fidelity_kind],
            ..AmmConfig::default()
        };
        let same = |a: &RecallResult, b: &RecallResult| {
            let bits = |r: &RecallResult| {
                let e = r.energy;
                [e.rcm_static, e.dac_static, e.dwn_write, e.latch_sense, e.digital]
                    .map(|j| j.0.to_bits())
            };
            a == b && bits(a) == bits(b)
        };
        let mut module = AssociativeMemoryModule::build(&patterns, &cfg).unwrap();
        let mut twin = AssociativeMemoryModule::build(&patterns, &cfg).unwrap();
        let (kernel_rec, oracle_rec) = (MemoryRecorder::default(), MemoryRecorder::default());
        let kernel_req = RecallRequest::recorded(&kernel_rec);
        let oracle_req = RecallRequest::recorded(&oracle_rec);
        let retry = RetryPolicy::default();

        // Every mutation is followed by a probe recall, so a kernel a
        // mutator failed to drop shows up at once; the final probe pins the
        // RNG streams after the whole sequence.
        let probes = steps.iter().enumerate().map(|(n, step)| (n, Some(step)));
        for (n, step) in probes.chain([(steps.len(), None)]) {
            let probe = match step.copied() {
                None => Some(0),
                Some(Step::Recall(i)) => Some(i),
                Some(Step::Batch(n)) => {
                    let got = module.recall_batch_request(&queries[..n], &kernel_req).unwrap();
                    for (g, q) in got.iter().zip(&queries) {
                        let want = twin.oracle_recall_request(q, &oracle_req).unwrap();
                        prop_assert!(same(g, &want), "{:?}: {:?} vs {:?}", step, g, want);
                    }
                    None
                }
                Some(Step::Split(i)) => {
                    let eval = module
                        .clone()
                        .evaluate_query_request(&queries[i], &kernel_req)
                        .unwrap();
                    let got = module.select_winner_request(eval, &kernel_req).unwrap();
                    let want = twin.oracle_recall_request(&queries[i], &oracle_req).unwrap();
                    prop_assert!(same(&got, &want), "{:?}: {:?} vs {:?}", step, got, want);
                    None
                }
                Some(Step::Faults(seed)) => {
                    let model = FaultModel {
                        spread_sigma: 0.05,
                        ..FaultModel::stuck(0.1).unwrap()
                    };
                    let map = FaultMap::sample(&model, 8, module.array().cols(), seed).unwrap();
                    let policy = DegradationPolicy::default();
                    let a = module.inject_faults(map.clone(), &policy).ok();
                    prop_assert_eq!(a, twin.inject_faults(map, &policy).ok());
                    Some(n % 6)
                }
                Some(Step::Age(seed, elapsed)) => {
                    let age = |m: &mut AssociativeMemoryModule| {
                        let mut rng = ChaCha8Rng::seed_from_u64(seed);
                        m.age_array(Seconds(elapsed), &DriftModel::AGGRESSIVE, &mut rng).is_ok()
                    };
                    prop_assert_eq!(age(&mut module), age(&mut twin));
                    Some(n % 6)
                }
                Some(Step::Install(i)) => {
                    let a = module.install_template(&queries[i]).ok();
                    prop_assert_eq!(a, twin.install_template(&queries[i]).ok());
                    Some(n % 6)
                }
                Some(Step::Retire(slot)) => {
                    prop_assert_eq!(module.retire_template(slot).ok(), twin.retire_template(slot).ok());
                    Some(n % 6)
                }
                Some(Step::Refresh(slot)) => {
                    let a = module.refresh_template(slot, &retry).ok();
                    prop_assert_eq!(a, twin.refresh_template(slot, &retry).ok());
                    module.commit_maintenance().unwrap();
                    twin.commit_maintenance().unwrap();
                    Some(n % 6)
                }
                Some(Step::Migrate(slot, c)) => {
                    let col = module.free_columns().get(c).copied().unwrap_or(0);
                    let a = module.migrate_template(slot, col, &retry).ok();
                    prop_assert_eq!(a, twin.migrate_template(slot, col, &retry).ok());
                    module.commit_maintenance().unwrap();
                    twin.commit_maintenance().unwrap();
                    Some(n % 6)
                }
                Some(Step::Stamp(col)) => {
                    for m in [&mut module, &mut twin] {
                        for row in 0..8 {
                            m.array_maintenance()
                                .apply_retention(row, col, Seconds(1e5), 0.8)
                                .unwrap();
                        }
                    }
                    Some(n % 6)
                }
                Some(Step::Commit) => {
                    module.commit_maintenance().unwrap();
                    twin.commit_maintenance().unwrap();
                    Some(n % 6)
                }
            };
            if let Some(i) = probe {
                let got = module.recall_request(&queries[i], &kernel_req).unwrap();
                let want = twin.oracle_recall_request(&queries[i], &oracle_req).unwrap();
                prop_assert!(same(&got, &want), "{:?}: {:?} vs {:?}", step, got, want);
            }
        }

        let (got, want) = (kernel_rec.snapshot(), oracle_rec.snapshot());
        for (name, &count) in &want.counters {
            let simulated = name == "recall.count"
                || name == "adc.sar_cycles"
                || name == "wta.dl_transitions"
                || name.starts_with("spin.");
            if simulated {
                prop_assert_eq!(got.counter(name), count, "counter {}", name);
            }
        }
        prop_assert!(want.counter("recall.count") > 0);
    }
}
