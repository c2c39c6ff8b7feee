//! Cross-crate integration invariants: the device models, circuit solver
//! and converters must agree where their domains overlap.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spinamm_circuit::prelude::*;
use spinamm_cmos::{DtcsDac, Tech45};
use spinamm_core::adc::SpinSarAdc;
use spinamm_crossbar::{CachedParasiticCrossbar, CrossbarArray, CrossbarGeometry, RowDrive};
use spinamm_memristor::{DeviceLimits, LevelMap, WriteScheme};
use spinamm_spin::dynamics::DwDynamics;
use spinamm_spin::neuron::NeuronConfig;

/// The DTCS formula used by the analytic crossbar drive must match a real
/// netlist solve of the same circuit.
#[test]
fn dtcs_formula_matches_netlist() {
    let dac = DtcsDac::paper_input();
    let load = Siemens(2e-3);
    for code in [1u32, 7, 16, 31] {
        let analytic = dac.ideal_current(code, load).unwrap();

        let mut net = Netlist::new();
        let rail = net.node("rail");
        let row = net.node("row");
        net.voltage_source(rail, Volts(0.030));
        net.conductance(rail, row, dac.ideal_conductance(code).unwrap());
        let sense = net.conductance(row, Netlist::GROUND, load);
        let sol = net.solve_dc().unwrap();
        let through_load = sol.current(sense).0;
        assert!(
            (through_load - analytic.0).abs() / analytic.0.max(1e-12) < 1e-9,
            "code {code}: netlist {through_load} vs formula {}",
            analytic.0
        );
    }
}

/// The behavioural neuron's threshold comes from the 1-D dynamics, and the
/// ADC's LSB equals its effective (finite-pulse) threshold.
#[test]
fn adc_lsb_traces_back_to_wall_physics() {
    let dynamics = DwDynamics::paper_reference();
    let neuron = NeuronConfig::from_dynamics(&dynamics);
    assert!((neuron.threshold.0 - dynamics.analytic_threshold().0).abs() < 1e-15);

    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let adc = SpinSarAdc::build(
        5,
        neuron.threshold,
        Volts(0.030),
        Seconds(10e-9),
        &Tech45::DEFAULT,
        &mut rng,
    )
    .unwrap();
    let lsb = adc.nominal_full_scale().0 / 32.0;
    let eff = SpinSarAdc::effective_threshold(&neuron, Seconds(9e-9)).0;
    assert!(
        (lsb - eff).abs() / eff < 1e-12,
        "LSB {lsb} vs effective {eff}"
    );
    // And the effective threshold strictly exceeds the depinning current.
    assert!(eff > dynamics.analytic_threshold().0);
}

/// A crossbar programmed through the full write model feeds an ADC whose
/// output code tracks the analytically expected dot product.
#[test]
fn programmed_crossbar_to_adc_chain() {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let map = LevelMap::new(DeviceLimits::PAPER, 5).unwrap();
    let scheme = WriteScheme::paper();
    let mut array = CrossbarArray::new(16, 4, DeviceLimits::PAPER).unwrap();
    for j in 0..4 {
        let levels: Vec<u32> = (0..16).map(|i| ((i + j * 5) % 32) as u32).collect();
        array
            .program_pattern(j, &levels, &map, &scheme, &mut rng)
            .unwrap();
    }
    array.equalize_rows(None).unwrap();

    let drives = vec![
        RowDrive::SourceConductance {
            g: Siemens(4e-4),
            supply: Volts(0.030),
        };
        16
    ];
    let currents = array.driven_column_currents(&drives).unwrap();

    let adc = SpinSarAdc::build(
        5,
        Amps(1e-6),
        Volts(0.030),
        Seconds(10e-9),
        &Tech45::DEFAULT,
        &mut rng,
    )
    .unwrap();
    let lsb = adc.nominal_full_scale().0 / 32.0;
    for &i in &currents {
        let code = adc.convert(i, &mut rng).unwrap().code;
        let expected = (i.0 / lsb).floor();
        let delta = f64::from(code) - expected;
        assert!(
            delta.abs() <= 1.5,
            "current {} A: code {code} vs expected ~{expected}",
            i.0
        );
    }
}

/// The parasitic netlist's total dissipation matches the sum of rail
/// supplies (energy conservation across the crossbar + solver stack).
#[test]
fn crossbar_power_balances() {
    let mut rng = ChaCha8Rng::seed_from_u64(21);
    let map = LevelMap::new(DeviceLimits::PAPER, 5).unwrap();
    let scheme = WriteScheme::paper();
    let mut array = CrossbarArray::new(12, 5, DeviceLimits::PAPER).unwrap();
    for j in 0..5 {
        let levels: Vec<u32> = (0..12).map(|i| ((i * 3 + j * 7) % 32) as u32).collect();
        array
            .program_pattern(j, &levels, &map, &scheme, &mut rng)
            .unwrap();
    }
    array.equalize_rows(None).unwrap();
    let drives = vec![
        RowDrive::SourceConductance {
            g: Siemens(5e-4),
            supply: Volts(0.030),
        };
        12
    ];
    let readout = CachedParasiticCrossbar::new(CrossbarGeometry::PAPER)
        .evaluate(&array, &drives)
        .unwrap();

    // Power from the rail: every row's input current × ΔV (all current
    // terminates at the 0 V clamps, so the full rail drop is dissipated).
    let total_in: f64 = drives
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let RowDrive::SourceConductance { g, supply } = d else {
                unreachable!()
            };
            (supply.0 - readout.row_input_voltages[i].0) * g.0
        })
        .sum();
    let rail_power = total_in * 0.030;
    assert!(
        (rail_power - readout.dissipated_power.0).abs() / rail_power < 1e-6,
        "rail {rail_power} vs dissipated {}",
        readout.dissipated_power.0
    );
}

/// Scaled devices keep the whole chain consistent: halving the DWN geometry
/// quarters the threshold, and an ADC built on it resolves proportionally
/// smaller currents.
#[test]
fn scaled_device_chain() {
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    let small_ic = Amps(0.25e-6);
    let adc = SpinSarAdc::build(
        5,
        small_ic,
        Volts(0.030),
        Seconds(10e-9),
        &Tech45::DEFAULT,
        &mut rng,
    )
    .unwrap();
    let big = SpinSarAdc::build(
        5,
        Amps(1e-6),
        Volts(0.030),
        Seconds(10e-9),
        &Tech45::DEFAULT,
        &mut rng,
    )
    .unwrap();
    // A quartered threshold shrinks the full scale, though the fixed
    // transit-time term keeps it above exactly 1/4.
    let ratio = adc.nominal_full_scale().0 / big.nominal_full_scale().0;
    assert!(ratio > 0.25 && ratio < 0.75, "full-scale ratio {ratio}");
}

/// A fully instrumented recognition drives device-event counters in every
/// layer: SAR cycles in the converters and settling iterations in the
/// parasitic crossbar solver, with the per-stage spans populated.
#[test]
fn recall_telemetry_reaches_every_layer() {
    use spinamm_core::amm::{AmmConfig, AssociativeMemoryModule, Fidelity};
    use spinamm_data::workload::{PatternWorkload, WorkloadConfig};
    use spinamm_telemetry::MemoryRecorder;

    let w = PatternWorkload::generate(&WorkloadConfig {
        pattern_count: 4,
        vector_len: 16,
        bits: 5,
        query_count: 3,
        query_noise: 0.2,
        seed: 123,
        noise_magnitude: 1,
        similarity: 0.0,
    })
    .unwrap();
    let cfg = AmmConfig {
        fidelity: Fidelity::Parasitic,
        ..AmmConfig::default()
    };
    let recorder = MemoryRecorder::default();
    let req = spinamm_core::RecallRequest::recorded(&recorder);
    let mut amm = AssociativeMemoryModule::build_request(&w.patterns, &cfg, &req).unwrap();
    for (_, q) in &w.queries {
        amm.recall_request(q, &req).unwrap();
    }
    let snap = recorder.snapshot();
    assert!(snap.counter("adc.sar_cycles") > 0, "SAR cycles must fire");
    assert!(
        snap.counter("crossbar.settle_iterations") > 0,
        "parasitic solves must report iterations"
    );
    assert!(
        snap.counter("memristor.write_pulses") > 0,
        "programming instrumented"
    );
    assert!(
        snap.counter("spin.latch_fires") > 0,
        "latch events instrumented"
    );
    assert_eq!(snap.counter("recall.count"), w.queries.len() as u64);
    for span in [
        "recall.total",
        "recall.drive",
        "recall.settle",
        "recall.convert",
        "recall.select",
    ] {
        let s = snap
            .span_stats(span)
            .unwrap_or_else(|| panic!("{span} missing"));
        assert_eq!(s.count, w.queries.len() as u64, "{span}");
    }
    assert_eq!(snap.span_stats("build.program").map(|s| s.count), Some(1));
}

/// Telemetry is observational: recording into a [`MemoryRecorder`] must not
/// perturb any numeric result relative to the uninstrumented path.
#[test]
fn telemetry_observation_changes_no_result() {
    use spinamm_core::amm::{AmmConfig, AssociativeMemoryModule, Fidelity};
    use spinamm_telemetry::MemoryRecorder;

    let patterns = vec![
        vec![31, 31, 0, 0, 17, 3, 0, 9],
        vec![0, 0, 31, 31, 2, 25, 14, 0],
        vec![9, 4, 7, 0, 31, 0, 31, 12],
    ];
    for fidelity in [Fidelity::Ideal, Fidelity::Driven, Fidelity::Parasitic] {
        let cfg = AmmConfig {
            fidelity,
            thermal: true,
            latch_noise: true,
            ..AmmConfig::default()
        };
        let recorder = MemoryRecorder::default();
        let req = spinamm_core::RecallRequest::recorded(&recorder);
        let mut plain = AssociativeMemoryModule::build(&patterns, &cfg).unwrap();
        let mut instrumented =
            AssociativeMemoryModule::build_request(&patterns, &cfg, &req).unwrap();
        for p in &patterns {
            let a = plain.recall(p).unwrap();
            let b = instrumented.recall_request(p, &req).unwrap();
            assert_eq!(a, b, "{fidelity:?}: instrumented recall diverged");
        }
    }
}

/// The counterfactual the paper dismisses: implementing the same
/// column-parallel SAR WTA with conventional CMOS ADCs burns milliwatts
/// where the spin module burns microwatts.
#[test]
fn cmos_adc_counterfactual_is_milliwatts() {
    use spinamm_cmos::CmosSarAdc;
    use spinamm_core::amm::{AmmConfig, AssociativeMemoryModule};
    use spinamm_data::workload::{PatternWorkload, WorkloadConfig};

    let w = PatternWorkload::generate(&WorkloadConfig {
        pattern_count: 8,
        vector_len: 32,
        bits: 5,
        query_count: 1,
        query_noise: 0.0,
        seed: 77,
        noise_magnitude: 1,
        similarity: 0.0,
    })
    .unwrap();
    let mut amm = AssociativeMemoryModule::build(&w.patterns, &AmmConfig::default()).unwrap();
    let spin_power = amm.power_report(&w.queries[0].1).unwrap().total_power().0;

    let cmos_bank = CmosSarAdc::paper_column().bank_power(8).0;
    assert!(
        cmos_bank > 10.0 * spin_power,
        "CMOS ADC bank {cmos_bank} W should dwarf the whole spin module {spin_power} W"
    );
}
