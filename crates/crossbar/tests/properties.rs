//! Property-based tests: the parasitic netlist model must degenerate to the
//! ideal dot product when wires are lossless, and must obey conservation
//! laws for any programmed pattern; the array's conductance table must
//! track every mutation.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use spinamm_circuit::units::{Farads, Micrometers, Ohms, Seconds, Siemens, Volts};
use spinamm_crossbar::{CachedParasiticCrossbar, CrossbarArray, CrossbarGeometry, RowDrive};
use spinamm_faults::{FaultMap, FaultModel, LineDefect, StuckKind};
use spinamm_memristor::{DeviceLimits, DriftModel, LevelMap, RetryPolicy, WriteScheme};
use spinamm_telemetry::NoopRecorder;

#[derive(Debug, Clone)]
struct Scenario {
    rows: usize,
    cols: usize,
    /// Level of each cell, row-major (`rows × cols` entries).
    levels: Vec<u32>,
    /// Row drive voltages in volts.
    drives: Vec<f64>,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    ((2usize..7), (2usize..5)).prop_flat_map(|(rows, cols)| {
        (
            proptest::collection::vec(0u32..32, rows * cols),
            proptest::collection::vec(0.001..0.06f64, rows),
        )
            .prop_map(move |(levels, drives)| Scenario {
                rows,
                cols,
                levels,
                drives,
            })
    })
}

fn build(s: &Scenario) -> CrossbarArray {
    let map = LevelMap::new(DeviceLimits::PAPER, 5).unwrap();
    let mut a = CrossbarArray::new(s.rows, s.cols, DeviceLimits::PAPER).unwrap();
    for i in 0..s.rows {
        for j in 0..s.cols {
            // Exact programming: the property is about network behaviour,
            // not write noise.
            a.set_conductance(i, j, map.conductance(s.levels[i * s.cols + j]).unwrap())
                .unwrap();
        }
    }
    a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lossless parasitic solve == analytic dot product, for any pattern and
    /// any voltage drives.
    #[test]
    fn lossless_equals_ideal(s in scenario()) {
        let a = build(&s);
        let drives: Vec<RowDrive> = s.drives.iter().map(|&v| RowDrive::Voltage(Volts(v))).collect();
        let volts: Vec<Volts> = s.drives.iter().map(|&v| Volts(v)).collect();
        let netlist = CachedParasiticCrossbar::new(CrossbarGeometry::lossless())
            .evaluate(&a, &drives)
            .unwrap();
        let ideal = a.ideal_column_currents(&volts).unwrap();
        for (got, want) in netlist.column_currents.iter().zip(&ideal) {
            let scale = want.0.abs().max(1e-12);
            prop_assert!((got.0 - want.0).abs() / scale < 1e-8);
        }
    }

    /// With real wire resistance, every column current is positive and no
    /// larger than the ideal value (IR drops only attenuate when all drives
    /// are non-negative).
    #[test]
    fn parasitic_attenuates(s in scenario()) {
        let a = build(&s);
        let drives: Vec<RowDrive> = s.drives.iter().map(|&v| RowDrive::Voltage(Volts(v))).collect();
        let volts: Vec<Volts> = s.drives.iter().map(|&v| Volts(v)).collect();
        let lossy = CachedParasiticCrossbar::new(CrossbarGeometry::PAPER)
            .evaluate(&a, &drives)
            .unwrap();
        let ideal = a.ideal_column_currents(&volts).unwrap();
        for (got, want) in lossy.column_currents.iter().zip(&ideal) {
            prop_assert!(got.0 > 0.0);
            prop_assert!(got.0 <= want.0 * (1.0 + 1e-9));
        }
    }

    /// Current-source drives: total injected current equals total collected
    /// current (KCL through the whole array), for any wire resistance.
    #[test]
    fn current_conservation(
        s in scenario(),
        r_per_um in 0.1..100.0f64,
        inject in 1e-7..1e-5f64,
    ) {
        let a = build(&s);
        let drives = vec![RowDrive::Current(spinamm_circuit::units::Amps(inject)); s.rows];
        let geom = CrossbarGeometry::new(
            Micrometers(0.5),
            Ohms(r_per_um),
            Farads(0.0),
        ).unwrap();
        let readout = CachedParasiticCrossbar::new(geom).evaluate(&a, &drives).unwrap();
        let total_in = inject * s.rows as f64;
        let total_out: f64 = readout.column_currents.iter().map(|i| i.0).sum();
        prop_assert!((total_in - total_out).abs() / total_in < 1e-7);
    }

    /// Equalized rows present identical loads regardless of stored data.
    #[test]
    fn equalization_invariant(s in scenario()) {
        let mut a = build(&s);
        let target = a.equalize_rows(None).unwrap();
        for i in 0..s.rows {
            let total = a.row_total_conductance(i).unwrap();
            prop_assert!((total.0 - target.0).abs() < 1e-12);
        }
    }

    /// Programming with realistic writes lands every cell within the write
    /// tolerance of its level's conductance.
    #[test]
    fn realistic_writes_in_band(s in scenario(), seed in 0u64..1000) {
        let map = LevelMap::new(DeviceLimits::PAPER, 5).unwrap();
        let scheme = WriteScheme::paper();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut a = CrossbarArray::new(s.rows, s.cols, DeviceLimits::PAPER).unwrap();
        for i in 0..s.rows {
            for j in 0..s.cols {
                a.program_level(i, j, s.levels[i * s.cols + j], &map, &scheme, &mut rng).unwrap();
            }
        }
        for i in 0..s.rows {
            for j in 0..s.cols {
                let target = map.conductance(s.levels[i * s.cols + j]).unwrap();
                let got = a.conductance(i, j).unwrap();
                prop_assert!(((got.0 - target.0) / target.0).abs() <= scheme.tolerance + 1e-12);
            }
        }
    }

    /// Dot-product linearity: doubling all drive voltages doubles all column
    /// currents (parasitic network is linear).
    #[test]
    fn drive_linearity(s in scenario()) {
        let a = build(&s);
        let d1: Vec<RowDrive> = s.drives.iter().map(|&v| RowDrive::Voltage(Volts(v))).collect();
        let d2: Vec<RowDrive> = s.drives.iter().map(|&v| RowDrive::Voltage(Volts(2.0 * v))).collect();
        let mut pc = CachedParasiticCrossbar::new(CrossbarGeometry::PAPER);
        let r1 = pc.evaluate(&a, &d1).unwrap();
        let r2 = pc.evaluate(&a, &d2).unwrap();
        for (a1, a2) in r1.column_currents.iter().zip(&r2.column_currents) {
            let scale = a1.0.abs().max(1e-12);
            prop_assert!((a2.0 - 2.0 * a1.0).abs() / scale < 1e-7);
        }
    }
}

/// Asserts that every entry of `a`'s conductance table (and the
/// `conductance` accessor) equals, bit for bit, the effective conductance
/// recomputed from the cell, the fault map's gain and the open-column rule.
fn assert_table_coherent(a: &CrossbarArray) -> Result<(), proptest::test_runner::TestCaseError> {
    prop_assert_eq!(a.conductances().len(), a.rows() * a.cols());
    for i in 0..a.rows() {
        for j in 0..a.cols() {
            let g = a.cell(i, j).unwrap().conductance().0;
            let want = match a.fault_map() {
                None => g,
                Some(map) if map.col_defect(j) == Some(LineDefect::Open) => 0.0,
                Some(map) => g * map.cell_gain(i, j),
            };
            let got = a.conductances()[i * a.cols() + j].0;
            prop_assert_eq!(got.to_bits(), want.to_bits(), "cell ({}, {})", i, j);
            prop_assert_eq!(a.conductance(i, j).unwrap().0.to_bits(), want.to_bits());
        }
    }
    Ok(())
}

/// A fault map with stuck cells of both kinds, a lognormal gain spread and
/// one open column.
fn faulted_map(rows: usize, cols: usize, rng: &mut ChaCha8Rng) -> FaultMap {
    let mut model = FaultModel::stuck(0.2).unwrap();
    model.spread_sigma = 0.2;
    FaultMap::sample(&model, rows, cols, rng.gen())
        .and_then(|m| {
            m.with_stuck_cell(
                rng.gen_range(0..rows),
                rng.gen_range(0..cols),
                StuckKind::Lrs,
            )
        })
        .and_then(|m| {
            m.with_stuck_cell(
                rng.gen_range(0..rows),
                rng.gen_range(0..cols),
                StuckKind::Hrs,
            )
        })
        .and_then(|m| m.with_col_defect(rng.gen_range(0..cols), LineDefect::Open))
        .unwrap()
}

/// Applies mutation `kind` (one per `CrossbarArray` mutator), drawing its
/// arguments from `rng`.
fn mutate(a: &mut CrossbarArray, kind: u8, rng: &mut ChaCha8Rng) {
    let map = LevelMap::new(DeviceLimits::PAPER, 5).unwrap();
    let scheme = WriteScheme::paper();
    let (rows, cols) = (a.rows(), a.cols());
    let col = rng.gen_range(0..cols);
    let levels: Vec<u32> = (0..rows).map(|_| rng.gen_range(0..32)).collect();
    match kind {
        0 => {
            a.program_pattern(col, &levels, &map, &scheme, rng).unwrap();
        }
        1 => {
            let policy = RetryPolicy::default();
            a.program_pattern_retry_with(col, &levels, &map, &scheme, &policy, rng, &NoopRecorder)
                .unwrap();
        }
        2 => {
            let g = map.conductance(levels[0]).unwrap();
            a.set_conductance(rng.gen_range(0..rows), col, g).unwrap();
        }
        3 => {
            a.apply_retention(
                rng.gen_range(0..rows),
                col,
                Seconds(1e4),
                rng.gen_range(0.0..=1.0),
            )
            .unwrap();
        }
        4 => {
            a.age(
                Seconds(rng.gen_range(0.0..1e6)),
                &DriftModel::AGGRESSIVE,
                rng,
            )
            .unwrap();
        }
        5 => {
            a.age_to(Seconds(rng.gen_range(0.0..1e7)), &DriftModel::TYPICAL, rng)
                .unwrap();
        }
        6 => {
            let faults = faulted_map(rows, cols, rng);
            a.set_fault_map(faults).unwrap();
        }
        7 => a.clear_fault_map(),
        _ => {
            a.retrim_dummies();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every mutator keeps the conductance table equal to the effective
    /// conductance of every cell. A clone taken mid-sequence shares the
    /// table, and the original's later writes must never reach it.
    #[test]
    fn conductance_table_tracks_every_mutation(
        rows in 2usize..7,
        cols in 2usize..6,
        steps in proptest::collection::vec((0u8..9, any::<bool>()), 1..16),
        seed in any::<u64>(),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut a = CrossbarArray::new(rows, cols, DeviceLimits::PAPER).unwrap();
        a.equalize_rows(None).unwrap();
        let mut frozen: Vec<(CrossbarArray, Vec<Siemens>)> = Vec::new();
        assert_table_coherent(&a)?;
        for (kind, fork) in steps {
            if fork {
                frozen.push((a.clone(), a.conductances().to_vec()));
            }
            mutate(&mut a, kind, &mut rng);
            assert_table_coherent(&a)?;
            for (clone, snapshot) in &frozen {
                prop_assert_eq!(clone.conductances(), snapshot.as_slice());
                assert_table_coherent(clone)?;
            }
        }
    }
}

/// Deterministic sanity check kept outside proptest: a mid-sized array at
/// the paper's exact operating point solves through the sparse CG path.
#[test]
fn medium_array_solves_via_sparse_path() {
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    let map = LevelMap::new(DeviceLimits::PAPER, 5).unwrap();
    let scheme = WriteScheme::paper();
    let mut a = CrossbarArray::new(32, 10, DeviceLimits::PAPER).unwrap();
    for j in 0..10 {
        let levels: Vec<u32> = (0..32).map(|i| ((i * 5 + j * 11) % 32) as u32).collect();
        a.program_pattern(j, &levels, &map, &scheme, &mut rng)
            .unwrap();
    }
    a.equalize_rows(None).unwrap();
    let drives = vec![
        RowDrive::SourceConductance {
            g: Siemens(5e-4),
            supply: Volts(0.03),
        };
        32
    ];
    let readout = CachedParasiticCrossbar::new(CrossbarGeometry::PAPER)
        .evaluate(&a, &drives)
        .unwrap();
    // 32×10 → 640 crossing nodes > AUTO_DENSE_LIMIT → CG path.
    assert!(readout.node_count > 400);
    for i in &readout.column_currents {
        assert!(i.0 > 0.0);
    }
    assert!(readout.dissipated_power.0 > 0.0);
}
