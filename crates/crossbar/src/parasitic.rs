//! The crossbar's nodal-analysis netlist with wire parasitics.
//!
//! Every cell-to-cell span of a row or column bar becomes a resistor of
//! `geometry.segment_resistance()`; memristors sit at the crossings; the
//! rows are excited at one end through [`RowDrive`]s and the columns are
//! clamped at the opposite end (the paper's DWN inputs, "effectively
//! clamped" at the supply `V`, here taken as the 0 V reference).
//!
//! The resulting network reproduces the two signal-corruption mechanisms the
//! paper trades off in Fig. 9:
//!
//! * for *high* memristor conductances, IR drops along the bars corrupt the
//!   dot product, and
//! * for *low* conductances (low `G_TS`), the DTCS source conductance makes
//!   the delivered current a compressive function of the DAC code
//!   (Fig. 8b).
//!
//! One crate-private builder, `build_network`, is the only place the
//! netlist is written. The evaluator ([`crate::CachedParasiticCrossbar`])
//! prepares it once per topology and restamps values per query; the
//! settling study ([`crate::SettlingStudy`]) adds wire capacitance and
//! integrates it.

use crate::array::CrossbarArray;
use crate::drive::RowDrive;
use crate::geometry::CrossbarGeometry;
use crate::CrossbarError;
use spinamm_circuit::prelude::*;
use spinamm_circuit::units::{Amps, Watts};
use spinamm_circuit::ElementId;

/// Result of one parasitic crossbar evaluation.
#[derive(Debug, Clone)]
pub struct ColumnReadout {
    /// Current absorbed by each column clamp — the dot-product outputs.
    pub column_currents: Vec<Amps>,
    /// Voltage at each row's input end (diagnostic for drive loading).
    pub row_input_voltages: Vec<Volts>,
    /// Total power dissipated in the network (cells, dummies and wires).
    pub dissipated_power: Watts,
    /// Number of circuit nodes in the solved netlist.
    pub node_count: usize,
}

/// The element and node handles of a built crossbar netlist: what a caller
/// needs to restamp a query onto it and to read a solution out.
#[derive(Debug, Clone)]
pub(crate) struct NetworkHandles {
    /// Memristor elements, row-major.
    pub(crate) cell_ids: Vec<ElementId>,
    /// Per-row dummy conductance elements.
    pub(crate) dummy_ids: Vec<ElementId>,
    /// Column clamp elements (branch current = column output).
    pub(crate) clamp_ids: Vec<ElementId>,
    /// Per-row drive element (clamp, current source or DAC conductance).
    pub(crate) drive_ids: Vec<ElementId>,
    /// Per-row supply-rail clamp for DTCS rows (`None` otherwise).
    pub(crate) rail_ids: Vec<Option<ElementId>>,
    /// The input-end node of each row bar.
    pub(crate) row_inputs: Vec<NodeId>,
}

impl NetworkHandles {
    /// Reads a solved network out. A defective (open or shorted) column
    /// line never delivers its current to the sense node: an open bar
    /// floats, a shorted bar dumps to ground — either way the readout sees
    /// zero, even though a short still loads the row bars.
    pub(crate) fn readout(
        &self,
        array: &CrossbarArray,
        sol: &DcSolution,
        dissipated_power: Watts,
        node_count: usize,
    ) -> ColumnReadout {
        // Column output current = current flowing *into* the clamp from
        // the network = −(current delivered by the clamp).
        let column_currents = self
            .clamp_ids
            .iter()
            .enumerate()
            .map(|(j, &id)| {
                if array.column_disconnected(j) {
                    Amps(0.0)
                } else {
                    Amps(-sol.current(id).0)
                }
            })
            .collect();
        ColumnReadout {
            column_currents,
            row_input_voltages: self.row_inputs.iter().map(|&n| sol.voltage(n)).collect(),
            dissipated_power,
            node_count,
        }
    }
}

/// A built crossbar netlist with its handles.
pub(crate) struct CrossbarNetwork {
    pub(crate) net: Netlist,
    pub(crate) handles: NetworkHandles,
    /// Each column's free node farthest from its clamp (the row-0
    /// crossing), the last point of the column bar to settle.
    pub(crate) column_far_ends: Vec<NodeId>,
}

/// Builds the crossbar netlist for `array` under `drives`. Every element a
/// query may restamp owns a slot: each DTCS row gets its own supply-rail
/// node, and each row's dummy is stamped even at 0 S. With a positive
/// `wire_capacitance`, every crossing node of a lossy geometry also gets
/// that capacitance to ground (one segment's worth per node on each bar),
/// for transient settling studies.
///
/// # Errors
///
/// [`CrossbarError::InputLengthMismatch`] if `drives.len()` differs from
/// the row count.
#[allow(clippy::needless_range_loop)] // (i, j) grid indexing mirrors the array layout
pub(crate) fn build_network(
    array: &CrossbarArray,
    drives: &[RowDrive],
    geometry: CrossbarGeometry,
    wire_capacitance: Farads,
) -> Result<CrossbarNetwork, CrossbarError> {
    if drives.len() != array.rows() {
        return Err(CrossbarError::InputLengthMismatch {
            expected: array.rows(),
            found: drives.len(),
        });
    }
    let rows = array.rows();
    let cols = array.cols();
    let r_seg = geometry.segment_resistance();
    let lossless = r_seg.0 == 0.0;

    let mut net = Netlist::new();

    // Node layout. Lossless wires collapse each bar to a single node.
    let row_node: Vec<Vec<NodeId>>;
    let col_node: Vec<Vec<NodeId>>;
    if lossless {
        let r: Vec<NodeId> = (0..rows).map(|i| net.node(format!("row{i}"))).collect();
        let c: Vec<NodeId> = (0..cols).map(|j| net.node(format!("col{j}"))).collect();
        row_node = (0..rows).map(|i| vec![r[i]; cols]).collect();
        col_node = (0..rows).map(|_| c.clone()).collect();
    } else {
        row_node = (0..rows)
            .map(|i| (0..cols).map(|j| net.node(format!("r{i}_{j}"))).collect())
            .collect();
        col_node = (0..rows)
            .map(|i| (0..cols).map(|j| net.node(format!("c{i}_{j}"))).collect())
            .collect();
        // Row bar segments: input end at column 0.
        for i in 0..rows {
            for j in 0..cols - 1 {
                net.resistor(row_node[i][j], row_node[i][j + 1], r_seg);
            }
        }
        // Column bar segments: output (clamp) end at row `rows-1`, the far
        // side from the row inputs ("outward ends of the in-plane bars",
        // paper Fig. 1).
        for j in 0..cols {
            for i in 0..rows - 1 {
                net.resistor(col_node[i][j], col_node[i + 1][j], r_seg);
            }
        }
        // Wire capacitance, lumped to ground at every crossing node.
        if wire_capacitance.0 > 0.0 {
            for i in 0..rows {
                for j in 0..cols {
                    net.capacitor(row_node[i][j], Netlist::GROUND, wire_capacitance);
                    net.capacitor(col_node[i][j], Netlist::GROUND, wire_capacitance);
                }
            }
        }
    }

    // Memristors at the crossings.
    let mut cell_ids = Vec::with_capacity(rows * cols);
    for i in 0..rows {
        for j in 0..cols {
            let g = array.conductance(i, j).expect("bounded by construction");
            cell_ids.push(net.conductance(row_node[i][j], col_node[i][j], g));
        }
    }

    // Dummy conductances: from the far end of each row bar to the clamp
    // reference (ground in this frame).
    let dummy_ids = (0..rows)
        .map(|i| {
            let dummy = array.dummy_conductance(i).expect("row bounded");
            net.conductance(row_node[i][cols - 1], Netlist::GROUND, dummy)
        })
        .collect();

    // Column clamps at the 0 V reference; the clamp element reports its
    // branch current, which is the column output.
    let clamp_ids = (0..cols)
        .map(|j| net.voltage_source(col_node[rows - 1][j], Volts(0.0)))
        .collect();

    // Row drives at the input end (column 0 side).
    let mut drive_ids = Vec::with_capacity(rows);
    let mut rail_ids = Vec::with_capacity(rows);
    let mut row_inputs = Vec::with_capacity(rows);
    for (i, drive) in drives.iter().enumerate() {
        let input = row_node[i][0];
        row_inputs.push(input);
        match *drive {
            RowDrive::Voltage(v) => {
                drive_ids.push(net.voltage_source(input, v));
                rail_ids.push(None);
            }
            RowDrive::Current(amps) => {
                drive_ids.push(net.current_source(Netlist::GROUND, input, amps));
                rail_ids.push(None);
            }
            RowDrive::SourceConductance { g, supply } => {
                let rail = net.node(format!("rail{i}"));
                rail_ids.push(Some(net.voltage_source(rail, supply)));
                drive_ids.push(net.conductance(rail, input, g));
            }
        }
    }

    Ok(CrossbarNetwork {
        net,
        handles: NetworkHandles {
            cell_ids,
            dummy_ids,
            clamp_ids,
            drive_ids,
            rail_ids,
            row_inputs,
        },
        column_far_ends: col_node[0].clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CachedParasiticCrossbar;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use spinamm_circuit::units::Siemens;
    use spinamm_memristor::{DeviceLimits, LevelMap, WriteScheme};

    fn programmed_array(rows: usize, cols: usize, seed: u64) -> CrossbarArray {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let map = LevelMap::new(DeviceLimits::PAPER, 5).unwrap();
        let scheme = WriteScheme::paper();
        let mut a = CrossbarArray::new(rows, cols, DeviceLimits::PAPER).unwrap();
        for j in 0..cols {
            let levels: Vec<u32> = (0..rows).map(|i| ((i * 13 + j * 7) % 32) as u32).collect();
            a.program_pattern(j, &levels, &map, &scheme, &mut rng)
                .unwrap();
        }
        a
    }

    #[test]
    fn lossless_netlist_matches_ideal_formula() {
        let a = programmed_array(6, 4, 1);
        let drives: Vec<RowDrive> = (0..6)
            .map(|i| RowDrive::Voltage(Volts(0.005 * (i + 1) as f64)))
            .collect();
        let voltages: Vec<Volts> = (0..6).map(|i| Volts(0.005 * (i + 1) as f64)).collect();

        let mut pc = CachedParasiticCrossbar::new(CrossbarGeometry::lossless());
        let readout = pc.evaluate(&a, &drives).unwrap();
        let ideal = a.ideal_column_currents(&voltages).unwrap();
        for (got, want) in readout.column_currents.iter().zip(&ideal) {
            assert!(
                (got.0 - want.0).abs() < 1e-12,
                "netlist {} vs ideal {}",
                got.0,
                want.0
            );
        }
    }

    #[test]
    fn lossless_dtcs_matches_driven_formula() {
        let mut a = programmed_array(5, 3, 2);
        a.equalize_rows(None).unwrap();
        let drives: Vec<RowDrive> = (0..5)
            .map(|i| RowDrive::SourceConductance {
                g: Siemens(1e-4 * (i + 1) as f64),
                supply: Volts(0.03),
            })
            .collect();
        let mut pc = CachedParasiticCrossbar::new(CrossbarGeometry::lossless());
        let readout = pc.evaluate(&a, &drives).unwrap();
        let analytic = a.driven_column_currents(&drives).unwrap();
        for (got, want) in readout.column_currents.iter().zip(&analytic) {
            let scale = want.0.abs().max(1e-12);
            assert!(
                (got.0 - want.0).abs() / scale < 1e-9,
                "netlist {} vs analytic {}",
                got.0,
                want.0
            );
        }
    }

    #[test]
    fn parasitics_reduce_column_currents() {
        let a = programmed_array(8, 4, 3);
        let drives = vec![RowDrive::Voltage(Volts(0.03)); 8];
        let lossless = CachedParasiticCrossbar::new(CrossbarGeometry::lossless())
            .evaluate(&a, &drives)
            .unwrap();
        // Exaggerated wire resistance to make the effect unmistakable.
        let lossy_geom = CrossbarGeometry::new(
            spinamm_circuit::units::Micrometers(1.0),
            spinamm_circuit::units::Ohms(50.0),
            spinamm_circuit::units::Farads(0.0),
        )
        .unwrap();
        let lossy = CachedParasiticCrossbar::new(lossy_geom)
            .evaluate(&a, &drives)
            .unwrap();
        let sum_ideal: f64 = lossless.column_currents.iter().map(|i| i.0).sum();
        let sum_lossy: f64 = lossy.column_currents.iter().map(|i| i.0).sum();
        assert!(
            sum_lossy < sum_ideal * 0.999,
            "IR drops must reduce total output: {sum_lossy} vs {sum_ideal}"
        );
        // And all currents remain positive.
        for i in &lossy.column_currents {
            assert!(i.0 > 0.0);
        }
    }

    #[test]
    fn paper_geometry_perturbs_mildly() {
        // With the paper's real numbers (0.1 Ω per segment vs ≥1 kΩ cells),
        // parasitic corruption at small size is sub-1%.
        let a = programmed_array(8, 4, 4);
        let drives = vec![RowDrive::Voltage(Volts(0.03)); 8];
        let ideal = CachedParasiticCrossbar::new(CrossbarGeometry::lossless())
            .evaluate(&a, &drives)
            .unwrap();
        let paper = CachedParasiticCrossbar::new(CrossbarGeometry::PAPER)
            .evaluate(&a, &drives)
            .unwrap();
        for (i, (got, want)) in paper
            .column_currents
            .iter()
            .zip(&ideal.column_currents)
            .enumerate()
        {
            let rel = (got.0 - want.0).abs() / want.0;
            assert!(rel < 0.01, "column {i} deviates {rel}");
            assert!(
                got.0 <= want.0 * (1.0 + 1e-9),
                "IR drop cannot boost output"
            );
        }
    }

    #[test]
    fn current_drive_conserved_through_network() {
        // All injected current must come out of the clamps (plus dummies;
        // every dummy is 0 S here).
        let a = programmed_array(4, 3, 5);
        let drives = vec![RowDrive::Current(Amps(2e-6)); 4];
        let readout = CachedParasiticCrossbar::new(CrossbarGeometry::PAPER)
            .evaluate(&a, &drives)
            .unwrap();
        let total_in = 8e-6;
        let total_out: f64 = readout.column_currents.iter().map(|i| i.0).sum();
        assert!(
            (total_in - total_out).abs() / total_in < 1e-9,
            "KCL: in {total_in} out {total_out}"
        );
    }

    #[test]
    fn dissipated_power_positive_and_scales() {
        let mut a = programmed_array(4, 3, 6);
        a.equalize_rows(None).unwrap();
        let mk = |dv: f64| {
            vec![
                RowDrive::SourceConductance {
                    g: Siemens(5e-4),
                    supply: Volts(dv),
                };
                4
            ]
        };
        let mut pc = CachedParasiticCrossbar::new(CrossbarGeometry::PAPER);
        let p1 = pc.evaluate(&a, &mk(0.03)).unwrap().dissipated_power;
        let p2 = pc.evaluate(&a, &mk(0.06)).unwrap().dissipated_power;
        assert!(p1.0 > 0.0);
        assert!((p2.0 / p1.0 - 4.0).abs() < 1e-6, "P ∝ V²: {}", p2.0 / p1.0);
    }

    #[test]
    fn drive_length_checked() {
        let a = programmed_array(4, 3, 7);
        let drives = [RowDrive::Voltage(Volts(0.03)); 3];
        assert!(matches!(
            build_network(&a, &drives, CrossbarGeometry::PAPER, Farads(0.0)),
            Err(CrossbarError::InputLengthMismatch { .. })
        ));
    }

    #[test]
    fn node_count_reported() {
        let a = programmed_array(4, 3, 8);
        let drives = vec![RowDrive::Voltage(Volts(0.03)); 4];
        let lossy = CachedParasiticCrossbar::new(CrossbarGeometry::PAPER)
            .evaluate(&a, &drives)
            .unwrap();
        // 2 × 4 × 3 crossing nodes + ground.
        assert_eq!(lossy.node_count, 25);
        let lossless = CachedParasiticCrossbar::new(CrossbarGeometry::lossless())
            .evaluate(&a, &drives)
            .unwrap();
        // 4 row + 3 col + ground.
        assert_eq!(lossless.node_count, 8);
    }

    #[test]
    fn row_input_voltages_track_drive() {
        let mut a = programmed_array(3, 3, 9);
        a.equalize_rows(None).unwrap();
        let drives = vec![
            RowDrive::SourceConductance {
                g: Siemens(1e-3),
                supply: Volts(0.03),
            };
            3
        ];
        let readout = CachedParasiticCrossbar::new(CrossbarGeometry::lossless())
            .evaluate(&a, &drives)
            .unwrap();
        for v in &readout.row_input_voltages {
            assert!(v.0 > 0.0 && v.0 < 0.03, "input voltage {v} inside (0, ΔV)");
        }
    }
}
