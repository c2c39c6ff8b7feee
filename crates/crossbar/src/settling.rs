//! RC settling analysis of the crossbar (supports the 100 MHz claim).
//!
//! Table 2 lists the Cu bars' capacitance (0.4 fF/µm) but the paper never
//! shows the settling budget explicitly — the 100 MHz input rate implies
//! the column currents settle well inside a 10 ns SAR cycle. This module
//! verifies that:
//!
//! * [`SettlingStudy::transient`] builds the full parasitic netlist *with*
//!   wire capacitance and integrates the step response
//!   ([`spinamm_circuit::transient`]), reporting the slowest node's
//!   settling time;
//! * [`SettlingStudy::elmore_estimate`] gives the closed-form Elmore delay
//!   of a distributed RC bar (`τ ≈ r·c·L²/2` plus the driver term), which
//!   extrapolates to array sizes too large for the dense transient path.
//!
//! With the paper's numbers (0.1 Ω and 0.04 fF per cell pitch, kΩ-class
//! terminations) both agree that the bars settle in **picoseconds** — four
//! orders of magnitude inside the cycle — so the sampling rate is limited
//! by the spin devices and the SAR loop, not the wires. That is the design
//! margin behind Table 2's 100 MHz row.

use crate::array::CrossbarArray;
use crate::drive::RowDrive;
use crate::geometry::CrossbarGeometry;
use crate::parasitic::build_network;
use crate::CrossbarError;
use spinamm_circuit::transient::TransientAnalysis;
use spinamm_circuit::units::{Ohms, Seconds, Volts};

/// Settling analysis runner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SettlingStudy {
    /// Wiring geometry.
    pub geometry: CrossbarGeometry,
    /// Relative tolerance defining "settled" (fraction of the final value).
    pub tolerance: f64,
}

/// Result of a transient settling run.
#[derive(Debug, Clone)]
pub struct SettlingReport {
    /// The slowest settling time over all row-input and column nodes, or
    /// `None` if some node failed to settle within the simulated window.
    pub max_settling: Option<Seconds>,
    /// Per-column settling time at the column's free node farthest from
    /// its clamp (the row-0 crossing).
    pub column_settling: Vec<Option<Seconds>>,
    /// The simulated window.
    pub window: Seconds,
}

impl SettlingReport {
    /// `true` when every observed node settles within `cycle`.
    #[must_use]
    pub fn settles_within(&self, cycle: Seconds) -> bool {
        self.max_settling.is_some_and(|t| t.0 <= cycle.0)
    }
}

impl SettlingStudy {
    /// Creates a study with the paper's geometry and a 0.1 % band.
    #[must_use]
    pub fn new(geometry: CrossbarGeometry) -> Self {
        Self {
            geometry,
            tolerance: 1e-3,
        }
    }

    /// Closed-form Elmore delay of one bar: a distributed RC line of
    /// `cells` segments (resistance `r_seg`, capacitance `c_seg` each)
    /// driven through `driver_resistance`:
    /// `τ = R_drv·C_total + r·c·cells²/2`.
    #[must_use]
    pub fn elmore_estimate(&self, cells: usize, driver_resistance: Ohms) -> Seconds {
        let r_seg = self.geometry.segment_resistance().0;
        let c_seg = self.geometry.segment_capacitance().0;
        let n = cells as f64;
        Seconds(driver_resistance.0 * c_seg * n + r_seg * c_seg * n * n / 2.0)
    }

    /// Runs the transient step response of the full parasitic netlist
    /// (wires + capacitance) under the given drives, from a discharged
    /// state, over `window`, and reports settling times.
    ///
    /// The netlist is solved densely per step, so this is intended for
    /// small-to-medium arrays (≤ ~400 free nodes); larger arrays use
    /// [`SettlingStudy::elmore_estimate`], which the tests cross-validate
    /// against the transient at overlapping sizes.
    ///
    /// # Errors
    ///
    /// * [`CrossbarError::InvalidParameter`] for a lossless geometry (no RC
    ///   to integrate) or a non-positive window.
    /// * Solver errors from the transient path.
    pub fn transient(
        &self,
        array: &CrossbarArray,
        drives: &[RowDrive],
        window: Seconds,
        steps: usize,
    ) -> Result<SettlingReport, CrossbarError> {
        if self.geometry.segment_resistance().0 == 0.0
            || self.geometry.segment_capacitance().0 == 0.0
        {
            return Err(CrossbarError::InvalidParameter {
                what: "settling analysis requires non-zero wire resistance and capacitance",
            });
        }
        if !(window.0.is_finite() && window.0 > 0.0) || steps == 0 {
            return Err(CrossbarError::InvalidParameter {
                what: "settling window and step count must be positive",
            });
        }
        let network = build_network(
            array,
            drives,
            self.geometry,
            self.geometry.segment_capacitance(),
        )?;
        let analysis = TransientAnalysis::new(Seconds(window.0 / steps as f64), window)
            .map_err(CrossbarError::Circuit)?;
        let result = analysis.run(&network.net).map_err(CrossbarError::Circuit)?;

        let tolerance_for = |node| {
            let v_final = result.final_voltage(node).0.abs();
            Volts((v_final * self.tolerance).max(1e-9))
        };

        let mut max_settling: Option<Seconds> = Some(Seconds(0.0));
        let mut track = |t: Option<Seconds>| match (t, max_settling) {
            (Some(t), Some(m)) => max_settling = Some(Seconds(m.0.max(t.0))),
            _ => max_settling = None,
        };
        for &n in &network.handles.row_inputs {
            track(result.settling_time(n, tolerance_for(n)));
        }
        // A column's clamped end is pinned from the first step; its free
        // node farthest from the clamp is the last to settle.
        let column_settling: Vec<Option<Seconds>> = network
            .column_far_ends
            .iter()
            .map(|&n| result.settling_time(n, tolerance_for(n)))
            .collect();
        for t in &column_settling {
            track(*t);
        }

        Ok(SettlingReport {
            max_settling,
            column_settling,
            window,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinamm_circuit::units::{Farads, Micrometers, Siemens};
    use spinamm_memristor::DeviceLimits;

    fn programmed(rows: usize, cols: usize) -> CrossbarArray {
        let mut a = CrossbarArray::new(rows, cols, DeviceLimits::PAPER).unwrap();
        for i in 0..rows {
            for j in 0..cols {
                let g = DeviceLimits::PAPER.g_min().0
                    + ((i * 7 + j * 3) % 32) as f64 / 31.0
                        * (DeviceLimits::PAPER.g_max().0 - DeviceLimits::PAPER.g_min().0);
                a.set_conductance(i, j, Siemens(g)).unwrap();
            }
        }
        a.equalize_rows(None).unwrap();
        a
    }

    fn drives(rows: usize) -> Vec<RowDrive> {
        vec![
            RowDrive::SourceConductance {
                g: Siemens(4e-4),
                supply: Volts(0.030),
            };
            rows
        ]
    }

    #[test]
    fn paper_geometry_settles_in_picoseconds() {
        let study = SettlingStudy::new(CrossbarGeometry::PAPER);
        let array = programmed(8, 4);
        let report = study
            .transient(&array, &drives(8), Seconds(100e-12), 400)
            .unwrap();
        let t = report.max_settling.expect("settles within the window");
        assert!(t.0 < 50e-12, "settling {} s", t.0);
        // Four orders of magnitude inside the 10 ns SAR cycle.
        assert!(report.settles_within(Seconds(10e-9)));
        assert_eq!(report.column_settling.len(), 4);
        // Each column is watched at a free node, not at its clamp, so none
        // reads as settled on the first step.
        let step = 100e-12 / 400.0;
        for (j, t) in report.column_settling.iter().enumerate() {
            let t = t.expect("column settles within the window").0;
            assert!(t > step, "column {j} settled at {t} s");
        }
    }

    #[test]
    fn elmore_matches_transient_order() {
        // Exaggerated wires so the settling is resolvable, then compare the
        // transient result against the Elmore estimate within a factor 5.
        let geometry =
            CrossbarGeometry::new(Micrometers(1.0), Ohms(2000.0), Farads(40e-15)).unwrap();
        let study = SettlingStudy::new(geometry);
        let array = programmed(10, 3);
        let report = study
            .transient(&array, &drives(10), Seconds(2e-6), 2000)
            .unwrap();
        let t = report.max_settling.expect("settles").0;
        // Driver: the DTCS source impedance (1/4e-4 = 2.5 kΩ).
        let elmore = study.elmore_estimate(10, Ohms(2500.0)).0;
        let ratio = t / elmore;
        assert!(
            (0.2..8.0).contains(&ratio),
            "transient {t} vs Elmore {elmore} (ratio {ratio})"
        );
    }

    #[test]
    fn elmore_scales_quadratically_with_length() {
        let study = SettlingStudy::new(CrossbarGeometry::PAPER);
        // With a weak driver the line term dominates.
        let short = study.elmore_estimate(32, Ohms(0.001)).0;
        let long = study.elmore_estimate(128, Ohms(0.001)).0;
        assert!((long / short - 16.0).abs() < 0.1, "ratio {}", long / short);
    }

    #[test]
    fn paper_scale_elmore_is_far_inside_the_cycle() {
        // The 128-cell bar with a kΩ-class driver: the budget behind the
        // paper's 100 MHz (10 ns cycle) claim.
        let study = SettlingStudy::new(CrossbarGeometry::PAPER);
        let tau = study.elmore_estimate(128, Ohms(3_000.0)).0;
        // Even 10 τ (0.005 % settling) stays far below 10 ns.
        assert!(10.0 * tau < 10e-9, "10τ = {} s", 10.0 * tau);
    }

    #[test]
    fn validation() {
        let lossless = SettlingStudy::new(CrossbarGeometry::lossless());
        let array = programmed(4, 3);
        assert!(matches!(
            lossless.transient(&array, &drives(4), Seconds(1e-9), 100),
            Err(CrossbarError::InvalidParameter { .. })
        ));
        let study = SettlingStudy::new(CrossbarGeometry::PAPER);
        assert!(study
            .transient(&array, &drives(4), Seconds(0.0), 100)
            .is_err());
        assert!(study
            .transient(&array, &drives(4), Seconds(1e-9), 0)
            .is_err());
        // Drive length mismatch propagates from the builder.
        assert!(matches!(
            study.transient(&array, &drives(3), Seconds(1e-9), 10),
            Err(CrossbarError::InputLengthMismatch { .. })
        ));
    }
}
