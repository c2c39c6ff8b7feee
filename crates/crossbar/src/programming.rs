//! Crossbar programming bias schemes and half-select disturb.
//!
//! Writing one cell of a selector-less crossbar puts partial voltages on
//! every other cell of its row and column. The standard countermeasure is
//! **V/2 biasing**: the selected row gets `+V_w/2`, the selected column
//! `−V_w/2`, and every unselected line sits at 0 — so the selected cell
//! sees the full `V_w` while half-selected cells see only `V_w/2` and
//! unselected cells see ~0. The scheme works *because* the devices are
//! threshold writers ([`spinamm_memristor::pulse`]): as long as
//! `V_w/2 < V_th`, half-select pulses move nothing.
//!
//! The paper leans on the literature for multi-level crossbar writing
//! ("multi-level write techniques for memristors in crossbar arrays have
//! been proposed and demonstrated" \[1-2\]); this module substantiates the
//! claim for our device model and quantifies what happens when the margin
//! is violated.

use crate::array::CrossbarArray;
use crate::CrossbarError;
use spinamm_circuit::units::{Seconds, Siemens, Volts};
use spinamm_memristor::pulse::PulseWriteModel;
use spinamm_memristor::LevelMap;

/// How unselected lines are biased during a write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BiasScheme {
    /// One-transistor-per-cell isolation (1T1R): no disturb at all, at the
    /// cost of a selector device per cell. The reference scheme.
    Isolated,
    /// V/2 biasing: half-selected cells (same row or column as the victim)
    /// see `V_w/2` per aggressor pulse.
    HalfVoltage,
}

/// Result of programming a whole array under a bias scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct DisturbReport {
    /// Total write pulses applied to selected cells.
    pub write_pulses: u64,
    /// Total half-select pulses seen by victims (0 for `Isolated`).
    pub half_select_pulses: u64,
    /// RMS relative conductance error vs the targets after programming.
    pub rms_error: f64,
    /// Worst-case relative error.
    pub max_error: f64,
    /// Number of cells whose final error exceeds the given tolerance.
    pub cells_out_of_tolerance: usize,
}

/// Sequential whole-array programmer with explicit voltage pulses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrayProgrammer {
    /// Write pulse amplitude `V_w` (applied across the selected cell).
    pub write_voltage: Volts,
    /// Pulse width.
    pub pulse_width: Seconds,
    /// Device write dynamics.
    pub model: PulseWriteModel,
    /// Bias scheme.
    pub scheme: BiasScheme,
}

impl ArrayProgrammer {
    /// A programmer using the typical Ag-Si pulse model with a `V_w` that
    /// leaves the paper's intended half-select margin
    /// (`V_w/2 = 1.2 V < V_th = 1.3 V`).
    #[must_use]
    pub fn safe(scheme: BiasScheme) -> Self {
        Self {
            write_voltage: Volts(2.4),
            pulse_width: Seconds(100e-9),
            model: PulseWriteModel::TYPICAL,
            scheme,
        }
    }

    /// A programmer whose half-select voltage *exceeds* the device
    /// threshold (`V_w/2 = 1.5 V > V_th = 1.3 V`) — the failure case the
    /// V/2 margin guards against.
    #[must_use]
    pub fn unsafe_margin(scheme: BiasScheme) -> Self {
        Self {
            write_voltage: Volts(3.0),
            pulse_width: Seconds(100e-9),
            model: PulseWriteModel::TYPICAL,
            scheme,
        }
    }

    /// The half-select voltage of this programmer.
    #[must_use]
    pub fn half_select_voltage(&self) -> Volts {
        Volts(self.write_voltage.0 / 2.0)
    }

    /// `true` when half-select pulses are sub-threshold (no disturb
    /// possible).
    #[must_use]
    pub fn has_disturb_margin(&self) -> bool {
        let v = self.half_select_voltage().0;
        v < self.model.set_threshold.0 && v < self.model.reset_threshold.0
    }

    /// Programs every cell of `array` to its level target (row-major
    /// `targets`, one level per cell) by sequential pulse trains, applying
    /// half-select pulses to the victims per the bias scheme, and reports
    /// the resulting error statistics against `tolerance`.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InputLengthMismatch`] if `targets.len()`
    /// differs from the cell count, or a device error for bad levels.
    pub fn program(
        &self,
        array: &mut CrossbarArray,
        targets: &[u32],
        map: &LevelMap,
        tolerance: f64,
    ) -> Result<DisturbReport, CrossbarError> {
        let rows = array.rows();
        let cols = array.cols();
        if targets.len() != rows * cols {
            return Err(CrossbarError::InputLengthMismatch {
                expected: rows * cols,
                found: targets.len(),
            });
        }
        let mut write_pulses = 0u64;
        let mut half_select_pulses = 0u64;

        for i in 0..rows {
            for j in 0..cols {
                let target = map.conductance(targets[i * cols + j])?;
                let have = array.conductance(i, j)?;
                let span = Siemens(target.0 - have.0);
                if span.0 == 0.0 {
                    continue;
                }
                let polarity = if span.0 > 0.0 { 1.0 } else { -1.0 };
                let v_sel = Volts(self.write_voltage.0 * polarity);
                let v_half = Volts(self.half_select_voltage().0 * polarity);
                let n = self.model.pulses_for(span, v_sel, self.pulse_width);
                if n == u32::MAX {
                    return Err(CrossbarError::InvalidParameter {
                        what: "write voltage is below the device threshold",
                    });
                }
                // Selected cell: n full pulses (the last one overshoots by
                // less than one pulse quantum; a verify step would trim it,
                // here we stop exactly at the target to isolate *disturb*
                // error from pulse-quantization error).
                array.set_conductance(i, j, target)?;
                write_pulses += u64::from(n);

                // Victims: every other cell in row i and column j.
                if self.scheme == BiasScheme::HalfVoltage {
                    for jj in 0..cols {
                        if jj != j {
                            let mut cell = array.cell(i, jj)?;
                            for _ in 0..n {
                                cell.apply_voltage_pulse(v_half, self.pulse_width, &self.model);
                            }
                            array.set_conductance(i, jj, cell.conductance())?;
                            half_select_pulses += u64::from(n);
                        }
                    }
                    for ii in 0..rows {
                        if ii != i {
                            let mut cell = array.cell(ii, j)?;
                            for _ in 0..n {
                                cell.apply_voltage_pulse(v_half, self.pulse_width, &self.model);
                            }
                            array.set_conductance(ii, j, cell.conductance())?;
                            half_select_pulses += u64::from(n);
                        }
                    }
                }
            }
        }

        // Error statistics vs targets.
        let mut sq = 0.0;
        let mut max_error = 0.0_f64;
        let mut out = 0usize;
        for i in 0..rows {
            for j in 0..cols {
                let target = map.conductance(targets[i * cols + j])?;
                let got = array.conductance(i, j)?;
                let err = ((got.0 - target.0) / target.0).abs();
                sq += err * err;
                max_error = max_error.max(err);
                if err > tolerance {
                    out += 1;
                }
            }
        }
        Ok(DisturbReport {
            write_pulses,
            half_select_pulses,
            rms_error: (sq / (rows * cols) as f64).sqrt(),
            max_error,
            cells_out_of_tolerance: out,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinamm_memristor::DeviceLimits;

    fn targets(rows: usize, cols: usize) -> Vec<u32> {
        (0..rows * cols).map(|k| (k * 11 % 32) as u32).collect()
    }

    fn run(programmer: &ArrayProgrammer, rows: usize, cols: usize) -> DisturbReport {
        let map = LevelMap::new(DeviceLimits::PAPER, 5).unwrap();
        let mut array = CrossbarArray::new(rows, cols, DeviceLimits::PAPER).unwrap();
        programmer
            .program(&mut array, &targets(rows, cols), &map, 0.03)
            .unwrap()
    }

    #[test]
    fn safe_v2_scheme_has_no_disturb() {
        let p = ArrayProgrammer::safe(BiasScheme::HalfVoltage);
        assert!(p.has_disturb_margin());
        let report = run(&p, 8, 6);
        assert!(report.half_select_pulses > 0, "victims were exposed");
        assert_eq!(report.cells_out_of_tolerance, 0);
        assert!(report.max_error < 1e-12, "max error {}", report.max_error);
    }

    #[test]
    fn isolated_scheme_never_disturbs() {
        let p = ArrayProgrammer::unsafe_margin(BiasScheme::Isolated);
        let report = run(&p, 8, 6);
        assert_eq!(report.half_select_pulses, 0);
        assert_eq!(report.cells_out_of_tolerance, 0);
    }

    #[test]
    fn violated_margin_corrupts_cells() {
        let p = ArrayProgrammer::unsafe_margin(BiasScheme::HalfVoltage);
        assert!(!p.has_disturb_margin());
        let report = run(&p, 8, 6);
        assert!(
            report.cells_out_of_tolerance > 0,
            "disturb must corrupt cells: max error {}",
            report.max_error
        );
        assert!(report.rms_error > 0.0);
    }

    #[test]
    fn disturb_grows_with_array_size() {
        // More aggressors per victim line → worse corruption.
        let p = ArrayProgrammer::unsafe_margin(BiasScheme::HalfVoltage);
        let small = run(&p, 4, 4);
        let large = run(&p, 12, 12);
        assert!(
            large.rms_error > small.rms_error,
            "12x12 rms {} vs 4x4 rms {}",
            large.rms_error,
            small.rms_error
        );
    }

    #[test]
    fn pulse_accounting() {
        let p = ArrayProgrammer::safe(BiasScheme::HalfVoltage);
        let report = run(&p, 5, 4);
        // Every selected write exposes (cols−1) + (rows−1) victims.
        assert_eq!(
            report.half_select_pulses,
            report.write_pulses * ((5 - 1) + (4 - 1)) as u64
        );
    }

    #[test]
    fn validation() {
        let p = ArrayProgrammer::safe(BiasScheme::HalfVoltage);
        let map = LevelMap::new(DeviceLimits::PAPER, 5).unwrap();
        let mut array = CrossbarArray::new(4, 4, DeviceLimits::PAPER).unwrap();
        assert!(matches!(
            p.program(&mut array, &[0; 3], &map, 0.03),
            Err(CrossbarError::InputLengthMismatch { .. })
        ));
        // Sub-threshold write voltage is rejected.
        let weak = ArrayProgrammer {
            write_voltage: Volts(1.0),
            ..p
        };
        assert!(matches!(
            weak.program(&mut array, &targets(4, 4), &map, 0.03),
            Err(CrossbarError::InvalidParameter { .. })
        ));
    }
}
