//! The memristor array: storage, programming and ideal evaluation.

use crate::drive::RowDrive;
use crate::CrossbarError;
use rand::Rng;
use spinamm_circuit::units::{Amps, Joules, Siemens, Volts, Watts};
use spinamm_faults::{FaultMap, LineDefect, StuckKind};
use spinamm_memristor::{
    DeviceLimits, DeviceState, LevelMap, Memristor, MemristorError, RetryPolicy, WriteReport,
    WriteScheme,
};
use spinamm_telemetry::{NoopRecorder, Recorder};
use std::sync::Arc;

/// A `rows × cols` crossbar of memristors, plus one optional *dummy*
/// conductance per row.
///
/// Patterns live in columns: column `j` stores one template, and the current
/// leaving column `j` is the correlation of the input vector with that
/// template. The dummy conductances implement the paper's G_TS equalization:
/// "dummy memristors are added for each horizontal input bar such that G_ST
/// is equal for all horizontal bars", which makes every DTCS DAC see the same
/// load regardless of the stored data.
///
/// An optional [`FaultMap`] injects device defects: a stuck cell reads its
/// pinned extreme (LRS at `g_max`, HRS at `g_min`), and per-cell lognormal
/// gains and line defects are applied by [`CrossbarArray::conductance`], so
/// every evaluation path (ideal, driven, parasitic) sees one consistent
/// faulty array.
///
/// Each cell is stored as a 32-byte [`DeviceState`]. The array's `limits`
/// and the fault map's stuck-at pin make it a [`Memristor`] again
/// ([`CrossbarArray::cell`]), and every mutator runs the device's own
/// method on that view. The array also owns one dense, row-major table of
/// the effective conductances ([`CrossbarArray::conductances`]); every
/// mutator refreshes the entries it touches, so reads, row loads and the
/// dummy re-trim scan 8-byte values instead of devices. Clones share the
/// cell states and the table until one of them writes: the writer then
/// copies that array's cells and table, and a clone that only reads copies
/// neither.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossbarArray {
    rows: usize,
    cols: usize,
    limits: DeviceLimits,
    /// Copy-on-write across clones.
    cells: Arc<Cells>,
    dummy: Vec<Siemens>,
    faults: Option<FaultMap>,
}

/// The per-cell data of a [`CrossbarArray`]. A write always updates a
/// state and its table entry together, so one `Arc` covers both and a
/// write makes one uniqueness check, not two.
#[derive(Debug, Clone, PartialEq)]
struct Cells {
    /// Cell `(i, j)`'s device state at `i · cols + j`.
    states: Vec<DeviceState>,
    /// `conductance(i, j)` at `i · cols + j`.
    table: Vec<Siemens>,
}

/// Summary of a retry-based column programming pass
/// ([`CrossbarArray::program_pattern_retry_with`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PatternRetryReport {
    /// Total pulses applied across the column.
    pub pulses: u32,
    /// Total write energy across the column.
    pub energy: Joules,
    /// Cells that needed at least one escalated retry.
    pub retried: u32,
    /// Cells that never verified in band (stuck-at defects).
    pub unrecoverable: u32,
}

impl CrossbarArray {
    /// Creates an array with every cell in the off state and no dummies.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidParameter`] if either dimension is
    /// zero.
    pub fn new(rows: usize, cols: usize, limits: DeviceLimits) -> Result<Self, CrossbarError> {
        if rows == 0 || cols == 0 {
            return Err(CrossbarError::InvalidParameter {
                what: "crossbar dimensions must be non-zero",
            });
        }
        let cell = Memristor::new(limits);
        Ok(Self {
            rows,
            cols,
            limits,
            cells: Arc::new(Cells {
                states: vec![cell.state(); rows * cols],
                table: vec![cell.conductance(); rows * cols],
            }),
            dummy: vec![Siemens::ZERO; rows],
            faults: None,
        })
    }

    /// Number of rows (input dimension).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (stored patterns).
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The device window of the cells.
    #[must_use]
    pub fn limits(&self) -> DeviceLimits {
        self.limits
    }

    fn check(&self, row: usize, col: usize) -> Result<usize, CrossbarError> {
        if row < self.rows && col < self.cols {
            Ok(row * self.cols + col)
        } else {
            Err(CrossbarError::IndexOutOfBounds {
                row,
                col,
                rows: self.rows,
                cols: self.cols,
            })
        }
    }

    /// The device at `(row, col)`: the cell's stored state under the
    /// array's limits, pinned when the fault map marks the cell stuck.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::IndexOutOfBounds`] for a bad index.
    pub fn cell(&self, row: usize, col: usize) -> Result<Memristor, CrossbarError> {
        Ok(self.device(self.check(row, col)?))
    }

    /// [`CrossbarArray::cell`] at row-major index `idx`.
    fn device(&self, idx: usize) -> Memristor {
        let pin = stuck_pin(self.limits, self.faults.as_ref(), self.cols, idx);
        Memristor::from_state(self.limits, self.cells.states[idx], pin)
    }

    /// The *effective* conductance at `(row, col)` — what every evaluation
    /// path stamps into the network. With a fault map installed this folds
    /// in the cell's stuck-at pin, its lognormal read gain, and open-column
    /// disconnects (an open column's cells cannot load their rows). Without
    /// one, it is simply the programmed conductance.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::IndexOutOfBounds`] for a bad index.
    pub fn conductance(&self, row: usize, col: usize) -> Result<Siemens, CrossbarError> {
        Ok(self.cells.table[self.check(row, col)?])
    }

    /// Every cell's effective conductance ([`CrossbarArray::conductance`]),
    /// row-major: entry `row · cols + col`.
    #[must_use]
    pub fn conductances(&self) -> &[Siemens] {
        &self.cells.table
    }

    /// Write access to the cells, copied first if a clone shares them.
    /// Every mutator takes one writer for its whole run of cell writes.
    fn writer(&mut self) -> CellWriter<'_> {
        CellWriter {
            limits: self.limits,
            cols: self.cols,
            faults: self.faults.as_ref(),
            cells: Arc::make_mut(&mut self.cells),
        }
    }

    /// Rebuilds the whole table after a fault-map change.
    fn refresh_all(&mut self) {
        let faults = self.faults.as_ref();
        let table = (0..self.cells.states.len())
            .map(|idx| effective(faults, self.cols, idx, self.device(idx).conductance()))
            .collect();
        Arc::make_mut(&mut self.cells).table = table;
    }

    /// The conductance the write circuitry believes it stored at
    /// `(row, col)` — no stuck-at pin, gain, or line defect applied.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::IndexOutOfBounds`] for a bad index.
    pub fn programmed_conductance(&self, row: usize, col: usize) -> Result<Siemens, CrossbarError> {
        Ok(self.device(self.check(row, col)?).programmed())
    }

    /// Installs a fault map: from here on its stuck cells read pinned
    /// (LRS → `g_max`, HRS → `g_min`; [`CrossbarArray::cell`] carries the
    /// pin) and its gains/line defects are applied by
    /// [`CrossbarArray::conductance`]. Replaces any previously installed
    /// map.
    ///
    /// Row-load changes (gain spread, open columns) can leave previously
    /// equalized dummies stale — callers that equalize should call
    /// [`CrossbarArray::retrim_dummies`] afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidParameter`] when the map's dimensions
    /// do not match the array.
    pub fn set_fault_map(&mut self, map: FaultMap) -> Result<(), CrossbarError> {
        if map.rows() != self.rows || map.cols() != self.cols {
            return Err(CrossbarError::InvalidParameter {
                what: "fault map dimensions must match the array",
            });
        }
        self.faults = Some(map);
        self.refresh_all();
        Ok(())
    }

    /// Removes the fault map, so no cell reads pinned.
    pub fn clear_fault_map(&mut self) {
        self.faults = None;
        self.refresh_all();
    }

    /// The installed fault map, if any.
    #[must_use]
    pub fn fault_map(&self) -> Option<&FaultMap> {
        self.faults.as_ref()
    }

    /// `true` when column `col` cannot reach the sense amplifier (open or
    /// shorted column line in the fault map). Such columns read 0 A.
    #[must_use]
    pub fn column_disconnected(&self, col: usize) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|map| map.col_disconnected(col))
    }

    /// Exactly sets one cell's conductance (idealized write; real writes go
    /// through [`CrossbarArray::program_conductance`]).
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::IndexOutOfBounds`] for a bad index or a
    /// device error if `g` is outside the programmable window.
    pub fn set_conductance(
        &mut self,
        row: usize,
        col: usize,
        g: Siemens,
    ) -> Result<(), CrossbarError> {
        let idx = self.check(row, col)?;
        self.writer().update(idx, |cell| cell.set_conductance(g))
    }

    /// Programs one cell to a target conductance with a realistic
    /// program-and-verify write.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::IndexOutOfBounds`] for a bad index or a
    /// device error for an unreachable target.
    pub fn program_conductance<R: Rng + ?Sized>(
        &mut self,
        row: usize,
        col: usize,
        target: Siemens,
        scheme: &WriteScheme,
        rng: &mut R,
    ) -> Result<WriteReport, CrossbarError> {
        self.program_conductance_with(row, col, target, scheme, rng, &NoopRecorder)
    }

    /// Like [`CrossbarArray::program_conductance`], forwarding write-pulse
    /// and verify-read telemetry to `recorder`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CrossbarArray::program_conductance`].
    pub fn program_conductance_with<R: Rng + ?Sized, T: Recorder>(
        &mut self,
        row: usize,
        col: usize,
        target: Siemens,
        scheme: &WriteScheme,
        rng: &mut R,
        recorder: &T,
    ) -> Result<WriteReport, CrossbarError> {
        let idx = self.check(row, col)?;
        self.writer()
            .update(idx, |cell| cell.program_with(target, scheme, rng, recorder))
    }

    /// Programs one cell to a digital level under a [`LevelMap`].
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::IndexOutOfBounds`] for a bad index or a
    /// device error for a bad level.
    pub fn program_level<R: Rng + ?Sized>(
        &mut self,
        row: usize,
        col: usize,
        level: u32,
        map: &LevelMap,
        scheme: &WriteScheme,
        rng: &mut R,
    ) -> Result<WriteReport, CrossbarError> {
        let target = map.conductance(level)?;
        self.program_conductance(row, col, target, scheme, rng)
    }

    /// Programs a whole column (one stored pattern) from digital levels.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InputLengthMismatch`] if `levels.len()`
    /// differs from the row count, plus any per-cell error.
    pub fn program_pattern<R: Rng + ?Sized>(
        &mut self,
        col: usize,
        levels: &[u32],
        map: &LevelMap,
        scheme: &WriteScheme,
        rng: &mut R,
    ) -> Result<WriteReport, CrossbarError> {
        self.program_pattern_with(col, levels, map, scheme, rng, &NoopRecorder)
    }

    /// Like [`CrossbarArray::program_pattern`], reporting the column's
    /// write pulses and verify reads to `recorder` once each
    /// ([`WriteReport::record`]), with the totals per-cell reporting would
    /// give. When a cell fails, the cells written before it are still
    /// reported. The returned report's `relative_error` is the cell error
    /// of largest magnitude.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CrossbarArray::program_pattern`].
    pub fn program_pattern_with<R: Rng + ?Sized, T: Recorder>(
        &mut self,
        col: usize,
        levels: &[u32],
        map: &LevelMap,
        scheme: &WriteScheme,
        rng: &mut R,
        recorder: &T,
    ) -> Result<WriteReport, CrossbarError> {
        if levels.len() != self.rows {
            return Err(CrossbarError::InputLengthMismatch {
                expected: self.rows,
                found: levels.len(),
            });
        }
        let top = self.check(0, col)?;
        let cols = self.cols;
        let mut cells = self.writer();
        let mut column = WriteReport {
            pulses: 0,
            verify_checks: 0,
            energy: Joules::ZERO,
            relative_error: 0.0,
        };
        let written = levels.iter().enumerate().try_for_each(|(row, &level)| {
            let target = map.conductance(level)?;
            let rep = cells.update(top + row * cols, |cell| cell.program(target, scheme, rng))?;
            column.pulses += rep.pulses;
            column.verify_checks += rep.verify_checks;
            column.energy += rep.energy;
            if rep.relative_error.abs() > column.relative_error.abs() {
                column.relative_error = rep.relative_error;
            }
            Ok::<_, CrossbarError>(())
        });
        // Every programmed cell takes at least one verify read.
        if column.verify_checks > 0 {
            column.record(recorder);
        }
        written.map(|()| column)
    }

    /// Programs a column with amplitude-escalating retries per cell
    /// ([`spinamm_memristor::RetryPolicy`]): the write controller's response
    /// to cells that refuse to verify, reporting how many needed retries
    /// and how many are unrecoverable (stuck-at defects).
    ///
    /// Each cell's retry loop records nothing; the column sums the cells'
    /// [`spinamm_memristor::RetryReport`]s and reports
    /// `memristor.write_pulses`, `memristor.verify_checks`,
    /// `memristor.write_retries` (attempts beyond a cell's first) and
    /// `memristor.unrecoverable_cells` to `recorder`, each at most once.
    /// When a cell fails, the cells written before it are still reported.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InputLengthMismatch`] if `levels.len()`
    /// differs from the row count, plus any per-cell error.
    #[allow(clippy::too_many_arguments)] // mirrors program_pattern_with + policy
    pub fn program_pattern_retry_with<R: Rng + ?Sized, T: Recorder>(
        &mut self,
        col: usize,
        levels: &[u32],
        map: &LevelMap,
        scheme: &WriteScheme,
        policy: &RetryPolicy,
        rng: &mut R,
        recorder: &T,
    ) -> Result<PatternRetryReport, CrossbarError> {
        if levels.len() != self.rows {
            return Err(CrossbarError::InputLengthMismatch {
                expected: self.rows,
                found: levels.len(),
            });
        }
        let top = self.check(0, col)?;
        let cols = self.cols;
        let mut cells = self.writer();
        let mut report = PatternRetryReport {
            pulses: 0,
            energy: Joules::ZERO,
            retried: 0,
            unrecoverable: 0,
        };
        let (mut verify_checks, mut retries) = (0u64, 0u64);
        let written = levels.iter().enumerate().try_for_each(|(row, &level)| {
            let target = map.conductance(level)?;
            let cell = cells.update(top + row * cols, |cell| {
                cell.program_with_retry(target, scheme, policy, rng)
            })?;
            report.pulses += cell.pulses;
            report.energy += cell.energy;
            verify_checks += cell.verify_checks;
            retries += u64::from(cell.attempts.saturating_sub(1));
            report.retried += u32::from(cell.attempts > 1);
            report.unrecoverable += u32::from(!cell.recovered);
            Ok::<_, CrossbarError>(())
        });
        for (name, total) in [
            ("memristor.write_pulses", u64::from(report.pulses)),
            ("memristor.verify_checks", verify_checks),
            ("memristor.write_retries", retries),
            (
                "memristor.unrecoverable_cells",
                u64::from(report.unrecoverable),
            ),
        ] {
            // A zero total sends nothing: a recorder sees a counter only
            // when some cell added to it.
            if total > 0 {
                recorder.counter(name, total);
            }
        }
        written.map(|()| report)
    }

    /// Total memristor conductance hanging on row `i` (stored cells only,
    /// excluding the dummy).
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::IndexOutOfBounds`] for a bad row.
    pub fn row_cell_conductance(&self, row: usize) -> Result<Siemens, CrossbarError> {
        self.check(row, 0)?;
        Ok(Siemens(self.row_load(row)))
    }

    /// Row `row`'s stored-cell load, summed in column order.
    fn row_load(&self, row: usize) -> f64 {
        let mut total = 0.0;
        for g in &self.cells.table[row * self.cols..(row + 1) * self.cols] {
            total += g.0;
        }
        total
    }

    /// Every row's [`CrossbarArray::row_load`].
    fn row_loads(&self) -> Vec<f64> {
        (0..self.rows).map(|row| self.row_load(row)).collect()
    }

    /// Total load on row `i` including its dummy conductance — the paper's
    /// per-row `G_TS`.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::IndexOutOfBounds`] for a bad row.
    pub fn row_total_conductance(&self, row: usize) -> Result<Siemens, CrossbarError> {
        Ok(Siemens(
            self.row_cell_conductance(row)?.0 + self.dummy[row].0,
        ))
    }

    /// The dummy conductance attached to row `i`.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::IndexOutOfBounds`] for a bad row.
    pub fn dummy_conductance(&self, row: usize) -> Result<Siemens, CrossbarError> {
        self.check(row, 0)?;
        Ok(self.dummy[row])
    }

    /// Sizes the per-row dummy conductances so every row's total load equals
    /// `target` (defaulting to `cols × g_max`, the largest load any pattern
    /// could present). Returns the target used.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidParameter`] if some row already
    /// exceeds the target (the dummy cannot be negative).
    pub fn equalize_rows(&mut self, target: Option<Siemens>) -> Result<Siemens, CrossbarError> {
        let target = target.unwrap_or(Siemens(self.default_target()));
        let loads = self.row_loads();
        if loads.iter().any(|&have| have > target.0 * (1.0 + 1e-12)) {
            return Err(CrossbarError::InvalidParameter {
                what: "row conductance already exceeds equalization target",
            });
        }
        self.trim_dummies(target, &loads);
        Ok(target)
    }

    /// Re-trims every row's dummy so each total load equals
    /// [`CrossbarArray::equalization_target`], and returns that target:
    /// `equalize_rows(Some(equalization_target()?))` with each row's load
    /// summed once. Cannot fail, since the target bounds every row.
    pub fn retrim_dummies(&mut self) -> Siemens {
        let loads = self.row_loads();
        let target = self.widest(&loads);
        self.trim_dummies(target, &loads);
        target
    }

    /// `cols × g_max`: the largest load any pattern could present.
    fn default_target(&self) -> f64 {
        self.limits.g_max().0 * self.cols as f64
    }

    /// The default target, widened to the largest of `loads`.
    fn widest(&self, loads: &[f64]) -> Siemens {
        Siemens(loads.iter().fold(self.default_target(), |t, &l| t.max(l)))
    }

    /// Sizes each row's dummy to `target` minus that row's load.
    fn trim_dummies(&mut self, target: Siemens, loads: &[f64]) {
        self.dummy = loads
            .iter()
            .map(|&have| Siemens((target.0 - have).max(0.0)))
            .collect();
    }

    /// Removes all dummy conductances.
    pub fn clear_dummies(&mut self) {
        self.dummy = vec![Siemens::ZERO; self.rows];
    }

    /// Ages every cell by `elapsed` under a drift model (the dummies are
    /// passive loads and are re-equalized afterwards so `G_TS` stays
    /// uniform — a refresh controller would re-trim them the same way).
    ///
    /// # Errors
    ///
    /// Returns a device error when `elapsed` is not finite (no cell is
    /// modified in that case).
    pub fn age<R: Rng + ?Sized>(
        &mut self,
        elapsed: spinamm_circuit::units::Seconds,
        model: &spinamm_memristor::DriftModel,
        rng: &mut R,
    ) -> Result<(), CrossbarError> {
        let n = self.rows * self.cols;
        let mut cells = self.writer();
        for idx in 0..n {
            cells.update(idx, |cell| cell.age(elapsed, model, rng))?;
        }
        self.reequalize_after_aging();
        Ok(())
    }

    /// Sets every cell's absolute age since its last write to `elapsed`
    /// ([`spinamm_memristor::Memristor::age_to`]) — the composable form
    /// `age` is built on, for callers that track a virtual clock.
    ///
    /// # Errors
    ///
    /// As [`CrossbarArray::age`].
    pub fn age_to<R: Rng + ?Sized>(
        &mut self,
        elapsed: spinamm_circuit::units::Seconds,
        model: &spinamm_memristor::DriftModel,
        rng: &mut R,
    ) -> Result<(), CrossbarError> {
        let n = self.rows * self.cols;
        let mut cells = self.writer();
        for idx in 0..n {
            cells.update(idx, |cell| cell.age_to(elapsed, model, rng))?;
        }
        self.reequalize_after_aging();
        Ok(())
    }

    /// Stamps one cell's retention: conductance moves to
    /// `g₀ · fraction` at absolute age `elapsed`
    /// ([`spinamm_memristor::Memristor::apply_retention`]). The lifetime
    /// scheduler uses this with per-device ν values drawn once at program
    /// time, so trajectories are deterministic without consuming RNG during
    /// clock ticks. Dummies are NOT re-trimmed here — batch the stamps,
    /// then call [`CrossbarArray::retrim_dummies`] (or let the module-level
    /// maintenance commit do it).
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::IndexOutOfBounds`] for a bad index and
    /// propagates device-parameter errors.
    pub fn apply_retention(
        &mut self,
        row: usize,
        col: usize,
        elapsed: spinamm_circuit::units::Seconds,
        fraction: f64,
    ) -> Result<(), CrossbarError> {
        let idx = self.check(row, col)?;
        self.writer()
            .update(idx, |cell| cell.apply_retention(elapsed, fraction))
    }

    /// Re-trims the dummies after drift, if any dummy was set.
    fn reequalize_after_aging(&mut self) {
        if self.dummy.iter().any(|d| d.0 > 0.0) {
            self.retrim_dummies();
        }
    }

    /// The default row-equalization target, widened when a fault map's gain
    /// spread pushes some row's effective load past `cols × g_max`.
    ///
    /// # Errors
    ///
    /// Never fails; the `Result` is kept for existing callers.
    pub fn equalization_target(&self) -> Result<Siemens, CrossbarError> {
        Ok(self.widest(&self.row_loads()))
    }

    /// The effective conductance matrix as nested vectors (row-major),
    /// useful for diagnostics and for building reference computations.
    #[must_use]
    pub fn conductance_matrix(&self) -> Vec<Vec<Siemens>> {
        self.cells
            .table
            .chunks_exact(self.cols)
            .map(<[Siemens]>::to_vec)
            .collect()
    }

    /// Ideal (zero wire resistance, perfectly clamped columns) column
    /// currents for rows held at the given voltages: `I_j = Σᵢ vᵢ·gᵢⱼ`.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InputLengthMismatch`] if `row_voltages.len()`
    /// differs from the row count.
    pub fn ideal_column_currents(
        &self,
        row_voltages: &[Volts],
    ) -> Result<Vec<Amps>, CrossbarError> {
        if row_voltages.len() != self.rows {
            return Err(CrossbarError::InputLengthMismatch {
                expected: self.rows,
                found: row_voltages.len(),
            });
        }
        let mut out = vec![0.0; self.cols];
        for (v, row) in row_voltages
            .iter()
            .zip(self.cells.table.chunks_exact(self.cols))
        {
            for (o, g) in out.iter_mut().zip(row) {
                *o += v.0 * g.0;
            }
        }
        // A shorted column still loads its rows (the sum above) but its
        // current is dumped to ground, never reaching the sense amplifier.
        for (j, o) in out.iter_mut().enumerate() {
            if self.column_disconnected(j) {
                *o = 0.0;
            }
        }
        Ok(out.into_iter().map(Amps).collect())
    }

    /// Ideal column currents when the rows are excited through
    /// [`RowDrive`]s: each row input settles at the voltage set by its drive
    /// against the row's total load (`G_TS`, including the dummy), and the
    /// columns then split that row current in proportion to conductance.
    ///
    /// This captures the DTCS-DAC loading non-linearity (Fig. 8b) but not
    /// wire IR drops — for those use
    /// [`crate::CachedParasiticCrossbar`].
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InputLengthMismatch`] if `drives.len()`
    /// differs from the row count.
    pub fn driven_column_currents(&self, drives: &[RowDrive]) -> Result<Vec<Amps>, CrossbarError> {
        let voltages = self.driven_row_voltages(drives)?;
        self.ideal_column_currents(&voltages)
    }

    /// The row input voltages produced by the given drives against each
    /// row's total load.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InputLengthMismatch`] if `drives.len()`
    /// differs from the row count.
    pub fn driven_row_voltages(&self, drives: &[RowDrive]) -> Result<Vec<Volts>, CrossbarError> {
        if drives.len() != self.rows {
            return Err(CrossbarError::InputLengthMismatch {
                expected: self.rows,
                found: drives.len(),
            });
        }
        (0..self.rows)
            .map(|i| {
                let load = self.row_total_conductance(i)?;
                Ok(drives[i].input_voltage(load))
            })
            .collect()
    }

    /// Static power burned in the array (cells + dummies) under the given
    /// drives, in the ideal (no-wire-resistance) picture: `Σᵢ vᵢ²·G_TS(i)`.
    ///
    /// This is the quantity the paper minimizes by pushing `ΔV` down to
    /// ~30 mV.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InputLengthMismatch`] if `drives.len()`
    /// differs from the row count.
    pub fn ideal_static_power(&self, drives: &[RowDrive]) -> Result<Watts, CrossbarError> {
        let voltages = self.driven_row_voltages(drives)?;
        let mut p = 0.0;
        for (i, v) in voltages.iter().enumerate() {
            p += v.0 * v.0 * self.row_total_conductance(i)?.0;
        }
        Ok(Watts(p))
    }
}

/// Write access to a [`CrossbarArray`]'s cells, taken once for a run of
/// cell writes: its copy-on-write check is an atomic compare-and-swap, too
/// dear to repeat per cell of a column write.
struct CellWriter<'a> {
    limits: DeviceLimits,
    cols: usize,
    faults: Option<&'a FaultMap>,
    cells: &'a mut Cells,
}

impl CellWriter<'_> {
    /// Runs one device operation on cell `idx` (its state viewed under the
    /// array's limits and stuck-at pin), then stores the state back and
    /// refreshes the cell's table entry. A rejected operation leaves the
    /// cell as it was.
    fn update<T>(
        &mut self,
        idx: usize,
        op: impl FnOnce(&mut Memristor) -> Result<T, MemristorError>,
    ) -> Result<T, CrossbarError> {
        let pin = stuck_pin(self.limits, self.faults, self.cols, idx);
        let mut cell = Memristor::from_state(self.limits, self.cells.states[idx], pin);
        let out = op(&mut cell)?;
        self.cells.states[idx] = cell.state();
        self.cells.table[idx] = effective(self.faults, self.cols, idx, cell.conductance());
        Ok(out)
    }
}

/// The effective conductance of cell `idx` of a `cols`-wide array whose
/// device reads `g`: the fault map's gain and open-column rule applied.
fn effective(faults: Option<&FaultMap>, cols: usize, idx: usize, g: Siemens) -> Siemens {
    let Some(map) = faults else {
        return g;
    };
    let (row, col) = (idx / cols, idx % cols);
    if map.col_defect(col) == Some(LineDefect::Open) {
        return Siemens::ZERO;
    }
    Siemens(g.0 * map.cell_gain(row, col))
}

/// The conductance `faults` pins cell `idx` of a `cols`-wide array to when
/// it is stuck: LRS at `g_max`, HRS at `g_min`. Without a map no index is
/// divided, which keeps a fault-free write cheap.
fn stuck_pin(
    limits: DeviceLimits,
    faults: Option<&FaultMap>,
    cols: usize,
    idx: usize,
) -> Option<Siemens> {
    Some(match faults?.stuck_at(idx / cols, idx % cols)? {
        StuckKind::Lrs => limits.g_max(),
        StuckKind::Hrs => limits.g_min(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn small_array() -> CrossbarArray {
        CrossbarArray::new(3, 2, DeviceLimits::PAPER).unwrap()
    }

    #[test]
    fn construction_and_bounds() {
        assert!(CrossbarArray::new(0, 4, DeviceLimits::PAPER).is_err());
        assert!(CrossbarArray::new(4, 0, DeviceLimits::PAPER).is_err());
        let a = small_array();
        assert_eq!(a.rows(), 3);
        assert_eq!(a.cols(), 2);
        assert!(a.cell(3, 0).is_err());
        assert!(a.cell(0, 2).is_err());
        assert!(a.cell(2, 1).is_ok());
        assert_eq!(a.limits(), DeviceLimits::PAPER);
    }

    #[test]
    fn fresh_array_is_off() {
        let a = small_array();
        for i in 0..3 {
            for j in 0..2 {
                assert_eq!(a.conductance(i, j).unwrap(), DeviceLimits::PAPER.g_min());
            }
        }
    }

    #[test]
    fn set_and_get_conductance() {
        let mut a = small_array();
        a.set_conductance(1, 1, Siemens(5e-4)).unwrap();
        assert_eq!(a.conductance(1, 1).unwrap(), Siemens(5e-4));
        assert!(a.set_conductance(1, 1, Siemens(1.0)).is_err());
        assert!(a.set_conductance(9, 0, Siemens(5e-4)).is_err());
    }

    #[test]
    fn program_pattern_writes_column() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let map = LevelMap::new(DeviceLimits::PAPER, 5).unwrap();
        let scheme = WriteScheme::paper();
        let mut a = small_array();
        a.program_pattern(0, &[0, 16, 31], &map, &scheme, &mut rng)
            .unwrap();
        // Level 0 ≈ g_min, level 31 ≈ g_max, each within the write band.
        let g0 = a.conductance(0, 0).unwrap().0;
        let g2 = a.conductance(2, 0).unwrap().0;
        assert!((g0 - DeviceLimits::PAPER.g_min().0).abs() / DeviceLimits::PAPER.g_min().0 < 0.04);
        assert!((g2 - DeviceLimits::PAPER.g_max().0).abs() / DeviceLimits::PAPER.g_max().0 < 0.04);
        // Column 1 untouched.
        assert_eq!(a.conductance(0, 1).unwrap(), DeviceLimits::PAPER.g_min());
        // Wrong length rejected.
        assert!(matches!(
            a.program_pattern(1, &[1, 2], &map, &scheme, &mut rng),
            Err(CrossbarError::InputLengthMismatch { .. })
        ));
    }

    #[test]
    fn column_write_reports_each_counter_once_with_per_cell_totals() {
        use spinamm_telemetry::{MemoryRecorder, TelemetrySnapshot};
        use std::cell::RefCell;
        use std::collections::BTreeMap;

        /// Counts `counter()` calls by name and forwards them to a
        /// [`MemoryRecorder`].
        #[derive(Default)]
        struct CallCounting {
            calls: RefCell<BTreeMap<String, u64>>,
            inner: MemoryRecorder,
        }

        impl Recorder for CallCounting {
            fn is_enabled(&self) -> bool {
                true
            }

            fn counter(&self, name: &str, delta: u64) {
                *self.calls.borrow_mut().entry(name.to_owned()).or_default() += 1;
                self.inner.counter(name, delta);
            }

            fn gauge(&self, _name: &str, _value: f64) {}

            fn observe(&self, _name: &str, _value: f64) {}

            fn record_span(&self, _name: &str, _seconds: f64) {}

            fn event(&self, _name: &str, _fields: &[(&str, f64)]) {}
        }

        const COUNTERS: [&str; 4] = [
            "memristor.write_pulses",
            "memristor.verify_checks",
            "memristor.write_retries",
            "memristor.unrecoverable_cells",
        ];
        let map = LevelMap::new(DeviceLimits::PAPER, 5).unwrap();
        let scheme = WriteScheme::paper();
        let policy = RetryPolicy::default();
        let columns: Vec<Vec<u32>> = (0..3u32)
            .map(|j| (0..16u32).map(|i| (i * 7 + j * 11) % 32).collect())
            .collect();
        let writes: Vec<(usize, &[u32])> = columns
            .iter()
            .enumerate()
            .map(|(col, l)| (col, &l[..]))
            .collect();
        // Column 1's levels into column 0, with one out of range in row 5:
        // rows 0–4 are written, and their totals still reach the recorder.
        let mut bad = columns[1].clone();
        bad[5] = 32;
        // Row 7 of column 1 (level 28) is pinned off, so it never
        // verifies: the retry writer escalates and then gives it up.
        let faults = FaultMap::pristine(16, 3, 0)
            .and_then(|m| m.with_stuck_cell(7, 1, StuckKind::Hrs))
            .unwrap();

        for retry in [false, true] {
            // One column write through the writer under test; the plain
            // writer also returns its column error.
            let column_write = |a: &mut CrossbarArray,
                                col: usize,
                                levels: &[u32],
                                rng: &mut ChaCha8Rng,
                                rec: &CallCounting| {
                if retry {
                    a.program_pattern_retry_with(col, levels, &map, &scheme, &policy, rng, rec)
                        .map(|_| None)
                } else {
                    a.program_pattern_with(col, levels, &map, &scheme, rng, rec)
                        .map(|report| Some(report.relative_error))
                }
            };
            // The reference: the same writes a cell at a time, through the
            // single-cell path, on one RNG stream, with each column's cell
            // error of largest magnitude.
            let per_cell = |writes: &[(usize, &[u32])], a: &mut CrossbarArray, seed: u64| {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let rec = MemoryRecorder::default();
                let mut worst = Vec::new();
                for &(col, levels) in writes {
                    let mut column = 0.0f64;
                    for (row, &level) in levels.iter().enumerate() {
                        let target = map.conductance(level).unwrap();
                        let idx = a.check(row, col).unwrap();
                        let error = a.writer().update(idx, |cell| {
                            if retry {
                                // The retry writer records nothing itself:
                                // sum each cell's report.
                                cell.program_with_retry(target, &scheme, &policy, &mut rng)
                                    .map(|r| {
                                        rec.counter("memristor.write_pulses", u64::from(r.pulses));
                                        rec.counter("memristor.verify_checks", r.verify_checks);
                                        rec.counter(
                                            "memristor.write_retries",
                                            u64::from(r.attempts.saturating_sub(1)),
                                        );
                                        rec.counter(
                                            "memristor.unrecoverable_cells",
                                            u64::from(!r.recovered),
                                        );
                                        r.relative_error
                                    })
                            } else {
                                cell.program_with(target, &scheme, &mut rng, &rec)
                                    .map(|r| r.relative_error)
                            }
                        });
                        let error = error.unwrap();
                        if error.abs() > column.abs() {
                            column = error;
                        }
                    }
                    worst.push(column);
                }
                (rec.snapshot(), worst)
            };
            // At most one call per counter per column write, with the
            // reference's totals.
            let check = |counting: &CallCounting, want: &TelemetrySnapshot, writes: u64| {
                let got = counting.inner.snapshot();
                for name in COUNTERS {
                    let calls = counting.calls.borrow().get(name).copied().unwrap_or(0);
                    assert!(
                        calls <= writes,
                        "retry {retry}: {name} called {calls} times"
                    );
                    assert_eq!(
                        got.counter(name),
                        want.counter(name),
                        "retry {retry}: {name}"
                    );
                }
            };

            let mut by_column = CrossbarArray::new(16, 3, DeviceLimits::PAPER).unwrap();
            by_column.set_fault_map(faults.clone()).unwrap();
            let mut by_cell = by_column.clone();
            let counting = CallCounting::default();
            let mut rng = ChaCha8Rng::seed_from_u64(23);
            let errors: Vec<Option<f64>> = writes
                .iter()
                .map(|&(col, levels)| {
                    column_write(&mut by_column, col, levels, &mut rng, &counting).unwrap()
                })
                .collect();
            let (want, worst) = per_cell(&writes, &mut by_cell, 23);
            assert_eq!(by_column.conductances(), by_cell.conductances());
            check(&counting, &want, 3);
            let counted = if retry { &COUNTERS[..] } else { &COUNTERS[..2] };
            assert!(counted.iter().all(|name| want.counter(name) > 0));
            if !retry {
                assert_eq!(errors, worst.into_iter().map(Some).collect::<Vec<_>>());
            }

            let counting = CallCounting::default();
            let mut rng = ChaCha8Rng::seed_from_u64(29);
            assert!(column_write(&mut by_column, 0, &bad, &mut rng, &counting).is_err());
            let (want, _) = per_cell(&[(0, &bad[..5])], &mut by_cell, 29);
            assert_eq!(by_column.conductances(), by_cell.conductances());
            check(&counting, &want, 1);
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // (i, j) indexing mirrors the matrix literal
    fn ideal_dot_product_matches_manual() {
        let mut a = small_array();
        let g = [[2e-4, 3e-4], [4e-4, 5e-4], [6e-4, 7e-4]];
        for i in 0..3 {
            for j in 0..2 {
                a.set_conductance(i, j, Siemens(g[i][j])).unwrap();
            }
        }
        let v = [Volts(0.01), Volts(0.02), Volts(0.03)];
        let out = a.ideal_column_currents(&v).unwrap();
        let expect0 = 0.01 * 2e-4 + 0.02 * 4e-4 + 0.03 * 6e-4;
        let expect1 = 0.01 * 3e-4 + 0.02 * 5e-4 + 0.03 * 7e-4;
        assert!((out[0].0 - expect0).abs() < 1e-15);
        assert!((out[1].0 - expect1).abs() < 1e-15);
        assert!(a.ideal_column_currents(&v[..2]).is_err());
    }

    #[test]
    fn equalize_rows_levels_loads() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let map = LevelMap::new(DeviceLimits::PAPER, 5).unwrap();
        let scheme = WriteScheme::paper();
        let mut a = CrossbarArray::new(4, 3, DeviceLimits::PAPER).unwrap();
        for j in 0..3 {
            let levels: Vec<u32> = (0..4).map(|i| (i as u32 * 7 + j as u32 * 3) % 32).collect();
            a.program_pattern(j, &levels, &map, &scheme, &mut rng)
                .unwrap();
        }
        let target = a.equalize_rows(None).unwrap();
        assert!((target.0 - 3.0 * DeviceLimits::PAPER.g_max().0).abs() < 1e-15);
        for i in 0..4 {
            assert!(
                (a.row_total_conductance(i).unwrap().0 - target.0).abs() < 1e-12,
                "row {i} not equalized"
            );
            assert!(a.dummy_conductance(i).unwrap().0 >= 0.0);
        }
        a.clear_dummies();
        assert_eq!(a.dummy_conductance(0).unwrap(), Siemens::ZERO);
    }

    #[test]
    fn equalize_rejects_too_small_target() {
        let mut a = small_array();
        a.set_conductance(0, 0, Siemens(1e-3)).unwrap();
        a.set_conductance(0, 1, Siemens(1e-3)).unwrap();
        assert!(a.equalize_rows(Some(Siemens(1e-3))).is_err());
    }

    #[test]
    fn driven_currents_reduce_to_ideal_for_voltage_drives() {
        let mut a = small_array();
        a.set_conductance(0, 0, Siemens(4e-4)).unwrap();
        a.set_conductance(2, 1, Siemens(8e-4)).unwrap();
        let v = [Volts(0.03); 3];
        let drives = [RowDrive::Voltage(Volts(0.03)); 3];
        let ideal = a.ideal_column_currents(&v).unwrap();
        let driven = a.driven_column_currents(&drives).unwrap();
        for (x, y) in ideal.iter().zip(&driven) {
            assert!((x.0 - y.0).abs() < 1e-18);
        }
    }

    #[test]
    fn dtcs_linearity_improves_with_high_gts() {
        // Fig. 8b: the column current should be ∝ G_T (the DAC code). With
        // G_TS ≫ G_T the transfer is nearly linear; with G_TS ≲ G_T it
        // compresses. Measure end-point non-linearity of I(G_T) for a row
        // with low cell conductance, with and without a big dummy load.
        let dv = Volts(0.03);
        let nonlinearity = |array: &CrossbarArray| -> f64 {
            // Compare I at full-scale code vs 2 × I at half-scale code; a
            // perfectly linear DAC gives ratio 2.
            let drive = |g| RowDrive::SourceConductance {
                g: Siemens(g),
                supply: dv,
            };
            let i_half = array.driven_column_currents(&[drive(2.5e-4)]).unwrap()[0].0;
            let i_full = array.driven_column_currents(&[drive(5e-4)]).unwrap()[0].0;
            (2.0 - i_full / i_half).abs()
        };

        let mut low_gts = CrossbarArray::new(1, 2, DeviceLimits::PAPER).unwrap();
        low_gts.set_conductance(0, 0, Siemens(3.2e-5)).unwrap();
        low_gts.set_conductance(0, 1, Siemens(3.2e-5)).unwrap();

        let mut high_gts = low_gts.clone();
        high_gts.equalize_rows(Some(Siemens(5e-3))).unwrap();

        let nl_low = nonlinearity(&low_gts);
        let nl_high = nonlinearity(&high_gts);
        assert!(
            nl_high < nl_low / 5.0,
            "high G_TS must be far more linear: {nl_high} vs {nl_low}"
        );
    }

    #[test]
    fn static_power_scales_with_voltage_squared() {
        let mut a = small_array();
        a.equalize_rows(None).unwrap();
        let p1 = a
            .ideal_static_power(&[RowDrive::Voltage(Volts(0.03)); 3])
            .unwrap();
        let p2 = a
            .ideal_static_power(&[RowDrive::Voltage(Volts(0.06)); 3])
            .unwrap();
        assert!((p2.0 / p1.0 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn conductance_matrix_snapshot() {
        let mut a = small_array();
        a.set_conductance(1, 0, Siemens(2e-4)).unwrap();
        let m = a.conductance_matrix();
        assert_eq!(m.len(), 3);
        assert_eq!(m[0].len(), 2);
        assert_eq!(m[1][0], Siemens(2e-4));
    }

    #[test]
    fn fault_map_pins_stuck_cells_and_applies_gains() {
        use spinamm_faults::{FaultMap, StuckKind};
        let mut a = small_array();
        a.set_conductance(0, 0, Siemens(4e-4)).unwrap();
        a.set_conductance(1, 1, Siemens(4e-4)).unwrap();
        let map = FaultMap::pristine(3, 2, 0)
            .unwrap()
            .with_stuck_cell(0, 0, StuckKind::Lrs)
            .unwrap()
            .with_stuck_cell(2, 0, StuckKind::Hrs)
            .unwrap()
            .with_cell_gain(1, 1, 1.5)
            .unwrap();
        a.set_fault_map(map).unwrap();
        // The map's stuck cells come back pinned, and only those.
        assert!(a.cell(0, 0).unwrap().is_pinned() && a.cell(2, 0).unwrap().is_pinned());
        assert!(!a.cell(1, 1).unwrap().is_pinned());
        // Stuck-at-LRS reads g_max regardless of the programmed value …
        assert_eq!(a.conductance(0, 0).unwrap(), DeviceLimits::PAPER.g_max());
        assert_eq!(a.conductance(2, 0).unwrap(), DeviceLimits::PAPER.g_min());
        // … while the write circuitry still sees its own state.
        assert_eq!(a.programmed_conductance(0, 0).unwrap(), Siemens(4e-4));
        // Gain spread scales the effective read.
        assert!((a.conductance(1, 1).unwrap().0 - 6e-4).abs() < 1e-18);
        // Clearing restores the programmed view.
        a.clear_fault_map();
        assert!(a.fault_map().is_none());
        assert!(!a.cell(0, 0).unwrap().is_pinned());
        assert_eq!(a.conductance(0, 0).unwrap(), Siemens(4e-4));
    }

    /// Every cell's state and table entry, as bits.
    fn storage_bits(a: &CrossbarArray) -> Vec<[u64; 5]> {
        let mut out = Vec::new();
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                let cell = a.cell(i, j).unwrap();
                out.push([
                    cell.programmed().0.to_bits(),
                    cell.programmed_reference().0.to_bits(),
                    cell.aged().0.to_bits(),
                    cell.writes(),
                    a.conductance(i, j).unwrap().0.to_bits(),
                ]);
            }
        }
        out
    }

    #[test]
    fn clones_share_cells_and_table_until_one_side_writes() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let map = LevelMap::new(DeviceLimits::PAPER, 5).unwrap();
        let scheme = WriteScheme::paper();
        let mut a = CrossbarArray::new(4, 3, DeviceLimits::PAPER).unwrap();
        for j in 0..3 {
            a.program_pattern(j, &[j as u32, 9, 17, 31], &map, &scheme, &mut rng)
                .unwrap();
        }
        for clone_writes in [false, true] {
            let mut original = a.clone();
            let mut clone = original.clone();
            // Reads copy nothing.
            clone.ideal_column_currents(&[Volts(0.03); 4]).unwrap();
            assert_eq!(clone.cell(1, 1).unwrap(), original.cell(1, 1).unwrap());
            assert!(Arc::ptr_eq(&original.cells, &clone.cells));

            let (writer, reader) = if clone_writes {
                (&mut clone, &original)
            } else {
                (&mut original, &clone)
            };
            let cells = Arc::as_ptr(&reader.cells);
            let before = storage_bits(reader);
            writer.set_conductance(2, 1, Siemens(5e-4)).unwrap();
            // The writer holds a new copy; the reader keeps its storage,
            // bit for bit.
            assert!(!Arc::ptr_eq(&writer.cells, &reader.cells));
            assert_eq!(Arc::as_ptr(&reader.cells), cells);
            assert_eq!(storage_bits(reader), before);
            assert_eq!(writer.conductance(2, 1).unwrap(), Siemens(5e-4));
            let wear = reader.cell(2, 1).unwrap().writes();
            assert_eq!(writer.cell(2, 1).unwrap().writes(), wear + 1);
        }
    }

    #[test]
    fn fault_map_dimensions_checked() {
        use spinamm_faults::FaultMap;
        let mut a = small_array();
        let wrong = FaultMap::pristine(2, 2, 0).unwrap();
        assert!(matches!(
            a.set_fault_map(wrong),
            Err(CrossbarError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn defective_columns_read_zero_current() {
        use spinamm_faults::{FaultMap, LineDefect};
        let mut a = small_array();
        for i in 0..3 {
            a.set_conductance(i, 0, Siemens(4e-4)).unwrap();
            a.set_conductance(i, 1, Siemens(4e-4)).unwrap();
        }
        let healthy = a.ideal_column_currents(&[Volts(0.03); 3]).unwrap();
        assert!(healthy[0].0 > 0.0 && healthy[1].0 > 0.0);

        // Open column: cells disconnect entirely (cannot load rows either).
        let open = FaultMap::pristine(3, 2, 0)
            .unwrap()
            .with_col_defect(0, LineDefect::Open)
            .unwrap();
        a.set_fault_map(open).unwrap();
        assert!(a.column_disconnected(0));
        assert_eq!(a.conductance(0, 0).unwrap(), Siemens::ZERO);
        let i_open = a.ideal_column_currents(&[Volts(0.03); 3]).unwrap();
        assert_eq!(i_open[0].0, 0.0);
        assert_eq!(i_open[1].0, healthy[1].0);

        // Shorted column: cells still load the rows, but the readout is
        // dumped to ground.
        let short = FaultMap::pristine(3, 2, 0)
            .unwrap()
            .with_col_defect(1, LineDefect::Short)
            .unwrap();
        a.set_fault_map(short).unwrap();
        assert_eq!(a.conductance(0, 1).unwrap(), Siemens(4e-4));
        let i_short = a.ideal_column_currents(&[Volts(0.03); 3]).unwrap();
        assert_eq!(i_short[1].0, 0.0);
        assert_eq!(i_short[0].0, healthy[0].0);
    }

    /// The re-trim reference: each row's load summed cell by cell in
    /// column order, the target widened past `cols × g_max` by the largest
    /// load, and each dummy the target minus its row's load.
    fn retrim_reference(a: &CrossbarArray) -> (u64, Vec<u64>) {
        let loads: Vec<f64> = (0..a.rows())
            .map(|i| {
                let mut total = 0.0;
                for j in 0..a.cols() {
                    total += a.conductance(i, j).unwrap().0;
                }
                total
            })
            .collect();
        let default = a.limits().g_max().0 * a.cols() as f64;
        let target = loads.iter().fold(default, |t, &l| t.max(l));
        let dummies = loads.iter().map(|l| (target - l).max(0.0).to_bits());
        (target.to_bits(), dummies.collect())
    }

    fn dummy_bits(a: &CrossbarArray) -> Vec<u64> {
        (0..a.rows())
            .map(|i| a.dummy_conductance(i).unwrap().0.to_bits())
            .collect()
    }

    #[test]
    fn equalization_target_tracks_gain_spread() {
        use spinamm_faults::FaultMap;
        let mut a = small_array();
        for j in 0..2 {
            a.set_conductance(0, j, DeviceLimits::PAPER.g_max())
                .unwrap();
        }
        // Without faults the default target (cols × g_max) dominates.
        let base = a.equalization_target().unwrap();
        assert_eq!(base, Siemens(DeviceLimits::PAPER.g_max().0 * 2.0));
        // A >1 gain pushes row 0 past the default target; the target widens
        // so equalize_rows keeps succeeding.
        let mut clean = a.clone();
        let map = FaultMap::pristine(3, 2, 0)
            .unwrap()
            .with_cell_gain(0, 0, 1.5)
            .unwrap();
        a.set_fault_map(map).unwrap();
        let widened = a.equalization_target().unwrap();
        assert!(widened > base);
        // The one-pass re-trim lands on the same target and dummy bits as
        // the two-pass pair and as the cell-by-cell reference, at the
        // default target and at the widened one.
        for (array, target) in [(&mut clean, base), (&mut a, widened)] {
            let (want_target, want_dummies) = retrim_reference(array);
            let mut pair = array.clone();
            pair.equalize_rows(Some(target)).unwrap();
            assert_eq!(array.retrim_dummies().0.to_bits(), want_target);
            assert_eq!(target.0.to_bits(), want_target);
            assert_eq!(dummy_bits(array), want_dummies);
            assert_eq!(dummy_bits(&pair), want_dummies);
        }
    }

    #[test]
    fn pattern_retry_reports_recovered_and_unrecoverable_cells() {
        use spinamm_faults::{FaultMap, StuckKind};
        use spinamm_memristor::LevelMap;
        use spinamm_telemetry::MemoryRecorder;
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let map = LevelMap::new(DeviceLimits::PAPER, 5).unwrap();
        let scheme = WriteScheme::paper();
        let policy = RetryPolicy::default();
        let rec = MemoryRecorder::default();

        let mut a = CrossbarArray::new(4, 2, DeviceLimits::PAPER).unwrap();
        // Healthy column: everything recovers.
        let report = a
            .program_pattern_retry_with(0, &[3, 17, 29, 8], &map, &scheme, &policy, &mut rng, &rec)
            .unwrap();
        assert_eq!(report.unrecoverable, 0);
        assert!(report.pulses > 0 && report.energy.0 > 0.0);

        // Pin one target cell to the wrong extreme: it can never verify.
        let faults = FaultMap::pristine(4, 2, 0)
            .unwrap()
            .with_stuck_cell(1, 1, StuckKind::Hrs)
            .unwrap();
        a.set_fault_map(faults).unwrap();
        let report = a
            .program_pattern_retry_with(1, &[3, 31, 29, 8], &map, &scheme, &policy, &mut rng, &rec)
            .unwrap();
        assert_eq!(report.unrecoverable, 1);
        assert!(report.retried >= 1);
        let snap = rec.snapshot();
        assert_eq!(snap.counter("memristor.unrecoverable_cells"), 1);
        assert!(snap.counter("memristor.write_retries") >= 1);

        // Length mismatch rejected.
        assert!(matches!(
            a.program_pattern_retry_with(0, &[1, 2], &map, &scheme, &policy, &mut rng, &rec),
            Err(CrossbarError::InputLengthMismatch { .. })
        ));
    }
}
