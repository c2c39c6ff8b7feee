//! Virtual-time lifetime operations for the associative memory module.
//!
//! The paper treats stored templates as non-volatile, which holds over its
//! evaluation horizon but not over months of traffic: RRAM conductances
//! drift logarithmically ([`DriftModel`]) and every corrective write pulse
//! spends endurance. This crate closes that gap with a deterministic
//! **virtual-time maintenance scheduler** that interleaves recall traffic
//! with background lifetime operations:
//!
//! - **Drift-aware refresh** — each check, the scheduler predicts the
//!   DOM-margin erosion of every live template
//!   ([`AssociativeMemoryModule::template_margin_erosion`]) and re-programs
//!   columns whose predicted loss exceeds a configurable LSB budget,
//!   through the program-and-verify retry path under per-cell pulse
//!   accounting.
//! - **Wear-leveled migration** — refreshes rotate across the spare pool:
//!   when a strictly less-worn free column that is no worse a placement
//!   exists, the template migrates there instead of re-stressing its
//!   current column, bounding the per-column program count at
//!   ⌈total/columns⌉ plus a small constant.
//! - **Endurance budget** — every write pulse increments the device wear
//!   counter ([`spinamm_memristor::Memristor::writes`]); cells crossing a
//!   configurable max-cycles limit convert into stuck-LRS faults injected
//!   through the standard fault pass, so a worn array degrades exactly
//!   like a manufactured-defective one (E13).
//!
//! ## Virtual time
//!
//! The scheduler owns a virtual clock, which
//! [`MaintenanceScheduler::advance_to`] moves to an absolute time (a
//! caller serving traffic converts its query count to seconds at its own
//! duty cycle). Aging is applied analytically from each cell's
//! *programmed reference* (the drift-composability contract:
//! `age(t1); age(t2) ≡ age(t1+t2)`), so a 10⁹-query horizon costs the
//! same as one aging sweep per maintenance check, not 10⁹ device
//! updates. Per-cell drift exponents are sampled
//! once per program event from the scheduler's own seeded RNG and held
//! fixed until the next write — re-running a schedule with the same seed
//! reproduces every refresh decision, pulse count and conductance bit for
//! bit, at any engine worker count.
//!
//! ## Maintenance windows
//!
//! The scheduler owns its module for good. A recall draws no randomness
//! and programs nothing, so live traffic between maintenance windows is
//! served on a clone — e.g.
//! `RecallEngine::new(Deployment::Flat(sched.module().clone()), …)` —
//! and the scheduler's module, RNG stream and programmed state stay where
//! the last window left them: a schedule reads the same with traffic
//! windows or without.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spinamm_circuit::units::{Joules, Seconds};
use spinamm_core::{AssociativeMemoryModule, CoreError, DegradationPolicy, RecallRequest};
use spinamm_crossbar::CrossbarError;
use spinamm_faults::{FaultMap, FaultsError, StuckKind};
use spinamm_memristor::{DriftModel, MemristorError};
use spinamm_telemetry::Recorder;

/// Errors from the lifetime layer.
#[derive(Debug)]
pub enum LifetimeError {
    /// A configuration or input is outside its domain.
    InvalidParameter {
        /// Description of the violated constraint.
        what: &'static str,
    },
    /// Module-level failure.
    Core(CoreError),
    /// Device-level failure.
    Device(MemristorError),
    /// Crossbar failure.
    Crossbar(CrossbarError),
    /// Fault-model failure.
    Faults(FaultsError),
}

impl fmt::Display for LifetimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LifetimeError::InvalidParameter { what } => {
                write!(f, "invalid parameter: {what}")
            }
            LifetimeError::Core(e) => write!(f, "core error: {e}"),
            LifetimeError::Device(e) => write!(f, "device error: {e}"),
            LifetimeError::Crossbar(e) => write!(f, "crossbar error: {e}"),
            LifetimeError::Faults(e) => write!(f, "fault error: {e}"),
        }
    }
}

impl std::error::Error for LifetimeError {}

impl From<CoreError> for LifetimeError {
    fn from(e: CoreError) -> Self {
        LifetimeError::Core(e)
    }
}

impl From<MemristorError> for LifetimeError {
    fn from(e: MemristorError) -> Self {
        LifetimeError::Device(e)
    }
}

impl From<CrossbarError> for LifetimeError {
    fn from(e: CrossbarError) -> Self {
        LifetimeError::Crossbar(e)
    }
}

impl From<FaultsError> for LifetimeError {
    fn from(e: FaultsError) -> Self {
        LifetimeError::Faults(e)
    }
}

/// Lifetime-maintenance policy.
///
/// Construct with [`MaintenanceConfig::new`] (active maintenance) or
/// [`MaintenanceConfig::monitor`] (aging only — the "no maintenance"
/// control arm), then override fields as needed and let
/// [`MaintenanceScheduler::new`] validate.
#[derive(Debug, Clone)]
pub struct MaintenanceConfig {
    /// Drift corner every cell ages under.
    pub drift: DriftModel,
    /// Virtual seconds between maintenance checks. Checks age the array
    /// and evaluate the refresh trigger; they do not rebuild the recall
    /// session (that happens once per [`MaintenanceScheduler::advance_to`]
    /// call), so a short period is cheap.
    pub check_period: Seconds,
    /// Predicted DOM-margin erosion (in ADC LSBs, per
    /// [`AssociativeMemoryModule::template_margin_erosion`]) above which a
    /// template is refreshed. The predictor assumes a fully-driven column,
    /// so it overestimates the margin a real query loses — budget
    /// accordingly (≈2× the acceptable DOM loss).
    pub margin_budget_lsb: f64,
    /// Endurance limit in write pulses per cell; cells at or past it
    /// convert into stuck-LRS faults. `None` models ideal endurance.
    pub max_cycles: Option<u64>,
    /// Age the array but never refresh, migrate or convert worn cells —
    /// the unmaintained control arm of the lifetime study.
    pub monitor_only: bool,
    /// Seed for the scheduler's drift-exponent RNG.
    pub seed: u64,
}

impl MaintenanceConfig {
    /// Active-maintenance defaults at the given drift corner: a 25 s check
    /// cadence, a 3-LSB predicted-margin budget, ideal endurance.
    #[must_use]
    pub fn new(drift: DriftModel) -> Self {
        Self {
            drift,
            check_period: Seconds(25.0),
            margin_budget_lsb: 3.0,
            max_cycles: None,
            monitor_only: false,
            seed: 0x11f3,
        }
    }

    /// The unmaintained control arm: identical aging, no intervention.
    #[must_use]
    pub fn monitor(drift: DriftModel) -> Self {
        Self {
            monitor_only: true,
            ..Self::new(drift)
        }
    }

    /// Checks every field is inside its domain.
    ///
    /// # Errors
    ///
    /// Returns [`LifetimeError::InvalidParameter`] otherwise.
    pub fn validate(&self) -> Result<(), LifetimeError> {
        if !(self.check_period.0.is_finite() && self.check_period.0 > 0.0) {
            return Err(LifetimeError::InvalidParameter {
                what: "check period must be finite and positive",
            });
        }
        if !(self.margin_budget_lsb.is_finite() && self.margin_budget_lsb >= 0.0) {
            return Err(LifetimeError::InvalidParameter {
                what: "margin budget must be finite and non-negative",
            });
        }
        if self.max_cycles == Some(0) {
            return Err(LifetimeError::InvalidParameter {
                what: "endurance limit must allow at least one write",
            });
        }
        Ok(())
    }
}

/// One template refresh (in place or migrated), fired when the template's
/// predicted DOM-margin erosion crossed the budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefreshEvent {
    /// Virtual time of the maintenance check.
    pub at: Seconds,
    /// Template slot refreshed.
    pub slot: usize,
    /// Column the template occupied before the refresh.
    pub from_col: usize,
    /// Column it occupies after (differs from `from_col` on migration).
    pub to_col: usize,
    /// Write pulses spent across the column.
    pub pulses: u32,
    /// Write energy spent.
    pub energy: Joules,
    /// Cells that needed escalated retries.
    pub retried: u32,
    /// Cells that never verified in band.
    pub unrecoverable: u32,
}

/// One background operation, in decision order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MaintenanceEvent {
    /// A template was re-programmed.
    Refresh(RefreshEvent),
    /// A cell crossed the endurance limit and became stuck-LRS.
    WearOut {
        /// Virtual time of the maintenance check.
        at: Seconds,
        /// Worn cell's row.
        row: usize,
        /// Worn cell's column.
        col: usize,
        /// Lifetime write pulses at conversion.
        writes: u64,
    },
}

/// Aggregate lifetime counters (also surfaced as `lifetime.*` telemetry).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LifetimeStats {
    /// Maintenance checks run.
    pub checks: u64,
    /// Template refreshes (in place or migrated).
    pub refreshes: u64,
    /// Refreshes that moved the template to a less-worn column.
    pub migrations: u64,
    /// Write pulses spent by refreshes.
    pub refresh_pulses: u64,
    /// Write energy spent by refreshes.
    pub refresh_energy: Joules,
    /// Cells converted to stuck-LRS by the endurance limit.
    pub worn_cells: u64,
}

/// Deterministic virtual-time maintenance scheduler over one
/// [`AssociativeMemoryModule`].
///
/// See the crate docs for the model. The scheduler owns the module;
/// recalls between maintenance windows go through
/// [`MaintenanceScheduler::module_mut`] or a clone of
/// [`MaintenanceScheduler::module`].
#[derive(Debug, Clone)]
pub struct MaintenanceScheduler {
    config: MaintenanceConfig,
    module: AssociativeMemoryModule,
    rows: usize,
    cols: usize,
    /// Per-cell drift exponent, row-major; resampled on every program
    /// event of the cell's column.
    nu: Vec<f64>,
    /// Per-column program events (template writes), the wear-leveling
    /// metric.
    wear: Vec<u64>,
    /// Cells already converted by the endurance limit.
    worn: Vec<bool>,
    rng: ChaCha8Rng,
    now: Seconds,
    next_check: Seconds,
    dirty: bool,
    stats: LifetimeStats,
    log: Vec<MaintenanceEvent>,
}

impl MaintenanceScheduler {
    /// Adopts a freshly built (or fault-injected) module at virtual time
    /// zero: samples one drift exponent per cell and seeds per-column wear
    /// with the build-time program event of every live template.
    ///
    /// # Errors
    ///
    /// Returns [`LifetimeError::InvalidParameter`] for an invalid config.
    pub fn new(
        module: AssociativeMemoryModule,
        config: MaintenanceConfig,
    ) -> Result<Self, LifetimeError> {
        config.validate()?;
        let rows = module.vector_len();
        let cols = module.array().cols();
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let nu: Vec<f64> = (0..rows * cols)
            .map(|_| config.drift.sample_nu(&mut rng))
            .collect();
        let mut wear = vec![0u64; cols];
        for slot in module.live_templates() {
            wear[module.template_columns()[slot]] += 1;
        }
        let next_check = config.check_period;
        Ok(Self {
            config,
            module,
            rows,
            cols,
            nu,
            wear,
            worn: vec![false; rows * cols],
            rng,
            now: Seconds(0.0),
            next_check,
            dirty: false,
            stats: LifetimeStats::default(),
            log: Vec::new(),
        })
    }

    /// The maintenance policy.
    #[must_use]
    pub fn config(&self) -> &MaintenanceConfig {
        &self.config
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> Seconds {
        self.now
    }

    /// Aggregate counters.
    #[must_use]
    pub fn stats(&self) -> LifetimeStats {
        self.stats
    }

    /// Every background operation so far, in decision order. Two runs with
    /// the same seed and virtual-time schedule produce identical logs.
    #[must_use]
    pub fn log(&self) -> &[MaintenanceEvent] {
        &self.log
    }

    /// Per-column program-event counts (the wear-leveling metric).
    #[must_use]
    pub fn column_wear(&self) -> &[u64] {
        &self.wear
    }

    /// The module, for recalls between maintenance windows (serve a
    /// clone of it to run an engine window).
    #[must_use]
    pub fn module(&self) -> &AssociativeMemoryModule {
        &self.module
    }

    /// Mutable module access, for recalls between maintenance windows.
    pub fn module_mut(&mut self) -> &mut AssociativeMemoryModule {
        &mut self.module
    }

    /// [`MaintenanceScheduler::advance_to_request`] without telemetry.
    ///
    /// # Errors
    ///
    /// See [`MaintenanceScheduler::advance_to_request`].
    pub fn advance_to(&mut self, t: Seconds) -> Result<(), LifetimeError> {
        self.advance_to_request(t, &RecallRequest::DEFAULT)
    }

    /// Advances virtual time to `t`: ages every cell from its programmed
    /// reference, runs each maintenance check falling in `(now, t]`
    /// (margin-triggered refreshes, wear-leveled migration, endurance
    /// conversion — unless `monitor_only`), then reconciles the
    /// module once ([`AssociativeMemoryModule::commit_maintenance`]) so it
    /// is recall-ready on return. Call granularity does not matter:
    /// `advance_to(t1); advance_to(t2)` leaves the same state as
    /// `advance_to(t2)` (the drift-composability contract).
    ///
    /// # Errors
    ///
    /// Returns [`LifetimeError::InvalidParameter`] if `t` is not finite or
    /// moves backwards, and propagates device/programming/fault errors.
    pub fn advance_to_request<R: Recorder>(
        &mut self,
        t: Seconds,
        req: &RecallRequest<'_, R>,
    ) -> Result<(), LifetimeError> {
        if !t.0.is_finite() || t.0 < self.now.0 {
            return Err(LifetimeError::InvalidParameter {
                what: "virtual time must be finite and monotonic",
            });
        }
        while self.next_check.0 <= t.0 {
            let at = self.next_check;
            self.age_all(at)?;
            self.run_check(at, req)?;
            self.next_check = Seconds(self.next_check.0 + self.config.check_period.0);
        }
        if t.0 > self.now.0 {
            self.age_all(t)?;
        }
        if self.dirty {
            self.module.commit_maintenance_request(req)?;
            self.dirty = false;
        }
        req.recorder().gauge("lifetime.virtual_now_s", self.now.0);
        Ok(())
    }

    /// Ages every unpinned cell to absolute virtual time `t` using its
    /// per-cell exponent: `g = g₀ · retention(ν, device_age + dt)`. Device
    /// ages are per-cell because a write re-anchors them at zero, which is
    /// exactly what makes incremental aging compose.
    fn age_all(&mut self, t: Seconds) -> Result<(), LifetimeError> {
        let dt = t.0 - self.now.0;
        if dt > 0.0 {
            let drift = self.config.drift;
            let array = self.module.array_maintenance();
            for row in 0..self.rows {
                for col in 0..self.cols {
                    let cell = array.cell(row, col)?;
                    if cell.is_pinned() {
                        continue;
                    }
                    let age = Seconds(cell.aged().0 + dt);
                    let fraction = drift.retention_with(self.nu[row * self.cols + col], age)?;
                    array.apply_retention(row, col, age, fraction)?;
                }
            }
            self.dirty = true;
        }
        self.now = t;
        Ok(())
    }

    /// One maintenance check at virtual time `at`.
    fn run_check<R: Recorder>(
        &mut self,
        at: Seconds,
        req: &RecallRequest<'_, R>,
    ) -> Result<(), LifetimeError> {
        self.stats.checks += 1;
        req.recorder().counter("lifetime.checks", 1);
        if self.config.monitor_only {
            return Ok(());
        }
        for slot in self.module.live_templates() {
            if self.module.template_margin_erosion(slot)? > self.config.margin_budget_lsb {
                self.refresh_slot(at, slot, req)?;
            }
        }
        if self.config.max_cycles.is_some() {
            self.convert_worn_cells(at, req)?;
        }
        Ok(())
    }

    /// Refreshes one template: migrates to the least-worn free column when
    /// wear leveling finds a strictly less-worn one, else re-programs in
    /// place; then resamples the programmed column's drift exponents (a
    /// write event re-forms the filament).
    fn refresh_slot<R: Recorder>(
        &mut self,
        at: Seconds,
        slot: usize,
        req: &RecallRequest<'_, R>,
    ) -> Result<(), LifetimeError> {
        let module = &mut self.module;
        let from_col = module.template_columns()[slot];
        // Least-worn free column that is also a placement upgrade (or at
        // worst a tie) for this template, and inside the build-time fault
        // pass's default thresholds. Defective columns are individually
        // below the mask threshold, yet a stuck-LRS cell where the
        // template wants a low level inflates the column's correlation
        // current on every query — enough to flip near-tie recalls.
        // Requiring the forecast to be no worse than the current column
        // quarantines the array's worst columns (their occupants escape to
        // healthier spares and nothing rotates back) while fungible
        // healthy columns keep wear-leveling freely.
        let placement = DegradationPolicy::default();
        let here = module.placement_forecast(slot, from_col)?;
        let mut best: Option<usize> = None;
        for c in module.free_columns() {
            let f = module.placement_forecast(slot, c)?;
            if !f.acceptable(&placement) || f.error > here.error || f.excess > here.excess {
                continue;
            }
            if best.map_or(true, |b| (self.wear[c], c) < (self.wear[b], b)) {
                best = Some(c);
            }
        }
        let (to_col, report) = match best.filter(|&c| self.wear[c] < self.wear[from_col]) {
            Some(col) => (col, module.migrate_template_request(slot, col, req)?),
            None => (from_col, module.refresh_template_request(slot, req)?),
        };
        self.wear[to_col] += 1;
        for row in 0..self.rows {
            self.nu[row * self.cols + to_col] = self.config.drift.sample_nu(&mut self.rng);
        }
        self.dirty = true;

        self.stats.refreshes += 1;
        if to_col != from_col {
            self.stats.migrations += 1;
            req.recorder().counter("lifetime.migrations", 1);
        }
        self.stats.refresh_pulses += u64::from(report.pulses);
        self.stats.refresh_energy = Joules(self.stats.refresh_energy.0 + report.energy.0);
        let recorder = req.recorder();
        recorder.counter("lifetime.refreshes", 1);
        recorder.counter("lifetime.refresh_pulses", u64::from(report.pulses));
        recorder.gauge("lifetime.refresh_energy_j", self.stats.refresh_energy.0);

        self.log.push(MaintenanceEvent::Refresh(RefreshEvent {
            at,
            slot,
            from_col,
            to_col,
            pulses: report.pulses,
            energy: report.energy,
            retried: report.retried,
            unrecoverable: report.unrecoverable,
        }));
        Ok(())
    }

    /// Converts cells at or past the endurance limit into stuck-LRS faults
    /// and re-runs the standard fault-injection pass once per batch. The
    /// pass re-verifies every template through the retry path, so columns
    /// hit by a conversion are implicitly refreshed.
    fn convert_worn_cells<R: Recorder>(
        &mut self,
        at: Seconds,
        req: &RecallRequest<'_, R>,
    ) -> Result<(), LifetimeError> {
        let limit = self.config.max_cycles.expect("caller checked");
        let module = &mut self.module;
        let mut fresh = Vec::new();
        for row in 0..self.rows {
            for col in 0..self.cols {
                let idx = row * self.cols + col;
                if self.worn[idx] {
                    continue;
                }
                let cell = module.array().cell(row, col)?;
                if cell.writes() >= limit {
                    self.worn[idx] = true;
                    self.log.push(MaintenanceEvent::WearOut {
                        at,
                        row,
                        col,
                        writes: cell.writes(),
                    });
                    fresh.push((row, col));
                }
            }
        }
        if fresh.is_empty() {
            return Ok(());
        }
        let mut map = match module.array().fault_map() {
            Some(map) => map.clone(),
            None => FaultMap::pristine(self.rows, self.cols, self.config.seed)?,
        };
        for &(row, col) in &fresh {
            if map.stuck_at(row, col).is_none() {
                map = map.with_stuck_cell(row, col, StuckKind::Lrs)?;
            }
        }
        module.inject_faults_request(map, &DegradationPolicy::default(), req)?;
        self.dirty = true;
        self.stats.worn_cells += fresh.len() as u64;
        req.recorder()
            .counter("lifetime.worn_cells", fresh.len() as u64);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinamm_core::AmmConfig;

    /// Small synthetic template set: `k` near-orthogonal columns over
    /// `rows` input lines, levels inside the 5-bit range.
    fn patterns(k: usize, rows: usize) -> Vec<Vec<u32>> {
        (0..k)
            .map(|i| (0..rows).map(|r| if r % k == i { 28 } else { 2 }).collect())
            .collect()
    }

    fn small_config(spares: usize) -> AmmConfig {
        AmmConfig {
            spare_columns: spares,
            input_mismatch: false,
            ..AmmConfig::default()
        }
    }

    fn small_module(k: usize, rows: usize, spares: usize) -> AssociativeMemoryModule {
        AssociativeMemoryModule::build(&patterns(k, rows), &small_config(spares)).unwrap()
    }

    fn aggressive_maintenance() -> MaintenanceConfig {
        MaintenanceConfig {
            check_period: Seconds(50.0),
            margin_budget_lsb: 1.0,
            ..MaintenanceConfig::new(DriftModel::AGGRESSIVE)
        }
    }

    #[test]
    fn config_validation_rejects_bad_fields() {
        let mut c = MaintenanceConfig::new(DriftModel::TYPICAL);
        c.check_period = Seconds(-1.0);
        assert!(c.validate().is_err());
        let mut c = MaintenanceConfig::new(DriftModel::TYPICAL);
        c.margin_budget_lsb = f64::NAN;
        assert!(c.validate().is_err());
        let mut c = MaintenanceConfig::new(DriftModel::TYPICAL);
        c.max_cycles = Some(0);
        assert!(c.validate().is_err());
        assert!(MaintenanceConfig::monitor(DriftModel::TYPICAL)
            .validate()
            .is_ok());
    }

    #[test]
    fn monitor_only_ages_without_intervening() {
        let module = small_module(3, 12, 2);
        let reference = module.array().cell(0, 0).unwrap().programmed_reference();
        let mut sched =
            MaintenanceScheduler::new(module, MaintenanceConfig::monitor(DriftModel::AGGRESSIVE))
                .unwrap();
        sched.advance_to(Seconds(1.0e5)).unwrap();
        assert!(sched.stats().checks > 0);
        assert_eq!(sched.stats().refreshes, 0);
        assert!(sched.log().is_empty());
        let cell = sched.module().array().cell(0, 0).unwrap();
        assert!(
            cell.programmed().0 < reference.0,
            "cell should have drifted"
        );
        assert_eq!(cell.programmed_reference(), reference);
    }

    #[test]
    fn margin_refresh_restores_drifted_columns() {
        let module = small_module(3, 12, 2);
        let mut sched = MaintenanceScheduler::new(module, aggressive_maintenance()).unwrap();
        sched.advance_to(Seconds(1.0e5)).unwrap();
        let stats = sched.stats();
        assert!(
            stats.refreshes > 0,
            "aggressive drift must trigger refreshes"
        );
        assert!(stats.refresh_pulses > 0);
        assert!(stats.refresh_energy.0 > 0.0);
        // Every live template sits inside the margin budget at the end of
        // the window (the final partial step is shorter than a check).
        let module = sched.module();
        for slot in module.live_templates() {
            let erosion = module.template_margin_erosion(slot).unwrap();
            assert!(
                erosion < 2.0 * sched.config().margin_budget_lsb,
                "slot {slot} erosion {erosion} way past budget after maintenance"
            );
        }
    }

    #[test]
    fn advance_granularity_is_invisible() {
        let build = || MaintenanceScheduler::new(small_module(3, 12, 2), aggressive_maintenance());
        let mut one = build().unwrap();
        one.advance_to(Seconds(2.0e4)).unwrap();
        let mut many = build().unwrap();
        for step in [30.0, 170.0, 800.0, 7000.0, 2.0e4] {
            many.advance_to(Seconds(step)).unwrap();
        }
        assert_eq!(one.stats(), many.stats());
        assert_eq!(one.log(), many.log());
        let a = one.module().array().conductance_matrix();
        let b = many.module().array().conductance_matrix();
        assert_eq!(a, b, "split advances must leave bit-identical conductances");
    }

    #[test]
    fn wear_leveling_bounds_per_column_writes() {
        let module = small_module(3, 12, 3);
        let config = MaintenanceConfig {
            // Zero budget: every check refreshes every template, the
            // worst-case write pressure for the leveler.
            margin_budget_lsb: 0.0,
            check_period: Seconds(50.0),
            ..MaintenanceConfig::new(DriftModel::AGGRESSIVE)
        };
        let mut sched = MaintenanceScheduler::new(module, config).unwrap();
        sched.advance_to(Seconds(5.0e3)).unwrap();
        assert!(
            sched.stats().migrations > 0,
            "leveler should rotate over spares"
        );
        let wear = sched.column_wear();
        let total: u64 = wear.iter().sum();
        let bound = total.div_ceil(wear.len() as u64) + 1;
        assert!(
            wear.iter().all(|&w| w <= bound),
            "wear {wear:?} exceeds ⌈{total}/{}⌉+1 = {bound}",
            wear.len()
        );
    }

    #[test]
    fn endurance_limit_converts_cells_to_stuck_faults() {
        // No spare columns, so every refresh stays in place.
        let module = small_module(3, 12, 0);
        let config = MaintenanceConfig {
            margin_budget_lsb: 0.0,
            check_period: Seconds(50.0),
            // Build programming alone spends several pulses per cell, so a
            // small ceiling wears cells out after a handful of refreshes.
            max_cycles: Some(40),
            ..MaintenanceConfig::new(DriftModel::AGGRESSIVE)
        };
        let mut sched = MaintenanceScheduler::new(module, config).unwrap();
        sched.advance_to(Seconds(5.0e3)).unwrap();
        let stats = sched.stats();
        assert!(
            stats.worn_cells > 0,
            "tiny endurance budget must wear cells out"
        );
        let module = sched.module();
        let map = module
            .array()
            .fault_map()
            .expect("conversion installs a map");
        assert!(
            map.stuck_cells().iter().any(|c| c.kind == StuckKind::Lrs),
            "worn cells surface as stuck-LRS"
        );
        let worn_logged = sched
            .log()
            .iter()
            .filter(|e| matches!(e, MaintenanceEvent::WearOut { .. }))
            .count() as u64;
        assert_eq!(worn_logged, stats.worn_cells);
        // Conversion is one-way: advancing further must not re-convert.
        sched.advance_to(Seconds(5.5e3)).unwrap();
        assert!(sched.stats().worn_cells >= worn_logged);
    }

    #[test]
    fn maintained_recall_outlives_unmaintained_at_aggressive_corner() {
        let horizon = Seconds(2.0e5);
        let probe: Vec<u32> = patterns(3, 12)[1].clone();
        let run = |config: MaintenanceConfig| {
            let module = AssociativeMemoryModule::build(
                &patterns(3, 12),
                &AmmConfig {
                    dom_threshold: 20,
                    ..small_config(2)
                },
            )
            .unwrap();
            let mut sched = MaintenanceScheduler::new(module, config).unwrap();
            sched.advance_to(horizon).unwrap();
            sched.module_mut().recall(&probe).unwrap()
        };
        let kept = run(aggressive_maintenance());
        let lost = run(MaintenanceConfig::monitor(DriftModel::AGGRESSIVE));
        assert_eq!(
            kept.winner,
            Some(1),
            "maintained module keeps its DOM margin"
        );
        // The unmaintained twin still ranks correctly (uniform drift is
        // ranking-invariant) but its absolute margin collapses.
        assert!(lost.dom < kept.dom, "unmaintained DOM must erode");
    }
}
