//! The complete associative memory module (AMM).
//!
//! Programming, input conversion, correlation, digitization and winner
//! selection, wired together exactly as in the paper's Figs. 8 and 11–12:
//!
//! 1. Templates are written column-wise into the crossbar with the
//!    program-and-verify scheme, and every row gets a dummy conductance so
//!    all rows present the same load `G_TS` to their input DACs.
//! 2. A digital input vector drives per-row DTCS DACs from the `V + ΔV`
//!    rail; the DAC full scale is sized so a perfectly matching input
//!    produces the WTA's full-scale column current `2^bits × I_th`.
//! 3. Column currents are digitized by per-column spin SAR ADCs while the
//!    digital tracker follows the conversion (see [`crate::wta`]).

use crate::degrade::{DegradationPolicy, FaultReport, PlacementForecast};
use crate::energy::{EnergyBreakdown, PowerReport};
use crate::params::DesignParams;
use crate::plan::Kernel;
use crate::request::RecallRequest;
use crate::wta::{SpinWta, WtaOutcome};
use crate::{adc::SpinSarAdc, CoreError};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spinamm_circuit::units::{Amps, Joules, Seconds, Volts, Watts};
use spinamm_cmos::{DtcsDac, Tech45};
use spinamm_crossbar::{CachedParasiticCrossbar, CrossbarArray, PatternRetryReport, RowDrive};
use spinamm_faults::{FaultMap, LineDefect, StuckKind};
use spinamm_memristor::{LevelMap, RetryPolicy, WriteScheme};
use spinamm_telemetry::{Layer, NoopRecorder, Recorder};
use std::sync::{Arc, OnceLock};

/// How faithfully the crossbar is evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fidelity {
    /// Perfect input current sources and lossless wires — the algorithmic
    /// reference.
    Ideal,
    /// DTCS source-conductance loading included analytically (Fig. 8b
    /// non-linearity), lossless wires.
    #[default]
    Driven,
    /// Full nodal-analysis netlist with wire parasitics (Fig. 9 effects).
    Parasitic,
}

/// Configuration of an AMM instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AmmConfig {
    /// Device/system constants (Table 2); template geometry fields are
    /// overridden by the actual pattern set handed to
    /// [`AssociativeMemoryModule::build`].
    pub params: DesignParams,
    /// Crossbar evaluation fidelity.
    pub fidelity: Fidelity,
    /// Sample input-DAC mismatch ("variations in input source").
    pub input_mismatch: bool,
    /// Minimum DOM for a winner to be *accepted*; below it the input is
    /// reported as not in the stored set (paper §4B: "if the DOM is lower
    /// than a predetermined threshold, the winner is discarded").
    pub dom_threshold: u32,
    /// Apply the paper's per-row dummy (`G_TS`) equalization. Disable only
    /// for ablation studies: without it every input DAC sees a
    /// data-dependent load and the Fig. 8b non-linearity becomes
    /// row-dependent.
    pub equalize_rows: bool,
    /// Apply design-time input-gain calibration (size the DAC range to the
    /// stored data's maximum dot product). Disable only for ablation
    /// studies: without it real workloads use a fraction of the ADC range.
    pub gain_calibration: bool,
    /// Extra unprogrammed crossbar columns provisioned as spares for
    /// fault-time template remapping (see
    /// [`AssociativeMemoryModule::inject_faults`]). Zero (the default)
    /// leaves the module bit-identical to earlier releases.
    pub spare_columns: usize,
    /// Master seed for all stochastic elements (programming noise and
    /// mismatch). A recall draws no randomness.
    pub seed: u64,
}

impl Default for AmmConfig {
    fn default() -> Self {
        Self {
            params: DesignParams::PAPER,
            fidelity: Fidelity::Driven,
            input_mismatch: true,
            dom_threshold: 0,
            equalize_rows: true,
            gain_calibration: true,
            spare_columns: 0,
            seed: 0xa1b2,
        }
    }
}

/// The vector length of a non-empty bank whose patterns all share it — the
/// check every deployment's build makes before it programs anything.
pub(crate) fn bank_width(patterns: &[Vec<u32>]) -> Result<usize, CoreError> {
    let first = patterns.first().ok_or(CoreError::InvalidParameter {
        what: "at least one pattern must be stored",
    })?;
    if patterns.iter().any(|p| p.len() != first.len()) {
        return Err(CoreError::InvalidParameter {
            what: "all patterns must share one length",
        });
    }
    Ok(first.len())
}

/// The first phase of one recognition: the analog column currents out of
/// the crossbar plus the RCM static power, before fault conditioning,
/// digitization and winner selection.
///
/// Produced by [`AssociativeMemoryModule::evaluate_query_request`] — on the
/// module itself or on any clone of it (the phase mutates only cached
/// solver state) — and consumed by
/// [`AssociativeMemoryModule::select_winner_request`]. The two calls in
/// sequence are [`AssociativeMemoryModule::recall`]; benchmarks time them
/// apart.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryEvaluation {
    pub(crate) currents: Vec<Amps>,
    pub(crate) rcm_power: Watts,
}

impl QueryEvaluation {
    /// The analog column currents entering the converters.
    #[must_use]
    pub fn column_currents(&self) -> &[Amps] {
        &self.currents
    }
}

/// Result of one recognition.
#[derive(Debug, Clone, PartialEq)]
pub struct RecallResult {
    /// The accepted winner (argmax column), or `None` if the DOM fell below
    /// the acceptance threshold.
    pub winner: Option<usize>,
    /// The argmax column regardless of acceptance.
    pub raw_winner: usize,
    /// The hardware tracker's single-winner output, when unambiguous.
    pub tracked_winner: Option<usize>,
    /// Degree of match of the raw winner.
    pub dom: u32,
    /// All column codes.
    pub codes: Vec<u32>,
    /// Analog column currents that entered the ADCs.
    pub column_currents: Vec<Amps>,
    /// Energy of this recognition.
    pub energy: EnergyBreakdown,
}

/// The full module.
///
/// Recalls run through the module's compiled kernel ([`crate::plan`]),
/// built on first use and dropped by every `&mut self` mutator. Clones
/// share the kernel (see the `Clone` impl). Fields are `pub(crate)` so the
/// kernel can lower them without widening the public API.
#[derive(Debug)]
pub struct AssociativeMemoryModule {
    pub(crate) config: AmmConfig,
    pub(crate) array: CrossbarArray,
    pub(crate) input_dacs: Vec<spinamm_cmos::DacInstance>,
    pub(crate) wta: SpinWta,
    pub(crate) parasitic: CachedParasiticCrossbar,
    pub(crate) rng: ChaCha8Rng,
    /// The stored template levels, kept for fault-time re-programming and
    /// remapping.
    pub(crate) templates: Vec<Vec<u32>>,
    /// Template index → physical column (identity until remapping).
    pub(crate) template_column: Vec<usize>,
    /// Physical column → owning template (`None` for spares and released
    /// faulty columns).
    pub(crate) column_owner: Vec<Option<usize>>,
    /// Physical columns gated out of the WTA by the degradation pass.
    pub(crate) masked: Vec<bool>,
    /// The recall kernel for the current state; empty until first use and
    /// after every mutation.
    kernel: OnceLock<Arc<Kernel>>,
}

impl Clone for AssociativeMemoryModule {
    /// Builds the kernel first (when missing), so the clone and the
    /// original share one copy of its tables — an engine's deployment and
    /// worker clones hold the tables once. A build error resurfaces on the
    /// first recall of either module.
    fn clone(&self) -> Self {
        let _ = self.kernel(&NoopRecorder);
        Self {
            config: self.config,
            array: self.array.clone(),
            input_dacs: self.input_dacs.clone(),
            wta: self.wta.clone(),
            parasitic: self.parasitic.clone(),
            rng: self.rng.clone(),
            templates: self.templates.clone(),
            template_column: self.template_column.clone(),
            column_owner: self.column_owner.clone(),
            masked: self.masked.clone(),
            kernel: self.kernel.clone(),
        }
    }
}

impl AssociativeMemoryModule {
    /// The fraction of the ADC range the largest stored-pattern
    /// self-correlation is calibrated to occupy (headroom for inputs that
    /// correlate slightly better than any stored self-match).
    pub const FULL_SCALE_HEADROOM: f64 = 0.9;

    /// Builds and programs a module storing `patterns` (one per column;
    /// each element a `template_bits`-bit level).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for an empty or ragged
    /// pattern set or out-of-range levels, and propagates device errors.
    pub fn build(patterns: &[Vec<u32>], config: &AmmConfig) -> Result<Self, CoreError> {
        Self::build_request(patterns, config, &RecallRequest::DEFAULT)
    }

    /// [`AssociativeMemoryModule::build`] with options: programming pulse
    /// and verify counts from the write scheme are reported to the
    /// request's recorder under a `"build.program"` span.
    ///
    /// Parasitic-fidelity modules leave `build_request` with their cached
    /// netlist session already warmed by one canonical mid-scale solve, so
    /// the CG warm-start reference every later solve (and every clone)
    /// inherits is fixed at build time — recall results are independent of
    /// query scheduling across sequential, batched and engine execution.
    ///
    /// # Errors
    ///
    /// See [`AssociativeMemoryModule::build`].
    pub fn build_request<R: Recorder>(
        patterns: &[Vec<u32>],
        config: &AmmConfig,
        req: &RecallRequest<'_, R>,
    ) -> Result<Self, CoreError> {
        let recorder = req.recorder();
        let rows = bank_width(patterns)?;
        if rows == 0 {
            return Err(CoreError::InvalidParameter {
                what: "patterns must have at least one element",
            });
        }
        let p = &config.params;
        let level_cap = 1u32 << p.template_bits;
        if patterns.iter().flatten().any(|&l| l >= level_cap) {
            return Err(CoreError::InvalidParameter {
                what: "pattern level exceeds template bit width",
            });
        }
        let cols = patterns.len();
        // Spares are extra physical columns after the templates; they stay
        // unprogrammed (off) until a fault-time remap claims them.
        let total_cols = cols + config.spare_columns;
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);

        // Program the crossbar.
        let map = LevelMap::new(p.memristor_limits, p.template_bits)?;
        let write = WriteScheme::new(p.write_tolerance)?;
        let mut array = CrossbarArray::new(rows, total_cols, p.memristor_limits)?;
        {
            let _program = recorder.span(Layer::PROGRAM);
            for (j, pattern) in patterns.iter().enumerate() {
                array.program_pattern_with(j, pattern, &map, &write, &mut rng, recorder)?;
            }
        }
        if config.equalize_rows {
            array.equalize_rows(None)?;
        }

        // Column converters + tracker.
        let tech = Tech45::DEFAULT;
        let clock = Seconds(1.0 / p.input_rate.0);
        let adcs: Vec<SpinSarAdc> = (0..total_cols)
            .map(|_| {
                SpinSarAdc::build(
                    p.comparator_bits,
                    p.dwn_threshold,
                    p.delta_v,
                    clock,
                    &tech,
                    &mut rng,
                )
            })
            .collect::<Result<_, CoreError>>()?;

        // Input DACs, sized in two steps.
        //
        // First-order sizing: a full-level input on a full-level column
        // must reach the WTA's full-scale current. With G_TS = cols·g_max,
        // I_col ≈ ΔV·G_T·rows/cols, so G_T(max) = I_fs·cols/(rows·ΔV).
        //
        // Gain calibration: real workloads never present all-maximum
        // vectors, so their best-match currents would occupy only a
        // fraction of the ADC range and the WTA resolution would be wasted.
        // The paper sizes against the *actual* maximum dot product ("the
        // maximum value of the dot-product output must be greater than
        // 32 µA"), i.e. a design-time calibration against the stored data.
        // We reproduce that: measure the largest self-correlation current
        // over the stored patterns at unit gain, then scale the DAC full
        // scale so that maximum lands at [`Self::FULL_SCALE_HEADROOM`] of
        // the ADC range.
        let i_fs_col = adcs[0].nominal_full_scale();
        // G_TS = total_cols·g_max includes any spare columns, so they enter
        // the first-order sizing too (gain calibration corrects the rest).
        let dac_fs = Amps(i_fs_col.0 * total_cols as f64 / rows as f64);
        // Fixed-point calibration: the DAC compression depends on its own
        // size, so after the first rescale, re-measure and correct once
        // more. The probe uses the same drive style as the configured
        // fidelity so Ideal-fidelity modules cannot saturate.
        let gain = Self::calibrated_gain(&array, patterns, config, i_fs_col, dac_fs, &tech)?;
        let input_design =
            DtcsDac::design(p.template_bits, Amps(dac_fs.0 * gain), p.delta_v, &tech)?;
        let input_dacs = (0..rows)
            .map(|_| {
                if config.input_mismatch {
                    input_design.sample(&mut rng)
                } else {
                    input_design.nominal()
                }
            })
            .collect();
        let wta = SpinWta::new(adcs, tech)?;

        let mut module = Self {
            config: *config,
            array,
            input_dacs,
            wta,
            parasitic: CachedParasiticCrossbar::new(p.crossbar_geometry()),
            rng,
            templates: patterns.to_vec(),
            template_column: (0..cols).collect(),
            column_owner: (0..total_cols).map(|j| (j < cols).then_some(j)).collect(),
            masked: vec![false; total_cols],
            kernel: OnceLock::new(),
        };
        module.warm_session(recorder)?;
        Ok(module)
    }

    /// The input-DAC gain correction of [`AssociativeMemoryModule::build`]:
    /// two fixed-point passes (none when `gain_calibration` is off), each
    /// probing every stored pattern's self-correlation current at the
    /// current gain and rescaling so the largest lands at
    /// [`Self::FULL_SCALE_HEADROOM`] of `i_fs_col`.
    ///
    /// A pattern's probe reads only its own column, summed in row order
    /// from the drive's input voltage against the row's total load — the
    /// numbers `CrossbarArray::driven_column_currents` computes for that
    /// column — so the gain is the same as from the full current vector.
    /// Each pass tabulates the input voltage once per `(row, level)` and
    /// reads every pattern's column from that table, so a probe costs one
    /// multiply-add. `patterns` must be rectangular, `array.rows()` long,
    /// with levels below `2^template_bits` (as `build_request` checks).
    fn calibrated_gain(
        array: &CrossbarArray,
        patterns: &[Vec<u32>],
        config: &AmmConfig,
        i_fs_col: Amps,
        dac_fs: Amps,
        tech: &Tech45,
    ) -> Result<f64, CoreError> {
        let p = &config.params;
        let loads = (0..array.rows())
            .map(|i| array.row_total_conductance(i))
            .collect::<Result<Vec<_>, _>>()?;
        let (cols, g) = (array.cols(), array.conductances());
        let mut gain = 1.0_f64;
        let calibration_passes = if config.gain_calibration { 2 } else { 0 };
        for _ in 0..calibration_passes {
            let probe =
                DtcsDac::design(p.template_bits, Amps(dac_fs.0 * gain), p.delta_v, tech)?.nominal();
            let drives = (0..1u32 << p.template_bits)
                .map(|l| {
                    Ok(match config.fidelity {
                        Fidelity::Ideal => RowDrive::Current(probe.clamped_current(l)?),
                        Fidelity::Driven | Fidelity::Parasitic => RowDrive::SourceConductance {
                            g: probe.conductance(l)?,
                            supply: p.delta_v,
                        },
                    })
                })
                .collect::<Result<Vec<_>, CoreError>>()?;
            // Row `i`'s input voltage at level `l`, at `i · levels + l`.
            let levels = drives.len();
            let voltage: Vec<f64> = loads
                .iter()
                .flat_map(|&load| drives.iter().map(move |d| d.input_voltage(load).0))
                .collect();
            let mut max_self: f64 = 0.0;
            for (j, pattern) in patterns.iter().enumerate() {
                let mut current = 0.0;
                if !array.column_disconnected(j) {
                    for (i, &l) in pattern.iter().enumerate() {
                        current += voltage[i * levels + l as usize] * g[i * cols + j].0;
                    }
                }
                max_self = max_self.max(current);
            }
            if max_self > 0.0 {
                gain *= Self::FULL_SCALE_HEADROOM * i_fs_col.0 / max_self;
            }
        }
        Ok(gain)
    }

    /// Pins the cached parasitic session's state with one canonical
    /// mid-scale solve. The session's CG warm-start reference is
    /// deliberately the *first* solution it produces (see
    /// `spinamm_circuit::prepared`); solving a fixed canonical input here
    /// makes that reference a property of the module, not of whichever
    /// query happens to arrive first — so sequential recalls, batch
    /// workers and engine-worker clones all share one reference and stay
    /// bit-identical under any scheduling. No-op for analytic fidelities.
    fn warm_session<T: Recorder>(&mut self, recorder: &T) -> Result<(), CoreError> {
        if self.config.fidelity != Fidelity::Parasitic {
            return Ok(());
        }
        let mid = (1u32 << self.config.params.template_bits) / 2;
        let levels = vec![mid; self.vector_len()];
        let drives = self.drives(&levels)?;
        self.parasitic
            .evaluate_with(&self.array, &drives, recorder)?;
        Ok(())
    }

    /// Number of stored patterns.
    #[must_use]
    pub fn pattern_count(&self) -> usize {
        self.templates.len()
    }

    /// Input vector length.
    #[must_use]
    pub fn vector_len(&self) -> usize {
        self.array.rows()
    }

    /// The configuration this module was built with.
    #[must_use]
    pub fn config(&self) -> &AmmConfig {
        &self.config
    }

    /// The programmed crossbar (for inspection and margin studies).
    #[must_use]
    pub fn array(&self) -> &CrossbarArray {
        &self.array
    }

    /// Recognition latency (`comparator_bits` SAR cycles).
    #[must_use]
    pub fn latency(&self) -> Seconds {
        self.wta.latency()
    }

    /// Ages the programmed array in place under a memristor drift model
    /// (see [`spinamm_memristor::DriftModel`]) — used by retention studies.
    ///
    /// # Errors
    ///
    /// Propagates crossbar errors.
    pub fn age_array<R: rand::Rng + ?Sized>(
        &mut self,
        elapsed: Seconds,
        model: &spinamm_memristor::DriftModel,
        rng: &mut R,
    ) -> Result<(), CoreError> {
        self.kernel.take();
        self.array.age(elapsed, model, rng)?;
        Ok(())
    }

    /// The ADC's nominal LSB current — the smallest column-current gap the
    /// WTA can resolve.
    #[must_use]
    pub fn lsb_current(&self) -> Amps {
        let adc = &self.wta.adcs()[0];
        Amps(adc.nominal_full_scale().0 / f64::from(1u32 << adc.bits()))
    }

    /// The recall kernel for the current state, built on first use (timed
    /// under a `plan.compile` span and counted as `plan.compiles`).
    fn kernel<T: Recorder>(&self, recorder: &T) -> Result<Arc<Kernel>, CoreError> {
        if let Some(kernel) = self.kernel.get() {
            return Ok(Arc::clone(kernel));
        }
        let kernel = {
            let _compile = recorder.span(Layer::COMPILE);
            recorder.counter("plan.compiles", 1);
            Arc::new(Kernel::build(self)?)
        };
        Ok(Arc::clone(self.kernel.get_or_init(|| kernel)))
    }

    /// Lowers one `(row, level)` pair into its [`RowDrive`].
    ///
    /// This is the single code path both the reference implementation and
    /// the kernel's drive tables go through, so a table entry is
    /// bit-identical to reference drive construction by construction.
    pub(crate) fn drive_for_row(&self, i: usize, level: u32) -> Result<RowDrive, CoreError> {
        // Row-line defects override the DAC entirely: an open bar
        // delivers no current, a shorted bar clamps the input at
        // the 0 V reference. Both are per-row constants, so cached
        // parasitic sessions keep a stable drive-kind signature.
        if let Some(map) = self.array.fault_map() {
            match map.row_defect(i) {
                Some(LineDefect::Open) => return Ok(RowDrive::Current(Amps(0.0))),
                Some(LineDefect::Short) => return Ok(RowDrive::Voltage(Volts(0.0))),
                None => {}
            }
        }
        let dac = &self.input_dacs[i];
        match self.config.fidelity {
            Fidelity::Ideal => {
                // Perfect current source proportional to the level.
                let i_nominal = dac.clamped_current(level)?;
                Ok(RowDrive::Current(i_nominal))
            }
            Fidelity::Driven | Fidelity::Parasitic => Ok(RowDrive::SourceConductance {
                g: dac.conductance(level)?,
                supply: self.config.params.delta_v,
            }),
        }
    }

    /// Builds the row drives for an input vector (reference
    /// implementation; the kernel reads its drive tables instead).
    fn drives(&self, levels: &[u32]) -> Result<Vec<RowDrive>, CoreError> {
        if levels.len() != self.vector_len() {
            return Err(CoreError::InputLengthMismatch {
                expected: self.vector_len(),
                found: levels.len(),
            });
        }
        let cap = 1u32 << self.config.params.template_bits;
        if levels.iter().any(|&l| l >= cap) {
            return Err(CoreError::InvalidParameter {
                what: "input level exceeds template bit width",
            });
        }
        levels
            .iter()
            .enumerate()
            .map(|(i, &level)| self.drive_for_row(i, level))
            .collect()
    }

    /// Evaluates the crossbar analytically (ideal or driven fidelity),
    /// returning the column currents and the static power burned in the
    /// RCM (rails → clamp). Reference implementation.
    fn correlate_analytic(&self, drives: &[RowDrive]) -> Result<(Vec<Amps>, Watts), CoreError> {
        let currents = self.array.driven_column_currents(drives)?;
        // All input current falls through ΔV (rail to clamp).
        let mut total_in = 0.0;
        for (i, d) in drives.iter().enumerate() {
            let load = self.array.row_total_conductance(i)?;
            total_in += d.current_into(load).0;
        }
        let power = Watts(total_in * self.config.params.delta_v.0);
        Ok((currents, power))
    }

    /// The evaluate phase for a whole checked batch.
    ///
    /// Analytic kernels map the queries sequentially (a query is cheaper
    /// than a thread spawn). Parasitic fidelity runs two steps: the master session — canonically warmed
    /// at build time, so its warm-start reference is already pinned —
    /// solves query 0 (refreshing the factorization all clones inherit),
    /// then [`std::thread::scope`] workers, each holding a clone of the
    /// warmed session, solve disjoint chunks of the rest. Because the
    /// cached evaluator is order-independent (deterministic full restamp,
    /// fixed warm-start reference, stable preconditioner), every readout is
    /// bit-identical to what a sequential loop would produce.
    fn evaluate_batch<R: Recorder + Sync>(
        &mut self,
        kernel: &Kernel,
        inputs: &[&[u32]],
        workers_hint: usize,
        recorder: &R,
    ) -> Result<Vec<QueryEvaluation>, CoreError> {
        let Some((first, rest)) = inputs.split_first() else {
            return Ok(Vec::new());
        };
        let array = &self.array;
        let mut out = Vec::with_capacity(inputs.len());
        out.push(kernel.evaluate(&mut self.parasitic, array, first, recorder)?);
        let workers = if kernel.solves() {
            workers_hint.min(rest.len())
        } else {
            1
        };
        if workers <= 1 {
            for q in rest {
                out.push(kernel.evaluate(&mut self.parasitic, array, q, recorder)?);
            }
            return Ok(out);
        }
        let session = &self.parasitic;
        let chunks: Vec<Vec<Result<QueryEvaluation, CoreError>>> = std::thread::scope(|s| {
            let handles: Vec<_> = rest
                .chunks(rest.len().div_ceil(workers))
                .map(|queries| {
                    let mut worker = session.clone();
                    s.spawn(move || {
                        queries
                            .iter()
                            .map(|q| kernel.evaluate(&mut worker, array, q, recorder))
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("batch worker panicked"))
                .collect()
        });
        for eval in chunks.into_iter().flatten() {
            out.push(eval?);
        }
        Ok(out)
    }

    /// Runs one recognition.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InputLengthMismatch`] or
    /// [`CoreError::InvalidParameter`] for bad inputs; propagates solver
    /// errors in parasitic mode.
    pub fn recall(&mut self, levels: &[u32]) -> Result<RecallResult, CoreError> {
        self.recall_request(levels, &RecallRequest::DEFAULT)
    }

    /// [`AssociativeMemoryModule::recall`] with options: the recognition
    /// is timed end to end (`"recall.total"`) and per stage
    /// (`"recall.drive"` for input validation and the drive tables,
    /// `"recall.settle"` for crossbar evaluation, `"recall.convert"` and
    /// `"recall.select"` for the converters and the winner tracker), and
    /// device-event counters from every layer (`"adc.sar_cycles"`,
    /// `"spin.dwn_switch_events"`, `"crossbar.settle_iterations"`, …) flow
    /// into the request's recorder.
    ///
    /// Request options are observational only: for any recorder the
    /// returned [`RecallResult`] is bit-identical to
    /// [`AssociativeMemoryModule::recall`].
    ///
    /// # Errors
    ///
    /// See [`AssociativeMemoryModule::recall`].
    pub fn recall_request<R: Recorder>(
        &mut self,
        levels: &[u32],
        req: &RecallRequest<'_, R>,
    ) -> Result<RecallResult, CoreError> {
        let _total = req.recorder().span(Layer::RECALL);
        let eval = self.evaluate_query_request(levels, req)?;
        self.select_winner_request(eval, req)
    }

    /// Runs the first phase of one recognition: input validation and
    /// crossbar evaluation, producing the analog column currents. Touches
    /// only cached solver state, so it may run on a clone of the module
    /// and still yield exactly what the original would have produced.
    /// Followed by [`AssociativeMemoryModule::select_winner_request`], it
    /// reproduces [`AssociativeMemoryModule::recall`] bit for bit.
    ///
    /// # Errors
    ///
    /// See [`AssociativeMemoryModule::recall`]; all input validation
    /// happens in this phase.
    pub fn evaluate_query_request<R: Recorder>(
        &mut self,
        levels: &[u32],
        req: &RecallRequest<'_, R>,
    ) -> Result<QueryEvaluation, CoreError> {
        let recorder = req.recorder();
        let kernel = {
            let _drive = recorder.span(Layer::DRIVE);
            let kernel = self.kernel(recorder)?;
            kernel.check(levels)?;
            kernel
        };
        let _settle = recorder.span(Layer::SETTLE);
        kernel.evaluate(&mut self.parasitic, &self.array, levels, recorder)
    }

    /// Runs the second phase of one recognition: fault conditioning, spin
    /// ADC conversion and winner tracking. It draws no randomness and
    /// changes nothing, so the select of an evaluation gives what
    /// [`AssociativeMemoryModule::recall`] would, on this module or any
    /// clone, in any order.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InputLengthMismatch`] for an evaluation of
    /// another width; propagates spin/WTA errors.
    pub fn select_winner_request<R: Recorder>(
        &self,
        eval: QueryEvaluation,
        req: &RecallRequest<'_, R>,
    ) -> Result<RecallResult, CoreError> {
        let recorder = req.recorder();
        self.kernel(recorder)?.select(&self.wta, eval, recorder)
    }

    /// The interpreted reference implementation of
    /// [`AssociativeMemoryModule::recall_request`]: per-query drive
    /// construction, cell-by-cell correlation, fault conditioning and the
    /// [`SpinWta`]-driven select, with no compiled tables. It reports
    /// `recall.count` and the device counters as `recall` does, so core
    /// tests and the conformance harness compare the kernel against it bit
    /// for bit. Not a serving path.
    ///
    /// # Errors
    ///
    /// See [`AssociativeMemoryModule::recall`].
    #[doc(hidden)]
    pub fn oracle_recall_request<R: Recorder>(
        &mut self,
        levels: &[u32],
        req: &RecallRequest<'_, R>,
    ) -> Result<RecallResult, CoreError> {
        let recorder = req.recorder();
        let drives = self.drives(levels)?;
        let (mut currents, rcm_power) = match self.config.fidelity {
            Fidelity::Ideal | Fidelity::Driven => self.correlate_analytic(&drives)?,
            Fidelity::Parasitic => {
                let readout = self
                    .parasitic
                    .evaluate_with(&self.array, &drives, recorder)?;
                (readout.column_currents, readout.dissipated_power)
            }
        };
        recorder.counter("recall.count", 1);
        self.condition_currents(&mut currents);
        let outcome = self.wta.evaluate_with(&currents, recorder)?;
        Ok(self.assemble_result(outcome, currents, rcm_power))
    }

    /// Post-correlation fault conditioning: spare and masked columns are
    /// gated out of the WTA (their latch never fires), healthy columns
    /// pick up their input-referred latch offset. A no-op for a fault-free
    /// module without spares. Reference implementation.
    fn condition_currents(&self, currents: &mut [Amps]) {
        let map = self.array.fault_map();
        for (j, current) in currents.iter_mut().enumerate() {
            if self.column_owner[j].is_none() || self.masked[j] {
                *current = Amps(0.0);
            } else if let Some(map) = map {
                let offset = map.latch_offset(j);
                if offset != 0.0 {
                    *current = Amps((current.0 + offset).max(0.0));
                }
            }
        }
    }

    /// Maps a physical winning column back to its template index. A
    /// disowned column only wins when every owned column read zero; fall
    /// back to template 0 in that degenerate case.
    fn template_of(&self, phys: usize) -> usize {
        self.column_owner[phys].unwrap_or(0)
    }

    /// Finishes one recognition: folds the RCM static power into the energy
    /// breakdown and translates physical winner columns into template
    /// indices (identity until faults remap templates).
    fn assemble_result(
        &self,
        outcome: WtaOutcome,
        currents: Vec<Amps>,
        rcm_power: Watts,
    ) -> RecallResult {
        let mut energy = outcome.energy;
        energy.rcm_static = Joules(rcm_power.0 * self.latency().0);
        let raw_winner = self.template_of(outcome.winner);
        let accepted = outcome.dom >= self.config.dom_threshold;
        RecallResult {
            winner: accepted.then_some(raw_winner),
            raw_winner,
            tracked_winner: outcome.tracked_winner.and_then(|p| self.column_owner[p]),
            dom: outcome.dom,
            codes: outcome.codes,
            column_currents: currents,
            energy,
        }
    }

    /// Runs a batch of recognitions, one per input vector.
    ///
    /// Results are **bit-identical** to calling
    /// [`AssociativeMemoryModule::recall`] once per input in order: the
    /// evaluate phase is order-independent, so at parasitic fidelity it
    /// runs on scoped worker threads, and the select phase follows in
    /// query order.
    ///
    /// # Errors
    ///
    /// See [`AssociativeMemoryModule::recall`]. Input validation happens up
    /// front: if any input is invalid, no recognition runs.
    pub fn recall_batch<S: AsRef<[u32]>>(
        &mut self,
        inputs: &[S],
    ) -> Result<Vec<RecallResult>, CoreError> {
        self.recall_batch_request(inputs, &RecallRequest::DEFAULT)
    }

    /// [`AssociativeMemoryModule::recall_batch`] with options. The batch
    /// is timed under a `"recall.batch"` span; per-query solver counters
    /// are recorded from the worker threads (counter totals match the
    /// sequential path; interleaving order does not). The request's worker
    /// override bounds the parallel phase's thread count.
    ///
    /// # Errors
    ///
    /// See [`AssociativeMemoryModule::recall_batch`].
    pub fn recall_batch_request<S: AsRef<[u32]>, R: Recorder + Sync>(
        &mut self,
        inputs: &[S],
        req: &RecallRequest<'_, R>,
    ) -> Result<Vec<RecallResult>, CoreError> {
        let recorder = req.recorder();
        let _batch = recorder.span(Layer::RECALL_BATCH);
        let inputs: Vec<&[u32]> = inputs.iter().map(AsRef::as_ref).collect();
        // Validate every input before any query runs.
        let kernel = {
            let _drive = recorder.span(Layer::DRIVE);
            let kernel = self.kernel(recorder)?;
            for levels in &inputs {
                kernel.check(levels)?;
            }
            kernel
        };
        let evaluated = {
            let _settle = recorder.span(Layer::SETTLE);
            self.evaluate_batch(&kernel, &inputs, req.batch_workers(), recorder)?
        };
        evaluated
            .into_iter()
            .map(|eval| kernel.select(&self.wta, eval, recorder))
            .collect()
    }

    /// Cumulative `(factorization reuses, warm-start CG iterations saved)`
    /// accumulated by the cached parasitic session. Both stay zero for
    /// ideal/driven fidelity.
    #[must_use]
    pub fn solver_reuse_counters(&self) -> (u64, u64) {
        (
            self.parasitic.factorization_reuses(),
            self.parasitic.warm_start_iterations_saved(),
        )
    }

    /// Power summary for a representative input.
    ///
    /// # Errors
    ///
    /// See [`AssociativeMemoryModule::recall`], plus
    /// [`CoreError::InvalidParameter`] if the recall produced a degenerate
    /// latency or non-finite energy (see [`PowerReport::from_energy`]).
    pub fn power_report(&mut self, levels: &[u32]) -> Result<PowerReport, CoreError> {
        let result = self.recall(levels)?;
        PowerReport::from_energy(result.energy, self.latency())
    }

    /// [`AssociativeMemoryModule::inject_faults_request`] without
    /// telemetry.
    ///
    /// # Errors
    ///
    /// See [`AssociativeMemoryModule::inject_faults_request`].
    pub fn inject_faults(
        &mut self,
        map: FaultMap,
        policy: &DegradationPolicy,
    ) -> Result<FaultReport, CoreError> {
        self.inject_faults_request(map, policy, &RecallRequest::DEFAULT)
    }

    /// Installs a fault map and runs the graceful-degradation pass:
    ///
    /// 1. stuck cells are pinned at the device level and every template is
    ///    re-verified through the programming retry path (retries escalate
    ///    the pulse amplitude; cells that never verify within the pulse
    ///    budget are reported unrecoverable),
    /// 2. the map's per-column DWN threshold factors are applied to the
    ///    column converters (absolute, so re-injection does not compound),
    /// 3. templates whose measured placement error exceeds
    ///    [`DegradationPolicy::error_budget`] are re-programmed into the
    ///    spare column with the lowest predicted error, when that is
    ///    strictly better than staying put,
    /// 4. owned columns that still over-read by more than
    ///    [`DegradationPolicy::mask_excess`] are masked out of the WTA
    ///    (their template is sacrificed so it cannot spuriously win other
    ///    recalls),
    /// 5. the per-row dummies are re-equalized against the faulted loads
    ///    (when the module equalizes at all), and
    /// 6. the cached parasitic session is rebuilt and canonically
    ///    re-warmed: line defects change per-row drive kinds and the gain
    ///    spread changes stamped values, so the pre-fault netlist and
    ///    warm-start reference no longer describe the module. Re-pinning
    ///    the reference from the canonical probe keeps post-fault recalls
    ///    scheduling-order independent (see
    ///    [`AssociativeMemoryModule::build_request`]).
    ///
    /// Telemetry counters: `faults.injected`, `faults.retried`,
    /// `faults.unrecoverable`, `faults.remapped`, `faults.masked`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Crossbar`] when the map's dimensions do not
    /// match the array (templates + spares), [`CoreError::InvalidParameter`]
    /// for a bad policy, and propagates device and spin errors.
    pub fn inject_faults_request<R: Recorder>(
        &mut self,
        map: FaultMap,
        policy: &DegradationPolicy,
        req: &RecallRequest<'_, R>,
    ) -> Result<FaultReport, CoreError> {
        let recorder = req.recorder();
        policy.validate()?;
        let injected = map.injected_count();
        self.kernel.take();
        self.array.set_fault_map(map)?;
        recorder.counter("faults.injected", injected);
        let map = self.array.fault_map().expect("map installed above").clone();
        self.masked = vec![false; self.array.cols()];

        // Per-column DWN threshold factors, applied to the bare depinning
        // threshold the converters were designed for.
        let nominal = self.config.params.dwn_threshold;
        for (j, adc) in self.wta.adcs_mut().iter_mut().enumerate() {
            adc.neuron = adc
                .neuron
                .with_threshold(Amps(nominal.0 * map.threshold_factor(j)))?;
        }

        // Re-run program-and-verify through the retry path. Healthy in-band
        // cells verify immediately (no pulses, no RNG); pinned cells
        // surface as retries and — when the pin is outside the write band —
        // unrecoverable cells.
        let p = &self.config.params;
        let level_map = LevelMap::new(p.memristor_limits, p.template_bits)?;
        let mut retried = 0u64;
        let mut unrecoverable = 0u64;
        for t in 0..self.templates.len() {
            let rep = Self::write_column(
                &mut self.array,
                &self.config.params,
                &mut self.rng,
                self.template_column[t],
                &self.templates[t],
                recorder,
            )?;
            retried += u64::from(rep.retried);
            unrecoverable += u64::from(rep.unrecoverable);
        }
        recorder.counter("faults.retried", retried);
        recorder.counter("faults.unrecoverable", unrecoverable);

        // Spare-column remapping, in template order (deterministic).
        let mut remapped = 0u64;
        let mut spares: Vec<usize> = (0..self.array.cols())
            .filter(|&j| self.column_owner[j].is_none())
            .collect();
        let mut errors = vec![0.0f64; self.templates.len()];
        for (t, error) in errors.iter_mut().enumerate() {
            let col = self.template_column[t];
            let (err, _) = self.placement_error(t, col, &level_map)?;
            let best = if err > policy.error_budget {
                spares
                    .iter()
                    .map(|&s| Ok((self.placement_forecast(t, s)?.error, s)))
                    .collect::<Result<Vec<_>, CoreError>>()?
                    .into_iter()
                    .min_by(|(a, _), (b, _)| a.total_cmp(b))
                    .filter(|&(pred, _)| pred < err)
            } else {
                None
            };
            *error = match best {
                Some((_, s)) => {
                    Self::write_column(
                        &mut self.array,
                        &self.config.params,
                        &mut self.rng,
                        s,
                        &self.templates[t],
                        recorder,
                    )?;
                    // The vacated column is faulty: release it but never
                    // return it to the spare pool.
                    self.column_owner[col] = None;
                    self.column_owner[s] = Some(t);
                    self.template_column[t] = s;
                    spares.retain(|&x| x != s);
                    remapped += 1;
                    self.placement_error(t, s, &level_map)?.0
                }
                None => err,
            };
        }
        recorder.counter("faults.remapped", remapped);

        // Mask owned columns whose remaining positive excess would inflate
        // their correlation current and corrupt every recall.
        let mut masked = 0u64;
        for t in 0..self.templates.len() {
            let col = self.template_column[t];
            let (_, pos) = self.placement_error(t, col, &level_map)?;
            if pos > policy.mask_excess {
                self.masked[col] = true;
                masked += 1;
            }
        }
        recorder.counter("faults.masked", masked);

        // Gain spread and open columns change the row loads, and the
        // installed map changes drive kinds (line defects) and stamped
        // conductances: retrim the dummies, then rebuild and re-warm the
        // cached session against the faulted module.
        self.reconcile(recorder)?;

        Ok(FaultReport {
            injected,
            retried,
            unrecoverable,
            remapped,
            masked,
            template_errors: errors,
        })
    }

    /// Measured relative placement error of template `t` on column `col`:
    /// `(Σ|g_eff − g_target|, Σ max(g_eff − g_target, 0))`, both divided by
    /// `Σ g_target`. A disconnected column is `(INFINITY, 0)` — its
    /// template is lost but it cannot spuriously win.
    fn placement_error(
        &self,
        t: usize,
        col: usize,
        level_map: &LevelMap,
    ) -> Result<(f64, f64), CoreError> {
        if self.array.column_disconnected(col) {
            return Ok((f64::INFINITY, 0.0));
        }
        let mut abs = 0.0;
        let mut pos = 0.0;
        let mut total = 0.0;
        for (row, &level) in self.templates[t].iter().enumerate() {
            let target = level_map.conductance(level)?.0;
            let eff = self.array.conductance(row, col)?.0;
            abs += (eff - target).abs();
            pos += (eff - target).max(0.0);
            total += target;
        }
        Ok((abs / total, pos / total))
    }

    /// Predicts the placement error and positive conductance excess of
    /// programming template `slot` into column `col`, *without* writing
    /// anything: stuck cells read their pinned extreme, healthy cells
    /// their target level, both through the column's gain spread. With no
    /// fault map installed the forecast is a perfect write. This is the
    /// wear-leveler's pre-flight check before
    /// [`AssociativeMemoryModule::migrate_template`] — the same criteria
    /// the build-time degradation pass enforces, so maintenance never
    /// rotates a template onto a column that
    /// [`AssociativeMemoryModule::inject_faults`] would have masked or
    /// remapped away from.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for an unknown slot or an
    /// out-of-range column.
    pub fn placement_forecast(
        &self,
        slot: usize,
        col: usize,
    ) -> Result<PlacementForecast, CoreError> {
        if slot >= self.templates.len() {
            return Err(CoreError::InvalidParameter {
                what: "placement forecast slot out of range",
            });
        }
        if col >= self.array.cols() {
            return Err(CoreError::InvalidParameter {
                what: "placement forecast column out of range",
            });
        }
        if self.array.column_disconnected(col) {
            return Ok(PlacementForecast {
                error: f64::INFINITY,
                excess: 0.0,
            });
        }
        let Some(map) = self.array.fault_map() else {
            return Ok(PlacementForecast {
                error: 0.0,
                excess: 0.0,
            });
        };
        let p = &self.config.params;
        let level_map = LevelMap::new(p.memristor_limits, p.template_bits)?;
        let limits = self.array.limits();
        let mut abs = 0.0;
        let mut pos = 0.0;
        let mut total = 0.0;
        for (row, &level) in self.templates[slot].iter().enumerate() {
            let target = level_map.conductance(level)?.0;
            let device = match map.stuck_at(row, col) {
                Some(StuckKind::Lrs) => limits.g_max().0,
                Some(StuckKind::Hrs) => limits.g_min().0,
                None => target,
            };
            let eff = device * map.cell_gain(row, col);
            abs += (eff - target).abs();
            pos += (eff - target).max(0.0);
            total += target;
        }
        Ok(PlacementForecast {
            error: abs / total,
            excess: pos / total,
        })
    }

    /// Template → physical-column placement (identity until a fault-time
    /// remap moves a template to a spare).
    #[must_use]
    pub fn template_columns(&self) -> &[usize] {
        &self.template_column
    }

    /// Physical columns the degradation pass masked out of the WTA.
    #[must_use]
    pub fn masked_columns(&self) -> Vec<usize> {
        (0..self.masked.len()).filter(|&j| self.masked[j]).collect()
    }

    /// Physical columns currently available for
    /// [`AssociativeMemoryModule::install_template`]: unowned, unmasked,
    /// and electrically connected. Spares provisioned at build start here;
    /// retired columns return here; fault-vacated columns never do (they
    /// stay unowned but are excluded by their line defect or mask).
    #[must_use]
    pub fn free_columns(&self) -> Vec<usize> {
        (0..self.array.cols())
            .filter(|&j| {
                self.column_owner[j].is_none()
                    && !self.masked[j]
                    && !self.array.column_disconnected(j)
            })
            .collect()
    }

    /// [`AssociativeMemoryModule::install_template_request`] without
    /// telemetry.
    ///
    /// # Errors
    ///
    /// See [`AssociativeMemoryModule::install_template_request`].
    pub fn install_template(&mut self, pattern: &[u32]) -> Result<(usize, usize), CoreError> {
        self.install_template_request(pattern, &RecallRequest::DEFAULT)
    }

    /// Installs a new template into the lowest-index free physical column
    /// (a build-time spare, or a column vacated by
    /// [`AssociativeMemoryModule::retire_template`]), growing the template
    /// bank at runtime. The pattern is written through the same
    /// program-and-verify retry path fault-time remapping uses, the row
    /// dummies are re-equalized against the new loads, and the cached
    /// parasitic session is rebuilt and canonically re-warmed — so recalls
    /// after an install remain scheduling-order independent.
    ///
    /// Input-DAC gain calibration is pinned at build (hardware calibrates
    /// once, against the initial bank); an installed template whose
    /// self-correlation exceeds every build-time pattern's may read closer
    /// to ADC full scale than [`Self::FULL_SCALE_HEADROOM`].
    ///
    /// Returns `(template_slot, physical_column)`. Template slots are
    /// append-only: retiring never renumbers, so slot indices stay stable
    /// for the lifetime of the module.
    ///
    /// Emits a `bank.installs` counter.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] when no free column remains
    /// or the pattern levels are out of range,
    /// [`CoreError::InputLengthMismatch`] for a wrong-length pattern, and
    /// propagates programming and solver errors.
    pub fn install_template_request<R: Recorder>(
        &mut self,
        pattern: &[u32],
        req: &RecallRequest<'_, R>,
    ) -> Result<(usize, usize), CoreError> {
        let recorder = req.recorder();
        if pattern.len() != self.vector_len() {
            return Err(CoreError::InputLengthMismatch {
                expected: self.vector_len(),
                found: pattern.len(),
            });
        }
        let cap = 1u32 << self.config.params.template_bits;
        if pattern.iter().any(|&l| l >= cap) {
            return Err(CoreError::InvalidParameter {
                what: "template level exceeds template bit width",
            });
        }
        let col = self
            .free_columns()
            .into_iter()
            .next()
            .ok_or(CoreError::InvalidParameter {
                what: "no free column for template install (bank full)",
            })?;

        self.kernel.take();
        Self::write_column(
            &mut self.array,
            &self.config.params,
            &mut self.rng,
            col,
            pattern,
            recorder,
        )?;

        let slot = self.templates.len();
        self.templates.push(pattern.to_vec());
        self.template_column.push(col);
        self.column_owner[col] = Some(slot);

        // The programmed column changes its rows' loads.
        self.reconcile(recorder)?;
        recorder.counter("bank.installs", 1);
        Ok((slot, col))
    }

    /// [`AssociativeMemoryModule::retire_template_request`] without
    /// telemetry.
    ///
    /// # Errors
    ///
    /// See [`AssociativeMemoryModule::retire_template_request`].
    pub fn retire_template(&mut self, slot: usize) -> Result<usize, CoreError> {
        self.retire_template_request(slot, &RecallRequest::DEFAULT)
    }

    /// Retires template `slot`, releasing its physical column back to the
    /// free pool for a later [`AssociativeMemoryModule::install_template`].
    /// Pure ownership bookkeeping: the cells keep their conductances (they
    /// are physically still there — row loads, parasitics and the RNG
    /// schedule are untouched), but the column is gated out of the WTA from
    /// the next recall on, exactly like a build-time spare. Unlike columns
    /// vacated by fault-time remapping, a retired column is healthy and
    /// reusable.
    ///
    /// Returns the freed physical column. Emits a `bank.retires` counter.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for an unknown slot, a slot
    /// already retired, or a module that would be left with no stored
    /// template at all.
    pub fn retire_template_request<R: Recorder>(
        &mut self,
        slot: usize,
        req: &RecallRequest<'_, R>,
    ) -> Result<usize, CoreError> {
        if slot >= self.templates.len() {
            return Err(CoreError::InvalidParameter {
                what: "unknown template slot",
            });
        }
        let col = self.template_column[slot];
        if self.column_owner[col] != Some(slot) {
            return Err(CoreError::InvalidParameter {
                what: "template slot already retired",
            });
        }
        if self
            .column_owner
            .iter()
            .filter(|owner| owner.is_some())
            .count()
            <= 1
        {
            return Err(CoreError::InvalidParameter {
                what: "cannot retire the last stored template",
            });
        }
        self.kernel.take();
        self.column_owner[col] = None;
        req.recorder().counter("bank.retires", 1);
        Ok(col)
    }

    /// Live (non-retired) template slots, in slot order.
    #[must_use]
    pub fn live_templates(&self) -> Vec<usize> {
        (0..self.templates.len())
            .filter(|&t| self.column_owner[self.template_column[t]] == Some(t))
            .collect()
    }

    // --- Lifetime-maintenance hooks (see the `spinamm-lifetime` crate) ---

    /// Maintenance-only mutable access to the crossbar array, for a
    /// background controller that stamps per-cell retention
    /// ([`CrossbarArray::apply_retention`]) on its own virtual clock.
    ///
    /// Mutating cells behind the module's back leaves the row dummies and
    /// the cached parasitic session describing the *previous* conductances
    /// — batch the mutations, then call
    /// [`AssociativeMemoryModule::commit_maintenance`] once before the next
    /// recall.
    pub fn array_maintenance(&mut self) -> &mut CrossbarArray {
        self.kernel.take();
        &mut self.array
    }

    /// Predicted DOM-margin erosion of template `slot`, in ADC LSBs: the
    /// first-order column-current loss a fully-matching query would see
    /// from the drift its cells have accumulated since their last write
    /// (`ΔV · Σ max(g₀ − g_programmed, 0)` over the column, divided by
    /// [`AssociativeMemoryModule::lsb_current`]). The refresh trigger
    /// compares this against its margin budget.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for an unknown or retired
    /// slot.
    pub fn template_margin_erosion(&self, slot: usize) -> Result<f64, CoreError> {
        let col = self.live_column(slot)?;
        let mut lost = 0.0;
        for row in 0..self.vector_len() {
            let cell = self.array.cell(row, col)?;
            lost += (cell.programmed_reference().0 - cell.programmed().0).max(0.0);
        }
        Ok(self.config.params.delta_v.0 * lost / self.lsb_current().0)
    }

    /// [`AssociativeMemoryModule::refresh_template_request`] without
    /// telemetry.
    ///
    /// # Errors
    ///
    /// See [`AssociativeMemoryModule::refresh_template_request`].
    pub fn refresh_template(&mut self, slot: usize) -> Result<PatternRetryReport, CoreError> {
        self.refresh_template_request(slot, &RecallRequest::DEFAULT)
    }

    /// Re-programs template `slot` in place through the program-and-verify
    /// retry path, restoring every drifted cell to its target level and
    /// re-anchoring the drift clock at zero. Cells still inside the write
    /// band verify without pulses, so a refresh of a barely-drifted column
    /// is nearly free. Does NOT re-equalize or rebuild the cached parasitic
    /// session — batch refreshes, then
    /// [`AssociativeMemoryModule::commit_maintenance`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for an unknown or retired
    /// slot and propagates programming errors.
    pub fn refresh_template_request<R: Recorder>(
        &mut self,
        slot: usize,
        req: &RecallRequest<'_, R>,
    ) -> Result<PatternRetryReport, CoreError> {
        let col = self.live_column(slot)?;
        self.kernel.take();
        Self::write_column(
            &mut self.array,
            &self.config.params,
            &mut self.rng,
            col,
            &self.templates[slot],
            req.recorder(),
        )
    }

    /// [`AssociativeMemoryModule::migrate_template_request`] without
    /// telemetry.
    ///
    /// # Errors
    ///
    /// See [`AssociativeMemoryModule::migrate_template_request`].
    pub fn migrate_template(
        &mut self,
        slot: usize,
        col: usize,
    ) -> Result<PatternRetryReport, CoreError> {
        self.migrate_template_request(slot, col, &RecallRequest::DEFAULT)
    }

    /// Re-programs template `slot` into free column `col` (chosen by a
    /// wear-leveler) and transfers ownership there. The vacated column is
    /// healthy, so — unlike fault-time remapping — it returns to the free
    /// pool for a later migration; its stale conductances stay physically
    /// present (gated out of the WTA like any unowned column) until the
    /// next program claims them. Does NOT re-equalize or rebuild the
    /// cached session — batch migrations, then
    /// [`AssociativeMemoryModule::commit_maintenance`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for an unknown/retired slot
    /// or a column that is not free, and propagates programming errors.
    pub fn migrate_template_request<R: Recorder>(
        &mut self,
        slot: usize,
        col: usize,
        req: &RecallRequest<'_, R>,
    ) -> Result<PatternRetryReport, CoreError> {
        let old = self.live_column(slot)?;
        if !self.free_columns().contains(&col) {
            return Err(CoreError::InvalidParameter {
                what: "migration target column is not free",
            });
        }
        self.kernel.take();
        let report = Self::write_column(
            &mut self.array,
            &self.config.params,
            &mut self.rng,
            col,
            &self.templates[slot],
            req.recorder(),
        )?;
        self.column_owner[old] = None;
        self.column_owner[col] = Some(slot);
        self.template_column[slot] = col;
        Ok(report)
    }

    /// [`AssociativeMemoryModule::commit_maintenance_request`] without
    /// telemetry.
    ///
    /// # Errors
    ///
    /// See [`AssociativeMemoryModule::commit_maintenance_request`].
    pub fn commit_maintenance(&mut self) -> Result<(), CoreError> {
        self.commit_maintenance_request(&RecallRequest::DEFAULT)
    }

    /// Reconciles the module with out-of-band array mutations (aging
    /// stamps, refreshes, migrations): re-equalizes the row dummies
    /// against the current loads (when the module equalizes at all) and
    /// rebuilds + canonically re-warms the cached parasitic session, so
    /// recalls stay scheduling-order independent — the same tail every
    /// built-in mutation pass (faults, installs) runs. Call once per
    /// maintenance batch.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn commit_maintenance_request<R: Recorder>(
        &mut self,
        req: &RecallRequest<'_, R>,
    ) -> Result<(), CoreError> {
        self.kernel.take();
        self.reconcile(req.recorder())
    }

    /// The module's one column writer after the build: programs `levels`
    /// into column `col` through program-and-verify under the default
    /// [`RetryPolicy`], drawing programming noise from the module's RNG.
    /// Fault re-verify and remap, install, refresh and migration all write
    /// through it. It takes the fields it touches rather than `self`, so
    /// a caller can pass a stored template by reference.
    fn write_column<R: Recorder>(
        array: &mut CrossbarArray,
        params: &DesignParams,
        rng: &mut ChaCha8Rng,
        col: usize,
        levels: &[u32],
        recorder: &R,
    ) -> Result<PatternRetryReport, CoreError> {
        let level_map = LevelMap::new(params.memristor_limits, params.template_bits)?;
        let write = WriteScheme::new(params.write_tolerance)?;
        let report = array.program_pattern_retry_with(
            col,
            levels,
            &level_map,
            &write,
            &RetryPolicy::default(),
            rng,
            recorder,
        )?;
        Ok(report)
    }

    /// The tail every array mutation ends with: retrims the row dummies
    /// so every DAC still sees G_TS (when the module equalizes at all),
    /// then rebuilds the cached parasitic session and re-pins its
    /// canonical warm-start reference against the new conductances.
    fn reconcile<R: Recorder>(&mut self, recorder: &R) -> Result<(), CoreError> {
        if self.config.equalize_rows {
            self.array.retrim_dummies();
        }
        self.parasitic.invalidate();
        self.warm_session(recorder)
    }

    /// The physical column a live template slot currently occupies.
    fn live_column(&self, slot: usize) -> Result<usize, CoreError> {
        if slot >= self.templates.len() {
            return Err(CoreError::InvalidParameter {
                what: "unknown template slot",
            });
        }
        let col = self.template_column[slot];
        if self.column_owner[col] != Some(slot) {
            return Err(CoreError::InvalidParameter {
                what: "template slot is retired",
            });
        }
        Ok(col)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn orthogonal_patterns() -> Vec<Vec<u32>> {
        vec![
            vec![31, 31, 31, 31, 0, 0, 0, 0, 0, 0, 0, 0],
            vec![0, 0, 0, 0, 31, 31, 31, 31, 0, 0, 0, 0],
            vec![0, 0, 0, 0, 0, 0, 0, 0, 31, 31, 31, 31],
        ]
    }

    fn config(fidelity: Fidelity) -> AmmConfig {
        AmmConfig {
            fidelity,
            ..AmmConfig::default()
        }
    }

    #[test]
    fn build_validation() {
        let c = AmmConfig::default();
        assert!(AssociativeMemoryModule::build(&[], &c).is_err());
        assert!(AssociativeMemoryModule::build(&[vec![]], &c).is_err());
        assert!(AssociativeMemoryModule::build(&[vec![1, 2], vec![1, 2, 3]], &c).is_err());
        assert!(AssociativeMemoryModule::build(&[vec![32]], &c).is_err());
        let amm = AssociativeMemoryModule::build(&orthogonal_patterns(), &c).unwrap();
        assert_eq!(amm.pattern_count(), 3);
        assert_eq!(amm.vector_len(), 12);
        assert_eq!(amm.config().fidelity, Fidelity::Driven);
        assert_eq!(amm.array().cols(), 3);
    }

    #[test]
    fn recalls_stored_patterns_all_fidelities() {
        let patterns = orthogonal_patterns();
        for fidelity in [Fidelity::Ideal, Fidelity::Driven, Fidelity::Parasitic] {
            let mut amm = AssociativeMemoryModule::build(&patterns, &config(fidelity)).unwrap();
            for (j, p) in patterns.iter().enumerate() {
                let r = amm.recall(p).unwrap();
                assert_eq!(r.winner, Some(j), "{fidelity:?}: pattern {j}");
                assert_eq!(r.raw_winner, j);
            }
        }
    }

    #[test]
    fn input_validation() {
        let mut amm =
            AssociativeMemoryModule::build(&orthogonal_patterns(), &AmmConfig::default()).unwrap();
        assert!(matches!(
            amm.recall(&[0; 5]),
            Err(CoreError::InputLengthMismatch { .. })
        ));
        assert!(matches!(
            amm.recall(&[40; 12]),
            Err(CoreError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn dom_threshold_rejects_poor_matches() {
        let patterns = orthogonal_patterns();
        // A stored one-third-active pattern self-correlates at roughly a
        // third of full scale (code ~10); set the acceptance bar just
        // below that.
        let cfg = AmmConfig {
            dom_threshold: 7,
            ..AmmConfig::default()
        };
        let mut amm = AssociativeMemoryModule::build(&patterns, &cfg).unwrap();
        // A stored pattern clears the threshold easily.
        let good = amm.recall(&patterns[0]).unwrap();
        assert!(good.winner.is_some(), "stored DOM {}", good.dom);
        assert!(good.dom >= 7);
        // A dim, unrelated input produces a low DOM and is rejected.
        let junk = vec![1u32; 12];
        let bad = amm.recall(&junk).unwrap();
        assert!(bad.dom < 7, "junk DOM {}", bad.dom);
        assert_eq!(bad.winner, None);
        // Raw winner still identifies the nearest pattern.
        assert!(bad.raw_winner < 3);
    }

    #[test]
    fn full_scale_input_hits_full_scale_code() {
        // Storing an all-max pattern and presenting it should digitize near
        // the WTA's full scale — validates the DAC sizing chain.
        let patterns = vec![vec![31u32; 16], vec![0u32; 16]];
        let mut amm = AssociativeMemoryModule::build(&patterns, &config(Fidelity::Driven)).unwrap();
        let r = amm.recall(&patterns[0]).unwrap();
        // Gain calibration places the best self-match at ~90 % of range.
        assert!(r.dom >= 26, "DOM {} should be near full scale 31", r.dom);
        // Physical currents also at scale: winner column near 32 µA.
        let i_win = r.column_currents[r.raw_winner].0;
        assert!(i_win > 24e-6 && i_win < 40e-6, "winner current {i_win} A");
    }

    #[test]
    fn driven_and_parasitic_agree_closely() {
        let patterns = orthogonal_patterns();
        let mut driven =
            AssociativeMemoryModule::build(&patterns, &config(Fidelity::Driven)).unwrap();
        let mut parasitic =
            AssociativeMemoryModule::build(&patterns, &config(Fidelity::Parasitic)).unwrap();
        for p in &patterns {
            let a = driven.recall(p).unwrap();
            let b = parasitic.recall(p).unwrap();
            assert_eq!(a.raw_winner, b.raw_winner);
            for (x, y) in a.column_currents.iter().zip(&b.column_currents) {
                let scale = x.0.abs().max(1e-9);
                assert!(
                    (x.0 - y.0).abs() / scale < 0.05,
                    "driven {} vs parasitic {}",
                    x.0,
                    y.0
                );
            }
        }
    }

    #[test]
    fn energy_breakdown_is_complete() {
        let mut amm =
            AssociativeMemoryModule::build(&orthogonal_patterns(), &AmmConfig::default()).unwrap();
        let r = amm.recall(&orthogonal_patterns()[0]).unwrap();
        assert!(r.energy.rcm_static.0 > 0.0);
        assert!(r.energy.dac_static.0 > 0.0);
        assert!(r.energy.dwn_write.0 > 0.0);
        assert!(r.energy.latch_sense.0 > 0.0);
        assert!(r.energy.digital.0 > 0.0);
        assert!(r.energy.total().0 < 1e-9, "per-recognition energy sane");
    }

    #[test]
    fn power_report_magnitude() {
        // A 12×3 module is much smaller than the paper's 128×40, but power
        // must land in the µW decade, far below the mW of MS-CMOS.
        let mut amm =
            AssociativeMemoryModule::build(&orthogonal_patterns(), &AmmConfig::default()).unwrap();
        let report = amm.power_report(&orthogonal_patterns()[0]).unwrap();
        let total = report.total_power().0;
        assert!(total > 1e-7 && total < 1e-3, "total power {total} W");
        assert!(report.static_power.0 > 0.0);
        assert!(report.dynamic_power.0 > 0.0);
        assert!((report.latency.0 - 50e-9).abs() < 1e-15);
    }

    #[test]
    fn deterministic_given_seed() {
        let patterns = orthogonal_patterns();
        let run = || {
            let mut amm = AssociativeMemoryModule::build(&patterns, &AmmConfig::default()).unwrap();
            amm.recall(&patterns[1]).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn noisy_input_still_recalls() {
        let patterns = orthogonal_patterns();
        let mut amm = AssociativeMemoryModule::build(&patterns, &AmmConfig::default()).unwrap();
        // Perturb pattern 1 by one level on several elements.
        let noisy: Vec<u32> = patterns[1]
            .iter()
            .map(|&l| if l > 0 { l - 1 } else { l + 1 })
            .collect();
        let r = amm.recall(&noisy).unwrap();
        assert_eq!(r.raw_winner, 1);
    }

    #[test]
    fn batch_recall_is_bit_identical_to_sequential() {
        let patterns = orthogonal_patterns();
        // Enough inputs that the parallel phase spans several workers.
        let mut inputs: Vec<Vec<u32>> = Vec::new();
        for shift in 0..3u32 {
            for p in &patterns {
                inputs.push(p.iter().map(|&l| (l + shift) % 32).collect());
            }
        }
        for fidelity in [Fidelity::Ideal, Fidelity::Driven, Fidelity::Parasitic] {
            let cfg = config(fidelity);
            let mut seq = AssociativeMemoryModule::build(&patterns, &cfg).unwrap();
            let mut bat = AssociativeMemoryModule::build(&patterns, &cfg).unwrap();
            let sequential: Vec<RecallResult> =
                inputs.iter().map(|i| seq.recall(i).unwrap()).collect();
            let batched = bat.recall_batch(&inputs).unwrap();
            assert_eq!(sequential, batched, "{fidelity:?}");
        }
    }

    #[test]
    fn batch_recall_matches_sequential_at_cg_scale() {
        // 16×16 lossy parasitic network: ~480 reduced unknowns, past the
        // dense auto-limit, so this exercises the warm-started CG backend
        // with the IC(0) preconditioner shared across batch workers.
        let patterns: Vec<Vec<u32>> = (0..16)
            .map(|j| (0..16).map(|i| (i * 7 + j * 5) % 32).collect())
            .collect();
        let cfg = config(Fidelity::Parasitic);
        let mut seq = AssociativeMemoryModule::build(&patterns, &cfg).unwrap();
        let mut bat = AssociativeMemoryModule::build(&patterns, &cfg).unwrap();
        let inputs: Vec<Vec<u32>> = patterns.iter().take(5).cloned().collect();
        let sequential: Vec<RecallResult> = inputs.iter().map(|i| seq.recall(i).unwrap()).collect();
        let batched = bat.recall_batch(&inputs).unwrap();
        assert_eq!(sequential, batched);
    }

    #[test]
    fn duplicated_template_ties_break_to_lowest_index() {
        // Metamorphic template-duplication property: storing an exact copy
        // of template 0 in a later column must never steal the win. When
        // the duplicate's code ties exactly, the lowest index wins on the
        // scalar and batch paths alike; when device mismatch splits the
        // codes, the winner is still the shared argmax scan's answer.
        let mut patterns = orthogonal_patterns();
        patterns.push(patterns[0].clone());
        let dup = patterns.len() - 1;
        let mut tie_seen = false;
        for seed in 0..12u64 {
            let cfg = AmmConfig {
                seed,
                ..config(Fidelity::Driven)
            };
            let mut amm = AssociativeMemoryModule::build(&patterns, &cfg).unwrap();
            let mut batch = AssociativeMemoryModule::build(&patterns, &cfg).unwrap();
            let r = amm.recall(&patterns[0]).unwrap();
            assert_eq!(
                r.raw_winner,
                crate::wta::argmax_lowest_index(&r.codes).unwrap(),
                "seed {seed}: winner must be the lowest-index argmax"
            );
            assert!(
                r.raw_winner == 0 || r.codes[r.raw_winner] > r.codes[0],
                "seed {seed}: duplicate won without strictly beating index 0"
            );
            if r.codes[0] == r.codes[dup] {
                tie_seen = true;
                assert_eq!(r.raw_winner, 0, "seed {seed}: exact tie must go to 0");
            }
            // The batch select path applies the identical rule.
            let b = batch.recall_batch(&[patterns[0].clone()]).unwrap();
            assert_eq!(b[0], r, "seed {seed}");
        }
        assert!(
            tie_seen,
            "no seed produced an exact duplicate tie; the property was never exercised"
        );
    }

    #[test]
    fn batch_recall_leaves_rng_in_sequential_state() {
        // After a batch, a further sequential recall must match the
        // all-sequential run bit for bit.
        let patterns = orthogonal_patterns();
        let cfg = config(Fidelity::Parasitic);
        let mut seq = AssociativeMemoryModule::build(&patterns, &cfg).unwrap();
        let mut bat = AssociativeMemoryModule::build(&patterns, &cfg).unwrap();
        for p in &patterns {
            seq.recall(p).unwrap();
        }
        bat.recall_batch(&patterns).unwrap();
        assert_eq!(
            seq.recall(&patterns[0]).unwrap(),
            bat.recall(&patterns[0]).unwrap()
        );
    }

    #[test]
    fn batch_recall_validates_before_consuming_rng() {
        let patterns = orthogonal_patterns();
        let mut amm = AssociativeMemoryModule::build(&patterns, &AmmConfig::default()).unwrap();
        let mut reference = amm.clone();
        let bad = vec![patterns[0].clone(), vec![0u32; 5]];
        assert!(matches!(
            amm.recall_batch(&bad),
            Err(CoreError::InputLengthMismatch { .. })
        ));
        // The failed batch left the module as it was.
        assert_eq!(
            amm.recall(&patterns[1]).unwrap(),
            reference.recall(&patterns[1]).unwrap()
        );
        let empty: [Vec<u32>; 0] = [];
        assert!(amm.recall_batch(&empty).unwrap().is_empty());
    }

    #[test]
    fn batch_recall_is_worker_count_independent() {
        // Force real scoped-thread workers (this machine may report a
        // single CPU) and check the batch still matches sequential bit for
        // bit.
        let patterns = orthogonal_patterns();
        let cfg = config(Fidelity::Parasitic);
        let mut seq = AssociativeMemoryModule::build(&patterns, &cfg).unwrap();
        let mut bat = AssociativeMemoryModule::build(&patterns, &cfg).unwrap();
        let inputs: Vec<Vec<u32>> = patterns.iter().cycle().take(7).cloned().collect();
        let sequential: Vec<RecallResult> = inputs.iter().map(|i| seq.recall(i).unwrap()).collect();
        let batched = bat.recall_batch_request(&inputs, &RecallRequest::DEFAULT.with_workers(3));
        assert_eq!(sequential, batched.unwrap());
    }

    #[test]
    fn parasitic_recalls_reuse_solver_state() {
        let patterns = orthogonal_patterns();
        let mut amm =
            AssociativeMemoryModule::build(&patterns, &config(Fidelity::Parasitic)).unwrap();
        assert_eq!(amm.solver_reuse_counters(), (0, 0));
        // Identical drives twice: the second solve reuses the dense
        // Cholesky factor outright.
        amm.recall(&patterns[0]).unwrap();
        amm.recall(&patterns[0]).unwrap();
        let (reuses, _) = amm.solver_reuse_counters();
        assert!(reuses >= 1, "factorization reuses {reuses}");
    }

    #[test]
    fn pristine_fault_injection_is_identity() {
        let patterns = orthogonal_patterns();
        let cfg = AmmConfig::default();
        let mut healthy = AssociativeMemoryModule::build(&patterns, &cfg).unwrap();
        let mut faulted = AssociativeMemoryModule::build(&patterns, &cfg).unwrap();
        let map = FaultMap::pristine(12, 3, 0).unwrap();
        let report = faulted
            .inject_faults(map, &DegradationPolicy::default())
            .unwrap();
        assert_eq!(report.injected, 0);
        assert_eq!(report.retried, 0);
        assert_eq!(report.unrecoverable, 0);
        assert_eq!(report.remapped, 0);
        assert_eq!(report.masked, 0);
        assert_eq!(report.live_templates(), 3);
        // Healthy cells verify immediately, so injection consumes no RNG
        // and every later recall stays bit-identical.
        for p in &patterns {
            let a = healthy.recall(p).unwrap();
            let b = faulted.recall(p).unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn spare_columns_alone_keep_recalls_correct() {
        let patterns = orthogonal_patterns();
        let cfg = AmmConfig {
            spare_columns: 2,
            ..AmmConfig::default()
        };
        let mut amm = AssociativeMemoryModule::build(&patterns, &cfg).unwrap();
        assert_eq!(amm.array().cols(), 5);
        assert_eq!(amm.pattern_count(), 3);
        for (j, p) in patterns.iter().enumerate() {
            let r = amm.recall(p).unwrap();
            assert_eq!(r.raw_winner, j, "spares must never win");
            assert_eq!(r.column_currents.len(), 5);
            assert_eq!(r.column_currents[3], Amps(0.0));
            assert_eq!(r.column_currents[4], Amps(0.0));
        }
    }

    #[test]
    fn remap_recovers_a_template_lost_to_stuck_cells() {
        let patterns = orthogonal_patterns();
        // Template 0's four active cells all stuck at HRS: the column
        // under-reads and its self-match collapses.
        let lost = |cols: usize| {
            let mut map = FaultMap::pristine(12, cols, 0).unwrap();
            for row in 0..4 {
                map = map.with_stuck_cell(row, 0, StuckKind::Hrs).unwrap();
            }
            map
        };
        let policy = DegradationPolicy::default();

        let mut unmitigated =
            AssociativeMemoryModule::build(&patterns, &AmmConfig::default()).unwrap();
        let report = unmitigated.inject_faults(lost(3), &policy).unwrap();
        assert_eq!(report.injected, 4);
        assert_eq!(report.unrecoverable, 4);
        assert_eq!(report.remapped, 0, "no spares to remap into");
        assert!(report.template_errors[0] > policy.error_budget);
        let dead = unmitigated.recall(&patterns[0]).unwrap();

        let cfg = AmmConfig {
            spare_columns: 1,
            ..AmmConfig::default()
        };
        let mut mitigated = AssociativeMemoryModule::build(&patterns, &cfg).unwrap();
        let report = mitigated.inject_faults(lost(4), &policy).unwrap();
        assert_eq!(report.remapped, 1);
        assert_eq!(mitigated.template_columns(), &[3, 1, 2]);
        assert!(report.template_errors[0] < policy.error_budget);
        let alive = mitigated.recall(&patterns[0]).unwrap();
        assert_eq!(alive.raw_winner, 0, "remapped template still answers");
        assert!(
            alive.dom > dead.dom,
            "remap must restore margin: {} vs {}",
            alive.dom,
            dead.dom
        );
    }

    #[test]
    fn masking_stops_a_stuck_lrs_column_from_winning() {
        let patterns = orthogonal_patterns();
        // Template 0's *inactive* rows all pinned at LRS: the column
        // over-reads every other template's input and would win recalls it
        // has no business winning.
        let hot = || {
            let mut map = FaultMap::pristine(12, 3, 0).unwrap();
            for row in 4..12 {
                map = map.with_stuck_cell(row, 0, StuckKind::Lrs).unwrap();
            }
            map
        };

        // With masking disabled the pinned column hijacks pattern 1.
        let lax = DegradationPolicy {
            mask_excess: 1e12,
            ..DegradationPolicy::default()
        };
        let mut unmasked =
            AssociativeMemoryModule::build(&patterns, &AmmConfig::default()).unwrap();
        unmasked.inject_faults(hot(), &lax).unwrap();
        let hijacked = unmasked.recall(&patterns[1]).unwrap();
        assert_eq!(hijacked.raw_winner, 0, "over-reading column wins the tie");

        // The default policy masks it, sacrificing template 0.
        let mut masked = AssociativeMemoryModule::build(&patterns, &AmmConfig::default()).unwrap();
        let report = masked
            .inject_faults(hot(), &DegradationPolicy::default())
            .unwrap();
        assert_eq!(report.masked, 1);
        assert_eq!(masked.masked_columns(), vec![0]);
        assert_eq!(report.live_templates(), 2);
        let r = masked.recall(&patterns[1]).unwrap();
        assert_eq!(r.raw_winner, 1, "masked column cannot win");
        assert_eq!(r.column_currents[0], Amps(0.0));
    }

    #[test]
    fn fault_injection_emits_telemetry_counters() {
        use spinamm_faults::FaultModel;
        use spinamm_telemetry::MemoryRecorder;
        let patterns = orthogonal_patterns();
        let cfg = AmmConfig {
            spare_columns: 2,
            ..AmmConfig::default()
        };
        let mut amm = AssociativeMemoryModule::build(&patterns, &cfg).unwrap();
        let model = FaultModel::stuck(0.3).unwrap();
        let map = FaultMap::sample(&model, 12, 5, 7).unwrap();
        let rec = MemoryRecorder::default();
        let report = amm
            .inject_faults_request(
                map,
                &DegradationPolicy::default(),
                &RecallRequest::recorded(&rec),
            )
            .unwrap();
        let snap = rec.snapshot();
        assert_eq!(snap.counter("faults.injected"), report.injected);
        assert_eq!(snap.counter("faults.retried"), report.retried);
        assert_eq!(snap.counter("faults.unrecoverable"), report.unrecoverable);
        assert_eq!(snap.counter("faults.remapped"), report.remapped);
        assert_eq!(snap.counter("faults.masked"), report.masked);
        assert!(report.injected > 0, "30 % stuck rate must inject");
    }

    #[test]
    fn line_defects_disable_rows_and_columns() {
        let patterns = orthogonal_patterns();
        let map = FaultMap::pristine(12, 3, 0)
            .unwrap()
            .with_row_defect(0, LineDefect::Open)
            .unwrap()
            .with_row_defect(1, LineDefect::Short)
            .unwrap()
            .with_col_defect(2, LineDefect::Open)
            .unwrap();
        let mut amm = AssociativeMemoryModule::build(&patterns, &AmmConfig::default()).unwrap();
        let report = amm
            .inject_faults(map, &DegradationPolicy::default())
            .unwrap();
        // Template 2 sits on the disconnected column: lost, not masked.
        assert!(report.template_errors[2].is_infinite());
        let r = amm.recall(&patterns[2]).unwrap();
        assert_eq!(r.column_currents[2], Amps(0.0));
        assert_ne!(r.raw_winner, 2, "disconnected column cannot answer");
        // Templates 0 and 1 lose two of their rows but still self-match.
        let r = amm.recall(&patterns[0]).unwrap();
        assert_eq!(r.raw_winner, 0);
        let r = amm.recall(&patterns[1]).unwrap();
        assert_eq!(r.raw_winner, 1);
    }

    #[test]
    fn two_phase_split_matches_recall() {
        // evaluate_query_request on a *clone* + select_winner_request on
        // the original must equal plain sequential recall bit for bit.
        let patterns = orthogonal_patterns();
        let inputs: Vec<Vec<u32>> = patterns.iter().cycle().take(5).cloned().collect();
        for fidelity in [Fidelity::Ideal, Fidelity::Driven, Fidelity::Parasitic] {
            let cfg = config(fidelity);
            let mut seq = AssociativeMemoryModule::build(&patterns, &cfg).unwrap();
            let original = AssociativeMemoryModule::build(&patterns, &cfg).unwrap();
            let mut worker = original.clone();
            let req = RecallRequest::DEFAULT;
            for input in &inputs {
                let expected = seq.recall(input).unwrap();
                let eval = worker.evaluate_query_request(input, &req).unwrap();
                let got = original.select_winner_request(eval, &req).unwrap();
                assert_eq!(expected, got, "{fidelity:?}");
            }
        }
    }

    #[test]
    fn parasitic_results_are_query_order_independent() {
        // The canonical build-time warm-up pins the CG warm-start
        // reference before any real query, so the *order* queries arrive
        // in cannot change any individual result. 16×16 exercises the CG
        // backend where the reference actually participates.
        let patterns: Vec<Vec<u32>> = (0..16)
            .map(|j| (0..16).map(|i| (i * 7 + j * 5) % 32).collect())
            .collect();
        let cfg = config(Fidelity::Parasitic);
        let mut fwd = AssociativeMemoryModule::build(&patterns, &cfg).unwrap();
        let mut rev = AssociativeMemoryModule::build(&patterns, &cfg).unwrap();
        let queries: Vec<&Vec<u32>> = patterns.iter().take(4).collect();
        let forward: Vec<RecallResult> = queries.iter().map(|q| fwd.recall(q).unwrap()).collect();
        let backward: Vec<RecallResult> = queries
            .iter()
            .rev()
            .map(|q| rev.recall(q).unwrap())
            .collect();
        for (k, q_result) in forward.iter().enumerate() {
            assert_eq!(
                q_result,
                &backward[queries.len() - 1 - k],
                "query {k} depends on arrival order"
            );
        }
    }

    #[test]
    fn clone_evaluations_match_master_after_history() {
        // A worker clone taken at build time must keep producing exactly
        // the master's currents even after the master has served other
        // queries — the property the engine's per-worker clones rely on.
        let patterns: Vec<Vec<u32>> = (0..16)
            .map(|j| (0..16).map(|i| (i * 3 + j * 11) % 32).collect())
            .collect();
        let cfg = config(Fidelity::Parasitic);
        let mut master = AssociativeMemoryModule::build(&patterns, &cfg).unwrap();
        let mut clone = master.clone();
        let req = RecallRequest::DEFAULT;
        master.recall(&patterns[0]).unwrap();
        master.recall(&patterns[1]).unwrap();
        let a = master.evaluate_query_request(&patterns[2], &req).unwrap();
        let b = clone.evaluate_query_request(&patterns[2], &req).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn request_worker_override_is_result_invariant() {
        let patterns = orthogonal_patterns();
        let cfg = config(Fidelity::Parasitic);
        let mut seq = AssociativeMemoryModule::build(&patterns, &cfg).unwrap();
        let inputs: Vec<Vec<u32>> = patterns.iter().cycle().take(6).cloned().collect();
        let reference = seq.recall_batch(&inputs).unwrap();
        for workers in [0usize, 1, 2, 5] {
            let mut amm = AssociativeMemoryModule::build(&patterns, &cfg).unwrap();
            let got = amm
                .recall_batch_request(&inputs, &RecallRequest::DEFAULT.with_workers(workers))
                .unwrap();
            assert_eq!(reference, got, "workers={workers}");
        }
    }

    #[test]
    fn batch_recall_matches_sequential_under_faults() {
        use spinamm_faults::FaultModel;
        let patterns = orthogonal_patterns();
        let model = FaultModel {
            spread_sigma: 0.05,
            dwn_threshold_sigma: 0.05,
            ..FaultModel::stuck(0.1).unwrap()
        };
        for fidelity in [Fidelity::Ideal, Fidelity::Driven, Fidelity::Parasitic] {
            let cfg = AmmConfig {
                fidelity,
                spare_columns: 1,
                ..AmmConfig::default()
            };
            let map = FaultMap::sample(&model, 12, 4, 99).unwrap();
            let mut seq = AssociativeMemoryModule::build(&patterns, &cfg).unwrap();
            seq.inject_faults(map.clone(), &DegradationPolicy::default())
                .unwrap();
            let mut bat = AssociativeMemoryModule::build(&patterns, &cfg).unwrap();
            bat.inject_faults(map, &DegradationPolicy::default())
                .unwrap();
            let queries: Vec<Vec<u32>> = patterns.iter().cycle().take(6).cloned().collect();
            let a: Vec<RecallResult> = queries.iter().map(|q| seq.recall(q).unwrap()).collect();
            let b = bat.recall_batch(&queries).unwrap();
            assert_eq!(a, b, "{fidelity:?}: batch must stay bit-identical");
        }
    }

    #[test]
    fn gain_calibration_reads_only_the_self_column() {
        // The previous calibration: the full driven current vector per
        // stored pattern, keeping only the pattern's own entry.
        fn full_vector_gain(
            array: &CrossbarArray,
            patterns: &[Vec<u32>],
            config: &AmmConfig,
            i_fs_col: Amps,
            dac_fs: Amps,
        ) -> f64 {
            let p = &config.params;
            let tech = Tech45::DEFAULT;
            let mut gain = 1.0_f64;
            for _ in 0..2 {
                let probe =
                    DtcsDac::design(p.template_bits, Amps(dac_fs.0 * gain), p.delta_v, &tech)
                        .unwrap()
                        .nominal();
                let mut max_self: f64 = 0.0;
                for (j, pattern) in patterns.iter().enumerate() {
                    let drives: Vec<RowDrive> = pattern
                        .iter()
                        .map(|&l| match config.fidelity {
                            Fidelity::Ideal => RowDrive::Current(probe.clamped_current(l).unwrap()),
                            Fidelity::Driven | Fidelity::Parasitic => RowDrive::SourceConductance {
                                g: probe.conductance(l).unwrap(),
                                supply: p.delta_v,
                            },
                        })
                        .collect();
                    let currents = array.driven_column_currents(&drives).unwrap();
                    max_self = max_self.max(currents[j].0);
                }
                if max_self > 0.0 {
                    gain *= AssociativeMemoryModule::FULL_SCALE_HEADROOM * i_fs_col.0 / max_self;
                }
            }
            gain
        }

        for (rows, count) in [(16usize, 4usize), (128, 128)] {
            // Pattern 1 is the strongest, so severing its column moves the
            // calibration maximum.
            let patterns: Vec<Vec<u32>> = (0..count)
                .map(|p| {
                    (0..rows)
                        .map(|i| {
                            if p == 1 {
                                31
                            } else {
                                ((i * 7 + p * 13) % 32) as u32
                            }
                        })
                        .collect()
                })
                .collect();
            let spares = 2;
            let module = AssociativeMemoryModule::build(
                &patterns,
                &AmmConfig {
                    spare_columns: spares,
                    ..AmmConfig::default()
                },
            )
            .unwrap();
            let i_fs_col = module.wta.adcs()[0].nominal_full_scale();
            let dac_fs = Amps(i_fs_col.0 * (count + spares) as f64 / rows as f64);
            // A shorted column still loads its rows but reads zero.
            let mut severed = module.array.clone();
            let map = FaultMap::pristine(rows, count + spares, 0)
                .unwrap()
                .with_col_defect(1, LineDefect::Short)
                .unwrap();
            severed.set_fault_map(map).unwrap();
            for array in [&module.array, &severed] {
                for fidelity in [Fidelity::Ideal, Fidelity::Driven, Fidelity::Parasitic] {
                    let cfg = AmmConfig {
                        fidelity,
                        spare_columns: spares,
                        ..AmmConfig::default()
                    };
                    let got = AssociativeMemoryModule::calibrated_gain(
                        array,
                        &patterns,
                        &cfg,
                        i_fs_col,
                        dac_fs,
                        &Tech45::DEFAULT,
                    )
                    .unwrap();
                    let want = full_vector_gain(array, &patterns, &cfg, i_fs_col, dac_fs);
                    assert_eq!(got.to_bits(), want.to_bits(), "{rows}x{count} {fidelity:?}");
                }
            }
        }
    }

    #[test]
    fn gain_calibration_drive_table_repeats_the_per_probe_sum() {
        // The previous calibration: a DAC drive and a checked cell read
        // for every (row, pattern) probe.
        fn per_probe_gain(
            array: &CrossbarArray,
            patterns: &[Vec<u32>],
            config: &AmmConfig,
            i_fs_col: Amps,
            dac_fs: Amps,
        ) -> f64 {
            let p = &config.params;
            let loads: Vec<_> = (0..array.rows())
                .map(|i| array.row_total_conductance(i).unwrap())
                .collect();
            let mut gain = 1.0_f64;
            for _ in 0..2 {
                let probe = DtcsDac::design(
                    p.template_bits,
                    Amps(dac_fs.0 * gain),
                    p.delta_v,
                    &Tech45::DEFAULT,
                )
                .unwrap()
                .nominal();
                let mut max_self: f64 = 0.0;
                for (j, pattern) in patterns.iter().enumerate() {
                    let mut current = 0.0;
                    for (i, (&l, &load)) in pattern.iter().zip(&loads).enumerate() {
                        let drive = match config.fidelity {
                            Fidelity::Ideal => RowDrive::Current(probe.clamped_current(l).unwrap()),
                            Fidelity::Driven | Fidelity::Parasitic => RowDrive::SourceConductance {
                                g: probe.conductance(l).unwrap(),
                                supply: p.delta_v,
                            },
                        };
                        current += drive.input_voltage(load).0 * array.conductance(i, j).unwrap().0;
                    }
                    if array.column_disconnected(j) {
                        current = 0.0;
                    }
                    max_self = max_self.max(current);
                }
                if max_self > 0.0 {
                    gain *= AssociativeMemoryModule::FULL_SCALE_HEADROOM * i_fs_col.0 / max_self;
                }
            }
            gain
        }

        for (rows, count) in [(16usize, 4usize), (128, 40)] {
            // Pattern 2 is the strongest, so opening its column moves the
            // calibration maximum.
            let patterns: Vec<Vec<u32>> = (0..count)
                .map(|p| {
                    (0..rows)
                        .map(|i| {
                            if p == 2 {
                                31
                            } else {
                                ((i * 5 + p * 11) % 32) as u32
                            }
                        })
                        .collect()
                })
                .collect();
            let module = AssociativeMemoryModule::build(&patterns, &AmmConfig::default()).unwrap();
            let i_fs_col = module.wta.adcs()[0].nominal_full_scale();
            let dac_fs = Amps(i_fs_col.0 * count as f64 / rows as f64);
            // An open column unloads its rows and reads zero.
            let mut opened = module.array.clone();
            let map = FaultMap::pristine(rows, count, 0)
                .unwrap()
                .with_col_defect(2, LineDefect::Open)
                .unwrap();
            opened.set_fault_map(map).unwrap();
            assert!(opened.column_disconnected(2));
            for array in [&module.array, &opened] {
                for fidelity in [Fidelity::Ideal, Fidelity::Driven, Fidelity::Parasitic] {
                    let cfg = AmmConfig {
                        fidelity,
                        ..AmmConfig::default()
                    };
                    let got = AssociativeMemoryModule::calibrated_gain(
                        array,
                        &patterns,
                        &cfg,
                        i_fs_col,
                        dac_fs,
                        &Tech45::DEFAULT,
                    )
                    .unwrap();
                    let want = per_probe_gain(array, &patterns, &cfg, i_fs_col, dac_fs);
                    assert_eq!(got.to_bits(), want.to_bits(), "{rows}x{count} {fidelity:?}");
                }
            }
        }
    }
}
