//! The compiled recall kernel: the one execution path behind every
//! module's evaluate and select phases.
//!
//! Per-query recall only needs numbers that depend on the *deployment*
//! (fidelity × fault map × drive kind × device samples), never on the
//! query. A `Kernel` lowers them once into flat tables:
//!
//! * **Drive tables** — every `(row, level)` pair is lowered through the
//!   module's own `drive_for_row`, then evaluated against the row's total
//!   load. At query time a drive is a table read, not a DAC model call.
//! * **Column cuts** — the columns a line defect severs, whose currents
//!   the correlate forces to zero. The conductances themselves are not
//!   copied: the correlate reads the array's effective-conductance table
//!   ([`CrossbarArray::conductances`]), which the array refreshes on every
//!   write and shares between module clones, so a rebuild after a template
//!   write reads no cell.
//! * **SAR DAC table** — per-column trial currents for every code,
//!   replacing the DAC model in the conversion loop; each cycle's DAC rail
//!   energy is computed from it with the converter's own expression.
//! * **Switching cutoffs** — a column whose devices draw no randomness (no
//!   thermal switching, no latch noise) is lowered to one number: the
//!   smallest net current that switches its domain-wall neuron within the
//!   write pulse, so each SAR cycle is one compare. Noisy devices stay
//!   live models on the module: they carry the stochastic physics and the
//!   RNG stream.
//! * **Condition/select maps** — column gating, latch offsets, template
//!   ownership and the DOM threshold as dense per-column tables.
//!
//! Each query then runs a fixed op sequence: stage → correlate or solve
//! (evaluate phase), then condition → convert → select (select phase).
//!
//! # Lifecycle
//!
//! [`AssociativeMemoryModule`] builds its kernel on first use and every
//! `&mut self` mutator drops it: fault injection, aging, template
//! install/retire/refresh/migrate, `array_maintenance` and
//! `commit_maintenance`. The kernel sits behind an `Arc`, and cloning a
//! module builds the kernel first, so an unmutated module and all its
//! clones (an engine's master and workers) share one copy. A parasitic
//! kernel holds no netlist of its own: it stages drives for the module's
//! cached parasitic session.
//!
//! # Bit-identity contract
//!
//! Every number the kernel consumes comes from the code path the
//! interpreted reference runs (drive lowering, DAC currents, the array's
//! conductance table), the floating-point accumulation order is the same,
//! and the RNG-consuming devices are the same live models called in the
//! same order. A deterministic comparator is lowered to its cutoff, which
//! gives the device's own decision for every net current (see
//! `switch_cutoff`), and the winner tracker's outcome is read off the
//! final codes, which fix every decision it would replay. Module recalls
//! therefore reproduce the interpreted reference
//! (`AssociativeMemoryModule::oracle_recall_request`) bit for bit:
//! results, energy floats, RNG stream and device counters. `plan::tests`,
//! the mutation proptest and the conformance `bit_identity.plan.*` checks
//! pin this.
//!
//! # Example
//!
//! ```
//! use spinamm_core::amm::{AmmConfig, AssociativeMemoryModule};
//!
//! # fn main() -> Result<(), spinamm_core::CoreError> {
//! let patterns = vec![vec![7, 0, 7, 0], vec![0, 7, 0, 7]];
//! let mut module = AssociativeMemoryModule::build(&patterns, &AmmConfig::default())?;
//! // The first recall builds the kernel; later ones reuse it.
//! let result = module.recall(&[7, 0, 7, 0])?;
//! assert_eq!(result.winner, Some(0));
//! assert_eq!(module.recall(&[0, 7, 0, 7])?.winner, Some(1));
//! # Ok(())
//! # }
//! ```

use crate::adc::SpinSarAdc;
use crate::amm::{AssociativeMemoryModule, Fidelity, QueryEvaluation, RecallResult};
use crate::energy::EnergyBreakdown;
use crate::wta::{argmax_lowest_index, SpinWta};
use crate::CoreError;
use rand_chacha::ChaCha8Rng;
use spinamm_circuit::units::{Amps, Joules, Seconds, Watts};
use spinamm_crossbar::{CachedParasiticCrossbar, CrossbarArray, RowDrive};
use spinamm_spin::{DomainWallNeuron, NeuronConfig, Polarity};
use spinamm_telemetry::{Layer, NoopRecorder, Recorder};

/// How the evaluate phase turns staged levels into column currents.
#[derive(Debug)]
enum Correlate {
    /// Ideal and driven fidelity: a flat multiply-accumulate against the
    /// array's conductance table.
    Analytic {
        /// Row input voltages, `[row × level]`.
        v: Vec<f64>,
        /// Row input currents (for RCM power), `[row × level]`.
        i_in: Vec<f64>,
        /// Columns severed by line defects (currents forced to zero).
        disconnected: Vec<bool>,
    },
    /// Parasitic fidelity: full drives for the module's cached netlist
    /// session, `[row × level]`.
    Parasitic { drives: Vec<RowDrive> },
}

/// The lookup tables lowered from one module state. See the
/// [module docs](crate::plan).
#[derive(Debug)]
pub(crate) struct Kernel {
    rows: usize,
    cols: usize,
    /// Input levels per row, `1 << template_bits`.
    levels: usize,
    delta_v: f64,
    correlate: Correlate,

    // --- condition ------------------------------------------------------
    /// Columns gated out of the WTA (spares, retired, masked).
    gated: Vec<bool>,
    /// Input-referred latch offsets, when a fault map is installed.
    latch_offset: Option<Vec<f64>>,
    /// Trace annotations: masked columns, spare-remapped templates.
    masked_columns: usize,
    remapped_columns: usize,

    // --- convert --------------------------------------------------------
    bits: u32,
    /// SAR DAC trial currents, `[col × code]`.
    i_dac: Vec<f64>,
    /// Input saturation ceiling per column.
    ceiling: Vec<f64>,
    /// Per column, the net current at and above which its comparator
    /// switches (see [`switch_cutoff`]); `None` for a column whose devices
    /// draw randomness, which runs the live models.
    cutoff: Vec<Option<f64>>,

    // --- select ---------------------------------------------------------
    owner: Vec<Option<usize>>,
    dom_threshold: u32,
    latency: Seconds,
    digital_energy: Joules,
}

impl Kernel {
    /// Lowers the module's current state into tables.
    ///
    /// # Errors
    ///
    /// Propagates device-model errors raised while building the tables.
    pub(crate) fn build(module: &AssociativeMemoryModule) -> Result<Self, CoreError> {
        let array = &module.array;
        let rows = array.rows();
        let cols = array.cols();
        let level_cap = 1u32 << module.config.params.template_bits;

        // Drive tables: every (row, level) pair through the module's own
        // drive construction — the exact drives the reference derives per
        // query.
        let mut drives = Vec::with_capacity(rows * level_cap as usize);
        for i in 0..rows {
            for level in 0..level_cap {
                drives.push(module.drive_for_row(i, level)?);
            }
        }
        let correlate = if module.config.fidelity == Fidelity::Parasitic {
            Correlate::Parasitic { drives }
        } else {
            let mut v = Vec::with_capacity(drives.len());
            let mut i_in = Vec::with_capacity(drives.len());
            for (i, row) in drives.chunks(level_cap as usize).enumerate() {
                let load = array.row_total_conductance(i)?;
                for d in row {
                    v.push(d.input_voltage(load).0);
                    i_in.push(d.current_into(load).0);
                }
            }
            Correlate::Analytic {
                v,
                i_in,
                disconnected: (0..cols).map(|j| array.column_disconnected(j)).collect(),
            }
        };

        let wta = &module.wta;
        let bits = wta.bits();
        let codes = 1u32 << bits;
        let mut i_dac = Vec::with_capacity(cols * codes as usize);
        let mut ceiling = Vec::with_capacity(cols);
        let mut cutoff = Vec::with_capacity(cols);
        // Fault-free columns share one comparator, so reuse the previous
        // column's cutoff while its neuron and pulse are unchanged.
        let mut last: Option<(NeuronConfig, f64, Option<f64>)> = None;
        for adc in wta.adcs() {
            ceiling.push(adc.saturation_ceiling()?.0);
            for code in 0..codes {
                i_dac.push(adc.dac.clamped_current(code)?.0);
            }
            cutoff.push(if adc.thermal || adc.latch_noise {
                None
            } else {
                let pulse = adc.clock_period.0 * SpinSarAdc::PULSE_FRACTION;
                match last {
                    Some((neuron, p, c)) if neuron == adc.neuron && p == pulse => c,
                    _ => {
                        let c = switch_cutoff(adc.neuron, Seconds(pulse));
                        last = Some((adc.neuron, pulse, c));
                        c
                    }
                }
            });
        }

        let owner = module.column_owner.clone();
        let fault_map = array.fault_map();
        Ok(Self {
            rows,
            cols,
            levels: level_cap as usize,
            delta_v: module.config.params.delta_v.0,
            correlate,
            gated: (0..cols)
                .map(|j| owner[j].is_none() || module.masked[j])
                .collect(),
            latch_offset: fault_map.map(|m| (0..cols).map(|j| m.latch_offset(j)).collect()),
            masked_columns: module.masked.iter().filter(|&&m| m).count(),
            remapped_columns: owner
                .iter()
                .enumerate()
                .filter(|&(j, o)| o.is_some_and(|t| t != j))
                .count(),
            bits,
            i_dac,
            ceiling,
            cutoff,
            owner,
            dom_threshold: module.config.dom_threshold,
            latency: wta.latency(),
            digital_energy: wta.digital_energy(),
        })
    }

    /// Input validation shared by every entry point: length and level
    /// range.
    pub(crate) fn check(&self, levels: &[u32]) -> Result<(), CoreError> {
        if levels.len() != self.rows {
            return Err(CoreError::InputLengthMismatch {
                expected: self.rows,
                found: levels.len(),
            });
        }
        if levels.iter().any(|&l| l as usize >= self.levels) {
            return Err(CoreError::InvalidParameter {
                what: "input level exceeds template bit width",
            });
        }
        Ok(())
    }

    /// The evaluate phase for checked `levels`: stage → correlate against
    /// `array`'s conductance table, or stage → solve through `session` (the
    /// module's cached parasitic session, or a batch worker's clone of it).
    /// `array` is the module's own, unchanged since this kernel was built.
    pub(crate) fn evaluate<T: Recorder>(
        &self,
        session: &mut CachedParasiticCrossbar,
        array: &CrossbarArray,
        levels: &[u32],
        recorder: &T,
    ) -> Result<QueryEvaluation, CoreError> {
        let lc = self.levels;
        match &self.correlate {
            Correlate::Analytic {
                v,
                i_in,
                disconnected,
            } => {
                // Stage the row voltages first, so the table reads overlap,
                // then accumulate row-outer / column-inner, the order of
                // `CrossbarArray::ideal_column_currents`.
                let staged: Vec<f64> = levels
                    .iter()
                    .enumerate()
                    .map(|(i, &level)| v[i * lc + level as usize])
                    .collect();
                let g = array.conductances();
                let mut currents = vec![Amps(0.0); self.cols];
                for (&vi, row) in staged.iter().zip(g.chunks_exact(self.cols)) {
                    for (o, gij) in currents.iter_mut().zip(row) {
                        o.0 += vi * gij.0;
                    }
                }
                for (o, &cut) in currents.iter_mut().zip(disconnected) {
                    if cut {
                        *o = Amps(0.0);
                    }
                }
                let mut total_in = 0.0;
                for (i, &level) in levels.iter().enumerate() {
                    total_in += i_in[i * lc + level as usize];
                }
                Ok(QueryEvaluation {
                    currents,
                    rcm_power: Watts(total_in * self.delta_v),
                })
            }
            Correlate::Parasitic { drives } => {
                let staged: Vec<RowDrive> = levels
                    .iter()
                    .enumerate()
                    .map(|(i, &level)| drives[i * lc + level as usize])
                    .collect();
                let readout = session.evaluate_with(array, &staged, recorder)?;
                Ok(QueryEvaluation {
                    currents: readout.column_currents,
                    rcm_power: readout.dissipated_power,
                })
            }
        }
    }

    /// The select phase: condition → convert → select. Consumes `rng`
    /// through the live spin devices of `wta`'s noisy columns exactly as
    /// the reference's `SpinWta` evaluation does, with the same spans and
    /// counter totals; a deterministic column compares against its cutoff.
    /// The device counters are tallied locally and reported once per
    /// select, not once per cycle.
    pub(crate) fn select<T: Recorder>(
        &self,
        wta: &SpinWta,
        rng: &mut ChaCha8Rng,
        eval: QueryEvaluation,
        recorder: &T,
    ) -> Result<RecallResult, CoreError> {
        let QueryEvaluation {
            mut currents,
            rcm_power,
        } = eval;
        if currents.len() != self.cols {
            return Err(CoreError::InputLengthMismatch {
                expected: self.cols,
                found: currents.len(),
            });
        }
        recorder.counter("recall.count", 1);

        // Condition: gated columns never fire; healthy ones pick up their
        // latch offset.
        for (j, c) in currents.iter_mut().enumerate() {
            if self.gated[j] {
                *c = Amps(0.0);
            } else if let Some(offsets) = &self.latch_offset {
                if offsets[j] != 0.0 {
                    *c = Amps((c.0 + offsets[j]).max(0.0));
                }
            }
        }
        if self.masked_columns > 0 {
            recorder.trace_attr("masked_columns", self.masked_columns as f64);
        }
        if self.remapped_columns > 0 {
            recorder.trace_attr("remapped_columns", self.remapped_columns as f64);
        }

        // Convert: per column, clamp → SAR cycle → neuron write → latch
        // sense → DAC energy, as `SpinSarAdc::convert_with` does, with the
        // DAC model replaced by table reads. Energy subtotals start from
        // zero per conversion and sum in column order. `code` holds the
        // SAR register's trial code and `bit` its trial bit: a cycle keeps
        // the bit when the comparator reads Up, then sets the next one.
        let convert = recorder.span(Layer::CONVERT);
        let codes_per_col = 1usize << self.bits;
        let msb = 1u32 << (self.bits - 1);
        let mut codes = vec![0u32; self.cols];
        let mut energy = EnergyBreakdown::default();
        let (mut sar_cycles, mut dwn_switches) = (0u64, 0u64);
        for (j, adc) in wta.adcs().iter().enumerate() {
            if !currents[j].0.is_finite() {
                report_device_counters(recorder, sar_cycles, dwn_switches, 0);
                return Err(CoreError::InvalidParameter {
                    what: "ADC input current must be finite",
                });
            }
            let input = currents[j].0.clamp(0.0, self.ceiling[j]);
            let i_dac = &self.i_dac[j * codes_per_col..(j + 1) * codes_per_col];
            let pulse = Seconds(adc.clock_period.0 * SpinSarAdc::PULSE_FRACTION);
            let (supply, clock) = (adc.dac.supply().0, adc.clock_period.0);
            let sense_energy = adc.latch.sense_energy();
            let mut dwn_energy = Joules::ZERO;
            let mut latch_energy = Joules::ZERO;
            let mut dac_energy = Joules::ZERO;
            let (mut code, mut bit) = (msb, msb);
            if let Some(cutoff) = self.cutoff[j] {
                while bit != 0 {
                    let i = i_dac[code as usize];
                    let net = Amps(input - i);
                    let up = net.0 >= cutoff;
                    dwn_energy += adc.neuron.write_energy(net, pulse);
                    latch_energy += sense_energy;
                    dac_energy += Joules(i * 2.0 * supply * clock);
                    code ^= bit * u32::from(!up);
                    bit >>= 1;
                    code |= bit;
                }
                // Each cycle starts Down and keeps its bit only if the
                // wall switched, so the switches are the code's set bits.
                dwn_switches += u64::from(code.count_ones());
            } else {
                let mut neuron = DomainWallNeuron::new(adc.neuron);
                while bit != 0 {
                    let i = i_dac[code as usize];
                    let net = Amps(input - i);
                    neuron.set_state(Polarity::Down);
                    let state = if adc.thermal {
                        neuron.apply_thermal_with(net, pulse, rng, &NoopRecorder)
                    } else {
                        neuron.apply_with(net, pulse, &NoopRecorder)
                    };
                    // Each cycle starts Down, so the wall switched iff it reads Up.
                    dwn_switches += u64::from(state == Polarity::Up);
                    dwn_energy += adc.neuron.write_energy(net, pulse);
                    let sensed = if adc.latch_noise {
                        adc.latch.sense_with(&adc.mtj, state, rng, &NoopRecorder)
                    } else {
                        state
                    };
                    latch_energy += sense_energy;
                    dac_energy += Joules(i * 2.0 * supply * clock);
                    code ^= bit * u32::from(sensed != Polarity::Up);
                    bit >>= 1;
                    code |= bit;
                }
            }
            sar_cycles += u64::from(self.bits);
            codes[j] = code;
            energy.dwn_write += dwn_energy;
            energy.latch_sense += latch_energy;
            energy.dac_static += dac_energy;
        }
        convert.attr("columns", self.cols as f64);
        drop(convert);

        // Select: the lowest-index argmax and result assembly. The winner
        // tracker (Fig. 12) needs no replay: each cycle's decision is the
        // code bit it resolved, so its narrowing ends on the columns that
        // hold the maximum code when that code has its MSB set, and on none
        // otherwise, and the detection line falls once per set bit of that
        // code below the MSB. `SpinWta::evaluate_with` keeps the
        // cycle-by-cycle tracker as the reference.
        let _select = recorder.span(Layer::SELECT);
        let winner = argmax_lowest_index(&codes).expect("non-empty by construction");
        let dom = codes[winner];
        let tracks = dom & msb != 0;
        let dl_transitions = if tracks {
            u64::from((dom & (msb - 1)).count_ones())
        } else {
            0
        };
        let tracked_phys =
            (tracks && codes.iter().filter(|&&c| c == dom).count() == 1).then_some(winner);
        energy.digital = self.digital_energy;
        energy.rcm_static = Joules(rcm_power.0 * self.latency.0);
        // A disowned column only wins when every owned column read zero;
        // it then reports template 0.
        let raw_winner = self.owner[winner].unwrap_or(0);
        report_device_counters(recorder, sar_cycles, dwn_switches, dl_transitions);
        Ok(RecallResult {
            winner: (dom >= self.dom_threshold).then_some(raw_winner),
            raw_winner,
            tracked_winner: tracked_phys.and_then(|p| self.owner[p]),
            dom,
            codes,
            column_currents: currents,
            energy,
        })
    }

    /// Whether the evaluate phase solves the parasitic netlist (and so
    /// benefits from batch worker threads).
    pub(crate) fn solves(&self) -> bool {
        matches!(self.correlate, Correlate::Parasitic { .. })
    }
}

/// Reports one select's device counters, one call per non-zero total.
/// Every SAR cycle senses the latch once, so `spin.latch_fires` equals
/// `adc.sar_cycles`.
fn report_device_counters<T: Recorder>(
    recorder: &T,
    sar_cycles: u64,
    dwn_switches: u64,
    dl_transitions: u64,
) {
    for (name, total) in [
        ("adc.sar_cycles", sar_cycles),
        ("spin.dwn_switch_events", dwn_switches),
        ("spin.latch_fires", sar_cycles),
        ("wta.dl_transitions", dl_transitions),
    ] {
        if total > 0 {
            recorder.counter(name, total);
        }
    }
}

/// The smallest net current at which a fresh (`Down`) comparator of
/// `neuron` ends `Up` after a write `pulse`, or `None` when no net current
/// switches it.
///
/// The decision is monotone in the net current, so `net >= cutoff` is the
/// device's own answer for every `f64` net. A net at or below zero drives
/// the wall toward `Down`, which it already holds. Above zero,
/// [`DomainWallNeuron::apply_with`] switches iff the overdrive
/// `net − threshold` is positive and the transit time
/// `L / (μ·u·overdrive)` is at most the pulse. With a module's positive
/// length, mobility and drift, the subtraction, the product, the division
/// and the `≤ pulse` test are each monotone under IEEE rounding, so once a
/// net switches, every larger one does too. Non-negative floats order
/// like their bit patterns, so a bisection over the patterns of
/// `[0, +∞]`, calling the device itself, finds the cutoff exactly in at
/// most 64 calls.
fn switch_cutoff(neuron: NeuronConfig, pulse: Seconds) -> Option<f64> {
    let switches = |bits: u64| {
        DomainWallNeuron::new(neuron).apply_with(Amps(f64::from_bits(bits)), pulse, &NoopRecorder)
            == Polarity::Up
    };
    // Invariant: `lo` stays Down (zero net never switches), `hi` ends Up.
    let (mut lo, mut hi) = (0.0f64.to_bits(), f64::INFINITY.to_bits());
    if !switches(hi) {
        return None;
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if switches(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(f64::from_bits(hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amm::AmmConfig;
    use crate::hierarchy::HierarchicalAmm;
    use crate::partition::PartitionedAmm;
    use crate::request::RecallRequest;
    use spinamm_telemetry::MemoryRecorder;

    fn patterns() -> Vec<Vec<u32>> {
        (0..4)
            .map(|p| {
                (0..16)
                    .map(|i| {
                        if i % 4 == p {
                            25
                        } else {
                            (i as u32 * 3 + p as u32) % 8
                        }
                    })
                    .collect()
            })
            .collect()
    }

    fn queries() -> Vec<Vec<u32>> {
        (0..6)
            .map(|q: u32| (0..16).map(|i| (i as u32 * 7 + q * 5) % 32).collect())
            .collect()
    }

    fn config(fidelity: Fidelity) -> AmmConfig {
        AmmConfig {
            fidelity,
            ..AmmConfig::default()
        }
    }

    fn oracle(module: &mut AssociativeMemoryModule, q: &[u32]) -> RecallResult {
        module
            .oracle_recall_request(q, &RecallRequest::DEFAULT)
            .unwrap()
    }

    fn assert_results_identical(got: &RecallResult, want: &RecallResult) {
        assert_eq!(got.winner, want.winner);
        assert_eq!(got.raw_winner, want.raw_winner);
        assert_eq!(got.tracked_winner, want.tracked_winner);
        assert_eq!(got.dom, want.dom);
        assert_eq!(got.codes, want.codes);
        assert_eq!(got.column_currents.len(), want.column_currents.len());
        for (a, b) in got.column_currents.iter().zip(&want.column_currents) {
            assert_eq!(a.0.to_bits(), b.0.to_bits());
        }
        assert_eq!(
            got.energy.total().0.to_bits(),
            want.energy.total().0.to_bits()
        );
    }

    /// The paper's 128×40 module: at parasitic fidelity its netlist is large
    /// enough for the conjugate-gradient backend, where 16×4 stays dense.
    fn paper_geometry() -> (Vec<Vec<u32>>, Vec<Vec<u32>>) {
        let patterns = (0..40)
            .map(|j| (0..128).map(|i| ((i * 5 + j * 3) % 32) as u32).collect())
            .collect();
        let queries = (0..3)
            .map(|q| (0..128).map(|i| ((i * 7 + q * 11) % 32) as u32).collect())
            .collect();
        (patterns, queries)
    }

    #[test]
    fn f64_plan_is_bit_identical_across_fidelities() {
        for (patterns, queries) in [(patterns(), queries()), paper_geometry()] {
            for fidelity in [Fidelity::Ideal, Fidelity::Driven, Fidelity::Parasitic] {
                let cfg = config(fidelity);
                let mut module = AssociativeMemoryModule::build(&patterns, &cfg).unwrap();
                let mut reference = AssociativeMemoryModule::build(&patterns, &cfg).unwrap();
                for q in &queries {
                    assert_results_identical(
                        &module.recall(q).unwrap(),
                        &oracle(&mut reference, q),
                    );
                }
            }
        }
    }

    #[test]
    fn f64_plan_advances_rng_identically() {
        // Thermal + latch noise make every conversion consume randomness;
        // if the kernel's stream diverged anywhere, later queries would too.
        let cfg = AmmConfig {
            thermal: true,
            latch_noise: true,
            ..config(Fidelity::Driven)
        };
        let mut module = AssociativeMemoryModule::build(&patterns(), &cfg).unwrap();
        let mut reference = AssociativeMemoryModule::build(&patterns(), &cfg).unwrap();
        for q in queries() {
            assert_results_identical(&module.recall(&q).unwrap(), &oracle(&mut reference, &q));
        }
    }

    #[test]
    fn plan_batch_matches_interpreted_batch() {
        for fidelity in [Fidelity::Driven, Fidelity::Parasitic] {
            let cfg = config(fidelity);
            let mut module = AssociativeMemoryModule::build(&patterns(), &cfg).unwrap();
            let mut reference = AssociativeMemoryModule::build(&patterns(), &cfg).unwrap();
            let qs = queries();
            let got = module
                .recall_batch_request(&qs, &RecallRequest::DEFAULT.with_workers(2))
                .unwrap();
            assert_eq!(got.len(), qs.len());
            for (g, q) in got.iter().zip(&qs) {
                assert_results_identical(g, &oracle(&mut reference, q));
            }
        }
    }

    #[test]
    fn plan_counter_totals_match_interpreted() {
        let cfg = config(Fidelity::Driven);
        let mut module = AssociativeMemoryModule::build(&patterns(), &cfg).unwrap();
        let mut reference = AssociativeMemoryModule::build(&patterns(), &cfg).unwrap();

        let interp = MemoryRecorder::default();
        let compiled = MemoryRecorder::default();
        for q in queries() {
            reference
                .oracle_recall_request(&q, &RecallRequest::recorded(&interp))
                .unwrap();
            module
                .recall_request(&q, &RecallRequest::recorded(&compiled))
                .unwrap();
        }
        let want = interp.snapshot();
        let got = compiled.snapshot();
        for name in [
            "recall.count",
            "adc.sar_cycles",
            "spin.dwn_switch_events",
            "spin.latch_fires",
            "wta.dl_transitions",
        ] {
            assert_eq!(got.counter(name), want.counter(name), "counter {name}");
        }
        for span in ["recall.total", "recall.drive", "recall.settle"] {
            assert!(got.span_stats(span).is_some(), "span {span}");
        }
        for span in ["recall.convert", "recall.select"] {
            assert_eq!(
                got.span_stats(span).map(|s| s.count),
                want.span_stats(span).map(|s| s.count),
                "span {span}"
            );
        }
    }

    #[test]
    fn plan_evaluate_matches_module_evaluate() {
        // An engine-style split — evaluate on a clone, select on the
        // master — against the reference, whose currents (no faults, no
        // spares) are the unconditioned evaluation.
        for fidelity in [Fidelity::Ideal, Fidelity::Driven, Fidelity::Parasitic] {
            let cfg = config(fidelity);
            let mut master = AssociativeMemoryModule::build(&patterns(), &cfg).unwrap();
            let mut worker = master.clone();
            let mut reference = AssociativeMemoryModule::build(&patterns(), &cfg).unwrap();
            for q in queries() {
                let want = oracle(&mut reference, &q);
                let eval = worker
                    .evaluate_query_request(&q, &RecallRequest::DEFAULT)
                    .unwrap();
                assert_eq!(eval.column_currents(), want.column_currents.as_slice());
                let got = master
                    .select_winner_request(eval, &RecallRequest::DEFAULT)
                    .unwrap();
                assert_results_identical(&got, &want);
            }
        }
    }

    #[test]
    fn plan_validates_before_consuming_state() {
        let cfg = config(Fidelity::Driven);
        let mut module = AssociativeMemoryModule::build(&patterns(), &cfg).unwrap();
        let mut reference = AssociativeMemoryModule::build(&patterns(), &cfg).unwrap();

        assert!(matches!(
            module.recall(&[0; 3]),
            Err(CoreError::InputLengthMismatch { .. })
        ));
        assert!(matches!(
            module.recall(&[99; 16]),
            Err(CoreError::InvalidParameter { .. })
        ));
        // A batch with a late invalid input must fail before any query
        // consumes randomness — the module then still tracks the reference.
        let bad: Vec<Vec<u32>> = vec![queries()[0].clone(), vec![99; 16]];
        assert!(module.recall_batch(&bad).is_err());
        // A foreign evaluation of the wrong width is rejected, not panicked.
        let narrow = AssociativeMemoryModule::build(&patterns()[..2], &cfg)
            .unwrap()
            .evaluate_query_request(&queries()[0], &RecallRequest::DEFAULT)
            .unwrap();
        assert!(matches!(
            module.select_winner_request(narrow, &RecallRequest::DEFAULT),
            Err(CoreError::InputLengthMismatch { .. })
        ));
        let q = &queries()[1];
        assert_results_identical(&module.recall(q).unwrap(), &oracle(&mut reference, q));
    }

    #[test]
    fn partitioned_plan_matches_partitioned_recall() {
        let cfg = config(Fidelity::Driven);
        let mut partitioned = PartitionedAmm::build(&patterns(), 3, &cfg).unwrap();
        let mut reference = PartitionedAmm::build(&patterns(), 3, &cfg).unwrap();
        for q in queries() {
            let got = partitioned.recall(&q).unwrap();
            let segments: Vec<RecallResult> = reference
                .segments
                .iter_mut()
                .map(|seg| oracle(&mut seg.module, &q[seg.start..seg.end]))
                .collect();
            let want = reference.combine(&segments);
            assert_eq!(got.winner, want.winner);
            assert_eq!(got.dom, want.dom);
            assert_eq!(got.scores, want.scores);
            assert_eq!(
                got.energy.total().0.to_bits(),
                want.energy.total().0.to_bits()
            );
        }
    }

    #[test]
    fn hierarchical_plan_matches_interpreted_two_phase() {
        // Engine-style split: a worker clone runs both RNG-free phases,
        // the master runs both selects — bit-identical to the reference
        // stage A and stage B. A direct recall on a third copy must agree
        // with the same reference.
        let cfg = config(Fidelity::Driven);
        let pats: Vec<Vec<u32>> = (0..6)
            .map(|p| {
                (0..16)
                    .map(|i| {
                        if i % 3 == p % 3 {
                            28
                        } else {
                            (i + p) as u32 % 6
                        }
                    })
                    .collect()
            })
            .collect();
        let mut reference = HierarchicalAmm::build(&pats, 2, &cfg).unwrap();
        let mut master = reference.clone();
        let mut worker = reference.clone();
        let mut direct = reference.clone();
        let req = RecallRequest::DEFAULT;
        for q in queries() {
            let want_top = oracle(&mut reference.top, &q);
            let cluster = want_top.raw_winner;
            let want_member = oracle(&mut reference.clusters[cluster].module, &q);

            let top_eval = worker.evaluate_top_request(&q, &req).unwrap();
            let top = master.select_top_request(top_eval, &req).unwrap();
            assert_results_identical(&top, &want_top);
            let member_eval = worker.evaluate_member_request(cluster, &q, &req).unwrap();
            let staged = master
                .select_member_request(cluster, member_eval, &top, &req)
                .unwrap();
            for got in [staged, direct.recall(&q).unwrap()] {
                assert_eq!(got.cluster, cluster);
                assert_eq!(
                    got.winner,
                    reference.clusters[cluster].members[want_member.raw_winner]
                );
                assert_eq!(got.dom, want_member.dom);
                assert_eq!(
                    got.energy.total().0.to_bits(),
                    (want_top.energy + want_member.energy).total().0.to_bits()
                );
            }
        }
    }

    #[test]
    fn compile_records_telemetry() {
        // Tables are built on first use, reused until a mutation drops
        // them, and rebuilt on the next recall.
        let mut module =
            AssociativeMemoryModule::build(&patterns(), &config(Fidelity::Driven)).unwrap();
        let rec = MemoryRecorder::default();
        let req = RecallRequest::recorded(&rec);
        module.recall_request(&queries()[0], &req).unwrap();
        module.recall_request(&queries()[1], &req).unwrap();
        assert_eq!(rec.snapshot().counter("plan.compiles"), 1);
        module
            .retire_template(0)
            .expect("three templates stay live");
        module.recall_request(&queries()[2], &req).unwrap();
        assert_eq!(rec.snapshot().counter("plan.compiles"), 2);
    }

    /// The device's own decision from a fresh (`Down`) neuron.
    fn device_switches(neuron: NeuronConfig, net: f64, pulse: Seconds) -> bool {
        DomainWallNeuron::new(neuron).apply_with(Amps(net), pulse, &NoopRecorder) == Polarity::Up
    }

    #[test]
    fn switch_cutoff_reproduces_the_device() {
        use rand::{Rng, SeedableRng};
        let nominal = AmmConfig::default().params.dwn_threshold;
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        // Fault injection scales thresholds per column; a module's pulse is
        // 0.9 of its clock.
        for factor in [0.25, 0.5, 0.9, 1.0, 1.1, 2.0, 4.0] {
            let neuron = NeuronConfig::paper()
                .with_threshold(Amps(nominal.0 * factor))
                .unwrap();
            for pulse in [0.9e-9, 9e-9, 90e-9].map(Seconds) {
                let cutoff = switch_cutoff(neuron, pulse).expect("a finite drive switches");
                let below = f64::from_bits(cutoff.to_bits() - 1);
                assert!(device_switches(neuron, cutoff, pulse), "{factor} {pulse:?}");
                assert!(!device_switches(neuron, below, pulse), "{factor} {pulse:?}");
                let mut nets: Vec<f64> = (0..10_000)
                    .map(|_| rng.gen_range(-2.0 * cutoff..2.0 * cutoff))
                    .collect();
                nets.extend((1..=8).flat_map(|ulp| {
                    [
                        f64::from_bits(cutoff.to_bits() + ulp),
                        f64::from_bits(cutoff.to_bits() - ulp),
                    ]
                }));
                for net in nets {
                    assert_eq!(
                        net >= cutoff,
                        device_switches(neuron, net, pulse),
                        "factor {factor}, pulse {pulse:?}, net {net:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn tracker_edge_cases_match_the_oracle() {
        use crate::degrade::DegradationPolicy;
        use spinamm_faults::FaultMap;

        // Kernel against oracle on twin modules: results, energy bits and
        // the tracker and switch counters, query by query.
        fn check(
            module: &mut AssociativeMemoryModule,
            reference: &mut AssociativeMemoryModule,
            q: &[u32],
        ) -> RecallResult {
            let (got_rec, want_rec) = (MemoryRecorder::default(), MemoryRecorder::default());
            let got = module
                .recall_request(q, &RecallRequest::recorded(&got_rec))
                .unwrap();
            let want = reference
                .oracle_recall_request(q, &RecallRequest::recorded(&want_rec))
                .unwrap();
            assert_results_identical(&got, &want);
            let (got_rec, want_rec) = (got_rec.snapshot(), want_rec.snapshot());
            for name in ["wta.dl_transitions", "spin.dwn_switch_events"] {
                assert_eq!(got_rec.counter(name), want_rec.counter(name), "{name}");
            }
            got
        }

        let cfg = config(Fidelity::Driven);
        let msb = 1u32 << (cfg.params.comparator_bits - 1);
        let mut pats = patterns();
        pats.insert(1, pats[0].clone());
        let mut module = AssociativeMemoryModule::build(&pats, &cfg).unwrap();
        let mut reference = AssociativeMemoryModule::build(&pats, &cfg).unwrap();

        // (a) Duplicated templates tie at the maximum: no tracked winner.
        let q: Vec<u32> = pats[0].iter().map(|&l| l * 7 / 8).collect();
        let r = check(&mut module, &mut reference, &q);
        assert!(r.dom & msb != 0, "codes {:?}", r.codes);
        assert_eq!((r.codes[0], r.codes[1]), (r.dom, r.dom));
        assert_eq!(r.tracked_winner, None);
        // (b) An all-zero query sets no MSB: no transition, no winner.
        let r = check(&mut module, &mut reference, &[0; 16]);
        assert!(r.dom & msb == 0, "codes {:?}", r.codes);
        assert_eq!(r.tracked_winner, None);
        // (c) A unique maximum is tracked.
        let r = check(&mut module, &mut reference, &pats[2]);
        assert_eq!(r.codes.iter().filter(|&&c| c == r.dom).count(), 1);
        assert_eq!(r.tracked_winner, Some(r.raw_winner));

        // (d) A threshold spread gives columns distinct cutoffs.
        let map = FaultMap::pristine(16, pats.len(), 0)
            .and_then(|m| m.with_threshold_factor(0, 0.6))
            .and_then(|m| m.with_threshold_factor(2, 1.4))
            .and_then(|m| m.with_threshold_factor(3, 2.5))
            .unwrap();
        for m in [&mut module, &mut reference] {
            m.inject_faults(map.clone(), &DegradationPolicy::default())
                .unwrap();
        }
        let cutoffs = Kernel::build(&module).unwrap().cutoff;
        let mut distinct: Vec<f64> = cutoffs.iter().map(|c| c.unwrap()).collect();
        distinct.sort_by(f64::total_cmp);
        distinct.dedup();
        assert_eq!(distinct.len(), 4, "{cutoffs:?}");
        for q in pats.iter().chain(&queries()) {
            check(&mut module, &mut reference, q);
        }
    }
}
