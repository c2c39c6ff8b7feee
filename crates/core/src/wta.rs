//! The hybrid spin-CMOS winner-take-all (paper Figs. 10–12).
//!
//! Every column converts its correlation current with a [`SpinSarAdc`];
//! *in parallel*, a fully digital tracker follows the conversions bit by
//! bit:
//!
//! * after the first cycle, each tracking register (TR) takes its column's
//!   resolved MSB;
//! * in each later cycle, the detection line (DL) is precharged and each
//!   still-tracked column whose newly resolved bit is `1` pulls it down
//!   through its discharge register (DR); if the line fell, every TR is
//!   rewritten to `TR ∧ bit`, otherwise nothing changes;
//! * at the end, a single high TR identifies the winner and its SAR holds
//!   the degree of match (DOM).
//!
//! The tracker is pure digital logic — no static power — which together
//! with the low-voltage RCM bias is the source of the proposed design's
//! energy advantage.

use crate::adc::{AdcConversion, SpinSarAdc};
use crate::energy::EnergyBreakdown;
use crate::CoreError;
use rand::Rng;
use spinamm_circuit::units::{switched_capacitor_energy, Amps, Farads, Joules, Seconds};
use spinamm_cmos::Tech45;
use spinamm_telemetry::{Layer, NoopRecorder, Recorder};

/// The multi-column converter + tracker.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use spinamm_circuit::units::{Amps, Seconds, Volts};
/// use spinamm_cmos::Tech45;
/// use spinamm_core::adc::SpinSarAdc;
/// use spinamm_core::wta::SpinWta;
///
/// # fn main() -> Result<(), spinamm_core::CoreError> {
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let adcs = (0..4)
///     .map(|_| {
///         SpinSarAdc::build(5, Amps(1e-6), Volts(0.030), Seconds(10e-9),
///                           &Tech45::DEFAULT, &mut rng)
///     })
///     .collect::<Result<Vec<_>, _>>()?;
/// let wta = SpinWta::new(adcs, Tech45::DEFAULT)?;
/// let fs = wta.adcs()[0].nominal_full_scale().0;
/// let currents = vec![Amps(0.2 * fs), Amps(0.9 * fs), Amps(0.3 * fs), Amps(0.1 * fs)];
/// let out = wta.evaluate(&currents, &mut rng)?;
/// assert_eq!(out.winner, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SpinWta {
    adcs: Vec<SpinSarAdc>,
    tech: Tech45,
}

/// The one argmax rule every select path must share: the winner of a score
/// scan is the **lowest-index** maximal element. Equal-DOM columns are a
/// real occurrence (duplicated templates, saturated codes), and the scalar
/// [`SpinWta::evaluate_with`] scan, the partitioned combine and — through
/// them — the batch and engine select phases all resolve such ties here, so
/// the tie cannot drift between paths.
///
/// Returns `None` only for an empty slice.
///
/// Ties never reach `max_by`'s own last-wins rule: for equal scores the
/// comparator orders strictly by descending index, so the lowest index is
/// the unique maximum.
#[must_use]
pub fn argmax_lowest_index<T: Ord>(scores: &[T]) -> Option<usize> {
    scores
        .iter()
        .enumerate()
        .max_by(|(ia, a), (ib, b)| a.cmp(b).then(ib.cmp(ia)))
        .map(|(i, _)| i)
}

/// Result of one WTA evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct WtaOutcome {
    /// The column the hardware tracker identifies — `Some` only when
    /// exactly one tracking register stays high.
    pub tracked_winner: Option<usize>,
    /// Columns whose tracking registers remained high (ties included).
    pub tracked: Vec<usize>,
    /// Final winner after the digital tie-break scan (argmax of codes,
    /// lowest index wins ties) — what the module reports.
    pub winner: usize,
    /// The winner's degree of match.
    pub dom: u32,
    /// All column codes.
    pub codes: Vec<u32>,
    /// Energy of the evaluation (DWN + latch + DAC static + digital
    /// tracking; crossbar static is accounted by the caller, which knows
    /// the drive currents).
    pub energy: EnergyBreakdown,
}

impl SpinWta {
    /// Builds a WTA over the given per-column converters.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if there are no columns or
    /// the columns disagree on resolution.
    pub fn new(adcs: Vec<SpinSarAdc>, tech: Tech45) -> Result<Self, CoreError> {
        let first = adcs.first().ok_or(CoreError::InvalidParameter {
            what: "WTA needs at least one column",
        })?;
        let bits = first.bits();
        if adcs.iter().any(|a| a.bits() != bits) {
            return Err(CoreError::InvalidParameter {
                what: "all columns must share one resolution",
            });
        }
        Ok(Self { adcs, tech })
    }

    /// Number of columns.
    #[must_use]
    pub fn columns(&self) -> usize {
        self.adcs.len()
    }

    /// Resolution in bits.
    #[must_use]
    pub fn bits(&self) -> u32 {
        self.adcs[0].bits()
    }

    /// The per-column converters.
    #[must_use]
    pub fn adcs(&self) -> &[SpinSarAdc] {
        &self.adcs
    }

    /// Mutable access to the per-column converters — used by fault
    /// injection to apply per-column DWN threshold factors. Callers must
    /// keep all columns at one resolution.
    pub fn adcs_mut(&mut self) -> &mut [SpinSarAdc] {
        &mut self.adcs
    }

    /// Conversion latency (same for all columns).
    #[must_use]
    pub fn latency(&self) -> Seconds {
        self.adcs[0].conversion_time()
    }

    /// Evaluates the WTA on a set of column currents.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InputLengthMismatch`] if `currents.len()`
    /// differs from the column count.
    pub fn evaluate<R: Rng + ?Sized>(
        &self,
        currents: &[Amps],
        rng: &mut R,
    ) -> Result<WtaOutcome, CoreError> {
        self.evaluate_with(currents, rng, &NoopRecorder)
    }

    /// Like [`SpinWta::evaluate`], recording telemetry on `recorder`: the
    /// [`Layer::CONVERT`] and [`Layer::SELECT`] spans, the per-device
    /// counters from the column ADCs, and `wta.dl_transitions` — one count
    /// per cycle in which the detection line actually discharged. The outcome and RNG stream are
    /// those of [`SpinWta::evaluate`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`SpinWta::evaluate`].
    pub fn evaluate_with<R: Rng + ?Sized, T: Recorder>(
        &self,
        currents: &[Amps],
        rng: &mut R,
        recorder: &T,
    ) -> Result<WtaOutcome, CoreError> {
        if currents.len() != self.adcs.len() {
            return Err(CoreError::InputLengthMismatch {
                expected: self.adcs.len(),
                found: currents.len(),
            });
        }
        let convert = recorder.span(Layer::CONVERT);
        let conversions: Vec<AdcConversion> = self
            .adcs
            .iter()
            .zip(currents)
            .map(|(adc, &i)| adc.convert_with(i, rng, recorder))
            .collect::<Result<_, _>>()?;
        drop(convert);
        let _select = recorder.span(Layer::SELECT);

        let bits = self.bits();
        let n = self.adcs.len();

        // --- Parallel winner tracking (Fig. 12). -------------------------
        // Cycle 1: TR ← resolved MSB.
        let msb_mask = 1u32 << (bits - 1);
        let mut tr: Vec<bool> = conversions
            .iter()
            .map(|c| c.code_trajectory[0] & msb_mask != 0)
            .collect();
        // Cycles 2..bits: conditional narrowing.
        for cycle in 1..bits as usize {
            let bit_mask = 1u32 << (bits - 1 - cycle as u32);
            let resolved: Vec<bool> = conversions
                .iter()
                .map(|c| c.code_trajectory[cycle] & bit_mask != 0)
                .collect();
            let discharge = tr.iter().zip(&resolved).any(|(&t, &b)| t && b);
            if discharge {
                recorder.counter("wta.dl_transitions", 1);
                for (t, &b) in tr.iter_mut().zip(&resolved) {
                    *t = *t && b;
                }
            }
        }
        let tracked: Vec<usize> = (0..n).filter(|&j| tr[j]).collect();
        let tracked_winner = match tracked.as_slice() {
            [single] => Some(*single),
            _ => None,
        };

        // --- Digital fallback: scan for argmax (ties → lowest index). ----
        let codes: Vec<u32> = conversions.iter().map(|c| c.code).collect();
        let winner = argmax_lowest_index(&codes).expect("non-empty by construction");
        let dom = codes[winner];

        // --- Energy. ------------------------------------------------------
        let mut energy = EnergyBreakdown::default();
        for c in &conversions {
            energy.dwn_write += c.dwn_energy;
            energy.latch_sense += c.latch_energy;
            energy.dac_static += c.dac_energy;
        }
        energy.digital = self.digital_energy();

        Ok(WtaOutcome {
            tracked_winner,
            tracked,
            winner,
            dom,
            codes,
            energy,
        })
    }

    /// Digital switching energy of one evaluation: per column per cycle,
    /// one SAR flop update, the pass-gate mux, the DR AND-gate + flop and
    /// the TR write; plus the detection-line precharge (wire capacitance
    /// across all columns) each cycle; plus sub-threshold leakage of the
    /// ~10 gate-equivalents per column integrated over the conversion.
    #[must_use]
    pub fn digital_energy(&self) -> Joules {
        let n = self.adcs.len() as f64;
        let cycles = f64::from(self.bits());
        let per_column_cycle = 2.0 * self.tech.flop_energy.0 + 2.0 * self.tech.gate_energy.0;
        // Detection line: ~1 fF per column of wire + drain load.
        let dl = switched_capacitor_energy(Farads(1e-15 * n), self.tech.vdd).0;
        let leakage = n * 10.0 * self.tech.gate_leakage.0 * self.latency().0;
        Joules(n * cycles * per_column_cycle + cycles * dl + leakage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use spinamm_circuit::units::Volts;

    /// Nominal LSB of a WTA's converters.
    fn lsb(w: &SpinWta) -> f64 {
        w.adcs()[0].nominal_full_scale().0 / f64::from(1u32 << w.bits())
    }

    fn wta(cols: usize, bits: u32, seed: u64) -> SpinWta {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let adcs = (0..cols)
            .map(|_| {
                SpinSarAdc::build(
                    bits,
                    Amps(1e-6),
                    Volts(0.030),
                    spinamm_circuit::units::Seconds(10e-9),
                    &Tech45::DEFAULT,
                    &mut rng,
                )
                .unwrap()
            })
            .collect();
        SpinWta::new(adcs, Tech45::DEFAULT).unwrap()
    }

    #[test]
    fn construction_validation() {
        assert!(SpinWta::new(vec![], Tech45::DEFAULT).is_err());
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let a5 = SpinSarAdc::build(
            5,
            Amps(1e-6),
            Volts(0.030),
            spinamm_circuit::units::Seconds(10e-9),
            &Tech45::DEFAULT,
            &mut rng,
        )
        .unwrap();
        let a3 = SpinSarAdc::build(
            3,
            Amps(1e-6),
            Volts(0.030),
            spinamm_circuit::units::Seconds(10e-9),
            &Tech45::DEFAULT,
            &mut rng,
        )
        .unwrap();
        assert!(SpinWta::new(vec![a5, a3], Tech45::DEFAULT).is_err());
        let w = wta(4, 5, 2);
        assert_eq!(w.columns(), 4);
        assert_eq!(w.bits(), 5);
        assert_eq!(w.adcs().len(), 4);
    }

    #[test]
    fn clear_winner_is_tracked() {
        let w = wta(8, 5, 3);
        let l = lsb(&w);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut currents = vec![Amps(5.0 * l); 8];
        currents[3] = Amps(28.5 * l);
        let out = w.evaluate(&currents, &mut rng).unwrap();
        assert_eq!(out.winner, 3);
        assert_eq!(out.tracked_winner, Some(3));
        assert_eq!(out.tracked, vec![3]);
        assert!(out.dom >= 26, "dom {}", out.dom);
        assert_eq!(out.codes.len(), 8);
    }

    #[test]
    fn tracker_matches_scan_for_distinct_codes() {
        // For clearly separated inputs the hardware tracker and the scan
        // must agree.
        let w = wta(6, 5, 5);
        let l = lsb(&w);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let currents: Vec<Amps> = (0..6).map(|k| Amps((3.5 + 4.0 * k as f64) * l)).collect();
        let out = w.evaluate(&currents, &mut rng).unwrap();
        assert_eq!(out.winner, 5);
        assert_eq!(out.tracked_winner, Some(5));
    }

    #[test]
    fn ties_leave_multiple_tracked() {
        let w = wta(4, 5, 7);
        let l = lsb(&w);
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        // Two equal maxima well above the rest: tracker cannot single one
        // out; the scan tie-breaks to the lower index.
        let currents = vec![Amps(24.5 * l), Amps(3.0 * l), Amps(24.5 * l), Amps(3.0 * l)];
        let out = w.evaluate(&currents, &mut rng).unwrap();
        if out.codes[0] == out.codes[2] {
            assert_eq!(out.tracked_winner, None);
            assert!(out.tracked.contains(&0) && out.tracked.contains(&2));
            assert_eq!(out.winner, 0);
        } else {
            // DAC mismatch split the tie — then tracking resolved it.
            assert!(out.tracked_winner.is_some());
        }
    }

    #[test]
    fn argmax_breaks_ties_to_lowest_index() {
        assert_eq!(argmax_lowest_index::<u32>(&[]), None);
        assert_eq!(argmax_lowest_index(&[7u32]), Some(0));
        assert_eq!(argmax_lowest_index(&[1u32, 3, 2]), Some(1));
        // Ties at the max — every arrangement resolves to the first one.
        assert_eq!(argmax_lowest_index(&[5u32, 5, 5]), Some(0));
        assert_eq!(argmax_lowest_index(&[1u32, 9, 9, 4]), Some(1));
        assert_eq!(argmax_lowest_index(&[0u32, 4, 1, 4, 4]), Some(1));
        // Saturated codes (the over-range case) tie at full scale.
        assert_eq!(argmax_lowest_index(&[31u32, 31]), Some(0));
    }

    #[test]
    fn all_subscale_inputs_leave_no_tracked_winner() {
        // If every code has MSB = 0 the tracker never latches anything; the
        // scan still produces the argmax.
        let w = wta(4, 5, 9);
        let l = lsb(&w);
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let currents = vec![Amps(2.5 * l), Amps(5.5 * l), Amps(9.5 * l), Amps(7.5 * l)];
        let out = w.evaluate(&currents, &mut rng).unwrap();
        assert_eq!(out.tracked, Vec::<usize>::new());
        assert_eq!(out.tracked_winner, None);
        assert_eq!(out.winner, 2);
    }

    #[test]
    fn tracker_narrows_progressively() {
        // Three candidates over mid-scale; only the max survives narrowing.
        let w = wta(5, 5, 11);
        let l = lsb(&w);
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let currents = vec![
            Amps(17.5 * l),
            Amps(21.5 * l),
            Amps(29.5 * l),
            Amps(25.5 * l),
            Amps(2.5 * l),
        ];
        let out = w.evaluate(&currents, &mut rng).unwrap();
        assert_eq!(out.winner, 2);
        assert_eq!(out.tracked_winner, Some(2));
    }

    #[test]
    fn input_length_checked() {
        let w = wta(4, 5, 13);
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        assert!(matches!(
            w.evaluate(&[Amps(1e-6); 3], &mut rng),
            Err(CoreError::InputLengthMismatch { .. })
        ));
    }

    #[test]
    fn energy_accumulates_across_columns() {
        let w = wta(8, 5, 15);
        let mut rng = ChaCha8Rng::seed_from_u64(16);
        let out = w.evaluate(&[Amps(10e-6); 8], &mut rng).unwrap();
        assert!(out.energy.dwn_write.0 > 0.0);
        assert!(out.energy.latch_sense.0 > 0.0);
        assert!(out.energy.dac_static.0 > 0.0);
        assert!(out.energy.digital.0 > 0.0);
        // The tracker is digital-only: no static term originates here.
        assert_eq!(out.energy.rcm_static, Joules::ZERO);
    }

    #[test]
    fn digital_energy_scales_with_columns_and_bits() {
        let small = wta(10, 3, 17).digital_energy().0;
        let wide = wta(40, 3, 18).digital_energy().0;
        let deep = wta(10, 5, 19).digital_energy().0;
        assert!(wide > 3.0 * small);
        assert!((deep / small - 5.0 / 3.0).abs() < 0.35);
    }

    #[test]
    fn dom_reported_matches_winner_code() {
        let w = wta(6, 5, 20);
        let l = lsb(&w);
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let currents: Vec<Amps> = (0..6).map(|k| Amps((2.5 + 5.0 * k as f64) * l)).collect();
        let out = w.evaluate(&currents, &mut rng).unwrap();
        assert_eq!(out.dom, out.codes[out.winner]);
    }
}
