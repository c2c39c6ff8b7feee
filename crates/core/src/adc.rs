//! The spin SAR ADC: DWN comparator + DTCS DAC + dynamic latch (paper
//! Fig. 11).
//!
//! Each RCM column terminates in one of these converters. The column
//! current flows into the DWN input node (clamped at the supply `V`); the
//! column's SAR-driven DTCS DAC sinks the trial current toward `V − ΔV`.
//! The *net* current through the DWN therefore carries the sign of
//! `I_column − I_DAC(code)`, and the wall polarity after the write pulse is
//! the comparator decision, read out by the dynamic latch.
//!
//! The DWN threshold is the comparator's dead zone: the paper sizes the
//! full-scale current as `2^bits × I_threshold` so the dead zone is exactly
//! one LSB. This module applies the same rule to the *effective* threshold
//! (depinning current plus the finite-transit overdrive, see
//! [`SpinSarAdc::effective_threshold`]), so the LSB always equals the real
//! dead zone.

use crate::sar::SarRegister;
use crate::CoreError;
use rand::Rng;
use spinamm_circuit::units::{Amps, Joules, Seconds, Volts};
use spinamm_cmos::{DacInstance, DtcsDac, Tech45};
use spinamm_spin::{DomainWallNeuron, DynamicLatch, NeuronConfig, Polarity};
use spinamm_telemetry::{NoopRecorder, Recorder};

/// One column's converter.
#[derive(Debug, Clone, PartialEq)]
pub struct SpinSarAdc {
    /// The (mismatch-sampled) SAR DAC of this column.
    pub dac: DacInstance,
    /// The DWN comparator's behavioural configuration.
    pub neuron: NeuronConfig,
    /// The sense latch.
    pub latch: DynamicLatch,
    /// One SAR cycle (write pulse + latch evaluation).
    pub clock_period: Seconds,
}

/// The result of one conversion, with per-cycle detail for the parallel
/// winner tracker and energy accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct AdcConversion {
    /// Final digitized code (the degree of match).
    pub code: u32,
    /// The SAR code after each cycle (length = bits); the winner tracker
    /// consumes these as they resolve.
    pub code_trajectory: Vec<u32>,
    /// Ohmic energy dissipated in the DWN across all write pulses.
    pub dwn_energy: Joules,
    /// Latch sense energy across all cycles.
    pub latch_energy: Joules,
    /// Static energy burned in the SAR DAC branch (current sunk across
    /// `2ΔV`) integrated over the conversion.
    pub dac_energy: Joules,
}

impl SpinSarAdc {
    /// Fraction of the clock period used as the DWN write pulse (the
    /// dynamic latch evaluates in the remaining sliver).
    pub const PULSE_FRACTION: f64 = 0.9;

    /// Builds a column converter for a given resolution and DWN threshold,
    /// sampling DAC mismatch from `rng`, for a SAR cycle of `clock_period`.
    ///
    /// The DAC LSB equals the comparator's *effective* dead zone — the
    /// depinning threshold plus the overdrive needed to finish the wall
    /// transit within the write pulse (the paper's "LSB = threshold" rule,
    /// applied to the real, finite-pulse comparator). The full scale is
    /// `2^bits` LSBs at a rail of ΔV.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Cmos`] for an invalid DAC design or
    /// [`CoreError::Spin`] for an invalid threshold.
    pub fn build<R: Rng + ?Sized>(
        bits: u32,
        threshold: Amps,
        delta_v: Volts,
        clock_period: Seconds,
        tech: &Tech45,
        rng: &mut R,
    ) -> Result<Self, CoreError> {
        let neuron = NeuronConfig::paper().with_threshold(threshold)?;
        let pulse = Seconds(clock_period.0 * Self::PULSE_FRACTION);
        let lsb = Self::effective_threshold(&neuron, pulse);
        // `DtcsDac::design` defines full scale at the top code (2^bits − 1
        // units), so request exactly that many LSBs to make DAC(c) = c·LSB.
        let full_scale = Amps(lsb.0 * f64::from((1u32 << bits) - 1));
        let dac = DtcsDac::design(bits, full_scale, delta_v, tech)?.sample(rng);
        Ok(Self {
            dac,
            neuron,
            latch: DynamicLatch::PAPER,
            clock_period,
        })
    }

    /// The comparator's effective dead-zone current for a given write
    /// pulse: the depinning threshold plus the overdrive at which the wall
    /// transit exactly fills the pulse,
    /// `I_eff = I_th + L/(t_pulse·μ·(u/I))`.
    #[must_use]
    pub fn effective_threshold(neuron: &NeuronConfig, pulse: Seconds) -> Amps {
        let transit_overdrive =
            neuron.travel_length / (pulse.0 * neuron.mobility * neuron.drift_velocity_per_amp);
        Amps(neuron.threshold.0 + transit_overdrive)
    }

    /// Resolution in bits.
    #[must_use]
    pub fn bits(&self) -> u32 {
        self.dac.bits()
    }

    /// Converts one column current.
    ///
    /// Each cycle: the DAC sinks the trial current, the net current writes
    /// the DWN (reset to `Down` beforehand), and the latch reads the MTJ;
    /// the decision updates the SAR.
    ///
    /// The input is saturated to `[0, saturation_ceiling]` before the SAR
    /// loop: the DWN input node is clamped at the supply, so a column
    /// current beyond DAC full scale converts to the top code with a
    /// *bounded* net current instead of overshooting the write-energy
    /// integral (see [`SpinSarAdc::saturation_ceiling`]).
    ///
    /// The conversion is deterministic: the comparator switches at its
    /// effective threshold and the latch reads the wall state exactly, so
    /// `_rng` draws nothing.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for a non-finite input
    /// current, or [`CoreError::Cmos`] if a DAC code lookup fails (cannot
    /// happen for codes produced by the SAR).
    pub fn convert<R: Rng + ?Sized>(
        &self,
        input: Amps,
        _rng: &mut R,
    ) -> Result<AdcConversion, CoreError> {
        self.convert_with(input, &NoopRecorder)
    }

    /// Like [`SpinSarAdc::convert`], recording device-event telemetry on
    /// `recorder`: `adc.sar_cycles` per SAR bit cycle, plus the
    /// `spin.dwn_switch_events` and `spin.latch_fires` counters from the
    /// underlying devices.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SpinSarAdc::convert`].
    pub fn convert_with<T: Recorder>(
        &self,
        input: Amps,
        recorder: &T,
    ) -> Result<AdcConversion, CoreError> {
        if !input.0.is_finite() {
            // A NaN column current would silently convert to code 0 (every
            // comparison reads as "low") and an infinite one would integrate
            // unbounded write energy; neither is a meaningful conversion.
            return Err(CoreError::InvalidParameter {
                what: "ADC input current must be finite",
            });
        }
        let input = Amps(input.0.clamp(0.0, self.saturation_ceiling()?.0));
        let bits = self.bits();
        let mut sar = SarRegister::new(bits);
        let mut trajectory = Vec::with_capacity(bits as usize);
        let mut dwn_energy = Joules::ZERO;
        let mut latch_energy = Joules::ZERO;
        let mut dac_energy = Joules::ZERO;
        // The write pulse occupies most of the cycle (the dynamic latch
        // evaluates in a sub-ns transient at the end). A long pulse matters:
        // wall transit slows as the net current approaches the threshold,
        // so the pulse width sets the comparator's effective dead zone.
        let pulse = Seconds(self.clock_period.0 * Self::PULSE_FRACTION);

        let mut neuron = DomainWallNeuron::new(self.neuron);
        while !sar.is_done() {
            recorder.counter("adc.sar_cycles", 1);
            let trial = sar.code();
            let i_dac = self.dac.clamped_current(trial)?;
            let net = Amps(input.0 - i_dac.0);

            // Reset and write the comparator.
            neuron.set_state(Polarity::Down);
            let state = neuron.apply_with(net, pulse, recorder);
            dwn_energy += self.neuron.write_energy(net, pulse);

            // Latch read.
            recorder.counter("spin.latch_fires", 1);
            latch_energy += self.latch.sense_energy();

            // DAC static dissipation: trial current across 2ΔV for one
            // cycle (paper: "the component of RCM output current sunk by
            // the DTCS in the ADC's flows across a DC level of 2ΔV").
            dac_energy += Joules(i_dac.0 * 2.0 * self.dac.supply().0 * self.clock_period.0);

            sar.step(state == Polarity::Up);
            trajectory.push(sar.code());
        }

        Ok(AdcConversion {
            code: sar.code(),
            code_trajectory: trajectory,
            dwn_energy,
            latch_energy,
            dac_energy,
        })
    }

    /// The conversion latency, `bits × clock`.
    #[must_use]
    pub fn conversion_time(&self) -> Seconds {
        Seconds(self.clock_period.0 * f64::from(self.bits()))
    }

    /// The ADC's LSB current of this (mismatch-sampled) instance.
    ///
    /// # Errors
    ///
    /// Never fails in practice; propagates a DAC code error.
    pub fn lsb_current(&self) -> Result<Amps, CoreError> {
        Ok(self.dac.clamped_current(1)?)
    }

    /// The nominal (design, mismatch-free) full-scale input current:
    /// `2^bits × I_eff`.
    #[must_use]
    pub fn nominal_full_scale(&self) -> Amps {
        let pulse = Seconds(self.clock_period.0 * Self::PULSE_FRACTION);
        let lsb = Self::effective_threshold(&self.neuron, pulse);
        Amps(lsb.0 * f64::from(1u32 << self.bits()))
    }

    /// The input current at which the converter saturates: the larger of
    /// the nominal full scale and this instance's sampled top-code DAC
    /// current plus two effective dead zones. Any input at or above this
    /// value converts to the all-ones code — the margin above the sampled
    /// top code keeps the final comparison's net current strictly inside
    /// the switching region (one dead zone would sit exactly on the
    /// transit-equals-pulse boundary, where rounding could drop the LSB)
    /// even when DAC mismatch pushes the top code past the nominal full
    /// scale.
    ///
    /// # Errors
    ///
    /// Never fails in practice; propagates a DAC code error.
    pub fn saturation_ceiling(&self) -> Result<Amps, CoreError> {
        let pulse = Seconds(self.clock_period.0 * Self::PULSE_FRACTION);
        let top = self.dac.clamped_current((1u32 << self.bits()) - 1)?;
        let eff = Self::effective_threshold(&self.neuron, pulse);
        Ok(Amps(self.nominal_full_scale().0.max(top.0 + 2.0 * eff.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    const CLOCK: Seconds = Seconds(10e-9);

    fn adc(bits: u32, seed: u64) -> SpinSarAdc {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        SpinSarAdc::build(
            bits,
            Amps(1e-6),
            Volts(0.030),
            CLOCK,
            &Tech45::DEFAULT,
            &mut rng,
        )
        .unwrap()
    }

    /// The nominal LSB (mismatch-free effective threshold).
    fn lsb(a: &SpinSarAdc) -> f64 {
        a.nominal_full_scale().0 / f64::from(1u32 << a.bits())
    }

    #[test]
    fn full_scale_sizing() {
        let a = adc(5, 1);
        assert_eq!(a.bits(), 5);
        // Effective LSB = bare threshold (1 µA) + transit overdrive.
        let l = lsb(&a);
        assert!(l > 1e-6 && l < 1.6e-6, "LSB {l}");
        // The sampled DAC LSB sits within mismatch of the nominal.
        let sampled = a.lsb_current().unwrap().0;
        assert!((sampled - l).abs() / l < 0.05, "sampled {sampled} vs {l}");
        assert!((a.conversion_time().0 - 50e-9).abs() < 1e-15);
    }

    #[test]
    fn converts_mid_scale_codes() {
        let a = adc(5, 1);
        let l = lsb(&a);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for target in [3u32, 9, 16, 25, 30] {
            let input = Amps((f64::from(target) + 0.5) * l);
            let out = a.convert(input, &mut rng).unwrap();
            let err = i64::from(out.code) - i64::from(target);
            assert!(
                err.abs() <= 1,
                "target {target} got {} (dead zone + mismatch allow ±1)",
                out.code
            );
        }
    }

    #[test]
    fn zero_and_overrange_inputs() {
        let a = adc(5, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        assert_eq!(a.convert(Amps(0.0), &mut rng).unwrap().code, 0);
        assert_eq!(a.convert(Amps(200e-6), &mut rng).unwrap().code, 31);
    }

    #[test]
    fn overrange_saturates_without_overshoot() {
        let a = adc(5, 1);
        let ceiling = a.saturation_ceiling().unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let at_ceiling = a.convert(ceiling, &mut rng).unwrap();
        assert_eq!(at_ceiling.code, 31, "ceiling input converts to top code");
        // Any over-range input — even an absurd one — converts to the same
        // top code with the same bounded write energy as the ceiling
        // itself: the input node clamps, it does not overshoot.
        for factor in [1.5, 100.0, 1e9] {
            let out = a.convert(Amps(ceiling.0 * factor), &mut rng).unwrap();
            assert_eq!(out.code, 31, "x{factor} over-range must saturate");
            assert!(
                (out.dwn_energy.0 - at_ceiling.dwn_energy.0).abs() < 1e-30,
                "x{factor}: write energy {} vs {} at the ceiling",
                out.dwn_energy.0,
                at_ceiling.dwn_energy.0
            );
            assert!(out.dwn_energy.0.is_finite() && out.dwn_energy.0 < 1e-12);
        }
        // Negative currents clamp at zero drive rather than converting the
        // magnitude.
        assert_eq!(a.convert(Amps(-5e-6), &mut rng).unwrap().code, 0);
    }

    #[test]
    fn non_finite_input_is_rejected() {
        let a = adc(5, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                a.convert(Amps(bad), &mut rng).is_err(),
                "input {bad} must be rejected"
            );
        }
    }

    #[test]
    fn dead_zone_is_one_lsb() {
        // Inputs a fraction of an LSB above a code resolve to that code or
        // its neighbour, never further: the effective dead zone equals the
        // LSB by construction.
        let a = adc(5, 1);
        let l = lsb(&a);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        for k in 1..31u32 {
            let input = Amps((f64::from(k) + 0.4) * l);
            let out = a.convert(input, &mut rng).unwrap();
            assert!(
                out.code + 1 >= k && out.code <= k + 1,
                "input {k}+0.4 LSB: code {}",
                out.code
            );
        }
    }

    #[test]
    fn trajectory_has_one_entry_per_cycle() {
        let a = adc(5, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let out = a.convert(Amps(20e-6), &mut rng).unwrap();
        assert_eq!(out.code_trajectory.len(), 5);
        assert_eq!(*out.code_trajectory.last().unwrap(), out.code);
    }

    #[test]
    fn energies_are_positive_and_tiny() {
        let a = adc(5, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let out = a.convert(Amps(20e-6), &mut rng).unwrap();
        assert!(out.dwn_energy.0 > 0.0);
        assert!(out.latch_energy.0 > 0.0);
        assert!(out.dac_energy.0 > 0.0);
        // All device energies stay femtojoule-class per conversion — the
        // ultra-low-energy claim at the component level.
        assert!(out.dwn_energy.0 < 1e-14, "DWN {}", out.dwn_energy.0);
        assert!(out.latch_energy.0 < 1e-13, "latch {}", out.latch_energy.0);
    }

    #[test]
    fn dac_energy_scales_with_code() {
        let a = adc(5, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let low = a.convert(Amps(2e-6), &mut rng).unwrap();
        let high = a.convert(Amps(40e-6), &mut rng).unwrap();
        // Larger codes keep more DAC branches on for more cycles.
        assert!(high.dac_energy.0 > low.dac_energy.0);
    }

    #[test]
    fn monotonicity_over_full_range() {
        let a = adc(5, 1);
        let l = lsb(&a);
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let mut last = 0;
        for k in 0..64 {
            let input = Amps(f64::from(k) * 0.5 * l);
            let code = a.convert(input, &mut rng).unwrap().code;
            assert!(code + 1 >= last, "non-monotonic: code {code} after {last}");
            last = code;
        }
    }

    #[test]
    fn three_bit_variant() {
        let a = adc(3, 10);
        let l = lsb(&a);
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        assert_eq!(a.bits(), 3);
        let out = a.convert(Amps(5.5 * l), &mut rng).unwrap();
        assert!((4..=6).contains(&out.code), "code {}", out.code);
    }

    #[test]
    fn effective_threshold_shrinks_with_longer_pulse() {
        let neuron = spinamm_spin::NeuronConfig::paper();
        let short = SpinSarAdc::effective_threshold(&neuron, Seconds(2e-9));
        let long = SpinSarAdc::effective_threshold(&neuron, Seconds(20e-9));
        assert!(short.0 > long.0);
        assert!(
            long.0 > neuron.threshold.0,
            "always above the bare threshold"
        );
    }
}
