//! The behavioral domain-wall neuron (DWN): a hysteretic current comparator.
//!
//! This is the model the system-level simulations consume — the same
//! reduction the paper performs ("behavioral model based on statistical
//! characteristics of the device were used in SPICE simulation", Fig. 14).
//! The behavioural constants are *derived from* [`crate::dynamics`] rather
//! than asserted: [`NeuronConfig::from_dynamics`] extracts the threshold and
//! the closed-form viscous timing law
//! `t_switch(I) = L / (μ·(u(I) − u_c))` so that per-cycle evaluation costs
//! nanoseconds of CPU instead of an ODE integration.

use crate::dynamics::DwDynamics;
use crate::mtj::Polarity;
use crate::SpinError;
use spinamm_circuit::units::{Amps, Joules, Ohms, Seconds, Volts};
use spinamm_telemetry::{NoopRecorder, Recorder};

/// Static configuration of a behavioural DWN.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeuronConfig {
    /// Depinning threshold current magnitude.
    pub threshold: Amps,
    /// Free-domain length the wall traverses, metres.
    pub travel_length: f64,
    /// Viscous wall mobility β/α (dimensionless).
    pub mobility: f64,
    /// Spin-drift velocity per ampere of terminal current, (m/s)/A.
    pub drift_velocity_per_amp: f64,
    /// Magneto-metallic device resistance seen by the write current. The
    /// device is "magneto-metallic" and operates "at ultra low terminal
    /// voltages" — a few hundred ohms of metallic strip.
    pub device_resistance: Ohms,
}

impl NeuronConfig {
    /// Derives the behavioural constants from a dynamics model.
    #[must_use]
    pub fn from_dynamics(dynamics: &DwDynamics) -> Self {
        let u_per_j = dynamics.material.drift_velocity_per_current_density();
        let area = dynamics.geometry.cross_section();
        Self {
            threshold: dynamics.analytic_threshold(),
            travel_length: dynamics.geometry.length.to_meters(),
            mobility: dynamics.material.viscous_mobility(),
            drift_velocity_per_amp: u_per_j / area,
            device_resistance: Ohms(200.0),
        }
    }

    /// The paper's reference neuron (NiFe 3×20×60 nm³, I_c = 1 µA,
    /// Eb = 20 kT).
    #[must_use]
    pub fn paper() -> Self {
        Self::from_dynamics(&DwDynamics::paper_reference())
    }

    /// A copy with a different threshold (the Fig. 13a sweep scales the DWN
    /// threshold; physically this is device scaling per Fig. 5b).
    ///
    /// # Errors
    ///
    /// Returns [`SpinError::InvalidParameter`] if `threshold` is not finite
    /// and positive.
    pub fn with_threshold(self, threshold: Amps) -> Result<Self, SpinError> {
        if !(threshold.0.is_finite() && threshold.0 > 0.0) {
            return Err(SpinError::InvalidParameter {
                what: "threshold must be finite and positive",
            });
        }
        Ok(Self { threshold, ..self })
    }

    /// Deterministic wall-transit time under drive `current` (magnitude), or
    /// `None` at/below threshold: `t = L / (μ·u_per_A·(|I| − I_c))`.
    #[must_use]
    pub fn transit_time(&self, current: Amps) -> Option<Seconds> {
        let overdrive = current.0.abs() - self.threshold.0;
        if overdrive <= 0.0 {
            return None;
        }
        let v = self.mobility * self.drift_velocity_per_amp * overdrive;
        Some(Seconds(self.travel_length / v))
    }

    /// Ohmic energy dissipated in the device by a drive pulse:
    /// `I²·R·t_pulse`.
    #[must_use]
    pub fn write_energy(&self, current: Amps, pulse: Seconds) -> Joules {
        (current * self.device_resistance) * current * pulse
    }

    /// Terminal voltage across the device at a given drive — the paper's
    /// "ultra low terminal voltage" claim is that this stays in millivolts.
    #[must_use]
    pub fn terminal_voltage(&self, current: Amps) -> Volts {
        current * self.device_resistance
    }
}

/// One behavioural DWN instance: configuration plus polarity state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DomainWallNeuron {
    config: NeuronConfig,
    state: Polarity,
}

/// One point of a swept transfer characteristic (Fig. 7a).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferPoint {
    /// Input current at this sweep step.
    pub current: Amps,
    /// Device output after the step: `+1` (Up) or `−1` (Down).
    pub output: f64,
}

impl DomainWallNeuron {
    /// Creates a neuron in the `Down` state.
    #[must_use]
    pub fn new(config: NeuronConfig) -> Self {
        Self {
            config,
            state: Polarity::Down,
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &NeuronConfig {
        &self.config
    }

    /// Current polarity state.
    #[must_use]
    pub fn state(&self) -> Polarity {
        self.state
    }

    /// Forces the state (used by reset phases of the SAR cycle).
    pub fn set_state(&mut self, state: Polarity) {
        self.state = state;
    }

    /// Applies a current pulse deterministically (zero-temperature): the
    /// device switches toward the current's direction iff the magnitude
    /// exceeds the threshold *and* the wall completes its transit within
    /// the pulse. Positive current drives toward `Up`, negative toward
    /// `Down`; this sign convention makes the DWN "detect the polarity of
    /// the current flow at its input node".
    ///
    /// Returns the post-pulse state.
    pub fn apply(&mut self, current: Amps, pulse: Seconds) -> Polarity {
        self.apply_with(current, pulse, &NoopRecorder)
    }

    /// Like [`DomainWallNeuron::apply`], incrementing the
    /// `spin.dwn_switch_events` counter on `recorder` whenever the wall
    /// completes a transit (the state actually flips).
    pub fn apply_with<T: Recorder>(
        &mut self,
        current: Amps,
        pulse: Seconds,
        recorder: &T,
    ) -> Polarity {
        let toward = if current.0 > 0.0 {
            Polarity::Up
        } else {
            Polarity::Down
        };
        if toward != self.state {
            if let Some(t) = self.config.transit_time(Amps(current.0.abs())) {
                if t.0 <= pulse.0 {
                    self.state = toward;
                    recorder.counter("spin.dwn_switch_events", 1);
                }
            }
        }
        self.state
    }

    /// Sweeps the input current up then down (deterministically) and records
    /// the state after each step — the hysteretic transfer characteristic of
    /// Fig. 7a. `peak` sets the sweep amplitude and `points` the number of
    /// samples per leg; each step lasts `pulse`.
    #[must_use]
    pub fn transfer_curve(
        &mut self,
        peak: Amps,
        points: usize,
        pulse: Seconds,
    ) -> Vec<TransferPoint> {
        let mut out = Vec::with_capacity(2 * points);
        let n = points.max(2) as f64;
        // Up leg: −peak → +peak; down leg: +peak → −peak.
        for k in 0..points {
            let frac = -1.0 + 2.0 * k as f64 / (n - 1.0);
            let i = Amps(peak.0 * frac);
            let state = self.apply(i, pulse);
            out.push(TransferPoint {
                current: i,
                output: state.sign(),
            });
        }
        for k in 0..points {
            let frac = 1.0 - 2.0 * k as f64 / (n - 1.0);
            let i = Amps(peak.0 * frac);
            let state = self.apply(i, pulse);
            out.push(TransferPoint {
                current: i,
                output: state.sign(),
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PULSE: Seconds = Seconds(10e-9);

    #[test]
    fn paper_config_threshold() {
        let c = NeuronConfig::paper();
        assert!((c.threshold.0 - 1e-6).abs() / 1e-6 < 1e-6);
        assert!(c.travel_length > 0.0);
        assert!(c.mobility > 1.0);
    }

    #[test]
    fn transit_time_matches_dynamics_order() {
        // The behavioural timing law should agree with the ODE simulation to
        // within the transient error (tens of percent).
        let dynamics = DwDynamics::paper_reference();
        let c = NeuronConfig::from_dynamics(&dynamics);
        for i in [2e-6, 4e-6, 8e-6] {
            let behavioural = c.transit_time(Amps(i)).unwrap().0;
            let ode = dynamics.switching_time(Amps(i)).unwrap().0;
            let ratio = behavioural / ode;
            assert!(
                ratio > 0.4 && ratio < 2.5,
                "I = {i}: behavioural {behavioural} vs ODE {ode}"
            );
        }
    }

    #[test]
    fn no_transit_below_threshold() {
        let c = NeuronConfig::paper();
        assert!(c.transit_time(Amps(0.9e-6)).is_none());
        assert!(c.transit_time(Amps(1e-6)).is_none());
        assert!(c.transit_time(Amps(1.5e-6)).is_some());
    }

    #[test]
    fn comparator_detects_current_direction() {
        let mut n = DomainWallNeuron::new(NeuronConfig::paper());
        assert_eq!(n.state(), Polarity::Down);
        assert_eq!(n.apply(Amps(3e-6), PULSE), Polarity::Up);
        assert_eq!(n.apply(Amps(-3e-6), PULSE), Polarity::Down);
        assert_eq!(n.apply(Amps(3e-6), PULSE), Polarity::Up);
    }

    #[test]
    fn hysteresis_retains_state_for_small_inputs() {
        let mut n = DomainWallNeuron::new(NeuronConfig::paper());
        n.apply(Amps(3e-6), PULSE);
        assert_eq!(n.state(), Polarity::Up);
        // Sub-threshold negative current: state held (hysteresis).
        assert_eq!(n.apply(Amps(-0.5e-6), PULSE), Polarity::Up);
        // Sub-threshold positive: also held.
        assert_eq!(n.apply(Amps(0.5e-6), PULSE), Polarity::Up);
        // Above threshold flips.
        assert_eq!(n.apply(Amps(-2e-6), PULSE), Polarity::Down);
    }

    #[test]
    fn short_pulse_cannot_switch() {
        let mut n = DomainWallNeuron::new(NeuronConfig::paper());
        // 1.1 µA has a long transit; a 0.1 ns pulse is too short.
        assert_eq!(n.apply(Amps(1.1e-6), Seconds(0.1e-9)), Polarity::Down);
        // A long pulse succeeds.
        assert_eq!(n.apply(Amps(1.1e-6), Seconds(100e-9)), Polarity::Up);
    }

    #[test]
    fn transfer_curve_is_hysteretic() {
        let mut n = DomainWallNeuron::new(NeuronConfig::paper());
        let curve = n.transfer_curve(Amps(3e-6), 101, PULSE);
        assert_eq!(curve.len(), 202);
        // Output at zero current differs between the up and the down leg —
        // that is the hysteresis loop of Fig. 7a.
        let up_leg_at_zero = curve[..101]
            .iter()
            .min_by(|a, b| a.current.0.abs().total_cmp(&b.current.0.abs()))
            .unwrap()
            .output;
        let down_leg_at_zero = curve[101..]
            .iter()
            .min_by(|a, b| a.current.0.abs().total_cmp(&b.current.0.abs()))
            .unwrap()
            .output;
        assert!(up_leg_at_zero < 0.0, "rising leg still Down at 0");
        assert!(down_leg_at_zero > 0.0, "falling leg still Up at 0");
        // End points saturate.
        assert_eq!(curve[100].output, 1.0);
        assert_eq!(curve[201].output, -1.0);
    }

    #[test]
    fn terminal_voltage_is_millivolts() {
        let c = NeuronConfig::paper();
        // Even at the full 32 µA scale the terminal voltage stays below
        // 10 mV — the ultra-low-voltage claim.
        assert!(c.terminal_voltage(Amps(32e-6)).0 < 0.01);
    }

    #[test]
    fn write_energy_is_attojoules() {
        let c = NeuronConfig::paper();
        let e = c.write_energy(Amps(2e-6), PULSE);
        // (2 µA)² × 200 Ω × 10 ns = 8e-18 J.
        assert!((e.0 - 8e-18).abs() < 1e-21, "{}", e.0);
    }

    #[test]
    fn with_threshold_validates() {
        let c = NeuronConfig::paper();
        assert!(c.with_threshold(Amps(0.5e-6)).is_ok());
        assert!(c.with_threshold(Amps(0.0)).is_err());
        assert!(c.with_threshold(Amps(f64::NAN)).is_err());
    }

    #[test]
    fn set_state_forces() {
        let mut n = DomainWallNeuron::new(NeuronConfig::paper());
        n.set_state(Polarity::Up);
        assert_eq!(n.state(), Polarity::Up);
    }
}
