//! Thermal activation: Néel–Brown statistics of the free domain.
//!
//! The free domain's retention barrier is Eb = 20 kT (Table 2) — a
//! *computing-grade* barrier, deliberately much lower than the 40–60 kT of a
//! memory cell, because the paper's neurons are rewritten every cycle and
//! only need millisecond-scale stability. Thermal agitation then has two
//! observable effects that this module models:
//!
//! * **spontaneous flips** of an idle device at the Néel–Brown rate
//!   `f₀·exp(−Eb/kT)`, and
//! * **smearing of the switching threshold**: a drive slightly below the
//!   deterministic threshold can still switch within a pulse by thermal
//!   activation over the current-suppressed barrier
//!   `Eb·(1 − I/I_c)²` (the standard Koch/He–Zhu reduction), which rounds
//!   the hysteretic transfer characteristic of Fig. 7a.
//!
//! Both are closed-form probabilities, which the Fig. 7a study plots; the
//! behavioural neuron the system simulation runs switches deterministically
//! at its threshold.

use crate::SpinError;
use spinamm_circuit::units::{Amps, Hertz, Kelvin, Seconds};

/// Néel–Brown thermal activation model.
///
/// # Example
///
/// A 20 kT barrier holds for seconds — ample for a device rewritten every
/// 10 ns cycle:
///
/// ```
/// use spinamm_circuit::units::Seconds;
/// use spinamm_spin::thermal::ThermalModel;
///
/// let t = ThermalModel::PAPER;
/// assert!(t.retention_time().0 > 0.1);
/// assert!(t.idle_flip_probability(Seconds(10e-9)) < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalModel {
    /// Barrier height in units of kT at the operating temperature.
    pub barrier_kt: f64,
    /// Attempt frequency f₀ (canonically 1 GHz for nanomagnets).
    pub attempt_frequency: Hertz,
    /// Operating temperature.
    pub temperature: Kelvin,
}

impl ThermalModel {
    /// The paper's device: Eb = 20 kT, f₀ = 1 GHz, 300 K.
    pub const PAPER: ThermalModel = ThermalModel {
        barrier_kt: 20.0,
        attempt_frequency: Hertz(1e9),
        temperature: Kelvin(300.0),
    };

    /// Creates a model.
    ///
    /// # Errors
    ///
    /// Returns [`SpinError::InvalidParameter`] unless barrier, attempt
    /// frequency and temperature are finite and positive.
    pub fn new(
        barrier_kt: f64,
        attempt_frequency: Hertz,
        temperature: Kelvin,
    ) -> Result<Self, SpinError> {
        for (v, what) in [
            (barrier_kt, "barrier must be finite and positive"),
            (
                attempt_frequency.0,
                "attempt frequency must be finite and positive",
            ),
            (temperature.0, "temperature must be finite and positive"),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(SpinError::InvalidParameter { what });
            }
        }
        Ok(Self {
            barrier_kt,
            attempt_frequency,
            temperature,
        })
    }

    /// Spontaneous (zero-drive) flip rate, `f₀·exp(−Eb/kT)`.
    #[must_use]
    pub fn retention_rate(&self) -> Hertz {
        Hertz(self.attempt_frequency.0 * (-self.barrier_kt).exp())
    }

    /// Mean retention time, `1 / rate`.
    #[must_use]
    pub fn retention_time(&self) -> Seconds {
        Seconds(1.0 / self.retention_rate().0)
    }

    /// Probability that an idle device flips within `duration`.
    #[must_use]
    pub fn idle_flip_probability(&self, duration: Seconds) -> f64 {
        1.0 - (-self.retention_rate().0 * duration.0).exp()
    }

    /// Effective barrier under a drive of `current` against a deterministic
    /// threshold `i_c`, in kT: `Eb·(1 − I/I_c)²` for `0 ≤ I < I_c`, zero at
    /// and above threshold.
    ///
    /// Only the magnitude of the drive relative to the switching direction
    /// matters; callers pass magnitudes.
    #[must_use]
    pub fn suppressed_barrier_kt(&self, current: Amps, i_c: Amps) -> f64 {
        if i_c.0 <= 0.0 {
            return 0.0;
        }
        let x = (current.0 / i_c.0).max(0.0);
        if x >= 1.0 {
            0.0
        } else {
            self.barrier_kt * (1.0 - x) * (1.0 - x)
        }
    }

    /// Probability that a drive of magnitude `current` (toward switching)
    /// flips the device within `pulse`, including thermal activation:
    /// `1 − exp(−f₀·t·exp(−Eb(I)/kT))`.
    ///
    /// At `I ≥ I_c` this saturates to 1 (deterministic switching, assuming
    /// the pulse outlasts the wall transit — the behavioral neuron checks
    /// that separately).
    #[must_use]
    pub fn switching_probability(&self, current: Amps, i_c: Amps, pulse: Seconds) -> f64 {
        let eb = self.suppressed_barrier_kt(current, i_c);
        let rate = self.attempt_frequency.0 * (-eb).exp();
        1.0 - (-rate * pulse.0).exp()
    }
}

impl Default for ThermalModel {
    fn default() -> Self {
        Self::PAPER
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_retention_scale() {
        let t = ThermalModel::PAPER;
        // e^20 ≈ 4.85e8 → retention ≈ 0.49 s at f0 = 1 GHz: stable over any
        // 10 ns compute cycle, unstable over archival times — exactly the
        // computing/memory trade-off the paper describes.
        let tau = t.retention_time().0;
        assert!(tau > 0.1 && tau < 1.0, "retention {tau} s");
        let p_cycle = t.idle_flip_probability(Seconds(10e-9));
        assert!(p_cycle < 1e-6, "per-cycle flip prob {p_cycle}");
    }

    #[test]
    fn bigger_barrier_longer_retention() {
        let small = ThermalModel::new(20.0, Hertz(1e9), Kelvin(300.0)).unwrap();
        let big = ThermalModel::new(40.0, Hertz(1e9), Kelvin(300.0)).unwrap();
        assert!(big.retention_time().0 > 1e6 * small.retention_time().0);
    }

    #[test]
    fn suppressed_barrier_shape() {
        let t = ThermalModel::PAPER;
        let ic = Amps(1e-6);
        assert_eq!(t.suppressed_barrier_kt(Amps(0.0), ic), 20.0);
        assert!((t.suppressed_barrier_kt(Amps(0.5e-6), ic) - 5.0).abs() < 1e-12);
        assert_eq!(t.suppressed_barrier_kt(Amps(1e-6), ic), 0.0);
        assert_eq!(t.suppressed_barrier_kt(Amps(2e-6), ic), 0.0);
        // Degenerate threshold.
        assert_eq!(t.suppressed_barrier_kt(Amps(1e-6), Amps(0.0)), 0.0);
    }

    #[test]
    fn switching_probability_monotone_in_current() {
        let t = ThermalModel::PAPER;
        let ic = Amps(1e-6);
        let pulse = Seconds(10e-9);
        let mut last = -1.0;
        for k in 0..=10 {
            let i = Amps(1e-7 * f64::from(k));
            let p = t.switching_probability(i, ic, pulse);
            assert!(p >= last, "p must be monotone");
            last = p;
        }
        assert!((t.switching_probability(ic, ic, pulse) - 1.0).abs() < 1e-4);
    }

    #[test]
    fn threshold_smearing_width() {
        // The 10–90 % switching window at a 10 ns pulse must be a small
        // fraction of I_c for Eb = 20 kT (sharp comparator) but non-zero
        // (rounding of Fig. 7a).
        let t = ThermalModel::PAPER;
        let ic = Amps(1e-6);
        let pulse = Seconds(10e-9);
        let p_at = |frac: f64| t.switching_probability(Amps(ic.0 * frac), ic, pulse);
        let mut i10 = 0.0;
        let mut i90 = 0.0;
        for k in 0..1000 {
            let f = f64::from(k) / 1000.0;
            if i10 == 0.0 && p_at(f) > 0.1 {
                i10 = f;
            }
            if i90 == 0.0 && p_at(f) > 0.9 {
                i90 = f;
            }
        }
        let width = i90 - i10;
        assert!(width > 0.0 && width < 0.25, "smearing width {width} of I_c");
    }

    #[test]
    fn validation() {
        assert!(ThermalModel::new(0.0, Hertz(1e9), Kelvin(300.0)).is_err());
        assert!(ThermalModel::new(20.0, Hertz(0.0), Kelvin(300.0)).is_err());
        assert!(ThermalModel::new(20.0, Hertz(1e9), Kelvin(-1.0)).is_err());
        assert!(ThermalModel::new(f64::NAN, Hertz(1e9), Kelvin(300.0)).is_err());
        assert_eq!(ThermalModel::default(), ThermalModel::PAPER);
    }
}
