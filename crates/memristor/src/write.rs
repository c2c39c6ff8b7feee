//! Multi-level program-and-verify write model.
//!
//! Fine-resolution memristor programming (Shin \[1\], Berdan \[2\]) works by
//! iterating short write pulses and verify reads until the observed
//! conductance falls inside a tolerance band around the target. The paper
//! adopts 3 % tolerance (≈5 bits over the full window) and notes that "the
//! energy-cost of the write operations may increase significantly for higher
//! precision requirements". [`WriteScheme`] models both effects: the residual
//! programming error left inside the tolerance band, and the pulse count
//! (hence energy) needed to get there.

use crate::device::Memristor;
use crate::MemristorError;
use rand::Rng;
use rand_distr::{Distribution, Normal};
use spinamm_circuit::units::{Joules, Siemens};
use spinamm_telemetry::Recorder;

/// Program-and-verify write configuration.
///
/// # Example
///
/// ```
/// use spinamm_memristor::WriteScheme;
///
/// let paper = WriteScheme::paper();
/// assert!((paper.tolerance - 0.03).abs() < 1e-12);
/// // Per the paper, 3 % ≈ 5-bit equivalent precision:
/// assert_eq!(paper.equivalent_bits(), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriteScheme {
    /// Relative tolerance band of the verify loop — writes stop once the
    /// conductance is within `±tolerance` of the target. The paper uses 0.03
    /// (3 %, ≈5 bits); references \[1-2\] demonstrate down to 0.003 (0.3 %,
    /// ≈8 bits).
    pub tolerance: f64,
    /// Relative step-size noise of one write pulse: each pulse moves the
    /// state toward the target but overshoots/undershoots with this relative
    /// standard deviation.
    pub pulse_sigma: f64,
    /// Energy of a single write pulse.
    pub pulse_energy: Joules,
}

/// Outcome of one program-and-verify operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriteReport {
    /// Number of write pulses applied.
    pub pulses: u32,
    /// Number of verify reads the loop took.
    pub verify_checks: u64,
    /// Total write energy (`pulses × pulse_energy`).
    pub energy: Joules,
    /// Relative error of the final state with respect to the target.
    pub relative_error: f64,
}

impl WriteReport {
    /// Reports this write on `recorder`: `memristor.write_pulses` by its
    /// pulses and `memristor.verify_checks` by its verify reads.
    pub fn record<T: Recorder>(&self, recorder: &T) {
        recorder.counter("memristor.write_pulses", u64::from(self.pulses));
        recorder.counter("memristor.verify_checks", self.verify_checks);
    }
}

impl WriteScheme {
    /// Typical single-pulse write energy for nano-scale Ag-Si cells, ~1 pJ.
    /// Absolute write energy does not enter any of the paper's comparisons
    /// (templates are programmed once, then read millions of times), so a
    /// representative literature value suffices.
    pub const DEFAULT_PULSE_ENERGY: Joules = Joules(1e-12);

    /// The paper's scheme: 3 % tolerance (5-bit equivalent).
    #[must_use]
    pub fn paper() -> Self {
        Self::new(0.03).expect("paper constants are valid")
    }

    /// The high-precision scheme of refs \[1-2\]: 0.3 % tolerance (8-bit).
    #[must_use]
    pub fn high_precision() -> Self {
        Self::new(0.003).expect("reference constants are valid")
    }

    /// Creates a scheme with the given tolerance and default pulse model.
    ///
    /// The default pulse-step noise (25 % relative) makes individual pulses
    /// overshoot as often as they undershoot, so the residual error of a
    /// completed write is spread across *both* sides of the tolerance band.
    ///
    /// # Errors
    ///
    /// Returns [`MemristorError::InvalidParameter`] unless
    /// `0 < tolerance < 1`.
    pub fn new(tolerance: f64) -> Result<Self, MemristorError> {
        Self::with_pulse_model(tolerance, 0.25, Self::DEFAULT_PULSE_ENERGY)
    }

    /// Creates a scheme with an explicit pulse model.
    ///
    /// # Errors
    ///
    /// Returns [`MemristorError::InvalidParameter`] unless
    /// `0 < tolerance < 1`, `pulse_sigma` is finite and non-negative, and
    /// `pulse_energy` is finite and positive.
    pub fn with_pulse_model(
        tolerance: f64,
        pulse_sigma: f64,
        pulse_energy: Joules,
    ) -> Result<Self, MemristorError> {
        if !(tolerance.is_finite() && tolerance > 0.0 && tolerance < 1.0) {
            return Err(MemristorError::InvalidParameter {
                what: "write tolerance must lie in (0, 1)",
            });
        }
        if !(pulse_sigma.is_finite() && pulse_sigma >= 0.0) {
            return Err(MemristorError::InvalidParameter {
                what: "pulse sigma must be finite and non-negative",
            });
        }
        if !(pulse_energy.0.is_finite() && pulse_energy.0 > 0.0) {
            return Err(MemristorError::InvalidParameter {
                what: "pulse energy must be finite and positive",
            });
        }
        Ok(Self {
            tolerance,
            pulse_sigma,
            pulse_energy,
        })
    }

    /// Equivalent bit precision over the full conductance window,
    /// `floor(log2(1 / tolerance))` — 3 % accuracy distinguishes ~33 levels,
    /// matching the paper's "3 % write accuracy (equivalent to 5-bits)" and
    /// "precision up to 0.3 % (equivalent to 8-bits)".
    #[must_use]
    pub fn equivalent_bits(&self) -> u32 {
        (1.0 / self.tolerance).log2().floor().max(0.0) as u32
    }

    /// Expected pulse count to program a full-range transition — a proxy for
    /// the paper's observation that write energy grows with precision. Each
    /// verify step cuts the residual error by roughly half (binary-search
    /// style tuning per \[2\]), so pulses ≈ `log2(1 / tolerance)` plus a
    /// constant.
    #[must_use]
    pub fn expected_pulses(&self) -> u32 {
        ((1.0 / self.tolerance).log2().ceil() as u32).max(1)
    }
}

/// Escalation policy for [`Memristor::program_with_retry`].
///
/// When a program-and-verify attempt ends out of band (a stuck or sluggish
/// cell), the writer retries with a stronger pulse amplitude: attempt `k`
/// (0-based) uses amplitude `1 + k · amplitude_step`. The total pulse count
/// across all attempts never exceeds `pulse_budget`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum program-and-verify attempts (first try included).
    pub max_attempts: u32,
    /// Amplitude increment per retry (relative; 0.5 ⇒ 1.0×, 1.5×, 2.0×…).
    pub amplitude_step: f64,
    /// Hard cap on total pulses across every attempt.
    pub pulse_budget: u32,
}

impl RetryPolicy {
    /// Creates a policy.
    ///
    /// # Errors
    ///
    /// Returns [`MemristorError::InvalidParameter`] unless
    /// `max_attempts ≥ 1`, `amplitude_step` is finite and non-negative, and
    /// `pulse_budget ≥ 1`.
    pub fn new(
        max_attempts: u32,
        amplitude_step: f64,
        pulse_budget: u32,
    ) -> Result<Self, MemristorError> {
        if max_attempts == 0 {
            return Err(MemristorError::InvalidParameter {
                what: "retry policy needs at least one attempt",
            });
        }
        if !(amplitude_step.is_finite() && amplitude_step >= 0.0) {
            return Err(MemristorError::InvalidParameter {
                what: "amplitude step must be finite and non-negative",
            });
        }
        if pulse_budget == 0 {
            return Err(MemristorError::InvalidParameter {
                what: "pulse budget must be positive",
            });
        }
        Ok(Self {
            max_attempts,
            amplitude_step,
            pulse_budget,
        })
    }
}

impl Default for RetryPolicy {
    /// Three attempts escalating 1.0× → 1.5× → 2.0×, with a pulse budget of
    /// three nominal write caps.
    fn default() -> Self {
        Self {
            max_attempts: 3,
            amplitude_step: 0.5,
            pulse_budget: 3 * (4 * WriteScheme::paper().expected_pulses() + 16),
        }
    }
}

/// Outcome of a retry-with-backoff programming operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryReport {
    /// Attempts actually executed (≥ 1).
    pub attempts: u32,
    /// Total pulses across every attempt (≤ the policy's budget).
    pub pulses: u32,
    /// Verify reads across every attempt.
    pub verify_checks: u64,
    /// Total write energy (escalated pulses cost `amplitude²` each).
    pub energy: Joules,
    /// Relative error of the final verify read with respect to the target.
    pub relative_error: f64,
    /// `true` when the final state verified inside the tolerance band;
    /// `false` marks the cell unrecoverable (e.g. a stuck-at defect).
    pub recovered: bool,
}

impl Memristor {
    /// Programs the cell to `target` using `scheme`'s program-and-verify
    /// loop.
    ///
    /// The loop halves the residual error each pulse (with multiplicative
    /// pulse noise) until the state is inside the tolerance band; the final
    /// state therefore carries a residual error uniformly-ish distributed in
    /// the band, which is exactly the "memristor variation" the paper's
    /// system simulations include.
    ///
    /// # Errors
    ///
    /// Returns [`MemristorError::ConductanceOutOfRange`] if `target` is
    /// outside the programmable window.
    pub fn program<R: Rng + ?Sized>(
        &mut self,
        target: Siemens,
        scheme: &WriteScheme,
        rng: &mut R,
    ) -> Result<WriteReport, MemristorError> {
        self.check_target(target)?;
        // Cap pulse count: tolerance ∈ (0,1) means ≤ ~60 ideal halvings; noise
        // can add a few more. A hard cap keeps the loop total.
        let cap = nominal_cap(scheme);
        Ok(self.program_impl(target, scheme, 1.0, cap, rng))
    }

    /// Like [`Memristor::program`], recording device-event telemetry on
    /// `recorder`: `memristor.write_pulses` counts every pulse applied and
    /// `memristor.verify_checks` every verify read of the loop.
    ///
    /// # Errors
    ///
    /// Returns [`MemristorError::ConductanceOutOfRange`] if `target` is
    /// outside the programmable window.
    pub fn program_with<R: Rng + ?Sized, T: Recorder>(
        &mut self,
        target: Siemens,
        scheme: &WriteScheme,
        rng: &mut R,
        recorder: &T,
    ) -> Result<WriteReport, MemristorError> {
        let report = self.program(target, scheme, rng)?;
        report.record(recorder);
        Ok(report)
    }

    /// Programs the cell with amplitude escalation on failure: each verify
    /// miss retries the whole program-and-verify loop at a stronger pulse
    /// amplitude per `policy`, within a hard total pulse budget.
    ///
    /// The call records nothing. The [`RetryReport`] holds every total a
    /// writer reports: pulses, verify reads, attempts (those beyond the
    /// first are retries) and whether the cell ever verified in band — a
    /// cell that never does is the signature of a stuck-at defect.
    ///
    /// # Errors
    ///
    /// Returns [`MemristorError::ConductanceOutOfRange`] if `target` is
    /// outside the programmable window.
    pub fn program_with_retry<R: Rng + ?Sized>(
        &mut self,
        target: Siemens,
        scheme: &WriteScheme,
        policy: &RetryPolicy,
        rng: &mut R,
    ) -> Result<RetryReport, MemristorError> {
        self.check_target(target)?;
        let mut attempts = 0u32;
        let mut pulses = 0u32;
        let mut verify_checks = 0u64;
        let mut energy = Joules::ZERO;
        let mut relative_error = (self.conductance().0 - target.0) / target.0;
        let mut recovered = relative_error.abs() <= scheme.tolerance;
        for k in 0..policy.max_attempts {
            if recovered || pulses >= policy.pulse_budget {
                break;
            }
            attempts += 1;
            let amplitude = 1.0 + f64::from(k) * policy.amplitude_step;
            // Each attempt gets at most the remaining budget, so the total
            // can never exceed `policy.pulse_budget`.
            let cap = nominal_cap(scheme).min(policy.pulse_budget - pulses);
            let report = self.program_impl(target, scheme, amplitude, cap, rng);
            pulses += report.pulses;
            verify_checks += report.verify_checks;
            energy = Joules(energy.0 + report.energy.0);
            relative_error = report.relative_error;
            recovered = relative_error.abs() <= scheme.tolerance;
        }
        Ok(RetryReport {
            attempts,
            pulses,
            verify_checks,
            energy,
            relative_error,
            recovered,
        })
    }

    fn check_target(&self, target: Siemens) -> Result<(), MemristorError> {
        if self.limits().contains(target) {
            Ok(())
        } else {
            Err(MemristorError::ConductanceOutOfRange {
                requested: target.0,
                min: self.limits().g_min().0,
                max: self.limits().g_max().0,
            })
        }
    }

    /// One program-and-verify pass at a given pulse `amplitude` (1.0 =
    /// nominal). Stronger pulses take proportionally larger steps and cost
    /// `amplitude²` energy each (I²R scaling); verify reads always observe
    /// the cell's effective conductance, so a pinned (stuck-at) cell never
    /// verifies in band and exhausts `cap`.
    fn program_impl<R: Rng + ?Sized>(
        &mut self,
        target: Siemens,
        scheme: &WriteScheme,
        amplitude: f64,
        cap: u32,
        rng: &mut R,
    ) -> WriteReport {
        let noise = Normal::new(0.0, scheme.pulse_sigma.max(f64::MIN_POSITIVE))
            .expect("sigma validated at construction");
        let mut pulses = 0u32;
        let mut verifies = 0u64;

        // Coarse phase: halve the residual until within twice the band.
        while pulses < cap {
            verifies += 1;
            let err = (self.conductance().0 - target.0) / target.0;
            if err.abs() <= 2.0 * scheme.tolerance {
                break;
            }
            let step = 0.5 * amplitude * (target.0 - self.conductance().0);
            let jitter = if scheme.pulse_sigma > 0.0 {
                1.0 + noise.sample(rng)
            } else {
                1.0
            };
            self.force_conductance(Siemens(self.conductance().0 + step * jitter));
            pulses += 1;
        }

        // Fine phase: a trim pulse whose landing point scatters symmetrically
        // inside the band (truncated Gaussian, σ = tolerance / 2). This is
        // the behavioural signature of verify-terminated tuning: once the
        // verify read sees the state in-band the loop stops, and reported
        // residuals in fine-tuning experiments [1-2] spread across the whole
        // band rather than hugging one edge.
        verifies += 1;
        let err = (self.conductance().0 - target.0) / target.0;
        if err.abs() > scheme.tolerance && pulses < cap {
            let trim = Normal::new(0.0, scheme.tolerance / 2.0)
                .expect("tolerance validated at construction");
            // Clamp strictly inside the band so round-off cannot push the
            // final relative error infinitesimally past the tolerance.
            let bound = scheme.tolerance * 0.999;
            let u = trim.sample(rng).clamp(-bound, bound);
            self.force_conductance(Siemens(target.0 * (1.0 + u)));
            pulses += 1;
        }

        let relative_error = (self.conductance().0 - target.0) / target.0;
        WriteReport {
            pulses,
            verify_checks: verifies,
            energy: scheme.pulse_energy * (f64::from(pulses) * amplitude * amplitude),
            relative_error,
        }
    }
}

/// Per-attempt pulse cap for one program-and-verify pass.
fn nominal_cap(scheme: &WriteScheme) -> u32 {
    4 * scheme.expected_pulses() + 16
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceLimits;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn paper_scheme_is_five_bits() {
        assert_eq!(WriteScheme::paper().equivalent_bits(), 5);
    }

    #[test]
    fn high_precision_scheme_is_eight_bits() {
        // 0.3 % band → ~167 levels → 7 full bits by the floor rule; the
        // paper's "equivalent to 8-bits" counts the band one-sided.
        assert!(WriteScheme::high_precision().equivalent_bits() >= 7);
    }

    #[test]
    fn tighter_tolerance_needs_more_pulses() {
        let coarse = WriteScheme::new(0.1).unwrap();
        let fine = WriteScheme::new(0.003).unwrap();
        assert!(fine.expected_pulses() > coarse.expected_pulses());
    }

    #[test]
    fn scheme_validation() {
        assert!(WriteScheme::new(0.0).is_err());
        assert!(WriteScheme::new(1.0).is_err());
        assert!(WriteScheme::new(-0.1).is_err());
        assert!(WriteScheme::new(f64::NAN).is_err());
        assert!(WriteScheme::with_pulse_model(0.03, -1.0, Joules(1e-12)).is_err());
        assert!(WriteScheme::with_pulse_model(0.03, 0.1, Joules(0.0)).is_err());
    }

    #[test]
    fn program_lands_inside_tolerance() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let scheme = WriteScheme::paper();
        let mut cell = Memristor::new(DeviceLimits::PAPER);
        for target_frac in [0.0, 0.1, 0.35, 0.72, 1.0] {
            let lo = DeviceLimits::PAPER.g_min().0;
            let hi = DeviceLimits::PAPER.g_max().0;
            let target = Siemens(lo + target_frac * (hi - lo));
            let report = cell.program(target, &scheme, &mut rng).unwrap();
            assert!(
                report.relative_error.abs() <= scheme.tolerance,
                "target {target_frac}: error {}",
                report.relative_error
            );
            let final_err = (cell.conductance().0 - target.0).abs() / target.0;
            assert!(final_err <= scheme.tolerance);
        }
    }

    #[test]
    fn program_rejects_out_of_window_target() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut cell = Memristor::new(DeviceLimits::PAPER);
        assert!(matches!(
            cell.program(Siemens(1.0), &WriteScheme::paper(), &mut rng),
            Err(MemristorError::ConductanceOutOfRange { .. })
        ));
    }

    #[test]
    fn program_energy_grows_with_precision() {
        // Average pulse count over many writes must be higher for the
        // fine-tolerance scheme — the paper's "energy cost of write
        // increases for higher precision".
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let total = |tol: f64, rng: &mut ChaCha8Rng| -> f64 {
            let scheme = WriteScheme::new(tol).unwrap();
            let mut energy = 0.0;
            for k in 0..200 {
                let mut cell = Memristor::new(DeviceLimits::PAPER);
                let frac = f64::from(k % 32) / 31.0;
                let lo = DeviceLimits::PAPER.g_min().0;
                let hi = DeviceLimits::PAPER.g_max().0;
                let target = Siemens(lo + frac * (hi - lo));
                energy += cell.program(target, &scheme, rng).unwrap().energy.0;
            }
            energy
        };
        let coarse = total(0.1, &mut rng);
        let fine = total(0.003, &mut rng);
        assert!(
            fine > 1.5 * coarse,
            "fine writes should cost more energy: {fine} vs {coarse}"
        );
    }

    #[test]
    fn already_at_target_needs_zero_pulses() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let g = Siemens(5e-4);
        let mut cell = Memristor::with_conductance(DeviceLimits::PAPER, g).unwrap();
        let report = cell.program(g, &WriteScheme::paper(), &mut rng).unwrap();
        assert_eq!(report.pulses, 0);
        assert_eq!(report.energy, Joules::ZERO);
    }

    #[test]
    fn deterministic_per_seed() {
        let scheme = WriteScheme::paper();
        let target = Siemens(4e-4);
        let run = |seed: u64| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut cell = Memristor::new(DeviceLimits::PAPER);
            cell.program(target, &scheme, &mut rng).unwrap();
            cell.conductance()
        };
        assert_eq!(run(77), run(77));
    }

    #[test]
    fn retry_policy_validation() {
        assert!(RetryPolicy::new(0, 0.5, 100).is_err());
        assert!(RetryPolicy::new(3, -0.5, 100).is_err());
        assert!(RetryPolicy::new(3, f64::NAN, 100).is_err());
        assert!(RetryPolicy::new(3, 0.5, 0).is_err());
        let p = RetryPolicy::default();
        assert!(p.max_attempts >= 1 && p.pulse_budget >= 1);
    }

    #[test]
    fn healthy_cell_recovers_on_first_attempt() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let mut cell = Memristor::new(DeviceLimits::PAPER);
        let report = cell
            .program_with_retry(
                Siemens(5e-4),
                &WriteScheme::paper(),
                &RetryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        assert!(report.recovered);
        assert_eq!(report.attempts, 1);
        assert!(report.relative_error.abs() <= WriteScheme::paper().tolerance);
        assert!(report.pulses <= RetryPolicy::default().pulse_budget);
        // The attempt's loop ends on an in-band verify read after its last
        // pulse.
        assert!(report.verify_checks > u64::from(report.pulses));
    }

    #[test]
    fn already_in_band_cell_needs_no_attempt() {
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let g = Siemens(5e-4);
        let mut cell = Memristor::with_conductance(DeviceLimits::PAPER, g).unwrap();
        let report = cell
            .program_with_retry(g, &WriteScheme::paper(), &RetryPolicy::default(), &mut rng)
            .unwrap();
        assert!(report.recovered);
        assert_eq!(report.attempts, 0);
        assert_eq!(report.pulses, 0);
        assert_eq!(report.verify_checks, 0);
        assert_eq!(report.energy, Joules::ZERO);
    }

    #[test]
    fn stuck_cell_is_unrecoverable_within_budget() {
        let mut rng = ChaCha8Rng::seed_from_u64(15);
        let mut cell = Memristor::new(DeviceLimits::PAPER);
        cell.pin(DeviceLimits::PAPER.g_min());
        let policy = RetryPolicy::new(4, 0.5, 90).unwrap();
        let report = cell
            .program_with_retry(
                DeviceLimits::PAPER.g_max(),
                &WriteScheme::paper(),
                &policy,
                &mut rng,
            )
            .unwrap();
        assert!(!report.recovered);
        assert!(report.pulses <= policy.pulse_budget, "{}", report.pulses);
        assert!(report.attempts >= 2, "escalation should retry");
        assert!(report.relative_error.abs() > WriteScheme::paper().tolerance);
        // The pinned cell never verifies, so it spends the whole budget, and
        // each attempt reads once per pulse plus once before its trim.
        assert_eq!(report.pulses, policy.pulse_budget);
        assert_eq!(
            report.verify_checks,
            u64::from(report.pulses) + u64::from(report.attempts)
        );
    }

    #[test]
    fn escalated_pulses_cost_quadratic_energy() {
        // A stuck cell burns the whole budget; with escalation the energy
        // must exceed pulses × nominal pulse energy.
        let mut rng = ChaCha8Rng::seed_from_u64(16);
        let mut cell = Memristor::new(DeviceLimits::PAPER);
        cell.pin(DeviceLimits::PAPER.g_min());
        let scheme = WriteScheme::paper();
        let policy = RetryPolicy::new(3, 1.0, 300).unwrap();
        let report = cell
            .program_with_retry(DeviceLimits::PAPER.g_max(), &scheme, &policy, &mut rng)
            .unwrap();
        assert!(report.energy.0 > scheme.pulse_energy.0 * f64::from(report.pulses));
    }

    #[test]
    fn retry_rejects_out_of_window_target() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let mut cell = Memristor::new(DeviceLimits::PAPER);
        assert!(cell
            .program_with_retry(
                Siemens(1.0),
                &WriteScheme::paper(),
                &RetryPolicy::default(),
                &mut rng,
            )
            .is_err());
    }

    #[test]
    fn residual_errors_spread_inside_band() {
        // Distinct cells programmed to the same target must NOT all land on
        // the same value (that would defeat the variation model).
        let scheme = WriteScheme::paper();
        let target = Siemens(5e-4);
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let finals: Vec<f64> = (0..50)
            .map(|_| {
                let mut cell = Memristor::new(DeviceLimits::PAPER);
                cell.program(target, &scheme, &mut rng).unwrap();
                cell.conductance().0
            })
            .collect();
        let distinct = {
            let mut v = finals.clone();
            v.sort_by(f64::total_cmp);
            v.dedup();
            v.len()
        };
        assert!(distinct > 10, "only {distinct} distinct programmed values");
        for g in finals {
            assert!(((g - target.0) / target.0).abs() <= scheme.tolerance);
        }
    }
}
