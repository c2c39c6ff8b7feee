//! Parallel memristor banks: storing one analog value in several devices.
//!
//! "For a given write-precision, larger number of bits can be obtained by
//! using parallel combination of multiple memristors to store a single analog
//! value" (paper §2, citing Likharev's CMOL CrossNets \[4\]). A bank of `n`
//! devices programmed to `target / n` each has a total conductance whose
//! *relative* error shrinks like `1/√n`, because the independent residual
//! write errors average out.

use crate::device::{DeviceLimits, Memristor, ReadNoise};
use crate::write::{WriteReport, WriteScheme};
use crate::MemristorError;
use rand::Rng;
use spinamm_circuit::units::{Joules, Siemens};

/// A parallel combination of identically targeted memristors acting as one
/// higher-precision analog cell.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use spinamm_memristor::{DeviceLimits, MemristorBank, WriteScheme};
/// use spinamm_circuit::units::Siemens;
///
/// # fn main() -> Result<(), spinamm_memristor::MemristorError> {
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let mut bank = MemristorBank::new(DeviceLimits::PAPER, 4)?;
/// // Total target mid-window: each device gets a quarter of it.
/// bank.program(Siemens(8e-4), &WriteScheme::paper(), &mut rng)?;
/// let err = (bank.conductance().0 - 8e-4).abs() / 8e-4;
/// assert!(err <= 0.03); // at worst single-device tolerance
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MemristorBank {
    cells: Vec<Memristor>,
}

impl MemristorBank {
    /// Creates a bank of `n` off-state devices.
    ///
    /// # Errors
    ///
    /// Returns [`MemristorError::InvalidParameter`] if `n == 0`.
    pub fn new(limits: DeviceLimits, n: usize) -> Result<Self, MemristorError> {
        if n == 0 {
            return Err(MemristorError::InvalidParameter {
                what: "bank must contain at least one device",
            });
        }
        Ok(Self {
            cells: vec![Memristor::new(limits); n],
        })
    }

    /// Number of parallel devices.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` if the bank has no devices (never true for constructed banks,
    /// provided for API completeness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The individual devices.
    #[must_use]
    pub fn cells(&self) -> &[Memristor] {
        &self.cells
    }

    /// Total (parallel) conductance — the sum over devices.
    #[must_use]
    pub fn conductance(&self) -> Siemens {
        Siemens(self.cells.iter().map(|c| c.conductance().0).sum())
    }

    /// One noisy read of the total conductance (each device independently
    /// noisy).
    pub fn read<R: Rng + ?Sized>(&self, noise: ReadNoise, rng: &mut R) -> Siemens {
        Siemens(self.cells.iter().map(|c| c.read(noise, rng).0).sum())
    }

    /// The total-conductance window of the bank (`n ×` the device window).
    #[must_use]
    pub fn total_window(&self) -> (Siemens, Siemens) {
        let limits = self.cells[0].limits();
        let n = self.cells.len() as f64;
        (Siemens(limits.g_min().0 * n), Siemens(limits.g_max().0 * n))
    }

    /// Programs the bank so its total conductance approximates `target`:
    /// each device is programmed to `target / n`.
    ///
    /// # Errors
    ///
    /// Returns [`MemristorError::ConductanceOutOfRange`] if `target / n` is
    /// outside the single-device window.
    pub fn program<R: Rng + ?Sized>(
        &mut self,
        target: Siemens,
        scheme: &WriteScheme,
        rng: &mut R,
    ) -> Result<WriteReport, MemristorError> {
        let per_device = Siemens(target.0 / self.cells.len() as f64);
        let mut pulses = 0;
        let mut verify_checks = 0;
        let mut energy = Joules::ZERO;
        for cell in &mut self.cells {
            let report = cell.program(per_device, scheme, rng)?;
            pulses += report.pulses;
            verify_checks += report.verify_checks;
            energy += report.energy;
        }
        let relative_error = (self.conductance().0 - target.0) / target.0;
        Ok(WriteReport {
            pulses,
            verify_checks,
            energy,
            relative_error,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn bank_requires_devices() {
        assert!(MemristorBank::new(DeviceLimits::PAPER, 0).is_err());
        let bank = MemristorBank::new(DeviceLimits::PAPER, 3).unwrap();
        assert_eq!(bank.len(), 3);
        assert!(!bank.is_empty());
        assert_eq!(bank.cells().len(), 3);
    }

    #[test]
    fn fresh_bank_total_is_n_times_off() {
        let bank = MemristorBank::new(DeviceLimits::PAPER, 4).unwrap();
        let expected = DeviceLimits::PAPER.g_min().0 * 4.0;
        assert!((bank.conductance().0 - expected).abs() < 1e-15);
    }

    #[test]
    fn total_window_scales_with_n() {
        let bank = MemristorBank::new(DeviceLimits::PAPER, 8).unwrap();
        let (lo, hi) = bank.total_window();
        assert!((lo.0 - 8.0 * DeviceLimits::PAPER.g_min().0).abs() < 1e-15);
        assert!((hi.0 - 8.0 * DeviceLimits::PAPER.g_max().0).abs() < 1e-15);
    }

    #[test]
    fn program_distributes_target() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut bank = MemristorBank::new(DeviceLimits::PAPER, 4).unwrap();
        let target = Siemens(1.2e-3);
        bank.program(target, &WriteScheme::paper(), &mut rng)
            .unwrap();
        for cell in bank.cells() {
            let per = target.0 / 4.0;
            assert!(((cell.conductance().0 - per) / per).abs() <= 0.03);
        }
    }

    #[test]
    fn program_rejects_unreachable_target() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut bank = MemristorBank::new(DeviceLimits::PAPER, 2).unwrap();
        // 2 devices can reach at most 2 × g_max = 2e-3 S.
        assert!(bank
            .program(Siemens(5e-3), &WriteScheme::paper(), &mut rng)
            .is_err());
    }

    #[test]
    fn larger_banks_average_down_error() {
        // RMS relative error of the bank total should drop roughly like
        // 1/√n. Compare n = 1 vs n = 16 over many trials.
        let scheme = WriteScheme::paper();
        let rms = |n: usize, seed: u64| -> f64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut acc = 0.0;
            let trials = 300;
            for _ in 0..trials {
                let mut bank = MemristorBank::new(DeviceLimits::PAPER, n).unwrap();
                let target = Siemens(5e-4 * n as f64);
                let rep = bank.program(target, &scheme, &mut rng).unwrap();
                acc += rep.relative_error * rep.relative_error;
            }
            (acc / f64::from(trials)).sqrt()
        };
        let single = rms(1, 31);
        let wide = rms(16, 32);
        assert!(
            wide < single / 2.0,
            "16-device bank rms {wide} should be well below single-device {single}"
        );
    }

    #[test]
    fn read_noise_applies_per_device() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let bank = MemristorBank::new(DeviceLimits::PAPER, 4).unwrap();
        let clean = bank.conductance();
        let noisy = bank.read(ReadNoise::new(0.05).unwrap(), &mut rng);
        assert_ne!(clean, noisy);
        // But the exact read with no noise matches.
        assert_eq!(bank.read(ReadNoise::NONE, &mut rng), clean);
    }

    #[test]
    fn program_reports_accumulated_energy() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut bank = MemristorBank::new(DeviceLimits::PAPER, 4).unwrap();
        let scheme = WriteScheme::paper();
        let rep = bank.program(Siemens(1.6e-3), &scheme, &mut rng).unwrap();
        assert!(rep.pulses >= 4, "each device needs at least one pulse");
        assert!((rep.energy.0 - f64::from(rep.pulses) * scheme.pulse_energy.0).abs() < 1e-24);
    }
}
