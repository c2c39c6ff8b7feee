//! Behavioral Ag-Si memristor models for resistive crossbar memory.
//!
//! The DAC 2013 paper stores its face templates as programmed conductances of
//! Ag/a-Si memristors (Jo et al. \[6-7\], Gao et al. \[8\]) in a metallic
//! crossbar. This crate models exactly the device behaviour that enters the
//! paper's system study:
//!
//! * a **continuous conductance state** bounded by the device's resistance
//!   range (Table 2: 1 kΩ – 32 kΩ for the main design; other ranges are swept
//!   in Fig. 9a),
//! * a **multi-level write operation** with finite precision — the paper uses
//!   3 % write accuracy (≈5 bits) and notes that energy cost grows for
//!   tighter precision ([`write::WriteScheme`]),
//! * **read noise** (thermal/quantization disturbance of the observed
//!   conductance),
//! * **level quantization** for storing k-bit digital values
//!   ([`quantize::LevelMap`]),
//! * **parallel multi-device banks** that store one analog value in several
//!   memristors to gain precision beyond the single-device write accuracy
//!   (Likharev \[4\]; [`bank::MemristorBank`]), and
//! * **retention drift** of programmed filaments
//!   ([`drift::DriftModel`]) — quantifying how long "non-volatile" lasts
//!   against the 3 % write band.
//!
//! # Example
//!
//! Program a 5-bit value into a device and read it back:
//!
//! ```
//! use rand::SeedableRng;
//! use spinamm_memristor::{DeviceLimits, LevelMap, Memristor, WriteScheme};
//!
//! # fn main() -> Result<(), spinamm_memristor::MemristorError> {
//! let limits = DeviceLimits::PAPER; // 1 kΩ … 32 kΩ
//! let levels = LevelMap::new(limits, 5)?;
//! let scheme = WriteScheme::paper(); // 3 % tolerance
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//!
//! let mut cell = Memristor::new(limits);
//! let report = cell.program(levels.conductance(19)?, &scheme, &mut rng)?;
//! assert!(report.pulses >= 1);
//! assert!(levels.nearest_level(cell.conductance()) == 19);
//! # Ok(())
//! # }
//! ```

pub mod bank;
pub mod device;
pub mod drift;
pub mod pulse;
pub mod quantize;
pub mod write;

pub use bank::MemristorBank;
pub use device::{DeviceLimits, DeviceState, Memristor, ReadNoise};
pub use drift::DriftModel;
pub use pulse::PulseWriteModel;
pub use quantize::LevelMap;
pub use write::{RetryPolicy, RetryReport, WriteReport, WriteScheme};

use std::error::Error;
use std::fmt;

/// Errors produced by memristor device operations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MemristorError {
    /// A requested conductance lies outside the device's programmable range.
    ConductanceOutOfRange {
        /// Requested conductance in siemens.
        requested: f64,
        /// Lower bound of the programmable window in siemens.
        min: f64,
        /// Upper bound of the programmable window in siemens.
        max: f64,
    },
    /// A digital level exceeds the level map's range.
    LevelOutOfRange {
        /// Requested level.
        level: u32,
        /// Number of representable levels.
        count: u32,
    },
    /// A configuration parameter is outside its physical domain.
    InvalidParameter {
        /// Description of the violated constraint.
        what: &'static str,
    },
}

impl fmt::Display for MemristorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemristorError::ConductanceOutOfRange {
                requested,
                min,
                max,
            } => write!(
                f,
                "conductance {requested:.3e} S outside programmable window [{min:.3e}, {max:.3e}] S"
            ),
            MemristorError::LevelOutOfRange { level, count } => {
                write!(
                    f,
                    "level {level} out of range (device stores {count} levels)"
                )
            }
            MemristorError::InvalidParameter { what } => write!(f, "invalid parameter: {what}"),
        }
    }
}

impl Error for MemristorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = MemristorError::ConductanceOutOfRange {
            requested: 1.0,
            min: 0.1,
            max: 0.5,
        };
        assert!(e.to_string().contains("outside"));
        assert!(MemristorError::LevelOutOfRange {
            level: 32,
            count: 32
        }
        .to_string()
        .contains("32"));
        assert!(!MemristorError::InvalidParameter { what: "x" }
            .to_string()
            .is_empty());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MemristorError>();
    }
}
