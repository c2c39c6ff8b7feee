//! Resistive crossbar memory (RCM) array models.
//!
//! The crossbar is the paper's computational memory: memristors with
//! conductance `g_ij` interconnect horizontal (row) bars and in-plane
//! (column) bars; driving the rows with input voltages or currents makes
//! each column's output current the dot product `Σᵢ Vᵢ·gᵢⱼ` between the
//! input vector and the stored pattern (paper Fig. 1).
//!
//! Three levels of fidelity are provided:
//!
//! * [`ideal_column_currents`](array::CrossbarArray::ideal_column_currents)
//!   — the textbook dot product with zero wire resistance, used for
//!   algorithm studies and as the reference in accuracy sweeps,
//! * [`driven_column_currents`](array::CrossbarArray::driven_column_currents)
//!   — the same dot product with rows excited through source-conductance
//!   drives ([`drive::RowDrive::SourceConductance`]) that model the
//!   paper's deep-triode current-source (DTCS) DACs in series with the
//!   row, reproducing the DAC non-linearity of Fig. 8b, and
//! * [`CachedParasiticCrossbar`] — the full nodal-analysis netlist
//!   ([`parasitic`]) with per-segment Cu wire resistance (Table 2:
//!   1 Ω/µm), built once per topology and solved by [`spinamm_circuit`]
//!   with values restamped per query; this reproduces the IR-drop signal
//!   corruption that shapes Fig. 9. [`SettlingStudy`] integrates the same
//!   netlist with wire capacitance.
//!
//! # Example
//!
//! A 4×3 ideal crossbar evaluating correlations:
//!
//! ```
//! use rand::SeedableRng;
//! use spinamm_circuit::units::Volts;
//! use spinamm_crossbar::CrossbarArray;
//! use spinamm_memristor::{DeviceLimits, LevelMap, WriteScheme};
//!
//! # fn main() -> Result<(), spinamm_crossbar::CrossbarError> {
//! let levels = LevelMap::new(DeviceLimits::PAPER, 5)?;
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let mut array = CrossbarArray::new(4, 3, DeviceLimits::PAPER)?;
//! // Store three patterns (one per column).
//! let patterns = [[31, 0, 15], [0, 31, 15], [31, 31, 0], [0, 0, 31]];
//! for (i, row) in patterns.iter().enumerate() {
//!     for (j, &lvl) in row.iter().enumerate() {
//!         array.program_level(i, j, lvl, &levels, &WriteScheme::paper(), &mut rng)?;
//!     }
//! }
//! let drives = vec![Volts(0.03); 4];
//! let currents = array.ideal_column_currents(&drives)?;
//! assert_eq!(currents.len(), 3);
//! # Ok(())
//! # }
//! ```

pub mod array;
pub mod cached;
pub mod drive;
pub mod geometry;
pub mod parasitic;
pub mod programming;
pub mod settling;

pub use array::{CrossbarArray, PatternRetryReport};
pub use cached::CachedParasiticCrossbar;
pub use drive::RowDrive;
pub use geometry::CrossbarGeometry;
pub use parasitic::ColumnReadout;
pub use programming::{ArrayProgrammer, BiasScheme, DisturbReport};
pub use settling::{SettlingReport, SettlingStudy};

use spinamm_circuit::CircuitError;
use spinamm_memristor::MemristorError;
use std::error::Error;
use std::fmt;

/// Errors produced by crossbar construction, programming or evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum CrossbarError {
    /// An index addressed a cell outside the array.
    IndexOutOfBounds {
        /// Requested row.
        row: usize,
        /// Requested column.
        col: usize,
        /// Array dimensions.
        rows: usize,
        /// Array dimensions.
        cols: usize,
    },
    /// An input vector length did not match the number of rows.
    InputLengthMismatch {
        /// Expected length (rows).
        expected: usize,
        /// Provided length.
        found: usize,
    },
    /// A configuration parameter is outside its domain.
    InvalidParameter {
        /// Description of the violated constraint.
        what: &'static str,
    },
    /// A device-level operation failed.
    Device(MemristorError),
    /// The underlying circuit solve failed.
    Circuit(CircuitError),
}

impl fmt::Display for CrossbarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrossbarError::IndexOutOfBounds {
                row,
                col,
                rows,
                cols,
            } => {
                write!(
                    f,
                    "cell ({row}, {col}) out of bounds for {rows}x{cols} array"
                )
            }
            CrossbarError::InputLengthMismatch { expected, found } => {
                write!(
                    f,
                    "input vector has {found} entries, array has {expected} rows"
                )
            }
            CrossbarError::InvalidParameter { what } => write!(f, "invalid parameter: {what}"),
            CrossbarError::Device(e) => write!(f, "device error: {e}"),
            CrossbarError::Circuit(e) => write!(f, "circuit error: {e}"),
        }
    }
}

impl Error for CrossbarError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CrossbarError::Device(e) => Some(e),
            CrossbarError::Circuit(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MemristorError> for CrossbarError {
    fn from(e: MemristorError) -> Self {
        CrossbarError::Device(e)
    }
}

impl From<CircuitError> for CrossbarError {
    fn from(e: CircuitError) -> Self {
        CrossbarError::Circuit(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_conversions_and_sources() {
        let e: CrossbarError = MemristorError::InvalidParameter { what: "x" }.into();
        assert!(matches!(e, CrossbarError::Device(_)));
        assert!(Error::source(&e).is_some());
        let e: CrossbarError = CircuitError::SingularSystem { pivot: 0 }.into();
        assert!(matches!(e, CrossbarError::Circuit(_)));
        assert!(Error::source(&e).is_some());
        let e = CrossbarError::InvalidParameter { what: "y" };
        assert!(Error::source(&e).is_none());
    }

    #[test]
    fn error_display() {
        let e = CrossbarError::IndexOutOfBounds {
            row: 5,
            col: 2,
            rows: 4,
            cols: 3,
        };
        assert!(e.to_string().contains("(5, 2)"));
        assert!(CrossbarError::InputLengthMismatch {
            expected: 128,
            found: 64
        }
        .to_string()
        .contains("128"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CrossbarError>();
    }
}
