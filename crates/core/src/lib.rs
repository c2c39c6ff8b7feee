//! Spin-neuron + resistive-crossbar associative memory — the system of
//! *"Ultra Low Power Associative Computing with Spin Neurons and Resistive
//! Crossbar Memory"* (Sharad, Fan, Roy — DAC 2013).
//!
//! The module stores analog pattern templates in a memristive crossbar
//! ([`spinamm_crossbar`]), converts digital inputs to row currents through
//! deep-triode current-source DACs ([`spinamm_cmos`]), digitizes each
//! column's correlation current with a domain-wall-neuron SAR ADC
//! ([`spinamm_spin`]) and finds the best-matching template with a fully
//! digital winner-tracking circuit that runs in parallel with the
//! conversion — the paper's hybrid spin-CMOS WTA (Figs. 10–12).
//!
//! Crate layout:
//!
//! * [`params`] — the canonical design parameters (paper Table 2).
//! * [`sar`] — successive-approximation register logic.
//! * [`adc`] — the spin SAR ADC: DWN comparator + DTCS DAC + dynamic latch.
//! * [`wta`] — parallel winner tracking (TR/DR/detection-line) and the
//!   combined multi-column [`wta::SpinWta`].
//! * [`energy`] — power/energy accounting for the proposed design and the
//!   Table 1 / Fig. 13 comparisons.
//! * [`amm`] — the full associative memory module: program → drive →
//!   convert → select.
//! * [`plan`] — the compiled recall kernel every module's evaluate and
//!   select phases run through.
//! * [`recall`] — dataset-level accuracy evaluation (Fig. 3) and DOM-based
//!   rejection of unknown inputs.
//! * [`request`] — the unified [`RecallRequest`] options struct taken by
//!   every `*_request` entry point (telemetry sink + execution knobs).
//! * [`margin`] — detection-margin analysis across conductance ranges and
//!   ΔV (Fig. 9).
//! * [`hierarchy`] — the paper's §5 extension: clustered, hierarchical
//!   matching over multiple RCM modules.
//! * [`partition`] — the paper's §5 extension: large patterns split across
//!   modular RCM blocks with digital score summation.
//! * [`capacity`] — the scale-out layer: the template set sharded across a
//!   pool of crossbar tiles with deterministic top-k ranked recall and
//!   runtime-insertable/evictable template banks.
//! * [`convolution`] — the paper's §5 extension: crossbar dot products as a
//!   convolution engine for CNN-style feature maps.
//!
//! # Example
//!
//! Build a small module and recall a stored pattern:
//!
//! ```
//! use spinamm_core::amm::{AmmConfig, AssociativeMemoryModule};
//!
//! # fn main() -> Result<(), spinamm_core::CoreError> {
//! let patterns = vec![
//!     vec![31, 0, 31, 0, 31, 0, 31, 0],
//!     vec![0, 31, 0, 31, 0, 31, 0, 31],
//!     vec![31, 31, 31, 31, 0, 0, 0, 0],
//! ];
//! let config = AmmConfig::default();
//! let mut amm = AssociativeMemoryModule::build(&patterns, &config)?;
//! let result = amm.recall(&patterns[2])?;
//! assert_eq!(result.winner, Some(2));
//! # Ok(())
//! # }
//! ```

pub mod adc;
pub mod amm;
pub mod capacity;
pub mod convolution;
pub mod degrade;
pub mod energy;
pub mod hierarchy;
pub mod margin;
pub mod params;
pub mod partition;
pub mod plan;
pub mod recall;
pub mod request;
pub mod sar;
pub mod wta;

pub use adc::{AdcConversion, SpinSarAdc};
pub use amm::{AmmConfig, AssociativeMemoryModule, Fidelity, QueryEvaluation, RecallResult};
pub use capacity::{top_k_merge, RankedMatch, TemplateHandle, TileId, TiledAmm, TiledRecall};
pub use degrade::{DegradationPolicy, FaultReport, PlacementForecast};
pub use energy::{EnergyBreakdown, PowerReport};
pub use hierarchy::{HierarchicalAmm, HierarchicalRecall};
pub use params::DesignParams;
pub use partition::{PartitionedAmm, PartitionedRecall};
pub use request::RecallRequest;
pub use sar::SarRegister;
pub use wta::{SpinWta, WtaOutcome};

use spinamm_circuit::CircuitError;
use spinamm_cmos::CmosError;
use spinamm_crossbar::CrossbarError;
use spinamm_data::DataError;
use spinamm_faults::FaultsError;
use spinamm_memristor::MemristorError;
use spinamm_spin::SpinError;
use std::error::Error;
use std::fmt;

/// Errors produced by the associative-memory system.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A configuration or input is outside its domain.
    InvalidParameter {
        /// Description of the violated constraint.
        what: &'static str,
    },
    /// An input vector length did not match the module.
    InputLengthMismatch {
        /// Expected length.
        expected: usize,
        /// Provided length.
        found: usize,
    },
    /// Device-level failure.
    Device(MemristorError),
    /// Circuit-solve failure.
    Circuit(CircuitError),
    /// Crossbar failure.
    Crossbar(CrossbarError),
    /// Spin-device failure.
    Spin(SpinError),
    /// CMOS-model failure.
    Cmos(CmosError),
    /// Dataset failure.
    Data(DataError),
    /// Fault-model failure.
    Faults(FaultsError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidParameter { what } => write!(f, "invalid parameter: {what}"),
            CoreError::InputLengthMismatch { expected, found } => {
                write!(f, "input has {found} elements, module expects {expected}")
            }
            CoreError::Device(e) => write!(f, "device error: {e}"),
            CoreError::Circuit(e) => write!(f, "circuit error: {e}"),
            CoreError::Crossbar(e) => write!(f, "crossbar error: {e}"),
            CoreError::Spin(e) => write!(f, "spin error: {e}"),
            CoreError::Cmos(e) => write!(f, "cmos error: {e}"),
            CoreError::Data(e) => write!(f, "data error: {e}"),
            CoreError::Faults(e) => write!(f, "fault-model error: {e}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Device(e) => Some(e),
            CoreError::Circuit(e) => Some(e),
            CoreError::Crossbar(e) => Some(e),
            CoreError::Spin(e) => Some(e),
            CoreError::Cmos(e) => Some(e),
            CoreError::Data(e) => Some(e),
            CoreError::Faults(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MemristorError> for CoreError {
    fn from(e: MemristorError) -> Self {
        CoreError::Device(e)
    }
}
impl From<CircuitError> for CoreError {
    fn from(e: CircuitError) -> Self {
        CoreError::Circuit(e)
    }
}
impl From<CrossbarError> for CoreError {
    fn from(e: CrossbarError) -> Self {
        CoreError::Crossbar(e)
    }
}
impl From<SpinError> for CoreError {
    fn from(e: SpinError) -> Self {
        CoreError::Spin(e)
    }
}
impl From<CmosError> for CoreError {
    fn from(e: CmosError) -> Self {
        CoreError::Cmos(e)
    }
}
impl From<DataError> for CoreError {
    fn from(e: DataError) -> Self {
        CoreError::Data(e)
    }
}
impl From<FaultsError> for CoreError {
    fn from(e: FaultsError) -> Self {
        CoreError::Faults(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_conversions() {
        let e: CoreError = MemristorError::InvalidParameter { what: "x" }.into();
        assert!(matches!(e, CoreError::Device(_)));
        assert!(Error::source(&e).is_some());
        let e: CoreError = DataError::InvalidParameter { what: "y" }.into();
        assert!(matches!(e, CoreError::Data(_)));
        let e = CoreError::InputLengthMismatch {
            expected: 128,
            found: 64,
        };
        assert!(Error::source(&e).is_none());
        assert!(e.to_string().contains("128"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
