//! 45 nm CMOS substrate models: DACs, the analog WTA baselines and the
//! digital ASIC comparison point.
//!
//! The paper compares its spin-CMOS associative memory against three CMOS
//! alternatives, all "simulated using 45 nm CMOS technology models":
//!
//! 1. the standard binary-tree winner-take-all of Andreou et al. \[17\],
//! 2. the Długosz current-mode Min/Max circuit \[18\], and
//! 3. a digital 45 nm ASIC doing multiply–accumulate correlation.
//!
//! This crate provides those baselines, as the power figures the paper
//! publishes for them, plus the CMOS pieces of the proposed design itself:
//!
//! * [`tech`] — 45 nm process constants (Vdd, V_T, Pelgrom mismatch
//!   coefficient, per-gate switching and leakage, per-flop clocking).
//! * [`dtcs`] — the binary-weighted deep-triode current-source DAC the
//!   proposed design uses both for input conversion and inside the SAR loop;
//!   includes per-branch mismatch and the Fig. 8b non-linearity analysis.
//! * [`wta`] — the calibrated power/delay models of \[17\] and \[18\]
//!   used for Table 1 and Fig. 13b.
//! * [`adc`] — a conventional CMOS SAR ADC channel, the MS-CMOS
//!   counterfactual of the paper's spin SAR conversion.
//! * [`digital`] — the 45 nm digital MAC ASIC energy model.
//!
//! The power-model constants are calibrated to the paper's Table 1 at
//! σ_VT = 5 mV (the paper's own "near ideal case for MS-CMOS") and the
//! scaling laws (with resolution and with mismatch) follow the standard
//! analog-design arguments the paper cites from Kinget \[16\]: keeping a
//! target resolution under worse mismatch requires quadratically larger
//! devices, hence quadratically more capacitance and delay.

pub mod adc;
pub mod digital;
pub mod dtcs;
pub mod tech;
pub mod wta;

pub use adc::CmosSarAdc;
pub use digital::DigitalMacAsic;
pub use dtcs::{DacInstance, DtcsDac};
pub use tech::Tech45;
pub use wta::{AnalogWtaModel, WtaStyle};

use std::error::Error;
use std::fmt;

/// Errors produced by CMOS model construction and evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CmosError {
    /// A parameter is outside its physical domain.
    InvalidParameter {
        /// Description of the violated constraint.
        what: &'static str,
    },
    /// A DAC code exceeds the converter's range.
    CodeOutOfRange {
        /// Requested code.
        code: u32,
        /// Number of representable codes.
        count: u32,
    },
}

impl fmt::Display for CmosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CmosError::InvalidParameter { what } => write!(f, "invalid parameter: {what}"),
            CmosError::CodeOutOfRange { code, count } => {
                write!(
                    f,
                    "DAC code {code} out of range (converter has {count} codes)"
                )
            }
        }
    }
}

impl Error for CmosError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(!CmosError::InvalidParameter { what: "x" }
            .to_string()
            .is_empty());
        assert!(CmosError::CodeOutOfRange {
            code: 32,
            count: 32
        }
        .to_string()
        .contains("32"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CmosError>();
    }
}
