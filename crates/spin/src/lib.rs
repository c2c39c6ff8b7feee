//! Spin-device physics: domain-wall magnets, spin neurons, MTJs and their
//! CMOS sense interface.
//!
//! The paper's enabling device is the **domain-wall neuron (DWN)**: a short,
//! thin free domain (`d2`, 3×20×60 nm³ NiFe) connecting two anti-parallel
//! fixed domains. Current entering through `d1` and leaving through `d3`
//! drags the domain wall across the free domain and writes its polarity —
//! the device is a *current-direction comparator* operating at ultra-low
//! terminal voltage. An MTJ on top of the free domain (Rp ≈ 5 kΩ,
//! Rap ≈ 15 kΩ) reads the state through a dynamic CMOS latch.
//!
//! This crate implements the device stack bottom-up:
//!
//! * [`material`] — magnetic material parameters (NiFe defaults from the
//!   paper's Table 2: Ms = 800 emu/cm³, Eb = 20 kT).
//! * [`geometry`] — free-domain geometry and its scaling.
//! * [`dynamics`] — the 1-D collective-coordinate (q–φ) domain-wall model
//!   with adiabatic + non-adiabatic spin-transfer torque and an extrinsic
//!   pinning potential; numerically integrated (RK4), with the pinning
//!   strength calibrated so the reference device's threshold current is the
//!   paper's I_c = 1 µA. Supplies Fig. 5b/5c (threshold and switching-time
//!   scaling).
//! * [`thermal`] — Néel–Brown thermal activation over the Eb = 20 kT
//!   barrier: retention time and the analytic sub-threshold switching
//!   probability that smears the transfer curve (Fig. 7a).
//! * [`neuron`] — the behavioral DWN used by system simulations: a
//!   deterministic hysteretic current comparator with threshold, switching
//!   delay and energy.
//! * [`mtj`] — MTJ read stack and reference cell.
//! * [`latch`] — the dynamic CMOS latch that digitizes the MTJ state
//!   (Fig. 7b), modelled by its C·V² sense energy.
//!
//! # Modelling note (substitution for micromagnetics)
//!
//! The paper used full micromagnetic simulation, calibrated against
//! experimental DWM data, and then *reduced it to a behavioral model* for
//! system SPICE runs (paper Fig. 14). We perform the same reduction starting
//! from the standard 1-D wall model: the pinning strength is the single
//! calibration constant, fixed so that the 3×20 nm² cross-section depins at
//! 1 µA (J_c ≈ 1.7×10¹⁰ A/m², the paper's "~10⁶ A/cm²" order). All other
//! behaviour — threshold ∝ cross-section, ns-scale switching, hysteresis —
//! then *follows* from the dynamics rather than being asserted.

pub mod dynamics;
pub mod geometry;
pub mod latch;
pub mod material;
pub mod mtj;
pub mod neuron;
pub mod thermal;

pub use dynamics::{DwDynamics, SwitchingOutcome};
pub use geometry::DwGeometry;
pub use latch::DynamicLatch;
pub use material::MagnetMaterial;
pub use mtj::{Mtj, Polarity};
pub use neuron::{DomainWallNeuron, NeuronConfig, TransferPoint};
pub use thermal::ThermalModel;

use std::error::Error;
use std::fmt;

/// Errors produced by spin-device model construction and simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpinError {
    /// A parameter is outside its physical domain.
    InvalidParameter {
        /// Description of the violated constraint.
        what: &'static str,
    },
    /// A numerical search (threshold bisection, calibration) failed to
    /// bracket or converge.
    CalibrationFailed {
        /// Description of the failed search.
        what: &'static str,
    },
}

impl fmt::Display for SpinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpinError::InvalidParameter { what } => write!(f, "invalid parameter: {what}"),
            SpinError::CalibrationFailed { what } => write!(f, "calibration failed: {what}"),
        }
    }
}

impl Error for SpinError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(!SpinError::InvalidParameter { what: "x" }
            .to_string()
            .is_empty());
        assert!(SpinError::CalibrationFailed { what: "y" }
            .to_string()
            .contains("calibration"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SpinError>();
    }
}
