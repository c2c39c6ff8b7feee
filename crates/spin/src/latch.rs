//! The dynamic CMOS latch that reads the DWN's MTJ (paper Fig. 7b).
//!
//! One load branch connects to the neuron's MTJ, the other to the reference
//! MTJ; both are precharged and the latch "effectively compares the
//! resistance between its two load branches through transient discharge
//! currents". Because the read current is transient, it does not disturb
//! the free domain.
//!
//! The system study needs one quantity from it: the **sense energy**, the
//! switched-capacitance energy of precharging and firing the latch, part
//! of the proposed design's dynamic power. The read itself is exact: the
//! converter takes the wall state as the latch's decision.

use spinamm_circuit::units::{switched_capacitor_energy, Farads, Joules, Volts};

/// Dynamic sense latch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicLatch {
    /// Supply voltage.
    pub vdd: Volts,
    /// Total switched capacitance per sense operation (both branches plus
    /// the cross-coupled pair).
    pub capacitance: Farads,
}

impl DynamicLatch {
    /// A 45 nm-class latch: 1 V supply and 2 fF switched per sense.
    pub const PAPER: DynamicLatch = DynamicLatch {
        vdd: Volts(1.0),
        capacitance: Farads(2e-15),
    };

    /// Energy of one sense operation (precharge + evaluate): `C·Vdd²`.
    #[must_use]
    pub fn sense_energy(&self) -> Joules {
        switched_capacitor_energy(self.capacitance, self.vdd)
    }
}

impl Default for DynamicLatch {
    fn default() -> Self {
        Self::PAPER
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sense_energy_cv2() {
        let l = DynamicLatch::PAPER;
        assert!((l.sense_energy().0 - 2e-15).abs() < 1e-27);
    }

    #[test]
    fn validation() {
        assert_eq!(DynamicLatch::default(), DynamicLatch::PAPER);
    }
}
