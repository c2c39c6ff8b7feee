//! 45 nm process constants.

use spinamm_circuit::units::{Joules, Micrometers, Volts, Watts};

/// Technology constants of a 45 nm-class CMOS process.
///
/// Values are representative of published 45 nm data and are the single
/// place where process assumptions live; the DAC, ADC, WTA and ASIC models
/// read from here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tech45 {
    /// Nominal supply voltage.
    pub vdd: Volts,
    /// Minimum drawn channel length.
    pub min_length: Micrometers,
    /// Minimum drawn width.
    pub min_width: Micrometers,
    /// Pelgrom V_T-mismatch coefficient `A_VT` (V·µm): `σ_VT = A_VT/√(W·L)`.
    pub avt: f64,
    /// Threshold voltage magnitude of both device flavours.
    pub vt0: Volts,
    /// Energy of switching one minimum-sized 2-input gate (output + internal
    /// nodes) at nominal Vdd.
    pub gate_energy: Joules,
    /// Energy of clocking one flip-flop bit.
    pub flop_energy: Joules,
    /// Sub-threshold leakage power of one minimum gate.
    pub gate_leakage: Watts,
}

impl Tech45 {
    /// Default 45 nm constants.
    ///
    /// * Vdd = 1.0 V, L_min = 45 nm, W_min = 90 nm, |V_T| = 0.4 V
    /// * A_VT = 0.32 mV·µm, so a minimum-sized device has σ_VT ≈ 5 mV —
    ///   exactly the paper's "σVT = 5 mV for minimum sized transistors"
    /// * gate switch ≈ 0.3 fJ, flop clock ≈ 1 fJ, gate leakage ≈ 2 nW
    pub const DEFAULT: Tech45 = Tech45 {
        vdd: Volts(1.0),
        min_length: Micrometers(0.045),
        min_width: Micrometers(0.090),
        // A_VT chosen so σ_VT(min) = A_VT/√(0.090·0.045) µm ≈ 5 mV.
        avt: 3.2e-4,
        vt0: Volts(0.4),
        gate_energy: Joules(0.3e-15),
        flop_energy: Joules(1.0e-15),
        gate_leakage: Watts(2.0e-9),
    };

    /// σ_VT of a device with drawn dimensions `w × l` (µm):
    /// `A_VT / √(W·L)`.
    #[must_use]
    pub fn sigma_vt(&self, w: Micrometers, l: Micrometers) -> Volts {
        Volts(self.avt / (w.0 * l.0).sqrt())
    }

    /// σ_VT of the minimum-sized device.
    #[must_use]
    pub fn sigma_vt_min(&self) -> Volts {
        self.sigma_vt(self.min_width, self.min_length)
    }
}

impl Default for Tech45 {
    fn default() -> Self {
        Self::DEFAULT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimum_device_sigma_vt_is_about_5mv() {
        // The paper quotes σVT = 5 mV for minimum-sized 45 nm transistors.
        let t = Tech45::DEFAULT;
        let s = t.sigma_vt_min().0;
        assert!((s - 5e-3).abs() / 5e-3 < 0.6, "σVT(min) = {s}");
    }

    #[test]
    fn sigma_scales_with_area() {
        let t = Tech45::DEFAULT;
        let small = t.sigma_vt(Micrometers(0.09), Micrometers(0.045)).0;
        let big = t.sigma_vt(Micrometers(0.36), Micrometers(0.18)).0;
        // 16× the area → 4× lower mismatch.
        assert!((small / big - 4.0).abs() < 1e-9);
    }

    #[test]
    fn validation() {
        assert_eq!(Tech45::default(), Tech45::DEFAULT);
    }
}
