//! Analog winner-take-all baselines.
//!
//! [`AnalogWtaModel`] is the calibrated *power/delay* model of the two
//! published designs the paper simulates: the standard BT-WTA of Andreou et
//! al. \[17\] and the Długosz Min/Max circuit \[18\]. Like the paper,
//! which compares against their published Table-1 powers, it models what
//! they cost, not how they select: base powers are calibrated to Table 1 at
//! σ_VT = 5 mV, and the mismatch scaling follows Kinget \[16\] — holding
//! resolution under worse mismatch costs quadratically more area →
//! capacitance → delay. Table 1 (E11) and the Fig. 13b sweep (E10) read it.

use crate::CmosError;
use spinamm_circuit::units::{Hertz, Joules, Seconds, Volts, Watts};

/// Which published analog WTA design is being modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WtaStyle {
    /// The standard binary-tree WTA of Andreou et al. \[17\].
    Andreou17,
    /// The Długosz asynchronous current-mode Min/Max tree \[18\].
    Dlugosz18,
}

/// Calibrated power/performance model of a published analog WTA design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalogWtaModel {
    /// Which design.
    pub style: WtaStyle,
    /// Number of WTA inputs (the paper's module has 40).
    pub n_inputs: usize,
    /// Minimum-device σ_VT of the process corner being evaluated.
    pub sigma_vt: Volts,
}

/// σ_VT at which the base powers were calibrated (the paper's "near ideal
/// case for MS-CMOS circuits").
pub const CALIBRATION_SIGMA_VT: Volts = Volts(5e-3);

impl AnalogWtaModel {
    /// Creates a model at the calibration corner (σ_VT = 5 mV).
    ///
    /// # Errors
    ///
    /// Returns [`CmosError::InvalidParameter`] for fewer than two inputs.
    pub fn new(style: WtaStyle, n_inputs: usize) -> Result<Self, CmosError> {
        if n_inputs < 2 {
            return Err(CmosError::InvalidParameter {
                what: "a WTA needs at least two inputs",
            });
        }
        Ok(Self {
            style,
            n_inputs,
            sigma_vt: CALIBRATION_SIGMA_VT,
        })
    }

    /// The same design evaluated at a worse mismatch corner (Fig. 13b
    /// sweep).
    ///
    /// # Errors
    ///
    /// Returns [`CmosError::InvalidParameter`] if σ_VT is not finite and
    /// positive.
    pub fn with_sigma_vt(self, sigma_vt: Volts) -> Result<Self, CmosError> {
        if !(sigma_vt.0.is_finite() && sigma_vt.0 > 0.0) {
            return Err(CmosError::InvalidParameter {
                what: "sigma_vt must be finite and positive",
            });
        }
        Ok(Self { sigma_vt, ..self })
    }

    /// Calibrated base power (40 inputs, σ_VT = 5 mV) at a resolution.
    /// The 3/4/5-bit anchors are the paper's Table-1 simulation results;
    /// other resolutions extrapolate with the fitted
    /// `P(bits) ≈ P₅·2^(k·(bits−5))` law of each design.
    fn base_power(&self, bits: u32) -> f64 {
        match (self.style, bits) {
            // [17]: 3.2 / 5.0 / 8.0 mW at 3/4/5 bits.
            (WtaStyle::Andreou17, 3) => 3.2e-3,
            (WtaStyle::Andreou17, 4) => 5.0e-3,
            (WtaStyle::Andreou17, 5) => 8.0e-3,
            (WtaStyle::Andreou17, b) => 8.0e-3 * (2.0_f64).powf(0.66 * (f64::from(b) - 5.0)),
            // [18]: 2.3 / 2.9 / 5.5 mW at 3/4/5 bits.
            (WtaStyle::Dlugosz18, 3) => 2.3e-3,
            (WtaStyle::Dlugosz18, 4) => 2.9e-3,
            (WtaStyle::Dlugosz18, 5) => 5.5e-3,
            (WtaStyle::Dlugosz18, b) => 5.5e-3 * (2.0_f64).powf(0.63 * (f64::from(b) - 5.0)),
        }
    }

    /// Static power of the WTA at a given resolution, scaled from the
    /// 40-input calibration point linearly in input count (each input adds
    /// a biased comparison slice).
    #[must_use]
    pub fn power(&self, bits: u32) -> Watts {
        let bits_scale = self.base_power(bits);
        let input_scale = self.n_inputs as f64 / 40.0;
        // Worse mismatch costs power too (bigger devices at equal speed, or
        // equal devices pushed to higher bias): linear in σ beyond the
        // calibration corner.
        let sigma_scale = (self.sigma_vt.0 / CALIBRATION_SIGMA_VT.0).max(1.0);
        Watts(bits_scale * input_scale * sigma_scale.sqrt())
    }

    /// Operating frequency at the calibration corner (both designs run at
    /// 50 MHz in Table 1); delay grows quadratically with σ_VT because
    /// resolution-preserving device area — and with it every node
    /// capacitance — grows as σ_VT².
    #[must_use]
    pub fn frequency(&self) -> Hertz {
        let base = 50e6;
        let slowdown = (self.sigma_vt.0 / CALIBRATION_SIGMA_VT.0).powi(2).max(1.0);
        Hertz(base / slowdown)
    }

    /// One recognition takes one WTA evaluation.
    #[must_use]
    pub fn delay(&self) -> Seconds {
        Seconds(1.0 / self.frequency().0)
    }

    /// Energy per recognition, `P/f`.
    #[must_use]
    pub fn energy_per_op(&self, bits: u32) -> Joules {
        self.power(bits) / self.frequency()
    }

    /// Power–delay product, the Fig. 13b metric.
    #[must_use]
    pub fn power_delay_product(&self, bits: u32) -> Joules {
        self.power(bits) * self.delay()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_power_calibration() {
        // The calibrated models must land on Table 1 within 10 %.
        let a = AnalogWtaModel::new(WtaStyle::Andreou17, 40).unwrap();
        let d = AnalogWtaModel::new(WtaStyle::Dlugosz18, 40).unwrap();
        let expect = [
            (a, 3, 3.2e-3),
            (a, 4, 5.0e-3),
            (a, 5, 8.0e-3),
            (d, 3, 2.3e-3),
            (d, 4, 2.9e-3),
            (d, 5, 5.5e-3),
        ];
        for (m, bits, p) in expect {
            let got = m.power(bits).0;
            assert!(
                (got - p).abs() / p < 0.10,
                "{:?} {bits}-bit: {got} vs {p}",
                m.style
            );
        }
    }

    #[test]
    fn frequency_at_calibration_corner() {
        let m = AnalogWtaModel::new(WtaStyle::Andreou17, 40).unwrap();
        assert!((m.frequency().0 - 50e6).abs() < 1.0);
        assert!((m.delay().0 - 20e-9).abs() < 1e-15);
    }

    #[test]
    fn pd_product_grows_quadratically_with_sigma() {
        let m = AnalogWtaModel::new(WtaStyle::Dlugosz18, 40).unwrap();
        let base = m.power_delay_product(5).0;
        let worse = m
            .with_sigma_vt(Volts(15e-3))
            .unwrap()
            .power_delay_product(5)
            .0;
        let ratio = worse / base;
        // 3× σ → ≥ 9× delay, plus the power term: strictly superquadratic.
        assert!(ratio > 9.0, "PD ratio {ratio}");
    }

    #[test]
    fn power_scales_with_inputs() {
        let small = AnalogWtaModel::new(WtaStyle::Andreou17, 20).unwrap();
        let big = AnalogWtaModel::new(WtaStyle::Andreou17, 80).unwrap();
        assert!((big.power(5).0 / small.power(5).0 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn energy_per_op_magnitude() {
        // [18] at 5 bits: 5.5 mW / 50 MHz = 110 pJ per recognition.
        let m = AnalogWtaModel::new(WtaStyle::Dlugosz18, 40).unwrap();
        let e = m.energy_per_op(5).0;
        assert!((e - 110e-12).abs() / 110e-12 < 0.15, "{e}");
    }

    #[test]
    fn validation() {
        assert!(AnalogWtaModel::new(WtaStyle::Andreou17, 1).is_err());
        let m = AnalogWtaModel::new(WtaStyle::Andreou17, 40).unwrap();
        assert!(m.with_sigma_vt(Volts(0.0)).is_err());
    }
}
