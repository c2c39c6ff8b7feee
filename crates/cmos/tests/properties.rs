//! Property-based tests for the CMOS models: DAC monotonicity and
//! compression, and Pelgrom mismatch scaling.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spinamm_circuit::units::{Amps, Micrometers, Siemens, Volts};
use spinamm_cmos::{DtcsDac, Tech45};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The nominal DAC transfer is strictly monotone into any load, for any
    /// design point.
    #[test]
    fn dac_monotone_into_any_load(
        bits in 1u32..=8,
        fs_ua in 1.0..100.0f64,
        load_ratio in 0.1..100.0f64,
    ) {
        let dac = DtcsDac::design(bits, Amps(fs_ua * 1e-6), Volts(0.030), &Tech45::DEFAULT)
            .unwrap();
        let g_full = dac.ideal_conductance((1 << bits) - 1).unwrap();
        let load = Siemens(g_full.0.max(1e-12) * load_ratio);
        let mut last = -1.0;
        for code in 0..(1u32 << bits) {
            let i = dac.ideal_current(code, load).unwrap().0;
            prop_assert!(i > last, "code {code}: {i} after {last}");
            last = i;
        }
    }

    /// Compression only ever *reduces* the current relative to the unloaded
    /// ideal `ΔV·G(code)`, and INL grows monotonically as the load shrinks.
    #[test]
    fn dac_compression_is_one_sided(bits in 2u32..=6, code_frac in 0.1..1.0f64) {
        let dac = DtcsDac::design(bits, Amps(10e-6), Volts(0.030), &Tech45::DEFAULT).unwrap();
        let top = (1u32 << bits) - 1;
        let code = ((f64::from(top) * code_frac) as u32).max(1);
        let unloaded = 0.030 * dac.ideal_conductance(code).unwrap().0;
        for ratio in [100.0, 10.0, 1.0, 0.3] {
            let g_full = dac.ideal_conductance(top).unwrap();
            let i = dac
                .ideal_current(code, Siemens(g_full.0 * ratio))
                .unwrap()
                .0;
            prop_assert!(i <= unloaded * (1.0 + 1e-12));
        }
        let g_full = dac.ideal_conductance(top).unwrap();
        let inl_light = dac.current_inl(Siemens(g_full.0 * 50.0));
        let inl_heavy = dac.current_inl(Siemens(g_full.0 * 0.5));
        prop_assert!(inl_heavy >= inl_light);
    }

    /// Sampled DAC instances remain monotone with overwhelming probability
    /// at the minimum-device mismatch level (binary-weighted DACs lose
    /// monotonicity only when branch errors exceed an LSB, which σ ≈ 0.8 %
    /// cannot do at ≤ 6 bits).
    #[test]
    fn sampled_dac_monotone(seed in 0u64..100, bits in 2u32..=6) {
        let dac = DtcsDac::design(bits, Amps(32e-6), Volts(0.030), &Tech45::DEFAULT).unwrap();
        let inst = dac.sample(&mut ChaCha8Rng::seed_from_u64(seed));
        let mut last = -1.0;
        for code in 0..(1u32 << bits) {
            let g = inst.conductance(code).unwrap().0;
            prop_assert!(g > last - 1e-15, "code {code}");
            last = g;
        }
    }

    /// Pelgrom scaling: σ_VT falls as 1/√area for any device shape.
    #[test]
    fn pelgrom_scaling(w in 0.09..2.0f64, l in 0.045..0.5f64, k in 2.0..10.0f64) {
        let t = Tech45::DEFAULT;
        let s1 = t.sigma_vt(Micrometers(w), Micrometers(l)).0;
        let s2 = t.sigma_vt(Micrometers(w * k), Micrometers(l * k)).0;
        prop_assert!((s1 / s2 - k).abs() < 1e-9);
    }
}
