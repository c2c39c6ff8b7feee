//! Property-based tests for the spin-device models: invariants of the wall
//! dynamics, the behavioural neuron and the thermal statistics.

use proptest::prelude::*;
use spinamm_circuit::units::{Amps, Hertz, Kelvin, Seconds};
use spinamm_spin::dynamics::DwDynamics;
use spinamm_spin::geometry::DwGeometry;
use spinamm_spin::neuron::{DomainWallNeuron, NeuronConfig};
use spinamm_spin::thermal::ThermalModel;
use spinamm_spin::{Mtj, Polarity};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Calibration is exact for any geometry and target: the analytic
    /// threshold of a calibrated model equals the requested current.
    #[test]
    fn calibration_round_trips(
        factor in 0.3..3.0f64,
        target_ua in 0.1..10.0f64,
    ) {
        let geometry = DwGeometry::REFERENCE.scaled(factor).unwrap();
        let d = DwDynamics::calibrated(
            spinamm_spin::MagnetMaterial::NIFE,
            geometry,
            Amps(target_ua * 1e-6),
        )
        .unwrap();
        let got = d.analytic_threshold().0;
        prop_assert!(((got - target_ua * 1e-6) / (target_ua * 1e-6)).abs() < 1e-9);
    }

    /// The wall-motion ODE is sign-symmetric: reversing the current mirrors
    /// the trajectory.
    #[test]
    fn dynamics_sign_symmetry(i_ua in 1.2..8.0f64) {
        let d = DwDynamics::paper_reference();
        let fwd = d.simulate(Amps(i_ua * 1e-6));
        let rev = d.simulate(Amps(-i_ua * 1e-6));
        prop_assert_eq!(fwd.switched, rev.switched);
        prop_assert!((fwd.final_position + rev.final_position).abs() < 1e-12);
        match (fwd.switching_time, rev.switching_time) {
            (Some(a), Some(b)) => prop_assert!((a.0 - b.0).abs() < 1e-15),
            (None, None) => {}
            _ => prop_assert!(false, "asymmetric switching"),
        }
    }

    /// Switching time decreases monotonically with overdrive.
    #[test]
    fn switching_time_monotone(base in 1.5..6.0f64, extra in 0.5..4.0f64) {
        let d = DwDynamics::paper_reference();
        let t1 = d.switching_time(Amps(base * 1e-6));
        let t2 = d.switching_time(Amps((base + extra) * 1e-6));
        if let (Some(t1), Some(t2)) = (t1, t2) {
            prop_assert!(t2.0 <= t1.0 * 1.001, "t({base}) = {} < t = {}", t1.0, t2.0);
        }
    }

    /// The behavioural neuron is a *comparator with memory*: after any
    /// sequence of pulses, the state equals the direction of the last
    /// super-threshold pulse (or the initial state if none occurred).
    #[test]
    fn neuron_remembers_last_strong_pulse(
        pulses in proptest::collection::vec((-5.0..5.0f64, any::<bool>()), 1..20),
    ) {
        let config = NeuronConfig::paper();
        let pulse_len = Seconds(10e-9);
        // Effective threshold at this pulse: depinning + transit.
        let eff = spinamm_core_effective(&config, pulse_len);
        let mut neuron = DomainWallNeuron::new(config);
        let mut expected = Polarity::Down;
        for &(i_ua, _) in &pulses {
            let i = Amps(i_ua * 1e-6);
            neuron.apply(i, pulse_len);
            if i.0.abs() > eff {
                expected = if i.0 > 0.0 { Polarity::Up } else { Polarity::Down };
            }
        }
        prop_assert_eq!(neuron.state(), expected);
    }

    /// Thermal switching probability is monotone in current, in pulse
    /// length, and decreasing in barrier height.
    #[test]
    fn thermal_probability_monotonicities(
        frac in 0.0..0.95f64,
        delta in 0.0..0.05f64,
        pulse_ns in 1.0..100.0f64,
    ) {
        let ic = Amps(1e-6);
        let t20 = ThermalModel::PAPER;
        let t40 = ThermalModel::new(40.0, Hertz(1e9), Kelvin(300.0)).unwrap();
        let pulse = Seconds(pulse_ns * 1e-9);
        let p1 = t20.switching_probability(Amps(frac * 1e-6), ic, pulse);
        let p2 = t20.switching_probability(Amps((frac + delta) * 1e-6), ic, pulse);
        prop_assert!(p2 >= p1 - 1e-12);
        let p_long = t20.switching_probability(Amps(frac * 1e-6), ic, Seconds(pulse.0 * 2.0));
        prop_assert!(p_long >= p1 - 1e-12);
        let p_tall = t40.switching_probability(Amps(frac * 1e-6), ic, pulse);
        prop_assert!(p_tall <= p1 + 1e-12);
    }

    /// The MTJ reference always separates the two states, for any valid
    /// stack.
    #[test]
    fn mtj_reference_separates(rp in 100.0..50_000.0f64, ratio in 1.01..10.0f64) {
        let m = Mtj::new(
            spinamm_circuit::units::Ohms(rp),
            spinamm_circuit::units::Ohms(rp * ratio),
        )
        .unwrap();
        let r_ref = m.reference_resistance().0;
        prop_assert!(m.resistance(Polarity::Up).0 < r_ref);
        prop_assert!(m.resistance(Polarity::Down).0 > r_ref);
        prop_assert!(m.tmr() > 0.0);
    }
}

/// Mirror of `SpinSarAdc::effective_threshold` without depending on the
/// core crate (spin must stay downstream-free): threshold + transit
/// overdrive for the pulse.
fn spinamm_core_effective(config: &NeuronConfig, pulse: Seconds) -> f64 {
    config.threshold.0
        + config.travel_length / (pulse.0 * config.mobility * config.drift_velocity_per_amp)
}
