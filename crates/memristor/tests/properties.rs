//! Property-based tests for the programming path: retry-with-backoff must
//! honour its pulse budget for *any* target, pin state and policy — not
//! just the curated cases in the unit tests.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spinamm_memristor::{DeviceLimits, LevelMap, Memristor, RetryPolicy, WriteScheme};

proptest! {
    /// The retry loop terminates within the configured pulse budget, no
    /// matter how hopeless the cell: pinned at the wrong extreme, tight
    /// tolerance, aggressive escalation — the budget is a hard ceiling.
    #[test]
    fn retry_never_exceeds_pulse_budget(
        seed in any::<u64>(),
        level in 0u32..32,
        tolerance in 0.005..0.2f64,
        max_attempts in 1u32..6,
        amplitude_step in 0.0..1.0f64,
        pulse_budget in 1u32..200,
        pin in 0u8..3, // 0 = healthy, 1 = pinned at g_min, 2 = pinned at g_max
    ) {
        let limits = DeviceLimits::PAPER;
        let map = LevelMap::new(limits, 5).unwrap();
        let target = map.conductance(level).unwrap();
        let scheme = WriteScheme::new(tolerance).unwrap();
        let policy = RetryPolicy::new(max_attempts, amplitude_step, pulse_budget).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut cell = Memristor::new(limits);
        match pin {
            1 => cell.pin(limits.g_min()),
            2 => cell.pin(limits.g_max()),
            _ => {}
        }
        let report = cell
            .program_with_retry(target, &scheme, &policy, &mut rng)
            .unwrap();
        prop_assert!(
            report.pulses <= policy.pulse_budget,
            "{} pulses spent against a budget of {}",
            report.pulses,
            policy.pulse_budget
        );
        prop_assert!(report.attempts <= policy.max_attempts);
        // A recovered cell really is in band; an unrecovered one is not.
        let rel = (cell.conductance().0 - target.0) / target.0;
        if report.recovered {
            prop_assert!(rel.abs() <= scheme.tolerance + 1e-12);
        }
    }

    /// With a generous budget a healthy (unpinned) cell always recovers on
    /// the first attempt — retries exist for faulted devices, not for the
    /// nominal write path.
    #[test]
    fn healthy_cells_recover_first_attempt(
        seed in any::<u64>(),
        level in 0u32..32,
    ) {
        let limits = DeviceLimits::PAPER;
        let map = LevelMap::new(limits, 5).unwrap();
        let target = map.conductance(level).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut cell = Memristor::new(limits);
        let report = cell
            .program_with_retry(
                target,
                &WriteScheme::paper(),
                &RetryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        prop_assert!(report.recovered);
        prop_assert!(report.attempts <= 1);
    }
}
