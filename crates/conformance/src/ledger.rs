//! The tolerance ledger: the machine-readable contract describing how much
//! the recall fidelities and execution paths are allowed to disagree.
//!
//! Two families of promises exist (DESIGN.md §9):
//!
//! * **Bit-identity.** `recall_batch`, the [`spinamm_engine::RecallEngine`]
//!   at any worker count, requests served over the network tier, and every
//!   deployment driven through the engine must reproduce the sequential
//!   reference **exactly** — same winner, same codes, same energy floats.
//!   These paths share one RNG schedule by construction (PRs 2–4), so any
//!   difference at all is a bug. Their budget in this ledger is implicitly
//!   zero and not configurable.
//! * **Bounded divergence.** Different fidelities (ideal correlation vs
//!   driven crossbar vs parasitic solve) and different decompositions
//!   (flat vs partitioned vs hierarchical) compute physically different
//!   estimates of the same dot products. They are allowed to disagree
//!   within the numeric budgets below; outside them the divergence is a
//!   ledger violation.

use crate::ConformanceError;

/// Numeric divergence budgets for every non-bit-identical comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ToleranceLedger {
    /// Max |DOM difference| in LSB codes between the ideal-correlation and
    /// driven-crossbar fidelities for the same query. The driven fidelity
    /// sees source-resistance sag that ideal evaluation ignores, so its
    /// codes sit systematically at or below the ideal ones.
    pub ideal_driven_dom_lsb: u32,
    /// Max |DOM difference| in LSB codes between the driven and parasitic
    /// fidelities. The cached parasitic solve adds line resistance on top
    /// of the driven model, a much smaller perturbation.
    pub driven_parasitic_dom_lsb: u32,
    /// A winner mismatch between two compared paths is excused only when
    /// *both* sides ranked the contest this closely (their top-two code
    /// margin is at or below this many LSBs): near-ties legitimately flip
    /// under re-quantization.
    pub tie_margin_lsb: u32,
    /// Max |DOM difference| for the metamorphic input-permutation check
    /// (ideal fidelity, input mismatch disabled). Programming write noise
    /// is resampled per build, so permuted rebuilds track only to within a
    /// code or so.
    pub permutation_dom_lsb: u32,
    /// Minimum corpus-wide winner agreement between the flat and the
    /// 2-segment partitioned decomposition at driven fidelity. Summed
    /// segment codes re-rank near-ties, so per-query agreement is bounded,
    /// not exact.
    pub min_flat_partitioned_agreement: f64,
    /// Minimum corpus-wide winner agreement between the flat module and
    /// the 2-cluster hierarchical deployment at driven fidelity. Cluster
    /// routing loses globally-close seconds, so this floor is the loosest.
    pub min_flat_hierarchical_agreement: f64,
    /// Minimum corpus-wide winner agreement between the flat module and
    /// the tiled capacity pool at driven fidelity, comparing the flat
    /// winner to the pool's k=1 match mapped back to its build ordinal.
    /// Tiles resample programming noise and calibrate independently (only
    /// tile 0 shares the flat module's device samples), so per-query
    /// agreement is bounded, not exact.
    pub min_flat_tiled_agreement: f64,
}

impl ToleranceLedger {
    /// The committed budgets, with roughly 2× headroom over the maxima
    /// observed across a 240-case seeded calibration sweep (the
    /// `corpus::tests::calibration_sweep` helper; the `observed_*` fields
    /// of the conformance report track the live maxima against these
    /// budgets). Measured: ideal↔driven |ΔDOM| ≤ 6 LSB, driven↔parasitic
    /// ≤ 1 LSB, permutation ≤ 1 LSB, flat↔partitioned agreement 1.000,
    /// flat↔hierarchical agreement 0.990, flat↔tiled agreement 1.000.
    pub const DEFAULT: Self = Self {
        ideal_driven_dom_lsb: 12,
        driven_parasitic_dom_lsb: 3,
        tie_margin_lsb: 3,
        permutation_dom_lsb: 3,
        min_flat_partitioned_agreement: 0.90,
        min_flat_hierarchical_agreement: 0.85,
        min_flat_tiled_agreement: 0.90,
    };

    /// Checks the budgets are usable: agreement floors in `[0, 1]`, finite.
    ///
    /// # Errors
    ///
    /// Returns [`ConformanceError::InvalidParameter`] otherwise.
    pub fn validate(&self) -> Result<(), ConformanceError> {
        for rate in [
            self.min_flat_partitioned_agreement,
            self.min_flat_hierarchical_agreement,
            self.min_flat_tiled_agreement,
        ] {
            if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                return Err(ConformanceError::InvalidParameter {
                    what: "ledger agreement floors must be within [0, 1]",
                });
            }
        }
        Ok(())
    }
}

impl Default for ToleranceLedger {
    fn default() -> Self {
        Self::DEFAULT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_ledger_validates() {
        assert!(ToleranceLedger::DEFAULT.validate().is_ok());
    }

    #[test]
    fn bad_agreement_floor_is_rejected() {
        let mut ledger = ToleranceLedger::DEFAULT;
        ledger.min_flat_partitioned_agreement = 1.5;
        assert!(ledger.validate().is_err());
        ledger.min_flat_partitioned_agreement = f64::NAN;
        assert!(ledger.validate().is_err());
    }
}
