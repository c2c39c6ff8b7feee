//! The memristor device: a bounded conductance state.

use crate::MemristorError;
use spinamm_circuit::units::{Ohms, Seconds, Siemens};

/// The programmable conductance window of a memristor device family.
///
/// Expressed as the resistance range `[r_on, r_off]` with `r_on < r_off`;
/// conductances then span `[1/r_off, 1/r_on]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceLimits {
    r_on: Ohms,
    r_off: Ohms,
}

impl DeviceLimits {
    /// The paper's Table-2 device: 1 kΩ (on) to 32 kΩ (off).
    pub const PAPER: DeviceLimits = DeviceLimits {
        r_on: Ohms(1_000.0),
        r_off: Ohms(32_000.0),
    };

    /// Creates limits from the on (lowest) and off (highest) resistances.
    ///
    /// # Errors
    ///
    /// Returns [`MemristorError::InvalidParameter`] unless
    /// `0 < r_on < r_off` and both are finite.
    pub fn new(r_on: Ohms, r_off: Ohms) -> Result<Self, MemristorError> {
        if !(r_on.0.is_finite() && r_off.0.is_finite()) {
            return Err(MemristorError::InvalidParameter {
                what: "resistance bounds must be finite",
            });
        }
        if r_on.0 <= 0.0 || r_off.0 <= r_on.0 {
            return Err(MemristorError::InvalidParameter {
                what: "require 0 < r_on < r_off",
            });
        }
        Ok(Self { r_on, r_off })
    }

    /// Creates limits scaled from the paper's window: both bounds multiplied
    /// by `factor`. Used by the Fig. 9a conductance-range sweep, where the
    /// paper moves the window from 200 Ω–6.4 kΩ up to high-resistance ranges.
    ///
    /// # Errors
    ///
    /// Returns [`MemristorError::InvalidParameter`] if `factor` is not a
    /// finite positive number.
    pub fn scaled_from_paper(factor: f64) -> Result<Self, MemristorError> {
        if !(factor.is_finite() && factor > 0.0) {
            return Err(MemristorError::InvalidParameter {
                what: "scale factor must be finite and positive",
            });
        }
        Self::new(
            Ohms(Self::PAPER.r_on.0 * factor),
            Ohms(Self::PAPER.r_off.0 * factor),
        )
    }

    /// Lowest programmable resistance (the "on" state).
    #[must_use]
    pub fn r_on(&self) -> Ohms {
        self.r_on
    }

    /// Highest programmable resistance (the "off" state).
    #[must_use]
    pub fn r_off(&self) -> Ohms {
        self.r_off
    }

    /// Lowest programmable conductance (`1 / r_off`).
    #[must_use]
    pub fn g_min(&self) -> Siemens {
        self.r_off.to_siemens()
    }

    /// Highest programmable conductance (`1 / r_on`).
    #[must_use]
    pub fn g_max(&self) -> Siemens {
        self.r_on.to_siemens()
    }

    /// On/off conductance ratio, a figure of merit for dynamic range.
    #[must_use]
    pub fn dynamic_range(&self) -> f64 {
        self.r_off.0 / self.r_on.0
    }

    /// `true` if `g` lies inside the programmable window (inclusive, with a
    /// 1 ppm tolerance for floating-point round-off).
    #[must_use]
    pub fn contains(&self, g: Siemens) -> bool {
        let lo = self.g_min().0 * (1.0 - 1e-6);
        let hi = self.g_max().0 * (1.0 + 1e-6);
        g.0 >= lo && g.0 <= hi
    }

    /// Clamps `g` into the programmable window.
    #[must_use]
    pub fn clamp(&self, g: Siemens) -> Siemens {
        Siemens(g.0.clamp(self.g_min().0, self.g_max().0))
    }

    fn check(&self, g: Siemens) -> Result<(), MemristorError> {
        if self.contains(g) {
            Ok(())
        } else {
            Err(MemristorError::ConductanceOutOfRange {
                requested: g.0,
                min: self.g_min().0,
                max: self.g_max().0,
            })
        }
    }
}

/// The mutable state of one memristor: the programmed conductance, the
/// programmed reference the last write left behind, the age since that
/// write, and the lifetime write count.
///
/// This is what a crossbar stores per cell: 32 bytes, `Copy`. The device's
/// [`DeviceLimits`] and any stuck-at pin belong to the array and its fault
/// map, and [`Memristor::from_state`] joins the three into a device again.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceState {
    conductance: Siemens,
    reference: Siemens,
    age: Seconds,
    writes: u64,
}

// A crossbar pool holds one state per cell; keep it at four words.
const _: () = assert!(std::mem::size_of::<DeviceState>() <= 32);

impl DeviceState {
    /// A freshly written state holding `g`: reference `g`, age zero.
    fn written(g: Siemens, writes: u64) -> Self {
        Self {
            conductance: g,
            reference: g,
            age: Seconds(0.0),
            writes,
        }
    }
}

/// One Ag-Si memristor cell: a conductance state bounded by
/// [`DeviceLimits`].
///
/// Freshly constructed cells sit in the fully "off" (lowest conductance)
/// state, which is how a crossbar powers up before programming. A cell can
/// additionally be *pinned* — a hard stuck-at defect: writes keep updating
/// the programmed state (the tuner cannot tell a stuck cell apart except by
/// its verify reads), but every read observes the pinned value.
///
/// Every write pulse re-forms the filament, so the cell also tracks its
/// *programmed reference*: the conductance the last write left behind and
/// the age (seconds since that write). Retention decays from the reference,
/// never from an already-drifted observation — that is what makes aging
/// time-composable (`age(t₁); age(t₂) ≡ age(t₁+t₂)`). A lifetime wear
/// counter accumulates every pulse for endurance accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Memristor {
    limits: DeviceLimits,
    state: DeviceState,
    pinned: Option<Siemens>,
}

impl Memristor {
    /// Creates a cell in the off state.
    #[must_use]
    pub fn new(limits: DeviceLimits) -> Self {
        Self::from_state(limits, DeviceState::written(limits.g_min(), 0), None)
    }

    /// Creates a cell already holding conductance `g`.
    ///
    /// # Errors
    ///
    /// Returns [`MemristorError::ConductanceOutOfRange`] if `g` is outside
    /// the programmable window.
    pub fn with_conductance(limits: DeviceLimits, g: Siemens) -> Result<Self, MemristorError> {
        limits.check(g)?;
        Ok(Self::from_state(limits, DeviceState::written(g, 0), None))
    }

    /// The device holding `state` under `limits`, pinned to `pin` (clamped
    /// into the window, as [`Memristor::pin`] does) when it is stuck.
    #[inline]
    #[must_use]
    pub fn from_state(limits: DeviceLimits, state: DeviceState, pin: Option<Siemens>) -> Self {
        Self {
            limits,
            state,
            pinned: pin.map(|g| limits.clamp(g)),
        }
    }

    /// The cell's mutable state, without its limits or pin.
    #[inline]
    #[must_use]
    pub fn state(&self) -> DeviceState {
        self.state
    }

    /// The device's programmable window.
    #[must_use]
    pub fn limits(&self) -> DeviceLimits {
        self.limits
    }

    /// The conductance every read observes: the pinned stuck-at value when
    /// the cell is defective, otherwise the programmed state.
    #[must_use]
    pub fn conductance(&self) -> Siemens {
        self.pinned.unwrap_or(self.state.conductance)
    }

    /// The programmed (intended) state, ignoring any stuck-at pin — what
    /// the write circuitry believes it stored.
    #[must_use]
    pub fn programmed(&self) -> Siemens {
        self.state.conductance
    }

    /// Pins the cell to a stuck-at conductance (clamped into the window).
    /// Subsequent reads observe `g` regardless of programming.
    pub fn pin(&mut self, g: Siemens) {
        self.pinned = Some(self.limits.clamp(g));
    }

    /// Removes a stuck-at pin; reads observe the programmed state again.
    pub fn unpin(&mut self) {
        self.pinned = None;
    }

    /// `true` when the cell is pinned to a stuck-at value.
    #[must_use]
    pub fn is_pinned(&self) -> bool {
        self.pinned.is_some()
    }

    /// The observed resistance state (respects a stuck-at pin).
    #[must_use]
    pub fn resistance(&self) -> Ohms {
        self.conductance().to_ohms()
    }

    /// Overwrites the state exactly (an idealized write, used by tests and
    /// by callers that model write error themselves). Like any write it
    /// re-forms the filament: the programmed reference moves to `g`, the
    /// age since programming resets, and the wear counter ticks once.
    ///
    /// # Errors
    ///
    /// Returns [`MemristorError::ConductanceOutOfRange`] if `g` is outside
    /// the programmable window.
    pub fn set_conductance(&mut self, g: Siemens) -> Result<(), MemristorError> {
        self.limits.check(g)?;
        self.state = DeviceState::written(g, self.state.writes.saturating_add(1));
        Ok(())
    }

    /// One physical write pulse: moves the state (clamped into the window),
    /// re-anchors the programmed reference there, and counts the pulse
    /// toward the endurance budget.
    pub(crate) fn force_conductance(&mut self, g: Siemens) {
        let g = self.limits.clamp(g);
        self.state = DeviceState::written(g, self.state.writes.saturating_add(1));
    }

    /// The programmed reference `g₀`: the conductance the last write pulse
    /// left behind, from which retention decays.
    #[must_use]
    pub fn programmed_reference(&self) -> Siemens {
        self.state.reference
    }

    /// Seconds of drift applied since the last write pulse.
    #[must_use]
    pub fn aged(&self) -> Seconds {
        self.state.age
    }

    /// Lifetime write-pulse count (wear) for endurance accounting.
    #[must_use]
    pub fn writes(&self) -> u64 {
        self.state.writes
    }

    /// Moves the programmed state to `reference · fraction` (floored at the
    /// off state) and records `elapsed` as the cell's age since its last
    /// write. This is the primitive every aging path lands on: the decay is
    /// always applied to the programmed reference, never to an
    /// already-drifted observation, so repeated calls with increasing
    /// `elapsed` compose exactly. Not a write — the reference and wear
    /// counter are untouched.
    ///
    /// # Errors
    ///
    /// Returns [`MemristorError::InvalidParameter`] when `elapsed` is not
    /// finite and non-negative or `fraction` lies outside `[0, 1]`; the
    /// cell is untouched in that case.
    pub fn apply_retention(
        &mut self,
        elapsed: Seconds,
        fraction: f64,
    ) -> Result<(), MemristorError> {
        if !(elapsed.0.is_finite() && elapsed.0 >= 0.0) {
            return Err(MemristorError::InvalidParameter {
                what: "cell age must be finite and non-negative",
            });
        }
        if !(fraction.is_finite() && (0.0..=1.0).contains(&fraction)) {
            return Err(MemristorError::InvalidParameter {
                what: "retention fraction must lie in [0, 1]",
            });
        }
        let g = self.state.reference.0 * fraction;
        self.state.conductance = Siemens(g.max(self.limits.g_min().0));
        self.state.age = elapsed;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_limits() {
        let l = DeviceLimits::PAPER;
        assert_eq!(l.r_on(), Ohms(1_000.0));
        assert_eq!(l.r_off(), Ohms(32_000.0));
        assert!((l.g_max().0 - 1e-3).abs() < 1e-12);
        assert!((l.g_min().0 - 3.125e-5).abs() < 1e-12);
        assert!((l.dynamic_range() - 32.0).abs() < 1e-12);
    }

    #[test]
    fn limits_validation() {
        assert!(DeviceLimits::new(Ohms(100.0), Ohms(200.0)).is_ok());
        assert!(DeviceLimits::new(Ohms(200.0), Ohms(100.0)).is_err());
        assert!(DeviceLimits::new(Ohms(0.0), Ohms(100.0)).is_err());
        assert!(DeviceLimits::new(Ohms(f64::NAN), Ohms(100.0)).is_err());
        assert!(DeviceLimits::new(Ohms(100.0), Ohms(100.0)).is_err());
    }

    #[test]
    fn scaled_from_paper_window() {
        // Fig. 9a's low end: 200 Ω – 6.4 kΩ is the paper window / 5.
        let l = DeviceLimits::scaled_from_paper(0.2).unwrap();
        assert!((l.r_on().0 - 200.0).abs() < 1e-9);
        assert!((l.r_off().0 - 6_400.0).abs() < 1e-9);
        assert!(DeviceLimits::scaled_from_paper(0.0).is_err());
        assert!(DeviceLimits::scaled_from_paper(-1.0).is_err());
        assert!(DeviceLimits::scaled_from_paper(f64::INFINITY).is_err());
    }

    #[test]
    fn contains_and_clamp() {
        let l = DeviceLimits::PAPER;
        assert!(l.contains(l.g_min()));
        assert!(l.contains(l.g_max()));
        assert!(l.contains(Siemens(5e-4)));
        assert!(!l.contains(Siemens(2e-3)));
        assert!(!l.contains(Siemens(1e-5)));
        assert_eq!(l.clamp(Siemens(2e-3)), l.g_max());
        assert_eq!(l.clamp(Siemens(1e-6)), l.g_min());
        assert_eq!(l.clamp(Siemens(5e-4)), Siemens(5e-4));
    }

    #[test]
    fn new_cell_is_off() {
        let cell = Memristor::new(DeviceLimits::PAPER);
        assert_eq!(cell.conductance(), DeviceLimits::PAPER.g_min());
        assert_eq!(cell.resistance(), Ohms(32_000.0));
    }

    #[test]
    fn set_conductance_bounds() {
        let mut cell = Memristor::new(DeviceLimits::PAPER);
        assert!(cell.set_conductance(Siemens(5e-4)).is_ok());
        assert_eq!(cell.conductance(), Siemens(5e-4));
        assert!(matches!(
            cell.set_conductance(Siemens(0.1)),
            Err(MemristorError::ConductanceOutOfRange { .. })
        ));
        // Failed writes leave the state untouched.
        assert_eq!(cell.conductance(), Siemens(5e-4));
    }

    #[test]
    fn with_conductance_validates() {
        assert!(Memristor::with_conductance(DeviceLimits::PAPER, Siemens(5e-4)).is_ok());
        assert!(Memristor::with_conductance(DeviceLimits::PAPER, Siemens(1.0)).is_err());
    }

    #[test]
    fn pinned_cell_reads_stuck_value_but_tracks_programmed_state() {
        let mut cell = Memristor::new(DeviceLimits::PAPER);
        assert!(!cell.is_pinned());
        cell.pin(DeviceLimits::PAPER.g_max());
        assert!(cell.is_pinned());
        assert_eq!(cell.conductance(), DeviceLimits::PAPER.g_max());
        // Writes still update the programmed (intended) state underneath.
        cell.set_conductance(Siemens(5e-4)).unwrap();
        assert_eq!(cell.programmed(), Siemens(5e-4));
        assert_eq!(cell.conductance(), DeviceLimits::PAPER.g_max());
        assert_eq!(cell.resistance(), Ohms(1_000.0));
        cell.unpin();
        assert!(!cell.is_pinned());
        assert_eq!(cell.conductance(), Siemens(5e-4));
    }

    #[test]
    fn pin_clamps_into_window() {
        let mut cell = Memristor::new(DeviceLimits::PAPER);
        cell.pin(Siemens(1.0));
        assert_eq!(cell.conductance(), DeviceLimits::PAPER.g_max());
        cell.pin(Siemens(0.0));
        assert_eq!(cell.conductance(), DeviceLimits::PAPER.g_min());
    }

    #[test]
    fn a_stored_state_rebuilds_the_same_device() {
        let mut cell = Memristor::new(DeviceLimits::PAPER);
        cell.set_conductance(Siemens(5e-4)).unwrap();
        cell.apply_retention(Seconds(7.0), 0.9).unwrap();
        let state = cell.state();
        assert_eq!(
            Memristor::from_state(DeviceLimits::PAPER, state, None),
            cell
        );
        // A pin passed in is clamped exactly as `pin` clamps it.
        cell.pin(Siemens(1.0));
        let stuck = Memristor::from_state(DeviceLimits::PAPER, state, Some(Siemens(1.0)));
        assert_eq!(stuck, cell);
        assert_eq!(stuck.state(), state);
    }

    #[test]
    fn writes_anchor_reference_and_count_wear() {
        let mut cell = Memristor::new(DeviceLimits::PAPER);
        assert_eq!(cell.writes(), 0);
        assert_eq!(cell.programmed_reference(), DeviceLimits::PAPER.g_min());
        cell.set_conductance(Siemens(5e-4)).unwrap();
        assert_eq!(cell.writes(), 1);
        assert_eq!(cell.programmed_reference(), Siemens(5e-4));
        assert_eq!(cell.aged(), Seconds(0.0));
        cell.force_conductance(Siemens(6e-4));
        assert_eq!(cell.writes(), 2);
        assert_eq!(cell.programmed_reference(), Siemens(6e-4));
        // Rejected writes leave the reference and wear untouched.
        assert!(cell.set_conductance(Siemens(1.0)).is_err());
        assert_eq!(cell.writes(), 2);
        assert_eq!(cell.programmed_reference(), Siemens(6e-4));
    }

    #[test]
    fn apply_retention_decays_from_reference_not_state() {
        let mut cell = Memristor::with_conductance(DeviceLimits::PAPER, Siemens(8e-4)).unwrap();
        cell.apply_retention(Seconds(10.0), 0.9).unwrap();
        assert!((cell.conductance().0 - 7.2e-4).abs() < 1e-12);
        assert_eq!(cell.aged(), Seconds(10.0));
        // A later, shallower fraction is still taken from g₀ — retention
        // stamps are absolute, not cumulative.
        cell.apply_retention(Seconds(20.0), 0.95).unwrap();
        assert!((cell.conductance().0 - 7.6e-4).abs() < 1e-12);
        assert_eq!(cell.writes(), 0, "retention is not a write");
        // Floors at the off state and validates its inputs.
        cell.apply_retention(Seconds(30.0), 0.0).unwrap();
        assert_eq!(cell.conductance(), DeviceLimits::PAPER.g_min());
        assert!(cell.apply_retention(Seconds(-1.0), 0.5).is_err());
        assert!(cell.apply_retention(Seconds(1.0), 1.5).is_err());
        assert!(cell.apply_retention(Seconds(1.0), f64::NAN).is_err());
        assert!(cell.apply_retention(Seconds(f64::NAN), 0.5).is_err());
    }
}
