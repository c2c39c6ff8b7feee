//! Netlist-caching parasitic crossbar evaluator.
//!
//! A recall sweep reuses one `(array, geometry)` topology for hundreds of
//! queries where only the row drives (and occasionally cell conductances)
//! change. A [`CachedParasiticCrossbar`] therefore builds the netlist
//! ([`crate::parasitic`]) once per topology, wraps it in a
//! [`PreparedSystem`] and restamps values per query, so repeated
//! evaluations reuse the clamp map, sparsity pattern, dense Cholesky
//! factorization (voltage/current drives) or warm-started CG with a cached
//! IC(0) preconditioner (DTCS source-conductance drives). The session
//! keeps the prepared system and the element handles, not the netlist.
//!
//! Restamps are value-only and deterministic, so an evaluation's result
//! depends only on the `(array, drives)` of that query — never on the order
//! of previous queries. That property is what lets the core crate fan
//! queries out to clones of a warmed session and still produce bit-identical
//! results to a sequential loop.

use crate::array::CrossbarArray;
use crate::drive::RowDrive;
use crate::geometry::CrossbarGeometry;
use crate::parasitic::{build_network, ColumnReadout, NetworkHandles};
use crate::CrossbarError;
use spinamm_circuit::prelude::*;
use spinamm_circuit::PreparedSystem;
use spinamm_telemetry::{Layer, NoopRecorder, Recorder};

/// Discriminant of a [`RowDrive`] — a cached netlist is only valid for
/// queries whose per-row drive kinds match the ones it was built for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DriveKind {
    Voltage,
    Current,
    SourceConductance,
}

impl From<&RowDrive> for DriveKind {
    fn from(d: &RowDrive) -> Self {
        match d {
            RowDrive::Voltage(_) => DriveKind::Voltage,
            RowDrive::Current(_) => DriveKind::Current,
            RowDrive::SourceConductance { .. } => DriveKind::SourceConductance,
        }
    }
}

/// One cached topology: the prepared solver plus every element handle
/// needed to restamp a query onto it.
#[derive(Debug, Clone)]
struct Session {
    rows: usize,
    cols: usize,
    drive_kinds: Vec<DriveKind>,
    prepared: PreparedSystem,
    handles: NetworkHandles,
}

/// Parasitic crossbar evaluator with cached solver state. See the module
/// docs.
#[derive(Debug, Clone)]
pub struct CachedParasiticCrossbar {
    geometry: CrossbarGeometry,
    session: Option<Session>,
}

impl CachedParasiticCrossbar {
    /// Creates an evaluator for arrays wired with `geometry`. Its solver
    /// backend follows [`PreparedSystem`]'s size rule.
    #[must_use]
    pub fn new(geometry: CrossbarGeometry) -> Self {
        Self {
            geometry,
            session: None,
        }
    }

    /// Whether a netlist is currently cached.
    #[must_use]
    pub fn is_warm(&self) -> bool {
        self.session.is_some()
    }

    /// Drops the cached netlist (the next evaluation rebuilds).
    pub fn invalidate(&mut self) {
        self.session = None;
    }

    /// Cumulative solves that reused a cached factorization (dense Cholesky
    /// or the IC(0) preconditioner) in the current session.
    #[must_use]
    pub fn factorization_reuses(&self) -> u64 {
        self.session
            .as_ref()
            .map_or(0, |s| s.prepared.factorization_reuses())
    }

    /// Cumulative CG iterations avoided by warm starts in the current
    /// session.
    #[must_use]
    pub fn warm_start_iterations_saved(&self) -> u64 {
        self.session
            .as_ref()
            .map_or(0, |s| s.prepared.warm_start_iterations_saved())
    }

    /// Evaluates the array under the given row drives, reusing the cached
    /// netlist when the topology matches. The column output ends are
    /// clamped at the 0 V reference (the DWN clamp potential; drives are
    /// specified relative to it).
    ///
    /// # Errors
    ///
    /// * [`CrossbarError::InputLengthMismatch`] if `drives.len()` differs
    ///   from the row count.
    /// * [`CrossbarError::Circuit`] if the netlist solve fails.
    pub fn evaluate(
        &mut self,
        array: &CrossbarArray,
        drives: &[RowDrive],
    ) -> Result<ColumnReadout, CrossbarError> {
        self.evaluate_with(array, drives, &NoopRecorder)
    }

    /// Like [`CachedParasiticCrossbar::evaluate`], recording solver
    /// telemetry: the `crossbar.solves` counter,
    /// `crossbar.settle_iterations` (CG iterations, or the system dimension
    /// for the dense backend — a proxy for settling work), the
    /// `crossbar.unknowns` histogram, the reuse counters
    /// `crossbar.netlist_cache_hits`, `circuit.factorization_reuses` and
    /// `circuit.warm_start_iterations_saved`, and [`Layer::RESTAMP`] spans.
    /// The readout is that of [`CachedParasiticCrossbar::evaluate`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`CachedParasiticCrossbar::evaluate`].
    pub fn evaluate_with<T: Recorder>(
        &mut self,
        array: &CrossbarArray,
        drives: &[RowDrive],
        recorder: &T,
    ) -> Result<ColumnReadout, CrossbarError> {
        let reusable = self.session.as_ref().is_some_and(|s| {
            s.rows == array.rows()
                && s.cols == array.cols()
                && s.drive_kinds.len() == drives.len()
                && s.drive_kinds
                    .iter()
                    .zip(drives)
                    .all(|(k, d)| *k == DriveKind::from(d))
        });
        if reusable {
            recorder.counter("crossbar.netlist_cache_hits", 1);
        } else {
            // A session build is the crossbar-level "plan compile": the
            // netlist topology, element ids and solver are fixed here and
            // only values are restamped afterwards. The builder rejects a
            // mis-sized drive vector.
            self.session = Some(self.build_session(array, drives)?);
            recorder.counter("crossbar.plan_compiles", 1);
        }
        let session = self.session.as_mut().expect("session built above");
        let handles = &session.handles;

        // Value-only restamp: every setter no-ops on unchanged values.
        let restamp = recorder.span(Layer::RESTAMP);
        for (&id, &g) in handles.cell_ids.iter().zip(array.conductances()) {
            session.prepared.set_conductance(id, g)?;
        }
        for (i, &id) in handles.dummy_ids.iter().enumerate() {
            let dummy = array.dummy_conductance(i).expect("row bounded");
            session.prepared.set_conductance(id, dummy)?;
        }
        for (i, drive) in drives.iter().enumerate() {
            match *drive {
                RowDrive::Voltage(v) => {
                    session.prepared.set_clamp(handles.drive_ids[i], v)?;
                }
                RowDrive::Current(amps) => {
                    session.prepared.set_current(handles.drive_ids[i], amps)?;
                }
                RowDrive::SourceConductance { g, supply } => {
                    session.prepared.set_conductance(handles.drive_ids[i], g)?;
                    let rail = handles.rail_ids[i].expect("DTCS row has a rail");
                    session.prepared.set_clamp(rail, supply)?;
                }
            }
        }
        drop(restamp);

        let (sol, report) = session.prepared.solve_report()?;
        recorder.counter("crossbar.solves", 1);
        recorder.counter("crossbar.settle_iterations", report.stats.iterations as u64);
        recorder.observe("crossbar.unknowns", report.stats.unknowns as f64);
        if report.factorization_reused {
            recorder.counter("circuit.factorization_reuses", 1);
        }
        if report.iterations_saved > 0 {
            recorder.counter(
                "circuit.warm_start_iterations_saved",
                report.iterations_saved as u64,
            );
        }

        let power = session.prepared.dissipated_power(&sol);
        Ok(handles.readout(array, &sol, power, session.prepared.node_count()))
    }

    /// Builds the netlist for this topology and prepares it.
    fn build_session(
        &self,
        array: &CrossbarArray,
        drives: &[RowDrive],
    ) -> Result<Session, CrossbarError> {
        let network = build_network(array, drives, self.geometry, Farads(0.0))?;
        Ok(Session {
            rows: array.rows(),
            cols: array.cols(),
            drive_kinds: drives.iter().map(DriveKind::from).collect(),
            prepared: PreparedSystem::new(&network.net)?,
            handles: network.handles,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use spinamm_circuit::units::Siemens;
    use spinamm_memristor::{DeviceLimits, LevelMap, WriteScheme};
    use spinamm_telemetry::MemoryRecorder;

    fn programmed_array(rows: usize, cols: usize, seed: u64) -> CrossbarArray {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let map = LevelMap::new(DeviceLimits::PAPER, 5).unwrap();
        let scheme = WriteScheme::paper();
        let mut a = CrossbarArray::new(rows, cols, DeviceLimits::PAPER).unwrap();
        for j in 0..cols {
            let levels: Vec<u32> = (0..rows).map(|i| ((i * 13 + j * 7) % 32) as u32).collect();
            a.program_pattern(j, &levels, &map, &scheme, &mut rng)
                .unwrap();
        }
        a
    }

    /// The cold reference: the same builder's netlist, solved from scratch
    /// by `Netlist::solve_dc` (dense Cholesky at every size) — a solver path
    /// independent of the prepared system's restamps, cached factorizations,
    /// warm starts and CG.
    fn cold(
        geometry: CrossbarGeometry,
        array: &CrossbarArray,
        drives: &[RowDrive],
    ) -> ColumnReadout {
        let network = build_network(array, drives, geometry, Farads(0.0)).unwrap();
        let sol = network.net.solve_dc().unwrap();
        let power = sol.dissipated_power(&network.net);
        let nodes = network.net.node_count();
        network.handles.readout(array, &sol, power, nodes)
    }

    fn dtcs_drives(rows: usize, step: f64) -> Vec<RowDrive> {
        (0..rows)
            .map(|i| RowDrive::SourceConductance {
                g: Siemens(1e-4 + step * (i % 7) as f64),
                supply: Volts(0.03),
            })
            .collect()
    }

    fn assert_agrees(cached: &ColumnReadout, cold: &ColumnReadout, tol: f64) {
        for (got, want) in cached.column_currents.iter().zip(&cold.column_currents) {
            let scale = want.0.abs().max(1e-12);
            assert!(
                (got.0 - want.0).abs() / scale < tol,
                "cached {} vs cold {}",
                got.0,
                want.0
            );
        }
        let p = (cached.dissipated_power.0 - cold.dissipated_power.0).abs()
            / cold.dissipated_power.0.max(1e-30);
        assert!(p < tol, "power mismatch {p}");
    }

    #[test]
    fn cached_matches_cold_across_drive_sequence() {
        let a = programmed_array(8, 5, 1);
        let geom = CrossbarGeometry::PAPER;
        let mut cached = CachedParasiticCrossbar::new(geom);
        for q in 0..6 {
            let drives = dtcs_drives(8, 1e-5 * (q + 1) as f64);
            let want = cold(geom, &a, &drives);
            let got = cached.evaluate(&a, &drives).unwrap();
            assert_agrees(&got, &want, 1e-9);
        }
        assert!(cached.is_warm());
    }

    #[test]
    fn cached_matches_cold_for_voltage_and_current_drives() {
        let a = programmed_array(6, 4, 2);
        let geom = CrossbarGeometry::PAPER;
        let mut cached = CachedParasiticCrossbar::new(geom);
        let v_drives: Vec<RowDrive> = (0..6)
            .map(|i| RowDrive::Voltage(Volts(0.005 * (i + 1) as f64)))
            .collect();
        assert_agrees(
            &cached.evaluate(&a, &v_drives).unwrap(),
            &cold(geom, &a, &v_drives),
            1e-9,
        );
        // Kind change → rebuild, still correct.
        let i_drives = vec![RowDrive::Current(Amps(2e-6)); 6];
        assert_agrees(
            &cached.evaluate(&a, &i_drives).unwrap(),
            &cold(geom, &a, &i_drives),
            1e-9,
        );
    }

    #[test]
    fn cache_hits_and_reuse_counters_recorded() {
        let a = programmed_array(8, 5, 3);
        let mut cached = CachedParasiticCrossbar::new(CrossbarGeometry::PAPER);
        let rec = MemoryRecorder::default();
        for q in 0..4 {
            let drives = dtcs_drives(8, 1e-5 * (q + 1) as f64);
            cached.evaluate_with(&a, &drives, &rec).unwrap();
        }
        let snap = rec.snapshot();
        assert_eq!(snap.counter("crossbar.solves"), 4);
        // First query builds; the other three hit the cache.
        assert_eq!(snap.counter("crossbar.netlist_cache_hits"), 3);
        // Dense path at this scale: the factorization is rebuilt whenever
        // the DAC conductances change, never when they repeat.
        let repeat = dtcs_drives(8, 1e-5);
        cached.evaluate_with(&a, &repeat, &rec).unwrap();
        cached.evaluate_with(&a, &repeat, &rec).unwrap();
        let snap = rec.snapshot();
        assert_eq!(snap.counter("circuit.factorization_reuses"), 1);
        assert!(cached.factorization_reuses() >= 1);
    }

    #[test]
    fn session_builds_count_plan_compiles_and_restamps_are_spanned() {
        let a = programmed_array(8, 5, 3);
        let mut cached = CachedParasiticCrossbar::new(CrossbarGeometry::PAPER);
        let rec = MemoryRecorder::default();
        for q in 0..4 {
            let drives = dtcs_drives(8, 1e-5 * (q + 1) as f64);
            cached.evaluate_with(&a, &drives, &rec).unwrap();
        }
        // A drive-kind change invalidates the session: second build.
        let kinds_changed: Vec<RowDrive> = (0..8).map(|_| RowDrive::Voltage(Volts(0.03))).collect();
        cached.evaluate_with(&a, &kinds_changed, &rec).unwrap();
        let snap = rec.snapshot();
        assert_eq!(snap.counter("crossbar.plan_compiles"), 2);
        assert_eq!(
            snap.counter("crossbar.plan_compiles") + snap.counter("crossbar.netlist_cache_hits"),
            5,
            "every evaluation either builds a session or reuses one"
        );
        let restamps = snap
            .span_stats("crossbar.restamp_ns")
            .expect("restamp span recorded");
        assert_eq!(restamps.count, 5, "every evaluation restamps");
    }

    #[test]
    fn cg_scale_cached_matches_cold() {
        // Big enough that node_count − 1 > AUTO_DENSE_LIMIT → sparse CG.
        let a = programmed_array(16, 14, 4);
        let geom = CrossbarGeometry::PAPER;
        let mut cached = CachedParasiticCrossbar::new(geom);
        for q in 0..3 {
            let drives = dtcs_drives(16, 2e-5 * (q + 1) as f64);
            let want = cold(geom, &a, &drives);
            let got = cached.evaluate(&a, &drives).unwrap();
            assert_agrees(&got, &want, 1e-7);
        }
        assert!(cached.warm_start_iterations_saved() > 0 || cached.factorization_reuses() > 0);
    }

    #[test]
    fn lossless_topology_supported() {
        let mut a = programmed_array(5, 3, 5);
        a.equalize_rows(None).unwrap();
        let geom = CrossbarGeometry::lossless();
        let mut cached = CachedParasiticCrossbar::new(geom);
        let drives = dtcs_drives(5, 5e-5);
        assert_agrees(
            &cached.evaluate(&a, &drives).unwrap(),
            &cold(geom, &a, &drives),
            1e-9,
        );
    }

    #[test]
    fn size_change_invalidates_cache() {
        let geom = CrossbarGeometry::PAPER;
        let mut cached = CachedParasiticCrossbar::new(geom);
        let a1 = programmed_array(6, 4, 6);
        cached.evaluate(&a1, &dtcs_drives(6, 1e-5)).unwrap();
        let a2 = programmed_array(8, 4, 7);
        let drives = dtcs_drives(8, 1e-5);
        assert_agrees(
            &cached.evaluate(&a2, &drives).unwrap(),
            &cold(geom, &a2, &drives),
            1e-9,
        );
        cached.invalidate();
        assert!(!cached.is_warm());
    }

    #[test]
    fn drive_length_checked() {
        let a = programmed_array(4, 3, 8);
        let mut cached = CachedParasiticCrossbar::new(CrossbarGeometry::PAPER);
        assert!(matches!(
            cached.evaluate(&a, &[RowDrive::Voltage(Volts(0.03)); 3]),
            Err(CrossbarError::InputLengthMismatch { .. })
        ));
    }

    #[test]
    fn cached_matches_cold_under_a_fault_map() {
        use spinamm_faults::{FaultMap, FaultModel};
        let mut a = programmed_array(8, 5, 10);
        let mut model = FaultModel::stuck(0.15).unwrap();
        model.spread_sigma = 0.05;
        model.open_col_rate = 0.2;
        model.short_col_rate = 0.2;
        let map = FaultMap::sample(&model, 8, 5, 42).unwrap();
        // Make sure this realization exercises both cells and columns.
        assert!(map.injected_count() > 0);
        let disconnected: Vec<usize> = (0..5).filter(|&j| map.col_disconnected(j)).collect();
        a.set_fault_map(map).unwrap();
        a.retrim_dummies();

        let geom = CrossbarGeometry::PAPER;
        let mut cached = CachedParasiticCrossbar::new(geom);
        for q in 0..3 {
            let drives = dtcs_drives(8, 1e-5 * (q + 1) as f64);
            let want = cold(geom, &a, &drives);
            let got = cached.evaluate(&a, &drives).unwrap();
            assert_agrees(&got, &want, 1e-9);
            for &j in &disconnected {
                assert_eq!(want.column_currents[j].0, 0.0);
                assert_eq!(got.column_currents[j].0, 0.0);
            }
        }
    }

    #[test]
    fn evaluation_is_order_independent() {
        // The same query must produce bit-identical results whether it is
        // the 2nd or the 5th evaluation of a session — the property batch
        // recall relies on.
        let a = programmed_array(8, 5, 9);
        let geom = CrossbarGeometry::PAPER;
        let queries: Vec<Vec<RowDrive>> = (0..4)
            .map(|q| dtcs_drives(8, 1e-5 * (q + 1) as f64))
            .collect();

        let mut s1 = CachedParasiticCrossbar::new(geom);
        s1.evaluate(&a, &queries[0]).unwrap();
        let mut s2 = s1.clone();
        // s1 sees queries 1, 2, 3 in order; s2 jumps straight to 3.
        s1.evaluate(&a, &queries[1]).unwrap();
        s1.evaluate(&a, &queries[2]).unwrap();
        let r1 = s1.evaluate(&a, &queries[3]).unwrap();
        let r2 = s2.evaluate(&a, &queries[3]).unwrap();
        for (x, y) in r1.column_currents.iter().zip(&r2.column_currents) {
            assert_eq!(x.0, y.0, "order-dependent column current");
        }
        for (x, y) in r1.row_input_voltages.iter().zip(&r2.row_input_voltages) {
            assert_eq!(x.0, y.0, "order-dependent input voltage");
        }
        assert_eq!(r1.dissipated_power.0, r2.dissipated_power.0);
    }
}
