//! Netlist-caching parasitic crossbar evaluator.
//!
//! A [`ParasiticCrossbar`](crate::ParasiticCrossbar) rebuilds the full
//! netlist — node allocation, element stamping, clamp-map derivation, CSR
//! sorting — on every evaluation, even though a recall sweep reuses one
//! `(array, geometry)` topology for hundreds of queries where only the row
//! drives (and occasionally cell conductances) change. A
//! [`CachedParasiticCrossbar`] builds the netlist once per topology,
//! wraps it in a [`PreparedSystem`] and restamps values per query, so
//! repeated evaluations reuse the clamp map, sparsity pattern, dense
//! Cholesky factorization (voltage/current drives) or warm-started CG with
//! a cached IC(0) preconditioner (DTCS source-conductance drives).
//!
//! Two intentional topology differences versus the cold builder (both
//! electrically equivalent, visible only in diagnostics such as
//! `node_count`):
//!
//! * every DTCS row gets its *own* supply-rail node so per-row supplies can
//!   be restamped independently (the cold builder shares one rail per
//!   distinct supply value);
//! * dummy conductances are always instantiated, even at 0 S, so they own
//!   restampable matrix slots.
//!
//! Restamps are value-only and deterministic, so an evaluation's result
//! depends only on the `(array, drives)` of that query — never on the order
//! of previous queries. That property is what lets the core crate fan
//! queries out to clones of a warmed session and still produce bit-identical
//! results to a sequential loop.

use crate::array::CrossbarArray;
use crate::drive::RowDrive;
use crate::geometry::CrossbarGeometry;
use crate::parasitic::ColumnReadout;
use crate::CrossbarError;
use spinamm_circuit::prelude::*;
use spinamm_circuit::units::Amps;
use spinamm_circuit::{ElementId, PreparedSystem};
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
    /// Memristor elements, row-major.
    cell_ids: Vec<ElementId>,
    /// Per-row dummy conductance elements.
    dummy_ids: Vec<ElementId>,
    /// Column clamp elements (branch current = column output).
    clamp_ids: Vec<ElementId>,
    /// Per-row drive element (clamp, current source or DAC conductance).
    drive_ids: Vec<ElementId>,
    /// Per-row supply-rail clamp for DTCS rows (`None` otherwise).
    rail_ids: Vec<Option<ElementId>>,
    row_inputs: Vec<NodeId>,
    node_count: usize,
}

/// Parasitic crossbar evaluator with cached solver state. See the module
/// docs; results agree with [`crate::ParasiticCrossbar`] to solver
/// tolerance.
#[derive(Debug, Clone)]
pub struct CachedParasiticCrossbar {
    geometry: CrossbarGeometry,
    method: SolveMethod,
    session: Option<Session>,
}

impl CachedParasiticCrossbar {
    /// Creates an evaluator with automatic solver selection.
    #[must_use]
    pub fn new(geometry: CrossbarGeometry) -> Self {
        Self::with_method(geometry, SolveMethod::Auto)
    }

    /// Creates an evaluator with an explicit reduced solve method
    /// (`DenseLu` is rejected at first evaluation).
    #[must_use]
    pub fn with_method(geometry: CrossbarGeometry, method: SolveMethod) -> Self {
        Self {
            geometry,
            method,
            session: None,
        }
    }

    /// The wiring geometry this evaluator was built for.
    #[must_use]
    pub fn geometry(&self) -> CrossbarGeometry {
        self.geometry
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
    /// netlist when the topology matches.
    ///
    /// # Errors
    ///
    /// Same conditions as [`crate::ParasiticCrossbar::evaluate`].
    pub fn evaluate(
        &mut self,
        array: &CrossbarArray,
        drives: &[RowDrive],
    ) -> Result<ColumnReadout, CrossbarError> {
        self.evaluate_with(array, drives, &NoopRecorder)
    }

    /// Like [`CachedParasiticCrossbar::evaluate`], recording the same
    /// solver telemetry as the cold evaluator (`crossbar.solves`,
    /// `crossbar.settle_iterations`, `crossbar.solver_residual`,
    /// `crossbar.unknowns`), the reuse counters
    /// `crossbar.netlist_cache_hits`, `circuit.factorization_reuses` and
    /// `circuit.warm_start_iterations_saved`, and [`Layer::RESTAMP`] and
    /// [`Layer::SOLVE`] spans; the traced solve span carries
    /// `cg_iterations`, `residual` and `factorization_reused` attributes.
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
        if drives.len() != array.rows() {
            return Err(CrossbarError::InputLengthMismatch {
                expected: array.rows(),
                found: drives.len(),
            });
        }
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
            // only values are restamped afterwards.
            recorder.counter("crossbar.plan_compiles", 1);
            self.session = Some(self.build_session(array, drives)?);
        }
        let session = self.session.as_mut().expect("session built above");

        // Value-only restamp: every setter no-ops on unchanged values.
        let restamp = recorder.span(Layer::RESTAMP);
        for (&id, &g) in session.cell_ids.iter().zip(array.conductances()) {
            session.prepared.set_conductance(id, g)?;
        }
        for i in 0..session.rows {
            let dummy = array.dummy_conductance(i).expect("row bounded");
            session
                .prepared
                .set_conductance(session.dummy_ids[i], dummy)?;
        }
        for (i, drive) in drives.iter().enumerate() {
            match *drive {
                RowDrive::Voltage(v) => {
                    session.prepared.set_clamp(session.drive_ids[i], v)?;
                }
                RowDrive::Current(amps) => {
                    session.prepared.set_current(session.drive_ids[i], amps)?;
                }
                RowDrive::SourceConductance { g, supply } => {
                    session.prepared.set_conductance(session.drive_ids[i], g)?;
                    let rail = session.rail_ids[i].expect("DTCS row has a rail");
                    session.prepared.set_clamp(rail, supply)?;
                }
            }
        }
        drop(restamp);

        let solve = recorder.span(Layer::SOLVE);
        let (sol, report) = session.prepared.solve_report()?;
        solve.attr("cg_iterations", report.stats.iterations as f64);
        solve.attr("residual", report.stats.residual);
        solve.attr(
            "factorization_reused",
            if report.factorization_reused {
                1.0
            } else {
                0.0
            },
        );
        drop(solve);
        recorder.counter("crossbar.solves", 1);
        recorder.counter("crossbar.settle_iterations", report.stats.iterations as u64);
        recorder.gauge("crossbar.solver_residual", report.stats.residual);
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

        // A defective (open or shorted) column line never delivers its
        // current to the sense node, so its readout is zero (mirrors the
        // cold evaluator).
        let column_currents = session
            .clamp_ids
            .iter()
            .enumerate()
            .map(|(j, &id)| {
                if array.column_disconnected(j) {
                    Amps(0.0)
                } else {
                    Amps(-sol.current(id).0)
                }
            })
            .collect();
        let row_input_voltages = session.row_inputs.iter().map(|&n| sol.voltage(n)).collect();
        let dissipated_power = session.prepared.dissipated_power(&sol);

        Ok(ColumnReadout {
            column_currents,
            row_input_voltages,
            dissipated_power,
            node_count: session.node_count,
        })
    }

    /// Builds the netlist for this topology and prepares it. The layout
    /// mirrors [`crate::ParasiticCrossbar`]'s builder except for the two
    /// restamping-driven differences in the module docs.
    #[allow(clippy::needless_range_loop)] // (i, j) grid indexing mirrors the array layout
    fn build_session(
        &self,
        array: &CrossbarArray,
        drives: &[RowDrive],
    ) -> Result<Session, CrossbarError> {
        let rows = array.rows();
        let cols = array.cols();
        let r_seg = self.geometry.segment_resistance();
        let lossless = r_seg.0 == 0.0;

        let mut net = Netlist::new();
        let row_node: Vec<Vec<NodeId>>;
        let col_node: Vec<Vec<NodeId>>;
        if lossless {
            let r: Vec<NodeId> = (0..rows).map(|i| net.node(format!("row{i}"))).collect();
            let c: Vec<NodeId> = (0..cols).map(|j| net.node(format!("col{j}"))).collect();
            row_node = (0..rows).map(|i| vec![r[i]; cols]).collect();
            col_node = (0..rows).map(|_| c.clone()).collect();
        } else {
            row_node = (0..rows)
                .map(|i| (0..cols).map(|j| net.node(format!("r{i}_{j}"))).collect())
                .collect();
            col_node = (0..rows)
                .map(|i| (0..cols).map(|j| net.node(format!("c{i}_{j}"))).collect())
                .collect();
            for i in 0..rows {
                for j in 0..cols - 1 {
                    net.resistor(row_node[i][j], row_node[i][j + 1], r_seg);
                }
            }
            for j in 0..cols {
                for i in 0..rows - 1 {
                    net.resistor(col_node[i][j], col_node[i + 1][j], r_seg);
                }
            }
        }

        let mut cell_ids = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                let g = array.conductance(i, j).expect("bounded by construction");
                cell_ids.push(net.conductance(row_node[i][j], col_node[i][j], g));
            }
        }

        // Dummies are always created (even at 0 S) so the slot can be
        // restamped when a later query needs it.
        let mut dummy_ids = Vec::with_capacity(rows);
        for i in 0..rows {
            let dummy = array.dummy_conductance(i).expect("row bounded");
            dummy_ids.push(net.conductance(row_node[i][cols - 1], Netlist::GROUND, dummy));
        }

        let clamp_ids: Vec<ElementId> = (0..cols)
            .map(|j| net.voltage_source(col_node[rows - 1][j], Volts(0.0)))
            .collect();

        let mut drive_ids = Vec::with_capacity(rows);
        let mut rail_ids = Vec::with_capacity(rows);
        let mut row_inputs = Vec::with_capacity(rows);
        for (i, drive) in drives.iter().enumerate() {
            let input = row_node[i][0];
            row_inputs.push(input);
            match *drive {
                RowDrive::Voltage(v) => {
                    drive_ids.push(net.voltage_source(input, v));
                    rail_ids.push(None);
                }
                RowDrive::Current(amps) => {
                    drive_ids.push(net.current_source(Netlist::GROUND, input, amps));
                    rail_ids.push(None);
                }
                RowDrive::SourceConductance { g, supply } => {
                    // Per-row rail so supplies restamp independently.
                    let rail = net.node(format!("rail{i}"));
                    rail_ids.push(Some(net.voltage_source(rail, supply)));
                    drive_ids.push(net.conductance(rail, input, g));
                }
            }
        }

        let node_count = net.node_count();
        let prepared = PreparedSystem::with_method(&net, self.method)?;
        Ok(Session {
            rows,
            cols,
            drive_kinds: drives.iter().map(DriveKind::from).collect(),
            prepared,
            cell_ids,
            dummy_ids,
            clamp_ids,
            drive_ids,
            rail_ids,
            row_inputs,
            node_count,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parasitic::ParasiticCrossbar;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use spinamm_circuit::units::Siemens;
    use spinamm_circuit::ConjugateGradient;
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
        let cold = ParasiticCrossbar::new(geom);
        let mut cached = CachedParasiticCrossbar::new(geom);
        for q in 0..6 {
            let drives = dtcs_drives(8, 1e-5 * (q + 1) as f64);
            let want = cold.evaluate(&a, &drives).unwrap();
            let got = cached.evaluate(&a, &drives).unwrap();
            assert_agrees(&got, &want, 1e-9);
        }
        assert!(cached.is_warm());
    }

    #[test]
    fn cached_matches_cold_for_voltage_and_current_drives() {
        let a = programmed_array(6, 4, 2);
        let geom = CrossbarGeometry::PAPER;
        let cold = ParasiticCrossbar::new(geom);
        let mut cached = CachedParasiticCrossbar::new(geom);
        let v_drives: Vec<RowDrive> = (0..6)
            .map(|i| RowDrive::Voltage(Volts(0.005 * (i + 1) as f64)))
            .collect();
        assert_agrees(
            &cached.evaluate(&a, &v_drives).unwrap(),
            &cold.evaluate(&a, &v_drives).unwrap(),
            1e-9,
        );
        // Kind change → rebuild, still correct.
        let i_drives = vec![RowDrive::Current(Amps(2e-6)); 6];
        assert_agrees(
            &cached.evaluate(&a, &i_drives).unwrap(),
            &cold.evaluate(&a, &i_drives).unwrap(),
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
        let tight = ConjugateGradient::new(1e-12);
        let cold = ParasiticCrossbar {
            geometry: geom,
            method: SolveMethod::SparseCg(tight),
        };
        let mut cached = CachedParasiticCrossbar::with_method(geom, SolveMethod::SparseCg(tight));
        for q in 0..3 {
            let drives = dtcs_drives(16, 2e-5 * (q + 1) as f64);
            let want = cold.evaluate(&a, &drives).unwrap();
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
        let cold = ParasiticCrossbar::new(geom);
        let mut cached = CachedParasiticCrossbar::new(geom);
        let drives = dtcs_drives(5, 5e-5);
        assert_agrees(
            &cached.evaluate(&a, &drives).unwrap(),
            &cold.evaluate(&a, &drives).unwrap(),
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
        let cold = ParasiticCrossbar::new(geom);
        let drives = dtcs_drives(8, 1e-5);
        assert_agrees(
            &cached.evaluate(&a2, &drives).unwrap(),
            &cold.evaluate(&a2, &drives).unwrap(),
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
        let cold = ParasiticCrossbar::new(geom);
        let mut cached = CachedParasiticCrossbar::new(geom);
        for q in 0..3 {
            let drives = dtcs_drives(8, 1e-5 * (q + 1) as f64);
            let want = cold.evaluate(&a, &drives).unwrap();
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
