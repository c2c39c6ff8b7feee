//! Reusable solver state for repeated DC solves of one topology.
//!
//! The paper's sweeps (Fig. 3, Fig. 9, Table 1) evaluate the same crossbar
//! netlist hundreds of times with only element *values* changing — drive
//! conductances, source currents, clamp levels. A cold
//! [`Netlist::solve_dc_stats`] re-derives the clamp map, re-sorts the CSR
//! pattern and factors (or iterates from zero) every time. A
//! [`PreparedSystem`] does that structural work once and then reuses it:
//!
//! * the clamp map, reduced-index mapping and CSR sparsity pattern are
//!   cached at construction;
//! * element values are restamped in place (a deterministic full restamp in
//!   element order, so repeated restamps cannot drift);
//! * on the dense path, the Cholesky factorization is kept and reused as
//!   long as no conductance changed — RHS-only solves for `Current` /
//!   `Clamp` updates are a pair of triangular substitutions;
//! * on the CG path, solves warm-start from a fixed per-system reference
//!   solution with preallocated scratch vectors, and an IC(0) incomplete
//!   Cholesky factor is cached as the preconditioner and reused while
//!   conductance changes stay small (convergence is judged on the true
//!   residual, so a stale factor costs iterations, never accuracy).
//!
//! The warm-start reference is deliberately the *first* solution of the
//! session rather than the previous one: every subsequent solve then
//! depends only on its own inputs, so a batch of queries solved in
//! parallel produces bit-identical results to the same queries solved
//! sequentially.

use crate::dense::{CholeskyFactor, DenseMatrix};
use crate::netlist::{Element, ElementId, Netlist};
use crate::solve::{
    branch_currents, collect_clamps, DcSolution, SolveMethod, SolveStats, AUTO_DENSE_LIMIT,
};
use crate::sparse::{CgWorkspace, ConjugateGradient, CsrMatrix, IncompleteCholesky, SparseBuilder};
use crate::units::{Amps, Siemens, Volts, Watts};
use crate::CircuitError;

/// Relative diagonal perturbation above which the cached IC(0)
/// preconditioner is considered stale and refactored on the next solve.
/// Below it the factor is reused: for wire-dominated crossbar matrices the
/// per-query DAC deltas are orders of magnitude under this bar.
const PRECOND_STALE_THRESHOLD: f64 = 0.05;

/// Sentinel for "this stamp endpoint is clamped — no matrix slot".
const NO_SLOT: usize = usize::MAX;

/// What one prepared solve did, for observability layers above this crate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreparedSolveReport {
    /// Backend stats in the same shape as a cold solve.
    pub stats: SolveStats,
    /// Whether a cached factorization (dense Cholesky or IC(0)) was reused.
    pub factorization_reused: bool,
    /// Whether CG warm-started from the session reference solution.
    pub warm_started: bool,
    /// Iterations avoided versus this system's recorded cold solve.
    pub iterations_saved: usize,
}

#[allow(clippy::large_enum_variant)] // one instance per system; boxing buys nothing
enum Backend {
    Dense {
        factor: Option<CholeskyFactor>,
    },
    Cg {
        cg: ConjugateGradient,
        ws: CgWorkspace,
        /// Fixed warm-start reference: the first solution of the session.
        reference: Option<Vec<f64>>,
        /// Iterations the first (cold) solve took, for savings accounting.
        cold_iterations: Option<usize>,
        precond: Option<IncompleteCholesky>,
        /// IC(0) broke down once — fall back to Jacobi permanently.
        precond_failed: bool,
    },
}

/// Cached solver state for one netlist topology. See the module docs.
pub struct PreparedSystem {
    node_count: usize,
    elements: Vec<Element>,
    clamp: Vec<Option<f64>>,
    clamps_dirty: bool,
    reduced_index: Vec<usize>,
    free_nodes: Vec<usize>,
    m: usize,
    /// Reduced conductance matrix with a frozen pattern (explicit zeros for
    /// slots whose value is currently zero).
    matrix: CsrMatrix,
    /// Per-resistor value slots `[aa, bb, ab, ba]` (`NO_SLOT` = clamped).
    stamps: Vec<(usize, [usize; 4])>,
    values_dirty: bool,
    precond_stale: bool,
    rhs: Vec<f64>,
    backend: Backend,
    factorization_reuses: u64,
    warm_start_iterations_saved: u64,
}

impl PreparedSystem {
    /// Prepares `net` for repeated solving with [`SolveMethod::Auto`]
    /// backend selection (same dense/CG threshold as a cold solve).
    ///
    /// # Errors
    ///
    /// See [`PreparedSystem::with_method`].
    pub fn new(net: &Netlist) -> Result<Self, CircuitError> {
        Self::with_method(net, SolveMethod::Auto)
    }

    /// Prepares `net` with an explicit reduced method.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::InvalidParameter`] if the netlist has floating
    ///   voltage sources or `method` is [`SolveMethod::DenseLu`] — prepared
    ///   systems support Dirichlet-reduced solves only.
    /// * [`CircuitError::ConflictingClamp`] if one node is clamped to two
    ///   different voltages.
    pub fn with_method(net: &Netlist, method: SolveMethod) -> Result<Self, CircuitError> {
        if net.has_floating_sources() {
            return Err(CircuitError::InvalidParameter {
                what: "prepared systems do not support floating voltage sources",
            });
        }
        let node_count = net.node_count();
        let unknowns = node_count.saturating_sub(1);
        let backend = match method {
            SolveMethod::Auto => {
                if unknowns <= AUTO_DENSE_LIMIT {
                    Backend::Dense { factor: None }
                } else {
                    Backend::Cg {
                        cg: ConjugateGradient::default(),
                        ws: CgWorkspace::new(),
                        reference: None,
                        cold_iterations: None,
                        precond: None,
                        precond_failed: false,
                    }
                }
            }
            SolveMethod::DenseCholesky => Backend::Dense { factor: None },
            SolveMethod::SparseCg(cg) => Backend::Cg {
                cg,
                ws: CgWorkspace::new(),
                reference: None,
                cold_iterations: None,
                precond: None,
                precond_failed: false,
            },
            SolveMethod::DenseLu => {
                return Err(CircuitError::InvalidParameter {
                    what: "prepared systems support reduced (Dirichlet) solves only",
                })
            }
        };

        let elements = net.elements().to_vec();
        let clamp = collect_clamps(&elements, node_count)?;
        let mut reduced_index = vec![NO_SLOT; node_count];
        let mut free_nodes = Vec::new();
        for (i, c) in clamp.iter().enumerate() {
            if c.is_none() {
                reduced_index[i] = free_nodes.len();
                free_nodes.push(i);
            }
        }
        let m = free_nodes.len();

        let mut builder = SparseBuilder::new(m, m);
        for e in &elements {
            if let Element::Resistor { a, b, .. } = e {
                let (ia, ib) = (reduced_index[a.index()], reduced_index[b.index()]);
                if ia != NO_SLOT {
                    builder.reserve(ia, ia);
                }
                if ib != NO_SLOT {
                    builder.reserve(ib, ib);
                }
                if ia != NO_SLOT && ib != NO_SLOT {
                    builder.reserve(ia, ib);
                    builder.reserve(ib, ia);
                }
            }
        }
        let matrix = builder.build_pattern();
        let slot = |r: usize, c: usize| {
            if r != NO_SLOT && c != NO_SLOT {
                matrix.position(r, c).expect("slot reserved above")
            } else {
                NO_SLOT
            }
        };
        let mut stamps = Vec::new();
        for (idx, e) in elements.iter().enumerate() {
            if let Element::Resistor { a, b, .. } = e {
                let (ia, ib) = (reduced_index[a.index()], reduced_index[b.index()]);
                stamps.push((
                    idx,
                    [slot(ia, ia), slot(ib, ib), slot(ia, ib), slot(ib, ia)],
                ));
            }
        }

        Ok(Self {
            node_count,
            elements,
            clamp,
            clamps_dirty: false,
            reduced_index,
            free_nodes,
            m,
            matrix,
            stamps,
            values_dirty: true,
            precond_stale: false,
            rhs: vec![0.0; m],
            backend,
            factorization_reuses: 0,
            warm_start_iterations_saved: 0,
        })
    }

    /// Number of reduced unknowns.
    #[must_use]
    pub fn unknowns(&self) -> usize {
        self.m
    }

    /// Number of nodes in the prepared topology (ground included).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Cumulative count of solves that reused a cached factorization
    /// (dense Cholesky or the IC(0) preconditioner).
    #[must_use]
    pub fn factorization_reuses(&self) -> u64 {
        self.factorization_reuses
    }

    /// Cumulative CG iterations avoided by warm starts, versus this
    /// system's recorded cold-solve iteration count.
    #[must_use]
    pub fn warm_start_iterations_saved(&self) -> u64 {
        self.warm_start_iterations_saved
    }

    /// Updates a resistor's conductance in place. A no-op if the value is
    /// unchanged; otherwise the matrix values (and, on the dense path, the
    /// factorization) are refreshed on the next solve.
    ///
    /// # Errors
    ///
    /// [`CircuitError::InvalidParameter`] if `id` is not a resistor of this
    /// system or `g` is negative / non-finite.
    pub fn set_conductance(&mut self, id: ElementId, g: Siemens) -> Result<(), CircuitError> {
        if !g.0.is_finite() || g.0 < 0.0 {
            return Err(CircuitError::InvalidParameter {
                what: "conductance must be finite and non-negative",
            });
        }
        let idx = id.index();
        let Some(&Element::Resistor { a, b, g: old }) = self.elements.get(idx) else {
            return Err(CircuitError::InvalidParameter {
                what: "set_conductance targets a non-resistor element",
            });
        };
        if old.0 == g.0 {
            return Ok(());
        }
        self.elements[idx] = Element::Resistor { a, b, g };
        self.values_dirty = true;
        // Staleness heuristic for the cached IC(0) factor: flag a refactor
        // only when the diagonal moves by more than the threshold.
        if !self.precond_stale {
            if let Backend::Cg {
                precond: Some(_), ..
            } = self.backend
            {
                let dg = (g.0 - old.0).abs();
                for node in [a, b] {
                    let ri = self.reduced_index[node.index()];
                    if ri != NO_SLOT {
                        let d = self.matrix.get(ri, ri);
                        if d <= 0.0 || dg / d > PRECOND_STALE_THRESHOLD {
                            self.precond_stale = true;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Updates a current source's value in place — an RHS-only change that
    /// never invalidates cached factorizations.
    ///
    /// # Errors
    ///
    /// [`CircuitError::InvalidParameter`] if `id` is not a current source
    /// or `amps` is non-finite.
    pub fn set_current(&mut self, id: ElementId, amps: Amps) -> Result<(), CircuitError> {
        if !amps.0.is_finite() {
            return Err(CircuitError::InvalidParameter {
                what: "source current must be finite",
            });
        }
        let idx = id.index();
        let Some(&Element::CurrentSource { from, to, .. }) = self.elements.get(idx) else {
            return Err(CircuitError::InvalidParameter {
                what: "set_current targets a non-current-source element",
            });
        };
        self.elements[idx] = Element::CurrentSource { from, to, amps };
        Ok(())
    }

    /// Updates a clamp's voltage in place — an RHS-only change that never
    /// invalidates cached factorizations (the clamped node set is fixed at
    /// preparation).
    ///
    /// # Errors
    ///
    /// [`CircuitError::InvalidParameter`] if `id` is not a clamp or `volts`
    /// is non-finite.
    pub fn set_clamp(&mut self, id: ElementId, volts: Volts) -> Result<(), CircuitError> {
        if !volts.0.is_finite() {
            return Err(CircuitError::InvalidParameter {
                what: "clamp voltage must be finite",
            });
        }
        let idx = id.index();
        let Some(&Element::Clamp { node, volts: old }) = self.elements.get(idx) else {
            return Err(CircuitError::InvalidParameter {
                what: "set_clamp targets a non-clamp element",
            });
        };
        if old.0 != volts.0 {
            self.elements[idx] = Element::Clamp { node, volts };
            self.clamps_dirty = true;
        }
        Ok(())
    }

    /// Total power dissipated in the resistive elements for a solution of
    /// this system (the prepared analogue of
    /// [`DcSolution::dissipated_power`], using the *current* restamped
    /// element values).
    #[must_use]
    pub fn dissipated_power(&self, sol: &DcSolution) -> Watts {
        let mut p = 0.0;
        for e in &self.elements {
            if let Element::Resistor { a, b, g } = e {
                let dv = sol.voltages()[a.index()] - sol.voltages()[b.index()];
                p += g.0 * dv * dv;
            }
        }
        Watts(p)
    }

    /// Solves the DC operating point with whatever state can be reused.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Netlist::solve_dc_stats`] for the reduced
    /// backends.
    pub fn solve(&mut self) -> Result<(DcSolution, SolveStats), CircuitError> {
        self.solve_report().map(|(sol, r)| (sol, r.stats))
    }

    /// Like [`PreparedSystem::solve`], additionally reporting what was
    /// reused.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PreparedSystem::solve`].
    pub fn solve_report(&mut self) -> Result<(DcSolution, PreparedSolveReport), CircuitError> {
        if self.clamps_dirty {
            self.clamp = collect_clamps(&self.elements, self.node_count)?;
            self.clamps_dirty = false;
        }
        let was_dirty = self.values_dirty;
        if was_dirty {
            self.restamp_values();
        }
        self.build_rhs();

        let mut voltages = vec![0.0; self.node_count];
        for (i, c) in self.clamp.iter().enumerate() {
            if let Some(v) = c {
                voltages[i] = *v;
            }
        }

        let mut report = PreparedSolveReport {
            stats: SolveStats {
                method: match self.backend {
                    Backend::Dense { .. } => "dense_cholesky",
                    Backend::Cg { .. } => "sparse_cg",
                },
                unknowns: self.m,
                iterations: 0,
                residual: 0.0,
            },
            factorization_reused: false,
            warm_started: false,
            iterations_saved: 0,
        };

        if self.m > 0 {
            let Self {
                m,
                matrix,
                rhs,
                free_nodes,
                backend,
                factorization_reuses,
                warm_start_iterations_saved,
                precond_stale,
                ..
            } = self;
            let m = *m;
            match backend {
                Backend::Dense { factor } => {
                    if was_dirty {
                        *factor = None;
                    }
                    let f = match factor {
                        Some(f) => {
                            *factorization_reuses += 1;
                            report.factorization_reused = true;
                            f
                        }
                        None => {
                            let mut a = DenseMatrix::zeros(m, m);
                            for (r, c, v) in matrix.iter() {
                                a[(r, c)] = v;
                            }
                            factor.insert(a.cholesky()?)
                        }
                    };
                    let x = f.solve(rhs)?;
                    for (k, &node) in free_nodes.iter().enumerate() {
                        voltages[node] = x[k];
                    }
                    report.stats.iterations = m;
                }
                Backend::Cg {
                    cg,
                    ws,
                    reference,
                    cold_iterations,
                    precond,
                    precond_failed,
                } => {
                    let mut refreshed = false;
                    if !*precond_failed && (precond.is_none() || *precond_stale) {
                        match IncompleteCholesky::factor(matrix) {
                            Ok(f) => {
                                *precond = Some(f);
                                *precond_stale = false;
                                refreshed = true;
                            }
                            Err(_) => {
                                *precond = None;
                                *precond_failed = true;
                            }
                        }
                    }
                    let x0 = reference.as_deref();
                    report.warm_started = x0.is_some();
                    let run = cg.solve_into(matrix, rhs, x0, precond.as_ref(), ws)?;
                    if precond.is_some() && !refreshed {
                        *factorization_reuses += 1;
                        report.factorization_reused = true;
                    }
                    if report.warm_started {
                        let saved = cold_iterations.map_or(0, |c| c.saturating_sub(run.iterations));
                        *warm_start_iterations_saved += saved as u64;
                        report.iterations_saved = saved;
                    }
                    if reference.is_none() {
                        *reference = Some(ws.solution().to_vec());
                        *cold_iterations = Some(run.iterations);
                    }
                    for (k, &node) in free_nodes.iter().enumerate() {
                        voltages[node] = ws.solution()[k];
                    }
                    report.stats.iterations = run.iterations;
                    report.stats.residual = run.residual;
                }
            }
        }

        let currents = branch_currents(&self.elements, self.node_count, &voltages);
        Ok((DcSolution::from_parts(voltages, currents), report))
    }

    /// Deterministic full value restamp in element order: repeated
    /// restamps of the same values always reproduce the same matrix bits.
    fn restamp_values(&mut self) {
        self.matrix.clear_values();
        let Self {
            matrix,
            stamps,
            elements,
            ..
        } = self;
        let vals = matrix.values_mut();
        for &(e, slots) in stamps.iter() {
            let Element::Resistor { g, .. } = elements[e] else {
                unreachable!("stamps reference resistors only");
            };
            let g = g.0;
            if slots[0] != NO_SLOT {
                vals[slots[0]] += g;
            }
            if slots[1] != NO_SLOT {
                vals[slots[1]] += g;
            }
            if slots[2] != NO_SLOT {
                vals[slots[2]] -= g;
            }
            if slots[3] != NO_SLOT {
                vals[slots[3]] -= g;
            }
        }
        self.values_dirty = false;
    }

    /// Rebuilds the right-hand side in the same two-pass order as a cold
    /// solve (current sources, then resistor boundary terms in element
    /// order), so dense-path results match cold solves bitwise.
    fn build_rhs(&mut self) {
        self.rhs.iter_mut().for_each(|v| *v = 0.0);
        for e in &self.elements {
            if let Element::CurrentSource { from, to, amps } = e {
                let rt = self.reduced_index[to.index()];
                if rt != NO_SLOT {
                    self.rhs[rt] += amps.0;
                }
                let rf = self.reduced_index[from.index()];
                if rf != NO_SLOT {
                    self.rhs[rf] -= amps.0;
                }
            }
        }
        for e in &self.elements {
            if let Element::Resistor { a, b, g } = e {
                let (ia, ib) = (self.reduced_index[a.index()], self.reduced_index[b.index()]);
                if ia != NO_SLOT {
                    if let Some(vb) = self.clamp[b.index()] {
                        self.rhs[ia] += g.0 * vb;
                    }
                }
                if ib != NO_SLOT {
                    if let Some(va) = self.clamp[a.index()] {
                        self.rhs[ib] += g.0 * va;
                    }
                }
            }
        }
    }
}

impl Clone for PreparedSystem {
    /// Cloning a prepared system clones the cached pattern, values,
    /// factorizations and warm-start reference — batch workers clone a
    /// warmed session and immediately inherit its reuse state.
    fn clone(&self) -> Self {
        Self {
            node_count: self.node_count,
            elements: self.elements.clone(),
            clamp: self.clamp.clone(),
            clamps_dirty: self.clamps_dirty,
            reduced_index: self.reduced_index.clone(),
            free_nodes: self.free_nodes.clone(),
            m: self.m,
            matrix: self.matrix.clone(),
            stamps: self.stamps.clone(),
            values_dirty: self.values_dirty,
            precond_stale: self.precond_stale,
            rhs: self.rhs.clone(),
            backend: match &self.backend {
                Backend::Dense { factor } => Backend::Dense {
                    factor: factor.clone(),
                },
                Backend::Cg {
                    cg,
                    ws,
                    reference,
                    cold_iterations,
                    precond,
                    precond_failed,
                } => Backend::Cg {
                    cg: *cg,
                    ws: ws.clone(),
                    reference: reference.clone(),
                    cold_iterations: *cold_iterations,
                    precond: precond.clone(),
                    precond_failed: *precond_failed,
                },
            },
            factorization_reuses: self.factorization_reuses,
            warm_start_iterations_saved: self.warm_start_iterations_saved,
        }
    }
}

impl std::fmt::Debug for PreparedSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedSystem")
            .field("node_count", &self.node_count)
            .field("unknowns", &self.m)
            .field(
                "backend",
                &match self.backend {
                    Backend::Dense { .. } => "dense_cholesky",
                    Backend::Cg { .. } => "sparse_cg",
                },
            )
            .field("factorization_reuses", &self.factorization_reuses)
            .field(
                "warm_start_iterations_saved",
                &self.warm_start_iterations_saved,
            )
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Ohms;

    /// A ladder with one clamp, one current source and a DAC-like source
    /// conductance structure — every `RowDrive` analogue in one netlist.
    fn ladder() -> (Netlist, Vec<ElementId>) {
        let mut net = Netlist::new();
        let nodes = net.nodes(5);
        let mut ids = Vec::new();
        ids.push(net.voltage_source(nodes[0], Volts(0.5)));
        for w in nodes.windows(2) {
            ids.push(net.resistor(w[0], w[1], Ohms(100.0)));
        }
        ids.push(net.resistor(nodes[4], Netlist::GROUND, Ohms(220.0)));
        ids.push(net.current_source(Netlist::GROUND, nodes[2], Amps(1e-3)));
        ids.push(net.conductance(nodes[3], Netlist::GROUND, Siemens(2e-3)));
        (net, ids)
    }

    #[test]
    fn prepared_dense_matches_cold_bitwise() {
        let (net, _) = ladder();
        let cold = net.solve_dc_with(SolveMethod::DenseCholesky).unwrap();
        let mut prep = PreparedSystem::with_method(&net, SolveMethod::DenseCholesky).unwrap();
        for _ in 0..3 {
            let (sol, _) = prep.solve_report().unwrap();
            assert_eq!(sol.voltages(), cold.voltages());
            for i in 0..net.element_count() {
                let id = net.element_id(i).unwrap();
                assert_eq!(sol.current(id).0, cold.current(id).0);
            }
        }
    }

    #[test]
    fn dense_factorization_reused_for_rhs_only_changes() {
        let (net, ids) = ladder();
        let mut prep = PreparedSystem::new(&net).unwrap();
        let (_, first) = prep.solve_report().unwrap();
        assert!(!first.factorization_reused);
        // Current and clamp changes are RHS-only.
        prep.set_current(ids[6], Amps(2e-3)).unwrap();
        prep.set_clamp(ids[0], Volts(0.25)).unwrap();
        let (sol, second) = prep.solve_report().unwrap();
        assert!(second.factorization_reused);
        assert_eq!(prep.factorization_reuses(), 1);
        // Against a cold netlist with the same values.
        let mut net2 = Netlist::new();
        let nodes = net2.nodes(5);
        net2.voltage_source(nodes[0], Volts(0.25));
        for w in nodes.windows(2) {
            net2.resistor(w[0], w[1], Ohms(100.0));
        }
        net2.resistor(nodes[4], Netlist::GROUND, Ohms(220.0));
        net2.current_source(Netlist::GROUND, nodes[2], Amps(2e-3));
        net2.conductance(nodes[3], Netlist::GROUND, Siemens(2e-3));
        let cold = net2.solve_dc_with(SolveMethod::DenseCholesky).unwrap();
        assert_eq!(sol.voltages(), cold.voltages());
    }

    #[test]
    fn conductance_change_refactors_and_agrees() {
        let (net, ids) = ladder();
        let mut prep = PreparedSystem::new(&net).unwrap();
        prep.solve_report().unwrap();
        prep.set_conductance(ids[7], Siemens(5e-3)).unwrap();
        let (sol, report) = prep.solve_report().unwrap();
        assert!(!report.factorization_reused);
        let mut net2 = Netlist::new();
        let nodes = net2.nodes(5);
        net2.voltage_source(nodes[0], Volts(0.5));
        for w in nodes.windows(2) {
            net2.resistor(w[0], w[1], Ohms(100.0));
        }
        net2.resistor(nodes[4], Netlist::GROUND, Ohms(220.0));
        net2.current_source(Netlist::GROUND, nodes[2], Amps(1e-3));
        net2.conductance(nodes[3], Netlist::GROUND, Siemens(5e-3));
        let cold = net2.solve_dc_with(SolveMethod::DenseCholesky).unwrap();
        assert_eq!(sol.voltages(), cold.voltages());
    }

    #[test]
    fn setter_kind_validation() {
        let (net, ids) = ladder();
        let mut prep = PreparedSystem::new(&net).unwrap();
        // ids[0] is the clamp, ids[1] a resistor, ids[6] the current source.
        assert!(prep.set_conductance(ids[0], Siemens(1.0)).is_err());
        assert!(prep.set_current(ids[1], Amps(1.0)).is_err());
        assert!(prep.set_clamp(ids[6], Volts(1.0)).is_err());
        assert!(prep.set_conductance(ids[1], Siemens(-1.0)).is_err());
        assert!(prep.set_conductance(ids[1], Siemens(f64::NAN)).is_err());
        assert!(prep.set_current(ids[6], Amps(f64::INFINITY)).is_err());
        assert!(prep.set_clamp(ids[0], Volts(f64::NAN)).is_err());
    }

    #[test]
    fn rejects_floating_sources_and_lu() {
        let mut net = Netlist::new();
        let a = net.node("a");
        let b = net.node("b");
        net.resistor(a, Netlist::GROUND, Ohms(1e3));
        net.resistor(b, Netlist::GROUND, Ohms(1e3));
        net.floating_voltage_source(a, b, Volts(0.5));
        assert!(matches!(
            PreparedSystem::new(&net),
            Err(CircuitError::InvalidParameter { .. })
        ));
        let (good, _) = ladder();
        assert!(matches!(
            PreparedSystem::with_method(&good, SolveMethod::DenseLu),
            Err(CircuitError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn zero_conductance_slot_can_become_nonzero() {
        // A conductance that starts at exactly zero must still own matrix
        // slots so it can be driven later (a DAC row at level 0).
        let mut net = Netlist::new();
        let a = net.node("a");
        net.voltage_source(a, Volts(1.0));
        let b = net.node("b");
        net.resistor(a, b, Ohms(100.0));
        let gnd_leg = net.conductance(b, Netlist::GROUND, Siemens(0.0));
        net.resistor(b, Netlist::GROUND, Ohms(1e4));
        let mut prep = PreparedSystem::new(&net).unwrap();
        let (sol0, _) = prep.solve_report().unwrap();
        assert!((sol0.voltage(b).0 - 1e4 / (1e4 + 100.0)).abs() < 1e-12);
        prep.set_conductance(gnd_leg, Siemens(1e-2)).unwrap();
        let (sol1, _) = prep.solve_report().unwrap();
        // b now loaded by 100 Ω against (1e-2 + 1e-4) S to ground.
        let load = 1e-2 + 1e-4;
        let expect = (1.0 / 100.0) / (1.0 / 100.0 + load);
        assert!((sol1.voltage(b).0 - expect).abs() < 1e-9);
    }

    #[test]
    fn cg_path_warm_starts_and_reuses_preconditioner() {
        // Force CG at small scale with a tight tolerance.
        let (net, ids) = ladder();
        let cg = ConjugateGradient::new(1e-13);
        let mut prep = PreparedSystem::with_method(&net, SolveMethod::SparseCg(cg)).unwrap();
        let (_, first) = prep.solve_report().unwrap();
        assert!(!first.warm_started);
        prep.set_current(ids[6], Amps(1.1e-3)).unwrap();
        let (sol, second) = prep.solve_report().unwrap();
        assert!(second.warm_started);
        assert!(second.factorization_reused, "IC(0) factor should be kept");
        // IC(0) is exact on this tree-structured ladder, so the warm start
        // cannot beat an already-minimal cold count — but the accounting
        // must be consistent and the warm solve can never take longer.
        assert_eq!(
            prep.warm_start_iterations_saved(),
            second.iterations_saved as u64
        );
        assert!(second.stats.iterations <= first.stats.iterations);
        // Agreement with a cold CG solve of the same values.
        let mut net2 = Netlist::new();
        let nodes = net2.nodes(5);
        net2.voltage_source(nodes[0], Volts(0.5));
        for w in nodes.windows(2) {
            net2.resistor(w[0], w[1], Ohms(100.0));
        }
        net2.resistor(nodes[4], Netlist::GROUND, Ohms(220.0));
        net2.current_source(Netlist::GROUND, nodes[2], Amps(1.1e-3));
        net2.conductance(nodes[3], Netlist::GROUND, Siemens(2e-3));
        let cold = net2.solve_dc_with(SolveMethod::SparseCg(cg)).unwrap();
        for (u, v) in sol.voltages().iter().zip(cold.voltages()) {
            assert!((u - v).abs() < 1e-10, "{u} vs {v}");
        }
    }

    #[test]
    fn large_conductance_change_refactors_preconditioner() {
        let (net, ids) = ladder();
        let cg = ConjugateGradient::new(1e-12);
        let mut prep = PreparedSystem::with_method(&net, SolveMethod::SparseCg(cg)).unwrap();
        prep.solve_report().unwrap();
        // 10× the DAC leg: far past the staleness threshold.
        prep.set_conductance(ids[7], Siemens(2e-2)).unwrap();
        let (sol, report) = prep.solve_report().unwrap();
        assert!(
            !report.factorization_reused,
            "stale IC(0) must be refactored"
        );
        let mut net2 = Netlist::new();
        let nodes = net2.nodes(5);
        net2.voltage_source(nodes[0], Volts(0.5));
        for w in nodes.windows(2) {
            net2.resistor(w[0], w[1], Ohms(100.0));
        }
        net2.resistor(nodes[4], Netlist::GROUND, Ohms(220.0));
        net2.current_source(Netlist::GROUND, nodes[2], Amps(1e-3));
        net2.conductance(nodes[3], Netlist::GROUND, Siemens(2e-2));
        let cold = net2.solve_dc_with(SolveMethod::SparseCg(cg)).unwrap();
        for (u, v) in sol.voltages().iter().zip(cold.voltages()) {
            assert!((u - v).abs() < 1e-10, "{u} vs {v}");
        }
    }

    #[test]
    fn no_free_nodes_solves_trivially() {
        let mut net = Netlist::new();
        let a = net.node("a");
        net.voltage_source(a, Volts(0.5));
        net.resistor(a, Netlist::GROUND, Ohms(100.0));
        let mut prep = PreparedSystem::new(&net).unwrap();
        let (sol, report) = prep.solve_report().unwrap();
        assert_eq!(report.stats.unknowns, 0);
        assert!((sol.voltage(a).0 - 0.5).abs() < 1e-12);
        assert!((sol.current(net.element_id(0).unwrap()).0 - 5e-3).abs() < 1e-12);
    }

    #[test]
    fn dissipated_power_uses_restamped_values() {
        let (net, ids) = ladder();
        let mut prep = PreparedSystem::new(&net).unwrap();
        prep.set_conductance(ids[7], Siemens(5e-3)).unwrap();
        let (sol, _) = prep.solve_report().unwrap();
        // Tellegen: dissipated power equals source power for the *current*
        // element values, which the stale original netlist cannot compute.
        let dissipated = prep.dissipated_power(&sol).0;
        let supplied = {
            // Rebuild the updated netlist to use DcSolution::source_power.
            let mut net2 = Netlist::new();
            let nodes = net2.nodes(5);
            net2.voltage_source(nodes[0], Volts(0.5));
            for w in nodes.windows(2) {
                net2.resistor(w[0], w[1], Ohms(100.0));
            }
            net2.resistor(nodes[4], Netlist::GROUND, Ohms(220.0));
            net2.current_source(Netlist::GROUND, nodes[2], Amps(1e-3));
            net2.conductance(nodes[3], Netlist::GROUND, Siemens(5e-3));
            let cold = net2.solve_dc().unwrap();
            cold.source_power(&net2).0
        };
        assert!(
            (dissipated - supplied).abs() < 1e-12,
            "{dissipated} vs {supplied}"
        );
    }
}
