//! DC operating point of a [`Netlist`].
//!
//! Every voltage source in a netlist is a clamp from a node to ground, so
//! every solve takes the same Dirichlet reduction: the clamped nodes (ground
//! included) are boundary values, the free nodes are the unknowns, and the
//! conductance matrix on the free nodes is symmetric positive definite. The
//! reduction is computed in one place and shared by the cold solve here, the
//! [`crate::prepared::PreparedSystem`] and the [`crate::transient`] analysis.
//!
//! [`Netlist::solve_dc`] is the cold reference: it factors the reduced
//! matrix by dense Cholesky at every size. Repeated and large solves go
//! through the prepared system, which picks its backend by size and reuses
//! its factorization across solves.

use crate::dense::DenseMatrix;
use crate::netlist::{Element, ElementId, Netlist, NodeId};
use crate::units::{Amps, Volts, Watts};
use crate::CircuitError;

/// What a prepared solve did, for observability layers above this crate.
///
/// The dense backend reports the factored dimension as `iterations` (a proxy
/// for settling work) with zero residual; the CG backend reports its true
/// iteration count and final relative residual.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveStats {
    /// Which backend ran: `"dense_cholesky"` or `"sparse_cg"`.
    pub method: &'static str,
    /// Number of unknowns in the solved system.
    pub unknowns: usize,
    /// Iterations taken (CG), or the system dimension (dense backend).
    pub iterations: usize,
    /// Final relative residual (CG), 0.0 for the dense backend.
    pub residual: f64,
}

/// DC operating point of a netlist: all node voltages plus the branch current
/// of every element.
#[derive(Debug, Clone)]
pub struct DcSolution {
    voltages: Vec<f64>,
    /// Branch current of element `i` (sign conventions documented on
    /// [`DcSolution::current`]).
    currents: Vec<f64>,
}

impl DcSolution {
    /// Assembles a solution from already-computed node voltages and branch
    /// currents (the prepared-system fast path).
    pub(crate) fn from_parts(voltages: Vec<f64>, currents: Vec<f64>) -> Self {
        Self { voltages, currents }
    }

    /// Voltage of `node` relative to ground.
    ///
    /// # Panics
    ///
    /// Panics if the node does not belong to the solved netlist.
    #[must_use]
    pub fn voltage(&self, node: NodeId) -> Volts {
        Volts(self.voltages[node.index()])
    }

    /// Voltage difference `v(a) − v(b)`.
    ///
    /// # Panics
    ///
    /// Panics if either node does not belong to the solved netlist.
    #[must_use]
    pub fn voltage_between(&self, a: NodeId, b: NodeId) -> Volts {
        Volts(self.voltages[a.index()] - self.voltages[b.index()])
    }

    /// Branch current of an element.
    ///
    /// Sign conventions:
    /// * `Resistor { a, b, .. }` — current flowing from `a` to `b`.
    /// * `CurrentSource { .. }` — the source value itself.
    /// * `Clamp { node, .. }` — current delivered *by the source into the
    ///   node* (positive when the rail sources current into the network).
    ///
    /// # Panics
    ///
    /// Panics if the element does not belong to the solved netlist.
    #[must_use]
    pub fn current(&self, element: ElementId) -> Amps {
        Amps(self.currents[element.index()])
    }

    /// All node voltages, indexed by [`NodeId::index`]. Entry 0 is ground.
    #[must_use]
    pub fn voltages(&self) -> &[f64] {
        &self.voltages
    }

    /// Total power dissipated in the resistive elements of `net`.
    ///
    /// By Tellegen's theorem this equals the net power delivered by all
    /// sources, which the tests verify.
    ///
    /// # Panics
    ///
    /// Panics if `net` is not the netlist this solution came from (detected
    /// only through index mismatches).
    #[must_use]
    pub fn dissipated_power(&self, net: &Netlist) -> Watts {
        let mut p = 0.0;
        for e in net.elements() {
            if let Element::Resistor { a, b, g } = e {
                let dv = self.voltages[a.index()] - self.voltages[b.index()];
                p += g.0 * dv * dv;
            }
        }
        Watts(p)
    }

    /// Total power delivered by sources (current sources and clamps) into
    /// the network.
    #[must_use]
    pub fn source_power(&self, net: &Netlist) -> Watts {
        let mut p = 0.0;
        for (idx, e) in net.elements().iter().enumerate() {
            match e {
                Element::Resistor { .. } => {}
                Element::CurrentSource { from, to, amps } => {
                    // Power delivered = I · (v_to − v_from) with current
                    // pushed from `from` to `to` inside the source.
                    p += amps.0 * (self.voltages[to.index()] - self.voltages[from.index()]);
                }
                Element::Clamp { node, .. } => {
                    p += self.currents[idx] * self.voltages[node.index()];
                }
                Element::Capacitor { .. } => {}
            }
        }
        Watts(p)
    }
}

impl Netlist {
    /// Solves the DC operating point from scratch: the Dirichlet reduction,
    /// then a dense Cholesky factorization of the reduced conductance matrix,
    /// at every network size. This is the cold reference that prepared and
    /// transient solves are checked against; repeated or large solves belong
    /// in a [`crate::prepared::PreparedSystem`].
    ///
    /// # Errors
    ///
    /// * [`CircuitError::SingularSystem`] for floating nodes or otherwise
    ///   singular systems.
    /// * [`CircuitError::ConflictingClamp`] if one node is clamped to two
    ///   different voltages.
    pub fn solve_dc(&self) -> Result<DcSolution, CircuitError> {
        let elements = self.elements();
        let reduction = Reduction::new(elements, self.node_count())?;
        let m = reduction.unknowns();
        let mut rhs = vec![0.0; m];
        reduction.load_rhs(elements, &mut rhs);
        let mut a = DenseMatrix::zeros(m, m);
        for e in elements {
            if let Element::Resistor { a: na, b: nb, g } = e {
                reduction.stamp(&mut a, *na, *nb, g.0);
            }
        }
        let x = a.cholesky()?.solve(&rhs)?;
        let voltages = reduction.voltages(&x);
        let currents = branch_currents(elements, self.node_count(), &voltages);
        Ok(DcSolution { voltages, currents })
    }
}

/// Sentinel [`Reduction::index`] entry of a clamped node: it is no unknown.
pub(crate) const CLAMPED: usize = usize::MAX;

/// The Dirichlet reduction of a netlist: every clamped node (ground
/// included) is a boundary value and every other node an unknown. The cold
/// solve, the prepared system and the transient analysis all take their
/// clamp map, unknown numbering and right-hand-side terms from here, and the
/// two dense solves their matrix stamps.
#[derive(Debug, Clone)]
pub(crate) struct Reduction {
    /// `Some(volts)` per clamped node (ground included), `None` per free
    /// node.
    clamp: Vec<Option<f64>>,
    /// Node index → unknown index, [`CLAMPED`] for a clamped node.
    index: Vec<usize>,
    /// Unknown index → node index.
    free_nodes: Vec<usize>,
}

impl Reduction {
    /// Reduces a netlist's elements over `node_count` nodes.
    ///
    /// # Errors
    ///
    /// [`CircuitError::ConflictingClamp`] if one node is clamped to two
    /// different voltages.
    pub(crate) fn new(elements: &[Element], node_count: usize) -> Result<Self, CircuitError> {
        let clamp = collect_clamps(elements, node_count)?;
        let mut index = vec![CLAMPED; node_count];
        let mut free_nodes = Vec::new();
        for (i, c) in clamp.iter().enumerate() {
            if c.is_none() {
                index[i] = free_nodes.len();
                free_nodes.push(i);
            }
        }
        Ok(Self {
            clamp,
            index,
            free_nodes,
        })
    }

    /// Re-reads the clamp voltages after a clamp's value changed. The set of
    /// clamped nodes, and so the unknown numbering, stays fixed.
    ///
    /// # Errors
    ///
    /// [`CircuitError::ConflictingClamp`] as in [`Reduction::new`].
    pub(crate) fn reclamp(&mut self, elements: &[Element]) -> Result<(), CircuitError> {
        self.clamp = collect_clamps(elements, self.clamp.len())?;
        Ok(())
    }

    /// Number of unknowns.
    pub(crate) fn unknowns(&self) -> usize {
        self.free_nodes.len()
    }

    /// Unknown index of `node`, or [`CLAMPED`].
    pub(crate) fn index(&self, node: NodeId) -> usize {
        self.index[node.index()]
    }

    /// Voltage of a clamped node, `None` for a free one.
    pub(crate) fn clamp(&self, node: NodeId) -> Option<f64> {
        self.clamp[node.index()]
    }

    /// Full node-voltage vector: the clamp voltages, and `x[k]` at the `k`-th
    /// free node.
    pub(crate) fn voltages(&self, x: &[f64]) -> Vec<f64> {
        let mut voltages: Vec<f64> = self.clamp.iter().map(|c| c.unwrap_or(0.0)).collect();
        self.scatter(x, &mut voltages);
        voltages
    }

    /// Writes `x[k]` into the `k`-th free node of `voltages`.
    pub(crate) fn scatter(&self, x: &[f64], voltages: &mut [f64]) {
        for (&node, &v) in self.free_nodes.iter().zip(x) {
            voltages[node] = v;
        }
    }

    /// Right-hand side of the reduced system in its fixed order: every
    /// current source's injection, then every resistor's coupling to a
    /// clamped terminal, each pass in element order.
    pub(crate) fn load_rhs(&self, elements: &[Element], rhs: &mut [f64]) {
        rhs.fill(0.0);
        for e in elements {
            if let Element::CurrentSource { from, to, amps } = e {
                self.inject(rhs, *from, *to, amps.0);
            }
        }
        for e in elements {
            if let Element::Resistor { a, b, g } = e {
                self.couple(rhs, *a, *b, g.0);
            }
        }
    }

    /// Adds a current source driving `amps` from `from` into `to`.
    pub(crate) fn inject(&self, rhs: &mut [f64], from: NodeId, to: NodeId, amps: f64) {
        let (it, ifr) = (self.index(to), self.index(from));
        if it != CLAMPED {
            rhs[it] += amps;
        }
        if ifr != CLAMPED {
            rhs[ifr] -= amps;
        }
    }

    /// Adds the boundary current that a conductance `g` between `a` and `b`
    /// draws from a clamped terminal into a free one.
    pub(crate) fn couple(&self, rhs: &mut [f64], a: NodeId, b: NodeId, g: f64) {
        let (ia, ib) = (self.index(a), self.index(b));
        if ia != CLAMPED {
            if let Some(vb) = self.clamp(b) {
                rhs[ia] += g * vb;
            }
        }
        if ib != CLAMPED {
            if let Some(va) = self.clamp(a) {
                rhs[ib] += g * va;
            }
        }
    }

    /// Stamps a conductance `g` between `a` and `b` into the dense reduced
    /// matrix (its free-node entries only).
    pub(crate) fn stamp(&self, m: &mut DenseMatrix, a: NodeId, b: NodeId, g: f64) {
        let (ia, ib) = (self.index(a), self.index(b));
        if ia != CLAMPED {
            m[(ia, ia)] += g;
        }
        if ib != CLAMPED {
            m[(ib, ib)] += g;
        }
        if ia != CLAMPED && ib != CLAMPED {
            m[(ia, ib)] -= g;
            m[(ib, ia)] -= g;
        }
    }
}

/// Clamp map: `Some(volts)` per clamped node (ground included), `None` for
/// free nodes.
fn collect_clamps(
    elements: &[Element],
    node_count: usize,
) -> Result<Vec<Option<f64>>, CircuitError> {
    let mut clamp: Vec<Option<f64>> = vec![None; node_count];
    clamp[0] = Some(0.0); // ground
    for e in elements {
        if let Element::Clamp { node, volts } = e {
            match clamp[node.index()] {
                None => clamp[node.index()] = Some(volts.0),
                Some(v) if v == volts.0 => {}
                Some(_) => return Err(CircuitError::ConflictingClamp { node: node.index() }),
            }
        }
    }
    Ok(clamp)
}

/// Per-element branch currents from solved node voltages — shared by the
/// netlist solver and the prepared-system layer so cached solves report
/// identical currents to cold solves.
pub(crate) fn branch_currents(
    elements: &[Element],
    node_count: usize,
    voltages: &[f64],
) -> Vec<f64> {
    let mut currents = vec![0.0; elements.len()];
    // For voltage sources, branch current = KCL sum of all *other*
    // element currents leaving the source node(s). Accumulate per node.
    let mut node_outflow = vec![0.0; node_count];
    for (idx, e) in elements.iter().enumerate() {
        match e {
            Element::Resistor { a, b, g } => {
                let i = g.0 * (voltages[a.index()] - voltages[b.index()]);
                currents[idx] = i;
                node_outflow[a.index()] += i;
                node_outflow[b.index()] -= i;
            }
            Element::CurrentSource { from, to, amps } => {
                currents[idx] = amps.0;
                node_outflow[from.index()] += amps.0;
                node_outflow[to.index()] -= amps.0;
            }
            Element::Clamp { .. } | Element::Capacitor { .. } => {}
        }
    }
    // A source must supply whatever flows out of its positive node
    // through the passive elements. Multiple sources on one node share
    // arbitrarily in reality; here each clamp node has a unique value
    // (checked at solve time), and we attribute the full outflow to the
    // *first* source on that node and zero to duplicates.
    let mut claimed = vec![false; node_count];
    for (idx, e) in elements.iter().enumerate() {
        if let Element::Clamp { node, .. } = e {
            if !claimed[node.index()] {
                currents[idx] = node_outflow[node.index()];
                claimed[node.index()] = true;
            }
        }
    }
    currents
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prepared::PreparedSystem;
    use crate::units::Ohms;

    /// The cold solve, then a fresh prepared solve of the same netlist: the
    /// two ways a netlist is solved.
    fn both_solves(net: &Netlist) -> [DcSolution; 2] {
        let cold = net.solve_dc().unwrap();
        let (prepared, _) = PreparedSystem::new(net).unwrap().solve_report().unwrap();
        [cold, prepared]
    }

    fn divider() -> (Netlist, NodeId, NodeId) {
        let mut net = Netlist::new();
        let top = net.node("top");
        let mid = net.node("mid");
        net.voltage_source(top, Volts(1.0));
        net.resistor(top, mid, Ohms(1e3));
        net.resistor(mid, Netlist::GROUND, Ohms(3e3));
        (net, top, mid)
    }

    #[test]
    fn divider_all_methods_agree() {
        let (net, top, mid) = divider();
        for sol in both_solves(&net) {
            assert!((sol.voltage(mid).0 - 0.75).abs() < 1e-9);
            assert!((sol.voltage(top).0 - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn clamp_current_matches_ohms_law() {
        let (net, _, _) = divider();
        let sol = net.solve_dc().unwrap();
        // Source drives 1 V across 4 kΩ → 0.25 mA into the network.
        let src = ElementId(0);
        assert!((sol.current(src).0 - 0.25e-3).abs() < 1e-9);
    }

    #[test]
    fn current_source_into_resistor() {
        let mut net = Netlist::new();
        let a = net.node("a");
        net.current_source(Netlist::GROUND, a, Amps(2e-3));
        net.resistor(a, Netlist::GROUND, Ohms(500.0));
        for sol in both_solves(&net) {
            assert!((sol.voltage(a).0 - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn conflicting_clamps_detected() {
        let mut net = Netlist::new();
        let a = net.node("a");
        net.resistor(a, Netlist::GROUND, Ohms(1.0));
        net.voltage_source(a, Volts(1.0));
        net.voltage_source(a, Volts(2.0));
        assert!(matches!(
            net.solve_dc(),
            Err(CircuitError::ConflictingClamp { .. })
        ));
        assert!(matches!(
            PreparedSystem::new(&net),
            Err(CircuitError::ConflictingClamp { .. })
        ));
    }

    #[test]
    fn duplicate_identical_clamps_are_fine() {
        let mut net = Netlist::new();
        let a = net.node("a");
        net.resistor(a, Netlist::GROUND, Ohms(1.0));
        net.voltage_source(a, Volts(1.0));
        net.voltage_source(a, Volts(1.0));
        let sol = net.solve_dc().unwrap();
        assert!((sol.voltage(a).0 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn floating_node_is_singular() {
        let mut net = Netlist::new();
        let a = net.node("a");
        let b = net.node("b");
        net.resistor(a, Netlist::GROUND, Ohms(1.0));
        // b dangles with no connection at all — reduced matrix has a zero
        // diagonal for it.
        let _ = b;
        assert!(net.solve_dc().is_err());
    }

    #[test]
    fn power_balance_tellegen() {
        // Mixed network: clamp + current source + resistor mesh.
        let mut net = Netlist::new();
        let a = net.node("a");
        let b = net.node("b");
        let c = net.node("c");
        net.voltage_source(a, Volts(1.0));
        net.current_source(Netlist::GROUND, c, Amps(1e-3));
        net.resistor(a, b, Ohms(1e3));
        net.resistor(b, c, Ohms(2e3));
        net.resistor(b, Netlist::GROUND, Ohms(4e3));
        net.resistor(c, Netlist::GROUND, Ohms(1e3));
        for sol in both_solves(&net) {
            let dissipated = sol.dissipated_power(&net);
            let supplied = sol.source_power(&net);
            assert!(
                (dissipated.0 - supplied.0).abs() < 1e-12,
                "{dissipated} vs {supplied}"
            );
        }
    }

    #[test]
    fn resistor_branch_current_sign() {
        let (net, _, _) = divider();
        let sol = net.solve_dc().unwrap();
        // Element 1 is the top resistor a→mid: positive current flows top→mid.
        assert!(sol.current(ElementId(1)).0 > 0.0);
        // Element 2 flows mid→gnd, also positive.
        assert!(sol.current(ElementId(2)).0 > 0.0);
        assert!(
            (sol.current(ElementId(1)).0 - sol.current(ElementId(2)).0).abs() < 1e-12,
            "series elements carry equal current"
        );
    }

    #[test]
    fn ladder_matches_analytic() {
        // Uniform R ladder driven by a clamp: check against hand-derived
        // value for 3 sections of series 1 kΩ with 1 kΩ to ground each.
        let mut net = Netlist::new();
        let n1 = net.node("n1");
        let n2 = net.node("n2");
        let n3 = net.node("n3");
        net.voltage_source(n1, Volts(1.0));
        net.resistor(n1, n2, Ohms(1e3));
        net.resistor(n2, Netlist::GROUND, Ohms(1e3));
        net.resistor(n2, n3, Ohms(1e3));
        net.resistor(n3, Netlist::GROUND, Ohms(1e3));
        let sol = net.solve_dc().unwrap();
        // From n2: load = 1k ∥ (1k + 1k) = 2/3 k; v2 = (2/3)/(1 + 2/3) = 0.4
        assert!((sol.voltage(n2).0 - 0.4).abs() < 1e-9);
        // v3 = v2 / 2 = 0.2
        assert!((sol.voltage(n3).0 - 0.2).abs() < 1e-9);
    }

    #[test]
    fn large_grid_cg_matches_cholesky() {
        // A 21×21 resistor grid with one corner clamped and one corner
        // driven by a current source: 441 nodes put the prepared solve on
        // CG, and it must agree with the cold dense Cholesky solve.
        let n = 21;
        let mut net = Netlist::new();
        let mut ids = Vec::new();
        for r in 0..n {
            for c in 0..n {
                ids.push(net.node(format!("g{r}_{c}")));
            }
        }
        let at = |r: usize, c: usize| ids[r * n + c];
        for r in 0..n {
            for c in 0..n {
                if c + 1 < n {
                    net.resistor(at(r, c), at(r, c + 1), Ohms(100.0));
                }
                if r + 1 < n {
                    net.resistor(at(r, c), at(r + 1, c), Ohms(100.0));
                }
            }
        }
        net.voltage_source(at(0, 0), Volts(0.03));
        net.resistor(at(n - 1, n - 1), Netlist::GROUND, Ohms(1e3));
        net.current_source(Netlist::GROUND, at(n - 1, 0), Amps(10e-6));

        let chol = net.solve_dc().unwrap();
        let (cg, report) = PreparedSystem::new(&net).unwrap().solve_report().unwrap();
        assert_eq!(report.stats.method, "sparse_cg");
        for i in 0..net.node_count() {
            let node = NodeId(i);
            assert!((chol.voltage(node).0 - cg.voltage(node).0).abs() < 1e-9);
        }
    }

    #[test]
    fn no_free_nodes_solves_trivially() {
        let mut net = Netlist::new();
        let a = net.node("a");
        net.voltage_source(a, Volts(0.5));
        net.resistor(a, Netlist::GROUND, Ohms(100.0));
        let sol = net.solve_dc().unwrap();
        assert!((sol.voltage(a).0 - 0.5).abs() < 1e-12);
        assert!((sol.current(ElementId(0)).0 - 5e-3).abs() < 1e-12);
    }

    #[test]
    fn kcl_residual_property() {
        // KCL holds at every free node of a random-ish mesh.
        let mut net = Netlist::new();
        let nodes = net.nodes(6);
        for (k, w) in nodes.windows(2).enumerate() {
            net.resistor(w[0], w[1], Ohms(100.0 + 37.0 * k as f64));
        }
        net.resistor(nodes[0], Netlist::GROUND, Ohms(220.0));
        net.resistor(nodes[5], Netlist::GROUND, Ohms(330.0));
        net.resistor(nodes[1], nodes[4], Ohms(150.0));
        net.current_source(Netlist::GROUND, nodes[2], Amps(1e-3));
        net.voltage_source(nodes[0], Volts(0.2));
        let sol = net.solve_dc().unwrap();

        // Accumulate outflow per node from resistor + current-source
        // branches; free nodes must sum to ~0.
        let mut outflow = vec![0.0; net.node_count()];
        for (idx, e) in net.elements().iter().enumerate() {
            match e {
                Element::Resistor { a, b, .. } => {
                    let i = sol.current(ElementId(idx)).0;
                    outflow[a.index()] += i;
                    outflow[b.index()] -= i;
                }
                Element::CurrentSource { from, to, amps } => {
                    outflow[from.index()] += amps.0;
                    outflow[to.index()] -= amps.0;
                }
                _ => {}
            }
        }
        for (i, f) in outflow.iter().enumerate() {
            if i == 0 || i == nodes[0].index() {
                continue; // ground and clamped node absorb source current
            }
            assert!(f.abs() < 1e-12, "KCL violated at node {i}: {f}");
        }
    }
}
