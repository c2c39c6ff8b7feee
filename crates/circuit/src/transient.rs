//! Linear transient analysis (backward Euler).
//!
//! The crossbar study is DC at heart, but one dynamic question matters for
//! the paper's 100 MHz operating claim: do the crossbar's RC-loaded bars
//! (0.4 fF/µm Cu wires, Table 2) *settle* within a SAR cycle? This module
//! answers it: capacitors become backward-Euler companion models
//! (a conductance `C/Δt` in parallel with a history current source), the
//! resulting resistive network is solved per step on the same Dirichlet
//! reduction as the DC path — with the matrix factored once and reused
//! across all steps — and the caller reads node waveforms and settling
//! times.
//!
//! Scope: every element kind of a [`Netlist`], with sources held constant
//! over the run — i.e. step responses, which is exactly the settling
//! question.

use crate::dense::DenseMatrix;
use crate::netlist::{Element, Netlist, NodeId};
use crate::solve::{Reduction, CLAMPED};
use crate::units::{Farads, Seconds, Volts};
use crate::CircuitError;

/// Transient analysis configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientAnalysis {
    /// Integration step.
    pub time_step: Seconds,
    /// Total simulated time.
    pub duration: Seconds,
}

impl TransientAnalysis {
    /// Creates an analysis.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidParameter`] unless
    /// `0 < time_step ≤ duration` (both finite).
    pub fn new(time_step: Seconds, duration: Seconds) -> Result<Self, CircuitError> {
        if !(time_step.0.is_finite() && time_step.0 > 0.0) {
            return Err(CircuitError::InvalidParameter {
                what: "time step must be finite and positive",
            });
        }
        if !(duration.0.is_finite() && duration.0 >= time_step.0) {
            return Err(CircuitError::InvalidParameter {
                what: "duration must be finite and at least one time step",
            });
        }
        Ok(Self {
            time_step,
            duration,
        })
    }

    /// Runs the step response: all free nodes start at 0 V, the clamps and
    /// current sources switch on at `t = 0`, and the network is integrated
    /// to `duration`.
    ///
    /// # Errors
    ///
    /// [`CircuitError::ConflictingClamp`] / [`CircuitError::SingularSystem`]
    /// as in the DC path.
    pub fn run(&self, net: &Netlist) -> Result<TransientResult, CircuitError> {
        let dt = self.time_step.0;
        let steps = (self.duration.0 / dt).round().max(1.0) as usize;
        let reduction = Reduction::new(net.elements(), net.node_count())?;
        let m = reduction.unknowns();
        // State: full node-voltage vector; free nodes start at 0.
        let mut voltages = reduction.voltages(&[]);
        if m == 0 {
            // Nothing to integrate: everything is pinned.
            return Ok(TransientResult {
                times: vec![self.duration.0],
                waveforms: vec![voltages],
            });
        }

        // Assemble (G + C/dt) on the free nodes, plus the constant part of
        // the right-hand side (current sources and conductive coupling to
        // clamped nodes), both in element order.
        let mut a = DenseMatrix::zeros(m, m);
        let mut rhs_const = vec![0.0; m];
        // Capacitor bookkeeping for the history term: the terminals and the
        // companion conductance C/dt.
        let mut caps: Vec<(NodeId, NodeId, f64)> = Vec::new();
        for e in net.elements() {
            match *e {
                Element::Resistor { a: na, b: nb, g } => {
                    reduction.stamp(&mut a, na, nb, g.0);
                    reduction.couple(&mut rhs_const, na, nb, g.0);
                }
                Element::Capacitor {
                    a: na,
                    b: nb,
                    farads,
                } => {
                    // The companion conductance enters the matrix, but its
                    // clamp coupling belongs to the *history* term, not the
                    // constant RHS — handle it per step below.
                    let g_c = farads.0 / dt;
                    reduction.stamp(&mut a, na, nb, g_c);
                    caps.push((na, nb, g_c));
                }
                Element::CurrentSource { from, to, amps } => {
                    reduction.inject(&mut rhs_const, from, to, amps.0);
                }
                Element::Clamp { .. } => {}
            }
        }

        let factor = a.cholesky()?;
        let mut times = Vec::with_capacity(steps);
        let mut waveforms = Vec::with_capacity(steps);
        let mut rhs = vec![0.0; m];
        for step in 1..=steps {
            rhs.copy_from_slice(&rhs_const);
            // History currents: I_eq = (C/dt)·v_ab_old injected into a.
            for &(na, nb, g_c) in &caps {
                let v_ab = voltages[na.index()] - voltages[nb.index()];
                let (ia, ib) = (reduction.index(na), reduction.index(nb));
                if ia != CLAMPED {
                    // History current plus the clamp coupling of the
                    // companion conductance (g_c·v_b moves to the RHS when
                    // b is pinned; ground contributes 0).
                    rhs[ia] += g_c * v_ab + g_c * reduction.clamp(nb).unwrap_or(0.0);
                }
                if ib != CLAMPED {
                    rhs[ib] += -g_c * v_ab + g_c * reduction.clamp(na).unwrap_or(0.0);
                }
            }
            reduction.scatter(&factor.solve(&rhs)?, &mut voltages);
            times.push(step as f64 * dt);
            waveforms.push(voltages.clone());
        }

        Ok(TransientResult { times, waveforms })
    }
}

/// Result of a transient run: node-voltage snapshots at every step.
#[derive(Debug, Clone)]
pub struct TransientResult {
    times: Vec<f64>,
    /// `waveforms[k][node]` = voltage of `node` at `times[k]`.
    waveforms: Vec<Vec<f64>>,
}

impl TransientResult {
    /// The sample instants, seconds.
    #[must_use]
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Number of stored steps.
    #[must_use]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` if the run produced no steps (cannot happen for valid
    /// configurations; provided for API completeness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The waveform of one node.
    ///
    /// # Panics
    ///
    /// Panics if the node is out of range.
    #[must_use]
    pub fn waveform(&self, node: NodeId) -> Vec<f64> {
        self.waveforms.iter().map(|w| w[node.index()]).collect()
    }

    /// Voltage of a node at the final step.
    ///
    /// # Panics
    ///
    /// Panics if the node is out of range.
    #[must_use]
    pub fn final_voltage(&self, node: NodeId) -> Volts {
        Volts(self.waveforms.last().expect("at least one step")[node.index()])
    }

    /// First time at which the node enters — and stays within — the
    /// `±tolerance` band around its final value, or `None` if it never
    /// settles within the run.
    #[must_use]
    pub fn settling_time(&self, node: NodeId, tolerance: Volts) -> Option<Seconds> {
        let wave = self.waveform(node);
        let target = *wave.last()?;
        let mut settled_at: Option<usize> = None;
        for (k, &v) in wave.iter().enumerate() {
            if (v - target).abs() <= tolerance.0.abs() {
                settled_at.get_or_insert(k);
            } else {
                settled_at = None;
            }
        }
        settled_at.map(|k| Seconds(self.times[k]))
    }
}

/// Estimates the slowest RC time constant of a netlist by the elementary
/// product of total capacitance at each node with the reciprocal of the
/// conductance tied to it (an upper-bound heuristic used to pick transient
/// step sizes).
#[must_use]
pub fn estimate_max_time_constant(net: &Netlist) -> Seconds {
    let n = net.node_count();
    let mut cap = vec![0.0_f64; n];
    let mut cond = vec![0.0_f64; n];
    for e in net.elements() {
        match e {
            Element::Capacitor { a, b, farads } => {
                cap[a.index()] += farads.0;
                cap[b.index()] += farads.0;
            }
            Element::Resistor { a, b, g } => {
                cond[a.index()] += g.0;
                cond[b.index()] += g.0;
            }
            _ => {}
        }
    }
    let mut worst = 0.0_f64;
    for i in 1..n {
        if cap[i] > 0.0 && cond[i] > 0.0 {
            worst = worst.max(cap[i] / cond[i]);
        }
    }
    Seconds(worst)
}

/// Convenience: the `RC` product of a single pole.
#[must_use]
pub fn rc_time_constant(r: crate::units::Ohms, c: Farads) -> Seconds {
    Seconds(r.0 * c.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Ohms;

    /// A single RC low-pass: 1 kΩ from a 1 V clamp into 1 pF to ground.
    fn rc_netlist() -> (Netlist, NodeId) {
        let mut net = Netlist::new();
        let src = net.node("src");
        let out = net.node("out");
        net.voltage_source(src, Volts(1.0));
        net.resistor(src, out, Ohms(1e3));
        net.capacitor(out, Netlist::GROUND, Farads(1e-12));
        (net, out)
    }

    #[test]
    fn rc_step_response_matches_analytic() {
        let (net, out) = rc_netlist();
        let tau = 1e-9; // 1 kΩ × 1 pF
        let analysis = TransientAnalysis::new(Seconds(tau / 200.0), Seconds(6.0 * tau)).unwrap();
        let result = analysis.run(&net).unwrap();
        for (t, v) in result.times().iter().zip(result.waveform(out)) {
            let expect = 1.0 - (-t / tau).exp();
            assert!(
                (v - expect).abs() < 0.01,
                "t = {t}: {v} vs analytic {expect}"
            );
        }
        assert!((result.final_voltage(out).0 - 1.0).abs() < 0.01);
    }

    #[test]
    fn settling_time_about_right() {
        let (net, out) = rc_netlist();
        let tau = 1e-9;
        let analysis = TransientAnalysis::new(Seconds(tau / 200.0), Seconds(10.0 * tau)).unwrap();
        let result = analysis.run(&net).unwrap();
        // 1 % settling of a first-order system happens at ~4.6 τ.
        let t_s = result.settling_time(out, Volts(0.01)).unwrap().0;
        assert!(
            (t_s - 4.6 * tau).abs() < 0.5 * tau,
            "settling at {t_s} vs expected ~{}",
            4.6 * tau
        );
    }

    #[test]
    fn capacitor_divider_between_free_nodes() {
        // Two capacitors in series across two resistors — checks coupling
        // between two free nodes and a clamped source.
        let mut net = Netlist::new();
        let src = net.node("src");
        let mid = net.node("mid");
        let out = net.node("out");
        net.voltage_source(src, Volts(1.0));
        net.resistor(src, mid, Ohms(1e3));
        net.capacitor(mid, out, Farads(1e-12));
        net.resistor(out, Netlist::GROUND, Ohms(1e3));
        let analysis = TransientAnalysis::new(Seconds(1e-11), Seconds(20e-9)).unwrap();
        let result = analysis.run(&net).unwrap();
        // At DC (late time) the capacitor is open: out → 0, mid → 1 V.
        assert!(result.final_voltage(out).0.abs() < 0.01);
        assert!((result.final_voltage(mid).0 - 1.0).abs() < 0.01);
        // Early on, the capacitor couples the step through: out jumps up.
        let early = result.waveform(out)[1];
        assert!(early > 0.2, "coupled transient {early}");
    }

    #[test]
    fn transient_final_matches_dc() {
        // Any RC network's late-time solution must equal the DC solve with
        // capacitors open.
        let mut net = Netlist::new();
        let a = net.node("a");
        let b = net.node("b");
        net.voltage_source(a, Volts(0.5));
        net.resistor(a, b, Ohms(2e3));
        net.resistor(b, Netlist::GROUND, Ohms(2e3));
        net.capacitor(b, Netlist::GROUND, Farads(5e-13));
        net.capacitor(a, b, Farads(2e-13));
        let dc = net.solve_dc().unwrap();
        let analysis = TransientAnalysis::new(Seconds(1e-11), Seconds(50e-9)).unwrap();
        let tr = analysis.run(&net).unwrap();
        assert!((tr.final_voltage(b).0 - dc.voltage(b).0).abs() < 1e-3);
    }

    #[test]
    fn current_source_charging() {
        // 1 µA into 1 pF: v(t) = I·t/C, a ramp (until the run ends; no
        // resistor, so the matrix is pure C/dt — still SPD).
        let mut net = Netlist::new();
        let out = net.node("out");
        net.current_source(Netlist::GROUND, out, crate::units::Amps(1e-6));
        net.capacitor(out, Netlist::GROUND, Farads(1e-12));
        let analysis = TransientAnalysis::new(Seconds(1e-12), Seconds(1e-9)).unwrap();
        let result = analysis.run(&net).unwrap();
        let v_end = result.final_voltage(out).0;
        // v = I·t/C = 1 µA × 1 ns / 1 pF = 1 mV.
        assert!((v_end - 1e-3).abs() < 1e-5, "ramp end {v_end}");
        // And the ramp is linear: the midpoint sits at half the end value.
        let mid = result.waveform(out)[result.len() / 2 - 1];
        assert!((mid - 0.5e-3).abs() < 1e-5, "midpoint {mid}");
    }

    #[test]
    fn rejects_bad_configs() {
        assert!(TransientAnalysis::new(Seconds(0.0), Seconds(1e-9)).is_err());
        assert!(TransientAnalysis::new(Seconds(1e-9), Seconds(1e-10)).is_err());
        assert!(TransientAnalysis::new(Seconds(f64::NAN), Seconds(1e-9)).is_err());
    }

    #[test]
    fn fully_clamped_network_is_trivial() {
        let mut net = Netlist::new();
        let a = net.node("a");
        net.voltage_source(a, Volts(0.3));
        net.resistor(a, Netlist::GROUND, Ohms(1e3));
        let analysis = TransientAnalysis::new(Seconds(1e-12), Seconds(1e-9)).unwrap();
        let result = analysis.run(&net).unwrap();
        assert!((result.final_voltage(a).0 - 0.3).abs() < 1e-12);
    }

    #[test]
    fn time_constant_helpers() {
        assert!((rc_time_constant(Ohms(1e3), Farads(1e-12)).0 - 1e-9).abs() < 1e-21);
        let (net, _) = rc_netlist();
        let tau = estimate_max_time_constant(&net);
        assert!(tau.0 > 0.0 && tau.0 <= 2e-9, "estimated τ {}", tau.0);
    }

    #[test]
    fn dc_solver_treats_capacitor_as_open() {
        let (net, out) = rc_netlist();
        let dc = net.solve_dc().unwrap();
        assert!((dc.voltage(out).0 - 1.0).abs() < 1e-12);
        assert!(net.has_capacitors());
    }
}
