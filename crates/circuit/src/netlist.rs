//! Netlist construction for linear DC networks.
//!
//! A [`Netlist`] is a bag of nodes plus four element kinds, which is all the
//! crossbar study needs:
//!
//! * **resistors** (stored as conductances) between any two nodes,
//! * **independent current sources** between any two nodes,
//! * **clamps**: independent voltage sources from a node to ground (DC
//!   supplies such as the paper's `V` and `V + ΔV` rails, and the
//!   spin-neuron input nodes that are "effectively clamped at a DC supply
//!   V"),
//! * **capacitors** between any two nodes, open at DC.
//!
//! Node `0` is always ground ([`Netlist::GROUND`]); every voltage is
//! referenced to it, so every source is either a clamp or a current source.

use crate::units::{Amps, Farads, Ohms, Siemens, Volts};
use crate::CircuitError;

/// Handle to a circuit node. Obtain via [`Netlist::node`]; ground is
/// [`Netlist::GROUND`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Raw index of this node inside its netlist (ground is `0`).
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }

    /// `true` if this is the ground node.
    #[must_use]
    pub fn is_ground(self) -> bool {
        self.0 == 0
    }
}

/// Handle to a netlist element, returned by the insertion methods and used to
/// query branch currents from a [`crate::solve::DcSolution`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ElementId(pub(crate) usize);

impl ElementId {
    /// Raw index of this element inside its netlist.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// One netlist element.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Element {
    /// Conductance `g` between nodes `a` and `b`.
    Resistor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Conductance value.
        g: Siemens,
    },
    /// Independent current source driving `amps` from node `from` *into*
    /// node `to` (conventional current).
    CurrentSource {
        /// Node the current is drawn from.
        from: NodeId,
        /// Node the current is injected into.
        to: NodeId,
        /// Source magnitude.
        amps: Amps,
    },
    /// Voltage source from `node` to ground (a DC rail / clamp).
    Clamp {
        /// Clamped node.
        node: NodeId,
        /// Potential of `node` relative to ground.
        volts: Volts,
    },
    /// Capacitor between two nodes. Ignored by DC solves (open circuit);
    /// integrated by [`crate::transient`].
    Capacitor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Capacitance value.
        farads: Farads,
    },
}

/// A linear DC netlist.
///
/// See the [crate-level documentation](crate) for a worked example.
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    /// `names[i]` is the label of node `i`; `names[0] == "gnd"`.
    names: Vec<String>,
    elements: Vec<Element>,
}

impl Netlist {
    /// The ground node, present in every netlist.
    pub const GROUND: NodeId = NodeId(0);

    /// Creates an empty netlist containing only the ground node.
    #[must_use]
    pub fn new() -> Self {
        Self {
            names: vec!["gnd".to_string()],
            elements: Vec::new(),
        }
    }

    /// Adds a named node and returns its handle.
    pub fn node(&mut self, name: impl Into<String>) -> NodeId {
        self.names.push(name.into());
        NodeId(self.names.len() - 1)
    }

    /// Adds `count` anonymous nodes and returns their handles in order.
    pub fn nodes(&mut self, count: usize) -> Vec<NodeId> {
        (0..count).map(|k| self.node(format!("n{k}"))).collect()
    }

    /// Total number of nodes, including ground.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.names.len()
    }

    /// Number of elements.
    #[must_use]
    pub fn element_count(&self) -> usize {
        self.elements.len()
    }

    /// Name of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node does not belong to this netlist.
    #[must_use]
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.names[node.0]
    }

    /// The elements in insertion order.
    #[must_use]
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Handle to the element at `index` in insertion order, or `None` if out
    /// of range. Useful when iterating [`Netlist::elements`] with positions.
    #[must_use]
    pub fn element_id(&self, index: usize) -> Option<ElementId> {
        (index < self.elements.len()).then_some(ElementId(index))
    }

    fn check_node(&self, node: NodeId) -> Result<(), CircuitError> {
        if node.0 < self.names.len() {
            Ok(())
        } else {
            Err(CircuitError::UnknownNode { node: node.0 })
        }
    }

    /// Adds a resistor given its resistance.
    ///
    /// Zero-ohm resistors are rejected — model an ideal connection by reusing
    /// one node instead.
    ///
    /// # Panics
    ///
    /// Panics if either node is foreign to this netlist, or if the value is
    /// not a finite positive resistance. (Construction-time misuse is a
    /// programming error, not a recoverable condition.)
    pub fn resistor(&mut self, a: NodeId, b: NodeId, r: Ohms) -> ElementId {
        assert!(
            r.0.is_finite() && r.0 > 0.0,
            "resistance must be finite and positive, got {r}"
        );
        self.conductance(a, b, r.to_siemens())
    }

    /// Adds a resistor given its conductance. A zero conductance is accepted
    /// (it stamps nothing and models an absent device).
    ///
    /// # Panics
    ///
    /// Panics if either node is foreign to this netlist, or if the value is
    /// not finite and non-negative.
    pub fn conductance(&mut self, a: NodeId, b: NodeId, g: Siemens) -> ElementId {
        self.check_node(a).expect("node a not in this netlist");
        self.check_node(b).expect("node b not in this netlist");
        assert!(
            g.0.is_finite() && g.0 >= 0.0,
            "conductance must be finite and non-negative, got {g}"
        );
        self.elements.push(Element::Resistor { a, b, g });
        ElementId(self.elements.len() - 1)
    }

    /// Adds an independent current source driving `amps` from `from` into
    /// `to`.
    ///
    /// # Panics
    ///
    /// Panics if either node is foreign or the value is non-finite.
    pub fn current_source(&mut self, from: NodeId, to: NodeId, amps: Amps) -> ElementId {
        self.check_node(from)
            .expect("node `from` not in this netlist");
        self.check_node(to).expect("node `to` not in this netlist");
        assert!(amps.0.is_finite(), "source current must be finite");
        self.elements
            .push(Element::CurrentSource { from, to, amps });
        ElementId(self.elements.len() - 1)
    }

    /// Adds a DC voltage source (clamp) from `node` to ground.
    ///
    /// # Panics
    ///
    /// Panics if the node is foreign, is ground itself, or the value is
    /// non-finite. Clamping the same node twice to *different* values is
    /// detected at solve time ([`CircuitError::ConflictingClamp`]).
    pub fn voltage_source(&mut self, node: NodeId, volts: Volts) -> ElementId {
        self.check_node(node).expect("node not in this netlist");
        assert!(!node.is_ground(), "cannot clamp the ground node");
        assert!(volts.0.is_finite(), "source voltage must be finite");
        self.elements.push(Element::Clamp { node, volts });
        ElementId(self.elements.len() - 1)
    }

    /// Adds a capacitor between two nodes. DC solves treat it as an open
    /// circuit; [`crate::transient`] integrates it.
    ///
    /// # Panics
    ///
    /// Panics if either node is foreign or the value is not finite and
    /// positive.
    pub fn capacitor(&mut self, a: NodeId, b: NodeId, farads: Farads) -> ElementId {
        self.check_node(a).expect("node a not in this netlist");
        self.check_node(b).expect("node b not in this netlist");
        assert!(
            farads.0.is_finite() && farads.0 > 0.0,
            "capacitance must be finite and positive, got {farads}"
        );
        self.elements.push(Element::Capacitor { a, b, farads });
        ElementId(self.elements.len() - 1)
    }

    /// `true` if the netlist contains any capacitor.
    #[must_use]
    pub fn has_capacitors(&self) -> bool {
        self.elements
            .iter()
            .any(|e| matches!(e, Element::Capacitor { .. }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_always_exists() {
        let net = Netlist::new();
        assert_eq!(net.node_count(), 1);
        assert!(Netlist::GROUND.is_ground());
        assert_eq!(net.node_name(Netlist::GROUND), "gnd");
    }

    #[test]
    fn nodes_are_sequential() {
        let mut net = Netlist::new();
        let a = net.node("a");
        let b = net.node("b");
        assert_eq!(a.index(), 1);
        assert_eq!(b.index(), 2);
        assert!(!a.is_ground());
        assert_eq!(net.node_name(a), "a");
        let batch = net.nodes(3);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch[2].index(), 5);
        assert_eq!(net.node_count(), 6);
    }

    #[test]
    fn elements_record_in_order() {
        let mut net = Netlist::new();
        let a = net.node("a");
        let r = net.resistor(a, Netlist::GROUND, Ohms(100.0));
        let s = net.current_source(Netlist::GROUND, a, Amps(1e-6));
        let v = net.voltage_source(a, Volts(1.0));
        assert_eq!(r.index(), 0);
        assert_eq!(s.index(), 1);
        assert_eq!(v.index(), 2);
        assert_eq!(net.element_count(), 3);
        assert!(matches!(
            net.elements()[0],
            Element::Resistor { g, .. } if (g.0 - 0.01).abs() < 1e-15
        ));
    }

    #[test]
    #[should_panic(expected = "resistance must be finite and positive")]
    fn rejects_zero_resistance() {
        let mut net = Netlist::new();
        let a = net.node("a");
        net.resistor(a, Netlist::GROUND, Ohms(0.0));
    }

    #[test]
    #[should_panic(expected = "conductance must be finite and non-negative")]
    fn rejects_negative_conductance() {
        let mut net = Netlist::new();
        let a = net.node("a");
        net.conductance(a, Netlist::GROUND, Siemens(-1.0));
    }

    #[test]
    #[should_panic(expected = "cannot clamp the ground node")]
    fn rejects_clamping_ground() {
        let mut net = Netlist::new();
        net.voltage_source(Netlist::GROUND, Volts(1.0));
    }

    #[test]
    #[should_panic(expected = "not in this netlist")]
    fn rejects_foreign_node() {
        let mut other = Netlist::new();
        let foreign = other.node("x");
        let _ = foreign;
        let mut net = Netlist::new();
        // `foreign` has index 1 but `net` has no node 1 yet... create none.
        net.resistor(NodeId(5), Netlist::GROUND, Ohms(1.0));
    }

    #[test]
    fn zero_conductance_is_allowed() {
        let mut net = Netlist::new();
        let a = net.node("a");
        net.conductance(a, Netlist::GROUND, Siemens(0.0));
        assert_eq!(net.element_count(), 1);
    }
}
