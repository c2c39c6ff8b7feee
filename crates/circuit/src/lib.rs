//! Linear circuit simulation substrate for the `spinamm` workspace.
//!
//! The DAC 2013 paper this workspace reproduces ("Ultra Low Power Associative
//! Computing with Spin Neurons and Resistive Crossbar Memory", Sharad, Fan and
//! Roy) evaluates its resistive-crossbar designs with SPICE. This crate is the
//! SPICE substitute: a modified-nodal-analysis (MNA) solver for linear DC
//! networks of resistors, independent current sources and independent voltage
//! sources, together with the dense and sparse linear algebra it needs.
//!
//! The crate is deliberately scoped to what the crossbar study requires:
//!
//! * [`units`] — strongly typed electrical quantities ([`Volts`], [`Amps`],
//!   [`Ohms`], [`Siemens`], …) so that device models in the other crates
//!   cannot confuse, say, a conductance with a resistance.
//! * [`dense`] — a small dense matrix type with LU (partial pivoting) and
//!   Cholesky factorizations, used for full MNA systems.
//! * [`sparse`] — a CSR sparse matrix with a Jacobi-preconditioned conjugate
//!   gradient solver, used for the large (10⁴-node) parasitic crossbar
//!   networks where the reduced conductance matrix is symmetric positive
//!   definite.
//! * [`netlist`] — netlist construction: nodes, resistors, current sources
//!   and node-to-ground voltage sources (DC supplies / clamps).
//! * [`solve`] — DC operating-point solution: node voltages and source branch
//!   currents, via either dense MNA/LU or Dirichlet-eliminated CG.
//! * [`transient`] — backward-Euler linear transient analysis for RC
//!   settling studies (the crossbar's 0.4 fF/µm wire loading).
//!
//! # Example
//!
//! A resistive divider: 1 V supply across two 1 kΩ resistors.
//!
//! ```
//! use spinamm_circuit::prelude::*;
//!
//! # fn main() -> Result<(), CircuitError> {
//! let mut net = Netlist::new();
//! let top = net.node("top");
//! let mid = net.node("mid");
//! net.voltage_source(top, Volts(1.0));
//! net.resistor(top, mid, Ohms(1e3));
//! net.resistor(mid, Netlist::GROUND, Ohms(1e3));
//!
//! let sol = net.solve_dc()?;
//! assert!((sol.voltage(mid).0 - 0.5).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

pub mod dense;
pub mod netlist;
pub mod prepared;
pub mod solve;
pub mod sparse;
pub mod transient;
pub mod units;

pub use dense::DenseMatrix;
pub use netlist::{ElementId, Netlist, NodeId};
pub use prepared::{PreparedSolveReport, PreparedSystem};
pub use solve::{DcSolution, SolveMethod, SolveStats};
pub use sparse::{
    CgRun, CgSolution, CgWorkspace, ConjugateGradient, CsrMatrix, IncompleteCholesky, SparseBuilder,
};
pub use transient::{TransientAnalysis, TransientResult};
pub use units::{
    Amps, Celsius, Farads, Hertz, Joules, Kelvin, Micrometers, Nanometers, Ohms, Seconds, Siemens,
    Volts, Watts,
};

use std::error::Error;
use std::fmt;

/// Errors produced while building or solving a circuit.
#[derive(Debug, Clone, PartialEq)]
pub enum CircuitError {
    /// The system matrix is singular (e.g. a floating node with no DC path to
    /// ground), reported with the pivot index at which elimination failed.
    SingularSystem {
        /// Row/column of the zero (or numerically negligible) pivot.
        pivot: usize,
    },
    /// Matrix/vector dimensions do not agree.
    DimensionMismatch {
        /// Expected dimension.
        expected: usize,
        /// Dimension actually supplied.
        found: usize,
    },
    /// A [`NodeId`] did not come from the netlist being operated on.
    UnknownNode {
        /// Index of the offending node.
        node: usize,
    },
    /// An iterative solver did not reach the requested tolerance.
    NotConverged {
        /// Iterations performed before giving up.
        iterations: usize,
        /// Relative residual when iteration stopped.
        residual: f64,
    },
    /// A device parameter is outside its physical domain (negative
    /// resistance, non-finite source value, …).
    InvalidParameter {
        /// Human-readable description of the violated constraint.
        what: &'static str,
    },
    /// Two voltage sources (or clamps) drive the same node with different
    /// values.
    ConflictingClamp {
        /// Index of the doubly-clamped node.
        node: usize,
    },
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::SingularSystem { pivot } => {
                write!(f, "singular system matrix at pivot {pivot} (floating node?)")
            }
            CircuitError::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
            CircuitError::UnknownNode { node } => {
                write!(f, "node {node} does not belong to this netlist")
            }
            CircuitError::NotConverged {
                iterations,
                residual,
            } => write!(
                f,
                "iterative solver stopped after {iterations} iterations at relative residual {residual:.3e}"
            ),
            CircuitError::InvalidParameter { what } => {
                write!(f, "invalid parameter: {what}")
            }
            CircuitError::ConflictingClamp { node } => {
                write!(f, "node {node} is clamped to two different voltages")
            }
        }
    }
}

impl Error for CircuitError {}

/// Convenient glob import of the most commonly used items.
pub mod prelude {
    pub use crate::netlist::{Netlist, NodeId};
    pub use crate::solve::{DcSolution, SolveMethod, SolveStats};
    pub use crate::units::*;
    pub use crate::CircuitError;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_nonempty() {
        let errors = [
            CircuitError::SingularSystem { pivot: 3 },
            CircuitError::DimensionMismatch {
                expected: 4,
                found: 5,
            },
            CircuitError::UnknownNode { node: 9 },
            CircuitError::NotConverged {
                iterations: 100,
                residual: 1e-3,
            },
            CircuitError::InvalidParameter {
                what: "negative resistance",
            },
            CircuitError::ConflictingClamp { node: 2 },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CircuitError>();
    }
}
