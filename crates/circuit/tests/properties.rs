//! Property-based tests for the circuit solver: invariants that must hold
//! for *any* resistive network, not just hand-picked examples.

use proptest::prelude::*;
use spinamm_circuit::prelude::*;
use spinamm_circuit::prepared::AUTO_DENSE_LIMIT;
use spinamm_circuit::{ElementId, PreparedSystem};

/// A randomly generated, always-solvable ladder-with-rungs network.
#[derive(Debug, Clone)]
struct RandomNetwork {
    /// Resistances of the series ladder segments (Ω).
    series: Vec<f64>,
    /// Resistance of the shunt at each internal node (Ω).
    shunts: Vec<f64>,
    /// Supply voltage at the head of the ladder (V).
    supply: f64,
    /// Current injected at the tail node (A).
    injection: f64,
}

fn network_strategy() -> impl Strategy<Value = RandomNetwork> {
    sized_network_strategy(2..12)
}

/// Random ladders of `len` nodes.
fn sized_network_strategy(len: std::ops::Range<usize>) -> impl Strategy<Value = RandomNetwork> {
    len.prop_flat_map(|n| {
        (
            proptest::collection::vec(10.0..100_000.0f64, n),
            proptest::collection::vec(10.0..100_000.0f64, n),
            -2.0..2.0f64,
            -1e-3..1e-3f64,
        )
            .prop_map(|(series, shunts, supply, injection)| RandomNetwork {
                series,
                shunts,
                supply,
                injection,
            })
    })
}

struct Built {
    net: Netlist,
    nodes: Vec<NodeId>,
    source: ElementId,
}

fn build(rn: &RandomNetwork) -> Built {
    let mut net = Netlist::new();
    let nodes: Vec<NodeId> = (0..rn.series.len())
        .map(|k| net.node(format!("n{k}")))
        .collect();
    let source = net.voltage_source(nodes[0], Volts(rn.supply));
    for (k, w) in nodes.windows(2).enumerate() {
        net.resistor(w[0], w[1], Ohms(rn.series[k]));
    }
    for (k, &node) in nodes.iter().enumerate() {
        net.resistor(node, Netlist::GROUND, Ohms(rn.shunts[k]));
    }
    net.current_source(Netlist::GROUND, *nodes.last().unwrap(), Amps(rn.injection));
    Built { net, nodes, source }
}

/// Checks a fresh [`PreparedSystem`] solve against the cold `solve_dc`
/// reference on every node voltage, and returns the backend that ran.
fn prepared_agrees_with_cold(
    b: &Built,
    tolerance: f64,
) -> Result<&'static str, proptest::test_runner::TestCaseError> {
    let cold = b.net.solve_dc().unwrap();
    let (prepared, report) = PreparedSystem::new(&b.net).unwrap().solve_report().unwrap();
    for &node in &b.nodes {
        let (a, c) = (cold.voltage(node).0, prepared.voltage(node).0);
        let scale = a.abs().max(1e-6);
        prop_assert!(
            (a - c).abs() / scale < tolerance,
            "cold {a} vs prepared {c}"
        );
    }
    Ok(report.stats.method)
}

proptest! {
    /// The prepared solve agrees with the cold reference on every node
    /// voltage below the dense limit, where both factor by dense Cholesky.
    #[test]
    fn solve_methods_agree(rn in network_strategy()) {
        let method = prepared_agrees_with_cold(&build(&rn), 1e-7)?;
        prop_assert_eq!(method, "dense_cholesky");
    }

    /// Tellegen's theorem: power supplied by sources equals power dissipated
    /// in resistors.
    #[test]
    fn power_balance(rn in network_strategy()) {
        let b = build(&rn);
        let sol = b.net.solve_dc().unwrap();
        let diss = sol.dissipated_power(&b.net).0;
        let supp = sol.source_power(&b.net).0;
        let scale = diss.abs().max(1e-15);
        prop_assert!((diss - supp).abs() / scale < 1e-6, "dissipated {diss} supplied {supp}");
    }

    /// Linearity / superposition: scaling all sources by k scales all node
    /// voltages by k.
    #[test]
    fn superposition_scaling(rn in network_strategy(), k in 0.1..10.0f64) {
        let base = build(&rn);
        let mut scaled_rn = rn.clone();
        scaled_rn.supply *= k;
        scaled_rn.injection *= k;
        let scaled = build(&scaled_rn);
        let s0 = base.net.solve_dc().unwrap();
        let s1 = scaled.net.solve_dc().unwrap();
        for (&n0, &n1) in base.nodes.iter().zip(&scaled.nodes) {
            let expect = s0.voltage(n0).0 * k;
            let got = s1.voltage(n1).0;
            let scale = expect.abs().max(1e-9);
            prop_assert!((expect - got).abs() / scale < 1e-7);
        }
    }

    /// The clamp's branch current accounts for the full KCL imbalance at its
    /// node.
    #[test]
    fn clamp_current_closes_kcl(rn in network_strategy()) {
        let b = build(&rn);
        let sol = b.net.solve_dc().unwrap();
        // Sum resistor currents leaving the clamped node.
        let clamped = b.nodes[0];
        let mut outflow = 0.0;
        for (idx, e) in b.net.elements().iter().enumerate() {
            if let spinamm_circuit::netlist::Element::Resistor { a, b: nb, .. } = e {
                let i = sol.current(b.net.element_id(idx).unwrap()).0;
                if *a == clamped {
                    outflow += i;
                }
                if *nb == clamped {
                    outflow -= i;
                }
            }
        }
        let supplied = sol.current(b.source).0;
        let scale = supplied.abs().max(1e-12);
        prop_assert!((outflow - supplied).abs() / scale < 1e-7);
    }

    /// Voltages are bounded by source extremes in a purely resistive network
    /// with a single voltage source and no current injection (maximum
    /// principle).
    #[test]
    fn maximum_principle(
        series in proptest::collection::vec(10.0..10_000.0f64, 2..10),
        shunts in proptest::collection::vec(10.0..10_000.0f64, 10),
        supply in 0.01..2.0f64,
    ) {
        let rn = RandomNetwork {
            shunts: shunts[..series.len()].to_vec(),
            series,
            supply,
            injection: 0.0,
        };
        let b = build(&rn);
        let sol = b.net.solve_dc().unwrap();
        for &node in &b.nodes {
            let v = sol.voltage(node).0;
            prop_assert!(v >= -1e-12 && v <= supply + 1e-12, "node at {v} outside [0, {supply}]");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The prepared solve agrees with the cold dense reference above the
    /// dense limit, where it takes IC(0)-preconditioned CG.
    #[test]
    fn solve_methods_agree_above_dense_limit(
        rn in sized_network_strategy(AUTO_DENSE_LIMIT + 1..AUTO_DENSE_LIMIT + 40)
    ) {
        let method = prepared_agrees_with_cold(&build(&rn), 1e-6)?;
        prop_assert_eq!(method, "sparse_cg");
    }
}
