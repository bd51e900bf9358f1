//! Cross-engine agreement suite.
//!
//! Three independent implementations must agree wherever their domains
//! overlap:
//!
//! * the stabilizer tableau vs the dense simulator on random Clifford
//!   circuits (≤ 12 qubits): every canonical stabilizer generator must fix
//!   the dense state with the tracked sign;
//! * the rewritten dense kernels vs the preserved full-scan reference
//!   kernels on random mixed circuits (≤ 10 qubits): **bitwise** identical,
//!   in serial and forced-parallel execution;
//! * `verify_equivalent` vs the router on real devices: routed Clifford
//!   circuits prove equivalent, tampered ones are refuted, near-Clifford
//!   circuits pass Pauli spot checks.

mod support;

use proptest::prelude::*;
use snailqc_circuit::simulator::reference;
use snailqc_circuit::{simulate, Gate};
use snailqc_sim::{verify_equivalent, PauliString, Tableau, Verdict};
use snailqc_topology::builders;
use snailqc_transpiler::{route_with_cache, LayoutStrategy, RouterConfig, RoutingCache};
use snailqc_workloads::{clifford_qv, random_clifford_circuit};
use support::{bitwise_eq, mixed_circuit, row_stabilizes};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every canonical stabilizer generator of a random Clifford circuit
    /// fixes the dense statevector, sign included.
    #[test]
    fn tableau_stabilizes_the_dense_state(n in 2usize..=12, gates in 10usize..120, seed in 0u64..10_000) {
        let circuit = random_clifford_circuit(n, gates, seed);
        prop_assert!(circuit.is_clifford());
        let mut tab = Tableau::zero_state(n);
        tab.apply_circuit(&circuit).unwrap();
        let canon = tab.canonical_form();
        let state = simulate(&circuit);
        for row in 0..canon.num_rows() {
            prop_assert!(
                row_stabilizes(&canon, row, &state, 1e-8),
                "row {row} does not stabilize the dense state (n={n}, seed={seed})"
            );
        }
    }

    /// Clifford-QV agrees between engines too (denser two-qubit structure).
    #[test]
    fn clifford_qv_stabilizes_the_dense_state(n in 2usize..=10, seed in 0u64..2_000) {
        let circuit = clifford_qv(n, n.min(6), seed);
        let mut tab = Tableau::zero_state(n);
        tab.apply_circuit(&circuit).unwrap();
        let canon = tab.canonical_form();
        let state = simulate(&circuit);
        for row in 0..canon.num_rows() {
            prop_assert!(row_stabilizes(&canon, row, &state, 1e-8));
        }
    }

    /// The rewritten kernels reproduce the reference kernels bit for bit on
    /// random mixed (Clifford + non-Clifford) circuits.
    #[test]
    fn dense_kernels_match_reference_bitwise(n in 2usize..=10, seed in 0u64..10_000) {
        let circuit = mixed_circuit(n, 40, seed);
        let old = reference::simulate(&circuit);
        let new = simulate(&circuit);
        prop_assert!(bitwise_eq(&old, &new), "serial kernels drifted (n={n}, seed={seed})");
    }

    /// Routed random Clifford circuits prove equivalent on real topologies.
    #[test]
    fn router_preserves_clifford_semantics(seed in 0u64..2_000, dev in 0usize..3) {
        let circuit = random_clifford_circuit(8, 40, seed);
        let graph = match dev {
            0 => builders::line(10),
            1 => builders::square_lattice(3, 4),
            _ => builders::hypercube(3),
        };
        let layout = LayoutStrategy::Dense.try_compute(&circuit, &graph).unwrap();
        let routed = route_with_cache(&circuit, &graph, &layout, &RouterConfig::deterministic(seed), &RoutingCache::new());
        let verdict = verify_equivalent(&circuit, &routed);
        prop_assert!(verdict.is_equivalent(), "{verdict} (seed={seed}, dev={dev})");
    }
}

/// A tampered routed circuit is refuted by the stabilizer engine.
#[test]
fn stabilizer_engine_refutes_a_tampered_route() {
    let circuit = random_clifford_circuit(8, 40, 17);
    let graph = builders::square_lattice(3, 3);
    let layout = LayoutStrategy::Dense.try_compute(&circuit, &graph).unwrap();
    let mut routed = route_with_cache(
        &circuit,
        &graph,
        &layout,
        &RouterConfig::deterministic(17),
        &RoutingCache::new(),
    );
    assert!(verify_equivalent(&circuit, &routed).is_equivalent());
    // Corrupt the route: an extra H on an occupied wire rotates that
    // qubit's stabilizer components, changing the group.
    let occupied = routed.final_layout.physical(0);
    routed.circuit.push(Gate::H, &[occupied]);
    let verdict = verify_equivalent(&circuit, &routed);
    assert!(
        matches!(verdict, Verdict::NotEquivalent(_)),
        "tampered circuit not refuted: {verdict}"
    );
}

/// The dense engine handles non-Clifford circuits on small registers and
/// refutes tampering there too.
#[test]
fn dense_engine_verifies_and_refutes_non_clifford_routes() {
    let circuit = mixed_circuit(6, 30, 23);
    assert!(!circuit.is_clifford(), "want a non-Clifford sample");
    let graph = builders::line(8);
    let layout = LayoutStrategy::Dense.try_compute(&circuit, &graph).unwrap();
    let mut routed = route_with_cache(
        &circuit,
        &graph,
        &layout,
        &RouterConfig::deterministic(23),
        &RoutingCache::new(),
    );
    assert!(verify_equivalent(&circuit, &routed).is_equivalent());
    routed.circuit.push(Gate::X, &[0]);
    assert!(matches!(
        verify_equivalent(&circuit, &routed),
        Verdict::NotEquivalent(_)
    ));
}

/// Pauli spot checks on a large near-Clifford circuit: a Clifford core with
/// sprinkled T gates. Passing is Inconclusive by design; tampering with a
/// propagating path is refuted.
#[test]
fn pauli_spot_checks_catch_large_near_clifford_tampering() {
    let n = 40; // above DENSE_VERIFY_MAX_QUBITS, not Clifford → spot checks
    let mut circuit = random_clifford_circuit(n, 200, 31);
    circuit.push(Gate::T, &[0]);
    assert!(!circuit.is_clifford());
    let graph = builders::square_lattice(7, 7);
    let layout = LayoutStrategy::Dense.try_compute(&circuit, &graph).unwrap();
    let routed = route_with_cache(
        &circuit,
        &graph,
        &layout,
        &RouterConfig::deterministic(31),
        &RoutingCache::new(),
    );
    let verdict = verify_equivalent(&circuit, &routed);
    assert!(
        matches!(verdict, Verdict::Inconclusive(_)),
        "expected spot-check pass: {verdict}"
    );

    // Tamper: flip logical qubit 0's wire *before* the routed circuit runs.
    // The Z_0 probe anticommutes with the inserted X at time zero, so its
    // propagated sign differs and the spot checks must refute.
    let mut tampered = route_with_cache(
        &circuit,
        &graph,
        &layout,
        &RouterConfig::deterministic(31),
        &RoutingCache::new(),
    );
    let mut prefixed = snailqc_circuit::Circuit::new(tampered.circuit.num_qubits());
    prefixed.push(Gate::X, &[tampered.initial_layout.physical(0)]);
    for inst in tampered.circuit.instructions() {
        prefixed.push_instruction(inst.clone());
    }
    tampered.circuit = prefixed;
    let verdict = verify_equivalent(&circuit, &tampered);
    assert!(
        matches!(verdict, Verdict::NotEquivalent(_)),
        "tampering slipped through: {verdict}"
    );
}

/// The Pauli engine and the tableau agree on Clifford conjugation.
#[test]
fn pauli_propagation_matches_tableau_on_cliffords() {
    let n = 10;
    let circuit = random_clifford_circuit(n, 80, 41);
    let mut tab = Tableau::zero_state(n);
    tab.apply_circuit(&circuit).unwrap();
    for q in 0..n {
        // Propagating Z_q through the circuit must reproduce tableau row q
        // (zero_state row q IS Z_q, and both use the same conjugation).
        let mut p = PauliString::z(n, q);
        p.apply_circuit(&circuit).unwrap();
        for col in 0..n {
            assert_eq!(p.x_bit(col), tab.x_bit(q, col), "x q={q} col={col}");
            assert_eq!(p.z_bit(col), tab.z_bit(q, col), "z q={q} col={col}");
        }
        assert_eq!(p.sign(), tab.sign_bit(q), "sign q={q}");
    }
}
