//! Kiloqubit Clifford equivalence suite.
//!
//! The headline capability of the stabilizer engine: prove that the router
//! preserves semantics on the catalog's largest cells — GHZ-625 on the
//! 25×25 grid and GHZ-1000 on the 10-dimensional hypercube (1024 physical
//! qubits) — sizes where dense simulation is out of the question by ~300
//! orders of magnitude. Each proof must land well inside the CI budget.

use snailqc_sim::{verify_equivalent, Verdict};
use snailqc_topology::builders;
use snailqc_transpiler::{route_with_cache, LayoutStrategy, RouterConfig, RoutingCache};

fn verify_ghz_cell(graph: &snailqc_topology::CouplingGraph, qubits: usize) -> Verdict {
    let circuit = snailqc_workloads::ghz(qubits);
    let layout = LayoutStrategy::Dense.try_compute(&circuit, graph).unwrap();
    let routed = route_with_cache(
        &circuit,
        graph,
        &layout,
        &RouterConfig::default(),
        &RoutingCache::new(),
    );
    assert!(routed.swap_count > 0, "kiloqubit routes must insert SWAPs");
    verify_equivalent(&circuit, &routed)
}

#[test]
fn routed_ghz_625_is_equivalent_on_the_grid() {
    let graph = builders::square_lattice(25, 25);
    let verdict = verify_ghz_cell(&graph, 625);
    assert!(verdict.is_equivalent(), "{verdict}");
}

#[test]
fn routed_ghz_1000_is_equivalent_on_the_hypercube() {
    let graph = builders::hypercube(10);
    let verdict = verify_ghz_cell(&graph, 1000);
    assert!(verdict.is_equivalent(), "{verdict}");
}

#[test]
fn kiloqubit_tampering_is_refuted() {
    // Same 625-qubit cell, with the routed circuit corrupted: the proof
    // machinery must be able to say "no" at scale, not just "yes".
    let graph = builders::square_lattice(25, 25);
    let circuit = snailqc_workloads::ghz(625);
    let layout = LayoutStrategy::Dense.try_compute(&circuit, &graph).unwrap();
    let mut routed = route_with_cache(
        &circuit,
        &graph,
        &layout,
        &RouterConfig::default(),
        &RoutingCache::new(),
    );
    routed
        .circuit
        .push(snailqc_circuit::Gate::H, &[routed.final_layout.physical(0)]);
    let verdict = verify_equivalent(&circuit, &routed);
    assert!(
        matches!(verdict, Verdict::NotEquivalent(_)),
        "corrupted kiloqubit route not refuted: {verdict}"
    );
}
