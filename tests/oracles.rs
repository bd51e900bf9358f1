//! The oracles every simplification relies on, in tier-1.
//!
//! `cargo test` at the repository root only runs the root package, while
//! the full oracle suites live in the member crates. This file runs a fast
//! slice of each so a change that moves a routed gate fails tier-1 too:
//!
//! * the frozen router digests (`snailqc-transpiler`'s `router_equivalence`)
//!   and two cells of the kiloqubit fence (`kiloqubit`);
//! * the frozen noise-blind SWAP baselines (`noise_regression`);
//! * the frozen basis-gate counts and depths in all three bases;
//! * sim engine agreement: dense kernels vs the reference kernels bit for
//!   bit, the stabilizer tableau vs the dense state, and routed-circuit
//!   verification with tamper refutation (`snailqc-sim`'s
//!   `engine_agreement`);
//! * one kiloqubit stabilizer proof (`kiloqubit_equivalence`).
//!
//! The frozen tables and helpers are the crate suites' own files, pulled in
//! with `#[path]`, so there is one copy of every digest.

#[path = "../crates/transpiler/tests/frozen/mod.rs"]
mod frozen;
#[path = "../crates/sim/tests/support/mod.rs"]
mod sim_support;

use sim_support::{bitwise_eq, mixed_circuit, row_stabilizes};
use snailqc::prelude::*;
use snailqc::sim::Tableau;
use snailqc::topology::{builders, catalog};
use snailqc::transpiler::{route_with_cache, RoutedCircuit, RoutingCache};
use snailqc::workloads::random_clifford_circuit;

#[test]
fn router_matches_the_frozen_digests_on_every_catalog_topology() {
    assert_eq!(catalog::names().len(), frozen::FROZEN.len());
    for &(name, blind, aware) in &frozen::FROZEN {
        assert_eq!(
            frozen::digest(&frozen::route_cell(name, false)),
            blind,
            "{name}: noise-blind routed output drifted from the frozen router"
        );
        assert_eq!(
            frozen::digest(&frozen::route_cell(name, true)),
            aware,
            "{name}: noise-aware routed output drifted from the frozen router"
        );
    }
}

#[test]
fn router_matches_the_frozen_kiloqubit_fence() {
    // The noise-aware cell and the QFT-48 grid cell; the crate suite
    // (`kiloqubit`) checks every fence cell.
    for cell in ["noise-aware qaoa-48 grid-25x25", "qft-48 grid-25x25"] {
        let (_, frozen) = *frozen::FENCE.iter().find(|row| row.0 == cell).unwrap();
        assert_eq!(
            frozen::digest(&frozen::route_fence_cell(cell)),
            frozen,
            "{cell}: routed output drifted from the frozen fence"
        );
    }
}

#[test]
fn pipeline_matches_the_frozen_swap_baselines() {
    let pipeline = Pipeline::builder().build();
    for &(name, workload, swaps, depth) in &frozen::BASELINE {
        let device = Device::from_catalog(name).unwrap();
        let report = device
            .try_transpile(&workload.generate(12, 7), &pipeline)
            .unwrap()
            .report;
        assert_eq!(
            (report.swap_count, report.swap_depth),
            (swaps, depth),
            "{} on {name}: router output drifted from the frozen baseline",
            workload.label()
        );
    }
}

#[test]
fn basis_translation_matches_the_frozen_counts_on_every_catalog_topology() {
    let names = catalog::names();
    assert_eq!(frozen::BASIS.len(), 4 * names.len());
    for name in names {
        assert!(frozen::BASIS.iter().any(|row| row.0 == name), "{name}");
    }
    for &(name, workload, counts) in &frozen::BASIS {
        assert_eq!(
            frozen::basis_cell(name, workload),
            counts,
            "{} on {name}: basis-gate (count, depth) per basis drifted",
            workload.label()
        );
    }
}

#[test]
fn dense_kernels_match_the_reference_kernels_bitwise() {
    use snailqc::circuit::simulate;
    use snailqc::circuit::simulator::reference;
    for seed in [3, 17, 29] {
        let circuit = mixed_circuit(8, 40, seed);
        let old = reference::simulate(&circuit);
        assert!(bitwise_eq(&old, &simulate(&circuit)), "serial, seed {seed}");
    }
}

#[test]
fn stabilizer_tableau_agrees_with_the_dense_state() {
    for seed in [5, 11, 42] {
        let circuit = random_clifford_circuit(8, 60, seed);
        let mut tableau = Tableau::zero_state(8);
        tableau.apply_circuit(&circuit).unwrap();
        let canon = tableau.canonical_form();
        let state = snailqc::circuit::simulate(&circuit);
        for row in 0..canon.num_rows() {
            assert!(
                row_stabilizes(&canon, row, &state, 1e-8),
                "row {row} does not stabilize the dense state (seed {seed})"
            );
        }
    }
}

fn route_dense(circuit: &Circuit, graph: &CouplingGraph, config: &RouterConfig) -> RoutedCircuit {
    let layout = LayoutStrategy::Dense.try_compute(circuit, graph).unwrap();
    route_with_cache(circuit, graph, &layout, config, &RoutingCache::new())
}

#[test]
fn routed_circuits_verify_and_tampered_ones_are_refuted() {
    // Clifford routes go to the stabilizer engine, small non-Clifford
    // routes to the dense engine; both must also say "no".
    let cases = [
        (
            random_clifford_circuit(8, 40, 17),
            builders::square_lattice(3, 3),
        ),
        (mixed_circuit(6, 30, 23), builders::line(8)),
    ];
    for (seed, (circuit, graph)) in [17u64, 23].into_iter().zip(cases) {
        let mut routed = route_dense(&circuit, &graph, &RouterConfig::deterministic(seed));
        assert!(
            verify_equivalent(&circuit, &routed).is_equivalent(),
            "seed {seed}"
        );
        let occupied = routed.final_layout.physical(0);
        routed.circuit.push(Gate::H, &[occupied]);
        assert!(
            matches!(
                verify_equivalent(&circuit, &routed),
                Verdict::NotEquivalent(_)
            ),
            "tampered route not refuted (seed {seed})"
        );
    }
}

#[test]
fn routed_ghz_625_is_stabilizer_proven_on_the_grid() {
    let circuit = snailqc::workloads::ghz(625);
    let routed = route_dense(
        &circuit,
        &builders::square_lattice(25, 25),
        &RouterConfig::default(),
    );
    assert!(routed.swap_count > 0, "kiloqubit routes must insert SWAPs");
    let verdict = verify_equivalent(&circuit, &routed);
    assert!(verdict.is_equivalent(), "{verdict}");
}
