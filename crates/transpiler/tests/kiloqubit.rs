//! Kiloqubit-scale regression suite: frozen digests on 625- and 1024-qubit
//! devices, their stability across runs and trial parallelism, plus the
//! disconnected-device layout/routing semantics the compact-distance rework
//! fixed.
//!
//! The graphs are built from `snailqc_topology::builders` directly (the
//! same generators behind `devices/grid_625.json` and
//! `devices/hypercube_1024.json`) so this crate's tests stay independent of
//! the device layer above it.

mod frozen;

use frozen::{digest, route_fence_cell, FENCE, KILOQUBIT};
use snailqc_topology::{builders, CouplingGraph};
use snailqc_transpiler::{
    route_with_cache, LayoutStrategy, Pipeline, RoutedCircuit, RouterConfig, RoutingCache,
};

fn route_kiloqubit(graph: &CouplingGraph, qubits: usize) -> RoutedCircuit {
    let circuit = snailqc_workloads::ghz(qubits);
    let layout = LayoutStrategy::Dense.try_compute(&circuit, graph).unwrap();
    route_with_cache(
        &circuit,
        graph,
        &layout,
        &RouterConfig::default(),
        &RoutingCache::new(),
    )
}

/// Beyond digest stability: the stabilizer engine proves the kiloqubit
/// routes are *semantically* correct — GHZ is Clifford, so equivalence on
/// 625 and 1024 physical qubits is decided exactly, with no tolerance.
#[test]
fn kiloqubit_routes_are_stabilizer_verified() {
    let cells = [
        (builders::square_lattice(25, 25), 600usize),
        (builders::hypercube(10), 1000),
    ];
    for (graph, qubits) in &cells {
        let circuit = snailqc_workloads::ghz(*qubits);
        let layout = LayoutStrategy::Dense.try_compute(&circuit, graph).unwrap();
        let routed = route_with_cache(
            &circuit,
            graph,
            &layout,
            &RouterConfig::default(),
            &RoutingCache::new(),
        );
        let verdict = snailqc_sim::verify_equivalent(&circuit, &routed);
        assert!(verdict.is_equivalent(), "{}: {verdict}", graph.name());
    }
}

/// Each kiloqubit cell routes to its frozen digest, so a router change that
/// shifts output at this scale fails even when it does so consistently. Two
/// independent runs must agree bit for bit, and the digest must not depend
/// on how many worker threads the trial fan-out uses (the
/// `RAYON_NUM_THREADS` knob).
#[test]
fn kiloqubit_digests_are_stable_across_runs_and_parallelism() {
    let cells = [
        (builders::square_lattice(25, 25), 600usize),
        (builders::hypercube(10), 1000),
    ];
    for ((graph, qubits), (name, frozen_qubits, frozen)) in cells.iter().zip(KILOQUBIT) {
        assert_eq!((graph.name(), *qubits), (name, frozen_qubits));
        let first = digest(&route_kiloqubit(graph, *qubits));
        assert_eq!(
            first, frozen,
            "{name}: digest {first:#018x} is not the frozen one"
        );
        let second = digest(&route_kiloqubit(graph, *qubits));
        assert_eq!(first, second, "{}: rerun changed the digest", graph.name());

        for threads in ["1", "4"] {
            std::env::set_var("RAYON_NUM_THREADS", threads);
            let parallel = digest(&route_kiloqubit(graph, *qubits));
            std::env::remove_var("RAYON_NUM_THREADS");
            assert_eq!(
                first,
                parallel,
                "{}: digest depends on trial parallelism ({threads} threads)",
                graph.name()
            );
        }
    }
}

/// A layout on a fragmented device sits inside one connected component, and
/// routing accepts it — the end-to-end path the old
/// `assert!(graph.is_connected())` used to reject outright.
#[test]
fn disconnected_device_routes_within_the_largest_component() {
    // A 4×4 grid (16 qubits) plus a 6-qubit line, fused into one 22-qubit
    // graph with no edges between the parts.
    let mut edges: Vec<(usize, usize)> = builders::square_lattice(4, 4).edges().collect();
    edges.extend((16..21).map(|q| (q, q + 1)));
    let graph = CouplingGraph::from_edges("grid-plus-line", 22, &edges);

    let circuit = snailqc_workloads::ghz(10);
    let layout = LayoutStrategy::Dense
        .try_compute(&circuit, &graph)
        .expect("largest component fits 10 qubits");
    // Every occupied physical qubit lands in the 16-qubit grid component.
    for logical in 0..circuit.num_qubits() {
        assert!(layout.physical(logical) < 16, "layout strayed off the grid");
    }
    let routed = route_with_cache(
        &circuit,
        &graph,
        &layout,
        &RouterConfig::default(),
        &RoutingCache::new(),
    );
    assert_eq!(digest(&routed), digest(&routed), "routable");

    // Asking for more qubits than the largest component holds is an error
    // carrying the component geometry, not a panic or a bogus layout.
    let too_big = snailqc_workloads::ghz(20);
    let err = LayoutStrategy::Dense
        .try_compute(&too_big, &graph)
        .expect_err("20 > 16");
    assert_eq!(err.requested, 20);
    assert_eq!(err.largest_component, 16);
    assert_eq!(err.components, 2);

    // The pipeline surfaces the same failure as a `TranspileError`.
    let err = Pipeline::builder()
        .layout(LayoutStrategy::Dense)
        .build()
        .run(&too_big, &graph, None, &RoutingCache::new())
        .expect_err("pipeline must refuse the placement");
    assert!(
        err.to_string().contains("largest connected component"),
        "unexpected error text: {err}"
    );
}

/// The routing fence: every non-GHZ cell `kiloqubit_cli` times, and one
/// noise-aware cell on the calibrated grid, routes to its frozen digest.
#[test]
fn kiloqubit_fence_cells_route_to_their_frozen_digests() {
    let drifted: Vec<String> = FENCE
        .iter()
        .filter_map(|&(cell, frozen)| {
            let routed = digest(&route_fence_cell(cell));
            (routed != frozen).then(|| format!("{cell}: {routed:#018x} (frozen {frozen:#018x})"))
        })
        .collect();
    assert!(
        drifted.is_empty(),
        "fence digests drifted:\n{}",
        drifted.join("\n")
    );
}
