//! Property-based tests for layout, routing and basis translation: the
//! transpiler must preserve program structure for *any* workload/topology
//! combination, not just the curated ones.

use proptest::prelude::*;
use snailqc_circuit::{simulate, Circuit, Gate};
use snailqc_decompose::BasisGate;
use snailqc_topology::builders;
use snailqc_topology::CouplingGraph;
use snailqc_transpiler::{
    count_basis_gates, route_with_cache, translate_to_basis, LayoutStrategy, Pipeline,
    RouterConfig, RoutingCache,
};

/// Random logical circuit over `n` qubits with 1Q and 2Q gates.
fn arb_circuit(n: usize, max_gates: usize) -> impl Strategy<Value = Circuit> {
    proptest::collection::vec(
        (0..5u8, 0..1000u32, 0..1000u32, 0.0..std::f64::consts::TAU),
        1..max_gates,
    )
    .prop_map(move |ops| {
        let mut c = Circuit::new(n);
        for (kind, a, b, angle) in ops {
            let q0 = a as usize % n;
            let mut q1 = b as usize % n;
            if q1 == q0 {
                q1 = (q0 + 1) % n;
            }
            match kind {
                0 => c.h(q0),
                1 => c.rz(angle, q0),
                2 => c.cx(q0, q1),
                3 => c.push(Gate::CPhase(angle), &[q0, q1]),
                _ => c.rzz(angle, q0, q1),
            }
        }
        c
    })
}

/// A small pool of devices with at least 8 qubits each.
fn device(idx: usize) -> CouplingGraph {
    match idx % 5 {
        0 => builders::line(9),
        1 => builders::ring(10),
        2 => builders::square_lattice(3, 3),
        3 => builders::hypercube(3),
        _ => builders::tree4(1),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn routing_preserves_gate_multiset(circuit in arb_circuit(8, 30), dev in 0usize..5, seed in 0u64..500) {
        let graph = device(dev);
        let layout = LayoutStrategy::Dense.try_compute(&circuit, &graph).unwrap();
        let routed = route_with_cache(&circuit, &graph, &layout, &RouterConfig::deterministic(seed), &RoutingCache::new());
        // Every non-SWAP gate of the output corresponds 1:1 to an input gate.
        // The router may interleave gates on independent qubits (a legal
        // topological reordering), so compare as multisets.
        let mut original: Vec<&'static str> =
            circuit.instructions().iter().map(|i| i.gate.name()).collect();
        let mut routed_names: Vec<&'static str> = routed
            .circuit
            .instructions()
            .iter()
            .filter(|i| !i.gate.is_swap())
            .map(|i| i.gate.name())
            .collect();
        original.sort_unstable();
        routed_names.sort_unstable();
        prop_assert_eq!(original, routed_names);
        prop_assert_eq!(routed.circuit.swap_count(), routed.swap_count);
    }

    #[test]
    fn routed_two_qubit_gates_respect_the_device(circuit in arb_circuit(8, 30), dev in 0usize..5, seed in 0u64..500) {
        let graph = device(dev);
        let layout = LayoutStrategy::Dense.try_compute(&circuit, &graph).unwrap();
        let routed = route_with_cache(&circuit, &graph, &layout, &RouterConfig::deterministic(seed), &RoutingCache::new());
        for inst in routed.circuit.instructions() {
            if inst.is_two_qubit() {
                prop_assert!(graph.has_edge(inst.qubits[0], inst.qubits[1]));
            }
        }
    }

    #[test]
    fn final_layout_is_always_a_valid_injection(circuit in arb_circuit(8, 25), dev in 0usize..5, seed in 0u64..500) {
        let graph = device(dev);
        let layout = LayoutStrategy::Dense.try_compute(&circuit, &graph).unwrap();
        let routed = route_with_cache(&circuit, &graph, &layout, &RouterConfig::deterministic(seed), &RoutingCache::new());
        let mut seen = std::collections::HashSet::new();
        for l in 0..circuit.num_qubits() {
            let p = routed.final_layout.physical(l);
            prop_assert!(p < graph.num_qubits());
            prop_assert!(seen.insert(p));
            prop_assert_eq!(routed.final_layout.logical(p), Some(l));
        }
    }

    #[test]
    fn translation_multiplies_within_worst_case_bounds(circuit in arb_circuit(6, 25)) {
        for basis in [BasisGate::Cnot, BasisGate::SqrtISwap, BasisGate::Syc] {
            let (translated, stats) = translate_to_basis(&circuit, basis);
            prop_assert_eq!(stats.input_two_qubit_gates, circuit.two_qubit_count());
            prop_assert_eq!(translated.two_qubit_count(), stats.output_basis_gates);
            prop_assert!(stats.output_basis_gates <= basis.count_for_gate(&Gate::Swap) * circuit.two_qubit_count());
            prop_assert_eq!(count_basis_gates(&circuit, basis), stats.output_basis_gates);
            // Only the basis gate's mnemonic appears among 2Q gates.
            for inst in translated.instructions() {
                if inst.is_two_qubit() {
                    prop_assert_eq!(inst.gate.name(), basis.gate().name());
                }
            }
        }
    }

    #[test]
    fn pipeline_report_invariants_hold(circuit in arb_circuit(8, 25), dev in 0usize..5, seed in 0u64..200) {
        let graph = device(dev);
        let pipeline = Pipeline::builder()
            .layout(LayoutStrategy::Dense)
            .router(RouterConfig { trials: 1, seed, ..RouterConfig::default() })
            .build();
        let report = pipeline.run(&circuit, &graph, Some(BasisGate::SqrtISwap), &RoutingCache::new())
.unwrap().report;
        prop_assert_eq!(report.input_two_qubit_gates, circuit.two_qubit_count());
        prop_assert_eq!(
            report.routed_two_qubit_gates,
            report.input_two_qubit_gates + report.swap_count
        );
        prop_assert!(report.swap_depth <= report.swap_count);
        prop_assert!(report.basis_gate_depth <= report.basis_gate_count);
        prop_assert!(report.basis_gate_count >= report.routed_two_qubit_gates);
        prop_assert!(report.basis_gate_count <= 3 * report.routed_two_qubit_gates);
    }

    #[test]
    fn dense_layout_is_injective_on_any_device(circuit in arb_circuit(8, 20), dev in 0usize..5) {
        let graph = device(dev);
        let layout = LayoutStrategy::Dense.try_compute(&circuit, &graph).unwrap();
        let mut seen = std::collections::HashSet::new();
        for q in 0..circuit.num_qubits() {
            prop_assert!(seen.insert(layout.physical(q)));
        }
    }

    #[test]
    fn complete_device_is_always_swap_free(circuit in arb_circuit(8, 30), seed in 0u64..200) {
        let graph = builders::complete(8);
        let layout = LayoutStrategy::Trivial.try_compute(&circuit, &graph).unwrap();
        let routed = route_with_cache(&circuit, &graph, &layout, &RouterConfig::deterministic(seed), &RoutingCache::new());
        prop_assert_eq!(routed.swap_count, 0);
    }

    #[test]
    fn noise_aware_routing_still_respects_the_device(
        circuit in arb_circuit(8, 30),
        dev in 0usize..5,
        seed in 0u64..500,
        spread in 0.0f64..2.0,
        error_weight in 0.0f64..3.0,
    ) {
        let graph = builders::calibrated(&device(dev), 1e-3, spread, seed ^ 0xA5A5);
        let layout = LayoutStrategy::Dense.try_compute(&circuit, &graph).unwrap();
        let config = RouterConfig {
            trials: 1,
            seed,
            ..RouterConfig::noise_aware(error_weight)
        };
        let routed = route_with_cache(&circuit, &graph, &layout, &config, &RoutingCache::new());
        for inst in routed.circuit.instructions() {
            if inst.is_two_qubit() {
                prop_assert!(graph.has_edge(inst.qubits[0], inst.qubits[1]));
            }
        }
        // Non-SWAP gates survive as a multiset (no gate lost to rerouting).
        let mut original: Vec<&'static str> =
            circuit.instructions().iter().map(|i| i.gate.name()).collect();
        let mut routed_names: Vec<&'static str> = routed
            .circuit
            .instructions()
            .iter()
            .filter(|i| !i.gate.is_swap())
            .map(|i| i.gate.name())
            .collect();
        original.sort_unstable();
        routed_names.sort_unstable();
        prop_assert_eq!(original, routed_names);
    }

    #[test]
    fn noise_aware_routing_preserves_semantics(
        circuit in arb_circuit(8, 20),
        dev in 0usize..2,
        seed in 0u64..200,
        error_weight in 0.0f64..3.0,
    ) {
        // Route onto an equal-sized calibrated device and compare
        // statevectors: the routed circuit must implement the original up to
        // the tracked qubit permutation, no matter how noisy the links are.
        let n = circuit.num_qubits();
        let base = if dev == 0 { builders::hypercube(3) } else { builders::ring(8) };
        prop_assert_eq!(base.num_qubits(), n);
        let graph = builders::calibrated(&base, 1e-3, 1.5, seed);
        let layout = LayoutStrategy::Trivial.try_compute(&circuit, &graph).unwrap();
        let config = RouterConfig {
            trials: 1,
            seed,
            ..RouterConfig::noise_aware(error_weight)
        };
        let routed = route_with_cache(&circuit, &graph, &layout, &config, &RoutingCache::new());
        let sv_original = simulate(&circuit);
        let sv_routed = simulate(&routed.circuit);
        let perm: Vec<usize> = (0..n)
            .map(|p| routed.final_layout.logical(p).unwrap_or(p))
            .collect();
        let sv_logical = sv_routed.permute_qubits(&perm);
        let fidelity = sv_original.fidelity(&sv_logical);
        prop_assert!(
            fidelity > 1.0 - 1e-7,
            "noise-aware routing broke semantics: fidelity {}",
            fidelity
        );
        // The dedicated verification engine must reach the same conclusion.
        let verdict = snailqc_sim::verify_equivalent(&circuit, &routed);
        prop_assert!(verdict.is_equivalent(), "{verdict}");
    }

    /// `verify_equivalent` endorses every routed circuit on every device in
    /// the pool — the sim crate's dense engine handles the general
    /// (non-Clifford) circuits arb_circuit produces, including routes onto
    /// more physical qubits than the circuit has logical ones. Devices above
    /// the dense ceiling fall back to Pauli spot checks, which must at least
    /// be consistent (never a refutation).
    #[test]
    fn verification_engine_endorses_routed_circuits(
        circuit in arb_circuit(8, 20),
        dev in 0usize..5,
        seed in 0u64..500,
    ) {
        let graph = device(dev);
        let layout = LayoutStrategy::Dense.try_compute(&circuit, &graph).unwrap();
        let routed = route_with_cache(&circuit, &graph, &layout, &RouterConfig::deterministic(seed), &RoutingCache::new());
        let verdict = snailqc_sim::verify_equivalent(&circuit, &routed);
        if graph.num_qubits() <= snailqc_sim::DENSE_VERIFY_MAX_QUBITS || circuit.is_clifford() {
            prop_assert!(verdict.is_equivalent(), "dev={dev} seed={seed}: {verdict}");
        } else {
            prop_assert!(
                !matches!(verdict, snailqc_sim::Verdict::NotEquivalent(_)),
                "dev={dev} seed={seed}: {verdict}"
            );
        }
    }

    /// Routed Clifford circuits are verified by the stabilizer engine —
    /// exact group equality, no floating-point tolerance involved.
    #[test]
    fn clifford_routes_are_stabilizer_verified(
        dev in 0usize..5,
        gates in 10usize..60,
        seed in 0u64..500,
    ) {
        let circuit = snailqc_workloads::random_clifford_circuit(8, gates, seed);
        prop_assert!(circuit.is_clifford());
        let graph = device(dev);
        let layout = LayoutStrategy::Dense.try_compute(&circuit, &graph).unwrap();
        let routed = route_with_cache(&circuit, &graph, &layout, &RouterConfig::deterministic(seed), &RoutingCache::new());
        let verdict = snailqc_sim::verify_equivalent(&circuit, &routed);
        prop_assert!(verdict.is_equivalent(), "dev={dev} seed={seed}: {verdict}");
    }
}
