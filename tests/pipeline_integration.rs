//! Cross-crate integration tests: the full Fig.-10 staged pipeline from
//! workload generation through placement, routing and basis translation, on
//! every device in the paper's small line-up — all through the `Device` +
//! `Pipeline` entry points.

use snailqc::prelude::*;
use snailqc::topology::catalog;

#[test]
fn every_workload_transpiles_onto_every_small_machine() {
    let devices: Vec<Device> = Machine::figure13_lineup()
        .into_iter()
        .map(Device::from_machine)
        .collect();
    let pipeline = Pipeline::default();
    for workload in Workload::all() {
        let circuit = workload.generate(10, 11);
        for device in &devices {
            let result = device.try_transpile(&circuit, &pipeline).unwrap();
            let r = result.report;
            assert_eq!(
                r.routed_two_qubit_gates,
                r.input_two_qubit_gates + r.swap_count,
                "{} on {}",
                workload.label(),
                device.label()
            );
            assert!(
                r.basis_gate_count >= r.routed_two_qubit_gates,
                "{} on {}",
                workload.label(),
                device.label()
            );
            assert!(r.basis_gate_depth <= r.basis_gate_count);
            // Every two-qubit gate in the routed circuit respects the device.
            for inst in result.routed.circuit.instructions() {
                if inst.is_two_qubit() {
                    assert!(device.graph().has_edge(inst.qubits[0], inst.qubits[1]));
                }
            }
            // The trace mirrors the report's deltas.
            assert_eq!(result.trace.swaps_inserted(), r.swap_count);
            assert!(result.trace.stage("translation").is_some());
        }
    }
}

#[test]
fn routed_ghz_still_prepares_a_ghz_state() {
    // End-to-end semantic check across crates: generate GHZ, route it onto
    // the 16-qubit hypercube, simulate the physical circuit and verify the
    // state is still a GHZ state over the mapped qubits.
    use snailqc::circuit::simulate;
    let n = 16;
    let circuit = Workload::Ghz.generate(n, 1);
    let device = Device::from_catalog("hypercube-16").unwrap();
    let result = device
        .try_transpile(&circuit, &Pipeline::default())
        .unwrap();
    let sv = simulate(&result.routed.circuit);
    // Map physical back to logical and check the two GHZ amplitudes.
    let perm: Vec<usize> = (0..n)
        .map(|p| result.routed.final_layout.logical(p).unwrap_or(p))
        .collect();
    let logical = sv.permute_qubits(&perm);
    assert!((logical.probability(0) - 0.5).abs() < 1e-9);
    assert!((logical.probability((1 << n) - 1) - 0.5).abs() < 1e-9);
}

#[test]
fn richer_snail_topologies_dominate_heavy_hex_on_qft() {
    let circuit = Workload::Qft.generate(16, 5);
    let pipeline = Pipeline::default();
    let heavy = Device::from_catalog("heavy-hex-20")
        .unwrap()
        .with_basis(BasisGate::Cnot)
        .try_transpile(&circuit, &pipeline)
        .unwrap()
        .report;
    for name in ["tree-20", "corral12-16", "hypercube-16"] {
        let device = Device::from_catalog(name)
            .unwrap()
            .with_basis(BasisGate::SqrtISwap);
        let snail = device.try_transpile(&circuit, &pipeline).unwrap().report;
        assert!(
            snail.swap_count < heavy.swap_count,
            "{}: {} vs heavy-hex {}",
            device.label(),
            snail.swap_count,
            heavy.swap_count
        );
        assert!(
            snail.basis_gate_depth < heavy.basis_gate_depth,
            "{}: duration {} vs heavy-hex {}",
            device.label(),
            snail.basis_gate_depth,
            heavy.basis_gate_depth
        );
    }
}

#[test]
fn corral_needs_almost_no_swaps_for_small_circuits() {
    // §6.1: "the transpiler manages to find an initial mapping that often
    // requires zero SWAP gates for Corral1,1". A 4-qubit program fits inside
    // one of the Corral's 4-cliques exactly; slightly larger programs should
    // still need only a handful of SWAPs (far fewer than heavy-hex).
    let corral = Device::from_catalog("corral11-16").unwrap();
    let heavy = Device::from_catalog("heavy-hex-20").unwrap();
    let pipeline = Pipeline::default();
    let four = Workload::QuantumVolume.generate(4, 9);
    let report = corral.try_transpile(&four, &pipeline).unwrap().report;
    assert_eq!(report.swap_count, 0, "4-qubit QV should map SWAP-free");

    for size in [6, 8] {
        let circuit = Workload::QuantumVolume.generate(size, 9);
        let on_corral = corral.try_transpile(&circuit, &pipeline).unwrap().report;
        let on_heavy = heavy.try_transpile(&circuit, &pipeline).unwrap().report;
        assert!(
            2 * on_corral.swap_count <= on_heavy.swap_count.max(1),
            "size {size}: corral {} vs heavy-hex {}",
            on_corral.swap_count,
            on_heavy.swap_count
        );
    }
}

#[test]
fn noise_aware_routing_beats_noise_blind_on_a_degraded_corral() {
    // The PR-2 acceptance scenario through the new API: degrade one corral
    // edge 10× via an error-model override (0.001 → 0.01) and compare the
    // edge-aware fidelity estimates of noise-blind vs noise-aware routing,
    // for both the QAOA and QV workloads.
    use snailqc::core::fidelity::{estimate_fidelity_edges, ErrorModel};

    let spec = ErrorModelSpec::from_json(r#"{"edges": [[0, 2, 0.01]]}"#).unwrap();
    let device = Device::from_catalog("corral11-16")
        .unwrap()
        .with_error_model(spec)
        .unwrap();
    let model = ErrorModel::default();

    // Routing is a seeded heuristic; these are fixed-seed regression points
    // (the improvement holds for most seeds, e.g. 8 of 11 for QV).
    for (workload, seed) in [(Workload::QaoaVanilla, 7), (Workload::QuantumVolume, 2)] {
        let circuit = workload.generate(12, seed);
        let run = |error_weight: f64| {
            let pipeline = Pipeline::builder().error_weight(error_weight).build();
            device.try_transpile(&circuit, &pipeline).unwrap().report
        };
        let blind = estimate_fidelity_edges(&run(0.0), &model);
        let aware = estimate_fidelity_edges(&run(1.0), &model);
        assert!(
            aware.total_fidelity > blind.total_fidelity,
            "{}: noise-aware {} must beat noise-blind {}",
            workload.label(),
            aware.total_fidelity,
            blind.total_fidelity
        );
    }
}

#[test]
fn basis_choice_does_not_change_routing() {
    // Basis translation happens after routing, so SWAP counts are identical
    // across bases for the same seed (Fig. 10 ordering).
    let circuit = Workload::Qft.generate(12, 3);
    let graph = catalog::tree_20();
    let mut counts = Vec::new();
    for basis in BasisGate::all() {
        let report = Device::from(graph.clone())
            .with_basis(basis)
            .try_transpile(&circuit, &Pipeline::default())
            .unwrap()
            .report;
        counts.push(report.swap_count);
    }
    assert_eq!(counts[0], counts[1]);
    assert_eq!(counts[1], counts[2]);
}
