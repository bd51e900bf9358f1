//! API equivalence suite, exercised through the façade crate:
//!
//! * a pipeline run on a bare catalog graph with an explicit basis is
//!   bitwise-identical to the `Device`-driven run, where the basis comes
//!   from the device, on every catalog topology;
//! * `Device::from_machine` builds the catalog entry a `Machine` names;
//! * the sweep store replays cells bitwise.

use snailqc::prelude::*;
use snailqc::topology::catalog;
use snailqc::transpiler::RoutingCache;

fn same_instructions(a: &Circuit, b: &Circuit) -> bool {
    a.len() == b.len()
        && a.instructions()
            .iter()
            .zip(b.instructions())
            .all(|(x, y)| x.gate == y.gate && x.qubits == y.qubits)
}

#[test]
fn device_pipeline_matches_the_bare_graph_pipeline_on_every_catalog_topology() {
    // For any (graph, basis) the Device-driven Pipeline output is
    // bitwise-identical to the same pipeline run on the bare graph with the
    // basis fixed up front, across all 16 catalog topologies.
    let names = catalog::names();
    assert_eq!(names.len(), 16);
    let circuit = Workload::Qft.generate(12, 7);
    for name in names {
        let graph = catalog::by_name(name).unwrap();
        for basis in [None, Some(BasisGate::SqrtISwap)] {
            let builder = Pipeline::builder().seed(19);
            let explicit = match basis {
                Some(basis) => builder.translate_to(basis),
                None => builder.routing_only(),
            }
            .build();
            let bare = explicit
                .run(&circuit, &graph, None, &RoutingCache::new())
                .unwrap();

            let mut device = Device::from_catalog(name).unwrap();
            if let Some(basis) = basis {
                device = device.with_basis(basis);
            }
            let staged = device
                .try_transpile(&circuit, &Pipeline::builder().seed(19).build())
                .unwrap();

            assert_eq!(
                bare.report, staged.report,
                "{name} basis {basis:?}: report drifted"
            );
            assert!(
                same_instructions(&bare.routed.circuit, &staged.routed.circuit),
                "{name} basis {basis:?}: routed circuit drifted"
            );
        }
    }
}

#[test]
fn device_round_trips_with_machine_for_both_lineups() {
    for machine in Machine::figure13_lineup()
        .into_iter()
        .chain(Machine::figure14_lineup())
    {
        let device = Device::from_machine(machine);
        assert_eq!(device.basis(), Some(machine.basis));
        assert_eq!(device.label(), machine.label());
        assert_eq!(device.graph(), &machine.graph());
        // The machine's topology is its catalog entry: the same device
        // comes back through the forgiving catalog lookup of its graph name.
        let rebuilt = Device::from_catalog(machine.graph().name())
            .unwrap()
            .with_basis(machine.basis)
            .with_label(machine.label());
        assert_eq!(rebuilt, device);
        let renamed = Machine::new(machine.graph().name(), machine.basis).unwrap();
        assert_eq!(renamed, machine);
    }
}

#[test]
fn sweep_store_replays_cells_bitwise_through_the_facade() {
    let path = std::env::temp_dir().join(format!(
        "snailqc-api-redesign-store-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let devices = vec![
        Device::from_catalog("corral11-16").unwrap(),
        Device::from_machine(Machine::figure13_lineup()[0]),
    ];
    let config = SweepConfig::smoke();

    let mut store = SweepStore::open(&path);
    let first = run_sweep_with_store(&devices, &config, Some(&mut store));
    let mut store = SweepStore::open(&path);
    let second = run_sweep_with_store(&devices, &config, Some(&mut store));
    assert_eq!(store.hits(), first.len());
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.topology, b.topology);
        assert_eq!(a.basis, b.basis);
        assert_eq!(a.report, b.report);
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn pass_trace_orders_stages_and_reconciles_with_the_report() {
    let circuit = Workload::QuantumVolume.generate(10, 5);
    let device = Device::from_catalog("tree-20")
        .unwrap()
        .with_basis(BasisGate::SqrtISwap);
    let result = device
        .try_transpile(&circuit, &Pipeline::default())
        .unwrap();
    let names: Vec<&str> = result.trace.stages.iter().map(|s| s.stage).collect();
    assert_eq!(names, ["layout", "routing", "translation", "analysis"]);
    assert_eq!(result.trace.swaps_inserted(), result.report.swap_count);
    assert_eq!(
        result.trace.stage("translation").unwrap().two_qubit_out,
        result.report.basis_gate_count
    );
}
