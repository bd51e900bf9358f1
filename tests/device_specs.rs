//! Builder ↔ spec digest-parity suite.
//!
//! The device-spec format's core guarantee: a spec that mirrors a built-in
//! topology routes *bitwise-identically* to the builder-constructed graph.
//! For every catalog topology, export the builder graph with
//! `DeviceSpec::from_graph`, reload it through `Device::from_spec_str`, and
//! compare full routed-instruction digests in both the noise-blind and the
//! noise-aware configuration of the PR-5 frozen-digest harness (the
//! calibrated graphs exercise the per-edge override export path).

use snailqc::core::device::Device;
use snailqc::devices::DeviceSpec;
use snailqc::topology::{builders, catalog, CouplingGraph};
use snailqc::transpiler::{
    route_with_cache, LayoutStrategy, RoutedCircuit, RouterConfig, RoutingCache,
};
use snailqc::workloads::Workload;

/// FNV-1a digest of a routed circuit — same construction as the frozen
/// router-equivalence harness: every instruction's gate (debug form covers
/// the variant and any `f64` parameters bit-exactly) and operand list, then
/// the final layout permutation.
fn digest(routed: &RoutedCircuit) -> u64 {
    let mut bytes = Vec::new();
    for inst in routed.circuit.instructions() {
        bytes.extend_from_slice(format!("{:?}|{:?};", inst.gate, inst.qubits).as_bytes());
    }
    bytes.extend_from_slice(format!("final={:?}", routed.final_layout.as_slice()).as_bytes());
    snailqc_util::fnv1a_64(&bytes)
}

fn route_on(graph: &CouplingGraph, noise_aware: bool) -> RoutedCircuit {
    let (config, workload) = if noise_aware {
        (RouterConfig::noise_aware(1.0), Workload::QaoaVanilla)
    } else {
        (RouterConfig::default(), Workload::QuantumVolume)
    };
    let circuit = workload.generate(12, 7);
    let layout = LayoutStrategy::Dense.try_compute(&circuit, graph).unwrap();
    route_with_cache(&circuit, graph, &layout, &config, &RoutingCache::new())
}

/// Round-trips a graph through the spec format and returns the reloaded
/// coupling graph (with its calibration applied by `Device::from_spec_str`).
fn through_spec(name: &str, graph: &CouplingGraph) -> CouplingGraph {
    let text = DeviceSpec::from_graph(name, graph).to_json();
    Device::from_spec_str(&text)
        .unwrap_or_else(|e| panic!("{name}: reload failed: {e}\n{text}"))
        .graph()
        .clone()
}

#[test]
fn spec_exported_catalog_devices_route_bitwise_identically_noise_blind() {
    for name in catalog::names() {
        let builder_graph = catalog::by_name(name).unwrap();
        let spec_graph = through_spec(name, &builder_graph);
        assert_eq!(
            digest(&route_on(&builder_graph, false)),
            digest(&route_on(&spec_graph, false)),
            "noise-blind routed digest diverged for `{name}`"
        );
    }
}

#[test]
fn spec_exported_calibrated_devices_route_bitwise_identically_noise_aware() {
    for name in catalog::names() {
        let calibrated = builders::calibrated(&catalog::by_name(name).unwrap(), 1e-3, 1.2, 17);
        let spec_graph = through_spec(name, &calibrated);
        assert_eq!(
            digest(&route_on(&calibrated, true)),
            digest(&route_on(&spec_graph, true)),
            "noise-aware routed digest diverged for `{name}`"
        );
    }
}
