//! Property test: exporting any device graph as spec JSON and loading it
//! back through `Device::from_spec_str` reconstructs the identical coupling
//! structure and calibration.
//!
//! `DeviceSpec::from_graph` → `to_json` → `Device::from_spec_str` must
//! preserve the qubit count, the (lexicographic) edge list, the default
//! edge-error rate, and every per-edge override — to the exact f64 bits,
//! since those feed noise-aware routing digests.

use proptest::prelude::*;
use snailqc_core::device::Device;
use snailqc_devices::DeviceSpec;
use snailqc_topology::CouplingGraph;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn spec_roundtrip_preserves_graph_and_calibration(
        n in 3usize..24,
        extra in proptest::collection::vec((0usize..24, 0usize..24), 0..20),
        uniform in 0usize..3,
        overrides in proptest::collection::vec((0usize..64, 1u32..400_000), 0..6),
    ) {
        // A deterministic spanning structure keeps every sample connected;
        // the `extra` edges add arbitrary shortcuts (dups/self-loops are
        // ignored by `from_edges`).
        let mut edges: Vec<(usize, usize)> = (1..n).map(|q| (q, (q - 1) / 2)).collect();
        edges.extend(extra.iter().map(|&(a, b)| (a % n, b % n)));
        let mut graph = CouplingGraph::from_edges("prop", n, &edges);
        if uniform == 1 {
            graph.set_uniform_edge_error(3.3e-3);
        }
        let edges: Vec<(usize, usize)> = graph.edges().collect();
        for (pick, rate) in overrides {
            let (a, b) = edges[pick % edges.len()];
            graph.set_edge_error(a, b, rate as f64 * 1e-6);
        }

        let text = DeviceSpec::from_graph("prop_device", &graph).to_json();
        let device = Device::from_spec_str(&text)
            .unwrap_or_else(|e| panic!("reload: {e}\n{text}"));
        let rebuilt = device.graph();

        prop_assert_eq!(rebuilt.num_qubits(), graph.num_qubits());
        prop_assert_eq!(
            rebuilt.edges().collect::<Vec<_>>(),
            graph.edges().collect::<Vec<_>>()
        );
        prop_assert_eq!(
            rebuilt.default_edge_error().to_bits(),
            graph.default_edge_error().to_bits()
        );
        prop_assert_eq!(
            rebuilt
                .edge_errors()
                .map(|(e, r)| (e, r.to_bits()))
                .collect::<Vec<_>>(),
            graph
                .edge_errors()
                .map(|(e, r)| (e, r.to_bits()))
                .collect::<Vec<_>>()
        );
    }
}
