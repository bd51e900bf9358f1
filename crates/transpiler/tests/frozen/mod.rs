//! The frozen routing oracles, shared by the `router_equivalence` and
//! `noise_regression` suites and by the root `oracles` suite (which pulls
//! this file in with `#[path]`), so the tables live in exactly one place.

#![allow(dead_code)]

use snailqc_topology::{builders, catalog};
use snailqc_transpiler::{
    route_with_cache, LayoutStrategy, RoutedCircuit, RouterConfig, RoutingCache,
};
use snailqc_workloads::Workload;

/// FNV-1a digest of a routed circuit: every instruction's gate (debug form
/// covers the variant and any `f64` parameters bit-exactly — equal bits
/// print identically) and operand list, then the final layout permutation.
pub fn digest(routed: &RoutedCircuit) -> u64 {
    let mut bytes = Vec::new();
    for inst in routed.circuit.instructions() {
        bytes.extend_from_slice(format!("{:?}|{:?};", inst.gate, inst.qubits).as_bytes());
    }
    bytes.extend_from_slice(format!("final={:?}", routed.final_layout.as_slice()).as_bytes());
    snailqc_util::fnv1a_64(&bytes)
}

pub fn route_cell(name: &str, noise_aware: bool) -> RoutedCircuit {
    let graph = catalog::by_name(name).unwrap();
    let (graph, config, workload) = if noise_aware {
        (
            builders::calibrated(&graph, 1e-3, 1.2, 17),
            RouterConfig::noise_aware(1.0),
            Workload::QaoaVanilla,
        )
    } else {
        (graph, RouterConfig::default(), Workload::QuantumVolume)
    };
    let circuit = workload.generate(12, 7);
    let layout = LayoutStrategy::Dense.compute(&circuit, &graph);
    route_with_cache(&circuit, &graph, &layout, &config, &RoutingCache::new())
}

/// `(catalog name, noise-blind digest, noise-aware digest)` frozen from the
/// pre-overhaul router. Noise-blind cells route Quantum Volume (12, 7) with
/// `RouterConfig::default()`; noise-aware cells route QAOA Vanilla (12, 7)
/// with `RouterConfig::noise_aware(1.0)` on a `calibrated(1e-3, 1.2, 17)`
/// copy of the graph.
pub const FROZEN: [(&str, u64, u64); 16] = [
    ("heavy-hex-20", 0xe711a9c2bbefdb6b, 0xa75042d92e9a42ee),
    ("hex-lattice-20", 0x5d3b056b6a63e60a, 0xe1529fa5062a32f3),
    ("square-lattice-16", 0xb074677d630ca68a, 0x8dd7843d79cb467c),
    (
        "lattice-alt-diagonals-16",
        0xd0a2fe0f307dda56,
        0x3717fe0139eb9667,
    ),
    ("hypercube-16", 0x820f0d4861275979, 0x1c51a578567252b7),
    ("tree-20", 0xf53fc88932078a19, 0xfc59d67680a0b985),
    ("tree-rr-20", 0x87b3ee5016bc63b3, 0x8d251c688a65d32b),
    ("corral11-16", 0x6146a8d82d8431cb, 0xa11c8822c11d943a),
    ("corral12-16", 0xf3d02398fdac3308, 0xbdfc6430d41929f4),
    ("heavy-hex-84", 0x0dbf1337390e780e, 0xf9e02768c6d87a10),
    ("hex-lattice-84", 0x08236cd6bda8ecd9, 0xaa8ceb49579e5bd1),
    ("square-lattice-84", 0x49cac421b065f5e1, 0x54b4e4c76ee32f6a),
    (
        "lattice-alt-diagonals-84",
        0x8f1212b5a205de23,
        0x6d319517de283dbf,
    ),
    ("hypercube-84", 0x90f181d77dbba17b, 0x2adc1268ae2e6a6d),
    ("tree-84", 0xeda4d456de0b192e, 0xfc59d67680a0b985),
    ("tree-rr-84", 0xe855985248f1c989, 0xad5871155722f50c),
];

/// `(catalog name, workload, swap_count, swap_depth)` captured from the
/// pre-noise-aware router with the default configuration (dense layout,
/// default router, no translation) on `workload.generate(12, 7)`.
pub const BASELINE: [(&str, Workload, usize, usize); 32] = [
    ("heavy-hex-20", Workload::QaoaVanilla, 217, 124),
    ("hex-lattice-20", Workload::QaoaVanilla, 71, 40),
    ("square-lattice-16", Workload::QaoaVanilla, 45, 30),
    ("lattice-alt-diagonals-16", Workload::QaoaVanilla, 35, 23),
    ("hypercube-16", Workload::QaoaVanilla, 43, 24),
    ("tree-20", Workload::QaoaVanilla, 16, 14),
    ("tree-rr-20", Workload::QaoaVanilla, 18, 11),
    ("corral11-16", Workload::QaoaVanilla, 33, 22),
    ("corral12-16", Workload::QaoaVanilla, 22, 11),
    ("heavy-hex-84", Workload::QaoaVanilla, 245, 144),
    ("hex-lattice-84", Workload::QaoaVanilla, 116, 65),
    ("square-lattice-84", Workload::QaoaVanilla, 51, 34),
    ("lattice-alt-diagonals-84", Workload::QaoaVanilla, 27, 18),
    ("hypercube-84", Workload::QaoaVanilla, 41, 30),
    ("tree-84", Workload::QaoaVanilla, 15, 13),
    ("tree-rr-84", Workload::QaoaVanilla, 14, 8),
    ("heavy-hex-20", Workload::QuantumVolume, 199, 83),
    ("hex-lattice-20", Workload::QuantumVolume, 88, 42),
    ("square-lattice-16", Workload::QuantumVolume, 46, 23),
    ("lattice-alt-diagonals-16", Workload::QuantumVolume, 30, 16),
    ("hypercube-16", Workload::QuantumVolume, 36, 20),
    ("tree-20", Workload::QuantumVolume, 32, 25),
    ("tree-rr-20", Workload::QuantumVolume, 28, 19),
    ("corral11-16", Workload::QuantumVolume, 41, 22),
    ("corral12-16", Workload::QuantumVolume, 23, 15),
    ("heavy-hex-84", Workload::QuantumVolume, 100, 40),
    ("hex-lattice-84", Workload::QuantumVolume, 111, 54),
    ("square-lattice-84", Workload::QuantumVolume, 54, 30),
    ("lattice-alt-diagonals-84", Workload::QuantumVolume, 36, 21),
    ("hypercube-84", Workload::QuantumVolume, 34, 15),
    ("tree-84", Workload::QuantumVolume, 32, 29),
    ("tree-rr-84", Workload::QuantumVolume, 26, 16),
];
