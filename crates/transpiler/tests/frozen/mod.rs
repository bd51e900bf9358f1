//! The frozen routing and basis-count oracles, shared by the
//! `router_equivalence` and `noise_regression` suites and by the root
//! `oracles` suite (which pulls this file in with `#[path]`), so the tables
//! live in exactly one place.

#![allow(dead_code)]

use snailqc_decompose::BasisGate;
use snailqc_topology::{builders, catalog};
use snailqc_transpiler::{
    route_with_cache, translate_to_basis, LayoutStrategy, RoutedCircuit, RouterConfig, RoutingCache,
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
    let layout = LayoutStrategy::Dense.try_compute(&circuit, &graph).unwrap();
    route_with_cache(&circuit, &graph, &layout, &config, &RoutingCache::new())
}

/// Routes `workload.generate(12, 7)` on the catalog topology `name` once
/// (dense layout, default router) and translates the routed circuit into
/// every basis of [`BasisGate::all`], returning each translation's
/// `(two_qubit_count, two_qubit_depth)` — the report's `basis_gate_count`
/// and `basis_gate_depth`.
pub fn basis_cell(name: &str, workload: Workload) -> BasisCounts {
    let graph = catalog::by_name(name).unwrap();
    let circuit = workload.generate(12, 7);
    let layout = LayoutStrategy::Dense.try_compute(&circuit, &graph).unwrap();
    let routed = route_with_cache(
        &circuit,
        &graph,
        &layout,
        &RouterConfig::default(),
        &RoutingCache::new(),
    );
    BasisGate::all().map(|basis| {
        let (translated, _) = translate_to_basis(&routed.circuit, basis);
        (translated.two_qubit_count(), translated.two_qubit_depth())
    })
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

/// `(graph name, GHZ width, digest)` of the kiloqubit cells: GHZ-600 on
/// `builders::square_lattice(25, 25)` and GHZ-1000 on
/// `builders::hypercube(10)`, each placed by `LayoutStrategy::Dense` and
/// routed with `RouterConfig::default()` and a fresh cache. Frozen from the
/// router that tested adjacency through a dense `n × n` flag matrix, so a
/// change that shifts kiloqubit output consistently still fails.
pub const KILOQUBIT: [(&str, usize, u64); 2] = [
    ("square-lattice-25x25", 600, 0x16f5a38fa75e5693),
    ("hypercube-10d", 1000, 0xce387c88d4c9422d),
];

/// `(cell, digest)` of the kiloqubit routing fence: the non-GHZ cells
/// perfbench's `kiloqubit_cli` times, plus one noise-aware cell, each built
/// by [`route_fence_cell`]. Frozen from the router that scored every SWAP
/// candidate through a scratch swap/unswap of the live layout.
pub const FENCE: [(&str, u64); 6] = [
    ("qv-16 grid-25x25", 0xe0de1dcf15c36d36),
    ("qaoa-48 grid-25x25", 0xe13480712af83bc6),
    ("qft-48 grid-25x25", 0x97fdad105e03ad3e),
    ("qaoa-32 hypercube-10d", 0x8c05f33f70ad56aa),
    ("qft-32 hypercube-10d", 0x9daf1a60f079fc93),
    ("noise-aware qaoa-48 grid-25x25", 0x6a14a4b9b019630e),
];

/// Routes one [`FENCE`] cell: `workload.generate(qubits, 7)` placed by
/// `LayoutStrategy::Dense` on `builders::square_lattice(25, 25)` or
/// `builders::hypercube(10)` and routed with `RouterConfig::default()` and a
/// fresh cache. The noise-aware cell routes with
/// `RouterConfig::noise_aware(1.0)` on a `calibrated(1e-3, 1.2, 17)` copy of
/// the grid.
pub fn route_fence_cell(cell: &str) -> RoutedCircuit {
    let grid = || builders::square_lattice(25, 25);
    let cube = || builders::hypercube(10);
    let blind = RouterConfig::default();
    let (graph, workload, qubits, config) = match cell {
        "qv-16 grid-25x25" => (grid(), Workload::QuantumVolume, 16, blind),
        "qaoa-48 grid-25x25" => (grid(), Workload::QaoaVanilla, 48, blind),
        "qft-48 grid-25x25" => (grid(), Workload::Qft, 48, blind),
        "qaoa-32 hypercube-10d" => (cube(), Workload::QaoaVanilla, 32, blind),
        "qft-32 hypercube-10d" => (cube(), Workload::Qft, 32, blind),
        "noise-aware qaoa-48 grid-25x25" => (
            builders::calibrated(&grid(), 1e-3, 1.2, 17),
            Workload::QaoaVanilla,
            48,
            RouterConfig::noise_aware(1.0),
        ),
        other => panic!("unknown fence cell `{other}`"),
    };
    let circuit = workload.generate(qubits, 7);
    let layout = LayoutStrategy::Dense.try_compute(&circuit, &graph).unwrap();
    route_with_cache(&circuit, &graph, &layout, &config, &RoutingCache::new())
}

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

/// `(basis_gate_count, basis_gate_depth)` in each basis of
/// [`BasisGate::all`], in its order (CX, √iSWAP, SYC).
pub type BasisCounts = [(usize, usize); 3];

/// `(catalog name, workload, basis counts)` captured with
/// [`basis_cell`] from the per-gate Weyl classification that preceded the
/// class table. Quantum Volume exercises `Unitary2`, QFT controlled phases
/// with SWAPs, QAOA `rzz` and the adder CX.
#[rustfmt::skip]
pub const BASIS: [(&str, Workload, BasisCounts); 64] = [
    ("heavy-hex-20", Workload::QuantumVolume, [(813, 315), (757, 297), (1084, 420)]),
    ("hex-lattice-20", Workload::QuantumVolume, [(480, 195), (424, 176), (640, 260)]),
    ("square-lattice-16", Workload::QuantumVolume, [(354, 153), (298, 136), (472, 204)]),
    ("lattice-alt-diagonals-16", Workload::QuantumVolume, [(306, 147), (250, 123), (408, 196)]),
    ("hypercube-16", Workload::QuantumVolume, [(324, 153), (268, 131), (432, 204)]),
    ("tree-20", Workload::QuantumVolume, [(312, 204), (256, 172), (416, 272)]),
    ("tree-rr-20", Workload::QuantumVolume, [(300, 144), (244, 125), (400, 192)]),
    ("corral11-16", Workload::QuantumVolume, [(339, 129), (283, 110), (452, 172)]),
    ("corral12-16", Workload::QuantumVolume, [(285, 123), (229, 105), (380, 164)]),
    ("heavy-hex-84", Workload::QuantumVolume, [(516, 186), (460, 169), (688, 248)]),
    ("hex-lattice-84", Workload::QuantumVolume, [(549, 210), (493, 198), (732, 280)]),
    ("square-lattice-84", Workload::QuantumVolume, [(378, 165), (322, 145), (504, 220)]),
    ("lattice-alt-diagonals-84", Workload::QuantumVolume, [(324, 165), (268, 138), (432, 220)]),
    ("hypercube-84", Workload::QuantumVolume, [(318, 102), (262, 89), (424, 136)]),
    ("tree-84", Workload::QuantumVolume, [(312, 210), (256, 179), (416, 280)]),
    ("tree-rr-84", Workload::QuantumVolume, [(294, 114), (238, 100), (392, 152)]),
    ("heavy-hex-20", Workload::Qft, [(597, 288), (597, 288), (818, 396)]),
    ("hex-lattice-20", Workload::Qft, [(447, 229), (447, 229), (618, 318)]),
    ("square-lattice-16", Workload::Qft, [(318, 163), (318, 163), (446, 228)]),
    ("lattice-alt-diagonals-16", Workload::Qft, [(261, 149), (261, 149), (370, 213)]),
    ("hypercube-16", Workload::Qft, [(303, 157), (303, 157), (426, 219)]),
    ("tree-20", Workload::Qft, [(204, 135), (204, 135), (294, 194)]),
    ("tree-rr-20", Workload::Qft, [(204, 85), (204, 85), (294, 122)]),
    ("corral11-16", Workload::Qft, [(273, 167), (273, 167), (386, 236)]),
    ("corral12-16", Workload::Qft, [(237, 128), (237, 128), (338, 182)]),
    ("heavy-hex-84", Workload::Qft, [(987, 501), (987, 501), (1338, 678)]),
    ("hex-lattice-84", Workload::Qft, [(576, 298), (576, 298), (790, 409)]),
    ("square-lattice-84", Workload::Qft, [(318, 154), (318, 154), (446, 215)]),
    ("lattice-alt-diagonals-84", Workload::Qft, [(255, 170), (255, 170), (362, 241)]),
    ("hypercube-84", Workload::Qft, [(285, 172), (285, 172), (402, 242)]),
    ("tree-84", Workload::Qft, [(204, 135), (204, 135), (294, 194)]),
    ("tree-rr-84", Workload::Qft, [(219, 114), (219, 114), (314, 162)]),
    ("heavy-hex-20", Workload::QaoaVanilla, [(783, 436), (783, 436), (1066, 592)]),
    ("hex-lattice-20", Workload::QaoaVanilla, [(345, 205), (345, 205), (482, 288)]),
    ("square-lattice-16", Workload::QaoaVanilla, [(267, 163), (267, 163), (378, 230)]),
    ("lattice-alt-diagonals-16", Workload::QaoaVanilla, [(237, 153), (237, 153), (338, 218)]),
    ("hypercube-16", Workload::QaoaVanilla, [(261, 138), (261, 138), (370, 195)]),
    ("tree-20", Workload::QaoaVanilla, [(180, 129), (180, 129), (262, 187)]),
    ("tree-rr-20", Workload::QaoaVanilla, [(186, 87), (186, 87), (270, 125)]),
    ("corral11-16", Workload::QaoaVanilla, [(231, 142), (231, 142), (330, 202)]),
    ("corral12-16", Workload::QaoaVanilla, [(198, 88), (198, 88), (286, 127)]),
    ("heavy-hex-84", Workload::QaoaVanilla, [(867, 498), (867, 498), (1178, 675)]),
    ("hex-lattice-84", Workload::QaoaVanilla, [(480, 265), (480, 265), (662, 365)]),
    ("square-lattice-84", Workload::QaoaVanilla, [(285, 190), (285, 190), (402, 269)]),
    ("lattice-alt-diagonals-84", Workload::QaoaVanilla, [(213, 130), (213, 130), (306, 186)]),
    ("hypercube-84", Workload::QaoaVanilla, [(255, 156), (255, 156), (362, 219)]),
    ("tree-84", Workload::QaoaVanilla, [(177, 123), (177, 123), (258, 178)]),
    ("tree-rr-84", Workload::QaoaVanilla, [(174, 70), (174, 70), (254, 101)]),
    ("heavy-hex-20", Workload::Adder, [(243, 191), (324, 259), (378, 300)]),
    ("hex-lattice-20", Workload::Adder, [(462, 417), (543, 486), (670, 602)]),
    ("square-lattice-16", Workload::Adder, [(147, 107), (228, 170), (250, 184)]),
    ("lattice-alt-diagonals-16", Workload::Adder, [(162, 128), (243, 196), (270, 216)]),
    ("hypercube-16", Workload::Adder, [(171, 136), (252, 203), (282, 226)]),
    ("tree-20", Workload::Adder, [(378, 170), (459, 243), (558, 274)]),
    ("tree-rr-20", Workload::Adder, [(132, 110), (213, 178), (230, 192)]),
    ("corral11-16", Workload::Adder, [(114, 90), (195, 156), (206, 164)]),
    ("corral12-16", Workload::Adder, [(132, 108), (213, 177), (230, 190)]),
    ("heavy-hex-84", Workload::Adder, [(261, 199), (342, 266), (402, 310)]),
    ("hex-lattice-84", Workload::Adder, [(273, 207), (354, 277), (418, 322)]),
    ("square-lattice-84", Workload::Adder, [(153, 115), (234, 179), (258, 196)]),
    ("lattice-alt-diagonals-84", Workload::Adder, [(129, 104), (210, 172), (226, 184)]),
    ("hypercube-84", Workload::Adder, [(162, 133), (243, 200), (270, 222)]),
    ("tree-84", Workload::Adder, [(129, 117), (210, 189), (226, 204)]),
    ("tree-rr-84", Workload::Adder, [(132, 110), (213, 178), (230, 192)]),
];
