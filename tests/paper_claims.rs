//! Integration tests pinning the paper's qualitative claims (directionality
//! of every headline result) at reduced problem sizes so they run in CI.

use snailqc::core::headline::{quantum_volume_headline, tree_progression, HeadlineConfig};
use snailqc::decompose::study::{run_study, StudyConfig};
use snailqc::decompose::{nth_root_basis_fidelity, total_fidelity};
use snailqc::prelude::*;
use snailqc::topology::catalog;

#[test]
fn observation1_sqrt_iswap_beats_cnot_beats_syc_on_average() {
    // Decomposition efficiency over Haar-random 2Q unitaries (§3.1).
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snailqc::math::random::haar_unitary4;
    let mut rng = StdRng::seed_from_u64(4);
    let (mut c_cx, mut c_si, mut c_syc) = (0usize, 0usize, 0usize);
    let samples = 100;
    for _ in 0..samples {
        let u = haar_unitary4(&mut rng);
        c_cx += BasisGate::Cnot.count_for_unitary(&u);
        c_si += BasisGate::SqrtISwap.count_for_unitary(&u);
        c_syc += BasisGate::Syc.count_for_unitary(&u);
    }
    assert!(c_si <= c_cx, "sqrt-iSWAP {c_si} vs CNOT {c_cx}");
    assert!(c_cx < c_syc, "CNOT {c_cx} vs SYC {c_syc}");
}

#[test]
fn observation2_connectivity_reduces_swaps_at_scale() {
    // §3.2 / Fig. 4 directionality on a reduced 40-qubit QAOA instance.
    let circuit = Workload::QaoaVanilla.generate(40, 8);
    let pipeline = Pipeline::default();
    let heavy = Device::from(catalog::heavy_hex_84())
        .try_transpile(&circuit, &pipeline)
        .unwrap()
        .report;
    let square = Device::from(catalog::square_lattice_84())
        .try_transpile(&circuit, &pipeline)
        .unwrap()
        .report;
    let hyper = Device::from(catalog::hypercube_84())
        .try_transpile(&circuit, &pipeline)
        .unwrap()
        .report;
    assert!(square.swap_count < heavy.swap_count);
    assert!(hyper.swap_count < square.swap_count);
    assert!(hyper.swap_depth < heavy.swap_depth);
}

#[test]
fn headline_ratios_point_the_right_way() {
    // Abstract: hypercube/√iSWAP vs heavy-hex/CNOT wins on all four metrics.
    let ratios = quantum_volume_headline(&HeadlineConfig {
        sizes: vec![16, 24],
        routing_trials: 2,
        seed: 21,
    });
    assert!(
        ratios.total_swap_ratio > 1.5,
        "total swaps {}",
        ratios.total_swap_ratio
    );
    assert!(
        ratios.critical_swap_ratio > 1.5,
        "critical swaps {}",
        ratios.critical_swap_ratio
    );
    assert!(
        ratios.total_2q_ratio > 1.5,
        "total 2Q {}",
        ratios.total_2q_ratio
    );
    assert!(
        ratios.critical_2q_ratio > 1.5,
        "critical 2Q {}",
        ratios.critical_2q_ratio
    );
}

#[test]
fn tree_beats_heavy_hex_on_ghz_but_not_necessarily_on_qft() {
    // §6.2 notes the Tree's strength is local connectivity (GHZ) while QFT
    // stresses its root bottleneck; at minimum the Tree must win on GHZ.
    let ghz = Workload::Ghz.generate(60, 2);
    let pipeline = Pipeline::default();
    let tree = Device::from(catalog::tree_84())
        .try_transpile(&ghz, &pipeline)
        .unwrap()
        .report;
    let heavy = Device::from(catalog::heavy_hex_84())
        .try_transpile(&ghz, &pipeline)
        .unwrap()
        .report;
    assert!(tree.swap_count < heavy.swap_count);
}

#[test]
fn nsqrt_iswap_study_reproduces_the_fidelity_headline_direction() {
    // §6.3: at Fb(iSWAP) = 0.99, a finer-grained basis (4√iSWAP) achieves a
    // lower total infidelity than √iSWAP.
    let result = run_study(&StudyConfig {
        samples: 4,
        roots: vec![2, 4],
        template_sizes: (2..=6).collect(),
        iswap_fidelities: vec![0.99],
        seed: 13,
        optimizer_iterations: 160,
    });
    let reduction = result
        .infidelity_reduction_vs_sqrt_iswap(4, 0.99)
        .expect("cells present");
    assert!(
        reduction > 0.05,
        "4th-root basis should reduce infidelity vs sqrt-iSWAP, got {:.1}%",
        reduction * 100.0
    );
}

#[test]
fn decoherence_model_matches_paper_example() {
    // §6.3 example: a 90% iSWAP implies a 95% √iSWAP; three of them bound the
    // total fidelity below a single iSWAP of the same quality applied once.
    assert!((nth_root_basis_fidelity(0.90, 2) - 0.95).abs() < 1e-12);
    let three_halves = total_fidelity(1.0, 0.95, 3);
    assert!(three_halves < 0.9);
    assert!(three_halves > 0.85);
}

#[test]
fn table_metrics_order_snail_topologies_above_baselines() {
    let t1: std::collections::HashMap<String, snailqc::topology::TopologyMetrics> =
        catalog::table1().into_iter().collect();
    assert!(t1["Corral1,2-16"].avg_connectivity > t1["Square-Lattice-16"].avg_connectivity);
    assert!(t1["Tree-20"].diameter < t1["Heavy-Hex-20"].diameter);
    let t2: std::collections::HashMap<String, snailqc::topology::TopologyMetrics> =
        catalog::table2().into_iter().collect();
    assert!(t2["Hypercube-84"].avg_distance < t2["Heavy-Hex-84"].avg_distance);
}

/// `(name, qubits, diameter, avg_distance bits, avg_connectivity bits)` of
/// every Table 1/2 row and every shipped `devices/*.json` spec, frozen from
/// the all-pairs `usize` distance matrices the metrics were first computed
/// with.
const FROZEN_METRICS: [(&str, usize, usize, u64, u64); 24] = [
    (
        "Heavy-Hex-20",
        20,
        9,
        0x4010333333333333,
        0x4000cccccccccccd,
    ),
    (
        "Hex-Lattice-20",
        20,
        8,
        0x400a28f5c28f5c29,
        0x4003333333333333,
    ),
    (
        "Square-Lattice-16",
        16,
        6,
        0x4004000000000000,
        0x4008000000000000,
    ),
    ("Tree-20", 20, 3, 0x4001333333333333, 0x4012666666666666),
    ("Tree-RR-20", 20, 3, 0x40003d70a3d70a3d, 0x4012666666666666),
    (
        "Corral1,1-16",
        16,
        4,
        0x4000800000000000,
        0x4014000000000000,
    ),
    (
        "Corral1,2-16",
        16,
        2,
        0x3ff8000000000000,
        0x4018000000000000,
    ),
    (
        "Hypercube-16",
        16,
        4,
        0x4000000000000000,
        0x4010000000000000,
    ),
    (
        "Heavy-Hex-84",
        84,
        22,
        0x4021b8be67542c1e,
        0x4001e79e79e79e7a,
    ),
    (
        "Hex-Lattice-84",
        84,
        19,
        0x401daf4f874198ac,
        0x4005861861861862,
    ),
    (
        "Square-Lattice-84",
        84,
        17,
        0x4019082082082082,
        0x400c618618618618,
    ),
    (
        "Lattice+AltDiagonals-84",
        84,
        11,
        0x40127df7df7df7df,
        0x401479e79e79e79e,
    ),
    ("Tree-84", 84, 5, 0x400ecc55e9f0e833, 0x40139e79e79e79e8),
    ("Tree-RR-84", 84, 5, 0x400d384ef2a605ce, 0x40139e79e79e79e8),
    (
        "Hypercube-84",
        84,
        7,
        0x400a93725bb804a5,
        0x4018000000000000,
    ),
    (
        "grid_100.json",
        100,
        18,
        0x401a666666666666,
        0x400ccccccccccccd,
    ),
    (
        "grid_256.json",
        256,
        30,
        0x4025400000000000,
        0x400e000000000000,
    ),
    (
        "grid_625.json",
        625,
        48,
        0x4030a3d70a3d70a4,
        0x400eb851eb851eb8,
    ),
    (
        "hypercube_1024.json",
        1024,
        10,
        0x4014000000000000,
        0x4024000000000000,
    ),
    (
        "ibm_heavy_hex_127.json",
        127,
        34,
        0x40293674fa146954,
        0x4002040810204081,
    ),
    (
        "ibm_heavy_hex_133.json",
        133,
        34,
        0x402917f39c9abcce,
        0x40020b8c82e320b9,
    ),
    (
        "ibm_heavy_hex_433.json",
        433,
        62,
        0x40360625a7c671f2,
        0x40029fa16776d606,
    ),
    (
        "ion_trap_32.json",
        32,
        1,
        0x3fef000000000000,
        0x403f000000000000,
    ),
    (
        "sycamore_53.json",
        53,
        17,
        0x4018c41fb7176bff,
        0x40090e7d95bc609b,
    ),
];

#[test]
fn table_rows_and_shipped_device_metrics_are_frozen_bit_for_bit() {
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("devices");
    let mut rows: Vec<(String, snailqc::topology::TopologyMetrics)> = catalog::table1()
        .into_iter()
        .chain(catalog::table2())
        .collect();
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .expect("devices/ ships with the repo")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.ends_with(".json"))
        .collect();
    files.sort();
    for file in files {
        let device = Device::from_spec_file(dir.join(&file)).unwrap();
        rows.push((file, device.graph().metrics()));
    }
    let got: Vec<(&str, usize, usize, u64, u64)> = rows
        .iter()
        .map(|(name, m)| {
            (
                name.as_str(),
                m.qubits,
                m.diameter,
                m.avg_distance.to_bits(),
                m.avg_connectivity.to_bits(),
            )
        })
        .collect();
    assert_eq!(got, FROZEN_METRICS);
}

#[test]
fn machine_lineups_and_headline_smoke_values_are_frozen() {
    // Frozen before the lineups were rewritten as literal catalog names.
    // Labels feed `SweepPoint::topology`, the bench JSON and sweep-store
    // keys, so they must not move; the headline values are compared bit
    // for bit.
    let rows = |lineup: Vec<Machine>| -> Vec<String> {
        lineup
            .iter()
            .map(|m| format!("{} {:?} {}", m.graph().name(), m.basis, m.label()))
            .collect()
    };
    assert_eq!(
        rows(Machine::figure13_lineup()),
        [
            "Heavy-Hex-20 Cnot Heavy-Hex-CX",
            "Square-Lattice-16 Syc Square-Lattice-SYC",
            "Tree-20 SqrtISwap Tree-sqrt-iSWAP",
            "Tree-RR-20 SqrtISwap Tree-RR-sqrt-iSWAP",
            "Hypercube-16 SqrtISwap Hypercube-sqrt-iSWAP",
            "Corral1,1-16 SqrtISwap Corral1,1-sqrt-iSWAP",
            "Corral1,2-16 SqrtISwap Corral1,2-sqrt-iSWAP",
        ]
    );
    assert_eq!(
        rows(Machine::figure14_lineup()),
        [
            "Heavy-Hex-84 Cnot Heavy-Hex-CX",
            "Square-Lattice-84 Syc Square-Lattice-SYC",
            "Tree-84 SqrtISwap Tree-sqrt-iSWAP",
            "Tree-RR-84 SqrtISwap Tree-RR-sqrt-iSWAP",
            "Hypercube-84 SqrtISwap Hypercube-sqrt-iSWAP",
        ]
    );

    let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
    let ratios = quantum_volume_headline(&HeadlineConfig::smoke());
    assert_eq!(ratios.baseline, "Heavy-Hex-CX");
    assert_eq!(ratios.proposed, "Hypercube-sqrt-iSWAP");
    assert_eq!(ratios.sizes, [12, 16]);
    assert_eq!(
        bits(&[
            ratios.total_swap_ratio,
            ratios.critical_swap_ratio,
            ratios.total_2q_ratio,
            ratios.critical_2q_ratio,
        ]),
        [
            0x402297ff1f148980, // 9.296868296868297
            0x4022ad2d2d2d2d2d, // 9.338235294117647
            0x40125d6d4dc63810, // 4.591237273429229
            0x40160ac9dc4546de, // 5.510535661438295
        ]
    );
    let ((hh_tree_total, hh_tree_crit), (tree_hyper_total, tree_hyper_crit)) =
        tree_progression(&HeadlineConfig::smoke());
    assert_eq!(
        bits(&[
            hh_tree_total,
            hh_tree_crit,
            tree_hyper_total,
            tree_hyper_crit
        ]),
        [
            0x3fecfee1d10c4c04, // 0.9061135371179039
            0x3feac056b015ac06, // 0.835978835978836
            0x3fd11dc47711dc48, // 0.2674418604651163
            0x3fe18c6318c6318c, // 0.5483870967741935
        ]
    );
}

#[test]
fn every_catalog_name_ends_in_its_qubit_count() {
    // `Machine::label` strips this suffix from the graph name.
    for name in catalog::names() {
        let graph = catalog::by_name(name).unwrap();
        let suffix = format!("-{}", graph.num_qubits());
        assert!(name.ends_with(&suffix), "{name}");
        assert!(graph.name().ends_with(&suffix), "{}", graph.name());
    }
}

/// FNV-1a over a graph's edges in edge-id order, each written as its two
/// endpoints and the `to_bits()` of its rate (little-endian `u64`s), so it
/// pins the edge ids and every per-edge rate bit for bit.
fn edge_list_digest(graph: &CouplingGraph) -> u64 {
    let mut bytes = Vec::with_capacity(24 * graph.num_edges());
    for ((a, b), rate) in graph.edge_errors() {
        for word in [a as u64, b as u64, rate.to_bits()] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
    }
    snailqc_util::fnv1a_64(&bytes)
}

/// Every graph the edge-list oracle freezes: each catalog topology (which
/// holds every Table 1/2 row), each shipped `devices/*.json` spec, the
/// generator builders no catalog entry or spec reaches, and a calibrated
/// grid with a non-default default rate and per-edge overrides, alone and
/// through `truncate_boundary`.
fn oracle_graphs() -> Vec<(String, CouplingGraph)> {
    use snailqc::topology::builders;
    let mut graphs: Vec<(String, CouplingGraph)> = catalog::names()
        .into_iter()
        .map(|name| (name.to_string(), catalog::by_name(name).unwrap()))
        .collect();
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("devices");
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .expect("devices/ ships with the repo")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.ends_with(".json"))
        .collect();
    files.sort();
    for file in files {
        let device = Device::from_spec_file(dir.join(&file)).unwrap();
        graphs.push((file, device.graph().clone()));
    }
    for graph in [
        builders::line(9),
        builders::ring(12),
        builders::star(9),
        builders::complete(7),
        builders::hypercube(6),
        builders::hypercube_sized(100),
        builders::tree4(3),
        builders::tree4_rr(3),
        builders::corral(12, 2, 5),
    ] {
        graphs.push((graph.name().to_string(), graph));
    }
    let mut calibrated = builders::square_lattice(5, 6);
    calibrated.set_uniform_edge_error(2.5e-3);
    let edges: Vec<(usize, usize)> = calibrated.edges().collect();
    for (i, &(a, b)) in edges.iter().enumerate().step_by(3) {
        calibrated.set_edge_error(a, b, 1e-4 * (i + 1) as f64);
    }
    graphs.push((
        "calibrated-truncated-23".to_string(),
        calibrated.truncate_boundary(23, "truncated"),
    ));
    graphs.push(("calibrated-5x6".to_string(), calibrated));
    graphs
}

/// `(name, qubits, edges, edge_list_digest)` of every graph in
/// `oracle_graphs`, frozen from the edge-by-edge builders the graphs were
/// first made with.
const FROZEN_EDGE_LISTS: [(&str, usize, usize, u64); 36] = [
    ("heavy-hex-20", 20, 21, 0xe150ac36333922f8),
    ("hex-lattice-20", 20, 24, 0x80334a434551b485),
    ("square-lattice-16", 16, 24, 0xf7efe89f5720f499),
    ("lattice-alt-diagonals-16", 16, 34, 0x469cfd17aeb48cdd),
    ("hypercube-16", 16, 32, 0xe6cae8f60b40606d),
    ("tree-20", 20, 46, 0xa0099748114566c5),
    ("tree-rr-20", 20, 46, 0xcd296bd4cca907c5),
    ("corral11-16", 16, 40, 0x008fbee95060a325),
    ("corral12-16", 16, 48, 0x6f878f35719f13a5),
    ("heavy-hex-84", 84, 94, 0x371fc8a6e85d6a67),
    ("hex-lattice-84", 84, 113, 0x00046bfab813ea87),
    ("square-lattice-84", 84, 149, 0x290080920ddb33b0),
    ("lattice-alt-diagonals-84", 84, 215, 0xd991401effd9805c),
    ("hypercube-84", 84, 252, 0x3a32312be710e909),
    ("tree-84", 84, 206, 0xc4d1c734241e26c5),
    ("tree-rr-84", 84, 206, 0x2e5b0d15bbcb3565),
    ("grid_100.json", 100, 180, 0xd429db70b0865e71),
    ("grid_256.json", 256, 480, 0xb08f9155d27e9ae9),
    ("grid_625.json", 625, 1200, 0x702397c9632027b1),
    ("hypercube_1024.json", 1024, 5120, 0x58adaaad4d946a65),
    ("ibm_heavy_hex_127.json", 127, 143, 0x5f69e0f5d62dad7a),
    ("ibm_heavy_hex_133.json", 133, 150, 0xadeb37031ac69e00),
    ("ibm_heavy_hex_433.json", 433, 504, 0x7626bc1293e33c66),
    ("ion_trap_32.json", 32, 496, 0x0496aea13aaaaca5),
    ("sycamore_53.json", 53, 83, 0xf8a8291de8693855),
    ("line-9", 9, 8, 0xeb00f4190eb4c87d),
    ("ring-12", 12, 12, 0xe7ec43595d25374d),
    ("star-9", 9, 8, 0x47ffec1f74e1d9d5),
    ("complete-7", 7, 21, 0xc7bccc1b12c4597f),
    ("hypercube-6d", 64, 192, 0xa6d32a8730e8ed25),
    ("hypercube-100", 100, 316, 0x5e6c55d3411d59b1),
    ("tree4-340q", 340, 846, 0xa38fd20273960025),
    ("tree4rr-340q", 340, 846, 0x6865dd7e103b72a5),
    ("corral2,5-24q", 24, 72, 0x08827c8721b049ed),
    ("calibrated-truncated-23", 23, 36, 0x7863bda381df52d5),
    ("calibrated-5x6", 30, 49, 0xe7f4370c61eabee2),
];

#[test]
fn every_built_edge_list_is_frozen_bit_for_bit() {
    let graphs = oracle_graphs();
    // The catalog holds every Table 1/2 row.
    let built: Vec<&str> = graphs.iter().map(|(_, g)| g.name()).collect();
    for (row, _) in catalog::table1().into_iter().chain(catalog::table2()) {
        assert!(built.contains(&row.as_str()), "{row} is not in the catalog");
    }
    let got: Vec<(&str, usize, usize, u64)> = graphs
        .iter()
        .map(|(name, g)| {
            (
                name.as_str(),
                g.num_qubits(),
                g.num_edges(),
                edge_list_digest(g),
            )
        })
        .collect();
    assert_eq!(got, FROZEN_EDGE_LISTS);
}
