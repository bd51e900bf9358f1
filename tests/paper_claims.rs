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
