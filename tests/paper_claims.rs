//! Integration tests pinning the paper's qualitative claims (directionality
//! of every headline result) at reduced problem sizes so they run in CI.

use snailqc::core::headline::{quantum_volume_headline, HeadlineConfig};
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
