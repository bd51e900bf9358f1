//! Quickstart: transpile one benchmark circuit onto a co-designed SNAIL
//! machine and onto the IBM-style baseline, and compare the costs the paper
//! reports (SWAPs, 2Q gates, critical paths).
//!
//! Run with: `cargo run --release --example quickstart`

use snailqc::prelude::*;

fn main() {
    // 1. Generate a workload: a 16-qubit Quantum Volume circuit.
    let circuit = Workload::QuantumVolume.generate(16, 42);
    println!(
        "workload: {} on {} qubits, {} two-qubit gates",
        Workload::QuantumVolume.label(),
        circuit.num_qubits(),
        circuit.two_qubit_count()
    );

    // 2. Build two devices: the SNAIL Corral with its native √iSWAP basis,
    //    and the IBM-style heavy-hex fragment with CNOT. A Device bundles
    //    topology, per-edge noise and native basis into one artifact.
    let corral = Device::from_catalog("corral12-16")
        .expect("catalog name")
        .with_basis(BasisGate::SqrtISwap);
    let heavy_hex = Device::from_catalog("heavy-hex-20")
        .expect("catalog name")
        .with_basis(BasisGate::Cnot);

    // 3. Run the paper's Fig.-10 staged pipeline on both; the translation
    //    stage picks each device's native gate automatically.
    let pipeline = Pipeline::default();
    let snail = corral
        .try_transpile(&circuit, &pipeline)
        .expect("QV-16 fits the 16-qubit Corral");
    let ibm = heavy_hex
        .try_transpile(&circuit, &pipeline)
        .expect("QV-16 fits the 20-qubit heavy-hex");

    println!(
        "\n{:<28}{:>16}{:>16}",
        "metric", "Corral1,2+siswap", "HeavyHex+CX"
    );
    let row = |name: &str, a: usize, b: usize| {
        println!("{name:<28}{a:>16}{b:>16}");
    };
    row(
        "SWAPs inserted",
        snail.report.swap_count,
        ibm.report.swap_count,
    );
    row(
        "critical-path SWAPs",
        snail.report.swap_depth,
        ibm.report.swap_depth,
    );
    row(
        "total 2Q basis gates",
        snail.report.basis_gate_count,
        ibm.report.basis_gate_count,
    );
    row(
        "critical-path 2Q gates",
        snail.report.basis_gate_depth,
        ibm.report.basis_gate_depth,
    );

    let speedup = ibm.report.basis_gate_depth as f64 / snail.report.basis_gate_depth.max(1) as f64;
    println!(
        "\nThe co-designed SNAIL machine finishes the circuit in {speedup:.2}x fewer \
         two-qubit pulse slots."
    );
}
