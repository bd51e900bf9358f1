//! Data-movement study (paper §3.2 / Fig. 4 in miniature): route an
//! all-to-all QAOA circuit on every topology family and compare the induced
//! SWAP counts, gate-agnostically.
//!
//! Run with: `cargo run --release --example qaoa_routing`

use snailqc::prelude::*;
use snailqc::topology::catalog;

fn main() {
    let n = 14;
    let circuit = Workload::QaoaVanilla.generate(n, 3);
    println!(
        "QAOA vanilla proxy on {n} qubits: {} ZZ interactions (all-to-all SK model)\n",
        circuit.two_qubit_count()
    );

    let devices: Vec<Device> = [
        catalog::heavy_hex_20(),
        catalog::hex_lattice_20(),
        catalog::square_lattice_16(),
        catalog::hypercube_16(),
        catalog::tree_20(),
        catalog::tree_rr_20(),
        catalog::corral11_16(),
        catalog::corral12_16(),
    ]
    .into_iter()
    .map(Device::from_graph)
    .collect();

    println!(
        "{:<24}{:>12}{:>20}{:>14}",
        "topology", "SWAPs", "critical-path SWAPs", "2Q depth"
    );
    let pipeline = Pipeline::default();
    let mut results: Vec<(String, usize, usize, usize)> = Vec::new();
    for device in &devices {
        let result = device
            .try_transpile(&circuit, &pipeline)
            .expect("every topology here is connected and holds 14 qubits");
        results.push((
            device.label().to_string(),
            result.report.swap_count,
            result.report.swap_depth,
            result.report.routed_two_qubit_depth,
        ));
    }
    results.sort_by_key(|r| r.1);
    for (name, swaps, crit, depth) in &results {
        println!("{name:<24}{swaps:>12}{crit:>20}{depth:>14}");
    }

    let best = &results[0];
    let worst = results.last().unwrap();
    println!(
        "\n{} needs {:.1}x fewer SWAPs than {} for the same program — the connectivity \
         argument of paper Observation 2.",
        best.0,
        worst.1 as f64 / best.1.max(1) as f64,
        worst.0
    );
}
