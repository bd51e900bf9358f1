//! Noise-heterogeneity study (new scenario axis, beyond the paper): how much
//! estimated infidelity does noise-aware SWAP routing recover on calibrated
//! devices, as a function of how heterogeneous the per-edge error rates are?
//!
//! For every topology in the small catalog line-up and every calibration
//! spread `s`, the device's edge errors are sampled log-uniformly in
//! `[e⁻ˢ, eˢ] × 10⁻³` (seeded, reproducible), each workload is routed twice —
//! noise-blind (`error_weight = 0`) and noise-aware (`error_weight = 1`) —
//! and both routed circuits are scored with the edge-aware fidelity estimator.
//! Cells report the infidelity improvement `(1 − F_blind) / (1 − F_aware)`;
//! values above 1 mean noise-aware routing helped. `spread = 0` is the
//! uniform-noise control where both routers are bitwise-identical and the
//! ratio is exactly 1.

use serde::Serialize;
use snailqc_bench::{is_full_run, print_table, write_json};
use snailqc_core::device::Device;
use snailqc_core::fidelity::{estimate_fidelity_edges, ErrorModel};
use snailqc_topology::{builders, catalog, CouplingGraph};
use snailqc_transpiler::Pipeline;
use snailqc_workloads::Workload;

/// Calibration RNG seed (one fixed draw per (topology, spread) cell).
const CALIBRATION_SEED: u64 = 2023;

#[derive(Serialize)]
struct NoisePoint {
    workload: Workload,
    topology: String,
    spread: f64,
    blind_swaps: usize,
    aware_swaps: usize,
    blind_fidelity: f64,
    aware_fidelity: f64,
    infidelity_improvement: f64,
}

fn main() {
    let graphs: Vec<CouplingGraph> = vec![
        catalog::heavy_hex_20(),
        catalog::square_lattice_16(),
        catalog::hypercube_16(),
        catalog::tree_20(),
        catalog::tree_rr_20(),
        catalog::corral11_16(),
        catalog::corral12_16(),
    ];
    let spreads: Vec<f64> = if is_full_run() {
        vec![0.0, 0.3, 0.6, 0.9, 1.2, 1.5, 1.8]
    } else {
        vec![0.0, 0.6, 1.2, 1.8]
    };
    let workloads = [Workload::QaoaVanilla, Workload::QuantumVolume];
    let size = 12;
    let model = ErrorModel::default();

    let mut points: Vec<NoisePoint> = Vec::new();
    for workload in workloads {
        let circuit = workload.generate(size, 7);
        for graph in &graphs {
            for &spread in &spreads {
                let device =
                    Device::from_graph(builders::calibrated(graph, 1e-3, spread, CALIBRATION_SEED));
                let run = |error_weight: f64| {
                    let pipeline = Pipeline::builder().error_weight(error_weight).build();
                    device
                        .try_transpile(&circuit, &pipeline)
                        .expect("every catalog graph here is connected and holds 12 qubits")
                        .report
                };
                let blind = run(0.0);
                let aware = run(1.0);
                let f_blind = estimate_fidelity_edges(&blind, &model);
                let f_aware = estimate_fidelity_edges(&aware, &model);
                points.push(NoisePoint {
                    workload,
                    topology: device.label().to_string(),
                    spread,
                    blind_swaps: blind.swap_count,
                    aware_swaps: aware.swap_count,
                    blind_fidelity: f_blind.total_fidelity,
                    aware_fidelity: f_aware.total_fidelity,
                    infidelity_improvement: (1.0 - f_blind.total_fidelity)
                        / (1.0 - f_aware.total_fidelity).max(f64::MIN_POSITIVE),
                });
            }
        }
    }

    for workload in workloads {
        let mut headers = vec!["topology".to_string()];
        headers.extend(spreads.iter().map(|s| format!("s={s}")));
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let rows: Vec<Vec<String>> = graphs
            .iter()
            .map(|graph| {
                let mut row = vec![graph.name().to_string()];
                for &spread in &spreads {
                    let p = points
                        .iter()
                        .find(|p| {
                            p.workload == workload
                                && p.topology == graph.name()
                                && p.spread == spread
                        })
                        .expect("cell computed above");
                    row.push(format!("{:.3}x", p.infidelity_improvement));
                }
                row
            })
            .collect();
        print_table(
            &format!(
                "Noise-aware routing — infidelity improvement vs heterogeneity ({})",
                workload.label()
            ),
            &header_refs,
            &rows,
        );
    }

    if let Some(path) = write_json("fig_noise", &points) {
        println!("\nwrote {}", path.display());
    }
}
