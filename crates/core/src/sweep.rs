//! Benchmark sweeps over (workload, size, device) — the engine behind
//! Figs. 4 and 11–14.
//!
//! A sweep transpiles every workload at every requested size onto every
//! [`Device`] and records the paper's four series (total / critical-path
//! SWAPs, total / critical-path 2Q gates). Devices with a native basis get a
//! translation stage (the co-designed comparison of Figs. 13/14); bare
//! devices are routed gate-agnostically (Figs. 4/11/12). Results serialize
//! to JSON so the bench binaries can emit machine-readable tables alongside
//! the printed ones, and [`run_sweep_with_store`] replays cached cells from
//! a [`SweepStore`] instead of re-routing them.

use crate::device::Device;
use crate::store::{cell_key, SweepStore};
use rayon::prelude::*;
use serde::Serialize;
use snailqc_circuit::Circuit;
use snailqc_decompose::BasisGate;
use snailqc_obs as obs;
use snailqc_transpiler::{LayoutStrategy, Pipeline, RouterConfig, TranspileReport};
use snailqc_workloads::Workload;

/// One transpiled data point of a sweep.
#[derive(Debug, Clone, Serialize)]
pub struct SweepPoint {
    /// Workload label.
    pub workload: Workload,
    /// Program size in qubits.
    pub circuit_qubits: usize,
    /// Device label (e.g. `Tree-84` or `Heavy-Hex-CX`).
    pub topology: String,
    /// Basis gate, when basis translation ran.
    pub basis: Option<BasisGate>,
    /// Collected metrics.
    pub report: TranspileReport,
}

/// Configuration of a sweep.
#[derive(Debug, Clone, Serialize)]
pub struct SweepConfig {
    /// Workloads to run.
    pub workloads: Vec<Workload>,
    /// Program sizes (qubits).
    pub sizes: Vec<usize>,
    /// Routing trials per point (StochasticSwap analogue).
    pub routing_trials: usize,
    /// Fidelity weight of the router's SWAP scoring (`0` = noise-blind; only
    /// matters on devices with heterogeneous per-edge error rates).
    pub error_weight: f64,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self {
            workloads: Workload::all().to_vec(),
            sizes: vec![8, 12, 16],
            routing_trials: 4,
            error_weight: 0.0,
            seed: 2022,
        }
    }
}

impl SweepConfig {
    /// The small-machine size grid used by Figs. 11 and 13 (4–16 qubits).
    pub fn small_sizes() -> Vec<usize> {
        vec![4, 6, 8, 10, 12, 14, 16]
    }

    /// The large-machine size grid used by Figs. 4, 12 and 14 (8–80 qubits).
    pub fn large_sizes() -> Vec<usize> {
        vec![8, 16, 24, 32, 40, 48, 56, 64, 72, 80]
    }

    /// A minimal configuration for tests.
    pub fn smoke() -> Self {
        Self {
            workloads: vec![Workload::Ghz, Workload::Qft],
            sizes: vec![4, 6],
            routing_trials: 1,
            error_weight: 0.0,
            seed: 3,
        }
    }

    /// The per-cell pipeline of this sweep: dense layout, the configured
    /// trials and error weight, and a router seed derived from the sweep
    /// seed and the cell's requested size alone — so results never depend on
    /// worker-thread count or cell order.
    pub fn pipeline(&self, size: usize) -> Pipeline {
        Pipeline::builder()
            .layout(LayoutStrategy::Dense)
            .router(RouterConfig {
                trials: self.routing_trials,
                seed: self.seed ^ (size as u64) << 16,
                error_weight: self.error_weight,
            })
            .build()
    }
}

/// One independent transpilation cell of a sweep: a generated circuit paired
/// with a target device.
struct SweepCell<'a> {
    workload: Workload,
    /// Requested problem size (keys the per-point router seed; the generated
    /// circuit may be smaller, e.g. the adder).
    size: usize,
    circuit: &'a Circuit,
    device: &'a Device,
}

impl SweepCell<'_> {
    fn transpile(&self, config: &SweepConfig) -> TranspileReport {
        self.device
            .try_transpile(self.circuit, &config.pipeline(self.size))
            .expect("build_cells pairs each circuit only with devices it fits")
            .report
    }

    fn point(&self, report: TranspileReport) -> SweepPoint {
        SweepPoint {
            workload: self.workload,
            circuit_qubits: self.circuit.num_qubits(),
            topology: self.device.label().to_string(),
            basis: self.device.basis(),
            report,
        }
    }
}

/// Generates every workload circuit once per (workload, size) pair.
fn generate_circuits(config: &SweepConfig) -> Vec<(Workload, usize, Circuit)> {
    config
        .workloads
        .iter()
        .flat_map(|workload| {
            config.sizes.iter().map(move |&size| {
                (
                    *workload,
                    size,
                    workload.generate(size, config.seed ^ size as u64),
                )
            })
        })
        .collect()
}

/// Builds the cell grid: workload-major, then size, then device, skipping
/// devices too small for the generated circuit. This is the single cell
/// assembly every sweep flavour shares (the old gate-agnostic and co-design
/// engines each had their own copy).
fn build_cells<'a>(
    circuits: &'a [(Workload, usize, Circuit)],
    devices: &'a [Device],
) -> Vec<SweepCell<'a>> {
    circuits
        .iter()
        .flat_map(|(workload, size, circuit)| {
            devices
                .iter()
                .filter(|device| device.fits(circuit))
                .map(move |device| SweepCell {
                    workload: *workload,
                    size: *size,
                    circuit,
                    device,
                })
        })
        .collect()
}

/// Runs a sweep over a set of devices: every workload at every size onto
/// every device that fits it, in parallel with deterministic per-point
/// seeds. Devices with a native basis are basis-translated; bare devices are
/// routed gate-agnostically.
///
/// # Panics
/// Panics if a circuit fits a device's qubit count but none of its connected
/// components.
pub fn run_sweep(devices: &[Device], config: &SweepConfig) -> Vec<SweepPoint> {
    run_sweep_with_store(devices, config, None)
}

/// [`run_sweep`], replaying cached cells from `store` when one is given.
/// Cache misses are transpiled in parallel (bitwise-identical to an uncached
/// run), inserted into the store, and flushed back to disk.
pub fn run_sweep_with_store(
    devices: &[Device],
    config: &SweepConfig,
    store: Option<&mut SweepStore>,
) -> Vec<SweepPoint> {
    let _sweep_span = obs::span("sweep.run");
    let circuits = generate_circuits(config);
    let cells = build_cells(&circuits, devices);
    let trace = obs::carry();
    let Some(store) = store else {
        return cells
            .par_iter()
            .map(|cell| {
                let _trace = trace.enter();
                cell.point(cell.transpile(config))
            })
            .collect();
    };

    // Resolve cache hits sequentially, then transpile only the misses in
    // parallel; each cell's seed depends only on its own coordinates, so the
    // split cannot change any result.
    let keys: Vec<String> = cells
        .iter()
        .map(|cell| cell_key(cell.workload, cell.size, cell.device, config))
        .collect();
    let mut reports: Vec<Option<TranspileReport>> = keys
        .iter()
        .map(|key| store.get(key).map(|cell| cell.report))
        .collect();
    let missing: Vec<usize> = (0..cells.len()).filter(|&i| reports[i].is_none()).collect();
    let computed: Vec<(usize, TranspileReport)> = missing
        .par_iter()
        .map(|&i| {
            let _trace = trace.enter();
            (i, cells[i].transpile(config))
        })
        .collect();
    for (i, report) in computed {
        store.insert(keys[i].clone(), report.into());
        reports[i] = Some(report);
    }
    if let Err(err) = store.flush() {
        eprintln!(
            "warning: could not persist sweep store {}: {err}",
            store.path().display()
        );
    }
    cells
        .iter()
        .zip(reports)
        .map(|(cell, report)| cell.point(report.expect("every cell resolved")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use snailqc_topology::{catalog, CouplingGraph};

    fn graph_devices(graphs: Vec<CouplingGraph>) -> Vec<Device> {
        graphs.into_iter().map(Device::from_graph).collect()
    }

    #[test]
    fn sweep_produces_a_point_per_cell() {
        let devices = graph_devices(vec![catalog::hypercube_16(), catalog::tree_20()]);
        let config = SweepConfig::smoke();
        let points = run_sweep(&devices, &config);
        // 2 workloads × 2 sizes × 2 graphs.
        assert_eq!(points.len(), 8);
        for p in &points {
            assert!(p.basis.is_none());
            assert_eq!(
                p.report.routed_two_qubit_gates,
                p.report.input_two_qubit_gates + p.report.swap_count
            );
        }
    }

    #[test]
    fn machine_devices_translate_to_their_native_basis() {
        let devices = vec![
            Device::from_machine(Machine::figure13_lineup()[0]),
            Device::from_machine(Machine::figure13_lineup()[2]),
        ];
        let config = SweepConfig::smoke();
        let points = run_sweep(&devices, &config);
        assert_eq!(points.len(), 8);
        for p in &points {
            assert!(p.basis.is_some());
            // The label and the translation read the one basis, the device's.
            assert_eq!(p.basis, p.report.basis);
            assert!(p.report.basis_gate_count >= p.report.routed_two_qubit_gates);
        }
    }

    #[test]
    fn oversized_circuits_are_skipped() {
        let devices = graph_devices(vec![catalog::hypercube_16()]);
        let config = SweepConfig {
            workloads: vec![Workload::Ghz],
            sizes: vec![30],
            routing_trials: 1,
            error_weight: 0.0,
            seed: 1,
        };
        let points = run_sweep(&devices, &config);
        assert!(points.is_empty());
    }

    fn points_equal(a: &[SweepPoint], b: &[SweepPoint]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| {
                x.workload == y.workload
                    && x.circuit_qubits == y.circuit_qubits
                    && x.topology == y.topology
                    && x.basis == y.basis
                    && x.report == y.report
            })
    }

    #[test]
    fn parallel_sweeps_are_deterministic() {
        let devices = graph_devices(vec![
            catalog::hypercube_16(),
            catalog::tree_20(),
            catalog::heavy_hex_20(),
        ]);
        let config = SweepConfig {
            workloads: vec![Workload::Qft, Workload::QaoaVanilla],
            sizes: vec![6, 10],
            error_weight: 0.0,
            routing_trials: 2,
            seed: 99,
        };
        let a = run_sweep(&devices, &config);
        let b = run_sweep(&devices, &config);
        assert!(
            points_equal(&a, &b),
            "repeated sweeps must be bitwise-stable"
        );
        // Cell order is workload-major, then size, then device.
        let mut expected: Vec<(Workload, String)> = Vec::new();
        for w in &config.workloads {
            for _size in &config.sizes {
                for d in &devices {
                    expected.push((*w, d.label().to_string()));
                }
            }
        }
        let got: Vec<(Workload, String)> =
            a.iter().map(|p| (p.workload, p.topology.clone())).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn stored_sweeps_replay_identically() {
        // A directory of its own, so removing it also takes the store's
        // `.lock` sidecar.
        let dir = std::env::temp_dir().join(format!("snailqc-sweep-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.jsonl");
        let devices = vec![
            Device::from_graph(catalog::hypercube_16()),
            Device::from_machine(Machine::figure13_lineup()[0]),
        ];
        let config = SweepConfig::smoke();

        let fresh = run_sweep(&devices, &config);
        let mut store = SweepStore::open(&path);
        let cold = run_sweep_with_store(&devices, &config, Some(&mut store));
        assert_eq!(store.hits(), 0);
        assert_eq!(store.inserted(), fresh.len());
        assert!(
            points_equal(&fresh, &cold),
            "cold store must not change results"
        );

        let mut store = SweepStore::open(&path);
        let warm = run_sweep_with_store(&devices, &config, Some(&mut store));
        assert_eq!(store.hits(), fresh.len(), "every cell should replay");
        assert_eq!(store.inserted(), 0);
        assert!(
            points_equal(&fresh, &warm),
            "warm store must not change results"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
