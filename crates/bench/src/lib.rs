//! # snailqc-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation. Each artifact has a dedicated binary:
//!
//! | Binary      | Paper artifact                                             |
//! |-------------|------------------------------------------------------------|
//! | `table1`    | Table 1 — 16–20 qubit topology metrics                      |
//! | `table2`    | Table 2 — 84-qubit topology metrics                         |
//! | `fig04`     | Fig. 4 — SWAP counts, 80-qubit baselines (+ §3.2 ratios)    |
//! | `fig11`     | Fig. 11 — SWAP counts, 16-qubit SNAIL topologies            |
//! | `fig12`     | Fig. 12 — SWAP counts, 84-qubit SNAIL vs baselines          |
//! | `fig13`     | Fig. 13 — 2Q gate counts, 16-qubit co-designed machines     |
//! | `fig14`     | Fig. 14 — 2Q gate counts, 84-qubit co-designed machines     |
//! | `fig15`     | Fig. 15 — `ⁿ√iSWAP` decomposition / total fidelity study    |
//! | `headline`  | Abstract / §6 headline ratios and the §6.1 Tree progression |
//! | `fig_noise` | Noise-aware routing vs per-edge error heterogeneity (new)   |
//!
//! All binaries print human-readable tables and write machine-readable JSON
//! under `target/paper-results/`. By default they run a reduced sweep sized
//! for a laptop; set `SNAILQC_FULL=1` to reproduce the paper-scale sweeps.
//! Sweep cells are additionally cached in
//! `target/paper-results/sweep-store.jsonl` ([`run_sweep_cached`]) and
//! replayed on repeated runs; set `SNAILQC_NO_CACHE=1` to bypass the store.
//! Timing lives in the repository's `perfbench/` harness, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::Serialize;
use snailqc_core::device::Device;
use snailqc_core::store::SweepStore;
use snailqc_core::sweep::{run_sweep_with_store, SweepConfig, SweepPoint};
use snailqc_topology::CouplingGraph;
use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;

/// True when the caller asked for the full, paper-scale sweep
/// (`SNAILQC_FULL=1`).
pub fn is_full_run() -> bool {
    std::env::var("SNAILQC_FULL")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Directory where the binaries drop their JSON results.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from("target/paper-results");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Wraps bare catalog graphs as [`Device`]s (gate-agnostic sweeps).
pub fn devices_from_graphs(graphs: Vec<CouplingGraph>) -> Vec<Device> {
    graphs.into_iter().map(Device::from_graph).collect()
}

/// Runs a sweep through the persistent result store under
/// `target/paper-results/sweep-store.jsonl`, so repeated bench runs replay
/// cached cells instead of re-routing them. Set `SNAILQC_NO_CACHE=1` to
/// bypass the store (always recompute, persist nothing).
pub fn run_sweep_cached(devices: &[Device], config: &SweepConfig) -> Vec<SweepPoint> {
    if std::env::var("SNAILQC_NO_CACHE")
        .map(|v| v == "1")
        .unwrap_or(false)
    {
        return run_sweep_with_store(devices, config, None);
    }
    let mut store = SweepStore::open(results_dir().join("sweep-store.jsonl"));
    let points = run_sweep_with_store(devices, config, Some(&mut store));
    eprintln!(
        "sweep store: {} cells replayed, {} computed ({} total cached in {})",
        store.hits(),
        store.inserted(),
        store.len(),
        store.path().display()
    );
    points
}

/// Serializes `value` to `target/paper-results/<name>.json` and returns the
/// path. Failures are reported but not fatal (the printed table remains).
pub fn write_json<T: Serialize>(name: &str, value: &T) -> Option<PathBuf> {
    let path = results_dir().join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(body) => match fs::write(&path, body) {
            Ok(()) => Some(path),
            Err(err) => {
                eprintln!("warning: could not write {}: {err}", path.display());
                None
            }
        },
        Err(err) => {
            eprintln!("warning: could not serialize {name}: {err}");
            None
        }
    }
}

/// Prints a fixed-width table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("  {}", padded.join("  "));
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// One pivoted table: the size axis plus `(topology, cells)` rows.
pub type PivotTable = (Vec<usize>, Vec<(String, Vec<String>)>);

/// Pivots sweep points into per-workload tables:
/// rows = topology, columns = circuit size, cells = `metric`.
pub fn pivot_by_workload<F>(points: &[SweepPoint], metric: F) -> BTreeMap<String, PivotTable>
where
    F: Fn(&SweepPoint) -> f64,
{
    let mut out: BTreeMap<String, PivotTable> = BTreeMap::new();
    // Collect the size axis per workload.
    let mut sizes: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for p in points {
        let w = p.workload.label().to_string();
        let entry = sizes.entry(w).or_default();
        if !entry.contains(&p.circuit_qubits) {
            entry.push(p.circuit_qubits);
        }
    }
    for v in sizes.values_mut() {
        v.sort_unstable();
    }
    // Fill per-topology rows.
    for p in points {
        let w = p.workload.label().to_string();
        let size_axis = sizes[&w].clone();
        let entry = out
            .entry(w.clone())
            .or_insert_with(|| (size_axis.clone(), Vec::new()));
        let row = match entry.1.iter_mut().find(|(name, _)| *name == p.topology) {
            Some((_, row)) => row,
            None => {
                entry
                    .1
                    .push((p.topology.clone(), vec![String::from("-"); size_axis.len()]));
                &mut entry.1.last_mut().unwrap().1
            }
        };
        if let Some(col) = size_axis.iter().position(|&s| s == p.circuit_qubits) {
            row[col] = format!("{:.0}", metric(p));
        }
    }
    out
}

/// Prints the pivoted sweep as one table per workload.
pub fn print_sweep(title: &str, points: &[SweepPoint], metric: impl Fn(&SweepPoint) -> f64) {
    for (workload, (sizes, rows)) in pivot_by_workload(points, &metric) {
        let mut headers = vec!["topology".to_string()];
        headers.extend(sizes.iter().map(|s| s.to_string()));
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let table_rows: Vec<Vec<String>> = rows
            .iter()
            .map(|(name, cells)| {
                let mut r = vec![name.clone()];
                r.extend(cells.iter().cloned());
                r
            })
            .collect();
        print_table(&format!("{title} — {workload}"), &header_refs, &table_rows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snailqc_core::sweep::run_sweep;
    use snailqc_topology::catalog;

    #[test]
    fn pivot_produces_one_table_per_workload() {
        let devices = devices_from_graphs(vec![catalog::hypercube_16(), catalog::tree_20()]);
        let points = run_sweep(&devices, &SweepConfig::smoke());
        let pivot = pivot_by_workload(&points, |p| p.report.swap_count as f64);
        assert_eq!(pivot.len(), 2); // GHZ and QFT
        for (_, (sizes, rows)) in pivot {
            assert_eq!(sizes, vec![4, 6]);
            assert_eq!(rows.len(), 2); // two topologies
        }
    }

    #[test]
    fn json_writer_creates_file() {
        let path = write_json("unit-test-artifact", &vec![1, 2, 3]).expect("write");
        assert!(path.exists());
        let body = std::fs::read_to_string(path).unwrap();
        assert!(body.contains('1'));
    }

    #[test]
    fn full_run_flag_defaults_to_false() {
        // The test environment does not set SNAILQC_FULL.
        if std::env::var("SNAILQC_FULL").is_err() {
            assert!(!is_full_run());
        }
    }
}
