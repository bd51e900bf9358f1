//! # snailqc-topology
//!
//! Qubit coupling topologies for the `snailqc` workspace.
//!
//! The paper's central argument is that the SNAIL modulator unlocks coupling
//! graphs — modular 4-ary Trees, Round-Robin Trees and hypercube-inspired
//! Corrals — that are far better connected than the lattices shipped by IBM
//! (heavy-hex) and Google (square lattice), and that this connectivity
//! directly reduces SWAP overhead. This crate provides:
//!
//! * [`graph::CouplingGraph`] — an undirected coupling graph with one BFS
//!   hop-distance kernel ([`CouplingGraph::bfs_hop_lanes`], up to 64
//!   sources per pass, one bit lane each), error-weighted Dijkstra
//!   distances, per-edge gate error rates (uniform by default), the
//!   Tables 1 and 2 metrics (qubits, diameter, average distance, average
//!   connectivity) computed in 64-source passes of that kernel, and
//!   truncation helpers.
//! * [`builders`] — parametric generators for every topology family: square
//!   lattice, lattice with alternating diagonals, hex and heavy-hex lattices,
//!   hypercubes, SNAIL trees and corrals — plus a seeded calibrated-device
//!   noise sampler ([`builders::calibrate_edge_errors`]).
//! * [`catalog`] — the paper's named instances (`Tree-20`, `Corral1,2-16`,
//!   `Heavy-Hex-84`, …) behind one name table: [`catalog::by_name`] builds
//!   an instance from its canonical name (`tree-20`, `corral12-16`, …), the
//!   one way the CLI, the daemon and the experiment harness reach them.
//! * [`distance`] — one lazy row store, [`LazyRows`], for routing: `u16` hop
//!   rows ([`HopMatrix`]) and `f64` weighted rows ([`WeightedRows`]), each
//!   materialized on demand per source or filled in 64-source batches,
//!   plus the qubit cap [`MAX_QUBITS`] the `u16` hop encoding imposes
//!   (defined in `snailqc-util`, which the QASM parser shares).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builders;
pub mod catalog;
pub mod distance;
pub mod graph;

pub use distance::{HopMatrix, LazyRows, WeightedRows, MAX_QUBITS, UNREACHABLE};
pub use graph::{CouplingGraph, TopologyMetrics, DEFAULT_EDGE_ERROR};
