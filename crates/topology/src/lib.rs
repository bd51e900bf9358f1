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
//! * [`graph::CouplingGraph`] — an undirected coupling graph with BFS
//!   shortest paths, error-weighted Dijkstra distances, per-edge gate error
//!   rates (uniform by default), diameter / average-distance /
//!   average-connectivity metrics (the columns of Tables 1 and 2), and
//!   truncation helpers.
//! * [`builders`] — parametric generators for every topology family: square
//!   lattice, lattice with alternating diagonals, hex and heavy-hex lattices,
//!   hypercubes, SNAIL trees and corrals — plus a seeded calibrated-device
//!   noise sampler ([`builders::calibrate_edge_errors`]).
//! * [`catalog`] — the paper's named instances (`Tree-20`, `Corral1,2-16`,
//!   `Heavy-Hex-84`, …) and [`catalog::TopologyKind`], the registry used by
//!   the experiment harness.
//! * [`distance`] — compact all-pairs distance state for routing: `u16` hop
//!   rows and `f64` weighted rows, each materialized on demand per source.

#![warn(missing_docs)]

pub mod builders;
pub mod catalog;
pub mod distance;
pub mod graph;

pub use catalog::TopologyKind;
pub use distance::{HopMatrix, WeightedRows, UNREACHABLE};
pub use graph::{CouplingGraph, TopologyMetrics, DEFAULT_EDGE_ERROR};
