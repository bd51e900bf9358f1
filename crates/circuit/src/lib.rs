//! # snailqc-circuit
//!
//! Quantum circuit intermediate representation for the `snailqc` workspace.
//!
//! The paper's evaluation (Fig. 10) is a pipeline of circuit-to-circuit
//! rewrites followed by structural measurements; this crate supplies the data
//! model those passes operate on:
//!
//! * [`gate::Gate`] — the gate set: standard 1Q gates, the paper's native 2Q
//!   bases (CNOT, FSIM/SYC, `ⁿ√iSWAP`), algorithm-level interactions
//!   (controlled-phase, `RZZ`, …) and arbitrary unitaries.
//! * [`circuit::Circuit`] — an ordered instruction list with the metrics the
//!   study reports: total / critical-path SWAP and 2Q gate counts, depths,
//!   ASAP layering, and interaction extraction.
//! * [`simulator::StateVector`] — a dense statevector simulator (up to
//!   [`simulator::MAX_DENSE_QUBITS`] qubits) with safe pair/quad-walking
//!   kernels, used to check that generators and routing preserve circuit
//!   semantics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod circuit;
pub mod gate;
pub mod simulator;

pub use circuit::{Circuit, Instruction};
pub use gate::Gate;
pub use simulator::{simulate, StateVector, MAX_DENSE_QUBITS};
