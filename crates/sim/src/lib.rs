//! # snailqc-sim
//!
//! Verification engines for the snailqc transpiler: does a routed circuit
//! still implement its source program?
//!
//! The dense statevector simulator in `snailqc-circuit` answers that up to
//! [`DENSE_VERIFY_MAX_QUBITS`] qubits. This crate extends verification to
//! the kiloqubit devices of the co-design study:
//!
//! * [`tableau`] — a bit-packed Aaronson–Gottesman stabilizer tableau.
//!   Qubit-major bitset storage makes each Clifford gate an `O(rows/64)`
//!   word operation, so routed GHZ circuits on 625- and 1024-qubit devices
//!   verify in well under a second. Group equality goes through a unique
//!   canonical (reduced-echelon) form with word-level row multiplication.
//! * [`pauli`] — single Pauli-string propagation, including structural
//!   commutation through non-Clifford diagonal gates, used for spot checks
//!   on large near-Clifford circuits.
//! * [`verify`] — [`verify_equivalent`], the one entry point that picks the
//!   right engine (stabilizer proof / dense proof / Pauli spot checks) from
//!   the circuit class and register size.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pauli;
pub mod tableau;
pub mod verify;

pub use pauli::{Obstruction, PauliString};
pub use tableau::{CanonicalForm, NotClifford, Tableau};
pub use verify::{verify_equivalent, Verdict, DENSE_VERIFY_MAX_QUBITS, PAULI_SPOT_SAMPLES};
