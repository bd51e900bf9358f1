//! # snailqc-math
//!
//! Self-contained complex linear algebra and two-qubit gate analysis for the
//! `snailqc` workspace — the Rust reproduction of *"Co-Designed Architectures
//! for Modular Superconducting Quantum Computers"* (HPCA 2023).
//!
//! The crate provides exactly the numerics that study needs, with no external
//! linear-algebra dependencies:
//!
//! * [`angles`] — Clifford-angle classification (π/2-multiple detection).
//! * [`complex`] — a `C64` double-precision complex type.
//! * [`matrix`] — dense [`Matrix2`] / [`Matrix4`]
//!   operators with Kronecker products, adjoints, determinants and
//!   Hilbert–Schmidt inner products.
//! * [`gates`] — unitaries for the paper's gate zoo: CNOT/CZ, SWAP,
//!   `iSWAP`/`√iSWAP`/`ⁿ√iSWAP` (Eq. 2), FSIM & Sycamore (Eq. 6), the
//!   cross-resonance `ZX(θ)` (Eq. 4), rotations, and the canonical
//!   Weyl-chamber gate.
//! * [`weyl`] — Weyl-chamber coordinates, Makhlin invariants and
//!   local-equivalence classification, the machinery behind the paper's basis
//!   gate comparisons (§2.3, §3.1).
//! * [`random`] — Haar-random `U(2)`/`U(4)` sampling for Quantum Volume
//!   circuits and the `ⁿ√iSWAP` fidelity study (§6.3).
//! * [`eigen`] — the small symmetric eigensolvers used by the Weyl analysis.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod angles;
pub mod complex;
pub mod eigen;
pub mod gates;
pub mod matrix;
pub mod random;
pub mod weyl;

pub use complex::C64;
pub use matrix::{Matrix2, Matrix4};
pub use weyl::{weyl_coordinates, WeylCoordinates};
