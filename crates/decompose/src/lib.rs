//! # snailqc-decompose
//!
//! Two-qubit gate decomposition machinery for the `snailqc` workspace:
//!
//! * [`basis::BasisGate`] — the paper's three native basis gates (CNOT for the
//!   CR modulator, SYC for the FSIM coupler, √iSWAP for the SNAIL) with the
//!   analytic Weyl-chamber counting rules used by basis translation
//!   (paper §2.3, Observation 1), and [`basis::GateClassifier`], which
//!   classifies each gate kind of a pass once.
//! * [`nuop`] — the NuOp-style numerical template decomposer used to study
//!   bases without analytic decompositions (`ⁿ√iSWAP`, `n > 2`), Eq. 10–11.
//! * [`fidelity`] — the linear-decoherence fidelity model of Eq. 12–13.
//! * [`study`] — the full §6.3 / Fig. 15 pulse-duration sensitivity study.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod basis;
pub mod fidelity;
pub mod nuop;
pub mod study;

pub use basis::{BasisGate, GateClassifier};
pub use fidelity::{nth_root_basis_fidelity, pulse_duration, total_fidelity};
pub use nuop::{hilbert_schmidt_fidelity, NuOpDecomposer, TemplateFit};
pub use study::{run_study, StudyConfig, StudyResult};
