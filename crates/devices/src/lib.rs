//! # snailqc-devices
//!
//! The declarative device-spec format: quantum machines as versioned JSON
//! data files instead of hardcoded builder functions.
//!
//! A spec names a machine and describes its coupling topology either as an
//! explicit edge list or as a parameterized `generator` drawn from the
//! `snailqc_topology::builders` family, optionally truncated to a target
//! qubit count (how heavy-hex 127/133/433 are carved from their regular
//! lattices). It may also pin a native two-qubit basis and attach an error
//! model (a preset name or inline `ErrorModelSpec` JSON):
//!
//! ```json
//! {
//!   "snailqc_device": 1,
//!   "name": "ibm_heavy_hex_127",
//!   "display_name": "IBM Heavy-Hex 127",
//!   "basis": "cnot",
//!   "topology": {"generator": "heavy-hex", "params": {"rows": 3, "cols": 7}, "qubits": 127},
//!   "error_model": "calibrated"
//! }
//! ```
//!
//! Parsing is strict and every diagnostic carries a `line:column` position
//! ([`SpecError`]), so a typo in a hand-edited file points at the offending
//! byte rather than failing opaquely. Generator-built specs go through the
//! exact same builder code the built-in catalog uses, which keeps routed
//! digests bitwise-identical between a spec and its builder twin. No spec
//! may describe more than `snailqc_topology::MAX_QUBITS` = 65,535 qubits,
//! the largest graph whose hop distances fit the router's `u16` rows.
//!
//! This crate is pure data + graph construction; turning a spec into a
//! routable `Device` (error-model stamping, registry lookup,
//! `SNAILQC_DEVICE_PATH`) lives in `snailqc-core`, which sits above it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod generator;
mod spec;

pub use error::SpecError;
pub use generator::{GeneratorSpec, MAX_COMPLETE_QUBITS, MAX_TREE_LEVELS};
pub use spec::{basis_name, DeviceSpec, ErrorModelRef, TopologySource, SPEC_VERSION};
