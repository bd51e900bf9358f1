//! # snailqc-qasm
//!
//! Version-aware OpenQASM interchange for the `snailqc` workspace: hand-rolled
//! lexers/parsers for OpenQASM 2.0 and the OpenQASM 3 subset that lower onto
//! [`snailqc_circuit::Circuit`], and an emitter that serializes any circuit —
//! including routed output with `swap` gates and basis-translated output with
//! `siswap`/`syc` gates — back to QASM text in **either dialect**
//! ([`QasmVersion`]).
//!
//! This is what lets *arbitrary external circuits* flow through the paper's
//! Fig. 10 pipeline (placement → routing → basis translation) instead of only
//! the built-in workload generators, and lets every intermediate circuit be
//! exported for use by other toolchains.
//!
//! ## Quick start
//!
//! ```
//! use snailqc_qasm::{emit, emit_v3, parse, parse_any};
//!
//! let program = parse(
//!     r#"OPENQASM 2.0;
//!        include "qelib1.inc";
//!        qreg q[3];
//!        h q[0];
//!        cx q[0],q[1];
//!        cx q[1],q[2];
//!     "#,
//! )
//! .unwrap();
//! assert_eq!(program.circuit.two_qubit_count(), 2);
//!
//! // Round-trip: emitted text parses back to the identical circuit — in
//! // both dialects, with `parse_any` dispatching on the OPENQASM header.
//! let text = emit(&program.circuit);
//! assert_eq!(snailqc_qasm::parse_circuit(&text).unwrap(), program.circuit);
//! let text3 = emit_v3(&program.circuit);
//! assert_eq!(parse_any(&text3).unwrap().circuit, program.circuit);
//! ```
//!
//! ## Dialects
//!
//! The 2.0 parser understands the full `qelib1.inc` gate set (composite gates
//! such as `ccx` expand to their standard bodies) plus the `snailqc` dialect
//! gates `iswap`, `siswap`, `syc`, `iswap_pow(t)`, `fsim(θ,φ)`, `zx(θ)`,
//! `can(c₁,c₂,c₃)` and the lossless 32-parameter `unitary2` encoding of
//! arbitrary two-qubit unitaries.
//!
//! The 3.0 parser ([`parser3`]) accepts the subset `qubit[n]`/`bit[n]`
//! declarations, `ctrl @` modifier chains, `gphase(θ)`, the builtin
//! `U(θ,φ,λ)`, measure assignment `c = measure q;`, plus everything the
//! `stdgates.inc` include provides — lowering onto the *same* circuit IR, so
//! a circuit parsed from either dialect is statevector-identical.
//!
//! The emitter declares every non-standard-library gate it uses in the
//! header (exact `gate` bodies where a decomposition exists — all of them in
//! V3, thanks to `gphase` — `opaque` otherwise), so emitted programs are
//! self-describing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod emit;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod parser3;

pub use emit::{emit, emit_v3, emit_versioned, emit_with, zyz_angles, EmitOptions, QasmVersion};
pub use error::QasmError;
pub use parser::{parse, parse_circuit, QasmProgram, MAX_EXPANDED_GATES};
pub use parser3::{parse3, parse3_circuit};

/// Detects the dialect of a QASM source from its `OPENQASM` header.
///
/// Scans past comments and blank lines for the first `OPENQASM <version>`
/// declaration; a major version of 3 selects [`QasmVersion::V3`], anything
/// else — including a missing header, which the parsers will reject with a
/// proper span-carrying error — falls back to [`QasmVersion::V2`].
pub fn detect_version(source: &str) -> QasmVersion {
    for line in source.lines() {
        let line = line.trim_start();
        if line.is_empty() || line.starts_with("//") {
            continue;
        }
        if let Some(rest) = line.strip_prefix("OPENQASM") {
            if rest.trim_start().starts_with('3') {
                return QasmVersion::V3;
            }
        }
        // The header must be the first statement; stop at the first
        // non-comment line either way.
        return QasmVersion::V2;
    }
    QasmVersion::V2
}

/// Parses a QASM program in whichever dialect its header declares.
pub fn parse_any(source: &str) -> Result<QasmProgram, QasmError> {
    match detect_version(source) {
        QasmVersion::V2 => parse(source),
        QasmVersion::V3 => parse3(source),
    }
}
