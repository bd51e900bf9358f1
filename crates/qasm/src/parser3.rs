//! A single-pass parser lowering the OpenQASM 3 subset to the circuit IR.
//!
//! Supported language: the `OPENQASM 3;` / `OPENQASM 3.0;` header,
//! `include "stdgates.inc";`, `qubit[n]` / `qubit` / `bit[n]` / `bit`
//! declarations (plus the spec-sanctioned legacy `qreg`/`creg` spellings),
//! gate applications with register broadcasting, `ctrl @` / `ctrl(n) @`
//! modifier chains folded into their controlled built-ins, `gphase(θ)`
//! global-phase statements, the builtin `U(θ,φ,λ)` (whose matrix in the
//! OpenQASM 3.0 spec equals the `qelib1` `u3`), user `gate` definitions
//! (which may contain `gphase`), `barrier`, and measurement in both the
//! assignment form `c = measure q;` and the legacy arrow form
//! `measure q -> c;`. `reset`, `input` parameters, classical control flow
//! and the `inv`/`pow`/`negctrl` modifiers are rejected with clear,
//! span-carrying errors.
//!
//! The lowering reuses the exact `Parser` machinery of the
//! QASM2 path — registers flatten in declaration order, known gate names
//! shadow textual re-definitions, broadcasting works identically, parameter
//! expressions compile to the same flat postfix programs and expansion
//! draws on the same [`MAX_EXPANDED_GATES`](crate::parser::MAX_EXPANDED_GATES)
//! budget — so `parse3(emit_v3(c))` and `parse(emit(c))` produce the *same*
//! circuit, which is what the cross-version equivalence test battery
//! asserts.

use crate::emit::QasmVersion;
use crate::error::QasmError;
use crate::lexer::{lex, Tok};
use crate::parser::{check_finite, Parser, QasmProgram};
use snailqc_circuit::Circuit;
use std::f64::consts::PI;

/// Parses an OpenQASM 3 program.
pub fn parse3(source: &str) -> Result<QasmProgram, QasmError> {
    let mut parser = Parser::new(lex(source)?);
    parser.allow_v3 = true;
    let mut p3 = Parser3 { p: parser };
    p3.parse_header()?;
    while p3.p.peek().is_some() {
        p3.parse_statement()?;
    }
    Ok(p3.p.finish(QasmVersion::V3))
}

/// Parses an OpenQASM 3 program, returning only the lowered circuit.
pub fn parse3_circuit(source: &str) -> Result<Circuit, QasmError> {
    parse3(source).map(|p| p.circuit)
}

/// The QASM3 surface grammar over the shared `Parser` machine.
struct Parser3<'a> {
    p: Parser<'a>,
}

impl Parser3<'_> {
    fn parse_header(&mut self) -> Result<(), QasmError> {
        match self.p.next() {
            Some(Tok::Ident("OPENQASM")) => {}
            _ => return Err(self.p.err("program must start with `OPENQASM 3;`")),
        }
        match self.p.next() {
            Some(Tok::Real(v)) if (v - 3.0).abs() < f64::EPSILON => {}
            Some(Tok::Int(3)) => {}
            other => {
                return Err(self.p.err(format!(
                    "unsupported OPENQASM version {other:?} (need 3 or 3.0)"
                )))
            }
        }
        self.p.expect(Tok::Semi, "`;` after version")
    }

    fn parse_statement(&mut self) -> Result<(), QasmError> {
        let kw = match self.p.peek() {
            Some(Tok::Ident(s)) => s,
            other => return Err(self.p.err(format!("expected a statement, found {other:?}"))),
        };
        match kw {
            "include" => self.parse_include(),
            "qubit" => self.parse_typed_decl(true),
            "bit" => self.parse_typed_decl(false),
            // Legacy declarations remain valid OpenQASM 3.
            "qreg" => self.p.parse_reg_decl(true),
            "creg" => self.p.parse_reg_decl(false),
            "gate" => self.p.parse_gate_def(),
            "barrier" => self.p.parse_barrier(),
            "measure" => self.parse_measure_statement(),
            "gphase" => self.parse_gphase(),
            "ctrl" => self.parse_modified_application(),
            "inv" | "pow" | "negctrl" => Err(self.p.err(format!(
                "the `{kw}` gate modifier is not in the supported QASM3 subset (only `ctrl @`)"
            ))),
            "input" | "output" => Err(self.p.err(format!(
                "`{kw}` parameters are not supported: snailqc lowers fully-bound circuits only"
            ))),
            "opaque" => Err(self
                .p
                .err("`opaque` was removed in OpenQASM 3; define the gate or use version 2.0")),
            "reset" => Err(self
                .p
                .err("`reset` is not supported (the circuit IR is unitary-only)")),
            "if" | "for" | "while" | "def" | "defcal" | "cal" => Err(self.p.err(format!(
                "classical control flow (`{kw}`) is not in the supported QASM3 subset"
            ))),
            _ => {
                // `c = measure q;` / `c[i] = measure q[j];` or an application.
                if self.measure_assignment_ahead() {
                    self.parse_measure_assignment()
                } else {
                    self.p.parse_application()
                }
            }
        }
    }

    fn parse_include(&mut self) -> Result<(), QasmError> {
        self.p.pos += 1; // include
        let file = match self.p.next() {
            Some(Tok::Str(s)) => s,
            other => {
                return Err(self
                    .p
                    .err(format!("expected include filename, found {other:?}")))
            }
        };
        if file != "stdgates.inc" {
            return Err(self.p.err(format!(
                "cannot include `{file}`: only the built-in \"stdgates.inc\" is available"
            )));
        }
        self.p.expect(Tok::Semi, "`;` after include")
    }

    /// `qubit[n] name;`, `qubit name;`, `bit[n] name;`, `bit name;`.
    fn parse_typed_decl(&mut self, quantum: bool) -> Result<(), QasmError> {
        let kind = if quantum { "qubit" } else { "bit" };
        let at = self.p.here();
        self.p.pos += 1; // qubit | bit
        let size = if self.p.eat(Tok::LBracket) {
            let n = self.p.expect_int("register size")? as usize;
            self.p
                .expect(Tok::RBracket, "`]` closing the array designator")?;
            n
        } else {
            1
        };
        let name = self.p.expect_ident("register name")?;
        self.p.expect(Tok::Semi, "`;` after declaration")?;
        if quantum {
            self.p.declare_qreg(at, name, size, kind)
        } else {
            self.p.declare_creg(at, name, size)
        }
    }

    /// `gphase(θ);` — a zero-qubit statement adding to the global phase.
    fn parse_gphase(&mut self) -> Result<(), QasmError> {
        let (line, col) = self.p.here();
        self.p.pos += 1; // gphase
        let params = self.p.parse_call_params(line, col)?;
        self.p.expect(Tok::Semi, "`;` after gphase")?;
        if params.len() != 1 {
            return Err(QasmError::new(
                line,
                col,
                format!("`gphase` takes exactly one parameter, got {}", params.len()),
            ));
        }
        check_finite("gphase", &params, line, col)?;
        self.p.circuit.add_global_phase(params[0]);
        Ok(())
    }

    /// `ctrl @ g …;` / `ctrl(n) @ ctrl @ g …;` — folds the modifier chain
    /// into a controlled built-in, then applies it with broadcasting.
    fn parse_modified_application(&mut self) -> Result<(), QasmError> {
        let (line, col) = self.p.here();
        let mut controls = 0usize;
        while let Some(Tok::Ident(kw)) = self.p.peek() {
            match kw {
                "ctrl" => {
                    self.p.pos += 1;
                    let count = if self.p.eat(Tok::LParen) {
                        let n = self.p.expect_int("control count")?;
                        self.p.expect(Tok::RParen, "`)` after control count")?;
                        if n == 0 {
                            return Err(self.p.err("`ctrl(0)` is not a valid modifier"));
                        }
                        n as usize
                    } else {
                        1
                    };
                    self.p
                        .expect(Tok::At, "`@` after the `ctrl` gate modifier")?;
                    controls += count;
                }
                "inv" | "pow" | "negctrl" => {
                    return Err(self.p.err(format!(
                        "the `{kw}` gate modifier is not in the supported QASM3 subset \
                         (only `ctrl @`)"
                    )))
                }
                _ => break,
            }
        }
        let name = match self.p.peek() {
            Some(Tok::Ident(s)) => {
                self.p.pos += 1;
                s
            }
            other => {
                return Err(self.p.err(format!(
                    "unterminated modifier chain: expected a gate name after `@`, found {other:?}"
                )))
            }
        };
        let mut params = self.p.parse_call_params(line, col)?;
        let mut folded = name;
        for _ in 0..controls {
            (folded, params) = fold_control(folded, params, line, col)?;
        }
        self.p.apply_broadcast(folded, &params, line, col)
    }

    /// True when the upcoming tokens spell a measure assignment target:
    /// `name =` or `name [ idx ] =`.
    fn measure_assignment_ahead(&self) -> bool {
        match (self.p.peek(), self.p.peek_at(1)) {
            (Some(Tok::Ident(_)), Some(Tok::Eq)) => true,
            (Some(Tok::Ident(_)), Some(Tok::LBracket)) => matches!(
                (self.p.peek_at(2), self.p.peek_at(3), self.p.peek_at(4)),
                (Some(Tok::Int(_)), Some(Tok::RBracket), Some(Tok::Eq))
            ),
            _ => false,
        }
    }

    /// `c = measure q;` (widths validated like the arrow form).
    fn parse_measure_assignment(&mut self) -> Result<(), QasmError> {
        let c = self.p.parse_operand()?;
        self.p.expect(Tok::Eq, "`=` in measure assignment")?;
        match self.p.next() {
            Some(Tok::Ident("measure")) => {}
            other => {
                return Err(self.p.err(format!(
                    "only `measure` may appear on the right of `=`, found {other:?}"
                )))
            }
        }
        let q = self.p.parse_operand()?;
        self.p.expect(Tok::Semi, "`;` after measure")?;
        self.p.record_measure(&q, &c)
    }

    /// `measure q -> c;` (legacy arrow form) or bare `measure q;`.
    fn parse_measure_statement(&mut self) -> Result<(), QasmError> {
        self.p.pos += 1; // measure
        let q = self.p.parse_operand()?;
        if self.p.eat(Tok::Arrow) {
            let c = self.p.parse_operand()?;
            self.p.expect(Tok::Semi, "`;` after measure")?;
            return self.p.record_measure(&q, &c);
        }
        self.p.expect(Tok::Semi, "`;` after measure")?;
        let count = self.p.resolve_qubits(&q)?.len();
        self.p.measurements += count;
        Ok(())
    }
}

/// One `ctrl @` fold: maps a gate name + parameters to its controlled
/// counterpart (which gains the control as a leading qubit operand).
fn fold_control(
    name: &str,
    params: Vec<f64>,
    line: usize,
    col: usize,
) -> Result<(&'static str, Vec<f64>), QasmError> {
    let arity_err = |want: usize| {
        QasmError::new(
            line,
            col,
            format!("gate `{name}` expects {want} parameter(s) under `ctrl @`"),
        )
    };
    let check = |want: usize| {
        if params.len() == want {
            Ok(())
        } else {
            Err(arity_err(want))
        }
    };
    Ok(match name {
        "x" => {
            check(0)?;
            ("cx", vec![])
        }
        "y" => {
            check(0)?;
            ("cy", vec![])
        }
        "z" => {
            check(0)?;
            ("cz", vec![])
        }
        "h" => {
            check(0)?;
            ("ch", vec![])
        }
        "s" => {
            check(0)?;
            ("cp", vec![PI / 2.0])
        }
        "sdg" => {
            check(0)?;
            ("cp", vec![-PI / 2.0])
        }
        "t" => {
            check(0)?;
            ("cp", vec![PI / 4.0])
        }
        "tdg" => {
            check(0)?;
            ("cp", vec![-PI / 4.0])
        }
        "swap" => {
            check(0)?;
            ("cswap", vec![])
        }
        "cx" | "CX" => {
            check(0)?;
            ("ccx", vec![])
        }
        // A controlled global phase is a phase gate on the control itself.
        "gphase" => {
            check(1)?;
            ("p", params)
        }
        "p" | "phase" | "u1" => {
            check(1)?;
            ("cp", params)
        }
        "rx" => {
            check(1)?;
            ("crx", params)
        }
        "ry" => {
            check(1)?;
            ("cry", params)
        }
        "rz" => {
            check(1)?;
            ("crz", params)
        }
        "u" | "U" | "u3" => {
            check(3)?;
            ("cu3", params)
        }
        "cp" | "cu1" | "cphase" => {
            return Err(QasmError::new(
                line,
                col,
                "`ctrl @` chains deeper than the built-in controlled gates are not \
                 supported (no ccp lowering)",
            ));
        }
        other => {
            return Err(QasmError::new(
                line,
                col,
                format!(
                    "no controlled form of `{other}` is available in the supported \
                     QASM3 subset"
                ),
            ))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use snailqc_circuit::{simulate, Gate};

    const HEADER: &str = "OPENQASM 3.0;\ninclude \"stdgates.inc\";\n";

    fn with_header(body: &str) -> String {
        format!("{HEADER}{body}")
    }

    #[test]
    fn parses_bell_pair_with_v3_declarations() {
        let p = parse3(&with_header(
            "qubit[2] q;\nbit[2] c;\nh q[0];\ncx q[0],q[1];\nc = measure q;\n",
        ))
        .unwrap();
        assert_eq!(p.version, QasmVersion::V3);
        assert_eq!(p.circuit.num_qubits(), 2);
        assert_eq!(p.circuit.len(), 2);
        assert_eq!(p.measurements, 2);
        assert_eq!(p.qregs, vec![("q".to_string(), 2)]);
        assert_eq!(p.cregs, vec![("c".to_string(), 2)]);
        let sv = simulate(&p.circuit);
        assert!((sv.probability(0) - 0.5).abs() < 1e-9);
        assert!((sv.probability(3) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn bare_and_sized_declarations_flatten_in_order() {
        let p = parse3(&with_header("qubit a;\nqubit[2] b;\nx b[1];\nh a;\n")).unwrap();
        assert_eq!(p.circuit.num_qubits(), 3);
        assert_eq!(p.circuit.instructions()[0].qubits, vec![2]);
        assert_eq!(p.circuit.instructions()[1].qubits, vec![0]);
        let p = parse3(&with_header("bit c;\nqubit q;\nh q;\nc = measure q;\n")).unwrap();
        assert_eq!(p.measurements, 1);
    }

    #[test]
    fn ctrl_modifier_chains_fold_into_controlled_gates() {
        let src = with_header(
            "qubit[3] q;\n\
             ctrl @ x q[0],q[1];\n\
             ctrl @ ctrl @ x q[0],q[1],q[2];\n\
             ctrl(2) @ x q[0],q[1],q[2];\n\
             ctrl @ z q[0],q[1];\n\
             ctrl @ rz(0.5) q[0],q[1];\n\
             ctrl @ s q[0],q[1];\n\
             ctrl @ U(0.1,0.2,0.3) q[0],q[1];\n",
        );
        let p = parse3(&src).unwrap();
        let counts = p.circuit.gate_counts();
        assert_eq!(counts["cx"], 1 + 2 * 6 + 4); // one cx + two ccx bodies + crz/cu3 expansions
        let direct = {
            // The same statements written against the v2 builtins.
            let v2 = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\n\
                      cx q[0],q[1];\nccx q[0],q[1],q[2];\nccx q[0],q[1],q[2];\n\
                      cz q[0],q[1];\ncrz(0.5) q[0],q[1];\ncu1(pi/2) q[0],q[1];\n\
                      cu3(0.1,0.2,0.3) q[0],q[1];\n";
            crate::parser::parse_circuit(v2).unwrap()
        };
        assert_eq!(p.circuit, direct);
    }

    #[test]
    fn gphase_accumulates_and_controls_to_phase_gates() {
        let p = parse3(&with_header("qubit[1] q;\ngphase(0.25);\ngphase(-1.5);\n")).unwrap();
        assert!((p.circuit.global_phase() - (0.25 - 1.5)).abs() < 1e-15);
        assert!(p.circuit.is_empty());

        let p = parse3(&with_header("qubit[2] q;\nctrl @ gphase(0.7) q[0];\n")).unwrap();
        assert_eq!(p.circuit.instructions()[0].gate, Gate::P(0.7));
        assert_eq!(p.circuit.instructions()[0].qubits, vec![0]);
        let p = parse3(&with_header(
            "qubit[2] q;\nctrl(2) @ gphase(0.7) q[0],q[1];\n",
        ))
        .unwrap();
        assert_eq!(p.circuit.instructions()[0].gate, Gate::CPhase(0.7));
    }

    #[test]
    fn gphase_inside_gate_definitions_applies_at_expansion() {
        let src = with_header(
            "gate phased a { gphase(0.5); x a; }\nqubit[1] q;\nphased q[0];\nphased q[0];\n",
        );
        let p = parse3(&src).unwrap();
        assert_eq!(p.circuit.len(), 2);
        assert!((p.circuit.global_phase() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn u_builtin_and_broadcasting_work() {
        let p = parse3(&with_header("qubit[3] q;\nU(0.1,0.2,0.3) q;\n")).unwrap();
        assert_eq!(p.circuit.gate_counts()["u3"], 3);
        let p = parse3(&with_header("qubit[2] a;\nqubit[2] b;\nctrl @ x a,b;\n")).unwrap();
        assert_eq!(p.circuit.gate_counts()["cx"], 2);
    }

    #[test]
    fn arrow_and_bare_measure_forms_are_accepted() {
        let p = parse3(&with_header(
            "qubit[2] q;\nbit[2] c;\nmeasure q -> c;\nmeasure q[0];\n",
        ))
        .unwrap();
        assert_eq!(p.measurements, 3);
        let p = parse3(&with_header(
            "qubit[2] q;\nbit[2] c;\nc[1] = measure q[0];\n",
        ))
        .unwrap();
        assert_eq!(p.measurements, 1);
    }

    #[test]
    fn legacy_qreg_creg_spellings_remain_valid() {
        let p = parse3(&with_header("qreg q[2];\ncreg c[2];\nh q[0];\n")).unwrap();
        assert_eq!(p.circuit.num_qubits(), 2);
        assert_eq!(p.cregs, vec![("c".to_string(), 2)]);
    }

    #[test]
    fn rejects_malformed_v3_programs_with_spans() {
        // Empty array designator.
        let err = parse3(&with_header("qubit[0] q;\n")).unwrap_err();
        assert!(err.message.contains("at least one qubit"), "{err}");
        assert_eq!(err.line, 3);

        // Unterminated modifier chain.
        let err = parse3(&with_header("qubit[2] q;\nctrl @ ;\n")).unwrap_err();
        assert!(err.message.contains("unterminated modifier chain"), "{err}");
        assert_eq!(err.line, 4);

        // `ctrl` without `@`.
        let err = parse3(&with_header("qubit[2] q;\nctrl x q[0],q[1];\n")).unwrap_err();
        assert!(err.message.contains("`@`"), "{err}");

        // Spurious parameters on parameterless gates under `ctrl @`.
        let err = parse3(&with_header("qubit[2] q;\nctrl @ x(1.25) q[0],q[1];\n")).unwrap_err();
        assert!(err.message.contains("0 parameter"), "{err}");
        assert!(parse3(&with_header("qubit[2] q;\nctrl @ s(9.9) q[0],q[1];\n")).is_err());

        // Unsupported modifiers and statements.
        assert!(parse3(&with_header("qubit[2] q;\ninv @ x q[0];\n")).is_err());
        assert!(parse3(&with_header("qubit[1] q;\nreset q[0];\n")).is_err());
        assert!(parse3(&with_header("input float theta;\n")).is_err());
        assert!(parse3(&with_header("opaque foo a,b;\n")).is_err());
        assert!(parse3(&with_header(
            "qubit[2] q;\nctrl @ can(0.1,0.2,0.3) q[0],q[1];\n"
        ))
        .is_err());
        assert!(parse3("OPENQASM 2.0;\nqubit[2] q;\n").is_err());

        // qelib1 include is a v2-ism.
        let err = parse3("OPENQASM 3.0;\ninclude \"qelib1.inc\";\n").unwrap_err();
        assert!(err.message.contains("stdgates.inc"), "{err}");

        // v3 syntax under a v2 header names the version mismatch.
        let err = crate::parser::parse("OPENQASM 2.0;\nqubit[2] q;\n").unwrap_err();
        assert!(err.message.contains("OpenQASM 3 syntax"), "{err}");
        assert_eq!((err.line, err.col), (2, 1));
        let err = crate::parser::parse("OPENQASM 2.0;\nqreg q[1];\ngphase(0.1);\n").unwrap_err();
        assert!(err.message.contains("OpenQASM 3 syntax"), "{err}");
    }

    #[test]
    fn rejects_non_finite_parameters_with_spans() {
        for (body, line) in [
            ("qubit[2] q;\ncp(0/0) q[0],q[1];\n", 4),
            ("qubit[2] q;\nrzz(1e308*10) q[0],q[1];\n", 4),
            ("qubit[2] q;\nctrl @ rz(1/0) q[0],q[1];\n", 4),
            ("qubit[1] q;\ngphase(0/0);\n", 4),
            (
                "gate g(a) q,r {\n  cp(1/a) q,r;\n}\nqubit[2] q;\ng(0) q[0],q[1];\n",
                4,
            ),
        ] {
            let err = parse3_circuit(&with_header(body)).unwrap_err();
            assert!(err.message.contains("not a finite number"), "{err}");
            assert_eq!(err.line, line, "{err}");
        }
    }
}
