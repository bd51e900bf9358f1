//! A recursive-descent parser lowering OpenQASM 2.0 to the circuit IR.
//!
//! Supported language: the `OPENQASM 2.0;` header, `include "qelib1.inc";`,
//! `qreg`/`creg` declarations, gate applications with register broadcasting,
//! user `gate` definitions (expanded recursively at application time),
//! `opaque` declarations, `barrier` (a scheduling no-op for this IR) and
//! `measure` (recorded but not represented — the IR is unitary-only).
//! `reset` and classically-controlled `if` statements are rejected with a
//! clear error, and OpenQASM 3 keywords (`qubit`, `gphase`, `ctrl`, …) under
//! a 2.0 header are rejected with an error naming the version mismatch.
//!
//! The (crate-private) `Parser` state machine itself is version-agnostic:
//! the [`crate::parser3`] module drives the same register, expression and
//! gate-application machinery with the OpenQASM 3 surface grammar, so both
//! dialects lower onto identical [`Gate`] semantics.
//!
//! The full `qelib1.inc` gate set plus the `snailqc` dialect gates
//! (`iswap`, `siswap`, `syc`, `iswap_pow`, `fsim`, `zx`, `can`, `unitary2`)
//! are built in: those names always lower to their native [`Gate`] variants
//! even when the source re-declares them textually (mirroring how Qiskit
//! treats known `qelib1` gates), which is what makes `parse(emit(c))`
//! preserve gate sequences exactly.

use crate::emit::QasmVersion;
use crate::error::QasmError;
use crate::lexer::{lex, Tok, Token};
use snailqc_circuit::{Circuit, Gate};
use snailqc_math::{Matrix4, C64};
use snailqc_util::MAX_QUBITS;
use std::collections::HashMap;
use std::f64::consts::PI;

/// A parsed OpenQASM program lowered onto a flattened qubit register.
#[derive(Debug, Clone)]
pub struct QasmProgram {
    /// The dialect declared by the `OPENQASM` header.
    pub version: QasmVersion,
    /// The lowered circuit over all declared qubits (registers flattened in
    /// declaration order).
    pub circuit: Circuit,
    /// Declared quantum registers as `(name, size)`, in order.
    pub qregs: Vec<(String, usize)>,
    /// Declared classical registers as `(name, size)`, in order.
    pub cregs: Vec<(String, usize)>,
    /// Number of single-bit measurements encountered.
    pub measurements: usize,
    /// Number of barrier statements encountered.
    pub barriers: usize,
}

/// Parses an OpenQASM 2.0 program.
pub fn parse(source: &str) -> Result<QasmProgram, QasmError> {
    Parser::new(lex(source)?).run()
}

/// Parses an OpenQASM 2.0 program, returning only the lowered circuit.
pub fn parse_circuit(source: &str) -> Result<Circuit, QasmError> {
    parse(source).map(|p| p.circuit)
}

// ---------------------------------------------------------------------------
// Parameter expressions
// ---------------------------------------------------------------------------

/// A parameter expression inside a gate call or definition body.
#[derive(Debug, Clone)]
pub(crate) enum Expr {
    Num(f64),
    Pi,
    Param(String),
    Neg(Box<Expr>),
    Bin(char, Box<Expr>, Box<Expr>),
    Call(String, Box<Expr>),
}

impl Expr {
    fn eval(&self, env: &HashMap<String, f64>, line: usize, col: usize) -> Result<f64, QasmError> {
        Ok(match self {
            Expr::Num(x) => *x,
            Expr::Pi => PI,
            Expr::Param(name) => *env
                .get(name)
                .ok_or_else(|| QasmError::new(line, col, format!("unknown parameter `{name}`")))?,
            Expr::Neg(e) => -e.eval(env, line, col)?,
            Expr::Bin(op, a, b) => {
                let (a, b) = (a.eval(env, line, col)?, b.eval(env, line, col)?);
                match op {
                    '+' => a + b,
                    '-' => a - b,
                    '*' => a * b,
                    '/' => a / b,
                    '^' => a.powf(b),
                    _ => unreachable!("unknown operator"),
                }
            }
            Expr::Call(f, e) => {
                let x = e.eval(env, line, col)?;
                match f.as_str() {
                    "sin" => x.sin(),
                    "cos" => x.cos(),
                    "tan" => x.tan(),
                    "exp" => x.exp(),
                    "ln" => x.ln(),
                    "sqrt" => x.sqrt(),
                    other => {
                        return Err(QasmError::new(
                            line,
                            col,
                            format!("unknown function `{other}`"),
                        ))
                    }
                }
            }
        })
    }
}

/// Rejects a gate application whose evaluated parameters include a NaN or an
/// infinity (`cu1(0/0)`, `rzz(1e308*10)`, or `1/a` inside a gate body applied
/// with `a = 0`): no gate has a non-finite angle, and one would otherwise
/// reach the circuit and fail far from its source line.
pub(crate) fn check_finite(
    name: &str,
    params: &[f64],
    line: usize,
    col: usize,
) -> Result<(), QasmError> {
    for (i, p) in params.iter().enumerate() {
        if !p.is_finite() {
            return Err(QasmError::new(
                line,
                col,
                format!(
                    "parameter {} of `{name}` evaluates to {p}, not a finite number",
                    i + 1
                ),
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Gate environment
// ---------------------------------------------------------------------------

/// One statement inside a `gate` definition body.
#[derive(Debug, Clone)]
enum BodyOp {
    Call {
        name: String,
        params: Vec<Expr>,
        qargs: Vec<String>,
        line: usize,
        col: usize,
    },
    Barrier,
}

/// A user gate definition.
#[derive(Debug, Clone)]
struct GateDef {
    params: Vec<String>,
    qargs: Vec<String>,
    body: Vec<BodyOp>,
}

/// An operand of a gate application / barrier / measure.
#[derive(Debug, Clone)]
pub(crate) enum Operand {
    /// A whole register, broadcast element-wise.
    Reg(String),
    /// One indexed bit of a register.
    Bit(String, usize),
}

/// The shared parser state machine. The version-2 grammar lives in this
/// module; [`crate::parser3`] drives the same machine with the QASM3 surface
/// grammar so both dialects lower through identical gate semantics.
pub(crate) struct Parser {
    pub(crate) tokens: Vec<Token>,
    pub(crate) pos: usize,
    pub(crate) qregs: Vec<(String, usize, usize)>, // name, size, flat offset
    pub(crate) cregs: Vec<(String, usize)>,
    gate_defs: HashMap<String, GateDef>,
    opaque_decls: HashMap<String, (usize, usize)>, // params, qubits
    pub(crate) circuit: Circuit,
    pub(crate) measurements: usize,
    pub(crate) barriers: usize,
    /// QASM3 mode: allows `gphase` inside gate bodies and definitions.
    pub(crate) allow_v3: bool,
}

impl Parser {
    pub(crate) fn new(tokens: Vec<Token>) -> Self {
        Self {
            tokens,
            pos: 0,
            qregs: Vec::new(),
            cregs: Vec::new(),
            gate_defs: HashMap::new(),
            opaque_decls: HashMap::new(),
            circuit: Circuit::new(0),
            measurements: 0,
            barriers: 0,
            allow_v3: false,
        }
    }

    // --- token helpers ------------------------------------------------------

    pub(crate) fn here(&self) -> (usize, usize) {
        self.tokens
            .get(self.pos)
            .or_else(|| self.tokens.last())
            .map(|t| (t.line, t.col))
            .unwrap_or((1, 1))
    }

    pub(crate) fn err(&self, message: impl Into<String>) -> QasmError {
        let (line, col) = self.here();
        QasmError::new(line, col, message)
    }

    pub(crate) fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|t| &t.tok)
    }

    /// The token after the next one, for one-token lookahead decisions.
    pub(crate) fn peek2(&self) -> Option<&Tok> {
        self.tokens.get(self.pos + 1).map(|t| &t.tok)
    }

    pub(crate) fn next(&mut self) -> Option<Tok> {
        let t = self.tokens.get(self.pos).map(|t| t.tok.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    pub(crate) fn expect(&mut self, want: &Tok, what: &str) -> Result<(), QasmError> {
        match self.peek() {
            Some(t) if t == want => {
                self.pos += 1;
                Ok(())
            }
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    pub(crate) fn expect_ident(&mut self, what: &str) -> Result<String, QasmError> {
        match self.peek() {
            Some(Tok::Ident(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    pub(crate) fn expect_int(&mut self, what: &str) -> Result<u64, QasmError> {
        match self.peek() {
            Some(Tok::Int(n)) => {
                let n = *n;
                self.pos += 1;
                Ok(n)
            }
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    pub(crate) fn eat(&mut self, tok: &Tok) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    // --- top level ----------------------------------------------------------

    fn run(mut self) -> Result<QasmProgram, QasmError> {
        self.parse_header()?;
        while self.peek().is_some() {
            self.parse_statement()?;
        }
        Ok(self.finish(QasmVersion::V2))
    }

    /// Packages the accumulated state into a [`QasmProgram`].
    pub(crate) fn finish(self, version: QasmVersion) -> QasmProgram {
        QasmProgram {
            version,
            circuit: self.circuit,
            qregs: self.qregs.iter().map(|(n, s, _)| (n.clone(), *s)).collect(),
            cregs: self.cregs,
            measurements: self.measurements,
            barriers: self.barriers,
        }
    }

    fn parse_header(&mut self) -> Result<(), QasmError> {
        match self.next() {
            Some(Tok::Ident(kw)) if kw == "OPENQASM" => {}
            _ => return Err(self.err("program must start with `OPENQASM 2.0;`")),
        }
        match self.next() {
            Some(Tok::Real(v)) if (v - 2.0).abs() < f64::EPSILON => {}
            Some(Tok::Int(2)) => {}
            other => {
                return Err(self.err(format!("unsupported OPENQASM version {other:?} (need 2.0)")))
            }
        }
        self.expect(&Tok::Semi, "`;` after version")
    }

    fn parse_statement(&mut self) -> Result<(), QasmError> {
        let kw = match self.peek() {
            Some(Tok::Ident(s)) => s.clone(),
            other => return Err(self.err(format!("expected a statement, found {other:?}"))),
        };
        match kw.as_str() {
            "include" => self.parse_include(),
            "qreg" => self.parse_qreg(),
            "creg" => self.parse_creg(),
            "gate" => self.parse_gate_def(),
            "opaque" => self.parse_opaque(),
            "barrier" => self.parse_barrier(),
            "measure" => self.parse_measure(),
            "reset" => Err(self.err("`reset` is not supported (the circuit IR is unitary-only)")),
            "if" => Err(self.err("classically-controlled `if` statements are not supported")),
            "qubit" | "bit" | "input" | "gphase" | "ctrl" | "negctrl" | "inv" => Err(self.err(
                format!("`{kw}` is OpenQASM 3 syntax, but the header declares `OPENQASM 2.0`"),
            )),
            _ => self.parse_application(),
        }
    }

    fn parse_include(&mut self) -> Result<(), QasmError> {
        self.pos += 1; // include
        let file = match self.next() {
            Some(Tok::Str(s)) => s,
            other => return Err(self.err(format!("expected include filename, found {other:?}"))),
        };
        if file != "qelib1.inc" {
            return Err(self.err(format!(
                "cannot include `{file}`: only the built-in \"qelib1.inc\" is available"
            )));
        }
        self.expect(&Tok::Semi, "`;` after include")
    }

    pub(crate) fn parse_qreg(&mut self) -> Result<(), QasmError> {
        let at = self.here();
        self.pos += 1; // qreg
        let name = self.expect_ident("register name")?;
        self.expect(&Tok::LBracket, "`[`")?;
        let size = self.expect_int("register size")? as usize;
        self.expect(&Tok::RBracket, "`]`")?;
        self.expect(&Tok::Semi, "`;`")?;
        self.declare_qreg(at, name, size, "qreg")
    }

    /// Registers a quantum register (either dialect's declaration syntax) and
    /// grows the flat circuit register, keeping already-lowered instructions.
    /// Errors point at `at`, the declaration's first token.
    pub(crate) fn declare_qreg(
        &mut self,
        (line, col): (usize, usize),
        name: String,
        size: usize,
        kind: &str,
    ) -> Result<(), QasmError> {
        let err = |message: String| QasmError::new(line, col, message);
        if size == 0 {
            return Err(err(format!("{kind} `{name}` must have at least one qubit")));
        }
        if self.find_qreg(&name).is_some() || self.cregs.iter().any(|(n, _)| *n == name) {
            return Err(err(format!("register `{name}` is already declared")));
        }
        let offset = self.circuit.num_qubits();
        if size > MAX_QUBITS - offset {
            return Err(err(format!(
                "{kind} `{name}[{size}]` takes the program past the supported maximum \
                 of {MAX_QUBITS} qubits"
            )));
        }
        self.qregs.push((name, size, offset));
        let total = offset + size;
        let mapping: Vec<usize> = (0..offset).collect();
        self.circuit = self.circuit.remap_qubits(&mapping, total);
        Ok(())
    }

    pub(crate) fn parse_creg(&mut self) -> Result<(), QasmError> {
        let at = self.here();
        self.pos += 1; // creg
        let name = self.expect_ident("register name")?;
        self.expect(&Tok::LBracket, "`[`")?;
        let size = self.expect_int("register size")? as usize;
        self.expect(&Tok::RBracket, "`]`")?;
        self.expect(&Tok::Semi, "`;`")?;
        self.declare_creg(at, name, size)
    }

    /// Registers a classical register (either dialect's declaration syntax).
    /// Errors point at `at`, the declaration's first token.
    pub(crate) fn declare_creg(
        &mut self,
        (line, col): (usize, usize),
        name: String,
        size: usize,
    ) -> Result<(), QasmError> {
        if self.find_qreg(&name).is_some() || self.cregs.iter().any(|(n, _)| *n == name) {
            return Err(QasmError::new(
                line,
                col,
                format!("register `{name}` is already declared"),
            ));
        }
        self.cregs.push((name, size));
        Ok(())
    }

    pub(crate) fn find_qreg(&self, name: &str) -> Option<(usize, usize)> {
        self.qregs
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, size, offset)| (*size, *offset))
    }

    // --- gate definitions ---------------------------------------------------

    pub(crate) fn parse_gate_def(&mut self) -> Result<(), QasmError> {
        self.pos += 1; // gate
        let name = self.expect_ident("gate name")?;
        let params = if self.eat(&Tok::LParen) {
            let p = self.parse_ident_list()?;
            self.expect(&Tok::RParen, "`)` after gate parameters")?;
            p
        } else {
            Vec::new()
        };
        let qargs = self.parse_ident_list()?;
        if qargs.is_empty() {
            return Err(self.err(format!("gate `{name}` needs at least one qubit argument")));
        }
        self.expect(&Tok::LBrace, "`{` opening the gate body")?;
        let mut body = Vec::new();
        while !self.eat(&Tok::RBrace) {
            let (line, col) = self.here();
            let op = self.expect_ident("a gate call inside the body")?;
            if op == "barrier" {
                self.parse_ident_list()?; // formal operands, unused
                self.expect(&Tok::Semi, "`;`")?;
                body.push(BodyOp::Barrier);
                continue;
            }
            let call_params = if self.eat(&Tok::LParen) {
                let p = self.parse_expr_list()?;
                self.expect(&Tok::RParen, "`)` after call parameters")?;
                p
            } else {
                Vec::new()
            };
            let call_qargs = self.parse_ident_list()?;
            self.expect(&Tok::Semi, "`;` after gate call")?;
            for q in &call_qargs {
                if !qargs.contains(q) {
                    return Err(QasmError::new(
                        line,
                        col,
                        format!("`{q}` is not an argument of gate `{name}`"),
                    ));
                }
            }
            body.push(BodyOp::Call {
                name: op,
                params: call_params,
                qargs: call_qargs,
                line,
                col,
            });
        }
        // Known names always lower natively; parse and drop re-declarations.
        if builtin_arity(&name).is_none() {
            self.gate_defs.insert(
                name,
                GateDef {
                    params,
                    qargs,
                    body,
                },
            );
        }
        Ok(())
    }

    pub(crate) fn parse_opaque(&mut self) -> Result<(), QasmError> {
        self.pos += 1; // opaque
        let name = self.expect_ident("opaque gate name")?;
        let params = if self.eat(&Tok::LParen) {
            let p = self.parse_ident_list()?;
            self.expect(&Tok::RParen, "`)`")?;
            p
        } else {
            Vec::new()
        };
        let qargs = self.parse_ident_list()?;
        self.expect(&Tok::Semi, "`;` after opaque declaration")?;
        self.opaque_decls.insert(name, (params.len(), qargs.len()));
        Ok(())
    }

    fn parse_ident_list(&mut self) -> Result<Vec<String>, QasmError> {
        let mut out = Vec::new();
        if let Some(Tok::Ident(_)) = self.peek() {
            out.push(self.expect_ident("identifier")?);
            while self.eat(&Tok::Comma) {
                out.push(self.expect_ident("identifier")?);
            }
        }
        Ok(out)
    }

    // --- expressions --------------------------------------------------------

    pub(crate) fn parse_expr_list(&mut self) -> Result<Vec<Expr>, QasmError> {
        let mut out = vec![self.parse_expr()?];
        while self.eat(&Tok::Comma) {
            out.push(self.parse_expr()?);
        }
        Ok(out)
    }

    fn parse_expr(&mut self) -> Result<Expr, QasmError> {
        self.parse_additive()
    }

    fn parse_additive(&mut self) -> Result<Expr, QasmError> {
        let mut lhs = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => '+',
                Some(Tok::Minus) => '-',
                _ => break,
            };
            self.pos += 1;
            let rhs = self.parse_multiplicative()?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_multiplicative(&mut self) -> Result<Expr, QasmError> {
        let mut lhs = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Star) => '*',
                Some(Tok::Slash) => '/',
                _ => break,
            };
            self.pos += 1;
            let rhs = self.parse_unary()?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, QasmError> {
        if self.eat(&Tok::Minus) {
            return Ok(Expr::Neg(Box::new(self.parse_unary()?)));
        }
        if self.eat(&Tok::Plus) {
            return self.parse_unary();
        }
        self.parse_power()
    }

    fn parse_power(&mut self) -> Result<Expr, QasmError> {
        let base = self.parse_atom()?;
        if self.eat(&Tok::Caret) {
            // Right associative.
            let exp = self.parse_unary()?;
            return Ok(Expr::Bin('^', Box::new(base), Box::new(exp)));
        }
        Ok(base)
    }

    fn parse_atom(&mut self) -> Result<Expr, QasmError> {
        match self.next() {
            Some(Tok::Real(x)) => Ok(Expr::Num(x)),
            Some(Tok::Int(n)) => Ok(Expr::Num(n as f64)),
            Some(Tok::LParen) => {
                let e = self.parse_expr()?;
                self.expect(&Tok::RParen, "`)`")?;
                Ok(e)
            }
            Some(Tok::Ident(name)) => {
                if name == "pi" {
                    Ok(Expr::Pi)
                } else if self.eat(&Tok::LParen) {
                    let arg = self.parse_expr()?;
                    self.expect(&Tok::RParen, "`)` closing function call")?;
                    Ok(Expr::Call(name, Box::new(arg)))
                } else {
                    Ok(Expr::Param(name))
                }
            }
            other => Err(self.err(format!("expected an expression, found {other:?}"))),
        }
    }

    // --- operands, barrier, measure -----------------------------------------

    pub(crate) fn parse_operand(&mut self) -> Result<Operand, QasmError> {
        let name = self.expect_ident("register operand")?;
        if self.eat(&Tok::LBracket) {
            let idx = self.expect_int("qubit index")? as usize;
            self.expect(&Tok::RBracket, "`]`")?;
            Ok(Operand::Bit(name, idx))
        } else {
            Ok(Operand::Reg(name))
        }
    }

    pub(crate) fn parse_operand_list(&mut self) -> Result<Vec<Operand>, QasmError> {
        let mut out = vec![self.parse_operand()?];
        while self.eat(&Tok::Comma) {
            out.push(self.parse_operand()?);
        }
        Ok(out)
    }

    /// Flat qubit indices of a quantum operand: one per register element, or
    /// a single entry for a bit.
    pub(crate) fn resolve_qubits(&self, op: &Operand) -> Result<Vec<usize>, QasmError> {
        match op {
            Operand::Reg(name) => {
                let (size, offset) = self
                    .find_qreg(name)
                    .ok_or_else(|| self.err(format!("unknown quantum register `{name}`")))?;
                Ok((offset..offset + size).collect())
            }
            Operand::Bit(name, idx) => {
                let (size, offset) = self
                    .find_qreg(name)
                    .ok_or_else(|| self.err(format!("unknown quantum register `{name}`")))?;
                if *idx >= size {
                    return Err(self.err(format!("index {idx} out of range for `{name}[{size}]`")));
                }
                Ok(vec![offset + idx])
            }
        }
    }

    pub(crate) fn parse_barrier(&mut self) -> Result<(), QasmError> {
        self.pos += 1; // barrier
        let ops = self.parse_operand_list()?;
        for op in &ops {
            self.resolve_qubits(op)?; // validate only
        }
        self.expect(&Tok::Semi, "`;` after barrier")?;
        self.barriers += 1;
        Ok(())
    }

    pub(crate) fn parse_measure(&mut self) -> Result<(), QasmError> {
        self.pos += 1; // measure
        let q = self.parse_operand()?;
        self.expect(&Tok::Arrow, "`->` in measure")?;
        let c = self.parse_operand()?;
        self.expect(&Tok::Semi, "`;` after measure")?;
        self.record_measure(&q, &c)
    }

    /// Number of classical bits a measure target covers (the whole register,
    /// or 1 for an in-range indexed bit).
    pub(crate) fn resolve_bits(&self, op: &Operand) -> Result<usize, QasmError> {
        let size_of = |name: &str| {
            self.cregs
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, size)| *size)
                .ok_or_else(|| self.err(format!("unknown classical register `{name}`")))
        };
        match op {
            Operand::Reg(name) => size_of(name),
            Operand::Bit(name, idx) => {
                let size = size_of(name)?;
                if *idx >= size {
                    return Err(self.err(format!("index {idx} out of range for `{name}[{size}]`")));
                }
                Ok(1)
            }
        }
    }

    /// Validates widths of a measurement from qubit operand `q` into
    /// classical operand `c` and counts it (shared by `measure q -> c;` and
    /// the v3 assignment form `c = measure q;`).
    pub(crate) fn record_measure(&mut self, q: &Operand, c: &Operand) -> Result<(), QasmError> {
        let q_count = self.resolve_qubits(q)?.len();
        let c_count = self.resolve_bits(c)?;
        if q_count != c_count {
            return Err(self.err(format!(
                "measure width mismatch: {q_count} qubit(s) into {c_count} bit(s)"
            )));
        }
        self.measurements += q_count;
        Ok(())
    }

    // --- gate application ---------------------------------------------------

    pub(crate) fn parse_application(&mut self) -> Result<(), QasmError> {
        let (line, col) = self.here();
        let name = self.expect_ident("gate name")?;
        let params = self.parse_call_params(line, col)?;
        self.apply_broadcast(&name, &params, line, col)
    }

    /// Parses an optional `(expr, …)` parameter list and evaluates it in the
    /// empty environment (top-level applications have no free parameters).
    pub(crate) fn parse_call_params(
        &mut self,
        line: usize,
        col: usize,
    ) -> Result<Vec<f64>, QasmError> {
        if self.eat(&Tok::LParen) {
            let exprs = self.parse_expr_list()?;
            self.expect(&Tok::RParen, "`)` after parameters")?;
            let env = HashMap::new();
            exprs
                .iter()
                .map(|e| e.eval(&env, line, col))
                .collect::<Result<Vec<f64>, _>>()
        } else {
            Ok(Vec::new())
        }
    }

    /// Parses the operand list and trailing `;` of a gate application, then
    /// applies `name` with register broadcasting — the shared tail of both
    /// dialects' application statements.
    pub(crate) fn apply_broadcast(
        &mut self,
        name: &str,
        params: &[f64],
        line: usize,
        col: usize,
    ) -> Result<(), QasmError> {
        let operands = self.parse_operand_list()?;
        self.expect(&Tok::Semi, "`;` after gate application")?;

        // Broadcast over register operands (all registers must agree in size).
        let resolved: Vec<Vec<usize>> = operands
            .iter()
            .map(|op| self.resolve_qubits(op))
            .collect::<Result<_, _>>()?;
        let reg_len = resolved
            .iter()
            .zip(&operands)
            .filter(|(_, op)| matches!(op, Operand::Reg(_)))
            .map(|(idxs, _)| idxs.len())
            .collect::<Vec<_>>();
        let n = reg_len.first().copied().unwrap_or(1);
        if reg_len.iter().any(|&len| len != n) {
            return Err(QasmError::new(
                line,
                col,
                "register operands differ in size",
            ));
        }
        for k in 0..n {
            let qubits: Vec<usize> = resolved
                .iter()
                .map(|idxs| if idxs.len() == 1 { idxs[0] } else { idxs[k] })
                .collect();
            self.apply(name, params, &qubits, line, col, 0)?;
        }
        Ok(())
    }

    /// Applies a named gate, preferring built-ins, then user definitions.
    pub(crate) fn apply(
        &mut self,
        name: &str,
        params: &[f64],
        qubits: &[usize],
        line: usize,
        col: usize,
        depth: usize,
    ) -> Result<(), QasmError> {
        if depth > 64 {
            return Err(QasmError::new(line, col, "gate expansion too deep"));
        }
        check_finite(name, params, line, col)?;
        if name == "gphase" {
            // A zero-qubit global-phase entry (OpenQASM 3); reachable from
            // v3 top-level statements and from v3 gate-definition bodies.
            if !self.allow_v3 {
                return Err(QasmError::new(
                    line,
                    col,
                    "`gphase` is OpenQASM 3 syntax, but the header declares `OPENQASM 2.0`",
                ));
            }
            if params.len() != 1 || !qubits.is_empty() {
                return Err(QasmError::new(
                    line,
                    col,
                    "`gphase` takes exactly one parameter and no qubit operands",
                ));
            }
            self.circuit.add_global_phase(params[0]);
            return Ok(());
        }
        {
            let mut seen = qubits.to_vec();
            seen.sort_unstable();
            seen.dedup();
            if seen.len() != qubits.len() {
                return Err(QasmError::new(
                    line,
                    col,
                    format!("gate `{name}` applied with repeated qubit operands"),
                ));
            }
        }
        if let Some((want_params, want_qubits)) = builtin_arity(name) {
            if params.len() != want_params || qubits.len() != want_qubits {
                return Err(QasmError::new(
                    line,
                    col,
                    format!(
                        "gate `{name}` expects {want_params} parameter(s) on {want_qubits} \
                         qubit(s), got {} on {}",
                        params.len(),
                        qubits.len()
                    ),
                ));
            }
            return self.lower_builtin(name, params, qubits, line, col, depth);
        }
        if let Some(def) = self.gate_defs.get(name).cloned() {
            if params.len() != def.params.len() || qubits.len() != def.qargs.len() {
                return Err(QasmError::new(
                    line,
                    col,
                    format!(
                        "gate `{name}` expects {} parameter(s) on {} qubit(s), got {} on {}",
                        def.params.len(),
                        def.qargs.len(),
                        params.len(),
                        qubits.len()
                    ),
                ));
            }
            let env: HashMap<String, f64> = def
                .params
                .iter()
                .cloned()
                .zip(params.iter().copied())
                .collect();
            let qmap: HashMap<&str, usize> = def
                .qargs
                .iter()
                .map(String::as_str)
                .zip(qubits.iter().copied())
                .collect();
            for op in &def.body {
                match op {
                    BodyOp::Barrier => {}
                    BodyOp::Call {
                        name: inner,
                        params: exprs,
                        qargs,
                        line,
                        col,
                    } => {
                        let inner_params = exprs
                            .iter()
                            .map(|e| e.eval(&env, *line, *col))
                            .collect::<Result<Vec<f64>, _>>()?;
                        let inner_qubits: Vec<usize> =
                            qargs.iter().map(|q| qmap[q.as_str()]).collect();
                        self.apply(inner, &inner_params, &inner_qubits, *line, *col, depth + 1)?;
                    }
                }
            }
            return Ok(());
        }
        if self.opaque_decls.contains_key(name) {
            return Err(QasmError::new(
                line,
                col,
                format!("opaque gate `{name}` has no built-in lowering"),
            ));
        }
        Err(QasmError::new(line, col, format!("unknown gate `{name}`")))
    }

    /// Lowers one built-in gate application onto the circuit.
    fn lower_builtin(
        &mut self,
        name: &str,
        p: &[f64],
        q: &[usize],
        line: usize,
        col: usize,
        depth: usize,
    ) -> Result<(), QasmError> {
        // Composite qelib1 gates expand structurally through `apply` so their
        // bodies stay in one place; everything else maps straight to the IR.
        let expand =
            |parser: &mut Self, ops: &[(&str, Vec<f64>, Vec<usize>)]| -> Result<(), QasmError> {
                for (inner, ip, iq) in ops {
                    parser.apply(inner, ip, iq, line, col, depth + 1)?;
                }
                Ok(())
            };
        let gate = match name {
            "id" => Gate::I,
            "x" => Gate::X,
            "y" => Gate::Y,
            "z" => Gate::Z,
            "h" => Gate::H,
            "s" => Gate::S,
            "sdg" => Gate::Sdg,
            "t" => Gate::T,
            "tdg" => Gate::Tdg,
            "sx" => Gate::SX,
            "rx" => Gate::RX(p[0]),
            "ry" => Gate::RY(p[0]),
            "rz" => Gate::RZ(p[0]),
            "p" | "u1" => Gate::P(p[0]),
            "u2" => Gate::U3(PI / 2.0, p[0], p[1]),
            "u3" | "u" | "U" => Gate::U3(p[0], p[1], p[2]),
            "cx" | "CX" => Gate::CX,
            "cz" => Gate::CZ,
            "cp" | "cu1" => Gate::CPhase(p[0]),
            "swap" => Gate::Swap,
            "iswap" => Gate::ISwap,
            "siswap" => Gate::SqrtISwap,
            "syc" => Gate::Syc,
            "iswap_pow" => Gate::ISwapPow(p[0]),
            "fsim" => Gate::Fsim(p[0], p[1]),
            "zx" => Gate::ZXInteraction(p[0]),
            "rzz" => Gate::RZZ(p[0]),
            "rxx" => Gate::RXX(p[0]),
            "ryy" => Gate::RYY(p[0]),
            "can" => Gate::Canonical(p[0], p[1], p[2]),
            "unitary2" => Gate::Unitary2(matrix4_from_params(p)),
            // --- composite qelib1 gates ------------------------------------
            "cy" => {
                return expand(
                    self,
                    &[
                        ("sdg", vec![], vec![q[1]]),
                        ("cx", vec![], vec![q[0], q[1]]),
                        ("s", vec![], vec![q[1]]),
                    ],
                );
            }
            "ch" => {
                return expand(
                    self,
                    &[
                        ("h", vec![], vec![q[1]]),
                        ("sdg", vec![], vec![q[1]]),
                        ("cx", vec![], vec![q[0], q[1]]),
                        ("h", vec![], vec![q[1]]),
                        ("t", vec![], vec![q[1]]),
                        ("cx", vec![], vec![q[0], q[1]]),
                        ("t", vec![], vec![q[1]]),
                        ("h", vec![], vec![q[1]]),
                        ("s", vec![], vec![q[1]]),
                        ("x", vec![], vec![q[1]]),
                        ("s", vec![], vec![q[0]]),
                    ],
                );
            }
            "crz" => {
                return expand(
                    self,
                    &[
                        ("rz", vec![p[0] / 2.0], vec![q[1]]),
                        ("cx", vec![], vec![q[0], q[1]]),
                        ("rz", vec![-p[0] / 2.0], vec![q[1]]),
                        ("cx", vec![], vec![q[0], q[1]]),
                    ],
                );
            }
            "crx" => {
                return expand(
                    self,
                    &[
                        ("h", vec![], vec![q[1]]),
                        ("crz", vec![p[0]], vec![q[0], q[1]]),
                        ("h", vec![], vec![q[1]]),
                    ],
                );
            }
            "cry" => {
                return expand(
                    self,
                    &[
                        ("ry", vec![p[0] / 2.0], vec![q[1]]),
                        ("cx", vec![], vec![q[0], q[1]]),
                        ("ry", vec![-p[0] / 2.0], vec![q[1]]),
                        ("cx", vec![], vec![q[0], q[1]]),
                    ],
                );
            }
            "cu3" => {
                let (theta, phi, lambda) = (p[0], p[1], p[2]);
                return expand(
                    self,
                    &[
                        ("u1", vec![(lambda + phi) / 2.0], vec![q[0]]),
                        ("u1", vec![(lambda - phi) / 2.0], vec![q[1]]),
                        ("cx", vec![], vec![q[0], q[1]]),
                        (
                            "u3",
                            vec![-theta / 2.0, 0.0, -(phi + lambda) / 2.0],
                            vec![q[1]],
                        ),
                        ("cx", vec![], vec![q[0], q[1]]),
                        ("u3", vec![theta / 2.0, phi, 0.0], vec![q[1]]),
                    ],
                );
            }
            "ccx" => {
                return expand(
                    self,
                    &[
                        ("h", vec![], vec![q[2]]),
                        ("cx", vec![], vec![q[1], q[2]]),
                        ("tdg", vec![], vec![q[2]]),
                        ("cx", vec![], vec![q[0], q[2]]),
                        ("t", vec![], vec![q[2]]),
                        ("cx", vec![], vec![q[1], q[2]]),
                        ("tdg", vec![], vec![q[2]]),
                        ("cx", vec![], vec![q[0], q[2]]),
                        ("t", vec![], vec![q[1]]),
                        ("t", vec![], vec![q[2]]),
                        ("h", vec![], vec![q[2]]),
                        ("cx", vec![], vec![q[0], q[1]]),
                        ("t", vec![], vec![q[0]]),
                        ("tdg", vec![], vec![q[1]]),
                        ("cx", vec![], vec![q[0], q[1]]),
                    ],
                );
            }
            "cswap" => {
                return expand(
                    self,
                    &[
                        ("cx", vec![], vec![q[2], q[1]]),
                        ("ccx", vec![], vec![q[0], q[1], q[2]]),
                        ("cx", vec![], vec![q[2], q[1]]),
                    ],
                );
            }
            other => return Err(QasmError::new(line, col, format!("unknown gate `{other}`"))),
        };
        self.circuit.push(gate, q);
        Ok(())
    }
}

/// Parameter/qubit arity of built-in gates, or `None` for unknown names.
fn builtin_arity(name: &str) -> Option<(usize, usize)> {
    Some(match name {
        "id" | "x" | "y" | "z" | "h" | "s" | "sdg" | "t" | "tdg" | "sx" => (0, 1),
        "rx" | "ry" | "rz" | "p" | "u1" => (1, 1),
        "u2" => (2, 1),
        "u3" | "u" | "U" => (3, 1),
        "cx" | "CX" | "cz" | "swap" | "iswap" | "siswap" | "syc" | "cy" | "ch" => (0, 2),
        "cp" | "cu1" | "rzz" | "rxx" | "ryy" | "iswap_pow" | "zx" | "crz" | "crx" | "cry" => (1, 2),
        "fsim" => (2, 2),
        "can" | "cu3" => (3, 2),
        "unitary2" => (32, 2),
        "ccx" | "cswap" => (0, 3),
        _ => return None,
    })
}

/// Reassembles a 4×4 unitary from 32 row-major `(re, im)` parameters (the
/// encoding the emitter uses for [`Gate::Unitary2`]).
fn matrix4_from_params(p: &[f64]) -> Matrix4 {
    let mut m = Matrix4::zeros();
    for r in 0..4 {
        for c in 0..4 {
            let k = 2 * (4 * r + c);
            m[(r, c)] = C64::new(p[k], p[k + 1]);
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use snailqc_circuit::simulate;

    const HEADER: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";

    fn with_header(body: &str) -> String {
        format!("{HEADER}{body}")
    }

    #[test]
    fn parses_bell_pair() {
        let p = parse(&with_header(
            "qreg q[2];\ncreg c[2];\nh q[0];\ncx q[0],q[1];\nmeasure q -> c;\n",
        ))
        .unwrap();
        assert_eq!(p.circuit.num_qubits(), 2);
        assert_eq!(p.circuit.len(), 2);
        assert_eq!(p.measurements, 2);
        assert_eq!(p.circuit.instructions()[0].gate, Gate::H);
        assert_eq!(p.circuit.instructions()[1].gate, Gate::CX);
        let sv = simulate(&p.circuit);
        assert!((sv.probability(0) - 0.5).abs() < 1e-9);
        assert!((sv.probability(3) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn broadcasts_over_registers() {
        let p = parse(&with_header("qreg q[3];\nh q;\ncx q[0],q[1];\n")).unwrap();
        assert_eq!(p.circuit.gate_counts()["h"], 3);
        let two_reg = parse(&with_header("qreg a[2];\nqreg b[2];\ncx a,b;\n")).unwrap();
        assert_eq!(two_reg.circuit.gate_counts()["cx"], 2);
        assert_eq!(two_reg.circuit.instructions()[0].qubits, vec![0, 2]);
        assert_eq!(two_reg.circuit.instructions()[1].qubits, vec![1, 3]);
        let mixed = parse(&with_header("qreg a[1];\nqreg b[3];\ncx a[0],b;\n")).unwrap();
        assert_eq!(mixed.circuit.gate_counts()["cx"], 3);
    }

    #[test]
    fn evaluates_parameter_expressions() {
        let p = parse(&with_header(
            "qreg q[1];\nrz(pi/2) q[0];\nrx(-2*pi/4) q[0];\nu1(cos(0)) q[0];\n",
        ))
        .unwrap();
        let insts = p.circuit.instructions();
        assert_eq!(insts[0].gate, Gate::RZ(PI / 2.0));
        assert_eq!(insts[1].gate, Gate::RX(-PI / 2.0));
        assert_eq!(insts[2].gate, Gate::P(1.0));
    }

    #[test]
    fn expands_user_gate_definitions() {
        let src = with_header(
            "gate majority a,b,c { cx c,b; cx c,a; ccx a,b,c; }\n\
             qreg q[3];\nmajority q[0],q[1],q[2];\n",
        );
        let p = parse(&src).unwrap();
        // ccx expands to the 15-gate qelib1 body, plus the two leading CNOTs.
        assert_eq!(p.circuit.len(), 17);
        assert_eq!(p.circuit.gate_counts()["cx"], 8);
    }

    #[test]
    fn ccx_acts_as_toffoli() {
        // |110> -> |111>
        let p = parse(&with_header(
            "qreg q[3];\nx q[0];\nx q[1];\nccx q[0],q[1],q[2];\n",
        ))
        .unwrap();
        let sv = simulate(&p.circuit);
        assert!((sv.probability(0b111) - 1.0).abs() < 1e-9);
        // |100> stays put (qubit 0 is the most significant index bit).
        let p = parse(&with_header("qreg q[3];\nx q[0];\nccx q[0],q[1],q[2];\n")).unwrap();
        let sv = simulate(&p.circuit);
        assert!((sv.probability(0b100) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dialect_gates_lower_natively() {
        let src = with_header(
            "opaque siswap a,b;\nqreg q[2];\nsiswap q[0],q[1];\nsyc q[0],q[1];\n\
             iswap_pow(0.25) q[0],q[1];\nfsim(0.5,0.25) q[0],q[1];\ncan(0.1,0.05,0.0) q[0],q[1];\n",
        );
        let p = parse(&src).unwrap();
        let names: Vec<&str> = p
            .circuit
            .instructions()
            .iter()
            .map(|i| i.gate.name())
            .collect();
        assert_eq!(names, vec!["siswap", "syc", "iswap_pow", "fsim", "can"]);
    }

    #[test]
    fn builtin_names_shadow_textual_redefinitions() {
        // The emitter writes a `gate rzz … { cx; u1; cx; }` compatibility
        // definition; parsing must still produce a native RZZ gate.
        let src = with_header(
            "gate rzz(theta) a,b { cx a,b; u1(theta) b; cx a,b; }\n\
             qreg q[2];\nrzz(0.5) q[0],q[1];\n",
        );
        let p = parse(&src).unwrap();
        assert_eq!(p.circuit.len(), 1);
        assert_eq!(p.circuit.instructions()[0].gate, Gate::RZZ(0.5));
    }

    #[test]
    fn multiple_qregs_flatten_in_declaration_order() {
        let p = parse(&with_header("qreg a[2];\nh a[1];\nqreg b[2];\nx b[0];\n")).unwrap();
        assert_eq!(p.circuit.num_qubits(), 4);
        assert_eq!(p.circuit.instructions()[0].qubits, vec![1]);
        assert_eq!(p.circuit.instructions()[1].qubits, vec![2]);
        assert_eq!(p.qregs, [("a".to_string(), 2), ("b".to_string(), 2)]);
    }

    #[test]
    fn rejects_malformed_programs() {
        assert!(parse("qreg q[2];").is_err(), "missing header");
        assert!(parse(&with_header("qreg q[0];")).is_err(), "empty register");
        assert!(
            parse(&with_header("qreg q[2];\ncx q[0],q[0];")).is_err(),
            "repeated operand"
        );
        assert!(
            parse(&with_header("qreg q[2];\nnope q[0];")).is_err(),
            "unknown gate"
        );
        assert!(
            parse(&with_header("qreg q[2];\nrx q[0];")).is_err(),
            "missing parameter"
        );
        assert!(
            parse(&with_header("qreg q[2];\nh q[5];")).is_err(),
            "index out of range"
        );
        assert!(
            parse(&with_header("qreg a[2];\nqreg b[3];\ncx a,b;")).is_err(),
            "size mismatch"
        );
        assert!(
            parse(&with_header("qreg q[1];\nreset q[0];")).is_err(),
            "reset unsupported"
        );
        assert!(
            parse(&with_header("include \"other.inc\";")).is_err(),
            "foreign includes unavailable"
        );
        assert!(
            parse(&with_header(
                "opaque mystery a,b;\nqreg q[2];\nmystery q[0],q[1];"
            ))
            .is_err(),
            "opaque without lowering"
        );
    }

    #[test]
    fn rejects_non_finite_parameters_with_spans() {
        for (body, line) in [
            ("qreg q[2];\ncu1(0/0) q[0],q[1];\n", 4),
            ("qreg q[2];\nrzz(1e308*10) q[0],q[1];\n", 4),
            ("qreg q[1];\nh q[0];\nrz(-1/0) q[0];\n", 5),
            // Composite lowering: cu3's (λ + φ)/2 overflows.
            ("qreg q[2];\ncu3(0,1e308,1e308) q[0],q[1];\n", 4),
            // Inside a gate body, at the body call's position.
            (
                "gate g(a) q,r {\n  cu1(1/a) q,r;\n}\nqreg q[2];\ng(0) q[0],q[1];\n",
                4,
            ),
        ] {
            let err = parse_circuit(&with_header(body)).unwrap_err();
            assert!(err.message.contains("not a finite number"), "{err}");
            assert_eq!(err.line, line, "{err}");
        }
        let err = parse_circuit(&with_header("qreg q[2];\ncu1(0/0) q[0],q[1];\n")).unwrap_err();
        assert_eq!(err.col, 1, "{err}");
        assert!(err.message.contains("`cu1`"), "{err}");
        // The same body is fine when its parameter is not zero.
        let ok = with_header("gate g(a) q,r { cu1(1/a) q,r; }\nqreg q[2];\ng(2) q[0],q[1];\n");
        assert_eq!(
            parse_circuit(&ok).unwrap().instructions()[0].gate,
            Gate::CPhase(0.5)
        );
    }

    #[test]
    fn barrier_and_measure_are_counted_not_lowered() {
        let p = parse(&with_header(
            "qreg q[2];\ncreg c[1];\nh q;\nbarrier q;\nmeasure q[0] -> c[0];\n",
        ))
        .unwrap();
        assert_eq!(p.circuit.len(), 2);
        assert_eq!(p.barriers, 1);
        assert_eq!(p.measurements, 1);
    }
}
