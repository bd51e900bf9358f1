//! A single-pass parser lowering OpenQASM 2.0 to the circuit IR.
//!
//! Supported language: the `OPENQASM 2.0;` header, `include "qelib1.inc";`,
//! `qreg`/`creg` declarations, gate applications with register broadcasting,
//! user `gate` definitions (expanded at application time), `opaque`
//! declarations, `barrier` (a scheduling no-op for this IR) and `measure`
//! (recorded but not represented — the IR is unitary-only). `reset` and
//! classically-controlled `if` statements are rejected with a clear error,
//! and OpenQASM 3 keywords (`qubit`, `gphase`, `ctrl`, …) under a 2.0 header
//! are rejected with an error naming the version mismatch.
//!
//! The (crate-private) `Parser` state machine itself is version-agnostic:
//! the [`crate::parser3`] module drives the same register, expression and
//! gate-application machinery with the OpenQASM 3 surface grammar, so both
//! dialects lower onto identical [`Gate`] semantics.
//!
//! Parameter expressions compile, in one iterative shunting-yard pass, into
//! flat postfix programs whose gate parameters are slot indices; a program
//! runs on an explicit stack against the call's `&[f64]` arguments. Nothing
//! recurses per term or per nesting level, so no expression can exhaust the
//! call stack. An unknown name or function compiles to an instruction that
//! fails when run, so a gate body reports it only when the gate is applied.
//!
//! The full `qelib1.inc` gate set plus the `snailqc` dialect gates
//! (`iswap`, `siswap`, `syc`, `iswap_pow`, `fsim`, `zx`, `can`, `unitary2`)
//! are built in: those names always lower to their native [`Gate`] variants,
//! or for the composite `qelib1` gates (`ccx`, `cu3`, …) to their standard
//! bodies, even when the source re-declares them textually (mirroring how
//! Qiskit treats known `qelib1` gates), which is what makes `parse(emit(c))`
//! preserve gate sequences exactly.
//!
//! Expansion is budgeted by [`MAX_EXPANDED_GATES`], with each definition's
//! count taken once and checked before any gate of an application is pushed.

use crate::emit::QasmVersion;
use crate::error::QasmError;
use crate::lexer::{lex, Tok, Token};
use snailqc_circuit::{Circuit, Gate};
use snailqc_math::{Matrix4, C64};
use snailqc_util::MAX_QUBITS;
use std::collections::{HashMap, HashSet};
use std::f64::consts::PI;
use std::sync::{Arc, OnceLock};

/// The most gate applications one program may expand to. Every gate that a
/// statement or a definition body applies counts once, at every level of
/// expansion: `ccx` counts 16, itself and the 15 gates of its body, and a
/// `gphase` or a definition with an empty body counts although it pushes no
/// gate. The limit is about the number of statements in an 8 MB source
/// written out line by line, so expansion does no more work than text could
/// spell, while 24 definitions that each call the previous one twice (over
/// 2²⁴ applications from under a kilobyte of text) are refused.
pub const MAX_EXPANDED_GATES: usize = 1 << 20;

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
// Parameter programs
// ---------------------------------------------------------------------------

/// One instruction of a postfix parameter program.
#[derive(Debug, Clone, Copy)]
enum Op<'a> {
    /// Pushes a constant: a literal or `pi`.
    Num(f64),
    /// Pushes the argument in this parameter slot.
    Param(usize),
    /// Replaces the top value `x` with `f(x)`: negation or a function.
    Unary(fn(f64) -> f64),
    /// Replaces the top two values `a, b` with `f(a, b)`.
    Binary(fn(f64, f64) -> f64),
    /// An unknown `parameter` or `function` name; running it fails.
    Unknown(&'static str, &'a str),
}

/// An operator waiting for its right operand, with its binding power, or
/// an open parenthesis (of a function call when it carries the name).
enum Pending<'a> {
    Op(Op<'a>, u8),
    Open(Option<&'a str>),
}

/// Runs `program` against the arguments `args`. The stack it leaves holds
/// one value per expression the program was compiled from. Failures point
/// at `line:col`.
fn eval(program: &[Op], args: &[f64], line: usize, col: usize) -> Result<Vec<f64>, QasmError> {
    let mut stack = Vec::new();
    for op in program {
        match *op {
            Op::Num(x) => stack.push(x),
            Op::Param(slot) => stack.push(args[slot]),
            Op::Unary(f) => {
                let x = stack.last_mut().expect("an operand precedes each operator");
                *x = f(*x);
            }
            Op::Binary(f) => {
                let b = stack.pop().expect("two operands precede each operator");
                let a = stack
                    .last_mut()
                    .expect("two operands precede each operator");
                *a = f(*a, b);
            }
            Op::Unknown(kind, name) => {
                return Err(QasmError::new(
                    line,
                    col,
                    format!("unknown {kind} `{name}`"),
                ));
            }
        }
    }
    Ok(stack)
}

/// The functions a parameter expression may call.
fn function(name: &str) -> Option<fn(f64) -> f64> {
    Some(match name {
        "sin" => f64::sin,
        "cos" => f64::cos,
        "tan" => f64::tan,
        "exp" => f64::exp,
        "ln" => f64::ln,
        "sqrt" => f64::sqrt,
        _ => return None,
    })
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

/// One gate call inside a `gate` definition body.
#[derive(Debug)]
struct BodyCall<'a> {
    name: &'a str,
    /// The call's parameters, over the definition's parameter slots.
    params: Vec<Op<'a>>,
    /// Operands, as indices into the definition's qubit arguments.
    qubits: Vec<usize>,
    line: usize,
    col: usize,
}

/// A gate definition. Barriers in its body do nothing and are not kept.
#[derive(Debug)]
struct GateDef<'a> {
    params: usize,
    qubits: usize,
    body: Vec<BodyCall<'a>>,
    /// Errors inside the body point at the application rather than at the
    /// body call: true for the built-in composites, whose text is not part
    /// of the program.
    at_caller: bool,
}

/// The `qelib1.inc` gates with no native IR variant, compiled once per
/// process from their standard bodies.
fn composites() -> &'static HashMap<&'static str, Arc<GateDef<'static>>> {
    const COMPOSITES: &str = "
gate cy a,b { sdg b; cx a,b; s b; }
gate ch a,b { h b; sdg b; cx a,b; h b; t b; cx a,b; t b; h b; s b; x b; s a; }
gate crz(lambda) a,b { rz(lambda/2) b; cx a,b; rz(-lambda/2) b; cx a,b; }
gate crx(lambda) a,b { h b; crz(lambda) a,b; h b; }
gate cry(lambda) a,b { ry(lambda/2) b; cx a,b; ry(-lambda/2) b; cx a,b; }
gate cu3(theta,phi,lambda) c,t {
  u1((lambda+phi)/2) c; u1((lambda-phi)/2) t; cx c,t;
  u3(-theta/2,0,-(phi+lambda)/2) t; cx c,t; u3(theta/2,phi,0) t;
}
gate ccx a,b,c {
  h c; cx b,c; tdg c; cx a,c; t c; cx b,c; tdg c; cx a,c;
  t b; t c; h c; cx a,b; t a; tdg b; cx a,b;
}
gate cswap a,b,c { cx c,b; ccx a,b,c; cx c,b; }
";
    static DEFS: OnceLock<HashMap<&'static str, Arc<GateDef<'static>>>> = OnceLock::new();
    DEFS.get_or_init(|| {
        let mut parser = Parser::new(lex(COMPOSITES).expect("the composite bodies lex"));
        let mut defs = HashMap::new();
        while parser.peek().is_some() {
            let (name, mut def) = parser.read_gate_def().expect("the composite bodies parse");
            def.at_caller = true;
            defs.insert(name, Arc::new(def));
        }
        defs
    })
}

/// An operand of a gate application / barrier / measure.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Operand<'a> {
    /// A whole register, broadcast element-wise.
    Reg(&'a str),
    /// One indexed bit of a register.
    Bit(&'a str, usize),
}

/// The shared parser state machine. The version-2 grammar lives in this
/// module; [`crate::parser3`] drives the same machine with the QASM3 surface
/// grammar so both dialects lower through identical gate semantics.
pub(crate) struct Parser<'a> {
    pub(crate) tokens: Vec<Token<'a>>,
    pub(crate) pos: usize,
    pub(crate) qregs: Vec<(&'a str, usize)>,
    pub(crate) cregs: Vec<(&'a str, usize)>,
    /// Every declared register by name: its size, and its flat offset when
    /// it is a quantum register.
    registers: HashMap<&'a str, (usize, Option<usize>)>,
    gate_defs: HashMap<&'a str, Arc<GateDef<'a>>>,
    /// Gate applications inside each definition's expansion, `None` when it
    /// never ends; cleared whenever a definition is added.
    expanded: HashMap<&'a str, Option<usize>>,
    /// Gate applications so far, at every level; at most
    /// [`MAX_EXPANDED_GATES`].
    applied: usize,
    opaque_decls: HashSet<&'a str>,
    pub(crate) circuit: Circuit,
    pub(crate) measurements: usize,
    pub(crate) barriers: usize,
    /// QASM3 mode: allows `gphase` inside gate bodies and definitions.
    pub(crate) allow_v3: bool,
}

impl<'a> Parser<'a> {
    pub(crate) fn new(tokens: Vec<Token<'a>>) -> Self {
        Self {
            tokens,
            pos: 0,
            qregs: Vec::new(),
            cregs: Vec::new(),
            registers: HashMap::new(),
            gate_defs: HashMap::new(),
            expanded: HashMap::new(),
            applied: 0,
            opaque_decls: HashSet::new(),
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

    pub(crate) fn peek(&self) -> Option<Tok<'a>> {
        self.peek_at(0)
    }

    /// The token `ahead` places past the next one, for lookahead decisions.
    pub(crate) fn peek_at(&self, ahead: usize) -> Option<Tok<'a>> {
        self.tokens.get(self.pos + ahead).map(|t| t.tok)
    }

    pub(crate) fn next(&mut self) -> Option<Tok<'a>> {
        let t = self.peek();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    pub(crate) fn expect(&mut self, want: Tok, what: &str) -> Result<(), QasmError> {
        match self.peek() {
            Some(t) if t == want => {
                self.pos += 1;
                Ok(())
            }
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    pub(crate) fn expect_ident(&mut self, what: &str) -> Result<&'a str, QasmError> {
        match self.peek() {
            Some(Tok::Ident(s)) => {
                self.pos += 1;
                Ok(s)
            }
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    pub(crate) fn expect_int(&mut self, what: &str) -> Result<u64, QasmError> {
        match self.peek() {
            Some(Tok::Int(n)) => {
                self.pos += 1;
                Ok(n)
            }
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    pub(crate) fn eat(&mut self, tok: Tok) -> bool {
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
            qregs: self
                .qregs
                .iter()
                .map(|(n, s)| (n.to_string(), *s))
                .collect(),
            cregs: self
                .cregs
                .iter()
                .map(|(n, s)| (n.to_string(), *s))
                .collect(),
            measurements: self.measurements,
            barriers: self.barriers,
        }
    }

    fn parse_header(&mut self) -> Result<(), QasmError> {
        match self.next() {
            Some(Tok::Ident("OPENQASM")) => {}
            _ => return Err(self.err("program must start with `OPENQASM 2.0;`")),
        }
        match self.next() {
            Some(Tok::Real(v)) if (v - 2.0).abs() < f64::EPSILON => {}
            Some(Tok::Int(2)) => {}
            other => {
                return Err(self.err(format!("unsupported OPENQASM version {other:?} (need 2.0)")))
            }
        }
        self.expect(Tok::Semi, "`;` after version")
    }

    fn parse_statement(&mut self) -> Result<(), QasmError> {
        let kw = match self.peek() {
            Some(Tok::Ident(s)) => s,
            other => return Err(self.err(format!("expected a statement, found {other:?}"))),
        };
        match kw {
            "include" => self.parse_include(),
            "qreg" => self.parse_reg_decl(true),
            "creg" => self.parse_reg_decl(false),
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
        self.expect(Tok::Semi, "`;` after include")
    }

    /// `qreg name[size];` (when `quantum`) or `creg name[size];`.
    pub(crate) fn parse_reg_decl(&mut self, quantum: bool) -> Result<(), QasmError> {
        let at = self.here();
        self.pos += 1; // qreg | creg
        let name = self.expect_ident("register name")?;
        self.expect(Tok::LBracket, "`[`")?;
        let size = self.expect_int("register size")? as usize;
        self.expect(Tok::RBracket, "`]`")?;
        self.expect(Tok::Semi, "`;`")?;
        if quantum {
            self.declare_qreg(at, name, size, "qreg")
        } else {
            self.declare_creg(at, name, size)
        }
    }

    /// Registers a quantum register (either dialect's declaration syntax) and
    /// grows the flat circuit register, keeping already-lowered instructions.
    /// Errors point at `at`, the declaration's first token.
    pub(crate) fn declare_qreg(
        &mut self,
        (line, col): (usize, usize),
        name: &'a str,
        size: usize,
        kind: &str,
    ) -> Result<(), QasmError> {
        let err = |message: String| QasmError::new(line, col, message);
        if size == 0 {
            return Err(err(format!("{kind} `{name}` must have at least one qubit")));
        }
        if self.registers.contains_key(name) {
            return Err(err(format!("register `{name}` is already declared")));
        }
        let offset = self.circuit.num_qubits();
        if size > MAX_QUBITS - offset {
            return Err(err(format!(
                "{kind} `{name}[{size}]` takes the program past the supported maximum \
                 of {MAX_QUBITS} qubits"
            )));
        }
        self.qregs.push((name, size));
        self.registers.insert(name, (size, Some(offset)));
        self.circuit.widen(offset + size);
        Ok(())
    }

    /// Registers a classical register (either dialect's declaration syntax).
    /// Errors point at `at`, the declaration's first token.
    pub(crate) fn declare_creg(
        &mut self,
        (line, col): (usize, usize),
        name: &'a str,
        size: usize,
    ) -> Result<(), QasmError> {
        if self.registers.contains_key(name) {
            return Err(QasmError::new(
                line,
                col,
                format!("register `{name}` is already declared"),
            ));
        }
        self.cregs.push((name, size));
        self.registers.insert(name, (size, None));
        Ok(())
    }

    pub(crate) fn find_qreg(&self, name: &str) -> Option<(usize, usize)> {
        match self.registers.get(name) {
            Some(&(size, Some(offset))) => Some((size, offset)),
            _ => None,
        }
    }

    // --- gate definitions ---------------------------------------------------

    /// A `gate` statement. Built-in names (native gates and the composites)
    /// keep their built-in lowering, so their re-declarations are parsed and
    /// dropped. A new definition can change what others expand to, so it
    /// clears the expansion counts.
    pub(crate) fn parse_gate_def(&mut self) -> Result<(), QasmError> {
        let (name, def) = self.read_gate_def()?;
        if native(name).is_none() && !composites().contains_key(name) {
            self.gate_defs.insert(name, Arc::new(def));
            self.expanded.clear();
        }
        Ok(())
    }

    /// Reads one `gate name(params) qargs { body }` definition.
    fn read_gate_def(&mut self) -> Result<(&'a str, GateDef<'a>), QasmError> {
        self.pos += 1; // gate
        let name = self.expect_ident("gate name")?;
        let params = if self.eat(Tok::LParen) {
            let p = self.parse_ident_list()?;
            self.expect(Tok::RParen, "`)` after gate parameters")?;
            p
        } else {
            Vec::new()
        };
        let qargs = self.parse_ident_list()?;
        if qargs.is_empty() {
            return Err(self.err(format!("gate `{name}` needs at least one qubit argument")));
        }
        self.expect(Tok::LBrace, "`{` opening the gate body")?;
        let mut body = Vec::new();
        while !self.eat(Tok::RBrace) {
            let (line, col) = self.here();
            let op = self.expect_ident("a gate call inside the body")?;
            if op == "barrier" {
                self.parse_ident_list()?; // formal operands, unused
                self.expect(Tok::Semi, "`;`")?;
                continue;
            }
            let mut program = Vec::new();
            if self.eat(Tok::LParen) {
                self.parse_expr_list(&params, &mut program)?;
                self.expect(Tok::RParen, "`)` after call parameters")?;
            }
            let operands = self.parse_ident_list()?;
            self.expect(Tok::Semi, "`;` after gate call")?;
            // A repeated formal name binds its last position.
            let slot = |q: &&str| {
                qargs.iter().rposition(|a| a == q).ok_or_else(|| {
                    let message = format!("`{q}` is not an argument of gate `{name}`");
                    QasmError::new(line, col, message)
                })
            };
            body.push(BodyCall {
                name: op,
                params: program,
                qubits: operands.iter().map(slot).collect::<Result<_, _>>()?,
                line,
                col,
            });
        }
        let def = GateDef {
            params: params.len(),
            qubits: qargs.len(),
            body,
            at_caller: false,
        };
        Ok((name, def))
    }

    pub(crate) fn parse_opaque(&mut self) -> Result<(), QasmError> {
        self.pos += 1; // opaque
        let name = self.expect_ident("opaque gate name")?;
        if self.eat(Tok::LParen) {
            self.parse_ident_list()?;
            self.expect(Tok::RParen, "`)`")?;
        }
        self.parse_ident_list()?;
        self.expect(Tok::Semi, "`;` after opaque declaration")?;
        self.opaque_decls.insert(name);
        Ok(())
    }

    fn parse_ident_list(&mut self) -> Result<Vec<&'a str>, QasmError> {
        let mut out = Vec::new();
        if let Some(Tok::Ident(_)) = self.peek() {
            out.push(self.expect_ident("identifier")?);
            while self.eat(Tok::Comma) {
                out.push(self.expect_ident("identifier")?);
            }
        }
        Ok(out)
    }

    // --- expressions --------------------------------------------------------

    /// Compiles `expr (, expr)*` onto `program`, which then leaves one value
    /// per expression. Names resolve against `params`, the parameters in
    /// scope (a repeated name binds its last slot).
    fn parse_expr_list(
        &mut self,
        params: &[&str],
        program: &mut Vec<Op<'a>>,
    ) -> Result<(), QasmError> {
        self.parse_expr(params, program)?;
        while self.eat(Tok::Comma) {
            self.parse_expr(params, program)?;
        }
        Ok(())
    }

    /// Compiles one expression onto `out` with a shunting-yard pass. The
    /// grammar, loosest first, with each level's binding power: `+ -` (1)
    /// and `* /` (2), both left-associative, then prefix `-` (3; prefix `+`
    /// is a no-op), then right-associative `^` (4), whose right operand may
    /// carry its own prefix signs. An atom is a number, `pi`, a parameter,
    /// a function call `f(expr)` or a parenthesised expression.
    fn parse_expr(&mut self, params: &[&str], out: &mut Vec<Op<'a>>) -> Result<(), QasmError> {
        let mut pending: Vec<Pending<'a>> = Vec::new();
        loop {
            // Operand position: prefix signs and opening parentheses, then
            // an atom.
            match self.next() {
                Some(Tok::Minus) => {
                    pending.push(Pending::Op(Op::Unary(|x| -x), 3));
                    continue;
                }
                Some(Tok::Plus) => continue,
                Some(Tok::LParen) => {
                    pending.push(Pending::Open(None));
                    continue;
                }
                Some(Tok::Real(x)) => out.push(Op::Num(x)),
                Some(Tok::Int(n)) => out.push(Op::Num(n as f64)),
                Some(Tok::Ident("pi")) => out.push(Op::Num(PI)),
                Some(Tok::Ident(name)) if self.peek() == Some(Tok::LParen) => {
                    self.pos += 1;
                    pending.push(Pending::Open(Some(name)));
                    continue;
                }
                Some(Tok::Ident(name)) => out.push(match params.iter().rposition(|p| *p == name) {
                    Some(slot) => Op::Param(slot),
                    None => Op::Unknown("parameter", name),
                }),
                other => return Err(self.err(format!("expected an expression, found {other:?}"))),
            }
            // Operator position: close parentheses until a binary operator
            // continues the expression, or end it.
            let (op, power): (fn(f64, f64) -> f64, u8) = loop {
                match self.peek() {
                    Some(Tok::Plus) => break (|a, b| a + b, 1),
                    Some(Tok::Minus) => break (|a, b| a - b, 1),
                    Some(Tok::Star) => break (|a, b| a * b, 2),
                    Some(Tok::Slash) => break (|a, b| a / b, 2),
                    Some(Tok::Caret) => break (f64::powf, 4),
                    _ => {}
                }
                let call = loop {
                    match pending.pop() {
                        Some(Pending::Op(op, _)) => out.push(op),
                        Some(Pending::Open(call)) => break call,
                        None => return Ok(()),
                    }
                };
                match call {
                    Some(name) => {
                        self.expect(Tok::RParen, "`)` closing function call")?;
                        let f = function(name).map(Op::Unary);
                        out.push(f.unwrap_or(Op::Unknown("function", name)));
                    }
                    None => self.expect(Tok::RParen, "`)`")?,
                }
            };
            self.pos += 1;
            while let Some(&Pending::Op(top, top_power)) = pending.last() {
                if top_power < power || (top_power == power && power == 4) {
                    break;
                }
                out.push(top);
                pending.pop();
            }
            pending.push(Pending::Op(Op::Binary(op), power));
        }
    }

    // --- operands, barrier, measure -----------------------------------------

    pub(crate) fn parse_operand(&mut self) -> Result<Operand<'a>, QasmError> {
        let name = self.expect_ident("register operand")?;
        if self.eat(Tok::LBracket) {
            let idx = self.expect_int("qubit index")? as usize;
            self.expect(Tok::RBracket, "`]`")?;
            Ok(Operand::Bit(name, idx))
        } else {
            Ok(Operand::Reg(name))
        }
    }

    pub(crate) fn parse_operand_list(&mut self) -> Result<Vec<Operand<'a>>, QasmError> {
        let mut out = vec![self.parse_operand()?];
        while self.eat(Tok::Comma) {
            out.push(self.parse_operand()?);
        }
        Ok(out)
    }

    /// Flat qubit indices of a quantum operand: one per register element, or
    /// a single entry for a bit.
    pub(crate) fn resolve_qubits(&self, op: &Operand) -> Result<Vec<usize>, QasmError> {
        let (Operand::Reg(name) | Operand::Bit(name, _)) = *op;
        let (size, offset) = self
            .find_qreg(name)
            .ok_or_else(|| self.err(format!("unknown quantum register `{name}`")))?;
        match *op {
            Operand::Reg(_) => Ok((offset..offset + size).collect()),
            Operand::Bit(_, idx) if idx >= size => {
                Err(self.err(format!("index {idx} out of range for `{name}[{size}]`")))
            }
            Operand::Bit(_, idx) => Ok(vec![offset + idx]),
        }
    }

    pub(crate) fn parse_barrier(&mut self) -> Result<(), QasmError> {
        self.pos += 1; // barrier
        let ops = self.parse_operand_list()?;
        for op in &ops {
            self.resolve_qubits(op)?; // validate only
        }
        self.expect(Tok::Semi, "`;` after barrier")?;
        self.barriers += 1;
        Ok(())
    }

    pub(crate) fn parse_measure(&mut self) -> Result<(), QasmError> {
        self.pos += 1; // measure
        let q = self.parse_operand()?;
        self.expect(Tok::Arrow, "`->` in measure")?;
        let c = self.parse_operand()?;
        self.expect(Tok::Semi, "`;` after measure")?;
        self.record_measure(&q, &c)
    }

    /// Number of classical bits a measure target covers (the whole register,
    /// or 1 for an in-range indexed bit).
    pub(crate) fn resolve_bits(&self, op: &Operand) -> Result<usize, QasmError> {
        let (Operand::Reg(name) | Operand::Bit(name, _)) = *op;
        let Some(&(size, None)) = self.registers.get(name) else {
            return Err(self.err(format!("unknown classical register `{name}`")));
        };
        match *op {
            Operand::Reg(_) => Ok(size),
            Operand::Bit(_, idx) if idx >= size => {
                Err(self.err(format!("index {idx} out of range for `{name}[{size}]`")))
            }
            Operand::Bit(..) => Ok(1),
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
        self.apply_broadcast(name, &params, line, col)
    }

    /// Parses an optional `(expr, …)` parameter list and evaluates it with
    /// no parameters in scope (top-level applications have none).
    pub(crate) fn parse_call_params(
        &mut self,
        line: usize,
        col: usize,
    ) -> Result<Vec<f64>, QasmError> {
        if !self.eat(Tok::LParen) {
            return Ok(Vec::new());
        }
        let mut program = Vec::new();
        self.parse_expr_list(&[], &mut program)?;
        self.expect(Tok::RParen, "`)` after parameters")?;
        eval(&program, &[], line, col)
    }

    /// Parses the operand list and trailing `;` of a gate application, then
    /// applies `name` with register broadcasting — the shared tail of both
    /// dialects' application statements.
    pub(crate) fn apply_broadcast(
        &mut self,
        name: &'a str,
        params: &[f64],
        line: usize,
        col: usize,
    ) -> Result<(), QasmError> {
        let operands = self.parse_operand_list()?;
        self.expect(Tok::Semi, "`;` after gate application")?;

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

    /// The definition `name` expands through: a composite built-in or a
    /// user definition.
    fn find_def(&self, name: &str) -> Option<Arc<GateDef<'a>>> {
        let composite: Option<&Arc<GateDef<'a>>> = composites().get(name);
        composite.or_else(|| self.gate_defs.get(name)).cloned()
    }

    /// Applies a named gate: natives lower to one instruction, definitions
    /// (composite built-ins, then user gates) expand their bodies.
    pub(crate) fn apply(
        &mut self,
        name: &'a str,
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
            self.spend(name, Some(1), line, col)?;
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
        if let Some((arity, gate)) = native(name) {
            check_arity(name, arity, params, qubits, line, col)?;
            self.spend(name, Some(1), line, col)?;
            self.circuit.push(gate(params), qubits);
            return Ok(());
        }
        let Some(def) = self.find_def(name) else {
            let message = if self.opaque_decls.contains(name) {
                format!("opaque gate `{name}` has no built-in lowering")
            } else {
                format!("unknown gate `{name}`")
            };
            return Err(QasmError::new(line, col, message));
        };
        check_arity(name, (def.params, def.qubits), params, qubits, line, col)?;
        let inner = self.expanded_len(name, def.clone());
        self.spend(name, inner.map(|n| n.saturating_add(1)), line, col)?;
        for call in &def.body {
            let (line, col) = if def.at_caller {
                (line, col)
            } else {
                (call.line, call.col)
            };
            let inner_params = eval(&call.params, params, line, col)?;
            let inner_qubits: Vec<usize> = call.qubits.iter().map(|&k| qubits[k]).collect();
            self.apply(
                call.name,
                &inner_params,
                &inner_qubits,
                line,
                col,
                depth + 1,
            )?;
        }
        Ok(())
    }

    /// Counts one application of `name`, or refuses it when the `need`
    /// applications of its whole expansion would take the program past
    /// [`MAX_EXPANDED_GATES`]. An expansion that never ends (`None`) is
    /// checked one application at a time; it always hits the depth limit.
    fn spend(
        &mut self,
        name: &str,
        need: Option<usize>,
        line: usize,
        col: usize,
    ) -> Result<(), QasmError> {
        let need = need.unwrap_or(1);
        if need > MAX_EXPANDED_GATES - self.applied {
            return Err(QasmError::new(
                line,
                col,
                format!(
                    "gate `{name}` expands to {need} gate application(s), which takes the \
                     program past the limit of {MAX_EXPANDED_GATES}"
                ),
            ));
        }
        self.applied += 1;
        Ok(())
    }

    /// Gate applications inside one application of the definition `root`,
    /// at every level, memoised per definition; `None` when its expansion
    /// reaches `root` again and so never ends. Counts with an explicit stack
    /// of the definitions being counted; entering one marks it `None` in the
    /// memo, which is what a call from its own body then reads.
    fn expanded_len(&mut self, root: &'a str, def: Arc<GateDef<'a>>) -> Option<usize> {
        if let Some(&len) = self.expanded.get(root) {
            return len;
        }
        // Each body call is one application plus those inside it.
        let add = |sum: Option<usize>, inner: Option<usize>| {
            Some(sum?.saturating_add(inner?).saturating_add(1))
        };
        self.expanded.insert(root, None);
        // (name, definition, next body call, applications so far)
        let mut frames = vec![(root, def, 0, Some(0))];
        while let Some((_, def, next, sum)) = frames.last_mut() {
            let Some(call) = def.body.get(*next) else {
                let (name, _, _, len) = frames.pop().expect("the frame on top");
                self.expanded.insert(name, len);
                if let Some(parent) = frames.last_mut() {
                    parent.3 = add(parent.3, len);
                }
                continue;
            };
            *next += 1;
            let callee = call.name;
            let inner = if let Some(&len) = self.expanded.get(callee) {
                len
            } else if let Some(child) = self.find_def(callee) {
                self.expanded.insert(callee, None);
                frames.push((callee, child, 0, Some(0)));
                continue;
            } else {
                Some(0) // a native gate or `gphase`; or unknown, refused when applied
            };
            *sum = add(*sum, inner);
        }
        self.expanded[root]
    }
}

/// Refuses an application whose parameter or qubit count differs from the
/// gate's arity `(params, qubits)`.
fn check_arity(
    name: &str,
    (want_params, want_qubits): (usize, usize),
    params: &[f64],
    qubits: &[usize],
    line: usize,
    col: usize,
) -> Result<(), QasmError> {
    if params.len() == want_params && qubits.len() == want_qubits {
        return Ok(());
    }
    Err(QasmError::new(
        line,
        col,
        format!(
            "gate `{name}` expects {want_params} parameter(s) on {want_qubits} qubit(s), \
             got {} on {}",
            params.len(),
            qubits.len()
        ),
    ))
}

/// A native gate's constructor from its arity-checked parameters.
type Lowering = fn(&[f64]) -> Gate;

/// The gates with a native IR variant: their `(parameters, qubits)` arity
/// and their [`Lowering`]. `None` for every other name.
fn native(name: &str) -> Option<((usize, usize), Lowering)> {
    Some(match name {
        "id" => ((0, 1), |_| Gate::I),
        "x" => ((0, 1), |_| Gate::X),
        "y" => ((0, 1), |_| Gate::Y),
        "z" => ((0, 1), |_| Gate::Z),
        "h" => ((0, 1), |_| Gate::H),
        "s" => ((0, 1), |_| Gate::S),
        "sdg" => ((0, 1), |_| Gate::Sdg),
        "t" => ((0, 1), |_| Gate::T),
        "tdg" => ((0, 1), |_| Gate::Tdg),
        "sx" => ((0, 1), |_| Gate::SX),
        "rx" => ((1, 1), |p| Gate::RX(p[0])),
        "ry" => ((1, 1), |p| Gate::RY(p[0])),
        "rz" => ((1, 1), |p| Gate::RZ(p[0])),
        "p" | "u1" => ((1, 1), |p| Gate::P(p[0])),
        "u2" => ((2, 1), |p| Gate::U3(PI / 2.0, p[0], p[1])),
        "u3" | "u" | "U" => ((3, 1), |p| Gate::U3(p[0], p[1], p[2])),
        "cx" | "CX" => ((0, 2), |_| Gate::CX),
        "cz" => ((0, 2), |_| Gate::CZ),
        "cp" | "cu1" => ((1, 2), |p| Gate::CPhase(p[0])),
        "swap" => ((0, 2), |_| Gate::Swap),
        "iswap" => ((0, 2), |_| Gate::ISwap),
        "siswap" => ((0, 2), |_| Gate::SqrtISwap),
        "syc" => ((0, 2), |_| Gate::Syc),
        "iswap_pow" => ((1, 2), |p| Gate::ISwapPow(p[0])),
        "fsim" => ((2, 2), |p| Gate::Fsim(p[0], p[1])),
        "zx" => ((1, 2), |p| Gate::ZXInteraction(p[0])),
        "rzz" => ((1, 2), |p| Gate::RZZ(p[0])),
        "rxx" => ((1, 2), |p| Gate::RXX(p[0])),
        "ryy" => ((1, 2), |p| Gate::RYY(p[0])),
        "can" => ((3, 2), |p| Gate::Canonical(p[0], p[1], p[2])),
        "unitary2" => ((32, 2), |p| Gate::Unitary2(matrix4_from_params(p))),
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
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;
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

    /// The recursive-descent parser and tree evaluator that the postfix
    /// programs replaced, kept as their reference.
    mod reference {
        use super::*;

        pub(super) enum Expr {
            Num(f64),
            Pi,
            Param(String),
            Neg(Box<Expr>),
            Bin(char, Box<Expr>, Box<Expr>),
            Call(String, Box<Expr>),
        }

        impl Expr {
            pub(super) fn eval(
                &self,
                env: &HashMap<String, f64>,
                line: usize,
                col: usize,
            ) -> Result<f64, QasmError> {
                Ok(match self {
                    Expr::Num(x) => *x,
                    Expr::Pi => PI,
                    Expr::Param(name) => *env.get(name).ok_or_else(|| {
                        QasmError::new(line, col, format!("unknown parameter `{name}`"))
                    })?,
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
                                let message = format!("unknown function `{other}`");
                                return Err(QasmError::new(line, col, message));
                            }
                        }
                    }
                })
            }
        }

        impl Parser<'_> {
            pub(super) fn ref_expr_list(&mut self) -> Result<Vec<Expr>, QasmError> {
                let mut out = vec![self.ref_additive()?];
                while self.eat(Tok::Comma) {
                    out.push(self.ref_additive()?);
                }
                Ok(out)
            }

            fn ref_additive(&mut self) -> Result<Expr, QasmError> {
                let mut lhs = self.ref_multiplicative()?;
                loop {
                    let op = match self.peek() {
                        Some(Tok::Plus) => '+',
                        Some(Tok::Minus) => '-',
                        _ => break,
                    };
                    self.pos += 1;
                    let rhs = self.ref_multiplicative()?;
                    lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
                }
                Ok(lhs)
            }

            fn ref_multiplicative(&mut self) -> Result<Expr, QasmError> {
                let mut lhs = self.ref_unary()?;
                loop {
                    let op = match self.peek() {
                        Some(Tok::Star) => '*',
                        Some(Tok::Slash) => '/',
                        _ => break,
                    };
                    self.pos += 1;
                    let rhs = self.ref_unary()?;
                    lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
                }
                Ok(lhs)
            }

            fn ref_unary(&mut self) -> Result<Expr, QasmError> {
                if self.eat(Tok::Minus) {
                    return Ok(Expr::Neg(Box::new(self.ref_unary()?)));
                }
                if self.eat(Tok::Plus) {
                    return self.ref_unary();
                }
                let base = self.ref_atom()?;
                if self.eat(Tok::Caret) {
                    let exp = self.ref_unary()?;
                    return Ok(Expr::Bin('^', Box::new(base), Box::new(exp)));
                }
                Ok(base)
            }

            fn ref_atom(&mut self) -> Result<Expr, QasmError> {
                match self.next() {
                    Some(Tok::Real(x)) => Ok(Expr::Num(x)),
                    Some(Tok::Int(n)) => Ok(Expr::Num(n as f64)),
                    Some(Tok::LParen) => {
                        let e = self.ref_additive()?;
                        self.expect(Tok::RParen, "`)`")?;
                        Ok(e)
                    }
                    Some(Tok::Ident("pi")) => Ok(Expr::Pi),
                    Some(Tok::Ident(name)) if self.eat(Tok::LParen) => {
                        let arg = self.ref_additive()?;
                        self.expect(Tok::RParen, "`)` closing function call")?;
                        Ok(Expr::Call(name.to_string(), Box::new(arg)))
                    }
                    Some(Tok::Ident(name)) => Ok(Expr::Param(name.to_string())),
                    other => Err(self.err(format!("expected an expression, found {other:?}"))),
                }
            }
        }
    }

    /// Random expression text over parentheses, prefix chains, every binary
    /// operator (including right-associative `^`), `pi`, the functions, the
    /// parameters `a`, `b`, `theta` and, when `unknown`, a name and a
    /// function that do not exist.
    fn random_expr(rng: &mut TestRng, depth: usize, unknown: bool) -> String {
        if depth == 0 || rng.next_u64().is_multiple_of(3) {
            if unknown && rng.next_u64().is_multiple_of(10) {
                return "zz".to_string();
            }
            let leaves = [
                "0", "1", "2", "7", ".25", "1e-3", "2.5", "pi", "a", "b", "theta",
            ];
            return leaves[rng.next_u64() as usize % leaves.len()].to_string();
        }
        let sub = |rng: &mut TestRng| random_expr(rng, depth - 1, unknown);
        match rng.next_u64() % 8 {
            0 => format!("-{}", sub(rng)),
            1 => format!("+-{}", sub(rng)),
            2 => format!("({})", sub(rng)),
            3 => {
                let mut f = vec!["sin", "cos", "tan", "exp", "ln", "sqrt"];
                if unknown {
                    f.push("nope");
                }
                format!("{}({})", f[rng.next_u64() as usize % f.len()], sub(rng))
            }
            _ => {
                let ops = ["+", "-", "*", "/", "^", "^-", "*-"];
                let op = ops[rng.next_u64() as usize % ops.len()];
                format!("{}{op}{}", sub(rng), sub(rng))
            }
        }
    }

    /// Random token soup, for the syntax errors and their positions.
    fn random_tokens(rng: &mut TestRng) -> String {
        let alphabet = [
            "(", ")", "-", "+", "*", "/", "^", ",", "1", "pi", "a", "sin", "f", ";",
        ];
        let len = 1 + rng.next_u64() as usize % 12;
        let tokens: Vec<&str> = (0..len)
            .map(|_| alphabet[rng.next_u64() as usize % alphabet.len()])
            .collect();
        tokens.join(" ")
    }

    /// Compiles and runs `text` both ways, with parameters `a`, `b` and
    /// `theta` bound to `args`; the results (values as bits, or the error)
    /// and the tokens consumed must agree.
    fn assert_matches_reference(text: &str, args: [f64; 3]) {
        let names = ["a", "b", "theta"];
        let tokens = lex(text).unwrap();
        let mut postfix = Parser::new(tokens.clone());
        let mut program = Vec::new();
        let got = postfix
            .parse_expr_list(&names, &mut program)
            .and_then(|()| eval(&program, &args, 3, 9));
        let mut tree = Parser::new(tokens);
        let env: HashMap<String, f64> = names.iter().map(|n| n.to_string()).zip(args).collect();
        let want = tree.ref_expr_list().and_then(|exprs| {
            exprs
                .iter()
                .map(|e| e.eval(&env, 3, 9))
                .collect::<Result<Vec<f64>, _>>()
        });
        let bits = |r: Result<Vec<f64>, QasmError>| {
            r.map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
        };
        assert_eq!(bits(got), bits(want), "{text}");
        assert_eq!(postfix.pos, tree.pos, "{text}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn postfix_programs_match_the_recursive_evaluator(
            seed in any::<u64>(),
            a in -4.0..4.0f64,
            b in -4.0..4.0f64,
            theta in 0.0..7.0f64,
        ) {
            let mut rng = TestRng::for_case("expr", seed as u32);
            let unknown = seed.is_multiple_of(3);
            let mut text = random_expr(&mut rng, 6, unknown);
            if seed.is_multiple_of(4) {
                text = format!("{text}, {}", random_expr(&mut rng, 3, unknown));
            }
            assert_matches_reference(&text, [a, b, theta]);
            assert_matches_reference(&random_tokens(&mut rng), [a, b, theta]);
        }
    }

    #[test]
    fn composites_lower_to_their_qelib1_bodies() {
        // The bodies the composites were hand-lowered with, as the reference.
        let (l, p, t) = (0.3, -1.1, 2.9);
        let reference = [
            ("cy", vec![], "sdg 1; cx 0,1; s 1;".to_string()),
            (
                "ch",
                vec![],
                "h 1; sdg 1; cx 0,1; h 1; t 1; cx 0,1; t 1; h 1; s 1; x 1; s 0;".to_string(),
            ),
            (
                "crz",
                vec![l],
                format!("rz({}) 1; cx 0,1; rz({}) 1; cx 0,1;", l / 2.0, -l / 2.0),
            ),
            (
                "crx",
                vec![l],
                format!(
                    "h 1; rz({}) 1; cx 0,1; rz({}) 1; cx 0,1; h 1;",
                    l / 2.0,
                    -l / 2.0
                ),
            ),
            (
                "cry",
                vec![l],
                format!("ry({}) 1; cx 0,1; ry({}) 1; cx 0,1;", l / 2.0, -l / 2.0),
            ),
            (
                "cu3",
                vec![t, p, l],
                format!(
                    "u1({}) 0; u1({}) 1; cx 0,1; u3({},{},{}) 1; cx 0,1; u3({},{},{}) 1;",
                    (l + p) / 2.0,
                    (l - p) / 2.0,
                    -t / 2.0,
                    0.0,
                    -(p + l) / 2.0,
                    t / 2.0,
                    p,
                    0.0
                ),
            ),
            (
                "ccx",
                vec![],
                "h 2; cx 1,2; tdg 2; cx 0,2; t 2; cx 1,2; tdg 2; cx 0,2; t 1; t 2; h 2; \
                 cx 0,1; t 0; tdg 1; cx 0,1;"
                    .to_string(),
            ),
        ];
        let ccx = reference[6].2.clone();
        let reference =
            reference
                .into_iter()
                .chain([("cswap", vec![], format!("cx 2,1; {ccx} cx 2,1;"))]);
        for (name, params, body) in reference {
            let mut want = Circuit::new(3);
            for stmt in body.split(';').map(str::trim).filter(|s| !s.is_empty()) {
                let (head, qubits) = stmt.rsplit_once(' ').unwrap();
                let qubits: Vec<usize> = qubits.split(',').map(|q| q.parse().unwrap()).collect();
                let (gate, args) = match head.split_once('(') {
                    Some((gate, args)) => {
                        let args = args.trim_end_matches(')').split(',');
                        (gate, args.map(|x| x.parse().unwrap()).collect())
                    }
                    None => (head, Vec::new()),
                };
                want.push(native(gate).unwrap().1(&args), &qubits);
            }
            let mut parser = Parser::new(Vec::new());
            parser.circuit = Circuit::new(3);
            let qubits: Vec<usize> = (0..composites()[name].qubits).collect();
            parser.apply(name, &params, &qubits, 1, 1, 0).unwrap();
            assert_eq!(
                format!("{:?}", parser.circuit.instructions()),
                format!("{:?}", want.instructions()),
                "{name}"
            );
            // The count is exact: every application but the root's own.
            assert_eq!(
                parser.expanded_len(name, composites()[name].clone()),
                Some(parser.applied - 1),
                "{name}"
            );
        }
    }

    #[test]
    fn expansion_counts_are_exact_and_cycles_are_left_to_the_depth_limit() {
        let src = with_header(
            "gate a x,y,z { h x; barrier x; ccx x,y,z; }\n\
             gate b(t) x,y,z { a x,y,z; rz(t) y; gphase(t); cswap x,y,z; nope x; }\n",
        );
        let mut parser = Parser::new(lex(&src).unwrap());
        parser.parse_header().unwrap();
        while parser.peek().is_some() {
            parser.parse_statement().unwrap();
        }
        // Barriers are not kept; `gphase` and the unknown `nope` count one
        // application each, though neither pushes a gate.
        let a = parser.find_def("a").unwrap();
        assert_eq!(parser.expanded_len("a", a), Some(1 + 16));
        let b = parser.find_def("b").unwrap();
        assert_eq!(parser.expanded_len("b", b), Some(18 + 1 + 1 + 19 + 1));

        let cyclic =
            with_header("gate f x { g x; }\ngate g x { h x; f x; }\nqreg q[1];\nf q[0];\n");
        let err = parse_circuit(&cyclic).unwrap_err();
        assert_eq!(err.message, "gate expansion too deep", "{err}");
        assert_eq!((err.line, err.col), (3, 12), "{err}");
    }

    #[test]
    fn applications_past_the_expansion_budget_are_refused_before_any_gate() {
        // Definitions with empty bodies push no gate, but each application
        // counts: `e19` expands to 2^20 - 2 applications inside, so applying
        // it takes 2^20 - 1, one short of the budget.
        let mut src = with_header("gate e0 a { }\n");
        for k in 1..=20 {
            src += &format!("gate e{k} a {{ e{} a; e{} a; }}\n", k - 1, k - 1);
        }
        assert_eq!(MAX_EXPANDED_GATES, 1 << 20);
        let mut parser = Parser::new(lex(&src).unwrap());
        parser.parse_header().unwrap();
        while parser.peek().is_some() {
            parser.parse_statement().unwrap();
        }
        let e19 = parser.find_def("e19").unwrap();
        assert_eq!(parser.expanded_len("e19", e19), Some((1 << 20) - 2));

        // After two other gates, `e19` is one application too many; `e20`
        // is refused alone. Nothing of a refused call is pushed.
        for (tail, line, need) in [
            ("h q[1];\nh q[1];\ne19 q[0];\n", 27, (1 << 20) - 1),
            ("e20 q[0];\n", 25, (1 << 21) - 1),
        ] {
            let src = format!("{src}qreg q[2];\n{tail}");
            let mut parser = Parser::new(lex(&src).unwrap());
            parser.parse_header().unwrap();
            let err = loop {
                if let Err(err) = parser.parse_statement() {
                    break err;
                }
            };
            assert_eq!((err.line, err.col), (line, 1), "{err}");
            let want = format!("expands to {need} gate application(s)");
            assert!(err.message.contains(&want), "{err}");
            assert!(err.message.contains("limit of 1048576"), "{err}");
            assert_eq!(parser.circuit.len(), tail.matches("h q").count());
        }
    }
}
