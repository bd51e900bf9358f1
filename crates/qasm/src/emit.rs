//! Serializes a [`Circuit`] to OpenQASM text, in either dialect.
//!
//! The target dialect is a [`QasmVersion`]:
//!
//! * **V2** targets the conservative `qelib1.inc` core. Gates with exact
//!   `U`/`CX` decompositions (`sx`, `iswap`, `rzz`, `rxx`, `ryy`) get
//!   compatibility `gate` definitions any QASM 2.0 consumer can execute —
//!   our own parser still lowers them natively by name — while SNAIL-dialect
//!   gates without clean `U`/`CX` bodies (`siswap`, `syc`, `fsim`,
//!   `iswap_pow`, `zx`, `can`) are declared `opaque`. A circuit's global
//!   phase is dropped (QASM 2.0 cannot express it; it is unobservable).
//! * **V3** targets `stdgates.inc`. Every dialect gate except `unitary2`
//!   gets an *exact* `gate` definition — `gphase` makes the bodies equal to
//!   the native unitaries including global phase (e.g. `rzz` is
//!   `gphase(-θ/2); cx; p(θ); cx;`), built on the identities
//!   `CAN(c₁,c₂,c₃) = RXX(-2c₁)·RYY(-2c₂)·RZZ(-2c₃)` and
//!   `iSWAPᵗ = CAN(tπ/4, tπ/4, 0)`. A non-zero circuit global phase is
//!   emitted as a leading `gphase(φ);` statement.
//!
//! In both dialects [`Gate::Unitary1`] is converted to an exact `u3` via ZYZ
//! decomposition (equal up to global phase), and [`Gate::Unitary2`] is
//! encoded losslessly as a `unitary2(...)` application carrying all 32
//! row-major `(re, im)` matrix entries, so a re-parse reproduces the exact
//! matrix. (`unitary2` is the one snailqc extension in V3 output: QASM 3
//! removed `opaque`, so it is documented in a header comment instead.)
//!
//! Angles are printed with Rust's shortest round-trip float formatting, so a
//! parse of the emitted text reconstructs bit-identical `f64` parameters.

use snailqc_circuit::{Circuit, Gate};
use snailqc_math::Matrix2;

/// An OpenQASM dialect version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QasmVersion {
    /// OpenQASM 2.0 (`qelib1.inc`, `qreg`/`creg`, `opaque`).
    #[default]
    V2,
    /// OpenQASM 3.0 (`stdgates.inc`, `qubit[n]`/`bit[n]`, `ctrl @`,
    /// `gphase`).
    V3,
}

impl QasmVersion {
    /// The version number as written in the `OPENQASM` header.
    pub fn header(&self) -> &'static str {
        match self {
            QasmVersion::V2 => "2.0",
            QasmVersion::V3 => "3.0",
        }
    }
}

impl std::fmt::Display for QasmVersion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.header())
    }
}

/// Name of the one flat quantum register every emitted program declares.
const REGISTER: &str = "q";

/// Options controlling QASM emission.
#[derive(Debug, Clone, Copy, Default)]
pub struct EmitOptions {
    /// Emit a classical register plus a full-register measurement at the end
    /// (`measure q -> c;` in V2, `c = measure q;` in V3).
    pub measure_all: bool,
    /// Target dialect (default [`QasmVersion::V2`]).
    pub version: QasmVersion,
}

/// Emits `circuit` as OpenQASM 2.0 with default options.
pub fn emit(circuit: &Circuit) -> String {
    emit_with(circuit, &EmitOptions::default())
}

/// Emits `circuit` as OpenQASM 3.0 with default options.
pub fn emit_v3(circuit: &Circuit) -> String {
    emit_with(
        circuit,
        &EmitOptions {
            version: QasmVersion::V3,
            ..EmitOptions::default()
        },
    )
}

/// Emits `circuit` in the given dialect with default options.
pub fn emit_versioned(circuit: &Circuit, version: QasmVersion) -> String {
    emit_with(
        circuit,
        &EmitOptions {
            version,
            ..EmitOptions::default()
        },
    )
}

/// Emits `circuit` as OpenQASM, honouring every option.
pub fn emit_with(circuit: &Circuit, options: &EmitOptions) -> String {
    let v3 = options.version == QasmVersion::V3;
    let mut out = String::new();
    out.push_str(&format!("OPENQASM {};\n", options.version.header()));
    if v3 {
        out.push_str("include \"stdgates.inc\";\n");
        emit_dialect_header_v3(circuit, &mut out);
        out.push_str(&format!("qubit[{}] {REGISTER};\n", circuit.num_qubits()));
        if options.measure_all {
            out.push_str(&format!("bit[{}] c;\n", circuit.num_qubits()));
        }
        if circuit.global_phase() != 0.0 {
            out.push_str(&format!("gphase({});\n", fmt_f64(circuit.global_phase())));
        }
    } else {
        out.push_str("include \"qelib1.inc\";\n");
        emit_dialect_header(circuit, &mut out);
        out.push_str(&format!("qreg {REGISTER}[{}];\n", circuit.num_qubits()));
        if options.measure_all {
            out.push_str(&format!("creg c[{}];\n", circuit.num_qubits()));
        }
    }
    for inst in circuit.instructions() {
        let (name, params) = gate_text(&inst.gate);
        let name = if v3 { rename_v3(&name) } else { name.as_str() };
        out.push_str(name);
        if !params.is_empty() {
            out.push('(');
            out.push_str(
                &params
                    .iter()
                    .map(|x| fmt_f64(*x))
                    .collect::<Vec<_>>()
                    .join(","),
            );
            out.push(')');
        }
        out.push(' ');
        out.push_str(
            &inst
                .qubits
                .iter()
                .map(|q| format!("{REGISTER}[{q}]"))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push_str(";\n");
    }
    if options.measure_all {
        if v3 {
            out.push_str(&format!("c = measure {REGISTER};\n"));
        } else {
            out.push_str(&format!("measure {REGISTER} -> c;\n"));
        }
    }
    out
}

/// QASM2 compat names that have a more idiomatic QASM3 spelling.
fn rename_v3(name: &str) -> &str {
    match name {
        "u1" => "p",
        "cu1" => "cp",
        other => other,
    }
}

/// Shortest representation that round-trips through `str::parse::<f64>()`.
fn fmt_f64(x: f64) -> String {
    debug_assert!(x.is_finite(), "cannot emit non-finite gate parameter");
    format!("{x:?}")
}

/// Compatibility definitions / opaque declarations for every non-qelib1 gate
/// kind used by the circuit, in a stable order.
fn emit_dialect_header(circuit: &Circuit, out: &mut String) {
    let used: std::collections::BTreeSet<&'static str> = circuit
        .instructions()
        .iter()
        .map(|i| i.gate.name())
        .collect();
    // (gate kind name, header line)
    let decls: [(&str, &str); 12] = [
        ("sx", "gate sx a { sdg a; h a; sdg a; }"),
        ("iswap", "gate iswap a,b { s a; s b; h a; cx a,b; cx b,a; h b; }"),
        ("rzz", "gate rzz(theta) a,b { cx a,b; u1(theta) b; cx a,b; }"),
        (
            "rxx",
            "gate rxx(theta) a,b { h a; h b; cx a,b; u1(theta) b; cx a,b; h a; h b; }",
        ),
        (
            "ryy",
            "gate ryy(theta) a,b { rx(pi/2) a; rx(pi/2) b; cx a,b; u1(theta) b; cx a,b; rx(-pi/2) a; rx(-pi/2) b; }",
        ),
        ("zx", "opaque zx(theta) a,b;"),
        ("siswap", "opaque siswap a,b;"),
        ("syc", "opaque syc a,b;"),
        ("iswap_pow", "opaque iswap_pow(t) a,b;"),
        ("fsim", "opaque fsim(theta,phi) a,b;"),
        ("can", "opaque can(c1,c2,c3) a,b;"),
        ("unitary2", "opaque unitary2(m00r,m00i,m01r,m01i,m02r,m02i,m03r,m03i,m10r,m10i,m11r,m11i,m12r,m12i,m13r,m13i,m20r,m20i,m21r,m21i,m22r,m22i,m23r,m23i,m30r,m30i,m31r,m31i,m32r,m32i,m33r,m33i) a,b;"),
    ];
    for (kind, line) in decls {
        if used.contains(kind) {
            out.push_str(line);
            out.push('\n');
        }
    }
}

/// Exact OpenQASM 3 `gate` definitions for every non-`stdgates.inc` gate
/// kind used by the circuit, plus the definitions *they* depend on, in
/// dependency order.
///
/// Every body equals the native unitary exactly (including global phase,
/// thanks to `gphase`), so foreign QASM3 consumers execute the same matrix
/// our parser lowers natively by name. `unitary2` is the one exception: an
/// arbitrary 4×4 unitary has no parametric body, so it is documented as a
/// dialect extension in a comment.
fn emit_dialect_header_v3(circuit: &Circuit, out: &mut String) {
    // (gate kind, direct dependencies among these kinds, definition line)
    const DECLS: [(&str, &[&str], &str); 11] = [
        (
            "rzz",
            &[],
            "gate rzz(theta) a,b { gphase(-theta/2); cx a,b; p(theta) b; cx a,b; }",
        ),
        (
            "rxx",
            &["rzz"],
            "gate rxx(theta) a,b { h a; h b; rzz(theta) a,b; h a; h b; }",
        ),
        (
            "ryy",
            &["rxx"],
            "gate ryy(theta) a,b { sdg a; sdg b; rxx(theta) a,b; s a; s b; }",
        ),
        (
            "iswap_pow",
            &["rxx", "ryy"],
            "gate iswap_pow(t) a,b { rxx(-pi*t/2) a,b; ryy(-pi*t/2) a,b; }",
        ),
        (
            "iswap",
            &["iswap_pow"],
            "gate iswap a,b { iswap_pow(1) a,b; }",
        ),
        (
            "siswap",
            &["iswap_pow"],
            "gate siswap a,b { iswap_pow(0.5) a,b; }",
        ),
        (
            "fsim",
            &["rxx", "ryy"],
            "gate fsim(theta,phi) a,b { rxx(theta) a,b; ryy(theta) a,b; cp(-phi) a,b; }",
        ),
        ("syc", &["fsim"], "gate syc a,b { fsim(pi/2,pi/6) a,b; }"),
        (
            "zx",
            &["rzz"],
            "gate zx(theta) a,b { h b; rzz(theta) a,b; h b; }",
        ),
        (
            "can",
            &["rxx", "ryy", "rzz"],
            "gate can(c1,c2,c3) a,b { rxx(-2*c1) a,b; ryy(-2*c2) a,b; rzz(-2*c3) a,b; }",
        ),
        (
            "unitary2",
            &[],
            "// snailqc dialect extension: `unitary2(m00r,m00i,…,m33i) a,b` applies the\n\
             // literal 4x4 unitary carried by its 32 row-major (re, im) parameters.",
        ),
    ];
    let used: std::collections::BTreeSet<&str> = circuit
        .instructions()
        .iter()
        .map(|i| i.gate.name())
        .collect();
    // Transitive dependency closure over the declaration table.
    let mut needed: std::collections::BTreeSet<&str> = Default::default();
    fn require<'a>(
        kind: &'a str,
        decls: &[(&'a str, &'a [&'a str], &'a str)],
        needed: &mut std::collections::BTreeSet<&'a str>,
    ) {
        if !needed.insert(kind) {
            return;
        }
        if let Some((_, deps, _)) = decls.iter().find(|(k, _, _)| *k == kind) {
            for dep in *deps {
                require(dep, decls, needed);
            }
        }
    }
    for (kind, _, _) in &DECLS {
        if used.contains(kind) {
            require(kind, &DECLS, &mut needed);
        }
    }
    for (kind, _, line) in &DECLS {
        if needed.contains(kind) {
            out.push_str(line);
            out.push('\n');
        }
    }
}

/// QASM name and parameter list for one IR gate.
fn gate_text(gate: &Gate) -> (String, Vec<f64>) {
    match gate {
        Gate::I => ("id".into(), vec![]),
        Gate::X => ("x".into(), vec![]),
        Gate::Y => ("y".into(), vec![]),
        Gate::Z => ("z".into(), vec![]),
        Gate::H => ("h".into(), vec![]),
        Gate::S => ("s".into(), vec![]),
        Gate::Sdg => ("sdg".into(), vec![]),
        Gate::T => ("t".into(), vec![]),
        Gate::Tdg => ("tdg".into(), vec![]),
        Gate::SX => ("sx".into(), vec![]),
        Gate::RX(t) => ("rx".into(), vec![*t]),
        Gate::RY(t) => ("ry".into(), vec![*t]),
        Gate::RZ(t) => ("rz".into(), vec![*t]),
        Gate::P(l) => ("u1".into(), vec![*l]),
        Gate::U3(t, p, l) => ("u3".into(), vec![*t, *p, *l]),
        Gate::Unitary1(m) => {
            let (theta, phi, lambda) = zyz_angles(m);
            ("u3".into(), vec![theta, phi, lambda])
        }
        Gate::CX => ("cx".into(), vec![]),
        Gate::CZ => ("cz".into(), vec![]),
        Gate::CPhase(l) => ("cu1".into(), vec![*l]),
        Gate::Swap => ("swap".into(), vec![]),
        Gate::ISwap => ("iswap".into(), vec![]),
        Gate::SqrtISwap => ("siswap".into(), vec![]),
        Gate::ISwapPow(t) => ("iswap_pow".into(), vec![*t]),
        Gate::Fsim(t, p) => ("fsim".into(), vec![*t, *p]),
        Gate::Syc => ("syc".into(), vec![]),
        Gate::ZXInteraction(t) => ("zx".into(), vec![*t]),
        Gate::RZZ(t) => ("rzz".into(), vec![*t]),
        Gate::RXX(t) => ("rxx".into(), vec![*t]),
        Gate::RYY(t) => ("ryy".into(), vec![*t]),
        Gate::Canonical(a, b, c) => ("can".into(), vec![*a, *b, *c]),
        Gate::Unitary2(m) => {
            let mut params = Vec::with_capacity(32);
            for r in 0..4 {
                for c in 0..4 {
                    params.push(m[(r, c)].re);
                    params.push(m[(r, c)].im);
                }
            }
            ("unitary2".into(), params)
        }
    }
}

/// ZYZ Euler angles `(θ, φ, λ)` with `u3(θ, φ, λ) ≃ u` up to global phase.
pub fn zyz_angles(u: &Matrix2) -> (f64, f64, f64) {
    // Normalize to SU(2): v = u / sqrt(det u). For a unitary, |det| = 1.
    let det = u.det();
    let phase = snailqc_math::C64::cis(-det.arg() / 2.0);
    let v00 = u[(0, 0)] * phase;
    let v10 = u[(1, 0)] * phase;
    let v11 = u[(1, 1)] * phase;
    // v00 = cos(θ/2)·e^{-i(φ+λ)/2},  v10 = sin(θ/2)·e^{i(φ-λ)/2},
    // v11 = cos(θ/2)·e^{+i(φ+λ)/2}.
    let theta = 2.0 * v10.abs().atan2(v00.abs());
    const EPS: f64 = 1e-12;
    if v00.abs() > EPS && v10.abs() > EPS {
        let sum = 2.0 * v11.arg(); // φ + λ
        let diff = 2.0 * v10.arg(); // φ − λ
        ((theta), (sum + diff) / 2.0, (sum - diff) / 2.0)
    } else if v10.abs() <= EPS {
        // θ ≈ 0: a pure phase; fold it all into λ.
        (theta, 0.0, 2.0 * v11.arg())
    } else {
        // θ ≈ π: v00 vanishes; fold the remaining phase into φ.
        (theta, 2.0 * v10.arg(), 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_circuit;
    use snailqc_circuit::simulate;
    use snailqc_math::gates;

    #[test]
    fn emits_and_reparses_a_bell_circuit() {
        let mut c = Circuit::new(2);
        c.h(0);
        c.cx(0, 1);
        let text = emit(&c);
        assert!(text.starts_with("OPENQASM 2.0;"));
        assert!(text.contains("qreg q[2];"));
        assert!(text.contains("h q[0];"));
        assert!(text.contains("cx q[0],q[1];"));
        let back = parse_circuit(&text).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn declares_only_used_dialect_gates() {
        let mut c = Circuit::new(2);
        c.push(Gate::SqrtISwap, &[0, 1]);
        let text = emit(&c);
        assert!(text.contains("opaque siswap a,b;"));
        assert!(!text.contains("opaque syc"));
        assert!(!text.contains("gate rzz"));
    }

    #[test]
    fn zx_is_declared_and_round_trips() {
        let mut c = Circuit::new(2);
        c.push(Gate::ZXInteraction(0.3), &[0, 1]);
        let text = emit(&c);
        assert!(text.contains("opaque zx(theta) a,b;"));
        assert_eq!(parse_circuit(&text).unwrap(), c);
    }

    #[test]
    fn angles_round_trip_bit_exactly() {
        let theta = 0.1 + 0.2; // deliberately non-representable-looking
        let mut c = Circuit::new(2);
        c.rz(theta, 0);
        c.push(Gate::Fsim(std::f64::consts::PI / 3.0, 1e-17), &[0, 1]);
        let back = parse_circuit(&emit(&c)).unwrap();
        assert_eq!(back, c, "f64 parameters must round-trip exactly");
    }

    #[test]
    fn unitary2_round_trips_exactly() {
        let m = gates::fsim(0.7, 0.3) * gates::rzz(0.2);
        let mut c = Circuit::new(2);
        c.push(Gate::Unitary2(m), &[0, 1]);
        let back = parse_circuit(&emit(&c)).unwrap();
        assert_eq!(back, c, "matrix entries must round-trip exactly");
    }

    #[test]
    fn unitary1_becomes_equivalent_u3() {
        let candidates = [
            gates::h(),
            gates::t(),
            gates::sx(),
            gates::h() * gates::t() * gates::sx(),
            gates::rx(0.3) * gates::rz(1.2),
            gates::x(),
            gates::z(),
            Matrix2::identity(),
        ];
        for (i, m) in candidates.into_iter().enumerate() {
            let (theta, phi, lambda) = zyz_angles(&m);
            let rebuilt = gates::u3(theta, phi, lambda);
            assert!(
                rebuilt.approx_eq_up_to_phase(&m, 1e-9),
                "candidate {i} did not round-trip through ZYZ"
            );
        }
    }

    #[test]
    fn unitary1_emission_is_simulation_equivalent() {
        let mut c = Circuit::new(1);
        c.push(
            Gate::Unitary1(gates::h() * gates::t() * gates::rx(0.4)),
            &[0],
        );
        let back = parse_circuit(&emit(&c)).unwrap();
        let fidelity = simulate(&c).fidelity(&simulate(&back));
        assert!((fidelity - 1.0).abs() < 1e-9, "fidelity = {fidelity}");
    }

    #[test]
    fn v3_emission_round_trips_through_parser3() {
        let mut c = Circuit::new(3);
        c.h(0);
        c.cx(0, 1);
        c.push(Gate::SqrtISwap, &[1, 2]);
        c.push(Gate::P(0.3), &[2]);
        c.add_global_phase(0.25);
        let text = emit_v3(&c);
        assert!(text.starts_with("OPENQASM 3.0;"));
        assert!(text.contains("include \"stdgates.inc\";"));
        assert!(text.contains("qubit[3] q;"));
        assert!(text.contains("gphase(0.25);"));
        assert!(text.contains("p(0.3) q[2];"), "u1 renames to p in v3");
        // The siswap definition pulls in its dependency chain.
        for def in [
            "gate rzz",
            "gate rxx",
            "gate ryy",
            "gate iswap_pow",
            "gate siswap",
        ] {
            assert!(text.contains(def), "missing `{def}` in:\n{text}");
        }
        assert!(!text.contains("gate fsim"), "unused defs are omitted");
        let back = crate::parser3::parse3_circuit(&text).unwrap();
        assert_eq!(
            back, c,
            "v3 emission must re-parse to the identical circuit"
        );
        // Fixed point: emit ∘ parse3 is the identity on emitted text.
        assert_eq!(emit_v3(&back), text);
    }

    #[test]
    fn v3_measure_all_uses_assignment_form() {
        let mut c = Circuit::new(2);
        c.h(0);
        let opts = EmitOptions {
            measure_all: true,
            version: QasmVersion::V3,
        };
        let text = emit_with(&c, &opts);
        assert!(text.contains("bit[2] c;"));
        assert!(text.contains("c = measure q;"));
        let program = crate::parser3::parse3(&text).unwrap();
        assert_eq!(program.measurements, 2);
        assert_eq!(program.version, QasmVersion::V3);
    }

    #[test]
    fn v2_emission_drops_global_phase() {
        let mut c = Circuit::new(1);
        c.h(0);
        c.add_global_phase(1.0);
        let text = emit(&c);
        assert!(!text.contains("gphase"));
        let back = parse_circuit(&text).unwrap();
        assert_eq!(back.global_phase(), 0.0);
        let fidelity = simulate(&c).fidelity(&simulate(&back));
        assert!((fidelity - 1.0).abs() < 1e-12, "phase is unobservable");
    }

    /// The v3 header definitions claim to be *exact* decompositions. Verify
    /// each identity at the matrix level so the emitted text can never drift
    /// from the native unitaries.
    #[test]
    fn v3_dialect_gate_bodies_are_exact() {
        use snailqc_math::{Matrix4, C64};
        let tol = 1e-12;
        let on0 = |m| gates::on_qubit0(&m);
        let on1 = |m| gates::on_qubit1(&m);

        // rzz(θ) = e^{-iθ/2} · CX·(I⊗P(θ))·CX
        let theta = 0.7;
        let body = gates::cx() * on1(gates::p(theta)) * gates::cx();
        assert!(body
            .scale(C64::cis(-theta / 2.0))
            .approx_eq(&gates::rzz(theta), tol));

        // rxx(θ) = (H⊗H)·rzz(θ)·(H⊗H)
        let hh: Matrix4 = on0(gates::h()) * on1(gates::h());
        assert!((hh * gates::rzz(theta) * hh).approx_eq(&gates::rxx(theta), tol));

        // ryy(θ) = (S⊗S)·rxx(θ)·(S†⊗S†)
        let ss = on0(gates::s()) * on1(gates::s());
        let sdgsdg = on0(gates::sdg()) * on1(gates::sdg());
        assert!((ss * gates::rxx(theta) * sdgsdg).approx_eq(&gates::ryy(theta), tol));

        // iswap_pow(t) = rxx(-πt/2)·ryy(-πt/2); iswap/siswap are t = 1, ½.
        let t = 0.37;
        let a = -std::f64::consts::PI * t / 2.0;
        assert!((gates::rxx(a) * gates::ryy(a)).approx_eq(&gates::iswap_pow(t), tol));
        assert!(gates::iswap_pow(1.0).approx_eq(&gates::iswap(), tol));
        assert!(gates::iswap_pow(0.5).approx_eq(&gates::sqrt_iswap(), tol));

        // fsim(θ,φ) = rxx(θ)·ryy(θ)·cp(-φ); syc = fsim(π/2, π/6).
        let (th, ph) = (0.5, 0.25);
        let fsim = gates::rxx(th) * gates::ryy(th) * gates::cphase(-ph);
        assert!(fsim.approx_eq(&gates::fsim(th, ph), tol));
        assert!(
            gates::fsim(std::f64::consts::FRAC_PI_2, std::f64::consts::FRAC_PI_6)
                .approx_eq(&gates::syc(), tol)
        );

        // zx(θ) = (I⊗H)·rzz(θ)·(I⊗H)
        let ih = on1(gates::h());
        assert!((ih * gates::rzz(theta) * ih).approx_eq(&gates::zx(theta), tol));

        // can(c₁,c₂,c₃) = rxx(-2c₁)·ryy(-2c₂)·rzz(-2c₃)
        let (c1, c2, c3) = (0.3, 0.2, 0.1);
        let can = gates::rxx(-2.0 * c1) * gates::ryy(-2.0 * c2) * gates::rzz(-2.0 * c3);
        assert!(can.approx_eq(&gates::canonical(c1, c2, c3), tol));
    }

    #[test]
    fn measure_all_option_appends_measurement() {
        let mut c = Circuit::new(3);
        c.h(0);
        let opts = EmitOptions {
            measure_all: true,
            ..EmitOptions::default()
        };
        let text = emit_with(&c, &opts);
        assert!(text.contains("qreg q[3];"));
        assert!(text.contains("creg c[3];"));
        assert!(text.contains("measure q -> c;"));
        assert!(crate::parser::parse(&text).unwrap().measurements == 3);
    }
}
