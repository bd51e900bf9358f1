//! QASM interchange round-trip guarantees, exercised end to end through the
//! façade crate:
//!
//! * `parse(emit(c))` preserves the exact gate sequence for random circuits
//!   over the full representable alphabet (including lossless `unitary2`
//!   matrix encoding);
//! * emitted programs are statevector-equivalent to their sources for
//!   simulable sizes (≤ 10 qubits), including `Unitary1` → `u3` rewrites;
//! * every built-in workload generator exports QASM that reproduces its
//!   circuit;
//! * a hand-written golden file parses to the expected program.

use proptest::prelude::*;
use snailqc::circuit::{simulate, Circuit, Gate};
use snailqc::math::gates;
use snailqc::prelude::*;
use snailqc::qasm;

/// Random circuits over every gate kind the emitter round-trips exactly.
fn arb_circuit(max_qubits: usize, max_gates: usize) -> impl Strategy<Value = Circuit> {
    (
        2..=max_qubits,
        proptest::collection::vec(
            (0..24u8, 0..1000u32, 0..1000u32, 0.0..std::f64::consts::TAU),
            1..max_gates,
        ),
    )
        .prop_map(|(n, ops)| {
            let mut c = Circuit::new(n);
            for (kind, a, b, angle) in ops {
                let q0 = a as usize % n;
                let mut q1 = b as usize % n;
                if q1 == q0 {
                    q1 = (q0 + 1) % n;
                }
                match kind {
                    0 => c.push(Gate::I, &[q0]),
                    1 => c.x(q0),
                    2 => c.push(Gate::Y, &[q0]),
                    3 => c.push(Gate::Z, &[q0]),
                    4 => c.h(q0),
                    5 => c.push(Gate::S, &[q0]),
                    6 => c.push(Gate::Sdg, &[q0]),
                    7 => c.push(Gate::T, &[q0]),
                    8 => c.push(Gate::SX, &[q0]),
                    9 => c.rx(angle, q0),
                    10 => c.push(Gate::RY(angle), &[q0]),
                    11 => c.rz(angle, q0),
                    12 => c.push(Gate::P(angle), &[q0]),
                    13 => c.push(Gate::U3(angle, angle / 2.0, -angle), &[q0]),
                    14 => c.cx(q0, q1),
                    15 => c.push(Gate::CZ, &[q0, q1]),
                    16 => c.cp(angle, q0, q1),
                    17 => c.swap(q0, q1),
                    18 => c.push(Gate::ISwap, &[q0, q1]),
                    19 => c.push(Gate::SqrtISwap, &[q0, q1]),
                    20 => c.push(Gate::Syc, &[q0, q1]),
                    21 => c.push(Gate::Fsim(angle, angle / 3.0), &[q0, q1]),
                    22 => c.rzz(angle, q0, q1),
                    23 => c.push(
                        Gate::Unitary2(gates::fsim(angle, 0.4) * gates::rzz(angle / 2.0)),
                        &[q0, q1],
                    ),
                    _ => unreachable!(),
                }
            }
            c
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn emit_parse_preserves_gate_sequences(c in arb_circuit(8, 60)) {
        let text = qasm::emit(&c);
        let back = qasm::parse_circuit(&text).unwrap();
        prop_assert_eq!(back, c);
    }

    #[test]
    fn emit_parse_is_statevector_equivalent(c in arb_circuit(6, 30)) {
        let back = qasm::parse_circuit(&qasm::emit(&c)).unwrap();
        let fidelity = simulate(&c).fidelity(&simulate(&back));
        prop_assert!((fidelity - 1.0).abs() < 1e-9, "fidelity = {}", fidelity);
    }

    #[test]
    fn transpiled_circuits_export_and_reimport(c in arb_circuit(6, 25)) {
        // Route + translate onto a catalog device, emit the result, re-parse
        // it, and check the physical circuit survives the trip intact.
        let device = Device::from_catalog("corral11-16")
            .unwrap()
            .with_basis(BasisGate::SqrtISwap);
        let result = device.try_transpile(&c, &Pipeline::builder().seed(5).build()).unwrap();
        let translated = result.translated.as_ref().unwrap();
        let back = qasm::parse_circuit(&qasm::emit(translated)).unwrap();
        prop_assert_eq!(&back, translated);
    }
}

#[test]
fn unitary1_exports_as_equivalent_u3() {
    let mut c = Circuit::new(3);
    c.push(
        Gate::Unitary1(gates::h() * gates::t() * gates::rx(0.7)),
        &[0],
    );
    c.cx(0, 1);
    c.push(Gate::Unitary1(gates::sdg() * gates::ry(1.1)), &[2]);
    let back = qasm::parse_circuit(&qasm::emit(&c)).unwrap();
    assert_eq!(back.len(), c.len());
    assert_eq!(back.gate_counts()["u3"], 2);
    let fidelity = simulate(&c).fidelity(&simulate(&back));
    assert!((fidelity - 1.0).abs() < 1e-9, "fidelity = {fidelity}");
}

#[test]
fn every_workload_round_trips_through_qasm() {
    for workload in Workload::all() {
        for size in [4, 7, 10] {
            let direct = workload.generate(size, 11);
            let text = workload.emit_qasm(size, 11);
            let parsed =
                qasm::parse(&text).unwrap_or_else(|e| panic!("{} @ {size}: {e}", workload.label()));
            assert_eq!(parsed.circuit, direct, "{} @ {size}", workload.label());
            let fidelity = simulate(&direct).fidelity(&simulate(&parsed.circuit));
            assert!(
                (fidelity - 1.0).abs() < 1e-9,
                "{} @ {size}: fidelity = {fidelity}",
                workload.label()
            );
        }
    }
}

#[test]
fn every_workload_is_statevector_equivalent_across_dialects() {
    // The acceptance criterion: every catalog workload emits valid QASM3
    // that parses back to a circuit statevector-equivalent to its QASM2
    // form.
    for workload in Workload::all() {
        for size in [4, 7, 10] {
            let from_v2 = qasm::parse_circuit(&workload.emit_qasm(size, 11))
                .unwrap_or_else(|e| panic!("{} @ {size} (v2): {e}", workload.label()));
            let from_v3 = qasm::parse3_circuit(&workload.emit_qasm_v3(size, 11))
                .unwrap_or_else(|e| panic!("{} @ {size} (v3): {e}", workload.label()));
            assert_eq!(from_v2, from_v3, "{} @ {size}", workload.label());
            let fidelity = simulate(&from_v2).fidelity(&simulate(&from_v3));
            assert!(
                (fidelity - 1.0).abs() < 1e-9,
                "{} @ {size}: fidelity = {fidelity}",
                workload.label()
            );
        }
    }
}

#[test]
fn reimported_circuits_route_and_verify_across_dialects() {
    // The verification engine closes the interchange loop: a circuit that
    // goes out as QASM (either dialect), comes back in, and is routed onto
    // a catalog device must still be provably equivalent to the original
    // generator output. GHZ exercises the stabilizer engine, QFT the dense
    // engine (16 physical qubits is exactly the dense ceiling).
    use snailqc::topology::catalog;
    use snailqc::transpiler::{route_with_cache, RoutingCache};
    let graph = catalog::by_name("square-lattice-16").unwrap();
    for version in [QasmVersion::V2, QasmVersion::V3] {
        for (workload, size) in [(Workload::Ghz, 12), (Workload::Qft, 8)] {
            let direct = workload.generate(size, 11);
            let text = workload.emit_qasm_versioned(size, 11, version);
            let reimported = qasm::parse_any(&text).unwrap().circuit;
            let layout = LayoutStrategy::Dense
                .try_compute(&reimported, &graph)
                .unwrap();
            let routed = route_with_cache(
                &reimported,
                &graph,
                &layout,
                &RouterConfig::deterministic(11),
                &RoutingCache::new(),
            );
            let verdict = verify_equivalent(&direct, &routed);
            assert!(
                verdict.is_equivalent(),
                "{} ({version}): {verdict}",
                workload.label()
            );
        }
    }
}

#[test]
fn large_clifford_interchange_is_stabilizer_verified() {
    // Interchange at a scale no dense simulator reaches: a 60-qubit random
    // Clifford circuit survives emit → parse (both dialects) → routing onto
    // a 64-qubit grid, with the stabilizer engine proving exact equivalence.
    use snailqc::topology::builders;
    use snailqc::transpiler::{route_with_cache, RoutingCache};
    let direct = snailqc::workloads::random_clifford_circuit(60, 300, 19);
    let graph = builders::square_lattice(8, 8);
    for version in [QasmVersion::V2, QasmVersion::V3] {
        let text = emit_qasm_versioned(&direct, version);
        let reimported = qasm::parse_any(&text).unwrap().circuit;
        assert_eq!(reimported, direct, "{version}: interchange drifted");
        let layout = LayoutStrategy::Dense
            .try_compute(&reimported, &graph)
            .unwrap();
        let routed = route_with_cache(
            &reimported,
            &graph,
            &layout,
            &RouterConfig::deterministic(19),
            &RoutingCache::new(),
        );
        let verdict = verify_equivalent(&direct, &routed);
        assert!(verdict.is_equivalent(), "{version}: {verdict}");
    }
}

/// Per-workload QASM3 golden files: emission is byte-stable, and every
/// golden re-parses to the generator's circuit. Regenerate with
/// `snailqc emit <w> --qubits 6 --seed 7 --qasm3 -o tests/data/<w>_6_v3.qasm`
/// if the emitter format changes intentionally.
#[test]
fn v3_golden_files_match_emission_and_reparse() {
    let goldens: [(Workload, &str); 6] = [
        (
            Workload::QuantumVolume,
            include_str!("data/quantum_volume_6_v3.qasm"),
        ),
        (Workload::Qft, include_str!("data/qft_6_v3.qasm")),
        (
            Workload::QaoaVanilla,
            include_str!("data/qaoa_vanilla_6_v3.qasm"),
        ),
        (
            Workload::TimHamiltonian,
            include_str!("data/tim_hamiltonian_6_v3.qasm"),
        ),
        (Workload::Adder, include_str!("data/adder_6_v3.qasm")),
        (Workload::Ghz, include_str!("data/ghz_6_v3.qasm")),
    ];
    for (workload, golden) in goldens {
        let emitted = workload.emit_qasm_v3(6, 7);
        assert_eq!(
            emitted,
            golden,
            "{} drifted from its golden",
            workload.label()
        );
        let program =
            qasm::parse_any(golden).unwrap_or_else(|e| panic!("{} golden: {e}", workload.label()));
        assert_eq!(program.version, QasmVersion::V3, "{}", workload.label());
        assert_eq!(
            program.circuit,
            workload.generate(6, 7),
            "{}",
            workload.label()
        );
    }
}

#[test]
fn qaoa12_v3_example_matches_its_v2_source() {
    let v2 = qasm::parse_any(include_str!("../examples/qaoa12.qasm")).unwrap();
    let v3 = qasm::parse_any(include_str!("../examples/qaoa12_v3.qasm")).unwrap();
    assert_eq!(v2.version, QasmVersion::V2);
    assert_eq!(v3.version, QasmVersion::V3);
    assert_eq!(v2.circuit, v3.circuit);
}

#[test]
fn malformed_v3_reports_span_carrying_errors_through_the_facade() {
    // Zero-width register.
    let err =
        qasm::parse_any("OPENQASM 3.0;\ninclude \"stdgates.inc\";\nqubit[0] q;\n").unwrap_err();
    assert!(err.message.contains("at least one qubit"), "{err}");
    assert!(err.line >= 3, "span must point into the body: {err}");

    // Unterminated modifier chain.
    let err = qasm::parse_any("OPENQASM 3;\nqubit[2] q;\nctrl @\n").unwrap_err();
    assert!(err.message.contains("unterminated modifier chain"), "{err}");

    // v3 syntax under a v2 header.
    let err = qasm::parse_any("OPENQASM 2.0;\nqubit[2] q;\n").unwrap_err();
    assert!(err.message.contains("OpenQASM 3 syntax"), "{err}");
    assert_eq!((err.line, err.col), (2, 1));
}

#[test]
fn golden_file_parses_to_the_expected_program() {
    let source = include_str!("data/golden.qasm");
    let program = qasm::parse(source).expect("golden file must parse");
    assert_eq!(program.qregs, vec![("q".to_string(), 4)]);
    assert_eq!(program.cregs, vec![("c".to_string(), 4)]);
    assert_eq!(program.measurements, 4);
    assert_eq!(program.barriers, 1);

    let c = &program.circuit;
    // x,x + broadcast h(4) + phase_kick(3) + majority(2 + 15-gate ccx) + rz + cx.
    assert_eq!(c.len(), 28);
    assert_eq!(c.two_qubit_count(), 10);
    assert_eq!(c.gate_counts()["h"], 4 + 2 + 2);
    assert_eq!(c.gate_counts()["cx"], 2 + 6 + 1);
    assert_eq!(c.gate_counts()["cp"], 1);

    // The program is equivalent to building the same circuit by hand.
    let mut reference = Circuit::new(4);
    reference.x(0);
    reference.x(2);
    for q in 0..4 {
        reference.h(q);
    }
    let theta = std::f64::consts::PI / 4.0;
    reference.h(1);
    reference.cp(theta / 2.0, 0, 1);
    reference.h(1);
    // majority q[1],q[2],q[3] expands with q[3] as both control of the CNOTs
    // and target of the Toffoli.
    reference.cx(3, 2);
    reference.cx(3, 1);
    let ccx_body: [(&str, usize); 15] = [
        ("h", 3),
        ("cx", 23),
        ("tdg", 3),
        ("cx", 13),
        ("t", 3),
        ("cx", 23),
        ("tdg", 3),
        ("cx", 13),
        ("t", 2),
        ("t", 3),
        ("h", 3),
        ("cx", 12),
        ("t", 1),
        ("tdg", 2),
        ("cx", 12),
    ];
    for (name, qubits) in ccx_body {
        let (a, b) = (qubits / 10, qubits % 10);
        match name {
            "h" => reference.h(b),
            "t" => reference.push(Gate::T, &[b]),
            "tdg" => reference.push(Gate::Tdg, &[b]),
            "cx" => reference.cx(a, b),
            _ => unreachable!(),
        }
    }
    reference.rz(-std::f64::consts::PI / 2.0, 3);
    reference.cx(2, 3);
    assert_eq!(c, &reference);
}

#[test]
fn registers_above_the_qubit_cap_are_refused_in_both_dialects() {
    let cap = snailqc::topology::MAX_QUBITS;
    let v2 = |body: &str| format!("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n{body}\n");
    let v3 = |body: &str| format!("OPENQASM 3.0;\ninclude \"stdgates.inc\";\n{body}\n");
    let at_cap = qasm::parse_circuit(&v2(&format!("qreg q[{cap}];"))).unwrap();
    assert_eq!(at_cap.num_qubits(), cap);
    let split = qasm::parse3_circuit(&v3(&format!("qubit[{}] a;\nqubit b;", cap - 1))).unwrap();
    assert_eq!(split.num_qubits(), cap);
    let cases = [
        (qasm::parse_circuit(&v2("qreg q[4000000000];")), (3, 1)),
        (
            qasm::parse_circuit(&v2(&format!("qreg q[{}];", cap + 1))),
            (3, 1),
        ),
        (
            qasm::parse_circuit(&v2(&format!("qreg a[{cap}];\nqreg b[1];"))),
            (4, 1),
        ),
        (qasm::parse3_circuit(&v3("qubit[4000000000] q;")), (3, 1)),
        (
            qasm::parse3_circuit(&v3(&format!("qubit[{cap}] a;\nqubit b;"))),
            (4, 1),
        ),
    ];
    for (result, span) in cases {
        let err = result.unwrap_err();
        assert!(
            err.message.contains("supported maximum of 65535 qubits"),
            "{err}"
        );
        assert_eq!(
            (err.line, err.col),
            span,
            "span must be the declaration's: {err}"
        );
    }
}

#[test]
fn duplicate_and_empty_registers_are_refused_at_the_declaration() {
    let v2 = |body: &str| format!("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n{body}\n");
    let v3 = |body: &str| format!("OPENQASM 3.0;\ninclude \"stdgates.inc\";\n{body}\n");
    // A blank line after the failing declaration: the error must not point
    // at whatever token follows it.
    let cases = [
        (
            qasm::parse_circuit(&v2("qreg q[3];\nqreg q[3];\n\nh q[0];")),
            (4, 1),
            "already declared",
        ),
        (
            qasm::parse_circuit(&v2("qreg q[3];\n  creg q[3];\n\nh q[0];")),
            (4, 3),
            "already declared",
        ),
        (
            qasm::parse3_circuit(&v3("qubit[3] q;\nqubit[3] q;\n\nh q[0];")),
            (4, 1),
            "already declared",
        ),
        (
            qasm::parse3_circuit(&v3("qubit[3] q;\nbit[3] q;\n\nh q[0];")),
            (4, 1),
            "already declared",
        ),
        (
            qasm::parse_circuit(&v2("qreg q[0];\n\nh q[0];")),
            (3, 1),
            "at least one qubit",
        ),
        (
            qasm::parse3_circuit(&v3("qubit[0] q;\n\nh q[0];")),
            (3, 1),
            "at least one qubit",
        ),
    ];
    for (result, span, message) in cases {
        let err = result.unwrap_err();
        assert!(err.message.contains(message), "{err}");
        assert_eq!(
            (err.line, err.col),
            span,
            "span must be the declaration's: {err}"
        );
    }
}
