//! Routed-circuit equivalence checking.
//!
//! [`verify_equivalent`] proves (or refutes, or declines to decide) that a
//! routed circuit implements its source circuit up to the qubit permutation
//! recorded in the router's layouts. The engine is chosen by circuit class
//! and size:
//!
//! 1. **Stabilizer proof** — both circuits Clifford, any size: compare the
//!    canonical stabilizer groups of `U_routed |0^m⟩` and the source state
//!    embedded at the final layout. This is an exact proof and runs in
//!    seconds at 1024 qubits.
//! 2. **Dense proof** — any gates, at most [`DENSE_VERIFY_MAX_QUBITS`]
//!    physical qubits: simulate both statevectors and compare fidelity
//!    after undoing the layout permutation.
//! 3. **Pauli spot checks** — large non-Clifford circuits: propagate
//!    deterministic single-qubit Paulis through both circuits; a mismatch
//!    refutes equivalence, while all-pass is reported as
//!    [`Verdict::Inconclusive`] (it is a necessary condition, not a proof).

use crate::pauli::PauliString;
use crate::tableau::Tableau;
use snailqc_circuit::{simulate, Circuit};
use snailqc_obs as obs;
use snailqc_transpiler::RoutedCircuit;

/// Largest physical register the dense-statevector fallback will simulate.
pub const DENSE_VERIFY_MAX_QUBITS: usize = 16;

/// Number of logical qubits sampled (with both a `Z` and an `X` probe each)
/// by the Pauli spot-check engine.
pub const PAULI_SPOT_SAMPLES: usize = 16;

/// Outcome of [`verify_equivalent`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Proven equivalent (stabilizer or dense engine).
    Equivalent,
    /// Proven *not* equivalent; the string says which check failed.
    NotEquivalent(String),
    /// Neither proven nor refuted (spot checks passed, or nothing could be
    /// checked); the string says what was tried.
    Inconclusive(String),
}

impl Verdict {
    /// True for [`Verdict::Equivalent`].
    pub fn is_equivalent(&self) -> bool {
        matches!(self, Verdict::Equivalent)
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Equivalent => write!(f, "equivalent"),
            Verdict::NotEquivalent(d) => write!(f, "not equivalent: {d}"),
            Verdict::Inconclusive(d) => write!(f, "inconclusive: {d}"),
        }
    }
}

/// Checks that `routed` implements `source` up to the tracked layout
/// permutation, starting from `|0…0⟩`.
///
/// Dispatches to the stabilizer, dense, or Pauli spot-check engine as
/// described in the [module docs](self).
pub fn verify_equivalent(source: &Circuit, routed: &RoutedCircuit) -> Verdict {
    let _span = obs::span("sim.verify");
    obs::counter_add("sim.verify_calls", 1);
    let n = source.num_qubits();
    let m = routed.circuit.num_qubits();
    assert!(m >= n, "routed register smaller than the source register");
    let final_phys: Vec<usize> = (0..n).map(|q| routed.final_layout.physical(q)).collect();

    if source.is_clifford() && routed.circuit.is_clifford() {
        return stabilizer_verify(source, routed, &final_phys);
    }
    if m <= DENSE_VERIFY_MAX_QUBITS {
        return dense_verify(source, routed, m);
    }
    pauli_spot_checks(source, routed, &final_phys)
}

/// Exact stabilizer-group comparison (Clifford circuits, any size).
fn stabilizer_verify(source: &Circuit, routed: &RoutedCircuit, final_phys: &[usize]) -> Verdict {
    let m = routed.circuit.num_qubits();
    let mut actual = Tableau::zero_state(m);
    actual
        .apply_circuit(&routed.circuit)
        .expect("routed circuit checked Clifford");
    let mut logical = Tableau::zero_state(source.num_qubits());
    logical
        .apply_circuit(source)
        .expect("source circuit checked Clifford");
    let expected = logical.embed(final_phys, m);
    if expected.canonical_form() == actual.canonical_form() {
        Verdict::Equivalent
    } else {
        Verdict::NotEquivalent(format!(
            "stabilizer groups of the routed state and the layout-embedded source state \
             differ on the {m}-qubit register"
        ))
    }
}

/// Dense statevector comparison for small registers.
fn dense_verify(source: &Circuit, routed: &RoutedCircuit, m: usize) -> Verdict {
    let n = source.num_qubits();
    // Embed the source circuit on the full physical register size; qubits
    // n..m stay |0⟩ on both sides.
    let mut embedded = Circuit::new(m);
    embedded.add_global_phase(source.global_phase());
    for inst in source.instructions() {
        embedded.push_instruction(inst.clone());
    }
    let expected = simulate(&embedded);
    let actual = simulate(&routed.circuit);
    // Undo the layout: occupied physical p carries logical `logical(p)`;
    // unoccupied physicals (still |0⟩) fill the remaining slots in order.
    let mut perm = vec![0usize; m];
    let mut next_free = n;
    for (p, slot) in perm.iter_mut().enumerate() {
        *slot = match routed.final_layout.logical(p) {
            Some(q) => q,
            None => {
                let t = next_free;
                next_free += 1;
                t
            }
        };
    }
    let aligned = actual.permute_qubits(&perm);
    let fidelity = expected.fidelity(&aligned);
    if fidelity > 1.0 - 1e-9 {
        Verdict::Equivalent
    } else {
        Verdict::NotEquivalent(format!(
            "statevector fidelity {fidelity} after undoing the final layout"
        ))
    }
}

/// Pauli spot checks for large non-Clifford circuits.
///
/// For a logical Pauli `P`, `U_routed · E_i(P) · U_routed†` must equal
/// `E_f(U · P · U†)` where `E_i`/`E_f` embed at the initial/final layout.
/// Samples `Z_q` and `X_q` probes on evenly spread logical qubits.
fn pauli_spot_checks(source: &Circuit, routed: &RoutedCircuit, final_phys: &[usize]) -> Verdict {
    let n = source.num_qubits();
    let m = routed.circuit.num_qubits();
    let initial_phys: Vec<usize> = (0..n).map(|q| routed.initial_layout.physical(q)).collect();
    let samples = PAULI_SPOT_SAMPLES.min(n);
    let mut checked = 0usize;
    let mut obstructed = 0usize;
    for s in 0..samples {
        let q = s * n / samples;
        for probe in [PauliString::z, PauliString::x] {
            // Push the logical probe through the source circuit.
            let mut logical = probe(n, q);
            if logical.apply_circuit(source).is_err() {
                obstructed += 1;
                continue;
            }
            // Push its initial-layout embedding through the routed circuit.
            let mut physical = probe(n, q).embed(&initial_phys, m);
            if physical.apply_circuit(&routed.circuit).is_err() {
                obstructed += 1;
                continue;
            }
            let expected = logical.embed(final_phys, m);
            if physical != expected {
                return Verdict::NotEquivalent(format!(
                    "Pauli probe on logical qubit {q} propagates differently through the \
                     source and routed circuits"
                ));
            }
            checked += 1;
        }
    }
    if checked == 0 {
        Verdict::Inconclusive(format!(
            "all {obstructed} Pauli probes were obstructed by non-Clifford gates"
        ))
    } else {
        Verdict::Inconclusive(format!(
            "{checked} Pauli spot checks passed ({obstructed} obstructed); \
             necessary condition only, not a proof"
        ))
    }
}
