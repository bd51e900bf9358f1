//! The circuit container and its cost metrics.
//!
//! [`Circuit`] is an ordered list of [`Instruction`]s over a fixed-size qubit
//! register. Besides construction helpers it provides exactly the metrics the
//! paper's evaluation flow (Fig. 10) collects after each transpilation stage:
//! total gate counts, per-kind counts, and *critical-path* counts (the number
//! of gates of a given kind on the longest dependency chain, the paper's
//! proxy for circuit duration).

use crate::gate::Gate;
use std::collections::BTreeMap;

/// A gate applied to a specific set of qubits.
#[derive(Debug, Clone, PartialEq)]
pub struct Instruction {
    /// The gate being applied.
    pub gate: Gate,
    /// Qubit operands; length matches `gate.num_qubits()`.
    pub qubits: Vec<usize>,
}

impl Instruction {
    /// Creates a new instruction.
    pub fn new(gate: Gate, qubits: Vec<usize>) -> Self {
        debug_assert_eq!(gate.num_qubits(), qubits.len());
        Self { gate, qubits }
    }

    /// True for two-qubit instructions.
    pub fn is_two_qubit(&self) -> bool {
        self.gate.is_two_qubit()
    }
}

/// An ordered quantum circuit over `num_qubits` qubits.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Circuit {
    num_qubits: usize,
    instructions: Vec<Instruction>,
    global_phase: f64,
}

impl Circuit {
    /// Creates an empty circuit on `num_qubits` qubits.
    pub fn new(num_qubits: usize) -> Self {
        Self {
            num_qubits,
            instructions: Vec::new(),
            global_phase: 0.0,
        }
    }

    /// The register size.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Grows the register to `num_qubits` qubits, keeping every instruction.
    ///
    /// # Panics
    /// Panics if `num_qubits` is below the current register size.
    pub fn widen(&mut self, num_qubits: usize) {
        assert!(num_qubits >= self.num_qubits, "a register cannot shrink");
        self.num_qubits = num_qubits;
    }

    /// The accumulated global phase φ: the circuit's unitary carries an
    /// overall factor `e^{iφ}`. Unobservable in any measurement, but tracked
    /// so OpenQASM 3 `gphase` statements round-trip exactly and controlled
    /// versions of phased gates stay well-defined.
    pub fn global_phase(&self) -> f64 {
        self.global_phase
    }

    /// Adds `delta` radians of global phase.
    pub fn add_global_phase(&mut self, delta: f64) {
        self.global_phase += delta;
    }

    /// The instruction list, in program order.
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// True when the circuit has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// Appends a gate on the given qubits.
    ///
    /// # Panics
    /// Panics if an operand is out of range, operands repeat, or the operand
    /// count does not match the gate arity.
    pub fn push(&mut self, gate: Gate, qubits: &[usize]) {
        assert_eq!(
            gate.num_qubits(),
            qubits.len(),
            "gate {} expects {} operand(s), got {}",
            gate.name(),
            gate.num_qubits(),
            qubits.len()
        );
        for &q in qubits {
            assert!(
                q < self.num_qubits,
                "qubit {q} out of range ({} qubits)",
                self.num_qubits
            );
        }
        if qubits.len() == 2 {
            assert_ne!(qubits[0], qubits[1], "two-qubit gate operands must differ");
        }
        self.instructions
            .push(Instruction::new(gate, qubits.to_vec()));
    }

    /// Appends an already-built instruction.
    pub fn push_instruction(&mut self, inst: Instruction) {
        let qubits: Vec<usize> = inst.qubits.clone();
        self.push(inst.gate, &qubits);
    }

    // --- ergonomic builders -------------------------------------------------

    /// Appends a Hadamard.
    pub fn h(&mut self, q: usize) {
        self.push(Gate::H, &[q]);
    }

    /// Appends a Pauli X.
    pub fn x(&mut self, q: usize) {
        self.push(Gate::X, &[q]);
    }

    /// Appends an RZ rotation.
    pub fn rz(&mut self, theta: f64, q: usize) {
        self.push(Gate::RZ(theta), &[q]);
    }

    /// Appends an RX rotation.
    pub fn rx(&mut self, theta: f64, q: usize) {
        self.push(Gate::RX(theta), &[q]);
    }

    /// Appends a CNOT with `control` and `target`.
    pub fn cx(&mut self, control: usize, target: usize) {
        self.push(Gate::CX, &[control, target]);
    }

    /// Appends a controlled-phase gate.
    pub fn cp(&mut self, lambda: f64, control: usize, target: usize) {
        self.push(Gate::CPhase(lambda), &[control, target]);
    }

    /// Appends a SWAP.
    pub fn swap(&mut self, a: usize, b: usize) {
        self.push(Gate::Swap, &[a, b]);
    }

    /// Appends an RZZ interaction.
    pub fn rzz(&mut self, theta: f64, a: usize, b: usize) {
        self.push(Gate::RZZ(theta), &[a, b]);
    }

    /// The inverse circuit (every gate inverted, order reversed).
    pub fn inverse(&self) -> Circuit {
        let mut out = Circuit::new(self.num_qubits);
        out.global_phase = -self.global_phase;
        for inst in self.instructions.iter().rev() {
            out.push(inst.gate.inverse(), &inst.qubits);
        }
        out
    }

    // --- metrics -------------------------------------------------------------

    /// Counts instructions matching a predicate.
    pub fn count_where<F: Fn(&Instruction) -> bool>(&self, pred: F) -> usize {
        self.instructions.iter().filter(|i| pred(i)).count()
    }

    /// Total number of two-qubit gates.
    pub fn two_qubit_count(&self) -> usize {
        self.count_where(|i| i.is_two_qubit())
    }

    /// Total number of explicit SWAP gates.
    pub fn swap_count(&self) -> usize {
        self.count_where(|i| i.gate.is_swap())
    }

    /// True when every instruction is a Clifford gate (see
    /// [`Gate::is_clifford`]), so the circuit is exactly simulable by the
    /// stabilizer tableau engine regardless of qubit count.
    pub fn is_clifford(&self) -> bool {
        self.instructions.iter().all(|i| i.gate.is_clifford())
    }

    /// Gate-name histogram.
    pub fn gate_counts(&self) -> BTreeMap<&'static str, usize> {
        let mut counts = BTreeMap::new();
        for inst in &self.instructions {
            *counts.entry(inst.gate.name()).or_insert(0) += 1;
        }
        counts
    }

    /// Critical-path length counting only instructions for which `weight`
    /// returns a positive value; the result is the maximum, over all
    /// dependency chains, of the summed weights.
    ///
    /// With `weight = |_| 1.0` this is the ordinary circuit depth; with a
    /// filter selecting two-qubit gates it is the paper's "critical path 2Q
    /// count" / pulse-duration proxy.
    pub fn weighted_depth<F: FnMut(&Instruction) -> f64>(&self, mut weight: F) -> f64 {
        let mut level = vec![0.0f64; self.num_qubits];
        for inst in &self.instructions {
            let w = weight(inst);
            let start = inst.qubits.iter().map(|&q| level[q]).fold(0.0f64, f64::max);
            let end = start + w;
            for &q in &inst.qubits {
                level[q] = end;
            }
        }
        level.into_iter().fold(0.0f64, f64::max)
    }

    /// Circuit depth counting every instruction as one time step.
    pub fn depth(&self) -> usize {
        self.weighted_depth(|_| 1.0).round() as usize
    }

    /// Critical-path count of two-qubit gates.
    pub fn two_qubit_depth(&self) -> usize {
        self.weighted_depth(|i| if i.is_two_qubit() { 1.0 } else { 0.0 })
            .round() as usize
    }

    /// Critical-path count of SWAP gates.
    pub fn swap_depth(&self) -> usize {
        self.weighted_depth(|i| if i.gate.is_swap() { 1.0 } else { 0.0 })
            .round() as usize
    }

    /// The multiset of undirected qubit pairs touched by two-qubit gates, as
    /// sorted `(min, max)` tuples in program order. Used by routing tests to
    /// check interaction preservation.
    pub fn interaction_pairs(&self) -> Vec<(usize, usize)> {
        self.instructions
            .iter()
            .filter(|i| i.is_two_qubit())
            .map(|i| {
                let a = i.qubits[0];
                let b = i.qubits[1];
                (a.min(b), a.max(b))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ghz(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        c.h(0);
        for i in 0..n - 1 {
            c.cx(i, i + 1);
        }
        c
    }

    #[test]
    fn push_validates_operands() {
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_rejects_out_of_range() {
        let mut c = Circuit::new(2);
        c.cx(0, 2);
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn push_rejects_duplicate_operands() {
        let mut c = Circuit::new(2);
        c.cx(1, 1);
    }

    #[test]
    fn counts_and_depths_of_ghz() {
        let c = ghz(5);
        assert_eq!(c.two_qubit_count(), 4);
        assert_eq!(c.swap_count(), 0);
        // GHZ chain: H, then 4 serial CNOTs.
        assert_eq!(c.depth(), 5);
        assert_eq!(c.two_qubit_depth(), 4);
    }

    #[test]
    fn parallel_gates_share_a_layer() {
        let mut c = Circuit::new(4);
        c.cx(0, 1);
        c.cx(2, 3); // disjoint: same layer
        c.cx(1, 2); // depends on both
        assert_eq!(c.depth(), 2);
        assert_eq!(c.two_qubit_depth(), 2);
    }

    #[test]
    fn weighted_depth_ignores_zero_weight_gates() {
        let mut c = Circuit::new(2);
        c.h(0);
        c.h(0);
        c.cx(0, 1);
        c.h(1);
        // Only 2Q gates weighted: depth is 1 regardless of 1Q chains.
        assert_eq!(c.two_qubit_depth(), 1);
        assert_eq!(c.depth(), 4);
    }

    #[test]
    fn gate_counts_histogram() {
        let c = ghz(4);
        let counts = c.gate_counts();
        assert_eq!(counts["h"], 1);
        assert_eq!(counts["cx"], 3);
    }

    #[test]
    fn interaction_pairs_are_sorted_tuples() {
        let mut c = Circuit::new(3);
        c.cx(2, 0);
        c.swap(1, 2);
        assert_eq!(c.interaction_pairs(), vec![(0, 2), (1, 2)]);
    }

    #[test]
    fn inverse_reverses_order() {
        let c = ghz(3);
        let inv = c.inverse();
        assert_eq!(inv.len(), 3);
        assert_eq!(inv.instructions()[0].gate.name(), "cx");
        assert_eq!(inv.instructions()[2].gate.name(), "h");
    }

    #[test]
    fn global_phase_accumulates_and_flows_through_transforms() {
        let mut c = ghz(3);
        assert_eq!(c.global_phase(), 0.0);
        c.add_global_phase(0.5);
        c.add_global_phase(-0.2);
        assert!((c.global_phase() - 0.3).abs() < 1e-15);
        assert!((c.inverse().global_phase() + 0.3).abs() < 1e-15);
        // Phase participates in equality: two otherwise-identical circuits
        // with different phases are distinct.
        let mut a = ghz(2);
        let b = ghz(2);
        assert_eq!(a, b);
        a.add_global_phase(0.1);
        assert_ne!(a, b);
    }

    #[test]
    fn swap_depth_counts_only_swaps() {
        let mut c = Circuit::new(3);
        c.cx(0, 1);
        c.swap(1, 2);
        c.swap(0, 1);
        assert_eq!(c.swap_count(), 2);
        assert_eq!(c.swap_depth(), 2);
        assert_eq!(c.two_qubit_depth(), 3);
    }
}
