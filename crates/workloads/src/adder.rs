//! CDKM (Cuccaro–Draper–Kutin–Moulton) ripple-carry adder circuits.
//!
//! The construction mirrors Qiskit's `CDKMRippleCarryAdder`: a chain of MAJ
//! gates computing carries in place, a CNOT writing the carry-out, and a
//! chain of UMA gates uncomputing the carries while writing the sum into the
//! `b` register. Toffolis are expanded into the textbook 6-CNOT network so
//! the emitted circuit contains only 1- and 2-qubit gates, as required by the
//! transpilation flow.

use snailqc_circuit::{Circuit, Gate};

/// Register layout of [`cdkm_adder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdderLayout {
    /// Number of bits per addend.
    pub state_bits: usize,
}

impl AdderLayout {
    /// The carry-in qubit.
    pub fn cin(&self) -> usize {
        0
    }
    /// Qubit holding bit `i` of addend `a` (unchanged by the adder).
    pub fn a(&self, i: usize) -> usize {
        1 + i
    }
    /// Qubit holding bit `i` of addend `b` (receives bit `i` of the sum).
    pub fn b(&self, i: usize) -> usize {
        1 + self.state_bits + i
    }
    /// The carry-out qubit.
    pub fn cout(&self) -> usize {
        1 + 2 * self.state_bits
    }
    /// Total register width: `2 * state_bits + 2`.
    pub fn num_qubits(&self) -> usize {
        2 * self.state_bits + 2
    }
}

/// Appends a Toffoli gate expanded into the standard 6-CNOT network.
pub fn append_toffoli(c: &mut Circuit, ctrl0: usize, ctrl1: usize, target: usize) {
    c.h(target);
    c.cx(ctrl1, target);
    c.push(Gate::Tdg, &[target]);
    c.cx(ctrl0, target);
    c.push(Gate::T, &[target]);
    c.cx(ctrl1, target);
    c.push(Gate::Tdg, &[target]);
    c.cx(ctrl0, target);
    c.push(Gate::T, &[ctrl1]);
    c.push(Gate::T, &[target]);
    c.h(target);
    c.cx(ctrl0, ctrl1);
    c.push(Gate::T, &[ctrl0]);
    c.push(Gate::Tdg, &[ctrl1]);
    c.cx(ctrl0, ctrl1);
}

fn maj(c: &mut Circuit, x: usize, y: usize, z: usize) {
    c.cx(z, y);
    c.cx(z, x);
    append_toffoli(c, x, y, z);
}

fn uma(c: &mut Circuit, x: usize, y: usize, z: usize) {
    append_toffoli(c, x, y, z);
    c.cx(z, x);
    c.cx(x, y);
}

/// Builds an in-place ripple-carry adder over two `state_bits`-bit registers.
///
/// The circuit maps `|cin⟩|a⟩|b⟩|0⟩ ↦ |cin⟩|a⟩|a + b + cin mod 2ⁿ⟩|carry⟩`
/// on the layout described by [`AdderLayout`]. Total width is
/// `2 * state_bits + 2` qubits.
pub fn cdkm_adder(state_bits: usize) -> Circuit {
    assert!(state_bits >= 1, "adder needs at least one state bit");
    let layout = AdderLayout { state_bits };
    let mut c = Circuit::new(layout.num_qubits());

    // Carry chain: MAJ(carry_in_wire, b_i, a_i).
    maj(&mut c, layout.cin(), layout.b(0), layout.a(0));
    for i in 1..state_bits {
        maj(&mut c, layout.a(i - 1), layout.b(i), layout.a(i));
    }
    // Write the carry out.
    c.cx(layout.a(state_bits - 1), layout.cout());
    // Uncompute carries and produce sum bits.
    for i in (1..state_bits).rev() {
        uma(&mut c, layout.a(i - 1), layout.b(i), layout.a(i));
    }
    uma(&mut c, layout.cin(), layout.b(0), layout.a(0));
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use snailqc_circuit::{simulate, Circuit};

    /// Runs the adder on classical inputs and reads back (sum, carry).
    fn run_adder(state_bits: usize, a: usize, b: usize, cin: bool) -> (usize, bool, usize) {
        let layout = AdderLayout { state_bits };
        let mut c = Circuit::new(layout.num_qubits());
        if cin {
            c.x(layout.cin());
        }
        for i in 0..state_bits {
            if (a >> i) & 1 == 1 {
                c.x(layout.a(i));
            }
            if (b >> i) & 1 == 1 {
                c.x(layout.b(i));
            }
        }
        let mut sv = simulate(&c);
        sv.apply_circuit(&cdkm_adder(state_bits));
        // The state stays computational: find the single basis state with
        // probability ~1.
        let mut best = 0;
        let mut best_p = -1.0;
        for idx in 0..sv.amplitudes().len() {
            if sv.probability(idx) > best_p {
                best_p = sv.probability(idx);
                best = idx;
            }
        }
        assert!(best_p > 0.999, "state not classical (p = {best_p})");
        // Decode: qubit q corresponds to bit (n-1-q) of the index.
        let n = layout.num_qubits();
        let bit = |q: usize| (best >> (n - 1 - q)) & 1;
        let mut sum = 0usize;
        for i in 0..state_bits {
            sum |= bit(layout.b(i)) << i;
        }
        let carry = bit(layout.cout()) == 1;
        let mut a_out = 0usize;
        for i in 0..state_bits {
            a_out |= bit(layout.a(i)) << i;
        }
        (sum, carry, a_out)
    }

    #[test]
    fn toffoli_expansion_matches_truth_table() {
        for input in 0..8usize {
            let mut c = Circuit::new(3);
            // Qubit 0 is the MSB of the index; use qubits (0,1) as controls
            // and 2 as target.
            for q in 0..3 {
                if (input >> (2 - q)) & 1 == 1 {
                    c.x(q);
                }
            }
            append_toffoli(&mut c, 0, 1, 2);
            let sv = simulate(&c);
            let controls_set = (input >> 2) & 1 == 1 && (input >> 1) & 1 == 1;
            let expected = if controls_set { input ^ 1 } else { input };
            assert!(
                sv.probability(expected) > 0.999,
                "input {input}: expected {expected}"
            );
        }
    }

    #[test]
    fn one_bit_adder_truth_table() {
        for a in 0..2 {
            for b in 0..2 {
                for cin in [false, true] {
                    let (sum, carry, a_out) = run_adder(1, a, b, cin);
                    let total = a + b + cin as usize;
                    assert_eq!(sum, total % 2, "a={a} b={b} cin={cin}");
                    assert_eq!(carry, total >= 2, "a={a} b={b} cin={cin}");
                    assert_eq!(a_out, a, "addend register must be preserved");
                }
            }
        }
    }

    #[test]
    fn two_bit_adder_exhaustive() {
        for a in 0..4 {
            for b in 0..4 {
                let (sum, carry, a_out) = run_adder(2, a, b, false);
                let total = a + b;
                assert_eq!(sum, total % 4, "a={a} b={b}");
                assert_eq!(carry, total >= 4, "a={a} b={b}");
                assert_eq!(a_out, a);
            }
        }
    }

    #[test]
    fn three_bit_adder_spot_checks() {
        for (a, b) in [(5, 3), (7, 7), (1, 6), (4, 4)] {
            let (sum, carry, _) = run_adder(3, a, b, false);
            assert_eq!(sum, (a + b) % 8, "a={a} b={b}");
            assert_eq!(carry, a + b >= 8, "a={a} b={b}");
        }
    }

    #[test]
    fn register_width_and_counts() {
        let c = cdkm_adder(4);
        assert_eq!(c.num_qubits(), 10);
        // Each MAJ/UMA contributes one Toffoli (6 CX) and 2 CX; plus the
        // carry-out CX: total CX = 8 * (6 + 2) + 1.
        assert_eq!(c.gate_counts()["cx"], 8 * 8 + 1);
        assert_eq!(c.swap_count(), 0);
    }

    #[test]
    fn only_one_and_two_qubit_gates() {
        let c = cdkm_adder(3);
        for inst in c.instructions() {
            assert!(inst.gate.num_qubits() <= 2);
        }
    }
}
