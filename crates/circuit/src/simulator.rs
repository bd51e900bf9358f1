//! A dense statevector simulator with pair/quad-walking kernels.
//!
//! The co-design study itself only needs structural circuit metrics, but a
//! simulator makes the rest of the stack testable: workload generators are
//! checked against known output states and the router's correctness is
//! verified by comparing statevectors before and after SWAP insertion (up to
//! the tracked qubit permutation). States up to [`MAX_DENSE_QUBITS`] qubits
//! are supported; beyond that the stabilizer tableau engine in `snailqc-sim`
//! takes over for Clifford circuits.
//!
//! # Engine design
//!
//! Every kernel is safe Rust and goes through one of two walkers, which
//! visit only the amplitudes a gate touches instead of scanning all `2^n`
//! indices and skipping the 1/2 (or 3/4) that are not run bases:
//!
//! * the **pair walker** splits the state into `2·bit` chunks and each chunk
//!   into its `bit`-long low and high halves, so a single-qubit gate zips
//!   two contiguous runs;
//! * the **quad walker** gathers the four indices `(base, base|b1, base|b0,
//!   base|b0|b1)` of every two-qubit quad, in the row order of the 4×4
//!   matrix whichever operand mask is larger.
//!
//! Each kernel keeps the per-amplitude operation order of the full-scan
//! kernels preserved in [`mod@reference`], so its output is **bitwise
//! identical** to theirs.
//!
//! Diagonal and permutation gates (Z/S/Rz/CZ/CX/SWAP/…) dispatch to
//! specialized kernels that skip the generic matmul. To stay bitwise
//! faithful the 1Q kernels emulate the `0·a` and `1·a` terms of the full
//! matmul ([`zero-sign emulation`](self#zero-sign-emulation)) instead of
//! dropping them; the 2Q kernels need no emulation.
//!
//! # Zero-sign emulation
//!
//! IEEE-754 keeps signed zeros: `0.0 * x` has the sign of `x`, and
//! `(+0.0) + (-0.0) = +0.0`. The old kernels multiplied through exact-zero
//! matrix entries, so their outputs carry zero signs derived from *skipped*
//! amplitudes. The 1Q kernels, whose chains start at the first product,
//! reproduce those signs with cheap sign-bit arithmetic
//! (`zero_mul`/`one_mul`) under the assumption that all amplitudes are
//! finite — which holds for any unitary circuit acting on a normalized
//! state. The 2Q chains start at `ZERO` (+0), and adding ±0 to +0 or to a
//! nonzero value changes nothing, while `+0 + x` already maps a zero `x`
//! of either sign to +0. So every `0·a` term and every `1·` wrapper in a
//! 2Q chain is a no-op, and each output is `ZERO + d[k]·a[k]` (diagonal)
//! or `ZERO + a[j]` (permutation).

use crate::circuit::Circuit;
use crate::gate::Gate;
use snailqc_math::complex::{C64, ONE, ZERO};
use snailqc_math::{Matrix2, Matrix4};
use snailqc_obs as obs;

/// Hard cap on the dense statevector size (`2^28` amplitudes = 4 GiB).
///
/// Anything larger must go through the `snailqc-sim` stabilizer engine
/// (Clifford circuits only).
pub const MAX_DENSE_QUBITS: usize = 28;

/// A dense complex statevector over `n` qubits.
///
/// Qubit 0 is the most significant bit of the basis-state index, matching the
/// `|q0 q1 …⟩` labelling used by [`snailqc_math::gates`].
#[derive(Debug, Clone)]
pub struct StateVector {
    num_qubits: usize,
    amplitudes: Vec<C64>,
}

impl StateVector {
    /// The all-zeros computational basis state `|0…0⟩`.
    pub fn zero_state(num_qubits: usize) -> Self {
        assert!(
            num_qubits <= MAX_DENSE_QUBITS,
            "statevector simulator limited to MAX_DENSE_QUBITS = {MAX_DENSE_QUBITS} qubits \
             (requested {num_qubits}); use the snailqc-sim stabilizer engine for larger \
             Clifford circuits"
        );
        let mut amplitudes = vec![ZERO; 1 << num_qubits];
        amplitudes[0] = ONE;
        Self {
            num_qubits,
            amplitudes,
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The amplitude vector in computational-basis order.
    pub fn amplitudes(&self) -> &[C64] {
        &self.amplitudes
    }

    /// The probability of measuring basis state `index`.
    pub fn probability(&self, index: usize) -> f64 {
        self.amplitudes[index].norm_sqr()
    }

    /// `|⟨self|other⟩|²`.
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        assert_eq!(self.num_qubits, other.num_qubits);
        let overlap: C64 = self
            .amplitudes
            .iter()
            .zip(other.amplitudes.iter())
            .map(|(a, b)| a.conj() * *b)
            .sum();
        overlap.norm_sqr()
    }

    fn bit_position(&self, qubit: usize) -> usize {
        self.num_qubits - 1 - qubit
    }

    /// Applies a single-qubit unitary to `qubit`.
    pub fn apply_1q(&mut self, m: &Matrix2, qubit: usize) {
        assert!(qubit < self.num_qubits);
        let bit = 1usize << self.bit_position(qubit);
        let m = [m[(0, 0)], m[(0, 1)], m[(1, 0)], m[(1, 1)]];
        kernels::generic_1q(&mut self.amplitudes, bit, &m);
    }

    /// Applies a two-qubit unitary to `(q0, q1)` where `q0` is the most
    /// significant operand of the 4×4 matrix.
    pub fn apply_2q(&mut self, m: &Matrix4, q0: usize, q1: usize) {
        let (b0, b1) = self.two_qubit_masks(&[q0, q1]);
        let mut flat = [ZERO; 16];
        for r in 0..4 {
            for c in 0..4 {
                flat[4 * r + c] = m[(r, c)];
            }
        }
        kernels::generic_2q(&mut self.amplitudes, b0, b1, &flat);
    }

    /// Applies a single gate, dispatching diagonal/permutation gates to
    /// their specialized kernels and everything else to the generic
    /// matrix kernels.
    pub fn apply_gate(&mut self, gate: &Gate, qubits: &[usize]) {
        match gate {
            // Diagonal single-qubit gates: diag(d0, d1).
            Gate::I
            | Gate::Z
            | Gate::S
            | Gate::Sdg
            | Gate::T
            | Gate::Tdg
            | Gate::RZ(_)
            | Gate::P(_) => {
                let m = gate.matrix2().expect("1q matrix");
                assert!(qubits[0] < self.num_qubits);
                let bit = 1usize << self.bit_position(qubits[0]);
                kernels::diag_1q(&mut self.amplitudes, bit, m[(0, 0)], m[(1, 1)]);
            }
            // Pauli X: pure bit-flip permutation.
            Gate::X => {
                assert!(qubits[0] < self.num_qubits);
                let bit = 1usize << self.bit_position(qubits[0]);
                kernels::perm_x(&mut self.amplitudes, bit);
            }
            // Diagonal two-qubit gates: diag(d0, d1, d2, d3).
            Gate::CZ | Gate::CPhase(_) | Gate::RZZ(_) => {
                let m = gate.matrix4().expect("2q matrix");
                let (b0, b1) = self.two_qubit_masks(qubits);
                let d = [m[(0, 0)], m[(1, 1)], m[(2, 2)], m[(3, 3)]];
                kernels::diag_2q(&mut self.amplitudes, b0, b1, &d);
            }
            Gate::CX => {
                let (b0, b1) = self.two_qubit_masks(qubits);
                kernels::perm_cx(&mut self.amplitudes, b0, b1);
            }
            Gate::Swap => {
                let (b0, b1) = self.two_qubit_masks(qubits);
                kernels::perm_swap(&mut self.amplitudes, b0, b1);
            }
            _ => match gate.num_qubits() {
                1 => {
                    let m = gate.matrix2().expect("1q matrix");
                    self.apply_1q(&m, qubits[0]);
                }
                2 => {
                    let m = gate.matrix4().expect("2q matrix");
                    self.apply_2q(&m, qubits[0], qubits[1]);
                }
                _ => unreachable!("only 1- and 2-qubit gates exist"),
            },
        }
    }

    fn two_qubit_masks(&self, qubits: &[usize]) -> (usize, usize) {
        let (q0, q1) = (qubits[0], qubits[1]);
        assert!(q0 < self.num_qubits && q1 < self.num_qubits && q0 != q1);
        (
            1usize << self.bit_position(q0),
            1usize << self.bit_position(q1),
        )
    }

    /// Applies the circuit's global phase, then every instruction of
    /// `circuit` in order.
    pub fn apply_circuit(&mut self, circuit: &Circuit) {
        assert_eq!(circuit.num_qubits(), self.num_qubits);
        let _span = obs::span("sim.apply");
        obs::counter_add("sim.gates_applied", circuit.len() as u64);
        if circuit.global_phase() != 0.0 {
            let phase = C64::cis(circuit.global_phase());
            for amp in &mut self.amplitudes {
                *amp *= phase;
            }
        }
        for inst in circuit.instructions() {
            self.apply_gate(&inst.gate, &inst.qubits);
        }
    }

    /// Permutes the qubit labels: qubit `q` of the current state becomes
    /// qubit `perm[q]` of the returned state. Used to undo the layout
    /// permutation a router leaves behind.
    pub fn permute_qubits(&self, perm: &[usize]) -> StateVector {
        assert_eq!(perm.len(), self.num_qubits);
        let mut out = StateVector {
            num_qubits: self.num_qubits,
            amplitudes: vec![ZERO; self.amplitudes.len()],
        };
        for (idx, amp) in self.amplitudes.iter().enumerate() {
            let mut new_idx = 0usize;
            for (q, &target) in perm.iter().enumerate() {
                let bit = (idx >> self.bit_position(q)) & 1;
                if bit == 1 {
                    new_idx |= 1 << (self.num_qubits - 1 - target);
                }
            }
            out.amplitudes[new_idx] = *amp;
        }
        out
    }
}

/// Runs `circuit` on `|0…0⟩` and returns the final state.
pub fn simulate(circuit: &Circuit) -> StateVector {
    let mut sv = StateVector::zero_state(circuit.num_qubits());
    sv.apply_circuit(circuit);
    sv
}

/// The pair/quad-walking kernels behind [`StateVector`].
mod kernels {
    use super::*;

    const SIGN: u64 = 1u64 << 63;

    /// Bitwise-identical replacement for `ZERO * a` (finite `a`):
    /// `(0·re − 0·im, 0·im + 0·re)` computed from the operands' sign bits.
    #[inline(always)]
    fn zero_mul(a: C64) -> C64 {
        let sre = a.re.to_bits() & SIGN;
        let sim = a.im.to_bits() & SIGN;
        C64 {
            re: f64::from_bits(sre & !sim),
            im: f64::from_bits(sre & sim),
        }
    }

    /// `0.0 * x` for finite `x`: a zero carrying the sign of `x`.
    #[inline(always)]
    fn zsign(x: f64) -> f64 {
        f64::from_bits(x.to_bits() & SIGN)
    }

    /// Bitwise-identical replacement for `ONE * a` (finite `a`):
    /// `(1·re − 0·im, 1·im + 0·re)`.
    #[inline(always)]
    fn one_mul(a: C64) -> C64 {
        C64 {
            re: a.re - zsign(a.im),
            im: a.im + zsign(a.re),
        }
    }

    /// Walks every pair `(i, i + bit)` with bit `bit` clear in `i` and
    /// applies `f` to its two amplitudes.
    #[inline(always)]
    fn for_each_pair(amps: &mut [C64], bit: usize, mut f: impl FnMut(&mut C64, &mut C64)) {
        for run in amps.chunks_exact_mut(2 * bit) {
            let (lo, hi) = run.split_at_mut(bit);
            for (a0, a1) in lo.iter_mut().zip(hi) {
                f(a0, a1);
            }
        }
    }

    /// Walks every quad `(i0, i1, i2, i3) = (base, base|b1, base|b0,
    /// base|b0|b1)` and applies `f` to its four amplitudes.
    #[inline(always)]
    fn for_each_quad(amps: &mut [C64], b0: usize, b1: usize, mut f: impl FnMut(&mut [C64; 4])) {
        let dim = amps.len();
        let (bh, bl) = (b0.max(b1), b0.min(b1));
        let mut base_h = 0usize;
        while base_h < dim {
            let mut base_m = base_h;
            while base_m < base_h + bh {
                for low in base_m..base_m + bl {
                    let idx = [low, low | b1, low | b0, low | b0 | b1];
                    let mut a = [amps[idx[0]], amps[idx[1]], amps[idx[2]], amps[idx[3]]];
                    f(&mut a);
                    amps[idx[0]] = a[0];
                    amps[idx[1]] = a[1];
                    amps[idx[2]] = a[2];
                    amps[idx[3]] = a[3];
                }
                base_m += 2 * bl;
            }
            base_h += 2 * bh;
        }
    }

    // --- generic kernels ----------------------------------------------------

    /// A 2×2 matrix `m` (row-major) on one qubit.
    pub(super) fn generic_1q(amps: &mut [C64], bit: usize, m: &[C64; 4]) {
        for_each_pair(amps, bit, |p0, p1| {
            let (a0, a1) = (*p0, *p1);
            *p0 = m[0] * a0 + m[1] * a1;
            *p1 = m[2] * a0 + m[3] * a1;
        });
    }

    /// A 4×4 matrix `m` (row-major) on a qubit pair; `b0` is the mask of
    /// the most significant operand.
    pub(super) fn generic_2q(amps: &mut [C64], b0: usize, b1: usize, m: &[C64; 16]) {
        for_each_quad(amps, b0, b1, |a| {
            let mut out = [ZERO; 4];
            for (r, o) in out.iter_mut().enumerate() {
                let mut acc = ZERO;
                for (c, amp) in a.iter().enumerate() {
                    acc += m[4 * r + c] * *amp;
                }
                *o = acc;
            }
            *a = out;
        });
    }

    // --- specialized kernels ------------------------------------------------
    //
    // The 1Q kernels reproduce the generic kernel's accumulation chain with
    // the gate's known-zero/one entries replaced by `zero_mul`/`one_mul`.
    // The 2Q kernels start every chain at `ZERO`, where those terms change
    // no bit, so they keep only the one nonzero term per output. Either
    // way outputs stay bitwise identical while skipping the full complex
    // matmul.

    /// diag(d0, d1) on one qubit.
    pub(super) fn diag_1q(amps: &mut [C64], bit: usize, d0: C64, d1: C64) {
        for_each_pair(amps, bit, |p0, p1| {
            let (a0, a1) = (*p0, *p1);
            *p0 = d0 * a0 + zero_mul(a1);
            *p1 = zero_mul(a0) + d1 * a1;
        });
    }

    /// Pauli X on one qubit (row order of `gates::x()`).
    pub(super) fn perm_x(amps: &mut [C64], bit: usize) {
        for_each_pair(amps, bit, |p0, p1| {
            let (a0, a1) = (*p0, *p1);
            *p0 = zero_mul(a0) + one_mul(a1);
            *p1 = one_mul(a0) + zero_mul(a1);
        });
    }

    /// diag(d0, d1, d2, d3) on a qubit pair. The generic chain adds three
    /// `0·a` terms to `ZERO + d[k]·a[k]`; none changes a bit (see the
    /// module docs), so each output is that one product.
    pub(super) fn diag_2q(amps: &mut [C64], b0: usize, b1: usize, d: &[C64; 4]) {
        let d = *d;
        for_each_quad(amps, b0, b1, |a| {
            *a = [
                ZERO + d[0] * a[0],
                ZERO + d[1] * a[1],
                ZERO + d[2] * a[2],
                ZERO + d[3] * a[3],
            ];
        });
    }

    /// CNOT (row order of `gates::cx()`: control is the `b0` operand). Each
    /// output is `ZERO + a[j]` for the one source amplitude `j` of its row.
    pub(super) fn perm_cx(amps: &mut [C64], b0: usize, b1: usize) {
        for_each_quad(amps, b0, b1, |a| {
            *a = [ZERO + a[0], ZERO + a[1], ZERO + a[3], ZERO + a[2]];
        });
    }

    /// SWAP (row order of `gates::swap()`), as `ZERO + a[j]` per row.
    pub(super) fn perm_swap(amps: &mut [C64], b0: usize, b1: usize) {
        for_each_quad(amps, b0, b1, |a| {
            *a = [ZERO + a[0], ZERO + a[2], ZERO + a[1], ZERO + a[3]];
        });
    }
}

/// The pre-rewrite full-scan kernels, preserved verbatim.
///
/// These scan all `2^n` indices per gate and skip non-base indices, applying
/// the generic matrix product for every gate. They define the bitwise
/// reference semantics the rewritten engine must reproduce exactly
/// (`tests/qv20_reference.rs` and the sim crate's agreement suite check it).
pub mod reference {
    use super::*;

    /// Applies a single-qubit unitary with the pre-rewrite full-scan kernel.
    pub fn apply_1q(sv: &mut StateVector, m: &Matrix2, qubit: usize) {
        assert!(qubit < sv.num_qubits);
        let bit = 1usize << sv.bit_position(qubit);
        let dim = sv.amplitudes.len();
        for idx in 0..dim {
            if idx & bit != 0 {
                continue;
            }
            let i0 = idx;
            let i1 = idx | bit;
            let a0 = sv.amplitudes[i0];
            let a1 = sv.amplitudes[i1];
            sv.amplitudes[i0] = m[(0, 0)] * a0 + m[(0, 1)] * a1;
            sv.amplitudes[i1] = m[(1, 0)] * a0 + m[(1, 1)] * a1;
        }
    }

    /// Applies a two-qubit unitary with the pre-rewrite full-scan kernel.
    pub fn apply_2q(sv: &mut StateVector, m: &Matrix4, q0: usize, q1: usize) {
        assert!(q0 < sv.num_qubits && q1 < sv.num_qubits && q0 != q1);
        let b0 = 1usize << sv.bit_position(q0);
        let b1 = 1usize << sv.bit_position(q1);
        let dim = sv.amplitudes.len();
        for idx in 0..dim {
            if idx & b0 != 0 || idx & b1 != 0 {
                continue;
            }
            let i = [idx, idx | b1, idx | b0, idx | b0 | b1];
            let a = [
                sv.amplitudes[i[0]],
                sv.amplitudes[i[1]],
                sv.amplitudes[i[2]],
                sv.amplitudes[i[3]],
            ];
            for r in 0..4 {
                let mut acc = ZERO;
                for c in 0..4 {
                    acc += m[(r, c)] * a[c];
                }
                sv.amplitudes[i[r]] = acc;
            }
        }
    }

    /// Applies every instruction (then the global phase) with the
    /// pre-rewrite kernels.
    pub fn apply_circuit(sv: &mut StateVector, circuit: &Circuit) {
        assert_eq!(circuit.num_qubits(), sv.num_qubits);
        if circuit.global_phase() != 0.0 {
            let phase = C64::cis(circuit.global_phase());
            for amp in &mut sv.amplitudes {
                *amp *= phase;
            }
        }
        for inst in circuit.instructions() {
            match inst.gate.num_qubits() {
                1 => {
                    let m = inst.gate.matrix2().expect("1q matrix");
                    apply_1q(sv, &m, inst.qubits[0]);
                }
                2 => {
                    let m = inst.gate.matrix4().expect("2q matrix");
                    apply_2q(sv, &m, inst.qubits[0], inst.qubits[1]);
                }
                _ => unreachable!("only 1- and 2-qubit gates exist"),
            }
        }
    }

    /// Runs `circuit` on `|0…0⟩` with the pre-rewrite kernels.
    pub fn simulate(circuit: &Circuit) -> StateVector {
        let mut sv = StateVector::zero_state(circuit.num_qubits());
        apply_circuit(&mut sv, circuit);
        sv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;

    const TOL: f64 = 1e-10;

    fn bitwise_eq(a: &StateVector, b: &StateVector) -> bool {
        a.amplitudes()
            .iter()
            .zip(b.amplitudes().iter())
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
    }

    /// Sum of all probabilities (1 for a normalized state).
    fn total_probability(sv: &StateVector) -> f64 {
        sv.amplitudes().iter().map(|a| a.norm_sqr()).sum()
    }

    #[test]
    fn global_phase_multiplies_every_amplitude() {
        let mut c = Circuit::new(1);
        c.h(0);
        c.add_global_phase(std::f64::consts::FRAC_PI_2);
        let sv = simulate(&c);
        // e^{iπ/2}·(1/√2) = i/√2 on both amplitudes.
        for idx in 0..2 {
            let amp = sv.amplitudes()[idx];
            assert!(amp.re.abs() < TOL, "amp[{idx}] = {amp:?}");
            assert!((amp.im - std::f64::consts::FRAC_1_SQRT_2).abs() < TOL);
        }
        // Probabilities (and fidelity against the unphased circuit) are
        // unchanged: the phase is unobservable.
        let mut plain = Circuit::new(1);
        plain.h(0);
        assert!((sv.fidelity(&simulate(&plain)) - 1.0).abs() < TOL);
    }

    #[test]
    fn zero_state_is_normalized() {
        let sv = StateVector::zero_state(3);
        assert!((total_probability(&sv) - 1.0).abs() < TOL);
        assert!((sv.probability(0) - 1.0).abs() < TOL);
    }

    #[test]
    fn x_flips_the_addressed_qubit() {
        // X on qubit 0 of |00⟩ gives |10⟩ = index 2.
        let mut c = Circuit::new(2);
        c.x(0);
        let sv = simulate(&c);
        assert!((sv.probability(0b10) - 1.0).abs() < TOL);

        let mut c = Circuit::new(2);
        c.x(1);
        let sv = simulate(&c);
        assert!((sv.probability(0b01) - 1.0).abs() < TOL);
    }

    #[test]
    fn bell_state_from_h_cx() {
        let mut c = Circuit::new(2);
        c.h(0);
        c.cx(0, 1);
        let sv = simulate(&c);
        assert!((sv.probability(0b00) - 0.5).abs() < TOL);
        assert!((sv.probability(0b11) - 0.5).abs() < TOL);
        assert!(sv.probability(0b01) < TOL);
        assert!(sv.probability(0b10) < TOL);
    }

    #[test]
    fn ghz_state_probabilities() {
        let n = 5;
        let mut c = Circuit::new(n);
        c.h(0);
        for i in 0..n - 1 {
            c.cx(i, i + 1);
        }
        let sv = simulate(&c);
        assert!((sv.probability(0) - 0.5).abs() < TOL);
        assert!((sv.probability((1 << n) - 1) - 0.5).abs() < TOL);
    }

    #[test]
    fn swap_gate_exchanges_qubits() {
        let mut c = Circuit::new(2);
        c.x(0);
        c.swap(0, 1);
        let sv = simulate(&c);
        assert!((sv.probability(0b01) - 1.0).abs() < TOL);
    }

    #[test]
    fn circuit_equals_its_unitary_action() {
        // CX(0,1) applied via apply_2q vs via Gate matrix on a superposition.
        let mut c = Circuit::new(2);
        c.h(0);
        c.h(1);
        c.push(Gate::CZ, &[0, 1]);
        let sv = simulate(&c);
        assert!((total_probability(&sv) - 1.0).abs() < TOL);
        // All four basis states have probability 1/4 (CZ only adds phases).
        for idx in 0..4 {
            assert!((sv.probability(idx) - 0.25).abs() < TOL);
        }
    }

    #[test]
    fn unitarity_is_preserved_through_random_circuit() {
        let mut c = Circuit::new(4);
        c.h(0);
        c.cx(0, 1);
        c.push(Gate::SqrtISwap, &[1, 2]);
        c.push(Gate::Syc, &[2, 3]);
        c.rz(0.7, 3);
        c.push(Gate::RZZ(0.3), &[0, 3]);
        let sv = simulate(&c);
        assert!((total_probability(&sv) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn inverse_circuit_returns_to_zero() {
        let mut c = Circuit::new(3);
        c.h(0);
        c.cx(0, 1);
        c.push(Gate::SqrtISwap, &[1, 2]);
        c.rz(0.9, 2);
        let mut sv = simulate(&c);
        sv.apply_circuit(&c.inverse());
        assert!((sv.probability(0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn permute_qubits_relabels_state() {
        // |10⟩ with permutation q0→q1, q1→q0 becomes |01⟩.
        let mut c = Circuit::new(2);
        c.x(0);
        let sv = simulate(&c);
        let permuted = sv.permute_qubits(&[1, 0]);
        assert!((permuted.probability(0b01) - 1.0).abs() < TOL);
    }

    #[test]
    fn fidelity_of_identical_states_is_one() {
        let mut c = Circuit::new(3);
        c.h(0);
        c.cx(0, 1);
        c.cx(1, 2);
        let a = simulate(&c);
        let b = simulate(&c);
        assert!((a.fidelity(&b) - 1.0).abs() < TOL);
    }

    #[test]
    fn fidelity_of_orthogonal_states_is_zero() {
        let zero = StateVector::zero_state(2);
        let mut c = Circuit::new(2);
        c.x(0);
        let one = simulate(&c);
        assert!(zero.fidelity(&one) < TOL);
    }

    #[test]
    fn swap_equivalence_with_permutation() {
        // Applying SWAP(0,1) is the same as relabelling the qubits.
        let mut base = Circuit::new(3);
        base.h(0);
        base.cx(0, 2);
        base.rz(0.4, 2);
        let mut swapped = base.clone();
        swapped.swap(0, 1);
        let sv_swapped = simulate(&swapped);
        let sv_base = simulate(&base);
        let undone = sv_swapped.permute_qubits(&[1, 0, 2]);
        assert!((sv_base.fidelity(&undone) - 1.0).abs() < 1e-9);
    }

    /// A gate zoo that exercises every dispatch arm in both operand orders:
    /// the diagonal and permutation kernels, generic 1q, and generic 2q at
    /// every qubit position, so both walkers see runs from length 1 up to
    /// `2^(n-2)` and longer. The pass runs once on the starting state,
    /// whose exact signed zeros only the zero-sign emulation keeps
    /// faithful, then again on a dense superposition.
    fn kernel_zoo(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        zoo_pass(&mut c);
        for q in 0..n {
            c.h(q);
        }
        zoo_pass(&mut c);
        c.push(Gate::Syc, &[0, n - 1]);
        c.push(Gate::Syc, &[n - 1, 0]);
        c.push(Gate::CPhase(0.9), &[n - 1, 0]);
        c
    }

    fn zoo_pass(c: &mut Circuit) {
        let n = c.num_qubits();
        // Diagonal and permutation gates first, which keep the zeros of a
        // sparse state for the next one to meet.
        for q in 0..n {
            c.push(Gate::X, &[q]);
            c.push(Gate::I, &[q]);
            c.push(Gate::Z, &[q]);
            c.push(Gate::S, &[q]);
            c.push(Gate::Sdg, &[q]);
            c.push(Gate::T, &[q]);
            c.push(Gate::Tdg, &[q]);
            c.push(Gate::P(1.1 + q as f64), &[q]);
            c.push(Gate::RZ(0.3 + q as f64), &[q]);
        }
        for q in 0..n - 1 {
            let a = q as f64;
            c.cx(q, q + 1);
            c.cx(q + 1, q);
            c.push(Gate::CZ, &[q + 1, q]);
            c.push(Gate::CZ, &[q, q + 1]);
            c.push(Gate::CPhase(0.4 + a), &[q, q + 1]);
            c.push(Gate::CPhase(0.6 + a), &[q + 1, q]);
            c.push(Gate::RZZ(0.5 + a), &[q, q + 1]);
            c.push(Gate::RZZ(0.2 + a), &[q + 1, q]);
            c.swap(q, q + 1);
            c.swap(q + 1, q);
        }
        // Then the generic kernels, which mix amplitudes.
        for q in 0..n {
            c.push(Gate::RY(0.7 * (q + 1) as f64), &[q]);
        }
        for q in 0..n - 1 {
            let a = q as f64;
            c.push(Gate::SqrtISwap, &[q, q + 1]);
            c.push(Gate::Fsim(0.3 + a, 0.8), &[q + 1, q]);
            // A matrix with no zero entry, so every accumulation step counts.
            let ry = Gate::RY(0.3 + a).matrix2().expect("1q matrix");
            let rx = Gate::RX(0.9).matrix2().expect("1q matrix");
            c.push(Gate::Unitary2(ry.kron(&rx)), &[q, q + 1]);
            c.push(Gate::Unitary2(rx.kron(&ry)), &[q + 1, q]);
        }
    }

    /// A state whose amplitudes mix `±0` and `±1` in both parts in a
    /// scrambled pattern, so the zero-sign emulation meets every sign case.
    /// It is not normalized; the kernels only need finite amplitudes.
    fn signed_zero_state(n: usize) -> StateVector {
        let parts = [0.0, -0.0, 1.0, -1.0];
        let mut x = 0x9e37_79b9_u32;
        let mut part = || {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            parts[(x % 4) as usize]
        };
        StateVector {
            num_qubits: n,
            amplitudes: (0..1 << n).map(|_| C64::new(part(), part())).collect(),
        }
    }

    /// Compares the states after every gate, from `|0…0⟩` and from a state
    /// full of signed zeros, so sparse states are checked before later
    /// gates wash their zeros out.
    #[test]
    fn new_engine_matches_reference_bitwise() {
        for n in 2..=8 {
            for start in [StateVector::zero_state(n), signed_zero_state(n)] {
                let mut new = start.clone();
                let mut old = start;
                for (i, inst) in kernel_zoo(n).instructions().iter().enumerate() {
                    new.apply_gate(&inst.gate, &inst.qubits);
                    let mut step = Circuit::new(n);
                    step.push_instruction(inst.clone());
                    reference::apply_circuit(&mut old, &step);
                    assert!(
                        bitwise_eq(&new, &old),
                        "mismatch at n = {n} after gate {i}: {} on {:?}",
                        inst.gate.name(),
                        inst.qubits
                    );
                }
            }
        }
    }

    #[test]
    fn dense_cap_is_documented_constant() {
        assert_eq!(MAX_DENSE_QUBITS, 28);
        // Constructing at the cap would allocate 4 GiB; just check the
        // guard fires above it.
        let result = std::panic::catch_unwind(|| StateVector::zero_state(MAX_DENSE_QUBITS + 1));
        assert!(result.is_err());
    }
}
