//! Helpers shared by the `engine_agreement` suite and the root `oracles`
//! suite (which pulls this file in with `#[path]`): bitwise statevector
//! comparison, the stabilizer-row check against a dense state, and the
//! random mixed-circuit generator that reaches every dense kernel class.

#![allow(dead_code)]

use snailqc_circuit::{Circuit, Gate, StateVector};
use snailqc_math::complex::C64;

pub fn bitwise_eq(a: &StateVector, b: &StateVector) -> bool {
    a.amplitudes()
        .iter()
        .zip(b.amplitudes().iter())
        .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

/// Applies the Pauli string of canonical row `row` to `state` and checks
/// `P|ψ⟩ = (−1)^sign |ψ⟩` within `tol`.
pub fn row_stabilizes(
    row_src: &snailqc_sim::CanonicalForm,
    row: usize,
    state: &StateVector,
    tol: f64,
) -> bool {
    let n = row_src.num_qubits();
    let bitpos = |q: usize| n - 1 - q;
    // X-flip mask and per-index phase of the Pauli string.
    let mut xflip = 0usize;
    for q in 0..n {
        if row_src.x_bit(row, q) {
            xflip |= 1 << bitpos(q);
        }
    }
    let amps = state.amplitudes();
    let dim = amps.len();
    let global_sign = if row_src.sign_bit(row) { -1.0 } else { 1.0 };
    for idx in 0..dim {
        // phase accumulated applying P to basis state |idx⟩.
        let mut phase = C64 { re: 1.0, im: 0.0 };
        for q in 0..n {
            let bit = (idx >> bitpos(q)) & 1;
            match (row_src.x_bit(row, q), row_src.z_bit(row, q)) {
                (false, false) | (true, false) => {}
                (false, true) => {
                    if bit == 1 {
                        phase *= C64 { re: -1.0, im: 0.0 };
                    }
                }
                (true, true) => {
                    // Y = iXZ: |0⟩ → i|1⟩, |1⟩ → −i|0⟩.
                    phase *= if bit == 0 {
                        C64 { re: 0.0, im: 1.0 }
                    } else {
                        C64 { re: 0.0, im: -1.0 }
                    };
                }
            }
        }
        let out = phase * amps[idx];
        let expect = amps[idx ^ xflip];
        let diff_re = out.re - global_sign * expect.re;
        let diff_im = out.im - global_sign * expect.im;
        if diff_re.abs() > tol || diff_im.abs() > tol {
            return false;
        }
    }
    true
}

/// Random mixed circuit drawing from every kernel class: specialized
/// diagonal/permutation, generic 1q, generic 2q (including Haar blocks).
pub fn mixed_circuit(n: usize, gates: usize, seed: u64) -> Circuit {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    for _ in 0..gates {
        let q = rng.gen_range(0..n);
        let mut p = rng.gen_range(0..n);
        if p == q {
            p = (q + 1) % n;
        }
        let theta: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
        match rng.gen_range(0..12) {
            0 => c.h(q),
            1 => c.push(Gate::T, &[q]),
            2 => c.rz(theta, q),
            3 => c.push(Gate::X, &[q]),
            4 => c.push(Gate::RY(theta), &[q]),
            5 => c.cx(q, p),
            6 => c.push(Gate::CZ, &[q, p]),
            7 => c.push(Gate::RZZ(theta), &[q, p]),
            8 => c.swap(q, p),
            9 => c.push(Gate::SqrtISwap, &[q, p]),
            10 => c.push(Gate::CPhase(theta), &[q, p]),
            _ => c.push(
                Gate::Unitary2(snailqc_math::random::haar_unitary4(&mut rng)),
                &[q, p],
            ),
        }
    }
    c
}
