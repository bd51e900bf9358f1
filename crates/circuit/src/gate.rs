//! The gate set understood by the circuit IR.
//!
//! The enum covers every gate emitted by the workload generators and every
//! native hardware basis gate studied in the paper (CNOT/CR, FSIM/SYC,
//! `ⁿ√iSWAP`), plus an arbitrary-unitary variant used by Quantum Volume
//! circuits and by basis translation.

use snailqc_math::gates as mat;
use snailqc_math::{Matrix2, Matrix4};

/// A quantum gate acting on one or two qubits.
#[derive(Debug, Clone, PartialEq)]
pub enum Gate {
    // --- single-qubit gates -------------------------------------------------
    /// Identity.
    I,
    /// Pauli X.
    X,
    /// Pauli Y.
    Y,
    /// Pauli Z.
    Z,
    /// Hadamard.
    H,
    /// Phase gate S.
    S,
    /// Inverse phase gate S†.
    Sdg,
    /// T gate.
    T,
    /// T† gate.
    Tdg,
    /// √X gate.
    SX,
    /// X rotation by the given angle.
    RX(f64),
    /// Y rotation by the given angle.
    RY(f64),
    /// Z rotation by the given angle.
    RZ(f64),
    /// Phase gate P(λ).
    P(f64),
    /// General single-qubit gate U3(θ, φ, λ).
    U3(f64, f64, f64),
    /// An arbitrary single-qubit unitary.
    Unitary1(Matrix2),

    // --- two-qubit gates ----------------------------------------------------
    /// CNOT; first operand is the control.
    CX,
    /// Controlled-Z.
    CZ,
    /// Controlled-phase CP(λ).
    CPhase(f64),
    /// SWAP gate (data movement, paper §2.4.3).
    Swap,
    /// Full iSWAP.
    ISwap,
    /// √iSWAP — the SNAIL's preferred basis gate.
    SqrtISwap,
    /// Fractional iSWAP power: `ISwapPow(t)` = `iSWAP^t`; `t = 1/n` is `ⁿ√iSWAP`.
    ISwapPow(f64),
    /// FSIM(θ, φ) (paper Eq. 6).
    Fsim(f64, f64),
    /// The Sycamore gate FSIM(π/2, π/6).
    Syc,
    /// Cross-resonance interaction ZX(θ) (paper Eq. 4).
    ZXInteraction(f64),
    /// ZZ rotation exp(-iθ Z⊗Z / 2).
    RZZ(f64),
    /// XX rotation exp(-iθ X⊗X / 2).
    RXX(f64),
    /// YY rotation exp(-iθ Y⊗Y / 2).
    RYY(f64),
    /// The canonical Weyl-chamber gate CAN(c1, c2, c3).
    Canonical(f64, f64, f64),
    /// An arbitrary two-qubit unitary (e.g. a Haar-random QV block).
    Unitary2(Matrix4),
}

impl Gate {
    /// Number of qubits the gate acts on (1 or 2).
    pub fn num_qubits(&self) -> usize {
        match self {
            Gate::I
            | Gate::X
            | Gate::Y
            | Gate::Z
            | Gate::H
            | Gate::S
            | Gate::Sdg
            | Gate::T
            | Gate::Tdg
            | Gate::SX
            | Gate::RX(_)
            | Gate::RY(_)
            | Gate::RZ(_)
            | Gate::P(_)
            | Gate::U3(..)
            | Gate::Unitary1(_) => 1,
            _ => 2,
        }
    }

    /// True for two-qubit gates.
    pub fn is_two_qubit(&self) -> bool {
        self.num_qubits() == 2
    }

    /// True for the explicit SWAP gate.
    pub fn is_swap(&self) -> bool {
        matches!(self, Gate::Swap)
    }

    /// A short lowercase mnemonic, stable across runs (used for op counting).
    pub fn name(&self) -> &'static str {
        match self {
            Gate::I => "id",
            Gate::X => "x",
            Gate::Y => "y",
            Gate::Z => "z",
            Gate::H => "h",
            Gate::S => "s",
            Gate::Sdg => "sdg",
            Gate::T => "t",
            Gate::Tdg => "tdg",
            Gate::SX => "sx",
            Gate::RX(_) => "rx",
            Gate::RY(_) => "ry",
            Gate::RZ(_) => "rz",
            Gate::P(_) => "p",
            Gate::U3(..) => "u3",
            Gate::Unitary1(_) => "unitary1",
            Gate::CX => "cx",
            Gate::CZ => "cz",
            Gate::CPhase(_) => "cp",
            Gate::Swap => "swap",
            Gate::ISwap => "iswap",
            Gate::SqrtISwap => "siswap",
            Gate::ISwapPow(_) => "iswap_pow",
            Gate::Fsim(..) => "fsim",
            Gate::Syc => "syc",
            Gate::ZXInteraction(_) => "zx",
            Gate::RZZ(_) => "rzz",
            Gate::RXX(_) => "rxx",
            Gate::RYY(_) => "ryy",
            Gate::Canonical(..) => "can",
            Gate::Unitary2(_) => "unitary2",
        }
    }

    /// The 2×2 unitary of a single-qubit gate, or `None` for two-qubit gates.
    pub fn matrix2(&self) -> Option<Matrix2> {
        Some(match self {
            Gate::I => Matrix2::identity(),
            Gate::X => mat::x(),
            Gate::Y => mat::y(),
            Gate::Z => mat::z(),
            Gate::H => mat::h(),
            Gate::S => mat::s(),
            Gate::Sdg => mat::sdg(),
            Gate::T => mat::t(),
            Gate::Tdg => mat::tdg(),
            Gate::SX => mat::sx(),
            Gate::RX(t) => mat::rx(*t),
            Gate::RY(t) => mat::ry(*t),
            Gate::RZ(t) => mat::rz(*t),
            Gate::P(l) => mat::p(*l),
            Gate::U3(t, p, l) => mat::u3(*t, *p, *l),
            Gate::Unitary1(m) => *m,
            _ => return None,
        })
    }

    /// The 4×4 unitary of a two-qubit gate, or `None` for single-qubit gates.
    pub fn matrix4(&self) -> Option<Matrix4> {
        Some(match self {
            Gate::CX => mat::cx(),
            Gate::CZ => mat::cz(),
            Gate::CPhase(l) => mat::cphase(*l),
            Gate::Swap => mat::swap(),
            Gate::ISwap => mat::iswap(),
            Gate::SqrtISwap => mat::sqrt_iswap(),
            Gate::ISwapPow(t) => mat::iswap_pow(*t),
            Gate::Fsim(t, p) => mat::fsim(*t, *p),
            Gate::Syc => mat::syc(),
            Gate::ZXInteraction(t) => mat::zx(*t),
            Gate::RZZ(t) => mat::rzz(*t),
            Gate::RXX(t) => mat::rxx(*t),
            Gate::RYY(t) => mat::ryy(*t),
            Gate::Canonical(a, b, c) => mat::canonical(*a, *b, *c),
            Gate::Unitary2(m) => *m,
            _ => return None,
        })
    }

    /// The inverse gate.
    pub fn inverse(&self) -> Gate {
        match self {
            Gate::S => Gate::Sdg,
            Gate::Sdg => Gate::S,
            Gate::T => Gate::Tdg,
            Gate::Tdg => Gate::T,
            Gate::SX => Gate::Unitary1(mat::sx().adjoint()),
            Gate::RX(t) => Gate::RX(-t),
            Gate::RY(t) => Gate::RY(-t),
            Gate::RZ(t) => Gate::RZ(-t),
            Gate::P(l) => Gate::P(-l),
            Gate::U3(..) | Gate::Unitary1(_) => {
                Gate::Unitary1(self.matrix2().expect("1q gate").adjoint())
            }
            Gate::CPhase(l) => Gate::CPhase(-l),
            Gate::ISwap
            | Gate::SqrtISwap
            | Gate::ISwapPow(_)
            | Gate::Fsim(..)
            | Gate::Syc
            | Gate::ZXInteraction(_)
            | Gate::RZZ(_)
            | Gate::RXX(_)
            | Gate::RYY(_)
            | Gate::Canonical(..)
            | Gate::Unitary2(_) => Gate::Unitary2(self.matrix4().expect("2q gate").adjoint()),
            // Self-inverse gates.
            Gate::I | Gate::X | Gate::Y | Gate::Z | Gate::H | Gate::CX | Gate::CZ | Gate::Swap => {
                self.clone()
            }
        }
    }

    /// True when the gate is a Clifford operation — it maps Pauli operators
    /// to Pauli operators under conjugation, so the stabilizer tableau engine
    /// in `snailqc-sim` can simulate it at kiloqubit scale.
    ///
    /// Parameterised rotations are Clifford exactly at multiples of π/2
    /// (`CPhase` only at multiples of π, `ISwapPow` at integer powers);
    /// angles are classified with [`snailqc_math::angles::half_pi_multiple`]
    /// under [`snailqc_math::angles::ANGLE_TOL`] so QASM-roundtripped π
    /// multiples still count. Gates whose Clifford-ness depends on a matrix
    /// decomposition (`U3`, `Fsim`, `Syc`, `Canonical`, `Unitary1/2`,
    /// `SqrtISwap`) are conservatively reported as non-Clifford.
    pub fn is_clifford(&self) -> bool {
        use snailqc_math::angles::{half_pi_multiple, integer_multiple, pi_multiple, ANGLE_TOL};
        match self {
            Gate::I
            | Gate::X
            | Gate::Y
            | Gate::Z
            | Gate::H
            | Gate::S
            | Gate::Sdg
            | Gate::SX
            | Gate::CX
            | Gate::CZ
            | Gate::Swap
            | Gate::ISwap => true,
            Gate::RX(t) | Gate::RY(t) | Gate::RZ(t) | Gate::P(t) => {
                half_pi_multiple(*t, ANGLE_TOL).is_some()
            }
            Gate::RZZ(t) | Gate::RXX(t) | Gate::RYY(t) | Gate::ZXInteraction(t) => {
                half_pi_multiple(*t, ANGLE_TOL).is_some()
            }
            Gate::CPhase(l) => pi_multiple(*l, ANGLE_TOL).is_some(),
            Gate::ISwapPow(t) => integer_multiple(*t, ANGLE_TOL).is_some(),
            Gate::T
            | Gate::Tdg
            | Gate::U3(..)
            | Gate::Unitary1(_)
            | Gate::SqrtISwap
            | Gate::Fsim(..)
            | Gate::Syc
            | Gate::Canonical(..)
            | Gate::Unitary2(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snailqc_math::Matrix4;

    #[test]
    fn arity_is_consistent_with_matrices() {
        let gates = [
            Gate::X,
            Gate::H,
            Gate::RZ(0.3),
            Gate::U3(0.1, 0.2, 0.3),
            Gate::CX,
            Gate::Swap,
            Gate::SqrtISwap,
            Gate::Syc,
            Gate::RZZ(0.5),
            Gate::Canonical(0.1, 0.05, 0.0),
        ];
        for g in gates {
            if g.num_qubits() == 1 {
                assert!(g.matrix2().is_some(), "{}", g.name());
                assert!(g.matrix4().is_none(), "{}", g.name());
            } else {
                assert!(g.matrix4().is_some(), "{}", g.name());
                assert!(g.matrix2().is_none(), "{}", g.name());
            }
        }
    }

    #[test]
    fn inverses_compose_to_identity() {
        let two_q = [
            Gate::CX,
            Gate::CZ,
            Gate::CPhase(0.4),
            Gate::Swap,
            Gate::ISwap,
            Gate::SqrtISwap,
            Gate::Syc,
            Gate::RZZ(1.3),
            Gate::Canonical(0.3, 0.2, 0.1),
        ];
        for g in two_q {
            let u = g.matrix4().unwrap();
            let v = g.inverse().matrix4().unwrap();
            assert!(
                (u * v).approx_eq(&Matrix4::identity(), 1e-9),
                "{}",
                g.name()
            );
        }
        let one_q = [
            Gate::H,
            Gate::S,
            Gate::T,
            Gate::RX(0.7),
            Gate::U3(0.5, 0.2, 0.9),
        ];
        for g in one_q {
            let u = g.matrix2().unwrap();
            let v = g.inverse().matrix2().unwrap();
            assert!(
                (u * v).approx_eq(&snailqc_math::Matrix2::identity(), 1e-9),
                "{}",
                g.name()
            );
        }
    }

    #[test]
    fn swap_detection() {
        assert!(Gate::Swap.is_swap());
        assert!(!Gate::CX.is_swap());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Gate::CX.name(), "cx");
        assert_eq!(Gate::SqrtISwap.name(), "siswap");
        assert_eq!(Gate::Syc.name(), "syc");
        assert_eq!(Gate::Swap.name(), "swap");
    }
}
