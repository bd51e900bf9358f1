//! # snailqc-workloads
//!
//! Parameterized benchmark circuit generators, matching the workload suite of
//! the paper's evaluation (§5): Quantum Volume, QFT and the CDKM ripple-carry
//! adder (Qiskit circuits), plus the QAOA vanilla proxy, TIM Hamiltonian
//! simulation and GHZ state preparation (SupermarQ circuits). Every generator
//! is a function of the problem size so the paper's size sweeps (4–16 and
//! 8–80 qubits) can be regenerated automatically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adder;
pub mod clifford;
pub mod ghz;
pub mod qaoa;
pub mod qft;
pub mod quantum_volume;
pub mod tim;

pub use adder::cdkm_adder;
pub use clifford::{clifford_ghz, clifford_qv, random_clifford_circuit};
pub use ghz::ghz;
pub use qaoa::qaoa_vanilla;
pub use qft::qft;
pub use quantum_volume::quantum_volume;
pub use tim::tim_hamiltonian;

use snailqc_circuit::Circuit;

/// The benchmark workloads used throughout the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize)]
pub enum Workload {
    /// Quantum Volume model circuits (random SU(4) layers).
    QuantumVolume,
    /// Quantum Fourier Transform.
    Qft,
    /// QAOA "vanilla" proxy: depth-1 QAOA on the fully connected
    /// Sherrington–Kirkpatrick model.
    QaoaVanilla,
    /// Trotterized transverse-field Ising model Hamiltonian simulation.
    TimHamiltonian,
    /// CDKM (Cuccaro) ripple-carry adder.
    Adder,
    /// GHZ state preparation.
    Ghz,
}

impl Workload {
    /// Display label matching the paper's figure column headers.
    pub fn label(&self) -> &'static str {
        match self {
            Workload::QuantumVolume => "Quantum Volume",
            Workload::Qft => "QFT",
            Workload::QaoaVanilla => "QAOA Vanilla",
            Workload::TimHamiltonian => "TIM Hamiltonian",
            Workload::Adder => "Adder",
            Workload::Ghz => "GHZ",
        }
    }

    /// Every workload, in the order the paper's figures present them.
    pub fn all() -> [Workload; 6] {
        [
            Workload::QuantumVolume,
            Workload::Qft,
            Workload::QaoaVanilla,
            Workload::TimHamiltonian,
            Workload::Adder,
            Workload::Ghz,
        ]
    }

    /// The workload identified by a CLI-style name (forgiving about case and
    /// separators): `qv`/`quantum-volume`, `qft`, `qaoa`/`qaoa-vanilla`,
    /// `tim`/`tim-hamiltonian`, `adder`, `ghz`.
    pub fn by_name(name: &str) -> Option<Workload> {
        Some(match snailqc_util::normalize_name(name).as_str() {
            "qv" | "quantumvolume" => Workload::QuantumVolume,
            "qft" => Workload::Qft,
            "qaoa" | "qaoavanilla" => Workload::QaoaVanilla,
            "tim" | "timhamiltonian" => Workload::TimHamiltonian,
            "adder" | "cdkmadder" => Workload::Adder,
            "ghz" => Workload::Ghz,
            _ => return None,
        })
    }

    /// Canonical CLI names of every workload, in figure order.
    pub fn names() -> [&'static str; 6] {
        [
            "quantum-volume",
            "qft",
            "qaoa-vanilla",
            "tim-hamiltonian",
            "adder",
            "ghz",
        ]
    }

    /// Generates the workload circuit and serializes it as OpenQASM 2.0, so
    /// every built-in generator can export its circuits to other toolchains.
    pub fn emit_qasm(&self, num_qubits: usize, seed: u64) -> String {
        snailqc_qasm::emit(&self.generate(num_qubits, seed))
    }

    /// Generates the workload circuit and serializes it as OpenQASM 3.0 —
    /// the v3 twin of [`Workload::emit_qasm`], so every catalog workload is
    /// expressible in both dialects.
    pub fn emit_qasm_v3(&self, num_qubits: usize, seed: u64) -> String {
        snailqc_qasm::emit_v3(&self.generate(num_qubits, seed))
    }

    /// Generates the workload circuit and serializes it in the given QASM
    /// dialect.
    pub fn emit_qasm_versioned(
        &self,
        num_qubits: usize,
        seed: u64,
        version: snailqc_qasm::QasmVersion,
    ) -> String {
        snailqc_qasm::emit_versioned(&self.generate(num_qubits, seed), version)
    }

    /// Generates the workload circuit on (at most) `num_qubits` qubits.
    ///
    /// The adder uses the largest `2a + 2 ≤ num_qubits` register it can fit;
    /// all other workloads use exactly `num_qubits` qubits. `seed` controls
    /// the randomized workloads (Quantum Volume unitaries, QAOA weights) so
    /// sweeps are reproducible.
    pub fn generate(&self, num_qubits: usize, seed: u64) -> Circuit {
        match self {
            Workload::QuantumVolume => quantum_volume(num_qubits, num_qubits, seed),
            Workload::Qft => qft(num_qubits, true),
            Workload::QaoaVanilla => qaoa_vanilla(num_qubits, 1, seed),
            Workload::TimHamiltonian => tim_hamiltonian(num_qubits, 1),
            Workload::Adder => {
                let state_bits = ((num_qubits.max(4) - 2) / 2).max(1);
                cdkm_adder(state_bits)
            }
            Workload::Ghz => ghz(num_qubits),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_workloads_generate_nonempty_circuits() {
        for w in Workload::all() {
            let c = w.generate(8, 7);
            assert!(!c.is_empty(), "{}", w.label());
            assert!(c.num_qubits() <= 8, "{}", w.label());
            assert!(c.two_qubit_count() > 0, "{}", w.label());
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        for w in Workload::all() {
            let a = w.generate(8, 42);
            let b = w.generate(8, 42);
            assert_eq!(a.len(), b.len(), "{}", w.label());
            assert_eq!(
                a.interaction_pairs(),
                b.interaction_pairs(),
                "{}",
                w.label()
            );
        }
    }

    #[test]
    fn labels_match_paper_headers() {
        assert_eq!(Workload::QaoaVanilla.label(), "QAOA Vanilla");
        assert_eq!(Workload::TimHamiltonian.label(), "TIM Hamiltonian");
    }

    #[test]
    fn names_resolve_back_to_workloads() {
        for (name, expected) in Workload::names().iter().zip(Workload::all()) {
            assert_eq!(Workload::by_name(name), Some(expected), "{name}");
        }
        assert_eq!(Workload::by_name("QV"), Some(Workload::QuantumVolume));
        assert_eq!(Workload::by_name("qaoa"), Some(Workload::QaoaVanilla));
        assert_eq!(Workload::by_name("unknown"), None);
    }

    #[test]
    fn every_workload_exports_parseable_qasm_in_both_dialects() {
        for w in Workload::all() {
            for version in [snailqc_qasm::QasmVersion::V2, snailqc_qasm::QasmVersion::V3] {
                let text = w.emit_qasm_versioned(8, 7, version);
                let parsed = snailqc_qasm::parse_any(&text).unwrap_or_else(|e| {
                    panic!(
                        "{} ({version}): emitted QASM failed to parse: {e}",
                        w.label()
                    )
                });
                assert_eq!(parsed.version, version, "{}", w.label());
                let direct = w.generate(8, 7);
                assert_eq!(parsed.circuit, direct, "{} ({version})", w.label());
            }
        }
    }

    #[test]
    fn every_workload_exports_parseable_qasm() {
        for w in Workload::all() {
            let text = w.emit_qasm(8, 7);
            let parsed = snailqc_qasm::parse(&text)
                .unwrap_or_else(|e| panic!("{}: emitted QASM failed to parse: {e}", w.label()));
            let direct = w.generate(8, 7);
            assert_eq!(
                parsed.circuit.num_qubits(),
                direct.num_qubits(),
                "{}",
                w.label()
            );
            assert_eq!(parsed.circuit.len(), direct.len(), "{}", w.label());
            assert_eq!(
                parsed.circuit.interaction_pairs(),
                direct.interaction_pairs(),
                "{}",
                w.label()
            );
        }
    }
}
