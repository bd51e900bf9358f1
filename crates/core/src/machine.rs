//! Machine configurations: a (topology, basis gate) pair.
//!
//! The paper's thesis is that these two choices must be made together because
//! both are set by the modulator: the CR modulator gives CNOT on sparse
//! heavy-hex lattices, the FSIM coupler gives SYC on square lattices, and the
//! SNAIL gives `√iSWAP` on trees and corrals. A [`Machine`] bundles one such
//! pairing: a topology named in the catalog plus its native basis gate.

use serde::Serialize;
use snailqc_decompose::BasisGate;
use snailqc_topology::{catalog, CouplingGraph};

/// A co-designed machine: a catalog topology paired with its native basis
/// gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct Machine {
    /// Canonical catalog name (one of [`catalog::names`]), e.g. `tree-84`.
    name: &'static str,
    /// Native two-qubit basis gate.
    pub basis: BasisGate,
}

impl Machine {
    /// Pairs the catalog topology `name` (matched as forgivingly as
    /// [`catalog::by_name`]) with `basis`. Errors on unknown names.
    pub fn new(name: &str, basis: BasisGate) -> Result<Self, String> {
        let name = catalog::canonical_name(name).ok_or_else(|| {
            format!(
                "unknown topology `{name}`; available: {}",
                catalog::names().join(", ")
            )
        })?;
        Ok(Self { name, basis })
    }

    /// Builds the machine's coupling graph.
    pub fn graph(&self) -> CouplingGraph {
        catalog::by_name(self.name).expect("machine names are canonical catalog names")
    }

    /// Figure-legend style label, e.g. `Tree-sqrt-iSWAP` or `Heavy-Hex-CX`:
    /// the graph name without its `-<qubits>` suffix, then the basis label.
    pub fn label(&self) -> String {
        let graph = self.graph();
        let family = graph
            .name()
            .rsplit_once('-')
            .map_or(graph.name(), |(family, _)| family);
        format!("{family}-{}", self.basis.label())
    }

    /// The machine line-up of Fig. 13 (16–20 qubit, co-designed comparison):
    /// the IBM and Google baselines, then the SNAIL machines on √iSWAP.
    pub fn figure13_lineup() -> Vec<Self> {
        use BasisGate::{Cnot, SqrtISwap, Syc};
        Self::lineup(&[
            ("heavy-hex-20", Cnot),
            ("square-lattice-16", Syc),
            ("tree-20", SqrtISwap),
            ("tree-rr-20", SqrtISwap),
            ("hypercube-16", SqrtISwap),
            ("corral11-16", SqrtISwap),
            ("corral12-16", SqrtISwap),
        ])
    }

    /// The machine line-up of Fig. 14 (84-qubit scaled comparison). The
    /// paper does not scale the Corrals past 16 qubits; the hypercube stands
    /// in for them (§5).
    pub fn figure14_lineup() -> Vec<Self> {
        use BasisGate::{Cnot, SqrtISwap, Syc};
        Self::lineup(&[
            ("heavy-hex-84", Cnot),
            ("square-lattice-84", Syc),
            ("tree-84", SqrtISwap),
            ("tree-rr-84", SqrtISwap),
            ("hypercube-84", SqrtISwap),
        ])
    }

    fn lineup(entries: &[(&'static str, BasisGate)]) -> Vec<Self> {
        entries
            .iter()
            .map(|&(name, basis)| Self { name, basis })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lineups_open_with_the_paper_baselines_then_sqrt_iswap() {
        for lineup in [Machine::figure13_lineup(), Machine::figure14_lineup()] {
            assert_eq!(lineup[0].basis, BasisGate::Cnot);
            assert_eq!(lineup[0].label(), "Heavy-Hex-CX");
            assert_eq!(lineup[1].basis, BasisGate::Syc);
            assert_eq!(lineup[1].label(), "Square-Lattice-SYC");
            assert!(lineup[2..].iter().all(|m| m.basis == BasisGate::SqrtISwap));
        }
    }

    #[test]
    fn lineup_names_are_canonical_catalog_names() {
        for m in Machine::figure13_lineup()
            .into_iter()
            .chain(Machine::figure14_lineup())
        {
            assert_eq!(catalog::canonical_name(m.name), Some(m.name));
            assert_eq!(Machine::new(m.name, m.basis), Ok(m));
        }
    }

    #[test]
    fn new_resolves_forgivingly_and_rejects_unknown_names() {
        let corral = Machine::new("Corral1,1-16", BasisGate::SqrtISwap).unwrap();
        assert_eq!(corral, Machine::figure13_lineup()[5]);
        assert_eq!(corral.label(), "Corral1,1-sqrt-iSWAP");
        // The catalog has no 84-qubit Corral; asking for one is an error,
        // not a hypercube under a Corral label.
        let err = Machine::new("corral11-84", BasisGate::SqrtISwap).unwrap_err();
        assert!(err.contains("hypercube-84"), "{err}");
    }

    #[test]
    fn graphs_build_for_every_lineup_entry() {
        for m in Machine::figure13_lineup() {
            let g = m.graph();
            assert!(
                g.num_qubits() >= 16 && g.num_qubits() <= 20,
                "{}",
                m.label()
            );
        }
        for m in Machine::figure14_lineup() {
            assert_eq!(m.graph().num_qubits(), 84, "{}", m.label());
        }
    }
}
