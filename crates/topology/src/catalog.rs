//! The paper's named topology instances (Tables 1 and 2) and the name table
//! through which the CLI, the daemon, the experiment harness and the
//! benchmark binaries build them.

use crate::builders;
use crate::graph::{CouplingGraph, TopologyMetrics};

// ---------------------------------------------------------------------------
// Table 1 instances (16–20 qubits)
// ---------------------------------------------------------------------------

/// 16-qubit square lattice (4×4), Table 1.
pub fn square_lattice_16() -> CouplingGraph {
    let mut g = builders::square_lattice(4, 4);
    g.set_name("Square-Lattice-16");
    g
}

/// 16-qubit hypercube (4-dimensional), Table 1.
pub fn hypercube_16() -> CouplingGraph {
    let mut g = builders::hypercube(4);
    g.set_name("Hypercube-16");
    g
}

/// 20-qubit SNAIL modular tree, Table 1.
pub fn tree_20() -> CouplingGraph {
    let mut g = builders::tree4(1);
    g.set_name("Tree-20");
    g
}

/// 20-qubit SNAIL round-robin tree, Table 1.
pub fn tree_rr_20() -> CouplingGraph {
    let mut g = builders::tree4_rr(1);
    g.set_name("Tree-RR-20");
    g
}

/// 16-qubit Corral with strides (1, 1), Table 1.
pub fn corral11_16() -> CouplingGraph {
    let mut g = builders::corral(8, 1, 1);
    g.set_name("Corral1,1-16");
    g
}

/// 16-qubit Corral₁,₂, Table 1.
///
/// The paper describes the second fence as reaching the "second-nearest
/// neighbor"; the Table-1 metrics it reports for Corral₁,₂ (diameter 2,
/// average distance 1.5, average connectivity 6.0) are reproduced exactly by
/// a long-stride second fence (`corral(8, 1, 3)`), which is the instance
/// returned here. The literal stride-2 variant (`builders::corral(8, 1, 2)`)
/// has diameter 3 and is available separately.
pub fn corral12_16() -> CouplingGraph {
    let mut g = builders::corral(8, 1, 3);
    g.set_name("Corral1,2-16");
    g
}

/// 20-qubit heavy-hex fragment, Table 1.
///
/// IBM does not ship a 20-qubit heavy-hex device and the paper does not give
/// the exact fragment it used; we use two heavy hexagons (12-cycles) fused on
/// a four-qubit path, the 20-qubit fragment whose metrics are closest to the
/// paper's Table 1 row (diameter 8 and average connectivity 2.1 match
/// exactly; average distance is 4.05 vs the reported 3.77).
pub fn heavy_hex_20() -> CouplingGraph {
    let mut edges: Vec<(usize, usize)> = (0..12).map(|i| (i, (i + 1) % 12)).collect();
    // Second 12-cycle sharing the path 0–1–2–3 with the first.
    edges.push((3, 12));
    edges.extend((12..19).map(|i| (i, i + 1)));
    edges.push((19, 0));
    CouplingGraph::from_edges("Heavy-Hex-20", 20, &edges)
}

/// 20-qubit hex-lattice fragment, Table 1.
pub fn hex_lattice_20() -> CouplingGraph {
    let base = builders::hex_lattice(2, 3);
    let mut g = base.truncate_boundary(20, "Hex-Lattice-20");
    g.set_name("Hex-Lattice-20");
    g
}

// ---------------------------------------------------------------------------
// Table 2 instances (84 qubits)
// ---------------------------------------------------------------------------

/// 84-qubit square lattice (7×12), Table 2.
pub fn square_lattice_84() -> CouplingGraph {
    let mut g = builders::square_lattice(7, 12);
    g.set_name("Square-Lattice-84");
    g
}

/// 84-qubit lattice with alternating diagonals (7×12), Table 2.
pub fn lattice_alt_diagonals_84() -> CouplingGraph {
    let mut g = builders::lattice_alt_diagonals(7, 12);
    g.set_name("Lattice+AltDiagonals-84");
    g
}

/// 84-qubit truncated hypercube (7-cube restricted to 84 vertices), Table 2.
pub fn hypercube_84() -> CouplingGraph {
    let mut g = builders::hypercube_sized(84);
    g.set_name("Hypercube-84");
    g
}

/// 84-qubit SNAIL modular tree (four levels), Table 2.
pub fn tree_84() -> CouplingGraph {
    let mut g = builders::tree4(2);
    g.set_name("Tree-84");
    g
}

/// 84-qubit SNAIL round-robin tree, Table 2.
pub fn tree_rr_84() -> CouplingGraph {
    let mut g = builders::tree4_rr(2);
    g.set_name("Tree-RR-84");
    g
}

/// 84-qubit heavy-hex fragment (3×4 hexagons truncated), Table 2.
pub fn heavy_hex_84() -> CouplingGraph {
    let base = builders::heavy_hex(3, 4);
    let mut g = base.truncate_boundary(84, "Heavy-Hex-84");
    g.set_name("Heavy-Hex-84");
    g
}

/// 84-qubit hex-lattice fragment, Table 2.
pub fn hex_lattice_84() -> CouplingGraph {
    let base = builders::hex_lattice(4, 8);
    let mut g = base.truncate_boundary(84, "Hex-Lattice-84");
    g.set_name("Hex-Lattice-84");
    g
}

// ---------------------------------------------------------------------------
// Name table: the one map from a paper topology to its graph
// ---------------------------------------------------------------------------

/// A nullary constructor for one catalog instance.
type TopologyBuilder = fn() -> CouplingGraph;

/// Every named catalog instance as `(canonical-name, builder)`. Each name,
/// like each built graph's name, ends in `-<qubits>`.
const REGISTRY: [(&str, TopologyBuilder); 16] = [
    ("heavy-hex-20", heavy_hex_20),
    ("hex-lattice-20", hex_lattice_20),
    ("square-lattice-16", square_lattice_16),
    ("lattice-alt-diagonals-16", lattice_alt_diagonals_16),
    ("hypercube-16", hypercube_16),
    ("tree-20", tree_20),
    ("tree-rr-20", tree_rr_20),
    ("corral11-16", corral11_16),
    ("corral12-16", corral12_16),
    ("heavy-hex-84", heavy_hex_84),
    ("hex-lattice-84", hex_lattice_84),
    ("square-lattice-84", square_lattice_84),
    ("lattice-alt-diagonals-84", lattice_alt_diagonals_84),
    ("hypercube-84", hypercube_84),
    ("tree-84", tree_84),
    ("tree-rr-84", tree_rr_84),
];

use snailqc_util::names_match;

/// The canonical kebab-case names of every catalog instance.
pub fn names() -> Vec<&'static str> {
    REGISTRY.iter().map(|(name, _)| *name).collect()
}

fn entry(name: &str) -> Option<&'static (&'static str, TopologyBuilder)> {
    REGISTRY
        .iter()
        .find(|(canonical, _)| names_match(canonical, name))
}

/// The canonical name of the catalog instance `name` refers to, without
/// building it. Matching is as forgiving as [`by_name`]'s; returns `None`
/// for unknown names.
pub fn canonical_name(name: &str) -> Option<&'static str> {
    entry(name).map(|(canonical, _)| *canonical)
}

/// Builds a catalog instance by name.
///
/// Matching is forgiving: case, punctuation and separators are ignored, so
/// `corral11-16`, `Corral1,1-16` and `CORRAL_1_1_16` all resolve to the same
/// instance. Returns `None` for unknown names.
pub fn by_name(name: &str) -> Option<CouplingGraph> {
    entry(name).map(|(_, build)| build())
}

/// 16-qubit lattice with alternating diagonals (4×4), Table 1.
pub fn lattice_alt_diagonals_16() -> CouplingGraph {
    let mut g = builders::lattice_alt_diagonals(4, 4);
    g.set_name("Lattice+AltDiagonals-16");
    g
}

/// Reproduces the rows of the paper's Table 1 (small machines).
pub fn table1() -> Vec<(String, TopologyMetrics)> {
    [
        heavy_hex_20(),
        hex_lattice_20(),
        square_lattice_16(),
        tree_20(),
        tree_rr_20(),
        corral11_16(),
        corral12_16(),
        hypercube_16(),
    ]
    .into_iter()
    .map(|g| (g.name().to_string(), g.metrics()))
    .collect()
}

/// Reproduces the rows of the paper's Table 2 (84-qubit machines).
pub fn table2() -> Vec<(String, TopologyMetrics)> {
    [
        heavy_hex_84(),
        hex_lattice_84(),
        square_lattice_84(),
        lattice_alt_diagonals_84(),
        tree_84(),
        tree_rr_84(),
        hypercube_84(),
    ]
    .into_iter()
    .map(|g| (g.name().to_string(), g.metrics()))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_small_instances_build_and_connect() {
        for name in names().into_iter().filter(|name| !name.ends_with("-84")) {
            let g = by_name(name).unwrap();
            assert!(g.is_connected(), "{}", g.name());
            assert!(g.num_qubits() >= 16 && g.num_qubits() <= 20, "{}", g.name());
        }
    }

    #[test]
    fn all_large_instances_build_and_connect() {
        let large: Vec<&str> = names()
            .into_iter()
            .filter(|name| name.ends_with("-84"))
            .collect();
        assert_eq!(large.len(), 7);
        for name in large {
            let g = by_name(name).unwrap();
            assert!(g.is_connected(), "{}", g.name());
            assert_eq!(g.num_qubits(), 84, "{}", g.name());
        }
    }

    #[test]
    fn heavy_hex_20_is_sparse_and_wide() {
        // Paper Table 1: 20 qubits, diameter 8, avgD 3.77, avgC 2.1. The exact
        // fragment is not published; assert the qualitative regime.
        let g = heavy_hex_20();
        let m = g.metrics();
        assert_eq!(m.qubits, 20);
        assert!(m.avg_connectivity <= 2.3, "avgC = {}", m.avg_connectivity);
        assert!(m.diameter >= 7, "diameter = {}", m.diameter);
        assert!(m.avg_distance > 3.0, "avgD = {}", m.avg_distance);
    }

    #[test]
    fn heavy_hex_84_is_sparse_and_wide() {
        // Paper Table 2: diameter 21, avgD 8.47, avgC 2.26.
        let g = heavy_hex_84();
        let m = g.metrics();
        assert_eq!(m.qubits, 84);
        assert!(m.avg_connectivity <= 2.4, "avgC = {}", m.avg_connectivity);
        assert!(m.diameter >= 15, "diameter = {}", m.diameter);
        assert!(m.avg_distance > 6.5, "avgD = {}", m.avg_distance);
    }

    #[test]
    fn hex_lattice_instances_sit_between_heavy_hex_and_square() {
        let small = hex_lattice_20().metrics();
        assert_eq!(small.qubits, 20);
        assert!(small.avg_connectivity > heavy_hex_20().metrics().avg_connectivity);
        assert!(small.avg_connectivity < square_lattice_16().metrics().avg_connectivity);
        let large = hex_lattice_84().metrics();
        assert_eq!(large.qubits, 84);
        assert!(large.avg_connectivity > heavy_hex_84().metrics().avg_connectivity);
        assert!(large.avg_connectivity < square_lattice_84().metrics().avg_connectivity);
    }

    #[test]
    fn table1_orderings_match_paper() {
        // The qualitative Table-1 story: SNAIL topologies have much lower
        // average distance and diameter than the lattice baselines.
        let t1: std::collections::HashMap<String, TopologyMetrics> = table1().into_iter().collect();
        let hh = t1["Heavy-Hex-20"];
        let tree = t1["Tree-20"];
        let corral12 = t1["Corral1,2-16"];
        assert!(tree.avg_distance < hh.avg_distance);
        assert!(corral12.avg_distance < tree.avg_distance);
        assert!(tree.diameter < hh.diameter);
        assert!(corral12.avg_connectivity > hh.avg_connectivity);
    }

    #[test]
    fn table2_orderings_match_paper() {
        let t2: std::collections::HashMap<String, TopologyMetrics> = table2().into_iter().collect();
        let hh = t2["Heavy-Hex-84"];
        let sq = t2["Square-Lattice-84"];
        let tree = t2["Tree-84"];
        let rr = t2["Tree-RR-84"];
        let hyper = t2["Hypercube-84"];
        assert!(sq.avg_distance < hh.avg_distance);
        assert!(tree.avg_distance < sq.avg_distance);
        assert!(rr.avg_distance < tree.avg_distance);
        assert!(hyper.avg_distance < tree.avg_distance);
        assert!(hyper.diameter < sq.diameter);
    }

    #[test]
    fn registry_resolves_every_canonical_name() {
        for name in names() {
            let g = by_name(name).unwrap_or_else(|| panic!("`{name}` did not resolve"));
            assert!(g.is_connected(), "{name}");
        }
    }

    #[test]
    fn registry_matching_is_forgiving() {
        assert_eq!(by_name("corral11-16").unwrap().name(), "Corral1,1-16");
        assert_eq!(by_name("Corral1,1-16").unwrap().name(), "Corral1,1-16");
        assert_eq!(by_name("CORRAL_1_1_16").unwrap().name(), "Corral1,1-16");
        assert_eq!(by_name("Tree-RR-84").unwrap().name(), "Tree-RR-84");
        assert_eq!(
            by_name("Lattice+AltDiagonals-84").unwrap().name(),
            "Lattice+AltDiagonals-84"
        );
        assert!(by_name("no-such-device").is_none());
    }

    #[test]
    fn canonical_name_matches_by_name_without_building() {
        assert_eq!(canonical_name("CORRAL_1_1_16"), Some("corral11-16"));
        assert_eq!(
            canonical_name("Lattice+AltDiagonals-84"),
            Some("lattice-alt-diagonals-84")
        );
        assert_eq!(canonical_name("no-such-device"), None);
        for name in names() {
            assert_eq!(canonical_name(name), Some(name));
        }
    }
}
