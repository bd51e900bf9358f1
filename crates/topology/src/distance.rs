//! Compact, lazily materialized shortest-path state for routing.
//!
//! The router's distance lookups used to live in `Vec<Vec<usize>>` /
//! `Vec<Vec<f64>>` all-pairs matrices: simple, but O(n²·8) bytes per matrix
//! and always fully materialized. At the catalog's kiloqubit end
//! (`grid_625`, `hypercube_1024`) that is tens of megabytes of `usize`/`f64`
//! per device for distances that fit comfortably in a `u16`, most of whose
//! rows a small program never reads.
//!
//! This module provides the replacements:
//!
//! * [`HopMatrix`] — BFS hop counts as `u16` rows ([`UNREACHABLE`]
//!   sentinel), 4× smaller than the old `usize` rows.
//! * [`WeightedRows`] — weighted (Dijkstra) distances as `f64` rows.
//!
//! Both hold **on-demand per-source rows** on every device: each row is
//! computed on first use (synchronized with a [`OnceLock`], so parallel
//! routing trials race safely and compute it once) and retained. A
//! 24-qubit program routed on the 1024-qubit hypercube only ever pays for
//! the rows its placed qubits touch, and a row holds exactly what the
//! legacy all-pairs matrix held for that source.

use crate::graph::CouplingGraph;
use std::sync::OnceLock;

/// Hop distance marking an unreachable pair in a [`HopMatrix`].
pub const UNREACHABLE: u16 = u16::MAX;

/// One [`OnceLock`] slot per source row, all empty.
fn empty_rows<T>(n: usize) -> Box<[OnceLock<Box<[T]>>]> {
    (0..n).map(|_| OnceLock::new()).collect()
}

/// Number of filled slots.
fn filled<T>(rows: &[OnceLock<T>]) -> usize {
    rows.iter().filter(|r| r.get().is_some()).count()
}

/// All-pairs BFS hop distances in compact `u16` storage.
///
/// Holds one [`OnceLock`] slot per source row and fills rows on first
/// access. The coupling graph is passed at access time (rows are computed
/// from it on demand); callers must pass the graph the matrix was built for
/// — `snailqc_transpiler::RoutingCache` maintains that pairing per device.
#[derive(Debug)]
pub struct HopMatrix {
    rows: Box<[OnceLock<Box<[u16]>>]>,
}

impl HopMatrix {
    /// An empty hop matrix for `graph`; rows materialize on first access.
    pub fn new(graph: &CouplingGraph) -> Self {
        Self {
            rows: empty_rows(graph.num_qubits()),
        }
    }

    /// Number of qubits the matrix covers.
    pub fn num_qubits(&self) -> usize {
        self.rows.len()
    }

    /// The hop-distance row of `source`, computing it on first use. `graph`
    /// must be the graph the matrix was built for.
    #[inline]
    pub fn row(&self, graph: &CouplingGraph, source: usize) -> &[u16] {
        debug_assert_eq!(
            graph.num_qubits(),
            self.rows.len(),
            "hop matrix/graph mismatch"
        );
        self.rows[source].get_or_init(|| {
            let mut row = vec![UNREACHABLE; self.rows.len()].into_boxed_slice();
            graph.bfs_hops_into(source, &mut row);
            row
        })
    }

    /// Hop distance from `a` to `b` ([`UNREACHABLE`] when disconnected).
    #[inline]
    pub fn get(&self, graph: &CouplingGraph, a: usize, b: usize) -> u16 {
        self.row(graph, a)[b]
    }

    /// Number of rows currently materialized.
    pub fn materialized_rows(&self) -> usize {
        filled(&self.rows)
    }

    /// Bytes of distance payload currently resident (excluding per-row
    /// bookkeeping).
    pub fn resident_bytes(&self) -> usize {
        self.materialized_rows() * self.rows.len() * std::mem::size_of::<u16>()
    }
}

/// Weighted (Dijkstra) shortest-path distances as `f64` rows — the scoring
/// matrix of noise-aware routing.
///
/// Same storage as [`HopMatrix`]: on-demand per-source rows. The per-edge
/// cost function is supplied at access time; callers must pass the same
/// (deterministic) cost function for every access, which is what makes each
/// lazily computed row identical to the legacy all-pairs matrix's row.
#[derive(Debug)]
pub struct WeightedRows {
    rows: Box<[OnceLock<Box<[f64]>>]>,
}

impl WeightedRows {
    /// An empty weighted-distance store for `graph`; rows materialize on
    /// first [`WeightedRows::row`] call.
    pub fn new(graph: &CouplingGraph) -> Self {
        Self {
            rows: empty_rows(graph.num_qubits()),
        }
    }

    /// Number of qubits the store covers.
    pub fn num_qubits(&self) -> usize {
        self.rows.len()
    }

    /// The weighted-distance row of `source`, computing it via Dijkstra
    /// under `cost` on first use.
    #[inline]
    pub fn row(
        &self,
        graph: &CouplingGraph,
        cost: &impl Fn(usize, usize) -> f64,
        source: usize,
    ) -> &[f64] {
        debug_assert_eq!(
            graph.num_qubits(),
            self.rows.len(),
            "weighted rows/graph mismatch"
        );
        self.rows[source].get_or_init(|| graph.weighted_distances(source, cost).into_boxed_slice())
    }

    /// Weighted distance from `a` to `b` (`f64::INFINITY` when disconnected).
    #[inline]
    pub fn get(
        &self,
        graph: &CouplingGraph,
        cost: &impl Fn(usize, usize) -> f64,
        a: usize,
        b: usize,
    ) -> f64 {
        self.row(graph, cost, a)[b]
    }

    /// Number of rows currently materialized.
    pub fn materialized_rows(&self) -> usize {
        filled(&self.rows)
    }

    /// Bytes of distance payload currently resident.
    pub fn resident_bytes(&self) -> usize {
        self.materialized_rows() * self.rows.len() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    #[test]
    fn hop_rows_match_legacy_bfs() {
        let g = builders::square_lattice(4, 5);
        let m = HopMatrix::new(&g);
        for s in 0..g.num_qubits() {
            let legacy = g.bfs_distances(s);
            for (t, &expect) in legacy.iter().enumerate() {
                assert_eq!(m.get(&g, s, t) as usize, expect);
            }
        }
        assert_eq!(m.materialized_rows(), g.num_qubits());
    }

    #[test]
    fn only_touched_rows_materialize() {
        let g = builders::square_lattice(3, 4);
        let m = HopMatrix::new(&g);
        assert_eq!(m.materialized_rows(), 0);
        assert_eq!(m.resident_bytes(), 0);
        m.row(&g, 5);
        m.row(&g, 5);
        m.row(&g, 7);
        assert_eq!(m.materialized_rows(), 2);
        assert_eq!(m.resident_bytes(), 2 * 12 * 2);
    }

    #[test]
    fn unreachable_pairs_carry_the_sentinel() {
        let g = CouplingGraph::from_edges("islands", 4, &[(0, 1), (2, 3)]);
        let m = HopMatrix::new(&g);
        assert_eq!(m.get(&g, 0, 1), 1);
        assert_eq!(m.get(&g, 0, 2), UNREACHABLE);
        assert_eq!(m.get(&g, 3, 1), UNREACHABLE);
    }

    #[test]
    fn weighted_rows_match_weighted_distances() {
        let g = builders::hypercube(3);
        let cost = |a: usize, b: usize| 1.0 + 0.1 * ((a + b) % 3) as f64;
        let eager = g.weighted_distance_matrix(cost);
        let rows = WeightedRows::new(&g);
        assert_eq!(rows.materialized_rows(), 0);
        for (s, expect) in eager.iter().enumerate() {
            assert_eq!(rows.row(&g, &cost, s), expect.as_slice());
        }
    }
}
