//! Lazily materialized shortest-path rows for routing.
//!
//! [`LazyRows`] holds one [`OnceLock`] slot per source qubit. A row is
//! computed on first use (parallel routing trials race safely and compute
//! it once) and retained, so a 24-qubit program routed on the 1024-qubit
//! hypercube only pays for the rows its placed qubits touch. No distance
//! matrix is ever built in full. Only the row-computing methods differ
//! per element type:
//!
//! * [`HopMatrix`] = `LazyRows<u16>`: BFS hop counts from
//!   [`CouplingGraph::bfs_hop_lanes`], the one BFS distance kernel, with
//!   the [`UNREACHABLE`] sentinel, on graphs of at most [`MAX_QUBITS`]
//!   qubits. `row` runs the kernel with one lane. `fill` computes the
//!   missing rows of a whole source set in sorted batches of
//!   [`HOP_LANES`], one kernel pass per batch; the router fills the rows
//!   of every placed qubit this way before its first SWAP decision, since
//!   it reads them all.
//! * [`WeightedRows`] = `LazyRows<f64>`: weighted (Dijkstra) distances from
//!   [`CouplingGraph::weighted_distances`], the scoring rows of noise-aware
//!   routing.

use crate::graph::{CouplingGraph, HOP_LANES};
use std::sync::OnceLock;

/// Hop distance marking an unreachable pair.
pub const UNREACHABLE: u16 = u16::MAX;

pub use snailqc_util::MAX_QUBITS;

/// All-pairs shortest-path distances, one lazily computed row per source.
///
/// The coupling graph is passed at access time (rows are computed from it
/// on demand); callers must pass the graph the store was built for, and for
/// [`WeightedRows`] the same deterministic cost function on every access.
/// `snailqc_transpiler::RoutingCache` maintains that pairing per device.
#[derive(Debug)]
pub struct LazyRows<T> {
    rows: Box<[OnceLock<Box<[T]>>]>,
}

/// BFS hop distances in compact `u16` rows.
pub type HopMatrix = LazyRows<u16>;

/// Weighted (Dijkstra) shortest-path distances in `f64` rows.
pub type WeightedRows = LazyRows<f64>;

impl<T> LazyRows<T> {
    /// An empty store for `graph`; rows materialize on first access.
    pub fn new(graph: &CouplingGraph) -> Self {
        Self {
            rows: (0..graph.num_qubits()).map(|_| OnceLock::new()).collect(),
        }
    }

    #[inline]
    fn row_with(
        &self,
        graph: &CouplingGraph,
        source: usize,
        compute: impl FnOnce() -> Box<[T]>,
    ) -> &[T] {
        debug_assert_eq!(
            graph.num_qubits(),
            self.rows.len(),
            "distance rows/graph mismatch"
        );
        self.rows[source].get_or_init(compute)
    }

    /// Number of rows currently materialized.
    pub fn materialized_rows(&self) -> usize {
        self.rows.iter().filter(|r| r.get().is_some()).count()
    }

    /// Bytes of distance payload currently resident (excluding per-row
    /// bookkeeping).
    pub fn resident_bytes(&self) -> usize {
        self.materialized_rows() * self.rows.len() * std::mem::size_of::<T>()
    }
}

impl LazyRows<u16> {
    /// The hop-distance row of `source` ([`UNREACHABLE`] where
    /// disconnected), computing it on first use as one lane of
    /// [`CouplingGraph::bfs_hop_lanes`].
    #[inline]
    pub fn row(&self, graph: &CouplingGraph, source: usize) -> &[u16] {
        self.row_with(graph, source, || {
            let mut row = vec![UNREACHABLE; self.rows.len()].into_boxed_slice();
            graph.bfs_hop_lanes(&[source], |q, _, hops| row[q] = hops);
            row
        })
    }

    /// Materializes the rows of `sources` that are not held yet, in batches
    /// of [`HOP_LANES`] sources per pass of the hop kernel. The sources are
    /// sorted first: the builders number neighbouring qubits close
    /// together, so a batch's lanes share more of their frontiers. A row
    /// another thread sets first is kept; the batch's copy is dropped.
    pub fn fill(&self, graph: &CouplingGraph, sources: &[usize]) {
        debug_assert_eq!(
            graph.num_qubits(),
            self.rows.len(),
            "distance rows/graph mismatch"
        );
        let mut missing: Vec<usize> = sources
            .iter()
            .copied()
            .filter(|&s| self.rows[s].get().is_none())
            .collect();
        missing.sort_unstable();
        missing.dedup();
        for batch in missing.chunks(HOP_LANES) {
            let mut rows = vec![vec![UNREACHABLE; self.rows.len()].into_boxed_slice(); batch.len()];
            graph.bfs_hop_lanes(batch, |q, mut lanes, hops| {
                while lanes != 0 {
                    rows[lanes.trailing_zeros() as usize][q] = hops;
                    lanes &= lanes - 1;
                }
            });
            for (&source, row) in batch.iter().zip(rows) {
                let _ = self.rows[source].set(row);
            }
        }
    }
}

impl LazyRows<f64> {
    /// The weighted-distance row of `source` (`f64::INFINITY` where
    /// disconnected), computing it via Dijkstra under `cost` on first use.
    #[inline]
    pub fn row(
        &self,
        graph: &CouplingGraph,
        cost: &impl Fn(usize, usize) -> f64,
        source: usize,
    ) -> &[f64] {
        self.row_with(graph, source, || {
            graph.weighted_distances(source, cost).into_boxed_slice()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    #[test]
    fn hop_rows_are_manhattan_distances_on_a_square_lattice() {
        let (rows, cols) = (4, 5);
        let g = builders::square_lattice(rows, cols);
        let m = HopMatrix::new(&g);
        for s in 0..rows * cols {
            for t in 0..rows * cols {
                let manhattan = (s / cols).abs_diff(t / cols) + (s % cols).abs_diff(t % cols);
                assert_eq!(m.row(&g, s)[t] as usize, manhattan);
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
        assert_eq!(m.row(&g, 0), [0, 1, UNREACHABLE, UNREACHABLE]);
        assert_eq!(m.row(&g, 3)[1], UNREACHABLE);
    }

    #[test]
    fn weighted_rows_match_weighted_distances() {
        let g = builders::hypercube(3);
        let cost = |a: usize, b: usize| 1.0 + 0.1 * ((a + b) % 3) as f64;
        let rows = WeightedRows::new(&g);
        assert_eq!(rows.materialized_rows(), 0);
        for s in 0..g.num_qubits() {
            assert_eq!(rows.row(&g, &cost, s), g.weighted_distances(s, cost));
        }
        assert_eq!(rows.resident_bytes(), 8 * 8 * 8);
    }
}
