//! Property tests pinning the lazy `u16` hop rows to a Floyd–Warshall
//! reference written here, and the lazy weighted rows to
//! `weighted_distances` per source, on arbitrary graphs — connected or not,
//! calibrated or not.

use proptest::prelude::*;
use snailqc_topology::distance::{HopMatrix, WeightedRows, UNREACHABLE};
use snailqc_topology::{builders, CouplingGraph};

/// Deterministic pseudo-random graph on `n` qubits: edge density and
/// connectivity vary with the seed, so disconnected graphs show up often.
fn arbitrary_graph(n: usize, seed: u64, density_pct: u64) -> CouplingGraph {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut edges = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            if next() % 100 < density_pct {
                edges.push((a, b));
            }
        }
    }
    CouplingGraph::from_edges(format!("prop-{n}-{seed}"), n, &edges)
}

/// All-pairs hop counts by Floyd–Warshall (`usize::MAX` = unreachable):
/// an algorithm independent of the BFS kernel under test.
fn floyd_warshall(g: &CouplingGraph) -> Vec<Vec<usize>> {
    let n = g.num_qubits();
    let mut d = vec![vec![usize::MAX; n]; n];
    for (a, row) in d.iter_mut().enumerate() {
        row[a] = 0;
        for b in g.neighbors(a) {
            row[b] = 1;
        }
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                if d[i][k] != usize::MAX && d[k][j] != usize::MAX {
                    d[i][j] = d[i][j].min(d[i][k] + d[k][j]);
                }
            }
        }
    }
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hop_matrix_matches_floyd_warshall(
        n in 2usize..24, seed in 0u64..1000, density in 5u64..40,
    ) {
        let mut g = arbitrary_graph(n, seed, density);
        if g.num_edges() > 0 {
            builders::calibrate_edge_errors(&mut g, 1e-3, 1.5, seed);
        }
        let reference = floyd_warshall(&g);
        let hops = HopMatrix::new(&g);
        for (a, reference_row) in reference.iter().enumerate() {
            for (b, &expect) in reference_row.iter().enumerate() {
                let got = hops.row(&g, a)[b];
                if expect == usize::MAX {
                    prop_assert_eq!(got, UNREACHABLE);
                } else {
                    prop_assert_eq!(got as usize, expect);
                }
            }
        }
    }

    #[test]
    fn weighted_rows_match_weighted_distances(
        n in 2usize..16, seed in 0u64..1000, density in 10u64..50,
    ) {
        let mut g = arbitrary_graph(n, seed, density);
        if g.num_edges() > 0 {
            builders::calibrate_edge_errors(&mut g, 1e-3, 2.0, seed);
        }
        let cost = |a: usize, b: usize| {
            if g.has_edge(a, b) { 1.0 + 100.0 * g.edge_error(a, b) } else { 1.0 }
        };
        let rows = WeightedRows::new(&g);
        for a in 0..n {
            // Bitwise equality, including infinities on disconnected pairs.
            let expect = g.weighted_distances(a, cost);
            prop_assert_eq!(rows.row(&g, &cost, a), expect.as_slice());
        }
    }

    #[test]
    fn connected_components_partition_the_qubits(
        n in 1usize..24, seed in 0u64..1000, density in 0u64..30,
    ) {
        let g = arbitrary_graph(n, seed, density);
        let comps = g.connected_components();
        let mut all: Vec<usize> = comps.iter().flatten().copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..n).collect::<Vec<_>>(), "exact partition");
        // Sizes descend, and intra-component pairs are reachable while
        // cross-component pairs are not.
        for w in comps.windows(2) {
            prop_assert!(w[0].len() >= w[1].len());
        }
        let hops = HopMatrix::new(&g);
        let mut comp_of = vec![usize::MAX; n];
        for (ci, members) in comps.iter().enumerate() {
            for &q in members {
                comp_of[q] = ci;
            }
        }
        for a in 0..n {
            for b in 0..n {
                let reachable = hops.row(&g, a)[b] != UNREACHABLE;
                prop_assert_eq!(reachable, comp_of[a] == comp_of[b]);
            }
        }
    }
}
