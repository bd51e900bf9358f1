//! Property tests pinning the compact `u16` hop matrix (and the weighted
//! rows) to the legacy `Vec<Vec<usize>>` / `Vec<Vec<f64>>` all-pairs
//! matrices on arbitrary graphs — connected or not, calibrated or not.

use proptest::prelude::*;
use snailqc_topology::distance::{HopMatrix, WeightedRows, UNREACHABLE};
use snailqc_topology::{builders, CouplingGraph};

/// Deterministic pseudo-random graph on `n` qubits: edge density and
/// connectivity vary with the seed, so disconnected graphs show up often.
fn arbitrary_graph(n: usize, seed: u64, density_pct: u64) -> CouplingGraph {
    let mut g = CouplingGraph::new(format!("prop-{n}-{seed}"), n);
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for a in 0..n {
        for b in (a + 1)..n {
            if next() % 100 < density_pct {
                g.add_edge(a, b);
            }
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hop_matrix_matches_legacy_distance_matrix(
        n in 2usize..24, seed in 0u64..1000, density in 5u64..40,
    ) {
        let mut g = arbitrary_graph(n, seed, density);
        if g.num_edges() > 0 {
            builders::calibrate_edge_errors(&mut g, 1e-3, 1.5, seed);
        }
        let legacy = g.distance_matrix();
        let hops = HopMatrix::new(&g);
        for (a, legacy_row) in legacy.iter().enumerate() {
            for (b, &expect) in legacy_row.iter().enumerate() {
                let got = hops.get(&g, a, b);
                if expect == usize::MAX {
                    prop_assert_eq!(got, UNREACHABLE);
                } else {
                    prop_assert_eq!(got as usize, expect);
                }
            }
        }
    }

    #[test]
    fn weighted_rows_match_legacy_weighted_matrix(
        n in 2usize..16, seed in 0u64..1000, density in 10u64..50,
    ) {
        let mut g = arbitrary_graph(n, seed, density);
        if g.num_edges() > 0 {
            builders::calibrate_edge_errors(&mut g, 1e-3, 2.0, seed);
        }
        let cost = |a: usize, b: usize| {
            if g.has_edge(a, b) { 1.0 + 100.0 * g.edge_error(a, b) } else { 1.0 }
        };
        let legacy = g.weighted_distance_matrix(cost);
        let rows = WeightedRows::new(&g);
        for (a, expect) in legacy.iter().enumerate() {
            // Bitwise equality, including infinities on disconnected pairs.
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
                let reachable = hops.get(&g, a, b) != UNREACHABLE;
                prop_assert_eq!(reachable, comp_of[a] == comp_of[b]);
            }
        }
    }
}
