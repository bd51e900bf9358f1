//! Property-based tests for coupling graphs and the topology builders.

use proptest::prelude::*;
use snailqc_topology::builders;
use snailqc_topology::{CouplingGraph, HopMatrix};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn square_lattice_metrics_match_closed_forms(rows in 2usize..7, cols in 2usize..7) {
        let g = builders::square_lattice(rows, cols);
        prop_assert_eq!(g.num_qubits(), rows * cols);
        prop_assert_eq!(g.num_edges(), rows * (cols - 1) + cols * (rows - 1));
        prop_assert_eq!(g.metrics().diameter, rows + cols - 2);
        prop_assert!(g.is_connected());
    }

    #[test]
    fn hypercube_is_regular_with_log_diameter(dim in 1u32..8) {
        let g = builders::hypercube(dim);
        prop_assert_eq!(g.num_qubits(), 1 << dim);
        prop_assert_eq!(g.metrics().diameter, dim as usize);
        for q in 0..g.num_qubits() {
            prop_assert_eq!(g.degree(q), dim as usize);
        }
    }

    #[test]
    fn truncated_hypercube_stays_connected(n in 5usize..120) {
        let g = builders::hypercube_sized(n);
        prop_assert_eq!(g.num_qubits(), n);
        prop_assert!(g.is_connected());
    }

    #[test]
    fn hex_lattice_counts_follow_formula(rows in 1usize..5, cols in 1usize..6) {
        let g = builders::hex_lattice(rows, cols);
        prop_assert_eq!(g.num_qubits(), 2 * (rows + 1) * (cols + 1) - 2);
        prop_assert_eq!(g.num_edges(), 3 * rows * cols + 2 * rows + 2 * cols - 1);
        for q in 0..g.num_qubits() {
            prop_assert!(g.degree(q) >= 2 && g.degree(q) <= 3);
        }
    }

    #[test]
    fn heavy_hex_doubles_edges(rows in 1usize..4, cols in 1usize..5) {
        let hex = builders::hex_lattice(rows, cols);
        let heavy = builders::heavy_hex(rows, cols);
        prop_assert_eq!(heavy.num_qubits(), hex.num_qubits() + hex.num_edges());
        prop_assert_eq!(heavy.num_edges(), 2 * hex.num_edges());
        prop_assert!(heavy.is_connected());
    }

    #[test]
    fn trees_have_constant_small_diameter(levels in 1usize..3) {
        let g = builders::tree4(levels);
        let rr = builders::tree4_rr(levels);
        prop_assert_eq!(g.num_qubits(), rr.num_qubits());
        let (m, mrr) = (g.metrics(), rr.metrics());
        prop_assert_eq!(m.diameter, 2 * levels + 1);
        prop_assert!(mrr.diameter <= m.diameter);
        prop_assert!(mrr.avg_distance <= m.avg_distance + 1e-9);
    }

    #[test]
    fn corrals_are_connected_and_regular_without_wraparound(
        posts in 3usize..12, sa in 1usize..3, sb in 1usize..4,
    ) {
        prop_assume!(sa < posts && sb < posts);
        // Connectivity requires the strides to generate the whole post ring.
        fn gcd(a: usize, b: usize) -> usize {
            if b == 0 { a } else { gcd(b, a % b) }
        }
        prop_assume!(gcd(gcd(sa, sb), posts) == 1);
        let g = builders::corral(posts, sa, sb);
        prop_assert_eq!(g.num_qubits(), 2 * posts);
        prop_assert!(g.is_connected());
        // Vertex regularity holds whenever no fence wraps onto the antipodal
        // post (2·stride ≡ 0 mod posts makes opposite fences coincide and
        // breaks the symmetry).
        if (2 * sa) % posts != 0 && (2 * sb) % posts != 0 {
            let d0 = g.degree(0);
            for q in 0..g.num_qubits() {
                prop_assert_eq!(g.degree(q), d0, "qubit {} degree {} != {}", q, g.degree(q), d0);
            }
        }
    }

    #[test]
    fn bfs_hops_satisfy_triangle_inequality(rows in 2usize..5, cols in 2usize..5) {
        let g = builders::lattice_alt_diagonals(rows, cols);
        let hops = HopMatrix::new(&g);
        let d = |a: usize, b: usize| hops.row(&g, a)[b] as usize;
        let n = g.num_qubits();
        for a in 0..n {
            for b in 0..n {
                prop_assert_eq!(d(a, b), d(b, a));
                for c in 0..n {
                    prop_assert!(d(a, c) <= d(a, b) + d(b, c));
                }
            }
        }
    }

    #[test]
    fn shortest_paths_have_length_matching_distance(seed in 0usize..100) {
        let g = builders::tree4(1);
        let n = g.num_qubits();
        let a = seed % n;
        let b = (seed * 7 + 3) % n;
        let hops = HopMatrix::new(&g);
        let path = g.shortest_path(a, b).unwrap();
        prop_assert_eq!(path.len() - 1, hops.row(&g, a)[b] as usize);
        for w in path.windows(2) {
            prop_assert!(g.has_edge(w[0], w[1]));
        }
    }

    #[test]
    fn truncate_boundary_preserves_connectivity_and_size(target in 10usize..16) {
        let g = builders::square_lattice(4, 4);
        let t = g.truncate_boundary(target, "truncated");
        prop_assert_eq!(t.num_qubits(), target);
        prop_assert!(t.is_connected());
        prop_assert!(t.num_edges() <= g.num_edges());
    }

    #[test]
    fn average_distance_is_bounded_by_diameter(rows in 2usize..5, cols in 2usize..5) {
        let g: CouplingGraph = builders::square_lattice(rows, cols);
        let m = g.metrics();
        prop_assert!(m.avg_distance <= m.diameter as f64);
        prop_assert!(m.avg_distance >= 0.0);
    }
}
