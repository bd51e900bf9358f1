//! Generators for every coupling topology studied in the paper.
//!
//! Baselines: square lattice, lattice with alternating diagonals, hex lattice,
//! heavy-hex lattice (IBM), hypercube. SNAIL-enabled designs (§4.3): the
//! modular 4-ary Tree, the Round-Robin Tree, and the Corral family.

use crate::graph::CouplingGraph;
use std::collections::BTreeMap;

/// A path (line) of `n` qubits.
pub fn line(n: usize) -> CouplingGraph {
    let edges: Vec<(usize, usize)> = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
    CouplingGraph::from_edges(format!("line-{n}"), n, &edges)
}

/// A ring of `n` qubits.
pub fn ring(n: usize) -> CouplingGraph {
    let mut edges: Vec<(usize, usize)> = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
    if n > 2 {
        edges.push((n - 1, 0));
    }
    CouplingGraph::from_edges(format!("ring-{n}"), n, &edges)
}

/// The complete graph (all-to-all coupling) on `n` qubits.
pub fn complete(n: usize) -> CouplingGraph {
    let mut edges = Vec::new();
    push_clique(&mut edges, &(0..n).collect::<Vec<_>>());
    CouplingGraph::from_edges(format!("complete-{n}"), n, &edges)
}

/// A star: qubit 0 coupled to every other qubit.
pub fn star(n: usize) -> CouplingGraph {
    let edges: Vec<(usize, usize)> = (1..n).map(|q| (0, q)).collect();
    CouplingGraph::from_edges(format!("star-{n}"), n, &edges)
}

/// Appends every pair of `members` to `edges`: the all-to-all coupling one
/// SNAIL drives among the qubits attached to it.
fn push_clique(edges: &mut Vec<(usize, usize)>, members: &[usize]) {
    for (i, &a) in members.iter().enumerate() {
        edges.extend(members[i + 1..].iter().map(|&b| (a, b)));
    }
}

// ---------------------------------------------------------------------------
// Lattice baselines (Fig. 2a, 2c)
// ---------------------------------------------------------------------------

/// Square lattice of `rows × cols` qubits (Fig. 2a). Qubit `(r, c)` has index
/// `r * cols + c`.
pub fn square_lattice(rows: usize, cols: usize) -> CouplingGraph {
    CouplingGraph::from_edges(
        format!("square-lattice-{rows}x{cols}"),
        rows * cols,
        &square_lattice_edges(rows, cols),
    )
}

/// The nearest-neighbor couplings of a `rows × cols` square lattice.
fn square_lattice_edges(rows: usize, cols: usize) -> Vec<(usize, usize)> {
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            let idx = r * cols + c;
            if c + 1 < cols {
                edges.push((idx, idx + 1));
            }
            if r + 1 < rows {
                edges.push((idx, idx + cols));
            }
        }
    }
    edges
}

/// Square lattice with both diagonals added on alternating (checkerboard)
/// tiles (Fig. 2c), IBM's early "Penguin"-style connectivity.
pub fn lattice_alt_diagonals(rows: usize, cols: usize) -> CouplingGraph {
    let mut edges = square_lattice_edges(rows, cols);
    for r in 0..rows.saturating_sub(1) {
        for c in 0..cols.saturating_sub(1) {
            if (r + c) % 2 == 0 {
                let tl = r * cols + c;
                let tr = tl + 1;
                let bl = tl + cols;
                let br = bl + 1;
                edges.push((tl, br));
                edges.push((tr, bl));
            }
        }
    }
    CouplingGraph::from_edges(
        format!("lattice-altdiag-{rows}x{cols}"),
        rows * cols,
        &edges,
    )
}

// ---------------------------------------------------------------------------
// Hexagonal lattices (Fig. 2b, 2d)
// ---------------------------------------------------------------------------

/// Honeycomb (hex) lattice patch with `rows × cols` hexagons (Fig. 2d).
///
/// Constructed as a brick wall — `rows + 1` horizontal chains joined by
/// vertical rungs at alternating positions — with dangling degree-1 corner
/// vertices trimmed away.
pub fn hex_lattice(rows: usize, cols: usize) -> CouplingGraph {
    let width = 2 * cols + 2;
    let index = |r: usize, x: usize| r * width + x;
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for r in 0..=rows {
        for x in 0..width - 1 {
            edges.push((index(r, x), index(r, x + 1)));
        }
    }
    for r in 0..rows {
        // Rungs between chain r and r+1 at every second position, with the
        // parity alternating per row (the brick-wall offset).
        let start = r % 2;
        let mut x = start;
        while x < width {
            edges.push((index(r, x), index(r + 1, x)));
            x += 2;
        }
    }
    let total = (rows + 1) * width;
    let full = CouplingGraph::from_edges("hex-raw", total, &edges);
    let trimmed = trim_pendants(&full);
    relabel_compact(&trimmed, format!("hex-lattice-{rows}x{cols}"))
}

/// Heavy-hex lattice patch with `rows × cols` hexagons (Fig. 2b): the hex
/// lattice with an additional qubit in the middle of every coupling, IBM's
/// current production topology.
pub fn heavy_hex(rows: usize, cols: usize) -> CouplingGraph {
    let hex = hex_lattice(rows, cols);
    let base = hex.num_qubits();
    let edges: Vec<(usize, usize)> = hex
        .edges()
        .enumerate()
        .flat_map(|(i, (a, b))| [(a, base + i), (base + i, b)])
        .collect();
    CouplingGraph::from_edges(
        format!("heavy-hex-{rows}x{cols}"),
        base + hex.num_edges(),
        &edges,
    )
}

/// Removes degree-1 vertices repeatedly (keeping at least a cycle), used to
/// clean the brick-wall construction.
fn trim_pendants(g: &CouplingGraph) -> CouplingGraph {
    let n = g.num_qubits();
    let mut removed = vec![false; n];
    loop {
        let mut changed = false;
        for q in 0..n {
            if removed[q] {
                continue;
            }
            let live_degree = g.neighbors(q).filter(|&v| !removed[v]).count();
            if live_degree <= 1 {
                removed[q] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // Removed vertices stay as isolated qubits; the caller compacts labels
    // afterwards.
    let kept: Vec<(usize, usize)> = g
        .edges()
        .filter(|&(a, b)| !removed[a] && !removed[b])
        .collect();
    CouplingGraph::from_edges(g.name(), n, &kept)
}

/// Drops isolated vertices and relabels the rest contiguously.
fn relabel_compact(g: &CouplingGraph, name: impl Into<String>) -> CouplingGraph {
    let mut mapping = BTreeMap::new();
    let mut next = 0usize;
    for q in 0..g.num_qubits() {
        if g.degree(q) > 0 {
            mapping.insert(q, next);
            next += 1;
        }
    }
    let edges: Vec<(usize, usize)> = g.edges().map(|(a, b)| (mapping[&a], mapping[&b])).collect();
    CouplingGraph::from_edges(name, next, &edges)
}

// ---------------------------------------------------------------------------
// Hypercubes (Fig. 3)
// ---------------------------------------------------------------------------

/// The `dim`-dimensional hypercube on `2^dim` qubits.
pub fn hypercube(dim: u32) -> CouplingGraph {
    let n = 1usize << dim;
    CouplingGraph::from_edges(format!("hypercube-{dim}d"), n, &hypercube_edges(n))
}

/// A hypercube-like graph on exactly `n` qubits: the subgraph of the next
/// power-of-two hypercube induced on vertices `0..n` (the paper's §5
/// prescription for the 84-qubit comparison point).
pub fn hypercube_sized(n: usize) -> CouplingGraph {
    CouplingGraph::from_edges(format!("hypercube-{n}"), n, &hypercube_edges(n))
}

/// The hypercube couplings among qubits `0..n`: `v < u = v ^ 2^b < n` for
/// every bit `b`, i.e. the prefix of the next power-of-two hypercube.
fn hypercube_edges(n: usize) -> Vec<(usize, usize)> {
    let mut edges = Vec::new();
    for v in 0..n {
        let mut bit = 1;
        while bit < n {
            let u = v ^ bit;
            if v < u && u < n {
                edges.push((v, u));
            }
            bit <<= 1;
        }
    }
    edges
}

// ---------------------------------------------------------------------------
// SNAIL modular topologies (§4.3)
// ---------------------------------------------------------------------------

/// The modular 4-ary Tree (Fig. 7a / Fig. 8).
///
/// `levels = 1` gives the 20-qubit two-level tree (4 router qubits + 4 modules
/// of 4); `levels = 2` gives the 84-qubit four-level tree. Each module is a
/// SNAIL coupling its four qubits *and* the parent qubit, i.e. a 5-clique; the
/// four root router qubits form a 4-clique via the router SNAIL.
pub fn tree4(levels: usize) -> CouplingGraph {
    assert!(levels >= 1, "tree needs at least one module level");
    let mut num_qubits = 4usize;
    let mut level_size = 4usize;
    for _ in 0..levels {
        level_size *= 4;
        num_qubits += level_size;
    }
    // Root router clique.
    let mut edges = Vec::new();
    push_clique(&mut edges, &[0, 1, 2, 3]);

    // Each parent qubit sprouts a module of four children; the module SNAIL
    // couples {parent, child0..child3} all-to-all.
    let mut frontier: Vec<usize> = (0..4).collect();
    let mut next_id = 4usize;
    for _ in 0..levels {
        let mut new_frontier = Vec::new();
        for &parent in &frontier {
            let children: Vec<usize> = (0..4).map(|i| next_id + i).collect();
            next_id += 4;
            let members: Vec<usize> = std::iter::once(parent)
                .chain(children.iter().copied())
                .collect();
            push_clique(&mut edges, &members);
            new_frontier.extend(children);
        }
        frontier = new_frontier;
    }
    CouplingGraph::from_edges(format!("tree4-{}q", num_qubits), num_qubits, &edges)
}

/// The Round-Robin 4-ary Tree (Fig. 7b).
///
/// Modules keep their internal 4-clique, but instead of every module qubit
/// attaching to a single parent router qubit, qubit `j` of each module
/// attaches to router qubit `j` of the parent module — removing the
/// single-qubit bottleneck of the plain Tree. `levels = 1` gives 20 qubits,
/// `levels = 2` gives 84.
pub fn tree4_rr(levels: usize) -> CouplingGraph {
    assert!(levels >= 1, "tree needs at least one module level");
    let mut num_qubits = 4usize;
    let mut level_size = 4usize;
    for _ in 0..levels {
        level_size *= 4;
        num_qubits += level_size;
    }
    // Root router clique.
    let mut edges = Vec::new();
    push_clique(&mut edges, &[0, 1, 2, 3]);

    // `groups` holds, per parent module, the list of its four qubits in
    // round-robin slot order. The root module is qubits 0..4.
    let mut parent_groups: Vec<Vec<usize>> = vec![(0..4).collect()];
    let mut next_id = 4usize;
    for _ in 0..levels {
        let mut new_groups = Vec::new();
        for group in &parent_groups {
            // Each parent *group* spawns four child modules (one per parent
            // qubit slot); child module qubits connect round-robin across the
            // parent group's qubits.
            for _ in 0..4 {
                let children: Vec<usize> = (0..4).map(|i| next_id + i).collect();
                next_id += 4;
                // Internal module clique.
                push_clique(&mut edges, &children);
                // Round-robin uplinks: child j ↔ parent-slot j.
                edges.extend(children.iter().copied().zip(group.iter().copied()));
                new_groups.push(children);
            }
        }
        parent_groups = new_groups;
    }
    CouplingGraph::from_edges(format!("tree4rr-{}q", num_qubits), num_qubits, &edges)
}

/// A SNAIL Corral (Fig. 9).
///
/// `posts` SNAILs are arranged in a ring; each post carries two "fence"
/// qubits. The first fence of post `i` spans posts `(i, i + stride_a)`, the
/// second spans `(i, i + stride_b)` (indices mod `posts`). Two qubits are
/// coupled when they share a post (the post's SNAIL drives the pair).
/// `corral(8, 1, 1)` is the paper's Corral₁,₁ and `corral(8, 1, 2)` its
/// Corral₁,₂, both on 16 qubits.
pub fn corral(posts: usize, stride_a: usize, stride_b: usize) -> CouplingGraph {
    assert!(posts >= 3, "corral needs at least three posts");
    assert!(stride_a >= 1 && stride_b >= 1);
    let num_qubits = 2 * posts;
    // Qubit 2i   = fence A of post i, spanning posts i and i+stride_a.
    // Qubit 2i+1 = fence B of post i, spanning posts i and i+stride_b.
    let spans = |q: usize| -> (usize, usize) {
        let post = q / 2;
        let stride = if q.is_multiple_of(2) {
            stride_a
        } else {
            stride_b
        };
        (post, (post + stride) % posts)
    };
    // For every post, all attached qubits are pairwise coupled.
    let mut edges = Vec::new();
    for p in 0..posts {
        let attached: Vec<usize> = (0..num_qubits)
            .filter(|&q| {
                let (a, b) = spans(q);
                a == p || b == p
            })
            .collect();
        push_clique(&mut edges, &attached);
    }
    CouplingGraph::from_edges(
        format!("corral{stride_a},{stride_b}-{num_qubits}q"),
        num_qubits,
        &edges,
    )
}

// ---------------------------------------------------------------------------
// Calibrated-device noise sampling
// ---------------------------------------------------------------------------

/// Assigns every edge of `graph` a sampled "calibrated device" error rate.
///
/// Real devices report heterogeneous per-link calibration data whose error
/// rates span roughly an order of magnitude; this sampler reproduces that
/// regime by drawing each edge's rate log-uniformly from
/// `[base_error / e^spread, base_error · e^spread]` with a deterministic,
/// seeded stream (edges are visited in lexicographic order, so the same seed
/// always yields the same calibration). `spread = 0` leaves the device
/// uniform at `base_error`; `spread ≈ 1.2` covers a 10× range.
///
/// Rates are clamped to `[1e-6, 0.5)` so downstream log-fidelity sums stay
/// finite.
pub fn calibrate_edge_errors(graph: &mut CouplingGraph, base_error: f64, spread: f64, seed: u64) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    assert!(
        base_error > 0.0 && base_error < 1.0,
        "base_error out of range"
    );
    assert!(spread >= 0.0, "spread must be non-negative");
    graph.set_uniform_edge_error(base_error.min(0.5 - f64::EPSILON));
    if spread == 0.0 {
        return;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let edges: Vec<(usize, usize)> = graph.edges().collect();
    for (a, b) in edges {
        let exponent = rng.gen_range(-spread..spread);
        let rate = (base_error * exponent.exp()).clamp(1e-6, 0.5 - f64::EPSILON);
        graph.set_edge_error(a, b, rate);
    }
}

/// A copy of `graph` with sampled calibration noise (see
/// [`calibrate_edge_errors`]).
pub fn calibrated(graph: &CouplingGraph, base_error: f64, spread: f64, seed: u64) -> CouplingGraph {
    let mut g = graph.clone();
    calibrate_edge_errors(&mut g, base_error, spread, seed);
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_lattice_structure() {
        let g = square_lattice(4, 4);
        let m = g.metrics();
        assert_eq!(g.num_qubits(), 16);
        assert_eq!(g.num_edges(), 24);
        assert_eq!(m.diameter, 6);
        assert!((m.avg_connectivity - 3.0).abs() < 1e-12);
        assert!((m.avg_distance - 2.5).abs() < 1e-12);
    }

    #[test]
    fn square_lattice_84_matches_table2() {
        // Table 2: 84 qubits, diameter 17, avg distance 6.26, avg conn 3.55.
        let g = square_lattice(7, 12);
        let m = g.metrics();
        assert_eq!(g.num_qubits(), 84);
        assert_eq!(g.num_edges(), 149);
        assert_eq!(m.diameter, 17);
        assert!((m.avg_distance - 6.26).abs() < 0.01);
        assert!((m.avg_connectivity - 3.55).abs() < 0.01);
    }

    #[test]
    fn alt_diagonal_lattice_84_matches_table2() {
        // Table 2: diameter 11, avg distance 4.62, avg conn 5.12.
        let g = lattice_alt_diagonals(7, 12);
        let m = g.metrics();
        assert_eq!(g.num_qubits(), 84);
        assert_eq!(m.diameter, 11);
        assert!((m.avg_connectivity - 5.12).abs() < 0.02);
        assert!((m.avg_distance - 4.62).abs() < 0.05);
    }

    #[test]
    fn hex_lattice_counts() {
        // R×C honeycomb patch: V = 2(R+1)(C+1) − 2, E = 3RC + 2R + 2C − 1.
        for (r, c) in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 4)] {
            let g = hex_lattice(r, c);
            assert_eq!(g.num_qubits(), 2 * (r + 1) * (c + 1) - 2, "V for {r}x{c}");
            assert_eq!(
                g.num_edges(),
                3 * r * c + 2 * r + 2 * c - 1,
                "E for {r}x{c}"
            );
            assert!(g.is_connected());
        }
    }

    #[test]
    fn hex_lattice_degrees_are_at_most_three() {
        let g = hex_lattice(3, 3);
        for q in 0..g.num_qubits() {
            assert!(g.degree(q) <= 3, "qubit {q} degree {}", g.degree(q));
        }
    }

    #[test]
    fn heavy_hex_structure() {
        let hex = hex_lattice(1, 2);
        let heavy = heavy_hex(1, 2);
        assert_eq!(heavy.num_qubits(), hex.num_qubits() + hex.num_edges());
        assert_eq!(heavy.num_edges(), 2 * hex.num_edges());
        assert!(heavy.is_connected());
        // Heavy-hex degrees are 2 (edge qubits) or 3 (corner qubits).
        for q in 0..heavy.num_qubits() {
            assert!(heavy.degree(q) <= 3);
        }
    }

    #[test]
    fn hypercube_structure() {
        let g = hypercube(4);
        let m = g.metrics();
        assert_eq!(g.num_qubits(), 16);
        assert_eq!(g.num_edges(), 32);
        assert_eq!(m.diameter, 4);
        assert!((m.avg_connectivity - 4.0).abs() < 1e-12);
        assert!((m.avg_distance - 2.0).abs() < 1e-12);
    }

    #[test]
    fn hypercube_sized_84_matches_table2() {
        // Table 2: 84 qubits, avg conn 6.0, diameter 7, avg distance 3.32.
        let g = hypercube_sized(84);
        let m = g.metrics();
        assert_eq!(g.num_qubits(), 84);
        assert_eq!(g.num_edges(), 252);
        assert!((m.avg_connectivity - 6.0).abs() < 1e-12);
        assert_eq!(m.diameter, 7);
        assert!((m.avg_distance - 3.32).abs() < 0.05);
        assert!(g.is_connected());
    }

    #[test]
    fn tree20_matches_table1() {
        // Table 1: 20 qubits, diameter 3, avg distance 2.15, avg conn 4.6.
        let g = tree4(1);
        let m = g.metrics();
        assert_eq!(g.num_qubits(), 20);
        assert_eq!(g.num_edges(), 46);
        assert_eq!(m.diameter, 3);
        assert!((m.avg_distance - 2.15).abs() < 1e-9);
        assert!((m.avg_connectivity - 4.6).abs() < 1e-9);
    }

    #[test]
    fn tree_rr20_matches_table1() {
        // Table 1: 20 qubits, diameter 3, avg distance 2.03, avg conn 4.6.
        let g = tree4_rr(1);
        let m = g.metrics();
        assert_eq!(g.num_qubits(), 20);
        assert_eq!(g.num_edges(), 46);
        assert_eq!(m.diameter, 3);
        assert!((m.avg_distance - 2.03).abs() < 1e-9);
        assert!((m.avg_connectivity - 4.6).abs() < 1e-9);
    }

    #[test]
    fn tree84_structure() {
        // Table 2: 84 qubits, diameter 5, avg distance 3.91 (this
        // construction measures 3.85).
        let g = tree4(2);
        let m = g.metrics();
        assert_eq!(g.num_qubits(), 84);
        assert_eq!(m.diameter, 5);
        assert!((m.avg_distance - 3.91).abs() < 0.1);
        assert!(g.is_connected());
    }

    #[test]
    fn tree_rr84_structure() {
        // Table 2: 84 qubits, diameter 5, avg distance 3.65; the RR variant
        // must have a strictly smaller average distance than the plain tree.
        let g = tree4_rr(2);
        let m = g.metrics();
        assert_eq!(g.num_qubits(), 84);
        assert_eq!(m.diameter, 5);
        assert!(g.is_connected());
        assert!(m.avg_distance < tree4(2).metrics().avg_distance);
    }

    #[test]
    fn corral_11_matches_table1() {
        // Table 1: 16 qubits, diameter 4, avg distance 2.06, avg conn 5.0.
        let g = corral(8, 1, 1);
        let m = g.metrics();
        assert_eq!(g.num_qubits(), 16);
        assert_eq!(g.num_edges(), 40);
        assert_eq!(m.diameter, 4);
        assert!((m.avg_connectivity - 5.0).abs() < 1e-9);
        assert!((m.avg_distance - 2.06).abs() < 0.01);
    }

    #[test]
    fn corral_stride_two_structure() {
        // The literal stride-(1,2) corral: 6-regular but diameter 3.
        let g = corral(8, 1, 2);
        let m = g.metrics();
        assert_eq!(g.num_qubits(), 16);
        assert_eq!(g.num_edges(), 48);
        assert_eq!(m.diameter, 3);
        assert!((m.avg_connectivity - 6.0).abs() < 1e-9);
    }

    #[test]
    fn corral_long_stride_matches_table1_corral12_row() {
        // Table 1's Corral1,2 row (16 qubits, diameter 2, avg distance 1.5,
        // avg conn 6.0) is reproduced exactly by the stride-(1,3) corral; see
        // the catalog documentation for the discussion.
        let g = corral(8, 1, 3);
        let m = g.metrics();
        assert_eq!(g.num_qubits(), 16);
        assert_eq!(g.num_edges(), 48);
        assert_eq!(m.diameter, 2);
        assert!((m.avg_connectivity - 6.0).abs() < 1e-9);
        assert!((m.avg_distance - 1.5).abs() < 1e-9);
    }

    #[test]
    fn all_named_builders_produce_connected_graphs() {
        let graphs = vec![
            square_lattice(4, 4),
            lattice_alt_diagonals(4, 4),
            hex_lattice(2, 3),
            heavy_hex(2, 3),
            hypercube(4),
            hypercube_sized(84),
            tree4(1),
            tree4(2),
            tree4_rr(1),
            tree4_rr(2),
            corral(8, 1, 1),
            corral(8, 1, 2),
            line(10),
            ring(10),
            star(6),
            complete(6),
        ];
        for g in graphs {
            assert!(g.is_connected(), "{} is disconnected", g.name());
        }
    }

    #[test]
    fn corral_degrees_are_uniform() {
        let g = corral(8, 1, 1);
        for q in 0..g.num_qubits() {
            assert_eq!(g.degree(q), 5, "qubit {q}");
        }
        let g = corral(8, 1, 2);
        for q in 0..g.num_qubits() {
            assert_eq!(g.degree(q), 6, "qubit {q}");
        }
    }

    #[test]
    fn calibration_is_seed_deterministic_and_bounded() {
        let base = corral(8, 1, 1);
        let a = calibrated(&base, 1e-3, 1.2, 42);
        let b = calibrated(&base, 1e-3, 1.2, 42);
        let c = calibrated(&base, 1e-3, 1.2, 43);
        let mut differs = false;
        for ((edge, ea), (_, eb)) in a.edge_errors().zip(b.edge_errors()) {
            assert_eq!(ea, eb, "same seed must give same rates on {edge:?}");
            assert!((1e-6..0.5).contains(&ea));
        }
        for ((_, ea), (_, ec)) in a.edge_errors().zip(c.edge_errors()) {
            differs |= ea != ec;
        }
        assert!(
            differs,
            "different seeds should give different calibrations"
        );
        assert!(!a.edge_errors_uniform());
    }

    #[test]
    fn zero_spread_calibration_stays_uniform() {
        let g = calibrated(&line(6), 2e-3, 0.0, 1);
        assert!(g.edge_errors_uniform());
        assert_eq!(g.default_edge_error(), 2e-3);
    }

    #[test]
    fn tree_root_is_a_clique() {
        let g = tree4(1);
        for a in 0..4 {
            for b in (a + 1)..4 {
                assert!(g.has_edge(a, b));
            }
        }
    }
}
