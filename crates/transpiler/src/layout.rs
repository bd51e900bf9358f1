//! Initial qubit placement (the "Placement" box of Fig. 10).
//!
//! The paper uses Qiskit's `DenseLayout`: program qubits are packed into the
//! most densely connected region of the device so that, before any routing,
//! as many program interactions as possible are already adjacent. A trivial
//! identity layout is also provided for tests and ablations.
//!
//! # Scaling
//!
//! On devices up to [`EXHAUSTIVE_SEED_LIMIT`] qubits,
//! [`LayoutStrategy::Dense`] tries every qubit as the growth seed — exactly
//! the legacy all-seeds sweep, so its output is bitwise-identical to the
//! pre-kiloqubit implementation and the frozen digests hold. Above the limit
//! an exhaustive sweep would be O(n²·E); instead up to
//! [`MAX_SEED_CANDIDATES`] seeds are spread across the connected components
//! large enough to hold the program (largest components first, each
//! contributing its highest-degree qubits from evenly spaced spans), and
//! growth breaks edge-count ties toward qubits discovered closer to the seed.
//! The depth tie-break matters: the legacy lowest-index rule relies on trying
//! every seed to stumble on a compact region, and with few seeds it
//! degenerates into low-index "strips" on lattices (measured ~5× the SWAPs on
//! a 625-qubit grid). Region growth itself is incremental in both regimes: a
//! max-heap keyed by edges-into-the-region picks each addition in O(log E)
//! and the internal-edge count accumulates as the region grows, replacing the
//! legacy per-seed recount of every graph edge.
//!
//! # Disconnected devices
//!
//! Growth never crosses a component boundary, so a layout is only possible
//! when some component holds the whole program. When none does,
//! [`LayoutStrategy::try_compute`] returns a [`LayoutError`] naming the
//! shortfall — the legacy code silently fell back to the `(0..k)` identity
//! prefix, which could straddle components and strand the router on
//! unreachable qubit pairs.

use snailqc_circuit::Circuit;
use snailqc_topology::CouplingGraph;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Largest device (in qubits) on which [`LayoutStrategy::Dense`] tries every
/// qubit as a region seed. This keeps every catalog topology (≤ 84 qubits) on
/// the legacy exhaustive path — bitwise-identical output — while kiloqubit
/// devices switch to component-seeded growth.
pub const EXHAUSTIVE_SEED_LIMIT: usize = 84;

/// Cap on the number of growth seeds tried above [`EXHAUSTIVE_SEED_LIMIT`],
/// spread across the connected components that can hold the program
/// (largest components first).
pub const MAX_SEED_CANDIDATES: usize = 16;

/// A mapping between logical (program) qubits and physical (device) qubits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    logical_to_physical: Vec<usize>,
    physical_to_logical: Vec<Option<usize>>,
}

impl Layout {
    /// Builds a layout from an explicit logical→physical assignment.
    ///
    /// # Panics
    /// Panics if the assignment is not injective or references a physical
    /// qubit outside the device.
    pub fn new(logical_to_physical: Vec<usize>, num_physical: usize) -> Self {
        let mut physical_to_logical = vec![None; num_physical];
        for (logical, &physical) in logical_to_physical.iter().enumerate() {
            assert!(
                physical < num_physical,
                "physical qubit {physical} out of range"
            );
            assert!(
                physical_to_logical[physical].is_none(),
                "physical qubit {physical} assigned twice"
            );
            physical_to_logical[physical] = Some(logical);
        }
        Self {
            logical_to_physical,
            physical_to_logical,
        }
    }

    /// The identity layout on `n` qubits of an `num_physical`-qubit device.
    pub fn trivial(num_logical: usize, num_physical: usize) -> Self {
        assert!(num_logical <= num_physical);
        Self::new((0..num_logical).collect(), num_physical)
    }

    /// Number of logical qubits.
    pub fn num_logical(&self) -> usize {
        self.logical_to_physical.len()
    }

    /// Number of physical qubits.
    pub fn num_physical(&self) -> usize {
        self.physical_to_logical.len()
    }

    /// Physical qubit hosting `logical`.
    pub fn physical(&self, logical: usize) -> usize {
        self.logical_to_physical[logical]
    }

    /// Logical qubit hosted on `physical`, if any.
    pub fn logical(&self, physical: usize) -> Option<usize> {
        self.physical_to_logical[physical]
    }

    /// The full logical→physical vector.
    pub fn as_slice(&self) -> &[usize] {
        &self.logical_to_physical
    }

    /// Swaps the logical occupants of two physical qubits (either or both may
    /// be unoccupied).
    pub fn swap_physical(&mut self, a: usize, b: usize) {
        let la = self.physical_to_logical[a];
        let lb = self.physical_to_logical[b];
        self.physical_to_logical[a] = lb;
        self.physical_to_logical[b] = la;
        if let Some(l) = la {
            self.logical_to_physical[l] = b;
        }
        if let Some(l) = lb {
            self.logical_to_physical[l] = a;
        }
    }
}

/// Why an initial layout could not be computed: the program does not fit in
/// any single connected component of the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayoutError {
    /// Logical qubits the circuit needs.
    pub requested: usize,
    /// Size of the device's largest connected component.
    pub largest_component: usize,
    /// Number of connected components the device has.
    pub components: usize,
}

impl std::fmt::Display for LayoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "circuit needs {} qubits but the largest connected component of the \
             device has only {} (device has {} component{})",
            self.requested,
            self.largest_component,
            self.components,
            if self.components == 1 { "" } else { "s" }
        )
    }
}

impl std::error::Error for LayoutError {}

/// Strategy for choosing the initial layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum LayoutStrategy {
    /// Logical qubit `i` starts on physical qubit `i`.
    Trivial,
    /// Pack program qubits into the densest connected region of the device
    /// (Qiskit `DenseLayout` analogue), then match busy program qubits to
    /// well-connected physical qubits.
    Dense,
}

impl LayoutStrategy {
    /// Computes the initial layout for `circuit` on `graph`, reporting a
    /// [`LayoutError`] when the program does not fit in a single connected
    /// component (instead of handing the router an unroutable placement).
    pub fn try_compute(
        &self,
        circuit: &Circuit,
        graph: &CouplingGraph,
    ) -> Result<Layout, LayoutError> {
        match self {
            LayoutStrategy::Trivial => {
                let k = circuit.num_qubits();
                let n = graph.num_qubits();
                if k > n {
                    return Err(LayoutError {
                        requested: k,
                        largest_component: n,
                        components: 1,
                    });
                }
                Ok(Layout::trivial(k, n))
            }
            LayoutStrategy::Dense => try_dense_layout(circuit, graph),
        }
    }
}

/// Greedy densest-subgraph placement.
///
/// For each seed qubit (every qubit up to [`EXHAUSTIVE_SEED_LIMIT`] devices,
/// up to [`MAX_SEED_CANDIDATES`] component-spread seeds beyond), grow a
/// connected set of the required size by repeatedly adding the outside qubit
/// with the most edges into the set; keep the set with the most internal
/// edges. Program qubits are then assigned to the chosen region with the
/// busiest program qubits on the best-connected physical qubits.
///
/// # Errors
/// Returns a [`LayoutError`] when no connected component of the device can
/// hold the whole program (including the `k > n` case).
pub(crate) fn try_dense_layout(
    circuit: &Circuit,
    graph: &CouplingGraph,
) -> Result<Layout, LayoutError> {
    let k = circuit.num_qubits();
    let n = graph.num_qubits();
    if k == 0 {
        return Ok(Layout::new(Vec::new(), n));
    }

    let mut grower = RegionGrower::new(n);
    let mut best_set: Option<Vec<usize>> = None;
    let mut best_edges = 0usize;
    let mut try_seed = |seed: usize, compact: bool, grower: &mut RegionGrower| {
        if let Some((set, internal_edges)) = grower.grow(graph, seed, k, compact) {
            if internal_edges > best_edges || best_set.is_none() {
                best_edges = internal_edges;
                best_set = Some(set);
            }
        }
    };
    if n <= EXHAUSTIVE_SEED_LIMIT {
        // Legacy all-seeds sweep: bitwise-identical region choice.
        for seed in 0..n {
            try_seed(seed, false, &mut grower);
        }
    } else {
        for seed in spread_seeds(graph, k) {
            try_seed(seed, true, &mut grower);
        }
    }

    let Some(mut region) = best_set else {
        // No seed grew to size k: the program straddles every component.
        let components = graph.connected_components();
        return Err(LayoutError {
            requested: k,
            largest_component: components.first().map_or(0, |m| m.len()),
            components: components.len().max(1),
        });
    };

    // Rank physical qubits in the region by connectivity inside the region.
    let in_region: Vec<bool> = {
        let mut v = vec![false; n];
        for &p in &region {
            v[p] = true;
        }
        v
    };
    region.sort_by_key(|&p| {
        let deg = graph.neighbors(p).filter(|&x| in_region[x]).count();
        (Reverse(deg), p)
    });

    // Rank program qubits by how many two-qubit gates touch them.
    let mut usage = vec![0usize; k];
    for inst in circuit.instructions() {
        if inst.is_two_qubit() {
            for &q in &inst.qubits {
                usage[q] += 1;
            }
        }
    }
    let mut logical_order: Vec<usize> = (0..k).collect();
    logical_order.sort_by_key(|&q| (Reverse(usage[q]), q));

    let mut logical_to_physical = vec![0usize; k];
    for (rank, &logical) in logical_order.iter().enumerate() {
        logical_to_physical[logical] = region[rank];
    }
    Ok(Layout::new(logical_to_physical, n))
}

/// Picks up to [`MAX_SEED_CANDIDATES`] growth seeds on a large device:
/// every connected component that can hold a `k`-qubit program (largest
/// first) contributes seeds from evenly spaced spans of its index-sorted
/// members, each span seeding from its highest-degree qubit (lowest index
/// on degree ties). Spreading the spans keeps the seeds structurally
/// diverse — on a lattice they land in different rows instead of all
/// clustering at the low-index corner — so the best-of-seeds pass still
/// compares genuinely different regions. Returns an empty vector when no
/// component fits.
fn spread_seeds(graph: &CouplingGraph, k: usize) -> Vec<usize> {
    let eligible: Vec<Vec<usize>> = graph
        .connected_components()
        .into_iter()
        .filter(|members| members.len() >= k)
        .collect();
    let mut seeds = Vec::new();
    if eligible.is_empty() {
        return seeds;
    }
    let quota = (MAX_SEED_CANDIDATES / eligible.len()).max(1);
    for members in &eligible {
        let spans = quota.min(members.len());
        for j in 0..spans {
            let lo = j * members.len() / spans;
            let hi = ((j + 1) * members.len() / spans).max(lo + 1);
            let seed = members[lo..hi]
                .iter()
                .copied()
                .max_by_key(|&q| (graph.degree(q), Reverse(q)))
                .expect("spans are non-empty");
            seeds.push(seed);
            if seeds.len() == MAX_SEED_CANDIDATES {
                return seeds;
            }
        }
    }
    seeds
}

/// Reusable scratch state for greedy region growth: grows a connected set
/// from a seed, always adding the outside qubit with the most edges into the
/// set, while accumulating the region's internal edge count incrementally.
///
/// Edge-count ties break two ways. The legacy rule (`compact = false`, the
/// exhaustive ≤[`EXHAUSTIVE_SEED_LIMIT`] path) takes the lowest index —
/// bitwise-identical to the pre-kiloqubit implementation. The compact rule
/// (`compact = true`, the capped-seeds path) prefers the qubit discovered at
/// the smallest BFS depth from the seed, then the lowest index: with only a
/// handful of seeds the lowest-index rule walks lattices into long low-index
/// strips, while the depth tie-break keeps the region a ball around the
/// seed.
///
/// The heap holds `(edges-into-set, Reverse(depth), Reverse(qubit))`
/// entries with lazy invalidation: a popped entry is live only if its qubit
/// is still outside the set and its score matches the current counter (each
/// increment pushes a fresh entry, so the newest — highest — score is the
/// live one; a qubit's discovery depth never changes). On the legacy path
/// every entry carries depth 0, collapsing the ordering to the legacy "max
/// score, min index" choice, found in O(log E) instead of rescanning the
/// whole boundary per addition.
struct RegionGrower {
    in_set: Vec<bool>,
    edges_into: Vec<usize>,
    depth: Vec<u32>,
    heap: BinaryHeap<(usize, Reverse<u32>, Reverse<usize>)>,
    set: Vec<usize>,
}

impl RegionGrower {
    fn new(n: usize) -> Self {
        Self {
            in_set: vec![false; n],
            edges_into: vec![0; n],
            depth: vec![0; n],
            heap: BinaryHeap::new(),
            set: Vec::new(),
        }
    }

    /// Grows a size-`k` connected set from `seed`; returns the set (in
    /// growth order) and its internal edge count, or `None` when the seed's
    /// component has fewer than `k` qubits.
    fn grow(
        &mut self,
        graph: &CouplingGraph,
        seed: usize,
        k: usize,
        compact: bool,
    ) -> Option<(Vec<usize>, usize)> {
        self.set.push(seed);
        self.in_set[seed] = true;
        for nb in graph.neighbors(seed) {
            self.edges_into[nb] += 1;
            if compact {
                self.depth[nb] = 1;
            }
            self.heap
                .push((self.edges_into[nb], Reverse(self.depth[nb]), Reverse(nb)));
        }
        let mut internal_edges = 0usize;
        while self.set.len() < k {
            let mut live = None;
            while let Some((score, _, Reverse(cand))) = self.heap.pop() {
                if !self.in_set[cand] && self.edges_into[cand] == score {
                    live = Some((cand, score));
                    break;
                }
            }
            let Some((cand, score)) = live else {
                break; // boundary exhausted: component smaller than k
            };
            self.set.push(cand);
            self.in_set[cand] = true;
            internal_edges += score;
            for nb in graph.neighbors(cand) {
                if !self.in_set[nb] {
                    let first_discovery = self.edges_into[nb] == 0;
                    self.edges_into[nb] += 1;
                    if compact && first_discovery {
                        self.depth[nb] = self.depth[cand] + 1;
                    }
                    self.heap
                        .push((self.edges_into[nb], Reverse(self.depth[nb]), Reverse(nb)));
                }
            }
        }
        let grown = self.set.len() == k;
        let result = grown.then(|| (self.set.clone(), internal_edges));
        // Reset only what this growth touched, so a failed seed on a huge
        // device costs its component size, not O(n).
        for i in 0..self.set.len() {
            let member = self.set[i];
            self.in_set[member] = false;
            self.edges_into[member] = 0;
            self.depth[member] = 0;
            for nb in graph.neighbors(member) {
                self.edges_into[nb] = 0;
                self.depth[nb] = 0;
            }
        }
        self.set.clear();
        self.heap.clear();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snailqc_topology::builders;

    fn interacting_circuit(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        for i in 0..n - 1 {
            c.cx(i, i + 1);
        }
        c
    }

    #[test]
    fn trivial_layout_is_identity() {
        let l = Layout::trivial(3, 5);
        assert_eq!(l.as_slice(), &[0, 1, 2]);
        assert_eq!(l.logical(4), None);
        assert_eq!(l.physical(2), 2);
    }

    #[test]
    #[should_panic(expected = "assigned twice")]
    fn layout_rejects_duplicates() {
        Layout::new(vec![0, 0], 3);
    }

    #[test]
    fn swap_physical_updates_both_directions() {
        let mut l = Layout::trivial(2, 4);
        l.swap_physical(1, 3);
        assert_eq!(l.physical(1), 3);
        assert_eq!(l.logical(3), Some(1));
        assert_eq!(l.logical(1), None);
        // Swapping two empty physical qubits is a no-op.
        l.swap_physical(1, 2);
        assert_eq!(l.logical(1), None);
        assert_eq!(l.logical(2), None);
    }

    #[test]
    fn dense_layout_is_a_valid_injection() {
        let graph = builders::square_lattice(4, 4);
        let circuit = interacting_circuit(6);
        let layout = try_dense_layout(&circuit, &graph).unwrap();
        let mut seen = std::collections::HashSet::new();
        for q in 0..6 {
            assert!(seen.insert(layout.physical(q)));
            assert!(layout.physical(q) < 16);
        }
    }

    #[test]
    fn dense_layout_picks_a_dense_region() {
        // On a star graph, the densest 3-qubit region must include the hub.
        let graph = builders::star(8);
        let circuit = interacting_circuit(3);
        let layout = try_dense_layout(&circuit, &graph).unwrap();
        let physical: Vec<usize> = (0..3).map(|q| layout.physical(q)).collect();
        assert!(physical.contains(&0), "hub not selected: {physical:?}");
    }

    #[test]
    fn dense_layout_on_tree_prefers_a_module() {
        // A 5-qubit program on the 20-qubit SNAIL tree should fit in one
        // module (a 5-clique), so every program pair is already adjacent.
        let graph = snailqc_topology::catalog::tree_20();
        let circuit = interacting_circuit(5);
        let layout = try_dense_layout(&circuit, &graph).unwrap();
        for a in 0..5 {
            for b in (a + 1)..5 {
                assert!(
                    graph.has_edge(layout.physical(a), layout.physical(b)),
                    "qubits {a},{b} not adjacent"
                );
            }
        }
    }

    #[test]
    fn dense_layout_handles_full_device() {
        let graph = builders::square_lattice(3, 3);
        let circuit = interacting_circuit(9);
        let layout = try_dense_layout(&circuit, &graph).unwrap();
        let mut phys: Vec<usize> = (0..9).map(|q| layout.physical(q)).collect();
        phys.sort_unstable();
        assert_eq!(phys, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn dense_layout_on_disconnected_device_uses_one_component() {
        // Two islands: a 3×3 grid (qubits 0..9) and a 2-path (9, 10). A
        // 6-qubit program must land entirely inside the grid.
        let mut edges: Vec<(usize, usize)> = builders::square_lattice(3, 3).edges().collect();
        edges.push((9, 10));
        let graph = CouplingGraph::from_edges("islands", 11, &edges);
        let circuit = interacting_circuit(6);
        let layout = try_dense_layout(&circuit, &graph).expect("6 qubits fit the 9-qubit grid");
        for q in 0..6 {
            assert!(layout.physical(q) < 9, "logical {q} strayed off the grid");
        }
    }

    #[test]
    fn dense_layout_errors_when_no_component_fits() {
        let graph = CouplingGraph::from_edges("islands", 6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let circuit = interacting_circuit(4);
        let err = try_dense_layout(&circuit, &graph).unwrap_err();
        assert_eq!(err.requested, 4);
        assert_eq!(err.largest_component, 3);
        assert_eq!(err.components, 2);
        assert!(err.to_string().contains("largest connected component"));
    }

    #[test]
    fn dense_layout_errors_when_device_too_small() {
        let graph = builders::line(3);
        let circuit = interacting_circuit(5);
        let err = try_dense_layout(&circuit, &graph).unwrap_err();
        assert_eq!(err.requested, 5);
        assert_eq!(err.largest_component, 3);
    }

    #[test]
    fn component_seeded_path_matches_exhaustive_on_a_connected_device() {
        // Same device twice: once under the exhaustive limit (grown per
        // seed), once forced down the component-seeded path by embedding it
        // unchanged in a graph that is above the limit only nominally. On a
        // connected device the component path seeds from the single
        // highest-degree qubit; the chosen region must still be a densest
        // region (every program pair adjacent on a tree module).
        let graph = snailqc_topology::catalog::tree_84();
        assert!(graph.num_qubits() <= EXHAUSTIVE_SEED_LIMIT);
        let circuit = interacting_circuit(5);
        let exhaustive = try_dense_layout(&circuit, &graph).unwrap();
        assert_eq!(exhaustive.num_logical(), 5);
        // 85-qubit variant: the 84q tree plus one dangling qubit attached to
        // qubit 0 — now over the limit, so the component path runs.
        let mut edges: Vec<(usize, usize)> = graph.edges().collect();
        edges.push((0, 84));
        let big = CouplingGraph::from_edges("tree-85", 85, &edges);
        let seeded = try_dense_layout(&circuit, &big).unwrap();
        let mut phys: Vec<usize> = (0..5).map(|q| seeded.physical(q)).collect();
        phys.sort_unstable();
        assert_eq!(phys.len(), 5);
        for q in phys {
            assert!(q < 85);
        }
    }

    #[test]
    fn try_compute_trivial_rejects_oversized_programs() {
        let graph = builders::line(3);
        let err = LayoutStrategy::Trivial
            .try_compute(&interacting_circuit(4), &graph)
            .unwrap_err();
        assert_eq!(err.requested, 4);
    }

    #[test]
    fn strategy_dispatch() {
        let graph = builders::square_lattice(3, 3);
        let circuit = interacting_circuit(4);
        let trivial = LayoutStrategy::Trivial
            .try_compute(&circuit, &graph)
            .unwrap();
        assert_eq!(trivial.as_slice(), &[0, 1, 2, 3]);
        let dense = LayoutStrategy::Dense.try_compute(&circuit, &graph).unwrap();
        assert_eq!(dense.num_logical(), 4);
    }
}
