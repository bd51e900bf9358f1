//! Undirected coupling graphs and their structural metrics.
//!
//! A coupling graph records which physical qubit pairs can host a native
//! two-qubit gate, and carries a per-edge gate error rate (uniform by
//! default; settable per edge for calibrated-device studies). The paper
//! characterizes every topology by the metrics of Tables 1 and 2 — qubit
//! count, diameter, average pairwise distance and average connectivity
//! (degree) — all of which are provided here, along with the shortest-path
//! machinery (hop-count BFS and error-weighted Dijkstra) the router needs.
//!
//! [`CouplingGraph::bfs_hop_lanes`] is the one BFS distance kernel: a
//! multi-source BFS that carries up to [`HOP_LANES`] sources as the bit
//! lanes of one `u64` per qubit. Hop rows, one at a time or in batches, the
//! Tables 1 and 2 metrics and the connectivity check all run it.
//!
//! [`CouplingGraph::from_edges`] is the one constructor: every builder,
//! transform and device spec collects its edge list and makes one call,
//! which sorts the list and fills the CSR in one O(E log E) pass.
//!
//! Internally the graph is stored in CSR (compressed sparse row) form: one
//! flat `offsets` array and one flat sorted neighbor slice, so the router's
//! hot loops (`neighbors`, `has_edge`, BFS/Dijkstra relaxation) are
//! cache-friendly array scans instead of tree walks. Every edge additionally
//! carries a stable **edge index** — its rank in the lexicographic `(min,
//! max)` edge order — which lets per-edge data (error rates, router
//! penalties, candidate bitmaps) live in plain `Vec`s indexed by
//! [`CouplingGraph::edge_index`].

use crate::distance::MAX_QUBITS;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// The uniform per-edge two-qubit error rate every graph starts with. It
/// matches the paper's running example of a 99.9%-fidelity basis pulse (the
/// `ErrorModel` default in `snailqc-core`), so edge-aware and uniform
/// fidelity estimates agree on an uncalibrated device.
pub const DEFAULT_EDGE_ERROR: f64 = 1e-3;

/// Sources one pass of [`CouplingGraph::bfs_hop_lanes`] takes: one bit lane
/// of a `u64` each.
pub const HOP_LANES: usize = u64::BITS as usize;

/// An undirected graph over qubits `0..num_qubits`, stored as a CSR
/// adjacency plus a lexicographically ordered edge list.
#[derive(Debug, Clone, PartialEq)]
pub struct CouplingGraph {
    name: String,
    /// CSR row offsets: the neighbors of `q` are
    /// `csr_neighbors[offsets[q]..offsets[q + 1]]`, ascending.
    offsets: Vec<usize>,
    /// Flat neighbor array (each undirected edge appears twice).
    csr_neighbors: Vec<usize>,
    /// Edge index of `(q, neighbor)`, parallel to `csr_neighbors`.
    csr_edge_ids: Vec<usize>,
    /// Edges as `(min, max)` pairs in lexicographic order; the position of
    /// an edge in this list is its stable edge index.
    edge_list: Vec<(usize, usize)>,
    /// Error rate applied to every edge without an explicit override.
    default_edge_error: f64,
    /// Resolved per-edge error rates, indexed by edge index.
    edge_rates: Vec<f64>,
    /// True where [`CouplingGraph::set_edge_error`] recorded an explicit
    /// override (distinguishes a calibrated edge from the uniform default).
    edge_overridden: Vec<bool>,
}

/// The structural summary reported in the paper's Tables 1 and 2.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct TopologyMetrics {
    /// Number of qubits.
    pub qubits: usize,
    /// Graph diameter (longest shortest path).
    pub diameter: usize,
    /// Average pairwise distance, averaged over *all ordered pairs including
    /// self-pairs* (the convention that reproduces the paper's Table 1).
    pub avg_distance: f64,
    /// Average vertex degree ("average connectivity").
    pub avg_connectivity: f64,
}

impl CouplingGraph {
    /// Builds a graph from an explicit edge list, the one way to make a
    /// graph. Pairs may come in any order and either orientation;
    /// self-loops and duplicates are ignored, and an empty list gives an
    /// edgeless graph. Every edge starts at [`DEFAULT_EDGE_ERROR`]. The
    /// sorted, deduplicated list fixes the edge indices, and the CSR is
    /// filled in one pass over it, so a build is O(E log E).
    ///
    /// # Panics
    /// Panics if an endpoint is not below `num_qubits`.
    pub fn from_edges(
        name: impl Into<String>,
        num_qubits: usize,
        edges: &[(usize, usize)],
    ) -> Self {
        let mut list: Vec<(usize, usize)> = edges
            .iter()
            .map(|&(a, b)| {
                assert!(
                    a < num_qubits && b < num_qubits,
                    "edge ({a},{b}) out of range"
                );
                (a.min(b), a.max(b))
            })
            .filter(|(a, b)| a != b)
            .collect();
        list.sort_unstable();
        list.dedup();
        let mut offsets = vec![0; num_qubits + 1];
        for &(a, b) in &list {
            offsets[a + 1] += 1;
            offsets[b + 1] += 1;
        }
        for q in 0..num_qubits {
            offsets[q + 1] += offsets[q];
        }
        // Walking the edges in lexicographic order appends each row's
        // smaller neighbors (as the max endpoint) before its larger ones (as
        // the min endpoint), both ascending, so every row comes out sorted.
        let mut next = offsets.clone();
        let mut csr_neighbors = vec![0; 2 * list.len()];
        let mut csr_edge_ids = vec![0; 2 * list.len()];
        for (id, &(a, b)) in list.iter().enumerate() {
            for (u, v) in [(a, b), (b, a)] {
                csr_neighbors[next[u]] = v;
                csr_edge_ids[next[u]] = id;
                next[u] += 1;
            }
        }
        Self {
            name: name.into(),
            offsets,
            csr_neighbors,
            csr_edge_ids,
            default_edge_error: DEFAULT_EDGE_ERROR,
            edge_rates: vec![DEFAULT_EDGE_ERROR; list.len()],
            edge_overridden: vec![false; list.len()],
            edge_list: list,
        }
    }

    /// Human-readable topology name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the graph (used by truncation and catalog helpers).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The sorted neighbor slice of `q`.
    #[inline]
    fn neighbor_slice(&self, q: usize) -> &[usize] {
        &self.csr_neighbors[self.offsets[q]..self.offsets[q + 1]]
    }

    /// True when `(a, b)` is an edge.
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        a < self.num_qubits() && self.neighbor_slice(a).binary_search(&b).is_ok()
    }

    /// Neighbors of `q` in ascending order.
    pub fn neighbors(&self, q: usize) -> impl Iterator<Item = usize> + '_ {
        self.neighbor_slice(q).iter().copied()
    }

    /// Neighbors of `q` in ascending order, each paired with the index of
    /// the connecting edge — the hot-path iterator that lets callers keep
    /// per-edge data in edge-indexed `Vec`s.
    pub fn neighbors_with_edge_ids(&self, q: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        let range = self.offsets[q]..self.offsets[q + 1];
        self.csr_neighbors[range.clone()]
            .iter()
            .copied()
            .zip(self.csr_edge_ids[range].iter().copied())
    }

    /// Degree of `q`.
    pub fn degree(&self, q: usize) -> usize {
        self.offsets[q + 1] - self.offsets[q]
    }

    /// All edges as `(min, max)` pairs in lexicographic order — i.e. in
    /// edge-index order. Iterates the stored edge list without allocating,
    /// so it is safe to call inside hot loops (layout seeding, router cost
    /// models).
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.edge_list.iter().copied()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edge_list.len()
    }

    // -----------------------------------------------------------------------
    // Edge index
    // -----------------------------------------------------------------------

    /// The stable index of edge `(a, b)` (order-insensitive): its rank in
    /// the lexicographic `(min, max)` edge order, i.e. its position in
    /// [`CouplingGraph::edges`]. `None` when `(a, b)` is not an edge.
    pub fn edge_index(&self, a: usize, b: usize) -> Option<usize> {
        if a >= self.num_qubits() {
            return None;
        }
        let pos = self.neighbor_slice(a).binary_search(&b).ok()?;
        Some(self.csr_edge_ids[self.offsets[a] + pos])
    }

    // -----------------------------------------------------------------------
    // Per-edge error rates
    // -----------------------------------------------------------------------

    /// The error rate of edge `(a, b)` (order-insensitive): the per-edge
    /// override when one was set, the uniform default otherwise.
    ///
    /// # Panics
    /// Panics if `(a, b)` is not an edge.
    pub fn edge_error(&self, a: usize, b: usize) -> f64 {
        let idx = self
            .edge_index(a, b)
            .unwrap_or_else(|| panic!("({a},{b}) is not an edge"));
        self.edge_rates[idx]
    }

    /// Sets the error rate of edge `(a, b)`.
    ///
    /// # Panics
    /// Panics if `(a, b)` is not an edge or `rate` is outside `[0, 1)`.
    pub fn set_edge_error(&mut self, a: usize, b: usize, rate: f64) {
        let idx = self
            .edge_index(a, b)
            .unwrap_or_else(|| panic!("({a},{b}) is not an edge"));
        assert!((0.0..1.0).contains(&rate), "edge error {rate} not in [0,1)");
        self.edge_rates[idx] = rate;
        self.edge_overridden[idx] = true;
    }

    /// Resets every edge to the uniform error `rate`, discarding overrides.
    ///
    /// # Panics
    /// Panics if `rate` is outside `[0, 1)`.
    pub fn set_uniform_edge_error(&mut self, rate: f64) {
        assert!((0.0..1.0).contains(&rate), "edge error {rate} not in [0,1)");
        self.default_edge_error = rate;
        self.edge_rates.iter_mut().for_each(|r| *r = rate);
        self.edge_overridden.iter_mut().for_each(|o| *o = false);
    }

    /// The uniform error rate edges fall back to without an override.
    pub fn default_edge_error(&self) -> f64 {
        self.default_edge_error
    }

    /// True when every edge carries the same error rate — whether from the
    /// default or from overrides that happen to agree — i.e. noise-aware
    /// routing degenerates to the noise-blind heuristic.
    pub fn edge_errors_uniform(&self) -> bool {
        // Overrides only make the device heterogeneous if one differs from
        // another, or from the default while some edge still uses the default.
        let mut overrides = self
            .edge_rates
            .iter()
            .zip(&self.edge_overridden)
            .filter(|(_, &o)| o)
            .map(|(&r, _)| r);
        let Some(first) = overrides.next() else {
            return true;
        };
        if !overrides.all(|r| r == first) {
            return false;
        }
        first == self.default_edge_error
            || self.edge_overridden.iter().filter(|&&o| o).count() == self.num_edges()
    }

    /// Every edge with its error rate, in lexicographic edge order.
    pub fn edge_errors(&self) -> impl Iterator<Item = ((usize, usize), f64)> + '_ {
        self.edge_list
            .iter()
            .copied()
            .zip(self.edge_rates.iter().copied())
    }

    /// Breadth-first hop counts from up to [`HOP_LANES`] sources at once,
    /// one bit lane of a `u64` per source (a top-down multi-source BFS, as
    /// in Then et al., "The More the Merrier", VLDB 2014). This is the one
    /// BFS distance kernel: the router's lazy rows and their batch fill,
    /// [`CouplingGraph::metrics`] and [`CouplingGraph::is_connected`] all
    /// run it.
    ///
    /// `visit(qubit, lanes, hops)` reports lanes that first reach `qubit`
    /// at `hops`: bit `i` of `lanes` set means `sources[i]` is `hops` hops
    /// from `qubit`. Every reachable `(lane, qubit)` pair is reported
    /// exactly once; unreachable pairs never are. Each level walks only the
    /// qubits some lane reached on the level before, so nearby sources
    /// share one sweep over their common frontier. Sources may repeat and
    /// come in any order.
    ///
    /// # Panics
    /// Panics if there are more than [`HOP_LANES`] sources, a source is out
    /// of range, or the graph has more than [`MAX_QUBITS`] qubits (hop
    /// counts would not fit below
    /// [`UNREACHABLE`](crate::distance::UNREACHABLE)).
    pub fn bfs_hop_lanes(&self, sources: &[usize], mut visit: impl FnMut(usize, u64, u16)) {
        let n = self.num_qubits();
        assert!(n <= MAX_QUBITS, "graph too large for u16 hop counts");
        assert!(sources.len() <= HOP_LANES, "more sources than hop lanes");
        // `seen`: lanes that reached a qubit; `next`: lanes that reach it on
        // the level being expanded. `active` pairs each qubit of the current
        // level with the lanes that reached it there.
        let (mut seen, mut next) = (vec![0u64; n], vec![0u64; n]);
        let mut reached = Vec::new();
        for (lane, &source) in sources.iter().enumerate() {
            if seen[source] == 0 {
                reached.push(source);
            }
            seen[source] |= 1 << lane;
        }
        let mut active: Vec<(usize, u64)> = reached.drain(..).map(|s| (s, seen[s])).collect();
        for &(source, lanes) in &active {
            visit(source, lanes, 0);
        }
        let mut hops = 0;
        while !active.is_empty() {
            hops += 1;
            for &(u, lanes) in &active {
                for v in self.neighbors(u) {
                    // Lanes that first reach `v` on this level; marking them
                    // seen at once keeps a later qubit of the same level
                    // from reporting them again.
                    let new = lanes & !seen[v];
                    if new != 0 {
                        seen[v] |= new;
                        if next[v] == 0 {
                            reached.push(v);
                        }
                        next[v] |= new;
                        visit(v, new, hops);
                    }
                }
            }
            active.clear();
            active.extend(reached.drain(..).map(|v| (v, std::mem::take(&mut next[v]))));
        }
    }

    /// The connected components of the graph, each listed in ascending qubit
    /// order, ordered by **descending size** with the smallest member index
    /// breaking ties — so `components[0]` is always the (deterministic)
    /// largest component. A connected graph yields one component.
    pub fn connected_components(&self) -> Vec<Vec<usize>> {
        let n = self.num_qubits();
        let mut seen = vec![false; n];
        let mut components = Vec::new();
        for start in 0..n {
            if seen[start] {
                continue;
            }
            let mut members = vec![start];
            seen[start] = true;
            let mut queue = VecDeque::new();
            queue.push_back(start);
            while let Some(u) = queue.pop_front() {
                for v in self.neighbors(u) {
                    if !seen[v] {
                        seen[v] = true;
                        members.push(v);
                        queue.push_back(v);
                    }
                }
            }
            members.sort_unstable();
            components.push(members);
        }
        components.sort_by_key(|m| (Reverse(m.len()), m[0]));
        components
    }

    /// Single-source shortest-path distances under a per-edge cost function
    /// (Dijkstra with a binary heap, O(E log V); costs must be
    /// non-negative). Unreachable nodes get `f64::INFINITY`.
    ///
    /// The computed distances are bitwise-identical to a selection-loop
    /// Dijkstra: each distance is the minimum over paths of a left-to-right
    /// cost sum, and both algorithms evaluate exactly those sums.
    pub fn weighted_distances(
        &self,
        source: usize,
        cost: impl Fn(usize, usize) -> f64,
    ) -> Vec<f64> {
        let n = self.num_qubits();
        let mut dist = vec![f64::INFINITY; n];
        let mut done = vec![false; n];
        // Reverse (max-heap → min-heap) over (cost bits, node): non-negative
        // f64 bit patterns order like the floats, and the node index breaks
        // exact ties deterministically.
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        dist[source] = 0.0;
        heap.push(Reverse((0.0f64.to_bits(), source)));
        while let Some(Reverse((_, u))) = heap.pop() {
            if done[u] {
                continue; // stale entry, already settled at a lower cost
            }
            done[u] = true;
            for v in self.neighbors(u) {
                let next = dist[u] + cost(u, v);
                if next < dist[v] {
                    dist[v] = next;
                    heap.push(Reverse((next.to_bits(), v)));
                }
            }
        }
        dist
    }

    /// A shortest path from `a` to `b` (inclusive of both endpoints), or
    /// `None` when disconnected.
    pub fn shortest_path(&self, a: usize, b: usize) -> Option<Vec<usize>> {
        if a == b {
            return Some(vec![a]);
        }
        let n = self.num_qubits();
        let mut prev = vec![usize::MAX; n];
        let mut visited = vec![false; n];
        let mut queue = VecDeque::new();
        visited[a] = true;
        queue.push_back(a);
        while let Some(u) = queue.pop_front() {
            if u == b {
                break;
            }
            for v in self.neighbors(u) {
                if !visited[v] {
                    visited[v] = true;
                    prev[v] = u;
                    queue.push_back(v);
                }
            }
        }
        if !visited[b] {
            return None;
        }
        let mut path = vec![b];
        let mut cur = b;
        while cur != a {
            cur = prev[cur];
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }

    /// True when every qubit can reach every other qubit.
    ///
    /// # Panics
    /// Panics if the graph has more than [`MAX_QUBITS`] qubits.
    pub fn is_connected(&self) -> bool {
        let n = self.num_qubits();
        if n == 0 {
            return true;
        }
        let mut reached = 0;
        self.bfs_hop_lanes(&[0], |_, lanes, _| reached += lanes.count_ones() as usize);
        reached == n
    }

    /// The paper-style structural summary. The hop kernel runs over the
    /// sources in batches of [`HOP_LANES`] and yields the diameter and the
    /// exact integer sum of all pairwise distances; no row is stored.
    ///
    /// # Panics
    /// Panics if the graph is empty, disconnected, or has more than
    /// [`MAX_QUBITS`] qubits.
    pub fn metrics(&self) -> TopologyMetrics {
        let n = self.num_qubits();
        assert!(n > 0, "metrics of an empty graph");
        let (mut diameter, mut total, mut pairs) = (0, 0, 0);
        let sources: Vec<usize> = (0..n).collect();
        for batch in sources.chunks(HOP_LANES) {
            self.bfs_hop_lanes(batch, |_, lanes, hops| {
                let count = lanes.count_ones() as usize;
                diameter = diameter.max(hops as usize);
                total += hops as usize * count;
                pairs += count;
            });
        }
        assert!(pairs == n * n, "metrics of a disconnected graph");
        TopologyMetrics {
            qubits: n,
            diameter,
            avg_distance: total as f64 / (n * n) as f64,
            avg_connectivity: 2.0 * self.num_edges() as f64 / n as f64,
        }
    }

    /// Removes qubits down to `target_qubits` while keeping the graph
    /// connected, then relabels qubits contiguously. Each step removes the
    /// lowest-live-degree, then highest-index, qubit whose removal keeps
    /// the rest connected. Used to trim lattice fragments to an exact qubit
    /// budget.
    ///
    /// Candidates come from a heap keyed by `(live degree, Reverse(qubit))`
    /// that gains a fresh entry whenever a neighbour's removal lowers a
    /// degree. On a connected graph, removing `q` keeps it connected iff
    /// `q`'s live neighbours stay mutually reachable without `q`, so a
    /// candidate costs one BFS that stops once it has found them all, and a
    /// leaf costs none.
    ///
    /// # Panics
    /// Panics if `target_qubits` exceeds the current size, or no qubit can
    /// be removed without disconnecting the graph.
    pub fn truncate_boundary(
        &self,
        target_qubits: usize,
        name: impl Into<String>,
    ) -> CouplingGraph {
        let n = self.num_qubits();
        assert!(target_qubits <= n);
        let mut removed = vec![false; n];
        let mut degree: Vec<usize> = (0..n).map(|q| self.degree(q)).collect();
        let mut heap: BinaryHeap<Reverse<(usize, Reverse<usize>)>> =
            (0..n).map(|q| Reverse((degree[q], Reverse(q)))).collect();
        // A disconnected graph stays disconnected under removal unless it is
        // one component plus one isolated qubit, and then only that qubit
        // may go (the tie of two lone qubits goes to the higher index).
        let mut lone = (target_qubits < n && !self.is_connected()).then(|| {
            let components = self.connected_components();
            assert!(
                components.len() == 2 && components[1].len() == 1,
                "could not truncate while preserving connectivity"
            );
            components[1][0]
        });
        // The local test: a BFS from one live neighbour of `q` that avoids
        // `q` and stops once it has found the others. Each search marks what
        // it visits with its own stamp, so nothing is cleared in between.
        let (mut stamp, mut queue, mut search) = (vec![0u32; n], VecDeque::new(), 0);
        let mut stays_linked = |removed: &[bool], q: usize| {
            let mut live = self.neighbors(q).filter(|&v| !removed[v]);
            let Some(start) = live.next() else {
                return true;
            };
            let mut missing = live.count();
            search += 1;
            (stamp[q], stamp[start]) = (search, search);
            queue.clear();
            queue.push_back(start);
            while missing > 0 {
                let Some(u) = queue.pop_front() else {
                    return false;
                };
                for v in self.neighbors(u) {
                    if !removed[v] && stamp[v] != search {
                        stamp[v] = search;
                        missing -= usize::from(self.has_edge(v, q));
                        queue.push_back(v);
                    }
                }
            }
            true
        };
        let mut skipped = Vec::new();
        for _ in target_qubits..n {
            let q = loop {
                let Reverse((live_degree, Reverse(q))) = heap
                    .pop()
                    .expect("could not truncate while preserving connectivity");
                if removed[q] || live_degree != degree[q] {
                    continue; // stale entry: removed, or its degree dropped
                }
                if lone.map_or_else(|| stays_linked(&removed, q), |lone| q == lone) {
                    break q;
                }
                skipped.push(Reverse((live_degree, Reverse(q))));
            };
            lone = None;
            removed[q] = true;
            for v in self.neighbors(q).filter(|&v| !removed[v]) {
                degree[v] -= 1;
                heap.push(Reverse((degree[v], Reverse(v))));
            }
            heap.extend(skipped.drain(..));
        }
        // Relabel.
        let mut mapping = vec![usize::MAX; n];
        let mut next = 0;
        for q in 0..n {
            if !removed[q] {
                mapping[q] = next;
                next += 1;
            }
        }
        self.relabelled_subgraph(name, target_qubits, |q| (!removed[q]).then(|| mapping[q]))
    }

    /// The subgraph on `num_qubits` qubits that keeps every edge whose two
    /// endpoints `relabel` maps to new labels, built in one
    /// [`CouplingGraph::from_edges`] call. The default error rate carries
    /// over, and so does the override of every kept edge.
    fn relabelled_subgraph(
        &self,
        name: impl Into<String>,
        num_qubits: usize,
        relabel: impl Fn(usize) -> Option<usize>,
    ) -> CouplingGraph {
        let kept = |(a, b): (usize, usize)| Some((relabel(a)?, relabel(b)?));
        let edges: Vec<(usize, usize)> = self.edges().filter_map(kept).collect();
        let mut g = CouplingGraph::from_edges(name, num_qubits, &edges);
        g.set_uniform_edge_error(self.default_edge_error);
        let overridden = (0..self.num_edges()).filter(|&idx| self.edge_overridden[idx]);
        for idx in overridden {
            if let Some((a, b)) = kept(self.edge_list[idx]) {
                g.set_edge_error(a, b, self.edge_rates[idx]);
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;
    use crate::distance::{HopMatrix, UNREACHABLE};

    /// Single-source queue BFS, the reference the lane kernel is checked
    /// against.
    fn queue_bfs(g: &CouplingGraph, source: usize) -> Vec<u16> {
        let mut row = vec![UNREACHABLE; g.num_qubits()];
        let mut queue = VecDeque::from([source]);
        row[source] = 0;
        while let Some(u) = queue.pop_front() {
            for v in g.neighbors(u) {
                if row[v] == UNREACHABLE {
                    row[v] = row[u] + 1;
                    queue.push_back(v);
                }
            }
        }
        row
    }

    /// One row per source from a single pass of the lane kernel, checking
    /// that no `(lane, qubit)` pair is reported twice.
    fn lane_rows(g: &CouplingGraph, sources: &[usize]) -> Vec<Vec<u16>> {
        let mut rows = vec![vec![UNREACHABLE; g.num_qubits()]; sources.len()];
        g.bfs_hop_lanes(sources, |q, lanes, hops| {
            assert_ne!(lanes, 0, "a visit reports at least one lane");
            for (lane, row) in rows.iter_mut().enumerate() {
                if lanes >> lane & 1 == 1 {
                    assert_eq!(row[q], UNREACHABLE, "lane {lane} reached {q} twice");
                    row[q] = hops;
                }
            }
        });
        rows
    }

    fn path(n: usize) -> CouplingGraph {
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        CouplingGraph::from_edges("path", n, &edges)
    }

    fn cycle(n: usize) -> CouplingGraph {
        let mut edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        edges.push((n - 1, 0));
        CouplingGraph::from_edges("cycle", n, &edges)
    }

    fn complete(n: usize) -> CouplingGraph {
        let edges: Vec<(usize, usize)> = (0..n)
            .flat_map(|a| ((a + 1)..n).map(move |b| (a, b)))
            .collect();
        CouplingGraph::from_edges("complete", n, &edges)
    }

    #[test]
    fn edges_are_undirected_and_deduplicated() {
        let g = CouplingGraph::from_edges("g", 3, &[(0, 1), (1, 0), (1, 1)]);
        assert_eq!(g.num_edges(), 1);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    fn path_metrics() {
        let g = path(5);
        let m = g.metrics();
        assert_eq!(m.diameter, 4);
        assert!(g.is_connected());
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 2);
        // Unordered pairwise sum on P5 = Σ_d d·(5−d) = 1·4+2·3+3·2+4·1 = 20,
        // so the ordered sum is 40.
        assert_eq!(m.avg_distance, 40.0 / 25.0);
    }

    #[test]
    fn cycle_metrics() {
        let m = cycle(6).metrics();
        assert_eq!(m.qubits, 6);
        assert_eq!(m.diameter, 3);
        assert_eq!(m.avg_connectivity, 2.0);
        // Distances from any node: 0,1,1,2,2,3 → sum 9; total 54; /36 = 1.5.
        assert_eq!(m.avg_distance, 1.5);
    }

    #[test]
    fn complete_graph_metrics() {
        let m = complete(5).metrics();
        assert_eq!(m.diameter, 1);
        assert_eq!(m.avg_connectivity, 4.0);
        assert_eq!(m.avg_distance, 20.0 / 25.0);
    }

    #[test]
    #[should_panic(expected = "metrics of a disconnected graph")]
    fn metrics_of_a_disconnected_graph_panic() {
        CouplingGraph::from_edges("two islands", 4, &[(0, 1), (2, 3)]).metrics();
    }

    #[test]
    fn the_hop_kernel_accepts_a_graph_at_the_qubit_cap() {
        let g = CouplingGraph::from_edges("cap", MAX_QUBITS, &[]);
        let row = &lane_rows(&g, &[0])[0];
        assert_eq!(row[0], 0);
        assert!(row[1..].iter().all(|&h| h == UNREACHABLE));
        assert!(!g.is_connected());
    }

    #[test]
    fn the_lane_kernel_matches_a_queue_bfs_on_every_builder_family() {
        let graphs = [
            builders::line(9),
            builders::ring(10),
            builders::complete(6),
            builders::star(7),
            builders::square_lattice(4, 5),
            builders::lattice_alt_diagonals(4, 4),
            builders::hex_lattice(2, 3),
            builders::heavy_hex(2, 2),
            builders::hypercube(5),
            builders::hypercube_sized(21),
            builders::tree4(2),
            builders::tree4_rr(2),
            builders::corral(8, 1, 2),
            CouplingGraph::from_edges("islands", 9, &[(0, 1), (1, 2), (4, 5), (5, 6), (6, 4)]),
        ];
        for g in &graphs {
            let n = g.num_qubits();
            let all: Vec<usize> = (0..n).collect();
            let reversed: Vec<usize> = (0..n).rev().collect();
            let repeated: Vec<usize> = [0, 0]
                .into_iter()
                .chain((0..n).map(|i| (i * 7 + 3) % n))
                .collect();
            for sources in [all, reversed, repeated] {
                let sources = &sources[..sources.len().min(HOP_LANES)];
                let rows = lane_rows(g, sources);
                for (&s, row) in sources.iter().zip(&rows) {
                    assert!(*row == queue_bfs(g, s), "{}: row of {s}", g.name());
                }
            }
        }
    }

    #[test]
    fn the_lane_kernel_fills_rows_for_1_63_64_and_65_sources() {
        let g = builders::square_lattice(9, 10);
        for count in [1, 63, 64, 65] {
            let sources: Vec<usize> = (0..count).map(|i| (i * 37 + 11) % 90).rev().collect();
            if count <= HOP_LANES {
                let rows = lane_rows(&g, &sources);
                for (&s, row) in sources.iter().zip(&rows) {
                    assert!(*row == queue_bfs(&g, s), "{count} sources: row of {s}");
                }
            }
            let hops = HopMatrix::new(&g);
            hops.fill(&g, &sources);
            assert_eq!(hops.materialized_rows(), count, "{count} distinct sources");
            for &s in &sources {
                assert!(
                    hops.row(&g, s) == queue_bfs(&g, s),
                    "{count} sources: row of {s}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "graph too large for u16 hop counts")]
    fn the_hop_kernel_refuses_a_graph_above_the_qubit_cap() {
        CouplingGraph::from_edges("over", MAX_QUBITS + 1, &[]).is_connected();
    }

    #[test]
    fn shortest_path_endpoints_and_length() {
        let g = cycle(8);
        let p = g.shortest_path(0, 4).unwrap();
        assert_eq!(p.len(), 5);
        assert_eq!(p[0], 0);
        assert_eq!(*p.last().unwrap(), 4);
        for w in p.windows(2) {
            assert!(g.has_edge(w[0], w[1]));
        }
    }

    #[test]
    fn shortest_path_to_self() {
        let g = path(3);
        assert_eq!(g.shortest_path(1, 1).unwrap(), vec![1]);
    }

    #[test]
    fn disconnected_graph_detected() {
        let g = CouplingGraph::from_edges("two islands", 4, &[(0, 1), (2, 3)]);
        assert!(!g.is_connected());
        assert!(g.shortest_path(0, 3).is_none());
    }

    #[test]
    fn truncate_boundary_preserves_connectivity() {
        let g = path(10);
        let t = g.truncate_boundary(7, "path7");
        assert_eq!(t.num_qubits(), 7);
        assert!(t.is_connected());
    }

    /// The edge list truncation gave before its candidate heap and local
    /// test: every step re-sorts the live qubits by `(live degree,
    /// Reverse(qubit))` and removes the first one whose removal leaves the
    /// rest connected under a full BFS.
    fn truncate_reference(g: &CouplingGraph, target: usize) -> Vec<(usize, usize)> {
        let n = g.num_qubits();
        let mut removed = vec![false; n];
        let connected = |removed: &[bool]| {
            let live: Vec<usize> = (0..n).filter(|&q| !removed[q]).collect();
            let Some(&start) = live.first() else {
                return true;
            };
            let mut seen = vec![false; n];
            seen[start] = true;
            let (mut queue, mut count) = (VecDeque::from([start]), 1);
            while let Some(u) = queue.pop_front() {
                for v in g.neighbors(u).filter(|&v| !removed[v]) {
                    if !std::mem::replace(&mut seen[v], true) {
                        count += 1;
                        queue.push_back(v);
                    }
                }
            }
            count == live.len()
        };
        for _ in target..n {
            let mut candidates: Vec<usize> = (0..n).filter(|&q| !removed[q]).collect();
            candidates
                .sort_by_key(|&q| (g.neighbors(q).filter(|&v| !removed[v]).count(), Reverse(q)));
            let q = candidates
                .into_iter()
                .find(|&q| {
                    removed[q] = true;
                    let ok = connected(&removed);
                    removed[q] = false;
                    ok
                })
                .expect("reference truncation stuck");
            removed[q] = true;
        }
        let label: Vec<usize> = (0..n)
            .scan(0, |next, q| {
                *next += usize::from(!removed[q]);
                Some(*next - 1)
            })
            .collect();
        let kept = |&(a, b): &(usize, usize)| !removed[a] && !removed[b];
        g.edges()
            .filter(kept)
            .map(|(a, b)| (label[a], label[b]))
            .collect()
    }

    #[test]
    fn truncation_matches_the_full_bfs_reference() {
        // Two triangles joined by the path 2-6-7-8-3: its qubits are the
        // highest-index degree-2 candidates and cut vertices, so they are
        // refused and tried again after later removals.
        let barbell = CouplingGraph::from_edges(
            "barbell",
            9,
            &[
                (0, 1),
                (1, 2),
                (2, 0),
                (3, 4),
                (4, 5),
                (5, 3),
                (2, 6),
                (6, 7),
                (7, 8),
                (8, 3),
            ],
        );
        let graphs = [
            builders::square_lattice(6, 7),
            builders::lattice_alt_diagonals(5, 5),
            builders::hex_lattice(2, 3),
            builders::heavy_hex(3, 3),
            builders::hypercube(5),
            builders::tree4_rr(2),
            builders::corral(10, 1, 3),
            barbell,
            CouplingGraph::from_edges("two lone qubits", 2, &[]),
            CouplingGraph::from_edges("triangle+lone", 4, &[(0, 1), (1, 2), (2, 0)]),
        ];
        for g in &graphs {
            for target in 1..=g.num_qubits() {
                let got: Vec<(usize, usize)> = g.truncate_boundary(target, "t").edges().collect();
                assert_eq!(
                    got,
                    truncate_reference(g, target),
                    "{} to {target}",
                    g.name()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "could not truncate while preserving connectivity")]
    fn truncating_a_graph_that_stays_split_panics() {
        let g =
            CouplingGraph::from_edges("cycle+edge", 6, &[(0, 1), (1, 2), (2, 3), (3, 0), (4, 5)]);
        g.truncate_boundary(5, "t");
    }

    #[test]
    fn edges_iterate_in_lexicographic_order_without_allocation() {
        let g = cycle(5);
        let edges: Vec<(usize, usize)> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(g.edges().count(), g.num_edges());
    }

    #[test]
    fn edge_index_is_the_lexicographic_rank() {
        let g = cycle(5);
        for (rank, (a, b)) in g.edges().enumerate() {
            assert_eq!(g.edge_index(a, b), Some(rank));
            assert_eq!(g.edge_index(b, a), Some(rank), "order-insensitive");
        }
        assert_eq!(g.edge_index(0, 2), None);
        assert_eq!(g.edge_index(99, 0), None);
    }

    #[test]
    fn edge_indices_stay_lexicographic_under_out_of_order_insertion() {
        // Insert edges in reverse order; the index must still be the rank in
        // the (min, max) lexicographic order, not insertion order.
        let g = CouplingGraph::from_edges("rev", 4, &[(2, 3), (1, 2), (0, 3), (0, 1)]);
        let edges: Vec<(usize, usize)> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 3), (1, 2), (2, 3)]);
        for (rank, &(a, b)) in edges.iter().enumerate() {
            assert_eq!(g.edge_index(a, b), Some(rank));
        }
    }

    #[test]
    fn neighbors_with_edge_ids_agree_with_edge_index() {
        let g = complete(5);
        for q in 0..5 {
            let pairs: Vec<(usize, usize)> = g.neighbors_with_edge_ids(q).collect();
            let plain: Vec<usize> = g.neighbors(q).collect();
            assert_eq!(
                pairs.iter().map(|&(v, _)| v).collect::<Vec<_>>(),
                plain,
                "same neighbor order"
            );
            for (v, id) in pairs {
                assert_eq!(g.edge_index(q, v), Some(id));
                assert_eq!(g.edge_rates[id], g.edge_error(q, v));
            }
        }
    }

    #[test]
    fn edge_errors_default_to_uniform() {
        let g = path(4);
        assert!(g.edge_errors_uniform());
        for ((a, b), err) in g.edge_errors() {
            assert!(g.has_edge(a, b));
            assert_eq!(err, DEFAULT_EDGE_ERROR);
        }
    }

    #[test]
    fn edge_error_overrides_are_order_insensitive() {
        let mut g = path(4);
        g.set_edge_error(2, 1, 0.05);
        assert_eq!(g.edge_error(1, 2), 0.05);
        assert_eq!(g.edge_error(2, 1), 0.05);
        assert_eq!(g.edge_error(0, 1), DEFAULT_EDGE_ERROR);
        assert!(!g.edge_errors_uniform());
        g.set_uniform_edge_error(0.002);
        assert!(g.edge_errors_uniform());
        assert_eq!(g.edge_error(1, 2), 0.002);
    }

    #[test]
    fn overriding_every_edge_to_one_rate_counts_as_uniform() {
        let mut g = path(4);
        for (a, b) in g.edges().collect::<Vec<_>>() {
            g.set_edge_error(a, b, 0.005);
        }
        assert!(g.edge_errors_uniform(), "all edges agree at 0.005");
        g.set_edge_error(1, 2, 0.009);
        assert!(!g.edge_errors_uniform());
    }

    #[test]
    fn partial_overrides_at_a_non_default_rate_are_heterogeneous() {
        let mut g = path(4);
        g.set_edge_error(0, 1, 0.005); // other edges still at the default
        assert!(!g.edge_errors_uniform());
    }

    #[test]
    fn subgraphs_keep_a_non_default_default_rate_and_kept_overrides() {
        // Edges of a subgraph are built in one pass at the source's default
        // rate, and the source's overrides are replayed on the kept edges.
        let mut g = cycle(8);
        g.set_uniform_edge_error(0.002);
        g.set_edge_error(1, 2, 0.03);
        g.set_edge_error(6, 7, 0.05);
        // Truncation drops qubit 7, and with it the overridden edge (6, 7).
        let t = g.truncate_boundary(7, "t7");
        assert_eq!(t.num_edges(), 6);
        assert_eq!(t.default_edge_error(), 0.002);
        assert_eq!(t.edge_error(1, 2), 0.03);
        assert_eq!(t.edge_error(5, 6), 0.002);
        assert!(t.edge_errors().all(|(_, rate)| rate != 0.05));
    }

    #[test]
    #[should_panic(expected = "is not an edge")]
    fn setting_error_on_a_non_edge_panics() {
        let mut g = path(4);
        g.set_edge_error(0, 3, 0.1);
    }

    #[test]
    fn weighted_distances_match_bfs_under_unit_costs() {
        let g = cycle(8);
        let sources: Vec<usize> = (0..8).collect();
        for (s, hops) in lane_rows(&g, &sources).into_iter().enumerate() {
            let dij = g.weighted_distances(s, |_, _| 1.0);
            for (&h, &w) in hops.iter().zip(&dij) {
                assert_eq!(h as f64, w);
            }
        }
    }

    #[test]
    fn weighted_distances_route_around_expensive_edges() {
        // Square 0-1-2-3-0: make edge (0,1) cost 10; the cheapest 0→1 path is
        // now 0-3-2-1 at cost 3.
        let g = CouplingGraph::from_edges("sq", 4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let cost = |a: usize, b: usize| {
            if (a.min(b), a.max(b)) == (0, 1) {
                10.0
            } else {
                1.0
            }
        };
        assert_eq!(g.weighted_distances(0, cost)[1], 3.0);
        assert_eq!(g.weighted_distances(1, cost)[0], 3.0);
    }

    #[test]
    fn weighted_distances_mark_unreachable_nodes_infinite() {
        let g = CouplingGraph::from_edges("two islands", 4, &[(0, 1), (2, 3)]);
        let d = g.weighted_distances(0, |_, _| 1.0);
        assert!(d[2].is_infinite() && d[3].is_infinite());
        assert!((d[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn truncation_carries_edge_errors() {
        let mut g = path(10);
        g.set_edge_error(0, 1, 0.04);
        g.set_edge_error(8, 9, 0.09);
        let t = g.truncate_boundary(7, "path7");
        assert_eq!(t.edge_error(0, 1), 0.04); // low end survives truncation
    }

    #[test]
    fn bfs_hops_mark_other_components_unreachable() {
        let g = CouplingGraph::from_edges("mixed", 6, &[(0, 1), (1, 2), (2, 0), (4, 5)]);
        let rows = lane_rows(&g, &[1, 5]);
        assert_eq!(rows[0], [1, 0, 1, UNREACHABLE, UNREACHABLE, UNREACHABLE]);
        assert_eq!(
            rows[1],
            [UNREACHABLE, UNREACHABLE, UNREACHABLE, UNREACHABLE, 1, 0]
        );
    }

    #[test]
    fn connected_components_order_and_membership() {
        // Components: {1,2,6} (3 nodes), {0,4} and {3,5} (2 nodes each), {7}.
        let g = CouplingGraph::from_edges("frag", 8, &[(1, 2), (2, 6), (0, 4), (3, 5)]);
        let comps = g.connected_components();
        assert_eq!(
            comps,
            vec![vec![1, 2, 6], vec![0, 4], vec![3, 5], vec![7]],
            "descending size, ties by smallest member"
        );
        let g2 = cycle(5);
        assert_eq!(g2.connected_components(), vec![vec![0, 1, 2, 3, 4]]);
    }
}
