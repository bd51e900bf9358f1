//! SWAP routing (the "Routing" box of Fig. 10).
//!
//! The paper routes with Qiskit's `StochasticSwap`; we implement a
//! SABRE-style lookahead router with randomized tie-breaking and a
//! best-of-`trials` outer loop, which reproduces the same behaviour at the
//! granularity the study measures: the number of SWAP gates induced by a
//! topology, in total and on the critical path.
//!
//! # Hot-path architecture
//!
//! Routing is the inner kernel of every sweep in the reproduction, so the
//! implementation is organised around what is shared, what is incremental,
//! and what is parallel:
//!
//! * **Shared across trials** ([`route_with_cache`]): the dependency DAG
//!   (per-qubit predecessor chains), the initial front and the
//!   program-order pending-2Q list are layout-independent — they are built
//!   once per call and borrowed by every trial. The distance state — `u16`
//!   hop rows and (in noise-aware mode) error-weighted Dijkstra rows —
//!   lives in a [`RoutingCache`] shared across *calls* on the same graph,
//!   so a sweep stops recomputing BFS for every (workload, size, seed)
//!   cell. Each call first fills the hop rows of every placed qubit that
//!   the cache does not hold yet, 64 sources per pass of the one BFS
//!   kernel; any other row materializes on demand, so memory scales with
//!   the qubits a program actually touches rather than with n².
//! * **Incremental within a trial** (`route_once`): the lookahead window
//!   is read from an intrusive linked list over pending two-qubit gates
//!   (O(lookahead) per SWAP decision, where a full rescan of the
//!   instruction stream — the previous implementation — was O(total²) per
//!   routed circuit); candidate SWAPs are deduplicated with an edge-indexed
//!   bitmap instead of a linear `Vec::contains`. Each decision builds one
//!   **term table** (`TermTable`): every front and lookahead pair becomes
//!   a term holding its physical endpoints and distances, indexed by
//!   physical qubit through per-qubit slot lists whose heads are reset
//!   only where they were set. A candidate `(p, q)` moves only the terms
//!   on `p` or `q`, so it is scored from those alone — noise-blind as
//!   integer hop deltas on the tabled sums, noise-aware by re-adding the
//!   weighted terms in their original order with only the moved ones read
//!   afresh — and the result is bit for bit the from-scratch score. A
//!   moved term's hop distance is read from the row of its stationary
//!   endpoint (hops are symmetric), so only qubits that held a program
//!   qubit ever materialize a hop row. The SWAP decay factors are reset
//!   only on the qubits SWAPs raised since the last reset. Adjacency tests
//!   on the blocked front are [`CouplingGraph::has_edge`] binary searches
//!   over the graph's CSR rows, and the trial loop reuses all of its
//!   per-decision scratch buffers, so steady-state routing allocates only
//!   the output circuit.
//! * **Parallel across trials**: the best-of-`trials` loop fans out with
//!   rayon — each trial derives its own RNG seed from the trial index — and
//!   the winner is selected by a deterministic trial-index-ordered
//!   reduction, so the routed output is independent of thread scheduling
//!   and bitwise-identical to the sequential loop.
//!
//! Per SWAP decision the work is O(front + lookahead) to build the table
//! plus, per candidate, O(terms on its two qubits) noise-blind or
//! O(front + lookahead) additions noise-aware; per routed circuit it is
//! O(swaps · front-window) — independent of the total instruction count,
//! which only enters through the one-time DAG build. The
//! `crates/transpiler/tests/router_equivalence.rs` digests and
//! the frozen baselines in `noise_regression.rs` pin the output of this
//! implementation gate-for-gate to the pre-overhaul router.
//!
//! # Noise-aware mode
//!
//! The router can additionally be made *noise-aware*: when the coupling
//! graph carries heterogeneous per-edge error rates and
//! [`RouterConfig::error_weight`] is positive, SWAP candidates are scored
//! against an error-weighted distance matrix (Dijkstra over
//! `1 + w · penalty(e)` edge costs, with `penalty` the edge's log infidelity
//! normalized by the device's default rate) plus a direct penalty for
//! executing the SWAP itself on a noisy link. Per-edge penalties live in an
//! edge-indexed `Vec<f64>` (see [`CouplingGraph::edge_index`]) so every
//! cost-model read is an array access. Three safeguards keep the heuristic
//! stable on the continuous cost landscape: candidates are pruned to SWAPs
//! that make hop progress on the front layer (the weighted score chooses
//! *which* route, not *whether* to converge), a small relative jitter keeps
//! trials diverse where exact score ties are measure-zero, and the
//! best-of-`trials` winner is picked by a total-infidelity proxy (summed
//! edge penalties + depth) instead of raw SWAP count. With a uniform error
//! model — `error_weight = 0` or all edges equal — the scoring degenerates
//! to plain hop distances and the routed output is bitwise-identical to the
//! noise-blind router.

use crate::layout::Layout;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use rayon::prelude::*;
use snailqc_circuit::{Circuit, Gate, Instruction};
use snailqc_obs as obs;
use snailqc_topology::distance::{HopMatrix, WeightedRows, UNREACHABLE};
use snailqc_topology::CouplingGraph;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Number of basis pulses a SWAP costs on the edge that executes it (three
/// CNOT-equivalents); scales the direct noise penalty of a SWAP candidate.
const SWAP_PULSES: f64 = 3.0;

/// Weight of one unit of two-qubit depth in the noise-aware trial-selection
/// metric, in normalized edge-penalty units. Matches the default error
/// model's decoherence-to-control ratio (10⁻² per pulse time vs 10⁻³ per
/// gate).
const DEPTH_PENALTY: f64 = 10.0;

/// Pending two-qubit gates in the lookahead window of the SWAP score.
const LOOKAHEAD: usize = 20;

/// Weight of the lookahead term relative to the front layer.
const LOOKAHEAD_WEIGHT: f64 = 0.5;

/// The result of routing a logical circuit onto a device.
#[derive(Debug, Clone)]
pub struct RoutedCircuit {
    /// The physical circuit: original gates remapped to physical qubits plus
    /// inserted SWAP gates. Defined on the device register.
    pub circuit: Circuit,
    /// Layout before the first gate.
    pub initial_layout: Layout,
    /// Layout after the last gate (SWAPs permute the mapping).
    pub final_layout: Layout,
    /// Number of SWAP gates inserted.
    pub swap_count: usize,
}

impl RoutedCircuit {
    /// Critical-path SWAP count of the routed circuit.
    pub fn swap_depth(&self) -> usize {
        self.circuit.swap_depth()
    }

    /// Total two-qubit gate count of the routed circuit (original 2Q gates
    /// plus inserted SWAPs).
    pub fn two_qubit_count(&self) -> usize {
        self.circuit.two_qubit_count()
    }
}

/// Configuration of the stochastic lookahead router.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct RouterConfig {
    /// Number of independent randomized routing attempts; the attempt with
    /// the fewest SWAPs wins (mirrors `StochasticSwap`'s trials). Trials run
    /// in parallel; the winner is reduced in trial-index order, so the
    /// result never depends on scheduling.
    pub trials: usize,
    /// Weight of the per-edge infidelity term in SWAP scoring; `0` routes by
    /// hop distance alone (noise-blind), `1` values the average edge's log
    /// infidelity as much as one extra hop.
    pub error_weight: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            trials: 4,
            error_weight: 0.0,
            seed: 11,
        }
    }
}

impl RouterConfig {
    /// A deterministic single-trial configuration (useful in tests).
    pub fn deterministic(seed: u64) -> Self {
        Self {
            trials: 1,
            seed,
            ..Self::default()
        }
    }

    /// A noise-aware configuration reading the device calibration with the
    /// given fidelity weight.
    pub fn noise_aware(error_weight: f64) -> Self {
        Self {
            error_weight,
            ..Self::default()
        }
    }
}

/// Precomputed noise data for one routing run: normalized per-edge penalties
/// used both for the weighted distance matrix and the direct SWAP penalty.
/// Penalties are indexed by the graph's stable lexicographic
/// [`edge index`](CouplingGraph::edge_index), so every read in the scoring
/// hot loop is a plain array access.
struct NoiseContext {
    /// `-ln(1 − err_e)` divided by the reference (default-rate) penalty,
    /// indexed by edge index; a typical edge sits near 1.0.
    penalties: Vec<f64>,
    /// `error_weight` echoed from the config.
    weight: f64,
}

impl NoiseContext {
    /// Builds the context, or `None` when the configuration is effectively
    /// noise-blind (zero weight or homogeneous edge errors) and the legacy
    /// hop-distance scoring should be used verbatim.
    ///
    /// Penalties are normalized by the *device default rate* rather than the
    /// calibration's mean, so degrading one edge raises that edge's cost and
    /// leaves every other edge untouched — a locality property the
    /// monotonicity regression suite relies on. (The mean is only used as a
    /// fallback reference when the default rate is zero.)
    fn build(graph: &CouplingGraph, config: &RouterConfig) -> Option<Self> {
        if config.error_weight <= 0.0 {
            return None;
        }
        let penalty_of = |r: f64| -(1.0 - r.clamp(0.0, 0.999_999)).ln();
        let raw: Vec<f64> = graph
            .edge_errors()
            .map(|(_, rate)| penalty_of(rate))
            .collect();
        let first = raw.first().copied()?;
        if raw.iter().all(|&p| p == first) {
            return None; // homogeneous noise cannot change SWAP choices
        }
        let mut reference = penalty_of(graph.default_edge_error());
        if reference <= 0.0 {
            reference = raw.iter().sum::<f64>() / raw.len() as f64;
        }
        let penalties = raw.into_iter().map(|p| p / reference).collect();
        Some(Self {
            penalties,
            weight: config.error_weight,
        })
    }

    /// Distance cost of traversing the edge with index `id`: one hop plus
    /// the weighted normalized infidelity.
    fn edge_cost(&self, id: usize) -> f64 {
        1.0 + self.weight * self.penalties[id]
    }

    /// Direct penalty for executing a SWAP on the edge with index `id`.
    fn swap_penalty(&self, id: usize) -> f64 {
        SWAP_PULSES * self.weight * self.penalties[id]
    }

    /// Total normalized penalty of a routed circuit: `Σ penalty(e)` over its
    /// two-qubit gates, with SWAPs weighted by their pulse count. Used to
    /// pick the winning trial in noise-aware mode.
    fn circuit_penalty(&self, circuit: &Circuit, graph: &CouplingGraph) -> f64 {
        circuit
            .instructions()
            .iter()
            .filter(|inst| inst.is_two_qubit())
            .map(|inst| {
                let id = graph
                    .edge_index(inst.qubits[0], inst.qubits[1])
                    .expect("routed gate sits on an edge");
                let p = self.penalties[id];
                if inst.gate.is_swap() {
                    SWAP_PULSES * p
                } else {
                    p
                }
            })
            .sum()
    }
}

// ---------------------------------------------------------------------------
// Distance-matrix cache
// ---------------------------------------------------------------------------

/// Shareable cache of the per-graph distance state routing needs: the
/// compact `u16` hop rows ([`HopMatrix`]), plus one weighted scoring store
/// ([`WeightedRows`]) per noise-aware error weight, keyed by its bits.
/// Noise-blind scoring reads hop counts directly (`u16 → f64` is
/// value-exact), so it needs no separate scoring matrix at all.
///
/// One cache belongs to one graph — `snailqc_core::device::Device` owns one
/// per device and threads it through every transpile, so sweeps and batch
/// runs compute each distance row once per device instead of once per cell.
/// Rows materialize on demand, so a small program only pays for the rows it
/// touches. A row holds the same distances whichever call computes it, so
/// routed output does not depend on whether the cache is fresh or warm.
///
/// Hit/miss accounting is **exact**, including under concurrent first use:
/// the miss is counted inside the one closure `OnceLock::get_or_init` /
/// the locked map's vacant entry runs, and every other caller counts a hit,
/// so `routing_cache.hits + routing_cache.misses` always equals the number
/// of cache accesses and each matrix accounts for exactly one miss.
#[derive(Debug, Default)]
pub struct RoutingCache {
    hops: OnceLock<Arc<HopMatrix>>,
    scoring: Mutex<BTreeMap<u64, Arc<WeightedRows>>>,
}

impl RoutingCache {
    /// An empty cache (distance state is computed and retained on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// The hop matrix of `graph`, built on first use. Exactly one caller
    /// counts the miss (inside the init closure, which `OnceLock` runs once
    /// while blocking racers); every other call counts a hit.
    fn hops(&self, graph: &CouplingGraph) -> Arc<HopMatrix> {
        let mut miss = false;
        let hops = self
            .hops
            .get_or_init(|| {
                miss = true;
                obs::counter_add("routing_cache.misses", 1);
                Arc::new(HopMatrix::new(graph))
            })
            .clone();
        if !miss {
            obs::counter_add("routing_cache.hits", 1);
        }
        hops
    }

    /// The weighted scoring store for a noise-aware `error_weight`, created
    /// on first use (its rows fill as routing reads them). The
    /// vacant/occupied split under the map's mutex makes the hit/miss counts
    /// exact: the thread that inserts counts the one miss.
    fn scoring(&self, graph: &CouplingGraph, error_weight: f64) -> Arc<WeightedRows> {
        let mut cache = self.scoring.lock().expect("routing cache poisoned");
        match cache.entry(error_weight.to_bits()) {
            Entry::Occupied(entry) => {
                obs::counter_add("routing_cache.hits", 1);
                entry.get().clone()
            }
            Entry::Vacant(entry) => {
                obs::counter_add("routing_cache.misses", 1);
                entry.insert(Arc::new(WeightedRows::new(graph))).clone()
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Layout-independent per-circuit state
// ---------------------------------------------------------------------------

/// Everything about one (circuit, graph, config) routing problem that does
/// not depend on the evolving layout: built once in [`route_with_cache`],
/// borrowed by every trial.
struct TrialTemplate {
    /// Remaining-predecessor count per instruction (cloned per trial).
    in_degree: Vec<usize>,
    /// Dependency-DAG successor lists.
    successors: Vec<Vec<usize>>,
    /// Instructions with no predecessors — the initial front.
    initial_front: Vec<usize>,
    /// Intrusive linked list over pending two-qubit instructions in program
    /// order (`total` is the end sentinel); cloned per trial and pruned as
    /// gates execute, so the lookahead window is read in O(lookahead)
    /// instead of rescanning the whole instruction stream.
    head2q: usize,
    next2q: Vec<usize>,
    prev2q: Vec<usize>,
}

impl TrialTemplate {
    fn build(circuit: &Circuit) -> Self {
        let instructions = circuit.instructions();
        let total = instructions.len();

        // Dependency DAG via per-qubit predecessor chains.
        let mut in_degree = vec![0usize; total];
        let mut successors: Vec<Vec<usize>> = vec![Vec::new(); total];
        let mut last_on_qubit: Vec<Option<usize>> = vec![None; circuit.num_qubits()];
        for (idx, inst) in instructions.iter().enumerate() {
            for &q in &inst.qubits {
                if let Some(prev) = last_on_qubit[q] {
                    successors[prev].push(idx);
                    in_degree[idx] += 1;
                }
                last_on_qubit[q] = Some(idx);
            }
        }
        let initial_front: Vec<usize> = (0..total).filter(|&i| in_degree[i] == 0).collect();

        // Program-order chain over two-qubit instructions.
        let mut next2q = vec![total; total];
        let mut prev2q = vec![total; total];
        let mut head2q = total;
        let mut last = total;
        for (idx, inst) in instructions.iter().enumerate() {
            if inst.qubits.len() != 2 {
                continue;
            }
            if last == total {
                head2q = idx;
            } else {
                next2q[last] = idx;
                prev2q[idx] = last;
            }
            last = idx;
        }

        Self {
            in_degree,
            successors,
            initial_front,
            head2q,
            next2q,
            prev2q,
        }
    }
}

// ---------------------------------------------------------------------------
// Per-decision term table
// ---------------------------------------------------------------------------

/// The distance state one route scores SWAPs against: the hop rows and, in
/// noise-aware mode, the error-weighted rows with the noise context whose
/// edge costs they are built from.
#[derive(Clone, Copy)]
struct Metric<'a> {
    graph: &'a CouplingGraph,
    hops: &'a HopMatrix,
    /// Weighted scoring rows and their noise context — present exactly in
    /// noise-aware mode.
    weighted: Option<(&'a WeightedRows, &'a NoiseContext)>,
}

impl Metric<'_> {
    /// Hop distance from `a` to `b`, read from the row of `a`.
    fn hops(&self, a: usize, b: usize) -> u16 {
        self.hops.row(self.graph, a)[b]
    }

    /// Weighted distance from `a` to `b` (noise-aware mode only), read from
    /// the row of `a`. The row choice is part of the score: Dijkstra sums
    /// need not be symmetric in the last bit.
    fn weighted(&self, a: usize, b: usize) -> f64 {
        let (rows, noise) = self.weighted.expect("weighted scoring is noise-aware");
        let graph = self.graph;
        let edge_cost =
            |x: usize, y: usize| noise.edge_cost(graph.edge_index(x, y).expect("cost of an edge"));
        rows.row(graph, &edge_cost, a)[b]
    }
}

/// End of a per-qubit term list.
const NO_SLOT: u32 = u32::MAX;

/// One distance term of the SWAP score: a front or lookahead pair at its
/// physical endpoints in the live layout.
#[derive(Debug, Clone, Copy)]
struct Term {
    /// Physical qubit of the pair's first logical qubit.
    a: usize,
    /// Physical qubit of the pair's second logical qubit.
    b: usize,
    /// Hop distance `row(a)[b]`.
    hops: u16,
    /// Weighted distance `row(a)[b]` (noise-aware mode; 0 otherwise).
    weighted: f64,
}

/// The front and lookahead terms of one SWAP decision, indexed by physical
/// qubit, so a candidate SWAP `(p, q)` is scored from the terms sitting on
/// `p` or `q` alone.
///
/// Each term owns two link slots, `2t` for endpoint `a` and `2t + 1` for
/// `b`; `head[x]` starts the slot list of physical qubit `x` and `next`
/// chains it. A rebuild resets only the heads the previous decision set, so
/// the table costs O(terms) per decision whatever the device size.
struct TermTable {
    /// Front terms, then lookahead terms, each in their original order.
    terms: Vec<Term>,
    /// `terms[..front_len]` are the front terms.
    front_len: usize,
    /// Summed hop distance of the front terms.
    front_hops: i64,
    /// Summed hop distance of the lookahead terms.
    look_hops: i64,
    /// First slot of each physical qubit's list, or [`NO_SLOT`].
    head: Vec<u32>,
    /// Next slot in the same qubit's list, or [`NO_SLOT`].
    next: Vec<u32>,
}

impl TermTable {
    /// An empty table for a device of `num_physical` qubits.
    fn new(num_physical: usize) -> Self {
        Self {
            terms: Vec::new(),
            front_len: 0,
            front_hops: 0,
            look_hops: 0,
            head: vec![NO_SLOT; num_physical],
            next: Vec::new(),
        }
    }

    /// Rebuilds the table for the logical `front` and `lookahead` pairs
    /// placed by `layout`.
    fn build(
        &mut self,
        metric: &Metric<'_>,
        layout: &Layout,
        front: &[(usize, usize)],
        lookahead: &[(usize, usize)],
    ) {
        for term in &self.terms {
            self.head[term.a] = NO_SLOT;
            self.head[term.b] = NO_SLOT;
        }
        self.terms.clear();
        self.next.clear();
        self.front_len = front.len();
        self.front_hops = 0;
        self.look_hops = 0;
        for (t, &(la, lb)) in front.iter().chain(lookahead).enumerate() {
            let (a, b) = (layout.physical(la), layout.physical(lb));
            let hops = metric.hops(a, b);
            let weighted = if metric.weighted.is_some() {
                metric.weighted(a, b)
            } else {
                0.0
            };
            if t < front.len() {
                self.front_hops += i64::from(hops);
            } else {
                self.look_hops += i64::from(hops);
            }
            let slot = 2 * t as u32;
            self.next.push(self.head[a]);
            self.head[a] = slot;
            self.next.push(self.head[b]);
            self.head[b] = slot + 1;
            self.terms.push(Term {
                a,
                b,
                hops,
                weighted,
            });
        }
    }

    /// Calls `visit(t, after)` once for every term `t` with an endpoint on
    /// `p` or `q`, where `after` is the term's hop distance once `p` and `q`
    /// swap occupants. Hop distance is symmetric, so a moved term reads the
    /// row of its stationary endpoint, which holds a program qubit, instead
    /// of the row of whatever qubit its other endpoint moves onto; a term on
    /// both `p` and `q` keeps its distance.
    fn for_each_moved(
        &self,
        metric: &Metric<'_>,
        p: usize,
        q: usize,
        mut visit: impl FnMut(usize, u16),
    ) {
        let mut walk = |from: usize, to: usize, skip: usize| {
            let mut slot = self.head[from];
            while slot != NO_SLOT {
                let t = slot as usize / 2;
                let term = &self.terms[t];
                let stays = if slot.is_multiple_of(2) {
                    term.b
                } else {
                    term.a
                };
                if stays != skip {
                    visit(t, metric.hops(stays, to));
                } else if from == p {
                    visit(t, term.hops);
                }
                slot = self.next[slot as usize];
            }
        };
        walk(p, q, q);
        walk(q, p, p);
    }

    /// Change of the front's summed hop distance if `p` and `q` swapped
    /// occupants.
    fn front_hop_delta(&self, metric: &Metric<'_>, p: usize, q: usize) -> i64 {
        let mut delta = 0i64;
        self.for_each_moved(metric, p, q, |t, after| {
            if t < self.front_len {
                delta += i64::from(after) - i64::from(self.terms[t].hops);
            }
        });
        delta
    }

    /// `(front_cost, look_cost)` of the SWAP `(p, q)`: each side's summed
    /// scoring distance once `p` and `q` swapped occupants.
    ///
    /// Noise-blind, each side is its tabled hop sum plus the integer change
    /// of the moved terms. Hop sums are small integers, exact in `f64`, so
    /// this is the ordered `f64` sum bit for bit (a side with no terms reads
    /// +0.0 where an empty `f64` sum reads −0.0; the front is never empty).
    /// Noise-aware, each side re-adds its weighted terms in their original
    /// order with only the moved ones read afresh, so rounding is unchanged.
    fn costs(&self, metric: &Metric<'_>, p: usize, q: usize) -> (f64, f64) {
        if metric.weighted.is_none() {
            let (mut front, mut look) = (self.front_hops, self.look_hops);
            self.for_each_moved(metric, p, q, |t, after| {
                let delta = i64::from(after) - i64::from(self.terms[t].hops);
                if t < self.front_len {
                    front += delta;
                } else {
                    look += delta;
                }
            });
            return (front as f64, look as f64);
        }
        let moved = |x: usize| {
            if x == p {
                q
            } else if x == q {
                p
            } else {
                x
            }
        };
        let after = |term: &Term| {
            let (a, b) = (moved(term.a), moved(term.b));
            if (a, b) == (term.a, term.b) {
                term.weighted
            } else {
                metric.weighted(a, b)
            }
        };
        let (front, look) = self.terms.split_at(self.front_len);
        (front.iter().map(after).sum(), look.iter().map(after).sum())
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Routes `circuit` onto `graph` starting from `initial_layout`, inserting
/// SWAP gates wherever a two-qubit gate acts on non-adjacent physical qubits.
///
/// Distance rows come from `cache`, which must belong to `graph` (same
/// structure and edge errors); `snailqc_core::device::Device` maintains that
/// pairing. Pass `&RoutingCache::new()` for a one-off route. The output does
/// not depend on whether the cache is fresh or warm.
///
/// The graph may be disconnected as long as every physical qubit the layout
/// occupies sits in one connected component (the layout stage guarantees
/// this; see `LayoutStrategy::try_compute`).
///
/// # Panics
/// Panics if the device has fewer qubits than the circuit or the initial
/// layout straddles disconnected components.
pub fn route_with_cache(
    circuit: &Circuit,
    graph: &CouplingGraph,
    initial_layout: &Layout,
    config: &RouterConfig,
    cache: &RoutingCache,
) -> RoutedCircuit {
    let _route_span = obs::span("router.route");
    assert!(
        circuit.num_qubits() <= graph.num_qubits(),
        "device too small"
    );
    let noise = NoiseContext::build(graph, config);
    let hops = cache.hops(graph);
    // Error-weighted Dijkstra rows steer lookahead cost away from noisy
    // links; noise-blind scoring reads hop counts directly (`u16 → f64` is
    // value-exact, so the scores match the old hop-derived f64 matrix bit
    // for bit).
    let weighted = noise
        .is_some()
        .then(|| cache.scoring(graph, config.error_weight));

    // Routing reads the row of nearly every placed qubit, so those rows
    // are computed together, 64 per pass of the hop kernel; rows a warm
    // cache holds are skipped, and rows of qubits SWAPs move onto stay lazy.
    hops.fill(graph, &initial_layout.as_slice()[..circuit.num_qubits()]);

    // The occupied physical qubits must be mutually reachable — one hop row
    // from the first occupied qubit checks all of them, whatever the rest of
    // the device looks like.
    if circuit.num_qubits() > 0 {
        let anchor = initial_layout.physical(0);
        let anchor_row = hops.row(graph, anchor);
        for logical in 0..circuit.num_qubits() {
            assert!(
                anchor_row[initial_layout.physical(logical)] != UNREACHABLE,
                "initial layout straddles disconnected components \
                 (logical {logical} unreachable from logical 0)"
            );
        }
    }

    let template = TrialTemplate::build(circuit);
    let shared = TrialShared {
        circuit,
        initial_layout,
        metric: Metric {
            graph,
            hops: &hops,
            weighted: weighted.as_deref().zip(noise.as_ref()),
        },
        template: &template,
    };

    // Every trial derives its seed from the trial index alone, so trials
    // are independent and safe to fan out; the winner is reduced in trial
    // order below, making the result identical to a sequential loop.
    let seeds: Vec<u64> = (0..config.trials.max(1))
        .map(|trial| {
            config
                .seed
                .wrapping_add(trial as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        })
        .collect();
    let trials: Vec<(RoutedCircuit, TrialStats)> = if seeds.len() == 1 {
        vec![route_once(&shared, seeds[0])]
    } else {
        let trace = obs::carry();
        seeds
            .par_iter()
            .map(|&seed| {
                let _trace = trace.enter();
                route_once(&shared, seed)
            })
            .collect()
    };

    let mut work = TrialStats::default();
    let mut best: Option<RoutedCircuit> = None;
    for (candidate, trial_stats) in trials {
        work.accumulate(&trial_stats);
        let better = match &best {
            None => true,
            // Noise-blind trials compete on SWAP count (StochasticSwap);
            // noise-aware trials compete on a proxy for total infidelity:
            // the routed circuit's summed per-edge penalty (control channel)
            // plus its two-qubit depth (decoherence channel), with SWAP
            // count as the tiebreak.
            Some(b) => match &noise {
                None => candidate.swap_count < b.swap_count,
                Some(noise) => {
                    let metric = |c: &RoutedCircuit| {
                        noise.circuit_penalty(&c.circuit, graph)
                            + DEPTH_PENALTY * c.circuit.two_qubit_depth() as f64
                    };
                    let (cand, best_so_far) = (metric(&candidate), metric(b));
                    cand < best_so_far
                        || (cand == best_so_far && candidate.swap_count < b.swap_count)
                }
            },
        };
        if better {
            best = Some(candidate);
        }
    }
    let best = best.expect("at least one routing trial");

    // One registry flush per route call, far off the inner loop. The
    // counters feed `--metrics-json`.
    obs::counter_add("router.calls", 1);
    obs::counter_add("router.trials_run", seeds.len() as u64);
    obs::counter_add("router.swap_decisions", work.swap_decisions);
    obs::counter_add("router.swap_candidates_scored", work.candidates_scored);
    obs::counter_add(
        "router.lookahead_gates_examined",
        work.lookahead_gates_examined,
    );
    obs::counter_add("router.fallback_paths", work.fallback_paths);
    obs::counter_add("router.swaps_inserted", best.swap_count as u64);
    best
}

/// Inner-loop work counters accumulated by one routing trial. Plain `u64`
/// locals in the trial loop — always collected (the adds are free next to
/// the scoring work) and flushed to the `snailqc-obs` registry once per
/// [`route_with_cache`] call, so instrumentation never touches the hot path
/// and never perturbs routed output.
#[derive(Debug, Default, Clone, Copy)]
struct TrialStats {
    /// SWAP decisions taken (equals SWAPs inserted by the trial).
    swap_decisions: u64,
    /// Candidate SWAPs evaluated by the scoring loop.
    candidates_scored: u64,
    /// Pending two-qubit gates examined by lookahead-window walks.
    lookahead_gates_examined: u64,
    /// Times the shortest-path stall fallback overrode the heuristic.
    fallback_paths: u64,
}

impl TrialStats {
    fn accumulate(&mut self, other: &TrialStats) {
        self.swap_decisions += other.swap_decisions;
        self.candidates_scored += other.candidates_scored;
        self.lookahead_gates_examined += other.lookahead_gates_examined;
        self.fallback_paths += other.fallback_paths;
    }
}

/// The read-only state one trial borrows.
struct TrialShared<'a> {
    circuit: &'a Circuit,
    initial_layout: &'a Layout,
    metric: Metric<'a>,
    template: &'a TrialTemplate,
}

fn route_once(shared: &TrialShared<'_>, seed: u64) -> (RoutedCircuit, TrialStats) {
    let _trial_span = obs::span("router.trial");
    let mut stats = TrialStats::default();
    let TrialShared {
        circuit,
        initial_layout,
        metric,
        template,
    } = *shared;
    let graph = metric.graph;
    let noise = metric.weighted.map(|(_, noise)| noise);
    let mut rng = StdRng::seed_from_u64(seed);
    let instructions = circuit.instructions();
    let total = instructions.len();
    let n = graph.num_qubits();

    let mut in_degree = template.in_degree.clone();
    let mut front = template.initial_front.clone();
    let mut in_front = vec![false; total];
    for &idx in &front {
        in_front[idx] = true;
    }
    // Pending-2Q chain (pruned as gates execute).
    let mut head2q = template.head2q;
    let mut next2q = template.next2q.clone();
    let mut prev2q = template.prev2q.clone();
    let unlink2q = |idx: usize, head2q: &mut usize, next2q: &mut [usize], prev2q: &mut [usize]| {
        let (prev, next) = (prev2q[idx], next2q[idx]);
        if prev == total {
            *head2q = next;
        } else {
            next2q[prev] = next;
        }
        if next != total {
            prev2q[next] = prev;
        }
    };

    let mut layout = initial_layout.clone();
    let mut out = Circuit::new(n);
    let mut executed_count = 0usize;
    let mut swap_count = 0usize;
    let mut decay = vec![1.0f64; n];
    // Qubits whose decay a SWAP raised since the last reset; every other
    // entry of `decay` is 1.0, so a reset only has to visit these.
    let mut decayed: Vec<usize> = Vec::new();
    let mut swaps_since_progress = 0usize;
    // Per-decision scratch, reused across iterations — the trial inner loop
    // allocates nothing after this point (critical on kiloqubit devices,
    // where per-decision `Vec`s would dominate the routing time).
    let mut candidates: Vec<(usize, usize, usize)> = Vec::new();
    let mut candidate_seen = vec![false; graph.num_edges()];
    let mut lookahead: Vec<(usize, usize)> = Vec::with_capacity(LOOKAHEAD);
    let mut front_pairs: Vec<(usize, usize)> = Vec::new();
    let mut terms = TermTable::new(n);
    let mut next_front: Vec<usize> = Vec::with_capacity(front.len());
    let mut mapped_qubits: Vec<usize> = Vec::with_capacity(2);

    while executed_count < total {
        // 1. Execute every front instruction that is currently executable.
        let mut progressed = true;
        while progressed {
            progressed = false;
            next_front.clear();
            for &idx in &front {
                let inst = &instructions[idx];
                let executable = match inst.qubits.len() {
                    1 => true,
                    _ => {
                        let a = layout.physical(inst.qubits[0]);
                        let b = layout.physical(inst.qubits[1]);
                        graph.has_edge(a, b)
                    }
                };
                if executable {
                    emit_mapped(&mut out, inst, &layout, &mut mapped_qubits);
                    in_front[idx] = false;
                    if inst.qubits.len() == 2 {
                        unlink2q(idx, &mut head2q, &mut next2q, &mut prev2q);
                    }
                    executed_count += 1;
                    progressed = true;
                    swaps_since_progress = 0;
                    for &succ in &template.successors[idx] {
                        in_degree[succ] -= 1;
                        if in_degree[succ] == 0 {
                            next_front.push(succ);
                            in_front[succ] = true;
                        }
                    }
                } else {
                    next_front.push(idx);
                }
            }
            std::mem::swap(&mut front, &mut next_front);
            if progressed {
                for q in decayed.drain(..) {
                    decay[q] = 1.0;
                }
            }
        }
        if executed_count == total {
            break;
        }

        // 2. No front gate is executable: insert the best-scoring SWAP.
        // After phase 1 the front holds only blocked two-qubit gates.
        front_pairs.clear();
        front_pairs.extend(
            front
                .iter()
                .filter(|&&i| instructions[i].qubits.len() == 2)
                .map(|&i| (instructions[i].qubits[0], instructions[i].qubits[1])),
        );
        debug_assert!(
            !front_pairs.is_empty(),
            "router stalled with no blocked 2Q gate"
        );

        // Lookahead set: the next pending two-qubit gates in program order —
        // a walk of the pending-2Q chain, skipping the front.
        lookahead.clear();
        let mut cursor = head2q;
        while cursor != total && lookahead.len() < LOOKAHEAD {
            if !in_front[cursor] {
                let inst = &instructions[cursor];
                lookahead.push((inst.qubits[0], inst.qubits[1]));
            }
            cursor = next2q[cursor];
        }
        stats.lookahead_gates_examined += lookahead.len() as u64;

        // Candidate SWAPs: every edge touching a physical qubit involved in
        // a blocked front gate, first-occurrence order, deduplicated with an
        // edge-indexed bitmap.
        candidates.clear();
        for &(la, lb) in &front_pairs {
            let (a, b) = (layout.physical(la), layout.physical(lb));
            for p in [a, b] {
                for (q, id) in graph.neighbors_with_edge_ids(p) {
                    if !candidate_seen[id] {
                        candidate_seen[id] = true;
                        candidates.push((p.min(q), p.max(q), id));
                    }
                }
            }
        }
        for &(_, _, id) in &candidates {
            candidate_seen[id] = false;
        }

        terms.build(&metric, &layout, &front_pairs, &lookahead);

        // Noise-aware mode only: the continuous weighted-distance landscape
        // has plateaus where a SWAP lowers the weighted cost without moving
        // the front closer in hops, and a greedy walk can wander over them
        // inserting SWAPs that never converge. Restrict the candidate set to
        // SWAPs that strictly reduce the front's total hop distance (falling
        // back to the full set when none does), and let the noise-weighted
        // score choose *which* progressing SWAP — i.e. which route — to take.
        // Progressing candidates are compacted in place (stable, so
        // first-occurrence order survives); when none progresses the
        // original candidate set is kept untouched.
        if noise.is_some() {
            let mut kept = 0usize;
            for read in 0..candidates.len() {
                let (p, q, _) = candidates[read];
                if terms.front_hop_delta(&metric, p, q) < 0 {
                    candidates[kept] = candidates[read];
                    kept += 1;
                }
            }
            if kept > 0 {
                candidates.truncate(kept);
            }
        }

        let mut best_swap = (candidates[0].0, candidates[0].1);
        let mut best_score = f64::INFINITY;
        stats.candidates_scored += candidates.len() as u64;
        for &(p, q, id) in &candidates {
            let (front_cost, look_cost) = terms.costs(&metric, p, q);
            let mut score = front_cost + LOOKAHEAD_WEIGHT * look_cost;
            // Executing the SWAP itself burns pulses on edge (p, q); bias
            // away from noisy links even when the distances tie.
            if let Some(n) = noise {
                score += n.swap_penalty(id);
            }
            score *= decay[p].max(decay[q]);
            // Randomized tie-breaking keeps trials diverse (StochasticSwap).
            // Integer hop scores tie constantly, so an absolute 1e-6 nudge is
            // enough; continuous noise-weighted scores almost never tie, so
            // noisy mode needs a small relative jitter or every trial would
            // collapse onto the same route and best-of-N would buy nothing.
            score += rng.gen::<f64>() * 1e-6;
            if noise.is_some() {
                score *= 1.0 + 0.02 * rng.gen::<f64>();
            }
            if score < best_score {
                best_score = score;
                best_swap = (p, q);
            }
        }

        // Fallback: if the heuristic has stalled for too long, walk the first
        // blocked gate together along a shortest path (guarantees progress).
        swaps_since_progress += 1;
        if swaps_since_progress > 4 * n {
            let (la, lb) = front_pairs[0];
            let (a, b) = (layout.physical(la), layout.physical(lb));
            let path = graph.shortest_path(a, b).expect("connected graph");
            best_swap = (path[0], path[1]);
            stats.fallback_paths += 1;
        }

        let (p, q) = best_swap;
        out.push(Gate::Swap, &[p, q]);
        layout.swap_physical(p, q);
        swap_count += 1;
        stats.swap_decisions += 1;
        for r in [p, q] {
            if decay[r] == 1.0 {
                decayed.push(r);
            }
            decay[r] += 0.001;
        }
    }

    (
        RoutedCircuit {
            circuit: out,
            initial_layout: initial_layout.clone(),
            final_layout: layout,
            swap_count,
        },
        stats,
    )
}

/// Pushes `inst` remapped through `layout`, staging the physical qubit
/// indices in the caller's reusable `scratch` buffer (`Circuit::push` copies
/// the slice, so the scratch never escapes).
fn emit_mapped(out: &mut Circuit, inst: &Instruction, layout: &Layout, scratch: &mut Vec<usize>) {
    scratch.clear();
    scratch.extend(inst.qubits.iter().map(|&q| layout.physical(q)));
    out.push(inst.gate.clone(), scratch);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::LayoutStrategy;
    use snailqc_circuit::simulate;
    use snailqc_topology::builders;
    use snailqc_workloads::{ghz, qft, quantum_volume};

    fn route_with(
        circuit: &Circuit,
        graph: &CouplingGraph,
        strategy: LayoutStrategy,
        seed: u64,
    ) -> RoutedCircuit {
        let layout = strategy.try_compute(circuit, graph).unwrap();
        route_with_cache(
            circuit,
            graph,
            &layout,
            &RouterConfig {
                seed,
                ..RouterConfig::default()
            },
            &RoutingCache::new(),
        )
    }

    /// Checks that the routed circuit implements the original circuit up to
    /// the tracked qubit permutation (statevector comparison).
    fn assert_semantics_preserved(original: &Circuit, routed: &RoutedCircuit) {
        assert_eq!(
            original.num_qubits(),
            routed.circuit.num_qubits(),
            "use equal-size device"
        );
        let sv_original = simulate(original);
        let sv_routed = simulate(&routed.circuit);
        // Physical qubit p holds logical qubit final_layout.logical(p); map it
        // back so the two states are expressed over logical qubits. Before
        // the circuit begins every qubit is |0⟩, so the initial layout does
        // not affect the all-zeros input state.
        let perm: Vec<usize> = (0..routed.circuit.num_qubits())
            .map(|p| routed.final_layout.logical(p).unwrap_or(p))
            .collect();
        let sv_logical = sv_routed.permute_qubits(&perm);
        let fidelity = sv_original.fidelity(&sv_logical);
        assert!(
            fidelity > 1.0 - 1e-7,
            "routing broke semantics: fidelity {fidelity}"
        );
    }

    #[test]
    fn adjacent_gates_need_no_swaps() {
        let graph = builders::line(4);
        let mut c = Circuit::new(4);
        c.h(0);
        c.cx(0, 1);
        c.cx(1, 2);
        c.cx(2, 3);
        let routed = route_with(&c, &graph, LayoutStrategy::Trivial, 1);
        assert_eq!(routed.swap_count, 0);
        assert_eq!(routed.circuit.len(), c.len());
    }

    #[test]
    fn distant_gate_on_a_line_needs_swaps() {
        let graph = builders::line(5);
        let mut c = Circuit::new(5);
        c.cx(0, 4);
        let routed = route_with(&c, &graph, LayoutStrategy::Trivial, 2);
        // Distance 4 ⇒ at least 3 SWAPs with a trivial layout.
        assert!(routed.swap_count >= 3, "swaps = {}", routed.swap_count);
        assert_semantics_preserved(&c, &routed);
    }

    #[test]
    fn routed_gates_always_touch_adjacent_qubits() {
        let graph = builders::square_lattice(3, 3);
        let c = qft(9, true);
        let routed = route_with(&c, &graph, LayoutStrategy::Dense, 3);
        for inst in routed.circuit.instructions() {
            if inst.is_two_qubit() {
                assert!(
                    graph.has_edge(inst.qubits[0], inst.qubits[1]),
                    "gate on non-adjacent qubits {:?}",
                    inst.qubits
                );
            }
        }
    }

    #[test]
    fn routing_preserves_semantics_on_lattice() {
        let graph = builders::square_lattice(2, 3);
        let c = qft(6, true);
        let routed = route_with(&c, &graph, LayoutStrategy::Trivial, 4);
        assert_semantics_preserved(&c, &routed);
    }

    #[test]
    fn routing_preserves_semantics_on_heavy_hex_fragment() {
        let graph = builders::heavy_hex(1, 1);
        let n = graph.num_qubits();
        let c = quantum_volume(n, 3, 5);
        let routed = route_with(&c, &graph, LayoutStrategy::Trivial, 5);
        assert_semantics_preserved(&c, &routed);
    }

    #[test]
    fn non_swap_gate_count_is_preserved() {
        let graph = builders::line(6);
        let c = qft(6, false);
        let routed = route_with(&c, &graph, LayoutStrategy::Dense, 6);
        let original_2q = c.two_qubit_count();
        assert_eq!(
            routed.circuit.two_qubit_count() - routed.swap_count,
            original_2q
        );
        assert_eq!(routed.circuit.swap_count(), routed.swap_count);
    }

    #[test]
    fn complete_graph_never_needs_swaps() {
        let graph = builders::complete(8);
        let c = qft(8, true);
        let routed = route_with(&c, &graph, LayoutStrategy::Trivial, 7);
        assert_eq!(routed.swap_count, 0);
    }

    #[test]
    fn richer_topologies_route_with_fewer_swaps() {
        // The paper's core claim at routing granularity: QFT on the 16-qubit
        // hypercube needs fewer SWAPs than on a 16-qubit line.
        let c = qft(16, true);
        let line = builders::line(16);
        let hyper = builders::hypercube(4);
        let on_line = route_with(&c, &line, LayoutStrategy::Dense, 8);
        let on_hyper = route_with(&c, &hyper, LayoutStrategy::Dense, 8);
        assert!(
            on_hyper.swap_count < on_line.swap_count,
            "hypercube {} vs line {}",
            on_hyper.swap_count,
            on_line.swap_count
        );
    }

    #[test]
    fn more_trials_never_hurt() {
        let graph = builders::square_lattice(4, 4);
        let c = quantum_volume(16, 8, 9);
        let layout = LayoutStrategy::Dense.try_compute(&c, &graph).unwrap();
        let one = route_with_cache(
            &c,
            &graph,
            &layout,
            &RouterConfig {
                trials: 1,
                seed: 3,
                ..RouterConfig::default()
            },
            &RoutingCache::new(),
        );
        let many = route_with_cache(
            &c,
            &graph,
            &layout,
            &RouterConfig {
                trials: 6,
                seed: 3,
                ..RouterConfig::default()
            },
            &RoutingCache::new(),
        );
        assert!(many.swap_count <= one.swap_count);
    }

    #[test]
    fn final_layout_tracks_swaps() {
        let graph = builders::line(3);
        let mut c = Circuit::new(3);
        c.cx(0, 2);
        let routed = route_with(&c, &graph, LayoutStrategy::Trivial, 10);
        // Whatever SWAPs happened, the final layout must still be a bijection
        // over the occupied physical qubits.
        let mut seen = std::collections::HashSet::new();
        for l in 0..3 {
            assert!(seen.insert(routed.final_layout.physical(l)));
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let graph = builders::square_lattice(3, 3);
        let c = quantum_volume(9, 5, 4);
        let a = route_with(&c, &graph, LayoutStrategy::Dense, 42);
        let b = route_with(&c, &graph, LayoutStrategy::Dense, 42);
        assert_eq!(a.swap_count, b.swap_count);
        assert_eq!(a.circuit.len(), b.circuit.len());
    }

    #[test]
    fn cached_routing_is_bitwise_identical_to_uncached() {
        let graph = builders::calibrated(&builders::square_lattice(4, 4), 1e-3, 1.2, 17);
        let c = quantum_volume(12, 6, 8);
        let layout = LayoutStrategy::Dense.try_compute(&c, &graph).unwrap();
        for config in [
            RouterConfig::default(),
            RouterConfig::noise_aware(1.0),
            RouterConfig::noise_aware(0.5),
        ] {
            let fresh = route_with_cache(&c, &graph, &layout, &config, &RoutingCache::new());
            let cache = RoutingCache::new();
            let cold = route_with_cache(&c, &graph, &layout, &config, &cache);
            let warm = route_with_cache(&c, &graph, &layout, &config, &cache);
            for routed in [&cold, &warm] {
                assert_eq!(fresh.swap_count, routed.swap_count);
                assert_eq!(
                    fresh.circuit.instructions(),
                    routed.circuit.instructions(),
                    "cache changed routed output"
                );
            }
        }
    }

    /// The `(front_cost, look_cost)` of the SWAP `(p, q)` recomputed from
    /// scratch, as the router scored candidates before the term table:
    /// swap a copy of the layout and re-read every pair's scoring distance
    /// from the row of its first endpoint, summing in order.
    fn costs_from_scratch(
        metric: &Metric<'_>,
        layout: &Layout,
        front: &[(usize, usize)],
        lookahead: &[(usize, usize)],
        (p, q): (usize, usize),
    ) -> (f64, f64) {
        let mut swapped = layout.clone();
        swapped.swap_physical(p, q);
        let dist = |&(la, lb): &(usize, usize)| {
            let (a, b) = (swapped.physical(la), swapped.physical(lb));
            if metric.weighted.is_some() {
                metric.weighted(a, b)
            } else {
                f64::from(metric.hops(a, b))
            }
        };
        (
            front.iter().map(dist).sum(),
            lookahead.iter().map(dist).sum(),
        )
    }

    /// Front hop distance summed over a layout, from scratch.
    fn front_hops(metric: &Metric<'_>, layout: &Layout, front: &[(usize, usize)]) -> i64 {
        front
            .iter()
            .map(|&(la, lb)| i64::from(metric.hops(layout.physical(la), layout.physical(lb))))
            .sum()
    }

    /// One to `max` random pairs of distinct logical qubits out of
    /// `num_logical`.
    fn random_pairs(rng: &mut StdRng, num_logical: usize, max: usize) -> Vec<(usize, usize)> {
        (0..rng.gen_range(1..=max))
            .map(|_| {
                let la = rng.gen_range(0..num_logical);
                let lb = (la + rng.gen_range(1..num_logical)) % num_logical;
                (la, lb)
            })
            .collect()
    }

    #[test]
    fn term_table_scores_every_candidate_like_a_from_scratch_recompute() {
        let graphs = [
            builders::square_lattice(5, 6),
            builders::hypercube(6),
            builders::heavy_hex(2, 2),
        ];
        let mut rng = StdRng::seed_from_u64(25);
        for graph in &graphs {
            let graph = builders::calibrated(graph, 1e-3, 1.2, 17);
            let n = graph.num_qubits();
            let noise = NoiseContext::build(&graph, &RouterConfig::noise_aware(1.0))
                .expect("calibrated edges are heterogeneous");
            let (hops, rows) = (HopMatrix::new(&graph), WeightedRows::new(&graph));
            let edges: Vec<(usize, usize)> = graph.edges().collect();
            for weighted in [None, Some((&rows, &noise))] {
                let metric = Metric {
                    graph: &graph,
                    hops: &hops,
                    weighted,
                };
                let mut table = TermTable::new(n);
                let mut both_moved = 0;
                for _ in 0..12 {
                    // Three qubits stay empty, so some candidates move a
                    // program qubit onto an unoccupied one.
                    let mut physical: Vec<usize> = (0..n).collect();
                    for i in (1..n).rev() {
                        physical.swap(i, rng.gen_range(0..=i));
                    }
                    physical.truncate(n - 3);
                    let layout = Layout::new(physical, n);
                    let logical = n - 3;
                    let mut front = random_pairs(&mut rng, logical, 6);
                    let mut lookahead = random_pairs(&mut rng, logical, LOOKAHEAD);
                    // A front pair on an edge, so that edge's candidate moves
                    // both of its endpoints, and a lookahead pair sharing a
                    // qubit with that front pair.
                    let on_edge = edges
                        .iter()
                        .filter_map(|&(x, y)| Some((layout.logical(x)?, layout.logical(y)?)))
                        .nth(rng.gen_range(0..8usize))
                        .expect("occupied edge");
                    front[0] = on_edge;
                    lookahead[0] = (lookahead[0].0, on_edge.1);
                    if lookahead[0].0 == on_edge.1 {
                        lookahead[0].0 = on_edge.0;
                    }
                    table.build(&metric, &layout, &front, &lookahead);
                    let base = front_hops(&metric, &layout, &front);
                    for &(p, q) in &edges {
                        let got = table.costs(&metric, p, q);
                        let want = costs_from_scratch(&metric, &layout, &front, &lookahead, (p, q));
                        assert_eq!(
                            (got.0.to_bits(), got.1.to_bits()),
                            (want.0.to_bits(), want.1.to_bits()),
                            "{}: SWAP ({p}, {q}) scored {got:?}, from scratch {want:?} \
                             (weighted: {})",
                            graph.name(),
                            weighted.is_some()
                        );
                        let mut swapped = layout.clone();
                        swapped.swap_physical(p, q);
                        assert_eq!(
                            table.front_hop_delta(&metric, p, q),
                            front_hops(&metric, &swapped, &front) - base,
                            "{}: front hop delta of SWAP ({p}, {q})",
                            graph.name()
                        );
                        both_moved += front
                            .iter()
                            .chain(&lookahead)
                            .filter(|&&(la, lb)| {
                                let pair = (layout.physical(la), layout.physical(lb));
                                pair == (p, q) || pair == (q, p)
                            })
                            .count();
                    }
                }
                assert!(
                    both_moved >= 12,
                    "every case has a term on a candidate edge"
                );
            }
        }
    }

    /// Routes `circuit` from a dense layout on a fresh cache and asserts
    /// that hop rows materialized only for qubits that held a program
    /// qubit: its initial placement or an endpoint of an inserted SWAP.
    fn assert_rows_only_where_program_qubits_sat(
        circuit: &Circuit,
        graph: &CouplingGraph,
        config: &RouterConfig,
    ) {
        let layout = LayoutStrategy::Dense.try_compute(circuit, graph).unwrap();
        let cache = RoutingCache::new();
        let routed = route_with_cache(circuit, graph, &layout, config, &cache);
        let mut held = layout.as_slice().to_vec();
        for inst in routed.circuit.instructions() {
            if inst.gate.is_swap() {
                held.extend_from_slice(&inst.qubits);
            }
        }
        held.sort_unstable();
        held.dedup();
        // Filling the held rows adds exactly the held rows not yet there, so
        // the count equals `held` iff no row outside it had materialized.
        let hops = cache.hops.get().unwrap();
        let rows = hops.materialized_rows();
        hops.fill(graph, &held);
        assert_eq!(
            hops.materialized_rows(),
            held.len(),
            "{}: {rows} hop rows, some outside the {} held qubits",
            graph.name(),
            held.len()
        );
    }

    #[test]
    fn noise_blind_routing_reads_hop_rows_only_where_program_qubits_sat() {
        // A moved term reads the row of its stationary endpoint, never the
        // row of the qubit a candidate SWAP would move it onto, and the
        // batch fill covers only the initial placement.
        let graph = builders::hypercube(8);
        let c = qft(16, true);
        assert_rows_only_where_program_qubits_sat(&c, &graph, &RouterConfig::default());
        let calibrated = builders::calibrated(&graph, 1e-3, 1.2, 17);
        assert_rows_only_where_program_qubits_sat(&c, &calibrated, &RouterConfig::noise_aware(1.0));
    }

    #[test]
    fn a_near_full_ghz_materializes_no_row_outside_the_held_set() {
        let graph = builders::hypercube(8);
        let c = ghz(250);
        assert_rows_only_where_program_qubits_sat(&c, &graph, &RouterConfig::default());
    }

    #[test]
    fn parallel_trials_are_schedule_independent() {
        // The trial fan-out runs on however many worker threads the machine
        // offers, with a different interleaving every run; the trial-index-
        // ordered reduction must make every repetition bitwise-identical.
        let graph = builders::square_lattice(4, 4);
        let c = quantum_volume(14, 7, 21);
        let layout = LayoutStrategy::Dense.try_compute(&c, &graph).unwrap();
        for config in [
            RouterConfig {
                trials: 6,
                seed: 5,
                ..RouterConfig::default()
            },
            RouterConfig {
                trials: 6,
                seed: 5,
                ..RouterConfig::noise_aware(1.0)
            },
        ] {
            let graph = builders::calibrated(&graph, 1e-3, 1.2, 17);
            let first = route_with_cache(&c, &graph, &layout, &config, &RoutingCache::new());
            for _ in 0..3 {
                let again = route_with_cache(&c, &graph, &layout, &config, &RoutingCache::new());
                assert_eq!(first.swap_count, again.swap_count);
                assert_eq!(
                    first.circuit.instructions(),
                    again.circuit.instructions(),
                    "parallel trial reduction must not depend on scheduling"
                );
            }
        }
    }
}
