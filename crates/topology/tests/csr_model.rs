//! Property tests pinning `CouplingGraph::from_edges` against a naive
//! set-and-map adjacency model: whatever order, orientation and repetition
//! the edge list has, the CSR graph must agree with the model on
//! `neighbors` order, `edges` order, `has_edge`, `edge_error`, and
//! `edge_index` round-trips.

use proptest::prelude::*;
use snailqc_topology::{CouplingGraph, DEFAULT_EDGE_ERROR};
use std::collections::{BTreeMap, BTreeSet};

/// The pre-CSR representation: per-node sorted neighbor sets plus an
/// override map keyed by `(min, max)`.
#[derive(Default)]
struct NaiveGraph {
    adjacency: Vec<BTreeSet<usize>>,
    overrides: BTreeMap<(usize, usize), f64>,
}

impl NaiveGraph {
    fn new(n: usize) -> Self {
        Self {
            adjacency: vec![BTreeSet::new(); n],
            overrides: BTreeMap::new(),
        }
    }

    fn insert(&mut self, a: usize, b: usize) {
        if a != b {
            self.adjacency[a].insert(b);
            self.adjacency[b].insert(a);
        }
    }

    fn edges(&self) -> Vec<(usize, usize)> {
        self.adjacency
            .iter()
            .enumerate()
            .flat_map(|(a, nbrs)| nbrs.range(a + 1..).map(move |&b| (a, b)))
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_graph_agrees_with_the_naive_model(
        n in 3usize..12,
        raw_inserts in proptest::collection::vec((0usize..64, 0usize..64), 1..40),
        overrides in proptest::collection::vec((0usize..64, 1e-4f64..0.5), 1..6),
    ) {
        // Endpoints are drawn over a fixed range and folded into `0..n`, so
        // the list has arbitrary orders; the first pair is repeated as is,
        // reversed and as a self-loop so every list holds all three.
        let mut inserts: Vec<(usize, usize)> =
            raw_inserts.iter().map(|&(a, b)| (a % n, b % n)).collect();
        let (a0, b0) = inserts[0];
        inserts.extend([(a0, b0), (b0, a0), (a0, a0)]);
        let mut csr = CouplingGraph::from_edges("model", n, &inserts);
        let mut naive = NaiveGraph::new(n);
        for &(a, b) in &inserts {
            naive.insert(a, b);
        }
        let edges = naive.edges();
        // Before any override every edge carries the default rate.
        prop_assert!(csr.edge_errors().all(|(_, rate)| rate == DEFAULT_EDGE_ERROR));
        prop_assert!(csr.edge_errors_uniform());
        // Apply overrides to both (index into the current edge list).
        for &(pick, rate) in &overrides {
            if edges.is_empty() {
                break;
            }
            let (a, b) = edges[pick % edges.len()];
            csr.set_edge_error(a, b, rate);
            naive.overrides.insert((a, b), rate);
        }

        // Edge list: lexicographic, identical to the model's sorted-set walk.
        prop_assert_eq!(csr.edges().collect::<Vec<_>>(), edges.clone());
        prop_assert_eq!(csr.num_edges(), edges.len());

        // Neighbors: ascending, identical contents per node.
        for q in 0..n {
            let want: Vec<usize> = naive.adjacency[q].iter().copied().collect();
            prop_assert_eq!(csr.neighbors(q).collect::<Vec<_>>(), want);
            prop_assert_eq!(csr.degree(q), naive.adjacency[q].len());
        }

        // has_edge / edge_index / edge_error over the full pair grid.
        for a in 0..n {
            for b in 0..n {
                let is_edge = a != b && naive.adjacency[a].contains(&b);
                prop_assert_eq!(csr.has_edge(a, b), is_edge);
                match csr.edge_index(a, b) {
                    Some(idx) => {
                        prop_assert!(is_edge);
                        // The index is the lexicographic rank of (min, max).
                        prop_assert_eq!(edges[idx], (a.min(b), a.max(b)));
                        let want = naive
                            .overrides
                            .get(&(a.min(b), a.max(b)))
                            .copied()
                            .unwrap_or(DEFAULT_EDGE_ERROR);
                        prop_assert_eq!(csr.edge_error(a, b), want);
                    }
                    None => prop_assert!(!is_edge),
                }
            }
        }

        // neighbors_with_edge_ids is neighbors zipped with edge_index, and
        // each id names the edge's lexicographic rank in the model.
        for q in 0..n {
            for (v, id) in csr.neighbors_with_edge_ids(q) {
                prop_assert_eq!(csr.edge_index(q, v), Some(id));
                prop_assert_eq!(edges[id], (q.min(v), q.max(v)));
            }
        }

        // Uniformity flag matches the model's override semantics.
        let uniform = {
            let vals: Vec<f64> = naive.overrides.values().copied().collect();
            match vals.first() {
                None => true,
                Some(&first) => {
                    vals.iter().all(|&r| r == first)
                        && (first == DEFAULT_EDGE_ERROR
                            || naive.overrides.len() == edges.len())
                }
            }
        };
        prop_assert_eq!(csr.edge_errors_uniform(), uniform);
    }
}
