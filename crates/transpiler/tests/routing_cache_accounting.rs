//! Exact routing-cache hit/miss accounting under concurrent first use.
//!
//! This is deliberately the only test in this binary: the observability
//! counters are process-global, so sharing a binary with any other test
//! that routes would leak foreign cache traffic into the deltas asserted
//! here. One `#[test]` also means no sibling test races the counters while
//! the parallel batches run.

use rayon::prelude::*;
use snailqc_topology::{builders, catalog};
use snailqc_transpiler::{route_with_cache, LayoutStrategy, RouterConfig, RoutingCache};

fn cache_counters() -> (u64, u64) {
    let snapshot = snailqc_obs::snapshot();
    (
        snapshot.counter("routing_cache.hits").unwrap_or(0),
        snapshot.counter("routing_cache.misses").unwrap_or(0),
    )
}

#[test]
fn parallel_first_use_counts_exactly_one_miss_per_matrix() {
    const CALLERS: u64 = 16;

    // Noise-blind: the only distance state is the hop matrix, and every
    // route call accesses the cache exactly once. Sixteen threads race the
    // first build; the `get_or_init` closure runs once, so exactly one of
    // them may count the miss — everyone else must count a hit.
    let graph = catalog::by_name("heavy-hex-84").expect("catalog");
    let circuit = snailqc_workloads::ghz(10);
    let config = RouterConfig::default();
    let layout = LayoutStrategy::Dense.try_compute(&circuit, &graph).unwrap();
    let cache = RoutingCache::new();
    let (hits_before, misses_before) = cache_counters();
    let routed: Vec<usize> = (0..CALLERS)
        .collect::<Vec<_>>()
        .par_iter()
        .map(|_| route_with_cache(&circuit, &graph, &layout, &config, &cache).swap_count)
        .collect();
    assert!(routed.iter().all(|&s| s == routed[0]), "non-deterministic");
    let (hits, misses) = cache_counters();
    assert_eq!(
        misses - misses_before,
        1,
        "hop matrix must miss exactly once"
    );
    assert_eq!(
        hits - hits_before,
        CALLERS - 1,
        "every other caller is a hit"
    );

    // Noise-aware on a calibrated graph: two matrices (hops + one weighted
    // scoring store), so two misses total across another racing batch, and
    // hits + misses still equals the exact number of cache accesses (two
    // per call).
    let noisy = builders::calibrated(&graph, 1e-3, 1.5, 7);
    let config = RouterConfig {
        error_weight: 1.0,
        ..RouterConfig::default()
    };
    let layout = LayoutStrategy::Dense.try_compute(&circuit, &noisy).unwrap();
    let cache = RoutingCache::new();
    let (hits_before, misses_before) = cache_counters();
    let _: Vec<usize> = (0..CALLERS)
        .collect::<Vec<_>>()
        .par_iter()
        .map(|_| route_with_cache(&circuit, &noisy, &layout, &config, &cache).swap_count)
        .collect();
    let (hits, misses) = cache_counters();
    assert_eq!(misses - misses_before, 2, "one miss per matrix, no more");
    assert_eq!(
        (hits - hits_before) + (misses - misses_before),
        2 * CALLERS,
        "hits + misses must equal the exact number of cache accesses"
    );
}
