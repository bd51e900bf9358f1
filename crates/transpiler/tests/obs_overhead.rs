//! Disabled-path overhead guard for the observability layer.
//!
//! The span/counter call sites sit next to (and, for the trial counters,
//! inside) the router hot path, so the disabled fast path has to stay a
//! relaxed atomic load + branch. This test routes the 84-qubit cell with
//! recording off — the real workload the instrumentation rides along with —
//! then micro-benchmarks the disabled ops and fails if one costs more than
//! a (deliberately generous, debug-build-safe) per-op budget. It catches
//! structural regressions — a lock, an allocation, or an eager snapshot on
//! the disabled path — not nanosecond drift.

use std::time::Instant;

use snailqc_obs as obs;
use snailqc_topology::catalog;
use snailqc_transpiler::{route_with_cache, LayoutStrategy, RouterConfig, RoutingCache};
use snailqc_workloads::Workload;

/// Upper bound per disabled span+counter+histogram op, in nanoseconds.
/// The real cost is a few relaxed loads (single-digit ns in release); the
/// budget leaves two orders of magnitude of headroom for unoptimized debug
/// builds and noisy CI machines while still catching an accidental mutex
/// or allocation (micro- not nanosecond territory once contended).
const BUDGET_NANOS_PER_OP: u64 = 2_000;
const OPS: u64 = 200_000;

#[test]
fn disabled_span_and_counter_ops_stay_within_budget_on_the_84q_cell() {
    obs::disable();

    // The workload the instrumentation is embedded in: route the 84-qubit
    // heavy-hex cell with recording off. This exercises every disabled call
    // site in the router inner loop and must record nothing.
    let graph = catalog::by_name("heavy-hex-84").unwrap();
    let circuit = Workload::QuantumVolume.generate(24, 11);
    let layout = LayoutStrategy::Dense.try_compute(&circuit, &graph).unwrap();
    let routed = route_with_cache(
        &circuit,
        &graph,
        &layout,
        &RouterConfig::default(),
        &RoutingCache::new(),
    );
    assert!(routed.swap_count > 0, "cell routed trivially");
    assert!(
        obs::take_spans().is_empty(),
        "disabled routing recorded spans"
    );
    assert_eq!(
        obs::snapshot().counter("router.trials_run").unwrap_or(0),
        0,
        "disabled routing recorded counters"
    );

    // Micro-benchmark the disabled ops themselves. Cached handles first —
    // that is what a hot loop would hold.
    let counter = obs::counter("overhead.guard_counter");
    let histogram = obs::histogram("overhead.guard_histogram");
    let started = Instant::now();
    for i in 0..OPS {
        let _span = obs::span("overhead.guard_span");
        counter.add(i);
        histogram.record(i);
    }
    let elapsed = started.elapsed();

    let per_op = elapsed.as_nanos() as u64 / OPS;
    assert!(
        per_op <= BUDGET_NANOS_PER_OP,
        "disabled span+counter+histogram op took {per_op} ns (budget {BUDGET_NANOS_PER_OP} ns) \
         over {OPS} iterations — did something heavy land on the disabled path?"
    );
    assert_eq!(counter.value(), 0, "disabled counter accumulated");
    assert!(obs::take_spans().is_empty(), "disabled spans recorded");
}
