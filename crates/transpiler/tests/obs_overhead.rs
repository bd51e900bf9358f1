//! Overhead guard for the observability layer.
//!
//! The span call sites sit next to (and, for the trial spans, inside) the
//! router hot path, so a span outside a trace has to stay a thread-local
//! read + branch. Metrics always record, once per route, simulation, file or
//! request, so a counter add plus a histogram sample has to stay a short
//! registry update. This test routes the 84-qubit cell with no trace entered
//! — the real workload the instrumentation rides along with — then
//! micro-benchmarks both and fails if either costs more than a
//! (deliberately generous, debug-build-safe) per-op budget. It catches
//! structural regressions — an allocation per op, an eager snapshot, a span
//! that records outside a trace — not nanosecond drift.

use std::time::{Duration, Instant};

use snailqc_obs as obs;
use snailqc_topology::catalog;
use snailqc_transpiler::{route_with_cache, LayoutStrategy, RouterConfig, RoutingCache};
use snailqc_workloads::Workload;

/// Upper bound per op, in nanoseconds. An untraced span costs a
/// thread-local read and a metric pair a mutex round trip (tens of ns in release); the
/// budget leaves orders of magnitude of headroom for unoptimized debug
/// builds and noisy CI machines while still catching an allocation or a
/// contended lock per op.
const BUDGET_NANOS_PER_OP: u64 = 2_000;
const OPS: u64 = 200_000;

fn per_op_nanos(elapsed: Duration) -> u64 {
    elapsed.as_nanos() as u64 / OPS
}

#[test]
fn disabled_spans_and_always_on_metrics_stay_within_budget_on_the_84q_cell() {
    // A trace that exists but is not entered on this thread.
    let trace = obs::Trace::default();

    // The workload the instrumentation is embedded in: route the 84-qubit
    // heavy-hex cell with no trace entered. This exercises every span call
    // site in the router inner loop, worker fan-out included, and must
    // record none.
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

    let started = Instant::now();
    for _ in 0..OPS {
        let _span = obs::span("overhead.guard_span");
    }
    let per_span = per_op_nanos(started.elapsed());
    assert!(
        per_span <= BUDGET_NANOS_PER_OP,
        "untraced span took {per_span} ns (budget {BUDGET_NANOS_PER_OP} ns) over {OPS} \
         iterations — did something heavy land on the untraced path?"
    );
    assert!(trace.finish().spans.is_empty(), "untraced spans recorded");

    let started = Instant::now();
    for i in 0..OPS {
        obs::counter_add("overhead.guard_counter", 1);
        obs::histogram_record("overhead.guard_histogram", i);
    }
    let per_pair = per_op_nanos(started.elapsed());
    assert!(
        per_pair <= BUDGET_NANOS_PER_OP,
        "counter_add + histogram_record took {per_pair} ns (budget {BUDGET_NANOS_PER_OP} ns) \
         over {OPS} iterations — did something heavy land on the metrics path?"
    );
    let snapshot = obs::snapshot();
    assert_eq!(snapshot.counter("overhead.guard_counter"), Some(OPS));
    assert_eq!(
        snapshot
            .histogram("overhead.guard_histogram")
            .map(|h| h.count),
        Some(OPS)
    );
}
