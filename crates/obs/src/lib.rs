//! # snailqc-obs
//!
//! Hand-rolled, zero-dependency observability for the snailqc workspace:
//! RAII tracing spans with parent/child nesting, a registry of named
//! counters and histograms, and exporters for Chrome trace-event JSON
//! (loadable in Perfetto or `chrome://tracing`), a flat metrics JSON
//! snapshot, and a human-readable summary table.
//!
//! ## Design
//!
//! One process-global [`AtomicBool`] switches **spans** on and off.
//! [`span()`] and [`span_with`] check [`is_enabled`] first with a relaxed
//! load behind an `#[inline]` fast path, so spans left in hot loops cost a
//! single predicted branch when recording is off. Spans are the half worth
//! switching: each one is a buffered event that stays in memory until
//! [`take_spans`] drains it, so only a process that drains them (the CLI's
//! `--trace-out`) turns them on.
//!
//! **Metrics always count.** [`counter_add`] and [`histogram_record`] are
//! recorded whatever the switch says: every call site runs at most once
//! per route, simulation, batch file or request, and a metric is a
//! fixed-size entry in the registry, so a long-lived process such as
//! `snailqc serve` reports them without recording a single span. Because recording only observes
//! what the code already did, it can never change computed results;
//! `crates/transpiler/tests/router_equivalence.rs` pins that property
//! against frozen output digests.
//!
//! ### Per-thread span buffers
//!
//! Spans are recorded into a `thread_local!` buffer (see [`mod@span`]), so the
//! rayon-style worker threads used by the router's best-of-trials fan-out
//! never contend on a lock while tracing: each open-span stack push, pop,
//! and finished-event append touches only thread-local memory. A thread's
//! buffer is drained into the global collector when its outermost span
//! closes, when the thread exits (the buffer's `Drop` impl flushes it) or
//! when [`take_spans`] is called on that thread.
//!
//! ### Metrics
//!
//! Counters and histograms are interned by `&'static str` name in one
//! global registry; the name-keyed helpers are the one way to record.
//! Histograms use fixed log₂ buckets (see [`metrics`] module docs) giving
//! p50/p90/p99 estimates that are at most one power of two above the true
//! quantile.
//!
//! ## Quick start
//!
//! ```
//! snailqc_obs::counter_add("work.items", 3); // counted with spans off
//! snailqc_obs::enable();
//! {
//!     let _outer = snailqc_obs::span("outer");
//!     let _inner = snailqc_obs::span_with("inner", "detail");
//! }
//! snailqc_obs::disable();
//! let spans = snailqc_obs::take_spans();
//! let trace_json = snailqc_obs::chrome_trace(&spans);
//! let snapshot = snailqc_obs::snapshot();
//! assert_eq!(snapshot.counter("work.items"), Some(3));
//! assert!(trace_json.contains("traceEvents"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod metrics;
pub mod span;

use std::sync::atomic::{AtomicBool, Ordering};

pub use export::{chrome_trace, metrics_json, metrics_to_value, summary_table};
pub use metrics::{
    counter_add, histogram_record, reset_metrics, snapshot, HistogramSummary, MetricsSnapshot,
};
pub use span::{span, span_with, take_spans, SpanEvent, SpanGuard};

/// Process-global span switch; [`span()`] and [`span_with`] check it first.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// True when spans are recording. Relaxed load — this is the disabled-path
/// fast check and must stay as close to free as possible.
#[inline(always)]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn span recording on. Idempotent.
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turn span recording off. Already-buffered spans are kept until drained
/// or reset.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// True when the `SNAILQC_TRACE` environment variable is set to any value
/// other than empty or `0`. The CLI then prints its metrics table to
/// stderr; it records no spans for it.
pub fn env_requests_tracing() -> bool {
    match std::env::var("SNAILQC_TRACE") {
        Ok(v) => !v.is_empty() && v != "0",
        Err(_) => false,
    }
}

/// Drop all buffered spans and zero every registered metric. Mainly for
/// tests.
pub fn reset() {
    let _ = span::take_spans();
    metrics::reset_metrics();
}

#[cfg(test)]
mod tests {
    // Behavioural tests that toggle the global span switch live in
    // tests/obs.rs behind a serialization lock; unit tests here stay
    // enablement-independent.
    #[test]
    fn env_flag_parsing_ignores_zero_and_empty() {
        // Can't set the env var safely in a parallel test run; just make
        // sure the function is callable and returns a bool.
        let _ = super::env_requests_tracing();
    }
}
