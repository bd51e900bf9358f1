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
//! **Spans belong to a trace.** A caller that wants spans (the CLI's
//! `--trace-out`) creates a [`Trace`] and enters it on its thread.
//! [`span()`] and [`span_with`] record only there; elsewhere, such as on
//! every `snailqc serve` thread, they cost one thread-local read and a
//! branch. Fan-out sites take [`carry`] and enter it in each worker, so
//! worker spans nest under the span that fanned out. A trace keeps at most
//! [`TRACE_CAPACITY`] spans and counts the rest; [`Trace::finish`] hands
//! back both.
//!
//! **Metrics always count.** [`counter_add`] and [`histogram_record`] record
//! in every process: every call site runs at most once per route,
//! simulation, batch file or request, and a metric is a fixed-size entry in
//! one global registry, interned by `&'static str` name. Histograms use
//! fixed log₂ buckets (see [`metrics`]) giving p50/p90/p99 estimates at most
//! one power of two above the true quantile. Recording only observes what
//! the code already did, so it can never change computed results;
//! `crates/transpiler/tests/router_equivalence.rs` pins that property
//! against frozen output digests.
//!
//! ## Quick start
//!
//! ```
//! snailqc_obs::counter_add("work.items", 3); // counted outside a trace too
//! let trace = snailqc_obs::Trace::default();
//! {
//!     let _entered = trace.enter();
//!     let _outer = snailqc_obs::span("outer");
//!     let _inner = snailqc_obs::span_with("inner", "detail");
//! }
//! let record = trace.finish();
//! assert_eq!(record.spans.len(), 2);
//! let trace_json = snailqc_obs::chrome_trace(&record);
//! let snapshot = snailqc_obs::snapshot();
//! assert_eq!(snapshot.counter("work.items"), Some(3));
//! assert!(trace_json.contains("traceEvents"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod metrics;
pub mod span;

pub use export::{chrome_trace, metrics_json, metrics_to_value, summary_table};
pub use metrics::{
    counter_add, histogram_record, reset_metrics, snapshot, HistogramSummary, MetricsSnapshot,
};
pub use span::{
    carry, span, span_with, Carry, SpanEvent, SpanGuard, Trace, TraceGuard, TraceRecord,
    TRACE_CAPACITY,
};

/// True when the `SNAILQC_TRACE` environment variable is set to any value
/// other than empty or `0`. The CLI then prints its metrics table to
/// stderr; it records no spans for it.
pub fn env_requests_tracing() -> bool {
    match std::env::var("SNAILQC_TRACE") {
        Ok(v) => !v.is_empty() && v != "0",
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    // Behavioural tests of traces and the metrics registry live in
    // tests/obs.rs.
    #[test]
    fn env_flag_parsing_ignores_zero_and_empty() {
        // Can't set the env var safely in a parallel test run; just make
        // sure the function is callable and returns a bool.
        let _ = super::env_requests_tracing();
    }
}
