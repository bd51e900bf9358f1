//! Behavioural tests for traces and the global metrics registry.
//!
//! Tests that read or reset the metrics registry serialize on one mutex —
//! `cargo test` runs tests in the same binary concurrently and the registry
//! is shared state. Traces belong to the test that made them.

use std::sync::{Mutex, MutexGuard};

use snailqc_obs as obs;

fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obs::reset_metrics();
    guard
}

#[test]
fn disabled_records_no_spans_and_metrics_still_count() {
    let _guard = exclusive();
    let trace = obs::Trace::default();
    {
        let _span = obs::span("never.recorded");
        let _detailed = obs::span_with("never.recorded_either", "detail");
        obs::counter_add("still.counted", 5);
        obs::histogram_record("still.sampled", 9);
    }
    assert!(trace.finish().spans.is_empty());
    let snapshot = obs::snapshot();
    assert_eq!(snapshot.counter("still.counted"), Some(5));
    let sampled = snapshot.histogram("still.sampled").unwrap();
    assert_eq!((sampled.count, sampled.min, sampled.max), (1, 9, 9));
}

#[test]
fn spans_nest_and_drain_with_parent_links() {
    let trace = obs::Trace::default();
    {
        let _entered = trace.enter();
        let _outer = obs::span("outer");
        {
            let _inner = obs::span_with("inner", "detail-text");
        }
        let _sibling = obs::span("sibling");
    }
    // Outside the entered scope nothing records.
    drop(obs::span("after.exit"));
    let record = trace.finish();
    let spans = record.spans;
    assert_eq!((spans.len(), record.dropped), (3, 0));
    let outer = spans.iter().find(|s| s.name == "outer").unwrap();
    let inner = spans.iter().find(|s| s.name == "inner").unwrap();
    let sibling = spans.iter().find(|s| s.name == "sibling").unwrap();
    assert_eq!(outer.parent, 0);
    assert_eq!(inner.parent, outer.id);
    assert_eq!(sibling.parent, outer.id);
    assert_eq!(inner.detail.as_deref(), Some("detail-text"));
    assert!(inner.start_ns >= outer.start_ns);
    assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
}

#[test]
fn worker_threads_record_into_a_trace_only_when_it_is_carried_to_them() {
    let trace = obs::Trace::default();
    {
        let _entered = trace.enter();
        let _span = obs::span("main.thread");
        let carried = obs::carry();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let _entered = carried.enter();
                    let _outer = obs::span("worker.carried");
                    let _inner = obs::span("worker.inner");
                });
                scope.spawn(|| {
                    let _span = obs::span("worker.uncarried");
                });
            }
        });
    }
    let spans = trace.finish().spans;
    let main = spans.iter().find(|s| s.name == "main.thread").unwrap();
    let named = |name| spans.iter().filter(move |s| s.name == name);
    assert_eq!(named("worker.uncarried").count(), 0);
    assert_eq!(named("worker.carried").count(), 4);
    for worker in named("worker.carried") {
        assert_eq!(worker.parent, main.id);
        assert_ne!(worker.tid, main.tid);
        let inner: Vec<_> = named("worker.inner")
            .filter(|s| s.parent == worker.id)
            .collect();
        assert_eq!(inner.len(), 1);
        assert_eq!(inner[0].tid, worker.tid);
    }
    // Outside a trace there is nothing to carry.
    assert!(obs::carry().enter().is_none());
}

#[test]
fn a_flooded_trace_keeps_its_capacity_and_counts_the_rest() {
    let _guard = exclusive();
    const EXTRA: usize = 37;
    let trace = obs::Trace::default();
    {
        let _entered = trace.enter();
        for _ in 0..obs::TRACE_CAPACITY + EXTRA {
            drop(obs::span("flood"));
        }
    }
    let record = trace.finish();
    assert_eq!(record.spans.len(), obs::TRACE_CAPACITY);
    assert_eq!(record.dropped, EXTRA as u64);
    let json = serde_json::from_str(&obs::chrome_trace(&record)).unwrap();
    assert_eq!(
        json.get("otherData").and_then(|o| o.get("dropped_spans")),
        Some(&serde::Value::UInt(EXTRA as u64))
    );
    assert_eq!(
        obs::snapshot().counter("trace.spans_dropped"),
        Some(EXTRA as u64)
    );
}

#[test]
fn counters_and_histograms_accumulate_and_reset() {
    let _guard = exclusive();
    obs::counter_add("test.counter", 10);
    obs::counter_add("test.counter", 1);
    obs::counter_add("test.counter", 4);
    for value in [1u64, 2, 3, 100, 1000] {
        obs::histogram_record("test.hist", value);
    }

    let snapshot = obs::snapshot();
    assert_eq!(snapshot.counter("test.counter"), Some(15));
    let summary = snapshot.histogram("test.hist").unwrap();
    assert_eq!(summary.count, 5);
    assert_eq!(summary.sum, 1106);
    assert_eq!(summary.min, 1);
    assert_eq!(summary.max, 1000);
    assert!(summary.p50 <= summary.p90 && summary.p90 <= summary.p99);
    assert!(summary.p99 >= 1000 && summary.p99 <= 1023);

    obs::reset_metrics();
    let cleared = obs::snapshot();
    assert_eq!(cleared.counter("test.counter"), Some(0));
    assert_eq!(cleared.histogram("test.hist").unwrap().count, 0);
    // Names stay registered across a reset and keep recording.
    obs::counter_add("test.counter", 1);
    assert_eq!(obs::snapshot().counter("test.counter"), Some(1));
}

#[test]
fn chrome_trace_of_a_real_run_parses_and_nests() {
    let trace = obs::Trace::default();
    {
        let _entered = trace.enter();
        let _outer = obs::span("trace.outer");
        let _inner = obs::span("trace.inner");
    }
    let json = obs::chrome_trace(&trace.finish());
    let value = serde_json::from_str(&json).expect("trace is valid JSON");
    let events = match value.get("traceEvents").unwrap() {
        serde::Value::Array(events) => events.clone(),
        other => panic!("traceEvents is {other:?}"),
    };
    assert_eq!(events.len(), 2);
    let find = |name: &str| {
        events
            .iter()
            .find(|e| e.get("name") == Some(&serde::Value::String(name.to_string())))
            .unwrap()
            .clone()
    };
    let outer = find("trace.outer");
    let inner = find("trace.inner");
    assert_eq!(
        inner.get("args").unwrap().get("parent"),
        outer.get("args").unwrap().get("id")
    );
}
