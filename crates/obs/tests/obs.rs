//! Behavioural tests for the global span/metrics machinery.
//!
//! These tests toggle the process-global span switch and drain the global
//! collectors, so they serialize on one mutex — `cargo test` runs tests in
//! the same binary concurrently and the switch is shared state.

use std::sync::{Mutex, MutexGuard};

use snailqc_obs as obs;

fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obs::disable();
    obs::reset();
    guard
}

#[test]
fn disabled_records_no_spans_and_metrics_still_count() {
    let _guard = exclusive();
    {
        let _span = obs::span("never.recorded");
        let _detailed = obs::span_with("never.recorded_either", "detail");
        obs::counter_add("still.counted", 5);
        obs::histogram_record("still.sampled", 9);
    }
    assert!(obs::take_spans().is_empty());
    let snapshot = obs::snapshot();
    assert_eq!(snapshot.counter("still.counted"), Some(5));
    let sampled = snapshot.histogram("still.sampled").unwrap();
    assert_eq!((sampled.count, sampled.min, sampled.max), (1, 9, 9));
}

#[test]
fn spans_nest_and_drain_with_parent_links() {
    let _guard = exclusive();
    obs::enable();
    {
        let _outer = obs::span("outer");
        {
            let _inner = obs::span_with("inner", "detail-text");
        }
        let _sibling = obs::span("sibling");
    }
    obs::disable();
    let spans = obs::take_spans();
    assert_eq!(spans.len(), 3);
    let outer = spans.iter().find(|s| s.name == "outer").unwrap();
    let inner = spans.iter().find(|s| s.name == "inner").unwrap();
    let sibling = spans.iter().find(|s| s.name == "sibling").unwrap();
    assert_eq!(outer.parent, 0);
    assert_eq!(inner.parent, outer.id);
    assert_eq!(sibling.parent, outer.id);
    assert_eq!(inner.detail.as_deref(), Some("detail-text"));
    assert!(inner.start_ns >= outer.start_ns);
    assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
    // Drained means gone.
    assert!(obs::take_spans().is_empty());
}

#[test]
fn worker_thread_spans_flush_when_the_thread_exits() {
    let _guard = exclusive();
    obs::enable();
    {
        let _span = obs::span("main.thread");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let _span = obs::span("worker.thread");
                });
            }
        });
    }
    obs::disable();
    let spans = obs::take_spans();
    let workers: Vec<_> = spans.iter().filter(|s| s.name == "worker.thread").collect();
    let main = spans.iter().find(|s| s.name == "main.thread").unwrap();
    assert_eq!(workers.len(), 4);
    // Worker spans are roots on their own threads, with distinct tids.
    for worker in &workers {
        assert_eq!(worker.parent, 0);
        assert_ne!(worker.tid, main.tid);
    }
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

    obs::reset();
    let cleared = obs::snapshot();
    assert_eq!(cleared.counter("test.counter"), Some(0));
    assert_eq!(cleared.histogram("test.hist").unwrap().count, 0);
    // Names stay registered across a reset and keep recording.
    obs::counter_add("test.counter", 1);
    assert_eq!(obs::snapshot().counter("test.counter"), Some(1));
}

#[test]
fn chrome_trace_of_a_real_run_parses_and_nests() {
    let _guard = exclusive();
    obs::enable();
    {
        let _outer = obs::span("trace.outer");
        let _inner = obs::span("trace.inner");
    }
    obs::disable();
    let spans = obs::take_spans();
    let json = obs::chrome_trace(&spans);
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
