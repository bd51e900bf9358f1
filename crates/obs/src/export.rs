//! Exporters: Chrome trace-event JSON, a flat metrics JSON snapshot, and a
//! human-readable summary table.

use serde::Value;

use crate::metrics::MetricsSnapshot;
use crate::span::TraceRecord;

fn object(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Render spans as Chrome trace-event JSON (the `{"traceEvents": [...]}`
/// object form), loadable in Perfetto or `chrome://tracing`. Each span
/// becomes one complete (`"ph": "X"`) event; timestamps and durations are
/// microseconds as the format requires, and span/parent ids are carried in
/// `args` so the nesting survives even in viewers that re-sort events.
/// `otherData.dropped_spans` carries the trace's drop count.
pub fn chrome_trace(record: &TraceRecord) -> String {
    let events: Vec<Value> = record
        .spans
        .iter()
        .map(|span| {
            let mut args = vec![
                ("id", Value::UInt(span.id)),
                ("parent", Value::UInt(span.parent)),
            ];
            if let Some(detail) = &span.detail {
                args.push(("detail", Value::String(detail.clone())));
            }
            object(vec![
                ("name", Value::String(span.name.to_string())),
                ("cat", Value::String("snailqc".to_string())),
                ("ph", Value::String("X".to_string())),
                ("ts", Value::Float(span.start_ns as f64 / 1_000.0)),
                ("dur", Value::Float(span.dur_ns as f64 / 1_000.0)),
                ("pid", Value::UInt(1)),
                ("tid", Value::UInt(span.tid)),
                ("args", object(args)),
            ])
        })
        .collect();
    let trace = object(vec![
        ("traceEvents", Value::Array(events)),
        ("displayTimeUnit", Value::String("ms".to_string())),
        (
            "otherData",
            object(vec![
                ("generator", Value::String("snailqc-obs".to_string())),
                ("dropped_spans", Value::UInt(record.dropped)),
            ]),
        ),
    ]);
    serde_json::to_string(&trace).expect("trace serialization is infallible")
}

/// Convert a metrics snapshot to a JSON value with top-level `counters` and
/// `histograms` objects keyed by metric name.
pub fn metrics_to_value(snapshot: &MetricsSnapshot) -> Value {
    let counters = Value::Object(
        snapshot
            .counters
            .iter()
            .map(|(name, value)| (name.clone(), Value::UInt(*value)))
            .collect(),
    );
    let histograms = Value::Object(
        snapshot
            .histograms
            .iter()
            .map(|(name, summary)| {
                (
                    name.clone(),
                    object(vec![
                        ("count", Value::UInt(summary.count)),
                        ("sum", Value::UInt(summary.sum)),
                        ("mean", Value::Float(summary.mean)),
                        ("min", Value::UInt(summary.min)),
                        ("max", Value::UInt(summary.max)),
                        ("p50", Value::UInt(summary.p50)),
                        ("p90", Value::UInt(summary.p90)),
                        ("p99", Value::UInt(summary.p99)),
                    ]),
                )
            })
            .collect(),
    );
    object(vec![("counters", counters), ("histograms", histograms)])
}

/// Pretty-printed JSON form of [`metrics_to_value`].
pub fn metrics_json(snapshot: &MetricsSnapshot) -> String {
    serde_json::to_string_pretty(&metrics_to_value(snapshot))
        .expect("metrics serialization is infallible")
}

/// Render a metrics snapshot as an aligned, human-readable table (the
/// `SNAILQC_TRACE=1` stderr summary).
pub fn summary_table(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let name_width = snapshot
        .counters
        .iter()
        .map(|(n, _)| n.len())
        .chain(snapshot.histograms.iter().map(|(n, _)| n.len()))
        .max()
        .unwrap_or(4)
        .max(4);
    if !snapshot.counters.is_empty() {
        out.push_str("counters\n");
        for (name, value) in &snapshot.counters {
            out.push_str(&format!("  {name:<name_width$}  {value}\n"));
        }
    }
    if !snapshot.histograms.is_empty() {
        out.push_str("histograms (count / mean / p50 / p90 / p99 / max)\n");
        for (name, s) in &snapshot.histograms {
            out.push_str(&format!(
                "  {name:<name_width$}  {} / {:.1} / {} / {} / {} / {}\n",
                s.count, s.mean, s.p50, s.p90, s.p99, s.max
            ));
        }
    }
    if out.is_empty() {
        out.push_str("(no metrics recorded)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::HistogramSummary;
    use crate::span::SpanEvent;

    fn sample_span() -> SpanEvent {
        SpanEvent {
            name: "test.span",
            detail: Some("cell".to_string()),
            id: 7,
            parent: 3,
            tid: 2,
            start_ns: 1_500,
            dur_ns: 2_000,
        }
    }

    #[test]
    fn chrome_trace_emits_complete_events_with_micros() {
        let json = chrome_trace(&TraceRecord {
            spans: vec![sample_span()],
            dropped: 4,
        });
        let value = serde_json::from_str(&json).unwrap();
        let events = match value.get("traceEvents").unwrap() {
            Value::Array(events) => events,
            other => panic!("traceEvents is {other:?}"),
        };
        assert_eq!(events.len(), 1);
        let event = &events[0];
        assert_eq!(event.get("ph").unwrap(), &Value::String("X".to_string()));
        assert_eq!(event.get("ts").unwrap().as_f64().unwrap(), 1.5);
        assert_eq!(event.get("dur").unwrap().as_f64().unwrap(), 2.0);
        assert_eq!(
            event.get("args").unwrap().get("parent").unwrap(),
            &Value::UInt(3)
        );
        let other = value.get("otherData").unwrap();
        assert_eq!(other.get("dropped_spans"), Some(&Value::UInt(4)));
    }

    #[test]
    fn metrics_value_has_the_two_top_level_sections() {
        let snapshot = MetricsSnapshot {
            counters: vec![("router.trials_run".to_string(), 12)],
            histograms: vec![(
                "batch.file_micros".to_string(),
                HistogramSummary {
                    count: 2,
                    sum: 30,
                    mean: 15.0,
                    min: 10,
                    max: 20,
                    p50: 15,
                    p90: 20,
                    p99: 20,
                },
            )],
        };
        let value = metrics_to_value(&snapshot);
        assert_eq!(
            value.get("counters").unwrap().get("router.trials_run"),
            Some(&Value::UInt(12))
        );
        assert!(value.get("gauges").is_none());
        let hist = value.get("histograms").unwrap().get("batch.file_micros");
        assert_eq!(hist.unwrap().get("p99"), Some(&Value::UInt(20)));
        // Round-trips through the JSON renderer and parser.
        let rendered = metrics_json(&snapshot);
        assert!(serde_json::from_str(&rendered).is_ok());
    }

    #[test]
    fn summary_table_lists_every_metric_name() {
        let snapshot = MetricsSnapshot {
            counters: vec![("a.count".to_string(), 1)],
            histograms: vec![(
                "c.hist".to_string(),
                HistogramSummary {
                    count: 1,
                    sum: 5,
                    mean: 5.0,
                    min: 5,
                    max: 5,
                    p50: 5,
                    p90: 5,
                    p99: 5,
                },
            )],
        };
        let table = summary_table(&snapshot);
        for name in ["a.count", "c.hist"] {
            assert!(table.contains(name), "missing {name} in:\n{table}");
        }
        assert_eq!(
            summary_table(&MetricsSnapshot::default()),
            "(no metrics recorded)\n"
        );
    }
}
