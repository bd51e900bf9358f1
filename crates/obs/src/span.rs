//! RAII tracing spans recorded into a caller-owned [`Trace`] (design in the
//! crate docs). Each thread holds the trace it has entered and its innermost
//! open span; a finished span appends to the trace under its lock.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Most spans one trace keeps; later ones are only counted.
pub const TRACE_CAPACITY: usize = 1 << 16;

/// One finished span: a named interval with thread and ancestry metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Static span name, e.g. `"pipeline.routing"`.
    pub name: &'static str,
    /// Optional free-form annotation (file name, cell label, …).
    pub detail: Option<String>,
    /// Unique id of this span (process-wide, never 0).
    pub id: u64,
    /// Id of the enclosing span, or 0 for roots. A worker's outermost spans
    /// have the span that carried the trace to it as parent.
    pub parent: u64,
    /// Small dense id of the recording thread (1-based, process-wide).
    pub tid: u64,
    /// Start time in nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// What a finished trace gives back.
#[derive(Debug, Default)]
pub struct TraceRecord {
    /// Kept spans, sorted by start time.
    pub spans: Vec<SpanEvent>,
    /// Spans that finished after the trace already held [`TRACE_CAPACITY`].
    pub dropped: u64,
}

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

/// All traces share one epoch so timestamps are comparable across threads.
fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

type Shared = Arc<Mutex<TraceRecord>>;

/// A span recorder owned by the caller of one run.
#[derive(Default)]
pub struct Trace(Shared);

/// The trace entered on a thread and its innermost open span.
struct Scope {
    trace: Shared,
    tid: u64,
    parent: u64,
}

thread_local! {
    static SCOPE: RefCell<Option<Scope>> = const { RefCell::new(None) };
    static TID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
}

impl Trace {
    /// Records this thread's spans into the trace until the guard drops.
    pub fn enter(&self) -> TraceGuard<'_> {
        enter(&self.0, 0)
    }

    /// The spans recorded so far, sorted by start time, and the drop count,
    /// which is also added to the counter `trace.spans_dropped`.
    pub fn finish(self) -> TraceRecord {
        let mut record = std::mem::take(&mut *self.0.lock().unwrap_or_else(|e| e.into_inner()));
        record.spans.sort_by_key(|s| (s.start_ns, s.id));
        crate::counter_add("trace.spans_dropped", record.dropped);
        record
    }
}

/// The current thread's trace, carried to worker threads by [`carry`].
pub struct Carry(Option<(Shared, u64)>);

/// Captures the trace entered on this thread, if any, with its innermost
/// open span as the parent of whatever a worker records under it.
pub fn carry() -> Carry {
    Carry(
        SCOPE
            .try_with(|scope| scope.borrow().as_ref().map(|s| (s.trace.clone(), s.parent)))
            .ok()
            .flatten(),
    )
}

impl Carry {
    /// Enters the carried trace on this thread; `None` when nothing was
    /// carried.
    pub fn enter(&self) -> Option<TraceGuard<'_>> {
        self.0.as_ref().map(|(trace, parent)| enter(trace, *parent))
    }
}

/// Keeps a trace entered on the thread that entered it; dropping it
/// restores what that thread had entered before.
#[must_use = "the trace is entered until the guard is dropped"]
pub struct TraceGuard<'a> {
    previous: Option<Scope>,
    _thread: PhantomData<(&'a (), *const ())>,
}

fn enter(trace: &Shared, parent: u64) -> TraceGuard<'static> {
    let scope = Scope {
        trace: trace.clone(),
        tid: TID.with(|tid| *tid),
        parent,
    };
    TraceGuard {
        previous: SCOPE.try_with(|s| s.replace(Some(scope))).ok().flatten(),
        _thread: PhantomData,
    }
}

impl Drop for TraceGuard<'_> {
    fn drop(&mut self) {
        let _ = SCOPE.try_with(|s| s.replace(self.previous.take()));
    }
}

/// RAII guard returned by [`span`]/[`span_with`]; records the interval from
/// creation to drop. Outside a trace the guard is an empty shell and both
/// construction and drop are branch-only.
#[must_use = "a span measures the interval until the guard is dropped"]
pub struct SpanGuard(Option<(Shared, SpanEvent)>);

#[inline]
fn entered() -> bool {
    SCOPE.try_with(|s| s.borrow().is_some()).unwrap_or(false)
}

/// Open a span. Near-free outside a trace: one thread-local read.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard(entered().then(|| open(name, None)).flatten())
}

/// Open a span with a free-form detail string, converted only inside a
/// trace: pass a `&str` rather than an owned copy.
#[inline]
pub fn span_with(name: &'static str, detail: impl Into<String>) -> SpanGuard {
    SpanGuard(entered().then(|| open(name, Some(detail.into()))).flatten())
}

#[cold]
fn open(name: &'static str, detail: Option<String>) -> Option<(Shared, SpanEvent)> {
    SCOPE
        .try_with(|scope| {
            let mut scope = scope.borrow_mut();
            let scope = scope.as_mut()?;
            let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
            let event = SpanEvent {
                name,
                detail,
                id,
                parent: std::mem::replace(&mut scope.parent, id),
                tid: scope.tid,
                start_ns: now_ns(),
                dur_ns: 0,
            };
            Some((scope.trace.clone(), event))
        })
        .ok()
        .flatten()
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((trace, mut event)) = self.0.take() else {
            return;
        };
        event.dur_ns = now_ns().saturating_sub(event.start_ns);
        // Hand the innermost-span slot back only if this span still holds
        // it: a guard dropped out of order, or after its trace guard, leaves
        // the thread's scope alone.
        let _ = SCOPE.try_with(|scope| {
            if let Some(scope) = scope.borrow_mut().as_mut().filter(|s| s.parent == event.id) {
                scope.parent = event.parent;
            }
        });
        let mut record = trace.lock().unwrap_or_else(|e| e.into_inner());
        if record.spans.len() < TRACE_CAPACITY {
            record.spans.push(event);
        } else {
            record.dropped += 1;
        }
    }
}
