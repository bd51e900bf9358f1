//! RAII tracing spans with parent/child nesting.
//!
//! Each thread owns a private buffer (`thread_local!`) holding its open-span
//! stack and finished events, so recording a span is lock-free: the only
//! synchronisation on the hot path is one atomic fetch-add for the span id.
//! Buffers drain into the global collector whenever a thread's outermost
//! span closes, when the owning thread exits (the buffer's `Drop` flushes)
//! or when [`take_spans`] runs. Flushing at the outermost span matters for
//! scoped workers: `std::thread::scope` can return before a finished
//! worker's thread-local destructors run, so a caller that drains right
//! after a parallel region would otherwise miss worker spans.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use crate::is_enabled;

/// One finished span: a named interval with thread and ancestry metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Static span name, e.g. `"pipeline.routing"`.
    pub name: &'static str,
    /// Optional free-form annotation (file name, cell label, …).
    pub detail: Option<String>,
    /// Unique id of this span (process-wide, never 0).
    pub id: u64,
    /// Id of the enclosing span on the same thread, or 0 for roots.
    pub parent: u64,
    /// Small dense id of the recording thread (1-based, process-wide).
    pub tid: u64,
    /// Start time in nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);
static COLLECTOR: Mutex<Vec<SpanEvent>> = Mutex::new(Vec::new());

fn lock_collector() -> MutexGuard<'static, Vec<SpanEvent>> {
    COLLECTOR.lock().unwrap_or_else(|e| e.into_inner())
}

/// All spans share one epoch so timestamps are comparable across threads.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

struct ThreadBuffer {
    tid: u64,
    /// Ids of currently open spans on this thread, innermost last.
    open: Vec<u64>,
    events: Vec<SpanEvent>,
}

impl ThreadBuffer {
    fn new() -> Self {
        ThreadBuffer {
            tid: NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed),
            open: Vec::new(),
            events: Vec::new(),
        }
    }

    fn flush(&mut self) {
        if !self.events.is_empty() {
            lock_collector().append(&mut self.events);
        }
    }
}

impl Drop for ThreadBuffer {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static BUFFER: RefCell<ThreadBuffer> = RefCell::new(ThreadBuffer::new());
}

/// In-flight span state carried by an armed [`SpanGuard`].
struct OpenSpan {
    name: &'static str,
    detail: Option<String>,
    id: u64,
    parent: u64,
    tid: u64,
    start_ns: u64,
}

/// RAII guard returned by [`span`]/[`span_with`]; records the interval from
/// creation to drop. When span recording is off the guard is an empty
/// shell and both construction and drop are branch-only.
#[must_use = "a span measures the interval until the guard is dropped"]
pub struct SpanGuard(Option<OpenSpan>);

/// Open a span. Near-free when disabled: one relaxed atomic load.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard(None);
    }
    SpanGuard(open(name, None))
}

/// Open a span with a free-form detail string (evaluated only when enabled
/// because the argument is taken by value — prefer `span_with(n, x.to_string())`
/// only in already-cold code, or guard with [`is_enabled`]).
#[inline]
pub fn span_with(name: &'static str, detail: impl Into<String>) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard(None);
    }
    SpanGuard(open(name, Some(detail.into())))
}

#[cold]
fn open(name: &'static str, detail: Option<String>) -> Option<OpenSpan> {
    BUFFER
        .try_with(|buffer| {
            let mut buffer = buffer.borrow_mut();
            let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
            let parent = buffer.open.last().copied().unwrap_or(0);
            buffer.open.push(id);
            OpenSpan {
                name,
                detail,
                id,
                parent,
                tid: buffer.tid,
                start_ns: now_ns(),
            }
        })
        .ok()
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.0.take() else {
            return;
        };
        let dur_ns = now_ns().saturating_sub(open.start_ns);
        let _ = BUFFER.try_with(|buffer| {
            let mut buffer = buffer.borrow_mut();
            // Guards normally drop innermost-first; popping back to this id
            // also recovers if an outer guard outlived a leaked inner one.
            if let Some(pos) = buffer.open.iter().rposition(|&id| id == open.id) {
                buffer.open.truncate(pos);
            }
            buffer.events.push(SpanEvent {
                name: open.name,
                detail: open.detail,
                id: open.id,
                parent: open.parent,
                tid: open.tid,
                start_ns: open.start_ns,
                dur_ns,
            });
            if buffer.open.is_empty() {
                buffer.flush();
            }
        });
    }
}

/// Drain every finished span recorded so far (this thread's buffer plus the
/// global collector), sorted by start time for deterministic export. Spans
/// still open, or buffered on other live threads, are not included.
pub fn take_spans() -> Vec<SpanEvent> {
    let _ = BUFFER.try_with(|buffer| buffer.borrow_mut().flush());
    let mut spans = std::mem::take(&mut *lock_collector());
    spans.sort_by_key(|s| (s.start_ns, s.id));
    spans
}
