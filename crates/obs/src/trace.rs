//! Request-scoped span tracing.
//!
//! A trace is minted at the system edge (the web thin client or the PL
//! frontend) and flows down through the DM session into metadb query
//! execution and filestore reads. Propagation is ambient: each thread keeps
//! a current [`SpanContext`] in a thread-local, child spans pick it up
//! automatically, and cross-thread handoff (the PL dispatcher pattern) is an
//! explicit capture-then-[`adopt`]. Finished spans land in a bounded global
//! ring buffer ([`SpanStore`]) from which a request can be reconstructed as
//! a tree keyed by its trace ID. A thread buffers the spans it finishes and
//! publishes them as one block, in one lock acquisition, when its ambient
//! context returns to `None` — a request costs the store's mutex once per
//! participating thread, not once per span.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The (trace, span) coordinates a piece of work runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanContext {
    pub trace_id: u64,
    pub span_id: u64,
}

thread_local! {
    static CURRENT: Cell<Option<SpanContext>> = const { Cell::new(None) };
    /// Spans this thread finished and has not yet published.
    static PENDING: RefCell<Vec<FinishedSpan>> = const { RefCell::new(Vec::new()) };
}

/// A thread publishes early once it holds this many unpublished spans, so a
/// long-lived context cannot grow the buffer without bound.
const PUBLISH_AT: usize = 256;

fn next_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// The ambient context on this thread, if any.
pub fn current() -> Option<SpanContext> {
    CURRENT.with(|c| c.get())
}

/// Install `ctx` as this thread's ambient context until the guard drops.
/// Used to carry a trace across a thread boundary: capture [`current`] on
/// the submitting thread, ship it with the job, `adopt` it in the worker.
pub fn adopt(ctx: Option<SpanContext>) -> ContextGuard {
    let prev = CURRENT.with(|c| c.replace(ctx));
    ContextGuard { prev }
}

/// Restores the previous ambient context on drop.
pub struct ContextGuard {
    prev: Option<SpanContext>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
        if self.prev.is_none() {
            publish_pending();
        }
    }
}

/// Hand this thread's finished spans to the global store.
fn publish_pending() {
    PENDING.with(|p| span_store().record_many(&mut p.borrow_mut()));
}

/// An in-flight timed operation. Created at scope entry, finished (recorded
/// into the global [`SpanStore`]) on drop. While alive it is the ambient
/// context on its thread, so nested spans become its children.
pub struct Span {
    ctx: SpanContext,
    parent_id: u64,
    prev: Option<SpanContext>,
    name: &'static str,
    start: Instant,
    start_us: u64,
}

impl Span {
    fn begin(name: &'static str, trace_id: u64, parent_id: u64) -> Span {
        let ctx = SpanContext {
            trace_id,
            span_id: next_id(),
        };
        let prev = CURRENT.with(|c| c.replace(Some(ctx)));
        Span {
            ctx,
            parent_id,
            prev,
            name,
            start: Instant::now(),
            start_us: crate::now_us(),
        }
    }

    /// Start a new trace. Called at the system edge, once per request.
    pub fn root(name: &'static str) -> Span {
        Span::begin(name, next_id(), 0)
    }

    /// Start a child of the ambient context, or a fresh root if there is
    /// none (so instrumented code also works when called outside a request).
    pub fn child(name: &'static str) -> Span {
        match current() {
            Some(parent) => Span::begin(name, parent.trace_id, parent.span_id),
            None => Span::root(name),
        }
    }

    /// This span's coordinates, for handing to another thread.
    pub fn context(&self) -> SpanContext {
        self.ctx
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
        finish(FinishedSpan {
            trace_id: self.ctx.trace_id,
            span_id: self.ctx.span_id,
            parent_id: self.parent_id,
            name: self.name,
            start_us: self.start_us,
            duration_us: (self.start.elapsed().as_micros() as u64).max(1),
        });
    }
}

/// Buffer a finished span on this thread. The buffer is published once the
/// thread has left its trace, when it is full, and when a root finishes —
/// before the flight recorder looks the completed trace up.
fn finish(finished: FinishedSpan) {
    let is_root = finished.parent_id == 0;
    let held = PENDING.with(|p| {
        let mut p = p.borrow_mut();
        p.push(finished);
        p.len()
    });
    if is_root || current().is_none() || held >= PUBLISH_AT {
        publish_pending();
    }
    if is_root {
        crate::flight::recorder().on_root_finished(&finished);
    }
}

/// Record a span for an interval that already elapsed, as a child of the
/// ambient context. No-op outside a trace: retroactive intervals (queue
/// wait, pool acquire) only matter as part of a request's tree, and minting
/// roots here would flood the store from untraced call sites.
pub fn record_interval(name: &'static str, start: Instant) {
    let Some(parent) = current() else { return };
    let duration_us = (start.elapsed().as_micros() as u64).max(1);
    finish(FinishedSpan {
        trace_id: parent.trace_id,
        span_id: next_id(),
        parent_id: parent.span_id,
        name,
        start_us: crate::now_us().saturating_sub(duration_us),
        duration_us,
    });
}

/// A root span whose lifetime is not a lexical scope: minted where a unit of
/// work enters a pipeline, carried (or just its [`SpanContext`]) alongside
/// the work through stages and threads, and finished explicitly when the
/// unit completes. Unlike [`Span`] it never touches the thread-local ambient
/// context — stages adopt its context explicitly.
#[derive(Debug)]
pub struct PendingRoot {
    ctx: SpanContext,
    name: &'static str,
    start: Instant,
    start_us: u64,
}

impl PendingRoot {
    /// Mint a new trace for a unit of pipelined work.
    pub fn begin(name: &'static str) -> PendingRoot {
        PendingRoot {
            ctx: SpanContext {
                trace_id: next_id(),
                span_id: next_id(),
            },
            name,
            start: Instant::now(),
            start_us: crate::now_us(),
        }
    }

    /// Coordinates for stages to [`adopt`].
    pub fn context(&self) -> SpanContext {
        self.ctx
    }

    /// Record the root span (and hand the completed trace to the flight
    /// recorder). Dropping without calling this abandons the trace.
    pub fn finish(self) {
        finish(FinishedSpan {
            trace_id: self.ctx.trace_id,
            span_id: self.ctx.span_id,
            parent_id: 0,
            name: self.name,
            start_us: self.start_us,
            duration_us: (self.start.elapsed().as_micros() as u64).max(1),
        });
    }
}

/// A completed span. `parent_id == 0` marks a trace root; `start_us` is
/// microseconds since the process epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FinishedSpan {
    pub trace_id: u64,
    pub span_id: u64,
    pub parent_id: u64,
    pub name: &'static str,
    pub start_us: u64,
    pub duration_us: u64,
}

/// Bounded ring buffer of finished spans; oldest entries fall off. A
/// per-trace span count rides along so "does this trace have more than its
/// root?" is O(1) — the flight recorder asks on every root finish.
pub struct SpanStore {
    inner: Mutex<StoreInner>,
    capacity: usize,
    publishes: AtomicU64,
}

struct StoreInner {
    buf: VecDeque<FinishedSpan>,
    counts: HashMap<u64, usize>,
}

impl SpanStore {
    pub fn with_capacity(capacity: usize) -> Self {
        SpanStore {
            inner: Mutex::new(StoreInner {
                buf: VecDeque::with_capacity(capacity),
                counts: HashMap::new(),
            }),
            capacity,
            publishes: AtomicU64::new(0),
        }
    }

    pub fn record(&self, span: FinishedSpan) {
        self.record_many(&mut vec![span]);
    }

    /// Append `spans` in order under one lock acquisition, leaving the
    /// vector empty with its capacity intact.
    pub fn record_many(&self, spans: &mut Vec<FinishedSpan>) {
        if spans.is_empty() {
            return;
        }
        self.publishes.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock().unwrap();
        for span in spans.drain(..) {
            if inner.buf.len() == self.capacity {
                if let Some(old) = inner.buf.pop_front() {
                    if let Some(n) = inner.counts.get_mut(&old.trace_id) {
                        *n -= 1;
                        if *n == 0 {
                            inner.counts.remove(&old.trace_id);
                        }
                    }
                }
            }
            *inner.counts.entry(span.trace_id).or_insert(0) += 1;
            inner.buf.push_back(span);
        }
    }

    /// Lock acquisitions that published spans so far. For budget tests: a
    /// request should cost one per participating thread.
    #[doc(hidden)]
    pub fn publishes(&self) -> u64 {
        self.publishes.load(Ordering::Relaxed)
    }

    /// All retained spans of one trace, in publication order: each thread's
    /// spans in completion order, one block per thread, a block landing
    /// when its thread's context is released.
    pub fn spans_for(&self, trace_id: u64) -> Vec<FinishedSpan> {
        self.inner
            .lock()
            .unwrap()
            .buf
            .iter()
            .filter(|s| s.trace_id == trace_id)
            .cloned()
            .collect()
    }

    /// Retained span count of one trace (0 when fully evicted).
    pub fn trace_span_count(&self, trace_id: u64) -> usize {
        self.inner
            .lock()
            .unwrap()
            .counts
            .get(&trace_id)
            .copied()
            .unwrap_or(0)
    }

    /// The most recently completed `n` spans, newest last.
    pub fn recent(&self, n: usize) -> Vec<FinishedSpan> {
        let inner = self.inner.lock().unwrap();
        inner
            .buf
            .iter()
            .skip(inner.buf.len().saturating_sub(n))
            .cloned()
            .collect()
    }

    /// Trace ID of the most recently completed root span, if any.
    pub fn last_root_trace(&self) -> Option<u64> {
        self.inner
            .lock()
            .unwrap()
            .buf
            .iter()
            .rev()
            .find(|s| s.parent_id == 0)
            .map(|s| s.trace_id)
    }

    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The process-wide span ring buffer. Sized so ~100 concurrent requests of
/// a few dozen spans each stay fully reconstructable (the fig4 collapse
/// runs 96 clients).
pub fn span_store() -> &'static SpanStore {
    static STORE: OnceLock<SpanStore> = OnceLock::new();
    STORE.get_or_init(|| SpanStore::with_capacity(8192))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_share_trace_and_link_parents() {
        let root = Span::root("t.root");
        let rctx = root.context();
        {
            let child = Span::child("t.child");
            assert_eq!(child.context().trace_id, rctx.trace_id);
            {
                let grand = Span::child("t.grand");
                assert_eq!(grand.context().trace_id, rctx.trace_id);
            }
        }
        drop(root);
        let spans = span_store().spans_for(rctx.trace_id);
        assert_eq!(spans.len(), 3);
        let child = spans.iter().find(|s| s.name == "t.child").unwrap();
        let grand = spans.iter().find(|s| s.name == "t.grand").unwrap();
        assert_eq!(child.parent_id, rctx.span_id);
        assert_eq!(grand.parent_id, child.span_id);
        let roots: Vec<_> = spans.iter().filter(|s| s.parent_id == 0).collect();
        assert_eq!(roots.len(), 1);
    }

    #[test]
    fn child_without_ambient_context_starts_a_root() {
        let _g = adopt(None); // shield from any ambient context
        let orphan = Span::child("t.orphan");
        let ctx = orphan.context();
        drop(orphan);
        let spans = span_store().spans_for(ctx.trace_id);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].parent_id, 0);
    }

    #[test]
    fn context_restored_after_drop() {
        let _g = adopt(None);
        assert_eq!(current(), None);
        let a = Span::root("t.a");
        let actx = a.context();
        {
            let b = Span::child("t.b");
            assert_eq!(current(), Some(b.context()));
        }
        assert_eq!(current(), Some(actx));
        drop(a);
        assert_eq!(current(), None);
    }

    #[test]
    fn ring_buffer_is_bounded() {
        let store = SpanStore::with_capacity(4);
        for i in 0..10 {
            store.record(FinishedSpan {
                trace_id: 1,
                span_id: i,
                parent_id: 0,
                name: "x",
                start_us: i,
                duration_us: 1,
            });
        }
        assert_eq!(store.len(), 4);
        let spans = store.spans_for(1);
        assert_eq!(spans[0].span_id, 6);
        assert_eq!(store.last_root_trace(), Some(1));
    }

    #[test]
    fn trace_span_counts_track_eviction() {
        let store = SpanStore::with_capacity(3);
        let span = |trace_id: u64, span_id: u64| FinishedSpan {
            trace_id,
            span_id,
            parent_id: 0,
            name: "x",
            start_us: 0,
            duration_us: 1,
        };
        store.record(span(1, 1));
        store.record(span(1, 2));
        store.record(span(2, 3));
        assert_eq!(store.trace_span_count(1), 2);
        assert_eq!(store.trace_span_count(2), 1);
        store.record(span(2, 4)); // evicts (1,1)
        store.record(span(2, 5)); // evicts (1,2)
        assert_eq!(store.trace_span_count(1), 0);
        assert_eq!(store.trace_span_count(2), 3);
    }

    #[test]
    fn record_interval_parents_to_ambient_and_noops_outside() {
        let _shield = adopt(None);
        record_interval("t.queue_wait", Instant::now());
        // Nothing recorded: no ambient context.
        let root = Span::root("t.iroot");
        let ctx = root.context();
        let t0 = Instant::now() - std::time::Duration::from_millis(2);
        record_interval("t.queue_wait", t0);
        drop(root);
        let spans = span_store().spans_for(ctx.trace_id);
        assert_eq!(spans.len(), 2);
        let wait = spans.iter().find(|s| s.name == "t.queue_wait").unwrap();
        assert_eq!(wait.parent_id, ctx.span_id);
        assert!(wait.duration_us >= 2_000, "{}", wait.duration_us);
        let r = spans.iter().find(|s| s.name == "t.iroot").unwrap();
        // The retroactive interval sits inside the root's window.
        assert!(wait.start_us + wait.duration_us <= r.start_us + r.duration_us + 1_000);
    }

    #[test]
    fn pending_root_finishes_off_thread() {
        let pending = PendingRoot::begin("t.unit");
        let ctx = pending.context();
        std::thread::spawn(move || {
            let _g = adopt(Some(ctx));
            let _child = Span::child("t.stage");
        })
        .join()
        .unwrap();
        pending.finish();
        let spans = span_store().spans_for(ctx.trace_id);
        assert_eq!(spans.len(), 2);
        let root = spans.iter().find(|s| s.parent_id == 0).unwrap();
        assert_eq!(root.name, "t.unit");
        assert_eq!(root.span_id, ctx.span_id);
        let stage = spans.iter().find(|s| s.name == "t.stage").unwrap();
        assert_eq!(stage.parent_id, ctx.span_id);
    }
}
