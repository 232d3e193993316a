//! Observability substrate for HEDC (§4.1 "operational metadata").
//!
//! The paper reserves a slice of the metadata schema for "monitoring
//! information such as usage statistics"; its evaluation (§7) reasons almost
//! exclusively in response times and queries/second. This crate is the
//! runtime half of that story: a process-wide, lock-free-on-the-hot-path
//! metrics registry (counters, gauges, fixed-bucket latency histograms with
//! p50/p95/p99 extraction), lightweight span tracing with a request-scoped
//! trace ID that survives the web → PL → DM → metadb/filestore descent, and
//! a bounded structured event log for the conditions worth keeping verbatim
//! (slow queries, pool stalls, analysis-server restarts, cross-node
//! redirects).
//!
//! On top of that substrate sits the tail-latency toolkit: histogram
//! **exemplars** (each bucket remembers the trace IDs of its slowest recent
//! samples), a **saturation ring** of periodic gauge snapshots, a **flight
//! recorder** (bounded ring of complete recent traces, with slow traces
//! pinned past a configurable threshold), and a **critical-path analyzer**
//! that partitions a root span's wall-clock time into per-tier queue /
//! pool / wire / execute self time.
//!
//! Everything here is `std`-only by design: every tier links it, so it must
//! not widen the dependency graph.
//!
//! # Metric name conventions
//!
//! Dotted lowercase paths, coarse-to-fine: `metadb.query`, `metadb.compile`,
//! `metadb.execute`, `dm.name_map`, `db.pool.acquire`, `pl.queue_wait`,
//! `pl.analysis`, `fs.read`, `fs.read_bytes`, `web.request`,
//! `net.rpc.client`, `net.rpc.server`. Histogram values are microseconds
//! unless the name says otherwise.

pub mod critical;
pub mod events;
pub mod export;
pub mod flight;
pub mod metrics;
pub mod saturation;
pub mod seed;
pub mod trace;

pub use critical::{analyze, analyze_trace, category_of, tier_of, Breakdown, Category};
pub use events::{emit, emit_in_trace, event_log, kind, Event, EventLog};
pub use export::{snapshot, Snapshot};
pub use flight::{recorder, FlightRecorder, TraceRecord};
pub use metrics::{
    global, Counter, Exemplar, Gauge, Histogram, HistogramSnapshot, MetricsRegistry,
    RegistrySnapshot,
};
pub use saturation::{ring, sample_now, start_sampler, GaugeSample, Sampler, SaturationRing};
pub use seed::{parse_seed, splitmix64, Seed, Stream};
pub use trace::{
    adopt, current, record_interval, span_store, ContextGuard, FinishedSpan, PendingRoot, Span,
    SpanContext, SpanStore,
};

use std::sync::OnceLock;
use std::time::Instant;

/// Process-wide epoch for relative timestamps. Spans and events carry
/// `start_us` offsets from this instant so they sort and diff cheaply.
pub(crate) fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the process epoch.
pub(crate) fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

#[cfg(test)]
mod smoke {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    /// Counters and histograms must tolerate concurrent writers without
    /// losing updates — the registry sits under every tier's hot path.
    #[test]
    fn multithreaded_counter_and_histogram() {
        let reg = Arc::new(MetricsRegistry::new());
        let c = reg.counter("smoke.count");
        let h = reg.histogram("smoke.lat");
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let (c, h) = (Arc::clone(&c), Arc::clone(&h));
                thread::spawn(move || {
                    for i in 0..1000u64 {
                        c.inc();
                        h.record_us(t * 1000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 8000);
        let snap = h.snapshot();
        assert_eq!(snap.count, 8000);
        assert_eq!(snap.min_us, 0);
        assert_eq!(snap.max_us, 7999);
        assert!(snap.p50_us > 0 && snap.p50_us <= snap.p99_us);
        assert!(snap.p99_us <= snap.max_us.max(1));
    }

    /// Trace context must hand off across threads explicitly (the PL
    /// dispatcher pattern: submit on one thread, process on another).
    #[test]
    fn cross_thread_trace_handoff() {
        let root = Span::root("smoke.root");
        let ctx = root.context();
        let handle = thread::spawn(move || {
            let _g = adopt(Some(ctx));
            let child = Span::child("smoke.worker");
            let got = child.context().trace_id;
            drop(child);
            got
        });
        let worker_trace = handle.join().unwrap();
        assert_eq!(worker_trace, ctx.trace_id);
        drop(root);
        let spans = span_store().spans_for(ctx.trace_id);
        assert_eq!(spans.len(), 2);
        let worker = spans.iter().find(|s| s.name == "smoke.worker").unwrap();
        assert_eq!(worker.parent_id, ctx.span_id);
    }
}
