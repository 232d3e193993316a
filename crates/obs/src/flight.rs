//! The tail-latency flight recorder.
//!
//! Every finished root span deposits its complete trace (the span tree as
//! retained by the [`SpanStore`]) into a bounded ring of recent traces. A
//! configurable threshold additionally *pins* any trace whose root exceeded
//! it: pinned traces survive until explicitly drained, and when the pinned
//! ring fills it keeps the slowest offenders rather than the newest — the
//! record of the worst tail is never displaced by a merely-bad request.
//!
//! Collection is cheap for the common case: the span store tracks per-trace
//! span counts, so a single-span trace (an instrumented call outside any
//! request) skips the store scan entirely.

use crate::trace::{span_store, FinishedSpan};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// One complete recorded trace.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// Trace ID (links exemplars, events, and `/hedc/trace/<id>`).
    pub trace_id: u64,
    /// Name of the root span.
    pub root_name: &'static str,
    /// Root start, microseconds since the process epoch.
    pub start_us: u64,
    /// Root duration in microseconds.
    pub duration_us: u64,
    /// Every span of the trace still retained when the root finished.
    pub spans: Vec<FinishedSpan>,
    /// Whether the root exceeded the pin threshold.
    pub pinned: bool,
}

/// Bounded recent-trace ring plus the pinned slow-trace set.
pub struct FlightRecorder {
    recent: Mutex<VecDeque<TraceRecord>>,
    pinned: Mutex<Vec<TraceRecord>>,
    pin_threshold_us: AtomicU64,
    pins_total: AtomicU64,
    pins_dropped: AtomicU64,
    recent_capacity: usize,
    pinned_capacity: usize,
}

/// Default pin threshold: one second of root latency.
pub const DEFAULT_PIN_THRESHOLD_US: u64 = 1_000_000;

impl FlightRecorder {
    /// Build with explicit capacities (the global instance uses 256/64).
    pub fn with_capacity(recent_capacity: usize, pinned_capacity: usize) -> FlightRecorder {
        FlightRecorder {
            recent: Mutex::new(VecDeque::with_capacity(recent_capacity)),
            pinned: Mutex::new(Vec::new()),
            pin_threshold_us: AtomicU64::new(DEFAULT_PIN_THRESHOLD_US),
            pins_total: AtomicU64::new(0),
            pins_dropped: AtomicU64::new(0),
            recent_capacity,
            pinned_capacity,
        }
    }

    /// Root latency above which a trace is pinned. `u64::MAX` disables.
    pub fn set_pin_threshold_us(&self, us: u64) {
        self.pin_threshold_us.store(us, Ordering::Relaxed);
    }

    /// Current pin threshold in microseconds.
    pub fn pin_threshold_us(&self) -> u64 {
        self.pin_threshold_us.load(Ordering::Relaxed)
    }

    /// Called by the trace layer whenever a root span finishes: append to
    /// the recent ring, and pin if over threshold.
    ///
    /// Only pinned traces pay for span collection here — the recent ring
    /// stores root-only records and [`FlightRecorder::get`] hydrates them
    /// from the span store on demand, so finishing a root stays O(1) on the
    /// request hot path.
    pub fn on_root_finished(&self, root: &FinishedSpan) {
        let pinned = root.duration_us >= self.pin_threshold_us();
        let spans = if pinned && span_store().trace_span_count(root.trace_id) > 1 {
            span_store().spans_for(root.trace_id)
        } else {
            vec![*root]
        };
        let record = TraceRecord {
            trace_id: root.trace_id,
            root_name: root.name,
            start_us: root.start_us,
            duration_us: root.duration_us,
            spans,
            pinned,
        };
        if pinned {
            self.pin(record.clone());
            crate::events::emit_in_trace(
                root.trace_id,
                crate::events::kind::SLOW_TRACE,
                format!(
                    "root={} duration_us={} spans={}",
                    record.root_name,
                    record.duration_us,
                    record.spans.len()
                ),
            );
        }
        let mut recent = self.recent.lock().unwrap();
        if recent.len() == self.recent_capacity {
            recent.pop_front();
        }
        recent.push_back(record);
    }

    /// Keep-slowest admission into the pinned set.
    fn pin(&self, record: TraceRecord) {
        self.pins_total.fetch_add(1, Ordering::Relaxed);
        crate::metrics::global().counter("trace.pinned").inc();
        let mut pinned = self.pinned.lock().unwrap();
        if pinned.len() < self.pinned_capacity {
            pinned.push(record);
            return;
        }
        // Full: displace the fastest pinned trace if this one is slower.
        if let Some((idx, fastest)) = pinned
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| r.duration_us)
            .map(|(i, r)| (i, r.duration_us))
        {
            if record.duration_us > fastest {
                pinned[idx] = record;
                self.pins_dropped.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        self.pins_dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// The most recent `n` traces, newest first.
    pub fn recent(&self, n: usize) -> Vec<TraceRecord> {
        self.recent
            .lock()
            .unwrap()
            .iter()
            .rev()
            .take(n)
            .cloned()
            .collect()
    }

    /// Pinned traces, slowest first.
    pub fn pinned(&self) -> Vec<TraceRecord> {
        let mut out = self.pinned.lock().unwrap().clone();
        out.sort_by(|a, b| b.duration_us.cmp(&a.duration_us));
        out
    }

    /// Remove and return all pinned traces (slowest first).
    pub fn drain_pinned(&self) -> Vec<TraceRecord> {
        let mut out: Vec<TraceRecord> = self.pinned.lock().unwrap().drain(..).collect();
        out.sort_by(|a, b| b.duration_us.cmp(&a.duration_us));
        out
    }

    /// Look a trace up by ID: pinned first, then the recent ring. Root-only
    /// records from the ring are hydrated with whatever spans the span
    /// store still retains for the trace.
    pub fn get(&self, trace_id: u64) -> Option<TraceRecord> {
        let record = self
            .pinned
            .lock()
            .unwrap()
            .iter()
            .find(|r| r.trace_id == trace_id)
            .cloned()
            .or_else(|| {
                self.recent
                    .lock()
                    .unwrap()
                    .iter()
                    .rev()
                    .find(|r| r.trace_id == trace_id)
                    .cloned()
            });
        record.map(|mut r| {
            if r.spans.len() <= 1 {
                let live = span_store().spans_for(trace_id);
                if live.len() > r.spans.len() {
                    r.spans = live;
                }
            }
            r
        })
    }

    /// The `n` slowest retained traces (pinned and recent, deduped), slowest
    /// first.
    pub fn slowest(&self, n: usize) -> Vec<TraceRecord> {
        let mut all = self.pinned();
        for r in self.recent.lock().unwrap().iter() {
            if !all.iter().any(|p| p.trace_id == r.trace_id) {
                all.push(r.clone());
            }
        }
        all.sort_by(|a, b| b.duration_us.cmp(&a.duration_us));
        all.truncate(n);
        all
    }

    /// Traces pinned since the process started (including displaced ones).
    pub fn pins_total(&self) -> u64 {
        self.pins_total.load(Ordering::Relaxed)
    }

    /// Pins that could not be (or no longer are) retained because the
    /// pinned set was full of slower traces.
    pub fn pins_dropped(&self) -> u64 {
        self.pins_dropped.load(Ordering::Relaxed)
    }

    /// Retained counts: (recent, pinned).
    pub fn depths(&self) -> (usize, usize) {
        (
            self.recent.lock().unwrap().len(),
            self.pinned.lock().unwrap().len(),
        )
    }

    /// Forget everything (benches isolate runs with this).
    pub fn clear(&self) {
        self.recent.lock().unwrap().clear();
        self.pinned.lock().unwrap().clear();
    }
}

/// The process-wide flight recorder.
pub fn recorder() -> &'static FlightRecorder {
    static RECORDER: OnceLock<FlightRecorder> = OnceLock::new();
    RECORDER.get_or_init(|| FlightRecorder::with_capacity(256, 64))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root(trace_id: u64, duration_us: u64) -> FinishedSpan {
        FinishedSpan {
            trace_id,
            span_id: trace_id * 10,
            parent_id: 0,
            name: "f.root",
            start_us: 0,
            duration_us,
        }
    }

    #[test]
    fn recent_ring_is_bounded_and_newest_first() {
        let fr = FlightRecorder::with_capacity(3, 2);
        fr.set_pin_threshold_us(u64::MAX);
        for i in 1..=5 {
            fr.on_root_finished(&root(i, 10));
        }
        let recent = fr.recent(10);
        let ids: Vec<u64> = recent.iter().map(|r| r.trace_id).collect();
        assert_eq!(ids, vec![5, 4, 3]);
        assert_eq!(fr.depths(), (3, 0));
        assert!(fr.get(5).is_some());
        assert!(fr.get(1).is_none(), "evicted from the ring");
    }

    #[test]
    fn slow_roots_pin_and_survive_ring_eviction() {
        let fr = FlightRecorder::with_capacity(2, 4);
        fr.set_pin_threshold_us(1_000);
        fr.on_root_finished(&root(1, 5_000)); // pinned
        for i in 2..=10 {
            fr.on_root_finished(&root(i, 10)); // fast, churns the ring
        }
        assert!(fr.get(1).is_some(), "pinned trace outlives the ring");
        let pinned = fr.pinned();
        assert_eq!(pinned.len(), 1);
        assert!(pinned[0].pinned);
        assert_eq!(fr.pins_total(), 1);
        let drained = fr.drain_pinned();
        assert_eq!(drained.len(), 1);
        assert_eq!(fr.depths().1, 0, "drain empties the pinned set");
        assert!(fr.get(1).is_none(), "drained and ring-evicted");
    }

    #[test]
    fn full_pinned_set_keeps_the_slowest() {
        let fr = FlightRecorder::with_capacity(16, 2);
        fr.set_pin_threshold_us(1);
        fr.on_root_finished(&root(1, 100));
        fr.on_root_finished(&root(2, 300));
        fr.on_root_finished(&root(3, 200)); // displaces 1 (the fastest)
        fr.on_root_finished(&root(4, 50)); // too fast to displace anything
        let ids: Vec<u64> = fr.pinned().iter().map(|r| r.trace_id).collect();
        assert_eq!(ids, vec![2, 3], "slowest first, fastest displaced");
        assert_eq!(fr.pins_total(), 4);
        assert_eq!(fr.pins_dropped(), 2);
    }

    #[test]
    fn slowest_merges_pinned_and_recent() {
        let fr = FlightRecorder::with_capacity(8, 2);
        fr.set_pin_threshold_us(1_000);
        fr.on_root_finished(&root(1, 2_000)); // pinned + recent
        fr.on_root_finished(&root(2, 500));
        fr.on_root_finished(&root(3, 700));
        let ids: Vec<u64> = fr.slowest(2).iter().map(|r| r.trace_id).collect();
        assert_eq!(ids, vec![1, 3]);
    }
}
