//! Counters, gauges, and fixed-bucket latency histograms.
//!
//! Updates are plain relaxed atomics — the same discipline `DbStats` already
//! uses — so the hot path never takes a lock. The registry itself guards its
//! name → metric maps with a mutex, but that is only hit on first lookup;
//! call sites hold the returned `Arc` and update through it.

use std::collections::BTreeMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// A monotone event counter. `Deref`s to its `AtomicU64` so code written
/// against raw atomics (e.g. `DbStats::bump(&stats.queries)`) keeps working
/// unchanged after migrating the field type.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Deref for Counter {
    type Target = AtomicU64;
    fn deref(&self) -> &AtomicU64 {
        &self.0
    }
}

/// A point-in-time signed level (queue depth, pool occupancy).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    pub fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Bucket upper bounds in microseconds, roughly logarithmic from 1µs to 60s.
/// A final implicit overflow bucket catches everything above the last bound.
pub const BUCKET_BOUNDS_US: [u64; 24] = [
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000,
    250_000, 500_000, 1_000_000, 2_500_000, 5_000_000, 10_000_000, 30_000_000, 60_000_000,
];

const NBUCKETS: usize = BUCKET_BOUNDS_US.len() + 1;

/// Exemplar slots per bucket: slot 0 holds the most recent traced sample,
/// slot 1 the slowest traced sample seen so far, so a p99 bucket always
/// links to both a fresh trace and the worst one.
const EXEMPLAR_SLOTS: usize = 2;

/// One retained traced sample: links a histogram bucket back to the span
/// tree that produced it. `bucket_us` is the bucket's upper bound
/// (`u64::MAX` for the overflow bucket); `at_us` is microseconds since the
/// process epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Exemplar {
    pub trace_id: u64,
    pub value_us: u64,
    pub at_us: u64,
    pub bucket_us: u64,
}

/// Fixed-bucket latency histogram. Recording is wait-free (one bucket
/// increment plus count/sum/min/max updates); percentile extraction walks the
/// bucket array at snapshot time. Estimates are the bucket's upper bound,
/// clamped into the observed `[min, max]` range so a single-sample histogram
/// reports that sample exactly.
///
/// When the recording thread carries an ambient trace, the sample is also
/// retained as an [`Exemplar`] in its bucket (best effort: exemplar updates
/// go through a `try_lock`, so a contended table drops the link rather than
/// stalling the hot path).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; NBUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    min_us: AtomicU64,
    max_us: AtomicU64,
    exemplars: Mutex<Box<[Exemplar]>>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            min_us: AtomicU64::new(u64::MAX),
            max_us: AtomicU64::new(0),
            exemplars: Mutex::new(
                vec![Exemplar::default(); NBUCKETS * EXEMPLAR_SLOTS].into_boxed_slice(),
            ),
        }
    }

    /// Upper bound of bucket `i` (`u64::MAX` for the overflow bucket).
    fn bucket_bound(i: usize) -> u64 {
        BUCKET_BOUNDS_US.get(i).copied().unwrap_or(u64::MAX)
    }

    fn bucket_for(us: u64) -> usize {
        BUCKET_BOUNDS_US
            .iter()
            .position(|&b| us <= b)
            .unwrap_or(NBUCKETS - 1)
    }

    /// Record one observation, in microseconds. Picks up the ambient trace
    /// (if any) as the sample's exemplar link.
    pub fn record_us(&self, us: u64) {
        let bucket = Self::bucket_for(us);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.min_us.fetch_min(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
        if let Some(ctx) = crate::trace::current() {
            self.note_exemplar(bucket, ctx.trace_id, us);
        }
    }

    /// Best-effort exemplar retention: slot 0 of the bucket always takes the
    /// newest traced sample; slot 1 keeps the slowest. Contention skips.
    fn note_exemplar(&self, bucket: usize, trace_id: u64, us: u64) {
        if let Ok(mut table) = self.exemplars.try_lock() {
            let e = Exemplar {
                trace_id,
                value_us: us,
                at_us: crate::now_us(),
                bucket_us: Self::bucket_bound(bucket),
            };
            let base = bucket * EXEMPLAR_SLOTS;
            table[base] = e;
            if table[base + 1].trace_id == 0 || us >= table[base + 1].value_us {
                table[base + 1] = e;
            }
        }
    }

    /// Retained exemplars, slowest first, at most one per trace.
    pub fn exemplars(&self) -> Vec<Exemplar> {
        let table = self.exemplars.lock().unwrap();
        let mut out: Vec<Exemplar> = table.iter().filter(|e| e.trace_id != 0).copied().collect();
        out.sort_by(|a, b| b.value_us.cmp(&a.value_us).then(b.at_us.cmp(&a.at_us)));
        let mut seen = Vec::new();
        out.retain(|e| {
            if seen.contains(&e.trace_id) {
                false
            } else {
                seen.push(e.trace_id);
                true
            }
        });
        out
    }

    /// Record a wall-clock duration, floored at 1µs so any real operation is
    /// distinguishable from "never ran" in the percentiles.
    pub fn record(&self, d: Duration) {
        self.record_us((d.as_micros() as u64).max(1));
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Percentile estimate in microseconds. `q` in [0, 1]; 0 on empty.
    pub fn percentile_us(&self, q: f64) -> u64 {
        let snap_buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = snap_buckets.iter().sum();
        if count == 0 {
            return 0;
        }
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cumulative = 0u64;
        let mut estimate = *BUCKET_BOUNDS_US.last().unwrap();
        for (i, n) in snap_buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= target {
                estimate = if i < BUCKET_BOUNDS_US.len() {
                    BUCKET_BOUNDS_US[i]
                } else {
                    self.max_us.load(Ordering::Relaxed)
                };
                break;
            }
        }
        let min = self.min_us.load(Ordering::Relaxed);
        let max = self.max_us.load(Ordering::Relaxed);
        estimate.clamp(min.min(max), max)
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count();
        HistogramSnapshot {
            count,
            sum_us: self.sum_us.load(Ordering::Relaxed),
            min_us: if count == 0 {
                0
            } else {
                self.min_us.load(Ordering::Relaxed)
            },
            max_us: self.max_us.load(Ordering::Relaxed),
            p50_us: self.percentile_us(0.50),
            p95_us: self.percentile_us(0.95),
            p99_us: self.percentile_us(0.99),
        }
    }
}

/// Point-in-time view of a histogram, all fields in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum_us: u64,
    pub min_us: u64,
    pub max_us: u64,
    pub p50_us: u64,
    pub p95_us: u64,
    pub p99_us: u64,
}

impl HistogramSnapshot {
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }
}

/// Named metrics, get-or-create by name. One global instance (`global()`)
/// serves the whole process; subsystems that need isolated accounting (the
/// per-`Database` `DbStats`, the simulator) create their own.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    lookups: AtomicU64,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Get-or-create lookups by name so far, each one a lock acquisition.
    /// For budget tests: a warmed-up request path should make none.
    #[doc(hidden)]
    pub fn lookups(&self) -> u64 {
        self.lookups.load(Ordering::Relaxed)
    }

    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let mut map = self.counters.lock().unwrap();
        if let Some(c) = map.get(name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::new());
        map.insert(name.to_string(), Arc::clone(&c));
        c
    }

    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let mut map = self.gauges.lock().unwrap();
        if let Some(g) = map.get(name) {
            return Arc::clone(g);
        }
        let g = Arc::new(Gauge::new());
        map.insert(name.to_string(), Arc::clone(&g));
        g
    }

    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let mut map = self.histograms.lock().unwrap();
        if let Some(h) = map.get(name) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::new());
        map.insert(name.to_string(), Arc::clone(&h));
        h
    }

    /// Counter value by name; 0 if never registered.
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters
            .lock()
            .unwrap()
            .get(name)
            .map(|c| c.get())
            .unwrap_or(0)
    }

    pub fn snapshot(&self) -> RegistrySnapshot {
        let (histograms, exemplars) = {
            let map = self.histograms.lock().unwrap();
            let histograms: Vec<_> = map.iter().map(|(k, v)| (k.clone(), v.snapshot())).collect();
            let exemplars: Vec<_> = map
                .iter()
                .map(|(k, v)| (k.clone(), v.exemplars()))
                .filter(|(_, e)| !e.is_empty())
                .collect();
            (histograms, exemplars)
        };
        RegistrySnapshot {
            counters: self
                .counters
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms,
            exemplars,
        }
    }
}

/// Point-in-time view of a whole registry, name-sorted. `exemplars` carries,
/// per histogram that saw traced samples, the retained trace links (slowest
/// first) — the bridge from a p99 entry to its span tree.
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, i64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
    pub exemplars: Vec<(String, Vec<Exemplar>)>,
}

impl RegistrySnapshot {
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|e| e.1)
    }

    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|e| e.1)
    }

    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }
}

/// The process-wide default registry. Cross-tier instrumentation (pool
/// acquire, PL queue wait, metadb query latency, filestore reads, web
/// requests) all lands here.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Histogram::new();
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50_us, 0);
        assert_eq!(s.p95_us, 0);
        assert_eq!(s.p99_us, 0);
        assert_eq!(s.min_us, 0);
        assert_eq!(s.max_us, 0);
        assert_eq!(s.mean_us(), 0.0);
    }

    #[test]
    fn single_sample_is_exact_at_every_percentile() {
        let h = Histogram::new();
        h.record_us(137);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        // 137 lands in the (100, 250] bucket, but min/max clamping recovers
        // the exact value.
        assert_eq!(s.p50_us, 137);
        assert_eq!(s.p95_us, 137);
        assert_eq!(s.p99_us, 137);
        assert_eq!(s.min_us, 137);
        assert_eq!(s.max_us, 137);
    }

    #[test]
    fn bucket_assignment_is_inclusive_upper_bound() {
        assert_eq!(Histogram::bucket_for(0), 0);
        assert_eq!(Histogram::bucket_for(1), 0);
        assert_eq!(Histogram::bucket_for(2), 1);
        assert_eq!(Histogram::bucket_for(100), 6);
        assert_eq!(Histogram::bucket_for(101), 7);
        assert_eq!(Histogram::bucket_for(60_000_000), NBUCKETS - 2);
        assert_eq!(Histogram::bucket_for(60_000_001), NBUCKETS - 1);
        assert_eq!(Histogram::bucket_for(u64::MAX), NBUCKETS - 1);
    }

    #[test]
    fn percentiles_are_monotone_and_bounded() {
        let h = Histogram::new();
        for us in 1..=1000u64 {
            h.record_us(us);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert!(s.p50_us <= s.p95_us && s.p95_us <= s.p99_us);
        assert!(s.p50_us >= 500 && s.p50_us <= 1000, "p50={}", s.p50_us);
        assert!(s.p99_us <= s.max_us);
        assert_eq!(s.min_us, 1);
        assert_eq!(s.max_us, 1000);
    }

    #[test]
    fn overflow_bucket_uses_observed_max() {
        let h = Histogram::new();
        h.record_us(90_000_000);
        h.record_us(120_000_000);
        let s = h.snapshot();
        assert_eq!(s.p99_us, 120_000_000);
    }

    #[test]
    fn duration_recording_floors_at_one_microsecond() {
        let h = Histogram::new();
        h.record(Duration::from_nanos(10));
        assert_eq!(h.snapshot().min_us, 1);
    }

    #[test]
    fn registry_get_or_create_returns_same_metric() {
        let r = MetricsRegistry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        assert_eq!(b.get(), 1);
        assert_eq!(r.counter_value("x"), 1);
        assert_eq!(r.counter_value("never"), 0);
    }

    #[test]
    fn counter_derefs_to_atomic() {
        let c = Counter::new();
        // The DbStats migration relies on this coercion.
        fn bump(a: &AtomicU64) {
            a.fetch_add(1, Ordering::Relaxed);
        }
        bump(&c);
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn exemplars_link_buckets_to_traces() {
        let h = Histogram::new();
        // No ambient trace: no exemplar retained.
        let _shield = crate::trace::adopt(None);
        h.record_us(100);
        assert!(h.exemplars().is_empty());

        let root = crate::trace::Span::root("ex.root");
        let t1 = root.context().trace_id;
        h.record_us(120); // (100, 250] bucket
        h.record_us(90_000_000); // overflow bucket
        drop(root);
        let slow = crate::trace::Span::root("ex.slow");
        let t2 = slow.context().trace_id;
        h.record_us(200); // same (100, 250] bucket, slower
        drop(slow);

        let ex = h.exemplars();
        // Slowest first; one entry per trace.
        assert_eq!(ex[0].value_us, 90_000_000);
        assert_eq!(ex[0].trace_id, t1);
        assert_eq!(ex[0].bucket_us, u64::MAX);
        let in_bucket: Vec<_> = ex.iter().filter(|e| e.bucket_us == 250).collect();
        // Slot 0 (recent) and slot 1 (slowest) both hold the 200us sample
        // from t2, deduped to one entry.
        assert_eq!(in_bucket.len(), 1);
        assert_eq!(in_bucket[0].trace_id, t2);
        assert_eq!(in_bucket[0].value_us, 200);
    }

    #[test]
    fn exemplar_slots_keep_recent_and_slowest() {
        let h = Histogram::new();
        let _shield = crate::trace::adopt(None);
        let a = crate::trace::Span::root("ex.a");
        let ta = a.context().trace_id;
        h.record_us(240);
        drop(a);
        let b = crate::trace::Span::root("ex.b");
        let tb = b.context().trace_id;
        h.record_us(110); // same bucket, faster, but more recent
        drop(b);
        let ex = h.exemplars();
        let traces: Vec<u64> = ex.iter().map(|e| e.trace_id).collect();
        // Slowest (a) survives in slot 1, most recent (b) in slot 0.
        assert!(traces.contains(&ta) && traces.contains(&tb), "{ex:?}");
        assert_eq!(ex[0].trace_id, ta, "slowest first");
    }

    #[test]
    fn registry_snapshot_collects_everything() {
        let r = MetricsRegistry::new();
        r.counter("c1").add(5);
        r.gauge("g1").set(-3);
        r.histogram("h1").record_us(42);
        let s = r.snapshot();
        assert_eq!(s.counters, vec![("c1".to_string(), 5)]);
        assert_eq!(s.gauges, vec![("g1".to_string(), -3)]);
        assert_eq!(s.histogram("h1").unwrap().count, 1);
        assert_eq!(s.histogram("h1").unwrap().p50_us, 42);
    }
}
