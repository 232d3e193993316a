//! Benchmark-side tracing: spans recorded from *outside* the program,
//! around calls to its public entry points, kept in memory and written out
//! when the run ends. The program gains no span or counter from this.
//!
//! The traced pass is single-client, so the recorder is a plain `Vec`.

use serde_json::{json, Value};
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`]; [`NO_PARENT`] for a root.
pub type SpanId = u32;
/// Parent id of a root span.
pub const NO_PARENT: SpanId = u32::MAX;

/// One finished (or open) span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Layer-boundary name, e.g. `web.handle`.
    pub name: &'static str,
    /// Start, µs since the tracer's epoch.
    pub start_us: f64,
    /// End, µs since the tracer's epoch (0 while open).
    pub end_us: f64,
    /// The span that caused this one.
    pub parent: SpanId,
    /// The sampled op all spans of one request share.
    pub op_id: u32,
}

/// In-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<SpanRec>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_nanos() as f64 / 1e3
    }

    /// Open a span.
    pub fn begin(&mut self, name: &'static str, parent: SpanId, op_id: u32) -> SpanId {
        let id = self.spans.len() as SpanId;
        let start_us = self.now_us();
        self.spans.push(SpanRec {
            name,
            start_us,
            end_us: 0.0,
            parent,
            op_id,
        });
        id
    }

    /// Close a span; returns its duration in µs.
    pub fn end(&mut self, id: SpanId) -> f64 {
        let now = self.now_us();
        let span = &mut self.spans[id as usize];
        span.end_us = now;
        now - span.start_us
    }

    /// Time `f` under a span; returns its result and the duration in µs.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op_id: u32,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.begin(name, parent, op_id);
        let out = f();
        (out, self.end(id))
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Self time of span `id`: its duration minus the part of that interval
    /// its direct children cover (children are sequential here).
    pub fn self_us(&self, id: SpanId) -> f64 {
        let s = &self.spans[id as usize];
        let covered: f64 = self
            .spans
            .iter()
            .filter(|c| c.parent == id)
            .map(|c| c.end_us - c.start_us)
            .sum();
        (s.end_us - s.start_us - covered).max(0.0)
    }

    /// Write every span as JSON to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                json!({
                    "name": s.name,
                    "start_us": s.start_us,
                    "end_us": s.end_us,
                    "parent": if s.parent == NO_PARENT { Value::Null } else { Value::from(s.parent) },
                    "op_id": s.op_id,
                })
            })
            .collect();
        std::fs::write(path, serde_json::to_vec(&json!({ "spans": spans }))?)
    }
}

/// Arithmetic mean; 0 for an empty set (a ledger row with no samples).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::default();
        let root = t.begin("root", NO_PARENT, 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let ((), child) = t.span("child", root, 0, || {
            std::thread::sleep(std::time::Duration::from_millis(3))
        });
        let total = t.end(root);
        assert!(child >= 3_000.0 && total >= 5_000.0);
        let own = t.self_us(root);
        assert!((own - (total - child)).abs() < 1.0);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, root);
    }
}
