//! Deterministic fault injection for DM-tier and network-tier tests.
//!
//! Concurrency tests that kill nodes mid-run are the tests most likely to
//! flake — and a flake that cannot be replayed is a flake that never gets
//! fixed. [`FaultyDmNode`] wraps any [`DmNode`] and injects failures from
//! the seeded [`Stream`] it is handed (`hedc_dm::testkit`: the
//! `"node-faults"` stream of the run's one seed), so a failing run
//! reproduces exactly from the seed it printed and
//! `scripts/check.sh --seed N` replays it.
//!
//! Three fault classes are injected, mirroring what the real network tier
//! can produce (see `hedc-net`):
//!
//! * **unavailable** — the node refuses the call
//!   ([`DmError::RemoteUnavailable`]); routers fail over past it.
//! * **failed** — the node answers with an internal error
//!   ([`DmError::RemoteFailed`]); routers surface it, they do *not* fail
//!   over (the node is up — §5.4's redirection only reroutes outages).
//! * **slow** — the call sleeps before executing, exercising timeout and
//!   tail-latency handling without wall-clock-dependent assertions.

use crate::error::{DmError, DmResult};
use crate::redirect::DmNode;
use hedc_metadb::{Query, QueryResult};
use hedc_obs::Stream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A fault schedule: per-mille rates for each fault class. The draws come
/// from the stream the wrapping [`FaultyDmNode`] is handed.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Calls per 1000 that return [`DmError::RemoteUnavailable`].
    pub unavailable_per_mille: u32,
    /// Calls per 1000 that return [`DmError::RemoteFailed`].
    pub failed_per_mille: u32,
    /// Calls per 1000 delayed by [`FaultPlan::slow_for`] before executing.
    pub slow_per_mille: u32,
    /// Injected delay for slow calls.
    pub slow_for: Duration,
}

impl FaultPlan {
    /// A plan that injects nothing; dial rates in with the builder
    /// methods.
    pub fn none() -> Self {
        FaultPlan {
            unavailable_per_mille: 0,
            failed_per_mille: 0,
            slow_per_mille: 0,
            slow_for: Duration::from_millis(1),
        }
    }

    /// Set the unavailability rate (calls per 1000).
    pub fn unavailable(mut self, per_mille: u32) -> Self {
        self.unavailable_per_mille = per_mille;
        self
    }

    /// Set the internal-failure rate (calls per 1000).
    pub fn failed(mut self, per_mille: u32) -> Self {
        self.failed_per_mille = per_mille;
        self
    }

    /// Set the slow-call rate (calls per 1000) and the injected delay.
    pub fn slow(mut self, per_mille: u32, delay: Duration) -> Self {
        self.slow_per_mille = per_mille;
        self.slow_for = delay;
        self
    }
}

/// Counts of injected faults, for assertions and debugging output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Injected [`DmError::RemoteUnavailable`] responses.
    pub unavailable: u64,
    /// Injected [`DmError::RemoteFailed`] responses.
    pub failed: u64,
    /// Calls delayed before executing.
    pub slow: u64,
    /// Calls that reached the wrapped node (including delayed ones).
    pub passed: u64,
}

/// A [`DmNode`] wrapper that injects faults deterministically.
///
/// The draw sequence depends only on the stream and on the *order* in which
/// calls acquire its lock. Single-threaded tests are exactly
/// reproducible; multi-threaded tests reproduce the same multiset of
/// injected faults for a given seed and call count, which pins down the
/// distribution a scheduler-dependent interleaving runs against.
pub struct FaultyDmNode<N: DmNode> {
    inner: Arc<N>,
    label: String,
    plan: FaultPlan,
    stream: Mutex<Stream>,
    down: AtomicBool,
    /// Remaining calls before the node goes hard-down (`i64::MAX` = never).
    /// The shard-failover suite uses this to kill one replica *mid-scatter*
    /// at a deterministic call count rather than at a wall-clock instant.
    down_after: AtomicU64,
    unavailable: AtomicU64,
    failed: AtomicU64,
    slow: AtomicU64,
    passed: AtomicU64,
}

impl<N: DmNode> FaultyDmNode<N> {
    /// Wrap `inner`, injecting `plan`'s faults on draws from `stream`.
    pub fn new(inner: Arc<N>, label: impl Into<String>, plan: FaultPlan, stream: Stream) -> Self {
        FaultyDmNode {
            inner,
            label: label.into(),
            plan,
            stream: Mutex::new(stream),
            down: AtomicBool::new(false),
            down_after: AtomicU64::new(u64::MAX),
            unavailable: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            slow: AtomicU64::new(0),
            passed: AtomicU64::new(0),
        }
    }

    /// A wrapper whose only faults are the ones a test switches on:
    /// [`FaultyDmNode::set_down`], [`FaultyDmNode::down_after`]. Also the
    /// call counter and hop meter the scale-out suites read.
    pub fn steady(inner: Arc<N>, label: impl Into<String>) -> Self {
        Self::new(inner, label, FaultPlan::none(), Stream(0))
    }

    /// Hard-down toggle: while set, every call is refused regardless of
    /// the plan.
    pub fn set_down(&self, down: bool) {
        self.down.store(down, Ordering::SeqCst);
    }

    /// Die after `n` more calls: the first `n` gate entries proceed
    /// normally, then the node flips hard-down (refusing that call and
    /// every later one until [`FaultyDmNode::set_down`]`(false)`).
    /// Deterministic replica death for mid-scatter failover tests.
    pub fn down_after(&self, n: u64) {
        self.down_after.store(n, Ordering::SeqCst);
    }

    /// Injected-fault counters so far.
    pub fn counts(&self) -> FaultCounts {
        FaultCounts {
            unavailable: self.unavailable.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            slow: self.slow.load(Ordering::Relaxed),
            passed: self.passed.load(Ordering::Relaxed),
        }
    }

    fn inject(&self, class: &str, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
        hedc_obs::global().counter("fault.injected").inc();
        hedc_obs::emit(
            hedc_obs::events::kind::FAULT_INJECT,
            format!("{} injected {class}", self.label),
        );
    }

    /// One fault draw: the gate every delegated call (and every *entry* of
    /// a batched call) passes through. `Err` is the injected fault;
    /// `Ok(())` means the call proceeds (possibly after a slow-delay).
    fn fault_gate(&self) -> DmResult<()> {
        // Countdown death: decrement-and-check so exactly `n` calls pass.
        loop {
            let left = self.down_after.load(Ordering::SeqCst);
            if left == u64::MAX {
                break;
            }
            if left == 0 {
                // Spent: disarm, or `set_down(false)` could never revive it.
                self.down_after.store(u64::MAX, Ordering::SeqCst);
                self.down.store(true, Ordering::SeqCst);
                break;
            }
            if self
                .down_after
                .compare_exchange(left, left - 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                break;
            }
        }
        if self.down.load(Ordering::SeqCst) {
            return Err(DmError::RemoteUnavailable(self.label.clone()));
        }
        let draw = self
            .stream
            .lock()
            .expect("fault stream poisoned")
            .below(1000) as u32;
        let p = &self.plan;
        if draw < p.unavailable_per_mille {
            self.inject("unavailable", &self.unavailable);
            return Err(DmError::RemoteUnavailable(self.label.clone()));
        }
        if draw < p.unavailable_per_mille + p.failed_per_mille {
            self.inject("failed", &self.failed);
            return Err(DmError::RemoteFailed(format!(
                "{}: injected internal error",
                self.label
            )));
        }
        if draw < p.unavailable_per_mille + p.failed_per_mille + p.slow_per_mille {
            self.inject("slow", &self.slow);
            std::thread::sleep(p.slow_for);
        }
        self.passed.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

impl<N: DmNode> DmNode for FaultyDmNode<N> {
    fn node_id(&self) -> String {
        self.label.clone()
    }

    fn execute_query(&self, q: &Query) -> DmResult<QueryResult> {
        self.fault_gate()?;
        self.inner.execute_query(q)
    }

    fn resolve_names(
        &self,
        item_id: i64,
        want: crate::NameType,
    ) -> DmResult<Vec<crate::ResolvedName>> {
        self.fault_gate()?;
        self.inner.resolve_names(item_id, want)
    }

    // `execute_batch` and `resolve_batch` deliberately keep the trait
    // defaults: each entry of a batch delegates through the single-call
    // methods above and therefore takes its *own* fault draw — a batch
    // can partially fail, which is exactly what the wire tier's per-entry
    // error isolation has to be tested against.

    fn is_available(&self) -> bool {
        !self.down.load(Ordering::SeqCst) && self.inner.is_available()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::DmIo;
    use crate::testkit::catalog_node;

    fn node() -> Arc<DmIo> {
        Arc::new(catalog_node("fault-test", 1))
    }

    fn outcome_tag(r: &DmResult<QueryResult>) -> &'static str {
        match r {
            Ok(_) => "ok",
            Err(DmError::RemoteUnavailable(_)) => "unavail",
            Err(DmError::RemoteFailed(_)) => "failed",
            Err(_) => "other",
        }
    }

    #[test]
    fn same_seed_reproduces_the_same_fault_sequence() {
        let run = |seed: u64| -> Vec<&'static str> {
            let n = FaultyDmNode::new(
                node(),
                "det",
                FaultPlan::none().unavailable(200).failed(100),
                Stream(seed),
            );
            (0..200)
                .map(|_| outcome_tag(&n.execute_query(&Query::table("catalog"))))
                .collect()
        };
        assert_eq!(run(42), run(42), "same seed must replay identically");
        assert_ne!(
            run(42),
            run(43),
            "distinct seeds should draw distinct fault schedules"
        );
    }

    #[test]
    fn rates_are_roughly_honored_and_counted() {
        let n = FaultyDmNode::new(
            node(),
            "rates",
            FaultPlan::none().unavailable(300).failed(100),
            Stream(7),
        );
        let mut ok = 0u64;
        for _ in 0..1000 {
            if n.execute_query(&Query::table("catalog")).is_ok() {
                ok += 1;
            }
        }
        let c = n.counts();
        assert_eq!(c.unavailable + c.failed + c.passed, 1000);
        assert_eq!(c.passed, ok);
        // 30%/10% nominal; a seeded stream lands near it.
        assert!((200..400).contains(&c.unavailable), "{c:?}");
        assert!((50..150).contains(&c.failed), "{c:?}");
    }

    #[test]
    fn hard_down_overrides_the_plan() {
        let n = FaultyDmNode::steady(node(), "downed");
        assert!(n.execute_query(&Query::table("catalog")).is_ok());
        n.set_down(true);
        assert!(!n.is_available());
        assert!(matches!(
            n.execute_query(&Query::table("catalog")),
            Err(DmError::RemoteUnavailable(_))
        ));
        n.set_down(false);
        assert!(n.execute_query(&Query::table("catalog")).is_ok());
    }

    #[test]
    fn down_after_kills_at_an_exact_call_count() {
        let n = FaultyDmNode::steady(node(), "countdown");
        n.down_after(3);
        for i in 0..3 {
            assert!(
                n.execute_query(&Query::table("catalog")).is_ok(),
                "call {i} should still pass"
            );
        }
        assert!(matches!(
            n.execute_query(&Query::table("catalog")),
            Err(DmError::RemoteUnavailable(_))
        ));
        assert!(!n.is_available(), "countdown death is a hard-down");
        n.set_down(false);
        assert!(n.execute_query(&Query::table("catalog")).is_ok());
    }

    #[test]
    fn injections_are_observable() {
        let n = FaultyDmNode::new(
            node(),
            "observed-node",
            FaultPlan::none().unavailable(1000),
            Stream(3),
        );
        let _ = n.execute_query(&Query::table("catalog"));
        let events = hedc_obs::event_log().events_of_kind(hedc_obs::events::kind::FAULT_INJECT);
        assert!(
            events
                .iter()
                .any(|e| e.detail.contains("observed-node") && e.detail.contains("unavailable")),
            "{events:?}"
        );
    }
}
