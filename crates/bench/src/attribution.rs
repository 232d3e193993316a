//! Attribution runs: the measured browse workload driven over the real
//! loopback stack with a root span per request, decomposed by the obs
//! critical-path analyzer into queue / pool / wire / execute self time.
//!
//! This is the `--attribution` mode behind `fig4_browse_clients` and
//! `ingest_bench`: instead of only reporting end-to-end latency, the run
//! samples traces, partitions each root's wall clock across the tiers that
//! actually spent it, and emits the aggregate (plus the slowest individual
//! traces) into the `BENCH_*.json` report. A calibration window sets the
//! flight-recorder pin threshold to the observed p95 so the run's genuine
//! tail pins itself for post-hoc inspection via `/hedc/trace/<id>`.

use crate::cluster::{browse_queries, dm_node};
use crate::percentile;
use hedc_dm::{DmNode, DmRouter};
use hedc_net::{DmServer, NetConfig, NetDm, ServerConfig};
use hedc_obs::{Breakdown, Category};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many slowest per-trace breakdowns the aggregate retains.
const SLOWEST_KEPT: usize = 4;

/// One attribution run's shape.
#[derive(Debug, Clone, Copy)]
pub struct AttributionConfig {
    /// Concurrent closed-loop client threads.
    pub clients: usize,
    /// Measured (traced) window.
    pub measure: Duration,
    /// Untraced warm-up window used to calibrate the pin threshold.
    pub calibrate: Duration,
    /// Database queries per browse request (the paper's seven, §7.2).
    pub queries_per_request: usize,
    /// Analyze every Nth traced request per client (every request is
    /// traced and eligible to pin; analysis is the sampled part).
    pub sample_every: usize,
}

impl AttributionConfig {
    /// The fig4 shape at a given client count.
    pub fn fig4(clients: usize, measure: Duration) -> AttributionConfig {
        let calibrate = (measure / 4).clamp(Duration::from_millis(200), Duration::from_secs(2));
        AttributionConfig {
            clients,
            measure,
            calibrate,
            queries_per_request: 7,
            sample_every: 8,
        }
    }
}

/// Aggregated self time across a set of analyzed traces.
#[derive(Debug, Clone, Default)]
pub struct AttributionTotals {
    /// Analyzed trace count.
    pub traces: u64,
    /// Sum of analyzed root durations, microseconds.
    pub measured_root_us: u64,
    /// Sum of attributed (partitioned) time, microseconds.
    pub attributed_us: u64,
    /// Self time per category label ("queue", "pool", "wire", "execute").
    pub by_category_us: BTreeMap<&'static str, u64>,
    /// Self time per (tier, category label).
    pub by_tier_us: BTreeMap<(String, &'static str), u64>,
    /// Traces whose breakdown referenced evicted parents.
    pub orphaned_spans: u64,
    /// Slowest analyzed traces, slowest first, at most [`SLOWEST_KEPT`].
    pub slowest: Vec<Breakdown>,
}

impl AttributionTotals {
    /// Fold one analyzed trace in.
    pub fn add(&mut self, b: Breakdown) {
        self.traces += 1;
        self.measured_root_us += b.root_us;
        self.attributed_us += b.attributed_us();
        for c in Category::ALL {
            *self.by_category_us.entry(c.label()).or_insert(0) += b.category_us(c);
        }
        for t in &b.by_tier {
            *self
                .by_tier_us
                .entry((t.tier.clone(), t.category.label()))
                .or_insert(0) += t.self_us;
        }
        self.orphaned_spans += b.orphans as u64;
        let pos = self
            .slowest
            .iter()
            .position(|s| s.root_us < b.root_us)
            .unwrap_or(self.slowest.len());
        if pos < SLOWEST_KEPT {
            self.slowest.insert(pos, b);
            self.slowest.truncate(SLOWEST_KEPT);
        }
    }

    /// Merge another accumulator (per-thread fold-in).
    pub fn merge(&mut self, other: AttributionTotals) {
        self.traces += other.traces;
        self.measured_root_us += other.measured_root_us;
        self.attributed_us += other.attributed_us;
        for (k, v) in other.by_category_us {
            *self.by_category_us.entry(k).or_insert(0) += v;
        }
        for (k, v) in other.by_tier_us {
            *self.by_tier_us.entry(k).or_insert(0) += v;
        }
        self.orphaned_spans += other.orphaned_spans;
        for b in other.slowest {
            let pos = self
                .slowest
                .iter()
                .position(|s| s.root_us < b.root_us)
                .unwrap_or(self.slowest.len());
            if pos < SLOWEST_KEPT {
                self.slowest.insert(pos, b);
                self.slowest.truncate(SLOWEST_KEPT);
            }
        }
    }

    /// Attributed share of measured root time (1.0 = exact partition).
    pub fn coverage(&self) -> f64 {
        if self.measured_root_us == 0 {
            return 0.0;
        }
        self.attributed_us as f64 / self.measured_root_us as f64
    }

    /// The `breakdown_us` object for a BENCH row.
    pub fn breakdown_json(&self) -> serde_json::Value {
        let mut obj = serde_json::Map::new();
        for c in Category::ALL {
            obj.insert(
                c.label().to_string(),
                serde_json::json!(self.by_category_us.get(c.label()).copied().unwrap_or(0)),
            );
        }
        serde_json::Value::Object(obj)
    }

    /// The per-tier rollup as a JSON array, largest first.
    pub fn tiers_json(&self) -> serde_json::Value {
        let mut tiers: Vec<(&(String, &'static str), &u64)> = self.by_tier_us.iter().collect();
        tiers.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
        serde_json::Value::Array(
            tiers
                .into_iter()
                .map(|((tier, category), us)| {
                    serde_json::json!({ "tier": tier, "category": category, "self_us": us })
                })
                .collect(),
        )
    }
}

/// Verification that the slowest retained trace is servable over the thin
/// web tier.
#[derive(Debug, Clone)]
pub struct TracePageCheck {
    /// Trace the check fetched.
    pub trace_id: u64,
    /// HTTP status of `GET /hedc/trace/<id>`.
    pub status: u16,
    /// Whether the page rendered (status 200 and a non-empty body).
    pub ok: bool,
}

/// One measured browse attribution run.
#[derive(Debug, Clone)]
pub struct BrowseAttribution {
    /// Client thread count.
    pub clients: usize,
    /// Completed browse requests in the measured window.
    pub requests: u64,
    /// Browse requests per second.
    pub requests_per_second: f64,
    /// Mean request latency, seconds.
    pub avg_response_s: f64,
    /// Median request latency, seconds.
    pub p50_response_s: f64,
    /// 95th-percentile request latency, seconds.
    pub p95_response_s: f64,
    /// 99th-percentile request latency, seconds.
    pub p99_response_s: f64,
    /// Pin threshold the calibration window chose, microseconds.
    pub pin_threshold_us: u64,
    /// Traces pinned during the measured window.
    pub pinned: usize,
    /// The sampled-trace aggregate.
    pub totals: AttributionTotals,
    /// `/hedc/trace/<id>` round-trip for the slowest retained trace.
    pub trace_page: Option<TracePageCheck>,
}

impl BrowseAttribution {
    /// The mode-tagged BENCH row for `results/BENCH_fig4_browse_clients.json`.
    pub fn to_row(&self) -> serde_json::Value {
        serde_json::json!({
            "mode": "attribution",
            "clients": self.clients,
            "throughput_rps": self.requests_per_second,
            "latency_s": {
                "avg": self.avg_response_s,
                "p50": self.p50_response_s,
                "p95": self.p95_response_s,
                "p99": self.p99_response_s,
            },
            "sampled_traces": self.totals.traces,
            "measured_root_us": self.totals.measured_root_us,
            "attributed_us": self.totals.attributed_us,
            "coverage": self.totals.coverage(),
            "breakdown_us": self.totals.breakdown_json(),
        })
    }

    /// The report's `attribution` section: tiers, slowest traces, pin state.
    pub fn to_section(&self) -> serde_json::Value {
        let slowest: Vec<serde_json::Value> = self
            .totals
            .slowest
            .iter()
            .map(|b| {
                serde_json::from_str(&b.to_json())
                    .unwrap_or_else(|_| serde_json::json!({ "trace_id": b.trace_id }))
            })
            .collect();
        serde_json::json!({
            "pin_threshold_us": self.pin_threshold_us,
            "pinned": self.pinned,
            "orphaned_spans": self.totals.orphaned_spans,
            "tiers": self.totals.tiers_json(),
            "slowest": slowest,
            "trace_page": self.trace_page.as_ref().map(|t| serde_json::json!({
                "trace_id": t.trace_id,
                "status": t.status,
                "ok": t.ok,
            })),
        })
    }
}

/// Drive the closed browse loop until `deadline`; every request optionally
/// runs under a root span, and every `sample_every`th traced request is
/// analyzed inline (while its spans are hot in the store).
fn browse_loop(
    router: &DmRouter,
    queries: &[hedc_metadb::Query],
    deadline: Instant,
    trace: bool,
    sample_every: usize,
) -> (Vec<u64>, AttributionTotals) {
    let mut latencies_us = Vec::new();
    let mut totals = AttributionTotals::default();
    let mut n = 0usize;
    while Instant::now() < deadline {
        let root = trace.then(|| hedc_obs::Span::root("browse.request"));
        let trace_id = root.as_ref().map(|r| r.context().trace_id);
        let t0 = Instant::now();
        let mut ok = true;
        for q in queries {
            if router.execute_query(q).is_err() {
                ok = false;
                break;
            }
        }
        let elapsed = t0.elapsed();
        drop(root); // finishes into the span store + flight recorder
        if !ok {
            continue;
        }
        latencies_us.push(elapsed.as_micros() as u64);
        n += 1;
        if let Some(id) = trace_id {
            if n % sample_every.max(1) == 0 {
                if let Some(b) = hedc_obs::analyze_trace(id) {
                    totals.add(b);
                }
            }
        }
    }
    (latencies_us, totals)
}

/// Boot a one-node loopback stack, calibrate the pin threshold, run the
/// traced browse workload, and aggregate the sampled critical-path
/// breakdowns.
pub fn run_browse_attribution(config: &AttributionConfig) -> BrowseAttribution {
    assert!(config.clients > 0);
    let recorder = hedc_obs::recorder();
    recorder.drain_pinned();
    recorder.clear();

    let dm = dm_node();
    let node: Arc<dyn DmNode> = dm.clone();
    let mut server = DmServer::bind("127.0.0.1:0", node, ServerConfig::default())
        .expect("bind loopback DM server");
    let remote: Arc<dyn DmNode> = Arc::new(NetDm::connect(
        server.local_addr(),
        "net-dm-attr".to_string(),
        NetConfig::default(),
    ));
    let router = Arc::new(DmRouter::new(vec![remote]));
    let queries = Arc::new(browse_queries(config.queries_per_request));

    // Calibration: untraced, nothing pins; the p95 becomes the threshold so
    // the measured window pins its genuine tail.
    recorder.set_pin_threshold_us(u64::MAX);
    let calibrated = {
        let deadline = Instant::now() + config.calibrate;
        let workers: Vec<_> = (0..config.clients)
            .map(|_| {
                let router = Arc::clone(&router);
                let queries = Arc::clone(&queries);
                std::thread::spawn(move || browse_loop(&router, &queries, deadline, false, 1).0)
            })
            .collect();
        let mut all: Vec<u64> = workers
            .into_iter()
            .flat_map(|w| w.join().expect("calibration thread"))
            .collect();
        all.sort_unstable();
        percentile(&all, 0.95).max(1)
    };
    recorder.set_pin_threshold_us(calibrated);

    // Measured window: every request traced, every Nth analyzed.
    let deadline = Instant::now() + config.measure;
    let started = Instant::now();
    let workers: Vec<_> = (0..config.clients)
        .map(|_| {
            let router = Arc::clone(&router);
            let queries = Arc::clone(&queries);
            let sample_every = config.sample_every;
            std::thread::spawn(move || browse_loop(&router, &queries, deadline, true, sample_every))
        })
        .collect();
    let mut latencies_us: Vec<u64> = Vec::new();
    let mut totals = AttributionTotals::default();
    for w in workers {
        let (lat, t) = w.join().expect("attribution client thread");
        latencies_us.extend(lat);
        totals.merge(t);
    }
    let elapsed = started.elapsed().as_secs_f64();
    drop(router);
    server.shutdown();

    latencies_us.sort_unstable();
    let requests = latencies_us.len() as u64;
    let avg_us = if latencies_us.is_empty() {
        0.0
    } else {
        latencies_us.iter().sum::<u64>() as f64 / latencies_us.len() as f64
    };

    // The slowest retained trace must be servable end to end.
    let trace_page = recorder.slowest(1).first().map(|slow| {
        let web = hedc_web::WebServer::new(dm, None);
        let path = format!("/hedc/trace/{}", slow.trace_id);
        let resp = web.handle(&hedc_web::HttpRequest::get(&path, "bench"));
        TracePageCheck {
            trace_id: slow.trace_id,
            status: resp.status,
            ok: resp.status == 200 && !resp.body.is_empty(),
        }
    });

    BrowseAttribution {
        clients: config.clients,
        requests,
        requests_per_second: requests as f64 / elapsed.max(f64::EPSILON),
        avg_response_s: avg_us / 1e6,
        p50_response_s: percentile(&latencies_us, 0.50) as f64 / 1e6,
        p95_response_s: percentile(&latencies_us, 0.95) as f64 / 1e6,
        p99_response_s: percentile(&latencies_us, 0.99) as f64 / 1e6,
        pin_threshold_us: calibrated,
        pinned: recorder.depths().1,
        totals,
        trace_page,
    }
}

/// Aggregate whatever `root_name` traces the flight recorder still retains
/// (recent ring plus pins) — the ingest bench's attribution path, where the
/// pipeline mints its own `ingest.unit` roots.
pub fn analyze_retained_roots(root_name: &str) -> AttributionTotals {
    let recorder = hedc_obs::recorder();
    let mut totals = AttributionTotals::default();
    let mut seen = std::collections::HashSet::new();
    let mut records = recorder.pinned();
    records.extend(recorder.recent(usize::MAX));
    for record in records {
        if record.root_name != root_name || !seen.insert(record.trace_id) {
            continue;
        }
        if let Some(b) = hedc_obs::analyze_trace(record.trace_id) {
            totals.add(b);
        }
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A short attribution run over the real loopback stack must attribute
    /// nearly all measured root time and retain a servable slowest trace.
    #[test]
    fn attribution_partitions_browse_latency() {
        let run = run_browse_attribution(&AttributionConfig {
            clients: 4,
            measure: Duration::from_millis(400),
            calibrate: Duration::from_millis(150),
            queries_per_request: 7,
            sample_every: 2,
        });
        assert!(run.requests > 0, "{run:?}");
        assert!(run.totals.traces > 0, "sampling must analyze something");
        let cov = run.totals.coverage();
        assert!(
            (0.9..=1.1).contains(&cov),
            "breakdown must sum to within 10% of measured root time, got {cov} ({run:?})"
        );
        let wire_plus_execute = run.totals.by_category_us.get("wire").copied().unwrap_or(0)
            + run
                .totals
                .by_category_us
                .get("execute")
                .copied()
                .unwrap_or(0);
        assert!(
            wire_plus_execute > 0,
            "browse time must land somewhere real"
        );
        let check = run.trace_page.expect("a slowest trace must be retained");
        assert!(
            check.ok,
            "GET /hedc/trace/{} returned {}",
            check.trace_id, check.status
        );
        assert!(!run.totals.slowest.is_empty());
        assert!(run.totals.slowest[0].root_us >= run.totals.slowest.last().unwrap().root_us);
    }

    #[test]
    fn totals_merge_keeps_slowest_sorted() {
        let mk = |trace_id, root_us| Breakdown {
            trace_id,
            root_name: "browse.request".into(),
            root_us,
            by_category: Category::ALL.iter().map(|&c| (c, 0)).collect(),
            by_tier: Vec::new(),
            waterfall: Vec::new(),
            orphans: 0,
        };
        let mut a = AttributionTotals::default();
        for (id, us) in [(1, 50), (2, 300), (3, 100)] {
            a.add(mk(id, us));
        }
        let mut b = AttributionTotals::default();
        for (id, us) in [(4, 200), (5, 700), (6, 10)] {
            b.add(mk(id, us));
        }
        a.merge(b);
        let ids: Vec<u64> = a.slowest.iter().map(|s| s.trace_id).collect();
        assert_eq!(ids, vec![5, 2, 4, 3]);
        assert_eq!(a.traces, 6);
        assert_eq!(a.measured_root_us, 1360);
    }
}
