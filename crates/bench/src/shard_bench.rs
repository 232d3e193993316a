//! Scale-out browse: the same dataset and query mix measured at rising
//! shard counts, all in-process.
//!
//! The dataset is a fixed number of HLE rows range-sharded by `time_end`;
//! the workload is the archive's dominant browse pattern — "events in this
//! time window" — plus a periodic global top-k scatter. The single-shard
//! point *is* the unsharded baseline: the identical router/merge path with
//! a one-entry map, so the sweep isolates what partitioning buys rather
//! than comparing different code. On one core the win comes from
//! partition pruning: `time_end` has no index, so a window probe
//! full-scans every row its route touches, and a 4-way map routes it to
//! ~1/4 of the data. `fig5_browse_nodes --shards` records the sweep as
//! `results/BENCH_fig5_shards.json`, gated by
//! [`crate::schema::check_fig5`].

use crate::percentile;
use hedc_dm::testkit::{HleRow, ShardedFixture, Stream};
use hedc_dm::{FaultPlan, Route, ShardMap};
use hedc_metadb::{Expr, OrderDir, Query};
use std::time::Instant;

/// The `time_end` domain the rows are spread over, `[0, SPAN)`.
const SPAN: i64 = 100_000;
/// Window width of a browse probe: 1/20 of the domain, so at 4 shards a
/// probe lands inside one partition ~80% of the time.
const WINDOW: i64 = SPAN / 20;
const SEED: u64 = 0x5AAD_BE2C;

/// One shard-scaling sweep.
#[derive(Debug, Clone)]
pub struct ShardBenchConfig {
    /// Total HLE rows, identical at every shard count.
    pub rows: usize,
    /// Closed-loop probes per point.
    pub queries: usize,
    /// Shard counts to sweep (must include 1 for the baseline).
    pub shard_counts: Vec<usize>,
    /// Replica nodes per shard.
    pub replicas: usize,
    /// Every k-th probe is a global top-k scatter instead of a window.
    pub scatter_every: usize,
}

impl Default for ShardBenchConfig {
    fn default() -> Self {
        if crate::smoke() {
            // Smoke still has to clear check_fig5's 1.6x gate: below ~2k
            // rows per shard the fanout-thread overhead of a 4-way scatter
            // on one core eats the pruning gain, so the smoke dataset stays
            // large enough that a window probe's scan cost dominates.
            ShardBenchConfig {
                rows: 10_000,
                queries: 64,
                shard_counts: vec![1, 2, 4],
                replicas: 2,
                scatter_every: 8,
            }
        } else {
            ShardBenchConfig {
                rows: 24_000,
                queries: 160,
                shard_counts: vec![1, 2, 4],
                replicas: 2,
                scatter_every: 8,
            }
        }
    }
}

/// Measured outcome of one shard count.
#[derive(Debug, Clone)]
pub struct ShardPoint {
    /// Shard count of this point.
    pub shards: usize,
    /// Replica nodes per shard.
    pub replicas: usize,
    /// Probes measured.
    pub queries: usize,
    /// Total rows the probes returned (the workload invariant: identical
    /// at every shard count).
    pub rows_returned: u64,
    /// Mean shards touched per probe — the pruning evidence.
    pub fanout_avg: f64,
    /// Wall-clock seconds of the measured loop.
    pub secs: f64,
    /// Probes per second.
    pub throughput_rps: f64,
    /// Mean probe latency, seconds.
    pub avg_s: f64,
    /// Latency percentiles, seconds.
    pub p50_s: f64,
    /// 95th percentile, seconds.
    pub p95_s: f64,
    /// 99th percentile, seconds.
    pub p99_s: f64,
}

/// The seeded probe stream: index `i` yields the same query at every
/// shard count, so the points measure identical work.
fn probe(i: usize, scatter_every: usize, state: &mut Stream) -> Query {
    if scatter_every != 0 && i % scatter_every == 0 {
        // Global top-k: which events had the most photons, archive-wide.
        Query::table("hle")
            .select(&["id", "n_photons", "time_end"])
            .order_by("n_photons", OrderDir::Desc)
            .order_by("id", OrderDir::Asc)
            .limit(10)
    } else {
        let lo = state.below((SPAN - WINDOW) as u64) as i64;
        Query::table("hle")
            .select(&["id", "time_end", "n_photons"])
            .filter(Expr::between("time_end", lo, lo + WINDOW))
            .order_by("id", OrderDir::Asc)
    }
}

/// How many shards a probe's route touches under `map`.
fn route_width(map: &ShardMap, q: &Query, shards: usize) -> usize {
    match map.route(q) {
        Route::Single(_) => 1,
        Route::Fanout(parts) => parts.len(),
        Route::Replicated => shards,
    }
}

/// Run one point of the sweep.
pub fn run_shard_point(config: &ShardBenchConfig, shards: usize) -> ShardPoint {
    let map = ShardMap::new(shards as u32).with_even_range("hle", "time_end", 0, SPAN);
    let mut times = Stream(SEED);
    let rows = (0..config.rows as i64).map(|id| HleRow::at(id, times.below(SPAN as u64) as i64));
    let replicas = vec![FaultPlan::none(); config.replicas];
    let sharded = ShardedFixture::build(&mut Stream(0), map, &replicas, rows).sharded;

    // Warmup: a couple of probes outside the measured window.
    let mut warm_state = Stream(SEED ^ 0x9E37);
    for i in 0..4 {
        let q = probe(i + 1, 0, &mut warm_state);
        sharded.query(&q).unwrap();
    }

    let mut probe_state = Stream(SEED);
    let mut latencies = Vec::with_capacity(config.queries);
    let mut rows_returned = 0u64;
    let mut fanout_sum = 0usize;
    let started = Instant::now();
    for i in 0..config.queries {
        let q = probe(i, config.scatter_every, &mut probe_state);
        fanout_sum += route_width(&sharded.map(), &q, shards);
        let t = Instant::now();
        let r = sharded.query(&q).expect("probe");
        latencies.push(t.elapsed().as_secs_f64());
        rows_returned += r.rows.len() as u64;
    }
    let secs = started.elapsed().as_secs_f64();

    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    ShardPoint {
        shards,
        replicas: config.replicas,
        queries: config.queries,
        rows_returned,
        fanout_avg: fanout_sum as f64 / config.queries as f64,
        secs,
        throughput_rps: config.queries as f64 / secs,
        avg_s: latencies.iter().sum::<f64>() / latencies.len() as f64,
        p50_s: percentile(&latencies, 0.50),
        p95_s: percentile(&latencies, 0.95),
        p99_s: percentile(&latencies, 0.99),
    }
}

/// Run the whole sweep. Panics if any point returns a different row total
/// than the baseline — a sharded answer that lost rows is not a faster
/// answer.
pub fn run_shard_bench(config: &ShardBenchConfig) -> Vec<ShardPoint> {
    let points: Vec<ShardPoint> = config
        .shard_counts
        .iter()
        .map(|&s| run_shard_point(config, s))
        .collect();
    if let Some(base) = points.first() {
        for p in &points {
            assert_eq!(
                p.rows_returned, base.rows_returned,
                "{} shards returned {} rows, baseline returned {} — the sweep \
                 must measure identical answers",
                p.shards, p.rows_returned, base.rows_returned
            );
        }
    }
    points
}
