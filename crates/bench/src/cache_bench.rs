//! Warm-vs-cold browse latency with the DM result cache enabled.
//!
//! The cold pass runs a set of distinct browse queries against an empty
//! cache — every query pays verify/compile/execute in the metadata
//! database. The warm passes repeat the same set, now answered from the
//! sharded result cache. `fig5_browse_nodes --cache` records both rows in
//! `results/BENCH_fig5_browse_nodes.json`; the interesting number is the
//! speedup, which is what the §6.3 materialized-view discussion buys at
//! the view granularity and this cache buys at the query granularity.

use hedc_cache::CacheConfig;
use hedc_dm::{DmConfig, IoConfig};
use hedc_metadb::{AggFunc, Expr, Query};
use std::time::Instant;

/// One warm-vs-cold cache run.
#[derive(Debug, Clone, Copy)]
pub struct CacheBenchConfig {
    /// Distinct browse queries in the working set.
    pub queries: usize,
    /// Warm repetitions of the working set after the cold pass.
    pub warm_passes: usize,
    /// Public HLE rows seeded before measuring.
    pub seed_rows: u64,
}

impl Default for CacheBenchConfig {
    fn default() -> Self {
        CacheBenchConfig {
            queries: 64,
            warm_passes: 8,
            seed_rows: 256,
        }
    }
}

/// Measured outcome of a cache run.
#[derive(Debug, Clone, Copy)]
pub struct CacheBenchResult {
    /// Mean per-query latency of the cold pass, microseconds.
    pub cold_avg_us: f64,
    /// Mean per-query latency across the warm passes, microseconds.
    pub warm_avg_us: f64,
    /// `cold_avg_us / warm_avg_us`.
    pub speedup: f64,
    /// Cache hits recorded during the run.
    pub hits: u64,
    /// Cache misses recorded during the run.
    pub misses: u64,
}

/// A working set of distinct browse queries: time-window scans over the
/// HLE table interleaved with catalog scans and an indexed count, so the
/// set exercises filters, projections and aggregates.
fn browse_set(n: usize) -> Vec<Query> {
    (0..n)
        .map(|i| match i % 3 {
            0 => Query::table("hle")
                .filter(Expr::eq("public", true).and(Expr::between(
                    "t_start",
                    (i as i64) * 50,
                    (i as i64) * 50 + 400,
                )))
                .limit(50),
            1 => Query::table("catalog")
                .filter(Expr::eq("public", true))
                .limit(10 + i),
            _ => Query::table("hle")
                .filter(Expr::eq("event_type", "flare"))
                .aggregate(AggFunc::CountStar)
                .group_by("event_type")
                .limit(i + 1),
        })
        .collect()
}

/// Boot a cache-enabled DM node, seed it, run cold + warm passes.
pub fn run_cache_bench(config: &CacheBenchConfig) -> CacheBenchResult {
    let dm = hedc_dm::testkit::dm_with(DmConfig {
        io: IoConfig {
            cache: Some(CacheConfig::default()),
            ..IoConfig::default()
        },
        ..DmConfig::default()
    });

    let session = dm.import_session();
    let svc = dm.services();
    for k in 0..config.seed_rows {
        let id = svc
            .create_hle(
                &session,
                &hedc_dm::HleSpec::window(k * 100, k * 100 + 50, "flare"),
            )
            .expect("seed hle");
        svc.publish(&session, "hle", id).expect("publish hle");
    }

    let caches = dm.io.caches().expect("cache enabled");
    let stats_before = caches.queries.stats();
    let queries = browse_set(config.queries);

    let mut cold_us = Vec::with_capacity(queries.len());
    for q in &queries {
        let t0 = Instant::now();
        svc.query(&session, q.clone()).expect("cold browse query");
        cold_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }

    let mut warm_us = Vec::with_capacity(queries.len() * config.warm_passes);
    for _ in 0..config.warm_passes {
        for q in &queries {
            let t0 = Instant::now();
            svc.query(&session, q.clone()).expect("warm browse query");
            warm_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }

    let stats = caches.queries.stats();
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let cold_avg_us = avg(&cold_us);
    let warm_avg_us = avg(&warm_us);
    CacheBenchResult {
        cold_avg_us,
        warm_avg_us,
        speedup: cold_avg_us / warm_avg_us.max(f64::EPSILON),
        hits: stats.hits - stats_before.hits,
        misses: stats.misses - stats_before.misses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smoke: warm passes hit the cache and are not slower than cold.
    /// (The ≥5× acceptance number is asserted by the release-mode harness,
    /// not here — debug-build timing is too noisy to pin.)
    #[test]
    fn warm_passes_hit_the_cache() {
        let r = run_cache_bench(&CacheBenchConfig {
            queries: 12,
            warm_passes: 2,
            seed_rows: 32,
        });
        assert_eq!(r.misses, 12, "{r:?}");
        assert_eq!(r.hits, 24, "{r:?}");
        assert!(r.speedup > 0.5, "warm dramatically slower than cold: {r:?}");
    }
}
