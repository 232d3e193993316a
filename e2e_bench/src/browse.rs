//! `browse_hot` and `browse_cold`: one paged node behind `WebServer`.
//!
//! Hot: result + name caches on, pager large enough for every table, ids
//! zipf over a small hot set — `web`, `dm` scoping/pool and `cache` do the
//! work. Cold: caches off, pager a fraction of the live pages, ids uniform,
//! plus density plots and user SQL — `metadb` and `store` do the work. Each
//! is the other's no-change control.

use crate::counters::{record_node_rows, wire_violation, Counters};
use crate::ladder::{Ladder, Target};
use crate::nodes::{self, disk_bytes, BrowseNode};
use crate::pages::{self, IdSource, Mix, PageOp, COLD_MIX, HOT_MIX};
use crate::phases::{self, RunCtx, Trials, STREAM_TRACE};
use crate::probes;
use crate::report::{peak_rss_mb, RunResult};
use crate::trace::{mean, Tracer};
use hedc_cache::CacheConfig;
use hedc_dm::DmResult;
use std::time::Instant;

/// Which of the two browse workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `browse_hot`.
    Hot,
    /// `browse_cold`.
    Cold,
}

impl Kind {
    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Hot => "browse_hot",
            Kind::Cold => "browse_cold",
        }
    }
}

struct Shape {
    mix: Mix,
    cache: Option<CacheConfig>,
    cache_pages: usize,
    rate: f64,
}

fn shape(kind: Kind, ctx: &RunCtx) -> Shape {
    match kind {
        Kind::Hot => Shape {
            mix: HOT_MIX,
            cache: Some(CacheConfig {
                capacity_bytes: ctx.frozen.browse_hot.result_cache_bytes,
                ..CacheConfig::default()
            }),
            cache_pages: ctx.frozen.browse_hot.page_cache_pages,
            rate: ctx.frozen.browse_hot.open_rate_per_s,
        },
        Kind::Cold => Shape {
            mix: COLD_MIX,
            cache: None,
            cache_pages: ctx.frozen.browse_cold.page_cache_pages,
            rate: ctx.frozen.browse_cold.open_rate_per_s,
        },
    }
}

fn id_source(kind: Kind, node: &BrowseNode, ctx: &RunCtx) -> IdSource {
    match kind {
        Kind::Hot => IdSource::hot(
            &node.manifest,
            ctx.frozen.catalogue.hot_set,
            ctx.frozen.browse_hot.zipf_s,
            ctx.seed,
        ),
        Kind::Cold => IdSource::Uniform,
    }
}

/// Run the workload (timed phases, or the traced pass when `ctx.traced`).
pub fn run(kind: Kind, ctx: &RunCtx) -> DmResult<RunResult> {
    let mut result = RunResult::default();
    let shape = shape(kind, ctx);
    let before = Counters::read(&[]);
    let build = || {
        nodes::browse_node(
            &ctx.scratch,
            "browse",
            shape.cache.clone(),
            shape.cache_pages,
            &ctx.frozen.catalogue,
            ctx.seed,
        )
    };
    // One op against `node`, checked against its manifest.
    let op_on = |node: &BrowseNode, ids: &IdSource, stream: u64, index: u64| {
        let op = pages::draw(&shape.mix, ids, &node.manifest, ctx.seed, stream, index);
        let resp = node
            .web
            .handle(&pages::request(&op, &node.manifest, node.cookie));
        pages::verify_response(&op, &resp, &node.manifest)
    };
    if ctx.traced {
        let node = build()?;
        let ids = id_source(kind, &node, ctx);
        let op = |stream: u64, _client: usize, index: u64| op_on(&node, &ids, stream, index);
        traced(kind, ctx, &shape, &node, &ids, &op, &mut result);
    } else {
        let mut trials = Trials::default();
        for _ in 0..ctx.frozen.trials {
            let node = trials.setup(build)?;
            let ids = id_source(kind, &node, ctx);
            let op = |stream: u64, _client: usize, index: u64| op_on(&node, &ids, stream, index);
            trials.warm_closed_open(ctx, shape.rate, &op, &mut result);
        }
        trials.finish(&mut result);
        result.set("peak_rss_mb", peak_rss_mb());
    }
    result
        .violations
        .extend(wire_violation(&before, &Counters::read(&[])));
    Ok(result)
}

/// The per-layer pass: a plain single-client pass between counter
/// snapshots (`[C]` rows and the untraced op time), the ladder (`[S]`/`[D]`
/// rows), the drift guard, the bench-owned probes, and the generator's own
/// numbers.
fn traced(
    kind: Kind,
    ctx: &RunCtx,
    shape: &Shape,
    node: &BrowseNode,
    ids: &IdSource,
    op: &(dyn Fn(u64, usize, u64) -> bool + Sync),
    result: &mut RunResult,
) {
    let n = ctx.frozen.traced_ops;
    // Warm-up, so caches and pools are in their steady state.
    for i in 0..ctx.frozen.warmup_ops {
        op(phases::STREAM_WARMUP, 0, i);
    }
    let ops: Vec<PageOp> = (0..n)
        .map(|i| pages::draw(&shape.mix, ids, &node.manifest, ctx.seed, STREAM_TRACE, i))
        .collect();
    let target = Target {
        io: &node.dm.io,
        session: &node.session,
        web: Some((&node.web, node.cookie)),
        manifest: &node.manifest,
    };

    // Plain pass: exactly the workload's ops, nothing else, between two
    // readings of the program's own counters.
    let c0 = Counters::read(&[&node.dm.io]);
    let t = Instant::now();
    let failed = ops.iter().filter(|op| !target.run_root(op).0).count() as u64;
    let plain_us = t.elapsed().as_nanos() as f64 / 1e3 / n as f64;
    let c1 = Counters::read(&[&node.dm.io]);
    result.count(n, failed);
    record_node_rows(result, &c0, &c1, n);
    result.note("node.store_file_bytes", disk_bytes(&node.store_path));

    // Ladder pass.
    let mut tracer = Tracer::default();
    let ladder: Ladder = target.run(&ops, &mut tracer);
    ladder.record(result);
    result.set("web.handle_us", mean(&ladder.root_us));
    result.set("web.self_us", mean(&ladder.web_self_us));
    result.set("web.bytes_per_page", mean(&ladder.page_bytes));
    result.set(
        "trace.overhead_ratio",
        mean(&ladder.root_us) / plain_us.max(f64::MIN_POSITIVE),
    );
    if let Err(e) = tracer.write(&ctx.out_dir.join(format!("{}.trace.json", kind.name()))) {
        result.note("trace.write_error", e.to_string());
    }

    // Drift guard: a few ops of every page kind in the mix.
    let mut guard_ops: Vec<PageOp> = Vec::new();
    for op in &ops {
        if guard_ops.iter().filter(|g| g.kind() == op.kind()).count() < 3 {
            guard_ops.push(op.clone());
        }
    }
    if let Err(e) = target.drift_guard(&guard_ops) {
        result.violations.push(e);
    }

    // Bench-owned probes at this workload's shape.
    let rows = probes::catalogue_rows(&ctx.frozen.catalogue);
    if let Err(e) = probes::store(&ctx.scratch, rows, shape.cache_pages, ctx.seed, result) {
        result.violations.push(format!("store probe: {e}"));
    }
    if let Some(cfg) = &shape.cache {
        probes::cache(
            cfg.capacity_bytes,
            &node.dm.io,
            &node.session,
            &node.manifest,
            ctx.frozen.catalogue.hot_set,
            result,
        );
    }

    phases::gen_diagnostics(ctx, shape.rate, op, result);
}
