//! `cluster_scatter`: 2 shards × 2 replicas behind `DmServer`s on loopback
//! sockets, driven through `ShardedDm` over `NetDm` clients. The only
//! workload that crosses real sockets: frame/proto encode-decode, the mux,
//! admission, and shard routing/fan-out/merge do the work.

use crate::catalogue::Manifest;
use crate::counters::{ratio, record_node_rows, Counters};
use crate::gen::op_rng;
use crate::nodes::{self, Cluster};
use crate::phases::{self, RunCtx, Trials, STREAM_TRACE};
use crate::probes::{self, mean_us};
use crate::report::{peak_rss_mb, RunResult};
use crate::trace::{mean, Tracer, NO_PARENT};
use hedc_dm::shard::ITEM_TABLE;
use hedc_dm::{DmNode, DmResult, FanoutPlan, NameType, ResolvedName, Route};
use hedc_metadb::{Expr, OrderDir, Query, QueryResult};
use rand::Rng;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Items per `resolve_batch` op.
pub const BATCH: usize = 64;

/// One cluster operation.
#[derive(Debug, Clone)]
pub enum ClusterOp {
    /// Shard-key point lookup (`Route::Single`); carries the HLE index.
    Point(usize),
    /// `time_end` window of 5 % of the span, `ORDER BY id` (pruned fan-out).
    Window(u64),
    /// Global top 10 by photon count (full scatter, LIMIT pushdown + merge).
    Top10,
    /// `resolve_batch` of [`BATCH`] items.
    Batch(Vec<i64>),
}

fn window_len(m: &Manifest) -> u64 {
    m.span_ms / 20
}

fn draw(m: &Manifest, items: &[i64], seed: u64, stream: u64, index: u64) -> ClusterOp {
    let mut rng = op_rng(seed, stream, index);
    // 60 % point, 20 % window, 8 % top-10, 12 % batch. Points are the
    // fastest kind and batches the slowest, so the median lies well inside
    // the points and p95 well inside the batches — not on the edge between
    // two kinds, where a percentile flips from run to run.
    match rng.gen_range(0..100) {
        0..=59 => ClusterOp::Point(rng.gen_range(0..m.hles.len())),
        60..=79 => ClusterOp::Window(rng.gen_range(0..m.span_ms - window_len(m))),
        80..=87 => ClusterOp::Top10,
        _ => ClusterOp::Batch(
            (0..BATCH)
                .map(|_| items[rng.gen_range(0..items.len())])
                .collect(),
        ),
    }
}

impl ClusterOp {
    /// Op-kind label (diagnostics).
    pub fn kind(&self) -> &'static str {
        match self {
            ClusterOp::Point(_) => "point",
            ClusterOp::Window(_) => "window",
            ClusterOp::Top10 => "top10",
            ClusterOp::Batch(_) => "batch64",
        }
    }

    /// The query of a query op (`None` for a batch).
    pub fn query(&self, m: &Manifest) -> Option<Query> {
        match self {
            ClusterOp::Point(i) => {
                let h = &m.hles[*i];
                Some(
                    Query::table("hle")
                        .filter(Expr::eq("time_end", h.time_end as i64).and(Expr::eq("id", h.id))),
                )
            }
            ClusterOp::Window(lo) => Some(
                Query::table("hle")
                    .filter(Expr::between(
                        "time_end",
                        *lo as i64,
                        (*lo + window_len(m)) as i64,
                    ))
                    .order_by("id", OrderDir::Asc),
            ),
            ClusterOp::Top10 => Some(
                Query::table("hle")
                    .select(&["id", "n_photons", "title"])
                    .order_by("n_photons", OrderDir::Desc)
                    .order_by("id", OrderDir::Asc)
                    .limit(10),
            ),
            ClusterOp::Batch(_) => None,
        }
    }

    /// The in-loop check against the manifest.
    fn plausible(&self, m: &Manifest, reply: &Reply) -> bool {
        match (self, reply) {
            (ClusterOp::Point(i), Reply::Rows(r)) => {
                r.rows.len() == 1 && r.rows[0][0].as_int() == Some(m.hles[*i].id)
            }
            (ClusterOp::Window(lo), Reply::Rows(r)) => {
                let hi = lo + window_len(m);
                r.rows.len()
                    == m.hles
                        .iter()
                        .filter(|h| (*lo..=hi).contains(&h.time_end))
                        .count()
            }
            (ClusterOp::Top10, Reply::Rows(r)) => r.rows.len() == 10,
            (ClusterOp::Batch(ids), Reply::Names(n)) => {
                n.len() == ids.len() && n.iter().all(|names| names.len() == 2)
            }
            _ => false,
        }
    }
}

/// What an op returned.
enum Reply {
    Rows(QueryResult),
    Names(Vec<Vec<ResolvedName>>),
}

impl Reply {
    /// The bytes the oracle compares: columns and rows (execution
    /// statistics are synthesized by the router), or the resolved names.
    fn canonical(&self) -> Vec<u8> {
        match self {
            Reply::Rows(r) => serde_json::to_vec(&(&r.columns, &r.rows)),
            Reply::Names(n) => serde_json::to_vec(n),
        }
        .expect("replies serialize")
    }
}

fn all_ok(results: Vec<DmResult<Vec<ResolvedName>>>) -> Option<Vec<Vec<ResolvedName>>> {
    results.into_iter().map(Result::ok).collect()
}

fn run_on(node: &dyn DmNode, op: &ClusterOp, m: &Manifest) -> Option<Reply> {
    match op {
        ClusterOp::Batch(ids) => all_ok(node.resolve_batch(ids, NameType::File)).map(Reply::Names),
        _ => node
            .execute_query(&op.query(m).expect("query op"))
            .ok()
            .map(Reply::Rows),
    }
}

/// One booted cluster's share of a run: the timed phases of a trial (or the
/// traced pass), then the oracle — every sampled answer, byte for byte,
/// against the unsharded uncached in-process twin.
fn drive(ctx: &RunCtx, cluster: &Cluster, trials: Option<&mut Trials>, result: &mut RunResult) {
    let m = &cluster.manifest;
    let items = m.item_ids();
    let every = ctx.frozen.cluster_scatter.oracle_sample_every;
    let samples: Mutex<Vec<(ClusterOp, Vec<u8>)>> = Mutex::new(Vec::new());
    let op = |stream: u64, _client: usize, index: u64| {
        let op = draw(m, &items, ctx.seed, stream, index);
        let Some(reply) = run_on(&cluster.sharded, &op, m) else {
            return false;
        };
        let ok = op.plausible(m, &reply);
        if index.is_multiple_of(every) && stream != phases::STREAM_WARMUP {
            samples
                .lock()
                .expect("sample lock")
                .push((op, reply.canonical()));
        }
        ok
    };
    let rate = ctx.frozen.cluster_scatter.open_rate_per_s;
    match trials {
        Some(trials) => trials.warm_closed_open(ctx, rate, &op, result),
        None => {
            traced(ctx, cluster, &items, &op, result);
            phases::gen_diagnostics(ctx, rate, &op, result);
        }
    }
    let samples = samples.into_inner().expect("sample lock");
    let wrong = samples
        .iter()
        .filter(|(op, bytes)| {
            run_on(&*cluster.twin, op, m)
                .map(|r| r.canonical())
                .as_ref()
                != Some(bytes)
        })
        .count();
    result.count(samples.len() as u64, wrong as u64);
    if wrong > 0 {
        result.violations.push(format!(
            "{wrong} of {} sampled answers differ from the unsharded twin",
            samples.len()
        ));
    }
}

/// Run the workload.
pub fn run(ctx: &RunCtx) -> DmResult<RunResult> {
    let mut result = RunResult::default();
    let build = || nodes::cluster(&ctx.frozen.catalogue, ctx.seed);
    if ctx.traced {
        let mut cluster = build()?;
        drive(ctx, &cluster, None, &mut result);
        cluster.shutdown();
    } else {
        let mut trials = Trials::default();
        for _ in 0..ctx.frozen.trials {
            let mut cluster = trials.setup(build)?;
            drive(ctx, &cluster, Some(&mut trials), &mut result);
            cluster.shutdown();
        }
        trials.finish(&mut result);
        result.set("peak_rss_mb", peak_rss_mb());
    }
    Ok(result)
}

/// Item ids grouped by owning shard, in input order.
fn by_shard(cluster: &Cluster, ids: &[i64]) -> BTreeMap<u32, Vec<i64>> {
    let map = cluster.sharded.map();
    let mut groups: BTreeMap<u32, Vec<i64>> = BTreeMap::new();
    for &id in ids {
        let shard = map.shard_for(ITEM_TABLE, id).expect("items are sharded");
        groups.entry(shard).or_default().push(id);
    }
    groups
}

fn traced(
    ctx: &RunCtx,
    cluster: &Cluster,
    items: &[i64],
    op: &(dyn Fn(u64, usize, u64) -> bool + Sync),
    result: &mut RunResult,
) {
    let m = &cluster.manifest;
    let n = ctx.frozen.traced_ops;
    for i in 0..ctx.frozen.warmup_ops {
        op(phases::STREAM_WARMUP, 0, i);
    }
    let ops: Vec<ClusterOp> = (0..n)
        .map(|i| draw(m, items, ctx.seed, STREAM_TRACE, i))
        .collect();

    // Plain pass between counter readings.
    let ios: Vec<&hedc_dm::DmIo> = cluster.replicas.iter().flatten().map(|d| &d.io).collect();
    let c0 = Counters::read(&ios);
    let t = Instant::now();
    let failed = ops
        .iter()
        .filter(|op| !run_on(&cluster.sharded, op, m).is_some_and(|r| op.plausible(m, &r)))
        .count() as u64;
    let plain_us = t.elapsed().as_nanos() as f64 / 1e3 / n as f64;
    let c1 = Counters::read(&ios);
    result.count(n, failed);
    record_node_rows(result, &c0, &c1, n);
    result.set("net.server_us", c1.hist_mean_us(&c0, "net.rpc.server"));
    result.set("net.client_us", c1.hist_mean_us(&c0, "net.rpc.client"));
    result.set(
        "net.shed_ratio",
        ratio(
            c1.delta(&c0, "net.server.overloaded") as f64,
            c1.delta(&c0, "net.server.requests") as f64,
        ),
    );
    result.set(
        "net.retries",
        (c1.delta(&c0, "net.client.retries") + c1.delta(&c0, "net.client.overload_retries")) as f64,
    );
    let scatters =
        c1.delta(&c0, "dm.shard.fanout.queries") + c1.delta(&c0, "dm.shard.fanout.batches");
    result.set(
        "dm.shard.fanout_avg",
        ratio(
            c1.delta(&c0, "dm.shard.fanout.targets") as f64,
            scatters as f64,
        ),
    );

    // Ladder: full op → the per-shard calls through each shard's replica
    // router (what the scatter threads run) → the same call on the in-process
    // replica. The slowest shard sets the scatter's time, so the blocking
    // path is the slowest shard's rungs.
    let mut tracer = Tracer::default();
    let map = cluster.sharded.map();
    let (mut root_us, mut shard_self, mut net_self, mut node_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut route_us, mut merge_us) = (Vec::new(), Vec::new());
    let mut ladder_failed = 0u64;
    for (i, op) in ops.iter().enumerate() {
        let op_id = i as u32;
        let root_id = tracer.begin("dm.shard.op", NO_PARENT, op_id);
        let reply = run_on(&cluster.sharded, op, m);
        let root = tracer.end(root_id);
        ladder_failed += u64::from(reply.is_none());
        // (wire rung, in-process rung) per target shard.
        let mut rungs: Vec<(f64, f64)> = Vec::new();
        match op {
            ClusterOp::Batch(ids) => {
                for (shard, chunk) in by_shard(cluster, ids) {
                    let router = cluster.sharded.shard_router(shard);
                    let (_, wire) = tracer.span("net.rpc", root_id, op_id, || {
                        router.resolve_batch(&chunk, NameType::File)
                    });
                    // The replica router splits the chunk across its two
                    // replicas in parallel; mirror that in process.
                    let halves = chunk.chunks(chunk.len().div_ceil(nodes::REPLICAS));
                    let local = halves
                        .zip(&cluster.replicas[shard as usize])
                        .map(|(half, dm)| {
                            tracer
                                .span("dm.node", root_id, op_id, || {
                                    dm.names().resolve_batch(half, NameType::File)
                                })
                                .1
                        })
                        .fold(0.0, f64::max);
                    rungs.push((wire, local));
                }
            }
            _ => {
                let q = op.query(m).expect("query op");
                let (route, us) = tracer.span("dm.shard.route", root_id, op_id, || map.route(&q));
                route_us.push(us);
                let plan = FanoutPlan::new(&q);
                let (targets, pushed) = match route {
                    Route::Single(s) => (vec![s], &q),
                    Route::Fanout(set) => (set, plan.pushed()),
                    Route::Replicated => (vec![0], &q),
                };
                let mut parts = Vec::new();
                for &shard in &targets {
                    let router = cluster.sharded.shard_router(shard);
                    let (part, wire) =
                        tracer.span("net.rpc", root_id, op_id, || router.execute_query(pushed));
                    let dm = &cluster.replicas[shard as usize][0];
                    let (_, local) = tracer.span("dm.node", root_id, op_id, || dm.io.query(pushed));
                    rungs.push((wire, local));
                    parts.extend(part.ok());
                }
                if targets.len() > 1 {
                    let (_, us) =
                        tracer.span("dm.shard.merge", root_id, op_id, || plan.merge(parts));
                    merge_us.push(us);
                }
            }
        }
        let (wire, local) = rungs
            .into_iter()
            .fold((0.0, 0.0), |a, b| if b.0 > a.0 { b } else { a });
        root_us.push(root);
        shard_self.push((root - wire).max(0.0));
        net_self.push((wire - local).max(0.0));
        node_us.push(local);
    }
    result.count(0, ladder_failed);
    for kind in ["point", "window", "top10", "batch64"] {
        let of_kind: Vec<f64> = ops
            .iter()
            .zip(&root_us)
            .filter(|(op, _)| op.kind() == kind)
            .map(|(_, us)| *us)
            .collect();
        result.note(&format!("ladder.root_us.{kind}"), mean(&of_kind));
    }
    result.set("dm.shard.route_us", mean(&route_us));
    result.set("dm.shard.merge_us", mean(&merge_us));
    result.set("dm.shard.self_us", mean(&shard_self));
    result.set("net.self_us", mean(&net_self));
    result.set("dm.query_us", mean(&node_us));
    result.set(
        "trace.coverage",
        (mean(&shard_self) + mean(&net_self) + mean(&node_us)) / mean(&root_us),
    );
    result.set("trace.overhead_ratio", mean(&root_us) / plain_us);
    result.note("ladder.root_us", mean(&root_us));
    if let Err(e) = tracer.write(&ctx.out_dir.join("cluster_scatter.trace.json")) {
        result.note("trace.write_error", e.to_string());
    }

    // Probes on the cluster's own pieces.
    let client = &cluster.clients[0][0];
    let local = &cluster.replicas[0][0];
    let shard0: Vec<&crate::catalogue::HleEntry> = m
        .hles
        .iter()
        .filter(|h| map.shard_for("hle", h.time_end as i64) == Some(0))
        .take(500)
        .collect();
    let points: Vec<Query> = shard0
        .iter()
        .map(|h| {
            Query::table("hle")
                .filter(Expr::eq("time_end", h.time_end as i64).and(Expr::eq("id", h.id)))
        })
        .collect();
    let rtt = mean_us(points.len(), |i| drop(client.execute_query(&points[i])));
    let inproc = mean_us(points.len(), |i| drop(local.io.query(&points[i])));
    result.set("net.rtt_us", rtt);
    result.set("net.wire_overhead_us", (rtt - inproc).max(0.0));
    let ids: Vec<i64> = items
        .iter()
        .copied()
        .filter(|&id| map.shard_for(ITEM_TABLE, id) == Some(0))
        .take(BATCH)
        .collect();
    let rounds = 200;
    result.set(
        "net.batch64_us",
        mean_us(rounds, |_| drop(client.resolve_batch(&ids, NameType::File))),
    );
    result.set(
        "dm.resolve_batch64_us",
        mean_us(rounds, |_| {
            drop(local.names().resolve_batch(&ids, NameType::File))
        }),
    );
    let request = Query::table("hle").limit(BATCH);
    if let Ok(response) = local.io.query(&request) {
        probes::wire(&request, &response, result);
    }
}
