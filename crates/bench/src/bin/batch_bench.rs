//! The batched hot path, measured: multi-item name mapping and top-k
//! pushdown.
//!
//! Three sections, each an A/B of the old per-item path against the new
//! batched one:
//!
//! 1. **resolve/local** — k-item dynamic name mapping (§4.3) on an
//!    in-process DM: k sequential `resolve` calls (2 indexed point queries
//!    each) versus one `resolve_batch` (2 `IN`-list queries total), for
//!    k ∈ {1, 8, 64, 512}.
//! 2. **resolve/net** (`--net` or `HEDC_NET=1`) — the same A/B over a
//!    loopback `DmServer`/`NetDm` pair: k request frames versus one
//!    `Request::Batch` frame (one round trip).
//! 3. **topk** — `ORDER BY … LIMIT 10` over an unindexed ≥100k-row sort
//!    column: full sort versus the bounded-heap top-k path, flipped via
//!    `hedc_metadb::tuning`.
//!
//! Every measurement pass resolves a **disjoint, never-seen** slice of
//! items so result caches cannot flatter either arm. The report lands in
//! `results/BENCH_batch_bench.json`; `HEDC_BENCH_SMOKE=1` shrinks the
//! sweep for the CI smoke gate.

use hedc_dm::{Dm, DmNode, NameType};
use hedc_metadb::{tuning, ColumnDef, DataType, Database, OrderDir, Query, Schema, Value};
use hedc_net::{DmServer, NetConfig, NetDm, ServerConfig};
use std::sync::Arc;
use std::time::Instant;

fn net_mode_enabled() -> bool {
    std::env::args().any(|a| a == "--net")
        || std::env::var("HEDC_NET").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// Repetitions per batch size: enough cold ids to smooth scheduler noise
/// on small batches without minutes of setup for large ones.
fn reps_for(batch_size: usize) -> usize {
    (256 / batch_size).clamp(1, 32)
}

/// Bootstrapped DM carrying `n` attached items; returns the item ids.
fn dm_with_items(n: usize) -> (Arc<Dm>, Vec<i64>) {
    let dm = hedc_dm::testkit::dm();
    let names = dm.names();
    let items: Vec<i64> = (0..n)
        .map(|i| {
            let item = names.new_item().expect("new item");
            names
                .attach(
                    item,
                    NameType::File,
                    1,
                    &format!("raw/obs{i}.fits"),
                    1024,
                    None,
                    "data",
                )
                .expect("attach name");
            item
        })
        .collect();
    (dm, items)
}

/// Hand out the next `k` never-used item ids.
fn take(ids: &mut std::vec::IntoIter<i64>, k: usize) -> Vec<i64> {
    let slice: Vec<i64> = ids.by_ref().take(k).collect();
    assert_eq!(slice.len(), k, "item pool exhausted — size the pool up");
    slice
}

struct ResolveRow {
    mode: &'static str,
    batch_size: usize,
    reps: usize,
    seq_avg_us: f64,
    batch_avg_us: f64,
    speedup: f64,
}

/// One A/B pass: `seq` resolves k items one by one, `batch` in one call.
fn measure_resolve(
    mode: &'static str,
    batch_size: usize,
    ids: &mut std::vec::IntoIter<i64>,
    seq: &dyn Fn(&[i64]),
    batch: &dyn Fn(&[i64]),
) -> ResolveRow {
    let reps = reps_for(batch_size);
    let mut seq_total = 0.0f64;
    let mut batch_total = 0.0f64;
    for _ in 0..reps {
        let cold = take(ids, batch_size);
        let t0 = Instant::now();
        seq(&cold);
        seq_total += t0.elapsed().as_secs_f64();

        let cold = take(ids, batch_size);
        let t0 = Instant::now();
        batch(&cold);
        batch_total += t0.elapsed().as_secs_f64();
    }
    let seq_avg_us = seq_total / reps as f64 * 1e6;
    let batch_avg_us = batch_total / reps as f64 * 1e6;
    ResolveRow {
        mode,
        batch_size,
        reps,
        seq_avg_us,
        batch_avg_us,
        speedup: seq_avg_us / batch_avg_us.max(f64::EPSILON),
    }
}

fn print_row(r: &ResolveRow) {
    println!(
        "{:>6} {:>6} {:>6} {:>14.1} {:>14.1} {:>9.2}x",
        r.mode, r.batch_size, r.reps, r.seq_avg_us, r.batch_avg_us, r.speedup
    );
}

fn resolve_json(rows: &[ResolveRow]) -> Vec<serde_json::Value> {
    rows.iter()
        .map(|r| {
            serde_json::json!({
                "mode": r.mode,
                "batch_size": r.batch_size,
                "reps": r.reps,
                "sequential_avg_us": r.seq_avg_us,
                "batched_avg_us": r.batch_avg_us,
                "speedup": r.speedup,
            })
        })
        .collect()
}

fn main() {
    let smoke = hedc_bench::smoke();
    let sizes: &[usize] = if smoke { &[1, 8, 64] } else { &[1, 8, 64, 512] };
    let net = net_mode_enabled();

    // Pool enough cold items for every pass: both arms of both modes.
    let per_mode: usize = sizes.iter().map(|&k| 2 * k * reps_for(k)).sum();
    let modes = if net { 2 } else { 1 };
    let (dm, items) = dm_with_items(per_mode * modes);
    let mut ids = items.into_iter();

    println!("batch_bench — batched name mapping and top-k pushdown");
    println!("{:-<62}", "");
    println!(
        "{:>6} {:>6} {:>6} {:>14} {:>14} {:>10}",
        "mode", "k", "reps", "seq avg [us]", "batch avg [us]", "speedup"
    );

    let mut rows: Vec<ResolveRow> = Vec::new();
    for &k in sizes {
        let names = dm.names();
        let row = measure_resolve(
            "local",
            k,
            &mut ids,
            &|cold: &[i64]| {
                for &id in cold {
                    names.resolve(id, NameType::File).expect("resolve");
                }
            },
            &|cold: &[i64]| {
                for r in names.resolve_batch(cold, NameType::File) {
                    r.expect("batched resolve");
                }
            },
        );
        print_row(&row);
        rows.push(row);
    }

    if net {
        let server = DmServer::bind(
            "127.0.0.1:0",
            dm.clone() as Arc<dyn DmNode>,
            ServerConfig::default(),
        )
        .expect("bind loopback DM server");
        let client = NetDm::connect(server.local_addr(), "bench-net", NetConfig::default());
        for &k in sizes {
            let row = measure_resolve(
                "net",
                k,
                &mut ids,
                &|cold: &[i64]| {
                    for &id in cold {
                        client.resolve_names(id, NameType::File).expect("resolve");
                    }
                },
                &|cold: &[i64]| {
                    for r in client.resolve_batch(cold, NameType::File) {
                        r.expect("batched resolve");
                    }
                },
            );
            print_row(&row);
            rows.push(row);
        }
    }

    // --- top-k pushdown ---------------------------------------------------
    let topk_rows: i64 = if smoke { 20_000 } else { 150_000 };
    let limit = 10usize;
    let db = Database::in_memory("topk-bench");
    let mut conn = db.connect();
    conn.create_table(
        Schema::new(
            "ev",
            vec![
                ColumnDef::new("id", DataType::Int).not_null(),
                ColumnDef::new("score", DataType::Float).not_null(),
            ],
        )
        .primary_key(&["id"]),
    )
    .expect("create table");
    for i in 0..topk_rows {
        // Scrambled, unindexed sort key: the executor cannot cheat.
        let score = (i.wrapping_mul(2_654_435_761) % 1_000_003) as f64;
        conn.insert("ev", vec![Value::Int(i), Value::Float(score)])
            .expect("insert");
    }
    let q = Query::table("ev")
        .order_by("score", OrderDir::Desc)
        .limit(limit);

    tuning::set_topk_enabled(false);
    let t0 = Instant::now();
    let full = conn.query(&q).expect("full-sort query");
    let full_us = t0.elapsed().as_secs_f64() * 1e6;

    tuning::set_topk_enabled(true);
    let t0 = Instant::now();
    let heap = conn.query(&q).expect("top-k query");
    let heap_us = t0.elapsed().as_secs_f64() * 1e6;

    assert_eq!(full.rows, heap.rows, "both paths must agree on the top k");
    let topk_speedup = full_us / heap_us.max(f64::EPSILON);
    println!("{:-<62}", "");
    println!(
        "topk: LIMIT {limit} over {topk_rows} unindexed rows — full sort {full_us:.0} us \
         (rows_sorted {}), bounded heap {heap_us:.0} us (rows_sorted {}), {topk_speedup:.2}x",
        full.stats.rows_sorted, heap.stats.rows_sorted
    );

    hedc_bench::write_report(
        "BENCH_batch_bench",
        &serde_json::json!({
            "bench": "batch_bench",
            "resolve": resolve_json(&rows),
            "topk": {
                "rows": topk_rows,
                "limit": limit,
                "full_sort_us": full_us,
                "full_sort_rows_sorted": full.stats.rows_sorted,
                "topk_us": heap_us,
                "topk_rows_sorted": heap.stats.rows_sorted,
                "speedup": topk_speedup,
            },
        }),
    );
}
