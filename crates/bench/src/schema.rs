//! The documented row schema for `results/BENCH_*.json`, plus a validator.
//!
//! Every bench that commits machine-readable results writes one
//! `BENCH_<name>.json` file: a top-level object whose `"bench"` tag equals
//! `<name>` and whose sections are arrays of flat rows. The schema per
//! bench:
//!
//! * **fig4_browse_clients / fig5_browse_nodes** — `rows`: non-empty; each
//!   row has `mode` (fig4: `standard`/`batched`/`attribution`/`net`; fig5:
//!   `sim`/`net`/`cache`), and — except fig5 `cache` rows, which carry
//!   `phase`/`avg_us_per_query` instead — `clients` ≥ 1, a finite
//!   `throughput_rps` ≥ 0, and a `latency_s` object with finite
//!   `avg`/`p50`/`p95`/`p99` where p50 ≤ p95 ≤ p99. `attribution` rows
//!   additionally carry `sampled_traces`, `measured_root_us`,
//!   `attributed_us`, a `coverage` within 10% of exact (0.9 ..= 1.1), and a
//!   `breakdown_us` object whose `queue`/`pool`/`wire`/`execute` sum to
//!   `attributed_us` — the partition property, enforced at the report
//!   boundary. fig4 `net` rows (the measured clients sweep against the
//!   admission-controlled server) carry `requests`, `sheds`, and a
//!   `shed_rate` in `0..=1`, and the sweep as a whole must satisfy
//!   [`check_fig4`]: at least two rows on strictly increasing client
//!   counts, throughput never collapsing below 65% of the best preceding
//!   point, p99 ≤ 3 s, and shed rate ≤ 0.5 — the anti-Figure-4 claim that
//!   overload sheds instead of queueing into collapse.
//! * **batch_bench** — `resolve`: non-empty rows with `mode`
//!   (`local`/`net`), `batch_size` ≥ 1, `reps` ≥ 1, finite
//!   `sequential_avg_us`/`batched_avg_us`/`speedup`; `topk`: object with
//!   finite `full_sort_us`/`topk_us`/`speedup`.
//! * **ingest** — `workload` (`units`/`photons` counts), `scale`: non-empty
//!   rows with `workers` ≥ 1 and finite `secs`/`units_per_s`/`speedup`;
//!   `wal`: rows with `group_commit` ≥ 1; `crash_cycle`: object whose
//!   `skipped + resumed + ingested == units` (every unit accounted).
//! * **table1_processing** — `rows`: non-empty with `workload`, `config`,
//!   finite `throughput_rps`, and an ordered `latency_s`.
//! * **store** — `contention`: non-empty rows with `backend`
//!   (`memory`/`paged`), `phase` (`idle`/`under_ingest`), `queries` ≥ 1,
//!   finite `throughput_rps`, and an ordered `latency_s`;
//!   `contention_summary`: finite positive `memory_p99_ratio` and
//!   `paged_p99_ratio`, with the paged ratio ≤ 2 — the tentpole claim that
//!   MVCC snapshot reads keep browse p99 under ingest within 2× of idle;
//!   `larger_than_cache`: object whose `scan_rows == rows`, `evictions` >
//!   `cache_pages` (the table really exceeded the cache), and
//!   `scan_verified` is `true`.
//! * **fig5_shards** — `rows`: non-empty; each row has `mode` `"shards"`,
//!   `shards` ≥ 1, `replicas` ≥ 1, `clients` ≥ 1, `queries` ≥ 1,
//!   `rows_returned`, a finite `fanout_avg` ≥ 1, a finite
//!   `throughput_rps` ≥ 0, and an ordered `latency_s`. The sweep as a whole
//!   must satisfy [`check_fig5`]: at least two rows on strictly increasing
//!   shard counts starting at 1, every row returning the same
//!   `rows_returned` as the baseline (a sharded answer that lost rows is
//!   not a faster answer), and the largest shard count delivering ≥ 1.6x
//!   the single-shard throughput — the measured scale-out claim behind the
//!   §7.3 "partition the DM" remedy. Reports whose `summary.smoke` is true
//!   (tiny sweeps, timing-noise dominated) get a softer ≥ 1.2x bar.
//! * **pl** — `rows`: non-empty rows with `mode` (`coalesce_on`/
//!   `coalesce_off`), `threads` ≥ 1, `rounds` ≥ 1, `requests` ≥ 1,
//!   `computes` ≥ 1, finite `wall_ms` and `effective_rps` ≥ 0; both modes
//!   present. `summary`: `computes_on` < `computes_off` (coalescing really
//!   eliminated executions) and `throughput_ratio` ≥ 5 — the redundant-work
//!   claim enforced by [`check_pl`]: under a zipf-skewed duplicate-heavy
//!   load, single-flight coalescing plus the versioned result store must
//!   deliver at least 5x the effective throughput of the
//!   execute-every-submit configuration.
//!
//! Unknown `BENCH_*` names are an error: a bench that invents a report must
//! register its schema here, which is the point.

use std::fmt::Write as _;
use std::path::Path;

/// Bench names this validator knows how to check.
pub const KNOWN: [&str; 8] = [
    "fig4_browse_clients",
    "fig5_browse_nodes",
    "fig5_shards",
    "batch_bench",
    "ingest",
    "table1_processing",
    "store",
    "pl",
];

type Errors = Vec<String>;

fn fin(v: &serde_json::Value, key: &str, ctx: &str, errs: &mut Errors) -> Option<f64> {
    match v.get(key).and_then(|x| x.as_f64()) {
        Some(n) if n.is_finite() => Some(n),
        Some(_) => {
            errs.push(format!("{ctx}: `{key}` is not finite"));
            None
        }
        None => {
            errs.push(format!("{ctx}: missing numeric `{key}`"));
            None
        }
    }
}

fn uint(v: &serde_json::Value, key: &str, ctx: &str, errs: &mut Errors) -> Option<u64> {
    match v.get(key).and_then(|x| x.as_u64()) {
        Some(n) => Some(n),
        None => {
            errs.push(format!("{ctx}: missing unsigned `{key}`"));
            None
        }
    }
}

fn text<'a>(v: &'a serde_json::Value, key: &str, ctx: &str, errs: &mut Errors) -> Option<&'a str> {
    match v.get(key).and_then(|x| x.as_str()) {
        Some(s) => Some(s),
        None => {
            errs.push(format!("{ctx}: missing string `{key}`"));
            None
        }
    }
}

fn section<'a>(
    v: &'a serde_json::Value,
    key: &str,
    ctx: &str,
    errs: &mut Errors,
) -> Option<&'a Vec<serde_json::Value>> {
    match v.get(key).and_then(|x| x.as_array()) {
        Some(rows) if !rows.is_empty() => Some(rows),
        Some(_) => {
            errs.push(format!("{ctx}: `{key}` must be non-empty"));
            None
        }
        None => {
            errs.push(format!("{ctx}: missing array `{key}`"));
            None
        }
    }
}

/// `latency_s`: finite avg/p50/p95/p99 with ordered percentiles.
fn check_latency(row: &serde_json::Value, ctx: &str, errs: &mut Errors) {
    let Some(lat) = row.get("latency_s").filter(|l| l.is_object()) else {
        errs.push(format!("{ctx}: missing `latency_s` object"));
        return;
    };
    let ctx = format!("{ctx}.latency_s");
    fin(lat, "avg", &ctx, errs);
    let p50 = fin(lat, "p50", &ctx, errs);
    let p95 = fin(lat, "p95", &ctx, errs);
    let p99 = fin(lat, "p99", &ctx, errs);
    if let (Some(p50), Some(p95), Some(p99)) = (p50, p95, p99) {
        if !(p50 <= p95 && p95 <= p99) {
            errs.push(format!(
                "{ctx}: percentiles out of order (p50={p50}, p95={p95}, p99={p99})"
            ));
        }
    }
}

/// The attribution-row extras: counts, coverage near 1, and a breakdown
/// that sums back to the attributed total.
fn check_attribution_row(row: &serde_json::Value, ctx: &str, errs: &mut Errors) {
    uint(row, "sampled_traces", ctx, errs);
    uint(row, "measured_root_us", ctx, errs);
    let attributed = uint(row, "attributed_us", ctx, errs);
    if let Some(cov) = fin(row, "coverage", ctx, errs) {
        if !(0.9..=1.1).contains(&cov) {
            errs.push(format!(
                "{ctx}: coverage {cov} outside 0.9..=1.1 — breakdown does not \
                 sum to the measured root latency"
            ));
        }
    }
    let Some(bd) = row.get("breakdown_us").filter(|b| b.is_object()) else {
        errs.push(format!("{ctx}: missing `breakdown_us` object"));
        return;
    };
    let bctx = format!("{ctx}.breakdown_us");
    let mut sum = 0u64;
    for cat in ["queue", "pool", "wire", "execute"] {
        sum += uint(bd, cat, &bctx, errs).unwrap_or(0);
    }
    if let Some(attributed) = attributed {
        if sum != attributed {
            errs.push(format!(
                "{bctx}: categories sum to {sum}, `attributed_us` says {attributed}"
            ));
        }
    }
}

fn check_browse_rows(report: &serde_json::Value, name: &str, errs: &mut Errors) {
    let modes: &[&str] = if name == "fig4_browse_clients" {
        &["standard", "batched", "attribution", "net"]
    } else {
        &["sim", "net", "cache"]
    };
    let Some(rows) = section(report, "rows", name, errs) else {
        return;
    };
    for (i, row) in rows.iter().enumerate() {
        let ctx = format!("{name}.rows[{i}]");
        let Some(mode) = text(row, "mode", &ctx, errs) else {
            continue;
        };
        if !modes.contains(&mode) {
            errs.push(format!("{ctx}: unknown mode {mode:?} (expected {modes:?})"));
            continue;
        }
        if mode == "cache" {
            text(row, "phase", &ctx, errs);
            fin(row, "avg_us_per_query", &ctx, errs);
            continue;
        }
        if let Some(c) = uint(row, "clients", &ctx, errs) {
            if c == 0 {
                errs.push(format!("{ctx}: zero clients"));
            }
        }
        if let Some(t) = fin(row, "throughput_rps", &ctx, errs) {
            if t < 0.0 {
                errs.push(format!("{ctx}: negative throughput"));
            }
        }
        check_latency(row, &ctx, errs);
        if mode == "attribution" {
            check_attribution_row(row, &ctx, errs);
        }
        if name == "fig4_browse_clients" && mode == "net" {
            uint(row, "requests", &ctx, errs);
            uint(row, "sheds", &ctx, errs);
            if let Some(rate) = fin(row, "shed_rate", &ctx, errs) {
                if !(0.0..=1.0).contains(&rate) {
                    errs.push(format!("{ctx}: shed_rate {rate} outside 0..=1"));
                }
            }
        }
    }
    if name == "fig4_browse_clients" {
        check_fig4(report, errs);
    }
}

/// The net-tier scaling gate — the measured refutation of Figure 4's
/// collapse, enforced at the report boundary.
///
/// The paper's middle tier peaks at 16 req/s around 16 clients and degrades
/// to ≈3 req/s at 96 because excess load queues instead of being refused
/// (§7.3). The admission-controlled server must do the opposite: as offered
/// load grows past capacity, throughput holds and the surplus is *shed*.
/// Over the report's `mode == "net"` rows this requires:
///
/// * at least two rows, on strictly increasing `clients` counts;
/// * `throughput_rps` never dropping below 65% of the best preceding
///   point — flat-or-rising within noise, never collapsing;
/// * `latency_s.p99` ≤ 3 s at every point — accepted requests stay fast
///   even at 512 clients;
/// * `shed_rate` ≤ 0.5 — shedding is a safety valve, not the common case.
pub fn check_fig4(report: &serde_json::Value, errs: &mut Errors) {
    let net_rows: Vec<&serde_json::Value> = report
        .get("rows")
        .and_then(|r| r.as_array())
        .map(|rows| {
            rows.iter()
                .filter(|r| r.get("mode").and_then(|m| m.as_str()) == Some("net"))
                .collect()
        })
        .unwrap_or_default();
    if net_rows.len() < 2 {
        errs.push(format!(
            "fig4_browse_clients: {} net row(s) — the clients sweep needs at \
             least two points to witness the scaling claim",
            net_rows.len()
        ));
        return;
    }
    let mut prev_clients = 0u64;
    let mut best_rps = 0.0f64;
    for (i, row) in net_rows.iter().enumerate() {
        let ctx = format!("fig4_browse_clients.net[{i}]");
        if let Some(clients) = row.get("clients").and_then(|c| c.as_u64()) {
            if clients <= prev_clients {
                errs.push(format!(
                    "{ctx}: clients {clients} not strictly increasing (previous {prev_clients})"
                ));
            }
            prev_clients = clients;
        }
        if let Some(rps) = row.get("throughput_rps").and_then(|t| t.as_f64()) {
            if rps < 0.65 * best_rps {
                errs.push(format!(
                    "{ctx}: throughput {rps:.1} req/s collapsed below 65% of the \
                     best preceding point ({best_rps:.1}) — the Figure-4 cliff \
                     the admission control exists to prevent"
                ));
            }
            best_rps = best_rps.max(rps);
        }
        if let Some(p99) = row
            .get("latency_s")
            .and_then(|l| l.get("p99"))
            .and_then(|p| p.as_f64())
        {
            if p99 > 3.0 {
                errs.push(format!(
                    "{ctx}: p99 {p99:.2}s exceeds 3s — accepted requests must \
                     stay fast; excess load should have been shed"
                ));
            }
        }
        if let Some(rate) = row.get("shed_rate").and_then(|r| r.as_f64()) {
            if rate > 0.5 {
                errs.push(format!(
                    "{ctx}: shed_rate {rate:.2} exceeds 0.5 — refusing most of \
                     the offered load is an outage, not admission control"
                ));
            }
        }
    }
}

/// The scale-out gate — the measured claim that partitioning the DM buys
/// throughput, enforced at the report boundary.
///
/// The paper's Figure 5 scales the middle tier until the single shared
/// database saturates at ≈126 queries/s; its §7.3 remedy is to partition
/// the DM itself. The `fig5_shards` sweep measures that remedy: the same
/// dataset and seeded browse stream through the identical scatter-gather
/// path at rising shard counts. Over the report's rows this requires:
///
/// * at least two rows, on strictly increasing `shards` counts, the first
///   being the 1-shard baseline;
/// * every row's `rows_returned` equal to the baseline's — the speedup is
///   only meaningful on identical answers;
/// * per-row sanity: `mode == "shards"`, `replicas`/`queries` ≥ 1, a
///   finite `fanout_avg` ≥ 1;
/// * the largest shard count delivering `throughput_rps` ≥ 1.6x the
///   baseline — partition pruning must actually pay, not just not hurt.
pub fn check_fig5(report: &serde_json::Value, errs: &mut Errors) {
    let Some(rows) = section(report, "rows", "fig5_shards", errs) else {
        return;
    };
    let mut prev_shards = 0u64;
    let mut base: Option<(f64, u64)> = None;
    let mut last_rps: Option<f64> = None;
    for (i, row) in rows.iter().enumerate() {
        let ctx = format!("fig5_shards.rows[{i}]");
        if let Some(mode) = text(row, "mode", &ctx, errs) {
            if mode != "shards" {
                errs.push(format!(
                    "{ctx}: unknown mode {mode:?} (expected \"shards\")"
                ));
            }
        }
        let shards = uint(row, "shards", &ctx, errs);
        if let Some(s) = shards {
            if s <= prev_shards {
                errs.push(format!(
                    "{ctx}: shards {s} not strictly increasing (previous {prev_shards})"
                ));
            }
            prev_shards = s;
        }
        for key in ["replicas", "queries"] {
            if uint(row, key, &ctx, errs) == Some(0) {
                errs.push(format!("{ctx}: zero `{key}`"));
            }
        }
        if let Some(f) = fin(row, "fanout_avg", &ctx, errs) {
            if f < 1.0 {
                errs.push(format!("{ctx}: fanout_avg {f} below 1"));
            }
        }
        let rps = fin(row, "throughput_rps", &ctx, errs);
        if let Some(t) = rps {
            if t < 0.0 {
                errs.push(format!("{ctx}: negative throughput"));
            }
        }
        check_latency(row, &ctx, errs);
        let returned = uint(row, "rows_returned", &ctx, errs);
        match (&base, shards, rps, returned) {
            (None, Some(1), Some(rps), Some(ret)) => base = Some((rps, ret)),
            (None, Some(s), _, _) if s != 1 => {
                errs.push(format!(
                    "{ctx}: first row has {s} shards — the sweep must start at \
                     the 1-shard baseline"
                ));
            }
            (Some((_, base_ret)), _, _, Some(ret)) if ret != *base_ret => {
                errs.push(format!(
                    "{ctx}: returned {ret} rows, baseline returned {base_ret} — \
                     a sharded answer that lost rows is not a faster answer"
                ));
            }
            _ => {}
        }
        last_rps = rps.or(last_rps);
    }
    if rows.len() < 2 {
        errs.push(format!(
            "fig5_shards: {} row(s) — the sweep needs at least two shard counts \
             to witness the scale-out claim",
            rows.len()
        ));
        return;
    }
    // Smoke sweeps run a dataset small enough that single-core timing
    // noise swings the ratio by tenths; they are gated at a softer bar
    // that still rules out "sharding bought nothing". The committed
    // full-size report carries the real >= 1.6x scale-out claim.
    let smoke = report
        .get("summary")
        .and_then(|s| s.get("smoke"))
        .and_then(|v| v.as_bool())
        .unwrap_or(false);
    let floor = if smoke { 1.2 } else { 1.6 };
    if let (Some((base_rps, _)), Some(last)) = (base, last_rps) {
        let ratio = last / base_rps;
        if ratio < floor {
            errs.push(format!(
                "fig5_shards: {prev_shards} shards deliver only {ratio:.2}x the \
                 1-shard throughput — partition pruning must buy at least \
                 {floor}x on the browse stream{}",
                if smoke { " (smoke bar)" } else { "" }
            ));
        }
    }
}

fn check_batch_bench(report: &serde_json::Value, errs: &mut Errors) {
    if let Some(rows) = section(report, "resolve", "batch_bench", errs) {
        for (i, row) in rows.iter().enumerate() {
            let ctx = format!("batch_bench.resolve[{i}]");
            if let Some(mode) = text(row, "mode", &ctx, errs) {
                if !["local", "net"].contains(&mode) {
                    errs.push(format!("{ctx}: unknown mode {mode:?}"));
                }
            }
            for key in ["batch_size", "reps"] {
                if uint(row, key, &ctx, errs) == Some(0) {
                    errs.push(format!("{ctx}: zero `{key}`"));
                }
            }
            for key in ["sequential_avg_us", "batched_avg_us", "speedup"] {
                fin(row, key, &ctx, errs);
            }
        }
    }
    match report.get("topk").filter(|t| t.is_object()) {
        Some(topk) => {
            for key in ["full_sort_us", "topk_us", "speedup"] {
                fin(topk, key, "batch_bench.topk", errs);
            }
        }
        None => errs.push("batch_bench: missing `topk` object".to_string()),
    }
}

fn check_ingest(report: &serde_json::Value, errs: &mut Errors) {
    match report.get("workload").filter(|w| w.is_object()) {
        Some(w) => {
            uint(w, "units", "ingest.workload", errs);
            uint(w, "photons", "ingest.workload", errs);
        }
        None => errs.push("ingest: missing `workload` object".to_string()),
    }
    if let Some(rows) = section(report, "scale", "ingest", errs) {
        for (i, row) in rows.iter().enumerate() {
            let ctx = format!("ingest.scale[{i}]");
            if uint(row, "workers", &ctx, errs) == Some(0) {
                errs.push(format!("{ctx}: zero workers"));
            }
            for key in ["secs", "units_per_s", "speedup"] {
                fin(row, key, &ctx, errs);
            }
        }
    }
    if let Some(rows) = section(report, "wal", "ingest", errs) {
        for (i, row) in rows.iter().enumerate() {
            let ctx = format!("ingest.wal[{i}]");
            if uint(row, "group_commit", &ctx, errs) == Some(0) {
                errs.push(format!("{ctx}: zero group_commit"));
            }
            fin(row, "units_per_s", &ctx, errs);
        }
    }
    match report.get("crash_cycle").filter(|c| c.is_object()) {
        Some(cycle) => {
            let ctx = "ingest.crash_cycle";
            let units = uint(cycle, "units", ctx, errs);
            fin(cycle, "recovery_secs", ctx, errs);
            fin(cycle, "resume_secs", ctx, errs);
            let parts: Option<u64> = ["skipped", "resumed", "ingested"]
                .iter()
                .map(|k| uint(cycle, k, ctx, errs))
                .sum();
            if let (Some(units), Some(parts)) = (units, parts) {
                if parts != units {
                    errs.push(format!(
                        "{ctx}: skipped+resumed+ingested = {parts} but units = {units} — \
                         a unit went unaccounted"
                    ));
                }
            }
        }
        None => errs.push("ingest: missing `crash_cycle` object".to_string()),
    }
    // Optional attribution section (the `--attribution` run).
    if let Some(attr) = report.get("attribution").filter(|a| a.is_object()) {
        check_attribution_row(attr, "ingest.attribution", errs);
    }
}

fn check_table1(report: &serde_json::Value, errs: &mut Errors) {
    let Some(rows) = section(report, "rows", "table1_processing", errs) else {
        return;
    };
    for (i, row) in rows.iter().enumerate() {
        let ctx = format!("table1_processing.rows[{i}]");
        text(row, "workload", &ctx, errs);
        text(row, "config", &ctx, errs);
        fin(row, "throughput_rps", &ctx, errs);
        check_latency(row, &ctx, errs);
    }
}

fn check_store(report: &serde_json::Value, errs: &mut Errors) {
    if let Some(rows) = section(report, "contention", "store", errs) {
        for (i, row) in rows.iter().enumerate() {
            let ctx = format!("store.contention[{i}]");
            if let Some(backend) = text(row, "backend", &ctx, errs) {
                if !["memory", "paged"].contains(&backend) {
                    errs.push(format!("{ctx}: unknown backend {backend:?}"));
                }
            }
            if let Some(phase) = text(row, "phase", &ctx, errs) {
                if !["idle", "under_ingest"].contains(&phase) {
                    errs.push(format!("{ctx}: unknown phase {phase:?}"));
                }
            }
            if uint(row, "queries", &ctx, errs) == Some(0) {
                errs.push(format!("{ctx}: zero queries"));
            }
            fin(row, "throughput_rps", &ctx, errs);
            check_latency(row, &ctx, errs);
        }
    }
    match report.get("contention_summary").filter(|s| s.is_object()) {
        Some(summary) => {
            let ctx = "store.contention_summary";
            fin(summary, "memory_p99_ratio", ctx, errs);
            if let Some(r) = fin(summary, "paged_p99_ratio", ctx, errs) {
                if r <= 0.0 {
                    errs.push(format!("{ctx}: non-positive paged_p99_ratio {r}"));
                } else if r > 2.0 {
                    errs.push(format!(
                        "{ctx}: paged_p99_ratio {r:.2} exceeds 2.0 — browse p99 under \
                         ingest must stay within 2x of idle on the paged backend"
                    ));
                }
            }
        }
        None => errs.push("store: missing `contention_summary` object".to_string()),
    }
    match report.get("larger_than_cache").filter(|l| l.is_object()) {
        Some(ltc) => {
            let ctx = "store.larger_than_cache";
            let rows = uint(ltc, "rows", ctx, errs);
            let scanned = uint(ltc, "scan_rows", ctx, errs);
            if let (Some(rows), Some(scanned)) = (rows, scanned) {
                if rows != scanned {
                    errs.push(format!(
                        "{ctx}: scan returned {scanned} of {rows} rows — a row went missing"
                    ));
                }
            }
            let cache = uint(ltc, "cache_pages", ctx, errs);
            let evictions = uint(ltc, "evictions", ctx, errs);
            if let (Some(cache), Some(evictions)) = (cache, evictions) {
                if evictions <= cache {
                    errs.push(format!(
                        "{ctx}: only {evictions} evictions against a {cache}-page cache — \
                         the table cannot have exceeded the cache budget"
                    ));
                }
            }
            fin(ltc, "scan_secs", ctx, errs);
            if ltc.get("scan_verified").and_then(|v| v.as_bool()) != Some(true) {
                errs.push(format!("{ctx}: `scan_verified` must be true"));
            }
        }
        None => errs.push("store: missing `larger_than_cache` object".to_string()),
    }
}

/// The redundant-work gate — the measured claim that eliminating duplicate
/// analyses is worth an order of magnitude, enforced at the report boundary.
///
/// The workload is zipf-skewed: a few hot (fingerprint, user) keys dominate,
/// as repeat "show me the flare again" requests do in practice (§3.5 "avoid
/// redundant computation"). With coalescing and the versioned result store
/// off, every submit executes; with them on, duplicates attach to the
/// in-flight leader or hit the store. Over the report this requires:
///
/// * rows for both `coalesce_on` and `coalesce_off` under the same
///   `threads`/`rounds` shape;
/// * `summary.computes_on` < `summary.computes_off` — executions were
///   actually eliminated, not just moved;
/// * `summary.throughput_ratio` ≥ 5 — effective requests-per-second with
///   elimination on is at least 5x the execute-everything baseline.
pub fn check_pl(report: &serde_json::Value, errs: &mut Errors) {
    let mut saw_on = false;
    let mut saw_off = false;
    if let Some(rows) = section(report, "rows", "pl", errs) {
        for (i, row) in rows.iter().enumerate() {
            let ctx = format!("pl.rows[{i}]");
            match text(row, "mode", &ctx, errs) {
                Some("coalesce_on") => saw_on = true,
                Some("coalesce_off") => saw_off = true,
                Some(mode) => {
                    errs.push(format!("{ctx}: unknown mode {mode:?}"));
                    continue;
                }
                None => continue,
            }
            for key in ["threads", "rounds", "requests", "computes"] {
                if uint(row, key, &ctx, errs) == Some(0) {
                    errs.push(format!("{ctx}: zero `{key}`"));
                }
            }
            fin(row, "wall_ms", &ctx, errs);
            if let Some(rps) = fin(row, "effective_rps", &ctx, errs) {
                if rps < 0.0 {
                    errs.push(format!("{ctx}: negative effective_rps"));
                }
            }
        }
        if !(saw_on && saw_off) {
            errs.push(
                "pl: need rows for both coalesce_on and coalesce_off — the ratio \
                 is meaningless without its baseline"
                    .to_string(),
            );
        }
    }
    match report.get("summary").filter(|s| s.is_object()) {
        Some(summary) => {
            let ctx = "pl.summary";
            let on = uint(summary, "computes_on", ctx, errs);
            let off = uint(summary, "computes_off", ctx, errs);
            if let (Some(on), Some(off)) = (on, off) {
                if on >= off {
                    errs.push(format!(
                        "{ctx}: computes_on {on} not below computes_off {off} — \
                         no redundant executions were eliminated"
                    ));
                }
            }
            if let Some(ratio) = fin(summary, "throughput_ratio", ctx, errs) {
                if ratio < 5.0 {
                    errs.push(format!(
                        "{ctx}: throughput_ratio {ratio:.2} below 5 — single-flight \
                         plus the versioned store must beat execute-every-submit by \
                         at least 5x on a duplicate-heavy load"
                    ));
                }
            }
        }
        None => errs.push("pl: missing `summary` object".to_string()),
    }
}

/// Validate one parsed report against its bench name.
pub fn validate_report(name: &str, report: &serde_json::Value) -> Result<(), Errors> {
    let mut errs = Errors::new();
    if !report.is_object() {
        return Err(vec![format!("{name}: report is not a JSON object")]);
    }
    match report.get("bench").and_then(|b| b.as_str()) {
        Some(tag) if tag == name => {}
        Some(tag) => errs.push(format!("{name}: `bench` tag says {tag:?}")),
        None => errs.push(format!("{name}: missing `bench` tag")),
    }
    match name {
        "fig4_browse_clients" | "fig5_browse_nodes" => check_browse_rows(report, name, &mut errs),
        "fig5_shards" => check_fig5(report, &mut errs),
        "batch_bench" => check_batch_bench(report, &mut errs),
        "ingest" => check_ingest(report, &mut errs),
        "table1_processing" => check_table1(report, &mut errs),
        "store" => check_store(report, &mut errs),
        "pl" => check_pl(report, &mut errs),
        other => errs.push(format!(
            "unknown bench {other:?} — register its schema in hedc_bench::schema"
        )),
    }
    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

/// Validate one `BENCH_<name>.json` file; the name comes from the filename.
pub fn validate_file(path: &Path) -> Result<String, Errors> {
    let stem = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or_default();
    let Some(name) = stem.strip_prefix("BENCH_") else {
        return Err(vec![format!(
            "{}: not a BENCH_*.json report",
            path.display()
        )]);
    };
    let raw = std::fs::read_to_string(path)
        .map_err(|e| vec![format!("{}: unreadable: {e}", path.display())])?;
    let report: serde_json::Value = serde_json::from_str(&raw)
        .map_err(|e| vec![format!("{}: bad JSON: {e}", path.display())])?;
    validate_report(name, &report).map(|()| name.to_string())
}

/// Validate every `BENCH_*.json` under `dir`; `required` names must all be
/// present. Returns a human-readable summary or the full error list.
pub fn validate_dir(dir: &Path, required: &[&str]) -> Result<String, Errors> {
    let mut errs = Errors::new();
    let mut seen: Vec<String> = Vec::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| vec![format!("{}: unreadable: {e}", dir.display())])?;
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    paths.sort();
    for path in &paths {
        match validate_file(path) {
            Ok(name) => seen.push(name),
            Err(mut e) => errs.append(&mut e),
        }
    }
    for req in required {
        if !seen.iter().any(|s| s == req) {
            errs.push(format!(
                "{}: required report BENCH_{req}.json is missing",
                dir.display()
            ));
        }
    }
    if !errs.is_empty() {
        return Err(errs);
    }
    let mut summary = format!("{} report(s) valid:", seen.len());
    for name in &seen {
        let _ = write!(summary, " {name}");
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig4_row(mode: &str) -> serde_json::Value {
        serde_json::json!({
            "mode": mode,
            "clients": 16,
            "throughput_rps": 12.5,
            "latency_s": { "avg": 0.9, "p50": 0.8, "p95": 1.2, "p99": 1.6 },
        })
    }

    fn fig4_net_row(clients: u64, rps: f64, p99: f64, shed_rate: f64) -> serde_json::Value {
        serde_json::json!({
            "mode": "net",
            "clients": clients,
            "requests": (rps * 2.0) as u64,
            "throughput_rps": rps,
            "sheds": 10,
            "shed_rate": shed_rate,
            "latency_s": { "avg": p99 / 4.0, "p50": p99 / 8.0, "p95": p99 / 2.0, "p99": p99 },
        })
    }

    /// A fig4 report whose net sweep satisfies `check_fig4`.
    fn fig4_report(extra_rows: Vec<serde_json::Value>) -> serde_json::Value {
        let mut rows = vec![
            fig4_net_row(16, 1400.0, 0.030, 0.0),
            fig4_net_row(64, 2700.0, 0.150, 0.01),
            fig4_net_row(256, 2900.0, 0.500, 0.05),
        ];
        rows.extend(extra_rows);
        serde_json::json!({ "bench": "fig4_browse_clients", "rows": rows })
    }

    #[test]
    fn committed_reports_validate() {
        // The repo's own committed results must satisfy their schema.
        let dir = crate::results_dir();
        for name in [
            "fig4_browse_clients",
            "fig5_shards",
            "batch_bench",
            "ingest",
            "store",
            "pl",
        ] {
            let path = dir.join(format!("BENCH_{name}.json"));
            if path.exists() {
                validate_file(&path).unwrap_or_else(|e| panic!("{name}: {e:?}"));
            }
        }
    }

    #[test]
    fn fig4_rows_validate_and_misordered_percentiles_fail() {
        let ok = fig4_report(vec![fig4_row("standard")]);
        validate_report("fig4_browse_clients", &ok).unwrap();

        let mut bad = ok.clone();
        bad["rows"][3]["latency_s"]["p95"] = serde_json::json!(9.0);
        let errs = validate_report("fig4_browse_clients", &bad).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("percentiles out of order")));
    }

    #[test]
    fn fig4_net_gate_catches_collapse_sheds_and_tails() {
        validate_report("fig4_browse_clients", &fig4_report(vec![])).unwrap();

        // Fewer than two net points cannot witness the scaling claim.
        let report =
            serde_json::json!({ "bench": "fig4_browse_clients", "rows": [fig4_row("standard")] });
        let errs = validate_report("fig4_browse_clients", &report).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("at least two points")),
            "{errs:?}"
        );

        // The Figure-4 cliff: throughput collapsing at high client counts.
        let report = fig4_report(vec![fig4_net_row(512, 700.0, 0.5, 0.05)]);
        let errs = validate_report("fig4_browse_clients", &report).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("collapsed below 65%")),
            "{errs:?}"
        );

        // Client counts must strictly increase.
        let report = fig4_report(vec![fig4_net_row(256, 2900.0, 0.5, 0.05)]);
        let errs = validate_report("fig4_browse_clients", &report).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("strictly increasing")),
            "{errs:?}"
        );

        // Accepted requests queueing into multi-second tails.
        let report = fig4_report(vec![fig4_net_row(512, 2900.0, 4.5, 0.05)]);
        let errs = validate_report("fig4_browse_clients", &report).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("exceeds 3s")), "{errs:?}");

        // Shedding most of the offered load is an outage.
        let report = fig4_report(vec![fig4_net_row(512, 2900.0, 0.5, 0.8)]);
        let errs = validate_report("fig4_browse_clients", &report).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("outage")), "{errs:?}");
    }

    #[test]
    fn attribution_rows_must_sum() {
        let mut row = fig4_row("attribution");
        row["sampled_traces"] = serde_json::json!(40);
        row["measured_root_us"] = serde_json::json!(1000);
        row["attributed_us"] = serde_json::json!(1000);
        row["coverage"] = serde_json::json!(1.0);
        row["breakdown_us"] =
            serde_json::json!({ "queue": 400, "pool": 100, "wire": 300, "execute": 200 });
        let report = fig4_report(vec![row]);
        validate_report("fig4_browse_clients", &report).unwrap();

        let mut bad = report.clone();
        bad["rows"][3]["breakdown_us"]["queue"] = serde_json::json!(1);
        let errs = validate_report("fig4_browse_clients", &bad).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("categories sum")),
            "{errs:?}"
        );

        let mut bad = report;
        bad["rows"][3]["coverage"] = serde_json::json!(0.5);
        let errs = validate_report("fig4_browse_clients", &bad).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("coverage")), "{errs:?}");
    }

    #[test]
    fn unknown_bench_and_wrong_tag_fail() {
        let v = serde_json::json!({ "bench": "mystery" });
        assert!(validate_report("mystery", &v).is_err());
        let v = serde_json::json!({ "bench": "ingest", "rows": [] });
        let errs = validate_report("fig4_browse_clients", &v).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("`bench` tag")));
    }

    #[test]
    fn ingest_unaccounted_units_fail() {
        let report = serde_json::json!({
            "bench": "ingest",
            "workload": { "units": 6, "photons": 100, "smoke": true },
            "scale": [{ "workers": 1, "secs": 1.0, "units_per_s": 6.0, "speedup": 1.0 }],
            "wal": [{ "group_commit": 1, "secs": 1.0, "units_per_s": 6.0 }],
            "crash_cycle": {
                "units": 6, "crash_unit": 3, "recovery_secs": 0.1, "resume_secs": 0.2,
                "skipped": 3, "resumed": 1, "ingested": 1,
            },
        });
        let errs = validate_report("ingest", &report).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("unaccounted")), "{errs:?}");
    }

    fn store_report() -> serde_json::Value {
        let phase = |backend: &str, phase: &str| {
            serde_json::json!({
                "backend": backend,
                "phase": phase,
                "queries": 400,
                "throughput_rps": 5000.0,
                "latency_s": { "avg": 0.0002, "p50": 0.0001, "p95": 0.0004, "p99": 0.0008 },
            })
        };
        serde_json::json!({
            "bench": "store",
            "contention": [
                phase("memory", "idle"), phase("memory", "under_ingest"),
                phase("paged", "idle"), phase("paged", "under_ingest"),
            ],
            "contention_summary": { "memory_p99_ratio": 6.0, "paged_p99_ratio": 1.2 },
            "larger_than_cache": {
                "rows": 60_000, "page_size": 4096, "cache_pages": 64,
                "scan_rows": 60_000, "scan_secs": 0.5, "evictions": 9_000,
                "cache_misses": 9_100, "scan_verified": true,
            },
        })
    }

    #[test]
    fn store_report_validates_and_gates_the_p99_ratio() {
        validate_report("store", &store_report()).unwrap();

        // The tentpole claim is enforced: paged p99 under ingest > 2x idle
        // fails validation.
        let mut bad = store_report();
        bad["contention_summary"]["paged_p99_ratio"] = serde_json::json!(3.5);
        let errs = validate_report("store", &bad).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("within 2x")), "{errs:?}");

        // A lossy scan fails.
        let mut bad = store_report();
        bad["larger_than_cache"]["scan_rows"] = serde_json::json!(59_999);
        let errs = validate_report("store", &bad).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("went missing")), "{errs:?}");

        // A cache the table fit inside fails.
        let mut bad = store_report();
        bad["larger_than_cache"]["evictions"] = serde_json::json!(10);
        let errs = validate_report("store", &bad).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("cache budget")), "{errs:?}");
    }

    fn pl_report() -> serde_json::Value {
        let row = |mode: &str, computes: u64, wall_ms: f64, rps: f64| {
            serde_json::json!({
                "mode": mode,
                "threads": 32,
                "rounds": 8,
                "requests": 256,
                "computes": computes,
                "wall_ms": wall_ms,
                "effective_rps": rps,
            })
        };
        serde_json::json!({
            "bench": "pl",
            "rows": [
                row("coalesce_off", 256, 4000.0, 64.0),
                row("coalesce_on", 24, 480.0, 533.0),
            ],
            "summary": {
                "computes_on": 24,
                "computes_off": 256,
                "throughput_ratio": 8.3,
            },
        })
    }

    #[test]
    fn pl_report_validates_and_gates_the_ratio() {
        validate_report("pl", &pl_report()).unwrap();

        // The tentpole claim is enforced: a sub-5x ratio fails validation.
        let mut bad = pl_report();
        bad["summary"]["throughput_ratio"] = serde_json::json!(2.0);
        let errs = validate_report("pl", &bad).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("below 5")), "{errs:?}");

        // Coalescing that eliminated nothing fails.
        let mut bad = pl_report();
        bad["summary"]["computes_on"] = serde_json::json!(256);
        let errs = validate_report("pl", &bad).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("no redundant executions")),
            "{errs:?}"
        );

        // A baseline-less report cannot witness the ratio.
        let mut bad = pl_report();
        let on_only = bad["rows"][1].clone();
        bad["rows"] = serde_json::json!([on_only]);
        let errs = validate_report("pl", &bad).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("baseline")), "{errs:?}");
    }

    fn fig5_shards_row(shards: u64, rps: f64, returned: u64) -> serde_json::Value {
        serde_json::json!({
            "mode": "shards",
            "shards": shards,
            "replicas": 2,
            "clients": 1,
            "queries": 160,
            "rows_returned": returned,
            "fanout_avg": 1.0 + 0.4 / shards as f64,
            "throughput_rps": rps,
            "latency_s": { "avg": 0.004, "p50": 0.003, "p95": 0.009, "p99": 0.012 },
        })
    }

    fn fig5_shards_report(rows: Vec<serde_json::Value>) -> serde_json::Value {
        serde_json::json!({
            "bench": "fig5_shards",
            "rows": rows,
            "summary": { "dataset_rows": 24_000, "speedup_1_to_max": 2.5 },
        })
    }

    #[test]
    fn fig5_shards_gate_requires_a_real_speedup_on_identical_answers() {
        let ok = fig5_shards_report(vec![
            fig5_shards_row(1, 100.0, 50_000),
            fig5_shards_row(2, 170.0, 50_000),
            fig5_shards_row(4, 250.0, 50_000),
        ]);
        validate_report("fig5_shards", &ok).unwrap();

        // Scale-out that fails to pay fails the gate.
        let flat = fig5_shards_report(vec![
            fig5_shards_row(1, 100.0, 50_000),
            fig5_shards_row(4, 140.0, 50_000),
        ]);
        let errs = validate_report("fig5_shards", &flat).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("at least 1.6x")), "{errs:?}");

        // A smoke-flagged sweep is noise-tolerant (softer 1.2x bar) but
        // still cannot claim scaling that bought nothing.
        let mut smoke_ok = fig5_shards_report(vec![
            fig5_shards_row(1, 100.0, 50_000),
            fig5_shards_row(4, 140.0, 50_000),
        ]);
        smoke_ok["summary"]["smoke"] = serde_json::json!(true);
        validate_report("fig5_shards", &smoke_ok).unwrap();
        let mut smoke_flat = fig5_shards_report(vec![
            fig5_shards_row(1, 100.0, 50_000),
            fig5_shards_row(4, 110.0, 50_000),
        ]);
        smoke_flat["summary"]["smoke"] = serde_json::json!(true);
        let errs = validate_report("fig5_shards", &smoke_flat).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("smoke bar")), "{errs:?}");

        // A sweep that loses rows is measuring different answers.
        let lossy = fig5_shards_report(vec![
            fig5_shards_row(1, 100.0, 50_000),
            fig5_shards_row(4, 250.0, 49_999),
        ]);
        let errs = validate_report("fig5_shards", &lossy).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("lost rows")), "{errs:?}");

        // No baseline, no claim.
        let baseless = fig5_shards_report(vec![
            fig5_shards_row(2, 170.0, 50_000),
            fig5_shards_row(4, 250.0, 50_000),
        ]);
        let errs = validate_report("fig5_shards", &baseless).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("1-shard baseline")),
            "{errs:?}"
        );

        // One point cannot witness scaling; shard counts must rise.
        let single = fig5_shards_report(vec![fig5_shards_row(1, 100.0, 50_000)]);
        let errs = validate_report("fig5_shards", &single).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("at least two shard counts")),
            "{errs:?}"
        );
        let unordered = fig5_shards_report(vec![
            fig5_shards_row(1, 100.0, 50_000),
            fig5_shards_row(4, 250.0, 50_000),
            fig5_shards_row(2, 170.0, 50_000),
        ]);
        let errs = validate_report("fig5_shards", &unordered).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("strictly increasing")),
            "{errs:?}"
        );
    }

    #[test]
    fn missing_required_report_fails_dir_validation() {
        let dir = std::env::temp_dir().join(format!("hedc-schema-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("BENCH_fig4_browse_clients.json"),
            fig4_report(vec![fig4_row("standard")]).to_string(),
        )
        .unwrap();
        validate_dir(&dir, &["fig4_browse_clients"]).unwrap();
        let errs = validate_dir(&dir, &["fig4_browse_clients", "ingest"]).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("BENCH_ingest.json")),
            "{errs:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
