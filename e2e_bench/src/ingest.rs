//! `ingest_browse`: journaled telemetry ingest beside open-loop browse on
//! one WAL-backed paged node with the result cache on; afterwards the node
//! is dropped, reopened from the WAL alone, and every acknowledged unit is
//! read back.
//!
//! Writes beside reads on the same layers: the store's single writer vs
//! its MVCC readers, WAL commits, cache generation bumps invalidating hot
//! entries, the ingest journal, file-store writes, wavelet view builds and
//! event detection.

use crate::catalogue::{self, Manifest, DAY_MS};
use crate::counters::{ratio, record_node_rows, wire_violation, Counters};
use crate::gen::{self, median, Limit};
use crate::ladder::Target;
use crate::nodes::{self, disk_bytes, WalNode, WalPaths};
use crate::pages::{self, IdSource, PageOp, READER_MIX};
use crate::phases::{self, RunCtx, Trials, STREAM_OPEN, STREAM_TRACE, STREAM_WARMUP};
use crate::probes;
use crate::report::{peak_rss_mb, RunResult};
use crate::trace::{mean, Tracer, NO_PARENT};
use hedc_cache::CacheConfig;
use hedc_dm::{pipeline, DmResult, IngestOptions, Names};
use hedc_events::{generate, package, GenConfig, Telemetry, TelemetryUnit};
use hedc_metadb::{Expr, Query, WalOptions};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Bytes of one photon in the raw stream: time (u64), energy (f32),
/// detector (u8).
const PHOTON_BYTES: u64 = 13;
/// Where the telemetry timeline starts: past the catalogue's mission span,
/// so detected events never fall into a catalogue window.
const TELEMETRY_START_MS: u64 = 500 * DAY_MS;
/// Length of the generated base timeline; units past it are the base units
/// shifted forward by whole multiples of this.
const BASE_TIMELINE_MS: u64 = 30 * 60 * 1000;

/// The writer's input: a base set of packaged units, recycled with a time
/// shift so the stream never runs out and no two units share a path.
pub struct UnitStream {
    telemetry: Telemetry,
    base: Vec<TelemetryUnit>,
}

impl UnitStream {
    /// Generate the base timeline from the seed.
    pub fn new(seed: u64, photons_per_unit: usize) -> UnitStream {
        let telemetry = generate(&GenConfig {
            seed,
            start_ms: TELEMETRY_START_MS,
            duration_ms: BASE_TIMELINE_MS,
            flares_per_hour: 6.0,
            ..GenConfig::default()
        });
        let base = package(&telemetry, photons_per_unit, 1);
        UnitStream { telemetry, base }
    }

    /// Photons in unit `index`, without building it.
    pub fn photons_in(&self, index: usize) -> usize {
        self.base[index % self.base.len()].photons.times_ms.len()
    }

    /// Unit `index` of the stream.
    pub fn unit(&self, index: usize) -> TelemetryUnit {
        let mut unit = self.base[index % self.base.len()].clone();
        let shift = (index / self.base.len()) as u64 * BASE_TIMELINE_MS;
        unit.seq = index as u32;
        unit.start_ms += shift;
        unit.end_ms += shift;
        for t in &mut unit.photons.times_ms {
            *t += shift;
        }
        unit
    }
}

fn cache_config(ctx: &RunCtx) -> CacheConfig {
    CacheConfig {
        capacity_bytes: ctx.frozen.ingest_browse.result_cache_bytes,
        ..CacheConfig::default()
    }
}

/// Boot a fresh node (empty log, empty archives) and load the catalogue.
fn fresh_node(ctx: &RunCtx, paths: &WalPaths) -> DmResult<(WalNode, Manifest)> {
    let _ = std::fs::remove_file(&paths.wal);
    let _ = std::fs::remove_dir_all(&paths.archives);
    let node = nodes::wal_node(
        paths,
        WalOptions::default(),
        Some(cache_config(ctx)),
        ctx.frozen.ingest_browse.page_cache_pages,
    )?;
    let manifest = catalogue::build(
        &node.io,
        &node.session,
        &ctx.frozen.catalogue,
        ctx.seed,
        nodes::CATALOGUE_ARCHIVE,
    )?;
    Ok((node, manifest))
}

/// What the concurrent window measured.
struct Window {
    /// Why the writer stopped early, if it did.
    failures: Vec<String>,
    /// Units acknowledged, as closed-loop statistics of the writer.
    writer: gen::ClosedStats,
    open: gen::OpenStats,
}

/// The concurrent window: a writer thread ingesting units closed-loop
/// (journaled, serial, default options — one `pipeline::ingest` call per
/// unit, acknowledged when it returns) and a reader thread issuing the hot
/// page mix open-loop at the frozen rate, for `window`. Units are taken
/// from the start of the stream.
fn concurrent_window(
    ctx: &RunCtx,
    node: &WalNode,
    manifest: &Manifest,
    ids: &IdSource,
    stream: &UnitStream,
    window: Duration,
) -> Window {
    let due = gen::schedule(ctx.seed, ctx.frozen.ingest_browse.reader_rate_per_s, window);
    let stop = AtomicBool::new(false);
    let (acked, elapsed, failures, open) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let start = Instant::now();
            let (mut acked, mut failures) = (Vec::new(), Vec::new());
            while !stop.load(Ordering::Relaxed) && start.elapsed() < window {
                let unit = stream.unit(acked.len());
                match pipeline::ingest(
                    &node.io,
                    &node.session,
                    std::slice::from_ref(&unit),
                    &node.ingest,
                    &IngestOptions::default(),
                ) {
                    Ok(report) if report.failed == 0 && report.ingested == 1 => {
                        acked.push(start.elapsed().as_nanos() as u64);
                    }
                    Ok(report) => {
                        failures.push(format!("unit {} not ingested: {report:?}", unit.seq));
                        break;
                    }
                    Err(e) => {
                        failures.push(format!("unit {} failed: {e}", unit.seq));
                        break;
                    }
                }
            }
            (acked, start.elapsed(), failures)
        });
        let open = gen::open_loop(1, &due, window, &|_c, i| {
            let op = pages::draw(&READER_MIX, ids, manifest, ctx.seed, STREAM_OPEN, i);
            pages::dm_page(&node.io, &node.session, &op, manifest)
        });
        stop.store(true, Ordering::Relaxed);
        let (acked, elapsed, failures) = writer.join().expect("writer panicked");
        (acked, elapsed, failures, open)
    });
    Window {
        failures,
        writer: gen::ClosedStats {
            attempted: acked.len() as u64,
            elapsed,
            completions_ns: acked,
            ..gen::ClosedStats::default()
        },
        open,
    }
}

/// Drop the node, reopen it from the WAL alone (timed), and read back every
/// acknowledged unit: its `raw_unit` row must exist and its file must
/// resolve, fetch, parse and hold the photons that were sent.
fn recover_and_verify(
    ctx: &RunCtx,
    node: WalNode,
    paths: &WalPaths,
    stream: &UnitStream,
    acked: usize,
    result: &mut RunResult,
) -> DmResult<f64> {
    for db in node.io.databases() {
        db.wal_flush()?;
    }
    drop(node);
    let t = Instant::now();
    let node = nodes::wal_node(
        paths,
        WalOptions::default(),
        Some(cache_config(ctx)),
        ctx.frozen.ingest_browse.page_cache_pages,
    )?;
    let recovery_s = t.elapsed().as_secs_f64();
    let names = Names::new(&node.io);
    let mut missing = 0;
    for i in 0..acked {
        let unit = stream.unit(i);
        let row = node
            .io
            .query(&Query::table("raw_unit").filter(Expr::eq("t_start", unit.start_ms as i64)))?;
        let found = row.rows.iter().any(|r| {
            r[1].as_int() == Some(i64::from(unit.seq))
                && r[6]
                    .as_int()
                    .and_then(|item| names.fetch_data(item).ok())
                    .and_then(|bytes| hedc_filestore::FitsFile::from_bytes(&bytes).ok())
                    .and_then(|fits| TelemetryUnit::from_fits(&fits).ok())
                    .is_some_and(|back| back.photons.times_ms == unit.photons.times_ms)
        });
        missing += usize::from(!found);
    }
    result.count(acked as u64, missing as u64);
    if missing > 0 {
        result.violations.push(format!(
            "{missing} of {acked} acknowledged units did not survive the WAL-only reopen"
        ));
    }
    result.note("durability.units_reread", acked);
    Ok(recovery_s)
}

/// Run the workload.
pub fn run(ctx: &RunCtx) -> DmResult<RunResult> {
    let mut result = RunResult::default();
    let spec = &ctx.frozen.ingest_browse;
    let before = Counters::read(&[]);
    let stream = UnitStream::new(spec.telemetry_seed, spec.photons_per_unit);
    let paths = WalPaths::under(&ctx.scratch);
    result.note(
        "wal.options",
        format!("{:?} (the default)", WalOptions::default()),
    );
    let mut trials = Trials::default();
    let (mut recovery_s, mut space) = (Vec::new(), Vec::new());
    let rounds = if ctx.traced { 1 } else { ctx.frozen.trials };
    for _ in 0..rounds {
        let (node, manifest) = trials.setup(|| fresh_node(ctx, &paths))?;
        let ids = IdSource::hot(
            &manifest,
            ctx.frozen.catalogue.hot_set,
            spec.zipf_s,
            ctx.seed,
        );
        // Warm-up: the reader's pages, so the caches start the window full.
        let warm = gen::closed_loop(1, Limit::Count(ctx.frozen.warmup_ops), &|_c, i| {
            let op = pages::draw(&READER_MIX, &ids, &manifest, ctx.seed, STREAM_WARMUP, i);
            pages::dm_page(&node.io, &node.session, &op, &manifest)
        });
        if warm.failed > 0 {
            result
                .violations
                .push(format!("{} warm-up ops failed", warm.failed));
        }
        let stored_before = paths.disk_bytes();
        let acked = if ctx.traced {
            traced(ctx, &node, &manifest, &ids, &stream, &mut result)
        } else {
            let window = ctx.window(ctx.frozen.trials as f64);
            let mut w = concurrent_window(ctx, &node, &manifest, &ids, &stream, window);
            result.violations.append(&mut w.failures);
            // The whole window's rate, not its fastest block: units differ
            // in cost (a unit with a flare in it is detected, catalogued and
            // given a view), so a block's rate says which units it held.
            trials.closed(&w.writer, 1, &mut result);
            trials.open(&w.open, &mut result);
            w.writer.attempted as usize
        };

        // Space cost of what was ingested, then durability.
        let raw_bytes: u64 = (0..acked)
            .map(|i| stream.photons_in(i) as u64 * PHOTON_BYTES)
            .sum();
        let stored = paths.disk_bytes() - stored_before;
        space.push(ratio(stored as f64, raw_bytes as f64));
        result.note("bytes.stored_by_ingest", stored);
        result.note("bytes.raw_telemetry", raw_bytes);
        recovery_s.push(recover_and_verify(
            ctx,
            node,
            &paths,
            &stream,
            acked,
            &mut result,
        )?);
    }
    result.set("ingest.recovery_s", median(&recovery_s));
    result.set("ingest.bytes_stored_per_raw_byte", median(&space));
    result.note("recovery_s", recovery_s);
    result.note("bytes_stored_per_raw_byte", space);
    if !ctx.traced {
        trials.finish(&mut result);
        result.set("peak_rss_mb", peak_rss_mb());
    }
    result
        .violations
        .extend(wire_violation(&before, &Counters::read(&[])));
    Ok(result)
}

/// The per-layer pass. Returns how many units were acknowledged in total.
fn traced(
    ctx: &RunCtx,
    node: &WalNode,
    manifest: &Manifest,
    ids: &IdSource,
    stream: &UnitStream,
    result: &mut RunResult,
) -> usize {
    let spec = &ctx.frozen.ingest_browse;
    let ios = [&node.io];

    // Plain pass: a shorter concurrent window between counter readings.
    let c0 = Counters::read(&ios);
    let mut w = concurrent_window(ctx, node, manifest, ids, stream, ctx.window(3.0));
    result.violations.append(&mut w.failures);
    let c1 = Counters::read(&ios);
    let mut next_unit = w.writer.attempted as usize;
    phases::record_gen(result, &w.open);
    result.set("ingest.units_per_s", w.writer.ops_per_s());
    record_node_rows(result, &c0, &c1, w.open.sent);

    // Reader ladder, writer idle: the DM-level page is the top rung.
    let n = ctx.frozen.traced_ops / 2;
    let ops: Vec<PageOp> = (0..n)
        .map(|i| pages::draw(&READER_MIX, ids, manifest, ctx.seed, STREAM_TRACE, i))
        .collect();
    let target = Target {
        io: &node.io,
        session: &node.session,
        web: None,
        manifest,
    };
    // The window above left the caches invalidated; refill them so the plain
    // pass and the ladder start from the same state.
    for op in &ops {
        target.run_root(op);
    }
    let t = Instant::now();
    let failed = ops.iter().filter(|op| !target.run_root(op).0).count() as u64;
    let plain_us = t.elapsed().as_nanos() as f64 / 1e3 / n as f64;
    result.count(n, failed);
    let mut tracer = Tracer::default();
    let ladder = target.run(&ops, &mut tracer);
    ladder.record(result);
    result.set("trace.overhead_ratio", mean(&ladder.root_us) / plain_us);
    let guard: Vec<PageOp> = ops.iter().take(4).cloned().collect();
    if let Err(e) = target.drift_guard(&guard) {
        result.violations.push(e);
    }

    // Writer spans, reader idle: one `pipeline::ingest` per unit.
    let paths = WalPaths::under(&ctx.scratch);
    let wal_before = disk_bytes(&paths.wal);
    let mut unit_us = Vec::new();
    let spans = 6;
    for _ in 0..spans {
        let unit = stream.unit(next_unit);
        let (report, us) = tracer.span("dm.ingest.unit", NO_PARENT, next_unit as u32, || {
            pipeline::ingest(
                &node.io,
                &node.session,
                std::slice::from_ref(&unit),
                &node.ingest,
                &IngestOptions::default(),
            )
        });
        match report {
            Ok(r) if r.ingested == 1 => {
                next_unit += 1;
                unit_us.push(us);
            }
            other => result
                .violations
                .push(format!("traced ingest of unit {}: {other:?}", unit.seq)),
        }
    }
    result.set("dm.ingest.unit_us", mean(&unit_us));
    result.set(
        "metadb.wal_bytes_per_unit",
        (disk_bytes(&paths.wal) - wal_before) as f64 / unit_us.len().max(1) as f64,
    );
    // The per-stage histograms only fill in the staged executor.
    let staged: Vec<TelemetryUnit> = (0..spans).map(|i| stream.unit(next_unit + i)).collect();
    let s0 = Counters::read(&ios);
    match pipeline::ingest(
        &node.io,
        &node.session,
        &staged,
        &node.ingest,
        &IngestOptions::with_workers(2),
    ) {
        Ok(r) if r.ingested == staged.len() => next_unit += staged.len(),
        other => result.violations.push(format!("staged ingest: {other:?}")),
    }
    let s1 = Counters::read(&ios);
    for stage in ["package", "write", "meta", "events", "view"] {
        result.set(
            &format!("dm.ingest.stage_us.{stage}"),
            s1.hist_mean_us(&s0, &format!("ingest.stage.{stage}")),
        );
    }
    if let Err(e) = tracer.write(&ctx.out_dir.join("ingest_browse.trace.json")) {
        result.note("trace.write_error", e.to_string());
    }

    // Bench-owned probes at this workload's shape.
    let sample: Vec<TelemetryUnit> = (0..16).map(|i| stream.unit(i)).collect();
    if let Err(e) = probes::ingest_stages(
        &ctx.scratch,
        &stream.telemetry,
        &sample,
        spec.photons_per_unit,
        result,
    ) {
        result.violations.push(format!("ingest-stage probe: {e}"));
    }
    if let Err(e) = probes::metadb_writes(&ctx.scratch, result) {
        result.violations.push(format!("metadb write probe: {e}"));
    }
    let rows = probes::catalogue_rows(&ctx.frozen.catalogue);
    if let Err(e) = probes::store(&ctx.scratch, rows, spec.page_cache_pages, ctx.seed, result) {
        result.violations.push(format!("store probe: {e}"));
    }
    probes::cache(
        spec.result_cache_bytes,
        &node.io,
        &node.session,
        manifest,
        ctx.frozen.catalogue.hot_set,
        result,
    );
    next_unit
}
