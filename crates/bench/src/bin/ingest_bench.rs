//! The ingest pipeline, measured: staged parallelism, WAL group commit,
//! and the crash/resume cycle.
//!
//! Three sections:
//!
//! 1. **scale** — a simulated "downlink day" (§2.2: one telemetry dump per
//!    ≈96-minute orbit) packaged into distribution units and ingested on a
//!    fresh node per row: serial, then 2/4/8 workers per stage. Reports
//!    units/s and speedup over serial.
//! 2. **wal** — the same workload on a WAL-backed metadata database,
//!    group-commit window 1 (flush every commit) versus 16 (amortized),
//!    showing what the durability knob buys the load path.
//! 3. **crash-cycle** — a WAL + directory-archive node killed mid-ingest by
//!    an injected crash, reopened from the log, reseeded, and resumed.
//!    Verifies the resumed report accounts for every unit and measures the
//!    recovery + resume cost.
//!
//! The report lands in `results/BENCH_ingest.json`; `HEDC_BENCH_SMOKE=1`
//! shrinks the day to minutes of telemetry for the CI smoke gate.

use hedc_dm::testkit::Loader;
use hedc_dm::{
    pipeline, CrashPlan, CrashSite, IngestConfig, IngestOptions, JournalStep, UnitStatus,
};
use hedc_events::{generate, package, GenConfig, TelemetryUnit};
use hedc_metadb::WalOptions;
use hedc_sim::{downlink_day, DownlinkConfig};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Build one downlink day's distribution units. Each orbit segment maps onto
/// a telemetry generator config; unit sequence numbers are renumbered
/// globally so archive and view paths stay unique across orbits.
fn downlink_units(smoke: bool) -> Vec<TelemetryUnit> {
    let day = if smoke {
        DownlinkConfig {
            orbits: 2,
            orbit_ms: 5 * 60 * 1000,
            background_rate: 10.0,
            ..DownlinkConfig::default()
        }
    } else {
        DownlinkConfig::default()
    };
    let photons_per_unit = if smoke { 2_000 } else { 120_000 };
    let mut units = Vec::new();
    let mut seq = 0u32;
    for seg in downlink_day(&day) {
        let t = generate(&GenConfig {
            seed: seg.seed,
            start_ms: seg.start_ms,
            duration_ms: seg.duration_ms,
            background_rate: seg.background_rate,
            flares_per_hour: seg.flares_per_hour,
            grbs_per_day: 1.0,
            ..GenConfig::default()
        });
        for mut u in package(&t, photons_per_unit, 1) {
            u.seq = seq;
            seq += 1;
            units.push(u);
        }
    }
    units
}

/// Fresh in-memory node for one scale row.
fn memory_node() -> (Arc<hedc_dm::Dm>, IngestConfig) {
    let dm = hedc_dm::testkit::dm();
    let cfg = IngestConfig::new(1, 2, dm.extended_catalog);
    (dm, cfg)
}

/// A loader over a WAL-backed database and directory archives — the
/// pieces that survive a process death, so the node can be torn down and
/// reopened from the log.
fn wal_node(dir: &Path, options: WalOptions) -> Loader {
    Loader::wal(dir, options, Default::default())
}

struct ScaleRow {
    workers: usize,
    secs: f64,
    units_per_s: f64,
    speedup: f64,
}

fn attribution_mode_enabled() -> bool {
    std::env::args().any(|a| a == "--attribution")
        || std::env::var("HEDC_ATTRIBUTION").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// `--attribution`: one more staged pass on a fresh node with the flight
/// recorder cleared, then partition every retained `ingest.unit` trace into
/// queue / pool / wire / execute self time — where a unit's wall clock goes
/// once the stages run concurrently.
fn run_attribution(units: &[TelemetryUnit], workers: usize) -> serde_json::Value {
    let recorder = hedc_obs::recorder();
    recorder.drain_pinned();
    recorder.clear();
    recorder.set_pin_threshold_us(u64::MAX);
    let (dm, cfg) = memory_node();
    let session = dm.import_session();
    let report = pipeline::ingest(
        &dm.io,
        &session,
        units,
        &cfg,
        &IngestOptions::with_workers(workers),
    )
    .expect("attribution ingest");
    assert_eq!(report.failed, 0);
    let totals = hedc_bench::attribution::analyze_retained_roots("ingest.unit");
    println!(
        "attribution ({workers} workers/stage): {} of {} unit traces analyzed",
        totals.traces,
        units.len()
    );
    let attributed = totals.attributed_us.max(1);
    for (cat, us) in &totals.by_category_us {
        println!(
            "{:>10}: {:>12} us self time ({:>5.1}%)",
            cat,
            us,
            *us as f64 / attributed as f64 * 100.0
        );
    }
    println!(
        "coverage {:.3} (attributed / unit wall clock)",
        totals.coverage()
    );
    serde_json::json!({
        "workers": workers,
        "sampled_traces": totals.traces,
        "measured_root_us": totals.measured_root_us,
        "attributed_us": totals.attributed_us,
        "coverage": totals.coverage(),
        "breakdown_us": totals.breakdown_json(),
        "tiers": totals.tiers_json(),
    })
}

fn main() {
    let smoke = hedc_bench::smoke();
    let units = downlink_units(smoke);
    let photons: usize = units.iter().map(|u| u.photons.len()).sum();
    println!(
        "ingest_bench — downlink day: {} units, {} photons{}",
        units.len(),
        photons,
        if smoke { " (smoke)" } else { "" }
    );
    println!("{:-<62}", "");

    // --- scale: serial vs N workers per stage ------------------------------
    println!(
        "{:>8} {:>10} {:>12} {:>9}",
        "workers", "secs", "units/s", "speedup"
    );
    let worker_counts: &[usize] = if smoke { &[1, 2, 8] } else { &[1, 2, 4, 8] };
    let mut rows: Vec<ScaleRow> = Vec::new();
    let mut serial_secs = 0.0f64;
    for &w in worker_counts {
        let (dm, cfg) = memory_node();
        let session = dm.import_session();
        let t0 = Instant::now();
        let report = pipeline::ingest(
            &dm.io,
            &session,
            &units,
            &cfg,
            &IngestOptions::with_workers(w),
        )
        .expect("ingest");
        let secs = t0.elapsed().as_secs_f64();
        assert!(
            report.fully_accounted(),
            "report must account for every unit"
        );
        assert_eq!(
            report.failed, 0,
            "no unit may fail on an unconstrained node"
        );
        assert_eq!(report.ingested, units.len());
        if w == 1 {
            serial_secs = secs;
        }
        let row = ScaleRow {
            workers: w,
            secs,
            units_per_s: units.len() as f64 / secs.max(f64::EPSILON),
            speedup: serial_secs / secs.max(f64::EPSILON),
        };
        println!(
            "{:>8} {:>10.2} {:>12.1} {:>8.2}x",
            row.workers, row.secs, row.units_per_s, row.speedup
        );
        rows.push(row);
    }

    // --- attribution: per-tier breakdown of the staged pipeline ------------
    let attribution = attribution_mode_enabled().then(|| {
        println!("{:-<62}", "");
        run_attribution(&units, 4)
    });

    // --- wal: group-commit window 1 vs 16 ----------------------------------
    let base = std::env::temp_dir().join(format!("hedc-ingest-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let mut wal_rows: Vec<serde_json::Value> = Vec::new();
    for group in [1usize, 16] {
        let dir = base.join(format!("wal-g{group}"));
        std::fs::create_dir_all(&dir).expect("bench dir");
        let node = wal_node(
            &dir,
            WalOptions {
                fsync: false,
                group_commit: group,
            },
        );
        let t0 = Instant::now();
        let report = pipeline::ingest(
            &node.io,
            &node.session,
            &units,
            &node.cfg,
            &IngestOptions::default(),
        )
        .expect("wal ingest");
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(report.failed, 0);
        println!(
            "wal group_commit={group:<3} {:>10.2}s {:>12.1} units/s",
            secs,
            units.len() as f64 / secs.max(f64::EPSILON)
        );
        wal_rows.push(serde_json::json!({
            "group_commit": group,
            "secs": secs,
            "units_per_s": units.len() as f64 / secs.max(f64::EPSILON),
        }));
    }

    // --- crash-cycle: kill, reopen from the log, resume --------------------
    let cycle_units: Vec<TelemetryUnit> = units.iter().take(6).cloned().collect();
    let victim = cycle_units[cycle_units.len() / 2].seq;
    let dir = base.join("crash-cycle");
    std::fs::create_dir_all(&dir).expect("bench dir");
    let node = wal_node(
        &dir,
        WalOptions {
            fsync: false,
            group_commit: 8,
        },
    );
    let crash = pipeline::ingest(
        &node.io,
        &node.session,
        &cycle_units,
        &node.cfg,
        &IngestOptions {
            crash: Some(CrashPlan {
                unit_seq: victim,
                site: CrashSite::Boundary(JournalStep::Events),
            }),
            ..IngestOptions::default()
        },
    );
    assert!(crash.is_err(), "injected crash must kill the run");
    drop(node); // process death: only the WAL file and archive dirs survive

    let t0 = Instant::now();
    let node = wal_node(
        &dir,
        WalOptions {
            fsync: false,
            group_commit: 8,
        },
    );
    let recover_secs = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let report = pipeline::ingest(
        &node.io,
        &node.session,
        &cycle_units,
        &node.cfg,
        &IngestOptions::default(),
    )
    .expect("resume ingest");
    let resume_secs = t0.elapsed().as_secs_f64();
    assert!(report.fully_accounted());
    assert_eq!(report.failed, 0);
    let resumed = report
        .units
        .iter()
        .find(|u| u.seq == victim)
        .expect("victim accounted");
    assert!(
        matches!(resumed.status, UnitStatus::Resumed { .. }),
        "victim must resume from its journal trail, got {:?}",
        resumed.status
    );
    println!(
        "crash-cycle: recovery {:.3}s, resume {:.3}s ({} skipped, {} resumed, {} fresh)",
        recover_secs, resume_secs, report.skipped, report.resumed, report.ingested
    );
    let cycle = serde_json::json!({
        "units": cycle_units.len(),
        "crash_unit": victim,
        "crash_site": "boundary:events",
        "recovery_secs": recover_secs,
        "resume_secs": resume_secs,
        "skipped": report.skipped,
        "resumed": report.resumed,
        "ingested": report.ingested,
    });
    let _ = std::fs::remove_dir_all(&base);

    let mut bench_report = serde_json::json!({
        "bench": "ingest",
        "workload": {
            "units": units.len(),
            "photons": photons,
            "smoke": smoke,
        },
        "scale": rows
            .iter()
            .map(|r| serde_json::json!({
                "workers": r.workers,
                "secs": r.secs,
                "units_per_s": r.units_per_s,
                "speedup": r.speedup,
            }))
            .collect::<Vec<_>>(),
        "wal": wal_rows,
        "crash_cycle": cycle,
    });
    if let Some(attribution) = attribution {
        bench_report["attribution"] = attribution;
    }
    hedc_bench::write_report("BENCH_ingest", &bench_report);
}
