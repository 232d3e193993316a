//! The ingest crash-point matrix (§5.2: "logging and compensation").
//!
//! Kills a journaled serial ingest at every step of the workflow, resumes
//! it, and asserts the recovery contract:
//!
//! * a crash at a step **boundary** (the journal record survived) resumes
//!   read-only and reproduces a **byte-identical** metadata state against an
//!   uninterrupted twin run;
//! * a crash **mid-step** (effects applied, record lost) is compensated —
//!   the resumed state carries no duplicated rows and no orphaned archive
//!   files;
//! * a WAL-backed node killed for real (fixture dropped, reopened from the
//!   log) resumes across process "death";
//! * a unit that fails keeps its slot in the report instead of aborting the
//!   run (the old loader's accounting bug).
//!
//! Deterministic: the workload derives from one printed seed, replayable
//! with `scripts/check.sh --seed <seed>` (`HEDC_TEST_SEED`).

use hedc_dm::testkit::{Loader, Seed};
use hedc_dm::{
    pipeline, schema, workflow, CrashPlan, CrashSite, DmError, DmIo, IngestOptions, JournalStep,
    Step, UnitStatus,
};
use hedc_events::{generate, package, GenConfig, TelemetryUnit};
use hedc_metadb::{Expr, Query, StorageConfig, Value, WalOptions};
use std::collections::BTreeMap;

const BASE_SEED: u64 = 0xC4A5_0041;

/// The unit a crash matrix kills: drawn from the run's `"workflow-crash"`
/// stream, so a seed sweep moves the crash through the batch.
fn drawn_victim(units: &[TelemetryUnit]) -> u32 {
    let mut crash = Seed::from_env(BASE_SEED).stream("workflow-crash");
    crash.pick(units).seq
}

/// A few distribution units with enough activity that most carry events.
fn workload() -> Vec<TelemetryUnit> {
    let t = generate(&GenConfig {
        seed: Seed::from_env(BASE_SEED).0,
        start_ms: 0,
        duration_ms: 4 * 60 * 1000,
        background_rate: 25.0,
        flares_per_hour: 45.0,
        grbs_per_day: 2.0,
        ..GenConfig::default()
    });
    let units = package(&t, 2_500, 1);
    assert!(units.len() >= 3, "workload must span several units");
    units
}

/// A deterministic in-memory node: twin calls produce twin id/clock states,
/// which is what the byte-identity assertions lean on.
fn fixture() -> Loader {
    Loader::new("ingest-crash", StorageConfig::default())
}

/// Canonical dump of every table: sorted debug-formatted rows, table-tagged.
fn dump(io: &DmIo) -> Vec<String> {
    let mut out = Vec::new();
    for t in schema::GENERIC_TABLES
        .iter()
        .chain(schema::DOMAIN_TABLES.iter())
    {
        let r = io.query(&Query::table(*t)).unwrap();
        let mut rows: Vec<String> = r.rows.iter().map(|row| format!("{t}|{row:?}")).collect();
        rows.sort();
        out.append(&mut rows);
    }
    out
}

fn table_counts(io: &DmIo) -> BTreeMap<&'static str, usize> {
    schema::GENERIC_TABLES
        .iter()
        .chain(schema::DOMAIN_TABLES.iter())
        .map(|t| (*t, io.query(&Query::table(*t)).unwrap().rows.len()))
        .collect()
}

/// Every file in every archive must be reachable through exactly one
/// `loc_entry` row — a resumed ingest never strands an orphan.
fn assert_no_orphans(io: &DmIo) {
    for id in io.files.archive_ids() {
        let archive = io.files.archive(id).unwrap();
        for path in archive.list() {
            let r = io
                .query(&Query::table("loc_entry").filter(
                    Expr::eq("path", path.as_str()).and(Expr::eq("archive_id", i64::from(id))),
                ))
                .unwrap();
            assert_eq!(
                r.rows.len(),
                1,
                "archive {id} file `{path}` must have exactly one loc_entry"
            );
        }
    }
}

fn serial() -> IngestOptions {
    IngestOptions::default()
}

/// One half of the crash matrix, enumerated from the ingest step table.
fn matrix_steps(mid_step: bool) -> Vec<JournalStep> {
    let steps: Vec<JournalStep> = CrashSite::<JournalStep>::all()
        .filter_map(|site| match site {
            CrashSite::MidStep(s) if mid_step => Some(s),
            CrashSite::Boundary(s) if !mid_step => Some(s),
            _ => None,
        })
        .collect();
    assert!(steps.len() >= 6, "the matrix must not shrink: {steps:?}");
    steps
}

fn crashing(victim: u32, site: CrashSite<JournalStep>) -> IngestOptions {
    IngestOptions {
        crash: Some(CrashPlan {
            unit_seq: victim,
            site,
        }),
        ..IngestOptions::default()
    }
}

#[test]
fn boundary_crash_matrix_resumes_byte_identical() {
    let units = workload();
    let victim = drawn_victim(&units);

    // Uninterrupted twin: the reference state.
    let reference = fixture();
    let ref_report = pipeline::ingest(
        &reference.io,
        &reference.session,
        &units,
        &reference.cfg,
        &serial(),
    )
    .unwrap();
    assert_eq!(ref_report.failed, 0);
    assert_eq!(ref_report.ingested, units.len());
    let ref_dump = dump(&reference.io);

    for step in matrix_steps(false) {
        let fix = fixture();
        let crashed = pipeline::ingest(
            &fix.io,
            &fix.session,
            &units,
            &fix.cfg,
            &crashing(victim, CrashSite::Boundary(step)),
        );
        assert!(
            matches!(crashed, Err(DmError::Crashed(_))),
            "boundary {step:?}: injected crash must surface"
        );
        let resumed = pipeline::ingest(&fix.io, &fix.session, &units, &fix.cfg, &serial()).unwrap();
        assert!(resumed.fully_accounted(), "boundary {step:?}");
        assert_eq!(resumed.failed, 0, "boundary {step:?}");
        let v = resumed.units.iter().find(|u| u.seq == victim).unwrap();
        match step {
            // The `done` record survived: the victim is skipped outright.
            JournalStep::Done => assert!(
                matches!(v.status, UnitStatus::Skipped),
                "boundary done: {:?}",
                v.status
            ),
            // A clean boundary needs no compensation.
            _ => assert!(
                matches!(
                    v.status,
                    UnitStatus::Resumed {
                        from,
                        compensations: 0,
                    } if from == step
                ),
                "boundary {step:?}: {:?}",
                v.status
            ),
        }
        assert_eq!(
            dump(&fix.io),
            ref_dump,
            "boundary {step:?}: resumed state must be byte-identical"
        );
        assert_no_orphans(&fix.io);
    }
}

#[test]
fn midstep_crash_matrix_compensates_without_duplicates() {
    let units = workload();
    let victim = drawn_victim(&units);

    let reference = fixture();
    pipeline::ingest(
        &reference.io,
        &reference.session,
        &units,
        &reference.cfg,
        &serial(),
    )
    .unwrap();
    let ref_counts = table_counts(&reference.io);

    for step in matrix_steps(true) {
        let fix = fixture();
        let crashed = pipeline::ingest(
            &fix.io,
            &fix.session,
            &units,
            &fix.cfg,
            &crashing(victim, CrashSite::MidStep(step)),
        );
        assert!(
            matches!(crashed, Err(DmError::Crashed(_))),
            "mid-step {step:?}: injected crash must surface"
        );
        let resumed = pipeline::ingest(&fix.io, &fix.session, &units, &fix.cfg, &serial()).unwrap();
        assert!(resumed.fully_accounted(), "mid-step {step:?}");
        assert_eq!(resumed.failed, 0, "mid-step {step:?}");
        let v = resumed.units.iter().find(|u| u.seq == victim).unwrap();
        match step {
            // Mid-step `admitted` dies before the unit's first journal row:
            // resume sees no trail and ingests the victim from scratch.
            JournalStep::Admitted => assert!(
                matches!(v.status, UnitStatus::Ingested),
                "mid-step admitted: {:?}",
                v.status
            ),
            _ => {
                assert!(
                    matches!(v.status, UnitStatus::Resumed { .. }),
                    "mid-step {step:?}: {:?}",
                    v.status
                );
                // Steps with unconditional effects must have compensated.
                if !matches!(step, JournalStep::Events) {
                    assert!(
                        matches!(
                            v.status,
                            UnitStatus::Resumed { compensations, .. } if compensations > 0
                        ),
                        "mid-step {step:?} left effects that must be compensated: {:?}",
                        v.status
                    );
                }
            }
        }
        // Compensation re-runs allocate fresh ids, so the state is not
        // byte-identical — but nothing may duplicate or leak.
        assert_eq!(
            table_counts(&fix.io),
            ref_counts,
            "mid-step {step:?}: row counts must match the uninterrupted run"
        );
        let raws = fix.io.query(&Query::table("raw_unit")).unwrap();
        let mut seqs: Vec<i64> = raws.rows.iter().map(|r| r[1].as_int().unwrap()).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(
            seqs.len(),
            units.len(),
            "mid-step {step:?}: exactly one raw_unit row per unit"
        );
        assert_no_orphans(&fix.io);
    }
}

// ---------------------------------------------------------------------------
// WAL-backed recovery: resume across a real fixture teardown
// ---------------------------------------------------------------------------

#[test]
fn wal_recovery_resumes_across_process_death() {
    let units = workload();
    let victim = units[units.len() / 2].seq;
    let dir = std::env::temp_dir().join(format!("hedc-ingest-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let options = WalOptions {
        fsync: false,
        group_commit: 4,
    };

    let fix = Loader::wal(&dir, options, StorageConfig::default());
    let crashed = pipeline::ingest(
        &fix.io,
        &fix.session,
        &units,
        &fix.cfg,
        &crashing(victim, CrashSite::MidStep(JournalStep::View)),
    );
    assert!(matches!(crashed, Err(DmError::Crashed(_))));
    // "Process death": only the WAL file and the archive directories survive.
    drop(fix);

    let fix = Loader::wal(&dir, options, StorageConfig::default());
    let resumed = pipeline::ingest(&fix.io, &fix.session, &units, &fix.cfg, &serial()).unwrap();
    assert!(resumed.fully_accounted());
    assert_eq!(resumed.failed, 0);
    let v = resumed.units.iter().find(|u| u.seq == victim).unwrap();
    assert!(
        matches!(
            v.status,
            UnitStatus::Resumed {
                from: JournalStep::Events,
                ..
            }
        ),
        "victim must resume after its last journaled step: {:?}",
        v.status
    );
    assert!(
        resumed.skipped >= 1,
        "pre-crash units skip via their trails"
    );

    // No duplicates, no orphans — even though recovery reseeded the id space.
    let raws = fix.io.query(&Query::table("raw_unit")).unwrap();
    let mut seqs: Vec<i64> = raws.rows.iter().map(|r| r[1].as_int().unwrap()).collect();
    seqs.sort_unstable();
    seqs.dedup();
    assert_eq!(seqs.len(), units.len());
    assert_no_orphans(&fix.io);

    // Idempotence: a third pass over the same batch is all skips.
    let again = pipeline::ingest(&fix.io, &fix.session, &units, &fix.cfg, &serial()).unwrap();
    assert_eq!(again.skipped, units.len());
    assert_eq!(again.ingested + again.resumed + again.failed, 0);

    drop(fix);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Paged backend: same recovery contract as the memory backend
// ---------------------------------------------------------------------------

fn small_paged() -> StorageConfig {
    StorageConfig {
        page_size: 1024,
        cache_pages: 128,
        ..StorageConfig::paged()
    }
}

/// A paged node crashed at every step boundary resumes to a state
/// byte-identical to an uninterrupted *memory* twin: the storage engine is
/// invisible to the recovery contract.
#[test]
fn paged_boundary_crash_resumes_byte_identical_to_memory_twin() {
    let units = workload();
    let victim = drawn_victim(&units);

    let reference = fixture();
    pipeline::ingest(
        &reference.io,
        &reference.session,
        &units,
        &reference.cfg,
        &serial(),
    )
    .unwrap();
    let ref_dump = dump(&reference.io);

    for step in [
        JournalStep::Admitted,
        JournalStep::RawRow,
        JournalStep::Done,
    ] {
        let fix = Loader::new("ingest-crash", small_paged());
        let crashed = pipeline::ingest(
            &fix.io,
            &fix.session,
            &units,
            &fix.cfg,
            &crashing(victim, CrashSite::Boundary(step)),
        );
        assert!(matches!(crashed, Err(DmError::Crashed(_))));
        let resumed = pipeline::ingest(&fix.io, &fix.session, &units, &fix.cfg, &serial()).unwrap();
        assert!(resumed.fully_accounted(), "paged boundary {step:?}");
        assert_eq!(resumed.failed, 0, "paged boundary {step:?}");
        assert_eq!(
            dump(&fix.io),
            ref_dump,
            "paged boundary {step:?}: state must match the memory twin byte-for-byte"
        );
        assert_no_orphans(&fix.io);
    }
}

/// WAL-backed paged node killed for real: the store's scratch file dies
/// with the process, and replaying the WAL into a fresh paged store
/// reproduces the exact state — same contract as the memory backend.
#[test]
fn paged_wal_recovery_resumes_across_process_death() {
    let units = workload();
    let victim = units[units.len() / 2].seq;
    let dir = std::env::temp_dir().join(format!("hedc-ingest-crash-paged-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let options = WalOptions {
        fsync: false,
        group_commit: 4,
    };

    let fix = Loader::wal(&dir, options, small_paged());
    let crashed = pipeline::ingest(
        &fix.io,
        &fix.session,
        &units,
        &fix.cfg,
        &crashing(victim, CrashSite::MidStep(JournalStep::View)),
    );
    assert!(matches!(crashed, Err(DmError::Crashed(_))));
    drop(fix);

    let fix = Loader::wal(&dir, options, small_paged());
    let resumed = pipeline::ingest(&fix.io, &fix.session, &units, &fix.cfg, &serial()).unwrap();
    assert!(resumed.fully_accounted());
    assert_eq!(resumed.failed, 0);
    let v = resumed.units.iter().find(|u| u.seq == victim).unwrap();
    assert!(
        matches!(
            v.status,
            UnitStatus::Resumed {
                from: JournalStep::Events,
                ..
            }
        ),
        "victim must resume after its last journaled step: {:?}",
        v.status
    );
    let raws = fix.io.query(&Query::table("raw_unit")).unwrap();
    let mut seqs: Vec<i64> = raws.rows.iter().map(|r| r[1].as_int().unwrap()).collect();
    seqs.sort_unstable();
    seqs.dedup();
    assert_eq!(seqs.len(), units.len());
    assert_no_orphans(&fix.io);

    // Idempotence on the recovered paged node.
    let again = pipeline::ingest(&fix.io, &fix.session, &units, &fix.cfg, &serial()).unwrap();
    assert_eq!(again.skipped, units.len());
    assert_eq!(again.ingested + again.resumed + again.failed, 0);

    drop(fix);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Report accounting and parallel/serial agreement
// ---------------------------------------------------------------------------

#[test]
fn failed_units_are_reported_not_lost() {
    let units = workload();
    let victim = &units[1];
    let fix = fixture();

    // A poisoned journal trail: claims `raw_row` completed but carries no
    // state, so the victim's events step fails with an integrity error.
    let id = fix.io.next_id();
    fix.io
        .insert(
            workflow::JOURNAL_TABLE,
            vec![
                Value::Int(id),
                Value::Text(JournalStep::KIND.into()),
                Value::Text(victim.archive_path()),
                Value::Text(JournalStep::RawRow.text().into()),
                Value::Text("{}".into()),
                Value::Int(0),
            ],
        )
        .unwrap();

    let report = pipeline::ingest(&fix.io, &fix.session, &units, &fix.cfg, &serial()).unwrap();
    assert!(
        report.fully_accounted(),
        "a failed unit must keep its slot in the accounting"
    );
    assert_eq!(report.failed, 1);
    assert_eq!(report.ingested, units.len() - 1);
    let failed = report.units.iter().find(|u| u.seq == victim.seq).unwrap();
    assert!(matches!(failed.status, UnitStatus::Failed));
    assert!(matches!(failed.error, Some(DmError::Integrity(_))));
}

#[test]
fn parallel_ingest_matches_serial_semantics() {
    let units = workload();

    let s = fixture();
    let serial_report = pipeline::ingest(&s.io, &s.session, &units, &s.cfg, &serial()).unwrap();
    let p = fixture();
    let parallel_report = pipeline::ingest(
        &p.io,
        &p.session,
        &units,
        &p.cfg,
        &IngestOptions::with_workers(4),
    )
    .unwrap();

    assert_eq!(parallel_report.failed, 0);
    assert_eq!(parallel_report.ingested, serial_report.ingested);
    assert_eq!(parallel_report.hle_count, serial_report.hle_count);
    assert_eq!(parallel_report.bytes_stored, serial_report.bytes_stored);
    // Ids interleave differently across workers, but the shape of the state
    // must agree row-for-row in count, and path-for-path in the archives.
    assert_eq!(table_counts(&s.io), table_counts(&p.io));
    for id in s.io.files.archive_ids() {
        let mut a = s.io.files.archive(id).unwrap().list();
        let mut b = p.io.files.archive(id).unwrap().list();
        a.sort();
        b.sort();
        assert_eq!(a, b, "archive {id} contents must agree");
    }
    assert_no_orphans(&p.io);
}
