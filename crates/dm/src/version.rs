//! Versioning and recalibration (§3.1).
//!
//! "It is to be expected that the raw data will be recalibrated several
//! times. Accordingly, the raw data and all the derived data based on it
//! must be versioned. ... a significant number of the analyses performed
//! for previous versions of the data may have to be recomputed." The sweep
//! here re-derives every raw unit under a new calibration, stores the new
//! files beside the old (files are immutable), repoints the location
//! entries, bumps versions with a `version_log` trail, and marks dependent
//! analyses obsolete so the PL can schedule recomputation.

use crate::error::{DmError, DmResult};
use crate::io::DmIo;
use crate::names::{NameType, Names};
use crate::process::Processes;
use hedc_events::{recalibrate, Calibration, TelemetryUnit};
use hedc_filestore::{checksum, FitsFile};
use hedc_metadb::{Expr, Query, Statement, Value};

/// Outcome of a recalibration sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct RecalReport {
    /// Raw units re-derived.
    pub units_recalibrated: usize,
    /// Analyses marked obsolete (need recomputation).
    pub analyses_invalidated: usize,
    /// New calibration version.
    pub new_version: u32,
}

/// Versioning services.
pub struct Versioning<'a> {
    io: &'a DmIo,
}

impl<'a> Versioning<'a> {
    /// Wrap the I/O layer.
    pub fn new(io: &'a DmIo) -> Self {
        Versioning { io }
    }

    /// Append a `version_log` row.
    pub fn log_version(
        &self,
        entity_kind: &str,
        entity_id: i64,
        version: i64,
        calib_version: Option<u32>,
        reason: &str,
    ) -> DmResult<()> {
        let id = self.io.next_id();
        let ts = self.io.clock.now_ms() as i64;
        self.io.insert(
            "version_log",
            vec![
                Value::Int(id),
                Value::Text(entity_kind.to_string()),
                Value::Int(entity_id),
                Value::Int(version),
                calib_version
                    .map(|v| Value::Int(i64::from(v)))
                    .unwrap_or(Value::Null),
                Value::Text(reason.to_string()),
                Value::Int(ts),
            ],
        )?;
        Ok(())
    }

    /// Version history of one entity, oldest first.
    pub fn history(&self, entity_id: i64) -> DmResult<Vec<(i64, String)>> {
        let r = self.io.query(
            &Query::table("version_log")
                .filter(Expr::eq("entity_id", entity_id))
                .order_by("ts_ms", hedc_metadb::OrderDir::Asc),
        )?;
        Ok(r.rows
            .iter()
            .map(|row| {
                (
                    row[3].as_int().unwrap_or(0),
                    row[5].as_text().unwrap_or("").to_string(),
                )
            })
            .collect())
    }

    /// Apply a new calibration to every non-obsolete raw unit currently at
    /// `old.version`, and invalidate dependent analyses.
    pub fn apply_recalibration(
        &self,
        old: &Calibration,
        new: &Calibration,
    ) -> DmResult<RecalReport> {
        if new.version <= old.version {
            return Err(DmError::Integrity(format!(
                "new calibration version {} must exceed {}",
                new.version, old.version
            )));
        }
        let names = Names::new(self.io);
        let procs = Processes::new(self.io);

        let units = self.io.query(&Query::table("raw_unit").filter(
            Expr::eq("calib_version", i64::from(old.version)).and(Expr::eq("obsolete", false)),
        ))?;
        let mut recal_count = 0usize;
        for row in &units.rows {
            let raw_id = row[0].as_int().expect("id");
            let item_id = row[6].as_int().expect("item");

            // Fetch + parse + recalibrate + re-package.
            let resolved = names.resolve(item_id, NameType::File)?;
            let primary = resolved
                .iter()
                .find(|n| n.role == "data")
                .ok_or(DmError::NotFound {
                    entity: "raw file",
                    id: item_id,
                })?;
            let bytes = self
                .io
                .files
                .fetch(primary.archive_id, &primary.archive_path)?;
            let unit = TelemetryUnit::from_fits(&FitsFile::from_bytes(&bytes)?)?;
            let photons = recalibrate(&unit.photons, old, new)
                .map_err(|e| DmError::Integrity(format!("recalibration: {e}")))?;
            let new_unit = TelemetryUnit {
                calib_version: new.version,
                photons,
                ..unit
            };
            let new_bytes = new_unit.to_fits().to_bytes();
            // Physical writes use the prefix-joined archive path; the
            // location tables store the entry-relative path, or resolve()
            // would double-apply the archive prefix afterwards.
            let new_entry_path = format!("{}.v{}", primary.entry_path, new.version);
            let new_archive_path = format!("{}.v{}", primary.archive_path, new.version);
            self.io
                .files
                .store(primary.archive_id, &new_archive_path, &new_bytes)?;

            // Repoint the entry at the new file; keep the old file on disk
            // (immutable history) but no longer referenced as primary.
            self.io.execute(Statement::Update {
                table: "loc_entry".into(),
                sets: vec![
                    ("path".into(), Expr::Literal(Value::Text(new_entry_path))),
                    (
                        "size".into(),
                        Expr::Literal(Value::Int(new_bytes.len() as i64)),
                    ),
                    (
                        "checksum".into(),
                        Expr::Literal(Value::Int(i64::from(checksum(&new_bytes)))),
                    ),
                ],
                filter: Some(Expr::eq("id", primary.entry_id)),
            })?;

            // Bump the raw tuple's calibration version.
            self.io.execute(Statement::Update {
                table: "raw_unit".into(),
                sets: vec![(
                    "calib_version".into(),
                    Expr::Literal(Value::Int(i64::from(new.version))),
                )],
                filter: Some(Expr::eq("id", raw_id)),
            })?;
            self.log_version(
                "raw_unit",
                raw_id,
                i64::from(new.version),
                Some(new.version),
                "recalibration",
            )?;
            procs.lineage(
                "raw_unit",
                raw_id,
                Some(("raw_unit", raw_id)),
                "recalibrate",
                new.version,
            )?;
            recal_count += 1;
        }

        // Invalidate analyses computed under older calibrations.
        let stale = self.io.query(
            &Query::table("ana").filter(
                hedc_metadb::Expr::cmp(
                    "calib_version",
                    hedc_metadb::CmpOp::Lt,
                    i64::from(new.version),
                )
                .and(Expr::eq("obsolete", false)),
            ),
        )?;
        let mut invalidated = 0usize;
        for row in &stale.rows {
            let ana_id = row[0].as_int().expect("ana id");
            self.io.execute(Statement::Update {
                table: "ana".into(),
                sets: vec![("obsolete".into(), Expr::Literal(Value::Bool(true)))],
                filter: Some(Expr::eq("id", ana_id)),
            })?;
            self.log_version("ana", ana_id, 0, Some(new.version), "stale: recalibration")?;
            invalidated += 1;
        }

        // Advance the node's calibration lineage so in-memory result stores
        // (PL reuse/coalescing) drop entries computed under the old
        // calibration — the DB rows above are already marked obsolete, this
        // covers caches that never re-read them.
        self.io.bump_calib_lineage(new.version);

        self.io.log(
            "info",
            "recalibration",
            &format!(
                "v{} -> v{}: {recal_count} units re-derived, {invalidated} analyses invalidated",
                old.version, new.version
            ),
        )?;
        Ok(RecalReport {
            units_recalibrated: recal_count,
            analyses_invalidated: invalidated,
            new_version: new.version,
        })
    }

    /// Analyses needing recomputation (obsolete = true), oldest first —
    /// "depending on user requests and capacity, a significant number of the
    /// analyses ... may have to be recomputed" (§3.1).
    pub fn stale_analyses(&self) -> DmResult<Vec<i64>> {
        let r = self.io.query(
            &Query::table("ana")
                .filter(Expr::eq("obsolete", true))
                .order_by("created_ms", hedc_metadb::OrderDir::Asc),
        )?;
        Ok(r.rows
            .iter()
            .map(|row| row[0].as_int().expect("ana id"))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{self, IngestOptions};
    use crate::semantic::{AnaSpec, Services};
    use crate::testkit::Loader;
    use hedc_events::{generate, package, GenConfig};

    fn fixture() -> Loader {
        Loader::new("version-test", Default::default())
    }

    fn ingest_first_unit(f: &Loader) -> (i64, Vec<i64>) {
        let t = generate(&GenConfig {
            duration_ms: 20 * 60 * 1000,
            flares_per_hour: 6.0,
            background_rate: 15.0,
            seed: 77,
            ..GenConfig::default()
        });
        let unit = package(&t, usize::MAX, 1).remove(0);
        let serial = IngestOptions::default();
        let mut run = pipeline::ingest(&f.io, &f.session, &[unit], &f.cfg, &serial).unwrap();
        let rep = run.units.remove(0).report.expect("the unit ingests");
        (rep.raw_id, rep.hle_ids)
    }

    #[test]
    fn recalibration_rederives_and_invalidates() {
        let f = fixture();
        let (raw_id, hle_ids) = ingest_first_unit(&f);
        // Attach an analysis computed under v1.
        let svc = Services::new(&f.io);
        let (ana_id, _) = svc
            .import_analysis(
                &f.session,
                &AnaSpec {
                    hle_id: hle_ids[0],
                    kind: "imaging".into(),
                    fingerprint: "fp".into(),
                    t_start: 0,
                    t_end: 1000,
                    energy_lo: 3.0,
                    energy_hi: 100.0,
                    param_grid: None,
                    param_bins: None,
                    param_bin_ms: None,
                    duration_ms: 100,
                    cpu_ms: 90,
                    output_bytes: 10,
                    product_type: "image".into(),
                    calib_version: 1,
                },
                &[],
            )
            .unwrap();

        let v1 = Calibration::launch();
        let v2 = v1.recalibrated(0.05, 0.0);
        let vsn = Versioning::new(&f.io);
        let report = vsn.apply_recalibration(&v1, &v2).unwrap();
        assert_eq!(report.units_recalibrated, 1);
        assert_eq!(report.analyses_invalidated, 1);
        assert_eq!(report.new_version, 2);

        // Raw tuple now at v2, and the referenced file parses at v2.
        let raw =
            f.io.query(&Query::table("raw_unit").filter(Expr::eq("id", raw_id)))
                .unwrap();
        assert_eq!(raw.rows[0][5].as_int(), Some(2));
        let names = Names::new(&f.io);
        let item = raw.rows[0][6].as_int().unwrap();
        let bytes = names.fetch_data(item).unwrap();
        let unit = TelemetryUnit::from_fits(&FitsFile::from_bytes(&bytes).unwrap()).unwrap();
        assert_eq!(unit.calib_version, 2);

        // The stale analysis is queued for recomputation, with history.
        assert_eq!(vsn.stale_analyses().unwrap(), vec![ana_id]);
        let hist = vsn.history(ana_id).unwrap();
        assert!(hist.iter().any(|(_, r)| r.contains("recalibration")));

        // Idempotence: running the same sweep again finds nothing at v1.
        let report2 = vsn
            .apply_recalibration(&v1, &v2.recalibrated(0.0, 0.0))
            .unwrap();
        assert_eq!(report2.units_recalibrated, 0);
    }

    #[test]
    fn recalibration_version_must_increase() {
        let f = fixture();
        let v1 = Calibration::launch();
        let vsn = Versioning::new(&f.io);
        assert!(matches!(
            vsn.apply_recalibration(&v1, &v1),
            Err(DmError::Integrity(_))
        ));
    }

    #[test]
    fn version_history_ordering() {
        let f = fixture();
        let vsn = Versioning::new(&f.io);
        vsn.log_version("hle", 42, 1, None, "created").unwrap();
        vsn.log_version("hle", 42, 2, Some(2), "recalibrated")
            .unwrap();
        vsn.log_version("hle", 42, 3, Some(2), "corrected").unwrap();
        let h = vsn.history(42).unwrap();
        assert_eq!(h.iter().map(|(v, _)| *v).collect::<Vec<_>>(), vec![1, 2, 3]);
        let _ = (&f.session, f.cfg.extended_catalog);
    }

    #[test]
    fn old_files_remain_for_history() {
        let f = fixture();
        ingest_first_unit(&f);
        let before: Vec<String> = f.io.files.archive(1).unwrap().list();
        let v1 = Calibration::launch();
        let v2 = v1.recalibrated(0.02, 0.1);
        Versioning::new(&f.io)
            .apply_recalibration(&v1, &v2)
            .unwrap();
        let after: Vec<String> = f.io.files.archive(1).unwrap().list();
        assert_eq!(after.len(), before.len() + 1, "old file kept, new added");
        for old in &before {
            assert!(after.contains(old));
        }
    }
}
