//! The DM process layer (§5.2).
//!
//! "The process layer combines the operations of the I/O layer with the
//! services of the semantic layer to provide processes": raw-data
//! preparation, event filtering, entity association, catalog generation,
//! and physical archive relocation — each a multi-step workflow with
//! logging and compensation.

use crate::error::{DmError, DmResult};
use crate::io::DmIo;
use crate::names::{NameType, Names};
use crate::semantic::Services;
use crate::session::Session;
use hedc_events::DetectConfig;
use hedc_filestore::migrate_batch;
use hedc_metadb::{Expr, Query, Statement, Value};

/// Result of ingesting one telemetry unit.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestReport {
    /// `raw_unit` tuple id.
    pub raw_id: i64,
    /// HLE ids created from detected events.
    pub hle_ids: Vec<i64>,
    /// `view_meta` id of the approximated view built at load time.
    pub view_id: i64,
    /// Bytes stored (raw file + view file).
    pub bytes_stored: u64,
}

/// Ingest parameters.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Archive receiving the raw FITS file.
    pub raw_archive: u32,
    /// Archive receiving derived files (views, catalog images).
    pub derived_archive: u32,
    /// Extended-catalog id to attach detected events to.
    pub extended_catalog: i64,
    /// Detection tuning.
    pub detect: DetectConfig,
    /// Wavelet view: bin width (ms).
    pub view_bin_ms: u64,
    /// Wavelet view: partition length (bins).
    pub view_partition: usize,
    /// Wavelet view: quantization step.
    pub view_quant: f64,
}

impl IngestConfig {
    /// Sensible defaults against archives 1 (raw) and 2 (derived).
    pub fn new(raw_archive: u32, derived_archive: u32, extended_catalog: i64) -> Self {
        IngestConfig {
            raw_archive,
            derived_archive,
            extended_catalog,
            detect: DetectConfig::default(),
            view_bin_ms: 1000,
            view_partition: 1024,
            view_quant: 0.5,
        }
    }
}

/// Process-layer workflows over one DM node.
pub struct Processes<'a> {
    io: &'a DmIo,
}

impl<'a> Processes<'a> {
    /// Wrap the I/O layer.
    pub fn new(io: &'a DmIo) -> Self {
        Processes { io }
    }

    /// Synchronize the `op_archives` operational table with the live
    /// file-store state (§4.1: "status of archives (online, capacity left,
    /// type)"). Run after ingest/relocation so monitoring reflects reality.
    pub fn refresh_archive_status(&self) -> DmResult<usize> {
        let mut updated = 0usize;
        for status in self.io.files.statuses() {
            updated += self.io.execute(Statement::Update {
                table: "op_archives".into(),
                sets: vec![
                    (
                        "state".into(),
                        Expr::Literal(Value::Text(format!("{:?}", status.state))),
                    ),
                    ("used".into(), Expr::Literal(Value::Int(status.used as i64))),
                ],
                filter: Some(Expr::eq("archive_id", i64::from(status.id))),
            })?;
        }
        Ok(updated)
    }

    /// Record a lineage row (§4.1 operational section).
    pub fn lineage(
        &self,
        entity_kind: &str,
        entity_id: i64,
        source: Option<(&str, i64)>,
        operation: &str,
        calib_version: u32,
    ) -> DmResult<()> {
        let id = self.io.next_id();
        let ts = self.io.clock.now_ms() as i64;
        self.io.insert(
            "op_lineage",
            vec![
                Value::Int(id),
                Value::Text(entity_kind.to_string()),
                Value::Int(entity_id),
                source
                    .map(|(k, _)| Value::Text(k.to_string()))
                    .unwrap_or(Value::Null),
                source.map(|(_, i)| Value::Int(i)).unwrap_or(Value::Null),
                Value::Text(operation.to_string()),
                Value::Int(i64::from(calib_version)),
                Value::Int(ts),
            ],
        )?;
        Ok(())
    }

    /// Lineage rows for an entity (provenance queries).
    pub fn lineage_of(&self, entity_id: i64) -> DmResult<Vec<(String, String)>> {
        let r = self
            .io
            .query(&Query::table("op_lineage").filter(Expr::eq("entity_id", entity_id)))?;
        Ok(r.rows
            .iter()
            .map(|row| {
                (
                    row[1].as_text().unwrap_or("").to_string(),
                    row[5].as_text().unwrap_or("").to_string(),
                )
            })
            .collect())
    }

    /// Physical archive relocation (§5.2's example workflow): migrate the
    /// files, repoint their location entries, write lineage and logs.
    /// Already-moved files stay moved on failure (the workflow is
    /// restartable); metadata always matches reality.
    pub fn relocate(
        &self,
        from_archive: u32,
        to_archive: u32,
        paths: &[String],
    ) -> DmResult<usize> {
        let names = Names::new(self.io);
        let (records, failure) = migrate_batch(&self.io.files, from_archive, to_archive, paths);
        for rec in &records {
            names.repoint_entries(from_archive, to_archive, std::slice::from_ref(&rec.path))?;
            self.lineage("file", 0, None, &format!("relocate:{}", rec.path), 0)?;
        }
        self.io.log(
            if failure.is_some() { "warn" } else { "info" },
            "relocate",
            &format!(
                "moved {}/{} files from archive {} to {}",
                records.len(),
                paths.len(),
                from_archive,
                to_archive
            ),
        )?;
        match failure {
            Some(e) => Err(DmError::Fs(e)),
            None => Ok(records.len()),
        }
    }

    /// Catalog generation: group all visible HLEs matching a filter into a
    /// new catalog (the "lists of events that are generally accepted as
    /// being of a particular type", §3.3).
    pub fn generate_catalog(
        &self,
        session: &Session,
        name: &str,
        filter: Expr,
    ) -> DmResult<(i64, usize)> {
        let svc = Services::new(self.io);
        let catalog_id = svc.create_catalog(session, name, "generated", None)?;
        let hles = svc.query(session, Query::table("hle").filter(filter))?;
        let mut count = 0usize;
        for row in &hles.rows {
            let hle_id = row[0].as_int().expect("hle id");
            svc.add_to_catalog(session, catalog_id, hle_id)?;
            count += 1;
        }
        self.io.log(
            "info",
            "catalog",
            &format!("generated catalog `{name}` with {count} events"),
        )?;
        Ok((catalog_id, count))
    }

    /// Purge obsolete raw units: delete their files and mark metadata. The
    /// "data refresh and purging rules" of §4.1.
    pub fn purge_obsolete_raw(&self) -> DmResult<usize> {
        let names = Names::new(self.io);
        let rows = self
            .io
            .query(&Query::table("raw_unit").filter(Expr::eq("obsolete", true)))?;
        let mut purged = 0usize;
        for row in &rows.rows {
            let raw_id = row[0].as_int().expect("id");
            let item_id = row[6].as_int().expect("item");
            for name in names.resolve(item_id, NameType::File)? {
                // Missing files are fine — purge is idempotent.
                let _ = self.io.files.delete(name.archive_id, &name.archive_path);
            }
            self.io.execute(Statement::Delete {
                table: "loc_entry".into(),
                filter: Some(Expr::eq("item_id", item_id)),
            })?;
            self.io.execute(Statement::Delete {
                table: "raw_unit".into(),
                filter: Some(Expr::eq("id", raw_id)),
            })?;
            purged += 1;
        }
        Ok(purged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{self, IngestOptions};
    use crate::testkit::Loader;
    use hedc_events::{generate, package, GenConfig, TelemetryUnit};
    use hedc_filestore::{Archive, ArchiveTier};
    use hedc_wavelet::PartitionedView;

    /// A loader node with a third archive, the tape vault relocation
    /// moves files to.
    fn fixture() -> Loader {
        let f = Loader::new("process-test", Default::default());
        let tape = Archive::in_memory(3, "tape", ArchiveTier::TapeVault, 1 << 30);
        f.io.files.register(tape);
        let names = Names::new(&f.io);
        names.register_archive(3, "tape", "", None).unwrap();
        f
    }

    fn ingest(f: &Loader, unit: &TelemetryUnit) -> IngestReport {
        let units = std::slice::from_ref(unit);
        let serial = IngestOptions::default();
        let mut run = pipeline::ingest(&f.io, &f.session, units, &f.cfg, &serial).unwrap();
        run.units.remove(0).report.expect("the unit ingests")
    }

    fn busy_unit() -> TelemetryUnit {
        let t = generate(&GenConfig {
            duration_ms: 30 * 60 * 1000,
            flares_per_hour: 8.0,
            background_rate: 20.0,
            seed: 31,
            ..GenConfig::default()
        });
        package(&t, usize::MAX, 1).remove(0)
    }

    #[test]
    fn ingest_full_workflow() {
        let f = fixture();
        let procs = Processes::new(&f.io);
        let unit = busy_unit();
        let report = ingest(&f, &unit);
        assert!(report.bytes_stored > 0);
        assert!(
            !report.hle_ids.is_empty(),
            "an active half hour detects events"
        );
        // Raw file exists and is referenced.
        assert!(f.io.files.exists(1, &unit.archive_path()));
        // HLEs are in the extended catalog and public.
        let svc = Services::new(&f.io);
        let members = svc
            .catalog_members(&f.session, f.cfg.extended_catalog)
            .unwrap();
        assert_eq!(members, report.hle_ids);
        let guest = Session::anonymous("x");
        let visible = svc.query(&guest, Query::table("hle")).unwrap();
        assert_eq!(visible.rows.len(), report.hle_ids.len());
        // The view file parses back and reconstructs.
        let names = Names::new(&f.io);
        let vm = f.io.query(&Query::table("view_meta")).unwrap();
        assert_eq!(vm.rows.len(), 1);
        let view_item = vm.rows[0][6].as_int().unwrap();
        let bytes = names.fetch_data(view_item).unwrap();
        let view = PartitionedView::from_bytes(&bytes).unwrap();
        assert_eq!(
            view.total_len() as u64,
            (unit.end_ms - unit.start_ms) / 1000
        );
        // Lineage recorded for every HLE.
        for &h in &report.hle_ids {
            let lin = procs.lineage_of(h).unwrap();
            assert!(lin.iter().any(|(k, op)| k == "hle" && op == "detect"));
        }
    }

    #[test]
    fn relocation_workflow_moves_and_repoints() {
        let f = fixture();
        let procs = Processes::new(&f.io);
        let unit = busy_unit();
        ingest(&f, &unit);
        let path = unit.archive_path();
        let moved = procs.relocate(1, 3, std::slice::from_ref(&path)).unwrap();
        assert_eq!(moved, 1);
        assert!(!f.io.files.exists(1, &path));
        assert!(f.io.files.exists(3, &path));
        // Name mapping follows.
        let names = Names::new(&f.io);
        let raw = f.io.query(&Query::table("raw_unit")).unwrap();
        let item = raw.rows[0][6].as_int().unwrap();
        let resolved = names.resolve(item, NameType::File).unwrap();
        assert_eq!(resolved[0].archive_id, 3);
        assert!(names.fetch_data(item).is_ok());
    }

    #[test]
    fn relocation_failure_keeps_metadata_consistent() {
        let f = fixture();
        let procs = Processes::new(&f.io);
        let unit = busy_unit();
        ingest(&f, &unit);
        let good = unit.archive_path();
        let paths = vec![good.clone(), "missing/file".to_string()];
        let err = procs.relocate(1, 3, &paths).unwrap_err();
        assert!(matches!(err, DmError::Fs(_)));
        // The good file moved and was repointed; metadata matches reality.
        let names = Names::new(&f.io);
        let raw = f.io.query(&Query::table("raw_unit")).unwrap();
        let item = raw.rows[0][6].as_int().unwrap();
        let resolved = names.resolve(item, NameType::File).unwrap();
        assert_eq!(resolved[0].archive_id, 3);
        assert_eq!(
            names.fetch_data(item).unwrap().len() as u64,
            resolved[0].size
        );
    }

    #[test]
    fn generated_catalog_collects_flares() {
        let f = fixture();
        let procs = Processes::new(&f.io);
        let unit = busy_unit();
        let report = ingest(&f, &unit);
        let (cat, n) = procs
            .generate_catalog(&f.session, "flares-only", Expr::eq("event_type", "flare"))
            .unwrap();
        assert!(n > 0 && n <= report.hle_ids.len());
        let svc = Services::new(&f.io);
        assert_eq!(svc.catalog_members(&f.session, cat).unwrap().len(), n);
    }

    #[test]
    fn purge_deletes_files_and_tuples() {
        let f = fixture();
        let procs = Processes::new(&f.io);
        let unit = busy_unit();
        ingest(&f, &unit);
        // Nothing obsolete yet.
        assert_eq!(procs.purge_obsolete_raw().unwrap(), 0);
        f.io.execute(Statement::Update {
            table: "raw_unit".into(),
            sets: vec![("obsolete".into(), Expr::Literal(Value::Bool(true)))],
            filter: None,
        })
        .unwrap();
        assert_eq!(procs.purge_obsolete_raw().unwrap(), 1);
        assert!(!f.io.files.exists(1, &unit.archive_path()));
        assert!(f
            .io
            .query(&Query::table("raw_unit"))
            .unwrap()
            .rows
            .is_empty());
    }
}
