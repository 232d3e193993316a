//! The DM semantic layer (§5.2).
//!
//! "The intermediate semantic layer is used to implement services ... It
//! enforces access rules, ensures referential consistency, and determines
//! data dependencies." Entity operations here are transactional around the
//! HLE/ANA/file-reference group (§4.4), ownership scoping is appended to
//! every query ("the system typically appends the user id to all queries so
//! that only public tuples or tuples owned by that user are returned",
//! §5.5), and the redundant-work check of §3.5 lives here.

use crate::error::{DmError, DmResult};
use crate::io::DmIo;
use crate::names::NameType;
use crate::session::{Rights, Session};
use hedc_metadb::{CmpOp, Expr, Query, QueryResult, Statement, Value};

/// Specification of a new high-level event.
#[derive(Debug, Clone)]
pub struct HleSpec {
    /// Start, mission ms.
    pub time_start: u64,
    /// End, mission ms.
    pub time_end: u64,
    /// Lower energy bound, keV.
    pub energy_lo: f64,
    /// Upper energy bound, keV.
    pub energy_hi: f64,
    /// Event type string (`flare`, `grb`, `quiet`, ... or user-defined —
    /// §3.3: "there are only events").
    pub event_type: String,
    /// Flare class label, if classified.
    pub flare_class: Option<String>,
    /// Peak rate, photons/s.
    pub peak_rate: Option<f64>,
    /// Spectral hardness.
    pub hardness: Option<f64>,
    /// Photons attributed.
    pub n_photons: Option<i64>,
    /// Title for browsing.
    pub title: Option<String>,
    /// Origin: `import`, `detection`, `user`, `streamcorder`.
    pub source: String,
    /// Calibration version of the underlying data.
    pub calib_version: u32,
}

impl HleSpec {
    /// A minimal event spec over a window.
    pub fn window(time_start: u64, time_end: u64, event_type: &str) -> Self {
        HleSpec {
            time_start,
            time_end,
            energy_lo: 3.0,
            energy_hi: 20_000.0,
            event_type: event_type.to_string(),
            flare_class: None,
            peak_rate: None,
            hardness: None,
            n_photons: None,
            title: None,
            source: "user".to_string(),
            calib_version: 1,
        }
    }
}

/// Specification of a completed analysis to import (§4.1: importing an
/// analysis stores multiple files and creates multiple metadata tuples).
#[derive(Debug, Clone)]
pub struct AnaSpec {
    /// Owning event.
    pub hle_id: i64,
    /// Analysis kind name.
    pub kind: String,
    /// Parameter fingerprint (redundancy-detection key, §3.5).
    pub fingerprint: String,
    /// Window start.
    pub t_start: u64,
    /// Window end.
    pub t_end: u64,
    /// Energy band.
    pub energy_lo: f64,
    /// Energy band.
    pub energy_hi: f64,
    /// Optional grid parameter.
    pub param_grid: Option<f64>,
    /// Optional bins parameter.
    pub param_bins: Option<f64>,
    /// Optional bin width parameter.
    pub param_bin_ms: Option<f64>,
    /// Wall-clock duration of the run, ms.
    pub duration_ms: i64,
    /// CPU time of the run, ms.
    pub cpu_ms: i64,
    /// Output volume, bytes.
    pub output_bytes: i64,
    /// Product type label (`image`, `series`, ...).
    pub product_type: String,
    /// Calibration version of the inputs.
    pub calib_version: u32,
}

/// One file to store alongside an analysis.
#[derive(Debug, Clone)]
pub struct FilePayload {
    /// Target archive.
    pub archive_id: u32,
    /// Path within the archive.
    pub path: String,
    /// Entry role (`image`, `log`, `params`, `data`).
    pub role: String,
    /// Bytes.
    pub data: Vec<u8>,
}

/// Append ownership scoping to a domain query (§5.5). Admins see
/// everything; others see public tuples plus their own.
pub fn scope_query(session: &Session, q: Query) -> Query {
    const OWNED: [&str; 3] = ["hle", "ana", "catalog"];
    if session.is_admin() || !OWNED.iter().any(|t| t.eq_ignore_ascii_case(&q.table)) {
        return q;
    }
    q.filter(Expr::eq("public", true).or(Expr::eq("owner", session.user_id)))
}

/// Semantic-layer services over one DM node.
pub struct Services<'a> {
    io: &'a DmIo,
}

impl<'a> Services<'a> {
    /// Wrap the I/O layer.
    pub fn new(io: &'a DmIo) -> Self {
        Services { io }
    }

    /// Run a query with the session's ownership scoping applied. Results
    /// are cached (when enabled) under the session's scope tag, so one
    /// user's cached rows are never served to another.
    pub fn query(&self, session: &Session, q: Query) -> DmResult<QueryResult> {
        let _span = hedc_obs::Span::child("dm.session.query");
        session.require(Rights::BROWSE, "browse")?;
        self.io
            .query_scoped(&session.scope_tag(), &scope_query(session, q))
    }

    /// Run user-submitted SQL (§1's "their own SQL queries"): SELECT only,
    /// with the session's ownership scoping appended (§5.5 applies to every
    /// query path, including this one).
    pub fn user_sql(&self, session: &Session, sql: &str) -> DmResult<QueryResult> {
        session.require(Rights::BROWSE, "browse")?;
        let stmt = hedc_metadb::parse(sql)?;
        match stmt {
            hedc_metadb::Statement::Select(q) => self
                .io
                .query_scoped(&session.scope_tag(), &scope_query(session, q)),
            _ => Err(DmError::BadQuery(
                "only SELECT is allowed on the user SQL path".into(),
            )),
        }
    }

    /// Create an HLE owned by the session user. Requires the upload right.
    pub fn create_hle(&self, session: &Session, spec: &HleSpec) -> DmResult<i64> {
        session.require(Rights::UPLOAD, "upload")?;
        if spec.time_end <= spec.time_start {
            return Err(DmError::Integrity("HLE window is empty".into()));
        }
        let id = self.io.next_id();
        let now = self.io.clock.now_ms() as i64;
        let f = |v: &Option<f64>| v.map(Value::Float).unwrap_or(Value::Null);
        self.io.insert(
            "hle",
            vec![
                Value::Int(id),
                Value::Int(session.user_id),
                Value::Null, // item_id: attached later if files arrive
                Value::Int(spec.time_start as i64),
                Value::Int(spec.time_end as i64),
                Value::Float(spec.energy_lo),
                Value::Float(spec.energy_hi),
                Value::Text(spec.event_type.clone()),
                spec.flare_class
                    .as_ref()
                    .map(|c| Value::Text(c.clone()))
                    .unwrap_or(Value::Null),
                f(&spec.peak_rate),
                f(&spec.hardness),
                spec.n_photons.map(Value::Int).unwrap_or(Value::Null),
                Value::Int(i64::from(spec.calib_version)),
                Value::Int(1), // version
                Value::Bool(false),
                spec.title
                    .as_ref()
                    .map(|t| Value::Text(t.clone()))
                    .unwrap_or(Value::Null),
                Value::Null, // notes
                Value::Int(now),
                Value::Text(spec.source.clone()),
                Value::Null, // position_x
                Value::Null, // position_y
                Value::Null, // goes_flux
                Value::Null, // active_region
                Value::Int(0),
                Value::Bool(false),
            ],
        )?;
        Ok(id)
    }

    /// Import an analysis: store its files, register the location entries,
    /// and insert the ANA tuple — one transaction on the metadata side, with
    /// file stores compensated on failure (§4.4).
    pub fn import_analysis(
        &self,
        session: &Session,
        spec: &AnaSpec,
        files: &[FilePayload],
    ) -> DmResult<(i64, Option<i64>)> {
        session.require(Rights::UPLOAD, "upload")?;
        // Dependency check: the HLE must exist and be visible.
        let hle = self.query(
            session,
            Query::table("hle").filter(Expr::eq("id", spec.hle_id)),
        )?;
        if hle.rows.is_empty() {
            return Err(DmError::NotFound {
                entity: "hle",
                id: spec.hle_id,
            });
        }

        // Stage files first (compensable side effects). Physical stores go
        // to the prefix-joined path; location entries keep the
        // entry-relative path (§4.3: relocation rewrites prefixes only).
        let names = crate::names::Names::new(self.io);
        let mut stored: Vec<(u32, String)> = Vec::new();
        let store_result: DmResult<()> = files.iter().try_fold((), |(), f| {
            let physical = names.physical_path(f.archive_id, &f.path)?;
            self.io.files.store(f.archive_id, &physical, &f.data)?;
            stored.push((f.archive_id, physical));
            Ok(())
        });
        if let Err(e) = store_result {
            for (a, p) in &stored {
                let _ = self.io.files.delete(*a, p);
            }
            return Err(e);
        }

        // Metadata transaction: item + entries + ana tuple. Bump the cache
        // generations on both sides of the write window (see
        // `DmIo::bump_generation`): the transaction goes through a raw
        // update connection, which the io layer's auto-bumps never see.
        for table in ["ana", "loc_entry", "loc_item"] {
            self.io.bump_generation(table);
        }
        let ana_id = self.io.next_id();
        let now = self.io.clock.now_ms() as i64;
        let txn_result: DmResult<Option<i64>> = (|| {
            let mut conn = self.io.update_conn("ana");
            conn.begin()?;
            let item_id = if files.is_empty() {
                None
            } else {
                let item_id = self.io.next_id();
                conn.insert("loc_item", vec![Value::Int(item_id), Value::Int(now)])?;
                for f in files {
                    let entry_id = self.io.next_id();
                    conn.insert(
                        "loc_entry",
                        vec![
                            Value::Int(entry_id),
                            Value::Int(item_id),
                            Value::Text(NameType::File.as_str().to_string()),
                            Value::Int(i64::from(f.archive_id)),
                            Value::Text(f.path.clone()),
                            Value::Int(f.data.len() as i64),
                            Value::Int(i64::from(hedc_filestore::checksum(&f.data))),
                            Value::Text(f.role.clone()),
                        ],
                    )?;
                }
                Some(item_id)
            };
            let opt = |v: &Option<f64>| v.map(Value::Float).unwrap_or(Value::Null);
            conn.insert(
                "ana",
                vec![
                    Value::Int(ana_id),
                    Value::Int(spec.hle_id),
                    Value::Int(session.user_id),
                    item_id.map(Value::Int).unwrap_or(Value::Null),
                    Value::Text(spec.kind.clone()),
                    Value::Text(spec.fingerprint.clone()),
                    Value::Int(spec.t_start as i64),
                    Value::Int(spec.t_end as i64),
                    Value::Float(spec.energy_lo),
                    Value::Float(spec.energy_hi),
                    opt(&spec.param_grid),
                    opt(&spec.param_bins),
                    opt(&spec.param_bin_ms),
                    Value::Text("done".into()),
                    Value::Int(spec.duration_ms),
                    Value::Int(spec.cpu_ms),
                    Value::Int(spec.output_bytes),
                    Value::Text(spec.product_type.clone()),
                    Value::Int(i64::from(spec.calib_version)),
                    Value::Int(1),
                    Value::Bool(false),
                    Value::Int(now),
                    Value::Null,
                    Value::Bool(false),
                ],
            )?;
            conn.commit()?;
            Ok(item_id)
        })();

        match txn_result {
            Ok(item_id) => {
                // Closing bump, now that the commit is durable.
                for table in ["ana", "loc_entry", "loc_item"] {
                    self.io.bump_generation(table);
                }
                Ok((ana_id, item_id))
            }
            Err(e) => {
                // Compensate the file stores.
                for (a, p) in &stored {
                    let _ = self.io.files.delete(*a, p);
                }
                Err(e)
            }
        }
    }

    /// §3.5: look for an existing, visible analysis with the same parameter
    /// fingerprint (the `ana_fingerprint` index) computed at calibration
    /// lineage `min_calib` or later, and report its `calib_version`. The PL
    /// result store uses this so a post-recalibration submit recomputes
    /// instead of serving a stale product (§3.1 invalidation feeding §3.5
    /// reuse).
    pub fn find_existing_analysis_versioned(
        &self,
        session: &Session,
        fingerprint: &str,
        min_calib: u32,
    ) -> DmResult<Option<(i64, u32)>> {
        let r = self.query(
            session,
            Query::table("ana")
                .filter(
                    Expr::eq("fingerprint", fingerprint)
                        .and(Expr::eq("obsolete", false))
                        .and(Expr::cmp("calib_version", CmpOp::Ge, i64::from(min_calib))),
                )
                .limit(1),
        )?;
        let calib_col = r
            .columns
            .iter()
            .position(|c| c == "calib_version")
            .expect("ana has calib_version");
        Ok(r.rows.first().map(|row| {
            (
                row[0].as_int().expect("ana id"),
                row[calib_col].as_int().expect("calib") as u32,
            )
        }))
    }

    /// Publish an entity (owner only; §5.5 "for data to be visible to other
    /// users, the owner must flag that data as public").
    pub fn publish(&self, session: &Session, table: &str, id: i64) -> DmResult<()> {
        if !matches!(table, "hle" | "ana" | "catalog") {
            return Err(DmError::BadQuery(format!("`{table}` is not publishable")));
        }
        let r = self
            .io
            .query(&Query::table(table).filter(Expr::eq("id", id)))?;
        let row = r.rows.first().ok_or(DmError::NotFound {
            entity: "tuple",
            id,
        })?;
        let owner_col = r
            .columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case("owner"))
            .ok_or_else(|| DmError::BadQuery(format!("`{table}` has no owner column")))?;
        let owner = row[owner_col].as_int().unwrap_or(-1);
        if owner != session.user_id && !session.is_admin() {
            return Err(DmError::AccessDenied {
                user: session.user_name.clone(),
                needed: "ownership",
            });
        }
        self.io.execute(Statement::Update {
            table: table.to_string(),
            sets: vec![("public".into(), Expr::Literal(Value::Bool(true)))],
            filter: Some(Expr::eq("id", id)),
        })?;
        Ok(())
    }

    /// Delete an HLE. Integrity constraint (§5.3): refused while dependent
    /// analyses exist.
    pub fn delete_hle(&self, session: &Session, hle_id: i64) -> DmResult<()> {
        let r = self
            .io
            .query(&Query::table("hle").filter(Expr::eq("id", hle_id)))?;
        let row = r.rows.first().ok_or(DmError::NotFound {
            entity: "hle",
            id: hle_id,
        })?;
        let owner = row[1].as_int().unwrap_or(-1);
        if owner != session.user_id && !session.is_admin() {
            return Err(DmError::AccessDenied {
                user: session.user_name.clone(),
                needed: "ownership",
            });
        }
        let deps = self.io.query(
            &Query::table("ana")
                .filter(Expr::eq("hle_id", hle_id))
                .aggregate(hedc_metadb::AggFunc::CountStar),
        )?;
        if deps.scalar_int().unwrap_or(0) > 0 {
            return Err(DmError::Integrity(format!(
                "HLE {hle_id} has {} dependent analyses",
                deps.scalar_int().unwrap_or(0)
            )));
        }
        // Remove catalog memberships (they depend on the HLE, not vice versa).
        self.io.execute(Statement::Delete {
            table: "catalog_member".into(),
            filter: Some(Expr::eq("hle_id", hle_id)),
        })?;
        self.io.execute(Statement::Delete {
            table: "hle".into(),
            filter: Some(Expr::eq("id", hle_id)),
        })?;
        Ok(())
    }

    /// Delete an analysis (owner only); its location entries go with it.
    pub fn delete_analysis(&self, session: &Session, ana_id: i64) -> DmResult<()> {
        let r = self
            .io
            .query(&Query::table("ana").filter(Expr::eq("id", ana_id)))?;
        let row = r.rows.first().ok_or(DmError::NotFound {
            entity: "ana",
            id: ana_id,
        })?;
        let owner = row[2].as_int().unwrap_or(-1);
        if owner != session.user_id && !session.is_admin() {
            return Err(DmError::AccessDenied {
                user: session.user_name.clone(),
                needed: "ownership",
            });
        }
        let item_id = row[3].as_int();
        // Remove the result files first (best effort — a missing file is
        // not a reason to keep the metadata), then the tuples. The reverse
        // order would orphan files behind deleted references (§4.4).
        if let Some(item) = item_id {
            let names = crate::names::Names::new(self.io);
            for file in names.resolve(item, crate::names::NameType::File)? {
                let _ = self.io.files.delete(file.archive_id, &file.archive_path);
            }
        }
        // Raw-connection transaction: invalidate the written tables
        // explicitly, on both sides of the write window (the io-layer
        // auto-bumps never see these writes; see `DmIo::bump_generation`).
        for table in ["ana", "loc_entry", "loc_item"] {
            self.io.bump_generation(table);
        }
        let mut conn = self.io.update_conn("ana");
        conn.begin()?;
        conn.delete_where("ana", Some(Expr::eq("id", ana_id)))?;
        if let Some(item) = item_id {
            conn.delete_where("loc_entry", Some(Expr::eq("item_id", item)))?;
            conn.delete_where("loc_item", Some(Expr::eq("item_id", item)))?;
        }
        conn.commit()?;
        for table in ["ana", "loc_entry", "loc_item"] {
            self.io.bump_generation(table);
        }
        Ok(())
    }

    /// Create a catalog (private workspace by default, §4.1).
    pub fn create_catalog(
        &self,
        session: &Session,
        name: &str,
        kind: &str,
        description: Option<&str>,
    ) -> DmResult<i64> {
        session.require(Rights::UPLOAD, "upload")?;
        let id = self.io.next_id();
        let now = self.io.clock.now_ms() as i64;
        self.io.insert(
            "catalog",
            vec![
                Value::Int(id),
                Value::Int(session.user_id),
                Value::Text(name.to_string()),
                description
                    .map(|d| Value::Text(d.to_string()))
                    .unwrap_or(Value::Null),
                Value::Text(kind.to_string()),
                Value::Bool(false),
                Value::Int(now),
            ],
        )?;
        Ok(id)
    }

    /// Add an HLE to a catalog (visible HLE, owned or public catalog).
    pub fn add_to_catalog(&self, session: &Session, catalog_id: i64, hle_id: i64) -> DmResult<i64> {
        let cat = self.query(
            session,
            Query::table("catalog").filter(Expr::eq("id", catalog_id)),
        )?;
        if cat.rows.is_empty() {
            return Err(DmError::NotFound {
                entity: "catalog",
                id: catalog_id,
            });
        }
        let hle = self.query(session, Query::table("hle").filter(Expr::eq("id", hle_id)))?;
        if hle.rows.is_empty() {
            return Err(DmError::NotFound {
                entity: "hle",
                id: hle_id,
            });
        }
        let id = self.io.next_id();
        self.io.insert(
            "catalog_member",
            vec![Value::Int(id), Value::Int(catalog_id), Value::Int(hle_id)],
        )?;
        Ok(id)
    }

    /// HLE ids in a catalog (browse-scoped). The catalog itself must be
    /// visible to the session — membership rows carry no owner column, so
    /// without this check a private workspace's contents would leak (§5.5).
    pub fn catalog_members(&self, session: &Session, catalog_id: i64) -> DmResult<Vec<i64>> {
        let visible = self.query(
            session,
            Query::table("catalog").filter(Expr::eq("id", catalog_id)),
        )?;
        if visible.rows.is_empty() {
            return Err(DmError::NotFound {
                entity: "catalog",
                id: catalog_id,
            });
        }
        let r = self.query(
            session,
            Query::table("catalog_member").filter(Expr::eq("catalog_id", catalog_id)),
        )?;
        Ok(r.rows
            .iter()
            .map(|row| row[2].as_int().expect("hle id"))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::Names;
    use crate::testkit::{login, node};
    use std::sync::Arc;

    struct Fixture {
        io: DmIo,
        alice: Arc<Session>,
        bob: Arc<Session>,
    }

    fn fixture() -> Fixture {
        let io = node("semantic-test", Default::default());
        let (alice, bob) = (login(&io, "alice"), login(&io, "bob"));
        Fixture { io, alice, bob }
    }

    fn ana_spec(hle_id: i64, fp: &str) -> AnaSpec {
        AnaSpec {
            hle_id,
            kind: "imaging".into(),
            fingerprint: fp.to_string(),
            t_start: 0,
            t_end: 1000,
            energy_lo: 3.0,
            energy_hi: 100.0,
            param_grid: Some(64.0),
            param_bins: None,
            param_bin_ms: None,
            duration_ms: 60_000,
            cpu_ms: 55_000,
            output_bytes: 56_000,
            product_type: "image".into(),
            calib_version: 1,
        }
    }

    #[test]
    fn private_data_invisible_to_others() {
        let f = fixture();
        let svc = Services::new(&f.io);
        let hle = svc
            .create_hle(&f.alice, &HleSpec::window(0, 1000, "flare"))
            .unwrap();
        // Alice sees it; Bob does not.
        let mine = svc.query(&f.alice, Query::table("hle")).unwrap();
        assert_eq!(mine.rows.len(), 1);
        let theirs = svc.query(&f.bob, Query::table("hle")).unwrap();
        assert!(theirs.rows.is_empty());
        // Publication flips visibility.
        svc.publish(&f.alice, "hle", hle).unwrap();
        let theirs = svc.query(&f.bob, Query::table("hle")).unwrap();
        assert_eq!(theirs.rows.len(), 1);
    }

    #[test]
    fn only_owner_may_publish() {
        let f = fixture();
        let svc = Services::new(&f.io);
        let hle = svc
            .create_hle(&f.alice, &HleSpec::window(0, 1000, "flare"))
            .unwrap();
        assert!(matches!(
            svc.publish(&f.bob, "hle", hle),
            Err(DmError::AccessDenied { .. })
        ));
    }

    #[test]
    fn guest_cannot_create() {
        let f = fixture();
        let svc = Services::new(&f.io);
        let guest = Session::anonymous("ip");
        assert!(matches!(
            svc.create_hle(&guest, &HleSpec::window(0, 1, "flare")),
            Err(DmError::AccessDenied { .. })
        ));
    }

    #[test]
    fn import_analysis_stores_files_and_tuples() {
        let f = fixture();
        let svc = Services::new(&f.io);
        let names = Names::new(&f.io);
        names.register_archive(1, "disk", "", None).unwrap();
        let hle = svc
            .create_hle(&f.alice, &HleSpec::window(0, 1000, "flare"))
            .unwrap();
        let files = vec![
            FilePayload {
                archive_id: 1,
                path: "ana/1/image.fits".into(),
                role: "image".into(),
                data: vec![1; 100],
            },
            FilePayload {
                archive_id: 1,
                path: "ana/1/run.log".into(),
                role: "log".into(),
                data: b"ok".to_vec(),
            },
        ];
        let (ana_id, item_id) = svc
            .import_analysis(&f.alice, &ana_spec(hle, "fp-1"), &files)
            .unwrap();
        let item_id = item_id.expect("files attached");
        let resolved = names.resolve(item_id, NameType::File).unwrap();
        assert_eq!(resolved.len(), 2);
        assert!(f.io.files.exists(1, "ana/1/image.fits"));
        // The ANA row is visible to its owner.
        let r = svc
            .query(&f.alice, Query::table("ana").filter(Expr::eq("id", ana_id)))
            .unwrap();
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn import_under_nonempty_archive_prefix_is_resolvable() {
        // Regression: writers must store at the prefix-joined physical path
        // or resolution (which joins the prefix) finds nothing.
        let f = fixture();
        let svc = Services::new(&f.io);
        let names = Names::new(&f.io);
        names
            .register_archive(1, "disk", "online/v1", None)
            .unwrap();
        let hle = svc
            .create_hle(&f.alice, &HleSpec::window(0, 1000, "flare"))
            .unwrap();
        let files = vec![FilePayload {
            archive_id: 1,
            path: "ana/p/image.fits".into(),
            role: "image".into(),
            data: vec![9; 32],
        }];
        let (_, item) = svc
            .import_analysis(&f.alice, &ana_spec(hle, "fp-prefix"), &files)
            .unwrap();
        let item = item.unwrap();
        let resolved = names.resolve(item, NameType::File).unwrap();
        assert_eq!(resolved[0].archive_path, "online/v1/ana/p/image.fits");
        assert_eq!(resolved[0].entry_path, "ana/p/image.fits");
        assert_eq!(names.fetch_data(item).unwrap(), vec![9; 32]);
    }

    #[test]
    fn import_compensates_on_file_failure() {
        let f = fixture();
        let svc = Services::new(&f.io);
        let hle = svc
            .create_hle(&f.alice, &HleSpec::window(0, 1000, "flare"))
            .unwrap();
        let files = vec![
            FilePayload {
                archive_id: 1,
                path: "a".into(),
                role: "image".into(),
                data: vec![1; 10],
            },
            FilePayload {
                archive_id: 99, // unknown archive -> second store fails
                path: "b".into(),
                role: "log".into(),
                data: vec![2; 10],
            },
        ];
        let err = svc
            .import_analysis(&f.alice, &ana_spec(hle, "fp-x"), &files)
            .unwrap_err();
        // Unknown archive now fails at prefix resolution (NotFound) before
        // the file store would reject it (Fs); either way staging aborts.
        assert!(
            matches!(err, DmError::Fs(_) | DmError::NotFound { .. }),
            "{err:?}"
        );
        // The first store was compensated.
        assert!(!f.io.files.exists(1, "a"));
        // No ANA tuple leaked.
        let r = svc.query(&f.alice, Query::table("ana")).unwrap();
        assert!(r.rows.is_empty());
    }

    #[test]
    fn redundancy_detection_finds_public_and_own() {
        let f = fixture();
        let svc = Services::new(&f.io);
        let hle = svc
            .create_hle(&f.alice, &HleSpec::window(0, 1000, "flare"))
            .unwrap();
        svc.publish(&f.alice, "hle", hle).unwrap();
        let (ana_id, _) = svc
            .import_analysis(&f.alice, &ana_spec(hle, "fp-dup"), &[])
            .unwrap();
        // Alice finds her own.
        let find = |who: &Session| {
            svc.find_existing_analysis_versioned(who, "fp-dup", 0)
                .unwrap()
                .map(|(id, _calib)| id)
        };
        assert_eq!(find(&f.alice), Some(ana_id));
        // Bob can't see it while private...
        assert_eq!(find(&f.bob), None);
        // ...until it's published (§3.5's sharing step).
        svc.publish(&f.alice, "ana", ana_id).unwrap();
        assert_eq!(find(&f.bob), Some(ana_id));
    }

    #[test]
    fn hle_with_analyses_cannot_be_deleted() {
        let f = fixture();
        let svc = Services::new(&f.io);
        let hle = svc
            .create_hle(&f.alice, &HleSpec::window(0, 1000, "flare"))
            .unwrap();
        svc.import_analysis(&f.alice, &ana_spec(hle, "fp"), &[])
            .unwrap();
        assert!(matches!(
            svc.delete_hle(&f.alice, hle),
            Err(DmError::Integrity(_))
        ));
    }

    #[test]
    fn delete_analysis_then_hle() {
        let f = fixture();
        let svc = Services::new(&f.io);
        let names = Names::new(&f.io);
        names.register_archive(1, "disk", "", None).unwrap();
        let hle = svc
            .create_hle(&f.alice, &HleSpec::window(0, 1000, "flare"))
            .unwrap();
        let (ana_id, item) = svc
            .import_analysis(
                &f.alice,
                &ana_spec(hle, "fp"),
                &[FilePayload {
                    archive_id: 1,
                    path: "x".into(),
                    role: "image".into(),
                    data: vec![0; 4],
                }],
            )
            .unwrap();
        svc.delete_analysis(&f.alice, ana_id).unwrap();
        // Location entries went with it, and so did the file itself —
        // deleting only the metadata would orphan bytes (§4.4).
        assert!(names
            .resolve(item.unwrap(), NameType::File)
            .unwrap()
            .is_empty());
        assert!(
            !f.io.files.exists(1, "x"),
            "result file removed with the analysis"
        );
        svc.delete_hle(&f.alice, hle).unwrap();
        assert!(svc
            .query(&f.alice, Query::table("hle"))
            .unwrap()
            .rows
            .is_empty());
    }

    #[test]
    fn catalogs_group_events() {
        let f = fixture();
        let svc = Services::new(&f.io);
        let cat = svc
            .create_catalog(&f.alice, "my-flares", "private", Some("work in progress"))
            .unwrap();
        let h1 = svc
            .create_hle(&f.alice, &HleSpec::window(0, 10, "flare"))
            .unwrap();
        let h2 = svc
            .create_hle(&f.alice, &HleSpec::window(10, 20, "flare"))
            .unwrap();
        svc.add_to_catalog(&f.alice, cat, h1).unwrap();
        svc.add_to_catalog(&f.alice, cat, h2).unwrap();
        assert_eq!(svc.catalog_members(&f.alice, cat).unwrap(), vec![h1, h2]);
        // Bob can't add to a catalog he can't see.
        assert!(matches!(
            svc.add_to_catalog(&f.bob, cat, h1),
            Err(DmError::NotFound { .. })
        ));
    }

    #[test]
    fn empty_window_rejected() {
        let f = fixture();
        let svc = Services::new(&f.io);
        assert!(matches!(
            svc.create_hle(&f.alice, &HleSpec::window(100, 100, "flare")),
            Err(DmError::Integrity(_))
        ));
    }
}
