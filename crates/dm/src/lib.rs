//! # hedc-dm — the Data Management component
//!
//! The heart of HEDC's middle tier (paper §4–§5): everything between the
//! presentation tier and the storage substrates goes through the DM.
//!
//! Layering follows §5.2 exactly:
//!
//! * **I/O layer** ([`DmIo`]) — storage abstraction: metadata databases with
//!   split connection pools, table→database load partitioning, the file
//!   store, id allocation and the logical clock. Query objects compile to
//!   SQL text and back (§5.4).
//! * **Semantic layer** ([`Services`]) — entity services over HLEs,
//!   analyses and catalogs with access control (§5.5), referential
//!   integrity (§5.3) and redundant-work detection (§3.5); plus the dynamic
//!   name mapping ([`Names`], §4.3).
//! * **Process layer** ([`Processes`], [`Versioning`]) — multi-step
//!   workflows: data loading with event detection and load-time wavelet
//!   views, physical archive relocation with compensation, catalog
//!   generation, purging, and the recalibration sweep (§3.1).
//!
//! [`Dm`] bundles one node of all three layers; [`DmRouter`] spreads
//! browse load over several nodes (§5.4), which is experiment Fig. 5.
//!
//! ```
//! use hedc_dm::{Dm, DmConfig, Rights, SessionKind};
//! use hedc_filestore::{Archive, ArchiveTier, FileStore};
//! use std::sync::Arc;
//!
//! let files = Arc::new(FileStore::new());
//! files.register(Archive::in_memory(1, "raw", ArchiveTier::OnlineDisk, 1 << 30));
//! files.register(Archive::in_memory(2, "derived", ArchiveTier::OnlineRaid, 1 << 30));
//! let dm = Dm::bootstrap(files, DmConfig::default()).unwrap();
//!
//! dm.create_user("etzard", "pw", "science", Rights::SCIENTIST).unwrap();
//! let cookie = dm.login("etzard", "pw", "10.0.0.7").unwrap();
//! let session = dm.session("10.0.0.7", cookie, SessionKind::Hle).unwrap();
//! assert!(session.rights.allows(Rights::ANALYZE));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod error;
mod fault;
mod io;
mod names;
pub mod pipeline;
mod process;
mod redirect;
pub mod schema;
mod semantic;
mod session;
pub mod shard;
#[doc(hidden)]
pub mod testkit;
mod version;
pub mod workflow;

pub use error::{DmError, DmResult};
pub use fault::{FaultCounts, FaultPlan, FaultyDmNode};
pub use hedc_obs::splitmix64;
pub use io::{Clock, DmCaches, DmIo, IoConfig, Partitioning};
pub use names::{NameType, Names, ResolvedName};
pub use pipeline::{CrashPlan, IngestOptions, JournalStep, PipelineReport, UnitResult, UnitStatus};
pub use process::{IngestConfig, IngestReport, Processes};
pub use redirect::{DmNode, DmRouter};
pub use semantic::{scope_query, AnaSpec, FilePayload, HleSpec, Services};
pub use session::{create_user, password_hash, Rights, Session, SessionKind, SessionManager};
pub use shard::{
    FanoutPlan, MoveOutcome, MoveSpec, MoveStep, Route, ShardMap, ShardMapHandle, ShardMover,
    ShardScheme, ShardedDm, TableSharding,
};
pub use version::{RecalReport, Versioning};
pub use workflow::{CrashSite, Step};

use hedc_filestore::FileStore;
use hedc_metadb::{Database, MatViewManager, Query, QueryResult};
use std::sync::Arc;

/// Configuration for bootstrapping a DM node.
#[derive(Debug, Clone)]
pub struct DmConfig {
    /// Number of metadata database instances (≥ 1).
    pub databases: usize,
    /// Table→database routing.
    pub partitioning: Partitioning,
    /// Pool sizing and name root.
    pub io: IoConfig,
    /// Mission clock start.
    pub start_ms: u64,
    /// Storage engine for the metadata databases (memory or paged).
    pub storage: hedc_metadb::StorageConfig,
}

impl Default for DmConfig {
    fn default() -> Self {
        DmConfig {
            databases: 1,
            partitioning: Partitioning::single(),
            io: IoConfig::default(),
            start_ms: 0,
            storage: hedc_metadb::StorageConfig::default(),
        }
    }
}

/// One fully assembled DM node.
pub struct Dm {
    /// The I/O layer.
    pub io: DmIo,
    /// Session cache and authentication.
    pub sessions: SessionManager,
    /// Materialized views over the browse database (§6.3: "we use
    /// materialized views to improve response time").
    pub matviews: MatViewManager,
    /// Id of the system "standard" catalog.
    pub standard_catalog: i64,
    /// Id of the system "extended" catalog.
    pub extended_catalog: i64,
    import_session: Arc<Session>,
}

impl Dm {
    /// Stand up a node: create databases and schemas, register the file
    /// store's archives in the location/operational tables, create the
    /// system import user, and the standard + extended catalogs.
    pub fn bootstrap(files: Arc<FileStore>, config: DmConfig) -> DmResult<Arc<Dm>> {
        assert!(config.databases >= 1);
        let mut dbs = Vec::with_capacity(config.databases);
        for i in 0..config.databases {
            // Each instance gets its own store file when one is configured;
            // `None` keeps anonymous per-store scratch files.
            let mut storage = config.storage.clone();
            if let Some(p) = &storage.store_path {
                if config.databases > 1 {
                    storage.store_path = Some(p.with_extension(format!("{i}.pages")));
                }
            }
            let db = Database::open(
                format!("hedc-db-{i}"),
                hedc_metadb::DbOptions {
                    storage,
                    ..hedc_metadb::DbOptions::default()
                },
            )?;
            let mut conn = db.connect();
            schema::create_generic(&mut conn)?;
            schema::create_domain(&mut conn)?;
            dbs.push(db);
        }
        let clock = Clock::starting_at(config.start_ms);
        let io = DmIo::new(dbs, config.partitioning, files, clock, &config.io);

        // Archives into the location + operational tables.
        let names = Names::new(&io);
        for status in io.files.statuses() {
            names.register_archive(status.id, &format!("{:?}", status.tier), "", None)?;
            io.insert(
                "op_archives",
                vec![
                    hedc_metadb::Value::Int(i64::from(status.id)),
                    hedc_metadb::Value::Text(status.name.clone()),
                    hedc_metadb::Value::Text(format!("{:?}", status.tier)),
                    hedc_metadb::Value::Text(format!("{:?}", status.state)),
                    hedc_metadb::Value::Int(status.capacity as i64),
                    hedc_metadb::Value::Int(status.used as i64),
                ],
            )?;
        }

        // System import user + session.
        create_user(
            &io,
            "import",
            "import-internal",
            "system",
            Rights::SCIENTIST.with(Rights::ADMIN),
        )?;
        let sessions = SessionManager::new();
        let cookie = sessions.authenticate(&io, "import", "import-internal", "localhost")?;
        let import_session = sessions.lookup("localhost", cookie, SessionKind::Hle)?;

        // System catalogs (§2.2: standard catalog from the mission pipeline,
        // extended catalog built at HEDC).
        let svc = Services::new(&io);
        let standard_catalog = svc.create_catalog(
            &import_session,
            "standard",
            "system",
            Some("Mission-pipeline event catalog"),
        )?;
        svc.publish(&import_session, "catalog", standard_catalog)?;
        let extended_catalog = svc.create_catalog(
            &import_session,
            "extended",
            "system",
            Some("HEDC extended catalog: flares, GRBs, quiet periods"),
        )?;
        svc.publish(&import_session, "catalog", extended_catalog)?;

        // Standard summary views (§6.3): refreshed during data loading.
        let matviews = MatViewManager::new(Arc::clone(&io.databases()[0]));
        matviews.define(
            "events_by_type",
            Query::table("hle")
                .filter(hedc_metadb::Expr::eq("public", true))
                .group_by("event_type")
                .aggregate(hedc_metadb::AggFunc::CountStar),
        )?;
        matviews.define(
            "analyses_by_kind",
            Query::table("ana")
                .group_by("kind")
                .aggregate(hedc_metadb::AggFunc::CountStar)
                .aggregate(hedc_metadb::AggFunc::Avg("duration_ms".into())),
        )?;

        Ok(Arc::new(Dm {
            io,
            sessions,
            matviews,
            standard_catalog,
            extended_catalog,
            import_session,
        }))
    }

    /// The semantic-layer services.
    pub fn services(&self) -> Services<'_> {
        Services::new(&self.io)
    }

    /// The name-mapping services.
    pub fn names(&self) -> Names<'_> {
        Names::new(&self.io)
    }

    /// The process-layer workflows.
    pub fn processes(&self) -> Processes<'_> {
        Processes::new(&self.io)
    }

    /// The versioning services.
    pub fn versioning(&self) -> Versioning<'_> {
        Versioning::new(&self.io)
    }

    /// Post-load maintenance (the paper's load-time refresh pass): refresh
    /// stale materialized views (§6.3) and synchronize the operational
    /// archive-status table (§4.1).
    pub fn after_load_maintenance(&self) -> DmResult<()> {
        self.matviews.refresh_stale(0)?;
        self.processes().refresh_archive_status()?;
        Ok(())
    }

    /// The system import session (data-loading identity).
    pub fn import_session(&self) -> Arc<Session> {
        Arc::clone(&self.import_session)
    }

    /// Create a user account.
    pub fn create_user(
        &self,
        name: &str,
        password: &str,
        group: &str,
        rights: Rights,
    ) -> DmResult<i64> {
        create_user(&self.io, name, password, group, rights)
    }

    /// Authenticate; returns the session cookie.
    pub fn login(&self, name: &str, password: &str, ip: &str) -> DmResult<u64> {
        self.sessions.authenticate(&self.io, name, password, ip)
    }

    /// Look up a cached session.
    pub fn session(&self, ip: &str, cookie: u64, kind: SessionKind) -> DmResult<Arc<Session>> {
        self.sessions.lookup(ip, cookie, kind)
    }
}

/// The I/O layer is the smallest thing that can serve another node's reads;
/// it identifies itself by its first database's name.
impl DmNode for DmIo {
    fn node_id(&self) -> String {
        self.databases()[0].name().to_string()
    }

    fn execute_query(&self, q: &Query) -> DmResult<QueryResult> {
        self.query(q)
    }

    fn resolve_names(&self, item_id: i64, want: NameType) -> DmResult<Vec<ResolvedName>> {
        Names::new(self).resolve(item_id, want)
    }

    fn resolve_batch(&self, item_ids: &[i64], want: NameType) -> Vec<DmResult<Vec<ResolvedName>>> {
        Names::new(self).resolve_batch(item_ids, want)
    }
}

impl DmNode for Dm {
    fn node_id(&self) -> String {
        self.io.node_id()
    }

    fn execute_query(&self, q: &Query) -> DmResult<QueryResult> {
        self.io.execute_query(q)
    }

    fn resolve_names(&self, item_id: i64, want: NameType) -> DmResult<Vec<ResolvedName>> {
        self.io.resolve_names(item_id, want)
    }

    fn resolve_batch(&self, item_ids: &[i64], want: NameType) -> Vec<DmResult<Vec<ResolvedName>>> {
        self.io.resolve_batch(item_ids, want)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{dm, dm_with};

    #[test]
    fn bootstrap_creates_system_state() {
        let dm = dm();
        // Catalogs exist and are public.
        let guest = Session::anonymous("ip");
        let r = dm
            .services()
            .query(&guest, Query::table("catalog"))
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        // Archives are registered.
        let archives = dm.io.query(&Query::table("op_archives")).unwrap();
        assert_eq!(archives.rows.len(), 2);
        let locs = dm.io.query(&Query::table("loc_archive")).unwrap();
        assert_eq!(locs.rows.len(), 2);
    }

    #[test]
    fn login_and_rights_flow() {
        let dm = dm();
        dm.create_user("sci", "pw", "science", Rights::SCIENTIST)
            .unwrap();
        let cookie = dm.login("sci", "pw", "10.1.1.1").unwrap();
        let s = dm
            .session("10.1.1.1", cookie, SessionKind::Analysis)
            .unwrap();
        assert!(s.rights.allows(Rights::ANALYZE));
        assert!(dm
            .session("10.1.1.1", cookie + 1, SessionKind::Analysis)
            .is_err());
    }

    #[test]
    fn matviews_serve_summaries_and_refresh() {
        let dm = dm();
        assert_eq!(
            dm.matviews.names(),
            vec!["analyses_by_kind".to_string(), "events_by_type".to_string()]
        );
        // Initially empty.
        let v = dm.matviews.read("events_by_type").unwrap();
        assert!(v.rows.is_empty());
        // Load events, refresh, and the summary appears without touching
        // the base table on reads.
        let session = dm.import_session();
        let svc = dm.services();
        for i in 0..5u64 {
            let id = svc
                .create_hle(&session, &HleSpec::window(i * 10, i * 10 + 5, "flare"))
                .unwrap();
            svc.publish(&session, "hle", id).unwrap();
        }
        assert!(dm.matviews.staleness("events_by_type").unwrap() > 0);
        dm.matviews.refresh_stale(0).unwrap();
        let v = dm.matviews.read("events_by_type").unwrap();
        assert_eq!(v.rows.len(), 1);
        assert_eq!(v.rows[0][1].as_int(), Some(5));
    }

    #[test]
    fn archive_status_refresh_tracks_usage() {
        let dm = dm();
        dm.io.files.store(1, "some/file", &[0u8; 4096]).unwrap();
        let updated = dm.processes().refresh_archive_status().unwrap();
        assert_eq!(updated, 2);
        let r = dm
            .io
            .query(&Query::table("op_archives").filter(hedc_metadb::Expr::eq("archive_id", 1)))
            .unwrap();
        assert_eq!(r.rows[0][5].as_int(), Some(4096));
    }

    #[test]
    fn multi_database_bootstrap() {
        let config = DmConfig {
            databases: 2,
            partitioning: Partitioning::single().route("raw_unit", 1),
            ..DmConfig::default()
        };
        let dm = dm_with(config);
        assert_eq!(dm.io.databases().len(), 2);
        // raw_unit goes to db 1; catalog stayed on db 0.
        assert_eq!(dm.io.databases()[0].row_count("catalog").unwrap(), 2);
        assert_eq!(dm.io.databases()[1].row_count("catalog").unwrap(), 0);
    }
}
