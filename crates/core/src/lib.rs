//! # hedc-core — the assembled RHESSI Experimental Data Center
//!
//! A Rust reproduction of HEDC, the scientific data warehouse of
//! *"Scientific Data Repositories: Designing for a Moving Target"*
//! (Stolte, von Praun, Alonso, Gross — SIGMOD 2003). This crate wires the
//! three tiers together:
//!
//! * **Resource management** — `hedc-metadb` (the metadata DBMS) and
//!   `hedc-filestore` (tiered immutable file archives), plus the
//!   `hedc-analysis` interpreter servers.
//! * **Application logic** — `hedc-dm` (Data Management: name mapping,
//!   sessions, access control, ingest/relocation/recalibration workflows)
//!   and `hedc-pl` (Processing Logic: 4-phase requests, priority
//!   scheduling, fault-tolerant server management).
//! * **Presentation** — `hedc-web` (thin web client, StreamCorder fat
//!   client, synoptic search, density/extent visualization).
//!
//! ```
//! use hedc_core::{Hedc, HedcConfig};
//! use hedc_events::GenConfig;
//!
//! // Boot a repository and load half an hour of synthetic telemetry.
//! let hedc = Hedc::start(HedcConfig::default()).unwrap();
//! let loaded = hedc.load_telemetry(&GenConfig {
//!     duration_ms: 30 * 60 * 1000,
//!     ..GenConfig::default()
//! }, 500_000).unwrap();
//! assert!(loaded.events > 0);
//!
//! // Browse it the way a scientist's browser would.
//! let page = hedc.web().handle(&hedc_web::HttpRequest::get("/hedc/catalogs", "10.0.0.1"));
//! assert_eq!(page.status, 200);
//! hedc.shutdown();
//! ```

#![warn(missing_docs)]

mod config;

pub use config::{ArchiveConfig, HedcConfig, TierConfig};

use hedc_analysis::AlgorithmRegistry;
use hedc_dm::{
    pipeline, Dm, DmConfig, DmResult, IngestConfig, IngestOptions, IoConfig, Partitioning,
};
use hedc_events::{generate, package, GenConfig, Telemetry};
use hedc_filestore::{Archive, DirBackend, FileStore};
use hedc_pl::{PlConfig, ProcessingLogic};
use hedc_web::WebServer;
use std::sync::Arc;

/// Summary of a telemetry load.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Telemetry units ingested (fresh, resumed, or already complete).
    pub units: usize,
    /// Photons loaded.
    pub photons: usize,
    /// HLEs created by detection.
    pub events: usize,
    /// Bytes stored across archives.
    pub bytes_stored: u64,
    /// Units skipped because a journal trail already marked them done.
    pub skipped: usize,
    /// Units that failed; the load no longer aborts on the first failure, so
    /// partial loads still account for every submitted unit.
    pub failed: usize,
}

/// A fully assembled HEDC node.
pub struct Hedc {
    config: HedcConfig,
    dm: Arc<Dm>,
    pl: Arc<ProcessingLogic>,
    web: WebServer,
    registry: Arc<AlgorithmRegistry>,
    /// Background saturation sampler; stopped (and joined) at shutdown.
    sampler: std::sync::Mutex<Option<hedc_obs::Sampler>>,
}

impl Hedc {
    /// Boot a repository from a configuration: mount archives, bootstrap
    /// the DM (schemas, system users, catalogs), start the PL and its
    /// analysis servers, and expose the web frontend.
    pub fn start(config: HedcConfig) -> DmResult<Arc<Hedc>> {
        hedc_metadb::tuning::set_parallel_scan_threshold(config.parallel_scan_rows);
        // Tail-latency plumbing: slow traces pin in the flight recorder, and
        // the saturation sampler snapshots every gauge (queue depths,
        // in-flight counts, pool occupancy) into the ring.
        hedc_obs::recorder().set_pin_threshold_us(config.slow_trace_ms.saturating_mul(1_000));
        let sampler = hedc_obs::start_sampler(std::time::Duration::from_millis(200));
        let files = Arc::new(FileStore::new());
        for a in &config.archives {
            let archive = match &a.directory {
                Some(dir) => Archive::new(
                    a.id,
                    a.name.clone(),
                    a.tier.to_tier(),
                    a.capacity,
                    Box::new(DirBackend::new(dir).map_err(hedc_dm::DmError::Fs)?),
                ),
                None => Archive::in_memory(a.id, a.name.clone(), a.tier.to_tier(), a.capacity),
            };
            files.register(archive);
        }
        let dm = Dm::bootstrap(
            files,
            DmConfig {
                databases: config.databases,
                partitioning: Partitioning::single(),
                io: IoConfig {
                    slow_query: config.slow_query(),
                    ..IoConfig::default()
                },
                start_ms: config.start_ms,
                storage: config.storage.clone(),
            },
        )?;
        let registry = Arc::new(AlgorithmRegistry::with_builtins());
        let pl = ProcessingLogic::start(
            Arc::clone(&dm),
            Arc::clone(&registry),
            PlConfig {
                servers: config.analysis_servers,
                dispatchers: config.dispatchers,
                job_timeout: config.job_timeout(),
                max_retries: 2,
                derived_archive: config.derived_archive(),
                ..PlConfig::default()
            },
        );
        let web = WebServer::new(Arc::clone(&dm), Some(Arc::clone(&pl)));
        Ok(Arc::new(Hedc {
            config,
            dm,
            pl,
            web,
            registry,
            sampler: std::sync::Mutex::new(Some(sampler)),
        }))
    }

    /// The Data Management component.
    pub fn dm(&self) -> &Arc<Dm> {
        &self.dm
    }

    /// The Processing Logic component.
    pub fn pl(&self) -> &Arc<ProcessingLogic> {
        &self.pl
    }

    /// The web frontend.
    pub fn web(&self) -> &WebServer {
        &self.web
    }

    /// The analysis-algorithm registry (register user routines here, §3.3).
    pub fn registry(&self) -> &Arc<AlgorithmRegistry> {
        &self.registry
    }

    /// The active configuration.
    pub fn config(&self) -> &HedcConfig {
        &self.config
    }

    /// Generate synthetic telemetry and run the full ingest pipeline over
    /// it (§2.2): package into units, store FITS files, detect events,
    /// build catalogs and load-time wavelet views.
    pub fn load_telemetry(&self, gen: &GenConfig, photons_per_unit: usize) -> DmResult<LoadReport> {
        let telemetry = generate(gen);
        self.load_generated(&telemetry, photons_per_unit)
    }

    /// Ingest already-generated telemetry (lets callers keep the ground
    /// truth for evaluation).
    pub fn load_generated(
        &self,
        telemetry: &Telemetry,
        photons_per_unit: usize,
    ) -> DmResult<LoadReport> {
        let units = package(telemetry, photons_per_unit, 1);
        let session = self.dm.import_session();
        let ingest_cfg = IngestConfig {
            raw_archive: self.config.raw_archive(),
            derived_archive: self.config.derived_archive(),
            extended_catalog: self.dm.extended_catalog,
            detect: self.config.detect.clone(),
            view_bin_ms: self.config.view_bin_ms,
            view_partition: 1024,
            view_quant: self.config.view_quant,
        };
        // The journaled pipeline accounts for every submitted unit instead of
        // aborting on the first failure (losing the accounting of everything
        // already ingested). Serial keeps load_generated deterministic.
        let run = pipeline::ingest(
            &self.dm.io,
            &session,
            &units,
            &ingest_cfg,
            &IngestOptions::default(),
        )?;
        let mut report = LoadReport {
            units: run.ingested + run.resumed + run.skipped,
            photons: 0,
            events: run.hle_count,
            bytes_stored: run.bytes_stored,
            skipped: run.skipped,
            failed: run.failed,
        };
        for u in &run.units {
            if !matches!(u.status, hedc_dm::UnitStatus::Failed) {
                if let Some(unit) = units.iter().find(|t| t.seq == u.seq) {
                    report.photons += unit.photons.len();
                }
            }
        }
        // Load-time refresh pass: materialized views + archive status.
        self.dm.after_load_maintenance()?;
        Ok(report)
    }

    /// Stop the processing logic (analysis servers and dispatchers) and the
    /// saturation sampler.
    pub fn shutdown(&self) {
        if let Some(sampler) = self.sampler.lock().unwrap().take() {
            sampler.stop();
        }
        self.pl.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hedc_analysis::AnalysisParams;
    use hedc_dm::{Rights, SessionKind};
    use hedc_pl::RequestSpec;
    use hedc_web::HttpRequest;

    fn small_gen() -> GenConfig {
        GenConfig {
            duration_ms: 15 * 60 * 1000,
            flares_per_hour: 8.0,
            background_rate: 15.0,
            seed: 777,
            ..GenConfig::default()
        }
    }

    #[test]
    fn boot_load_browse_analyze() {
        let hedc = Hedc::start(HedcConfig::default()).unwrap();
        let report = hedc.load_telemetry(&small_gen(), 300_000).unwrap();
        assert!(report.events > 0);
        assert!(report.photons > 0);

        // Browse.
        let page = hedc
            .web()
            .handle(&HttpRequest::get("/hedc/catalogs", "1.2.3.4"));
        assert_eq!(page.status, 200);

        // Analyze through the PL.
        hedc.dm()
            .create_user("u", "pw", "sci", Rights::SCIENTIST)
            .unwrap();
        let cookie = hedc.dm().login("u", "pw", "ip").unwrap();
        let session = hedc
            .dm()
            .session("ip", cookie, SessionKind::Analysis)
            .unwrap();
        let hle = hedc
            .dm()
            .services()
            .query(&session, hedc_metadb::Query::table("hle").limit(1))
            .unwrap()
            .rows[0][0]
            .as_int()
            .unwrap();
        let outcome = hedc
            .pl()
            .submit_sync(
                session,
                RequestSpec::new("lightcurve", AnalysisParams::window(0, 300_000), hle),
            )
            .unwrap();
        assert!(outcome.ana_id() > 0);
        hedc.shutdown();
    }

    #[test]
    fn directory_backed_archives() {
        let dir = std::env::temp_dir().join(format!("hedc-core-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = HedcConfig::default();
        config.archives[0].directory = Some(dir.to_string_lossy().to_string());
        let hedc = Hedc::start(config).unwrap();
        hedc.load_telemetry(&small_gen(), usize::MAX).unwrap();
        // Raw FITS files are real files on disk.
        let entries: Vec<_> = std::fs::read_dir(dir.join("raw")).unwrap().collect();
        assert!(!entries.is_empty());
        hedc.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn partial_failure_still_accounts_for_every_unit() {
        // Phase 1: a full load on an unconstrained node measures how many
        // raw-archive bytes the workload needs.
        let telemetry = generate(&small_gen());
        let probe = Hedc::start(HedcConfig::default()).unwrap();
        let full = probe.load_generated(&telemetry, 2000).unwrap();
        assert!(full.units > 1, "need multiple units to observe partiality");
        assert_eq!(full.failed, 0);
        let raw = probe.config().raw_archive();
        let raw_used = probe
            .dm()
            .io
            .files
            .statuses()
            .into_iter()
            .find(|s| s.id == raw)
            .unwrap()
            .used;
        probe.shutdown();

        // Phase 2: the same load against a raw archive one byte too small.
        // The trailing unit's FITS store hits the capacity wall; the loader
        // used to abort with that error and lose the whole tally. Now every
        // unit is accounted for and the successful prefix is preserved.
        let mut cfg = HedcConfig::default();
        cfg.archives
            .iter_mut()
            .find(|a| a.id == raw)
            .unwrap()
            .capacity = raw_used - 1;
        let hedc = Hedc::start(cfg).unwrap();
        let report = hedc.load_generated(&telemetry, 2000).unwrap();
        assert!(report.failed >= 1);
        assert!(report.units >= 1);
        assert_eq!(report.units + report.failed, full.units);
        assert!(report.photons < full.photons);
        hedc.shutdown();
    }

    #[test]
    fn config_snapshot_is_stable() {
        let hedc = Hedc::start(HedcConfig::default()).unwrap();
        let json = hedc.config().to_json();
        assert!(json.contains("bulk-disk"));
        hedc.shutdown();
    }
}
