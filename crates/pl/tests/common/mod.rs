//! Shared fixture for the PL integration suites: a bootstrapped DM with 20
//! minutes of synthetic telemetry, plus a deliberately slow in-process
//! algorithm whose execution count makes "exactly once" assertable.

#![allow(dead_code)] // each test binary uses a subset of this fixture

use hedc_analysis::{Algorithm, AnalysisError, AnalysisParams, AnalysisProduct};
use hedc_dm::{pipeline, Dm, DmConfig, IngestConfig, IngestOptions, Session};
use hedc_events::{generate, package, GenConfig};
use hedc_filestore::{Archive, ArchiveTier, FileStore, PhotonList};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The loaded telemetry window, mission ms.
pub const WINDOW: (u64, u64) = (0, 20 * 60 * 1000);

/// Deterministic replay: `HEDC_TEST_SEED` pins every seeded choice.
pub fn base_seed() -> u64 {
    std::env::var("HEDC_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5EED_C0DE)
}

/// Bootstrapped DM with telemetry ingested at launch calibration (v1).
pub fn dm_with_data() -> Arc<Dm> {
    let files = Arc::new(FileStore::new());
    files.register(Archive::in_memory(
        1,
        "raw",
        ArchiveTier::OnlineDisk,
        1 << 30,
    ));
    files.register(Archive::in_memory(
        2,
        "derived",
        ArchiveTier::OnlineRaid,
        1 << 30,
    ));
    let dm = Dm::bootstrap(files, DmConfig::default()).unwrap();
    let t = generate(&GenConfig {
        duration_ms: WINDOW.1,
        flares_per_hour: 6.0,
        background_rate: 15.0,
        seed: 4242,
        ..GenConfig::default()
    });
    let session = dm.import_session();
    let cfg = IngestConfig::new(1, 2, dm.extended_catalog);
    let units = package(&t, 200_000, 1);
    let run = pipeline::ingest(&dm.io, &session, &units, &cfg, &IngestOptions::default());
    assert_eq!(run.unwrap().failed, 0);
    dm
}

/// Any HLE id to attach analyses to.
pub fn any_hle(dm: &Dm, session: &Session) -> i64 {
    let r = dm
        .services()
        .query(session, hedc_metadb::Query::table("hle").limit(1))
        .unwrap();
    r.rows[0][0].as_int().unwrap()
}

/// An in-process algorithm that sleeps for a configured delay and counts
/// its executions — slow enough that concurrent duplicates overlap its
/// run, countable enough to prove single-flight executed exactly once.
pub struct SlowCount {
    pub delay: Duration,
    pub runs: Arc<AtomicUsize>,
}

impl SlowCount {
    pub fn new(delay: Duration) -> (Arc<SlowCount>, Arc<AtomicUsize>) {
        let runs = Arc::new(AtomicUsize::new(0));
        (
            Arc::new(SlowCount {
                delay,
                runs: Arc::clone(&runs),
            }),
            runs,
        )
    }
}

impl Algorithm for SlowCount {
    fn name(&self) -> &str {
        "slowcount"
    }

    fn run(
        &self,
        photons: &PhotonList,
        _params: &AnalysisParams,
    ) -> Result<AnalysisProduct, AnalysisError> {
        self.runs.fetch_add(1, Ordering::SeqCst);
        std::thread::sleep(self.delay);
        Ok(AnalysisProduct::Histogram {
            edges: vec![0.0, 1.0],
            counts: vec![photons.times_ms.len() as u64],
        })
    }

    fn cost_flops(&self, photons: u64, _p: &AnalysisParams) -> f64 {
        photons as f64
    }
}
