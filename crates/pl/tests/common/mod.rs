//! Shared fixture for the PL integration suites: a bootstrapped DM with 20
//! minutes of synthetic telemetry, plus a deliberately slow in-process
//! algorithm whose execution count makes "exactly once" assertable.

#![allow(dead_code)] // each test binary uses a subset of this fixture

use hedc_analysis::{Algorithm, AnalysisError, AnalysisParams, AnalysisProduct};
use hedc_dm::testkit::{self, Seed, Stream};
use hedc_dm::{Dm, Session};
use hedc_filestore::PhotonList;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The loaded telemetry window, mission ms.
pub const WINDOW: (u64, u64) = (0, 20 * 60 * 1000);

/// The `"clients"` stream of the run's seed: submit jitter and windows.
pub fn clients() -> Stream {
    Seed::from_env(0x5EED_C0DE).stream("clients")
}

/// Bootstrapped DM with [`WINDOW`] of telemetry ingested at launch
/// calibration (v1).
pub fn dm_with_data() -> Arc<Dm> {
    testkit::dm_with_telemetry(WINDOW.1 / 60_000)
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
