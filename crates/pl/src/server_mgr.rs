//! The IDL server manager (§5.1).
//!
//! "Multiple native IDL interpreters are managed (start, stop, restart). It
//! provides the possibility to invoke IDL routines synchronously and
//! asynchronously and implements error handling (timeout, resource drain)."
//! Servers "can be dynamically added and removed as needed without halting
//! the system", and interactions are "self-recovering and tolerate failure
//! and restart".

use crate::error::{PlError, PlResult};
use hedc_analysis::{
    AnalysisError, AnalysisKind, AnalysisParams, AnalysisProduct, AnalysisServer, ServerState,
};
use hedc_filestore::PhotonList;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Manager statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MgrStats {
    /// Jobs that completed successfully.
    pub completed: u64,
    /// Timeouts observed (server killed + restarted).
    pub timeouts: u64,
    /// Server crashes recovered by restart.
    pub crashes_recovered: u64,
    /// Jobs that failed after all retries.
    pub exhausted: u64,
}

/// Manages a dynamic pool of [`AnalysisServer`]s.
pub struct ServerManager {
    servers: RwLock<Vec<Arc<AnalysisServer>>>,
    next_id: AtomicU32,
    timeout: Duration,
    max_retries: u32,
    completed: AtomicU64,
    timeouts: AtomicU64,
    crashes: AtomicU64,
    exhausted: AtomicU64,
}

impl ServerManager {
    /// Start a manager with `count` servers. `timeout` bounds each run;
    /// `max_retries` bounds recovery attempts per job.
    pub fn start(count: usize, timeout: Duration, max_retries: u32) -> Self {
        let mgr = ServerManager {
            servers: RwLock::new(Vec::new()),
            next_id: AtomicU32::new(0),
            timeout,
            max_retries,
            completed: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            crashes: AtomicU64::new(0),
            exhausted: AtomicU64::new(0),
        };
        for _ in 0..count {
            mgr.add_server();
        }
        mgr
    }

    /// Dynamically add a server (§5.1: "dynamically added ... without
    /// halting the system"). Returns its id.
    pub fn add_server(&self) -> u32 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.servers
            .write()
            .push(Arc::new(AnalysisServer::start(id)));
        id
    }

    /// Dynamically remove a server by id (kills its worker).
    pub fn remove_server(&self, id: u32) -> bool {
        let mut servers = self.servers.write();
        if let Some(pos) = servers.iter().position(|s| s.id == id) {
            let s = servers.remove(pos);
            s.kill();
            true
        } else {
            false
        }
    }

    /// Number of managed servers.
    pub fn server_count(&self) -> usize {
        self.servers.read().len()
    }

    /// Per-server states (for the global directory).
    pub fn states(&self) -> Vec<(u32, ServerState)> {
        self.servers
            .read()
            .iter()
            .map(|s| (s.id, s.state()))
            .collect()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> MgrStats {
        MgrStats {
            completed: self.completed.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            crashes_recovered: self.crashes.load(Ordering::Relaxed),
            exhausted: self.exhausted.load(Ordering::Relaxed),
        }
    }

    /// Fault-injection access (tests and failure benches): the faults of
    /// server `idx` in registration order.
    pub fn fault_plan(&self, idx: usize) -> Option<Arc<hedc_analysis::FaultPlan>> {
        self.servers.read().get(idx).map(|s| Arc::clone(&s.faults))
    }

    /// Run a job with full recovery: pick an idle server (restarting dead
    /// ones on the way), run with timeout; on timeout kill + restart and
    /// retry; on crash restart and retry; give up after `max_retries`.
    pub fn run(
        &self,
        kind: AnalysisKind,
        photons: Arc<PhotonList>,
        params: AnalysisParams,
    ) -> PlResult<AnalysisProduct> {
        let mut attempts = 0u32;
        loop {
            let server = self.acquire_server()?;
            match server.run_sync(kind, Arc::clone(&photons), params.clone(), self.timeout) {
                Ok(product) => {
                    self.completed.fetch_add(1, Ordering::Relaxed);
                    return Ok(product);
                }
                Err(AnalysisError::TimedOut) => {
                    self.timeouts.fetch_add(1, Ordering::Relaxed);
                    hedc_obs::emit(
                        hedc_obs::events::kind::ANALYSIS_TIMEOUT,
                        format!("server {} timed out after {:?}", server.id, self.timeout),
                    );
                    server.kill();
                    server.restart();
                    hedc_obs::emit(
                        hedc_obs::events::kind::ANALYSIS_RESTART,
                        format!("server {} restarted after timeout", server.id),
                    );
                }
                Err(AnalysisError::ServerDied) => {
                    self.crashes.fetch_add(1, Ordering::Relaxed);
                    server.restart();
                    hedc_obs::emit(
                        hedc_obs::events::kind::ANALYSIS_RESTART,
                        format!("server {} restarted after crash", server.id),
                    );
                }
                Err(AnalysisError::BadParams(msg)) if msg.starts_with("server busy") => {
                    // Lost a race for the server; try again without
                    // consuming a retry.
                    std::thread::yield_now();
                    continue;
                }
                // Real parameter errors are the caller's problem, no retry.
                Err(e) => return Err(PlError::Analysis(e)),
            }
            attempts += 1;
            if attempts > self.max_retries {
                self.exhausted.fetch_add(1, Ordering::Relaxed);
                return Err(PlError::Analysis(AnalysisError::ServerDied));
            }
        }
    }

    /// Find an idle server, restarting any dead ones encountered.
    fn acquire_server(&self) -> PlResult<Arc<AnalysisServer>> {
        // Bounded wait: servers may all be momentarily busy.
        for _ in 0..10_000 {
            {
                let servers = self.servers.read();
                if servers.is_empty() {
                    return Err(PlError::NoCapacity);
                }
                for s in servers.iter() {
                    match s.state() {
                        ServerState::Idle => return Ok(Arc::clone(s)),
                        ServerState::Dead => {
                            s.restart();
                            return Ok(Arc::clone(s));
                        }
                        ServerState::Busy => {}
                    }
                }
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Err(PlError::NoCapacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hedc_dm::testkit::Seed;
    use std::sync::atomic::Ordering as AtomicOrdering;

    fn photons(n: usize) -> Arc<PhotonList> {
        let mut p = PhotonList::default();
        for i in 0..n {
            p.times_ms.push(i as u64);
            p.energies_kev.push(10.0);
            p.detectors.push((i % 9) as u8);
        }
        Arc::new(p)
    }

    #[test]
    fn runs_jobs_across_servers() {
        let mgr = ServerManager::start(2, Duration::from_secs(10), 2);
        for _ in 0..5 {
            let out = mgr
                .run(
                    AnalysisKind::Histogram,
                    photons(500),
                    AnalysisParams::window(0, 1000),
                )
                .unwrap();
            assert_eq!(out.type_label(), "histogram");
        }
        assert_eq!(mgr.stats().completed, 5);
    }

    /// Five jobs on one server, a fault armed before the one the run's
    /// `"workflow-crash"` stream picks; every job must still complete.
    fn five_jobs_with_one_fault(
        timeout: Duration,
        arm: impl Fn(&hedc_analysis::FaultPlan),
    ) -> MgrStats {
        let mgr = ServerManager::start(1, timeout, 3);
        let victim = Seed::from_env(0x5EED_C0DE)
            .stream("workflow-crash")
            .below(5);
        for job in 0..5 {
            if job == victim {
                arm(&mgr.fault_plan(0).unwrap());
            }
            let out = mgr.run(
                AnalysisKind::Histogram,
                photons(100),
                AnalysisParams::window(0, 1000),
            );
            assert!(out.is_ok(), "job {job} (fault on job {victim}): {out:?}");
        }
        assert_eq!(mgr.stats().completed, 5);
        mgr.stats()
    }

    #[test]
    fn recovers_from_crash() {
        let s = five_jobs_with_one_fault(Duration::from_secs(10), |faults| {
            faults.crash_next.store(true, AtomicOrdering::SeqCst)
        });
        assert_eq!(s.crashes_recovered, 1);
    }

    #[test]
    fn recovers_from_hang_via_timeout() {
        let s = five_jobs_with_one_fault(Duration::from_millis(100), |faults| {
            faults.hang_next_ms.store(5_000, AtomicOrdering::SeqCst)
        });
        assert_eq!(s.timeouts, 1);
    }

    #[test]
    fn gives_up_after_retries() {
        let mgr = ServerManager::start(1, Duration::from_millis(50), 1);
        let faults = mgr.fault_plan(0).unwrap();
        // Two consecutive hangs exceed max_retries = 1... but the flag
        // resets per job, so re-arm after each failure via a crash loop:
        faults.crash_next.store(true, AtomicOrdering::SeqCst);
        // First attempt crashes; re-arm so the retry crashes too.
        // (Racy re-arm is fine: worst case the job succeeds and we assert
        // nothing; use a hang long enough to observe deterministically.)
        faults.hang_next_ms.store(10_000, AtomicOrdering::SeqCst);
        let out = mgr.run(
            AnalysisKind::Histogram,
            photons(10),
            AnalysisParams::window(0, 1000),
        );
        assert!(out.is_err());
        assert_eq!(mgr.stats().exhausted, 1);
    }

    #[test]
    fn parameter_errors_do_not_retry() {
        let mgr = ServerManager::start(1, Duration::from_secs(5), 3);
        let out = mgr.run(
            AnalysisKind::Imaging,
            photons(10),
            AnalysisParams::window(5, 5), // empty window
        );
        assert!(matches!(
            out,
            Err(PlError::Analysis(AnalysisError::BadParams(_)))
        ));
        assert_eq!(mgr.stats().exhausted, 0);
    }

    #[test]
    fn dynamic_add_remove() {
        let mgr = ServerManager::start(1, Duration::from_secs(5), 1);
        let id = mgr.add_server();
        assert_eq!(mgr.server_count(), 2);
        assert!(mgr.remove_server(id));
        assert!(!mgr.remove_server(id));
        assert_eq!(mgr.server_count(), 1);
        // Still functional.
        assert!(mgr
            .run(
                AnalysisKind::Histogram,
                photons(10),
                AnalysisParams::window(0, 100)
            )
            .is_ok());
    }

    #[test]
    fn no_servers_is_no_capacity() {
        let mgr = ServerManager::start(0, Duration::from_secs(1), 1);
        assert!(matches!(
            mgr.run(
                AnalysisKind::Histogram,
                photons(10),
                AnalysisParams::window(0, 100)
            ),
            Err(PlError::NoCapacity)
        ));
    }

    #[test]
    fn concurrent_jobs_share_the_pool() {
        let mgr = Arc::new(ServerManager::start(3, Duration::from_secs(10), 2));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let m = Arc::clone(&mgr);
            handles.push(std::thread::spawn(move || {
                for _ in 0..5 {
                    m.run(
                        AnalysisKind::Spectrum,
                        photons(200),
                        AnalysisParams::window(0, 1000),
                    )
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(mgr.stats().completed, 20);
    }
}
