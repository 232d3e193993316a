//! # hedc-pl — the Processing Logic component
//!
//! The second half of HEDC's middle tier (paper §5.1): "the goal of the
//! processing logic (PL) is to hide external processing environments behind
//! an interface that the rest of the system can use to request external
//! processing."
//!
//! Services, exactly as the paper lists them:
//!
//! * **Frontend** ([`ProcessingLogic`]) — session/request controller,
//!   weighted-fair scheduling across sessions (per-session lanes with
//!   in-flight quotas; priority classes weight each lane's share), and the
//!   4-phase request workflow: *estimation* ([`estimate`], returns
//!   immediately with an [`ExecutionPlan`] whose `predicted_wait_ms`
//!   reflects the live backlog), *execution* (on the managed interpreter
//!   pool, sync or async), *delivery* (product → result files), *commit*
//!   (write-back through the DM). Requests are cancellable at any phase.
//!   The §3.5 redundancy check runs before any CPU is spent: duplicate
//!   in-flight requests coalesce onto one execution (single-flight), and
//!   committed results are reused through a result store invalidated by
//!   calibration lineage (§3.1) — never served stale after recalibration.
//! * **IDL server manager** ([`ServerManager`]) — starts/stops/restarts the
//!   deliberately rudimentary interpreter servers from `hedc-analysis`,
//!   with timeout-kill-restart recovery and dynamic add/remove.
//! * **Global directory** ([`GlobalDirectory`]) — service registry with
//!   heartbeat-based liveness.
//!
//! ```no_run
//! use hedc_pl::{PlConfig, ProcessingLogic, RequestSpec, Priority};
//! use hedc_analysis::{AlgorithmRegistry, AnalysisParams};
//! use hedc_dm::{Dm, DmConfig};
//! use hedc_filestore::{Archive, ArchiveTier, FileStore};
//! use std::sync::Arc;
//!
//! let files = Arc::new(FileStore::new());
//! files.register(Archive::in_memory(1, "raw", ArchiveTier::OnlineDisk, 1 << 30));
//! files.register(Archive::in_memory(2, "derived", ArchiveTier::OnlineRaid, 1 << 30));
//! let dm = Dm::bootstrap(files, DmConfig::default()).unwrap();
//! let registry = Arc::new(AlgorithmRegistry::with_builtins());
//! let pl = ProcessingLogic::start(Arc::clone(&dm), registry, PlConfig::default());
//!
//! let session = dm.import_session();
//! let spec = RequestSpec::new("lightcurve", AnalysisParams::window(0, 60_000), 1)
//!     .priority(Priority::Interactive);
//! let outcome = pl.submit_sync(session, spec).unwrap();
//! println!("analysis {} done", outcome.ana_id());
//! pl.shutdown();
//! ```

#![warn(missing_docs)]

mod directory;
mod error;
mod estimate;
mod frontend;
mod request;
mod sched;
mod server_mgr;
mod singleflight;

pub use directory::{GlobalDirectory, ServiceEntry};
pub use error::{PlError, PlResult};
pub use estimate::{estimate, ExecTarget, ExecutionPlan, CLIENT_MFLOPS, SERVER_MFLOPS};
pub use frontend::{Outcome, PlConfig, ProcessingLogic};
pub use request::{Phase, Priority, RequestSpec, RequestState};
pub use server_mgr::{MgrStats, ServerManager};

#[cfg(test)]
mod tests {
    use super::*;
    use hedc_analysis::{AlgorithmRegistry, AnalysisParams};
    use hedc_dm::{Dm, Session};
    use std::sync::Arc;

    struct Fx {
        dm: Arc<Dm>,
        pl: Arc<ProcessingLogic>,
        session: Arc<Session>,
        window: (u64, u64),
    }

    fn fixture() -> Fx {
        let dm = hedc_dm::testkit::dm_with_telemetry(20);
        let session = dm.import_session();
        let registry = Arc::new(AlgorithmRegistry::with_builtins());
        let pl = ProcessingLogic::start(
            Arc::clone(&dm),
            registry,
            PlConfig {
                servers: 2,
                dispatchers: 2,
                ..PlConfig::default()
            },
        );
        Fx {
            dm,
            pl,
            session,
            window: (0, 20 * 60 * 1000),
        }
    }

    fn any_hle(fx: &Fx) -> i64 {
        let r = fx
            .dm
            .services()
            .query(&fx.session, hedc_metadb::Query::table("hle").limit(1))
            .unwrap();
        r.rows[0][0].as_int().unwrap()
    }

    #[test]
    fn end_to_end_lightcurve_request() {
        let fx = fixture();
        let hle = any_hle(&fx);
        let spec = RequestSpec::new(
            "lightcurve",
            AnalysisParams::window(fx.window.0, fx.window.1).with("bin_ms", 4000.0),
            hle,
        );
        let outcome = fx.pl.submit_sync(Arc::clone(&fx.session), spec).unwrap();
        assert!(!outcome.was_reused());
        let Outcome::Computed { product, plan, .. } = &outcome else {
            panic!()
        };
        assert_eq!(product.type_label(), "series");
        assert!(plan.photon_count > 0);
        // Result files resolvable by name.
        let files = fx.pl.result_files(&fx.session, outcome.ana_id()).unwrap();
        assert_eq!(files.len(), 3, "{files:?}"); // result + params + log
        fx.pl.shutdown();
    }

    #[test]
    fn redundant_request_is_reused() {
        let fx = fixture();
        let hle = any_hle(&fx);
        let params = AnalysisParams::window(fx.window.0, fx.window.0 + 120_000);
        let spec = RequestSpec::new("histogram", params.clone(), hle);
        let first = fx.pl.submit_sync(Arc::clone(&fx.session), spec).unwrap();
        let second = fx
            .pl
            .submit_sync(
                Arc::clone(&fx.session),
                RequestSpec::new("histogram", params.clone(), hle),
            )
            .unwrap();
        assert!(second.was_reused());
        assert_eq!(second.ana_id(), first.ana_id());
        // Forced recomputation bypasses the cache.
        let third = fx
            .pl
            .submit_sync(
                Arc::clone(&fx.session),
                RequestSpec::new("histogram", params, hle).force(),
            )
            .unwrap();
        assert!(!third.was_reused());
        assert_ne!(third.ana_id(), first.ana_id());
        fx.pl.shutdown();
    }

    #[test]
    fn estimation_phase_and_cost_limit() {
        let fx = fixture();
        let hle = any_hle(&fx);
        let spec = RequestSpec::new(
            "imaging",
            AnalysisParams::window(fx.window.0, fx.window.1).with("grid", 128.0),
            hle,
        );
        let plan = fx.pl.estimate_only(&spec, ExecTarget::Server).unwrap();
        assert!(plan.estimated_ms > 0);
        assert!(plan.photon_count > 0);
        // A tight cost limit rejects in the estimation phase.
        let err = fx
            .pl
            .submit_sync(Arc::clone(&fx.session), spec.cost_limit_ms(1))
            .unwrap_err();
        assert!(matches!(err, PlError::TooExpensive { .. }));
        fx.pl.shutdown();
    }

    #[test]
    fn unknown_kind_rejected() {
        let fx = fixture();
        let err = fx
            .pl
            .submit_sync(
                Arc::clone(&fx.session),
                RequestSpec::new("warp-field", AnalysisParams::window(0, 100), 1),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            PlError::Analysis(hedc_analysis::AnalysisError::UnknownKind(_))
        ));
        fx.pl.shutdown();
    }

    #[test]
    fn priority_orders_queue() {
        // With one dispatcher and a slow first job, a later interactive
        // request overtakes earlier batch requests.
        let fx = fixture();
        let hle = any_hle(&fx);
        let pl = ProcessingLogic::start(
            Arc::clone(&fx.dm),
            Arc::new(AlgorithmRegistry::with_builtins()),
            PlConfig {
                servers: 1,
                dispatchers: 1,
                ..PlConfig::default()
            },
        );
        let blocker = RequestSpec::new(
            "spectrum",
            AnalysisParams::window(fx.window.0, fx.window.1),
            hle,
        );
        let (_, rx_block) = pl.submit_async(Arc::clone(&fx.session), blocker);
        // Queue three batch then one interactive request with distinct windows.
        let mut receivers = Vec::new();
        for i in 0..3u64 {
            let spec = RequestSpec::new(
                "histogram",
                AnalysisParams::window(fx.window.0 + i * 1000, fx.window.0 + 60_000 + i * 1000),
                hle,
            )
            .priority(Priority::Batch);
            receivers.push(pl.submit_async(Arc::clone(&fx.session), spec).1);
        }
        let interactive = RequestSpec::new(
            "histogram",
            AnalysisParams::window(fx.window.0 + 777, fx.window.0 + 90_000),
            hle,
        )
        .priority(Priority::Interactive);
        let (_, rx_int) = pl.submit_async(Arc::clone(&fx.session), interactive);

        // Collect completion order via ana creation times.
        let o_block = rx_block.recv().unwrap().unwrap();
        let o_int = rx_int.recv().unwrap().unwrap();
        let batch: Vec<_> = receivers
            .into_iter()
            .map(|rx| rx.recv().unwrap().unwrap())
            .collect();
        // The interactive ana id must precede every batch ana id (ids are
        // allocated in completion order here).
        for b in &batch {
            assert!(
                o_int.ana_id() < b.ana_id(),
                "interactive {} should beat batch {}",
                o_int.ana_id(),
                b.ana_id()
            );
        }
        let _ = o_block;
        pl.shutdown();
        fx.pl.shutdown();
    }

    #[test]
    fn cancellation_before_execution() {
        let fx = fixture();
        let hle = any_hle(&fx);
        // Block the single dispatcher, then cancel a queued request.
        let pl = ProcessingLogic::start(
            Arc::clone(&fx.dm),
            Arc::new(AlgorithmRegistry::with_builtins()),
            PlConfig {
                servers: 1,
                dispatchers: 1,
                ..PlConfig::default()
            },
        );
        let blocker = RequestSpec::new(
            "imaging",
            AnalysisParams::window(fx.window.0, fx.window.0 + 300_000).with("grid", 64.0),
            hle,
        );
        let (_, rx_block) = pl.submit_async(Arc::clone(&fx.session), blocker);
        let victim = RequestSpec::new(
            "histogram",
            AnalysisParams::window(fx.window.0, fx.window.0 + 5_000),
            hle,
        );
        let (state, rx) = pl.submit_async(Arc::clone(&fx.session), victim);
        state.cancel();
        assert!(matches!(rx.recv().unwrap(), Err(PlError::Cancelled)));
        assert_eq!(state.phase(), Phase::Cancelled);
        let _ = rx_block.recv();
        pl.shutdown();
        fx.pl.shutdown();
    }

    #[test]
    fn user_registered_algorithm_runs_in_process() {
        use hedc_analysis::{Algorithm, AnalysisError, AnalysisProduct};
        struct CountAbove;
        impl Algorithm for CountAbove {
            fn name(&self) -> &str {
                "count-above"
            }
            fn run(
                &self,
                photons: &hedc_filestore::PhotonList,
                params: &AnalysisParams,
            ) -> Result<AnalysisProduct, AnalysisError> {
                let cut = params.get_or("cut_kev", 25.0) as f32;
                let n = photons.energies_kev.iter().filter(|&&e| e > cut).count();
                Ok(AnalysisProduct::Histogram {
                    edges: vec![0.0, 1.0],
                    counts: vec![n as u64],
                })
            }
            fn cost_flops(&self, photons: u64, _p: &AnalysisParams) -> f64 {
                photons as f64
            }
        }
        let fx = fixture();
        let registry = Arc::new(AlgorithmRegistry::with_builtins());
        registry.register(Arc::new(CountAbove));
        let pl = ProcessingLogic::start(Arc::clone(&fx.dm), registry, PlConfig::default());
        let hle = any_hle(&fx);
        let outcome = pl
            .submit_sync(
                Arc::clone(&fx.session),
                RequestSpec::new(
                    "count-above",
                    AnalysisParams::window(fx.window.0, fx.window.1).with("cut_kev", 25.0),
                    hle,
                ),
            )
            .unwrap();
        let Outcome::Computed { product, .. } = &outcome else {
            panic!()
        };
        let AnalysisProduct::Histogram { counts, .. } = product else {
            panic!()
        };
        assert!(counts[0] > 0, "an active window has hard photons");
        pl.shutdown();
        fx.pl.shutdown();
    }
}
