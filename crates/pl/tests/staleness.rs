//! Versioned result reuse: a recalibration (§3.1) must invalidate cached
//! analyses. The unversioned `find_existing_analysis` lookup (since deleted)
//! silently served results computed under a superseded calibration; the
//! versioned store recomputes instead. This is the regression for that
//! wrong-answer bug.

mod common;

use common::{any_hle, dm_with_data, WINDOW};
use hedc_analysis::{AlgorithmRegistry, AnalysisParams};
use hedc_events::Calibration;
use hedc_pl::{PlConfig, ProcessingLogic, RequestSpec};
use std::sync::Arc;

#[test]
fn recalibration_invalidates_cached_results() {
    let dm = dm_with_data();
    let session = dm.import_session();
    let hle = any_hle(&dm, &session);
    let pl = ProcessingLogic::start(
        Arc::clone(&dm),
        Arc::new(AlgorithmRegistry::with_builtins()),
        PlConfig {
            servers: 2,
            dispatchers: 2,
            ..PlConfig::default()
        },
    );
    let obs = hedc_obs::global();
    let spec = || {
        RequestSpec::new(
            "histogram",
            AnalysisParams::window(WINDOW.0, WINDOW.0 + 120_000).with("bins", 32.0),
            hle,
        )
    };

    // First submit computes; identical second submit is a warm hit.
    let first = pl.submit_sync(Arc::clone(&session), spec()).unwrap();
    assert!(!first.was_reused(), "first submit must compute");
    let ana_v1 = first.ana_id();
    let hits_before = obs.counter_value("pl.reuse.hit");
    let warm = pl.submit_sync(Arc::clone(&session), spec()).unwrap();
    assert!(warm.was_reused(), "identical resubmit reuses");
    assert_eq!(warm.ana_id(), ana_v1);
    assert!(obs.counter_value("pl.reuse.hit") > hits_before);

    // Recalibrate the mission (launch gain drifted): every v1 unit is
    // re-packaged at v2 and the lineage version bumps.
    let v1 = Calibration::launch();
    let v2 = v1.recalibrated(0.05, 0.0);
    let report = dm.versioning().apply_recalibration(&v1, &v2).unwrap();
    assert!(report.units_recalibrated > 0, "fixture has v1 units");

    // The cached entry is now stale: the same submit must recompute
    // against the v2 photons instead of serving the v1 answer.
    let stale_before = obs.counter_value("pl.reuse.stale");
    let recomputed = pl.submit_sync(Arc::clone(&session), spec()).unwrap();
    assert!(
        !recomputed.was_reused(),
        "post-recalibration submit served a stale cached result"
    );
    let ana_v2 = recomputed.ana_id();
    assert_ne!(ana_v2, ana_v1, "recompute mints a new analysis");
    assert!(
        obs.counter_value("pl.reuse.stale") > stale_before,
        "staleness eviction was recorded"
    );

    // And the store re-warms at the new lineage.
    let warm2 = pl.submit_sync(Arc::clone(&session), spec()).unwrap();
    assert!(warm2.was_reused(), "v2 result is reusable");
    assert_eq!(warm2.ana_id(), ana_v2);
    pl.shutdown();
}
