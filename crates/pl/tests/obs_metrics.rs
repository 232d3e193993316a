//! The PL's observability contract: reuse and coalescing metrics are
//! registered in the **global** `hedc_obs` registry — the same registry
//! `/hedc/stats` and `/hedc/stats.json` render under `== processing ==` —
//! so redundancy elimination is visible operationally with no extra wiring.

mod common;

use common::{any_hle, dm_with_data, SlowCount, WINDOW};
use hedc_analysis::{AlgorithmRegistry, AnalysisParams};
use hedc_pl::{PlConfig, ProcessingLogic, RequestSpec};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn pl_metrics_surface_in_the_global_registry() {
    let dm = dm_with_data();
    let session = dm.import_session();
    let hle = any_hle(&dm, &session);
    let (alg, _runs) = SlowCount::new(Duration::from_millis(120));
    let registry = Arc::new(AlgorithmRegistry::with_builtins());
    registry.register(alg);
    let pl = ProcessingLogic::start(
        Arc::clone(&dm),
        registry,
        PlConfig {
            servers: 2,
            dispatchers: 2,
            ..PlConfig::default()
        },
    );

    // One miss (computes), one hit (warm store), one coalesced pair.
    let spec = || {
        RequestSpec::new(
            "histogram",
            AnalysisParams::window(WINDOW.0, WINDOW.0 + 60_000),
            hle,
        )
    };
    assert!(!pl
        .submit_sync(Arc::clone(&session), spec())
        .unwrap()
        .was_reused());
    assert!(pl
        .submit_sync(Arc::clone(&session), spec())
        .unwrap()
        .was_reused());
    let slow = || RequestSpec::new("slowcount", AnalysisParams::window(WINDOW.0, WINDOW.1), hle);
    let (_, rx_a) = pl.submit_async(Arc::clone(&session), slow());
    let (_, rx_b) = pl.submit_async(Arc::clone(&session), slow());
    rx_a.recv().unwrap().unwrap();
    rx_b.recv().unwrap().unwrap();

    let snap = hedc_obs::global().snapshot();
    for metric in [
        "pl.reuse.hit",
        "pl.reuse.miss",
        "pl.reuse.stale",
        "pl.reuse.coalesced",
        "pl.coalesce.attached",
        "pl.coalesce.promotions",
        "pl.inflight_groups",
        "pl.queue.depth",
        "pl.queue.sessions",
    ] {
        assert!(
            snap.counter(metric).is_some()
                || snap.gauge(metric).is_some()
                || snap.histogram(metric).is_some(),
            "{metric} missing from the global obs registry"
        );
    }
    // Activity actually flowed through the registered handles.
    let obs = hedc_obs::global();
    assert!(obs.counter_value("pl.reuse.hit") > 0);
    assert!(obs.counter_value("pl.reuse.miss") > 0);
    assert!(obs.counter_value("pl.coalesce.attached") > 0);
    assert!(obs.counter_value("pl.reuse.coalesced") > 0);
    pl.shutdown();
}
