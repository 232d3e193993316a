//! Single-flight coalescing (§3.5): concurrent identical submits execute
//! the analysis exactly once, and cancellation promotes a waiter to leader
//! instead of killing the group. Seeded (`HEDC_TEST_SEED` replays the
//! submit jitter).

mod common;

use common::{any_hle, clients, dm_with_data, SlowCount, WINDOW};
use hedc_analysis::{AlgorithmRegistry, AnalysisParams};
use hedc_pl::{PlConfig, PlError, ProcessingLogic, RequestSpec};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

#[test]
fn concurrent_identical_submits_execute_exactly_once() {
    let dm = dm_with_data();
    let session = dm.import_session();
    let hle = any_hle(&dm, &session);
    let (alg, runs) = SlowCount::new(Duration::from_millis(150));
    let registry = Arc::new(AlgorithmRegistry::with_builtins());
    registry.register(alg);
    let pl = ProcessingLogic::start(
        Arc::clone(&dm),
        registry,
        PlConfig {
            servers: 2,
            dispatchers: 4,
            ..PlConfig::default()
        },
    );

    // N identical submits racing the leader's 150 ms execution. The jitter
    // between submits is seeded so a failing interleaving replays.
    let mut jitter = clients();
    const N: usize = 8;
    let mut receivers = Vec::with_capacity(N);
    for _ in 0..N {
        let spec = RequestSpec::new("slowcount", AnalysisParams::window(WINDOW.0, WINDOW.1), hle);
        receivers.push(pl.submit_async(Arc::clone(&session), spec).1);
        std::thread::sleep(Duration::from_micros(jitter.below(2_000)));
    }
    let outcomes: Vec<_> = receivers
        .into_iter()
        .map(|rx| rx.recv().unwrap().unwrap())
        .collect();

    // Exactly one execution, one computed outcome, one shared ana_id.
    assert_eq!(runs.load(Ordering::SeqCst), 1, "duplicates recomputed");
    let computed = outcomes.iter().filter(|o| !o.was_reused()).count();
    assert_eq!(computed, 1, "exactly one member sees the computed outcome");
    let ana = outcomes[0].ana_id();
    for o in &outcomes {
        assert_eq!(o.ana_id(), ana, "all members share one ana tuple");
    }
    assert!(
        hedc_obs::global().counter_value("pl.coalesce.attached") > 0,
        "duplicates attached rather than enqueueing"
    );
    pl.shutdown();
}

#[test]
fn cancelling_the_leader_promotes_a_waiter() {
    let dm = dm_with_data();
    let session = dm.import_session();
    let hle = any_hle(&dm, &session);
    let (alg, runs) = SlowCount::new(Duration::from_millis(400));
    let registry = Arc::new(AlgorithmRegistry::with_builtins());
    registry.register(alg);
    let pl = ProcessingLogic::start(
        Arc::clone(&dm),
        registry,
        PlConfig {
            servers: 1,
            dispatchers: 1,
            ..PlConfig::default()
        },
    );
    let promotions_before = hedc_obs::global().counter_value("pl.coalesce.promotions");

    let spec = || {
        RequestSpec::new(
            "slowcount",
            AnalysisParams::window(WINDOW.0, WINDOW.0 + 60_000),
            hle,
        )
    };
    let (leader_state, leader_rx) = pl.submit_async(Arc::clone(&session), spec());
    let (_waiter_state, waiter_rx) = pl.submit_async(Arc::clone(&session), spec());

    // Cancel the leader mid-execution; the waiter's work must survive.
    std::thread::sleep(Duration::from_millis(100));
    leader_state.cancel();

    let leader_result = leader_rx.recv().unwrap();
    assert!(
        matches!(leader_result, Err(PlError::Cancelled)),
        "cancelled leader gets Cancelled, got {leader_result:?}"
    );
    let waiter_outcome = waiter_rx.recv().unwrap().unwrap();
    assert!(
        !waiter_outcome.was_reused(),
        "promoted waiter inherits the computed outcome"
    );
    assert_eq!(runs.load(Ordering::SeqCst), 1, "the group executed once");
    assert!(
        hedc_obs::global().counter_value("pl.coalesce.promotions") > promotions_before,
        "leader promotion was recorded"
    );
    pl.shutdown();
}
