//! Weighted-fair overload scheduling: a greedy session flooding the queue
//! cannot starve a light session. Completion order is observed through ana
//! id allocation (ids are minted at commit), which makes the assertion
//! timing-free; a wall-clock bound rides along as the p99 claim. Seeded
//! (`HEDC_TEST_SEED` replays the window jitter).

mod common;

use common::{any_hle, clients, dm_with_data, WINDOW};
use hedc_analysis::{AlgorithmRegistry, AnalysisParams};
use hedc_dm::{Rights, SessionKind};
use hedc_pl::{PlConfig, ProcessingLogic, RequestSpec};
use std::sync::Arc;
use std::time::Instant;

#[test]
fn greedy_session_cannot_starve_a_light_one() {
    let dm = dm_with_data();
    let import = dm.import_session();
    let hle = any_hle(&dm, &import);

    // Two real users, two sessions: fairness domains are per user.
    dm.create_user("greedy", "pw", "sci", Rights::SCIENTIST)
        .unwrap();
    dm.create_user("light", "pw", "sci", Rights::SCIENTIST)
        .unwrap();
    let g_cookie = dm.login("greedy", "pw", "10.0.0.1").unwrap();
    let l_cookie = dm.login("light", "pw", "10.0.0.2").unwrap();
    let greedy = dm
        .session("10.0.0.1", g_cookie, SessionKind::Analysis)
        .unwrap();
    let light = dm
        .session("10.0.0.2", l_cookie, SessionKind::Analysis)
        .unwrap();

    // One dispatcher serializes completions so ana ids record the schedule.
    let pl = ProcessingLogic::start(
        Arc::clone(&dm),
        Arc::new(AlgorithmRegistry::with_builtins()),
        PlConfig {
            servers: 1,
            dispatchers: 1,
            ..PlConfig::default()
        },
    );

    let mut clients = clients();
    let mut jitter = || clients.below(500);
    // Occupy the dispatcher so every later submit enqueues behind it.
    let blocker = RequestSpec::new(
        "imaging",
        AnalysisParams::window(WINDOW.0, WINDOW.1).with("grid", 32.0),
        hle,
    );
    let (_, rx_blocker) = pl.submit_async(Arc::clone(&greedy), blocker);

    // The greedy session floods 20 distinct-window jobs...
    const GREEDY_JOBS: usize = 20;
    const LIGHT_JOBS: usize = 4;
    let mut greedy_rx = Vec::new();
    for i in 0..GREEDY_JOBS as u64 {
        let off = WINDOW.0 + i * 2_000 + jitter();
        let spec = RequestSpec::new("histogram", AnalysisParams::window(off, off + 30_000), hle);
        greedy_rx.push(pl.submit_async(Arc::clone(&greedy), spec).1);
    }
    // ...then the light session asks for a handful.
    let started = Instant::now();
    let mut light_rx = Vec::new();
    for i in 0..LIGHT_JOBS as u64 {
        let off = WINDOW.0 + 300_000 + i * 2_000 + jitter();
        let spec = RequestSpec::new("histogram", AnalysisParams::window(off, off + 30_000), hle);
        light_rx.push(pl.submit_async(Arc::clone(&light), spec).1);
    }

    let light_ids: Vec<i64> = light_rx
        .into_iter()
        .map(|rx| rx.recv().unwrap().unwrap().ana_id())
        .collect();
    let light_done = started.elapsed();
    let greedy_ids: Vec<i64> = greedy_rx
        .into_iter()
        .map(|rx| rx.recv().unwrap().unwrap().ana_id())
        .collect();
    let greedy_done = started.elapsed();
    let _ = rx_blocker.recv().unwrap().unwrap();

    // Fair queueing alternates lanes: every light job completes within the
    // first few pops after the blocker, regardless of the 20-deep greedy
    // backlog. Bound: at most 8 greedy completions may precede the last
    // light completion (strict alternation would allow ~4).
    let last_light = *light_ids.iter().max().unwrap();
    let greedy_before = greedy_ids.iter().filter(|&&id| id < last_light).count();
    assert!(
        greedy_before <= 8,
        "light session starved: {greedy_before}/{GREEDY_JOBS} greedy jobs \
         completed before its last job (light {light_ids:?}, greedy {greedy_ids:?})"
    );
    // The p99 view of the same fact: the light session's worst-case wait is
    // well under the greedy session's (which must drain its own backlog).
    assert!(
        light_done < greedy_done,
        "light p99 {light_done:?} not better than greedy drain {greedy_done:?}"
    );
    pl.shutdown();
}
