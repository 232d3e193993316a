//! Router failover under concurrent load (§5.1 "self-recovering ...
//! tolerate failure and restart").
//!
//! N threads hammer a 3-node router while one node flaps down and up.
//! Invariants: no request is ever lost (every call returns Ok), and once
//! the flapping node recovers, load rebalances onto it.
//!
//! The seeded test below drives the same router through [`FaultyDmNode`]
//! injectors instead of wall-clock flapping: the whole fault sequence is a
//! pure function of the printed seed, replayable with
//! `scripts/check.sh --seed <seed>`.

use hedc_dm::testkit::{catalog_node, dm, Seed};
use hedc_dm::{
    Dm, DmError, DmIo, DmNode, DmRouter, FaultCounts, FaultPlan, FaultyDmNode, NameType,
};
use hedc_metadb::Query;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// One catalog row behind the I/O layer.
fn node(label: &str) -> Arc<DmIo> {
    Arc::new(catalog_node(label, 1))
}

/// A node whose only fault is the hard-down toggle.
fn toggled<N: DmNode>(inner: Arc<N>, label: &str) -> Arc<FaultyDmNode<N>> {
    Arc::new(FaultyDmNode::steady(inner, label))
}

#[test]
fn concurrent_load_survives_node_flapping_and_rebalances() {
    const THREADS: usize = 8;
    const REQUESTS_PER_THREAD: usize = 200;

    let a = toggled(node("flap-a"), "flap-a");
    let b = toggled(node("flap-b"), "flap-b");
    let c = toggled(node("flap-c"), "flap-c");
    let router = Arc::new(DmRouter::new(vec![
        a.clone() as Arc<dyn DmNode>,
        b.clone() as Arc<dyn DmNode>,
        c.clone() as Arc<dyn DmNode>,
    ]));

    // One thread flaps node A down/up until the workers finish.
    let stop_flapping = Arc::new(AtomicBool::new(false));
    let flapper = {
        let a = a.clone();
        let stop = Arc::clone(&stop_flapping);
        thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                a.set_down(true);
                thread::sleep(Duration::from_millis(3));
                a.set_down(false);
                thread::sleep(Duration::from_millis(3));
            }
            a.set_down(false);
        })
    };

    let workers: Vec<_> = (0..THREADS)
        .map(|_| {
            let router = Arc::clone(&router);
            thread::spawn(move || {
                let mut ok = 0usize;
                for _ in 0..REQUESTS_PER_THREAD {
                    let r = router
                        .execute_query(&Query::table("catalog"))
                        .expect("failover must absorb a single flapping node");
                    assert_eq!(r.rows.len(), 1);
                    ok += 1;
                }
                ok
            })
        })
        .collect();

    let completed: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
    stop_flapping.store(true, Ordering::SeqCst);
    flapper.join().unwrap();

    // Invariant 1: no request lost.
    assert_eq!(completed, THREADS * REQUESTS_PER_THREAD);

    // The healthy nodes carried the imbalance while A was down.
    let (calls_a, calls_b, calls_c) = (a.counts().passed, b.counts().passed, c.counts().passed);
    assert_eq!(
        (calls_a + calls_b + calls_c) as usize,
        completed,
        "every completed request was served exactly once"
    );
    assert!(calls_b > 0 && calls_c > 0);

    // Invariant 2: after recovery, calls rebalance back onto A.
    let before = a.counts().passed;
    for _ in 0..30 {
        router.execute_query(&Query::table("catalog")).unwrap();
    }
    let gained = a.counts().passed - before;
    // Round-robin over 3 healthy nodes gives A ~10 of 30; allow slack but
    // require genuine participation.
    assert!(gained >= 5, "recovered node got {gained}/30 calls");
}

/// One full failover scenario under seeded injection. Returns the per-node
/// fault tallies, which are a pure function of the seed: the router is
/// driven serially, each request draws exactly one random number per node
/// it touches, and only unavailability/slowness are injected (the router
/// does not fail over `RemoteFailed`, so every request must complete).
fn run_seeded_scenario(seed: Seed) -> Vec<FaultCounts> {
    const REQUESTS: usize = 300;
    let mut faults = seed.stream("node-faults");
    let mut faulty = |label: &str, plan: FaultPlan| {
        Arc::new(FaultyDmNode::new(node(label), label, plan, faults.fork()))
    };
    let nodes: Vec<Arc<FaultyDmNode<DmIo>>> = vec![
        // ~20% unavailable, ~10% slow: the noisy node.
        faulty(
            "det-a",
            FaultPlan::none()
                .unavailable(200)
                .slow(100, Duration::from_micros(200)),
        ),
        // ~15% unavailable.
        faulty("det-b", FaultPlan::none().unavailable(150)),
        // Never unavailable — guarantees the router always has an out.
        faulty(
            "det-c",
            FaultPlan::none().slow(50, Duration::from_micros(100)),
        ),
    ];
    let router = DmRouter::new(
        nodes
            .iter()
            .map(|n| Arc::clone(n) as Arc<dyn DmNode>)
            .collect(),
    );
    for _ in 0..REQUESTS {
        let r = router
            .execute_query(&Query::table("catalog"))
            .expect("injected unavailability must be failed over");
        assert_eq!(r.rows.len(), 1);
    }
    let counts: Vec<FaultCounts> = nodes.iter().map(|n| n.counts()).collect();
    // Every injected unavailability was absorbed, never surfaced.
    assert!(
        counts.iter().any(|c| c.unavailable > 0),
        "the plan should have injected at least one outage: {counts:?}"
    );
    counts
}

/// Two DM nodes carrying identical location tables (the replicated-browse
/// deployment of §5.4) plus the shared item-id list. Identical construction
/// order makes the deterministic id allocators agree, so any node can
/// resolve any item.
fn replicated_dms(n_items: usize) -> (Arc<Dm>, Arc<Dm>, Vec<i64>) {
    let (a, b) = (dm(), dm());
    let mut items = Vec::with_capacity(n_items);
    for i in 0..n_items {
        let (na, nb) = (a.names(), b.names());
        let item = na.new_item().unwrap();
        assert_eq!(item, nb.new_item().unwrap(), "id allocators must agree");
        for names in [&na, &nb] {
            names
                .attach(
                    item,
                    NameType::File,
                    1,
                    &format!("raw/u{i}.fits"),
                    64,
                    None,
                    "data",
                )
                .unwrap();
        }
        items.push(item);
    }
    (a, b, items)
}

#[test]
fn batched_resolution_survives_mid_batch_node_failures() {
    let (dm_a, dm_b, items) = replicated_dms(40);
    let expected: Vec<_> = items
        .iter()
        .map(|&id| dm_b.names().resolve(id, NameType::File).unwrap())
        .collect();

    // Node A injects ~30% per-entry outages *inside* the batch; node B is
    // healthy. The router must retry exactly the failed entries.
    let faults = Seed::from_env(11).stream("node-faults");
    let plan = FaultPlan::none().unavailable(300);
    let a = Arc::new(FaultyDmNode::new(dm_a, "batch-a", plan, faults));
    let b = toggled(dm_b, "batch-b");
    let router = DmRouter::new(vec![
        a.clone() as Arc<dyn DmNode>,
        b.clone() as Arc<dyn DmNode>,
    ]);

    let batch = router.resolve_batch(&items, NameType::File);
    assert_eq!(batch.len(), items.len(), "one result per input, always");
    for ((got, want), item) in batch.iter().zip(&expected).zip(&items) {
        assert_eq!(
            got.as_ref().unwrap(),
            want,
            "item {item}: entries that failed on A must land on B unchanged"
        );
    }

    // Hard kill mid-rotation: A refuses everything, so any chunk assigned
    // to it fails over wholesale. Still exactly one result per input.
    a.set_down(true);
    let after_kill = router.resolve_batch(&items, NameType::File);
    assert_eq!(after_kill.len(), items.len());
    for (got, want) in after_kill.iter().zip(&expected) {
        assert_eq!(got.as_ref().unwrap(), want);
    }

    // Total outage: positional per-entry errors, nothing silently dropped.
    b.set_down(true);
    let dead = router.resolve_batch(&items, NameType::File);
    assert_eq!(dead.len(), items.len());
    assert!(dead
        .iter()
        .all(|r| matches!(r, Err(DmError::RemoteUnavailable(_)))));
}

#[test]
fn seeded_fault_injection_is_reproducible() {
    // Two runs from one seed must inject the exact same fault sequence —
    // this is what makes a flake printed as "fault seed N" replayable.
    // (Distinct seeds diverging is covered by the hedc-dm unit tests.)
    let seed = Seed::from_env(7);
    assert_eq!(
        run_seeded_scenario(seed),
        run_seeded_scenario(seed),
        "same seed, same faults"
    );
}
