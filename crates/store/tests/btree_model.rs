//! Seeded model test: the COW B-tree against `BTreeMap` as the oracle.
//!
//! Runs with deliberately tiny pages so random workloads constantly
//! cross page-split and page-merge boundaries, plus enough churn to
//! exercise overflow chains, rollback, and snapshot isolation.
//!
//! Deterministic and replayable: set `HEDC_TEST_SEED` (decimal or hex
//! with `0x` prefix) to reproduce a failure — `scripts/check.sh --seed N`
//! replays the whole seeded suite.

use std::collections::BTreeMap;
use std::ops::Bound;

use hedc_obs::{Seed, Stream};
use hedc_store::{Store, StoreOptions};

const SEED: u64 = 0x0570_BEE7;

/// The suite's seed mixed with a per-case constant, as a root stream.
fn stream(mix: u64) -> Stream {
    Stream(Seed::from_env(SEED).0 ^ mix)
}

fn key_for(rng: &mut Stream, space: u64) -> Vec<u8> {
    // Mixed-length keys so slot arithmetic sees variable cell sizes.
    let n = rng.below(space);
    match rng.below(3) {
        0 => format!("k{n:06}").into_bytes(),
        1 => format!("key/{n:08}/suffix").into_bytes(),
        _ => format!("{n:04}").into_bytes(),
    }
}

fn value_for(rng: &mut Stream) -> Vec<u8> {
    // Mostly small values; occasionally large enough to spill to an
    // overflow chain even at 4K pages (tiny pages spill much sooner).
    let len = match rng.below(20) {
        0 => 400 + rng.below(1200) as usize,
        1..=3 => 60 + rng.below(120) as usize,
        _ => rng.below(24) as usize,
    };
    let mut v = Vec::with_capacity(len);
    for i in 0..len {
        v.push((rng.draw() as u8) ^ (i as u8));
    }
    v
}

/// One randomized round: a batch of mutations in a single transaction,
/// then full-state comparison against the model via range scan, point
/// gets, and bounded range scans.
fn run_model(mix: u64, page_size: usize, rounds: usize, ops_per_round: usize, key_space: u64) {
    let mut rng = stream(mix ^ page_size as u64);
    let store = Store::open(StoreOptions {
        path: None,
        page_size,
        cache_pages: 32,
    })
    .unwrap();
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();

    let mut txn = store.begin();
    let tree = txn.create_tree();
    txn.commit().unwrap();

    for round in 0..rounds {
        // Pin a snapshot of the pre-round state to check isolation after
        // the round commits.
        let pre = store.snapshot();
        let pre_model = model.clone();

        let mut txn = store.begin();
        let rollback = rng.below(8) == 0;
        let mut staged = model.clone();
        for _ in 0..ops_per_round {
            let k = key_for(&mut rng, key_space);
            if rng.below(10) < 6 {
                let v = value_for(&mut rng);
                let replaced = txn.insert(tree, &k, &v).unwrap();
                assert_eq!(
                    replaced,
                    staged.contains_key(&k),
                    "replace flag (round {round})"
                );
                staged.insert(k, v);
            } else {
                let found = txn.delete(tree, &k).unwrap();
                assert_eq!(
                    found,
                    staged.contains_key(&k),
                    "delete flag (round {round})"
                );
                staged.remove(&k);
            }
        }
        if rollback {
            drop(txn); // model unchanged
        } else {
            txn.commit().unwrap();
            model = staged;
        }

        // Pinned snapshot still sees the pre-round state.
        if round % 7 == 0 {
            let scan: Vec<_> = pre
                .range(tree, Bound::Unbounded, Bound::Unbounded)
                .collect();
            let want: Vec<_> = pre_model
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            assert_eq!(scan, want, "pinned snapshot diverged (round {round})");
        }
        drop(pre);

        // Fresh snapshot matches the model exactly.
        let snap = store.snapshot();
        let scan: Vec<_> = snap
            .range(tree, Bound::Unbounded, Bound::Unbounded)
            .collect();
        let want: Vec<_> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        assert_eq!(scan.len(), want.len(), "cardinality (round {round})");
        assert_eq!(scan, want, "full scan diverged (round {round})");

        // Random point gets, present and absent.
        for _ in 0..20 {
            let k = key_for(&mut rng, key_space * 2);
            assert_eq!(
                snap.get(tree, &k).unwrap(),
                model.get(&k).cloned(),
                "point get diverged (round {round})"
            );
        }

        // Random bounded range.
        let mut a = key_for(&mut rng, key_space);
        let mut b = key_for(&mut rng, key_space);
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        let got: Vec<_> = snap
            .range(
                tree,
                Bound::Included(a.as_slice()),
                Bound::Excluded(b.clone()),
            )
            .collect();
        let want: Vec<_> = model
            .range::<[u8], _>((Bound::Included(a.as_slice()), Bound::Excluded(b.as_slice())))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        assert_eq!(got, want, "bounded range diverged (round {round})");
    }
}

#[test]
fn model_tiny_pages_split_merge_heavy() {
    // 256-byte pages: a handful of cells per page, so every round
    // triggers splits and merges.
    run_model(0, 256, 40, 60, 300);
}

#[test]
fn model_small_pages_mixed() {
    run_model(0xA5A5, 512, 25, 120, 900);
}

#[test]
fn model_default_pages_overflow_heavy() {
    run_model(0x5A5A, 4096, 12, 200, 2_000);
}

/// Readers running full-tilt against a committing writer must always
/// observe a consistent committed state: every commit stores a `count`
/// cell equal to the number of `row/` keys it leaves behind, and every
/// reader asserts that invariant on a fresh snapshot.
#[test]
fn concurrent_readers_never_see_torn_commits() {
    let store = Store::open(StoreOptions {
        path: None,
        page_size: 256,
        cache_pages: 64,
    })
    .unwrap();
    let mut txn = store.begin();
    let tree = txn.create_tree();
    txn.insert(tree, b"count", &0u64.to_le_bytes()).unwrap();
    txn.commit().unwrap();

    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    std::thread::scope(|s| {
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let store = store.clone();
                let stop = stop.clone();
                s.spawn(move || {
                    let mut checks = 0u64;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let snap = store.snapshot();
                        let count = u64::from_le_bytes(
                            snap.get(tree, b"count")
                                .unwrap()
                                .unwrap()
                                .try_into()
                                .unwrap(),
                        );
                        let rows = snap
                            .range(
                                tree,
                                Bound::Included(&b"row/"[..]),
                                Bound::Excluded(b"row0".to_vec()),
                            )
                            .count() as u64;
                        assert_eq!(rows, count, "reader saw a torn commit");
                        checks += 1;
                    }
                    checks
                })
            })
            .collect();

        let mut rng = stream(0xC0C0);
        let mut live: Vec<u64> = Vec::new();
        let mut next = 0u64;
        for _ in 0..300 {
            let mut txn = store.begin();
            for _ in 0..1 + rng.below(4) {
                if live.is_empty() || rng.below(10) < 7 {
                    let id = next;
                    next += 1;
                    txn.insert(tree, format!("row/{id:08}").as_bytes(), b"x")
                        .unwrap();
                    live.push(id);
                } else {
                    let idx = rng.below(live.len() as u64) as usize;
                    let id = live.swap_remove(idx);
                    assert!(txn.delete(tree, format!("row/{id:08}").as_bytes()).unwrap());
                }
            }
            txn.insert(tree, b"count", &(live.len() as u64).to_le_bytes())
                .unwrap();
            txn.commit().unwrap();
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let total: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
        assert!(total > 0, "readers must have made progress");
    });
    assert_eq!(store.active_snapshots(), 0);
}

#[test]
fn drain_to_empty_and_refill() {
    let mut rng = stream(0xD7A1);
    let store = Store::open(StoreOptions {
        path: None,
        page_size: 256,
        cache_pages: 16,
    })
    .unwrap();
    let mut txn = store.begin();
    let tree = txn.create_tree();
    let mut keys: Vec<Vec<u8>> = (0..400u32)
        .map(|i| format!("k{i:05}").into_bytes())
        .collect();
    for k in &keys {
        txn.insert(tree, k, b"v").unwrap();
    }
    txn.commit().unwrap();

    // Delete in random order down to empty — exercises merges all the
    // way to root collapse.
    rng.shuffle(&mut keys);
    let mut txn = store.begin();
    for k in &keys {
        assert!(txn.delete(tree, k).unwrap());
    }
    txn.commit().unwrap();
    let snap = store.snapshot();
    assert_eq!(
        snap.range(tree, Bound::Unbounded, Bound::Unbounded).count(),
        0
    );
    drop(snap);

    // Refill after total drain; page recycling must keep the file small.
    let mut txn = store.begin();
    for k in &keys {
        txn.insert(tree, k, b"w").unwrap();
    }
    txn.commit().unwrap();
    let snap = store.snapshot();
    assert_eq!(
        snap.range(tree, Bound::Unbounded, Bound::Unbounded).count(),
        keys.len()
    );
}
