//! Integration suite for the sharded DM result cache: hit/miss behavior,
//! write-through invalidation across every mutating semantic-layer
//! service, per-session scope isolation, byte-budget eviction, and a
//! multi-threaded read/write storm proving no stale read survives an
//! invalidation.

use hedc_cache::CacheConfig;
use hedc_dm::testkit::{cached_node, login, node};
use hedc_dm::{AnaSpec, DmIo, FilePayload, HleSpec, Services, Session};
use hedc_metadb::{AggFunc, Expr, Query};
use std::sync::Arc;

struct Fixture {
    io: DmIo,
    alice: Arc<Session>,
    bob: Arc<Session>,
}

fn fixture_with(cache: CacheConfig) -> Fixture {
    let io = cached_node("cache-int-test", cache);
    let (alice, bob) = (login(&io, "alice"), login(&io, "bob"));
    Fixture { io, alice, bob }
}

fn fixture() -> Fixture {
    fixture_with(CacheConfig::default())
}

fn ana_spec(hle_id: i64, fp: &str) -> AnaSpec {
    AnaSpec {
        hle_id,
        kind: "imaging".into(),
        fingerprint: fp.to_string(),
        t_start: 0,
        t_end: 1000,
        energy_lo: 3.0,
        energy_hi: 100.0,
        param_grid: Some(64.0),
        param_bins: None,
        param_bin_ms: None,
        duration_ms: 60_000,
        cpu_ms: 55_000,
        output_bytes: 56_000,
        product_type: "image".into(),
        calib_version: 1,
    }
}

/// Executed-query delta on the database backing `table` while `f` runs.
fn db_queries_during<T>(io: &DmIo, table: &str, f: impl FnOnce() -> T) -> (T, u64) {
    let before = io.db_for(table).stats();
    let out = f();
    let delta = io.db_for(table).stats().since(&before);
    (out, delta.queries)
}

#[test]
fn repeated_query_hits_the_cache_not_the_database() {
    let f = fixture();
    let svc = Services::new(&f.io);
    svc.create_hle(&f.alice, &HleSpec::window(0, 100, "flare"))
        .unwrap();
    let q = Query::table("hle").filter(Expr::eq("event_type", "flare"));

    let (first, cold_queries) =
        db_queries_during(&f.io, "hle", || svc.query(&f.alice, q.clone()).unwrap());
    assert_eq!(cold_queries, 1, "cold read executes SQL");
    let (second, warm_queries) =
        db_queries_during(&f.io, "hle", || svc.query(&f.alice, q.clone()).unwrap());
    assert_eq!(warm_queries, 0, "warm read must not touch the database");
    assert_eq!(first.rows, second.rows);

    let stats = f.io.caches().unwrap().queries.stats();
    assert!(stats.hits >= 1, "{stats:?}");
    assert!(stats.misses >= 1, "{stats:?}");
}

#[test]
fn every_mutating_service_invalidates_what_it_writes() {
    let f = fixture();
    let svc = Services::new(&f.io);
    let hle_count = || {
        svc.query(&f.alice, Query::table("hle").aggregate(AggFunc::CountStar))
            .unwrap()
            .scalar_int()
            .unwrap()
    };
    let ana_count = || {
        svc.query(&f.alice, Query::table("ana").aggregate(AggFunc::CountStar))
            .unwrap()
            .scalar_int()
            .unwrap()
    };
    let catalog_count = || {
        svc.query(
            &f.alice,
            Query::table("catalog").aggregate(AggFunc::CountStar),
        )
        .unwrap()
        .scalar_int()
        .unwrap()
    };

    // create_hle invalidates `hle` reads.
    assert_eq!(hle_count(), 0);
    let hle = svc
        .create_hle(&f.alice, &HleSpec::window(0, 100, "flare"))
        .unwrap();
    assert_eq!(hle_count(), 1, "create_hle left a stale count");

    // publish (an UPDATE) invalidates `hle` reads: bob's warm view of
    // public rows must pick the row up.
    let bob_view = || svc.query(&f.bob, Query::table("hle")).unwrap().rows.len();
    assert_eq!(bob_view(), 0);
    svc.publish(&f.alice, "hle", hle).unwrap();
    assert_eq!(bob_view(), 1, "publish left a stale scoped read");

    // import_analysis commits through a raw transaction; `ana` (and the
    // location tables) must still invalidate.
    assert_eq!(ana_count(), 0);
    let (ana_id, _) = svc
        .import_analysis(
            &f.alice,
            &ana_spec(hle, "fp-inv"),
            &[FilePayload {
                archive_id: 1,
                path: "inv/image.fits".into(),
                role: "image".into(),
                data: vec![7; 64],
            }],
        )
        .unwrap();
    assert_eq!(ana_count(), 1, "import_analysis left a stale count");

    // delete_analysis (raw transaction over ana + loc tables).
    svc.delete_analysis(&f.alice, ana_id).unwrap();
    assert_eq!(ana_count(), 0, "delete_analysis left a stale count");

    // create_catalog / add_to_catalog / delete_hle.
    let cats_before = catalog_count();
    let cat = svc
        .create_catalog(&f.alice, "mine", "private", None)
        .unwrap();
    assert_eq!(
        catalog_count(),
        cats_before + 1,
        "create_catalog left a stale count"
    );
    let members = || svc.catalog_members(&f.alice, cat).unwrap().len();
    assert_eq!(members(), 0);
    svc.add_to_catalog(&f.alice, cat, hle).unwrap();
    assert_eq!(members(), 1, "add_to_catalog left a stale membership read");

    svc.delete_hle(&f.alice, hle).unwrap();
    assert_eq!(hle_count(), 0, "delete_hle left a stale count");
    assert_eq!(
        members(),
        0,
        "delete_hle cascades to catalog_member; the cached read must see it"
    );
}

#[test]
fn cached_rows_never_cross_session_scopes() {
    let f = fixture();
    let svc = Services::new(&f.io);
    svc.create_hle(&f.alice, &HleSpec::window(0, 100, "flare"))
        .unwrap();
    let q = Query::table("hle").filter(Expr::eq("event_type", "flare"));

    // Warm alice's entry first, so a scope-confused cache would have
    // something to leak to bob.
    let mine = svc.query(&f.alice, q.clone()).unwrap();
    assert_eq!(mine.rows.len(), 1);
    let theirs = svc.query(&f.bob, q.clone()).unwrap();
    assert!(
        theirs.rows.is_empty(),
        "bob was served alice's private rows from cache"
    );
    // And warm entries for both scopes stay separate on repeat.
    assert_eq!(svc.query(&f.alice, q.clone()).unwrap().rows.len(), 1);
    assert!(svc.query(&f.bob, q).unwrap().rows.is_empty());
}

#[test]
fn byte_budget_evicts_but_never_corrupts() {
    // A cache far too small for the working set: plenty of evictions,
    // same answers as the database.
    let f = fixture_with(CacheConfig {
        capacity_bytes: 4096,
        shards: 1,
        ttl: None,
    });
    let svc = Services::new(&f.io);
    for k in 0..32u64 {
        svc.create_hle(&f.alice, &HleSpec::window(k * 10, k * 10 + 5, "flare"))
            .unwrap();
    }
    for round in 0..3 {
        for k in 0..32i64 {
            let r = svc
                .query(
                    &f.alice,
                    Query::table("hle").filter(Expr::between("t_start", k * 10, k * 10 + 1)),
                )
                .unwrap();
            assert_eq!(r.rows.len(), 1, "round {round} window {k}");
        }
    }
    let caches = f.io.caches().unwrap();
    assert!(
        caches.queries.stats().evictions > 0,
        "{:?}",
        caches.queries.stats()
    );
    assert!(
        caches.queries.bytes() <= 4096,
        "resident {} over budget",
        caches.queries.bytes()
    );
}

#[test]
fn concurrent_readers_never_see_a_stale_count() {
    use std::sync::atomic::{AtomicBool, Ordering};

    const WRITERS: usize = 4;
    const READERS: usize = 4;
    const ROWS_PER_WRITER: u64 = 50;

    let f = Arc::new(fixture());
    let done = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let f = Arc::clone(&f);
            scope.spawn(move || {
                let svc = Services::new(&f.io);
                for k in 0..ROWS_PER_WRITER {
                    let t0 = (w as u64) * 100_000 + k * 100;
                    svc.create_hle(&f.alice, &HleSpec::window(t0, t0 + 50, "storm"))
                        .unwrap();
                }
            });
        }
        for _ in 0..READERS {
            let f = Arc::clone(&f);
            let done = Arc::clone(&done);
            scope.spawn(move || {
                let svc = Services::new(&f.io);
                let q = Query::table("hle")
                    .filter(Expr::eq("event_type", "storm"))
                    .aggregate(AggFunc::CountStar);
                let mut floor = 0i64;
                // Keep reading until the writers are done, then once more.
                loop {
                    let finished = done.load(Ordering::Acquire);
                    let n = svc
                        .query(&f.alice, q.clone())
                        .unwrap()
                        .scalar_int()
                        .unwrap();
                    // Rows are only ever added: any decrease means a stale
                    // cached count was served after an invalidation.
                    assert!(
                        n >= floor,
                        "stale read: count went backwards {floor} -> {n}"
                    );
                    floor = n;
                    if finished {
                        break;
                    }
                }
            });
        }
        // Writer threads are the first WRITERS handles; scope joins all at
        // the end, but readers poll `done`, so flip it when writers finish.
        // (Spawn order guarantees nothing about completion; re-check via a
        // dedicated monitor thread.)
        let f_mon = Arc::clone(&f);
        let done_mon = Arc::clone(&done);
        scope.spawn(move || {
            let svc = Services::new(&f_mon.io);
            let total = (WRITERS as u64 * ROWS_PER_WRITER) as i64;
            let q = Query::table("hle")
                .filter(Expr::eq("event_type", "storm"))
                .aggregate(AggFunc::CountStar);
            loop {
                let n = svc
                    .query(&f_mon.alice, q.clone())
                    .unwrap()
                    .scalar_int()
                    .unwrap();
                if n == total {
                    done_mon.store(true, Ordering::Release);
                    break;
                }
                std::thread::yield_now();
            }
        });
    });

    // After the storm the cached count matches the database exactly.
    let svc = Services::new(&f.io);
    let n = svc
        .query(
            &f.alice,
            Query::table("hle")
                .filter(Expr::eq("event_type", "storm"))
                .aggregate(AggFunc::CountStar),
        )
        .unwrap()
        .scalar_int()
        .unwrap();
    assert_eq!(n, (WRITERS as u64 * ROWS_PER_WRITER) as i64);
    let stats = f.io.caches().unwrap().queries.stats();
    assert!(stats.invalidations + stats.misses > 0, "{stats:?}");
}

#[test]
fn disabled_cache_changes_nothing() {
    // The default IoConfig carries no cache; the same flows must work
    // without one (and `caches()` reports None).
    let io = node("cache-off-test", Default::default());
    assert!(io.caches().is_none());
    let solo = login(&io, "solo");
    let svc = Services::new(&io);
    svc.create_hle(&solo, &HleSpec::window(0, 10, "flare"))
        .unwrap();
    let (r, executed) = {
        let before = io.db_for("hle").stats();
        let r = svc.query(&solo, Query::table("hle")).unwrap();
        let delta = io.db_for("hle").stats().since(&before);
        (r, delta.queries)
    };
    assert_eq!(r.rows.len(), 1);
    assert_eq!(executed, 1, "without a cache every read executes");
}
