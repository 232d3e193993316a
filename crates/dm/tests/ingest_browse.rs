//! Concurrent ingest vs. browse (§6: loading must not stop the readers).
//!
//! A staged parallel ingest runs while browser threads hammer the cached,
//! batched read path (result cache + `IN`-list lookups + `resolve_batch`).
//! Invariants, checked on every browse snapshot:
//!
//! * **no stale cache hits** — observed `raw_unit` counts never decrease,
//!   and a cache entry warmed before the load never survives the
//!   write-through generation bumps;
//! * **no torn reads** — any `raw_unit` row visible in a snapshot already
//!   has its location rows (the journal orders `raw_stored` before
//!   `raw_row`), so every batched resolve must succeed.

use hedc_cache::CacheConfig;
use hedc_dm::testkit::{node_with, Loader, Seed};
use hedc_dm::{pipeline, DmIo, IngestOptions, IoConfig, NameType, Names, Services};
use hedc_events::{generate, package, GenConfig, TelemetryUnit};
use hedc_metadb::{Expr, Query, StorageConfig};
use std::sync::atomic::{AtomicBool, Ordering};

fn workload(seed: u64) -> Vec<TelemetryUnit> {
    let t = generate(&GenConfig {
        seed,
        start_ms: 0,
        duration_ms: 6 * 60 * 1000,
        background_rate: 30.0,
        flares_per_hour: 30.0,
        grbs_per_day: 2.0,
        ..GenConfig::default()
    });
    let units = package(&t, 1_000, 1);
    assert!(units.len() >= 8, "need enough units for a racy window");
    units
}

/// A loader node with the result cache on, on the memory backend or (for
/// the paged test) the paged B-tree backend.
fn fixture(storage: StorageConfig) -> Loader {
    let cached = IoConfig {
        cache: Some(CacheConfig::default()),
        ..IoConfig::default()
    };
    Loader::over(node_with("ingest-browse", storage, &cached))
}

/// One browse snapshot over the cached, batched read path. Returns the
/// observed unit count; panics on any torn read.
fn browse_once(io: &DmIo) -> usize {
    let raws = io.query(&Query::table("raw_unit")).unwrap();
    let item_ids: Vec<i64> = raws
        .rows
        .iter()
        .map(|r| r[6].as_int().expect("raw_unit.item_id"))
        .collect();
    if item_ids.is_empty() {
        return 0;
    }
    // Batched IN-list lookup: every visible unit's location rows must
    // already exist (raw_stored journals before raw_row).
    let entries = io
        .query(
            &Query::table("loc_entry").filter(Expr::in_list("item_id", item_ids.iter().copied())),
        )
        .unwrap();
    let located: std::collections::HashSet<i64> = entries
        .rows
        .iter()
        .map(|r| r[1].as_int().unwrap())
        .collect();
    for id in &item_ids {
        assert!(
            located.contains(id),
            "torn read: raw_unit item {id} visible without its loc_entry"
        );
    }
    // Batched name mapping must resolve every visible unit.
    let names = Names::new(io);
    for (id, res) in item_ids
        .iter()
        .zip(names.resolve_batch(&item_ids, NameType::File))
    {
        let resolved = res.unwrap_or_else(|e| panic!("resolve_batch({id}): {e}"));
        assert!(!resolved.is_empty(), "item {id} resolved to nothing");
    }
    item_ids.len()
}

#[test]
fn browse_stays_consistent_under_concurrent_ingest() {
    exercise_browse_under_ingest(fixture(StorageConfig::default()));
}

/// Same invariants on the paged backend, where browse snapshots come from
/// the published MVCC registry instead of the catalog lock: a reader holds
/// a consistent point-in-time view while the ingest writers run, and never
/// waits behind them.
#[test]
fn browse_stays_consistent_under_concurrent_ingest_paged() {
    let fix = fixture(StorageConfig {
        page_size: 2048,
        cache_pages: 256,
        ..StorageConfig::paged()
    });
    // Paged tables publish snapshots from the moment they are created.
    let db = &fix.io.databases()[0];
    let pinned = db.snapshot("raw_unit").expect("paged table publishes");
    assert_eq!(pinned.len(), 0);
    exercise_browse_under_ingest(fix);
    // The pre-ingest snapshot still reads its original (empty) state: MVCC
    // kept the old version alive for the pinned reader.
    assert_eq!(pinned.len(), 0);
    assert!(pinned.scan_ids().is_empty());
}

fn exercise_browse_under_ingest(fix: Loader) {
    let units = workload(Seed::from_env(0xB40_053).0);

    // Warm the cache with the empty pre-load answer: if any write-through
    // generation bump is missed, this entry resurfaces as a stale hit below.
    assert_eq!(
        fix.io.query(&Query::table("raw_unit")).unwrap().rows.len(),
        0
    );
    assert_eq!(fix.io.query(&Query::table("hle")).unwrap().rows.len(), 0);

    let done = AtomicBool::new(false);
    let report = std::thread::scope(|s| {
        let browsers: Vec<_> = (0..2)
            .map(|_| {
                let (io, done) = (&fix.io, &done);
                s.spawn(move || {
                    let mut last = 0usize;
                    let mut snapshots = 0usize;
                    while !done.load(Ordering::Relaxed) {
                        let n = browse_once(io);
                        assert!(
                            n >= last,
                            "stale cache hit: unit count fell from {last} to {n}"
                        );
                        last = n;
                        snapshots += 1;
                    }
                    snapshots
                })
            })
            .collect();

        let report = pipeline::ingest(
            &fix.io,
            &fix.session,
            &units,
            &fix.cfg,
            &IngestOptions::with_workers(2),
        )
        .unwrap();
        done.store(true, Ordering::Relaxed);
        let snapshots: usize = browsers.into_iter().map(|b| b.join().unwrap()).sum();
        assert!(snapshots > 0, "browsers must have observed the load");
        report
    });

    assert!(report.fully_accounted());
    assert_eq!(report.failed, 0);
    assert_eq!(report.ingested, units.len());

    // Post-load reads go through the same cache: the pre-load entries must
    // have been invalidated by the load's generation bumps.
    assert_eq!(
        fix.io.query(&Query::table("raw_unit")).unwrap().rows.len(),
        units.len()
    );
    assert_eq!(
        fix.io.query(&Query::table("hle")).unwrap().rows.len(),
        report.hle_count
    );
    assert_eq!(browse_once(&fix.io), units.len());

    // The loader's session-scoped view agrees with the internal one.
    let svc = Services::new(&fix.io);
    let visible = svc.query(&fix.session, Query::table("raw_unit")).unwrap();
    assert_eq!(visible.rows.len(), units.len());

    // Value sanity on one batched row: path round-trips through the store.
    let raws = fix.io.query(&Query::table("raw_unit")).unwrap();
    let item = raws.rows[0][6].as_int().unwrap();
    let entries = fix
        .io
        .query(&Query::table("loc_entry").filter(Expr::eq("item_id", item)))
        .unwrap();
    let path = entries.rows[0][4].as_text().unwrap();
    let archive = entries.rows[0][3].as_int().unwrap() as u32;
    assert!(fix.io.files.exists(archive, path));
}
