//! The store's observability contract: its counters and gauges are
//! registered in the **global** `hedc_obs` registry, which is exactly
//! what `/hedc/stats` and `/hedc/stats.json` render — so store health
//! is visible operationally with no extra wiring in the web tier.

use hedc_store::{Store, StoreOptions};

#[test]
fn store_metrics_surface_in_the_global_registry() {
    let dir = std::env::temp_dir().join(format!("hedc-store-obs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tempdir");
    let store = Store::open(StoreOptions {
        path: Some(dir.join("obs.store")),
        ..StoreOptions::default()
    })
    .expect("open store");

    let mut txn = store.begin();
    let tree = txn.create_tree();
    for i in 0..64u64 {
        txn.insert(tree, &i.to_be_bytes(), &[0u8; 128])
            .expect("insert");
    }
    txn.commit().expect("commit");
    let snap = store.snapshot();
    for i in 0..64u64 {
        assert!(snap.get(tree, &i.to_be_bytes()).expect("get").is_some());
    }

    let metrics = hedc_obs::global().snapshot();
    for metric in [
        "store.page_cache.hit",
        "store.page_cache.miss",
        "store.page_cache.evict",
        "store.page_cache.resident",
        "store.snapshot.active",
        "store.writer.waiting",
        "store.writer.stall",
        "store.pages.allocated",
        "store.pages.free",
        "store.pages.pending",
        "store.snapshot.oldest_lag",
    ] {
        assert!(
            metrics.counter(metric).is_some()
                || metrics.gauge(metric).is_some()
                || metrics.histogram(metric).is_some(),
            "{metric} missing from the global obs registry"
        );
    }
    // Activity actually flowed through the registered handles.
    assert!(hedc_obs::global().counter_value("store.page_cache.hit") > 0);

    // A pinned store is one look at the gauges: `snap` holds back every
    // page the next commits supersede, and says how far behind it is.
    let gauge = |name: &str| hedc_obs::global().gauge(name).get();
    for round in 0..3u8 {
        let mut txn = store.begin();
        for i in 0..64u64 {
            txn.insert(tree, &i.to_be_bytes(), &[round; 128])
                .expect("insert");
        }
        txn.commit().expect("commit");
    }
    assert_eq!(gauge("store.snapshot.oldest_lag"), 3);
    assert!(gauge("store.pages.pending") > 0);
    assert_eq!(gauge("store.pages.free"), 0);
    assert_eq!(
        gauge("store.pages.allocated") as u64,
        store.allocated_pages()
    );
    drop(snap);
    assert_eq!(gauge("store.snapshot.oldest_lag"), 0);
    assert_eq!(gauge("store.pages.pending"), 0);
    assert!(gauge("store.pages.free") > 0, "the held pages came back");
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
