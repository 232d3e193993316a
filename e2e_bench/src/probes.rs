//! `[S]` probes on structures the benchmark owns: a `hedc_store::Store`, a
//! `QueryCache`, captured wire messages, a metadb connection with a WAL,
//! and the ingest-side libraries (`events`, `wavelet`, `filestore`). Each
//! isolates one layer's unit cost so a workload's ledger can say which
//! layer a change moved.

use crate::catalogue::{Manifest, Sizes};
use crate::gen::{median, op_rng};
use crate::nodes::{disk_bytes, Scratch};
use crate::report::RunResult;
use hedc_cache::{CacheConfig, GenerationMap, QueryCache};
use hedc_dm::{scope_query, DmIo, Session};
use hedc_events::{bin_counts, detect, package, DetectConfig, Telemetry, TelemetryUnit};
use hedc_filestore::{Archive, ArchiveTier, DirBackend, FileStore};
use hedc_metadb::{
    ColumnDef, DataType, Database, DbOptions, Expr, Query, QueryResult, Schema, StorageBackend,
    StorageConfig, Value, WalOptions,
};
use hedc_net::frame::{self, Frame, FrameBuffer, FrameKind};
use hedc_net::proto::{self, Request, Response};
use hedc_store::{Store, StoreOptions};
use hedc_wavelet::PartitionedView;
use rand::Rng;
use std::hint::black_box;
use std::ops::Bound;
use std::sync::Arc;
use std::time::Instant;

/// Mean µs per call of `f` over `n` calls.
pub fn mean_us(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..n {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / 1e3 / n.max(1) as f64
}

/// `store.get_us`, `store.range50_us`, `store.commit64_us`,
/// `store.file_bytes`: a bench-owned store with `keys` rows of ~200 bytes
/// under a `cache_pages` budget (the workload's).
pub fn store(
    scratch: &Scratch,
    keys: usize,
    cache_pages: usize,
    seed: u64,
    result: &mut RunResult,
) -> std::io::Result<()> {
    let path = scratch.path("probe-store.pages");
    let store = Store::open(StoreOptions {
        path: Some(path.clone()),
        page_size: 4096,
        cache_pages,
    })?;
    let key = |i: usize| format!("row-{i:08}").into_bytes();
    let value = vec![0xA5u8; 200];
    let mut txn = store.begin();
    let tree = txn.create_tree();
    txn.commit().map_err(std::io::Error::other)?;
    let mut commits = Vec::new();
    for batch in (0..keys).collect::<Vec<_>>().chunks(64) {
        let t = Instant::now();
        let mut txn = store.begin();
        for &i in batch {
            txn.insert(tree, &key(i), &value)
                .map_err(std::io::Error::other)?;
        }
        txn.commit().map_err(std::io::Error::other)?;
        commits.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    let snap = store.snapshot();
    let mut rng = op_rng(seed, 0x5704E, 0);
    let picks: Vec<usize> = (0..2_000).map(|_| rng.gen_range(0..keys)).collect();
    result.set(
        "store.get_us",
        mean_us(picks.len(), |i| {
            black_box(snap.get(tree, &key(picks[i])).ok());
        }),
    );
    result.set(
        "store.range50_us",
        mean_us(500, |i| {
            let k = key(picks[i]);
            black_box(
                snap.range(tree, Bound::Included(&k), Bound::Unbounded)
                    .take(50)
                    .count(),
            );
        }),
    );
    result.set("store.commit64_us", median(&commits));
    result.set("store.file_bytes", disk_bytes(&path) as f64);
    drop(snap);
    drop(store);
    let _ = std::fs::remove_file(path);
    Ok(())
}

/// Rows a catalogue of `sizes` puts into the node's tables, roughly: what
/// the store probe is sized to.
pub fn catalogue_rows(sizes: &Sizes) -> usize {
    sizes.hles * (1 + 3 * sizes.anas_per_hle)
}

/// `cache.get_hit_us`, `cache.fill_us`: a bench-owned `QueryCache` with the
/// workload's byte budget, filled with results captured from the workload
/// (the scoped analysis-list query of each of the first `hot_set` HLEs). A
/// hit's cost is the clone of the cached `QueryResult`.
pub fn cache(
    capacity_bytes: usize,
    io: &DmIo,
    session: &Session,
    manifest: &Manifest,
    hot_set: usize,
    result: &mut RunResult,
) {
    let captured: Vec<(Query, QueryResult)> = manifest
        .hles
        .iter()
        .take(hot_set)
        .filter_map(|h| {
            let q = scope_query(
                session,
                Query::table("ana").filter(Expr::eq("hle_id", h.id)),
            );
            io.query(&q).ok().map(|r| (q, r))
        })
        .collect();
    if captured.is_empty() {
        return;
    }
    let gens = Arc::new(GenerationMap::new());
    let cache = QueryCache::new(
        &CacheConfig {
            capacity_bytes,
            ..CacheConfig::default()
        },
        Arc::clone(&gens),
    );
    result.set(
        "cache.fill_us",
        mean_us(captured.len(), |i| {
            let (q, r) = &captured[i];
            let deps = cache.snapshot(q);
            cache.fill("probe", q, r, deps);
        }),
    );
    let rounds = (10_000 / captured.len()).max(1);
    result.set(
        "cache.get_hit_us",
        mean_us(captured.len() * rounds, |i| {
            black_box(cache.get("probe", &captured[i % captured.len()].0));
        }),
    );
}

/// `net.encode_us`, `net.decode_us`: proto + frame encode and decode of a
/// captured request/response pair (the response carries `rows` rows).
pub fn wire(request: &Query, response: &QueryResult, result: &mut RunResult) {
    let req = Request::Query(request.clone());
    let resp = Response::Result(response.clone());
    let encode = |payload: Vec<u8>, kind| {
        frame::encode_frame(&Frame {
            kind,
            trace_id: 1,
            span_id: 2,
            req_id: 3,
            payload,
        })
        .expect("frame encodes")
    };
    let n = 2_000;
    result.set(
        "net.encode_us",
        mean_us(n, |_| {
            black_box(encode(
                proto::encode(&req).expect("request encodes"),
                FrameKind::Request,
            ));
            black_box(encode(
                proto::encode(&resp).expect("response encodes"),
                FrameKind::Response,
            ));
        }),
    );
    let req_bytes = encode(proto::encode(&req).expect("encodes"), FrameKind::Request);
    let resp_bytes = encode(proto::encode(&resp).expect("encodes"), FrameKind::Response);
    result.set(
        "net.decode_us",
        mean_us(n, |_| {
            let mut buf = FrameBuffer::new();
            buf.extend(&req_bytes);
            let f = buf.next_frame().expect("valid frame").expect("complete");
            black_box(proto::decode::<Request>(&f.payload).expect("request decodes"));
            buf.extend(&resp_bytes);
            let f = buf.next_frame().expect("valid frame").expect("complete");
            black_box(proto::decode::<Response>(&f.payload).expect("response decodes"));
        }),
    );
}

/// `metadb.insert_us`, `metadb.commit_us`: a bench-owned paged database
/// with a WAL (default options): one auto-committed insert, and the commit
/// of a 64-insert transaction.
pub fn metadb_writes(scratch: &Scratch, result: &mut RunResult) -> hedc_metadb::DbResult<()> {
    let (wal, pages) = (scratch.path("probe-db.wal"), scratch.path("probe-db.pages"));
    let db = Database::open(
        "probe",
        DbOptions {
            storage: StorageConfig {
                backend: StorageBackend::Paged,
                store_path: Some(pages.clone()),
                ..StorageConfig::default()
            },
            wal_path: Some(wal.clone()),
            wal: WalOptions::default(),
        },
    )?;
    let mut conn = db.connect();
    conn.create_table(
        Schema::new(
            "probe",
            vec![
                ColumnDef::new("id", DataType::Int).not_null(),
                ColumnDef::new("t", DataType::Timestamp).not_null(),
                ColumnDef::new("label", DataType::Text),
            ],
        )
        .primary_key(&["id"]),
    )?;
    let row = |i: i64| {
        vec![
            Value::Int(i),
            Value::Timestamp(i * 1000),
            Value::Text(format!("probe row {i}")),
        ]
    };
    let mut next = 0i64;
    let mut inserts = Vec::new();
    for _ in 0..500 {
        let t = Instant::now();
        conn.insert("probe", row(next))?;
        inserts.push(t.elapsed().as_nanos() as f64 / 1e3);
        next += 1;
    }
    let mut commits = Vec::new();
    for _ in 0..40 {
        conn.begin()?;
        for _ in 0..64 {
            conn.insert("probe", row(next))?;
            next += 1;
        }
        let t = Instant::now();
        conn.commit()?;
        commits.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    result.set("metadb.insert_us", median(&inserts));
    result.set("metadb.commit_us", median(&commits));
    drop(conn);
    drop(db);
    let _ = std::fs::remove_file(wal);
    let _ = std::fs::remove_file(pages);
    Ok(())
}

/// `events.package_us`, `events.detect_us`, `wavelet.build_us`,
/// `wavelet.reconstruct_us`, `wavelet.view_bytes_per_raw_byte`,
/// `filestore.write_us`: the ingest stages' library calls on the workload's
/// own telemetry, outside the pipeline.
pub fn ingest_stages(
    scratch: &Scratch,
    telemetry: &Telemetry,
    units: &[TelemetryUnit],
    photons_per_unit: usize,
    result: &mut RunResult,
) -> std::io::Result<()> {
    let t = Instant::now();
    let packaged = package(telemetry, photons_per_unit, 1);
    result.set(
        "events.package_us",
        t.elapsed().as_nanos() as f64 / 1e3 / packaged.len().max(1) as f64,
    );
    let sample: Vec<&TelemetryUnit> = units.iter().take(16).collect();
    let cfg = DetectConfig::default();
    result.set(
        "events.detect_us",
        mean_us(sample.len(), |i| {
            let u = sample[i];
            black_box(detect(&u.photons, u.start_ms, u.end_ms, &cfg));
        }),
    );
    // The view the `view` stage builds: 1 s bins, 1024-bin partitions, 0.5
    // quantisation (`IngestConfig::new`).
    let signals: Vec<Vec<f64>> = sample
        .iter()
        .map(|u| {
            bin_counts(&u.photons, u.start_ms, u.end_ms, 1000)
                .into_iter()
                .map(|c| c as f64)
                .collect()
        })
        .collect();
    let mut views = Vec::new();
    result.set(
        "wavelet.build_us",
        mean_us(signals.len(), |i| {
            views.push(PartitionedView::build(&signals[i], 1024, 0.5));
        }),
    );
    result.set(
        "wavelet.reconstruct_us",
        mean_us(views.len(), |i| {
            black_box(
                views[i]
                    .reconstruct_range(0, views[i].total_len(), usize::MAX)
                    .ok(),
            );
        }),
    );
    let view_bytes: usize = views.iter().map(|v| v.to_bytes().len()).sum();
    let raw_bytes: usize = signals.iter().map(|s| s.len() * 8).sum();
    result.set(
        "wavelet.view_bytes_per_raw_byte",
        view_bytes as f64 / raw_bytes.max(1) as f64,
    );
    let files = FileStore::new();
    let dir = scratch.path("probe-archive");
    files.register(Archive::new(
        9,
        "probe",
        ArchiveTier::OnlineDisk,
        8 << 30,
        Box::new(DirBackend::new(&dir).map_err(std::io::Error::other)?),
    ));
    let blobs: Vec<Vec<u8>> = sample.iter().map(|u| u.to_fits().to_bytes()).collect();
    result.set(
        "filestore.write_us",
        mean_us(blobs.len(), |i| {
            files
                .store(9, &format!("probe/unit{i}.fits"), &blobs[i])
                .expect("probe archive accepts the file");
        }),
    );
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}
