//! The StreamCorder fat client (§6.2).
//!
//! "The StreamCorder is a fat Java client offering the same functionality
//! as the HEDC Web-interface, plus additional features." Two cache
//! strategies are implemented, exactly as the paper describes:
//!
//! * **V1** — a file cache whose layout is *computed from fixed object
//!   attributes* ("a unique but static file system path for each
//!   data-object. As this path is based on fixed object attributes, such as
//!   type and creation date, the cache structure is predetermined").
//! * **V2** — V1 plus "a local DBMS installation for dynamic object
//!   references and meta data caching ... every installation of the
//!   StreamCorder is, in fact, a clone of the HEDC server": the client
//!   bootstraps its own domain schema, mirrors metadata tuples, and places
//!   objects exactly the way the server's DM does.
//!
//! Progressive analysis (§6.3) downloads wavelet-view *prefixes*: the
//! transfer meter shows approximation saving bytes, and the cache shows
//! repeat visits saving transfers.

use hedc_dm::{Dm, DmConfig, DmError, DmResult, NameType, Session};
use hedc_filestore::{Archive, ArchiveTier, FileStore};
use hedc_metadb::{Expr, Query, Value};
use hedc_wavelet::PartitionedView;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cache strategy selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStrategy {
    /// Static-path file cache (first version).
    V1StaticPath,
    /// Local DM + DBMS clone (second version).
    V2LocalClone,
}

/// Transfer accounting.
#[derive(Debug, Default)]
pub struct TransferMeter {
    /// Bytes fetched from the server.
    pub downloaded: AtomicU64,
    /// Bytes served from the local cache.
    pub cache_hits_bytes: AtomicU64,
    /// Object-level cache hits.
    pub hits: AtomicU64,
    /// Object-level cache misses.
    pub misses: AtomicU64,
}

impl TransferMeter {
    /// Snapshot (downloaded, cached bytes, hits, misses).
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.downloaded.load(Ordering::Relaxed),
            self.cache_hits_bytes.load(Ordering::Relaxed),
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

/// The fat client.
pub struct StreamCorder {
    /// The server this client talks to.
    server: Arc<Dm>,
    session: Arc<Session>,
    strategy: CacheStrategy,
    /// V1: object-key → cached bytes under a deterministic path.
    file_cache: Mutex<HashMap<String, Vec<u8>>>,
    /// V2: the local server clone.
    local: Option<Arc<Dm>>,
    /// Transfer accounting.
    pub meter: TransferMeter,
}

impl StreamCorder {
    /// Connect a StreamCorder to a server with a session.
    pub fn connect(
        server: Arc<Dm>,
        session: Arc<Session>,
        strategy: CacheStrategy,
    ) -> DmResult<Self> {
        let local = if strategy == CacheStrategy::V2LocalClone {
            // "Every installation of the StreamCorder is, in fact, a clone
            // of the HEDC server": same schema, own archives.
            let files = Arc::new(FileStore::new());
            files.register(Archive::in_memory(
                1,
                "local-cache",
                ArchiveTier::OnlineDisk,
                1 << 32,
            ));
            Some(Dm::bootstrap(files, DmConfig::default())?)
        } else {
            None
        };
        Ok(StreamCorder {
            server,
            session,
            strategy,
            file_cache: Mutex::new(HashMap::new()),
            local,
            meter: TransferMeter::default(),
        })
    }

    /// The static V1 cache path for an object: derived from fixed
    /// attributes only (type + item id), never from server-side location.
    pub fn static_cache_path(object_type: &str, item_id: i64) -> String {
        format!("cache/{object_type}/{:03}/{item_id}.obj", item_id % 512)
    }

    /// The active strategy.
    pub fn strategy(&self) -> CacheStrategy {
        self.strategy
    }

    /// Fetch an item's primary data file, through the cache.
    pub fn fetch_object(&self, object_type: &str, item_id: i64) -> DmResult<Vec<u8>> {
        match self.strategy {
            CacheStrategy::V1StaticPath => {
                let key = Self::static_cache_path(object_type, item_id);
                if let Some(data) = self.file_cache.lock().get(&key) {
                    self.meter.hits.fetch_add(1, Ordering::Relaxed);
                    self.meter
                        .cache_hits_bytes
                        .fetch_add(data.len() as u64, Ordering::Relaxed);
                    return Ok(data.clone());
                }
                self.meter.misses.fetch_add(1, Ordering::Relaxed);
                let data = self.download(item_id)?;
                self.file_cache.lock().insert(key, data.clone());
                Ok(data)
            }
            CacheStrategy::V2LocalClone => {
                let local = self.local.as_ref().expect("v2 has a local clone");
                // Local DM lookup: is the object already placed locally?
                let names = local.names();
                let local_entry = local.io.query(&Query::table("loc_entry").filter(Expr::eq(
                    "path",
                    Self::static_cache_path(object_type, item_id),
                )))?;
                if let Some(row) = local_entry.rows.first() {
                    let local_item = row[1].as_int().expect("item");
                    let data = names.fetch_data(local_item)?;
                    self.meter.hits.fetch_add(1, Ordering::Relaxed);
                    self.meter
                        .cache_hits_bytes
                        .fetch_add(data.len() as u64, Ordering::Relaxed);
                    return Ok(data);
                }
                self.meter.misses.fetch_add(1, Ordering::Relaxed);
                let data = self.download(item_id)?;
                // Place it exactly the way the server DM places files:
                // archive store + item + location entry.
                let path = Self::static_cache_path(object_type, item_id);
                local.io.files.store(1, &path, &data)?;
                let local_item = names.new_item()?;
                names.attach(
                    local_item,
                    NameType::File,
                    1,
                    &path,
                    data.len() as u64,
                    Some(hedc_filestore::checksum(&data)),
                    "data",
                )?;
                Ok(data)
            }
        }
    }

    fn download(&self, item_id: i64) -> DmResult<Vec<u8>> {
        let data = self.server.names().fetch_data(item_id)?;
        self.meter
            .downloaded
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        Ok(data)
    }

    /// Progressive view fetch (§6.3): download only the byte prefix needed
    /// for `max_levels` detail levels of the server-side wavelet view
    /// covering `[t_start, t_end)`, reconstruct locally, return the
    /// approximated count series. The full stream is cached on first use;
    /// later calls at any level are free.
    pub fn progressive_counts(
        &self,
        view_item: i64,
        bin_ms: u64,
        t_start: u64,
        t_end: u64,
        view_t0: u64,
        max_levels: usize,
    ) -> DmResult<(Vec<f64>, u64)> {
        // Transfer-cost model: a real client would range-request the
        // prefix; we fetch through the cache and report the prefix size.
        let data = self.fetch_object("view", view_item)?;
        let view = PartitionedView::from_bytes(&data)
            .map_err(|e| DmError::BadQuery(format!("corrupt view: {e}")))?;
        // Clamp to the view's coverage: a window starting before the view
        // must not underflow into a giant bin index.
        let b0 = (t_start.saturating_sub(view_t0) / bin_ms) as usize;
        let b1 = (t_end.saturating_sub(view_t0) / bin_ms) as usize;
        let bytes = view
            .bytes_for_range(b0, b1, max_levels)
            .map_err(|e| DmError::BadQuery(format!("view range: {e}")))?;
        let series = view
            .reconstruct_range(b0, b1, max_levels)
            .map_err(|e| DmError::BadQuery(format!("view decode: {e}")))?;
        Ok((series, bytes as u64))
    }

    /// Mirror visible metadata into the V2 local clone ("requests may also
    /// be sent to peer clients", §10 — the clone is what makes a peer a
    /// server). Returns (hles, analyses) mirrored.
    pub fn mirror_metadata(&self) -> DmResult<(usize, usize)> {
        let local = match &self.local {
            Some(l) => Arc::clone(l),
            None => {
                return Err(DmError::BadQuery(
                    "metadata mirroring requires the V2 local clone".into(),
                ))
            }
        };
        let svc = self.server.services();
        let hles = svc.query(&self.session, Query::table("hle"))?;
        let mut n_hle = 0usize;
        for row in &hles.rows {
            local.io.insert("hle", row.clone())?;
            n_hle += 1;
        }
        let anas = svc.query(&self.session, Query::table("ana"))?;
        let mut n_ana = 0usize;
        for row in &anas.rows {
            local.io.insert("ana", row.clone())?;
            n_ana += 1;
        }
        Ok((n_hle, n_ana))
    }

    /// Query the local clone (offline work, §9: "tools for offline work").
    pub fn local_query(&self, q: &Query) -> DmResult<hedc_metadb::QueryResult> {
        match &self.local {
            Some(local) => local.io.query(q),
            None => Err(DmError::BadQuery("no local clone in V1 mode".into())),
        }
    }

    /// Upload a locally produced analysis back to the server (§3.3:
    /// "new analysis results thus produced may be uploaded and imported").
    pub fn upload_analysis(
        &self,
        spec: &hedc_dm::AnaSpec,
        files: &[hedc_dm::FilePayload],
    ) -> DmResult<(i64, Option<i64>)> {
        self.server
            .services()
            .import_analysis(&self.session, spec, files)
    }

    /// Expose this client's local clone as a peer node (§10). Requires the
    /// V2 strategy — only a clone can serve requests. Typically used with
    /// [`hedc_dm::DmRouter`] so browse load can be answered by peers.
    pub fn share_as_peer(&self, label: &str) -> DmResult<Arc<PeerServer>> {
        match &self.local {
            Some(local) => Ok(Arc::new(PeerServer {
                label: label.to_string(),
                local: Arc::clone(local),
                served: AtomicU64::new(0),
            })),
            None => Err(DmError::BadQuery(
                "peer serving requires the V2 local clone".into(),
            )),
        }
    }
}

/// A StreamCorder's local clone exposed as a queryable peer (§10: "as
/// every StreamCorder is in reality a fully functional server, requests
/// may also be sent to peer clients to allow peer to peer interaction").
pub struct PeerServer {
    label: String,
    local: Arc<Dm>,
    served: AtomicU64,
}

impl PeerServer {
    /// Queries served by this peer.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }
}

impl hedc_dm::DmNode for PeerServer {
    fn node_id(&self) -> String {
        format!("peer:{}", self.label)
    }

    fn execute_query(&self, q: &Query) -> DmResult<hedc_metadb::QueryResult> {
        self.served.fetch_add(1, Ordering::Relaxed);
        self.local.io.query(q)
    }
}

/// Local value accessor helper (kept private).
#[allow(dead_code)]
fn value_to_string(v: &Value) -> String {
    v.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hedc_dm::{pipeline, IngestConfig, IngestOptions, Rights, SessionKind};
    use hedc_events::{generate, package, GenConfig};

    struct Fx {
        server: Arc<Dm>,
        session: Arc<Session>,
        view_item: i64,
        raw_item: i64,
        view_t0: u64,
    }

    fn fixture() -> Fx {
        let server = hedc_dm::testkit::dm();
        let t = generate(&GenConfig {
            duration_ms: 15 * 60 * 1000,
            background_rate: 15.0,
            flares_per_hour: 6.0,
            seed: 808,
            ..GenConfig::default()
        });
        let import = server.import_session();
        let cfg = IngestConfig::new(1, 2, server.extended_catalog);
        let unit = package(&t, usize::MAX, 1).remove(0);
        let run = pipeline::ingest(
            &server.io,
            &import,
            &[unit],
            &cfg,
            &IngestOptions::default(),
        );
        assert_eq!(run.unwrap().ingested, 1);
        server
            .create_user("scientist", "pw", "sci", Rights::SCIENTIST)
            .unwrap();
        let cookie = server.login("scientist", "pw", "client-1").unwrap();
        let session = server
            .session("client-1", cookie, SessionKind::Analysis)
            .unwrap();
        let vm = server.io.query(&Query::table("view_meta")).unwrap();
        let view_item = vm.rows[0][6].as_int().unwrap();
        let view_t0 = vm.rows[0][1].as_int().unwrap() as u64;
        let raw = server.io.query(&Query::table("raw_unit")).unwrap();
        let raw_item = raw.rows[0][6].as_int().unwrap();
        Fx {
            server,
            session,
            view_item,
            raw_item,
            view_t0,
        }
    }

    #[test]
    fn v1_cache_hits_after_first_fetch() {
        let fx = fixture();
        let sc = StreamCorder::connect(
            Arc::clone(&fx.server),
            Arc::clone(&fx.session),
            CacheStrategy::V1StaticPath,
        )
        .unwrap();
        let a = sc.fetch_object("raw", fx.raw_item).unwrap();
        let b = sc.fetch_object("raw", fx.raw_item).unwrap();
        assert_eq!(a, b);
        let (down, cached, hits, misses) = sc.meter.snapshot();
        assert_eq!(misses, 1);
        assert_eq!(hits, 1);
        assert_eq!(down, a.len() as u64);
        assert_eq!(cached, a.len() as u64);
    }

    #[test]
    fn v2_places_objects_like_the_server() {
        let fx = fixture();
        let sc = StreamCorder::connect(
            Arc::clone(&fx.server),
            Arc::clone(&fx.session),
            CacheStrategy::V2LocalClone,
        )
        .unwrap();
        let a = sc.fetch_object("raw", fx.raw_item).unwrap();
        let b = sc.fetch_object("raw", fx.raw_item).unwrap();
        assert_eq!(a, b);
        let (_, _, hits, misses) = sc.meter.snapshot();
        assert_eq!((hits, misses), (1, 1));
        // The local clone has real location metadata for the cached object.
        let entries = sc.local_query(&Query::table("loc_entry")).unwrap();
        assert_eq!(entries.rows.len(), 1);
    }

    #[test]
    fn progressive_fetch_saves_bytes() {
        let fx = fixture();
        let sc = StreamCorder::connect(
            Arc::clone(&fx.server),
            Arc::clone(&fx.session),
            CacheStrategy::V1StaticPath,
        )
        .unwrap();
        let t0 = fx.view_t0;
        let (coarse, coarse_bytes) = sc
            .progressive_counts(fx.view_item, 1000, t0, t0 + 600_000, t0, 3)
            .unwrap();
        let (full, full_bytes) = sc
            .progressive_counts(fx.view_item, 1000, t0, t0 + 600_000, t0, usize::MAX)
            .unwrap();
        assert_eq!(coarse.len(), 600);
        assert_eq!(full.len(), 600);
        assert!(
            coarse_bytes * 3 < full_bytes,
            "coarse {coarse_bytes} vs full {full_bytes}"
        );
        // Approximation preserves total counts roughly.
        let sc_sum: f64 = coarse.iter().sum();
        let full_sum: f64 = full.iter().sum();
        assert!((sc_sum - full_sum).abs() < full_sum.abs() * 0.2 + 50.0);
    }

    #[test]
    fn mirror_requires_v2_and_copies_tuples() {
        let fx = fixture();
        let v1 = StreamCorder::connect(
            Arc::clone(&fx.server),
            Arc::clone(&fx.session),
            CacheStrategy::V1StaticPath,
        )
        .unwrap();
        assert!(v1.mirror_metadata().is_err());

        let v2 = StreamCorder::connect(
            Arc::clone(&fx.server),
            Arc::clone(&fx.session),
            CacheStrategy::V2LocalClone,
        )
        .unwrap();
        let (hles, _anas) = v2.mirror_metadata().unwrap();
        assert!(hles > 0);
        let local_hles = v2.local_query(&Query::table("hle")).unwrap();
        assert_eq!(local_hles.rows.len(), hles);
    }

    #[test]
    fn upload_analysis_reaches_server() {
        let fx = fixture();
        let sc = StreamCorder::connect(
            Arc::clone(&fx.server),
            Arc::clone(&fx.session),
            CacheStrategy::V2LocalClone,
        )
        .unwrap();
        let hle = fx
            .server
            .services()
            .query(&fx.session, Query::table("hle").limit(1))
            .unwrap()
            .rows[0][0]
            .as_int()
            .unwrap();
        let spec = hedc_dm::AnaSpec {
            hle_id: hle,
            kind: "lightcurve".into(),
            fingerprint: "sc-local-1".into(),
            t_start: 0,
            t_end: 1000,
            energy_lo: 3.0,
            energy_hi: 100.0,
            param_grid: None,
            param_bins: None,
            param_bin_ms: Some(1000.0),
            duration_ms: 900,
            cpu_ms: 800,
            output_bytes: 128,
            product_type: "series".into(),
            calib_version: 1,
        };
        let files = vec![hedc_dm::FilePayload {
            archive_id: 2,
            path: "uploads/sc/series.json".into(),
            role: "data".into(),
            data: br#"{"counts":[1,2,3]}"#.to_vec(),
        }];
        let (ana_id, item) = sc.upload_analysis(&spec, &files).unwrap();
        assert!(ana_id > 0);
        assert!(item.is_some());
        // The server can serve it back.
        let sv = fx.server.names().fetch_data(item.unwrap()).unwrap();
        assert_eq!(sv, files[0].data);
    }
}
